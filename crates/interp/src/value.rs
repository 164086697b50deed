//! Runtime values of the interpreter.

use minidb::{DbResult, EqIndex, RowRef, Schema, Value};

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A row object: a row of a shared query result — which carries the schema
/// that resolves field names — plus the originating entity when the row
/// came from the ORM (needed for association navigation). Held by value:
/// cloning bumps two reference counts and allocates nothing.
#[derive(Debug, Clone)]
pub struct RowObj {
    /// The row, where the engine left it.
    pub row: RowRef,
    /// Entity name when ORM-loaded (`None` for raw query results), shared
    /// by every row of a result.
    pub entity: Option<Arc<str>>,
}

/// One place that reads a field by name: it remembers the schema of the
/// last row it read and the column the name resolved to there, and
/// resolves again only when a row of another schema arrives.
#[derive(Default)]
pub(crate) struct FieldSite(RefCell<Option<(Arc<Schema>, usize)>>);

impl FieldSite {
    /// The field `name` of `row`, or why its schema does not resolve it.
    pub(crate) fn read(&self, row: &RowRef, name: &str) -> DbResult<Value> {
        let mut last = self.0.borrow_mut();
        let col = match &*last {
            Some((schema, col)) if Arc::ptr_eq(schema, row.schema()) => *col,
            _ => {
                let col = row.schema().resolve(name)?;
                *last = Some((row.schema().clone(), col));
                col
            }
        };
        Ok(row.value(col))
    }
}

/// A client-side column cache built by `Utils.cacheByColumn` (footnote 3 of
/// the paper): rows found by the `=` of the query a lookup replaces.
#[derive(Debug, Clone, Default)]
pub struct ColumnCache {
    rows_by_key: EqIndex<RowObj>,
    len: usize,
}

impl ColumnCache {
    /// Build a cache of `rows` keyed by column `key_col`, which every row
    /// must have, once: a query on a column its rows lack fails too.
    pub fn build(rows: impl IntoIterator<Item = RowObj>, key_col: &str) -> DbResult<ColumnCache> {
        let mut cache = ColumnCache::default();
        let site = FieldSite::default();
        for r in rows {
            cache.len += 1;
            cache.rows_by_key.insert(&site.read(&r.row, key_col)?, r);
        }
        Ok(cache)
    }

    /// All rows `key_col = key` holds on (none when absent, or for a NULL).
    pub fn lookup(&self, key: &Value) -> Cow<'_, [RowObj]> {
        self.rows_by_key.get(key)
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the cache holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum RtVal {
    /// Absence of a value (procedures without return).
    Unit,
    /// A scalar.
    Scalar(Value),
    /// A row object.
    Row(RowObj),
    /// An ordered collection.
    Collection(Arc<Mutex<Vec<RtVal>>>),
    /// A map with deterministic (sorted-key) iteration order.
    Map(Arc<Mutex<BTreeMap<Value, RtVal>>>),
    /// A client-side column cache.
    Cache(Arc<ColumnCache>),
}

impl RtVal {
    /// Wrap a scalar.
    pub fn scalar(v: impl Into<Value>) -> RtVal {
        RtVal::Scalar(v.into())
    }

    /// A fresh empty collection.
    pub fn new_collection() -> RtVal {
        RtVal::Collection(Arc::new(Mutex::new(Vec::new())))
    }

    /// A fresh empty map.
    pub fn new_map() -> RtVal {
        RtVal::Map(Arc::new(Mutex::new(BTreeMap::new())))
    }

    /// The scalar inside, if this is a scalar.
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            RtVal::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// Deep, order-preserving snapshot for result comparison.
    pub fn snapshot(&self) -> Snapshot {
        match self {
            RtVal::Unit => Snapshot::Unit,
            RtVal::Scalar(v) => Snapshot::Scalar(v.clone()),
            RtVal::Row(r) => Snapshot::Row(r.row.values()),
            RtVal::Collection(c) => {
                Snapshot::List(c.lock().unwrap().iter().map(|v| v.snapshot()).collect())
            }
            RtVal::Map(m) => Snapshot::Map(
                m.lock()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.snapshot()))
                    .collect(),
            ),
            RtVal::Cache(c) => {
                // Caches compare as the multiset of the rows a lookup finds.
                let found = c.rows_by_key.entries();
                let mut rows: Vec<_> = found.map(|r| Snapshot::Row(r.row.values())).collect();
                rows.sort();
                Snapshot::List(rows)
            }
        }
    }
}

/// A deep, comparable copy of a runtime value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Snapshot {
    Unit,
    Scalar(Value),
    Row(Vec<Value>),
    List(Vec<Snapshot>),
    Map(Vec<(Value, Snapshot)>),
}

/// Render a scalar with a stable, unambiguous textual form: floats always
/// carry a decimal point (`1.0`, never `1`) via the shortest round-trip
/// formatting, and strings are quoted — so snapshot text never conflates
/// `Int(1)`, `Float(1.0)` and `Str("1")`.
fn write_value(f: &mut std::fmt::Formatter<'_>, v: &Value) -> std::fmt::Result {
    match v {
        Value::Float(x) => write!(f, "{x:?}"),
        Value::Str(s) => write!(f, "{s:?}"),
        other => write!(f, "{other}"),
    }
}

/// Stable textual form used by equivalence diagnostics and repro output.
impl std::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Snapshot::Unit => write!(f, "unit"),
            Snapshot::Scalar(v) => write_value(f, v),
            Snapshot::Row(vals) => {
                write!(f, "(")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_value(f, v)?;
                }
                write!(f, ")")
            }
            Snapshot::List(items) => {
                write!(f, "[")?;
                for (i, s) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "]")
            }
            Snapshot::Map(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_value(f, k)?;
                    write!(f, ": {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl Snapshot {
    /// Normalize to bag semantics: recursively sort every list. Rewrites
    /// that preserve multisets but not order compare equal afterwards.
    pub fn normalized(mut self) -> Snapshot {
        self.sort_lists();
        self
    }

    fn sort_lists(&mut self) {
        match self {
            Snapshot::List(items) => {
                for i in items.iter_mut() {
                    i.sort_lists();
                }
                items.sort();
            }
            Snapshot::Map(entries) => {
                for (_, v) in entries.iter_mut() {
                    v.sort_lists();
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Column, DataType, Database, DbError, Executor, FuncRegistry, LogicalPlan, Row};

    /// `rows` as the rows of a scan of a table `t(k, v)`.
    fn rows(rows: Vec<Row>) -> Vec<RowObj> {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Str),
        ]);
        db.create_table("t", schema)
            .unwrap()
            .insert_many(rows)
            .unwrap();
        let funcs = FuncRegistry::with_builtins();
        let result = Executor::new(&db, &funcs)
            .run(&LogicalPlan::scan("t"), &std::collections::HashMap::new())
            .unwrap();
        let result = Arc::new(result);
        let rows = RowRef::all(&result).map(|row| RowObj { row, entity: None });
        rows.collect()
    }

    #[test]
    fn row_field_access() {
        let r = rows(vec![vec![Value::Int(1), Value::str("x")]]).remove(0);
        let field = |name: &str| FieldSite::default().read(&r.row, name);
        assert_eq!(field("v"), Ok(Value::str("x")));
        assert_eq!(field("t.k"), Ok(Value::Int(1)));
        assert_eq!(field("nope"), Err(DbError::UnknownColumn("nope".into())));
    }

    #[test]
    fn column_cache_groups_by_key() {
        let rows = rows(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("c")],
        ]);
        let cache = ColumnCache::build(rows, "k").unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(&Value::Int(1)).len(), 2);
        assert_eq!(cache.lookup(&Value::Int(9)).len(), 0);
    }

    #[test]
    fn snapshots_compare_structurally() {
        let c = RtVal::new_collection();
        if let RtVal::Collection(inner) = &c {
            inner.lock().unwrap().push(RtVal::scalar(2i64));
            inner.lock().unwrap().push(RtVal::scalar(1i64));
        }
        let snap = c.snapshot();
        assert_eq!(
            snap,
            Snapshot::List(vec![
                Snapshot::Scalar(Value::Int(2)),
                Snapshot::Scalar(Value::Int(1))
            ])
        );
        // Normalized comparison is order-insensitive.
        let reordered = Snapshot::List(vec![
            Snapshot::Scalar(Value::Int(1)),
            Snapshot::Scalar(Value::Int(2)),
        ]);
        assert_ne!(snap, reordered);
        assert_eq!(snap.normalized(), reordered.normalized());
    }

    #[test]
    fn map_snapshot_is_key_sorted() {
        let m = RtVal::new_map();
        if let RtVal::Map(inner) = &m {
            inner
                .lock()
                .unwrap()
                .insert(Value::Int(2), RtVal::scalar("b"));
            inner
                .lock()
                .unwrap()
                .insert(Value::Int(1), RtVal::scalar("a"));
        }
        let Snapshot::Map(entries) = m.snapshot() else {
            panic!()
        };
        assert_eq!(entries[0].0, Value::Int(1));
        assert_eq!(entries[1].0, Value::Int(2));
    }

    #[test]
    fn display_keeps_floats_and_strings_unambiguous() {
        let s = Snapshot::List(vec![
            Snapshot::Scalar(Value::Int(1)),
            Snapshot::Scalar(Value::Float(1.0)),
            Snapshot::Scalar(Value::str("1")),
        ]);
        assert_eq!(s.to_string(), "[1, 1.0, \"1\"]");
        let m = Snapshot::Map(vec![(Value::Int(2), Snapshot::Unit)]);
        assert_eq!(m.to_string(), "{2: unit}");
        let r = Snapshot::Row(vec![Value::Float(0.5), Value::Null]);
        assert_eq!(r.to_string(), "(0.5, NULL)");
    }

    #[test]
    fn cache_snapshot_is_deterministic() {
        let rows = rows(vec![
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("a")],
        ]);
        let c1 = RtVal::Cache(Arc::new(ColumnCache::build(rows.clone(), "k").unwrap()));
        let c2 = RtVal::Cache(Arc::new(
            ColumnCache::build(rows.into_iter().rev(), "k").unwrap(),
        ));
        assert_eq!(c1.snapshot(), c2.snapshot());
    }
}
