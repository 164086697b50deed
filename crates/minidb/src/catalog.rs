//! Tables and the database catalog.

use crate::column::ColumnTable;
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::value::{EqIndex, Row, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// A stored table: schema, rows, optional hash indexes, statistics.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    /// `schema` with every column qualified by `name`: what an unaliased
    /// scan produces, built once and shared by every scan.
    scan_schema: Arc<Schema>,
    rows: Vec<Row>,
    /// Hash indexes by column position: value → row positions.
    indexes: HashMap<usize, EqIndex<usize>>,
    /// Column position of the primary key, if declared.
    primary_key: Option<usize>,
    stats: TableStats,
    /// Bumped by every operation that can change what an estimator would
    /// conclude about this table (row writes, index changes, re-analysis).
    /// [`Database::stats_epoch`] sums these, so estimate caches are
    /// invalidated by actual writes — not by merely *borrowing* a table
    /// mutably.
    version: u64,
    /// Lazily built columnar projection of `rows` — the vectorized
    /// engine's zero-copy scan source. Invalidated by row writes
    /// (insert/update), *not* by index creation or re-analysis.
    columns: Mutex<Option<Arc<ColumnTable>>>,
}

/// Cloning shares the (immutable) columnar snapshot: row writes on either
/// copy replace their own cache, never mutate it in place.
impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            scan_schema: self.scan_schema.clone(),
            rows: self.rows.clone(),
            indexes: self.indexes.clone(),
            primary_key: self.primary_key,
            stats: self.stats.clone(),
            version: self.version,
            columns: Mutex::new(self.columns.lock().unwrap().clone()),
        }
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let name = name.into();
        Table {
            scan_schema: Arc::new(schema.with_qualifier(&name)),
            name,
            schema,
            rows: Vec::new(),
            indexes: HashMap::new(),
            primary_key: None,
            stats: TableStats::default(),
            version: 0,
            columns: Mutex::new(None),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (columns unqualified).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema a scan of this table under `alias` produces: every
    /// column qualified by the alias, or by the table's name without one.
    /// The unaliased schema is the table's own, shared; an alias that is
    /// not the name builds its copy.
    pub fn scan_schema(&self, alias: Option<&str>) -> Arc<Schema> {
        match alias {
            Some(alias) if alias != self.name => Arc::new(self.schema.with_qualifier(alias)),
            _ => self.scan_schema.clone(),
        }
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The columnar projection of this table, built lazily from the row
    /// store and `Arc`-shared thereafter: scans (and `ANALYZE`) read it
    /// zero-copy; row writes invalidate it.
    pub fn columnar(&self) -> Arc<ColumnTable> {
        let mut guard = self.columns.lock().unwrap();
        if let Some(ct) = guard.as_ref() {
            return ct.clone();
        }
        let ct = Arc::new(ColumnTable::from_rows(&self.schema, &self.rows));
        *guard = Some(ct.clone());
        ct
    }

    /// Drop the cached columnar projection (called after row writes).
    fn invalidate_columns(&mut self) {
        *self.columns.get_mut().unwrap() = None;
    }

    /// Declare `column` as primary key and index it.
    pub fn set_primary_key(&mut self, column: &str) -> DbResult<()> {
        self.primary_key = Some(self.schema.resolve(column)?);
        self.create_index(column)
    }

    /// Primary-key column position, if declared.
    pub fn primary_key(&self) -> Option<usize> {
        self.primary_key
    }

    /// A row must match the schema arity.
    fn check_arity(&self, row: &Row) -> DbResult<()> {
        if row.len() == self.schema.len() {
            return Ok(());
        }
        Err(DbError::Invalid(format!(
            "row arity {} does not match schema arity {} for table {}",
            row.len(),
            self.schema.len(),
            self.name
        )))
    }

    /// Insert a row; maintains indexes.
    pub fn insert(&mut self, row: Row) -> DbResult<()> {
        self.check_arity(&row)?;
        let pos = self.rows.len();
        for (&col, index) in self.indexes.iter_mut() {
            index.insert(&row[col], pos);
        }
        self.rows.push(row);
        self.version += 1;
        self.invalidate_columns();
        Ok(())
    }

    /// Bulk insert; rebuilds indexes once at the end.
    pub fn insert_many(&mut self, rows: impl IntoIterator<Item = Row>) -> DbResult<()> {
        for row in rows {
            self.check_arity(&row)?;
            self.rows.push(row);
        }
        for c in self.indexes.keys().copied().collect::<Vec<_>>() {
            self.rebuild_index(c);
        }
        self.version += 1;
        self.invalidate_columns();
        Ok(())
    }

    /// Create a hash index on `column`.
    pub fn create_index(&mut self, column: &str) -> DbResult<()> {
        let idx = self.schema.resolve(column)?;
        self.version += 1;
        if !self.indexes.contains_key(&idx) {
            self.rebuild_index(idx);
        }
        Ok(())
    }

    fn rebuild_index(&mut self, col: usize) {
        let mut index = EqIndex::default();
        for (pos, row) in self.rows.iter().enumerate() {
            index.insert(&row[col], pos);
        }
        self.indexes.insert(col, index);
    }

    /// The rows `col = key` holds on, by position, if `col` is indexed.
    pub fn index_lookup(&self, col: usize, key: &Value) -> Option<Cow<'_, [usize]>> {
        self.indexes.get(&col).map(|index| index.get(key))
    }

    /// True if `col` is indexed.
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.contains_key(&col)
    }

    /// Recompute statistics from current rows, in one typed pass per
    /// column over the columnar projection (building it if needed — the
    /// usual load-then-analyze sequence warms the scan cache for free).
    pub fn analyze(&mut self) {
        let cols = self.columnar();
        self.stats = TableStats::analyze_columns(&cols);
        self.version += 1;
    }

    /// Most recent statistics (empty until [`Table::analyze`] runs).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Update `set_col` to `value` on all rows where `key_col = key` holds.
    /// Returns the number of rows changed. Maintains indexes.
    pub fn update_where_eq(
        &mut self,
        key_col: usize,
        key: &Value,
        set_col: usize,
        value: Value,
    ) -> usize {
        let equal = |r: &Row| r[key_col].sql_cmp(key) == Some(Ordering::Equal);
        let positions = match self.index_lookup(key_col, key) {
            Some(hits) => hits.into_owned(),
            None => (0..self.rows.len())
                .filter(|&pos| equal(&self.rows[pos]))
                .collect(),
        };
        for &pos in &positions {
            self.rows[pos][set_col] = value.clone();
        }
        if !positions.is_empty() {
            self.version += 1;
            if self.indexes.contains_key(&set_col) {
                self.rebuild_index(set_col);
            }
            self.invalidate_columns();
        }
        positions.len()
    }
}

/// The catalog: a named collection of tables.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Epoch contribution of catalog-level changes (table creation,
    /// explicit invalidation). [`Database::stats_epoch`] adds the
    /// per-table write versions on top, so only *actual writes* move the
    /// epoch — not read-only mutable borrows.
    epoch_base: u64,
    /// Process-unique identity of this `Database` *value* (clones get
    /// fresh ids): estimate caches stamp entries with `(instance_id,
    /// stats_epoch)` so a cache shared across databases can never serve
    /// one database's numbers for another.
    instance_id: u64,
}

/// Process-unique database instance ids, starting at 1 so the estimate
/// cache's zeroed initial stamp matches no real database.
fn next_instance_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for Database {
    fn default() -> Database {
        Database {
            tables: BTreeMap::new(),
            epoch_base: 0,
            instance_id: next_instance_id(),
        }
    }
}

/// Cloning copies the data but mints a fresh [`Database::instance_id`]:
/// the clone's statistics evolve independently, so cached estimates for
/// the original must never be served for it.
impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            tables: self.tables.clone(),
            epoch_base: self.epoch_base,
            instance_id: next_instance_id(),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// A counter that advances whenever catalog contents actually change:
    /// table creation, row inserts/updates, index creation, re-analysis,
    /// or an explicit [`Database::bump_stats_epoch`]. Cached estimates are
    /// valid only for the epoch they were computed in. Merely *borrowing*
    /// a table mutably ([`Database::table_mut`]) does **not** advance it,
    /// so read-only borrows keep estimate caches warm.
    pub fn stats_epoch(&self) -> u64 {
        self.epoch_base
            + self
                .tables
                .values()
                .map(|t| t.version)
                .fold(0u64, u64::wrapping_add)
    }

    /// The combined write-version of `plan`'s base tables: the slice of
    /// the catalog an observation of `plan` describes. Runtime feedback
    /// stamps observations with this value
    /// ([`crate::FeedbackStore::record_at`]) so evidence gathered before
    /// a table was rewritten is never averaged with — or served instead
    /// of — evidence about the current contents. Unlike
    /// [`Database::stats_epoch`], explicit epoch bumps do *not* move it:
    /// re-optimization sweeps invalidate estimates without discarding
    /// still-valid observations. Tables the catalog does not know
    /// contribute nothing (the plan fails elsewhere).
    pub fn plan_data_stamp(&self, plan: &crate::plan::LogicalPlan) -> u64 {
        plan.base_tables()
            .into_iter()
            .filter_map(|t| self.tables.get(t))
            .map(|t| t.version)
            .fold(0u64, u64::wrapping_add)
    }

    /// Explicitly advance the statistics epoch, invalidating every cached
    /// estimate stamped against this database. Used by adaptive
    /// re-optimization (`reoptimize_on_drift`): when runtime feedback
    /// shows the model's estimates have drifted, the bump forces fresh
    /// estimation on the next search.
    pub fn bump_stats_epoch(&mut self) {
        self.epoch_base += 1;
    }

    /// The process-unique identity of this `Database` value (see the
    /// field docs; clones get fresh ids).
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> DbResult<&mut Table> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(DbError::Invalid(format!("table {name} already exists")));
        }
        self.epoch_base += 1;
        self.tables
            .insert(name.clone(), Table::new(name.clone(), schema));
        Ok(self.tables.get_mut(&name).unwrap())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Look up a table mutably. The borrow itself does not advance the
    /// stats epoch — the [`Table`] write operations bump their own version
    /// counters, which [`Database::stats_epoch`] reflects. A read-only
    /// mutable borrow therefore leaves estimate caches valid.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Iterate over tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Recompute statistics for every table.
    pub fn analyze_all(&mut self) {
        for t in self.tables.values_mut() {
            t.analyze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn db_with_orders() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
        ]);
        let t = db.create_table("orders", schema).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        t.analyze();
        db
    }

    #[test]
    fn create_and_lookup_table() {
        let db = db_with_orders();
        assert_eq!(db.table("orders").unwrap().row_count(), 10);
        assert!(db.table("missing").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_orders();
        assert!(db.create_table("orders", Schema::default()).is_err());
    }

    #[test]
    fn primary_key_index_is_maintained_on_insert() {
        let db = db_with_orders();
        let t = db.table("orders").unwrap();
        let hits = t.index_lookup(0, &Value::Int(7)).unwrap();
        assert_eq!(*hits, [7]);
    }

    #[test]
    fn secondary_index_lookup() {
        let mut db = db_with_orders();
        let t = db.table_mut("orders").unwrap();
        t.create_index("o_customer_sk").unwrap();
        let hits = t.index_lookup(1, &Value::Int(1)).unwrap();
        assert_eq!(*hits, [1, 4, 7]);
        assert!(t.index_lookup(1, &Value::Int(99)).unwrap().is_empty());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = db_with_orders();
        let t = db.table_mut("orders").unwrap();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn insert_many_rebuilds_indexes() {
        let mut db = db_with_orders();
        let t = db.table_mut("orders").unwrap();
        t.insert_many((10..20).map(|i| vec![Value::Int(i), Value::Int(i % 3)]))
            .unwrap();
        assert_eq!(t.row_count(), 20);
        let hits = t.index_lookup(0, &Value::Int(15)).unwrap();
        assert_eq!(*hits, [15]);
    }

    #[test]
    fn analyze_populates_stats() {
        let db = db_with_orders();
        let s = db.table("orders").unwrap().stats();
        assert_eq!(s.row_count, 10);
        assert_eq!(s.columns[1].ndv, 3);
    }

    #[test]
    fn read_only_table_mut_borrow_keeps_epoch() {
        // Regression: `table_mut` used to bump the stats epoch on every
        // borrow, evicting the whole estimate cache even when no write
        // happened.
        let mut db = db_with_orders();
        let e0 = db.stats_epoch();
        let _ = db.table_mut("orders").unwrap().row_count();
        let _ = db.table_mut("orders").unwrap().stats().row_count;
        assert_eq!(db.stats_epoch(), e0);
    }

    #[test]
    fn writes_advance_epoch() {
        let mut db = db_with_orders();
        let e0 = db.stats_epoch();
        db.table_mut("orders")
            .unwrap()
            .insert(vec![Value::Int(100), Value::Int(1)])
            .unwrap();
        let e1 = db.stats_epoch();
        assert!(e1 > e0, "insert is a write");
        db.table_mut("orders")
            .unwrap()
            .create_index("o_customer_sk")
            .unwrap();
        let e2 = db.stats_epoch();
        assert!(e2 > e1, "index creation changes estimation");
        db.table_mut("orders")
            .unwrap()
            .update_where_eq(0, &Value::Int(0), 1, Value::Int(9));
        let e3 = db.stats_epoch();
        assert!(e3 > e2, "update is a write");
        db.analyze_all();
        let e4 = db.stats_epoch();
        assert!(e4 > e3, "re-analysis refreshes statistics");
        db.bump_stats_epoch();
        assert!(db.stats_epoch() > e4, "explicit invalidation");
    }

    #[test]
    fn columnar_cache_is_shared_until_a_row_write() {
        let mut db = db_with_orders();
        let t = db.table_mut("orders").unwrap();
        let c1 = t.columnar();
        let c2 = t.columnar();
        assert!(Arc::ptr_eq(&c1, &c2), "repeated scans share one snapshot");
        // Index creation and re-analysis keep the snapshot.
        t.create_index("o_customer_sk").unwrap();
        t.analyze();
        assert!(Arc::ptr_eq(&c1, &t.columnar()));
        // A row write invalidates it.
        t.insert(vec![Value::Int(10), Value::Int(1)]).unwrap();
        let c3 = t.columnar();
        assert!(!Arc::ptr_eq(&c1, &c3));
        assert_eq!(c3.len, 11);
        assert_eq!(c3.row(10), vec![Value::Int(10), Value::Int(1)]);
        // Updates invalidate too.
        t.update_where_eq(0, &Value::Int(10), 1, Value::Int(2));
        assert_eq!(t.columnar().row(10), vec![Value::Int(10), Value::Int(2)]);
    }

    /// Statistics the obvious way, a row and a `Value` at a time: what the
    /// typed columnar passes of `analyze_columns` must equal bit for bit.
    fn row_analyze(rows: &[Row], width: usize) -> TableStats {
        use crate::stats::{ColumnStats, Histogram, HISTOGRAM_BUCKETS};
        let column = |i: usize| {
            let present: Vec<&Value> = rows
                .iter()
                .map(|r| &r[i])
                .filter(|v| !v.is_null())
                .collect();
            // Only pure-numeric columns get histograms.
            let numeric: Vec<f64> = present.iter().filter_map(|v| v.as_f64()).collect();
            let pure = !numeric.is_empty() && numeric.len() == present.len();
            ColumnStats {
                ndv: present
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len() as u64,
                null_count: (rows.len() - present.len()) as u64,
                min: present.iter().copied().min().cloned(),
                max: present.iter().copied().max().cloned(),
                histogram: pure
                    .then(|| Histogram::build(numeric, HISTOGRAM_BUCKETS))
                    .flatten(),
            }
        };
        TableStats {
            row_count: rows.len() as u64,
            columns: (0..width).map(column).collect(),
            analyzed: true,
        }
    }

    #[test]
    fn columnar_analyze_matches_row_analyze() {
        let db = db_with_orders();
        let t = db.table("orders").unwrap();
        assert_eq!(t.stats(), &row_analyze(t.rows(), t.schema().len()));
        // Floats, NULLs, strings, a column of nothing but NULLs and one
        // that mixes types.
        let mixed = vec![
            vec![
                Value::Float(2.5),
                Value::Null,
                Value::str("b"),
                Value::Int(1),
            ],
            vec![
                Value::Float(-0.0),
                Value::Null,
                Value::Null,
                Value::str("x"),
            ],
            vec![Value::Null, Value::Null, Value::str("a"), Value::Float(0.5)],
            vec![
                Value::Float(0.0),
                Value::Null,
                Value::str("b"),
                Value::Int(1),
            ],
        ];
        let column = |c: usize| {
            crate::column::ColumnVec::from_values(mixed.iter().map(|r| r[c].clone()).collect())
        };
        let columnar = TableStats::analyze_columns(&ColumnTable {
            cols: (0..4).map(|c| Arc::new(column(c))).collect(),
            len: mixed.len(),
        });
        assert_eq!(columnar, row_analyze(&mixed, 4));
    }

    #[test]
    fn update_where_eq_finds_its_rows_by_sql_equality() {
        // `k = 1.0` holds on an Int 1 and `k = NULL` on nothing, with an
        // index on `k` and without.
        for indexed in [false, true] {
            let mut db = db_with_orders();
            let t = db.table_mut("orders").unwrap();
            t.insert(vec![Value::Int(10), Value::Null]).unwrap();
            if indexed {
                t.create_index("o_customer_sk").unwrap();
            }
            let n = t.update_where_eq(1, &Value::Float(1.0), 0, Value::Int(-1));
            assert_eq!(n, 3, "indexed: {indexed}");
            assert_eq!(t.rows()[4], vec![Value::Int(-1), Value::Int(1)]);
            let n = t.update_where_eq(1, &Value::Null, 0, Value::Int(-2));
            assert_eq!(n, 0, "indexed: {indexed}");
            assert_eq!(t.rows()[10], vec![Value::Int(10), Value::Null]);
        }
    }

    #[test]
    fn update_where_eq_changes_matching_rows() {
        let mut db = db_with_orders();
        let t = db.table_mut("orders").unwrap();
        let n = t.update_where_eq(1, &Value::Int(1), 1, Value::Int(42));
        assert_eq!(n, 3);
        let count42 = t.rows().iter().filter(|r| r[1] == Value::Int(42)).count();
        assert_eq!(count42, 3);
    }
}
