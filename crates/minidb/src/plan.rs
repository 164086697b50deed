//! Logical query plans.
//!
//! `LogicalPlan` is the exchange format between the application layer, the
//! SQL front-end, the F-IR transformation rules, the executor and the
//! estimator. Plans are plain values with structural equality/hashing so
//! the Region DAG can deduplicate alternatives that embed identical
//! queries.
//!
//! A plan's output schema is stated per node: a scan's is its table's
//! ([`crate::Table::scan_schema`], built once), a selection, a sort and a
//! limit keep their input's, a join concatenates its inputs', and a
//! projection's and an aggregate's come from their input's through
//! `project_schema` and `aggregate_schema`. [`LogicalPlan::output_schema`]
//! walks the tree with those; the executor and the estimator, which hold
//! each input's schema already, call the node's rule on it and never walk a
//! subtree twice. Schemas are `Arc`s: a scan's is shared, not copied.

use crate::catalog::Database;
use crate::error::{DbError, DbResult};
use crate::expr::{AggFunc, ColRef, ScalarExpr};
use crate::func::FuncRegistry;
use crate::schema::{Column, DataType, Schema};
use std::sync::Arc;

/// One item of an aggregate: function, optional argument, output name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggItem {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument; `None` means `count(*)`.
    pub arg: Option<ScalarExpr>,
    /// Output column name.
    pub name: String,
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortDir {
    Asc,
    Desc,
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// Scan a base table, optionally under an alias.
    Scan {
        table: String,
        alias: Option<String>,
    },
    /// Filter rows by a predicate.
    Select {
        input: Box<LogicalPlan>,
        pred: ScalarExpr,
    },
    /// Project (and compute) columns.
    Project {
        input: Box<LogicalPlan>,
        items: Vec<(ScalarExpr, String)>,
    },
    /// Inner join on an arbitrary predicate (equi-joins detected at exec).
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        pred: ScalarExpr,
    },
    /// Grouped or scalar aggregation.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<ColRef>,
        aggs: Vec<AggItem>,
    },
    /// Sort by keys.
    OrderBy {
        input: Box<LogicalPlan>,
        keys: Vec<(ColRef, SortDir)>,
    },
    /// First `n` rows.
    Limit { input: Box<LogicalPlan>, n: u64 },
}

impl LogicalPlan {
    /// Scan shorthand.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            alias: None,
        }
    }

    /// Aliased scan shorthand.
    pub fn scan_as(table: impl Into<String>, alias: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// Wrap in a filter.
    pub fn select(self, pred: ScalarExpr) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// Wrap in a projection.
    pub fn project(self, items: Vec<(ScalarExpr, String)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            items,
        }
    }

    /// Join with `right` on `pred`.
    pub fn join(self, right: LogicalPlan, pred: ScalarExpr) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// Wrap in an aggregation.
    pub fn aggregate(self, group_by: Vec<ColRef>, aggs: Vec<AggItem>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Wrap in a sort.
    pub fn order_by(self, keys: Vec<(ColRef, SortDir)>) -> LogicalPlan {
        LogicalPlan::OrderBy {
            input: Box::new(self),
            keys,
        }
    }

    /// Wrap in a limit.
    pub fn limit(self, n: u64) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// The base tables referenced by the plan, in occurrence order.
    pub fn base_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let LogicalPlan::Scan { table, .. } = p {
                out.push(table.as_str());
            }
        });
        out
    }

    /// Visit every node of the plan tree (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a LogicalPlan)) {
        f(self);
        match self {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::Limit { input, .. } => input.walk(f),
            LogicalPlan::Join { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
        }
    }

    /// Names of all parameters (`:name`) used anywhere in the plan.
    pub fn params(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |p| match p {
            LogicalPlan::Select { pred, .. } | LogicalPlan::Join { pred, .. } => {
                pred.collect_params(&mut out)
            }
            LogicalPlan::Project { items, .. } => {
                for (e, _) in items {
                    e.collect_params(&mut out);
                }
            }
            LogicalPlan::Aggregate { aggs, .. } => {
                for a in aggs {
                    if let Some(e) = &a.arg {
                        e.collect_params(&mut out);
                    }
                }
            }
            _ => {}
        });
        out.sort();
        out.dedup();
        out
    }

    /// True if the plan is a bare full-table fetch (no filter, projection,
    /// or aggregation) — the shape COBRA considers prefetchable by default
    /// (§VI: "an entire relation is fetched without any filters/grouping").
    pub fn is_whole_table_fetch(&self) -> bool {
        match self {
            LogicalPlan::Scan { .. } => true,
            LogicalPlan::OrderBy { input, .. } => input.is_whole_table_fetch(),
            _ => false,
        }
    }

    /// Derive the output schema against `db`, node by node through
    /// `project_schema` and `aggregate_schema` — what the executor and the
    /// estimator build from the input schema they hold.
    pub fn output_schema(&self, db: &Database, funcs: &FuncRegistry) -> DbResult<Arc<Schema>> {
        Ok(match self {
            LogicalPlan::Scan { table, alias } => db.table(table)?.scan_schema(alias.as_deref()),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::Limit { input, .. } => input.output_schema(db, funcs)?,
            LogicalPlan::Project { input, items } => {
                let input = input.output_schema(db, funcs)?;
                Arc::new(project_schema(&input, items, funcs)?)
            }
            LogicalPlan::Join { left, right, .. } => {
                let (l, r) = (
                    left.output_schema(db, funcs)?,
                    right.output_schema(db, funcs)?,
                );
                Arc::new(l.join(&r))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let input = input.output_schema(db, funcs)?;
                Arc::new(aggregate_schema(&input, group_by, aggs, funcs)?)
            }
        })
    }
}

/// A projection's schema over its input's: each item under its name, a
/// column keeping its width.
pub(crate) fn project_schema(
    input: &Schema,
    items: &[(ScalarExpr, String)],
    funcs: &FuncRegistry,
) -> DbResult<Schema> {
    let mut cols = Vec::with_capacity(items.len());
    for (expr, name) in items {
        let dtype = expr.infer_type(input, funcs)?;
        let width = match expr {
            ScalarExpr::Col(c) => input.column(c.resolve(input)?).byte_width,
            _ => dtype.default_width(),
        };
        cols.push(Column::with_width(name.clone(), dtype, width));
    }
    Ok(Schema::new(cols))
}

/// An aggregate's schema over its input's: the grouping columns,
/// unqualified, then one column per aggregate.
pub(crate) fn aggregate_schema(
    input: &Schema,
    group_by: &[ColRef],
    aggs: &[AggItem],
    funcs: &FuncRegistry,
) -> DbResult<Schema> {
    let mut cols = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        let c = input.column(g.resolve(input)?);
        cols.push(Column::with_width(c.name.clone(), c.dtype, c.byte_width));
    }
    for a in aggs {
        let dtype = match (a.func, &a.arg) {
            (AggFunc::Count, _) => DataType::Int,
            (AggFunc::Avg, _) => DataType::Float,
            (_, Some(e)) => e.infer_type(input, funcs)?,
            (func, None) => {
                let sql = func.sql();
                return Err(DbError::Invalid(format!(
                    "{sql}(*) is only valid for count"
                )));
            }
        };
        cols.push(Column::with_width(
            a.name.clone(),
            dtype,
            dtype.default_width(),
        ));
    }
    Ok(Schema::new(cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
            Column::with_width("o_status", DataType::Str, 10),
        ]);
        db.create_table("orders", orders).unwrap();
        let customer = Schema::new(vec![
            Column::new("c_customer_sk", DataType::Int),
            Column::new("c_birth_year", DataType::Int),
        ]);
        db.create_table("customer", customer).unwrap();
        db
    }

    #[test]
    fn scan_schema_is_qualified_by_alias() {
        let db = db();
        let funcs = FuncRegistry::with_builtins();
        let s = LogicalPlan::scan_as("orders", "o")
            .output_schema(&db, &funcs)
            .unwrap();
        assert_eq!(s.column(0).full_name(), "o.o_id");
        assert_eq!(s.row_bytes(), 8 + 8 + 10);
    }

    #[test]
    fn join_schema_concatenates_sides() {
        let db = db();
        let funcs = FuncRegistry::with_builtins();
        let plan = LogicalPlan::scan_as("orders", "o").join(
            LogicalPlan::scan_as("customer", "c"),
            ScalarExpr::eq(
                ScalarExpr::col("o.o_customer_sk"),
                ScalarExpr::col("c.c_customer_sk"),
            ),
        );
        let s = plan.output_schema(&db, &funcs).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.resolve("c.c_birth_year").unwrap(), 4);
    }

    #[test]
    fn aggregate_schema_has_groups_then_aggs() {
        let db = db();
        let funcs = FuncRegistry::with_builtins();
        let plan = LogicalPlan::scan("orders").aggregate(
            vec![ColRef::parse("o_status")],
            vec![AggItem {
                func: AggFunc::Count,
                arg: None,
                name: "cnt".to_string(),
            }],
        );
        let s = plan.output_schema(&db, &funcs).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(0).name, "o_status");
        assert_eq!(s.column(1).name, "cnt");
        assert_eq!(s.column(1).dtype, DataType::Int);
    }

    #[test]
    fn project_schema_uses_output_names_and_widths() {
        let db = db();
        let funcs = FuncRegistry::with_builtins();
        let plan = LogicalPlan::scan("orders").project(vec![
            (ScalarExpr::col("o_status"), "status".to_string()),
            (
                ScalarExpr::bin(
                    crate::expr::BinOp::Add,
                    ScalarExpr::col("o_id"),
                    ScalarExpr::lit(1i64),
                ),
                "next".to_string(),
            ),
        ]);
        let s = plan.output_schema(&db, &funcs).unwrap();
        assert_eq!(s.column(0).byte_width, 10, "width propagated from source");
        assert_eq!(s.column(1).name, "next");
    }

    #[test]
    fn base_tables_and_params() {
        let plan = LogicalPlan::scan("customer")
            .select(ScalarExpr::eq(
                ScalarExpr::col("c_customer_sk"),
                ScalarExpr::param("cust"),
            ))
            .join(LogicalPlan::scan("orders"), ScalarExpr::lit(true));
        assert_eq!(plan.base_tables(), vec!["customer", "orders"]);
        assert_eq!(plan.params(), vec!["cust".to_string()]);
    }

    #[test]
    fn whole_table_fetch_detection() {
        assert!(LogicalPlan::scan("orders").is_whole_table_fetch());
        assert!(LogicalPlan::scan("orders")
            .order_by(vec![(ColRef::parse("o_id"), SortDir::Asc)])
            .is_whole_table_fetch());
        assert!(!LogicalPlan::scan("orders")
            .select(ScalarExpr::eq(
                ScalarExpr::col("o_id"),
                ScalarExpr::lit(1i64)
            ))
            .is_whole_table_fetch());
    }

    #[test]
    fn unknown_table_in_schema_derivation_errors() {
        let db = db();
        let funcs = FuncRegistry::with_builtins();
        assert!(LogicalPlan::scan("nope")
            .output_schema(&db, &funcs)
            .is_err());
    }

    #[test]
    fn plans_hash_and_compare_structurally() {
        use std::collections::HashSet;
        let a = LogicalPlan::scan("orders").select(ScalarExpr::eq(
            ScalarExpr::col("o_id"),
            ScalarExpr::lit(Value::Int(1)),
        ));
        let b = LogicalPlan::scan("orders").select(ScalarExpr::eq(
            ScalarExpr::col("o_id"),
            ScalarExpr::lit(Value::Int(1)),
        ));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
