//! Physical execution of logical plans.
//!
//! The executor runs a plan to completion and *accounts* the work done
//! per operator, split into the portion that happens **before the first
//! output row** (blocking work: hash-build, aggregation, sorting) and the
//! total. The connection that runs the plan derives `C^F_Q` / `C^L_Q` —
//! time to first and last row — from these counters at its per-row price
//! ([`ExecWork::first_row_ns`], [`ExecWork::total_ns`]); nothing in this
//! crate knows a price.
//!
//! [`Executor::run`] returns the result as the engine left it, a columnar
//! [`ResultSet`]; [`Executor::execute`] is `run` followed by
//! [`ResultSet::rows`], for callers that want `Vec<Row>`.
//!
//! One data plane runs every query: the vectorized columnar engine in
//! [`crate::vexec`], which implements index lookups for equality
//! predicates over indexed base-table scans, index-nested-loops and hash
//! joins for equi-joins (nested loops otherwise), hash aggregation and a
//! full sort for `ORDER BY`. This module keeps what is not columnar about
//! execution: the [`Executor`] handle, the work counters and `AggState`,
//! the aggregate fallback for arguments without a typed accumulator. (What
//! `=` holds on is no access path's to decide: [`crate::value::EqIndex`].)
//!
//! What the engine returns is held to `tests/support/naive.rs`, an
//! evaluator with no access path and its own comparison, logic and
//! arithmetic (`tests/engine_reference.rs`); row order below a join and
//! [`ExecWork`], which only the engine defines, are held by the digests of
//! `tests/engine_differential.rs` and `tests/interp_pins.rs`.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::expr::AggFunc;
use crate::func::FuncRegistry;
use crate::plan::LogicalPlan;
use crate::schema::Schema;
use crate::value::{Row, Value};
use crate::vexec::ResultSet;
use std::collections::HashMap;

/// Work counters for one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecWork {
    /// Row-touches performed before the first output row could be emitted.
    pub startup_rows: u64,
    /// Total row-touches across all operators.
    pub total_rows: u64,
}

impl ExecWork {
    pub(crate) fn add(&mut self, other: ExecWork) {
        self.startup_rows += other.startup_rows;
        self.total_rows += other.total_rows;
    }

    /// Server time to produce the first result row, at `row_ns` a
    /// row-touch, in ns.
    pub fn first_row_ns(&self, row_ns: f64) -> u64 {
        (self.startup_rows as f64 * row_ns) as u64
    }

    /// Server time to produce the complete result, at `row_ns` a
    /// row-touch, in ns.
    pub fn total_ns(&self, row_ns: f64) -> u64 {
        (self.total_rows as f64 * row_ns) as u64
    }
}

/// A query result with every row materialized, plus its work profile:
/// what [`Executor::execute`] returns.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Work performed by the server.
    pub work: ExecWork,
}

impl QueryResult {
    /// Result-set cardinality (`N_Q`).
    pub fn row_count(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Declared size of one result row in bytes (`S_row(Q)`).
    pub fn row_bytes(&self) -> u64 {
        self.schema.row_bytes()
    }

    /// Total payload size in bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.row_count() * self.row_bytes()
    }
}

/// Executes logical plans against a database.
pub struct Executor<'a> {
    pub(crate) db: &'a Database,
    pub(crate) funcs: &'a FuncRegistry,
    /// When set, every execution records its actual cardinality and work
    /// per plan fingerprint — the runtime half of the cardinality
    /// feedback loop (see [`crate::feedback::FeedbackStore`]).
    feedback: Option<&'a crate::feedback::FeedbackStore>,
}

impl<'a> Executor<'a> {
    /// New executor, recording nothing.
    pub fn new(db: &'a Database, funcs: &'a FuncRegistry) -> Executor<'a> {
        Executor {
            db,
            funcs,
            feedback: None,
        }
    }

    /// Record every execution's observed cardinality and work into
    /// `feedback`, keyed by the plan's structural fingerprint.
    pub fn with_feedback(mut self, feedback: &'a crate::feedback::FeedbackStore) -> Executor<'a> {
        self.feedback = Some(feedback);
        self
    }

    /// Execute `plan` with `params` bound and return the result as the
    /// engine left it: columnar, nothing materialized.
    pub fn run(&self, plan: &LogicalPlan, params: &HashMap<String, Value>) -> DbResult<ResultSet> {
        let result = crate::vexec::run(self, plan, params)?;
        if let Some(fb) = self.feedback {
            fb.record_at(
                plan,
                result.len() as u64,
                &result.work(),
                self.db.plan_data_stamp(plan),
            );
        }
        Ok(result)
    }

    /// [`Executor::run`], then every row materialized: what tests and the
    /// benchmark read rows through.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        params: &HashMap<String, Value>,
    ) -> DbResult<QueryResult> {
        let result = self.run(plan, params)?;
        Ok(QueryResult {
            schema: Schema::clone(result.schema()),
            rows: result.rows(),
            work: result.work(),
        })
    }
}

/// Incremental aggregate state: the engine's row-at-a-time fallback for
/// arguments without a typed accumulator.
pub(crate) enum AggState {
    Count(u64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(n) => {
                // count(*) counts rows; count(expr) skips NULLs.
                match v {
                    Some(val) if val.is_null() => {}
                    _ => *n += 1,
                }
            }
            AggState::Sum(acc) => {
                if let Some(val) = v {
                    if val.is_null() {
                        return;
                    }
                    *acc = Some(match acc.take() {
                        None => val.clone(),
                        Some(Value::Int(a)) => match val {
                            // Int arithmetic wraps, as in `apply_bin_op`.
                            Value::Int(b) => Value::Int(a.wrapping_add(*b)),
                            other => Value::Float(a as f64 + other.as_f64().unwrap_or(0.0)),
                        },
                        Some(Value::Float(a)) => Value::Float(a + val.as_f64().unwrap_or(0.0)),
                        Some(other) => other,
                    });
                }
            }
            AggState::Min(acc) => {
                if let Some(val) = v {
                    if val.is_null() {
                        return;
                    }
                    match acc {
                        Some(m) if val.sql_cmp(m) != Some(std::cmp::Ordering::Less) => {}
                        _ => *acc = Some(val.clone()),
                    }
                }
            }
            AggState::Max(acc) => {
                if let Some(val) = v {
                    if val.is_null() {
                        return;
                    }
                    match acc {
                        Some(m) if val.sql_cmp(m) != Some(std::cmp::Ordering::Greater) => {}
                        _ => *acc = Some(val.clone()),
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(val) = v {
                    if let Some(f) = val.as_f64() {
                        *sum += f;
                        *n += 1;
                    }
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum(acc) => acc.unwrap_or(Value::Null),
            AggState::Min(acc) => acc.unwrap_or(Value::Null),
            AggState::Max(acc) => acc.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use crate::schema::{Column, DataType};
    use crate::sql::parse;

    fn test_db() -> Database {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
            Column::new("o_amount", DataType::Float),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..100i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Float((i as f64) * 1.5),
            ])
            .unwrap();
        }
        let customer = Schema::new(vec![
            Column::new("c_customer_sk", DataType::Int),
            Column::new("c_birth_year", DataType::Int),
        ]);
        let t = db.create_table("customer", customer).unwrap();
        t.set_primary_key("c_customer_sk").unwrap();
        for i in 0..10i64 {
            t.insert(vec![Value::Int(i), Value::Int(1960 + i)]).unwrap();
        }
        db.analyze_all();
        db
    }

    fn run(db: &Database, sql: &str) -> QueryResult {
        let funcs = FuncRegistry::with_builtins();
        let plan = parse(sql).unwrap();
        Executor::new(db, &funcs)
            .execute(&plan, &HashMap::new())
            .unwrap()
    }

    #[test]
    fn scan_returns_all_rows() {
        let db = test_db();
        let r = run(&db, "select * from orders");
        assert_eq!(r.row_count(), 100);
        assert_eq!(r.work.total_rows, 100);
        assert_eq!(r.work.startup_rows, 0, "scans are pipelined");
    }

    #[test]
    fn filter_scan() {
        let db = test_db();
        let r = run(&db, "select * from orders where o_amount > 100.0");
        assert_eq!(r.row_count(), 33, "1.5*i > 100 for i in 67..100");
    }

    #[test]
    fn index_lookup_path_is_cheap() {
        let db = test_db();
        let r = run(&db, "select * from orders where o_id = 50");
        assert_eq!(r.row_count(), 1);
        assert!(r.work.total_rows <= 2, "index probe: got {:?}", r.work);
    }

    #[test]
    fn parameterized_index_lookup() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let plan = parse("select * from customer where c_customer_sk = :cust").unwrap();
        let mut params = HashMap::new();
        params.insert("cust".to_string(), Value::Int(3));
        let r = Executor::new(&db, &funcs).execute(&plan, &params).unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows[0][1], Value::Int(1963));
    }

    #[test]
    fn unbound_param_errors() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let plan = parse("select * from customer where c_customer_sk = :cust").unwrap();
        let err = Executor::new(&db, &funcs)
            .execute(&plan, &HashMap::new())
            .unwrap_err();
        assert!(matches!(err, DbError::UnboundParam(_)));
    }

    #[test]
    fn hash_join_produces_all_matches() {
        let db = test_db();
        let r = run(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        assert_eq!(r.row_count(), 100, "every order has a customer");
        assert_eq!(r.schema.len(), 5);
        // Startup covers at least the build side.
        assert!(r.work.startup_rows >= 10);
    }

    #[test]
    fn join_row_bytes_is_sum_of_sides() {
        let db = test_db();
        let r = run(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        assert_eq!(r.row_bytes(), 8 + 8 + 8 + 8 + 8);
    }

    #[test]
    fn nested_loop_join_for_non_equi() {
        let db = test_db();
        let r = run(
            &db,
            "select * from customer a join customer b on a.c_birth_year < b.c_birth_year",
        );
        assert_eq!(r.row_count(), 45, "10 choose 2");
    }

    #[test]
    fn group_by_aggregation() {
        let db = test_db();
        let r = run(
            &db,
            "select o_customer_sk, count(*) as n, sum(o_amount) as total \
             from orders group by o_customer_sk",
        );
        assert_eq!(r.row_count(), 10);
        for row in &r.rows {
            assert_eq!(row[1], Value::Int(10));
        }
        assert_eq!(r.work.startup_rows, r.work.total_rows, "blocking operator");
    }

    #[test]
    fn scalar_aggregate_on_empty_input_yields_one_row() {
        let db = test_db();
        let r = run(&db, "select count(*) as n from orders where o_id = -1");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn sum_over_ints_stays_int() {
        let db = test_db();
        let r = run(&db, "select sum(o_id) from orders");
        assert_eq!(r.rows[0][0], Value::Int(4950));
    }

    #[test]
    fn avg_aggregate() {
        let db = test_db();
        let r = run(&db, "select avg(c_birth_year) from customer");
        assert_eq!(r.rows[0][0], Value::Float(1964.5));
    }

    #[test]
    fn min_max_aggregates() {
        let db = test_db();
        let r = run(&db, "select min(o_amount), max(o_amount) from orders");
        assert_eq!(r.rows[0][0], Value::Float(0.0));
        assert_eq!(r.rows[0][1], Value::Float(148.5));
    }

    #[test]
    fn order_by_sorts_and_blocks() {
        let db = test_db();
        let r = run(&db, "select * from customer order by c_birth_year desc");
        assert_eq!(r.rows[0][1], Value::Int(1969));
        assert_eq!(r.rows[9][1], Value::Int(1960));
        assert!(r.work.startup_rows > 0);
    }

    #[test]
    fn limit_truncates() {
        let db = test_db();
        let r = run(&db, "select * from orders order by o_id limit 5");
        assert_eq!(r.row_count(), 5);
    }

    #[test]
    fn projection_computes_expressions() {
        let db = test_db();
        let r = run(&db, "select o_id, o_amount * 2.0 as d from orders limit 1");
        assert_eq!(r.rows[0][1], Value::Float(0.0));
        assert_eq!(r.schema.column(1).name, "d");
    }

    #[test]
    fn join_then_aggregate_pipeline() {
        let db = test_db();
        let r = run(
            &db,
            "select c.c_birth_year, count(*) as n from orders o \
             join customer c on o.o_customer_sk = c.c_customer_sk \
             group by c.c_birth_year order by c.c_birth_year",
        );
        assert_eq!(r.row_count(), 10);
        assert_eq!(r.rows[0][0], Value::Int(1960));
        assert_eq!(r.rows[0][1], Value::Int(10));
    }

    #[test]
    fn inl_join_used_for_small_driving_side() {
        // 3 orders vs 10 indexed customers: INL probes instead of scanning.
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        for i in 0..3i64 {
            t.insert(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        let customer = Schema::new(vec![
            Column::new("c_customer_sk", DataType::Int),
            Column::new("c_birth_year", DataType::Int),
        ]);
        let t = db.create_table("customer", customer).unwrap();
        t.set_primary_key("c_customer_sk").unwrap();
        for i in 0..10i64 {
            t.insert(vec![Value::Int(i), Value::Int(1960 + i)]).unwrap();
        }
        let funcs = FuncRegistry::with_builtins();
        let plan =
            parse("select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk")
                .unwrap();
        let r = Executor::new(&db, &funcs)
            .execute(&plan, &HashMap::new())
            .unwrap();
        assert_eq!(r.row_count(), 3);
        // Work: 3 outer rows + 3 probes + 3 matches ≪ 10-row scan + build.
        assert!(r.work.total_rows <= 9, "INL path taken: {:?}", r.work);
        assert_eq!(r.work.startup_rows, 0, "INL is pipelined");
        // Column order matches the plan's left-right order.
        assert_eq!(r.schema.resolve("o.o_id").unwrap(), 0);
        assert_eq!(r.schema.resolve("c.c_birth_year").unwrap(), 3);
        assert_eq!(r.rows[0][3], Value::Int(1960));
    }

    #[test]
    fn inl_join_matches_hash_join_results() {
        let db = test_db(); // 100 orders, 10 customers: hash join path
        let hash = run(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        // Force the INL-eligible direction by shrinking the driving side.
        let inl = run(
            &db,
            "select * from orders o join customer c on \
             o.o_customer_sk = c.c_customer_sk and o.o_id < 4",
        );
        assert_eq!(inl.row_count(), 4);
        // Every INL row appears in the hash-join result.
        for row in &inl.rows {
            assert!(hash.rows.contains(row), "{row:?}");
        }
    }

    #[test]
    fn inl_join_respects_flipped_sides() {
        let db = test_db();
        // Indexed scan on the LEFT: columns must still come out left-first.
        let r = run(
            &db,
            "select * from customer c join orders o on \
             c.c_customer_sk = o.o_customer_sk and o.o_id < 4",
        );
        assert_eq!(r.row_count(), 4);
        assert_eq!(r.schema.resolve("c.c_customer_sk").unwrap(), 0);
        assert_eq!(r.schema.resolve("o.o_id").unwrap(), 2);
    }

    #[test]
    fn residual_predicate_on_hash_join() {
        let db = test_db();
        let r = run(
            &db,
            "select * from orders o join customer c on \
             o.o_customer_sk = c.c_customer_sk and o.o_amount > 100.0",
        );
        assert_eq!(r.row_count(), 33);
    }
}
