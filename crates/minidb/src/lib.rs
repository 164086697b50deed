//! An in-memory relational database engine.
//!
//! This crate is the substitute for the MySQL 5.7 server used in the
//! paper's evaluation. It provides everything COBRA needs from a database:
//!
//! * a catalog of tables with typed columns and declared byte widths
//!   (so result row sizes — `S_row(Q)` in the cost model — are exact),
//! * a SQL dialect (lexer + recursive-descent parser) sufficient for every
//!   query in the paper, and a printer that turns plans back into SQL,
//! * logical plans ([`plan::LogicalPlan`]) with schema derivation,
//! * a physical executor — one vectorized columnar engine, [`vexec`], with
//!   hash joins, index lookups and hash aggregation — that also accounts
//!   the *work* performed, from which the simulated server-side execution
//!   time is derived; what it returns is held to `tests/support/naive.rs`
//!   on rows and to pinned digests on row order and [`ExecWork`],
//! * table statistics and a cardinality/row-size/time [`estimate::Estimator`]
//!   — the component the paper "consults the database query optimizer" for
//!   (`C^F_Q`, `C^L_Q`, `N_Q`, `S_row(Q)`).
//!
//! The engine executes queries eagerly; pipelining is *modelled* in the
//! time accounting (first-row vs. last-row work) rather than implemented
//! with iterators, which keeps the executor simple while preserving the
//! cost behaviour the experiments depend on. A result is not materialized:
//! [`Executor::run`] returns a [`ResultSet`] — the output schema and the
//! column `Arc`s the last operator ended with, read through their selection
//! vectors — and a fetched row is a [`RowRef`] into it. Rows become
//! `Vec<Value>`s only where a caller asks ([`ResultSet::rows`], which is
//! all [`Executor::execute`] adds).

pub mod catalog;
pub mod column;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod expr;
pub mod feedback;
pub mod fingerprint;
pub mod func;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod value;
pub mod vexec;

pub use catalog::{Database, Table};

/// Shared, thread-safe handle to a database. Optimization only reads
/// (`.read()`); the simulated server takes the write lock for updates.
pub type SharedDb = std::sync::Arc<std::sync::RwLock<Database>>;

/// Wrap a database in a [`SharedDb`] handle.
pub fn shared(db: Database) -> SharedDb {
    std::sync::Arc::new(std::sync::RwLock::new(db))
}
pub use column::{ColumnTable, ColumnVec, NullMask};
pub use error::{DbError, DbResult};
pub use estimate::{CacheStamp, Estimate, EstimateCache, Estimator};
pub use exec::{ExecWork, Executor, QueryResult};
pub use expr::{apply_bin_op, AggFunc, BinOp, ColRef, ScalarExpr};
pub use feedback::{FeedbackStore, Observation};
pub use fingerprint::{PlanFingerprint, SharedPlan, StableHasher};
pub use func::FuncRegistry;
pub use plan::LogicalPlan;
pub use schema::{Column, DataType, Schema};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use value::{EqIndex, Row, Value};
pub use vexec::{ResultSet, RowRef, BATCH_SIZE};
