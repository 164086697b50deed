//! The Volcano/Cascades AND-OR DAG and its cost search.
//!
//! The paper extends Volcano/Cascades (Graefe et al.) from relational
//! algebra to whole programs; this crate is the part of that framework a
//! search runs, generic over the operator type:
//!
//! * [`Memo`] — the AND-OR DAG: *groups* are OR nodes (equivalence classes
//!   of expressions computing the same result), *m-exprs* are AND nodes
//!   (an operator applied to child groups). Duplicate m-exprs are detected
//!   by hash-consing, and groups found to contain the same expression are
//!   merged — this is what makes cyclic transformation rules (join
//!   commutativity, T2/N2) terminate (§III-A).
//! * [`CostModel`] / [`cost_table`] / [`best_plan`] / [`top_k_plans`] —
//!   least-cost extraction over the DAG (OR node = min over children; AND
//!   node = operator cost combined with child costs), cycle-safe.
//!   [`cost_table_sweeps`] is the full Gauss-Seidel sweep the worklist in
//!   [`cost_table`] must reproduce bit for bit. No search calls it; it
//!   stays because `tests/perf_equivalence.rs` compares the two under
//!   every sweep budget it tries.
//! * [`CostMemo`] — a caching wrapper around any [`CostModel`].
//!
//! Rules are not here. `cobra_core::DagBuilder` inserts a program's
//! alternatives itself, and F-IR rules fire through `fir::expand_with`;
//! the generic rule driver and join algebra that reproduce Figure 4 are
//! test support (`tests/support/`).

mod costmemo;
mod memo;
mod search;

pub use costmemo::CostMemo;
pub use memo::{Child, GroupId, MExpr, MExprId, Memo, OpTree};
pub use search::{
    best_plan, best_plan_from, cost_table, cost_table_sweeps, count_plans, top_k_plans,
    tree_fingerprint, BestPlan, CostModel, CostTable,
};
