//! Loop data-dependence analysis.
//!
//! F-IR can represent a cursor loop as a `fold` only when the loop's data
//! dependencies permit it (§V, Figure 9: "if there are no external
//! dependency edges in D"). This module computes, per loop:
//!
//! * whether the loop is a *cursor loop* (iterates a query result or a
//!   materialized collection),
//! * the set of variables the body updates (fold accumulator candidates;
//!   the tuple/project extension permits *dependent* accumulators, so
//!   reading another accumulator is not a blocker),
//! * the [`Blocker`]s that rule out a fold representation (side effects,
//!   early exits, database writes, calls to non-pure functions, …).

use crate::ast::{Expr, Stmt, StmtKind};

/// A reason the loop cannot be represented as a fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocker {
    /// The iterable is not a query/collection (not a cursor loop).
    NonCursorIterable,
    /// `break` in the body.
    HasBreak,
    /// `return` in the body.
    HasReturn,
    /// `print` in the body (observable side effect).
    HasPrint,
    /// A database update in the body.
    HasUpdate,
    /// `try/catch` in the body.
    HasTryCatch,
    /// A `while` loop in the body (unknown iteration count).
    HasWhile,
    /// A call to a user-defined procedure (not a registered pure function).
    CallsProcedure(String),
    /// The loop variable itself is reassigned.
    AssignsLoopVar,
    /// A client-side cache is (re)built inside the loop.
    BuildsCache,
}

/// Result of analysing one `for (var : iter) body` loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopAnalysis {
    /// The loop iterates over a query result / collection.
    pub cursor: bool,
    /// Variables updated by the body, in first-update order (fold
    /// accumulator candidates).
    pub updated: Vec<String>,
    /// Conditions that block a fold representation.
    pub blockers: Vec<Blocker>,
}

impl LoopAnalysis {
    /// True if the loop satisfies the F-IR fold preconditions.
    pub fn foldable(&self) -> bool {
        self.cursor && self.blockers.is_empty()
    }

    /// Analyse a loop given its variable, iterable and body.
    pub fn analyze(var: &str, iter: &Expr, body: &[Stmt]) -> LoopAnalysis {
        let cursor = matches!(
            iter,
            Expr::LoadAll(_) | Expr::Query(_) | Expr::Var(_) | Expr::LookupCache(_, _)
        );
        let mut a = LoopAnalysis {
            cursor,
            updated: Vec::new(),
            blockers: Vec::new(),
        };
        if !cursor {
            a.blockers.push(Blocker::NonCursorIterable);
        }
        scan(var, body, &mut a);
        a
    }
}

fn note_update(a: &mut LoopAnalysis, name: &str, loop_var: &str) {
    if name == loop_var {
        push_unique(&mut a.blockers, Blocker::AssignsLoopVar);
    } else if !a.updated.iter().any(|u| u == name) {
        a.updated.push(name.to_string());
    }
}

fn push_unique(blockers: &mut Vec<Blocker>, b: Blocker) {
    if !blockers.contains(&b) {
        blockers.push(b);
    }
}

fn scan(loop_var: &str, body: &[Stmt], a: &mut LoopAnalysis) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::Let(v, _) | StmtKind::NewCollection(v) | StmtKind::NewMap(v) => {
                note_update(a, v, loop_var);
            }
            StmtKind::Add(c, _) => note_update(a, c, loop_var),
            StmtKind::Put(m, _, _) => note_update(a, m, loop_var),
            StmtKind::ForEach { var, body, .. } => {
                // Nested loop bodies contribute updates/blockers too; the
                // inner loop variable shadows.
                let mut inner = LoopAnalysis {
                    cursor: true,
                    updated: Vec::new(),
                    blockers: Vec::new(),
                };
                scan(var, body, &mut inner);
                for b in inner.blockers {
                    push_unique(&mut a.blockers, b);
                }
                for u in inner.updated {
                    note_update(a, &u, loop_var);
                }
            }
            StmtKind::While { body, .. } => {
                push_unique(&mut a.blockers, Blocker::HasWhile);
                scan(loop_var, body, a);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                scan(loop_var, then_branch, a);
                scan(loop_var, else_branch, a);
            }
            StmtKind::Print(_) => push_unique(&mut a.blockers, Blocker::HasPrint),
            StmtKind::Return(_) => push_unique(&mut a.blockers, Blocker::HasReturn),
            StmtKind::Break => push_unique(&mut a.blockers, Blocker::HasBreak),
            StmtKind::CacheByColumn { cache, .. } => {
                push_unique(&mut a.blockers, Blocker::BuildsCache);
                note_update(a, cache, loop_var);
            }
            StmtKind::UpdateQuery { .. } => push_unique(&mut a.blockers, Blocker::HasUpdate),
            StmtKind::LetCall(v, f, _) => {
                push_unique(&mut a.blockers, Blocker::CallsProcedure(f.clone()));
                note_update(a, v, loop_var);
            }
            StmtKind::TryCatch { body, handler } => {
                push_unique(&mut a.blockers, Blocker::HasTryCatch);
                scan(loop_var, body, a);
                scan(loop_var, handler, a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QuerySpec;
    use minidb::BinOp;

    fn add_stmt(c: &str, e: Expr) -> Stmt {
        Stmt::new(StmtKind::Add(c.into(), e))
    }

    #[test]
    fn simple_aggregation_loop_is_foldable() {
        // sum = sum + t.sale_amt
        let body = vec![Stmt::new(StmtKind::Let(
            "sum".into(),
            Expr::bin(
                BinOp::Add,
                Expr::var("sum"),
                Expr::field(Expr::var("t"), "sale_amt"),
            ),
        ))];
        let a = LoopAnalysis::analyze(
            "t",
            &Expr::Query(QuerySpec::sql(
                "select month, sale_amt from sales order by month",
            )),
            &body,
        );
        assert!(a.foldable());
        assert_eq!(a.updated, vec!["sum".to_string()]);
    }

    #[test]
    fn dependent_aggregations_are_allowed() {
        // Figure 7: sum then cSum.put(month, sum) — cSum depends on sum.
        let body = vec![
            Stmt::new(StmtKind::Let(
                "sum".into(),
                Expr::bin(
                    BinOp::Add,
                    Expr::var("sum"),
                    Expr::field(Expr::var("t"), "sale_amt"),
                ),
            )),
            Stmt::new(StmtKind::Put(
                "cSum".into(),
                Expr::field(Expr::var("t"), "month"),
                Expr::var("sum"),
            )),
        ];
        let a = LoopAnalysis::analyze(
            "t",
            &Expr::Query(QuerySpec::sql(
                "select month, sale_amt from sales order by month",
            )),
            &body,
        );
        assert!(
            a.foldable(),
            "tuple/project extension permits this: {:?}",
            a.blockers
        );
        assert_eq!(a.updated, vec!["sum".to_string(), "cSum".to_string()]);
    }

    #[test]
    fn print_blocks_fold() {
        let body = vec![Stmt::new(StmtKind::Print(Expr::var("t")))];
        let a = LoopAnalysis::analyze("t", &Expr::LoadAll("Order".into()), &body);
        assert!(!a.foldable());
        assert!(a.blockers.contains(&Blocker::HasPrint));
    }

    #[test]
    fn break_and_return_block_fold() {
        let body = vec![Stmt::new(StmtKind::If {
            cond: Expr::lit(true),
            then_branch: vec![Stmt::new(StmtKind::Break)],
            else_branch: vec![Stmt::new(StmtKind::Return(None))],
        })];
        let a = LoopAnalysis::analyze("t", &Expr::LoadAll("Order".into()), &body);
        assert!(a.blockers.contains(&Blocker::HasBreak));
        assert!(a.blockers.contains(&Blocker::HasReturn));
    }

    #[test]
    fn update_query_blocks_fold_but_is_reported() {
        // Pattern A: nested loops with intermittent updates.
        let body = vec![Stmt::new(StmtKind::UpdateQuery {
            table: "orders".into(),
            set_col: "o_status".into(),
            value: Expr::lit("done"),
            key_col: "o_id".into(),
            key: Expr::field(Expr::var("t"), "o_id"),
        })];
        let a = LoopAnalysis::analyze("t", &Expr::LoadAll("Order".into()), &body);
        assert!(!a.foldable());
        assert_eq!(a.blockers, vec![Blocker::HasUpdate]);
    }

    #[test]
    fn navigation_does_not_block_folding() {
        // The N+1 pattern of P0.
        let body = vec![Stmt::new(StmtKind::Let(
            "cust".into(),
            Expr::nav(Expr::var("o"), "customer"),
        ))];
        let a = LoopAnalysis::analyze("o", &Expr::LoadAll("Order".into()), &body);
        assert!(a.foldable());
    }

    #[test]
    fn nested_cursor_loop_detected() {
        let body = vec![Stmt::new(StmtKind::ForEach {
            var: "c".into(),
            iter: Expr::Query(QuerySpec::sql("select * from customer")),
            body: vec![add_stmt("r", Expr::var("c"))],
        })];
        let a = LoopAnalysis::analyze("o", &Expr::LoadAll("Order".into()), &body);
        assert!(a.foldable());
        assert_eq!(a.updated, vec!["r".to_string()]);
    }

    #[test]
    fn procedure_call_blocks_fold_with_name() {
        let body = vec![Stmt::new(StmtKind::LetCall(
            "x".into(),
            "helper".into(),
            vec![Expr::var("o")],
        ))];
        let a = LoopAnalysis::analyze("o", &Expr::LoadAll("Order".into()), &body);
        assert_eq!(a.blockers, vec![Blocker::CallsProcedure("helper".into())]);
    }

    #[test]
    fn loop_var_assignment_blocks() {
        let body = vec![Stmt::new(StmtKind::Let("o".into(), Expr::lit(1i64)))];
        let a = LoopAnalysis::analyze("o", &Expr::LoadAll("Order".into()), &body);
        assert!(a.blockers.contains(&Blocker::AssignsLoopVar));
    }

    #[test]
    fn non_cursor_iterable_blocks() {
        let body = vec![];
        let a = LoopAnalysis::analyze("x", &Expr::lit(1i64), &body);
        assert!(!a.cursor);
        assert!(a.blockers.contains(&Blocker::NonCursorIterable));
    }

    #[test]
    fn if_branches_are_scanned() {
        let body = vec![Stmt::new(StmtKind::If {
            cond: Expr::bin(
                BinOp::Gt,
                Expr::field(Expr::var("t"), "amount"),
                Expr::lit(10i64),
            ),
            then_branch: vec![add_stmt("big", Expr::var("t"))],
            else_branch: vec![add_stmt("small", Expr::var("t"))],
        })];
        let a = LoopAnalysis::analyze("t", &Expr::var("rows"), &body);
        assert!(a.foldable());
        assert_eq!(a.updated, vec!["big".to_string(), "small".to_string()]);
    }
}
