//! The heuristic optimizer of earlier work (citation \[4\] in the paper): "push as
//! much computation as possible into SQL query, then prefetch the query
//! results at the earliest program point".
//!
//! Unlike COBRA it makes no cost-based decisions: for every loop it picks
//! the alternative with the most work pushed to the database, never the
//! prefetch/client-side alternatives (N1/N2). Figure 15 compares programs
//! rewritten this way against COBRA's choices.

use crate::optimizer::{Cobra, LoopGate};
use crate::transforms;
use fir::build::FirAlternative;
use imperative::ast::{Expr, Function, Program, Stmt, StmtKind};

/// Rewrite the entry function with the push-to-SQL heuristic, as the
/// baseline of `cobra`: a loop's candidates are the alternatives `cobra`'s
/// own search would admit (same rules, same soundness gates); only the
/// choice among them differs.
///
/// Inlines procedure calls when possible (the heuristic of \[4\] also works
/// interprocedurally), then rewrites every loop bottom-up using the
/// highest-scoring SQL-push alternative.
pub fn optimize_heuristic(program: &Program, cobra: &Cobra) -> Function {
    let base = transforms::inline_calls(program).unwrap_or_else(|| program.entry().clone());
    let live: Vec<String> = base.params.clone();
    let body = rewrite_stmts(&base.body, &live, &cobra.loop_gate(program));
    let mut f = Function::new(base.name.clone(), base.params.clone(), body);
    f.number_lines(2);
    f
}

fn rewrite_stmts(stmts: &[Stmt], live_after: &[String], gate: &LoopGate) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for (i, s) in stmts.iter().enumerate() {
        // Live set after this statement.
        let live = transforms::live_with(live_after, &transforms::reads_of(&stmts[i + 1..]));
        if let StmtKind::ForEach { var, iter, body } = &s.kind {
            let prev = i.checked_sub(1).map(|p| &stmts[p]);
            if let Some(replacement) = best_sql_push(gate, var, iter, body, &live, prev) {
                out.extend(replacement);
                continue;
            }
        }
        // Everything else, loops that are not foldable as a whole included,
        // keeps its shape and has its bodies rewritten (pattern A: the
        // inner loop still gets pushed). A black box is kept verbatim.
        let mut s = s.clone();
        if !matches!(s.kind, StmtKind::TryCatch { .. }) {
            for body in s.children_mut() {
                *body = rewrite_stmts(body, &live, gate);
            }
        }
        out.push(s);
    }
    out
}

/// The heuristic's pick for one loop: among the admitted alternatives, the
/// one with the most computation pushed into SQL; client-side alternatives
/// (prefetching, selection pull-out) are never chosen.
fn best_sql_push(
    gate: &LoopGate,
    var: &str,
    iter: &Expr,
    body: &[Stmt],
    live_after: &[String],
    prev_sibling: Option<&Stmt>,
) -> Option<Vec<Stmt>> {
    let mut best: Option<(i64, Vec<Stmt>)> = None;
    for (alt, stmts) in gate
        .admit(var, iter, body, live_after, prev_sibling)
        .alternatives
    {
        let score = sql_push_score(&alt);
        if score <= 0 {
            continue; // the original program itself: keep the loop as-is
        }
        match best {
            Some((s, _)) if s >= score => {}
            _ => best = Some((score, stmts)),
        }
    }
    best.map(|(_, stmts)| stmts)
}

/// Score an admitted alternative by how much it pushes into SQL; ≤ 0 =
/// not a push-to-SQL rewrite.
fn sql_push_score(alt: &FirAlternative) -> i64 {
    let applied = &alt.roots.rules_applied;
    // The heuristic never prefetches or pulls work to the client.
    if applied.iter().any(|r| *r == "N1" || *r == "N2") {
        return -1;
    }
    let folds_left = alt
        .roots
        .assigns
        .iter()
        .map(|(_, id)| {
            alt.arena
                .reachable(*id)
                .iter()
                .filter(|&&n| matches!(alt.arena.node(n), fir::FirNode::Fold { .. }))
                .count()
        })
        .max()
        .unwrap_or(0);
    let joins = applied.iter().filter(|r| r.contains("T4")).count() as i64;
    let aggs = applied
        .iter()
        .filter(|r| **r == "T5" || **r == "T5-partial")
        .count() as i64;
    let pushes = applied
        .iter()
        .filter(|r| **r == "T2" || **r == "T1")
        .count() as i64;
    if joins + aggs + pushes == 0 {
        return 0; // the unrewritten base
    }
    // No fold left = fully translated; then prefer more rule applications.
    (if folds_left == 0 { 1000 } else { 100 }) + 10 * joins + 5 * aggs + pushes
}

#[cfg(test)]
mod tests {
    use super::*;
    use imperative::ast::QuerySpec;
    use imperative::pretty;
    use minidb::BinOp;
    use orm::{EntityMapping, MappingRegistry};

    /// The optimizer the heuristic is the baseline of: default rules over
    /// an empty catalog (no table, so no shared column names).
    fn cobra() -> Cobra {
        let mut r = MappingRegistry::new();
        r.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
            "customer",
            "Customer",
            "o_customer_sk",
        ));
        r.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
        Cobra::builder(minidb::shared(minidb::Database::new()))
            .mappings(r)
            .build()
    }

    #[test]
    fn heuristic_turns_p0_into_p1_never_p2() {
        let p0 = Program::single(Function::new(
            "processOrders",
            vec!["result".to_string()],
            vec![
                Stmt::new(StmtKind::NewCollection("result".into())),
                Stmt::new(StmtKind::ForEach {
                    var: "o".into(),
                    iter: Expr::LoadAll("Order".into()),
                    body: vec![
                        Stmt::new(StmtKind::Let(
                            "cust".into(),
                            Expr::nav(Expr::var("o"), "customer"),
                        )),
                        Stmt::new(StmtKind::Add(
                            "result".into(),
                            Expr::Call(
                                "myFunc".into(),
                                vec![
                                    Expr::field(Expr::var("o"), "o_id"),
                                    Expr::field(Expr::var("cust"), "c_birth_year"),
                                ],
                            ),
                        )),
                    ],
                }),
            ],
        ));
        let rewritten = optimize_heuristic(&p0, &cobra());
        let text = pretty::function_to_string(&rewritten);
        assert!(text.contains("join customer"), "pushes the join: {text}");
        assert!(!text.contains("cacheByColumn"), "never prefetches: {text}");
    }

    #[test]
    fn heuristic_extracts_aggregate_even_when_degrading() {
        // Pattern B: count + collection in one loop. The heuristic adds the
        // extra aggregate query (the §V-B degradation COBRA avoids).
        let p = Program::single(Function::new(
            "f",
            vec!["all".to_string(), "cnt".to_string()],
            vec![
                Stmt::new(StmtKind::Let("cnt".into(), Expr::lit(0i64))),
                Stmt::new(StmtKind::NewCollection("all".into())),
                Stmt::new(StmtKind::ForEach {
                    var: "t".into(),
                    iter: Expr::Query(QuerySpec::sql("select * from orders")),
                    body: vec![
                        Stmt::new(StmtKind::Let(
                            "cnt".into(),
                            Expr::bin(BinOp::Add, Expr::var("cnt"), Expr::lit(1i64)),
                        )),
                        Stmt::new(StmtKind::Add("all".into(), Expr::var("t"))),
                    ],
                }),
            ],
        ));
        let rewritten = optimize_heuristic(&p, &cobra());
        let text = pretty::function_to_string(&rewritten);
        assert!(
            text.contains("executeScalar(\"select count(*) as agg_cnt from orders\")"),
            "{text}"
        );
        assert!(
            text.contains("for (t :"),
            "loop kept for the collection: {text}"
        );
    }

    #[test]
    fn heuristic_keeps_unfoldable_loops_but_rewrites_inner() {
        // Pattern A: outer loop has an update; inner filter loop becomes an
        // iterative SQL query.
        let p = Program::single(Function::new(
            "f",
            vec!["matches".to_string()],
            vec![Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::LoadAll("Order".into()),
                body: vec![
                    Stmt::new(StmtKind::NewCollection("matches".into())),
                    Stmt::new(StmtKind::ForEach {
                        var: "c".into(),
                        iter: Expr::LoadAll("Customer".into()),
                        body: vec![Stmt::new(StmtKind::If {
                            cond: Expr::bin(
                                BinOp::Eq,
                                Expr::field(Expr::var("c"), "c_customer_sk"),
                                Expr::field(Expr::var("o"), "o_customer_sk"),
                            ),
                            then_branch: vec![Stmt::new(StmtKind::Add(
                                "matches".into(),
                                Expr::var("c"),
                            ))],
                            else_branch: vec![],
                        })],
                    }),
                    Stmt::new(StmtKind::UpdateQuery {
                        table: "orders".into(),
                        set_col: "o_status".into(),
                        value: Expr::Len(Box::new(Expr::var("matches"))),
                        key_col: "o_id".into(),
                        key: Expr::field(Expr::var("o"), "o_id"),
                    }),
                ],
            })],
        ));
        let rewritten = optimize_heuristic(&p, &cobra());
        let text = pretty::function_to_string(&rewritten);
        assert!(
            text.contains("for (o : loadAll(Order))"),
            "outer kept: {text}"
        );
        assert!(
            text.contains("matches = executeQuery(\"select * from customer where c_customer_sk = :p0\", p0=o.o_customer_sk);"),
            "inner loop pushed to an iterative query: {text}"
        );
    }
}
