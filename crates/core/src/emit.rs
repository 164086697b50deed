//! Emission of the winning plan back into an imperative function.

use crate::region_ops::{optree_to_stmts, RegionOp};
use imperative::ast::{Expr, Function, Stmt, StmtKind};
use volcano::OpTree;

/// Materialize the extracted plan as a function (lines renumbered for
/// display).
pub fn emit_function(name: &str, params: &[String], tree: &OpTree<RegionOp>) -> Function {
    let stmts = optree_to_stmts(tree);
    let mut f = Function::new(name.to_string(), params.to_vec(), stmts);
    f.number_lines(2);
    f
}

/// Heuristic feature tags describing what a rewritten program does; used
/// by experiments to report *which* alternative won (e.g. "sql-join" for
/// P1-shaped programs, "prefetch" for P2-shaped ones).
pub fn describe(f: &Function) -> Vec<&'static str> {
    let mut tags = Vec::new();
    let mut has_cache = false;
    let mut has_join = false;
    let mut has_agg = false;
    let mut has_nav = false;
    let mut has_param_query = false;
    let mut expr_features = |e: &Expr| match e {
        Expr::Query(spec) | Expr::ScalarQuery(spec) => {
            spec.plan.walk(&mut |p| match p {
                minidb::LogicalPlan::Join { .. } => has_join = true,
                minidb::LogicalPlan::Aggregate { .. } => has_agg = true,
                _ => {}
            });
            has_param_query |= !spec.binds.is_empty();
        }
        Expr::Nav(..) => has_nav = true,
        _ => {}
    };
    let mut visit = |s: &Stmt| {
        has_cache |= matches!(s.kind, StmtKind::CacheByColumn { .. });
        s.exprs().iter().for_each(|e| e.walk(&mut expr_features));
    };
    f.body.iter().for_each(|s| s.walk(&mut visit));
    if has_cache {
        tags.push("prefetch");
    }
    if has_join {
        tags.push("sql-join");
    }
    if has_agg {
        tags.push("sql-agg");
    }
    if has_nav {
        tags.push("orm-navigation");
    }
    if has_param_query {
        tags.push("iterative-query");
    }
    if tags.is_empty() {
        tags.push("plain");
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use imperative::ast::QuerySpec;

    #[test]
    fn describe_tags_prefetch_and_join() {
        let f = Function::new(
            "p",
            vec![],
            vec![
                Stmt::new(StmtKind::CacheByColumn {
                    cache: "c".into(),
                    source: Expr::Query(QuerySpec::sql("select * from customer")),
                    key_col: "k".into(),
                }),
                Stmt::new(StmtKind::Let(
                    "j".into(),
                    Expr::Query(QuerySpec::sql(
                        "select * from orders o join customer c on o.a = c.b",
                    )),
                )),
            ],
        );
        let tags = describe(&f);
        assert!(tags.contains(&"prefetch"));
        assert!(tags.contains(&"sql-join"));
    }

    #[test]
    fn describe_tags_nav_and_iterative() {
        let f = Function::new(
            "p",
            vec![],
            vec![Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::LoadAll("Order".into()),
                body: vec![Stmt::new(StmtKind::Let(
                    "c".into(),
                    Expr::nav(Expr::var("o"), "customer"),
                ))],
            })],
        );
        let tags = describe(&f);
        assert!(tags.contains(&"orm-navigation"));
    }

    #[test]
    fn describe_plain_program() {
        let f = Function::new(
            "p",
            vec![],
            vec![Stmt::new(StmtKind::Print(Expr::lit(1i64)))],
        );
        assert_eq!(describe(&f), vec!["plain"]);
    }
}
