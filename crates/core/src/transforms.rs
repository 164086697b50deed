//! Program transformations beyond the F-IR loop rules:
//! statement-level prefetching (patterns E/F) and procedure inlining
//! (pattern D), plus the shared liveness/var-plan utilities.
//!
//! Nothing here spells out the statement or expression grammar: every
//! walk is written on the traversal primitives of `imperative::ast`
//! (`Stmt::{walk, exprs, children}` and `Expr::{walk, for_each_child}`,
//! with their `_mut` forms for rebuilding) and names only the variants it
//! treats specially.

use fir::codegen::cache_name;
use imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use imperative::regions::{Region, RegionKind};
use minidb::{BinOp, LogicalPlan, ScalarExpr};
use std::collections::{HashMap, HashSet};

/// Append the variables `stmt` reads, nested bodies included, to `vars`.
fn stmt_reads(stmt: &Stmt, vars: &mut Vec<String>) {
    stmt.walk(&mut |s| s.exprs().iter().for_each(|e| e.free_vars(vars)));
}

/// Collect variables read anywhere in `stmts` (including nested bodies).
pub fn reads_of(stmts: &[Stmt]) -> HashSet<String> {
    let mut vars = Vec::new();
    stmts.iter().for_each(|s| stmt_reads(s, &mut vars));
    vars.into_iter().collect()
}

/// [`reads_of`] over a region tree: its statements plus the loop and
/// branch headers the tree holds apart from them. No intermediate
/// statement materialization (`Region::to_stmts` deep-clones every
/// nested statement, which made the per-child live-set computation of
/// DAG construction quadratic in cloned statements).
pub fn reads_of_region(region: &Region) -> HashSet<String> {
    let mut vars = Vec::new();
    region.walk(&mut |r| match &r.kind {
        RegionKind::Block(s) => stmt_reads(s, &mut vars),
        RegionKind::BlackBox(stmts) => stmts.iter().for_each(|s| stmt_reads(s, &mut vars)),
        RegionKind::Cond { cond: e, .. }
        | RegionKind::WhileLoop { cond: e, .. }
        | RegionKind::Loop { iter: e, .. } => e.free_vars(&mut vars),
        RegionKind::Seq(_) | RegionKind::Empty => {}
    });
    vars.into_iter().collect()
}

/// The live set `live_after` extended by `reads`: what is live before code
/// that is followed by those reads.
pub(crate) fn live_with<'a>(
    live_after: &[String],
    reads: impl IntoIterator<Item = &'a String>,
) -> Vec<String> {
    let mut live = live_after.to_vec();
    for v in reads {
        if !live.contains(v) {
            live.push(v.clone());
        }
    }
    live
}

/// Gather `variable → producing plan` bindings from `Let(v, query)` and
/// `Let(v, loadAll)` statements — the cost model uses them to estimate
/// trip counts of loops over collection variables.
pub fn collect_var_plans(
    stmts: &[Stmt],
    mappings: &orm::MappingRegistry,
    out: &mut HashMap<String, minidb::SharedPlan>,
) {
    let mut visit = |s: &Stmt| match &s.kind {
        StmtKind::Let(v, Expr::Query(spec)) => {
            out.insert(v.clone(), spec.plan.clone());
        }
        StmtKind::Let(v, Expr::LoadAll(entity)) => {
            if let Some(m) = mappings.entity(entity) {
                out.insert(v.clone(), LogicalPlan::scan(&m.table).into());
            }
        }
        _ => {}
    };
    stmts.iter().for_each(|s| s.walk(&mut visit));
}

/// Tables the program writes (`update …` statements, any function, any
/// nesting). Client-side prefetch caches are built once per run, so
/// prefetching a table the program updates would serve stale rows — the
/// optimizer refuses to register such alternatives (a soundness gate the
/// differential oracle caught the absence of).
pub fn updated_tables(program: &Program) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut visit = |s: &Stmt| {
        if let StmtKind::UpdateQuery { table, .. } = &s.kind {
            out.insert(table.clone());
        }
    };
    for f in &program.functions {
        f.body.iter().for_each(|s| s.walk(&mut visit));
    }
    out
}

/// Tables a statement list prefetches into client caches
/// (`Utils.cacheByColumn` over a table scan).
pub fn prefetched_tables(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    let mut visit = |s: &Stmt| {
        if let StmtKind::CacheByColumn {
            source: Expr::Query(spec),
            ..
        } = &s.kind
        {
            if let LogicalPlan::Scan { table, .. } = spec.plan.as_plan() {
                out.push(table.clone());
            }
        }
    };
    stmts.iter().for_each(|s| s.walk(&mut visit));
    out
}

/// Statement-level prefetch alternative (patterns E/F): a point/filtered
/// query `v = executeQuery(σ_{A=key}(R))` can instead probe a client-side
/// cache of the whole relation:
///
/// ```text
/// cache_R_by_A = Utils.cacheByColumn(executeQuery("select * from R"), A)
/// v = Utils.lookupCache(cache_R_by_A, key)
/// ```
///
/// The projection (if any) is dropped — the client reads only the fields
/// it needs. Returns `None` when the statement has no such shape.
pub fn prefetch_stmt_alternative(stmt: &Stmt) -> Option<Vec<Stmt>> {
    let StmtKind::Let(v, Expr::Query(spec)) = &stmt.kind else {
        return None;
    };
    // Peel a projection; then require σ_{A = key}(Scan R).
    let mut plan = spec.plan.as_plan();
    if let LogicalPlan::Project { input, .. } = plan {
        plan = input;
    }
    let LogicalPlan::Select { input, pred } = plan else {
        return None;
    };
    let LogicalPlan::Scan { table, .. } = &**input else {
        return None;
    };
    let ScalarExpr::Bin(BinOp::Eq, l, r) = pred else {
        return None;
    };
    let (col, key) = match (&**l, &**r) {
        (ScalarExpr::Col(c), k) => (c, k),
        (k, ScalarExpr::Col(c)) => (c, k),
        _ => return None,
    };
    let key_expr = match key {
        ScalarExpr::Lit(value) => Expr::Lit(value.clone()),
        ScalarExpr::Param(p) => spec
            .binds
            .iter()
            .find(|(n, _)| n == p)
            .map(|(_, e)| e.clone())?,
        _ => return None,
    };
    let cache = cache_name(table, &col.name);
    Some(vec![
        Stmt::new(StmtKind::CacheByColumn {
            cache: cache.clone(),
            source: Expr::Query(QuerySpec::of(LogicalPlan::scan(table))),
            key_col: col.name.clone(),
        }),
        Stmt::new(StmtKind::Let(
            v.clone(),
            Expr::LookupCache(cache, Box::new(key_expr)),
        )),
    ])
}

/// Inline every `LetCall` in the entry function whose callee is a plain
/// function of the program (single trailing `return`, not recursive).
/// Returns `None` when there is nothing to inline or some call cannot be
/// inlined safely.
///
/// Inlining is the enabling transformation for pattern D ("function that
/// is called inside a loop can be rewritten using SQL"): once the callee
/// body is in the loop, the F-IR rules see the whole computation.
pub fn inline_calls(program: &Program) -> Option<Function> {
    let entry = program.entry();
    let mut counter = 0usize;
    let mut body = entry.body.clone();
    inline_in(&mut body, program, &mut vec![&entry.name[..]], &mut counter)?;
    if counter == 0 {
        return None;
    }
    let mut f = Function::new(entry.name.clone(), entry.params.clone(), body);
    f.number_lines(2);
    Some(f)
}

/// `expanding` names the functions whose bodies enclose `stmts`: the
/// entry, then every callee being expanded on the way down.
fn inline_in<'p>(
    stmts: &mut Vec<Stmt>,
    program: &'p Program,
    expanding: &mut Vec<&'p str>,
    counter: &mut usize,
) -> Option<()> {
    let mut out = Vec::with_capacity(stmts.len());
    for mut s in std::mem::take(stmts) {
        match &s.kind {
            StmtKind::LetCall(target, fname, args) => {
                if expanding.contains(&fname.as_str()) {
                    return None; // recursion, direct or mutual: do not inline
                }
                let callee = program.function(fname)?;
                let mut expanded = inline_one(callee, target, args, *counter)?;
                *counter += 1;
                // Callee bodies may call further down; expand recursively.
                expanding.push(&callee.name);
                inline_in(&mut expanded, program, expanding, counter)?;
                expanding.pop();
                out.extend(expanded);
            }
            // A black box is kept verbatim: calls inside it stay calls.
            StmtKind::TryCatch { .. } => out.push(s),
            _ => {
                for body in s.children_mut() {
                    inline_in(body, program, expanding, counter)?;
                }
                out.push(s);
            }
        }
    }
    *stmts = out;
    Some(())
}

/// Inline one call: substitute arguments for parameters, α-rename callee
/// locals, and turn the trailing `return e` into `target = e`.
fn inline_one(
    callee: &Function,
    target: &str,
    args: &[Expr],
    instance: usize,
) -> Option<Vec<Stmt>> {
    if callee.params.len() != args.len() {
        return None;
    }
    let (last, init) = callee.body.split_last()?;
    let StmtKind::Return(Some(ret)) = &last.kind else {
        return None;
    };

    // Substitution: params → args; locals → fresh names.
    let mut subst: HashMap<String, Expr> = HashMap::new();
    for (p, a) in callee.params.iter().zip(args) {
        subst.insert(p.clone(), a.clone());
    }
    let mut locals = HashSet::new();
    let mut visit = |s: &Stmt| {
        locals.extend(s.updated_var().map(str::to_string));
        if let StmtKind::ForEach { var, .. } = &s.kind {
            locals.insert(var.clone());
        }
    };
    callee.body.iter().for_each(|s| s.walk(&mut visit));
    for l in &locals {
        if !subst.contains_key(l) {
            subst.insert(
                l.clone(),
                Expr::var(format!("{}_{}_{}", callee.name, instance, l)),
            );
        }
    }

    let mut out = init.to_vec();
    rewrite_stmts(&mut out, &subst)?;
    let mut ret = ret.clone();
    rewrite_expr(&mut ret, &subst);
    out.push(Stmt::new(StmtKind::Let(target.to_string(), ret)));
    Some(out)
}

/// Rename/substitute variables in an expression.
fn rewrite_expr(e: &mut Expr, subst: &HashMap<String, Expr>) {
    match e {
        Expr::Var(v) => {
            if let Some(to) = subst.get(v) {
                *e = to.clone();
            }
        }
        _ => e.for_each_child_mut(|c| rewrite_expr(c, subst)),
    }
}

/// Renamed assignment target: must map to a plain variable.
fn rewrite_target(v: &str, subst: &HashMap<String, Expr>) -> Option<String> {
    match subst.get(v) {
        None => Some(v.to_string()),
        Some(Expr::Var(new)) => Some(new.clone()),
        Some(_) => None, // assigning through a non-variable argument
    }
}

/// Substitute through the callee's statements before its trailing return.
/// `None` when they hold another return or a try-catch anywhere, or assign
/// through a parameter whose argument is not a variable.
fn rewrite_stmts(stmts: &mut [Stmt], subst: &HashMap<String, Expr>) -> Option<()> {
    use StmtKind::*;
    for s in stmts {
        match &mut s.kind {
            Return(_) | TryCatch { .. } => return None,
            Let(v, _)
            | NewCollection(v)
            | NewMap(v)
            | Add(v, _)
            | Put(v, _, _)
            | LetCall(v, _, _)
            | ForEach { var: v, .. } => *v = rewrite_target(v, subst)?,
            _ => {}
        }
        s.exprs_mut()
            .into_iter()
            .for_each(|e| rewrite_expr(e, subst));
        for body in s.children_mut() {
            rewrite_stmts(body, subst)?;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use imperative::pretty;

    #[test]
    fn prefetch_alternative_for_point_query() {
        let stmt = Stmt::new(StmtKind::Let(
            "roles".into(),
            Expr::Query(
                QuerySpec::sql("select * from role where r_project = :p")
                    .bind("p", Expr::var("projectId")),
            ),
        ));
        let alt = prefetch_stmt_alternative(&stmt).expect("prefetchable");
        let text = pretty::stmts_to_string(&alt);
        assert!(text.contains(
            "cache_role_by_r_project = Utils.cacheByColumn(\
             executeQuery(\"select * from role\"), 'r_project');"
        ));
        assert!(text.contains("roles = Utils.lookupCache(cache_role_by_r_project, projectId);"));
    }

    #[test]
    fn prefetch_alternative_for_constant_filter_with_projection() {
        let stmt = Stmt::new(StmtKind::Let(
            "open".into(),
            Expr::Query(QuerySpec::sql(
                "select o_id from orders where o_status = 'open'",
            )),
        ));
        let alt = prefetch_stmt_alternative(&stmt).expect("prefetchable");
        let text = pretty::stmts_to_string(&alt);
        assert!(text.contains("cache_orders_by_o_status"), "{text}");
        assert!(
            text.contains("Utils.lookupCache(cache_orders_by_o_status, \"open\")"),
            "{text}"
        );
    }

    #[test]
    fn no_prefetch_for_whole_table_or_range_queries() {
        let whole = Stmt::new(StmtKind::Let(
            "all".into(),
            Expr::Query(QuerySpec::sql("select * from orders")),
        ));
        assert!(prefetch_stmt_alternative(&whole).is_none());
        let range = Stmt::new(StmtKind::Let(
            "big".into(),
            Expr::Query(QuerySpec::sql("select * from orders where o_id > 5")),
        ));
        assert!(prefetch_stmt_alternative(&range).is_none());
    }

    #[test]
    fn inline_substitutes_args_and_renames_locals() {
        let program = Program {
            functions: vec![
                Function::new(
                    "main",
                    vec![],
                    vec![Stmt::new(StmtKind::LetCall(
                        "x".into(),
                        "helper".into(),
                        vec![Expr::lit(5i64)],
                    ))],
                ),
                Function::new(
                    "helper",
                    vec!["n".to_string()],
                    vec![
                        Stmt::new(StmtKind::Let(
                            "tmp".into(),
                            Expr::bin(BinOp::Mul, Expr::var("n"), Expr::lit(2i64)),
                        )),
                        Stmt::new(StmtKind::Return(Some(Expr::var("tmp")))),
                    ],
                ),
            ],
        };
        let inlined = inline_calls(&program).expect("inlinable");
        let text = pretty::function_to_string(&inlined);
        assert!(text.contains("helper_0_tmp = 5 * 2;"), "{text}");
        assert!(text.contains("x = helper_0_tmp;"), "{text}");
        assert!(!text.contains("helper("), "{text}");
    }

    #[test]
    fn inline_inside_loop_bodies() {
        let program = Program {
            functions: vec![
                Function::new(
                    "main",
                    vec!["out".to_string()],
                    vec![Stmt::new(StmtKind::ForEach {
                        var: "o".into(),
                        iter: Expr::LoadAll("Order".into()),
                        body: vec![
                            Stmt::new(StmtKind::LetCall(
                                "v".into(),
                                "score".into(),
                                vec![Expr::field(Expr::var("o"), "o_amount")],
                            )),
                            Stmt::new(StmtKind::Add("out".into(), Expr::var("v"))),
                        ],
                    })],
                ),
                Function::new(
                    "score",
                    vec!["a".to_string()],
                    vec![Stmt::new(StmtKind::Return(Some(Expr::bin(
                        BinOp::Mul,
                        Expr::var("a"),
                        Expr::lit(3i64),
                    ))))],
                ),
            ],
        };
        let inlined = inline_calls(&program).expect("inlinable");
        let text = pretty::function_to_string(&inlined);
        assert!(text.contains("v = o.o_amount * 3;"), "{text}");
    }

    #[test]
    fn recursion_is_not_inlined() {
        // `name(n) { y = callee(n); return y; }`
        let calls = |name: &str, callee: &str| {
            let call = StmtKind::LetCall("y".into(), callee.into(), vec![Expr::var("n")]);
            let ret = StmtKind::Return(Some(Expr::var("y")));
            Function::new(
                name,
                vec!["n".into()],
                vec![Stmt::new(call), Stmt::new(ret)],
            )
        };
        // Into the entry, into the callee itself, and between two callees
        // (each of the last two was expanded without end).
        for functions in [
            vec![calls("main", "main")],
            vec![calls("main", "f"), calls("f", "f")],
            vec![calls("main", "f"), calls("f", "g"), calls("g", "f")],
        ] {
            assert!(inline_calls(&Program { functions }).is_none());
        }
        // One callee called twice in a row, through a second one, is not.
        let mut main = calls("main", "f");
        main.body.insert(0, main.body[0].clone());
        let ret = Stmt::new(StmtKind::Return(Some(Expr::var("n"))));
        let leaf = Function::new("g", vec!["n".into()], vec![ret]);
        let functions = vec![main, calls("f", "g"), leaf];
        assert!(inline_calls(&Program { functions }).is_some());
    }

    #[test]
    fn no_calls_means_no_inline_variant() {
        let program = Program::single(Function::new(
            "main",
            vec![],
            vec![Stmt::new(StmtKind::Print(Expr::lit(1i64)))],
        ));
        assert!(inline_calls(&program).is_none());
    }

    #[test]
    fn reads_of_sees_nested_uses() {
        let stmts = vec![Stmt::new(StmtKind::ForEach {
            var: "o".into(),
            iter: Expr::var("rows"),
            body: vec![Stmt::new(StmtKind::Add("acc".into(), Expr::var("bias")))],
        })];
        let reads = reads_of(&stmts);
        assert!(reads.contains("rows"));
        assert!(reads.contains("bias"));
    }

    #[test]
    fn var_plans_collected_from_nested_scopes() {
        let mut mappings = orm::MappingRegistry::new();
        mappings.register(orm::EntityMapping::new("Order", "orders", "o_id"));
        let stmts = vec![Stmt::new(StmtKind::If {
            cond: Expr::lit(true),
            then_branch: vec![Stmt::new(StmtKind::Let(
                "rows".into(),
                Expr::Query(QuerySpec::sql("select * from orders")),
            ))],
            else_branch: vec![Stmt::new(StmtKind::Let(
                "all".into(),
                Expr::LoadAll("Order".into()),
            ))],
        })];
        let mut plans = HashMap::new();
        collect_var_plans(&stmts, &mappings, &mut plans);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans["all"], LogicalPlan::scan("orders").into());
    }
}
