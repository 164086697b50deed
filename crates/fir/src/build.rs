//! Conversion of cursor loops to fold expressions (Figure 9's `toFIR` /
//! `loopToFold`), by symbolic evaluation of the loop body.
//!
//! Every variable updated by the body becomes one accumulator; its update
//! expression is written over `<acc>` parameters (values at iteration
//! start), the loop tuple's attributes, and region-entry parameters. The
//! accumulators combine into a `tuple`, removing the old single-aggregate
//! precondition (§V-B) — dependent aggregations simply *read* the other
//! accumulator's in-iteration value, which symbolic evaluation resolves.
//!
//! ORM association navigation (`o.customer`) is lowered to a single-row
//! lookup query `σ_{pk = t.fk}(target)` — the shape rules N1 (prefetch)
//! and the T4/T5-variant (join rewrite) pattern-match on.

use crate::arena::{FirArena, FirId, FirNode};
use imperative::ast::{Expr, Stmt, StmtKind};
use imperative::deps::LoopAnalysis;
use minidb::{LogicalPlan, ScalarExpr};
use orm::MappingRegistry;
use std::collections::HashMap;
use std::sync::Arc;

/// A prefetch obligation: cache `table` client-side, keyed by `key_col`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefetch {
    /// Table to prefetch.
    pub table: String,
    /// Key column for the client cache.
    pub key_col: String,
}

/// An alternative without its arena — roots into the one arena its loop's
/// closure grows: optional prefetches, then variable assignments (each an
/// F-IR expression — folds, queries, projections). The closure driver
/// queues these and the verifier callback reads them; [`FirAlternative`]
/// pairs one with the arena once that is frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirRoots {
    /// Prefetches to perform before the assignments.
    pub prefetches: Vec<Prefetch>,
    /// `var ← expr`, in execution order.
    pub assigns: Vec<(String, FirId)>,
    /// Names of rules applied to reach this alternative.
    pub rules_applied: Vec<&'static str>,
    /// When set, this alternative is only valid if the named collection
    /// variable is empty at region entry (rule T1's `fold(insert, {}, Q)`).
    pub requires_empty_init: Option<String>,
}

/// One F-IR alternative for a region: its roots and the arena they point
/// into, which every alternative of the same [`crate::Expansion`] shares.
#[derive(Debug, Clone)]
pub struct FirAlternative {
    /// The expression arena, frozen: it only grows inside the closure
    /// driver.
    pub arena: Arc<FirArena>,
    /// What this alternative assigns, prefetches and requires.
    pub roots: FirRoots,
}

impl FirAlternative {
    /// Human-readable structural key: arena-independent, so it compares
    /// across expansions (inside one, compare the roots).
    pub fn key(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut pf = self.roots.prefetches.clone();
        pf.sort();
        for p in pf {
            parts.push(format!("prefetch({},{})", p.table, p.key_col));
        }
        for (v, id) in &self.roots.assigns {
            parts.push(format!("{v}={}", self.arena.display(*id)));
        }
        if let Some(v) = &self.roots.requires_empty_init {
            parts.push(format!("requires_empty({v})"));
        }
        parts.join("; ")
    }

    /// Paper-style rendering of the whole alternative.
    pub fn display(&self) -> String {
        self.key()
    }

    /// This alternative alone in a fresh arena: the nodes its assignments
    /// reach, re-interned, and nothing its siblings added.
    pub fn isolated(&self) -> FirAlternative {
        let (mut arena, mut memo) = (FirArena::new(), HashMap::new());
        let mut roots = self.roots.clone();
        for (_, root) in &mut roots.assigns {
            *root = arena.import(&self.arena, *root, &mut memo);
        }
        let arena = Arc::new(arena);
        FirAlternative { arena, roots }
    }
}

struct Ctx<'a> {
    arena: FirArena,
    mappings: &'a MappingRegistry,
    /// loop variable → entity (for navigation lowering).
    entities: HashMap<String, String>,
}

/// Convert a cursor loop `for (var : iter) body` into a fold-based
/// [`FirAlternative`]. Returns `None` when the preconditions fail (the
/// caller keeps the loop as an opaque region).
///
/// `live_after` lists the variables live after the loop (the fold's output
/// state, §IV-A); `None` means "assume everything is live". Updated
/// variables that are *not* live and not loop-carried are treated as
/// per-iteration temporaries and resolved away by symbolic evaluation —
/// `cust` and `val` in P0 do not become accumulators.
pub fn loop_to_fold(
    var: &str,
    iter: &Expr,
    body: &[Stmt],
    mappings: &MappingRegistry,
    live_after: Option<&[String]>,
) -> Option<FirAlternative> {
    let analysis = LoopAnalysis::analyze(var, iter, body);
    if !analysis.foldable() {
        return None;
    }
    let carried = carried_vars(body);
    let accumulators: Vec<String> = analysis
        .updated
        .iter()
        .filter(|u| match live_after {
            None => true,
            Some(live) => live.contains(u) || carried.contains(u),
        })
        .cloned()
        .collect();
    if accumulators.is_empty() {
        return None; // a loop with no live outputs is dead code
    }
    let mut ctx = Ctx {
        arena: FirArena::new(),
        mappings,
        entities: HashMap::new(),
    };
    let fold = build_fold(&mut ctx, var, iter, body, &accumulators, None)?;
    let FirNode::Fold { updated, .. } = ctx.arena.node(fold).clone() else {
        unreachable!()
    };
    let assigns = updated
        .iter()
        .enumerate()
        .map(|(i, u)| (u.clone(), ctx.arena.add(FirNode::Project(fold, i))))
        .collect();
    Some(FirAlternative {
        arena: Arc::new(ctx.arena),
        roots: FirRoots {
            prefetches: Vec::new(),
            assigns,
            rules_applied: vec!["toFIR"],
            requires_empty_init: None,
        },
    })
}

/// Variables read before they are written in `body` (loop-carried uses);
/// these must remain accumulators even when dead after the loop.
fn carried_vars(body: &[Stmt]) -> Vec<String> {
    fn scan(
        stmts: &[Stmt],
        written: &mut std::collections::HashSet<String>,
        carried: &mut Vec<String>,
    ) {
        for s in stmts {
            let mut reads = Vec::new();
            match &s.kind {
                StmtKind::Let(_, e) | StmtKind::Add(_, e) | StmtKind::Print(e) => {
                    e.free_vars(&mut reads)
                }
                StmtKind::Put(_, k, v) => {
                    k.free_vars(&mut reads);
                    v.free_vars(&mut reads);
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    cond.free_vars(&mut reads);
                    for r in reads.drain(..) {
                        if !written.contains(&r) && !carried.contains(&r) {
                            carried.push(r);
                        }
                    }
                    let mut w_then = written.clone();
                    let mut w_else = written.clone();
                    scan(then_branch, &mut w_then, carried);
                    scan(else_branch, &mut w_else, carried);
                    // Only definitely-assigned variables count as written.
                    written.extend(w_then.intersection(&w_else).cloned());
                    continue;
                }
                StmtKind::ForEach { var, iter, body } => {
                    iter.free_vars(&mut reads);
                    let mut inner = written.clone();
                    inner.insert(var.clone());
                    scan(body, &mut inner, carried);
                }
                _ => {}
            }
            for r in reads {
                if !written.contains(&r) && !carried.contains(&r) {
                    carried.push(r);
                }
            }
            if let Some(u) = s.updated_var() {
                written.insert(u.to_string());
            }
        }
    }
    let mut carried = Vec::new();
    scan(body, &mut std::collections::HashSet::new(), &mut carried);
    carried
}

/// Build the fold node for one (possibly nested) loop. `outer_env`
/// supplies symbolic values for variables defined by enclosing scopes.
fn build_fold(
    ctx: &mut Ctx,
    var: &str,
    iter: &Expr,
    body: &[Stmt],
    accumulators: &[String],
    outer_env: Option<&HashMap<String, FirId>>,
) -> Option<FirId> {
    let source = sym_source(ctx, iter, var, outer_env)?;

    let updated = accumulators.to_vec();
    let mut env: HashMap<String, FirId> = HashMap::new();
    let mut init_items = Vec::with_capacity(updated.len());
    for u in &updated {
        // Initial value: the enclosing scope's current symbolic value
        // (nested folds continue accumulation), else the region-entry
        // parameter.
        let init = match outer_env.and_then(|e| e.get(u)) {
            Some(&id) => id,
            None => ctx.arena.add(FirNode::Param(u.clone())),
        };
        init_items.push(init);
        env.insert(u.clone(), ctx.arena.add(FirNode::AccParam(u.clone())));
    }
    // Non-updated outer bindings remain visible.
    if let Some(outer) = outer_env {
        for (k, &v) in outer {
            env.entry(k.clone()).or_insert(v);
        }
    }

    sym_stmts(ctx, body, var, &mut env)?;

    let func_items: Vec<FirId> = updated.iter().map(|u| env[u]).collect();
    let func = ctx.arena.add(FirNode::Tuple(func_items));
    let init = ctx.arena.add(FirNode::Tuple(init_items));
    Some(ctx.arena.add(FirNode::Fold {
        func,
        init,
        source,
        loop_var: var.to_string(),
        updated,
    }))
}

/// Symbolize the loop's source collection.
fn sym_source(
    ctx: &mut Ctx,
    iter: &Expr,
    loop_var: &str,
    outer_env: Option<&HashMap<String, FirId>>,
) -> Option<FirId> {
    match iter {
        Expr::LoadAll(entity) => {
            let m = ctx.mappings.entity(entity)?;
            let plan = LogicalPlan::scan(&m.table);
            ctx.entities.insert(loop_var.to_string(), entity.clone());
            Some(ctx.arena.add(FirNode::Query {
                plan: plan.into(),
                binds: Vec::new(),
            }))
        }
        Expr::Query(spec) => {
            let binds = spec
                .binds
                .iter()
                .map(|(p, e)| {
                    Some((
                        p.clone(),
                        sym_expr(ctx, e, "", &mut outer_env.cloned().unwrap_or_default())?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?;
            // Track the entity when the query is a reshaping-free read of
            // one mapped table, so navigation on its rows still lowers.
            if let Some(t) = single_base_table(&spec.plan) {
                if let Some(m) = ctx.mappings.entity_for_table(t) {
                    ctx.entities.insert(loop_var.to_string(), m.entity.clone());
                }
            }
            Some(ctx.arena.add(FirNode::Query {
                plan: spec.plan.clone(),
                binds,
            }))
        }
        Expr::Var(v) => {
            if let Some(&id) = outer_env.and_then(|e| e.get(v)) {
                return Some(id);
            }
            Some(ctx.arena.add(FirNode::CollectionParam(v.clone())))
        }
        _ => None,
    }
}

fn single_base_table(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some(table),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::OrderBy { input, .. }
        | LogicalPlan::Limit { input, .. } => single_base_table(input),
        _ => None,
    }
}

fn sym_stmts(
    ctx: &mut Ctx,
    stmts: &[Stmt],
    loop_var: &str,
    env: &mut HashMap<String, FirId>,
) -> Option<()> {
    for s in stmts {
        match &s.kind {
            StmtKind::Let(x, e) => {
                let id = sym_expr(ctx, e, loop_var, env)?;
                env.insert(x.clone(), id);
            }
            StmtKind::Add(c, e) => {
                let base = *env.get(c)?;
                let elem = sym_expr(ctx, e, loop_var, env)?;
                let id = ctx.arena.add(FirNode::Insert(base, elem));
                env.insert(c.clone(), id);
            }
            StmtKind::Put(m, k, v) => {
                let base = *env.get(m)?;
                let key = sym_expr(ctx, k, loop_var, env)?;
                let val = sym_expr(ctx, v, loop_var, env)?;
                let id = ctx.arena.add(FirNode::MapPut(base, key, val));
                env.insert(m.clone(), id);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let pred = sym_expr(ctx, cond, loop_var, env)?;
                let mut env_t = env.clone();
                let mut env_e = env.clone();
                sym_stmts(ctx, then_branch, loop_var, &mut env_t)?;
                sym_stmts(ctx, else_branch, loop_var, &mut env_e)?;
                // Merge: variables whose value differs across branches get
                // a conditional value.
                let mut keys: Vec<String> = env_t.keys().chain(env_e.keys()).cloned().collect();
                keys.sort();
                keys.dedup();
                for k in keys {
                    let base = env.get(&k).copied();
                    let tv = env_t.get(&k).copied().or(base);
                    let ev = env_e.get(&k).copied().or(base);
                    let (Some(tv), Some(ev)) = (tv, ev) else {
                        // Defined in a single branch with no base value:
                        // reading it later would be unsound → give up.
                        continue;
                    };
                    if tv == ev {
                        env.insert(k, tv);
                    } else {
                        let id = ctx.arena.add(FirNode::Cond {
                            pred,
                            then_val: tv,
                            else_val: ev,
                        });
                        env.insert(k, id);
                    }
                }
            }
            StmtKind::ForEach {
                var: ivar,
                iter,
                body,
            } => {
                let inner = LoopAnalysis::analyze(ivar, iter, body);
                if !inner.foldable() {
                    return None;
                }
                // Inner loops keep every updated variable as accumulator —
                // their values may feed the rest of the outer iteration.
                // The enclosing loop's tuple stays in scope for both the
                // inner source's binds and the inner body.
                let mut scope = env.clone();
                let tv = ctx.arena.add(FirNode::TupleVar(loop_var.to_string()));
                scope.insert(loop_var.to_string(), tv);
                let fold = build_fold(ctx, ivar, iter, body, &inner.updated, Some(&scope))?;
                let FirNode::Fold { updated, .. } = ctx.arena.node(fold).clone() else {
                    unreachable!()
                };
                for (i, u) in updated.iter().enumerate() {
                    let id = ctx.arena.add(FirNode::Project(fold, i));
                    env.insert(u.clone(), id);
                }
            }
            // All other statement kinds are fold blockers; `LoopAnalysis`
            // rejected them before we got here.
            _ => return None,
        }
    }
    Some(())
}

fn sym_expr(
    ctx: &mut Ctx,
    e: &Expr,
    loop_var: &str,
    env: &mut HashMap<String, FirId>,
) -> Option<FirId> {
    match e {
        Expr::Var(v) if v == loop_var => Some(ctx.arena.add(FirNode::TupleVar(v.clone()))),
        Expr::Var(v) => match env.get(v) {
            Some(&id) => Some(id),
            None => Some(ctx.arena.add(FirNode::Param(v.clone()))),
        },
        Expr::Lit(v) => Some(ctx.arena.add(FirNode::Const(v.clone()))),
        Expr::Bin(op, l, r) => {
            let l2 = sym_expr(ctx, l, loop_var, env)?;
            let r2 = sym_expr(ctx, r, loop_var, env)?;
            Some(ctx.arena.add(FirNode::Bin(*op, l2, r2)))
        }
        Expr::Not(inner) => {
            let i = sym_expr(ctx, inner, loop_var, env)?;
            Some(ctx.arena.add(FirNode::Not(i)))
        }
        Expr::Field(base, col) => {
            let b = sym_expr(ctx, base, loop_var, env)?;
            match ctx.arena.node(b).clone() {
                FirNode::TupleVar(v) => Some(ctx.arena.add(FirNode::TupleAttr(v, col.clone()))),
                _ => Some(ctx.arena.add(FirNode::RowField(b, col.clone()))),
            }
        }
        Expr::Nav(base, field) => {
            let b = sym_expr(ctx, base, loop_var, env)?;
            // Navigation requires knowing the entity of the base row:
            // only loop tuples (of entity-known sources) are supported.
            let FirNode::TupleVar(v) = ctx.arena.node(b).clone() else {
                return None;
            };
            let entity = ctx.entities.get(&v)?.clone();
            let mapping = ctx.mappings.entity(&entity)?;
            let assoc = mapping.association(field)?;
            let target = ctx.mappings.entity(&assoc.target_entity)?;
            let plan = LogicalPlan::scan(&target.table).select(ScalarExpr::eq(
                ScalarExpr::col(&target.id_column),
                ScalarExpr::param("k"),
            ));
            let key = ctx
                .arena
                .add(FirNode::TupleAttr(v, assoc.fk_column.clone()));
            Some(ctx.arena.add(FirNode::Query {
                plan: plan.into(),
                binds: vec![("k".to_string(), key)],
            }))
        }
        Expr::Call(f, args) => {
            let ids = args
                .iter()
                .map(|a| sym_expr(ctx, a, loop_var, env))
                .collect::<Option<Vec<_>>>()?;
            Some(ctx.arena.add(FirNode::Call(f.clone(), ids)))
        }
        Expr::LoadAll(entity) => {
            let m = ctx.mappings.entity(entity)?;
            let plan = LogicalPlan::scan(&m.table);
            Some(ctx.arena.add(FirNode::Query {
                plan: plan.into(),
                binds: Vec::new(),
            }))
        }
        Expr::Query(spec) => {
            let binds = spec
                .binds
                .iter()
                .map(|(p, b)| Some((p.clone(), sym_expr(ctx, b, loop_var, env)?)))
                .collect::<Option<Vec<_>>>()?;
            Some(ctx.arena.add(FirNode::Query {
                plan: spec.plan.clone(),
                binds,
            }))
        }
        Expr::ScalarQuery(spec) => {
            let binds = spec
                .binds
                .iter()
                .map(|(p, b)| Some((p.clone(), sym_expr(ctx, b, loop_var, env)?)))
                .collect::<Option<Vec<_>>>()?;
            Some(ctx.arena.add(FirNode::ScalarQuery {
                plan: spec.plan.clone(),
                binds,
            }))
        }
        // Cache lookups, map reads and size() inside candidate loops are
        // out of F-IR's current scope: the loop stays imperative.
        Expr::LookupCache(_, _) | Expr::MapGet(_, _) | Expr::Len(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imperative::ast::QuerySpec;
    use minidb::BinOp;
    use orm::EntityMapping;

    fn mappings() -> MappingRegistry {
        let mut r = MappingRegistry::new();
        r.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
            "customer",
            "Customer",
            "o_customer_sk",
        ));
        r.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
        r
    }

    fn let_stmt(v: &str, e: Expr) -> Stmt {
        Stmt::new(StmtKind::Let(v.into(), e))
    }

    #[test]
    fn figure_8_sum_and_csum_fold() {
        // Figure 7's loop: sum = sum + t.sale_amt; cSum.put(t.month, sum).
        let body = vec![
            let_stmt(
                "sum",
                Expr::bin(
                    BinOp::Add,
                    Expr::var("sum"),
                    Expr::field(Expr::var("t"), "sale_amt"),
                ),
            ),
            Stmt::new(StmtKind::Put(
                "cSum".into(),
                Expr::field(Expr::var("t"), "month"),
                Expr::var("sum"),
            )),
        ];
        let iter = Expr::Query(QuerySpec::sql(
            "select month, sale_amt from sales order by month",
        ));
        let alt = loop_to_fold("t", &iter, &body, &mappings(), None).expect("foldable");
        assert_eq!(alt.roots.assigns.len(), 2);
        let (v0, p0) = &alt.roots.assigns[0];
        assert_eq!(v0, "sum");
        let text = alt.arena.display(*p0);
        // project0(fold(tuple((<sum> + t.sale_amt), mapput(<cSum>, t.month,
        // (<sum> + t.sale_amt))), tuple(sum, cSum), Q[...]))
        assert!(
            text.starts_with("project0(fold(tuple((<sum> + t.sale_amt)"),
            "{text}"
        );
        assert!(
            text.contains("mapput(<cSum>, t.month, (<sum> + t.sale_amt))"),
            "{text}"
        );
        assert!(
            text.contains("tuple(sum, cSum)"),
            "init is region-entry values: {text}"
        );
    }

    #[test]
    fn navigation_lowers_to_lookup_query() {
        // P0's body.
        let body = vec![
            let_stmt("cust", Expr::nav(Expr::var("o"), "customer")),
            let_stmt(
                "val",
                Expr::Call(
                    "myFunc".into(),
                    vec![
                        Expr::field(Expr::var("o"), "o_id"),
                        Expr::field(Expr::var("cust"), "c_birth_year"),
                    ],
                ),
            ),
            Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
        ];
        let alt = loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["result".to_string()]),
        )
        .expect("foldable");
        let text = alt.arena.display(alt.roots.assigns[0].1);
        assert!(
            text.contains("Q[select * from customer where c_customer_sk = :k | k=o.o_customer_sk]"),
            "navigation becomes a correlated lookup query: {text}"
        );
        assert!(text.contains(".c_birth_year"), "{text}");
        assert!(text.contains("myFunc(o.o_id"), "{text}");
    }

    #[test]
    fn conditional_update_becomes_cond_node() {
        let body = vec![Stmt::new(StmtKind::If {
            cond: Expr::bin(
                BinOp::Gt,
                Expr::field(Expr::var("t"), "amount"),
                Expr::lit(10i64),
            ),
            then_branch: vec![Stmt::new(StmtKind::Add("big".into(), Expr::var("t")))],
            else_branch: vec![],
        })];
        let alt = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql("select * from orders")),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let text = alt.arena.display(alt.roots.assigns[0].1);
        assert!(
            text.contains("?((t.amount > 10), insert(<big>, t), <big>)"),
            "{text}"
        );
    }

    #[test]
    fn nested_cursor_loop_becomes_nested_fold() {
        // Pattern C shape: for o in orders { for c in σ(customer) { r.add } }
        let inner_iter = Expr::Query(
            QuerySpec::sql("select * from customer where c_customer_sk = :k")
                .bind("k", Expr::field(Expr::var("o"), "o_customer_sk")),
        );
        let body = vec![Stmt::new(StmtKind::ForEach {
            var: "c".into(),
            iter: inner_iter,
            body: vec![Stmt::new(StmtKind::Add(
                "result".into(),
                Expr::field(Expr::var("c"), "c_birth_year"),
            ))],
        })];
        let alt = loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["result".to_string()]),
        )
        .expect("foldable");
        let text = alt.arena.display(alt.roots.assigns[0].1);
        assert!(
            text.contains("fold(tuple(insert(<result>, c.c_birth_year))"),
            "{text}"
        );
        assert!(
            text.contains("k=o.o_customer_sk"),
            "inner source correlated: {text}"
        );
        // Inner init is the outer accumulator value.
        assert!(text.contains("tuple(<result>)"), "{text}");
    }

    #[test]
    fn non_foldable_loops_return_none() {
        let body = vec![Stmt::new(StmtKind::Print(Expr::var("t")))];
        assert!(loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql("select * from orders")),
            &body,
            &mappings(),
            None
        )
        .is_none());
    }

    #[test]
    fn pure_insert_fold_shape() {
        // for (t : Q) { r.add(t) } — rule T1's pattern.
        let body = vec![Stmt::new(StmtKind::Add("r".into(), Expr::var("t")))];
        let alt = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql("select * from orders")),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let text = alt.arena.display(alt.roots.assigns[0].1);
        assert!(text.contains("insert(<r>, t)"), "{text}");
    }

    #[test]
    fn branch_local_temps_do_not_leak() {
        // tmp defined only in the then-branch, never read after: fine.
        let body = vec![Stmt::new(StmtKind::If {
            cond: Expr::lit(true),
            then_branch: vec![
                let_stmt("tmp", Expr::field(Expr::var("t"), "x")),
                Stmt::new(StmtKind::Add("r".into(), Expr::var("tmp"))),
            ],
            else_branch: vec![],
        })];
        let alt = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql("select * from orders")),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        assert_eq!(alt.roots.assigns.len(), 2, "tmp and r both accumulate");
    }
}
