//! Code generation: F-IR alternatives back to imperative statements.
//!
//! The inverse of [`crate::build`]: folds become cursor loops, queries
//! become `executeQuery` calls, prefetches become
//! `Utils.cacheByColumn(executeQuery("select * from T"), key)` statements,
//! and cache lookups become `Utils.lookupCache` expressions — producing
//! exactly the program shapes of Figure 3 (P1, P2) from the F-IR
//! alternatives the rules derive from P0.

use crate::arena::{FirArena, FirId, FirNode};
use crate::build::FirAlternative;
use imperative::ast::{Expr, QuerySpec, Stmt, StmtKind};
use std::collections::HashMap;

/// Name of the client cache for `table` keyed by `key_col` (shared between
/// prefetch statements and lookup expressions).
pub fn cache_name(table: &str, key_col: &str) -> String {
    format!("cache_{table}_by_{key_col}")
}

/// Generate imperative statements for an alternative. Returns `None` when
/// the alternative contains a shape codegen cannot express (which the
/// optimizer treats as "alternative unavailable").
pub fn generate(alt: &FirAlternative) -> Option<Vec<Stmt>> {
    let mut g = Gen {
        arena: &alt.arena,
        emitted_accs: HashMap::new(),
        emitted_folds: Vec::new(),
        row_vars: HashMap::new(),
        fresh: 0,
    };
    let mut out = Vec::new();
    for p in &alt.roots.prefetches {
        out.push(Stmt::new(StmtKind::CacheByColumn {
            cache: cache_name(&p.table, &p.key_col),
            source: Expr::Query(QuerySpec::of(minidb::LogicalPlan::scan(&p.table))),
            key_col: p.key_col.clone(),
        }));
    }
    for (var, id) in &alt.roots.assigns {
        g.emit_assign(var, *id, &mut out)?;
    }
    Some(out)
}

struct Gen<'a> {
    arena: &'a FirArena,
    /// Final expression of an already-updated accumulator → its variable,
    /// so dependent reads reuse the variable instead of re-inlining.
    emitted_accs: HashMap<FirId, String>,
    /// Folds already lowered to loops (all their projections are covered).
    emitted_folds: Vec<FirId>,
    /// Row-producing nodes already bound to a local variable.
    row_vars: HashMap<FirId, String>,
    fresh: u32,
}

impl<'a> Gen<'a> {
    fn fresh_var(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn emit_assign(&mut self, var: &str, id: FirId, out: &mut Vec<Stmt>) -> Option<()> {
        match self.arena.node(id).clone() {
            FirNode::Project(fold, _) => {
                if self.emitted_folds.contains(&fold) {
                    return Some(()); // loop already emitted; var is set
                }
                self.emit_fold(fold, out)
            }
            FirNode::Query { plan, binds } => {
                let spec = self.query_spec(plan, &binds, out)?;
                out.push(Stmt::new(StmtKind::Let(var.to_string(), Expr::Query(spec))));
                Some(())
            }
            FirNode::ScalarQuery { plan, binds } => {
                let spec = self.query_spec(plan, &binds, out)?;
                out.push(Stmt::new(StmtKind::Let(
                    var.to_string(),
                    Expr::ScalarQuery(spec),
                )));
                Some(())
            }
            FirNode::RowField(base, col) => {
                // Multi-aggregate extraction: bind the (single-row) result
                // once, then read its columns.
                let row_var = self.row_var_for(base, out)?;
                out.push(Stmt::new(StmtKind::Let(
                    var.to_string(),
                    Expr::field(Expr::var(row_var), col),
                )));
                Some(())
            }
            _ => {
                let e = self.tx(id, out)?;
                out.push(Stmt::new(StmtKind::Let(var.to_string(), e)));
                Some(())
            }
        }
    }

    /// Emit the loop for a fold node, updating all its accumulators.
    fn emit_fold(&mut self, fold: FirId, out: &mut Vec<Stmt>) -> Option<()> {
        let FirNode::Fold {
            func,
            init,
            source,
            loop_var,
            updated,
        } = self.arena.node(fold).clone()
        else {
            return None;
        };
        let FirNode::Tuple(items) = self.arena.node(func).clone() else {
            return None;
        };
        let FirNode::Tuple(init_items) = self.arena.node(init).clone() else {
            return None;
        };
        self.emitted_folds.push(fold);

        // Materialize non-trivial initial values before the loop. A
        // top-level fold's init is the accumulator's own region-entry
        // value (nothing to do), but a *nested* fold continues an
        // accumulation whose value-so-far lives in its init expression —
        // dropping it loses every contribution made earlier in the outer
        // iteration (a bug the differential oracle caught).
        for (u, &init_item) in updated.iter().zip(&init_items) {
            let trivial = matches!(
                self.arena.node(init_item),
                FirNode::AccParam(v) | FirNode::Param(v) | FirNode::CollectionParam(v) if v == u
            );
            if !trivial {
                self.emit_update(u, init_item, out)?;
            }
        }

        let iter = self.source_expr(source, out)?;
        let mut body = Vec::new();
        // Accumulator updates run in first-update order; dependent reads of
        // an earlier accumulator's final value resolve to its variable.
        // Bindings made *inside* the body (row variables, nested folds) go
        // out of scope with it — the loop may run zero times, so code
        // after the loop must not reuse them.
        let saved_accs = self.emitted_accs.clone();
        let saved_rows = self.row_vars.clone();
        let saved_folds = self.emitted_folds.clone();
        let order = update_order(self.arena, &updated, &items)?;
        for idx in order {
            let (u, item) = (&updated[idx], items[idx]);
            self.emit_update(u, item, &mut body)?;
            self.emitted_accs.insert(item, u.clone());
        }
        self.emitted_accs = saved_accs;
        self.row_vars = saved_rows;
        self.emitted_folds = saved_folds;
        out.push(Stmt::new(StmtKind::ForEach {
            var: loop_var,
            iter,
            body,
        }));
        Some(())
    }

    /// Emit the statement(s) updating accumulator `var` to the value of
    /// `item` for this iteration.
    fn emit_update(&mut self, var: &str, item: FirId, body: &mut Vec<Stmt>) -> Option<()> {
        let acc = FirNode::AccParam(var.to_string());
        if self.arena.node(item) == &acc {
            return Some(()); // untouched this iteration
        }
        match self.arena.node(item).clone() {
            FirNode::Insert(base, elem) => {
                self.emit_update(var, base, body)?;
                let e = self.tx(elem, body)?;
                body.push(Stmt::new(StmtKind::Add(var.to_string(), e)));
                Some(())
            }
            FirNode::MapPut(base, k, v) => {
                self.emit_update(var, base, body)?;
                let ke = self.tx(k, body)?;
                let ve = self.tx(v, body)?;
                body.push(Stmt::new(StmtKind::Put(var.to_string(), ke, ve)));
                Some(())
            }
            FirNode::Cond {
                pred,
                then_val,
                else_val,
            } => {
                let p = self.tx(pred, body)?;
                // Each branch executes alone: bindings and folds emitted
                // in one branch are not in scope in the other (or after
                // the conditional), even though hash-consing shares their
                // nodes. Without this isolation the second branch would
                // skip a fold "already emitted" in the first — dropping
                // its loop entirely.
                let saved_rows = self.row_vars.clone();
                let saved_folds = self.emitted_folds.clone();
                let mut then_branch = Vec::new();
                self.emit_update(var, then_val, &mut then_branch)?;
                self.row_vars = saved_rows.clone();
                self.emitted_folds = saved_folds.clone();
                let mut else_branch = Vec::new();
                self.emit_update(var, else_val, &mut else_branch)?;
                self.row_vars = saved_rows;
                self.emitted_folds = saved_folds;
                body.push(Stmt::new(StmtKind::If {
                    cond: p,
                    then_branch,
                    else_branch,
                }));
                Some(())
            }
            FirNode::Project(fold, _) => {
                if !self.emitted_folds.contains(&fold) {
                    self.emit_fold(fold, body)?;
                }
                Some(())
            }
            _ => {
                let e = self.tx(item, body)?;
                body.push(Stmt::new(StmtKind::Let(var.to_string(), e)));
                Some(())
            }
        }
    }

    /// The iterable expression for a fold source.
    fn source_expr(&mut self, source: FirId, out: &mut Vec<Stmt>) -> Option<Expr> {
        match self.arena.node(source).clone() {
            FirNode::Query { plan, binds } => {
                let spec = self.query_spec(plan, &binds, out)?;
                Some(Expr::Query(spec))
            }
            FirNode::CollectionParam(v) | FirNode::Param(v) => Some(Expr::Var(v)),
            FirNode::CacheLookup {
                table,
                key_col,
                key,
            } => {
                let k = self.tx(key, out)?;
                Some(Expr::LookupCache(cache_name(&table, &key_col), Box::new(k)))
            }
            _ => None,
        }
    }

    fn query_spec(
        &mut self,
        plan: minidb::SharedPlan,
        binds: &[(String, FirId)],
        out: &mut Vec<Stmt>,
    ) -> Option<QuerySpec> {
        let mut spec = QuerySpec::of(plan);
        for (p, id) in binds {
            let e = self.tx(*id, out)?;
            spec = spec.bind(p.clone(), e);
        }
        Some(spec)
    }

    /// Bind a row-producing node (lookup query / cache lookup) to a local
    /// variable, once.
    fn row_var_for(&mut self, id: FirId, out: &mut Vec<Stmt>) -> Option<String> {
        if let Some(v) = self.row_vars.get(&id) {
            return Some(v.clone());
        }
        let expr = match self.arena.node(id).clone() {
            FirNode::Query { plan, binds } => {
                let spec = self.query_spec(plan, &binds, out)?;
                Expr::Query(spec)
            }
            FirNode::CacheLookup {
                table,
                key_col,
                key,
            } => {
                let k = self.tx(key, out)?;
                Expr::LookupCache(cache_name(&table, &key_col), Box::new(k))
            }
            _ => return None,
        };
        let name = self.fresh_var("row");
        out.push(Stmt::new(StmtKind::Let(name.clone(), expr)));
        self.row_vars.insert(id, name.clone());
        Some(name)
    }

    /// Translate a value-position F-IR node into an expression, emitting
    /// helper statements (row bindings) into `out` as needed.
    fn tx(&mut self, id: FirId, out: &mut Vec<Stmt>) -> Option<Expr> {
        if let Some(var) = self.emitted_accs.get(&id) {
            return Some(Expr::Var(var.clone()));
        }
        match self.arena.node(id).clone() {
            FirNode::Const(v) => Some(Expr::Lit(v)),
            FirNode::Param(v) | FirNode::AccParam(v) | FirNode::CollectionParam(v) => {
                Some(Expr::Var(v))
            }
            FirNode::TupleVar(v) => Some(Expr::Var(v)),
            FirNode::TupleAttr(v, c) => Some(Expr::field(Expr::Var(v), c)),
            FirNode::Bin(op, l, r) => {
                let le = self.tx(l, out)?;
                let re = self.tx(r, out)?;
                Some(Expr::bin(op, le, re))
            }
            FirNode::Not(e) => {
                let i = self.tx(e, out)?;
                Some(Expr::Not(Box::new(i)))
            }
            FirNode::Call(f, args) => {
                let es = args
                    .iter()
                    .map(|a| self.tx(*a, out))
                    .collect::<Option<Vec<_>>>()?;
                Some(Expr::Call(f, es))
            }
            FirNode::RowField(base, col) => match self.arena.node(base).clone() {
                // A row already held in a variable (region parameter or
                // enclosing tuple): plain field access.
                FirNode::Param(v) | FirNode::AccParam(v) | FirNode::TupleVar(v) => {
                    Some(Expr::field(Expr::var(v), col))
                }
                _ => {
                    let row = self.row_var_for(base, out)?;
                    Some(Expr::field(Expr::var(row), col))
                }
            },
            FirNode::CacheLookup {
                table,
                key_col,
                key,
            } => {
                let k = self.tx(key, out)?;
                Some(Expr::LookupCache(cache_name(&table, &key_col), Box::new(k)))
            }
            FirNode::Query { plan, binds } => {
                let spec = self.query_spec(plan, &binds, out)?;
                Some(Expr::Query(spec))
            }
            FirNode::ScalarQuery { plan, binds } => {
                let spec = self.query_spec(plan, &binds, out)?;
                Some(Expr::ScalarQuery(spec))
            }
            // Structure nodes are only valid in update position.
            FirNode::Insert(_, _)
            | FirNode::MapPut(_, _, _)
            | FirNode::Cond { .. }
            | FirNode::Tuple(_)
            | FirNode::Project(_, _)
            | FirNode::Fold { .. } => None,
        }
    }
}

/// Order the accumulator updates of one fold so every cross-accumulator
/// read resolves to the right value once updates mutate variables in
/// place:
///
/// * an item reading `<b>` (accumulator `b`'s iteration-start value)
///   must be emitted **before** `b`'s own update overwrites it;
/// * an item embedding `b`'s final update expression must be emitted
///   **after** it, so the shared subexpression resolves to `b`'s
///   variable (the M0 dependent-aggregation pattern);
/// * an item needing both (or a dependency cycle) has no in-place
///   emission — the alternative is reported unavailable rather than
///   miscompiled. The differential oracle caught the earlier behavior,
///   which emitted declaration order and silently read mid-iteration
///   values.
///
/// The returned order is the stable topological sort (original order
/// among unconstrained updates, preserving legacy output).
fn update_order(arena: &FirArena, updated: &[String], items: &[FirId]) -> Option<Vec<usize>> {
    let n = items.len();
    // Does `root` reference AccParam(`name`) outside any occurrence of
    // the full expression `stop` (which will resolve to a variable)?
    fn reads_start(
        arena: &FirArena,
        root: FirId,
        stop: FirId,
        name: &str,
        root_is_self: bool,
    ) -> bool {
        if !root_is_self && root == stop {
            return false;
        }
        if let FirNode::AccParam(v) = arena.node(root) {
            if v == name {
                return true;
            }
        }
        arena
            .children(root)
            .into_iter()
            .any(|c| reads_start(arena, c, stop, name, false))
    }
    // Does `root` embed `other` as a (strict) subexpression?
    fn embeds(arena: &FirArena, root: FirId, other: FirId) -> bool {
        arena
            .children(root)
            .into_iter()
            .any(|c| c == other || embeds(arena, c, other))
    }

    // before[a] holds every b that must be emitted before a.
    let mut before: Vec<Vec<usize>> = vec![Vec::new(); n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            if items[a] == items[b] {
                // Hash-consing shared the whole update: whichever emits
                // first, the other resolves to its variable (`b = a`) and
                // both orders read the same pre-update state — no
                // constraint, and in particular no false cycle.
                continue;
            }
            let final_ref = embeds(arena, items[a], items[b]);
            let start_ref = reads_start(arena, items[a], items[b], &updated[b], true);
            match (start_ref, final_ref) {
                (true, true) => return None,        // needs both old and new value of b
                (true, false) => before[b].push(a), // a precedes b
                (false, true) => before[a].push(b), // b precedes a
                (false, false) => {}
            }
        }
    }
    // Stable Kahn's algorithm: lowest original index among ready updates
    // first; no ready update means a cycle.
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let next = (0..n).find(|&i| !emitted[i] && before[i].iter().all(|&b| emitted[b]))?;
        emitted[next] = true;
        order.push(next);
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::loop_to_fold;
    use crate::ruleset::{expand_with, RuleSet};
    use imperative::pretty;
    use minidb::BinOp;
    use orm::{EntityMapping, MappingRegistry};

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

    fn p0_alts() -> Vec<FirAlternative> {
        let body = vec![
            Stmt::new(StmtKind::Let(
                "cust".into(),
                Expr::nav(Expr::var("o"), "customer"),
            )),
            Stmt::new(StmtKind::Let(
                "val".into(),
                Expr::Call(
                    "myFunc".into(),
                    vec![
                        Expr::field(Expr::var("o"), "o_id"),
                        Expr::field(Expr::var("cust"), "c_birth_year"),
                    ],
                ),
            )),
            Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
        ];
        let base = loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["result".to_string()]),
        )
        .unwrap();
        expand_with(base, &RuleSet::standard(), 32).alternatives
    }

    #[test]
    fn p1_codegen_matches_figure_3b_shape() {
        let alts = p0_alts();
        let join = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T4/T5var(lookup-to-join)"))
            .unwrap();
        let stmts = generate(join).expect("codegen");
        let text = pretty::stmts_to_string(&stmts);
        assert!(
            text.contains(
                "for (o : executeQuery(\"select * from orders join customer on \
                 o_customer_sk = c_customer_sk\")) {"
            ),
            "{text}"
        );
        // `val` is a per-iteration temporary; symbolic evaluation inlines
        // it into the accumulation (semantically identical to Figure 3b).
        assert!(
            text.contains("result.add(myFunc(o.o_id, o.c_birth_year));"),
            "{text}"
        );
    }

    #[test]
    fn p2_codegen_matches_figure_3c_shape() {
        let alts = p0_alts();
        let pf = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"N1"))
            .unwrap();
        let stmts = generate(pf).expect("codegen");
        let text = pretty::stmts_to_string(&stmts);
        assert!(
            text.contains(
                "cache_customer_by_c_customer_sk = Utils.cacheByColumn(\
                 executeQuery(\"select * from customer\"), 'c_customer_sk');"
            ),
            "{text}"
        );
        assert!(
            text.contains("Utils.lookupCache(cache_customer_by_c_customer_sk, o.o_customer_sk)"),
            "{text}"
        );
    }

    #[test]
    fn original_fold_codegen_round_trips_p0() {
        // Codegen of the unrewritten fold reproduces a loop with the same
        // statements as the original body (lookup bound to a row variable).
        let alts = p0_alts();
        let base = alts
            .iter()
            .find(|a| a.roots.rules_applied == vec!["toFIR"])
            .unwrap();
        let stmts = generate(base).expect("codegen");
        let text = pretty::stmts_to_string(&stmts);
        assert!(
            text.contains("for (o : executeQuery(\"select * from orders\")) {"),
            "{text}"
        );
        assert!(
            text.contains("executeQuery(\"select * from customer where c_customer_sk = :k\", k=o.o_customer_sk)"),
            "{text}"
        );
        assert!(text.contains("result.add("), "{text}");
    }

    #[test]
    fn aggregate_codegen_uses_scalar_query() {
        let body = vec![Stmt::new(StmtKind::Let(
            "sum".into(),
            Expr::bin(
                BinOp::Add,
                Expr::var("sum"),
                Expr::field(Expr::var("t"), "sale_amt"),
            ),
        ))];
        let base = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql("select * from sales")),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let alts = expand_with(base, &RuleSet::standard(), 32).alternatives;
        let agg = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T5"))
            .unwrap();
        let stmts = generate(agg).unwrap();
        let text = pretty::stmts_to_string(&stmts);
        assert_eq!(
            text.trim(),
            "sum = sum + coalesce(executeScalar(\"select sum(sale_amt) as agg_sum from sales\"), 0);",
            "the extraction adds onto the entry value and guards empty input"
        );
    }

    #[test]
    fn dependent_aggregation_codegen_reuses_updated_variable() {
        // Figure 7 loop: cSum.put must reference `sum`, not re-inline it.
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
        let base = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql(
                "select month, sale_amt from sales order by month",
            )),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let stmts = generate(&base).unwrap();
        let text = pretty::stmts_to_string(&stmts);
        assert!(text.contains("sum = sum + t.sale_amt;"), "{text}");
        assert!(text.contains("cSum.put(t.month, sum);"), "{text}");
    }

    #[test]
    fn conditional_update_codegen_emits_if() {
        let body = vec![Stmt::new(StmtKind::If {
            cond: Expr::bin(
                BinOp::Gt,
                Expr::field(Expr::var("t"), "o_amount"),
                Expr::lit(10i64),
            ),
            then_branch: vec![Stmt::new(StmtKind::Add("r".into(), Expr::var("t")))],
            else_branch: vec![],
        })];
        let base = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql("select * from orders")),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let stmts = generate(&base).unwrap();
        let text = pretty::stmts_to_string(&stmts);
        assert!(text.contains("if (t.o_amount > 10) {"), "{text}");
        assert!(text.contains("r.add(t);"), "{text}");
        assert!(!text.contains("} else {"), "empty else omitted: {text}");
    }

    #[test]
    fn t1_codegen_is_a_single_query_assignment() {
        let body = vec![Stmt::new(StmtKind::Add("r".into(), Expr::var("t")))];
        let base = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql("select * from orders")),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let alts = expand_with(base, &RuleSet::standard(), 32).alternatives;
        let t1 = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T1"))
            .unwrap();
        let stmts = generate(t1).unwrap();
        let text = pretty::stmts_to_string(&stmts);
        assert_eq!(text.trim(), "r = executeQuery(\"select * from orders\");");
    }

    use imperative::ast::{Expr, QuerySpec, Stmt, StmtKind};
}
