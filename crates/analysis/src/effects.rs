//! Pass 2 — effect analysis and rewrite soundness.
//!
//! [`alternative_effects`] is the observable effect set of one
//! alternative: tables read (queries, cache lookups and prefetches),
//! tables read *under a `LIMIT`*, variables written, and scalar functions
//! invoked (both F-IR `Call` nodes and `Func` expressions embedded in
//! query plans, so a rewrite that pushes a call into SQL is not misread as
//! dropping it).
//!
//! [`check_rewrite`] is the soundness judgment: a derived alternative
//! must preserve the base's effect set modulo the applied rules' declared
//! [`EffectDelta`]. Concretely — writes may only grow (T5-partial adds an
//! entry-snapshot assign; *dropping* a write is always unsound), table
//! reads are preserved exactly unless the delta allows adding (N1) or
//! dropping them, scalar calls are preserved exactly modulo declared
//! introductions (T5's `coalesce`), and no table read may become
//! `LIMIT`-truncated when the base read it unlimited — the
//! `broken_limit_rule` bug class, rejected here without executing a row.

use crate::{Diagnostic, Pass};
use fir::{EffectDelta, FirArena, FirId, FirNode, FirRoots};
use minidb::{LogicalPlan, ScalarExpr};
use std::collections::BTreeSet;

/// The observable effects of an F-IR alternative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSet {
    /// Tables read by queries, cache lookups, or prefetches.
    pub table_reads: BTreeSet<String>,
    /// The subset of `table_reads` scanned under a `LIMIT` clause.
    pub limited_reads: BTreeSet<String>,
    /// Variables the alternative assigns (region outputs).
    pub writes: BTreeSet<String>,
    /// Scalar functions invoked, in F-IR or inside query plans.
    pub calls: BTreeSet<String>,
}

/// Compute the [`EffectSet`] of an alternative: the union over every
/// assignment root of node effects, plus assign targets as writes and
/// prefetched tables as reads.
#[must_use]
pub fn alternative_effects(arena: &FirArena, alt: &FirRoots) -> EffectSet {
    let mut fx = EffectSet::default();
    for (var, root) in &alt.assigns {
        fx.writes.insert(var.clone());
        collect_node(arena, *root, &mut fx);
    }
    for p in &alt.prefetches {
        fx.table_reads.insert(p.table.clone());
    }
    fx
}

fn collect_node(arena: &FirArena, root: FirId, fx: &mut EffectSet) {
    for id in arena.reachable(root) {
        match arena.node(id) {
            FirNode::Call(name, _) => {
                fx.calls.insert(name.clone());
            }
            FirNode::Query { plan, .. } | FirNode::ScalarQuery { plan, .. } => {
                collect_plan(plan.as_plan(), fx);
            }
            FirNode::CacheLookup { table, .. } => {
                fx.table_reads.insert(table.clone());
            }
            _ => {}
        }
    }
}

fn collect_plan(plan: &LogicalPlan, fx: &mut EffectSet) {
    plan.walk(&mut |p| match p {
        LogicalPlan::Scan { table, .. } => {
            fx.table_reads.insert(table.clone());
        }
        LogicalPlan::Limit { input, .. } => {
            for t in input.base_tables() {
                fx.limited_reads.insert(t.to_string());
            }
        }
        LogicalPlan::Select { pred, .. } | LogicalPlan::Join { pred, .. } => {
            collect_expr_calls(pred, &mut fx.calls);
        }
        LogicalPlan::Project { items, .. } => {
            for (e, _) in items {
                collect_expr_calls(e, &mut fx.calls);
            }
        }
        LogicalPlan::Aggregate { aggs, .. } => {
            for a in aggs {
                if let Some(e) = &a.arg {
                    collect_expr_calls(e, &mut fx.calls);
                }
            }
        }
        LogicalPlan::OrderBy { .. } => {}
    });
}

fn collect_expr_calls(e: &ScalarExpr, calls: &mut BTreeSet<String>) {
    match e {
        ScalarExpr::Func(name, args) => {
            calls.insert(name.clone());
            for a in args {
                collect_expr_calls(a, calls);
            }
        }
        ScalarExpr::Bin(_, l, r) => {
            collect_expr_calls(l, calls);
            collect_expr_calls(r, calls);
        }
        ScalarExpr::Not(inner) => collect_expr_calls(inner, calls),
        ScalarExpr::Col(_) | ScalarExpr::Lit(_) | ScalarExpr::Param(_) => {}
    }
}

fn err(node: Option<FirId>, message: String) -> Diagnostic {
    Diagnostic::new(Pass::Effects, node, message)
}

/// The rewrite-soundness judgment of `derived` against the effect set `b`
/// of its base. See the module docs for the rules.
///
/// # Errors
///
/// A [`Diagnostic`] naming the first effect deviation `delta` does not
/// license, anchored at an offending node where one exists.
pub fn check_rewrite(
    b: &EffectSet,
    arena: &FirArena,
    derived: &FirRoots,
    delta: &EffectDelta,
) -> Result<(), Diagnostic> {
    let d = alternative_effects(arena, derived);

    for w in &b.writes {
        if !d.writes.contains(w) {
            return Err(err(
                None,
                format!("rewrite silently drops the write to `{w}`"),
            ));
        }
    }

    if !delta.may_add_reads {
        if let Some(t) = d.table_reads.difference(&b.table_reads).next() {
            return Err(err(
                find_reader(arena, derived, t),
                format!("rewrite reads table `{t}` which the base does not (undeclared)"),
            ));
        }
    }
    if !delta.may_drop_reads {
        if let Some(t) = b.table_reads.difference(&d.table_reads).next() {
            return Err(err(
                None,
                format!("rewrite drops the base's read of table `{t}` (undeclared)"),
            ));
        }
    }

    if let Some(t) = d.limited_reads.difference(&b.limited_reads).next() {
        return Err(err(
            find_limiter(arena, derived, t),
            format!(
                "rewrite truncates its read of table `{t}` with a LIMIT the base \
                 does not have (rows stolen)"
            ),
        ));
    }
    for t in b.limited_reads.difference(&d.limited_reads) {
        if d.table_reads.contains(t) {
            return Err(err(
                find_reader(arena, derived, t),
                format!(
                    "rewrite drops the LIMIT the base applies to table `{t}` \
                     (rows added)"
                ),
            ));
        }
    }

    for c in d.calls.difference(&b.calls) {
        if !delta.may_introduce_calls.contains(&c.as_str()) {
            return Err(err(
                find_caller(arena, derived, c),
                format!("rewrite introduces a call to `{c}` the rule did not declare"),
            ));
        }
    }
    if let Some(c) = b.calls.difference(&d.calls).next() {
        return Err(err(
            None,
            format!("rewrite silently drops the call to `{c}`"),
        ));
    }

    Ok(())
}

/// First reachable node of `alt` that reads `table`, for diagnostics.
fn find_reader(arena: &FirArena, alt: &FirRoots, table: &str) -> Option<FirId> {
    find_node(arena, alt, &|node| match node {
        FirNode::Query { plan, .. } | FirNode::ScalarQuery { plan, .. } => {
            plan.as_plan().base_tables().contains(&table)
        }
        FirNode::CacheLookup { table: t, .. } => t == table,
        _ => false,
    })
}

/// First reachable node whose plan puts `table` under a `LIMIT`.
fn find_limiter(arena: &FirArena, alt: &FirRoots, table: &str) -> Option<FirId> {
    find_node(arena, alt, &|node| match node {
        FirNode::Query { plan, .. } | FirNode::ScalarQuery { plan, .. } => {
            let mut hit = false;
            plan.as_plan().walk(&mut |p| {
                if let LogicalPlan::Limit { input, .. } = p {
                    hit |= input.base_tables().contains(&table);
                }
            });
            hit
        }
        _ => false,
    })
}

/// First reachable node that invokes `name`, in F-IR or inside a plan.
fn find_caller(arena: &FirArena, alt: &FirRoots, name: &str) -> Option<FirId> {
    find_node(arena, alt, &|node| match node {
        FirNode::Call(n, _) => n == name,
        FirNode::Query { plan, .. } | FirNode::ScalarQuery { plan, .. } => {
            let mut fx = EffectSet::default();
            collect_plan(plan.as_plan(), &mut fx);
            fx.calls.contains(name)
        }
        _ => false,
    })
}

fn find_node(arena: &FirArena, alt: &FirRoots, pred: &dyn Fn(&FirNode) -> bool) -> Option<FirId> {
    let mut reached = alt
        .assigns
        .iter()
        .flat_map(|(_, root)| arena.reachable(*root));
    reached.find(|&id| pred(arena.node(id)))
}
