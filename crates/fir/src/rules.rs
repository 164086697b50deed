//! F-IR transformation rules (Figure 11).
//!
//! | Rule | Shape | Effect |
//! |------|-------|--------|
//! | T1 | `fold(insert, {}, Q) = Q` | loop materializing a query *is* the query |
//! | T2 | `fold(?(p,g), id, Q) ≡ fold(g, id, σ_p(Q))` | push predicate into the query |
//! | T4/T5-variant | lookup query / nested fold over `σ_{A=t.B}(R)` | rewrite to a join `Q ⋈ R` |
//! | T5 | `fold(op, id, π_A(Q)) ≡ γ_op(Q)` | aggregation extracted to SQL |
//! | N1 | iterative lookup in a fold | `seq(prefetch(R,A), fold(lookup…))` |
//! | N2 | `fold(g, id, σ_p(Q)) ≡ fold(?(p,g), id, Q)` | pull selection out (reverse of T2) |
//!
//! T3 (pushing scalar functions into the query projection) happens
//! implicitly during aggregation extraction: aggregate arguments are
//! translated into SQL expressions over the source's columns.
//!
//! Every rule here has the one shape of [`crate::ruleset::RuleFn`]: it
//! matches, and returns [`Derivation`]s describing what it found;
//! [`crate::ruleset::expand_with`] builds the alternatives and closes a
//! base alternative under the registered rules.

use crate::arena::{FirArena, FirId, FirNode};
use crate::build::Prefetch;
use crate::ruleset::{Change, Derivation};
use minidb::plan::AggItem;
use minidb::{AggFunc, BinOp, LogicalPlan, ScalarExpr, SharedPlan, Value};

/// `var ← expr`, as in [`crate::FirRoots::assigns`].
type Assign = (String, FirId);

/// The decomposed parts of a fold node.
struct FoldParts {
    func_items: Vec<FirId>,
    init_items: Vec<FirId>,
    source: FirId,
    loop_var: String,
    updated: Vec<String>,
}

impl FoldParts {
    /// This fold with another body and source: same accumulators, same
    /// initial values, same tuple variable.
    fn rebuilt(&self, arena: &mut FirArena, func_items: Vec<FirId>, source: FirId) -> FirNode {
        FirNode::Fold {
            func: arena.add(FirNode::Tuple(func_items)),
            init: arena.add(FirNode::Tuple(self.init_items.clone())),
            source,
            loop_var: self.loop_var.clone(),
            updated: self.updated.clone(),
        }
    }

    /// The fold's source when it is a query: `(plan, binds)`.
    fn source_query(&self, arena: &FirArena) -> Option<(SharedPlan, Vec<Assign>)> {
        match arena.node(self.source) {
            FirNode::Query { plan, binds } => Some((plan.clone(), binds.clone())),
            _ => None,
        }
    }
}

fn fold_parts(arena: &FirArena, fold: FirId) -> Option<FoldParts> {
    let FirNode::Fold {
        func,
        init,
        source,
        loop_var,
        updated,
    } = arena.node(fold).clone()
    else {
        return None;
    };
    let FirNode::Tuple(func_items) = arena.node(func).clone() else {
        return None;
    };
    let FirNode::Tuple(init_items) = arena.node(init).clone() else {
        return None;
    };
    Some(FoldParts {
        func_items,
        init_items,
        source,
        loop_var,
        updated,
    })
}

/// The one fold that every id in `projections` is a `project_i` of.
fn common_fold(arena: &FirArena, projections: impl Iterator<Item = FirId>) -> Option<FirId> {
    let mut fold = None;
    for id in projections {
        let FirNode::Project(f, _) = arena.node(id) else {
            return None;
        };
        match fold {
            None => fold = Some(*f),
            Some(existing) if existing == *f => {}
            _ => return None,
        }
    }
    fold
}

/// The outermost fold of an alternative whose assigns are all
/// `project_i(fold)` of one fold.
fn top_fold(arena: &FirArena, assigns: &[Assign]) -> Option<FirId> {
    common_fold(arena, assigns.iter().map(|(_, id)| *id))
}

/// All fold nodes reachable from an alternative's assignments.
pub(crate) fn reachable_folds(arena: &FirArena, assigns: &[Assign]) -> Vec<FirId> {
    let mut out = Vec::new();
    let (mut seen, mut order) = (Vec::new(), Vec::new());
    for (_, root) in assigns {
        arena.reachable_into(*root, &mut seen, &mut order);
        for &id in &order {
            if matches!(arena.node(id), FirNode::Fold { .. }) && !out.contains(&id) {
                out.push(id);
            }
        }
    }
    out
}

/// Flatten a `+`/`-` chain into its terms, each with its sign (`Sub`
/// negates its right arm). With `through_sub` off only `+` is a chain and
/// a `-` node is a term like any other.
fn signed_terms(
    arena: &FirArena,
    id: FirId,
    through_sub: bool,
    positive: bool,
    out: &mut Vec<(FirId, bool)>,
) {
    match arena.node(id) {
        FirNode::Bin(op @ (BinOp::Add | BinOp::Sub), l, r) if through_sub || *op == BinOp::Add => {
            signed_terms(arena, *l, through_sub, positive, out);
            signed_terms(arena, *r, through_sub, positive == (*op == BinOp::Add), out);
        }
        _ => out.push((id, positive)),
    }
}

// --------------------------------------------------------------------
// Scalar translation helpers (the F-IR ⇄ SQL bridge; subsumes rule T3).
// --------------------------------------------------------------------

/// Bind `value` as a query parameter under a name `binds` does not hold
/// yet — the source query may already bind `:p1` to something else.
fn fresh_param(binds: &mut Vec<Assign>, value: FirId) -> ScalarExpr {
    let name = (binds.len()..)
        .map(|i| format!("p{i}"))
        .find(|name| binds.iter().all(|(bound, _)| bound != name))
        .expect("an unbounded range of candidate names");
    binds.push((name.clone(), value));
    ScalarExpr::Param(name)
}

/// Translate an F-IR expression into a SQL scalar expression over the
/// tuple of fold `loop_var`. References to anything *outside* that tuple
/// (params, other folds' tuples) become fresh query parameters returned in
/// `binds`.
fn to_scalar(
    arena: &FirArena,
    id: FirId,
    loop_var: &str,
    binds: &mut Vec<Assign>,
) -> Option<ScalarExpr> {
    match arena.node(id) {
        FirNode::Const(v) => Some(ScalarExpr::Lit(v.clone())),
        FirNode::TupleAttr(v, c) if v == loop_var => Some(ScalarExpr::col(c)),
        // Correlated / outer value → query parameter.
        FirNode::TupleAttr(_, _) | FirNode::Param(_) => Some(fresh_param(binds, id)),
        // A field of a row available at region entry (the enclosing loop's
        // element, viewed from the inner region) is scalar to the query →
        // also a parameter (pattern A's correlated inner filter).
        FirNode::RowField(base, _) if matches!(arena.node(*base), FirNode::Param(_)) => {
            Some(fresh_param(binds, id))
        }
        FirNode::Bin(op, l, r) => {
            let ls = to_scalar(arena, *l, loop_var, binds)?;
            let rs = to_scalar(arena, *r, loop_var, binds)?;
            Some(ScalarExpr::bin(*op, ls, rs))
        }
        FirNode::Not(e) => {
            let es = to_scalar(arena, *e, loop_var, binds)?;
            Some(ScalarExpr::Not(Box::new(es)))
        }
        FirNode::Call(f, args) => {
            let translated = args
                .iter()
                .map(|a| to_scalar(arena, *a, loop_var, binds))
                .collect::<Option<Vec<_>>>()?;
            Some(ScalarExpr::Func(f.clone(), translated))
        }
        _ => None,
    }
}

/// Inverse of [`to_scalar`]: a SQL predicate over the source's columns
/// becomes an F-IR expression over the fold tuple; query parameters
/// resolve through `binds`.
fn from_scalar(
    arena: &mut FirArena,
    expr: &ScalarExpr,
    loop_var: &str,
    binds: &[Assign],
) -> Option<FirId> {
    match expr {
        ScalarExpr::Lit(v) => Some(arena.add(FirNode::Const(v.clone()))),
        ScalarExpr::Col(c) => {
            Some(arena.add(FirNode::TupleAttr(loop_var.to_string(), c.name.clone())))
        }
        ScalarExpr::Param(p) => binds.iter().find(|(n, _)| n == p).map(|(_, id)| *id),
        ScalarExpr::Bin(op, l, r) => {
            let lf = from_scalar(arena, l, loop_var, binds)?;
            let rf = from_scalar(arena, r, loop_var, binds)?;
            Some(arena.add(FirNode::Bin(*op, lf, rf)))
        }
        ScalarExpr::Not(e) => {
            let ef = from_scalar(arena, e, loop_var, binds)?;
            Some(arena.add(FirNode::Not(ef)))
        }
        ScalarExpr::Func(f, args) => {
            let translated = args
                .iter()
                .map(|a| from_scalar(arena, a, loop_var, binds))
                .collect::<Option<Vec<_>>>()?;
            Some(arena.add(FirNode::Call(f.clone(), translated)))
        }
    }
}

/// Match a single-row/filtered lookup query: `σ_{A = key}(R)` where `key`
/// is a parameter bound to an F-IR value or, in a query without binds, a
/// constant. Returns `(table, key_column, key node)`; the key comes back
/// as a node because a constant one may not be interned yet.
fn match_lookup_query(arena: &FirArena, id: FirId) -> Option<(String, String, FirNode)> {
    let FirNode::Query { plan, binds } = arena.node(id) else {
        return None;
    };
    let LogicalPlan::Select { input, pred } = plan.as_plan() else {
        return None;
    };
    let LogicalPlan::Scan { table, .. } = &**input else {
        return None;
    };
    let ScalarExpr::Bin(BinOp::Eq, l, r) = pred else {
        return None;
    };
    let (col, key_expr) = match (&**l, &**r) {
        (ScalarExpr::Col(c), other) => (c, other),
        (other, ScalarExpr::Col(c)) => (c, other),
        _ => return None,
    };
    let key = match key_expr {
        ScalarExpr::Param(p) => {
            let (_, key_id) = binds.iter().find(|(n, _)| n == p)?;
            arena.node(*key_id).clone()
        }
        ScalarExpr::Lit(v) if binds.is_empty() => FirNode::Const(v.clone()),
        _ => return None,
    };
    Some((table.clone(), col.name.clone(), key))
}

// --------------------------------------------------------------------
// Rule T5 — aggregation extraction.
// --------------------------------------------------------------------

/// Classify `item` as an aggregation update of accumulator `acc` —
/// `<acc> + e` (sum), `<acc> + 1` (count) — and name the aggregate
/// `agg_<acc>`.
fn classify_agg(arena: &FirArena, item: FirId, acc: &str, loop_var: &str) -> Option<AggItem> {
    let agg = |func, arg| AggItem {
        func,
        arg,
        name: format!("agg_{acc}"),
    };
    // Flatten an Add chain and find <acc> exactly once.
    let acc_node = FirNode::AccParam(acc.to_string());
    let mut terms = Vec::new();
    signed_terms(arena, item, false, true, &mut terms);
    let rest: Vec<FirId> = terms
        .iter()
        .map(|&(t, _)| t)
        .filter(|&t| arena.node(t) != &acc_node)
        .collect();
    if rest.len() + 1 != terms.len() || rest.is_empty() {
        return None;
    }
    // count: the remaining term is the constant 1.
    if let [one] = rest[..] {
        if let FirNode::Const(Value::Int(1)) = arena.node(one) {
            return Some(agg(AggFunc::Count, None));
        }
    }
    // sum: all remaining terms translate to scalar expressions over the
    // fold tuple with no correlation.
    let mut binds = Vec::new();
    let summands: Option<Vec<ScalarExpr>> = rest
        .iter()
        .map(|&t| to_scalar(arena, t, loop_var, &mut binds))
        .collect();
    if !binds.is_empty() {
        return None; // correlated aggregation argument: keep in the loop
    }
    let sum = |l, r| ScalarExpr::bin(BinOp::Add, l, r);
    Some(agg(AggFunc::Sum, summands?.into_iter().reduce(sum)))
}

/// Strip a top-level ORDER BY (irrelevant under aggregation) and a
/// rename-free projection (the aggregate arguments reference base columns
/// by the same names).
fn strip_order(plan: &LogicalPlan) -> LogicalPlan {
    let p = match plan {
        LogicalPlan::OrderBy { input, .. } => (**input).clone(),
        other => other.clone(),
    };
    if let LogicalPlan::Project { input, items } = &p {
        let trivial = items
            .iter()
            .all(|(e, name)| matches!(e, ScalarExpr::Col(c) if &c.name == name));
        if trivial {
            return (**input).clone();
        }
    }
    p
}

/// Is this node the literal zero (int or float)?
fn is_zero_const(arena: &FirArena, id: FirId) -> bool {
    match arena.node(id) {
        FirNode::Const(Value::Int(0)) => true,
        FirNode::Const(Value::Float(f)) => *f == 0.0,
        _ => false,
    }
}

/// Guard an extracted aggregate against SQL's empty-input semantics:
/// `sum` (and friends) over zero rows is NULL while the fold keeps its
/// initial value, so wrap in `coalesce(agg, 0)`. `count` is already 0 on
/// empty input and needs no guard.
fn guard_empty_agg(arena: &mut FirArena, agg: FirId, func: AggFunc) -> FirId {
    if matches!(func, AggFunc::Count) {
        return agg;
    }
    let zero = arena.add(FirNode::Const(Value::Int(0)));
    arena.add(FirNode::Call("coalesce".to_string(), vec![agg, zero]))
}

/// `init + agg`, simplified to `agg` when the initial value is the
/// literal zero. A fold's value is *init plus* the aggregated delta; the
/// differential oracle caught the earlier shape that dropped `init`
/// whenever the accumulator entered the region non-zero.
fn add_init(arena: &mut FirArena, init: FirId, agg: FirId) -> FirId {
    if is_zero_const(arena, init) {
        agg
    } else {
        arena.add(FirNode::Bin(BinOp::Add, init, agg))
    }
}

/// Rule T5: extract aggregations into SQL.
///
/// * If **every** accumulator is a scalar aggregation, the whole loop
///   becomes one aggregate query (Figure 10's node 2 generalized).
/// * Otherwise each extractable accumulator yields a *partial* alternative:
///   the loop is kept intact and an extra aggregate query recomputes the
///   accumulator — the paper's §V-B example of a rewrite that usually
///   degrades performance and must be judged by the cost model.
///
/// Extracted values are always `entry + coalesce(agg, 0)` (simplified
/// when the entry value is literally zero): the fold starts from the
/// accumulator's region-entry value and yields it unchanged on an empty
/// source, and the SQL query must reproduce both behaviors.
pub(crate) fn t5_aggregation(
    arena: &mut FirArena,
    assigns: &[Assign],
    site: Option<FirId>,
) -> Option<Vec<Derivation>> {
    if site.is_some() {
        return None;
    }
    let parts = fold_parts(arena, top_fold(arena, assigns)?)?;
    let (plan, binds) = parts.source_query(arena)?;
    if !binds.is_empty() {
        return None; // correlated source: aggregation not uncorrelated
    }
    let classes: Vec<Option<AggItem>> = parts
        .updated
        .iter()
        .zip(&parts.func_items)
        .map(|(u, &item)| classify_agg(arena, item, u, &parts.loop_var))
        .collect();
    let aggregate = |aggs: Vec<AggItem>| -> SharedPlan {
        strip_order(&plan).aggregate(Vec::new(), aggs).into()
    };

    let all: Option<Vec<AggItem>> = classes.iter().cloned().collect();
    if let Some(aggs) = all.filter(|aggs| !aggs.is_empty()) {
        // Full extraction: one aggregate query computing every accumulator.
        let scalar = aggs.len() == 1;
        let (plan, binds) = (aggregate(aggs.clone()), Vec::new());
        let q = arena.add(if scalar {
            FirNode::ScalarQuery { plan, binds }
        } else {
            FirNode::Query { plan, binds }
        });
        let values = parts.updated.iter().zip(&aggs).zip(&parts.init_items);
        let assigns = values
            .map(|((u, agg), &init)| {
                let value = if scalar {
                    q
                } else {
                    arena.add(FirNode::RowField(q, agg.name.clone()))
                };
                let guarded = guard_empty_agg(arena, value, agg.func);
                (u.clone(), add_init(arena, init, guarded))
            })
            .collect();
        return Some(vec![Derivation::new("T5", Change::Assigns(assigns))]);
    }
    // Partial extraction (per extractable accumulator): keep the loop,
    // add an aggregate query that recomputes the accumulator after it.
    let mut out = Vec::new();
    for ((u, class), &init) in parts.updated.iter().zip(classes).zip(&parts.init_items) {
        let Some(agg) = class else { continue };
        let func = agg.func;
        let sq = arena.add(FirNode::ScalarQuery {
            plan: aggregate(vec![agg]),
            binds: Vec::new(),
        });
        let guarded = guard_empty_agg(arena, sq, func);
        let mut assigns = assigns.to_vec();
        let value = if is_zero_const(arena, init) {
            guarded
        } else {
            // The kept loop mutates `u`, so its region-entry value
            // must be captured *before* the loop runs.
            let entry_var = format!("{u}__at_entry");
            let entry_param = arena.add(FirNode::Param(entry_var.clone()));
            assigns.insert(0, (entry_var, init));
            arena.add(FirNode::Bin(BinOp::Add, entry_param, guarded))
        };
        assigns.push((u.clone(), value));
        out.push(Derivation::new("T5-partial", Change::Assigns(assigns)));
    }
    Some(out)
}

// --------------------------------------------------------------------
// Rule T2 — predicate push into the query.
// --------------------------------------------------------------------

/// Rule T2 applied to one fold node: if every accumulator update is
/// `?(p, g, <acc>)` with the same `p`, push `p` into the source query.
pub(crate) fn t2_predicate_push(
    arena: &mut FirArena,
    _: &[Assign],
    site: Option<FirId>,
) -> Option<Vec<Derivation>> {
    let fold = site?;
    let parts = fold_parts(arena, fold)?;
    let (plan, mut binds) = parts.source_query(arena)?;
    let mut common_pred: Option<FirId> = None;
    let mut inner_items = Vec::with_capacity(parts.func_items.len());
    for (u, &item) in parts.updated.iter().zip(&parts.func_items) {
        let FirNode::Cond {
            pred,
            then_val,
            else_val,
        } = arena.node(item).clone()
        else {
            return None;
        };
        if arena.node(else_val) != &FirNode::AccParam(u.clone()) {
            return None;
        }
        match common_pred {
            None => common_pred = Some(pred),
            Some(p) if p == pred => {}
            _ => return None,
        }
        inner_items.push(then_val);
    }
    let scalar = to_scalar(arena, common_pred?, &parts.loop_var, &mut binds)?;
    let source = arena.add(FirNode::Query {
        plan: plan.unshare().select(scalar).into(),
        binds,
    });
    let node = parts.rebuilt(arena, inner_items, source);
    Some(vec![Derivation::replace("T2", fold, node)])
}

// --------------------------------------------------------------------
// Rule N2 — selection pull-out (reverse of T2).
// --------------------------------------------------------------------

pub(crate) fn n2_selection_pull(
    arena: &mut FirArena,
    _: &[Assign],
    site: Option<FirId>,
) -> Option<Vec<Derivation>> {
    let fold = site?;
    let parts = fold_parts(arena, fold)?;
    let (plan, mut binds) = parts.source_query(arena)?;
    let LogicalPlan::Select { input, pred } = plan.unshare() else {
        return None;
    };
    let fir_pred = from_scalar(arena, &pred, &parts.loop_var, &binds)?;
    // Drop the binds only the pulled predicate consumed: one the rest of
    // the plan still names stays bound.
    let mut pulled = Vec::new();
    pred.collect_params(&mut pulled);
    let kept = input.params();
    binds.retain(|(n, _)| !pulled.contains(n) || kept.contains(n));
    let source = arena.add(FirNode::Query {
        plan: (*input).into(),
        binds,
    });
    let new_items: Vec<FirId> = parts
        .updated
        .iter()
        .zip(&parts.func_items)
        .map(|(u, &item)| {
            let acc = arena.add(FirNode::AccParam(u.clone()));
            arena.add(FirNode::Cond {
                pred: fir_pred,
                then_val: item,
                else_val: acc,
            })
        })
        .collect();
    let node = parts.rebuilt(arena, new_items, source);
    Some(vec![Derivation::replace("N2", fold, node)])
}

// --------------------------------------------------------------------
// T4 / T5-variant — lookups and nested loops become joins.
// --------------------------------------------------------------------

/// Is this accumulator update insensitive to iteration *order*?
///
/// A join does not guarantee the nested loops' pair order (the executor
/// may probe from either side), so the join rewrites are only valid for
/// updates whose final value is the same under any permutation of the
/// source rows:
///
/// * `<acc> ± δ(row)` chains — the accumulator appears exactly once,
///   positively, and the deltas read no accumulator state;
/// * `insert(<acc>, e)` — collections compare as bags across rewrites
///   (the paper's join rewrites reorder them already, e.g. P0 → P1);
/// * `mapput(<acc>, k, v)` with accumulator-free `k`/`v` — distinct keys
///   commute, and a key collision overwrites with a row-determined value
///   either way;
/// * `?(p, then, else)` with an accumulator-free predicate and
///   order-insensitive branches.
///
/// Anything else (e.g. `<acc> + <acc>`, predicates over the running
/// value, dependent aggregations reading another accumulator mid-stream)
/// is order-sensitive: the differential oracle caught a join rewrite of
/// `total = total + total - 86·t.fk`, where the executor's
/// build-on-the-smaller-side hash join enumerated pairs in a different
/// order and changed the result.
fn order_insensitive_update(arena: &FirArena, item: FirId, acc: &str) -> bool {
    let reads_any_acc = |id: FirId| arena.any(id, &|n| matches!(n, FirNode::AccParam(_)));
    match arena.node(item) {
        FirNode::AccParam(v) => v == acc,
        FirNode::Bin(BinOp::Add | BinOp::Sub, _, _) => {
            let acc_node = FirNode::AccParam(acc.to_string());
            let mut terms = Vec::new();
            signed_terms(arena, item, true, true, &mut terms);
            let (accs, deltas): (Vec<_>, Vec<_>) = terms
                .into_iter()
                .partition(|(t, _)| arena.node(*t) == &acc_node);
            matches!(accs[..], [(_, true)]) && deltas.iter().all(|&(t, _)| !reads_any_acc(t))
        }
        FirNode::Insert(base, elem) => {
            !reads_any_acc(*elem) && order_insensitive_update(arena, *base, acc)
        }
        FirNode::MapPut(base, k, v) => {
            !reads_any_acc(*k) && !reads_any_acc(*v) && order_insensitive_update(arena, *base, acc)
        }
        FirNode::Cond {
            pred,
            then_val,
            else_val,
        } => {
            !reads_any_acc(*pred)
                && order_insensitive_update(arena, *then_val, acc)
                && order_insensitive_update(arena, *else_val, acc)
        }
        _ => false,
    }
}

/// [`order_insensitive_update`] over every accumulator of a fold.
fn join_safe(arena: &FirArena, updated: &[String], items: &[FirId]) -> bool {
    updated
        .iter()
        .zip(items)
        .all(|(u, &item)| order_insensitive_update(arena, item, u))
}

/// The source `outer ⋈_{fk = key} table` of a fold over `outer` whose
/// body looked `table` up by `key_col = <loop_var>.fk` (`key`). The joined
/// tuple carries both sides' columns under one variable, so a table may
/// not meet itself: every column name would be ambiguous.
fn join_source(
    arena: &mut FirArena,
    outer: &FoldParts,
    (table, key_col, key): (String, String, FirNode),
) -> Option<FirId> {
    let FirNode::TupleAttr(v, fk_col) = key else {
        return None;
    };
    let (plan, binds) = outer.source_query(arena)?;
    if v != outer.loop_var || plan.base_tables().contains(&table.as_str()) {
        return None;
    }
    let join_plan = plan.unshare().join(
        LogicalPlan::scan(&table),
        ScalarExpr::eq(ScalarExpr::col(&fk_col), ScalarExpr::col(&key_col)),
    );
    Some(arena.add(FirNode::Query {
        plan: join_plan.into(),
        binds,
    }))
}

/// Rewrite an iterative single-row lookup inside the fold into a join with
/// the source (the paper's "variation of rule T5" that turns P0 into P1).
fn lookup_to_join(arena: &mut FirArena, fold: FirId) -> Option<Derivation> {
    let parts = fold_parts(arena, fold)?;
    // The join may enumerate rows in a different order than the loop.
    if !join_safe(arena, &parts.updated, &parts.func_items) {
        return None;
    }
    // Find a lookup query reachable from the fold function whose key is an
    // attribute of *this* fold's tuple.
    let func_node = arena.add(FirNode::Tuple(parts.func_items.clone()));
    let (lookup, matched) = arena.reachable(func_node).into_iter().find_map(|id| {
        let matched = match_lookup_query(arena, id)?;
        matches!(&matched.2, FirNode::TupleAttr(v, _) if *v == parts.loop_var)
            .then_some((id, matched))
    })?;
    let source = join_source(arena, &parts, matched)?;

    // Rewrite items: fields of the lookup become attributes of the joined
    // tuple.
    let new_items: Vec<FirId> = parts
        .func_items
        .iter()
        .map(|&item| {
            arena.rewrite(item, &|_, node| match node {
                FirNode::RowField(base, col) if *base == lookup => {
                    Some(FirNode::TupleAttr(parts.loop_var.clone(), col.clone()))
                }
                _ => None,
            })
        })
        .collect();
    // The lookup must be fully consumed by field accesses.
    if new_items.iter().any(|&item| arena.reaches(item, lookup)) {
        return None;
    }
    let node = parts.rebuilt(arena, new_items, source);
    Some(Derivation::replace("T4/T5var(lookup-to-join)", fold, node))
}

/// Rule T4 proper: a nested fold over a correlated selection becomes a
/// single fold over a join (nested-loops join identification, pattern C).
fn nested_fold_to_join(arena: &mut FirArena, fold: FirId) -> Option<Derivation> {
    let outer = fold_parts(arena, fold)?;
    // Every outer item must be project_j(inner_fold) of one inner fold.
    let inner_fold = common_fold(arena, outer.func_items.iter().copied())?;
    let inner = fold_parts(arena, inner_fold)?;
    // Inner source: σ_{A = outer.B}(R).
    let matched = match_lookup_query(arena, inner.source)?;
    // Inner init must be the plain accumulators (no accumulation between
    // the loop header and the inner loop).
    for (u, &init) in inner.updated.iter().zip(&inner.init_items) {
        if arena.node(init) != &FirNode::AccParam(u.clone()) {
            return None;
        }
    }
    // Inner updated must cover outer updated (same variables).
    if inner.updated != outer.updated {
        return None;
    }
    // The join may enumerate pairs in a different order than the nested
    // loops (the executor builds the hash table on the smaller side).
    if !join_safe(arena, &inner.updated, &inner.func_items) {
        return None;
    }
    let source = join_source(arena, &outer, matched)?;
    // Rename the inner tuple variable to the outer one: the join tuple
    // carries both sides' columns.
    let (outer_var, inner_var) = (&outer.loop_var, &inner.loop_var);
    let new_items: Vec<FirId> = inner
        .func_items
        .iter()
        .map(|&item| {
            arena.rewrite(item, &|_, node| match node {
                FirNode::TupleAttr(v, c) if v == inner_var => {
                    Some(FirNode::TupleAttr(outer_var.clone(), c.clone()))
                }
                FirNode::TupleVar(v) if v == inner_var => {
                    Some(FirNode::TupleVar(outer_var.clone()))
                }
                _ => None,
            })
        })
        .collect();
    let node = outer.rebuilt(arena, new_items, source);
    Some(Derivation::replace("T4", fold, node))
}

/// Rule T4 at one fold: the lookup-to-join variant, then the nested-fold
/// one.
pub(crate) fn t4_joins(
    arena: &mut FirArena,
    _: &[Assign],
    site: Option<FirId>,
) -> Option<Vec<Derivation>> {
    let fold = site?;
    let derived = [
        lookup_to_join(arena, fold),
        nested_fold_to_join(arena, fold),
    ];
    Some(derived.into_iter().flatten().collect())
}

// --------------------------------------------------------------------
// Rule N1 — prefetching.
// --------------------------------------------------------------------

/// Rule N1: replace every eq-keyed lookup query (correlated or constant)
/// with a client-cache lookup, adding the prefetch obligations.
pub(crate) fn n1_prefetch(
    arena: &mut FirArena,
    assigns: &[Assign],
    site: Option<FirId>,
) -> Option<Vec<Derivation>> {
    if site.is_some() {
        return None;
    }
    let mut replaced: Vec<(FirId, FirNode)> = Vec::new();
    let mut prefetches = Vec::new();
    let (mut seen, mut order) = (Vec::new(), Vec::new());
    for (_, root) in assigns {
        arena.reachable_into(*root, &mut seen, &mut order);
        for &id in &order {
            if replaced.iter().any(|(l, _)| *l == id) {
                continue;
            }
            // Whole-table fold sources are not N1 targets — only eq-keyed
            // filtered lookups are.
            if let Some((table, key_col, key)) = match_lookup_query(arena, id) {
                let lookup = FirNode::CacheLookup {
                    table: table.clone(),
                    key_col: key_col.clone(),
                    key: arena.add(key),
                };
                replaced.push((id, lookup));
                prefetches.push(Prefetch { table, key_col });
            }
        }
    }
    if replaced.is_empty() {
        return None;
    }
    Some(vec![Derivation {
        prefetches,
        ..Derivation::new("N1", Change::Nodes(replaced))
    }])
}

// --------------------------------------------------------------------
// Rule T1 — fold removal.
// --------------------------------------------------------------------

/// Rule T1: `fold(insert, {}, Q) = Q`. Valid only when the accumulator is
/// empty at region entry — recorded in `requires_empty_init` and gated by
/// the optimizer against the surrounding region.
pub(crate) fn t1_fold_removal(
    arena: &mut FirArena,
    assigns: &[Assign],
    site: Option<FirId>,
) -> Option<Vec<Derivation>> {
    if site.is_some() {
        return None;
    }
    let parts = fold_parts(arena, top_fold(arena, assigns)?)?;
    let ([acc], [item], [_]) = (&parts.updated[..], &parts.func_items[..], assigns) else {
        return None;
    };
    let FirNode::Insert(base, elem) = arena.node(*item) else {
        return None;
    };
    if arena.node(*base) != &FirNode::AccParam(acc.clone())
        || arena.node(*elem) != &FirNode::TupleVar(parts.loop_var.clone())
        || !matches!(arena.node(parts.source), FirNode::Query { .. })
    {
        return None;
    }
    Some(vec![Derivation {
        requires_empty_init: Some(acc.clone()),
        ..Derivation::new("T1", Change::Assigns(vec![(acc.clone(), parts.source)]))
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{loop_to_fold, FirAlternative};
    use crate::ruleset::{expand_with, RuleSet};
    use imperative::ast::{Expr, QuerySpec, Stmt, StmtKind};
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

    fn p0_alternative() -> FirAlternative {
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
        loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["result".to_string()]),
        )
        .unwrap()
    }

    #[test]
    fn lookup_to_join_produces_p1_shape() {
        let alts = expand_with(p0_alternative(), &RuleSet::standard(), 32).alternatives;
        let join = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T4/T5var(lookup-to-join)"))
            .expect("join alternative");
        let text = join.display();
        assert!(
            text.contains("join customer on o_customer_sk = c_customer_sk"),
            "{text}"
        );
        assert!(text.contains("myFunc(o.o_id, o.c_birth_year)"), "{text}");
        assert!(join.roots.prefetches.is_empty());
    }

    #[test]
    fn n1_produces_p2_shape() {
        let alts = expand_with(p0_alternative(), &RuleSet::standard(), 32).alternatives;
        let pf = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"N1"))
            .expect("prefetch alternative");
        let text = pf.display();
        assert!(text.contains("prefetch(customer,c_customer_sk)"), "{text}");
        assert!(
            text.contains("lookup(customer.c_customer_sk = o.o_customer_sk)"),
            "{text}"
        );
    }

    #[test]
    fn expansion_includes_original() {
        let base = p0_alternative();
        let base_key = base.key();
        let alts = expand_with(base, &RuleSet::standard(), 32).alternatives;
        assert!(alts.iter().any(|a| a.key() == base_key));
        assert!(
            alts.len() >= 3,
            "P0, P1-like, P2-like at minimum: {}",
            alts.len()
        );
    }

    #[test]
    fn t5_full_extraction_single_aggregate() {
        // for (t : sales) { sum = sum + t.sale_amt }
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
            &Expr::Query(QuerySpec::sql(
                "select month, sale_amt from sales order by month",
            )),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let alts = expand_with(base, &RuleSet::standard(), 32).alternatives;
        let agg = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T5"))
            .expect("aggregate alternative");
        let text = agg.display();
        assert!(
            text.contains("scalarQ[select sum(sale_amt) as agg_sum from sales]"),
            "order-by stripped, fold gone: {text}"
        );
    }

    #[test]
    fn t5_partial_keeps_loop_and_adds_query() {
        // Figure 7: dependent aggregations — partial extraction keeps the
        // loop and appends the aggregate query (the degraded §V-B rewrite).
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
        let alts = expand_with(base, &RuleSet::standard(), 32).alternatives;
        let partial = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T5-partial"))
            .expect("partial alternative");
        assert_eq!(
            partial.roots.assigns.len(),
            4,
            "entry capture + sum, cSum from loop + sum override"
        );
        assert_eq!(
            partial.roots.assigns[0].0, "sum__at_entry",
            "the kept loop mutates `sum`, so its entry value is captured first"
        );
        let text = partial.display();
        assert!(text.contains("fold("), "loop kept: {text}");
        assert!(text.contains("scalarQ[select sum(sale_amt)"), "{text}");
        assert!(
            text.contains("sum__at_entry + coalesce("),
            "override preserves the entry value and guards empty input: {text}"
        );
    }

    #[test]
    fn join_rewrites_refuse_order_sensitive_accumulations() {
        // `total = total + total - t.o_amount` doubles the running value
        // each iteration: a join's pair order is not the nested-loop
        // order, so no join alternative may be derived for this fold.
        let body = vec![
            Stmt::new(StmtKind::Let(
                "cust".into(),
                Expr::nav(Expr::var("o"), "customer"),
            )),
            Stmt::new(StmtKind::Let(
                "total".into(),
                Expr::bin(
                    BinOp::Sub,
                    Expr::bin(BinOp::Add, Expr::var("total"), Expr::var("total")),
                    Expr::field(Expr::var("cust"), "c_birth_year"),
                ),
            )),
        ];
        let base = loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["total".to_string()]),
        )
        .unwrap();
        let alts = expand_with(base, &RuleSet::standard(), 64).alternatives;
        assert!(
            alts.iter().all(|a| !a
                .roots
                .rules_applied
                .iter()
                .any(|r| r.contains("T4") || r.contains("join"))),
            "order-sensitive accumulation must not be join-rewritten: {:?}",
            alts.iter()
                .map(|a| &a.roots.rules_applied)
                .collect::<Vec<_>>()
        );
        // The additive form stays join-rewritable.
        let additive = vec![
            Stmt::new(StmtKind::Let(
                "cust".into(),
                Expr::nav(Expr::var("o"), "customer"),
            )),
            Stmt::new(StmtKind::Let(
                "total".into(),
                Expr::bin(
                    BinOp::Sub,
                    Expr::var("total"),
                    Expr::field(Expr::var("cust"), "c_birth_year"),
                ),
            )),
        ];
        let base = loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &additive,
            &mappings(),
            Some(&["total".to_string()]),
        )
        .unwrap();
        let alts = expand_with(base, &RuleSet::standard(), 64).alternatives;
        assert!(
            alts.iter()
                .any(|a| a.roots.rules_applied.iter().any(|r| r.contains("join"))),
            "additive accumulation keeps its join alternatives"
        );
    }

    #[test]
    fn t2_pushes_conditional_into_query() {
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
        let alts = expand_with(base, &RuleSet::standard(), 32).alternatives;
        let pushed = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T2"))
            .expect("T2 alternative");
        let text = pushed.display();
        assert!(
            text.contains("Q[select * from orders where o_amount > 10]"),
            "{text}"
        );
        assert!(!text.contains("?("), "conditional gone: {text}");
    }

    #[test]
    fn t2_then_t1_turns_filtered_materialization_into_query() {
        // for (t : orders) { if (t.amount > 10) r.add(t) } — T2 + T1 give
        // r = σ(orders), requiring empty init.
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
        let alts = expand_with(base, &RuleSet::standard(), 32).alternatives;
        let t1 = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T1"))
            .expect("T1 alternative");
        assert_eq!(t1.roots.requires_empty_init.as_deref(), Some("r"));
        let text = t1.display();
        assert!(
            text.contains("r=Q[select * from orders where o_amount > 10]"),
            "{text}"
        );
    }

    #[test]
    fn n2_pulls_selection_out_enabling_prefetch() {
        // for (t : σ_{st='open'}(orders)) { r.add(t.o_id) } — N2 pulls the
        // filter to the client; N1 can then prefetch the whole relation.
        let body = vec![Stmt::new(StmtKind::Add(
            "r".into(),
            Expr::field(Expr::var("t"), "o_id"),
        ))];
        let base = loop_to_fold(
            "t",
            &Expr::Query(QuerySpec::sql(
                "select * from orders where o_status = 'open'",
            )),
            &body,
            &mappings(),
            None,
        )
        .unwrap();
        let alts = expand_with(base, &RuleSet::standard(), 64).alternatives;
        let pulled = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"N2"))
            .expect("N2 alternative");
        let text = pulled.display();
        assert!(text.contains("?((t.o_status = \"open\")"), "{text}");
        assert!(text.contains("Q[select * from orders]"), "{text}");
        // And some alternative prefetches the orders table by status.
        let prefetched = alts.iter().find(|a| {
            a.roots
                .prefetches
                .iter()
                .any(|p| p.table == "orders" && p.key_col == "o_status")
        });
        assert!(prefetched.is_some(), "N1 after lookup-shaped source");
    }

    #[test]
    fn t4_nested_loop_join_identification() {
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
        let base = loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["result".to_string()]),
        )
        .unwrap();
        let alts = expand_with(base, &RuleSet::standard(), 64).alternatives;
        let joined = alts
            .iter()
            .find(|a| a.roots.rules_applied.contains(&"T4"))
            .expect("T4 alternative");
        let text = joined.display();
        assert!(
            text.contains("join customer on o_customer_sk = c_customer_sk"),
            "{text}"
        );
        assert!(text.contains("insert(<result>, o.c_birth_year)"), "{text}");
        assert_eq!(text.matches("fold(").count(), 1, "single fold only: {text}");
    }

    #[test]
    fn expansion_terminates_under_cyclic_t2_n2() {
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
        let alts = expand_with(base, &RuleSet::standard(), 1000).alternatives;
        assert!(alts.len() < 100, "dedup bounds the closure: {}", alts.len());
        // T2 and N2 both fired somewhere in the closure.
        assert!(alts.iter().any(|a| a.roots.rules_applied.contains(&"T2")));
        // N2 applied to the T2 result reproduces the base alternative and
        // is deduplicated away — exactly how cyclic rules terminate.
        let keys: Vec<String> = alts.iter().map(|a| a.key()).collect();
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "no duplicate alternatives");
    }
}
