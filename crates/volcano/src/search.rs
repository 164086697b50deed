//! Least-cost plan extraction over the AND-OR DAG.

use crate::memo::{Child, Fnv, GroupId, MExprId, Memo, OpTree};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// Cost model for AND nodes: given an m-expr and the best costs of its
/// child groups, return the total cost of the expression (§III-A: "Cost of
/// operator + Sum of costs of children" — the model owns the combination
/// so richer formulas like `C_cond = p·C_t + (1−p)·C_f + C_p` fit too).
pub trait CostModel<Op: Clone + Eq + Hash + Debug> {
    /// Total cost of `expr` given `child_costs` (aligned with children).
    fn cost(&self, memo: &Memo<Op>, expr: MExprId, child_costs: &[f64]) -> f64;
}

/// An extracted plan: the winning tree and its estimated cost.
#[derive(Debug, Clone)]
pub struct BestPlan<Op> {
    /// Estimated cost of the plan.
    pub cost: f64,
    /// The chosen operator tree.
    pub tree: OpTree<Op>,
    /// The chosen m-expr per visited group (for introspection).
    pub choices: Vec<(GroupId, MExprId)>,
}

/// The value-iterated cost table: best known cost per group (indexed by
/// group id; read through [`Memo::find`] for canonical ids), plus whether
/// iteration reached its fixpoint within the sweep budget.
#[derive(Debug, Clone)]
pub struct CostTable {
    /// Best cost per group (`f64::INFINITY` when no finite plan is known).
    pub group_costs: Vec<f64>,
    /// False when a sweep budget stopped iteration before the fixpoint —
    /// remaining `INFINITY`/non-optimal entries may be artifacts of the
    /// budget rather than true costs.
    pub converged: bool,
}

/// Run cost value iteration over the whole memo: groups start at `+inf`
/// and relax until a fixpoint (or until `max_sweeps`, when given — the
/// search-effort budget). Convergence: costs are non-negative and only
/// decrease; the optimal (acyclic) plan is found within `#groups` sweeps.
///
/// Internally this is **worklist-driven**: a reverse-dependency index
/// (child group → parent m-exprs) is built once, and each sweep evaluates
/// only the expressions whose child costs changed since their previous
/// evaluation. Because re-evaluating an expression with unchanged child
/// costs can never lower its group's (monotonically decreasing) cost, the
/// worklist run produces the *same sequence of cost updates* as the full
/// Gauss-Seidel sweep of [`cost_table_sweeps`] — `group_costs` and
/// `converged` are bit-for-bit identical under any `max_sweeps` budget;
/// only the number of cost-model consultations shrinks.
pub fn cost_table<Op: Clone + Eq + Hash + Debug>(
    memo: &Memo<Op>,
    model: &dyn CostModel<Op>,
    max_sweeps: Option<usize>,
) -> CostTable {
    let n = memo.num_groups();
    let n_exprs = memo.num_exprs();
    let mut cost = vec![f64::INFINITY; n];
    // Improvements only propagate along acyclic paths (a self-referential
    // expression can never lower its own group), so the fixpoint is
    // reached within `n` improving sweeps — one more quiet sweep confirms
    // it. Only an explicit `max_sweeps` budget may stop earlier.
    let sweeps = max_sweeps.unwrap_or_else(|| n.saturating_add(1)).max(1);

    // Canonicalize the DAG once: per-expr home group and child groups
    // (flattened; `memo.find` is stable while the memo is borrowed).
    let mut expr_group = Vec::with_capacity(n_exprs);
    let mut flat_children: Vec<GroupId> = Vec::new();
    let mut child_offsets = Vec::with_capacity(n_exprs + 1);
    child_offsets.push(0usize);
    for eid in memo.expr_ids() {
        let e = memo.expr(eid);
        expr_group.push(memo.find(e.group));
        flat_children.extend(e.children.iter().map(|&c| memo.find(c)));
        child_offsets.push(flat_children.len());
    }
    // Reverse-dependency index: group → expressions with it as a child
    // (deduplicated; an expr using a group twice is still one parent).
    let mut parents: Vec<Vec<MExprId>> = vec![Vec::new(); n];
    for eid in 0..n_exprs {
        let kids = &flat_children[child_offsets[eid]..child_offsets[eid + 1]];
        for (i, &g) in kids.iter().enumerate() {
            if !kids[..i].contains(&g) {
                parents[g].push(eid);
            }
        }
    }

    // The first sweep evaluates everything (all costs just became known);
    // later sweeps evaluate only scheduled expressions, in ascending id
    // order to reproduce the reference sweep's in-place update sequence.
    let mut current: Vec<MExprId> = (0..n_exprs).collect();
    let mut next: Vec<MExprId> = Vec::new();
    // Bitsets: `in_current[e]` — e sits in the *unprocessed tail* of this
    // sweep; `in_next[e]` — e is already scheduled for the next sweep.
    let mut in_current = vec![true; n_exprs];
    let mut in_next = vec![false; n_exprs];
    let mut scratch: Vec<f64> = Vec::new();
    let mut converged = false;
    for _ in 0..sweeps {
        if current.is_empty() {
            // The reference sweep would scan every expr and change
            // nothing: the fixpoint is confirmed within budget.
            converged = true;
            break;
        }
        let mut changed = false;
        // Ascending order; an in-sweep improvement may insert parents with
        // larger ids, which must run in this same sweep (Gauss-Seidel).
        let mut i = 0;
        while i < current.len() {
            let eid = current[i];
            i += 1;
            in_current[eid] = false;
            let kids = &flat_children[child_offsets[eid]..child_offsets[eid + 1]];
            scratch.clear();
            scratch.extend(kids.iter().map(|&c| cost[c]));
            if scratch.iter().any(|c| !c.is_finite()) {
                continue;
            }
            let total = model.cost(memo, eid, &scratch);
            let group = expr_group[eid];
            if total < cost[group] {
                cost[group] = total;
                changed = true;
                for &p in &parents[group] {
                    if p > eid {
                        // Later in this sweep: the reference sweep sees
                        // the new cost when it reaches `p`. The tail of
                        // `current` stays sorted, so insert in order.
                        if !in_current[p] {
                            in_current[p] = true;
                            let pos = current[i..]
                                .iter()
                                .position(|&q| q > p)
                                .map(|k| i + k)
                                .unwrap_or(current.len());
                            current.insert(pos, p);
                        }
                    } else if !in_next[p] {
                        in_next[p] = true;
                        next.push(p);
                    }
                }
            }
        }
        if !changed {
            converged = true;
            break;
        }
        current.clear();
        std::mem::swap(&mut current, &mut next);
        current.sort_unstable();
        for &e in &current {
            in_next[e] = false;
            in_current[e] = true;
        }
    }
    CostTable {
        group_costs: cost,
        converged,
    }
}

/// The straightforward O(sweeps × exprs) Gauss-Seidel sweep — the
/// reference [`cost_table`] is tested against: the worklist must
/// reproduce its `group_costs` and `converged` bit-for-bit (asserted here
/// and by the equivalence suite), it just consults the cost model far
/// less. Not a search entry point.
#[doc(hidden)]
pub fn cost_table_sweeps<Op: Clone + Eq + Hash + Debug>(
    memo: &Memo<Op>,
    model: &dyn CostModel<Op>,
    max_sweeps: Option<usize>,
) -> CostTable {
    let n = memo.num_groups();
    let mut cost = vec![f64::INFINITY; n];
    let sweeps = max_sweeps.unwrap_or_else(|| n.saturating_add(1)).max(1);
    let mut converged = false;
    for _ in 0..sweeps {
        let mut changed = false;
        for eid in memo.expr_ids() {
            let e = memo.expr(eid);
            let group = memo.find(e.group);
            let child_costs: Vec<f64> = e.children.iter().map(|&c| cost[memo.find(c)]).collect();
            if child_costs.iter().any(|c| !c.is_finite()) {
                continue;
            }
            let total = model.cost(memo, eid, &child_costs);
            if total < cost[group] {
                cost[group] = total;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    CostTable {
        group_costs: cost,
        converged,
    }
}

/// Find the least-cost plan rooted at `root`.
///
/// OR nodes take the minimum over their alternatives; AND nodes combine
/// operator and child costs via the model. Costs are computed by **value
/// iteration** (see [`cost_table`]), which correctly handles
/// *self-referential alternatives* — an expression that contains its own
/// group as a sub-region (e.g. "run the loop, then also run an extra
/// aggregate query" is an alternative of the loop's group). The optimum
/// is always achieved by an acyclic plan, and extraction guards against
/// choosing an expression that re-enters a group already on the current
/// path.
pub fn best_plan<Op: Clone + Eq + Hash + Debug>(
    memo: &Memo<Op>,
    root: GroupId,
    model: &dyn CostModel<Op>,
) -> Option<BestPlan<Op>> {
    best_plan_from(memo, root, model, &cost_table(memo, model, None))
}

/// Extract the least-cost plan rooted at `root` from a precomputed
/// [`CostTable`] (the budgeted / introspectable form of [`best_plan`]).
pub fn best_plan_from<Op: Clone + Eq + Hash + Debug>(
    memo: &Memo<Op>,
    root: GroupId,
    model: &dyn CostModel<Op>,
    table: &CostTable,
) -> Option<BestPlan<Op>> {
    let cost = &table.group_costs;
    let root = memo.find(root);
    if !cost[root].is_finite() {
        return None;
    }
    let mut choices = Vec::new();
    let mut on_path = vec![false; memo.num_groups()];
    let tree = extract(memo, root, cost, model, &mut choices, &mut on_path)?;
    Some(BestPlan {
        cost: cost[root],
        tree,
        choices,
    })
}

/// Extract the cheapest plan, never re-entering a group on the current
/// path (an acyclic optimum always exists). `on_path` is a bitset over
/// canonical group ids (constant-time membership instead of the linear
/// scan a `Vec` path would need).
fn extract<Op: Clone + Eq + Hash + Debug>(
    memo: &Memo<Op>,
    group: GroupId,
    cost: &[f64],
    model: &dyn CostModel<Op>,
    choices: &mut Vec<(GroupId, MExprId)>,
    on_path: &mut [bool],
) -> Option<OpTree<Op>> {
    let group = memo.find(group);
    if on_path[group] {
        return None;
    }
    on_path[group] = true;

    // Cheapest expression whose children avoid the current path.
    let mut child_costs: Vec<f64> = Vec::new();
    let mut best: Option<(f64, MExprId)> = None;
    'exprs: for &eid in memo.group(group) {
        let e = memo.expr(eid);
        child_costs.clear();
        for &c in &e.children {
            let c = memo.find(c);
            if on_path[c] || !cost[c].is_finite() {
                continue 'exprs;
            }
            child_costs.push(cost[c]);
        }
        let total = model.cost(memo, eid, &child_costs);
        // Among equal-cost alternatives the lowest m-expr id wins. Group
        // iteration order follows insertion and merge history, so "first
        // in the group" is not stable across equivalent memo builds; ids
        // are assigned at insertion and survive merges unchanged.
        match best {
            Some((b, be)) if b < total || (b == total && be < eid) => {}
            _ => best = Some((total, eid)),
        }
    }
    let Some((_, expr)) = best else {
        on_path[group] = false;
        return None;
    };
    choices.push((group, expr));
    let e = memo.expr(expr);
    let mut children = Vec::with_capacity(e.children.len());
    for &c in &e.children {
        let sub = extract(memo, c, cost, model, choices, on_path)?;
        children.push(crate::memo::Child::Tree(Box::new(sub)));
    }
    on_path[group] = false;
    Some(OpTree {
        op: e.op.clone(),
        children,
    })
}

/// Structural fingerprint of an operator tree: FNV-1a over a preorder
/// walk of operators and arities. Two extractions of the same tree hash
/// identically regardless of which memo (or insertion order) produced
/// them, which is what [`top_k_plans`] uses both to deduplicate
/// structurally equal candidates and to break cost ties deterministically.
pub fn tree_fingerprint<Op: Clone + Eq + Hash + Debug>(tree: &OpTree<Op>) -> u64 {
    fn walk<Op: Clone + Eq + Hash + Debug>(tree: &OpTree<Op>, h: &mut Fnv) {
        tree.op.hash(h);
        tree.children.len().hash(h);
        for child in &tree.children {
            match child {
                Child::Tree(t) => {
                    0u8.hash(h);
                    walk(t, h);
                }
                Child::Group(g) => {
                    1u8.hash(h);
                    g.hash(h);
                }
            }
        }
    }
    let mut h = Fnv::new();
    walk(tree, &mut h);
    h.finish()
}

/// A candidate produced while enumerating a group's k cheapest plans.
struct Ranked<Op> {
    cost: f64,
    fingerprint: u64,
    tree: OpTree<Op>,
    choices: Vec<(GroupId, MExprId)>,
}

/// A pending child-rank combination in the lazy k-best heap.
struct Combo {
    cost: f64,
    ranks: Vec<usize>,
}
impl PartialEq for Combo {
    fn eq(&self, other: &Self) -> bool {
        self.cost.to_bits() == other.cost.to_bits() && self.ranks == other.ranks
    }
}
impl Eq for Combo {}
impl PartialOrd for Combo {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Combo {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .total_cmp(&other.cost)
            .then_with(|| self.ranks.cmp(&other.ranks))
    }
}

/// Extract the `k` cheapest **structurally distinct** plans rooted at
/// `root` from a precomputed [`CostTable`].
///
/// Guarantees:
/// * the first plan is bit-identical to [`best_plan_from`] — same cost
///   bits, same tree, same choice list (it *is* that extraction);
/// * plans are sorted by ascending cost, ties broken by
///   [`tree_fingerprint`] so the order is independent of memo insertion
///   order;
/// * plans are pairwise structurally distinct (distinct fingerprints);
/// * extraction is cycle-safe: like [`best_plan_from`], no plan re-enters
///   a group already on its own path, so self-referential alternatives
///   are enumerated but never chosen.
///
/// Runner-up costs are compositional — the model's cost of each chosen
/// expression over its chosen children's costs — which requires the model
/// to be monotone in child costs (true of every model here: all are
/// non-negative weighted sums), so per-group enumeration can stop after
/// `k` candidates.
pub fn top_k_plans<Op: Clone + Eq + Hash + Debug>(
    memo: &Memo<Op>,
    root: GroupId,
    model: &dyn CostModel<Op>,
    table: &CostTable,
    k: usize,
) -> Vec<BestPlan<Op>> {
    if k == 0 {
        return Vec::new();
    }
    let Some(best) = best_plan_from(memo, root, model, table) else {
        return Vec::new();
    };
    if k == 1 {
        return vec![best];
    }
    let root = memo.find(root);
    let mut on_path = vec![false; memo.num_groups()];
    let ranked = ranked_plans(memo, root, model, &table.group_costs, k, &mut on_path);
    let mut seen = vec![tree_fingerprint(&best.tree)];
    let mut out = vec![best];
    for cand in ranked {
        if out.len() == k {
            break;
        }
        if seen.contains(&cand.fingerprint) {
            continue;
        }
        seen.push(cand.fingerprint);
        out.push(BestPlan {
            cost: cand.cost,
            tree: cand.tree,
            choices: cand.choices,
        });
    }
    out
}

/// The k cheapest structurally distinct plans of `group`, each with its
/// compositional cost. Children are enumerated recursively; combinations
/// of child ranks are explored lazily, cheapest-first, via a heap seeded
/// with the all-rank-zero combination (Huang & Chiang's k-best scheme).
fn ranked_plans<Op: Clone + Eq + Hash + Debug>(
    memo: &Memo<Op>,
    group: GroupId,
    model: &dyn CostModel<Op>,
    cost: &[f64],
    k: usize,
    on_path: &mut [bool],
) -> Vec<Ranked<Op>> {
    let group = memo.find(group);
    if on_path[group] {
        return Vec::new();
    }
    on_path[group] = true;
    let mut cands: Vec<Ranked<Op>> = Vec::new();
    'exprs: for &eid in memo.group(group) {
        let e = memo.expr(eid);
        let mut kids: Vec<GroupId> = Vec::with_capacity(e.children.len());
        for &c in &e.children {
            let c = memo.find(c);
            // Same pre-filter as `extract`: skip expressions that re-enter
            // the current path or lean on a group with no finite plan.
            if on_path[c] || !cost[c].is_finite() {
                continue 'exprs;
            }
            kids.push(c);
        }
        if kids.is_empty() {
            let total = model.cost(memo, eid, &[]);
            let tree = OpTree {
                op: e.op.clone(),
                children: Vec::new(),
            };
            cands.push(Ranked {
                cost: total,
                fingerprint: tree_fingerprint(&tree),
                tree,
                choices: vec![(group, eid)],
            });
            continue;
        }
        let child_lists: Vec<Vec<Ranked<Op>>> = kids
            .iter()
            .map(|&c| ranked_plans(memo, c, model, cost, k, on_path))
            .collect();
        if child_lists.iter().any(|l| l.is_empty()) {
            continue;
        }
        let combo_cost = |ranks: &[usize]| {
            let child_costs: Vec<f64> = ranks
                .iter()
                .zip(&child_lists)
                .map(|(&r, list)| list[r].cost)
                .collect();
            model.cost(memo, eid, &child_costs)
        };
        let zero = vec![0usize; kids.len()];
        let mut scheduled: HashSet<Vec<usize>> = HashSet::new();
        let mut heap: BinaryHeap<Reverse<Combo>> = BinaryHeap::new();
        heap.push(Reverse(Combo {
            cost: combo_cost(&zero),
            ranks: zero.clone(),
        }));
        scheduled.insert(zero);
        let mut taken = 0usize;
        while taken < k {
            let Some(Reverse(combo)) = heap.pop() else {
                break;
            };
            taken += 1;
            let mut children = Vec::with_capacity(kids.len());
            let mut choices = vec![(group, eid)];
            for (i, &r) in combo.ranks.iter().enumerate() {
                children.push(Child::Tree(Box::new(child_lists[i][r].tree.clone())));
                choices.extend(child_lists[i][r].choices.iter().copied());
            }
            let tree = OpTree {
                op: e.op.clone(),
                children,
            };
            cands.push(Ranked {
                cost: combo.cost,
                fingerprint: tree_fingerprint(&tree),
                tree,
                choices,
            });
            for i in 0..combo.ranks.len() {
                let mut next = combo.ranks.clone();
                next[i] += 1;
                if next[i] < child_lists[i].len() && !scheduled.contains(&next) {
                    let c = combo_cost(&next);
                    scheduled.insert(next.clone());
                    heap.push(Reverse(Combo {
                        cost: c,
                        ranks: next,
                    }));
                }
            }
        }
    }
    on_path[group] = false;
    // Ascending cost with fingerprint tie-break; structurally equal trees
    // have equal compositional costs, so duplicates land adjacent.
    cands.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then_with(|| a.fingerprint.cmp(&b.fingerprint))
    });
    cands.dedup_by(|a, b| a.fingerprint == b.fingerprint);
    cands.truncate(k);
    cands
}

/// Count the distinct plans representable from `root` (product over AND
/// children, sum over OR alternatives). Cycles contribute zero (a cyclic
/// "plan" is not a plan). Saturates at `u64::MAX`.
pub fn count_plans<Op: Clone + Eq + Hash + Debug>(memo: &Memo<Op>, root: GroupId) -> u64 {
    fn go<Op: Clone + Eq + Hash + Debug>(
        memo: &Memo<Op>,
        group: GroupId,
        visiting: &mut [bool],
    ) -> u64 {
        let group = memo.find(group);
        if visiting[group] {
            return 0;
        }
        visiting[group] = true;
        let mut total: u64 = 0;
        for &eid in memo.group(group) {
            let mut prod: u64 = 1;
            for &c in &memo.expr(eid).children {
                prod = prod.saturating_mul(go(memo, c, visiting));
                if prod == 0 {
                    break;
                }
            }
            total = total.saturating_add(prod);
        }
        visiting[group] = false;
        total
    }
    go(memo, root, &mut vec![false; memo.num_groups()])
}

#[cfg(test)]
mod tests {
    use super::*;

    // Costs live in a side table (the model), not in the operator enum.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op2 {
        Leaf(&'static str),
        Combine,
    }

    struct Table;
    impl CostModel<Op2> for Table {
        fn cost(&self, memo: &Memo<Op2>, expr: MExprId, child_costs: &[f64]) -> f64 {
            let own = match memo.expr(expr).op {
                Op2::Leaf("cheap") => 1.0,
                Op2::Leaf("pricey") => 100.0,
                Op2::Leaf(_) => 10.0,
                Op2::Combine => 5.0,
            };
            own + child_costs.iter().sum::<f64>()
        }
    }

    #[test]
    fn picks_cheapest_alternative() {
        let mut memo = Memo::new();
        let g = memo.insert_tree(&OpTree::leaf(Op2::Leaf("pricey")), None);
        memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), Some(g));
        let best = best_plan(&memo, g, &Table).unwrap();
        assert_eq!(best.cost, 1.0);
        assert_eq!(best.tree.op, Op2::Leaf("cheap"));
    }

    #[test]
    fn combines_child_costs() {
        let mut memo = Memo::new();
        let tree = OpTree::node(
            Op2::Combine,
            vec![
                OpTree::leaf(Op2::Leaf("a")),
                OpTree::leaf(Op2::Leaf("cheap")),
            ],
        );
        let root = memo.insert_tree(&tree, None);
        let best = best_plan(&memo, root, &Table).unwrap();
        assert_eq!(best.cost, 5.0 + 10.0 + 1.0);
    }

    #[test]
    fn min_propagates_through_shared_groups() {
        let mut memo = Memo::new();
        let shared = memo.insert_tree(&OpTree::leaf(Op2::Leaf("pricey")), None);
        memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), Some(shared));
        let root = memo.insert_tree(
            &OpTree::over_groups(Op2::Combine, vec![shared, shared]),
            None,
        );
        let best = best_plan(&memo, root, &Table).unwrap();
        assert_eq!(
            best.cost,
            5.0 + 1.0 + 1.0,
            "shared group costed once, used twice"
        );
        assert_eq!(best.choices.len(), 3);
    }

    #[test]
    fn cyclic_alternatives_are_ignored() {
        // Group g contains Leaf(a) and Combine(g, b): the recursive
        // alternative can never be chosen.
        let mut memo = Memo::new();
        let g = memo.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
        let b = memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), None);
        memo.insert_expr(Op2::Combine, vec![g, b], Some(g));
        let best = best_plan(&memo, g, &Table).unwrap();
        assert_eq!(best.cost, 10.0);
        assert_eq!(best.tree.op, Op2::Leaf("a"));
    }

    #[test]
    fn cost_table_reports_convergence_and_budget_exhaustion() {
        let mut memo = Memo::new();
        let tree = OpTree::node(
            Op2::Combine,
            vec![
                OpTree::node(Op2::Combine, vec![OpTree::leaf(Op2::Leaf("a"))]),
                OpTree::leaf(Op2::Leaf("cheap")),
            ],
        );
        let root = memo.insert_tree(&tree, None);
        let full = cost_table(&memo, &Table, None);
        assert!(full.converged);
        // A minimal memo needing every sweep still confirms its fixpoint.
        let mut tiny = Memo::new();
        let g = tiny.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
        let t = cost_table(&tiny, &Table, None);
        assert!(t.converged, "unbudgeted iteration always converges");
        assert_eq!(t.group_costs[tiny.find(g)], 10.0);
        assert_eq!(full.group_costs[memo.find(root)], 5.0 + 5.0 + 10.0 + 1.0);
        // A one-sweep budget ends iteration while costs are still moving,
        // so the fixpoint is never confirmed.
        let clipped = cost_table(&memo, &Table, Some(1));
        assert!(!clipped.converged);
        assert!(best_plan_from(&memo, root, &Table, &full).is_some());
    }

    /// The worklist engine must reproduce the reference sweep exactly —
    /// including mid-iteration states frozen by a sweep budget.
    #[test]
    fn worklist_matches_reference_sweep_under_any_budget() {
        // A DAG deep enough to need several sweeps, with a shared group,
        // a cheap/pricey alternative pair and a self-referential expr.
        let mut memo = Memo::new();
        let shared = memo.insert_tree(&OpTree::leaf(Op2::Leaf("pricey")), None);
        memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), Some(shared));
        let mid = memo.insert_tree(&OpTree::over_groups(Op2::Combine, vec![shared]), None);
        let top = memo.insert_tree(&OpTree::over_groups(Op2::Combine, vec![mid, shared]), None);
        memo.insert_expr(Op2::Combine, vec![top], Some(top)); // self-loop
        for budget in [None, Some(1), Some(2), Some(3), Some(10)] {
            let fast = cost_table(&memo, &Table, budget);
            let slow = cost_table_sweeps(&memo, &Table, budget);
            assert_eq!(fast.converged, slow.converged, "budget {budget:?}");
            let fast_bits: Vec<u64> = fast.group_costs.iter().map(|c| c.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.group_costs.iter().map(|c| c.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "budget {budget:?}");
        }
    }

    #[test]
    fn count_plans_multiplies_and_adds() {
        let mut memo = Memo::new();
        let l = memo.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
        memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), Some(l));
        let r = memo.insert_tree(&OpTree::leaf(Op2::Leaf("b")), None);
        let root = memo.insert_tree(&OpTree::over_groups(Op2::Combine, vec![l, r]), None);
        assert_eq!(count_plans(&memo, root), 2);
        memo.insert_tree(&OpTree::leaf(Op2::Leaf("pricey")), Some(r));
        assert_eq!(count_plans(&memo, root), 4);
    }

    #[test]
    fn empty_group_has_no_plan() {
        let memo: Memo<Op2> = Memo::new();
        // No groups at all → count on a synthetic id would panic; instead
        // check that a cyclic-only group yields None.
        let mut memo2 = Memo::new();
        let g = memo2.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
        // A second group whose only expr references g... and g references
        // it back, forming a pure cycle.
        let h = memo2.insert_expr(Op2::Combine, vec![g], None);
        let _ = memo2.insert_expr(Op2::Combine, vec![h], Some(g));
        // g still has Leaf(a), so best_plan works; h's only route is via g.
        assert!(best_plan(&memo2, h, &Table).is_some());
        drop(memo);
        // Child references existing group inline:
        let mut memo3: Memo<Op2> = Memo::new();
        let base = memo3.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
        let t = OpTree {
            op: Op2::Combine,
            children: vec![Child::Group(base)],
        };
        let root = memo3.insert_tree(&t, None);
        assert!(best_plan(&memo3, root, &Table).is_some());
    }

    /// Two equal-cost alternatives must extract identically however the
    /// group's expression list came to be ordered. `merge` appends the
    /// absorbed group's expressions, so merging in opposite orders yields
    /// the same expressions (same ids) in different list orders — the
    /// exact perturbation rule application order produces in practice.
    #[test]
    fn equal_cost_ties_break_by_lowest_expr_id() {
        let build = |swap_merges: bool| {
            let mut memo = Memo::new();
            // e0: pricey (100), e1: Leaf("a") (10), e2: Leaf("b") (10).
            let ga = memo.insert_tree(&OpTree::leaf(Op2::Leaf("pricey")), None);
            let gb = memo.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
            let gc = memo.insert_tree(&OpTree::leaf(Op2::Leaf("b")), None);
            if swap_merges {
                memo.merge(ga, gc); // group list: [e0, e2, e1]
                memo.merge(ga, gb);
            } else {
                memo.merge(ga, gb); // group list: [e0, e1, e2]
                memo.merge(ga, gc);
            }
            let best = best_plan(&memo, ga, &Table).unwrap();
            best.tree.op.clone()
        };
        let (a, b) = (build(false), build(true));
        assert_eq!(a, b, "tie-break must not depend on group list order");
        assert_eq!(a, Op2::Leaf("a"), "lowest m-expr id wins the tie");
    }

    /// Equal-cost alternatives registered directly (no merges) in both
    /// orders: whichever got the smaller id wins, in both builds.
    #[test]
    fn equal_cost_ties_are_deterministic_under_insertion_order() {
        for flip in [false, true] {
            let mut memo = Memo::new();
            let (first, second) = if flip { ("b", "a") } else { ("a", "b") };
            let g = memo.insert_tree(&OpTree::leaf(Op2::Leaf(first)), None);
            memo.insert_tree(&OpTree::leaf(Op2::Leaf(second)), Some(g));
            let best = best_plan(&memo, g, &Table).unwrap();
            assert_eq!(
                best.choices,
                vec![(memo.find(g), 0)],
                "expr id 0 is the lowest id among the tie"
            );
            assert_eq!(best.tree.op, Op2::Leaf(first));
        }
    }

    fn alternatives_memo() -> (Memo<Op2>, GroupId) {
        // Two two-alternative groups under a Combine root (distinct ops
        // per group — identical leaves would hash-cons the groups
        // together): 2 × 2 = 4 distinct plans.
        let mut memo = Memo::new();
        let l = memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), None);
        memo.insert_tree(&OpTree::leaf(Op2::Leaf("pricey")), Some(l));
        let b = memo.insert_tree(&OpTree::leaf(Op2::Leaf("b")), None);
        let r = memo.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
        memo.insert_tree(&OpTree::over_groups(Op2::Combine, vec![b]), Some(r));
        let root = memo.insert_tree(&OpTree::over_groups(Op2::Combine, vec![l, r]), None);
        (memo, root)
    }

    #[test]
    fn top_k_one_is_bit_identical_to_best_plan_from() {
        let (memo, root) = alternatives_memo();
        let table = cost_table(&memo, &Table, None);
        let best = best_plan_from(&memo, root, &Table, &table).unwrap();
        let top = top_k_plans(&memo, root, &Table, &table, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].cost.to_bits(), best.cost.to_bits());
        assert_eq!(top[0].tree, best.tree);
        assert_eq!(top[0].choices, best.choices);
        // ...and under a clipped budget (unconverged table) too.
        let clipped = cost_table(&memo, &Table, Some(1));
        match (
            best_plan_from(&memo, root, &Table, &clipped),
            top_k_plans(&memo, root, &Table, &clipped, 1).first(),
        ) {
            (None, None) => {}
            (Some(b), Some(t)) => assert_eq!(t.cost.to_bits(), b.cost.to_bits()),
            (b, t) => panic!("diverged: best={:?} top={:?}", b.is_some(), t.is_some()),
        }
    }

    #[test]
    fn top_k_sorted_distinct_and_exhaustive() {
        let (memo, root) = alternatives_memo();
        let table = cost_table(&memo, &Table, None);
        let top = top_k_plans(&memo, root, &Table, &table, 10);
        assert_eq!(top.len() as u64, count_plans(&memo, root));
        // Combine(5) over {cheap=1, pricey=100} × {a=10, Combine(b)=15}.
        let costs: Vec<f64> = top.iter().map(|p| p.cost).collect();
        assert_eq!(costs, vec![16.0, 21.0, 115.0, 120.0]);
        let fps: Vec<u64> = top.iter().map(|p| tree_fingerprint(&p.tree)).collect();
        for (i, f) in fps.iter().enumerate() {
            assert!(!fps[..i].contains(f), "fingerprints pairwise distinct");
        }
    }

    #[test]
    fn top_k_is_cycle_safe_on_self_referential_groups() {
        // Group g = {Leaf(a), Combine(g, cheap)}: the recursive
        // alternative is enumerable but never extractable.
        let mut memo = Memo::new();
        let g = memo.insert_tree(&OpTree::leaf(Op2::Leaf("a")), None);
        let b = memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), None);
        memo.insert_expr(Op2::Combine, vec![g, b], Some(g));
        let table = cost_table(&memo, &Table, None);
        let top = top_k_plans(&memo, g, &Table, &table, 5);
        assert_eq!(top.len(), 1, "only the acyclic plan exists");
        assert_eq!(top[0].tree.op, Op2::Leaf("a"));
    }

    #[test]
    fn top_k_deterministic_across_insertion_orders() {
        // Unique cheapest plan, equal-cost runners-up registered in both
        // orders: the full (cost bits, fingerprint) sequence must match,
        // because rank 0 is the unique argmin and the tail orders ties by
        // structural fingerprint rather than by insertion id.
        let build = |flip: bool| {
            let mut memo = Memo::new();
            let l = memo.insert_tree(&OpTree::leaf(Op2::Leaf("cheap")), None);
            let (x, y) = if flip { ("b", "a") } else { ("a", "b") };
            let r = memo.insert_tree(&OpTree::leaf(Op2::Leaf(x)), None);
            memo.insert_tree(&OpTree::leaf(Op2::Leaf(y)), Some(r));
            // Unique minimum for r: Combine(l) = 5 + 1 = 6 < 10.
            memo.insert_tree(&OpTree::over_groups(Op2::Combine, vec![l]), Some(r));
            let root = memo.insert_tree(&OpTree::over_groups(Op2::Combine, vec![l, r]), None);
            let table = cost_table(&memo, &Table, None);
            top_k_plans(&memo, root, &Table, &table, 6)
                .into_iter()
                .map(|p| (p.cost.to_bits(), tree_fingerprint(&p.tree)))
                .collect::<Vec<_>>()
        };
        let base = build(false);
        assert_eq!(base.len(), 3, "cheap × {{a, b, Combine(cheap)}} plans");
        assert_eq!(
            base,
            build(true),
            "(cost bits, fingerprint) sequence independent of insertion order"
        );
    }

    #[test]
    fn top_k_zero_returns_nothing() {
        let (memo, root) = alternatives_memo();
        let table = cost_table(&memo, &Table, None);
        assert!(top_k_plans(&memo, root, &Table, &table, 0).is_empty());
    }
}
