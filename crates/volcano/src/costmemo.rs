//! Memoized costing.
//!
//! Cost-based rewrite search spends most of its time in the cost model
//! (cardinality estimation, row-size arithmetic, network formulas), and
//! [`crate::best_plan`]'s value iteration plus extraction evaluate the
//! same m-exprs many times over. [`CostMemo`] wraps any [`CostModel`] and
//! caches estimates per `(MExprId, child costs)`: identical inputs return
//! the previously computed estimate bit-for-bit, so memoized search is
//! *exactly* equivalent to un-memoized search — just cheaper.
//!
//! Cache validity is tied to the memo's [`Memo::merge_epoch`]: when groups
//! merge, m-exprs are rewritten to canonical children, so every cached
//! estimate is dropped. Interior mutability is `Mutex`/atomic-based, which
//! keeps the wrapper `Send + Sync` whenever the wrapped model is.

use crate::memo::{MExprId, Memo};
use crate::search::CostModel;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cached estimates for one m-expr: (child-cost bit patterns, estimate).
type ExprEntries = Vec<(Box<[u64]>, f64)>;

/// A caching wrapper around a [`CostModel`].
///
/// ```
/// use volcano::{best_plan, CostMemo, CostModel, Memo, MExprId, OpTree};
///
/// #[derive(Debug, Clone, PartialEq, Eq, Hash)]
/// struct Leaf(u32);
/// struct Unit;
/// impl CostModel<Leaf> for Unit {
///     fn cost(&self, m: &Memo<Leaf>, e: MExprId, kids: &[f64]) -> f64 {
///         m.expr(e).op.0 as f64 + kids.iter().sum::<f64>()
///     }
/// }
///
/// let mut memo = Memo::new();
/// let root = memo.insert_tree(&OpTree::leaf(Leaf(7)), None);
/// let cached = CostMemo::new(&Unit);
/// let best = best_plan(&memo, root, &cached).unwrap();
/// assert_eq!(best.cost, 7.0);
/// assert!(cached.hits() + cached.misses() > 0);
/// ```
pub struct CostMemo<'m, Op: Clone + Eq + Hash + Debug, M: CostModel<Op> + ?Sized> {
    model: &'m M,
    /// m-expr → (child-cost bit patterns, estimate) entries. Child costs
    /// converge within a couple of value-iteration sweeps, so the inner
    /// list stays tiny; a linear scan keeps the hit path allocation-free
    /// (no key `Vec` is built just to probe the map).
    cache: Mutex<HashMap<MExprId, ExprEntries>>,
    /// The memo merge epoch the cache contents are valid for.
    valid_epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    _op: std::marker::PhantomData<fn(Op)>,
}

impl<'m, Op: Clone + Eq + Hash + Debug, M: CostModel<Op> + ?Sized> CostMemo<'m, Op, M> {
    /// Wrap `model` with a fresh cache.
    pub fn new(model: &'m M) -> CostMemo<'m, Op, M> {
        CostMemo {
            model,
            cache: Mutex::new(HashMap::new()),
            valid_epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            _op: std::marker::PhantomData,
        }
    }

    /// Estimates served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Estimates computed by the wrapped model.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cache flushes caused by observed group merges.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap().values().map(Vec::len).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<Op: Clone + Eq + Hash + Debug, M: CostModel<Op> + ?Sized> CostModel<Op>
    for CostMemo<'_, Op, M>
{
    fn cost(&self, memo: &Memo<Op>, expr: MExprId, child_costs: &[f64]) -> f64 {
        let epoch = memo.merge_epoch();
        let matches = |bits: &[u64]| bits.iter().zip(child_costs).all(|(&b, c)| b == c.to_bits());
        {
            let mut cache = self.cache.lock().unwrap();
            // Group merges rewrite m-expr children to canonical groups;
            // every cached estimate may be stale, so drop them all.
            if self.valid_epoch.swap(epoch, Ordering::Relaxed) != epoch {
                if !cache.is_empty() {
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                }
                cache.clear();
            }
            if let Some(entries) = cache.get(&expr) {
                if let Some(cost) = entries
                    .iter()
                    .find(|(bits, _)| bits.len() == child_costs.len() && matches(bits))
                    .map(|(_, c)| *c)
                {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return cost;
                }
            }
        }
        // Compute outside the lock: models may be expensive, and holding
        // the lock would serialize sibling estimates under contention.
        let cost = self.model.cost(memo, expr, child_costs);
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Only insert if no merge happened while we were computing.
        if memo.merge_epoch() == epoch && self.valid_epoch.load(Ordering::Relaxed) == epoch {
            let bits: Box<[u64]> = child_costs.iter().map(|c| c.to_bits()).collect();
            let mut cache = self.cache.lock().unwrap();
            let entries = cache.entry(expr).or_default();
            // A racing worker may have inserted the same entry meanwhile.
            if !entries
                .iter()
                .any(|(b, _)| b.len() == child_costs.len() && matches(b))
            {
                entries.push((bits, cost));
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::OpTree;
    use crate::search::best_plan;
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum TOp {
        Leaf(&'static str),
        Pair,
    }

    /// Counts how often the underlying model is actually consulted.
    struct Counting {
        calls: AtomicUsize,
    }

    impl Counting {
        fn new() -> Counting {
            Counting {
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl CostModel<TOp> for Counting {
        fn cost(&self, memo: &Memo<TOp>, expr: MExprId, child_costs: &[f64]) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let own = match memo.expr(expr).op {
                TOp::Leaf("cheap") => 1.0,
                TOp::Leaf(_) => 10.0,
                TOp::Pair => 5.0,
            };
            own + child_costs.iter().sum::<f64>()
        }
    }

    fn two_level_memo() -> (Memo<TOp>, usize) {
        let mut memo = Memo::new();
        let tree = OpTree::node(
            TOp::Pair,
            vec![
                OpTree::leaf(TOp::Leaf("a")),
                OpTree::leaf(TOp::Leaf("cheap")),
            ],
        );
        let root = memo.insert_tree(&tree, None);
        (memo, root)
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (memo, root) = two_level_memo();
        let model = Counting::new();
        let cached = CostMemo::new(&model);
        let first = best_plan(&memo, root, &cached).unwrap().cost;
        let misses_after_first = cached.misses();
        assert!(misses_after_first > 0, "first search populates the cache");
        let second = best_plan(&memo, root, &cached).unwrap().cost;
        assert_eq!(first, second);
        assert_eq!(
            cached.misses(),
            misses_after_first,
            "second search is served entirely from cache"
        );
        assert!(cached.hits() > 0);
        assert_eq!(
            model.calls.load(Ordering::Relaxed) as u64,
            cached.misses(),
            "the wrapped model runs only on misses"
        );
    }

    #[test]
    fn memoized_cost_is_identical_to_unmemoized() {
        let (memo, root) = two_level_memo();
        let model = Counting::new();
        let plain = best_plan(&memo, root, &model).unwrap().cost;
        let cached = CostMemo::new(&model);
        let memoized = best_plan(&memo, root, &cached).unwrap().cost;
        assert_eq!(plain.to_bits(), memoized.to_bits(), "bit-identical costs");
    }

    #[test]
    fn group_merge_invalidates_the_cache() {
        let mut memo = Memo::new();
        let a = memo.insert_tree(&OpTree::leaf(TOp::Leaf("a")), None);
        let b = memo.insert_tree(&OpTree::leaf(TOp::Leaf("b")), None);
        let root = memo.insert_tree(&OpTree::over_groups(TOp::Pair, vec![a, b]), None);
        let model = Counting::new();
        let cached = CostMemo::new(&model);
        best_plan(&memo, root, &cached).unwrap();
        assert!(!cached.is_empty());

        // Merge: a and b now compute the same result.
        memo.merge(a, b);
        assert_eq!(cached.invalidations(), 0, "not yet observed");
        best_plan(&memo, root, &cached).unwrap();
        assert_eq!(
            cached.invalidations(),
            1,
            "first post-merge estimate flushed the stale cache"
        );
    }

    #[test]
    fn cache_distinguishes_child_costs() {
        // Same m-expr consulted under different child costs must not
        // collide (this happens across value-iteration sweeps before the
        // fixpoint).
        let (memo, root) = two_level_memo();
        let model = Counting::new();
        let cached = CostMemo::new(&model);
        let pair_expr = memo.group(root)[0];
        let c1 = cached.cost(&memo, pair_expr, &[1.0, 1.0]);
        let c2 = cached.cost(&memo, pair_expr, &[2.0, 1.0]);
        assert_eq!(c1, 7.0);
        assert_eq!(c2, 8.0);
        assert_eq!(cached.misses(), 2);
        assert_eq!(cached.cost(&memo, pair_expr, &[1.0, 1.0]), 7.0);
        assert_eq!(cached.hits(), 1);
    }

    #[test]
    fn cost_memo_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CostMemo<'static, TOp, Counting>>();
    }
}
