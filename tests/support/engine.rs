//! A generic transformation-rule driver over `volcano::Memo`.

use cobra::volcano::{GroupId, MExprId, Memo, OpTree};
use std::fmt::Debug;
use std::hash::Hash;

/// A transformation rule.
///
/// Rules fire on one m-expr at a time and return alternative trees that
/// compute the same result; the engine inserts each alternative into the
/// m-expr's group. Rules may be cyclic (commutativity, T2 ⇄ N2): the
/// memo's duplicate detection guarantees termination.
pub trait Rule<Op: Clone + Eq + Hash + Debug> {
    /// Rule name for diagnostics.
    fn name(&self) -> &str;

    /// Alternatives for the expression `expr`, if the rule matches.
    fn apply(&self, memo: &Memo<Op>, expr: MExprId) -> Vec<OpTree<Op>>;
}

/// Statistics of one expansion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpandStats {
    /// Full passes over the memo.
    pub passes: usize,
    /// Rule applications that produced at least one alternative.
    pub matches: usize,
    /// Alternatives actually new (not deduplicated away).
    pub added: usize,
}

/// Expand the memo by applying `rules` to every m-expr until fixpoint.
///
/// Each pass snapshots the current expression count; new expressions are
/// processed in subsequent passes. Termination: every insertion either
/// dedups to an existing expression (no growth) or adds one, and rules can
/// only generate finitely many shapes over a finite vocabulary — in
/// practice the fixpoint is reached in a few passes, and `max_passes`
/// bounds pathological rule sets.
pub fn expand<Op: Clone + Eq + Hash + Debug>(
    memo: &mut Memo<Op>,
    rules: &[&dyn Rule<Op>],
    max_passes: usize,
) -> ExpandStats {
    let mut stats = ExpandStats::default();
    loop {
        stats.passes += 1;
        let before_exprs = memo.num_exprs();
        let snapshot: Vec<MExprId> = memo.expr_ids().collect();
        for id in snapshot {
            for rule in rules {
                let alternatives = rule.apply(memo, id);
                if alternatives.is_empty() {
                    continue;
                }
                stats.matches += 1;
                let group: GroupId = memo.expr(id).group;
                for alt in alternatives {
                    let pre = memo.num_exprs();
                    memo.insert_tree(&alt, Some(group));
                    if memo.num_exprs() > pre {
                        stats.added += memo.num_exprs() - pre;
                    }
                }
            }
        }
        if memo.num_exprs() == before_exprs || stats.passes >= max_passes {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra::volcano::Child;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum TOp {
        Leaf(&'static str),
        Pair,
    }

    /// Commutativity: Pair(x, y) → Pair(y, x). Cyclic on purpose.
    struct Commute;
    impl Rule<TOp> for Commute {
        fn name(&self) -> &str {
            "commute"
        }
        fn apply(&self, memo: &Memo<TOp>, expr: MExprId) -> Vec<OpTree<TOp>> {
            let e = memo.expr(expr);
            if e.op != TOp::Pair {
                return Vec::new();
            }
            vec![OpTree {
                op: TOp::Pair,
                children: vec![Child::Group(e.children[1]), Child::Group(e.children[0])],
            }]
        }
    }

    #[test]
    fn cyclic_rule_terminates_with_both_orders() {
        let mut memo = Memo::new();
        let tree = OpTree::node(
            TOp::Pair,
            vec![OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b"))],
        );
        let root = memo.insert_tree(&tree, None);
        let stats = expand(&mut memo, &[&Commute], 16);
        assert!(stats.passes <= 3, "fixpoint reached quickly: {stats:?}");
        assert_eq!(memo.group(root).len(), 2, "(a,b) and (b,a)");
    }

    #[test]
    fn expansion_is_idempotent() {
        let mut memo = Memo::new();
        let tree = OpTree::node(
            TOp::Pair,
            vec![OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b"))],
        );
        let root = memo.insert_tree(&tree, None);
        expand(&mut memo, &[&Commute], 16);
        let exprs_after_first = memo.num_exprs();
        let stats = expand(&mut memo, &[&Commute], 16);
        assert_eq!(memo.num_exprs(), exprs_after_first);
        assert_eq!(stats.added, 0);
        assert_eq!(memo.group(root).len(), 2);
    }

    #[test]
    fn nested_pairs_commute_at_every_level() {
        // Pair(Pair(a,b), c): commuting both levels yields 2 exprs in each
        // pair group → 4 distinct plans at the root (Figure 4c analogue).
        let mut memo = Memo::new();
        let tree = OpTree::node(
            TOp::Pair,
            vec![
                OpTree::node(
                    TOp::Pair,
                    vec![OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b"))],
                ),
                OpTree::leaf(TOp::Leaf("c")),
            ],
        );
        let root = memo.insert_tree(&tree, None);
        expand(&mut memo, &[&Commute], 16);
        assert_eq!(memo.group(root).len(), 2);
        let plans = cobra::volcano::count_plans(&memo, root);
        assert_eq!(plans, 4);
    }
}
