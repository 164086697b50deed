//! Property tests on the Volcano memo: hash-consing, termination of
//! cyclic rules, merge cascades, and plan counting.
//!
//! Parameter sweeps replace proptest's random sampling (the workspace
//! builds offline): the input space here is small enough to cover
//! exhaustively.

mod support;

use cobra::volcano::{best_plan, count_plans, Memo, OpTree};
use support::engine::expand;
use support::relalg::{
    left_deep_join, CardinalityCost, JoinAssociativity, JoinCommutativity, RelOp,
};

/// Random relation names (distinct by construction below).
fn rel_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("R{i}")).collect()
}

/// Catalan(n-1) × n! — the number of distinct binary join trees over `n`
/// relations with ordered children.
fn expected_plans(n: u64) -> u64 {
    fn catalan(k: u64) -> u64 {
        (0..k).fold(1u64, |c, i| c * 2 * (2 * i + 1) / (i + 2))
    }
    fn factorial(k: u64) -> u64 {
        (1..=k).product()
    }
    catalan(n - 1) * factorial(n)
}

/// Full commutativity+associativity enumeration matches the classic
/// combinatorial count for 2..=5 relations.
#[test]
fn enumeration_count_is_exact() {
    for n in 2usize..=5 {
        let names = rel_names(n);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&refs), None);
        expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 256);
        assert_eq!(count_plans(&memo, root), expected_plans(n as u64), "n={n}");
    }
}

/// Expansion is a fixpoint: re-running adds nothing.
#[test]
fn expansion_idempotent() {
    for n in 2usize..=5 {
        let names = rel_names(n);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&refs), None);
        expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 256);
        let exprs = memo.num_exprs();
        let plans = count_plans(&memo, root);
        let stats = expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 256);
        assert_eq!(memo.num_exprs(), exprs, "n={n}");
        assert_eq!(count_plans(&memo, root), plans, "n={n}");
        assert_eq!(stats.added, 0, "n={n}");
    }
}

/// The chosen plan never exceeds the original left-deep plan's cost, for
/// a spread of cardinality assignments.
#[test]
fn best_plan_beats_the_original() {
    // Deterministic pseudo-random cardinalities per (n, case).
    let mut rng = cobra::netsim::rng::StdRng::seed_from_u64(0x0B5E55ED);
    for n in 2usize..=5 {
        for case in 0..4 {
            let names = rel_names(n);
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let cards: Vec<f64> = (0..5)
                .map(|_| 1.0 + rng.gen_range(0..10_000u64) as f64)
                .collect();
            let model = CardinalityCost::new(names.iter().cloned().zip(cards.iter().copied()));

            // Cost of the original plan only.
            let mut memo0 = Memo::new();
            let root0 = memo0.insert_tree(&left_deep_join(&refs), None);
            let original = best_plan(&memo0, root0, &model).unwrap().cost;

            // Cost after full enumeration.
            let mut memo = Memo::new();
            let root = memo.insert_tree(&left_deep_join(&refs), None);
            expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 256);
            let best = best_plan(&memo, root, &model).unwrap();
            assert!(
                best.cost <= original * (1.0 + 1e-9),
                "n={n} case={case}: optimizer must not regress: {} > {original}",
                best.cost
            );
        }
    }
}

/// Inserting the same tree repeatedly (any tree shape) never grows the
/// memo after the first insertion.
#[test]
fn insertion_is_hash_consed() {
    for n in 2usize..=6 {
        for repeats in 1usize..5 {
            let names = rel_names(n);
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let tree: OpTree<RelOp> = left_deep_join(&refs);
            let mut memo = Memo::new();
            let g1 = memo.insert_tree(&tree, None);
            let exprs = memo.num_exprs();
            for _ in 0..repeats {
                let g = memo.insert_tree(&tree, None);
                assert_eq!(memo.find(g), memo.find(g1), "n={n}");
            }
            assert_eq!(memo.num_exprs(), exprs, "n={n} repeats={repeats}");
        }
    }
}

#[test]
fn merge_is_order_independent() {
    // Merging (a,b) then (b,c) must agree with (b,c) then (a,b).
    let build = || {
        let mut memo: Memo<RelOp> = Memo::new();
        let a = memo.insert_tree(&OpTree::leaf(RelOp::Rel("a".into())), None);
        let b = memo.insert_tree(&OpTree::leaf(RelOp::Rel("b".into())), None);
        let c = memo.insert_tree(&OpTree::leaf(RelOp::Rel("c".into())), None);
        (memo, a, b, c)
    };
    let (mut m1, a1, b1, c1) = build();
    m1.merge(a1, b1);
    m1.merge(b1, c1);
    let (mut m2, a2, b2, c2) = build();
    m2.merge(b2, c2);
    m2.merge(a2, b2);
    assert_eq!(m1.find(a1), m1.find(c1));
    assert_eq!(m2.find(a2), m2.find(c2));
    assert_eq!(m1.group(a1).len(), 3);
    assert_eq!(m2.group(a2).len(), 3);
}
