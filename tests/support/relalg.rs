//! Relational-algebra instantiation of the memo.
//!
//! Reproduces the paper's background example (Figure 4): the join query
//! `(A ⋈ B) ⋈ C` represented as an AND-OR DAG, expanded with join
//! commutativity (cyclic!) and associativity, then costed.

use super::engine::Rule;
use cobra::volcano::{Child, CostModel, GroupId, MExprId, Memo, OpTree};
use std::collections::HashMap;

/// Relational operators: base relations and joins.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// A named base relation.
    Rel(String),
    /// Natural join of the two children.
    Join,
}

/// Build `(A ⋈ B) ⋈ C`-style left-deep join trees from relation names.
pub fn left_deep_join(rels: &[&str]) -> OpTree<RelOp> {
    assert!(rels.len() >= 2, "need at least two relations");
    let mut tree = OpTree::node(
        RelOp::Join,
        vec![
            OpTree::leaf(RelOp::Rel(rels[0].to_string())),
            OpTree::leaf(RelOp::Rel(rels[1].to_string())),
        ],
    );
    for r in &rels[2..] {
        tree = OpTree::node(
            RelOp::Join,
            vec![tree, OpTree::leaf(RelOp::Rel(r.to_string()))],
        );
    }
    tree
}

/// Join commutativity: `x ⋈ y → y ⋈ x` (cyclic).
pub struct JoinCommutativity;

impl Rule<RelOp> for JoinCommutativity {
    fn name(&self) -> &str {
        "join-commutativity"
    }

    fn apply(&self, memo: &Memo<RelOp>, expr: MExprId) -> Vec<OpTree<RelOp>> {
        let e = memo.expr(expr);
        if e.op != RelOp::Join {
            return Vec::new();
        }
        vec![OpTree {
            op: RelOp::Join,
            children: vec![Child::Group(e.children[1]), Child::Group(e.children[0])],
        }]
    }
}

/// Join associativity: `(x ⋈ y) ⋈ z → x ⋈ (y ⋈ z)`.
pub struct JoinAssociativity;

impl Rule<RelOp> for JoinAssociativity {
    fn name(&self) -> &str {
        "join-associativity"
    }

    fn apply(&self, memo: &Memo<RelOp>, expr: MExprId) -> Vec<OpTree<RelOp>> {
        let e = memo.expr(expr);
        if e.op != RelOp::Join {
            return Vec::new();
        }
        let left = e.children[0];
        let right = e.children[1];
        let mut out = Vec::new();
        // For each join-shaped alternative of the left child, re-associate.
        for &lid in memo.group(left) {
            let le = memo.expr(lid);
            if le.op != RelOp::Join {
                continue;
            }
            let (x, y) = (le.children[0], le.children[1]);
            out.push(OpTree {
                op: RelOp::Join,
                children: vec![
                    Child::Group(x),
                    Child::Tree(Box::new(OpTree {
                        op: RelOp::Join,
                        children: vec![Child::Group(y), Child::Group(right)],
                    })),
                ],
            });
        }
        out
    }
}

/// A cardinality-based cost model: joins cost the product of input
/// cardinalities (nested-loops flavour), scans cost their cardinality.
pub struct CardinalityCost {
    cards: HashMap<String, f64>,
}

impl CardinalityCost {
    /// Model with per-relation cardinalities.
    pub fn new(cards: impl IntoIterator<Item = (String, f64)>) -> CardinalityCost {
        CardinalityCost {
            cards: cards.into_iter().collect(),
        }
    }

    #[allow(dead_code)] // kept for symmetry with group_card; used by docs
    fn output_card(&self, memo: &Memo<RelOp>, expr: MExprId) -> f64 {
        let e = memo.expr(expr);
        match &e.op {
            RelOp::Rel(name) => self.cards.get(name).copied().unwrap_or(1.0),
            RelOp::Join => {
                // Estimate output as product × fixed join selectivity.
                let mut card = 0.1;
                for &c in &e.children {
                    card *= self.group_card(memo, c, &mut Vec::new());
                }
                card
            }
        }
    }

    fn group_card(&self, memo: &Memo<RelOp>, g: GroupId, visiting: &mut Vec<GroupId>) -> f64 {
        let g = memo.find(g);
        if visiting.contains(&g) {
            return f64::INFINITY;
        }
        visiting.push(g);
        // All alternatives of a group have the same output; take the first
        // non-cyclic one.
        let mut card = f64::INFINITY;
        for &eid in memo.group(g) {
            let e = memo.expr(eid);
            let c = match &e.op {
                RelOp::Rel(name) => self.cards.get(name).copied().unwrap_or(1.0),
                RelOp::Join => {
                    let mut prod = 0.1;
                    for &ch in &e.children {
                        prod *= self.group_card(memo, ch, visiting);
                    }
                    prod
                }
            };
            card = card.min(c);
        }
        visiting.pop();
        card
    }
}

impl CostModel<RelOp> for CardinalityCost {
    fn cost(&self, memo: &Memo<RelOp>, expr: MExprId, child_costs: &[f64]) -> f64 {
        let e = memo.expr(expr);
        let own = match &e.op {
            RelOp::Rel(name) => self.cards.get(name).copied().unwrap_or(1.0),
            RelOp::Join => {
                let mut prod = 1.0;
                for &c in &e.children {
                    prod *= self.group_card(memo, c, &mut Vec::new());
                }
                prod
            }
        };
        own + child_costs.iter().sum::<f64>()
    }
}

/// Render a plan tree as text, e.g. `((A ⋈ B) ⋈ C)`.
pub fn render(tree: &OpTree<RelOp>) -> String {
    match &tree.op {
        RelOp::Rel(name) => name.clone(),
        RelOp::Join => {
            let parts: Vec<String> = tree
                .children
                .iter()
                .map(|c| match c {
                    Child::Tree(t) => render(t),
                    Child::Group(g) => format!("g{g}"),
                })
                .collect();
            format!("({})", parts.join(" ⋈ "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::engine::expand;
    use super::*;
    use cobra::volcano::{best_plan, count_plans};

    #[test]
    fn initial_dag_matches_figure_4b() {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&["A", "B", "C"]), None);
        // Groups: A, B, C, AB, ABC.
        assert_eq!(memo.num_live_groups(), 5);
        assert_eq!(memo.group(root).len(), 1);
    }

    #[test]
    fn commutativity_yields_four_root_alternatives_like_figure_4c() {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&["A", "B", "C"]), None);
        expand(&mut memo, &[&JoinCommutativity], 16);
        // Root group: (AB)C and C(AB); AB group: AB and BA.
        assert_eq!(memo.group(root).len(), 2);
        assert_eq!(
            count_plans(&memo, root),
            4,
            "(A⋈B)⋈C, (B⋈A)⋈C, C⋈(A⋈B), C⋈(B⋈A)"
        );
    }

    #[test]
    fn commutativity_and_associativity_enumerate_all_orders() {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&["A", "B", "C"]), None);
        expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 32);
        // 3 relations: 3 group splits × 2 orders each at two levels = 12
        // distinct join trees.
        assert_eq!(count_plans(&memo, root), 12);
        // The three two-relation groups merged appropriately: live groups
        // are A, B, C, AB, AC, BC, ABC.
        assert_eq!(memo.num_live_groups(), 7);
    }

    #[test]
    fn cost_model_prefers_small_intermediate_results() {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&["A", "B", "C"]), None);
        expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 32);
        // A is huge; B and C are small. Best plan joins B and C first.
        let model = CardinalityCost::new([
            ("A".to_string(), 1_000_000.0),
            ("B".to_string(), 10.0),
            ("C".to_string(), 10.0),
        ]);
        let best = best_plan(&memo, root, &model).unwrap();
        let text = render(&best.tree);
        assert!(
            text == "(A ⋈ (B ⋈ C))"
                || text == "(A ⋈ (C ⋈ B))"
                || text == "((B ⋈ C) ⋈ A)"
                || text == "((C ⋈ B) ⋈ A)",
            "BC must join first, got {text}"
        );
    }

    #[test]
    fn four_relation_enumeration_is_complete() {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&["A", "B", "C", "D"]), None);
        expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 64);
        // #bushy plans on 4 relations = C(3)·4! / ... = 5 shapes × orders:
        // the classic count is 120 (binary trees with ordered children:
        // Catalan(3)=5 shapes × 4! leaf orders = 120).
        assert_eq!(count_plans(&memo, root), 120);
    }

    #[test]
    fn render_pretty_prints_plans() {
        let t = left_deep_join(&["A", "B"]);
        assert_eq!(render(&t), "(A ⋈ B)");
    }
}
