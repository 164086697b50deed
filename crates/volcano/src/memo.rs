//! The memo: an AND-OR DAG with hash-consing and group merging.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// Identifier of a group (OR node).
pub type GroupId = usize;
/// Identifier of an m-expr (AND node).
pub type MExprId = usize;

/// An operator tree used to feed expressions into the memo. Children are
/// either references to existing groups (shared sub-results) or nested
/// trees (new structure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTree<Op> {
    /// Root operator.
    pub op: Op,
    /// Children in operator order.
    pub children: Vec<Child<Op>>,
}

/// A child of an [`OpTree`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Child<Op> {
    /// Reference to an existing group.
    Group(GroupId),
    /// A nested tree to be inserted.
    Tree(Box<OpTree<Op>>),
}

impl<Op> OpTree<Op> {
    /// Leaf operator (no children).
    pub fn leaf(op: Op) -> OpTree<Op> {
        OpTree {
            op,
            children: Vec::new(),
        }
    }

    /// Operator over nested trees.
    pub fn node(op: Op, children: Vec<OpTree<Op>>) -> OpTree<Op> {
        OpTree {
            op,
            children: children
                .into_iter()
                .map(|t| Child::Tree(Box::new(t)))
                .collect(),
        }
    }

    /// Operator over existing groups.
    pub fn over_groups(op: Op, groups: Vec<GroupId>) -> OpTree<Op> {
        OpTree {
            op,
            children: groups.into_iter().map(Child::Group).collect(),
        }
    }
}

/// An AND node: an operator applied to child groups.
#[derive(Debug, Clone)]
pub struct MExpr<Op> {
    /// The operator.
    pub op: Op,
    /// Child groups (canonical ids at insert time; call
    /// [`Memo::find`] on read to stay canonical after merges).
    pub children: Vec<GroupId>,
    /// The group this expression belongs to.
    pub group: GroupId,
}

/// The AND-OR DAG.
#[derive(Debug, Clone)]
pub struct Memo<Op: Clone + Eq + Hash + Debug> {
    exprs: Vec<MExpr<Op>>,
    /// Expressions per group (canonical groups only).
    group_exprs: Vec<Vec<MExprId>>,
    /// Union-find parent per group.
    parent: Vec<GroupId>,
    /// Hash-consing index: (operator hash, canonical children) → candidate
    /// m-exprs. Keying on a 64-bit operator *hash* instead of a cloned
    /// operator keeps insertion free of deep `Op` clones; candidates in a
    /// bucket are disambiguated with a full equality check.
    index: HashMap<(u64, Vec<GroupId>), Vec<MExprId>>,
    /// Incremented on every group merge (including cascades); cost caches
    /// key their validity on this (see [`crate::CostMemo`]).
    merge_epoch: u64,
}

/// Streaming FNV-1a 64: the crate's one deterministic hasher, behind both
/// the memo's hash-consing index and [`crate::tree_fingerprint`]
/// (`minidb::StableHasher` is the same function one layer up; volcano
/// stays dependency-free).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Deterministic hash of an operator, so index keys are reproducible
/// (`RandomState` would also work — the hash never leaves the process —
/// but determinism costs nothing and keeps debugging sane).
fn op_hash<Op: Hash>(op: &Op) -> u64 {
    let mut h = Fnv::new();
    op.hash(&mut h);
    h.finish()
}

impl<Op: Clone + Eq + Hash + Debug> Default for Memo<Op> {
    fn default() -> Self {
        Memo::new()
    }
}

impl<Op: Clone + Eq + Hash + Debug> Memo<Op> {
    /// Empty memo.
    pub fn new() -> Memo<Op> {
        Memo {
            exprs: Vec::new(),
            group_exprs: Vec::new(),
            parent: Vec::new(),
            index: HashMap::new(),
            merge_epoch: 0,
        }
    }

    /// How many group merges have happened so far (monotone). A change
    /// means previously-read group structure may be stale — memoized cost
    /// layers use this to invalidate their caches.
    pub fn merge_epoch(&self) -> u64 {
        self.merge_epoch
    }

    /// Number of groups (including merged-away ones).
    pub fn num_groups(&self) -> usize {
        self.parent.len()
    }

    /// Number of live (canonical) groups.
    pub fn num_live_groups(&self) -> usize {
        (0..self.parent.len())
            .filter(|&g| self.parent[g] == g)
            .count()
    }

    /// Number of m-exprs.
    pub fn num_exprs(&self) -> usize {
        self.exprs.len()
    }

    /// Canonical representative of a group.
    pub fn find(&self, g: GroupId) -> GroupId {
        let mut g = g;
        while self.parent[g] != g {
            g = self.parent[g];
        }
        g
    }

    /// The m-exprs of a group.
    pub fn group(&self, g: GroupId) -> &[MExprId] {
        &self.group_exprs[self.find(g)]
    }

    /// An m-expr by id.
    pub fn expr(&self, id: MExprId) -> &MExpr<Op> {
        &self.exprs[id]
    }

    /// Iterate over all m-expr ids.
    pub fn expr_ids(&self) -> impl Iterator<Item = MExprId> {
        0..self.exprs.len()
    }

    fn new_group(&mut self) -> GroupId {
        let g = self.parent.len();
        self.parent.push(g);
        self.group_exprs.push(Vec::new());
        g
    }

    /// Insert a tree, returning the group holding its root. If `into` is
    /// given, the root expression is added to that group (asserting
    /// equivalence — this is how transformation alternatives register);
    /// otherwise the root lands in the group hash-consing dictates (a new
    /// group for a novel expression, an existing one for a duplicate).
    pub fn insert_tree(&mut self, tree: &OpTree<Op>, into: Option<GroupId>) -> GroupId {
        self.insert_tree_full(tree, into).0
    }

    /// [`Memo::insert_tree`] also returning the root's m-expr id (stable
    /// across group merges — provenance trackers key on it).
    pub fn insert_tree_full(
        &mut self,
        tree: &OpTree<Op>,
        into: Option<GroupId>,
    ) -> (GroupId, MExprId) {
        let child_groups: Vec<GroupId> = tree
            .children
            .iter()
            .map(|c| match c {
                Child::Group(g) => self.find(*g),
                Child::Tree(t) => self.insert_tree(t, None),
            })
            .collect();
        self.insert_expr_full(tree.op.clone(), child_groups, into)
    }

    /// Insert an operator over canonical child groups.
    pub fn insert_expr(
        &mut self,
        op: Op,
        children: Vec<GroupId>,
        into: Option<GroupId>,
    ) -> GroupId {
        self.insert_expr_full(op, children, into).0
    }

    /// [`Memo::insert_expr`] also returning the m-expr id — the existing
    /// expression's id when hash-consing finds a duplicate.
    pub fn insert_expr_full(
        &mut self,
        op: Op,
        children: Vec<GroupId>,
        into: Option<GroupId>,
    ) -> (GroupId, MExprId) {
        let children: Vec<GroupId> = children.into_iter().map(|g| self.find(g)).collect();
        let key = (op_hash(&op), children.clone());
        if let Some(cands) = self.index.get(&key) {
            if let Some(&existing) = cands.iter().find(|&&e| self.exprs[e].op == op) {
                let home = self.find(self.exprs[existing].group);
                if let Some(target) = into {
                    let target = self.find(target);
                    if target != home {
                        // The same expression appears in two groups: they
                        // compute the same result → merge.
                        self.merge(home, target);
                    }
                }
                return (self.find(home), existing);
            }
        }
        let group = match into {
            Some(g) => self.find(g),
            None => self.new_group(),
        };
        let id = self.exprs.len();
        self.exprs.push(MExpr {
            op,
            children,
            group,
        });
        self.group_exprs[group].push(id);
        self.index.entry(key).or_default().push(id);
        // No canonicalization needed: children are already canonical and a
        // fresh expression cannot trigger a merge, so the (O(#exprs) index
        // rebuild) pass would be a no-op. Only [`Memo::merge`] has to
        // re-canonicalize.
        (group, id)
    }

    /// Merge groups `a` and `b` (they compute the same result).
    pub fn merge(&mut self, a: GroupId, b: GroupId) {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return;
        }
        // Keep the smaller id as representative for stable tests.
        let (keep, drop) = if a < b { (a, b) } else { (b, a) };
        self.merge_epoch += 1;
        self.parent[drop] = keep;
        let moved = std::mem::take(&mut self.group_exprs[drop]);
        for id in &moved {
            self.exprs[*id].group = keep;
        }
        self.group_exprs[keep].extend(moved);
        self.canonicalize();
    }

    /// Re-canonicalize after merges: child references must resolve to
    /// canonical groups, and expressions that become identical after a
    /// merge must unify (possibly cascading further merges).
    fn canonicalize(&mut self) {
        loop {
            let mut pending_merge: Option<(GroupId, GroupId)> = None;
            let mut rebuilt: HashMap<(u64, Vec<GroupId>), Vec<MExprId>> =
                HashMap::with_capacity(self.exprs.len());
            for id in 0..self.exprs.len() {
                let canon_children: Vec<GroupId> = self.exprs[id]
                    .children
                    .iter()
                    .map(|&c| self.find(c))
                    .collect();
                self.exprs[id].children = canon_children.clone();
                let key = (op_hash(&self.exprs[id].op), canon_children);
                let prior = rebuilt
                    .get(&key)
                    .and_then(|cands| {
                        cands
                            .iter()
                            .find(|&&e| self.exprs[e].op == self.exprs[id].op)
                    })
                    .copied();
                match prior {
                    None => {
                        rebuilt.entry(key).or_default().push(id);
                    }
                    Some(prior) => {
                        let g1 = self.find(self.exprs[prior].group);
                        let g2 = self.find(self.exprs[id].group);
                        if g1 != g2 {
                            pending_merge = Some((g1, g2));
                            break;
                        }
                        // Same group duplicate: drop `id` from the group.
                        let g = self.find(self.exprs[id].group);
                        self.group_exprs[g].retain(|&e| e != id);
                    }
                }
            }
            match pending_merge {
                Some((a, b)) => {
                    let (keep, drop) = if a < b { (a, b) } else { (b, a) };
                    self.merge_epoch += 1;
                    self.parent[drop] = keep;
                    let moved = std::mem::take(&mut self.group_exprs[drop]);
                    for id in &moved {
                        self.exprs[*id].group = keep;
                    }
                    self.group_exprs[keep].extend(moved);
                    // Loop again: the merge may cascade.
                }
                None => {
                    self.index = rebuilt;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy operator for memo tests.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum TOp {
        Leaf(&'static str),
        Pair,
    }

    fn pair(l: OpTree<TOp>, r: OpTree<TOp>) -> OpTree<TOp> {
        OpTree::node(TOp::Pair, vec![l, r])
    }

    #[test]
    fn inserting_a_tree_creates_groups_bottom_up() {
        let mut memo = Memo::new();
        let root = memo.insert_tree(
            &pair(OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b"))),
            None,
        );
        assert_eq!(memo.num_live_groups(), 3);
        assert_eq!(memo.group(root).len(), 1);
    }

    #[test]
    fn duplicate_trees_are_hash_consed() {
        let mut memo = Memo::new();
        let t = pair(OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b")));
        let g1 = memo.insert_tree(&t, None);
        let g2 = memo.insert_tree(&t, None);
        assert_eq!(g1, g2);
        assert_eq!(memo.num_exprs(), 3, "a, b, pair — no duplicates");
    }

    #[test]
    fn alternatives_join_the_target_group() {
        let mut memo = Memo::new();
        let t = pair(OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b")));
        let root = memo.insert_tree(&t, None);
        // Add the commuted alternative into the same group.
        let commuted = pair(OpTree::leaf(TOp::Leaf("b")), OpTree::leaf(TOp::Leaf("a")));
        let g = memo.insert_tree(&commuted, Some(root));
        assert_eq!(memo.find(g), memo.find(root));
        assert_eq!(memo.group(root).len(), 2);
    }

    #[test]
    fn reinserting_alternative_is_idempotent() {
        let mut memo = Memo::new();
        let t = pair(OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b")));
        let root = memo.insert_tree(&t, None);
        let commuted = pair(OpTree::leaf(TOp::Leaf("b")), OpTree::leaf(TOp::Leaf("a")));
        memo.insert_tree(&commuted, Some(root));
        memo.insert_tree(&commuted, Some(root));
        memo.insert_tree(&t, Some(root));
        assert_eq!(memo.group(root).len(), 2, "cyclic rules terminate");
    }

    #[test]
    fn same_expr_in_two_groups_merges_them() {
        let mut memo = Memo::new();
        let t1 = pair(OpTree::leaf(TOp::Leaf("a")), OpTree::leaf(TOp::Leaf("b")));
        let t2 = pair(OpTree::leaf(TOp::Leaf("c")), OpTree::leaf(TOp::Leaf("d")));
        let g1 = memo.insert_tree(&t1, None);
        let g2 = memo.insert_tree(&t2, None);
        assert_ne!(memo.find(g1), memo.find(g2));
        // Assert t1 is also an alternative of g2 → groups merge.
        memo.insert_tree(&t1, Some(g2));
        assert_eq!(memo.find(g1), memo.find(g2));
        let merged = memo.group(g1).len();
        assert_eq!(merged, 2);
    }

    #[test]
    fn merge_cascades_through_parents() {
        // p1 = Pair(a, b), p2 = Pair(a, c); q1 = Pair(p1, x), q2 = Pair(p2, x).
        // Merging group(b) with group(c) must make p1 == p2, cascading to
        // q1 == q2.
        let mut memo = Memo::new();
        let a = memo.insert_tree(&OpTree::leaf(TOp::Leaf("a")), None);
        let b = memo.insert_tree(&OpTree::leaf(TOp::Leaf("b")), None);
        let c = memo.insert_tree(&OpTree::leaf(TOp::Leaf("c")), None);
        let x = memo.insert_tree(&OpTree::leaf(TOp::Leaf("x")), None);
        let p1 = memo.insert_expr(TOp::Pair, vec![a, b], None);
        let p2 = memo.insert_expr(TOp::Pair, vec![a, c], None);
        let q1 = memo.insert_expr(TOp::Pair, vec![p1, x], None);
        let q2 = memo.insert_expr(TOp::Pair, vec![p2, x], None);
        assert_ne!(memo.find(q1), memo.find(q2));
        memo.merge(b, c);
        assert_eq!(memo.find(p1), memo.find(p2), "parents unified");
        assert_eq!(memo.find(q1), memo.find(q2), "merge cascades");
    }

    #[test]
    fn group_lookup_follows_union_find() {
        let mut memo = Memo::new();
        let a = memo.insert_tree(&OpTree::leaf(TOp::Leaf("a")), None);
        let b = memo.insert_tree(&OpTree::leaf(TOp::Leaf("b")), None);
        memo.merge(a, b);
        assert_eq!(memo.find(a), memo.find(b));
        assert_eq!(memo.group(a).len(), 2);
        assert_eq!(memo.group(b).len(), 2);
    }

    #[test]
    fn shared_subtrees_are_represented_once() {
        // Figure 6c property: P0.B2 appears once although it is part of
        // three alternative programs.
        let mut memo = Memo::new();
        let shared = OpTree::leaf(TOp::Leaf("B2"));
        let g_shared = memo.insert_tree(&shared, None);
        let alt1 = OpTree::over_groups(TOp::Pair, vec![g_shared, g_shared]);
        let root = memo.insert_tree(&alt1, None);
        let other = memo.insert_tree(&OpTree::leaf(TOp::Leaf("L")), None);
        let alt2 = OpTree::over_groups(TOp::Pair, vec![g_shared, other]);
        memo.insert_tree(&alt2, Some(root));
        // "B2" exists exactly once among all exprs.
        let count = memo
            .expr_ids()
            .filter(|&i| memo.expr(i).op == TOp::Leaf("B2"))
            .count();
        assert_eq!(count, 1);
    }
}
