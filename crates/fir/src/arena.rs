//! The hash-consed F-IR expression DAG.

use minidb::{BinOp, SharedPlan, Value};
use std::collections::HashMap;

/// Index of a node in a [`FirArena`].
pub type FirId = usize;

/// An F-IR node.
///
/// Tuple variables are named by their loop variable so nested folds keep
/// their bindings apart (`TupleAttr("o", "o_id")` vs `TupleAttr("c", …)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FirNode {
    /// Constant.
    Const(Value),
    /// Value of a variable at region entry.
    Param(String),
    /// `<v>` — parametric accumulator value (updated every iteration).
    AccParam(String),
    /// The current tuple of the fold with loop variable `0`.
    TupleVar(String),
    /// Attribute of the named fold's current tuple (`Q.x` in the paper).
    TupleAttr(String, String),
    /// Binary operation.
    Bin(BinOp, FirId, FirId),
    /// Negation.
    Not(FirId),
    /// Pure scalar function call.
    Call(String, Vec<FirId>),
    /// Collection insertion function (`insert` in rules T1/T4).
    Insert(FirId, FirId),
    /// Map insertion: `mapput(map, key, value)`.
    MapPut(FirId, FirId, FirId),
    /// `?(pred, then, else)` — conditional value (rule T2/N2's `?`).
    Cond {
        pred: FirId,
        then_val: FirId,
        else_val: FirId,
    },
    /// Tuple of expressions (the fold extension of §V-B).
    Tuple(Vec<FirId>),
    /// `project_i` — extract one component of a tuple expression.
    Project(FirId, usize),
    /// An embedded query; `binds` map its named parameters to F-IR values
    /// (a bind referencing an enclosing fold's tuple makes it correlated).
    /// The plan is `Arc`-shared with a precomputed fingerprint, so arena
    /// interning hashes it in O(1) and clones are refcount bumps.
    Query {
        plan: SharedPlan,
        binds: Vec<(String, FirId)>,
    },
    /// A query used as a scalar (first column of first row).
    ScalarQuery {
        plan: SharedPlan,
        binds: Vec<(String, FirId)>,
    },
    /// Column of a single-row source (a lookup query or cache lookup).
    RowField(FirId, String),
    /// Client-cache lookup: rows of `table` whose `key_col` equals `key`.
    CacheLookup {
        table: String,
        key_col: String,
        key: FirId,
    },
    /// A collection variable available at region entry.
    CollectionParam(String),
    /// `fold(func, init, source)`; `func` and `init` are [`FirNode::Tuple`]s
    /// aligned with `updated` (the accumulator variables, in order).
    Fold {
        func: FirId,
        init: FirId,
        source: FirId,
        loop_var: String,
        updated: Vec<String>,
    },
}

impl FirNode {
    /// Visit the direct children, in order, without allocating (the `Vec`
    /// that [`FirArena::children`] returns is pure overhead in traversal
    /// hot loops). With [`FirNode::map_children`] this is the one
    /// definition of a node's child structure: traversal, rewriting and
    /// re-interning are all written on these two.
    pub fn for_each_child(&self, mut f: impl FnMut(FirId)) {
        match self {
            FirNode::Bin(_, l, r) | FirNode::Insert(l, r) => {
                f(*l);
                f(*r);
            }
            FirNode::Not(e) | FirNode::Project(e, _) | FirNode::RowField(e, _) => f(*e),
            FirNode::Call(_, args) | FirNode::Tuple(args) => {
                for a in args {
                    f(*a);
                }
            }
            FirNode::MapPut(a, b, c) => {
                f(*a);
                f(*b);
                f(*c);
            }
            FirNode::Cond {
                pred,
                then_val,
                else_val,
            } => {
                f(*pred);
                f(*then_val);
                f(*else_val);
            }
            FirNode::Query { binds, .. } | FirNode::ScalarQuery { binds, .. } => {
                for (_, e) in binds {
                    f(*e);
                }
            }
            FirNode::CacheLookup { key, .. } => f(*key),
            FirNode::Fold {
                func, init, source, ..
            } => {
                f(*func);
                f(*init);
                f(*source);
            }
            FirNode::Const(_)
            | FirNode::Param(_)
            | FirNode::AccParam(_)
            | FirNode::TupleVar(_)
            | FirNode::TupleAttr(_, _)
            | FirNode::CollectionParam(_) => {}
        }
    }

    /// This node with every child id replaced by `f(child)`, called in
    /// [`FirNode::for_each_child`] order; everything else is cloned.
    pub fn map_children(&self, mut f: impl FnMut(FirId) -> FirId) -> FirNode {
        let mut node = self.clone();
        match &mut node {
            FirNode::Bin(_, l, r) | FirNode::Insert(l, r) => {
                *l = f(*l);
                *r = f(*r);
            }
            FirNode::Not(e) | FirNode::Project(e, _) | FirNode::RowField(e, _) => *e = f(*e),
            FirNode::Call(_, args) | FirNode::Tuple(args) => {
                for a in args {
                    *a = f(*a);
                }
            }
            FirNode::MapPut(a, b, c) => {
                *a = f(*a);
                *b = f(*b);
                *c = f(*c);
            }
            FirNode::Cond {
                pred,
                then_val,
                else_val,
            } => {
                *pred = f(*pred);
                *then_val = f(*then_val);
                *else_val = f(*else_val);
            }
            FirNode::Query { binds, .. } | FirNode::ScalarQuery { binds, .. } => {
                for (_, e) in binds {
                    *e = f(*e);
                }
            }
            FirNode::CacheLookup { key, .. } => *key = f(*key),
            FirNode::Fold {
                func, init, source, ..
            } => {
                *func = f(*func);
                *init = f(*init);
                *source = f(*source);
            }
            FirNode::Const(_)
            | FirNode::Param(_)
            | FirNode::AccParam(_)
            | FirNode::TupleVar(_)
            | FirNode::TupleAttr(_, _)
            | FirNode::CollectionParam(_) => {}
        }
        node
    }
}

/// A hash-consed arena of F-IR nodes: structurally identical expressions
/// share one id, so common sub-expressions are shared (§V-B: "The
/// expressions may have common sub-expressions, which are shared").
///
/// One arena serves a whole loop: `loopToFold` fills it, the closure
/// driver grows it while the rules run, and every alternative of the loop
/// is a tuple of root ids into it ([`crate::FirRoots`]). Interning is
/// append-only, so an id stays valid and two alternatives are the same
/// exactly when their roots are the same ids; a node no assignment
/// reaches is part of no alternative. Not `Clone`: an alternative that
/// must stand alone is re-interned ([`FirArena::import`]). A node is one
/// allocation, shared by the id list and the interning index.
#[derive(Debug, Default)]
pub struct FirArena {
    nodes: Vec<std::sync::Arc<FirNode>>,
    index: HashMap<std::sync::Arc<FirNode>, FirId>,
}

impl FirArena {
    /// Empty arena.
    pub fn new() -> FirArena {
        FirArena::default()
    }

    /// Intern a node.
    pub fn add(&mut self, node: FirNode) -> FirId {
        // `Arc<FirNode>: Borrow<FirNode>` lets the owned map be probed by
        // reference without allocating.
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        let node = std::sync::Arc::new(node);
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// The node behind `id`.
    pub fn node(&self, id: FirId) -> &FirNode {
        &self.nodes[id]
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rewrite the DAG rooted at `id`, replacing nodes for which `subst`
    /// returns a replacement id. Children are rewritten first; `subst` is
    /// consulted on the *original* node id.
    pub fn rewrite(
        &mut self,
        id: FirId,
        subst: &impl Fn(FirId, &FirNode) -> Option<FirNode>,
    ) -> FirId {
        let node = self.nodes[id].clone();
        let rebuilt = match subst(id, &node) {
            Some(replacement) => replacement,
            None => node.map_children(|c| self.rewrite(c, subst)),
        };
        self.add(rebuilt)
    }

    /// Re-intern the DAG rooted at `id` of another arena here and return
    /// its id in this one. `memo` maps the ids of `from` already imported;
    /// pass the same map for every root taken from the same arena.
    pub fn import(
        &mut self,
        from: &FirArena,
        id: FirId,
        memo: &mut HashMap<FirId, FirId>,
    ) -> FirId {
        if let Some(&here) = memo.get(&id) {
            return here;
        }
        let node = from.node(id).map_children(|c| self.import(from, c, memo));
        let here = self.add(node);
        memo.insert(id, here);
        here
    }

    /// Collect every node id reachable from `id` (including itself),
    /// in post-order.
    pub fn reachable(&self, id: FirId) -> Vec<FirId> {
        let mut seen = Vec::new();
        let mut order = Vec::new();
        self.reachable_into(id, &mut seen, &mut order);
        order
    }

    /// [`FirArena::reachable`] into caller-owned buffers — hot loops
    /// traverse many roots and reuse one pair of scratch vectors instead
    /// of allocating per call. `order` is cleared and refilled.
    pub fn reachable_into(&self, id: FirId, seen: &mut Vec<bool>, order: &mut Vec<FirId>) {
        seen.clear();
        seen.resize(self.nodes.len(), false);
        order.clear();
        self.visit(id, seen, order);
    }

    /// True when `target` is reachable from `from`: a node is interned
    /// once, so it is `target` exactly when it is the same allocation.
    pub fn reaches(&self, from: FirId, target: FirId) -> bool {
        let target = self.node(target);
        self.any(from, &|n| std::ptr::eq(n, target))
    }

    fn visit(&self, id: FirId, seen: &mut Vec<bool>, order: &mut Vec<FirId>) {
        if seen[id] {
            return;
        }
        seen[id] = true;
        self.node(id).for_each_child(|c| self.visit(c, seen, order));
        order.push(id);
    }

    /// Direct children of a node.
    pub fn children(&self, id: FirId) -> Vec<FirId> {
        let mut out = Vec::new();
        self.node(id).for_each_child(|c| out.push(c));
        out
    }

    /// True if any node reachable from `id` satisfies `pred` — an
    /// early-exit DFS that stops at the first match and visits shared
    /// sub-DAGs once (no post-order or `reachable` vector is built).
    pub fn any(&self, id: FirId, pred: &impl Fn(&FirNode) -> bool) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            if pred(self.node(n)) {
                return true;
            }
            self.node(n).for_each_child(|c| stack.push(c));
        }
        false
    }

    /// Paper-style rendering, e.g. `fold(<sum> + t.sale_amt, tuple(0), Q)`.
    pub fn display(&self, id: FirId) -> String {
        match self.node(id) {
            FirNode::Const(v) => match v {
                Value::Str(s) => format!("{s:?}"),
                other => other.to_string(),
            },
            FirNode::Param(v) => v.clone(),
            FirNode::AccParam(v) => format!("<{v}>"),
            FirNode::TupleVar(v) => v.clone(),
            FirNode::TupleAttr(v, c) => format!("{v}.{c}"),
            FirNode::Bin(op, l, r) => {
                format!("({} {} {})", self.display(*l), op.sql(), self.display(*r))
            }
            FirNode::Not(e) => format!("not({})", self.display(*e)),
            FirNode::Call(f, args) => {
                let parts: Vec<String> = args.iter().map(|a| self.display(*a)).collect();
                format!("{f}({})", parts.join(", "))
            }
            FirNode::Insert(c, e) => {
                format!("insert({}, {})", self.display(*c), self.display(*e))
            }
            FirNode::MapPut(m, k, v) => format!(
                "mapput({}, {}, {})",
                self.display(*m),
                self.display(*k),
                self.display(*v)
            ),
            FirNode::Cond {
                pred,
                then_val,
                else_val,
            } => format!(
                "?({}, {}, {})",
                self.display(*pred),
                self.display(*then_val),
                self.display(*else_val)
            ),
            FirNode::Tuple(items) => {
                let parts: Vec<String> = items.iter().map(|i| self.display(*i)).collect();
                format!("tuple({})", parts.join(", "))
            }
            FirNode::Project(t, i) => format!("project{i}({})", self.display(*t)),
            node @ (FirNode::Query { plan, binds } | FirNode::ScalarQuery { plan, binds }) => {
                let q = match node {
                    FirNode::Query { .. } => "Q",
                    _ => "scalarQ",
                };
                let sql = minidb::sql::print(plan);
                if binds.is_empty() {
                    return format!("{q}[{sql}]");
                }
                let bs: Vec<String> = binds
                    .iter()
                    .map(|(p, e)| format!("{p}={}", self.display(*e)))
                    .collect();
                format!("{q}[{sql} | {}]", bs.join(", "))
            }
            FirNode::RowField(r, c) => format!("{}.{c}", self.display(*r)),
            FirNode::CacheLookup {
                table,
                key_col,
                key,
            } => {
                format!("lookup({table}.{key_col} = {})", self.display(*key))
            }
            FirNode::CollectionParam(v) => v.clone(),
            FirNode::Fold {
                func, init, source, ..
            } => format!(
                "fold({}, {}, {})",
                self.display(*func),
                self.display(*init),
                self.display(*source)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_identical_nodes() {
        let mut a = FirArena::new();
        let x1 = a.add(FirNode::Param("x".into()));
        let x2 = a.add(FirNode::Param("x".into()));
        assert_eq!(x1, x2);
        let one = a.add(FirNode::Const(Value::Int(1)));
        let s1 = a.add(FirNode::Bin(BinOp::Add, x1, one));
        let s2 = a.add(FirNode::Bin(BinOp::Add, x2, one));
        assert_eq!(s1, s2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn display_matches_paper_style() {
        // Figure 8's fold for the sum accumulator.
        let mut a = FirArena::new();
        let acc = a.add(FirNode::AccParam("sum".into()));
        let attr = a.add(FirNode::TupleAttr("t".into(), "sale_amt".into()));
        let add = a.add(FirNode::Bin(BinOp::Add, acc, attr));
        let func = a.add(FirNode::Tuple(vec![add]));
        let zero = a.add(FirNode::Const(Value::Int(0)));
        let init = a.add(FirNode::Tuple(vec![zero]));
        let q = a.add(FirNode::Query {
            plan: minidb::sql::parse("select month, sale_amt from sales order by month")
                .unwrap()
                .into(),
            binds: vec![],
        });
        let fold = a.add(FirNode::Fold {
            func,
            init,
            source: q,
            loop_var: "t".into(),
            updated: vec!["sum".into()],
        });
        let text = a.display(fold);
        assert!(
            text.starts_with("fold(tuple((<sum> + t.sale_amt)), tuple(0), Q["),
            "{text}"
        );
    }

    #[test]
    fn rewrite_substitutes_and_rebuilds() {
        let mut a = FirArena::new();
        let acc = a.add(FirNode::AccParam("v".into()));
        let attr = a.add(FirNode::TupleAttr("t".into(), "x".into()));
        let add = a.add(FirNode::Bin(BinOp::Add, acc, attr));
        // Rename tuple variable t → j.
        let renamed = a.rewrite(add, &|_, n| match n {
            FirNode::TupleAttr(v, c) if v == "t" => Some(FirNode::TupleAttr("j".into(), c.clone())),
            _ => None,
        });
        assert_eq!(a.display(renamed), "(<v> + j.x)");
        // Original untouched.
        assert_eq!(a.display(add), "(<v> + t.x)");
    }

    #[test]
    fn reachable_is_post_order_and_complete() {
        let mut a = FirArena::new();
        let x = a.add(FirNode::Param("x".into()));
        let y = a.add(FirNode::Param("y".into()));
        let add = a.add(FirNode::Bin(BinOp::Add, x, y));
        let order = a.reachable(add);
        assert_eq!(order, vec![x, y, add]);
    }

    #[test]
    fn any_detects_predicate() {
        let mut a = FirArena::new();
        let x = a.add(FirNode::Param("x".into()));
        let q = a.add(FirNode::Query {
            plan: minidb::sql::parse("select * from t").unwrap().into(),
            binds: vec![("p".into(), x)],
        });
        assert!(a.any(q, &|n| matches!(n, FirNode::Param(_))));
        assert!(!a.any(q, &|n| matches!(n, FirNode::Fold { .. })));
    }
}
