//! Control-flow graph lowering.
//!
//! Each simple statement becomes one CFG node (the paper treats every
//! statement as a basic block, footnote 4). Compound statements lower to
//! header/branch nodes plus edges:
//!
//! * `if` → a branch node whose first successor is the then-entry and
//!   second the else-entry (or the join when a branch is empty),
//! * loops → a header node with successors `[body-entry, loop-exit]` and a
//!   back edge from the body tail to the header,
//! * `break` → an edge to the innermost loop's exit join,
//! * `return` → an edge to the function exit,
//! * `try/catch` → an edge from *every* node of the body to the handler
//!   entry (exceptional flow), which makes the fragment unstructured.
//!
//! The only consumer is [`crate::structural`], the reference region
//! builder; see there for why both are kept though no search calls them.

use crate::ast::{Expr, Function, Stmt, StmtKind};

/// Index of a node in the CFG.
pub type NodeId = usize;

/// What a CFG node represents.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// A single simple statement.
    Simple(Stmt),
    /// Cursor-loop header `for (var : iter)`.
    LoopHead { var: String, iter: Expr },
    /// While-loop header.
    WhileHead { cond: Expr },
    /// Conditional branch on `cond`.
    Branch { cond: Expr },
    /// Control-flow merge point.
    Join,
}

/// A CFG node with ordered successor/predecessor lists.
///
/// Successor order is semantic: for a branch, `succs[0]` is the then-edge
/// and `succs[1]` the else-edge; for loop headers, `succs[0]` enters the
/// body and `succs[1]` leaves the loop.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node payload.
    pub kind: NodeKind,
    /// Source line of the originating statement (0 if synthetic).
    pub line: u32,
    /// Ordered successors.
    pub succs: Vec<NodeId>,
    /// Predecessors (order not significant).
    pub preds: Vec<NodeId>,
}

/// A function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All nodes; indices are [`NodeId`]s.
    pub nodes: Vec<Node>,
    /// The entry node.
    pub entry: NodeId,
    /// The exit node.
    pub exit: NodeId,
}

impl Cfg {
    /// Build the CFG of a function body.
    pub fn build(f: &Function) -> Cfg {
        let mut b = Builder {
            nodes: Vec::new(),
            loop_exits: Vec::new(),
            exit: 0,
        };
        let entry = b.add(NodeKind::Entry, 0);
        let exit = b.add(NodeKind::Exit, 0);
        b.exit = exit;
        let tail = b.lower_list(&f.body, Some(entry));
        if let Some(t) = tail {
            b.edge(t, exit);
        }
        Cfg {
            nodes: b.nodes,
            entry,
            exit,
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no statement nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| matches!(n.kind, NodeKind::Entry | NodeKind::Exit))
    }

    /// All nodes reachable from entry (DFS preorder).
    pub fn reachable(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack = vec![self.entry];
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            order.push(n);
            for &s in self.nodes[n].succs.iter().rev() {
                if !seen[s] {
                    stack.push(s);
                }
            }
        }
        order
    }
}

struct Builder {
    nodes: Vec<Node>,
    /// Stack of loop-exit join nodes, for `break`.
    loop_exits: Vec<NodeId>,
    exit: NodeId,
}

impl Builder {
    fn add(&mut self, kind: NodeKind, line: u32) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            kind,
            line,
            succs: Vec::new(),
            preds: Vec::new(),
        });
        id
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        self.nodes[from].succs.push(to);
        self.nodes[to].preds.push(from);
    }

    /// Lower a statement list starting after `current` (the node control
    /// currently flows from). Returns the new tail, or `None` if control
    /// cannot fall through (return/break).
    fn lower_list(&mut self, stmts: &[Stmt], mut current: Option<NodeId>) -> Option<NodeId> {
        for stmt in stmts {
            let Some(cur) = current else { break }; // unreachable code dropped
            current = self.lower_stmt(stmt, cur);
        }
        current
    }

    fn lower_stmt(&mut self, stmt: &Stmt, current: NodeId) -> Option<NodeId> {
        match &stmt.kind {
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch = self.add(NodeKind::Branch { cond: cond.clone() }, stmt.line);
                self.edge(current, branch);
                let join = self.add(NodeKind::Join, 0);
                // Then edge first: successor order encodes branch polarity.
                if then_branch.is_empty() {
                    self.edge(branch, join);
                } else {
                    let entry = self.reserve_entry(then_branch, branch);
                    let tail = self.lower_list(&then_branch[1..], Some(entry));
                    if let Some(t) = tail {
                        self.edge(t, join);
                    }
                }
                if else_branch.is_empty() {
                    self.edge(branch, join);
                } else {
                    let entry = self.reserve_entry(else_branch, branch);
                    let tail = self.lower_list(&else_branch[1..], Some(entry));
                    if let Some(t) = tail {
                        self.edge(t, join);
                    }
                }
                Some(join)
            }
            StmtKind::ForEach { var, iter, body } => {
                let head = self.add(
                    NodeKind::LoopHead {
                        var: var.clone(),
                        iter: iter.clone(),
                    },
                    stmt.line,
                );
                self.edge(current, head);
                let exit = self.add(NodeKind::Join, 0);
                self.loop_exits.push(exit);
                let tail = self.lower_list(body, Some(head));
                self.loop_exits.pop();
                if let Some(t) = tail {
                    if t == head {
                        // Empty body: self back edge.
                        self.edge(head, head);
                    } else {
                        self.edge(t, head);
                    }
                }
                // Order: succs[0] entered the body above; exit edge second.
                self.edge(head, exit);
                self.fix_loop_succ_order(head);
                Some(exit)
            }
            StmtKind::While { cond, body } => {
                let head = self.add(NodeKind::WhileHead { cond: cond.clone() }, stmt.line);
                self.edge(current, head);
                let exit = self.add(NodeKind::Join, 0);
                self.loop_exits.push(exit);
                let tail = self.lower_list(body, Some(head));
                self.loop_exits.pop();
                if let Some(t) = tail {
                    if t == head {
                        self.edge(head, head);
                    } else {
                        self.edge(t, head);
                    }
                }
                self.edge(head, exit);
                self.fix_loop_succ_order(head);
                Some(exit)
            }
            StmtKind::Return(_) => {
                let node = self.add(NodeKind::Simple(stmt.clone()), stmt.line);
                self.edge(current, node);
                let exit = self.exit;
                self.edge(node, exit);
                None
            }
            StmtKind::Break => {
                let node = self.add(NodeKind::Simple(stmt.clone()), stmt.line);
                self.edge(current, node);
                let target = *self
                    .loop_exits
                    .last()
                    .expect("break outside of loop is rejected by construction");
                self.edge(node, target);
                None
            }
            StmtKind::TryCatch { body, handler } => {
                let join = self.add(NodeKind::Join, 0);
                let before = self.nodes.len();
                let tail = self.lower_list(body, Some(current));
                let body_nodes: Vec<NodeId> = (before..self.nodes.len()).collect();
                // Handler entry.
                let handler_entry = self.add(NodeKind::Join, 0);
                let h_tail = self.lower_list(handler, Some(handler_entry));
                // Exceptional edges: any body node may jump to the handler.
                for n in body_nodes {
                    self.edge(n, handler_entry);
                }
                if let Some(t) = tail {
                    self.edge(t, join);
                }
                if let Some(t) = h_tail {
                    self.edge(t, join);
                }
                Some(join)
            }
            _ => {
                let node = self.add(NodeKind::Simple(stmt.clone()), stmt.line);
                self.edge(current, node);
                Some(node)
            }
        }
    }

    /// Lower the first statement of a branch so the branch's outgoing edge
    /// order stays [then, else]; returns the node to continue from.
    fn reserve_entry(&mut self, stmts: &[Stmt], branch: NodeId) -> NodeId {
        // Lower only the first statement here; caller lowers the rest.
        self.lower_stmt(&stmts[0], branch).unwrap_or_else(|| {
            // First statement was return/break: continue from a dead join
            // that has no successors (unreachable continuation).
            self.add(NodeKind::Join, 0)
        })
    }

    /// Ensure a loop head's successors are ordered [body, exit]. The body
    /// edge was added first, but an empty body adds a self edge late.
    fn fix_loop_succ_order(&mut self, head: NodeId) {
        let succs = &mut self.nodes[head].succs;
        if succs.len() == 2 && succs[0] != head && succs[1] == head {
            succs.swap(0, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(kind: StmtKind) -> Stmt {
        Stmt::new(kind)
    }

    fn func(body: Vec<Stmt>) -> Function {
        let mut f = Function::new("t", vec![], body);
        f.number_lines(1);
        f
    }

    #[test]
    fn straight_line_chains_nodes() {
        let f = func(vec![
            simple(StmtKind::NewCollection("r".into())),
            simple(StmtKind::Print(Expr::lit(1i64))),
        ]);
        let cfg = Cfg::build(&f);
        // entry, exit, 2 statements
        assert_eq!(cfg.len(), 4);
        let entry_succ = cfg.nodes[cfg.entry].succs[0];
        assert!(matches!(cfg.nodes[entry_succ].kind, NodeKind::Simple(_)));
        let second = cfg.nodes[entry_succ].succs[0];
        assert_eq!(cfg.nodes[second].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_diamond() {
        let f = func(vec![simple(StmtKind::If {
            cond: Expr::lit(true),
            then_branch: vec![simple(StmtKind::Print(Expr::lit(1i64)))],
            else_branch: vec![simple(StmtKind::Print(Expr::lit(2i64)))],
        })]);
        let cfg = Cfg::build(&f);
        let branch = cfg.nodes[cfg.entry].succs[0];
        assert!(matches!(cfg.nodes[branch].kind, NodeKind::Branch { .. }));
        assert_eq!(cfg.nodes[branch].succs.len(), 2);
        let t = cfg.nodes[branch].succs[0];
        let e = cfg.nodes[branch].succs[1];
        assert_eq!(cfg.nodes[t].succs, cfg.nodes[e].succs, "both reach join");
    }

    #[test]
    fn loop_has_back_edge_and_ordered_succs() {
        let f = func(vec![simple(StmtKind::ForEach {
            var: "o".into(),
            iter: Expr::LoadAll("Order".into()),
            body: vec![simple(StmtKind::Print(Expr::var("o")))],
        })]);
        let cfg = Cfg::build(&f);
        let head = cfg.nodes[cfg.entry].succs[0];
        let NodeKind::LoopHead { .. } = cfg.nodes[head].kind else {
            panic!()
        };
        assert_eq!(cfg.nodes[head].succs.len(), 2);
        let body = cfg.nodes[head].succs[0];
        assert!(matches!(cfg.nodes[body].kind, NodeKind::Simple(_)));
        assert_eq!(cfg.nodes[body].succs, vec![head], "back edge");
    }

    #[test]
    fn break_targets_loop_exit() {
        let f = func(vec![simple(StmtKind::ForEach {
            var: "o".into(),
            iter: Expr::LoadAll("Order".into()),
            body: vec![simple(StmtKind::Break)],
        })]);
        let cfg = Cfg::build(&f);
        let head = cfg.nodes[cfg.entry].succs[0];
        let exit_join = cfg.nodes[head].succs[1];
        let brk = cfg.nodes[head].succs[0];
        assert_eq!(cfg.nodes[brk].succs, vec![exit_join]);
    }

    #[test]
    fn return_goes_to_function_exit() {
        let f = func(vec![
            simple(StmtKind::Return(Some(Expr::lit(1i64)))),
            simple(StmtKind::Print(Expr::lit(2i64))), // dead
        ]);
        let cfg = Cfg::build(&f);
        let ret = cfg.nodes[cfg.entry].succs[0];
        assert_eq!(cfg.nodes[ret].succs, vec![cfg.exit]);
        // Statements after an unconditional return are dropped entirely.
        let prints = cfg
            .nodes
            .iter()
            .filter(|n| {
                matches!(&n.kind, NodeKind::Simple(s)
                    if matches!(s.kind, StmtKind::Print(_)))
            })
            .count();
        assert_eq!(prints, 0);
    }

    #[test]
    fn try_catch_adds_exceptional_edges() {
        let f = func(vec![simple(StmtKind::TryCatch {
            body: vec![
                simple(StmtKind::Print(Expr::lit(1i64))),
                simple(StmtKind::Print(Expr::lit(2i64))),
            ],
            handler: vec![simple(StmtKind::Print(Expr::lit(3i64)))],
        })]);
        let cfg = Cfg::build(&f);
        // Both body statements must have 2 successors (normal + handler).
        let two_succ_simples = cfg
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Simple(_)) && n.succs.len() == 2)
            .count();
        assert_eq!(two_succ_simples, 2);
    }

    #[test]
    fn empty_function_links_entry_to_exit() {
        let f = func(vec![]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.nodes[cfg.entry].succs, vec![cfg.exit]);
        assert!(cfg.is_empty());
    }

    #[test]
    fn reachable_covers_loop_bodies() {
        let f = func(vec![simple(StmtKind::ForEach {
            var: "o".into(),
            iter: Expr::LoadAll("Order".into()),
            body: vec![simple(StmtKind::Print(Expr::var("o")))],
        })]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.reachable().len(), cfg.len());
    }
}
