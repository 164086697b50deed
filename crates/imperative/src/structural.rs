//! Structural analysis: region tree from the control-flow graph.
//!
//! This is the paper's construction (§III-B, following Muchnick): regions
//! are discovered by iteratively collapsing schema patterns in the CFG —
//! sequences, if-then, if-then-else, and while/cursor loops — until one
//! region remains. Fragments that match no pattern (a `break`'s edge out of
//! its loop, exceptional edges from `try/catch`) leave the reduction stuck,
//! and the analysis reports the function as unstructured.
//!
//! No search calls this module: production builds regions from the AST
//! ([`crate::regions::Region::from_function`]), where a `try/catch` becomes
//! a black box and a `break` stays a statement of its loop body. It is kept
//! as the independent reference for that builder on break-free, try-free
//! functions. `tests/structural_properties.rs` runs both over its own
//! generated programs and over the corpus everything else uses (500
//! generated seeds, the 32 Wilos fragments, P0/P1/P2/M0): on each function
//! the two agree in shape, or this one refuses and the function contains
//! `break` or `try`.

use crate::ast::Function;
use crate::cfg::{Cfg, NodeKind};
use crate::regions::{Region, RegionKind};

/// Why structural analysis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unstructured {
    /// The reduction got stuck with this many live nodes remaining.
    Irreducible { remaining: usize },
}

impl std::fmt::Display for Unstructured {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unstructured::Irreducible { remaining } => {
                write!(f, "irreducible control flow ({remaining} nodes left)")
            }
        }
    }
}

/// Node state during reduction.
#[derive(Debug, Clone)]
struct AbsNode {
    region: Region,
    kind: AbsKind,
    succs: Vec<usize>,
    preds: Vec<usize>,
    alive: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum AbsKind {
    Entry,
    Exit,
    Plain,
    LoopHead { var: String, iter: crate::ast::Expr },
    WhileHead { cond: crate::ast::Expr },
    Branch { cond: crate::ast::Expr },
}

/// Run structural analysis on `f`'s CFG.
pub fn analyze(f: &Function) -> Result<Region, Unstructured> {
    let cfg = Cfg::build(f);
    analyze_cfg(&cfg)
}

/// Run structural analysis on an already-built CFG.
pub fn analyze_cfg(cfg: &Cfg) -> Result<Region, Unstructured> {
    let mut g = Graph::from_cfg(cfg);
    g.reduce();
    g.finish()
}

struct Graph {
    nodes: Vec<AbsNode>,
    entry: usize,
    exit: usize,
}

impl Graph {
    fn from_cfg(cfg: &Cfg) -> Graph {
        let nodes = cfg
            .nodes
            .iter()
            .map(|n| {
                let (kind, region) = match &n.kind {
                    NodeKind::Entry => (AbsKind::Entry, Region::empty()),
                    NodeKind::Exit => (AbsKind::Exit, Region::empty()),
                    NodeKind::Join => (AbsKind::Plain, Region::empty()),
                    NodeKind::Simple(s) => (AbsKind::Plain, Region::from_stmt(s)),
                    NodeKind::LoopHead { var, iter } => (
                        AbsKind::LoopHead {
                            var: var.clone(),
                            iter: iter.clone(),
                        },
                        Region::empty(),
                    ),
                    NodeKind::WhileHead { cond } => {
                        (AbsKind::WhileHead { cond: cond.clone() }, Region::empty())
                    }
                    NodeKind::Branch { cond } => {
                        (AbsKind::Branch { cond: cond.clone() }, Region::empty())
                    }
                };
                AbsNode {
                    region,
                    kind,
                    succs: n.succs.clone(),
                    preds: n.preds.clone(),
                    alive: true,
                }
            })
            .collect();
        Graph {
            nodes,
            entry: cfg.entry,
            exit: cfg.exit,
        }
    }

    fn reduce(&mut self) {
        loop {
            if self.collapse_loop() || self.collapse_branch() || self.collapse_seq() {
                continue;
            }
            break;
        }
    }

    fn finish(self) -> Result<Region, Unstructured> {
        // Success: entry → (one plain node) → exit, or entry → exit.
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].alive)
            .collect();
        let inner: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| i != self.entry && i != self.exit)
            .collect();
        match inner.len() {
            0 => Ok(Region::empty()),
            1 if self.nodes[inner[0]].kind == AbsKind::Plain => {
                Ok(self.nodes[inner[0]].region.normalize())
            }
            n => Err(Unstructured::Irreducible { remaining: n }),
        }
    }

    // -- helpers --------------------------------------------------------

    fn kill(&mut self, id: usize) {
        self.nodes[id].alive = false;
        self.nodes[id].succs.clear();
        self.nodes[id].preds.clear();
    }

    fn remove_pred(&mut self, node: usize, pred: usize) {
        self.nodes[node].preds.retain(|&p| p != pred);
    }

    fn replace_pred(&mut self, node: usize, from: usize, to: usize) {
        for p in &mut self.nodes[node].preds {
            if *p == from {
                *p = to;
            }
        }
    }

    fn seq2(a: &Region, b: &Region) -> Region {
        let mut children = Vec::new();
        for r in [a, b] {
            match &r.kind {
                RegionKind::Empty => {}
                RegionKind::Seq(inner) => children.extend(inner.iter().cloned()),
                _ => children.push(r.clone()),
            }
        }
        match children.len() {
            0 => Region::empty(),
            1 => children.pop().unwrap(),
            _ => {
                let start = children
                    .iter()
                    .map(|c| c.span.0)
                    .filter(|&l| l > 0)
                    .min()
                    .unwrap_or(0);
                let end = children.iter().map(|c| c.span.1).max().unwrap_or(0);
                Region {
                    kind: RegionKind::Seq(children),
                    span: (start, end),
                }
            }
        }
    }

    /// Sequence rule: a → b with a single-succ, b single-pred, both plain.
    fn collapse_seq(&mut self) -> bool {
        for a in 0..self.nodes.len() {
            if !self.nodes[a].alive || self.nodes[a].kind != AbsKind::Plain {
                continue;
            }
            if self.nodes[a].succs.len() != 1 {
                continue;
            }
            let b = self.nodes[a].succs[0];
            if b == a || b == self.exit || !self.nodes[b].alive {
                continue;
            }
            if self.nodes[b].kind != AbsKind::Plain || self.nodes[b].preds.len() != 1 {
                continue;
            }
            // Merge b into a.
            let b_region = self.nodes[b].region.clone();
            let b_succs = self.nodes[b].succs.clone();
            self.nodes[a].region = Self::seq2(&self.nodes[a].region, &b_region);
            self.nodes[a].succs = b_succs.clone();
            for s in b_succs {
                self.replace_pred(s, b, a);
            }
            self.kill(b);
            return true;
        }
        false
    }

    /// Branch rules: if-then-else, if-then, if with empty branches.
    fn collapse_branch(&mut self) -> bool {
        for c in 0..self.nodes.len() {
            if !self.nodes[c].alive {
                continue;
            }
            let AbsKind::Branch { cond } = self.nodes[c].kind.clone() else {
                continue;
            };
            if self.nodes[c].succs.len() != 2 {
                continue;
            }
            let (t, e) = (self.nodes[c].succs[0], self.nodes[c].succs[1]);

            // Both branches empty: succs identical.
            if t == e {
                self.nodes[c].kind = AbsKind::Plain;
                self.nodes[c].region = Region {
                    kind: RegionKind::Cond {
                        cond,
                        then_r: Box::new(Region::empty()),
                        else_r: Box::new(Region::empty()),
                    },
                    span: self.nodes[c].region.span,
                };
                self.nodes[c].succs = vec![t];
                self.remove_pred(t, c);
                self.nodes[t].preds.push(c);
                return true;
            }

            let arm_ok = |g: &Graph, n: usize| {
                g.nodes[n].alive
                    && g.nodes[n].kind == AbsKind::Plain
                    && g.nodes[n].preds.len() == 1
                    && g.nodes[n].preds[0] == c
                    && g.nodes[n].succs.len() == 1
            };

            // If-then-else: both arms collapse to the same join.
            if arm_ok(self, t)
                && arm_ok(self, e)
                && self.nodes[t].succs[0] == self.nodes[e].succs[0]
            {
                let j = self.nodes[t].succs[0];
                if j == c {
                    continue;
                }
                let region = Region {
                    kind: RegionKind::Cond {
                        cond,
                        then_r: Box::new(self.nodes[t].region.clone()),
                        else_r: Box::new(self.nodes[e].region.clone()),
                    },
                    span: self.nodes[c].region.span,
                };
                self.nodes[c].kind = AbsKind::Plain;
                self.nodes[c].region = region;
                self.nodes[c].succs = vec![j];
                self.remove_pred(j, t);
                self.remove_pred(j, e);
                self.nodes[j].preds.push(c);
                self.kill(t);
                self.kill(e);
                return true;
            }

            // If-then: then-arm flows to the else-successor (the join).
            if arm_ok(self, t) && self.nodes[t].succs[0] == e {
                let region = Region {
                    kind: RegionKind::Cond {
                        cond,
                        then_r: Box::new(self.nodes[t].region.clone()),
                        else_r: Box::new(Region::empty()),
                    },
                    span: self.nodes[c].region.span,
                };
                self.nodes[c].kind = AbsKind::Plain;
                self.nodes[c].region = region;
                self.nodes[c].succs = vec![e];
                self.remove_pred(e, t);
                self.kill(t);
                return true;
            }

            // Empty-then: else-arm flows to the then-successor.
            if arm_ok(self, e) && self.nodes[e].succs[0] == t {
                let region = Region {
                    kind: RegionKind::Cond {
                        cond,
                        then_r: Box::new(Region::empty()),
                        else_r: Box::new(self.nodes[e].region.clone()),
                    },
                    span: self.nodes[c].region.span,
                };
                self.nodes[c].kind = AbsKind::Plain;
                self.nodes[c].region = region;
                self.nodes[c].succs = vec![t];
                self.remove_pred(t, e);
                self.kill(e);
                return true;
            }
        }
        false
    }

    /// Loop rule: header with succs [body, exit] where body's only edge
    /// returns to the header.
    fn collapse_loop(&mut self) -> bool {
        for h in 0..self.nodes.len() {
            if !self.nodes[h].alive {
                continue;
            }
            let (is_for, var_iter, cond) = match &self.nodes[h].kind {
                AbsKind::LoopHead { var, iter } => (true, Some((var.clone(), iter.clone())), None),
                AbsKind::WhileHead { cond } => (false, None, Some(cond.clone())),
                _ => continue,
            };
            if self.nodes[h].succs.len() != 2 {
                continue;
            }
            let (b, x) = (self.nodes[h].succs[0], self.nodes[h].succs[1]);

            // Empty body: self edge.
            let body_region = if b == h {
                Region::empty()
            } else {
                if !(self.nodes[b].alive
                    && self.nodes[b].kind == AbsKind::Plain
                    && self.nodes[b].preds.len() == 1
                    && self.nodes[b].preds[0] == h
                    && self.nodes[b].succs.len() == 1
                    && self.nodes[b].succs[0] == h)
                {
                    continue;
                }
                self.nodes[b].region.clone()
            };

            let span = self.nodes[h].region.span;
            let region = if is_for {
                let (var, iter) = var_iter.unwrap();
                Region {
                    kind: RegionKind::Loop {
                        var,
                        iter,
                        body: Box::new(body_region),
                    },
                    span,
                }
            } else {
                Region {
                    kind: RegionKind::WhileLoop {
                        cond: cond.unwrap(),
                        body: Box::new(body_region),
                    },
                    span,
                }
            };
            self.nodes[h].kind = AbsKind::Plain;
            self.nodes[h].region = region;
            self.nodes[h].succs = vec![x];
            // Remove the back edge from preds.
            if b == h {
                self.remove_pred(h, h);
            } else {
                self.remove_pred(h, b);
                self.kill(b);
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt, StmtKind};

    fn func(body: Vec<Stmt>) -> Function {
        let mut f = Function::new("t", vec![], body);
        f.number_lines(2);
        f
    }

    fn assert_matches_ast(f: &Function) {
        let from_cfg = analyze(f).expect("structured program must reduce");
        let from_ast = Region::from_function(f).normalize();
        assert!(
            from_cfg.same_shape(&from_ast),
            "CFG-derived region differs from AST-derived:\n{from_cfg:#?}\nvs\n{from_ast:#?}"
        );
    }

    #[test]
    fn straight_line_matches_ast_regions() {
        assert_matches_ast(&func(vec![
            Stmt::new(StmtKind::NewCollection("r".into())),
            Stmt::new(StmtKind::Let("x".into(), Expr::lit(1i64))),
            Stmt::new(StmtKind::Print(Expr::var("x"))),
        ]));
    }

    #[test]
    fn loop_matches_ast_regions() {
        assert_matches_ast(&func(vec![
            Stmt::new(StmtKind::NewCollection("r".into())),
            Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::LoadAll("Order".into()),
                body: vec![
                    Stmt::new(StmtKind::Let(
                        "v".into(),
                        Expr::field(Expr::var("o"), "o_id"),
                    )),
                    Stmt::new(StmtKind::Add("r".into(), Expr::var("v"))),
                ],
            }),
            Stmt::new(StmtKind::Print(Expr::var("r"))),
        ]));
    }

    #[test]
    fn if_then_else_matches_ast_regions() {
        assert_matches_ast(&func(vec![Stmt::new(StmtKind::If {
            cond: Expr::lit(true),
            then_branch: vec![Stmt::new(StmtKind::Print(Expr::lit(1i64)))],
            else_branch: vec![Stmt::new(StmtKind::Print(Expr::lit(2i64)))],
        })]));
    }

    #[test]
    fn if_then_without_else_matches_ast_regions() {
        assert_matches_ast(&func(vec![
            Stmt::new(StmtKind::Let("x".into(), Expr::lit(0i64))),
            Stmt::new(StmtKind::If {
                cond: Expr::lit(true),
                then_branch: vec![Stmt::new(StmtKind::Let("x".into(), Expr::lit(1i64)))],
                else_branch: vec![],
            }),
            Stmt::new(StmtKind::Print(Expr::var("x"))),
        ]));
    }

    #[test]
    fn nested_loop_and_if_matches_ast_regions() {
        assert_matches_ast(&func(vec![Stmt::new(StmtKind::ForEach {
            var: "a".into(),
            iter: Expr::LoadAll("A".into()),
            body: vec![Stmt::new(StmtKind::ForEach {
                var: "b".into(),
                iter: Expr::LoadAll("B".into()),
                body: vec![Stmt::new(StmtKind::If {
                    cond: Expr::bin(
                        minidb::BinOp::Eq,
                        Expr::field(Expr::var("a"), "x"),
                        Expr::field(Expr::var("b"), "y"),
                    ),
                    then_branch: vec![Stmt::new(StmtKind::Add("r".into(), Expr::var("b")))],
                    else_branch: vec![],
                })],
            })],
        })]));
    }

    #[test]
    fn while_loop_matches_ast_regions() {
        assert_matches_ast(&func(vec![Stmt::new(StmtKind::While {
            cond: Expr::bin(minidb::BinOp::Lt, Expr::var("i"), Expr::lit(10i64)),
            body: vec![Stmt::new(StmtKind::Let(
                "i".into(),
                Expr::bin(minidb::BinOp::Add, Expr::var("i"), Expr::lit(1i64)),
            ))],
        })]));
    }

    #[test]
    fn empty_loop_body_reduces() {
        let f = func(vec![Stmt::new(StmtKind::ForEach {
            var: "o".into(),
            iter: Expr::LoadAll("Order".into()),
            body: vec![],
        })]);
        let r = analyze(&f).unwrap();
        assert!(matches!(r.kind, RegionKind::Loop { .. }));
    }

    #[test]
    fn try_catch_is_unstructured() {
        let f = func(vec![
            Stmt::new(StmtKind::Let("x".into(), Expr::lit(0i64))),
            Stmt::new(StmtKind::TryCatch {
                body: vec![
                    Stmt::new(StmtKind::Print(Expr::lit(1i64))),
                    Stmt::new(StmtKind::Print(Expr::lit(2i64))),
                ],
                handler: vec![Stmt::new(StmtKind::Print(Expr::lit(3i64)))],
            }),
        ]);
        assert!(
            analyze(&f).is_err(),
            "exceptional edges defeat the reduction"
        );
    }

    #[test]
    fn break_makes_loop_unstructured_for_cfg_analysis() {
        // `break` introduces a second exit edge from the body; the simple
        // loop schema no longer matches. The AST path still produces a
        // loop region (and fold preconditions separately reject `break`).
        let f = func(vec![Stmt::new(StmtKind::ForEach {
            var: "o".into(),
            iter: Expr::LoadAll("Order".into()),
            body: vec![Stmt::new(StmtKind::If {
                cond: Expr::lit(true),
                then_branch: vec![Stmt::new(StmtKind::Break)],
                else_branch: vec![],
            })],
        })]);
        assert!(analyze(&f).is_err());
    }

    #[test]
    fn empty_function_reduces_to_empty_region() {
        let f = func(vec![]);
        let r = analyze(&f).unwrap();
        assert!(matches!(r.kind, RegionKind::Empty));
    }

    #[test]
    fn motivating_example_p0_reduces() {
        // P0 from Figure 3a.
        let f = func(vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::LoadAll("Order".into()),
                body: vec![
                    Stmt::new(StmtKind::Let(
                        "cust".into(),
                        Expr::nav(Expr::var("o"), "customer"),
                    )),
                    Stmt::new(StmtKind::Let(
                        "val".into(),
                        Expr::Call("myFunc".into(), vec![Expr::field(Expr::var("o"), "o_id")]),
                    )),
                    Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
                ],
            }),
        ]);
        assert_matches_ast(&f);
    }
}
