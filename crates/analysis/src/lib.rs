//! Static verification of F-IR programs and rewrite-rule outputs.
//!
//! Cobra's correctness story used to be entirely dynamic: unsound rewrites
//! were caught by the differential oracle *executing* hundreds of seeded
//! programs. This crate makes the same bug classes statically checkable,
//! so a broken rule is rejected in microseconds — before anything runs —
//! with a diagnostic naming the pass and the offending arena node.
//!
//! An alternative is a root tuple ([`fir::FirRoots`]) over the one arena
//! its loop's closure grows, so every pass takes `(arena, roots)`, and a
//! [`Verifier`] lives as long as one closure: what does not depend on the
//! candidate is computed once.
//!
//! Three passes (1 and 3 need only the candidate and run first; 2
//! compares it with the base):
//!
//! 1. **Well-formedness** ([`check_wellformed`]): arena references are
//!    acyclic and defined before use (the hash-consing invariant that
//!    every child id precedes its parent — the arena only grows, so each
//!    node is scanned once per closure, behind a watermark), fold
//!    `func`/`init` tuples are balanced against the accumulator list,
//!    query plans carry a bind for every parameter they use, and
//!    `requires_empty_init` names a real assignment.
//! 2. **Effect analysis** ([`effects`]): the read/write/call set of an
//!    alternative ([`EffectSet`]). The rewrite-soundness check
//!    ([`effects::check_rewrite`]) demands that a derived alternative
//!    preserve the base's effects (computed once per closure) modulo the
//!    rule's declared [`fir::EffectDelta`]: N1 may add prefetch reads, T5
//!    may introduce `coalesce`, and nothing may silently drop a write,
//!    change the tables read, or truncate a read with a `LIMIT` the base
//!    did not have (the `broken_limit_rule` bug class).
//! 3. **Binding-leak detection** ([`check_scopes`]): a scoped-environment
//!    walk asserting no row binding (`TupleVar`/`TupleAttr`) or fold
//!    accumulator marker (`AccParam`) escapes the fold body that defines
//!    it — the bug class behind PR 3's codegen binding leaks.
//!
//! The optimizer wires these in behind `OptimizerConfig::verify_rewrites`
//! (`VerifyLevel::{Off,Panic,Reject}`); see `cobra_core`.

pub mod effects;
pub mod scope;
pub mod wellformed;

pub use effects::{alternative_effects, EffectSet};
pub use scope::check_scopes;
pub use wellformed::check_wellformed;

use fir::{EffectDelta, FirArena, FirId, FirRoots};

/// Which verifier pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Pass 1 — structural well-formedness of the arena and alternative.
    WellFormed,
    /// Pass 2 — effect (read/write/call set) soundness of a rewrite.
    Effects,
    /// Pass 3 — binding/scope discipline (no leaks out of fold bodies).
    Scope,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pass::WellFormed => write!(f, "pass 1 (well-formedness)"),
            Pass::Effects => write!(f, "pass 2 (effect analysis)"),
            Pass::Scope => write!(f, "pass 3 (binding-leak)"),
        }
    }
}

/// A verification failure: the pass that found it, the offending arena
/// node (when one exists — a *dropped* write has no node to point at),
/// the rule whose application produced the alternative, and the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pass that rejected the alternative.
    pub pass: Pass,
    /// Offending node in the alternative's arena, if the defect is a node.
    pub node: Option<FirId>,
    /// The most recently applied rule (from `rules_applied`), if known.
    pub rule: Option<&'static str>,
    /// Human-readable description of the defect.
    pub message: String,
}

impl Diagnostic {
    fn new(pass: Pass, node: Option<FirId>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            pass,
            node,
            rule: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.pass)?;
        if let Some(node) = self.node {
            write!(f, " at node {node}")?;
        }
        if let Some(rule) = self.rule {
            write!(f, " [rule {rule}]")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for Diagnostic {}

/// The static verifier of one closure: every alternative derived from one
/// base over one (growing) arena. It holds what does not depend on the
/// candidate — the base's effect set and how far pass 1's def-before-use
/// scan of the arena got.
#[derive(Debug)]
pub struct Verifier {
    base: EffectSet,
    scanned: usize,
}

impl Verifier {
    /// A verifier for rewrites of `base`.
    #[must_use]
    pub fn new(arena: &FirArena, base: &FirRoots) -> Verifier {
        Verifier {
            base: alternative_effects(arena, base),
            scanned: 0,
        }
    }

    /// Full static verification of one candidate: passes 1 and 3 on it,
    /// then pass 2 comparing its effect set against the base's, modulo the
    /// applied rules' declared `delta`. `arena` is the arena the verifier
    /// was made over, possibly grown since.
    ///
    /// The returned diagnostic is attributed to the most recently applied
    /// rule (the last entry of `derived.rules_applied` past the `"toFIR"`
    /// base tag).
    ///
    /// # Errors
    ///
    /// The first [`Diagnostic`] any pass produces.
    pub fn verify(
        &mut self,
        arena: &FirArena,
        derived: &FirRoots,
        delta: &EffectDelta,
    ) -> Result<(), Diagnostic> {
        check_wellformed(arena, derived, &mut self.scanned)
            .and_then(|()| check_scopes(arena, derived))
            .and_then(|()| effects::check_rewrite(&self.base, arena, derived, delta))
            .map_err(|mut d| {
                let applied = derived.rules_applied.iter().rev();
                d.rule = applied.copied().find(|t| *t != "toFIR");
                d
            })
    }
}

/// One-shot [`Verifier::verify`]: `derived` against `base`, both over
/// `arena`.
///
/// # Errors
///
/// The first [`Diagnostic`] any pass produces.
pub fn verify_rewrite(
    arena: &FirArena,
    base: &FirRoots,
    derived: &FirRoots,
    delta: &EffectDelta,
) -> Result<(), Diagnostic> {
    Verifier::new(arena, base).verify(arena, derived, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::FirNode;
    use minidb::Value;

    fn single(root: FirId) -> FirRoots {
        FirRoots {
            prefetches: Vec::new(),
            assigns: vec![("out".to_string(), root)],
            rules_applied: vec!["toFIR"],
            requires_empty_init: None,
        }
    }

    #[test]
    fn diagnostic_display_names_pass_node_and_rule() {
        let mut d = Diagnostic::new(Pass::Effects, Some(17), "boom");
        d.rule = Some("Xbug");
        assert_eq!(
            d.to_string(),
            "pass 2 (effect analysis) at node 17 [rule Xbug]: boom"
        );
    }

    #[test]
    fn wellformed_rejects_out_of_range_project() {
        let mut arena = FirArena::new();
        let c = arena.add(FirNode::Const(Value::Int(1)));
        let tuple = arena.add(FirNode::Tuple(vec![c]));
        let bad = arena.add(FirNode::Project(tuple, 3));
        let diag = check_wellformed(&arena, &single(bad), &mut 0).unwrap_err();
        assert_eq!(diag.pass, Pass::WellFormed);
        assert_eq!(diag.node, Some(bad));
        assert!(diag.message.contains("out of range"), "{diag}");
    }

    #[test]
    fn wellformed_rejects_empty_assignment_list() {
        let mut alt = single(0);
        alt.assigns.clear();
        let diag = check_wellformed(&FirArena::new(), &alt, &mut 0).unwrap_err();
        assert!(diag.message.contains("no assignments"), "{diag}");
    }

    /// The def-before-use scan runs once per node: the watermark moves to
    /// the arena's end, covers only what was interned since on the next
    /// call, and stays at a dangling node — which then fails every
    /// alternative over that arena, whether or not it reaches the node.
    #[test]
    fn wellformed_scans_each_node_once_and_stops_at_a_dangling_one() {
        let mut arena = FirArena::new();
        let c = arena.add(FirNode::Const(Value::Int(1)));
        let mut scanned = 0;
        check_wellformed(&arena, &single(c), &mut scanned).unwrap();
        assert_eq!(scanned, 1);
        let not = arena.add(FirNode::Not(c));
        check_wellformed(&arena, &single(not), &mut scanned).unwrap();
        assert_eq!(scanned, 2);
        let dangling = arena.add(FirNode::Not(99));
        for root in [dangling, c] {
            let diag = check_wellformed(&arena, &single(root), &mut scanned).unwrap_err();
            assert_eq!(diag.node, Some(dangling));
            assert!(diag.message.contains("does not precede"), "{diag}");
            assert_eq!(scanned, dangling);
        }
    }

    #[test]
    fn scope_rejects_a_top_level_row_binding() {
        let mut arena = FirArena::new();
        let leak = arena.add(FirNode::TupleVar("o".to_string()));
        let diag = check_scopes(&arena, &single(leak)).unwrap_err();
        assert_eq!(diag.pass, Pass::Scope);
        assert_eq!(diag.node, Some(leak));
        assert!(diag.message.contains("escapes the fold body"), "{diag}");
    }

    #[test]
    fn check_rewrite_flags_dropped_write_and_honors_delta() {
        let mut arena = FirArena::new();
        let c = arena.add(FirNode::Const(Value::Int(1)));
        let base = FirRoots {
            assigns: vec![("a".to_string(), c), ("b".to_string(), c)],
            ..single(c)
        };
        let mut derived = base.clone();
        derived.assigns.pop();
        derived.rules_applied.push("Xdrop");
        let delta = EffectDelta::default();
        let diag = verify_rewrite(&arena, &base, &derived, &delta).unwrap_err();
        assert_eq!(diag.pass, Pass::Effects);
        assert_eq!(diag.rule, Some("Xdrop"));
        assert!(diag.message.contains("drops the write to `b`"), "{diag}");
        // The same pair with the write intact verifies clean.
        assert!(verify_rewrite(&arena, &base, &base, &delta).is_ok());
    }

    #[test]
    fn check_rewrite_allows_new_calls_only_when_declared() {
        let mut arena = FirArena::new();
        let c = arena.add(FirNode::Const(Value::Int(1)));
        let base = alternative_effects(&arena, &single(c));
        let call = arena.add(FirNode::Call("coalesce".to_string(), vec![c]));
        let derived = single(call);
        let undeclared = EffectDelta::default();
        let diag = effects::check_rewrite(&base, &arena, &derived, &undeclared).unwrap_err();
        assert!(diag.message.contains("coalesce"), "{diag}");
        let declared = EffectDelta::introduces_calls(&["coalesce"]);
        assert!(effects::check_rewrite(&base, &arena, &derived, &declared).is_ok());
    }
}
