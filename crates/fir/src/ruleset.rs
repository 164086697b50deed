//! First-class transformation rules: a named, toggleable rule registry
//! and the closure driver that applies it.
//!
//! COBRA's contract (Figure 1) is *program + transformation rules + cost
//! model → least-cost program*. This module makes the middle input a real
//! API object: every F-IR transformation (T1–T5, N1, N2) is a named
//! [`Rule`], and a [`RuleSet`] is the registry the closure driver
//! [`expand_with`] consults. Rules can be disabled for ablation studies,
//! per-tenant configurations, or debugging, and user rules can be
//! registered alongside the standard set.
//!
//! A rule only *describes* what it derives — a [`Derivation`]: which nodes
//! to replace or which assignments to install, under which tag, with which
//! prefetch obligations. The driver alone turns a description into an
//! alternative, so there is one place that re-roots assignments and
//! records which rule fired. Every alternative of a loop is a root tuple
//! ([`FirRoots`]) over the one arena the closure grows, so an alternative
//! seen before is recognised by comparing ids — the way the Volcano memo
//! ends cyclic rules.
//!
//! Rule T3 (pushing scalar functions into query projections) has no
//! registry entry: it is subsumed by the F-IR ⇄ SQL expression translation
//! that T2/T5 perform and cannot fire (or be disabled) on its own.
//!
//! The registry's iteration order **is** the exploration order of the
//! closure driver, and with it which alternative wins a cost tie and
//! which ones a tight budget keeps; [`RuleSet::standard`] fixes it so
//! results are reproducible across releases.

use crate::arena::{FirArena, FirId, FirNode};
use crate::build::{FirAlternative, FirRoots, Prefetch};
use crate::rules;
use std::collections::HashSet;
use std::sync::Arc;

/// How a [`Derivation`] differs from the alternative it was derived from.
#[derive(Debug, Clone)]
pub enum Change {
    /// Replace each listed node, wherever the assignments reach it.
    Nodes(Vec<(FirId, FirNode)>),
    /// Install this assignment list instead.
    Assigns(Vec<(String, FirId)>),
}

/// One derived alternative, as the rule that found it describes it.
/// Everything not named here is inherited from the source alternative.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// Recorded in [`FirRoots::rules_applied`]: the rule's name,
    /// optionally followed by a non-alphanumeric qualifier
    /// (`"T5-partial"`) — see [`RuleSet::delta_for_applied`].
    pub tag: &'static str,
    /// The rewrite itself.
    pub change: Change,
    /// Prefetch obligations the rewrite adds (rule N1).
    pub prefetches: Vec<Prefetch>,
    /// Set when the rewrite is only valid if this collection variable is
    /// empty at region entry (rule T1).
    pub requires_empty_init: Option<String>,
}

impl Derivation {
    /// A derivation with no prefetches and no entry condition.
    pub fn new(tag: &'static str, change: Change) -> Derivation {
        Derivation {
            tag,
            change,
            prefetches: Vec::new(),
            requires_empty_init: None,
        }
    }

    /// The derivation that replaces the one node `old` by `new`.
    pub fn replace(tag: &'static str, old: FirId, new: FirNode) -> Derivation {
        Derivation::new(tag, Change::Nodes(vec![(old, new)]))
    }
}

/// The one shape of a rule: `rule(arena, assigns, site)`.
///
/// The driver calls every enabled rule on each alternative first with
/// `site == None` (the alternative as a whole) and then once per fold
/// reachable from `assigns`, innermost first (`Some(fold)`); a rule
/// answers at the sites it rewrites and returns `None` elsewhere and
/// whenever it does not match. `arena` is the one every alternative of
/// the loop shares: a rule interns the new nodes its derivations mention
/// (interning is append-only, and a node no assignment reaches is part of
/// no alternative) but never builds an alternative itself.
pub type RuleFn = dyn Fn(&mut FirArena, &[(String, FirId)], Option<FirId>) -> Option<Vec<Derivation>>
    + Send
    + Sync;

/// The side effects a rule is *allowed* to add to an alternative, checked
/// by the static rewrite verifier (`crates/analysis`).
///
/// A sound rewrite preserves the base alternative's observable effects:
/// same tables read, same variables written, same scalar functions
/// invoked. Some rules legitimately deviate — N1 adds prefetch reads, T5
/// wraps aggregates in `coalesce` — and declare that here. Everything not
/// declared is a verification error, so an undeclared deviation (a rule
/// that drops a write, steals rows with a `LIMIT`, or reads a new table)
/// is rejected statically before the oracle ever executes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EffectDelta {
    /// The rewrite may read tables the base did not (N1's prefetches).
    pub may_add_reads: bool,
    /// The rewrite may stop reading tables the base read.
    pub may_drop_reads: bool,
    /// Scalar functions the rewrite may introduce (T5's `coalesce` guard
    /// around empty aggregates).
    pub may_introduce_calls: Vec<&'static str>,
}

impl EffectDelta {
    /// Delta for rules that add reads (prefetching).
    pub fn adds_reads() -> EffectDelta {
        EffectDelta {
            may_add_reads: true,
            ..EffectDelta::default()
        }
    }

    /// Delta for rules that introduce the named scalar calls.
    pub fn introduces_calls(calls: &[&'static str]) -> EffectDelta {
        EffectDelta {
            may_introduce_calls: calls.to_vec(),
            ..EffectDelta::default()
        }
    }

    /// Fold `other`'s allowances into `self` (union of permissions).
    pub fn union_with(&mut self, other: &EffectDelta) {
        self.may_add_reads |= other.may_add_reads;
        self.may_drop_reads |= other.may_drop_reads;
        for call in &other.may_introduce_calls {
            if !self.may_introduce_calls.contains(call) {
                self.may_introduce_calls.push(call);
            }
        }
    }
}

/// A named transformation rule: one of the paper's T/N rules or a
/// user-registered extension.
#[derive(Clone)]
pub struct Rule {
    name: &'static str,
    description: &'static str,
    effects: EffectDelta,
    apply: Option<Arc<RuleFn>>,
}

impl Rule {
    /// A rule the closure driver applies (see [`RuleFn`]).
    pub fn new(
        name: &'static str,
        description: &'static str,
        apply: impl Fn(&mut FirArena, &[(String, FirId)], Option<FirId>) -> Option<Vec<Derivation>>
            + Send
            + Sync
            + 'static,
    ) -> Rule {
        Rule {
            apply: Some(Arc::new(apply)),
            ..Rule::name_only(name, description)
        }
    }

    /// A rule implemented outside the F-IR closure engine; the embedding
    /// optimizer consults [`RuleSet::is_enabled`] by name (procedure
    /// inlining).
    pub fn name_only(name: &'static str, description: &'static str) -> Rule {
        Rule {
            name,
            description,
            effects: EffectDelta::default(),
            apply: None,
        }
    }

    /// Declare the effect deviations this rule is allowed to introduce
    /// (builder style). Undeclared deviations are rejected by the static
    /// verifier when `OptimizerConfig::verify_rewrites` is on.
    pub fn with_effects(mut self, effects: EffectDelta) -> Rule {
        self.effects = effects;
        self
    }

    /// The rule's declared effect allowances.
    pub fn effects(&self) -> &EffectDelta {
        &self.effects
    }

    /// The rule's name (`"T1"` … `"N2"`, or a user-chosen name).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description of what the rule does.
    pub fn description(&self) -> &'static str {
        self.description
    }
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("description", &self.description)
            .field("name_only", &self.apply.is_none())
            .finish()
    }
}

/// The registry of transformation rules the optimizer explores, with
/// per-rule enable/disable toggles.
///
/// ```
/// use fir::RuleSet;
///
/// let mut rules = RuleSet::standard();
/// assert!(rules.is_enabled("N1"));
/// rules.disable("N1"); // ablate prefetching
/// assert!(!rules.is_enabled("N1"));
/// ```
#[derive(Clone, Default)]
pub struct RuleSet {
    rules: Vec<(Rule, bool)>,
}

impl RuleSet {
    /// An empty registry (no transformations; the optimizer can only keep
    /// programs as written).
    pub fn empty() -> RuleSet {
        RuleSet { rules: Vec::new() }
    }

    /// The paper's standard rule set: T1–T5 and N1/N2, plus the `inline`
    /// rule (procedure inlining, the enabler of pattern D) which the
    /// Region-DAG optimizer applies outside the F-IR engine.
    ///
    /// Registry order is exploration order: T5, N1 and T1 answer on the
    /// whole alternative, then T2, N2 and T4 at each fold.
    pub fn standard() -> RuleSet {
        let none = EffectDelta::default;
        let table: [(&str, &str, EffectDelta, Option<Arc<RuleFn>>); 7] = [
            (
                "T5",
                "extract aggregations into SQL (full and partial)",
                EffectDelta::introduces_calls(&["coalesce"]),
                Some(Arc::new(rules::t5_aggregation)),
            ),
            (
                "N1",
                "prefetch relations client-side; lookups probe the cache",
                EffectDelta::adds_reads(),
                Some(Arc::new(rules::n1_prefetch)),
            ),
            (
                "T1",
                "fold(insert, {}, Q) = Q: a loop materializing a query is the query",
                none(),
                Some(Arc::new(rules::t1_fold_removal)),
            ),
            (
                "T2",
                "push a common conditional predicate into the source query",
                none(),
                Some(Arc::new(rules::t2_predicate_push)),
            ),
            (
                "N2",
                "pull a selection out of the source query (reverse of T2)",
                none(),
                Some(Arc::new(rules::n2_selection_pull)),
            ),
            (
                "T4",
                "iterative lookups / nested folds become joins",
                none(),
                Some(Arc::new(rules::t4_joins)),
            ),
            (
                "inline",
                "inline procedure calls so loop bodies expose their queries (pattern D)",
                none(),
                None,
            ),
        ];
        let rule = |(name, description, effects, apply)| Rule {
            name,
            description,
            effects,
            apply,
        };
        RuleSet {
            rules: table.into_iter().map(|row| (rule(row), true)).collect(),
        }
    }

    /// Register a rule (enabled). Re-registering a name replaces the old
    /// rule, keeping its position and toggle state.
    pub fn register(&mut self, rule: Rule) {
        if let Some(slot) = self.rules.iter_mut().find(|(r, _)| r.name == rule.name) {
            slot.0 = rule;
        } else {
            self.rules.push((rule, true));
        }
    }

    /// Builder-style [`RuleSet::register`].
    pub fn with_rule(mut self, rule: Rule) -> RuleSet {
        self.register(rule);
        self
    }

    /// Enable a rule by name; returns whether the name was known.
    pub fn enable(&mut self, name: &str) -> bool {
        self.set_enabled(name, true)
    }

    /// Disable a rule by name; returns whether the name was known.
    pub fn disable(&mut self, name: &str) -> bool {
        self.set_enabled(name, false)
    }

    /// Builder-style [`RuleSet::disable`] (unknown names are ignored).
    pub fn without(mut self, name: &str) -> RuleSet {
        self.disable(name);
        self
    }

    fn set_enabled(&mut self, name: &str, on: bool) -> bool {
        match self.rules.iter_mut().find(|(r, _)| r.name == name) {
            Some(slot) => {
                slot.1 = on;
                true
            }
            None => false,
        }
    }

    /// Is the named rule registered and enabled?
    pub fn is_enabled(&self, name: &str) -> bool {
        self.rules
            .iter()
            .any(|(r, enabled)| r.name == name && *enabled)
    }

    /// All registered rule names, in registry (exploration) order.
    pub fn names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|(r, _)| r.name).collect()
    }

    /// The registered rules with their toggle state.
    pub fn rules(&self) -> impl Iterator<Item = (&Rule, bool)> {
        self.rules.iter().map(|(r, e)| (r, *e))
    }

    /// The enabled rules, in registry (exploration) order.
    pub fn enabled(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|(_, e)| *e).map(|(r, _)| r)
    }

    /// The combined [`EffectDelta`] of every rule named in an
    /// alternative's [`FirRoots::rules_applied`] tag list.
    ///
    /// Tags are either a rule name verbatim (`"T5"`, `"N1"`) or a rule
    /// name followed by a non-alphanumeric qualifier (`"T5-partial"`,
    /// `"T4/T5var(lookup-to-join)"`); the synthetic `"toFIR"` base tag and
    /// tags of unregistered rules contribute nothing, so an unknown rule
    /// gets the strictest (empty) allowance.
    pub fn delta_for_applied(&self, tags: &[&str]) -> EffectDelta {
        let mut delta = EffectDelta::default();
        for tag in tags {
            for (rule, _) in &self.rules {
                let matches = *tag == rule.name
                    || (tag.starts_with(rule.name)
                        && tag[rule.name.len()..]
                            .chars()
                            .next()
                            .is_some_and(|c| !c.is_ascii_alphanumeric()));
                if matches {
                    delta.union_with(&rule.effects);
                }
            }
        }
        delta
    }

    /// Number of registered rules (enabled or not).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for (r, enabled) in &self.rules {
            map.entry(&r.name, enabled);
        }
        map.finish()
    }
}

/// The result of closing a base alternative under a rule set.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// The base plus every derived alternative, each one once, all over
    /// the same arena (`Arc::ptr_eq`).
    pub alternatives: Vec<FirAlternative>,
    /// True when the `max_alternatives` budget stopped the closure before
    /// it reached a fixpoint — alternatives were dropped, and the caller
    /// should surface that instead of truncating silently.
    pub truncated: bool,
    /// Diagnostics for alternatives a [`RewriteVerifier`] rejected. Empty
    /// unless the closure ran through [`expand_with_verifier`] and the
    /// verifier returned `Err` for some derivation.
    pub rejected: Vec<String>,
}

/// A soundness check run on every new alternative the closure driver
/// derives (and on the base), *before* it is emitted or expanded further.
/// Called as `verifier(arena, candidate)` with the closure's arena as it
/// stands; the callback knows the base it checks against. An `Err`
/// diagnostic drops the candidate (and everything only derivable from it)
/// and is collected in [`Expansion::rejected`].
pub type RewriteVerifier<'a> = &'a mut dyn FnMut(&FirArena, &FirRoots) -> Result<(), String>;

/// Close `base` under the enabled rules of `rules`, keeping each
/// alternative once and stopping after `max_alternatives` (the T2 ⇄ N2
/// cycle ends on an alternative already seen, exactly the way cyclic
/// rules terminate in the Volcano memo).
pub fn expand_with(base: FirAlternative, rules: &RuleSet, max_alternatives: usize) -> Expansion {
    expand_with_verifier(base, rules, max_alternatives, None)
}

/// What makes two root tuples over one arena the same alternative: the
/// prefetches as a set, the assignments and the entry condition — not the
/// rule path that led there.
fn identity(alt: &FirRoots) -> (Vec<Prefetch>, Vec<(String, FirId)>, Option<String>) {
    let mut prefetches = alt.prefetches.clone();
    prefetches.sort();
    let entry = alt.requires_empty_init.clone();
    (prefetches, alt.assigns.clone(), entry)
}

/// [`expand_with`] with an optional per-alternative soundness check. With
/// `verifier == None` this is byte-for-byte `expand_with`: the closure
/// order and truncation behavior are identical.
pub fn expand_with_verifier(
    base: FirAlternative,
    rules: &RuleSet,
    max_alternatives: usize,
    mut verifier: Option<RewriteVerifier<'_>>,
) -> Expansion {
    let enabled: Vec<&RuleFn> = rules
        .enabled()
        .filter_map(|rule| rule.apply.as_deref())
        .collect();

    // The closure grows the base's arena in place; a base that shares its
    // arena (a clone, an alternative of an earlier expansion) is first
    // re-interned alone.
    let alone = Arc::strong_count(&base.arena) == 1;
    let base = if alone { base } else { base.isolated() };
    let mut arena = Arc::into_inner(base.arena).expect("sole holder of the base's arena");

    let mut out: Vec<FirRoots> = Vec::new();
    let mut seen = HashSet::new();
    let mut queue: Vec<FirRoots> = vec![base.roots];
    let mut truncated = false;
    let mut rejected: Vec<String> = Vec::new();
    while let Some(alt) = queue.pop() {
        let key = identity(&alt);
        if seen.contains(&key) {
            continue;
        }
        if out.len() >= max_alternatives {
            // A genuinely new alternative exists but the budget is spent:
            // the closure was clipped. (A closure that completes exactly
            // at the bound drains the queue through the check above and
            // never reaches this point.)
            truncated = true;
            break;
        }
        seen.insert(key);
        if let Some(check) = verifier.as_mut() {
            if let Err(why) = check(&arena, &alt) {
                // Unsound: drop the alternative without expanding it.
                rejected.push(why);
                continue;
            }
        }

        // Site-outer, rule-inner: the order derivations are queued in is
        // the exploration order.
        let folds = rules::reachable_folds(&arena, &alt.assigns);
        let mut derived = Vec::new();
        for site in std::iter::once(None).chain(folds.into_iter().map(Some)) {
            for rule in &enabled {
                derived.extend(rule(&mut arena, &alt.assigns, site).unwrap_or_default());
            }
        }
        queue.extend(derived.into_iter().map(|d| derive(&mut arena, &alt, d)));
        out.push(alt);
    }
    let arena = Arc::new(arena);
    let alternatives = out.into_iter().map(|roots| FirAlternative {
        arena: arena.clone(),
        roots,
    });
    Expansion {
        alternatives: alternatives.collect(),
        truncated,
        rejected,
    }
}

/// Build the root tuple `d` describes — the only place one is assembled
/// outside `loopToFold`. Replaced nodes are rewritten into the shared
/// arena; nothing is copied.
fn derive(arena: &mut FirArena, alt: &FirRoots, d: Derivation) -> FirRoots {
    let assigns = match d.change {
        Change::Assigns(assigns) => assigns,
        Change::Nodes(replaced) => {
            let subst = |id: FirId, _: &FirNode| {
                let (_, new) = replaced.iter().find(|(old, _)| *old == id)?;
                Some(new.clone())
            };
            let reroot = |(v, root): &(String, FirId)| (v.clone(), arena.rewrite(*root, &subst));
            alt.assigns.iter().map(reroot).collect()
        }
    };
    let mut prefetches = alt.prefetches.clone();
    for p in d.prefetches {
        if !prefetches.contains(&p) {
            prefetches.push(p);
        }
    }
    let mut rules_applied = alt.rules_applied.clone();
    rules_applied.push(d.tag);
    FirRoots {
        prefetches,
        assigns,
        rules_applied,
        requires_empty_init: d
            .requires_empty_init
            .or_else(|| alt.requires_empty_init.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::loop_to_fold;
    use imperative::ast::{Expr, Stmt, StmtKind};
    use orm::{EntityMapping, MappingRegistry};

    fn mappings() -> MappingRegistry {
        let mut r = MappingRegistry::new();
        r.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
            "customer",
            "Customer",
            "o_customer_sk",
        ));
        r.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
        r
    }

    fn p0_alternative() -> FirAlternative {
        let body = vec![
            Stmt::new(StmtKind::Let(
                "cust".into(),
                Expr::nav(Expr::var("o"), "customer"),
            )),
            Stmt::new(StmtKind::Add(
                "result".into(),
                Expr::field(Expr::var("cust"), "c_birth_year"),
            )),
        ];
        loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["result".to_string()]),
        )
        .unwrap()
    }

    /// `for (o : orders) { if (o.o_id > 10) result.add(o.customer.c_birth_year) }`
    /// — T2 can push the test, N1 can prefetch the lookup, in either order.
    fn filtered_lookup_loop() -> FirAlternative {
        let keep = Expr::bin(
            minidb::BinOp::Gt,
            Expr::field(Expr::var("o"), "o_id"),
            Expr::lit(10i64),
        );
        let then_branch = vec![
            Stmt::new(StmtKind::Let(
                "cust".into(),
                Expr::nav(Expr::var("o"), "customer"),
            )),
            Stmt::new(StmtKind::Add(
                "result".into(),
                Expr::field(Expr::var("cust"), "c_birth_year"),
            )),
        ];
        let body = vec![Stmt::new(StmtKind::If {
            cond: keep,
            then_branch,
            else_branch: vec![],
        })];
        loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&["result".to_string()]),
        )
        .unwrap()
    }

    /// The standard rules with everything but `names` disabled.
    fn only(names: &[&str]) -> RuleSet {
        let mut set = RuleSet::standard();
        for name in set.names() {
            if !names.contains(&name) {
                set.disable(name);
            }
        }
        set
    }

    /// T2 and N1 commute, so `N1(T2(base))` and `T2(N1(base))` are one
    /// alternative reached by two derivation orders: the closure holds it
    /// once, under the tags of the order it met first.
    #[test]
    fn two_derivation_orders_reach_one_entry() {
        let exp = expand_with(filtered_lookup_loop(), &only(&["T2", "N1"]), 64);
        let tags: Vec<&[&str]> = exp
            .alternatives
            .iter()
            .map(|a| &a.roots.rules_applied[1..])
            .collect();
        let expected: [&[&str]; 4] = [&[], &["T2"], &["T2", "N1"], &["N1"]];
        assert_eq!(tags, expected);
        assert!(!exp.truncated);
        // Each order on its own reaches the entry the closure kept. (These
        // bases share the expansion's arena, so the driver re-interns them.)
        let both = exp.alternatives[2].key();
        let t2_then_n1 = expand_with(exp.alternatives[1].clone(), &only(&["N1"]), 64);
        let n1_then_t2 = expand_with(exp.alternatives[3].clone(), &only(&["T2"]), 64);
        assert_eq!(t2_then_n1.alternatives[1].key(), both);
        assert_eq!(n1_then_t2.alternatives[1].key(), both);
    }

    /// Identity is `FirId` equality: every alternative of an expansion
    /// points into the same arena, and N2 applied to T2's output is the
    /// base's root tuple id for id — the cycle ends on a comparison of
    /// integers, not of text or hashes.
    #[test]
    fn t2_then_n2_comes_back_to_the_bases_root_tuple() {
        let exp = expand_with(filtered_lookup_loop(), &RuleSet::standard(), 64);
        let shared = &exp.alternatives[0].arena;
        assert!(exp
            .alternatives
            .iter()
            .all(|a| Arc::ptr_eq(&a.arena, shared)));

        let base = filtered_lookup_loop();
        let mut arena = Arc::into_inner(base.arena).unwrap();
        let mut at_the_fold = |alt: &FirRoots, rule: &RuleFn| {
            let fold = rules::reachable_folds(&arena, &alt.assigns)[0];
            let d = rule(&mut arena, &alt.assigns, Some(fold))
                .unwrap()
                .remove(0);
            derive(&mut arena, alt, d)
        };
        let pushed = at_the_fold(&base.roots, &rules::t2_predicate_push);
        assert_ne!(identity(&pushed), identity(&base.roots));
        let back = at_the_fold(&pushed, &rules::n2_selection_pull);
        assert_eq!(identity(&back), identity(&base.roots));
        assert_eq!(back.rules_applied, ["toFIR", "T2", "N2"]);
    }

    #[test]
    fn standard_set_names_the_paper_rules() {
        let set = RuleSet::standard();
        for name in ["T1", "T2", "T4", "T5", "N1", "N2", "inline"] {
            assert!(set.is_enabled(name), "{name} registered and enabled");
        }
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn disabling_a_rule_removes_its_alternatives() {
        let full = expand_with(p0_alternative(), &RuleSet::standard(), 64);
        let no_n1 = expand_with(p0_alternative(), &RuleSet::standard().without("N1"), 64);
        assert!(no_n1.alternatives.len() < full.alternatives.len());
        assert!(no_n1
            .alternatives
            .iter()
            .all(|a| !a.roots.rules_applied.contains(&"N1")));
    }

    #[test]
    fn empty_rule_set_keeps_only_the_base() {
        let exp = expand_with(p0_alternative(), &RuleSet::empty(), 64);
        assert_eq!(exp.alternatives.len(), 1);
        assert!(!exp.truncated);
    }

    #[test]
    fn closure_completing_exactly_at_the_bound_is_not_truncated() {
        // Nothing is derivable, and the bound equals the closure size:
        // nothing was dropped, so nothing may be reported dropped.
        let exp = expand_with(p0_alternative(), &RuleSet::empty(), 1);
        assert_eq!(exp.alternatives.len(), 1);
        assert!(!exp.truncated);
        // The full standard closure of P0 fits in its own size exactly.
        let full = expand_with(p0_alternative(), &RuleSet::standard(), 64);
        assert!(!full.truncated);
        let exact = expand_with(
            p0_alternative(),
            &RuleSet::standard(),
            full.alternatives.len(),
        );
        assert_eq!(exact.alternatives.len(), full.alternatives.len());
        assert!(!exact.truncated, "completed exactly at the bound");
    }

    #[test]
    fn truncation_is_reported() {
        let exp = expand_with(p0_alternative(), &RuleSet::standard(), 2);
        assert_eq!(exp.alternatives.len(), 2);
        assert!(exp.truncated, "the closure was clipped");
    }

    /// README's user rule, verbatim: `not(not(e)) = e`, stated as data.
    #[test]
    fn user_rules_can_be_registered() {
        let double_negation = Rule::new("NN", "not(not(e)) = e", |arena, assigns, site| {
            let inner = |id| match arena.node(id) {
                FirNode::Not(e) => Some(*e),
                _ => None,
            };
            let reached = assigns.iter().flat_map(|(_, root)| arena.reachable(*root));
            let hits: Vec<_> = reached
                .filter_map(|id| Some((id, arena.node(inner(inner(id)?)?).clone())))
                .collect();
            (site.is_none() && !hits.is_empty())
                .then(|| vec![Derivation::new("NN", Change::Nodes(hits))])
        });
        let set = RuleSet::standard().with_rule(double_negation);
        assert!(set.names().contains(&"NN"));

        // for (o : orders) { if (!!(o.o_id > 10)) result.add(o.o_id) }
        let keep = Expr::bin(
            minidb::BinOp::Gt,
            Expr::field(Expr::var("o"), "o_id"),
            Expr::lit(10i64),
        );
        let body = vec![Stmt::new(StmtKind::If {
            cond: Expr::Not(Box::new(Expr::Not(Box::new(keep)))),
            then_branch: vec![Stmt::new(StmtKind::Add(
                "result".into(),
                Expr::field(Expr::var("o"), "o_id"),
            ))],
            else_branch: vec![],
        })];
        let live = ["result".to_string()];
        let base = loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &mappings(),
            Some(&live),
        )
        .unwrap();
        assert!(base.display().contains("not(not("), "{}", base.display());
        let exp = expand_with(base, &set, 64);
        let simplified = exp
            .alternatives
            .iter()
            .find(|a| a.roots.rules_applied == ["toFIR", "NN"])
            .expect("the user rule fired on the base alternative");
        assert!(
            !simplified.display().contains("not("),
            "{}",
            simplified.display()
        );
    }

    #[test]
    fn toggles_round_trip() {
        let mut set = RuleSet::standard();
        assert!(set.disable("T4"));
        assert!(!set.is_enabled("T4"));
        assert!(set.enable("T4"));
        assert!(set.is_enabled("T4"));
        assert!(!set.disable("no-such-rule"));
    }
}
