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
//! prefetch obligations. The driver alone turns a description into a
//! [`FirAlternative`], so there is one place that clones arenas, re-roots
//! assignments and records which rule fired.
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
use crate::build::{FirAlternative, Prefetch};
use crate::rules;
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
    /// Recorded in [`FirAlternative::rules_applied`]: the rule's name,
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
/// whenever it does not match. `arena` is the alternative's own: a rule
/// interns the new nodes its derivations mention (interning is
/// append-only, and a node no assignment reaches is part of no
/// alternative) but never builds an alternative itself.
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
    /// alternative's [`FirAlternative::rules_applied`] tag list.
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
    /// The base plus every derived alternative, deduplicated structurally.
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

/// A soundness check run on every structurally new alternative the closure
/// driver derives, *before* it is emitted or expanded further. Called as
/// `verifier(base, candidate)`; an `Err` diagnostic drops the candidate
/// (and everything only derivable from it) and is collected in
/// [`Expansion::rejected`].
pub type RewriteVerifier<'a> =
    &'a (dyn Fn(&FirAlternative, &FirAlternative) -> Result<(), String> + Sync);

/// Close `base` under the enabled rules of `rules`, deduplicating
/// structurally and stopping after `max_alternatives` (the T2 ⇄ N2 cycle
/// terminates through deduplication exactly the way cyclic rules
/// terminate in the Volcano memo).
pub fn expand_with(base: FirAlternative, rules: &RuleSet, max_alternatives: usize) -> Expansion {
    expand_with_verifier(base, rules, max_alternatives, None)
}

/// [`expand_with`] with an optional per-alternative soundness check. With
/// `verifier == None` this is byte-for-byte `expand_with`: the closure
/// order, dedup keys and truncation behavior are identical.
pub fn expand_with_verifier(
    base: FirAlternative,
    rules: &RuleSet,
    max_alternatives: usize,
    verifier: Option<RewriteVerifier<'_>>,
) -> Expansion {
    let enabled: Vec<&RuleFn> = rules
        .enabled()
        .filter_map(|rule| rule.apply.as_deref())
        .collect();

    let mut out: Vec<FirAlternative> = Vec::new();
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    // The base is the semantic reference every derivation is checked
    // against; it is also checked against itself (the comparison is then
    // trivial, but well-formedness and scoping still run on it).
    let reference = base.clone();
    let mut queue: Vec<FirAlternative> = vec![base];
    let mut truncated = false;
    let mut rejected: Vec<String> = Vec::new();
    while let Some(mut alt) = queue.pop() {
        let key = alt.dedup_key();
        if seen.contains(&key) {
            continue;
        }
        if out.len() >= max_alternatives {
            // A genuinely new alternative exists but the budget is spent:
            // the closure was clipped. (A closure that completes exactly
            // at the bound drains the queue through the dedup check above
            // and never reaches this point.)
            truncated = true;
            break;
        }
        seen.insert(key);
        if let Some(check) = verifier {
            if let Err(why) = check(&reference, &alt) {
                // Unsound: drop the alternative without expanding it.
                rejected.push(why);
                continue;
            }
        }

        // Site-outer, rule-inner: the order derivations are queued in is
        // the exploration order.
        let folds = rules::reachable_folds(&alt);
        let mut derived = Vec::new();
        for site in std::iter::once(None).chain(folds.into_iter().map(Some)) {
            for rule in &enabled {
                derived.extend(rule(&mut alt.arena, &alt.assigns, site).unwrap_or_default());
            }
        }
        queue.extend(derived.into_iter().map(|d| derive(&alt, d)));
        out.push(alt);
    }
    Expansion {
        alternatives: out,
        truncated,
        rejected,
    }
}

/// Build the alternative `d` describes — the only place one is assembled
/// outside `loopToFold`: one arena clone per derivation that fired.
fn derive(alt: &FirAlternative, d: Derivation) -> FirAlternative {
    let mut arena = alt.arena.clone();
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
    FirAlternative {
        arena,
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
            .all(|a| !a.rules_applied.contains(&"N1")));
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
            .find(|a| a.rules_applied == ["toFIR", "NN"])
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
