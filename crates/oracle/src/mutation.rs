//! Intentionally broken transformation rules for mutation smoke testing.
//!
//! The oracle is only trustworthy if it *would* catch a semantics-breaking
//! rewrite. These rules break semantics on purpose — registered into a
//! [`fir::RuleSet`] alongside the standard rules, they derive alternatives
//! that are cheaper than any correct one, so the cost-based search picks
//! them and the differential suite must flag the mismatch and minimize it.

use fir::{Derivation, FirNode, Rule};

/// A broken rule that truncates every fold's source query to one row
/// (`… limit 1`). The derived alternative does strictly less work than
/// any correct alternative — less transfer, fewer iterations — so
/// whenever a loop is foldable and its source yields more than one row,
/// the optimizer prefers it.
///
/// Two independent nets must catch it:
///
/// * **statically** — the `analysis` crate's pass 2 (effect analysis)
///   rejects every alternative it derives during expansion, because the
///   rewrite truncates a table read with a LIMIT the base does not have
///   and declares no effect delta
///   (`tests/verifier_properties.rs::broken_limit_rule_is_rejected_statically_on_seed_0`);
/// * **dynamically** — with verification off, the differential oracle
///   flags the result mismatch and minimizes it to a seed-keyed repro
///   (`tests/oracle_mutation.rs`, the fallback path).
///
/// **Never** register this outside a test.
pub fn broken_limit_rule() -> Rule {
    Rule::new(
        "Xbug",
        "INTENTIONALLY BROKEN (mutation smoke test): truncate fold sources to one row",
        |arena, _, site| {
            let fold = site?;
            let FirNode::Fold { source, .. } = arena.node(fold) else {
                return None;
            };
            let source = *source;
            let FirNode::Query { plan, binds } = arena.node(source).clone() else {
                return None;
            };
            if matches!(plan.as_plan(), minidb::LogicalPlan::Limit { .. }) {
                return None; // already mutated; don't refire forever
            }
            let limited = FirNode::Query {
                plan: plan.unshare().limit(1).into(),
                binds,
            };
            Some(vec![Derivation::replace("Xbug", source, limited)])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::RuleSet;

    #[test]
    fn broken_rule_registers_and_toggles() {
        let set = RuleSet::standard().with_rule(broken_limit_rule());
        assert!(set.is_enabled("Xbug"));
        assert_eq!(set.len(), 8);
        let off = set.without("Xbug");
        assert!(!off.is_enabled("Xbug"));
    }
}
