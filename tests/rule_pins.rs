//! What the F-IR rules derive, pinned: the oracle proves a rewritten
//! program *equivalent*, not that a rule still *fires* or that the search
//! still sees the same alternatives in the same order. Two digests over
//! `motivating::{p0, m0}`, the 32 Wilos fragments and 200 generated cases
//! hold that fixed across refactors of `crates/fir`; a rule change that is
//! meant to move them re-pins the constants in the same commit.

use cobra::core::SearchBudget;
use cobra::fir::{self, RuleSet};
use cobra::imperative::regions::{Region, RegionKind};
use cobra::minidb::StableHasher;
use cobra::prelude::*;
use std::hash::{Hash, Hasher};

/// The ordered alternative lists (structural key and rule tags) of every
/// foldable loop under the standard rules and the default budget.
const ALTERNATIVES_DIGEST: u64 = 0xaa2a_a990_57d6_628e;
/// The pretty-printed `optimize_program` output over the same corpus on
/// the slow-remote and fast-local profiles.
const PROGRAMS_DIGEST: u64 = 0x758b_a6c3_6287_3d48;

fn corpus() -> Vec<(Fixture, Program)> {
    let fx = motivating::build_fixture(2_000, 400, 11);
    let mut out = vec![(fx.clone(), motivating::p0()), (fx, motivating::m0())];
    let fx = wilos::build_fixture(2_000, 5);
    out.extend(
        wilos::fragments()
            .into_iter()
            .map(|f| (fx.clone(), f.program)),
    );
    let cfg = GenConfig::default();
    out.extend((0..200).map(|seed| {
        let case = GenCase::from_seed(seed, &cfg);
        (case.fixture(), case.program)
    }));
    out
}

#[test]
fn alternative_lists_are_pinned() {
    let rules = RuleSet::standard();
    let max = SearchBudget::default().max_alternatives_per_region;
    let mut h = StableHasher::new();
    let (mut loops, mut alternatives) = (0, 0);
    for (fixture, program) in corpus() {
        Region::from_function(program.entry()).walk(&mut |r| {
            let RegionKind::Loop { var, iter, body } = &r.kind else {
                return;
            };
            let Some(base) =
                fir::build::loop_to_fold(var, iter, &body.to_stmts(), &fixture.mapping, None)
            else {
                return;
            };
            loops += 1;
            let expansion = fir::expand_with(base, &rules, max);
            expansion.alternatives.len().hash(&mut h);
            for alt in &expansion.alternatives {
                alternatives += 1;
                alt.key().hash(&mut h);
                alt.rules_applied.hash(&mut h);
            }
        });
    }
    println!("{loops} foldable loops, {alternatives} alternatives");
    assert_eq!(h.finish(), ALTERNATIVES_DIGEST, "{:#018x}", h.finish());
}

#[test]
fn emitted_programs_are_pinned() {
    let mut h = StableHasher::new();
    for (fixture, program) in corpus() {
        for net in [NetworkProfile::slow_remote(), NetworkProfile::fast_local()] {
            let opt = fixture
                .cobra_builder()
                .network(net)
                .build()
                .optimize_program(&program)
                .expect("optimizes");
            pretty::function_to_string(&opt.program).hash(&mut h);
        }
    }
    assert_eq!(h.finish(), PROGRAMS_DIGEST, "{:#018x}", h.finish());
}
