//! Equivalence suite for the optimizer hot-path overhaul: the perf
//! machinery (worklist cost iteration, fingerprint-keyed estimate caches,
//! Arc-shared plans) must change *nothing* about what the optimizer
//! chooses or reports — only how fast it gets there.
//!
//! * cached vs uncached estimation produces bit-identical group costs,
//!   extracted trees and emitted programs across the oracle's generated
//!   corpus × all three network profiles;
//! * the worklist `volcano::cost_table` reproduces the reference
//!   Gauss-Seidel sweep (`volcano::cost_table_sweeps`) bit-for-bit —
//!   `group_costs` and `converged` — on real Region DAGs, under the
//!   unbudgeted and several budgeted configurations;
//! * as-written costs (`Cobra::cost_of`, `Optimized::original_cost_ns`)
//!   and the chosen plan's cost are pinned bit-for-bit by a digest.

use cobra::core::emit::emit_function;
use cobra::core::Cobra;
use cobra::imperative::pretty;
use cobra::minidb::StableHasher;
use cobra::netsim::NetworkProfile;
use cobra::oracle::matrix::mid_range;
use cobra::volcano;
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::{motivating, wilos};
use std::hash::{Hash, Hasher};

const SEEDS: u64 = 100;

fn profiles() -> Vec<NetworkProfile> {
    vec![
        NetworkProfile::slow_remote(),
        mid_range(),
        NetworkProfile::fast_local(),
    ]
}

fn cobra_for(case: &GenCase, net: NetworkProfile) -> Cobra {
    case.fixture().cobra_builder().network(net).build()
}

/// Cached and uncached costing agree bit-for-bit on everything a search
/// decides: every group's cost, convergence, the extracted tree, and the
/// emitted program. The uncached side is a second Region DAG (own
/// fixture, own `Cobra`) whose model has its estimate cache disabled.
#[test]
fn cached_costing_is_bit_identical_across_corpus() {
    let cfg = GenConfig::default();
    for seed in 0..SEEDS {
        let case = GenCase::from_seed(seed, &cfg);
        let entry = case.program.entry();
        for net in profiles() {
            let ctx = format!("seed {seed}, profile {}", net.name());
            let (memo_a, root_a, cached) = cobra_for(&case, net.clone())
                .region_dag(&case.program)
                .unwrap();
            let (memo_b, root_b, mut uncached) = cobra_for(&case, net.clone())
                .region_dag(&case.program)
                .unwrap();
            uncached.disable_estimate_cache();
            assert_eq!(root_a, root_b, "{ctx}");
            assert_eq!(
                (memo_a.num_live_groups(), memo_a.num_exprs()),
                (memo_b.num_live_groups(), memo_b.num_exprs()),
                "{ctx}"
            );

            let ta = volcano::cost_table(&memo_a, &cached, None);
            let tb = volcano::cost_table(&memo_b, &uncached, None);
            assert_eq!(ta.converged, tb.converged, "{ctx}");
            assert_eq!(ta.group_costs.len(), tb.group_costs.len(), "{ctx}");
            for (g, (a, b)) in ta.group_costs.iter().zip(&tb.group_costs).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "group {g} cost: {ctx}");
            }

            let a = volcano::best_plan_from(&memo_a, root_a, &cached, &ta).expect("a plan");
            let b = volcano::best_plan_from(&memo_b, root_b, &uncached, &tb).expect("a plan");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "est cost: {ctx}");
            assert_eq!(a.tree, b.tree, "extracted tree: {ctx}");
            assert_eq!(a.choices, b.choices, "{ctx}");
            assert_eq!(
                pretty::function_to_string(&emit_function(&entry.name, &entry.params, &a.tree)),
                pretty::function_to_string(&emit_function(&entry.name, &entry.params, &b.tree)),
                "emitted program: {ctx}"
            );
            assert!(cached.estimate_cache_misses() > 0, "cache engaged: {ctx}");
            assert_eq!(
                (
                    uncached.estimate_cache_hits(),
                    uncached.estimate_cache_misses()
                ),
                (0, 0),
                "uncached run must not touch the estimate cache: {ctx}"
            );
        }
    }
}

/// The bits of every as-written cost and of every chosen plan's cost over
/// the generated corpus, the 32 Wilos fragments and `motivating::{p0, m0}`
/// on all three profiles. As-written costing is a recursion over the
/// region tree that must do the search's arithmetic in the search's order:
/// where the original program wins, `est_cost_ns` and `original_cost_ns`
/// are the same bits, and `cobra_bench` fails an op on `est > original`.
const AS_WRITTEN_COSTS_DIGEST: u64 = 0x3abc_a4fb_9e8a_e219;

#[test]
fn as_written_costs_are_pinned() {
    let cfg = GenConfig::default();
    let mut corpus: Vec<_> = (0..SEEDS)
        .map(|seed| {
            let case = GenCase::from_seed(seed, &cfg);
            (case.fixture(), case.program)
        })
        .collect();
    let fx = wilos::build_fixture(2_000, 5);
    corpus.extend(
        wilos::fragments()
            .into_iter()
            .map(|f| (fx.clone(), f.program)),
    );
    let fx = motivating::build_fixture(2_000, 400, 11);
    corpus.extend([(fx.clone(), motivating::p0()), (fx, motivating::m0())]);

    let mut h = StableHasher::new();
    for (i, (fixture, program)) in corpus.iter().enumerate() {
        for net in profiles() {
            let ctx = format!("program {i}, profile {}", net.name());
            let cobra = fixture.cobra_builder().network(net).build();
            let opt = cobra.optimize_program(program).expect("optimizes");
            assert!(opt.est_cost_ns <= opt.original_cost_ns, "{ctx}");
            opt.original_cost_ns.to_bits().hash(&mut h);
            opt.est_cost_ns.to_bits().hash(&mut h);
            for f in &program.functions {
                cobra.cost_of(f).to_bits().hash(&mut h);
            }
        }
    }
    assert_eq!(h.finish(), AS_WRITTEN_COSTS_DIGEST, "{:#018x}", h.finish());
}

/// The estimate cache is actually doing work on this corpus (the
/// equivalence above would pass trivially if the cache never engaged).
#[test]
fn estimate_cache_engages_on_real_searches() {
    let cfg = GenConfig::default();
    let mut total_hits = 0u64;
    for seed in 0..10 {
        let case = GenCase::from_seed(seed, &cfg);
        let cobra = cobra_for(&case, NetworkProfile::slow_remote());
        let opt = cobra.optimize_program(&case.program).unwrap();
        assert!(
            opt.estimator_cache_misses > 0,
            "seed {seed}: estimates were computed"
        );
        total_hits += opt.estimator_cache_hits;
        // A second search over the same Cobra reuses the shared cache:
        // nothing new to compute.
        let again = cobra.optimize_program(&case.program).unwrap();
        assert_eq!(
            again.estimator_cache_misses, 0,
            "seed {seed}: repeat search fully served from the shared cache"
        );
        assert!(again.estimator_cache_hits > 0, "seed {seed}");
    }
    assert!(total_hits > 0, "repeated plans hit within single searches");
}

/// The worklist cost iteration reproduces the reference sweep exactly on
/// real Region DAGs — including the mid-iteration states a sweep budget
/// freezes, and the `converged` flag.
#[test]
fn worklist_cost_table_matches_reference_sweep_on_corpus() {
    let cfg = GenConfig::default();
    for seed in 0..SEEDS {
        let case = GenCase::from_seed(seed, &cfg);
        for net in profiles() {
            let cobra = cobra_for(&case, net.clone());
            let (memo, _root, model) = cobra.region_dag(&case.program).unwrap();
            for budget in [None, Some(1), Some(2), Some(3), Some(8)] {
                let fast = volcano::cost_table(&memo, &model, budget);
                let slow = volcano::cost_table_sweeps(&memo, &model, budget);
                let ctx = format!("seed {seed}, profile {}, budget {budget:?}", net.name());
                assert_eq!(fast.converged, slow.converged, "{ctx}");
                assert_eq!(fast.group_costs.len(), slow.group_costs.len(), "{ctx}");
                for (g, (a, b)) in fast.group_costs.iter().zip(&slow.group_costs).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "group {g} cost: {ctx} ({a} vs {b})"
                    );
                }
            }
        }
    }
}

/// The report's `Display` surfaces both cache layers.
#[test]
fn report_display_shows_cache_effectiveness() {
    let case = GenCase::from_seed(3, &GenConfig::default());
    let cobra = cobra_for(&case, NetworkProfile::slow_remote());
    let report = cobra.explain(&case.program).unwrap();
    let text = report.to_string();
    assert!(text.contains("cost-memo"), "{text}");
    assert!(text.contains("estimator"), "{text}");
    assert!(text.contains("% hit"), "{text}");
}
