//! Integration tests for the memoized costing layer (`volcano::CostMemo`)
//! as used by the COBRA optimizer: cache effectiveness on real searches
//! and — the correctness contract — that memoized search produces
//! *identical* estimates to un-memoized search. (Counter and merge-
//! invalidation micro-tests live with the implementation in
//! `crates/volcano/src/costmemo.rs`.)

use cobra::core::Cobra;
use cobra::imperative::ast::Program;
use cobra::netsim::NetworkProfile;
use cobra::oracle::matrix::mid_range;
use cobra::volcano::{self, CostMemo};
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::{motivating, wilos};

fn cobra_for_motivating() -> (Cobra, Vec<Program>) {
    let fx = motivating::build_fixture(2_000, 400, 11);
    let cobra = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build();
    (cobra, vec![motivating::p0(), motivating::m0()])
}

/// The optimizer's search actually exercises the cache. (Before the
/// worklist cost-table engine, value iteration re-evaluated every m-expr
/// each sweep and hits far outnumbered misses; the worklist skips
/// expressions whose child costs are unchanged, so extraction and the
/// report path are now the main repeat consumers — the cache must still
/// see both traffic and hits.)
#[test]
fn optimizer_search_hits_the_cost_cache() {
    let (cobra, programs) = cobra_for_motivating();
    for program in &programs {
        let opt = cobra.optimize_program(program).unwrap();
        assert!(opt.cost_cache_misses > 0, "search consults the model");
        assert!(
            opt.cost_cache_hits > 0,
            "extraction re-reads costs the worklist computed: {} hits vs {} misses",
            opt.cost_cache_hits,
            opt.cost_cache_misses
        );
    }
}

/// Search `program`'s Region DAG twice — over the bare cost model and
/// over the same model wrapped in a [`CostMemo`] — and require the two
/// searches to agree bit-for-bit on every group cost, on convergence, and
/// on the extracted plan (cost, tree, per-group choices).
fn assert_memoized_search_is_identical(cobra: &Cobra, program: &Program, ctx: &str) {
    let (memo, root, model) = cobra.region_dag(program).unwrap();
    let memoized = CostMemo::new(&model);
    let plain_table = volcano::cost_table(&memo, &model, None);
    let memo_table = volcano::cost_table(&memo, &memoized, None);
    assert_eq!(plain_table.converged, memo_table.converged, "{ctx}");
    let bits = |t: &volcano::CostTable| {
        t.group_costs
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&plain_table), bits(&memo_table), "group costs: {ctx}");

    let plain = volcano::best_plan_from(&memo, root, &model, &plain_table).expect("a plan");
    let cached = volcano::best_plan_from(&memo, root, &memoized, &memo_table).expect("a plan");
    assert_eq!(
        plain.cost.to_bits(),
        cached.cost.to_bits(),
        "plan cost: {ctx}"
    );
    assert_eq!(plain.tree, cached.tree, "chosen tree: {ctx}");
    assert_eq!(plain.choices, cached.choices, "choices: {ctx}");
    assert!(
        memoized.misses() > 0,
        "memoized run reports its misses: {ctx}"
    );
}

/// Memoized search is identical to un-memoized search on the motivating
/// workloads, every Wilos pattern, and the generated corpus under all
/// three network profiles.
#[test]
fn memoized_search_is_identical_to_unmemoized() {
    let (cobra, programs) = cobra_for_motivating();
    for program in &programs {
        assert_memoized_search_is_identical(&cobra, program, &program.entry().name);
    }
    for pattern in wilos::Pattern::all() {
        let cobra = wilos::build_fixture(2_000, 5)
            .cobra_builder()
            .network(NetworkProfile::fast_local())
            .build();
        let program = wilos::representative(pattern);
        assert_memoized_search_is_identical(&cobra, &program, &format!("pattern {pattern:?}"));
    }
    let cfg = GenConfig::default();
    for seed in 0..100 {
        let case = GenCase::from_seed(seed, &cfg);
        for net in [
            NetworkProfile::slow_remote(),
            mid_range(),
            NetworkProfile::fast_local(),
        ] {
            let ctx = format!("seed {seed}, profile {}", net.name());
            let cobra = case.fixture().cobra_builder().network(net).build();
            assert_memoized_search_is_identical(&cobra, &case.program, &ctx);
        }
    }
}
