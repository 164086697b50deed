//! Columnar-vs-row engine differential suite.
//!
//! The columnar data plane (`minidb::vexec`) claims *bit-identical*
//! semantics with the row engine: same rows, same observables, and the
//! same `ExecWork` accounting (hence identical simulated time on any
//! network). This suite checks that claim the same way the rewrite
//! oracle checks the optimizer: generatively, over the seeded program
//! corpus, across network profiles — running every program once per
//! engine on fresh, identical fixtures and comparing everything the
//! harness can observe.
//!
//! Widen locally with `DIFF_SEEDS=1000 cargo test --release --test
//! engine_differential`.

use cobra::interp::Outcome;
use cobra::minidb::ExecEngine;
use cobra::netsim::NetworkProfile;
use cobra::oracle::mid_range;
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::harness::run_on_engine;

/// The three network profiles of the oracle matrix.
fn profiles() -> Vec<NetworkProfile> {
    vec![
        NetworkProfile::slow_remote(),
        mid_range(),
        NetworkProfile::fast_local(),
    ]
}

fn seed_count(default_count: u64) -> u64 {
    std::env::var("DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_count)
}

/// Everything observable about one run that must match across engines:
/// normalized observables (variables, return value, prints — bitwise,
/// since both engines produce identical rows in identical order) plus
/// the work-derived measurements. `elapsed_ns` is computed from each
/// query's `ExecWork` and the network profile alone, so equal elapsed
/// time on a fixed profile means equal work accounting, query by query.
fn observables(
    case: &GenCase,
    outcome: &Outcome,
) -> (cobra::interp::NormalizedOutcome, u64, u64, u64) {
    let observed = case.observed_vars();
    let observed: Vec<&str> = observed.iter().map(|s| s.as_str()).collect();
    (
        outcome.normalized_with_vars(&observed),
        outcome.elapsed_ns,
        outcome.round_trips,
        outcome.stmts_executed,
    )
}

/// Run `program` on both engines over `net` (fresh fixture each, so runs
/// cannot contaminate each other) and assert every observable matches.
fn assert_engines_agree(
    case: &GenCase,
    net: &NetworkProfile,
    program: &cobra::imperative::ast::Program,
    label: &str,
) {
    let col = run_on_engine(&case.fixture(), net.clone(), ExecEngine::Columnar, program);
    let row = run_on_engine(&case.fixture(), net.clone(), ExecEngine::Row, program);
    match (col, row) {
        (Ok(c), Ok(r)) => {
            let c_obs = observables(case, &c.outcome);
            let r_obs = observables(case, &r.outcome);
            assert_eq!(
                c_obs,
                r_obs,
                "engines diverge: seed={} profile={} program={}\n{}",
                case.seed,
                net.name(),
                label,
                case.pretty()
            );
        }
        (Err(ce), Err(_)) => panic!(
            "both engines error on seed={} profile={} program={} (generator bug): {ce}",
            case.seed,
            net.name(),
            label
        ),
        (c, r) => panic!(
            "one engine errors: seed={} profile={} program={} columnar_err={} row_err={}",
            case.seed,
            net.name(),
            label,
            c.err().map(|e| e.to_string()).unwrap_or_default(),
            r.err().map(|e| e.to_string()).unwrap_or_default(),
        ),
    }
}

/// The acceptance sweep: ≥200 seeds × 3 network profiles, original *and*
/// optimized programs (the optimized side adds the join/aggregate shapes
/// the rewrites introduce), bit-identical observables and work-derived
/// timings throughout.
#[test]
fn corpus_agrees_across_engines_and_profiles() {
    let n = seed_count(200);
    let cfg = GenConfig::default();
    for seed in 0..n {
        let case = GenCase::from_seed(seed, &cfg);
        for net in profiles() {
            assert_engines_agree(&case, &net, &case.program, "original");
            // Optimize against this profile and run the chosen rewrite
            // through both engines too.
            let cobra = case.fixture().cobra_builder().network(net.clone()).build();
            let optimized = match cobra.optimize_program(&case.program) {
                Ok(o) => o,
                Err(e) => panic!("optimizer error on seed={seed}: {e}"),
            };
            let rewritten = case.program.with_entry(optimized.program.clone());
            assert_engines_agree(&case, &net, &rewritten, "optimized");
        }
    }
}

/// The skewed corpus drives different join fan-outs and histogram
/// shapes; a smaller sweep keeps the suite time-bounded.
#[test]
fn skewed_corpus_agrees_across_engines() {
    let cfg = GenConfig::skewed();
    for seed in 1000..1040u64 {
        let case = GenCase::from_seed(seed, &cfg);
        for net in profiles() {
            assert_engines_agree(&case, &net, &case.program, "original");
        }
    }
}

/// The report names the vectorized engine's batch width.
#[test]
fn report_names_the_batch_size() {
    let case = GenCase::from_seed(3, &GenConfig::default());
    let report = case
        .fixture()
        .cobra_builder()
        .build()
        .explain(&case.program)
        .expect("explain");
    assert_eq!(report.batch_size, cobra::minidb::BATCH_SIZE);
    let text = report.to_string();
    assert!(text.contains("execution: batch size"), "{text}");
}
