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
//!
//! What the two engines agree on is also pinned, as one digest per test
//! over the columnar side of every comparison (at the default seed count):
//! the row engine vouches for these values here, and the digests hold them
//! for as long as nothing else runs beside the columnar engine.

use cobra::interp::Outcome;
use cobra::minidb::{ExecEngine, StableHasher};
use cobra::netsim::NetworkProfile;
use cobra::oracle::mid_range;
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::harness::run_on_engine;
use std::hash::{Hash, Hasher};

#[path = "support/shapes.rs"]
mod shapes;

/// Per program and profile: normalized observables, `elapsed_ns`, round
/// trips and statements of the columnar run, 200 seeds, as written and as
/// optimized.
const CORPUS_DIGEST: u64 = 0xc285_d3aa_3f78_0e60;
/// The same over the skewed corpus, as written.
const SKEWED_CORPUS_DIGEST: u64 = 0xa208_2093_78a5_f56f;
/// Per case: schema, `ExecWork` and rows in order.
const LARGE_JOINS_DIGEST: u64 = 0xf3c9_4436_d9b1_be73;
const OLAP_SHAPES_DIGEST: u64 = 0x4449_5f72_f1b7_e72d;
const JOIN_PATHS_DIGEST: u64 = 0xd1a6_7799_9939_25ff;

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
/// cannot contaminate each other), assert every observable matches and
/// feed the columnar side to `pin`.
fn assert_engines_agree(
    case: &GenCase,
    net: &NetworkProfile,
    program: &cobra::imperative::ast::Program,
    label: &str,
    pin: &mut StableHasher,
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
            let (normalized, elapsed_ns, round_trips, stmts) = c_obs;
            normalized.to_string().hash(pin);
            (elapsed_ns, round_trips, stmts).hash(pin);
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

fn assert_pinned(pin: StableHasher, digest: u64, what: &str) {
    assert_eq!(pin.finish(), digest, "{what}: {:#018x}", pin.finish());
}

/// The acceptance sweep: ≥200 seeds × 3 network profiles, original *and*
/// optimized programs (the optimized side adds the join/aggregate shapes
/// the rewrites introduce), bit-identical observables and work-derived
/// timings throughout.
#[test]
fn corpus_agrees_across_engines_and_profiles() {
    let n = seed_count(200);
    let cfg = GenConfig::default();
    let mut pin = StableHasher::new();
    for seed in 0..n {
        let case = GenCase::from_seed(seed, &cfg);
        for net in profiles() {
            assert_engines_agree(&case, &net, &case.program, "original", &mut pin);
            // Optimize against this profile and run the chosen rewrite
            // through both engines too.
            let cobra = case.fixture().cobra_builder().network(net.clone()).build();
            let optimized = match cobra.optimize_program(&case.program) {
                Ok(o) => o,
                Err(e) => panic!("optimizer error on seed={seed}: {e}"),
            };
            let rewritten = case.program.with_entry(optimized.program.clone());
            assert_engines_agree(&case, &net, &rewritten, "optimized", &mut pin);
        }
    }
    if n == 200 {
        assert_pinned(pin, CORPUS_DIGEST, "corpus");
    }
}

/// The skewed corpus drives different join fan-outs and histogram
/// shapes; a smaller sweep keeps the suite time-bounded.
#[test]
fn skewed_corpus_agrees_across_engines() {
    let cfg = GenConfig::skewed();
    let mut pin = StableHasher::new();
    for seed in 1000..1040u64 {
        let case = GenCase::from_seed(seed, &cfg);
        for net in profiles() {
            assert_engines_agree(&case, &net, &case.program, "original", &mut pin);
        }
    }
    assert_pinned(pin, SKEWED_CORPUS_DIGEST, "skewed corpus");
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

/// Joins at a size that fills many buckets of the build table and
/// composes selection vectors more than once (`shapes::sales_db`). Rows,
/// their order and `ExecWork` must be bit-identical across the two
/// engines.
#[test]
fn large_joins_agree_across_engines() {
    const SALES: i64 = 30_000;
    let db = shapes::sales_db(20_000, SALES);
    let funcs = cobra::minidb::FuncRegistry::with_builtins();
    let mut pin = StableHasher::new();
    for (label, plan) in &shapes::sales_cases(SALES, 20) {
        let c = assert_plan_agrees(&db, &funcs, label, plan, &mut pin);
        assert!(c.row_count() > 0, "{label}: vacuous");
    }
    assert_pinned(pin, LARGE_JOINS_DIGEST, "large joins");
}

/// Run `plan` on both engines, assert schema, `ExecWork`, rows and their
/// order equal, feed the columnar engine's to `pin` and return its result.
fn assert_plan_agrees(
    db: &cobra::minidb::Database,
    funcs: &cobra::minidb::FuncRegistry,
    label: &str,
    plan: &cobra::minidb::LogicalPlan,
    pin: &mut StableHasher,
) -> cobra::minidb::QueryResult {
    let run = |engine| {
        cobra::minidb::Executor::new(db, funcs)
            .with_engine(engine)
            .execute(plan, &std::collections::HashMap::new())
            .unwrap_or_else(|e| panic!("{label}: {engine:?} engine errors: {e}"))
    };
    let (c, r) = (run(ExecEngine::Columnar), run(ExecEngine::Row));
    assert_eq!(c.schema, r.schema, "schema of {label}");
    assert_eq!(c.work, r.work, "ExecWork of {label}");
    assert_eq!(c.row_count(), r.row_count(), "row count of {label}");
    if let Some(k) = (0..c.rows.len()).find(|&k| c.rows[k] != r.rows[k]) {
        panic!(
            "{label}: row {k} differs: columnar {:?}, row engine {:?}",
            c.rows[k], r.rows[k]
        );
    }
    format!("{:?}", c.schema).hash(pin);
    (c.work.startup_rows, c.work.total_rows, &c.rows).hash(pin);
    c
}

/// The five plan shapes of `cobra_bench`'s `exec_olap` workload, on its
/// schema at a row scale the row engine can follow and that still spans a
/// dozen batches. The benchmark checks these against its own reference;
/// only here are their rows, order and `ExecWork` held to the row
/// engine's.
#[test]
fn olap_shapes_agree_across_engines() {
    let fixture = shapes::olap_fixture(0.01);
    let db = fixture.db.read().expect("fixture lock");
    let t0_rows = db.table("t0").unwrap().row_count();
    assert!(
        t0_rows > 8 * cobra::minidb::BATCH_SIZE,
        "t0 has {t0_rows} rows"
    );
    let mut pin = StableHasher::new();
    for (label, plan) in &shapes::olap_cases() {
        let c = assert_plan_agrees(&db, &fixture.funcs, label, plan, &mut pin);
        let counted = c.rows[0].last().and_then(|v| v.as_i64());
        assert!(counted > Some(0), "{label}: vacuous ({counted:?})");
    }
    assert_pinned(pin, OLAP_SHAPES_DIGEST, "olap shapes");
}

/// `shapes::join_path_cases`, at a row scale that keeps the first join's
/// output — which the row engine materializes — in the low hundreds of
/// thousands of rows.
#[test]
fn join_paths_agree_across_engines() {
    let fixture = shapes::olap_fixture(0.002);
    let db = fixture.db.read().expect("fixture lock");
    let rows = |t: &str| db.table(t).unwrap().row_count();
    let inputs = rows("t0") + rows("t1");
    assert!(
        rows("t0") > 2 * cobra::minidb::BATCH_SIZE,
        "t0 has {} rows",
        rows("t0")
    );
    let mut pin = StableHasher::new();
    for ((label, plan), at_least) in shapes::join_path_cases().iter().zip([10 * inputs, 1, 1]) {
        let c = assert_plan_agrees(&db, &fixture.funcs, label, plan, &mut pin);
        assert!(
            c.rows.len() >= at_least,
            "{label}: {} rows from {inputs}",
            c.rows.len()
        );
    }
    assert_pinned(pin, JOIN_PATHS_DIGEST, "join paths");
}
