//! What the columnar engine and the row engine agreed on, pinned.
//!
//! This suite used to run every program and plan below on two engines —
//! `minidb::vexec` and a row-at-a-time reference that mirrored its access
//! paths — and compare rows, row order, observables and `ExecWork`. On the
//! last commit that had both, the columnar side of every comparison was
//! hashed into one digest per test. The row engine is gone (what a query
//! *returns* is held to an independent evaluator in `engine_reference`);
//! these digests hold what no reference defines: the order of rows below
//! a join or a grouping, and the `ExecWork` accounting every simulated
//! time derives from. The tests keep the names they had.
//!
//! A change that is meant to move an access path, a row order or the work
//! accounting re-pins the constant in the same commit and says why.

use cobra::minidb::StableHasher;
use cobra::netsim::NetworkProfile;
use cobra::oracle::mid_range;
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::harness::run_on;
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

/// Run `program` over `net` on a fresh fixture and feed `pin` everything
/// observable about the run: normalized observables (variables, return
/// value, prints) and the work-derived measurements. `elapsed_ns` is
/// computed from each query's `ExecWork` and the network profile alone, so
/// equal elapsed time on a fixed profile means equal work accounting.
fn pin_run(
    case: &GenCase,
    net: &NetworkProfile,
    program: &cobra::imperative::ast::Program,
    label: &str,
    pin: &mut StableHasher,
) {
    let run = run_on(&case.fixture(), net.clone(), program).unwrap_or_else(|e| {
        panic!(
            "seed={} profile={} program={label} errors: {e}",
            case.seed,
            net.name()
        )
    });
    let outcome = &run.outcome;
    let observed = case.observed_vars();
    let observed: Vec<&str> = observed.iter().map(|s| s.as_str()).collect();
    outcome
        .normalized_with_vars(&observed)
        .to_string()
        .hash(pin);
    (
        outcome.elapsed_ns,
        outcome.round_trips,
        outcome.stmts_executed,
    )
        .hash(pin);
}

fn assert_pinned(pin: StableHasher, digest: u64, what: &str) {
    assert_eq!(pin.finish(), digest, "{what}: {:#018x}", pin.finish());
}

/// 200 seeds × 3 network profiles, original *and* optimized programs (the
/// optimized side adds the join/aggregate shapes the rewrites introduce).
#[test]
fn corpus_agrees_across_engines_and_profiles() {
    let cfg = GenConfig::default();
    let mut pin = StableHasher::new();
    for seed in 0..200 {
        let case = GenCase::from_seed(seed, &cfg);
        for net in profiles() {
            pin_run(&case, &net, &case.program, "original", &mut pin);
            // Optimize against this profile and run the chosen rewrite too.
            let cobra = case.fixture().cobra_builder().network(net.clone()).build();
            let optimized = match cobra.optimize_program(&case.program) {
                Ok(o) => o,
                Err(e) => panic!("optimizer error on seed={seed}: {e}"),
            };
            let rewritten = case.program.with_entry(optimized.program.clone());
            pin_run(&case, &net, &rewritten, "optimized", &mut pin);
        }
    }
    assert_pinned(pin, CORPUS_DIGEST, "corpus");
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
            pin_run(&case, &net, &case.program, "original", &mut pin);
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
/// composes selection vectors more than once (`shapes::sales_db`): rows,
/// their order and `ExecWork`.
#[test]
fn large_joins_agree_across_engines() {
    const SALES: i64 = 30_000;
    let db = shapes::sales_db(20_000, SALES);
    let funcs = cobra::minidb::FuncRegistry::with_builtins();
    let mut pin = StableHasher::new();
    for (label, plan) in &shapes::sales_cases(SALES, 20) {
        let c = pin_plan(&db, &funcs, label, plan, &mut pin);
        assert!(c.row_count() > 0, "{label}: vacuous");
    }
    assert_pinned(pin, LARGE_JOINS_DIGEST, "large joins");
}

/// Run `plan`, feed its schema, `ExecWork` and rows in order to `pin` and
/// return the result.
fn pin_plan(
    db: &cobra::minidb::Database,
    funcs: &cobra::minidb::FuncRegistry,
    label: &str,
    plan: &cobra::minidb::LogicalPlan,
    pin: &mut StableHasher,
) -> cobra::minidb::QueryResult {
    let c = cobra::minidb::Executor::new(db, funcs)
        .execute(plan, &std::collections::HashMap::new())
        .unwrap_or_else(|e| panic!("{label} errors: {e}"));
    format!("{:?}", c.schema).hash(pin);
    (c.work.startup_rows, c.work.total_rows, &c.rows).hash(pin);
    c
}

/// The five plan shapes of `cobra_bench`'s `exec_olap` workload, on its
/// schema at a row scale that spans a dozen batches. The benchmark checks
/// these against its own reference; only here are their rows, order and
/// `ExecWork` held.
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
        let c = pin_plan(&db, &fixture.funcs, label, plan, &mut pin);
        let counted = c.rows[0].last().and_then(|v| v.as_i64());
        assert!(counted > Some(0), "{label}: vacuous ({counted:?})");
    }
    assert_pinned(pin, OLAP_SHAPES_DIGEST, "olap shapes");
}

/// `shapes::join_path_cases`, at a row scale that keeps the first join's
/// output in the low hundreds of thousands of rows.
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
        let c = pin_plan(&db, &fixture.funcs, label, plan, &mut pin);
        assert!(
            c.rows.len() >= at_least,
            "{label}: {} rows from {inputs}",
            c.rows.len()
        );
    }
    assert_pinned(pin, JOIN_PATHS_DIGEST, "join paths");
}
