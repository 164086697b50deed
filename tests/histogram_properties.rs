//! Property tests for the adaptive-statistics subsystem: equi-depth
//! histogram invariants, feedback-driven estimation, drift-triggered
//! re-optimization, and original-vs-optimized equivalence on skewed data.

use cobra::core::Cobra;
use cobra::minidb::{
    BinOp, Column, ColumnTable, ColumnVec, DataType, Database, FeedbackStore, FuncRegistry, Schema,
    TableStats, Value,
};
use cobra::netsim::rng::StdRng;
use cobra::netsim::NetworkProfile;
use cobra::oracle::{run_case, OracleMatrix};
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::harness::run_on_with_feedback;
use std::sync::Arc;

/// A randomized single-column table: integers (uniform or piled-up),
/// floats, a NULL fraction, occasionally strings mixed in.
fn random_rows(rng: &mut StdRng) -> Vec<Vec<Value>> {
    let n = rng.gen_range(0..400usize);
    let null_pct = rng.gen_range(0..40u32);
    let shape = rng.gen_range(0..4u32);
    (0..n)
        .map(|_| {
            if rng.chance(null_pct) {
                return vec![Value::Null];
            }
            let v = match shape {
                0 => Value::Int(rng.gen_range(-500..500i64)),
                1 => {
                    // Heavy skew: most values land on a handful of keys.
                    let base = rng.gen_range(0..1000i64);
                    Value::Int(if base < 900 { base % 7 } else { base })
                }
                2 => Value::Float(rng.gen_range(0..10_000i64) as f64 / 7.0),
                _ => {
                    if rng.chance(10) {
                        Value::str("mixed")
                    } else {
                        Value::Int(rng.gen_range(0..100i64))
                    }
                }
            };
            vec![v]
        })
        .collect()
}

/// Histogram invariants over 200 randomized columns: buckets cover
/// `[min, max]` with strictly ascending edges, counts sum to
/// `row_count − null_count`, every selectivity lands in `[0, 1]`, the
/// cumulative estimate stays within one bucket's mass of the truth, and
/// `analyze` is deterministic.
#[test]
fn histogram_invariants_hold_on_random_data() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng);
        // The analyzer `Table::analyze` runs, on the column typed as its
        // values are.
        let analyze = || {
            let column = ColumnVec::from_values(rows.iter().map(|r| r[0].clone()).collect());
            TableStats::analyze_columns(&ColumnTable {
                cols: vec![Arc::new(column)],
                len: rows.len(),
            })
        };
        let stats = analyze();
        assert_eq!(stats, analyze(), "analyze determinism");
        assert!(stats.analyzed);
        let col = &stats.columns[0];
        assert!(
            (0.0..=1.0).contains(&stats.eq_selectivity(0)),
            "seed {seed}: eq selectivity in range"
        );

        let Some(h) = &col.histogram else {
            continue; // non-numeric or empty column: nothing more to check
        };
        // Coverage: the first bucket starts at the minimum, the last ends
        // at the maximum, edges strictly ascend.
        assert_eq!(Some(h.min()), col.min.as_ref().and_then(|v| v.as_f64()));
        assert_eq!(Some(h.max()), col.max.as_ref().and_then(|v| v.as_f64()));
        for w in h.bucket_bounds().windows(2) {
            assert!(w[0] < w[1], "seed {seed}: edges ascend");
        }
        // Counts partition the non-null rows.
        assert_eq!(
            h.bucket_counts().iter().sum::<u64>(),
            stats.row_count - col.null_count,
            "seed {seed}: counts sum to non-null rows"
        );
        assert_eq!(h.total(), stats.row_count - col.null_count);

        // Selectivities in [0, 1] for every operator across a probe grid,
        // and the cumulative estimate within one bucket of the truth.
        let values: Vec<f64> = rows
            .iter()
            .filter_map(|r| if r[0].is_null() { None } else { r[0].as_f64() })
            .collect();
        let max_bucket = *h.bucket_counts().iter().max().unwrap() as f64 / h.total().max(1) as f64;
        let span = h.max() - h.min();
        for k in 0..=20 {
            let probe = h.min() - 1.0 + span * k as f64 / 18.0;
            for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
                let sel = h.range_selectivity(op, probe, 0.0).unwrap();
                assert!(
                    (0.0..=1.0).contains(&sel),
                    "seed {seed}: {op:?} {probe} -> {sel}"
                );
            }
            let actual =
                values.iter().filter(|&&v| v <= probe).count() as f64 / values.len() as f64;
            let est = h.le_fraction(probe);
            assert!(
                (est - actual).abs() <= max_bucket + 1e-9,
                "seed {seed}: le({probe}) est {est} vs actual {actual} \
                 (bucket mass {max_bucket})"
            );
        }
        // Stats-level selectivity API agrees on type handling.
        let sel = stats.range_selectivity(0, BinOp::Lt, &Value::Float(h.max()));
        assert!(sel.is_some_and(|s| (0.0..=1.0).contains(&s)));
    }
}

/// The differential oracle on the skewed corpus: whatever the adaptive
/// statistics make the optimizer pick, the optimized program must stay
/// observationally equivalent to the original.
#[test]
fn skewed_corpus_rewrites_stay_equivalent() {
    let cfg = GenConfig::skewed();
    let matrix = OracleMatrix::default();
    for seed in 9000..9020u64 {
        let case = GenCase::from_seed(seed, &cfg);
        let report = run_case(&case, &matrix);
        assert!(
            report.failures.is_empty(),
            "seed {seed}: {}",
            report.failures[0]
        );
    }
}

fn drift_fixture() -> (cobra::minidb::SharedDb, Arc<FuncRegistry>) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "events",
            Schema::new(vec![
                Column::new("e_id", DataType::Int),
                Column::new("e_kind", DataType::Int),
            ]),
        )
        .unwrap();
    t.set_primary_key("e_id").unwrap();
    for i in 0..500i64 {
        t.insert(vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
    }
    db.analyze_all();
    (
        cobra::minidb::shared(db),
        Arc::new(FuncRegistry::with_builtins()),
    )
}

/// The full feedback loop: execution records observed cardinalities, the
/// estimator prefers them, drift is measured against them, and
/// `reoptimize_on_drift` re-optimizes (bumping the stats epoch so cached
/// estimates refresh) exactly when the threshold is crossed.
#[test]
fn drift_triggers_reoptimization_and_cache_invalidation() {
    use cobra::imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
    let (db, funcs) = drift_fixture();
    let store = Arc::new(FeedbackStore::new());
    let cobra = Cobra::builder(db.clone())
        .funcs(funcs.clone())
        .network(NetworkProfile::slow_remote())
        .feedback(store.clone())
        .build();

    let program = Program::single(Function::new(
        "drifty",
        vec!["result".to_string()],
        vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::ForEach {
                var: "e".into(),
                iter: Expr::Query(QuerySpec::sql("select * from events where e_kind = 3")),
                body: vec![Stmt::new(StmtKind::Add(
                    "result".into(),
                    Expr::field(Expr::var("e"), "e_id"),
                ))],
            }),
        ],
    ));

    // No observations yet: no drift, no re-optimization.
    assert_eq!(cobra.estimation_drift(), 1.0);
    assert!(cobra.reoptimize_on_drift(&program, 2.0).unwrap().is_none());
    let first = cobra.optimize_program(&program).unwrap();
    assert_eq!(first.feedback_overrides, 0, "nothing observed yet");

    // Reality diverges from statistics: kind 3 suddenly dominates. The
    // stale stats still say 1/NDV = 10 % of 500 rows.
    {
        let mut dbw = db.write().unwrap();
        let epoch_before = dbw.stats_epoch();
        let t = dbw.table_mut("events").unwrap();
        for i in 500..2000i64 {
            t.insert(vec![Value::Int(i), Value::Int(3)]).unwrap();
        }
        assert!(dbw.stats_epoch() > epoch_before, "writes advance the epoch");
    }
    let plan = cobra::minidb::sql::parse("select * from events where e_kind = 3").unwrap();
    let executed = cobra::minidb::Executor::new(&db.read().unwrap(), &funcs)
        .with_feedback(&store)
        .execute(&plan, &std::collections::HashMap::new())
        .unwrap();
    assert_eq!(executed.row_count(), 1550);

    // Estimates (stale stats: ~155 of 2000 rows) vs observation (1550):
    // drift factor ~10 ≫ 2 → re-optimize.
    let drift = cobra.estimation_drift();
    assert!(drift > 2.0, "observed divergence, drift = {drift}");
    let epoch_before = db.read().unwrap().stats_epoch();
    let reopt = cobra
        .reoptimize_on_drift(&program, 2.0)
        .unwrap()
        .expect("drift above threshold re-optimizes");
    assert!(
        db.read().unwrap().stats_epoch() > epoch_before,
        "re-optimization bumps the stats epoch (cache invalidation)"
    );
    assert!(reopt.feedback_overrides > 0, "search used the observation");
    assert!(
        reopt.est_cost_ns > first.est_cost_ns,
        "the re-optimized estimate reflects the observed 1550-row reality \
         ({} vs {})",
        reopt.est_cost_ns,
        first.est_cost_ns
    );

    // Explain surfaces the (post-feedback) drift and the overrides.
    let report = cobra.explain(&program).unwrap();
    assert!(report.drift.is_some());
    let text = format!("{report}");
    assert!(
        text.contains("runtime feedback"),
        "report mentions feedback:\n{text}"
    );
}

/// End-to-end on a generated program: one feedback-recorded run makes the
/// cost estimate track the simulated runtime at least as well as before,
/// and the optimized program stays equivalent.
#[test]
fn feedback_run_tightens_generated_program_estimates() {
    let cfg = GenConfig::skewed();
    let net = NetworkProfile::slow_remote();
    let mut improved = 0usize;
    let mut total = 0usize;
    for seed in 7000..7010u64 {
        let case = GenCase::from_seed(seed, &cfg);
        let fixture = case.fixture();
        let plain = fixture.cobra_builder().network(net.clone()).build();
        let est_plain = plain.cost_of(case.program.entry()) / 1e9;

        // One run records feedback and doubles as the ground truth
        // (fresh-fixture runs are deterministic).
        let store = Arc::new(FeedbackStore::new());
        let sim = run_on_with_feedback(&case.fixture(), net.clone(), &case.program, store.clone())
            .unwrap()
            .secs;
        let fed = fixture
            .cobra_builder()
            .network(net.clone())
            .feedback(store)
            .build();
        let est_fed = fed.cost_of(case.program.entry()) / 1e9;

        let err = |est: f64| (est.max(1e-9) / sim.max(1e-9)).ln().abs();
        total += 1;
        if err(est_fed) <= err(est_plain) + 1e-9 {
            improved += 1;
        }
    }
    assert!(
        improved * 10 >= total * 8,
        "feedback should not worsen estimates: {improved}/{total} at least as good"
    );
}
