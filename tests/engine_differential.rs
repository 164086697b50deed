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

/// Joins at a size that fills many buckets of the build table and
/// composes selection vectors more than once: 20 000 items, 30 000 sales
/// whose foreign keys are skewed (a few hot items), duplicated and, in one
/// column, sometimes NULL. Rows, their order and `ExecWork` must be
/// bit-identical across the two engines.
#[test]
fn large_joins_agree_across_engines() {
    use cobra::minidb::plan::SortDir;
    use cobra::minidb::{
        sql, BinOp, ColRef, Column, DataType, Database, FuncRegistry, LogicalPlan, ScalarExpr,
        Schema, Value,
    };
    use cobra::netsim::rng::StdRng;

    const ITEMS: i64 = 20_000;
    const SALES: i64 = 30_000;
    let mut rng = StdRng::seed_from_u64(14);
    let mut db = Database::new();

    let t = db
        .create_table(
            "item",
            Schema::new(vec![
                Column::new("i_id", DataType::Int),
                Column::new("i_grp", DataType::Int),
                Column::new("i_price", DataType::Float),
                Column::with_width("i_name", DataType::Str, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("i_id").unwrap();
    for i in 0..ITEMS {
        t.insert(vec![
            Value::Int(i),
            Value::Int(rng.gen_range(0..60i64)),
            Value::Float(rng.gen_range(0..10_000i64) as f64 / 100.0),
            Value::str(format!("item{}", i % 97)),
        ])
        .unwrap();
    }

    let t = db
        .create_table(
            "sale",
            Schema::new(vec![
                Column::new("s_id", DataType::Int),
                Column::new("s_item", DataType::Int),
                Column::new("s_item_opt", DataType::Int),
                Column::new("s_qty", DataType::Int),
            ]),
        )
        .unwrap();
    t.set_primary_key("s_id").unwrap();
    for s in 0..SALES {
        // 2 % of the sales go to four hot items; the rest are uniform
        // over a range a tenth of which has no item.
        let item = if rng.chance(2) {
            rng.gen_range(0..4i64)
        } else {
            rng.gen_range(0..ITEMS + ITEMS / 10)
        };
        let item_opt = if rng.chance(5) {
            Value::Null
        } else {
            Value::Int(item)
        };
        let qty = rng.gen_range(1..20i64);
        t.insert(vec![
            Value::Int(s),
            Value::Int(item),
            item_opt,
            Value::Int(qty),
        ])
        .unwrap();
    }

    let t = db
        .create_table(
            "grp",
            Schema::new(vec![
                Column::new("g_id", DataType::Int),
                Column::with_width("g_label", DataType::Str, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("g_id").unwrap();
    for g in 0..50i64 {
        t.insert(vec![Value::Int(g), Value::str(format!("g{g}"))])
            .unwrap();
    }
    db.analyze_all();

    let col = ScalarExpr::col;
    let lt = |c: &str, v: Value| ScalarExpr::bin(BinOp::Lt, col(c), ScalarExpr::Lit(v));
    let sale_item = || {
        LogicalPlan::scan("sale").join(
            LogicalPlan::scan("item"),
            ScalarExpr::eq(col("s_item"), col("i_id")),
        )
    };
    // join → filter → join → project: three segments, the first two
    // composed by the filter and again by the second join.
    let chain = |keep_sales: i64| {
        sale_item()
            .select(ScalarExpr::and(
                lt("i_price", Value::Float(40.0)),
                lt("s_id", Value::Int(keep_sales)),
            ))
            .join(
                LogicalPlan::scan("grp"),
                ScalarExpr::eq(col("i_grp"), col("g_id")),
            )
            .project(vec![
                (col("s_id"), "s_id".into()),
                (col("g_label"), "label".into()),
                (
                    ScalarExpr::bin(BinOp::Mul, col("i_price"), col("s_qty")),
                    "total".into(),
                ),
                (col("i_name"), "name".into()),
            ])
    };
    let mut cases: Vec<(String, LogicalPlan)> = [
        // Typed i64 keys; NULL-able keys (the `Value` path); both ways
        // round. `item` is indexed, so each also rejects an INL attempt.
        "select * from sale join item on s_item = i_id",
        "select * from item join sale on i_id = s_item_opt",
        "select count(*) as n, sum(s_qty) as q from sale join item on s_item_opt = i_id",
        // Self-joins on the skewed key, with a residual and without.
        "select a.s_id, b.s_id, b.s_qty from sale a join sale b \
         on a.s_item = b.s_item and a.s_qty < b.s_qty",
        "select count(*) as n from sale a join sale b on a.s_item_opt = b.s_item_opt",
        // Three-way chain, aggregated and sorted.
        "select g_label, count(*) as n, sum(s_qty) as q, avg(i_price) as p \
         from sale join item on s_item = i_id join grp on i_grp = g_id \
         where s_qty > 3 group by g_label order by g_label",
        // ORDER BY / LIMIT over a joined chunk.
        "select * from sale join item on s_item = i_id \
         where i_price > 90.0 order by i_price desc, s_id limit 100",
        // Well over 10 000 distinct Int keys: the group table doubles ten
        // times and more, and the groups still come out in first-seen
        // order. Then the same key with NULLs (grouped by `Value`), and a
        // key read through a join's selection with Float arguments.
        "select s_item, count(*) as n, sum(s_qty) as q, min(s_id) as lo, max(s_qty) as hi, \
         avg(s_qty) as a from sale group by s_item",
        "select s_item_opt, count(*) as n, count(s_item_opt) as m, sum(s_qty) as q \
         from sale group by s_item_opt",
        "select i_grp, count(*) as n, sum(i_price) as p, min(i_price) as lo, avg(s_qty) as a \
         from sale join item on s_item = i_id where s_qty < 15 group by i_grp",
    ]
    .iter()
    .map(|text| (text.to_string(), sql::parse(text).expect("query parses")))
    .collect();
    cases.extend([
        ("chain, hash joins throughout".to_string(), chain(SALES)),
        // Few enough sales survive that `grp`, then a second copy of
        // `item`, are joined by index lookups driven from a chunk of
        // several segments.
        ("chain, INL second join".to_string(), chain(20)),
        (
            "chain joined back to item by index".to_string(),
            sale_item()
                .select(lt("s_id", Value::Int(300)))
                .join(
                    LogicalPlan::scan_as("item", "j"),
                    ScalarExpr::eq(col("s_qty"), col("j.i_id")),
                )
                .order_by(vec![(ColRef::parse("j.i_name"), SortDir::Asc)])
                .limit(250),
        ),
        // No equi conjunct: the nested-loop path over composed inputs.
        (
            "nested loop over a joined chunk".to_string(),
            sale_item().select(lt("s_id", Value::Int(150))).join(
                LogicalPlan::scan("grp"),
                ScalarExpr::bin(BinOp::Lt, col("i_grp"), col("g_id")),
            ),
        ),
    ]);

    let funcs = FuncRegistry::with_builtins();
    for (label, plan) in &cases {
        let c = assert_plan_agrees(&db, &funcs, label, plan);
        assert!(c.row_count() > 0, "{label}: vacuous");
    }
}

/// Run `plan` on both engines, assert schema, `ExecWork`, rows and their
/// order equal, and return the columnar engine's result.
fn assert_plan_agrees(
    db: &cobra::minidb::Database,
    funcs: &cobra::minidb::FuncRegistry,
    label: &str,
    plan: &cobra::minidb::LogicalPlan,
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
    c
}

/// The five plan shapes of `cobra_bench`'s `exec_olap` workload, on its
/// schema (`GenSchema` seed 2024, `GenConfig::large()`) at a row scale the
/// row engine can follow and that still spans a dozen batches. The
/// benchmark checks these against its own reference; only here are their
/// rows, order and `ExecWork` held to the row engine's.
#[test]
fn olap_shapes_agree_across_engines() {
    use cobra::minidb::plan::AggItem;
    use cobra::minidb::{sql, AggFunc, BinOp, LogicalPlan, ScalarExpr};
    use cobra::netsim::rng::StdRng;
    use cobra::workloads::genprog::GenSchema;

    let schema = GenSchema::generate(&mut StdRng::seed_from_u64(2024), &GenConfig::large());
    let fixture = schema.build_fixture(1, 0.01);
    let db = fixture.db.read().expect("fixture lock");
    let t0_rows = db.table("t0").unwrap().row_count();
    assert!(
        t0_rows > 8 * cobra::minidb::BATCH_SIZE,
        "t0 has {t0_rows} rows"
    );

    let lt = |c: &str, v: i64| ScalarExpr::bin(BinOp::Lt, ScalarExpr::col(c), ScalarExpr::lit(v));
    // A filtered build side of a few rows, probed by all of `t1`.
    let small_build = LogicalPlan::scan("t0")
        .select(ScalarExpr::and(lt("t0_a", 3), lt("t0_b", 5)))
        .join(
            LogicalPlan::scan("t1"),
            ScalarExpr::eq(ScalarExpr::col("t0_id"), ScalarExpr::col("t1_fk")),
        )
        .aggregate(
            vec![],
            vec![AggItem {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        );
    let mut cases: Vec<(&str, LogicalPlan)> = [
        "select sum(t0_a) as s from t0",
        "select count(*) as n from t0 where t0_a < 20 and t0_b < 25",
        "select count(*) as n from t0 join t1 on t0_id = t1_fk where t1_b < 10",
        "select t0_a, count(*) as n, sum(t0_b) as s from t0 group by t0_a",
    ]
    .iter()
    .map(|text| (*text, sql::parse(text).expect("query parses")))
    .collect();
    cases.push(("small filtered build side", small_build));

    for (label, plan) in &cases {
        let c = assert_plan_agrees(&db, &fixture.funcs, label, plan);
        let counted = c.rows[0].last().and_then(|v| v.as_i64());
        assert!(counted > Some(0), "{label}: vacuous ({counted:?})");
    }
}

/// The hash join's two typed paths where `exec_olap`'s shapes do not take
/// them: long chains and an output far larger than its inputs on the
/// directly addressed table, spread-out keys on the hashed one, and a
/// residual conjunct behind a filtered build side. Same fixture, at a row
/// scale that keeps the first join's output — which the row engine
/// materializes — in the low hundreds of thousands of rows.
#[test]
fn join_paths_agree_across_engines() {
    use cobra::minidb::{BinOp, LogicalPlan, ScalarExpr};
    use cobra::netsim::rng::StdRng;
    use cobra::workloads::genprog::GenSchema;

    let schema = GenSchema::generate(&mut StdRng::seed_from_u64(2024), &GenConfig::large());
    let fixture = schema.build_fixture(1, 0.002);
    let db = fixture.db.read().expect("fixture lock");
    let rows = |t: &str| db.table(t).unwrap().row_count();
    let inputs = rows("t0") + rows("t1");
    assert!(
        rows("t0") > 2 * cobra::minidb::BATCH_SIZE,
        "t0 has {} rows",
        rows("t0")
    );

    let col = ScalarExpr::col;
    let lt = |c: &str, v: i64| ScalarExpr::bin(BinOp::Lt, col(c), ScalarExpr::lit(v));
    // At most 100 distinct values under skew 2.5: a dense range whose
    // chains are hundreds of rows long.
    let fan_out = LogicalPlan::scan("t0").join(
        LogicalPlan::scan("t1"),
        ScalarExpr::eq(col("t0_a"), col("t1_b")),
    );
    // Keys and foreign keys a thousand apart: too wide a range for the
    // rows that carry it, so hashed.
    let spread = |table: &str, key: &str, name: &str| {
        let wide = ScalarExpr::bin(BinOp::Mul, col(key), ScalarExpr::lit(1000i64));
        LogicalPlan::scan(table).project(vec![(wide, name.into())])
    };
    let sparse = spread("t0", "t0_id", "k").join(
        spread("t1", "t1_fk", "fk"),
        ScalarExpr::eq(col("k"), col("fk")),
    );
    // `exec_olap`'s `join_small_build` with a conjunct the probe does not
    // prove.
    let residual = LogicalPlan::scan("t0")
        .select(ScalarExpr::and(lt("t0_a", 3), lt("t0_b", 5)))
        .join(
            LogicalPlan::scan("t1"),
            ScalarExpr::and(ScalarExpr::eq(col("t0_id"), col("t1_fk")), lt("t1_b", 10)),
        );

    for (label, plan, at_least) in [
        ("fan-out on non-key columns", fan_out, 10 * inputs),
        ("spread-out keys", sparse, 1),
        ("filtered build side and a residual", residual, 1),
    ] {
        let c = assert_plan_agrees(&db, &fixture.funcs, label, &plan);
        assert!(
            c.rows.len() >= at_least,
            "{label}: {} rows from {inputs}",
            c.rows.len()
        );
    }
}
