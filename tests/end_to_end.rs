//! End-to-end integration: COBRA optimizes the motivating example and its
//! choices match the paper's Experiments 1–3 qualitatively.

use cobra::core::Cobra;
use cobra::imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use cobra::imperative::pretty;
use cobra::interp::Snapshot;
use cobra::minidb::{Column, DataType, Database, FuncRegistry, Schema, Value};
use cobra::netsim::NetworkProfile;
use cobra::workloads::{harness::run_on, motivating};

fn cobra_for(fixture: &cobra::workloads::Fixture, net: NetworkProfile) -> Cobra {
    fixture.cobra_builder().network(net).build()
}

#[test]
fn optimizing_p0_generates_at_least_three_program_alternatives() {
    let fx = motivating::build_fixture(1_000, 200, 11);
    let cobra = cobra_for(&fx, NetworkProfile::slow_remote());
    let opt = cobra.optimize_program(&motivating::p0()).unwrap();
    assert!(
        opt.alternatives >= 3,
        "P0, P1-like and P2-like at minimum, got {}",
        opt.alternatives
    );
    assert!(opt.est_cost_ns <= opt.original_cost_ns);
}

#[test]
fn slow_remote_low_cardinality_chooses_join_like_p1() {
    // Experiment 1: at low |Orders| the join query wins.
    let fx = motivating::build_fixture(1_000, 20_000, 11);
    let cobra = cobra_for(&fx, NetworkProfile::slow_remote());
    let opt = cobra.optimize_program(&motivating::p0()).unwrap();
    assert!(
        opt.tags.contains(&"sql-join"),
        "expected P1-like choice, got {:?}:\n{}",
        opt.tags,
        pretty::function_to_string(&opt.program)
    );
}

#[test]
fn slow_remote_high_cardinality_chooses_prefetch_like_p2() {
    // Experiment 1: as |Orders| approaches |Customers| the duplication in
    // the join result makes prefetching win.
    let fx = motivating::build_fixture(30_000, 3_000, 11);
    let cobra = cobra_for(&fx, NetworkProfile::slow_remote());
    let opt = cobra.optimize_program(&motivating::p0()).unwrap();
    assert!(
        opt.tags.contains(&"prefetch"),
        "expected P2-like choice, got {:?}:\n{}",
        opt.tags,
        pretty::function_to_string(&opt.program)
    );
}

#[test]
fn optimized_program_is_semantically_equivalent_and_faster() {
    let fx = motivating::build_fixture(2_000, 400, 13);
    let net = NetworkProfile::slow_remote();
    let cobra = cobra_for(&fx, net.clone());
    let p0 = motivating::p0();
    let opt = cobra.optimize_program(&p0).unwrap();

    let original = run_on(&fx, net.clone(), &p0).unwrap();
    let rewritten = run_on(
        &fx,
        net,
        &cobra::imperative::ast::Program::single(opt.program.clone()),
    )
    .unwrap();

    assert_eq!(
        original.outcome.var_snapshot("result").normalized(),
        rewritten.outcome.var_snapshot("result").normalized(),
        "rewrite must preserve semantics:\n{}",
        pretty::function_to_string(&opt.program)
    );
    assert!(
        rewritten.secs < original.secs / 2.0,
        "rewrite should be much faster: {} vs {}",
        rewritten.secs,
        original.secs
    );
}

#[test]
fn cobra_never_picks_worse_than_original_estimate() {
    for (orders, customers) in [(100, 5_000), (5_000, 100), (1_000, 1_000)] {
        let fx = motivating::build_fixture(orders, customers, 17);
        for net in [NetworkProfile::slow_remote(), NetworkProfile::fast_local()] {
            let cobra = cobra_for(&fx, net);
            let opt = cobra.optimize_program(&motivating::p0()).unwrap();
            assert!(
                opt.est_cost_ns <= opt.original_cost_ns * 1.001,
                "({orders},{customers}): {} > {}",
                opt.est_cost_ns,
                opt.original_cost_ns
            );
        }
    }
}

#[test]
fn m0_dependent_aggregation_is_not_degraded() {
    // §V-B: extracting `sum` to SQL while keeping the loop adds a query;
    // COBRA must keep the single-query original.
    let fx = motivating::build_fixture(5_000, 500, 19);
    let cobra = cobra_for(&fx, NetworkProfile::slow_remote());
    let opt = cobra.optimize_program(&motivating::m0()).unwrap();
    let text = pretty::function_to_string(&opt.program);
    assert!(
        !text.contains("executeScalar"),
        "no extra aggregate query:\n{text}"
    );
    let queries = text.matches("executeQuery").count();
    assert_eq!(queries, 1, "single query retained:\n{text}");
}

#[test]
fn optimization_chooses_min_of_measured_alternatives() {
    // The cost-based choice should track the actually-fastest alternative
    // (shape property of Figures 13a-c).
    let configs = [(500usize, 10_000usize), (20_000, 2_000)];
    for (orders, customers) in configs {
        let fx = motivating::build_fixture(orders, customers, 23);
        let net = NetworkProfile::slow_remote();
        let t0 = run_on(&fx, net.clone(), &motivating::p0()).unwrap().secs;
        let t1 = run_on(&fx, net.clone(), &motivating::p1()).unwrap().secs;
        let t2 = run_on(&fx, net.clone(), &motivating::p2()).unwrap().secs;
        let cobra = cobra_for(&fx, net.clone());
        let opt = cobra.optimize_program(&motivating::p0()).unwrap();
        let chosen = run_on(
            &fx,
            net,
            &cobra::imperative::ast::Program::single(opt.program.clone()),
        )
        .unwrap()
        .secs;
        let best = t0.min(t1).min(t2);
        assert!(
            chosen <= best * 1.5,
            "({orders},{customers}): chosen {chosen}s vs best-of-three {best}s \
             (P0={t0}, P1={t1}, P2={t2})"
        );
    }
}

/// The lookup `prefetch` (rule N1) puts in place of `where b_k = :p` finds
/// what the query found, whatever the keys are. `a` has 400 rows, `b` 40,
/// their keys a type and a value per row number; the original finds `rows`.
fn prefetch_preserves_the_lookup(
    a_fk: (DataType, &dyn Fn(i64) -> Value),
    b_k: (DataType, &dyn Fn(i64) -> Value),
    rows: usize,
) {
    let mut db = Database::new();
    let schema =
        |k: &str, t, v: &str| Schema::new(vec![Column::new(k, t), Column::new(v, DataType::Int)]);
    let t = db
        .create_table("a", schema("a_fk", a_fk.0, "a_id"))
        .unwrap();
    t.insert_many((0..400).map(|i| vec![a_fk.1(i), Value::Int(i)]))
        .unwrap();
    let t = db.create_table("b", schema("b_k", b_k.0, "b_v")).unwrap();
    t.insert_many((0..40).map(|i| vec![b_k.1(i), Value::Int(100 + i)]))
        .unwrap();
    db.analyze_all();
    let fx = cobra::workloads::Fixture {
        db: cobra::minidb::shared(db),
        mapping: Default::default(),
        funcs: std::sync::Arc::new(FuncRegistry::with_builtins()),
    };

    let lookup = QuerySpec::sql("select * from b where b_k = :p")
        .bind("p", Expr::field(Expr::var("x"), "a_fk"));
    let add = StmtKind::Add("result".into(), Expr::field(Expr::var("r"), "b_v"));
    let inner = StmtKind::ForEach {
        var: "r".into(),
        iter: Expr::Query(lookup),
        body: vec![Stmt::new(add)],
    };
    let outer = StmtKind::ForEach {
        var: "x".into(),
        iter: Expr::Query(QuerySpec::sql("select * from a")),
        body: vec![Stmt::new(inner)],
    };
    let body = vec![
        Stmt::new(StmtKind::NewCollection("result".into())),
        Stmt::new(outer),
    ];
    let mut f = Function::new("lookups", vec!["result".to_string()], body);
    f.number_lines(2);
    let original = Program::single(f);

    // Without T4 the join is not on offer, and prefetching wins.
    let net = NetworkProfile::slow_remote();
    let cobra = fx
        .cobra_builder()
        .network(net.clone())
        .disable_rule("T4")
        .build();
    let opt = cobra.optimize_program(&original).unwrap();
    let text = pretty::function_to_string(&opt.program);
    assert!(opt.tags.contains(&"prefetch"), "{:?}:\n{text}", opt.tags);
    assert!(text.contains("lookupCache"), "{text}");

    let result = |program: &Program| {
        let run = run_on(&fx, net.clone(), program).unwrap();
        run.outcome.var_snapshot("result")
    };
    let (was, is) = (result(&original), result(&Program::single(opt.program)));
    let len = |result: &Snapshot| match result {
        Snapshot::List(found) => found.len(),
        other => panic!("{other}"),
    };
    assert_eq!((len(&was), len(&is)), (rows, rows), "original, rewritten");
    assert_eq!(was, is, "{text}");
}

#[test]
fn prefetch_finds_no_row_under_a_null_key() {
    // Two `a` rows in five have no `b`, five `b` rows no key: 240 of the
    // 400 lookups find their one row, and a NULL finds none of the five.
    let a_fk = |i: i64| match i % 5 {
        0 | 1 => Value::Null,
        _ => Value::Int(i % 35),
    };
    let b_k = |i: i64| if i < 35 { Value::Int(i) } else { Value::Null };
    prefetch_preserves_the_lookup((DataType::Int, &a_fk), (DataType::Int, &b_k), 240);
}

#[test]
fn prefetch_finds_an_int_key_under_its_float() {
    let a_fk = |i: i64| Value::Float((i % 40) as f64);
    prefetch_preserves_the_lookup((DataType::Float, &a_fk), (DataType::Int, &Value::Int), 400);
}
