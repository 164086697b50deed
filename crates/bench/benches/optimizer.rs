//! Micro-benchmarks of the optimizer itself: Region DAG construction +
//! rule expansion + cost-based extraction (the paper's "<1 s optimization
//! time" claim), plus ablations of the framework pieces (Volcano rule
//! engine, F-IR conversion), and the parallel batch driver against its
//! sequential baseline.
//!
//! Uses the dependency-free runner in `bench_support` (the workspace
//! builds offline, so criterion is unavailable). Run with
//! `cargo bench --bench optimizer`.

use bench_support::{bench_fn, cobra_for};
use cobra_core::CostCatalog;
use netsim::NetworkProfile;
use volcano::relalg::{left_deep_join, JoinAssociativity, JoinCommutativity};
use volcano::Memo;
use workloads::{motivating, wilos};

fn bench_optimize_motivating() {
    let fixture = motivating::build_fixture(10_000, 2_000, 3);
    let cobra = cobra_for(
        &fixture,
        NetworkProfile::slow_remote(),
        CostCatalog::default(),
    );
    let p0 = motivating::p0();
    bench_fn("optimize/p0", 20, || cobra.optimize_program(&p0).unwrap());
    let m0 = motivating::m0();
    bench_fn("optimize/m0", 20, || cobra.optimize_program(&m0).unwrap());
}

fn bench_optimize_patterns() {
    let fixture = wilos::build_fixture(10_000, 3);
    let cobra = cobra_for(
        &fixture,
        NetworkProfile::fast_local(),
        CostCatalog::default(),
    );
    for pattern in wilos::Pattern::all() {
        let program = wilos::representative(pattern);
        bench_fn(&format!("optimize/pattern_{pattern:?}"), 20, || {
            cobra.optimize_program(&program).unwrap()
        });
    }
}

fn bench_optimize_batch() {
    // The batch driver vs. one-at-a-time optimization of the same programs.
    let fixture = motivating::build_fixture(10_000, 2_000, 3);
    let cobra = cobra_for(
        &fixture,
        NetworkProfile::slow_remote(),
        CostCatalog::default(),
    );
    let mut programs = vec![motivating::p0(), motivating::m0()];
    for pattern in wilos::Pattern::all() {
        programs.push(wilos::representative(pattern));
    }
    let sequential = bench_fn("batch/sequential_8_programs", 10, || {
        programs
            .iter()
            .map(|p| cobra.optimize_program(p).unwrap().est_cost_ns)
            .sum::<f64>()
    });
    let parallel = bench_fn("batch/optimize_batch_8_programs", 10, || {
        cobra
            .optimize_batch(&programs)
            .into_iter()
            .map(|r| r.unwrap().est_cost_ns)
            .sum::<f64>()
    });
    println!(
        "batch speedup: {:.2}x over sequential ({} cores)",
        sequential / parallel,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
}

fn bench_memo_expansion() {
    // Ablation: the Volcano framework itself (Figure 4's example, then a
    // 5-relation enumeration).
    bench_fn("volcano/commutativity_3_rel", 20, || {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&["A", "B", "C"]), None);
        volcano::expand(&mut memo, &[&JoinCommutativity], 16);
        volcano::count_plans(&memo, root)
    });
    bench_fn("volcano/full_enumeration_5_rel", 20, || {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&left_deep_join(&["A", "B", "C", "D", "E"]), None);
        volcano::expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 64);
        volcano::count_plans(&memo, root)
    });
}

fn bench_fir_rules() {
    // Ablation: F-IR construction + rule closure for P0's loop.
    use imperative::ast::{Expr, Stmt, StmtKind};
    let fixture = motivating::build_fixture(100, 10, 3);
    let body = vec![
        Stmt::new(StmtKind::Let(
            "cust".into(),
            Expr::nav(Expr::var("o"), "customer"),
        )),
        Stmt::new(StmtKind::Add(
            "result".into(),
            Expr::Call(
                "myFunc".into(),
                vec![
                    Expr::field(Expr::var("o"), "o_id"),
                    Expr::field(Expr::var("cust"), "c_birth_year"),
                ],
            ),
        )),
    ];
    let live = vec!["result".to_string()];
    bench_fn("fir/loop_to_fold+rules/p0", 20, || {
        let base = fir::build::loop_to_fold(
            "o",
            &Expr::LoadAll("Order".into()),
            &body,
            &fixture.mapping,
            Some(&live),
        )
        .unwrap();
        fir::expand_with(base, &fir::RuleSet::standard(), 64)
            .alternatives
            .len()
    });
}

fn main() {
    bench_optimize_motivating();
    bench_optimize_patterns();
    bench_optimize_batch();
    bench_memo_expansion();
    bench_fir_rules();
}
