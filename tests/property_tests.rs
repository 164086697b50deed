//! Property-based tests across crates: SQL printing round-trips, executor
//! algebraic invariants, and — most importantly — **rewrite soundness**:
//! COBRA-optimized programs compute the same results as the originals on
//! randomized databases.
//!
//! The workspace builds without network access, so instead of proptest the
//! cases are driven by a small deterministic xorshift generator: same
//! properties, reproducible counterexamples (the failing seed is in the
//! assertion message).

use cobra::core::{heuristic, CostCatalog};
use cobra::imperative::ast::Program;
use cobra::minidb::{sql, Value};
use cobra::netsim::rng::StdRng;
use cobra::netsim::NetworkProfile;
use cobra::workloads::{harness::run_on, motivating, wilos};

/// An identifier-ish name: `[a-z][a-z0-9_]{0,8}`.
fn ident(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..rng.gen_range(0..9usize) {
        s.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    s
}

// ---------------------------------------------------------------------
// SQL front-end round trips.
// ---------------------------------------------------------------------

/// print ∘ parse is a fixpoint for generated SELECT statements.
#[test]
fn sql_print_parse_fixpoint() {
    let mut rng = StdRng::seed_from_u64(0xC0B7A);
    for case in 0..64 {
        let table = ident(&mut rng);
        let col = ident(&mut rng);
        let n = rng.gen_range(0..1000);
        let mut text = format!("select * from {table} where {col} > {n} order by {col}");
        if !rng.gen_bool() {
            text.push_str(" desc");
        }
        if rng.gen_bool() {
            text.push_str(&format!(" limit {}", rng.gen_range(0..100)));
        }
        let plan = sql::parse(&text).unwrap();
        let printed = sql::print(&plan);
        let reparsed = sql::parse(&printed).unwrap();
        assert_eq!(sql::print(&reparsed), printed, "case {case}: {text}");
    }
}

/// String literals survive the escape/unescape round trip.
#[test]
fn sql_string_literals_round_trip() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ' ";
    let mut rng = StdRng::seed_from_u64(0x51A7);
    for case in 0..64 {
        let len = rng.gen_range(0..21) as usize;
        let s: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect();
        let text = format!("select * from t where c = '{}'", s.replace('\'', "''"));
        let plan = sql::parse(&text).unwrap();
        let printed = sql::print(&plan);
        let plan2 = sql::parse(&printed).unwrap();
        assert_eq!(plan, plan2, "case {case}: {text}");
    }
}

// ---------------------------------------------------------------------
// Executor invariants on randomized databases.
// ---------------------------------------------------------------------

/// σ_p(σ_q(R)) ≡ σ_q(σ_p(R)), and both subsume σ_{p∧q}(R).
#[test]
fn selection_commutes() {
    let mut rng = StdRng::seed_from_u64(0x5E1EC7);
    for case in 0..24 {
        let orders = rng.gen_range(1..300) as usize;
        let seed = rng.gen_range(0..500);
        let fx = motivating::build_fixture(orders, 20, seed);
        let db = fx.db.read().unwrap();
        let funcs = cobra::minidb::FuncRegistry::with_builtins();
        let exec = cobra::minidb::Executor::new(&db, &funcs);
        let none = std::collections::HashMap::new();
        let a = sql::parse("select * from orders where o_amount > 100.0 and o_status = 'open'")
            .unwrap();
        let b = sql::parse("select * from orders where o_status = 'open' and o_amount > 100.0")
            .unwrap();
        let ra = exec.execute(&a, &none).unwrap();
        let rb = exec.execute(&b, &none).unwrap();
        assert_eq!(ra.rows, rb.rows, "case {case}: orders={orders} seed={seed}");
    }
}

/// Join cardinality equals the sum over orders of matching customers
/// (FK semantics), independent of join input order.
#[test]
fn join_symmetry() {
    let mut rng = StdRng::seed_from_u64(0x1014);
    for case in 0..24 {
        let orders = rng.gen_range(1..200) as usize;
        let customers = rng.gen_range(1..50) as usize;
        let seed = rng.gen_range(0..500);
        let fx = motivating::build_fixture(orders, customers, seed);
        let db = fx.db.read().unwrap();
        let funcs = cobra::minidb::FuncRegistry::with_builtins();
        let exec = cobra::minidb::Executor::new(&db, &funcs);
        let none = std::collections::HashMap::new();
        let ab = sql::parse(
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        )
        .unwrap();
        let ba = sql::parse(
            "select * from customer c join orders o on o.o_customer_sk = c.c_customer_sk",
        )
        .unwrap();
        let rab = exec.execute(&ab, &none).unwrap();
        let rba = exec.execute(&ba, &none).unwrap();
        assert_eq!(rab.row_count(), rba.row_count(), "case {case} seed={seed}");
        assert_eq!(
            rab.row_count() as usize,
            orders,
            "case {case} seed={seed}: every order joins its customer"
        );
    }
}

/// count(*) equals the materialized row count for any filter.
#[test]
fn count_matches_materialization() {
    let mut rng = StdRng::seed_from_u64(0xC0047);
    for case in 0..24 {
        let orders = rng.gen_range(1..300) as usize;
        let seed = rng.gen_range(0..500);
        let fx = motivating::build_fixture(orders, 10, seed);
        let db = fx.db.read().unwrap();
        let funcs = cobra::minidb::FuncRegistry::with_builtins();
        let exec = cobra::minidb::Executor::new(&db, &funcs);
        let none = std::collections::HashMap::new();
        let rows = exec
            .execute(
                &sql::parse("select * from orders where o_status = 'open'").unwrap(),
                &none,
            )
            .unwrap();
        let count = exec
            .execute(
                &sql::parse("select count(*) as n from orders where o_status = 'open'").unwrap(),
                &none,
            )
            .unwrap();
        assert_eq!(
            count.rows[0][0],
            Value::Int(rows.row_count() as i64),
            "case {case} seed={seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Rewrite soundness: the headline property.
// ---------------------------------------------------------------------

/// COBRA's chosen program computes the same `result` as P0 on random
/// databases, for both networks and several AF values.
#[test]
fn cobra_rewrites_preserve_p0_semantics() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for case in 0..12 {
        let orders = rng.gen_range(1..400) as usize;
        let customers = rng.gen_range(1..100) as usize;
        let seed = rng.gen_range(0..1000);
        let slow = rng.gen_bool();
        let af = if rng.gen_bool() { 1.0 } else { 50.0 };
        let fx = motivating::build_fixture(orders, customers, seed);
        let net = if slow {
            NetworkProfile::slow_remote()
        } else {
            NetworkProfile::fast_local()
        };
        let p0 = motivating::p0();
        let cobra = fx
            .cobra_builder()
            .network(net.clone())
            .catalog(CostCatalog::with_af(af))
            .build();
        let opt = cobra.optimize_program(&p0).unwrap();
        let original = run_on(&fx, net.clone(), &p0).unwrap();
        let rewritten = run_on(&fx, net, &Program::single(opt.program.clone())).unwrap();
        assert_eq!(
            original.outcome.var_snapshot("result").normalized(),
            rewritten.outcome.var_snapshot("result").normalized(),
            "case {case}: orders={orders} customers={customers} seed={seed} slow={slow} af={af}"
        );
    }
}

/// Heuristic rewrites are also semantics-preserving (they share the
/// same transformation machinery).
#[test]
fn heuristic_rewrites_preserve_p0_semantics() {
    let mut rng = StdRng::seed_from_u64(0x4E0951);
    for case in 0..12 {
        let orders = rng.gen_range(1..300) as usize;
        let customers = rng.gen_range(1..60) as usize;
        let seed = rng.gen_range(0..1000);
        let fx = motivating::build_fixture(orders, customers, seed);
        let net = NetworkProfile::fast_local();
        let p0 = motivating::p0();
        let h = heuristic::optimize_heuristic(&p0, &fx.cobra_builder().build());
        let original = run_on(&fx, net.clone(), &p0).unwrap();
        let rewritten = run_on(&fx, net, &Program::single(h)).unwrap();
        assert_eq!(
            original.outcome.var_snapshot("result").normalized(),
            rewritten.outcome.var_snapshot("result").normalized(),
            "case {case}: orders={orders} customers={customers} seed={seed}"
        );
    }
}

// Wilos representatives: soundness across every pattern (fixed seeds,
// all patterns — a loop keeps the run time bounded).
#[test]
fn cobra_preserves_all_wilos_pattern_semantics() {
    for seed in [3u64, 17] {
        for pattern in wilos::Pattern::all() {
            let program = wilos::representative(pattern);
            let net = NetworkProfile::fast_local();
            for af in [1.0, 50.0] {
                // Fresh fixtures per run: pattern A writes to the database.
                let fx_a = wilos::build_fixture(3_000, seed);
                let original = run_on(&fx_a, net.clone(), &program).unwrap();

                let fx_b = wilos::build_fixture(3_000, seed);
                let cobra = fx_b
                    .cobra_builder()
                    .network(net.clone())
                    .catalog(CostCatalog::with_af(af))
                    .build();
                let opt = cobra.optimize_program(&program).unwrap();
                let mut functions = vec![opt.program.clone()];
                functions.extend(program.functions.iter().skip(1).cloned());
                let rewritten = run_on(&fx_b, net.clone(), &Program { functions }).unwrap();

                assert_eq!(
                    original.outcome.var_snapshot("result").normalized(),
                    rewritten.outcome.var_snapshot("result").normalized(),
                    "pattern {pattern:?} af={af} seed={seed}:\n{}",
                    cobra::imperative::pretty::function_to_string(&opt.program)
                );
                // Pattern A also mutates rows: database states must agree.
                if pattern == wilos::Pattern::A {
                    assert_eq!(
                        fx_a.db.read().unwrap().table("role").unwrap().rows(),
                        fx_b.db.read().unwrap().table("role").unwrap().rows(),
                        "pattern A database effects preserved"
                    );
                }
            }
        }
    }
}
