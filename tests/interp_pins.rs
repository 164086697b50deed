//! What running a program yields, pinned: its observables *and* what it
//! cost on the virtual clock. The oracle proves an optimized program
//! equivalent to its original; nothing else holds `elapsed_ns`, the round
//! trips, the bytes moved and the statement count of a run fixed — and
//! they are what `cobra_bench`'s `CHOSEN_PLAN_COST` check, the cost-model
//! fidelity gate and every figure stand on. One digest over 500 generated
//! cases, the 32 Wilos fragments and `motivating::{p0, p1, p2, m0}`, each
//! run as written and as optimized on the slow-remote profile, holds that
//! across refactors of `interp`, `orm` and `minidb`'s result boundary; a
//! change that is meant to move it re-pins the constant in the same commit.

use cobra::minidb::StableHasher;
use cobra::prelude::*;
use std::hash::{Hash, Hasher};

/// Taken at the commit before a query's result became columnar end to end
/// and the interpreter began resolving names once per run.
const RUNS_DIGEST: u64 = 0x46f6_940d_62ae_5c76;

/// A fixture per run: a program may update the database.
fn corpus() -> Vec<(Box<dyn Fn() -> Fixture>, Program)> {
    let mut out: Vec<(Box<dyn Fn() -> Fixture>, Program)> = Vec::new();
    let cfg = GenConfig::default();
    for seed in 0..500 {
        let case = GenCase::from_seed(seed, &cfg);
        let program = case.program.clone();
        out.push((Box::new(move || case.fixture()), program));
    }
    let fx = wilos::build_fixture(2_000, 5);
    for fragment in wilos::fragments() {
        let fx = fx.clone();
        out.push((Box::new(move || fx.fork_db()), fragment.program));
    }
    let fx = motivating::build_fixture(2_000, 400, 11);
    for program in [
        motivating::p0(),
        motivating::p1(),
        motivating::p2(),
        motivating::m0(),
    ] {
        let fx = fx.clone();
        out.push((Box::new(move || fx.fork_db()), program));
    }
    out
}

#[test]
fn runs_are_pinned() {
    let net = NetworkProfile::slow_remote;
    let mut h = StableHasher::new();
    let (mut runs, mut errors, mut stmts) = (0u64, 0u64, 0u64);
    for (fixture, program) in corpus() {
        let optimized = fixture()
            .cobra_builder()
            .network(net())
            .build()
            .optimize_program(&program)
            .expect("optimizes");
        let observed: Vec<&str> = program.entry().params.iter().map(|p| p.as_str()).collect();
        for runnable in [program.clone(), program.with_entry(optimized.program)] {
            runs += 1;
            match run_on(&fixture(), net(), &runnable) {
                Ok(run) => {
                    let o = &run.outcome;
                    o.normalized_with_vars(&observed).to_string().hash(&mut h);
                    (o.elapsed_ns, o.round_trips, o.bytes, o.stmts_executed).hash(&mut h);
                    stmts += o.stmts_executed;
                }
                Err(e) => {
                    errors += 1;
                    e.to_string().hash(&mut h);
                }
            }
        }
    }
    println!("{runs} runs, {errors} of them errors, {stmts} statements executed");
    assert_eq!(h.finish(), RUNS_DIGEST, "{:#018x}", h.finish());
}
