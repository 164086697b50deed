//! Workload `search`: `Cobra::optimize_program` over 64 programs, a
//! fresh `Cobra` per op so the estimate cache is cold. Optimizer only:
//! `imperative`, `fir`, `volcano`, `core` and `minidb::estimate` do all
//! the work, the server and the executor none.
//!
//! An op is one `optimize_program` call; its kind is the program.

use crate::harness::{self, Config, Phase, Report, Tally};
use crate::stages::{self, fresh_cobra};
use crate::trace::{spanned, Tracer};
use cobra_core::Optimized;
use imperative::ast::{Function, Program};
use netsim::rng::StdRng;
use workloads::genprog::{GenCase, GenConfig};
use workloads::harness::Fixture;
use workloads::{motivating, wilos};

/// One program of the corpus with the fixture whose statistics the
/// optimizer reads.
pub struct Subject {
    pub name: String,
    pub fixture: Fixture,
    pub program: Program,
}

/// Generated programs in the corpus, beside the 32 Wilos fragments of
/// Fig. 16 and `motivating::{p0, m0}`.
const GENERATED: usize = 30;

/// The 64 programs. `--seed` draws the data (and so the statistics the
/// optimizer reads) and the order of every pass; which programs there are
/// does not depend on it, because runs are compared across seeds and a
/// corpus redrawn per seed moves the geomean by several percent and the
/// heaviest program tenfold. The generated cases are the first
/// [`GENERATED`] of `GenCase::from_seed(0..)` whose search stays within
/// the default budget, so that `budget_exhausted` on any op of the run is
/// a failure of the program under test and not a property of the input.
pub fn corpus(cfg: &Config) -> Vec<Subject> {
    let scale = if cfg.smoke { 400 } else { 20_000 };
    let mut out = Vec::with_capacity(34 + GENERATED);
    let wilos_fx = wilos::build_fixture(scale, cfg.seed);
    for f in wilos::fragments() {
        out.push(Subject {
            name: format!("wilos{}", f.id),
            fixture: wilos_fx.clone(),
            program: f.program,
        });
    }
    let orders_fx = motivating::build_fixture(scale, scale / 10, cfg.seed);
    for (name, program) in [("p0", motivating::p0()), ("m0", motivating::m0())] {
        out.push(Subject {
            name: name.to_string(),
            fixture: orders_fx.clone(),
            program,
        });
    }
    let gen_cfg = GenConfig::default();
    for case_seed in 0.. {
        if out.len() == 34 + GENERATED {
            break;
        }
        let case = GenCase::from_seed(case_seed, &gen_cfg);
        let subject = Subject {
            name: format!("gen{case_seed}"),
            fixture: case
                .schema
                .build_fixture(cfg.seed.wrapping_mul(1_000_003) ^ case_seed, 1.0),
            program: case.program,
        };
        if fresh_cobra(&subject.fixture)
            .optimize_program(&subject.program)
            .is_ok_and(|o| !o.budget_exhausted)
        {
            out.push(subject);
        }
    }
    out
}

/// A pass order drawn from `rng` (Fisher-Yates).
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// The output check of one op. `first` is what the first pass emitted
/// for the same program: the search must be deterministic.
pub fn check(opt: &Optimized, first: &Function) -> Result<(), String> {
    let name = &opt.program.name;
    if opt.est_cost_ns > opt.original_cost_ns {
        return Err(format!(
            "{name}: chosen plan costs {} ns, the original {} ns",
            opt.est_cost_ns, opt.original_cost_ns
        ));
    }
    if opt.budget_exhausted {
        return Err(format!("{name}: search budget exhausted"));
    }
    if opt.program != *first {
        return Err(format!("{name}: emitted program differs between passes"));
    }
    Ok(())
}

/// Passes over the corpus, each in an order drawn from `seed`, until the
/// phase ends; every op checked. Under a tracer every pass is followed by
/// the staged replay of the calls it made.
fn passes(
    corpus: &[Subject],
    seed: u64,
    phase: &mut Phase,
    tally: &mut Tally,
    mut tr: Option<&mut Tracer>,
    counts: &mut stages::Counts,
) {
    let subjects: Vec<stages::Subject> = corpus.iter().map(|s| (&s.fixture, &s.program)).collect();
    let mut first: Vec<Option<Function>> = vec![None; corpus.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    while phase.running() {
        let mut whole: Vec<Option<(u64, Optimized)>> = vec![None; corpus.len()];
        for kind in shuffled(corpus.len(), &mut rng) {
            let subject = &corpus[kind];
            let cobra = fresh_cobra(&subject.fixture);
            let id = phase.ops.len() as u64;
            let result = phase.time(kind, || {
                spanned(&mut tr, id, "core.optimize", || {
                    cobra.optimize_program(&subject.program)
                })
            });
            tally.record(match result {
                Ok(opt) => {
                    let first = first[kind].get_or_insert_with(|| opt.program.clone());
                    let verdict = check(&opt, first);
                    whole[kind] = Some((id, opt));
                    verdict
                }
                Err(e) => Err(format!("{}: {e}", subject.name)),
            });
        }
        phase.end_pass();
        if let Some(tr) = tr.as_deref_mut() {
            for verdict in stages::replay(tr, &subjects, &whole, counts) {
                tally.record(verdict);
            }
        }
    }
}

pub fn run(cfg: &Config, traced: bool) -> Report {
    let (corpus, setup_s) = harness::set_up(cfg, traced, || corpus(cfg));
    let kinds = corpus.iter().map(|s| s.name.clone()).collect();
    let mut counts = stages::Counts::default();
    let driven = harness::drive(cfg, traced, kinds, |phase, tally, tr| {
        passes(&corpus, cfg.seed, phase, tally, tr, &mut counts)
    });
    let Some((tr, bench)) = driven.traced else {
        return harness::end_to_end_report(driven.tally, &driven.timed, setup_s);
    };
    let mut metrics = stages::metrics(&tr, &counts);
    metrics.extend(bench);
    Report {
        tally: driven.tally,
        metrics,
        tracer: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Config {
        Config {
            seed: 1,
            seconds: 0.05,
            smoke: true,
        }
    }

    /// The checker of the checker: each way an op can be wrong is
    /// reported as a failed op.
    #[test]
    fn check_rejects_each_wrong_outcome() {
        let corpus = corpus(&smoke());
        assert_eq!(corpus.len(), 64);
        let program = &corpus[32].program;
        let opt = fresh_cobra(&corpus[32].fixture)
            .optimize_program(program)
            .unwrap();
        assert_eq!(check(&opt, &opt.program), Ok(()));

        let mut costlier = opt.clone();
        costlier.est_cost_ns = opt.original_cost_ns * 2.0 + 1.0;
        assert!(check(&costlier, &opt.program)
            .unwrap_err()
            .contains("costs"));

        let mut exhausted = opt.clone();
        exhausted.budget_exhausted = true;
        assert!(check(&exhausted, &opt.program)
            .unwrap_err()
            .contains("exhausted"));

        // A non-deterministic search: this pass emitted something else
        // than the first pass did.
        let other_pass = program.entry().clone();
        assert_ne!(other_pass, opt.program, "P0 is rewritten");
        assert!(check(&opt, &other_pass).unwrap_err().contains("differs"));

        let mut tally = Tally::default();
        tally.record(check(&opt, &other_pass));
        tally.record(check(&opt, &opt.program));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn the_seed_draws_data_and_order_not_programs() {
        let rows = |seed| -> Vec<(String, usize)> {
            let cfg = Config { seed, ..smoke() };
            corpus(&cfg)
                .into_iter()
                .map(|s| {
                    let db = s.fixture.db.read().unwrap();
                    let digest = db
                        .tables()
                        .flat_map(|t| t.rows().iter().flatten())
                        .filter_map(|v| v.as_i64())
                        .fold(0usize, |h, v| h.wrapping_mul(31).wrapping_add(v as usize));
                    (s.name, digest)
                })
                .collect()
        };
        let (a, again, b) = (rows(7), rows(7), rows(8));
        assert_eq!(a, again);
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0), "same programs");
        assert!(a.iter().zip(&b).any(|(x, y)| x.1 != y.1), "other data");
        let order = |seed| shuffled(64, &mut StdRng::seed_from_u64(seed));
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }
}
