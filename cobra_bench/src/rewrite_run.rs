//! Workload `rewrite_run`: the paper's own result. The six Wilos
//! representative patterns, P0 and M0 are optimized once, then the
//! chosen rewrite of each is executed over and over at 20 000 rows.
//! `interp`, `orm` and `minidb` do the work; a faster search that picks
//! a worse plan shows here and nowhere else.
//!
//! An op is one execution of a rewritten program through
//! `workloads::harness::run_on`; its kind is the program. A program that
//! updates the database runs on a fresh copy of the fixture every time;
//! making the copy is not timed.

use crate::harness::{self, Config, Phase, Report, Tally};
use crate::metrics;
use crate::stages;
use crate::trace::{spanned, Tracer};
use imperative::ast::Program;
use interp::NormalizedOutcome;
use netsim::NetworkProfile;
use workloads::harness::{run_on, Fixture, RunResult};
use workloads::{motivating, wilos};

pub struct Case {
    pub name: String,
    base: Fixture,
    pub original: Program,
    pub rewritten: Program,
    /// The program writes to the database: every run needs its own copy.
    updates: bool,
    /// What the **original** program computes on an identical fresh
    /// fixture, under the interpreter: the reference of the output check.
    pub reference: NormalizedOutcome,
    /// What that original run cost on the virtual clock.
    pub original_cost: Simulated,
    /// The most the rewritten program may cost on the virtual clock.
    limit: Simulated,
}

/// What a run cost on the virtual clock; repeats exactly.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Simulated {
    pub secs: f64,
    pub round_trips: u64,
}

impl Simulated {
    fn of(run: &RunResult) -> Simulated {
        Simulated {
            secs: run.secs,
            round_trips: run.outcome.round_trips,
        }
    }
}

/// Rows per table of the full-size fixtures.
const SCALE: usize = 20_000;

/// What the plan chosen for each program costs on the virtual clock at
/// [`SCALE`], as `(round trips, simulated seconds)`, at the commit that
/// defined this benchmark. The figures depend on the sizes of the tables,
/// not on the rows a seed draws, so they repeat exactly. They are the
/// ceiling of the output check: real wall time does not include simulated
/// round trips, so a search that chooses a plan with more of them at
/// similar CPU cost would otherwise pass unseen. A better plan passes;
/// lowering the ceiling to it is a change to the benchmark.
const CHOSEN_PLAN_COST: [(&str, u64, f64); 8] = [
    ("patternA", 81, 20.82857406),
    ("patternB", 1, 13.69180009),
    ("patternC", 2, 1.07858649),
    ("patternD", 1, 24.58320006),
    ("patternE", 20, 19.08120372),
    ("patternF", 2, 2.54848015),
    ("p0", 2, 36.72580009),
    ("m0", 1, 5.43980015),
];

fn net() -> NetworkProfile {
    NetworkProfile::slow_remote()
}

/// The run's observables: the entry function's out-parameters, return
/// value and prints, normalized as the differential oracle does.
pub fn observe(program: &Program, run: &RunResult) -> NormalizedOutcome {
    let vars: Vec<&str> = program.entry().params.iter().map(|s| s.as_str()).collect();
    run.outcome.normalized_with_vars(&vars)
}

impl Case {
    /// A fixture this case may run on: a private copy when it updates.
    fn fixture(&self) -> Fixture {
        if self.updates {
            self.base.fork_db()
        } else {
            self.base.clone()
        }
    }

    fn run_rewritten(&self, fixture: &Fixture) -> Result<RunResult, String> {
        run_on(fixture, net(), &self.rewritten).map_err(|e| format!("{}: {e}", self.name))
    }
}

/// The output check: the rewritten program's observables equal the
/// original program's, and on the virtual clock it costs no more than
/// the case's limit.
pub fn check(case: &Case, run: &RunResult) -> Result<(), String> {
    let got = observe(&case.rewritten, run);
    if got != case.reference {
        return Err(format!(
            "{}: the rewritten program computed something else than the original",
            case.name
        ));
    }
    let (cost, limit) = (Simulated::of(run), case.limit);
    // Simulated seconds are sums of floats; allow for their rounding.
    if cost.round_trips > limit.round_trips || cost.secs > limit.secs * (1.0 + 1e-6) {
        return Err(format!(
            "{}: the chosen plan makes {} round trip(s) in {} simulated s, the limit is {} in {}",
            case.name, cost.round_trips, cost.secs, limit.round_trips, limit.secs
        ));
    }
    Ok(())
}

pub fn cases(cfg: &Config) -> Vec<Case> {
    let scale = if cfg.smoke { SCALE / 50 } else { SCALE };
    let wilos_fx = wilos::build_fixture(scale, cfg.seed);
    let orders_fx = motivating::build_fixture(scale, scale / 10, cfg.seed);
    let mut programs: Vec<(String, &Fixture, Program)> = wilos::Pattern::all()
        .into_iter()
        .map(|p| (format!("pattern{p:?}"), &wilos_fx, wilos::representative(p)))
        .collect();
    programs.push(("p0".into(), &orders_fx, motivating::p0()));
    programs.push(("m0".into(), &orders_fx, motivating::m0()));

    programs
        .into_iter()
        .map(|(name, base, original)| {
            let cobra = base.cobra_builder().network(net()).build();
            let optimized = cobra
                .optimize_program(&original)
                .unwrap_or_else(|e| panic!("{name} does not optimize: {e}"));
            let updates = !cobra_core::transforms::updated_tables(&original).is_empty();
            let fresh = if updates {
                base.fork_db()
            } else {
                base.clone()
            };
            let run = run_on(&fresh, net(), &original)
                .unwrap_or_else(|e| panic!("original {name} does not run: {e}"));
            // Smoke-size tables cost other figures; there the rewrite must
            // at least not cost more than the program it replaces.
            let original_cost = Simulated::of(&run);
            let limit = match CHOSEN_PLAN_COST.iter().find(|(n, ..)| *n == name) {
                Some(&(_, round_trips, secs)) if !cfg.smoke => Simulated { secs, round_trips },
                Some(_) => original_cost,
                None => panic!("{name} has no entry in CHOSEN_PLAN_COST"),
            };
            Case {
                reference: observe(&original, &run),
                original_cost,
                limit,
                rewritten: original.with_entry(optimized.program),
                original,
                base: base.clone(),
                updates,
                name,
            }
        })
        .collect()
}

/// Passes over the eight programs until the phase ends; every op
/// checked. Returns what the last pass saw on the virtual clock.
fn passes(
    cases: &[Case],
    phase: &mut Phase,
    tally: &mut Tally,
    mut tr: Option<&mut Tracer>,
) -> Vec<Simulated> {
    let mut simulated = vec![Simulated::default(); cases.len()];
    while phase.running() {
        for (kind, case) in cases.iter().enumerate() {
            let fixture = case.fixture();
            let id = phase.ops.len() as u64;
            let result = phase.time(kind, || {
                spanned(&mut tr, id, "interp.run", || case.run_rewritten(&fixture))
            });
            tally.record(result.and_then(|run| {
                simulated[kind] = Simulated::of(&run);
                check(case, &run)
            }));
        }
        phase.end_pass();
    }
    simulated
}

pub fn run(cfg: &Config, traced: bool) -> Report {
    let (cases, setup_s) = harness::set_up(cfg, traced, || cases(cfg));
    let kinds = cases.iter().map(|c| c.name.clone()).collect();
    let mut simulated = Vec::new();
    let mut driven = harness::drive(cfg, traced, kinds, |phase, tally, tr| {
        simulated = passes(&cases, phase, tally, tr)
    });
    let Some((mut tr, bench)) = driven.traced else {
        return harness::end_to_end_report(driven.tally, &driven.timed, setup_s);
    };

    // The optimizer's share of this workload: the same staged replay as
    // `search`, over these eight programs, once.
    let mut counts = stages::Counts::default();
    let subjects: Vec<stages::Subject> = cases.iter().map(|c| (&c.base, &c.original)).collect();
    let ops = driven.timed.ops.len() as u64;
    for verdict in stages::round(&mut tr, &subjects, ops, &mut counts) {
        driven.tally.record(verdict);
    }

    let speedups: Vec<f64> = cases
        .iter()
        .zip(&simulated)
        .filter(|(_, s)| s.secs > 0.0)
        .map(|(c, s)| c.original_cost.secs / s.secs)
        .collect();
    let mut out = stages::metrics(&tr, &counts);
    out.extend([
        ("interp.run_us", tr.layer("interp.run").mean_us()),
        (
            "orm.round_trips_original",
            cases
                .iter()
                .map(|c| c.original_cost.round_trips)
                .sum::<u64>() as f64,
        ),
        (
            "orm.round_trips_rewritten",
            simulated.iter().map(|s| s.round_trips).sum::<u64>() as f64,
        ),
        (
            "netsim.sim_ns_rewritten",
            simulated.iter().map(|s| s.secs).sum::<f64>() * 1e9,
        ),
        ("netsim.sim_speedup_geomean", metrics::geomean(&speedups)),
    ]);
    out.extend(bench);
    Report {
        tally: driven.tally,
        metrics: out,
        tracer: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checker of the checker: a rewrite that computes something else
    /// — here P0's result handed to M0's reference — is a failed op.
    #[test]
    fn check_rejects_a_wrong_result() {
        let cfg = Config {
            seed: 1,
            seconds: 0.05,
            smoke: true,
        };
        let cases = cases(&cfg);
        assert_eq!(cases.len(), 8);
        let (p0, m0) = (&cases[6], &cases[7]);
        let run = p0.run_rewritten(&p0.fixture()).unwrap();
        assert_eq!(check(p0, &run), Ok(()));
        assert!(check(m0, &run).unwrap_err().contains("something else"));
        assert_ne!(p0.rewritten, p0.original, "P0 is rewritten");
    }

    /// The checker of the checker, plan quality: a search that kept P0 as
    /// it was written (same results, one round trip per order) fails
    /// every op against the cost of the plan the search chooses today,
    /// and so does any plan against a ceiling one round trip lower.
    #[test]
    fn check_rejects_a_plan_that_costs_more_on_the_virtual_clock() {
        let cfg = Config {
            seed: 1,
            seconds: 0.05,
            smoke: true,
        };
        let mut cases = cases(&cfg);
        let p0 = &mut cases[6];
        let chosen = Simulated::of(&p0.run_rewritten(&p0.fixture()).unwrap());
        assert!(chosen.round_trips < p0.original_cost.round_trips);

        p0.limit = chosen;
        let kept_as_written = run_on(&p0.fixture(), net(), &p0.original).unwrap();
        assert_eq!(observe(&p0.original, &kept_as_written), p0.reference);
        assert!(check(p0, &kept_as_written)
            .unwrap_err()
            .contains("round trip"));

        p0.limit.round_trips -= 1;
        let run = p0.run_rewritten(&p0.fixture()).unwrap();
        assert!(check(p0, &run).unwrap_err().contains("round trip"));
    }

    /// The full-size figures are the same whatever the seed, so the check
    /// may hold every run to one table; and today's search stays within it.
    #[test]
    fn full_size_plan_costs_do_not_depend_on_the_seed() {
        let costs = |seed| -> Vec<Simulated> {
            let cfg = Config {
                seed,
                seconds: 0.05,
                smoke: false,
            };
            cases(&cfg)
                .iter()
                .map(|case| {
                    let run = case.run_rewritten(&case.fixture()).unwrap();
                    assert_eq!(check(case, &run), Ok(()), "seed {seed}");
                    Simulated::of(&run)
                })
                .collect()
        };
        assert_eq!(costs(1), costs(9));
    }
}
