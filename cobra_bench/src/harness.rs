//! What every workload shares: the run configuration, the set-up, the
//! timed phase, the one driver of the untraced and the traced pass, and
//! the tally of checked operations.

use crate::metrics::{self, Mark, Op, Timed, SLICE_S};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// How one workload process was asked to run.
#[derive(Clone)]
pub struct Config {
    /// Drives every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// 1/50-size inputs and a short timed phase: checks on, timings
    /// meaningless. Backs the tests and a quick CI run.
    pub smoke: bool,
}

/// Fewest set-ups per untraced run, and the least time spent on them;
/// `setup_s` is their median. The first set-up of a process is the one a
/// user pays and is cold (`search`: 140 ms, then 60 ms, then 45 ms each),
/// so of five the median is the slowest of three warm ones and a single
/// hiccup moves it to a cold one: ten runs spread 21 to 40 % on the 40 ms
/// set-ups. Seven leave the median among the warm ones on `exec_olap`
/// (0.75 s each), and 1.5 s gives a 40 ms set-up some thirty turns, which
/// a noisy spell of the host has to outlast by half to move the median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_S: f64 = 1.5;

/// Client threads of the serving workloads: callers that each wait for
/// their reply, never more than the host has cores.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Build the workload's state at least [`SETUP_MIN_REPS`] times and for
/// at least [`SETUP_MIN_S`] (once for a traced or a smoke run, which
/// report no `setup_s`), dropping each before the next is built, and
/// return the last with the median build time in seconds.
pub fn set_up<S>(cfg: &Config, traced: bool, mut build: impl FnMut() -> S) -> (S, f64) {
    let once = traced || cfg.smoke;
    let began = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let state = build();
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= SETUP_MIN_REPS && began.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if once || enough {
            return (state, metrics::median(secs));
        }
    }
}

/// Operations attempted and operations that returned an error or failed
/// their output check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reading the run.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(msg);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }
}

/// A timed phase: a clock, a deadline, the ops completed so far, and the
/// slice boundaries passed so far with the process CPU clock read at each.
pub struct Phase {
    t0: Instant,
    seconds: f64,
    pub ops: Vec<Op>,
    marks: Vec<Mark>,
}

impl Phase {
    fn start(seconds: f64) -> Phase {
        Phase {
            t0: Instant::now(),
            seconds,
            ops: Vec::new(),
            marks: vec![Mark {
                t_ns: 0,
                cpu_s: metrics::process_cpu_s(),
            }],
        }
    }

    pub fn t0(&self) -> Instant {
        self.t0
    }

    pub fn deadline(&self) -> Instant {
        self.t0 + Duration::from_secs_f64(self.seconds)
    }

    pub fn running(&self) -> bool {
        Instant::now() < self.deadline()
    }

    /// When the next slice boundary is due.
    pub fn next_mark_due(&self) -> Instant {
        self.t0 + Duration::from_secs_f64(SLICE_S * self.marks.len() as f64)
    }

    /// Record a slice boundary now.
    pub fn mark(&mut self) {
        self.marks.push(Mark {
            t_ns: self.t0.elapsed().as_nanos() as u64,
            cpu_s: metrics::process_cpu_s(),
        });
    }

    /// End a pass over the op kinds: a slice ends with the first pass
    /// that completes at or after the slice's nominal end, so every slice
    /// holds whole passes and the same mix of kinds.
    pub fn end_pass(&mut self) {
        if Instant::now() >= self.next_mark_due() {
            self.mark();
        }
    }

    /// Time one op of `kind`.
    pub fn time<T>(&mut self, kind: usize, op: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(op());
        let end = Instant::now();
        self.ops.push(Op {
            kind,
            end_ns: (end - self.t0).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        });
        out
    }
}

/// What the driver hands back: the checked ops of the measured phase and,
/// from a traced run, the spans with the `bench.*` per-layer metrics.
pub struct Driven {
    pub tally: Tally,
    pub timed: Timed,
    pub traced: Option<(Tracer, Vec<(&'static str, f64)>)>,
}

/// Share of a traced run spent before tracing starts: the same ops,
/// untraced, so the run can report what tracing itself costs.
const UNTRACED_SHARE: f64 = 0.25;

/// Drive a workload's one loop: `passes` runs ops until the phase it is
/// given ends, under spans when it is given a tracer. An untraced run is
/// one phase of `cfg.seconds`. A traced run is a quarter of that
/// untraced, then the rest traced by the same loop, so the two cannot
/// drift apart and `bench.trace_overhead_pct` compares like with like;
/// the untraced quarter also gives the `bench.run_*` figures.
pub fn drive(
    cfg: &Config,
    traced: bool,
    kinds: Vec<String>,
    mut passes: impl FnMut(&mut Phase, &mut Tally, Option<&mut Tracer>),
) -> Driven {
    let mut tally = Tally::default();
    let mut run = |seconds: f64, with_tracer: bool| {
        let mut phase = Phase::start(seconds);
        let mut tracer = with_tracer.then(|| Tracer::new(phase.t0()));
        passes(&mut phase, &mut tally, tracer.as_mut());
        let timed = Timed {
            ops: phase.ops,
            kinds: kinds.clone(),
            marks: phase.marks,
            phase_ns: (seconds * 1e9) as u64,
        };
        (timed, tracer)
    };
    if !traced {
        let (timed, _) = run(cfg.seconds, false);
        return Driven {
            tally,
            timed,
            traced: None,
        };
    }
    let (untraced, _) = run(cfg.seconds * UNTRACED_SHARE, false);
    let (timed, tracer) = run(cfg.seconds * (1.0 - UNTRACED_SHARE), true);
    let mut bench = vec![
        (
            "bench.trace_overhead_pct",
            trace_overhead_pct(&untraced.ops, &timed.ops, kinds.len()),
        ),
        ("bench.traced_ops", timed.ops.len() as f64),
    ];
    bench.extend(metrics::whole_run(&untraced));
    Driven {
        tally,
        timed,
        traced: tracer.map(|tr| (tr, bench)),
    }
}

/// What a workload process reports: its checked ops, its metrics and,
/// from a traced run, its spans.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
}

/// The end-to-end report of an untraced run; prints what stands for each
/// op kind, and the whole-run figures no noise is rejected from, on the
/// way.
pub fn end_to_end_report(tally: Tally, timed: &Timed, setup_s: f64) -> Report {
    for (name, us) in timed.kinds.iter().zip(metrics::per_kind_us(timed)) {
        println!("  {name:<18} p{} {us:>12.1} us", metrics::KIND_PERCENTILE);
    }
    for (name, v) in metrics::whole_run(timed) {
        println!("  whole run, every op: {name:<20} {v:>12.1}");
    }
    let mut metrics = metrics::end_to_end(timed);
    metrics.push(("setup_s", setup_s));
    Report {
        tally,
        metrics,
        tracer: None,
    }
}

/// `bench.trace_overhead_pct`: traced against untraced wall time of the
/// same ops in the same run — per op kind the ratio of the medians, over
/// kinds their geometric mean, so a mix of light and heavy kinds does not
/// blur it.
fn trace_overhead_pct(untraced: &[Op], traced: &[Op], kinds: usize) -> f64 {
    let median_of = |ops: &[Op], kind: usize| {
        let xs: Vec<f64> = ops
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| op.dur_ns as f64)
            .collect();
        (!xs.is_empty()).then(|| metrics::median(xs))
    };
    let ratios: Vec<f64> = (0..kinds)
        .filter_map(|k| Some(median_of(traced, k)? / median_of(untraced, k)?))
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (metrics::geomean(&ratios) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: usize, dur_ns: u64) -> Op {
        Op {
            kind,
            end_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn overhead_compares_like_with_like() {
        let untraced = [op(0, 10), op(0, 10), op(1, 1000)];
        let traced = [op(0, 11), op(1, 1100), op(1, 1100)];
        assert!((trace_overhead_pct(&untraced, &traced, 2) - 10.0).abs() < 1e-9);
        assert_eq!(trace_overhead_pct(&untraced, &[], 2), 0.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("wrong".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.messages, ["wrong"]);
    }

    #[test]
    fn a_traced_run_drives_the_same_loop_twice_and_an_untraced_run_once() {
        let cfg = Config {
            seed: 1,
            seconds: 0.02,
            smoke: true,
        };
        for traced in [false, true] {
            let mut calls = Vec::new();
            let driven = drive(&cfg, traced, vec!["k".into()], |phase, tally, tr| {
                calls.push(tr.is_some());
                while phase.running() {
                    phase.time(0, || ());
                    tally.record(Ok(()));
                    phase.end_pass();
                }
            });
            assert_eq!(
                calls,
                if traced {
                    vec![false, true]
                } else {
                    vec![false]
                }
            );
            assert_eq!(driven.traced.is_some(), traced);
            assert!(driven.tally.attempted as usize >= driven.timed.ops.len());
        }
    }
}
