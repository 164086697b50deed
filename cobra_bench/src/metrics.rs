//! The benchmark's vocabulary — workload names, metric names, units,
//! directions and bounds — and the statistics every workload shares.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; the `names_match_benchmark_json` test keeps the two from
//! drifting apart.

/// One workload: its name (later issues cite it) and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "search",
        why: "optimize_program over 64 programs with a cold estimate cache: optimizer only, server and executor idle",
    },
    Workload {
        name: "rewrite_run",
        why: "executes the chosen rewrites of 6 Wilos patterns, P0 and M0 at 20000 rows: interp, orm and minidb at application scale",
    },
    Workload {
        name: "exec_olap",
        why: "scan, filter, two hash joins and a group-by on about 0.9M generated rows: data-plane kernels only, optimizer bypassed",
    },
    Workload {
        name: "serve_hit",
        why: "2 closed-loop wire clients over 64 primed plans: codec, net, admission and plan-cache hits, the search bypassed",
    },
    Workload {
        name: "serve_churn",
        why: "same server, every 8th submission a never-seen program: cache fills beside hits while the cache grows",
    },
];

/// A metric a user of the system sees. Every workload reports every one
/// of these; what an "op" and an op "kind" are is the workload's to say
/// (see README.md).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_geomean_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A metric of one layer, taken by the traced pass. Reads 0 on a
/// workload that never enters the layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The five `exec_olap` queries, in pass order; also the op kinds of
/// that workload and the `<q>` of the `minidb.<q>_*` metrics.
pub const QUERIES: [&str; 5] = ["scan", "filter", "join", "join_small_build", "agg"];

pub const PER_LAYER: &[PerLayer] = &[
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.traced_ops", "count"),
    lower("bench.run_p50_us", "us"),
    lower("bench.run_p95_us", "us"),
    lower("bench.run_p99_us", "us"),
    higher("bench.run_ops_per_s", "1/s"),
    lower("imperative.region_build_us", "us"),
    lower("imperative.regions", "count"),
    lower("fir.loop_to_fold_us", "us"),
    lower("fir.expand_us", "us"),
    lower("fir.codegen_us", "us"),
    higher("fir.foldable_loops", "count"),
    higher("fir.alternatives", "count"),
    lower("analysis.verify_us", "us"),
    lower("core.build_dag_us", "us"),
    lower("core.emit_us", "us"),
    lower("core.optimize_us", "us"),
    lower("core.rest_us", "us"),
    higher("core.choice_points", "count"),
    higher("core.alternatives", "count"),
    lower("core.budget_exhausted", "count"),
    lower("volcano.cost_table_us", "us"),
    lower("volcano.extract_us", "us"),
    lower("volcano.memo_groups", "count"),
    lower("volcano.memo_exprs", "count"),
    higher("volcano.cost_cache_hit_ratio", "ratio"),
    higher("minidb.estimate_cache_hit_ratio", "ratio"),
    lower("minidb.estimate_misses", "count"),
    higher("minidb.feedback_overrides", "count"),
    lower("minidb.scan_p5_ms", "ms"),
    lower("minidb.filter_p5_ms", "ms"),
    lower("minidb.join_p5_ms", "ms"),
    lower("minidb.join_small_build_p5_ms", "ms"),
    lower("minidb.agg_p5_ms", "ms"),
    lower("minidb.scan_rows_touched", "count"),
    lower("minidb.filter_rows_touched", "count"),
    lower("minidb.join_rows_touched", "count"),
    lower("minidb.join_small_build_rows_touched", "count"),
    lower("minidb.agg_rows_touched", "count"),
    higher("minidb.scan_rows_per_s", "1/s"),
    higher("minidb.filter_rows_per_s", "1/s"),
    higher("minidb.join_rows_per_s", "1/s"),
    higher("minidb.join_small_build_rows_per_s", "1/s"),
    higher("minidb.agg_rows_per_s", "1/s"),
    lower("minidb.column_cache_fill_ms", "ms"),
    lower("minidb.sql_parse_us", "us"),
    lower("interp.run_us", "us"),
    lower("orm.round_trips_original", "count"),
    lower("orm.round_trips_rewritten", "count"),
    lower("netsim.sim_ns_rewritten", "ns"),
    higher("netsim.sim_speedup_geomean", "x"),
    lower("server.codec.encode_request_us", "us"),
    lower("server.codec.decode_request_us", "us"),
    lower("server.codec.encode_response_us", "us"),
    lower("server.codec.decode_response_us", "us"),
    lower("server.codec.request_bytes", "bytes"),
    lower("server.codec.response_bytes", "bytes"),
    lower("server.plan_cache.fingerprint_us", "us"),
    lower("server.plan_cache.hit_us", "us"),
    lower("server.plan_cache.fill_us", "us"),
    higher("server.plan_cache.hits", "count"),
    lower("server.plan_cache.misses", "count"),
    lower("server.plan_cache.coalesced", "count"),
    lower("server.plan_cache.len", "count"),
    lower("server.admission.admit_us", "us"),
    higher("server.admission.admitted", "count"),
    lower("server.admission.rejected", "count"),
    lower("server.admission.degraded", "count"),
    lower("server.service.submit_inproc_us", "us"),
    lower("server.service.wall_us", "us"),
    lower("server.service.miss_wall_us", "us"),
    lower("server.net.wire_overhead_us", "us"),
    lower("server.snapshot.encode_ms", "ms"),
    lower("server.snapshot.decode_ms", "ms"),
    lower("server.snapshot.bytes", "bytes"),
];

/// The listed per-layer metric called `name`, for names put together at
/// run time (`minidb.<q>_p5_ms`).
pub fn per_layer(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a listed per-layer metric"))
        .name
}

/// Share of the timed phase that passes before anything is measured.
/// Every statistic below is taken over the rest, the second half of the
/// run: what grows during a run (the `serve_churn` plan cache, 64 entries
/// at the start and about 19 000 at the end) is then between half and all
/// of its final size wherever a number is read, so a cost that scales
/// with it shows. On the stationary workloads the first half is warm-up.
pub const MEASURED_FROM: f64 = 0.5;

/// Nominal length in seconds of the slices the measured half is cut into.
/// `op_p50_us`, `op_p95_us`, `ops_per_s` and `cpu_us_per_op` are taken per
/// slice and the best slice is reported — see [`best`]. Short, because quiet stretches
/// are: on ten `serve_hit` runs of which three met no quiet quarter second
/// in 15 s, `op_p95_us` spread 42 % with 0.25 s slices, 28 % with 0.1 s,
/// 10 % with 0.025 s (about 350 submissions a slice, 17 beyond the 95th
/// percentile). A slice of a pass-structured workload is never shorter
/// than one pass.
pub const SLICE_S: f64 = 0.025;

/// One timed operation of a workload.
#[derive(Clone, Copy)]
pub struct Op {
    /// Index of the op's kind (program, query, tenant x hit-or-miss).
    pub kind: usize,
    /// When the op completed, ns since the timed phase began.
    pub end_ns: u64,
    /// The op's wall time, ns.
    pub dur_ns: u64,
}

/// A slice boundary: when it was passed and the process CPU clock then.
#[derive(Clone, Copy)]
pub struct Mark {
    pub t_ns: u64,
    pub cpu_s: f64,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: Vec<f64>) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// The value of `xs` that noise reached least: the smallest of times, the
/// largest of rates.
///
/// Every op here is a fixed amount of work, so a shared host only ever
/// adds time, and this host adds a lot of it in spells: of two sets of ten
/// `serve_hit` runs of one build taken back to back, the first read a
/// whole-run median latency of 173 us and spread 39 % between its runs,
/// the second 120 us and 3 %. A number that moves by a third on its own
/// cannot gate anything, so the gated numbers read the quietest moment of
/// the measured half and the whole-run figures are reported beside them
/// ([`whole_run`]). What a slice measures (hundreds of ops, or whole
/// passes) is itself a median or a percentile, so the best slice is not a
/// lucky op.
pub fn best(xs: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    xs.iter().copied().reduce(pick).expect("at least one slice")
}

/// The percentile of a kind's wall times, over the measured half, that
/// stands for the kind: low for the reason [`best`] gives, not the minimum
/// because a single op, unlike a slice, can be lucky.
pub const KIND_PERCENTILE: f64 = 5.0;

/// Geometric mean; 0 for no values, so that an empty run reads as a
/// missing metric and not as NaN.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Everything the timed phase of a workload hands to [`end_to_end`].
pub struct Timed {
    pub ops: Vec<Op>,
    /// Names of the op kinds; `Op::kind` indexes it.
    pub kinds: Vec<String>,
    /// Slice boundaries, the start of the phase first.
    pub marks: Vec<Mark>,
    /// Nominal length of the phase in ns.
    pub phase_ns: u64,
}

impl Timed {
    /// When the measured half begins: the first slice boundary at or after
    /// [`MEASURED_FROM`] of the phase (the start of a phase too short to
    /// have one, which only a smoke run is).
    fn measured_from(&self) -> usize {
        let from = (self.phase_ns as f64 * MEASURED_FROM) as u64;
        let i = self.marks.partition_point(|m| m.t_ns < from);
        if i + 1 < self.marks.len() {
            i
        } else {
            0
        }
    }
}

/// Wall time in us that stands for each op kind, in `kinds` order (see
/// [`KIND_PERCENTILE`]), from the ops of the measured half. A kind that
/// never ran there is an error of the workload, not a 0.
pub fn per_kind_us(t: &Timed) -> Vec<f64> {
    let from_ns = t.marks[t.measured_from()].t_ns;
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); t.kinds.len()];
    for op in t.ops.iter().filter(|op| op.end_ns > from_ns) {
        by_kind[op.kind].push(op.dur_ns as f64 / 1e3);
    }
    by_kind
        .into_iter()
        .zip(&t.kinds)
        .map(|(xs, name)| {
            assert!(!xs.is_empty(), "op kind {name} never ran");
            percentile(&sorted(xs), KIND_PERCENTILE)
        })
        .collect()
}

/// The five end-to-end metrics computed from the timed ops (`setup_s` is
/// the sixth and comes from the set-up phase).
pub fn end_to_end(t: &Timed) -> Vec<(&'static str, f64)> {
    assert!(!t.ops.is_empty(), "no op completed in the timed phase");
    let mut ops: Vec<&Op> = t.ops.iter().collect();
    ops.sort_by_key(|op| op.end_ns);
    // Ops completed in (from, to], as wall times in us.
    let ops_between = |from: &Mark, to: &Mark| -> Vec<f64> {
        let lo = ops.partition_point(|op| op.end_ns <= from.t_ns);
        let hi = ops.partition_point(|op| op.end_ns <= to.t_ns);
        ops[lo..hi]
            .iter()
            .map(|op| op.dur_ns as f64 / 1e3)
            .collect()
    };
    let marks = &t.marks[t.measured_from()..];
    let (mut p50, mut p95, mut rate, mut cpu) = (vec![], vec![], vec![], vec![]);
    for pair in marks.windows(2) {
        let (from, to) = (pair[0], pair[1]);
        let us = sorted(ops_between(&from, &to));
        // A slice no op completed in (the clients of a serving workload
        // were both mid-submission) has nothing to report.
        if !us.is_empty() {
            p50.push(percentile(&us, 50.0));
            p95.push(percentile(&us, 95.0));
            rate.push(us.len() as f64 / ((to.t_ns - from.t_ns) as f64 / 1e9));
            cpu.push((to.cpu_s - from.cpu_s) * 1e6 / us.len() as f64);
        }
    }
    assert!(
        !p50.is_empty(),
        "no slice of the timed phase completed an op"
    );
    vec![
        ("op_p50_us", best(&p50, false)),
        ("op_p95_us", best(&p95, false)),
        ("op_geomean_us", geomean(&per_kind_us(t))),
        ("ops_per_s", best(&rate, true)),
        ("cpu_us_per_op", best(&cpu, false)),
    ]
}

/// What the gated numbers leave out, over every op of the phase with no
/// noise rejected: the median, the 95th and the 99th percentile of op
/// wall time and ops completed per second of wall time. A stall of any
/// length and every slow op are in these. They move with the host (see
/// [`best`]), so they carry no bound: an untraced run prints them, a
/// traced run reports them as `bench.run_*`.
pub fn whole_run(t: &Timed) -> Vec<(&'static str, f64)> {
    let us = sorted(t.ops.iter().map(|op| op.dur_ns as f64 / 1e3).collect());
    let wall_ns = t.ops.iter().map(|op| op.end_ns).max().unwrap_or(0).max(1);
    vec![
        ("bench.run_p50_us", percentile(&us, 50.0)),
        ("bench.run_p95_us", percentile(&us, 95.0)),
        ("bench.run_p99_us", percentile(&us, 99.0)),
        (
            "bench.run_ops_per_s",
            us.len() as f64 / (wall_ns as f64 / 1e9),
        ),
    ]
}

/// Process CPU seconds so far (user + system, every thread, exited ones
/// too), from the process CPU-time clock. `/proc/self/stat` holds the same
/// time in 10 ms ticks, which a 25 ms slice cannot be read in: it forced
/// windows of 1 s, and ten `exec_olap` runs of which few met a quiet whole
/// second spread 18 % and 25 % on `cpu_us_per_op` while the per-slice
/// metrics of the same runs stayed within bound. This clock counts ns, so
/// CPU time is read per slice like the rest. The standard library has no
/// call for it, hence the one declaration from the C library `std` links
/// (64-bit Linux: both `timespec` fields are `i64`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // platform's `clock_gettime` fills; the call keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 25.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 95.0), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    /// Two kinds, one op per millisecond for 40 ms, 8 slices of 5 ops.
    /// Every op from index `slow_from` up to `slow_to` takes ten times
    /// longer.
    fn timed(slow_from: usize, slow_to: usize) -> Timed {
        let ops = (0..40)
            .map(|i| Op {
                kind: i % 2,
                end_ns: (i as u64 + 1) * 1_000_000,
                dur_ns: if i % 2 == 0 { 100_000 } else { 400_000 }
                    * if (slow_from..slow_to).contains(&i) {
                        10
                    } else {
                        1
                    },
            })
            .collect();
        let marks = (0..=8)
            .map(|i| Mark {
                t_ns: i * 5_000_000,
                cpu_s: i as f64 * 0.01,
            })
            .collect();
        Timed {
            ops,
            kinds: vec!["light".into(), "heavy".into()],
            marks,
            phase_ns: 40_000_000,
        }
    }

    fn value(t: &Timed, name: &str) -> f64 {
        let all = end_to_end(t);
        all.iter().find(|(n, _)| *n == name).expect("listed").1
    }

    #[test]
    fn end_to_end_reads_kinds_and_slices_of_the_second_half() {
        // The last slice is disturbed: the best slice is not.
        let t = timed(35, 40);
        assert_eq!(value(&t, "op_p50_us"), 100.0);
        assert_eq!(value(&t, "op_p95_us"), 400.0);
        assert!((value(&t, "op_geomean_us") - 200.0).abs() < 1e-9);
        assert!((value(&t, "ops_per_s") - 1000.0).abs() < 1e-6);
        assert!((value(&t, "cpu_us_per_op") - 2000.0).abs() < 1e-6);
    }

    /// What the measured half is for: a cost that sets in during the
    /// first half and stays moves every time-per-op number, though every
    /// slice of the first quarter is clean; a disturbance that has passed
    /// by mid-run moves none.
    #[test]
    fn growth_shows_and_a_disturbance_of_the_first_half_does_not() {
        let (steady, grown, early) = (timed(0, 0), timed(10, 40), timed(5, 20));
        for name in ["op_p50_us", "op_p95_us", "op_geomean_us"] {
            let (steady, grown, early) = (
                value(&steady, name),
                value(&grown, name),
                value(&early, name),
            );
            assert!((grown / steady - 10.0).abs() < 1e-9, "{name}");
            assert!((early / steady - 1.0).abs() < 1e-9, "{name}");
        }
    }

    /// The whole-run figures leave nothing out: five slow ops of forty
    /// are the 95th percentile, where the best slice shows none.
    #[test]
    fn whole_run_figures_see_every_op() {
        let of = |t: &Timed, name: &str| {
            let all = whole_run(t);
            all.iter().find(|(n, _)| *n == name).expect("listed").1
        };
        let (steady, disturbed) = (timed(0, 0), timed(35, 40));
        assert_eq!(of(&steady, "bench.run_p95_us"), 400.0);
        assert_eq!(of(&disturbed, "bench.run_p95_us"), 4000.0);
        assert_eq!(of(&disturbed, "bench.run_p99_us"), 4000.0);
        assert_eq!(of(&disturbed, "bench.run_p50_us"), 400.0);
        assert!((of(&steady, "bench.run_ops_per_s") - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn best_is_on_the_side_noise_cannot_reach() {
        let xs = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(best(&xs, false), 1.0);
        assert_eq!(best(&xs, true), 4.0);
    }

    #[test]
    fn geomean_of_nothing_is_not_nan() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_s();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > a);
    }
}
