//! `cobra_bench`: the repository's benchmark — five workloads, six
//! end-to-end metrics each, and a per-layer trace taken from outside the
//! measured crates. README.md beside Cargo.toml says what each workload
//! and metric means and why; `BENCHMARK.json` at the repository root
//! repeats the names for the driver.
//!
//! ```text
//! cobra_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result as one JSON object. --trace 0 reports the end-to-end
//!     metrics, --trace 1 the per-layer metrics of a separate traced pass
//!     (--spans <file> also writes every span as CSV). Exits 0 only if
//!     every op passed its check.
//! cobra_bench [--seed n] [--seconds s] [--repeat N] [--spans <prefix>]
//!     every workload, each run in a process of its own so that no number
//!     depends on what ran before it; with --repeat, N runs per workload
//!     on seeds n, n+1, … and their min/median/max and spread ÷ bound.
//! --smoke shrinks inputs fifty-fold and the timed phase to 0.2 s:
//!     checks on, timings meaningless.
//! ```

mod exec_olap;
mod harness;
mod json;
mod metrics;
mod rewrite_run;
mod search;
mod serve;
mod stages;
mod trace;

use harness::{Config, Report};
use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    config: Config,
    trace: bool,
    spans: Option<PathBuf>,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    fn number<T: std::str::FromStr>(flag: &str, v: Option<&str>, default: T) -> Result<T, String> {
        match v {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--spans",
        "--repeat",
    ];
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => i += 1,
            flag if known.contains(&flag) => i += 2,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let smoke = argv.iter().any(|a| a == "--smoke");
    let workload = value("--workload")?.map(str::to_string);
    if let Some(w) = &workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    let seconds = number(
        "--seconds",
        value("--seconds")?,
        if smoke { 0.2 } else { 15.0 },
    )?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: between 0 and 60"));
    }
    Ok(Args {
        workload,
        config: Config {
            seed: number("--seed", value("--seed")?, 1)?,
            seconds,
            smoke,
        },
        trace: match value("--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace {v:?}: 0 or 1")),
        },
        spans: value("--spans")?.map(PathBuf::from),
        repeat: number("--repeat", value("--repeat")?, 1)?,
    })
}

/// Run one workload in this process: the untraced pass, or the separate
/// traced pass with its spans.
fn execute(name: &str, cfg: &Config, traced: bool) -> Report {
    match name {
        "search" => search::run(cfg, traced),
        "rewrite_run" => rewrite_run::run(cfg, traced),
        "exec_olap" => exec_olap::run(cfg, traced),
        "serve_hit" => serve::run(cfg, serve::Mix::Hit, traced),
        _ => serve::run(cfg, serve::Mix::Churn, traced),
    }
}

/// The result line of a run and whether the run was correct: every
/// end-to-end metric (untraced) or every per-layer metric (traced), in
/// table order. A per-layer metric the workload did not report reads 0:
/// the workload never enters that layer. A run is correct when no op
/// failed and every metric is a finite number, an end-to-end one above 0;
/// a value that is not finite is written as 0, which JSON can carry.
fn result_line(name: &str, report: &Report, trace: bool) -> (String, bool) {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (reported, _) in &report.metrics {
        assert!(
            names.iter().any(|(n, _)| n == reported),
            "workload {name} reports {reported}, which metrics.rs does not list"
        );
    }
    let value_of = |metric: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _)| *n == metric)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut correct = report.tally.failed == 0 && report.tally.attempted > 0;
    let mut fields = Vec::with_capacity(names.len());
    for (metric, unit) in &names {
        let mut v = value_of(metric);
        if !v.is_finite() {
            correct = false;
            v = 0.0;
        }
        correct &= trace || v > 0.0;
        fields.push(format!(
            "\"{metric}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted,
        report.tally.failed,
        fields.join(", ")
    );
    (line, correct)
}

/// Run one workload in this process and print its result line last. The
/// exit code is 0 only for a correct run.
fn run_workload(name: &str, args: &Args) -> ExitCode {
    let report = execute(name, &args.config, args.trace);
    if let Some(tracer) = &report.tracer {
        println!("self-time table of `{name}` (traced pass):");
        print!("{}", tracer.table());
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write_csv(path) {
                eprintln!("cannot write spans to {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
    }
    println!();
    for msg in &report.tally.messages {
        println!("FAILED op: {msg}");
    }
    for (metric, v) in &report.metrics {
        println!("{metric:<40} {v:>16.4}");
    }
    let (line, correct) = result_line(name, &report, args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child process reported: the parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn parse_result_line(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let v = Json::parse(line)?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result line lacks {key}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value
                .map(|x| (name.clone(), x))
                .ok_or(format!("{name} lacks a value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        correct: v.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Run `workload` in a child process of this executable.
fn spawn_workload(
    workload: &str,
    seed: u64,
    trace: bool,
    args: &Args,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.config.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(prefix)) = (trace, &args.spans) {
        cmd.arg("--spans")
            .arg(format!("{}.{workload}.csv", prefix.display()));
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if trace {
        // The self-time table is for the reader; pass it through.
        for line in stdout.lines().take_while(|l| !l.is_empty()) {
            println!("  {line}");
        }
    }
    // A run that failed a check exits 1 after printing its result line;
    // any other failure has no result to read.
    if !out.status.success() && out.status.code() != Some(1) {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_result_line(&stdout)
}

fn direction(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Spread of repeated runs as the driver takes it: the distance between
/// the first and third quartile over the median.
fn iqr_share(values: &[f64]) -> f64 {
    let s = metrics::sorted(values.to_vec());
    // Python's statistics.quantiles(values, n=4), exclusive method.
    let q = |k: f64| {
        let pos = k * (s.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[lo - 1] + (pos - lo as f64) * (s[lo] - s[lo - 1])
    };
    (q(3.0) - q(1.0)) / q(2.0)
}

/// Every workload, each in a process of its own; `--repeat` runs on
/// consecutive seeds, then one traced pass per workload.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    println!(
        "cobra_bench: {} workload(s) x {} run(s) of {} s, seeds {}.., {} client thread(s), nproc {}",
        WORKLOADS.len(),
        args.repeat,
        args.config.seconds,
        args.config.seed,
        harness::clients(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for w in &WORKLOADS {
        println!("\n== {} — {}", w.name, w.why);
        let mut runs: Vec<ChildResult> = Vec::new();
        for r in 0..args.repeat.max(1) {
            match spawn_workload(w.name, args.config.seed + r as u64, false, args) {
                Ok(result) => runs.push(result),
                Err(e) => {
                    println!("run {r} failed: {e}");
                    ok = false;
                }
            }
        }
        if runs.is_empty() {
            continue;
        }
        let (attempted, failed) = runs
            .iter()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        ok &= runs.iter().all(|r| r.correct);
        println!(
            "ops attempted {attempted}, failed {failed} (failed share {:.6})",
            failed as f64 / attempted.max(1) as f64
        );
        println!(
            "{:<16} {:>5} {:>7} {:>14} {:>14} {:>14} {:>8} {:>7} {:>13}",
            "metric", "unit", "better", "min", "median", "max", "iqr/med", "bound", "spread/bound"
        );
        for m in &END_TO_END {
            let xs: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let s = metrics::sorted(xs.clone());
            let spread = if xs.len() >= 2 { iqr_share(&xs) } else { 0.0 };
            println!(
                "{:<16} {:>5} {:>7} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}% {:>13.2}",
                m.name,
                m.unit,
                direction(m.higher_is_better),
                s[0],
                metrics::percentile(&s, 50.0),
                s[s.len() - 1],
                spread * 100.0,
                m.bound * 100.0,
                spread / m.bound
            );
        }
        println!("per-layer metrics of `{}` (separate traced pass):", w.name);
        match spawn_workload(w.name, args.config.seed, true, args) {
            Ok(result) => {
                ok &= result.correct;
                for (m, (_, v)) in PER_LAYER.iter().zip(&result.metrics) {
                    if *v != 0.0 {
                        println!(
                            "  {:<40} {v:>16.4} {:<6} ({} is better)",
                            m.name,
                            m.unit,
                            direction(m.higher_is_better)
                        );
                    }
                }
                println!(
                    "  (per-layer metrics not listed read 0: the workload never enters that layer)"
                );
            }
            Err(e) => {
                println!("traced pass failed: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("\nFAILED: an operation failed its check or a run did not complete");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cobra_bench: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    /// Name drift: `BENCHMARK.json` and the code agree on every workload
    /// and metric, with unit, direction and bound.
    #[test]
    fn names_match_benchmark_json() {
        let doc = benchmark_json();
        let better = direction;

        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name").to_string(), str_of(w, "why").to_string()))
            .collect();
        let emitted: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, emitted);

        let declared: BTreeSet<(String, String, String, String)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    str_of(m, "name").to_string(),
                    str_of(m, "unit").to_string(),
                    str_of(m, "better").to_string(),
                    format!("{:.3}", m.get("bound").unwrap().as_f64().unwrap()),
                )
            })
            .collect();
        let emitted: BTreeSet<(String, String, String, String)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_is_better).to_string(),
                    format!("{:.3}", m.bound),
                )
            })
            .collect();
        assert_eq!(declared, emitted);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));

        let declared: BTreeSet<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    str_of(m, "name").to_string(),
                    str_of(m, "unit").to_string(),
                    str_of(m, "better").to_string(),
                )
            })
            .collect();
        let emitted: BTreeSet<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_is_better).to_string(),
                )
            })
            .collect();
        assert_eq!(declared, emitted);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
    }

    /// Names and units stay within what the driver accepts, and no name
    /// is used twice.
    #[test]
    fn names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    /// `--smoke` end to end: every workload, untraced and traced — every
    /// op passes its check, every end-to-end metric is reported and
    /// positive, the traced pass reports only names `metrics.rs` lists,
    /// and every listed name is moved by some workload.
    #[test]
    fn smoke_runs_every_workload_and_every_name_is_emitted() {
        let cfg = Config {
            seed: 3,
            seconds: 0.2,
            smoke: true,
        };
        let mut per_layer_seen = BTreeSet::new();
        for w in &WORKLOADS {
            for trace in [false, true] {
                let report = execute(w.name, &cfg, trace);
                assert_eq!(report.tracer.is_some(), trace);
                let (line, correct) = result_line(w.name, &report, trace);
                let result = parse_result_line(&line)
                    .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", w.name));
                assert_eq!(result.correct, correct);
                assert!(
                    result.correct && result.failed == 0 && result.attempted > 0,
                    "{} trace {trace}: {:?}",
                    w.name,
                    report.tally.messages
                );
                let names: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
                if trace {
                    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
                    assert_eq!(names, expected, "{}", w.name);
                    per_layer_seen.extend(
                        result
                            .metrics
                            .iter()
                            .filter(|(_, v)| *v != 0.0)
                            .map(|(n, _)| n.clone()),
                    );
                } else {
                    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
                    assert_eq!(names, expected, "{}", w.name);
                }
            }
        }
        // Counters that must stay 0 on a healthy run aside.
        let must_be_zero = [
            "core.budget_exhausted",
            "minidb.feedback_overrides",
            "server.plan_cache.coalesced",
            "server.admission.rejected",
            "server.admission.degraded",
        ];
        for m in PER_LAYER {
            assert!(
                per_layer_seen.contains(m.name) || must_be_zero.contains(&m.name),
                "no workload reports {}",
                m.name
            );
        }
    }

    /// A metric that is not a finite number makes the run incorrect and
    /// still leaves a result line JSON can carry; so does a failed op.
    #[test]
    fn a_nan_or_a_failed_op_is_an_incorrect_run_with_a_readable_result() {
        let report = |value: f64, failed: u64| Report {
            tally: harness::Tally {
                attempted: 3,
                failed,
                messages: Vec::new(),
            },
            metrics: END_TO_END.iter().map(|m| (m.name, value)).collect(),
            tracer: None,
        };
        for (value, failed, expect) in [
            (1.5, 0, true),
            (f64::NAN, 0, false),
            (f64::INFINITY, 0, false),
            (0.0, 0, false),
            (1.5, 1, false),
        ] {
            let (line, correct) = result_line("search", &report(value, failed), false);
            let parsed = parse_result_line(&line).expect("the line is JSON");
            assert_eq!(
                (correct, parsed.correct),
                (expect, expect),
                "{value} {failed}"
            );
            assert_eq!((parsed.attempted, parsed.failed), (3, failed));
        }
    }

    #[test]
    fn iqr_share_follows_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 11], n=4) == [9.75, 10.5, 11.25]
        assert!((iqr_share(&[10.0, 11.0]) - 1.5 / 10.5).abs() < 1e-12);
    }
}
