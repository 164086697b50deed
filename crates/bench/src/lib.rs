//! Shared support for the experiment binaries.
//!
//! Each binary regenerates one table/figure of the paper's evaluation
//! (§VIII). Runtimes are *simulated* (virtual clock), so results are
//! deterministic; the shapes — who wins, by what factor, where crossovers
//! fall — are the reproduction targets.

use cobra_core::{Cobra, CostCatalog};
use imperative::ast::Program;
use netsim::NetworkProfile;
use workloads::harness::{run_on, Fixture};

/// The evaluation scale (rows in the largest relations). Defaults to the
/// paper's 1 million; override with `COBRA_SCALE=<n>` for quicker runs.
pub fn scale() -> usize {
    std::env::var("COBRA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

/// Build a COBRA optimizer for a fixture.
pub fn cobra_for(fixture: &Fixture, net: NetworkProfile, catalog: CostCatalog) -> Cobra {
    fixture
        .cobra_builder()
        .network(net)
        .catalog(catalog)
        .build()
}

/// Optimize `program` and run the chosen rewriting; returns
/// (simulated seconds, feature tags, estimated cost seconds).
pub fn run_cobra_choice(
    fixture: &Fixture,
    net: NetworkProfile,
    catalog: CostCatalog,
    program: &Program,
) -> (f64, Vec<&'static str>, f64) {
    let cobra = cobra_for(fixture, net.clone(), catalog);
    let opt = cobra
        .optimize_program(program)
        .expect("optimization succeeds");
    let mut functions = vec![opt.program.clone()];
    functions.extend(program.functions.iter().skip(1).cloned());
    let rewritten = Program { functions };
    let run = run_on(fixture, net, &rewritten).expect("chosen program runs");
    (run.secs, opt.tags, opt.est_cost_ns / 1e9)
}

/// Run a program and return simulated seconds.
pub fn run_secs(fixture: &Fixture, net: NetworkProfile, program: &Program) -> f64 {
    run_on(fixture, net, program).expect("program runs").secs
}

/// Format seconds compactly (3 significant digits, s/ms).
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0}s")
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else {
        format!("{:.1}ms", secs * 1e3)
    }
}

/// Print a row of fixed-width columns.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_scales_units() {
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(3.456), "3.46s");
        assert_eq!(fmt_secs(3456.0), "3456s");
    }

    #[test]
    fn scale_defaults_to_one_million() {
        if std::env::var("COBRA_SCALE").is_err() {
            assert_eq!(scale(), 1_000_000);
        }
    }
}
