//! Figure 15: performance benefits due to COBRA on the Wilos-like
//! patterns — Original vs Heuristic (the paper's citation \[4\], push-to-SQL) vs COBRA(AF=50)
//! vs COBRA(AF=1), on the fast local network with the largest relations at
//! the configured scale (paper: 1 million; `COBRA_SCALE` to override).
//!
//! The y-axis of the paper's figure is the fraction of the original
//! program's runtime; the original's absolute time is printed above each
//! bar — this binary prints the same numbers as a table.

use bench_support::{cobra_for, fmt_secs, run_secs, scale};
use cobra_core::{heuristic, CostCatalog};
use imperative::ast::Program;
use netsim::NetworkProfile;
use workloads::wilos::{self, Pattern};

fn main() {
    let scale = scale();
    let net = NetworkProfile::fast_local();
    println!("\nFigure 15: fraction of original program time (fast local network, scale {scale})");
    println!(
        "{:<4} {:>10} {:>10} {:>12} {:>12}  {:<28}",
        "P", "Original", "Heuristic", "COBRA(50)", "COBRA(1)", "COBRA choices (AF=50 | AF=1)"
    );
    println!("{:-<88}", "");

    for pattern in Pattern::all() {
        let program = wilos::representative(pattern);

        // Each variant runs on a fresh fixture (pattern A updates rows).
        let fresh = || wilos::build_fixture(scale, 7);

        let t_orig = run_secs(&fresh(), net.clone(), &program);

        // Heuristic rewrite.
        let fixture = fresh();
        let baseline_of = fixture.cobra_builder().network(net.clone()).build();
        let rewritten = heuristic::optimize_heuristic(&program, &baseline_of);
        let heuristic_program = with_entry(&program, rewritten);
        let t_heur = run_secs(&fixture, net.clone(), &heuristic_program);

        // COBRA at AF=50 and AF=1.
        let (t_c50, tags50) = cobra_run(&fresh(), net.clone(), 50.0, &program);
        let (t_c1, tags1) = cobra_run(&fresh(), net.clone(), 1.0, &program);

        println!(
            "{:<4} {:>10} {:>10} {:>12} {:>12}  {:<28}",
            format!("{pattern:?}"),
            fmt_secs(t_orig),
            frac(t_heur, t_orig),
            frac(t_c50, t_orig),
            frac(t_c1, t_orig),
            format!("{} | {}", tags50.join("+"), tags1.join("+")),
        );

        // Shape check from the paper: COBRA always performs at least as
        // well as the original and the heuristic (small tolerance for the
        // simulator's fixed per-statement costs).
        let floor = t_orig.min(t_heur) * 1.10;
        if t_c50 > floor || t_c1 > floor {
            println!(
                "    !! COBRA slower than min(original, heuristic): c50={} c1={} floor={}",
                fmt_secs(t_c50),
                fmt_secs(t_c1),
                fmt_secs(floor)
            );
        }
    }
    println!("{:-<88}", "");
    println!("fractions < 1.00 are improvements over Original; paper reports up to 95% over the heuristic");
}

fn cobra_run(
    fixture: &workloads::Fixture,
    net: NetworkProfile,
    af: f64,
    program: &Program,
) -> (f64, Vec<&'static str>) {
    let cobra = cobra_for(fixture, net.clone(), CostCatalog::with_af(af));
    let opt = cobra.optimize_program(program).expect("optimizes");
    let rewritten = with_entry(program, opt.program);
    (run_secs(fixture, net, &rewritten), opt.tags)
}

/// Replace the entry function, keeping helper functions callable.
fn with_entry(program: &Program, entry: imperative::ast::Function) -> Program {
    let mut functions = vec![entry];
    functions.extend(program.functions.iter().skip(1).cloned());
    Program { functions }
}

fn frac(t: f64, orig: f64) -> String {
    format!("{:.3}", t / orig)
}
