//! The six Wilos patterns (Experiment 4): for each pattern, show the
//! original program, the push-to-SQL heuristic's rewrite, and COBRA's
//! cost-based choice — with simulated runtimes.
//!
//! ```text
//! cargo run --release --example wilos_patterns [scale]
//! ```

use cobra::core::heuristic;
use cobra::prelude::*;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let net = NetworkProfile::fast_local();
    println!(
        "scale = {scale} (largest relations), network = {}\n",
        net.name()
    );

    for pattern in wilos::Pattern::all() {
        let program = wilos::representative(pattern);
        println!("================ pattern {pattern:?} ================");
        println!("{}", wilos::Pattern::description(pattern));
        println!(
            "\noriginal:\n{}",
            pretty::function_to_string(program.entry())
        );

        // Original runtime.
        let fx = wilos::build_fixture(scale, 7);
        let t_orig = run_on(&fx, net.clone(), &program)
            .expect("original runs")
            .secs;

        // Heuristic rewrite ([4]-style push-to-SQL).
        let fx = wilos::build_fixture(scale, 7);
        let baseline_of = fx.cobra_builder().network(net.clone()).build();
        let h = heuristic::optimize_heuristic(&program, &baseline_of);
        let mut funcs = vec![h.clone()];
        funcs.extend(program.functions.iter().skip(1).cloned());
        let t_heur = run_on(&fx, net.clone(), &Program { functions: funcs })
            .expect("heuristic runs")
            .secs;
        println!("heuristic rewrite:\n{}", pretty::function_to_string(&h));

        // COBRA.
        let fx = wilos::build_fixture(scale, 7);
        let cobra = fx
            .cobra_builder()
            .network(net.clone())
            .catalog(CostCatalog::with_af(50.0))
            .build();
        let opt = cobra.optimize_program(&program).expect("optimizes");
        let mut funcs = vec![opt.program.clone()];
        funcs.extend(program.functions.iter().skip(1).cloned());
        let t_cobra = run_on(&fx, net.clone(), &Program { functions: funcs })
            .expect("cobra runs")
            .secs;
        println!(
            "COBRA choice {:?}:\n{}",
            opt.tags,
            pretty::function_to_string(&opt.program)
        );

        println!(
            "runtimes: original {t_orig:.3}s | heuristic {t_heur:.3}s | COBRA {t_cobra:.3}s\n"
        );
    }
}
