//! Figures 13a / 13b / 13c: performance of P0 (Hibernate), P1 (SQL join),
//! P2 (prefetching) and the COBRA choice under varying network conditions
//! and cardinalities.
//!
//! Usage: `fig13 [a|b|c|all] [--quick]`
//!
//! * 13a — slow remote network (500 kbps, 250 ms), |Customer| = 73 000,
//!   |Orders| ∈ {100, 1k, 10k, 100k, 1M}
//! * 13b — fast local network (6 Gbps, 0.5 ms), same cardinalities
//! * 13c — slow remote network, |Orders| = 10 000,
//!   |Customer| ∈ {10, 100, 1k, 10k, 100k}
//!
//! `--quick` divides every cardinality by 10 (also `COBRA_QUICK=1`).

use bench_support::{fmt_secs, print_row, run_cobra_choice, run_secs};
use cobra_core::CostCatalog;
use netsim::NetworkProfile;
use workloads::motivating;

struct Config {
    name: &'static str,
    net: NetworkProfile,
    /// (orders, customers) grid.
    grid: Vec<(usize, usize)>,
    vary: &'static str,
}

fn configs(quick: bool) -> Vec<Config> {
    let d = if quick { 10 } else { 1 };
    let orders_grid = [100, 1_000, 10_000, 100_000, 1_000_000];
    let customers_grid = [10, 100, 1_000, 10_000, 100_000];
    vec![
        Config {
            name: "13a: slow remote network, varying Orders (Customers = 73k)",
            net: NetworkProfile::slow_remote(),
            grid: orders_grid.iter().map(|&o| (o / d, 73_000 / d)).collect(),
            vary: "Orders",
        },
        Config {
            name: "13b: fast local network, varying Orders (Customers = 73k)",
            net: NetworkProfile::fast_local(),
            grid: orders_grid.iter().map(|&o| (o / d, 73_000 / d)).collect(),
            vary: "Orders",
        },
        Config {
            name: "13c: slow remote network, varying Customers (Orders = 10k)",
            net: NetworkProfile::slow_remote(),
            grid: customers_grid
                .iter()
                .map(|&c| (10_000 / d, c / d.min(c)))
                .collect(),
            vary: "Customers",
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("COBRA_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    for (i, cfg) in configs(quick).into_iter().enumerate() {
        let tag = ["a", "b", "c"][i];
        if which != "all" && which != tag {
            continue;
        }
        run_config(cfg);
    }
}

fn run_config(cfg: Config) {
    println!("\nFigure {}", cfg.name);
    println!(
        "net: bandwidth {:.1} Mbit/s, RTT {:.1} ms",
        cfg.net.bytes_per_sec() * 8.0 / 1e6,
        cfg.net.round_trip_ns() as f64 / 1e6
    );
    let widths = [10usize, 12, 12, 12, 12, 24];
    print_row(
        &[
            format!("#{}", cfg.vary),
            "Hibernate(P0)".into(),
            "SQL(P1)".into(),
            "Prefetch(P2)".into(),
            "COBRA".into(),
            "COBRA choice".into(),
        ],
        &widths,
    );
    for (orders, customers) in cfg.grid {
        let fixture = motivating::build_fixture(orders, customers, 42);
        let t0 = run_secs(&fixture, cfg.net.clone(), &motivating::p0());
        let t1 = run_secs(&fixture, cfg.net.clone(), &motivating::p1());
        let t2 = run_secs(&fixture, cfg.net.clone(), &motivating::p2());
        let (tc, tags, est) = run_cobra_choice(
            &fixture,
            cfg.net.clone(),
            CostCatalog::default(),
            &motivating::p0(),
        );
        let n = if cfg.vary == "Orders" {
            orders
        } else {
            customers
        };
        print_row(
            &[
                n.to_string(),
                fmt_secs(t0),
                fmt_secs(t1),
                fmt_secs(t2),
                fmt_secs(tc),
                format!("{} (est {})", tags.join("+"), fmt_secs(est)),
            ],
            &widths,
        );
        // Shape check: COBRA must track the best alternative.
        let best = t0.min(t1).min(t2);
        if tc > best * 1.5 {
            println!(
                "    !! COBRA choice slower than best alternative ({})",
                fmt_secs(best)
            );
        }
    }
}
