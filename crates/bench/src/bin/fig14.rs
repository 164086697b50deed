//! Figure 14: the six categories of cost-based choices found in the Wilos
//! application, with per-category counts — regenerated by running COBRA's
//! applicability analysis over all 32 synthesized fragments.
//!
//! A fragment "has a cost-based choice" when its Region DAG contains more
//! than one complete program (alternatives > 1).

use bench_support::cobra_for;
use cobra_core::CostCatalog;
use netsim::NetworkProfile;
use std::collections::BTreeMap;
use workloads::wilos::{self, Pattern};

fn main() {
    // Applicability analysis runs on a small instance: the decision
    // *exists* regardless of scale.
    let fixture = wilos::build_fixture(2_000, 7);
    let cobra = cobra_for(
        &fixture,
        NetworkProfile::fast_local(),
        CostCatalog::default(),
    );

    let mut counts: BTreeMap<Pattern, usize> = BTreeMap::new();
    let mut applicable: BTreeMap<Pattern, usize> = BTreeMap::new();

    for fragment in wilos::fragments() {
        *counts.entry(fragment.pattern).or_default() += 1;
        let opt = cobra
            .optimize_program(&fragment.program)
            .unwrap_or_else(|e| panic!("fragment {} ({:?}): {e}", fragment.id, fragment.pattern));
        if opt.choice_points > 0 {
            *applicable.entry(fragment.pattern).or_default() += 1;
        }
    }

    println!("\nFigure 14: cases for cost based optimization in the Wilos-like application");
    println!("{:-<100}", "");
    println!(
        "{:<3} {:<72} {:>4} {:>8}",
        "Id", "Description of cost based choice", "#", "w/choice"
    );
    println!("{:-<100}", "");
    for p in Pattern::all() {
        let desc = p.description();
        // Wrap the description at ~72 chars.
        let mut lines = Vec::new();
        let mut cur = String::new();
        for word in desc.split_whitespace() {
            if cur.len() + word.len() + 1 > 72 {
                lines.push(std::mem::take(&mut cur));
            }
            if !cur.is_empty() {
                cur.push(' ');
            }
            cur.push_str(word);
        }
        lines.push(cur);
        println!(
            "{:<3} {:<72} {:>4} {:>8}",
            format!("{p:?}"),
            lines[0],
            counts.get(&p).copied().unwrap_or(0),
            applicable.get(&p).copied().unwrap_or(0),
        );
        for l in &lines[1..] {
            println!("    {l}");
        }
    }
    println!("{:-<100}", "");
    let total: usize = counts.values().sum();
    let total_app: usize = applicable.values().sum();
    println!("total fragments: {total}; with a cost-based choice: {total_app}");
    println!("(paper: A=3, B=2, C=9, D=7, E=9, F=2 — 32 fragments, all with cost-based choices)");

    assert_eq!(total, 32, "32 fragments like Figure 16");
    let expect = [
        (Pattern::A, 3),
        (Pattern::B, 2),
        (Pattern::C, 9),
        (Pattern::D, 7),
        (Pattern::E, 9),
        (Pattern::F, 2),
    ];
    for (p, n) in expect {
        assert_eq!(counts[&p], n, "{p:?} count");
    }
}
