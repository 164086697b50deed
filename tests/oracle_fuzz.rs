//! The differential-execution oracle's main corpus: ≥ 500 seed-generated
//! programs, each optimized and executed across 3 network profiles × 2
//! search budgets, asserting original-vs-optimized observational
//! equivalence in every cell.
//!
//! Widen the corpus locally without recompiling:
//! `FUZZ_SEEDS=5000 cargo test --release --test oracle_fuzz`
//! (or `FUZZ_SEEDS=2000..3000` for a window). CI pins `0..500` so the run
//! is deterministic and time-bounded.

use cobra::fir::RuleSet;
use cobra::oracle::{fuzz, run_case, seed_range_from_env, OracleMatrix};
use cobra::workloads::genprog::{GenCase, GenConfig};

use std::collections::HashSet;

/// The acceptance sweep: zero equivalence failures over the whole corpus,
/// across every cell of the default matrix.
#[test]
fn corpus_is_equivalence_clean_across_the_matrix() {
    let seeds = seed_range_from_env(500);
    let n_seeds = seeds.end - seeds.start;
    let matrix = OracleMatrix::default();
    let cells = matrix.cells().len();
    let report = fuzz(seeds, &GenConfig::default(), &matrix);

    assert!(report.failures.is_empty(), "{}", report.render_failures());
    assert_eq!(report.cases as u64, n_seeds);
    assert_eq!(
        report.runs as u64,
        n_seeds * cells as u64,
        "every case ran every cell (3 profiles × 2 budgets)"
    );
    assert_eq!(
        report.distinct_programs as u64, n_seeds,
        "generated programs are pairwise distinct"
    );
    // The corpus actually exercises the optimizer: rewrites fire and the
    // tight budget clips searches.
    assert!(
        report.records.iter().any(|r| r.alternatives > 1),
        "some programs must have alternatives"
    );
    assert!(
        report
            .records
            .iter()
            .any(|r| r.budget == "tight" && r.budget_exhausted),
        "the tight budget must clip some searches"
    );
    // Coverage, rule half: a rule no seed fires is a rule the sweep above
    // says nothing about. (`inline` runs outside the F-IR engine and tags
    // no alternative.) Tags are the rule name, optionally qualified.
    let fired_on = |rule: &str| {
        let seeds: HashSet<u64> = report
            .records
            .iter()
            .filter(|r| r.rules_fired.iter().any(|tag| tag.starts_with(rule)))
            .map(|r| r.seed)
            .collect();
        println!("rule {rule}: fired on {} of {n_seeds} seeds", seeds.len());
        seeds.len()
    };
    let unfired: Vec<&str> = RuleSet::standard()
        .names()
        .into_iter()
        .filter(|rule| fired_on(rule) == 0 && *rule != "inline")
        .collect();
    assert!(
        unfired.is_empty() || n_seeds < 500,
        "rules {unfired:?} fired on no seed: the corpus does not cover them"
    );
}

/// Single-rule ablations: the full standard set and every
/// one-rule-disabled variant must all be semantics-preserving on a
/// 60-seed corpus (8 rule sets × 60 cases).
#[test]
fn rule_ablations_stay_equivalent() {
    let matrix = OracleMatrix::rule_ablation();
    assert_eq!(
        matrix.rulesets.len(),
        8,
        "standard + 7 single-rule ablations"
    );
    let report = fuzz(4000..4060, &GenConfig::default(), &matrix);
    assert!(report.failures.is_empty(), "{}", report.render_failures());
    assert_eq!(report.runs, 60 * 8);
}

/// Every case regenerates bit-identically from its seed alone — a printed
/// seed is a complete repro recipe.
#[test]
fn cases_reproduce_from_seed_alone() {
    let cfg = GenConfig::default();
    for seed in [0u64, 17, 123, 499] {
        let a = GenCase::from_seed(seed, &cfg);
        let b = GenCase::from_seed(seed, &cfg);
        assert_eq!(a.pretty(), b.pretty());
        assert_eq!(
            a.fixture().db.read().unwrap().table("t0").unwrap().rows(),
            b.fixture().db.read().unwrap().table("t0").unwrap().rows(),
            "fixture data is seed-determined too"
        );
        // And the full matrix verdict is reproducible.
        let ra = run_case(&a, &OracleMatrix::default());
        let rb = run_case(&b, &OracleMatrix::default());
        assert_eq!(ra.failures.len(), rb.failures.len());
        assert_eq!(ra.records.len(), rb.records.len());
    }
}

/// The generator draws varied schemas: table counts span the configured
/// range and foreign keys always exist.
#[test]
fn schemas_vary_across_seeds() {
    let cfg = GenConfig::default();
    let mut table_counts = HashSet::new();
    for seed in 0..50u64 {
        let case = GenCase::from_seed(seed, &cfg);
        table_counts.insert(case.schema.tables.len());
        assert!(
            case.schema.tables.iter().any(|t| t.parent.is_some()),
            "every schema has at least one foreign key"
        );
    }
    assert!(
        table_counts.len() >= 3,
        "table counts should vary: {table_counts:?}"
    );
}
