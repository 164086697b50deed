//! The typed configuration API: the `OptimizerConfig` surface,
//! `SearchBudget` enforcement (exhaustion is surfaced, never silent), and
//! `Cobra::explain`'s structured report.

use cobra::prelude::*;

/// `explain` on P0: the loop region is a real choice point with at least
/// three alternatives (P0 as written, the P1-like join, the P2-like
/// prefetch), costs sorted consistently with the chosen program, and the
/// firing rules reported.
#[test]
fn explain_reports_p0_choice_points() {
    let fx = motivating::build_fixture(2_000, 400, 11);
    let cobra = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build();
    let report = cobra.explain(&motivating::p0()).unwrap();
    let summary = cobra.optimize_program(&motivating::p0()).unwrap();

    // The report's summary is the ordinary optimization result.
    assert_eq!(
        report.summary.est_cost_ns.to_bits(),
        summary.est_cost_ns.to_bits()
    );
    assert_eq!(report.summary.alternatives, summary.alternatives);

    let top = report.top_choice_point().expect("P0 has a choice point");
    assert!(top.on_chosen_path);
    assert!(
        top.alternatives.len() >= 3,
        "P0, P1-like, P2-like at minimum: {}",
        top.alternatives.len()
    );
    // Costs ascend, and the chosen alternative is the cheapest.
    for w in top.alternatives.windows(2) {
        assert!(w[0].cost_ns <= w[1].cost_ns, "costs sorted ascending");
    }
    assert!(top.alternatives[0].chosen, "winner leads the list");
    assert_eq!(
        top.alternatives.iter().filter(|a| a.chosen).count(),
        1,
        "exactly one winner per decided choice point"
    );
    assert!(
        top.alternatives[0].cost_ns > 0.0 && top.alternatives[0].cost_ns <= summary.est_cost_ns,
        "the region winner's cost is part of the program's total \
         ({} vs {})",
        top.alternatives[0].cost_ns,
        summary.est_cost_ns
    );
    // Exactly one alternative is the program as written; the rest name
    // the rules that derived them.
    assert!(top.alternatives.iter().any(|a| a.rules == vec!["original"]));
    assert!(
        report.rules_fired.contains(&"N1"),
        "{:?}",
        report.rules_fired
    );
    assert!(
        report.rules_fired.contains(&"T4/T5var(lookup-to-join)"),
        "{:?}",
        report.rules_fired
    );

    // The Display pretty-printer mentions the essentials.
    let text = report.to_string();
    assert!(text.contains("choice point"), "{text}");
    assert!(text.contains("N1"), "{text}");
    assert!(text.contains("optimization report"), "{text}");
}

/// Ablated rule sets reflect in the report: no alternative claims a
/// disabled rule produced it.
#[test]
fn explain_respects_rule_toggles() {
    let fx = motivating::build_fixture(2_000, 400, 11);
    let cobra = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .rules(RuleSet::standard().without("N1"))
        .build();
    let report = cobra.explain(&motivating::p0()).unwrap();
    assert!(!report.rules_fired.contains(&"N1"));
    for cp in &report.choice_points {
        for alt in &cp.alternatives {
            assert!(!alt.rules.contains(&"N1"), "{:?}", alt.rules);
        }
    }
}

/// A clipped alternative budget is *surfaced* — flag and tag — while the
/// search still returns a valid (possibly worse) program.
#[test]
fn alternative_budget_exhaustion_is_surfaced() {
    let fx = motivating::build_fixture(2_000, 400, 11);
    let full = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build()
        .optimize_program(&motivating::p0())
        .unwrap();
    assert!(!full.budget_exhausted);
    assert!(!full.tags.contains(&"budget-exhausted"));

    let clipped = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .budget(SearchBudget::default().with_max_alternatives_per_region(2))
        .build()
        .optimize_program(&motivating::p0())
        .unwrap();
    assert!(clipped.budget_exhausted, "clipping is recorded");
    assert!(clipped.tags.contains(&"budget-exhausted"));
    assert!(
        clipped.est_cost_ns >= full.est_cost_ns,
        "fewer alternatives can only cost more"
    );
    assert!(clipped.alternatives <= full.alternatives);
}

/// Memo-size caps stop DAG growth, are surfaced, and never break the
/// search (the original program is always representable).
#[test]
fn memo_caps_are_enforced_and_surfaced() {
    let fx = motivating::build_fixture(2_000, 400, 11);
    let full = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build()
        .optimize_program(&motivating::p0())
        .unwrap();
    let capped = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .budget(SearchBudget::default().with_max_memo_exprs(8))
        .build()
        .optimize_program(&motivating::p0())
        .unwrap();
    assert!(capped.budget_exhausted);
    assert!(capped.exprs < full.exprs, "DAG growth was stopped");
    assert!(capped.est_cost_ns >= full.est_cost_ns);
}

/// An empty rule set degenerates gracefully: no transformation fires, so
/// the only alternatives are the program as written and its loop → fold →
/// regenerated-loop form (`toFIR` is the representation change the rules
/// build on, not a rule itself) — no join, no prefetch, no aggregation.
#[test]
fn empty_rule_set_keeps_the_original_program_shape() {
    let fx = motivating::build_fixture(1_000, 200, 11);
    let cobra = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .rules(RuleSet::empty())
        .build();
    let opt = cobra.optimize_program(&motivating::p0()).unwrap();
    assert!(opt.alternatives <= 2, "original + toFIR round-trip at most");
    assert!(!opt.tags.contains(&"sql-join"), "{:?}", opt.tags);
    assert!(!opt.tags.contains(&"prefetch"), "{:?}", opt.tags);
    assert!(
        !opt.budget_exhausted,
        "nothing was clipped — nothing existed"
    );
}

/// A trivial program under the fully default (unbounded-caps) budget
/// must never report exhaustion — regression test for spurious
/// `budget_exhausted` on memos whose cost iteration needs every sweep.
#[test]
fn trivial_programs_never_report_budget_exhaustion() {
    let fx = motivating::build_fixture(100, 20, 7);
    let cobra = fx.cobra_builder().build();
    let mut f = Function::new(
        "noop",
        vec!["x".to_string()],
        vec![Stmt::new(StmtKind::Let("x".into(), Expr::lit(1i64)))],
    );
    f.number_lines(1);
    let opt = cobra.optimize_program(&Program::single(f)).unwrap();
    assert!(!opt.budget_exhausted, "{:?}", opt.tags);
    assert!(!opt.tags.contains(&"budget-exhausted"));
}

/// `OptimizerConfig` is a plain value: defaults are the documented ones
/// and a whole config can be swapped in at once. The destructuring below
/// has no `..` on purpose — the config surface is a compile-time fact, so
/// adding a field means touching the test that counts them.
#[test]
fn optimizer_config_round_trips_through_the_builder() {
    let OptimizerConfig {
        network,
        catalog,
        rules,
        budget,
        use_histograms,
        validation,
        verify_rewrites,
    } = OptimizerConfig::default();
    assert_eq!(network.name(), NetworkProfile::fast_local().name());
    assert_eq!(catalog.default_af, CostCatalog::default().default_af);
    assert!(rules.is_enabled("T2"));
    assert_eq!(budget, SearchBudget::default());
    assert!(use_histograms);
    assert!(validation.is_none());
    assert_eq!(verify_rewrites, VerifyLevel::Off);

    let fx = motivating::build_fixture(500, 100, 7);
    let mut custom = OptimizerConfig {
        network: NetworkProfile::slow_remote(),
        catalog: CostCatalog::with_af(9.0),
        use_histograms: false,
        ..Default::default()
    };
    custom.rules.disable("T5");
    let cobra = fx.cobra_builder().config(custom).build();
    assert_eq!(cobra.network().name(), "slow-remote");
    assert_eq!(cobra.catalog().default_af, 9.0);
    assert!(!cobra.config().use_histograms);
    assert!(!cobra.rules().is_enabled("T5"));
    assert!(cobra.rules().is_enabled("T4"));
}
