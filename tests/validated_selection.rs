//! Runtime-validated plan selection, end to end through the facade.
//!
//! Three contracts:
//!
//! 1. **Off means off** — with `OptimizerConfig::validation` left `None`
//!    (the default), optimizer output is bit-identical to the cost-only
//!    path; a `top_k = 1` validation config is equally inert (slot 0 of
//!    `volcano::top_k_plans` is `best_plan_from` by construction).
//! 2. **The validation record is internally consistent** — candidates
//!    arrive in predicted-cost order, promotion only ever picks a
//!    *measured* winner that beats a *measured* baseline by the
//!    configured speedup, and the chosen program's estimate matches the
//!    promoted candidate's.
//! 3. **The server honors it** — `ServerConfig::validate` routes cache
//!    fills through validated selection and counts measured promotions.
//! 4. **Measured on the clock the catalog describes** — the shrunk-fixture
//!    runs, like `Cobra::run`, charge the optimizer's own catalog's
//!    `cz_ns` and `server_row_ns`, so a price that moves the estimate
//!    moves the measurement it is held against.

use cobra::prelude::*;
use cobra::server::CobraService;
use std::sync::Arc;

/// Strict equality over every `Optimized` field (float fields compared
/// by bit pattern — "no worse" is not the contract here, *identical* is).
fn assert_bit_identical(a: &cobra::core::Optimized, b: &cobra::core::Optimized, what: &str) {
    assert_eq!(a.program, b.program, "{what}: chosen program");
    assert_eq!(
        a.est_cost_ns.to_bits(),
        b.est_cost_ns.to_bits(),
        "{what}: est_cost_ns"
    );
    assert_eq!(
        a.original_cost_ns.to_bits(),
        b.original_cost_ns.to_bits(),
        "{what}: original_cost_ns"
    );
    assert_eq!(a.alternatives, b.alternatives, "{what}: alternatives");
    assert_eq!(a.choice_points, b.choice_points, "{what}: choice_points");
    assert_eq!(a.groups, b.groups, "{what}: groups");
    assert_eq!(a.exprs, b.exprs, "{what}: exprs");
    assert_eq!(a.tags, b.tags, "{what}: tags");
    assert_eq!(
        (a.cost_cache_hits, a.cost_cache_misses),
        (b.cost_cache_hits, b.cost_cache_misses),
        "{what}: cost-memo counters"
    );
    assert_eq!(
        (a.estimator_cache_hits, a.estimator_cache_misses),
        (b.estimator_cache_hits, b.estimator_cache_misses),
        "{what}: estimator counters"
    );
    assert_eq!(
        a.feedback_overrides, b.feedback_overrides,
        "{what}: feedback_overrides"
    );
    assert_eq!(
        a.budget_exhausted, b.budget_exhausted,
        "{what}: budget_exhausted"
    );
}

/// With validation disabled (the default), and with a `top_k = 1`
/// validation config (a single candidate — nothing to validate), output
/// is bit-identical to the plain cost-only optimizer on the same case.
#[test]
fn validation_off_and_top_k_one_are_bit_identical_to_cost_only() {
    let gen = GenConfig::skewed();
    let mut programs: Vec<(String, GenCase)> = (0..6u64)
        .map(|s| {
            (
                format!("skewed seed {}", 7000 + s),
                GenCase::from_seed(7000 + s, &gen),
            )
        })
        .collect();
    programs.push((
        "default seed 0".to_string(),
        GenCase::from_seed(0, &GenConfig::default()),
    ));

    for (what, case) in &programs {
        // Fresh fixtures per optimizer: shared estimator caches would
        // otherwise skew the second run's hit/miss counters.
        let plain = case
            .fixture()
            .cobra_builder()
            .network(NetworkProfile::slow_remote())
            .build()
            .optimize_program(&case.program)
            .expect("cost-only optimizes");
        assert!(
            plain.validation.is_none(),
            "{what}: no validation record without the knob"
        );

        let inert = case
            .fixture()
            .cobra_builder()
            .network(NetworkProfile::slow_remote())
            .validate_selection(cobra::core::ValidationConfig::default().with_top_k(1))
            .build()
            .optimize_program(&case.program)
            .expect("top_k=1 optimizes");
        assert!(
            inert.validation.is_none(),
            "{what}: a single candidate leaves nothing to validate"
        );
        assert_bit_identical(&plain, &inert, what);
    }
}

/// The validation record's internal consistency on the skewed corpus:
/// predicted order, measured-only promotion, matching estimates, and the
/// `validated-promotion` tag exactly when a challenger won.
#[test]
fn validation_records_are_consistent_and_promotions_are_measured() {
    let gen = GenConfig::skewed();
    let vcfg = cobra::core::ValidationConfig::default();
    let mut validated_cases = 0;
    for seed in 0..6u64 {
        let case = GenCase::from_seed(7000 + seed, &gen);
        let optimized = case
            .fixture()
            .cobra_builder()
            .network(NetworkProfile::slow_remote())
            .validate_selection(vcfg.clone())
            .build()
            .optimize_program(&case.program)
            .expect("optimizes");
        let Some(v) = &optimized.validation else {
            // Single-candidate programs legitimately skip validation.
            continue;
        };
        validated_cases += 1;
        assert!(
            v.candidates.len() > 1,
            "validation only runs with competition"
        );
        assert!(v.promoted_rank < v.candidates.len());
        for (i, c) in v.candidates.iter().enumerate() {
            assert_eq!(c.predicted_rank, i, "candidates arrive in predicted order");
            if i > 0 {
                assert!(
                    c.predicted_cost_ns >= v.candidates[i - 1].predicted_cost_ns,
                    "predicted costs ascend"
                );
            }
        }
        // The summary's estimate is the promoted candidate's estimate.
        assert_eq!(
            optimized.est_cost_ns.to_bits(),
            v.candidates[v.promoted_rank].predicted_cost_ns.to_bits(),
        );
        let promoted_tag = optimized.tags.contains(&"validated-promotion");
        assert_eq!(
            promoted_tag,
            v.promoted_rank > 0,
            "tag tracks actual promotion"
        );
        if v.promoted_rank > 0 {
            let base = v.candidates[0].measured_ns.expect("baseline was measured");
            let win = v.candidates[v.promoted_rank]
                .measured_ns
                .expect("promoted winner was measured");
            // `validation::MIN_SPEEDUP`, the bar a challenger must clear.
            assert!(
                base / win >= 1.02,
                "promotion clears the speedup bar: base {base} ns vs win {win} ns"
            );
            assert!(!v.agreement, "a promotion is by definition a disagreement");
        }
        // No feedback store attached, so freshness can't short-circuit.
        assert_eq!(v.source, cobra::core::ValidationSource::Execution);

        // Determinism: a second fresh optimizer reproduces the record.
        let again = case
            .fixture()
            .cobra_builder()
            .network(NetworkProfile::slow_remote())
            .validate_selection(vcfg.clone())
            .build()
            .optimize_program(&case.program)
            .expect("optimizes again");
        assert_eq!(
            again.validation.as_ref(),
            Some(v),
            "validation is deterministic"
        );
        assert_eq!(again.program, optimized.program);
    }
    assert!(
        validated_cases > 0,
        "the skewed corpus must exercise validation at least once"
    );
}

/// The selection gate: on the skewed corpus, judged by *full-fixture*
/// runs (simulated time, so deterministic), the validated pick must be
/// no slower than the cost-only pick on at least 95% of cases and must
/// win at least as often as cost-only does. A validator that promotes a
/// plan which loses at full scale fails here.
#[test]
fn validated_selection_holds_the_win_rate_floor() {
    const CASES: u64 = 12;
    let gen = GenConfig::skewed();
    let net = NetworkProfile::slow_remote();
    let (mut validated_wins, mut cost_only_wins) = (0u64, 0u64);
    for seed in 0..CASES {
        let case = GenCase::from_seed(7000 + seed, &gen);
        let fixture = case.fixture();
        let builder = fixture.cobra_builder().network(net.clone());
        let optimize = |cobra: Cobra| cobra.optimize_program(&case.program).expect("optimizes");
        let cost_only = optimize(builder.clone().build());
        let validated = optimize(
            builder
                .validate_selection(ValidationConfig::default())
                .build(),
        );
        // Ground truth: each pick on its own fresh full-size fixture.
        let full_run = |pick: Function| {
            run_on(&case.fixture(), net.clone(), &case.program.with_entry(pick))
                .expect("pick runs")
                .secs
        };
        let (t_cost, t_val) = (full_run(cost_only.program), full_run(validated.program));
        validated_wins += u64::from(t_val <= t_cost * (1.0 + 1e-9));
        cost_only_wins += u64::from(t_cost <= t_val * (1.0 + 1e-9));
    }
    println!(
        "validated selection: {validated_wins}/{CASES} wins vs cost-only {cost_only_wins}/{CASES}"
    );
    assert!(
        validated_wins >= cost_only_wins,
        "validated selection wins {validated_wins}/{CASES}, below cost-only {cost_only_wins}/{CASES}"
    );
    assert!(
        validated_wins as f64 + 1e-9 >= 0.95 * CASES as f64,
        "validated selection wins {validated_wins}/{CASES}, below the 0.95 floor"
    );
}

/// An attached-but-empty feedback store cannot satisfy the freshness
/// shortcut: validation falls back to measured execution.
#[test]
fn empty_feedback_store_falls_back_to_execution() {
    let case = GenCase::from_seed(7000, &GenConfig::skewed());
    let optimized = case
        .fixture()
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .feedback(Arc::new(minidb::FeedbackStore::new()))
        .validate_selection(cobra::core::ValidationConfig::default())
        .build()
        .optimize_program(&case.program)
        .expect("optimizes");
    if let Some(v) = &optimized.validation {
        assert_eq!(v.source, cobra::core::ValidationSource::Execution);
    }
}

/// `ServerConfig::validate` wires validated selection into the plan
/// cache's compute path: fresh submissions go through measured selection
/// and promotions are counted server-wide.
#[test]
fn server_routes_cache_fills_through_validated_selection() {
    let service = CobraService::new(ServerConfig {
        validate: Some(cobra::core::ValidationConfig::default()),
        ..ServerConfig::default()
    });
    let gen = GenConfig::skewed();
    let mut promoted_tags = 0;
    for seed in 0..4u64 {
        let case = GenCase::from_seed(7000 + seed, &gen);
        let fx = case.fixture();
        let tenant = service.register_tenant(
            TenantSpec::new(
                format!("t{seed}"),
                fx.db.clone(),
                fx.mapping.clone(),
                fx.funcs.clone(),
            )
            .feedback(false),
        );
        let session = service.open_session(tenant).expect("open session");
        let reply = service.submit(session, &case.program).expect("submits");
        if reply.tags.iter().any(|t| t == "validated-promotion") {
            promoted_tags += 1;
        }
    }
    let counters = service.counters();
    assert_eq!(
        counters.validated_promotions, promoted_tags,
        "server counter matches the promoted submissions"
    );
    assert!(
        counters.validated_promotions >= 1,
        "the skewed corpus promotes at least one measured winner"
    );
    service.shutdown();
}

/// A price in the catalog is a price on the clock. Scale `server_row_ns`
/// or `cz_ns` by ten and (a) what validated selection *measures* for every
/// candidate of P0 and of P1 rises, as what it predicts for them does —
/// compared as sorted lists, so a reordering of the candidates cannot hide
/// a measurement that stayed put; (b) the full-scale run of P0 / P1 / P2
/// from the same `Cobra` moves by what the estimate moved by, and estimate
/// and run name the same cheapest program of the three at every price
/// point. Before the run read the catalog, both were the default clock's
/// whatever the catalog said.
#[test]
fn a_catalog_price_moves_the_measurement_and_the_run_with_the_estimate() {
    let fixture = motivating::build_fixture(20_000, 5_000, 7);
    let base = CostCatalog::default();
    let scaled = [
        CostCatalog {
            server_row_ns: base.server_row_ns * 10.0,
            ..base.clone()
        },
        CostCatalog {
            cz_ns: base.cz_ns * 10.0,
            ..base.clone()
        },
    ];
    let cobra_at = |catalog: &CostCatalog| {
        fixture
            .cobra_builder()
            .network(NetworkProfile::fast_local())
            .catalog(catalog.clone())
            .validate_selection(ValidationConfig::default())
            .build()
    };
    let programs = [motivating::p0(), motivating::p1(), motivating::p2()];

    // (a) predicted and measured, ascending, of every validated candidate.
    let validated = |catalog: &CostCatalog, program: &Program| {
        let optimized = cobra_at(catalog).optimize_program(program).unwrap();
        let v = optimized.validation.expect("several candidates");
        assert_eq!(v.source, cobra::core::ValidationSource::Execution);
        let mut predicted: Vec<f64> = v.candidates.iter().map(|c| c.predicted_cost_ns).collect();
        let measured = v.candidates.iter().map(|c| c.measured_ns.expect("ran"));
        let mut measured: Vec<f64> = measured.collect();
        predicted.sort_by(f64::total_cmp);
        measured.sort_by(f64::total_cmp);
        (predicted, measured)
    };
    let rises = |from: &[f64], to: &[f64]| {
        from.len() == to.len() && from.iter().zip(to).all(|(a, b)| a < b)
    };
    for program in &programs[..2] {
        let (predicted, measured) = validated(&base, program);
        for catalog in &scaled {
            let (predicted_at, measured_at) = validated(catalog, program);
            assert!(
                rises(&predicted, &predicted_at),
                "estimates rise: {predicted:?} -> {predicted_at:?}"
            );
            assert!(
                rises(&measured, &measured_at),
                "measurements rise with them: {measured:?} -> {measured_at:?}"
            );
        }
    }

    // (b) estimate and run of the three programs as written.
    let priced = |catalog: &CostCatalog| -> (Vec<f64>, Vec<f64>) {
        let cobra = cobra_at(catalog);
        let est = programs.iter().map(|p| cobra.cost_of(p.entry()));
        let run = programs
            .iter()
            .map(|p| cobra.run(p).expect("runs").elapsed_ns as f64);
        (est.collect(), run.collect())
    };
    let cheapest = |of: &[f64]| (0..of.len()).min_by(|&a, &b| of[a].total_cmp(&of[b]));
    let (est_default, run_default) = priced(&base);
    assert_eq!(cheapest(&est_default), cheapest(&run_default));
    for catalog in &scaled {
        let (est, run) = priced(catalog);
        assert_eq!(
            cheapest(&est),
            cheapest(&run),
            "estimate and run disagree on the cheapest of P0/P1/P2: {est:?} / {run:?}"
        );
        for i in 0..programs.len() {
            let (moved_est, moved_run) = (est[i] - est_default[i], run[i] - run_default[i]);
            assert!(
                moved_run > 0.0 && (moved_run / moved_est - 1.0).abs() < 0.05,
                "the estimate moved by {moved_est} ns, the run by {moved_run} ns"
            );
        }
    }
}
