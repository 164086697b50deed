//! Properties of the static rewrite verifier (`crates/analysis`):
//!
//! * Soundness of the verifier itself: every generated program and every
//!   alternative the standard rules derive from it passes all three
//!   passes — over a 200-seed corpus by default
//!   (`VERIFY_SEEDS=500 cargo test --test verifier_properties` widens it;
//!   CI's `static-analysis` job runs the full 500).
//! * `VerifyLevel::Off` is bit-identical to `Panic` and `Reject` on clean
//!   rule sets across 100 seeds × 3 network profiles — verification never
//!   changes what a sound search produces, and `Off` (the default) is the
//!   exact pre-verifier code path.
//! * The intentionally broken `broken_limit_rule` is rejected
//!   *statically* — no execution — on seed 0, with a diagnostic naming
//!   the pass, the offending node and the rule.
//! * A mutation battery of hand-broken rule variants (dropped write,
//!   leaked binding, stolen read) is each caught by the expected pass.

use cobra::analysis;
use cobra::core::VerifyLevel;
use cobra::fir::{self, Change, Derivation, FirAlternative, FirNode};
use cobra::netsim::NetworkProfile;
use cobra::oracle::{broken_limit_rule, mid_range};
use cobra::prelude::*;
use cobra::workloads::genprog::{GenCase, GenConfig};

fn verify_seeds() -> u64 {
    std::env::var("VERIFY_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Expand `base` under `rules` with the static verifier attached,
/// returning the expansion (rejected alternatives recorded, not kept).
fn expand_verified(base: FirAlternative, rules: &RuleSet) -> fir::Expansion {
    let mut verifier = analysis::Verifier::new(&base.arena, &base.roots);
    let mut check = |arena: &fir::FirArena, alt: &fir::FirRoots| {
        let delta = rules.delta_for_applied(&alt.rules_applied);
        verifier
            .verify(arena, alt, &delta)
            .map_err(|d| d.to_string())
    };
    fir::expand_with_verifier(base, rules, 64, Some(&mut check))
}

/// The corpus sweep: every generated program and every rule-produced
/// alternative passes all three passes. Run at `VerifyLevel::Panic`
/// through the real optimizer path, so a verifier false positive (or a
/// latent rule bug) aborts with its diagnostic.
#[test]
fn corpus_and_all_rule_outputs_pass_all_passes() {
    let cfg = GenConfig::default();
    for seed in 0..verify_seeds() {
        let case = GenCase::from_seed(seed, &cfg);
        let fixture = case.fixture();
        let cobra = fixture
            .cobra_builder()
            .network(NetworkProfile::slow_remote())
            .verify_rewrites(VerifyLevel::Panic)
            .build();
        let opt = cobra
            .optimize_program(&case.program)
            .unwrap_or_else(|e| panic!("seed {seed} fails to optimize: {e}"));
        assert!(
            !opt.tags.contains(&"verifier-rejected"),
            "seed {seed}: Panic level never rejects, it aborts"
        );
    }
}

/// `VerifyLevel::Off` (the default) is bit-identical to verified output
/// on sound rule sets: 100 seeds × 3 profiles, comparing the emitted
/// program text, the cost bits, the search-space counters, the tags and
/// the rendered explain report across all three levels.
#[test]
fn off_level_is_bit_identical_across_levels() {
    let cfg = GenConfig::default();
    let profiles = [
        NetworkProfile::slow_remote(),
        NetworkProfile::fast_local(),
        mid_range(),
    ];
    for seed in 0..100u64 {
        let case = GenCase::from_seed(seed, &cfg);
        for profile in &profiles {
            let run = |level: VerifyLevel| {
                let fixture = case.fixture();
                let cobra = fixture
                    .cobra_builder()
                    .network(profile.clone())
                    .verify_rewrites(level)
                    .build();
                let report = cobra.explain(&case.program).expect("optimizes");
                (
                    pretty::function_to_string(&report.summary.program),
                    report.summary.est_cost_ns.to_bits(),
                    report.summary.original_cost_ns.to_bits(),
                    report.summary.alternatives,
                    report.summary.choice_points,
                    report.summary.groups,
                    report.summary.exprs,
                    report.summary.tags.clone(),
                    report.to_string(),
                )
            };
            let off = run(VerifyLevel::Off);
            let panic_level = run(VerifyLevel::Panic);
            let reject = run(VerifyLevel::Reject);
            assert_eq!(off, panic_level, "seed {seed}: Off ≠ Panic output");
            assert_eq!(off, reject, "seed {seed}: Off ≠ Reject output");
        }
    }
}

/// `broken_limit_rule` is caught statically on seed 0: the verifier
/// rejects every Xbug-derived alternative during expansion — nothing is
/// executed — and the surviving search is bit-identical to the standard
/// rule set's.
#[test]
fn broken_limit_rule_is_rejected_statically_on_seed_0() {
    let case = GenCase::from_seed(0, &GenConfig::default());
    let fixture = case.fixture();
    let broken = RuleSet::standard().with_rule(broken_limit_rule());

    let opt = fixture
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .rules(broken.clone())
        .verify_rewrites(VerifyLevel::Reject)
        .build()
        .optimize_program(&case.program)
        .expect("optimizes");
    assert!(
        opt.tags.contains(&"verifier-rejected"),
        "seed 0 must statically trip the verifier, tags: {:?}",
        opt.tags
    );
    let diag = opt
        .verifier_rejections
        .first()
        .expect("rejection diagnostics recorded");
    assert!(
        diag.contains("pass 2 (effect analysis)"),
        "the LIMIT theft is an effect violation: {diag}"
    );
    assert!(diag.contains("at node"), "diagnostic names a node: {diag}");
    assert!(diag.contains("Xbug"), "diagnostic names the rule: {diag}");
    assert!(
        diag.contains("LIMIT"),
        "diagnostic names the defect: {diag}"
    );

    // With the unsound alternatives dropped, the search result is
    // bit-identical to the standard rule set's.
    let clean = fixture
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build()
        .optimize_program(&case.program)
        .expect("optimizes");
    assert_eq!(
        pretty::function_to_string(&opt.program),
        pretty::function_to_string(&clean.program),
        "rejection restores the standard search"
    );
    assert_eq!(opt.est_cost_ns.to_bits(), clean.est_cost_ns.to_bits());
}

// ---------------------------------------------------------------- mutants

fn mappings() -> MappingRegistry {
    let mut r = MappingRegistry::new();
    r.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
        "customer",
        "Customer",
        "o_customer_sk",
    ));
    r.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
    r
}

/// A base alternative with *two* accumulators, so a dropped write leaves
/// a non-empty (but wrong) assignment list for pass 2 to catch.
fn two_accumulator_base() -> FirAlternative {
    let body = vec![
        Stmt::new(StmtKind::Add(
            "total".into(),
            Expr::field(Expr::var("o"), "o_qty"),
        )),
        Stmt::new(StmtKind::Let(
            "cust".into(),
            Expr::nav(Expr::var("o"), "customer"),
        )),
        Stmt::new(StmtKind::Add(
            "years".into(),
            Expr::field(Expr::var("cust"), "c_birth_year"),
        )),
    ];
    fir::build::loop_to_fold(
        "o",
        &Expr::LoadAll("Order".into()),
        &body,
        &mappings(),
        Some(&["total".to_string(), "years".to_string()]),
    )
    .expect("foldable loop")
}

/// Mutant 1 — dropped write: a rule that deletes the last assignment.
/// Caught by pass 2 (the write set shrank).
#[test]
fn mutant_dropping_a_write_is_caught_by_pass_2() {
    let rule = Rule::new(
        "Xdrop",
        "INTENTIONALLY BROKEN: drop the last assignment",
        |_, assigns, site| {
            if site.is_some() || assigns.len() < 2 {
                return None;
            }
            let kept = assigns[..assigns.len() - 1].to_vec();
            Some(vec![Derivation::new("Xdrop", Change::Assigns(kept))])
        },
    );
    let rules = RuleSet::standard().with_rule(rule);
    let exp = expand_verified(two_accumulator_base(), &rules);
    assert!(!exp.rejected.is_empty(), "the dropped write must be caught");
    let diag = exp
        .rejected
        .iter()
        .find(|d| d.contains("Xdrop"))
        .expect("a rejection attributed to Xdrop");
    assert!(
        diag.contains("pass 2 (effect analysis)"),
        "expected pass 2, got: {diag}"
    );
    assert!(diag.contains("drops the write"), "defect named: {diag}");
}

/// Mutant 2 — leaked binding: a rule that replaces `project_i(fold)`
/// with the fold's i-th body item, so row bindings and accumulator
/// markers escape the fold. Caught by pass 3.
#[test]
fn mutant_leaking_a_binding_is_caught_by_pass_3() {
    let rule = Rule::new(
        "Xleak",
        "INTENTIONALLY BROKEN: hoist a fold body item out of its fold",
        |arena, assigns, site| {
            let (var, root) = assigns.first().filter(|_| site.is_none())?;
            let FirNode::Project(fold, idx) = arena.node(*root) else {
                return None;
            };
            let FirNode::Fold { func, .. } = arena.node(*fold) else {
                return None;
            };
            let FirNode::Tuple(items) = arena.node(*func) else {
                return None;
            };
            let mut leaked = assigns.to_vec();
            leaked[0] = (var.clone(), items[*idx]);
            Some(vec![Derivation::new("Xleak", Change::Assigns(leaked))])
        },
    );
    let rules = RuleSet::standard().with_rule(rule);
    let exp = expand_verified(two_accumulator_base(), &rules);
    assert!(
        !exp.rejected.is_empty(),
        "the leaked binding must be caught"
    );
    let diag = exp
        .rejected
        .iter()
        .find(|d| d.contains("Xleak"))
        .expect("a rejection attributed to Xleak");
    assert!(
        diag.contains("pass 3 (binding-leak)"),
        "expected pass 3, got: {diag}"
    );
    assert!(
        diag.contains("escapes the fold body"),
        "defect named: {diag}"
    );
}

/// Mutant 3 — stolen read: `broken_limit_rule` truncates fold sources to
/// one row. Caught by pass 2 (a table read became LIMIT-truncated), at
/// the F-IR level with no execution at all.
#[test]
fn mutant_stealing_reads_is_caught_by_pass_2() {
    let rules = RuleSet::standard().with_rule(broken_limit_rule());
    let exp = expand_verified(two_accumulator_base(), &rules);
    assert!(!exp.rejected.is_empty(), "the stolen read must be caught");
    let diag = exp
        .rejected
        .iter()
        .find(|d| d.contains("Xbug"))
        .expect("a rejection attributed to Xbug");
    assert!(
        diag.contains("pass 2 (effect analysis)"),
        "expected pass 2, got: {diag}"
    );
    assert!(diag.contains("LIMIT"), "defect named: {diag}");
    assert!(diag.contains("at node"), "offending node named: {diag}");
    // Sound alternatives survive alongside: the verifier is selective.
    assert!(exp.alternatives.len() > 1, "sound alternatives survive");
}
