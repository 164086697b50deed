//! Integration tests reproducing the paper's background/illustration
//! figures: Figure 4 (AND-OR DAG of a join query), Figures 5–6 (regions
//! and the Region DAG of P0), and the black-box path for unstructured
//! regions (§IV-B).

mod support;

use cobra::imperative::ast::{Expr, Function, Program, Stmt, StmtKind};
use cobra::imperative::regions::Region;
use cobra::imperative::{pretty, structural};
use cobra::netsim::NetworkProfile;
use cobra::volcano::{count_plans, Memo};
use cobra::workloads::motivating;
use support::engine::expand;
use support::relalg::{left_deep_join, JoinAssociativity, JoinCommutativity};

#[test]
fn figure_4_commutativity_gives_four_alternatives() {
    let mut memo = Memo::new();
    let root = memo.insert_tree(&left_deep_join(&["A", "B", "C"]), None);
    assert_eq!(memo.num_live_groups(), 5, "Figure 4b: A, B, C, AB, ABC");
    expand(&mut memo, &[&JoinCommutativity], 16);
    assert_eq!(
        count_plans(&memo, root),
        4,
        "Figure 4c: (A⋈B)⋈C, (B⋈A)⋈C, C⋈(A⋈B), C⋈(B⋈A)"
    );
}

#[test]
fn figure_4_framework_terminates_on_cyclic_rules() {
    let mut memo = Memo::new();
    let root = memo.insert_tree(&left_deep_join(&["A", "B", "C"]), None);
    // Run far more passes than needed: dedup must make this a fixpoint.
    let stats = expand(&mut memo, &[&JoinCommutativity, &JoinAssociativity], 1000);
    assert!(stats.passes < 10, "fixpoint, not exhaustion: {stats:?}");
    assert_eq!(count_plans(&memo, root), 12);
}

#[test]
fn figure_5_region_labels() {
    let p0 = motivating::p0();
    let region = Region::from_function(p0.entry());
    // Figure 5's naming: outer sequential region S2-7, loop L3-7.
    assert_eq!(region.label("P0"), "P0.S2-7");
    let mut labels = Vec::new();
    region.walk(&mut |r| labels.push(r.label("P0")));
    assert!(labels.contains(&"P0.B2".to_string()), "{labels:?}");
    assert!(labels.contains(&"P0.L3-7".to_string()), "{labels:?}");
    assert!(labels.contains(&"P0.S4-6".to_string()), "{labels:?}");
}

#[test]
fn figure_6_structural_analysis_agrees_with_ast_regions() {
    let p0 = motivating::p0();
    let from_cfg = structural::analyze(p0.entry()).expect("P0 is structured");
    let from_ast = Region::from_function(p0.entry()).normalize();
    assert!(from_cfg.same_shape(&from_ast));
}

#[test]
fn unstructured_fragments_become_black_boxes_but_optimization_continues() {
    // A try/catch before the loop: the fragment is kept verbatim while the
    // loop around it is still rewritten (§IV-B).
    let fixture = motivating::build_fixture(2_000, 200, 5);
    let p0 = motivating::p0();
    let mut body = vec![Stmt::new(StmtKind::TryCatch {
        body: vec![Stmt::new(StmtKind::Print(Expr::lit("audit start")))],
        handler: vec![Stmt::new(StmtKind::Print(Expr::lit("audit failed")))],
    })];
    body.extend(p0.entry().body.clone());
    let mut f = Function::new("withAudit", p0.entry().params.clone(), body);
    f.number_lines(2);

    // The CFG-based analysis refuses the whole function…
    assert!(structural::analyze(&f).is_err(), "exceptional edges");

    // …but the optimizer still rewrites the loop around the black box.
    let cobra = fixture
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build();
    let opt = cobra.optimize_program(&Program::single(f)).unwrap();
    let text = pretty::function_to_string(&opt.program);
    assert!(text.contains("try {"), "black box kept verbatim:\n{text}");
    assert!(
        opt.est_cost_ns < opt.original_cost_ns,
        "the loop around the black box was still optimized"
    );
}

#[test]
fn figure_6c_shared_blocks_are_stored_once() {
    // The Region DAG representing P0's alternatives stores the shared
    // first block (result = {}) exactly once — verified through the
    // optimizer's reported DAG sizes: groups < sum of per-alternative
    // region counts.
    let fixture = motivating::build_fixture(500, 100, 5);
    let cobra = fixture
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build();
    let opt = cobra.optimize_program(&motivating::p0()).unwrap();
    assert!(opt.alternatives >= 3);
    // Each alternative alone has ≥ 5 regions; sharing keeps the DAG small.
    assert!(
        (opt.exprs as u64) < opt.alternatives * 5,
        "{} exprs for {} alternatives — sub-regions are shared",
        opt.exprs,
        opt.alternatives
    );
}
