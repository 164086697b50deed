//! Property tests on the program-analysis substrate: the CFG-based
//! structural analysis (`imperative::{cfg, structural}`, the paper's §III-B
//! construction) is the independent reference for the region tree
//! production builds from the AST (`Region::from_function`). On every
//! function — randomly generated here, and the real corpus the oracle,
//! the figures and the benchmark run — it must either reconstruct exactly
//! the tree the AST implies or refuse, and it may refuse only what it
//! cannot structure: a function with `break` or `try`. Regions must also
//! round-trip to statements losslessly.
//!
//! Driven by a deterministic xorshift generator instead of proptest (the
//! workspace builds offline); the failing case index is in the assertion
//! message and programs are reproducible from the fixed seed.

use cobra::imperative::ast::{Expr, Function, Program, Stmt, StmtKind};
use cobra::imperative::regions::Region;
use cobra::imperative::structural;
use cobra::minidb::BinOp;
use cobra::netsim::rng::StdRng;
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::{motivating, wilos};

/// A short lowercase name, `[a-z]{1,4}`.
fn name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..5usize);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u32) as u8) as char)
        .collect()
}

/// A random simple (non-compound) statement.
fn simple_stmt(rng: &mut StdRng) -> Stmt {
    match rng.gen_range(0..4) {
        0 => Stmt::new(StmtKind::Let(
            name(rng),
            Expr::lit(rng.gen_range(0..100) as i64),
        )),
        1 => Stmt::new(StmtKind::NewCollection(name(rng))),
        2 => Stmt::new(StmtKind::Print(Expr::lit(rng.gen_range(0..100) as i64))),
        _ => Stmt::new(StmtKind::Add(name(rng), Expr::var(name(rng)))),
    }
}

/// Random structured statement lists, recursion depth ≤ `depth`.
fn stmts(rng: &mut StdRng, depth: u32) -> Vec<Stmt> {
    stmts_in(rng, depth, false)
}

/// [`stmts`], knowing whether a loop encloses the list: only there may it
/// draw the one early exit the corpus generator emits, `if (…) { break; }`.
fn stmts_in(rng: &mut StdRng, depth: u32, in_loop: bool) -> Vec<Stmt> {
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        if in_loop && rng.gen_range(0..32) == 0 {
            out.push(Stmt::new(StmtKind::If {
                cond: Expr::bin(BinOp::Lt, Expr::var("x"), Expr::lit(0)),
                then_branch: vec![Stmt::new(StmtKind::Break)],
                else_branch: vec![],
            }));
            continue;
        }
        if depth == 0 || rng.gen_range(0..4) == 0 {
            out.push(simple_stmt(rng));
            continue;
        }
        match rng.gen_range(0..3) {
            0 => {
                let has_else = rng.gen_bool();
                let then_branch = stmts_in(rng, depth - 1, in_loop);
                let else_branch = if has_else {
                    stmts_in(rng, depth - 1, in_loop)
                } else {
                    vec![]
                };
                out.push(Stmt::new(StmtKind::If {
                    cond: Expr::bin(
                        BinOp::Lt,
                        Expr::var("x"),
                        Expr::lit(rng.gen_range(0..10) as i64),
                    ),
                    then_branch,
                    else_branch,
                }));
            }
            1 => {
                out.push(Stmt::new(StmtKind::ForEach {
                    var: "t".into(),
                    iter: Expr::var("rows"),
                    body: stmts_in(rng, depth - 1, true),
                }));
            }
            _ => {
                out.push(Stmt::new(StmtKind::While {
                    cond: Expr::bin(
                        BinOp::Lt,
                        Expr::var("i"),
                        Expr::lit(rng.gen_range(0..10) as i64),
                    ),
                    body: stmts_in(rng, depth - 1, true),
                }));
            }
        }
    }
    out
}

/// The either/or every function must satisfy: the CFG path rebuilds the
/// AST's region tree, or it refuses a function that has `break` or `try`.
/// Returns whether it agreed (`false`: refused).
fn agrees_or_refuses_an_escape(f: &Function, ctx: &str) -> bool {
    let text = || cobra::imperative::pretty::function_to_string(f);
    match structural::analyze(f) {
        Ok(from_cfg) => {
            let from_ast = Region::from_function(f).normalize();
            assert!(
                from_cfg.same_shape(&from_ast),
                "{ctx}: shapes differ for:\n{}",
                text()
            );
            true
        }
        Err(why) => {
            let mut escapes = false;
            for s in &f.body {
                s.walk(&mut |s| {
                    escapes |= matches!(s.kind, StmtKind::Break | StmtKind::TryCatch { .. });
                });
            }
            assert!(
                escapes,
                "{ctx}: refused ({why}) with no break or try:\n{}",
                text()
            );
            false
        }
    }
}

/// On arbitrary structured programs, `break` included.
#[test]
fn structural_analysis_matches_ast_regions() {
    let mut rng = StdRng::seed_from_u64(0x57A7);
    let mut agreed = 0;
    for case in 0..128 {
        let mut f = Function::new("t", vec![], stmts(&mut rng, 3));
        f.number_lines(2);
        agreed += agrees_or_refuses_an_escape(&f, &format!("case {case}")) as usize;
    }
    // Both sides of the either/or are exercised, agreement the most.
    assert!((64..128).contains(&agreed), "{agreed} of 128 agreed");
}

/// On the corpus everything else runs: the oracle's 500 generated
/// programs, the 32 Wilos fragments and the motivating programs, callees
/// included. The counts are pinned so a generator change that adds `try`
/// or moves the share of `break` shows up here.
#[test]
fn structural_analysis_matches_ast_regions_on_the_corpus() {
    let mut programs: Vec<(String, Program)> = (0..500)
        .map(|seed| {
            let case = GenCase::from_seed(seed, &GenConfig::default());
            (format!("seed {seed}"), case.program)
        })
        .collect();
    programs.extend(
        wilos::fragments()
            .into_iter()
            .map(|f| (format!("wilos fragment {}", f.id), f.program)),
    );
    programs.extend([
        ("P0".to_string(), motivating::p0()),
        ("P1".to_string(), motivating::p1()),
        ("P2".to_string(), motivating::p2()),
        ("M0".to_string(), motivating::m0()),
    ]);

    let (mut agreed, mut refused) = (0, 0);
    for (name, program) in &programs {
        for f in &program.functions {
            let ctx = format!("{name}, function {}", f.name);
            if agrees_or_refuses_an_escape(f, &ctx) {
                agreed += 1;
            } else {
                refused += 1;
            }
        }
    }
    println!("structural vs AST regions: {agreed} agree, {refused} refused, 0 differ");
    assert_eq!((agreed, refused), (491, 52), "543 functions at the pin");
}

/// Regions reconstruct their statements losslessly.
#[test]
fn regions_round_trip_statements() {
    let mut rng = StdRng::seed_from_u64(0x2071);
    for case in 0..128 {
        let mut f = Function::new("t", vec![], stmts(&mut rng, 3));
        f.number_lines(2);
        let region = Region::from_function(&f);
        assert_eq!(region.to_stmts(), f.body, "case {case}");
    }
}

/// Region labels are well-formed and the outermost region spans the
/// whole body.
#[test]
fn region_spans_cover_the_body() {
    let mut rng = StdRng::seed_from_u64(0x5BA9);
    for case in 0..128 {
        let mut f = Function::new("t", vec![], stmts(&mut rng, 2));
        f.number_lines(2);
        let region = Region::from_function(&f);
        let first = f.body.first().map(|s| s.line).unwrap_or(0);
        assert_eq!(region.span.0, first, "case {case}");
        let mut max_line = 0;
        for s in &f.body {
            max_line = max_line.max(s.max_line());
        }
        assert!(region.span.1 >= max_line, "case {case}");
    }
}

/// Inserting any structured program into the memo and extracting the
/// (only) plan reproduces the program.
#[test]
fn region_dag_identity_extraction() {
    use cobra::core::region_ops::{optree_to_stmts, region_to_optree, RegionOp};
    struct Unit;
    impl cobra::volcano::CostModel<RegionOp> for Unit {
        fn cost(
            &self,
            _m: &cobra::volcano::Memo<RegionOp>,
            _e: cobra::volcano::MExprId,
            child_costs: &[f64],
        ) -> f64 {
            1.0 + child_costs.iter().sum::<f64>()
        }
    }
    let mut rng = StdRng::seed_from_u64(0x1DE4);
    for case in 0..128 {
        let mut f = Function::new("t", vec![], stmts(&mut rng, 2));
        f.number_lines(2);
        let region = Region::from_function(&f);
        let mut memo: cobra::volcano::Memo<RegionOp> = cobra::volcano::Memo::new();
        let root = memo.insert_tree(&region_to_optree(&region), None);
        let best = cobra::volcano::best_plan(&memo, root, &Unit).expect("plan");
        assert_eq!(optree_to_stmts(&best.tree), f.body, "case {case}");
    }
}
