//! Property tests on the program-analysis substrate: for *randomly
//! generated structured programs*, the CFG-based structural analysis must
//! reconstruct exactly the region tree that the AST implies, and regions
//! must round-trip to statements losslessly.
//!
//! Driven by a deterministic xorshift generator instead of proptest (the
//! workspace builds offline); the failing case index is in the assertion
//! message and programs are reproducible from the fixed seed.

use cobra::imperative::ast::{Expr, Function, Stmt, StmtKind};
use cobra::imperative::regions::Region;
use cobra::imperative::structural;
use cobra::minidb::BinOp;
use cobra::netsim::rng::StdRng;

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
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        if depth == 0 || rng.gen_range(0..4) == 0 {
            out.push(simple_stmt(rng));
            continue;
        }
        match rng.gen_range(0..3) {
            0 => {
                let has_else = rng.gen_bool();
                let then_branch = stmts(rng, depth - 1);
                let else_branch = if has_else {
                    stmts(rng, depth - 1)
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
                    body: stmts(rng, depth - 1),
                }));
            }
            _ => {
                out.push(Stmt::new(StmtKind::While {
                    cond: Expr::bin(
                        BinOp::Lt,
                        Expr::var("i"),
                        Expr::lit(rng.gen_range(0..10) as i64),
                    ),
                    body: stmts(rng, depth - 1),
                }));
            }
        }
    }
    out
}

/// CFG-based structural analysis reconstructs the AST's region tree on
/// arbitrary structured programs.
#[test]
fn structural_analysis_matches_ast_regions() {
    let mut rng = StdRng::seed_from_u64(0x57A7);
    for case in 0..128 {
        let mut f = Function::new("t", vec![], stmts(&mut rng, 3));
        f.number_lines(2);
        let from_cfg = structural::analyze(&f).expect("structured program reduces");
        let from_ast = Region::from_function(&f).normalize();
        assert!(
            from_cfg.same_shape(&from_ast),
            "case {case}: shapes differ for:\n{}",
            cobra::imperative::pretty::function_to_string(&f)
        );
    }
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
