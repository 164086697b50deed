//! F-IR playground: watch §V happen — Figure 7's program M0 is converted
//! to a fold with the tuple/project extension (Figure 8), and the
//! motivating loop of P0 is closed under the transformation rules
//! (T1–T5, N1, N2), printing every alternative the Region DAG would hold.
//!
//! ```text
//! cargo run --release --example fir_playground
//! ```

use cobra::fir::{build, codegen, expand_with, RuleSet};
use cobra::imperative::ast::{Expr, QuerySpec, Stmt, StmtKind};
use cobra::imperative::pretty;
use cobra::minidb::BinOp;
use cobra::orm::{EntityMapping, MappingRegistry};

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

fn main() {
    // ---- Figure 7 / Figure 8: dependent aggregations --------------------
    println!("=== Figure 7's loop → F-IR (Figure 8) ===\n");
    let body = vec![
        Stmt::new(StmtKind::Let(
            "sum".into(),
            Expr::bin(
                BinOp::Add,
                Expr::var("sum"),
                Expr::field(Expr::var("t"), "sale_amt"),
            ),
        )),
        Stmt::new(StmtKind::Put(
            "cSum".into(),
            Expr::field(Expr::var("t"), "month"),
            Expr::var("sum"),
        )),
    ];
    let iter = Expr::Query(QuerySpec::sql(
        "select month, sale_amt from sales order by month",
    ));
    let alt = build::loop_to_fold("t", &iter, &body, &mappings(), None).expect("foldable");
    for (var, id) in &alt.roots.assigns {
        println!("{var} = {}", alt.arena.display(*id));
    }

    println!("\nalternatives under the rules (note the T5-partial degradation of §V-B):\n");
    for a in expand_with(alt, &RuleSet::standard(), 32).alternatives {
        println!("[{}]", a.roots.rules_applied.join(" → "));
        println!("  {}\n", a.display());
    }

    // ---- P0's loop: the full rule closure --------------------------------
    println!("=== P0's loop: rule closure and generated programs ===\n");
    let body = vec![
        Stmt::new(StmtKind::Let(
            "cust".into(),
            Expr::nav(Expr::var("o"), "customer"),
        )),
        Stmt::new(StmtKind::Add(
            "result".into(),
            Expr::Call(
                "myFunc".into(),
                vec![
                    Expr::field(Expr::var("o"), "o_id"),
                    Expr::field(Expr::var("cust"), "c_birth_year"),
                ],
            ),
        )),
    ];
    let live = vec!["result".to_string()];
    let base = build::loop_to_fold(
        "o",
        &Expr::LoadAll("Order".into()),
        &body,
        &mappings(),
        Some(&live),
    )
    .expect("foldable");
    for a in expand_with(base, &RuleSet::standard(), 32).alternatives {
        println!("[{}]", a.roots.rules_applied.join(" → "));
        println!("  F-IR : {}", a.display());
        if let Some(stmts) = codegen::generate(&a) {
            let text = pretty::stmts_to_string(&stmts);
            for line in text.lines() {
                println!("  code : {line}");
            }
        }
        println!();
    }
}
