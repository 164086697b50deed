//! The motivating example (§II, Figure 3) and program M0 (Figure 7).
//!
//! Schema sizing follows the TPC-DS specification the paper references:
//! `customer` rows are ≈132 B and `orders` rows ≈100 B (declared column
//! widths, so `S_row` is exact in both the simulator and the cost model).

use crate::harness::Fixture;
use imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use minidb::{Column, DataType, Database, FuncRegistry, Schema, Value};
use netsim::rng::StdRng;
use orm::{EntityMapping, MappingRegistry};

use std::sync::Arc;

/// Columns of `orders` (~100 B/row).
fn orders_schema() -> Schema {
    Schema::new(vec![
        Column::new("o_id", DataType::Int),
        Column::new("o_customer_sk", DataType::Int),
        Column::new("o_date", DataType::Int),
        Column::new("o_amount", DataType::Float),
        Column::with_width("o_status", DataType::Str, 10),
        Column::with_width("o_comment", DataType::Str, 58),
    ])
}

/// Columns of `customer` (~132 B/row, TPC-DS customer-like).
fn customer_schema() -> Schema {
    Schema::new(vec![
        Column::new("c_customer_sk", DataType::Int),
        Column::new("c_birth_year", DataType::Int),
        Column::with_width("c_first_name", DataType::Str, 20),
        Column::with_width("c_last_name", DataType::Str, 30),
        Column::with_width("c_email_address", DataType::Str, 50),
        Column::with_width("c_birth_country", DataType::Str, 16),
    ])
}

/// Build the orders/customer database with `n_orders` and `n_customers`
/// rows (deterministic in `seed`), plus mappings and `myFunc`.
pub fn build_fixture(n_orders: usize, n_customers: usize, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    let t = db.create_table("customer", customer_schema()).unwrap();
    t.set_primary_key("c_customer_sk").unwrap();
    let rows = (0..n_customers).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int(1930 + (i % 70) as i64),
            Value::str(format!("First{}", i % 1000)),
            Value::str(format!("Last{}", i % 5000)),
            Value::str(format!("user{i}@example.com")),
            Value::str("Wonderland"),
        ]
    });
    t.insert_many(rows).unwrap();

    let t = db.create_table("orders", orders_schema()).unwrap();
    t.set_primary_key("o_id").unwrap();
    let n_cust = n_customers.max(1) as i64;
    let rows = (0..n_orders).map(|i| {
        let cust = rng.gen_range(0..n_cust);
        vec![
            Value::Int(i as i64),
            Value::Int(cust),
            Value::Int(2_450_000 + (i % 365) as i64),
            Value::Float((i % 997) as f64 * 1.37),
            Value::str(if i % 5 == 0 { "open" } else { "done" }),
            Value::str(format!("order comment {}", i % 100)),
        ]
    });
    t.insert_many(rows).unwrap();
    db.analyze_all();

    let mut mapping = MappingRegistry::new();
    mapping.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
        "customer",
        "Customer",
        "o_customer_sk",
    ));
    mapping.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));

    let mut funcs = FuncRegistry::with_builtins();
    funcs.register("myFunc", DataType::Int, |args| {
        let a = args.first().and_then(|v| v.as_i64()).unwrap_or(0);
        let b = args.get(1).and_then(|v| v.as_i64()).unwrap_or(0);
        Ok(Value::Int(a * 10_000 + b))
    });

    Fixture {
        db: minidb::shared(db),
        mapping,
        funcs: Arc::new(funcs),
    }
}

/// P0 (Figure 3a): ORM navigation inside the loop — the N+1 pattern.
pub fn p0() -> Program {
    let mut f = Function::new(
        "processOrders",
        vec!["result".to_string()],
        vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::LoadAll("Order".into()),
                body: vec![
                    Stmt::new(StmtKind::Let(
                        "cust".into(),
                        Expr::nav(Expr::var("o"), "customer"),
                    )),
                    Stmt::new(StmtKind::Let(
                        "val".into(),
                        Expr::Call(
                            "myFunc".into(),
                            vec![
                                Expr::field(Expr::var("o"), "o_id"),
                                Expr::field(Expr::var("cust"), "c_birth_year"),
                            ],
                        ),
                    )),
                    Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
                ],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// P1 (Figure 3b): one join query; processing stays in the loop.
pub fn p1() -> Program {
    let mut f = Function::new(
        "processOrders",
        vec!["result".to_string()],
        vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::Let(
                "joinRes".into(),
                Expr::Query(QuerySpec::sql(
                    "select * from orders o join customer c \
                     on o.o_customer_sk = c.c_customer_sk",
                )),
            )),
            Stmt::new(StmtKind::ForEach {
                var: "r".into(),
                iter: Expr::var("joinRes"),
                body: vec![
                    Stmt::new(StmtKind::Let(
                        "val".into(),
                        Expr::Call(
                            "myFunc".into(),
                            vec![
                                Expr::field(Expr::var("r"), "o_id"),
                                Expr::field(Expr::var("r"), "c_birth_year"),
                            ],
                        ),
                    )),
                    Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
                ],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// P2 (Figure 3c): prefetch customers, join locally through the cache.
pub fn p2() -> Program {
    let mut f = Function::new(
        "processOrders",
        vec!["result".to_string()],
        vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::CacheByColumn {
                cache: "cache_customer_by_c_customer_sk".into(),
                source: Expr::LoadAll("Customer".into()),
                key_col: "c_customer_sk".into(),
            }),
            Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::LoadAll("Order".into()),
                body: vec![
                    Stmt::new(StmtKind::Let(
                        "cust".into(),
                        Expr::LookupCache(
                            "cache_customer_by_c_customer_sk".into(),
                            Box::new(Expr::field(Expr::var("o"), "o_customer_sk")),
                        ),
                    )),
                    Stmt::new(StmtKind::Let(
                        "val".into(),
                        Expr::Call(
                            "myFunc".into(),
                            vec![
                                Expr::field(Expr::var("o"), "o_id"),
                                Expr::field(Expr::var("cust"), "c_birth_year"),
                            ],
                        ),
                    )),
                    Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
                ],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// Program M0 (Figure 7): sum and cumulative sums in one loop — the
/// dependent-aggregation example motivating the tuple/project extension.
/// (The `sales` role is played by `orders`: month ← `o_date`, amount ←
/// `o_amount`.)
pub fn m0() -> Program {
    let mut f = Function::new(
        "mySum",
        vec![],
        vec![
            Stmt::new(StmtKind::Let("sum".into(), Expr::lit(0.0f64))),
            Stmt::new(StmtKind::NewMap("cSum".into())),
            Stmt::new(StmtKind::ForEach {
                var: "t".into(),
                iter: Expr::Query(QuerySpec::sql(
                    "select o_date, o_amount from orders order by o_date",
                )),
                body: vec![
                    Stmt::new(StmtKind::Let(
                        "sum".into(),
                        Expr::bin(
                            minidb::BinOp::Add,
                            Expr::var("sum"),
                            Expr::field(Expr::var("t"), "o_amount"),
                        ),
                    )),
                    Stmt::new(StmtKind::Put(
                        "cSum".into(),
                        Expr::field(Expr::var("t"), "o_date"),
                        Expr::var("sum"),
                    )),
                ],
            }),
            Stmt::new(StmtKind::Print(Expr::var("sum"))),
            Stmt::new(StmtKind::Print(Expr::Len(Box::new(Expr::var("cSum"))))),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_on;
    use netsim::NetworkProfile;

    #[test]
    fn fixture_has_tpcds_like_row_sizes() {
        let fx = build_fixture(10, 5, 1);
        let db = fx.db.read().unwrap();
        assert_eq!(db.table("customer").unwrap().schema().row_bytes(), 132);
        assert_eq!(db.table("orders").unwrap().schema().row_bytes(), 100);
    }

    #[test]
    fn datagen_is_deterministic() {
        let a = build_fixture(50, 10, 42);
        let b = build_fixture(50, 10, 42);
        assert_eq!(
            a.db.read().unwrap().table("orders").unwrap().rows(),
            b.db.read().unwrap().table("orders").unwrap().rows()
        );
    }

    #[test]
    fn p0_p1_p2_are_semantically_equivalent() {
        let fx = build_fixture(200, 40, 3);
        let net = NetworkProfile::fast_local();
        let r0 = run_on(&fx, net.clone(), &p0()).unwrap();
        let r1 = run_on(&fx, net.clone(), &p1()).unwrap();
        let r2 = run_on(&fx, net, &p2()).unwrap();
        let s0 = r0.outcome.var_snapshot("result").normalized();
        let s1 = r1.outcome.var_snapshot("result").normalized();
        let s2 = r2.outcome.var_snapshot("result").normalized();
        assert_eq!(s0, s1);
        assert_eq!(s0, s2);
    }

    #[test]
    fn p0_suffers_n_plus_one() {
        let fx = build_fixture(200, 40, 3);
        let net = NetworkProfile::fast_local();
        let r0 = run_on(&fx, net.clone(), &p0()).unwrap();
        let r1 = run_on(&fx, net, &p1()).unwrap();
        assert_eq!(r1.outcome.round_trips, 1);
        assert!(
            r0.outcome.round_trips > 30,
            "N+1: {}",
            r0.outcome.round_trips
        );
    }

    #[test]
    fn m0_computes_dependent_aggregates() {
        let fx = build_fixture(100, 10, 5);
        let r = run_on(&fx, NetworkProfile::fast_local(), &m0()).unwrap();
        assert_eq!(r.outcome.print_values.len(), 2);
    }
}
