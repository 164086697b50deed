//! Cobra-as-a-service end to end, over the wire.
//!
//! Boots a [`WireServer`] on an ephemeral port, connects a [`WireClient`],
//! and walks the serving lifecycle:
//!
//! 1. submit a program — cold cache, full optimizer search;
//! 2. submit it again — warm cache hit, no search;
//! 3. shift the data under the server (writes advance the stats epoch,
//!    so the cached plan is invalidated and the re-search records fresh
//!    runtime feedback);
//! 4. the drift sweeper notices the model/observation divergence and
//!    hot-swaps the cached plan against observed cardinalities;
//! 5. the next submission hits the *re-optimized* plan;
//! 6. clean shutdown, by the holder of the server.

use cobra::minidb::{self, Column, DataType, Schema, Value};
use cobra::prelude::*;
use cobra::server::CacheOutcome;
use imperative::ast::QuerySpec;
use std::sync::Arc;

fn fixture() -> Fixture {
    let mut db = Database::new();
    let orders = Schema::new(vec![
        Column::new("o_id", DataType::Int),
        Column::new("o_customer_sk", DataType::Int),
        Column::new("o_priority", DataType::Int),
    ]);
    let t = db.create_table("orders", orders).unwrap();
    t.set_primary_key("o_id").unwrap();
    for i in 0..1000i64 {
        t.insert(vec![Value::Int(i), Value::Int(i % 50), Value::Int(i % 10)])
            .unwrap();
    }
    let customer = Schema::new(vec![
        Column::new("c_customer_sk", DataType::Int),
        Column::new("c_birth_year", DataType::Int),
    ]);
    let t = db.create_table("customer", customer).unwrap();
    t.set_primary_key("c_customer_sk").unwrap();
    for i in 0..50i64 {
        t.insert(vec![Value::Int(i), Value::Int(1950 + i)]).unwrap();
    }
    db.analyze_all();
    let mut mapping = MappingRegistry::new();
    mapping.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
        "customer",
        "Customer",
        "o_customer_sk",
    ));
    mapping.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
    Fixture {
        db: minidb::shared(db),
        mapping,
        funcs: Arc::new(FuncRegistry::with_builtins()),
    }
}

fn open_orders_program() -> Program {
    use imperative::ast::{Expr, Function, Stmt, StmtKind};
    Program::single(Function::new(
        "openOrders",
        vec!["result".to_string()],
        vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::Query(QuerySpec::sql("select * from orders where o_priority = 3")),
                body: vec![
                    Stmt::new(StmtKind::Let(
                        "c".into(),
                        Expr::nav(Expr::var("o"), "customer"),
                    )),
                    Stmt::new(StmtKind::Add(
                        "result".into(),
                        Expr::field(Expr::var("c"), "c_birth_year"),
                    )),
                ],
            }),
        ],
    ))
}

fn main() {
    let fixture = fixture();
    let program = open_orders_program();

    // A service with a sensitive drift threshold so the demo's single
    // feedback run is enough to trigger the hot swap.
    let service = CobraService::new(ServerConfig {
        drift_threshold: 2.0,
        ..ServerConfig::default()
    });
    service.register_tenant(
        TenantSpec::new(
            "orders",
            fixture.db.clone(),
            fixture.mapping.clone(),
            fixture.funcs.clone(),
        )
        .network(NetworkProfile::slow_remote()),
    );

    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    println!("server listening on {}", server.local_addr());

    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let session = client.open_session("orders").expect("open session");

    // 1. Cold submission: full search.
    let cold = client.submit(session, &program).expect("submit");
    println!(
        "cold:  {} ({} µs wall) plan {:?} est {:.3}s simulated {:.3}s",
        cold.cache,
        cold.wall_ns / 1_000,
        cold.tags,
        cold.est_cost_ns / 1e9,
        cold.simulated_ns as f64 / 1e9,
    );
    assert_eq!(cold.cache, CacheOutcome::Miss);

    // 2. Warm submission: cache hit, same plan, no search.
    let warm = client.submit(session, &program).expect("submit");
    println!("warm:  {} ({} µs wall)", warm.cache, warm.wall_ns / 1_000);
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.results, cold.results);

    // 3. The workload shifts mid-run: almost every order is escalated to
    //    priority 3. Statistics go stale (no re-ANALYZE), but the write
    //    advances the stats epoch, so the stale cached plan is already
    //    unreachable. The next submission re-searches — still against
    //    stale statistics — and its execution records what's really there.
    {
        let mut db = fixture.db.write().unwrap();
        let t = db.table_mut("orders").unwrap();
        for i in 0..1000i64 {
            if i % 11 != 0 {
                t.update_where_eq(0, &Value::Int(i), 2, Value::Int(3));
            }
        }
    }
    let shifted = client.submit(session, &program).expect("submit");
    println!(
        "shift: {} (writes invalidated the cache) est {:.3}s simulated {:.3}s",
        shifted.cache,
        shifted.est_cost_ns / 1e9,
        shifted.simulated_ns as f64 / 1e9,
    );
    assert_eq!(shifted.cache, CacheOutcome::Miss);
    assert!(
        shifted.simulated_ns > 2 * cold.simulated_ns,
        "~9x more priority-3 rows must show up in the simulated time \
         (the chosen sql-join plan pays in result transfer, not round trips)"
    );

    // 4. The drift sweeper compares the model against the recorded
    //    observations and hot-swaps the cached plan. (The background
    //    thread does this on its own cadence; the demo invokes a sweep
    //    synchronously so the output is deterministic.)
    let swapped = server.service().sweep_now();
    println!("sweep: {swapped} plan(s) re-optimized against observed cardinalities");
    assert!(swapped >= 1, "the shift must push drift past the threshold");

    // 5. The next submission rides the swapped plan: a cache hit under
    //    the new epoch, planned against the *observed* cardinalities —
    //    the estimate now prices the ~9x result, and the optimizer is
    //    free to pick a different strategy for it (here it abandons the
    //    wide join transfer for prefetching).
    let post = client.submit(session, &program).expect("submit");
    println!(
        "post:  {} plan {:?} est {:.3}s (was {:.3}s before observation) simulated {:.3}s",
        post.cache,
        post.tags,
        post.est_cost_ns / 1e9,
        shifted.est_cost_ns / 1e9,
        post.simulated_ns as f64 / 1e9,
    );
    assert_eq!(post.cache, CacheOutcome::Hit);
    assert_eq!(post.results, shifted.results, "swap never changes answers");
    assert!(
        post.est_cost_ns > shifted.est_cost_ns,
        "the swapped plan must be priced against the observed ~9x cardinality, \
         not the stale statistics"
    );

    println!("\n--- optimization report (last submitted program) ---");
    let report = client.report(session).expect("report");
    for line in report.lines().take(12) {
        println!("{line}");
    }

    let counters = client.counters().expect("counters");
    println!("\n--- server counters ---\n{counters}");
    assert!(counters.plans_swapped >= 1);

    // 6. Clean shutdown: the process that started the server stops it.
    client.close_session(session).expect("close");
    server.shutdown();
    assert!(server.service().is_shut_down());
    println!("\nserver shut down cleanly");
}
