//! Concurrency guarantees of Cobra-as-a-service.
//!
//! * Concurrent sessions observe results bit-identical to sequential
//!   submission (on read-only programs with feedback disabled — the only
//!   regime where determinism is even *defined*: feedback recording is
//!   order-dependent, and writes move the stats epoch).
//! * N sessions submitting the same program concurrently coalesce into a
//!   single optimizer search.
//! * Two tenants never share plan-cache entries or feedback state, even
//!   with byte-identical schemas and data.
//! * A warm cache makes re-submission dramatically cheaper than the
//!   first (cold) submission.
//! * Load beyond the admission queue is shed with a typed error, and
//!   queue pressure downgrades the search budget instead of stalling.

use cobra::prelude::*;
use cobra::server::CacheOutcome;
use imperative::ast::{Stmt, StmtKind};
use latch::Latch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

#[path = "support/latch.rs"]
mod latch;

/// True if the program performs a database write (writes advance the
/// stats epoch, so they deliberately invalidate cached plans).
fn writes_db(program: &Program) -> bool {
    fn stmts_write(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| {
            matches!(s.kind, StmtKind::UpdateQuery { .. })
                || s.children().iter().any(|c| stmts_write(c))
        })
    }
    program.functions.iter().any(|f| stmts_write(&f.body))
}

/// The first `n` generated cases whose programs are read-only.
fn read_only_cases(n: usize) -> Vec<GenCase> {
    (0..)
        .map(|seed| GenCase::from_seed(seed, &GenConfig::default()))
        .filter(|c| !writes_db(&c.program))
        .take(n)
        .collect()
}

fn tenant_for(name: &str, fx: &Fixture, feedback: bool) -> TenantSpec {
    TenantSpec::new(name, fx.db.clone(), fx.mapping.clone(), fx.funcs.clone()).feedback(feedback)
}

#[test]
fn concurrent_sessions_match_sequential_results() {
    let cases = read_only_cases(4);
    // One shared database for every case: genprog schemas use distinct
    // table names per seed only within a case, so give each its own
    // tenant instead of merging databases.
    let service = CobraService::new(ServerConfig::default());
    let mut tenants = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let fx = case.fixture();
        // Feedback OFF: recording is order-dependent across threads, and
        // determinism is the property under test.
        tenants.push(service.register_tenant(tenant_for(&format!("t{i}"), &fx, false)));
    }

    // Sequential baseline.
    let mut baseline = Vec::new();
    for (case, &tenant) in cases.iter().zip(&tenants) {
        let session = service.open_session(tenant).unwrap();
        let reply = service.submit(session, &case.program).unwrap();
        baseline.push(reply.results.clone());
        service.close_session(session).unwrap();
    }

    // 4 threads × 2 sessions each, all submitting every case.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let service = service.clone();
            let cases = &cases;
            let tenants = &tenants;
            let baseline = &baseline;
            scope.spawn(move || {
                for _ in 0..2 {
                    let sessions: Vec<_> = tenants
                        .iter()
                        .map(|&t| service.open_session(t).unwrap())
                        .collect();
                    for ((case, &session), expected) in cases.iter().zip(&sessions).zip(baseline) {
                        let reply = service.submit(session, &case.program).unwrap();
                        assert_eq!(
                            &reply.results, expected,
                            "seed {}: concurrent result diverged from sequential",
                            case.seed
                        );
                    }
                    for session in sessions {
                        service.close_session(session).unwrap();
                    }
                }
            });
        }
    });

    let counters = service.counters();
    // Every optimization after the baseline round is cache-served.
    assert_eq!(counters.cache_misses, cases.len() as u64);
    assert_eq!(
        counters.cache_hits + counters.coalesced,
        (cases.len() * 4 * 2) as u64
    );
    service.shutdown();
}

#[test]
fn concurrent_same_program_coalesces_into_one_search() {
    // Retry with fresh services: whether waiters land on the in-flight
    // window (coalesced) or arrive after completion (hit) is a race; the
    // invariant that always holds is ONE search. The coalesce observation
    // itself just needs enough attempts (the loop stops at the first; on
    // a loaded 2-core host five were too few about one run in thirty —
    // `plan_cache`'s unit tests pin coalescing by construction).
    const SESSIONS: usize = 8;
    let mut saw_coalesce = false;
    for attempt in 0..64 {
        // Seed 0 is read-only with a multi-millisecond search (33
        // statements): a wide single-flight window. Tiny rows keep the
        // execution after the search cheap.
        let case = GenCase::from_seed(0, &GenConfig::default()).with_row_scale(0.2);
        let fx = case.fixture();
        // Coalescing requires concurrent *admitted* requests: pin the
        // worker pool to the session count (the default is the machine's
        // parallelism, which on a small CI box can serialize admission).
        let service = CobraService::new(ServerConfig {
            max_concurrent: SESSIONS,
            ..ServerConfig::default()
        });
        let tenant = service.register_tenant(tenant_for("acme", &fx, false));
        let barrier = Arc::new(Barrier::new(SESSIONS));
        let coalesced = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            for _ in 0..SESSIONS {
                let service = service.clone();
                let program = &case.program;
                let barrier = barrier.clone();
                let coalesced = coalesced.clone();
                scope.spawn(move || {
                    let session = service.open_session(tenant).unwrap();
                    barrier.wait();
                    let reply = service.submit(session, program).unwrap();
                    if reply.cache == CacheOutcome::Coalesced {
                        coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        let counters = service.counters();
        assert_eq!(
            counters.cache_misses, 1,
            "attempt {attempt}: one search no matter how many sessions race"
        );
        assert_eq!(
            counters.cache_hits + counters.coalesced,
            (SESSIONS - 1) as u64
        );
        assert_eq!(counters.coalesced, coalesced.load(Ordering::Relaxed));
        service.shutdown();
        if counters.coalesced >= 1 {
            saw_coalesce = true;
            break;
        }
    }
    assert!(
        saw_coalesce,
        "no attempt observed single-flight coalescing (only post-completion hits)"
    );
}

#[test]
fn tenants_are_isolated_even_with_identical_data() {
    let case = GenCase::from_seed(5, &GenConfig::default());
    let fx_a = case.fixture();
    let fx_b = fx_a.fork_db(); // identical bytes, fresh instance id

    let service = CobraService::new(ServerConfig::default());
    let tenant_a = service.register_tenant(tenant_for("alpha", &fx_a, true));
    let tenant_b = service.register_tenant(tenant_for("beta", &fx_b, true));

    let session_a = service.open_session(tenant_a).unwrap();
    let reply_a = service.submit(session_a, &case.program).unwrap();
    assert_eq!(reply_a.cache, CacheOutcome::Miss);

    // Same program, same data — but a different tenant must NOT see
    // alpha's cached plan.
    let session_b = service.open_session(tenant_b).unwrap();
    let reply_b = service.submit(session_b, &case.program).unwrap();
    assert_eq!(reply_b.cache, CacheOutcome::Miss, "no cross-tenant hit");
    assert_eq!(reply_a.fingerprint, reply_b.fingerprint, "same program...");
    assert_ne!(reply_a.stamp, reply_b.stamp, "...different cache identity");
    assert_eq!(reply_a.results, reply_b.results, "same data, same answers");

    let counters = service.counters();
    assert_eq!((counters.cache_hits, counters.cache_misses), (0, 2));

    // Feedback is per-tenant too: each store saw only its own run.
    let fb_a = service.tenant_feedback(tenant_a).unwrap();
    let fb_b = service.tenant_feedback(tenant_b).unwrap();
    let gen_a_before = fb_a.generation();
    service.submit(session_b, &case.program).unwrap();
    assert_eq!(
        fb_a.generation(),
        gen_a_before,
        "beta's executions must not touch alpha's feedback store"
    );
    assert!(fb_b.generation() >= gen_a_before.min(1));
    service.shutdown();
}

#[test]
fn warm_cache_submissions_are_at_least_10x_faster_than_cold() {
    // Seed 0: heavy search, and tiny rows (cheap execution) so the
    // measured gap is the optimization the warm path skips.
    let case = GenCase::from_seed(0, &GenConfig::default()).with_row_scale(0.2);
    let service = CobraService::new(ServerConfig::default());

    // Cold: three fresh tenants (fresh instance id ⇒ cold key); take the
    // minimum to shed scheduler noise.
    let fx = case.fixture();
    let mut cold_ns = u64::MAX;
    for i in 0..3 {
        let fx_cold = fx.fork_db();
        let tenant = service.register_tenant(tenant_for(&format!("cold{i}"), &fx_cold, false));
        let session = service.open_session(tenant).unwrap();
        let reply = service.submit(session, &case.program).unwrap();
        assert_eq!(reply.cache, CacheOutcome::Miss);
        cold_ns = cold_ns.min(reply.wall_ns);
    }

    // Warm: one tenant, one priming miss, then repeated hits.
    let tenant = service.register_tenant(tenant_for("warm", &fx, false));
    let session = service.open_session(tenant).unwrap();
    let first = service.submit(session, &case.program).unwrap();
    assert_eq!(first.cache, CacheOutcome::Miss);
    let mut warm_ns = u64::MAX;
    for _ in 0..10 {
        let reply = service.submit(session, &case.program).unwrap();
        assert_eq!(reply.cache, CacheOutcome::Hit);
        warm_ns = warm_ns.min(reply.wall_ns);
    }

    assert!(
        cold_ns >= warm_ns.saturating_mul(10),
        "warm ({warm_ns} ns) must be ≥10x faster than cold ({cold_ns} ns)"
    );
    service.shutdown();
}

#[test]
fn overload_is_shed_with_a_typed_error() {
    // One worker, zero queue: a submission arriving while the worker is
    // busy must shed. Seed 0's multi-millisecond search keeps the worker
    // occupied long enough to observe it deterministically.
    let case = GenCase::from_seed(0, &GenConfig::default()).with_row_scale(0.2);
    let fx = case.fixture();
    let service = CobraService::new(ServerConfig {
        max_concurrent: 1,
        max_queue: 0,
        ..ServerConfig::default()
    });
    let tenant = service.register_tenant(tenant_for("acme", &fx, false));

    let mut shed = None;
    for attempt in 0..50i64 {
        // A fresh program variant each attempt: its cold search keeps the
        // background worker busy for milliseconds (a cached hit wouldn't).
        let program = variant(&case.program, attempt);
        let admitted_before = service.counters().admitted;
        std::thread::scope(|scope| {
            let service_bg = service.clone();
            let program_bg = &program;
            scope.spawn(move || {
                let session = service_bg.open_session(tenant).unwrap();
                let _ = service_bg.submit(session, program_bg);
            });
            // Wait until the background submission holds the worker slot
            // (admission counts before the search starts)...
            while service.counters().admitted == admitted_before {
                std::thread::yield_now();
            }
            // ...then submit against the saturated pool.
            let session = service.open_session(tenant).unwrap();
            for _ in 0..5 {
                if let Err(e @ ServerError::Overloaded { .. }) = service.submit(session, &program) {
                    shed = Some(e);
                    break;
                }
            }
        });
        if shed.is_some() {
            break;
        }
    }
    assert!(
        matches!(
            shed,
            Some(ServerError::Overloaded {
                running: 1,
                queued: 0
            })
        ),
        "a saturated one-worker/zero-queue server must shed load, got {shed:?}"
    );
    assert!(service.counters().rejected >= 1);
    service.shutdown();
}

/// `program` with an extra unused `let` prepended to the entry — same
/// observable behavior, different structural fingerprint (its own plan
/// cache key).
fn variant(program: &Program, i: i64) -> Program {
    let mut entry = program.entry().clone();
    entry.body.insert(
        0,
        Stmt::new(StmtKind::Let(format!("pad_{i}"), Expr::lit(i))),
    );
    program.with_entry(entry)
}

#[test]
fn queue_pressure_degrades_the_budget_and_skips_retention() {
    // One worker, a queue of one, degrade at depth 1. The occupant holds
    // the worker on a latch. Of the two submissions sent in behind it, the
    // first to arrive finds the queue empty and parks at depth 1 — so it
    // will be served degraded — and the other finds the queue full and is
    // shed. That rejection is the hand-off: it can only have happened with
    // the first one parked, and only then is the latch opened.
    let case = GenCase::from_seed(0, &GenConfig::default()).with_row_scale(0.2);
    let fx = case.fixture();
    let latch = Arc::new(Latch::default());
    let service = CobraService::new(ServerConfig {
        max_concurrent: 1,
        max_queue: 1,
        degrade_queue_depth: 1,
        ..ServerConfig::default()
    });
    let funcs = latch.funcs(&fx.funcs);
    let spec = TenantSpec::new("acme", fx.db.clone(), fx.mapping.clone(), funcs);
    let tenant = service.register_tenant(spec.feedback(false));
    // Distinct programs: no coalescing, so the queued one is a Miss whose
    // `degraded` flag says which budget searched it.
    let variants: Vec<Program> = (0..2).map(|i| variant(&case.program, i)).collect();

    let outcomes: Vec<Result<SubmitReply, ServerError>> = std::thread::scope(|scope| {
        let occupant = scope.spawn(|| {
            let session = service.open_session(tenant).unwrap();
            service.submit(session, &latch::holding_program())
        });
        latch.wait_entered();
        let storm: Vec<_> = variants
            .iter()
            .map(|program| {
                let service = &service;
                scope.spawn(move || {
                    let session = service.open_session(tenant).unwrap();
                    service.submit(session, program)
                })
            })
            .collect();
        while service.counters().rejected == 0 {
            std::thread::yield_now();
        }
        latch.open();
        let occupant = occupant.join().unwrap().expect("the occupant is served");
        assert!(!occupant.degraded, "it found the server idle");
        storm.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let queued = outcomes.iter().position(|o| o.is_ok()).expect("one queued");
    let reply = outcomes[queued].as_ref().unwrap();
    assert_eq!((reply.cache, reply.degraded), (CacheOutcome::Miss, true));
    assert!(
        matches!(
            outcomes[1 - queued],
            Err(ServerError::Overloaded {
                running: 1,
                queued: 1
            })
        ),
        "{:?}",
        outcomes[1 - queued]
    );

    // Uncontended now. The degraded search was not retained: the same
    // program misses again, is searched under the full budget, and *that*
    // result is kept. The shed program was never searched at all.
    let session = service.open_session(tenant).unwrap();
    for expected in [CacheOutcome::Miss, CacheOutcome::Hit] {
        let again = service.submit(session, &variants[queued]).unwrap();
        assert_eq!((again.cache, again.degraded), (expected, false));
        assert_eq!(again.results, reply.results, "either budget, one answer");
    }
    let shed = service.submit(session, &variants[1 - queued]).unwrap();
    assert_eq!((shed.cache, shed.degraded), (CacheOutcome::Miss, false));
    let counters = service.counters();
    assert_eq!((counters.degraded, counters.rejected), (1, 1));
    service.shutdown();
}

/// A writer that panics holding one tenant's database lock poisons it, and
/// the drift check reads that lock. The sweep must treat that tenant as
/// "no verdict" and go on to the next one; the sweeper thread used to die
/// there, and with it drift sweeps for every tenant.
#[test]
fn a_poisoned_tenant_does_not_end_the_drift_sweep() {
    use cobra::minidb::{self, Column, DataType, Schema, Value};
    use imperative::ast::{Expr, Function, QuerySpec};
    use std::time::{Duration, Instant};

    // `orders(o_id, o_priority)`, a tenth of them priority 3.
    let fixture = || {
        let int = |name| Column::new(name, DataType::Int);
        let mut db = Database::new();
        let orders = Schema::new(vec![int("o_id"), int("o_priority")]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        t.insert_many((0..1000i64).map(|i| vec![Value::Int(i), Value::Int(i % 10)]))
            .unwrap();
        db.analyze_all();
        Fixture {
            db: minidb::shared(db),
            mapping: MappingRegistry::new(),
            funcs: Arc::new(FuncRegistry::with_builtins()),
        }
    };
    let urgent = QuerySpec::sql("select * from orders where o_priority = 3");
    let program = Program::single(Function::new(
        "urgent",
        vec!["result".to_string()],
        vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::Query(urgent),
                body: vec![Stmt::new(StmtKind::Add(
                    "result".into(),
                    Expr::field(Expr::var("o"), "o_id"),
                ))],
            }),
        ],
    ));

    let service = CobraService::new(ServerConfig {
        drift_threshold: 2.0,
        ..ServerConfig::default()
    });
    // Both tenants execute once, so both hold observations to check.
    let (healthy, poisoned) = (fixture(), fixture());
    let observe = |name: &str, fx: &Fixture| {
        let tenant = service.register_tenant(tenant_for(name, fx, true));
        let session = service.open_session(tenant).unwrap();
        service.submit(session, &program).unwrap();
        session
    };
    let session = observe("healthy", &healthy);
    observe("poisoned", &poisoned);

    let db = poisoned.db.clone();
    let writer = std::thread::spawn(move || {
        let _guard = db.write().unwrap();
        panic!("a writer dies holding the tenant's database lock");
    });
    assert!(writer.join().is_err());
    assert!(poisoned.db.read().is_err(), "the lock is poisoned");

    // The healthy tenant's data shifts under stale statistics (nearly
    // every order becomes priority 3) and its next execution observes it:
    // drift far past the threshold, so a sweep that reaches it swaps.
    {
        let mut db = healthy.db.write().unwrap();
        let t = db.table_mut("orders").unwrap();
        for i in (0..1000i64).filter(|i| i % 11 != 0) {
            t.update_where_eq(0, &Value::Int(i), 1, Value::Int(3));
        }
    }
    service.submit(session, &program).unwrap();

    service.sweep_now();
    // The background sweeper polls too and may have got to either tenant
    // first; a swap it began finishes on its own.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.counters().plans_swapped == 0 {
        assert!(Instant::now() < deadline, "the healthy tenant was skipped");
        std::thread::yield_now();
    }
    let counters = service.counters();
    assert!(counters.internal_errors >= 1, "{counters}");
    service.shutdown();
}

/// What a reply says beside how long it took: how the cache satisfied it
/// and what executing the chosen program did.
fn said(reply: &SubmitReply) -> (CacheOutcome, u64, u64, cobra::interp::NormalizedOutcome) {
    (
        reply.cache,
        reply.round_trips,
        reply.simulated_ns,
        reply.results.clone(),
    )
}

/// `round_trips` and `simulated_ns` of the eight read-only tenants' chosen
/// programs (the virtual clock: a function of the plan and the data only).
const PINNED_RUNS: [(u64, u64); 8] = [
    (16, 4064847040),
    (2, 545764200),
    (40, 10038872650),
    (2, 529806670),
    (20, 5049722820),
    (1, 259729140),
    (4, 1046950540),
    (1, 250141350),
];

/// One program reaches one plan whichever way it arrives: over the wire,
/// in process, and over the wire again after `snapshot` → a fresh service
/// → `restore`. Every reply carries the program's own fingerprint, the
/// as-written program's observables and the same execution; only the
/// first submission searches, and only it has its program decoded.
#[test]
fn wire_in_process_and_restored_submissions_reach_the_same_plan() {
    use cobra::server::program_fingerprint;

    let cases = read_only_cases(8);
    let fixtures: Vec<Fixture> = cases.iter().map(|c| c.fixture()).collect();
    let serve = || {
        let service = CobraService::new(ServerConfig::default());
        for (i, fx) in fixtures.iter().enumerate() {
            service.register_tenant(tenant_for(&format!("t{i}"), fx, false));
        }
        WireServer::spawn(service, "127.0.0.1:0").expect("bind")
    };

    let server = serve();
    let service = server.service().clone();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let mut first_life = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let program = &case.program;
        let as_written = run_on(
            &fixtures[i].fork_db(),
            NetworkProfile::slow_remote(),
            program,
        )
        .expect("runs as written");
        let params: Vec<&str> = program.entry().params.iter().map(|p| p.as_str()).collect();
        let reference = as_written.outcome.normalized_with_vars(&params);

        let wire_session = client.open_session(&format!("t{i}")).unwrap();
        let local_session = service
            .open_session(service.tenant_id(&format!("t{i}")).unwrap())
            .unwrap();
        let cold = client.submit(wire_session, program).unwrap();
        let warm = client.submit(wire_session, program).unwrap();
        let local = service.submit(local_session, program).unwrap();

        let (_, round_trips, simulated_ns, results) = said(&cold);
        assert_eq!(results, reference, "seed {}", case.seed);
        assert_eq!(
            (round_trips, simulated_ns),
            PINNED_RUNS[i],
            "seed {}",
            case.seed
        );
        let hit = (CacheOutcome::Hit, round_trips, simulated_ns, results);
        assert_eq!(cold.cache, CacheOutcome::Miss, "seed {}", case.seed);
        assert_eq!(said(&warm), hit, "seed {}: second wire", case.seed);
        assert_eq!(said(&local), hit, "seed {}: in process", case.seed);
        for reply in [&cold, &warm, &local] {
            assert_eq!(reply.fingerprint, program_fingerprint(program));
        }
        first_life.push(hit);
    }
    let counters = service.counters();
    assert_eq!((counters.cache_misses, counters.cache_hits), (8, 16));
    // Of sixteen wire submissions only the eight that missed were decoded.
    assert_eq!(counters.programs_decoded, 8);
    let snapshot = service.snapshot();
    server.shutdown();

    // Second life: the same databases behind a fresh service.
    let server = serve();
    let service = server.service().clone();
    let report = service.restore(&snapshot);
    assert_eq!(report.plans_restored, 8, "{report}");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    for (i, case) in cases.iter().enumerate() {
        let session = client.open_session(&format!("t{i}")).unwrap();
        let restored = client.submit(session, &case.program).unwrap();
        assert_eq!(said(&restored), first_life[i], "seed {}", case.seed);
        assert_eq!(restored.fingerprint, program_fingerprint(&case.program));
    }
    let counters = service.counters();
    assert_eq!((counters.cache_misses, counters.cache_hits), (0, 8));
    assert_eq!(
        counters.programs_decoded, 0,
        "a restored entry is found by bytes"
    );
    server.shutdown();
}

/// Identity is the encoding, and the encoding carries `Stmt::line`: the
/// same statements under other line numbers are another program to the
/// cache (the structural fingerprint it keyed on before ignored lines).
/// Each entry is correct; they are merely two.
#[test]
fn programs_that_differ_only_in_line_numbers_are_two_entries() {
    let case = &read_only_cases(1)[0];
    let mut renumbered = case.program.clone();
    renumbered.functions[0].body[0].line += 1000;
    assert_eq!(renumbered, case.program, "`Stmt: PartialEq` ignores lines");

    let service = CobraService::new(ServerConfig::default());
    let tenant = service.register_tenant(tenant_for("acme", &case.fixture(), false));
    let session = service.open_session(tenant).unwrap();
    let first = service.submit(session, &case.program).unwrap();
    let second = service.submit(session, &renumbered).unwrap();
    assert_eq!(
        (first.cache, second.cache),
        (CacheOutcome::Miss, CacheOutcome::Miss)
    );
    assert_ne!(first.fingerprint, second.fingerprint);
    assert_eq!(first.results, second.results);
    assert_eq!(service.cache_len(), 2);
    for program in [&case.program, &renumbered] {
        let again = service.submit(session, program).unwrap();
        assert_eq!(again.cache, CacheOutcome::Hit);
    }
    service.shutdown();
}

/// One frame body, byte for byte, submitted to two tenants: the stamp
/// keeps them two entries, and each tenant is only ever served the plan
/// searched against its own data.
#[test]
fn the_same_bytes_under_two_tenants_are_two_entries() {
    let case = GenCase::from_seed(5, &GenConfig::default());
    // Same schema, other rows: the tenants' answers tell them apart.
    let fixtures = [case.fixture(), case.schema.build_fixture(77, 1.0)];
    let service = CobraService::new(ServerConfig::default());
    for (name, fx) in ["alpha", "beta"].iter().zip(&fixtures) {
        service.register_tenant(tenant_for(name, fx, false));
    }
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let sessions = ["alpha", "beta"].map(|name| client.open_session(name).unwrap());

    let mut own = Vec::new();
    for (session, fx) in sessions.iter().zip(&fixtures) {
        let as_written = run_on(&fx.fork_db(), NetworkProfile::slow_remote(), &case.program)
            .expect("runs as written");
        own.push(as_written.outcome.normalized_with_vars(&["result"]));
        let cold = client.submit(*session, &case.program).unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss, "no cross-tenant hit");
    }
    assert_ne!(own[0], own[1], "other rows, other answers");
    assert_eq!(server.service().cache_len(), 2);
    for _ in 0..3 {
        for (session, own) in sessions.iter().zip(&own) {
            let warm = client.submit(*session, &case.program).unwrap();
            assert_eq!(warm.cache, CacheOutcome::Hit);
            assert_eq!(&warm.results, own);
        }
    }
    let counters = server.service().counters();
    assert_eq!((counters.cache_misses, counters.cache_hits), (2, 6));
    server.shutdown();
}

/// A hit executes the program its entry holds, so a sweeper swap has to
/// put the *re-optimized* program there — and the entries it retires must
/// take theirs with them. Here the re-search abandons a one-round-trip
/// join for a two-round-trip prefetch, which the next hit's execution
/// shows.
#[test]
fn a_swapped_plan_runs_its_own_program_and_the_stale_ones_are_gone() {
    use cobra::minidb::{self, Column, DataType, Schema, Value};
    use imperative::ast::QuerySpec;
    use std::time::{Duration, Instant};

    // `orders(o_id, o_customer_sk, o_priority)` → `customer`, a tenth of
    // the orders priority 3.
    let int = |name| Column::new(name, DataType::Int);
    let mut db = Database::new();
    let orders = Schema::new(vec![int("o_id"), int("o_customer_sk"), int("o_priority")]);
    let t = db.create_table("orders", orders).unwrap();
    t.set_primary_key("o_id").unwrap();
    t.insert_many((0..1000i64).map(|i| [i, i % 50, i % 10].map(Value::Int).to_vec()))
        .unwrap();
    let customer = Schema::new(vec![int("c_customer_sk"), int("c_birth_year")]);
    let t = db.create_table("customer", customer).unwrap();
    t.set_primary_key("c_customer_sk").unwrap();
    t.insert_many((0..50i64).map(|i| [i, 1950 + i].map(Value::Int).to_vec()))
        .unwrap();
    db.analyze_all();
    let mut mapping = MappingRegistry::new();
    mapping.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
        "customer",
        "Customer",
        "o_customer_sk",
    ));
    mapping.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
    let fx = Fixture {
        db: minidb::shared(db),
        mapping,
        funcs: Arc::new(FuncRegistry::with_builtins()),
    };
    let urgent = QuerySpec::sql("select * from orders where o_priority = 3");
    let born = Expr::field(Expr::nav(Expr::var("o"), "customer"), "c_birth_year");
    let program = Program::single(Function::new(
        "urgent",
        vec!["result".to_string()],
        vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            Stmt::new(StmtKind::ForEach {
                var: "o".into(),
                iter: Expr::Query(urgent),
                body: vec![Stmt::new(StmtKind::Add("result".into(), born))],
            }),
        ],
    ));

    let service = CobraService::new(ServerConfig {
        drift_threshold: 2.0,
        ..ServerConfig::default()
    });
    let tenant = service.register_tenant(tenant_for("orders", &fx, true));
    let session = service.open_session(tenant).unwrap();
    let cold = service.submit(session, &program).unwrap();
    assert_eq!(cold.tags, ["sql-join"]);

    // Nearly every order becomes priority 3. The write moves the stamp, so
    // the next submission searches again — on stale statistics, hence the
    // same join — and its execution records what is really there.
    {
        let mut db = fx.db.write().unwrap();
        let t = db.table_mut("orders").unwrap();
        for i in (0..1000i64).filter(|i| i % 11 != 0) {
            t.update_where_eq(0, &Value::Int(i), 2, Value::Int(3));
        }
    }
    let shifted = service.submit(session, &program).unwrap();
    assert_eq!(shifted.cache, CacheOutcome::Miss);
    assert_eq!((&shifted.tags, shifted.round_trips), (&cold.tags, 1));
    assert_eq!(service.cache_len(), 2, "one entry per stamp so far");

    // The background sweeper polls too; whichever of us gets there, the
    // sweep ends with both stale entries evicted.
    service.sweep_now();
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.counters().evicted < 2 {
        assert!(
            Instant::now() < deadline,
            "no sweep retired the stale plans"
        );
        std::thread::yield_now();
    }
    assert_eq!(service.cache_len(), 1, "only the swapped entry is left");

    let post = service.submit(session, &program).unwrap();
    assert_eq!(post.cache, CacheOutcome::Hit);
    assert_eq!(post.stamp.stats_epoch, shifted.stamp.stats_epoch + 1);
    assert_eq!(post.tags, ["prefetch"]);
    assert_eq!(
        post.round_trips, 2,
        "the prefetching program ran, not the join"
    );
    assert_eq!(
        post.results, shifted.results,
        "a swap never changes answers"
    );
    service.shutdown();
}
