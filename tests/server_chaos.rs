//! Chaos harness for Cobra-as-a-service: seeded fault-injection fuzzing
//! over the wire, panic isolation and health-machine behavior in
//! process, and crash-safe snapshot/restore of the plan cache.
//!
//! The fuzz contract, per seed: a server under
//! [`FaultPlan::chaos`](cobra::server::FaultPlan::chaos) injecting
//! connection resets, partial writes, stalls, slow replies, corrupted
//! frames, and worker panics must turn every fault into *either* a
//! retried success *or* a typed [`ServerError`] — never a hang, a lost
//! session, or a wrong answer. Results obtained under chaos are
//! bit-identical to a fault-free run of the same programs.
//!
//! Seed count defaults to 200 (split across four test functions so the
//! harness parallelizes) and can be overridden with `CHAOS_SEEDS=n`.

use cobra::prelude::*;
use cobra::server::{
    CacheOutcome, FaultConfig, FaultPlan, Health, RetryPolicy, ServerError, Snapshot,
};
use imperative::ast::{Stmt, StmtKind};
use interp::NormalizedOutcome;
use std::sync::Once;
use std::time::Duration;

/// Silence the panic hook for *injected* worker panics (they are part of
/// the test plan, not noise worth 200 stack traces); everything else —
/// including assertion failures — still prints through the default hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// True if the program performs a database write (writes advance the
/// stats epoch and invalidate cached plans — determinism is undefined).
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

fn tenant_for(name: &str, fx: &Fixture) -> TenantSpec {
    // Feedback off: chaos replays submissions in fault-dependent order,
    // and bit-identical results are the property under test.
    TenantSpec::new(name, fx.db.clone(), fx.mapping.clone(), fx.funcs.clone()).feedback(false)
}

fn total_seeds() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Fault-free reference results for `cases` (computed in process; the
/// wire carries programs fingerprint-identically, so the transport
/// cannot change answers).
fn baseline(cases: &[GenCase]) -> Vec<NormalizedOutcome> {
    let service = CobraService::new(ServerConfig::default());
    let mut out = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let fx = case.fixture();
        let tenant = service.register_tenant(tenant_for(&format!("t{i}"), &fx));
        let session = service.open_session(tenant).unwrap();
        out.push(service.submit(session, &case.program).unwrap().results);
    }
    service.shutdown();
    out
}

/// One chaos run: a server injecting faults from `seed`, a retrying
/// client, every submission driven to success (or a typed error and
/// re-driven), answers checked against the fault-free baseline.
fn chaos_run(seed: u64, cases: &[GenCase], expected: &[NormalizedOutcome]) {
    let service = CobraService::new(ServerConfig {
        faults: FaultPlan::chaos(seed),
        ..ServerConfig::default()
    });
    let mut tenants = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let fx = case.fixture();
        tenants.push(service.register_tenant(tenant_for(&format!("t{i}"), &fx)));
    }
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        request_timeout: Duration::from_secs(2),
        seed,
    };
    let mut client = WireClient::connect_with(server.local_addr(), policy).expect("connect");

    for (i, case) in cases.iter().enumerate() {
        let session = client.open_session(&format!("t{i}")).expect("open session");
        // Cold, then warm submissions; every one must end in a success
        // whose results match the fault-free run. A submission may
        // exhaust its retry budget under a dense fault schedule — that
        // must surface as a *typed transient* error, and re-driving it
        // must eventually succeed (the schedule advances per attempt).
        for round in 0..4 {
            let mut reply = None;
            for _ in 0..5 {
                match client.submit(session, &case.program) {
                    Ok(r) => {
                        reply = Some(r);
                        break;
                    }
                    Err(
                        ServerError::Io(_)
                        | ServerError::Protocol(_)
                        | ServerError::Internal(_)
                        | ServerError::Overloaded { .. },
                    ) => continue, // typed + transient: allowed, re-drive
                    Err(other) => panic!("seed {seed} case {i} round {round}: {other}"),
                }
            }
            let reply = reply
                .unwrap_or_else(|| panic!("seed {seed} case {i} round {round}: never succeeded"));
            assert_eq!(
                reply.results, expected[i],
                "seed {seed} case {i} round {round}: chaos changed an answer"
            );
        }
        client.close_session(session).expect("close session");
    }
    // The session layer survived: counters are reachable and coherent.
    let counters = client.counters().expect("counters after chaos");
    assert!(counters.executions >= cases.len() as u64);
    server.shutdown();
}

fn chaos_quarter(quarter: u64) {
    quiet_injected_panics();
    let total = total_seeds();
    let per = total.div_ceil(4);
    let cases = read_only_cases(2);
    let expected = baseline(&cases);
    for seed in (quarter * per)..((quarter + 1) * per).min(total) {
        chaos_run(seed, &cases, &expected);
    }
}

#[test]
fn chaos_fuzz_first_quarter() {
    chaos_quarter(0);
}

#[test]
fn chaos_fuzz_second_quarter() {
    chaos_quarter(1);
}

#[test]
fn chaos_fuzz_third_quarter() {
    chaos_quarter(2);
}

#[test]
fn chaos_fuzz_fourth_quarter() {
    chaos_quarter(3);
}

#[test]
fn stalled_server_hits_the_client_deadline_with_a_typed_error() {
    // Every response stalls longer than the client deadline: each attempt
    // times out, the bounded retry budget drains, and the caller gets a
    // typed I/O error — promptly, not a hang.
    let service = CobraService::new(ServerConfig {
        faults: FaultPlan::from_config(FaultConfig {
            seed: 1,
            stall_permille: 1000,
            stall: Duration::from_millis(400),
            ..FaultConfig::off()
        }),
        ..ServerConfig::default()
    });
    let cases = read_only_cases(1);
    let fx = cases[0].fixture();
    service.register_tenant(tenant_for("t0", &fx));
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        request_timeout: Duration::from_millis(50),
        seed: 9,
    };
    let mut client = WireClient::connect_with(server.local_addr(), policy).expect("connect");
    let start = std::time::Instant::now();
    let err = client.open_session("t0").expect_err("every reply stalls");
    assert!(matches!(err, ServerError::Io(_)), "typed: {err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline bounded the wait"
    );
    assert_eq!(client.retries(), 1, "one retry then give up at 2 attempts");
    server.shutdown();
}

#[test]
fn idempotent_retry_replays_the_recorded_reply() {
    quiet_injected_panics();
    let cases = read_only_cases(1);
    let fx = cases[0].fixture();
    let service = CobraService::new(ServerConfig::default());
    let tenant = service.register_tenant(tenant_for("t0", &fx));
    let session = service.open_session(tenant).unwrap();

    let first = service
        .submit_idempotent(session, &cases[0].program, 77)
        .unwrap();
    let replay = service
        .submit_idempotent(session, &cases[0].program, 77)
        .unwrap();
    // The replay is the *stored* reply — same cache outcome (a real
    // re-submission would report Hit, not Miss), no second execution.
    assert_eq!(replay.cache, first.cache);
    assert_eq!(replay.results, first.results);
    assert_eq!(service.counters().idempotent_replays, 1);
    assert_eq!(service.counters().executions, 1, "executed exactly once");

    // A different key executes normally (and hits the warm cache).
    let fresh = service
        .submit_idempotent(session, &cases[0].program, 78)
        .unwrap();
    assert_eq!(fresh.cache, CacheOutcome::Hit);
    assert_eq!(service.counters().executions, 2);
    service.shutdown();
}

#[test]
fn worker_panics_degrade_the_server_then_recovery_follows() {
    quiet_injected_panics();
    // Panic on (almost) every optimizer search. Submissions fail with
    // typed Internal errors, the health machine degrades after the
    // configured streak, and — because a panicking worker never poisons
    // a lock or wedges a queue — the first searches that squeak through
    // warm the cache, subsequent submissions are clean hits, and the
    // server recovers to Healthy.
    let cases = read_only_cases(1);
    let fx = cases[0].fixture();
    let service = CobraService::new(ServerConfig {
        faults: FaultPlan::from_config(FaultConfig {
            seed: 0xDEAD,
            panic_permille: 600,
            ..FaultConfig::off()
        }),
        degrade_after_faults: 2,
        recover_after_ok: 3,
        ..ServerConfig::default()
    });
    let tenant = service.register_tenant(tenant_for("t0", &fx));
    let session = service.open_session(tenant).unwrap();

    let mut internal_errors = 0u64;
    let mut saw_degraded = false;
    let mut successes = 0u64;
    for _ in 0..200 {
        match service.submit(session, &cases[0].program) {
            Ok(_) => successes += 1,
            Err(ServerError::Internal(msg)) => {
                internal_errors += 1;
                assert!(msg.contains("injected"), "panic payload surfaced: {msg}");
            }
            Err(other) => panic!("only Internal errors expected, got {other}"),
        }
        if service.health() == Health::Degraded {
            saw_degraded = true;
        }
        if saw_degraded && successes >= 3 && service.health() == Health::Healthy {
            break;
        }
    }
    assert!(internal_errors >= 2, "panics surfaced as typed errors");
    assert!(saw_degraded, "sustained faults degraded the server");
    assert_eq!(
        service.health(),
        Health::Healthy,
        "clean hits recovered the health machine"
    );
    // Nothing is poisoned or wedged: the full surface still works.
    assert!(service.counters().internal_errors >= 2);
    assert!(service.session_report(session).is_ok());
    service.shutdown();
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn snapshot_restart_restore_serves_warm_hits() {
    let cases = read_only_cases(2);
    let path = temp_path("restart.cbsn");

    // First life: warm the cache (feedback on — observations are part of
    // the snapshot), persist, shut down. The database outlives the
    // service, as it would for any embedded or networked store.
    let mut fixtures = Vec::new();
    let service = CobraService::new(ServerConfig::default());
    let mut replies = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let fx = case.fixture();
        let tenant = service.register_tenant(TenantSpec::new(
            format!("t{i}"),
            fx.db.clone(),
            fx.mapping.clone(),
            fx.funcs.clone(),
        ));
        let session = service.open_session(tenant).unwrap();
        let reply = service.submit(session, &case.program).unwrap();
        assert_eq!(reply.cache, CacheOutcome::Miss);
        replies.push(reply);
        fixtures.push(fx);
    }
    service.snapshot_to(&path).expect("persist");
    service.shutdown();
    drop(service);

    // Second life: same databases, fresh process state. Restore, then
    // submit the same programs — warm hits, bit-identical results, no
    // optimizer search.
    let service = CobraService::new(ServerConfig::default());
    for (i, fx) in fixtures.iter().enumerate() {
        service.register_tenant(TenantSpec::new(
            format!("t{i}"),
            fx.db.clone(),
            fx.mapping.clone(),
            fx.funcs.clone(),
        ));
    }
    let report = service.restore_from(&path).expect("restore");
    assert_eq!(report.tenants_matched, 2);
    assert_eq!(report.plans_restored, 2, "{report}");
    assert_eq!(report.plans_skipped_stale, 0, "{report}");

    for (i, case) in cases.iter().enumerate() {
        let tenant = service.tenant_id(&format!("t{i}")).unwrap();
        let session = service.open_session(tenant).unwrap();
        let reply = service.submit(session, &case.program).unwrap();
        assert_eq!(reply.cache, CacheOutcome::Hit, "restored plan serves hits");
        assert_eq!(
            reply.results, replies[i].results,
            "bit-identical across restart"
        );
        assert_eq!(reply.fingerprint, replies[i].fingerprint);
    }
    assert_eq!(
        service.counters().cache_misses,
        0,
        "no re-search after restore"
    );
    assert!(service.counters().restored_plans >= 2);
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_or_stale_snapshots_are_rejected_and_the_server_starts_cold() {
    let cases = read_only_cases(1);
    let fx = cases[0].fixture();
    let path = temp_path("corrupt.cbsn");

    let service = CobraService::new(ServerConfig::default());
    let tenant = service.register_tenant(tenant_for("t0", &fx));
    let session = service.open_session(tenant).unwrap();
    service.submit(session, &cases[0].program).unwrap();
    service.snapshot_to(&path).expect("persist");
    service.shutdown();

    // Corrupt one payload byte; every damaged variant must be rejected
    // with the typed Snapshot error.
    let good = std::fs::read(&path).unwrap();
    let mut flipped = good.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    assert!(matches!(
        Snapshot::decode(&flipped),
        Err(ServerError::Snapshot(_))
    ));
    assert!(matches!(
        Snapshot::decode(&good[..good.len() / 2]),
        Err(ServerError::Snapshot(_))
    ));
    assert!(matches!(
        Snapshot::decode(b"not a snapshot at all"),
        Err(ServerError::Snapshot(_))
    ));

    // A fresh server pointed at the damaged file reports the error and
    // serves cold — never wedged.
    std::fs::write(&path, &flipped).unwrap();
    let service = CobraService::new(ServerConfig::default());
    let tenant = service.register_tenant(tenant_for("t0", &fx));
    let err = service.restore_from(&path).expect_err("corrupt file");
    assert!(matches!(err, ServerError::Snapshot(_)), "typed: {err}");
    let session = service.open_session(tenant).unwrap();
    let reply = service.submit(session, &cases[0].program).unwrap();
    assert_eq!(reply.cache, CacheOutcome::Miss, "cold start still serves");
    service.shutdown();

    // A *stale* snapshot (different database instance) restores cleanly
    // but skips everything — stamps gate resurrection.
    let service = CobraService::new(ServerConfig::default());
    let other = cases[0].fixture(); // fresh db => different instance id
    service.register_tenant(tenant_for("t0", &other));
    let report = service.restore(&Snapshot::decode(&good).unwrap());
    assert_eq!(report.plans_restored, 0);
    assert!(report.plans_skipped_stale >= 1, "{report}");
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn faults_off_is_behavior_identical_to_the_unfaulted_wire() {
    // The inert plan must not perturb the wire path: same outcomes, no
    // retries consumed, zero injected faults.
    let cases = read_only_cases(1);
    let fx = cases[0].fixture();
    let service = CobraService::new(ServerConfig::default());
    assert!(!service.config().faults.enabled());
    service.register_tenant(tenant_for("t0", &fx));
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let mut client =
        WireClient::connect_with(server.local_addr(), RetryPolicy::standard(3)).expect("connect");
    let session = client.open_session("t0").unwrap();
    let cold = client.submit(session, &cases[0].program).unwrap();
    let warm = client.submit(session, &cases[0].program).unwrap();
    assert_eq!(cold.cache, CacheOutcome::Miss);
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.results, cold.results);
    assert_eq!(client.retries(), 0, "nothing to retry");
    assert_eq!(server.service().config().faults.total_injected(), 0);
    server.shutdown();
}
