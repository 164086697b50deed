//! Workloads `serve_hit` and `serve_churn`: a `WireServer` on TCP
//! loopback and `min(2, nproc)` closed-loop `WireClient`s, no retries,
//! no fault injection. Eight read-only tenants with eight fingerprint
//! variants each make a pool of 64 primed plans.
//!
//! `serve_hit` submits only pool programs: `codec`, `net`, `admission`,
//! `plan_cache` hits and tiny-row execution do the work, the search none.
//! Op kinds are the tenants. `serve_churn` makes every 8th submission
//! of a client a never-seen fingerprint — a full search under the
//! service, its result retained — so the cache is filled beside being
//! read and grows all run long. Op kinds are tenant x {hit, miss}.
//!
//! Closed loop because callers are application sessions that wait for
//! their result, and because on 2 cores an open-loop generator would
//! compete with the server for the same CPUs.

use crate::harness::{self, Config, Phase, Report, Tally};
use crate::metrics::{self, Op};
use crate::stages;
use crate::trace::Tracer;
use cobra_server::admission::Admission;
use cobra_server::{
    program_fingerprint, CacheKey, CacheOutcome, CobraService, PlanCache, Request, Response,
    ServerConfig, SessionId, SubmitReply, TenantSpec, WireClient, WireServer,
};
use imperative::ast::{Expr, Program, Stmt, StmtKind};
use interp::NormalizedOutcome;
use netsim::rng::StdRng;
use netsim::NetworkProfile;
use std::sync::Arc;
use std::time::Instant;
use workloads::genprog::{GenCase, GenConfig};
use workloads::harness::{run_on, Fixture};

const TENANTS: usize = 8;
const VARIANTS: usize = 8;
/// In `serve_churn`, one submission in this many is a never-seen program.
/// With an eighth of the traffic missing, `op_p95_us` falls among the
/// misses and `ops_per_s` pays for them; hits and misses are told apart
/// as op kinds (tenant x {hit, miss}), each of which is printed and
/// enters `op_geomean_us`.
const CHURN_EVERY: u64 = 8;

#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    Hit,
    Churn,
}

pub struct Tenant {
    name: String,
    fixture: Fixture,
    program: Program,
    /// The program under `VARIANTS` distinct fingerprints.
    pool: Vec<Program>,
    /// What the **original** program computes under the interpreter on a
    /// private copy of the tenant's data: every reply must equal it.
    reference: NormalizedOutcome,
}

pub struct Served {
    server: WireServer,
    tenants: Vec<Tenant>,
}

/// `program` with an unused `let pad_<i> = i` in front: the same
/// observable behaviour under another plan-cache fingerprint.
fn variant(program: &Program, i: i64) -> Program {
    let mut entry = program.entry().clone();
    entry.body.insert(
        0,
        Stmt::new(StmtKind::Let(format!("pad_{i}"), Expr::lit(i))),
    );
    program.with_entry(entry)
}

/// Register the tenants, start the server and prime all 64 plans.
///
/// Tenants are the first eight read-only generated cases (a write would
/// advance the stats epoch and, rightly, empty the cache); `--seed` draws
/// their data. Feedback recording is off: with it the drift sweeper may
/// swap plans mid-run and a pool submission would then miss.
pub fn set_up(cfg: &Config) -> Served {
    let service = CobraService::new(ServerConfig::default());
    let gen_cfg = GenConfig::default();
    let mut tenants = Vec::with_capacity(TENANTS);
    for case_seed in 0.. {
        if tenants.len() == TENANTS {
            break;
        }
        let case = GenCase::from_seed(case_seed, &gen_cfg);
        if !cobra_core::transforms::updated_tables(&case.program).is_empty() {
            continue;
        }
        let fixture = case
            .schema
            .build_fixture(cfg.seed.wrapping_mul(1_000_003) ^ case_seed, 1.0);
        let name = format!("tenant{case_seed}");
        service.register_tenant(
            TenantSpec::new(
                name.clone(),
                fixture.db.clone(),
                fixture.mapping.clone(),
                fixture.funcs.clone(),
            )
            .feedback(false),
        );
        let run = run_on(
            &fixture.fork_db(),
            NetworkProfile::slow_remote(),
            &case.program,
        )
        .expect("tenant program runs");
        tenants.push(Tenant {
            name,
            reference: crate::rewrite_run::observe(&case.program, &run),
            pool: (0..VARIANTS as i64)
                .map(|i| variant(&case.program, i))
                .collect(),
            program: case.program,
            fixture,
        });
    }
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    for tenant in &tenants {
        let session = client.open_session(&tenant.name).expect("open session");
        for program in &tenant.pool {
            let reply = client.submit(session, program).expect("priming submission");
            assert_eq!(reply.cache, CacheOutcome::Miss, "pool plans start cold");
        }
        client.close_session(session).expect("close session");
    }
    Served { server, tenants }
}

/// The output check of one submission: the reply carries the reference
/// results, and the cache satisfied it the way the workload says it must
/// — a pool program hits, a never-seen one is searched.
pub fn check(
    reply: &SubmitReply,
    reference: &NormalizedOutcome,
    from_pool: bool,
) -> Result<(), String> {
    if reply.results != *reference {
        return Err(format!(
            "reply {} carries other results than the original program computes",
            reply.fingerprint
        ));
    }
    let cache_ok = match reply.cache {
        CacheOutcome::Hit => from_pool,
        CacheOutcome::Miss | CacheOutcome::Coalesced => !from_pool,
    };
    if !cache_ok {
        return Err(format!(
            "reply {} reports cache {} for a {} program",
            reply.fingerprint,
            reply.cache,
            if from_pool { "primed" } else { "never-seen" }
        ));
    }
    Ok(())
}

/// One client's traffic: which tenant and program comes next.
struct Traffic<'a> {
    tenants: &'a [Tenant],
    mix: Mix,
    /// Keeps never-seen programs of different clients and different
    /// drives of one server apart.
    lane: u64,
    rng: StdRng,
    sent: u64,
}

impl<'a> Traffic<'a> {
    fn new(served: &'a Served, mix: Mix, seed: u64, lane: u64) -> Traffic<'a> {
        Traffic {
            tenants: &served.tenants,
            mix,
            lane,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(lane)),
            sent: 0,
        }
    }

    /// The next submission: tenant index, program, and whether the
    /// program is one of the primed pool.
    fn next(&mut self) -> (usize, std::borrow::Cow<'a, Program>, bool) {
        let t = self.rng.gen_range(0..self.tenants.len());
        let v = self.rng.gen_range(0..VARIANTS);
        self.sent += 1;
        if self.mix == Mix::Churn && self.sent.is_multiple_of(CHURN_EVERY) {
            let unseen = (self.lane + 1) * 100_000_000 + self.sent;
            let program = variant(&self.tenants[t].program, unseen as i64);
            (t, std::borrow::Cow::Owned(program), false)
        } else {
            (
                t,
                std::borrow::Cow::Borrowed(&self.tenants[t].pool[v]),
                true,
            )
        }
    }

    fn kind(&self, tenant: usize, from_pool: bool) -> usize {
        match self.mix {
            Mix::Hit => tenant,
            Mix::Churn => tenant * 2 + !from_pool as usize,
        }
    }
}

fn kinds(served: &Served, mix: Mix) -> Vec<String> {
    match mix {
        Mix::Hit => served.tenants.iter().map(|t| t.name.clone()).collect(),
        Mix::Churn => served
            .tenants
            .iter()
            .flat_map(|t| [format!("{}.hit", t.name), format!("{}.miss", t.name)])
            .collect(),
    }
}

/// What one client thread brings back.
struct ClientResult {
    ops: Vec<Op>,
    tally: Tally,
    tracer: Option<Tracer>,
    seen: Seen,
}

/// What the traced pass keeps of the replies beside checking them.
#[derive(Default)]
struct Seen {
    /// `(from_pool, server-side wall ns)` of every reply.
    walls: Vec<(bool, u64)>,
    last_reply: Option<SubmitReply>,
}

/// Run the clients until the phase ends, under spans if there is a
/// tracer. `drive` numbers the drives of one server (see
/// [`Traffic::lane`]).
fn clients_run(
    served: &Served,
    mix: Mix,
    seed: u64,
    drive: u64,
    phase: &mut Phase,
    tally: &mut Tally,
    tr: Option<&mut Tracer>,
) -> Seen {
    let addr = served.server.local_addr();
    let (t0, deadline) = (phase.t0(), phase.deadline());
    let traced = tr.is_some();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let clients = harness::clients() as u64;
        let handles: Vec<_> = (drive * clients..(drive + 1) * clients)
            .map(|lane| {
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    let sessions: Vec<SessionId> = served
                        .tenants
                        .iter()
                        .map(|t| client.open_session(&t.name).expect("open session"))
                        .collect();
                    let mut traffic = Traffic::new(served, mix, seed, lane);
                    let mut out = ClientResult {
                        ops: Vec::new(),
                        tally: Tally::default(),
                        tracer: traced.then(|| Tracer::new(t0)),
                        seen: Seen::default(),
                    };
                    while Instant::now() < deadline {
                        let (t, program, from_pool) = traffic.next();
                        let kind = traffic.kind(t, from_pool);
                        let start = Instant::now();
                        let reply = match &mut out.tracer {
                            None => client.submit(sessions[t], &program),
                            Some(tr) => {
                                tr.begin_op(traffic.lane << 40 | traffic.sent);
                                tr.span("client.submit", |tr| {
                                    let reply = client.submit(sessions[t], &program);
                                    if let Ok(r) = &reply {
                                        tr.child_of_known_duration("server.service", r.wall_ns);
                                    }
                                    reply
                                })
                            }
                        };
                        let end = Instant::now();
                        out.ops.push(Op {
                            kind,
                            end_ns: (end - t0).as_nanos() as u64,
                            dur_ns: (end - start).as_nanos() as u64,
                        });
                        out.tally.record(match reply {
                            Ok(reply) => {
                                let verdict =
                                    check(&reply, &served.tenants[t].reference, from_pool);
                                if traced {
                                    out.seen.walls.push((from_pool, reply.wall_ns));
                                    out.seen.last_reply = Some(reply);
                                }
                                verdict
                            }
                            Err(e) => Err(format!("{}: {e}", served.tenants[t].name)),
                        });
                    }
                    for s in sessions {
                        let _ = client.close_session(s);
                    }
                    out
                })
            })
            .collect();
        // The clients run; this thread reads the CPU clock at every
        // slice boundary.
        while phase.next_mark_due() <= deadline {
            std::thread::sleep(
                phase
                    .next_mark_due()
                    .saturating_duration_since(Instant::now()),
            );
            phase.mark();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut seen = Seen::default();
    let mut tr = tr;
    for r in results {
        phase.ops.extend(r.ops);
        tally.absorb(r.tally);
        if let (Some(tr), Some(theirs)) = (tr.as_deref_mut(), r.tracer) {
            tr.absorb(theirs);
        }
        seen.walls.extend(r.seen.walls);
        seen.last_reply = r.seen.last_reply.or(seen.last_reply);
    }
    seen
}

/// Median wall time in us of `n` calls of `f`, each under a span.
fn probe<T>(tr: &mut Tracer, name: &'static str, n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    for i in 0..n {
        tr.span(name, |_| std::hint::black_box(f(i)));
    }
    metrics::median(tr.durations_us(name))
}

pub fn run(cfg: &Config, mix: Mix, traced: bool) -> Report {
    let (served, setup_s) = harness::set_up(cfg, traced, || set_up(cfg));
    let service = served.server.service().clone();
    let mut drives = 0;
    let mut seen = Seen::default();
    let mut driven = harness::drive(cfg, traced, kinds(&served, mix), |phase, tally, tr| {
        seen = clients_run(&served, mix, cfg.seed, drives, phase, tally, tr);
        drives += 1;
    });
    let mut tally = driven.tally;
    let counters = service.counters();
    let cache_len = service.cache_len();
    println!(
        "  cache: {} hits, {} misses, {} coalesced, {cache_len} entries; admission: {} rejected, {} degraded",
        counters.cache_hits, counters.cache_misses, counters.coalesced, counters.rejected, counters.degraded
    );
    if counters.rejected + counters.degraded > 0 {
        tally.record(Err(format!(
            "admission shed or degraded {} submission(s) of a load it must carry",
            counters.rejected + counters.degraded
        )));
    }
    let Some((mut tr, bench)) = driven.traced.take() else {
        return harness::end_to_end_report(tally, &driven.timed, setup_s);
    };
    let Seen { walls, last_reply } = seen;
    let ops = driven.timed.ops.len() as u64;

    // Wire overhead per submission: what the client saw minus what the
    // server says it spent, i.e. the self time of `client.submit`.
    let wire = tr.layer("client.submit");
    let wire_overhead_us = wire.self_ns as f64 / wire.count.max(1) as f64 / 1e3;
    let wall_us = |pool: bool| {
        let xs: Vec<f64> = walls
            .iter()
            .filter(|(p, _)| *p == pool)
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            metrics::median(xs)
        }
    };

    // Each layer on its own, called from here on the workload's real
    // messages.
    let reply = last_reply.expect("at least one traced submission");
    let tenant = &served.tenants[0];
    let program = &tenant.pool[0];
    let request = Request::Submit {
        session: 1,
        idempotency: 0,
        program: program.clone(),
    };
    let request_bytes = request.encode();
    let response = Response::SubmitOk(Box::new(reply.clone()));
    let response_bytes = response.encode();
    const N: usize = 2000;
    let encode_request = probe(&mut tr, "server.codec.encode_request", N, |_| {
        request.encode()
    });
    let decode_request = probe(&mut tr, "server.codec.decode_request", N, |_| {
        Request::decode(&request_bytes).expect("own frame decodes")
    });
    let encode_response = probe(&mut tr, "server.codec.encode_response", N, |_| {
        response.encode()
    });
    let decode_response = probe(&mut tr, "server.codec.decode_response", N, |_| {
        Response::decode(&response_bytes).expect("own frame decodes")
    });
    let fingerprint = probe(&mut tr, "server.plan_cache.fingerprint", N, |_| {
        program_fingerprint(program)
    });

    let defaults = ServerConfig::default();
    let cache = PlanCache::new(defaults.cache_shards);
    let shared = Arc::new(program.clone());
    let optimized = Arc::new(
        stages::fresh_cobra(&tenant.fixture)
            .optimize_program(program)
            .expect("tenant program optimizes"),
    );
    let key = |i: usize| CacheKey {
        fingerprint: minidb::PlanFingerprint::from_raw(i as u64),
        stamp: reply.stamp,
    };
    let fill = probe(&mut tr, "server.plan_cache.fill", N, |i| {
        cache.get_or_compute(key(i), &shared, true, || Ok(optimized.clone()))
    });
    let hit = probe(&mut tr, "server.plan_cache.hit", N, |i| {
        cache.get_or_compute(key(i), &shared, true, || unreachable!("filled above"))
    });

    let admission = Admission::new(
        defaults.max_concurrent,
        defaults.max_queue,
        defaults.degrade_queue_depth,
    );
    let admit = probe(&mut tr, "server.admission.admit", N, |_| {
        drop(admission.admit().expect("uncontended admit"))
    });

    // In process, no wire: the same pool, tenant by tenant.
    let sessions: Vec<SessionId> = served
        .tenants
        .iter()
        .map(|t| {
            let id = service.tenant_id(&t.name).expect("registered tenant");
            service.open_session(id).expect("open session")
        })
        .collect();
    let inproc = probe(&mut tr, "server.service.submit_inproc", N, |i| {
        let t = i % served.tenants.len();
        service
            .submit(sessions[t], &served.tenants[t].pool[0])
            .expect("warm submission")
    });
    for session in sessions {
        let _ = service.close_session(session);
    }

    let snapshot = tr.span("server.snapshot.take", |_| service.snapshot());
    let encoded = tr.span("server.snapshot.encode", |_| snapshot.encode());
    tr.span("server.snapshot.decode", |_| {
        cobra_server::Snapshot::decode(&encoded).expect("own snapshot decodes")
    });

    // What a miss pays: the search, staged, over the tenants' programs.
    let mut counts = stages::Counts::default();
    if mix == Mix::Churn {
        let subjects: Vec<stages::Subject> = served
            .tenants
            .iter()
            .map(|t| (&t.fixture, &t.program))
            .collect();
        for round in 0..20 {
            let first_id = ops + round * subjects.len() as u64;
            for verdict in stages::round(&mut tr, &subjects, first_id, &mut counts) {
                tally.record(verdict);
            }
        }
    }

    let mut out = stages::metrics(&tr, &counts);
    out.extend([
        ("server.codec.encode_request_us", encode_request),
        ("server.codec.decode_request_us", decode_request),
        ("server.codec.encode_response_us", encode_response),
        ("server.codec.decode_response_us", decode_response),
        ("server.codec.request_bytes", request_bytes.len() as f64),
        ("server.codec.response_bytes", response_bytes.len() as f64),
        ("server.plan_cache.fingerprint_us", fingerprint),
        ("server.plan_cache.hit_us", hit),
        ("server.plan_cache.fill_us", fill),
        ("server.plan_cache.hits", counters.cache_hits as f64),
        ("server.plan_cache.misses", counters.cache_misses as f64),
        ("server.plan_cache.coalesced", counters.coalesced as f64),
        ("server.plan_cache.len", cache_len as f64),
        ("server.admission.admit_us", admit),
        ("server.admission.admitted", counters.admitted as f64),
        ("server.admission.rejected", counters.rejected as f64),
        ("server.admission.degraded", counters.degraded as f64),
        ("server.service.submit_inproc_us", inproc),
        ("server.service.wall_us", wall_us(true)),
        ("server.service.miss_wall_us", wall_us(false)),
        ("server.net.wire_overhead_us", wire_overhead_us),
        (
            "server.snapshot.encode_ms",
            tr.layer("server.snapshot.encode").mean_us() / 1e3,
        ),
        (
            "server.snapshot.decode_ms",
            tr.layer("server.snapshot.decode").mean_us() / 1e3,
        ),
        ("server.snapshot.bytes", encoded.len() as f64),
    ]);
    out.extend(bench);
    Report {
        tally,
        metrics: out,
        tracer: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checker of the checker: a reply swapped with another tenant's,
    /// a primed program that missed and a never-seen one that hit are
    /// each a failed op.
    #[test]
    fn check_rejects_swapped_replies_and_wrong_cache_outcomes() {
        let cfg = Config {
            seed: 1,
            seconds: 0.05,
            smoke: true,
        };
        let served = set_up(&cfg);
        let mut client = WireClient::connect(served.server.local_addr()).unwrap();
        let mut replies = Vec::new();
        for t in &served.tenants {
            let s = client.open_session(&t.name).unwrap();
            replies.push(client.submit(s, &t.pool[3]).unwrap());
        }
        for (t, reply) in served.tenants.iter().zip(&replies) {
            assert_eq!(check(reply, &t.reference, true), Ok(()));
            assert!(check(reply, &t.reference, false)
                .unwrap_err()
                .contains("never-seen"));
        }
        let other = served
            .tenants
            .iter()
            .find(|t| t.reference != served.tenants[0].reference)
            .expect("tenants compute different things");
        assert!(check(&replies[0], &other.reference, true)
            .unwrap_err()
            .contains("other results"));
        let mut missed = replies[0].clone();
        missed.cache = CacheOutcome::Miss;
        assert!(check(&missed, &served.tenants[0].reference, true)
            .unwrap_err()
            .contains("primed"));
    }

    #[test]
    fn churn_traffic_sends_one_program_in_8_unseen_and_distinct() {
        let cfg = Config {
            seed: 1,
            seconds: 0.05,
            smoke: true,
        };
        let served = set_up(&cfg);
        let mut unseen = std::collections::HashSet::new();
        for lane in 0..2 {
            let mut traffic = Traffic::new(&served, Mix::Churn, 1, lane);
            for n in 1..=256u64 {
                let (_, program, from_pool) = traffic.next();
                assert_eq!(from_pool, n % CHURN_EVERY != 0);
                if !from_pool {
                    assert!(unseen.insert(program_fingerprint(&program)));
                }
            }
        }
        assert_eq!(unseen.len(), 64);
    }
}
