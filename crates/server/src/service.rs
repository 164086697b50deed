//! The in-process service: tenants, sessions, submission, drift sweeping.
//!
//! [`CobraService`] is the long-running heart of Cobra-as-a-service.
//! Tenants register a database + ORM mappings + function registry;
//! sessions open against a tenant; submissions optimize through the
//! shared single-flight [`PlanCache`] under [`Admission`] control and
//! then execute the optimized program, feeding observed cardinalities
//! back into the tenant's [`minidb::FeedbackStore`].
//!
//! **Cache validity.** The plan cache keys on
//! `(program fingerprint, CacheStamp)` with the stamp's
//! `feedback_generation` pinned to 0: unlike the *estimate* cache (which
//! invalidates on every new observation — recomputing an estimate is
//! cheap), a cached *plan* stays valid until the drift policy decides the
//! model has diverged enough to re-search. The sweeper then bumps the
//! tenant's stats epoch, re-optimizes every cached program under the new
//! stamp (now preferring observed cardinalities) and atomically swaps the
//! results in — sessions never see a half-updated cache, because stale
//! epochs simply stop being addressable.

use crate::admission::Admission;
use crate::codec::{self, SubmitFrame};
use crate::error::ServerError;
use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::plan_cache::{
    fingerprint_encoded, program_fingerprint, CacheKey, CacheOutcome, CachedPlan, PlanCache,
};
use crate::snapshot::{
    FeedbackSnapshot, OptimizedSnapshot, PlanSnapshot, RestoreReport, Snapshot, TenantSnapshot,
};
use crate::sync;
use cobra_core::{Cobra, CobraBuilder, OptimizationReport, SearchBudget, ValidationConfig};
use imperative::ast::Program;
use interp::NormalizedOutcome;
use minidb::{CacheStamp, FeedbackStore, FuncRegistry, PlanFingerprint, SharedDb};
use netsim::NetworkProfile;
use orm::MappingRegistry;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The search budget under pressure: fewer alternatives per loop, a smaller
/// memo. Degraded results are *not* retained in the plan cache.
const DEGRADED_ALTERNATIVES: usize = 8;
const DEGRADED_MEMO_EXPRS: usize = 512;

/// Check drift every this many executions per tenant.
const DRIFT_CHECK_EVERY: u64 = 32;

/// Completed submissions remembered per session for idempotent replay (a
/// retried `Submit` with the same key returns the stored reply).
const IDEMPOTENCY_WINDOW: usize = 64;

/// Service-wide tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size: submissions optimized/executed concurrently.
    /// Default: available hardware parallelism.
    pub max_concurrent: usize,
    /// Bounded wait queue beyond the pool; deeper arrivals are shed with
    /// [`ServerError::Overloaded`]. Default 64.
    pub max_queue: usize,
    /// Queue depth at which admitted requests switch to the degraded
    /// search budget. Default 8.
    pub degrade_queue_depth: usize,
    /// Multiplicative estimate-vs-observation divergence at which the
    /// sweeper re-optimizes a tenant's cached plans. Default 4.0.
    pub drift_threshold: f64,
    /// Plan-cache shard count. Default 16. Nothing sets it; it is a field
    /// because the repository's benchmark reads it.
    pub cache_shards: usize,
    /// Runtime-validate plan selection on the full-budget path: the
    /// optimizer's top-k candidates are micro-executed (or judged by
    /// fresh feedback) and the *measured* winner is promoted — so both
    /// cache misses and the drift sweeper's hot swaps install measured
    /// plans, not just re-costed ones. Degraded (load-shed) requests
    /// skip validation. `None` (default) keeps selection cost-only and
    /// bit-identical to previous behavior.
    pub validate: Option<ValidationConfig>,
    /// The fault-injection schedule threaded through the wire server's
    /// response path and the service's worker paths. Default: inert
    /// ([`FaultPlan::off`]) — zero overhead, behavior identical to a
    /// build without fault injection. Chaos tests pass
    /// [`FaultPlan::chaos`] with a seed.
    pub faults: Arc<FaultPlan>,
    /// Consecutive worker panics ([`ServerError::Internal`]) after which
    /// the health machine drops from `Healthy` to `Degraded`. Default 3.
    pub degrade_after_faults: u64,
    /// Consecutive clean submissions after which a `Degraded` server
    /// recovers to `Healthy`. Default 8.
    pub recover_after_ok: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_concurrent: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_queue: 64,
            degrade_queue_depth: 8,
            drift_threshold: 4.0,
            cache_shards: 16,
            validate: None,
            faults: FaultPlan::off(),
            degrade_after_faults: 3,
            recover_after_ok: 8,
        }
    }
}

/// The server's health state machine. Worker panics push it toward
/// `Degraded`; sustained clean service recovers it; shutdown drains it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Normal operation.
    Healthy = 0,
    /// Sustained worker faults: the queue bound is halved (shed earlier),
    /// every submission runs under the degraded budget with validation
    /// and plan retention off, and the drift sweeper holds still — the
    /// server trades plan quality for staying responsive while whatever
    /// is panicking the workers is hot.
    Degraded = 1,
    /// Shutdown has begun: no new work; in-flight requests complete.
    Draining = 2,
}

impl Health {
    fn from_u8(v: u8) -> Health {
        match v {
            1 => Health::Degraded,
            2 => Health::Draining,
            _ => Health::Healthy,
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Draining => "draining",
        })
    }
}

/// Identifies a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

/// Identifies an open session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// What a tenant registers: its database, ORM mappings, functions, the
/// network profile its sessions simulate, and whether executions record
/// runtime feedback.
#[derive(Clone)]
pub struct TenantSpec {
    /// Tenant name (wire clients attach by name).
    pub name: String,
    /// The tenant's shared database handle — adopted as is, so the
    /// embedding application and all sessions see one database.
    pub db: SharedDb,
    /// ORM entity mappings for the tenant's schema.
    pub mappings: MappingRegistry,
    /// Scalar functions the tenant's programs call.
    pub funcs: Arc<FuncRegistry>,
    /// Network profile sessions execute under (and the optimizer costs
    /// against). Default: slow remote — the regime where rewrites matter.
    pub network: NetworkProfile,
    /// Record observed cardinalities into a per-tenant feedback store
    /// (enables drift-driven re-optimization). Default true.
    pub feedback: bool,
}

impl TenantSpec {
    /// A spec with the default network (slow remote) and feedback on.
    pub fn new(
        name: impl Into<String>,
        db: SharedDb,
        mappings: MappingRegistry,
        funcs: Arc<FuncRegistry>,
    ) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            db,
            mappings,
            funcs,
            network: NetworkProfile::slow_remote(),
            feedback: true,
        }
    }

    /// Override the network profile.
    pub fn network(mut self, network: NetworkProfile) -> TenantSpec {
        self.network = network;
        self
    }

    /// Enable or disable runtime-feedback recording (off makes every
    /// submission fully deterministic — no adaptive state).
    pub fn feedback(mut self, on: bool) -> TenantSpec {
        self.feedback = on;
        self
    }
}

/// One registered tenant: shared database, optimizers (full + degraded
/// budget), feedback store, execution counter.
struct Tenant {
    name: String,
    db: SharedDb,
    feedback: Option<Arc<FeedbackStore>>,
    /// Full-budget optimizer (the plan cache's compute path), and what
    /// runs every plan: over the tenant's network, at its catalog's prices,
    /// recording into `feedback`.
    cobra: Cobra,
    /// Degraded-budget optimizer used under admission pressure.
    cobra_degraded: Cobra,
    instance_id: u64,
    executions: AtomicU64,
    /// Feedback generation at the last drift sweep that acted (or 0);
    /// the sweeper only re-checks drift once new observations arrived.
    swept_generation: AtomicU64,
}

impl Tenant {
    /// The tenant's current plan-cache stamp. Of the four parts of a
    /// [`CacheStamp`] only two vary here: `feedback_generation` is pinned
    /// to 0 (see the module docs: plans invalidate on stats-epoch bumps,
    /// not on every observation) and `mode` to 1 (every tenant estimates
    /// with histograms), so a plan's validity is its tenant's database
    /// instance and stats epoch.
    fn plan_stamp(&self) -> CacheStamp {
        let db = self.db.read().unwrap_or_else(|e| e.into_inner());
        CacheStamp {
            instance_id: db.instance_id(),
            stats_epoch: db.stats_epoch(),
            feedback_generation: 0,
            mode: 1,
        }
    }
}

/// One open session: which tenant it belongs to and its running totals.
struct SessionState {
    tenant: TenantId,
    /// The last submitted program (report retrieval re-explains it).
    last_program: Mutex<Option<Arc<Program>>>,
    submissions: AtomicU64,
    simulated_ns: AtomicU64,
    /// Completed replies keyed by idempotency key (bounded FIFO window):
    /// a retried submission whose original actually completed — the
    /// client just never saw the response — replays the stored reply
    /// instead of executing (and recording feedback) twice.
    replies: Mutex<VecDeque<(u64, SubmitReply)>>,
}

/// States every server-wide counter once. A row is the field, its position
/// in a `Counters` reply (append-only: a new counter takes the next number
/// wherever its row stands, so bytes already written keep their meaning),
/// and the text `Display` puts before and after its value; rows stand in
/// `Display` order. The struct, its `Display` and its wire encoding derive
/// from the rows, so adding a counter is a row here and its source in
/// [`CobraService::counters`].
macro_rules! server_counters {
    ($($(#[$doc:meta])* $name:ident = $wire:literal, $before:literal, $after:literal;)*) => {
        /// A snapshot of every server-wide counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerCounters {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServerCounters {
            const COUNT: usize = [$($wire),*].len();

            /// One `u64` per counter, in wire position.
            pub(crate) fn put(&self, w: &mut codec::ByteWriter) {
                let mut values = [0u64; Self::COUNT];
                $(values[$wire] = self.$name;)*
                values.iter().for_each(|&v| w.u64(v));
            }

            pub(crate) fn get(r: &mut codec::ByteReader) -> Result<ServerCounters, ServerError> {
                let mut values = [0u64; Self::COUNT];
                for v in &mut values {
                    *v = r.u64()?;
                }
                Ok(ServerCounters { $($name: values[$wire],)* })
            }
        }

        impl std::fmt::Display for ServerCounters {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $(write!(f, concat!($before, "{}", $after), self.$name)?;)*
                Ok(())
            }
        }
    };
}

server_counters! {
    /// Plan-cache lookups served from a completed entry.
    cache_hits = 0, "cache: ", " hits";
    /// Optimizer runs (cache misses, including degraded ones).
    cache_misses = 1, " / ", " misses";
    /// Wire submissions whose program was decoded — a hit decodes nothing.
    programs_decoded = 16, " (", " programs decoded)";
    /// Submissions that joined another session's in-flight search.
    coalesced = 2, " / ", " coalesced";
    /// Plans hot-swapped by the drift sweeper.
    plans_swapped = 3, " / ", " swapped";
    /// Stale cache entries evicted after swaps.
    evicted = 4, " / ", " evicted";
    /// Requests admitted.
    admitted = 5, "\nadmission: ", " admitted";
    /// Requests shed with `Overloaded`.
    rejected = 6, " / ", " rejected";
    /// Requests served under the degraded budget.
    degraded = 7, " / ", " degraded";
    /// Sessions opened over the server's lifetime.
    sessions_opened = 8, "\nsessions: ", " opened";
    /// Registered tenants.
    tenants = 9, " across ", " tenants";
    /// Programs executed.
    executions = 10, "; ", " executions";
    /// Drift sweeps that re-optimized at least one plan.
    drift_swaps = 11, "; ", " drift sweeps acted";
    /// Optimizations (cache fills and sweeper hot swaps) where runtime
    /// validation promoted a *measured* winner over the cost model's
    /// argmin. Always 0 unless [`ServerConfig::validate`] is set.
    validated_promotions = 12, "; ", " validated promotions";
    /// Worker panics caught and returned as [`ServerError::Internal`].
    internal_errors = 13, "\nresilience: ", " internal errors";
    /// Retried submissions answered from the per-session reply window
    /// instead of re-executing.
    idempotent_replays = 14, " / ", " idempotent replays";
    /// Entries recovered from a snapshot at restore time: plans *and*
    /// feedback observations, summed (the name predates the second; the
    /// field and its wire position are kept for clients that read them).
    restored_plans = 15, " / ", " restored plans + observations";
}

/// The reply to one submission: plan identity, how the cache satisfied
/// it, cost estimates, and the execution's observables.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReply {
    /// [`program_fingerprint`] of the submitted program.
    pub fingerprint: PlanFingerprint,
    /// The cache stamp the plan was served under.
    pub stamp: CacheStamp,
    /// Hit / miss / coalesced.
    pub cache: CacheOutcome,
    /// True when served under the degraded budget (admission pressure).
    pub degraded: bool,
    /// Estimated cost of the chosen program, ns.
    pub est_cost_ns: f64,
    /// Estimated cost of the program as submitted, ns.
    pub original_cost_ns: f64,
    /// Feature tags of the chosen program.
    pub tags: Vec<String>,
    /// Simulated wall-clock consumed by the execution, ns.
    pub simulated_ns: u64,
    /// Network round trips the execution performed.
    pub round_trips: u64,
    /// The execution's observables (out-params, return, prints),
    /// normalized.
    pub results: NormalizedOutcome,
    /// Real wall-clock the whole submission took, ns (admission to
    /// results; what the serving benchmark aggregates).
    pub wall_ns: u64,
}

struct Inner {
    config: ServerConfig,
    admission: Admission,
    cache: PlanCache,
    tenants: RwLock<HashMap<u64, Arc<Tenant>>>,
    sessions: RwLock<HashMap<u64, Arc<SessionState>>>,
    next_tenant: AtomicU64,
    next_session: AtomicU64,
    sessions_opened: AtomicU64,
    executions: AtomicU64,
    drift_swaps: AtomicU64,
    validated_promotions: AtomicU64,
    internal_errors: AtomicU64,
    idempotent_replays: AtomicU64,
    restored_feedback: AtomicU64,
    programs_decoded: AtomicU64,
    /// [`Health`] as a `u8` (see `Health::from_u8`).
    health: AtomicU8,
    /// Consecutive worker panics; resets on any clean submission.
    fault_streak: AtomicU64,
    /// Consecutive clean submissions; resets on any worker panic.
    ok_streak: AtomicU64,
    shutdown: AtomicBool,
    /// Sweeper wake-up: (pending-signal flag, condvar).
    sweep_signal: Mutex<bool>,
    sweep_cv: Condvar,
    sweeper: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The concurrent optimizer/execution service. Cheap to clone (all state
/// behind one `Arc`); `Send + Sync`, so one instance serves any number of
/// threads or wire connections.
#[derive(Clone)]
pub struct CobraService {
    inner: Arc<Inner>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CobraService>();
};

impl CobraService {
    /// Start a service (spawns the background drift sweeper).
    pub fn new(config: ServerConfig) -> CobraService {
        let inner = Arc::new(Inner {
            admission: Admission::new(
                config.max_concurrent,
                config.max_queue,
                config.degrade_queue_depth,
            ),
            cache: PlanCache::new(config.cache_shards),
            config,
            tenants: RwLock::new(HashMap::new()),
            sessions: RwLock::new(HashMap::new()),
            next_tenant: AtomicU64::new(1),
            next_session: AtomicU64::new(1),
            sessions_opened: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            drift_swaps: AtomicU64::new(0),
            validated_promotions: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            idempotent_replays: AtomicU64::new(0),
            restored_feedback: AtomicU64::new(0),
            programs_decoded: AtomicU64::new(0),
            health: AtomicU8::new(Health::Healthy as u8),
            fault_streak: AtomicU64::new(0),
            ok_streak: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            sweep_signal: Mutex::new(false),
            sweep_cv: Condvar::new(),
            sweeper: Mutex::new(None),
        });
        let weak = Arc::downgrade(&inner);
        let handle = std::thread::Builder::new()
            .name("cobra-drift-sweeper".into())
            .spawn(move || sweeper_loop(weak))
            .expect("spawn drift sweeper");
        *sync::lock(&inner.sweeper) = Some(handle);
        CobraService { inner }
    }

    /// The server's current health state.
    pub fn health(&self) -> Health {
        Health::from_u8(self.inner.health.load(Ordering::Acquire))
    }

    /// Record a caught worker panic against the health machine.
    fn note_fault(&self) {
        self.inner.internal_errors.fetch_add(1, Ordering::Relaxed);
        self.inner.ok_streak.store(0, Ordering::Relaxed);
        let streak = self.inner.fault_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.inner.config.degrade_after_faults {
            // Only Healthy → Degraded; never resurrect a Draining server.
            let _ = self.inner.health.compare_exchange(
                Health::Healthy as u8,
                Health::Degraded as u8,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
    }

    /// Record a clean submission against the health machine.
    fn note_ok(&self) {
        self.inner.fault_streak.store(0, Ordering::Relaxed);
        let streak = self.inner.ok_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.inner.config.recover_after_ok {
            let _ = self.inner.health.compare_exchange(
                Health::Degraded as u8,
                Health::Healthy as u8,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Register a tenant. Each tenant's plans and estimates are isolated
    /// by its database's `instance_id` through the `CacheStamp` key — two
    /// tenants with byte-identical schemas and data still never share
    /// cache entries.
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        let feedback = spec.feedback.then(|| Arc::new(FeedbackStore::new()));
        let instance_id = spec
            .db
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .instance_id();
        let builder = || -> CobraBuilder {
            // Debug builds run the static rewrite verifier at Panic so any
            // unsound rule surfaces immediately in development and tests;
            // release builds keep the zero-overhead Off default.
            let verify = if cfg!(debug_assertions) {
                cobra_core::VerifyLevel::Panic
            } else {
                cobra_core::VerifyLevel::Off
            };
            let mut b = Cobra::builder(spec.db.clone())
                .mappings(spec.mappings.clone())
                .funcs(spec.funcs.clone())
                .network(spec.network.clone())
                .verify_rewrites(verify);
            if let Some(fb) = &feedback {
                b = b.feedback(fb.clone());
            }
            b
        };
        // Validation applies to the full-budget optimizer only: the plan
        // cache's compute path and the drift sweeper both go through it,
        // so cache fills and hot swaps get measured winners. Degraded
        // requests are already shedding load — no micro-executions there.
        let mut full = builder();
        if let Some(v) = &self.inner.config.validate {
            full = full.validate_selection(v.clone());
        }
        let cobra = full.build();
        let degraded_budget = SearchBudget::default()
            .with_max_alternatives_per_region(DEGRADED_ALTERNATIVES)
            .with_max_memo_exprs(DEGRADED_MEMO_EXPRS);
        let cobra_degraded = builder().budget(degraded_budget).build();
        let tenant = Arc::new(Tenant {
            name: spec.name,
            db: spec.db,
            feedback,
            cobra,
            cobra_degraded,
            instance_id,
            executions: AtomicU64::new(0),
            swept_generation: AtomicU64::new(0),
        });
        let id = self.inner.next_tenant.fetch_add(1, Ordering::Relaxed);
        sync::write(&self.inner.tenants).insert(id, tenant);
        TenantId(id)
    }

    /// Look a tenant up by name (wire clients attach by name).
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        sync::read(&self.inner.tenants)
            .iter()
            .find(|(_, t)| t.name == name)
            .map(|(&id, _)| TenantId(id))
    }

    /// The tenant's per-tenant feedback store, if feedback is enabled.
    pub fn tenant_feedback(&self, tenant: TenantId) -> Option<Arc<FeedbackStore>> {
        let tenants = sync::read(&self.inner.tenants);
        tenants.get(&tenant.0).and_then(|t| t.feedback.clone())
    }

    /// Open a session against `tenant`.
    pub fn open_session(&self, tenant: TenantId) -> Result<SessionId, ServerError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        if !sync::read(&self.inner.tenants).contains_key(&tenant.0) {
            return Err(ServerError::UnknownTenant(format!("id {}", tenant.0)));
        }
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(SessionState {
            tenant,
            last_program: Mutex::new(None),
            submissions: AtomicU64::new(0),
            simulated_ns: AtomicU64::new(0),
            replies: Mutex::new(VecDeque::new()),
        });
        sync::write(&self.inner.sessions).insert(id, state);
        self.inner.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Ok(SessionId(id))
    }

    /// Close a session (idempotent; unknown ids error).
    pub fn close_session(&self, session: SessionId) -> Result<(), ServerError> {
        sync::write(&self.inner.sessions)
            .remove(&session.0)
            .map(|_| ())
            .ok_or(ServerError::UnknownSession(session.0))
    }

    fn session(&self, id: SessionId) -> Result<Arc<SessionState>, ServerError> {
        sync::read(&self.inner.sessions)
            .get(&id.0)
            .cloned()
            .ok_or(ServerError::UnknownSession(id.0))
    }

    fn tenant(&self, id: TenantId) -> Result<Arc<Tenant>, ServerError> {
        sync::read(&self.inner.tenants)
            .get(&id.0)
            .cloned()
            .ok_or_else(|| ServerError::UnknownTenant(format!("id {}", id.0)))
    }

    /// Submit a program on a session: admission → single-flight
    /// plan-cache optimization → execution of the optimized program, with
    /// observed cardinalities recorded into the tenant's feedback store.
    pub fn submit(
        &self,
        session: SessionId,
        program: &Program,
    ) -> Result<SubmitReply, ServerError> {
        self.submit_idempotent(session, program, 0)
    }

    /// [`CobraService::submit`] with an idempotency key (0 = none). A
    /// retried submission whose original completed — only the response
    /// was lost — replays the stored reply instead of executing twice;
    /// a retry that arrives while the original is still optimizing
    /// coalesces with it through the single-flight plan cache. The path is
    /// the wire's: looked up by its encoding, cloned only to be searched.
    pub fn submit_idempotent(
        &self,
        session: SessionId,
        program: &Program,
        idempotency: u64,
    ) -> Result<SubmitReply, ServerError> {
        let encoded = codec::encode_program(program);
        self.submit_encoded(session, idempotency, &encoded, || {
            Ok(Arc::new(program.clone()))
        })
    }

    /// A submission as it arrived on the wire. Its program is decoded —
    /// SQL parsed, tree allocated — only behind admission and only if the
    /// plan cache holds no completed entry for its bytes.
    pub fn submit_frame(&self, frame: &SubmitFrame) -> Result<SubmitReply, ServerError> {
        let session = SessionId(frame.session);
        self.submit_encoded(session, frame.idempotency, frame.program, || {
            self.inner.programs_decoded.fetch_add(1, Ordering::Relaxed);
            frame.decode_program().map(Arc::new)
        })
    }

    /// `encoded` identifies the program; `decode` yields it, on a miss.
    fn submit_encoded(
        &self,
        session: SessionId,
        idempotency: u64,
        encoded: &[u8],
        decode: impl FnOnce() -> Result<Arc<Program>, ServerError>,
    ) -> Result<SubmitReply, ServerError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        let start = Instant::now();
        let state = self.session(session)?;
        let tenant = self.tenant(state.tenant)?;

        // Replay before admission: a replay costs a window scan, not a
        // worker slot.
        if idempotency != 0 {
            let replies = sync::lock(&state.replies);
            if let Some((_, reply)) = replies.iter().find(|(k, _)| *k == idempotency) {
                let reply = reply.clone();
                drop(replies);
                self.inner
                    .idempotent_replays
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(reply);
            }
        }

        // Admission: bounded pool + bounded queue, shed beyond that. A
        // Degraded server halves the queue bound — shed earlier while
        // workers are faulting.
        let health_degraded = self.health() == Health::Degraded;
        let permit = if health_degraded {
            self.inner
                .admission
                .admit_bounded(self.inner.config.max_queue / 2)?
        } else {
            self.inner.admission.admit()?
        };
        let degraded = permit.degraded() || health_degraded;

        let fingerprint = fingerprint_encoded(encoded);
        let key = CacheKey {
            fingerprint,
            stamp: tenant.plan_stamp(),
        };
        let faults = &self.inner.config.faults;
        let (cached, cache_outcome) = match self.inner.cache.get(&key) {
            Some(cached) => (Ok(cached), CacheOutcome::Hit),
            None => {
                let program = decode()?;
                let optimizer = if degraded {
                    &tenant.cobra_degraded
                } else {
                    &tenant.cobra
                };
                self.inner
                    .cache
                    .get_or_compute(key, &program, !degraded, || {
                        if let Some(FaultKind::WorkerPanic) = faults.decide(FaultSite::Search) {
                            panic!("injected worker panic (search)");
                        }
                        optimizer
                            .optimize_program(&program)
                            .map(Arc::new)
                            .map_err(ServerError::from)
                    })
            }
        };
        let cached = match cached {
            Ok(cached) => cached,
            Err(e) => {
                // Only the flight leader charges the health machine:
                // coalesced waiters observed the same single panic.
                if matches!(e, ServerError::Internal(_)) && cache_outcome == CacheOutcome::Miss {
                    self.note_fault();
                }
                return Err(e);
            }
        };
        let optimized = &cached.optimized;
        // A fresh optimization whose validated selection overrode the
        // cost model's argmin (hits/coalesced replays would double-count).
        if cache_outcome == CacheOutcome::Miss
            && optimized
                .validation
                .as_ref()
                .is_some_and(|v| v.promoted_rank > 0)
        {
            self.inner
                .validated_promotions
                .fetch_add(1, Ordering::Relaxed);
        }

        // Execute the optimized program as the tenant's optimizer priced
        // it, on a fresh connection (one submission = one transaction, as
        // in the paper's measurements). Execution runs inside
        // `catch_unwind` for the same reason the search does: a panicking
        // worker fails this request with a typed error instead of tearing
        // the serving thread down.
        let runnable = cached.runnable();
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            if let Some(FaultKind::WorkerPanic) = faults.decide(FaultSite::Execute) {
                panic!("injected worker panic (execute)");
            }
            tenant.cobra.run(runnable).map_err(ServerError::from)
        })) {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                self.note_fault();
                return Err(ServerError::from_panic(payload));
            }
        };
        drop(permit);
        self.note_ok();

        let observed: Vec<&str> = runnable.entry().params.iter().map(|s| s.as_str()).collect();
        let results = outcome.normalized_with_vars(&observed);

        state.submissions.fetch_add(1, Ordering::Relaxed);
        state
            .simulated_ns
            .fetch_add(outcome.elapsed_ns, Ordering::Relaxed);
        *sync::lock(&state.last_program) = Some(cached.program.clone());
        self.inner.executions.fetch_add(1, Ordering::Relaxed);

        // Drift check every N executions per tenant: wake the sweeper.
        let execs = tenant.executions.fetch_add(1, Ordering::Relaxed) + 1;
        if tenant.feedback.is_some() && execs % DRIFT_CHECK_EVERY == 0 {
            self.signal_sweeper();
        }

        let reply = SubmitReply {
            fingerprint,
            stamp: key.stamp,
            cache: cache_outcome,
            degraded,
            est_cost_ns: optimized.est_cost_ns,
            original_cost_ns: optimized.original_cost_ns,
            tags: optimized.tags.iter().map(|t| t.to_string()).collect(),
            simulated_ns: outcome.elapsed_ns,
            round_trips: outcome.round_trips,
            results,
            wall_ns: start.elapsed().as_nanos() as u64,
        };
        if idempotency != 0 {
            let mut replies = sync::lock(&state.replies);
            replies.push_back((idempotency, reply.clone()));
            while replies.len() > IDEMPOTENCY_WINDOW {
                replies.pop_front();
            }
        }
        Ok(reply)
    }

    /// The full [`OptimizationReport`] for the session's last submitted
    /// program (re-explained on demand so the submit hot path never pays
    /// for report assembly).
    pub fn session_report(&self, session: SessionId) -> Result<OptimizationReport, ServerError> {
        let state = self.session(session)?;
        let tenant = self.tenant(state.tenant)?;
        let program = sync::lock(&state.last_program)
            .clone()
            .ok_or_else(|| ServerError::Db("no program submitted on this session".into()))?;
        tenant.cobra.explain(&program).map_err(ServerError::from)
    }

    /// Run one synchronous drift sweep over every tenant (what the
    /// background sweeper does on its own schedule). Returns the number
    /// of plans hot-swapped. Deterministic hook for tests and demos.
    pub fn sweep_now(&self) -> usize {
        // A Degraded server holds the sweeper still: re-optimizing under
        // the same conditions that are panicking submission workers just
        // multiplies the blast radius, and the swap would install plans
        // no healthier than the ones already cached.
        if self.health() != Health::Healthy {
            return 0;
        }
        let tenants: Vec<Arc<Tenant>> = sync::read(&self.inner.tenants).values().cloned().collect();
        let mut swapped = 0;
        for tenant in tenants {
            swapped += self.sweep_tenant(&tenant);
        }
        swapped
    }

    /// Check one tenant's drift and hot-swap its cached plans if the
    /// model has diverged past the threshold.
    fn sweep_tenant(&self, tenant: &Tenant) -> usize {
        let Some(fb) = &tenant.feedback else {
            return 0;
        };
        // Only re-examine once new observations arrived since the last
        // sweep that acted — drift is defined model-vs-observation, so
        // without new evidence the verdict cannot change.
        let generation = fb.generation();
        if generation == 0 || generation == tenant.swept_generation.load(Ordering::Acquire) {
            return 0;
        }
        // The check reads the tenant's database, and a writer that
        // panicked holding that lock poisoned it. A panic here is "no
        // verdict for this generation" — not the end of the sweeper
        // thread, and with it of drift sweeps for every other tenant.
        let drift = catch_unwind(AssertUnwindSafe(|| tenant.cobra.estimation_drift()));
        let Ok(drift) = drift else {
            self.inner.internal_errors.fetch_add(1, Ordering::Relaxed);
            tenant.swept_generation.store(generation, Ordering::Release);
            return 0;
        };
        if drift < self.inner.config.drift_threshold {
            return 0;
        }
        tenant.swept_generation.store(generation, Ordering::Release);

        // The hot swap: bump the stats epoch (moving the tenant to a
        // fresh stamp and invalidating every estimate cache stamped
        // against this database), re-optimize each cached program — the
        // estimator now prefers the observed cardinalities — and publish
        // under the new stamp. Old-stamp entries become unreachable and
        // are purged.
        // One cached program can appear under several stale epochs (each
        // pre-swap write moved the stamp); the re-optimization is per
        // *program*, so dedupe by fingerprint before paying for searches.
        let mut work = self.inner.cache.entries_for_instance(tenant.instance_id);
        let mut seen = std::collections::HashSet::new();
        work.retain(|(key, _)| seen.insert(key.fingerprint));
        tenant
            .db
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .bump_stats_epoch();
        let new_stamp = tenant.plan_stamp();
        let mut swapped = 0;
        for (key, cached) in work {
            // A program that no longer optimizes (e.g. schema edits
            // under it) is simply dropped from the cache — and so is one
            // whose re-optimization *panics*: the sweeper thread must
            // outlive any single bad plan.
            let re = catch_unwind(AssertUnwindSafe(|| {
                tenant.cobra.optimize_program(&cached.program)
            }));
            if let Ok(Ok(re)) = re {
                // Hot swaps are *measured*, not just re-costed: when the
                // tenant's optimizer validates, record how often the
                // measurement overrode the refreshed cost model.
                if re.validation.as_ref().is_some_and(|v| v.promoted_rank > 0) {
                    self.inner
                        .validated_promotions
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.inner.cache.swap_in(
                    CacheKey {
                        fingerprint: key.fingerprint,
                        stamp: new_stamp,
                    },
                    CachedPlan::new(cached.program.clone(), Arc::new(re)),
                );
                swapped += 1;
            }
        }
        self.inner
            .cache
            .purge_instance_except(tenant.instance_id, new_stamp);
        if swapped > 0 {
            self.inner.drift_swaps.fetch_add(1, Ordering::Relaxed);
        }
        swapped
    }

    fn signal_sweeper(&self) {
        *sync::lock(&self.inner.sweep_signal) = true;
        self.inner.sweep_cv.notify_one();
    }

    /// Snapshot every server-wide counter.
    pub fn counters(&self) -> ServerCounters {
        let inner = &self.inner;
        ServerCounters {
            cache_hits: inner.cache.hits(),
            cache_misses: inner.cache.misses(),
            coalesced: inner.cache.coalesced(),
            plans_swapped: inner.cache.swapped(),
            evicted: inner.cache.evicted(),
            admitted: inner.admission.admitted(),
            rejected: inner.admission.rejected(),
            degraded: inner.admission.degraded(),
            sessions_opened: inner.sessions_opened.load(Ordering::Relaxed),
            tenants: sync::read(&inner.tenants).len() as u64,
            executions: inner.executions.load(Ordering::Relaxed),
            drift_swaps: inner.drift_swaps.load(Ordering::Relaxed),
            validated_promotions: inner.validated_promotions.load(Ordering::Relaxed),
            internal_errors: inner.internal_errors.load(Ordering::Relaxed),
            idempotent_replays: inner.idempotent_replays.load(Ordering::Relaxed),
            restored_plans: inner.cache.restored()
                + inner.restored_feedback.load(Ordering::Relaxed),
            programs_decoded: inner.programs_decoded.load(Ordering::Relaxed),
        }
    }

    /// Plan-cache entries currently held (completed + in-flight).
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Capture the server's warm state — every tenant's current-stamp
    /// plan-cache entries and feedback observations — as a [`Snapshot`].
    /// Entries whose stamp already lags the tenant (mid-sweep strays)
    /// are excluded at capture time rather than rejected on restore.
    pub fn snapshot(&self) -> Snapshot {
        let tenants = sync::read(&self.inner.tenants);
        let mut sections = Vec::with_capacity(tenants.len());
        for tenant in tenants.values() {
            let stamp = tenant.plan_stamp();
            let plans = self
                .inner
                .cache
                .entries_for_instance(tenant.instance_id)
                .into_iter()
                .filter(|(key, _)| key.stamp == stamp)
                .map(|(_, cached)| PlanSnapshot {
                    program: (*cached.program).clone(),
                    optimized: OptimizedSnapshot::capture(&cached.optimized),
                })
                .collect();
            let feedback = tenant
                .feedback
                .as_ref()
                .map(|fb| {
                    fb.snapshot_stamped()
                        .into_iter()
                        .map(|(plan, observation, data_stamp)| FeedbackSnapshot {
                            sql: minidb::sql::print(plan.as_plan()),
                            observation,
                            data_stamp,
                        })
                        .collect()
                })
                .unwrap_or_default();
            sections.push(TenantSnapshot {
                name: tenant.name.clone(),
                stamp,
                plans,
                feedback,
            });
        }
        Snapshot { tenants: sections }
    }

    /// [`CobraService::snapshot`] written atomically to `path` (temp file
    /// + rename; see [`Snapshot::write_to`]).
    pub fn snapshot_to(&self, path: &std::path::Path) -> Result<(), ServerError> {
        self.snapshot().write_to(path)
    }

    /// Re-seed the plan cache and feedback stores from a snapshot.
    /// Tenants match by name; sections whose stamp no longer matches the
    /// live tenant are skipped as stale; entries the running server
    /// already holds are never overwritten (live state wins). Returns a
    /// full accounting — restore can only warm the server, never corrupt
    /// or wedge it.
    pub fn restore(&self, snap: &Snapshot) -> RestoreReport {
        let tenants = sync::read(&self.inner.tenants);
        let mut report = RestoreReport::default();
        for section in &snap.tenants {
            let Some(tenant) = tenants.values().find(|t| t.name == section.name) else {
                report.tenants_skipped += 1;
                continue;
            };
            report.tenants_matched += 1;
            let live_stamp = tenant.plan_stamp();
            if section.stamp != live_stamp {
                report.plans_skipped_stale += section.plans.len() as u64;
                report.feedback_skipped += section.feedback.len() as u64;
                continue;
            }
            for plan in &section.plans {
                let key = CacheKey {
                    fingerprint: program_fingerprint(&plan.program),
                    stamp: live_stamp,
                };
                let cached = CachedPlan::new(
                    Arc::new(plan.program.clone()),
                    Arc::new(plan.optimized.to_optimized()),
                );
                if self.inner.cache.restore(key, cached) {
                    report.plans_restored += 1;
                } else {
                    report.plans_skipped_live += 1;
                }
            }
            let Some(fb) = &tenant.feedback else {
                report.feedback_skipped += section.feedback.len() as u64;
                continue;
            };
            for obs in &section.feedback {
                let restored = minidb::sql::parse(&obs.sql)
                    .ok()
                    .is_some_and(|plan| fb.restore(&plan, obs.observation, obs.data_stamp));
                if restored {
                    report.feedback_restored += 1;
                } else {
                    report.feedback_skipped += 1;
                }
            }
        }
        self.inner
            .restored_feedback
            .fetch_add(report.feedback_restored, Ordering::Relaxed);
        report
    }

    /// Read a snapshot file and [`CobraService::restore`] it. A missing,
    /// corrupt, or stale-version file returns the typed error and leaves
    /// the server cold but fully functional.
    pub fn restore_from(&self, path: &std::path::Path) -> Result<RestoreReport, ServerError> {
        let snap = Snapshot::read_from(path)?;
        Ok(self.restore(&snap))
    }

    /// Stop accepting work, drain in-flight requests, and join the
    /// background sweeper. Idempotent; open sessions are dropped.
    ///
    /// The health machine moves to [`Health::Draining`] first so new
    /// submissions are refused with [`ServerError::ShuttingDown`], then
    /// the admission controller is given a bounded window to let
    /// already-admitted work finish — a clean drain, not an abandonment.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner
            .health
            .store(Health::Draining as u8, Ordering::Release);
        self.signal_sweeper();
        if let Some(handle) = sync::lock(&self.inner.sweeper).take() {
            let _ = handle.join();
        }
        // Bounded drain: in-flight permits are short-lived (one optimize +
        // execute), so two seconds is generous; a wedged worker must not
        // wedge shutdown too.
        let _ = self.inner.admission.wait_idle(Duration::from_secs(2));
        sync::write(&self.inner.sessions).clear();
    }

    /// True once [`CobraService::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }
}

/// The background sweeper: waits for execution-count signals (with a
/// periodic fallback poll) and sweeps every tenant for drift. Holds only
/// a weak reference, so dropping the last service handle ends the thread.
fn sweeper_loop(weak: std::sync::Weak<Inner>) {
    loop {
        let Some(inner) = weak.upgrade() else {
            return;
        };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Wait for a signal (or the fallback poll interval). Drop the
        // strong reference while parked so shutdown-by-drop still works.
        {
            let mut guard = sync::lock(&inner.sweep_signal);
            if !*guard {
                let (g, _) = sync::wait_timeout(&inner.sweep_cv, guard, Duration::from_millis(200));
                guard = g;
            }
            *guard = false;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let service = CobraService {
            inner: inner.clone(),
        };
        drop(inner);
        service.sweep_now();
        // `service` was constructed from an upgraded Arc, not a real
        // clone of the caller's handle — dropping it here must not join
        // ourselves, so shutdown() is only ever called by user handles.
        drop(service);
    }
}
