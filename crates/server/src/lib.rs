//! Cobra-as-a-service: a concurrent optimizer/execution server.
//!
//! Everything up to now has been a library: an application embeds
//! [`cobra_core::Cobra`], optimizes its programs, and runs them. This
//! crate turns that into a *service* — a long-running process that any
//! number of clients submit imperative programs to, with the economics
//! that make serving worthwhile:
//!
//! * **Sharded single-flight plan cache** ([`PlanCache`]): optimization
//!   is the expensive step (region search over the memo), so results are
//!   cached by `(program fingerprint, CacheStamp)`. N sessions
//!   submitting the same program concurrently pay for *one* search; the
//!   rest block briefly and share the `Arc<Optimized>`. The fingerprint
//!   is a hash of the program's wire encoding, so a submission the cache
//!   has seen is found by its bytes and never decoded.
//! * **Sessions and tenants** ([`CobraService`]): tenants register a
//!   database, ORM mappings, and functions; sessions open against a
//!   tenant. The cache stamp's `instance_id` keys every entry to its
//!   tenant, so isolation is structural, not policy.
//! * **Admission control** ([`crate::admission::Admission`]): a bounded
//!   worker pool with a bounded queue. Beyond the queue, requests are
//!   shed with [`ServerError::Overloaded`]; under queue pressure,
//!   requests are served with a degraded search budget instead of the
//!   full one.
//! * **Drift-driven hot swap**: executions feed observed cardinalities
//!   into each tenant's feedback store; a background sweeper checks
//!   [`cobra_core::Cobra::estimation_drift`] and atomically re-optimizes
//!   and swaps cached plans when the model has diverged.
//! * **Wire protocol** ([`WireServer`]/[`WireClient`]): a dependency-free
//!   length-prefixed binary protocol over `std::net::TcpStream`, so the
//!   service also runs out of process.
//! * **Fault injection and resilience** ([`FaultPlan`], [`RetryPolicy`],
//!   [`Health`]): a seeded chaos harness injects connection resets,
//!   partial writes, stalls, corrupt frames, and worker panics at the
//!   server's seams; the client retries with bounded exponential backoff
//!   and idempotency keys; the service isolates panics, degrades under
//!   sustained faults, and drains cleanly on shutdown.
//! * **Crash-safe persistence** ([`Snapshot`]): the plan cache and
//!   feedback stores snapshot to a versioned, checksummed file (written
//!   atomically) and restore on restart, so a rebooted server serves
//!   cache hits instead of re-searching.
//!
//! ```
//! use cobra_server::{CobraService, ServerConfig, TenantSpec};
//! use workloads::harness::Fixture;
//! use workloads::genprog::{GenCase, GenConfig};
//!
//! let service = CobraService::new(ServerConfig::default());
//! // Seed 3 generates a read-only program: a database *write* advances
//! // the stats epoch and (correctly) invalidates cached plans.
//! let case = GenCase::from_seed(3, &GenConfig::default());
//! let fx = case.fixture();
//! let tenant = service.register_tenant(TenantSpec::new(
//!     "acme", fx.db.clone(), fx.mapping.clone(), fx.funcs.clone(),
//! ));
//! let session = service.open_session(tenant).unwrap();
//! let first = service.submit(session, &case.program).unwrap();
//! let second = service.submit(session, &case.program).unwrap();
//! assert_eq!(first.results, second.results);
//! assert_eq!(second.cache.to_string(), "hit"); // warm after one miss
//! service.shutdown();
//! ```

pub mod admission;
pub mod codec;
pub mod error;
pub mod fault;
pub mod net;
pub mod plan_cache;
pub mod service;
pub mod snapshot;
pub mod sync;

pub use codec::{Request, Response};
pub use error::ServerError;
pub use fault::{FaultConfig, FaultKind, FaultPlan, FaultSite};
pub use net::{RetryPolicy, WireClient, WireServer};
pub use plan_cache::{program_fingerprint, CacheKey, CacheOutcome, CachedPlan, PlanCache};
pub use service::{
    CobraService, Health, ServerConfig, ServerCounters, SessionId, SubmitReply, TenantId,
    TenantSpec,
};
pub use snapshot::{RestoreReport, Snapshot};
