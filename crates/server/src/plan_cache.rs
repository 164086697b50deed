//! The sharded, single-flight plan cache.
//!
//! Keys are `(PlanFingerprint, CacheStamp)` — a hash of the submitted
//! program's wire encoding ([`program_fingerprint`]: identity by bytes, so
//! a lookup decodes nothing) plus a [`CacheStamp`], the validity
//! coordinate the estimator layer defines. Of its four parts a plan's
//! stamp varies in two, database instance and stats epoch: the service
//! pins feedback generation to 0 and estimation mode to 1 where it builds
//! the stamp (`Tenant::plan_stamp`). Folding the stamp into the key gives
//! tenant isolation and invalidation for free:
//!
//! * two tenants have different `Database::instance_id`s, so identical
//!   programs land on different keys — cross-tenant pollution is
//!   structurally impossible, not policy;
//! * a stats-epoch bump (drift re-optimization, ANALYZE, writes) moves
//!   every new lookup to a fresh stamp, so stale plans simply stop being
//!   reachable (and are purged by the drift sweeper).
//!
//! **Single flight**: when N sessions miss on the same key concurrently,
//! exactly one runs the optimizer; the rest block on the in-flight slot
//! and receive the shared `Arc<Optimized>` when it completes. The
//! coalesced count is surfaced per request and in the server counters.
//!
//! The map is sharded by fingerprint to keep lock contention off the hot
//! path: a hit takes one shard mutex for a `HashMap` probe, and the entry
//! it finds already holds the program to run ([`CachedPlan::runnable`]).

use crate::codec;
use crate::error::ServerError;
use crate::sync;
use cobra_core::Optimized;
use imperative::ast::Program;
use minidb::{CacheStamp, PlanFingerprint, StableHasher};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A plan-cache key: program identity × cache validity coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`program_fingerprint`] of the whole submitted program.
    pub fingerprint: PlanFingerprint,
    /// Validity stamp: tenant instance and stats epoch (the service pins
    /// the other two parts).
    pub stamp: CacheStamp,
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.fingerprint, self.stamp)
    }
}

/// The identity of a whole imperative program: a hash of its encoding
/// ([`codec::put_program`]), line numbers included. Nothing persists the
/// value (snapshots recompute it), so it may change between builds.
pub fn program_fingerprint(program: &Program) -> PlanFingerprint {
    fingerprint_encoded(&codec::encode_program(program))
}

/// A stable 64-bit hash of an encoded program, eight bytes a step. Every
/// step is a bijection of the state, so equally long encodings that differ
/// in one word never collide; the length goes in first, which also makes
/// the zero-padded last word unambiguous.
pub(crate) fn fingerprint_encoded(encoded: &[u8]) -> PlanFingerprint {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(K);
        h ^ (h >> 29)
    };
    let mut words = encoded.chunks_exact(8);
    let mut h = step(K, encoded.len() as u64);
    for word in &mut words {
        h = step(h, u64::from_be_bytes(word.try_into().expect("eight bytes")));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_be_bytes(last));
    PlanFingerprint::from_raw(step(h, h >> 32))
}

/// A cached optimization: the submitted program (kept so the drift
/// sweeper can re-optimize it), the shared result, and the program a hit
/// executes. The last is private, so [`CachedPlan::new`] is the only
/// constructor and assembles it from the other two, once per entry.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The program as submitted.
    pub program: Arc<Program>,
    /// The optimizer's result, shared by every session that hits.
    pub optimized: Arc<Optimized>,
    runnable: Arc<Program>,
}

impl CachedPlan {
    /// An entry for `program` as submitted and its optimization result.
    pub fn new(program: Arc<Program>, optimized: Arc<Optimized>) -> CachedPlan {
        let runnable = Arc::new(program.with_entry(optimized.program.clone()));
        CachedPlan {
            program,
            optimized,
            runnable,
        }
    }

    /// The submitted program with the optimized entry swapped in.
    pub fn runnable(&self) -> &Arc<Program> {
        &self.runnable
    }
}

/// How a submission's optimization was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a completed cache entry.
    Hit,
    /// This request ran the optimizer.
    Miss,
    /// Another session was already optimizing the same key; this request
    /// blocked and received the shared result.
    Coalesced,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        })
    }
}

/// An in-flight optimization other sessions can wait on.
#[derive(Debug, Default)]
struct Flight {
    result: Mutex<Option<Result<CachedPlan, ServerError>>>,
    done: Condvar,
}

#[derive(Debug, Clone)]
enum Slot {
    InFlight(Arc<Flight>),
    Ready(CachedPlan),
}

/// The cache proper. One per service, shared by every tenant and session.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<HashMap<CacheKey, Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    swapped: AtomicU64,
    evicted: AtomicU64,
    restored: AtomicU64,
}

impl PlanCache {
    /// A cache with `shards` shards (clamped to at least 1; 16 is the
    /// service default).
    pub fn new(shards: usize) -> PlanCache {
        PlanCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            swapped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            restored: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Slot>> {
        // The fingerprint is already a good 64-bit mix; fold the stamp in
        // so one hot program across many tenants still spreads out.
        let mut h = StableHasher::new();
        key.hash(&mut h);
        let i = (h.finish() % self.shards.len() as u64) as usize;
        &self.shards[i]
    }

    /// The completed entry at `key`, counted as a hit. It asks for no
    /// program: the caller has not decoded one yet.
    pub fn get(&self, key: &CacheKey) -> Option<CachedPlan> {
        let Some(Slot::Ready(cached)) = sync::lock(self.shard(key)).get(key).cloned() else {
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(cached)
    }

    /// Look up `key`, running `compute` under single-flight semantics on
    /// a miss. `retain` controls whether a computed result is kept in the
    /// cache (degraded-budget results are published to waiters but not
    /// retained, so the next uncontended submission gets a full search).
    ///
    /// Returns the plan plus how it was satisfied.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        program: &Arc<Program>,
        retain: bool,
        compute: impl FnOnce() -> Result<Arc<Optimized>, ServerError>,
    ) -> (Result<CachedPlan, ServerError>, CacheOutcome) {
        let flight = {
            let mut shard = sync::lock(self.shard(&key));
            match shard.get(&key) {
                Some(Slot::Ready(cached)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(cached.clone()), CacheOutcome::Hit);
                }
                Some(Slot::InFlight(flight)) => {
                    // Wait outside the shard lock.
                    let flight = flight.clone();
                    drop(shard);
                    let mut slot = sync::lock(&flight.result);
                    while slot.is_none() {
                        slot = sync::wait(&flight.done, slot);
                    }
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return (slot.clone().unwrap(), CacheOutcome::Coalesced);
                }
                None => {
                    let flight = Arc::new(Flight::default());
                    shard.insert(key, Slot::InFlight(flight.clone()));
                    flight
                }
            }
        };

        // This request leads the flight: optimize, publish, settle the
        // slot. The optimizer runs inside `catch_unwind` so a panicking
        // search settles the flight with a typed error — waiters must
        // never be left blocking on a flight whose leader unwound away.
        let result = match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(computed) => computed.map(|optimized| CachedPlan::new(program.clone(), optimized)),
            Err(payload) => Err(ServerError::from_panic(payload)),
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = sync::lock(self.shard(&key));
            match &result {
                Ok(cached) if retain => {
                    shard.insert(key, Slot::Ready(cached.clone()));
                }
                // Failed or deliberately unretained: clear the in-flight
                // marker so the next submission retries from scratch.
                _ => {
                    shard.remove(&key);
                }
            }
        }
        let mut slot = sync::lock(&flight.result);
        *slot = Some(result.clone());
        drop(slot);
        flight.done.notify_all();
        (result, CacheOutcome::Miss)
    }

    /// Insert a re-optimized plan (the drift sweeper's hot swap). Counts
    /// toward [`PlanCache::swapped`]; overwrites anything at `key`.
    pub fn swap_in(&self, key: CacheKey, plan: CachedPlan) {
        let mut shard = sync::lock(self.shard(&key));
        shard.insert(key, Slot::Ready(plan));
        drop(shard);
        self.swapped.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a plan recovered from a snapshot (see [`crate::snapshot`]).
    /// Counts toward [`PlanCache::restored`]; does not overwrite a live
    /// entry (a plan computed since restart is at least as fresh).
    /// Returns whether the plan was inserted.
    pub fn restore(&self, key: CacheKey, plan: CachedPlan) -> bool {
        let mut shard = sync::lock(self.shard(&key));
        if shard.contains_key(&key) {
            return false;
        }
        shard.insert(key, Slot::Ready(plan));
        drop(shard);
        self.restored.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Completed entries cached for database instance `instance_id`
    /// (the drift sweeper's re-optimization work list).
    pub fn entries_for_instance(&self, instance_id: u64) -> Vec<(CacheKey, CachedPlan)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = sync::lock(shard);
            for (key, slot) in shard.iter() {
                if key.stamp.instance_id == instance_id {
                    if let Slot::Ready(cached) = slot {
                        out.push((*key, cached.clone()));
                    }
                }
            }
        }
        out
    }

    /// Drop every completed entry for `instance_id` whose stamp is not
    /// `keep` (post-swap cleanup of now-unreachable epochs). In-flight
    /// slots are left to settle on their own. Returns how many entries
    /// were evicted.
    pub fn purge_instance_except(&self, instance_id: u64, keep: CacheStamp) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = sync::lock(shard);
            shard.retain(|key, slot| {
                let stale = key.stamp.instance_id == instance_id
                    && key.stamp != keep
                    && matches!(slot, Slot::Ready(_));
                if stale {
                    evicted += 1;
                }
                !stale
            });
        }
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Completed + in-flight entries currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| sync::lock(s).len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a completed entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Optimizer runs (including unretained/degraded and failed ones).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Requests that joined another session's in-flight optimization.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Plans hot-swapped in by the drift sweeper.
    pub fn swapped(&self) -> u64 {
        self.swapped.load(Ordering::Relaxed)
    }

    /// Stale entries evicted after swaps.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Plans recovered from a snapshot at restore time.
    pub fn restored(&self) -> u64 {
        self.restored.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imperative::ast::{Function, Stmt, StmtKind};

    fn tiny_program(n: i64) -> Arc<Program> {
        Arc::new(Program::single(Function::new(
            "t",
            vec!["out".into()],
            vec![Stmt::new(StmtKind::Let(
                "out".into(),
                imperative::ast::Expr::lit(n),
            ))],
        )))
    }

    fn dummy_optimized(program: &Program) -> Arc<Optimized> {
        Arc::new(Optimized {
            program: program.entry().clone(),
            est_cost_ns: 1.0,
            original_cost_ns: 1.0,
            alternatives: 1,
            choice_points: 0,
            groups: 1,
            exprs: 1,
            tags: Vec::new(),
            cost_cache_hits: 0,
            cost_cache_misses: 0,
            estimator_cache_hits: 0,
            estimator_cache_misses: 0,
            feedback_overrides: 0,
            budget_exhausted: false,
            validation: None,
            verifier_rejections: Vec::new(),
        })
    }

    fn key(fp: PlanFingerprint, instance: u64, epoch: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            stamp: CacheStamp {
                instance_id: instance,
                stats_epoch: epoch,
                feedback_generation: 0,
                mode: 1,
            },
        }
    }

    #[test]
    fn hit_after_miss_and_tenant_isolation() {
        let cache = PlanCache::new(4);
        let p = tiny_program(1);
        let fp = program_fingerprint(&p);
        let k1 = key(fp, 1, 0);
        let (r, how) = cache.get_or_compute(k1, &p, true, || Ok(dummy_optimized(&p)));
        assert!(r.is_ok());
        assert_eq!(how, CacheOutcome::Miss);
        let (_, how) = cache.get_or_compute(k1, &p, true, || panic!("must hit"));
        assert_eq!(how, CacheOutcome::Hit);

        // Same program, different tenant instance: a separate key.
        let k2 = key(fp, 2, 0);
        let (_, how) = cache.get_or_compute(k2, &p, true, || Ok(dummy_optimized(&p)));
        assert_eq!(how, CacheOutcome::Miss);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn the_fingerprint_tells_lengths_tails_and_single_bytes_apart() {
        let mut seen = std::collections::HashSet::new();
        // Zero padding of the last word must not make prefixes collide.
        for len in 0..=24 {
            assert!(seen.insert(fingerprint_encoded(&vec![0u8; len])));
        }
        let base: Vec<u8> = (0..61u8).collect();
        assert!(seen.insert(fingerprint_encoded(&base)));
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert!(seen.insert(fingerprint_encoded(&flipped)), "byte {i}");
        }
    }

    #[test]
    fn unretained_results_are_not_cached() {
        let cache = PlanCache::new(1);
        let p = tiny_program(2);
        let k = key(program_fingerprint(&p), 1, 0);
        let (_, how) = cache.get_or_compute(k, &p, false, || Ok(dummy_optimized(&p)));
        assert_eq!(how, CacheOutcome::Miss);
        assert!(cache.is_empty(), "degraded results are not retained");
        let (_, how) = cache.get_or_compute(k, &p, true, || Ok(dummy_optimized(&p)));
        assert_eq!(how, CacheOutcome::Miss, "next submission re-optimizes");
    }

    #[test]
    fn failures_clear_the_flight() {
        let cache = PlanCache::new(1);
        let p = tiny_program(3);
        let k = key(program_fingerprint(&p), 1, 0);
        let (r, _) = cache.get_or_compute(k, &p, true, || Err(ServerError::Db("boom".to_string())));
        assert!(r.is_err());
        assert!(cache.is_empty());
        let (r, how) = cache.get_or_compute(k, &p, true, || Ok(dummy_optimized(&p)));
        assert!(r.is_ok());
        assert_eq!(how, CacheOutcome::Miss);
    }

    /// Block until `n` waiters have joined the flight at `key`. A waiter
    /// joins by cloning the flight's `Arc` under the shard lock (beside
    /// the map's and the leader's own reference), and from then on can
    /// only return `Coalesced` — so the strong count is the hand-off.
    fn wait_for_waiters(cache: &PlanCache, key: &CacheKey, n: usize) {
        loop {
            if let Some(Slot::InFlight(flight)) = sync::lock(cache.shard(key)).get(key) {
                if Arc::strong_count(flight) >= 2 + n {
                    return;
                }
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_same_key_coalesces_to_one_compute() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let cache = Arc::new(PlanCache::new(8));
        let p = tiny_program(4);
        let k = key(program_fingerprint(&p), 1, 0);
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let p = p.clone();
                let computes = computes.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let (r, _) = cache.get_or_compute(k, &p, true, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open until every other thread
                        // has joined it, so none can race the ready slot.
                        wait_for_waiters(&cache, &k, 7);
                        Ok(dummy_optimized(&p))
                    });
                    assert!(r.is_ok());
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one search");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.coalesced(), 7, "every other thread joined the flight");
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn panicking_compute_settles_the_flight_for_waiters() {
        use std::sync::Barrier;

        let cache = Arc::new(PlanCache::new(2));
        let p = tiny_program(6);
        let k = key(program_fingerprint(&p), 1, 0);
        let barrier = Arc::new(Barrier::new(2));

        let leader = {
            let cache = cache.clone();
            let p = p.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let (r, how) = cache.get_or_compute(k, &p, true, || {
                    barrier.wait(); // the slot is in flight; release the waiter
                    wait_for_waiters(&cache, &k, 1);
                    panic!("injected worker panic");
                });
                assert_eq!(how, CacheOutcome::Miss);
                r
            })
        };
        barrier.wait();
        let (waited, how) = cache.get_or_compute(k, &p, true, || Ok(dummy_optimized(&p)));
        assert_eq!(how, CacheOutcome::Coalesced, "joined the doomed flight");

        let led = leader.join().expect("leader thread must not propagate");
        assert!(matches!(led, Err(ServerError::Internal(_))));
        // The waiter is handed the leader's typed failure — not a hang,
        // not a poisoned shard.
        assert!(matches!(waited, Err(ServerError::Internal(_))));
        let (r, _) = cache.get_or_compute(k, &p, true, || Ok(dummy_optimized(&p)));
        assert!(r.is_ok(), "cache stays usable after a panicked flight");
    }

    #[test]
    fn restore_inserts_but_never_overwrites() {
        let cache = PlanCache::new(2);
        let p = tiny_program(7);
        let k = key(program_fingerprint(&p), 1, 0);
        let plan = CachedPlan::new(p.clone(), dummy_optimized(&p));
        assert!(cache.restore(k, plan.clone()));
        assert!(!cache.restore(k, plan), "live entries win over snapshots");
        assert_eq!(cache.restored(), 1);
        let (_, how) = cache.get_or_compute(k, &p, true, || panic!("restored entry must hit"));
        assert_eq!(how, CacheOutcome::Hit);
    }

    #[test]
    fn swap_and_purge_retire_old_epochs() {
        let cache = PlanCache::new(2);
        let p = tiny_program(5);
        let fp = program_fingerprint(&p);
        let old = key(fp, 7, 0);
        let (_, _) = cache.get_or_compute(old, &p, true, || Ok(dummy_optimized(&p)));
        let entries = cache.entries_for_instance(7);
        assert_eq!(entries.len(), 1);

        let new = key(fp, 7, 1);
        // The re-optimization chose another entry function: a hit must run it.
        let chosen = tiny_program(50);
        cache.swap_in(new, CachedPlan::new(p.clone(), dummy_optimized(&chosen)));
        let stale = entries[0].1.runnable().clone();
        drop(entries);
        assert_eq!(cache.purge_instance_except(7, new.stamp), 1);
        assert_eq!(
            Arc::strong_count(&stale),
            1,
            "the entry took its runnable along"
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.swapped(), 1);
        assert_eq!(cache.evicted(), 1);
        let (_, how) = cache.get_or_compute(new, &p, true, || panic!("swapped entry must hit"));
        assert_eq!(how, CacheOutcome::Hit);
        let hit = cache.get(&new).expect("and by key alone");
        assert_eq!(hit.runnable().entry(), chosen.entry());
        assert!(
            Arc::ptr_eq(&hit.program, &p),
            "still the program as submitted"
        );
        assert!(cache.get(&old).is_none());
        assert_eq!(cache.hits(), 2, "a `get` that finds nothing is not a hit");
    }
}
