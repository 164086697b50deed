//! Runtime cardinality feedback.
//!
//! Statistics-based estimation is a guess; execution is the ground truth.
//! A [`FeedbackStore`] closes the loop: every executed query records its
//! *actual* result cardinality and work profile keyed by the plan's
//! structural [`PlanFingerprint`], and estimators configured with the
//! store ([`crate::Estimator::with_feedback`]) prefer those observations
//! over histogram guesses — the paper's "based on past executions" made
//! literal.
//!
//! Observations are running means, so a parameterized plan executed with
//! many bindings converges to its *average* cardinality — exactly the
//! quantity loop-cost formulas (`N_Q · C_body`) need.
//!
//! Two refinements keep the evidence honest:
//!
//! * **Data stamps.** An observation describes the table contents it ran
//!   against. Recording sites that know the database pass the combined
//!   write-version of the plan's base tables
//!   ([`crate::Database::plan_data_stamp`]) via
//!   [`FeedbackStore::record_at`]; when the tables have since been
//!   written, the stale mean is *replaced*, not averaged with, and
//!   stamped lookups ([`FeedbackStore::observed_fresh`]) refuse to serve
//!   it. Without this, a pre-shift observation would pollute the mean
//!   forever. Only [`FeedbackStore::restore`] can install an entry with
//!   no stamp (a snapshot may hold one); such an entry is always fresh.
//! * **Semantic keys.** The optimizer enumerates many operator shapes of
//!   the same query (predicate pushed below a join or left above it), and
//!   each shape has its own structural fingerprint — but they all return
//!   the same rows. Every entry is additionally indexed by
//!   [`semantic_key`] (a hash of the plan's canonical SQL rendering), so
//!   an estimator that has no exact-shape observation can still borrow
//!   the *output cardinality* observed for a sibling shape
//!   ([`FeedbackStore::observed_semantic`]). Work profiles are
//!   shape-specific and never transfer.
//!
//! Thread-safe (`RwLock` + atomics): one store can serve a whole
//! application — the simulated server records into it while optimizer
//! searches read from it. The monotonic [`FeedbackStore::generation`]
//! counter advances on every recording; estimate caches fold it into
//! their validity stamp so fresh observations invalidate stale cached
//! estimates automatically.

use crate::exec::ExecWork;
use crate::fingerprint::{PlanFingerprint, SharedPlan, StableHasher};
use crate::plan::LogicalPlan;

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// The running-mean observation for one plan fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Mean observed result cardinality.
    pub rows: f64,
    /// Mean observed row-touches before the first output row.
    pub startup_work: f64,
    /// Mean observed total row-touches.
    pub total_work: f64,
    /// Number of executions folded into the means.
    pub runs: u64,
}

/// The shape-blind identity of a plan: a stable hash of its canonical
/// SQL rendering. Operator placements that the printer normalizes away
/// (predicate above or below a join) map to the same key, so their
/// observed *output* cardinalities are interchangeable.
pub fn semantic_key(plan: &LogicalPlan) -> u64 {
    let mut h = StableHasher::new();
    h.write(crate::sql::print(plan).as_bytes());
    h.finish()
}

#[derive(Debug, Clone)]
struct Entry {
    plan: SharedPlan,
    obs: Observation,
    /// [`crate::Database::plan_data_stamp`] at recording time; `None`
    /// only for an entry restored from a snapshot that held no stamp,
    /// which is always fresh.
    data_stamp: Option<u64>,
}

impl Entry {
    fn fresh_for(&self, data_stamp: u64) -> bool {
        self.data_stamp.is_none_or(|s| s == data_stamp)
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<PlanFingerprint, Entry>,
    /// [`semantic_key`] → fingerprint of the most recently recorded
    /// entry sharing that key.
    semantic: HashMap<u64, PlanFingerprint>,
}

/// Observed cardinalities and work profiles per plan fingerprint.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    inner: RwLock<Inner>,
    /// Bumped on every recording; estimate-cache stamps include it.
    generation: AtomicU64,
}

impl FeedbackStore {
    /// An empty store.
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Record one execution of `plan`: `rows` result rows with `work`
    /// row-touches, observed while the plan's base tables were at
    /// `data_stamp` ([`crate::Database::plan_data_stamp`]). The first
    /// observation of a fingerprint keeps a shared copy of the plan (so
    /// drift can re-estimate it later); subsequent ones at the *same*
    /// stamp update the running means, while a recording at a new stamp
    /// replaces the now-stale mean outright.
    pub fn record_at(&self, plan: &LogicalPlan, rows: u64, work: &ExecWork, data_stamp: u64) {
        let data_stamp = Some(data_stamp);
        let fp = PlanFingerprint::of(plan);
        let mut inner = self.inner.write().unwrap();
        match inner.entries.get_mut(&fp) {
            Some(entry) if entry.data_stamp == data_stamp => fold(&mut entry.obs, rows, work),
            Some(entry) => {
                // The tables changed under the plan: the old mean
                // describes data that no longer exists. Start over.
                entry.obs = one_run(rows, work);
                entry.data_stamp = data_stamp;
            }
            None => {
                inner.entries.insert(
                    fp,
                    Entry {
                        plan: SharedPlan::new(plan.clone()),
                        obs: one_run(rows, work),
                        data_stamp,
                    },
                );
            }
        }
        redirect_semantic(&mut inner, plan, fp, data_stamp);
        drop(inner);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Reinstall an entry previously exported by
    /// [`FeedbackStore::snapshot_stamped`] (crash-safe snapshot restore).
    /// The whole running mean is installed verbatim — `obs.runs`
    /// executions' worth of evidence survives the restart. A fingerprint
    /// that already has a live entry is left alone (anything recorded
    /// since restart is at least as fresh as the snapshot). Returns
    /// whether the entry was installed.
    pub fn restore(&self, plan: &LogicalPlan, obs: Observation, data_stamp: Option<u64>) -> bool {
        let fp = PlanFingerprint::of(plan);
        let mut inner = self.inner.write().unwrap();
        if inner.entries.contains_key(&fp) {
            return false;
        }
        inner.entries.insert(
            fp,
            Entry {
                plan: SharedPlan::new(plan.clone()),
                obs,
                data_stamp,
            },
        );
        redirect_semantic(&mut inner, plan, fp, data_stamp);
        drop(inner);
        self.generation.fetch_add(1, Ordering::Release);
        true
    }

    /// The observation for `fp`, provided it was recorded against the
    /// current contents of the plan's tables (`data_stamp`) or carries no
    /// stamp at all.
    pub fn observed_fresh(&self, fp: PlanFingerprint, data_stamp: u64) -> Option<Observation> {
        let inner = self.inner.read().unwrap();
        let entry = inner.entries.get(&fp)?;
        entry.fresh_for(data_stamp).then_some(entry.obs)
    }

    /// The freshest observation for *any* plan shape sharing `key`
    /// ([`semantic_key`]), subject to the same freshness rule as
    /// [`FeedbackStore::observed_fresh`]. Only the output cardinality
    /// (`rows`) is meaningful across shapes; the work profile describes
    /// the recorded shape, not the asker's.
    pub fn observed_semantic(&self, key: u64, data_stamp: u64) -> Option<Observation> {
        let inner = self.inner.read().unwrap();
        let fp = inner.semantic.get(&key)?;
        let entry = inner.entries.get(fp)?;
        entry.fresh_for(data_stamp).then_some(entry.obs)
    }

    /// Monotonic recording counter (0 = nothing recorded yet). Estimate
    /// caches include it in their validity stamp.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of distinct plans observed.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget every observation (generation still advances, so cached
    /// estimates computed with feedback are invalidated).
    pub fn clear(&self) {
        let mut inner = self.inner.write().unwrap();
        inner.entries.clear();
        inner.semantic.clear();
        drop(inner);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Every observed plan with its observation and data stamp (`None` =
    /// unstamped, always fresh) — drift analysis walks this to compare
    /// model estimates against reality, skipping observations of data that
    /// has since been rewritten.
    pub fn snapshot_stamped(&self) -> Vec<(SharedPlan, Observation, Option<u64>)> {
        let inner = self.inner.read().unwrap();
        let mut out: Vec<(SharedPlan, Observation, Option<u64>)> = inner
            .entries
            .values()
            .map(|e| (e.plan.clone(), e.obs, e.data_stamp))
            .collect();
        // Deterministic order for reporting.
        out.sort_by_key(|(p, _, _)| p.fingerprint());
        out
    }
}

/// Redirect the semantic index to `fp` only when the recording is at
/// least as fresh as the shape it would shadow: a stale sibling (recorded
/// at an older data stamp) must not hide a sibling whose rows-only
/// evidence still describes current data. Stamps are monotone, so "newer
/// or equal stamp" means fresher; unstamped entries (and dangling index
/// entries) always win.
fn redirect_semantic(
    inner: &mut Inner,
    plan: &LogicalPlan,
    fp: PlanFingerprint,
    data_stamp: Option<u64>,
) {
    let key = semantic_key(plan);
    let redirect = match inner
        .semantic
        .get(&key)
        .and_then(|prev| inner.entries.get(prev).map(|e| (*prev, e)))
    {
        Some((prev, shadowed)) if prev != fp => match (shadowed.data_stamp, data_stamp) {
            (Some(theirs), Some(ours)) => ours >= theirs,
            _ => true,
        },
        _ => true,
    };
    if redirect {
        inner.semantic.insert(key, fp);
    }
}

fn one_run(rows: u64, work: &ExecWork) -> Observation {
    Observation {
        rows: rows as f64,
        startup_work: work.startup_rows as f64,
        total_work: work.total_rows as f64,
        runs: 1,
    }
}

fn fold(obs: &mut Observation, rows: u64, work: &ExecWork) {
    let n = obs.runs as f64;
    obs.rows = (obs.rows * n + rows as f64) / (n + 1.0);
    obs.startup_work = (obs.startup_work * n + work.startup_rows as f64) / (n + 1.0);
    obs.total_work = (obs.total_work * n + work.total_rows as f64) / (n + 1.0);
    obs.runs += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(startup: u64, total: u64) -> ExecWork {
        ExecWork {
            startup_rows: startup,
            total_rows: total,
        }
    }

    #[test]
    fn records_and_averages_observations() {
        let store = FeedbackStore::new();
        let plan = LogicalPlan::scan("orders");
        let fp = PlanFingerprint::of(&plan);
        assert_eq!(store.observed_fresh(fp, 1), None);
        assert_eq!(store.generation(), 0);

        store.record_at(&plan, 10, &work(0, 10), 1);
        store.record_at(&plan, 30, &work(0, 30), 1);
        let obs = store.observed_fresh(fp, 1).unwrap();
        assert_eq!(obs.rows, 20.0);
        assert_eq!(obs.total_work, 20.0);
        assert_eq!(obs.runs, 2);
        assert_eq!(store.generation(), 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_plans_do_not_collide() {
        let store = FeedbackStore::new();
        store.record_at(&LogicalPlan::scan("a"), 1, &work(0, 1), 1);
        store.record_at(&LogicalPlan::scan("b"), 9, &work(0, 9), 1);
        assert_eq!(store.len(), 2);
        let a = store
            .observed_fresh(PlanFingerprint::of(&LogicalPlan::scan("a")), 1)
            .unwrap();
        assert_eq!(a.rows, 1.0);
    }

    #[test]
    fn snapshot_is_deterministic_and_clear_advances_generation() {
        let store = FeedbackStore::new();
        store.record_at(&LogicalPlan::scan("a"), 1, &work(0, 1), 1);
        store.record_at(&LogicalPlan::scan("b"), 2, &work(0, 2), 1);
        let s1 = store.snapshot_stamped();
        let s2 = store.snapshot_stamped();
        assert_eq!(s1.len(), 2);
        assert_eq!(
            s1.iter().map(|(p, ..)| p.fingerprint()).collect::<Vec<_>>(),
            s2.iter().map(|(p, ..)| p.fingerprint()).collect::<Vec<_>>()
        );
        let g = store.generation();
        store.clear();
        assert!(store.is_empty());
        assert!(store.generation() > g);
    }

    #[test]
    fn restore_round_trips_snapshot_entries_and_defers_to_live_ones() {
        let store = FeedbackStore::new();
        store.record_at(&LogicalPlan::scan("a"), 10, &work(1, 10), 3);
        store.record_at(&LogicalPlan::scan("a"), 30, &work(3, 30), 3);
        // An entry with no stamp: what a snapshot may hold.
        assert!(store.restore(&LogicalPlan::scan("b"), one_run(7, &work(0, 7)), None));
        let exported = store.snapshot_stamped();

        let restored = FeedbackStore::new();
        for (plan, obs, stamp) in &exported {
            assert!(restored.restore(plan.as_plan(), *obs, *stamp));
        }
        assert_eq!(restored.snapshot_stamped(), exported);
        assert!(restored.generation() > 0, "restores advance the generation");
        // The running mean survived intact, runs and all.
        let a = restored
            .observed_fresh(PlanFingerprint::of(&LogicalPlan::scan("a")), 3)
            .unwrap();
        assert_eq!((a.rows, a.runs), (20.0, 2));

        // A live entry recorded after restart wins over the snapshot.
        let live = FeedbackStore::new();
        live.record_at(&LogicalPlan::scan("a"), 999, &work(0, 999), 4);
        for (plan, obs, stamp) in &exported {
            live.restore(plan.as_plan(), *obs, *stamp);
        }
        let a = live
            .observed_fresh(PlanFingerprint::of(&LogicalPlan::scan("a")), 4)
            .unwrap();
        assert_eq!(a.rows, 999.0);
    }

    #[test]
    fn stamped_recording_replaces_stale_means_instead_of_averaging() {
        let store = FeedbackStore::new();
        let plan = LogicalPlan::scan("orders");
        let fp = PlanFingerprint::of(&plan);

        store.record_at(&plan, 100, &work(0, 100), 7);
        store.record_at(&plan, 102, &work(0, 102), 7);
        assert_eq!(store.observed_fresh(fp, 7).unwrap().rows, 101.0);

        // The table was written: same stamp discipline, new stamp value.
        // The pre-write mean must not blend into the post-write one.
        store.record_at(&plan, 900, &work(0, 900), 8);
        let obs = store.observed_fresh(fp, 8).unwrap();
        assert_eq!(obs.rows, 900.0);
        assert_eq!(obs.runs, 1);
        // And the entry no longer answers for the old stamp.
        assert_eq!(store.observed_fresh(fp, 7), None);
    }

    #[test]
    fn unstamped_entries_are_always_fresh() {
        let store = FeedbackStore::new();
        let plan = LogicalPlan::scan("orders");
        let fp = PlanFingerprint::of(&plan);
        assert!(store.restore(&plan, one_run(5, &work(0, 5)), None));
        assert_eq!(store.observed_fresh(fp, 0).unwrap().rows, 5.0);
        assert_eq!(store.observed_fresh(fp, 41).unwrap().rows, 5.0);
    }

    #[test]
    fn semantic_key_unifies_predicate_placement() {
        use crate::expr::ScalarExpr;
        // select * from a join b on x = y where p = 3, with the filter
        // below the join in one shape and above it in the other.
        let on = ScalarExpr::eq(ScalarExpr::col("x"), ScalarExpr::col("y"));
        let filter = ScalarExpr::eq(ScalarExpr::col("p"), ScalarExpr::lit(3i64));
        let pushed = LogicalPlan::scan("a")
            .select(filter.clone())
            .join(LogicalPlan::scan("b"), on.clone());
        let hoisted = LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"), on)
            .select(filter);
        assert_ne!(PlanFingerprint::of(&pushed), PlanFingerprint::of(&hoisted));
        assert_eq!(semantic_key(&pushed), semantic_key(&hoisted));

        let store = FeedbackStore::new();
        store.record_at(&pushed, 918, &work(10, 910), 3);
        // The sibling shape has no exact observation…
        assert_eq!(store.observed_fresh(PlanFingerprint::of(&hoisted), 3), None);
        // …but its output cardinality is reachable through the key.
        let obs = store.observed_semantic(semantic_key(&hoisted), 3).unwrap();
        assert_eq!(obs.rows, 918.0);
        // Staleness still applies across the semantic index.
        assert_eq!(store.observed_semantic(semantic_key(&hoisted), 4), None);
    }

    #[test]
    fn stale_sibling_recording_does_not_shadow_fresh_semantic_evidence() {
        use crate::expr::ScalarExpr;
        let on = ScalarExpr::eq(ScalarExpr::col("x"), ScalarExpr::col("y"));
        let filter = ScalarExpr::eq(ScalarExpr::col("p"), ScalarExpr::lit(3i64));
        let pushed = LogicalPlan::scan("a")
            .select(filter.clone())
            .join(LogicalPlan::scan("b"), on.clone());
        let hoisted = LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"), on)
            .select(filter);
        let key = semantic_key(&pushed);
        assert_eq!(key, semantic_key(&hoisted));

        let store = FeedbackStore::new();
        // Fresh evidence for the pushed shape at the current stamp…
        store.record_at(&pushed, 500, &work(0, 500), 8);
        // …then a replayed / delayed recording of the sibling shape that
        // ran against the *pre-write* table contents.
        store.record_at(&hoisted, 120, &work(0, 120), 7);
        // The sibling's own entry exists and answers for its own stamp…
        assert_eq!(
            store
                .observed_fresh(PlanFingerprint::of(&hoisted), 7)
                .unwrap()
                .rows,
            120.0
        );
        // …but it must not have hijacked the semantic index: rows-only
        // evidence for the current data is still served.
        let obs = store.observed_semantic(key, 8).unwrap();
        assert_eq!(obs.rows, 500.0);

        // A recording at a newer (or equal) stamp does redirect the key.
        store.record_at(&hoisted, 130, &work(0, 130), 9);
        assert_eq!(store.observed_semantic(key, 9).unwrap().rows, 130.0);
    }
}
