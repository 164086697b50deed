//! Cardinality, size and time estimation.
//!
//! COBRA's cost model (§VI) needs, per query `Q`:
//! * `N_Q` — estimated result cardinality,
//! * `S_row(Q)` — result row size in bytes,
//! * `C^F_Q` / `C^L_Q` — server time to first/last result row,
//! * predicate truth probabilities (for the `cond` region cost).
//!
//! The paper "consulted the database query optimizer to get an estimate of
//! query execution times, based on past executions"; this estimator plays
//! that role using table statistics and the same work model as the
//! executor.

use crate::catalog::{Database, Table};
use crate::error::DbResult;
use crate::expr::{BinOp, ColRef, ScalarExpr};
use crate::feedback::FeedbackStore;
use crate::fingerprint::PlanFingerprint;
use crate::func::FuncRegistry;
use crate::plan::{aggregate_schema, project_schema, LogicalPlan};
use crate::schema::Schema;
use crate::value::Value;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The estimate for one query plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated result cardinality (`N_Q`).
    pub rows: f64,
    /// Declared bytes per result row (`S_row`).
    pub row_bytes: f64,
    /// Estimated row-touches before the first output row.
    pub startup_work: f64,
    /// Estimated total row-touches.
    pub total_work: f64,
}

impl Estimate {
    /// Estimated server time to the first result row, ns (`C^F_Q`).
    pub fn first_row_ns(&self, row_ns: f64) -> f64 {
        self.startup_work * row_ns
    }

    /// Estimated server time to the last result row, ns (`C^L_Q`).
    pub fn last_row_ns(&self, row_ns: f64) -> f64 {
        self.total_work * row_ns
    }

    /// Estimated payload bytes (`N_Q * S_row`).
    pub fn payload_bytes(&self) -> f64 {
        self.rows * self.row_bytes
    }
}

/// A shared, stamped cache of whole-plan [`Estimate`]s, keyed by plan
/// fingerprint and valid for exactly one [`CacheStamp`].
///
/// Estimates depend only on the plan's structure (parameter *names* are
/// part of it; bound values are not consulted) plus the database's
/// statistics, the estimation mode and any runtime feedback — an estimate
/// is rows and row-touches, and whoever prices it brings the price
/// ([`Estimate::first_row_ns`]) — so a fingerprint is a complete key.
/// Validity is a **stamp**: [`Database::instance_id`]
/// (every `Database` value, clones included, has its own),
/// [`Database::stats_epoch`], the [`FeedbackStore::generation`] of the
/// estimator's feedback store (new observations invalidate), and the
/// estimation-mode bits — so a cache accidentally shared across different
/// databases or differently-configured estimators flushes instead of
/// serving the other configuration's numbers. Failed estimations are
/// cached verbatim (the same `DbError` every time).
///
/// Thread-safe (`RwLock` + atomics): one cache instance serves every
/// thread searching through the same optimizer.
#[derive(Debug, Default)]
pub struct EstimateCache {
    inner: RwLock<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cache validity stamp: database identity and epoch, feedback-store
/// generation, and estimation-mode bits. The [`Default`] stamp matches no
/// real database (instance ids start at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CacheStamp {
    /// [`Database::instance_id`] of the database estimated against.
    pub instance_id: u64,
    /// [`Database::stats_epoch`] at estimation time.
    pub stats_epoch: u64,
    /// [`FeedbackStore::generation`] of the estimator's feedback store
    /// (0 when estimating without feedback).
    pub feedback_generation: u64,
    /// Estimation-mode bits (bit 0: histograms enabled).
    pub mode: u8,
}

/// Prints as `db<instance>@e<epoch>/f<feedback gen>/m<mode>` — with a
/// [`PlanFingerprint`] this names one cache-validity coordinate, the key
/// server logs use to show which tenant/epoch a cached plan belongs to.
impl std::fmt::Display for CacheStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "db{}@e{}/f{}/m{}",
            self.instance_id, self.stats_epoch, self.feedback_generation, self.mode
        )
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<PlanFingerprint, DbResult<Estimate>>,
    /// The stamp the entries are valid for.
    valid: CacheStamp,
}

impl EstimateCache {
    /// An empty cache.
    pub fn new() -> EstimateCache {
        EstimateCache::default()
    }

    /// Estimates served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Estimates computed by an estimator (and inserted).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Look up a cached estimate, flushing the contents when they were
    /// computed under a different stamp (another database instance or an
    /// older stats epoch). Counts a hit when found.
    pub fn lookup(&self, stamp: CacheStamp, key: PlanFingerprint) -> Option<DbResult<Estimate>> {
        {
            let inner = self.inner.read().unwrap();
            if inner.valid == stamp {
                let hit = inner.entries.get(&key).cloned();
                if hit.is_some() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                return hit;
            }
        }
        let mut inner = self.inner.write().unwrap();
        // Re-check under the write lock: another thread may have flushed.
        if inner.valid != stamp {
            inner.entries.clear();
            inner.valid = stamp;
        }
        None
    }

    /// Insert a computed estimate for `stamp` (counts a miss; dropped
    /// when the stamp moved while computing).
    pub fn insert(&self, stamp: CacheStamp, key: PlanFingerprint, value: DbResult<Estimate>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write().unwrap();
        if inner.valid == stamp {
            inner.entries.insert(key, value);
        }
    }
}

/// Estimates plans against a database's statistics — and, when a
/// [`FeedbackStore`] is attached, against observed runtime cardinalities,
/// which take precedence over histogram guesses.
pub struct Estimator<'a> {
    db: &'a Database,
    funcs: &'a FuncRegistry,
    cache: Option<&'a EstimateCache>,
    /// Runtime observations; whole-plan estimates prefer these.
    feedback: Option<&'a FeedbackStore>,
    /// When false, fall back to the pre-histogram uniform model (fixed
    /// 1/3 range selectivity, raw 1/NDV equality) — the ablation baseline.
    use_histograms: bool,
    /// Counter bumped each time an observation replaces a model guess
    /// (lets a cost model account feedback use per search).
    override_counter: Option<&'a AtomicU64>,
}

/// Selectivity assumed for range predicates (`<`, `>`, …).
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity assumed when nothing is known.
const DEFAULT_SELECTIVITY: f64 = 0.5;

impl<'a> Estimator<'a> {
    /// New estimator: histograms on, no cache, no feedback.
    pub fn new(db: &'a Database, funcs: &'a FuncRegistry) -> Estimator<'a> {
        Estimator {
            db,
            funcs,
            cache: None,
            feedback: None,
            use_histograms: true,
            override_counter: None,
        }
    }

    /// Serve [`Estimator::estimate_fp`] through `cache` (whole-plan
    /// results only; the recursive per-node work is uncached).
    pub fn with_cache(mut self, cache: &'a EstimateCache) -> Estimator<'a> {
        self.cache = Some(cache);
        self
    }

    /// Prefer observed runtime cardinalities from `feedback` over model
    /// guesses for whole-plan estimates ([`Estimator::estimate_fp`] and
    /// friends; the recursive per-node model is unchanged).
    pub fn with_feedback(mut self, feedback: &'a FeedbackStore) -> Estimator<'a> {
        self.feedback = Some(feedback);
        self
    }

    /// Enable or disable histogram/statistics-interpolated selectivities
    /// (default on). Off reproduces the uniform-NDV baseline estimator —
    /// kept for ablation and fidelity comparison.
    pub fn with_histograms(mut self, on: bool) -> Estimator<'a> {
        self.use_histograms = on;
        self
    }

    /// Count feedback overrides into `counter` (one increment per
    /// computed estimate that used an observation).
    pub fn with_override_counter(mut self, counter: &'a AtomicU64) -> Estimator<'a> {
        self.override_counter = Some(counter);
        self
    }

    /// The cache-validity stamp for this estimator's configuration.
    fn stamp(&self) -> CacheStamp {
        CacheStamp {
            instance_id: self.db.instance_id(),
            stats_epoch: self.db.stats_epoch(),
            feedback_generation: self.feedback.map(|f| f.generation()).unwrap_or(0),
            mode: self.use_histograms as u8,
        }
    }

    /// [`Estimator::estimate`] with a precomputed fingerprint for `plan`,
    /// consulting the cache configured via [`Estimator::with_cache`].
    /// Cached and uncached paths return bit-identical estimates *and*
    /// identical errors (failures are cached verbatim).
    pub fn estimate_fp(&self, plan: &LogicalPlan, fp: PlanFingerprint) -> DbResult<Estimate> {
        self.estimate_fp_stats(plan, fp).0
    }

    /// [`Estimator::estimate_fp`] also reporting whether the result came
    /// from the cache — the hook cost models use for their own per-search
    /// hit/miss accounting.
    pub fn estimate_fp_stats(
        &self,
        plan: &LogicalPlan,
        fp: PlanFingerprint,
    ) -> (DbResult<Estimate>, bool) {
        let Some(cache) = self.cache else {
            return (self.estimate_observed(plan, fp), false);
        };
        let stamp = self.stamp();
        if let Some(cached) = cache.lookup(stamp, fp) {
            return (cached, true);
        }
        let computed = self.estimate_observed(plan, fp);
        cache.insert(stamp, fp, computed.clone());
        (computed, false)
    }

    /// [`Estimator::estimate`], with observed runtime cardinality and
    /// work substituted for the model's guess when the feedback store has
    /// seen this plan execute (row size stays declared-schema-exact).
    ///
    /// Observations are consulted in two tiers, both restricted to
    /// evidence about the *current* table contents
    /// ([`Database::plan_data_stamp`]): an exact-shape match overrides
    /// cardinality and the work profile; failing that, an observation of
    /// a sibling shape of the same query (same
    /// [`crate::feedback::semantic_key`] — e.g. the predicate pushed to
    /// the other side of a join) overrides the output cardinality only,
    /// since work is shape-specific.
    fn estimate_observed(&self, plan: &LogicalPlan, fp: PlanFingerprint) -> DbResult<Estimate> {
        let mut e = self.estimate(plan)?;
        if let Some(fb) = self.feedback {
            let data_stamp = self.db.plan_data_stamp(plan);
            if let Some(obs) = fb.observed_fresh(fp, data_stamp) {
                e.rows = obs.rows;
                e.startup_work = obs.startup_work;
                e.total_work = obs.total_work;
            } else if let Some(obs) =
                fb.observed_semantic(crate::feedback::semantic_key(plan), data_stamp)
            {
                e.rows = obs.rows;
            } else {
                return Ok(e);
            }
            if let Some(ctr) = self.override_counter {
                ctr.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(e)
    }

    /// Estimate cardinality, row size and work for `plan`.
    pub fn estimate(&self, plan: &LogicalPlan) -> DbResult<Estimate> {
        Ok(self.estimate_node(plan)?.0)
    }

    /// [`Estimator::estimate`] with the plan's output schema, which each
    /// node derives from its inputs' as the executor does.
    fn estimate_node(&self, plan: &LogicalPlan) -> DbResult<(Estimate, Arc<Schema>)> {
        Ok(match plan {
            LogicalPlan::Scan { table, alias } => {
                let t = self.db.table(table)?;
                let rows = t.stats().row_count.max(t.row_count() as u64) as f64;
                let e = Estimate {
                    rows,
                    row_bytes: t.schema().row_bytes() as f64,
                    startup_work: 0.0,
                    total_work: rows,
                };
                (e, t.scan_schema(alias.as_deref()))
            }
            LogicalPlan::Select { input, pred } => {
                let (child, schema) = self.estimate_node(input)?;
                let sel = self.selectivity(pred);
                let rows = child.rows * sel;
                // Index fast path mirrors the executor: equality on an
                // indexed column of a base scan touches only matches.
                let indexed = self.indexed_eq_lookup(input, pred, &schema);
                let (startup, total) = if indexed {
                    (0.0, rows + 1.0)
                } else {
                    (child.startup_work, child.total_work + child.rows)
                };
                let e = Estimate {
                    rows,
                    row_bytes: child.row_bytes,
                    startup_work: startup,
                    total_work: total,
                };
                (e, schema)
            }
            LogicalPlan::Project { input, items } => {
                let (child, in_schema) = self.estimate_node(input)?;
                let schema = project_schema(&in_schema, items, self.funcs)?;
                let e = Estimate {
                    rows: child.rows,
                    row_bytes: schema.row_bytes() as f64,
                    startup_work: child.startup_work,
                    total_work: child.total_work + child.rows,
                };
                (e, Arc::new(schema))
            }
            LogicalPlan::Join { left, right, pred } => {
                let (l, l_schema) = self.estimate_node(left)?;
                let (r, r_schema) = self.estimate_node(right)?;
                let schema = Arc::new(l_schema.join(&r_schema));
                let sel = self.join_selectivity(pred);
                let rows = (l.rows * r.rows * sel).max(0.0);
                // Index-nested-loops fast path (mirrors the executor): an
                // indexed base-table side probed by a much smaller driver.
                let sides = [(&l, &l_schema, &r, right), (&r, &r_schema, &l, left)];
                for (outer, outer_schema, inner, inner_plan) in sides {
                    if self.inl_eligible(outer_schema, inner_plan, pred)
                        && outer.rows * 2.0 < inner.rows
                    {
                        let e = Estimate {
                            rows,
                            row_bytes: l.row_bytes + r.row_bytes,
                            startup_work: outer.startup_work,
                            total_work: outer.total_work + outer.rows + rows,
                        };
                        return Ok((e, schema));
                    }
                }
                let build = l.rows.min(r.rows);
                let probe = l.rows.max(r.rows);
                let startup = l.startup_work + r.startup_work + build;
                let total = l.total_work + r.total_work + build + probe + rows;
                let e = Estimate {
                    rows,
                    row_bytes: l.row_bytes + r.row_bytes,
                    startup_work: startup,
                    total_work: total,
                };
                (e, schema)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (child, in_schema) = self.estimate_node(input)?;
                let schema = aggregate_schema(&in_schema, group_by, aggs, self.funcs)?;
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    let mut groups = 1.0f64;
                    for g in group_by {
                        groups *= self.column_ndv(g).max(1.0);
                    }
                    groups.min(child.rows.max(1.0))
                };
                let total = child.total_work + child.rows;
                let e = Estimate {
                    rows,
                    row_bytes: schema.row_bytes() as f64,
                    startup_work: total, // blocking
                    total_work: total,
                };
                (e, Arc::new(schema))
            }
            LogicalPlan::OrderBy { input, .. } => {
                let (child, schema) = self.estimate_node(input)?;
                let n = child.rows.max(1.0);
                let sort = n * n.log2().max(1.0);
                let e = Estimate {
                    rows: child.rows,
                    row_bytes: child.row_bytes,
                    startup_work: child.total_work + sort, // blocking
                    total_work: child.total_work + sort,
                };
                (e, schema)
            }
            LogicalPlan::Limit { input, n } => {
                let (child, schema) = self.estimate_node(input)?;
                let rows = child.rows.min(*n as f64);
                (Estimate { rows, ..child }, schema)
            }
        })
    }

    /// Probability that `pred` holds for a row — used directly for the `p`
    /// of a `cond` region when the predicate involves query result
    /// attributes (§VI). A column is traced to its base table by name.
    pub fn selectivity(&self, pred: &ScalarExpr) -> f64 {
        match pred {
            ScalarExpr::Lit(v) => match v.as_bool() {
                Some(true) => 1.0,
                Some(false) => 0.0,
                None => DEFAULT_SELECTIVITY,
            },
            ScalarExpr::Bin(BinOp::And, l, r) => self.selectivity(l) * self.selectivity(r),
            ScalarExpr::Bin(BinOp::Or, l, r) => {
                let a = self.selectivity(l);
                let b = self.selectivity(r);
                (a + b - a * b).min(1.0)
            }
            ScalarExpr::Not(e) => 1.0 - self.selectivity(e),
            ScalarExpr::Bin(BinOp::Eq, l, r) => {
                // col = constant/param → non-null fraction / NDV (equality
                // never matches NULLs); col = col handled by joins.
                if let Some(c) = as_column(l).or_else(|| as_column(r)) {
                    if self.use_histograms {
                        if let Some((table, i)) = self.locate_column(c) {
                            let stats = table.stats();
                            if stats.analyzed {
                                return stats.eq_selectivity(i);
                            }
                        }
                    }
                    let ndv = self.column_ndv(c);
                    if ndv > 0.0 {
                        return 1.0 / ndv;
                    }
                }
                DEFAULT_SELECTIVITY
            }
            ScalarExpr::Bin(BinOp::Ne, _, _) => 1.0 - 0.1,
            ScalarExpr::Bin(op, l, r) if op.is_comparison() => {
                // col ⋈ literal → histogram (equi-depth, built by ANALYZE)
                // or min/max interpolation; the fixed 1/3 only survives as
                // the un-analyzed / non-literal fallback.
                if self.use_histograms {
                    if let Some(sel) = self.range_selectivity_from_stats(l, r, *op) {
                        return sel;
                    }
                }
                RANGE_SELECTIVITY
            }
            _ => DEFAULT_SELECTIVITY,
        }
    }

    /// Selectivity of `column ⋈ literal` (either orientation) from table
    /// statistics. `None` when the predicate shape or the statistics
    /// cannot answer (parameter probe, never-analyzed table, non-numeric
    /// column) — the caller falls back to the default.
    fn range_selectivity_from_stats(
        &self,
        l: &ScalarExpr,
        r: &ScalarExpr,
        op: BinOp,
    ) -> Option<f64> {
        let (col, lit, op) = match (l, r) {
            (ScalarExpr::Col(c), ScalarExpr::Lit(v)) => (c, v, op),
            (ScalarExpr::Lit(v), ScalarExpr::Col(c)) => (c, v, op.mirror()),
            _ => return None,
        };
        let (table, i) = self.locate_column(col)?;
        table.stats().range_selectivity(i, op, lit)
    }

    fn join_selectivity(&self, pred: &ScalarExpr) -> f64 {
        for c in pred.conjuncts() {
            if let ScalarExpr::Bin(BinOp::Eq, a, b) = c {
                if let (Some(ca), Some(cb)) = (as_column(a), as_column(b)) {
                    let ndv_a = self.column_ndv(ca).max(1.0);
                    let ndv_b = self.column_ndv(cb).max(1.0);
                    let mut sel = 1.0 / ndv_a.max(ndv_b);
                    if self.use_histograms {
                        // NULL join keys never match: scale the output by
                        // both keys' non-null fractions.
                        for col in [ca, cb] {
                            if let Some((t, i)) = self.locate_column(col) {
                                let stats = t.stats();
                                if stats.analyzed {
                                    if let Some(cs) = stats.columns.get(i) {
                                        sel *= cs.non_null_fraction(stats.row_count);
                                    }
                                }
                            }
                        }
                    }
                    return sel;
                }
            }
        }
        if matches!(pred, ScalarExpr::Lit(Value::Bool(true))) {
            return 1.0; // cross join
        }
        DEFAULT_SELECTIVITY
    }

    /// The base table and column position a column reference resolves to
    /// (column names are unique per table in our workloads).
    fn locate_column(&self, col: &ColRef) -> Option<(&Table, usize)> {
        for table in self.db.tables() {
            for (i, c) in table.schema().columns().iter().enumerate() {
                if c.name == col.name {
                    return Some((table, i));
                }
            }
        }
        None
    }

    /// NDV of a referenced column, traced back to its base table.
    fn column_ndv(&self, col: &ColRef) -> f64 {
        self.locate_column(col)
            .map(|(t, i)| t.stats().ndv(i) as f64)
            .unwrap_or(0.0)
    }

    /// True when `inner_plan` is a bare indexed scan joinable from an outer
    /// side of `outer_schema` through an indexed equality column (the
    /// executor's INL join precondition, minus the size heuristic).
    fn inl_eligible(
        &self,
        outer_schema: &Schema,
        inner_plan: &LogicalPlan,
        pred: &ScalarExpr,
    ) -> bool {
        let LogicalPlan::Scan { table, alias } = inner_plan else {
            return false;
        };
        let Ok(t) = self.db.table(table) else {
            return false;
        };
        let inner_schema = t.scan_schema(alias.as_deref());
        crate::vexec::inl_probe_columns(t, outer_schema, &inner_schema, &pred.conjuncts()).is_some()
    }

    /// True when the executor answers `σ_pred(input)` from an index: `input`
    /// is a base scan and `pred` has an equality conjunct its index fast
    /// path can probe with.
    fn indexed_eq_lookup(&self, input: &LogicalPlan, pred: &ScalarExpr, schema: &Schema) -> bool {
        let LogicalPlan::Scan { table, .. } = input else {
            return false;
        };
        let Ok(t) = self.db.table(table) else {
            return false;
        };
        crate::vexec::indexed_eq_conjunct(t, schema, &pred.conjuncts()).is_some()
    }
}

fn as_column(e: &ScalarExpr) -> Option<&ColRef> {
    match e {
        ScalarExpr::Col(c) => Some(c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::sql::parse;
    use crate::value::Value;

    fn test_db() -> Database {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
            Column::with_width("o_status", DataType::Str, 10),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..1000i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::str(if i % 5 == 0 { "open" } else { "done" }),
            ])
            .unwrap();
        }
        let customer = Schema::new(vec![
            Column::new("c_customer_sk", DataType::Int),
            Column::new("c_birth_year", DataType::Int),
        ]);
        let t = db.create_table("customer", customer).unwrap();
        t.set_primary_key("c_customer_sk").unwrap();
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::Int(1950 + (i % 40))])
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn estimate(db: &Database, sql: &str) -> Estimate {
        let funcs = FuncRegistry::with_builtins();
        let plan = parse(sql).unwrap();
        Estimator::new(db, &funcs).estimate(&plan).unwrap()
    }

    #[test]
    fn scan_estimate_matches_row_count() {
        let db = test_db();
        let e = estimate(&db, "select * from orders");
        assert_eq!(e.rows, 1000.0);
        assert_eq!(e.row_bytes, 8.0 + 8.0 + 10.0);
    }

    #[test]
    fn eq_selectivity_uses_ndv() {
        let db = test_db();
        let e = estimate(&db, "select * from orders where o_customer_sk = 7");
        assert!(
            (e.rows - 10.0).abs() < 1e-9,
            "1000/100 = 10, got {}",
            e.rows
        );
    }

    #[test]
    fn param_predicates_estimate_like_constants() {
        let db = test_db();
        let e = estimate(&db, "select * from customer where c_customer_sk = :k");
        assert!((e.rows - 1.0).abs() < 1e-9);
        // Indexed: nearly free.
        assert!(e.total_work < 5.0);
    }

    #[test]
    fn join_estimate_uses_fk_ndv() {
        let db = test_db();
        let e = estimate(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        assert!((e.rows - 1000.0).abs() < 1.0, "got {}", e.rows);
        assert_eq!(e.row_bytes, 26.0 + 16.0);
    }

    #[test]
    fn aggregate_estimate_counts_groups() {
        let db = test_db();
        let e = estimate(
            &db,
            "select o_status, count(*) from orders group by o_status",
        );
        assert!((e.rows - 2.0).abs() < 1e-9);
        assert_eq!(e.startup_work, e.total_work, "aggregation blocks");
        let scalar = estimate(&db, "select count(*) from orders");
        assert_eq!(scalar.rows, 1.0);
    }

    #[test]
    fn order_by_is_blocking() {
        let db = test_db();
        let e = estimate(&db, "select * from orders order by o_id");
        assert_eq!(e.startup_work, e.total_work);
        assert!(e.total_work > 1000.0);
    }

    #[test]
    fn limit_caps_rows() {
        let db = test_db();
        let e = estimate(&db, "select * from orders limit 5");
        assert_eq!(e.rows, 5.0);
    }

    #[test]
    fn range_predicates_interpolate_from_histograms() {
        let db = test_db();
        // o_id is uniform on 0..1000: `> 10` keeps ~99 %, `> 990` ~1 %.
        let wide = estimate(&db, "select * from orders where o_id > 10");
        assert!((wide.rows - 989.0).abs() < 25.0, "got {}", wide.rows);
        // Regression: the pre-histogram estimator returned a hardcoded
        // 1/3 (≈ 333 rows) regardless of where the predicate cut.
        let narrow = estimate(&db, "select * from orders where o_id > 990");
        assert!(narrow.rows < 30.0, "~1 % of the range, got {}", narrow.rows);
        // Literal-on-the-left flips the comparison.
        let flipped = estimate(&db, "select * from orders where 990 < o_id");
        assert!((flipped.rows - narrow.rows).abs() < 1e-9);
    }

    #[test]
    fn range_fallbacks_keep_one_third() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        // A parameter probe is unknown at estimation time → fallback.
        let e = estimate(&db, "select * from orders where o_id > :k");
        assert!((e.rows - 1000.0 / 3.0).abs() < 1.0);
        // The legacy uniform baseline ignores histograms entirely.
        let plan = parse("select * from orders where o_id > 990").unwrap();
        let legacy = Estimator::new(&db, &funcs)
            .with_histograms(false)
            .estimate(&plan)
            .unwrap();
        assert!((legacy.rows - 1000.0 / 3.0).abs() < 1.0);
    }

    #[test]
    fn analyzed_empty_table_estimates_zero_rows() {
        // Regression: equality on an analyzed-empty table estimated 10 %.
        let mut db = Database::new();
        db.create_table(
            "empty",
            Schema::new(vec![Column::new("e_id", DataType::Int)]),
        )
        .unwrap();
        db.analyze_all();
        let e = estimate(&db, "select * from empty where e_id = 7");
        assert_eq!(e.rows, 0.0);
        let funcs = FuncRegistry::with_builtins();
        let est = Estimator::new(&db, &funcs);
        let plan = parse("select * from empty where e_id = 7").unwrap();
        let LogicalPlan::Select { pred, .. } = plan else {
            panic!()
        };
        assert_eq!(est.selectivity(&pred), 0.0);
    }

    #[test]
    fn eq_selectivity_scales_by_non_null_fraction() {
        // Regression: NULLs never satisfy equality, but the estimator
        // used raw 1/NDV.
        let mut db = Database::new();
        let t = db
            .create_table(
                "sparse",
                Schema::new(vec![
                    Column::new("s_id", DataType::Int),
                    Column::new("s_val", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..100i64 {
            let v = if i % 2 == 0 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            t.insert(vec![Value::Int(i), v]).unwrap();
        }
        db.analyze_all();
        // 50 non-null rows over 5 distinct values → 10 rows per value.
        let e = estimate(&db, "select * from sparse where s_val = 1");
        assert!((e.rows - 10.0).abs() < 1e-6, "got {}", e.rows);
        // The null-blind model would have said 100/5 = 20.
    }

    #[test]
    fn feedback_overrides_model_guesses() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let plan = parse("select * from orders where o_customer_sk = :k").unwrap();
        let fp = PlanFingerprint::of(&plan);
        let fb = crate::feedback::FeedbackStore::new();
        let base = Estimator::new(&db, &funcs).estimate(&plan).unwrap();
        assert!((base.rows - 10.0).abs() < 1e-9, "model guess: 1000/100");

        // Reality disagrees (a hot key): the observation wins.
        let stamp = db.plan_data_stamp(&plan);
        let observed = crate::exec::ExecWork {
            startup_rows: 0,
            total_rows: 1000,
        };
        fb.record_at(&plan, 600, &observed, stamp);
        let overrides = AtomicU64::new(0);
        let fed = Estimator::new(&db, &funcs)
            .with_feedback(&fb)
            .with_override_counter(&overrides)
            .estimate_fp(&plan, fp)
            .unwrap();
        assert_eq!(fed.rows, 600.0);
        assert_eq!(fed.total_work, 1000.0);
        assert_eq!(fed.row_bytes, base.row_bytes, "row size stays declared");
        assert_eq!(overrides.load(Ordering::Relaxed), 1);

        // Cached estimates refresh when new observations arrive: the
        // feedback generation is part of the validity stamp.
        let cache = EstimateCache::new();
        let c1 = Estimator::new(&db, &funcs)
            .with_feedback(&fb)
            .with_cache(&cache)
            .estimate_fp(&plan, fp)
            .unwrap();
        assert_eq!(c1.rows, 600.0);
        fb.record_at(&plan, 0, &crate::exec::ExecWork::default(), stamp);
        let c2 = Estimator::new(&db, &funcs)
            .with_feedback(&fb)
            .with_cache(&cache)
            .estimate_fp(&plan, fp)
            .unwrap();
        assert_eq!(c2.rows, 300.0, "running mean over two runs");
        assert_eq!(cache.misses(), 2, "generation bump flushed the cache");
    }

    #[test]
    fn read_only_table_mut_borrow_retains_cached_estimates() {
        // Regression: `Database::table_mut` bumped the stats epoch on
        // every borrow, so even read-only borrows evicted the entire
        // estimate cache.
        let mut db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let cache = EstimateCache::new();
        let plan = parse("select * from orders where o_customer_sk = 7").unwrap();
        let fp = PlanFingerprint::of(&plan);
        for _ in 0..2 {
            Estimator::new(&db, &funcs)
                .with_cache(&cache)
                .estimate_fp(&plan, fp)
                .unwrap();
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let _ = db.table_mut("orders").unwrap().row_count();
        Estimator::new(&db, &funcs)
            .with_cache(&cache)
            .estimate_fp(&plan, fp)
            .unwrap();
        assert_eq!(
            (cache.hits(), cache.misses()),
            (2, 1),
            "hit counters keep climbing across read-only borrows"
        );
    }

    #[test]
    fn and_or_not_combinators() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let est = Estimator::new(&db, &funcs);
        let p_eq = parse("select * from orders where o_customer_sk = 1").unwrap();
        let LogicalPlan::Select { pred, .. } = p_eq else {
            panic!()
        };
        let p = est.selectivity(&pred);
        assert!((p - 0.01).abs() < 1e-9);
        let not_p = est.selectivity(&ScalarExpr::Not(Box::new(pred)));
        assert!((not_p - 0.99).abs() < 1e-9);
    }

    #[test]
    fn estimated_rows_track_actual_within_factor_two() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        for sql in [
            "select * from orders where o_customer_sk = 42",
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
            "select o_status, count(*) from orders group by o_status",
        ] {
            let plan = parse(sql).unwrap();
            let est = Estimator::new(&db, &funcs).estimate(&plan).unwrap();
            let act = crate::exec::Executor::new(&db, &funcs)
                .execute(&plan, &std::collections::HashMap::new())
                .unwrap();
            let actual = act.row_count() as f64;
            assert!(
                est.rows <= actual * 2.0 + 1.0 && est.rows >= actual / 2.0 - 1.0,
                "{sql}: est {} vs actual {actual}",
                est.rows
            );
        }
    }

    #[test]
    fn cached_estimates_are_bit_identical_and_epoch_validated() {
        let mut db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let cache = EstimateCache::new();
        let plan = parse("select * from orders where o_customer_sk = 7").unwrap();
        let fp = PlanFingerprint::of(&plan);

        let plain = Estimator::new(&db, &funcs).estimate(&plan).unwrap();
        let first = Estimator::new(&db, &funcs)
            .with_cache(&cache)
            .estimate_fp(&plan, fp)
            .unwrap();
        let second = Estimator::new(&db, &funcs)
            .with_cache(&cache)
            .estimate_fp(&plan, fp)
            .unwrap();
        assert_eq!(plain, first);
        assert_eq!(first, second);
        assert_eq!(cache.misses(), 1, "one compute");
        assert_eq!(cache.hits(), 1, "one cache hit");

        // Mutating the database advances the stats epoch → flush.
        db.table_mut("orders")
            .unwrap()
            .insert(vec![Value::Int(10_000), Value::Int(1), Value::str("open")])
            .unwrap();
        db.analyze_all();
        let third = Estimator::new(&db, &funcs)
            .with_cache(&cache)
            .estimate_fp(&plan, fp)
            .unwrap();
        assert_eq!(cache.misses(), 2, "stale entry recomputed");
        assert!(third.rows > second.rows - 1e-9, "new stats observed");
    }

    #[test]
    fn cache_remembers_failures() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let cache = EstimateCache::new();
        let plan = LogicalPlan::scan("no_such_table");
        let fp = PlanFingerprint::of(&plan);
        for _ in 0..2 {
            assert!(Estimator::new(&db, &funcs)
                .with_cache(&cache)
                .estimate_fp(&plan, fp)
                .is_err());
        }
        assert_eq!(cache.misses(), 1, "failure cached");
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn time_estimates_scale_with_row_cost() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let plan = parse("select * from orders").unwrap();
        let e = Estimator::new(&db, &funcs).estimate(&plan).unwrap();
        assert_eq!(e.last_row_ns(100.0), 1000.0 * 100.0);
        assert_eq!(e.first_row_ns(100.0), 0.0);
    }
}
