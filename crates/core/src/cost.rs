//! The cost model of §VI.
//!
//! Costs are virtual nanoseconds. Per the paper:
//!
//! * query execution: `C_Q = C_NRT + C^F_Q + max(N_Q·S_row(Q)/BW, C^L_Q −
//!   C^F_Q)` — one round trip, server time to the first row, then result
//!   transfer overlapped with result production;
//! * prefetch: `C_prefetch(Q) = C_Q / AF_Q` (amortized over the estimated
//!   number of accesses);
//! * basic block: sum of per-statement costs (`C_Z` each, plus any data
//!   access the statement performs);
//! * `C_seq = Σ children`; `C_cond = p·C_then + (1−p)·C_else + C_pred`
//!   with `p` from database statistics when the predicate involves query
//!   attributes, 0.5 otherwise;
//! * loops: `N_Q · C_body + C_Db(Q)` when the trip count is known from the
//!   iterable's plan, a tunable default otherwise.
//!
//! The region formulas are stated once (`region_cost`, with
//! `break_probability`) and have two callers: [`CostModel::cost`] hands
//! them the search's child-group costs, and
//! [`RegionCostModel::written_cost`] — code priced as written has no
//! alternatives, so no memo and no search — its own recursion's. The two
//! agree to the bit, so `est_cost_ns == original_cost_ns` when the
//! original program wins. An unstructured fragment is priced the same
//! way: a `try` costs what its body and handler cost outside it.
//!
//! Unlike the paper's model, this one does model the ORM session cache
//! for association navigation: a navigation is charged its lookup times
//! the association's expected miss rate, `NDV(fk) / row_count` (see
//! `nav_cost`). The paper charges every navigation one lookup — its known
//! P0 overestimate (Experiment 2 notes the mismatch on fast networks) —
//! and `use_histograms = false` reproduces that.

use crate::catalog::CostCatalog;
use crate::region_ops::{region_to_optree, RegionOp};
use imperative::ast::{Expr, Stmt, StmtKind};
use imperative::regions::Region;
use minidb::{
    Estimate, EstimateCache, Estimator, FuncRegistry, LogicalPlan, PlanFingerprint, ScalarExpr,
    SharedPlan, Value,
};
use netsim::NetworkProfile;
use orm::MappingRegistry;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use volcano::{Child, CostModel, GroupId, MExprId, Memo, OpTree};

/// A finite stand-in for "cannot estimate": large enough to lose against
/// any real alternative without poisoning arithmetic like `f64::INFINITY`
/// would.
const UNESTIMABLE: f64 = 1e18;

/// Cost model over [`RegionOp`] AND-nodes.
pub struct RegionCostModel {
    db: minidb::SharedDb,
    funcs: std::sync::Arc<FuncRegistry>,
    net: NetworkProfile,
    catalog: CostCatalog,
    mappings: Arc<MappingRegistry>,
    /// Known collection bindings: variable → producing plan (flow-
    /// insensitive; gathered from every program variant in the DAG).
    var_plans: HashMap<String, SharedPlan>,
    /// Pre-computed plain costs of callee functions (for `LetCall`).
    fn_costs: HashMap<String, f64>,
    /// Whole-plan estimate cache, keyed by plan fingerprint. Epoch-
    /// validated, so sharing one across concurrent searches over the
    /// same database is safe and is what [`crate::Cobra`] does
    /// (see [`EstimateCache`]).
    estimates: Arc<EstimateCache>,
    /// Estimates this model served from the cache / had to compute
    /// (model-local, so per-search reporting stays exact even when the
    /// cache storage is shared across concurrent searches).
    est_hits: AtomicU64,
    est_misses: AtomicU64,
    /// When false, every estimate is recomputed (see
    /// [`RegionCostModel::disable_estimate_cache`]).
    use_estimate_cache: bool,
    /// Histogram-interpolated selectivities (default on); off reproduces
    /// the uniform-NDV baseline estimator.
    use_histograms: bool,
    /// Runtime cardinality observations; the estimator prefers these
    /// over model guesses when present.
    feedback: Option<Arc<minidb::FeedbackStore>>,
    /// Estimates this model computed with an observed cardinality
    /// substituted for the model guess.
    fb_overrides: AtomicU64,
    /// Interned synthetic plans (`loadAll` scans, association lookups) so
    /// repeated costings reuse one fingerprinted allocation. Nav entries
    /// carry the association's session-cache miss rate alongside the
    /// lookup plan.
    scan_plans: std::sync::Mutex<HashMap<String, SharedPlan>>,
    nav_plans: std::sync::Mutex<HashMap<String, Option<(SharedPlan, f64)>>>,
}

impl RegionCostModel {
    /// Build a cost model that charges against `config`'s network profile
    /// and cost catalog (with or without histograms, as it says), serves
    /// estimates through `estimates`, and prefers `feedback`'s observed
    /// runtime cardinalities over model guesses.
    pub fn new(
        db: minidb::SharedDb,
        funcs: std::sync::Arc<FuncRegistry>,
        mappings: Arc<MappingRegistry>,
        config: &crate::OptimizerConfig,
        estimates: Arc<EstimateCache>,
        feedback: Option<Arc<minidb::FeedbackStore>>,
    ) -> RegionCostModel {
        RegionCostModel {
            db,
            funcs,
            net: config.network.clone(),
            catalog: config.catalog.clone(),
            mappings,
            var_plans: HashMap::new(),
            fn_costs: HashMap::new(),
            estimates,
            est_hits: AtomicU64::new(0),
            est_misses: AtomicU64::new(0),
            use_estimate_cache: true,
            use_histograms: config.use_histograms,
            feedback,
            fb_overrides: AtomicU64::new(0),
            scan_plans: std::sync::Mutex::new(HashMap::new()),
            nav_plans: std::sync::Mutex::new(HashMap::new()),
        }
    }

    /// The interned whole-table scan plan for `table`.
    fn scan_plan(&self, table: &str) -> SharedPlan {
        let mut cache = self.scan_plans.lock().unwrap();
        cache
            .entry(table.to_string())
            .or_insert_with(|| LogicalPlan::scan(table).into())
            .clone()
    }

    /// Register collection bindings (variable → producing plan).
    pub fn set_var_plans(&mut self, plans: HashMap<String, SharedPlan>) {
        self.var_plans = plans;
    }

    /// Register callee costs for `LetCall` statements.
    pub fn set_fn_costs(&mut self, costs: HashMap<String, f64>) {
        self.fn_costs = costs;
    }

    /// Disable estimate caching entirely (every estimate recomputed) —
    /// the reference hook the equivalence suite compares cached search
    /// against, on the model [`crate::Cobra::region_dag`] returns; results
    /// are bit-identical either way.
    pub fn disable_estimate_cache(&mut self) {
        self.use_estimate_cache = false;
    }

    /// Estimates this model computed with an observed runtime cardinality
    /// substituted for the model's guess.
    pub fn feedback_overrides(&self) -> u64 {
        self.fb_overrides.load(Ordering::Relaxed)
    }

    /// Estimates this model served from its estimate cache.
    pub fn estimate_cache_hits(&self) -> u64 {
        self.est_hits.load(Ordering::Relaxed)
    }

    /// Estimates this model computed (cache misses).
    pub fn estimate_cache_misses(&self) -> u64 {
        self.est_misses.load(Ordering::Relaxed)
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &CostCatalog {
        &self.catalog
    }

    /// Whole-plan estimate via the fingerprint cache: cached and uncached
    /// paths are bit-identical (the cache stores the computed
    /// [`Estimate`] verbatim, failures included). The cache protocol
    /// lives in one place — [`Estimator::estimate_fp_stats`]; this layer
    /// only adds the model-local hit/miss accounting.
    fn cached_estimate(&self, plan: &LogicalPlan, fp: PlanFingerprint) -> Result<Estimate, ()> {
        let db = self.db.read().unwrap();
        let mut estimator = Estimator::new(&db, &self.funcs)
            .with_histograms(self.use_histograms)
            .with_override_counter(&self.fb_overrides);
        if let Some(fb) = &self.feedback {
            estimator = estimator.with_feedback(fb);
        }
        if !self.use_estimate_cache {
            return estimator.estimate_fp_stats(plan, fp).0.map_err(|_| ());
        }
        let (result, hit) = estimator
            .with_cache(&self.estimates)
            .estimate_fp_stats(plan, fp);
        if hit {
            self.est_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.est_misses.fetch_add(1, Ordering::Relaxed);
        }
        result.map_err(|_| ())
    }

    /// `C_Q` from an [`Estimate`] (§VI's formula).
    fn query_cost_of(&self, e: &Estimate) -> f64 {
        let first = e.first_row_ns(self.catalog.server_row_ns);
        let last = e.last_row_ns(self.catalog.server_row_ns);
        let transfer = self.net.transfer_ns_f(e.payload_bytes());
        self.net.round_trip_ns() as f64 + first + transfer.max(last - first)
    }

    /// `C_Q` for one query execution (§VI).
    pub fn query_cost(&self, plan: &LogicalPlan) -> f64 {
        match self.cached_estimate(plan, PlanFingerprint::of(plan)) {
            Ok(e) => self.query_cost_of(&e),
            Err(()) => UNESTIMABLE,
        }
    }

    /// [`RegionCostModel::query_cost`] for a [`SharedPlan`] — uses the
    /// plan's precomputed fingerprint.
    pub fn query_cost_shared(&self, plan: &SharedPlan) -> f64 {
        match self.cached_estimate(plan, plan.fingerprint()) {
            Ok(e) => self.query_cost_of(&e),
            Err(()) => UNESTIMABLE,
        }
    }

    /// Estimated result cardinality of a plan.
    fn plan_rows(&self, plan: &SharedPlan) -> f64 {
        self.cached_estimate(plan, plan.fingerprint())
            .map(|e| e.rows)
            .unwrap_or(self.catalog.default_collection_iters)
    }

    /// Estimated iteration count of a loop over `iter`.
    pub fn iter_rows(&self, iter: &Expr) -> f64 {
        match iter {
            Expr::Query(spec) => self.plan_rows(&spec.plan),
            Expr::LoadAll(entity) => match self.mappings.entity(entity) {
                Some(m) => self.plan_rows(&self.scan_plan(&m.table)),
                None => self.catalog.default_collection_iters,
            },
            Expr::Var(v) => match self.var_plans.get(v) {
                Some(plan) => self.plan_rows(plan),
                None => self.catalog.default_collection_iters,
            },
            Expr::LookupCache(cache, _) => {
                // cache_<table>_by_<col>: expected rows per key = N/NDV.
                if let Some((table, col)) = parse_cache_name(cache) {
                    let db = self.db.read().unwrap();
                    if let Ok(t) = db.table(&table) {
                        if let Ok(i) = t.schema().resolve(&col) {
                            let n = t.stats().row_count.max(1) as f64;
                            let ndv = t.stats().ndv(i) as f64;
                            return (n / ndv).max(1.0);
                        }
                    }
                }
                self.catalog.default_collection_iters
            }
            _ => self.catalog.default_collection_iters,
        }
    }

    /// Cost of *fetching* the iterable (charged once per loop execution).
    fn iter_fetch_cost(&self, iter: &Expr) -> f64 {
        match iter {
            Expr::Query(spec) => self.query_cost_shared(&spec.plan),
            Expr::LoadAll(entity) => match self.mappings.entity(entity) {
                Some(m) => self.query_cost_shared(&self.scan_plan(&m.table)),
                None => UNESTIMABLE,
            },
            Expr::Var(_) => 0.0, // already materialized
            Expr::LookupCache(_, key) => self.catalog.cy_ns + self.expr_cost(key),
            _ => self.catalog.cy_ns,
        }
    }

    /// Data-access plus operator cost of evaluating an expression once.
    pub fn expr_cost(&self, e: &Expr) -> f64 {
        match e {
            Expr::Var(_) | Expr::Lit(_) => 0.0,
            Expr::Bin(_, l, r) => self.catalog.cy_ns + self.expr_cost(l) + self.expr_cost(r),
            Expr::Not(i) | Expr::Len(i) => self.catalog.cy_ns + self.expr_cost(i),
            Expr::Field(b, _) => self.catalog.cy_ns + self.expr_cost(b),
            Expr::Nav(b, field) => {
                // One point lookup per evaluation (no session-cache model).
                self.expr_cost(b) + self.nav_cost(field)
            }
            Expr::Call(_, args) => {
                self.catalog.cy_ns + args.iter().map(|a| self.expr_cost(a)).sum::<f64>()
            }
            Expr::LoadAll(entity) => match self.mappings.entity(entity) {
                Some(m) => self.query_cost_shared(&self.scan_plan(&m.table)),
                None => UNESTIMABLE,
            },
            Expr::Query(spec) | Expr::ScalarQuery(spec) => {
                self.query_cost_shared(&spec.plan)
                    + spec
                        .binds
                        .iter()
                        .map(|(_, b)| self.expr_cost(b))
                        .sum::<f64>()
            }
            Expr::LookupCache(_, key) => self.catalog.cy_ns + self.expr_cost(key),
            Expr::MapGet(m, k) => self.catalog.cy_ns + self.expr_cost(m) + self.expr_cost(k),
        }
    }

    /// Cost of one association navigation: a point query on the target,
    /// amortized by the association's expected session-cache miss rate.
    ///
    /// The ORM session caches entities by primary key, so navigating
    /// across a sweep of the source table issues at most one lookup per
    /// *distinct* foreign-key value: the statistics-driven miss rate is
    /// `NDV(fk) / row_count`. (The paper's model charges every navigation
    /// — its known P0 overestimate; the uniform-NDV baseline,
    /// `use_histograms = false`, reproduces that.) The lookup plan and
    /// miss rate are interned per association field.
    fn nav_cost(&self, field: &str) -> f64 {
        let resolved = {
            let mut cache = self.nav_plans.lock().unwrap();
            cache
                .entry(field.to_string())
                .or_insert_with(|| {
                    for mapping in self.mappings.iter() {
                        if let Some(assoc) = mapping.association(field) {
                            if let Some(target) = self.mappings.entity(&assoc.target_entity) {
                                let plan = LogicalPlan::scan(&target.table).select(ScalarExpr::eq(
                                    ScalarExpr::col(&target.id_column),
                                    ScalarExpr::param("k"),
                                ));
                                let db = self.db.read().unwrap();
                                let miss = match db.table(&mapping.table) {
                                    Ok(t) if t.stats().analyzed && t.stats().row_count > 0 => {
                                        match t.schema().resolve(&assoc.fk_column) {
                                            Ok(i) => (t.stats().ndv(i) as f64
                                                / t.stats().row_count as f64)
                                                .clamp(0.0, 1.0),
                                            Err(_) => 1.0,
                                        }
                                    }
                                    _ => 1.0,
                                };
                                return Some((plan.into(), miss));
                            }
                        }
                    }
                    None
                })
                .clone()
        };
        match resolved {
            Some((p, miss)) => {
                let lookup = self.query_cost_shared(&p);
                if self.use_histograms {
                    self.catalog.cy_ns + miss * lookup
                } else {
                    lookup
                }
            }
            None => UNESTIMABLE,
        }
    }

    /// Cost of a single simple statement (basic block).
    pub fn stmt_cost(&self, stmt: &Stmt) -> f64 {
        let cz = self.catalog.cz_ns;
        match &stmt.kind {
            StmtKind::Let(_, e)
            | StmtKind::Add(_, e)
            | StmtKind::Print(e)
            | StmtKind::Return(Some(e)) => cz + self.expr_cost(e),
            StmtKind::Put(_, k, v) => cz + self.expr_cost(k) + self.expr_cost(v),
            StmtKind::NewCollection(_)
            | StmtKind::NewMap(_)
            | StmtKind::Return(None)
            | StmtKind::Break => cz,
            StmtKind::CacheByColumn { source, .. } => {
                // C_prefetch = C_Q / AF (§VI).
                let fetch = self.expr_cost(source);
                let af = prefetched_table(source)
                    .map(|t| self.catalog.af_for(&t))
                    .unwrap_or(self.catalog.default_af.max(1.0));
                cz + fetch / af
            }
            StmtKind::UpdateQuery { value, key, .. } => {
                cz + self.net.round_trip_ns() as f64
                    + self.catalog.update_server_ns
                    + self.expr_cost(value)
                    + self.expr_cost(key)
            }
            StmtKind::LetCall(_, f, args) => {
                let callee = self.fn_costs.get(f).copied().unwrap_or(UNESTIMABLE);
                cz + callee + args.iter().map(|a| self.expr_cost(a)).sum::<f64>()
            }
            // Compound statements never appear as region leaves; black
            // boxes go through `RegionOp::BlackBox`.
            StmtKind::ForEach { .. }
            | StmtKind::While { .. }
            | StmtKind::If { .. }
            | StmtKind::TryCatch { .. } => UNESTIMABLE,
        }
    }

    /// Probability that `cond` holds, from statistics where possible.
    pub fn cond_probability(&self, cond: &Expr) -> f64 {
        match cond {
            Expr::Lit(Value::Bool(true)) => 1.0,
            Expr::Lit(Value::Bool(false)) => 0.0,
            Expr::Not(inner) => 1.0 - self.cond_probability(inner),
            Expr::Bin(op, l, r) => {
                use minidb::BinOp::*;
                match op {
                    And => self.cond_probability(l) * self.cond_probability(r),
                    Or => {
                        let a = self.cond_probability(l);
                        let b = self.cond_probability(r);
                        (a + b - a * b).min(1.0)
                    }
                    Eq => self
                        .field_column(l)
                        .or_else(|| self.field_column(r))
                        .map(|(t, i)| {
                            let db = self.db.read().unwrap();
                            db.table(&t)
                                .map(|tab| {
                                    let stats = tab.stats();
                                    if self.use_histograms && stats.analyzed {
                                        // Null-aware: equality never
                                        // matches NULLs.
                                        stats.eq_selectivity(i)
                                    } else {
                                        1.0 / stats.ndv(i) as f64
                                    }
                                })
                                .unwrap_or(self.catalog.default_cond_p)
                        })
                        .unwrap_or(self.catalog.default_cond_p),
                    Lt | Le | Gt | Ge => self.range_probability(l, r, *op).unwrap_or(1.0 / 3.0),
                    Ne => 0.9,
                    _ => self.catalog.default_cond_p,
                }
            }
            _ => self.catalog.default_cond_p,
        }
    }

    /// Probability of `row.field ⋈ literal` from the column's histogram
    /// (§VI: `p` from database statistics). `None` when the shape or the
    /// statistics cannot answer — the caller keeps the 1/3 default.
    fn range_probability(&self, l: &Expr, r: &Expr, op: minidb::BinOp) -> Option<f64> {
        if !self.use_histograms {
            return None;
        }
        let (field, lit, op) = match (l, r) {
            (f @ Expr::Field(..), Expr::Lit(v)) => (f, v, op),
            (Expr::Lit(v), f @ Expr::Field(..)) => (f, v, op.mirror()),
            _ => return None,
        };
        let (table, i) = self.field_column(field)?;
        let db = self.db.read().unwrap();
        db.table(&table).ok()?.stats().range_selectivity(i, op, lit)
    }

    /// Trip-count estimate for a `while` loop: counted loops of the form
    /// `while (k < N)` / `while (k <= N)` are assumed to start at 0 with
    /// unit steps (the common shape in the workloads); anything else uses
    /// the catalog default (§VI: "we use an approximation for the number
    /// of loop iterations, which can be tuned").
    fn while_iters(&self, cond: &Expr) -> f64 {
        if let Expr::Bin(op, l, r) = cond {
            if matches!(l.as_ref(), Expr::Var(_)) {
                if let Expr::Lit(Value::Int(n)) = r.as_ref() {
                    match op {
                        minidb::BinOp::Lt => return (*n).max(0) as f64,
                        minidb::BinOp::Le => return (*n + 1).max(0) as f64,
                        _ => {}
                    }
                }
            }
        }
        self.catalog.default_loop_iters
    }

    /// Per-iteration probability that executing `body` exits the enclosing
    /// loop via `break`: `1 − Π(1 − p_i)` over a sequence, with conditional
    /// breaks weighted by their condition's statistics-driven probability.
    /// `node` gives a body's operator and children — the search reads them
    /// off a memo group, as-written costing off a tree. Nested loops
    /// swallow their own breaks and contribute nothing, as do simple
    /// statements, empty bodies and black boxes.
    fn break_probability<'a, T>(
        &self,
        body: &'a T,
        node: &impl Fn(&'a T) -> Option<(&'a RegionOp, &'a [T])>,
    ) -> f64 {
        match node(body) {
            Some((RegionOp::Leaf(s), _)) if s.kind == StmtKind::Break => 1.0,
            Some((RegionOp::Seq(_), children)) => {
                let mut cont = 1.0;
                for c in children {
                    cont *= 1.0 - self.break_probability(c, node);
                }
                (1.0 - cont).clamp(0.0, 1.0)
            }
            Some((RegionOp::Cond { cond }, children)) => {
                let p = self.cond_probability(cond);
                let t = self.break_probability(&children[0], node);
                let el = self.break_probability(&children[1], node);
                (p * t + (1.0 - p) * el).clamp(0.0, 1.0)
            }
            _ => 0.0,
        }
    }

    /// Expected number of iterations a loop of nominal trip count `n`
    /// actually executes when each iteration exits with probability `p`:
    /// `(1 − (1−p)ⁿ) / p`, capped to `[1, n]` (geometric truncated at
    /// `n`). `p = 0` leaves `n` untouched.
    fn expected_iterations(n: f64, p: f64) -> f64 {
        if p <= 0.0 || n <= 1.0 {
            return n;
        }
        ((1.0 - (1.0 - p).powf(n)) / p).clamp(1.0, n)
    }

    /// If `e` reads a column of a known table (`row.field`), return it.
    fn field_column(&self, e: &Expr) -> Option<(String, usize)> {
        let Expr::Field(_, col) = e else { return None };
        let db = self.db.read().unwrap();
        for table in db.tables() {
            if let Ok(i) = table.schema().resolve(col) {
                return Some((table.name().to_string(), i));
            }
        }
        None
    }

    /// §VI's region formulas, stated once: the cost of one region operator
    /// from its children's costs and — for the two loops — its body's
    /// per-iteration break probability. [`CostModel::cost`] hands it the
    /// search's best child-group costs, [`RegionCostModel::written_cost`]
    /// its own recursion's.
    fn region_cost(
        &self,
        op: &RegionOp,
        child_costs: &[f64],
        break_p: impl FnOnce() -> f64,
    ) -> f64 {
        match op {
            RegionOp::Leaf(stmt) => self.stmt_cost(stmt),
            RegionOp::Seq(_) => child_costs.iter().sum(),
            RegionOp::Cond { cond } => {
                let p = self.cond_probability(cond);
                let c_pred = self.catalog.cy_ns + self.expr_cost(cond);
                p * child_costs[0] + (1.0 - p) * child_costs[1] + c_pred
            }
            RegionOp::Loop { iter, .. } => {
                // Early exits shorten loops: a body that breaks with
                // per-iteration probability p runs ~geometric(p) times.
                let iters = Self::expected_iterations(self.iter_rows(iter), break_p());
                self.iter_fetch_cost(iter) + iters * (child_costs[0] + self.catalog.cz_ns)
            }
            RegionOp::While { cond } => {
                let per_iter = child_costs[0] + self.catalog.cz_ns + self.expr_cost(cond);
                Self::expected_iterations(self.while_iters(cond), break_p()) * per_iter
            }
            // An unstructured fragment costs what its statements cost as
            // written, a `try` being its body followed by its handler.
            RegionOp::BlackBox(stmts) => {
                let priced = stmts.iter().map(|s| match &s.kind {
                    StmtKind::TryCatch { body, handler } => {
                        self.written_cost(body) + self.written_cost(handler)
                    }
                    _ => self.written_cost(std::slice::from_ref(s)),
                });
                priced.sum()
            }
            RegionOp::Empty => 0.0,
        }
    }

    /// Cost of `stmts` exactly as written (no transformations). Code with
    /// no alternatives needs no memo and no search: this folds
    /// `region_cost` over the region tree — the search's own arithmetic,
    /// in its order, so a program that stays as written gets the same bits
    /// from both.
    pub fn written_cost(&self, stmts: &[Stmt]) -> f64 {
        self.tree_cost(&region_to_optree(&Region::from_stmts(stmts)))
    }

    fn tree_cost(&self, tree: &OpTree<RegionOp>) -> f64 {
        fn subtree(child: &Child<RegionOp>) -> &OpTree<RegionOp> {
            match child {
                Child::Tree(t) => t,
                Child::Group(g) => unreachable!("region trees have no group references (g{g})"),
            }
        }
        let costs: Vec<f64> = tree
            .children
            .iter()
            .map(|c| self.tree_cost(subtree(c)))
            .collect();
        let node = |c| Some(subtree(c)).map(|t| (&t.op, &t.children[..]));
        self.region_cost(&tree.op, &costs, || {
            self.break_probability(&tree.children[0], &node)
        })
    }
}

/// Recover `(table, column)` from a cache name minted by
/// [`fir::codegen::cache_name`].
fn parse_cache_name(cache: &str) -> Option<(String, String)> {
    let rest = cache.strip_prefix("cache_")?;
    let (table, col) = rest.split_once("_by_")?;
    Some((table.to_string(), col.to_string()))
}

/// The table a prefetch source fetches, if recognizable.
fn prefetched_table(source: &Expr) -> Option<String> {
    match source {
        Expr::Query(spec) => spec.plan.base_tables().first().map(|s| s.to_string()),
        Expr::LoadAll(_) => None, // resolved through mappings by expr_cost
        _ => None,
    }
}

impl CostModel<RegionOp> for RegionCostModel {
    fn cost(&self, memo: &Memo<RegionOp>, expr: MExprId, child_costs: &[f64]) -> f64 {
        let e = memo.expr(expr);
        // A body group's break probability is read off its original
        // expression (the region as written; rewritten alternatives are
        // fold-generated and never contain breaks).
        let node = |g: &GroupId| {
            let original = memo.expr(*memo.group(memo.find(*g)).first()?);
            Some((&original.op, &original.children[..]))
        };
        self.region_cost(&e.op, child_costs, || {
            self.break_probability(&e.children[0], &node)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imperative::ast::QuerySpec;
    use minidb::{Column, DataType, Database, Schema};
    use orm::EntityMapping;

    fn fixture(net: NetworkProfile, af: f64) -> RegionCostModel {
        fixture_with(crate::OptimizerConfig {
            network: net,
            catalog: CostCatalog::with_af(af),
            ..Default::default()
        })
    }

    fn fixture_with(config: crate::OptimizerConfig) -> RegionCostModel {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..1000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 100)]).unwrap();
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
        let mut mappings = MappingRegistry::new();
        mappings.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
            "customer",
            "Customer",
            "o_customer_sk",
        ));
        mappings.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
        RegionCostModel::new(
            minidb::shared(db),
            std::sync::Arc::new(FuncRegistry::with_builtins()),
            Arc::new(mappings),
            &config,
            Arc::new(EstimateCache::new()),
            None,
        )
    }

    #[test]
    fn query_cost_includes_round_trip_and_transfer() {
        let m = fixture(NetworkProfile::slow_remote(), 1.0);
        let plan = minidb::sql::parse("select * from orders").unwrap();
        let c = m.query_cost(&plan);
        // ≥ RTT (250 ms) + transfer of 16 kB at 62.5 kB/s (≈ 0.26 s).
        assert!(c >= 250e6 + 0.2e9, "got {c}");
    }

    #[test]
    fn faster_network_means_cheaper_queries() {
        let slow = fixture(NetworkProfile::slow_remote(), 1.0);
        let fast = fixture(NetworkProfile::fast_local(), 1.0);
        let plan = minidb::sql::parse("select * from orders").unwrap();
        assert!(fast.query_cost(&plan) < slow.query_cost(&plan) / 100.0);
    }

    #[test]
    fn prefetch_amortization_divides_cost() {
        let m1 = fixture(NetworkProfile::slow_remote(), 1.0);
        let m50 = fixture(NetworkProfile::slow_remote(), 50.0);
        let stmt = Stmt::new(StmtKind::CacheByColumn {
            cache: "cache_customer_by_c_customer_sk".into(),
            source: Expr::Query(QuerySpec::sql("select * from customer")),
            key_col: "c_customer_sk".into(),
        });
        let c1 = m1.stmt_cost(&stmt);
        let c50 = m50.stmt_cost(&stmt);
        assert!(c50 < c1 / 10.0, "AF=50 amortizes: {c1} vs {c50}");
    }

    #[test]
    fn nav_cost_amortizes_session_cache_hits() {
        // 1000 orders navigate to only 100 distinct customers: the ORM
        // session cache absorbs 90 % of the lookups, so the amortized
        // per-navigation cost is ~0.1 round trips.
        let m = fixture(NetworkProfile::slow_remote(), 1.0);
        let nav = Expr::nav(Expr::var("o"), "customer");
        let c = m.expr_cost(&nav);
        assert!(c >= 24e6, "10 % of a 250 ms round trip: {c}");
        assert!(c <= 27e6, "cache hits are client-local: {c}");
        // The uniform baseline keeps the paper's every-nav-pays model.
        let legacy = fixture_with(crate::OptimizerConfig {
            network: NetworkProfile::slow_remote(),
            catalog: CostCatalog::with_af(1.0),
            use_histograms: false,
            ..Default::default()
        });
        let c = legacy.expr_cost(&nav);
        assert!(c >= 250e6, "point lookup pays the round trip: {c}");
        assert!(c <= 251e6, "but transfers only one row: {c}");
    }

    #[test]
    fn iter_rows_uses_estimates() {
        let m = fixture(NetworkProfile::fast_local(), 1.0);
        assert_eq!(m.iter_rows(&Expr::LoadAll("Order".into())), 1000.0);
        let q = Expr::Query(QuerySpec::sql(
            "select * from orders where o_customer_sk = 5",
        ));
        assert!((m.iter_rows(&q) - 10.0).abs() < 1.0);
        // Cache lookups estimate rows-per-key.
        let lk = Expr::LookupCache(
            "cache_orders_by_o_customer_sk".into(),
            Box::new(Expr::lit(1i64)),
        );
        assert!((m.iter_rows(&lk) - 10.0).abs() < 1.0);
        // Unknown variable → default.
        assert_eq!(m.iter_rows(&Expr::var("ghost")), 1000.0);
    }

    #[test]
    fn cond_probability_from_stats() {
        let m = fixture(NetworkProfile::fast_local(), 1.0);
        let eq = Expr::bin(
            minidb::BinOp::Eq,
            Expr::field(Expr::var("o"), "o_customer_sk"),
            Expr::lit(5i64),
        );
        assert!(
            (m.cond_probability(&eq) - 0.01).abs() < 1e-9,
            "1/NDV = 1/100"
        );
        // Range conditions read the column histogram: o_id is uniform on
        // 0..1000, so `o_id > 1` holds for ~99.8 % of rows (the pre-
        // histogram model said a flat 1/3).
        let cmp = Expr::bin(
            minidb::BinOp::Gt,
            Expr::field(Expr::var("o"), "o_id"),
            Expr::lit(1i64),
        );
        assert!(m.cond_probability(&cmp) > 0.95);
        let narrow = Expr::bin(
            minidb::BinOp::Gt,
            Expr::field(Expr::var("o"), "o_id"),
            Expr::lit(990i64),
        );
        let p = m.cond_probability(&narrow);
        assert!(p < 0.05 && p > 0.0, "top 1 % of the range: {p}");
        // Non-literal comparisons keep the tunable default.
        let unknown = Expr::bin(
            minidb::BinOp::Gt,
            Expr::field(Expr::var("o"), "o_id"),
            Expr::var("x"),
        );
        assert!((m.cond_probability(&unknown) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.cond_probability(&Expr::lit(true)), 1.0);
    }

    #[test]
    fn n_plus_one_loop_costs_n_lookups() {
        // Cost of P0's loop must scale with the number of orders.
        let m = fixture(NetworkProfile::slow_remote(), 1.0);
        let mut memo: Memo<RegionOp> = Memo::new();
        let body = Stmt::new(StmtKind::Let(
            "cust".into(),
            Expr::nav(Expr::var("o"), "customer"),
        ));
        let region = imperative::regions::Region::from_stmts(&[Stmt::new(StmtKind::ForEach {
            var: "o".into(),
            iter: Expr::LoadAll("Order".into()),
            body: vec![body],
        })]);
        let root = memo.insert_tree(&crate::region_ops::region_to_optree(&region), None);
        let best = volcano::best_plan(&memo, root, &m).unwrap();
        // 1000 iterations × amortized lookup ≈ 100 distinct customers
        // × ≥250 ms round trip ≈ ≥25 s — still ruinous vs one join.
        assert!(best.cost >= 24e9, "got {}", best.cost);
    }

    /// One statement, one price: a `try` body costs what the same
    /// statements cost outside it. (The black-box formulas were a second
    /// copy of §VI's: the `if` came out short by `expr_cost(cond)`, and
    /// `while (k < 3)` ran `default_loop_iters` times, its condition free.)
    #[test]
    fn try_body_is_priced_like_the_same_statements_outside_it() {
        let m = fixture(NetworkProfile::slow_remote(), 1.0);
        let lt = |l: Expr, r: Expr| Expr::bin(minidb::BinOp::Lt, l, r);
        let bump = |v: &str| {
            let plus_one = Expr::bin(minidb::BinOp::Add, Expr::var(v), Expr::lit(1i64));
            Stmt::new(StmtKind::Let(v.into(), plus_one))
        };
        let s = vec![
            Stmt::new(StmtKind::If {
                cond: lt(Expr::field(Expr::var("o"), "o_id"), Expr::var("k")),
                then_branch: vec![bump("x")],
                else_branch: vec![],
            }),
            Stmt::new(StmtKind::While {
                cond: lt(Expr::var("k"), Expr::lit(3i64)),
                body: vec![bump("k")],
            }),
        ];
        let searched = |stmts: &[Stmt]| {
            let mut memo: Memo<RegionOp> = Memo::new();
            let root = memo.insert_tree(&region_to_optree(&Region::from_stmts(stmts)), None);
            volcano::best_plan(&memo, root, &m).unwrap().cost
        };
        let in_try = [Stmt::new(StmtKind::TryCatch {
            body: s.clone(),
            handler: vec![],
        })];
        assert_eq!(searched(&in_try).to_bits(), searched(&s).to_bits());
        // And the search prices a program as written to the bit.
        let written = m.written_cost(&s);
        assert_eq!(written.to_bits(), searched(&s).to_bits());
    }

    #[test]
    fn unknown_function_cost_is_prohibitive_not_infinite() {
        let m = fixture(NetworkProfile::fast_local(), 1.0);
        let stmt = Stmt::new(StmtKind::LetCall("x".into(), "mystery".into(), vec![]));
        let c = m.stmt_cost(&stmt);
        assert!(c >= UNESTIMABLE && c.is_finite());
    }
}
