//! The COBRA optimizer: Region DAG construction, alternative generation,
//! least-cost extraction, program emission.
//!
//! One `optimize_program` is one pass down this file: the entry function's
//! region tree goes into one [`Memo`] (`DagBuilder`), every cursor loop's
//! alternatives come through the one `LoopGate`, one `volcano::cost_table`
//! prices the DAG, one plan is extracted and emitted. What the program (or
//! a callee) costs *as written* takes no memo and no search — it is
//! [`RegionCostModel::written_cost`], a recursion over the region tree.

use crate::catalog::CostCatalog;
use crate::config::{CobraBuilder, OptimizerConfig, SearchBudget, VerifyLevel};
use crate::cost::RegionCostModel;
use crate::emit;
use crate::region_ops::{region_to_optree, RegionOp};
use crate::report::{region_label, ChoicePoint, OptimizationReport, ReportedAlternative};
use crate::transforms;
use fir::build::FirAlternative;
use fir::RuleSet;
use imperative::ast::{Expr, Function, Program, Stmt, StmtKind};
use imperative::regions::{Region, RegionKind};
use minidb::{DbError, DbResult, FuncRegistry, LogicalPlan};
use netsim::NetworkProfile;
use orm::MappingRegistry;

use std::collections::{HashMap, HashSet};

use volcano::{CostModel, GroupId, MExprId, Memo};

/// The result of optimizing a program.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The least-cost program (entry function; helpers are unchanged).
    pub program: Function,
    /// Estimated cost of the chosen program, ns.
    pub est_cost_ns: f64,
    /// Estimated cost of the *original* program under the same model, ns.
    pub original_cost_ns: f64,
    /// Number of complete (acyclic) programs representable in the DAG.
    pub alternatives: u64,
    /// Regions with more than one alternative (cost-based choice points;
    /// counts self-referential alternatives that `alternatives` cannot).
    pub choice_points: usize,
    /// Live groups (OR nodes) in the Region DAG.
    pub groups: usize,
    /// M-exprs (AND nodes) in the Region DAG.
    pub exprs: usize,
    /// Feature tags of the chosen program (see [`emit::describe`]).
    pub tags: Vec<&'static str>,
    /// Cost estimates served from the per-search memo cache (see
    /// [`volcano::CostMemo`]).
    pub cost_cache_hits: u64,
    /// Cost estimates computed by the underlying model during the search.
    pub cost_cache_misses: u64,
    /// Plan estimates served from the fingerprint-keyed estimator cache
    /// (see [`minidb::EstimateCache`]) during this search.
    pub estimator_cache_hits: u64,
    /// Plan estimates the estimator had to compute during this search.
    pub estimator_cache_misses: u64,
    /// Estimates computed with an *observed* runtime cardinality (from
    /// the attached [`minidb::FeedbackStore`]) substituted for the
    /// model's guess; 0 when no feedback store is attached or nothing
    /// relevant has been observed yet.
    pub feedback_overrides: u64,
    /// True when a [`SearchBudget`] bound clipped the search (alternative
    /// generation or memo growth) — alternatives were dropped rather than
    /// explored. Also surfaced as the `"budget-exhausted"` tag.
    pub budget_exhausted: bool,
    /// The record of runtime-validated selection (predicted vs measured
    /// ranks, promotion decision) when validation ran with more than one
    /// candidate; `None` when validation is disabled or the program had a
    /// single candidate. See [`crate::SelectionValidation`].
    pub validation: Option<crate::validation::SelectionValidation>,
    /// Diagnostics of alternatives the static rewrite verifier rejected
    /// (`VerifyLevel::Reject` only; `Panic` aborts instead and `Off`
    /// never verifies). Non-empty also surfaces as the
    /// `"verifier-rejected"` tag.
    pub verifier_rejections: Vec<String>,
}

/// The COBRA optimizer (Figure 1: program + transformations + cost model
/// → least-cost equivalent program).
///
/// Construct one with [`Cobra::builder`]; the optimizer owns a database
/// handle, ORM mappings, a function registry, and an
/// [`OptimizerConfig`] (network profile, cost catalog, [`RuleSet`],
/// [`SearchBudget`]).
pub struct Cobra {
    db: minidb::SharedDb,
    funcs: std::sync::Arc<FuncRegistry>,
    mappings: std::sync::Arc<MappingRegistry>,
    config: OptimizerConfig,
    /// Whole-plan estimate cache shared by every search this optimizer
    /// runs, on whichever thread; epoch-validated against the database, so
    /// it survives across programs. See [`minidb::EstimateCache`].
    estimates: std::sync::Arc<minidb::EstimateCache>,
    /// Runtime cardinality observations ([`CobraBuilder::feedback`]);
    /// estimates prefer these, and [`Cobra::reoptimize_on_drift`] watches
    /// them for model drift.
    feedback: Option<std::sync::Arc<minidb::FeedbackStore>>,
}

// The optimizer pipeline is thread-safe by construction: shared state goes
// through `Arc`/`RwLock`, interior mutability through `Mutex`/atomics. The
// server's connection threads share one `&Cobra` per tenant, so the
// contract is enforced at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cobra>();
    assert_send_sync::<RegionCostModel>();
    assert_send_sync::<Optimized>();
};

impl Cobra {
    /// Start a [`CobraBuilder`] over a shared database handle — the
    /// primary way to construct an optimizer.
    ///
    /// ```
    /// use cobra_core::{Cobra, CostCatalog};
    /// use netsim::NetworkProfile;
    ///
    /// let db = minidb::shared(minidb::Database::new());
    /// let cobra = Cobra::builder(db)
    ///     .network(NetworkProfile::slow_remote())
    ///     .catalog(CostCatalog::with_af(50.0))
    ///     .build();
    /// assert_eq!(cobra.network().name(), "slow-remote");
    /// ```
    pub fn builder(db: minidb::SharedDb) -> CobraBuilder {
        CobraBuilder::new(db)
    }

    /// Assemble an optimizer from its parts (what [`CobraBuilder::build`]
    /// calls).
    pub(crate) fn from_parts(
        db: minidb::SharedDb,
        funcs: std::sync::Arc<FuncRegistry>,
        mappings: MappingRegistry,
        config: OptimizerConfig,
        feedback: Option<std::sync::Arc<minidb::FeedbackStore>>,
    ) -> Cobra {
        Cobra {
            db,
            funcs,
            mappings: std::sync::Arc::new(mappings),
            config,
            estimates: std::sync::Arc::new(minidb::EstimateCache::new()),
            feedback,
        }
    }

    /// Build a [`RegionCostModel`] wired to this optimizer's configuration
    /// and shared estimate cache, knowing `var_plans` and `fn_costs`.
    fn cost_model(
        &self,
        var_plans: HashMap<String, minidb::SharedPlan>,
        fn_costs: HashMap<String, f64>,
    ) -> RegionCostModel {
        let mut model = RegionCostModel::new(
            self.db.clone(),
            self.funcs.clone(),
            self.mappings.clone(),
            &self.config,
            self.estimates.clone(),
            self.feedback.clone(),
        );
        model.set_var_plans(var_plans);
        model.set_fn_costs(fn_costs);
        model
    }

    /// The gate every cursor loop of `program` goes through to its
    /// admissible alternatives, under this optimizer's rules, budget,
    /// verification level and catalog.
    pub(crate) fn loop_gate(&self, program: &Program) -> LoopGate<'_> {
        LoopGate {
            db: &self.db,
            mappings: &self.mappings,
            rules: &self.config.rules,
            max_alternatives: self.config.budget.max_alternatives_per_region,
            verify: self.config.verify_rewrites,
            updated_tables: transforms::updated_tables(program),
        }
    }

    /// Build (but do not search) the Region DAG for `program`: the memo
    /// with every registered alternative plus its root group, alongside a
    /// cost model configured like [`Cobra::optimize_program`]'s. This is
    /// the hook the equivalence suites search through: worklist
    /// `volcano::cost_table` vs `volcano::cost_table_sweeps`, the model
    /// bare vs wrapped in `volcano::CostMemo`, and the estimate cache on
    /// vs [`RegionCostModel::disable_estimate_cache`].
    pub fn region_dag(
        &self,
        program: &Program,
    ) -> DbResult<(Memo<RegionOp>, GroupId, RegionCostModel)> {
        let built = self.build_dag(program);
        Ok((built.memo, built.root, built.model))
    }

    /// The DAG-construction half of [`Cobra::run_search`].
    fn build_dag(&self, program: &Program) -> BuiltDag {
        let entry = program.entry();
        let mut memo: Memo<RegionOp> = Memo::new();
        let mut var_plans: HashMap<String, minidb::SharedPlan> = HashMap::new();

        // Costs of callee functions (plain, no transformation) for
        // `LetCall` statements in non-inlined variants.
        let fn_costs = self.callee_costs(program);

        // Variant 0: the original entry function.
        let live0: Vec<String> = entry.params.clone();
        let mut builder = DagBuilder {
            memo: &mut memo,
            gate: self.loop_gate(program),
            var_plans: &mut var_plans,
            budget: &self.config.budget,
            provenance: HashMap::new(),
            exhausted: false,
            rejections: Vec::new(),
        };
        let region = Region::from_function(entry);
        let root = builder.insert_region(&region, &live0, None, None);

        // Variant 1: the inlined entry, if calls can be inlined (pattern D).
        if self.config.rules.is_enabled("inline") {
            if let Some(inlined) = transforms::inline_calls(program) {
                if builder.memo_has_room() {
                    let before: Vec<MExprId> = builder.memo.group(root).to_vec();
                    let region = Region::from_function(&inlined);
                    builder.insert_region(&region, &live0, None, Some(root));
                    for &e in builder.memo.group(root) {
                        if !before.contains(&e) {
                            builder.provenance.insert(e, vec!["inline"]);
                        }
                    }
                } else {
                    builder.exhausted = true;
                }
            }
        }
        let DagBuilder {
            provenance,
            exhausted,
            rejections,
            ..
        } = builder;
        let model = self.cost_model(var_plans, fn_costs);
        BuiltDag {
            memo,
            root,
            provenance,
            exhausted,
            model,
            rejections,
        }
    }

    /// The network profile this optimizer costs against.
    pub fn network(&self) -> &NetworkProfile {
        &self.config.network
    }

    /// The cost catalog.
    pub fn catalog(&self) -> &CostCatalog {
        &self.config.catalog
    }

    /// The transformation rules the search explores.
    pub fn rules(&self) -> &RuleSet {
        &self.config.rules
    }

    /// The search budget.
    pub fn budget(&self) -> &SearchBudget {
        &self.config.budget
    }

    /// The whole configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Optimize a single function (no callees).
    pub fn optimize(&self, f: &Function) -> DbResult<Optimized> {
        self.optimize_program(&Program::single(f.clone()))
    }

    /// Optimize a program's entry function: builds the Region DAG over the
    /// original (plus the inlined variant when procedure calls can be
    /// inlined and the `inline` rule is enabled), generates alternatives
    /// for every loop/statement region under the configured [`RuleSet`]
    /// and [`SearchBudget`], and extracts the least-cost program.
    pub fn optimize_program(&self, program: &Program) -> DbResult<Optimized> {
        Ok(self.run_search(program)?.summary)
    }

    /// Optimize like [`Cobra::optimize_program`], additionally reporting
    /// every choice point the cost model decided: the winning and losing
    /// alternatives per region, their estimated costs, and which rules
    /// produced them. The report pretty-prints via [`std::fmt::Display`].
    pub fn explain(&self, program: &Program) -> DbResult<OptimizationReport> {
        let mut report = self.run_search(program)?.into_report();
        if self.feedback.is_some() {
            report.drift = Some(self.estimation_drift());
        }
        Ok(report)
    }

    /// The shared search behind [`Cobra::optimize_program`] and
    /// [`Cobra::explain`].
    fn run_search(&self, program: &Program) -> DbResult<SearchRun> {
        let entry = program.entry();
        let BuiltDag {
            memo,
            root,
            provenance,
            exhausted: budget_exhausted,
            model,
            rejections: verifier_rejections,
        } = self.build_dag(program);

        // Cost-based extraction.
        // Memoize estimates across the search: value iteration and
        // extraction revisit the same m-exprs many times, and the cost
        // model (estimator + network formulas) dominates search time. A
        // `CostMemo` is valid for exactly one `Memo`, so each search
        // builds its own.
        // With validation enabled, extract the k cheapest structurally
        // distinct candidates instead of just the argmin; slot 0 of
        // `top_k_plans` is bit-identical to `best_plan_from`.
        let top_k = self.config.validation.as_ref().map(|v| v.top_k.max(1));
        let memoized = volcano::CostMemo::new(&model);
        let table = volcano::cost_table(&memo, &memoized, None);
        let mut plans: Vec<volcano::BestPlan<RegionOp>> = match top_k {
            None => volcano::best_plan_from(&memo, root, &memoized, &table)
                .into_iter()
                .collect(),
            Some(k) => volcano::top_k_plans(&memo, root, &memoized, &table, k),
        };
        let (cache_hits, cache_misses) = (memoized.hits(), memoized.misses());
        if plans.is_empty() {
            return Err(DbError::Invalid("no plan for program".to_string()));
        }

        // Runtime-validated selection: micro-measure the candidates and
        // promote the measured winner (trust, but verify).
        let mut validation = None;
        let mut chosen_rank = 0usize;
        if let Some(vcfg) = &self.config.validation {
            if plans.len() > 1 {
                let outcome = crate::validation::validate_selection(
                    &self.endpoint(),
                    program,
                    &entry.name,
                    &entry.params,
                    &plans,
                    vcfg,
                );
                chosen_rank = outcome.promoted_rank.min(plans.len() - 1);
                validation = Some(outcome);
            }
        }
        let best = plans.swap_remove(chosen_rank);

        let program_out = emit::emit_function(&entry.name, &entry.params, &best.tree);
        let mut tags = emit::describe(&program_out);
        if chosen_rank > 0 {
            tags.push("validated-promotion");
        }
        if budget_exhausted {
            tags.push("budget-exhausted");
        }
        if !verifier_rejections.is_empty() {
            tags.push("verifier-rejected");
        }
        let original_cost_ns = model.written_cost(&entry.body);

        let choice_points = (0..memo.num_groups())
            .filter(|&g| memo.find(g) == g && memo.group(g).len() > 1)
            .count();
        let summary = Optimized {
            program: program_out,
            est_cost_ns: best.cost,
            original_cost_ns,
            alternatives: volcano::count_plans(&memo, root),
            choice_points,
            groups: memo.num_live_groups(),
            exprs: memo.num_exprs(),
            tags,
            cost_cache_hits: cache_hits,
            cost_cache_misses: cache_misses,
            estimator_cache_hits: model.estimate_cache_hits(),
            estimator_cache_misses: model.estimate_cache_misses(),
            feedback_overrides: model.feedback_overrides(),
            budget_exhausted,
            validation,
            verifier_rejections,
        };
        Ok(SearchRun {
            memo,
            best,
            table,
            provenance,
            model,
            summary,
        })
    }

    /// What this optimizer prices programs against, as something to run
    /// them on: its database, functions, mappings and network, its
    /// catalog's prices, and its feedback store to record into.
    fn endpoint(&self) -> interp::Endpoint {
        interp::Endpoint {
            db: self.db.clone(),
            funcs: self.funcs.clone(),
            mappings: self.mappings.clone(),
            net: self.config.network.clone(),
            prices: self.config.catalog.prices(),
            feedback: self.feedback.clone(),
        }
    }

    /// Run `program` on the machine this optimizer's cost model describes:
    /// a fresh connection over its network at its catalog's prices, each
    /// query recorded into its feedback store if it has one. What
    /// `est_cost_ns` is an estimate *of* is this run's `elapsed_ns`.
    pub fn run(&self, program: &Program) -> DbResult<interp::Outcome> {
        interp::run_program(self.endpoint(), program)
    }

    /// How far the statistics-only model has drifted from runtime
    /// observation: the worst multiplicative divergence between the
    /// model's cardinality estimate (histograms, **no** feedback) and the
    /// observed cardinality, across every plan the feedback store has
    /// seen. `1.0` means perfect agreement (or no feedback/observations);
    /// `4.0` means some plan's cardinality is off by 4× in either
    /// direction. Cardinalities below one row are clamped to one so empty
    /// results cannot produce infinite drift.
    pub fn estimation_drift(&self) -> f64 {
        let Some(fb) = &self.feedback else {
            return 1.0;
        };
        let db = self.db.read().unwrap();
        let estimator =
            minidb::Estimator::new(&db, &self.funcs).with_histograms(self.config.use_histograms);
        let mut worst = 1.0f64;
        for (plan, obs, stamp) in fb.snapshot_stamped() {
            // Observations of since-rewritten tables are evidence about
            // data that no longer exists — disagreeing with them is not
            // drift.
            if stamp.is_some_and(|s| s != db.plan_data_stamp(plan.as_plan())) {
                continue;
            }
            let Ok(est) = estimator.estimate(plan.as_plan()) else {
                continue;
            };
            let (a, b) = (est.rows.max(1.0), obs.rows.max(1.0));
            worst = worst.max(a / b).max(b / a);
        }
        worst
    }

    /// Re-optimize `program` if the cost model's estimates have drifted
    /// from runtime observation by at least `threshold` (a multiplicative
    /// factor; e.g. `2.0` re-optimizes once some observed cardinality is
    /// off by 2× from the model's guess — see
    /// [`Cobra::estimation_drift`]).
    ///
    /// On drift, the database's stats epoch is bumped first
    /// ([`minidb::Database::bump_stats_epoch`]), so every cached estimate
    /// — this optimizer's shared [`minidb::EstimateCache`] *and* any other
    /// cache stamped against the same database — is invalidated and the
    /// new search re-estimates everything, now preferring the observed
    /// cardinalities. Returns `Ok(None)` when estimates still agree with
    /// observation (or no feedback store is attached).
    pub fn reoptimize_on_drift(
        &self,
        program: &Program,
        threshold: f64,
    ) -> DbResult<Option<Optimized>> {
        if self.feedback.is_none() || self.estimation_drift() < threshold {
            return Ok(None);
        }
        self.db.write().unwrap().bump_stats_epoch();
        self.optimize_program(program).map(Some)
    }

    /// Cost a function as-is (no transformations) under this optimizer's
    /// model — used for reporting and for the experiments' cost columns.
    pub fn cost_of(&self, f: &Function) -> f64 {
        let mut var_plans = HashMap::new();
        transforms::collect_var_plans(&f.body, &self.mappings, &mut var_plans);
        self.cost_model(var_plans, HashMap::new())
            .written_cost(&f.body)
    }

    /// Plain costs of every non-entry function (callee bodies), used for
    /// `LetCall` statements. Their loops see every function's collection
    /// bindings (flow-insensitive, like the search's).
    fn callee_costs(&self, program: &Program) -> HashMap<String, f64> {
        let callees = &program.functions[1..];
        if callees.is_empty() {
            return HashMap::new();
        }
        let mut var_plans = HashMap::new();
        for f in &program.functions {
            transforms::collect_var_plans(&f.body, &self.mappings, &mut var_plans);
        }
        let model = self.cost_model(var_plans, HashMap::new());
        let cost = |f: &Function| (f.name.clone(), model.written_cost(&f.body));
        callees.iter().map(cost).collect()
    }
}

/// A constructed Region DAG, ready for cost-based extraction.
struct BuiltDag {
    memo: Memo<RegionOp>,
    root: GroupId,
    provenance: HashMap<MExprId, Vec<&'static str>>,
    exhausted: bool,
    model: RegionCostModel,
    /// Diagnostics of alternatives the static verifier dropped
    /// (`VerifyLevel::Reject`).
    rejections: Vec<String>,
}

/// Everything one search produced: the summary plus the introspection
/// state [`Cobra::explain`] turns into an [`OptimizationReport`].
struct SearchRun {
    memo: Memo<RegionOp>,
    best: volcano::BestPlan<RegionOp>,
    table: volcano::CostTable,
    provenance: HashMap<MExprId, Vec<&'static str>>,
    model: RegionCostModel,
    summary: Optimized,
}

impl SearchRun {
    fn into_report(self) -> OptimizationReport {
        let SearchRun {
            memo,
            best,
            table,
            provenance,
            model,
            summary,
        } = self;
        let chosen: HashMap<GroupId, MExprId> = best.choices.iter().copied().collect();

        let mut choice_points = Vec::new();
        for g in 0..memo.num_groups() {
            if memo.find(g) != g || memo.group(g).len() <= 1 {
                continue;
            }
            let exprs = memo.group(g).to_vec();
            // The group's first expression is the region as originally
            // inserted — its operator names the region.
            let region = region_label(&memo.expr(exprs[0]).op);
            let on_chosen_path = chosen.contains_key(&g);
            let mut alternatives: Vec<ReportedAlternative> = exprs
                .iter()
                .map(|&eid| {
                    let e = memo.expr(eid);
                    let child_costs: Vec<f64> = e
                        .children
                        .iter()
                        .map(|&c| table.group_costs[memo.find(c)])
                        .collect();
                    let cost_ns = if child_costs.iter().any(|c| !c.is_finite()) {
                        f64::INFINITY
                    } else {
                        model.cost(&memo, eid, &child_costs)
                    };
                    ReportedAlternative {
                        expr: eid,
                        label: region_label(&e.op),
                        rules: provenance
                            .get(&eid)
                            .cloned()
                            .unwrap_or_else(|| vec!["original"]),
                        cost_ns,
                        chosen: chosen.get(&g) == Some(&eid),
                    }
                })
                .collect();
            // Ascending cost; the chosen alternative leads among ties.
            alternatives.sort_by(|a, b| {
                (a.cost_ns, !a.chosen)
                    .partial_cmp(&(b.cost_ns, !b.chosen))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            choice_points.push(ChoicePoint {
                group: g,
                region,
                on_chosen_path,
                alternatives,
            });
        }
        choice_points.sort_by_key(|c| {
            (
                !c.on_chosen_path,
                std::cmp::Reverse(c.alternatives.len()),
                c.group,
            )
        });

        let mut rules_fired: Vec<&'static str> = Vec::new();
        let mut ids: Vec<MExprId> = provenance.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            for r in &provenance[&id] {
                if !rules_fired.contains(r) {
                    rules_fired.push(r);
                }
            }
        }

        OptimizationReport {
            summary,
            choice_points,
            rules_fired,
            drift: None,
            batch_size: minidb::BATCH_SIZE,
        }
    }
}

/// Builds the Region DAG: inserts region trees and registers alternatives
/// from the F-IR rules (loops, through the [`LoopGate`]) and the
/// statement-level prefetch rule, consulting the configured [`RuleSet`]
/// and [`SearchBudget`] and recording which rules produced each registered
/// alternative.
struct DagBuilder<'a> {
    memo: &'a mut Memo<RegionOp>,
    gate: LoopGate<'a>,
    var_plans: &'a mut HashMap<String, minidb::SharedPlan>,
    budget: &'a SearchBudget,
    /// Root m-expr of each registered alternative → rules that derived it.
    provenance: HashMap<MExprId, Vec<&'static str>>,
    /// Set when any budget bound clipped alternative registration.
    exhausted: bool,
    /// Diagnostics of alternatives dropped under `VerifyLevel::Reject`.
    rejections: Vec<String>,
}

impl<'a> DagBuilder<'a> {
    /// Insert `region` and its generated alternatives.
    ///
    /// * `live_after` — variables live after this region,
    /// * `prev_sibling` — the statement immediately preceding this region
    ///   in the enclosing sequence (gates rule T1's empty-init condition),
    /// * `into` — when given, the region's expressions join this existing
    ///   group (used to register whole-program variants).
    fn insert_region(
        &mut self,
        region: &Region,
        live_after: &[String],
        prev_sibling: Option<&Stmt>,
        into: Option<GroupId>,
    ) -> GroupId {
        match &region.kind {
            RegionKind::Block(stmt) => {
                let g = self
                    .memo
                    .insert_expr(RegionOp::Leaf(stmt.clone()), vec![], into);
                let this = std::slice::from_ref(stmt);
                transforms::collect_var_plans(this, self.gate.mappings, self.var_plans);
                // Statement-level prefetch alternative (patterns E/F) —
                // the prefetch rule N1 applied at statement granularity.
                if self.gate.rules.is_enabled("N1") {
                    if let Some(alt_stmts) =
                        transforms::prefetch_stmt_alternative(stmt).filter(|stmts| {
                            !transforms::prefetched_tables(stmts)
                                .iter()
                                .any(|t| self.gate.updated_tables.contains(t))
                        })
                    {
                        if self.memo_has_room() {
                            let tree = region_to_optree(&Region::from_stmts(&alt_stmts));
                            let (_, eid) = self.memo.insert_tree_full(&tree, Some(g));
                            self.provenance.entry(eid).or_insert_with(|| vec!["N1"]);
                        } else {
                            self.exhausted = true;
                        }
                    }
                }
                g
            }
            RegionKind::Seq(children) => {
                // Per-child read sets once (sets, so suffix-unioning them
                // child-by-child matches the old concatenate-then-scan).
                let child_reads: Vec<std::collections::HashSet<String>> =
                    children.iter().map(transforms::reads_of_region).collect();
                let mut child_groups = Vec::with_capacity(children.len());
                for (i, child) in children.iter().enumerate() {
                    // Live set for child i: everything read by children
                    // after it, plus the incoming live set.
                    let later = child_reads[i + 1..].iter().flatten();
                    let live = transforms::live_with(live_after, later);
                    // Only a simple statement can be the fresh `x = {}` the
                    // T1 gate looks for.
                    let prev = match i.checked_sub(1).map(|p| &children[p].kind) {
                        Some(RegionKind::Block(s)) => Some(s),
                        _ => None,
                    };
                    child_groups.push(self.insert_region(child, &live, prev, None));
                }
                self.memo
                    .insert_expr(RegionOp::Seq(children.len()), child_groups, into)
            }
            RegionKind::Cond {
                cond,
                then_r,
                else_r,
            } => {
                let t = self.insert_region(then_r, live_after, None, None);
                let e = self.insert_region(else_r, live_after, None, None);
                self.memo
                    .insert_expr(RegionOp::Cond { cond: cond.clone() }, vec![t, e], into)
            }
            RegionKind::Loop { var, iter, body } => {
                // Body sub-regions get their own groups (and alternatives:
                // inner loops of non-foldable outer loops — pattern A).
                let live = transforms::live_with(live_after, &transforms::reads_of_region(body));
                let body_g = self.insert_region(body, &live, None, None);
                let g = self.memo.insert_expr(
                    RegionOp::Loop {
                        var: var.clone(),
                        iter: iter.clone(),
                    },
                    vec![body_g],
                    into,
                );
                // Register the loop's F-IR alternatives.
                let body = body.to_stmts();
                let admitted = self.gate.admit(var, iter, &body, live_after, prev_sibling);
                self.exhausted |= admitted.truncated;
                self.rejections.extend(admitted.rejected);
                for (alt, stmts) in admitted.alternatives {
                    if !self.memo_has_room() {
                        self.exhausted = true;
                        break;
                    }
                    transforms::collect_var_plans(&stmts, self.gate.mappings, self.var_plans);
                    let tree = region_to_optree(&Region::from_stmts(&stmts));
                    let (_, eid) = self.memo.insert_tree_full(&tree, Some(g));
                    self.provenance
                        .entry(eid)
                        .or_insert(alt.roots.rules_applied);
                }
                g
            }
            RegionKind::WhileLoop { cond, body } => {
                let body_g = self.insert_region(body, live_after, None, None);
                self.memo
                    .insert_expr(RegionOp::While { cond: cond.clone() }, vec![body_g], into)
            }
            RegionKind::BlackBox(stmts) => {
                self.memo
                    .insert_expr(RegionOp::BlackBox(stmts.clone()), vec![], into)
            }
            RegionKind::Empty => self.memo.insert_expr(RegionOp::Empty, vec![], into),
        }
    }

    /// Whether the memo caps of the budget leave room for more
    /// alternatives.
    fn memo_has_room(&self) -> bool {
        self.budget
            .memo_has_room(self.memo.num_groups(), self.memo.num_exprs())
    }
}

/// The one path from a cursor loop to the alternatives a caller may use:
/// loop → fold → rule expansion (statically verified when configured) →
/// T1's empty-init gate → T4's catalog gate → the updated-table prefetch
/// gate → code generation. The optimizer registers everything admitted;
/// the heuristic baseline scores it. (A second copy of this path is how
/// the baseline once lost the catalog gate.)
pub(crate) struct LoopGate<'a> {
    db: &'a minidb::SharedDb,
    mappings: &'a MappingRegistry,
    rules: &'a RuleSet,
    /// F-IR alternatives explored per loop
    /// ([`SearchBudget::max_alternatives_per_region`]).
    max_alternatives: usize,
    /// Static verification of rule outputs (`crates/analysis`).
    verify: VerifyLevel,
    /// Tables the program writes. Prefetch alternatives over these are
    /// unsound (build-once client caches would serve stale rows) and are
    /// never admitted.
    updated_tables: HashSet<String>,
}

/// What [`LoopGate::admit`] let through for one loop.
#[derive(Default)]
pub(crate) struct Admitted {
    /// Each admitted alternative with the statements generated for it, in
    /// exploration order.
    pub(crate) alternatives: Vec<(FirAlternative, Vec<Stmt>)>,
    /// The per-loop alternative budget clipped the expansion.
    truncated: bool,
    /// Diagnostics of alternatives dropped under `VerifyLevel::Reject`.
    rejected: Vec<String>,
}

impl LoopGate<'_> {
    /// The admissible alternatives of `for (var : iter) body` (nothing when
    /// the loop is not foldable).
    ///
    /// * `live_after` — variables live after the loop,
    /// * `prev_sibling` — the statement immediately preceding the loop in
    ///   the enclosing sequence (gates rule T1's empty-init condition).
    pub(crate) fn admit(
        &self,
        var: &str,
        iter: &Expr,
        body: &[Stmt],
        live_after: &[String],
        prev_sibling: Option<&Stmt>,
    ) -> Admitted {
        let Some(base) = fir::build::loop_to_fold(var, iter, body, self.mappings, Some(live_after))
        else {
            return Admitted::default();
        };
        let expansion = match self.verify {
            VerifyLevel::Off => fir::expand_with(base, self.rules, self.max_alternatives),
            level => {
                let mut verifier = analysis::Verifier::new(&base.arena, &base.roots);
                let mut check = |arena: &fir::FirArena, alt: &fir::FirRoots| {
                    let delta = self.rules.delta_for_applied(&alt.rules_applied);
                    match verifier.verify(arena, alt, &delta) {
                        Ok(()) => Ok(()),
                        Err(diag) if level == VerifyLevel::Panic => {
                            panic!("verify_rewrites=Panic: statically unsound rewrite: {diag}")
                        }
                        Err(diag) => Err(diag.to_string()),
                    }
                };
                fir::expand_with_verifier(base, self.rules, self.max_alternatives, Some(&mut check))
            }
        };
        let admissible = |alt: &FirAlternative| {
            t1_gate_ok(&alt.roots, prev_sibling)
                && !self.join_is_ambiguous(alt)
                // Prefetching a table the program updates is unsound: the
                // build-once client cache would serve pre-update rows.
                && !alt
                    .roots
                    .prefetches
                    .iter()
                    .any(|p| self.updated_tables.contains(&p.table))
        };
        let generated = |alt: FirAlternative| {
            let stmts = fir::codegen::generate(&alt)?;
            Some((alt, stmts))
        };
        Admitted {
            truncated: expansion.truncated,
            rejected: expansion.rejected,
            alternatives: expansion
                .alternatives
                .into_iter()
                .filter(admissible)
                .filter_map(generated)
                .collect(),
        }
    }

    /// Rule T4's catalog gate: the join it builds puts both sides' columns
    /// under one tuple variable and names them unqualified, so tables that
    /// share a column name (`emp.id`, `dept.id`) give a program that fails
    /// with "ambiguous column" where the original ran.
    fn join_is_ambiguous(&self, alt: &FirAlternative) -> bool {
        if !alt.roots.rules_applied.iter().any(|r| r.starts_with("T4")) {
            return false;
        }
        let db = self.db.read().expect("database lock poisoned");
        let shares_a_column = |plan: &LogicalPlan| {
            let mut seen = std::collections::HashSet::new();
            let tables = plan.base_tables().into_iter();
            tables
                .filter_map(|t| db.table(t).ok())
                .flat_map(|t| t.schema().columns())
                .any(|c| !seen.insert(&c.name))
        };
        alt.roots.assigns.iter().any(|(_, root)| {
            alt.arena.any(*root, &|n| match n {
                fir::FirNode::Query { plan, .. } | fir::FirNode::ScalarQuery { plan, .. } => {
                    shares_a_column(plan)
                }
                _ => false,
            })
        })
    }
}

/// Rule T1's validity gate: `fold(insert, {}, Q) = Q` requires the
/// accumulator to be empty at loop entry — satisfied when the previous
/// statement in the sequence freshly created it.
fn t1_gate_ok(alt: &fir::FirRoots, prev_sibling: Option<&Stmt>) -> bool {
    let Some(v) = &alt.requires_empty_init else {
        return true;
    };
    match prev_sibling.map(|s| &s.kind) {
        Some(StmtKind::NewCollection(p)) | Some(StmtKind::NewMap(p)) => p == v,
        _ => false,
    }
}
