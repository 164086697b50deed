//! Runtime-validated plan selection: trust, but verify.
//!
//! The cost model ranks the memo's alternatives, but cost models are
//! famously weak *selectors* — a predicted ranking can invert the real
//! one. When validation is enabled
//! ([`crate::CobraBuilder::validate_selection`]), the optimizer extracts
//! the k cheapest structurally distinct programs
//! ([`volcano::top_k_plans`]) and settles the ranking empirically:
//!
//! * **Micro-execution.** Each candidate is executed on a `row_scale`-
//!   shrunk copy of the live database (FK validity preserved — see
//!   `shrunk_database`) under the optimizer's own network profile and its
//!   catalog's prices, and its simulated elapsed time is the measurement.
//!   All candidates run on the *same* fixture, so measurements are
//!   mutually comparable (they are never compared against full-scale
//!   predicted costs, which live on a different data scale).
//! * **Feedback shortcut.** When a [`minidb::FeedbackStore`] is attached
//!   and *every* query of *every* candidate has a fresh observation
//!   (exact-shape or semantic, at the current data stamp), the predicted
//!   costs are already observation-informed — execution would add noise,
//!   not information — so the predicted ranking is accepted as measured.
//!
//! Promotion is conservative: the measured winner replaces the predicted
//! one only when the predicted winner was itself measured and the winner
//! beats it by at least `MIN_SPEEDUP`. Execution errors leave a candidate
//! unmeasured and unpromotable, and the predicted winner is always the
//! fallback — with validation disabled (the default) the optimizer's
//! output is bit-identical to cost-only selection.

use crate::emit;
use crate::region_ops::RegionOp;
use imperative::ast::{Expr, Function, Program, Stmt};
use interp::Endpoint;
use minidb::{feedback::semantic_key, Database, PlanFingerprint, Row};
use orm::MappingRegistry;

use std::collections::{BTreeMap, HashSet};

/// Minimum measured speedup (predicted winner's time divided by the
/// challenger's) required to promote a challenger: the virtual clock has no
/// jitter, so the bar only keeps a tie on the shrunk fixture from
/// overturning the model.
const MIN_SPEEDUP: f64 = 1.02;

/// Knobs for runtime-validated plan selection
/// ([`crate::CobraBuilder::validate_selection`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationConfig {
    /// How many of the cheapest structurally distinct candidates to
    /// extract and measure. `1` keeps extraction cost-only (validation is
    /// inert); default 3.
    pub top_k: usize,
    /// Fraction of each table's rows the micro-validation fixture keeps
    /// (floor one row per non-empty table). Default 0.05.
    pub row_scale: f64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            top_k: 3,
            row_scale: 0.05,
        }
    }
}

impl ValidationConfig {
    /// Set the number of candidates to extract and measure.
    pub fn with_top_k(mut self, k: usize) -> ValidationConfig {
        self.top_k = k;
        self
    }

    /// Set the micro-fixture row scale.
    pub fn with_row_scale(mut self, scale: f64) -> ValidationConfig {
        self.row_scale = scale;
        self
    }
}

/// How a validated selection was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationSource {
    /// Candidates were executed on the shrunk fixture.
    Execution,
    /// Every candidate's queries had fresh feedback observations; the
    /// (observation-informed) predicted ranking was accepted.
    Feedback,
}

/// One candidate's predicted and measured standing.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedCandidate {
    /// Rank by predicted cost (0 = the cost model's pick).
    pub predicted_rank: usize,
    /// Predicted cost, ns (full-scale model estimate).
    pub predicted_cost_ns: f64,
    /// Measured simulated time on the shrunk fixture, ns; `None` when the
    /// candidate was not executed (feedback shortcut or execution error).
    pub measured_ns: Option<f64>,
    /// Rank by measured time among measured candidates; `None` when
    /// unmeasured.
    pub measured_rank: Option<usize>,
}

/// The record of one validated selection, attached to
/// [`crate::Optimized::validation`].
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionValidation {
    /// Row scale of the micro-fixture candidates ran on.
    pub row_scale: f64,
    /// How the decision was made.
    pub source: ValidationSource,
    /// Per-candidate predicted vs measured standing, in predicted order.
    pub candidates: Vec<ValidatedCandidate>,
    /// Predicted rank of the candidate that was ultimately emitted
    /// (0 = the cost model's pick was kept).
    pub promoted_rank: usize,
    /// Whether measurement agreed with prediction (the measured winner
    /// was the predicted winner; vacuously true without measurements).
    pub agreement: bool,
}

/// Validate `plans` (predicted order, cheapest first) and decide which
/// one to emit; `live` is what the optimizer itself would run a program
/// against ([`crate::Cobra::run`]). See the module docs for the decision
/// procedure.
pub(crate) fn validate_selection(
    live: &Endpoint,
    program: &Program,
    entry_name: &str,
    entry_params: &[String],
    plans: &[volcano::BestPlan<RegionOp>],
    cfg: &ValidationConfig,
) -> SelectionValidation {
    let functions: Vec<Function> = plans
        .iter()
        .map(|p| emit::emit_function(entry_name, entry_params, &p.tree))
        .collect();

    let mut candidates: Vec<ValidatedCandidate> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| ValidatedCandidate {
            predicted_rank: i,
            predicted_cost_ns: p.cost,
            measured_ns: None,
            measured_rank: None,
        })
        .collect();

    // Feedback shortcut: with fresh observations behind every candidate's
    // queries, the predicted costs already carry measured cardinalities.
    if let Some(store) = &live.feedback {
        let db = live.db.read().unwrap();
        if functions.iter().all(|f| all_queries_fresh(&db, store, f)) {
            return SelectionValidation {
                row_scale: cfg.row_scale,
                source: ValidationSource::Feedback,
                candidates,
                promoted_rank: 0,
                agreement: true,
            };
        }
    }

    // Micro-execution: one shrunk fixture, every candidate on its own
    // fresh copy (update statements must not leak between runs).
    let base = shrunk_database(&live.db.read().unwrap(), &live.mappings, cfg.row_scale);
    for (i, f) in functions.iter().enumerate() {
        let run = program.with_entry(f.clone());
        candidates[i].measured_ns = measure(live, &base, &run);
    }

    // Measured ranks (ties broken by predicted rank — determinism).
    let mut measured: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].measured_ns.is_some())
        .collect();
    measured.sort_by(|&a, &b| {
        candidates[a]
            .measured_ns
            .unwrap()
            .total_cmp(&candidates[b].measured_ns.unwrap())
            .then(a.cmp(&b))
    });
    for (rank, &i) in measured.iter().enumerate() {
        candidates[i].measured_rank = Some(rank);
    }

    let winner = measured.first().copied();
    let promoted_rank = match winner {
        // Promote a challenger only when the predicted winner was itself
        // measured and the challenger clears the speedup bar.
        Some(w) if w != 0 => match (candidates[0].measured_ns, candidates[w].measured_ns) {
            (Some(base_ns), Some(win_ns)) if base_ns / win_ns >= MIN_SPEEDUP => w,
            _ => 0,
        },
        _ => 0,
    };
    SelectionValidation {
        row_scale: cfg.row_scale,
        source: ValidationSource::Execution,
        agreement: winner.unwrap_or(0) == 0,
        candidates,
        promoted_rank,
    }
}

/// Execute `program` as `live` would run it, but against a fresh copy of
/// `base` and recording nothing, and return its simulated elapsed time, ns.
/// `None` on any execution error — an unmeasured candidate can never be
/// promoted.
fn measure(live: &Endpoint, base: &Database, program: &Program) -> Option<f64> {
    let on = Endpoint {
        db: minidb::shared(base.clone()),
        feedback: None,
        ..live.clone()
    };
    interp::run_program(on, program)
        .ok()
        .map(|outcome| outcome.elapsed_ns as f64)
}

/// Whether every query `f` can issue has a fresh observation (exact shape
/// or semantic sibling) at the current data stamp. Query-free candidates
/// have nothing feedback could validate, so they report `false` and force
/// the execution path.
fn all_queries_fresh(db: &Database, store: &minidb::FeedbackStore, f: &Function) -> bool {
    // Every logical plan `f` can reach: queries in any expression position.
    let mut plans = Vec::new();
    let mut collect = |e: &Expr| {
        if let Expr::Query(q) | Expr::ScalarQuery(q) = e {
            plans.push(q.plan.as_plan().clone());
        }
    };
    let mut visit = |s: &Stmt| s.exprs().iter().for_each(|e| e.walk(&mut collect));
    f.body.iter().for_each(|s| s.walk(&mut visit));
    !plans.is_empty()
        && plans.iter().all(|p| {
            let stamp = db.plan_data_stamp(p);
            store
                .observed_fresh(PlanFingerprint::of(p), stamp)
                .or_else(|| store.observed_semantic(semantic_key(p), stamp))
                .is_some()
        })
}

/// A `row_scale`-shrunk copy of `src` that preserves referential
/// integrity: each table keeps a prefix of its rows (floor one row per
/// non-empty table), and any foreign-key value whose referenced parent
/// row was dropped is deterministically remapped onto a *surviving*
/// parent key (FK relationships come from the ORM `MappingRegistry`).
/// Primary keys and secondary indexes are recreated and statistics are
/// re-analyzed, so the shrunk database plans and executes like a real,
/// smaller instance of the original.
pub(crate) fn shrunk_database(
    src: &Database,
    mappings: &MappingRegistry,
    row_scale: f64,
) -> Database {
    let scale = if row_scale.is_finite() && row_scale > 0.0 {
        row_scale.min(1.0)
    } else {
        1.0
    };
    // Phase 1: per-table prefix.
    let mut kept: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for t in src.tables() {
        let n = t.row_count();
        let keep = (((n as f64) * scale).ceil() as usize).clamp(usize::from(n > 0), n);
        kept.insert(t.name().to_string(), t.rows()[..keep].to_vec());
    }
    // Phase 2: remap FK values onto surviving parent keys. Runs after
    // every prefix is fixed, so parent/child declaration order is
    // irrelevant.
    for m in mappings.iter() {
        for assoc in &m.associations {
            let Some(target) = mappings.entity(&assoc.target_entity) else {
                continue;
            };
            let (Ok(child), Ok(parent)) = (src.table(&m.table), src.table(&target.table)) else {
                continue;
            };
            let Ok(fk_pos) = child.schema().resolve(&assoc.fk_column) else {
                continue;
            };
            let Some(pk_pos) = parent.primary_key() else {
                continue;
            };
            let surviving: Vec<i64> = kept
                .get(&target.table)
                .map(|rows| rows.iter().filter_map(|r| r[pk_pos].as_i64()).collect())
                .unwrap_or_default();
            if surviving.is_empty() {
                continue;
            }
            let present: HashSet<i64> = surviving.iter().copied().collect();
            if let Some(rows) = kept.get_mut(&m.table) {
                for row in rows {
                    if let Some(v) = row[fk_pos].as_i64() {
                        if !present.contains(&v) {
                            let idx = (v.unsigned_abs() as usize) % surviving.len();
                            row[fk_pos] = minidb::Value::Int(surviving[idx]);
                        }
                    }
                }
            }
        }
    }
    // Phase 3: rebuild the catalog — schema, primary keys and secondary
    // indexes as in the source — and refresh statistics.
    let mut out = Database::new();
    for t in src.tables() {
        let table = out
            .create_table(t.name(), t.schema().clone())
            .expect("source table names are unique");
        if let Some(pk) = t.primary_key() {
            let name = t.schema().column(pk).name.clone();
            table.set_primary_key(&name).expect("pk column exists");
        }
        for col in 0..t.schema().len() {
            if t.has_index(col) && t.primary_key() != Some(col) {
                let name = t.schema().column(col).name.clone();
                table.create_index(&name).expect("indexed column exists");
            }
        }
        table
            .insert_many(kept.remove(t.name()).unwrap_or_default())
            .expect("kept rows match the schema");
    }
    out.analyze_all();
    out
}
