//! Structured optimization reports: what the optimizer considered, what
//! each alternative would cost, and why the winner won.
//!
//! [`crate::Cobra::explain`] returns an [`OptimizationReport`]: the usual
//! [`Optimized`] summary plus every *choice point* of the Region DAG — a
//! region with more than one registered alternative — with the winning
//! and losing alternatives, their estimated costs, and the transformation
//! rules that produced them. The report implements [`std::fmt::Display`]
//! as a paper-style pretty-printer.

use crate::optimizer::Optimized;
use crate::region_ops::RegionOp;
use imperative::pretty;

/// One alternative at a choice point.
#[derive(Debug, Clone)]
pub struct ReportedAlternative {
    /// The m-expr id in the Region DAG (stable across group merges).
    pub expr: usize,
    /// Compact rendering of the alternative's root region operator.
    pub label: String,
    /// The transformation rules that derived this alternative
    /// (`["original"]` for the program as written; `"toFIR"` marks the
    /// loop → fold conversion).
    pub rules: Vec<&'static str>,
    /// Estimated total cost of the alternative, ns (`f64::INFINITY` when
    /// the alternative has no finite plan, e.g. a self-referential one).
    pub cost_ns: f64,
    /// Whether least-cost extraction chose this alternative.
    pub chosen: bool,
}

/// A region with more than one registered alternative — a place where the
/// cost model actually decided something.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    /// The memo group (OR node) id.
    pub group: usize,
    /// Compact description of the region (its original operator).
    pub region: String,
    /// Whether this group lies on the chosen program's extraction path.
    pub on_chosen_path: bool,
    /// The alternatives, sorted by ascending cost (the chosen alternative
    /// first among ties).
    pub alternatives: Vec<ReportedAlternative>,
}

/// The structured result of [`crate::Cobra::explain`].
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// The ordinary optimization summary (same fields
    /// [`crate::Cobra::optimize_program`] returns).
    pub summary: Optimized,
    /// All choice points, chosen-path groups first, larger choice points
    /// before smaller ones.
    pub choice_points: Vec<ChoicePoint>,
    /// Distinct rule names that produced at least one registered
    /// alternative, in discovery order.
    pub rules_fired: Vec<&'static str>,
    /// Estimation drift vs runtime observation at explain time (see
    /// `Cobra::estimation_drift`): the worst multiplicative divergence
    /// between model-estimated and observed cardinalities. `None` when no
    /// feedback store is attached; `Some(1.0)` means perfect agreement.
    pub drift: Option<f64>,
    /// Filter batch width of the vectorized engine
    /// ([`minidb::BATCH_SIZE`]).
    pub batch_size: usize,
}

impl OptimizationReport {
    /// The most contested choice point on the chosen path (most
    /// alternatives); falls back to any choice point when extraction
    /// visited none with >1 alternative.
    pub fn top_choice_point(&self) -> Option<&ChoicePoint> {
        self.choice_points
            .iter()
            .filter(|c| c.on_chosen_path)
            .max_by_key(|c| c.alternatives.len())
            .or_else(|| self.choice_points.first())
    }

    /// Whether any [`crate::SearchBudget`] bound clipped the search.
    pub fn budget_exhausted(&self) -> bool {
        self.summary.budget_exhausted
    }
}

impl std::fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.summary;
        writeln!(
            f,
            "optimization report: est {:.3}s (original {:.3}s), \
             {} alternatives, {} choice points, {} groups / {} m-exprs",
            s.est_cost_ns / 1e9,
            s.original_cost_ns / 1e9,
            s.alternatives,
            s.choice_points,
            s.groups,
            s.exprs,
        )?;
        writeln!(f, "rules fired: {}", self.rules_fired.join(", "))?;
        if !s.verifier_rejections.is_empty() {
            writeln!(
                f,
                "verifier rejected {} unsound alternative(s):",
                s.verifier_rejections.len()
            )?;
            for d in &s.verifier_rejections {
                writeln!(f, "  - {d}")?;
            }
        }
        writeln!(f, "execution: batch size {}", self.batch_size)?;
        let pct = |hits: u64, misses: u64| {
            let total = hits + misses;
            if total == 0 {
                0.0
            } else {
                100.0 * hits as f64 / total as f64
            }
        };
        writeln!(
            f,
            "caches: cost-memo {} hits / {} misses ({:.0}% hit), \
             estimator {} hits / {} misses ({:.0}% hit)",
            s.cost_cache_hits,
            s.cost_cache_misses,
            pct(s.cost_cache_hits, s.cost_cache_misses),
            s.estimator_cache_hits,
            s.estimator_cache_misses,
            pct(s.estimator_cache_hits, s.estimator_cache_misses),
        )?;
        if s.feedback_overrides > 0 || self.drift.is_some() {
            write!(
                f,
                "runtime feedback: {} estimate(s) used observed cardinalities",
                s.feedback_overrides
            )?;
            if let Some(d) = self.drift {
                write!(f, "; model drift ×{d:.2}")?;
            }
            writeln!(f)?;
        }
        if let Some(v) = &s.validation {
            let source = match v.source {
                crate::validation::ValidationSource::Execution => {
                    format!("measured at row scale {}", v.row_scale)
                }
                crate::validation::ValidationSource::Feedback => {
                    "fresh feedback accepted the predicted ranking".to_string()
                }
            };
            writeln!(
                f,
                "validated selection: {} candidate(s), {source}; {} (promoted rank {})",
                v.candidates.len(),
                if v.agreement {
                    "measurement agreed with prediction"
                } else {
                    "measurement DISAGREED with prediction"
                },
                v.promoted_rank,
            )?;
            for c in &v.candidates {
                let measured = match c.measured_ns {
                    Some(ns) => format!("{:.6}s measured", ns / 1e9),
                    None => "not measured".to_string(),
                };
                writeln!(
                    f,
                    "  {} predicted #{} {:.6}s — {}{}",
                    if c.predicted_rank == v.promoted_rank {
                        "->"
                    } else {
                        "  "
                    },
                    c.predicted_rank,
                    c.predicted_cost_ns / 1e9,
                    measured,
                    match c.measured_rank {
                        Some(r) => format!(" (measured #{r})"),
                        None => String::new(),
                    },
                )?;
            }
        }
        if s.budget_exhausted {
            writeln!(
                f,
                "search budget EXHAUSTED: alternatives were dropped; raise \
                 SearchBudget to explore the full space"
            )?;
        }
        for cp in &self.choice_points {
            writeln!(
                f,
                "{} choice point g{} — {}",
                if cp.on_chosen_path { "*" } else { " " },
                cp.group,
                cp.region
            )?;
            for alt in &cp.alternatives {
                let cost = if alt.cost_ns.is_finite() {
                    format!("{:>12.6}s", alt.cost_ns / 1e9)
                } else {
                    format!("{:>13}", "(no plan)")
                };
                writeln!(
                    f,
                    "  {} {}  [{}]  {}",
                    if alt.chosen { "->" } else { "  " },
                    cost,
                    alt.rules.join("+"),
                    alt.label,
                )?;
            }
        }
        Ok(())
    }
}

/// Compact one-line label for a region operator.
pub(crate) fn region_label(op: &RegionOp) -> String {
    let text = match op {
        RegionOp::Leaf(stmt) => pretty::stmts_to_string(std::slice::from_ref(stmt)),
        RegionOp::Seq(n) => format!("seq of {n} regions"),
        RegionOp::Cond { cond } => format!("if {}", pretty::expr_to_string(cond)),
        RegionOp::Loop { var, iter } => {
            format!("for ({var} : {})", pretty::expr_to_string(iter))
        }
        RegionOp::While { cond } => format!("while {}", pretty::expr_to_string(cond)),
        RegionOp::BlackBox(stmts) => format!("black box of {} statements", stmts.len()),
        RegionOp::Empty => "empty region".to_string(),
    };
    // One line, bounded width: labels decorate the report, the full
    // program is available from `summary.program`.
    let mut line = text.lines().next().unwrap_or("").trim().to_string();
    const MAX: usize = 72;
    if line.chars().count() > MAX {
        line = line.chars().take(MAX - 1).collect::<String>() + "…";
    }
    line
}
