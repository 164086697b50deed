//! Typed optimizer configuration: [`SearchBudget`], [`OptimizerConfig`]
//! and [`CobraBuilder`].
//!
//! COBRA's contract (Figure 1) takes three inputs — a program, a set of
//! transformation rules, and a cost model — and this module makes the
//! non-program inputs first-class API objects instead of constructor
//! positions and compile-time constants:
//!
//! * [`fir::RuleSet`] — which transformations the search explores,
//! * [`SearchBudget`] — how much of the alternative space it may build,
//! * [`OptimizerConfig`] — the value-typed bundle of both plus network
//!   profile and cost catalog,
//! * [`CobraBuilder`] — the one entry point wiring a database, ORM
//!   mappings and a function registry to a config, producing a
//!   [`crate::Cobra`].
//!
//! ```
//! use cobra_core::{Cobra, CostCatalog, SearchBudget};
//! use fir::RuleSet;
//! use netsim::NetworkProfile;
//!
//! let db = minidb::shared(minidb::Database::new());
//! let cobra = Cobra::builder(db)
//!     .network(NetworkProfile::slow_remote())
//!     .catalog(CostCatalog::with_af(50.0))
//!     .rules(RuleSet::standard().without("N1")) // ablate prefetching
//!     .budget(SearchBudget::default().with_max_alternatives_per_region(16))
//!     .build();
//! assert!(!cobra.rules().is_enabled("N1"));
//! ```

use crate::catalog::CostCatalog;
use crate::optimizer::Cobra;
use fir::RuleSet;
use minidb::FuncRegistry;
use netsim::NetworkProfile;
use orm::MappingRegistry;
use std::sync::Arc;

/// Bounds on the optimizer's search effort. Replaces the former
/// compile-time `MAX_LOOP_ALTERNATIVES` constant; when any bound clips the
/// search, the result reports it (`Optimized::budget_exhausted`, the
/// `"budget-exhausted"` tag) instead of truncating silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchBudget {
    /// F-IR alternatives explored per loop region (closure bound of
    /// `fir::expand_with`). The historical default is 64.
    pub max_alternatives_per_region: usize,
    /// Cap on memo groups (OR nodes): alternative registration stops once
    /// the Region DAG holds this many groups. `None` = unbounded.
    pub max_memo_groups: Option<usize>,
    /// Cap on memo m-exprs (AND nodes). `None` = unbounded.
    pub max_memo_exprs: Option<usize>,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_alternatives_per_region: 64,
            max_memo_groups: None,
            max_memo_exprs: None,
        }
    }
}

impl SearchBudget {
    /// Set the per-region alternative bound.
    pub fn with_max_alternatives_per_region(mut self, n: usize) -> SearchBudget {
        self.max_alternatives_per_region = n;
        self
    }

    /// Cap the number of memo groups (OR nodes).
    pub fn with_max_memo_groups(mut self, n: usize) -> SearchBudget {
        self.max_memo_groups = Some(n);
        self
    }

    /// Cap the number of memo m-exprs (AND nodes).
    pub fn with_max_memo_exprs(mut self, n: usize) -> SearchBudget {
        self.max_memo_exprs = Some(n);
        self
    }

    /// Whether the memo's current size leaves room to register more
    /// alternatives under this budget.
    pub(crate) fn memo_has_room(&self, groups: usize, exprs: usize) -> bool {
        self.max_memo_groups.is_none_or(|cap| groups < cap)
            && self.max_memo_exprs.is_none_or(|cap| exprs < cap)
    }
}

/// The value-typed optimizer configuration: everything that shapes the
/// search besides the database, mappings and function registry.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Network profile the cost model charges round trips / transfer against.
    pub network: NetworkProfile,
    /// Tunable cost-model parameters (§VI's cost catalog file).
    pub catalog: CostCatalog,
    /// The transformation rules the search explores.
    pub rules: RuleSet,
    /// Bounds on search effort.
    pub budget: SearchBudget,
    /// Histogram/statistics-interpolated selectivity estimation (default
    /// on). Off reproduces the uniform-NDV baseline — fixed 1/3 range
    /// selectivity, null-blind 1/NDV equality — kept for ablations and
    /// for measuring how much the adaptive statistics help.
    pub use_histograms: bool,
    /// Runtime-validated plan selection ([`crate::ValidationConfig`]):
    /// extract the top-k candidates, micro-measure them, and promote the
    /// measured winner. `None` (the default) keeps selection cost-only
    /// and bit-identical to historical output.
    pub validation: Option<crate::validation::ValidationConfig>,
    /// Static verification of every rule-produced alternative
    /// (`crates/analysis`: well-formedness, effect soundness, binding
    /// leaks). [`VerifyLevel::Off`] (the default) skips verification
    /// entirely and is bit-identical to historical output.
    pub verify_rewrites: VerifyLevel,
}

/// How the optimizer reacts to a statically unsound rewrite (see
/// `crates/analysis`): not at all, by aborting, or by dropping the
/// offending alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No verification (default); output bit-identical to pre-verifier
    /// releases.
    #[default]
    Off,
    /// Verify and panic on the first unsound alternative — for tests,
    /// fuzzing and debug builds, where an unsound rule is a bug to
    /// surface loudly.
    Panic,
    /// Verify, drop unsound alternatives from the search space, record
    /// their diagnostics, and tag the result `verifier-rejected` in the
    /// [`crate::OptimizationReport`] — for serving, where one bad rule
    /// must not take the process down.
    Reject,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            network: NetworkProfile::fast_local(),
            catalog: CostCatalog::default(),
            rules: RuleSet::standard(),
            budget: SearchBudget::default(),
            use_histograms: true,
            validation: None,
            verify_rewrites: VerifyLevel::Off,
        }
    }
}

/// Builder for [`Cobra`]: owns the database handle, ORM mappings,
/// function registry and an [`OptimizerConfig`].
///
/// The database is the only required input ([`Cobra::builder`] takes it),
/// so [`CobraBuilder::build`] is infallible. Defaults: empty mappings,
/// builtin functions, [`OptimizerConfig::default`].
#[derive(Clone)]
pub struct CobraBuilder {
    db: minidb::SharedDb,
    funcs: Arc<FuncRegistry>,
    mappings: MappingRegistry,
    config: OptimizerConfig,
    feedback: Option<Arc<minidb::FeedbackStore>>,
}

impl CobraBuilder {
    /// Start a builder over a shared database handle.
    pub fn new(db: minidb::SharedDb) -> CobraBuilder {
        CobraBuilder {
            db,
            funcs: Arc::new(FuncRegistry::with_builtins()),
            mappings: MappingRegistry::new(),
            config: OptimizerConfig::default(),
            feedback: None,
        }
    }

    /// Network profile to cost against (default: fast local).
    pub fn network(mut self, network: NetworkProfile) -> CobraBuilder {
        self.config.network = network;
        self
    }

    /// Cost catalog (default: the paper's Figure 12 values).
    pub fn catalog(mut self, catalog: CostCatalog) -> CobraBuilder {
        self.config.catalog = catalog;
        self
    }

    /// ORM entity mappings (default: empty registry).
    pub fn mappings(mut self, mappings: MappingRegistry) -> CobraBuilder {
        self.mappings = mappings;
        self
    }

    /// Function registry for application-specific pure functions
    /// (default: builtins only).
    pub fn funcs(mut self, funcs: Arc<FuncRegistry>) -> CobraBuilder {
        self.funcs = funcs;
        self
    }

    /// The transformation rules to explore (default:
    /// [`RuleSet::standard`]).
    pub fn rules(mut self, rules: RuleSet) -> CobraBuilder {
        self.config.rules = rules;
        self
    }

    /// Disable one rule by name, keeping the rest of the current rule set
    /// (unknown names are ignored).
    pub fn disable_rule(mut self, name: &str) -> CobraBuilder {
        self.config.rules.disable(name);
        self
    }

    /// Search budget (default: [`SearchBudget::default`]).
    pub fn budget(mut self, budget: SearchBudget) -> CobraBuilder {
        self.config.budget = budget;
        self
    }

    /// Enable or disable histogram-interpolated selectivity estimation
    /// (default: on). Off reproduces the uniform-NDV baseline estimator.
    pub fn histograms(mut self, on: bool) -> CobraBuilder {
        self.config.use_histograms = on;
        self
    }

    /// Statically verify every rule-produced alternative (default:
    /// [`VerifyLevel::Off`]). [`VerifyLevel::Panic`] aborts on the first
    /// unsound rewrite; [`VerifyLevel::Reject`] drops it from the search
    /// space and tags the report `verifier-rejected`.
    pub fn verify_rewrites(mut self, level: VerifyLevel) -> CobraBuilder {
        self.config.verify_rewrites = level;
        self
    }

    /// Enable runtime-validated plan selection: extract the
    /// `ValidationConfig::top_k` cheapest structurally distinct programs,
    /// micro-measure them by timed execution on a `row_scale`-shrunk copy
    /// of the database (or accept the ranking outright when fresh
    /// feedback observations already back every candidate's queries), and
    /// emit the measured winner. Disabled by default; selection then
    /// stays cost-only and bit-identical to historical output.
    pub fn validate_selection(
        mut self,
        validation: crate::validation::ValidationConfig,
    ) -> CobraBuilder {
        self.config.validation = Some(validation);
        self
    }

    /// Attach a runtime-feedback store: the optimizer's estimator prefers
    /// cardinalities observed by execution (recorded via
    /// `RemoteDb::with_feedback` / `Executor::with_feedback`) over
    /// histogram guesses, and `Cobra::reoptimize_on_drift` re-optimizes
    /// when estimates have drifted from observation.
    pub fn feedback(mut self, feedback: Arc<minidb::FeedbackStore>) -> CobraBuilder {
        self.feedback = Some(feedback);
        self
    }

    /// Replace the whole configuration at once.
    pub fn config(mut self, config: OptimizerConfig) -> CobraBuilder {
        self.config = config;
        self
    }

    /// Build the optimizer.
    pub fn build(self) -> Cobra {
        Cobra::from_parts(
            self.db,
            self.funcs,
            self.mappings,
            self.config,
            self.feedback,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_matches_legacy_constant() {
        let b = SearchBudget::default();
        assert_eq!(b.max_alternatives_per_region, 64);
        assert_eq!(b.max_memo_groups, None);
        assert_eq!(b.max_memo_exprs, None);
    }

    #[test]
    fn budget_setters_chain() {
        let b = SearchBudget::default()
            .with_max_alternatives_per_region(7)
            .with_max_memo_groups(10)
            .with_max_memo_exprs(20);
        assert_eq!(b.max_alternatives_per_region, 7);
        assert!(b.memo_has_room(9, 19));
        assert!(!b.memo_has_room(10, 0));
        assert!(!b.memo_has_room(0, 20));
    }

    #[test]
    fn builder_applies_config_knobs() {
        let db = minidb::shared(minidb::Database::new());
        let cobra = Cobra::builder(db)
            .network(NetworkProfile::slow_remote())
            .catalog(CostCatalog::with_af(7.0))
            .disable_rule("T4")
            .budget(SearchBudget::default().with_max_memo_exprs(100))
            .histograms(false)
            .validate_selection(crate::validation::ValidationConfig::default())
            .verify_rewrites(VerifyLevel::Reject)
            .build();
        // Exhaustive on purpose (no `..`): a new field has to be added
        // here, next to the setter that reaches it.
        let OptimizerConfig {
            network,
            catalog,
            rules,
            budget,
            use_histograms,
            validation,
            verify_rewrites,
        } = cobra.config().clone();
        assert_eq!(network.name(), NetworkProfile::slow_remote().name());
        assert_eq!(catalog.default_af, 7.0);
        assert!(!rules.is_enabled("T4"));
        assert!(rules.is_enabled("T2"));
        assert_eq!(budget.max_memo_exprs, Some(100));
        assert!(!use_histograms);
        assert!(validation.is_some());
        assert_eq!(verify_rewrites, VerifyLevel::Reject);
    }
}
