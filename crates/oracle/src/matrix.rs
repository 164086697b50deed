//! The oracle matrix driver: run every generated case across network
//! profiles × search budgets × rule sets, asserting original-vs-optimized
//! observational equivalence in each cell and recording predicted vs
//! simulated cost along the way.

use crate::equivalence::{check_equivalent, Divergence};
use cobra_core::{SearchBudget, VerifyLevel};
use fir::RuleSet;
use imperative::pretty;
use netsim::NetworkProfile;
use workloads::genprog::{GenCase, GenConfig};
use workloads::harness::run_on;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A mid-range network between the paper's two extremes: 100 Mbps, 10 ms
/// RTT (a same-region cloud link).
pub fn mid_range() -> NetworkProfile {
    NetworkProfile::new("mid-range", 100e6, 10.0)
}

/// The minimal search budget of the budget-safety suite: one alternative
/// per region and tiny memo caps. Searches under it must still produce
/// observationally equivalent programs, and must report
/// `budget_exhausted` whenever anything was clipped.
pub fn tight_budget() -> SearchBudget {
    SearchBudget::default()
        .with_max_alternatives_per_region(1)
        .with_max_memo_groups(24)
        .with_max_memo_exprs(40)
}

/// One cell of the oracle matrix: the full optimizer configuration a case
/// is checked under.
#[derive(Debug, Clone)]
pub struct OracleCell {
    /// Network profile the optimizer costs against and the run simulates.
    pub profile: NetworkProfile,
    /// Label of the budget (for reports).
    pub budget_name: String,
    /// The search budget.
    pub budget: SearchBudget,
    /// Label of the rule set (for reports).
    pub ruleset_name: String,
    /// The transformation rules explored.
    pub ruleset: RuleSet,
    /// Static rewrite verification level the optimizer runs under. The
    /// default matrix uses [`VerifyLevel::Panic`]: verification never
    /// alters which alternatives a sound rule set produces, so the fuzz
    /// corpus stays bit-identical while doubling as a verifier soak — any
    /// statically unsound rewrite aborts the run instead of relying on
    /// the differential check to notice.
    pub verify: VerifyLevel,
}

/// The sweep the oracle drives every case through.
#[derive(Clone)]
pub struct OracleMatrix {
    /// Network profiles (default: slow-remote, mid-range, fast-local).
    pub profiles: Vec<NetworkProfile>,
    /// Labelled budgets (default: the default budget and [`tight_budget`]).
    pub budgets: Vec<(String, SearchBudget)>,
    /// Labelled rule sets (default: the standard set).
    pub rulesets: Vec<(String, RuleSet)>,
    /// Verification level for every cell (default:
    /// [`VerifyLevel::Panic`] — see [`OracleCell::verify`]).
    pub verify: VerifyLevel,
}

impl Default for OracleMatrix {
    fn default() -> Self {
        OracleMatrix {
            profiles: vec![
                NetworkProfile::slow_remote(),
                mid_range(),
                NetworkProfile::fast_local(),
            ],
            budgets: vec![
                ("default".to_string(), SearchBudget::default()),
                ("tight".to_string(), tight_budget()),
            ],
            rulesets: vec![("standard".to_string(), RuleSet::standard())],
            verify: VerifyLevel::Panic,
        }
    }
}

impl OracleMatrix {
    /// A matrix sweeping the full standard rule set plus every
    /// single-rule-disabled ablation (one profile, default budget):
    /// disabling any one rule must never break semantics — single-rule
    /// search paths are exercised, not just the full set.
    pub fn rule_ablation() -> OracleMatrix {
        let mut rulesets = vec![("standard".to_string(), RuleSet::standard())];
        for name in RuleSet::standard().names() {
            rulesets.push((
                format!("standard-without-{name}"),
                RuleSet::standard().without(name),
            ));
        }
        OracleMatrix {
            profiles: vec![NetworkProfile::slow_remote()],
            budgets: vec![("default".to_string(), SearchBudget::default())],
            rulesets,
            verify: VerifyLevel::Panic,
        }
    }

    /// A one-cell matrix (used by the minimizer and targeted suites).
    pub fn single(cell: OracleCell) -> OracleMatrix {
        OracleMatrix {
            profiles: vec![cell.profile],
            budgets: vec![(cell.budget_name, cell.budget)],
            rulesets: vec![(cell.ruleset_name, cell.ruleset)],
            verify: cell.verify,
        }
    }

    /// Every cell of the sweep, profiles outermost.
    pub fn cells(&self) -> Vec<OracleCell> {
        let mut out = Vec::new();
        for profile in &self.profiles {
            for (bn, budget) in &self.budgets {
                for (rn, ruleset) in &self.rulesets {
                    out.push(OracleCell {
                        profile: profile.clone(),
                        budget_name: bn.clone(),
                        budget: budget.clone(),
                        ruleset_name: rn.clone(),
                        ruleset: ruleset.clone(),
                        verify: self.verify,
                    });
                }
            }
        }
        out
    }
}

/// Costs and measurements from one passing cell.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Generating seed of the case.
    pub seed: u64,
    /// Profile / budget / ruleset labels of the cell.
    pub profile: String,
    /// Budget label.
    pub budget: String,
    /// Rule-set label.
    pub ruleset: String,
    /// Predicted cost of the chosen program (ns).
    pub est_cost_ns: f64,
    /// Predicted cost of the original program (ns).
    pub original_cost_ns: f64,
    /// Simulated seconds of the original run.
    pub secs_original: f64,
    /// Simulated seconds of the optimized run.
    pub secs_optimized: f64,
    /// Complete programs representable in the search DAG.
    pub alternatives: u64,
    /// Whether the search reported budget exhaustion.
    pub budget_exhausted: bool,
    /// Tags of the rules that produced a registered alternative
    /// (`OptimizationReport::rules_fired`) — what the cell *covered*.
    pub rules_fired: Vec<&'static str>,
}

/// Why a cell failed.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// The optimizer itself errored.
    Optimize(String),
    /// The *original* program failed to run — a generator soundness bug,
    /// never an optimizer bug; surfaced loudly so it cannot hide.
    OriginalRun(String),
    /// The optimized program failed to run.
    OptimizedRun(String),
    /// Both ran; the observables diverged.
    Mismatch(Divergence),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Optimize(e) => write!(f, "optimizer error: {e}"),
            FailureKind::OriginalRun(e) => write!(f, "ORIGINAL run error (generator bug): {e}"),
            FailureKind::OptimizedRun(e) => write!(f, "optimized run error: {e}"),
            FailureKind::Mismatch(d) => write!(f, "mismatch: {d}"),
        }
    }
}

/// A failing cell: everything needed to reproduce and report it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Generating seed — rerunning the cell from this seed alone
    /// reproduces the failure.
    pub seed: u64,
    /// The failing configuration.
    pub cell: OracleCell,
    /// What went wrong.
    pub kind: FailureKind,
    /// Pretty-printed original program.
    pub program: String,
    /// Pretty-printed optimized program (when optimization succeeded).
    pub optimized: Option<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "oracle failure: seed={} profile={} budget={} rules={}",
            self.seed,
            self.cell.profile.name(),
            self.cell.budget_name,
            self.cell.ruleset_name
        )?;
        writeln!(f, "{}", self.kind)?;
        writeln!(f, "--- original program ---\n{}", self.program)?;
        if let Some(opt) = &self.optimized {
            writeln!(f, "--- optimized program ---\n{opt}")?;
        }
        Ok(())
    }
}

/// Everything one case produced across the matrix.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// One record per cell, failing or not.
    pub records: Vec<RunRecord>,
    /// The failing cells.
    pub failures: Vec<Failure>,
}

/// Run one cell: optimize under the cell's configuration, execute the
/// original and the optimized program on fresh fixtures, compare
/// observables. `original` may carry a pre-computed original run for this
/// profile (it only depends on the profile, not on budget or rules).
// The Err variant carries the whole failing configuration plus both
// program texts by design — it *is* the repro artifact, and failures are
// rare enough that its size never matters.
#[allow(clippy::result_large_err)]
pub fn run_cell(
    case: &GenCase,
    cell: &OracleCell,
    original: Option<&workloads::RunResult>,
) -> Result<RunRecord, Failure> {
    let fail = |kind, optimized: Option<String>| Failure {
        seed: case.seed,
        cell: cell.clone(),
        kind,
        program: case.pretty(),
        optimized,
    };

    let fixture = case.fixture();
    let cobra = fixture
        .cobra_builder()
        .network(cell.profile.clone())
        .budget(cell.budget.clone())
        .rules(cell.ruleset.clone())
        .verify_rewrites(cell.verify)
        .build();
    let report = cobra
        .explain(&case.program)
        .map_err(|e| fail(FailureKind::Optimize(e.to_string()), None))?;
    let opt = report.summary;
    let optimized_program = case.program.with_entry(opt.program.clone());
    let optimized_text = pretty::program_to_string(&optimized_program);

    let fresh_original;
    let original = match original {
        Some(r) => r,
        None => {
            fresh_original = run_on(&case.fixture(), cell.profile.clone(), &case.program)
                .map_err(|e| fail(FailureKind::OriginalRun(e.to_string()), None))?;
            &fresh_original
        }
    };
    let rewritten =
        run_on(&case.fixture(), cell.profile.clone(), &optimized_program).map_err(|e| {
            fail(
                FailureKind::OptimizedRun(e.to_string()),
                Some(optimized_text.clone()),
            )
        })?;

    let observed = case.observed_vars();
    let observed: Vec<&str> = observed.iter().map(|s| s.as_str()).collect();
    check_equivalent(
        &original.outcome.normalized_with_vars(&observed),
        &rewritten.outcome.normalized_with_vars(&observed),
    )
    .map_err(|d| fail(FailureKind::Mismatch(d), Some(optimized_text.clone())))?;

    Ok(RunRecord {
        seed: case.seed,
        profile: cell.profile.name().to_string(),
        budget: cell.budget_name.clone(),
        ruleset: cell.ruleset_name.clone(),
        est_cost_ns: opt.est_cost_ns,
        original_cost_ns: opt.original_cost_ns,
        secs_original: original.secs,
        secs_optimized: rewritten.secs,
        alternatives: opt.alternatives,
        budget_exhausted: opt.budget_exhausted,
        rules_fired: report.rules_fired,
    })
}

/// Run one case through every cell of the matrix. The original program is
/// executed once per profile and shared across that profile's cells.
pub fn run_case(case: &GenCase, matrix: &OracleMatrix) -> CaseReport {
    let mut report = CaseReport::default();
    for profile in &matrix.profiles {
        let original = match run_on(&case.fixture(), profile.clone(), &case.program) {
            Ok(orig) => orig,
            Err(e) => {
                // A generator-soundness bug depends only on the profile —
                // record it once, not once per budget × ruleset cell.
                report.failures.push(Failure {
                    seed: case.seed,
                    cell: OracleCell {
                        profile: profile.clone(),
                        budget_name: "-".to_string(),
                        budget: SearchBudget::default(),
                        ruleset_name: "-".to_string(),
                        ruleset: RuleSet::standard(),
                        verify: matrix.verify,
                    },
                    kind: FailureKind::OriginalRun(e.to_string()),
                    program: case.pretty(),
                    optimized: None,
                });
                continue;
            }
        };
        for (bn, budget) in &matrix.budgets {
            for (rn, ruleset) in &matrix.rulesets {
                let cell = OracleCell {
                    profile: profile.clone(),
                    budget_name: bn.clone(),
                    budget: budget.clone(),
                    ruleset_name: rn.clone(),
                    ruleset: ruleset.clone(),
                    verify: matrix.verify,
                };
                match run_cell(case, &cell, Some(&original)) {
                    Ok(rec) => report.records.push(rec),
                    Err(f) => report.failures.push(f),
                }
            }
        }
    }
    report
}

/// Aggregate result of fuzzing a seed range.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Number of cases (seeds) generated and driven through the matrix.
    pub cases: usize,
    /// Total matrix cells executed.
    pub runs: usize,
    /// Number of pairwise-distinct generated programs (by pretty text).
    pub distinct_programs: usize,
    /// Per-cell records, sorted by (seed, profile, budget, ruleset).
    pub records: Vec<RunRecord>,
    /// Every failing cell.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// All failures rendered for a test assertion message.
    pub fn render_failures(&self) -> String {
        if self.failures.is_empty() {
            return "no failures".to_string();
        }
        let mut out = format!("{} failing cell(s):\n", self.failures.len());
        for f in self.failures.iter().take(5) {
            out.push_str(&f.to_string());
        }
        out
    }
}

/// Generate the cases for `seeds` and drive each through `matrix`,
/// fanning cases out over worker threads (the optimizer pipeline is
/// `Send + Sync`; each case owns its fixtures). Results are
/// deterministic: records are sorted after the parallel phase.
pub fn fuzz(seeds: std::ops::Range<u64>, cfg: &GenConfig, matrix: &OracleMatrix) -> FuzzReport {
    let seeds: Vec<u64> = seeds.collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(u64, String, CaseReport)>> = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(seeds.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let case = GenCase::from_seed(seed, cfg);
                let report = run_case(&case, matrix);
                results.lock().unwrap().push((seed, case.pretty(), report));
            });
        }
    });

    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(seed, _, _)| *seed);
    let mut out = FuzzReport {
        cases: results.len(),
        ..FuzzReport::default()
    };
    let mut texts = std::collections::HashSet::new();
    for (_, text, report) in results {
        texts.insert(text);
        out.runs += report.records.len() + report.failures.len();
        out.records.extend(report.records);
        out.failures.extend(report.failures);
    }
    out.distinct_programs = texts.len();
    out.records.sort_by(|a, b| {
        (a.seed, &a.profile, &a.budget, &a.ruleset)
            .cmp(&(b.seed, &b.profile, &b.budget, &b.ruleset))
    });
    out
}

/// The seed range the fuzz suites run, overridable without recompiling:
/// `FUZZ_SEEDS=2000` widens to `0..2000`, `FUZZ_SEEDS=500..900` selects a
/// window. Unset or unparsable → `0..default_count` (what CI pins).
pub fn seed_range_from_env(default_count: u64) -> std::ops::Range<u64> {
    let Ok(raw) = std::env::var("FUZZ_SEEDS") else {
        return 0..default_count;
    };
    let raw = raw.trim();
    if let Some((a, b)) = raw.split_once("..") {
        if let (Ok(a), Ok(b)) = (a.trim().parse(), b.trim().parse()) {
            if a < b {
                return a..b;
            }
        }
    } else if let Ok(n) = raw.parse::<u64>() {
        return 0..n;
    }
    0..default_count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_shape() {
        let m = OracleMatrix::default();
        assert_eq!(m.profiles.len(), 3);
        assert_eq!(m.budgets.len(), 2);
        assert_eq!(m.cells().len(), 6);
    }

    #[test]
    fn one_case_passes_the_default_matrix() {
        let case = GenCase::from_seed(3, &GenConfig::default());
        let report = run_case(&case, &OracleMatrix::default());
        assert_eq!(report.records.len(), 6, "{}", {
            let mut s = String::new();
            for f in &report.failures {
                s.push_str(&f.to_string());
            }
            s
        });
        assert!(report.failures.is_empty());
    }

    #[test]
    fn seed_range_parsing() {
        // Unset env in this process: default applies.
        std::env::remove_var("FUZZ_SEEDS");
        assert_eq!(seed_range_from_env(10), 0..10);
        std::env::set_var("FUZZ_SEEDS", "25");
        assert_eq!(seed_range_from_env(10), 0..25);
        std::env::set_var("FUZZ_SEEDS", "5..9");
        assert_eq!(seed_range_from_env(10), 5..9);
        std::env::set_var("FUZZ_SEEDS", "bogus");
        assert_eq!(seed_range_from_env(10), 0..10);
        std::env::remove_var("FUZZ_SEEDS");
    }
}
