//! Shared experiment harness: fixtures and program execution.

use imperative::ast::Program;
use interp::{Endpoint, Outcome};
use minidb::{DbResult, FuncRegistry};
use netsim::NetworkProfile;
use orm::{MappingRegistry, Prices};

use std::sync::Arc;

/// A database + mappings + function registry, ready to run programs.
#[derive(Clone)]
pub struct Fixture {
    /// The shared database.
    pub db: minidb::SharedDb,
    /// ORM mappings for the schema.
    pub mapping: MappingRegistry,
    /// Pure functions the programs call (`myFunc`, …).
    pub funcs: Arc<FuncRegistry>,
}

/// Outcome of running one program on one network profile.
pub struct RunResult {
    /// Interpreter outcome (results, prints, statement counts).
    pub outcome: Outcome,
    /// Simulated wall-clock seconds.
    pub secs: f64,
}

impl Fixture {
    /// Start a [`cobra_core::CobraBuilder`] pre-wired with this fixture's
    /// database, mappings and functions — configure network, catalog,
    /// rules and budget, then `build()`:
    ///
    /// ```
    /// use netsim::NetworkProfile;
    /// use workloads::motivating;
    ///
    /// let fixture = motivating::build_fixture(100, 20, 7);
    /// let cobra = fixture
    ///     .cobra_builder()
    ///     .network(NetworkProfile::slow_remote())
    ///     .build();
    /// assert!(cobra.rules().is_enabled("N1"));
    /// ```
    pub fn cobra_builder(&self) -> cobra_core::CobraBuilder {
        cobra_core::Cobra::builder(self.db.clone())
            .mappings(self.mapping.clone())
            .funcs(self.funcs.clone())
    }

    /// An independent tenant copy: the database is deep-copied (minting a
    /// fresh `Database::instance_id`, so cached estimates and plans for
    /// this fixture can never be served for the original — the
    /// `CacheStamp` machinery keys on the instance id), while mappings
    /// and functions stay shared. Two tenants with identical schemas and
    /// data are still distinct cache tenants.
    pub fn fork_db(&self) -> Fixture {
        let copy = self.db.read().unwrap().clone();
        Fixture {
            db: minidb::shared(copy),
            ..self.clone()
        }
    }

    /// This fixture as something to run a program on: across `net`, at the
    /// default prices — a fixture has no catalog; a run that should charge
    /// an optimizer's is [`cobra_core::Cobra::run`].
    fn endpoint(&self, net: NetworkProfile) -> Endpoint {
        Endpoint {
            db: self.db.clone(),
            funcs: self.funcs.clone(),
            mappings: Arc::new(self.mapping.clone()),
            net,
            prices: Prices::default(),
            feedback: None,
        }
    }
}

/// Execute `program` against `fixture` over `net` and report results plus
/// simulated time. Each run uses a fresh session and clock (a fresh
/// transaction, as in the paper's per-run measurements).
pub fn run_on(fixture: &Fixture, net: NetworkProfile, program: &Program) -> DbResult<RunResult> {
    run(fixture.endpoint(net), program)
}

/// [`run_on`], additionally recording every executed query's observed
/// cardinality and work into `feedback` — one execution populates the
/// observations that feedback-aware estimation
/// (`Estimator::with_feedback`, `CobraBuilder::feedback`) then prefers.
pub fn run_on_with_feedback(
    fixture: &Fixture,
    net: NetworkProfile,
    program: &Program,
    feedback: Arc<minidb::FeedbackStore>,
) -> DbResult<RunResult> {
    let on = Endpoint {
        feedback: Some(feedback),
        ..fixture.endpoint(net)
    };
    run(on, program)
}

fn run(on: Endpoint, program: &Program) -> DbResult<RunResult> {
    let outcome = interp::run_program(on, program)?;
    let secs = netsim::ns_to_secs(outcome.elapsed_ns);
    Ok(RunResult { outcome, secs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motivating;

    #[test]
    fn run_on_reports_time_and_results() {
        let fixture = motivating::build_fixture(100, 20, 7);
        let p0 = motivating::p0();
        let r = run_on(&fixture, NetworkProfile::fast_local(), &p0).unwrap();
        assert!(r.secs > 0.0);
        assert!(r.outcome.round_trips >= 1);
    }
}
