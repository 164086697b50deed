//! # COBRA — Cost Based Rewriting of Database Applications
//!
//! A Rust reproduction of *"COBRA: A Framework for Cost Based Rewriting of
//! Database Applications"* (Emani & Sudarshan, ICDE 2018).
//!
//! This facade crate re-exports every sub-crate of the workspace under one
//! namespace so that applications can depend on a single crate:
//!
//! * [`netsim`] — virtual clock and network profiles (bandwidth / RTT).
//! * [`minidb`] — in-memory relational database: SQL parser, logical plans,
//!   executor, and the estimator COBRA's cost model consults.
//! * [`imperative`] — the mini imperative language: AST, CFG, program
//!   regions, and data-dependence analysis.
//! * [`orm`] — Hibernate-like object-relational mapping layer with a session
//!   cache and lazy association loading (the N+1 select problem).
//! * [`interp`] — interpreter that executes programs against the ORM and
//!   database while accumulating *simulated* wall-clock time.
//! * [`volcano`] — a generic Volcano/Cascades AND-OR DAG optimizer.
//! * [`fir`] — the F-IR intermediate representation (`fold`/`tuple`/
//!   `project`), transformation rules T1–T5, N1, N2, and the [`fir::RuleSet`]
//!   registry that makes them toggleable, extensible API objects.
//! * [`core`] — the COBRA optimizer itself: Region DAG, cost model, search,
//!   and the typed configuration layer ([`core::CobraBuilder`],
//!   [`core::OptimizerConfig`], [`core::SearchBudget`],
//!   [`core::OptimizationReport`]), plus runtime-validated plan
//!   selection ([`core::ValidationConfig`]): the top-k candidates are
//!   micro-executed on a shrunk fixture and the *measured* winner wins.
//! * [`workloads`] — the paper's workloads: motivating example P0/P1/P2,
//!   program M0, the Wilos-like fragments of patterns A–F, and the seeded
//!   random program generator [`workloads::genprog`].
//! * [`oracle`] — the differential-execution oracle: original-vs-optimized
//!   equivalence fuzzing over generated programs across network profiles,
//!   budgets and rule sets, with failure minimization down to seed-keyed
//!   repros.
//! * [`analysis`] — static verification: the three-pass F-IR rewrite
//!   verifier (well-formedness, effect soundness, binding-leak detection)
//!   behind [`core::OptimizerConfig::verify_rewrites`], plus the
//!   `repo_lint` source linter.
//! * [`server`] — Cobra-as-a-service: a concurrent optimizer/execution
//!   server with tenants, sessions, a sharded single-flight plan cache,
//!   admission control with load shedding and budget degradation,
//!   drift-driven plan hot swapping, and a dependency-free TCP wire
//!   protocol ([`server::WireServer`] / [`server::WireClient`]) —
//!   hardened with a seeded fault-injection harness
//!   ([`server::FaultPlan`]), a retrying client ([`server::RetryPolicy`]),
//!   a health machine ([`server::Health`]), and crash-safe plan-cache
//!   snapshot/restore ([`server::Snapshot`]).
//!
//! The [`prelude`] re-exports the common surface in one `use`.
//!
//! ## Quickstart
//!
//! ```
//! use cobra::prelude::*;
//!
//! // Build the orders/customer database (tiny sizes for the doctest).
//! let fixture = motivating::build_fixture(1_000, 200, 42);
//! let program = motivating::p0();
//!
//! let cobra = fixture
//!     .cobra_builder()
//!     .network(NetworkProfile::slow_remote())
//!     .build();
//! let optimized = cobra.optimize_program(&program).expect("optimizes");
//! assert!(optimized.alternatives >= 3, "P0, P1-like and P2-like plans");
//! assert!(!optimized.budget_exhausted, "default budget explores P0 fully");
//! ```
//!
//! ## Configuring the optimizer
//!
//! Rules and search effort are first-class configuration: disable rules
//! for ablations, bound the search, and ask for a structured explanation
//! of every cost-based choice:
//!
//! ```
//! use cobra::prelude::*;
//!
//! let fixture = motivating::build_fixture(1_000, 200, 42);
//! let cobra = fixture
//!     .cobra_builder()
//!     .network(NetworkProfile::slow_remote())
//!     .rules(RuleSet::standard().without("N1")) // no prefetching
//!     .budget(SearchBudget::default().with_max_alternatives_per_region(32))
//!     .build();
//!
//! let report = cobra.explain(&motivating::p0()).expect("optimizes");
//! let top = report.top_choice_point().expect("P0 has a choice point");
//! assert!(top.alternatives.iter().all(|a| !a.rules.contains(&"N1")));
//! println!("{report}");
//! ```
//!
//! ## Thread safety
//!
//! The whole optimizer pipeline is `Send + Sync` (enforced by compile-time
//! assertions in `cobra_core`): shared state travels in `Arc`s, the
//! database behind an `RwLock` ([`minidb::SharedDb`]), and per-search cost
//! memoization ([`volcano::CostMemo`]) uses lock/atomic interior
//! mutability. One `&Cobra` can therefore serve many threads — which is
//! how [`server`] runs it, one thread per connection behind an admission
//! gate — and every thread gets the program and cost a sequential call
//! would:
//!
//! ```
//! use cobra::prelude::*;
//!
//! let fixture = motivating::build_fixture(500, 100, 42);
//! let cobra = fixture
//!     .cobra_builder()
//!     .network(NetworkProfile::slow_remote())
//!     .build();
//!
//! let programs = [motivating::p0(), motivating::m0()];
//! let sequential: Vec<u64> = programs
//!     .iter()
//!     .map(|p| cobra.optimize_program(p).expect("optimizes").est_cost_ns.to_bits())
//!     .collect();
//! let threaded: Vec<u64> = std::thread::scope(|scope| {
//!     let handles: Vec<_> = programs
//!         .iter()
//!         .map(|p| scope.spawn(|| cobra.optimize_program(p).expect("optimizes")))
//!         .collect();
//!     handles
//!         .into_iter()
//!         .map(|h| h.join().expect("no panic").est_cost_ns.to_bits())
//!         .collect()
//! });
//! assert_eq!(threaded, sequential);
//! ```

pub use analysis;
pub use cobra_core as core;
pub use cobra_server as server;
pub use fir;
pub use imperative;
pub use interp;
pub use minidb;
pub use netsim;
pub use oracle;
pub use orm;
pub use volcano;
pub use workloads;

/// The common COBRA surface in one import: the optimizer and its typed
/// configuration (builder, rules, budget, report), the network/database
/// substrate handles, and the paper's workloads.
pub mod prelude {
    pub use cobra_core::{
        ChoicePoint, Cobra, CobraBuilder, CostCatalog, OptimizationReport, Optimized,
        OptimizerConfig, ReportedAlternative, Rule, RuleSet, SearchBudget, SelectionValidation,
        ValidatedCandidate, ValidationConfig, ValidationSource, VerifyLevel,
    };
    pub use cobra_server::{
        CobraService, FaultConfig, FaultKind, FaultPlan, FaultSite, Health, RestoreReport,
        RetryPolicy, ServerConfig, ServerError, Snapshot, SubmitReply, TenantSpec, WireClient,
        WireServer,
    };
    pub use imperative::ast::{Expr, Function, Program, Stmt, StmtKind};
    pub use imperative::pretty;
    pub use minidb::{CacheStamp, Database, FuncRegistry, PlanFingerprint, SharedDb};
    pub use netsim::{Clock, NetworkProfile};
    pub use oracle::{
        assert_equivalent, check_equivalent, run_case, run_cell, OracleCell, OracleMatrix, Repro,
    };
    pub use orm::{EntityMapping, MappingRegistry};
    pub use workloads::genprog::{GenCase, GenConfig};
    pub use workloads::harness::{run_on, Fixture, RunResult};
    pub use workloads::{genprog, motivating, wilos};
}
