//! COBRA — cost based rewriting of database applications.
//!
//! This crate is the paper's primary contribution: it represents an
//! imperative program as an **AND-OR DAG over program regions** (the
//! *Region DAG*, §IV), populates it with alternatives produced by program
//! transformations (the F-IR rules of §V plus statement-level prefetching
//! and procedure inlining), and extracts the least-cost program under the
//! network/database-aware cost model of §VI.
//!
//! ```text
//!            program ──► region tree ──► Region DAG (volcano memo)
//!                                            │  ▲
//!                       loop→fold, T1–T5,    │  │ alternatives
//!                       N1, N2, inlining ────┘  │
//!                                               ▼
//!            cost model (C_NRT, C^F_Q, C^L_Q, N_Q, S_row, BW, AF, C_Y, C_Z)
//!                                               │
//!                                               ▼
//!                              least-cost program (emitted back as AST)
//! ```
//!
//! Entry point: [`Cobra`], constructed through [`Cobra::builder`] /
//! [`CobraBuilder`]. The typed configuration layer makes the paper's
//! three inputs explicit API objects: a [`CostCatalog`] carries the
//! tunable cost parameters (the paper provides them "as a cost catalog
//! file"; see [`CostCatalog::parse`]), a [`fir::RuleSet`] names the
//! transformation rules with per-rule toggles, and a [`SearchBudget`]
//! bounds search effort — with exhaustion surfaced on the result instead
//! of silent truncation. [`Cobra::explain`] returns a structured
//! [`OptimizationReport`] of every cost-based choice the search made.

pub mod catalog;
pub mod config;
pub mod cost;
pub mod emit;
pub mod heuristic;
pub mod optimizer;
pub mod region_ops;
pub mod report;
pub mod transforms;
pub mod validation;

pub use catalog::CostCatalog;
pub use config::{CobraBuilder, OptimizerConfig, SearchBudget, VerifyLevel};
pub use cost::RegionCostModel;
pub use optimizer::{Cobra, Optimized};
pub use region_ops::RegionOp;
pub use report::{ChoicePoint, OptimizationReport, ReportedAlternative};
pub use validation::{SelectionValidation, ValidatedCandidate, ValidationConfig, ValidationSource};

// Re-exported so configuring rules does not require a direct `fir`
// dependency.
pub use fir::{Rule, RuleSet};
