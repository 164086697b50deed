//! Test support shared by `background_figures` and `memo_properties`: a
//! generic rule driver over `volcano::Memo` and the join algebra of the
//! paper's Figure 4.
//!
//! No search runs this code. `cobra_core::DagBuilder` fills the memo
//! itself and F-IR rules fire through `fir::expand_with`; the driver here
//! exists so the memo's own guarantees — hash-consing, group merging,
//! termination under cyclic rules, exact plan counts — can be stressed
//! with an algebra small enough to enumerate.

// Each test binary that includes this module uses a different part of it.
#![allow(dead_code)]

pub mod engine;
pub mod relalg;
