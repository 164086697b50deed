//! F-IR — the fold intermediate representation (§V).
//!
//! F-IR represents the value of every variable at the end of a region as
//! an expression over values available at the region's beginning. Cursor
//! loops become `fold(f, init, Q)`; this crate implements the paper's
//! extension where `fold` returns a **tuple** of accumulators and
//! `project_i` extracts one — lifting the single-aggregate restriction of
//! the earlier work and enabling *dependent aggregations* (Figure 7's
//! `sum`/`cSum`).
//!
//! Components:
//! * [`arena`] — the hash-consed expression DAG ([`FirNode`], [`FirArena`])
//!   with a paper-style pretty printer (`fold(<sum> + Q.sale_amt, 0, Q)`),
//! * [`build`] — `loopToFold` (Figure 9): symbolic evaluation of a loop
//!   body into a fold, with ORM navigation lowered to single-row lookup
//!   queries (the N+1 pattern made explicit),
//! * [`rules`] — transformation rules: T2 (predicate push), T3 is folded
//!   into the expression translation, T4/T5-variant (lookup/nested-loop →
//!   join), T5 (aggregation extraction, full and partial), N1
//!   (prefetching), N2 (selection pull-out), T1 (fold removal); each one
//!   matches and returns [`Derivation`]s, data describing what it derived,
//! * [`codegen`] — F-IR alternative → imperative statements, the inverse
//!   of [`build`],
//! * [`ruleset`] — the rules as first-class API objects: a [`RuleSet`]
//!   registry with per-rule enable/disable toggles and room for
//!   user-registered [`Rule`]s, and the closure driver
//!   [`ruleset::expand_with`] — the one place that turns a [`Derivation`]
//!   into a [`FirAlternative`].

pub mod arena;
pub mod build;
pub mod codegen;
pub mod rules;
pub mod ruleset;

pub use arena::{FirArena, FirId, FirNode};
pub use build::{loop_to_fold, FirAlternative, FirRoots, Prefetch};
pub use codegen::generate;
pub use ruleset::{
    expand_with, expand_with_verifier, Change, Derivation, EffectDelta, Expansion, RewriteVerifier,
    Rule, RuleFn, RuleSet,
};
