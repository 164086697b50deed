//! Interpreter for the mini imperative language.
//!
//! Executes a [`imperative::Program`] against an [`orm::Session`] (and
//! through it the simulated network and database), advancing the shared
//! virtual clock:
//!
//! * every executed statement costs `C_Z` nanoseconds (30 ns in the paper,
//!   §VIII: "The cost of executing any other instruction apart from a
//!   query execution statement … was set to 30ns"),
//! * queries, `loadAll`, association-navigation cache misses and updates
//!   are charged by [`orm::RemoteDb`] with round trip + server + transfer
//!   time.
//!
//! The interpreter returns both the program's *results* (final variable
//! bindings, return value, printed output) and its *costs* (elapsed
//! virtual time, round trips, bytes moved), which is what lets the test
//! suite check that COBRA's rewrites preserve semantics while the
//! benchmarks measure the performance of each alternative.

mod machine;
mod value;

pub use machine::{run_program, Endpoint, Interp, NormalizedOutcome, Outcome};
pub use value::{ColumnCache, RowObj, RtVal, Snapshot};
