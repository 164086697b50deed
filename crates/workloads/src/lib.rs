//! The paper's workloads, reproduced.
//!
//! * [`motivating`] — the §II example: program P0 (Hibernate-style, N+1
//!   selects), P1 (join query), P2 (prefetch + client cache), program M0
//!   (Figure 7, dependent aggregations), and the orders/customer database
//!   with row sizes per the TPC-DS specification.
//! * [`wilos`] — a synthetic stand-in for the Wilos application (§VIII,
//!   Experiment 4): the 32 code fragments of Figure 16 across the six
//!   cost-based patterns A–F of Figure 14, plus the representative
//!   programs and data generator (10:1 many-to-one ratio, 20 %
//!   selectivity) used for Figure 15.
//! * [`genprog`] — the seeded random program generator behind the
//!   differential-execution oracle: randomized schemas (2–5 tables,
//!   foreign keys, varied stats) and well-typed programs composing the
//!   shapes the rules target, every case reproducible from one `u64`
//!   seed.
//! * [`harness`] — shared glue: build sessions over a network profile,
//!   run programs, collect outcomes.

pub mod genprog;
pub mod harness;
pub mod motivating;
pub mod wilos;

pub use harness::{run_on, Fixture, RunResult};
