//! Object-relational mapping layer.
//!
//! Substitutes for Hibernate in the paper's setup (§II):
//!
//! * [`EntityMapping`] / [`MappingRegistry`] — the `@Entity`/`@Table`/
//!   `@ManyToOne` metadata of Figure 2: entity ⇄ table, primary key, and
//!   many-to-one associations (`Order.customer` → `customer_sk` FK).
//! * [`RemoteDb`] — a connection to the database *through the simulated
//!   network*: every query costs one round trip plus server time plus
//!   result transfer (`C_Q = C_NRT + C^F_Q + max(N_Q·S_row/BW, C^L_Q −
//!   C^F_Q)`), advancing the shared virtual clock.
//! * [`Session`] — the ORM session with a first-level cache: entity rows
//!   are cached by primary key on first access, so repeated association
//!   navigations to the same row stop issuing queries (the behaviour
//!   behind Experiment 2's observation that P0 ≈ P1 on fast networks).

mod mapping;
mod remote;
mod session;

pub use mapping::{AssociationMap, EntityMapping, MappingRegistry};
pub use remote::{Prices, RemoteDb};
pub use session::Session;
