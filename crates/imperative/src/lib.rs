//! The mini imperative language in which the paper's application programs
//! are written.
//!
//! The paper's prototype analyses Java/Hibernate bytecode through Soot; our
//! substitute is a small structured language rich enough for every program
//! in the paper: ORM access (`loadAll`, association navigation), embedded
//! SQL (`executeQuery` with named parameters), collections and maps,
//! loops over query results (cursor loops), conditionals, client-side
//! caches (`cacheByColumn`/`lookupCache`), database updates, opaque pure
//! functions (`myFunc`), user-defined procedures, and `try/catch` (which
//! produces *unstructured* regions, exercising COBRA's black-box path).
//!
//! The crate provides:
//! * [`ast`] — statements, expressions and functions (with line numbers),
//! * [`regions`] — the region tree built directly from the structured AST;
//!   this is the builder every search runs,
//! * [`mod@cfg`] and [`structural`] — lowering to a control-flow graph whose
//!   nodes are single statements (the paper treats each statement as a
//!   basic block) and Muchnick-style structural analysis that rebuilds the
//!   region tree from it (the paper's construction). No search calls them;
//!   they are the independent reference [`regions`] is checked against on
//!   every break-free, try-free function of the test corpus,
//! * [`deps`] — loop dependence analysis feeding the F-IR preconditions,
//! * [`pretty`] — a pseudo-code printer used by the examples.

pub mod ast;
pub mod cfg;
pub mod deps;
pub mod pretty;
pub mod regions;
pub mod structural;

pub use ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
pub use cfg::{Cfg, NodeId, NodeKind};
pub use deps::{Blocker, LoopAnalysis};
pub use regions::{Region, RegionKind};
