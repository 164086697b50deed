//! Pass 3 — binding-leak detection.
//!
//! F-IR has exactly two binder forms: a fold's loop variable (referenced
//! through `TupleVar`/`TupleAttr`) and its accumulator markers
//! (`AccParam`), both scoped to the fold's `func` body. `init` and
//! `source` evaluate *before* an iteration exists, so they see only the
//! enclosing scope — which is how correlated sub-folds stay legal: an
//! inner fold's `source` may reference the *outer* loop variable, because
//! the inner fold sits inside the outer `func`.
//!
//! A reference outside its binder's body is a leak: the value it names
//! does not exist at evaluation time. PR 3 caught this bug class
//! dynamically (codegen binding leaks across `Cond` branches); this pass
//! rejects it without running anything.

use crate::{Diagnostic, Pass};
use fir::{FirArena, FirId, FirNode, FirRoots};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

/// The bindings visible at a point of the walk.
#[derive(Clone, Default)]
struct Scope {
    /// Loop variables of enclosing folds (row bindings).
    tuples: BTreeSet<String>,
    /// Accumulator names of enclosing folds (fold markers).
    accs: BTreeSet<String>,
}

impl Scope {
    /// Stable fingerprint for memoization: shared DAG nodes are revisited
    /// only under scopes they have not been checked in yet.
    fn signature(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for t in &self.tuples {
            ("t", t).hash(&mut h);
        }
        for a in &self.accs {
            ("a", a).hash(&mut h);
        }
        h.finish()
    }
}

/// Check that no row binding or fold marker escapes its defining fold
/// body. See the module docs for the scoping rules.
///
/// # Errors
///
/// A [`Diagnostic`] naming the leaking node and binding.
pub fn check_scopes(arena: &FirArena, alt: &FirRoots) -> Result<(), Diagnostic> {
    let mut visited: HashSet<(FirId, u64)> = HashSet::new();
    let scope = Scope::default();
    for (var, root) in &alt.assigns {
        walk(arena, *root, &scope, &mut visited).map_err(|mut d| {
            d.message = format!("in the assignment to `{var}`: {}", d.message);
            d
        })?;
    }
    Ok(())
}

fn walk(
    arena: &FirArena,
    id: FirId,
    scope: &Scope,
    visited: &mut HashSet<(FirId, u64)>,
) -> Result<(), Diagnostic> {
    if !visited.insert((id, scope.signature())) {
        return Ok(());
    }
    match arena.node(id) {
        FirNode::TupleVar(v) | FirNode::TupleAttr(v, _) => {
            if !scope.tuples.contains(v) {
                return Err(Diagnostic::new(
                    Pass::Scope,
                    Some(id),
                    format!("row binding `{v}` escapes the fold body that defines it"),
                ));
            }
        }
        FirNode::AccParam(v) => {
            if !scope.accs.contains(v) {
                return Err(Diagnostic::new(
                    Pass::Scope,
                    Some(id),
                    format!("accumulator marker `<{v}>` escapes the fold body that defines it"),
                ));
            }
        }
        FirNode::Fold {
            func,
            init,
            source,
            loop_var,
            updated,
        } => {
            // init and source evaluate before any iteration: outer scope.
            walk(arena, *init, scope, visited)?;
            walk(arena, *source, scope, visited)?;
            let mut inner = scope.clone();
            inner.tuples.insert(loop_var.clone());
            inner.accs.extend(updated.iter().cloned());
            walk(arena, *func, &inner, visited)?;
        }
        _ => {
            let mut result = Ok(());
            arena.node(id).for_each_child(|child| {
                if result.is_ok() {
                    result = walk(arena, child, scope, visited);
                }
            });
            result?;
        }
    }
    Ok(())
}
