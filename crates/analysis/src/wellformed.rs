//! Pass 1 — structural well-formedness of an alternative.
//!
//! The checks lean on the hash-consing construction invariant: a node can
//! only be interned after its children, so **every child id is strictly
//! smaller than its parent's id**. One linear scan therefore rules out
//! both dangling references and cycles — and because the arena is
//! append-only and shared by every alternative of a loop, that scan
//! covers each node once per closure, not once per alternative: the
//! caller keeps the watermark. Unreachable nodes are *not* an error — a
//! node no assignment reaches is part of no alternative (the arena is a
//! hash-consed pool, not a garbage-collected heap).

use crate::{Diagnostic, Pass};
use fir::{FirArena, FirId, FirNode, FirRoots};

fn err(node: Option<FirId>, message: String) -> Diagnostic {
    Diagnostic::new(Pass::WellFormed, node, message)
}

/// Check structural well-formedness. See the module docs for the rules.
///
/// `scanned` is the def-before-use watermark: nodes below it were scanned
/// by an earlier call over the same (since grown) arena. Start it at 0 and
/// pass the same variable for every alternative of the closure.
///
/// # Errors
///
/// The first structural defect found, as a [`Diagnostic`] naming the
/// offending node where one exists.
pub fn check_wellformed(
    arena: &FirArena,
    alt: &FirRoots,
    scanned: &mut usize,
) -> Result<(), Diagnostic> {
    if alt.assigns.is_empty() {
        return Err(err(
            None,
            "alternative has no assignments: every write was dropped".into(),
        ));
    }

    // Def-before-use: child ids strictly precede their parent's. Catches
    // dangling ids and reference cycles at once. The watermark stops at a
    // bad node, so an arena holding one fails every later alternative too.
    while *scanned < arena.len() {
        let id = *scanned;
        let mut bad = None;
        arena.node(id).for_each_child(|child| {
            if child >= id && bad.is_none() {
                bad = Some(child);
            }
        });
        if let Some(child) = bad {
            return Err(err(
                Some(id),
                format!(
                    "node {id} references child {child} which does not precede it \
                     (dangling or cyclic reference)"
                ),
            ));
        }
        *scanned += 1;
    }

    for (var, root) in &alt.assigns {
        if *root >= arena.len() {
            return Err(err(
                Some(*root),
                format!("assignment to `{var}` points at node {root}, past the arena end"),
            ));
        }
        for id in arena.reachable(*root) {
            check_node(arena, id)?;
        }
    }

    if let Some(var) = &alt.requires_empty_init {
        if !alt.assigns.iter().any(|(v, _)| v == var) {
            return Err(err(
                None,
                format!("requires_empty_init names `{var}`, which no assignment targets"),
            ));
        }
    }

    for p in &alt.prefetches {
        if p.table.is_empty() || p.key_col.is_empty() {
            return Err(err(
                None,
                format!(
                    "prefetch of table `{}` keyed by `{}` has an empty component",
                    p.table, p.key_col
                ),
            ));
        }
    }

    Ok(())
}

fn check_node(arena: &FirArena, id: FirId) -> Result<(), Diagnostic> {
    match arena.node(id) {
        FirNode::Fold {
            func,
            init,
            updated,
            loop_var,
            ..
        } => {
            if updated.is_empty() {
                return Err(err(Some(id), "fold has no accumulator variables".into()));
            }
            let mut names = updated.clone();
            names.sort_unstable();
            names.dedup();
            if names.len() != updated.len() {
                return Err(err(
                    Some(id),
                    format!("fold accumulators are not distinct: {updated:?}"),
                ));
            }
            if updated.iter().any(|u| u == loop_var) {
                return Err(err(
                    Some(id),
                    format!("fold loop variable `{loop_var}` shadows an accumulator"),
                ));
            }
            for (role, tuple_id) in [("func", *func), ("init", *init)] {
                match arena.node(tuple_id) {
                    FirNode::Tuple(items) if items.len() == updated.len() => {}
                    FirNode::Tuple(items) => {
                        return Err(err(
                            Some(id),
                            format!(
                                "fold {role} tuple has {} items for {} accumulators \
                                 (markers unbalanced)",
                                items.len(),
                                updated.len()
                            ),
                        ));
                    }
                    other => {
                        return Err(err(
                            Some(id),
                            format!(
                                "fold {role} must be a Tuple aligned with the \
                                 accumulators, found {other:?}"
                            ),
                        ));
                    }
                }
            }
        }
        FirNode::Query { plan, binds } | FirNode::ScalarQuery { plan, binds } => {
            let mut names: Vec<&str> = binds.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            if names.len() != before {
                return Err(err(Some(id), "query binds the same parameter twice".into()));
            }
            for param in plan.as_plan().params() {
                if !names.contains(&param.as_str()) {
                    return Err(err(
                        Some(id),
                        format!("query plan uses parameter `:{param}` with no bind"),
                    ));
                }
            }
        }
        FirNode::Project(tuple, idx) => match arena.node(*tuple) {
            FirNode::Tuple(items) if *idx >= items.len() => {
                return Err(err(
                    Some(id),
                    format!(
                        "project_{idx} out of range for a {}-item tuple",
                        items.len()
                    ),
                ));
            }
            FirNode::Fold { updated, .. } if *idx >= updated.len() => {
                return Err(err(
                    Some(id),
                    format!(
                        "project_{idx} out of range for a fold over {} accumulators",
                        updated.len()
                    ),
                ));
            }
            _ => {}
        },
        _ => {}
    }
    Ok(())
}
