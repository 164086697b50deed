//! The optimizer's stages, replayed one public call at a time under
//! spans. Used by the traced pass of every workload that searches
//! (`search`, `rewrite_run`, `serve_churn`).
//!
//! `Cobra::optimize_program` is one opaque call from outside, so next to
//! it the replay runs the calls it is made of — `Region::from_function`,
//! `Cobra::region_dag`, `CostMemo::new` + `cost_table`, `best_plan_from`,
//! `emit_function` — each on a fresh `Cobra`, so the estimate cache is as
//! cold as it is for the whole call. What the whole call does beyond them
//! (costing the original, `count_plans`, `describe`) is `core.rest_us`.
//!
//! F-IR work happens inside `region_dag`; to see it on its own the replay
//! also runs `loop_to_fold` → `expand_with` → `codegen::generate` over
//! each loop region. Deviation from the real path: `live_after` is `None`
//! (everything live) because the optimizer's liveness is private, so a
//! loop may keep accumulators the real search drops.

use crate::trace::Tracer;
use cobra_core::{emit, Optimized, VerifyLevel};
use imperative::ast::Program;
use imperative::regions::{Region, RegionKind};
use netsim::NetworkProfile;
use workloads::harness::Fixture;

/// Counts read from public counters while replaying.
#[derive(Default)]
pub struct Counts {
    pub ops: u64,
    pub regions: u64,
    pub foldable_loops: u64,
    pub fir_alternatives: u64,
    pub choice_points: u64,
    pub alternatives: f64,
    pub budget_exhausted: u64,
    pub memo_groups: u64,
    pub memo_exprs: u64,
    pub cost_hits: u64,
    pub cost_misses: u64,
    pub estimate_hits: u64,
    pub estimate_misses: u64,
    pub feedback_overrides: u64,
}

/// A program with the fixture whose statistics the optimizer reads.
pub type Subject<'a> = (&'a Fixture, &'a Program);

/// The optimizer every workload measures: default builder configuration
/// on `slow_remote`, fresh per call so the estimate cache is cold.
pub fn fresh_cobra(fixture: &Fixture) -> cobra_core::Cobra {
    fixture
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build()
}

/// One round over `subjects`: the whole call on each, under a
/// `core.optimize` span, then the [`replay`]. Operation ids start at
/// `first_op_id`. Returns one verdict per subject.
pub fn round(
    tr: &mut Tracer,
    subjects: &[Subject],
    first_op_id: u64,
    counts: &mut Counts,
) -> Vec<Result<(), String>> {
    let mut failed = Vec::new();
    let whole: Vec<Option<(u64, Optimized)>> = subjects
        .iter()
        .zip(first_op_id..)
        .map(|((fixture, program), id)| {
            let cobra = fresh_cobra(fixture);
            tr.begin_op(id);
            match tr.span("core.optimize", |_| cobra.optimize_program(program)) {
                Ok(opt) => Some((id, opt)),
                Err(e) => {
                    failed.push(Err(format!("{}: {e}", program.entry().name)));
                    None
                }
            }
        })
        .collect();
    failed.extend(replay(tr, subjects, &whole, counts));
    failed
}

/// Replay the stages of every subject whose whole call succeeded
/// (`whole[i]` is its operation id and what it returned), in two passes,
/// each doing one sort of work on every subject before the next starts:
/// the staged calls, then verification and the F-IR replay. Interleaving
/// them with the whole calls per subject made `optimize_program` read
/// 40 % slower than untraced (it ran on caches the replay had just
/// emptied), and the stages no longer summed to the whole.
///
/// Returns one verdict per replayed subject: staged calls that emit
/// another program than the whole call did are a failure.
pub fn replay(
    tr: &mut Tracer,
    subjects: &[Subject],
    whole: &[Option<(u64, Optimized)>],
    counts: &mut Counts,
) -> Vec<Result<(), String>> {
    let err = |e: minidb::DbError| e.to_string();
    let mut out: Vec<Option<Result<(), String>>> = vec![None; subjects.len()];

    for (i, (fixture, program)) in subjects.iter().enumerate() {
        let Some((id, opt)) = &whole[i] else { continue };
        tr.begin_op(*id);
        let entry = program.entry();
        let cobra = fresh_cobra(fixture);
        let staged = tr.span("core.staged", |tr| -> Result<_, String> {
            let region = tr.span("imperative.region_build", |_| Region::from_function(entry));
            let (memo, root, model) = tr
                .span("core.build_dag", |_| cobra.region_dag(program))
                .map_err(err)?;
            let (memoized, table) = tr.span("volcano.cost_table", |_| {
                let memoized = volcano::CostMemo::new(&model);
                let table = volcano::cost_table(&memo, &memoized, None);
                (memoized, table)
            });
            let best = tr
                .span("volcano.extract", |_| {
                    volcano::best_plan_from(&memo, root, &memoized, &table)
                })
                .ok_or("no plan extracted")?;
            let emitted = tr.span("core.emit", |_| {
                emit::emit_function(&entry.name, &entry.params, &best.tree)
            });
            Ok((region.count(), emitted))
        });
        match staged {
            Ok((regions, emitted)) if emitted == opt.program => {
                counts.ops += 1;
                counts.regions += regions as u64;
                counts.choice_points += opt.choice_points as u64;
                counts.alternatives += opt.alternatives as f64;
                counts.budget_exhausted += opt.budget_exhausted as u64;
                counts.memo_groups += opt.groups as u64;
                counts.memo_exprs += opt.exprs as u64;
                counts.cost_hits += opt.cost_cache_hits;
                counts.cost_misses += opt.cost_cache_misses;
                counts.estimate_hits += opt.estimator_cache_hits;
                counts.estimate_misses += opt.estimator_cache_misses;
                counts.feedback_overrides += opt.feedback_overrides;
            }
            Ok(_) => {
                out[i] = Some(Err(format!(
                    "staged calls on `{}` emitted another program than optimize_program",
                    entry.name
                )));
                continue;
            }
            Err(e) => {
                out[i] = Some(Err(e));
                continue;
            }
        }
        out[i] = Some(Ok(()));
    }

    for (i, (fixture, program)) in subjects.iter().enumerate() {
        let (Some((id, _)), Some(Ok(()))) = (&whole[i], &out[i]) else {
            continue;
        };
        tr.begin_op(*id);
        let verifying = fixture
            .cobra_builder()
            .network(NetworkProfile::slow_remote())
            .verify_rewrites(VerifyLevel::Panic)
            .build();
        if let Err(e) = tr.span("core.build_dag_verified", |_| {
            verifying.region_dag(program).map(|_| ())
        }) {
            out[i] = Some(Err(err(e)));
            continue;
        }
        tr.span("fir.replay", |tr| {
            let mut loops = Vec::new();
            let region = Region::from_function(program.entry());
            region.walk(&mut |r| {
                if let RegionKind::Loop { var, iter, body } = &r.kind {
                    loops.push((var.clone(), iter.clone(), body.to_stmts()));
                }
            });
            let max_alternatives = verifying.budget().max_alternatives_per_region;
            for (var, iter, body) in loops {
                let base = tr.span("fir.loop_to_fold", |_| {
                    fir::build::loop_to_fold(&var, &iter, &body, &fixture.mapping, None)
                });
                let Some(base) = base else { continue };
                counts.foldable_loops += 1;
                let expansion = tr.span("fir.expand", |_| {
                    fir::expand_with(base, verifying.rules(), max_alternatives)
                });
                counts.fir_alternatives += expansion.alternatives.len() as u64;
                tr.span("fir.codegen", |_| {
                    for alt in &expansion.alternatives {
                        std::hint::black_box(fir::codegen::generate(alt));
                    }
                });
            }
        });
    }
    out.into_iter().flatten().collect()
}

/// The per-layer metrics of the optimizer, as means per replayed op.
pub fn metrics(tr: &Tracer, c: &Counts) -> Vec<(&'static str, f64)> {
    if c.ops == 0 {
        return Vec::new();
    }
    let ops = c.ops as f64;
    let layers = tr.layers();
    let per_op_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / ops / 1e3)
    };
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let (optimize, dag) = (per_op_us("core.optimize"), per_op_us("core.build_dag"));
    let (cost_table, extract, emit) = (
        per_op_us("volcano.cost_table"),
        per_op_us("volcano.extract"),
        per_op_us("core.emit"),
    );
    vec![
        (
            "imperative.region_build_us",
            per_op_us("imperative.region_build"),
        ),
        ("imperative.regions", c.regions as f64 / ops),
        ("fir.loop_to_fold_us", per_op_us("fir.loop_to_fold")),
        ("fir.expand_us", per_op_us("fir.expand")),
        ("fir.codegen_us", per_op_us("fir.codegen")),
        ("fir.foldable_loops", c.foldable_loops as f64 / ops),
        ("fir.alternatives", c.fir_alternatives as f64 / ops),
        (
            "analysis.verify_us",
            per_op_us("core.build_dag_verified") - dag,
        ),
        ("core.build_dag_us", dag),
        ("core.emit_us", emit),
        ("core.optimize_us", optimize),
        ("core.rest_us", optimize - dag - cost_table - extract - emit),
        ("core.choice_points", c.choice_points as f64 / ops),
        ("core.alternatives", c.alternatives / ops),
        ("core.budget_exhausted", c.budget_exhausted as f64),
        ("volcano.cost_table_us", cost_table),
        ("volcano.extract_us", extract),
        ("volcano.memo_groups", c.memo_groups as f64 / ops),
        ("volcano.memo_exprs", c.memo_exprs as f64 / ops),
        (
            "volcano.cost_cache_hit_ratio",
            ratio(c.cost_hits, c.cost_misses),
        ),
        (
            "minidb.estimate_cache_hit_ratio",
            ratio(c.estimate_hits, c.estimate_misses),
        ),
        ("minidb.estimate_misses", c.estimate_misses as f64 / ops),
        ("minidb.feedback_overrides", c.feedback_overrides as f64),
    ]
}
