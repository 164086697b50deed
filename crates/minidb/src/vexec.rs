//! Vectorized execution over columnar storage — the default data plane.
//!
//! Operators pass `Chunk`s around: `Arc`-shared [`ColumnVec`]s plus a
//! *selection vector* of surviving row ids. Scans are zero-copy (they
//! clone the table's column `Arc`s, never the data), filters evaluate
//! predicates column-wise in batches of [`BATCH_SIZE`] ids through typed
//! kernels, joins hash on column keys, and rows are materialized only at
//! the result boundary.
//!
//! **Exact-equivalence contract.** This engine must be bit-identical to
//! the row engine in `exec.rs`: same output rows in the same order, same
//! [`ExecWork`] counters, and an error whenever the row engine errors.
//! Three properties make that hold:
//!
//! 1. Typed kernels replicate [`apply_bin_op`]/[`Value::sql_cmp`] exactly
//!    (integer compares stay integral, floats use total order, Int
//!    arithmetic wraps, `/0 → NULL`); every combination without a kernel
//!    falls back to a per-row `apply_bin_op` loop.
//! 2. The row engine never short-circuits `AND`/`OR` *inside* a predicate
//!    tree (both sides always evaluate) and evaluates nothing on empty
//!    input — so whole-tree vectorized evaluation with an empty-batch
//!    early-out errors in exactly the same situations. Conjunct *lists*
//!    (index-path residuals, join residuals), which the row engine does
//!    short-circuit per row, are applied progressively: each conjunct
//!    narrows the selection before the next evaluates.
//! 3. Order-sensitive accumulations (AVG's float sum, group first-seen
//!    order, stable sorts) run in selection order, matching row order.

use crate::column::{ColumnTable, ColumnVec, NullMask};
use crate::error::{DbError, DbResult};
use crate::exec::{AggState, ExecWork, Executor};
use crate::expr::{apply_bin_op, BinOp, ColRef, ScalarExpr};
use crate::func::FuncRegistry;
use crate::plan::{AggItem, LogicalPlan, SortDir};
use crate::schema::Schema;
use crate::value::{Row, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows processed per filter batch: large enough to amortize dispatch,
/// small enough that batch temporaries stay cache-resident.
pub const BATCH_SIZE: usize = 1024;

/// A batch-of-columns intermediate result: `cols` hold `len` base rows,
/// `sel` (when present) lists the surviving row ids in output order.
struct Chunk {
    schema: Schema,
    cols: Vec<Arc<ColumnVec>>,
    /// Base row count of `cols`.
    len: usize,
    /// Selection vector into `0..len`; `None` means all rows survive.
    sel: Option<Vec<u32>>,
}

impl Chunk {
    fn n_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.len,
        }
    }

    /// The selection as explicit ids (identity when dense).
    fn ids(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.clone(),
            None => (0..self.len as u32).collect(),
        }
    }

    /// Build a dense chunk from materialized rows (aggregate outputs).
    fn from_rows(schema: Schema, rows: &[Row]) -> Chunk {
        let ct = ColumnTable::from_rows(&schema, rows);
        Chunk {
            schema,
            cols: ct.cols,
            len: ct.len,
            sel: None,
        }
    }

    /// Late materialization: clone the selected rows out, in order.
    fn materialize(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.n_rows());
        match &self.sel {
            Some(s) => {
                for &i in s {
                    out.push(self.cols.iter().map(|c| c.get(i as usize)).collect());
                }
            }
            None => {
                for i in 0..self.len {
                    out.push(self.cols.iter().map(|c| c.get(i)).collect());
                }
            }
        }
        out
    }
}

/// Entry point: run `plan` vectorized, materializing rows only here.
pub(crate) fn run(
    exec: &Executor<'_>,
    plan: &LogicalPlan,
    params: &HashMap<String, Value>,
) -> DbResult<(Schema, Vec<Row>, ExecWork)> {
    let (chunk, work) = run_plan(exec, plan, params)?;
    let rows = chunk.materialize();
    Ok((chunk.schema, rows, work))
}

fn run_plan(
    exec: &Executor<'_>,
    plan: &LogicalPlan,
    params: &HashMap<String, Value>,
) -> DbResult<(Chunk, ExecWork)> {
    match plan {
        LogicalPlan::Scan { table, alias } => {
            let t = exec.db.table(table)?;
            let q = alias.clone().unwrap_or_else(|| table.clone());
            let schema = t.schema().with_qualifier(&q);
            let ct = t.columnar();
            let work = ExecWork {
                startup_rows: 0,
                total_rows: ct.len as u64,
            };
            Ok((
                Chunk {
                    schema,
                    cols: ct.cols.clone(),
                    len: ct.len,
                    sel: None,
                },
                work,
            ))
        }
        LogicalPlan::Select { input, pred } => run_select(exec, input, pred, params),
        LogicalPlan::Project { input, items } => {
            let (chunk, mut work) = run_plan(exec, input, params)?;
            let out_schema = plan.output_schema(exec.db, exec.funcs)?;
            let ids = chunk.ids();
            let n = ids.len();
            let mut cols = Vec::with_capacity(items.len());
            for (expr, _) in items {
                let v = eval_vec(expr, &chunk.schema, &chunk.cols, &ids, params, exec.funcs)?;
                cols.push(Arc::new(vcol_to_column(v, n)));
            }
            work.total_rows += n as u64;
            Ok((
                Chunk {
                    schema: out_schema,
                    cols,
                    len: n,
                    sel: None,
                },
                work,
            ))
        }
        LogicalPlan::Join { left, right, pred } => run_join(exec, left, right, pred, params),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => run_aggregate(exec, plan, input, group_by, aggs, params),
        LogicalPlan::OrderBy { input, keys } => {
            let (mut chunk, mut work) = run_plan(exec, input, params)?;
            let mut key_idx = Vec::with_capacity(keys.len());
            for (c, dir) in keys {
                key_idx.push((chunk.schema.resolve(&c.to_ref_string())?, *dir));
            }
            let mut ids = chunk.ids();
            // Stable index sort with the row engine's comparator
            // (`Value::cmp` per key column) — identical permutation.
            ids.sort_by(|&a, &b| {
                for &(i, dir) in &key_idx {
                    let ord = cmp_rows(&chunk.cols[i], a as usize, b as usize);
                    let ord = match dir {
                        SortDir::Asc => ord,
                        SortDir::Desc => ord.reverse(),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let n = ids.len() as u64;
            let sort_work = n * (64 - n.max(1).leading_zeros() as u64).max(1);
            work.startup_rows = work.total_rows + sort_work;
            work.total_rows += sort_work;
            chunk.sel = Some(ids);
            Ok((chunk, work))
        }
        LogicalPlan::Limit { input, n } => {
            let (mut chunk, work) = run_plan(exec, input, params)?;
            let n = *n as usize;
            match &mut chunk.sel {
                Some(s) => s.truncate(n),
                None => {
                    if chunk.len > n {
                        chunk.sel = Some((0..n as u32).collect());
                    }
                }
            }
            Ok((chunk, work))
        }
    }
}

/// `Value::cmp` on two rows of one column without materializing values.
fn cmp_rows(col: &ColumnVec, a: usize, b: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match col {
        ColumnVec::Mixed(v) => v[a].cmp(&v[b]),
        _ => match (col.is_null(a), col.is_null(b)) {
            (true, true) => Ordering::Equal,
            // NULL has the lowest type rank.
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => match col {
                ColumnVec::Int { data, .. } => data[a].cmp(&data[b]),
                ColumnVec::Float { data, .. } => data[a].total_cmp(&data[b]),
                ColumnVec::Str { data, .. } => data[a].cmp(&data[b]),
                ColumnVec::Bool { data, .. } => data[a].cmp(&data[b]),
                ColumnVec::Mixed(_) => unreachable!(),
            },
        },
    }
}

fn run_select(
    exec: &Executor<'_>,
    input: &LogicalPlan,
    pred: &ScalarExpr,
    params: &HashMap<String, Value>,
) -> DbResult<(Chunk, ExecWork)> {
    // Index fast path: mirror of the row engine's probe selection (first
    // eligible equality conjunct over an indexed base-table column).
    if let LogicalPlan::Scan { table, alias } = input {
        let t = exec.db.table(table)?;
        let q = alias.clone().unwrap_or_else(|| table.clone());
        let schema = t.schema().with_qualifier(&q);
        let conjuncts = pred.conjuncts();
        for (ci, c) in conjuncts.iter().enumerate() {
            if let ScalarExpr::Bin(BinOp::Eq, l, r) = c {
                let (col, key_expr) = match (&**l, &**r) {
                    (ScalarExpr::Col(col), other) if !other.references_columns() => (col, other),
                    (other, ScalarExpr::Col(col)) if !other.references_columns() => (col, other),
                    _ => continue,
                };
                let Ok(idx) = schema.resolve(&col.to_ref_string()) else {
                    continue;
                };
                if !t.has_index(idx) {
                    continue;
                }
                let key = key_expr.eval(&Schema::default(), &Vec::new(), params, exec.funcs)?;
                let positions = t.index_lookup(idx, &key).unwrap_or(&[]);
                let work = ExecWork {
                    startup_rows: 0,
                    total_rows: positions.len() as u64 + 1,
                };
                let ct = t.columnar();
                let mut chunk = Chunk {
                    schema,
                    cols: ct.cols.clone(),
                    len: ct.len,
                    sel: Some(positions.iter().map(|&p| p as u32).collect()),
                };
                // Remaining conjuncts narrow the selection in order
                // (progressive = the row engine's per-row short-circuit).
                for (i, other) in conjuncts.iter().enumerate() {
                    if i == ci {
                        continue;
                    }
                    filter_chunk(&mut chunk, other, params, exec.funcs)?;
                }
                return Ok((chunk, work));
            }
        }
    }
    // Generic filter: whole predicate tree, batched over the selection.
    let (mut chunk, mut work) = run_plan(exec, input, params)?;
    let n = chunk.n_rows() as u64;
    filter_chunk(&mut chunk, pred, params, exec.funcs)?;
    work.total_rows += n;
    Ok((chunk, work))
}

/// Narrow `chunk`'s selection to rows where `pred` is true, evaluating
/// column-wise in [`BATCH_SIZE`] batches.
fn filter_chunk(
    chunk: &mut Chunk,
    pred: &ScalarExpr,
    params: &HashMap<String, Value>,
    funcs: &FuncRegistry,
) -> DbResult<()> {
    let ids = chunk.ids();
    let mut keep: Vec<u32> = Vec::new();
    for batch in ids.chunks(BATCH_SIZE) {
        let v = eval_vec(pred, &chunk.schema, &chunk.cols, batch, params, funcs)?;
        append_truthy(&v, batch, &mut keep);
    }
    chunk.sel = Some(keep);
    Ok(())
}

/// Append the ids (from `batch`) whose predicate value is `TRUE`.
fn append_truthy(v: &VCol, batch: &[u32], keep: &mut Vec<u32>) {
    match v {
        VCol::Bool(data, nulls) => {
            for (k, &id) in batch.iter().enumerate() {
                if data[k] && !nulls.as_ref().is_some_and(|n| n[k]) {
                    keep.push(id);
                }
            }
        }
        VCol::Const(Value::Bool(true)) => keep.extend_from_slice(batch),
        VCol::Const(_) => {}
        VCol::Vals(vals) => {
            for (k, &id) in batch.iter().enumerate() {
                if vals[k].as_bool() == Some(true) {
                    keep.push(id);
                }
            }
        }
        // Non-boolean typed results are never TRUE.
        VCol::Int(..) | VCol::Float(..) | VCol::Str(..) => {}
    }
}

fn run_join(
    exec: &Executor<'_>,
    left: &LogicalPlan,
    right: &LogicalPlan,
    pred: &ScalarExpr,
    params: &HashMap<String, Value>,
) -> DbResult<(Chunk, ExecWork)> {
    if let Some(result) = try_inl_join(exec, left, right, pred, params)? {
        return Ok(result);
    }
    let (l_chunk, l_work) = run_plan(exec, left, params)?;
    let (r_chunk, r_work) = run_plan(exec, right, params)?;
    let out_schema = l_chunk.schema.join(&r_chunk.schema);
    let mut work = ExecWork::default();
    work.add(l_work);
    work.add(r_work);

    // Equi-conjunct detection, identical to the row engine (first match
    // in conjunct order, either orientation).
    let conjuncts = pred.conjuncts();
    let mut equi: Option<(usize, usize)> = None;
    for c in &conjuncts {
        if let ScalarExpr::Bin(BinOp::Eq, a, b) = c {
            if let (ScalarExpr::Col(ca), ScalarExpr::Col(cb)) = (&**a, &**b) {
                let ra = ca.to_ref_string();
                let rb = cb.to_ref_string();
                if let (Ok(i), Ok(j)) = (l_chunk.schema.resolve(&ra), r_chunk.schema.resolve(&rb)) {
                    equi = Some((i, j));
                    break;
                }
                if let (Ok(i), Ok(j)) = (l_chunk.schema.resolve(&rb), r_chunk.schema.resolve(&ra)) {
                    equi = Some((i, j));
                    break;
                }
            }
        }
    }

    if let Some((li, ri)) = equi {
        // Hash join; build on the smaller side, probe-major output.
        let build_left = l_chunk.n_rows() <= r_chunk.n_rows();
        let (build, probe, b_key, p_key) = if build_left {
            (&l_chunk, &r_chunk, li, ri)
        } else {
            (&r_chunk, &l_chunk, ri, li)
        };
        let b_ids = build.ids();
        let p_ids = probe.ids();
        work.startup_rows = work.total_rows + b_ids.len() as u64;
        work.total_rows += b_ids.len() as u64 + p_ids.len() as u64;
        let (cand_b, cand_p) = hash_candidates(build, b_key, &b_ids, probe, p_key, &p_ids);
        let (cand_l, cand_r) = if build_left {
            (&cand_b, &cand_p)
        } else {
            (&cand_p, &cand_b)
        };
        let mut chunk = gather_join(&out_schema, &l_chunk, cand_l, &r_chunk, cand_r);
        // Residual check = all conjuncts, progressively (short-circuit).
        for c in &conjuncts {
            filter_chunk(&mut chunk, c, params, exec.funcs)?;
        }
        // The row engine charges one row-touch per row *passing* the
        // residual.
        work.total_rows += chunk.n_rows() as u64;
        Ok((chunk, work))
    } else {
        // Nested-loop join: generate l-major candidate pairs in batches,
        // evaluate the full predicate per batch.
        let l_ids = l_chunk.ids();
        let r_ids = r_chunk.ids();
        work.startup_rows = work.total_rows;
        work.total_rows += (l_ids.len() as u64).saturating_mul(r_ids.len() as u64);
        let mut keep_l: Vec<u32> = Vec::new();
        let mut keep_r: Vec<u32> = Vec::new();
        let mut batch_l: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
        let mut batch_r: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
        let flush = |batch_l: &mut Vec<u32>,
                     batch_r: &mut Vec<u32>,
                     keep_l: &mut Vec<u32>,
                     keep_r: &mut Vec<u32>|
         -> DbResult<()> {
            if batch_l.is_empty() {
                return Ok(());
            }
            let mini = gather_join(&out_schema, &l_chunk, batch_l, &r_chunk, batch_r);
            let ids = mini.ids();
            let v = eval_vec(pred, &mini.schema, &mini.cols, &ids, params, exec.funcs)?;
            let mut local: Vec<u32> = Vec::new();
            append_truthy(&v, &ids, &mut local);
            for &k in &local {
                keep_l.push(batch_l[k as usize]);
                keep_r.push(batch_r[k as usize]);
            }
            batch_l.clear();
            batch_r.clear();
            Ok(())
        };
        for &li in &l_ids {
            for &ri_id in &r_ids {
                batch_l.push(li);
                batch_r.push(ri_id);
                if batch_l.len() == BATCH_SIZE {
                    flush(&mut batch_l, &mut batch_r, &mut keep_l, &mut keep_r)?;
                }
            }
        }
        flush(&mut batch_l, &mut batch_r, &mut keep_l, &mut keep_r)?;
        let chunk = gather_join(&out_schema, &l_chunk, &keep_l, &r_chunk, &keep_r);
        Ok((chunk, work))
    }
}

/// Build the candidate pair lists of a hash join: probe-major order,
/// matches in build-insertion order — exactly the row engine's output
/// order. Returns base ids per side.
fn hash_candidates(
    build: &Chunk,
    b_key: usize,
    b_ids: &[u32],
    probe: &Chunk,
    p_key: usize,
    p_ids: &[u32],
) -> (Vec<u32>, Vec<u32>) {
    let mut cand_b: Vec<u32> = Vec::new();
    let mut cand_p: Vec<u32> = Vec::new();
    // Typed fast path: both keys are null-free Int columns, hash raw i64.
    // (With possible NULL keys the generic path keeps the row engine's
    // NULL==NULL candidate pairs, which its residual then discards.)
    if let (
        ColumnVec::Int {
            data: bd,
            nulls: None,
        },
        ColumnVec::Int {
            data: pd,
            nulls: None,
        },
    ) = (&*build.cols[b_key], &*probe.cols[p_key])
    {
        let mut table: HashMap<i64, Vec<u32>> = HashMap::with_capacity(b_ids.len());
        for &bi in b_ids {
            table.entry(bd[bi as usize]).or_default().push(bi);
        }
        for &pi in p_ids {
            if let Some(matches) = table.get(&pd[pi as usize]) {
                for &bi in matches {
                    cand_b.push(bi);
                    cand_p.push(pi);
                }
            }
        }
        return (cand_b, cand_p);
    }
    // Generic path: hash full `Value`s (NULL keys included, as in the row
    // engine's `HashMap<&Value, _>` build).
    let b_col = &build.cols[b_key];
    let p_col = &probe.cols[p_key];
    let mut table: HashMap<Value, Vec<u32>> = HashMap::with_capacity(b_ids.len());
    for &bi in b_ids {
        table.entry(b_col.get(bi as usize)).or_default().push(bi);
    }
    for &pi in p_ids {
        if let Some(matches) = table.get(&p_col.get(pi as usize)) {
            for &bi in matches {
                cand_b.push(bi);
                cand_p.push(pi);
            }
        }
    }
    (cand_b, cand_p)
}

/// Gather left and right candidate rows into one dense joined chunk.
fn gather_join(
    out_schema: &Schema,
    l_chunk: &Chunk,
    l_ids: &[u32],
    r_chunk: &Chunk,
    r_ids: &[u32],
) -> Chunk {
    let mut cols = Vec::with_capacity(l_chunk.cols.len() + r_chunk.cols.len());
    for c in &l_chunk.cols {
        cols.push(Arc::new(c.gather(l_ids)));
    }
    for c in &r_chunk.cols {
        cols.push(Arc::new(c.gather(r_ids)));
    }
    Chunk {
        schema: out_schema.clone(),
        cols,
        len: l_ids.len(),
        sel: None,
    }
}

/// Index-nested-loops join, mirroring the row engine's decision order:
/// inner side must be a bare scan with an index on the *last* eligible
/// equi conjunct; the outer side runs first (errors propagate even if the
/// size heuristic then rejects), and candidates charge one row-touch per
/// outer row plus one per index hit before residual checks.
fn try_inl_join(
    exec: &Executor<'_>,
    left: &LogicalPlan,
    right: &LogicalPlan,
    pred: &ScalarExpr,
    params: &HashMap<String, Value>,
) -> DbResult<Option<(Chunk, ExecWork)>> {
    for (outer_plan, inner_plan, inner_is_right) in [(left, right, true), (right, left, false)] {
        let LogicalPlan::Scan { table, alias } = inner_plan else {
            continue;
        };
        let t = exec.db.table(table)?;
        let inner_schema = t.schema().with_qualifier(alias.as_deref().unwrap_or(table));
        let outer_schema = outer_plan.output_schema(exec.db, exec.funcs)?;
        let conjuncts = pred.conjuncts();
        let mut probe: Option<(usize, usize)> = None;
        for c in &conjuncts {
            let ScalarExpr::Bin(BinOp::Eq, a, b) = c else {
                continue;
            };
            let (ScalarExpr::Col(ca), ScalarExpr::Col(cb)) = (&**a, &**b) else {
                continue;
            };
            for (x, y) in [(ca, cb), (cb, ca)] {
                if let (Ok(o), Ok(i)) = (
                    outer_schema.resolve(&x.to_ref_string()),
                    inner_schema.resolve(&y.to_ref_string()),
                ) {
                    if t.has_index(i) {
                        probe = Some((o, i));
                    }
                }
            }
        }
        let Some((o_col, i_col)) = probe else {
            continue;
        };

        let (o_chunk, o_work) = run_plan(exec, outer_plan, params)?;
        if o_chunk.n_rows() * 2 >= t.row_count() {
            continue; // hash join is the better plan; fall through
        }

        let out_schema = if inner_is_right {
            o_chunk.schema.join(&inner_schema)
        } else {
            inner_schema.join(&o_chunk.schema)
        };
        let mut work = o_work;
        let o_ids = o_chunk.ids();
        let i_ct = t.columnar();
        let mut cand_o: Vec<u32> = Vec::new();
        let mut cand_i: Vec<u32> = Vec::new();
        let o_key_col = &o_chunk.cols[o_col];
        for &oid in &o_ids {
            work.total_rows += 1;
            let key = o_key_col.get(oid as usize);
            let hits = t.index_lookup(i_col, &key).unwrap_or(&[]);
            for &pos in hits {
                work.total_rows += 1;
                cand_o.push(oid);
                cand_i.push(pos as u32);
            }
        }
        let mut cols = Vec::with_capacity(o_chunk.cols.len() + i_ct.cols.len());
        if inner_is_right {
            for c in &o_chunk.cols {
                cols.push(Arc::new(c.gather(&cand_o)));
            }
            for c in &i_ct.cols {
                cols.push(Arc::new(c.gather(&cand_i)));
            }
        } else {
            for c in &i_ct.cols {
                cols.push(Arc::new(c.gather(&cand_i)));
            }
            for c in &o_chunk.cols {
                cols.push(Arc::new(c.gather(&cand_o)));
            }
        }
        let mut chunk = Chunk {
            schema: out_schema,
            cols,
            len: cand_o.len(),
            sel: None,
        };
        // All conjuncts, in order, progressively (per-hit short-circuit).
        for c in &conjuncts {
            filter_chunk(&mut chunk, c, params, exec.funcs)?;
        }
        return Ok(Some((chunk, work)));
    }
    Ok(None)
}

fn run_aggregate(
    exec: &Executor<'_>,
    plan: &LogicalPlan,
    input: &LogicalPlan,
    group_by: &[ColRef],
    aggs: &[AggItem],
    params: &HashMap<String, Value>,
) -> DbResult<(Chunk, ExecWork)> {
    let (chunk, mut work) = run_plan(exec, input, params)?;
    let out_schema = plan.output_schema(exec.db, exec.funcs)?;
    let mut group_idx = Vec::with_capacity(group_by.len());
    for g in group_by {
        group_idx.push(chunk.schema.resolve(&g.to_ref_string())?);
    }
    let ids = chunk.ids();
    let n = ids.len();

    // Assign a group id to every row, preserving first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut gid_of_row: Vec<u32> = Vec::with_capacity(n);
    if group_idx.len() == 1 {
        if let ColumnVec::Int { data, nulls } = &*chunk.cols[group_idx[0]] {
            // Typed path: single Int key, hash raw i64 (NULL keys group
            // together, as `Value::Null == Value::Null` does).
            let mut seen: HashMap<Option<i64>, u32> = HashMap::new();
            for &id in &ids {
                let i = id as usize;
                let key = if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                    None
                } else {
                    Some(data[i])
                };
                let next = order.len() as u32;
                let gid = *seen.entry(key).or_insert_with(|| {
                    order.push(vec![key.map_or(Value::Null, Value::Int)]);
                    next
                });
                gid_of_row.push(gid);
            }
        } else {
            assign_value_groups(&chunk, &group_idx, &ids, &mut order, &mut gid_of_row);
        }
    } else {
        assign_value_groups(&chunk, &group_idx, &ids, &mut order, &mut gid_of_row);
    }

    let mut states: Vec<Vec<AggState>> = order
        .iter()
        .map(|_| aggs.iter().map(|a| AggState::new(a.func)).collect())
        .collect();

    // Per aggregate item: evaluate the argument once over all rows, then
    // fold into states in row order (AVG's float sum is order-sensitive).
    for (ai, item) in aggs.iter().enumerate() {
        match &item.arg {
            Some(e) => {
                let v = eval_vec(e, &chunk.schema, &chunk.cols, &ids, params, exec.funcs)?;
                for (k, &gid) in gid_of_row.iter().enumerate() {
                    let val = v.value_at(k);
                    states[gid as usize][ai].update(Some(&val));
                }
            }
            None => {
                for &gid in &gid_of_row {
                    states[gid as usize][ai].update(None);
                }
            }
        }
    }

    // Scalar aggregate over empty input still emits one row.
    if group_by.is_empty() && order.is_empty() {
        order.push(Vec::new());
        states.push(aggs.iter().map(|a| AggState::new(a.func)).collect());
    }

    let mut out = Vec::with_capacity(order.len());
    for (key, group_states) in order.into_iter().zip(states) {
        let mut row = key;
        for s in group_states {
            row.push(s.finish());
        }
        out.push(row);
    }
    work.total_rows += n as u64;
    work.startup_rows = work.total_rows;
    Ok((Chunk::from_rows(out_schema, &out), work))
}

/// Group assignment over full `Value` keys (multi-column or non-Int).
fn assign_value_groups(
    chunk: &Chunk,
    group_idx: &[usize],
    ids: &[u32],
    order: &mut Vec<Vec<Value>>,
    gid_of_row: &mut Vec<u32>,
) {
    let mut seen: HashMap<Vec<Value>, u32> = HashMap::new();
    for &id in ids {
        let key: Vec<Value> = group_idx
            .iter()
            .map(|&c| chunk.cols[c].get(id as usize))
            .collect();
        let next = order.len() as u32;
        let gid = match seen.get(&key) {
            Some(&g) => g,
            None => {
                order.push(key.clone());
                seen.insert(key, next);
                next
            }
        };
        gid_of_row.push(gid);
    }
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation
// ---------------------------------------------------------------------------

/// A vectorized expression result over one batch of rows: typed vectors
/// with optional per-row null flags, a broadcast constant, or exact
/// `Value`s as the fallback.
enum VCol {
    Int(Vec<i64>, Option<Vec<bool>>),
    Float(Vec<f64>, Option<Vec<bool>>),
    Str(Vec<String>, Option<Vec<bool>>),
    Bool(Vec<bool>, Option<Vec<bool>>),
    /// One value for every row of the batch.
    Const(Value),
    /// Exact per-row values (mixed types).
    Vals(Vec<Value>),
}

impl VCol {
    /// The value at batch position `k`.
    fn value_at(&self, k: usize) -> Value {
        fn nul(nulls: &Option<Vec<bool>>, k: usize) -> bool {
            nulls.as_ref().is_some_and(|n| n[k])
        }
        match self {
            VCol::Int(d, n) => {
                if nul(n, k) {
                    Value::Null
                } else {
                    Value::Int(d[k])
                }
            }
            VCol::Float(d, n) => {
                if nul(n, k) {
                    Value::Null
                } else {
                    Value::Float(d[k])
                }
            }
            VCol::Str(d, n) => {
                if nul(n, k) {
                    Value::Null
                } else {
                    Value::Str(d[k].clone())
                }
            }
            VCol::Bool(d, n) => {
                if nul(n, k) {
                    Value::Null
                } else {
                    Value::Bool(d[k])
                }
            }
            VCol::Const(v) => v.clone(),
            VCol::Vals(v) => v[k].clone(),
        }
    }

    /// Materialize the batch as owned values.
    fn to_vals(&self, n: usize) -> Vec<Value> {
        match self {
            VCol::Const(v) => vec![v.clone(); n],
            VCol::Vals(v) => v.clone(),
            _ => (0..n).map(|k| self.value_at(k)).collect(),
        }
    }
}

/// Convert a batch result into storable column form.
fn vcol_to_column(v: VCol, n: usize) -> ColumnVec {
    fn mask(nulls: Option<Vec<bool>>, n: usize) -> Option<NullMask> {
        let nulls = nulls?;
        if !nulls.iter().any(|&b| b) {
            return None;
        }
        let mut m = NullMask::new(n);
        for (i, &b) in nulls.iter().enumerate() {
            if b {
                m.set_null(i);
            }
        }
        Some(m)
    }
    match v {
        VCol::Int(data, nulls) => ColumnVec::Int {
            nulls: mask(nulls, n),
            data,
        },
        VCol::Float(data, nulls) => ColumnVec::Float {
            nulls: mask(nulls, n),
            data,
        },
        VCol::Str(data, nulls) => ColumnVec::Str {
            nulls: mask(nulls, n),
            data,
        },
        VCol::Bool(data, nulls) => ColumnVec::Bool {
            nulls: mask(nulls, n),
            data,
        },
        VCol::Vals(vals) => ColumnVec::from_values(vals),
        VCol::Const(val) => match val {
            Value::Int(x) => ColumnVec::Int {
                data: vec![x; n],
                nulls: None,
            },
            Value::Float(x) => ColumnVec::Float {
                data: vec![x; n],
                nulls: None,
            },
            Value::Str(s) => ColumnVec::Str {
                data: vec![s; n],
                nulls: None,
            },
            Value::Bool(b) => ColumnVec::Bool {
                data: vec![b; n],
                nulls: None,
            },
            Value::Null => ColumnVec::from_values(vec![Value::Null; n]),
        },
    }
}

/// Evaluate `expr` over the rows listed in `ids` (base ids into `cols`).
///
/// Empty batches return immediately without resolving anything — the row
/// engine evaluates nothing over zero rows, so neither may we.
fn eval_vec(
    expr: &ScalarExpr,
    schema: &Schema,
    cols: &[Arc<ColumnVec>],
    ids: &[u32],
    params: &HashMap<String, Value>,
    funcs: &FuncRegistry,
) -> DbResult<VCol> {
    let n = ids.len();
    if n == 0 {
        return Ok(VCol::Vals(Vec::new()));
    }
    match expr {
        ScalarExpr::Lit(v) => Ok(VCol::Const(v.clone())),
        ScalarExpr::Param(name) => params
            .get(name)
            .cloned()
            .map(VCol::Const)
            .ok_or_else(|| DbError::UnboundParam(name.clone())),
        ScalarExpr::Col(c) => {
            let i = schema.resolve(&c.to_ref_string())?;
            Ok(gather_vcol(&cols[i], ids))
        }
        ScalarExpr::Bin(op, l, r) => {
            let lv = eval_vec(l, schema, cols, ids, params, funcs)?;
            let rv = eval_vec(r, schema, cols, ids, params, funcs)?;
            combine(*op, lv, rv, n)
        }
        ScalarExpr::Not(e) => {
            let v = eval_vec(e, schema, cols, ids, params, funcs)?;
            match v {
                VCol::Bool(mut data, nulls) => {
                    for b in &mut data {
                        *b = !*b;
                    }
                    Ok(VCol::Bool(data, nulls))
                }
                VCol::Const(Value::Bool(b)) => Ok(VCol::Const(Value::Bool(!b))),
                VCol::Const(Value::Null) => Ok(VCol::Const(Value::Null)),
                VCol::Const(other) => Err(DbError::Type(format!("NOT applied to {other}"))),
                other => {
                    // Per-row semantics: NULL stays NULL, non-boolean
                    // errors at the first non-null row.
                    let vals = other.to_vals(n);
                    let mut out = Vec::with_capacity(n);
                    for v in vals {
                        match v {
                            Value::Bool(b) => out.push(Value::Bool(!b)),
                            Value::Null => out.push(Value::Null),
                            v => return Err(DbError::Type(format!("NOT applied to {v}"))),
                        }
                    }
                    Ok(VCol::Vals(out))
                }
            }
        }
        ScalarExpr::Func(name, args) => {
            let mut arg_cols = Vec::with_capacity(args.len());
            for a in args {
                arg_cols.push(eval_vec(a, schema, cols, ids, params, funcs)?);
            }
            let mut out = Vec::with_capacity(n);
            let mut call_args = vec![Value::Null; args.len()];
            for k in 0..n {
                for (s, c) in call_args.iter_mut().zip(&arg_cols) {
                    *s = c.value_at(k);
                }
                out.push(funcs.call(name, &call_args)?);
            }
            Ok(VCol::Vals(out))
        }
    }
}

/// Gather a storage column into a batch result (typed, nulls as flags).
fn gather_vcol(col: &ColumnVec, ids: &[u32]) -> VCol {
    fn flags(col: &ColumnVec, ids: &[u32]) -> Option<Vec<bool>> {
        if col.null_count() == 0 {
            return None;
        }
        Some(ids.iter().map(|&i| col.is_null(i as usize)).collect())
    }
    match col {
        ColumnVec::Int { data, .. } => VCol::Int(
            ids.iter().map(|&i| data[i as usize]).collect(),
            flags(col, ids),
        ),
        ColumnVec::Float { data, .. } => VCol::Float(
            ids.iter().map(|&i| data[i as usize]).collect(),
            flags(col, ids),
        ),
        ColumnVec::Str { data, .. } => VCol::Str(
            ids.iter().map(|&i| data[i as usize].clone()).collect(),
            flags(col, ids),
        ),
        ColumnVec::Bool { data, .. } => VCol::Bool(
            ids.iter().map(|&i| data[i as usize]).collect(),
            flags(col, ids),
        ),
        ColumnVec::Mixed(vals) => {
            VCol::Vals(ids.iter().map(|&i| vals[i as usize].clone()).collect())
        }
    }
}

// --- typed kernel plumbing --------------------------------------------------

/// One side of a binary kernel: a slice with null flags, or a broadcast
/// scalar (possibly NULL).
#[derive(Clone, Copy)]
enum Side<'v, T: Copy> {
    Slice(&'v [T], Option<&'v [bool]>),
    Const(T),
    ConstNull,
}

impl<'v, T: Copy + Default> Side<'v, T> {
    #[inline]
    fn val(&self, k: usize) -> T {
        match self {
            Side::Slice(d, _) => d[k],
            Side::Const(v) => *v,
            Side::ConstNull => T::default(),
        }
    }

    #[inline]
    fn is_null(&self, k: usize) -> bool {
        match self {
            Side::Slice(_, nulls) => nulls.is_some_and(|n| n[k]),
            Side::Const(_) => false,
            Side::ConstNull => true,
        }
    }
}

fn int_side<'v>(v: &'v VCol) -> Option<Side<'v, i64>> {
    match v {
        VCol::Int(d, n) => Some(Side::Slice(d, n.as_deref())),
        VCol::Const(Value::Int(x)) => Some(Side::Const(*x)),
        VCol::Const(Value::Null) => Some(Side::ConstNull),
        _ => None,
    }
}

/// A float-kernel side: accepts Float *and* Int sources (numeric
/// cross-type compares and arithmetic go through `f64`, as in
/// `sql_cmp`/`apply_bin_op`).
fn float_side<'v>(v: &'v VCol, tmp: &'v mut Vec<f64>) -> Option<Side<'v, f64>> {
    match v {
        VCol::Float(d, n) => Some(Side::Slice(d, n.as_deref())),
        VCol::Int(d, n) => {
            *tmp = d.iter().map(|&x| x as f64).collect();
            Some(Side::Slice(tmp, n.as_deref()))
        }
        VCol::Const(Value::Float(x)) => Some(Side::Const(*x)),
        VCol::Const(Value::Int(x)) => Some(Side::Const(*x as f64)),
        VCol::Const(Value::Null) => Some(Side::ConstNull),
        _ => None,
    }
}

fn bool_side<'v>(v: &'v VCol) -> Option<Side<'v, bool>> {
    match v {
        VCol::Bool(d, n) => Some(Side::Slice(d, n.as_deref())),
        VCol::Const(Value::Bool(b)) => Some(Side::Const(*b)),
        VCol::Const(Value::Null) => Some(Side::ConstNull),
        _ => None,
    }
}

/// Is this a Str batch (typed or constant)? Returns accessor data.
enum StrSide<'v> {
    Slice(&'v [String], Option<&'v [bool]>),
    Const(&'v str),
    ConstNull,
}

impl<'v> StrSide<'v> {
    #[inline]
    fn val(&self, k: usize) -> &str {
        match self {
            StrSide::Slice(d, _) => &d[k],
            StrSide::Const(s) => s,
            StrSide::ConstNull => "",
        }
    }

    #[inline]
    fn is_null(&self, k: usize) -> bool {
        match self {
            StrSide::Slice(_, nulls) => nulls.is_some_and(|n| n[k]),
            StrSide::Const(_) => false,
            StrSide::ConstNull => true,
        }
    }
}

fn str_side<'v>(v: &'v VCol) -> Option<StrSide<'v>> {
    match v {
        VCol::Str(d, n) => Some(StrSide::Slice(d, n.as_deref())),
        VCol::Const(Value::Str(s)) => Some(StrSide::Const(s)),
        VCol::Const(Value::Null) => Some(StrSide::ConstNull),
        _ => None,
    }
}

#[inline]
fn cmp_holds(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("comparison operator"),
    }
}

/// Combine two batch results under `op` with exact `apply_bin_op`
/// semantics. Typed kernels cover the hot combinations; everything else
/// falls back to a per-row `apply_bin_op` loop (bit-identical by
/// construction, first error in row order).
fn combine(op: BinOp, l: VCol, r: VCol, n: usize) -> DbResult<VCol> {
    use BinOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            // Int × Int stays integral (i64 beyond 2^53 must not round).
            if let (Some(a), Some(b)) = (int_side(&l), int_side(&r)) {
                let mut data = Vec::with_capacity(n);
                let mut nulls: Option<Vec<bool>> = None;
                for k in 0..n {
                    if a.is_null(k) || b.is_null(k) {
                        nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                        data.push(false);
                    } else {
                        data.push(cmp_holds(op, a.val(k).cmp(&b.val(k))));
                    }
                }
                return Ok(VCol::Bool(data, nulls));
            }
            // Numeric (mixed Int/Float) via total_cmp on f64.
            let numeric = matches!(l, VCol::Float(..) | VCol::Const(Value::Float(_)))
                || matches!(r, VCol::Float(..) | VCol::Const(Value::Float(_)));
            if numeric {
                let (mut ta, mut tb) = (Vec::new(), Vec::new());
                let a = float_side(&l, &mut ta);
                let b = float_side(&r, &mut tb);
                if let (Some(a), Some(b)) = (a, b) {
                    let mut data = Vec::with_capacity(n);
                    let mut nulls: Option<Vec<bool>> = None;
                    for k in 0..n {
                        if a.is_null(k) || b.is_null(k) {
                            nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                            data.push(false);
                        } else {
                            data.push(cmp_holds(op, a.val(k).total_cmp(&b.val(k))));
                        }
                    }
                    return Ok(VCol::Bool(data, nulls));
                }
            }
            if let (Some(a), Some(b)) = (str_side(&l), str_side(&r)) {
                let mut data = Vec::with_capacity(n);
                let mut nulls: Option<Vec<bool>> = None;
                for k in 0..n {
                    if a.is_null(k) || b.is_null(k) {
                        nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                        data.push(false);
                    } else {
                        data.push(cmp_holds(op, a.val(k).cmp(b.val(k))));
                    }
                }
                return Ok(VCol::Bool(data, nulls));
            }
            combine_generic(op, &l, &r, n)
        }
        Add | Sub | Mul | Div => {
            // Int × Int: wrapping arithmetic, division by zero → NULL.
            if let (Some(a), Some(b)) = (int_side(&l), int_side(&r)) {
                let mut data = Vec::with_capacity(n);
                let mut nulls: Option<Vec<bool>> = None;
                for k in 0..n {
                    if a.is_null(k) || b.is_null(k) {
                        nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                        data.push(0);
                        continue;
                    }
                    let (x, y) = (a.val(k), b.val(k));
                    let v = match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        Mul => x.wrapping_mul(y),
                        Div => {
                            if y == 0 {
                                nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                                data.push(0);
                                continue;
                            }
                            x.wrapping_div(y)
                        }
                        _ => unreachable!(),
                    };
                    data.push(v);
                }
                return Ok(VCol::Int(data, nulls));
            }
            // Numeric mixed → Float.
            let numeric = matches!(l, VCol::Float(..) | VCol::Const(Value::Float(_)))
                || matches!(r, VCol::Float(..) | VCol::Const(Value::Float(_)));
            if numeric {
                let (mut ta, mut tb) = (Vec::new(), Vec::new());
                let a = float_side(&l, &mut ta);
                let b = float_side(&r, &mut tb);
                if let (Some(a), Some(b)) = (a, b) {
                    let mut data = Vec::with_capacity(n);
                    let mut nulls: Option<Vec<bool>> = None;
                    for k in 0..n {
                        if a.is_null(k) || b.is_null(k) {
                            nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                            data.push(0.0);
                            continue;
                        }
                        let (x, y) = (a.val(k), b.val(k));
                        data.push(match op {
                            Add => x + y,
                            Sub => x - y,
                            Mul => x * y,
                            Div => x / y,
                            _ => unreachable!(),
                        });
                    }
                    return Ok(VCol::Float(data, nulls));
                }
            }
            // Str + Str concatenates; every other combination (including
            // mismatched types, which must *error* row-wise) → generic.
            if op == Add {
                if let (Some(a), Some(b)) = (str_side(&l), str_side(&r)) {
                    let mut data = Vec::with_capacity(n);
                    let mut nulls: Option<Vec<bool>> = None;
                    for k in 0..n {
                        if a.is_null(k) || b.is_null(k) {
                            nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                            data.push(String::new());
                        } else {
                            data.push(format!("{}{}", a.val(k), b.val(k)));
                        }
                    }
                    return Ok(VCol::Str(data, nulls));
                }
            }
            combine_generic(op, &l, &r, n)
        }
        And | Or => {
            if let (Some(a), Some(b)) = (bool_side(&l), bool_side(&r)) {
                let mut data = Vec::with_capacity(n);
                let mut nulls: Option<Vec<bool>> = None;
                for k in 0..n {
                    if a.is_null(k) || b.is_null(k) {
                        nulls.get_or_insert_with(|| vec![false; n])[k] = true;
                        data.push(false);
                    } else {
                        data.push(match op {
                            And => a.val(k) && b.val(k),
                            Or => a.val(k) || b.val(k),
                            _ => unreachable!(),
                        });
                    }
                }
                return Ok(VCol::Bool(data, nulls));
            }
            combine_generic(op, &l, &r, n)
        }
    }
}

/// Exact fallback: per-row `apply_bin_op` in batch order.
fn combine_generic(op: BinOp, l: &VCol, r: &VCol, n: usize) -> DbResult<VCol> {
    let lv = l.to_vals(n);
    let rv = r.to_vals(n);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        out.push(apply_bin_op(op, &lv[k], &rv[k])?);
    }
    Ok(VCol::Vals(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::ExecEngine;
    use crate::schema::{Column, DataType};
    use crate::sql::parse;

    /// Run `sql` on both engines and assert bit-identical results + work.
    fn assert_engines_agree(db: &Database, sql: &str) -> crate::exec::QueryResult {
        let funcs = FuncRegistry::with_builtins();
        let plan = parse(sql).unwrap();
        let col = Executor::new(db, &funcs)
            .with_engine(ExecEngine::Columnar)
            .execute(&plan, &HashMap::new());
        let row = Executor::new(db, &funcs)
            .with_engine(ExecEngine::Row)
            .execute(&plan, &HashMap::new());
        match (col, row) {
            (Ok(c), Ok(r)) => {
                assert_eq!(c.schema, r.schema, "schema for {sql}");
                assert_eq!(c.rows, r.rows, "rows for {sql}");
                assert_eq!(c.work, r.work, "work for {sql}");
                c
            }
            (Err(ce), Err(_re)) => panic!("both engines error on {sql}: {ce}"),
            (c, r) => panic!("engines disagree on {sql}: columnar={c:?} row={r:?}"),
        }
    }

    fn test_db() -> Database {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
            Column::new("o_amount", DataType::Float),
            Column::with_width("o_note", DataType::Str, 8),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..100i64 {
            t.insert(vec![
                Value::Int(i),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 10)
                },
                Value::Float((i as f64) * 1.5),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("n{}", i % 4))
                },
            ])
            .unwrap();
        }
        let customer = Schema::new(vec![
            Column::new("c_customer_sk", DataType::Int),
            Column::new("c_birth_year", DataType::Int),
        ]);
        let t = db.create_table("customer", customer).unwrap();
        t.set_primary_key("c_customer_sk").unwrap();
        for i in 0..10i64 {
            t.insert(vec![Value::Int(i), Value::Int(1960 + i)]).unwrap();
        }
        db.analyze_all();
        db
    }

    #[test]
    fn engines_agree_on_scans_filters_and_limits() {
        let db = test_db();
        for sql in [
            "select * from orders",
            "select * from orders where o_amount > 100.0",
            "select * from orders where o_customer_sk = 3",
            "select * from orders where o_id = 50",
            "select * from orders where o_id = 50 and o_amount > 1.0",
            "select * from orders where o_note = 'n1'",
            "select * from orders where o_id < 3 or o_id > 96",
            "select * from orders limit 7",
            "select o_id, o_amount * 2.0 as d from orders",
        ] {
            assert_engines_agree(&db, sql);
        }
    }

    #[test]
    fn engines_agree_on_joins() {
        let db = test_db();
        for sql in [
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
            "select * from orders o join customer c on \
             o.o_customer_sk = c.c_customer_sk and o.o_id < 4",
            "select * from customer a join customer b on a.c_birth_year < b.c_birth_year",
            "select * from customer a join customer b on \
             a.c_customer_sk = b.c_customer_sk and a.c_birth_year > 1964",
        ] {
            assert_engines_agree(&db, sql);
        }
    }

    #[test]
    fn engines_agree_on_aggregates_and_sorts() {
        let db = test_db();
        for sql in [
            "select o_customer_sk, count(*) as n, sum(o_amount) as s \
             from orders group by o_customer_sk",
            "select count(o_customer_sk) as n from orders",
            "select min(o_amount) as a, max(o_amount) as b, avg(o_id) as c from orders",
            "select count(*) as n from orders where o_id = -1",
            "select o_note, count(*) as n from orders group by o_note",
            "select * from orders order by o_customer_sk desc, o_id",
            "select sum(o_id) as s from orders",
        ] {
            assert_engines_agree(&db, sql);
        }
    }

    #[test]
    fn null_join_keys_never_match_but_group_together() {
        // o_customer_sk has NULLs: join keys must drop them, GROUP BY
        // must keep them as one group — on both engines.
        let db = test_db();
        let r = assert_engines_agree(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        assert!(r.rows.iter().all(|row| row[1] != Value::Null));
        let g = assert_engines_agree(
            &db,
            "select o_customer_sk, count(*) as n from orders group by o_customer_sk",
        );
        assert!(g.rows.iter().any(|row| row[0] == Value::Null));
    }

    #[test]
    fn selection_vector_edge_cases() {
        let db = test_db();
        // Empty batch: filter that matches nothing, then more operators.
        assert_engines_agree(&db, "select * from orders where o_id < 0 order by o_id");
        assert_engines_agree(
            &db,
            "select o_customer_sk, count(*) as n from orders where o_id < 0 group by o_customer_sk",
        );
        // All-match filter.
        assert_engines_agree(&db, "select * from orders where o_id >= 0");
        // All-null key column.
        let mut db2 = Database::new();
        let t = db2
            .create_table("t", Schema::new(vec![Column::new("k", DataType::Int)]))
            .unwrap();
        for _ in 0..5 {
            t.insert(vec![Value::Null]).unwrap();
        }
        db2.analyze_all();
        assert_engines_agree(&db2, "select * from t a join t b on a.k = b.k");
        assert_engines_agree(&db2, "select k, count(*) as n from t group by k");
        assert_engines_agree(&db2, "select * from t where k = 1");
    }

    #[test]
    fn mixed_type_columns_fall_back_exactly() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "m",
                Schema::new(vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                ]),
            )
            .unwrap();
        t.insert(vec![Value::Int(1), Value::Int(10)]).unwrap();
        t.insert(vec![Value::str("x"), Value::Int(20)]).unwrap();
        t.insert(vec![Value::Float(2.5), Value::Null]).unwrap();
        db.analyze_all();
        for sql in [
            "select * from m where a = 1",
            "select * from m where a > 0",
            "select a, b from m order by a",
            "select a, count(*) as n from m group by a",
        ] {
            assert_engines_agree(&db, sql);
        }
    }

    #[test]
    fn errors_match_the_row_engine() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        // Unbound parameter errors on both engines; empty input errors on
        // neither (nothing is evaluated over zero rows).
        let plan = parse("select * from orders where o_id = :k").unwrap();
        for engine in [ExecEngine::Columnar, ExecEngine::Row] {
            let err = Executor::new(&db, &funcs)
                .with_engine(engine)
                .execute(&plan, &HashMap::new())
                .unwrap_err();
            assert!(matches!(err, DbError::UnboundParam(_)), "{engine:?}");
        }
        // NOT on a non-boolean errors identically.
        let plan = parse("select * from orders where not o_id").unwrap();
        for engine in [ExecEngine::Columnar, ExecEngine::Row] {
            let err = Executor::new(&db, &funcs)
                .with_engine(engine)
                .execute(&plan, &HashMap::new())
                .unwrap_err();
            assert!(matches!(err, DbError::Type(_)), "{engine:?}");
        }
    }

    #[test]
    fn int_compare_beyond_f64_precision_stays_integral() {
        let mut db = Database::new();
        let t = db
            .create_table("big", Schema::new(vec![Column::new("v", DataType::Int)]))
            .unwrap();
        let base = (1i64 << 53) + 1; // not representable as f64
        t.insert(vec![Value::Int(base)]).unwrap();
        t.insert(vec![Value::Int(base - 1)]).unwrap();
        db.analyze_all();
        let r = assert_engines_agree(&db, &format!("select * from big where v = {base}"));
        assert_eq!(r.row_count(), 1, "no f64 rounding in Int = Int");
    }
}
