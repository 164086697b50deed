//! Vectorized execution over columnar storage — the default data plane.
//!
//! Operators pass `Chunk`s around: a list of *segments*, each a run of
//! `Arc`-shared [`ColumnVec`]s plus one *selection vector* that maps the
//! chunk's logical rows to base rows of those columns. Scans are zero-copy
//! (one dense segment holding the table's column `Arc`s), filters evaluate
//! predicates column-wise in batches of [`BATCH_SIZE`] rows through typed
//! kernels and compose the survivors into every selection, and a join's
//! output is its left input's segments read through the left candidate
//! ids followed by its right input's read through the right ones — `u32`
//! gathers, never column data. A column's values are read only when an
//! expression reads it, one batch at a time — borrowed from storage under
//! an identity selection, gathered through any other.
//!
//! **What a query costs before its first row.** Most queries here are an
//! N+1 loop's point queries over tables of a few dozen rows, so the fixed
//! cost of an execution is what the paper's rewrites trade against, and it
//! is kept to what the plan's nodes need, with no cache in front: a scan
//! shares its table's qualified schema ([`Table::scan_schema`], built with
//! the table; an aliased scan builds its own), every other node builds its
//! output schema from the chunk its input returned (a join's by
//! concatenation, a projection's and an aggregate's through
//! `plan::{project_schema, aggregate_schema}`), and no node derives a schema
//! by walking a subtree. A column reference is bound once per expression,
//! before any row is looked at, through [`ColRef::resolve`] — qualifier and
//! name as the reference holds them, nothing allocated unless the name is
//! unknown. An aggregate writes its output columns directly, typed where
//! its accumulators are.
//!
//! No row is materialized, at the result boundary either: the chunk the
//! last operator produced *is* the result ([`ResultSet`]), a fetched row is
//! an index into it ([`RowRef`]), and a value is copied out when someone
//! reads it ([`ResultSet::value`]) or asks for rows ([`ResultSet::rows`]).
//!
//! Equi-joins share one `BuildTable` — per bucket its first build row, per
//! build row the next one of its bucket, linked in one pass from the last
//! row to the first, so that a chain reads in build-insertion order, the
//! output order `tests/engine_differential.rs` pins — and one `probe`,
//! which looks up a batch of buckets before it walks any chain. Keys are
//! not stored; the paths differ in how a key finds its bucket and whether
//! a chain needs comparing:
//!
//! * **Dense null-free `Int` keys are their own bucket**, `key - min`,
//!   when `max - min + 1` is at most twice the rows the join reads (both
//!   sides). Nothing is hashed or compared, the build column is not read
//!   again, a probe key outside `[min, max]` matches nothing: a probe row
//!   costs one load, a match one more (≈ 2 ns a probe row on `exec_olap`
//!   where one in twenty matches, ≈ 9 where all do; the hashed CSR table
//!   before this one took 15 and 20). Twice, because a bucket is four
//!   bytes and a key eight: up to there the table is no larger than the
//!   key columns the join reads anyway, so filling it costs no more than a
//!   pass over them; and because a factor of one would take `exec_olap`'s
//!   filtered build side by 2.6 % of its range, or not, with the data
//!   seed. Surrogate keys and their foreign keys, which every corpus here
//!   joins on, are well inside. The rule reads `min`, `max` and the two
//!   row counts, nothing else.
//! * **Other null-free `Int` keys are hashed** (`hash_i64`) into a power
//!   of two of buckets, at least twice the build rows, so most probes
//!   that match nothing meet no chain; a chain row costs a compare against
//!   the build column and a load of the next.
//! * **Every other key** (NULLs, non-`Int`, mixed) takes the same table
//!   through `Value`s under `Value::into_eq_key`, the image an index
//!   files under too: the candidates are a superset of the pairs the
//!   conjunct holds on, and the residual pass evaluates it on each.
//!
//! On the two `Int` paths the probe *is* the equi conjunct, so the
//! residual pass skips it. The candidate lists become the output's
//! selection vectors without a copy.
//!
//! Aggregation assigns every row a group id, then folds each aggregate's
//! argument — evaluated once over the whole chunk — into one accumulator
//! per group, in row order. A scalar aggregate assigns nothing; a single
//! null-free `Int` key goes through `IntGroups`, a flat open-addressing
//! table on the same `i64` hash; every other key is grouped by `Value`.
//! `COUNT(*)` is a histogram of the group ids. `Int` and `Float`
//! arguments fold into typed accumulators, every other argument through
//! `exec::AggState`, row by row.
//!
//! Which operand combinations have a typed kernel (a batch that is all
//! of one type, a constant, or a NULL constant counts as that type):
//!
//! | operator | operands | no NULL flags | with NULL flags |
//! |---|---|---|---|
//! | `= <> < <= > >=` | Int×Int, numeric×Float, Str×Str | straight loop (slice×slice, slice×constant) | nullable loop |
//! | `AND OR` | Bool×Bool | straight loop (slice×slice) | nullable loop (also ×constant) |
//! | `+ - * /` | Int×Int, numeric×Float, Str`+`Str | nullable loop | nullable loop |
//! | `NOT` | Bool | straight loop | straight loop, flags kept |
//! | keep `TRUE` rows | Bool | branch-free loop | branch-free loop |
//! | `COUNT SUM MIN MAX AVG` | Int, Float | typed fold | typed fold, NULLs skipped |
//! | anything else | Str/Bool arguments, `Mixed` columns, mismatched types, function calls | per-row `Value`s: `apply_bin_op`, `AggState` | same |
//!
//! **What holds this engine.** No second engine runs beside it. The rows
//! it returns are held to `tests/support/naive.rs` — an evaluator with no
//! access path and its own comparison, logic and arithmetic — over
//! generated queries, to the same query with its access paths defeated
//! and to the partition of every predicate (`tests/engine_reference.rs`);
//! row order below a join or a grouping and [`ExecWork`], which nothing
//! but this engine defines, to pinned digests
//! (`tests/engine_differential.rs`, `tests/interp_pins.rs`). A change to
//! an access path is one edit here plus a deliberate re-pin. The rules the
//! engine evaluates by:
//!
//! 1. Typed kernels compute what [`apply_bin_op`]/[`Value::sql_cmp`] and
//!    `AggState` compute value by value (integer compares stay integral,
//!    floats compare as IEEE numbers, `AND`/`OR` are three-valued, Int
//!    arithmetic and Int SUM wrap, `/0 → NULL`, a Float SUM starts from
//!    its first value); every combination without a kernel falls back to
//!    a per-row `apply_bin_op` or `AggState` loop.
//! 2. An expression is bound to its input before any row is looked at
//!    (`Eval::bind`): a column that does not resolve, an unbound parameter
//!    or an unknown function fails the statement whatever the data. A type
//!    error is met by the rows that meet it: `AND`/`OR` *inside* a
//!    predicate tree never short-circuit (both sides always evaluate), a
//!    conjunct *list* (index-path residuals, join residuals) is applied
//!    progressively, each conjunct narrowing the selection before the next
//!    evaluates.
//! 3. Order-sensitive accumulations (AVG's float sum, group first-seen
//!    order, stable sorts) run in selection order.

use crate::catalog::Table;
use crate::column::{ColumnVec, NullMask};
use crate::error::{DbError, DbResult};
use crate::exec::{AggState, ExecWork, Executor};
use crate::expr::{apply_bin_op, AggFunc, BinOp, ColRef, ScalarExpr};
use crate::func::FuncRegistry;
use crate::plan::{aggregate_schema, project_schema, AggItem, LogicalPlan, SortDir};
use crate::schema::Schema;
use crate::value::{cmp_f64, Row, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Rows processed per filter batch: large enough to amortize dispatch,
/// small enough that batch temporaries stay cache-resident.
pub const BATCH_SIZE: usize = 1024;

/// Columns that share one selection vector.
struct Segment {
    cols: Vec<Arc<ColumnVec>>,
    /// Base row of each logical row; `None` is the identity (logical row
    /// `k` is base row `k`, and `cols` may run past the chunk's length).
    sel: Option<Vec<u32>>,
}

impl Segment {
    /// The selection of this segment read through `rows`, logical row ids
    /// of its chunk: the base row of each.
    fn compose(&self, rows: &[u32]) -> Vec<u32> {
        match &self.sel {
            Some(sel) => rows.iter().map(|&k| sel[k as usize]).collect(),
            None => rows.to_vec(),
        }
    }
}

/// One column of a chunk: its storage and its segment's selection.
#[derive(Clone, Copy)]
struct ColView<'a> {
    col: &'a ColumnVec,
    sel: Option<&'a [u32]>,
}

impl ColView<'_> {
    /// Base row of logical row `k`.
    #[inline]
    fn base(&self, k: usize) -> usize {
        match self.sel {
            Some(sel) => sel[k] as usize,
            None => k,
        }
    }

    fn get(&self, k: usize) -> Value {
        self.col.get(self.base(k))
    }
}

/// A batch-of-columns intermediate result: `len` logical rows whose
/// columns are those of `segs`, in order, each read through its segment's
/// selection.
struct Chunk {
    schema: Arc<Schema>,
    segs: Vec<Segment>,
    len: usize,
}

impl Chunk {
    /// One segment holding the first `len` rows of `cols`.
    fn dense(schema: Arc<Schema>, cols: Vec<Arc<ColumnVec>>, len: usize) -> Chunk {
        Chunk {
            schema,
            segs: vec![Segment { cols, sel: None }],
            len,
        }
    }

    /// All of `t`'s rows, zero-copy, under `schema` (its own, qualified).
    fn scan(t: &Table, schema: Arc<Schema>) -> Chunk {
        let ct = t.columnar();
        Chunk::dense(schema, ct.cols.clone(), ct.len)
    }

    /// A join's output: row `k` is row `l_rows[k]` of `l` followed by row
    /// `r_rows[k]` of `r`, under `schema` (`l`'s columns, then `r`'s). Only
    /// selections are written.
    fn joined(
        schema: Arc<Schema>,
        l: &Chunk,
        l_rows: Vec<u32>,
        r: &Chunk,
        r_rows: Vec<u32>,
    ) -> Chunk {
        let len = l_rows.len();
        let mut segs = l.read_through(l_rows);
        segs.extend(r.read_through(r_rows));
        Chunk { schema, segs, len }
    }

    /// The schema of this chunk joined with `r`: this one's columns, then
    /// `r`'s.
    fn join_schema(&self, r: &Chunk) -> Arc<Schema> {
        Arc::new(self.schema.join(&r.schema))
    }

    /// This chunk's segments read through `rows`, logical row ids of it. A
    /// lone identity segment (a scan, a projection, an aggregate's output)
    /// takes `rows` as its selection; any other composes its own.
    fn read_through(&self, rows: Vec<u32>) -> Vec<Segment> {
        if let [Segment { cols, sel: None }] = &self.segs[..] {
            let cols = cols.clone();
            return vec![Segment {
                cols,
                sel: Some(rows),
            }];
        }
        let read = |s: &Segment| Segment {
            cols: s.cols.clone(),
            sel: Some(s.compose(&rows)),
        };
        self.segs.iter().map(read).collect()
    }

    /// Column `i` of the schema.
    fn col(&self, mut i: usize) -> ColView<'_> {
        for seg in &self.segs {
            if let Some(col) = seg.cols.get(i) {
                return ColView {
                    col,
                    sel: seg.sel.as_deref(),
                };
            }
            i -= seg.cols.len();
        }
        unreachable!("column index resolved against this chunk's schema")
    }

    /// Keep the logical rows `rows`, in that order: each segment's
    /// selection is replaced, its columns stay where they are.
    fn select(&mut self, rows: Vec<u32>) {
        self.len = rows.len();
        if let [seg @ Segment { sel: None, .. }] = &mut self.segs[..] {
            seg.sel = Some(rows);
            return;
        }
        for seg in &mut self.segs {
            seg.sel = Some(seg.compose(&rows));
        }
    }

    /// Late materialization: clone the selected rows out, in order.
    fn materialize(&self) -> Vec<Row> {
        let cols: Vec<ColView<'_>> = (0..self.schema.len()).map(|i| self.col(i)).collect();
        (0..self.len)
            .map(|k| cols.iter().map(|c| c.get(k)).collect())
            .collect()
    }
}

/// A query's result, as the engine left it: the chunk the last operator
/// produced — the output schema and, per segment, the column `Arc`s with
/// their selection vector — and the work the server did. Nothing is copied
/// until a value is read, and a value is read where it lies.
///
/// The columns are the ones the tables had when the query ran. A row write
/// replaces a table's columnar projection and never mutates it, so a later
/// update cannot change a result already fetched.
///
/// Every accessor takes logical rows `0..len()` and panics on any other:
/// under an identity selection the columns run past a `LIMIT`.
pub struct ResultSet {
    chunk: Chunk,
    work: ExecWork,
}

impl ResultSet {
    /// Result-set cardinality (`N_Q`).
    pub fn len(&self) -> usize {
        self.chunk.len
    }

    /// True when the query returned no row.
    pub fn is_empty(&self) -> bool {
        self.chunk.len == 0
    }

    /// Output schema, shared by every row of the result.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.chunk.schema
    }

    /// Work performed by the server.
    pub fn work(&self) -> ExecWork {
        self.work
    }

    /// Total payload size in bytes: `N_Q · S_row(Q)`.
    pub fn payload_bytes(&self) -> u64 {
        self.chunk.len as u64 * self.chunk.schema.row_bytes()
    }

    /// The value of column `col` in row `row`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        assert!(row < self.chunk.len, "row {row} of {}", self.chunk.len);
        self.chunk.col(col).get(row)
    }

    /// Row `i`, materialized.
    pub fn row(&self, i: usize) -> Row {
        let cols = 0..self.chunk.schema.len();
        cols.map(|col| self.value(i, col)).collect()
    }

    /// Every row, materialized, in result order.
    pub fn rows(&self) -> Vec<Row> {
        self.chunk.materialize()
    }
}

impl std::fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let columns = self.chunk.schema.columns().iter().map(|c| c.full_name());
        write!(f, "ResultSet({} rows of ", self.chunk.len)?;
        f.debug_list().entries(columns).finish()?;
        write!(f, ")")
    }
}

/// One row of a shared [`ResultSet`]: what a fetched row is to the ORM's
/// cache and to the interpreter. Cloning bumps a reference count.
#[derive(Clone)]
pub struct RowRef {
    set: Arc<ResultSet>,
    row: u32,
}

impl RowRef {
    /// Every row of `set`, in result order.
    pub fn all(set: &Arc<ResultSet>) -> impl Iterator<Item = RowRef> + '_ {
        let len = u32::try_from(set.len()).expect("row ids are u32");
        (0..len).map(move |row| RowRef {
            set: set.clone(),
            row,
        })
    }

    /// Schema of the result this row belongs to.
    pub fn schema(&self) -> &Arc<Schema> {
        self.set.schema()
    }

    /// The value in column `col`.
    pub fn value(&self, col: usize) -> Value {
        self.set.chunk.col(col).get(self.row as usize)
    }

    /// The row, materialized.
    pub fn values(&self) -> Row {
        self.set.row(self.row as usize)
    }
}

impl std::fmt::Debug for RowRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RowRef").field(&self.values()).finish()
    }
}

/// Entry point: run `plan` vectorized. No row is materialized.
pub(crate) fn run(
    exec: &Executor<'_>,
    plan: &LogicalPlan,
    params: &HashMap<String, Value>,
) -> DbResult<ResultSet> {
    let (chunk, work) = run_plan(exec, plan, params)?;
    Ok(ResultSet { chunk, work })
}

fn run_plan(
    exec: &Executor<'_>,
    plan: &LogicalPlan,
    params: &HashMap<String, Value>,
) -> DbResult<(Chunk, ExecWork)> {
    match plan {
        LogicalPlan::Scan { table, alias } => {
            let t = exec.db.table(table)?;
            let chunk = Chunk::scan(t, t.scan_schema(alias.as_deref()));
            let work = ExecWork {
                startup_rows: 0,
                total_rows: chunk.len as u64,
            };
            Ok((chunk, work))
        }
        LogicalPlan::Select { input, pred } => run_select(exec, input, pred, params),
        LogicalPlan::Project { input, items } => {
            let (chunk, mut work) = run_plan(exec, input, params)?;
            let out_schema = project_schema(&chunk.schema, items, exec.funcs)?;
            let n = chunk.len;
            let mut eval = Eval::new(&chunk, params, exec.funcs);
            let mut cols = Vec::with_capacity(items.len());
            for (expr, _) in items {
                eval.bind(expr)?;
                cols.push(Arc::new(vcol_to_column(eval.eval(expr, 0..n)?, n)));
            }
            work.total_rows += n as u64;
            Ok((Chunk::dense(Arc::new(out_schema), cols, n), work))
        }
        LogicalPlan::Join { left, right, pred } => run_join(exec, left, right, pred, params),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => run_aggregate(exec, input, group_by, aggs, params),
        LogicalPlan::OrderBy { input, keys } => {
            let (mut chunk, mut work) = run_plan(exec, input, params)?;
            let mut key_cols = Vec::with_capacity(keys.len());
            for (c, dir) in keys {
                key_cols.push((chunk.col(c.resolve(&chunk.schema)?), *dir));
            }
            let mut rows: Vec<u32> = (0..chunk.len as u32).collect();
            // Stable index sort, key column by key column (`cmp_rows`).
            rows.sort_by(|&a, &b| {
                for &(c, dir) in &key_cols {
                    let ord = cmp_rows(c.col, c.base(a as usize), c.base(b as usize));
                    let ord = match dir {
                        SortDir::Asc => ord,
                        SortDir::Desc => ord.reverse(),
                    };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            let n = rows.len() as u64;
            let sort_work = n * (64 - n.max(1).leading_zeros() as u64).max(1);
            work.startup_rows = work.total_rows + sort_work;
            work.total_rows += sort_work;
            chunk.select(rows);
            Ok((chunk, work))
        }
        LogicalPlan::Limit { input, n } => {
            let (mut chunk, work) = run_plan(exec, input, params)?;
            chunk.len = chunk.len.min(*n as usize);
            for seg in &mut chunk.segs {
                if let Some(sel) = &mut seg.sel {
                    sel.truncate(chunk.len);
                }
            }
            Ok((chunk, work))
        }
    }
}

/// `ORDER BY`'s order on two rows of one column, without materializing
/// values: NULLs first, then as `=` compares (`-0.0` ties `0.0`), so that
/// the next key decides between rows `=` calls equal.
fn cmp_rows(col: &ColumnVec, a: usize, b: usize) -> Ordering {
    match col {
        ColumnVec::Mixed(v) => sort_cmp(&v[a], &v[b]),
        _ => match (col.is_null(a), col.is_null(b)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => match col {
                ColumnVec::Int { data, .. } => data[a].cmp(&data[b]),
                ColumnVec::Float { data, .. } => cmp_f64(&data[a], &data[b]),
                ColumnVec::Str { data, .. } => data[a].cmp(&data[b]),
                ColumnVec::Bool { data, .. } => data[a].cmp(&data[b]),
                ColumnVec::Mixed(_) => unreachable!(),
            },
        },
    }
}

/// [`cmp_rows`] on two values of a `Mixed` column: two numbers by value, two
/// values of one kind as `sql_cmp` has them, and otherwise `Value::cmp`'s
/// rank of their kinds (NULL, then booleans, numbers, strings). An Int and
/// a Float compare exactly, not through the Int's `f64` as `sql_cmp` does:
/// from 2^53 on that makes `=` intransitive, and a sort needs an order.
fn sort_cmp(a: &Value, b: &Value) -> Ordering {
    let exact =
        |i: i64, f: f64| cmp_f64(&(i as f64), &f).then_with(|| (i as i128).cmp(&(f as i128)));
    match (a, b) {
        (Value::Int(i), Value::Float(f)) => exact(*i, *f),
        (Value::Float(f), Value::Int(i)) => exact(*i, *f).reverse(),
        _ => a.sql_cmp(b).unwrap_or_else(|| a.cmp(b)),
    }
}

/// The index fast path's probe: the first equality conjunct between an
/// indexed column of base table `t` (whose scan has `schema`) and a
/// column-free expression, as `(conjunct position, column, key
/// expression)`. The estimator prices the path this finds.
pub(crate) fn indexed_eq_conjunct<'p>(
    t: &Table,
    schema: &Schema,
    conjuncts: &[&'p ScalarExpr],
) -> Option<(usize, usize, &'p ScalarExpr)> {
    conjuncts.iter().enumerate().find_map(|(ci, c)| {
        let ScalarExpr::Bin(BinOp::Eq, l, r) = c else {
            return None;
        };
        let (col, key_expr) = match (&**l, &**r) {
            (ScalarExpr::Col(col), other) if !other.references_columns() => (col, other),
            (other, ScalarExpr::Col(col)) if !other.references_columns() => (col, other),
            _ => return None,
        };
        let idx = col.position(schema)?;
        t.has_index(idx).then_some((ci, idx, key_expr))
    })
}

fn run_select(
    exec: &Executor<'_>,
    input: &LogicalPlan,
    pred: &ScalarExpr,
    params: &HashMap<String, Value>,
) -> DbResult<(Chunk, ExecWork)> {
    // Index fast path: the first eligible equality conjunct over an
    // indexed base-table column.
    if let LogicalPlan::Scan { table, alias } = input {
        let t = exec.db.table(table)?;
        let schema = t.scan_schema(alias.as_deref());
        let conjuncts = pred.conjuncts();
        if let Some((ci, idx, key_expr)) = indexed_eq_conjunct(t, &schema, &conjuncts) {
            let key = key_expr.eval(&Schema::default(), &Vec::new(), params, exec.funcs)?;
            let positions = t.index_lookup(idx, &key).unwrap_or_default();
            let work = ExecWork {
                startup_rows: 0,
                total_rows: positions.len() as u64 + 1,
            };
            let hits: Vec<u32> = positions.iter().map(|&p| p as u32).collect();
            let mut chunk = Chunk::scan(t, schema);
            chunk.select(hits);
            // Remaining conjuncts narrow the selection in order.
            for (i, other) in conjuncts.iter().enumerate() {
                if i != ci {
                    filter_chunk(&mut chunk, other, params, exec.funcs)?;
                }
            }
            return Ok((chunk, work));
        }
    }
    // Generic filter: whole predicate tree, batched over the selection.
    let (mut chunk, mut work) = run_plan(exec, input, params)?;
    let n = chunk.len as u64;
    filter_chunk(&mut chunk, pred, params, exec.funcs)?;
    work.total_rows += n;
    Ok((chunk, work))
}

/// Narrow `chunk` to the rows where `pred` is true, evaluating
/// column-wise in [`BATCH_SIZE`] batches.
fn filter_chunk(
    chunk: &mut Chunk,
    pred: &ScalarExpr,
    params: &HashMap<String, Value>,
    funcs: &FuncRegistry,
) -> DbResult<()> {
    let mut keep: Vec<u32> = Vec::new();
    let mut eval = Eval::new(chunk, params, funcs);
    eval.bind(pred)?;
    for lo in (0..chunk.len).step_by(BATCH_SIZE) {
        let rows = lo..chunk.len.min(lo + BATCH_SIZE);
        let v = eval.eval(pred, rows.clone())?;
        append_truthy(&v, rows, &mut keep);
    }
    chunk.select(keep);
    Ok(())
}

/// Append the rows of the batch `rows` whose predicate value is `TRUE`.
fn append_truthy(v: &VCol<'_>, rows: Range<usize>, keep: &mut Vec<u32>) {
    let rows = rows.start as u32..rows.end as u32;
    match v {
        VCol::Bool(data, nulls) => {
            // Branch-free: every row is written at the cursor, which
            // moves past the row only when it is kept.
            let start = keep.len();
            keep.resize(start + rows.len(), 0);
            let out = &mut keep[start..];
            let mut kept = 0;
            match nulls {
                None => {
                    for (&b, row) in data.iter().zip(rows) {
                        out[kept] = row;
                        kept += b as usize;
                    }
                }
                Some(nulls) => {
                    for ((&b, &null), row) in data.iter().zip(nulls).zip(rows) {
                        out[kept] = row;
                        kept += (b & !null) as usize;
                    }
                }
            }
            keep.truncate(start + kept);
        }
        VCol::Const(Value::Bool(true)) => keep.extend(rows),
        VCol::Const(_) => {}
        VCol::Vals(vals) => {
            for (k, row) in rows.enumerate() {
                if vals[k].as_bool() == Some(true) {
                    keep.push(row);
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
    // A side the INL attempt executed and then declined to drive with is
    // not executed again.
    let mut ran = [None, None];
    if let Some(result) = try_inl_join(exec, [left, right], pred, params, &mut ran)? {
        return Ok(result);
    }
    let [l_ran, r_ran] = ran;
    let side = |ran: Option<_>, plan| ran.map_or_else(|| run_plan(exec, plan, params), Ok);
    let (l_chunk, l_work) = side(l_ran, left)?;
    let (r_chunk, r_work) = side(r_ran, right)?;
    let mut work = ExecWork::default();
    work.add(l_work);
    work.add(r_work);

    // Equi-conjunct detection (first match in conjunct order, either
    // orientation): the conjunct's position and its (left, right) columns,
    // by reference and by position.
    let conjuncts = pred.conjuncts();
    let equi = conjuncts.iter().enumerate().find_map(|(ci, c)| {
        let ScalarExpr::Bin(BinOp::Eq, a, b) = c else {
            return None;
        };
        let (ScalarExpr::Col(ca), ScalarExpr::Col(cb)) = (&**a, &**b) else {
            return None;
        };
        let sides = |l: &ColRef, r: &ColRef| {
            Some((l.position(&l_chunk.schema)?, r.position(&r_chunk.schema)?))
        };
        if let Some((li, ri)) = sides(ca, cb) {
            return Some((ci, [ca, cb], li, ri));
        }
        let (li, ri) = sides(cb, ca)?;
        Some((ci, [cb, ca], li, ri))
    });

    if let Some((equi_ci, [l_ref, r_ref], li, ri)) = equi {
        // Hash join; build on the smaller side, probe-major output.
        let build_left = l_chunk.len <= r_chunk.len;
        let (build, probe, b_key, p_key) = if build_left {
            (&l_chunk, &r_chunk, li, ri)
        } else {
            (&r_chunk, &l_chunk, ri, li)
        };
        work.startup_rows = work.total_rows + build.len as u64;
        work.total_rows += build.len as u64 + probe.len as u64;
        let ((cand_b, cand_p), typed) = hash_candidates(build, b_key, probe, p_key);
        let (cand_l, cand_r) = if build_left {
            (cand_b, cand_p)
        } else {
            (cand_p, cand_b)
        };
        let schema = l_chunk.join_schema(&r_chunk);
        let mut chunk = Chunk::joined(schema, &l_chunk, cand_l, &r_chunk, cand_r);
        // The typed probe matched the two key columns as null-free ints,
        // which is the equi conjunct — provided the conjunct reads those
        // same two columns in the joined schema (where a reference can
        // turn ambiguous, and must then still raise).
        let proven = typed
            && l_ref.position(&chunk.schema) == Some(li)
            && r_ref.position(&chunk.schema) == Some(l_chunk.schema.len() + ri);
        // Residual check = every other conjunct, progressively
        // (short-circuit).
        for (ci, c) in conjuncts.iter().enumerate() {
            if !(proven && ci == equi_ci) {
                filter_chunk(&mut chunk, c, params, exec.funcs)?;
            }
        }
        // One row-touch per row *passing* the residual.
        work.total_rows += chunk.len as u64;
        Ok((chunk, work))
    } else {
        // Nested-loop join: generate l-major candidate pairs in batches,
        // evaluate the full predicate per batch.
        work.startup_rows = work.total_rows;
        work.total_rows += (l_chunk.len as u64).saturating_mul(r_chunk.len as u64);
        let schema = l_chunk.join_schema(&r_chunk);
        let joined =
            |l_rows, r_rows| Chunk::joined(schema.clone(), &l_chunk, l_rows, &r_chunk, r_rows);
        Eval::new(&joined(Vec::new(), Vec::new()), params, exec.funcs).bind(pred)?;
        let mut keep_l: Vec<u32> = Vec::new();
        let mut keep_r: Vec<u32> = Vec::new();
        let mut batch_l: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
        let mut batch_r: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
        let mut flush = |batch_l: &mut Vec<u32>, batch_r: &mut Vec<u32>| -> DbResult<()> {
            let n = batch_l.len();
            let mini = joined(batch_l.clone(), batch_r.clone());
            let v = Eval::new(&mini, params, exec.funcs).eval(pred, 0..n)?;
            let mut local: Vec<u32> = Vec::new();
            append_truthy(&v, 0..n, &mut local);
            for &k in &local {
                keep_l.push(batch_l[k as usize]);
                keep_r.push(batch_r[k as usize]);
            }
            batch_l.clear();
            batch_r.clear();
            Ok(())
        };
        for l in 0..l_chunk.len as u32 {
            for r in 0..r_chunk.len as u32 {
                batch_l.push(l);
                batch_r.push(r);
                if batch_l.len() == BATCH_SIZE {
                    flush(&mut batch_l, &mut batch_r)?;
                }
            }
        }
        flush(&mut batch_l, &mut batch_r)?;
        Ok((joined(keep_l, keep_r), work))
    }
}

/// End-of-chain mark of a [`BuildTable`]; no build row has this id.
const NIL: u32 = u32::MAX;

/// The build side of every hash join: per bucket its first build row, per
/// build row the next one of its bucket, each chain in build-insertion
/// order. Keys are not stored; which bucket a key has, and whether a chain
/// can hold a row with another key, is the caller's.
struct BuildTable {
    /// The first build row of each bucket, [`NIL`] for an empty one.
    head: Vec<u32>,
    /// The next build row of each build row's bucket, [`NIL`] after the
    /// last.
    next: Vec<u32>,
}

impl BuildTable {
    /// Table of `buckets` buckets over build rows `0..n`, `bucket(b)` being
    /// row `b`'s: one pass, from the last row to the first, so that every
    /// chain runs from its first row to its last.
    fn new(n: usize, buckets: usize, bucket: impl Fn(usize) -> usize) -> BuildTable {
        assert!(
            n < NIL as usize,
            "row ids are u32, and u32::MAX ends a chain"
        );
        let mut head = vec![NIL; buckets];
        let mut next = vec![NIL; n];
        for b in (0..n).rev() {
            let first = &mut head[bucket(b)];
            next[b] = *first;
            *first = b as u32;
        }
        BuildTable { head, next }
    }

    /// A hashed table over build rows `0..n`, at most half full: a power
    /// of two of buckets, the top bits of `hash(b)` picking row `b`'s.
    /// Returns the table and the shift that leaves those bits.
    fn hashed(n: usize, hash: impl Fn(usize) -> u64) -> (BuildTable, u32) {
        // At least two buckets, so that the shift stays below 64.
        let buckets = (2 * n).next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let table = BuildTable::new(n, buckets, |b| (hash(b) >> shift) as usize);
        (table, shift)
    }

    /// The candidate pairs `(build row, probe row)` of probe rows
    /// `0..n_probe`: probe-major, a probe row's matches in
    /// build-insertion order.
    /// `bucket(p)` is probe row `p`'s bucket, `None` when its key has
    /// none; `eq(b, p)` is whether build row `b` has probe row `p`'s key.
    ///
    /// A batch of probe rows first looks its buckets up — independent
    /// loads, and the rows that found an empty one dropped without a
    /// branch — and only then walks the chains, where each step waits for
    /// the one before and the trip count cannot be predicted.
    fn probe(
        &self,
        n_probe: usize,
        bucket: impl Fn(usize) -> Option<usize>,
        eq: impl Fn(usize, usize) -> bool,
    ) -> (Vec<u32>, Vec<u32>) {
        // Room for one match per probe row, which is all a key–foreign-key
        // join emits whichever side it builds on (the probe side is the
        // larger one); a join that fans out further grows the lists.
        let mut cand_b: Vec<u32> = Vec::with_capacity(n_probe);
        let mut cand_p: Vec<u32> = Vec::with_capacity(n_probe);
        let mut rows = [0u32; BATCH_SIZE];
        let mut firsts = [NIL; BATCH_SIZE];
        for lo in (0..n_probe).step_by(BATCH_SIZE) {
            let mut found = 0;
            for p in lo..n_probe.min(lo + BATCH_SIZE) {
                let first = bucket(p).map_or(NIL, |h| self.head[h]);
                rows[found] = p as u32;
                firsts[found] = first;
                found += (first != NIL) as usize;
            }
            for (&p, &first) in rows[..found].iter().zip(&firsts[..found]) {
                let mut b = first;
                while b != NIL {
                    if eq(b as usize, p as usize) {
                        cand_b.push(b);
                        cand_p.push(p);
                    }
                    b = self.next[b as usize];
                }
            }
        }
        (cand_b, cand_p)
    }
}

/// Multiplicative (Fibonacci) hash: the top bits mix every key bit.
#[inline]
fn hash_i64(k: i64) -> u64 {
    (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `Value`'s own `Hash`, so keys equal under `Value::eq` share a bucket.
fn hash_value(v: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `(min, max - min)` of `keys` when a table addressed by `key - min` is
/// worth its buckets: the range is at most twice `rows` keys wide (why
/// twice, the module doc says). `None` for an empty or a wider key set.
fn dense_range(mut keys: impl Iterator<Item = i64>, rows: usize) -> Option<(i64, u64)> {
    let first = keys.next()?;
    let (min, max) = keys.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k)));
    // The difference of two `i64`s always fits a `u64`; the width, one
    // more, need not (`i64::MIN..=i64::MAX`), so compare the difference.
    let span = max.wrapping_sub(min) as u64;
    (span < 2 * rows as u64).then_some((min, span))
}

/// The candidate pair lists of a hash join, as logical rows per side, and
/// whether a typed path produced them (every pair then has equal,
/// non-NULL Int keys).
fn hash_candidates(
    build: &Chunk,
    b_key: usize,
    probe: &Chunk,
    p_key: usize,
) -> ((Vec<u32>, Vec<u32>), bool) {
    let (n_build, n_probe) = (build.len, probe.len);
    let (build, probe) = (build.col(b_key), probe.col(p_key));
    // Typed paths: both keys are null-free Int columns.
    if let (
        ColumnVec::Int {
            data: bd,
            nulls: None,
        },
        ColumnVec::Int {
            data: pd,
            nulls: None,
        },
    ) = (build.col, probe.col)
    {
        let b_at = |b: usize| bd[build.base(b)];
        let p_at = |p: usize| pd[probe.base(p)];
        let pairs = match dense_range((0..n_build).map(b_at), n_build + n_probe) {
            // Dense: the key is its own bucket number. Nothing is hashed,
            // a chain holds one key, and the build column is not read
            // again.
            Some((min, span)) => {
                let bucket = |k: i64| k.wrapping_sub(min) as u64;
                let table =
                    BuildTable::new(n_build, span as usize + 1, |b| bucket(b_at(b)) as usize);
                table.probe(
                    n_probe,
                    |p| {
                        let h = bucket(p_at(p));
                        (h <= span).then_some(h as usize)
                    },
                    |_, _| true,
                )
            }
            None => {
                let (table, shift) = BuildTable::hashed(n_build, |b| hash_i64(b_at(b)));
                table.probe(
                    n_probe,
                    |p| Some((hash_i64(p_at(p)) >> shift) as usize),
                    |b, p| b_at(b) == p_at(p),
                )
            }
        };
        return (pairs, true);
    }
    // Generic path: full `Value`s under their images, NULL keys included —
    // a NULL pairs with a NULL and two Ints with one `f64` image pair with
    // each other, and the residual, which evaluates every conjunct on this
    // path, discards both.
    let keys = |col: ColView<'_>, n: usize| -> Vec<Value> {
        (0..n).map(|k| col.get(k).into_eq_key()).collect()
    };
    let (b_keys, p_keys) = (keys(build, n_build), keys(probe, n_probe));
    let (table, shift) = BuildTable::hashed(n_build, |b| hash_value(&b_keys[b]));
    let pairs = table.probe(
        n_probe,
        |p| Some((hash_value(&p_keys[p]) >> shift) as usize),
        |b, p| b_keys[b] == p_keys[p],
    );
    (pairs, false)
}

/// Index-nested-loops' probe columns: the *last* equi-conjunct between a
/// column of the outer side and an indexed column of the inner side — a
/// bare scan of `t` with schema `inner_schema` — as `(outer column, inner
/// column)`. The estimator prices the join this makes eligible.
pub(crate) fn inl_probe_columns(
    t: &Table,
    outer_schema: &Schema,
    inner_schema: &Schema,
    conjuncts: &[&ScalarExpr],
) -> Option<(usize, usize)> {
    let mut probe = None;
    for c in conjuncts {
        let ScalarExpr::Bin(BinOp::Eq, a, b) = c else {
            continue;
        };
        let (ScalarExpr::Col(ca), ScalarExpr::Col(cb)) = (&**a, &**b) else {
            continue;
        };
        for (x, y) in [(ca, cb), (cb, ca)] {
            if let (Some(o), Some(i)) = (x.position(outer_schema), y.position(inner_schema)) {
                if t.has_index(i) {
                    probe = Some((o, i));
                }
            }
        }
    }
    probe
}

/// Index-nested-loops join, in this decision order: the inner side must
/// be a bare scan; the outer side then runs (errors propagate whatever is
/// decided next), and its schema must give the inner an index on the
/// *last* eligible equi conjunct; candidates charge one row-touch per
/// outer row plus one per index hit before residual checks. `sides` is
/// `[left, right]`; an outer side that ran and was rejected is left in
/// its slot of `ran`.
fn try_inl_join(
    exec: &Executor<'_>,
    sides: [&LogicalPlan; 2],
    pred: &ScalarExpr,
    params: &HashMap<String, Value>,
    ran: &mut [Option<(Chunk, ExecWork)>; 2],
) -> DbResult<Option<(Chunk, ExecWork)>> {
    let conjuncts = pred.conjuncts();
    for outer in [0, 1] {
        let LogicalPlan::Scan { table, alias } = sides[1 - outer] else {
            continue;
        };
        let t = exec.db.table(table)?;
        let (o_chunk, o_work) = ran[outer].insert(run_plan(exec, sides[outer], params)?);
        let inner_schema = t.scan_schema(alias.as_deref());
        let Some((o_col, i_col)) = inl_probe_columns(t, &o_chunk.schema, &inner_schema, &conjuncts)
        else {
            continue;
        };
        if o_chunk.len * 2 >= t.row_count() {
            continue; // hash join is the better plan; fall through
        }

        let mut work = *o_work;
        let mut cand_o: Vec<u32> = Vec::new();
        let mut cand_i: Vec<u32> = Vec::new();
        let o_key = o_chunk.col(o_col);
        for k in 0..o_chunk.len {
            work.total_rows += 1;
            let hits = t.index_lookup(i_col, &o_key.get(k)).unwrap_or_default();
            for &pos in hits.iter() {
                work.total_rows += 1;
                cand_o.push(k as u32);
                cand_i.push(pos as u32);
            }
        }
        let inner = Chunk::scan(t, inner_schema);
        let mut chunk = if outer == 0 {
            Chunk::joined(o_chunk.join_schema(&inner), o_chunk, cand_o, &inner, cand_i)
        } else {
            Chunk::joined(inner.join_schema(o_chunk), &inner, cand_i, o_chunk, cand_o)
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
    input: &LogicalPlan,
    group_by: &[ColRef],
    aggs: &[AggItem],
    params: &HashMap<String, Value>,
) -> DbResult<(Chunk, ExecWork)> {
    let (chunk, mut work) = run_plan(exec, input, params)?;
    let out_schema = aggregate_schema(&chunk.schema, group_by, aggs, exec.funcs)?;
    let mut group_cols = Vec::with_capacity(group_by.len());
    for g in group_by {
        group_cols.push(chunk.col(g.resolve(&chunk.schema)?));
    }
    let n = chunk.len;

    // Group keys in first-seen order, one column per key, and every row's
    // group. A scalar aggregate has its one group whatever the input, and
    // assigns nothing.
    let (mut cols, gids, n_groups) = match group_cols[..] {
        [] => (Vec::new(), None, 1),
        [c @ ColView {
            col: ColumnVec::Int { data, nulls: None },
            ..
        }] => {
            let mut groups = IntGroups::new();
            let gids = (0..n).map(|k| groups.gid(data[c.base(k)])).collect();
            let n_groups = groups.keys.len();
            let keys = ColumnVec::Int {
                data: groups.keys,
                nulls: None,
            };
            (vec![Arc::new(keys)], Some(gids), n_groups)
        }
        _ => {
            let (keys, gids) = value_groups(&group_cols, n);
            let n_groups = keys.first().map_or(0, Vec::len);
            let keys = keys.into_iter().map(ColumnVec::from_values).map(Arc::new);
            (keys.collect(), Some(gids), n_groups)
        }
    };
    let gids = gids.as_deref();

    // Per aggregate item: evaluate the argument once over all rows, then
    // fold it per group in row order (AVG's float sum is order-sensitive).
    // An item without an argument is `COUNT(*)`: `aggregate_schema`
    // refused any other.
    let mut eval = Eval::new(&chunk, params, exec.funcs);
    for item in aggs {
        let col = match &item.arg {
            Some(e) => {
                eval.bind(e)?;
                fold_agg(item.func, &eval.eval(e, 0..n)?, n, gids, n_groups)
            }
            None => count_star(n, gids, n_groups),
        };
        cols.push(Arc::new(col));
    }
    work.total_rows += n as u64;
    work.startup_rows = work.total_rows;
    Ok((Chunk::dense(Arc::new(out_schema), cols, n_groups), work))
}

/// Group assignment over one null-free Int key: a flat open-addressing
/// table (linear probing from the top bits of `hash_i64`, at most half
/// full) from a key to its group id, ids handed out in first-seen order.
struct IntGroups {
    /// The key of each group, by id.
    keys: Vec<i64>,
    /// A power-of-two number of slots: 0 for empty, else a group id + 1.
    slots: Vec<u32>,
    /// A hash's top `64 - shift` bits pick the slot its probe starts at.
    shift: u32,
}

impl IntGroups {
    fn new() -> IntGroups {
        IntGroups {
            keys: Vec::new(),
            slots: vec![0; 16],
            shift: 60,
        }
    }

    /// The slot that holds `k`'s group, or the empty one where it belongs.
    #[inline]
    fn slot(&self, k: i64) -> usize {
        let mut h = (hash_i64(k) >> self.shift) as usize;
        while self.slots[h] != 0 && self.keys[self.slots[h] as usize - 1] != k {
            h = (h + 1) & (self.slots.len() - 1);
        }
        h
    }

    /// The group id of `k`, a new one if `k` was not seen before.
    #[inline]
    fn gid(&mut self, k: i64) -> u32 {
        let h = self.slot(k);
        if self.slots[h] == 0 {
            self.keys.push(k);
            self.slots[h] = self.keys.len() as u32;
            if self.keys.len() * 2 > self.slots.len() {
                self.shift -= 1;
                self.slots = vec![0; self.slots.len() * 2];
                for g in 0..self.keys.len() {
                    let h = self.slot(self.keys[g]);
                    self.slots[h] = g as u32 + 1;
                }
            }
            return self.keys.len() as u32 - 1;
        }
        self.slots[h] - 1
    }
}

/// Group assignment over full `Value` keys (several columns, a non-Int
/// one, or an Int one with NULLs): per key column its values in first-seen
/// order of the groups, and every row's group.
fn value_groups(group_cols: &[ColView<'_>], n: usize) -> (Vec<Vec<Value>>, Vec<u32>) {
    let mut keys: Vec<Vec<Value>> = vec![Vec::new(); group_cols.len()];
    let mut seen: HashMap<Row, u32> = HashMap::new();
    let gids = (0..n)
        .map(|k| {
            // An Int groups as itself: two that share an image are two.
            let key: Row = group_cols
                .iter()
                .map(|c| match c.get(k) {
                    v @ Value::Int(_) => v,
                    v => v.into_eq_key(),
                })
                .collect();
            let n_groups = seen.len() as u32;
            *seen.entry(key).or_insert_with_key(|key| {
                for (column, v) in keys.iter_mut().zip(key) {
                    column.push(v.clone());
                }
                n_groups
            })
        })
        .collect();
    (keys, gids)
}

/// COUNT(*) per group: a histogram of `gids`; a scalar aggregate's is `n`.
fn count_star(n: usize, gids: Option<&[u32]>, n_groups: usize) -> ColumnVec {
    let data = match gids {
        None => vec![n as i64],
        Some(gids) => {
            let mut counts = vec![0i64; n_groups];
            for &g in gids {
                counts[g as usize] += 1;
            }
            counts
        }
    };
    ColumnVec::Int { data, nulls: None }
}

/// The element types with typed accumulators, under [`AggState`]'s
/// arithmetic and `sql_cmp`'s order.
trait AggNum: Copy + Default {
    /// SUM's step; `first` on a group's first non-NULL row.
    fn sum(acc: Self, x: Self, first: bool) -> Self;
    fn order(self, other: Self) -> Ordering;
    fn to_f64(self) -> f64;
    /// A column of this type.
    fn column(data: Vec<Self>, nulls: Option<NullMask>) -> ColumnVec;
}

impl AggNum for i64 {
    /// Wrapping, so the sum from 0 is the sum from the first row.
    fn sum(acc: i64, x: i64, _first: bool) -> i64 {
        acc.wrapping_add(x)
    }
    fn order(self, other: i64) -> Ordering {
        self.cmp(&other)
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn column(data: Vec<i64>, nulls: Option<NullMask>) -> ColumnVec {
        ColumnVec::Int { data, nulls }
    }
}

impl AggNum for f64 {
    /// Starts from the first row itself: `0.0 + x` is not `x` bit for bit
    /// when `x` is `-0.0` or a signalling NaN.
    fn sum(acc: f64, x: f64, first: bool) -> f64 {
        if first {
            x
        } else {
            acc + x
        }
    }
    fn order(self, other: f64) -> Ordering {
        cmp_f64(&self, &other)
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn column(data: Vec<f64>, nulls: Option<NullMask>) -> ColumnVec {
        ColumnVec::Float { data, nulls }
    }
}

/// `step(accumulator, x, first)` over the non-NULL rows of `data`, in row
/// order, into one `(accumulator, non-NULL rows)` per group; `first` is
/// set on a group's first such row.
fn fold_groups<T: Copy, A: Copy>(
    data: &[T],
    nulls: Option<&[bool]>,
    gids: Option<&[u32]>,
    n_groups: usize,
    init: A,
    step: impl Fn(A, T, bool) -> A,
) -> Vec<(A, u64)> {
    let feed = |acc: &mut (A, u64), x: T| {
        acc.0 = step(acc.0, x, acc.1 == 0);
        acc.1 += 1;
    };
    let mut accs = vec![(init, 0); n_groups];
    match (gids, nulls) {
        // Null-free: straight loops, a scalar's accumulator in a local.
        (None, None) => {
            let mut acc = accs[0];
            data.iter().for_each(|&x| feed(&mut acc, x));
            accs[0] = acc;
        }
        (Some(gids), None) => {
            for (&x, &g) in data.iter().zip(gids) {
                feed(&mut accs[g as usize], x);
            }
        }
        (_, Some(nulls)) => {
            for k in (0..data.len()).filter(|&k| !nulls[k]) {
                feed(&mut accs[gids.map_or(0, |g| g[k] as usize)], data[k]);
            }
        }
    }
    accs
}

/// One aggregate of a typed slice per group, as `AggState` would compute
/// it row by row, as a column.
fn fold_typed<T: AggNum>(
    func: AggFunc,
    data: &[T],
    nulls: Option<&[bool]>,
    gids: Option<&[u32]>,
    n_groups: usize,
) -> ColumnVec {
    /// NULL for a group without a non-NULL row, else `value`.
    fn finish<A, U: Default>(
        accs: Vec<(A, u64)>,
        value: impl Fn(A, u64) -> U,
    ) -> (Vec<U>, Option<NullMask>) {
        let (n, mut nulls) = (accs.len(), None);
        let mut data = Vec::with_capacity(n);
        for (g, (acc, rows)) in accs.into_iter().enumerate() {
            if rows == 0 {
                nulls.get_or_insert_with(|| NullMask::new(n)).set_null(g);
                data.push(U::default());
            } else {
                data.push(value(acc, rows));
            }
        }
        (data, nulls)
    }
    // A group's extreme moves only to a row strictly beyond it.
    let extreme = |beyond: Ordering| {
        let step = move |acc: T, x: T, first| {
            if first || x.order(acc) == beyond {
                x
            } else {
                acc
            }
        };
        let accs = fold_groups(data, nulls, gids, n_groups, T::default(), step);
        let (data, nulls) = finish(accs, |acc, _| acc);
        T::column(data, nulls)
    };
    match func {
        AggFunc::Count => {
            let accs = fold_groups(data, nulls, gids, n_groups, (), |_, _, _| ());
            let data = accs.into_iter().map(|(_, rows)| rows as i64).collect();
            ColumnVec::Int { data, nulls: None }
        }
        AggFunc::Sum => {
            let accs = fold_groups(data, nulls, gids, n_groups, T::default(), T::sum);
            let (data, nulls) = finish(accs, |acc, _| acc);
            T::column(data, nulls)
        }
        AggFunc::Min => extreme(Ordering::Less),
        AggFunc::Max => extreme(Ordering::Greater),
        AggFunc::Avg => {
            let step = |acc: f64, x: T, _| acc + x.to_f64();
            let accs = fold_groups(data, nulls, gids, n_groups, 0.0, step);
            let (data, nulls) = finish(accs, |acc, rows| acc / rows as f64);
            ColumnVec::Float { data, nulls }
        }
    }
}

/// One aggregate of the `n`-row argument `v` per group, as a column: typed
/// accumulators over `Int` and `Float`; `AggState` row by row is the exact
/// fallback for everything else (`Str`, `Bool`, constants, mixed-type
/// `Vals` and with them SUM's Int→Float promotion).
fn fold_agg(
    func: AggFunc,
    v: &VCol<'_>,
    n: usize,
    gids: Option<&[u32]>,
    n_groups: usize,
) -> ColumnVec {
    match v {
        VCol::Int(data, nulls) => fold_typed(func, data, nulls.as_deref(), gids, n_groups),
        VCol::Float(data, nulls) => fold_typed(func, data, nulls.as_deref(), gids, n_groups),
        _ => {
            let mut states: Vec<AggState> = (0..n_groups).map(|_| AggState::new(func)).collect();
            for k in 0..n {
                states[gids.map_or(0, |g| g[k] as usize)].update(Some(&v.value_at(k)));
            }
            ColumnVec::from_values(states.into_iter().map(AggState::finish).collect())
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation
// ---------------------------------------------------------------------------

/// A vectorized expression result over one batch of rows: typed slices
/// with optional per-row null flags, a broadcast constant, or exact
/// `Value`s as the fallback. A column read through an identity selection
/// borrows its storage; everything else owns its values.
enum VCol<'a> {
    Int(Cow<'a, [i64]>, Option<Vec<bool>>),
    Float(Cow<'a, [f64]>, Option<Vec<bool>>),
    Str(Cow<'a, [String]>, Option<Vec<bool>>),
    Bool(Cow<'a, [bool]>, Option<Vec<bool>>),
    /// One value for every row of the batch.
    Const(Value),
    /// Exact per-row values (mixed types).
    Vals(Vec<Value>),
}

impl VCol<'_> {
    /// The value at batch position `k`.
    fn value_at(&self, k: usize) -> Value {
        fn at<T: Clone>(d: &[T], nulls: &Option<Vec<bool>>, k: usize) -> Option<T> {
            (!nulls.as_ref().is_some_and(|n| n[k])).then(|| d[k].clone())
        }
        match self {
            VCol::Int(d, n) => at(d, n, k).map_or(Value::Null, Value::Int),
            VCol::Float(d, n) => at(d, n, k).map_or(Value::Null, Value::Float),
            VCol::Str(d, n) => at(d, n, k).map_or(Value::Null, Value::Str),
            VCol::Bool(d, n) => at(d, n, k).map_or(Value::Null, Value::Bool),
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
fn vcol_to_column(v: VCol<'_>, n: usize) -> ColumnVec {
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
            data: data.into_owned(),
        },
        VCol::Float(data, nulls) => ColumnVec::Float {
            nulls: mask(nulls, n),
            data: data.into_owned(),
        },
        VCol::Str(data, nulls) => ColumnVec::Str {
            nulls: mask(nulls, n),
            data: data.into_owned(),
        },
        VCol::Bool(data, nulls) => ColumnVec::Bool {
            nulls: mask(nulls, n),
            data: data.into_owned(),
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

/// Expression evaluation over one chunk: what every batch of a
/// `filter_chunk` or `run_aggregate` shares.
struct Eval<'a> {
    chunk: &'a Chunk,
    params: &'a HashMap<String, Value>,
    funcs: &'a FuncRegistry,
    /// The column references bound so far, by address in the expression
    /// tree, each resolved against the chunk once.
    cols: Vec<(&'a ColRef, ColView<'a>)>,
}

impl<'a> Eval<'a> {
    fn new(
        chunk: &'a Chunk,
        params: &'a HashMap<String, Value>,
        funcs: &'a FuncRegistry,
    ) -> Eval<'a> {
        Eval {
            chunk,
            params,
            funcs,
            cols: Vec::new(),
        }
    }

    fn col(&mut self, c: &'a ColRef) -> DbResult<ColView<'a>> {
        if let Some(&(_, view)) = self.cols.iter().find(|(seen, _)| std::ptr::eq(*seen, c)) {
            return Ok(view);
        }
        let view = self.chunk.col(c.resolve(&self.chunk.schema)?);
        self.cols.push((c, view));
        Ok(view)
    }

    /// Bind `expr` to the chunk before any row is looked at: every column
    /// it names resolves, every parameter is bound, every function exists.
    /// A statement that cannot be bound fails whatever the data — over an
    /// empty input too, where nothing is evaluated.
    fn bind(&mut self, expr: &'a ScalarExpr) -> DbResult<()> {
        match expr {
            ScalarExpr::Lit(_) => Ok(()),
            ScalarExpr::Param(name) if self.params.contains_key(name) => Ok(()),
            ScalarExpr::Param(name) => Err(DbError::UnboundParam(name.clone())),
            ScalarExpr::Col(c) => self.col(c).map(drop),
            ScalarExpr::Bin(_, l, r) => self.bind(l).and_then(|()| self.bind(r)),
            ScalarExpr::Not(e) => self.bind(e),
            ScalarExpr::Func(name, _) if !self.funcs.contains(name) => {
                Err(DbError::UnknownFunction(name.clone()))
            }
            ScalarExpr::Func(_, args) => args.iter().try_for_each(|a| self.bind(a)),
        }
    }

    /// Evaluate `expr`, bound, over the batch `rows` of the chunk's
    /// logical rows. An empty batch evaluates nothing.
    fn eval(&mut self, expr: &'a ScalarExpr, rows: Range<usize>) -> DbResult<VCol<'a>> {
        let n = rows.len();
        if n == 0 {
            return Ok(VCol::Vals(Vec::new()));
        }
        match expr {
            ScalarExpr::Lit(v) => Ok(VCol::Const(v.clone())),
            ScalarExpr::Param(name) => self
                .params
                .get(name)
                .cloned()
                .map(VCol::Const)
                .ok_or_else(|| DbError::UnboundParam(name.clone())),
            ScalarExpr::Col(c) => Ok(read_column(self.col(c)?, rows)),
            ScalarExpr::Bin(op, l, r) => {
                let lv = self.eval(l, rows.clone())?;
                let rv = self.eval(r, rows)?;
                combine(*op, &lv, &rv, n)
            }
            ScalarExpr::Not(e) => match self.eval(e, rows)? {
                VCol::Bool(data, nulls) => {
                    Ok(VCol::Bool(data.iter().map(|&b| !b).collect(), nulls))
                }
                VCol::Const(Value::Bool(b)) => Ok(VCol::Const(Value::Bool(!b))),
                VCol::Const(Value::Null) => Ok(VCol::Const(Value::Null)),
                VCol::Const(other) => Err(DbError::Type(format!("NOT applied to {other}"))),
                other => {
                    // Per-row semantics: NULL stays NULL, non-boolean
                    // errors at the first non-null row.
                    let mut out = Vec::with_capacity(n);
                    for v in other.to_vals(n) {
                        match v {
                            Value::Bool(b) => out.push(Value::Bool(!b)),
                            Value::Null => out.push(Value::Null),
                            v => return Err(DbError::Type(format!("NOT applied to {v}"))),
                        }
                    }
                    Ok(VCol::Vals(out))
                }
            },
            ScalarExpr::Func(name, args) => {
                let mut arg_cols = Vec::with_capacity(args.len());
                for a in args {
                    arg_cols.push(self.eval(a, rows.clone())?);
                }
                let mut out = Vec::with_capacity(n);
                let mut call_args = vec![Value::Null; args.len()];
                for k in 0..n {
                    for (s, c) in call_args.iter_mut().zip(&arg_cols) {
                        *s = c.value_at(k);
                    }
                    out.push(self.funcs.call(name, &call_args)?);
                }
                Ok(VCol::Vals(out))
            }
        }
    }
}

/// The batch `rows` of a column as a batch result: the storage slice
/// itself under an identity selection, a gather through the selection
/// otherwise; a null mask becomes per-row flags.
fn read_column<'a>(view: ColView<'a>, rows: Range<usize>) -> VCol<'a> {
    fn read<'a, T: Clone>(data: &'a [T], view: ColView<'a>, rows: Range<usize>) -> Cow<'a, [T]> {
        match view.sel {
            None => Cow::Borrowed(&data[rows]),
            Some(sel) => sel[rows]
                .iter()
                .map(|&i| data[i as usize].clone())
                .collect(),
        }
    }
    let col = view.col;
    let flags = || {
        (col.null_count() > 0).then(|| rows.clone().map(|k| col.is_null(view.base(k))).collect())
    };
    match col {
        ColumnVec::Int { data, .. } => VCol::Int(read(data, view, rows.clone()), flags()),
        ColumnVec::Float { data, .. } => VCol::Float(read(data, view, rows.clone()), flags()),
        ColumnVec::Str { data, .. } => VCol::Str(read(data, view, rows.clone()), flags()),
        ColumnVec::Bool { data, .. } => VCol::Bool(read(data, view, rows.clone()), flags()),
        ColumnVec::Mixed(vals) => VCol::Vals(rows.map(|k| vals[view.base(k)].clone()).collect()),
    }
}

// --- typed kernel plumbing --------------------------------------------------

/// One side of a binary kernel: a slice with null flags, a broadcast
/// scalar, or a broadcast NULL.
enum Side<'v, T> {
    Slice(&'v [T], Option<&'v [bool]>),
    Const(T),
    Null,
}

impl<T> Side<'_, T> {
    /// The value at batch position `k`, `None` for NULL.
    #[inline]
    fn get(&self, k: usize) -> Option<&T> {
        match self {
            Side::Slice(d, nulls) => (!nulls.is_some_and(|n| n[k])).then(|| &d[k]),
            Side::Const(v) => Some(v),
            Side::Null => None,
        }
    }
}

fn int_side<'v>(v: &'v VCol<'_>) -> Option<Side<'v, i64>> {
    match v {
        VCol::Int(d, n) => Some(Side::Slice(d, n.as_deref())),
        VCol::Const(Value::Int(x)) => Some(Side::Const(*x)),
        VCol::Const(Value::Null) => Some(Side::Null),
        _ => None,
    }
}

/// A float-kernel side: accepts Float *and* Int sources (numeric
/// cross-type compares and arithmetic go through `f64`, as in
/// `sql_cmp`/`apply_bin_op`).
fn float_side<'v>(v: &'v VCol<'_>, tmp: &'v mut Vec<f64>) -> Option<Side<'v, f64>> {
    match v {
        VCol::Float(d, n) => Some(Side::Slice(d, n.as_deref())),
        VCol::Int(d, n) => {
            *tmp = d.iter().map(|&x| x as f64).collect();
            Some(Side::Slice(tmp, n.as_deref()))
        }
        VCol::Const(Value::Float(x)) => Some(Side::Const(*x)),
        VCol::Const(Value::Int(x)) => Some(Side::Const(*x as f64)),
        VCol::Const(Value::Null) => Some(Side::Null),
        _ => None,
    }
}

/// Both sides of a float kernel, when at least one operand is a Float
/// and the other is numeric.
fn float_sides<'v>(
    l: &'v VCol<'_>,
    r: &'v VCol<'_>,
    tmp: &'v mut (Vec<f64>, Vec<f64>),
) -> Option<(Side<'v, f64>, Side<'v, f64>)> {
    let is_float = |v: &VCol<'_>| matches!(v, VCol::Float(..) | VCol::Const(Value::Float(_)));
    if !is_float(l) && !is_float(r) {
        return None;
    }
    float_side(l, &mut tmp.0).zip(float_side(r, &mut tmp.1))
}

fn bool_side<'v>(v: &'v VCol<'_>) -> Option<Side<'v, bool>> {
    match v {
        VCol::Bool(d, n) => Some(Side::Slice(d, n.as_deref())),
        VCol::Const(Value::Bool(b)) => Some(Side::Const(*b)),
        VCol::Const(Value::Null) => Some(Side::Null),
        _ => None,
    }
}

fn str_side<'v>(v: &'v VCol<'_>) -> Option<Side<'v, String>> {
    match v {
        VCol::Str(d, n) => Some(Side::Slice(d, n.as_deref())),
        VCol::Const(Value::Str(s)) => Some(Side::Const(s.clone())),
        VCol::Const(Value::Null) => Some(Side::Null),
        _ => None,
    }
}

/// The nullable form of every typed kernel: `f` on each row's two sides,
/// `None` for a NULL one; where `f` returns `None` the row is NULL (flag
/// set, `U::default()` as the value).
fn zip_sides<T, U: Default + Clone>(
    a: &Side<'_, T>,
    b: &Side<'_, T>,
    n: usize,
    f: impl Fn(Option<&T>, Option<&T>) -> Option<U>,
) -> (Cow<'static, [U]>, Option<Vec<bool>>) {
    let mut data = Vec::with_capacity(n);
    let mut nulls: Option<Vec<bool>> = None;
    for k in 0..n {
        let v = f(a.get(k), b.get(k));
        if v.is_none() {
            nulls.get_or_insert_with(|| vec![false; n])[k] = true;
        }
        data.push(v.unwrap_or_default());
    }
    (Cow::Owned(data), nulls)
}

/// [`zip_sides`] for an operator that is NULL when a side is: `f` on the
/// rows where both are not.
fn zip_nullable<T, U: Default + Clone>(
    a: &Side<'_, T>,
    b: &Side<'_, T>,
    n: usize,
    f: impl Fn(&T, &T) -> Option<U>,
) -> (Cow<'static, [U]>, Option<Vec<bool>>) {
    zip_sides(a, b, n, |x, y| x.zip(y).and_then(|(x, y)| f(x, y)))
}

#[inline]
fn cmp_holds(op: BinOp, ord: Ordering) -> bool {
    use Ordering::*;
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

/// `op` on `ord(k)` for every `k` in `0..n`. The operator is matched
/// outside the loops, so that each is a straight loop over its operands.
fn cmp_loop(op: BinOp, n: usize, ord: impl Fn(usize) -> Ordering) -> Vec<bool> {
    use Ordering::*;
    match op {
        BinOp::Eq => (0..n).map(|k| ord(k) == Equal).collect(),
        BinOp::Ne => (0..n).map(|k| ord(k) != Equal).collect(),
        BinOp::Lt => (0..n).map(|k| ord(k) == Less).collect(),
        BinOp::Le => (0..n).map(|k| ord(k) != Greater).collect(),
        BinOp::Gt => (0..n).map(|k| ord(k) == Greater).collect(),
        BinOp::Ge => (0..n).map(|k| ord(k) != Less).collect(),
        _ => unreachable!("comparison operator"),
    }
}

/// The comparison kernel of every element type, under the type's
/// `sql_cmp` order `cmp`: null-free slice × constant and slice × slice
/// are straight loops, every other pairing takes the nullable form.
fn compare<T>(
    op: BinOp,
    a: &Side<'_, T>,
    b: &Side<'_, T>,
    n: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> VCol<'static> {
    let data = match (a, b) {
        (Side::Slice(a, None), Side::Slice(b, None)) => {
            let (a, b) = (&a[..n], &b[..n]);
            cmp_loop(op, n, |k| cmp(&a[k], &b[k]))
        }
        (Side::Slice(a, None), Side::Const(c)) => {
            let a = &a[..n];
            cmp_loop(op, n, |k| cmp(&a[k], c))
        }
        (Side::Const(c), Side::Slice(b, None)) => {
            let b = &b[..n];
            cmp_loop(op.mirror(), n, |k| cmp(&b[k], c))
        }
        _ => {
            let (data, nulls) = zip_nullable(a, b, n, |x, y| Some(cmp_holds(op, cmp(x, y))));
            return VCol::Bool(data, nulls);
        }
    };
    VCol::Bool(Cow::Owned(data), None)
}

/// Combine two batch results under `op` with exact `apply_bin_op`
/// semantics. Typed kernels cover the hot combinations; everything else
/// falls back to a per-row `apply_bin_op` loop (bit-identical by
/// construction, first error in row order).
fn combine(op: BinOp, l: &VCol<'_>, r: &VCol<'_>, n: usize) -> DbResult<VCol<'static>> {
    use BinOp::*;
    let mut tmp = (Vec::new(), Vec::new());
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            // Int × Int stays integral (i64 beyond 2^53 must not round).
            if let (Some(a), Some(b)) = (int_side(l), int_side(r)) {
                return Ok(compare(op, &a, &b, n, i64::cmp));
            }
            // Numeric (mixed Int/Float) through f64, as `sql_cmp`.
            if let Some((a, b)) = float_sides(l, r, &mut tmp) {
                return Ok(compare(op, &a, &b, n, cmp_f64));
            }
            if let (Some(a), Some(b)) = (str_side(l), str_side(r)) {
                return Ok(compare(op, &a, &b, n, String::cmp));
            }
        }
        Add | Sub | Mul | Div => {
            // Int × Int: wrapping arithmetic, division by zero → NULL.
            if let (Some(a), Some(b)) = (int_side(l), int_side(r)) {
                let (data, nulls) = zip_nullable(&a, &b, n, |&x, &y| match op {
                    Add => Some(x.wrapping_add(y)),
                    Sub => Some(x.wrapping_sub(y)),
                    Mul => Some(x.wrapping_mul(y)),
                    _ => (y != 0).then(|| x.wrapping_div(y)),
                });
                return Ok(VCol::Int(data, nulls));
            }
            // Numeric mixed → Float, division by zero → NULL.
            if let Some((a, b)) = float_sides(l, r, &mut tmp) {
                let (data, nulls) = zip_nullable(&a, &b, n, |&x, &y| match op {
                    Add => Some(x + y),
                    Sub => Some(x - y),
                    Mul => Some(x * y),
                    _ => (y != 0.0).then(|| x / y),
                });
                return Ok(VCol::Float(data, nulls));
            }
            // Str + Str concatenates; every other combination (including
            // mismatched types, which must *error* row-wise) → generic.
            if let (Add, Some(a), Some(b)) = (op, str_side(l), str_side(r)) {
                let (data, nulls) = zip_nullable(&a, &b, n, |x, y| Some(format!("{x}{y}")));
                return Ok(VCol::Str(data, nulls));
            }
        }
        And | Or => {
            if let (VCol::Bool(a, None), VCol::Bool(b, None)) = (l, r) {
                let both = a[..n].iter().zip(&b[..n]);
                let data: Vec<bool> = match op {
                    And => both.map(|(&x, &y)| x & y).collect(),
                    _ => both.map(|(&x, &y)| x | y).collect(),
                };
                return Ok(VCol::Bool(Cow::Owned(data), None));
            }
            if let (Some(a), Some(b)) = (bool_side(l), bool_side(r)) {
                // Three-valued, as `apply_bin_op`: FALSE decides AND and
                // TRUE decides OR beside a NULL too.
                let decides = op == Or;
                let (data, nulls) = zip_sides(&a, &b, n, |x, y| match (x, y) {
                    (Some(&x), Some(&y)) => Some(if decides { x || y } else { x && y }),
                    (Some(&x), None) | (None, Some(&x)) if x == decides => Some(decides),
                    _ => None,
                });
                return Ok(VCol::Bool(data, nulls));
            }
        }
    }
    // Exact fallback: per-row `apply_bin_op` in batch order.
    let (lv, rv) = (l.to_vals(n), r.to_vals(n));
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        out.push(apply_bin_op(op, &lv[k], &rv[k])?);
    }
    Ok(VCol::Vals(out))
}

/// The workspace's reference evaluator: `tests/engine_reference.rs` holds
/// the engine to it over generated queries, the unit tests below over
/// hand-picked ones. It names this crate `super::minidb`.
#[cfg(test)]
#[path = "../../../tests/support/naive.rs"]
mod naive;
#[cfg(test)]
use crate as minidb;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::QueryResult;
    use crate::schema::{Column, DataType};
    use crate::sql::parse;

    fn run(db: &Database, funcs: &FuncRegistry, plan: &LogicalPlan) -> DbResult<QueryResult> {
        Executor::new(db, funcs).execute(plan, &HashMap::new())
    }

    /// Run `plan` and hold its rows to the naive evaluator's — in order,
    /// unless a join or a grouping leaves the order to the engine — and
    /// the unmaterialized result to the materialized one.
    fn assert_plan_agrees(
        db: &Database,
        funcs: &FuncRegistry,
        plan: &LogicalPlan,
        label: &str,
    ) -> QueryResult {
        let reference = naive::Naive {
            db,
            funcs,
            params: &HashMap::new(),
        };
        let (got, want) = match (run(db, funcs, plan), reference.run(plan)) {
            (Ok(got), Ok((_, want))) => (got, want),
            (Err(e), Err(_)) => panic!("engine and reference both error on {label}: {e}"),
            (got, want) => panic!("one errors on {label}: engine={got:?} reference={want:?}"),
        };
        let mut engine_ordered = false;
        plan.walk(&mut |p| {
            engine_ordered |= match p {
                LogicalPlan::Join { .. } => true,
                LogicalPlan::Aggregate { group_by, .. } => !group_by.is_empty(),
                _ => false,
            }
        });
        // `-0.0` and `0.0` are one number; `Value`'s `Eq` tells them apart.
        let comparable = |rows: &[Row]| {
            let unsigned = |v: &Value| match v {
                Value::Float(f) => Value::Float(f + 0.0),
                v => v.clone(),
            };
            let unsigned = |row: &Row| row.iter().map(unsigned).collect();
            let mut rows: Vec<Row> = rows.iter().map(unsigned).collect();
            if engine_ordered {
                rows.sort();
            }
            rows
        };
        assert_eq!(comparable(&got.rows), comparable(&want), "rows for {label}");

        let set = Executor::new(db, funcs).run(plan, &HashMap::new()).unwrap();
        assert_eq!(
            (set.len(), set.work()),
            (got.rows.len(), got.work),
            "{label}"
        );
        assert_eq!(**set.schema(), got.schema, "{label}");
        for (i, row) in got.rows.iter().enumerate() {
            assert_eq!(&set.row(i), row, "row {i} for {label}");
            for (col, v) in row.iter().enumerate() {
                assert_eq!(&set.value(i, col), v, "value {i}, {col} for {label}");
            }
        }
        got
    }

    fn assert_engines_agree(db: &Database, sql: &str) -> QueryResult {
        assert_plan_agrees(
            db,
            &FuncRegistry::with_builtins(),
            &parse(sql).unwrap(),
            sql,
        )
    }

    fn test_db() -> Database {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
            Column::new("o_amount", DataType::Float),
            Column::with_width("o_note", DataType::Str, 8),
            Column::new("o_discount", DataType::Float),
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
                // NULLs, negatives, and `-0.0` as the first non-NULL value
                // of customer 1's group (a sum started from `0.0` would
                // lose its sign).
                match i % 5 {
                    0 => Value::Null,
                    1 => Value::Float(-0.0),
                    r => Value::Float(r as f64 * 0.25 - 0.6),
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
    fn a_scan_shares_its_tables_schema() {
        // Every execution of an unaliased scan, filtered or through the
        // index, returns the one schema its table built; an alias builds
        // its own, equal but for the qualifier.
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let schema = |sql: &str| {
            let plan = parse(sql).unwrap();
            let set = Executor::new(&db, &funcs).run(&plan, &HashMap::new());
            let set = set.unwrap();
            assert_eq!(**set.schema(), *plan.output_schema(&db, &funcs).unwrap());
            set.schema().clone()
        };
        for sql in [
            "select * from orders",
            "select * from orders where o_id = 3",
            "select * from orders where o_amount > 1.0",
        ] {
            assert!(Arc::ptr_eq(&schema(sql), &schema(sql)), "{sql}");
            assert!(Arc::ptr_eq(&schema(sql), &schema("select * from orders")));
        }
        let aliased = schema("select * from orders o");
        assert!(!Arc::ptr_eq(&aliased, &schema("select * from orders o")));
        assert_eq!(aliased.column(0).full_name(), "o.o_id");
        assert_eq!(
            schema("select * from orders orders").column(0).full_name(),
            "orders.o_id"
        );
    }

    #[test]
    fn a_row_past_a_limit_is_refused_not_read() {
        // The limited scan still holds the table's columns, 100 rows long.
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let plan = parse("select * from orders limit 7").unwrap();
        let set = Executor::new(&db, &funcs).run(&plan, &HashMap::new());
        let set = Arc::new(set.unwrap());
        assert_eq!((set.len(), set.payload_bytes()), (7, 7 * 40));
        let last = RowRef::all(&set).last().unwrap();
        assert_eq!((last.value(0), last.values()), (Value::Int(6), set.row(6)));
        assert_eq!(RowRef::all(&set).count(), 7);
        let refused =
            |read: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(read)).is_err();
        assert!(refused(&|| drop(set.value(7, 0))));
        assert!(refused(&|| drop(set.row(7))));
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
            // Every function over a NULL-bearing Int and a NULL-bearing
            // Float argument, scalar and grouped by a null-free key.
            "select count(o_customer_sk) as n, sum(o_customer_sk) as s, min(o_customer_sk) as a, \
             max(o_customer_sk) as b, avg(o_customer_sk) as c from orders",
            "select count(o_discount) as n, sum(o_discount) as s, min(o_discount) as a, \
             max(o_discount) as b, avg(o_discount) as c from orders",
            "select o_id, count(o_customer_sk) as n, sum(o_customer_sk) as s, \
             min(o_customer_sk) as a, max(o_customer_sk) as b, avg(o_customer_sk) as c \
             from orders group by o_id",
            "select o_note, count(o_discount) as n, sum(o_discount) as s, min(o_discount) as a, \
             max(o_discount) as b, avg(o_discount) as c from orders group by o_note",
            // A NULL-bearing key (the `Value` path), its first group's sum
            // starting at `-0.0`.
            "select o_customer_sk, sum(o_discount) as s, count(o_note) as n, min(o_note) as a \
             from orders group by o_customer_sk",
            // Over a filtered chunk and over a joined one: the argument and
            // the key are read through a selection.
            "select o_customer_sk, count(*) as n, sum(o_id) as s, max(o_amount) as b \
             from orders where o_id > 20 and o_customer_sk > 2 group by o_customer_sk",
            "select c_birth_year, count(*) as n, sum(o_amount) as s, avg(o_discount) as c, \
             min(o_id) as a from orders join customer on o_customer_sk = c_customer_sk \
             where o_id > 5 group by c_birth_year",
            "select sum(o_id) as s, avg(o_amount) as c from orders \
             join customer on o_customer_sk = c_customer_sk",
            // A scalar aggregate over empty input still emits one row.
            "select count(*) as n, count(o_id) as m, sum(o_id) as s, min(o_amount) as a, \
             max(o_note) as b, avg(o_discount) as c from orders where o_id < 0",
            // Arguments that are not bare columns.
            "select sum(o_id * 2) as s, sum(o_amount * 2.0) as t, count(o_id + o_customer_sk) as n, \
             max(o_id / (o_id - 50)) as b from orders",
        ] {
            assert_engines_agree(&db, sql);
        }
        let r = assert_engines_agree(
            &db,
            "select sum(o_discount) as s from orders where o_id = 1",
        );
        assert_eq!(r.rows, [[Value::Float(-0.0)]], "the sum of one -0.0");
    }

    #[test]
    fn group_keys_at_the_extremes_and_a_table_that_grows() {
        let keys = [i64::MAX, -1, i64::MIN, 0, -1, i64::MAX, i64::MIN + 1, 0, -7];
        let db = key_tables(&[("a", &ints(&keys))]);
        let r = assert_engines_agree(
            &db,
            "select k, count(*) as n, sum(k) as s from a group by k",
        );
        let first_seen = [i64::MAX, -1, i64::MIN, 0, i64::MIN + 1, -7];
        let got: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
        assert_eq!(got, ints(&first_seen).iter().collect::<Vec<_>>());

        // 5 000 distinct keys, each seen twice, in an order that is not
        // the hash order: the table doubles ten times.
        let mut groups = IntGroups::new();
        let key = |g: u32| (g as i64).wrapping_mul(0x5851_F42D_4C95_7F2D);
        let gids: Vec<u32> = (0..10_000).map(|k| groups.gid(key(k % 5_000))).collect();
        assert!(gids.iter().zip(0..).all(|(&g, k)| g == k % 5_000));
        assert_eq!(groups.keys, (0..5_000).map(key).collect::<Vec<_>>());
        assert_eq!(groups.slots.len(), 16 << 10);
    }

    #[test]
    fn int_sum_wraps_on_both_engines() {
        // Under the debug profile an `a + b` here panics.
        const MAX: i64 = i64::MAX;
        let db = key_tables(&[("a", &ints(&[MAX, 1, 5, MAX])), ("b", &ints(&[MAX, 5]))]);
        for (sql, want) in [
            (
                "select sum(k) as s from a",
                MAX.wrapping_add(6).wrapping_add(MAX),
            ),
            (
                "select k, sum(k) as s from a group by k",
                MAX.wrapping_add(MAX),
            ),
            (
                "select sum(a.k) as s from a join b on a.k = b.k",
                MAX.wrapping_add(MAX).wrapping_add(5),
            ),
        ] {
            let r = assert_engines_agree(&db, sql);
            assert_eq!(r.rows[0].last(), Some(&Value::Int(want)), "{sql}");
        }
    }

    #[test]
    fn null_join_keys_never_match_but_group_together() {
        // o_customer_sk has NULLs: join keys must drop them, GROUP BY
        // must keep them as one group.
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
        assert_engines_agree(
            &db2,
            "select sum(k) as s, count(k) as n, avg(k) as a from t",
        );
        // Conjuncts over a null-free and a nullable column, both operand
        // orders and a column-to-column compare, across batch boundaries;
        // then the same under OR, and through a selection.
        let t = db2
            .create_table(
                "w",
                Schema::new(vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                    Column::new("f", DataType::Float),
                ]),
            )
            .unwrap();
        for i in 0..(3 * BATCH_SIZE as i64 + 17) {
            let b = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i % 50)
            };
            t.insert(vec![Value::Int(i % 40), b, Value::Float((i % 9) as f64)])
                .unwrap();
        }
        db2.analyze_all();
        for pred in [
            "a < 20 and b < 25",
            "20 > a and 25 > b",
            "a < 20 or b < 25",
            "a <= b and f <> 3.0",
            "a >= b or f = a",
            "a = 7 and not b > 10",
            "a <> b and f >= 2.5 and a + 1 > b / 2",
            // `f - 3.0` is zero on every ninth row: NULL, not an infinity.
            "f / (f - 3.0) > 1.0 or a < 5",
        ] {
            let sql = format!("select * from w where {pred}");
            assert!(assert_engines_agree(&db2, &sql).row_count() > 0, "{sql}");
            assert_engines_agree(
                &db2,
                &format!("select count(*) as n, sum(b) as s from w where f > 1.0 and ({pred})"),
            );
        }
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
            // An extreme leaves aside what it cannot compare with.
            "select min(a) as lo, max(a) as hi, count(a) as n, sum(b) as s from m",
        ] {
            assert_engines_agree(&db, sql);
        }
        // SUM over a column mixing Int and Float promotes at the first
        // Float and stays there.
        let mut db = Database::new();
        let t = db
            .create_table("p", Schema::new(vec![Column::new("v", DataType::Int)]))
            .unwrap();
        for v in [
            Value::Int(i64::MAX),
            Value::Int(2),
            Value::Null,
            Value::Float(0.5),
            Value::Int(3),
        ] {
            t.insert(vec![v]).unwrap();
        }
        db.analyze_all();
        // No SQL column mixes types, so no reference says what this is.
        let plan = parse("select sum(v) as s, avg(v) as a from p").unwrap();
        let r = run(&db, &FuncRegistry::with_builtins(), &plan).unwrap();
        let promoted = i64::MAX.wrapping_add(2) as f64 + 0.5 + 3.0;
        assert_eq!(r.rows[0][0], Value::Float(promoted));
    }

    #[test]
    fn errors_match_the_row_engine() {
        // Each statement fails on the engine with the error stated here,
        // and on the reference too.
        fn assert_fails(db: &Database, plan: &LogicalPlan, is: fn(&DbError) -> bool) {
            let funcs = FuncRegistry::with_builtins();
            let err = run(db, &funcs, plan).unwrap_err();
            assert!(is(&err), "{plan:?}: {err}");
            let params = HashMap::new();
            let reference = naive::Naive {
                db,
                funcs: &funcs,
                params: &params,
            };
            assert!(reference.run(plan).is_err(), "{plan:?}");
        }
        let db = test_db();
        let unbound = parse("select * from orders where o_id = :k").unwrap();
        assert_fails(&db, &unbound, |e| matches!(e, DbError::UnboundParam(_)));
        let not_int = parse("select * from orders where not o_id").unwrap();
        assert_fails(&db, &not_int, |e| matches!(e, DbError::Type(_)));
        // A statement is bound before it runs: an unknown column or an
        // unbound parameter fails over an empty input as over a full one,
        // though nothing is evaluated there.
        let unknown = || ScalarExpr::eq(ScalarExpr::col("nosuch"), ScalarExpr::lit(1i64));
        let unbound = || ScalarExpr::eq(ScalarExpr::col("o_id"), ScalarExpr::param("k"));
        for input in [
            LogicalPlan::scan("orders"),
            LogicalPlan::scan("orders").select(parse_pred("o_id < 0")),
        ] {
            let plan = input.clone().select(unknown());
            assert_fails(&db, &plan, |e| matches!(e, DbError::UnknownColumn(_)));
            let plan = input.select(ScalarExpr::and(parse_pred("o_amount > 1.0"), unbound()));
            assert_fails(&db, &plan, |e| matches!(e, DbError::UnboundParam(_)));
        }
        // `k = k` finds its two sides in the inputs' schemas and is
        // ambiguous in the joined one: the typed hash join proves the
        // keys equal and must still raise.
        let db = key_tables(&[("a", &ints(&[1, 2])), ("b", &ints(&[2, 3]))]);
        let plan = parse("select * from a join b on k = k").unwrap();
        assert_fails(&db, &plan, |e| matches!(e, DbError::AmbiguousColumn(_)));
    }

    #[test]
    fn order_by_ranks_rows_as_equality_compares_them() {
        // `-0.0 = 0.0` and `1 = 1.0`: rows `=` calls equal tie on that key
        // and the next one decides, on a Float column and on a `Mixed` one
        // (an Int column holding Floats). `total_cmp` ranked `-0.0` first.
        let mut db = Database::new();
        let cols = vec![
            Column::new("x", DataType::Float),
            Column::new("m", DataType::Int),
            Column::new("y", DataType::Int),
        ];
        let t = db.create_table("t", Schema::new(cols)).unwrap();
        for (x, m, y) in [
            (0.0, Value::Float(1.0), 1),
            (-0.0, Value::Int(1), 2),
            (-0.0, Value::Float(0.5), 0),
            (0.0, Value::Null, 3),
        ] {
            t.insert(vec![Value::Float(x), m, Value::Int(y)]).unwrap();
        }
        db.analyze_all();
        let ys = |sql: &str| -> Vec<Value> {
            let r = assert_engines_agree(&db, sql);
            r.rows.iter().map(|row| row[2].clone()).collect()
        };
        assert_eq!(ys("select * from t order by x, y"), ints(&[0, 1, 2, 3]));
        assert_eq!(
            ys("select * from t order by x desc, y desc"),
            ints(&[3, 2, 1, 0])
        );
        assert_eq!(ys("select * from t order by m, y"), ints(&[3, 0, 1, 2]));
        assert_eq!(
            ys("select * from t order by m desc, y"),
            ints(&[1, 2, 0, 3])
        );

        // Past 2^53 an Int and a Float compare exactly, so that the order
        // stays one: `2^53 = 2^53.0 = 2^53 + 1` under `sql_cmp`, but the
        // two Ints differ.
        const TWO_53: i64 = 1 << 53;
        let (a, b, c) = (
            Value::Int(TWO_53),
            Value::Float(TWO_53 as f64),
            Value::Int(TWO_53 + 1),
        );
        assert_eq!(sort_cmp(&a, &b), Ordering::Equal);
        assert_eq!(sort_cmp(&b, &c), Ordering::Less);
        assert_eq!(sort_cmp(&c, &b), Ordering::Greater);
        assert_eq!(
            sort_cmp(&Value::Int(i64::MAX), &Value::Float(i64::MAX as f64)),
            Ordering::Less
        );
        assert_eq!(
            sort_cmp(&Value::Float(-0.0), &Value::Int(0)),
            Ordering::Equal
        );
        assert_eq!(sort_cmp(&Value::Null, &Value::Bool(false)), Ordering::Less);
        assert_eq!(
            sort_cmp(&Value::str("a"), &Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
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

    /// One-column tables `name(k)` without indexes, so that a join on `k`
    /// takes the hash path whatever the sizes.
    fn key_tables(tables: &[(&str, &[Value])]) -> Database {
        let mut db = Database::new();
        for (name, keys) in tables {
            let t = db
                .create_table(*name, Schema::new(vec![Column::new("k", DataType::Int)]))
                .unwrap();
            for k in *keys {
                t.insert(vec![k.clone()]).unwrap();
            }
        }
        db.analyze_all();
        db
    }

    fn ints(keys: &[i64]) -> Vec<Value> {
        keys.iter().map(|&k| Value::Int(k)).collect()
    }

    /// `a join b on a.k = b.k` and its mirror image (so the smaller
    /// table, the build side, is once the left and once the right input).
    fn assert_key_joins_agree(db: &Database) -> QueryResult {
        assert_engines_agree(db, "select * from b join a on a.k = b.k");
        assert_engines_agree(db, "select * from a join b on a.k = b.k")
    }

    #[test]
    fn duplicate_build_keys_match_in_build_insertion_order() {
        let keys = [3i64, 1, 3, 2, 3, 1];
        let (table, shift) = BuildTable::hashed(keys.len(), |b| hash_i64(keys[b]));
        let probes = [3i64, 7, 1];
        let (b, p) = table.probe(
            probes.len(),
            |p| Some((hash_i64(probes[p]) >> shift) as usize),
            |b, p| keys[b] == probes[p],
        );
        assert_eq!((b, p), (vec![0, 2, 4, 1, 5], vec![0, 0, 0, 2, 2]));

        let db = key_tables(&[("a", &ints(&keys)), ("b", &ints(&[3, 7, 1, 3, 2, 2, 9]))]);
        let r = assert_key_joins_agree(&db);
        assert_eq!(r.row_count(), 3 + 2 + 3 + 1 + 1);
    }

    #[test]
    fn keys_sharing_a_bucket_do_not_match_each_other() {
        // Four build rows make eight buckets; all eight keys hash to the
        // first of them, so the four build rows are one chain.
        let colliding: Vec<i64> = (0i64..)
            .filter(|&k| hash_i64(k) >> 61 == 0)
            .take(8)
            .collect();
        let (table, shift) = BuildTable::hashed(4, |b| hash_i64(colliding[b]));
        assert_eq!(table.head, [0, NIL, NIL, NIL, NIL, NIL, NIL, NIL]);
        assert_eq!(table.next, [1, 2, 3, NIL]);
        let (b, p) = table.probe(
            8,
            |p| Some((hash_i64(colliding[p]) >> shift) as usize),
            |b, p| colliding[b] == colliding[p],
        );
        assert_eq!((b, p), (vec![0, 1, 2, 3], vec![0, 1, 2, 3]));
        let db = key_tables(&[("a", &ints(&colliding[..4])), ("b", &ints(&colliding))]);
        let r = assert_key_joins_agree(&db);
        assert_eq!(r.row_count(), 4);
        assert!(r.rows.iter().all(|row| row[0] == row[1]));
    }

    #[test]
    fn extreme_int_keys_join() {
        let keys = ints(&[i64::MIN, -1, 0, i64::MAX]);
        let probes = ints(&[i64::MAX, 0, 1, -1, i64::MIN, i64::MIN + 1, 0]);
        let db = key_tables(&[("a", &keys), ("b", &probes)]);
        assert_eq!(assert_key_joins_agree(&db).row_count(), 5);
    }

    #[test]
    fn empty_build_and_probe_sides_join_to_nothing() {
        let db = key_tables(&[("a", &[]), ("b", &ints(&[1, 2, 3]))]);
        assert_eq!(assert_key_joins_agree(&db).row_count(), 0);
        assert_engines_agree(&db, "select * from a x join a y on x.k = y.k");
        // Empty through a selection rather than an empty table, on either
        // side and on both.
        let none = || LogicalPlan::scan_as("b", "x").select(parse_pred("x.k < 0"));
        let on = || ScalarExpr::eq(ScalarExpr::col("x.k"), ScalarExpr::col("y.k"));
        let funcs = FuncRegistry::with_builtins();
        for (plan, label) in [
            (
                none().join(LogicalPlan::scan_as("b", "y"), on()),
                "empty ⋈ b",
            ),
            (
                LogicalPlan::scan_as("b", "y").join(none(), on()),
                "b ⋈ empty",
            ),
            (
                none().join(LogicalPlan::scan_as("a", "y"), on()),
                "empty ⋈ empty",
            ),
        ] {
            assert_eq!(assert_plan_agrees(&db, &funcs, &plan, label).row_count(), 0);
        }
    }

    /// The predicate of `select * from t x where <pred>`.
    fn parse_pred(pred: &str) -> ScalarExpr {
        match parse(&format!("select * from t x where {pred}")).unwrap() {
            LogicalPlan::Select { pred, .. } => pred,
            other => panic!("expected a selection, got {other:?}"),
        }
    }

    #[test]
    fn build_side_carrying_a_selection_vector_joins_in_selection_order() {
        let a: Vec<i64> = (0..40).map(|i| i % 5).collect();
        let b: Vec<i64> = (0..90).map(|i| i % 9).collect();
        let db = key_tables(&[("a", &ints(&a)), ("b", &ints(&b))]);
        let funcs = FuncRegistry::with_builtins();
        let on = || ScalarExpr::eq(ScalarExpr::col("x.k"), ScalarExpr::col("y.k"));
        // A filtered build side: its selection skips rows.
        let filtered = LogicalPlan::scan_as("a", "x")
            .select(parse_pred("x.k > 1"))
            .join(LogicalPlan::scan_as("b", "y"), on());
        let r = assert_plan_agrees(&db, &funcs, &filtered, "filtered build side");
        assert_eq!(r.row_count(), 3 * 8 * 10);
        // A sorted one: its selection is not monotone, and duplicates
        // must come out in sorted (= insertion) order.
        let sorted = LogicalPlan::scan_as("b", "y").join(
            LogicalPlan::scan_as("a", "x").order_by(vec![(ColRef::parse("x.k"), SortDir::Desc)]),
            on(),
        );
        assert_plan_agrees(&db, &funcs, &sorted, "sorted build side");
        // Both sides selected, and the output limited.
        let both = LogicalPlan::scan_as("a", "x")
            .select(parse_pred("x.k < 4"))
            .join(
                LogicalPlan::scan_as("b", "y").select(parse_pred("y.k > 2")),
                on(),
            )
            .limit(7);
        let r = assert_plan_agrees(&db, &funcs, &both, "both sides selected");
        assert_eq!(r.row_count(), 7);
    }

    #[test]
    fn null_and_mixed_type_keys_go_through_value_equality() {
        let a = [Value::Null, Value::Int(1), Value::Null, Value::Int(2)];
        let b = [
            Value::Int(1),
            Value::Null,
            Value::Int(2),
            Value::Int(2),
            Value::str("1"),
            Value::Float(1.0),
            Value::str("x"),
        ];
        let db = key_tables(&[("a", &a), ("b", &b), ("c", &b[3..])]);
        // Int-with-NULLs against Mixed: NULL pairs with NULL as a
        // candidate and the residual drops it; 1 = 1.0 as the predicate
        // has it (`sql_cmp`), and neither is '1'.
        let r = assert_key_joins_agree(&db);
        assert_eq!(r.row_count(), 2 + 2);
        assert!(r.rows.iter().all(|row| !row[0].is_null()));
        // Mixed against Mixed: 2 twice, '1', 1.0 and 'x' join themselves,
        // and 1 joins 1.0.
        let r = assert_engines_agree(&db, "select * from b join c on b.k = c.k");
        assert_eq!(r.row_count(), 2 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn access_paths_answer_equality_as_the_predicate_does() {
        // `sql_cmp` compares an Int and a Float numerically; `Value`
        // identity, which the hash table, the index and the index join
        // key by, ranks them apart. Each path is held to the same
        // predicate written so that no access path applies.
        let mut db = Database::new();
        for (name, col, dtype, rows) in [
            ("a", "ai", DataType::Int, 4),
            ("b", "bf", DataType::Float, 4),
            ("c", "ci", DataType::Int, 100),
            ("z", "zf", DataType::Float, 1),
        ] {
            let t = db
                .create_table(name, Schema::new(vec![Column::new(col, dtype)]))
                .unwrap();
            for i in 0..rows {
                let v = match dtype {
                    DataType::Float if name == "z" => Value::Float(-0.0),
                    DataType::Float => Value::Float(i as f64),
                    _ => Value::Int(i),
                };
                t.insert(vec![v]).unwrap();
            }
        }
        db.table_mut("c").unwrap().set_primary_key("ci").unwrap();
        // An index files a NULL like any value; `= NULL` holds on no row.
        let n = Schema::new(vec![Column::new("ni", DataType::Int)]);
        let t = db.create_table("n", n).unwrap();
        t.create_index("ni").unwrap();
        for v in [Value::Int(1), Value::Null, Value::Null] {
            t.insert(vec![v]).unwrap();
        }
        db.analyze_all();
        for (path, fast, plain, rows) in [
            (
                "hash join",
                "select * from a join b on ai = bf",
                "select * from a join b on ai + 0 = bf",
                4,
            ),
            (
                "index",
                "select * from c where ci = 1.0",
                "select * from c where ci + 0 = 1.0",
                1,
            ),
            (
                "index join",
                "select * from b join c on bf = ci",
                "select * from b join c on bf = ci + 0",
                4,
            ),
            (
                "hash join, the two zeros",
                "select * from z join b on zf = bf",
                "select * from z join b on zf + 0 = bf",
                1,
            ),
            (
                "index, NULL key",
                "select * from n where ni = null",
                "select * from n where ni + 0 = null",
                0,
            ),
        ] {
            let (fast, plain) = (
                assert_engines_agree(&db, fast),
                assert_engines_agree(&db, plain),
            );
            assert_eq!(fast.rows, plain.rows, "{path}");
            assert_eq!(fast.row_count(), rows, "{path}");
        }
    }

    /// A chunk of one null-free Int column, read through `sel` if given.
    fn key_chunk(keys: &[i64], sel: Option<&[u32]>) -> Chunk {
        let col = ColumnVec::Int {
            data: keys.to_vec(),
            nulls: None,
        };
        let schema = Arc::new(Schema::new(vec![Column::new("k", DataType::Int)]));
        let mut chunk = Chunk::dense(schema, vec![Arc::new(col)], keys.len());
        if let Some(sel) = sel {
            chunk.select(sel.to_vec());
        }
        chunk
    }

    /// `hash_candidates` on the two key columns against a double loop —
    /// the same pairs, probe-major, a probe row's in build order — on the
    /// path `dense` says.
    fn assert_candidates(build: &Chunk, probe: &Chunk, dense: bool, label: &str) {
        let (bk, pk) = (build.col(0), probe.col(0));
        let b_keys = (0..build.len).map(|b| bk.get(b).as_i64().unwrap());
        let range = dense_range(b_keys, build.len + probe.len);
        assert_eq!(range.is_some(), dense, "path of {label}");
        let (mut want_b, mut want_p) = (Vec::new(), Vec::new());
        for p in 0..probe.len {
            for b in (0..build.len).filter(|&b| bk.get(b) == pk.get(p)) {
                want_b.push(b as u32);
                want_p.push(p as u32);
            }
        }
        let (got, typed) = hash_candidates(build, 0, probe, 0);
        assert!(typed, "{label}");
        assert_eq!(got, (want_b, want_p), "{label}");
    }

    #[test]
    fn candidate_pairs_match_a_double_loop_on_both_typed_paths() {
        let dense = |build: &[i64], probe: &[i64], label: &str| {
            assert_candidates(
                &key_chunk(build, None),
                &key_chunk(probe, None),
                true,
                label,
            )
        };
        let hashed = |build: &[i64], probe: &[i64], label: &str| {
            assert_candidates(
                &key_chunk(build, None),
                &key_chunk(probe, None),
                false,
                label,
            )
        };
        dense(&[3, 1, 3, 2, 3, 1], &[3, 7, 1, 3, 2], "duplicates");
        dense(&[-5, -3, -5, 2, 0], &[2, -5, -4, 0, -3, -5], "negative min");
        // 4..=9 with a gap at 6 and 7; probes below, above and in the gap.
        dense(
            &[4, 5, 8, 9],
            &[3, 6, 10, 7, i64::MIN, i64::MAX, 4, 9],
            "misses",
        );
        dense(&[7], &[7, 6, 8, 7], "a single build row");
        hashed(&[], &[1, 2, 3], "an empty build side");
        hashed(&[], &[], "two empty sides");
        // Three build and five probe rows: up to sixteen buckets are dense.
        let probe = [0, 5, 15, 16, 7];
        dense(&[0, 5, 15], &probe, "the widest dense range");
        hashed(&[0, 5, 16], &probe, "one key wider");
        // The full range: `max - min` fits a `u64`, the width does not.
        let extremes = [i64::MIN, -1, 0, i64::MAX];
        hashed(
            &extremes,
            &[i64::MAX, 0, 1, -1, i64::MIN, i64::MIN + 1, 0],
            "extremes",
        );
        hashed(&[i64::MAX, i64::MIN], &extremes, "the widest range");

        // A build side behind a selection (every seventh row of 0..700, in
        // an order that is not the storage order), probed by foreign keys.
        let stored: Vec<i64> = (0..700).collect();
        let sel: Vec<u32> = (0..700).rev().step_by(7).collect();
        let fks: Vec<i64> = (0..2_000).map(|i| (i * i) % 900).collect();
        let build = key_chunk(&stored, Some(&sel));
        assert_candidates(&build, &key_chunk(&fks, None), true, "selected, dense");
        let spread: Vec<i64> = stored.iter().map(|k| k * 1_000).collect();
        let fks: Vec<i64> = fks.iter().map(|k| k * 1_000).collect();
        let build = key_chunk(&spread, Some(&sel));
        assert_candidates(&build, &key_chunk(&fks, None), false, "selected, hashed");
        // Both sides selected.
        let probe = key_chunk(&fks, Some(&[5, 1_999, 0, 5, 700]));
        assert_candidates(&build, &probe, false, "both sides selected");

        // Batches: a partial last one, and none, one in twenty and all of
        // the probe rows matching, with duplicates on the build side.
        let n = 3 * BATCH_SIZE as i64 + 17;
        let build: Vec<i64> = (0..200).map(|i| i % 160).collect();
        for (step, offset, label) in [(1, 1_000, "none"), (20, 0, "5 %"), (1, 0, "all")] {
            let probe: Vec<i64> = (0..n)
                .map(|i| {
                    if i % step == 0 {
                        i % 160 + offset
                    } else {
                        -1 - i
                    }
                })
                .collect();
            dense(&build, &probe, &format!("{label} match, dense"));
            let sparse = |keys: &[i64]| keys.iter().map(|k| k * 1_000).collect::<Vec<_>>();
            let label = format!("{label} match, hashed");
            hashed(&sparse(&build), &sparse(&probe), &label);
        }
    }

    #[test]
    fn rejected_inl_join_runs_its_outer_side_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let db = test_db();
        let calls = Arc::new(AtomicUsize::new(0));
        let mut funcs = FuncRegistry::with_builtins();
        let counter = calls.clone();
        funcs.register("bump", DataType::Int, move |args| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(args[0].clone())
        });
        // `customer` is indexed on the join key, so the INL attempt runs
        // the outer side (100 rows), finds it larger than half of
        // `customer` (10 rows) and falls through to the hash join.
        let bumped = ScalarExpr::Func("bump".into(), vec![ScalarExpr::col("o_id")]);
        let plan = LogicalPlan::scan("orders")
            .select(ScalarExpr::bin(BinOp::Ge, bumped, ScalarExpr::lit(0i64)))
            .join(
                LogicalPlan::scan("customer"),
                ScalarExpr::eq(
                    ScalarExpr::col("o_customer_sk"),
                    ScalarExpr::col("c_customer_sk"),
                ),
            );
        let r = run(&db, &funcs, &plan).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 100, "once per outer row");
        assert_eq!(r.row_count(), 100 - 15, "every order with a customer");
    }
}
