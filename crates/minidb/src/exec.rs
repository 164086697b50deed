//! Physical execution of logical plans.
//!
//! The executor runs a plan to completion and *accounts* the work done
//! per operator, split into the portion that happens **before the first
//! output row** (blocking work: hash-build, aggregation, sorting) and the
//! total. The connection that runs the plan derives `C^F_Q` / `C^L_Q` —
//! time to first and last row — from these counters at its per-row price
//! ([`ExecWork::first_row_ns`], [`ExecWork::total_ns`]); nothing in this
//! crate knows a price.
//!
//! [`Executor::run`] returns the result as the engine left it, a columnar
//! [`ResultSet`]; [`Executor::execute`] is `run` followed by
//! [`ResultSet::rows`], for callers that want `Vec<Row>`.
//!
//! Physical strategies implemented:
//! * index lookups for equality predicates over indexed base-table scans,
//! * hash join for equi-joins (build on the smaller side), nested-loop
//!   join otherwise,
//! * hash aggregation, full sort for `ORDER BY`.
//!
//! Two data planes share this interface (see [`ExecEngine`]): the
//! vectorized columnar engine ([`crate::vexec`], the default) and the
//! original row-at-a-time interpreter kept as its differential reference.
//! Both produce bit-identical results and [`ExecWork`] counters; only
//! wall-clock speed differs.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::expr::{AggFunc, BinOp, ScalarExpr};
use crate::func::FuncRegistry;
use crate::plan::{AggItem, LogicalPlan, SortDir};
use crate::schema::{DataType, Schema};
use crate::value::{Row, Value};
use crate::vexec::ResultSet;
use std::collections::HashMap;

/// Which physical data plane executes queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecEngine {
    /// Vectorized execution over columnar storage (selection vectors,
    /// typed kernels, late materialization). The default.
    #[default]
    Columnar,
    /// The original row-at-a-time interpreter — the differential
    /// reference the columnar engine is tested against. Selected only
    /// below the configuration layer ([`Executor::with_engine`]).
    Row,
}

/// Rows produced by an operator: either borrowed straight from table
/// storage (scans are zero-copy) or owned by the pipeline. Dereferences
/// to `[Row]`; ownership is forced only at operator boundaries that
/// reorder or rewrite rows.
pub(crate) enum RowsBuf<'a> {
    /// A borrowed slice of the table's row storage.
    Borrowed(&'a [Row]),
    /// Rows materialized by an operator.
    Owned(Vec<Row>),
}

impl<'a> std::ops::Deref for RowsBuf<'a> {
    type Target = [Row];
    fn deref(&self) -> &[Row] {
        match self {
            RowsBuf::Borrowed(s) => s,
            RowsBuf::Owned(v) => v,
        }
    }
}

impl<'a> RowsBuf<'a> {
    fn into_owned(self) -> Vec<Row> {
        match self {
            RowsBuf::Borrowed(s) => s.to_vec(),
            RowsBuf::Owned(v) => v,
        }
    }
}

/// Work counters for one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecWork {
    /// Row-touches performed before the first output row could be emitted.
    pub startup_rows: u64,
    /// Total row-touches across all operators.
    pub total_rows: u64,
}

impl ExecWork {
    pub(crate) fn add(&mut self, other: ExecWork) {
        self.startup_rows += other.startup_rows;
        self.total_rows += other.total_rows;
    }

    /// Server time to produce the first result row, at `row_ns` a
    /// row-touch, in ns.
    pub fn first_row_ns(&self, row_ns: f64) -> u64 {
        (self.startup_rows as f64 * row_ns) as u64
    }

    /// Server time to produce the complete result, at `row_ns` a
    /// row-touch, in ns.
    pub fn total_ns(&self, row_ns: f64) -> u64 {
        (self.total_rows as f64 * row_ns) as u64
    }
}

/// A query result with every row materialized, plus its work profile:
/// what [`Executor::execute`] returns.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Work performed by the server.
    pub work: ExecWork,
}

impl QueryResult {
    /// Result-set cardinality (`N_Q`).
    pub fn row_count(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Declared size of one result row in bytes (`S_row(Q)`).
    pub fn row_bytes(&self) -> u64 {
        self.schema.row_bytes()
    }

    /// Total payload size in bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.row_count() * self.row_bytes()
    }
}

/// Executes logical plans against a database.
pub struct Executor<'a> {
    pub(crate) db: &'a Database,
    pub(crate) funcs: &'a FuncRegistry,
    /// Which data plane runs queries (columnar by default).
    engine: ExecEngine,
    /// When set, every execution records its actual cardinality and work
    /// per plan fingerprint — the runtime half of the cardinality
    /// feedback loop (see [`crate::feedback::FeedbackStore`]).
    feedback: Option<&'a crate::feedback::FeedbackStore>,
}

impl<'a> Executor<'a> {
    /// New executor on the default engine, recording nothing.
    pub fn new(db: &'a Database, funcs: &'a FuncRegistry) -> Executor<'a> {
        Executor {
            db,
            funcs,
            engine: ExecEngine::default(),
            feedback: None,
        }
    }

    /// Select the physical data plane (columnar by default).
    pub fn with_engine(mut self, engine: ExecEngine) -> Executor<'a> {
        self.engine = engine;
        self
    }

    /// Record every execution's observed cardinality and work into
    /// `feedback`, keyed by the plan's structural fingerprint.
    pub fn with_feedback(mut self, feedback: &'a crate::feedback::FeedbackStore) -> Executor<'a> {
        self.feedback = Some(feedback);
        self
    }

    /// Execute `plan` with `params` bound and return the result as the
    /// engine left it: columnar, nothing materialized.
    pub fn run(&self, plan: &LogicalPlan, params: &HashMap<String, Value>) -> DbResult<ResultSet> {
        let result = match self.engine {
            ExecEngine::Columnar => crate::vexec::run(self, plan, params)?,
            ExecEngine::Row => {
                let (schema, rows, work) = self.run_rows(plan, params)?;
                ResultSet::from_rows(schema, &rows, work)
            }
        };
        if let Some(fb) = self.feedback {
            fb.record_at(
                plan,
                result.len() as u64,
                &result.work(),
                self.db.plan_data_stamp(plan),
            );
        }
        Ok(result)
    }

    /// [`Executor::run`], then every row materialized: what tests and the
    /// benchmark read rows through.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        params: &HashMap<String, Value>,
    ) -> DbResult<QueryResult> {
        let result = self.run(plan, params)?;
        Ok(QueryResult {
            schema: Schema::clone(result.schema()),
            rows: result.rows(),
            work: result.work(),
        })
    }

    fn run_rows(
        &self,
        plan: &LogicalPlan,
        params: &HashMap<String, Value>,
    ) -> DbResult<(Schema, RowsBuf<'a>, ExecWork)> {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                let t = self.db.table(table)?;
                let q = alias.clone().unwrap_or_else(|| table.clone());
                let schema = t.schema().with_qualifier(&q);
                // Zero-copy: borrow the table's row storage directly.
                let rows = RowsBuf::Borrowed(t.rows());
                let work = ExecWork {
                    startup_rows: 0,
                    total_rows: rows.len() as u64,
                };
                Ok((schema, rows, work))
            }
            LogicalPlan::Select { input, pred } => self.run_select(input, pred, params),
            LogicalPlan::Project { input, items } => {
                let (in_schema, in_rows, mut work) = self.run_rows(input, params)?;
                let out_schema = plan.output_schema(self.db, self.funcs)?;
                let mut out = Vec::with_capacity(in_rows.len());
                for row in in_rows.iter() {
                    let mut new_row = Vec::with_capacity(items.len());
                    for (expr, _) in items {
                        new_row.push(expr.eval(&in_schema, row, params, self.funcs)?);
                    }
                    out.push(new_row);
                }
                work.total_rows += in_rows.len() as u64;
                Ok((out_schema, RowsBuf::Owned(out), work))
            }
            LogicalPlan::Join { left, right, pred } => self.run_join(left, right, pred, params),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => self.run_aggregate(plan, input, group_by, aggs, params),
            LogicalPlan::OrderBy { input, keys } => {
                let (schema, rows, mut work) = self.run_rows(input, params)?;
                let mut rows = rows.into_owned();
                let mut key_idx = Vec::with_capacity(keys.len());
                for (c, dir) in keys {
                    key_idx.push((schema.resolve(&c.to_ref_string())?, *dir));
                }
                rows.sort_by(|a, b| {
                    for &(i, dir) in &key_idx {
                        let ord = a[i].cmp(&b[i]);
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
                // Sorting is blocking: charge n·log2(n) row-touches up front.
                let n = rows.len() as u64;
                let sort_work = n * (64 - n.max(1).leading_zeros() as u64).max(1);
                work.startup_rows = work.total_rows + sort_work;
                work.total_rows += sort_work;
                Ok((schema, RowsBuf::Owned(rows), work))
            }
            LogicalPlan::Limit { input, n } => {
                let (schema, rows, work) = self.run_rows(input, params)?;
                let n = *n as usize;
                let rows = match rows {
                    // Keep borrowing: a limited scan is still zero-copy.
                    RowsBuf::Borrowed(s) => RowsBuf::Borrowed(&s[..n.min(s.len())]),
                    RowsBuf::Owned(mut v) => {
                        v.truncate(n);
                        RowsBuf::Owned(v)
                    }
                };
                Ok((schema, rows, work))
            }
        }
    }

    fn run_select(
        &self,
        input: &LogicalPlan,
        pred: &ScalarExpr,
        params: &HashMap<String, Value>,
    ) -> DbResult<(Schema, RowsBuf<'a>, ExecWork)> {
        // Index fast path: equality conjunct over an indexed base table.
        if let LogicalPlan::Scan { table, alias } = input {
            let t = self.db.table(table)?;
            let q = alias.clone().unwrap_or_else(|| table.clone());
            let schema = t.schema().with_qualifier(&q);
            let conjuncts = pred.conjuncts();
            for (ci, c) in conjuncts.iter().enumerate() {
                if let ScalarExpr::Bin(BinOp::Eq, l, r) = c {
                    let (col, key_expr) = match (&**l, &**r) {
                        (ScalarExpr::Col(col), other) if !other.references_columns() => {
                            (col, other)
                        }
                        (other, ScalarExpr::Col(col)) if !other.references_columns() => {
                            (col, other)
                        }
                        _ => continue,
                    };
                    let Ok(idx) = schema.resolve(&col.to_ref_string()) else {
                        continue;
                    };
                    if !t.has_index(idx) {
                        continue;
                    }
                    let key = key_expr.eval(&Schema::default(), &Vec::new(), params, self.funcs)?;
                    if !index_answers_eq(schema.column(idx).dtype, &key) {
                        break;
                    }
                    let positions = t.index_lookup(idx, &key).unwrap_or(&[]);
                    let mut rows = Vec::with_capacity(positions.len());
                    let rest: Vec<&ScalarExpr> = conjuncts
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != ci)
                        .map(|(_, e)| *e)
                        .collect();
                    'rows: for &pos in positions {
                        let row = &t.rows()[pos];
                        for other in &rest {
                            let v = other.eval(&schema, row, params, self.funcs)?;
                            if v.as_bool() != Some(true) {
                                continue 'rows;
                            }
                        }
                        rows.push(row.clone());
                    }
                    // Index probe: charge only matched rows (plus the probe).
                    let work = ExecWork {
                        startup_rows: 0,
                        total_rows: positions.len() as u64 + 1,
                    };
                    return Ok((schema, RowsBuf::Owned(rows), work));
                }
            }
        }
        // Generic filter scan.
        let (schema, in_rows, mut work) = self.run_rows(input, params)?;
        let mut rows = Vec::new();
        for row in in_rows.iter() {
            let v = pred.eval(&schema, row, params, self.funcs)?;
            if v.as_bool() == Some(true) {
                rows.push(row.clone());
            }
        }
        work.total_rows += in_rows.len() as u64;
        Ok((schema, RowsBuf::Owned(rows), work))
    }

    /// Try an index-nested-loops join: one side is a bare indexed table
    /// scan and the other side is (much) smaller — probe the index per
    /// outer row instead of scanning the big side (what MySQL does for
    /// small driving sides; essential for P1's low-cardinality behaviour).
    fn try_inl_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        pred: &ScalarExpr,
        params: &HashMap<String, Value>,
    ) -> DbResult<Option<(Schema, RowsBuf<'a>, ExecWork)>> {
        for (outer_plan, inner_plan, inner_is_right) in [(left, right, true), (right, left, false)]
        {
            let LogicalPlan::Scan { table, alias } = inner_plan else {
                continue;
            };
            let t = self.db.table(table)?;
            let inner_schema = t.schema().with_qualifier(alias.as_deref().unwrap_or(table));
            let outer_schema = outer_plan.output_schema(self.db, self.funcs)?;
            // Find an equi conjunct split across the two sides.
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
                        let (o_type, i_type) =
                            (outer_schema.column(o).dtype, inner_schema.column(i).dtype);
                        if t.has_index(i) && index_joins_eq(o_type, i_type) {
                            probe = Some((o, i));
                        }
                    }
                }
            }
            let Some((o_col, i_col)) = probe else {
                continue;
            };

            // Heuristic: only when the driving side is clearly smaller.
            let (o_schema, o_rows, o_work) = self.run_rows(outer_plan, params)?;
            if o_rows.len() * 2 >= t.row_count() {
                continue; // hash join is the better plan; fall through
            }

            let out_schema = if inner_is_right {
                o_schema.join(&inner_schema)
            } else {
                inner_schema.join(&o_schema)
            };
            let mut work = o_work;
            let mut out = Vec::new();
            for o_row in o_rows.iter() {
                work.total_rows += 1;
                let hits = t.index_lookup(i_col, &o_row[o_col]).unwrap_or(&[]);
                'hits: for &pos in hits {
                    let i_row = &t.rows()[pos];
                    let joined: Row = if inner_is_right {
                        o_row.iter().chain(i_row.iter()).cloned().collect()
                    } else {
                        i_row.iter().chain(o_row.iter()).cloned().collect()
                    };
                    work.total_rows += 1;
                    for c in &conjuncts {
                        let v = c.eval(&out_schema, &joined, params, self.funcs)?;
                        if v.as_bool() != Some(true) {
                            continue 'hits;
                        }
                    }
                    out.push(joined);
                }
            }
            return Ok(Some((out_schema, RowsBuf::Owned(out), work)));
        }
        Ok(None)
    }

    fn run_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        pred: &ScalarExpr,
        params: &HashMap<String, Value>,
    ) -> DbResult<(Schema, RowsBuf<'a>, ExecWork)> {
        if let Some(result) = self.try_inl_join(left, right, pred, params)? {
            return Ok(result);
        }
        let (l_schema, l_rows, l_work) = self.run_rows(left, params)?;
        let (r_schema, r_rows, r_work) = self.run_rows(right, params)?;
        let out_schema = l_schema.join(&r_schema);
        let mut work = ExecWork::default();
        work.add(l_work);
        work.add(r_work);

        // Find an equi-join conjunct col_l = col_r.
        let conjuncts = pred.conjuncts();
        let mut equi: Option<(usize, usize)> = None;
        for c in &conjuncts {
            if let ScalarExpr::Bin(BinOp::Eq, a, b) = c {
                if let (ScalarExpr::Col(ca), ScalarExpr::Col(cb)) = (&**a, &**b) {
                    let ra = ca.to_ref_string();
                    let rb = cb.to_ref_string();
                    if let (Ok(i), Ok(j)) = (l_schema.resolve(&ra), r_schema.resolve(&rb)) {
                        equi = Some((i, j));
                        break;
                    }
                    if let (Ok(i), Ok(j)) = (l_schema.resolve(&rb), r_schema.resolve(&ra)) {
                        equi = Some((i, j));
                        break;
                    }
                }
            }
        }

        let mut out = Vec::new();
        if let Some((li, ri)) = equi {
            // Hash join; build on the smaller side.
            let build_left = l_rows.len() <= r_rows.len();
            let (build_rows, probe_rows, build_key, probe_key) = if build_left {
                (&l_rows[..], &r_rows[..], li, ri)
            } else {
                (&r_rows[..], &l_rows[..], ri, li)
            };
            let mut table: HashMap<Value, Vec<usize>> = HashMap::with_capacity(build_rows.len());
            for (i, row) in build_rows.iter().enumerate() {
                let key = join_key(row[build_key].clone());
                table.entry(key).or_default().push(i);
            }
            // The build phase blocks the first output row.
            work.startup_rows = work.total_rows + build_rows.len() as u64;
            work.total_rows += build_rows.len() as u64 + probe_rows.len() as u64;
            for probe in probe_rows {
                if let Some(matches) = table.get(&join_key(probe[probe_key].clone())) {
                    for &bi in matches {
                        let build = &build_rows[bi];
                        let joined: Row = if build_left {
                            build.iter().chain(probe.iter()).cloned().collect()
                        } else {
                            probe.iter().chain(build.iter()).cloned().collect()
                        };
                        if self.residual_ok(&out_schema, &joined, &conjuncts, params)? {
                            work.total_rows += 1;
                            out.push(joined);
                        }
                    }
                }
            }
        } else {
            // Nested-loop join.
            work.startup_rows = work.total_rows;
            work.total_rows += (l_rows.len() as u64).saturating_mul(r_rows.len() as u64);
            for l in l_rows.iter() {
                for r in r_rows.iter() {
                    let joined: Row = l.iter().chain(r.iter()).cloned().collect();
                    let v = pred.eval(&out_schema, &joined, params, self.funcs)?;
                    if v.as_bool() == Some(true) {
                        out.push(joined);
                    }
                }
            }
        }
        Ok((out_schema, RowsBuf::Owned(out), work))
    }

    /// Whether a hash join's candidate row passes every conjunct, in order
    /// and stopping at the first that does not hold — the equi conjunct
    /// included: the table pairs keys under [`join_key`], which finds every
    /// pair the conjunct holds on and some it does not.
    fn residual_ok(
        &self,
        schema: &Schema,
        row: &Row,
        conjuncts: &[&ScalarExpr],
        params: &HashMap<String, Value>,
    ) -> DbResult<bool> {
        for c in conjuncts {
            let v = c.eval(schema, row, params, self.funcs)?;
            if v.as_bool() != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn run_aggregate(
        &self,
        plan: &LogicalPlan,
        input: &LogicalPlan,
        group_by: &[crate::expr::ColRef],
        aggs: &[AggItem],
        params: &HashMap<String, Value>,
    ) -> DbResult<(Schema, RowsBuf<'a>, ExecWork)> {
        let (in_schema, in_rows, mut work) = self.run_rows(input, params)?;
        let out_schema = plan.output_schema(self.db, self.funcs)?;
        let mut group_idx = Vec::with_capacity(group_by.len());
        for g in group_by {
            group_idx.push(in_schema.resolve(&g.to_ref_string())?);
        }

        // Keyed accumulation, preserving first-seen group order.
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        for row in in_rows.iter() {
            let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
            let states = match groups.get_mut(&key) {
                Some(s) => s,
                None => {
                    order.push(key.clone());
                    groups
                        .entry(key.clone())
                        .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect())
                }
            };
            for (state, item) in states.iter_mut().zip(aggs) {
                let v = match &item.arg {
                    Some(e) => Some(e.eval(&in_schema, row, params, self.funcs)?),
                    None => None,
                };
                state.update(v.as_ref());
            }
        }
        // Scalar aggregate over empty input still emits one row.
        if group_by.is_empty() && order.is_empty() {
            order.push(Vec::new());
            groups.insert(
                Vec::new(),
                aggs.iter().map(|a| AggState::new(a.func)).collect(),
            );
        }

        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let states = groups.remove(&key).expect("group present");
            let mut row = key;
            for s in states {
                row.push(s.finish());
            }
            out.push(row);
        }
        // Aggregation is blocking: everything happens before the first row.
        work.total_rows += in_rows.len() as u64;
        work.startup_rows = work.total_rows;
        Ok((out_schema, RowsBuf::Owned(out), work))
    }
}

/// The key a hash join files `v` under, on both engines: an Int's `f64`
/// image — what `sql_cmp` compares an Int with a Float through — so that
/// keys the predicate calls equal share an entry, and any other value
/// itself. Ints that share an image (beyond 2^53) meet as candidates, as a
/// NULL meets a NULL; the conjunct, evaluated on every candidate of a
/// `Value`-keyed table, tells them apart.
pub(crate) fn join_key(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Float(i as f64),
        v => v,
    }
}

/// Whether a hash index on a column declared `column` finds the rows
/// `column = key` holds on. An index files values by `Value` identity,
/// which ranks Int and Float apart where `sql_cmp` compares them
/// numerically and finds a NULL under NULL where the predicate holds on no
/// row: a numeric key of another type than the column's, or a NULL one,
/// goes through the filter instead. (A column that *holds* values outside
/// its declared type is out of scope for the two index paths.)
pub(crate) fn index_answers_eq(column: DataType, key: &Value) -> bool {
    match key {
        Value::Int(_) => column == DataType::Int,
        Value::Float(_) => column == DataType::Float,
        Value::Null => false,
        Value::Str(_) | Value::Bool(_) => true,
    }
}

/// Whether an index on a column declared `inner` can be probed with the
/// values of a column declared `outer`: not when one is Int and the other
/// Float, for the reason [`index_answers_eq`] gives.
pub(crate) fn index_joins_eq(outer: DataType, inner: DataType) -> bool {
    use DataType::{Float, Int};
    !matches!((outer, inner), (Int, Float) | (Float, Int))
}

/// Incremental aggregate state (shared with the vectorized engine as its
/// exact-semantics fallback for non-typed inputs).
pub(crate) enum AggState {
    Count(u64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(n) => {
                // count(*) counts rows; count(expr) skips NULLs.
                match v {
                    Some(val) if val.is_null() => {}
                    _ => *n += 1,
                }
            }
            AggState::Sum(acc) => {
                if let Some(val) = v {
                    if val.is_null() {
                        return;
                    }
                    *acc = Some(match acc.take() {
                        None => val.clone(),
                        Some(Value::Int(a)) => match val {
                            // Int arithmetic wraps, as in `apply_bin_op`.
                            Value::Int(b) => Value::Int(a.wrapping_add(*b)),
                            other => Value::Float(a as f64 + other.as_f64().unwrap_or(0.0)),
                        },
                        Some(Value::Float(a)) => Value::Float(a + val.as_f64().unwrap_or(0.0)),
                        Some(other) => other,
                    });
                }
            }
            AggState::Min(acc) => {
                if let Some(val) = v {
                    if val.is_null() {
                        return;
                    }
                    match acc {
                        Some(m) if val.sql_cmp(m) != Some(std::cmp::Ordering::Less) => {}
                        _ => *acc = Some(val.clone()),
                    }
                }
            }
            AggState::Max(acc) => {
                if let Some(val) = v {
                    if val.is_null() {
                        return;
                    }
                    match acc {
                        Some(m) if val.sql_cmp(m) != Some(std::cmp::Ordering::Greater) => {}
                        _ => *acc = Some(val.clone()),
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(val) = v {
                    if let Some(f) = val.as_f64() {
                        *sum += f;
                        *n += 1;
                    }
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum(acc) => acc.unwrap_or(Value::Null),
            AggState::Min(acc) => acc.unwrap_or(Value::Null),
            AggState::Max(acc) => acc.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use crate::schema::{Column, DataType};
    use crate::sql::parse;

    fn test_db() -> Database {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
            Column::new("o_amount", DataType::Float),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..100i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Float((i as f64) * 1.5),
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

    fn run(db: &Database, sql: &str) -> QueryResult {
        let funcs = FuncRegistry::with_builtins();
        let plan = parse(sql).unwrap();
        Executor::new(db, &funcs)
            .execute(&plan, &HashMap::new())
            .unwrap()
    }

    #[test]
    fn scan_returns_all_rows() {
        let db = test_db();
        let r = run(&db, "select * from orders");
        assert_eq!(r.row_count(), 100);
        assert_eq!(r.work.total_rows, 100);
        assert_eq!(r.work.startup_rows, 0, "scans are pipelined");
    }

    #[test]
    fn filter_scan() {
        let db = test_db();
        let r = run(&db, "select * from orders where o_amount > 100.0");
        assert_eq!(r.row_count(), 33, "1.5*i > 100 for i in 67..100");
    }

    #[test]
    fn index_lookup_path_is_cheap() {
        let db = test_db();
        let r = run(&db, "select * from orders where o_id = 50");
        assert_eq!(r.row_count(), 1);
        assert!(r.work.total_rows <= 2, "index probe: got {:?}", r.work);
    }

    #[test]
    fn parameterized_index_lookup() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let plan = parse("select * from customer where c_customer_sk = :cust").unwrap();
        let mut params = HashMap::new();
        params.insert("cust".to_string(), Value::Int(3));
        let r = Executor::new(&db, &funcs).execute(&plan, &params).unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows[0][1], Value::Int(1963));
    }

    #[test]
    fn unbound_param_errors() {
        let db = test_db();
        let funcs = FuncRegistry::with_builtins();
        let plan = parse("select * from customer where c_customer_sk = :cust").unwrap();
        let err = Executor::new(&db, &funcs)
            .execute(&plan, &HashMap::new())
            .unwrap_err();
        assert!(matches!(err, DbError::UnboundParam(_)));
    }

    #[test]
    fn hash_join_produces_all_matches() {
        let db = test_db();
        let r = run(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        assert_eq!(r.row_count(), 100, "every order has a customer");
        assert_eq!(r.schema.len(), 5);
        // Startup covers at least the build side.
        assert!(r.work.startup_rows >= 10);
    }

    #[test]
    fn join_row_bytes_is_sum_of_sides() {
        let db = test_db();
        let r = run(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        assert_eq!(r.row_bytes(), 8 + 8 + 8 + 8 + 8);
    }

    #[test]
    fn nested_loop_join_for_non_equi() {
        let db = test_db();
        let r = run(
            &db,
            "select * from customer a join customer b on a.c_birth_year < b.c_birth_year",
        );
        assert_eq!(r.row_count(), 45, "10 choose 2");
    }

    #[test]
    fn group_by_aggregation() {
        let db = test_db();
        let r = run(
            &db,
            "select o_customer_sk, count(*) as n, sum(o_amount) as total \
             from orders group by o_customer_sk",
        );
        assert_eq!(r.row_count(), 10);
        for row in &r.rows {
            assert_eq!(row[1], Value::Int(10));
        }
        assert_eq!(r.work.startup_rows, r.work.total_rows, "blocking operator");
    }

    #[test]
    fn scalar_aggregate_on_empty_input_yields_one_row() {
        let db = test_db();
        let r = run(&db, "select count(*) as n from orders where o_id = -1");
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn sum_over_ints_stays_int() {
        let db = test_db();
        let r = run(&db, "select sum(o_id) from orders");
        assert_eq!(r.rows[0][0], Value::Int(4950));
    }

    #[test]
    fn avg_aggregate() {
        let db = test_db();
        let r = run(&db, "select avg(c_birth_year) from customer");
        assert_eq!(r.rows[0][0], Value::Float(1964.5));
    }

    #[test]
    fn min_max_aggregates() {
        let db = test_db();
        let r = run(&db, "select min(o_amount), max(o_amount) from orders");
        assert_eq!(r.rows[0][0], Value::Float(0.0));
        assert_eq!(r.rows[0][1], Value::Float(148.5));
    }

    #[test]
    fn order_by_sorts_and_blocks() {
        let db = test_db();
        let r = run(&db, "select * from customer order by c_birth_year desc");
        assert_eq!(r.rows[0][1], Value::Int(1969));
        assert_eq!(r.rows[9][1], Value::Int(1960));
        assert!(r.work.startup_rows > 0);
    }

    #[test]
    fn limit_truncates() {
        let db = test_db();
        let r = run(&db, "select * from orders order by o_id limit 5");
        assert_eq!(r.row_count(), 5);
    }

    #[test]
    fn projection_computes_expressions() {
        let db = test_db();
        let r = run(&db, "select o_id, o_amount * 2.0 as d from orders limit 1");
        assert_eq!(r.rows[0][1], Value::Float(0.0));
        assert_eq!(r.schema.column(1).name, "d");
    }

    #[test]
    fn join_then_aggregate_pipeline() {
        let db = test_db();
        let r = run(
            &db,
            "select c.c_birth_year, count(*) as n from orders o \
             join customer c on o.o_customer_sk = c.c_customer_sk \
             group by c.c_birth_year order by c.c_birth_year",
        );
        assert_eq!(r.row_count(), 10);
        assert_eq!(r.rows[0][0], Value::Int(1960));
        assert_eq!(r.rows[0][1], Value::Int(10));
    }

    #[test]
    fn inl_join_used_for_small_driving_side() {
        // 3 orders vs 10 indexed customers: INL probes instead of scanning.
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        for i in 0..3i64 {
            t.insert(vec![Value::Int(i), Value::Int(i)]).unwrap();
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
        let funcs = FuncRegistry::with_builtins();
        let plan =
            parse("select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk")
                .unwrap();
        let r = Executor::new(&db, &funcs)
            .execute(&plan, &HashMap::new())
            .unwrap();
        assert_eq!(r.row_count(), 3);
        // Work: 3 outer rows + 3 probes + 3 matches ≪ 10-row scan + build.
        assert!(r.work.total_rows <= 9, "INL path taken: {:?}", r.work);
        assert_eq!(r.work.startup_rows, 0, "INL is pipelined");
        // Column order matches the plan's left-right order.
        assert_eq!(r.schema.resolve("o.o_id").unwrap(), 0);
        assert_eq!(r.schema.resolve("c.c_birth_year").unwrap(), 3);
        assert_eq!(r.rows[0][3], Value::Int(1960));
    }

    #[test]
    fn inl_join_matches_hash_join_results() {
        let db = test_db(); // 100 orders, 10 customers: hash join path
        let hash = run(
            &db,
            "select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk",
        );
        // Force the INL-eligible direction by shrinking the driving side.
        let inl = run(
            &db,
            "select * from orders o join customer c on \
             o.o_customer_sk = c.c_customer_sk and o.o_id < 4",
        );
        assert_eq!(inl.row_count(), 4);
        // Every INL row appears in the hash-join result.
        for row in &inl.rows {
            assert!(hash.rows.contains(row), "{row:?}");
        }
    }

    #[test]
    fn inl_join_respects_flipped_sides() {
        let db = test_db();
        // Indexed scan on the LEFT: columns must still come out left-first.
        let r = run(
            &db,
            "select * from customer c join orders o on \
             c.c_customer_sk = o.o_customer_sk and o.o_id < 4",
        );
        assert_eq!(r.row_count(), 4);
        assert_eq!(r.schema.resolve("c.c_customer_sk").unwrap(), 0);
        assert_eq!(r.schema.resolve("o.o_id").unwrap(), 2);
    }

    #[test]
    fn residual_predicate_on_hash_join() {
        let db = test_db();
        let r = run(
            &db,
            "select * from orders o join customer c on \
             o.o_customer_sk = c.c_customer_sk and o.o_amount > 100.0",
        );
        assert_eq!(r.row_count(), 33);
    }
}
