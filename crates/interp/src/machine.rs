//! The interpreter proper.
//!
//! [`Interp::run`] lowers the program once, then executes the lowered
//! form. Lowering resolves every name a statement would otherwise look up
//! each time it runs: per function a variable becomes a slot of the
//! activation's frame (`None` until something binds it), a callee an index
//! into the program — an unknown one stays a name and fails only if its
//! statement executes — and a field access gets a site that remembers the
//! `(schema, column)` it last resolved against. A row is a
//! [`minidb::RowRef`] into the result that fetched it; an operation that
//! only reads a variable (a field of it, its size, an operand) reads it
//! in its frame instead of cloning it out first.
//!
//! **Clock.** The `C_Z` of each statement — the statement price of the
//! connection the run was given ([`orm::Prices::statement_ns`]) — is summed
//! locally and put on the connection's clock before every
//! [`orm::RemoteDb`] call and when the run ends, `Ok` or `Err`. The clock's
//! sum saturates, so the order in which terms arrive does not change what
//! it reads.
//!
//! **Stack.** The interpreter recurses once per open block (a loop body, a
//! branch, a function body) and once per level of the expression being
//! evaluated, and refuses to go deeper than `MAX_DEPTH` = 160 levels
//! with [`DbError::Invalid`]: the 128 levels the wire decoder admits in
//! one function, and 32 to call below them. A stack overflow is not a
//! panic — nothing catches it, every tenant's connection dies — so this
//! bound is what stands between a recursive callee and the process.
//! Measured at the bound (x86-64, the largest of four mixes of calls,
//! branches and expression levels): 143 KiB of stack in a release build
//! and 1.3 MiB in an unoptimized one, of the 2 MiB a connection thread
//! has.

use crate::value::{ColumnCache, FieldSite, RowObj, RtVal, Snapshot};
use imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use minidb::{
    apply_bin_op, BinOp, DbError, DbResult, FeedbackStore, FuncRegistry, LogicalPlan, ResultSet,
    RowRef, SharedDb, Value,
};
use netsim::NetworkProfile;
use orm::{MappingRegistry, Prices, RemoteDb, Session};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What one run of a program talks to: a database behind a network, at the
/// virtual clock's prices.
#[derive(Clone)]
pub struct Endpoint {
    /// The database, shared with whoever else holds the handle.
    pub db: SharedDb,
    /// Scalar functions, client and server side.
    pub funcs: Arc<FuncRegistry>,
    /// ORM mappings the session resolves entities through.
    pub mappings: Arc<MappingRegistry>,
    /// What round trips and transfer are charged against.
    pub net: NetworkProfile,
    /// What statements and server rows are charged at.
    pub prices: Prices,
    /// Where executed queries record what they observed, if anywhere.
    pub feedback: Option<Arc<FeedbackStore>>,
}

/// Run `program` against `on`: a fresh connection, session and clock (one
/// run is one transaction, as in the paper's measurements). The only place
/// `RemoteDb → Session → Interp` is assembled, so what a run is charged is
/// what `on.prices` says.
pub fn run_program(on: Endpoint, program: &Program) -> DbResult<Outcome> {
    let mut remote = RemoteDb::new(on.db, on.funcs, on.net, on.prices);
    if let Some(feedback) = on.feedback {
        remote = remote.with_feedback(feedback);
    }
    let session = Session::new(Arc::new(remote), on.mappings);
    Interp::new(&session, program).run(vec![])
}

/// Result of executing a program.
#[derive(Debug)]
pub struct Outcome {
    /// Final variable bindings of the entry function.
    pub env: HashMap<String, RtVal>,
    /// Return value of the entry function.
    pub ret: RtVal,
    /// Virtual time consumed by the run (ns).
    pub elapsed_ns: u64,
    /// Network round trips performed by the run.
    pub round_trips: u64,
    /// Result bytes transferred from the server during the run.
    pub bytes: u64,
    /// The printed values (deep snapshots), in print order: the one
    /// record of what the program printed. Being values, they normalize
    /// for order-insensitive comparison as results do.
    pub print_values: Vec<Snapshot>,
    /// Number of statement executions.
    pub stmts_executed: u64,
}

impl Outcome {
    /// Snapshot of one variable (Unit if absent).
    pub fn var_snapshot(&self, name: &str) -> Snapshot {
        self.env
            .get(name)
            .map(|v| v.snapshot())
            .unwrap_or(Snapshot::Unit)
    }

    /// The run's observables in rewrite-invariant form: the return value
    /// and every printed value, each normalized to bag semantics
    /// ([`Snapshot::normalized`] — collections *always* compare as
    /// multisets, because the cost-based rewrites legitimately reorder
    /// them: a join enumerates rows in a different order than the loop it
    /// replaces (P0 → P1). Element order inside a collection is therefore
    /// not an observable here, even under an `order by` source. What
    /// stays order-sensitive is the print *sequence*: print k must carry
    /// the same (normalized) value on both sides, so reordering
    /// observable side effects is still a divergence.
    ///
    /// Add out-parameter variables with
    /// [`Outcome::normalized_with_vars`]; they are what differential
    /// testing compares between an original and a rewritten program.
    pub fn normalized(&self) -> NormalizedOutcome {
        NormalizedOutcome {
            vars: Vec::new(),
            ret: self.ret.snapshot().normalized(),
            prints: self
                .print_values
                .iter()
                .map(|s| s.clone().normalized())
                .collect(),
        }
    }

    /// [`Outcome::normalized`] extended with the final values of the named
    /// variables (absent variables snapshot as [`Snapshot::Unit`], so a
    /// rewrite that *drops* an observed variable still diverges).
    pub fn normalized_with_vars(&self, names: &[&str]) -> NormalizedOutcome {
        let mut n = self.normalized();
        n.vars = names
            .iter()
            .map(|name| (name.to_string(), self.var_snapshot(name).normalized()))
            .collect();
        n.vars.sort();
        n
    }
}

/// The comparable observables of one program run: selected final variable
/// values, the return value, and printed values — all normalized via
/// [`Snapshot::normalized`]. Two runs are *observationally equivalent*
/// exactly when their `NormalizedOutcome`s are `==`; the differential
/// oracle builds its `assert_equivalent` on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedOutcome {
    /// Observed variables (name, normalized snapshot), sorted by name.
    pub vars: Vec<(String, Snapshot)>,
    /// Normalized return value.
    pub ret: Snapshot,
    /// Normalized printed values, in print order.
    pub prints: Vec<Snapshot>,
}

impl std::fmt::Display for NormalizedOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, snap) in &self.vars {
            writeln!(f, "var {name} = {snap}")?;
        }
        writeln!(f, "ret = {}", self.ret)?;
        for (i, p) in self.prints.iter().enumerate() {
            writeln!(f, "print[{i}] = {p}")?;
        }
        Ok(())
    }
}

/// Control flow signals.
enum Flow {
    Normal,
    Break,
    Return(RtVal),
}

/// Executes programs against an ORM session.
pub struct Interp<'a> {
    session: &'a Session,
    program: &'a Program,
}

impl<'a> Interp<'a> {
    /// New interpreter for `program` over `session`.
    pub fn new(session: &'a Session, program: &'a Program) -> Interp<'a> {
        Interp { session, program }
    }

    /// Run the entry function with `args` bound to its parameters (missing
    /// parameters default to fresh collections, matching the paper's
    /// out-parameter style `processOrders(result)`).
    pub fn run(&self, mut args: Vec<(String, RtVal)>) -> DbResult<Outcome> {
        let remote = self.session.remote();
        let start_ns = remote.clock().now();
        let start_trips = remote.round_trips();
        let start_bytes = remote.bytes_transferred();

        let mut tags = Vec::new();
        let machine = Machine {
            session: self.session,
            cz_ns: remote.prices().statement_ns(),
            funcs: lower(self.program, self.session, &mut tags),
            tags: RefCell::new(tags),
            stmts: Cell::new(0),
            unsettled_ns: Cell::new(0),
            depth: Cell::new(0),
            print_values: RefCell::default(),
            built_caches: RefCell::default(),
        };
        let entry = &machine.funcs[0];
        let mut frame: Frame = vec![None; entry.slots.len()];
        for (p, &slot) in self.program.entry().params.iter().zip(&entry.params) {
            let given = args.iter().rposition(|(name, _)| name == p);
            let given = given.map(|i| args.swap_remove(i).1);
            frame[slot] = Some(given.unwrap_or_else(RtVal::new_collection));
        }

        let flow = machine.exec_block(&entry.body, &mut frame);
        // What the statements cost is on the clock however the run ended.
        machine.settle();
        let ret = match flow? {
            Flow::Return(v) => v,
            _ => RtVal::Unit,
        };

        let bound = entry.slots.iter().zip(frame);
        Ok(Outcome {
            env: bound
                .filter_map(|(name, v)| Some((name.to_string(), v?)))
                .collect(),
            ret,
            elapsed_ns: remote.clock().now() - start_ns,
            round_trips: remote.round_trips() - start_trips,
            bytes: remote.bytes_transferred() - start_bytes,
            print_values: machine.print_values.take(),
            stmts_executed: machine.stmts.get(),
        })
    }
}

/// The variables of one function activation, by slot; `None` is a variable
/// nothing has bound yet.
type Frame = Vec<Option<RtVal>>;

/// The shared string rows of `entity` are tagged with.
fn tag(tags: &mut Vec<Arc<str>>, entity: &str) -> Arc<str> {
    if let Some(tag) = tags.iter().find(|t| ***t == *entity) {
        return tag.clone();
    }
    tags.push(entity.into());
    tags[tags.len() - 1].clone()
}

// --- the lowered program ------------------------------------------------------

/// A function with its names resolved: every variable is a slot of the
/// activation's [`Frame`], every callee an index into the program.
struct Func<'p> {
    name: &'p str,
    /// The slot of each parameter, in order.
    params: Vec<usize>,
    /// The variable each slot holds.
    slots: Vec<&'p str>,
    body: Vec<LStmt<'p>>,
}

/// A variable: its slot, and its name for error messages.
#[derive(Clone, Copy)]
struct Var<'p> {
    slot: usize,
    name: &'p str,
}

/// [`StmtKind`], lowered, fields in its order. A `try` is its body: the
/// simulation raises no recoverable exception, the handler exists to
/// exercise unstructured-region analysis.
enum LStmt<'p> {
    Let(Var<'p>, LExpr<'p>),
    NewCollection(Var<'p>),
    NewMap(Var<'p>),
    Add(Var<'p>, LExpr<'p>),
    Put(Var<'p>, LExpr<'p>, LExpr<'p>),
    ForEach(Var<'p>, LExpr<'p>, Vec<LStmt<'p>>),
    While(LExpr<'p>, Vec<LStmt<'p>>),
    If(LExpr<'p>, Vec<LStmt<'p>>, Vec<LStmt<'p>>),
    Print(LExpr<'p>),
    Return(Option<LExpr<'p>>),
    Break,
    CacheByColumn(Var<'p>, LExpr<'p>, &'p str),
    /// `update table set set_col = value where key_col = key`, as
    /// `(table, set_col, value, key_col, key)`.
    UpdateQuery(&'p str, &'p str, LExpr<'p>, &'p str, LExpr<'p>),
    /// The callee by index; by name when the program has no such function,
    /// which fails the statement when it executes and not before.
    LetCall(Var<'p>, Result<usize, &'p str>, Vec<LExpr<'p>>),
    Try(Vec<LStmt<'p>>),
}

/// [`Expr`], lowered.
enum LExpr<'p> {
    Var(Var<'p>),
    Lit(RtVal),
    Bin(BinOp, Box<LExpr<'p>>, Box<LExpr<'p>>),
    Not(Box<LExpr<'p>>),
    Field(Box<LExpr<'p>>, &'p str, FieldSite),
    Nav(Box<LExpr<'p>>, &'p str),
    Call(&'p str, Vec<LExpr<'p>>),
    LoadAll(&'p str, Arc<str>),
    Query(LQuery<'p>),
    ScalarQuery(LQuery<'p>),
    LookupCache(Var<'p>, Box<LExpr<'p>>),
    MapGet(Box<LExpr<'p>>, Box<LExpr<'p>>),
    Len(Box<LExpr<'p>>),
}

struct LQuery<'p> {
    plan: &'p LogicalPlan,
    binds: Vec<(&'p str, LExpr<'p>)>,
    /// The entity result rows are tagged with: the plan is a plain fetch
    /// of one mapped table, so navigation keeps working on its rows.
    entity: Option<Arc<str>>,
}

/// Lower every function of `program`, once per run.
fn lower<'p>(program: &'p Program, session: &Session, tags: &mut Vec<Arc<str>>) -> Vec<Func<'p>> {
    // As `Program::function`: a name means the first function carrying it.
    let mut callees: HashMap<&str, usize> = HashMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        callees.entry(&f.name).or_insert(i);
    }
    let lower_function = |f: &'p Function| {
        let mut l = Lowering {
            session,
            callees: &callees,
            tags: &mut *tags,
            slot_of: HashMap::new(),
            slots: Vec::new(),
        };
        let params = f.params.iter().map(|p| l.var(p).slot).collect();
        let body = l.stmts(&f.body);
        Func {
            name: &f.name,
            params,
            slots: l.slots,
            body,
        }
    };
    program.functions.iter().map(lower_function).collect()
}

/// The lowering of one function.
struct Lowering<'p, 'c> {
    session: &'c Session,
    callees: &'c HashMap<&'p str, usize>,
    tags: &'c mut Vec<Arc<str>>,
    slot_of: HashMap<&'p str, usize>,
    slots: Vec<&'p str>,
}

impl<'p> Lowering<'p, '_> {
    fn var(&mut self, name: &'p str) -> Var<'p> {
        let slot = *self.slot_of.entry(name).or_insert(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(name);
        }
        Var { slot, name }
    }

    fn stmts(&mut self, stmts: &'p [Stmt]) -> Vec<LStmt<'p>> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'p Stmt) -> LStmt<'p> {
        use StmtKind::*;
        match &stmt.kind {
            Let(v, e) => LStmt::Let(self.var(v), self.expr(e)),
            NewCollection(v) => LStmt::NewCollection(self.var(v)),
            NewMap(v) => LStmt::NewMap(self.var(v)),
            Add(c, e) => LStmt::Add(self.var(c), self.expr(e)),
            Put(m, k, v) => LStmt::Put(self.var(m), self.expr(k), self.expr(v)),
            ForEach { var, iter, body } => {
                LStmt::ForEach(self.var(var), self.expr(iter), self.stmts(body))
            }
            While { cond, body } => LStmt::While(self.expr(cond), self.stmts(body)),
            If {
                cond,
                then_branch,
                else_branch,
            } => LStmt::If(
                self.expr(cond),
                self.stmts(then_branch),
                self.stmts(else_branch),
            ),
            Print(e) => LStmt::Print(self.expr(e)),
            Return(e) => LStmt::Return(e.as_ref().map(|e| self.expr(e))),
            Break => LStmt::Break,
            CacheByColumn {
                cache,
                source,
                key_col,
            } => LStmt::CacheByColumn(self.var(cache), self.expr(source), key_col),
            UpdateQuery {
                table,
                set_col,
                value,
                key_col,
                key,
            } => LStmt::UpdateQuery(table, set_col, self.expr(value), key_col, self.expr(key)),
            LetCall(target, fname, args) => LStmt::LetCall(
                self.var(target),
                self.callees.get(fname.as_str()).copied().ok_or(fname),
                self.exprs(args),
            ),
            TryCatch { body, handler: _ } => LStmt::Try(self.stmts(body)),
        }
    }

    fn exprs(&mut self, exprs: &'p [Expr]) -> Vec<LExpr<'p>> {
        exprs.iter().map(|e| self.expr(e)).collect()
    }

    fn boxed(&mut self, e: &'p Expr) -> Box<LExpr<'p>> {
        Box::new(self.expr(e))
    }

    fn expr(&mut self, e: &'p Expr) -> LExpr<'p> {
        match e {
            Expr::Var(v) => LExpr::Var(self.var(v)),
            Expr::Lit(v) => LExpr::Lit(RtVal::Scalar(v.clone())),
            Expr::Bin(op, l, r) => LExpr::Bin(*op, self.boxed(l), self.boxed(r)),
            Expr::Not(inner) => LExpr::Not(self.boxed(inner)),
            Expr::Field(base, name) => LExpr::Field(self.boxed(base), name, FieldSite::default()),
            Expr::Nav(base, field) => LExpr::Nav(self.boxed(base), field),
            Expr::Call(f, args) => LExpr::Call(f, self.exprs(args)),
            Expr::LoadAll(entity) => LExpr::LoadAll(entity, tag(self.tags, entity)),
            Expr::Query(spec) => {
                let entity = single_table_entity(&spec.plan, self.session);
                LExpr::Query(self.query(spec, entity))
            }
            Expr::ScalarQuery(spec) => LExpr::ScalarQuery(self.query(spec, None)),
            Expr::LookupCache(cache, key) => LExpr::LookupCache(self.var(cache), self.boxed(key)),
            Expr::MapGet(m, k) => LExpr::MapGet(self.boxed(m), self.boxed(k)),
            Expr::Len(c) => LExpr::Len(self.boxed(c)),
        }
    }

    fn query(&mut self, spec: &'p QuerySpec, entity: Option<&str>) -> LQuery<'p> {
        let binds = spec.binds.iter();
        LQuery {
            plan: &spec.plan,
            binds: binds
                .map(|(name, e)| (name.as_str(), self.expr(e)))
                .collect(),
            entity: entity.map(|e| tag(self.tags, e)),
        }
    }
}

/// If the plan reads exactly one base table without reshaping rows
/// (filters/sorts/limits are fine), return its mapped entity.
fn single_table_entity<'s>(plan: &LogicalPlan, session: &'s Session) -> Option<&'s str> {
    use minidb::LogicalPlan as P;
    fn base_table(plan: &P) -> Option<&str> {
        match plan {
            P::Scan { table, .. } => Some(table),
            P::Select { input, .. } | P::OrderBy { input, .. } | P::Limit { input, .. } => {
                base_table(input)
            }
            _ => None,
        }
    }
    let mapping = session.mappings().entity_for_table(base_table(plan)?)?;
    Some(&mapping.entity)
}

// --- execution ----------------------------------------------------------------

/// How deep a run may recurse — open blocks (loop bodies, branches,
/// function bodies) plus levels of the expression being evaluated: the 128
/// levels the wire decoder admits in one function, and room for calls
/// below them. See the module documentation for the stack this costs.
const MAX_DEPTH: usize = 160;

fn type_error(what: impl Into<String>) -> DbError {
    DbError::Type(what.into())
}

/// A collection of the rows of `result`, each tagged with `entity`.
fn rows_of(result: Arc<ResultSet>, entity: Option<&Arc<str>>) -> RtVal {
    let entity = entity.cloned();
    let tagged = |row| {
        RtVal::Row(RowObj {
            row,
            entity: entity.clone(),
        })
    };
    RtVal::Collection(Arc::new(Mutex::new(
        RowRef::all(&result).map(tagged).collect(),
    )))
}

/// One run of a lowered program, and what it accumulates.
struct Machine<'a, 'p> {
    session: &'a Session,
    cz_ns: u64,
    funcs: Vec<Func<'p>>,
    /// The entity names rows are tagged with, one shared string each.
    tags: RefCell<Vec<Arc<str>>>,
    stmts: Cell<u64>,
    /// Statement cost not yet on the shared clock.
    unsettled_ns: Cell<u64>,
    /// How deep the interpreter's own recursion is: blocks open (function
    /// bodies included) plus levels of the expression being evaluated.
    depth: Cell<usize>,
    print_values: RefCell<Vec<Snapshot>>,
    /// Names of client-side caches already built during this run.
    built_caches: RefCell<Vec<&'p str>>,
}

impl<'p> Machine<'_, 'p> {
    fn charge(&self) {
        self.stmts.set(self.stmts.get() + 1);
        let ns = self.unsettled_ns.get().saturating_add(self.cz_ns);
        self.unsettled_ns.set(ns);
    }

    /// Put the statement cost summed so far on the shared clock: before
    /// the remote side advances it, and when the run ends. The clock's
    /// sum saturates, so in which order the terms arrive does not matter.
    fn settle(&self) {
        self.session
            .remote()
            .clock()
            .advance(self.unsettled_ns.take());
    }

    /// One level deeper, unless that is deeper than [`MAX_DEPTH`].
    fn descend(&self) -> DbResult<()> {
        if self.depth.get() == MAX_DEPTH {
            let what = format!("blocks, calls and expressions nest deeper than {MAX_DEPTH}");
            return Err(DbError::Invalid(what));
        }
        self.depth.set(self.depth.get() + 1);
        Ok(())
    }

    fn ascend(&self) {
        self.depth.set(self.depth.get() - 1);
    }

    fn exec_block(&self, stmts: &[LStmt<'p>], frame: &mut Frame) -> DbResult<Flow> {
        self.descend()?;
        for s in stmts {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                other => {
                    self.ascend();
                    return Ok(other);
                }
            }
        }
        self.ascend();
        Ok(Flow::Normal)
    }

    fn exec_stmt(&self, stmt: &LStmt<'p>, frame: &mut Frame) -> DbResult<Flow> {
        self.charge();
        match stmt {
            LStmt::Let(v, e) => frame[v.slot] = Some(self.eval(e, frame)?),
            LStmt::NewCollection(v) => frame[v.slot] = Some(RtVal::new_collection()),
            LStmt::NewMap(v) => frame[v.slot] = Some(RtVal::new_map()),
            LStmt::Add(c, e) => {
                let val = self.eval(e, frame)?;
                match &frame[c.slot] {
                    Some(RtVal::Collection(inner)) => inner.lock().unwrap().push(val),
                    _ => return Err(DbError::Invalid(format!("{} is not a collection", c.name))),
                }
            }
            LStmt::Put(m, k, v) => {
                let key = self.scalar(k, frame, || "map key must be a scalar".into())?;
                let val = self.eval(v, frame)?;
                match &frame[m.slot] {
                    Some(RtVal::Map(inner)) => inner.lock().unwrap().insert(key, val),
                    _ => return Err(DbError::Invalid(format!("{} is not a map", m.name))),
                };
            }
            LStmt::ForEach(var, iter, body) => {
                for item in self.eval_iterable(iter, frame)? {
                    // The loop header executes once per iteration.
                    self.charge();
                    frame[var.slot] = Some(item);
                    match self.exec_block(body, frame)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
            }
            LStmt::While(cond, body) => loop {
                self.charge();
                let c = self.operand(cond, frame)?;
                match c.as_scalar().and_then(|v| v.as_bool()) {
                    Some(true) => {}
                    Some(false) => break,
                    None => return Err(type_error("while condition must be boolean")),
                }
                match self.exec_block(body, frame)? {
                    Flow::Normal => {}
                    Flow::Break => break,
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            },
            LStmt::If(cond, then_branch, else_branch) => {
                let c = self.operand(cond, frame)?;
                let truth = c.as_scalar().and_then(|v| v.as_bool()).unwrap_or(false);
                let branch = if truth { then_branch } else { else_branch };
                return self.exec_block(branch, frame);
            }
            LStmt::Print(e) => {
                let snap = self.operand(e, frame)?.snapshot();
                self.print_values.borrow_mut().push(snap);
            }
            LStmt::Return(None) => return Ok(Flow::Return(RtVal::Unit)),
            LStmt::Return(Some(e)) => return Ok(Flow::Return(self.eval(e, frame)?)),
            LStmt::Break => return Ok(Flow::Break),
            LStmt::CacheByColumn(cache, source, key_col) => {
                // Client-side caches (EhCache/Memcache in the paper) are
                // built once per run: re-executing the statement (e.g.
                // inside a loop or a second callee) is a no-op.
                let built = self.built_caches.borrow().contains(&cache.name);
                if built && frame[cache.slot].is_some() {
                    return Ok(Flow::Normal);
                }
                self.built_caches.borrow_mut().push(cache.name);
                let rows = self.eval_iterable(source, frame)?;
                let rows = rows.into_iter().filter_map(|v| match v {
                    RtVal::Row(r) => Some(r),
                    _ => None,
                });
                let built = ColumnCache::build(rows, key_col)?;
                frame[cache.slot] = Some(RtVal::Cache(Arc::new(built)));
            }
            LStmt::UpdateQuery(table, set_col, value, key_col, key) => {
                let v = self.scalar(value, frame, || "update value must be a scalar".into())?;
                let k = self.scalar(key, frame, || "update key must be a scalar".into())?;
                self.settle();
                let remote = self.session.remote();
                remote.update(table, key_col, &k, set_col, v)?;
            }
            LStmt::LetCall(target, callee, args) => {
                let f = match callee {
                    Ok(index) => &self.funcs[*index],
                    Err(name) => return Err(DbError::Invalid(format!("unknown function {name}"))),
                };
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                frame[target.slot] = Some(self.call(f, vals)?);
            }
            LStmt::Try(body) => return self.exec_block(body, frame),
        }
        Ok(Flow::Normal)
    }

    fn call(&self, f: &Func<'p>, args: Vec<RtVal>) -> DbResult<RtVal> {
        if args.len() != f.params.len() {
            let (name, want, got) = (f.name, f.params.len(), args.len());
            return Err(DbError::Invalid(format!(
                "{name} expects {want} args, got {got}"
            )));
        }
        let mut frame: Frame = vec![None; f.slots.len()];
        for (&slot, v) in f.params.iter().zip(args) {
            frame[slot] = Some(v);
        }
        match self.exec_block(&f.body, &mut frame)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(RtVal::Unit),
        }
    }

    /// Evaluate an expression used as a loop iterable into a vector: the
    /// collection's own when nothing else holds it (a query's result, say),
    /// a copy of one a variable holds too — the body may grow it.
    fn eval_iterable(&self, e: &LExpr<'p>, frame: &Frame) -> DbResult<Vec<RtVal>> {
        match self.eval(e, frame)? {
            RtVal::Collection(c) => Ok(match Arc::try_unwrap(c) {
                Ok(only) => only.into_inner().unwrap(),
                Err(shared) => shared.lock().unwrap().clone(),
            }),
            RtVal::Map(m) => Ok(m.lock().unwrap().values().cloned().collect()),
            // A single-row cache/lookup result iterates as one element
            // (cache lookups return the row itself on a unique match).
            row @ RtVal::Row(_) => Ok(vec![row]),
            other => Err(type_error(format!(
                "cannot iterate over {:?}",
                other.snapshot()
            ))),
        }
    }

    /// The value of `e` for an operation that only reads it: a variable's
    /// or a literal's where it lies, anything else evaluated.
    fn operand<'v>(&'v self, e: &'v LExpr<'p>, frame: &'v Frame) -> DbResult<Cow<'v, RtVal>> {
        match e {
            LExpr::Var(v) => match &frame[v.slot] {
                Some(val) => Ok(Cow::Borrowed(val)),
                None => Err(DbError::Invalid(format!("unbound variable {}", v.name))),
            },
            LExpr::Lit(v) => Ok(Cow::Borrowed(v)),
            _ => {
                self.descend()?;
                let v = self.eval(e, frame)?;
                self.ascend();
                Ok(Cow::Owned(v))
            }
        }
    }

    /// The scalar `e` evaluates to, or the type error `what` words.
    fn scalar(
        &self,
        e: &LExpr<'p>,
        frame: &Frame,
        what: impl FnOnce() -> String,
    ) -> DbResult<Value> {
        let v = self.operand(e, frame)?;
        v.as_scalar().cloned().ok_or_else(|| type_error(what()))
    }

    /// The values a query binds, then the query, on a settled clock.
    fn query(&self, q: &LQuery<'p>, frame: &Frame) -> DbResult<Arc<ResultSet>> {
        let mut params = HashMap::new();
        for (name, bind) in &q.binds {
            let v = self.scalar(bind, frame, || format!(":{name} not scalar"))?;
            params.insert(name.to_string(), v);
        }
        self.settle();
        self.session.remote().query(q.plan, &params)
    }

    fn eval(&self, e: &LExpr<'p>, frame: &Frame) -> DbResult<RtVal> {
        match e {
            LExpr::Var(_) | LExpr::Lit(_) => Ok(self.operand(e, frame)?.into_owned()),
            LExpr::Bin(op, l, r) => {
                let lv = self.operand(l, frame)?;
                let rv = self.operand(r, frame)?;
                match (lv.as_scalar(), rv.as_scalar()) {
                    (Some(a), Some(b)) => Ok(RtVal::Scalar(apply_bin_op(*op, a, b)?)),
                    _ => Err(type_error("binary op on non-scalars")),
                }
            }
            LExpr::Not(inner) => match self.operand(inner, frame)?.as_scalar() {
                Some(Value::Bool(b)) => Ok(RtVal::Scalar(Value::Bool(!b))),
                Some(Value::Null) => Ok(RtVal::Scalar(Value::Null)),
                _ => Err(type_error("NOT on non-boolean")),
            },
            LExpr::Field(base, name, site) => {
                let read = |r: &RowObj| site.read(&r.row, name).map(RtVal::Scalar);
                match &*self.operand(base, frame)? {
                    RtVal::Row(r) => read(r),
                    // Single-row convention (the ORM `uniqueResult` idiom,
                    // same as cache lookups): a one-row collection behaves
                    // as the row itself. Codegen relies on this when it
                    // lowers association navigation to a point query and
                    // reads the result's columns.
                    RtVal::Collection(c) => match c.lock().unwrap().as_slice() {
                        [RtVal::Row(r)] => read(r),
                        items => Err(type_error(format!(
                            "field access .{name} on a {}-row collection",
                            items.len()
                        ))),
                    },
                    _ => Err(type_error(format!("field access .{name} on non-row"))),
                }
            }
            LExpr::Nav(base, field) => {
                let v = self.operand(base, frame)?;
                let RtVal::Row(r) = &*v else {
                    return Err(type_error(format!("navigation .{field} on non-row")));
                };
                let entity = r.entity.as_deref().ok_or_else(|| {
                    DbError::Invalid(format!("navigation .{field} requires an entity-mapped row"))
                })?;
                self.settle();
                match self.session.navigate(entity, field, &r.row)? {
                    Some((target, row)) => Ok(RtVal::Row(RowObj {
                        row,
                        entity: Some(tag(&mut self.tags.borrow_mut(), target)),
                    })),
                    None => Ok(RtVal::Scalar(Value::Null)),
                }
            }
            LExpr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.scalar(a, frame, || format!("{f} argument not scalar"))?);
                }
                Ok(RtVal::Scalar(self.session.remote().funcs().call(f, &vals)?))
            }
            LExpr::LoadAll(entity, tag) => {
                self.settle();
                Ok(rows_of(self.session.load_all(entity)?, Some(tag)))
            }
            LExpr::Query(q) => Ok(rows_of(self.query(q, frame)?, q.entity.as_ref())),
            LExpr::ScalarQuery(q) => {
                let result = self.query(q, frame)?;
                let none = result.is_empty() || result.schema().is_empty();
                let v = if none {
                    Value::Null
                } else {
                    result.value(0, 0)
                };
                Ok(RtVal::Scalar(v))
            }
            LExpr::LookupCache(cache, key) => {
                let k = self.scalar(key, frame, || "cache key must be scalar".into())?;
                match &frame[cache.slot] {
                    // Single-row convention: a unique match evaluates to
                    // the row itself (paper: `cust = lookupCache(...)`),
                    // multiple matches to a collection.
                    Some(RtVal::Cache(c)) => Ok(match &*c.lookup(&k) {
                        [one] => RtVal::Row(one.clone()),
                        hits => RtVal::Collection(Arc::new(Mutex::new(
                            hits.iter().cloned().map(RtVal::Row).collect(),
                        ))),
                    }),
                    _ => Err(DbError::Invalid(format!("{} is not a cache", cache.name))),
                }
            }
            LExpr::MapGet(m, k) => {
                let key = self.scalar(k, frame, || "map key must be scalar".into())?;
                match &*self.operand(m, frame)? {
                    RtVal::Map(inner) => {
                        let found = inner.lock().unwrap().get(&key).cloned();
                        Ok(found.unwrap_or(RtVal::Scalar(Value::Null)))
                    }
                    _ => Err(type_error("get() on non-map")),
                }
            }
            LExpr::Len(c) => {
                let n = match &*self.operand(c, frame)? {
                    RtVal::Collection(inner) => inner.lock().unwrap().len(),
                    RtVal::Map(inner) => inner.lock().unwrap().len(),
                    RtVal::Cache(inner) => inner.len(),
                    _ => return Err(type_error("size() on non-container")),
                };
                Ok(RtVal::Scalar(Value::Int(n as i64)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Column, DataType, Database, Schema};
    use netsim::Clock;
    use orm::EntityMapping;

    fn fixture() -> (Session, Arc<Clock>) {
        fixture_at(Prices::default())
    }

    fn fixture_at(prices: Prices) -> (Session, Arc<Clock>) {
        let mut db = Database::new();
        let orders = Schema::new(vec![
            Column::new("o_id", DataType::Int),
            Column::new("o_customer_sk", DataType::Int),
            Column::new("o_amount", DataType::Int),
        ]);
        let t = db.create_table("orders", orders).unwrap();
        t.set_primary_key("o_id").unwrap();
        for i in 0..12i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 4), Value::Int(10 * i)])
                .unwrap();
        }
        let customer = Schema::new(vec![
            Column::new("c_customer_sk", DataType::Int),
            Column::new("c_birth_year", DataType::Int),
        ]);
        let t = db.create_table("customer", customer).unwrap();
        t.set_primary_key("c_customer_sk").unwrap();
        for i in 0..4i64 {
            t.insert(vec![Value::Int(i), Value::Int(1960 + i)]).unwrap();
        }
        db.analyze_all();

        let mut funcs = FuncRegistry::with_builtins();
        funcs.register("myFunc", DataType::Int, |args| {
            let a = args[0].as_i64().unwrap_or(0);
            let b = args[1].as_i64().unwrap_or(0);
            Ok(Value::Int(a * 10_000 + b))
        });

        let remote = Arc::new(RemoteDb::new(
            minidb::shared(db),
            Arc::new(funcs),
            NetworkProfile::new("test", 8e9, 1.0),
            prices,
        ));
        let clock = remote.clock().clone();
        let mut reg = MappingRegistry::new();
        reg.register(EntityMapping::new("Order", "orders", "o_id").many_to_one(
            "customer",
            "Customer",
            "o_customer_sk",
        ));
        reg.register(EntityMapping::new("Customer", "customer", "c_customer_sk"));
        (Session::new(remote, Arc::new(reg)), clock)
    }

    /// P0 of Figure 3a.
    fn p0() -> Program {
        Program::single(Function::new(
            "processOrders",
            vec!["result".to_string()],
            vec![
                Stmt::new(StmtKind::NewCollection("result".into())),
                Stmt::new(StmtKind::ForEach {
                    var: "o".into(),
                    iter: Expr::LoadAll("Order".into()),
                    body: vec![
                        Stmt::new(StmtKind::Let(
                            "cust".into(),
                            Expr::nav(Expr::var("o"), "customer"),
                        )),
                        Stmt::new(StmtKind::Let(
                            "val".into(),
                            Expr::Call(
                                "myFunc".into(),
                                vec![
                                    Expr::field(Expr::var("o"), "o_id"),
                                    Expr::field(Expr::var("cust"), "c_birth_year"),
                                ],
                            ),
                        )),
                        Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
                    ],
                }),
            ],
        ))
    }

    /// P1 of Figure 3b (join query).
    fn p1() -> Program {
        Program::single(Function::new(
            "processOrders",
            vec!["result".to_string()],
            vec![
                Stmt::new(StmtKind::NewCollection("result".into())),
                Stmt::new(StmtKind::Let(
                    "joinRes".into(),
                    Expr::Query(QuerySpec::sql(
                        "select * from orders o join customer c \
                         on o.o_customer_sk = c.c_customer_sk",
                    )),
                )),
                Stmt::new(StmtKind::ForEach {
                    var: "r".into(),
                    iter: Expr::var("joinRes"),
                    body: vec![
                        Stmt::new(StmtKind::Let(
                            "val".into(),
                            Expr::Call(
                                "myFunc".into(),
                                vec![
                                    Expr::field(Expr::var("r"), "o_id"),
                                    Expr::field(Expr::var("r"), "c_birth_year"),
                                ],
                            ),
                        )),
                        Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
                    ],
                }),
            ],
        ))
    }

    /// P2 of Figure 3c (prefetch + cache lookups).
    fn p2() -> Program {
        Program::single(Function::new(
            "processOrders",
            vec!["result".to_string()],
            vec![
                Stmt::new(StmtKind::NewCollection("result".into())),
                Stmt::new(StmtKind::CacheByColumn {
                    cache: "custCache".into(),
                    source: Expr::LoadAll("Customer".into()),
                    key_col: "c_customer_sk".into(),
                }),
                Stmt::new(StmtKind::ForEach {
                    var: "o".into(),
                    iter: Expr::LoadAll("Order".into()),
                    body: vec![
                        Stmt::new(StmtKind::Let(
                            "cust".into(),
                            Expr::LookupCache(
                                "custCache".into(),
                                Box::new(Expr::field(Expr::var("o"), "o_customer_sk")),
                            ),
                        )),
                        Stmt::new(StmtKind::Let(
                            "val".into(),
                            Expr::Call(
                                "myFunc".into(),
                                vec![
                                    Expr::field(Expr::var("o"), "o_id"),
                                    Expr::field(Expr::var("cust"), "c_birth_year"),
                                ],
                            ),
                        )),
                        Stmt::new(StmtKind::Add("result".into(), Expr::var("val"))),
                    ],
                }),
            ],
        ))
    }

    fn run(program: &Program) -> (Outcome, Session) {
        let (session, _clock) = fixture();
        let outcome = Interp::new(&session, program).run(vec![]).unwrap();
        (outcome, session)
    }

    #[test]
    fn p0_produces_expected_results_with_n_plus_one_queries() {
        let (out, _s) = run(&p0());
        let Snapshot::List(items) = out.var_snapshot("result") else {
            panic!()
        };
        assert_eq!(items.len(), 12);
        assert_eq!(items[0], Snapshot::Scalar(Value::Int(1960)));
        assert_eq!(items[5], Snapshot::Scalar(Value::Int(5 * 10_000 + 1961)));
        // 1 loadAll + 4 distinct customer lookups.
        assert_eq!(out.round_trips, 5);
    }

    #[test]
    fn p1_and_p2_compute_the_same_result_with_fewer_round_trips() {
        let (out0, _) = run(&p0());
        let (out1, _) = run(&p1());
        let (out2, _) = run(&p2());
        let r0 = out0.var_snapshot("result").normalized();
        let r1 = out1.var_snapshot("result").normalized();
        let r2 = out2.var_snapshot("result").normalized();
        assert_eq!(r0, r1, "P1 rewrite preserves semantics");
        assert_eq!(r0, r2, "P2 rewrite preserves semantics");
        assert_eq!(out1.round_trips, 1, "single join query");
        assert_eq!(out2.round_trips, 2, "two table fetches");
    }

    #[test]
    fn statement_costs_accumulate_on_the_clock() {
        let (session, clock) = fixture_at(Prices {
            cz_ns: 1000.0,
            ..Prices::default()
        });
        let program = p0();
        let before = clock.now();
        let out = Interp::new(&session, &program).run(vec![]).unwrap();
        assert!(out.stmts_executed > 12 * 3, "loop body re-executes");
        assert!(clock.now() - before >= out.stmts_executed * 1000);
    }

    #[test]
    fn aggregation_loop_like_m0() {
        // Figure 7: sum and cumulative sums in one loop.
        let program = Program::single(Function::new(
            "mySum",
            vec![],
            vec![
                Stmt::new(StmtKind::Let("sum".into(), Expr::lit(0i64))),
                Stmt::new(StmtKind::NewMap("cSum".into())),
                Stmt::new(StmtKind::ForEach {
                    var: "t".into(),
                    iter: Expr::Query(QuerySpec::sql(
                        "select o_id, o_amount from orders order by o_id",
                    )),
                    body: vec![
                        Stmt::new(StmtKind::Let(
                            "sum".into(),
                            Expr::bin(
                                BinOp::Add,
                                Expr::var("sum"),
                                Expr::field(Expr::var("t"), "o_amount"),
                            ),
                        )),
                        Stmt::new(StmtKind::Put(
                            "cSum".into(),
                            Expr::field(Expr::var("t"), "o_id"),
                            Expr::var("sum"),
                        )),
                    ],
                }),
                Stmt::new(StmtKind::Return(Some(Expr::var("sum")))),
            ],
        ));
        let (out, _s) = run(&program);
        assert_eq!(out.ret.snapshot(), Snapshot::Scalar(Value::Int(660)));
        let Snapshot::Map(entries) = out.var_snapshot("cSum") else {
            panic!()
        };
        assert_eq!(entries.len(), 12);
        assert_eq!(entries[2].1, Snapshot::Scalar(Value::Int(30)), "0+10+20");
    }

    #[test]
    fn if_and_while_and_break() {
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![
                Stmt::new(StmtKind::Let("i".into(), Expr::lit(0i64))),
                Stmt::new(StmtKind::While {
                    cond: Expr::lit(true),
                    body: vec![
                        Stmt::new(StmtKind::Let(
                            "i".into(),
                            Expr::bin(BinOp::Add, Expr::var("i"), Expr::lit(1i64)),
                        )),
                        Stmt::new(StmtKind::If {
                            cond: Expr::bin(BinOp::Ge, Expr::var("i"), Expr::lit(5i64)),
                            then_branch: vec![Stmt::new(StmtKind::Break)],
                            else_branch: vec![],
                        }),
                    ],
                }),
            ],
        ));
        let (out, _) = run(&program);
        assert_eq!(out.var_snapshot("i"), Snapshot::Scalar(Value::Int(5)));
    }

    #[test]
    fn user_function_calls() {
        let program = Program {
            functions: vec![
                Function::new(
                    "main",
                    vec![],
                    vec![Stmt::new(StmtKind::LetCall(
                        "x".into(),
                        "double".into(),
                        vec![Expr::lit(21i64)],
                    ))],
                ),
                Function::new(
                    "double",
                    vec!["n".to_string()],
                    vec![Stmt::new(StmtKind::Return(Some(Expr::bin(
                        BinOp::Mul,
                        Expr::var("n"),
                        Expr::lit(2i64),
                    ))))],
                ),
            ],
        };
        let (out, _) = run(&program);
        assert_eq!(out.var_snapshot("x"), Snapshot::Scalar(Value::Int(42)));
    }

    #[test]
    fn update_query_mutates_database() {
        let (session, _clock) = fixture();
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![Stmt::new(StmtKind::UpdateQuery {
                table: "orders".into(),
                set_col: "o_amount".into(),
                value: Expr::lit(777i64),
                key_col: "o_id".into(),
                key: Expr::lit(3i64),
            })],
        ));
        Interp::new(&session, &program).run(vec![]).unwrap();
        let db = session.remote().database().read().unwrap();
        assert_eq!(db.table("orders").unwrap().rows()[3][2], Value::Int(777));
    }

    #[test]
    fn update_query_finds_its_rows_by_sql_equality() {
        let (session, _clock) = fixture();
        let unowned = vec![Value::Int(12), Value::Null, Value::Int(120)];
        let db = session.remote().database().clone();
        let orders = |db: &mut Database| db.table_mut("orders").unwrap().insert(unowned);
        orders(&mut db.write().unwrap()).unwrap();
        let update = |key_col: &str, key: Value| {
            let program = Program::single(Function::new(
                "f",
                vec![],
                vec![Stmt::new(StmtKind::UpdateQuery {
                    table: "orders".into(),
                    set_col: "o_amount".into(),
                    value: Expr::lit(777i64),
                    key_col: key_col.into(),
                    key: Expr::Lit(key),
                })],
            ));
            Interp::new(&session, &program).run(vec![]).unwrap();
        };
        // `o_id = 3.0` holds on order 3, through the primary-key index;
        // `o_customer_sk = NULL` on no order, the unowned one included.
        update("o_id", Value::Float(3.0));
        update("o_customer_sk", Value::Null);
        let db = db.read().unwrap();
        let orders = db.table("orders").unwrap().rows();
        let amounts: Vec<Value> = orders.iter().map(|r| r[2].clone()).collect();
        assert_eq!(amounts[3], Value::Int(777));
        assert_eq!(amounts[12], Value::Int(120));
        let changed = amounts.iter().filter(|a| **a == Value::Int(777));
        assert_eq!(changed.count(), 1);
    }

    #[test]
    fn cache_by_a_column_the_rows_lack_fails_the_statement() {
        // As the query a lookup replaces would: `where nosuch = :k` does not
        // bind, `where o_id = :k` over a self-join is ambiguous.
        let cache = |sql: &str, key_col: &str| {
            let program = Program::single(Function::new(
                "f",
                vec![],
                vec![Stmt::new(StmtKind::CacheByColumn {
                    cache: "c".into(),
                    source: Expr::Query(QuerySpec::sql(sql)),
                    key_col: key_col.into(),
                })],
            ));
            let (session, _clock) = fixture();
            Interp::new(&session, &program).run(vec![]).map(|_| ())
        };
        let twice = "select * from orders a join orders b on a.o_id = b.o_id";
        assert_eq!(cache("select * from orders", "o_id"), Ok(()));
        assert_eq!(cache(twice, "a.o_id"), Ok(()));
        assert_eq!(
            cache("select * from orders", "nosuch"),
            Err(DbError::UnknownColumn("nosuch".into()))
        );
        assert_eq!(
            cache(twice, "o_id"),
            Err(DbError::AmbiguousColumn("o_id".into()))
        );
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![Stmt::new(StmtKind::Print(Expr::var("ghost")))],
        ));
        let (session, _) = fixture();
        assert!(Interp::new(&session, &program).run(vec![]).is_err());
    }

    #[test]
    fn normalized_outcomes_compare_order_insensitively() {
        // P0 and P1 produce `result` in different orders on the wire, and
        // print it; the normalized observables must still agree.
        let mut with_print = p0();
        with_print.functions[0]
            .body
            .push(Stmt::new(StmtKind::Print(Expr::var("result"))));
        let mut p1_print = p1();
        p1_print.functions[0]
            .body
            .push(Stmt::new(StmtKind::Print(Expr::var("result"))));
        let (a, _) = run(&with_print);
        let (b, _) = run(&p1_print);
        assert_eq!(
            a.normalized_with_vars(&["result"]),
            b.normalized_with_vars(&["result"])
        );
        // An observed variable that only one run binds diverges.
        assert_ne!(
            a.normalized_with_vars(&["result", "ghost_var"]),
            a.normalized_with_vars(&["result"])
        );
        // Print values carry deep snapshots in print order.
        assert_eq!(a.print_values.len(), 1);
        assert!(matches!(a.print_values[0], Snapshot::List(_)));
    }

    #[test]
    fn prints_are_captured_in_order() {
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![
                Stmt::new(StmtKind::Print(Expr::lit(1i64))),
                Stmt::new(StmtKind::Print(Expr::lit(2i64))),
            ],
        ));
        let (out, _) = run(&program);
        let printed = [1i64, 2].map(|v| Snapshot::Scalar(Value::Int(v)));
        assert_eq!(out.print_values, printed);
    }

    #[test]
    fn try_catch_executes_body_only() {
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![Stmt::new(StmtKind::TryCatch {
                body: vec![Stmt::new(StmtKind::Let("x".into(), Expr::lit(1i64)))],
                handler: vec![Stmt::new(StmtKind::Let("x".into(), Expr::lit(2i64)))],
            })],
        ));
        let (out, _) = run(&program);
        assert_eq!(out.var_snapshot("x"), Snapshot::Scalar(Value::Int(1)));
    }

    #[test]
    fn single_row_query_results_support_field_access() {
        // The unique-result convention: codegen lowers `o.customer` to a
        // point query and reads fields off the one-row result.
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![
                Stmt::new(StmtKind::Let(
                    "row".into(),
                    Expr::Query(QuerySpec::sql(
                        "select * from customer where c_customer_sk = 2",
                    )),
                )),
                Stmt::new(StmtKind::Let(
                    "year".into(),
                    Expr::field(Expr::var("row"), "c_birth_year"),
                )),
            ],
        ));
        let (out, _) = run(&program);
        assert_eq!(out.var_snapshot("year"), Snapshot::Scalar(Value::Int(1962)));
        // Multi-row results still reject field access.
        let bad = Program::single(Function::new(
            "f",
            vec![],
            vec![
                Stmt::new(StmtKind::Let(
                    "rows".into(),
                    Expr::Query(QuerySpec::sql("select * from orders")),
                )),
                Stmt::new(StmtKind::Let(
                    "x".into(),
                    Expr::field(Expr::var("rows"), "o_id"),
                )),
            ],
        ));
        let (session, _) = fixture();
        assert!(Interp::new(&session, &bad).run(vec![]).is_err());
    }

    #[test]
    fn query_results_support_navigation_when_single_table() {
        // select * from orders where ... keeps the Order entity tag, so
        // navigation still works on the result rows.
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![
                Stmt::new(StmtKind::Let(
                    "rows".into(),
                    Expr::Query(QuerySpec::sql("select * from orders where o_id = 1")),
                )),
                Stmt::new(StmtKind::ForEach {
                    var: "o".into(),
                    iter: Expr::var("rows"),
                    body: vec![Stmt::new(StmtKind::Let(
                        "year".into(),
                        Expr::field(Expr::nav(Expr::var("o"), "customer"), "c_birth_year"),
                    ))],
                }),
            ],
        ));
        let (out, _) = run(&program);
        assert_eq!(out.var_snapshot("year"), Snapshot::Scalar(Value::Int(1961)));
    }

    fn let_(v: &str, e: Expr) -> Stmt {
        Stmt::new(StmtKind::Let(v.into(), e))
    }

    fn for_each(var: &str, iter: Expr, body: Vec<Stmt>) -> Stmt {
        let var = var.into();
        Stmt::new(StmtKind::ForEach { var, iter, body })
    }

    fn if_(cond: Expr, then_branch: Vec<Stmt>) -> Stmt {
        Stmt::new(StmtKind::If {
            cond,
            then_branch,
            else_branch: vec![],
        })
    }

    fn query(sql: &str) -> Expr {
        Expr::Query(QuerySpec::sql(sql))
    }

    fn int(v: i64) -> Snapshot {
        Snapshot::Scalar(Value::Int(v))
    }

    #[test]
    fn a_fetched_row_keeps_its_values_across_a_later_update() {
        // A result holds the columns the table had when the query ran, and
        // a scan's are the table's own. The update replaces them; it must
        // not write through them.
        let is_3 = Expr::bin(
            BinOp::Eq,
            Expr::field(Expr::var("o"), "o_id"),
            Expr::lit(3i64),
        );
        let program = Program::single(Function::new(
            "f",
            vec![],
            vec![
                for_each(
                    "o",
                    query("select * from orders"),
                    vec![if_(is_3, vec![let_("held", Expr::var("o"))])],
                ),
                Stmt::new(StmtKind::UpdateQuery {
                    table: "orders".into(),
                    set_col: "o_amount".into(),
                    value: Expr::lit(777i64),
                    key_col: "o_id".into(),
                    key: Expr::lit(3i64),
                }),
                let_("before", Expr::field(Expr::var("held"), "o_amount")),
                let_(
                    "after",
                    Expr::field(query("select * from orders where o_id = 3"), "o_amount"),
                ),
            ],
        ));
        let (out, _) = run(&program);
        assert_eq!(out.var_snapshot("before"), int(30));
        assert_eq!(out.var_snapshot("after"), int(777));
    }

    #[test]
    fn a_loop_runs_over_the_collection_as_it_was_when_the_loop_began() {
        let add = |c: &str, e: Expr| Stmt::new(StmtKind::Add(c.into(), e));
        let one_more = Expr::bin(BinOp::Add, Expr::var("n"), Expr::lit(1i64));
        let program = Program::single(Function::new(
            "f",
            vec!["c".to_string()],
            vec![
                add("c", Expr::lit(7i64)),
                add("c", Expr::lit(8i64)),
                add("c", Expr::lit(9i64)),
                let_("n", Expr::lit(0i64)),
                for_each(
                    "x",
                    Expr::var("c"),
                    vec![add("c", Expr::var("x")), let_("n", one_more)],
                ),
                let_("len", Expr::Len(Box::new(Expr::var("c")))),
            ],
        ));
        let (out, _) = run(&program);
        assert_eq!(out.var_snapshot("n"), int(3));
        assert_eq!(out.var_snapshot("len"), int(6));
    }

    #[test]
    fn a_name_nothing_defines_fails_its_statement_not_the_program() {
        let with = |taken: bool| {
            Program::single(Function::new(
                "f",
                vec![],
                vec![if_(
                    Expr::lit(taken),
                    vec![
                        Stmt::new(StmtKind::LetCall("y".into(), "nosuch".into(), vec![])),
                        let_("z", Expr::var("ghost")),
                    ],
                )],
            ))
        };
        let (out, _) = run(&with(false));
        assert_eq!(out.stmts_executed, 1);
        let (session, _) = fixture();
        let err = Interp::new(&session, &with(true)).run(vec![]).unwrap_err();
        assert!(err.to_string().contains("unknown function nosuch"), "{err}");
    }

    #[test]
    fn one_field_site_reads_rows_of_two_schemas() {
        // `r.o_id` in `id_of` meets `o_id` in column 0, then 1, then 0.
        let pick = |var: &str, sql: &str| {
            let call = StmtKind::LetCall(var.into(), "id_of".into(), vec![Expr::var("r")]);
            for_each("r", query(sql), vec![Stmt::new(call)])
        };
        let id_of = Stmt::new(StmtKind::Return(Some(Expr::field(Expr::var("r"), "o_id"))));
        let program = Program {
            functions: vec![
                Function::new(
                    "main",
                    vec![],
                    vec![
                        pick("a", "select o_id, o_amount from orders where o_id = 5"),
                        pick("b", "select o_amount, o_id from orders where o_id = 7"),
                        pick("c", "select o_id, o_amount from orders where o_id = 9"),
                    ],
                ),
                Function::new("id_of", vec!["r".to_string()], vec![id_of]),
            ],
        };
        let (out, _) = run(&program);
        let ids = ["a", "b", "c"].map(|v| out.var_snapshot(v));
        assert_eq!(ids, [int(5), int(7), int(9)]);
    }

    #[test]
    fn recursion_is_bounded_not_refused() {
        // f(n) { if (n <= 0) { return 0; } y = f(n - 1); return y + 1; }
        let n = || Expr::var("n");
        let f = Function::new(
            "f",
            vec!["n".to_string()],
            vec![
                if_(
                    Expr::bin(BinOp::Le, n(), Expr::lit(0i64)),
                    vec![Stmt::new(StmtKind::Return(Some(Expr::lit(0i64))))],
                ),
                Stmt::new(StmtKind::LetCall(
                    "y".into(),
                    "f".into(),
                    vec![Expr::bin(BinOp::Sub, n(), Expr::lit(1i64))],
                )),
                Stmt::new(StmtKind::Return(Some(Expr::bin(
                    BinOp::Add,
                    Expr::var("y"),
                    Expr::lit(1i64),
                )))),
            ],
        );
        let calling_with = |n: i64| {
            let call = StmtKind::LetCall("x".into(), "f".into(), vec![Expr::lit(n)]);
            let main = Function::new("main", vec![], vec![Stmt::new(call)]);
            Program {
                functions: vec![main, f.clone()],
            }
        };
        let (out, _) = run(&calling_with(10));
        assert_eq!(out.var_snapshot("x"), int(10));
        // One block per activation, main's included, and the last `if`'s.
        let deepest = MAX_DEPTH as i64 - 3;
        let (out, _) = run(&calling_with(deepest));
        assert_eq!(out.var_snapshot("x"), int(deepest));
        let (session, clock) = fixture();
        let err = Interp::new(&session, &calling_with(deepest + 1))
            .run(vec![])
            .unwrap_err();
        assert!(matches!(&err, DbError::Invalid(why) if why.contains("nest deeper")));
        // What the failed run executed is on the clock all the same: the
        // call in main, `if` and call in every activation, the last `if`.
        assert_eq!(clock.now(), 30 * (1 + 2 * (deepest as u64 + 1) + 1));
    }
}
