//! The wire codec: a dependency-free binary encoding of requests and
//! responses.
//!
//! The protocol carries whole imperative programs (there is no textual
//! parser for the mini language, so the AST itself is the interchange
//! format). Every enum is encoded as a tag byte plus payload; strings
//! and sequences are u32-length-prefixed; multi-byte integers are
//! big-endian. Embedded query plans travel as SQL text via
//! [`minidb::sql::print`] — the printer is parse-idempotent, so decoding
//! with [`minidb::sql::parse`] and encoding again yields the same bytes —
//! and [`put_program`]'s bytes are a program's identity: the plan cache
//! keys on a hash of them ([`crate::program_fingerprint`]), computed over
//! a [`SubmitFrame`]'s program slice without decoding it.

use crate::error::ServerError;
use crate::plan_cache::CacheOutcome;
use crate::service::{ServerCounters, SubmitReply};
use imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use interp::{NormalizedOutcome, Snapshot};
use minidb::{BinOp, CacheStamp, PlanFingerprint, Value};

type Result<T> = std::result::Result<T, ServerError>;

fn bad(what: &str) -> ServerError {
    ServerError::Protocol(format!("malformed frame: {what}"))
}

/// Append-only frame builder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The finished frame body.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Deepest expression/statement nesting a frame may carry. Decoding
/// recurses once per nested tag, and a stack overflow aborts the process
/// (panic isolation cannot catch it), so depth is bounded here with a
/// typed error. Generated and Wilos programs nest < 20.
const MAX_DEPTH: usize = 128;

/// Most elements a sequence pre-allocates for. A length prefix is bounded
/// by the bytes that remain, but `with_capacity(n)` multiplies that by
/// the element size; past this the `Vec` grows as elements really decode.
const PREALLOC_CAP: usize = 1024;

/// Cursor over a received frame body.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Open [`ByteReader::nested`] levels.
    depth: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// True when every byte has been consumed (frames must be exact).
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad("overflow"))?;
        if end > self.buf.len() {
            return Err(bad("truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("bool")),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("utf-8"))
    }

    fn len(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        // A length prefix can never exceed the bytes that remain; checking
        // here keeps a corrupt frame from provoking a huge allocation.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(bad("length prefix"));
        }
        Ok(n)
    }

    /// Decode a length-prefixed sequence, one `item` call per element.
    pub(crate) fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Decode one nesting level down; fails once [`MAX_DEPTH`] levels are
    /// open. Every self-recursive decoder goes through here.
    fn nested<T>(&mut self, decode: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(bad("nesting depth"));
        }
        self.depth += 1;
        let out = decode(self);
        self.depth -= 1;
        out
    }
}

// ---- scalar layer -------------------------------------------------------

fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(2);
            w.f64(*f);
        }
        Value::Str(s) => {
            w.u8(3);
            w.str(s);
        }
        Value::Bool(b) => {
            w.u8(4);
            w.bool(*b);
        }
    }
}

fn get_value(r: &mut ByteReader) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Float(r.f64()?),
        3 => Value::Str(r.str()?),
        4 => Value::Bool(r.bool()?),
        _ => return Err(bad("value tag")),
    })
}

const BIN_OPS: [BinOp; 12] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::And,
    BinOp::Or,
];

fn put_bin_op(w: &mut ByteWriter, op: BinOp) {
    let code = BIN_OPS.iter().position(|o| *o == op).unwrap() as u8;
    w.u8(code);
}

fn get_bin_op(r: &mut ByteReader) -> Result<BinOp> {
    let code = r.u8()? as usize;
    BIN_OPS.get(code).copied().ok_or_else(|| bad("binop tag"))
}

// ---- expression / statement layer ---------------------------------------

fn put_query(w: &mut ByteWriter, q: &QuerySpec) {
    w.str(&minidb::sql::print(q.plan.as_plan()));
    w.len(q.binds.len());
    for (name, e) in &q.binds {
        w.str(name);
        put_expr(w, e);
    }
}

fn get_query(r: &mut ByteReader) -> Result<QuerySpec> {
    let sql = r.str()?;
    let plan = minidb::sql::parse(&sql)
        .map_err(|e| ServerError::Protocol(format!("embedded SQL failed to parse: {e}")))?;
    let binds = r.seq(|r| Ok((r.str()?, get_expr(r)?)))?;
    Ok(QuerySpec {
        plan: plan.into(),
        binds,
    })
}

fn put_expr(w: &mut ByteWriter, e: &Expr) {
    match e {
        Expr::Var(v) => {
            w.u8(0);
            w.str(v);
        }
        Expr::Lit(v) => {
            w.u8(1);
            put_value(w, v);
        }
        Expr::Bin(op, l, r) => {
            w.u8(2);
            put_bin_op(w, *op);
            put_expr(w, l);
            put_expr(w, r);
        }
        Expr::Not(e) => {
            w.u8(3);
            put_expr(w, e);
        }
        Expr::Field(b, name) => {
            w.u8(4);
            put_expr(w, b);
            w.str(name);
        }
        Expr::Nav(b, assoc) => {
            w.u8(5);
            put_expr(w, b);
            w.str(assoc);
        }
        Expr::Call(name, args) => {
            w.u8(6);
            w.str(name);
            w.len(args.len());
            for a in args {
                put_expr(w, a);
            }
        }
        Expr::LoadAll(entity) => {
            w.u8(7);
            w.str(entity);
        }
        Expr::Query(q) => {
            w.u8(8);
            put_query(w, q);
        }
        Expr::ScalarQuery(q) => {
            w.u8(9);
            put_query(w, q);
        }
        Expr::LookupCache(cache, key) => {
            w.u8(10);
            w.str(cache);
            put_expr(w, key);
        }
        Expr::MapGet(m, k) => {
            w.u8(11);
            put_expr(w, m);
            put_expr(w, k);
        }
        Expr::Len(e) => {
            w.u8(12);
            put_expr(w, e);
        }
    }
}

fn get_expr(r: &mut ByteReader) -> Result<Expr> {
    r.nested(|r| {
        Ok(match r.u8()? {
            0 => Expr::Var(r.str()?),
            1 => Expr::Lit(get_value(r)?),
            2 => {
                let op = get_bin_op(r)?;
                Expr::Bin(op, Box::new(get_expr(r)?), Box::new(get_expr(r)?))
            }
            3 => Expr::Not(Box::new(get_expr(r)?)),
            4 => {
                let b = get_expr(r)?;
                Expr::Field(Box::new(b), r.str()?)
            }
            5 => {
                let b = get_expr(r)?;
                Expr::Nav(Box::new(b), r.str()?)
            }
            6 => {
                let name = r.str()?;
                Expr::Call(name, r.seq(get_expr)?)
            }
            7 => Expr::LoadAll(r.str()?),
            8 => Expr::Query(get_query(r)?),
            9 => Expr::ScalarQuery(get_query(r)?),
            10 => {
                let cache = r.str()?;
                Expr::LookupCache(cache, Box::new(get_expr(r)?))
            }
            11 => {
                let m = get_expr(r)?;
                Expr::MapGet(Box::new(m), Box::new(get_expr(r)?))
            }
            12 => Expr::Len(Box::new(get_expr(r)?)),
            _ => return Err(bad("expr tag")),
        })
    })
}

fn put_stmts(w: &mut ByteWriter, stmts: &[Stmt]) {
    w.len(stmts.len());
    for s in stmts {
        put_stmt(w, s);
    }
}

fn get_stmts(r: &mut ByteReader) -> Result<Vec<Stmt>> {
    r.seq(get_stmt)
}

fn put_stmt(w: &mut ByteWriter, s: &Stmt) {
    w.u32(s.line);
    match &s.kind {
        StmtKind::Let(v, e) => {
            w.u8(0);
            w.str(v);
            put_expr(w, e);
        }
        StmtKind::NewCollection(v) => {
            w.u8(1);
            w.str(v);
        }
        StmtKind::NewMap(v) => {
            w.u8(2);
            w.str(v);
        }
        StmtKind::Add(v, e) => {
            w.u8(3);
            w.str(v);
            put_expr(w, e);
        }
        StmtKind::Put(v, k, val) => {
            w.u8(4);
            w.str(v);
            put_expr(w, k);
            put_expr(w, val);
        }
        StmtKind::ForEach { var, iter, body } => {
            w.u8(5);
            w.str(var);
            put_expr(w, iter);
            put_stmts(w, body);
        }
        StmtKind::While { cond, body } => {
            w.u8(6);
            put_expr(w, cond);
            put_stmts(w, body);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            w.u8(7);
            put_expr(w, cond);
            put_stmts(w, then_branch);
            put_stmts(w, else_branch);
        }
        StmtKind::Print(e) => {
            w.u8(8);
            put_expr(w, e);
        }
        StmtKind::Return(e) => {
            w.u8(9);
            match e {
                Some(e) => {
                    w.bool(true);
                    put_expr(w, e);
                }
                None => w.bool(false),
            }
        }
        StmtKind::Break => w.u8(10),
        StmtKind::CacheByColumn {
            cache,
            source,
            key_col,
        } => {
            w.u8(11);
            w.str(cache);
            put_expr(w, source);
            w.str(key_col);
        }
        StmtKind::UpdateQuery {
            table,
            set_col,
            value,
            key_col,
            key,
        } => {
            w.u8(12);
            w.str(table);
            w.str(set_col);
            put_expr(w, value);
            w.str(key_col);
            put_expr(w, key);
        }
        StmtKind::LetCall(v, f, args) => {
            w.u8(13);
            w.str(v);
            w.str(f);
            w.len(args.len());
            for a in args {
                put_expr(w, a);
            }
        }
        StmtKind::TryCatch { body, handler } => {
            w.u8(14);
            put_stmts(w, body);
            put_stmts(w, handler);
        }
    }
}

fn get_stmt(r: &mut ByteReader) -> Result<Stmt> {
    r.nested(|r| {
        let line = r.u32()?;
        let kind = match r.u8()? {
            0 => {
                let v = r.str()?;
                StmtKind::Let(v, get_expr(r)?)
            }
            1 => StmtKind::NewCollection(r.str()?),
            2 => StmtKind::NewMap(r.str()?),
            3 => {
                let v = r.str()?;
                StmtKind::Add(v, get_expr(r)?)
            }
            4 => {
                let v = r.str()?;
                let k = get_expr(r)?;
                StmtKind::Put(v, k, get_expr(r)?)
            }
            5 => {
                let var = r.str()?;
                let iter = get_expr(r)?;
                StmtKind::ForEach {
                    var,
                    iter,
                    body: get_stmts(r)?,
                }
            }
            6 => {
                let cond = get_expr(r)?;
                StmtKind::While {
                    cond,
                    body: get_stmts(r)?,
                }
            }
            7 => {
                let cond = get_expr(r)?;
                let then_branch = get_stmts(r)?;
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch: get_stmts(r)?,
                }
            }
            8 => StmtKind::Print(get_expr(r)?),
            9 => {
                let some = r.bool()?;
                StmtKind::Return(if some { Some(get_expr(r)?) } else { None })
            }
            10 => StmtKind::Break,
            11 => {
                let cache = r.str()?;
                let source = get_expr(r)?;
                StmtKind::CacheByColumn {
                    cache,
                    source,
                    key_col: r.str()?,
                }
            }
            12 => {
                let table = r.str()?;
                let set_col = r.str()?;
                let value = get_expr(r)?;
                let key_col = r.str()?;
                StmtKind::UpdateQuery {
                    table,
                    set_col,
                    value,
                    key_col,
                    key: get_expr(r)?,
                }
            }
            13 => {
                let v = r.str()?;
                let f = r.str()?;
                StmtKind::LetCall(v, f, r.seq(get_expr)?)
            }
            14 => {
                let body = get_stmts(r)?;
                StmtKind::TryCatch {
                    body,
                    handler: get_stmts(r)?,
                }
            }
            _ => return Err(bad("stmt tag")),
        };
        Ok(Stmt { kind, line })
    })
}

pub(crate) fn put_function(w: &mut ByteWriter, f: &Function) {
    w.str(&f.name);
    w.len(f.params.len());
    for p in &f.params {
        w.str(p);
    }
    put_stmts(w, &f.body);
}

pub(crate) fn get_function(r: &mut ByteReader) -> Result<Function> {
    let name = r.str()?;
    let params = r.seq(|r| r.str())?;
    Ok(Function {
        name,
        params,
        body: get_stmts(r)?,
    })
}

/// Encode a whole program.
pub fn put_program(w: &mut ByteWriter, p: &Program) {
    w.len(p.functions.len());
    for f in &p.functions {
        put_function(w, f);
    }
}

/// Decode a whole program.
pub fn get_program(r: &mut ByteReader) -> Result<Program> {
    let functions = r.seq(get_function)?;
    if functions.is_empty() {
        return Err(bad("empty program"));
    }
    Ok(Program { functions })
}

/// [`put_program`]'s bytes on their own: what identifies the program.
pub fn encode_program(p: &Program) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_program(&mut w, p);
    w.finish()
}

// ---- outcome layer ------------------------------------------------------

fn put_snapshot(w: &mut ByteWriter, s: &Snapshot) {
    match s {
        Snapshot::Unit => w.u8(0),
        Snapshot::Scalar(v) => {
            w.u8(1);
            put_value(w, v);
        }
        Snapshot::Row(vals) => {
            w.u8(2);
            w.len(vals.len());
            for v in vals {
                put_value(w, v);
            }
        }
        Snapshot::List(items) => {
            w.u8(3);
            w.len(items.len());
            for i in items {
                put_snapshot(w, i);
            }
        }
        Snapshot::Map(entries) => {
            w.u8(4);
            w.len(entries.len());
            for (k, v) in entries {
                put_value(w, k);
                put_snapshot(w, v);
            }
        }
    }
}

fn get_snapshot(r: &mut ByteReader) -> Result<Snapshot> {
    r.nested(|r| {
        Ok(match r.u8()? {
            0 => Snapshot::Unit,
            1 => Snapshot::Scalar(get_value(r)?),
            2 => Snapshot::Row(r.seq(get_value)?),
            3 => Snapshot::List(r.seq(get_snapshot)?),
            4 => Snapshot::Map(r.seq(|r| Ok((get_value(r)?, get_snapshot(r)?)))?),
            _ => return Err(bad("snapshot tag")),
        })
    })
}

fn put_outcome(w: &mut ByteWriter, o: &NormalizedOutcome) {
    w.len(o.vars.len());
    for (name, snap) in &o.vars {
        w.str(name);
        put_snapshot(w, snap);
    }
    put_snapshot(w, &o.ret);
    w.len(o.prints.len());
    for p in &o.prints {
        put_snapshot(w, p);
    }
}

fn get_outcome(r: &mut ByteReader) -> Result<NormalizedOutcome> {
    let vars = r.seq(|r| Ok((r.str()?, get_snapshot(r)?)))?;
    let ret = get_snapshot(r)?;
    let prints = r.seq(get_snapshot)?;
    Ok(NormalizedOutcome { vars, ret, prints })
}

pub(crate) fn put_stamp(w: &mut ByteWriter, s: &CacheStamp) {
    w.u64(s.instance_id);
    w.u64(s.stats_epoch);
    w.u64(s.feedback_generation);
    w.u8(s.mode);
}

pub(crate) fn get_stamp(r: &mut ByteReader) -> Result<CacheStamp> {
    Ok(CacheStamp {
        instance_id: r.u64()?,
        stats_epoch: r.u64()?,
        feedback_generation: r.u64()?,
        mode: r.u8()?,
    })
}

fn put_reply(w: &mut ByteWriter, reply: &SubmitReply) {
    w.u64(reply.fingerprint.as_u64());
    put_stamp(w, &reply.stamp);
    w.u8(match reply.cache {
        CacheOutcome::Hit => 0,
        CacheOutcome::Miss => 1,
        CacheOutcome::Coalesced => 2,
    });
    w.bool(reply.degraded);
    w.f64(reply.est_cost_ns);
    w.f64(reply.original_cost_ns);
    w.len(reply.tags.len());
    for t in &reply.tags {
        w.str(t);
    }
    w.u64(reply.simulated_ns);
    w.u64(reply.round_trips);
    put_outcome(w, &reply.results);
    w.u64(reply.wall_ns);
}

fn get_reply(r: &mut ByteReader) -> Result<SubmitReply> {
    let fingerprint = PlanFingerprint::from_raw(r.u64()?);
    let stamp = get_stamp(r)?;
    let cache = match r.u8()? {
        0 => CacheOutcome::Hit,
        1 => CacheOutcome::Miss,
        2 => CacheOutcome::Coalesced,
        _ => return Err(bad("cache outcome tag")),
    };
    let degraded = r.bool()?;
    let est_cost_ns = r.f64()?;
    let original_cost_ns = r.f64()?;
    let tags = r.seq(|r| r.str())?;
    Ok(SubmitReply {
        fingerprint,
        stamp,
        cache,
        degraded,
        est_cost_ns,
        original_cost_ns,
        tags,
        simulated_ns: r.u64()?,
        round_trips: r.u64()?,
        results: get_outcome(r)?,
        wall_ns: r.u64()?,
    })
}

// ---- frame layer --------------------------------------------------------

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session against the named tenant.
    OpenSession {
        /// Tenant name (as registered).
        tenant: String,
    },
    /// Submit a program on a session.
    Submit {
        /// The session id.
        session: u64,
        /// Idempotency key (0 = none). A retried submission reusing the
        /// key replays the original reply if the first attempt actually
        /// completed server-side — the work is never done twice.
        idempotency: u64,
        /// The program to optimize and execute.
        program: Program,
    },
    /// Fetch the optimization report for the session's last program.
    Report {
        /// The session id.
        session: u64,
    },
    /// Fetch the server-wide counters.
    Counters,
    /// Close a session.
    CloseSession {
        /// The session id.
        session: u64,
    },
}

/// A `Submit` frame, its program still encoded: the one definition of the
/// layout `[2][session u64][idempotency u64][program…]`, shared by
/// [`Request::encode`], [`Request::decode`], the client and the server.
#[derive(Debug, Clone, Copy)]
pub struct SubmitFrame<'a> {
    /// The session id.
    pub session: u64,
    /// Idempotency key (0 = none).
    pub idempotency: u64,
    /// [`put_program`]'s bytes, to the end of the frame.
    pub program: &'a [u8],
}

impl<'a> SubmitFrame<'a> {
    const TAG: u8 = 2;

    /// The frame body of a submission, from a borrowed program.
    pub fn encode(session: u64, idempotency: u64, program: &Program) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(Self::TAG);
        w.u64(session);
        w.u64(idempotency);
        put_program(&mut w, program);
        w.finish()
    }

    /// Split a frame body at the program; `None` for any other request.
    pub fn parse(body: &'a [u8]) -> Result<Option<SubmitFrame<'a>>> {
        if body.first() != Some(&Self::TAG) {
            return Ok(None);
        }
        let mut r = ByteReader::new(&body[1..]);
        Ok(Some(SubmitFrame {
            session: r.u64()?,
            idempotency: r.u64()?,
            program: &r.buf[r.pos..],
        }))
    }

    /// Decode the program; it must fill its slice exactly.
    pub fn decode_program(&self) -> Result<Program> {
        let mut r = ByteReader::new(self.program);
        let program = get_program(&mut r)?;
        if !r.at_end() {
            return Err(bad("trailing bytes"));
        }
        Ok(program)
    }
}

impl Request {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::OpenSession { tenant } => {
                w.u8(1);
                w.str(tenant);
            }
            Request::Submit {
                session,
                idempotency,
                program,
            } => return SubmitFrame::encode(*session, *idempotency, program),
            Request::Report { session } => {
                w.u8(3);
                w.u64(*session);
            }
            Request::Counters => w.u8(4),
            Request::CloseSession { session } => {
                w.u8(5);
                w.u64(*session);
            }
        }
        w.finish()
    }

    /// Decode a frame body (must consume every byte).
    pub fn decode(buf: &[u8]) -> Result<Request> {
        if let Some(frame) = SubmitFrame::parse(buf)? {
            return Ok(Request::Submit {
                session: frame.session,
                idempotency: frame.idempotency,
                program: frame.decode_program()?,
            });
        }
        let mut r = ByteReader::new(buf);
        let req = match r.u8()? {
            1 => Request::OpenSession { tenant: r.str()? },
            3 => Request::Report { session: r.u64()? },
            4 => Request::Counters,
            5 => Request::CloseSession { session: r.u64()? },
            // Tag 6 is retired (it was `Shutdown`): refused like an
            // unassigned tag, and not to be assigned again.
            _ => return Err(bad("request tag")),
        };
        if !r.at_end() {
            return Err(bad("trailing bytes"));
        }
        Ok(req)
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; `code`/`message` round-trip a
    /// [`ServerError`] (see [`ServerError::code`]).
    Error {
        /// Stable error code.
        code: u8,
        /// Human-readable message.
        message: String,
    },
    /// Session opened.
    SessionOpened {
        /// The new session id.
        session: u64,
    },
    /// Submission succeeded.
    SubmitOk(Box<SubmitReply>),
    /// The optimization report, rendered (reports are for humans; the
    /// structured numbers a client acts on are in [`SubmitReply`]).
    ReportText(String),
    /// Counter snapshot.
    Counters(ServerCounters),
    /// Session closed.
    Closed,
}

impl Response {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Error { code, message } => {
                w.u8(0);
                w.u8(*code);
                w.str(message);
            }
            Response::SessionOpened { session } => {
                w.u8(1);
                w.u64(*session);
            }
            Response::SubmitOk(reply) => {
                w.u8(2);
                put_reply(&mut w, reply);
            }
            Response::ReportText(text) => {
                w.u8(3);
                w.str(text);
            }
            Response::Counters(c) => {
                w.u8(4);
                c.put(&mut w);
            }
            Response::Closed => w.u8(5),
        }
        w.finish()
    }

    /// Decode a frame body (must consume every byte).
    pub fn decode(buf: &[u8]) -> Result<Response> {
        let mut r = ByteReader::new(buf);
        let resp = match r.u8()? {
            0 => {
                let code = r.u8()?;
                Response::Error {
                    code,
                    message: r.str()?,
                }
            }
            1 => Response::SessionOpened { session: r.u64()? },
            2 => Response::SubmitOk(Box::new(get_reply(&mut r)?)),
            3 => Response::ReportText(r.str()?),
            4 => Response::Counters(ServerCounters::get(&mut r)?),
            5 => Response::Closed,
            _ => return Err(bad("response tag")),
        };
        if !r.at_end() {
            return Err(bad("trailing bytes"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::genprog::{GenCase, GenConfig};

    #[test]
    fn programs_roundtrip_over_the_generated_corpus() {
        for seed in 0..40u64 {
            let case = GenCase::from_seed(seed, &GenConfig::default());
            let mut w = ByteWriter::new();
            put_program(&mut w, &case.program);
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes);
            let back = get_program(&mut r).expect("decode");
            assert!(r.at_end(), "seed {seed}: trailing bytes");
            assert_eq!(back, case.program, "seed {seed}: program roundtrip");
        }
    }

    #[test]
    fn roundtrip_preserves_plan_fingerprints() {
        // Cache warmth across the wire depends on this: the decoded
        // program must fingerprint identically to the submitted one.
        use crate::plan_cache::program_fingerprint;
        for seed in [3u64, 17, 29] {
            let case = GenCase::from_seed(seed, &GenConfig::default());
            let mut w = ByteWriter::new();
            put_program(&mut w, &case.program);
            let bytes = w.finish();
            let back = get_program(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(
                program_fingerprint(&back),
                program_fingerprint(&case.program)
            );
        }
    }

    #[test]
    fn requests_and_responses_roundtrip() {
        let case = GenCase::from_seed(5, &GenConfig::default());
        let reqs = [
            Request::OpenSession {
                tenant: "acme".into(),
            },
            Request::Submit {
                session: 42,
                idempotency: 0xFEED,
                program: case.program.clone(),
            },
            Request::Report { session: 42 },
            Request::Counters,
            Request::CloseSession { session: 42 },
        ];
        for req in &reqs {
            assert_eq!(&Request::decode(&req.encode()).unwrap(), req);
        }

        let counters = ServerCounters {
            cache_hits: 10,
            cache_misses: 2,
            coalesced: 3,
            ..ServerCounters::default()
        };
        let resps = [
            Response::Error {
                code: 1,
                message: "overloaded".into(),
            },
            Response::SessionOpened { session: 7 },
            Response::ReportText("== report ==".into()),
            Response::Counters(counters),
            Response::Closed,
        ];
        for resp in &resps {
            assert_eq!(&Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// What a `Counters` reply is on the wire and what an operator reads:
    /// tag 4, then one big-endian `u64` per counter in the order below, and
    /// the four `Display` lines. Every value is distinct, so a counter
    /// that changes position or word shows. Pinned on the hand-written
    /// struct, `Display` and `put_counters`; one word has moved since, on
    /// purpose: `restored_plans` counts restored feedback observations too
    /// and now says so ("restored plans" → "restored plans + observations").
    #[test]
    fn the_counters_reply_and_its_display_line_are_pinned() {
        let counters = ServerCounters {
            cache_hits: 101,
            cache_misses: 202,
            coalesced: 303,
            plans_swapped: 404,
            evicted: 505,
            admitted: 606,
            rejected: 707,
            degraded: 808,
            sessions_opened: 909,
            tenants: 1010,
            executions: 1111,
            drift_swaps: 1212,
            validated_promotions: 1313,
            internal_errors: 1414,
            idempotent_replays: 1515,
            restored_plans: 1616,
            programs_decoded: 1717,
        };
        let on_the_wire: [u64; 17] = [
            101, 202, 303, 404, 505, 606, 707, 808, 909, 1010, 1111, 1212, 1313, 1414, 1515, 1616,
            1717,
        ];
        let mut expected = vec![4u8];
        for v in on_the_wire {
            expected.extend_from_slice(&v.to_be_bytes());
        }
        let bytes = Response::Counters(counters).encode();
        assert_eq!(bytes.len(), 1 + 17 * 8);
        assert_eq!(bytes, expected);
        assert_eq!(
            Response::decode(&bytes).unwrap(),
            Response::Counters(counters)
        );
        assert_eq!(
            counters.to_string(),
            "cache: 101 hits / 202 misses (1717 programs decoded) / 303 coalesced / 404 swapped / \
             505 evicted\n\
             admission: 606 admitted / 707 rejected / 808 degraded\n\
             sessions: 909 opened across 1010 tenants; 1111 executions; 1212 drift sweeps acted; \
             1313 validated promotions\n\
             resilience: 1414 internal errors / 1515 idempotent replays / 1616 restored plans + observations"
        );
    }

    #[test]
    fn a_submit_frame_splits_where_request_encode_put_the_program() {
        use crate::plan_cache::{fingerprint_encoded, program_fingerprint};
        let program = GenCase::from_seed(5, &GenConfig::default()).program;
        let request = Request::Submit {
            session: 42,
            idempotency: 0xFEED,
            program: program.clone(),
        };
        let body = request.encode();
        assert_eq!(body, SubmitFrame::encode(42, 0xFEED, &program));
        let frame = SubmitFrame::parse(&body).unwrap().expect("a Submit");
        assert_eq!((frame.session, frame.idempotency), (42, 0xFEED));
        assert_eq!(frame.program, encode_program(&program));
        // What the server hashes in place is what a client can compute.
        assert_eq!(
            fingerprint_encoded(frame.program),
            program_fingerprint(&program)
        );
        assert_eq!(frame.decode_program().unwrap(), program);

        // Any other request is not a `Submit`; one cut inside its two ids
        // is, and malformed.
        assert!(SubmitFrame::parse(&Request::Counters.encode())
            .unwrap()
            .is_none());
        assert!(SubmitFrame::parse(&[]).unwrap().is_none());
        for cut in 1..17 {
            assert!(SubmitFrame::parse(&body[..cut]).is_err(), "cut at {cut}");
        }
        let empty = SubmitFrame::parse(&body[..17]).unwrap().expect("a Submit");
        assert!(empty.program.is_empty() && empty.decode_program().is_err());
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        // Tag 6 was `Shutdown` / `ShuttingDown`; it is no frame now.
        let err = Request::decode(&[6]).unwrap_err();
        assert!(matches!(&err, ServerError::Protocol(m) if m.contains("request tag")));
        let err = Response::decode(&[6]).unwrap_err();
        assert!(matches!(&err, ServerError::Protocol(m) if m.contains("response tag")));
        assert!(Response::decode(&[2, 0, 0]).is_err(), "truncated reply");
        // A length prefix larger than the frame must not allocate.
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u32(u32::MAX);
        assert!(Request::decode(&w.finish()).is_err());
        // Trailing garbage is rejected.
        let mut ok = Request::Counters.encode();
        ok.push(0);
        assert!(Request::decode(&ok).is_err());
    }

    /// A `Submit` of `let x = !!…!y` that opens `depth` decoder levels
    /// (the statement, `depth - 2` `Not`s, the variable) — written tag by
    /// tag, so hostile depths lean on neither the encoder's recursion nor
    /// `Drop`'s.
    fn submit_nested_to(depth: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(2); // Submit
        w.u64(1); // session
        w.u64(0); // idempotency
        w.len(1); // functions
        w.str("f");
        w.len(0); // params
        w.len(1); // statements
        w.u32(1); // line
        w.u8(0); // Let
        w.str("x");
        for _ in 0..depth - 2 {
            w.u8(3); // Not
        }
        w.u8(0); // Var
        w.str("y");
        w.finish()
    }

    #[test]
    fn nesting_depth_is_bounded_with_a_typed_error() {
        for depth in [3, MAX_DEPTH - 1, MAX_DEPTH] {
            let frame = submit_nested_to(depth);
            let req = Request::decode(&frame).expect("within the budget");
            assert_eq!(req.encode(), frame, "depth {depth} round-trips");
        }
        // One level past the budget, the 5 KB frame that used to overflow
        // a 2 MiB stack (an abort, not a panic), and a far larger one.
        for depth in [MAX_DEPTH + 1, 5_000, 1_000_000] {
            let err = Request::decode(&submit_nested_to(depth)).unwrap_err();
            assert!(
                matches!(&err, ServerError::Protocol(m) if m.contains("nesting depth")),
                "depth {depth}: {err}"
            );
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder() {
        // Regression fuzz: deterministic pseudo-random byte soup must
        // produce `Err(Protocol)` or a valid frame — never a panic or a
        // runaway allocation. (Catching a decoder panic would abort the
        // whole server's reader thread; this is the codec-hardening
        // contract the chaos harness leans on.)
        let mut rng = netsim::StdRng::seed_from_u64(0xBAD_F00D);
        for _ in 0..2000 {
            let len = rng.gen_range(0..96usize);
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                *b = rng.gen_range(0..256u64) as u8;
            }
            let _ = Request::decode(&buf);
            let _ = Response::decode(&buf);
        }
        // Truncations of a real frame are equally harmless.
        let case = GenCase::from_seed(11, &GenConfig::default());
        let full = Request::Submit {
            session: 1,
            idempotency: 7,
            program: case.program,
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }
}
