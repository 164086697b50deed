//! Abstract syntax of the mini language.
//!
//! Statements carry source line numbers so regions can be named the way
//! the paper names them (`P0.L3-7` — loop region of program `P0` spanning
//! lines 3–7). Line numbers are *ignored* by `PartialEq`/`Hash`: two
//! structurally identical fragments are the same region alternative in the
//! Region DAG regardless of where they appeared.

use minidb::{BinOp, SharedPlan, Value};
use std::hash::{Hash, Hasher};

/// An embedded query: a logical plan (parsed from SQL) plus bindings for
/// its named parameters (`:param` → expression evaluated at the call site).
///
/// The plan is [`SharedPlan`] (an `Arc` plus a precomputed structural
/// fingerprint): programs, region operators and memo keys embed the same
/// plans thousands of times, so cloning is a refcount bump and
/// hashing/equality are O(1) fingerprint operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// The query plan.
    pub plan: SharedPlan,
    /// Parameter bindings, in declaration order.
    pub binds: Vec<(String, Expr)>,
}

impl QuerySpec {
    /// A query with no parameters.
    pub fn of(plan: impl Into<SharedPlan>) -> QuerySpec {
        QuerySpec {
            plan: plan.into(),
            binds: Vec::new(),
        }
    }

    /// Parse SQL text into a query spec with no parameters.
    ///
    /// # Panics
    /// Panics on parse errors; intended for statically-known program text.
    pub fn sql(text: &str) -> QuerySpec {
        QuerySpec::of(minidb::sql::parse(text).expect("valid SQL in program text"))
    }

    /// Add a parameter binding.
    pub fn bind(mut self, name: impl Into<String>, expr: Expr) -> QuerySpec {
        self.binds.push((name.into(), expr));
        self
    }
}

/// Expressions. Data access (`LoadAll`, `Query`, `Nav`, `LookupCache`) is
/// expression-valued, mirroring how ORM code reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Variable reference.
    Var(String),
    /// Literal.
    Lit(Value),
    /// Binary operation (shares [`minidb::BinOp`] semantics).
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `obj.field` — read a column of a row object. Pure.
    Field(Box<Expr>, String),
    /// `obj.assoc` — navigate a many-to-one association. May issue a
    /// query (the N+1 select problem) unless the session cache hits.
    Nav(Box<Expr>, String),
    /// Call a registered pure scalar function (e.g. `myFunc`).
    Call(String, Vec<Expr>),
    /// `loadAll(Entity)` — fetch all rows of the entity's table via ORM.
    LoadAll(String),
    /// `executeQuery("…")` — run SQL and return the row collection.
    Query(QuerySpec),
    /// `executeQuery("…")` used as a scalar: first column of the first
    /// result row (the paper's `sum = executeQuery("select sum(…)…")`).
    ScalarQuery(QuerySpec),
    /// `Utils.lookupCache(cache, key)` — client-side column-cache probe.
    /// Returns the list of cached rows whose key column equals `key`.
    LookupCache(String, Box<Expr>),
    /// `map.get(key)`.
    MapGet(Box<Expr>, Box<Expr>),
    /// `collection.size()`.
    Len(Box<Expr>),
}

impl Expr {
    /// Variable shorthand.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Binary-op shorthand.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Field access shorthand.
    pub fn field(base: Expr, name: impl Into<String>) -> Expr {
        Expr::Field(Box::new(base), name.into())
    }

    /// Association navigation shorthand.
    pub fn nav(base: Expr, assoc: impl Into<String>) -> Expr {
        Expr::Nav(Box::new(base), assoc.into())
    }

    /// Call `f` on each direct sub-expression, in evaluation order (a
    /// query's sub-expressions are the values it binds).
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Var(_) | Expr::Lit(_) | Expr::LoadAll(_) => {}
            Expr::Bin(_, l, r) | Expr::MapGet(l, r) => {
                f(l);
                f(r);
            }
            Expr::Not(e)
            | Expr::Len(e)
            | Expr::Field(e, _)
            | Expr::Nav(e, _)
            | Expr::LookupCache(_, e) => f(e),
            Expr::Call(_, args) => args.iter().for_each(f),
            Expr::Query(q) | Expr::ScalarQuery(q) => q.binds.iter().for_each(|(_, e)| f(e)),
        }
    }

    /// [`Expr::for_each_child`] for rebuilding in place.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Var(_) | Expr::Lit(_) | Expr::LoadAll(_) => {}
            Expr::Bin(_, l, r) | Expr::MapGet(l, r) => {
                f(l);
                f(r);
            }
            Expr::Not(e)
            | Expr::Len(e)
            | Expr::Field(e, _)
            | Expr::Nav(e, _)
            | Expr::LookupCache(_, e) => f(e),
            Expr::Call(_, args) => args.iter_mut().for_each(f),
            Expr::Query(q) | Expr::ScalarQuery(q) => q.binds.iter_mut().for_each(|(_, e)| f(e)),
        }
    }

    /// Call `f` on this expression and every expression nested in it,
    /// parents first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }

    /// Collect free variable names into `out` (with duplicates).
    pub fn free_vars(&self, out: &mut Vec<String>) {
        self.walk(&mut |e| {
            if let Expr::Var(v) = e {
                out.push(v.clone());
            }
        });
    }
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StmtKind {
    /// `x = expr` — declaration or assignment.
    Let(String, Expr),
    /// `x = {}` — fresh empty collection.
    NewCollection(String),
    /// `x = new Map()` — fresh empty map.
    NewMap(String),
    /// `collection.add(expr)`.
    Add(String, Expr),
    /// `map.put(key, value)`.
    Put(String, Expr, Expr),
    /// `for (var : iter) { body }` — the cursor loop of the paper.
    ForEach {
        var: String,
        iter: Expr,
        body: Vec<Stmt>,
    },
    /// `while (cond) { body }` — iteration count unknown statically.
    While { cond: Expr, body: Vec<Stmt> },
    /// `if (cond) { then } else { else }`.
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    /// `print(expr)` — observable side effect.
    Print(Expr),
    /// `return expr?`.
    Return(Option<Expr>),
    /// `break` out of the innermost loop.
    Break,
    /// `Utils.cacheByColumn(cache, source, keyColumn)` — build a
    /// client-side cache of `source` rows keyed by `keyColumn`.
    CacheByColumn {
        cache: String,
        source: Expr,
        key_col: String,
    },
    /// `update table set set_col = value where key_col = key` — a database
    /// write (blocks SQL translation of the enclosing loop; pattern A).
    UpdateQuery {
        table: String,
        set_col: String,
        value: Expr,
        key_col: String,
        key: Expr,
    },
    /// `x = f(args)` — call a user-defined function in the same program.
    LetCall(String, String, Vec<Expr>),
    /// `try { body } catch { handler }` — unstructured control flow.
    TryCatch { body: Vec<Stmt>, handler: Vec<Stmt> },
}

/// A statement: payload plus source line (line 0 = synthesized code).
#[derive(Debug, Clone, Eq)]
pub struct Stmt {
    /// The payload.
    pub kind: StmtKind,
    /// 1-based source line; 0 for generated statements.
    pub line: u32,
}

impl Stmt {
    /// Statement with no line information.
    pub fn new(kind: StmtKind) -> Stmt {
        Stmt { kind, line: 0 }
    }

    /// Statement at a specific line.
    pub fn at(line: u32, kind: StmtKind) -> Stmt {
        Stmt { kind, line }
    }

    /// Child statement lists (loop/branch bodies).
    pub fn children(&self) -> Vec<&[Stmt]> {
        match &self.kind {
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => vec![body],
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => vec![then_branch, else_branch],
            StmtKind::TryCatch { body, handler } => vec![body, handler],
            _ => Vec::new(),
        }
    }

    /// The expressions this statement itself evaluates, in evaluation
    /// order (a nested statement's are its own; see [`Stmt::walk`]).
    pub fn exprs(&self) -> Vec<&Expr> {
        use StmtKind::*;
        match &self.kind {
            Let(_, e) | Add(_, e) | Print(e) | Return(Some(e)) => vec![e],
            ForEach { iter: e, .. }
            | While { cond: e, .. }
            | If { cond: e, .. }
            | CacheByColumn { source: e, .. } => vec![e],
            Put(_, k, v) => vec![k, v],
            UpdateQuery { value, key, .. } => vec![value, key],
            LetCall(_, _, args) => args.iter().collect(),
            NewCollection(_) | NewMap(_) | Return(None) | Break | TryCatch { .. } => Vec::new(),
        }
    }

    /// Call `f` on this statement and every statement nested in it, in
    /// source order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        for s in self.children().into_iter().flatten() {
            s.walk(f);
        }
    }

    /// [`Stmt::exprs`] for rebuilding in place.
    pub fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        use StmtKind::*;
        match &mut self.kind {
            Let(_, e) | Add(_, e) | Print(e) | Return(Some(e)) => vec![e],
            ForEach { iter: e, .. }
            | While { cond: e, .. }
            | If { cond: e, .. }
            | CacheByColumn { source: e, .. } => vec![e],
            Put(_, k, v) => vec![k, v],
            UpdateQuery { value, key, .. } => vec![value, key],
            LetCall(_, _, args) => args.iter_mut().collect(),
            NewCollection(_) | NewMap(_) | Return(None) | Break | TryCatch { .. } => Vec::new(),
        }
    }

    /// [`Stmt::children`] for rebuilding in place.
    pub fn children_mut(&mut self) -> Vec<&mut Vec<Stmt>> {
        match &mut self.kind {
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => vec![body],
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => vec![then_branch, else_branch],
            StmtKind::TryCatch { body, handler } => vec![body, handler],
            _ => Vec::new(),
        }
    }

    /// Largest line number in this statement (inclusive of children).
    pub fn max_line(&self) -> u32 {
        let mut max = 0;
        self.walk(&mut |s| max = max.max(s.line));
        max
    }

    /// Number of statements in this statement, inclusive of children
    /// (an `if` with two one-statement branches counts 3).
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// The variable this statement defines/updates at the top level, if any.
    pub fn updated_var(&self) -> Option<&str> {
        match &self.kind {
            StmtKind::Let(v, _)
            | StmtKind::NewCollection(v)
            | StmtKind::NewMap(v)
            | StmtKind::Add(v, _)
            | StmtKind::Put(v, _, _)
            | StmtKind::LetCall(v, _, _) => Some(v),
            StmtKind::CacheByColumn { cache, .. } => Some(cache),
            _ => None,
        }
    }
}

/// Structural equality ignores line numbers.
impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

/// Structural hash ignores line numbers (consistent with `PartialEq`).
impl Hash for Stmt {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
    }
}

/// A function: name, parameters, body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// Function name (also used as the program label, e.g. `P0`).
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl Function {
    /// Build a function.
    pub fn new(name: impl Into<String>, params: Vec<String>, body: Vec<Stmt>) -> Function {
        Function {
            name: name.into(),
            params,
            body,
        }
    }

    /// Total number of statements in the body, inclusive of nesting —
    /// the size metric the differential-oracle minimizer reduces.
    pub fn stmt_count(&self) -> usize {
        self.body.iter().map(|s| s.stmt_count()).sum()
    }

    /// Assign sequential line numbers (starting at `first`) to every
    /// statement in source order, recursing into bodies. Returns the next
    /// free line number.
    pub fn number_lines(&mut self, first: u32) -> u32 {
        fn go(stmts: &mut [Stmt], mut line: u32) -> u32 {
            for s in stmts {
                s.line = line;
                line += 1;
                match &mut s.kind {
                    StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                        line = go(body, line);
                        line += 1; // closing brace
                    }
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        line = go(then_branch, line);
                        if !else_branch.is_empty() {
                            line += 1; // else
                            line = go(else_branch, line);
                        }
                        line += 1;
                    }
                    StmtKind::TryCatch { body, handler } => {
                        line = go(body, line);
                        line += 1;
                        line = go(handler, line);
                        line += 1;
                    }
                    _ => {}
                }
            }
            line
        }
        go(&mut self.body, first)
    }
}

/// A program: one or more functions, the first being the entry point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// Functions; `functions[0]` is the entry point.
    pub functions: Vec<Function>,
}

impl Program {
    /// Single-function program.
    pub fn single(f: Function) -> Program {
        Program { functions: vec![f] }
    }

    /// The entry function.
    pub fn entry(&self) -> &Function {
        &self.functions[0]
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total statement count across all functions.
    pub fn stmt_count(&self) -> usize {
        self.functions.iter().map(|f| f.stmt_count()).sum()
    }

    /// This program with its entry function replaced (helpers unchanged) —
    /// the shape the optimizer returns, reassembled into a runnable
    /// program.
    pub fn with_entry(&self, entry: Function) -> Program {
        let helpers = self.functions[1..].iter().cloned();
        Program {
            functions: std::iter::once(entry).chain(helpers).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn let_stmt(v: &str, e: Expr) -> Stmt {
        Stmt::new(StmtKind::Let(v.into(), e))
    }

    #[test]
    fn stmt_equality_ignores_lines() {
        let a = Stmt::at(3, StmtKind::Break);
        let b = Stmt::at(99, StmtKind::Break);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn free_vars_collects_through_structure() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::field(Expr::var("o"), "o_id"),
            Expr::MapGet(Box::new(Expr::var("m")), Box::new(Expr::var("k"))),
        );
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        assert_eq!(vars, vec!["o", "m", "k"]);
    }

    /// The read and in-place forms of each traversal primitive list the
    /// same parts in the same order, on every variant.
    #[test]
    fn read_and_mut_traversals_list_the_same_parts() {
        let (x, y) = (|| Box::new(Expr::var("x")), || Box::new(Expr::var("y")));
        let q = || QuerySpec::sql("select * from t where a = :p").bind("p", Expr::var("x"));
        let exprs = vec![
            Expr::var("v"),
            Expr::lit(1i64),
            Expr::LoadAll("E".into()),
            Expr::Bin(BinOp::Add, x(), y()),
            Expr::MapGet(x(), y()),
            Expr::Not(x()),
            Expr::Len(x()),
            Expr::Field(x(), "f".into()),
            Expr::Nav(x(), "a".into()),
            Expr::LookupCache("c".into(), x()),
            Expr::Call("f".into(), vec![*x(), *y()]),
            Expr::Query(q()),
            Expr::ScalarQuery(q()),
        ];
        for e in &exprs {
            let (mut read, mut muted) = (Vec::new(), Vec::new());
            e.for_each_child(|c| read.push(c.clone()));
            e.clone().for_each_child_mut(|c| muted.push(c.clone()));
            assert_eq!(read, muted, "{e:?}");
        }
        let body = || vec![let_stmt("z", *y())];
        let mut kinds = vec![
            StmtKind::NewCollection("c".into()),
            StmtKind::NewMap("m".into()),
            StmtKind::Add("c".into(), *x()),
            StmtKind::Put("m".into(), *x(), *y()),
            StmtKind::Print(*x()),
            StmtKind::Return(Some(*x())),
            StmtKind::Return(None),
            StmtKind::Break,
            StmtKind::LetCall("v".into(), "f".into(), vec![*x(), *y()]),
        ];
        kinds.push(StmtKind::ForEach {
            var: "r".into(),
            iter: *x(),
            body: body(),
        });
        kinds.push(StmtKind::While {
            cond: *x(),
            body: body(),
        });
        kinds.push(StmtKind::If {
            cond: *x(),
            then_branch: body(),
            else_branch: vec![Stmt::new(StmtKind::Break)],
        });
        kinds.push(StmtKind::TryCatch {
            body: body(),
            handler: vec![Stmt::new(StmtKind::Break)],
        });
        kinds.push(StmtKind::CacheByColumn {
            cache: "c".into(),
            source: *x(),
            key_col: "k".into(),
        });
        kinds.push(StmtKind::UpdateQuery {
            table: "t".into(),
            set_col: "a".into(),
            value: *x(),
            key_col: "k".into(),
            key: *y(),
        });
        for kind in kinds {
            let (s, mut m) = (Stmt::new(kind.clone()), Stmt::new(kind));
            let read: Vec<Expr> = s.exprs().into_iter().cloned().collect();
            let muted: Vec<Expr> = m.exprs_mut().into_iter().map(|e| e.clone()).collect();
            assert_eq!(read, muted, "{s:?}");
            let read: Vec<Vec<Stmt>> = s.children().into_iter().map(<[Stmt]>::to_vec).collect();
            let muted: Vec<Vec<Stmt>> = m.children_mut().into_iter().map(|b| b.clone()).collect();
            assert_eq!(read, muted, "{s:?}");
        }
    }

    #[test]
    fn number_lines_assigns_sequentially_with_nesting() {
        let mut f = Function::new(
            "p",
            vec![],
            vec![
                let_stmt("x", Expr::lit(1i64)),
                Stmt::new(StmtKind::ForEach {
                    var: "o".into(),
                    iter: Expr::LoadAll("Order".into()),
                    body: vec![
                        let_stmt("y", Expr::lit(2i64)),
                        let_stmt("z", Expr::lit(3i64)),
                    ],
                }),
                Stmt::new(StmtKind::Print(Expr::var("x"))),
            ],
        );
        f.number_lines(2);
        assert_eq!(f.body[0].line, 2);
        assert_eq!(f.body[1].line, 3);
        match &f.body[1].kind {
            StmtKind::ForEach { body, .. } => {
                assert_eq!(body[0].line, 4);
                assert_eq!(body[1].line, 5);
            }
            _ => unreachable!(),
        }
        // 6 is the closing brace; print lands on 7.
        assert_eq!(f.body[2].line, 7);
        assert_eq!(f.body[1].max_line(), 5);
    }

    #[test]
    fn updated_var_reporting() {
        assert_eq!(let_stmt("x", Expr::lit(1i64)).updated_var(), Some("x"));
        assert_eq!(
            Stmt::new(StmtKind::Add("acc".into(), Expr::lit(1i64))).updated_var(),
            Some("acc")
        );
        assert_eq!(Stmt::new(StmtKind::Break).updated_var(), None);
    }

    #[test]
    fn query_spec_binds_params() {
        let q = QuerySpec::sql("select * from customer where c_customer_sk = :cust")
            .bind("cust", Expr::field(Expr::var("o"), "o_customer_sk"));
        assert_eq!(q.binds.len(), 1);
        assert_eq!(q.plan.params(), vec!["cust".to_string()]);
    }

    #[test]
    fn program_lookup() {
        let p = Program {
            functions: vec![
                Function::new("main", vec![], vec![]),
                Function::new("helper", vec!["x".into()], vec![]),
            ],
        };
        assert_eq!(p.entry().name, "main");
        assert!(p.function("helper").is_some());
        assert!(p.function("nope").is_none());
    }
}
