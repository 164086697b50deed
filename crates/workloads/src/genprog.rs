//! Seeded random program generation for the differential-execution oracle.
//!
//! Every case is reproducible from a single `u64` seed: the seed drives a
//! [`StdRng`] that first draws a **schema** (2–5 tables with foreign-key
//! chains, varied row counts and row widths), then a **well-typed
//! program** over that schema composing the shapes COBRA's rules target —
//! loops over query results, ORM association navigation (the N+1
//! pattern), correlated inner queries and scalar aggregates, scalar
//! `funcs` calls, conditionals, accumulators, result-list appends, client
//! caches, database updates (pattern A blockers), on every 64th seed a
//! loop materializing a query's rows (rule T1) — plus the fixture data
//! itself.
//!
//! ```
//! use workloads::genprog::{GenCase, GenConfig};
//!
//! let case = GenCase::from_seed(7, &GenConfig::default());
//! let again = GenCase::from_seed(7, &GenConfig::default());
//! assert_eq!(case.pretty(), again.pretty()); // fully seed-determined
//! ```
//!
//! Generated programs are *sound by construction*: expression generation
//! tracks a typed scope (integer variables vs row variables and their
//! tables), navigations only follow declared foreign keys, cache lookups
//! only probe caches keyed by a primary key the looked-up value is a
//! foreign key into, and NULLs (e.g. `sum` over an empty correlated set)
//! only flow through NULL-safe operators. Running the *original* program
//! must always succeed; only optimizer bugs can make the rewritten one
//! fail.

use crate::harness::Fixture;
use imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use imperative::pretty;
use minidb::{BinOp, Column, DataType, Database, FuncRegistry, Schema, Value};
use netsim::rng::StdRng;
use orm::{EntityMapping, MappingRegistry};

use std::sync::Arc;

/// Size knobs for generated schemas and programs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Minimum number of tables per schema (≥ 2 so navigation exists).
    pub min_tables: usize,
    /// Maximum number of tables per schema.
    pub max_tables: usize,
    /// Minimum rows per table (the historical corpus draws from 4).
    pub min_rows: usize,
    /// Maximum rows per table (each table draws its own count).
    pub max_rows: usize,
    /// Maximum *extra* top-level statements beyond the fixed skeleton
    /// (one loop is always generated).
    pub max_top_stmts: usize,
    /// Maximum statements per loop body.
    pub max_body_stmts: usize,
    /// Maximum loop-nesting depth below a top-level loop.
    pub max_depth: usize,
    /// Data-skew exponent. `None` draws every data column uniformly (the
    /// historical corpus, byte-identical). `Some(s)` draws values as
    /// `⌊range·uˢ⌋` for uniform `u` — a power-law-ish pile-up near zero
    /// (column values *and* foreign keys, so join fan-outs are skewed
    /// too). Skewed data is where uniform-NDV estimation misranks plans
    /// and histograms + runtime feedback earn their keep.
    pub skew: Option<f64>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            min_tables: 2,
            max_tables: 5,
            min_rows: 4,
            max_rows: 48,
            max_top_stmts: 4,
            max_body_stmts: 4,
            max_depth: 2,
            skew: None,
        }
    }
}

impl GenConfig {
    /// The skewed-corpus preset: larger tables (so selectivity errors
    /// actually move costs) with heavily skewed data columns and foreign
    /// keys. Used by the cost-model-fidelity, validated-selection and
    /// engine-differential suites.
    pub fn skewed() -> GenConfig {
        GenConfig {
            max_rows: 320,
            skew: Some(2.5),
            ..GenConfig::default()
        }
    }

    /// The execution-throughput preset: 1M+ rows per table across a
    /// small schema, so scan/filter/join throughput is memory-bandwidth
    /// bound rather than dispatch bound. Skewed like [`GenConfig::skewed`]
    /// so joins have realistic fan-out. Used by `cobra_bench`'s
    /// `exec_olap` workload; far too large for the differential corpus.
    pub fn large() -> GenConfig {
        GenConfig {
            min_tables: 2,
            max_tables: 3,
            min_rows: 1_000_000,
            max_rows: 1_250_000,
            skew: Some(2.5),
            ..GenConfig::default()
        }
    }
}

/// One generated table: a primary key, two integer data columns, a string
/// padding column (varying the row width the cost model sees), and an
/// optional foreign key into an earlier table.
#[derive(Debug, Clone)]
pub struct GenTable {
    /// Table name (`t0`, `t1`, …).
    pub name: String,
    /// Mapped ORM entity name (`E0`, `E1`, …).
    pub entity: String,
    /// Base row count (before any [`GenCase::row_scale`] shrinking).
    pub rows: usize,
    /// Declared width of the string padding column.
    pub str_width: u32,
    /// Index of the foreign-key parent table, when present.
    pub parent: Option<usize>,
}

impl GenTable {
    /// Primary-key column name.
    pub fn pk(&self) -> String {
        format!("{}_id", self.name)
    }
    /// Foreign-key column name (only meaningful when `parent` is set).
    pub fn fk(&self) -> String {
        format!("{}_fk", self.name)
    }
    /// First integer data column (values 0..100).
    pub fn col_a(&self) -> String {
        format!("{}_a", self.name)
    }
    /// Second integer data column (values 0..50).
    pub fn col_b(&self) -> String {
        format!("{}_b", self.name)
    }
    /// String padding column.
    pub fn col_s(&self) -> String {
        format!("{}_s", self.name)
    }
}

/// A randomly drawn relational schema with FK relationships.
#[derive(Debug, Clone)]
pub struct GenSchema {
    /// The tables; a table's `parent` always has a smaller index.
    pub tables: Vec<GenTable>,
    /// Data-skew exponent the fixture builder applies (from
    /// [`GenConfig::skew`]).
    pub skew: Option<f64>,
}

impl GenSchema {
    /// Draw a schema: `min_tables..=max_tables` tables, table 1 always
    /// FK-linked to table 0 (so navigation shapes always exist), later
    /// tables FK-linked to a random earlier table with high probability.
    pub fn generate(rng: &mut StdRng, cfg: &GenConfig) -> GenSchema {
        let n = rng.gen_range(cfg.min_tables..cfg.max_tables + 1);
        let mut tables = Vec::with_capacity(n);
        for i in 0..n {
            let parent = if i == 1 {
                Some(0)
            } else if i >= 2 && rng.chance(75) {
                Some(rng.gen_range(0..i))
            } else {
                None
            };
            tables.push(GenTable {
                name: format!("t{i}"),
                entity: format!("E{i}"),
                rows: rng.gen_range(cfg.min_rows..cfg.max_rows.max(cfg.min_rows + 1)),
                str_width: rng.gen_range(4..40u32),
                parent,
            });
        }
        GenSchema {
            tables,
            skew: cfg.skew,
        }
    }

    /// Indices of tables whose FK parent is `t`.
    pub fn children_of(&self, t: usize) -> Vec<usize> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, tab)| tab.parent == Some(t))
            .map(|(i, _)| i)
            .collect()
    }

    /// Build a fresh fixture (database + mappings + functions) for this
    /// schema, deterministic in `data_seed`. `row_scale` multiplies every
    /// table's row count (floor 1) — the minimizer shrinks with values
    /// below 1.0, and benchmarks may scale *up* with values above it (the
    /// `f64 → usize` cast saturates, so huge products stay well-defined).
    /// Each call returns an *independent* database, so runs that issue
    /// `update` statements cannot contaminate each other.
    pub fn build_fixture(&self, data_seed: u64, row_scale: f64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(data_seed);
        let mut db = Database::new();
        let mut mapping = MappingRegistry::new();
        let scaled: Vec<usize> = self
            .tables
            .iter()
            .map(|t| (((t.rows as f64) * row_scale) as usize).max(1))
            .collect();
        // Rows each table *actually* holds after insertion. FK draws are
        // bounded by this, not by the requested `scaled` target, so child
        // rows can never reference a parent key that was not materialized
        // — however aggressively `row_scale` shrinks each table. (Parents
        // always precede children, so the count is known in time.)
        let mut inserted: Vec<usize> = Vec::with_capacity(self.tables.len());
        for (i, t) in self.tables.iter().enumerate() {
            let mut cols = vec![Column::new(t.pk(), DataType::Int)];
            if t.parent.is_some() {
                cols.push(Column::new(t.fk(), DataType::Int));
            }
            cols.push(Column::new(t.col_a(), DataType::Int));
            cols.push(Column::new(t.col_b(), DataType::Int));
            cols.push(Column::with_width(t.col_s(), DataType::Str, t.str_width));
            let table = db.create_table(&t.name, Schema::new(cols)).unwrap();
            table.set_primary_key(&t.pk()).unwrap();
            let parent_rows = t.parent.map(|p| inserted[p] as i64).unwrap_or(1);
            let skew = self.skew;
            let rows = (0..scaled[i]).map(|r| {
                let mut row = vec![Value::Int(r as i64)];
                if t.parent.is_some() {
                    row.push(Value::Int(draw_value(&mut rng, parent_rows, skew)));
                }
                row.push(Value::Int(draw_value(&mut rng, 100, skew)));
                row.push(Value::Int(draw_value(&mut rng, 50, skew)));
                row.push(Value::str(format!("{}-{}", t.name, r % 7)));
                row
            });
            table.insert_many(rows).unwrap();
            inserted.push(table.row_count());

            let mut m = EntityMapping::new(&t.entity, &t.name, t.pk());
            if let Some(p) = t.parent {
                m = m.many_to_one("parent", &self.tables[p].entity, t.fk());
            }
            mapping.register(m);
        }
        db.analyze_all();

        let mut funcs = FuncRegistry::with_builtins();
        funcs.register("combine", DataType::Int, |args| {
            let a = args.first().and_then(|v| v.as_i64());
            let b = args.get(1).and_then(|v| v.as_i64());
            Ok(match (a, b) {
                (Some(a), Some(b)) => Value::Int(a.wrapping_mul(3).wrapping_add(b)),
                _ => Value::Null,
            })
        });
        funcs.register("scale10", DataType::Int, |args| {
            Ok(match args.first().and_then(|v| v.as_i64()) {
                Some(a) => Value::Int(a.wrapping_mul(10)),
                None => Value::Null,
            })
        });

        Fixture {
            db: minidb::shared(db),
            mapping,
            funcs: Arc::new(funcs),
        }
    }
}

/// A generated differential-testing case: schema + program, reproducible
/// from `seed` alone.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// The generating seed — printing it is a complete repro recipe.
    pub seed: u64,
    /// The drawn schema.
    pub schema: GenSchema,
    /// The drawn program (entry function `gen`, out-parameter `result`).
    pub program: Program,
    /// Data-size multiplier applied by [`GenCase::fixture`] (1.0 as
    /// generated; the minimizer lowers it while a failure reproduces).
    pub row_scale: f64,
}

impl GenCase {
    /// Generate the case for `seed` under `cfg`. Deterministic: equal
    /// seeds and configs yield structurally identical cases.
    pub fn from_seed(seed: u64, cfg: &GenConfig) -> GenCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = GenSchema::generate(&mut rng, cfg);
        let mut gen = ProgramGen {
            rng: &mut rng,
            schema: &schema,
            cfg,
            fresh: 0,
        };
        let program = Program::single(gen.function(seed % 64 == 63));
        GenCase {
            seed,
            schema,
            program,
            row_scale: 1.0,
        }
    }

    /// A fresh, independent fixture for one run (data deterministic in the
    /// seed; rebuilt per run so `update` statements cannot leak between
    /// the original and the optimized execution).
    pub fn fixture(&self) -> Fixture {
        self.schema
            .build_fixture(self.seed.wrapping_mul(0x9E3779B97F4A7C15), self.row_scale)
    }

    /// This case with a replacement program (used by the minimizer).
    pub fn with_program(&self, program: Program) -> GenCase {
        GenCase {
            program,
            ..self.clone()
        }
    }

    /// This case with a different data scale (used by the minimizer).
    pub fn with_row_scale(&self, row_scale: f64) -> GenCase {
        GenCase {
            row_scale,
            ..self.clone()
        }
    }

    /// The variables the oracle observes: the entry function's
    /// out-parameters.
    pub fn observed_vars(&self) -> Vec<String> {
        self.program.entry().params.clone()
    }

    /// Pretty-printed program text (paper-style pseudo-code).
    pub fn pretty(&self) -> String {
        pretty::program_to_string(&self.program)
    }
}

/// Typed generation scope: which variables hold integers and which hold
/// row objects (and of which table). Child blocks clone it, so variables
/// introduced under a conditional or loop never leak into code that may
/// execute without them being bound.
#[derive(Clone, Default)]
struct Scope {
    ints: Vec<String>,
    rows: Vec<(String, usize)>,
}

struct ProgramGen<'a> {
    rng: &'a mut StdRng,
    schema: &'a GenSchema,
    cfg: &'a GenConfig,
    fresh: u32,
}

impl<'a> ProgramGen<'a> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// `materialize` adds the one shape no draw produces: a loop copying
    /// a query's rows into a fresh collection (rule T1's
    /// `fold(insert, {}, Q)`). [`GenCase::from_seed`] asks for it on every
    /// 64th seed rather than by a draw, which would shift the random
    /// stream — and with it every program the benchmark and the pinned
    /// tests are keyed on.
    fn function(&mut self, materialize: bool) -> Function {
        let mut scope = Scope::default();
        let mut body = vec![
            Stmt::new(StmtKind::NewCollection("result".into())),
            // A wide-range literal: distinguishes seeds and makes broken
            // accumulator initialization observable.
            Stmt::new(StmtKind::Let(
                "total".into(),
                Expr::lit(self.rng.gen_range(0..1_000_000_000i64)),
            )),
        ];
        scope.ints.push("total".into());
        body.push(self.gen_loop(&scope, 0));
        let extra = self.rng.gen_range(0..self.cfg.max_top_stmts + 1);
        for _ in 0..extra {
            body.extend(self.gen_top_stmt(&mut scope));
        }
        if materialize {
            body.extend(self.gen_materialized_rows());
        }
        body.push(Stmt::new(StmtKind::Add(
            "result".into(),
            Expr::var("total"),
        )));
        if self.rng.chance(60) {
            body.push(Stmt::new(StmtKind::Print(Expr::var("total"))));
        }
        if self.rng.chance(30) {
            body.push(Stmt::new(StmtKind::Print(Expr::Len(Box::new(Expr::var(
                "result",
            ))))));
        }
        let mut f = Function::new("gen", vec!["result".to_string()], body);
        f.number_lines(2);
        f
    }

    /// One top-level statement (possibly a multi-statement unit like a
    /// prefetch cache plus the loop probing it).
    fn gen_top_stmt(&mut self, scope: &mut Scope) -> Vec<Stmt> {
        let navigable: Vec<usize> = (0..self.schema.tables.len())
            .filter(|&i| self.schema.tables[i].parent.is_some())
            .collect();
        loop {
            let roll = self.rng.gen_range(0..100u32);
            return match roll {
                0..=39 => vec![self.gen_loop(scope, 0)],
                40..=54 => vec![self.gen_if(scope)],
                55..=69 => vec![self.total_update(scope)],
                70..=79 => self.gen_while(scope),
                80..=87 => vec![self.gen_update_query()],
                _ => {
                    if navigable.is_empty() {
                        continue; // reroll: no FK pair to prefetch over
                    }
                    let child = *self.rng.pick(&navigable);
                    self.gen_cache_unit(child)
                }
            };
        }
    }

    /// `for (v : <source>) { … }` over a random table.
    fn gen_loop(&mut self, scope: &Scope, depth: usize) -> Stmt {
        let t = self.rng.gen_range(0..self.schema.tables.len());
        let table = &self.schema.tables[t];
        let iter = match self.rng.gen_range(0..10u32) {
            0..=3 => Expr::LoadAll(table.entity.clone()),
            4..=6 => Expr::Query(QuerySpec::sql(&format!("select * from {}", table.name))),
            7..=8 => Expr::Query(QuerySpec::sql(&format!(
                "select * from {} where {} < {}",
                table.name,
                table.col_a(),
                self.rng.gen_range(10..90i64)
            ))),
            _ => Expr::Query(QuerySpec::sql(&format!(
                "select * from {} where {} < {} order by {}",
                table.name,
                table.col_a(),
                self.rng.gen_range(10..90i64),
                table.pk()
            ))),
        };
        let var = self.fresh("v");
        let mut inner = scope.clone();
        inner.rows.push((var.clone(), t));
        let n = self.rng.gen_range(1..self.cfg.max_body_stmts + 1);
        let mut body = Vec::new();
        for _ in 0..n {
            body.extend(self.gen_body_stmt(&mut inner, t, &var, depth));
        }
        if !writes_observable(&body) {
            // Keep the loop live: fold-based rewriting only considers
            // loops with live outputs, and dead loops teach the oracle
            // nothing.
            body.push(Stmt::new(StmtKind::Let(
                "total".into(),
                Expr::bin(
                    BinOp::Add,
                    Expr::var("total"),
                    Expr::field(Expr::var(&var), table.col_a()),
                ),
            )));
        }
        Stmt::new(StmtKind::ForEach { var, iter, body })
    }

    /// One loop-body statement (may expand to a short sequence).
    fn gen_body_stmt(&mut self, scope: &mut Scope, t: usize, var: &str, depth: usize) -> Vec<Stmt> {
        let table = &self.schema.tables[t];
        let children = self.schema.children_of(t);
        loop {
            let roll = self.rng.gen_range(0..100u32);
            match roll {
                // x = v.<int column>
                0..=17 => {
                    let x = self.fresh("x");
                    let col = self.pick_int_col(t);
                    let read =
                        Stmt::new(StmtKind::Let(x.clone(), Expr::field(Expr::var(var), col)));
                    scope.ints.push(x);
                    return vec![read];
                }
                // p = v.parent; z = p.<col>   (the N+1 shape)
                18..=29 if table.parent.is_some() => {
                    let parent = table.parent.unwrap();
                    let p = self.fresh("p");
                    let z = self.fresh("z");
                    let nav = Stmt::new(StmtKind::Let(
                        p.clone(),
                        Expr::nav(Expr::var(var), "parent"),
                    ));
                    let col = self.pick_int_col(parent);
                    let read = Stmt::new(StmtKind::Let(z.clone(), Expr::field(Expr::var(&p), col)));
                    scope.rows.push((p, parent));
                    scope.ints.push(z);
                    return vec![nav, read];
                }
                // y = combine(e1, e2) / scale10(e)
                30..=39 => {
                    let y = self.fresh("y");
                    let call = if self.rng.gen_bool() {
                        Expr::Call(
                            "combine".into(),
                            vec![self.int_expr(scope, 2), self.int_expr(scope, 2)],
                        )
                    } else {
                        Expr::Call("scale10".into(), vec![self.int_expr(scope, 2)])
                    };
                    scope.ints.push(y.clone());
                    return vec![Stmt::new(StmtKind::Let(y, call))];
                }
                // total = total + e
                40..=55 => return vec![self.total_update(scope)],
                // result.add(e)
                56..=69 => {
                    let e = self.int_expr(scope, 2);
                    return vec![Stmt::new(StmtKind::Add("result".into(), e))];
                }
                // if (…) { … } [else { … }]
                70..=77 => return vec![self.gen_if(scope)],
                // nested correlated loop over a child table
                78..=85 if depth < self.cfg.max_depth && !children.is_empty() => {
                    let c = *self.rng.pick(&children);
                    return vec![self.gen_correlated_loop(scope, t, var, c, depth)];
                }
                // s = executeScalar("select sum(..) .. where fk = :k"); total += s
                86..=93 if !children.is_empty() => {
                    let c = *self.rng.pick(&children);
                    let child = &self.schema.tables[c];
                    let s = self.fresh("s");
                    let spec = QuerySpec::sql(&format!(
                        "select sum({}) from {} where {} = :k",
                        child.col_a(),
                        child.name,
                        child.fk()
                    ))
                    .bind("k", Expr::field(Expr::var(var), table.pk()));
                    let q = Stmt::new(StmtKind::Let(s.clone(), Expr::ScalarQuery(spec)));
                    let add = Stmt::new(StmtKind::Let(
                        "total".into(),
                        Expr::bin(BinOp::Add, Expr::var("total"), Expr::var(&s)),
                    ));
                    scope.ints.push(s);
                    return vec![q, add];
                }
                // database write inside the loop (pattern A blocker)
                94..=96 => return vec![self.gen_update_query()],
                // conditional break (unstructured control flow)
                97..=98 => {
                    let cond = self.cmp_expr(scope);
                    return vec![Stmt::new(StmtKind::If {
                        cond,
                        then_branch: vec![Stmt::new(StmtKind::Break)],
                        else_branch: vec![],
                    })];
                }
                _ => continue, // reroll guarded choices that don't apply
            }
        }
    }

    /// `for (w : executeQuery("select * from child where fk = :k")) { … }`
    fn gen_correlated_loop(
        &mut self,
        scope: &Scope,
        t: usize,
        var: &str,
        c: usize,
        depth: usize,
    ) -> Stmt {
        let table = &self.schema.tables[t];
        let child = &self.schema.tables[c];
        let spec = QuerySpec::sql(&format!(
            "select * from {} where {} = :k",
            child.name,
            child.fk()
        ))
        .bind("k", Expr::field(Expr::var(var), table.pk()));
        let w = self.fresh("w");
        let mut inner = scope.clone();
        inner.rows.push((w.clone(), c));
        let mut body = Vec::new();
        let n = self.rng.gen_range(1..3usize);
        for _ in 0..n {
            body.extend(self.gen_body_stmt(&mut inner, c, &w, depth + 1));
        }
        if !writes_observable(&body) {
            body.push(Stmt::new(StmtKind::Let(
                "total".into(),
                Expr::bin(
                    BinOp::Add,
                    Expr::var("total"),
                    Expr::field(Expr::var(&w), child.col_b()),
                ),
            )));
        }
        Stmt::new(StmtKind::ForEach {
            var: w,
            iter: Expr::Query(spec),
            body,
        })
    }

    /// A client-cache prefetch over `child`'s parent plus a loop probing
    /// it (the P2 shape of Figure 3c). The loop body is fixed (lookup +
    /// accumulate), so no generation scope is involved.
    fn gen_cache_unit(&mut self, c: usize) -> Vec<Stmt> {
        let child = self.schema.tables[c].clone();
        let parent_idx = child.parent.unwrap();
        let parent = self.schema.tables[parent_idx].clone();
        let cache = self.fresh("cache");
        let prefetch = Stmt::new(StmtKind::CacheByColumn {
            cache: cache.clone(),
            source: Expr::LoadAll(parent.entity.clone()),
            key_col: parent.pk(),
        });
        let v = self.fresh("v");
        let r = self.fresh("r");
        let lookup = Stmt::new(StmtKind::Let(
            r.clone(),
            Expr::LookupCache(cache, Box::new(Expr::field(Expr::var(&v), child.fk()))),
        ));
        let col = self.pick_int_col(parent_idx);
        let use_it = Stmt::new(StmtKind::Let(
            "total".into(),
            Expr::bin(
                BinOp::Add,
                Expr::var("total"),
                Expr::field(Expr::var(&r), col),
            ),
        ));
        let looped = Stmt::new(StmtKind::ForEach {
            var: v,
            iter: Expr::LoadAll(child.entity.clone()),
            body: vec![lookup, use_it],
        });
        vec![prefetch, looped]
    }

    /// `rows = {}; for (v : σ(table)) rows.add(v); total += size(rows)`.
    fn gen_materialized_rows(&mut self) -> Vec<Stmt> {
        let t = self.rng.gen_range(0..self.schema.tables.len());
        let table = &self.schema.tables[t];
        let iter = Expr::Query(QuerySpec::sql(&format!(
            "select * from {} where {} < {}",
            table.name,
            table.col_a(),
            self.rng.gen_range(10..90i64)
        )));
        let rows = self.fresh("rows");
        let var = self.fresh("v");
        vec![
            Stmt::new(StmtKind::NewCollection(rows.clone())),
            Stmt::new(StmtKind::ForEach {
                body: vec![Stmt::new(StmtKind::Add(rows.clone(), Expr::var(&var)))],
                var,
                iter,
            }),
            Stmt::new(StmtKind::Let(
                "total".into(),
                Expr::bin(
                    BinOp::Add,
                    Expr::var("total"),
                    Expr::Len(Box::new(Expr::var(&rows))),
                ),
            )),
        ]
    }

    /// `if (a ⋈ b) { … } [else { … }]` with small branches.
    fn gen_if(&mut self, scope: &Scope) -> Stmt {
        let cond = self.cmp_expr(scope);
        let mut then_scope = scope.clone();
        let then_branch = vec![self.simple_stmt(&mut then_scope)];
        let else_branch = if self.rng.chance(50) {
            let mut else_scope = scope.clone();
            vec![self.simple_stmt(&mut else_scope)]
        } else {
            vec![]
        };
        Stmt::new(StmtKind::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    /// `i = 0; while (i < N) { i = i + 1; total = total + e }` — a counted
    /// loop whose iteration count is unknown to the region analysis.
    fn gen_while(&mut self, scope: &mut Scope) -> Vec<Stmt> {
        let i = self.fresh("i");
        let init = Stmt::new(StmtKind::Let(i.clone(), Expr::lit(0i64)));
        let bound = self.rng.gen_range(2..5i64);
        let step = Stmt::new(StmtKind::Let(
            i.clone(),
            Expr::bin(BinOp::Add, Expr::var(&i), Expr::lit(1i64)),
        ));
        let work = self.total_update(scope);
        let w = Stmt::new(StmtKind::While {
            cond: Expr::bin(BinOp::Lt, Expr::var(&i), Expr::lit(bound)),
            body: vec![step, work],
        });
        scope.ints.push(i);
        vec![init, w]
    }

    /// `update t set b = C where pk = K` on a random table.
    fn gen_update_query(&mut self) -> Stmt {
        let t = self.rng.gen_range(0..self.schema.tables.len());
        let table = &self.schema.tables[t];
        let key = self.rng.gen_range(0..table.rows as i64);
        Stmt::new(StmtKind::UpdateQuery {
            table: table.name.clone(),
            set_col: table.col_b(),
            value: Expr::lit(self.rng.gen_range(0..100i64)),
            key_col: table.pk(),
            key: Expr::lit(key),
        })
    }

    /// `total = total ⊕ e`.
    fn total_update(&mut self, scope: &Scope) -> Stmt {
        let op = *self.rng.pick(&[BinOp::Add, BinOp::Sub]);
        let e = self.int_expr(scope, 2);
        Stmt::new(StmtKind::Let(
            "total".into(),
            Expr::bin(op, Expr::var("total"), e),
        ))
    }

    /// A simple observable statement for conditional branches.
    fn simple_stmt(&mut self, scope: &mut Scope) -> Stmt {
        if self.rng.gen_bool() {
            self.total_update(scope)
        } else {
            let e = self.int_expr(scope, 2);
            Stmt::new(StmtKind::Add("result".into(), e))
        }
    }

    /// An integer-typed (possibly NULL) expression over the scope.
    fn int_expr(&mut self, scope: &Scope, depth: usize) -> Expr {
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            0..=34 => Expr::lit(self.rng.gen_range(0..100i64)),
            35..=59 => {
                let v = self.rng.pick(&scope.ints).clone();
                Expr::var(v)
            }
            60..=79 if !scope.rows.is_empty() => {
                let (v, t) = self.rng.pick(&scope.rows).clone();
                let col = self.pick_int_col(t);
                Expr::field(Expr::var(v), col)
            }
            80..=94 if depth > 0 => {
                let op = *self.rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                Expr::bin(
                    op,
                    self.int_expr(scope, depth - 1),
                    self.int_expr(scope, depth - 1),
                )
            }
            _ if depth > 0 => Expr::Call("scale10".into(), vec![self.int_expr(scope, depth - 1)]),
            _ => Expr::var(self.rng.pick(&scope.ints).clone()),
        }
    }

    /// A boolean comparison (never NULL-valued operands on both sides of
    /// a `while`; under `if` NULL simply selects the else branch).
    fn cmp_expr(&mut self, scope: &Scope) -> Expr {
        let op = *self
            .rng
            .pick(&[BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq]);
        Expr::bin(op, self.int_expr(scope, 1), self.int_expr(scope, 1))
    }

    /// A random integer column name of table `t`.
    fn pick_int_col(&mut self, t: usize) -> String {
        let table = &self.schema.tables[t];
        let mut cols = vec![table.pk(), table.col_a(), table.col_b()];
        if table.parent.is_some() {
            cols.push(table.fk());
        }
        self.rng.pick(&cols).clone()
    }
}

/// One data value in `[0, bound)`: uniform without skew, `⌊bound·uˢ⌋`
/// with skew exponent `s` (mass piles up near zero; one uniform draw
/// either way, so the unskewed corpus stays byte-identical to the
/// historical one).
fn draw_value(rng: &mut StdRng, bound: i64, skew: Option<f64>) -> i64 {
    let bound = bound.max(1);
    match skew {
        // Same single uniform draw as the historical generator (identical
        // rng consumption keeps the unskewed corpus byte-identical).
        None => rng.gen_range(0..bound),
        Some(s) => {
            let u = (rng.gen_range(0..1_000_000u64) as f64 + 0.5) / 1_000_000.0;
            ((bound as f64 * u.powf(s)) as i64).clamp(0, bound - 1)
        }
    }
}

/// Does any statement in `body` (recursively) write an observable
/// (`total`, `result`, or a print)?
fn writes_observable(body: &[Stmt]) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Let(v, _) if v == "total" => true,
        StmtKind::Add(c, _) if c == "result" => true,
        StmtKind::Print(_) => true,
        _ => s.children().iter().any(|list| writes_observable(list)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_on;
    use netsim::NetworkProfile;
    use std::collections::HashSet;

    #[test]
    fn cases_are_deterministic_per_seed() {
        let cfg = GenConfig::default();
        for seed in [0u64, 1, 42, 999] {
            let a = GenCase::from_seed(seed, &cfg);
            let b = GenCase::from_seed(seed, &cfg);
            assert_eq!(a.pretty(), b.pretty());
            assert_eq!(
                a.fixture().db.read().unwrap().table("t0").unwrap().rows(),
                b.fixture().db.read().unwrap().table("t0").unwrap().rows()
            );
        }
    }

    #[test]
    fn seeds_produce_distinct_programs() {
        let cfg = GenConfig::default();
        let texts: HashSet<String> = (0..100u64)
            .map(|s| GenCase::from_seed(s, &cfg).pretty())
            .collect();
        assert_eq!(texts.len(), 100, "programs should be pairwise distinct");
    }

    #[test]
    fn generated_programs_run_successfully() {
        let cfg = GenConfig::default();
        for seed in 0..60u64 {
            let case = GenCase::from_seed(seed, &cfg);
            let fixture = case.fixture();
            let r = run_on(&fixture, NetworkProfile::fast_local(), &case.program);
            assert!(
                r.is_ok(),
                "seed {seed} failed: {:?}\n{}",
                r.err(),
                case.pretty()
            );
        }
    }

    #[test]
    fn row_scale_shrinks_data() {
        let case = GenCase::from_seed(5, &GenConfig::default());
        let full = case.fixture();
        let tiny = case.with_row_scale(0.25).fixture();
        let full_rows = full.db.read().unwrap().table("t0").unwrap().rows().len();
        let tiny_rows = tiny.db.read().unwrap().table("t0").unwrap().rows().len();
        assert!(tiny_rows <= full_rows);
        assert!(tiny_rows >= 1);
    }

    /// Every FK value in every child table must reference a primary key
    /// that actually exists in the parent — at full scale and under
    /// aggressive minimizer-style shrinking alike. (FK draws are bounded
    /// by the parent's actually-inserted row count, so this holds by
    /// construction; the test pins the invariant.)
    #[test]
    fn shrunk_fixtures_preserve_fk_validity() {
        use std::collections::HashSet;
        for seed in [1u64, 5, 9, 23, 40] {
            let case = GenCase::from_seed(seed, &GenConfig::default());
            for scale in [1.0, 0.5, 0.1, 0.01] {
                let fixture = case.with_row_scale(scale).fixture();
                let db = fixture.db.read().unwrap();
                for t in &case.schema.tables {
                    let Some(p) = t.parent else { continue };
                    let pks: HashSet<i64> = db
                        .table(&case.schema.tables[p].name)
                        .unwrap()
                        .rows()
                        .iter()
                        .map(|row| row[0].as_i64().unwrap())
                        .collect();
                    for row in db.table(&t.name).unwrap().rows() {
                        let fk = row[1].as_i64().unwrap();
                        assert!(
                            pks.contains(&fk),
                            "seed {seed} scale {scale}: {}.{} = {fk} references \
                             a nonexistent {} key",
                            t.name,
                            t.fk(),
                            case.schema.tables[p].name,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_scale_scales_up_too() {
        let case = GenCase::from_seed(5, &GenConfig::default());
        let base = case.schema.tables[0].rows;
        let big = case.with_row_scale(3.0).fixture();
        let big_rows = big.db.read().unwrap().table("t0").unwrap().rows().len();
        assert_eq!(big_rows, ((base as f64) * 3.0) as usize);
    }

    #[test]
    fn min_rows_default_keeps_the_corpus_byte_identical() {
        // `min_rows` landed with the large() preset; the historical draw
        // was `gen_range(4..max_rows.max(5))`, which the default must
        // still reproduce exactly.
        assert_eq!(GenConfig::default().min_rows, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let schema = GenSchema::generate(&mut rng, &GenConfig::default());
        let mut rng2 = StdRng::seed_from_u64(7);
        let n = rng2.gen_range(2..6usize);
        let mut rows = Vec::new();
        for i in 0..n {
            if i == 1 {
                Some(0)
            } else if i >= 2 && rng2.chance(75) {
                Some(rng2.gen_range(0..i))
            } else {
                None
            };
            rows.push(rng2.gen_range(4..48usize));
            rng2.gen_range(4..40u32);
        }
        assert_eq!(
            schema.tables.iter().map(|t| t.rows).collect::<Vec<_>>(),
            rows
        );
    }

    #[test]
    fn large_config_draws_million_row_tables() {
        let mut rng = StdRng::seed_from_u64(1);
        let schema = GenSchema::generate(&mut rng, &GenConfig::large());
        assert!(schema.tables.len() >= 2);
        for t in &schema.tables {
            assert!(t.rows >= 1_000_000, "{} has {} rows", t.name, t.rows);
        }
    }
}
