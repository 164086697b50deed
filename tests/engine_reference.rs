//! `vexec` held to a reference that cannot share its bugs.
//!
//! The engine is the only one in the product; what it returns is checked
//! three ways, each over the same queries:
//!
//! * **naive** — the rows equal those of `tests/support/naive.rs`, an
//!   evaluator with no access path at all and its own comparison, logic
//!   and arithmetic: in order where SQL and the tables' insertion order
//!   define one (scans, filters, projections, sorts of such inputs), as a
//!   multiset below a join or a grouping, and as "a sorted prefix of the
//!   multiset" under a `LIMIT` of either;
//! * **twin** — the query equals itself with every column under an `=`
//!   written `col + 0` (`col + ''` for a string), so that no index and no
//!   hash table applies: the predicate alone answers;
//! * **partition** — for every filter and join, the rows under `P`, under
//!   `not P` and under `P is null` are the unfiltered rows, each once.
//!
//! The queries are every `QuerySpec` of the differential corpus, as
//! written and as optimized, with binds drawn from the columns they are
//! compared with (and NULL, a Float twin, an absent key); the shapes of
//! `engine_differential` at a size a cross product can follow; and
//! generated queries over a schema of Float, nullable and cross-type keys,
//! an empty table and extreme values. Over that schema a fourth check
//! runs programs: `k = :p` by `executeQuery`, by `cacheByColumn` +
//! `lookupCache` and by `Session::get` finds naive's rows, for every
//! column and key. `ExecWork` and row order below a join are no
//! reference's to define: `engine_differential` pins them.
//!
//! Widen with `DIFF_SEEDS=1000 cargo test --release --test
//! engine_reference`.

use cobra::imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use cobra::interp::Snapshot;
use cobra::minidb;
use cobra::minidb::plan::{AggItem, SortDir};
use cobra::minidb::{
    AggFunc, BinOp, ColRef, Column, DataType, Database, DbResult, Executor, FuncRegistry,
    LogicalPlan, Row, ScalarExpr, Schema, Value,
};
use cobra::netsim::rng::StdRng;
use cobra::netsim::NetworkProfile;
use cobra::oracle::mid_range;
use cobra::orm::{EntityMapping, MappingRegistry, Prices, RemoteDb, Session};
use cobra::workloads::genprog::{GenCase, GenConfig};
use cobra::workloads::harness::{run_on, Fixture};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

#[path = "support/naive.rs"]
mod naive;
#[path = "support/shapes.rs"]
mod shapes;

type Params = HashMap<String, Value>;

/// A database, its functions and the binds of one execution.
#[derive(Clone, Copy)]
struct On<'a> {
    db: &'a Database,
    funcs: &'a FuncRegistry,
    params: &'a Params,
}

impl On<'_> {
    /// The engine's rows; the schema they come under is the one the plan
    /// derives, node by node.
    fn vexec(&self, plan: &LogicalPlan) -> DbResult<Vec<Row>> {
        let result = Executor::new(self.db, self.funcs).execute(plan, self.params)?;
        let derived = plan.output_schema(self.db, self.funcs)?;
        assert_eq!(result.schema, *derived, "schema of {}", self.describe(plan));
        Ok(result.rows)
    }

    fn naive(&self, plan: &LogicalPlan) -> DbResult<Vec<Row>> {
        let reference = naive::Naive {
            db: self.db,
            funcs: self.funcs,
            params: self.params,
        };
        Ok(reference.run(plan)?.1)
    }

    fn describe(&self, plan: &LogicalPlan) -> String {
        format!("{plan:?}\nbinds {:?}", self.params)
    }
}

/// Rows with `-0.0` written `0.0`, to be compared: the two are one number
/// to SQL, so a result may hold either, and `Value`'s own equality tells
/// them apart. (Sortedness is checked on rows as they came, under naive's
/// `ORDER BY` order, in which the two tie.)
fn canonical(rows: Vec<Row>) -> Vec<Row> {
    rows.iter().map(canonical_row).collect()
}

fn canonical_row(row: &Row) -> Row {
    let unsigned = |v: &Value| match v {
        Value::Float(f) => Value::Float(f + 0.0),
        v => v.clone(),
    };
    row.iter().map(unsigned).collect()
}

fn bag(rows: Vec<Row>) -> Vec<Row> {
    let mut rows = canonical(rows);
    rows.sort();
    rows
}

/// How far the order of a plan's rows is defined.
#[derive(Debug, Clone, PartialEq)]
enum Order {
    /// Completely: table order through filters, projections, stable sorts.
    Total,
    /// Not at all: below a join or a grouping.
    Bag,
    /// By these sort keys (positions in the output) over a bag.
    Sorted(Vec<(usize, SortDir)>),
    /// The first `n` rows of an input whose order is one of the two above:
    /// which rows they are is the engine's to choose among ties.
    Prefix(usize, Box<Order>),
    /// Something computed from such a prefix.
    Undefined,
}

fn order_of(plan: &LogicalPlan, on: On) -> Order {
    match plan {
        LogicalPlan::Scan { .. } => Order::Total,
        LogicalPlan::Select { input, .. } => match order_of(input, on) {
            Order::Prefix(..) => Order::Undefined,
            other => other,
        },
        LogicalPlan::Project { input, .. } => match order_of(input, on) {
            Order::Total => Order::Total,
            Order::Undefined | Order::Prefix(..) => Order::Undefined,
            // The sort keys may not survive the projection.
            Order::Bag | Order::Sorted(_) => Order::Bag,
        },
        LogicalPlan::Join { left, right, .. } => match (order_of(left, on), order_of(right, on)) {
            (Order::Undefined | Order::Prefix(..), _)
            | (_, Order::Undefined | Order::Prefix(..)) => Order::Undefined,
            _ => Order::Bag,
        },
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => match order_of(input, on) {
            Order::Undefined | Order::Prefix(..) => Order::Undefined,
            _ if group_by.is_empty() => Order::Total,
            _ => Order::Bag,
        },
        LogicalPlan::OrderBy { input, keys } => match order_of(input, on) {
            Order::Total => Order::Total,
            Order::Undefined | Order::Prefix(..) => Order::Undefined,
            Order::Bag | Order::Sorted(_) => {
                let schema = input.output_schema(on.db, on.funcs).expect("schema");
                let resolve = |c: &ColRef| schema.resolve(&c.to_ref_string()).expect("sort key");
                Order::Sorted(keys.iter().map(|(c, dir)| (resolve(c), *dir)).collect())
            }
        },
        LogicalPlan::Limit { input, n } => match order_of(input, on) {
            Order::Total => Order::Total,
            Order::Undefined | Order::Prefix(..) => Order::Undefined,
            inner => Order::Prefix(*n as usize, Box::new(inner)),
        },
    }
}

fn by_keys(keys: &[(usize, SortDir)], a: &Row, b: &Row) -> std::cmp::Ordering {
    let ords = keys.iter().map(|&(i, dir)| match dir {
        SortDir::Asc => naive::sort_order(&a[i], &b[i]),
        SortDir::Desc => naive::sort_order(&b[i], &a[i]),
    });
    ords.fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
}

fn assert_sorted(rows: &[Row], keys: &[(usize, SortDir)], what: &str) {
    let sorted = rows.windows(2).all(|w| by_keys(keys, &w[0], &w[1]).is_le());
    assert!(sorted, "rows out of order: {what}");
}

/// The engine's rows of `plan`, whose order is `order`, against those
/// `want` answers — for the same plan, or for the input of a cut-off one.
/// Both may fail; one may not.
fn assert_rows(
    order: &Order,
    plan: &LogicalPlan,
    got: DbResult<Vec<Row>>,
    want: &dyn Fn(&LogicalPlan) -> DbResult<Vec<Row>>,
    what: &str,
) {
    let asked = match (order, plan) {
        (Order::Prefix(..), LogicalPlan::Limit { input, .. }) => input,
        _ => plan,
    };
    let (got, want) = match (got, want(asked)) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(_), Err(_)) => return,
        (got, want) => panic!(
            "one side errors and the other does not: {:?} / {:?}\n{what}",
            got.map(|r| r.len()),
            want.map(|r| r.len())
        ),
    };
    match order {
        Order::Total => assert_eq!(canonical(got), canonical(want), "{what}"),
        Order::Bag => assert_eq!(bag(got), bag(want), "{what}"),
        Order::Sorted(keys) => {
            assert_sorted(&got, keys, what);
            assert_eq!(bag(got), bag(want), "{what}");
        }
        Order::Prefix(n, inner) => {
            // Any `n` rows of the input will do under a bag; under a sort,
            // any `n` that leave nothing smaller behind.
            let mut rest = want;
            assert_eq!(got.len(), rest.len().min(*n), "{what}");
            for row in &got {
                // The very row if the input has it, else its equal.
                let equal = |r: &Row| canonical_row(r) == canonical_row(row);
                let at = rest.iter().position(|r| r == row);
                let at = at.or_else(|| rest.iter().position(equal));
                let at = at.unwrap_or_else(|| panic!("{row:?} is no row of the input: {what}"));
                rest.swap_remove(at);
            }
            if let Order::Sorted(keys) = &**inner {
                assert_sorted(&got, keys, what);
                let last = got.last();
                let behind = |r| last.is_none_or(|l| by_keys(keys, l, r).is_le());
                assert!(
                    rest.iter().all(behind),
                    "a row left behind sorts first: {what}"
                );
            }
        }
        Order::Undefined => unreachable!("callers skip plans without a defined result"),
    }
}

/// The three checks of one query under one set of binds. Each returns
/// whether it had something to compare.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Check {
    Naive,
    Twin,
    Partition,
}

impl Check {
    fn hold(self, on: On, plan: &LogicalPlan) -> bool {
        match self {
            Check::Naive => hold_to_naive(on, plan),
            Check::Twin => hold_to_twin(on, plan),
            Check::Partition => hold_partitions(on, plan),
        }
    }
}

fn hold_to_naive(on: On, plan: &LogicalPlan) -> bool {
    let order = order_of(plan, on);
    if order == Order::Undefined {
        return false;
    }
    let what = format!("vexec / naive: {}", on.describe(plan));
    assert_rows(&order, plan, on.vexec(plan), &|p| on.naive(p), &what);
    true
}

/// `plan` with every column that is an operand of an `=` in a filter or a
/// join wrapped in an identity the access paths cannot see through.
fn defeat(plan: &LogicalPlan, on: On) -> LogicalPlan {
    fn wrap(e: &ScalarExpr, schema: &Schema, under_eq: bool) -> ScalarExpr {
        match e {
            ScalarExpr::Col(c) if under_eq => {
                let Ok(i) = schema.resolve(&c.to_ref_string()) else {
                    return e.clone();
                };
                let zero = match schema.column(i).dtype {
                    DataType::Int | DataType::Float => ScalarExpr::lit(0i64),
                    DataType::Str => ScalarExpr::lit(""),
                    DataType::Bool => return e.clone(),
                };
                ScalarExpr::bin(BinOp::Add, e.clone(), zero)
            }
            ScalarExpr::Bin(op, l, r) => {
                let eq = *op == BinOp::Eq;
                ScalarExpr::bin(*op, wrap(l, schema, eq), wrap(r, schema, eq))
            }
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(wrap(e, schema, false))),
            other => other.clone(),
        }
    }
    let schema_of = |p: &LogicalPlan| p.output_schema(on.db, on.funcs).expect("schema");
    match plan {
        LogicalPlan::Scan { .. } => plan.clone(),
        LogicalPlan::Select { input, pred } => {
            defeat(input, on).select(wrap(pred, &schema_of(input), false))
        }
        LogicalPlan::Join { left, right, pred } => {
            let schema = schema_of(left).join(&schema_of(right));
            defeat(left, on).join(defeat(right, on), wrap(pred, &schema, false))
        }
        LogicalPlan::Project { input, items } => defeat(input, on).project(items.clone()),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => defeat(input, on).aggregate(group_by.clone(), aggs.clone()),
        LogicalPlan::OrderBy { input, keys } => defeat(input, on).order_by(keys.clone()),
        LogicalPlan::Limit { input, n } => defeat(input, on).limit(*n),
    }
}

fn hold_to_twin(on: On, plan: &LogicalPlan) -> bool {
    let order = order_of(plan, on);
    let twin = defeat(plan, on);
    if order == Order::Undefined || twin == *plan {
        return false;
    }
    let what = format!("query / twin: {}\ntwin {twin:?}", on.describe(plan));
    let twin_rows = |p: &LogicalPlan| on.vexec(&defeat(p, on));
    assert_rows(&order, plan, on.vexec(plan), &twin_rows, &what);
    true
}

/// `P is null`, in a dialect without the operator.
fn is_unknown(p: &ScalarExpr) -> ScalarExpr {
    let known = ScalarExpr::Func(
        "coalesce".into(),
        vec![ScalarExpr::eq(p.clone(), p.clone()), ScalarExpr::lit(false)],
    );
    ScalarExpr::Not(Box::new(known))
}

fn hold_partitions(on: On, plan: &LogicalPlan) -> bool {
    let mut held = false;
    plan.walk(&mut |node| {
        // The node with another predicate, and with none.
        let (pred, with, whole): (_, Box<dyn Fn(ScalarExpr) -> LogicalPlan>, _) = match node {
            LogicalPlan::Select { input, pred } => {
                let with = |p| (**input).clone().select(p);
                (pred, Box::new(with), (**input).clone())
            }
            LogicalPlan::Join { left, right, pred } => {
                let with = |p| (**left).clone().join((**right).clone(), p);
                (pred, Box::new(with), with(ScalarExpr::lit(true)))
            }
            _ => return,
        };
        if order_of(&whole, on) == Order::Undefined {
            return;
        }
        let parts = [
            pred.clone(),
            ScalarExpr::Not(Box::new(pred.clone())),
            is_unknown(pred),
        ];
        let mut union = Vec::new();
        for p in parts {
            match on.vexec(&with(p)) {
                Ok(rows) => union.extend(rows),
                // A predicate that errors partitions nothing.
                Err(_) => return,
            }
        }
        let whole = on.vexec(&whole).expect("the unfiltered rows");
        assert_eq!(
            bag(union),
            bag(whole),
            "partitions of {}",
            on.describe(node)
        );
        held = true;
    });
    held
}

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

fn seed_count(default_count: u64) -> u64 {
    std::env::var("DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_count)
}

/// Every distinct query of `program`.
fn queries(program: &Program, out: &mut Vec<QuerySpec>) {
    for function in &program.functions {
        for stmt in &function.body {
            stmt.walk(&mut |s| {
                for e in s.exprs() {
                    e.walk(&mut |e| {
                        if let Expr::Query(q) | Expr::ScalarQuery(q) = e {
                            if !out.contains(q) {
                                out.push(q.clone());
                            }
                        }
                    });
                }
            });
        }
    }
}

/// The differential corpus: per case a fixture no table of which is too
/// long for a cross product, and the queries of the program as written
/// and as optimized for each network profile.
fn corpus() -> &'static [(Fixture, Vec<QuerySpec>)] {
    static CORPUS: OnceLock<Vec<(Fixture, Vec<QuerySpec>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let plain = (GenConfig::default(), 0..seed_count(200), 1.0);
        let skewed = (GenConfig::skewed(), 1000..1040, 0.2);
        let mut out = Vec::new();
        for (cfg, seeds, row_scale) in [plain, skewed] {
            for seed in seeds {
                let case = GenCase::from_seed(seed, &cfg);
                let mut found = Vec::new();
                queries(&case.program, &mut found);
                let profiles = [
                    NetworkProfile::slow_remote(),
                    mid_range(),
                    NetworkProfile::fast_local(),
                ];
                for net in profiles {
                    let cobra = case.fixture().cobra_builder().network(net).build();
                    let optimized = cobra.optimize_program(&case.program).expect("optimizes");
                    queries(&case.program.with_entry(optimized.program), &mut found);
                }
                let fixture = case.with_row_scale(row_scale).fixture();
                out.push((fixture, found));
            }
        }
        out
    })
}

/// The values of the column a parameter is compared with, if it is
/// compared with one: `col op :p` or `:p op col` anywhere in the plan.
fn compared_column(plan: &LogicalPlan, param: &str, db: &Database) -> Vec<Value> {
    fn find<'e>(e: &'e ScalarExpr, param: &str) -> Option<&'e ColRef> {
        match e {
            ScalarExpr::Bin(_, l, r) => match (&**l, &**r) {
                (ScalarExpr::Col(c), ScalarExpr::Param(p))
                | (ScalarExpr::Param(p), ScalarExpr::Col(c))
                    if p == param =>
                {
                    Some(c)
                }
                _ => find(l, param).or_else(|| find(r, param)),
            },
            ScalarExpr::Not(e) => find(e, param),
            _ => None,
        }
    }
    let mut column = None;
    plan.walk(&mut |p| {
        if let LogicalPlan::Select { pred, .. } | LogicalPlan::Join { pred, .. } = p {
            column = column.or(find(pred, param));
        }
    });
    let Some(column) = column else {
        return Vec::new();
    };
    for table in plan.base_tables() {
        let t = db.table(table).expect("table");
        if let Ok(i) = t.schema().resolve(&column.name) {
            return t.rows().iter().map(|row| row[i].clone()).collect();
        }
    }
    Vec::new()
}

/// The bind sets one query is run under: three drawn from the compared
/// columns and then, one parameter at a time, NULL, the Float twin of an
/// Int value, and a key one past the column's largest.
fn bind_sets(plan: &LogicalPlan, db: &Database, rng: &mut StdRng) -> Vec<Params> {
    let params = plan.params();
    if params.is_empty() {
        return vec![Params::new()];
    }
    let columns: Vec<Vec<Value>> = params
        .iter()
        .map(|p| compared_column(plan, p, db))
        .collect();
    let draw = |rng: &mut StdRng| -> Params {
        let value = |values: &Vec<Value>, rng: &mut StdRng| match values.len() {
            0 => Value::Int(rng.gen_range(0..100i64)),
            n => values[rng.gen_range(0..n)].clone(),
        };
        let drawn = columns.iter().map(|values| value(values, rng));
        params.iter().cloned().zip(drawn).collect()
    };
    let mut sets: Vec<Params> = (0..3).map(|_| draw(rng)).collect();
    for (param, values) in params.iter().zip(&columns) {
        let base = draw(rng);
        let twin = match &base[param] {
            Value::Int(i) => Value::Float(*i as f64),
            other => other.clone(),
        };
        let absent = match values.iter().filter_map(Value::as_i64).max() {
            Some(max) => Value::Int(max.wrapping_add(1)),
            None => Value::Int(-1),
        };
        for special in [Value::Null, twin, absent] {
            let mut set = base.clone();
            set.insert(param.clone(), special);
            sets.push(set);
        }
    }
    sets
}

/// `check` over the corpus; returns how many (query, binds) pairs it held.
fn corpus_holds(check: Check) -> usize {
    let mut held = 0;
    for (fixture, found) in corpus() {
        let db = fixture.db.read().expect("fixture lock");
        let mut rng = StdRng::seed_from_u64(7);
        for query in found {
            for params in bind_sets(&query.plan, &db, &mut rng) {
                let on = On {
                    db: &db,
                    funcs: &fixture.funcs,
                    params: &params,
                };
                held += check.hold(on, &query.plan) as usize;
            }
        }
    }
    held
}

#[test]
fn corpus_queries_equal_the_naive_evaluator() {
    let held = corpus_holds(Check::Naive);
    println!("{held} (query, binds) pairs held to naive");
    assert!(held > 1_000, "{held}");
}

#[test]
fn corpus_queries_equal_their_access_path_defeating_twins() {
    let held = corpus_holds(Check::Twin);
    println!("{held} (query, binds) pairs held to their twins");
    assert!(held > 300, "{held}");
}

#[test]
fn corpus_predicates_partition_their_inputs() {
    let held = corpus_holds(Check::Partition);
    println!("{held} (query, binds) pairs partitioned");
    assert!(held > 500, "{held}");
}

// ---------------------------------------------------------------------------
// The shapes of `engine_differential`, scaled down
// ---------------------------------------------------------------------------

fn shapes_hold(check: Check) {
    let none = Params::new();
    let funcs = FuncRegistry::with_builtins();
    let db = shapes::sales_db(100, 160);
    let on = On {
        db: &db,
        funcs: &funcs,
        params: &none,
    };
    for (label, plan) in &shapes::sales_cases(160, 4) {
        assert!(check.hold(on, plan) || check != Check::Naive, "{label}");
    }
    let fixture = shapes::olap_fixture(0.0002);
    let db = fixture.db.read().expect("fixture lock");
    let on = On {
        db: &db,
        funcs: &fixture.funcs,
        params: &none,
    };
    for (label, plan) in shapes::olap_cases()
        .iter()
        .chain(&shapes::join_path_cases())
    {
        assert!(check.hold(on, plan) || check != Check::Naive, "{label}");
    }
}

#[test]
fn scaled_down_shapes_equal_the_naive_evaluator() {
    shapes_hold(Check::Naive);
}

#[test]
fn scaled_down_shapes_equal_their_twins() {
    shapes_hold(Check::Twin);
}

#[test]
fn scaled_down_shapes_partition_their_inputs() {
    shapes_hold(Check::Partition);
}

// ---------------------------------------------------------------------------
// Generated queries over a schema of edge cases
// ---------------------------------------------------------------------------

/// One column of the edge schema, as the generator sees it.
#[derive(Clone)]
struct GenCol {
    table: &'static str,
    name: &'static str,
    dtype: DataType,
    /// Sums of this column are exact in any order (small dyadic values),
    /// so an aggregate of it may sit above a join.
    exact: bool,
}

const TABLES: [&str; 5] = ["a", "b", "c", "e", "x"];

fn edge_columns() -> Vec<GenCol> {
    use DataType::{Float, Int, Str};
    let col = |table, name, dtype, exact| GenCol {
        table,
        name,
        dtype,
        exact,
    };
    vec![
        col("a", "ak", Int, true),
        col("a", "an", Int, true),
        col("a", "af", Float, true),
        col("a", "at", Str, false),
        col("b", "bf", Float, true),
        col("b", "bn", Int, true),
        col("b", "bt", Str, false),
        col("c", "ck", Int, true),
        col("c", "cf", Float, true),
        col("c", "cn", Int, true),
        col("e", "ek", Int, true),
        col("e", "en", Int, true),
        col("e", "ef", Float, true),
        col("x", "xk", Int, false),
        col("x", "xf", Float, false),
    ]
}

/// * `a`: a dozen rows; `ak` the primary key, `an` nullable and indexed,
///   `af` quarters with `-0.0` among them, `at` a nullable indexed string.
/// * `b`: `bf` an indexed Float key holding `a`'s and `c`'s Int keys (and
///   `-0.0`, and halves), `bn` a nullable Int, `bt` a string.
/// * `c`: a hundred rows, large enough that a filtered `a` or `b` drives an
///   index join into it; `ck` the primary key, `cf` a nullable Float,
///   `cn` nullable and indexed.
/// * `e`: `a`'s shape, indexed, empty.
/// * `x`: the extremes of `i64`, the Ints around 2^53 that share a Float
///   image, and Floats to match, both indexed.
fn edge_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut table = |name: &str, cols: &[(&str, DataType)], indexed: &[&str], rows: Vec<Row>| {
        let columns = cols.iter().map(|(c, t)| Column::new(*c, *t)).collect();
        let t = db.create_table(name, Schema::new(columns)).unwrap();
        for column in indexed {
            t.create_index(column).unwrap();
        }
        t.insert_many(rows).unwrap();
    };
    let maybe = |rng: &mut StdRng, v: Value| if rng.chance(25) { Value::Null } else { v };
    let quarter = |rng: &mut StdRng| match rng.gen_range(0..12i64) {
        0 => Value::Float(-0.0),
        q => Value::Float((q - 4) as f64 / 4.0),
    };
    use DataType::{Float, Int, Str};

    let rows = (0..rng.gen_range(8..14i64))
        .map(|k| {
            let an = Value::Int(rng.gen_range(0..7i64));
            let at = Value::str(format!("s{}", rng.gen_range(0..4i64)));
            vec![
                Value::Int(k),
                maybe(&mut rng, an),
                quarter(&mut rng),
                maybe(&mut rng, at),
            ]
        })
        .collect();
    let cols = [("ak", Int), ("an", Int), ("af", Float), ("at", Str)];
    table("a", &cols, &["ak", "an", "at"], rows);

    let rows = (0..rng.gen_range(8..14i64))
        .map(|_| {
            let bf = match rng.gen_range(0..10i64) {
                0 => Value::Float(-0.0),
                1 => Value::Float(rng.gen_range(0..8i64) as f64 + 0.5),
                _ => Value::Float(rng.gen_range(0..12i64) as f64),
            };
            let bn = Value::Int(rng.gen_range(0..7i64));
            let bt = Value::str(format!("s{}", rng.gen_range(0..6i64)));
            vec![bf, maybe(&mut rng, bn), bt]
        })
        .collect();
    table(
        "b",
        &[("bf", Float), ("bn", Int), ("bt", Str)],
        &["bf"],
        rows,
    );

    let rows = (0..100i64)
        .map(|k| {
            let cf = Value::Float((k % 16) as f64 / 2.0);
            let cn = Value::Int(rng.gen_range(0..9i64));
            vec![Value::Int(k), maybe(&mut rng, cf), maybe(&mut rng, cn)]
        })
        .collect();
    table(
        "c",
        &[("ck", Int), ("cf", Float), ("cn", Int)],
        &["ck", "cn"],
        rows,
    );

    table(
        "e",
        &[("ek", Int), ("en", Int), ("ef", Float)],
        &["ek", "en"],
        Vec::new(),
    );

    const TWO_53: i64 = 1 << 53;
    let ints = [
        i64::MIN,
        i64::MIN + 1,
        -1,
        0,
        1,
        TWO_53,
        TWO_53 + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    let floats = [
        -0.0,
        0.0,
        1.0,
        -1.0,
        0.5,
        TWO_53 as f64,
        i64::MAX as f64,
        i64::MIN as f64,
    ];
    let rows = (0..12)
        .map(|_| {
            let xk = Value::Int(*rng.pick(&ints));
            let xf = Value::Float(*rng.pick(&floats));
            vec![maybe(&mut rng, xk), maybe(&mut rng, xf)]
        })
        .collect();
    table("x", &[("xk", Int), ("xf", Float)], &["xk", "xf"], rows);

    db.analyze_all();
    db
}

/// A seeded generator of plans over [`edge_db`].
struct Gen<'a> {
    rng: StdRng,
    db: &'a Database,
    cols: Vec<GenCol>,
}

impl Gen<'_> {
    fn columns_of(&self, tables: &[&str]) -> Vec<GenCol> {
        let of = |c: &&GenCol| tables.contains(&c.table);
        self.cols.iter().filter(of).cloned().collect()
    }

    /// A literal to compare `col` with: mostly one of its own values, else
    /// a neighbour, the same number in the other numeric type, or NULL.
    fn literal(&mut self, col: &GenCol) -> ScalarExpr {
        let db = self.db;
        let t = db.table(col.table).unwrap();
        let i = t.schema().resolve(col.name).unwrap();
        let values: Vec<&Value> = t.rows().iter().map(|r| &r[i]).collect();
        let own = match values.len() {
            0 => Value::Int(1),
            n => values[self.rng.gen_range(0..n)].clone(),
        };
        let v = match (self.rng.gen_range(0..10u32), own) {
            (0, _) => Value::Null,
            (1, Value::Int(i)) => Value::Float(i as f64),
            (1, Value::Float(f)) if f.fract() == 0.0 && f.abs() < 1e15 => Value::Int(f as i64),
            (2, Value::Int(i)) => Value::Int(i.wrapping_add(1)),
            (2, Value::Float(f)) => Value::Float(f + 0.25),
            (_, Value::Null) if col.dtype == DataType::Str => Value::str("s1"),
            (_, Value::Null) => Value::Int(2),
            (_, own) => own,
        };
        ScalarExpr::Lit(v)
    }

    fn comparison(&mut self) -> BinOp {
        use BinOp::*;
        // `=` as often as the rest together: it is what access paths take.
        *self.rng.pick(&[Eq, Eq, Eq, Eq, Eq, Ne, Lt, Le, Gt, Ge])
    }

    fn pick_col(&mut self, cols: &[GenCol], numeric: Option<bool>) -> GenCol {
        let fits = |c: &&GenCol| numeric.is_none_or(|n| n == (c.dtype != DataType::Str));
        let fitting: Vec<&GenCol> = cols.iter().filter(fits).collect();
        (*self.rng.pick(&fitting)).clone()
    }

    /// A numeric expression over `cols`: a column, or one arithmetic step.
    fn number(&mut self, cols: &[GenCol]) -> ScalarExpr {
        let c = self.pick_col(cols, Some(true));
        let e = ScalarExpr::col(c.name);
        match self.rng.gen_range(0..10u32) {
            0..=5 => return e,
            6 => return ScalarExpr::Func("abs".into(), vec![e]),
            _ => {}
        }
        let op = *self
            .rng
            .pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
        let other = if self.rng.gen_bool() {
            let d = self.pick_col(cols, Some(true));
            ScalarExpr::col(d.name)
        } else {
            self.literal(&c)
        };
        ScalarExpr::bin(op, e, other)
    }

    fn atom(&mut self, cols: &[GenCol]) -> ScalarExpr {
        let op = self.comparison();
        let c = self.pick_col(cols, None);
        let col = ScalarExpr::col(c.name);
        let (l, r) = match self.rng.gen_range(0..10u32) {
            0..=4 => (col, self.literal(&c)),
            5 => (self.literal(&c), col),
            6 | 7 => {
                let d = self.pick_col(cols, Some(c.dtype != DataType::Str));
                (col, ScalarExpr::col(d.name))
            }
            _ if c.dtype == DataType::Str => (col, self.literal(&c)),
            _ => (self.number(cols), self.number(cols)),
        };
        ScalarExpr::bin(op, l, r)
    }

    fn predicate(&mut self, cols: &[GenCol], depth: u32) -> ScalarExpr {
        if depth == 0 || self.rng.chance(45) {
            return self.atom(cols);
        }
        match self.rng.gen_range(0..5u32) {
            0 => ScalarExpr::Not(Box::new(self.predicate(cols, depth - 1))),
            1 | 2 => ScalarExpr::bin(
                BinOp::Or,
                self.predicate(cols, depth - 1),
                self.predicate(cols, depth - 1),
            ),
            _ => ScalarExpr::and(
                self.predicate(cols, depth - 1),
                self.predicate(cols, depth - 1),
            ),
        }
    }

    /// A table, filtered or not.
    fn source(&mut self, table: &'static str) -> LogicalPlan {
        let scan = LogicalPlan::scan(table);
        if self.rng.chance(50) {
            return scan;
        }
        let cols = self.columns_of(&[table]);
        scan.select(self.predicate(&cols, 2))
    }

    /// Two tables joined on a key of each, Int with Int, Float or a
    /// nullable one as they come; half the time with a residual conjunct,
    /// one time in eight without an equality at all.
    fn join(&mut self) -> (LogicalPlan, Vec<GenCol>) {
        let l = *self.rng.pick(&TABLES);
        let others: Vec<&str> = TABLES.iter().filter(|t| **t != l).copied().collect();
        let r = *self.rng.pick(&others);
        let (cols, l_cols, r_cols) = (
            self.columns_of(&[l, r]),
            self.columns_of(&[l]),
            self.columns_of(&[r]),
        );
        let (lk, rk) = (
            self.pick_col(&l_cols, Some(true)),
            self.pick_col(&r_cols, Some(true)),
        );
        let (lk, rk) = (ScalarExpr::col(lk.name), ScalarExpr::col(rk.name));
        let mut pred = match self.rng.gen_range(0..8u32) {
            0 => ScalarExpr::bin(BinOp::Lt, lk, rk),
            1..=4 => ScalarExpr::eq(lk, rk),
            _ => ScalarExpr::eq(rk, lk),
        };
        if self.rng.gen_bool() {
            let residual = self.predicate(&cols, 1);
            pred = if self.rng.gen_bool() {
                ScalarExpr::and(pred, residual)
            } else {
                ScalarExpr::and(residual, pred)
            };
        }
        (self.source(l).join(self.source(r), pred), cols)
    }

    fn aggregate(&mut self, input: LogicalPlan, cols: &[GenCol], above_join: bool) -> LogicalPlan {
        let group_by: Vec<ColRef> = (0..self.rng.gen_range(0..3u32))
            .map(|_| ColRef::parse(self.pick_col(cols, None).name))
            .collect();
        let mut aggs = vec![AggItem {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
        }];
        for i in 0..self.rng.gen_range(1..4u32) {
            let func = *self.rng.pick(&[
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ]);
            let summed = matches!(func, AggFunc::Sum | AggFunc::Avg);
            let c = self.pick_col(cols, summed.then_some(true));
            // A Float sum is exact in any order or it is not compared.
            let reordered = above_join && summed && !c.exact;
            let func = if reordered { AggFunc::Max } else { func };
            let arg = match self.rng.gen_range(0..4u32) {
                0 if summed && !reordered && c.exact => {
                    ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(c.name), ScalarExpr::lit(2i64))
                }
                // Through a function, so through no typed accumulator.
                1 => {
                    let zero = match c.dtype {
                        DataType::Float => ScalarExpr::lit(0.0),
                        DataType::Str => ScalarExpr::lit(""),
                        _ => ScalarExpr::lit(0i64),
                    };
                    ScalarExpr::Func("coalesce".into(), vec![ScalarExpr::col(c.name), zero])
                }
                _ => ScalarExpr::col(c.name),
            };
            aggs.push(AggItem {
                func,
                arg: Some(arg),
                name: format!("v{i}"),
            });
        }
        input.aggregate(group_by, aggs)
    }

    /// One query: a filter, a join or an aggregate of either, sometimes
    /// projected, sorted and cut.
    fn query(&mut self) -> LogicalPlan {
        let joined = self.rng.chance(45);
        let (mut plan, cols) = if joined {
            self.join()
        } else {
            let t = *self.rng.pick(&TABLES);
            let cols = self.columns_of(&[t]);
            (LogicalPlan::scan(t).select(self.predicate(&cols, 2)), cols)
        };
        match self.rng.gen_range(0..10u32) {
            0..=2 => return self.aggregate(plan, &cols, joined),
            3 | 4 => {
                let items = (0..self.rng.gen_range(1..4u32))
                    .map(|i| {
                        let e = if self.rng.gen_bool() {
                            self.number(&cols)
                        } else {
                            self.predicate(&cols, 1)
                        };
                        (e, format!("p{i}"))
                    })
                    .collect();
                return plan.project(items);
            }
            _ => {}
        }
        if self.rng.chance(40) {
            let keys = (0..self.rng.gen_range(1..3u32))
                .map(|_| {
                    let dir = *self.rng.pick(&[SortDir::Asc, SortDir::Desc]);
                    (ColRef::parse(self.pick_col(&cols, None).name), dir)
                })
                .collect();
            plan = plan.order_by(keys);
        }
        if self.rng.chance(30) {
            plan = plan.limit(self.rng.gen_range(0..12u64));
        }
        plan
    }
}

/// `check` over `queries` generated queries on each of a few data seeds;
/// returns how many it held.
fn edge_queries_hold(check: Check) -> usize {
    let funcs = FuncRegistry::with_builtins();
    let none = Params::new();
    let mut held = 0;
    for seed in 0..seed_count(200).div_ceil(25) {
        let db = edge_db(seed);
        let mut gen = Gen {
            rng: StdRng::seed_from_u64(1_000 + seed),
            db: &db,
            cols: edge_columns(),
        };
        let on = On {
            db: &db,
            funcs: &funcs,
            params: &none,
        };
        for _ in 0..300 {
            held += check.hold(on, &gen.query()) as usize;
        }
    }
    held
}

#[test]
fn generated_queries_equal_the_naive_evaluator() {
    let held = edge_queries_hold(Check::Naive);
    println!("{held} generated queries held to naive");
    assert!(held > 1_000, "{held}");
}

#[test]
fn generated_queries_equal_their_access_path_defeating_twins() {
    let held = edge_queries_hold(Check::Twin);
    println!("{held} generated queries held to their twins");
    assert!(held > 500, "{held}");
}

#[test]
fn generated_predicates_partition_their_inputs() {
    let held = edge_queries_hold(Check::Partition);
    println!("{held} generated queries partitioned");
    assert!(held > 800, "{held}");
}

// ---------------------------------------------------------------------------
// `k = :p` by the query, by the column cache and by the session
// ---------------------------------------------------------------------------

/// What a column of `values` is looked up by: each of its values, the same
/// number in the other numeric type, its neighbour; NULL, the zeros, and a
/// key one past the largest.
fn lookup_keys(values: &[Value]) -> Vec<Value> {
    let mut keys = vec![
        Value::Null,
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Int(0),
        Value::str("s9"),
    ];
    let max = values.iter().filter_map(Value::as_i64).max();
    keys.push(Value::Int(max.map_or(-1, |max| max.wrapping_add(1))));
    for v in values {
        keys.push(v.clone());
        match v {
            Value::Int(i) => keys.extend([Value::Float(*i as f64), Value::Int(i.wrapping_sub(1))]),
            Value::Float(f) => keys.extend([Value::Int(*f as i64), Value::Float(f + 0.25)]),
            _ => {}
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// `out`, after `for r in rows { out.add(r) }` behind `setup`.
fn collected(fixture: &Fixture, setup: Vec<StmtKind>, rows: Expr) -> Vec<Row> {
    let add = StmtKind::Add("out".into(), Expr::var("r"));
    let each = StmtKind::ForEach {
        var: "r".into(),
        iter: rows,
        body: vec![Stmt::new(add)],
    };
    let kinds = [StmtKind::NewCollection("out".into())].into_iter();
    let body = kinds.chain(setup).chain([each]).map(Stmt::new).collect();
    let program = Program::single(Function::new("lookup", vec![], body));
    let run = run_on(fixture, NetworkProfile::fast_local(), &program).expect("the program runs");
    let Snapshot::List(out) = run.outcome.var_snapshot("out") else {
        panic!("out is a collection")
    };
    let row = |r: Snapshot| match r {
        Snapshot::Row(values) => values,
        other => panic!("{other} is no row"),
    };
    out.into_iter().map(row).collect()
}

/// The rewrite the paper opens with (Fig. 3c, rule N1) puts `lookupCache`
/// where `where k = :p` was, and association navigation reads the session's
/// cache where it would have queried: over every column of the edge schema
/// and every key, the three find the rows the naive evaluator finds.
#[test]
fn a_key_finds_the_same_rows_by_query_by_column_cache_and_by_session() {
    let funcs = Arc::new(FuncRegistry::with_builtins());
    let mut mapping = MappingRegistry::new();
    mapping.register(EntityMapping::new("A", "a", "ak"));
    mapping.register(EntityMapping::new("C", "c", "ck"));
    let (mut looked_up, mut session_hits) = (0, 0);
    for seed in 0..seed_count(200).div_ceil(50) {
        let fixture = Fixture {
            db: minidb::shared(edge_db(seed)),
            mapping: mapping.clone(),
            funcs: funcs.clone(),
        };
        let db = fixture.db.read().expect("fixture lock");
        let remote = RemoteDb::new(
            fixture.db.clone(),
            funcs.clone(),
            NetworkProfile::fast_local(),
            Prices::default(),
        );
        let session = Session::new(Arc::new(remote), Arc::new(mapping.clone()));
        for col in edge_columns() {
            let (table, k) = (col.table, col.name);
            let t = db.table(table).unwrap();
            let at = t.schema().resolve(k).unwrap();
            let values: Vec<Value> = t.rows().iter().map(|r| r[at].clone()).collect();
            let entity = mapping.entity_for_table(table).filter(|m| m.id_column == k);
            if let Some(m) = entity {
                session.load_all(&m.entity).unwrap();
            }
            let select = minidb::sql::parse(&format!("select * from {table} where {k} = :p"));
            let select = QuerySpec::of(select.unwrap());
            for key in lookup_keys(&values) {
                let what = format!("{table}.{k} = {key:?}, data seed {seed}");
                let params = Params::from([("p".to_string(), key.clone())]);
                let on = On {
                    db: &db,
                    funcs: &funcs,
                    params: &params,
                };
                let want = canonical(on.naive(&select.plan).unwrap());

                let query = select.clone().bind("p", Expr::Lit(key.clone()));
                let by_query = collected(&fixture, vec![], Expr::Query(query));
                assert_eq!(canonical(by_query), want, "executeQuery: {what}");

                let cache = StmtKind::CacheByColumn {
                    cache: "cache".into(),
                    source: Expr::Query(QuerySpec::sql(&format!("select * from {table}"))),
                    key_col: k.into(),
                };
                let lookup = Expr::LookupCache("cache".into(), Box::new(Expr::Lit(key.clone())));
                let by_cache = collected(&fixture, vec![cache], lookup);
                assert_eq!(canonical(by_cache), want, "lookupCache: {what}");
                looked_up += 1;

                // A key the loaded table holds costs no round trip.
                let Some(m) = entity else { continue };
                let trips = session.remote().round_trips();
                let got = session.get(&m.entity, &key).unwrap();
                let got: Vec<Row> = got.iter().map(|row| row.values()).collect();
                assert_eq!(canonical(got), want, "Session::get: {what}");
                if !want.is_empty() {
                    assert_eq!(session.remote().round_trips(), trips, "{what}");
                    session_hits += 1;
                }
            }
        }
    }
    println!("{looked_up} (column, key) pairs looked up three ways, {session_hits} session hits");
    assert!(
        looked_up > 1_000 && session_hits > 300,
        "{looked_up} {session_hits}"
    );
}

// ---------------------------------------------------------------------------
// Errors, and the reference's own reference
// ---------------------------------------------------------------------------

/// `plan` with the `nth` leaf (column or literal) of its predicates,
/// projections and aggregate arguments, counted from 0 in plan order,
/// replaced by `with(leaf)`; `None` if it has fewer leaves.
fn replace_leaf(
    plan: &LogicalPlan,
    nth: usize,
    with: &dyn Fn(&ScalarExpr) -> ScalarExpr,
) -> Option<LogicalPlan> {
    fn expr(
        e: &ScalarExpr,
        left: &mut Option<usize>,
        with: &dyn Fn(&ScalarExpr) -> ScalarExpr,
    ) -> ScalarExpr {
        match e {
            ScalarExpr::Col(_) | ScalarExpr::Lit(_) => match left {
                Some(0) => {
                    *left = None;
                    with(e)
                }
                Some(n) => {
                    *n -= 1;
                    e.clone()
                }
                None => e.clone(),
            },
            ScalarExpr::Bin(op, l, r) => {
                let l = expr(l, left, with);
                ScalarExpr::bin(*op, l, expr(r, left, with))
            }
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(expr(e, left, with))),
            ScalarExpr::Func(name, args) => {
                let args = args.iter().map(|a| expr(a, left, with)).collect();
                ScalarExpr::Func(name.clone(), args)
            }
            ScalarExpr::Param(_) => e.clone(),
        }
    }
    fn node(
        p: &LogicalPlan,
        left: &mut Option<usize>,
        with: &dyn Fn(&ScalarExpr) -> ScalarExpr,
    ) -> LogicalPlan {
        match p {
            LogicalPlan::Scan { .. } => p.clone(),
            LogicalPlan::Select { input, pred } => {
                let input = node(input, left, with);
                input.select(expr(pred, left, with))
            }
            LogicalPlan::Join {
                left: l,
                right,
                pred,
            } => {
                let (l, r) = (node(l, left, with), node(right, left, with));
                l.join(r, expr(pred, left, with))
            }
            LogicalPlan::Project { input, items } => {
                let input = node(input, left, with);
                let item = |(e, name): &(ScalarExpr, String)| (expr(e, left, with), name.clone());
                input.project(items.iter().map(item).collect())
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let input = node(input, left, with);
                let agg = |a: &AggItem| AggItem {
                    arg: a.arg.as_ref().map(|e| expr(e, left, with)),
                    ..a.clone()
                };
                input.aggregate(group_by.clone(), aggs.iter().map(agg).collect())
            }
            LogicalPlan::OrderBy { input, keys } => node(input, left, with).order_by(keys.clone()),
            LogicalPlan::Limit { input, n } => node(input, left, with).limit(*n),
        }
    }
    let mut left = Some(nth);
    let replaced = node(plan, &mut left, with);
    left.is_none().then_some(replaced)
}

/// A statement that cannot be bound fails whatever the tables hold —
/// behind an empty input, a probe that matches nothing, a conjunct an
/// access path has proven — and a type error is met by both evaluators or
/// by neither.
#[test]
fn queries_fail_on_the_engine_when_they_fail_on_the_reference() {
    let funcs = FuncRegistry::with_builtins();
    let none = Params::new();
    let db = edge_db(3);
    let on = On {
        db: &db,
        funcs: &funcs,
        params: &none,
    };
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(99),
        db: &db,
        cols: edge_columns(),
    };
    type Defect<'d> = (&'d str, &'d dyn Fn(&ScalarExpr) -> ScalarExpr);
    let unbindable: [Defect; 3] = [
        ("an unbound parameter", &|_| ScalarExpr::param("unbound")),
        ("an unknown column", &|_| ScalarExpr::col("nosuch")),
        ("an unknown function", &|e| {
            ScalarExpr::Func("nosuch".into(), vec![e.clone()])
        }),
    ];
    let mut failed = 0;
    for round in 0..seed_count(200) * 2 {
        let plan = gen.query();
        let (what, defect) = unbindable[round as usize % 3];
        let Some(broken) = replace_leaf(&plan, gen.rng.gen_range(0..6usize), defect) else {
            continue;
        };
        let describe = format!("{what} in {broken:?}");
        assert!(on.naive(&broken).is_err(), "the reference binds {describe}");
        assert!(on.vexec(&broken).is_err(), "the engine runs {describe}");
        failed += 1;
    }
    assert!(failed > 100, "{failed}");

    // `k = k` resolves on each side of a self-join and on neither side of
    // its output, whichever join runs it and whatever else is asked.
    for table in TABLES {
        let cols = gen.columns_of(&[table]);
        let k = gen.pick_col(&cols, Some(true));
        let on_k = ScalarExpr::eq(ScalarExpr::col(k.name), ScalarExpr::col(k.name));
        let pred = match gen.rng.gen_range(0..3u32) {
            0 => on_k,
            1 => ScalarExpr::and(on_k, gen.atom(std::slice::from_ref(&k))),
            _ => ScalarExpr::and(ScalarExpr::lit(true), on_k),
        };
        let plan = gen.source(table).join(gen.source(table), pred);
        assert!(on.naive(&plan).is_err(), "the reference binds {plan:?}");
        assert!(on.vexec(&plan).is_err(), "the engine runs {plan:?}");
    }

    // A type error where every row must meet it: the whole predicate, a
    // projected item, an aggregate's argument. Over `e` no row does.
    let mut met = 0;
    for round in 0..200 {
        let table = *gen.rng.pick(&TABLES);
        let cols = gen.columns_of(&[table]);
        let c = gen.pick_col(&cols, None);
        let other = match c.dtype {
            DataType::Str => ScalarExpr::lit(1i64),
            _ => ScalarExpr::lit("x"),
        };
        let op = *gen
            .rng
            .pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
        let bad = ScalarExpr::bin(op, ScalarExpr::col(c.name), other);
        let plan = match round % 4 {
            0 => LogicalPlan::scan(table).select(ScalarExpr::bin(BinOp::Lt, bad, gen.literal(&c))),
            1 => LogicalPlan::scan(table).select(ScalarExpr::Not(Box::new(bad))),
            2 => gen.source(table).project(vec![(bad, "p".into())]),
            _ => {
                let sum = AggItem {
                    func: AggFunc::Sum,
                    arg: Some(bad),
                    name: "s".into(),
                };
                gen.source(table).aggregate(vec![], vec![sum])
            }
        };
        let (engine, reference) = (on.vexec(&plan), on.naive(&plan));
        assert_eq!(engine.is_err(), reference.is_err(), "{plan:?}");
        met += reference.is_err() as usize;
    }
    assert!(
        (50..200).contains(&met),
        "{met} of 200 type errors were met"
    );
}

/// The reference's reference: naive's joins and filters on the four tables
/// where the access paths once answered `=` by `Value` identity, against a
/// double loop over plain Rust numbers.
#[test]
fn naive_matches_a_double_loop_where_access_paths_once_went_wrong() {
    let mut db = Database::new();
    let (a, b, c): (Vec<i64>, Vec<f64>, Vec<i64>) = (
        (0..4).collect(),
        vec![0.0, 1.0, 2.5, 3.0, -0.0],
        (0..100).collect(),
    );
    let n = [Some(1), None, None];
    let int = |v: &i64| vec![Value::Int(*v)];
    let column = |name: &str, t| Schema::new(vec![Column::new(name, t)]);
    let t = db.create_table("a", column("ai", DataType::Int)).unwrap();
    t.insert_many(a.iter().map(int)).unwrap();
    let t = db.create_table("b", column("bf", DataType::Float)).unwrap();
    t.insert_many(b.iter().map(|v| vec![Value::Float(*v)]))
        .unwrap();
    let t = db.create_table("c", column("ci", DataType::Int)).unwrap();
    t.insert_many(c.iter().map(int)).unwrap();
    let t = db.create_table("n", column("ni", DataType::Int)).unwrap();
    t.insert_many(n.iter().map(|v| vec![v.map_or(Value::Null, Value::Int)]))
        .unwrap();

    let funcs = FuncRegistry::with_builtins();
    let none = Params::new();
    let on = On {
        db: &db,
        funcs: &funcs,
        params: &none,
    };
    let naive = |sql: &str| on.naive(&minidb::sql::parse(sql).unwrap()).unwrap();
    let mut pairs = Vec::new();
    for ai in &a {
        for bf in b.iter().filter(|bf| *ai as f64 == **bf) {
            pairs.push(vec![Value::Int(*ai), Value::Float(*bf)]);
        }
    }
    assert_eq!(pairs.len(), 2 + 1 + 1, "0 meets 0.0 and -0.0");
    assert_eq!(naive("select * from a join b on ai = bf"), pairs);
    let mut pairs = Vec::new();
    for bf in &b {
        for ci in c.iter().filter(|ci| **ci as f64 == *bf) {
            pairs.push(vec![Value::Float(*bf), Value::Int(*ci)]);
        }
    }
    assert_eq!(naive("select * from b join c on bf = ci"), pairs);
    let ones: Vec<Row> = c.iter().filter(|ci| **ci as f64 == 1.0).map(int).collect();
    assert_eq!(naive("select * from c where ci = 1.0"), ones);
    assert_eq!(naive("select * from n where ni = null"), Vec::<Row>::new());
    assert_eq!(
        naive("select * from n where not ni = null"),
        Vec::<Row>::new()
    );
    assert_eq!(
        naive("select * from n where ni = 1"),
        vec![vec![Value::Int(1)]]
    );
}
