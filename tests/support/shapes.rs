//! The hand-built databases and plan shapes of the engine suites, at a
//! size the caller picks: `engine_differential` runs them at full size
//! and pins what comes out, `engine_reference` at a size a filtered cross
//! product can follow.

use cobra::minidb::plan::{AggItem, SortDir};
use cobra::minidb::{
    sql, AggFunc, BinOp, ColRef, Column, DataType, Database, LogicalPlan, ScalarExpr, Schema, Value,
};
use cobra::netsim::rng::StdRng;
use cobra::workloads::genprog::{GenConfig, GenSchema};
use cobra::workloads::harness::Fixture;

fn col(c: &str) -> ScalarExpr {
    ScalarExpr::col(c)
}

fn lt(c: &str, v: impl Into<Value>) -> ScalarExpr {
    ScalarExpr::bin(BinOp::Lt, col(c), ScalarExpr::lit(v))
}

/// `items` items and `sales` sales whose foreign keys are skewed (a few
/// hot items), duplicated, a tenth of them dangling and, in one column,
/// sometimes NULL; 50 groups, of which the items use 60 ids. At 20 000 ×
/// 30 000 the joins fill many buckets of the build table and compose
/// selection vectors more than once.
pub fn sales_db(items: i64, sales: i64) -> Database {
    let mut rng = StdRng::seed_from_u64(14);
    let mut db = Database::new();

    let t = db
        .create_table(
            "item",
            Schema::new(vec![
                Column::new("i_id", DataType::Int),
                Column::new("i_grp", DataType::Int),
                Column::new("i_price", DataType::Float),
                Column::with_width("i_name", DataType::Str, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("i_id").unwrap();
    for i in 0..items {
        t.insert(vec![
            Value::Int(i),
            Value::Int(rng.gen_range(0..60i64)),
            Value::Float(rng.gen_range(0..10_000i64) as f64 / 100.0),
            Value::str(format!("item{}", i % 97)),
        ])
        .unwrap();
    }

    let t = db
        .create_table(
            "sale",
            Schema::new(vec![
                Column::new("s_id", DataType::Int),
                Column::new("s_item", DataType::Int),
                Column::new("s_item_opt", DataType::Int),
                Column::new("s_qty", DataType::Int),
            ]),
        )
        .unwrap();
    t.set_primary_key("s_id").unwrap();
    for s in 0..sales {
        // 2 % of the sales go to four hot items; the rest are uniform
        // over a range a tenth of which has no item.
        let item = if rng.chance(2) {
            rng.gen_range(0..4i64)
        } else {
            rng.gen_range(0..items + items / 10)
        };
        let item_opt = if rng.chance(5) {
            Value::Null
        } else {
            Value::Int(item)
        };
        let qty = rng.gen_range(1..20i64);
        t.insert(vec![
            Value::Int(s),
            Value::Int(item),
            item_opt,
            Value::Int(qty),
        ])
        .unwrap();
    }

    let t = db
        .create_table(
            "grp",
            Schema::new(vec![
                Column::new("g_id", DataType::Int),
                Column::with_width("g_label", DataType::Str, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("g_id").unwrap();
    for g in 0..50i64 {
        t.insert(vec![Value::Int(g), Value::str(format!("g{g}"))])
            .unwrap();
    }
    db.analyze_all();
    db
}

/// The joins over [`sales_db`] with `sales` sales. `few` sales are few
/// enough that what survives `s_id < few` drives the next join by index
/// lookups (20 of 30 000).
pub fn sales_cases(sales: i64, few: i64) -> Vec<(String, LogicalPlan)> {
    let sale_item = || {
        LogicalPlan::scan("sale").join(
            LogicalPlan::scan("item"),
            ScalarExpr::eq(col("s_item"), col("i_id")),
        )
    };
    // join → filter → join → project: three segments, the first two
    // composed by the filter and again by the second join.
    let chain = |keep_sales: i64| {
        sale_item()
            .select(ScalarExpr::and(lt("i_price", 40.0), lt("s_id", keep_sales)))
            .join(
                LogicalPlan::scan("grp"),
                ScalarExpr::eq(col("i_grp"), col("g_id")),
            )
            .project(vec![
                (col("s_id"), "s_id".into()),
                (col("g_label"), "label".into()),
                (
                    ScalarExpr::bin(BinOp::Mul, col("i_price"), col("s_qty")),
                    "total".into(),
                ),
                (col("i_name"), "name".into()),
            ])
    };
    let mut cases: Vec<(String, LogicalPlan)> = [
        // Typed i64 keys; NULL-able keys (the `Value` path); both ways
        // round. `item` is indexed, so each also rejects an INL attempt.
        "select * from sale join item on s_item = i_id",
        "select * from item join sale on i_id = s_item_opt",
        "select count(*) as n, sum(s_qty) as q from sale join item on s_item_opt = i_id",
        // Self-joins on the skewed key, with a residual and without.
        "select a.s_id, b.s_id, b.s_qty from sale a join sale b \
         on a.s_item = b.s_item and a.s_qty < b.s_qty",
        "select count(*) as n from sale a join sale b on a.s_item_opt = b.s_item_opt",
        // Three-way chain, aggregated and sorted.
        "select g_label, count(*) as n, sum(s_qty) as q, avg(i_price) as p \
         from sale join item on s_item = i_id join grp on i_grp = g_id \
         where s_qty > 3 group by g_label order by g_label",
        // ORDER BY / LIMIT over a joined chunk.
        "select * from sale join item on s_item = i_id \
         where i_price > 90.0 order by i_price desc, s_id limit 100",
        // Well over 10 000 distinct Int keys: the group table doubles ten
        // times and more, and the groups still come out in first-seen
        // order. Then the same key with NULLs (grouped by `Value`), and a
        // key read through a join's selection with Float arguments.
        "select s_item, count(*) as n, sum(s_qty) as q, min(s_id) as lo, max(s_qty) as hi, \
         avg(s_qty) as a from sale group by s_item",
        "select s_item_opt, count(*) as n, count(s_item_opt) as m, sum(s_qty) as q \
         from sale group by s_item_opt",
        "select i_grp, count(*) as n, sum(i_price) as p, min(i_price) as lo, avg(s_qty) as a \
         from sale join item on s_item = i_id where s_qty < 15 group by i_grp",
    ]
    .iter()
    .map(|text| (text.to_string(), sql::parse(text).expect("query parses")))
    .collect();
    cases.extend([
        ("chain, hash joins throughout".to_string(), chain(sales)),
        // Few enough sales survive that `grp`, then a second copy of
        // `item`, are joined by index lookups driven from a chunk of
        // several segments.
        ("chain, INL second join".to_string(), chain(few)),
        (
            "chain joined back to item by index".to_string(),
            sale_item()
                .select(lt("s_id", 15 * few))
                .join(
                    LogicalPlan::scan_as("item", "j"),
                    ScalarExpr::eq(col("s_qty"), col("j.i_id")),
                )
                .order_by(vec![(ColRef::parse("j.i_name"), SortDir::Asc)])
                .limit(250),
        ),
        // No equi conjunct: the nested-loop path over composed inputs.
        (
            "nested loop over a joined chunk".to_string(),
            sale_item().select(lt("s_id", 15 * few / 2)).join(
                LogicalPlan::scan("grp"),
                ScalarExpr::bin(BinOp::Lt, col("i_grp"), col("g_id")),
            ),
        ),
    ]);
    cases
}

/// `cobra_bench`'s `exec_olap` schema (`GenSchema` seed 2024,
/// `GenConfig::large()`: `t0`, and `t1` with a foreign key into it, a
/// million rows each and more) at `row_scale` of its size.
pub fn olap_fixture(row_scale: f64) -> Fixture {
    let schema = GenSchema::generate(&mut StdRng::seed_from_u64(2024), &GenConfig::large());
    schema.build_fixture(1, row_scale)
}

/// The five plan shapes of `exec_olap`; each ends in an aggregate whose
/// last column counts or sums what it saw.
pub fn olap_cases() -> Vec<(&'static str, LogicalPlan)> {
    // A filtered build side of a few rows, probed by all of `t1`.
    let small_build = LogicalPlan::scan("t0")
        .select(ScalarExpr::and(lt("t0_a", 3i64), lt("t0_b", 5i64)))
        .join(
            LogicalPlan::scan("t1"),
            ScalarExpr::eq(col("t0_id"), col("t1_fk")),
        )
        .aggregate(
            vec![],
            vec![AggItem {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        );
    let mut cases: Vec<(&str, LogicalPlan)> = [
        "select sum(t0_a) as s from t0",
        "select count(*) as n from t0 where t0_a < 20 and t0_b < 25",
        "select count(*) as n from t0 join t1 on t0_id = t1_fk where t1_b < 10",
        "select t0_a, count(*) as n, sum(t0_b) as s from t0 group by t0_a",
    ]
    .iter()
    .map(|text| (*text, sql::parse(text).expect("query parses")))
    .collect();
    cases.push(("small filtered build side", small_build));
    cases
}

/// The hash join's two typed paths where `exec_olap`'s shapes do not take
/// them, on [`olap_fixture`]: long chains and an output far larger than
/// its inputs on the directly addressed table, spread-out keys on the
/// hashed one, and a residual conjunct behind a filtered build side.
pub fn join_path_cases() -> Vec<(&'static str, LogicalPlan)> {
    // At most 100 distinct values under skew 2.5: a dense range whose
    // chains are hundreds of rows long.
    let fan_out = LogicalPlan::scan("t0").join(
        LogicalPlan::scan("t1"),
        ScalarExpr::eq(col("t0_a"), col("t1_b")),
    );
    // Keys and foreign keys a thousand apart: too wide a range for the
    // rows that carry it, so hashed.
    let spread = |table: &str, key: &str, name: &str| {
        let wide = ScalarExpr::bin(BinOp::Mul, col(key), ScalarExpr::lit(1000i64));
        LogicalPlan::scan(table).project(vec![(wide, name.into())])
    };
    let sparse = spread("t0", "t0_id", "k").join(
        spread("t1", "t1_fk", "fk"),
        ScalarExpr::eq(col("k"), col("fk")),
    );
    // `exec_olap`'s `join_small_build` with a conjunct the probe does not
    // prove.
    let residual = LogicalPlan::scan("t0")
        .select(ScalarExpr::and(lt("t0_a", 3i64), lt("t0_b", 5i64)))
        .join(
            LogicalPlan::scan("t1"),
            ScalarExpr::and(
                ScalarExpr::eq(col("t0_id"), col("t1_fk")),
                lt("t1_b", 10i64),
            ),
        );
    vec![
        ("fan-out on non-key columns", fan_out),
        ("spread-out keys", sparse),
        ("filtered build side and a residual", residual),
    ]
}
