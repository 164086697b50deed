//! Workload `exec_olap`: `minidb::Executor::execute` on the default
//! engine over a generated schema of about 0.9M rows. Data-plane kernels
//! only; the optimizer and the server are idle.
//!
//! An op is one query execution; its kind is the query. `join` builds its
//! hash table on all of `t0` (build-dominated, table far larger than L2);
//! `join_small_build` builds on a handful of `t0` rows and probes with
//! all of `t1` (probe-dominated, table in L1): the same hash-join code
//! used two ways, so a change to it must win one without costing the
//! other (ROADMAP 3a).

use crate::harness::{self, Config, Phase, Report, Tally};
use crate::metrics::{self, QUERIES};
use crate::trace::{spanned, Tracer};
use minidb::plan::AggItem;
use minidb::{AggFunc, BinOp, Database, LogicalPlan, QueryResult, ScalarExpr, Value};
use netsim::rng::StdRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use workloads::genprog::{GenConfig, GenSchema};
use workloads::harness::Fixture;

/// The schema is always the one `opt_bench` uses (seed 2024: which tables
/// exist and how many rows each has); `--seed` draws the data in it.
const SCHEMA_SEED: u64 = 2024;
/// Share of `GenConfig::large()`'s 1M+ rows per table.
const ROW_SCALE: f64 = 0.25;

/// The SQL of the four queries written as text (`opt_bench`'s, kept for
/// continuity); `join_small_build` is built as a plan, see [`plans`].
const SQL: [(&str, &str); 4] = [
    ("scan", "select sum(t0_a) as s from t0"),
    (
        "filter",
        "select count(*) as n from t0 where t0_a < 20 and t0_b < 25",
    ),
    (
        "join",
        "select count(*) as n from t0 join t1 on t0_id = t1_fk where t1_b < 10",
    ),
    (
        "agg",
        "select t0_a, count(*) as n, sum(t0_b) as s from t0 group by t0_a",
    ),
];

fn lt(col: &str, v: i64) -> ScalarExpr {
    ScalarExpr::bin(BinOp::Lt, ScalarExpr::col(col), ScalarExpr::lit(v))
}

/// The five plans, in [`QUERIES`] order.
fn plans() -> Vec<LogicalPlan> {
    let sql = |name: &str| {
        let text = SQL.iter().find(|(n, _)| *n == name).expect("known query").1;
        minidb::sql::parse(text).expect("benchmark query parses")
    };
    let small_build = LogicalPlan::scan("t0")
        .select(ScalarExpr::and(lt("t0_a", 1), lt("t0_b", 2)))
        .join(
            LogicalPlan::scan("t1"),
            ScalarExpr::eq(ScalarExpr::col("t0_id"), ScalarExpr::col("t1_fk")),
        )
        .aggregate(
            vec![],
            vec![AggItem {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        );
    QUERIES
        .iter()
        .map(|&q| match q {
            "join_small_build" => small_build.clone(),
            q => sql(q),
        })
        .collect()
}

/// What each query must return, computed here with plain loops over the
/// tables' rows — through neither engine.
pub fn expected(db: &Database) -> Vec<Vec<Vec<i64>>> {
    let (t0, t1) = (db.table("t0").unwrap(), db.table("t1").unwrap());
    let col = |t: &minidb::Table, name: &str| t.schema().resolve(name).unwrap();
    let (id, a, b) = (col(t0, "t0_id"), col(t0, "t0_a"), col(t0, "t0_b"));
    let (fk, b1) = (col(t1, "t1_fk"), col(t1, "t1_b"));
    let int = |v: &Value| v.as_i64().expect("integer column");

    let mut sum_a = 0i64;
    let mut filtered = 0i64;
    let mut ids = HashSet::new();
    let mut small_ids = HashSet::new();
    let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for row in t0.rows() {
        let (ra, rb) = (int(&row[a]), int(&row[b]));
        sum_a += ra;
        filtered += (ra < 20 && rb < 25) as i64;
        ids.insert(int(&row[id]));
        if ra < 1 && rb < 2 {
            small_ids.insert(int(&row[id]));
        }
        let g = groups.entry(ra).or_default();
        g.0 += 1;
        g.1 += rb;
    }
    // t0_id is a primary key, so a t1 row joins at most one t0 row.
    let (mut joined, mut joined_small) = (0i64, 0i64);
    for row in t1.rows() {
        let k = int(&row[fk]);
        joined += (int(&row[b1]) < 10 && ids.contains(&k)) as i64;
        joined_small += small_ids.contains(&k) as i64;
    }
    let by_name: HashMap<&str, Vec<Vec<i64>>> = HashMap::from([
        ("scan", vec![vec![sum_a]]),
        ("filter", vec![vec![filtered]]),
        ("join", vec![vec![joined]]),
        ("join_small_build", vec![vec![joined_small]]),
        (
            "agg",
            groups.iter().map(|(k, (n, s))| vec![*k, *n, *s]).collect(),
        ),
    ]);
    QUERIES.iter().map(|q| by_name[q].clone()).collect()
}

/// The output check: the query's rows, as integers and in key order,
/// equal the reference.
pub fn check(query: &str, result: &QueryResult, expected: &[Vec<i64>]) -> Result<(), String> {
    let mut got: Vec<Vec<i64>> = Vec::with_capacity(result.rows.len());
    for row in &result.rows {
        let ints: Option<Vec<i64>> = row.iter().map(|v| v.as_i64()).collect();
        got.push(ints.ok_or_else(|| format!("{query}: non-integer value in {row:?}"))?);
    }
    got.sort();
    if got != expected {
        let show = |rows: &[Vec<i64>]| format!("{:?}", &rows[..rows.len().min(3)]);
        return Err(format!(
            "{query}: engine returned {} row(s) {}, the reference has {} row(s) {}",
            got.len(),
            show(&got),
            expected.len(),
            show(expected)
        ));
    }
    Ok(())
}

pub struct Olap {
    fixture: Fixture,
    plans: Vec<LogicalPlan>,
    expected: Vec<Vec<Vec<i64>>>,
    /// Wall time in ms of each query's first execution, which also fills
    /// the lazy column cache of the tables it reads.
    first_ms: Vec<f64>,
}

impl Olap {
    fn execute(&self, db: &Database, q: usize) -> Result<QueryResult, String> {
        minidb::Executor::new(db, &self.fixture.funcs)
            .execute(&self.plans[q], &HashMap::new())
            .map_err(|e| format!("{}: {e}", QUERIES[q]))
    }
}

/// Generate the tables, compute the reference, and run every query once
/// (the warm-up that fills the column cache).
pub fn set_up(cfg: &Config) -> Olap {
    let schema = GenSchema::generate(&mut StdRng::seed_from_u64(SCHEMA_SEED), &GenConfig::large());
    let scale = if cfg.smoke {
        ROW_SCALE / 50.0
    } else {
        ROW_SCALE
    };
    let fixture = schema.build_fixture(cfg.seed, scale);
    let expected = expected(&fixture.db.read().expect("fixture lock"));
    let mut olap = Olap {
        fixture,
        plans: plans(),
        expected,
        first_ms: Vec::new(),
    };
    let db = olap.fixture.db.clone();
    let db = db.read().expect("fixture lock");
    for q in 0..QUERIES.len() {
        let t = std::time::Instant::now();
        olap.execute(&db, q).expect("warm-up execution");
        olap.first_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    olap
}

/// Span names of the five queries, in [`QUERIES`] order.
const SPANS: [&str; 5] = [
    "minidb.scan",
    "minidb.filter",
    "minidb.join",
    "minidb.join_small_build",
    "minidb.agg",
];

/// Passes over the five queries until the phase ends; every op checked.
/// Returns the rows each query touched (`ExecWork.total_rows`, exact).
fn passes(
    olap: &Olap,
    phase: &mut Phase,
    tally: &mut Tally,
    mut tr: Option<&mut Tracer>,
) -> Vec<u64> {
    let db = olap.fixture.db.read().expect("fixture lock");
    let mut rows_touched = vec![0u64; QUERIES.len()];
    while phase.running() {
        for (q, name) in QUERIES.iter().enumerate() {
            let id = phase.ops.len() as u64;
            let result = phase.time(q, || {
                spanned(&mut tr, id, SPANS[q], || olap.execute(&db, q))
            });
            tally.record(result.and_then(|r| {
                rows_touched[q] = r.work.total_rows;
                check(name, &r, &olap.expected[q])
            }));
        }
        phase.end_pass();
    }
    rows_touched
}

pub fn run(cfg: &Config, traced: bool) -> Report {
    let (olap, setup_s) = harness::set_up(cfg, traced, || set_up(cfg));
    let kinds = QUERIES.iter().map(|q| q.to_string()).collect();
    let mut rows_touched = Vec::new();
    let driven = harness::drive(cfg, traced, kinds, |phase, tally, tr| {
        rows_touched = passes(&olap, phase, tally, tr)
    });
    let Some((mut tr, bench)) = driven.traced else {
        return harness::end_to_end_report(driven.tally, &driven.timed, setup_s);
    };

    for (_, text) in SQL.iter().cycle().take(400) {
        tr.span("minidb.sql_parse", |_| {
            std::hint::black_box(minidb::sql::parse(text).expect("benchmark query parses"))
        });
    }
    let p5_ms: Vec<f64> = SPANS
        .iter()
        .map(|n| {
            metrics::percentile(
                &metrics::sorted(tr.durations_us(n)),
                metrics::KIND_PERCENTILE,
            ) / 1e3
        })
        .collect();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (q, name) in QUERIES.iter().enumerate() {
        let metric = |suffix: &str| metrics::per_layer(&format!("minidb.{name}_{suffix}"));
        let touched = rows_touched[q] as f64;
        out.push((metric("p5_ms"), p5_ms[q]));
        out.push((metric("rows_touched"), touched));
        out.push((metric("rows_per_s"), touched / (p5_ms[q] / 1e3)));
    }
    out.extend([
        (
            "minidb.column_cache_fill_ms",
            olap.first_ms.iter().sum::<f64>() - p5_ms.iter().sum::<f64>(),
        ),
        (
            "minidb.sql_parse_us",
            tr.layer("minidb.sql_parse").mean_us(),
        ),
    ]);
    out.extend(bench);
    Report {
        tally: driven.tally,
        metrics: out,
        tracer: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checker of the checker: a reference that is off by one, or has
    /// a group too many, fails the op; the true reference passes it.
    #[test]
    fn check_rejects_an_off_by_one_reference() {
        let cfg = Config {
            seed: 1,
            seconds: 0.05,
            smoke: true,
        };
        let olap = set_up(&cfg);
        let db = olap.fixture.db.read().unwrap();
        for (q, name) in QUERIES.iter().enumerate() {
            let result = olap.execute(&db, q).unwrap();
            assert_eq!(check(name, &result, &olap.expected[q]), Ok(()));
            assert!(
                olap.expected[q][0][0] > 0 || *name == "agg",
                "{name} is not vacuous"
            );

            let mut off_by_one = olap.expected[q].clone();
            *off_by_one[0].last_mut().unwrap() += 1;
            assert!(check(name, &result, &off_by_one).is_err(), "{name}");

            let mut extra_row = olap.expected[q].clone();
            extra_row.push(vec![i64::MAX; extra_row[0].len()]);
            assert!(check(name, &result, &extra_row).is_err(), "{name}");
        }
    }
}
