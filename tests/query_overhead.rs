//! What a query costs before its first row: the allocations of one
//! execution, per shape, held at or under a budget.
//!
//! The paper's N+1 loops (P0, Wilos A and E) run one small query per
//! iteration, and the cost model charges each a round trip plus server
//! time, so the server's fixed cost per query is the term those rewrites
//! trade against. Over the tables of a generated program (4–47 rows) that
//! fixed cost was mostly planning: a scan schema re-qualified per
//! execution, output schemas re-derived by recursing through the plan, a
//! `String` built per column reference, a `Vec<Value>` per group of an
//! aggregate. This test counts what is left: the allocations of the second
//! execution of each shape (the first fills the table's column cache),
//! made by this thread while `Executor::run` runs. They do not depend on the
//! build profile, so the budgets hold under debug and release alike.

use cobra::minidb::{sql, Executor, LogicalPlan, Value};
use cobra::workloads::genprog::{GenCase, GenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

/// The system allocator, counting the allocations of a thread that asked
/// to be watched (per thread: the tests of this binary run side by side).
struct Counting;

thread_local! {
    // `None`: this thread is not watched. Const-initialized and without a
    // destructor, so reading it from inside the allocator never allocates.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: defers to `System` unchanged; only counts calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocations (and reallocations) this thread makes while running `f`.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.set(Some(0));
    let out = f();
    (out, COUNT.take().expect("watched above"))
}

/// One shape as a generated program writes it: a label, the SQL, its
/// binds, and the most allocations one execution may make.
struct Shape {
    label: &'static str,
    sql: &'static str,
    binds: &'static [(&'static str, i64)],
    budget: usize,
}

/// The seven shapes. A budget is what the engine makes today; the comment
/// says what it made when every execution re-derived its schemas. Most of
/// what is left is a result's own: its columns, selections and output
/// schema (a joined schema copies every column's name and qualifier).
const SHAPES: [Shape; 7] = [
    // 12 before.
    Shape {
        label: "scan",
        sql: "select * from t0",
        binds: &[],
        budget: 2,
    },
    // 28 before.
    Shape {
        label: "filter",
        sql: "select * from t0 where t0_a < 50",
        binds: &[],
        budget: 6,
    },
    // 33 before.
    Shape {
        label: "FK point query",
        sql: "select * from t1 where t1_fk = :k",
        binds: &[("k", 3)],
        budget: 6,
    },
    // 60 before.
    Shape {
        label: "filtered sum",
        sql: "select sum(t1_a) from t1 where t1_fk = :k",
        binds: &[("k", 3)],
        budget: 16,
    },
    // 40 before.
    Shape {
        label: "scalar sum",
        sql: "select sum(t1_a) from t1",
        binds: &[],
        budget: 11,
    },
    // 115 before: the join's schema derived twice over, a `String` per
    // name resolved and per side tried.
    Shape {
        label: "join",
        sql: "select * from t0 join t1 on t0_id = t1_fk",
        binds: &[],
        budget: 36,
    },
    // 122 before: a `Vec<Value>` per group, transposed into columns.
    Shape {
        label: "group-by",
        sql: "select t1_fk, count(*) as n, sum(t1_a) as s from t1 group by t1_fk",
        binds: &[],
        budget: 26,
    },
];

#[test]
fn a_query_allocates_for_its_rows_not_its_plan() {
    let case = GenCase::from_seed(3, &GenConfig::default());
    let fixture = case.fixture();
    let db = fixture.db.read().expect("fixture lock");
    let mut counts = Vec::new();
    for shape in &SHAPES {
        let plan: LogicalPlan = sql::parse(shape.sql).expect("parses");
        let params: HashMap<String, Value> = shape
            .binds
            .iter()
            .map(|&(name, v)| (name.to_string(), Value::Int(v)))
            .collect();
        let exec = Executor::new(&db, &fixture.funcs);
        let first = exec.run(&plan, &params).expect("runs");
        let (second, allocations) = allocations_during(|| exec.run(&plan, &params));
        let second = second.expect("runs");
        assert_eq!(second.rows(), first.rows(), "{}", shape.label);
        assert!(!second.is_empty(), "{} returns rows", shape.label);
        counts.push((shape.label, allocations, shape.budget));
    }
    println!("(shape, allocations, budget): {counts:?}");
    for (label, allocations, budget) in counts {
        assert!(allocations <= budget, "{label}: {allocations} > {budget}");
    }
}
