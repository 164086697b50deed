//! A synthetic stand-in for the Wilos application (Experiment 4).
//!
//! Wilos is an open-source process-orchestration application built on
//! Hibernate/Spring; the paper manually identified **32 code fragments**
//! in it where cost-based rewriting applies, classified into six patterns
//! (Figure 14), and evaluated a representative of each (Figure 15).
//!
//! We cannot ship Wilos itself, so this module reproduces its *decision
//! structure*: a project-management schema (project → phase → iteration →
//! activity → task → workproduct, role → participant, a process tree),
//! a data generator with the paper's setup (largest relations at the
//! configured scale, ~10:1 many-to-one ratios, 20 % predicate
//! selectivity), and 32 fragments whose shapes match the patterns:
//!
//! | id | pattern | decision |
//! |----|---------|----------|
//! | A | nested loops with intermittent updates | SQL-translate the inner loop (iterative queries) vs prefetch the inner relation |
//! | B | multiple aggregations in one loop | extra SQL aggregate query vs single query |
//! | C | nested-loops join | SQL join vs cache-and-join locally |
//! | D | function called inside a loop | inline + SQL rewrite vs per-iteration execution |
//! | E | collection filtered differently across calls | iterative point queries vs prefetch whole relation |
//! | F | different parts of a collection across callees | multiple select/project queries vs one prefetch |

use crate::harness::Fixture;
use imperative::ast::{Expr, Function, Program, QuerySpec, Stmt, StmtKind};
use minidb::{BinOp, Column, DataType, Database, FuncRegistry, Schema, Value};
use netsim::rng::StdRng;
use orm::{EntityMapping, MappingRegistry};

use std::sync::Arc;

/// The six cost-based patterns of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pattern {
    A,
    B,
    C,
    D,
    E,
    F,
}

impl Pattern {
    /// All patterns in order.
    pub fn all() -> [Pattern; 6] {
        [
            Pattern::A,
            Pattern::B,
            Pattern::C,
            Pattern::D,
            Pattern::E,
            Pattern::F,
        ]
    }

    /// Paper description of the cost-based choice (Figure 14).
    pub fn description(self) -> &'static str {
        match self {
            Pattern::A => {
                "Nested loops with intermittent updates: inner loop can be \
                 translated to SQL vs overall degradation due to iterative queries"
            }
            Pattern::B => {
                "Multiple aggregations inside loop: faster aggregation by \
                 translation to SQL vs multiple queries (NRT) instead of one"
            }
            Pattern::C => {
                "Nested loops join: better join algo at the database and fetch \
                 (large) result of SQL join vs cache tables at application and \
                 join locally"
            }
            Pattern::D => {
                "Function called inside a loop can be rewritten using SQL: \
                 overall performance may degrade due to iterative queries if \
                 caller loop cannot be translated"
            }
            Pattern::E => {
                "Collection filtered differently across different calls: \
                 multiple point lookup queries vs prefetch whole table once \
                 and filter from cache"
            }
            Pattern::F => {
                "Different parts of a collection used across callee functions: \
                 multiple select/project queries vs prefetch all data with one \
                 query"
            }
        }
    }
}

/// One of the 32 Wilos code fragments (Figure 16).
pub struct Fragment {
    /// Serial number (1–32, as in Figure 16).
    pub id: usize,
    /// Pattern classification.
    pub pattern: Pattern,
    /// Source location in Wilos (Figure 16's file/line).
    pub file: &'static str,
    /// Line number in the Wilos source.
    pub line: u32,
    /// The synthesized program with the fragment's decision structure.
    pub program: Program,
}

// ---------------------------------------------------------------------
// Schema and data generation.
// ---------------------------------------------------------------------

fn schema_of(cols: &[(&str, DataType, u32)]) -> Schema {
    Schema::new(
        cols.iter()
            .map(|(n, t, w)| Column::with_width(*n, *t, *w))
            .collect(),
    )
}

/// The five process/task states: equality on a state has the paper's 20 %
/// selectivity.
const STATES: [&str; 5] = ["created", "ready", "started", "suspended", "finished"];
const PROCESS_TYPES: [&str; 5] = ["guidance", "phase", "task", "activity", "milestone"];
/// Number of distinct `pr_root` values (pattern E's filter keys).
pub const PROCESS_ROOTS: i64 = 20;

/// Build the Wilos-like database at `scale` (rows in the largest
/// relations: `process`, `task`, `workproduct`), deterministic in `seed`.
pub fn build_fixture(scale: usize, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = scale.max(100);
    let mut db = Database::new();

    let n_projects = (n / 10_000).max(10);
    let n_phases = (n / 1_000).max(20);
    let n_iterations = (n / 100).max(40);
    let n_activities = (n / 10).max(80);
    let n_tasks = n;
    let n_workproducts = n;
    let n_roles = (n / 500).max(20);
    let n_participants = (n / 50).max(200);
    let n_processes = n;

    let t = db
        .create_table(
            "project",
            schema_of(&[
                ("p_id", DataType::Int, 8),
                ("p_name", DataType::Str, 30),
                ("p_state", DataType::Str, 10),
            ]),
        )
        .unwrap();
    t.set_primary_key("p_id").unwrap();
    t.insert_many((0..n_projects).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::str(format!("project-{i}")),
            Value::str(STATES[i % 5]),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "phase",
            schema_of(&[
                ("ph_id", DataType::Int, 8),
                ("ph_project", DataType::Int, 8),
                ("ph_name", DataType::Str, 20),
                ("ph_order", DataType::Int, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("ph_id").unwrap();
    t.insert_many((0..n_phases).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % n_projects) as i64),
            Value::str(format!("phase-{i}")),
            Value::Int((i / n_projects) as i64),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "iteration",
            schema_of(&[
                ("it_id", DataType::Int, 8),
                ("it_phase", DataType::Int, 8),
                ("it_count", DataType::Int, 8),
                ("it_state", DataType::Str, 10),
            ]),
        )
        .unwrap();
    t.set_primary_key("it_id").unwrap();
    t.insert_many((0..n_iterations).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % n_phases) as i64),
            Value::Int((i % 7) as i64),
            Value::str(STATES[i % 5]),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "activity",
            schema_of(&[
                ("a_id", DataType::Int, 8),
                ("a_iteration", DataType::Int, 8),
                ("a_name", DataType::Str, 24),
                ("a_size", DataType::Int, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("a_id").unwrap();
    t.insert_many((0..n_activities).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % n_iterations) as i64),
            Value::str(format!("activity-{i}")),
            Value::Int(0),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "task",
            schema_of(&[
                ("t_id", DataType::Int, 8),
                ("t_activity", DataType::Int, 8),
                ("t_state", DataType::Str, 10),
                ("t_priority", DataType::Int, 8),
                ("t_size", DataType::Int, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("t_id").unwrap();
    t.insert_many((0..n_tasks).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % n_activities) as i64),
            Value::str(STATES[i % 5]),
            Value::Int((i % 5) as i64),
            Value::Int(rng.gen_range(1..100)),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "workproduct",
            schema_of(&[
                ("w_id", DataType::Int, 8),
                ("w_task", DataType::Int, 8),
                ("w_state", DataType::Str, 10),
                ("w_cost", DataType::Float, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("w_id").unwrap();
    let task_fk_range = (n_tasks / 10).max(1) as i64;
    t.insert_many((0..n_workproducts).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i as i64) % task_fk_range),
            Value::str(STATES[i % 5]),
            Value::Float((i % 89) as f64 * 0.5),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "role",
            schema_of(&[
                ("r_id", DataType::Int, 8),
                ("r_project", DataType::Int, 8),
                ("r_name", DataType::Str, 20),
                ("r_size", DataType::Int, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("r_id").unwrap();
    t.insert_many((0..n_roles).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % n_projects) as i64),
            Value::str(format!("role-{i}")),
            Value::Int(0),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "participant",
            schema_of(&[
                ("pa_id", DataType::Int, 8),
                ("pa_role", DataType::Int, 8),
                ("pa_name", DataType::Str, 30),
                ("pa_email", DataType::Str, 40),
            ]),
        )
        .unwrap();
    t.set_primary_key("pa_id").unwrap();
    t.insert_many((0..n_participants).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % n_roles) as i64),
            Value::str(format!("participant-{i}")),
            Value::str(format!("p{i}@wilos.example")),
        ]
    }))
    .unwrap();

    let t = db
        .create_table(
            "process",
            schema_of(&[
                ("pr_id", DataType::Int, 8),
                ("pr_root", DataType::Int, 8),
                ("pr_parent", DataType::Int, 8),
                ("pr_type", DataType::Str, 12),
                ("pr_size", DataType::Int, 8),
            ]),
        )
        .unwrap();
    t.set_primary_key("pr_id").unwrap();
    let parent_range = (n_processes / 10).max(1) as i64;
    t.insert_many((0..n_processes).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::Int((i as i64) % PROCESS_ROOTS),
            Value::Int((i as i64) % parent_range),
            Value::str(PROCESS_TYPES[i % 5]),
            Value::Int(rng.gen_range(1..50)),
        ]
    }))
    .unwrap();

    // Secondary indexes on every foreign-key / filter column, as any
    // production schema would have (MySQL auto-indexes FK columns).
    for (table, col) in [
        ("phase", "ph_project"),
        ("iteration", "it_phase"),
        ("activity", "a_iteration"),
        ("task", "t_activity"),
        ("workproduct", "w_task"),
        ("role", "r_project"),
        ("participant", "pa_role"),
        ("process", "pr_parent"),
        ("process", "pr_root"),
    ] {
        db.table_mut(table).unwrap().create_index(col).unwrap();
    }
    db.analyze_all();

    let mut mapping = MappingRegistry::new();
    mapping.register(EntityMapping::new("Project", "project", "p_id"));
    mapping.register(EntityMapping::new("Phase", "phase", "ph_id").many_to_one(
        "project",
        "Project",
        "ph_project",
    ));
    mapping.register(
        EntityMapping::new("Iteration", "iteration", "it_id")
            .many_to_one("phase", "Phase", "it_phase"),
    );
    mapping.register(
        EntityMapping::new("Activity", "activity", "a_id").many_to_one(
            "iteration",
            "Iteration",
            "a_iteration",
        ),
    );
    mapping.register(EntityMapping::new("Task", "task", "t_id").many_to_one(
        "activity",
        "Activity",
        "t_activity",
    ));
    mapping.register(
        EntityMapping::new("WorkProduct", "workproduct", "w_id")
            .many_to_one("task", "Task", "w_task"),
    );
    mapping.register(EntityMapping::new("Role", "role", "r_id").many_to_one(
        "project",
        "Project",
        "r_project",
    ));
    mapping.register(
        EntityMapping::new("Participant", "participant", "pa_id")
            .many_to_one("role", "Role", "pa_role"),
    );
    mapping.register(EntityMapping::new("Process", "process", "pr_id"));

    let mut funcs = FuncRegistry::with_builtins();
    funcs.register("pairKey", DataType::Int, |args| {
        let a = args.first().and_then(|v| v.as_i64()).unwrap_or(0);
        let b = args.get(1).and_then(|v| v.as_i64()).unwrap_or(0);
        Ok(Value::Int(a * 1_000_003 + b))
    });

    Fixture {
        db: minidb::shared(db),
        mapping,
        funcs: Arc::new(funcs),
    }
}

// ---------------------------------------------------------------------
// Pattern program builders.
// ---------------------------------------------------------------------

fn st(kind: StmtKind) -> Stmt {
    Stmt::new(kind)
}

/// Pattern A: outer loop with a database update; the inner loop filters a
/// relation. The inner loop is the cost-based decision point.
pub fn build_a(
    name: &str,
    outer_entity: &str,
    outer_pk: &str,
    inner_entity: &str,
    inner_fk: &str,
    update_table: &str,
    update_col: &str,
) -> Program {
    let mut f = Function::new(
        name,
        vec!["result".to_string()],
        vec![
            st(StmtKind::NewCollection("result".into())),
            st(StmtKind::ForEach {
                var: "x".into(),
                iter: Expr::LoadAll(outer_entity.into()),
                body: vec![
                    st(StmtKind::NewCollection("matches".into())),
                    st(StmtKind::ForEach {
                        var: "y".into(),
                        iter: Expr::LoadAll(inner_entity.into()),
                        body: vec![st(StmtKind::If {
                            cond: Expr::bin(
                                BinOp::Eq,
                                Expr::field(Expr::var("y"), inner_fk),
                                Expr::field(Expr::var("x"), outer_pk),
                            ),
                            then_branch: vec![st(StmtKind::Add("matches".into(), Expr::var("y")))],
                            else_branch: vec![],
                        })],
                    }),
                    st(StmtKind::UpdateQuery {
                        table: update_table.into(),
                        set_col: update_col.into(),
                        value: Expr::Len(Box::new(Expr::var("matches"))),
                        key_col: outer_pk.into(),
                        key: Expr::field(Expr::var("x"), outer_pk),
                    }),
                    st(StmtKind::Add(
                        "result".into(),
                        Expr::Len(Box::new(Expr::var("matches"))),
                    )),
                ],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// Pattern B: one cursor loop computing a scalar count *and* materializing
/// the rows — extracting the count to SQL adds a round trip.
pub fn build_b(name: &str, table: &str, id_col: &str) -> Program {
    let mut f = Function::new(
        name,
        vec!["ids".to_string(), "cnt".to_string()],
        vec![
            st(StmtKind::Let("cnt".into(), Expr::lit(0i64))),
            st(StmtKind::NewCollection("ids".into())),
            st(StmtKind::ForEach {
                var: "t".into(),
                iter: Expr::Query(QuerySpec::sql(&format!("select * from {table}"))),
                body: vec![
                    st(StmtKind::Let(
                        "cnt".into(),
                        Expr::bin(BinOp::Add, Expr::var("cnt"), Expr::lit(1i64)),
                    )),
                    st(StmtKind::Add(
                        "ids".into(),
                        Expr::field(Expr::var("t"), id_col),
                    )),
                ],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// Pattern C: nested-loops join via iterative inner queries.
pub fn build_c(
    name: &str,
    outer_entity: &str,
    outer_pk: &str,
    inner_table: &str,
    inner_fk: &str,
    inner_val: &str,
) -> Program {
    let mut f = Function::new(
        name,
        vec!["result".to_string()],
        vec![
            st(StmtKind::NewCollection("result".into())),
            st(StmtKind::ForEach {
                var: "x".into(),
                iter: Expr::LoadAll(outer_entity.into()),
                body: vec![st(StmtKind::ForEach {
                    var: "y".into(),
                    iter: Expr::Query(
                        QuerySpec::sql(&format!(
                            "select * from {inner_table} where {inner_fk} = :k"
                        ))
                        .bind("k", Expr::field(Expr::var("x"), outer_pk)),
                    ),
                    body: vec![st(StmtKind::Add(
                        "result".into(),
                        Expr::Call(
                            "pairKey".into(),
                            vec![
                                Expr::field(Expr::var("x"), outer_pk),
                                Expr::field(Expr::var("y"), inner_val),
                            ],
                        ),
                    ))],
                })],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// Pattern D: a helper function (with ORM navigation) called inside a
/// loop; inlining + SQL translation is the rewrite.
pub fn build_d(
    name: &str,
    loop_entity: &str,
    loop_pk: &str,
    assoc_field: &str,
    assoc_val: &str,
) -> Program {
    let helper_name = format!("{name}_helper");
    let mut entry = Function::new(
        name,
        vec!["result".to_string()],
        vec![
            st(StmtKind::NewCollection("result".into())),
            st(StmtKind::ForEach {
                var: "w".into(),
                iter: Expr::LoadAll(loop_entity.into()),
                body: vec![
                    st(StmtKind::LetCall(
                        "v".into(),
                        helper_name.clone(),
                        vec![Expr::var("w")],
                    )),
                    st(StmtKind::Add("result".into(), Expr::var("v"))),
                ],
            }),
        ],
    );
    entry.number_lines(2);
    let mut helper = Function::new(
        helper_name,
        vec!["row".to_string()],
        vec![
            st(StmtKind::Let(
                "target".into(),
                Expr::nav(Expr::var("row"), assoc_field),
            )),
            st(StmtKind::Return(Some(Expr::Call(
                "pairKey".into(),
                vec![
                    Expr::field(Expr::var("row"), loop_pk),
                    Expr::field(Expr::var("target"), assoc_val),
                ],
            )))),
        ],
    );
    helper.number_lines(2);
    Program {
        functions: vec![entry, helper],
    }
}

/// Pattern E: the same relation filtered with a different key per call.
/// `keys` filter values are iterated; each issues a point/filtered query.
pub fn build_e(name: &str, table: &str, key_col: &str, val_col: &str, keys: i64) -> Program {
    let mut f = Function::new(
        name,
        vec!["result".to_string()],
        vec![
            st(StmtKind::NewCollection("result".into())),
            st(StmtKind::Let("k".into(), Expr::lit(0i64))),
            st(StmtKind::While {
                cond: Expr::bin(BinOp::Lt, Expr::var("k"), Expr::lit(keys)),
                body: vec![
                    st(StmtKind::Let(
                        "rows".into(),
                        Expr::Query(
                            QuerySpec::sql(&format!("select * from {table} where {key_col} = :k"))
                                .bind("k", Expr::var("k")),
                        ),
                    )),
                    st(StmtKind::Let("s".into(), Expr::lit(0i64))),
                    st(StmtKind::ForEach {
                        var: "r".into(),
                        iter: Expr::var("rows"),
                        body: vec![st(StmtKind::Let(
                            "s".into(),
                            Expr::bin(
                                BinOp::Add,
                                Expr::var("s"),
                                Expr::field(Expr::var("r"), val_col),
                            ),
                        ))],
                    }),
                    st(StmtKind::Add("result".into(), Expr::var("s"))),
                    st(StmtKind::Let(
                        "k".into(),
                        Expr::bin(BinOp::Add, Expr::var("k"), Expr::lit(1i64)),
                    )),
                ],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// Pattern F: two callees read different parts (projections/filters) of
/// the same relation.
pub fn build_f(
    name: &str,
    table: &str,
    type_col: &str,
    type_a: &str,
    type_b: &str,
    id_col: &str,
    val_col: &str,
) -> Program {
    let mut f = Function::new(
        name,
        vec!["result".to_string()],
        vec![
            st(StmtKind::NewCollection("result".into())),
            st(StmtKind::Let(
                "part1".into(),
                Expr::Query(QuerySpec::sql(&format!(
                    "select {id_col}, {val_col} from {table} where {type_col} = '{type_a}'"
                ))),
            )),
            st(StmtKind::Let(
                "part2".into(),
                Expr::Query(QuerySpec::sql(&format!(
                    "select {id_col}, {val_col} from {table} where {type_col} = '{type_b}'"
                ))),
            )),
            st(StmtKind::ForEach {
                var: "x".into(),
                iter: Expr::var("part1"),
                body: vec![st(StmtKind::Add(
                    "result".into(),
                    Expr::Call(
                        "pairKey".into(),
                        vec![
                            Expr::field(Expr::var("x"), id_col),
                            Expr::field(Expr::var("x"), val_col),
                        ],
                    ),
                ))],
            }),
            st(StmtKind::ForEach {
                var: "y".into(),
                iter: Expr::var("part2"),
                body: vec![st(StmtKind::Add(
                    "result".into(),
                    Expr::Call(
                        "pairKey".into(),
                        vec![
                            Expr::field(Expr::var("y"), id_col),
                            Expr::field(Expr::var("y"), val_col),
                        ],
                    ),
                ))],
            }),
        ],
    );
    f.number_lines(2);
    Program::single(f)
}

/// The representative program of a pattern, used in Figure 15.
pub fn representative(pattern: Pattern) -> Program {
    match pattern {
        Pattern::A => build_a(
            "patternA",
            "Role",
            "r_id",
            "Participant",
            "pa_role",
            "role",
            "r_size",
        ),
        Pattern::B => build_b("patternB", "task", "t_id"),
        Pattern::C => build_c(
            "patternC",
            "Role",
            "r_id",
            "participant",
            "pa_role",
            "pa_id",
        ),
        Pattern::D => build_d("patternD", "WorkProduct", "w_id", "task", "t_priority"),
        Pattern::E => build_e("patternE", "process", "pr_root", "pr_size", PROCESS_ROOTS),
        Pattern::F => build_f(
            "patternF", "process", "pr_type", "guidance", "phase", "pr_id", "pr_size",
        ),
    }
}

/// The 32 code fragments of Figure 16, with their Wilos source locations.
pub fn fragments() -> Vec<Fragment> {
    let mut out = Vec::with_capacity(32);
    let mut id = 0;
    let mut push = |pattern: Pattern, file: &'static str, line: u32, program: Program| {
        id += 1;
        out.push(Fragment {
            id,
            pattern,
            file,
            line,
            program,
        });
    };

    // Pattern A — 3 fragments.
    push(
        Pattern::A,
        "ProjectService",
        1139,
        build_a(
            "fragA1",
            "Role",
            "r_id",
            "Participant",
            "pa_role",
            "role",
            "r_size",
        ),
    );
    push(
        Pattern::A,
        "TaskDescriptorService",
        198,
        build_a(
            "fragA2",
            "Activity",
            "a_id",
            "Task",
            "t_activity",
            "activity",
            "a_size",
        ),
    );
    push(
        Pattern::A,
        "ConcreteWorkBreakdownElementService",
        144,
        build_a(
            "fragA3",
            "Task",
            "t_id",
            "WorkProduct",
            "w_task",
            "task",
            "t_size",
        ),
    );

    // Pattern B — 2 fragments.
    push(
        Pattern::B,
        "IterationService",
        139,
        build_b("fragB1", "task", "t_id"),
    );
    push(
        Pattern::B,
        "PhaseService",
        185,
        build_b("fragB2", "workproduct", "w_id"),
    );

    // Pattern C — 9 fragments.
    push(
        Pattern::C,
        "ConcreteRoleAffectationService",
        60,
        build_c("fragC1", "Role", "r_id", "participant", "pa_role", "pa_id"),
    );
    push(
        Pattern::C,
        "ConcreteTaskDescriptorService",
        312,
        build_c("fragC2", "Activity", "a_id", "task", "t_activity", "t_id"),
    );
    push(
        Pattern::C,
        "ConcreteTaskDescriptorService",
        1276,
        build_c("fragC3", "Task", "t_id", "workproduct", "w_task", "w_id"),
    );
    push(
        Pattern::C,
        "ConcreteTaskDescriptorService",
        1302,
        build_c("fragC4", "Task", "t_id", "workproduct", "w_task", "w_cost"),
    );
    push(
        Pattern::C,
        "ConcreteWorkBreakdownElementService",
        63,
        build_c(
            "fragC5",
            "Iteration",
            "it_id",
            "activity",
            "a_iteration",
            "a_id",
        ),
    );
    push(
        Pattern::C,
        "ConcreteWorkProductDescriptorService",
        445,
        build_c("fragC6", "Phase", "ph_id", "iteration", "it_phase", "it_id"),
    );
    push(
        Pattern::C,
        "ParticipantService",
        129,
        build_c("fragC7", "Project", "p_id", "role", "r_project", "r_id"),
    );
    push(
        Pattern::C,
        "RoleService",
        15,
        build_c("fragC8", "Project", "p_id", "phase", "ph_project", "ph_id"),
    );
    push(
        Pattern::C,
        "ActivityService",
        407,
        build_c(
            "fragC9",
            "Activity",
            "a_id",
            "task",
            "t_activity",
            "t_priority",
        ),
    );

    // Pattern D — 7 fragments.
    push(
        Pattern::D,
        "IterationService",
        293,
        build_d("fragD1", "WorkProduct", "w_id", "task", "t_priority"),
    );
    push(
        Pattern::D,
        "PhaseService",
        307,
        build_d("fragD2", "Task", "t_id", "activity", "a_size"),
    );
    push(
        Pattern::D,
        "ActivityService",
        229,
        build_d("fragD3", "Activity", "a_id", "iteration", "it_count"),
    );
    push(
        Pattern::D,
        "RoleDescriptorService",
        276,
        build_d("fragD4", "Participant", "pa_id", "role", "r_size"),
    );
    push(
        Pattern::D,
        "TaskDescriptorService",
        140,
        build_d("fragD5", "Iteration", "it_id", "phase", "ph_order"),
    );
    push(
        Pattern::D,
        "TaskDescriptorService",
        142,
        build_d("fragD6", "Phase", "ph_id", "project", "p_id"),
    );
    push(
        Pattern::D,
        "WorkProductDescriptorService",
        310,
        build_d("fragD7", "Role", "r_id", "project", "p_id"),
    );

    // Pattern E — 9 fragments.
    push(
        Pattern::E,
        "ProjectService",
        346,
        build_e("fragE1", "process", "pr_root", "pr_size", PROCESS_ROOTS),
    );
    push(
        Pattern::E,
        "ProjectService",
        567,
        build_e("fragE2", "role", "r_project", "r_size", 10),
    );
    push(
        Pattern::E,
        "ProjectService",
        647,
        build_e("fragE3", "participant", "pa_role", "pa_id", 20),
    );
    push(
        Pattern::E,
        "ProjectService",
        704,
        build_e("fragE4", "task", "t_activity", "t_size", 40),
    );
    push(
        Pattern::E,
        "ProcessService",
        1212,
        build_e("fragE5", "workproduct", "w_task", "w_id", 40),
    );
    push(
        Pattern::E,
        "ProcessService",
        1253,
        build_e("fragE6", "phase", "ph_project", "ph_order", 10),
    );
    push(
        Pattern::E,
        "ProcessService",
        1593,
        build_e("fragE7", "iteration", "it_phase", "it_count", 20),
    );
    push(
        Pattern::E,
        "ProcessService",
        1631,
        build_e("fragE8", "activity", "a_iteration", "a_size", 40),
    );
    push(
        Pattern::E,
        "ProcessService",
        1740,
        build_e("fragE9", "process", "pr_parent", "pr_size", 40),
    );

    // Pattern F — 2 fragments.
    push(
        Pattern::F,
        "ProcessService",
        406,
        build_f(
            "fragF1", "process", "pr_type", "guidance", "phase", "pr_id", "pr_size",
        ),
    );
    push(
        Pattern::F,
        "ProcessService",
        921,
        build_f(
            "fragF2",
            "task",
            "t_state",
            "created",
            "ready",
            "t_id",
            "t_priority",
        ),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_on;
    use netsim::NetworkProfile;

    #[test]
    fn fragment_counts_match_figure_14() {
        let frags = fragments();
        assert_eq!(frags.len(), 32);
        let count = |p: Pattern| frags.iter().filter(|f| f.pattern == p).count();
        assert_eq!(count(Pattern::A), 3);
        assert_eq!(count(Pattern::B), 2);
        assert_eq!(count(Pattern::C), 9);
        assert_eq!(count(Pattern::D), 7);
        assert_eq!(count(Pattern::E), 9);
        assert_eq!(count(Pattern::F), 2);
    }

    #[test]
    fn fragment_ids_are_sequential_like_figure_16() {
        let frags = fragments();
        for (i, f) in frags.iter().enumerate() {
            assert_eq!(f.id, i + 1);
        }
        assert_eq!(frags[0].file, "ProjectService");
        assert_eq!(frags[0].line, 1139);
        assert_eq!(frags[31].file, "ProcessService");
        assert_eq!(frags[31].line, 921);
    }

    #[test]
    fn fixture_scales_and_ratios() {
        let fx = build_fixture(10_000, 1);
        let db = fx.db.read().unwrap();
        assert_eq!(db.table("task").unwrap().row_count(), 10_000);
        assert_eq!(db.table("process").unwrap().row_count(), 10_000);
        let roles = db.table("role").unwrap().row_count();
        let participants = db.table("participant").unwrap().row_count();
        assert_eq!(participants / roles, 10, "10:1 many-to-one ratio");
    }

    #[test]
    fn state_predicates_have_twenty_percent_selectivity() {
        let fx = build_fixture(5_000, 1);
        let db = fx.db.read().unwrap();
        let t = db.table("task").unwrap();
        let created = t
            .rows()
            .iter()
            .filter(|r| r[2] == Value::str("created"))
            .count();
        let frac = created as f64 / t.row_count() as f64;
        assert!((frac - 0.2).abs() < 0.01, "selectivity {frac}");
    }

    #[test]
    fn all_representatives_run() {
        let fx = build_fixture(2_000, 2);
        for p in Pattern::all() {
            let program = representative(p);
            let r = run_on(&fx, NetworkProfile::fast_local(), &program)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(r.secs > 0.0, "{p:?}");
        }
    }

    #[test]
    fn pattern_a_updates_the_database() {
        let fx = build_fixture(2_000, 2);
        run_on(
            &fx,
            NetworkProfile::fast_local(),
            &representative(Pattern::A),
        )
        .unwrap();
        let db = fx.db.read().unwrap();
        let updated = db
            .table("role")
            .unwrap()
            .rows()
            .iter()
            .filter(|r| r[3] != Value::Int(0))
            .count();
        assert!(updated > 0, "r_size written");
    }

    #[test]
    fn pattern_e_aggregates_per_key() {
        let fx = build_fixture(2_000, 2);
        let r = run_on(
            &fx,
            NetworkProfile::fast_local(),
            &representative(Pattern::E),
        )
        .unwrap();
        let interp::Snapshot::List(items) = r.outcome.var_snapshot("result") else {
            panic!()
        };
        assert_eq!(items.len(), PROCESS_ROOTS as usize);
    }
}
