//! Dependency-free source-level repo lints, run in CI (`static-analysis`
//! job) as `cargo run -p analysis --bin repo_lint`.
//!
//! Seven invariants, all established by earlier PRs and cheap to regress:
//!
//! * **Server locks must recover from poison.** PR 9 routed every lock
//!   acquisition in `crates/server` through the poison-recovering helpers
//!   in `crates/server/src/sync.rs`; a bare `.lock().unwrap()` /
//!   `.read().unwrap()` / `.write().unwrap()` anywhere else in the server
//!   crate would reintroduce poison-propagation on worker panic. (Other
//!   crates are exempt: they do not share locks with panicking workers,
//!   and their unwraps predate the invariant.)
//! * **The network simulator's clock stays virtual.** `crates/netsim`
//!   must never consult `Instant::now()` — determinism of every seeded
//!   test depends on it.
//! * **Only the closure driver records which rule fired.** Rules in
//!   `crates/fir` describe derivations; `ruleset.rs` builds the
//!   alternative and pushes the tag. A rule that tags an alternative
//!   itself is back to assembling alternatives by hand.
//! * **One path from a loop to its alternatives.** In `crates/core` only
//!   `optimizer.rs` (the `LoopGate`) folds a loop and expands it; the
//!   heuristic baseline had a second driver, and that copy never got the
//!   catalog gate.
//! * **No behaviour hides behind an environment variable.** The house rule
//!   is "replace, don't fork: no option, env var or kept-alive old path".
//!   Under `crates/*/src` only three files read the environment, each to
//!   size a run, never to change what a search does: `FUZZ_SEEDS` (oracle
//!   corpus width), `COBRA_SCALE` and `COBRA_QUICK` (figure-binary scale).
//! * **Deleted stays deleted, and a default price is written once.** What
//!   PR 22 removed because nothing set or called it does not come back by
//!   name, nor does the row engine PR 23 removed with the hook that
//!   selected it — under `crates/*/src`, and by its three public names
//!   under `src`, `tests` and `examples` too — nor the call-site rules for
//!   `=` on a key that PR 24 replaced by `minidb::EqIndex`, the one place
//!   a `HashMap` is keyed by a database value (whose identity is not `=`);
//!   30 ns a statement and 200 ns a server row are literals in
//!   `orm::Prices::default()` only — the catalog starts from it.
//! * **A query pays for its rows, not its plan.** A schema is qualified
//!   only where a table builds its scan schema (`catalog.rs`) and where the
//!   operation is defined (`schema.rs`), and no column reference is
//!   resolved by writing it out as a string first (`resolve(&`, then
//!   `to_ref_string()` on the line). `tests/support/naive.rs` is not under
//!   `crates/` and does both, deliberately.
//!
//! Exit status 0 when clean; 1 with `file:line` diagnostics otherwise.
//!
//! `repo_lint -- --lines <dir or file>…` lints nothing and prints the
//! non-test lines of each `.rs` file (the lines before its first
//! `#[cfg(test)]`) and their total — the count a simplification PR states
//! per file, before and after.

use std::path::{Path, PathBuf};

/// A lint: substring patterns searched in `.rs` files under `dir` (one `*`
/// component matches every subdirectory), skipping the files `exempt`
/// lists by path from the workspace root.
struct Lint {
    dir: &'static str,
    exempt: &'static [&'static str],
    patterns: &'static [&'static str],
    why: &'static str,
}

/// The row engine's public names, split so that this file does not match.
const ROW_ENGINE_NAMES: &[&str] = &[
    concat!("Exec", "Engine"),
    concat!("with_", "engine"),
    concat!("run_on_", "engine"),
];
const ROW_ENGINE_WHY: &str = "removed in PR 23: one engine runs every query, and what it returns \
                              is held to tests/support/naive.rs (tests/engine_reference.rs)";

const LINTS: &[Lint] = &[
    Lint {
        dir: "crates/server/src",
        exempt: &["crates/server/src/sync.rs"],
        patterns: &[".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"],
        why: "server locks must use the poison-recovering helpers in \
              crates/server/src/sync.rs (PR 9 invariant)",
    },
    Lint {
        dir: "crates/netsim",
        exempt: &[],
        patterns: &["Instant::now()"],
        why: "netsim's clock is virtual; wall-clock reads break seeded determinism",
    },
    Lint {
        dir: "crates/fir/src",
        exempt: &["crates/fir/src/ruleset.rs"],
        patterns: &["rules_applied.push("],
        why: "rules return Derivations; only the driver in ruleset.rs builds alternatives",
    },
    Lint {
        dir: "crates/core/src",
        exempt: &["crates/core/src/optimizer.rs"],
        patterns: &["expand_with", "loop_to_fold("],
        why: "loop alternatives come from optimizer.rs's LoopGate; a second driver drifts \
              from its soundness gates",
    },
    Lint {
        dir: "crates/*/src",
        exempt: &[
            "crates/oracle/src/matrix.rs",
            "crates/bench/src/lib.rs",
            "crates/bench/src/bin/fig13.rs",
        ],
        // Split so that this file, itself under crates/*/src, does not match.
        patterns: &[concat!("env::", "var("), concat!("env::", "var_os(")],
        why: "no option, env var or kept-alive old path: only FUZZ_SEEDS, COBRA_SCALE and \
              COBRA_QUICK are read, each in its one allow-listed file",
    },
    Lint {
        dir: "crates/*/src",
        exempt: &["crates/analysis/src/bin/repo_lint.rs"],
        patterns: &[
            "InterpConfig",
            "with_server_row_ns",
            "Request::Shutdown",
            "shutdown_server",
            "fn enable_rule",
            "put_counters",
            "with_min_speedup",
            "with_use_feedback",
        ],
        why: "removed in PR 22: nothing set or called it (CHANGES.md says what to use instead)",
    },
    Lint {
        dir: "crates/*/src",
        exempt: &[],
        patterns: ROW_ENGINE_NAMES,
        why: ROW_ENGINE_WHY,
    },
    Lint {
        dir: "src",
        exempt: &[],
        patterns: ROW_ENGINE_NAMES,
        why: ROW_ENGINE_WHY,
    },
    Lint {
        dir: "tests",
        exempt: &[],
        patterns: ROW_ENGINE_NAMES,
        why: ROW_ENGINE_WHY,
    },
    Lint {
        dir: "examples",
        exempt: &[],
        patterns: ROW_ENGINE_NAMES,
        why: ROW_ENGINE_WHY,
    },
    Lint {
        dir: "crates/*/src",
        exempt: &[],
        patterns: &[concat!("fn run_", "rows"), concat!("pub fn ", "db(")],
        why: "removed in PR 23: the row engine's entry point, and a builder setter no caller used",
    },
    Lint {
        dir: "crates/*/src",
        exempt: &["crates/minidb/src/value.rs"],
        // Split, as above.
        patterns: &[
            concat!("HashMap<", "Value,"),
            concat!("index_answers", "_eq"),
            concat!("index_joins", "_eq"),
            concat!("unsigned", "_zero"),
        ],
        why: "`=` on a key is `minidb::EqIndex`'s to answer (PR 24): a map keyed by a database \
              value finds by identity, and no call site decides which keys an index may take",
    },
    Lint {
        dir: "crates/*/src",
        exempt: &["crates/orm/src/remote.rs"],
        // Split, as above.
        patterns: &[concat!("cz_ns", ": 30"), concat!("server_row_ns", ": 200")],
        why: "a default price is a literal in `orm::Prices::default()` only; start from that",
    },
    Lint {
        dir: "crates/*/src",
        exempt: &[
            "crates/minidb/src/catalog.rs",
            "crates/minidb/src/schema.rs",
        ],
        // Split, as above.
        patterns: &[concat!("with_", "qualifier(")],
        why: "a scan's schema is its table's, built once (`Table::scan_schema`); a schema is \
              not re-qualified per execution",
    },
    Lint {
        dir: "crates/*/src",
        exempt: &[],
        // Split, as above; `…` is anything on the same line.
        patterns: &[concat!("resolve", "(&…to_ref", "_string())")],
        why: "a `ColRef` resolves through `ColRef::resolve` (`Schema::resolve_parts`), which \
              writes no string",
    },
];

/// Whether `line` holds `pat`: a substring, or with a `…` in it the part
/// before and then, further on, the part after.
fn matches(line: &str, pat: &str) -> bool {
    match pat.split_once('…') {
        None => line.contains(pat),
        Some((head, tail)) => line
            .find(head)
            .is_some_and(|at| line[at + head.len()..].contains(tail)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((flag, paths)) = args.split_first() {
        if flag != "--lines" || paths.is_empty() {
            eprintln!("usage: repo_lint [--lines <dir or file>...]");
            std::process::exit(2);
        }
        return print_non_test_lines(paths);
    }

    // crates/analysis/../.. is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();

    let mut violations = 0usize;
    for lint in LINTS {
        let mut files = Vec::new();
        match lint.dir.split_once("/*/") {
            None => collect_rs_files(&root.join(lint.dir), &mut files),
            Some((parent, rest)) => {
                let entries = std::fs::read_dir(root.join(parent)).into_iter().flatten();
                for entry in entries.flatten() {
                    collect_rs_files(&entry.path().join(rest), &mut files);
                }
            }
        }
        files.sort();
        for file in files {
            let rel = file.strip_prefix(&root).unwrap_or(&file);
            if lint.exempt.iter().any(|exempt| rel == Path::new(exempt)) {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            for (lineno, line) in text.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for pat in lint.patterns {
                    if matches(line, pat) {
                        violations += 1;
                        println!(
                            "{}:{}: found `{}` — {}",
                            rel.display(),
                            lineno + 1,
                            pat,
                            lint.why
                        );
                    }
                }
            }
        }
    }

    if violations > 0 {
        println!("repo_lint: {violations} violation(s)");
        std::process::exit(1);
    }
    println!("repo_lint: clean");
}

/// Lines before the first `#[cfg(test)]`, per `.rs` file under `paths`
/// (relative to the working directory), then the total.
fn print_non_test_lines(paths: &[String]) {
    use std::io::Write;
    let mut files = Vec::new();
    for path in paths {
        collect_rs_files(Path::new(path), &mut files);
    }
    files.sort();
    let mut out = std::io::stdout().lock();
    let mut total = 0;
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let is_test_gate = |line: &&str| line.trim() == "#[cfg(test)]";
        let lines = text.lines().take_while(|l| !is_test_gate(l)).count();
        total += lines;
        if writeln!(out, "{lines:>7}  {}", file.display()).is_err() {
            return; // `| head` closed the pipe: not a failure of a report
        }
    }
    let _ = writeln!(out, "{total:>7}  total");
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
