//! D007 `panicfree`: no panic-capable sites in designated recovery code.
//!
//! The fault-tolerance claims (six fault plans, byte-identical recovery)
//! are only as good as the recovery paths' inability to panic: an `unwrap`
//! on the re-replication path turns a survivable fault into an abort. This
//! rule designates the recovery surface explicitly — whole files or named
//! functions — and flags, in non-test code:
//!
//! * `.unwrap()` / `.expect(…)` method calls (`unwrap_or*`/`expect_err`
//!   are distinct names and unaffected);
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros;
//! * unchecked indexing/slicing `x[i]` (a `[` following an identifier,
//!   `)`, or `]`) — use `get`/`first`/`split_first` and return a typed
//!   [`ClydeError`](../../../common/src/error.rs) instead.
//!
//! Grandfathered sites live in `crates/lint/baseline.lint` with a CI-
//! enforced downward ratchet; new ones fail the build.

use super::FileCtx;
use crate::lexer::TokKind;
use crate::{Rule, Violation};

/// The recovery surface: `(file suffix, scoped fn names)`. An empty fn list
/// audits every non-test function in the file.
pub const D007_RECOVERY: &[(&str, &[&str])] = &[
    // Fault-plan bookkeeping: consulted while a job is already degraded.
    ("crates/mapred/src/fault.rs", &[]),
    // Datanode block store: the re-replication read/write path.
    ("crates/dfs/src/datanode.rs", &[]),
    // Namespace-level re-replication after a node loss, and the replica
    // read path: checksum verification, replica fail-over and the range
    // arithmetic every map task's reads go through.
    (
        "crates/dfs/src/dfs.rs",
        &[
            "rereplicate",
            "verified",
            "fetch_block",
            "read_file_tracked",
            "read_range_tracked",
        ],
    ),
    // A job's phases end to end — planning, the first map wave, the
    // heartbeat barrier and retry wave, the speculative commit, shuffle and
    // reduce, pricing and publication — plus retry placement and the
    // injected-failure verdict.
    (
        "crates/mapred/src/engine.rs",
        &[
            "run_job_inner",
            "plan_job",
            "map_env",
            "first_map_wave",
            "recover_failed_tasks",
            "attempt_failed",
            "speculate",
            "profile",
            "shuffle_and_reduce",
            "finish_job",
            "death_time",
            "retry_node",
            "injected_failure",
        ],
    ),
    // Admission control: must reject, never abort, under overload.
    ("crates/mapred/src/server.rs", &["submit", "drain"]),
    // The dimension byte path: every node decodes node-local row-binary
    // files straight into its hash tables, so a corrupt or foreign-arity
    // file must surface as a typed error, not take the map task down.
    ("crates/common/src/rowcodec.rs", &[]),
    (
        "crates/core/src/hashtable.rs",
        &[
            "build",
            "build_encoded",
            "build_from",
            "resident",
            "build_all_resident",
            "build_all_from",
        ],
    ),
    // The fact byte path: column chunks are decoded from whatever bytes a
    // replica served, so damaged or crafted chunks must be typed errors; and
    // the format's planning/open calls run inside every job and map task.
    ("crates/columnar/src/encoding.rs", &[]),
    (
        "crates/columnar/src/input.rs",
        &["splits", "open", "zone_prunes"],
    ),
    // Assembling a query's tables on a node, and the engine-lifetime store
    // it takes them from: a table built for an earlier query must be found
    // or rebuilt, never abort the task that asked for it.
    ("crates/core/src/mtrunner.rs", &["acquire_tables"]),
    (
        "crates/mapred/src/task.rs",
        &[
            "matches",
            "resident_hash",
            "lookup",
            "retain",
            "resident_stats",
        ],
    ),
];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// The scoped fn list for `file`, if the file is on the recovery surface.
fn scope_for(file: &std::path::Path) -> Option<&'static [&'static str]> {
    let norm: String = file
        .to_string_lossy()
        .replace('\\', "/")
        .trim_start_matches("./")
        .to_string();
    D007_RECOVERY
        .iter()
        .find(|(suffix, _)| norm.ends_with(suffix))
        .map(|(_, fns)| *fns)
}

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    let Some(fn_scope) = scope_for(ctx.file) else {
        return;
    };
    let ast = ctx.ast;
    for f in ast.fns.iter().filter(|f| !f.is_test && !f.nested) {
        if !fn_scope.is_empty() && !fn_scope.contains(&f.name.as_str()) {
            continue;
        }
        for i in f.body.clone() {
            let t = &ast.sig[i];
            if t.kind == TokKind::Ident {
                let is_call = ast.is_punct(i + 1, "(");
                let is_method = i > 0 && ast.is_punct(i - 1, ".");
                if is_call && is_method && (t.text == "unwrap" || t.text == "expect") {
                    violations.push(Violation {
                        file: ctx.file.to_path_buf(),
                        line: ast.line(i),
                        rule: Rule::PanicFree,
                        message: format!(
                            "`.{}()` on the recovery path (fn `{}`) — a panic here turns \
                             a survivable fault into an abort; return a typed ClydeError",
                            t.text, f.name
                        ),
                    });
                    continue;
                }
                if ast.is_punct(i + 1, "!")
                    && (ast.is_punct(i + 2, "(") || ast.is_punct(i + 2, "["))
                    && PANIC_MACROS.contains(&t.text.as_str())
                {
                    violations.push(Violation {
                        file: ctx.file.to_path_buf(),
                        line: ast.line(i),
                        rule: Rule::PanicFree,
                        message: format!(
                            "`{}!` on the recovery path (fn `{}`) — recovery code must \
                             degrade to a typed ClydeError, never abort",
                            t.text, f.name
                        ),
                    });
                    continue;
                }
            }
            // Unchecked indexing/slicing: `expr[…]` where expr ends in an
            // identifier, `)`, or `]`. Attribute (`#[`) and macro (`m![`)
            // brackets are preceded by `#`/`!` and never match.
            if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
                let prev = &ast.sig[i - 1];
                let indexes = match prev.kind {
                    TokKind::Ident => !crate::parse::is_keyword(&prev.text),
                    TokKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if indexes {
                    violations.push(Violation {
                        file: ctx.file.to_path_buf(),
                        line: ast.line(i),
                        rule: Rule::PanicFree,
                        message: format!(
                            "unchecked indexing on the recovery path (fn `{}`) — use \
                             get()/first() and return a typed ClydeError on the miss",
                            f.name
                        ),
                    });
                }
            }
        }
    }
}
