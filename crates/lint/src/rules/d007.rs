//! D007 `panicfree`: no panic-capable sites in the engine crates.
//!
//! The fault-tolerance claims (six fault plans, byte-identical recovery)
//! and the typed-error contract of the byte paths are only as good as the
//! code's inability to panic: an `unwrap` on the re-replication path turns a
//! survivable fault into an abort, an unchecked index on a decode path turns
//! a damaged replica into one. So the scope is derived, not enumerated —
//! every non-test function of the five engine crates — and the rule flags:
//!
//! * `.unwrap()` / `.expect(…)` method calls (`unwrap_or*`/`expect_err`
//!   are distinct names and unaffected);
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros;
//! * unchecked indexing/slicing `x[i]` (a `[` following an identifier,
//!   `)`, or `]`) — use `get`/`first`/`split_first` and return a typed
//!   [`ClydeError`](../../../common/src/error.rs) instead.
//!
//! Sites that predate the by-crate scope are counted per file in
//! `crates/lint/baseline.lint` under a CI-enforced downward ratchet; new
//! ones fail the build.

use super::FileCtx;
use crate::lexer::TokKind;
use crate::{Rule, Violation};

/// The crate key of a workspace-relative path: the component after
/// `crates/`, else `root` (top-level `src/`, `tests/`, `examples/`).
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .split("crates/")
        .nth(1)
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
}

/// Is `file` source (not a `tests/` or `benches/` target) of one of the
/// five engine crates?
fn in_engine_crate(file: &std::path::Path) -> bool {
    let path = file.to_string_lossy().replace('\\', "/");
    path.contains("/src/")
        && matches!(
            crate_of(&path),
            "common" | "columnar" | "dfs" | "mapred" | "core"
        )
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    if !in_engine_crate(ctx.file) {
        return;
    }
    let ast = ctx.ast;
    for f in ast.fns.iter().filter(|f| !f.is_test && !f.nested) {
        for i in f.body.clone() {
            let t = &ast.sig[i];
            if t.kind == TokKind::Ident {
                let is_call = ast.is_punct(i + 1, "(");
                let is_method = i > 0 && ast.is_punct(i - 1, ".");
                if is_call && is_method && (t.text == "unwrap" || t.text == "expect") {
                    violations.push(ctx.violation(
                        ast.line(i),
                        Rule::PanicFree,
                        format!(
                            "`.{}()` in engine code (fn `{}`) — a panic here turns \
                             a survivable fault into an abort; return a typed ClydeError",
                            t.text, f.name
                        ),
                    ));
                    continue;
                }
                if ast.is_punct(i + 1, "!")
                    && (ast.is_punct(i + 2, "(") || ast.is_punct(i + 2, "["))
                    && PANIC_MACROS.contains(&t.text.as_str())
                {
                    violations.push(ctx.violation(
                        ast.line(i),
                        Rule::PanicFree,
                        format!(
                            "`{}!` in engine code (fn `{}`) — recovery code must \
                             degrade to a typed ClydeError, never abort",
                            t.text, f.name
                        ),
                    ));
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
                    violations.push(ctx.violation(
                        ast.line(i),
                        Rule::PanicFree,
                        format!(
                            "unchecked indexing in engine code (fn `{}`) — use \
                             get()/first() and return a typed ClydeError on the miss",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::crate_of;

    #[test]
    fn crate_keys() {
        assert_eq!(crate_of("crates/mapred/src/engine.rs"), "mapred");
        assert_eq!(crate_of("tests/determinism.rs"), "root");
        assert_eq!(crate_of("src/main.rs"), "root");
    }
}
