//! D007 `panicfree`, the residue clippy cannot see: `[]` indexing in the
//! engine and query crates.
//!
//! The fault-tolerance claims (six fault plans, byte-identical recovery)
//! and the typed-error contract of the byte paths are only as good as the
//! code's inability to panic. The workspace `[lints]` table gives the seven
//! crates on a query's path (`common`, `columnar`, `dfs`, `mapred`, `core`,
//! `ssb`, `hive`) clippy's `unwrap_used`, `panic`, `indexing_slicing` and
//! kin, but `indexing_slicing` does not see `HashMap`, `BTreeMap`,
//! `VecDeque` or user `Index` indexing. Without types this pass cannot tell
//! those apart, so it flags every `x[i]` (a `[` after an identifier, `)`
//! or `]`) in non-test functions of those crates' `src/`. Use
//! `get`/`first`/`split_first`/`zip` and return a typed `ClydeError`.

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
/// seven engine and query crates?
fn in_engine_crate(file: &std::path::Path) -> bool {
    let path = file.to_string_lossy().replace('\\', "/");
    path.contains("/src/")
        && matches!(
            crate_of(&path),
            "common" | "columnar" | "dfs" | "mapred" | "core" | "ssb" | "hive"
        )
}

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    if !in_engine_crate(ctx.file) {
        return;
    }
    let ast = ctx.ast;
    for f in ast.fns.iter().filter(|f| !f.is_test && !f.nested) {
        for i in f.body.clone() {
            // Attribute (`#[`) and macro (`m![`) brackets are preceded by
            // `#`/`!` and never match.
            let indexes = ast.is_punct(i, "[")
                && i > 0
                && match ast.sig[i - 1].kind {
                    TokKind::Ident => !crate::parse::is_keyword(&ast.sig[i - 1].text),
                    TokKind::Punct => ast.is_punct(i - 1, ")") || ast.is_punct(i - 1, "]"),
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
