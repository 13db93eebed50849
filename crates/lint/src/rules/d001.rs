//! D001 `unordered`, the residue clippy cannot see: `.into_iter()` of a
//! hash container.
//!
//! `HashMap`/`HashSet` iteration order differs between runs, so a value
//! that leaves through it can reorder a result, a trace or a metric
//! snapshot. `clippy.toml` bans the named iterators (`iter`, `keys`,
//! `values`, `drain`, …) and `iter_over_hash_type` bans `for` loops, but
//! `disallowed-methods` cannot name `IntoIterator::into_iter` on a hash
//! map. This pass flags `name.into_iter()` for every name
//! [`FileAst::hash_names`](crate::parse::FileAst) binds to a hash container.

use super::FileCtx;
use crate::lexer::TokKind;
use crate::{Rule, Violation};

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    let ast = ctx.ast;
    for (i, t) in ast.sig.iter().enumerate() {
        if t.kind == TokKind::Ident
            && ast.hash_names.contains(&t.text)
            && ast.method_at(i + 1) == Some("into_iter")
        {
            violations.push(ctx.violation(
                t.line as usize,
                Rule::Unordered,
                format!(
                    "`{}.into_iter()` leaks hash-container order — collect into a \
                     BTreeMap/BTreeSet, sort, or pragma with a reason the order cannot escape",
                    t.text
                ),
            ));
        }
    }
}
