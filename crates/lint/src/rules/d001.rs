//! D001 `unordered`: hash-container iteration must not leak its order.
//!
//! `HashMap`/`HashSet` iteration order differs between runs, so any value
//! that leaves through `iter`/`keys`/`values`/`drain` or a `for` loop can
//! reorder a result, a trace or a metric snapshot. The rule flags every
//! iteration of a name [`FileAst::hash_names`](crate::parse::FileAst) binds
//! to a hash container, unless the order visibly cannot escape: the same
//! line ends in an order-insensitive reduction, or a sort / ordered
//! collection appears on that line or within the next [`WINDOW`] lines.

use super::FileCtx;
use crate::lexer::TokKind;
use crate::parse::{FileAst, SigIdx};
use crate::{Rule, Violation};

/// Methods on a container name that constitute iteration.
const ITERATORS: [&str; 6] = ["iter", "into_iter", "keys", "values", "values_mut", "drain"];

/// Ordered collections that discharge a nearby iteration.
const ORDERED: [&str; 3] = ["BTreeMap", "BTreeSet", "BinaryHeap"];

/// Lines below an iteration searched for the sort that discharges it.
const WINDOW: u32 = 4;

/// `for … in [&[mut]] name {` — direct `IntoIterator` use of the name at `i`.
fn is_for_target(ast: &FileAst, i: SigIdx) -> bool {
    let mut j = i;
    if j > 0 && ast.is_ident(j - 1, "mut") {
        j -= 1;
    }
    if j > 0 && ast.is_punct(j - 1, "&") {
        j -= 1;
    }
    j > 0 && ast.is_ident(j - 1, "in") && ast.is_punct(i + 1, "{")
}

/// A terminal reduction at `dot` that is insensitive to iteration order.
fn is_order_free(ast: &FileAst, dot: SigIdx) -> bool {
    ast.method_at(dot).is_some_and(|m| match m {
        "sum" | "count" | "is_empty" => true,
        // `a.min(b)` is `Ord::min`, not the iterator reduction.
        "min" | "max" => ast.is_punct(dot + 3, ")"),
        _ => m.starts_with("min_by") || m.starts_with("max_by"),
    })
}

/// A sort at `i`, or a mention of an ordered collection.
fn is_ordering(ast: &FileAst, i: SigIdx) -> bool {
    ast.method_at(i).is_some_and(|m| {
        m == "sort" || m == "sorted" || m.starts_with("sort_by") || m.starts_with("sort_unstable")
    }) || ORDERED.iter().any(|o| ast.is_ident(i, o))
}

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    let ast = ctx.ast;
    let mut flagged_line = 0;
    for (i, t) in ast.sig.iter().enumerate() {
        if t.kind != TokKind::Ident || t.line == flagged_line || !ast.hash_names.contains(&t.text) {
            continue;
        }
        let site = match ast.method_at(i + 1) {
            // Same line only: a chain rustfmt broke before its first method
            // is not seen, as it never was (kept for verdict parity).
            Some(m) if ITERATORS.contains(&m) && ast.sig[i + 1].line == t.line => {
                format!("{}.{m}()", t.text)
            }
            _ if is_for_target(ast, i) => format!("for _ in {}", t.text),
            _ => continue,
        };
        flagged_line = t.line;
        let line_start = ast.sig.partition_point(|s| s.line < t.line);
        let line_end = ast.sig.partition_point(|s| s.line <= t.line);
        let window_end = ast.sig.partition_point(|s| s.line <= t.line + WINDOW);
        if (line_start..line_end).any(|k| is_order_free(ast, k))
            || (line_start..window_end).any(|k| is_ordering(ast, k))
        {
            continue;
        }
        violations.push(ctx.violation(
            t.line as usize,
            Rule::Unordered,
            format!(
                "unordered hash-container iteration `{site}` may leak nondeterministic \
                 order into output — sort nearby, collect into a BTreeMap/BTreeSet, or \
                 pragma with a reason the order cannot escape"
            ),
        ));
    }
}
