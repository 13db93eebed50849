//! D006 `floatorder`: non-associative float reductions in merge-scope code.
//!
//! The paper's numbers survive replication because every reduction that
//! crosses a thread or run boundary folds in one fixed order. Inside the
//! merge-scope files — the morsel-parallel runner and the shuffle merge —
//! a floating-point reduction whose order is not pinned is a thread-count
//! dependence waiting to happen. The rule flags, in non-test functions of
//! those files:
//!
//! * `fold(...)` calls — always. The folded closure's associativity is
//!   unknowable statically, so the merge order must be made explicit (or
//!   the site annotated `allow(floatorder, reason=fixed-merge-order …)`
//!   after checking the inputs arrive in a canonical order).
//! * `.sum()` calls and `+=` accumulation in loops — only with visible
//!   `f32`/`f64` evidence in the same statement (float-typed binding, a
//!   float literal/cast). Integer reductions commute; flagging them would
//!   only train people to scatter pragmas.

use super::FileCtx;
use crate::lexer::TokKind;
use crate::{rel_allowed, Rule, Violation};

/// Files whose non-test functions merge cross-thread or cross-run state.
pub const D006_MERGE_SCOPE: &[&str] = &[
    "crates/core/src/mtrunner.rs",
    "crates/mapred/src/shuffle.rs",
];

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    if !rel_allowed(ctx.file, D006_MERGE_SCOPE) {
        return;
    }
    let ast = ctx.ast;
    for f in ast.fns.iter().filter(|f| !f.is_test && !f.nested) {
        // Loop headers seen so far, by depth: `+=` only counts inside one.
        let loop_depths: Vec<(usize, u32)> = f
            .body
            .clone()
            .filter(|&i| {
                ast.sig[i].kind == TokKind::Ident
                    && matches!(ast.sig[i].text.as_str(), "for" | "while" | "loop")
            })
            .map(|i| (i, ast.depth[i]))
            .collect();
        for stmt in ast.statements(&f.body) {
            let float_evidence = stmt.clone().any(|i| {
                let t = &ast.sig[i];
                (t.kind == TokKind::Ident
                    && (t.text == "f32" || t.text == "f64" || ast.float_names.contains(&t.text)))
                    || t.kind == TokKind::Float
            });
            for i in stmt.clone() {
                let t = &ast.sig[i];
                // A call: `name(` or turbofish `name::<T>(`.
                let is_call = ast.is_punct(i + 1, "(")
                    || (ast.is_punct(i + 1, ":")
                        && ast.is_punct(i + 2, ":")
                        && ast.is_punct(i + 3, "<"));
                if t.kind == TokKind::Ident && is_call {
                    let hit = match t.text.as_str() {
                        "fold" => Some("fold"),
                        "sum" if float_evidence => Some("sum"),
                        _ => None,
                    };
                    if let Some(what) = hit {
                        violations.push(ctx.violation(
                            ast.line(i),
                            Rule::FloatOrder,
                            format!(
                                "`{what}` reduction in merge-scope fn `{}` — the fold order \
                                 decides the result for non-associative (float) operations; \
                                 pin a canonical order or annotate \
                                 `clyde-lint: allow(floatorder, reason=fixed-merge-order …)`",
                                f.name
                            ),
                        ));
                    }
                }
                // `acc += …` on a float-evidenced accumulator, inside a loop.
                if t.kind == TokKind::Punct
                    && t.text == "+"
                    && ast.is_punct(i + 1, "=")
                    && i > 0
                    && ast.sig[i - 1].kind == TokKind::Ident
                    && ast.float_names.contains(&ast.sig[i - 1].text)
                    && loop_depths
                        .iter()
                        .any(|&(at, d)| at < i && d < ast.depth[i])
                {
                    violations.push(ctx.violation(
                        ast.line(i),
                        Rule::FloatOrder,
                        format!(
                            "float `+=` accumulation on `{}` in a loop in merge-scope fn \
                             `{}` — iteration order decides the sum; pin a canonical order \
                             or annotate `clyde-lint: allow(floatorder, \
                             reason=fixed-merge-order …)`",
                            ast.sig[i - 1].text,
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}
