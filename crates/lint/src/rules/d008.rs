//! D008 `walltaint`: wall-clock values must not reach sim-time artifacts.
//!
//! Every CI byte-compare (shadow_check, fault matrix, trace goldens) rests
//! on the artifact surface being a pure function of the workload. Wall time
//! is the one legitimately nondeterministic input, quarantined behind
//! `WallTimer` (D002, `clippy.toml`) and published only through channels
//! the comparators filter: `note_wall_phase` and `wall_histogram_record`,
//! whose `WallHistogram` series are named `*wall*` (shadow_check's
//! `filter_wall` drops those lines).
//!
//! This rule closes the remaining gap with a per-function, statement-level
//! taint pass: a value is *tainted* if its statement mentions `WallTimer`,
//! an `elapsed_*` accessor, or a wall-named identifier; `let` bindings
//! propagate taint forward. A tainted statement that calls a sim-time sink
//! (metric emitters, span/trace export, profile serialization) is a
//! violation. A `WallNanos` type would make this a compile error, but
//! `TaskProfile::wall_ns` and `JobProfile::wall_phases` are `u64` fields
//! the frozen benchmark reads (ROADMAP item 3).

use super::FileCtx;
use crate::lexer::TokKind;
use crate::{Rule, Violation};
use std::collections::BTreeSet;

/// Sim-time artifact sinks: calls whose output CI byte-compares.
pub const D008_SINKS: &[&str] = &[
    "counter_add",
    "gauge_set",
    "histogram_record",
    "span",
    "record_job",
    "chrome_trace",
    "to_json",
    "profiles_json",
    "record_query_profile",
];

/// Accessor methods that read a wall timer.
const ELAPSED: [&str; 3] = ["elapsed_ns", "elapsed_s", "elapsed_ms"];

/// Sanitizers: wall-named identifiers that *remove* wall data rather than
/// carry it. `filter_wall` is the comparator-side scrub; `note_wall_phase`
/// and `wall_histogram_record` are the sanctioned publish channels. A
/// statement calling one is clean, not a source.
const SANITIZERS: [&str; 3] = ["filter_wall", "note_wall_phase", "wall_histogram_record"];

/// Is this identifier a wall-clock source?
fn is_wall_ident(text: &str) -> bool {
    if SANITIZERS.contains(&text) {
        return false;
    }
    text == "WallTimer" || ELAPSED.contains(&text) || text.to_ascii_lowercase().contains("wall")
}

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    let ast = ctx.ast;
    for f in ast.fns.iter().filter(|f| !f.is_test && !f.nested) {
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        for stmt in ast.statements(&f.body) {
            let mut has_source = false;
            let mut sink: Option<(usize, String)> = None;
            for i in stmt.clone() {
                let t = &ast.sig[i];
                if t.kind != TokKind::Ident {
                    continue;
                }
                if is_wall_ident(&t.text) || tainted.contains(&t.text) {
                    has_source = true;
                }
                if ast.is_punct(i + 1, "(")
                    && D008_SINKS.contains(&t.text.as_str())
                    && sink.is_none()
                {
                    sink = Some((i, t.text.clone()));
                }
            }
            if !has_source {
                continue;
            }
            // Propagate: `let name = <tainted expr>` taints the binding.
            let mut k = stmt.start;
            if ast.is_ident(k, "let") {
                k += 1;
                if ast.is_ident(k, "mut") {
                    k += 1;
                }
                if let Some(nt) = ast.sig.get(k) {
                    if nt.kind == TokKind::Ident && !crate::parse::is_keyword(&nt.text) {
                        tainted.insert(nt.text.clone());
                    }
                }
            }
            if let Some((at, name)) = sink {
                violations.push(ctx.violation(
                    ast.line(at),
                    Rule::WallTaint,
                    format!(
                        "wall-derived value flows into sim-time sink `{name}` in fn \
                         `{}` — CI byte-compares this surface; route wall time through \
                         note_wall_phase or wall_histogram_record (filtered channels)",
                        f.name
                    ),
                ));
            }
        }
    }
}
