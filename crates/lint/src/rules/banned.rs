//! D002 `wallclock`, D003 `entropy`, D004 `concurrency`: paths that may
//! appear only in audited files.
//!
//! All three are the same check — an identifier path (`SystemTime`,
//! `thread::spawn`, `rand::random`) anywhere in a file that is not on the
//! rule's allowlist — so they share one matcher and differ in their table.

use super::FileCtx;
use crate::lexer::TokKind;
use crate::{rel_allowed, Rule, Violation, D002_ALLOWED, D004_AUDITED};

struct Ban {
    rule: Rule,
    /// Files where the paths are allowed.
    allowed: &'static [&'static str],
    /// Each path is its `::`-separated segments; a longer use
    /// (`std::time::Instant::now`) matches at the segment where one starts.
    paths: &'static [&'static [&'static str]],
    /// What is wrong and what to do instead, after the quoted path.
    why: &'static str,
}

const BANS: [Ban; 3] = [
    Ban {
        rule: Rule::WallClock,
        allowed: D002_ALLOWED,
        paths: &[&["Instant", "now"], &["SystemTime"], &["time", "Instant"]],
        why: "outside the wall-phase module — measure through \
              clyde_common::obs::WallTimer (crates/common/src/obs/wall.rs) instead",
    },
    Ban {
        rule: Rule::Entropy,
        allowed: &[],
        paths: &[
            &["thread_rng"],
            &["from_entropy"],
            &["OsRng"],
            &["getrandom"],
            &["RandomState"],
            &["rand", "random"],
        ],
        why: "is entropy-seeded randomness — all RNG must flow from explicit seeds \
              (splitmix64 plumbing in crates/mapred/src/fault.rs, SsbGen)",
    },
    Ban {
        rule: Rule::Concurrency,
        allowed: D004_AUDITED,
        paths: &[
            &["thread", "spawn"],
            &["thread", "scope"],
            &["Mutex"],
            &["RwLock"],
            &["Condvar"],
        ],
        why: "is a concurrency primitive outside the audited modules — shared mutable \
              state belongs in the runners/engine/DFS state holders (see \
              clyde_lint::D004_AUDITED); task code paths stay lock-free",
    },
];

/// One finding per rule per line, as a reader would count them.
pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    let ast = ctx.ast;
    for ban in BANS.iter().filter(|b| !rel_allowed(ctx.file, b.allowed)) {
        let mut flagged_line = 0;
        for (i, t) in ast.sig.iter().enumerate() {
            if t.kind != TokKind::Ident || t.line == flagged_line {
                continue;
            }
            if let Some(path) = ban.paths.iter().find(|p| ast.is_path(i, p)) {
                flagged_line = t.line;
                violations.push(ctx.violation(
                    t.line as usize,
                    ban.rule,
                    format!("`{}` {}", path.join("::"), ban.why),
                ));
            }
        }
    }
}
