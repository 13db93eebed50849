//! Rule passes. Each pass consumes the shared [`FileCtx`] — one file's path
//! and its parsed token stream — and appends [`Violation`]s.
//!
//! * [`d001`] — unordered hash-container iteration.
//! * [`banned`] — D002–D004, the banned-path rules: one matcher, three
//!   tables (wall clock, entropy, concurrency primitives).
//! * [`d005`] — metric names.
//! * [`d006`]–[`d008`] — float fold order, panic sites, wall-clock taint.

use crate::parse::FileAst;
use crate::{Rule, Violation};
use std::path::Path;

pub mod banned;
pub mod d001;
pub mod d005;
pub mod d006;
pub mod d007;
pub mod d008;

/// Everything a per-file rule pass may look at.
pub(crate) struct FileCtx<'a> {
    /// Workspace-relative path (drives scoping/allowlists and reporting).
    pub file: &'a Path,
    pub ast: &'a FileAst,
}

impl FileCtx<'_> {
    pub(crate) fn violation(&self, line: usize, rule: Rule, message: String) -> Violation {
        Violation {
            file: self.file.to_path_buf(),
            line,
            rule,
            message,
        }
    }
}

/// Run every rule pass (D001–D008).
pub(crate) fn run_file(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    d001::scan(ctx, violations);
    banned::scan(ctx, violations);
    d005::scan(ctx, violations);
    d006::scan(ctx, violations);
    d007::scan(ctx, violations);
    d008::scan(ctx, violations);
}
