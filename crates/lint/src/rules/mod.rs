//! Rule passes. Each pass consumes the shared `FileCtx` — one file's path
//! and its parsed token stream — and appends [`Violation`]s.
//!
//! * [`d001`] — `.into_iter()` of a hash container (clippy's residue).
//! * [`d006`] — float fold order in merge-scope files.
//! * [`d007`] — `[]` indexing in engine code (clippy's residue).
//! * [`d008`] — wall-clock taint into sim-time sinks.

use crate::parse::FileAst;
use crate::{Rule, Violation};
use std::path::Path;

pub mod d001;
pub mod d006;
pub mod d007;
pub mod d008;

/// Everything a per-file rule pass may look at.
pub(crate) struct FileCtx<'a> {
    /// Workspace-relative path (drives scoping and reporting).
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

/// Run every rule pass.
pub(crate) fn run_file(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    d001::scan(ctx, violations);
    d006::scan(ctx, violations);
    d007::scan(ctx, violations);
    d008::scan(ctx, violations);
}
