//! Tier-1 runs the lint: the determinism, concurrency and panic-path
//! invariants (DESIGN.md §9, D001–D008) hold for this checkout under
//! `cargo test`, not only in CI's `static-analysis` job. Lock order is
//! pinned at run time instead, by `tests/lock_nesting.rs`.
//!
//! Same verdict as `clyde-lint --ratchet`: no finding beyond what
//! `crates/lint/baseline.lint` grandfathers, and no baseline entry more
//! generous than the code needs (debt paid down must be re-recorded with
//! `clyde-lint --write-baseline`, so it cannot silently come back).

use clyde_lint::baseline::{apply, Baseline};
use std::path::Path;

#[test]
fn the_workspace_is_lint_clean_and_the_baseline_is_tight() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("crates/lint/baseline.lint")).expect("baseline");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    let applied = apply(&baseline, clyde_lint::scan_workspace(root).expect("scan"));
    let failing: Vec<String> = applied.failing.iter().map(|v| v.to_string()).collect();
    assert!(failing.is_empty(), "{}", failing.join("\n"));
    assert!(
        applied.stale.is_empty(),
        "stale baseline entries (rule, file, allowed, found): {:?}",
        applied.stale
    );
}
