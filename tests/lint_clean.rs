//! Tier-1 runs the lint: the determinism, concurrency and panic-path
//! invariants (DESIGN.md §9, D001–D008) hold for this checkout under
//! `cargo test`, not only in CI's `static-analysis` job. Lock order is
//! pinned at run time instead, by `tests/lock_nesting.rs`.
//!
//! Same verdict as `clyde-lint`: no finding at all. There is no baseline of
//! grandfathered sites; a pragma with a reason is the only exemption, and
//! one that suppresses nothing is itself a finding.

use std::path::Path;

#[test]
fn the_workspace_has_no_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings: Vec<String> = clyde_lint::scan_workspace(root)
        .expect("scan")
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
