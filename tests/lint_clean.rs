//! Tier-1 runs the whole lint gate (DESIGN.md §9), not only CI:
//!
//! * clippy with warnings denied, which enforces D001–D004 (`clippy.toml`),
//!   D007 (the workspace `[lints]` table) and the exemption discipline: an
//!   exemption is an `#[expect(clippy::…, reason = "…")]`, and one that
//!   suppresses nothing fails as `unfulfilled_lint_expectations`;
//! * the `clyde-lint` scan for what types cannot see: D001's `.into_iter()`
//!   residue, D006, D007's `[]` indexing residue and D008. No finding at
//!   all; a pragma with a reason is the only exemption, and one that
//!   suppresses nothing is itself a finding.
//!
//! D005 is a type (metric emitters take `obs::catalog` handles), and lock
//! order is pinned at run time by `tests/lock_nesting.rs`.

use std::path::Path;
use std::process::Command;

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

#[test]
fn clippy_passes_with_warnings_denied() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    // Its own target dir: the one `cargo test` holds is locked while the
    // tests run.
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .arg("--target-dir")
        .arg(root.join("target").join("lint-clippy"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
