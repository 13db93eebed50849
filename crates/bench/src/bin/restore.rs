//! Cold-then-warm replay of the mixed-tenant workload against the result
//! cache, reporting warm speedup and hit rates.
//!
//! Usage: `restore [SF] [--seed <n>] [--json PATH] [--report PATH] [--gate PATH]`
//! (default SF 0.005, seed 46 — the workload bench's scale).
//!
//! * `--json PATH` writes the committed-gate JSON document (see
//!   `BENCH_restore.json` at the repo root for a committed run).
//! * `--report PATH` writes the human-readable report (uploaded as the CI
//!   `gates` job artifact).
//! * `--gate PATH` reads a committed run and **fails (exit 1)** unless the
//!   warm speedup clears both the hard 2x floor and 0.9x its committed
//!   value, and the warm hit rate clears its 0.80 floor.
//!
//! Query execution is real; the two-pass timeline is deterministic
//! simulated time, so the reported numbers are byte-stable across reruns
//! and machines. The bench itself verifies that every warm (cached) result
//! is byte-identical to the cold (recomputed) one before reporting.

use clyde_bench::{cli, gate, restore};

fn main() {
    let args = cli::parse(
        "usage: restore [SF] [--seed <n>] [--json PATH] [--report PATH] [--gate PATH]",
        &["--seed", "--json", "--report", "--gate"],
        &[],
    );
    let sf = args.sf(0.005);
    let seed: u64 = args.parsed("--seed").unwrap_or(46);

    eprintln!("loading SSB at SF {sf} (seed {seed}) on the workload cluster...");
    let report = restore::run(sf, seed, None, None)
        .unwrap_or_else(|e| panic!("restore cold/warm replay failed: {e}"));
    let rendered = restore::render_report(&report);
    print!("{rendered}");
    if let Some(path) = args.value("--report") {
        std::fs::write(path, &rendered).expect("write report");
        eprintln!("wrote {path}");
    }
    let fresh = restore::to_json(&report);
    gate::finish("restore", gate::RESTORE, &args, &fresh);
}
