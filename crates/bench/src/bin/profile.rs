//! The profiling bench target: explain-analyze artifacts for the 13-query
//! suite.
//!
//! ```text
//! profile [SF] [--out-dir DIR]
//! ```
//!
//! Runs all 13 SSB queries (default SF 0.01) with observability on and
//! writes three artifacts to `--out-dir` (default `.`):
//! `query-profiles.json` (the deterministic `clyde-profiles` bundle:
//! simulated counters only), `flamegraph.folded` (collapsed stacks over
//! simulated time — feed to flamegraph.pl / speedscope), and
//! `calibration.txt` (per-phase model-vs-measured drift).

use clyde_bench::harness::{profile_suite, MeasurementConfig};

fn main() {
    let args = clyde_bench::cli::parse("usage: profile [SF] [--out-dir DIR]", &["--out-dir"], &[]);
    let sf = args.sf(0.01);
    let out_dir = args.value("--out-dir").unwrap_or(".");

    eprintln!("profiling the 13-query suite at SF {sf}...");
    let config = MeasurementConfig {
        sf,
        ..MeasurementConfig::default()
    };
    let suite = profile_suite(&config).expect("profile suite");
    let write = |name: &str, content: &str| {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    };
    write("query-profiles.json", &suite.json);
    write("flamegraph.folded", &suite.flamegraph);
    write("calibration.txt", &suite.calibration);
    println!("{}", suite.calibration);
    for p in &suite.profiles {
        println!(
            "{}: {:.1}s simulated, {} job(s), {} flagged phase(s)",
            p.query,
            p.total_s,
            p.jobs.len(),
            p.flagged_phases().len()
        );
    }
}
