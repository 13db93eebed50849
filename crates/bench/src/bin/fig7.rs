//! Figure 7 — Clydesdale vs Hive on cluster A (8 workers), SF1000.
//!
//! Usage: `fig7 [measurement-SF] [--trace <out.json>]` (default SF 0.02).
//! Executes all 13 SSB queries for real at the measurement scale
//! (validating every answer), then extrapolates to SF1000 on cluster A with
//! the calibrated cost model. With `--trace`, every measured job's timeline
//! is written as Perfetto-loadable Chrome trace JSON.

use clyde_bench::paper::cluster_a::{MAPJOIN_OOM, SPEEDUP_AVG, SPEEDUP_MAX, SPEEDUP_MIN};
use clyde_dfs::ClusterSpec;

fn main() {
    clyde_bench::harness::figure_vs_hive(
        7,
        ClusterSpec::cluster_a(),
        [SPEEDUP_MIN, SPEEDUP_MAX, SPEEDUP_AVG],
        &MAPJOIN_OOM,
    );
}
