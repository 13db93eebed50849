//! Figure 8 — Clydesdale vs Hive on cluster B (40 workers), SF1000.
//!
//! Usage: `fig8 [measurement-SF] [--trace <out.json>]` (default SF 0.02).
//! Same methodology as `fig7`, priced on cluster B. The paper's
//! observations to reproduce: the speedup shrinks (5.2x–21.4x, avg 11.1x)
//! because per-node work is smaller while hash-table builds and scheduling
//! overheads stay constant, and the mapjoin plans complete (32 GB nodes).

use clyde_bench::paper::cluster_b::{MAPJOIN_OOM, SPEEDUP_AVG, SPEEDUP_MAX, SPEEDUP_MIN};
use clyde_dfs::ClusterSpec;

fn main() {
    clyde_bench::harness::figure_vs_hive(
        8,
        ClusterSpec::cluster_b(),
        [SPEEDUP_MIN, SPEEDUP_MAX, SPEEDUP_AVG],
        &MAPJOIN_OOM,
    );
}
