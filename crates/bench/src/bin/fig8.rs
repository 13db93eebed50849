//! Figure 8 — Clydesdale vs Hive on cluster B (40 workers), SF1000.
//!
//! Usage: `fig8 [measurement-SF] [--trace <out.json>]` (default SF 0.02).
//! Same methodology as `fig7`, priced on cluster B. The paper's
//! observations to reproduce: the speedup shrinks (5.2x–21.4x, avg 11.1x)
//! because per-node work is smaller while hash-table builds and scheduling
//! overheads stay constant, and the mapjoin plans complete (32 GB nodes).

use clyde_bench::harness::{
    fault_impact, measure_with_obs, Extrapolator, MeasureWhat, MeasurementConfig,
};
use clyde_bench::paper;
use clyde_bench::report::{render_fault_impact, render_table, secs, speedup};
use clyde_dfs::ClusterSpec;
use clyde_hive::JoinStrategy;
use std::sync::Arc;

fn main() {
    let args = clyde_bench::cli::figure("fig8");
    let sf = args.sf(0.02);
    let obs = args.obs();
    let config = MeasurementConfig {
        sf,
        ..MeasurementConfig::default()
    };
    eprintln!("measuring all 13 SSB queries at SF {sf}, validating results...");
    let m = measure_with_obs(
        &config,
        MeasureWhat {
            hive: true,
            ablations: false,
        },
        Arc::clone(&obs),
    )
    .expect("measurement failed");
    args.write_trace(&obs);
    let ex = Extrapolator::new(ClusterSpec::cluster_b(), 1000.0, &m);

    let mut rows = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut ooms = Vec::new();
    for qm in &m.queries {
        let clyde = ex.clyde_time(qm).expect("clydesdale never OOMs");
        let rp = ex
            .hive_time(&m, qm, JoinStrategy::Repartition)
            .expect("repartition never OOMs");
        speedups.push(rp / clyde);
        let (mj_cell, mj_speedup) = match ex.hive_time(&m, qm, JoinStrategy::MapJoin) {
            Ok(t) => {
                speedups.push(t / clyde);
                (secs(t), speedup(t / clyde))
            }
            Err(_) => {
                ooms.push(qm.query.id.clone());
                ("OOM-FAILED".to_string(), "-".to_string())
            }
        };
        rows.push(vec![
            qm.query.id.clone(),
            secs(clyde),
            secs(rp),
            speedup(rp / clyde),
            mj_cell,
            mj_speedup,
        ]);
    }

    println!("\nFigure 8: SSB at SF1000 on cluster B (40 workers x 8 cores / 32 GB / 5 disks)\n");
    println!(
        "{}",
        render_table(
            &[
                "query",
                "Clydesdale",
                "Hive-repartition",
                "speedup",
                "Hive-mapjoin",
                "speedup",
            ],
            &rows,
        )
    );
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("speedup over Hive: min {min:.1}x  max {max:.1}x  avg {avg:.1}x");
    println!(
        "paper reports:     min {:.1}x  max {:.1}x  avg {:.1}x",
        paper::cluster_b::SPEEDUP_MIN,
        paper::cluster_b::SPEEDUP_MAX,
        paper::cluster_b::SPEEDUP_AVG
    );
    println!("mapjoin OOM failures (paper: none on cluster B): {ooms:?}");

    if let Some(seed) = args.faults() {
        eprintln!("\nre-running all 13 queries under the `combined` fault plan (seed {seed})...");
        let impacts = fault_impact(&config, seed).expect("fault impact run failed");
        println!(
            "\nFault impact (combined plan, seed {seed}, measurement scale SF {sf}): \
             every answer identical to the fault-free run\n"
        );
        println!("{}", render_fault_impact(&impacts));
    }
}
