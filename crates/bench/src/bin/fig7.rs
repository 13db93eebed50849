//! Figure 7 — Clydesdale vs Hive on cluster A (8 workers), SF1000.
//!
//! Usage: `fig7 [measurement-SF] [--trace <out.json>]` (default SF 0.02).
//! Executes all 13 SSB queries for real at the measurement scale
//! (validating every answer), then extrapolates to SF1000 on cluster A with
//! the calibrated cost model. With `--trace`, every measured job's timeline
//! is written as Perfetto-loadable Chrome trace JSON.

use clyde_bench::harness::{
    fault_impact, measure_with_obs, Extrapolator, MeasureWhat, MeasurementConfig,
};
use clyde_bench::paper;
use clyde_bench::report::{render_fault_impact, render_table, secs, speedup};
use clyde_dfs::ClusterSpec;
use clyde_hive::JoinStrategy;
use std::sync::Arc;

fn main() {
    let args = clyde_bench::cli::figure("fig7");
    let sf = args.sf(0.02);
    let obs = args.obs();
    let config = MeasurementConfig {
        sf,
        ..MeasurementConfig::default()
    };
    eprintln!(
        "measuring all 13 SSB queries at SF {sf} (Clydesdale + Hive mapjoin + Hive repartition), validating results..."
    );
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
    let ex = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, &m);

    let mut rows = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    for qm in &m.queries {
        let clyde = ex.clyde_time(qm).expect("clydesdale never OOMs");
        let rp = ex
            .hive_time(&m, qm, JoinStrategy::Repartition)
            .expect("repartition never OOMs");
        let mj = ex.hive_time(&m, qm, JoinStrategy::MapJoin);
        speedups.push(rp / clyde);
        let (mj_cell, mj_speedup) = match mj {
            Ok(t) => {
                speedups.push(t / clyde);
                (secs(t), speedup(t / clyde))
            }
            Err(_) => ("OOM-FAILED".to_string(), "-".to_string()),
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

    println!("\nFigure 7: SSB at SF1000 on cluster A (8 workers x 8 cores / 16 GB / 8 disks)\n");
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
        paper::cluster_a::SPEEDUP_MIN,
        paper::cluster_a::SPEEDUP_MAX,
        paper::cluster_a::SPEEDUP_AVG
    );
    println!(
        "mapjoin OOM failures (paper: {:?}): {:?}",
        paper::cluster_a::MAPJOIN_OOM,
        m.queries
            .iter()
            .filter(|qm| ex.hive_time(&m, qm, JoinStrategy::MapJoin).is_err())
            .map(|qm| qm.query.id.as_str())
            .collect::<Vec<_>>()
    );

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
