//! Figure 9 / Section 6.5 — the feature ablation on cluster A, SF1000.
//!
//! Runs Clydesdale with each technique disabled (block iteration, columnar
//! storage, multi-threaded tasks, zone-map skipping), validating that
//! results never change, and reports the slowdown each ablation causes per
//! query and per flight.
//!
//! Paper's findings to reproduce: block iteration off ≈ 1.2x; columnar off
//! ≈ 3.4x average (flight 2 ≈ 3.8x, flight 4 ≈ 2.0x); multithreading off
//! ≈ 2.4x average (flight 1 ≈ 1.2x, flight 4 ≈ 4.5x).

use clyde_bench::harness::{
    measure_with_obs, Ablation, Extrapolator, MeasureWhat, MeasurementConfig,
};
use clyde_bench::paper;
use clyde_bench::report::{render_table, speedup};
use clyde_dfs::ClusterSpec;
use std::sync::Arc;

fn main() {
    let args = clyde_bench::cli::figure("fig9_ablation");
    let sf = args.sf(0.02);
    let obs = args.obs();
    let config = MeasurementConfig {
        sf,
        ..MeasurementConfig::default()
    };
    eprintln!(
        "measuring all 13 SSB queries at SF {sf} under 5 feature configurations, validating results..."
    );
    let m = measure_with_obs(
        &config,
        MeasureWhat {
            hive: false,
            ablations: true,
        },
        Arc::clone(&obs),
    )
    .expect("measurement failed");
    args.write_trace(&obs);
    let ex = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, &m);

    let ablations = [
        Ablation::NoBlockIteration,
        Ablation::NoColumnar,
        Ablation::NoMultithreading,
        Ablation::NoZoneSkipping,
    ];
    let mut rows = Vec::new();
    // slowdown sums per (ablation, flight)
    let mut flight_sum = [[0.0f64; 5]; 4];
    let mut flight_n = [[0usize; 5]; 4];
    let mut zone_rows = Vec::new();
    for qm in &m.queries {
        let base = ex.clyde_time(qm).expect("baseline never OOMs");
        let mut cells = vec![qm.query.id.clone(), clyde_bench::report::secs(base)];
        let flight = paper::flight_of(&qm.query.id);
        for (ai, ab) in ablations.iter().enumerate() {
            let t = ex.ablation_time(qm, *ab).expect("ablations never OOM");
            let slowdown = t / base;
            cells.push(speedup(slowdown));
            flight_sum[ai][flight] += slowdown;
            flight_n[ai][flight] += 1;
        }
        rows.push(cells);

        // Zone-map pruning observed at measurement scale (the counters ride
        // the cost profile but are never priced — pruning shows up as fewer
        // scanned bytes in the baseline column instead).
        let c = qm.clyde.total_map_cost();
        if c.zone_checked > 0 {
            zone_rows.push(vec![
                qm.query.id.clone(),
                c.zone_checked.to_string(),
                c.zone_skipped.to_string(),
                format!(
                    "{:.0}%",
                    100.0 * c.zone_skipped as f64 / c.zone_checked as f64
                ),
            ]);
        }
    }

    println!("\nFigure 9: feature ablation, cluster A, SF1000 (slowdown vs all features on)\n");
    println!(
        "{}",
        render_table(
            &[
                "query",
                "baseline",
                "block-iter off",
                "columnar off",
                "multithreading off",
                "zone skip off",
            ],
            &rows,
        )
    );

    if !zone_rows.is_empty() {
        println!("zone-map pruning in the baseline (measurement scale):\n");
        println!(
            "{}",
            render_table(
                &["query", "groups checked", "skipped", "pruned"],
                &zone_rows
            )
        );
    }

    println!("per-flight average slowdowns:");
    for (ai, ab) in ablations.iter().enumerate() {
        let label = ab.label();
        let mut parts = Vec::new();
        let mut total = 0.0;
        let mut n = 0;
        for f in 1..=4 {
            if flight_n[ai][f] > 0 {
                let avg = flight_sum[ai][f] / flight_n[ai][f] as f64;
                parts.push(format!("flight{f} {avg:.1}x"));
                total += flight_sum[ai][f];
                n += flight_n[ai][f];
            }
        }
        println!(
            "  {label:<22} {}  overall {:.1}x",
            parts.join("  "),
            total / n as f64
        );
    }
    println!(
        "\npaper reports: block iteration off ≈ {:.1}x;",
        paper::ablation::BLOCK_ITERATION_AVG
    );
    println!(
        "               columnar off ≈ {:.1}x avg (flight2 {:.1}x, flight4 {:.1}x);",
        paper::ablation::COLUMNAR_AVG,
        paper::ablation::COLUMNAR_FLIGHT2,
        paper::ablation::COLUMNAR_FLIGHT4
    );
    println!(
        "               multithreading off ≈ {:.1}x avg (flight1 {:.1}x, flight4 {:.1}x)",
        paper::ablation::MULTITHREADING_AVG,
        paper::ablation::MULTITHREADING_FLIGHT1,
        paper::ablation::MULTITHREADING_FLIGHT4
    );
}
