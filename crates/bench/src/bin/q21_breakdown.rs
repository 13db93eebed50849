//! Section 6.3's Q2.1 breakdown on cluster A, SF1000.
//!
//! The paper dissects query 2.1: Clydesdale took 215 s (27 s building the
//! three dimension hash tables, 164 s scanning/probing 10.8 GB per node at
//! 67 MB/s, <10 s final sort), while Hive's five-stage mapjoin plan took
//! 15,142 s (2,640 / 2,040 / 9,180 / 720 / 19 s) and the repartition plan
//! 17,700 s.
//!
//! This binary prints the same decomposition as a *view over recorded
//! spans*: the extrapolated SF1000 job is turned into a [`JobHistory`],
//! recorded into the span tree, and the table's build/scan rows are read
//! back from the span durations — exactly what a Perfetto user would see.
//! Pass `--trace <out.json>` to write that span tree (plus every measured
//! job's timeline) as Chrome trace JSON.
//!
//! [`JobHistory`]: clyde_common::obs::JobHistory

use clyde_bench::harness::{measure_with_obs, Extrapolator, MeasureWhat, MeasurementConfig};
use clyde_bench::paper::cluster_a::q21;
use clyde_bench::report::{render_table, secs};
use clyde_common::obs::{SpanKind, TaskKind};
use clyde_common::Obs;
use clyde_dfs::ClusterSpec;
use clyde_hive::JoinStrategy;
use clyde_mapred::job_history;
use std::sync::Arc;

fn main() {
    let args = clyde_bench::cli::figure("q21_breakdown");
    let sf = args.sf(0.02);
    // The breakdown below is derived from spans, so this binary always
    // records; `--trace` additionally writes the span log out.
    let obs = Obs::enabled();
    let config = MeasurementConfig {
        sf,
        ..MeasurementConfig::default()
    };
    eprintln!("measuring Q2.1 (and the other 12 queries) at SF {sf}...");
    let m = measure_with_obs(
        &config,
        MeasureWhat {
            hive: true,
            ablations: false,
        },
        Arc::clone(&obs),
    )
    .expect("measurement failed");
    let cluster = ClusterSpec::cluster_a();
    let ex = Extrapolator::new(cluster.clone(), 1000.0, &m);
    let qm = m
        .queries
        .iter()
        .find(|q| q.query.id == "Q2.1")
        .expect("Q2.1 measured");

    // ---- Clydesdale side: extrapolate to SF1000, record the job history,
    // and read the breakdown back out of the recorded spans. ----
    let mut e = ex.extrapolate_one_per_node(&qm.query, &qm.clyde);
    e.name = "clydesdale-Q2.1@SF1000".into();
    let params = &ex.params;
    let sched = e
        .schedule(params, &cluster, 0.0)
        .expect("clydesdale fits in memory");
    let hist = job_history(&e, params, &cluster, &sched);
    let job = obs.record_job(hist.clone()).expect("obs is enabled");
    let spans = obs.spans().spans();
    // Longest per-task total of a phase, in seconds — the per-node number
    // the paper quotes (every node runs one map task).
    let phase_max_s = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.pid == job.pid && s.kind == SpanKind::Phase && s.name == name)
            .map(|s| s.dur_us)
            .max()
            .unwrap_or(0) as f64
            / 1e6
    };
    let build_s = phase_max_s("hash-build");
    let scan_s = phase_max_s("scan");
    let task = &e.map_tasks[0].cost;
    let scan_gb = (task.local_bytes + task.remote_bytes) as f64 / (1u64 << 30) as f64;
    let bw = params.hdfs.effective_read_bw(&cluster.node);
    let total = ex.clyde_time(qm).unwrap();

    println!("\n=== Q2.1 on cluster A, SF1000 ===\n");
    println!("Clydesdale (one multi-threaded map task per node, from recorded spans):");
    println!(
        "{}",
        render_table(
            &["component", "this repro", "paper"],
            &[
                vec![
                    "hash-table build (per node)".into(),
                    secs(build_s),
                    secs(q21::CLYDE_BUILD_S),
                ],
                vec![
                    format!("scan+probe ({scan_gb:.1} GB/node)"),
                    secs(scan_s),
                    secs(q21::CLYDE_PROBE_S),
                ],
                vec![
                    "per-node scan rate".into(),
                    format!("{:.0} MB/s", bw / (1 << 20) as f64),
                    format!("{:.0} MB/s", q21::CLYDE_SCAN_MB_S),
                ],
                vec![
                    "reduce + final sort + overhead".into(),
                    secs(total - build_s - scan_s),
                    format!("<{}s + overhead", q21::CLYDE_SORT_S_MAX),
                ],
                vec!["TOTAL".into(), secs(total), secs(q21::CLYDE_TOTAL_S)],
            ],
        )
    );
    if let Some(st) = hist.stragglers(TaskKind::Map) {
        println!(
            "map tasks: {} lanes, median {} max {} (skew {:.2}x, slowest task {} on node {})",
            st.tasks,
            secs(st.median_s),
            secs(st.max_s),
            st.time_skew,
            st.straggler_task,
            st.straggler_node
        );
    }
    let measured = qm.clyde.total_map_cost();
    println!(
        "zone maps: {} row groups checked, {} skipped (Q2.1 carries no fact or date range \
         predicate, so every group must be scanned; compare flight 1 in fig9_ablation)",
        measured.zone_checked, measured.zone_skipped
    );

    // ---- Hive mapjoin stages. ----
    println!("Hive mapjoin plan (five stages):");
    let stage_names = [
        "join date",
        "join part",
        "join supplier",
        "group by",
        "order by",
    ];
    let mut rows = Vec::new();
    let mut our_total = 0.0;
    for (i, name) in stage_names.iter().enumerate() {
        let t = ex
            .hive_stage_time(&m, qm, JoinStrategy::MapJoin, i)
            .expect("mapjoin Q2.1 fits on A");
        our_total += t;
        rows.push(vec![
            (*name).to_string(),
            secs(t),
            secs(q21::HIVE_MAPJOIN_STAGES_S[i]),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        secs(our_total),
        secs(q21::HIVE_MAPJOIN_TOTAL_S),
    ]);
    println!("{}", render_table(&["stage", "this repro", "paper"], &rows));

    // ---- Hive repartition. ----
    let rp = ex.hive_time(&m, qm, JoinStrategy::Repartition).unwrap();
    println!(
        "Hive repartition plan: {} (paper: {})",
        secs(rp),
        secs(q21::HIVE_REPART_TOTAL_S)
    );
    println!(
        "\nspeedups: vs mapjoin {:.1}x (paper {:.1}x), vs repartition {:.1}x (paper {:.1}x)",
        our_total / total,
        q21::HIVE_MAPJOIN_TOTAL_S / q21::CLYDE_TOTAL_S,
        rp / total,
        q21::HIVE_REPART_TOTAL_S / q21::CLYDE_TOTAL_S
    );
    args.write_trace(&obs);
}
