//! Guardrails on the reproduced evaluation: if a change to any crate breaks
//! the *shape* of the paper's results, these tests fail.
//!
//! "Shape" means the qualitative claims of Section 6, with generous margins
//! (absolute numbers depend on calibration constants, recorded in
//! EXPERIMENTS.md):
//!
//! * Clydesdale beats both Hive plans on every query, on both clusters;
//! * cluster-A speedups are larger than cluster-B speedups (fixed per-node
//!   costs matter more when per-node work shrinks);
//! * Hive's mapjoin plan OOMs on cluster A for exactly {Q3.1, Q4.1, Q4.2,
//!   Q4.3} and completes everywhere on cluster B;
//! * each ablation slows Clydesdale down without changing answers, with the
//!   paper's flight ordering (columnar-off hurts narrow-scan flights most;
//!   multithreading-off hurts big-dimension flights most);
//! * Q2.1 on cluster A lands near the paper's 215 s with a build phase near
//!   27 s.

use clyde_bench::harness::{measure, Ablation, Extrapolator, MeasureWhat, MeasurementConfig};
use clyde_bench::paper;
use clyde_dfs::ClusterSpec;
use clyde_hive::JoinStrategy;
use std::sync::OnceLock;

fn measurements() -> &'static clyde_bench::harness::Measurements {
    static M: OnceLock<clyde_bench::harness::Measurements> = OnceLock::new();
    M.get_or_init(|| {
        measure(
            &MeasurementConfig {
                sf: 0.01,
                seed: 46,
                workers: 2,
                rows_per_group: 4_000,
            },
            MeasureWhat {
                hive: true,
                ablations: true,
            },
        )
        .expect("measurement failed")
    })
}

#[test]
fn clydesdale_wins_everywhere_and_more_on_cluster_a() {
    let m = measurements();
    let on_a = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, m);
    let on_b = Extrapolator::new(ClusterSpec::cluster_b(), 1000.0, m);
    let mut a_speedups = Vec::new();
    let mut b_speedups = Vec::new();
    for qm in &m.queries {
        let ca = on_a.clyde_time(qm).unwrap();
        let cb = on_b.clyde_time(qm).unwrap();
        assert!(cb < ca, "{}: cluster B must be faster", qm.query.id);
        for strategy in [JoinStrategy::Repartition, JoinStrategy::MapJoin] {
            if let Ok(t) = on_a.hive_time(m, qm, strategy) {
                assert!(t > ca, "{}: hive beat clydesdale on A", qm.query.id);
                a_speedups.push(t / ca);
            }
            if let Ok(t) = on_b.hive_time(m, qm, strategy) {
                assert!(t > cb, "{}: hive beat clydesdale on B", qm.query.id);
                b_speedups.push(t / cb);
            }
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (avg_a, avg_b) = (avg(&a_speedups), avg(&b_speedups));
    // Paper: 38x on A, 11.1x on B. Accept a factor-of-two band.
    assert!(
        (paper::cluster_a::SPEEDUP_AVG / 2.0..paper::cluster_a::SPEEDUP_AVG * 2.0).contains(&avg_a),
        "cluster A average speedup {avg_a:.1} out of band"
    );
    assert!(
        (paper::cluster_b::SPEEDUP_AVG / 2.0..paper::cluster_b::SPEEDUP_AVG * 2.0).contains(&avg_b),
        "cluster B average speedup {avg_b:.1} out of band"
    );
    assert!(avg_a > avg_b, "speedup must shrink on the bigger cluster");
}

#[test]
fn mapjoin_oom_exactly_reproduces_the_papers_failure_set() {
    let m = measurements();
    let on_a = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, m);
    let on_b = Extrapolator::new(ClusterSpec::cluster_b(), 1000.0, m);
    let failed: Vec<&str> = m
        .queries
        .iter()
        .filter(|qm| on_a.hive_time(m, qm, JoinStrategy::MapJoin).is_err())
        .map(|qm| qm.query.id.as_str())
        .collect();
    assert_eq!(failed, paper::cluster_a::MAPJOIN_OOM.to_vec());
    for qm in &m.queries {
        assert!(
            on_b.hive_time(m, qm, JoinStrategy::MapJoin).is_ok(),
            "{} must complete on cluster B",
            qm.query.id
        );
        assert!(
            on_a.hive_time(m, qm, JoinStrategy::Repartition).is_ok(),
            "{} repartition never OOMs",
            qm.query.id
        );
    }
}

#[test]
fn q21_breakdown_lands_near_the_paper() {
    let m = measurements();
    let ex = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, m);
    let qm = m.queries.iter().find(|q| q.query.id == "Q2.1").unwrap();
    let total = ex.clyde_time(qm).unwrap();
    assert!(
        (150.0..320.0).contains(&total),
        "Q2.1 total {total:.0}s vs paper 215s"
    );
    // Build phase ≈ 27 s (one single-threaded pass over 4.0 M dim rows).
    let e = ex.extrapolate_one_per_node(&qm.query, &qm.clyde);
    let build = e.map_tasks[0].cost.build_rows as f64 / ex.params.build_rows_per_s;
    assert!(
        (15.0..40.0).contains(&build),
        "build {build:.1}s vs paper 27s"
    );
}

#[test]
fn ablation_ordering_matches_figure_9() {
    let m = measurements();
    let ex = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, m);
    let mut per_flight = [[0.0f64; 3]; 5];
    let mut counts = [0usize; 5];
    for qm in &m.queries {
        let base = ex.clyde_time(qm).unwrap();
        let flight = paper::flight_of(&qm.query.id);
        for (i, ab) in [
            Ablation::NoBlockIteration,
            Ablation::NoColumnar,
            Ablation::NoMultithreading,
        ]
        .iter()
        .enumerate()
        {
            let slow = ex.ablation_time(qm, *ab).unwrap() / base;
            assert!(
                slow > 0.95,
                "{}: {} should not speed things up ({slow:.2}x)",
                qm.query.id,
                ab.label()
            );
            per_flight[flight][i] += slow;
        }
        counts[flight] += 1;
    }
    let avg = |f: usize, i: usize| per_flight[f][i] / counts[f] as f64;
    // Columnar-off hurts flight 2 (narrow scans) more than flight 4.
    assert!(avg(2, 1) > avg(4, 1), "columnar ablation ordering");
    // Multithreading-off hurts flight 4 (four dimensions) more than flight 1.
    assert!(avg(4, 2) > avg(1, 2), "multithreading ablation ordering");
    // Block iteration off is a mild, broad penalty.
    let overall_block: f64 = (1..=4).map(|f| avg(f, 0)).sum::<f64>() / 4.0;
    assert!(
        (1.0..1.8).contains(&overall_block),
        "block-iteration ablation {overall_block:.2}x vs paper ~1.2x"
    );
}

#[test]
fn storage_sizes_have_the_papers_ordering() {
    use clyde_dfs::{ColocatingPlacement, Dfs, DfsOptions};
    use clyde_ssb::gen::SsbGen;
    use clyde_ssb::loader::{self, SsbLayout};
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let ds = loader::load(
        &dfs,
        SsbGen::new(0.01, 46),
        &SsbLayout::default(),
        &loader::LoadOpts {
            rows_per_group: 5_000,
            cif: true,
            rcfile: true,
            text: true,
            cluster_by_date: true,
        },
    )
    .unwrap();
    // Paper: 600 GB text > 558 GB RCFile > 334 GB Multi-CIF. Our CIF and
    // RCFile share the column encodings, so their sizes are within a few
    // percent of each other (CIF pays per-file chunk headers; RCFile pays a
    // denser footer), while text is much larger than both.
    assert!(ds.fact_bytes_text > ds.fact_bytes_rc);
    assert!(ds.fact_bytes_text > ds.fact_bytes_cif);
    let rc_cif = ds.fact_bytes_rc as f64 / ds.fact_bytes_cif as f64;
    assert!((0.9..1.1).contains(&rc_cif), "rc/cif ratio {rc_cif:.3}");
    // Text-to-binary ratio in the paper is 600/334 ≈ 1.8; ours should be
    // in the same regime (1.3 .. 3.0).
    let ratio = ds.fact_bytes_text as f64 / ds.fact_bytes_cif as f64;
    assert!((1.3..3.0).contains(&ratio), "text/cif ratio {ratio:.2}");
}
