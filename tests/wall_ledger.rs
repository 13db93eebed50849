//! The in-situ wall ledger of the Hive row path.
//!
//! Each map task attributes its measured wall time to `Scan` (opening the
//! split), `Emit` (the runner loop), `Shuffle` (the spill) or `Write` (a
//! map-only task's output), and a mapjoin task its table load to
//! `StateLoad`; each reduce task attributes the merge and reduce to
//! `Reduce` and its part commit to `Write`. The phases are per-task timer
//! readings, so they can never add up to more than the tasks' wall time,
//! and what they leave out is reported as the unattributed remainder. None
//! of it reaches the byte-compared profile artifact.

use clyde_bench::harness::MeasurementConfig;
use clyde_common::obs::{Phase, QueryProfile, DEFAULT_DRIFT_THRESHOLD_PCT};
use clyde_common::Obs;
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::query_by_id;
use std::sync::Arc;

fn phase_ns(phases: &[(Phase, u64)], phase: Phase) -> u64 {
    phases
        .iter()
        .filter(|(p, _)| *p == phase)
        .map(|(_, ns)| ns)
        .sum()
}

#[test]
fn hive_q21_phases_fit_inside_their_tasks_wall_time() {
    let (dfs, layout) = MeasurementConfig {
        sf: 0.008,
        ..MeasurementConfig::default()
    }
    .testbed(2, true)
    .unwrap();
    let q = query_by_id("Q2.1").unwrap();
    for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
        let obs = Obs::enabled();
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy).with_obs(Arc::clone(&obs));
        let result = hive.query(&q).unwrap();
        let label = strategy.label();
        for stage in &result.stages {
            let p = &stage.profile;
            let tasks: u64 = p
                .map_tasks
                .iter()
                .chain(&p.reduce_tasks)
                .map(|t| t.wall_ns)
                .sum();
            let phases: u64 = p.wall_phases.iter().map(|(_, ns)| ns).sum();
            assert!(
                phases <= tasks,
                "{label} {}: phases {phases} ns > tasks {tasks} ns",
                stage.name
            );
            let has = |phase| phase_ns(&p.wall_phases, phase) > 0;
            assert!(
                has(Phase::Scan) && has(Phase::Emit),
                "{label} {}",
                stage.name
            );
            if p.reduce_tasks.is_empty() {
                assert!(has(Phase::Write), "{label} {}: map-only write", stage.name);
            } else {
                assert!(has(Phase::Shuffle), "{label} {}: spill", stage.name);
                assert!(has(Phase::Reduce), "{label} {}: reduce", stage.name);
            }
            if strategy == JoinStrategy::MapJoin && stage.name.contains("-join-") {
                assert!(has(Phase::StateLoad), "{label} {}: table load", stage.name);
            }
        }

        // The explain-analyze text reports each job's remainder; the JSON
        // artifact carries neither wall values nor wall-only phase rows.
        let profile = obs.with_histories(|hs| {
            QueryProfile::from_histories("Q2.1", hs, 0.0, DEFAULT_DRIFT_THRESHOLD_PCT)
        });
        assert_eq!(profile.jobs.len(), result.stages.len());
        for job in &profile.jobs {
            let attributed: u64 = job.phases.iter().map(|p| p.wall_ns).sum();
            assert_eq!(
                attributed + job.wall_unattributed_ns(),
                job.wall_total_ns,
                "{label} {}",
                job.name
            );
        }
        let text = profile.render();
        assert_eq!(
            text.matches("unattributed to any phase").count(),
            profile.jobs.len(),
            "{text}"
        );
        let json = profile.to_json();
        assert!(!json.contains("wall"), "{json}");
        assert!(!json.contains("\"shuffle\":{\"model_s\""), "{json}");
    }
}

/// The `hive_chain` benchmark's system: two cluster-A workers, 8 MiB
/// blocks, replication 2, RCFile only, 8 000 rows per group, seed 7.
fn hive_chain_system(sf: f64) -> (Arc<clyde_dfs::Dfs>, clyde_ssb::loader::SsbLayout) {
    use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
    use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
    let dfs = Dfs::new(
        ClusterSpec {
            workers: 2,
            ..ClusterSpec::cluster_a()
        },
        DfsOptions {
            block_size: 8 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let opts = LoadOpts {
        rows_per_group: 8_000,
        cif: false,
        rcfile: true,
        text: false,
        cluster_by_date: true,
    };
    loader::load(&dfs, clyde_ssb::gen::SsbGen::new(sf, 7), &layout, &opts).unwrap();
    (dfs, layout)
}

/// The median of `xs`.
fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs.get(xs.len() / 2).copied().unwrap_or(0)
}

#[test]
#[ignore = "report: per-query wall phase split of both Hive plans at the hive_chain benchmark's SF 0.01"]
fn report_phase_split_at_sf_0_01() {
    const RUNS: usize = 30;
    let (dfs, layout) = hive_chain_system(0.01);
    println!("median over {RUNS} runs of each query's summed task wall time per phase, ms");
    for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy);
        for id in ["Q1.1", "Q2.1", "Q3.1", "Q4.1"] {
            let q = query_by_id(id).unwrap();
            hive.query(&q).unwrap();
            // Per run: the tasks' wall time, then each phase's.
            let mut runs: Vec<(u64, Vec<(Phase, u64)>)> = Vec::new();
            for _ in 0..RUNS {
                let result = hive.query(&q).unwrap();
                let mut tasks = 0;
                let mut phases: Vec<(Phase, u64)> = Vec::new();
                for stage in &result.stages {
                    let p = &stage.profile;
                    tasks += p
                        .map_tasks
                        .iter()
                        .chain(&p.reduce_tasks)
                        .map(|t| t.wall_ns)
                        .sum::<u64>();
                    phases.extend(&p.wall_phases);
                }
                runs.push((tasks, phases));
            }
            let ms = |ns: u64| ns as f64 / 1e6;
            let tasks = median(runs.iter().map(|(t, _)| *t).collect());
            let mut line = format!("{:>11} {id}: tasks {:.2}", strategy.label(), ms(tasks));
            for phase in Phase::all() {
                let ns = median(runs.iter().map(|(_, p)| phase_ns(p, *phase)).collect());
                if ns > 0 {
                    line += &format!(", {} {:.2}", phase.label(), ms(ns));
                }
            }
            let rest = median(
                runs.iter()
                    .map(|(t, p)| t.saturating_sub(p.iter().map(|(_, ns)| ns).sum()))
                    .collect(),
            );
            line += &format!(", unattributed {:.2}", ms(rest));
            println!("{line}");
        }
    }
}
