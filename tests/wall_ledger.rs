//! The in-situ wall ledger of the Hive row path and of Clydesdale.
//!
//! Each Hive map task attributes its measured wall time to `Scan` (opening
//! the split), `Emit` (the runner loop), `Shuffle` (the spill) or `Write` (a
//! map-only task's output), and a mapjoin task its table load to
//! `StateLoad`; each reduce task attributes the merge and reduce to
//! `Reduce` and its part commit to `Write`. A Clydesdale map task splits
//! into `HashBuild` (the dimension tables), `Scan` (the part opens of the
//! morsel source: zone check, chunk reads, decode), `Probe` (the rest of the
//! probe fan-out: the kernel) and `Emit`. The phases are per-task timer
//! readings, so they can never add up to more than the tasks' wall time,
//! and what they leave out is reported as the unattributed remainder. A
//! mapjoin stage's client-side table build runs outside every task: it is
//! the job's setup wall, not a task phase. None of it reaches the
//! byte-compared profile artifact.

use clyde_bench::harness::MeasurementConfig;
use clyde_common::obs::{Phase, QueryProfile};
use clyde_common::Obs;
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::query_by_id;
use clydesdale::Clydesdale;
use std::sync::Arc;

/// Wall nanoseconds per phase, as `JobProfile::wall_phases` lists them.
type Phases = Vec<(Phase, u64)>;

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
                assert!(p.client_build_wall_ns > 0, "{label} {}: build", stage.name);
            } else {
                assert_eq!(p.client_build_wall_ns, 0, "{label} {}", stage.name);
            }
        }

        // The explain-analyze text reports each job's remainder; the JSON
        // artifact carries neither wall values nor wall-only phase rows.
        let profile = obs.with_histories(|hs| QueryProfile::from_histories("Q2.1", hs, 0.0));
        assert_eq!(profile.jobs.len(), result.stages.len());
        for (job, stage) in profile.jobs.iter().zip(&result.stages) {
            let setup = job.stages.iter().find(|s| s.name == "setup").unwrap();
            assert_eq!(setup.wall_ns, stage.profile.client_build_wall_ns);
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

#[test]
fn clydesdale_phases_fit_inside_their_tasks_wall_time() {
    let (dfs, layout) = MeasurementConfig {
        sf: 0.008,
        ..MeasurementConfig::default()
    }
    .testbed(2, false)
    .unwrap();
    for id in ["Q1.2", "Q3.1"] {
        let q = query_by_id(id).unwrap();
        let obs = Obs::enabled();
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_obs(Arc::clone(&obs));
        let result = clyde.query(&q).unwrap();
        let p = &result.profile;
        let tasks: u64 = p
            .map_tasks
            .iter()
            .chain(&p.reduce_tasks)
            .map(|t| t.wall_ns)
            .sum();
        let phases: u64 = p.wall_phases.iter().map(|(_, ns)| ns).sum();
        assert!(
            phases <= tasks,
            "{id}: phases {phases} ns > tasks {tasks} ns"
        );
        for phase in [Phase::HashBuild, Phase::Scan, Phase::Probe, Phase::Emit] {
            assert!(phase_ns(&p.wall_phases, phase) > 0, "{id}: {phase:?}");
        }
        let profile = obs.with_query_profiles(|ps| ps.last().cloned()).unwrap();
        let json = profile.to_json();
        assert!(!json.contains("wall"), "{json}");
    }
}

/// The `hive_chain` benchmark's system: two cluster-A workers, 8 MiB
/// blocks, replication 2, RCFile only, 8 000 rows per group, seed 7.
fn hive_chain_system(sf: f64) -> (Arc<clyde_dfs::Dfs>, clyde_ssb::loader::SsbLayout) {
    bench_system(sf, 7, false)
}

/// The repo benchmark's system: two cluster-A workers, 8 MiB blocks,
/// replication 2, 8 000 rows per group, date-clustered; RCFile only for
/// the Hive workload, CIF only for the Clydesdale ones.
fn bench_system(
    sf: f64,
    seed: u64,
    cif: bool,
) -> (Arc<clyde_dfs::Dfs>, clyde_ssb::loader::SsbLayout) {
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
        cif,
        rcfile: !cif,
        text: false,
        cluster_by_date: true,
    };
    loader::load(&dfs, clyde_ssb::gen::SsbGen::new(sf, seed), &layout, &opts).unwrap();
    (dfs, layout)
}

#[test]
#[ignore = "report: per-query wall phase split of Clydesdale on the clyde_scan benchmark's system"]
fn report_clydesdale_phase_split_at_sf_0_2() {
    const RUNS: usize = 30;
    let (dfs, layout) = bench_system(0.2, 46, true);
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_host_threads(1);
    clyde.warm_dimension_cache().unwrap();
    println!("median over {RUNS} runs of each query's op and summed task wall time per phase, ms");
    for id in ["Q1.1", "Q1.2", "Q1.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4"] {
        let q = query_by_id(id).unwrap();
        clyde.query(&q).unwrap();
        // Per run: the op's wall time, the tasks', then each phase's.
        let mut runs: Vec<(u64, u64, Phases)> = Vec::new();
        for _ in 0..RUNS {
            let op = clyde_common::obs::WallTimer::start();
            let result = clyde.query(&q).unwrap();
            let op_ns = op.elapsed_ns();
            let p = &result.profile;
            let tasks = p
                .map_tasks
                .iter()
                .chain(&p.reduce_tasks)
                .map(|t| t.wall_ns)
                .sum::<u64>();
            runs.push((op_ns, tasks, p.wall_phases.clone()));
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let op = median(runs.iter().map(|(op, _, _)| *op).collect());
        let tasks = median(runs.iter().map(|(_, t, _)| *t).collect());
        let mut line = format!("{id}: op {:.3}, tasks {:.3}", ms(op), ms(tasks));
        for phase in Phase::all() {
            let ns = median(runs.iter().map(|(_, _, p)| phase_ns(p, *phase)).collect());
            if ns > 0 {
                line += &format!(", {} {:.3}", phase.label(), ms(ns));
            }
        }
        let rest = median(
            runs.iter()
                .map(|(_, t, p)| t.saturating_sub(p.iter().map(|(_, ns)| ns).sum()))
                .collect(),
        );
        line += &format!(", unattributed {:.3}", ms(rest));
        println!("{line}");
    }
}

/// The median of `xs`.
fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs.get(xs.len() / 2).copied().unwrap_or(0)
}

/// The wall time of a job's waves on their slowest nodes: per wave (map,
/// then reduce), the most any one node's tasks took, summed. Each node
/// runs its tasks of a wave one after another, and the waves do not
/// overlap, so this is the part of the job's elapsed time spent inside
/// tasks; a reduce task's time includes its part commit.
fn slowest_nodes_ns(p: &clyde_mapred::JobProfile) -> u64 {
    [&p.map_tasks, &p.reduce_tasks]
        .iter()
        .map(|wave| {
            let mut per_node: Vec<(usize, u64)> = Vec::new();
            for t in wave.iter() {
                match per_node.iter_mut().find(|(n, _)| *n == t.node.0) {
                    Some((_, ns)) => *ns += t.wall_ns,
                    None => per_node.push((t.node.0, t.wall_ns)),
                }
            }
            per_node.iter().map(|(_, ns)| *ns).max().unwrap_or(0)
        })
        .sum()
}

#[test]
#[ignore = "report: per-query wall phase split of both Hive plans at the hive_chain benchmark's SF 0.01"]
fn report_phase_split_at_sf_0_01() {
    const RUNS: usize = 30;
    let (dfs, layout) = hive_chain_system(0.01);
    println!(
        "median over {RUNS} runs of each query's op wall time, its time outside tasks (op \
         minus each wave's slowest node), the mapjoin table builds within it, and summed \
         task wall time per phase, ms"
    );
    for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy);
        for id in ["Q1.1", "Q2.1", "Q3.1", "Q4.1"] {
            let q = query_by_id(id).unwrap();
            hive.query(&q).unwrap();
            // Per run: the op's wall time, its slowest nodes' task time,
            // the tasks' wall time, each phase's, then the table builds'.
            let mut runs: Vec<(u64, u64, u64, Phases, u64)> = Vec::new();
            for _ in 0..RUNS {
                let op = clyde_common::obs::WallTimer::start();
                let result = hive.query(&q).unwrap();
                let op_ns = op.elapsed_ns();
                let mut slowest = 0;
                let mut tasks = 0;
                let mut phases: Phases = Vec::new();
                let mut builds = 0;
                for stage in &result.stages {
                    let p = &stage.profile;
                    builds += p.client_build_wall_ns;
                    slowest += slowest_nodes_ns(p);
                    tasks += p
                        .map_tasks
                        .iter()
                        .chain(&p.reduce_tasks)
                        .map(|t| t.wall_ns)
                        .sum::<u64>();
                    phases.extend(&p.wall_phases);
                }
                runs.push((op_ns, slowest, tasks, phases, builds));
            }
            let ms = |ns: u64| ns as f64 / 1e6;
            let op = median(runs.iter().map(|r| r.0).collect());
            let outside = median(runs.iter().map(|r| r.0.saturating_sub(r.1)).collect());
            let tasks = median(runs.iter().map(|r| r.2).collect());
            let builds = median(runs.iter().map(|r| r.4).collect());
            let mut line = format!(
                "{:>11} {id}: op {:.2}, outside tasks {:.2} (table builds {:.2}), tasks {:.2}",
                strategy.label(),
                ms(op),
                ms(outside),
                ms(builds),
                ms(tasks)
            );
            for phase in Phase::all() {
                let ns = median(runs.iter().map(|r| phase_ns(&r.3, *phase)).collect());
                if ns > 0 {
                    line += &format!(", {} {:.2}", phase.label(), ms(ns));
                }
            }
            let rest = median(
                runs.iter()
                    .map(|r| r.2.saturating_sub(r.3.iter().map(|(_, ns)| ns).sum()))
                    .collect(),
            );
            line += &format!(", unattributed {:.2}", ms(rest));
            println!("{line}");
        }
    }
}
