//! Recovery-transparency properties: under any *survivable* seeded fault
//! plan, a job's output is byte-identical to the fault-free run, and equally
//! deterministic — same seed, same recovery, same answer.
//!
//! Survivable means the plan leaves at least one live node and, for
//! DFS-resident inputs, at least one checksum-clean replica of every block
//! (replication 3 with at most one death guarantees that; injected task
//! failures are attempt-scoped and recoverable by construction).

use clyde_common::obs::{JobHistory, TaskKind};
use clyde_common::{row, rowcodec, Datum, Obs, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_mapred::formats::{RowBinInputFormat, VecInputFormat};
use clyde_mapred::input::InputFormat;
use clyde_mapred::runner::{FnMapRunner, FnMapper, RowMapRunner};
use clyde_mapred::shuffle::FnReducer;
use clyde_mapred::{DatanodeDeath, Engine, FaultPlan, JobSpec, MapTaskContext};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn sum_job(input: Arc<dyn InputFormat>, faults: Option<FaultPlan>) -> JobSpec {
    let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: Row, ctx: &_| {
        ctx.emit(&[Datum::I64(v.at(0).as_i64().unwrap() % 4)], v);
        Ok(())
    }));
    let mut spec = JobSpec::new("fault-prop", input, Arc::new(mapper));
    spec.reducer = Some(Arc::new(FnReducer(
        |k: &Row, values: &[&Row], out: &mut Vec<Row>| {
            let s: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
            out.push(row![k.at(0).as_i64().unwrap(), s]);
            Ok(())
        },
    )));
    spec.num_reducers = 2;
    spec.faults = faults.map(Arc::new);
    spec
}

fn rows(n: i64) -> Vec<Row> {
    (1..=n).map(|i| row![i]).collect()
}

/// Build a plan from integer draws (the shim has no float strategies):
/// failure rate in [0, 1], up to `max_slow` slowed nodes, up to `max_dead`
/// distinct dead nodes, and a corruption count.
fn plan_from(seed: u64, rate_pct: u32, slow_n: usize, dead_n: usize, corrupt: u32) -> FaultPlan {
    let mut p = FaultPlan::new(seed);
    p.task_fail_rate = f64::from(rate_pct) / 100.0;
    p.slow_nodes = (0..slow_n).map(|i| (i, 1.5 + i as f64)).collect();
    p.datanode_deaths = (0..dead_n)
        .map(|i| DatanodeDeath {
            node: i,
            at_sim_s: (seed % 3) as f64,
        })
        .collect();
    p.corrupt_replicas = corrupt;
    p
}

fn run_mem(nodes: usize, faults: Option<FaultPlan>) -> Vec<Row> {
    let engine = Engine::new(Dfs::for_tests(nodes));
    let spec = sum_job(Arc::new(VecInputFormat::new(rows(12), 3)), faults);
    engine.run_job(&spec).unwrap().rows
}

/// A replication-3 cluster with the test rows stored as a DFS row-binary
/// file, so corruption and re-replication act on real blocks.
fn dfs_r3(nodes: usize) -> Arc<Dfs> {
    let dfs = Dfs::new(
        ClusterSpec::tiny(nodes),
        DfsOptions {
            block_size: 64,
            replication: 3,
            policy: Box::new(ColocatingPlacement),
        },
    );
    dfs.write_file("/in/part-00000", None, &rowcodec::write_rows(&rows(40)))
        .unwrap();
    dfs
}

fn run_dfs(dfs: &Arc<Dfs>, faults: Option<FaultPlan>) -> Vec<Row> {
    let engine = Engine::new(Arc::clone(dfs));
    let spec = sum_job(Arc::new(RowBinInputFormat::new("/in")), faults);
    engine.run_job(&spec).unwrap().rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Memory-resident input on a 3-node cluster: any plan that leaves one
    /// node alive (deaths capped at 2) recovers to the fault-free answer.
    #[test]
    fn any_survivable_plan_is_transparent_for_memory_input(
        seed in any::<u64>(),
        rate_pct in 0u32..101,
        slow_n in 0usize..3,
        dead_n in 0usize..3,
        corrupt in 0u32..8,
    ) {
        let clean = run_mem(3, None);
        let plan = plan_from(seed, rate_pct, slow_n, dead_n, corrupt);
        let faulted = run_mem(3, Some(plan.clone()));
        prop_assert_eq!(&faulted, &clean);
        // Same seed, same recovery path, same answer.
        let again = run_mem(3, Some(plan));
        prop_assert_eq!(again, faulted);
    }

    /// DFS-resident input at replication 3: corruption plus at most one
    /// death always leaves a clean replica, so recovery stays transparent
    /// even while the namenode re-replicates mid-job.
    #[test]
    fn any_survivable_plan_is_transparent_for_dfs_input(
        seed in any::<u64>(),
        rate_pct in 0u32..101,
        slow_n in 0usize..3,
        dead_n in 0usize..2,
        corrupt in 0u32..32,
    ) {
        let clean = run_dfs(&dfs_r3(4), None);
        let plan = plan_from(seed, rate_pct, slow_n, dead_n, corrupt);
        // Fresh identically-loaded cluster per run: fault plans mutate DFS
        // state (corruption, deaths), so runs must not share one.
        let faulted = run_dfs(&dfs_r3(4), Some(plan.clone()));
        prop_assert_eq!(&faulted, &clean);
        let again = run_dfs(&dfs_r3(4), Some(plan));
        prop_assert_eq!(again, faulted);
    }
}

/// A task that runs out of memory fails its job on its first attempt: no
/// node has more memory than the one it ran on, so a retry cannot succeed —
/// not even under a plan that would retry any other failure.
#[test]
fn oom_is_never_retried() {
    for faults in [None, Some(plan_from(7, 50, 0, 0, 0))] {
        let attempts = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&attempts);
        let runner = FnMapRunner(move |ctx: &MapTaskContext<'_>| {
            counted.fetch_add(1, Ordering::SeqCst);
            ctx.charge_memory_shared(1 << 40) // far beyond any node
        });
        let mut spec = JobSpec::new(
            "oom",
            Arc::new(VecInputFormat::new(rows(12), 1)),
            Arc::new(runner),
        );
        spec.faults = faults.map(Arc::new);
        let err = Engine::new(Dfs::for_tests(3)).run_job(&spec).unwrap_err();
        assert!(err.is_oom(), "{err}");
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "{err}");
    }
}

/// Every named CI-matrix plan is survivable on the matrix topology.
#[test]
fn all_named_plans_recover_on_the_matrix_topology() {
    let clean = run_dfs(&dfs_r3(4), None);
    for name in clyde_mapred::fault::NAMES {
        let plan = FaultPlan::named(name, 46).unwrap();
        let faulted = run_dfs(&dfs_r3(4), Some(plan));
        assert_eq!(faulted, clean, "plan `{name}` changed the answer");
    }
}

/// The failure detector reports, rather than hangs on, an unsurvivable plan.
#[test]
fn unsurvivable_plans_error_cleanly() {
    let mut plan = FaultPlan::new(9);
    plan.datanode_deaths = (0..3)
        .map(|node| DatanodeDeath {
            node,
            at_sim_s: 0.0,
        })
        .collect();
    let engine = Engine::new(Dfs::for_tests(3));
    let spec = sum_job(Arc::new(VecInputFormat::new(rows(12), 3)), Some(plan));
    let err = engine.run_job(&spec).unwrap_err();
    assert!(
        err.to_string().contains("no live node left to retry on"),
        "{err}"
    );
}

/// The history of `sum_job` over three one-task nodes, under `faults`.
fn history_under(faults: Option<FaultPlan>) -> JobHistory {
    let obs = Obs::enabled();
    let mut engine = Engine::new(Dfs::for_tests(3));
    engine.set_obs(Arc::clone(&obs));
    let spec = sum_job(Arc::new(VecInputFormat::new(rows(12), 3)), faults);
    engine.run_job(&spec).unwrap();
    obs.with_histories(|hs| hs[0].clone())
}

/// A slow node's swimlane is stretched by the same factor its stage band
/// was priced with: lanes and bands come off one schedule.
#[test]
fn slow_nodes_stretch_their_lanes_as_far_as_the_band() {
    let last_map_end = |h: &JobHistory| {
        h.lanes(TaskKind::Map)
            .iter()
            .map(|t| t.finish_s())
            .fold(0.0, f64::max)
    };
    let clean = history_under(None);

    // The CI plan: node 1 runs 3x slow, speculation armed. Whatever the
    // backup race decided, the last map lane (killed attempts included)
    // ends exactly where the map band does.
    let armed = history_under(FaultPlan::named("slow-node", 46));
    assert!(armed.speculative_attempts >= 1);
    assert_eq!(last_map_end(&armed), armed.setup_s + armed.map_s);

    // Speculation off, so the straggler's own attempt commits: its lane —
    // and the phase slices inside it — last 3x their fault-free length.
    let mut plan = FaultPlan::named("slow-node", 46).unwrap();
    plan.speculative_slowdown = f64::INFINITY;
    let slowed = history_under(Some(plan));
    assert_eq!(last_map_end(&slowed), slowed.setup_s + slowed.map_s);
    let on_node = |h: &JobHistory, node: usize| {
        let lanes = h.lanes(TaskKind::Map);
        let lane = lanes.iter().find(|t| t.node == node).unwrap();
        let phases_end = lane.phases.iter().map(|p| p.start_s + p.dur_s);
        (lane.dur_s, phases_end.fold(0.0, f64::max) - lane.start_s)
    };
    for node in 0..3 {
        let factor = if node == 1 { 3.0 } else { 1.0 };
        let (clean_dur, _) = on_node(&clean, node);
        let (dur, phases) = on_node(&slowed, node);
        assert_eq!(dur, factor * clean_dur, "node {node}");
        assert!(
            (phases - dur).abs() < 1e-9,
            "node {node}: phases end at {phases} of {dur}"
        );
    }
}
