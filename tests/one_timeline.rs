//! One model of when tasks run: the slot simulator
//! (`clyde_mapred::scheduler::interleave`). A solo job's price, its
//! swimlanes, and what the job server lays out for the same job alone are
//! all read off that simulator, so they cannot disagree — for any of the 13
//! SSB queries on Clydesdale's one-task-per-node jobs. Hive's
//! many-tasks-per-slot stages run as one chain on one clock: each stage
//! starts where the previous one ended, and its lanes tile its bands.

use clyde_common::obs::{JobHistory, TaskKind, TaskLane};
use clyde_common::{row, ClydeError, Datum, Obs, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions, NodeId};
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::formats::VecInputFormat;
use clyde_mapred::runner::{FnMapper, RowMapRunner};
use clyde_mapred::scheduler::{interleave, JobSchedule, Placement, SimJob};
use clyde_mapred::shuffle::FnReducer;
use clyde_mapred::{
    CostParams, Engine, JobProfile, JobServer, JobSpec, SchedPolicy, ServerConfig, TaskCost,
    TaskProfile,
};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::all_queries;
use clydesdale::Clydesdale;
use proptest::prelude::*;
use std::sync::Arc;

/// Three nodes, two map slots and one reduce slot each.
fn cluster() -> Arc<Dfs> {
    Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    )
}

fn load(dfs: &Arc<Dfs>) -> SsbLayout {
    let layout = SsbLayout::default();
    loader::load(
        dfs,
        SsbGen::new(0.005, 46),
        &layout,
        &loader::LoadOpts {
            rows_per_group: 2_000,
            cif: true,
            rcfile: true,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    layout
}

fn config(policy: SchedPolicy) -> ServerConfig {
    ServerConfig {
        policy,
        ..ServerConfig::default()
    }
}

/// Simulated seconds are sums of the same terms in different orders; allow
/// for that and nothing more.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Lanes never overlap on a (kind, node, slot), none ends after its stage
/// band, and each band ends exactly where its last lane does.
fn assert_lanes_tile_the_bands(h: &JobHistory) {
    let map_end = h.t0_s + h.setup_s + h.map_s;
    let reduce_end = map_end + h.shuffle_s + h.reduce_s;
    for (kind, band_end) in [(TaskKind::Map, map_end), (TaskKind::Reduce, reduce_end)] {
        let mut lanes = h.lanes(kind);
        if lanes.is_empty() {
            continue;
        }
        let last = lanes.iter().map(|t| t.finish_s()).fold(0.0, f64::max);
        assert!(
            close(last, band_end),
            "{}: last {kind:?} lane ends at {last}, its band at {band_end}",
            h.name
        );
        lanes.sort_by(|a, b| {
            (a.node, a.slot)
                .cmp(&(b.node, b.slot))
                .then(a.start_s.total_cmp(&b.start_s))
        });
        for w in lanes.windows(2) {
            if (w[0].node, w[0].slot) == (w[1].node, w[1].slot) {
                assert!(
                    w[1].start_s >= w[0].finish_s() || close(w[1].start_s, w[0].finish_s()),
                    "{}: {kind:?} lanes overlap on node {} slot {}",
                    h.name,
                    w[0].node,
                    w[0].slot
                );
            }
        }
    }
}

fn assert_same_lanes(a: &[TaskLane], b: &[TaskLane], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lane count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.kind, x.index, x.node, x.slot, x.dur_s.to_bits()),
            (y.kind, y.index, y.node, y.slot, y.dur_s.to_bits()),
            "{what}"
        );
        assert!(
            close(x.start_s, y.start_s),
            "{what}: {} vs {}",
            x.start_s,
            y.start_s
        );
    }
}

/// What the job server hands the simulator for this job alone at t = 0,
/// rebuilt from the published history.
fn lone_sim_job(h: &JobHistory) -> SimJob {
    let tasks =
        |kind| -> Vec<(usize, f64)> { h.lanes(kind).iter().map(|t| (t.node, t.dur_s)).collect() };
    SimJob {
        tenant: 0,
        weight: 1.0,
        arrival_s: 0.0,
        setup_s: h.setup_s,
        map_tasks: tasks(TaskKind::Map),
        map_cap_per_node: h.map_concurrency,
        task_mem: 0,
        shuffle_s: h.shuffle_s,
        reduce_tasks: tasks(TaskKind::Reduce),
        overhead_s: h.overhead_s,
    }
}

/// A solo history is a fixed point of the simulator: scheduling the same
/// tasks alone under any policy finishes at the priced total and reproduces
/// every lane.
fn assert_solo_equals_lone_schedule(h: &JobHistory, cluster: &ClusterSpec) {
    let job = lone_sim_job(h);
    for policy in SchedPolicy::all() {
        let s = &interleave(std::slice::from_ref(&job), cluster, policy).unwrap()[0];
        assert!(
            close(s.finish_s, h.total_s()),
            "{} under {}: scheduled finish {} != priced total {}",
            h.name,
            policy.label(),
            s.finish_s,
            h.total_s()
        );
        let placed: Vec<&Placement> = s.map.iter().chain(&s.reduce).collect();
        assert_eq!(placed.len(), h.tasks.len());
        for (p, lane) in placed.iter().zip(&h.tasks) {
            assert_eq!((p.node, p.slot), (lane.node, lane.slot), "{}", h.name);
            assert!(close(p.start_s, lane.start_s), "{}", h.name);
        }
    }
}

#[test]
fn every_ssb_job_prices_and_draws_off_one_schedule() {
    let dfs = cluster();
    let layout = load(&dfs);
    let spec = dfs.cluster().clone();
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let hives = [JoinStrategy::MapJoin, JoinStrategy::Repartition].map(|strategy| {
        let obs = Obs::enabled();
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy).with_obs(Arc::clone(&obs));
        (hive, obs)
    });
    let mut multi_wave_stages = 0;

    for q in all_queries() {
        // Clydesdale solo, then alone through the job server under every
        // policy: same finish, same lanes.
        let seen = obs.with_histories(|hs| hs.len());
        let solo = clyde.query(&q).unwrap();
        let solo_hist = obs.with_histories(|hs| hs[seen].clone());
        assert!(close(solo.cost.total_s(), solo_hist.total_s()));
        assert_lanes_tile_the_bands(&solo_hist);
        assert_solo_equals_lone_schedule(&solo_hist, &spec);
        for policy in SchedPolicy::all() {
            let mut srv = clyde.serve(config(policy));
            srv.submit("solo", 0.0, &q).unwrap().unwrap();
            let served = srv.drain().unwrap().remove(0);
            assert_eq!(served.rows, solo.rows);
            assert!(
                close(served.finish_s - served.final_sort_s, solo.cost.total_s()),
                "{} under {}: served finish {} != solo total {}",
                q.id,
                policy.label(),
                served.finish_s - served.final_sort_s,
                solo.cost.total_s()
            );
            let served_hist = obs.with_histories(|hs| hs.last().cloned().unwrap());
            assert_lanes_tile_the_bands(&served_hist);
            assert_same_lanes(&served_hist.tasks, &solo_hist.tasks, &q.id);
        }

        // Every Hive stage, both plans: one chain from t = 0 to the
        // query's total, each stage starting where the previous one ended.
        for (hive, obs) in &hives {
            let seen = obs.with_histories(|hs| hs.len());
            let result = hive.query(&q).unwrap();
            obs.with_histories(|hs| {
                let stages = &hs[seen..];
                assert_eq!(stages.len(), result.stages.len());
                let mut end_s = 0.0;
                for (h, stage) in stages.iter().zip(&result.stages) {
                    assert_eq!(
                        h.t0_s, end_s,
                        "{} starts where its predecessor ends",
                        h.name
                    );
                    end_s = h.end_s();
                    assert!(close(stage.cost.total_s(), h.total_s()));
                    assert_lanes_tile_the_bands(h);
                    let busiest = (0..spec.num_workers())
                        .map(|n| {
                            h.lanes(TaskKind::Map)
                                .iter()
                                .filter(|t| t.node == n)
                                .count()
                        })
                        .max()
                        .unwrap_or(0);
                    if busiest % spec.map_slots as usize != 0 {
                        multi_wave_stages += 1;
                    }
                }
                assert_eq!(end_s, result.total_s(), "{} ends at its total", q.id);
            });
        }
    }
    // The case a wave formula gets wrong: a node whose task count is not a
    // multiple of its slots.
    assert!(
        multi_wave_stages > 0,
        "no Hive stage exercised a ragged wave"
    );
}

fn ragged_job(splits: usize) -> JobSpec {
    let rows: Vec<Row> = (1..=70i64).map(|i| row![i]).collect();
    let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
        ctx.emit(&[Datum::I64(v.at(0).as_i64().unwrap() % 3)], v.values());
        Ok(())
    }));
    let mut spec = JobSpec::new(
        "ragged",
        Arc::new(VecInputFormat::new(rows, splits)),
        Arc::new(mapper),
    );
    spec.reducer = Some(Arc::new(FnReducer(
        |k: &Row, values: &[&Row], out: &mut Vec<Row>| {
            let s: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
            out.push(row![k.at(0).as_i64().unwrap(), s]);
            Ok(())
        },
    )));
    spec.num_reducers = 4;
    spec
}

/// A Hive-shaped job through the real server: seven map tasks over three
/// two-slot nodes (3 + 2 + 2) and four reducers over three one-slot nodes,
/// so both stages need a ragged second wave.
#[test]
fn a_ragged_job_drained_alone_is_its_solo_run() {
    let obs = Obs::enabled();
    let mut engine = Engine::new(cluster());
    engine.set_obs(Arc::clone(&obs));
    let solo = engine.run_job(&ragged_job(7)).unwrap();
    let solo_hist = obs.with_histories(|hs| hs[0].clone());
    assert_lanes_tile_the_bands(&solo_hist);
    let waves = solo_hist
        .lanes(TaskKind::Map)
        .iter()
        .filter(|t| t.node == 0 && t.start_s > solo_hist.setup_s)
        .count();
    assert_eq!(waves, 1, "node 0's third task waits for a slot");
    for policy in SchedPolicy::all() {
        let mut srv = JobServer::new(&engine, config(policy));
        srv.submit("solo", 0.0, ragged_job(7)).unwrap();
        let served = srv.drain().unwrap().remove(0);
        assert_eq!(served.result.rows, solo.rows);
        assert!(
            close(served.lane.finish_s, solo.cost.total_s()),
            "{}: served finish {} != solo total {}",
            policy.label(),
            served.lane.finish_s,
            solo.cost.total_s()
        );
        let served_hist = obs.with_histories(|hs| hs.last().cloned().unwrap());
        assert_lanes_tile_the_bands(&served_hist);
        assert_same_lanes(&served_hist.tasks, &solo_hist.tasks, policy.label());
    }
}

/// The closed form stages were priced with before the simulator priced
/// them: each node drains `sum / slots` of work in waves, but never ends
/// before its longest task; the stage ends with the slowest node. Kept here
/// as the oracle for the cases where it is exact.
fn makespan(tasks: &[(usize, f64)], nodes: usize, slots: u32) -> f64 {
    let mut sum = vec![0.0f64; nodes];
    let mut longest = vec![0.0f64; nodes];
    for &(node, d) in tasks {
        sum[node] += d;
        longest[node] = longest[node].max(d);
    }
    sum.iter()
        .zip(&longest)
        .fold(0.0, |acc, (s, &l)| acc.max((s / f64::from(slots)).max(l)))
}

/// The map stage of a lone job with these tasks, through the simulator.
fn simulated(tasks: &[(usize, f64)], nodes: usize, slots: u32) -> JobSchedule {
    let mut cluster = ClusterSpec::tiny(nodes);
    cluster.map_slots = slots;
    let job = SimJob {
        tenant: 0,
        weight: 1.0,
        arrival_s: 0.0,
        setup_s: 0.0,
        map_tasks: tasks.to_vec(),
        map_cap_per_node: slots,
        task_mem: 0,
        shuffle_s: 0.0,
        reduce_tasks: Vec::new(),
        overhead_s: 0.0,
    };
    interleave(&[job], &cluster, SchedPolicy::Fifo)
        .unwrap()
        .remove(0)
}

proptest! {
    /// Whole waves of equal tasks: the closed form and the simulator agree
    /// exactly (durations are whole seconds, so every sum is exact).
    #[test]
    fn closed_form_equals_the_simulator_on_uniform_sets(
        nodes in 1usize..5,
        slots in 1u32..5,
        waves in proptest::collection::vec(0usize..4, 4..5),
        dur in 1u32..500,
    ) {
        let mut tasks = Vec::new();
        for (node, w) in waves.iter().take(nodes).enumerate() {
            tasks.extend((0..w * slots as usize).map(|_| (node, f64::from(dur))));
        }
        let s = simulated(&tasks, nodes, slots);
        prop_assert_eq!(s.map_end_s, makespan(&tasks, nodes, slots));
    }

    /// Any task set: the closed form is a lower bound (a list schedule can
    /// only be as good as perfectly divisible work), and the simulator
    /// never runs more tasks on a node than it has slots.
    #[test]
    fn closed_form_bounds_the_simulator_from_below_on_skewed_sets(
        nodes in 1usize..5,
        slots in 1u32..5,
        raw in proptest::collection::vec((0usize..4, 1u32..500), 0..40),
    ) {
        let tasks: Vec<(usize, f64)> =
            raw.iter().map(|&(n, d)| (n % nodes, f64::from(d))).collect();
        let s = simulated(&tasks, nodes, slots);
        prop_assert!(s.map_end_s >= makespan(&tasks, nodes, slots));
        prop_assert_eq!(s.map.len(), tasks.len());
        for p in &s.map {
            let overlapping = s
                .map
                .iter()
                .filter(|q| q.node == p.node && q.start_s <= p.start_s && p.start_s < q.finish_s())
                .count();
            prop_assert!(overlapping <= slots as usize);
        }
    }
}

/// A job with `tasks` 10 s map tasks on node 0 and one 5 s reduce on node 0
/// (the fixture of `scheduler`'s policy unit tests).
fn sim_job(tenant: usize, arrival: f64, tasks: usize) -> SimJob {
    SimJob {
        tenant,
        weight: 1.0,
        arrival_s: arrival,
        setup_s: 1.0,
        map_tasks: (0..tasks).map(|_| (0, 10.0)).collect(),
        map_cap_per_node: 2,
        task_mem: 0,
        shuffle_s: 2.0,
        reduce_tasks: vec![(0, 5.0)],
        overhead_s: 3.0,
    }
}

/// Every grant of a run, one `job.kind.task@node.slot:start` per lane.
fn grants(s: &[JobSchedule]) -> String {
    let mut out = Vec::new();
    for (j, sched) in s.iter().enumerate() {
        for (kind, lanes) in [("m", &sched.map), ("r", &sched.reduce)] {
            for p in lanes {
                out.push(format!(
                    "{j}{kind}{}@{}.{}:{}",
                    p.task, p.node, p.slot, p.start_s
                ));
            }
        }
    }
    out.join(" ")
}

/// The per-node pending queues hand out exactly the grants the flat
/// pending list (scan for the first fitting task, `Vec::remove` it) did:
/// the strings below were recorded from that implementation on the
/// fixtures of `scheduler`'s three policy unit tests.
#[test]
fn per_node_queues_reproduce_the_flat_list_grants() {
    let one = ClusterSpec::tiny(1);
    let fifo = interleave(
        &[sim_job(0, 0.0, 2), sim_job(1, 0.5, 2)],
        &one,
        SchedPolicy::Fifo,
    )
    .unwrap();
    assert_eq!(grants(&fifo), FLAT_FIFO);
    let fair = interleave(
        &[sim_job(0, 0.0, 4), sim_job(1, 0.5, 2)],
        &one,
        SchedPolicy::Fair,
    )
    .unwrap();
    assert_eq!(grants(&fair), FLAT_FAIR);
    let mut four = ClusterSpec::tiny(1);
    four.map_slots = 4;
    let mut lo = sim_job(0, 0.0, 8);
    lo.map_cap_per_node = 4;
    let mut hi = sim_job(1, 0.0, 8);
    hi.weight = 3.0;
    hi.map_cap_per_node = 4;
    let cap = interleave(&[lo, hi], &four, SchedPolicy::Capacity).unwrap();
    assert_eq!(grants(&cap), FLAT_CAPACITY);
    // Six jobs with tasks spread over three nodes (equal weights, so
    // capacity grants what fair does).
    let jobs: Vec<SimJob> = (0..6)
        .map(|i| {
            let mut j = sim_job(i % 3, 0.7 * i as f64, 3 + i % 2);
            j.map_tasks = (0..j.map_tasks.len()).map(|k| ((i + k) % 3, 8.0)).collect();
            j.reduce_tasks = vec![(i % 3, 5.0), ((i + 1) % 3, 4.0)];
            j
        })
        .collect();
    for (policy, flat) in [SchedPolicy::Fifo, SchedPolicy::Fair]
        .into_iter()
        .zip(FLAT_SPREAD)
    {
        let s = interleave(&jobs, &ClusterSpec::tiny(3), policy).unwrap();
        assert_eq!(grants(&s), flat, "{}", policy.label());
    }
}

const FLAT_FIFO: &str = "0m0@0.0:1 0m1@0.1:1 0r0@0.0:13 1m0@0.0:11 1m1@0.1:11 1r0@0.0:23";
const FLAT_FAIR: &str =
    "0m0@0.0:1 0m1@0.1:1 0m2@0.1:11 0m3@0.1:21 0r0@0.0:38 1m0@0.0:11 1m1@0.0:21 \
    1r0@0.0:33";
const FLAT_CAPACITY: &str =
    "0m0@0.0:1 0m1@0.0:11 0m2@0.0:21 0m3@0.3:21 0m4@0.0:31 0m5@0.1:31 0m6@0.2:31 \
    0m7@0.3:31 0r0@0.0:43 1m0@0.1:1 1m1@0.2:1 1m2@0.3:1 1m3@0.1:11 1m4@0.2:11 \
    1m5@0.3:11 1m6@0.1:21 1m7@0.2:21 1r0@0.0:33";
const FLAT_SPREAD: [&str; 2] = [
    "0m0@0.0:1 0m1@1.0:1 0m2@2.0:1 0r0@0.0:11 0r1@1.0:11 1m0@1.1:1.7 1m1@2.1:1.7 \
    1m2@0.1:1.7 1m3@1.0:9 1r0@1.0:19 1r1@2.0:19 2m0@2.0:9 2m1@0.0:9 2m2@1.1:9.7 \
    2r0@2.0:23 2r1@0.0:19.7 3m0@0.1:9.7 3m1@1.0:17 3m2@2.1:9.7 3m3@0.0:17 \
    3r0@0.0:27 3r1@1.0:27 4m0@1.1:17.7 4m1@2.0:17 4m2@0.1:17.7 4r0@1.0:31 \
    4r1@2.0:28 5m0@2.1:17.7 5m1@0.0:25 5m2@1.0:25 5m3@2.0:25 5r0@2.0:35 \
    5r1@0.0:35",
    "0m0@0.0:1 0m1@1.0:1 0m2@2.0:1 0r0@0.0:11 0r1@1.0:11 1m0@1.1:1.7 1m1@2.1:1.7 \
    1m2@0.1:1.7 1m3@1.1:9.7 1r0@1.0:19.7 1r1@2.0:19.7 2m0@2.0:9 2m1@0.0:17 \
    2m2@1.0:9 2r0@2.0:27 2r1@0.0:27 3m0@0.0:9 3m1@1.0:17 3m2@2.1:9.7 \
    3m3@0.1:17.7 3r0@0.0:31 3r1@1.0:27.7 4m0@1.1:17.7 4m1@2.1:17.7 4m2@0.1:9.7 \
    4r0@1.0:31.7 4r1@2.0:32 5m0@2.0:17 5m1@0.0:25 5m2@1.0:25 5m3@2.0:25 \
    5r0@2.0:36 5r1@0.0:36",
];

/// The simulator checks its input once: a task on a node the cluster does
/// not have, or a time it cannot put on the clock, is a `Config` error —
/// not a panic, and not a job whose reduces silently never run. Pricing
/// hands the error on instead of a 0 s map stage.
#[test]
fn interleave_rejects_what_it_cannot_simulate() {
    let cluster = ClusterSpec::tiny(3);
    // Job 1 of a two-job run, after `edit`; unedited, the run schedules.
    let run = |edit: &dyn Fn(&mut SimJob)| {
        let mut job = sim_job(1, 0.0, 2);
        edit(&mut job);
        interleave(&[sim_job(0, 0.0, 1), job], &cluster, SchedPolicy::Fair)
    };
    assert!(run(&|_| {}).is_ok());
    let rejects = |edit: &dyn Fn(&mut SimJob), what: &str| match run(edit) {
        Err(ClydeError::Config(_)) => {}
        other => panic!("{what}: {other:?}"),
    };
    rejects(&|j| j.map_tasks[1].0 = 5, "a map on node 5 of 3");
    rejects(&|j| j.reduce_tasks[0].0 = 3, "a reduce on node 3 of 3");
    for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        rejects(&|j| j.map_tasks[1].1 = t, &format!("a {t} s map"));
        rejects(&|j| j.reduce_tasks[0].1 = t, &format!("a {t} s reduce"));
        rejects(&|j| j.arrival_s = t, &format!("arrival {t}"));
        rejects(&|j| j.setup_s = t, &format!("setup {t}"));
        rejects(&|j| j.shuffle_s = t, &format!("shuffle {t}"));
        rejects(&|j| j.overhead_s = t, &format!("overhead {t}"));
    }
    // Each time is finite, but the job would become ready past the clock.
    let late = |j: &mut SimJob| (j.arrival_s, j.setup_s) = (f64::MAX, f64::MAX);
    rejects(&late, "a ready time that overflows");

    let mut cost = TaskCost::new();
    cost.local_bytes = 1 << 30;
    let profile = JobProfile {
        name: "scan".into(),
        map_tasks: vec![TaskProfile {
            node: NodeId(0),
            cost,
            wall_ns: 0,
            speculative: false,
        }],
        map_concurrency: 1,
        ..JobProfile::default()
    };
    let cluster_a = ClusterSpec::cluster_a();
    assert!(
        profile
            .price(&CostParams::paper(), &cluster_a)
            .unwrap()
            .map_s
            > 0.0
    );
    let zero_rate = CostParams {
        state_deser_bw: 0.0,
        ..CostParams::paper()
    };
    match profile.price(&zero_rate, &cluster_a) {
        Err(ClydeError::Config(_)) => {}
        other => panic!("state_deser_bw 0: {other:?}"),
    }
}
