//! Render a job's schedule as a [`JobHistory`].
//!
//! There is one model of when tasks run — the slot simulator
//! ([`crate::scheduler::Sim`]) — and a history is a drawing of its
//! verdict: every swimlane is one [`Placement`] taken verbatim, and the
//! stage bands are the same schedule's [`JobSchedule::cost`] (an executed
//! job's `JobResult::cost`). Every schedule is on its caller's clock, client
//! setup included: the job arrives at [`JobSchedule::arrival_s`], its setup
//! band runs from there, and its lanes start no earlier than setup's end. A
//! solo job, a Hive stage, a served job and a bare profile
//! ([`JobProfile::schedule`]) are all drawn by this one function.

use crate::cost::{CostParams, TaskCost};
use crate::job::JobProfile;
use crate::scheduler::{JobSchedule, Placement};
use clyde_common::obs::{JobHistory, PhaseSlice, TaskKind, TaskLane};
use clyde_dfs::ClusterSpec;

/// Move task-relative phase slices onto a lane that starts at `start` on a
/// node running `stretch` times slower than priced.
fn place(phases: Vec<PhaseSlice>, start: f64, stretch: f64) -> Vec<PhaseSlice> {
    phases
        .into_iter()
        .map(|p| PhaseSlice {
            start_s: start + p.start_s * stretch,
            dur_s: p.dur_s * stretch,
            ..p
        })
        .collect()
}

/// Assemble the full job history: one swimlane per placement of `sched`,
/// stage bands from `sched.cost`, and the combiner/merge/locality roll-ups.
/// The history starts at the job's arrival with no tenant; the job server
/// names the tenant.
pub fn job_history(
    profile: &JobProfile,
    params: &CostParams,
    cluster: &ClusterSpec,
    sched: &JobSchedule,
) -> JobHistory {
    let concurrency = profile.map_concurrency.max(1);
    let lane = |kind: TaskKind, index: usize, p: &Placement, c: &TaskCost| TaskLane {
        index,
        kind,
        node: p.node,
        slot: p.slot,
        start_s: p.start_s,
        dur_s: p.dur_s,
        local_bytes: c.local_bytes,
        remote_bytes: c.remote_bytes,
        emit_records: c.emit_records,
        emit_bytes: c.emit_bytes,
        wall_ns: 0,
        speculative: false,
        phases: Vec::new(),
    };
    let mut tasks: Vec<TaskLane> = Vec::with_capacity(sched.map.len() + sched.reduce.len());
    for p in &sched.map {
        if let Some(t) = profile.map_tasks.get(p.task) {
            let mut l = lane(TaskKind::Map, p.task, p, &t.cost);
            l.wall_ns = t.wall_ns;
            l.speculative = t.speculative;
            l.phases = place(
                params.map_task_phases(cluster, &t.cost, concurrency),
                l.start_s,
                profile.slowdown(p.node),
            );
            tasks.push(l);
        } else if let Some(k) = profile
            .killed_attempts
            .get(p.task - profile.map_tasks.len())
        {
            // Map lanes past the committed tasks are the killed attempts
            // (speculative losers): the lane shows the slot time they wasted.
            let mut l = lane(TaskKind::Map, k.task, p, &k.cost);
            l.speculative = true;
            tasks.push(l);
        }
    }
    for p in &sched.reduce {
        let Some(t) = profile.reduce_tasks.get(p.task) else {
            continue;
        };
        let mut l = lane(TaskKind::Reduce, p.task, p, &t.cost);
        l.wall_ns = t.wall_ns;
        l.phases = place(
            params.reduce_task_phases(cluster, &t.cost),
            l.start_s,
            profile.slowdown(p.node),
        );
        tasks.push(l);
    }

    let total_map = profile.total_map_cost();
    let total_reduce = profile.total_reduce_cost();
    JobHistory {
        name: profile.name.clone(),
        tenant: String::new(),
        t0_s: sched.arrival_s,
        setup_s: sched.cost.setup_s,
        map_s: sched.cost.map_s,
        shuffle_s: sched.cost.shuffle_s,
        reduce_s: sched.cost.reduce_s,
        overhead_s: sched.cost.overhead_s,
        map_concurrency: concurrency,
        shuffle_bytes: profile.shuffle_bytes,
        merge_runs: total_reduce.merge_runs,
        combine_input_records: total_map.combine_input_records,
        combine_output_records: total_map.combine_output_records,
        locality: profile.scan_locality(),
        split_locality: profile.split_locality,
        failed_attempts: profile.failed_attempts,
        speculative_attempts: profile.speculative_attempts,
        speculative_wins: profile.speculative_wins,
        blacklisted_nodes: profile.blacklisted_nodes.len() as u32,
        dead_nodes: profile.dead_nodes.len() as u32,
        rereplicated_blocks: profile.rereplicated_blocks,
        wall_phases: profile.wall_phases.clone(),
        setup_wall_ns: profile.client_build_wall_ns,
        // Per-job I/O is attributed by the engine after pricing (it owns the
        // DFS scope); histories start with an empty snapshot.
        io: Vec::new(),
        corrupt_reads: 0,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TaskCost;
    use crate::job::TaskProfile;
    use clyde_dfs::NodeId;

    fn profile(num_tasks: usize, nodes: usize, concurrency: u32) -> JobProfile {
        let mut cost = TaskCost::new();
        cost.local_bytes = 100 << 20;
        cost.emit_records = 1000;
        cost.emit_bytes = 32_000;
        JobProfile {
            name: "hist-test".into(),
            map_tasks: (0..num_tasks)
                .map(|i| TaskProfile {
                    node: NodeId(i % nodes),
                    cost,
                    wall_ns: 7,
                    speculative: false,
                })
                .collect(),
            map_concurrency: concurrency,
            split_locality: 1.0,
            ..JobProfile::default()
        }
    }

    /// Price `p` alone and render that schedule, as the engine does.
    fn solo_history(p: &JobProfile, params: &CostParams, cluster: &ClusterSpec) -> JobHistory {
        let sched = p.schedule(params, cluster, 0.0).unwrap();
        job_history(p, params, cluster, &sched)
    }

    #[test]
    fn lanes_respect_slot_concurrency() {
        let cluster = ClusterSpec::tiny(2);
        let params = CostParams::paper();
        // 4 tasks on 2 nodes with 2 slots each: every task starts at setup
        // time because each node has exactly as many tasks as slots... with
        // concurrency 1, the second task per node queues behind the first.
        let p = profile(4, 2, 1);
        let h = solo_history(&p, &params, &cluster);
        assert_eq!(h.tasks.len(), 4);
        let mut by_node: Vec<Vec<&clyde_common::obs::TaskLane>> = vec![Vec::new(); 2];
        for t in &h.tasks {
            by_node[t.node].push(t);
        }
        for lanes in &by_node {
            assert_eq!(lanes.len(), 2);
            // Serial on one slot: second starts when first finishes.
            assert!((lanes[1].start_s - lanes[0].finish_s()).abs() < 1e-9);
            assert_eq!(lanes[0].slot, lanes[1].slot);
        }
        // The map band ends exactly where the last lane does: both are read
        // off one schedule.
        let last = h.tasks.iter().map(|t| t.finish_s()).fold(0.0, f64::max);
        assert_eq!(last, h.setup_s + h.map_s);
        // Phases were shifted to absolute time.
        let t0 = &h.tasks[0];
        assert!((t0.phases[0].start_s - t0.start_s).abs() < 1e-12);
        assert_eq!(t0.wall_ns, 7);
    }

    #[test]
    fn two_slots_run_tasks_in_parallel() {
        let cluster = ClusterSpec::tiny(2);
        let params = CostParams::paper();
        let p = profile(4, 2, 2);
        let h = solo_history(&p, &params, &cluster);
        for node in 0..2 {
            let lanes: Vec<_> = h.tasks.iter().filter(|t| t.node == node).collect();
            assert_eq!(lanes.len(), 2);
            // Both tasks start together on different slots.
            assert!((lanes[0].start_s - lanes[1].start_s).abs() < 1e-12);
            assert_ne!(lanes[0].slot, lanes[1].slot);
        }
    }

    #[test]
    fn history_is_deterministic() {
        let cluster = ClusterSpec::tiny(3);
        let params = CostParams::paper();
        let p = profile(7, 3, 2);
        let a = solo_history(&p, &params, &cluster);
        let b = solo_history(&p, &params, &cluster);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.start_s.to_bits(), y.start_s.to_bits());
            assert_eq!(x.dur_s.to_bits(), y.dur_s.to_bits());
        }
    }
}
