//! Deterministic, locality-aware task scheduling.
//!
//! Reproduces the two scheduler behaviours the paper relies on:
//!
//! 1. **Locality-aware assignment** (Section 3): a split lists the nodes
//!    holding its data; the scheduler places the task on the least-loaded of
//!    them, falling back to the least-loaded node overall.
//! 2. **Capacity scheduling by declared memory** (Section 5.2): a job can
//!    mark its map tasks as requiring a large amount of memory; the number
//!    of concurrently admitted tasks per node is then
//!    `min(map_slots, floor(node_memory / task_memory))`, which Clydesdale
//!    sets to exactly one task per node.
//!
//! Assignments are computed up front and deterministically, so simulated
//! times are reproducible regardless of real thread interleaving.
//!
//! The second half of this module is the **slot simulator**, the repo's one
//! answer to "when does a task run?": [`interleave`] runs a discrete-event
//! simulation that multiplexes the map/reduce slots (and declared-memory
//! capacity) of one [`ClusterSpec`] across N jobs under a [`SchedPolicy`],
//! entirely in simulated time. A solo job is the N = 1 case
//! ([`crate::job::JobProfile::schedule`] prices every figure off it), the job
//! server is the N > 1 case, and every swimlane
//! ([`crate::history::job_history`]) is a rendering of its [`Placement`]s.
//! Every choice breaks ties on ids, so the schedule is a pure function of
//! its inputs — byte-identical across reruns and host thread counts.

use crate::input::InputSplit;
use clyde_dfs::{ClusterSpec, NodeId};
use std::collections::VecDeque;

/// How many tasks of this job a node may run at once.
pub fn concurrency_per_node(cluster: &ClusterSpec, declared_task_memory: u64) -> u32 {
    let slots = cluster.map_slots.max(1);
    if declared_task_memory == 0 {
        return slots;
    }
    let by_memory = cluster.node.memory_bytes / declared_task_memory.max(1);
    (by_memory.min(u64::from(slots)) as u32).max(1)
}

/// Assign each split to a node. Returns `assignment[i] = node of splits[i]`.
///
/// Greedy in split order: prefer the listed host with the least pending
/// bytes; if the split has no hosts (or only dead ones — callers filter),
/// use the globally least-loaded node. Ties break toward the lowest node id,
/// making the whole assignment a pure function of its inputs.
pub fn assign_map_tasks(splits: &[InputSplit], cluster: &ClusterSpec) -> Vec<NodeId> {
    let n = cluster.num_workers();
    let mut pending = vec![0u64; n];
    let mut out = Vec::with_capacity(splits.len());
    for split in splits {
        let candidates: Vec<NodeId> = if split.hosts.is_empty() {
            (0..n).map(NodeId).collect()
        } else {
            split.hosts.iter().copied().filter(|h| h.0 < n).collect()
        };
        let candidates = if candidates.is_empty() {
            (0..n).map(NodeId).collect()
        } else {
            candidates
        };
        let chosen = candidates
            .iter()
            .copied()
            .min_by_key(|c| (pending[c.0], c.0))
            .expect("candidates never empty");
        pending[chosen.0] += split.bytes.max(1);
        out.push(chosen);
    }
    out
}

/// Assign `num_tasks` reduce tasks round-robin over the workers.
pub fn assign_reduce_tasks(num_tasks: usize, cluster: &ClusterSpec) -> Vec<NodeId> {
    let n = cluster.num_workers().max(1);
    (0..num_tasks).map(|i| NodeId(i % n)).collect()
}

/// Fraction of splits whose assigned node is one of their preferred hosts.
pub fn locality_fraction(splits: &[InputSplit], assignment: &[NodeId]) -> f64 {
    if splits.is_empty() {
        return 1.0;
    }
    let local = splits
        .iter()
        .zip(assignment)
        .filter(|(s, a)| s.hosts.is_empty() || s.hosts.contains(a))
        .count();
    local as f64 / splits.len() as f64
}

/// How the job server picks which admitted job's task gets a freed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict arrival order: earliest-submitted job first, always.
    Fifo,
    /// Max-min fair over tenants (Hadoop fair-scheduler shape: one pool
    /// per tenant, equal shares): the tenant holding the fewest slots wins
    /// the next one; ties fall to least attained service (granted
    /// slot-seconds), so a fresh interactive tenant beats an equally-idle
    /// batch backlog. FIFO within a tenant, the fair scheduler's default.
    Fair,
    /// Weighted fair over tenants: the tenant with the lowest
    /// `running_slots / weight` wins, least attained service per weight as
    /// the tiebreak; FIFO within a tenant (Hadoop capacity-scheduler shape).
    Capacity,
}

impl SchedPolicy {
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Fair => "fair",
            SchedPolicy::Capacity => "capacity",
        }
    }

    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fifo" => Some(SchedPolicy::Fifo),
            "fair" => Some(SchedPolicy::Fair),
            "capacity" => Some(SchedPolicy::Capacity),
            _ => None,
        }
    }

    /// Every policy, in display order.
    pub fn all() -> [SchedPolicy; 3] {
        [SchedPolicy::Fifo, SchedPolicy::Fair, SchedPolicy::Capacity]
    }
}

/// One job, reduced to what the slot simulator needs: its task durations
/// (already priced by the cost model, slowdowns applied), their recorded node
/// placement, and the job's capacity declaration. Built from a profile by
/// [`crate::job::JobProfile::sim_job`] and nowhere else.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Dense tenant index (for the capacity policy's per-tenant shares).
    pub tenant: usize,
    /// Tenant weight under the capacity policy (>= larger is more share).
    pub weight: f64,
    /// Submission time on the server clock (seconds).
    pub arrival_s: f64,
    /// Client-side setup; the job becomes schedulable at `arrival + setup`.
    pub setup_s: f64,
    /// (node, duration) per map task, node-affine from the recorded run.
    pub map_tasks: Vec<(usize, f64)>,
    /// Per-node concurrent-map cap for THIS job (Clydesdale declares full
    /// node memory, capping it to one map task per node).
    pub map_cap_per_node: u32,
    /// Declared per-map-task memory: the cross-JOB capacity constraint — a
    /// node never holds running map tasks whose declared memory exceeds its
    /// physical memory (paper Section 5.2, extended across jobs).
    pub task_mem: u64,
    pub shuffle_s: f64,
    /// (node, duration) per reduce task.
    pub reduce_tasks: Vec<(usize, f64)>,
    /// Job-level overhead appended after the last reduce (or map) finishes.
    pub overhead_s: f64,
}

impl SimJob {
    /// When the job can first take a slot.
    pub fn ready_s(&self) -> f64 {
        self.arrival_s + self.setup_s
    }
}

/// One task's (node, slot, interval) on the shared timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    pub task: usize,
    pub node: usize,
    pub slot: u32,
    pub start_s: f64,
    pub dur_s: f64,
}

impl Placement {
    pub fn finish_s(&self) -> f64 {
        self.start_s + self.dur_s
    }
}

/// How long a stage that became schedulable at `ready_s` took: the latest
/// lane end, measured per lane as wait + duration rather than as a
/// difference of absolute times, so a stage that fits in one wave lasts
/// exactly as long as its longest task.
pub(crate) fn stage_span(lanes: &[Placement], ready_s: f64) -> f64 {
    lanes
        .iter()
        .map(|p| (p.start_s - ready_s) + p.dur_s)
        .fold(0.0, f64::max)
}

/// The simulator's verdict for one job: every task placement plus the
/// derived stage boundaries.
#[derive(Debug, Clone, Default)]
pub struct JobSchedule {
    /// Map placements, sorted by task index (aligned with the profile).
    pub map: Vec<Placement>,
    /// Reduce placements, sorted by task index.
    pub reduce: Vec<Placement>,
    /// First granted slot (== ready time for task-less jobs).
    pub first_slot_s: f64,
    /// When the last map task finished.
    pub map_end_s: f64,
    /// When the last reduce task finished (== `map_end_s + shuffle` for
    /// map-only jobs).
    pub reduce_end_s: f64,
    /// `reduce_end + overhead`: the job's completion on the server clock.
    pub finish_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JState {
    /// Submitted, not yet past client setup.
    Pending,
    /// Competing for map slots.
    Mapping,
    /// All maps done; shuffle in flight until the recorded time.
    Shuffling,
    /// Competing for reduce slots.
    Reducing,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    finish_s: f64,
    job: usize,
    task: usize,
    node: usize,
    slot: u32,
    kind: RKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RKind {
    Map,
    Reduce,
}

/// Policy priority key, lower wins: (policy primary, attained service,
/// arrival time, job id). See [`Sim::key`].
type SchedKey = (f64, f64, f64, usize);

/// Per-node slot pool handing out the lowest free slot id (for stable
/// swimlane lanes).
struct SlotPool {
    free: Vec<bool>,
}

impl SlotPool {
    fn new(slots: u32) -> SlotPool {
        SlotPool {
            free: vec![true; slots.max(1) as usize],
        }
    }

    fn available(&self) -> bool {
        self.free.iter().any(|f| *f)
    }

    fn take(&mut self) -> u32 {
        let slot = self
            .free
            .iter()
            .position(|f| *f)
            .expect("caller checked availability");
        self.free[slot] = false;
        slot as u32
    }

    fn release(&mut self, slot: u32) {
        self.free[slot as usize] = true;
    }
}

/// One stage's not-yet-started tasks. Tasks are node-affine and start in
/// index order, so each node keeps a FIFO of its task ids and the next task
/// to start is the lowest queue head among the nodes that can take one.
struct Pending {
    by_node: Vec<VecDeque<usize>>,
}

impl Pending {
    fn new(tasks: &[(usize, f64)], nodes: usize) -> Pending {
        let mut by_node = vec![VecDeque::new(); nodes];
        for (task, &(node, _)) in tasks.iter().enumerate() {
            by_node[node].push_back(task);
        }
        Pending { by_node }
    }

    /// The lowest-index pending task whose node `fits` one more right now.
    fn first_fitting(&self, fits: impl Fn(usize) -> bool) -> Option<usize> {
        self.by_node
            .iter()
            .enumerate()
            .filter_map(|(node, queue)| queue.front().copied().filter(|_| fits(node)))
            .min()
    }

    /// `node`'s next task has started.
    fn started(&mut self, node: usize) {
        self.by_node[node].pop_front();
    }
}

struct Sim<'a> {
    jobs: &'a [SimJob],
    policy: SchedPolicy,
    node_mem: u64,
    state: Vec<JState>,
    /// Tasks not yet started, per job.
    pending_map: Vec<Pending>,
    pending_reduce: Vec<Pending>,
    maps_left: Vec<usize>,
    reduces_left: Vec<usize>,
    /// End of the shuffle stage, for jobs in `Shuffling`.
    shuffle_end: Vec<f64>,
    /// Slots (map + reduce) each tenant currently holds.
    tenant_slots: Vec<u32>,
    /// Slot-seconds granted to each tenant so far (attained service).
    tenant_service: Vec<f64>,
    /// Running map tasks of job j on node n (per-job capacity cap).
    job_node_maps: Vec<Vec<u32>>,
    /// Declared memory currently admitted on each node (map tasks).
    mem_used: Vec<u64>,
    map_pool: Vec<SlotPool>,
    reduce_pool: Vec<SlotPool>,
    running: Vec<Running>,
    out: Vec<JobSchedule>,
}

/// Run the discrete-event slot simulation: interleave every job's map and
/// reduce tasks over `cluster`'s per-node slots under `policy`. Tasks are
/// node-affine (the recorded placement is kept); within a job, tasks start
/// in index order. Returns one schedule per job, same order as `jobs`.
pub fn interleave(jobs: &[SimJob], cluster: &ClusterSpec, policy: SchedPolicy) -> Vec<JobSchedule> {
    let nodes = cluster.num_workers().max(1);
    let tenants = jobs.iter().map(|j| j.tenant + 1).max().unwrap_or(0);
    let mut sim = Sim {
        jobs,
        policy,
        node_mem: cluster.node.memory_bytes,
        state: vec![JState::Pending; jobs.len()],
        pending_map: jobs
            .iter()
            .map(|j| Pending::new(&j.map_tasks, nodes))
            .collect(),
        pending_reduce: jobs
            .iter()
            .map(|j| Pending::new(&j.reduce_tasks, nodes))
            .collect(),
        maps_left: jobs.iter().map(|j| j.map_tasks.len()).collect(),
        reduces_left: jobs.iter().map(|j| j.reduce_tasks.len()).collect(),
        shuffle_end: vec![0.0; jobs.len()],
        tenant_slots: vec![0; tenants],
        tenant_service: vec![0.0; tenants],
        job_node_maps: vec![vec![0; nodes]; jobs.len()],
        mem_used: vec![0; nodes],
        map_pool: (0..nodes)
            .map(|_| SlotPool::new(cluster.map_slots))
            .collect(),
        reduce_pool: (0..nodes)
            .map(|_| SlotPool::new(cluster.reduce_slots))
            .collect(),
        running: Vec::new(),
        out: vec![JobSchedule::default(); jobs.len()],
    };
    sim.run();
    for (j, sched) in sim.out.iter_mut().enumerate() {
        sched.map.sort_by_key(|p| p.task);
        sched.reduce.sort_by_key(|p| p.task);
        let first = sched
            .map
            .iter()
            .chain(&sched.reduce)
            .map(|p| p.start_s)
            .fold(f64::INFINITY, f64::min);
        sched.first_slot_s = if first.is_finite() {
            first
        } else {
            jobs[j].ready_s()
        };
        sched.finish_s = sched.reduce_end_s + jobs[j].overhead_s;
    }
    sim.out
}

impl Sim<'_> {
    fn run(&mut self) {
        loop {
            let t = self.next_event_time();
            let Some(t) = t else { break };
            self.complete_tasks(t);
            self.end_shuffles(t);
            self.activate_ready(t);
            self.assign(t);
        }
    }

    /// Earliest pending event: a job becoming ready, a running task
    /// finishing, or a shuffle completing. `None` once everything is done.
    fn next_event_time(&self) -> Option<f64> {
        let mut t = f64::INFINITY;
        for (j, s) in self.state.iter().enumerate() {
            match s {
                JState::Pending => t = t.min(self.jobs[j].ready_s()),
                JState::Shuffling => t = t.min(self.shuffle_end[j]),
                _ => {}
            }
        }
        for r in &self.running {
            t = t.min(r.finish_s);
        }
        t.is_finite().then_some(t)
    }

    /// Retire every running task whose finish time is exactly `t` (finish
    /// times are reused bit-for-bit, so exact comparison is sound), in
    /// (kind, job, task) order.
    fn complete_tasks(&mut self, t: f64) {
        let mut done: Vec<Running> = Vec::new();
        self.running.retain(|r| {
            if r.finish_s == t {
                done.push(*r);
                false
            } else {
                true
            }
        });
        done.sort_by_key(|r| (r.kind, r.job, r.task));
        for r in done {
            self.tenant_slots[self.jobs[r.job].tenant] -= 1;
            match r.kind {
                RKind::Map => {
                    self.map_pool[r.node].release(r.slot);
                    self.job_node_maps[r.job][r.node] -= 1;
                    self.mem_used[r.node] -= self.jobs[r.job].task_mem;
                    self.maps_left[r.job] -= 1;
                    if self.maps_left[r.job] == 0 {
                        self.out[r.job].map_end_s = t;
                        self.advance_past_maps(r.job, t);
                    }
                }
                RKind::Reduce => {
                    self.reduce_pool[r.node].release(r.slot);
                    self.reduces_left[r.job] -= 1;
                    if self.reduces_left[r.job] == 0 {
                        self.out[r.job].reduce_end_s = t;
                        self.state[r.job] = JState::Done;
                    }
                }
            }
        }
    }

    /// Move a job whose maps all finished at `t` into its next stage.
    fn advance_past_maps(&mut self, j: usize, t: f64) {
        let job = &self.jobs[j];
        if job.reduce_tasks.is_empty() {
            // Map-only: the shuffle stage is empty but still recorded.
            self.out[j].reduce_end_s = t + job.shuffle_s;
            self.state[j] = JState::Done;
        } else if job.shuffle_s > 0.0 {
            self.shuffle_end[j] = t + job.shuffle_s;
            self.state[j] = JState::Shuffling;
        } else {
            self.state[j] = JState::Reducing;
        }
    }

    fn end_shuffles(&mut self, t: f64) {
        for j in 0..self.jobs.len() {
            if self.state[j] == JState::Shuffling && self.shuffle_end[j] == t {
                self.state[j] = JState::Reducing;
            }
        }
    }

    fn activate_ready(&mut self, t: f64) {
        for j in 0..self.jobs.len() {
            if self.state[j] == JState::Pending && self.jobs[j].ready_s() <= t {
                if self.jobs[j].map_tasks.is_empty() {
                    self.out[j].map_end_s = t;
                    self.advance_past_maps(j, t);
                } else {
                    self.state[j] = JState::Mapping;
                }
            }
        }
    }

    /// The policy's priority key: lower wins. Fair/capacity break ties on
    /// least attained service (slot-seconds granted so far), then arrival
    /// order, then job id, so every decision is total and deterministic —
    /// and a fresh job is not starved by an earlier-arrived backlog that is
    /// momentarily holding zero slots.
    fn key(&self, j: usize) -> SchedKey {
        let job = &self.jobs[j];
        let (primary, service) = match self.policy {
            SchedPolicy::Fifo => (0.0, 0.0),
            SchedPolicy::Fair => (
                f64::from(self.tenant_slots[job.tenant]),
                self.tenant_service[job.tenant],
            ),
            SchedPolicy::Capacity => {
                let w = job.weight.max(1e-9);
                (
                    f64::from(self.tenant_slots[job.tenant]) / w,
                    self.tenant_service[job.tenant] / w,
                )
            }
        };
        (primary, service, job.arrival_s, j)
    }

    /// A map task of job `j` fits on `node` iff a slot is free, the job's
    /// own per-node cap allows it, and the node's declared-memory capacity
    /// admits it (an oversized declaration still runs alone).
    fn map_fits(&self, j: usize, node: usize) -> bool {
        self.map_pool[node].available()
            && self.job_node_maps[j][node] < self.jobs[j].map_cap_per_node.max(1)
            && (self.mem_used[node] + self.jobs[j].task_mem <= self.node_mem
                || self.mem_used[node] == 0)
    }

    /// The task of `j`'s current stage that would start next, if any fits.
    fn next_task(&self, j: usize) -> Option<(RKind, usize)> {
        match self.state[j] {
            JState::Mapping => self.pending_map[j]
                .first_fitting(|node| self.map_fits(j, node))
                .map(|task| (RKind::Map, task)),
            JState::Reducing => self.pending_reduce[j]
                .first_fitting(|node| self.reduce_pool[node].available())
                .map(|task| (RKind::Reduce, task)),
            _ => None,
        }
    }

    /// Hand out every slot that can be filled at time `t`: repeatedly pick
    /// the best-priority job with an assignable task until nothing fits.
    /// Keys are re-evaluated after each grant, so fair/capacity shares shift
    /// as slots are taken.
    fn assign(&mut self, t: f64) {
        loop {
            let mut best: Option<(SchedKey, usize, RKind, usize)> = None;
            for j in 0..self.jobs.len() {
                let Some((kind, task)) = self.next_task(j) else {
                    continue;
                };
                let key = self.key(j);
                let better = match &best {
                    None => true,
                    Some((bk, ..)) => key
                        .0
                        .total_cmp(&bk.0)
                        .then(key.1.total_cmp(&bk.1))
                        .then(key.2.total_cmp(&bk.2))
                        .then(key.3.cmp(&bk.3))
                        .is_lt(),
                };
                if better {
                    best = Some((key, j, kind, task));
                }
            }
            let Some((_, j, kind, task)) = best else {
                break;
            };
            self.grant(j, kind, task, t);
        }
    }

    /// Start `task` of job `j` at `t` on its node's lowest free slot.
    fn grant(&mut self, j: usize, kind: RKind, task: usize, t: f64) {
        let job = &self.jobs[j];
        let (node, dur, slot) = match kind {
            RKind::Map => {
                let (node, dur) = job.map_tasks[task];
                self.pending_map[j].started(node);
                self.job_node_maps[j][node] += 1;
                self.mem_used[node] += job.task_mem;
                (node, dur, self.map_pool[node].take())
            }
            RKind::Reduce => {
                let (node, dur) = job.reduce_tasks[task];
                self.pending_reduce[j].started(node);
                (node, dur, self.reduce_pool[node].take())
            }
        };
        self.tenant_slots[job.tenant] += 1;
        self.tenant_service[job.tenant] += dur;
        self.running.push(Running {
            finish_s: t + dur,
            job: j,
            task,
            node,
            slot,
            kind,
        });
        let lanes = match kind {
            RKind::Map => &mut self.out[j].map,
            RKind::Reduce => &mut self.out[j].reduce,
        };
        lanes.push(Placement {
            task,
            node,
            slot,
            start_s: t,
            dur_s: dur,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::SplitSpec;

    fn split(index: usize, hosts: Vec<usize>, bytes: u64) -> InputSplit {
        InputSplit {
            index,
            spec: SplitSpec::FileRange {
                path: format!("/f{index}"),
                offset: 0,
                len: bytes,
            },
            hosts: hosts.into_iter().map(NodeId).collect(),
            bytes,
        }
    }

    #[test]
    fn prefers_listed_hosts() {
        let cluster = ClusterSpec::tiny(4);
        let splits = vec![split(0, vec![2], 10), split(1, vec![2, 3], 10)];
        let a = assign_map_tasks(&splits, &cluster);
        assert_eq!(a[0], NodeId(2));
        // Second split prefers node 3 because node 2 already has load.
        assert_eq!(a[1], NodeId(3));
        assert_eq!(locality_fraction(&splits, &a), 1.0);
    }

    #[test]
    fn balances_load_without_hosts() {
        let cluster = ClusterSpec::tiny(3);
        let splits: Vec<InputSplit> = (0..9).map(|i| split(i, vec![], 100)).collect();
        let a = assign_map_tasks(&splits, &cluster);
        for node in 0..3 {
            assert_eq!(a.iter().filter(|n| n.0 == node).count(), 3);
        }
    }

    #[test]
    fn out_of_range_hosts_are_ignored() {
        let cluster = ClusterSpec::tiny(2);
        let splits = vec![split(0, vec![7], 10)];
        let a = assign_map_tasks(&splits, &cluster);
        assert!(a[0].0 < 2);
    }

    #[test]
    fn assignment_is_deterministic() {
        let cluster = ClusterSpec::tiny(5);
        let splits: Vec<InputSplit> = (0..20)
            .map(|i| split(i, vec![i % 5, (i + 1) % 5], 50 + i as u64))
            .collect();
        assert_eq!(
            assign_map_tasks(&splits, &cluster),
            assign_map_tasks(&splits, &cluster)
        );
    }

    #[test]
    fn capacity_scheduling_limits_concurrency() {
        let cluster = ClusterSpec::tiny(2); // 2 map slots, 4 GB nodes
        assert_eq!(concurrency_per_node(&cluster, 0), 2);
        // Declaring 3 GB per task admits only one task at a time.
        assert_eq!(concurrency_per_node(&cluster, 3 << 30), 1);
        // Declaring tiny memory is still capped by slots.
        assert_eq!(concurrency_per_node(&cluster, 1), 2);
        // Declaring more than node memory still admits one (Hadoop would
        // reject; we degrade to serial execution).
        assert_eq!(concurrency_per_node(&cluster, 1 << 40), 1);
    }

    #[test]
    fn reduce_round_robin() {
        let cluster = ClusterSpec::tiny(3);
        assert_eq!(
            assign_reduce_tasks(5, &cluster),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0), NodeId(1)]
        );
    }

    /// A job with `tasks` 10s map tasks on node 0, one 5s reduce on node 0.
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

    #[test]
    fn fifo_runs_jobs_in_arrival_order() {
        // tiny(1) has 2 map slots, 1 reduce slot on one node.
        let cluster = ClusterSpec::tiny(1);
        let jobs = vec![sim_job(0, 0.0, 2), sim_job(1, 0.5, 2)];
        let s = interleave(&jobs, &cluster, SchedPolicy::Fifo);
        // Job 0 takes both slots at t=1; job 1 (ready 1.5) waits until they
        // free at t=11 despite having arrived long before.
        assert_eq!(s[0].map[0].start_s, 1.0);
        assert_eq!(s[0].map[1].start_s, 1.0);
        assert_eq!(s[0].map_end_s, 11.0);
        assert_eq!(s[1].map[0].start_s, 11.0);
        assert_eq!(s[1].map[1].start_s, 11.0);
        // Stage chain: maps 11 + shuffle 2 -> reduce 13..18, finish 21.
        assert_eq!(s[0].reduce[0].start_s, 13.0);
        assert_eq!(s[0].reduce_end_s, 18.0);
        assert_eq!(s[0].finish_s, 21.0);
        assert_eq!(s[1].first_slot_s, 11.0);
    }

    #[test]
    fn fair_interleaves_slots_across_jobs() {
        let cluster = ClusterSpec::tiny(1); // 2 map slots
        let jobs = vec![sim_job(0, 0.0, 4), sim_job(1, 0.5, 2)];
        let s = interleave(&jobs, &cluster, SchedPolicy::Fair);
        // Only job 0 is ready at t=1; it takes both slots.
        assert_eq!(s[0].map[0].start_s, 1.0);
        assert_eq!(s[0].map[1].start_s, 1.0);
        // At t=11 both free up: both jobs hold 0 slots, but job 1 has 0
        // attained slot-seconds vs job 0's 20, so job 1 gets the first
        // slot and job 0 (now the lower slot count) the second. The same
        // dance repeats at t=21 for the tails.
        assert_eq!(s[1].map[0].start_s, 11.0);
        assert_eq!(s[0].map[2].start_s, 11.0);
        assert_eq!(s[1].map[1].start_s, 21.0);
        assert_eq!(s[0].map_end_s, 31.0, "job 0's tail serializes on 1 slot");
        assert_eq!(s[1].map_end_s, 31.0);
    }

    #[test]
    fn capacity_weights_tenant_shares() {
        let mut cluster = ClusterSpec::tiny(1);
        cluster.map_slots = 4; // one node, four map slots
        let mut lo = sim_job(0, 0.0, 8);
        lo.weight = 1.0;
        lo.map_cap_per_node = 4;
        let mut hi = sim_job(1, 0.0, 8);
        hi.weight = 3.0;
        hi.map_cap_per_node = 4;
        let s = interleave(&[lo, hi], &cluster, SchedPolicy::Capacity);
        // First wave (t=1): the id tiebreak hands tenant 0 one slot, after
        // which tenant 1's weight-normalized share (k/3) stays below tenant
        // 0's (1/1) until tenant 1 holds 3 of the 4 slots — a 3:1 split.
        let wave1 = |sch: &JobSchedule| sch.map.iter().filter(|p| p.start_s == 1.0).count();
        assert_eq!(wave1(&s[0]), 1);
        assert_eq!(wave1(&s[1]), 3);
        // Sustaining that split, the weighted tenant clears its 8 tasks in
        // three waves while tenant 0 needs the cluster to drain first.
        assert_eq!(s[1].map_end_s, 31.0);
        assert_eq!(s[0].map_end_s, 41.0);
    }

    #[test]
    fn declared_memory_caps_cross_job_admission() {
        let cluster = ClusterSpec::tiny(1); // 2 map slots, 4 GB node
        let mut a = sim_job(0, 0.0, 1);
        a.task_mem = 3 << 30;
        let mut b = sim_job(1, 0.0, 1);
        b.task_mem = 3 << 30;
        let s = interleave(&[a, b], &cluster, SchedPolicy::Fair);
        // Two free slots, but 3 GB + 3 GB > 4 GB: job 1's map waits for job
        // 0's to release the node's declared memory.
        assert_eq!(s[0].map[0].start_s, 1.0);
        assert_eq!(s[1].map[0].start_s, 11.0);
    }

    #[test]
    fn fair_improves_late_small_job_latency_over_fifo() {
        let cluster = ClusterSpec::tiny(2); // 2 nodes x 2 map slots
                                            // A burst of big jobs at t=0, then a small interactive job at t=2.
        let mut jobs: Vec<SimJob> = (0..4)
            .map(|i| {
                let mut j = sim_job(0, 0.0, 4);
                j.map_tasks = (0..4).map(|k| (k % 2, 10.0)).collect();
                j.arrival_s = 0.1 * i as f64;
                j
            })
            .collect();
        let mut small = sim_job(1, 2.0, 1);
        small.reduce_tasks.clear();
        small.shuffle_s = 0.0;
        jobs.push(small);
        let fifo = interleave(&jobs, &cluster, SchedPolicy::Fifo);
        let fair = interleave(&jobs, &cluster, SchedPolicy::Fair);
        let lat = |s: &[JobSchedule]| s[4].finish_s - jobs[4].arrival_s;
        assert!(
            lat(&fair) < lat(&fifo),
            "fair {} !< fifo {}",
            lat(&fair),
            lat(&fifo)
        );
    }

    #[test]
    fn interleave_is_deterministic_and_complete() {
        let cluster = ClusterSpec::tiny(3);
        let jobs: Vec<SimJob> = (0..6)
            .map(|i| {
                let mut j = sim_job(i % 3, 0.7 * i as f64, 3 + i % 2);
                j.map_tasks = (0..j.map_tasks.len()).map(|k| ((i + k) % 3, 8.0)).collect();
                j
            })
            .collect();
        for policy in SchedPolicy::all() {
            let a = interleave(&jobs, &cluster, policy);
            let b = interleave(&jobs, &cluster, policy);
            assert_eq!(a.len(), jobs.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.map, y.map);
                assert_eq!(x.reduce, y.reduce);
                assert_eq!(x.finish_s.to_bits(), y.finish_s.to_bits());
                assert!(x.finish_s.is_finite());
            }
            // Every task placed exactly once; no slot oversubscription.
            for (j, s) in a.iter().enumerate() {
                assert_eq!(s.map.len(), jobs[j].map_tasks.len());
                assert_eq!(s.reduce.len(), jobs[j].reduce_tasks.len());
                assert!(s.first_slot_s >= jobs[j].ready_s());
            }
            let mut events: Vec<(f64, i32, usize)> = Vec::new(); // (t, +1/-1, node)
            for s in &a {
                for p in &s.map {
                    events.push((p.start_s, 1, p.node));
                    events.push((p.finish_s(), -1, p.node));
                }
            }
            events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            let mut busy = [0i32; 3];
            for (_, d, node) in events {
                busy[node] += d;
                assert!(busy[node] <= cluster.map_slots as i32);
            }
        }
    }

    /// A lone job's stage lasts as long as its busiest node: a node's slots
    /// drain its queue in waves, and nothing ends before its longest task.
    #[test]
    fn solo_stage_ends_with_its_slowest_node() {
        let span = |slots: u32, tasks: &[(usize, f64)]| {
            let mut job = sim_job(0, 0.0, 0);
            job.setup_s = 0.0;
            job.map_tasks = tasks.to_vec();
            job.map_cap_per_node = slots;
            let s = interleave(&[job], &ClusterSpec::tiny(2), SchedPolicy::Fifo);
            assert_eq!(s[0].map_end_s, stage_span(&s[0].map, 0.0));
            s[0].map_end_s
        };
        let tasks = [(0, 10.0), (0, 10.0), (1, 5.0)];
        assert_eq!(span(1, &tasks), 20.0);
        assert_eq!(span(2, &tasks), 10.0);
        assert_eq!(span(1, &[]), 0.0);
        // Three tasks on two slots take two waves, not 3/2 of one.
        assert_eq!(span(2, &[(0, 10.0), (0, 10.0), (0, 10.0)]), 20.0);
        // A stage that starts late still spans exactly its longest task.
        let late = [Placement {
            task: 0,
            node: 0,
            slot: 0,
            start_s: 0.1 + 0.2,
            dur_s: 0.7,
        }];
        assert_eq!(stage_span(&late, 0.1 + 0.2), 0.7);
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
    /// fixtures of the three policy tests above.
    #[test]
    fn per_node_queues_reproduce_the_flat_list_grants() {
        let one = ClusterSpec::tiny(1);
        let fifo = interleave(
            &[sim_job(0, 0.0, 2), sim_job(1, 0.5, 2)],
            &one,
            SchedPolicy::Fifo,
        );
        assert_eq!(grants(&fifo), FLAT_FIFO);
        let fair = interleave(
            &[sim_job(0, 0.0, 4), sim_job(1, 0.5, 2)],
            &one,
            SchedPolicy::Fair,
        );
        assert_eq!(grants(&fair), FLAT_FAIR);
        let mut four = ClusterSpec::tiny(1);
        four.map_slots = 4;
        let mut lo = sim_job(0, 0.0, 8);
        lo.map_cap_per_node = 4;
        let mut hi = sim_job(1, 0.0, 8);
        hi.weight = 3.0;
        hi.map_cap_per_node = 4;
        let cap = interleave(&[lo, hi], &four, SchedPolicy::Capacity);
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
            let s = interleave(&jobs, &ClusterSpec::tiny(3), policy);
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

    #[test]
    fn policy_labels_roundtrip() {
        for p in SchedPolicy::all() {
            assert_eq!(SchedPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(SchedPolicy::parse("lifo"), None);
    }
}
