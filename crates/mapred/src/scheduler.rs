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
//! answer to "when does a task run?": [`Sim`] is a discrete-event simulation
//! that multiplexes the map/reduce slots (and declared-memory capacity) of
//! one [`ClusterSpec`] across N jobs under a [`SchedPolicy`], entirely in
//! simulated time. A solo job is the N = 1 case
//! ([`crate::job::JobProfile::schedule`] prices every figure off it), the job
//! server steps it one arrival at a time, and every swimlane
//! ([`crate::history::job_history`]) is a rendering of its [`Placement`]s.
//! Every choice breaks ties on ids, so the schedule is a pure function of
//! its inputs — byte-identical across reruns and host thread counts. The
//! input is checked once (every task on a node of the cluster, every time
//! finite and non-negative); after that the simulator's state is one record
//! per job, node and tenant, reached only by ids it minted itself.

use crate::cost::JobCost;
use crate::input::InputSplit;
use clyde_common::{ClydeError, Result};
use clyde_dfs::{ClusterSpec, NodeId};
use std::collections::{BTreeSet, VecDeque};

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
    let mut pending = vec![0u64; cluster.num_workers()];
    let mut out = Vec::with_capacity(splits.len());
    for split in splits {
        let least_loaded = |listed_only: bool| {
            pending
                .iter()
                .enumerate()
                .filter(|&(node, _)| !listed_only || split.hosts.contains(&NodeId(node)))
                .min_by_key(|&(_, bytes)| *bytes)
                .map(|(node, _)| node)
        };
        let chosen = least_loaded(true)
            .or_else(|| least_loaded(false))
            .unwrap_or(0);
        if let Some(bytes) = pending.get_mut(chosen) {
            *bytes += split.bytes.max(1);
        }
        out.push(NodeId(chosen));
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
    /// Tenant id (for the fair/capacity policies' per-tenant shares).
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
fn stage_span(lanes: &[Placement], ready_s: f64) -> f64 {
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
    /// The stage bands, the one conversion from placements to seconds: a
    /// stage lasts from when it became schedulable to its latest lane end,
    /// so the bands tile arrival to `finish_s`.
    pub cost: JobCost,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum JState {
    /// Submitted, not yet past client setup.
    Pending,
    /// Competing for map slots.
    Mapping,
    /// All maps done; the shuffle is in flight until `until`.
    Shuffling {
        until: f64,
    },
    /// Competing for reduce slots.
    Reducing,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RKind {
    Map,
    Reduce,
}

/// A task holding a slot until `finish_s`.
struct Running {
    finish_s: f64,
    kind: RKind,
    node: usize,
    slot: u32,
}

/// Policy priority key, lower wins: (policy primary, attained service,
/// arrival time, job id). See [`Share::key`].
type SchedKey = (f64, f64, f64, usize);

/// One stage of one job. Tasks are node-affine and start in index order, so
/// each node keeps a FIFO of its `(task, duration)`s and the next task to
/// start is the lowest queue head among the nodes that can take one.
struct Stage {
    queues: Vec<VecDeque<(usize, f64)>>,
    /// Tasks not yet finished.
    left: usize,
}

impl Stage {
    fn new(tasks: &[(usize, f64)], nodes: usize) -> Result<Stage> {
        let (mut queues, left) = (vec![VecDeque::new(); nodes], tasks.len());
        for (task, &(node, dur)) in tasks.iter().enumerate() {
            at(queues.get_mut(node), "node")?.push_back((task, dur));
        }
        Ok(Stage { queues, left })
    }
}

/// One job's run through the simulator.
struct JobRun {
    job: SimJob,
    /// The job's tenant, as an index into [`Sim::shares`].
    share: usize,
    state: JState,
    map: Stage,
    reduce: Stage,
    /// Running map tasks per node, held under the job's per-node cap.
    maps_on: Vec<u32>,
    running: Vec<Running>,
    out: JobSchedule,
}

/// One worker: its slot pools (free slot ids, lowest handed out first, for
/// stable swimlane lanes) and the declared memory its running maps hold.
struct NodeRun {
    map_slots: BTreeSet<u32>,
    reduce_slots: BTreeSet<u32>,
    mem_used: u64,
}

/// One tenant's share of the cluster.
#[derive(Debug, Clone, Copy, Default)]
struct Share {
    /// Slots (map + reduce) the tenant holds now.
    slots: u32,
    /// Slot-seconds granted so far (attained service).
    service: f64,
}

/// The slot simulator as a stepping core: [`Sim::admit`] a job at its
/// arrival, [`Sim::advance`] to an instant, and [`Sim::finished_by`] lists
/// the jobs done by then. [`interleave`] admits every job and runs to the end.
pub struct Sim {
    policy: SchedPolicy,
    node_mem: u64,
    /// Every event before this instant has run; no job may arrive earlier.
    now: f64,
    jobs: Vec<JobRun>,
    nodes: Vec<NodeRun>,
    /// Tenant ids in order of first admission; `shares[i]` is `tenants[i]`'s.
    tenants: Vec<usize>,
    shares: Vec<Share>,
}

/// The one lookup every id goes through once [`check`] has passed: node ids
/// were checked against the cluster there, and job and tenant ids are minted
/// by [`Sim::admit`], so a miss is a simulator bug, reported as a typed error.
fn at<T>(found: Option<T>, what: &str) -> Result<T> {
    found.ok_or_else(|| ClydeError::MapReduce(format!("slot simulator lost a {what}")))
}

/// Reject what the simulator cannot run: a task on a node outside the
/// cluster, or a time that is negative or not finite (a NaN duration never
/// finishes, so its job's reduces would silently never run).
fn check(j: usize, job: &SimJob, nodes: usize) -> Result<()> {
    let bad = |what: String| Err(ClydeError::Config(format!("simulated job {j} {what}")));
    for (name, s) in [
        ("arrival", job.arrival_s),
        ("setup", job.setup_s),
        ("shuffle", job.shuffle_s),
        ("overhead", job.overhead_s),
    ] {
        if !(s.is_finite() && s >= 0.0) {
            return bad(format!("has {name} time {s}"));
        }
    }
    for (kind, tasks) in [("map", &job.map_tasks), ("reduce", &job.reduce_tasks)] {
        for (task, &(node, dur)) in tasks.iter().enumerate() {
            if node >= nodes {
                return bad(format!("{kind} task {task} is on node {node} of {nodes}"));
            }
            if !(dur.is_finite() && dur >= 0.0) {
                return bad(format!("{kind} task {task} lasts {dur}s"));
            }
        }
    }
    Ok(())
}

/// Run the discrete-event slot simulation: interleave every job's map and
/// reduce tasks over `cluster`'s per-node slots under `policy`. Tasks are
/// node-affine (the recorded placement is kept); within a job, tasks start
/// in index order. Returns one schedule per job, same order as `jobs`, or a
/// `Config` error for a task on a node outside `cluster`, a negative or
/// non-finite time, or times whose sum overflows the clock.
pub fn interleave(
    jobs: &[SimJob],
    cluster: &ClusterSpec,
    policy: SchedPolicy,
) -> Result<Vec<JobSchedule>> {
    let mut sim = Sim::new(cluster, policy);
    for job in jobs {
        sim.admit(job.clone())?;
    }
    sim.run()
}

impl Sim {
    pub fn new(cluster: &ClusterSpec, policy: SchedPolicy) -> Sim {
        let node = || NodeRun {
            map_slots: (0..cluster.map_slots.max(1)).collect(),
            reduce_slots: (0..cluster.reduce_slots.max(1)).collect(),
            mem_used: 0,
        };
        Sim {
            policy,
            node_mem: cluster.node.memory_bytes,
            now: 0.0,
            jobs: Vec::new(),
            nodes: (0..cluster.num_workers().max(1)).map(|_| node()).collect(),
            tenants: Vec::new(),
            shares: Vec::new(),
        }
    }

    /// Admit `job` as the next job id; a `Config` error for a task off the
    /// cluster, a bad time, or an arrival before an instant advanced to.
    pub fn admit(&mut self, job: SimJob) -> Result<()> {
        let (j, nodes) = (self.jobs.len(), self.nodes.len());
        check(j, &job, nodes)?;
        if job.arrival_s < self.now {
            return Err(ClydeError::Config(format!(
                "simulated job {j} arrives at {}s, before the simulator's clock at {}s",
                job.arrival_s, self.now
            )));
        }
        let tenant = self.tenants.iter().position(|&t| t == job.tenant);
        let share = tenant.unwrap_or_else(|| {
            self.tenants.push(job.tenant);
            self.shares.push(Share::default());
            self.shares.len() - 1
        });
        self.jobs.push(JobRun {
            share,
            state: JState::Pending,
            map: Stage::new(&job.map_tasks, nodes)?,
            reduce: Stage::new(&job.reduce_tasks, nodes)?,
            maps_on: vec![0; nodes],
            running: Vec::new(),
            out: JobSchedule::default(),
            job,
        });
        Ok(())
    }

    /// Run every event before `t`. Events at `t` itself wait for the next
    /// advance, so a job admitted at `t` takes part in them exactly as it
    /// would had it been admitted up front.
    pub fn advance(&mut self, t: f64) -> Result<()> {
        while let Some(e) = self.next_event_time().filter(|&e| e < t) {
            for run in &mut self.jobs {
                run.retire(e, &mut self.nodes, &mut self.shares)?;
            }
            self.assign(e)?;
        }
        self.now = self.now.max(t);
        Ok(())
    }

    /// The jobs whose finish (last task plus overhead) the simulator has
    /// reached by `t`, in finish order, ties by id. A job whose last task
    /// ends exactly at `t` and that has no overhead counts from the next
    /// advance.
    pub fn finished_by(&self, t: f64) -> Vec<usize> {
        let mut done: Vec<(f64, usize)> = (self.jobs.iter().enumerate())
            .filter(|(_, run)| run.state == JState::Done && run.out.finish_s <= t)
            .map(|(j, run)| (run.out.finish_s, j))
            .collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        done.into_iter().map(|(_, j)| j).collect()
    }

    /// Run every remaining event; one schedule per job, in id order.
    pub fn run(mut self) -> Result<Vec<JobSchedule>> {
        self.advance(f64::INFINITY)?;
        self.jobs.into_iter().map(JobRun::finish).collect()
    }

    /// Earliest pending event: a job becoming ready, a running task
    /// finishing, or a shuffle completing. `None` once everything is done.
    fn next_event_time(&self) -> Option<f64> {
        let t = self
            .jobs
            .iter()
            .flat_map(|run| {
                let stage_end = match run.state {
                    JState::Pending => Some(run.job.ready_s()),
                    JState::Shuffling { until } => Some(until),
                    _ => None,
                };
                stage_end
                    .into_iter()
                    .chain(run.running.iter().map(|r| r.finish_s))
            })
            .fold(f64::INFINITY, f64::min);
        t.is_finite().then_some(t)
    }

    /// Hand out every slot that can be filled at time `t`: repeatedly pick
    /// the best-priority job with an assignable task until nothing fits.
    /// Keys are re-evaluated after each grant, so fair/capacity shares shift
    /// as slots are taken.
    fn assign(&mut self, t: f64) -> Result<()> {
        loop {
            let mut best: Option<(SchedKey, usize, RKind, usize)> = None;
            for (j, run) in self.jobs.iter().enumerate() {
                let Some((kind, node)) = run.next_task(&self.nodes, self.node_mem) else {
                    continue;
                };
                let key = at(self.shares.get(run.share), "tenant")?.key(self.policy, &run.job, j);
                let better = best.is_none_or(|(bk, ..)| {
                    key.0
                        .total_cmp(&bk.0)
                        .then(key.1.total_cmp(&bk.1))
                        .then(key.2.total_cmp(&bk.2))
                        .then(key.3.cmp(&bk.3))
                        .is_lt()
                });
                if better {
                    best = Some((key, j, kind, node));
                }
            }
            let Some((_, j, kind, node)) = best else {
                return Ok(());
            };
            self.grant(j, kind, node, t)?;
        }
    }

    /// Start job `j`'s next `kind` task queued on `node` at `t`, on the
    /// node's lowest free slot.
    fn grant(&mut self, j: usize, kind: RKind, node: usize, t: f64) -> Result<()> {
        let run = at(self.jobs.get_mut(j), "job")?;
        let worker = at(self.nodes.get_mut(node), "node")?;
        let slot = at(worker.pool(kind).pop_first(), "free slot")?;
        let (stage, lanes) = run.stage(kind);
        let queued = stage.queues.get_mut(node).and_then(VecDeque::pop_front);
        let (task, dur) = at(queued, "queued task")?;
        lanes.push(Placement {
            task,
            node,
            slot,
            start_s: t,
            dur_s: dur,
        });
        if kind == RKind::Map {
            worker.mem_used += run.job.task_mem;
            *at(run.maps_on.get_mut(node), "node")? += 1;
        }
        let share = at(self.shares.get_mut(run.share), "tenant")?;
        share.slots += 1;
        share.service += dur;
        run.running.push(Running {
            finish_s: t + dur,
            kind,
            node,
            slot,
        });
        Ok(())
    }
}

impl Share {
    /// The policy's priority key for job `j`: lower wins. Fair/capacity
    /// break ties on least attained service (slot-seconds granted so far),
    /// then arrival order, then job id, so every decision is total and
    /// deterministic — and a fresh job is not starved by an earlier-arrived
    /// backlog that is momentarily holding zero slots.
    fn key(self, policy: SchedPolicy, job: &SimJob, j: usize) -> SchedKey {
        let (primary, service) = match policy {
            SchedPolicy::Fifo => (0.0, 0.0),
            SchedPolicy::Fair => (f64::from(self.slots), self.service),
            SchedPolicy::Capacity => {
                let w = job.weight.max(1e-9);
                (f64::from(self.slots) / w, self.service / w)
            }
        };
        (primary, service, job.arrival_s, j)
    }
}

impl NodeRun {
    fn pool(&mut self, kind: RKind) -> &mut BTreeSet<u32> {
        match kind {
            RKind::Map => &mut self.map_slots,
            RKind::Reduce => &mut self.reduce_slots,
        }
    }
}

impl JobRun {
    fn stage(&mut self, kind: RKind) -> (&mut Stage, &mut Vec<Placement>) {
        match kind {
            RKind::Map => (&mut self.map, &mut self.out.map),
            RKind::Reduce => (&mut self.reduce, &mut self.out.reduce),
        }
    }

    /// The node of the lowest-index task of the current stage that can start
    /// now. A reduce needs a free slot; a map also needs room under the job's
    /// per-node cap and under the node's declared memory (an oversized
    /// declaration still runs alone).
    fn next_task(&self, nodes: &[NodeRun], node_mem: u64) -> Option<(RKind, usize)> {
        let (kind, stage) = match self.state {
            JState::Mapping => (RKind::Map, &self.map),
            JState::Reducing => (RKind::Reduce, &self.reduce),
            _ => return None,
        };
        let fits = |worker: &NodeRun, maps_on: u32| match kind {
            RKind::Map => {
                !worker.map_slots.is_empty()
                    && maps_on < self.job.map_cap_per_node.max(1)
                    && (worker.mem_used.saturating_add(self.job.task_mem) <= node_mem
                        || worker.mem_used == 0)
            }
            RKind::Reduce => !worker.reduce_slots.is_empty(),
        };
        stage
            .queues
            .iter()
            .zip(nodes.iter().zip(&self.maps_on))
            .enumerate()
            .filter(|(_, (_, (worker, &maps_on)))| fits(worker, maps_on))
            .filter_map(|(node, (queue, _))| queue.front().map(|&(task, _)| (task, node)))
            .min()
            .map(|(_, node)| (kind, node))
    }

    /// Retire this job's tasks that finish exactly at `t` (finish times are
    /// reused bit-for-bit, so exact comparison is sound; a retirement only
    /// returns what its grant took, so their order is free), then move the
    /// job past every stage boundary it reached at `t`.
    fn retire(&mut self, t: f64, nodes: &mut [NodeRun], shares: &mut [Share]) -> Result<()> {
        let done: Vec<Running> = self.running.extract_if(.., |r| r.finish_s == t).collect();
        for r in done {
            let worker = at(nodes.get_mut(r.node), "node")?;
            worker.pool(r.kind).insert(r.slot);
            at(shares.get_mut(self.share), "tenant")?.slots -= 1;
            if r.kind == RKind::Map {
                worker.mem_used -= self.job.task_mem;
                *at(self.maps_on.get_mut(r.node), "node")? -= 1;
            }
            self.stage(r.kind).0.left -= 1;
        }
        // In the order the stages chain: a stage that ends at `t` starts the
        // next one at `t`, but a job that only becomes ready at `t` enters a
        // shuffle no sooner than the next event.
        if self.state == JState::Mapping && self.map.left == 0 {
            self.past_maps(t);
        }
        if self.state == JState::Reducing && self.reduce.left == 0 {
            self.state = self.done(t);
        }
        if matches!(self.state, JState::Shuffling { until } if until <= t) {
            self.state = JState::Reducing;
        }
        if self.state == JState::Pending && self.job.ready_s() <= t {
            if self.map.left == 0 {
                self.past_maps(t);
            } else {
                self.state = JState::Mapping;
            }
        }
        Ok(())
    }

    /// The job's maps are all done at `t`: start its shuffle, or finish it
    /// if it has no reduces.
    fn past_maps(&mut self, t: f64) {
        self.out.map_end_s = t;
        self.state = if self.reduce.left == 0 {
            // Map-only: the shuffle stage is empty but still recorded.
            self.done(t + self.job.shuffle_s)
        } else if self.job.shuffle_s > 0.0 {
            JState::Shuffling {
                until: t + self.job.shuffle_s,
            }
        } else {
            JState::Reducing
        };
    }

    /// The job's last stage ends at `reduce_end_s`; it finishes after that
    /// plus its overhead.
    fn done(&mut self, reduce_end_s: f64) -> JState {
        self.out.reduce_end_s = reduce_end_s;
        self.out.finish_s = reduce_end_s + self.job.overhead_s;
        JState::Done
    }

    /// The job's schedule: lanes in task order plus the derived bounds and
    /// stage bands. A job that never finished had a time overflow the
    /// simulated clock.
    fn finish(self) -> Result<JobSchedule> {
        if self.state != JState::Done {
            return Err(ClydeError::Config(
                "slot simulator: a job's times overflow the simulated clock".into(),
            ));
        }
        let mut sched = self.out;
        sched.map.sort_by_key(|p| p.task);
        sched.reduce.sort_by_key(|p| p.task);
        let starts = sched.map.iter().chain(&sched.reduce).map(|p| p.start_s);
        sched.first_slot_s = starts.reduce(f64::min).unwrap_or(self.job.ready_s());
        let job = &self.job;
        sched.cost = JobCost {
            setup_s: job.setup_s,
            map_s: stage_span(&sched.map, job.ready_s()),
            shuffle_s: job.shuffle_s,
            reduce_s: stage_span(&sched.reduce, sched.map_end_s + job.shuffle_s),
            overhead_s: job.overhead_s,
        };
        Ok(sched)
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
        let s = interleave(&jobs, &cluster, SchedPolicy::Fifo).unwrap();
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
        let s = interleave(&jobs, &cluster, SchedPolicy::Fair).unwrap();
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
        let s = interleave(&[lo, hi], &cluster, SchedPolicy::Capacity).unwrap();
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
        let s = interleave(&[a, b], &cluster, SchedPolicy::Fair).unwrap();
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
        let fifo = interleave(&jobs, &cluster, SchedPolicy::Fifo).unwrap();
        let fair = interleave(&jobs, &cluster, SchedPolicy::Fair).unwrap();
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
            let a = interleave(&jobs, &cluster, policy).unwrap();
            let b = interleave(&jobs, &cluster, policy).unwrap();
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

    /// Every number of a schedule, bit for bit.
    fn bits(s: &JobSchedule) -> Vec<u64> {
        let lanes = s.map.iter().chain(&s.reduce).flat_map(|p| {
            let (start, dur) = (p.start_s.to_bits(), p.dur_s.to_bits());
            [p.task as u64, p.node as u64, u64::from(p.slot), start, dur]
        });
        let c = &s.cost;
        let times = [s.first_slot_s, s.map_end_s, s.reduce_end_s, s.finish_s];
        let bands = [c.setup_s, c.map_s, c.shuffle_s, c.reduce_s, c.overhead_s];
        lanes
            .chain(times.into_iter().chain(bands).map(f64::to_bits))
            .collect()
    }

    /// The jobs of `interleave_is_deterministic_and_complete`, plus two
    /// without setup that arrive at 9.0, when job 0's first maps finish, and
    /// one more without setup.
    fn stepping_jobs() -> Vec<SimJob> {
        let mut jobs: Vec<SimJob> = (0..6)
            .map(|i| {
                let mut j = sim_job(i % 3, 0.7 * i as f64, 3 + i % 2);
                j.map_tasks = (0..j.map_tasks.len()).map(|k| ((i + k) % 3, 8.0)).collect();
                j
            })
            .collect();
        jobs[2].setup_s = 0.0;
        for tenant in [1, 2] {
            jobs.push(SimJob {
                setup_s: 0.0,
                ..sim_job(tenant, 9.0, tenant)
            });
        }
        jobs
    }

    /// The job server's use of the simulator: admitting the jobs one at a
    /// time in arrival order, advancing to each arrival first, schedules
    /// exactly what admitting them all up front does.
    #[test]
    fn stepping_in_arrival_order_equals_the_batch_schedule() {
        let cluster = ClusterSpec::tiny(3);
        let jobs = stepping_jobs();
        for policy in SchedPolicy::all() {
            let batch = interleave(&jobs, &cluster, policy).unwrap();
            assert!(batch[0].map.iter().any(|p| p.finish_s() == 9.0));
            let mut sim = Sim::new(&cluster, policy);
            for job in &jobs {
                sim.advance(job.arrival_s).unwrap();
                sim.admit(job.clone()).unwrap();
            }
            let stepped = sim.run().unwrap();
            assert_eq!(stepped.len(), batch.len());
            for (j, (a, b)) in stepped.iter().zip(&batch).enumerate() {
                assert_eq!(bits(a), bits(b), "job {j} under {}", policy.label());
            }
        }
    }

    /// `finished_by` lists the jobs whose finish the clock has passed, in
    /// finish order, and no job may arrive before the clock.
    #[test]
    fn finished_jobs_are_reported_in_finish_order() {
        let cluster = ClusterSpec::tiny(3);
        let jobs = stepping_jobs();
        let batch = interleave(&jobs, &cluster, SchedPolicy::Fair).unwrap();
        let mut sim = Sim::new(&cluster, SchedPolicy::Fair);
        for job in &jobs {
            sim.admit(job.clone()).unwrap();
        }
        let t = batch[1].finish_s;
        sim.advance(t).unwrap();
        let mut by_finish: Vec<usize> = (0..jobs.len()).collect();
        by_finish.sort_by(|&a, &b| batch[a].finish_s.total_cmp(&batch[b].finish_s));
        let expect: Vec<usize> = (by_finish.into_iter())
            .filter(|&j| batch[j].finish_s <= t)
            .collect();
        assert!(expect.contains(&1));
        assert_eq!(sim.finished_by(t), expect);
        assert!(matches!(
            sim.admit(sim_job(0, t - 1.0, 1)),
            Err(ClydeError::Config(_))
        ));
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
            let s = interleave(&[job], &ClusterSpec::tiny(2), SchedPolicy::Fifo).unwrap();
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

    #[test]
    fn policy_labels_roundtrip() {
        for p in SchedPolicy::all() {
            assert_eq!(SchedPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(SchedPolicy::parse("lifo"), None);
    }
}
