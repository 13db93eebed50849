//! Job execution.
//!
//! The engine really runs jobs: one worker thread per simulated cluster node
//! drains that node's task queue, tasks read real bytes from the simulated
//! DFS, and the shuffle sorts and merges real records. Simulated time never
//! depends on wall-clock — it is derived afterwards from the recorded
//! [`TaskCost`] counters, so results and costs are
//! deterministic no matter how the OS schedules the threads.
//!
//! Failed map tasks are **re-executed** on alternate nodes up to the job's
//! attempt budget — Hadoop's fault-tolerance contract, one of the properties
//! the paper keeps by staying on an unmodified platform. Out-of-memory
//! failures are not retried: exhausting a deterministic resource model would
//! fail identically everywhere (and this is how the paper's cluster-A
//! mapjoin queries "did not complete").

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the engine's per-job shared state; thread results come back \
                through join handles"
)]

use crate::cost::{CostParams, JobCost, TaskCost};
use crate::distcache::DistCache;
use crate::fanout::fan_out;
use crate::fault::FaultPlan;
use crate::history;
use crate::input::{InputSplit, SplitSpec};
use crate::job::{
    Arrival, JobProfile, JobResult, JobSpec, KilledAttempt, OutputSpec, TaskProfile,
    MAX_TASK_ATTEMPTS,
};
use crate::scheduler::{self, JobSchedule, SchedPolicy, Sim};
use crate::shuffle::{self, ReduceSink, Reducer, Run};
use crate::task::{
    note_wall_phase, MapOutputBuffer, MapTaskContext, MemoryLedger, MemoryTracker, NodeState,
    ResidentStats, ResidentStore, TaskIo,
};
use clyde_common::lockorder::Mutex;
use clyde_common::obs::{catalog as series, JobRef, Obs, Phase, SpanKind, TaskKind, WallTimer};
use clyde_common::{rowcodec, ClydeError, Result, Row};
use clyde_dfs::{CacheEntry, ClusterSpec, Dfs, IoSnapshot, NodeId, NodeLocalStore};
use std::sync::Arc;

/// A node is blacklisted for further retries once this many of its attempts
/// have failed within one job (Hadoop's `mapred.max.tracker.failures`).
/// Advisory: retries merely *prefer* clean nodes; only DFS-dead nodes are
/// hard-excluded, so a healthy-but-unlucky cluster can still finish the job.
const BLACKLIST_AFTER_FAILURES: u32 = 3;

/// Artifacts prepared by the job client before submission (Hive's master
/// builds mapjoin hash tables here).
#[derive(Default, Clone)]
pub struct ClientArtifacts {
    pub cache: Arc<DistCache>,
    /// Rows the client scanned/inserted building the artifacts.
    pub build_rows: u64,
    /// Wall-clock of that build (observability-only).
    pub build_wall_ns: u64,
}

/// Output of one executed map task, waiting for the shuffle.
struct TaskOutput {
    /// One serialized run per reducer, in reducer order.
    runs: Vec<Run>,
    /// A map-only job's rows, in emit order, when they are kept in memory.
    rows: Vec<Row>,
    /// Encoded key plus value bytes of `runs`, for a job with reducers.
    shuffle_bytes: u64,
    cost: TaskCost,
    node: NodeId,
    output_file: Option<String>,
    /// Measured wall-clock of the whole attempt (observability-only).
    wall_ns: u64,
    /// Wall-clock the runner attributed to specific phases.
    wall_phases: Vec<(Phase, u64)>,
    /// Whether this output came from a speculative backup attempt.
    speculative: bool,
}

/// Planning's hand-off: everything fixed before any task ran.
struct JobPlan {
    splits: Vec<InputSplit>,
    /// `assignment[i]` is the node the first attempt of `splits[i]` runs on.
    assignment: Vec<NodeId>,
    /// Map tasks of this job a node runs at once.
    concurrency: u32,
    /// Result-cache key, when the job is cacheable and the cache is on.
    fingerprint: Option<u64>,
}

/// A job that has run, unpriced, with its cache fill and history held back
/// for the [`Timeline`] it joins.
pub(crate) struct Executed {
    result: JobResult,
    /// The job's DFS I/O, its fill's included once committed (obs on only).
    io: Option<IoSnapshot>,
    /// The job's result-cache fill, when the job is cacheable and missed.
    fill: Option<CacheFill>,
    /// Bytes of the result-cache entry a hit read instead of running.
    cached_bytes: Option<u64>,
}

/// A result-cache entry waiting to be committed: an in-memory job's encoded
/// rows, or (`rows: None`) a copy of the part files a DFS-dir job wrote.
pub(crate) struct CacheFill {
    entry: CacheEntry,
    rows: Option<Vec<u8>>,
}

/// Planning either finds the job's output in the result cache or plans a run.
enum Planned {
    Cached(CacheEntry),
    Run(JobPlan),
}

/// The first map wave's hand-off: committed outputs by task index (`None`
/// where the first attempt failed) and those failures in task order.
struct MapWave {
    outputs: Vec<Option<TaskOutput>>,
    failures: Vec<(usize, NodeId, ClydeError)>,
}

/// What recovery did, as the job profile reports it. The retry wave starts
/// it and speculation adds to it.
#[derive(Default)]
struct Recovery {
    dead_nodes: Vec<NodeId>,
    rereplicated_blocks: u64,
    blacklisted: Vec<bool>,
    node_failures: Vec<u32>,
    failed_attempts: u32,
    speculative_attempts: u32,
    speculative_wins: u32,
    killed_attempts: Vec<KilledAttempt>,
}

impl Recovery {
    /// Count a failed attempt on `node`, blacklisting the node once it has
    /// failed [`BLACKLIST_AFTER_FAILURES`] of them.
    fn attempt_failed(&mut self, node: NodeId) {
        self.failed_attempts += 1;
        let Some(count) = self.node_failures.get_mut(node.0) else {
            return;
        };
        *count += 1;
        if *count >= BLACKLIST_AFTER_FAILURES {
            if let Some(b) = self.blacklisted.get_mut(node.0) {
                *b = true;
            }
        }
    }
}

/// The shuffle/reduce phase's hand-off.
#[derive(Default)]
struct Reduced {
    rows: Vec<Row>,
    output_files: Vec<String>,
    reduce_tasks: Vec<TaskProfile>,
    shuffle_bytes: u64,
    /// Wall-clock the reduce tasks attributed to phases, in reducer order.
    wall_phases: Vec<(Phase, u64)>,
}

/// Everything a map-task attempt needs, bundled so the first parallel wave,
/// the sequential retry path and speculation share one execution function.
struct MapTaskEnv<'a> {
    spec: &'a JobSpec,
    plan: &'a JobPlan,
    client: &'a ClientArtifacts,
    dfs: &'a Arc<Dfs>,
    local: &'a Arc<NodeLocalStore>,
    node_states: Vec<Arc<NodeState>>,
    memories: Vec<Arc<MemoryTracker>>,
    ledger: Arc<MemoryLedger>,
    threads: u32,
    host_threads: u32,
    map_only: bool,
    params: &'a CostParams,
    cluster: &'a ClusterSpec,
    faults: Option<&'a FaultPlan>,
}

impl MapTaskEnv<'_> {
    /// Execute one attempt of one map task on `node`.
    fn exec(&self, task_idx: usize, node: NodeId) -> Result<TaskOutput> {
        let wall_start = WallTimer::start();
        let (Some(split), Some(node_state), Some(memory)) = (
            self.plan.splits.get(task_idx),
            self.node_states.get(node.0),
            self.memories.get(node.0),
        ) else {
            return Err(ClydeError::MapReduce(format!(
                "map task {task_idx} has no split, or node {} has no state",
                node.0
            )));
        };
        let io = TaskIo::new(Arc::clone(self.dfs), node);
        let out = Arc::new(MapOutputBuffer::new());
        let cost = Arc::new(Mutex::new(TaskCost {
            threads: self.threads,
            ..TaskCost::new()
        }));
        let state = if self.spec.reuse_jvm {
            Arc::clone(node_state)
        } else {
            Arc::new(NodeState::new())
        };
        let memory = Arc::clone(memory);
        let ctx = MapTaskContext {
            conf: &self.spec.conf,
            split,
            input: &*self.spec.input,
            io: io.clone(),
            node,
            threads: self.threads,
            host_threads: self.host_threads,
            slot_concurrency: self.plan.concurrency,
            node_state: state,
            memory: Arc::clone(&memory),
            ledger: Arc::clone(&self.ledger),
            task_charges: Mutex::new(0),
            local_store: Arc::clone(self.local),
            dist_cache: Arc::clone(&self.client.cache),
            out: Arc::clone(&out),
            cost: Arc::clone(&cost),
            wall_phases: Mutex::new(Vec::new()),
        };
        let run_result = self.spec.map_runner.run(&ctx);
        // Transient per-task memory dies with the attempt, success or not.
        // Read the charges first so no guard is held across `release`.
        let charged = *ctx.task_charges.lock();
        memory.release(charged);
        let mut wall_phases = std::mem::take(&mut *ctx.wall_phases.lock());
        drop(ctx);
        run_result?;

        let mut task_cost = *cost.lock();
        task_cost.local_bytes += io.stats.local();
        task_cost.remote_bytes += io.stats.remote();
        task_cost.zone_checked += io.stats.zone_checked();
        task_cost.zone_skipped += io.stats.zone_skipped();

        let (output, emitted) = Arc::try_unwrap(out)
            .map_err(|_| ClydeError::MapReduce("collector leaked out of the map task".into()))?
            .into_output();
        task_cost.emit_records += emitted.records;
        task_cost.emit_bytes += emitted.bytes;

        let mut output_file = None;
        let mut runs = Vec::new();
        let mut rows = Vec::new();
        let mut shuffle_bytes = 0;
        let finish = WallTimer::start();
        if self.map_only {
            match &self.spec.output {
                OutputSpec::Memory => rows = output.into_rows()?,
                OutputSpec::DfsDir(dir) => {
                    let path = format!("{dir}/part-m-{task_idx:05}");
                    // A previous attempt may have died between committing its
                    // file and reporting success; re-attempts supersede it.
                    if self.dfs.exists(&path) {
                        self.dfs.delete(&path)?;
                    }
                    let payload = output.into_part_file()?;
                    task_cost.output_bytes += payload.len() as u64;
                    self.dfs.write_file(&path, None, &payload)?;
                    output_file = Some(path);
                }
            }
        } else {
            // Map-side spill: partition by reducer, then sort (and combine)
            // each partition, here on the map task's own thread.
            let spill =
                output.spill(self.spec.num_reducers.max(1), self.spec.combiner.as_deref())?;
            task_cost.combine_input_records += spill.combine_input_records;
            task_cost.combine_output_records += spill.combine_output_records;
            runs = spill.runs;
            shuffle_bytes = spill.shuffle_bytes;
        }
        // A map-only task writes its output; any other spills it.
        let phase = if self.map_only {
            Phase::Write
        } else {
            Phase::Shuffle
        };
        note_wall_phase(&mut wall_phases, phase, finish.elapsed_ns());

        Ok(TaskOutput {
            runs,
            rows,
            shuffle_bytes,
            cost: task_cost,
            node,
            output_file,
            wall_ns: wall_start.elapsed_ns(),
            wall_phases,
            speculative: false,
        })
    }

    /// Straggler multiplier the fault plan imposes on `node` (1.0 clean).
    fn slow_factor(&self, node: NodeId) -> f64 {
        self.faults
            .map_or(1.0, |f| f.slow_factor(node.0, self.memories.len()))
    }

    /// Simulated duration of a map attempt with `cost` on `node`, including
    /// the plan's slow-node multiplier. This is the clock heartbeats and the
    /// speculative-execution straggler detector run on — never wall time.
    fn sim_duration(&self, cost: &TaskCost, node: NodeId) -> f64 {
        self.params
            .map_task_duration(self.cluster, cost, self.plan.concurrency)
            * self.slow_factor(node)
    }

    /// Simulated second at which the fault plan kills `node`, if it does.
    fn death_time(&self, node: usize) -> Option<f64> {
        self.faults?.death_time(node, self.memories.len())
    }

    /// The fault plan's verdict on attempt `attempt` (0-based) of `task_idx`.
    fn injected_failure(&self, task_idx: usize, attempt: u32) -> Option<ClydeError> {
        let f = self.faults?;
        if f.fails_attempt(task_idx, attempt) {
            Some(ClydeError::MapReduce(format!(
                "injected fault: task {task_idx} attempt {attempt} crashed"
            )))
        } else {
            None
        }
    }

    /// Deterministic alternate node for retry `attempt` (1-based retries):
    /// walk the task's preferred hosts (refreshed after re-replication), then
    /// the whole cluster. Dead nodes are excluded outright; blacklisted nodes
    /// and the node that just failed are avoided while an alternative exists.
    /// Errors when no live node remains anywhere.
    fn retry_node(
        &self,
        task_idx: usize,
        failed: NodeId,
        attempt: u32,
        hosts: &[NodeId],
        blacklisted: &[bool],
    ) -> Result<NodeId> {
        let n = self.memories.len();
        let mut candidates: Vec<NodeId> = hosts.iter().copied().filter(|h| h.0 < n).collect();
        for i in 0..n {
            let node = NodeId(i);
            if !candidates.contains(&node) {
                candidates.push(node);
            }
        }
        candidates.retain(|c| self.dfs.is_node_alive(*c));
        if candidates.is_empty() {
            return Err(ClydeError::MapReduce(format!(
                "map task {task_idx}: no live node left to retry on"
            )));
        }
        let healthy: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|c| *c != failed && !blacklisted.get(c.0).copied().unwrap_or(false))
            .collect();
        let pool = if !healthy.is_empty() {
            healthy
        } else {
            let not_failed: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|c| *c != failed)
                .collect();
            if !not_failed.is_empty() {
                not_failed
            } else {
                candidates // single live node: retry in place
            }
        };
        let k = (attempt as usize).saturating_sub(1) % pool.len().max(1);
        pool.get(k)
            .copied()
            .ok_or_else(|| ClydeError::MapReduce("no candidate node for retry".into()))
    }

    /// Map phase, first wave: one worker per node runs that node's tasks in
    /// order ([`fan_out`]: the calling thread is the first node's worker).
    /// Failures are collected, not fatal; they come back sorted by task
    /// index.
    fn first_map_wave(&self) -> Result<MapWave> {
        let mut tasks_by_node: Vec<Vec<usize>> = vec![Vec::new(); self.memories.len()];
        for (i, node) in self.plan.assignment.iter().enumerate() {
            let bucket = tasks_by_node.get_mut(node.0).ok_or_else(|| {
                ClydeError::MapReduce(format!("task assigned to unknown node {}", node.0))
            })?;
            bucket.push(i);
        }
        let queues: Vec<(NodeId, &[usize])> = tasks_by_node
            .iter()
            .enumerate()
            .filter(|(_, tasks)| !tasks.is_empty())
            .map(|(node, tasks)| (NodeId(node), tasks.as_slice()))
            .collect();
        let nodes: Vec<NodeId> = queues.iter().map(|(node, _)| *node).collect();
        let joined = fan_out(
            queues,
            |(node, tasks)| self.run_queue(node, tasks),
            |i| {
                let node = nodes.get(i).map_or(i, |n| n.0);
                ClydeError::MapReduce(format!("map worker of node {node} panicked"))
            },
        );

        let mut wave = MapWave {
            outputs: self.plan.splits.iter().map(|_| None).collect(),
            failures: Vec::new(),
        };
        for (&node, attempts) in nodes.iter().zip(joined) {
            let attempts = attempts?;
            for (task_idx, attempt) in attempts {
                match attempt {
                    Ok(out) => {
                        if let Some(slot) = wave.outputs.get_mut(task_idx) {
                            *slot = Some(out);
                        }
                    }
                    Err(e) => wave.failures.push((task_idx, node, e)),
                }
            }
        }
        wave.failures.sort_by_key(|(idx, _, _)| *idx); // deterministic order
        Ok(wave)
    }

    /// One node's first-wave queue, in order: each task's first attempt and
    /// how it ended. The worker tracks its own simulated clock (the sum of
    /// its committed attempts' durations) so a planned datanode death
    /// strikes at a deterministic point.
    fn run_queue(&self, node: NodeId, tasks: &[usize]) -> Vec<(usize, Result<TaskOutput>)> {
        let death = self.death_time(node.0);
        let mut sim_elapsed = 0.0f64;
        let mut down = false;
        let mut attempts = Vec::with_capacity(tasks.len());
        for &task_idx in tasks {
            let attempt = if down {
                // The tasktracker stopped heartbeating; its remaining queue
                // fails over to other nodes.
                Err(ClydeError::MapReduce(format!(
                    "heartbeat lost: node {} is dead",
                    node.0
                )))
            } else if let Some(err) = self.injected_failure(task_idx, 0) {
                Err(err)
            } else {
                self.exec(task_idx, node).and_then(|out| {
                    let dur = self.sim_duration(&out.cost, node);
                    if death.is_some_and(|at| sim_elapsed + dur > at) {
                        // Died mid-attempt: the work is lost.
                        down = true;
                        return Err(ClydeError::MapReduce(format!(
                            "heartbeat lost: node {} died mid-task",
                            node.0
                        )));
                    }
                    sim_elapsed += dur;
                    Ok(out)
                })
            };
            attempts.push((task_idx, attempt));
        }
        attempts
    }

    /// Heartbeat barrier, then the retry wave. Planned deaths take effect
    /// cluster-wide: the namenode re-replicates lost blocks and each pending
    /// task's preferred hosts are refreshed so retries chase the data. Every
    /// failed task is then re-executed on alternate nodes, steering around
    /// dead and blacklisted ones, until it commits or its attempt budget
    /// runs out (out-of-memory is never retried).
    fn recover_failed_tasks(&self, wave: MapWave) -> Result<(Vec<Option<TaskOutput>>, Recovery)> {
        let n = self.memories.len();
        let MapWave {
            mut outputs,
            failures,
        } = wave;
        let mut rec = Recovery {
            blacklisted: vec![false; n],
            node_failures: vec![0; n],
            ..Recovery::default()
        };
        let mut retry_hosts: Vec<Vec<NodeId>> =
            self.plan.splits.iter().map(|s| s.hosts.clone()).collect();
        for i in 0..n {
            if self.death_time(i).is_some() {
                self.dfs.kill_node(NodeId(i))?;
                rec.dead_nodes.push(NodeId(i));
                if let Some(b) = rec.blacklisted.get_mut(i) {
                    *b = true;
                }
            }
        }
        // With every node dead there is nothing to re-replicate onto; the
        // retries below report the job-level failure instead.
        if !rec.dead_nodes.is_empty() && rec.dead_nodes.len() < n {
            rec.rereplicated_blocks = self.dfs.rereplicate()? as u64;
            for (s, slot) in self.plan.splits.iter().zip(retry_hosts.iter_mut()) {
                if let SplitSpec::FileRange { path, .. } = &s.spec {
                    if let Ok(hosts) = self.dfs.hosts(path) {
                        *slot = hosts;
                    }
                }
            }
        }

        for (task_idx, first_node, mut last_err) in failures {
            if last_err.is_oom() {
                return Err(last_err);
            }
            rec.attempt_failed(first_node);
            let mut done = false;
            let mut prev_node = first_node;
            let task_hosts = retry_hosts
                .get(task_idx)
                .map(Vec::as_slice)
                .unwrap_or_default();
            for attempt in 1..MAX_TASK_ATTEMPTS {
                let node =
                    self.retry_node(task_idx, prev_node, attempt, task_hosts, &rec.blacklisted)?;
                let failed = match self.injected_failure(task_idx, attempt) {
                    Some(err) => err,
                    None => match self.exec(task_idx, node) {
                        Ok(out) => {
                            if let Some(slot) = outputs.get_mut(task_idx) {
                                *slot = Some(out);
                            }
                            done = true;
                            break;
                        }
                        Err(e) if e.is_oom() => return Err(e),
                        Err(e) => e,
                    },
                };
                rec.attempt_failed(node);
                last_err = failed;
                prev_node = node;
            }
            if !done {
                return Err(ClydeError::MapReduce(format!(
                    "map task {task_idx} failed after {MAX_TASK_ATTEMPTS} attempts: {last_err}"
                )));
            }
        }
        Ok((outputs, rec))
    }

    /// Speculative execution: with a fault plan armed, launch one backup
    /// attempt per straggler (simulated duration beyond
    /// `speculative_slowdown` × median) and commit whichever attempt
    /// finishes first on the simulated clock. The output commit is
    /// idempotent, so racing two attempts is safe; the loser is recorded as
    /// a killed attempt and priced as wasted slot time.
    fn speculate(&self, outputs: &mut [Option<TaskOutput>], rec: &mut Recovery) -> Result<()> {
        let Some(plan) = self
            .faults
            .filter(|f| outputs.len() >= 2 && f.speculative_slowdown.is_finite())
        else {
            return Ok(());
        };
        let mut durs: Vec<f64> = Vec::with_capacity(outputs.len());
        for o in outputs.iter() {
            let out = o.as_ref().ok_or_else(|| {
                ClydeError::MapReduce("speculation ran before all map outputs committed".into())
            })?;
            durs.push(self.sim_duration(&out.cost, out.node));
        }
        let mut sorted = durs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or_default();
        // The detector fires once the original has run for `threshold`
        // simulated seconds — that is also when the backup launches.
        let threshold = plan.speculative_slowdown * median;
        for (idx, (&orig_dur, slot)) in durs.iter().zip(outputs.iter_mut()).enumerate() {
            if orig_dur <= threshold + 1e-9 {
                continue;
            }
            let Some(orig_node) = slot.as_ref().map(|t| t.node) else {
                continue;
            };
            // Backup runs on the fastest live, non-blacklisted other node.
            let backup = (0..self.memories.len())
                .map(NodeId)
                .filter(|c| {
                    *c != orig_node
                        && rec.blacklisted.get(c.0).is_some_and(|b| !b)
                        && self.dfs.is_node_alive(*c)
                })
                .min_by(|a, b| {
                    self.slow_factor(*a)
                        .total_cmp(&self.slow_factor(*b))
                        .then(a.0.cmp(&b.0))
                });
            let Some(backup) = backup else { continue };
            rec.speculative_attempts += 1;
            match self.exec(idx, backup) {
                Ok(mut bout) => {
                    let backup_dur = self.sim_duration(&bout.cost, backup);
                    let backup_finish = threshold + backup_dur;
                    let Some(orig) = slot.take() else { continue };
                    if backup_finish + 1e-9 < orig_dur {
                        // Backup wins the race; the original is killed
                        // after `backup_finish` seconds of occupancy.
                        rec.speculative_wins += 1;
                        rec.killed_attempts.push(KilledAttempt {
                            task: idx,
                            node: orig.node,
                            busy_s: backup_finish,
                            cost: orig.cost,
                        });
                        bout.speculative = true;
                        *slot = Some(bout);
                    } else {
                        // Original wins; the backup is killed once the
                        // original commits.
                        rec.killed_attempts.push(KilledAttempt {
                            task: idx,
                            node: backup,
                            busy_s: (orig_dur - threshold).max(0.0).min(backup_dur),
                            cost: bout.cost,
                        });
                        *slot = Some(orig);
                    }
                }
                Err(e) if e.is_oom() => return Err(e),
                // A failed backup never fails the job — the original
                // output already stands.
                Err(_) => rec.attempt_failed(backup),
            }
        }
        Ok(())
    }

    /// The job's hardware-independent execution record.
    fn profile(
        &self,
        map_outputs: &[TaskOutput],
        rec: Recovery,
        reduced: &mut Reduced,
    ) -> JobProfile {
        // Roll the tasks' attributed wall clock up to the job, in phase
        // order.
        let mut wall_phases: Vec<(Phase, u64)> = Vec::new();
        for phase in Phase::all() {
            let ns: u64 = map_outputs
                .iter()
                .flat_map(|t| &t.wall_phases)
                .chain(&reduced.wall_phases)
                .filter(|(p, _)| p == phase)
                .map(|(_, ns)| ns)
                .sum();
            if ns > 0 {
                wall_phases.push((*phase, ns));
            }
        }
        let n = self.memories.len();
        JobProfile {
            name: self.spec.name.clone(),
            map_tasks: map_outputs
                .iter()
                .map(|t| TaskProfile {
                    node: t.node,
                    cost: t.cost,
                    wall_ns: t.wall_ns,
                    speculative: t.speculative,
                })
                .collect(),
            reduce_tasks: std::mem::take(&mut reduced.reduce_tasks),
            map_concurrency: self.plan.concurrency,
            shuffle_bytes: reduced.shuffle_bytes,
            client_build_rows: self.client.build_rows,
            client_publish_bytes: self.client.cache.disseminated_bytes(),
            client_build_wall_ns: self.client.build_wall_ns,
            memory_per_slot: self.ledger.per_slot(),
            memory_shared: self.ledger.shared(),
            memory_per_slot_fixed: self.ledger.per_slot_fixed(),
            memory_shared_fixed: self.ledger.shared_fixed(),
            failed_attempts: rec.failed_attempts,
            split_locality: scheduler::locality_fraction(&self.plan.splits, &self.plan.assignment),
            wall_phases,
            speculative_attempts: rec.speculative_attempts,
            speculative_wins: rec.speculative_wins,
            killed_attempts: rec.killed_attempts,
            blacklisted_nodes: rec
                .blacklisted
                .iter()
                .enumerate()
                .filter(|(_, b)| **b)
                .map(|(i, _)| NodeId(i))
                .collect(),
            dead_nodes: rec.dead_nodes,
            rereplicated_blocks: rec.rereplicated_blocks,
            node_slowdown: match self.faults {
                Some(f) if !f.slow_nodes.is_empty() => {
                    (0..n).map(|i| f.slow_factor(i, n)).collect()
                }
                _ => Vec::new(),
            },
        }
    }
}

/// The MapReduce engine bound to one simulated cluster.
pub struct Engine {
    dfs: Arc<Dfs>,
    local: Arc<NodeLocalStore>,
    /// One store per node, alive as long as the engine: what a job built
    /// from a node's local bytes stays findable by the jobs after it.
    resident: Vec<Arc<ResidentStore>>,
    params: CostParams,
    obs: Arc<Obs>,
}

impl Engine {
    pub fn new(dfs: Arc<Dfs>) -> Engine {
        let nodes = dfs.cluster().num_workers();
        let node_memory = dfs.cluster().node.memory_bytes;
        Engine {
            dfs,
            local: Arc::new(NodeLocalStore::new(nodes)),
            resident: (0..nodes)
                .map(|_| Arc::new(ResidentStore::new(node_memory)))
                .collect(),
            params: CostParams::paper(),
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability hub; every job run afterwards records its
    /// history, spans, and metrics there.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    pub fn local_store(&self) -> &Arc<NodeLocalStore> {
        &self.local
    }

    /// `node`'s engine-lifetime store.
    pub fn resident_store(&self, node: NodeId) -> Option<&ResidentStore> {
        self.resident.get(node.0).map(Arc::as_ref)
    }

    /// Per node, in node order: what is resident and how lookups fared.
    pub fn resident_stats(&self) -> Vec<ResidentStats> {
        self.resident.iter().map(|s| s.resident_stats()).collect()
    }

    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Run a job with no client-side artifacts, starting at t = 0.
    pub fn run_job(&self, spec: &JobSpec) -> Result<JobResult> {
        self.run_job_with(spec, ClientArtifacts::default(), 0.0)
    }

    /// Run a job that arrives at `start_s` on the caller's clock, making
    /// `client.cache` available to every task. The job runs alone: on a
    /// one-job FIFO `Timeline`, which prices it, commits its result-cache
    /// fill and publishes its history, starting at `start_s`.
    pub fn run_job_with(
        &self,
        spec: &JobSpec,
        client: ClientArtifacts,
        start_s: f64,
    ) -> Result<JobResult> {
        let mut alone = Timeline::new(self, SchedPolicy::Fifo);
        let at = Arrival::alone(start_s, spec.declared_task_memory);
        alone.admit(self.execute(spec, client)?, String::new(), &at)?;
        let recorded = alone.finish()?.next().map(|(result, ..)| result);
        recorded.ok_or_else(|| ClydeError::MapReduce("a solo run recorded no job".into()))
    }

    /// One job, as a sequence of phases: plan → first map wave → heartbeat
    /// barrier + retry wave → speculation → shuffle/reduce, each handing the
    /// next a named type. Nothing is priced: that waits for its [`Timeline`].
    pub(crate) fn execute(&self, spec: &JobSpec, client: ClientArtifacts) -> Result<Executed> {
        let io_scope = self.obs.is_enabled().then(|| self.dfs.io_scope());
        let cluster = self.dfs.cluster().clone();
        let mut ran = match self.plan_job(spec, &cluster)? {
            Planned::Cached(entry) => self.serve_from_cache(spec, &entry)?,
            Planned::Run(plan) => {
                let env = self.map_env(spec, &plan, &client, &cluster);
                let wave = env.first_map_wave()?;
                let (mut outputs, mut recovery) = env.recover_failed_tasks(wave)?;
                env.speculate(&mut outputs, &mut recovery)?;
                let mut map_outputs: Vec<TaskOutput> = Vec::with_capacity(outputs.len());
                for o in outputs {
                    map_outputs.push(o.ok_or_else(|| {
                        ClydeError::MapReduce("map task produced no output record".into())
                    })?);
                }
                let mut reduced = self.shuffle_and_reduce(spec, &cluster, &mut map_outputs)?;
                let profile = env.profile(&map_outputs, recovery, &mut reduced);
                self.finish_job(spec, &plan, profile, reduced)?
            }
        };
        ran.io = io_scope.map(|s| s.delta());
        Ok(ran)
    }

    /// Planning: inject the fault plan's replica corruption before anything
    /// reads, resolve the splits, probe the result cache, and place the map
    /// tasks.
    fn plan_job(&self, spec: &JobSpec, cluster: &ClusterSpec) -> Result<Planned> {
        if let Some(f) = spec.faults.as_deref() {
            if f.corrupt_replicas > 0 {
                self.dfs.inject_corruption(f.seed, f.corrupt_replicas);
            }
        }
        let splits = spec.input.splits(&self.dfs, &spec.conf)?;
        // Result-cache probe (ReStore-style reuse): jobs that carry a
        // code-identity token fingerprint their resolved inputs, and a
        // catalog hit replaces the whole execution with a metadata-only
        // read of the persisted output, priced as a DFS scan.
        let fingerprint = if self.dfs.cache_enabled() {
            crate::fingerprint::job_fingerprint(spec, &splits)
        } else {
            None
        };
        if let Some(entry) = fingerprint.and_then(|fp| self.dfs.cache_lookup(fp)) {
            return Ok(Planned::Cached(entry));
        }
        Ok(Planned::Run(JobPlan {
            assignment: scheduler::assign_map_tasks(&splits, cluster),
            concurrency: scheduler::concurrency_per_node(cluster, spec.declared_task_memory),
            splits,
            fingerprint,
        }))
    }

    /// Per-job task state (JVM-reuse node state over the resident stores,
    /// memory trackers, the memory ledger) around a plan.
    fn map_env<'a>(
        &'a self,
        spec: &'a JobSpec,
        plan: &'a JobPlan,
        client: &'a ClientArtifacts,
        cluster: &'a ClusterSpec,
    ) -> MapTaskEnv<'a> {
        let threads = spec.task_threads.unwrap_or(1).max(1);
        MapTaskEnv {
            spec,
            plan,
            client,
            dfs: &self.dfs,
            local: &self.local,
            node_states: self
                .resident
                .iter()
                .map(|store| Arc::new(NodeState::with_resident(Arc::clone(store))))
                .collect(),
            memories: (0..cluster.num_workers())
                .map(|_| Arc::new(MemoryTracker::new(cluster.node.memory_bytes)))
                .collect(),
            ledger: Arc::new(MemoryLedger::new()),
            threads,
            host_threads: spec.host_threads.unwrap_or(threads).max(1),
            map_only: spec.reducer.is_none(),
            params: &self.params,
            cluster,
            faults: spec.faults.as_deref(),
        }
    }

    /// Shuffle and reduce: a map-only job just gathers its tasks' output;
    /// otherwise each reducer takes its run from every task, in task order,
    /// and the reduce wave merges and reduces them. Rows, part files and
    /// task profiles are assembled in reducer order.
    fn shuffle_and_reduce(
        &self,
        spec: &JobSpec,
        cluster: &ClusterSpec,
        map_outputs: &mut [TaskOutput],
    ) -> Result<Reduced> {
        let mut out = Reduced::default();
        let Some(reducer) = spec.reducer.as_ref() else {
            for t in map_outputs.iter_mut() {
                out.rows.append(&mut t.rows);
                out.output_files.extend(t.output_file.take());
            }
            return Ok(out);
        };
        let n = cluster.num_workers();
        let num_reducers = spec.num_reducers.max(1);
        // Each task partitioned its own output: hand every reducer its runs.
        let mut runs: Vec<Vec<Run>> = (0..num_reducers).map(|_| Vec::new()).collect();
        for t in map_outputs.iter_mut() {
            out.shuffle_bytes += t.shuffle_bytes;
            for (run, dest) in std::mem::take(&mut t.runs).into_iter().zip(runs.iter_mut()) {
                if !run.is_empty() {
                    dest.push(run);
                }
            }
        }

        // Reducers planned for a node that died mid-job fail over to the
        // next live node (deterministic round-robin walk).
        let reduce_nodes: Vec<NodeId> = scheduler::assign_reduce_tasks(num_reducers, cluster)
            .into_iter()
            .map(|node| {
                if self.dfs.is_node_alive(node) {
                    node
                } else {
                    (1..=n)
                        .map(|d| NodeId((node.0 + d) % n))
                        .find(|c| self.dfs.is_node_alive(*c))
                        .unwrap_or(node)
                }
            })
            .collect();
        let reduced = reduce_wave(spec, &**reducer, &runs, &reduce_nodes)?;
        drop(runs);
        // Commit in reducer order: the namenode numbers blocks in write
        // order, and the fault plan picks replicas to corrupt by block id.
        for ((r, node), task) in reduce_nodes.into_iter().enumerate().zip(reduced) {
            let commit = WallTimer::start();
            let ReduceTaskOutput {
                mut rows,
                part,
                mut cost,
                wall_ns,
            } = task;
            note_wall_phase(&mut out.wall_phases, Phase::Reduce, wall_ns);
            match (&spec.output, part) {
                (OutputSpec::DfsDir(dir), Some(payload)) => {
                    let path = format!("{dir}/part-r-{r:05}");
                    cost.output_bytes = payload.len() as u64;
                    self.dfs.write_file(&path, None, &payload)?;
                    out.output_files.push(path);
                    note_wall_phase(&mut out.wall_phases, Phase::Write, commit.elapsed_ns());
                }
                _ => out.rows.append(&mut rows),
            }
            let commit_ns = commit.elapsed_ns();
            out.reduce_tasks.push(TaskProfile {
                node,
                cost,
                wall_ns: wall_ns + commit_ns,
                speculative: false,
            });
        }
        Ok(out)
    }

    /// The finished job's result, and its result-cache fill prepared.
    fn finish_job(
        &self,
        spec: &JobSpec,
        plan: &JobPlan,
        profile: JobProfile,
        reduced: Reduced,
    ) -> Result<Executed> {
        let Reduced {
            rows, output_files, ..
        } = reduced;
        let fill = plan
            .fingerprint
            .map(|fp| self.cache_fill(spec, fp, &plan.splits, &rows, &output_files))
            .transpose()?;
        Ok(Executed {
            result: JobResult {
                rows,
                output_files,
                locality: profile.scan_locality(),
                profile,
                cost: JobCost::default(),
                served_from_cache: false,
                fingerprint: plan.fingerprint,
            },
            io: None,
            fill,
            cached_bytes: None,
        })
    }

    /// Materialize a cache hit: read the persisted output back (memory jobs)
    /// or point downstream readers at the cached files (DFS-dir jobs), with
    /// a synthetic zero-task profile; its timeline prices it as a
    /// sequential DFS read of the entry.
    fn serve_from_cache(&self, spec: &JobSpec, entry: &CacheEntry) -> Result<Executed> {
        let mut rows = Vec::new();
        let mut output_files = Vec::new();
        match &spec.output {
            OutputSpec::Memory => {
                // Each cached file is its own row-binary stream; decode
                // per-file (a concatenation is not a valid single stream).
                for p in &entry.output_paths {
                    let bytes = self.dfs.read_file(p, None)?;
                    rows.extend(rowcodec::read_rows(&bytes)?);
                }
            }
            OutputSpec::DfsDir(_) => {
                // Metadata-only: downstream stages read the cache directory
                // directly; nothing is copied or re-executed.
                output_files = entry.output_paths.clone();
            }
        }
        Ok(Executed {
            result: JobResult {
                rows,
                output_files,
                profile: JobProfile {
                    name: spec.name.clone(),
                    map_concurrency: 1,
                    split_locality: 1.0,
                    ..JobProfile::default()
                },
                cost: JobCost::default(),
                locality: 1.0,
                served_from_cache: true,
                fingerprint: Some(entry.fingerprint),
            },
            io: None,
            fill: None,
            cached_bytes: Some(entry.bytes),
        })
    }

    /// A finished job's result-cache fill: the catalog entry for its output
    /// under `/cache/{fingerprint}/` and where that output's bytes come from.
    fn cache_fill(
        &self,
        spec: &JobSpec,
        fp: u64,
        splits: &[InputSplit],
        rows: &[Row],
        output_files: &[String],
    ) -> Result<CacheFill> {
        let dir = format!("/cache/{fp:016x}");
        // Lineage-fingerprinted stages record no input paths: their inputs
        // are per-run tmp files, and coherence rides the fingerprint chain
        // (a base-stage change re-fingerprints every downstream stage).
        let input_paths = if spec.lineage.is_some() {
            Vec::new()
        } else {
            crate::fingerprint::input_paths(splits)
        };
        let (output_paths, bytes, memory_rows, rows) = match &spec.output {
            OutputSpec::Memory => {
                let payload = rowcodec::write_rows(rows);
                let (bytes, count) = (payload.len() as u64, Some(rows.len() as u64));
                (vec![format!("{dir}/rows.bin")], bytes, count, Some(payload))
            }
            OutputSpec::DfsDir(_) => {
                let mut paths = Vec::with_capacity(output_files.len());
                let mut bytes = 0u64;
                for src in output_files {
                    let name = src.rsplit('/').next().unwrap_or(src);
                    paths.push(format!("{dir}/{name}"));
                    bytes += self.dfs.file_len(src)?;
                }
                (paths, bytes, None, None)
            }
        };
        let entry = CacheEntry {
            fingerprint: fp,
            output_paths,
            bytes,
            memory_rows,
            input_paths,
            last_used: 0,
        };
        Ok(CacheFill { entry, rows })
    }

    /// Commit `ran`'s held-back cache fill, if any, counting its I/O as the
    /// job's. The catalog admits (or refuses, or already holds) the entry
    /// first — evicting LRU entries and deleting their files — and only an
    /// admitted entry's bytes are written.
    fn commit_fill(&self, ran: &mut Executed) -> Result<()> {
        let Some(fill) = ran.fill.take() else {
            return Ok(());
        };
        let io_scope = ran.io.is_some().then(|| self.dfs.io_scope());
        let dsts = fill.entry.output_paths.clone();
        if self.dfs.cache_insert(fill.entry)? {
            match fill.rows {
                Some(payload) => {
                    for dst in &dsts {
                        self.dfs.write_file(dst, None, &payload)?;
                    }
                }
                None => {
                    for (src, dst) in ran.result.output_files.iter().zip(&dsts) {
                        let data = self.dfs.read_file(src, None)?;
                        self.dfs.write_file(dst, None, &data)?;
                    }
                }
            }
        }
        if let (Some(io), Some(scope)) = (ran.io.as_mut(), io_scope) {
            io.add(&scope.delta());
        }
        Ok(())
    }
}

/// Executed jobs on one slot simulator, the one route from an executed job
/// to its timeline: a solo run owns a one-job FIFO timeline, the job
/// server's drain a shared one. A job's fill is committed once the
/// simulator reaches its finish (ReStore's rule: reuse only materialized
/// outputs).
pub(crate) struct Timeline<'e> {
    engine: &'e Engine,
    sim: Sim,
    /// Admitted jobs in admission order, each with its tenant's name.
    jobs: Vec<(Executed, String)>,
}

impl<'e> Timeline<'e> {
    pub(crate) fn new(engine: &'e Engine, policy: SchedPolicy) -> Timeline<'e> {
        Timeline {
            engine,
            sim: Sim::new(engine.dfs.cluster(), policy),
            jobs: Vec::new(),
        }
    }

    /// Run the simulator up to `t` and commit the fills of the jobs it has
    /// finished by then, in finish order.
    pub(crate) fn advance(&mut self, t: f64) -> Result<()> {
        self.sim.advance(t)?;
        if self.jobs.iter().all(|(ran, _)| ran.fill.is_none()) {
            return Ok(()); // nothing to commit
        }
        for j in self.sim.finished_by(t) {
            if let Some((done, _)) = self.jobs.get_mut(j) {
                self.engine.commit_fill(done)?;
            }
        }
        Ok(())
    }

    /// Admit an executed job on behalf of `tenant`: check that its memory
    /// fits a node, then build its one [`SimJob`] (a cache hit's is
    /// task-less, with the cached read as its overhead).
    pub(crate) fn admit(&mut self, ran: Executed, tenant: String, at: &Arrival) -> Result<()> {
        let (params, cluster) = (&self.engine.params, self.engine.dfs.cluster());
        let profile = &ran.result.profile;
        profile.check_memory(cluster)?;
        let overhead_s = (ran.cached_bytes).map_or(params.job_overhead_s, |bytes| {
            params.cached_read_s(cluster, bytes)
        });
        self.sim
            .admit(profile.sim_job(params, cluster, at, overhead_s))?;
        self.jobs.push((ran, tenant));
        Ok(())
    }

    /// Run every job to its end, committing the fills left, and record each
    /// in admission order: its cost is its schedule's bands, and its history
    /// is drawn off that schedule and published.
    pub(crate) fn finish(
        mut self,
    ) -> Result<impl Iterator<Item = (JobResult, JobSchedule, Option<JobRef>)> + use<'e>> {
        self.advance(f64::INFINITY)?;
        let (engine, schedules) = (self.engine, self.sim.run()?);
        let recorded = self.jobs.into_iter().zip(schedules);
        Ok(recorded.map(move |((ran, tenant), sched)| {
            let mut result = ran.result;
            result.cost = sched.cost;
            let trace = publish_history(engine, &result, &sched, tenant, ran.io.as_ref());
            (result, sched, trace)
        }))
    }
}

/// Record a finished job into the observability hub: its history drawn off
/// `sched` + spans, plus the unified metrics (engine counters, scheduler
/// locality, DFS I/O attributed to this job via the scoped snapshot), the
/// same set solo or served. Returns its trace location (`None` if obs off).
fn publish_history(
    engine: &Engine,
    result: &JobResult,
    sched: &JobSchedule,
    tenant: String,
    io: Option<&IoSnapshot>,
) -> Option<JobRef> {
    let (obs, profile) = (&engine.obs, &result.profile);
    if !obs.is_enabled() {
        return None;
    }
    let mut hist = history::job_history(profile, &engine.params, engine.dfs.cluster(), sched);
    hist.tenant = tenant;
    let (total_map, total_reduce) = (profile.total_map_cost(), profile.total_reduce_cost());
    let m = obs.metrics();
    for (counter, n) in [
        (series::MAPRED_JOBS, 1),
        (series::MAPRED_MAP_TASKS, profile.map_tasks.len() as u64),
        (
            series::MAPRED_REDUCE_TASKS,
            profile.reduce_tasks.len() as u64,
        ),
        (
            series::MAPRED_FAILED_ATTEMPTS,
            u64::from(profile.failed_attempts),
        ),
        (series::MAPRED_SHUFFLE_BYTES, profile.shuffle_bytes),
        (series::MAPRED_EMIT_RECORDS, total_map.emit_records),
        (series::MAPRED_EMIT_BYTES, total_map.emit_bytes),
        (
            series::MAPRED_COMBINE_INPUT_RECORDS,
            total_map.combine_input_records,
        ),
        (
            series::MAPRED_COMBINE_OUTPUT_RECORDS,
            total_map.combine_output_records,
        ),
        (series::MAPRED_SHUFFLE_MERGED_RUNS, total_reduce.merge_runs),
        (series::DFS_SCAN_LOCAL_BYTES, total_map.local_bytes),
        (series::DFS_SCAN_REMOTE_BYTES, total_map.remote_bytes),
        (series::DFS_ZONE_CHECKED, total_map.zone_checked),
        (series::DFS_ZONE_SKIPPED, total_map.zone_skipped),
    ] {
        m.counter_add(counter, n);
    }
    // Recovery counters and cache.hits are emitted only when the action
    // fired, so clean and cache-off runs keep their metric set (and traces)
    // unchanged.
    for (counter, n) in [
        (
            series::MAPRED_SPECULATIVE_LAUNCHED,
            u64::from(profile.speculative_attempts),
        ),
        (
            series::MAPRED_SPECULATIVE_WINS,
            u64::from(profile.speculative_wins),
        ),
        (
            series::MAPRED_BLACKLISTED_NODES,
            profile.blacklisted_nodes.len() as u64,
        ),
        (
            series::MAPRED_HEARTBEAT_LOST_NODES,
            profile.dead_nodes.len() as u64,
        ),
        (series::DFS_REREPLICATED_BLOCKS, profile.rereplicated_blocks),
        (
            series::DFS_CORRUPT_READS_DETECTED,
            io.map_or(0, IoSnapshot::total_corrupt_reads),
        ),
        (series::CACHE_HITS, u64::from(result.served_from_cache)),
    ] {
        if n > 0 {
            m.counter_add(counter, n);
        }
    }
    if let Some(delta) = io {
        m.counter_add(series::DFS_IO_LOCAL_READ_BYTES, delta.total_local_read());
        m.counter_add(series::DFS_IO_REMOTE_READ_BYTES, delta.total_remote_read());
        m.counter_add(series::DFS_IO_WRITTEN_BYTES, delta.total_written());
        // Mirror the scoped snapshot into the history so query profiles
        // can report per-node I/O next to phase costs.
        hist.io = delta
            .per_node
            .iter()
            .map(|n| clyde_common::obs::IoBytes {
                node: n.node,
                local_read: n.local_read,
                remote_read: n.remote_read,
                written: n.written,
            })
            .collect();
        hist.corrupt_reads = delta.total_corrupt_reads();
    }
    m.gauge_set(series::SCHEDULER_SPLIT_LOCALITY, profile.split_locality);
    m.gauge_set(series::MAPRED_SCAN_LOCALITY, hist.locality);
    for t in &hist.tasks {
        match t.kind {
            TaskKind::Map => m.histogram_record(series::MAPRED_MAP_TASK_SIM_S, t.dur_s),
            TaskKind::Reduce => m.histogram_record(series::MAPRED_REDUCE_TASK_SIM_S, t.dur_s),
        }
    }
    let (span_ts_s, span_dur_s) = (hist.t0_s, hist.total_s());
    let job_ref = obs.record_job(hist);
    if let Some(j) = job_ref.filter(|_| result.served_from_cache) {
        obs.spans().span(
            None,
            SpanKind::Phase,
            "served-from-cache",
            j.pid,
            0,
            (span_ts_s * 1e6) as u64,
            (span_dur_s * 1e6) as u64,
            vec![("job".into(), profile.name.clone())],
        );
    }
    job_ref
}

/// One reduce task's hand-off from its worker to the commit.
struct ReduceTaskOutput {
    /// Output rows, for a job whose output stays in memory.
    rows: Vec<Row>,
    /// The part file's bytes, for a job writing to a DFS directory.
    part: Option<Vec<u8>>,
    cost: TaskCost,
    /// Measured wall-clock of the merge and reduce (observability-only).
    wall_ns: u64,
}

/// The reduce wave: one worker per node runs that node's reduce tasks in
/// reducer order, the way the first map wave runs map tasks ([`fan_out`]:
/// the calling thread takes the first node's queue itself, so a one-reducer
/// job spawns no thread). A task that fails or panics ends its node's
/// queue, and the error returned is the lowest-numbered failed reducer's,
/// however the workers are timed. Outputs come back in reducer order.
fn reduce_wave(
    spec: &JobSpec,
    reducer: &dyn Reducer,
    runs: &[Vec<Run>],
    nodes: &[NodeId],
) -> Result<Vec<ReduceTaskOutput>> {
    let mut queues: Vec<(NodeId, Vec<usize>)> = Vec::new();
    for (r, node) in nodes.iter().enumerate() {
        match queues.iter_mut().find(|(n, _)| n == node) {
            Some((_, queue)) => queue.push(r),
            None => queues.push((*node, vec![r])),
        }
    }
    queues.sort_by_key(|(node, _)| *node);
    let run_queue = |node: NodeId, queue: &[usize]| {
        let mut done = Vec::with_capacity(queue.len());
        for &r in queue {
            let task_runs = runs.get(r).map(Vec::as_slice).unwrap_or_default();
            let task = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reduce_task(spec, reducer, task_runs)
            }))
            .unwrap_or_else(|_| {
                Err(ClydeError::MapReduce(format!(
                    "reduce task {r} on node {} panicked",
                    node.0
                )))
            });
            let failed = task.is_err();
            done.push((r, task));
            if failed {
                break;
            }
        }
        done
    };
    let heads: Vec<(NodeId, usize)> = queues
        .iter()
        .map(|(node, queue)| (*node, queue.first().copied().unwrap_or_default()))
        .collect();
    let joined = fan_out(
        queues,
        |(node, queue)| run_queue(node, &queue),
        |i| {
            let node = heads.get(i).map_or(i, |(n, _)| n.0);
            ClydeError::MapReduce(format!("reduce worker of node {node} panicked"))
        },
    );
    let mut done = Vec::with_capacity(nodes.len());
    for ((_, head), tasks) in heads.iter().zip(joined) {
        match tasks {
            Ok(tasks) => done.extend(tasks),
            Err(e) => done.push((*head, Err(e))),
        }
    }
    done.sort_by_key(|(r, _)| *r);
    done.into_iter().map(|(_, task)| task).collect()
}

/// One reduce task: merge and reduce its runs, encoding each output row
/// into the part file as soon as it is produced when the output goes to
/// the DFS.
fn reduce_task(spec: &JobSpec, reducer: &dyn Reducer, runs: &[Run]) -> Result<ReduceTaskOutput> {
    let wall_start = WallTimer::start();
    let mut cost = TaskCost::new();
    cost.merge_runs = runs.len() as u64;
    cost.deser_rows = runs.iter().map(Run::records).sum();
    let mut sink = match &spec.output {
        OutputSpec::Memory => ReduceSink::memory(),
        OutputSpec::DfsDir(_) => ReduceSink::part(),
    };
    shuffle::reduce_runs(runs, reducer, &mut sink)?;
    let (rows, part) = sink.finish();
    Ok(ReduceTaskOutput {
        rows,
        part,
        cost,
        wall_ns: wall_start.elapsed_ns(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DatanodeDeath;
    use crate::formats::VecInputFormat;
    use crate::input::{InputFormat, Reader};
    use crate::runner::{FnMapRunner, FnMapper, RowMapRunner};
    use crate::shuffle::FnReducer;
    use crate::JobConf;
    use clyde_common::{row, Datum};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Wraps an input format, failing `open` for split 0 on its first
    /// `failures` calls — a crash-on-read fault injection.
    struct FlakyInputFormat {
        inner: VecInputFormat,
        failures: AtomicU32,
    }

    impl InputFormat for FlakyInputFormat {
        fn splits(&self, dfs: &Dfs, conf: &JobConf) -> Result<Vec<InputSplit>> {
            self.inner.splits(dfs, conf)
        }

        fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
            if split.index == 0
                && self
                    .failures
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                        if v > 0 {
                            Some(v - 1)
                        } else {
                            None
                        }
                    })
                    .is_ok()
            {
                return Err(ClydeError::MapReduce("injected split-0 failure".into()));
            }
            self.inner.open(split, part, io)
        }
    }

    fn sum_job(input: Arc<dyn InputFormat>) -> JobSpec {
        let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
            ctx.emit(&[Datum::I64(0)], v.values());
            Ok(())
        }));
        let mut spec = JobSpec::new("sum", input, Arc::new(mapper));
        spec.reducer = Some(Arc::new(FnReducer(
            |_k: &Row, values: &[&Row], out: &mut Vec<Row>| {
                let s: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
                out.push(row![s]);
                Ok(())
            },
        )));
        spec.num_reducers = 1;
        spec
    }

    fn rows() -> Vec<Row> {
        (1..=10i64).map(|i| row![i]).collect()
    }

    #[test]
    fn transient_task_failure_is_retried_on_another_node() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let flaky = FlakyInputFormat {
            inner: VecInputFormat::new(rows(), 3),
            failures: AtomicU32::new(1),
        };
        let spec = sum_job(Arc::new(flaky));
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
        assert_eq!(result.profile.failed_attempts, 1);
    }

    #[test]
    fn repeated_transient_failures_exhaust_then_succeed_within_budget() {
        let dfs = Dfs::for_tests(4);
        let engine = Engine::new(Arc::clone(&dfs));
        let flaky = FlakyInputFormat {
            inner: VecInputFormat::new(rows(), 2),
            failures: AtomicU32::new(3), // attempts 1..3 fail, 4th succeeds
        };
        let spec = sum_job(Arc::new(flaky)); // MAX_TASK_ATTEMPTS = 4
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
        assert_eq!(result.profile.failed_attempts, 3);
    }

    #[test]
    fn permanent_failure_fails_the_job_after_the_attempt_budget() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let flaky = FlakyInputFormat {
            inner: VecInputFormat::new(rows(), 2),
            failures: AtomicU32::new(u32::MAX), // never recovers
        };
        let spec = sum_job(Arc::new(flaky));
        let err = engine.run_job(&spec).unwrap_err();
        assert!(err.to_string().contains("4 attempts"), "{err}");
    }

    #[test]
    fn oom_is_not_retried() {
        let dfs = Dfs::for_tests(2); // 4 GB nodes
        let engine = Engine::new(Arc::clone(&dfs));
        let attempts = Arc::new(AtomicU32::new(0));
        let a2 = Arc::clone(&attempts);
        let runner = FnMapRunner(move |ctx: &MapTaskContext<'_>| {
            a2.fetch_add(1, Ordering::SeqCst);
            ctx.charge_memory_shared(1 << 40)?; // 1 TB
            Ok(())
        });
        let spec = JobSpec::new(
            "oom",
            Arc::new(VecInputFormat::new(rows(), 1)),
            Arc::new(runner),
        );
        let err = engine.run_job(&spec).unwrap_err();
        assert!(err.is_oom());
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "OOM must not retry");
    }

    #[test]
    fn a_panicking_map_task_is_a_typed_error() {
        let runner = FnMapRunner(|_: &MapTaskContext<'_>| -> Result<()> { panic!("map bug") });
        let spec = JobSpec::new(
            "panics",
            Arc::new(VecInputFormat::new(rows(), 2)),
            Arc::new(runner),
        );
        // Two nodes, and one node whose only queue the calling thread runs
        // itself: the panic is a typed error either way, and the engine
        // runs its next job.
        for nodes in [2, 1] {
            let engine = Engine::new(Dfs::for_tests(nodes));
            let err = engine.run_job(&spec).unwrap_err();
            assert_eq!(
                err.to_string(),
                ClydeError::MapReduce("map worker of node 0 panicked".into()).to_string(),
                "{nodes} node(s)"
            );
            let next = engine
                .run_job(&sum_job(Arc::new(VecInputFormat::new(rows(), 2))))
                .unwrap();
            assert_eq!(next.rows, vec![row![55i64]], "{nodes} node(s)");
        }
    }

    /// A job over keys 0..13 whose reducer fails on every key in `failing`
    /// — by panicking when `panics`, else with an error naming the key.
    fn failing_reduce_job(failing: &'static [i64], panics: bool, reducers: usize) -> JobSpec {
        let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
            ctx.emit(&[Datum::I64(v.at(0).as_i64().unwrap() % 13)], v.values());
            Ok(())
        }));
        let mut spec = JobSpec::new(
            "failing-reduce",
            Arc::new(VecInputFormat::new(
                (0..39i64).map(|i| row![i]).collect(),
                3,
            )),
            Arc::new(mapper),
        );
        spec.reducer = Some(Arc::new(FnReducer(
            move |key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                let k = key.at(0).as_i64().unwrap();
                if failing.contains(&k) {
                    assert!(!panics, "reduce bug at key {k}");
                    return Err(ClydeError::MapReduce(format!("reduce failed at key {k}")));
                }
                out.push(row![k, values.len() as i64]);
                Ok(())
            },
        )));
        spec.num_reducers = reducers;
        spec
    }

    /// The reducer a key goes to.
    fn reducer_of(k: i64, reducers: usize) -> usize {
        crate::shuffle::partition_of(&crate::shuffle::Key::encode(&[Datum::I64(k)]), reducers)
    }

    #[test]
    fn a_panicking_reducer_is_a_typed_error_naming_its_node() {
        for reducers in [1, 3] {
            let engine = Engine::new(Dfs::for_tests(3));
            let err = engine
                .run_job(&failing_reduce_job(&[5], true, reducers))
                .unwrap_err();
            let r = reducer_of(5, reducers);
            let node = scheduler::assign_reduce_tasks(reducers, engine.dfs().cluster())[r];
            assert_eq!(
                err.to_string(),
                ClydeError::MapReduce(format!("reduce task {r} on node {} panicked", node.0))
                    .to_string()
            );
        }
    }

    #[test]
    fn the_lowest_failed_reducers_error_is_reported_on_every_run() {
        // Two failing keys, one at each of two different reducers when
        // there are three; at one reducer both go to reducer 0, which
        // fails at the lesser key first.
        let failing: &'static [i64] = &[4, 9];
        assert_ne!(reducer_of(4, 3), reducer_of(9, 3));
        for reducers in [1, 3] {
            let first = failing
                .iter()
                .copied()
                .min_by_key(|&k| (reducer_of(k, reducers), k))
                .unwrap();
            let engine = Engine::new(Dfs::for_tests(3));
            for _ in 0..20 {
                let err = engine
                    .run_job(&failing_reduce_job(failing, false, reducers))
                    .unwrap_err();
                assert_eq!(
                    err.to_string(),
                    ClydeError::MapReduce(format!("reduce failed at key {first}")).to_string(),
                    "{reducers} reducers"
                );
            }
        }
    }

    #[test]
    fn an_engine_runs_the_next_job_after_a_reduce_wave_fails() {
        let engine = Engine::new(Dfs::for_tests(3));
        for panics in [false, true] {
            assert!(engine
                .run_job(&failing_reduce_job(&[2, 7], panics, 3))
                .is_err());
            let mut rows = engine
                .run_job(&failing_reduce_job(&[], panics, 3))
                .unwrap()
                .rows;
            rows.sort();
            assert_eq!(rows, (0..13i64).map(|k| row![k, 3i64]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn node_death_mid_job_is_survived_by_retries() {
        // Data with replication 2 on 3 nodes; kill one node's replicas
        // before running: tasks preferring that node fail their reads and
        // retry elsewhere against surviving replicas.
        let dfs = Dfs::for_tests(3);
        let payload = rowcodec::write_rows(&rows());
        dfs.write_file("/in/part-00000", None, &payload).unwrap();
        let victim = dfs.hosts("/in/part-00000").unwrap()[0];

        struct DfsRowsFormat;
        impl InputFormat for DfsRowsFormat {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let engine = Engine::new(Arc::clone(&dfs));
        dfs.kill_node(victim).unwrap();
        let spec = sum_job(Arc::new(DfsRowsFormat));
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
    }

    // --- Result-cache tests: fingerprint hits must serve byte-identical
    // output without running any tasks, and coherence must survive input
    // roll-in/roll-out. ---

    #[test]
    fn cache_hit_serves_identical_rows_without_tasks() {
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut spec = sum_job(Arc::new(VecInputFormat::new(rows(), 3)));
        spec.code_token = "test:sum:v1".into();

        let cold = engine.run_job(&spec).unwrap();
        assert!(!cold.served_from_cache);
        assert_eq!(dfs.cache_stats().inserts, 1);

        let warm = engine.run_job(&spec).unwrap();
        assert!(warm.served_from_cache);
        assert_eq!(warm.rows, cold.rows);
        assert!(warm.profile.map_tasks.is_empty());
        assert!(warm.profile.reduce_tasks.is_empty());
        assert!(warm.cost.total_s() < cold.cost.total_s());
        let stats = dfs.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn empty_code_token_bypasses_the_cache() {
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        let spec = sum_job(Arc::new(VecInputFormat::new(rows(), 3)));
        engine.run_job(&spec).unwrap();
        let warm = engine.run_job(&spec).unwrap();
        assert!(!warm.served_from_cache);
        let stats = dfs.cache_stats();
        assert_eq!(stats.inserts, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0, "untokened jobs never probe the cache");
    }

    #[test]
    fn cache_disabled_never_serves() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut spec = sum_job(Arc::new(VecInputFormat::new(rows(), 3)));
        spec.code_token = "test:sum:v1".into();
        engine.run_job(&spec).unwrap();
        let warm = engine.run_job(&spec).unwrap();
        assert!(!warm.served_from_cache);
        assert_eq!(dfs.cache_stats().inserts, 0);
    }

    #[test]
    fn input_rollover_invalidates_cached_result() {
        // The stale-cache hazard: delete + recreate the same input path with
        // different content (same row count, so lengths can even match) and
        // the cached result must NOT be served.
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        dfs.write_file("/in/part-00000", None, &rowcodec::write_rows(&rows()))
            .unwrap();

        struct DirRows;
        impl InputFormat for DirRows {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let mut spec = sum_job(Arc::new(DirRows));
        spec.code_token = "test:dirsum:v1".into();
        assert_eq!(engine.run_job(&spec).unwrap().rows, vec![row![55i64]]);
        assert!(engine.run_job(&spec).unwrap().served_from_cache);

        // Roll the input over: same path, different rows.
        dfs.delete("/in/part-00000").unwrap();
        let swapped: Vec<Row> = (1..=10i64).map(|i| row![i * 2]).collect();
        dfs.write_file("/in/part-00000", None, &rowcodec::write_rows(&swapped))
            .unwrap();
        let after = engine.run_job(&spec).unwrap();
        assert!(!after.served_from_cache, "rolled-over input must miss");
        assert_eq!(after.rows, vec![row![110i64]]);
        assert!(dfs.cache_stats().invalidations >= 1);
    }

    #[test]
    fn dfsdir_hit_redirects_output_files_to_cache_paths() {
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut spec = sum_job(Arc::new(VecInputFormat::new(rows(), 2)));
        spec.code_token = "test:dirout:v1".into();
        spec.output = OutputSpec::DfsDir("/out/run-1".into());

        let cold = engine.run_job(&spec).unwrap();
        spec.output = OutputSpec::DfsDir("/out/run-2".into());
        let warm = engine.run_job(&spec).unwrap();
        assert!(warm.served_from_cache);
        assert_eq!(warm.output_files.len(), cold.output_files.len());
        for (c, w) in cold.output_files.iter().zip(&warm.output_files) {
            assert!(w.starts_with("/cache/"), "{w} should be a cache path");
            assert_eq!(
                dfs.read_file(w, None).unwrap(),
                dfs.read_file(c, None).unwrap(),
                "cached bytes must equal recomputed bytes"
            );
        }
    }

    #[test]
    fn eviction_under_pressure_re_misses_and_recomputes() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut a = sum_job(Arc::new(VecInputFormat::new(rows(), 2)));
        a.code_token = "test:evict:a".into();
        let mut b = sum_job(Arc::new(VecInputFormat::new(wide_rows(), 2)));
        b.code_token = "test:evict:b".into();

        // Capacity fits either entry alone but never both: measure the two
        // payload sizes first, then rebuild with the tight budget.
        dfs.cache_configure(1 << 20);
        let ra = engine.run_job(&a).unwrap();
        let rb = engine.run_job(&b).unwrap();
        let bytes_a = rowcodec::write_rows(&ra.rows).len() as u64;
        let bytes_b = rowcodec::write_rows(&rb.rows).len() as u64;
        let dfs2 = Dfs::for_tests(3);
        dfs2.cache_configure(bytes_a.max(bytes_b));
        let engine2 = Engine::new(Arc::clone(&dfs2));

        let first_a = engine2.run_job(&a).unwrap();
        engine2.run_job(&b).unwrap(); // same size; evicts a
        assert_eq!(dfs2.cache_stats().evictions, 1);
        let again_a = engine2.run_job(&a).unwrap();
        assert!(!again_a.served_from_cache, "evicted entry must re-miss");
        assert_eq!(again_a.rows, first_a.rows);
        // After recompute it is cached again and serves.
        assert!(engine2.run_job(&a).unwrap().served_from_cache);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Coherence under *random* interleavings of replays and
        /// fact-partition roll-in/roll-out: no schedule of deletes and
        /// re-creates may ever serve a stale cached result. A replayed sum
        /// over the fact directory must always reflect exactly the
        /// partitions live at that moment (the deterministic rollover test
        /// above pins the single-swap case; this one walks the schedule
        /// space).
        #[test]
        fn random_rollover_interleavings_never_serve_stale(
            ops in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..24)
        ) {
            struct FactsRows;
            impl InputFormat for FactsRows {
                fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                    crate::formats::RowBinInputFormat::new("/facts").splits(dfs, &JobConf::new())
                }
                fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                    crate::formats::RowBinInputFormat::new("/facts").open(split, part, io)
                }
            }

            let dfs = Dfs::for_tests(3);
            dfs.cache_configure(1 << 20);
            let engine = Engine::new(Arc::clone(&dfs));
            // Partition 0 is the stable fact history (sums to 55);
            // partition 1 rolls in and out with fresh content each cycle.
            dfs.write_file("/facts/part-00000", None, &rowcodec::write_rows(&rows()))
                .unwrap();
            let mut spec = sum_job(Arc::new(FactsRows));
            spec.code_token = "test:factsum:v1".into();

            let mut p1_version = 0i64;
            let mut p1_live = false;
            for replay in ops {
                if replay {
                    let expected = 55 + if p1_live { 100 * p1_version } else { 0 };
                    let r = engine.run_job(&spec).unwrap();
                    proptest::prop_assert_eq!(&r.rows, &vec![row![expected]]);
                } else if p1_live {
                    dfs.delete("/facts/part-00001").unwrap();
                    p1_live = false;
                } else {
                    p1_version += 1;
                    dfs.write_file(
                        "/facts/part-00001",
                        None,
                        &rowcodec::write_rows(&[row![100 * p1_version]]),
                    )
                    .unwrap();
                    p1_live = true;
                }
            }
        }
    }

    // --- Seeded fault-plan tests: every injected fault must be recovered
    // transparently (same rows as a clean run) with the recovery visible in
    // the job profile. ---

    fn wide_rows() -> Vec<Row> {
        (1..=12i64).map(|i| row![i]).collect()
    }

    fn wide_sum(faults: Option<FaultPlan>) -> JobSpec {
        let mut spec = sum_job(Arc::new(VecInputFormat::new(wide_rows(), 3)));
        spec.faults = faults.map(Arc::new);
        spec
    }

    #[test]
    fn injected_task_failures_are_recovered_transparently() {
        let clean = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(None))
            .unwrap();
        let mut plan = FaultPlan::new(7);
        plan.task_fail_rate = 1.0; // every task crashes at least once
        let faulty = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(Some(plan)))
            .unwrap();
        assert_eq!(faulty.rows, clean.rows);
        assert_eq!(faulty.rows, vec![row![78i64]]);
        assert!(faulty.profile.failed_attempts >= 3, "one crash per task");
    }

    #[test]
    fn slow_node_triggers_a_winning_backup_attempt() {
        let clean = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(None))
            .unwrap();
        let plan = FaultPlan::named("slow-node", 46).unwrap();
        let faulty = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(Some(plan)))
            .unwrap();
        assert_eq!(faulty.rows, clean.rows);
        assert!(faulty.profile.speculative_attempts >= 1);
        assert!(faulty.profile.speculative_wins >= 1);
        assert!(
            !faulty.profile.killed_attempts.is_empty(),
            "the straggler's original attempt is killed when the backup wins"
        );
        // Wasted backup work is priced: the faulty run costs more map time.
        assert!(faulty.cost.map_s > clean.cost.map_s);
    }

    #[test]
    fn datanode_death_mid_job_triggers_rereplication_and_blacklisting() {
        let payload = rowcodec::write_rows(&rows());

        struct DfsRowsFormat;
        impl InputFormat for DfsRowsFormat {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let dfs = Dfs::for_tests(3);
        dfs.write_file("/in/part-00000", None, &payload).unwrap();
        let victim = dfs.hosts("/in/part-00000").unwrap()[0];
        let mut plan = FaultPlan::new(11);
        plan.datanode_deaths = vec![DatanodeDeath {
            node: victim.0,
            at_sim_s: 0.0,
        }];
        let mut spec = sum_job(Arc::new(DfsRowsFormat));
        spec.faults = Some(Arc::new(plan));
        let engine = Engine::new(Arc::clone(&dfs));
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
        assert_eq!(result.profile.dead_nodes, vec![victim]);
        assert!(result.profile.blacklisted_nodes.contains(&victim));
        assert!(
            result.profile.rereplicated_blocks >= 1,
            "the victim's replicas must be re-created on survivors"
        );
        assert!(!dfs.is_node_alive(victim));
    }

    #[test]
    fn corruption_is_recovered_via_replica_fallback() {
        struct DfsRowsFormat;
        impl InputFormat for DfsRowsFormat {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let run = |faults: Option<FaultPlan>| {
            let dfs = Dfs::for_tests(3);
            dfs.write_file("/in/part-00000", None, &rowcodec::write_rows(&rows()))
                .unwrap();
            let mut spec = sum_job(Arc::new(DfsRowsFormat));
            spec.faults = faults.map(Arc::new);
            Engine::new(dfs).run_job(&spec).unwrap()
        };
        let clean = run(None);
        let faulty = run(FaultPlan::named("corruption", 46));
        assert_eq!(faulty.rows, clean.rows);
        assert_eq!(faulty.rows, vec![row![55i64]]);
    }

    #[test]
    fn losing_every_node_fails_cleanly() {
        let mut plan = FaultPlan::new(3);
        plan.datanode_deaths = (0..3)
            .map(|node| DatanodeDeath {
                node,
                at_sim_s: 0.0,
            })
            .collect();
        let err = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(Some(plan)))
            .unwrap_err();
        assert!(
            err.to_string().contains("no live node left to retry on"),
            "{err}"
        );
    }

    #[test]
    fn fault_recovery_is_deterministic_for_a_fixed_seed() {
        let run = || {
            Engine::new(Dfs::for_tests(3))
                .run_job(&wide_sum(FaultPlan::named("combined", 46)))
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.profile.failed_attempts, b.profile.failed_attempts);
        assert_eq!(
            a.profile.speculative_attempts,
            b.profile.speculative_attempts
        );
        assert_eq!(a.profile.speculative_wins, b.profile.speculative_wins);
        assert_eq!(a.profile.killed_attempts, b.profile.killed_attempts);
        assert_eq!(a.profile.dead_nodes, b.profile.dead_nodes);
        assert_eq!(a.profile.blacklisted_nodes, b.profile.blacklisted_nodes);
        assert_eq!(a.cost.map_s.to_bits(), b.cost.map_s.to_bits());
    }
}
