//! Job descriptions, results, and execution profiles.

use crate::conf::JobConf;
use crate::cost::{shuffle_time, CostParams, JobCost, TaskCost};
use crate::fault::FaultPlan;
use crate::input::InputFormat;
use crate::runner::MapRunner;
use crate::scheduler::{JobSchedule, SchedPolicy, Sim, SimJob};
use crate::shuffle::Reducer;
use clyde_common::obs::Phase;
use clyde_common::{ClydeError, Result, Row};
use clyde_dfs::{ClusterSpec, NodeId};
use std::sync::Arc;

/// Where a job's output goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputSpec {
    /// Collected in memory and returned in [`JobResult::rows`].
    Memory,
    /// Written to DFS part files under this directory (map-only jobs write
    /// `part-m-*` per map task; reduce jobs write `part-r-*` per reducer),
    /// in the row-binary format readable by `formats::RowBinInputFormat`.
    DfsDir(String),
}

/// Execution attempts per map task (Hadoop's default); out-of-memory
/// failures are never retried.
pub(crate) const MAX_TASK_ATTEMPTS: u32 = 4;

/// Everything needed to run one MapReduce job.
pub struct JobSpec {
    pub name: String,
    pub conf: JobConf,
    pub input: Arc<dyn InputFormat>,
    pub map_runner: Arc<dyn MapRunner>,
    pub combiner: Option<Arc<dyn Reducer>>,
    pub reducer: Option<Arc<dyn Reducer>>,
    /// Number of reduce partitions; ignored if `reducer` is `None`.
    pub num_reducers: usize,
    pub output: OutputSpec,
    /// Memory the job declares per map task for the capacity scheduler;
    /// 0 means unset (all slots usable). Clydesdale marks its tasks large so
    /// only one runs per node (paper Section 5.2).
    pub declared_task_memory: u64,
    /// Threads each map task may use. `None` = 1 (Hadoop default).
    pub task_threads: Option<u32>,
    /// Override for the number of *host* OS threads a multi-threaded runner
    /// actually spawns. Purely an execution knob: the cost model keeps
    /// pricing with `task_threads`, so results, simulated times, and traces
    /// must be byte-identical for any value (`tests/determinism.rs`
    /// enforces this). `None` = same as
    /// `task_threads`.
    pub host_threads: Option<u32>,
    /// Whether per-node state survives across the job's tasks (JVM reuse).
    pub reuse_jvm: bool,
    /// Seeded fault plan to run the job under; `None` is the clean path.
    pub faults: Option<Arc<FaultPlan>>,
    /// Code-identity token for result reuse (`fingerprint` module): a
    /// versioned string naming the map/reduce functions and every planner
    /// knob baked into them. Empty (the default) means the job is not
    /// reusable and bypasses the result cache entirely.
    pub code_token: String,
    /// Upstream-stage fingerprint for chained (multi-stage) plans. When set,
    /// the job's own fingerprint derives from this value *instead of* its
    /// resolved splits — required because intermediate inputs live in
    /// per-run tmp directories whose paths never repeat. Coherence rides the
    /// chain: if the base stage's inputs change, its fingerprint changes,
    /// and every downstream fingerprint changes with it.
    pub lineage: Option<u64>,
}

impl JobSpec {
    /// A minimal spec with the common defaults.
    pub fn new(
        name: impl Into<String>,
        input: Arc<dyn InputFormat>,
        map_runner: Arc<dyn MapRunner>,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            conf: JobConf::new(),
            input,
            map_runner,
            combiner: None,
            reducer: None,
            num_reducers: 0,
            output: OutputSpec::Memory,
            declared_task_memory: 0,
            task_threads: None,
            host_threads: None,
            reuse_jvm: true,
            faults: None,
            code_token: String::new(),
            lineage: None,
        }
    }
}

/// Execution record of one task.
#[derive(Debug, Clone, Copy)]
pub struct TaskProfile {
    pub node: NodeId,
    pub cost: TaskCost,
    /// Wall-clock nanoseconds the in-process engine spent executing the
    /// task. Observability-only: never feeds simulated time, and is zero for
    /// extrapolated profiles.
    pub wall_ns: u64,
    /// Whether the committed attempt was a speculative backup that won the
    /// commit race against the original.
    pub speculative: bool,
}

/// A task attempt that executed but lost the commit race to its twin (the
/// speculative-execution analogue of Hadoop's `KILLED` attempts). Its work
/// is wasted by definition, and the cost model prices it as real slot
/// occupancy so fault runs show honest degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KilledAttempt {
    /// Map task index the attempt belonged to.
    pub task: usize,
    /// Node the killed attempt ran on.
    pub node: NodeId,
    /// Simulated seconds the attempt occupied its slot before being killed.
    pub busy_s: f64,
    /// Counters the attempt accumulated (all of it wasted work).
    pub cost: TaskCost,
}

/// Hardware-independent record of one job's execution, priceable against any
/// cluster spec and scalable to other scale factors.
#[derive(Debug, Clone, Default)]
pub struct JobProfile {
    pub name: String,
    pub map_tasks: Vec<TaskProfile>,
    pub reduce_tasks: Vec<TaskProfile>,
    /// Concurrent map tasks per node the scheduler admitted.
    pub map_concurrency: u32,
    /// Bytes crossing the network in the shuffle (post-combiner).
    pub shuffle_bytes: u64,
    /// Rows the job client processed before submission (Hive's master-side
    /// hash-table builds for mapjoin).
    pub client_build_rows: u64,
    /// Bytes the client published through the distributed cache.
    pub client_publish_bytes: u64,
    /// Wall-clock of that build, outside every task (observability-only).
    pub client_build_wall_ns: u64,
    /// Peak per-slot-duplicated memory any task charged (bytes).
    pub memory_per_slot: u64,
    /// Peak node-shared memory any task charged (bytes).
    pub memory_shared: u64,
    /// Scale-invariant portion of per-slot memory: range-bounded structures
    /// (small-range direct-index arrays) that do not grow with dimension
    /// cardinality, so extrapolation carries them through unscaled.
    pub memory_per_slot_fixed: u64,
    /// Scale-invariant portion of node-shared memory.
    pub memory_shared_fixed: u64,
    /// Map-task attempts that failed and were retried (fault tolerance).
    pub failed_attempts: u32,
    /// Fraction of splits the scheduler placed on a preferred host.
    pub split_locality: f64,
    /// Wall-clock nanoseconds per execution phase, summed across tasks
    /// (reported by instrumented runners; observability-only).
    pub wall_phases: Vec<(Phase, u64)>,
    /// Backup attempts launched by speculative execution.
    pub speculative_attempts: u32,
    /// Backup attempts that won the commit race against the original.
    pub speculative_wins: u32,
    /// Attempts that executed but lost the commit race (wasted work).
    pub killed_attempts: Vec<KilledAttempt>,
    /// Nodes blacklisted after repeated attempt failures.
    pub blacklisted_nodes: Vec<NodeId>,
    /// Nodes the heartbeat detector declared dead mid-job.
    pub dead_nodes: Vec<NodeId>,
    /// Block replicas re-created by namenode-driven re-replication.
    pub rereplicated_blocks: u64,
    /// Per-node duration multipliers from the fault plan's slow nodes
    /// (empty = all 1.0). Indexed by worker node id.
    pub node_slowdown: Vec<f64>,
}

impl JobProfile {
    /// Sum of all map-task counters.
    pub fn total_map_cost(&self) -> TaskCost {
        self.map_tasks
            .iter()
            .fold(TaskCost::new(), |acc, t| acc.merge(&t.cost))
    }

    /// Sum of all reduce-task counters.
    pub fn total_reduce_cost(&self) -> TaskCost {
        self.reduce_tasks
            .iter()
            .fold(TaskCost::new(), |acc, t| acc.merge(&t.cost))
    }

    /// Straggler multiplier the fault plan put on `node` (1.0 clean).
    pub(crate) fn slowdown(&self, node: usize) -> f64 {
        self.node_slowdown.get(node).copied().unwrap_or(1.0)
    }

    /// This job as the slot simulator sees it: the one place task counters
    /// become `(node, seconds)`. Slow nodes stretch their tasks, and killed
    /// attempts follow the committed map tasks as extra map lanes — they
    /// occupied real slots until the commit race was decided. The job stands
    /// alone (tenant 0, arrival 0, no declared memory); [`Self::schedule`]
    /// sets its arrival, and the job server overrides all three per
    /// submission.
    pub(crate) fn sim_job(&self, params: &CostParams, cluster: &ClusterSpec) -> SimJob {
        let n = cluster.num_workers().max(1);
        let concurrency = self.map_concurrency.max(1);
        let committed = self.map_tasks.iter().map(|t| {
            let node = t.node.0 % n;
            let dur = params.map_task_duration(cluster, &t.cost, concurrency);
            (node, dur * self.slowdown(node))
        });
        let killed = self
            .killed_attempts
            .iter()
            .map(|k| (k.node.0 % n, k.busy_s));
        let reduces = self.reduce_tasks.iter().map(|t| {
            let node = t.node.0 % n;
            let dur = params.reduce_task_duration(cluster, &t.cost);
            (node, dur * self.slowdown(node))
        });
        SimJob {
            tenant: 0,
            weight: 1.0,
            arrival_s: 0.0,
            setup_s: self.client_build_rows as f64 / params.build_rows_per_s
                + 2.0 * self.client_publish_bytes as f64 / cluster.network_bw,
            map_tasks: committed.chain(killed).collect(),
            map_cap_per_node: concurrency,
            task_mem: 0,
            shuffle_s: shuffle_time(params, cluster, self.shuffle_bytes),
            reduce_tasks: reduces.collect(),
            overhead_s: params.job_overhead_s,
        }
    }

    /// Price this profile on a cluster and lay its tasks out: the job runs
    /// alone through the slot simulator, and the stage times are read off
    /// the resulting schedule. Errors with `OutOfMemory` when the per-slot
    /// memory duplication exceeds node RAM — the paper's cluster-A mapjoin
    /// failure mode (Section 6.4) — and with `Config` when `params` price a
    /// time that is negative or not finite (e.g. a zero rate).
    ///
    /// The job arrives at `start_s` on the caller's clock, and its client
    /// setup runs from there: the schedule, its lanes and its bands are all
    /// on that one clock, as the job server lays out a submission.
    pub fn schedule(
        &self,
        params: &CostParams,
        cluster: &ClusterSpec,
        start_s: f64,
    ) -> Result<JobSchedule> {
        let concurrency = self.map_concurrency.max(1);
        let raw = (self.memory_per_slot + self.memory_per_slot_fixed)
            .saturating_mul(u64::from(concurrency))
            + self.memory_shared
            + self.memory_shared_fixed;
        if raw > cluster.node.memory_bytes {
            return Err(ClydeError::OutOfMemory {
                required: raw,
                available: cluster.node.memory_bytes,
            });
        }

        let mut sim = Sim::new(cluster, SchedPolicy::Fifo);
        sim.admit(SimJob {
            arrival_s: start_s,
            ..self.sim_job(params, cluster)
        })?;
        Ok(sim.run()?.pop().unwrap_or_default())
    }

    /// The stage times of [`Self::schedule`].
    pub fn price(&self, params: &CostParams, cluster: &ClusterSpec) -> Result<JobCost> {
        self.schedule(params, cluster, 0.0).map(|sched| sched.cost)
    }

    /// Rescale this profile to a different data scale and cluster: totals are
    /// scaled (`fact_factor` for fact-proportional counters, `dim_factor` for
    /// dimension-proportional ones), then redistributed over a task list
    /// sized for the target.
    pub fn extrapolate(&self, opts: &Extrapolation) -> JobProfile {
        let total_map = self
            .total_map_cost()
            .scaled(opts.fact_factor, opts.dim_factor);
        let n_map = match opts.map_tasks {
            MapTaskScaling::OnePerNode => opts.cluster.num_workers() as u64,
            MapTaskScaling::BySplitBytes { split_bytes } => {
                let bytes = total_map.local_bytes + total_map.remote_bytes;
                (bytes / split_bytes.max(1)).max(1)
            }
            MapTaskScaling::Fixed(n) => n.max(1),
        };
        let per_map = total_map.split(n_map);
        let map_tasks = (0..n_map)
            .map(|i| TaskProfile {
                node: NodeId((i as usize) % opts.cluster.num_workers()),
                cost: per_map,
                wall_ns: 0,
                speculative: false,
            })
            .collect();

        let total_reduce = self
            .total_reduce_cost()
            .scaled(opts.fact_factor, opts.dim_factor);
        let n_reduce = if self.reduce_tasks.is_empty() {
            0
        } else {
            (opts.cluster.total_reduce_slots() as u64).max(1)
        };
        let mut per_reduce = total_reduce.split(n_reduce.max(1));
        // Each scaled reduce task merges one run per map task.
        per_reduce.merge_runs = if n_reduce > 0 { n_map } else { 0 };
        let reduce_tasks = (0..n_reduce)
            .map(|i| TaskProfile {
                node: NodeId((i as usize) % opts.cluster.num_workers()),
                cost: per_reduce,
                wall_ns: 0,
                speculative: false,
            })
            .collect();

        let sf = |v: u64, f: f64| ((v as f64) * f).round() as u64;
        JobProfile {
            name: self.name.clone(),
            map_tasks,
            reduce_tasks,
            map_concurrency: opts.map_concurrency,
            shuffle_bytes: sf(self.shuffle_bytes, opts.fact_factor),
            client_build_rows: sf(self.client_build_rows, opts.dim_factor),
            client_publish_bytes: sf(self.client_publish_bytes, opts.dim_factor),
            client_build_wall_ns: 0,
            memory_per_slot: sf(self.memory_per_slot, opts.dim_factor),
            memory_shared: sf(self.memory_shared, opts.dim_factor),
            // Range-bounded memory is the same number of bytes at every
            // scale factor — that is the point of tracking it separately.
            memory_per_slot_fixed: self.memory_per_slot_fixed,
            memory_shared_fixed: self.memory_shared_fixed,
            failed_attempts: 0,
            split_locality: self.split_locality,
            // Wall-clock is a property of the measured run, not the
            // extrapolated one — and so is everything the fault injector did.
            wall_phases: Vec::new(),
            speculative_attempts: 0,
            speculative_wins: 0,
            killed_attempts: Vec::new(),
            blacklisted_nodes: Vec::new(),
            dead_nodes: Vec::new(),
            rereplicated_blocks: 0,
            node_slowdown: Vec::new(),
        }
    }
}

/// How many map tasks the extrapolated job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapTaskScaling {
    /// Clydesdale: exactly one (multi-threaded) map task per worker node.
    OnePerNode,
    /// Hadoop default: one map task per `split_bytes` of input.
    BySplitBytes { split_bytes: u64 },
    /// Exactly `n` tasks.
    Fixed(u64),
}

/// Parameters for [`JobProfile::extrapolate`].
#[derive(Debug, Clone)]
pub struct Extrapolation {
    /// Ratio of fact-table cardinality (target SF / measured SF).
    pub fact_factor: f64,
    /// Ratio of (query-relevant) dimension cardinality.
    pub dim_factor: f64,
    pub cluster: ClusterSpec,
    pub map_tasks: MapTaskScaling,
    pub map_concurrency: u32,
}

/// The outcome of a real job execution.
#[derive(Debug)]
pub struct JobResult {
    /// Output rows, when the job's output spec was [`OutputSpec::Memory`].
    pub rows: Vec<Row>,
    /// Output files, when the output spec was [`OutputSpec::DfsDir`].
    pub output_files: Vec<String>,
    /// Hardware-independent execution profile.
    pub profile: JobProfile,
    /// The profile priced on the engine's own cluster spec.
    pub cost: JobCost,
    /// Fraction of scanned bytes read from local replicas.
    pub locality: f64,
    /// Whether this result was materialized from the DFS result cache
    /// instead of executing any tasks.
    pub served_from_cache: bool,
    /// The job's canonical fingerprint, when it was cacheable (token set
    /// and cache enabled). Multi-stage planners chain this into the next
    /// stage's [`JobSpec::lineage`].
    pub fingerprint: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(map: Vec<TaskCost>, concurrency: u32) -> JobProfile {
        JobProfile {
            name: "t".into(),
            map_tasks: map
                .into_iter()
                .enumerate()
                .map(|(i, cost)| TaskProfile {
                    node: NodeId(i % 2),
                    cost,
                    wall_ns: 0,
                    speculative: false,
                })
                .collect(),
            map_concurrency: concurrency,
            ..JobProfile::default()
        }
    }

    #[test]
    fn pricing_detects_oom() {
        let cluster = ClusterSpec::cluster_a(); // 16 GB nodes
        let mut p = profile_with(vec![TaskCost::new()], 6);
        // 3 GB × 6 slots = 18 GB: over cluster A's 16 GB, under cluster
        // B's 32 GB — the paper's exact contrast.
        p.memory_per_slot = 3 << 30;
        let err = p.price(&CostParams::paper(), &cluster).unwrap_err();
        assert!(err.is_oom());
        // Cluster B (32 GB) fits — the paper's exact contrast.
        assert!(p
            .price(&CostParams::paper(), &ClusterSpec::cluster_b())
            .is_ok());
    }

    #[test]
    fn pricing_charges_slow_nodes_and_killed_attempts() {
        let cluster = ClusterSpec::cluster_a();
        let mut cost = TaskCost::new();
        cost.local_bytes = 1 << 30;
        let mut p = profile_with(vec![cost; 2], 1);
        let params = CostParams::paper();
        let clean = p.price(&params, &cluster).unwrap();

        // A 3× slow node stretches the map makespan.
        p.node_slowdown = vec![1.0, 3.0];
        let slowed = p.price(&params, &cluster).unwrap();
        assert!(slowed.map_s > clean.map_s);

        // A killed backup attempt occupies a slot and costs real seconds.
        p.node_slowdown = Vec::new();
        p.killed_attempts = vec![KilledAttempt {
            task: 0,
            node: NodeId(0),
            busy_s: clean.map_s * 2.0,
            cost,
        }];
        let wasted = p.price(&params, &cluster).unwrap();
        assert!(wasted.map_s > clean.map_s);
    }

    #[test]
    fn extrapolation_rebuilds_task_list() {
        let mut cost = TaskCost::new();
        cost.local_bytes = 1000;
        cost.probe_rows = 500;
        cost.build_rows = 100;
        let p = profile_with(vec![cost; 4], 1);
        let e = p.extrapolate(&Extrapolation {
            fact_factor: 10.0,
            dim_factor: 2.0,
            cluster: ClusterSpec::cluster_a(),
            map_tasks: MapTaskScaling::OnePerNode,
            map_concurrency: 1,
        });
        assert_eq!(e.map_tasks.len(), 8);
        let total = e.total_map_cost();
        assert_eq!(total.local_bytes, 40_000);
        assert_eq!(total.probe_rows, 20_000);
        assert_eq!(total.build_rows, 800);
    }

    #[test]
    fn extrapolation_by_split_bytes() {
        let mut cost = TaskCost::new();
        cost.local_bytes = 1 << 20;
        let p = profile_with(vec![cost], 6);
        let e = p.extrapolate(&Extrapolation {
            fact_factor: 100.0,
            dim_factor: 1.0,
            cluster: ClusterSpec::cluster_a(),
            map_tasks: MapTaskScaling::BySplitBytes {
                split_bytes: 4 << 20,
            },
            map_concurrency: 6,
        });
        assert_eq!(e.map_tasks.len(), 25); // 100 MB / 4 MB
    }

    #[test]
    fn more_nodes_price_faster() {
        let mut cost = TaskCost::new();
        cost.local_bytes = 10 << 30;
        cost.threads = 6;
        let p = profile_with(vec![cost; 8], 1);
        let params = CostParams::paper();
        let on_a = p.price(&params, &ClusterSpec::cluster_a()).unwrap();
        let e = p.extrapolate(&Extrapolation {
            fact_factor: 1.0,
            dim_factor: 1.0,
            cluster: ClusterSpec::cluster_b(),
            map_tasks: MapTaskScaling::OnePerNode,
            map_concurrency: 1,
        });
        let on_b = e.price(&params, &ClusterSpec::cluster_b()).unwrap();
        assert!(on_b.total_s() < on_a.total_s());
    }
}
