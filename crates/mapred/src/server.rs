//! A long-running multi-job server over the engine: submission queue with
//! admission control, per-tenant quotas, and policy-driven slot scheduling
//! in deterministic simulated time.
//!
//! The execution/scheduling split keeps every existing guarantee intact:
//! jobs *execute* sequentially in submission order through the unmodified
//! [`Engine`] (so an admitted job's rows, output files, and counters are
//! bit-for-bit what a solo run produces), while *concurrency* lives entirely
//! in the discrete-event slot simulator ([`scheduler::interleave`]). The
//! published histories, traces, and `scheduler.*` metrics therefore depend
//! only on the submitted workload — never on wall-clock or host thread
//! count — and `tests/determinism.rs` dual-runs a whole served workload.
//!
//! Admission is decided synchronously at [`JobServer::submit`] against the
//! current backlog: a bounded queue (reject past `queue_capacity`) and an
//! optional per-tenant pending quota. Rejections carry a typed reason and
//! are reported in the drain's [`ServerRun`] artifact next to the served
//! swimlanes.

use crate::cost::JobCost;
use crate::engine::{publish_history, Engine};
use crate::history;
use crate::job::{JobResult, JobSpec};
use crate::scheduler::{self, SchedPolicy, SimJob};
use clyde_common::obs::{catalog as series, RejectedLane, ServedLane, ServerRun};
use clyde_common::Result;
use std::fmt;

/// Server-level knobs, fixed for the server's lifetime.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub policy: SchedPolicy,
    /// Max jobs waiting in the queue at once; submissions past this are
    /// rejected with [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Max *pending* jobs any single tenant may hold (0 = no per-tenant
    /// cap); the quota frees up as the queue drains.
    pub tenant_quota: usize,
    /// Capacity-policy weights by tenant name; unlisted tenants weigh 1.0.
    pub weights: Vec<(String, f64)>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            policy: SchedPolicy::Fair,
            queue_capacity: 64,
            tenant_quota: 0,
            weights: Vec::new(),
        }
    }
}

/// Why admission control turned a submission away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity; resubmit after a drain.
    QueueFull { capacity: usize },
    /// The tenant already holds its full pending quota.
    TenantQuota { quota: usize },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::TenantQuota { quota } => {
                write!(f, "tenant quota exceeded (quota {quota})")
            }
        }
    }
}

/// One served job: where it sat on the shared timeline, plus the full
/// (solo-identical) execution result.
pub struct ServedJob {
    pub tenant: String,
    pub name: String,
    /// Submission time on the server clock (seconds).
    pub arrival_s: f64,
    /// First granted slot on the shared cluster.
    pub start_s: f64,
    /// Completion (last stage + overhead) on the shared timeline.
    pub finish_s: f64,
    pub result: JobResult,
}

impl ServedJob {
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }

    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

struct Submission {
    tenant: String,
    arrival_s: f64,
    spec: JobSpec,
}

/// The multi-job frontend. Accumulates admitted submissions, then lays them
/// all out on the shared cluster in one [`JobServer::drain`].
///
/// A spec carrying `faults` executes under them (results stay
/// solo-identical) and is scheduled as it would be solo: slow nodes stretch
/// its lanes and killed attempts occupy map slots.
pub struct JobServer<'e> {
    engine: &'e Engine,
    cfg: ServerConfig,
    /// Monotone server clock: a submission's arrival is clamped to it.
    clock_s: f64,
    pending: Vec<Submission>,
    rejected: Vec<RejectedLane>,
    /// High-water mark of the pending queue since the last drain.
    peak_depth: usize,
}

impl<'e> JobServer<'e> {
    pub fn new(engine: &'e Engine, cfg: ServerConfig) -> JobServer<'e> {
        JobServer {
            engine,
            cfg,
            clock_s: 0.0,
            pending: Vec::new(),
            rejected: Vec::new(),
            peak_depth: 0,
        }
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Jobs currently waiting for the next drain.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Submit a job on behalf of `tenant` at server time `arrival_s`
    /// (clamped to be monotone). Admission is decided immediately against
    /// the current backlog; a rejected spec is dropped and recorded in the
    /// next drain's report.
    pub fn submit(
        &mut self,
        tenant: &str,
        arrival_s: f64,
        spec: JobSpec,
    ) -> std::result::Result<(), RejectReason> {
        self.clock_s = self.clock_s.max(arrival_s);
        let arrival = self.clock_s;
        let reason = if self.pending.len() >= self.cfg.queue_capacity {
            Some(RejectReason::QueueFull {
                capacity: self.cfg.queue_capacity,
            })
        } else if self.cfg.tenant_quota > 0
            && self.pending.iter().filter(|s| s.tenant == tenant).count() >= self.cfg.tenant_quota
        {
            Some(RejectReason::TenantQuota {
                quota: self.cfg.tenant_quota,
            })
        } else {
            None
        };
        if let Some(reason) = reason {
            self.rejected.push(RejectedLane {
                tenant: tenant.to_string(),
                job: spec.name.clone(),
                arrival_s: arrival,
                reason: reason.to_string(),
            });
            return Err(reason);
        }
        self.pending.push(Submission {
            tenant: tenant.to_string(),
            arrival_s: arrival,
            spec,
        });
        self.peak_depth = self.peak_depth.max(self.pending.len());
        Ok(())
    }

    /// Run everything admitted since the last drain: execute each job
    /// (sequentially, in submission order — results are solo-identical),
    /// interleave their tasks on the shared cluster under the configured
    /// policy, publish one scheduled history per job plus the aggregate
    /// `scheduler.*` metrics, and record the [`ServerRun`] swimlane report.
    pub fn drain(&mut self) -> Result<Vec<ServedJob>> {
        let subs = std::mem::take(&mut self.pending);
        let rejected = std::mem::take(&mut self.rejected);
        let peak_depth = std::mem::replace(&mut self.peak_depth, 0);
        let cluster = self.engine.dfs().cluster().clone();
        let params = self.engine.params().clone();
        let cache_before = self.engine.dfs().cache_stats();

        // Dense tenant indices in order of first submission.
        let mut tenant_names: Vec<String> = Vec::new();
        let tenant_idx = |names: &mut Vec<String>, t: &str| -> usize {
            match names.iter().position(|n| n == t) {
                Some(i) => i,
                None => {
                    names.push(t.to_string());
                    names.len() - 1
                }
            }
        };
        let weight_of = |cfg: &ServerConfig, t: &str| -> f64 {
            cfg.weights
                .iter()
                .find(|(name, _)| name == t)
                .map_or(1.0, |(_, w)| *w)
        };

        // Phase 1: execute. The engine is untouched single-job machinery;
        // running in dispatch order keeps DFS I/O scopes and obs recording
        // attributable per job.
        let mut executed = Vec::with_capacity(subs.len());
        let mut sim_jobs = Vec::with_capacity(subs.len());
        for sub in &subs {
            let (result, io) = self.engine.run_job_quiet(&sub.spec)?;
            sim_jobs.push(SimJob {
                tenant: tenant_idx(&mut tenant_names, &sub.tenant),
                weight: weight_of(&self.cfg, &sub.tenant),
                arrival_s: sub.arrival_s,
                task_mem: sub.spec.declared_task_memory,
                // A cache hit is priced as a read, not as a job submission.
                overhead_s: result.cost.overhead_s,
                ..result.profile.sim_job(&params, &cluster)
            });
            executed.push((result, io));
        }

        // Phase 2: schedule all admitted jobs on the shared cluster.
        let schedules = scheduler::interleave(&sim_jobs, &cluster, self.cfg.policy)?;

        // Phase 3: publish, in submission order (deterministic).
        let mut served = Vec::with_capacity(subs.len());
        let mut lanes = Vec::with_capacity(subs.len());
        for (((result, io), sub), sched) in executed.into_iter().zip(&subs).zip(&schedules) {
            if self.engine.obs().is_enabled() {
                // The bands tile the scheduled span exactly: "map" absorbs
                // any queueing between slot grants, so `t0_s + total_s()`
                // equals the scheduled finish.
                let c = &result.cost;
                let bands = JobCost {
                    map_s: (sched.map_end_s - sub.arrival_s - c.setup_s).max(0.0),
                    reduce_s: (sched.reduce_end_s - sched.map_end_s - c.shuffle_s).max(0.0),
                    ..*c
                };
                let mut hist =
                    history::job_history(&result.profile, &bands, &params, &cluster, sched, 0.0);
                hist.tenant = sub.tenant.clone();
                hist.t0_s = sub.arrival_s;
                publish_history(
                    self.engine.obs(),
                    &result.profile,
                    hist,
                    io.as_ref(),
                    result.served_from_cache,
                );
            }
            lanes.push(ServedLane {
                tenant: sub.tenant.clone(),
                job: sub.spec.name.clone(),
                arrival_s: sub.arrival_s,
                start_s: sched.first_slot_s,
                finish_s: sched.finish_s,
            });
            served.push(ServedJob {
                tenant: sub.tenant.clone(),
                name: sub.spec.name.clone(),
                arrival_s: sub.arrival_s,
                start_s: sched.first_slot_s,
                finish_s: sched.finish_s,
                result,
            });
        }

        // Drain-level result-cache deltas: catalog counters accumulated by
        // this drain's lookups/fills, emitted only while the cache is
        // enabled (and, like the recovery counters, only when nonzero) so
        // cache-off runs keep their metric sets byte-identical. Per-job
        // `cache.hits` rides with each scheduled history above.
        if self.engine.dfs().cache_enabled() && self.engine.obs().is_enabled() {
            let delta = self.engine.dfs().cache_stats().delta_since(&cache_before);
            let m = self.engine.obs().metrics();
            if delta.misses > 0 {
                m.counter_add(series::CACHE_MISSES, delta.misses);
            }
            if delta.inserts > 0 {
                m.counter_add(series::CACHE_INSERTS, delta.inserts);
            }
            if delta.evictions > 0 {
                m.counter_add(series::CACHE_EVICTIONS, delta.evictions);
            }
            if delta.invalidations > 0 {
                m.counter_add(series::CACHE_INVALIDATIONS, delta.invalidations);
            }
            if delta.bytes_served > 0 {
                m.counter_add(series::CACHE_BYTES_SERVED, delta.bytes_served);
            }
            m.gauge_set(series::CACHE_BYTES_STORED, delta.bytes_stored as f64);
            m.gauge_set(series::CACHE_ENTRIES, delta.entries as f64);
        }

        let run = ServerRun {
            policy: self.cfg.policy.label().to_string(),
            queue_capacity: self.cfg.queue_capacity,
            lanes,
            rejected,
        };
        self.publish_run(&run, peak_depth, tenant_names.len());
        self.engine.obs().record_server_run(run);
        Ok(served)
    }

    /// Aggregate drain-level metrics. Per-tenant detail lives in the
    /// [`ServerRun`] report.
    fn publish_run(&self, run: &ServerRun, peak_depth: usize, tenants: usize) {
        let obs = self.engine.obs();
        if !obs.is_enabled() {
            return;
        }
        let m = obs.metrics();
        m.counter_add(series::SCHEDULER_JOBS_ADMITTED, run.lanes.len() as u64);
        let queue_full = run
            .rejected
            .iter()
            .filter(|r| r.reason.starts_with("queue full"))
            .count() as u64;
        let quota = run.rejected.len() as u64 - queue_full;
        if queue_full > 0 {
            m.counter_add(series::SCHEDULER_JOBS_REJECTED_QUEUE_FULL, queue_full);
        }
        if quota > 0 {
            m.counter_add(series::SCHEDULER_JOBS_REJECTED_QUOTA, quota);
        }
        m.gauge_set(series::SCHEDULER_QUEUE_PEAK_DEPTH, peak_depth as f64);
        m.gauge_set(series::SCHEDULER_TENANT_COUNT, tenants as f64);
        m.gauge_set(series::SCHEDULER_MAKESPAN_S, run.makespan_s());
        for lane in &run.lanes {
            m.histogram_record(series::SCHEDULER_QUEUE_WAIT_S, lane.wait_s());
            m.histogram_record(series::SCHEDULER_JOB_LATENCY_S, lane.latency_s());
        }
    }
}
