//! A long-running multi-job server over the engine: submission queue with
//! admission control, per-tenant quotas, and policy-driven slot scheduling
//! in deterministic simulated time.
//!
//! One event loop on the slot simulator's clock ([`Sim`]): [`JobServer::drain`]
//! takes the admitted jobs in arrival order. It advances the simulator to a
//! job's arrival and commits the result-cache fills of the jobs finished by
//! then — a job reuses only materialized outputs (ReStore's rule) — then
//! executes the job through the unmodified [`Engine`] (rows, output files and
//! counters bit-for-bit a solo run's) with its own fill held back, and admits
//! it to the simulator. Concurrency lives only in the simulator, so histories,
//! traces and `scheduler.*` metrics depend only on the submitted workload,
//! never on wall-clock or host threads (`tests/determinism.rs`).
//!
//! Admission is decided synchronously at [`JobServer::submit`] against the
//! current backlog: a bounded queue (reject past `queue_capacity`) and an
//! optional per-tenant pending quota. Rejections carry a typed reason and
//! are reported in the drain's [`ServerRun`] artifact next to the served
//! swimlanes.

use crate::engine::{publish_history, ClientArtifacts, Engine, Executed};
use crate::history;
use crate::job::{JobResult, JobSpec};
use crate::scheduler::{SchedPolicy, Sim, SimJob};
use clyde_common::obs::{catalog as series, JobRef, RejectedLane, ServedLane, ServerRun};
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
    /// Where the job's scheduled history sits in the trace (`None` with
    /// observability off), for the query layer to append to its track.
    pub trace: Option<JobRef>,
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
    /// How many of `rejected` the bounded queue turned away.
    rejected_queue_full: u64,
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
            rejected_queue_full: 0,
            peak_depth: 0,
        }
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
            self.rejected_queue_full += u64::from(matches!(reason, RejectReason::QueueFull { .. }));
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

    /// Run everything admitted since the last drain in one arrival-ordered
    /// loop (module docs), then run the simulator to the end, commit the
    /// remaining fills, publish one scheduled history per job (in submission
    /// order) plus the `scheduler.*` metrics, and record the [`ServerRun`].
    pub fn drain(&mut self) -> Result<Vec<ServedJob>> {
        let subs = std::mem::take(&mut self.pending);
        let rejected = std::mem::take(&mut self.rejected);
        let queue_full = std::mem::take(&mut self.rejected_queue_full);
        let peak_depth = std::mem::replace(&mut self.peak_depth, 0);
        let cluster = self.engine.dfs().cluster().clone();
        let params = self.engine.params().clone();
        let cache_before = self.engine.dfs().cache_stats();
        let obs = self.engine.obs();

        // Dense tenant indices in order of first submission.
        let mut tenant_names: Vec<String> = Vec::new();
        let mut sim = Sim::new(&cluster, self.cfg.policy);
        let mut ran: Vec<Executed> = Vec::with_capacity(subs.len());
        // One step per arrival, and one past the last for the fills left.
        for sub in subs.iter().map(Some).chain([None]) {
            let now = sub.map_or(f64::INFINITY, |s| s.arrival_s);
            sim.advance(now)?;
            for j in sim.finished_by(now) {
                if let Some(done) = ran.get_mut(j) {
                    self.engine.commit_fill(done)?;
                }
            }
            let Some(sub) = sub else { break };
            // Priced alone from t = 0; the drain below places it.
            let job = self
                .engine
                .execute(&sub.spec, ClientArtifacts::default(), 0.0)?;
            let tenant = tenant_names.iter().position(|n| *n == sub.tenant);
            let tenant = tenant.unwrap_or_else(|| {
                tenant_names.push(sub.tenant.clone());
                tenant_names.len() - 1
            });
            let weight = self.cfg.weights.iter().find(|(n, _)| *n == sub.tenant);
            sim.admit(SimJob {
                tenant,
                weight: weight.map_or(1.0, |(_, w)| *w),
                arrival_s: sub.arrival_s,
                task_mem: sub.spec.declared_task_memory,
                // A cache hit is priced as a read, not as a job submission.
                overhead_s: job.result.cost.overhead_s,
                ..job.result.profile.sim_job(&params, &cluster)
            })?;
            ran.push(job);
        }
        let schedules = sim.run()?;

        // Publish, in submission order (deterministic).
        let mut served = Vec::with_capacity(subs.len());
        let mut lanes = Vec::with_capacity(subs.len());
        for ((ran, sub), sched) in ran.into_iter().zip(&subs).zip(&schedules) {
            let result = ran.result;
            let trace = if obs.is_enabled() {
                let p = &result.profile;
                let mut hist = history::job_history(p, &params, &cluster, sched);
                hist.tenant = sub.tenant.clone();
                publish_history(obs, p, hist, ran.io.as_ref(), result.served_from_cache)
            } else {
                None
            };
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
                trace,
            });
        }

        // Drain-level result-cache deltas: catalog counters accumulated by
        // this drain's lookups/fills, emitted only while the cache is
        // enabled (and, like the recovery counters, only when nonzero) so
        // cache-off runs keep their metric sets byte-identical. Per-job
        // `cache.hits` rides with each scheduled history above.
        if self.engine.dfs().cache_enabled() && obs.is_enabled() {
            let delta = self.engine.dfs().cache_stats().delta_since(&cache_before);
            let m = obs.metrics();
            for (counter, n) in [
                (series::CACHE_MISSES, delta.misses),
                (series::CACHE_INSERTS, delta.inserts),
                (series::CACHE_EVICTIONS, delta.evictions),
                (series::CACHE_INVALIDATIONS, delta.invalidations),
                (series::CACHE_BYTES_SERVED, delta.bytes_served),
            ] {
                if n > 0 {
                    m.counter_add(counter, n);
                }
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
        self.publish_run(&run, queue_full, peak_depth, tenant_names.len());
        obs.record_server_run(run);
        Ok(served)
    }

    /// Aggregate drain-level metrics. Per-tenant detail lives in the
    /// [`ServerRun`] report.
    fn publish_run(&self, run: &ServerRun, queue_full: u64, peak_depth: usize, tenants: usize) {
        let obs = self.engine.obs();
        if !obs.is_enabled() {
            return;
        }
        let m = obs.metrics();
        m.counter_add(series::SCHEDULER_JOBS_ADMITTED, run.lanes.len() as u64);
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
