//! Observability: hierarchical spans, a unified metrics registry, and
//! job-history reports.
//!
//! The paper's evaluation (Section 6) reads everything — the Q2.1 time
//! breakdown, effective scan bandwidth, locality — from Hadoop's per-task
//! counters and job-history logs. [`Obs`] is our equivalent: engines record
//! a [`JobHistory`] per job, spans mirror the cost model's simulated
//! timeline (exportable as deterministic Chrome trace JSON for Perfetto),
//! and the [`MetricsRegistry`] unifies the counters that used to live in
//! `TaskCost`, the DFS I/O snapshot, and the scheduler.
//!
//! `Obs::disabled()` is a zero-overhead no-op; instrumented code guards
//! expensive collection behind [`Obs::is_enabled`].

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the observability hub's internal state: one lock per store, each \
                held for a single update"
)]

pub mod catalog;
pub mod flame;
pub mod history;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod server;
pub mod span;
pub mod trace;
pub mod wall;

pub use history::{IoBytes, JobHistory, Phase, PhaseSlice, StragglerStats, TaskKind, TaskLane};
pub use metrics::{HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use profile::{
    profiles_json, JobProfileReport, PhaseRow, QueryProfile, StageRow, DRIFT_THRESHOLD_PCT,
};
pub use server::{RejectedLane, ServedLane, ServerRun};
pub use span::{us, Span, SpanId, SpanKind, SpanRecorder};
pub use wall::WallTimer;

use crate::lockorder::Mutex;
use std::sync::Arc;

/// Handle to the most recently recorded job's trace location, so callers
/// (e.g. the query layer adding a final-sort span) can append to the same
/// track.
#[derive(Debug, Clone, Copy)]
pub struct JobRef {
    pub pid: u32,
    pub root: SpanId,
    /// Simulated end of the job (seconds) — where appended work starts.
    pub total_s: f64,
}

/// The observability hub shared across DFS, engine, query layer, and bench
/// harness. Cheap to clone via `Arc`.
pub struct Obs {
    enabled: bool,
    spans: SpanRecorder,
    metrics: MetricsRegistry,
    histories: Mutex<Vec<JobHistory>>,
    profiles: Mutex<Vec<QueryProfile>>,
    server_runs: Mutex<Vec<ServerRun>>,
    last_job: Mutex<Option<JobRef>>,
}

impl Obs {
    pub fn enabled() -> Arc<Obs> {
        Arc::new(Obs {
            enabled: true,
            spans: SpanRecorder::enabled(),
            metrics: MetricsRegistry::enabled(),
            histories: Mutex::new(Vec::new()),
            profiles: Mutex::new(Vec::new()),
            server_runs: Mutex::new(Vec::new()),
            last_job: Mutex::new(None),
        })
    }

    /// The no-op hub: recording and metric updates cost nothing.
    pub fn disabled() -> Arc<Obs> {
        Arc::new(Obs {
            enabled: false,
            spans: SpanRecorder::disabled(),
            metrics: MetricsRegistry::disabled(),
            histories: Mutex::new(Vec::new()),
            profiles: Mutex::new(Vec::new()),
            server_runs: Mutex::new(Vec::new()),
            last_job: Mutex::new(None),
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Record a finished job: stores the history and projects it into the
    /// span recorder. Returns the job's trace location.
    pub fn record_job(&self, h: JobHistory) -> Option<JobRef> {
        if !self.enabled {
            return None;
        }
        let total_s = h.end_s();
        let job_ref =
            trace::record_job(&self.spans, &h).map(|(pid, root)| JobRef { pid, root, total_s });
        self.histories.lock().push(h);
        *self.last_job.lock() = job_ref;
        job_ref
    }

    pub fn last_job(&self) -> Option<JobRef> {
        *self.last_job.lock()
    }

    /// Run `f` over every recorded job history, in recording order.
    pub fn with_histories<R>(&self, f: impl FnOnce(&[JobHistory]) -> R) -> R {
        f(&self.histories.lock())
    }

    /// Store a finished job-server drain's per-tenant swimlane report.
    pub fn record_server_run(&self, r: ServerRun) {
        if self.enabled {
            self.server_runs.lock().push(r);
        }
    }

    /// Run `f` over every recorded server run, in recording order.
    pub fn with_server_runs<R>(&self, f: impl FnOnce(&[ServerRun]) -> R) -> R {
        f(&self.server_runs.lock())
    }

    /// Store a finished query's explain-analyze profile.
    pub fn record_query_profile(&self, p: QueryProfile) {
        if self.enabled {
            self.profiles.lock().push(p);
        }
    }

    /// Run `f` over every recorded query profile, in recording order.
    pub fn with_query_profiles<R>(&self, f: impl FnOnce(&[QueryProfile]) -> R) -> R {
        f(&self.profiles.lock())
    }

    /// Collapsed-stack flamegraph export of every recorded span
    /// (deterministic over simulated time; see [`flame::collapsed`]).
    pub fn flamegraph(&self) -> String {
        flame::collapsed(&self.spans)
    }

    /// Serialize all recorded spans as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        trace::chrome_trace(&self.spans)
    }

    /// Per-job summaries followed by the metrics snapshot, as text.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        self.with_server_runs(|rs| {
            for r in rs {
                out.push_str(&r.render());
            }
        });
        self.with_histories(|hs| {
            for h in hs {
                out.push_str(&h.summary());
            }
        });
        let metrics = self.metrics.snapshot().render();
        if !metrics.is_empty() {
            out.push_str("metrics:\n");
            for line in metrics.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Clear spans, metrics, and histories (e.g. between bench iterations).
    pub fn reset(&self) {
        self.spans.reset();
        self.metrics.reset();
        self.histories.lock().clear();
        self.profiles.lock().clear();
        self.server_runs.lock().clear();
        *self.last_job.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let h = JobHistory {
            name: "j".into(),
            map_s: 1.0,
            ..JobHistory::default()
        };
        assert!(obs.record_job(h).is_none());
        assert!(obs.last_job().is_none());
        obs.with_histories(|hs| assert!(hs.is_empty()));
        assert!(obs.summary().is_empty());
    }

    #[test]
    fn enabled_obs_tracks_jobs_and_resets() {
        let obs = Obs::enabled();
        obs.metrics().counter_add(catalog::MAPRED_JOBS, 1);
        let h = JobHistory {
            name: "j".into(),
            map_s: 2.0,
            ..JobHistory::default()
        };
        let j = obs.record_job(h).unwrap();
        assert_eq!(j.total_s, 2.0);
        assert_eq!(obs.last_job().unwrap().pid, j.pid);
        obs.with_histories(|hs| assert_eq!(hs.len(), 1));
        assert!(obs.summary().contains("job j"));
        assert!(obs.summary().contains("mapred.jobs = 1"));
        obs.record_query_profile(QueryProfile::from_histories("Q1.1", &[], 0.5));
        obs.with_query_profiles(|ps| assert_eq!(ps.len(), 1));
        obs.reset();
        obs.with_histories(|hs| assert!(hs.is_empty()));
        obs.with_query_profiles(|ps| assert!(ps.is_empty()));
        assert!(obs.last_job().is_none());
        assert!(obs.spans().spans().is_empty());
    }
}
