//! The hierarchical span recorder: job → stage → task → phase.
//!
//! Spans carry *simulated* time (microseconds derived from the cost model),
//! so a recorded timeline is a pure function of the execution profile and is
//! byte-for-byte reproducible. Wall-clock measurements ride separately on
//! [`crate::obs::history::TaskLane::wall_ns`] and are deliberately excluded
//! from spans so trace exports stay deterministic.
//!
//! A disabled recorder is a no-op: every method early-returns before taking
//! a lock or formatting an argument, so instrumented code paths cost nothing
//! when observability is off.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the span recorder's buffer: one lock held for a single push or \
                drain"
)]

use crate::lockorder::Mutex;

/// Identifier of a recorded span (index into the recorder's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

/// Level of a span in the job → stage → task → phase hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    Job,
    Stage,
    Task,
    Phase,
}

impl SpanKind {
    /// Chrome trace-event category string.
    pub fn cat(&self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Stage => "stage",
            SpanKind::Task => "task",
            SpanKind::Phase => "phase",
        }
    }
}

/// One recorded interval on a (pid, tid) track.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub kind: SpanKind,
    pub name: String,
    /// Trace process: one per job.
    pub pid: u32,
    /// Trace thread: lane within the job (0 = job/stage lane, then one lane
    /// per (node, slot) pair).
    pub tid: u32,
    /// Simulated start, microseconds from job submission.
    pub ts_us: u64,
    /// Simulated duration, microseconds.
    pub dur_us: u64,
    /// Deterministic key/value annotations (counter values, byte counts).
    pub args: Vec<(String, String)>,
}

impl Span {
    pub fn end_us(&self) -> u64 {
        self.ts_us + self.dur_us
    }
}

/// Convert simulated seconds to trace microseconds (deterministic rounding).
pub fn us(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

#[derive(Default)]
struct RecorderInner {
    spans: Vec<Span>,
    /// (pid, display name) for trace `process_name` metadata.
    processes: Vec<(u32, String)>,
    /// (pid, tid, display name) for trace `thread_name` metadata.
    threads: Vec<(u32, u32, String)>,
}

/// Thread-safe recorder; `disabled()` constructs the zero-overhead no-op.
pub struct SpanRecorder {
    inner: Option<Mutex<RecorderInner>>,
}

impl SpanRecorder {
    pub fn enabled() -> SpanRecorder {
        SpanRecorder {
            inner: Some(Mutex::new(RecorderInner::default())),
        }
    }

    pub fn disabled() -> SpanRecorder {
        SpanRecorder { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register a new trace process (one per job); returns its pid.
    pub fn new_process(&self, name: &str) -> u32 {
        let Some(inner) = &self.inner else { return 0 };
        let mut inner = inner.lock();
        let pid = inner.processes.len() as u32;
        inner.processes.push((pid, name.to_string()));
        pid
    }

    /// Give `(pid, tid)` a display name in the trace.
    pub fn name_thread(&self, pid: u32, tid: u32, name: &str) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.lock();
        inner.threads.push((pid, tid, name.to_string()));
    }

    /// Record a span; returns its id, or `None` when disabled.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per Chrome trace event field"
    )]
    pub fn span(
        &self,
        parent: Option<SpanId>,
        kind: SpanKind,
        name: &str,
        pid: u32,
        tid: u32,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, String)>,
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let mut inner = inner.lock();
        let id = SpanId(inner.spans.len() as u32);
        inner.spans.push(Span {
            id,
            parent,
            kind,
            name: name.to_string(),
            pid,
            tid,
            ts_us,
            dur_us,
            args,
        });
        Some(id)
    }

    /// Snapshot of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.lock().spans.clone(),
        }
    }

    /// Registered (pid, name) process metadata.
    pub fn processes(&self) -> Vec<(u32, String)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.lock().processes.clone(),
        }
    }

    /// Registered (pid, tid, name) thread metadata.
    pub fn threads(&self) -> Vec<(u32, u32, String)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.lock().threads.clone(),
        }
    }

    /// Drop every recorded span and track registration.
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            *inner.lock() = RecorderInner::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = SpanRecorder::disabled();
        assert!(!r.is_enabled());
        assert_eq!(r.new_process("j"), 0);
        let id = r.span(None, SpanKind::Job, "j", 0, 0, 0, 10, Vec::new());
        assert!(id.is_none());
        assert!(r.spans().is_empty());
        assert!(r.processes().is_empty());
    }

    #[test]
    fn spans_record_hierarchy_and_tracks() {
        let r = SpanRecorder::enabled();
        let pid = r.new_process("job-a");
        r.name_thread(pid, 0, "job");
        let root = r
            .span(None, SpanKind::Job, "job-a", pid, 0, 0, 100, Vec::new())
            .unwrap();
        let child = r
            .span(
                Some(root),
                SpanKind::Task,
                "map 0",
                pid,
                1,
                5,
                50,
                vec![("rows".into(), "7".into())],
            )
            .unwrap();
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].end_us(), 55);
        assert_eq!(r.processes(), vec![(0, "job-a".to_string())]);
        r.reset();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn us_conversion_rounds_deterministically() {
        assert_eq!(us(0.0), 0);
        assert_eq!(us(1.5), 1_500_000);
        assert_eq!(us(0.000_000_6), 1);
        assert_eq!(us(-1.0), 0);
    }
}
