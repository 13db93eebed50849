//! In-memory spans and counts for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary, kept
//! in memory, and written as a Chrome trace when the run ends. Three kinds:
//!
//! * `Replay` — one call into a layer's public function while the benchmark
//!   redoes an op step by step; these carry the per-layer self times;
//! * `InSitu` — the engine's own run of the op, with child spans *placed*
//!   from the task wall times the engine reports (it reports durations, not
//!   start times, so the placement is derived: map tasks side by side from
//!   the op's start, reduce tasks after the slowest node);
//! * `Probe` — an extra timing of one layer on the op's real data that is
//!   not part of the replay (so it is left out of the busy sum).

use clyde_common::obs::json::escape;
use clyde_common::obs::WallTimer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    Replay,
    InSitu,
    Probe,
}

impl Cat {
    fn label(self) -> &'static str {
        match self {
            Cat::Replay => "replay",
            Cat::InSitu => "insitu",
            Cat::Probe => "probe",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cat: Cat,
    /// Spans of one op share its id.
    pub op_id: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Trace row: 0 = client, 1 + n = node n.
    pub lane: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub n: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    clock: WallTimer,
    pub spans: Vec<Span>,
    /// Label of each op, indexed by `op_id`.
    pub ops: Vec<String>,
    pub counts: BTreeMap<&'static str, u64>,
    stack: Vec<usize>,
    lane: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            clock: WallTimer::start(),
            spans: Vec::new(),
            ops: Vec::new(),
            counts: BTreeMap::new(),
            stack: Vec::new(),
            lane: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed_ns()
    }

    /// Start a new op; spans begun afterwards carry its id.
    pub fn begin_op(&mut self, label: &str) {
        self.ops.push(label.to_string());
    }

    fn op_id(&self) -> u32 {
        self.ops.len().saturating_sub(1) as u32
    }

    /// Trace row for spans begun from now on.
    pub fn set_lane(&mut self, lane: u32) {
        self.lane = lane;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, cat: Cat) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cat,
            op_id: self.op_id(),
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            lane: self.lane,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
    }

    /// A replay span around one call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_as(name, Cat::Replay, f)
    }

    pub fn time_as<T>(&mut self, name: &'static str, cat: Cat, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, cat);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span whose interval is derived, not clocked here.
    pub fn place(
        &mut self,
        name: &'static str,
        parent: usize,
        lane: u32,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            cat: Cat::InSitu,
            op_id: self.spans[parent].op_id,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
            lane,
        });
        self.spans.len() - 1
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self time of every span: its duration minus the part of that interval
    /// its child spans cover (children may overlap each other).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Per-name totals of one kind of span.
    pub fn aggregate(&self, cat: Cat) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            if s.cat == cat {
                let a = out.entry(s.name).or_default();
                a.n += 1;
                a.total_ns += s.dur_ns();
                a.self_ns += self_ns;
            }
        }
        out
    }

    /// Chrome trace-event JSON (load in Perfetto) of the ops below `max_ops`.
    pub fn chrome_trace(&self, max_ops: u32) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op_id >= max_ops {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = self.ops.get(s.op_id as usize).map_or("", String::as_str);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"op_id\":{},\"op\":\"{}\",\
                 \"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}}}",
                escape(s.name),
                s.cat.label(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.lane,
                s.op_id,
                escape(op),
                s.start_ns,
                s.end_ns,
            )
            .expect("string write");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::obs::json;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            cat: Cat::Replay,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
            lane: 0,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new();
        t.begin_op("Q1.1 \"quoted\"");
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = tracer(vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("b", Some(2), 50, 60),
        ]);
        assert_eq!(t.self_times(), vec![50, 20, 20, 10]);
        let agg = t.aggregate(Cat::Replay);
        assert_eq!(
            agg["b"],
            Agg {
                n: 2,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert!(t.aggregate(Cat::InSitu).is_empty());
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Two parallel map tasks overlap; a third overhangs the parent's end.
        let t = tracer(vec![
            span("op", None, 0, 100),
            span("map", Some(0), 0, 60),
            span("map", Some(0), 0, 40),
            span("reduce", Some(0), 90, 130),
        ]);
        assert_eq!(t.self_times()[0], 100 - 60 - 10);
        assert_eq!(covered(0, 10, Vec::new()), 0);
    }

    #[test]
    fn begin_end_nest_and_count() {
        let mut t = Tracer::new();
        t.begin_op("op0");
        let outer = t.begin("outer", Cat::Replay);
        t.set_lane(2);
        let got = t.time("inner", || 7);
        t.end(outer);
        t.count("rows", 3);
        t.count("rows", 4);
        assert_eq!(got, 7);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[1].lane, 2);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.counted("rows"), 7);
        assert_eq!(t.counted("absent"), 0);
        let placed = t.place("task", outer, 1, 5, 10);
        assert_eq!(t.spans[placed].end_ns, 15);
        assert_eq!(t.spans[placed].cat, Cat::InSitu);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_honours_the_op_limit() {
        let mut t = tracer(vec![span("a\\b", None, 1_500, 4_000)]);
        t.begin_op("second");
        t.spans.push(Span {
            op_id: 1,
            ..span("late", Some(0), 5_000, 6_000)
        });
        let doc = json::parse(&t.chrome_trace(1)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("name").unwrap().as_str(), Some("a\\b"));
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(e.get("ts").unwrap().as_num(), Some(1.5));
        assert_eq!(e.get("dur").unwrap().as_num(), Some(2.5));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("op").unwrap().as_str(), Some("Q1.1 \"quoted\""));
        assert_eq!(args.get("end_ns").unwrap().as_num(), Some(4000.0));
        let all = json::parse(&t.chrome_trace(u32::MAX)).unwrap();
        assert_eq!(all.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
