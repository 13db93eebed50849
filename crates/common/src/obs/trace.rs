//! Chrome trace-event export: turn recorded spans into deterministic JSON
//! loadable by Perfetto / `chrome://tracing`, project a [`JobHistory`]
//! into the span recorder, and check a serialized trace ([`validate`]).
//!
//! Layout: one trace *process* per job; thread 0 is the job/stage lane and
//! each (task kind, node, slot) gets its own lane. All timestamps are
//! simulated microseconds, so two identical runs serialize byte-identically.

use super::history::{JobHistory, TaskKind, TaskLane};
use super::json::{self, escape, Json};
use super::span::{us, Span, SpanId, SpanKind, SpanRecorder};
use std::collections::BTreeMap;

/// Project a job history into the recorder as a span tree. Returns the
/// (pid, job root span) pair, or `None` when the recorder is disabled.
pub fn record_job(rec: &SpanRecorder, h: &JobHistory) -> Option<(u32, SpanId)> {
    if !rec.is_enabled() {
        return None;
    }
    let pid = rec.new_process(&h.name);
    rec.name_thread(pid, 0, "job");

    // Deterministic lane numbering: map lanes first, then reduce lanes,
    // ordered by (node, slot).
    let mut lanes: BTreeMap<(TaskKind, usize, u32), u32> = BTreeMap::new();
    for t in &h.tasks {
        lanes.entry((t.kind, t.node, t.slot)).or_insert(0);
    }
    for (i, ((kind, node, slot), tid)) in lanes.iter_mut().enumerate() {
        *tid = i as u32 + 1;
        rec.name_thread(
            pid,
            *tid,
            &format!("{} node{} slot{}", kind.label(), node, slot),
        );
    }

    // A job starts at its arrival on the shared timeline: a served job's
    // admission, a Hive stage's predecessor's end, 0 for a solo run.
    let t0_us = us(h.t0_s);
    let total_us = us(h.end_s()).saturating_sub(t0_us);
    let root = rec.span(
        None,
        SpanKind::Job,
        &h.name,
        pid,
        0,
        t0_us,
        total_us,
        vec![
            ("map_tasks".into(), h.lanes(TaskKind::Map).len().to_string()),
            (
                "reduce_tasks".into(),
                h.lanes(TaskKind::Reduce).len().to_string(),
            ),
            ("map_concurrency".into(), h.map_concurrency.to_string()),
            ("scan_locality".into(), format!("{:.4}", h.locality)),
            ("split_locality".into(), format!("{:.4}", h.split_locality)),
            ("failed_attempts".into(), h.failed_attempts.to_string()),
        ]
        .into_iter()
        .chain(server_args(h))
        .chain(recovery_args(h))
        .collect(),
    )?;

    // Stage band on the job lane: setup | map | shuffle | reduce | overhead.
    let mut t = h.t0_s;
    let mut stage_ids: BTreeMap<TaskKind, SpanId> = BTreeMap::new();
    for (name, dur, kind) in [
        ("setup", h.setup_s, None),
        ("map", h.map_s, Some(TaskKind::Map)),
        ("shuffle", h.shuffle_s, None),
        ("reduce", h.reduce_s, Some(TaskKind::Reduce)),
        ("overhead", h.overhead_s, None),
    ] {
        if dur <= 0.0 {
            continue;
        }
        let mut args = Vec::new();
        if name == "shuffle" {
            args.push(("bytes".into(), h.shuffle_bytes.to_string()));
        }
        if name == "reduce" && h.merge_runs > 0 {
            args.push(("merged_runs".into(), h.merge_runs.to_string()));
        }
        if name == "map" && h.combine_input_records > 0 {
            args.push(("combine_in".into(), h.combine_input_records.to_string()));
            args.push(("combine_out".into(), h.combine_output_records.to_string()));
        }
        let id = rec.span(
            Some(root),
            SpanKind::Stage,
            name,
            pid,
            0,
            us(t),
            us(t + dur).saturating_sub(us(t)),
            args,
        )?;
        if let Some(k) = kind {
            stage_ids.insert(k, id);
        }
        t += dur;
    }

    for task in &h.tasks {
        let tid = *lanes.get(&(task.kind, task.node, task.slot))?;
        let parent = stage_ids.get(&task.kind).copied().or(Some(root));
        let t_start = us(task.start_s);
        let t_dur = us(task.finish_s()).saturating_sub(t_start);
        let name = if task.speculative {
            format!("{} {} (backup)", task.kind.label(), task.index)
        } else {
            format!("{} {}", task.kind.label(), task.index)
        };
        let tspan = rec.span(
            parent,
            SpanKind::Task,
            &name,
            pid,
            tid,
            t_start,
            t_dur,
            task_args(task),
        )?;
        for ph in &task.phases {
            if ph.dur_s <= 0.0 {
                continue;
            }
            // Clamp phase intervals inside the task span so rounding never
            // breaks parent/child nesting in the viewer.
            let p_start = us(ph.start_s).clamp(t_start, t_start + t_dur);
            let p_end = us(ph.start_s + ph.dur_s).clamp(p_start, t_start + t_dur);
            let mut args = Vec::new();
            if let Some(note) = &ph.note {
                args.push(("note".into(), note.clone()));
            }
            rec.span(
                Some(tspan),
                SpanKind::Phase,
                ph.phase.label(),
                pid,
                tid,
                p_start,
                p_end - p_start,
                args,
            );
        }
    }
    Some((pid, root))
}

/// Job-server args for the job span, emitted only for server-scheduled jobs
/// (non-empty tenant) so solo-run traces are byte-identical to before.
fn server_args(h: &JobHistory) -> Vec<(String, String)> {
    let mut args = Vec::new();
    if !h.tenant.is_empty() {
        args.push(("tenant".into(), h.tenant.clone()));
        args.push(("admitted_s".into(), format!("{:.3}", h.t0_s)));
    }
    args
}

/// Recovery-action args for the job span, emitted only when an action
/// actually fired so clean-run traces are byte-identical to before.
fn recovery_args(h: &JobHistory) -> Vec<(String, String)> {
    let mut args = Vec::new();
    if h.speculative_attempts > 0 {
        args.push((
            "speculative_attempts".into(),
            h.speculative_attempts.to_string(),
        ));
        args.push(("speculative_wins".into(), h.speculative_wins.to_string()));
    }
    if h.blacklisted_nodes > 0 {
        args.push(("blacklisted_nodes".into(), h.blacklisted_nodes.to_string()));
    }
    if h.dead_nodes > 0 {
        args.push(("dead_nodes".into(), h.dead_nodes.to_string()));
    }
    if h.rereplicated_blocks > 0 {
        args.push((
            "rereplicated_blocks".into(),
            h.rereplicated_blocks.to_string(),
        ));
    }
    args
}

fn task_args(task: &TaskLane) -> Vec<(String, String)> {
    let mut args = vec![
        ("node".into(), task.node.to_string()),
        ("slot".into(), task.slot.to_string()),
        ("locality".into(), format!("{:.4}", task.locality())),
    ];
    if task.local_bytes + task.remote_bytes > 0 {
        args.push(("local_bytes".into(), task.local_bytes.to_string()));
        args.push(("remote_bytes".into(), task.remote_bytes.to_string()));
    }
    if task.emit_records > 0 {
        args.push(("emit_records".into(), task.emit_records.to_string()));
        args.push(("emit_bytes".into(), task.emit_bytes.to_string()));
    }
    args
}

/// Serialize recorder contents as Chrome trace-event JSON.
///
/// Events are ordered: process metadata (by pid), thread metadata (by pid,
/// tid), then complete ("X") events sorted by (pid, tid, ts, -dur, id) —
/// which makes `ts` monotone non-decreasing within every track and keeps
/// output byte-stable across runs.
pub fn chrome_trace(rec: &SpanRecorder) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut processes = rec.processes();
    processes.sort_by_key(|p| p.0);
    for (pid, name) in &processes {
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            escape(name)
        ));
        events.push(format!(
            r#"{{"name":"process_sort_index","ph":"M","pid":{pid},"tid":0,"args":{{"sort_index":{pid}}}}}"#
        ));
    }
    let mut threads = rec.threads();
    threads.sort_by_key(|t| (t.0, t.1));
    for (pid, tid, name) in &threads {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            escape(name)
        ));
        events.push(format!(
            r#"{{"name":"thread_sort_index","ph":"M","pid":{pid},"tid":{tid},"args":{{"sort_index":{tid}}}}}"#
        ));
    }

    let mut spans = rec.spans();
    spans.sort_by(|a, b| {
        (a.pid, a.tid, a.ts_us, std::cmp::Reverse(a.dur_us), a.id.0).cmp(&(
            b.pid,
            b.tid,
            b.ts_us,
            std::cmp::Reverse(b.dur_us),
            b.id.0,
        ))
    });
    for s in &spans {
        events.push(event_json(s));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn event_json(s: &Span) -> String {
    let mut args = String::new();
    for (i, (k, v)) in s.args.iter().enumerate() {
        if i > 0 {
            args.push(',');
        }
        args.push_str(&format!(r#""{}":"{}""#, escape(k), escape(v)));
    }
    format!(
        r#"{{"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{{{}}}}}"#,
        escape(&s.name),
        s.kind.cat(),
        s.ts_us,
        s.dur_us,
        s.pid,
        s.tid,
        args
    )
}

/// Check a serialized Chrome trace: well-formed JSON with a `traceEvents`
/// array, every event carrying `name`, `ph` and a numeric `pid`, only
/// metadata ("M") and complete ("X") events, each "X" with numeric `tid`,
/// `ts` and `dur`, and `ts` monotone non-decreasing within every
/// (pid, tid) track — what [`chrome_trace`]'s ordering guarantees and
/// Perfetto's nesting relies on. Returns (duration events, tracks).
pub fn validate(text: &str) -> Result<(usize, usize), String> {
    let root = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    // BTreeMap: the track count is reported, and reports are deterministic.
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut x_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        let num = |field: &str| {
            ev.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i} (ph={ph}) missing numeric {field}"))
        };
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i} has no name"));
        }
        let pid = num("pid")? as u64;
        match ph {
            "M" => {}
            "X" => {
                let (tid, ts) = (num("tid")? as u64, num("ts")?);
                num("dur")?;
                if let Some(prev) = last_ts.insert((pid, tid), ts) {
                    if ts < prev {
                        return Err(format!(
                            "track (pid {pid}, tid {tid}): ts went backwards at event {i} \
                             ({ts} after {prev})"
                        ));
                    }
                }
                x_events += 1;
            }
            other => return Err(format!("event {i} has unexpected ph \"{other}\"")),
        }
    }
    if x_events == 0 {
        return Err("trace contains no X (duration) events".into());
    }
    Ok((x_events, last_ts.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::history::{Phase, PhaseSlice};
    use crate::obs::json;

    fn sample_history() -> JobHistory {
        let task = |index: usize, node: usize, start: f64, dur: f64| TaskLane {
            index,
            kind: TaskKind::Map,
            node,
            slot: 0,
            start_s: start,
            dur_s: dur,
            local_bytes: 1000,
            remote_bytes: 0,
            emit_records: 5,
            emit_bytes: 50,
            wall_ns: 123,
            speculative: false,
            phases: vec![
                PhaseSlice {
                    phase: Phase::Setup,
                    start_s: start,
                    dur_s: 0.5,
                    note: None,
                },
                PhaseSlice {
                    phase: Phase::Scan,
                    start_s: start + 0.5,
                    dur_s: dur - 0.5,
                    note: Some("1000 B".into()),
                },
            ],
        };
        JobHistory {
            name: "job-x".into(),
            setup_s: 1.0,
            map_s: 10.0,
            overhead_s: 2.0,
            map_concurrency: 1,
            locality: 1.0,
            split_locality: 1.0,
            tasks: vec![task(0, 0, 1.0, 10.0), task(1, 1, 1.0, 8.0)],
            ..JobHistory::default()
        }
    }

    #[test]
    fn record_job_builds_span_tree() {
        let rec = SpanRecorder::enabled();
        let (pid, root) = record_job(&rec, &sample_history()).unwrap();
        let spans = rec.spans();
        // 1 job + 3 stages (setup/map/overhead) + 2 tasks + 4 phases.
        assert_eq!(spans.len(), 10);
        let job = &spans[root.0 as usize];
        assert_eq!(job.kind, SpanKind::Job);
        assert_eq!(job.dur_us, 13_000_000);
        assert_eq!(job.pid, pid);
        // Tasks parent to the map stage, phases to their task.
        let tasks: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Task).collect();
        assert_eq!(tasks.len(), 2);
        let map_stage = spans
            .iter()
            .find(|s| s.kind == SpanKind::Stage && s.name == "map")
            .unwrap();
        assert!(tasks.iter().all(|t| t.parent == Some(map_stage.id)));
        for t in &tasks {
            let phases: Vec<&Span> = spans
                .iter()
                .filter(|s| s.parent == Some(t.id) && s.kind == SpanKind::Phase)
                .collect();
            assert_eq!(phases.len(), 2);
            // Nesting: phases stay inside the task interval.
            for p in phases {
                assert!(p.ts_us >= t.ts_us && p.end_us() <= t.end_us());
            }
        }
        // Lanes: job lane 0 plus one lane per (node, slot).
        assert_eq!(rec.threads().len(), 3);
    }

    #[test]
    fn recovery_actions_appear_in_job_args_and_backup_lanes() {
        let mut h = sample_history();
        h.speculative_attempts = 2;
        h.speculative_wins = 1;
        h.rereplicated_blocks = 3;
        h.tasks[1].speculative = true;
        let rec = SpanRecorder::enabled();
        let (_, root) = record_job(&rec, &h).unwrap();
        let spans = rec.spans();
        let job = &spans[root.0 as usize];
        let arg = |k: &str| {
            job.args
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(arg("speculative_attempts").as_deref(), Some("2"));
        assert_eq!(arg("speculative_wins").as_deref(), Some("1"));
        assert_eq!(arg("rereplicated_blocks").as_deref(), Some("3"));
        assert_eq!(arg("blacklisted_nodes"), None, "zero counters stay absent");
        assert!(spans.iter().any(|s| s.name == "map 1 (backup)"));
        assert!(spans.iter().any(|s| s.name == "map 0"));
    }

    #[test]
    fn chrome_trace_is_valid_and_monotone() {
        let rec = SpanRecorder::enabled();
        record_job(&rec, &sample_history()).unwrap();
        let (events, tracks) = validate(&chrome_trace(&rec)).expect("the writer's own trace");
        assert!(
            events >= tracks && tracks >= 2,
            "{events} events, {tracks} tracks"
        );
    }

    #[test]
    fn validate_rejects_what_perfetto_would_misrender() {
        let trace = |events: &str| format!("{{\"traceEvents\":[{events}]}}");
        let x = |ts: u32, rest: &str| {
            format!("{{\"name\":\"t\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":{ts}{rest}}}")
        };
        let ok = trace(&format!("{},{}", x(5, ",\"dur\":1"), x(5, ",\"dur\":9")));
        assert_eq!(validate(&ok), Ok((2, 1)));
        let backwards = trace(&format!("{},{}", x(5, ",\"dur\":1"), x(4, ",\"dur\":1")));
        assert!(validate(&backwards)
            .unwrap_err()
            .contains("ts went backwards"));
        assert!(validate(&trace(&x(5, "")))
            .unwrap_err()
            .contains("missing numeric dur"));
        let begin = "{\"name\":\"t\",\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\":0}";
        assert!(validate(&trace(begin))
            .unwrap_err()
            .contains("unexpected ph \"B\""));
        assert!(validate("{\"traceEvents\":[")
            .unwrap_err()
            .contains("not valid JSON"));
        assert!(validate("{}").unwrap_err().contains("missing traceEvents"));
        let metadata_only = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0}";
        assert!(validate(&trace(metadata_only))
            .unwrap_err()
            .contains("no X"));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let render = || {
            let rec = SpanRecorder::enabled();
            record_job(&rec, &sample_history()).unwrap();
            chrome_trace(&rec)
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn disabled_recorder_produces_empty_trace() {
        let rec = SpanRecorder::disabled();
        assert!(record_job(&rec, &sample_history()).is_none());
        let text = chrome_trace(&rec);
        assert!(json::parse(&text).is_ok());
    }
}
