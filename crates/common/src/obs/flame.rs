//! Aggregated profile view: the collapsed-stack flamegraph.
//!
//! Computed over *simulated* time, so it is a pure function of the recorded
//! spans and renders byte-identically across runs and host thread counts.
//! The output is the standard `frame;frame;frame value` format consumed by
//! flamegraph.pl, inferno, and speedscope; values are self-time
//! microseconds.

use super::span::{Span, SpanRecorder};
use std::collections::BTreeMap;

fn frame(name: &str) -> String {
    // ';' separates frames in the collapsed format — keep names unambiguous.
    name.replace(';', ":")
}

/// Export every recorded span as collapsed stacks with self-time values
/// (microseconds of simulated time). Lines are sorted and duplicate stacks
/// merged, so equal span sets always serialize identically.
pub fn collapsed(rec: &SpanRecorder) -> String {
    let spans = rec.spans();
    let procs: BTreeMap<u32, String> = rec.processes().into_iter().collect();
    // Span ids index the recorder's list, but be defensive and key by id.
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id.0, s)).collect();
    let mut child_us: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &spans {
        if let Some(parent) = s.parent {
            *child_us.entry(parent.0).or_insert(0) += s.dur_us;
        }
    }
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for s in &spans {
        let self_us = s
            .dur_us
            .saturating_sub(*child_us.get(&s.id.0).unwrap_or(&0));
        if self_us == 0 {
            continue;
        }
        let mut frames = vec![frame(&s.name)];
        let mut cur = s.parent;
        while let Some(pid) = cur {
            match by_id.get(&pid.0) {
                Some(p) => {
                    frames.push(frame(&p.name));
                    cur = p.parent;
                }
                None => break,
            }
        }
        if let Some(pname) = procs.get(&s.pid) {
            frames.push(frame(pname));
        }
        frames.reverse();
        *stacks.entry(frames.join(";")).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (stack, value) in &stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::span::SpanKind;

    #[test]
    fn collapsed_attributes_self_time_and_sorts() {
        let r = SpanRecorder::enabled();
        let pid = r.new_process("job q2.1 #0");
        let root = r
            .span(None, SpanKind::Job, "job q2.1", pid, 0, 0, 100, Vec::new())
            .unwrap();
        let stage = r
            .span(
                Some(root),
                SpanKind::Stage,
                "map",
                pid,
                0,
                0,
                80,
                Vec::new(),
            )
            .unwrap();
        r.span(
            Some(stage),
            SpanKind::Phase,
            "probe",
            pid,
            1,
            0,
            50,
            Vec::new(),
        );
        let text = collapsed(&r);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "job q2.1 #0;job q2.1 20",
                "job q2.1 #0;job q2.1;map 30",
                "job q2.1 #0;job q2.1;map;probe 50",
            ]
        );
        // Same spans -> identical bytes.
        assert_eq!(text, collapsed(&r));
    }

    #[test]
    fn collapsed_handles_disabled_recorder() {
        assert_eq!(collapsed(&SpanRecorder::disabled()), "");
    }
}
