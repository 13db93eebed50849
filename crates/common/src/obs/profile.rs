//! EXPLAIN ANALYZE: per-query profiles comparing model-predicted cost with
//! measured execution.
//!
//! A [`QueryProfile`] is assembled from the [`JobHistory`] records a query
//! produced (each task lane carries the `CostParams`-priced phase slices,
//! the measured wall-clock per phase rides on `wall_phases`) plus the
//! per-node I/O snapshot the engine attributed to the job. Two views come
//! out of it:
//!
//! * `render()` — the human-facing explain-analyze tree: stage and phase
//!   rows with simulated seconds, measured wall time, and drift percentages,
//!   ending in a calibration verdict that flags any phase whose measured
//!   share diverges more than a threshold from the model's share.
//! * `to_json()` — a deterministic artifact (simulated time and counters
//!   only, wall excluded), byte-identical across runs and host thread
//!   counts, so two of them diff meaningfully.
//!
//! Calibration compares *shares*, not absolute values: simulated seconds
//! price a paper-era cluster while wall nanoseconds measure this host, so
//! the honest question is whether the model distributes time across phases
//! the way the instrumented run does. Only phases with a wall measurement
//! participate, and both sides are renormalized over that subset.

use super::history::{IoBytes, JobHistory, Phase, TaskKind};
use super::json::escape;
use std::fmt::{self, Write as _};

/// Default calibration threshold: flag phases whose measured share drifts
/// more than this many percent (relative) from the model's share.
pub const DEFAULT_DRIFT_THRESHOLD_PCT: f64 = 25.0;

/// One stage band of a job (setup / map / shuffle / reduce / overhead).
#[derive(Debug, Clone)]
pub struct StageRow {
    pub name: &'static str,
    /// Model-priced simulated seconds.
    pub sim_s: f64,
    /// Measured wall nanoseconds of the tasks in this stage (0 for stages
    /// with no in-process tasks: setup, shuffle, overhead).
    pub wall_ns: u64,
}

/// One phase of a job, model vs measured.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    pub phase: Phase,
    /// Predicted seconds, summed over all tasks.
    pub model_s: f64,
    /// Longest single-task total (the phase's critical-path contribution).
    pub model_crit_s: f64,
    /// Measured wall nanoseconds summed over tasks (0 = not instrumented).
    pub wall_ns: u64,
    /// Model share among phases that also have wall measurements.
    pub model_share: f64,
    /// Measured share among the same subset.
    pub wall_share: f64,
    /// Relative drift of the measured share from the model share, percent.
    /// `None` when this phase has no wall measurement to compare.
    pub drift_pct: Option<f64>,
    /// Whether `|drift_pct|` exceeded the profile's threshold.
    pub flagged: bool,
}

/// Model-vs-measured report for one job of a query.
#[derive(Debug, Clone)]
pub struct JobProfileReport {
    pub name: String,
    pub sim_total_s: f64,
    pub wall_total_ns: u64,
    pub map_tasks: usize,
    pub reduce_tasks: usize,
    pub shuffle_bytes: u64,
    pub stages: Vec<StageRow>,
    pub phases: Vec<PhaseRow>,
    /// Per-phase critical-path seconds over map lanes (phase label order of
    /// [`Phase::all`]); sub-attributes the map stage in the artifact.
    pub map_phase_crit: Vec<(Phase, f64)>,
    /// Same over reduce lanes.
    pub reduce_phase_crit: Vec<(Phase, f64)>,
}

impl JobProfileReport {
    /// The tasks' wall time that no phase claims: `wall_total_ns` minus the
    /// phases' wall, at least 0.
    pub fn wall_unattributed_ns(&self) -> u64 {
        let attributed: u64 = self.phases.iter().map(|p| p.wall_ns).sum();
        self.wall_total_ns.saturating_sub(attributed)
    }
}

/// The explain-analyze profile of one query.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    pub query: String,
    /// Simulated end-to-end seconds including the client-side final sort.
    pub total_s: f64,
    pub final_sort_s: f64,
    pub drift_threshold_pct: f64,
    pub jobs: Vec<JobProfileReport>,
    /// Per-node DFS I/O attributed to the query (merged over its jobs).
    pub io: Vec<IoBytes>,
    pub corrupt_reads: u64,
}

fn stage_rows(h: &JobHistory) -> Vec<StageRow> {
    let wall = |kind: TaskKind| -> u64 {
        h.tasks
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.wall_ns)
            .sum()
    };
    vec![
        StageRow {
            name: "setup",
            sim_s: h.setup_s,
            wall_ns: 0,
        },
        StageRow {
            name: "map",
            sim_s: h.map_s,
            wall_ns: wall(TaskKind::Map),
        },
        StageRow {
            name: "shuffle",
            sim_s: h.shuffle_s,
            wall_ns: 0,
        },
        StageRow {
            name: "reduce",
            sim_s: h.reduce_s,
            wall_ns: wall(TaskKind::Reduce),
        },
        StageRow {
            name: "overhead",
            sim_s: h.overhead_s,
            wall_ns: 0,
        },
    ]
}

fn phase_rows(h: &JobHistory, threshold_pct: f64) -> Vec<PhaseRow> {
    let wall_of = |p: Phase| -> u64 {
        h.wall_phases
            .iter()
            .filter(|(wp, _)| *wp == p)
            .map(|(_, ns)| *ns)
            .sum()
    };
    let mut rows: Vec<PhaseRow> = Phase::all()
        .iter()
        .filter_map(|&p| {
            let model_s = h.phase_total_s(p);
            let wall_ns = wall_of(p);
            if model_s <= 0.0 && wall_ns == 0 {
                return None;
            }
            Some(PhaseRow {
                phase: p,
                model_s,
                model_crit_s: h.phase_max_s(p),
                wall_ns,
                model_share: 0.0,
                wall_share: 0.0,
                drift_pct: None,
                flagged: false,
            })
        })
        .collect();

    // Calibrate over the subset of phases that were wall-instrumented.
    let model_base: f64 = rows
        .iter()
        .filter(|r| r.wall_ns > 0)
        .map(|r| r.model_s)
        .sum();
    let wall_base: u64 = rows.iter().map(|r| r.wall_ns).sum();
    if model_base > 0.0 && wall_base > 0 {
        for r in rows.iter_mut().filter(|r| r.wall_ns > 0) {
            r.model_share = r.model_s / model_base;
            r.wall_share = r.wall_ns as f64 / wall_base as f64;
            if r.model_share > 0.0 {
                let drift = (r.wall_share - r.model_share) / r.model_share * 100.0;
                r.drift_pct = Some(drift);
                r.flagged = drift.abs() > threshold_pct;
            }
        }
    }
    rows
}

fn phase_crit_for(h: &JobHistory, kind: TaskKind) -> Vec<(Phase, f64)> {
    Phase::all()
        .iter()
        .filter_map(|&p| {
            let s = h.phase_max_s_for(kind, p);
            if s > 0.0 {
                Some((p, s))
            } else {
                None
            }
        })
        .collect()
}

fn merge_io(profiles: &[JobHistory]) -> (Vec<IoBytes>, u64) {
    let mut per_node: Vec<IoBytes> = Vec::new();
    let mut corrupt = 0;
    for h in profiles {
        corrupt += h.corrupt_reads;
        for io in &h.io {
            match per_node.iter_mut().find(|n| n.node == io.node) {
                Some(n) => {
                    n.local_read += io.local_read;
                    n.remote_read += io.remote_read;
                    n.written += io.written;
                }
                None => per_node.push(*io),
            }
        }
    }
    per_node.sort_by_key(|n| n.node);
    (per_node, corrupt)
}

impl QueryProfile {
    /// Assemble the profile of one query from the job histories it recorded
    /// (in execution order) plus the priced client-side sort.
    pub fn from_histories(
        query: &str,
        histories: &[JobHistory],
        final_sort_s: f64,
        drift_threshold_pct: f64,
    ) -> QueryProfile {
        let jobs: Vec<JobProfileReport> = histories
            .iter()
            .map(|h| JobProfileReport {
                name: h.name.clone(),
                sim_total_s: h.total_s(),
                wall_total_ns: h.total_wall_ns(),
                map_tasks: h.lanes(TaskKind::Map).len(),
                reduce_tasks: h.lanes(TaskKind::Reduce).len(),
                shuffle_bytes: h.shuffle_bytes,
                stages: stage_rows(h),
                phases: phase_rows(h, drift_threshold_pct),
                map_phase_crit: phase_crit_for(h, TaskKind::Map),
                reduce_phase_crit: phase_crit_for(h, TaskKind::Reduce),
            })
            .collect();
        let (io, corrupt_reads) = merge_io(histories);
        let total_s = jobs.iter().map(|j| j.sim_total_s).sum::<f64>() + final_sort_s;
        QueryProfile {
            query: query.to_string(),
            total_s,
            final_sort_s,
            drift_threshold_pct,
            jobs,
            io,
            corrupt_reads,
        }
    }

    /// Phases whose measured share drifted past the threshold, as
    /// (job name, phase, drift pct), in report order.
    pub fn flagged_phases(&self) -> Vec<(&str, Phase, f64)> {
        self.jobs
            .iter()
            .flat_map(|j| {
                j.phases
                    .iter()
                    .filter(|p| p.flagged)
                    .map(|p| (j.name.as_str(), p.phase, p.drift_pct.unwrap_or(0.0)))
            })
            .collect()
    }

    /// The human-facing explain-analyze report. Wall-clock columns are
    /// host-dependent; the deterministic artifact is [`Self::to_json`].
    pub fn render(&self) -> String {
        Report(self).to_string()
    }

    /// Deterministic JSON artifact: simulated time and counters only (wall
    /// measurements are host-dependent and deliberately excluded), so two
    /// identical runs — at any host thread count — serialize byte-identically.
    pub fn to_json(&self) -> String {
        JsonArtifact(self).to_string()
    }
}

/// [`QueryProfile::render`]'s text.
struct Report<'a>(&'a QueryProfile);

impl fmt::Display for Report<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        writeln!(out, "== explain analyze {} ==", p.query)?;
        writeln!(
            out,
            "total {:.1}s simulated (jobs {:.1}s + final sort {:.1}s)",
            p.total_s,
            p.total_s - p.final_sort_s,
            p.final_sort_s
        )?;
        for j in &p.jobs {
            writeln!(
                out,
                "job {}: {:.1}s sim, {:.2}ms wall across tasks ({} map + {} reduce)",
                j.name,
                j.sim_total_s,
                j.wall_total_ns as f64 / 1e6,
                j.map_tasks,
                j.reduce_tasks
            )?;
            for s in &j.stages {
                if s.sim_s <= 0.0 && s.wall_ns == 0 {
                    continue;
                }
                let wall = if s.wall_ns > 0 {
                    format!("  {:.2}ms wall", s.wall_ns as f64 / 1e6)
                } else {
                    String::new()
                };
                writeln!(out, "  stage {:<9} {:>8.1}s sim{}", s.name, s.sim_s, wall)?;
            }
            if j.wall_total_ns > 0 {
                writeln!(
                    out,
                    "  wall {:.2}ms unattributed to any phase",
                    j.wall_unattributed_ns() as f64 / 1e6
                )?;
            }
            writeln!(
                out,
                "  {:<11} {:>9} {:>9} {:>7} {:>11} {:>7} {:>8}",
                "phase", "model", "crit", "share", "wall", "share", "drift"
            )?;
            for p in &j.phases {
                let (wall, wshare, drift) = match p.drift_pct {
                    Some(d) => (
                        format!("{:.2}ms", p.wall_ns as f64 / 1e6),
                        format!("{:.1}%", p.wall_share * 100.0),
                        format!("{:+.1}%{}", d, if p.flagged { "  <-- drift" } else { "" }),
                    ),
                    None => ("-".to_string(), "-".to_string(), "-".to_string()),
                };
                let mshare = if p.drift_pct.is_some() {
                    format!("{:.1}%", p.model_share * 100.0)
                } else {
                    "-".to_string()
                };
                writeln!(
                    out,
                    "  {:<11} {:>8.2}s {:>8.2}s {:>7} {:>11} {:>7} {:>8}",
                    p.phase.label(),
                    p.model_s,
                    p.model_crit_s,
                    mshare,
                    wall,
                    wshare,
                    drift
                )?;
            }
        }
        if !p.io.is_empty() {
            let local: u64 = p.io.iter().map(|n| n.local_read).sum();
            let remote: u64 = p.io.iter().map(|n| n.remote_read).sum();
            let written: u64 = p.io.iter().map(|n| n.written).sum();
            writeln!(
                out,
                "io: {} nodes, {} B local + {} B remote read, {} B written{}",
                p.io.len(),
                local,
                remote,
                written,
                if p.corrupt_reads > 0 {
                    format!(", {} corrupt reads", p.corrupt_reads)
                } else {
                    String::new()
                }
            )?;
        }
        let flagged = p.flagged_phases();
        if flagged.is_empty() {
            writeln!(
                out,
                "calibration: all phases within {:.0}% of CostParams pricing",
                p.drift_threshold_pct
            )?;
        } else {
            let list: Vec<String> = flagged
                .iter()
                .map(|(_, p, d)| format!("{} {:+.1}%", p.label(), d))
                .collect();
            writeln!(
                out,
                "calibration: {} phase(s) drift >{:.0}% from CostParams pricing: {}",
                flagged.len(),
                p.drift_threshold_pct,
                list.join(", ")
            )?;
        }
        Ok(())
    }
}

/// [`QueryProfile::to_json`]'s text.
struct JsonArtifact<'a>(&'a QueryProfile);

impl fmt::Display for JsonArtifact<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        write!(
            out,
            "{{\"query\":\"{}\",\"total_s\":{:.6},\"final_sort_s\":{:.6},\"jobs\":[",
            escape(&p.query),
            p.total_s,
            p.final_sort_s
        )?;
        for (i, j) in p.jobs.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"total_s\":{:.6},\"map_tasks\":{},\"reduce_tasks\":{},\"shuffle_bytes\":{},\"stages\":{{",
                escape(&j.name),
                j.sim_total_s,
                j.map_tasks,
                j.reduce_tasks,
                j.shuffle_bytes
            )?;
            for (k, s) in j.stages.iter().enumerate() {
                if k > 0 {
                    out.write_char(',')?;
                }
                write!(out, "\"{}\":{:.6}", s.name, s.sim_s)?;
            }
            out.write_str("},\"map_phases\":{")?;
            for (k, (p, s)) in j.map_phase_crit.iter().enumerate() {
                if k > 0 {
                    out.write_char(',')?;
                }
                write!(out, "\"{}\":{:.6}", p.label(), s)?;
            }
            out.write_str("},\"reduce_phases\":{")?;
            for (k, (p, s)) in j.reduce_phase_crit.iter().enumerate() {
                if k > 0 {
                    out.write_char(',')?;
                }
                write!(out, "\"{}\":{:.6}", p.label(), s)?;
            }
            out.write_str("},\"phases\":{")?;
            // A phase only measured, never priced, has no simulated row.
            let priced = j.phases.iter().filter(|p| p.model_s > 0.0);
            for (k, p) in priced.enumerate() {
                if k > 0 {
                    out.write_char(',')?;
                }
                write!(
                    out,
                    "\"{}\":{{\"model_s\":{:.6},\"crit_s\":{:.6}}}",
                    p.phase.label(),
                    p.model_s,
                    p.model_crit_s
                )?;
            }
            out.write_str("}}")?;
        }
        out.write_str("],\"io\":{")?;
        let local: u64 = p.io.iter().map(|n| n.local_read).sum();
        let remote: u64 = p.io.iter().map(|n| n.remote_read).sum();
        let written: u64 = p.io.iter().map(|n| n.written).sum();
        write!(
            out,
            "\"local_read\":{local},\"remote_read\":{remote},\"written\":{written},\"corrupt_reads\":{},\"per_node\":[",
            p.corrupt_reads
        )?;
        for (i, n) in p.io.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write!(
                out,
                "{{\"node\":{},\"local_read\":{},\"remote_read\":{},\"written\":{}}}",
                n.node, n.local_read, n.remote_read, n.written
            )?;
        }
        out.write_str("]}}")?;
        Ok(())
    }
}

/// Bundle a set of query profiles into one deterministic artifact (the
/// `profile` bin's `query-profiles.json`).
pub fn profiles_json(profiles: &[QueryProfile]) -> String {
    let mut out = String::from("{\"format\":\"clyde-profiles\",\"version\":1,\"queries\":[\n");
    for (i, p) in profiles.iter().enumerate() {
        out.push_str(&p.to_json());
        if i + 1 < profiles.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::history::{PhaseSlice, TaskLane};

    fn lane(kind: TaskKind, node: usize, dur: f64, phases: Vec<(Phase, f64)>) -> TaskLane {
        let mut t = 0.0;
        let slices = phases
            .into_iter()
            .map(|(p, d)| {
                let s = PhaseSlice {
                    phase: p,
                    start_s: t,
                    dur_s: d,
                    note: None,
                };
                t += d;
                s
            })
            .collect();
        TaskLane {
            index: node,
            kind,
            node,
            slot: 0,
            start_s: 0.0,
            dur_s: dur,
            local_bytes: 1000,
            remote_bytes: 0,
            emit_records: 10,
            emit_bytes: 100,
            wall_ns: 0,
            speculative: false,
            phases: slices,
        }
    }

    fn history() -> JobHistory {
        JobHistory {
            name: "q".into(),
            setup_s: 1.0,
            map_s: 10.0,
            shuffle_s: 2.0,
            reduce_s: 3.0,
            overhead_s: 1.0,
            map_concurrency: 1,
            locality: 1.0,
            split_locality: 1.0,
            // Model: build 4s vs probe 6s (40% / 60% of the measured set).
            wall_phases: vec![(Phase::HashBuild, 8_000_000), (Phase::Probe, 2_000_000)],
            io: vec![IoBytes {
                node: 0,
                local_read: 4096,
                remote_read: 512,
                written: 64,
            }],
            corrupt_reads: 0,
            tasks: vec![
                lane(
                    TaskKind::Map,
                    0,
                    10.0,
                    vec![(Phase::HashBuild, 4.0), (Phase::Probe, 6.0)],
                ),
                lane(TaskKind::Reduce, 1, 3.0, vec![(Phase::Reduce, 3.0)]),
            ],
            ..JobHistory::default()
        }
    }

    #[test]
    fn calibration_flags_drifting_phases() {
        // Wall says hash-build took 80% of the measured time; the model
        // prices it at 40% — a +100% drift, far past the 25% threshold.
        let p = QueryProfile::from_histories("Q2.1", &[history()], 0.5, 25.0);
        assert_eq!(p.jobs.len(), 1);
        let flagged = p.flagged_phases();
        assert!(
            flagged
                .iter()
                .any(|(_, ph, d)| *ph == Phase::HashBuild && *d > 25.0),
            "hash-build must be flagged: {flagged:?}"
        );
        let build = p.jobs[0]
            .phases
            .iter()
            .find(|r| r.phase == Phase::HashBuild)
            .unwrap();
        assert!((build.model_share - 0.4).abs() < 1e-9);
        assert!((build.wall_share - 0.8).abs() < 1e-9);
        assert!((build.drift_pct.unwrap() - 100.0).abs() < 1e-6);
        // The un-instrumented reduce phase has no drift verdict.
        let reduce = p.jobs[0]
            .phases
            .iter()
            .find(|r| r.phase == Phase::Reduce)
            .unwrap();
        assert!(reduce.drift_pct.is_none());
        let text = p.render();
        assert!(text.contains("explain analyze Q2.1"));
        assert!(text.contains("<-- drift"));
        assert!(text.contains("calibration:"));
        assert!(text.contains("io: 1 nodes"));
    }

    #[test]
    fn totals_include_jobs_and_final_sort() {
        let p = QueryProfile::from_histories("Q1.1", &[history()], 0.5, 25.0);
        assert!((p.total_s - (17.0 + 0.5)).abs() < 1e-9);
        assert_eq!(p.jobs[0].map_tasks, 1);
        assert_eq!(p.jobs[0].reduce_tasks, 1);
        // Map-side critical path carries build and probe; reduce side the
        // reduce phase.
        assert!(p.jobs[0]
            .map_phase_crit
            .iter()
            .any(|(ph, s)| *ph == Phase::Probe && (*s - 6.0).abs() < 1e-9));
        assert!(p.jobs[0]
            .reduce_phase_crit
            .iter()
            .any(|(ph, s)| *ph == Phase::Reduce && (*s - 3.0).abs() < 1e-9));
    }

    #[test]
    fn json_artifact_is_deterministic_and_wall_free() {
        let mk = || {
            let mut h = history();
            // Wall data varies run to run; the artifact must not see it.
            h.wall_phases = vec![(Phase::HashBuild, 123), (Phase::Probe, 456)];
            for t in &mut h.tasks {
                t.wall_ns = 999;
            }
            QueryProfile::from_histories("Q3.4", &[h], 0.5, 25.0)
        };
        let a = mk().to_json();
        let mut h2 = history();
        h2.wall_phases = vec![(Phase::HashBuild, 77_000), (Phase::Probe, 1)];
        let b = QueryProfile::from_histories("Q3.4", &[h2], 0.5, 25.0).to_json();
        assert_eq!(a, b, "wall-clock must not leak into the artifact");
        assert!(a.contains("\"query\":\"Q3.4\""));
        assert!(a.contains("\"map_phases\""));
        assert!(!a.contains("wall"));
        // Valid JSON per our own parser.
        let doc = crate::obs::json::parse(&a).expect("artifact parses");
        assert_eq!(doc.get("query").and_then(|q| q.as_str()), Some("Q3.4"));

        let bundle = profiles_json(&[mk(), mk()]);
        let doc = crate::obs::json::parse(&bundle).expect("bundle parses");
        assert_eq!(
            doc.get("format").and_then(|f| f.as_str()),
            Some("clyde-profiles")
        );
        assert_eq!(doc.get("queries").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn io_merges_across_jobs() {
        let mut h1 = history();
        let mut h2 = history();
        h2.io = vec![
            IoBytes {
                node: 0,
                local_read: 4,
                remote_read: 0,
                written: 0,
            },
            IoBytes {
                node: 2,
                local_read: 8,
                remote_read: 0,
                written: 0,
            },
        ];
        h1.corrupt_reads = 1;
        h2.corrupt_reads = 2;
        let p = QueryProfile::from_histories("Qx", &[h1, h2], 0.0, 25.0);
        assert_eq!(p.corrupt_reads, 3);
        assert_eq!(p.io.len(), 2);
        assert_eq!(p.io[0].node, 0);
        assert_eq!(p.io[0].local_read, 4100);
        assert_eq!(p.io[1].node, 2);
        assert_eq!(p.io[1].local_read, 8);
    }
}
