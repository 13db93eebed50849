//! Job-history data model: per-task swimlanes, phase slices, and
//! straggler / partition-skew statistics.
//!
//! A [`JobHistory`] is the structured record of one executed job — the analog
//! of Hadoop's job-history log plus its per-task counters (paper Section 6
//! reads all of its measurements from those). Engines build one per job; the
//! trace exporter turns it into Chrome trace-event spans and the text
//! summary renders the same data for terminals.

/// Map-side vs reduce-side lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskKind {
    Map,
    Reduce,
}

impl TaskKind {
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }
}

/// Execution phase within a task (or stage-level activity). The set mirrors
/// the cost model's time components so every priced second lands in exactly
/// one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Per-task framework overhead (JVM start / task setup).
    Setup,
    /// Loading persisted per-node state (e.g. spilled hash tables).
    StateLoad,
    /// Building dimension hash tables (Clydesdale's build phase).
    HashBuild,
    /// Reading fact/input bytes from the DFS.
    Scan,
    /// Join probe + per-block CPU work over scanned rows.
    Probe,
    /// Emitting / pre-aggregating map output records.
    Emit,
    /// Writing task output (map-only output files or reduce output).
    Write,
    /// Moving map output to reducers.
    Shuffle,
    /// Sorting / merging runs on the reduce side.
    Sort,
    /// Applying the reduce function.
    Reduce,
    /// Job-level scheduling overhead not attributed to any task.
    Overhead,
}

impl Phase {
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::StateLoad => "state-load",
            Phase::HashBuild => "hash-build",
            Phase::Scan => "scan",
            Phase::Probe => "probe",
            Phase::Emit => "emit",
            Phase::Write => "write",
            Phase::Shuffle => "shuffle",
            Phase::Sort => "sort",
            Phase::Reduce => "reduce",
            Phase::Overhead => "overhead",
        }
    }

    /// Every phase, in display order.
    pub fn all() -> &'static [Phase] {
        &[
            Phase::Setup,
            Phase::StateLoad,
            Phase::HashBuild,
            Phase::Scan,
            Phase::Probe,
            Phase::Emit,
            Phase::Write,
            Phase::Shuffle,
            Phase::Sort,
            Phase::Reduce,
            Phase::Overhead,
        ]
    }
}

/// One phase interval inside a task. `start_s` is absolute (seconds from job
/// submission) so slices can be exported as spans without extra context.
#[derive(Debug, Clone)]
pub struct PhaseSlice {
    pub phase: Phase,
    pub start_s: f64,
    pub dur_s: f64,
    /// Optional deterministic annotation ("1313.6 MB local", "27000 rows").
    pub note: Option<String>,
}

/// One task's swimlane entry: placement, interval, counters, phases.
#[derive(Debug, Clone)]
pub struct TaskLane {
    pub index: usize,
    pub kind: TaskKind,
    pub node: usize,
    /// Slot on the node (0..concurrency) the task occupied in the schedule.
    pub slot: u32,
    /// Simulated start, seconds from job submission.
    pub start_s: f64,
    /// Simulated duration, seconds.
    pub dur_s: f64,
    pub local_bytes: u64,
    pub remote_bytes: u64,
    pub emit_records: u64,
    pub emit_bytes: u64,
    /// Measured wall-clock nanoseconds the in-process engine actually spent
    /// executing this task. Reported in summaries, excluded from traces.
    pub wall_ns: u64,
    /// Whether this lane is a speculative backup attempt (either the winner
    /// of the commit race or a killed loser occupying its slot).
    pub speculative: bool,
    pub phases: Vec<PhaseSlice>,
}

/// Summed duration of `phase`'s slices, folded from `0.0`.
fn slice_total<'a>(slices: impl Iterator<Item = &'a PhaseSlice>, phase: Phase) -> f64 {
    slices
        .filter(|p| p.phase == phase)
        .fold(0.0, |acc, p| acc + p.dur_s)
}

impl TaskLane {
    /// This task's total for a phase (seconds).
    fn phase_s(&self, phase: Phase) -> f64 {
        slice_total(self.phases.iter(), phase)
    }

    pub fn finish_s(&self) -> f64 {
        self.start_s + self.dur_s
    }

    /// Fraction of this task's scanned bytes that were node-local.
    pub fn locality(&self) -> f64 {
        let total = self.local_bytes + self.remote_bytes;
        if total == 0 {
            1.0
        } else {
            self.local_bytes as f64 / total as f64
        }
    }
}

/// Straggler and partition-skew statistics over a set of task lanes
/// (paper Section 6.3 reads these off the Hadoop job history).
#[derive(Debug, Clone)]
pub struct StragglerStats {
    pub tasks: usize,
    pub min_s: f64,
    pub median_s: f64,
    pub mean_s: f64,
    pub max_s: f64,
    /// max / median task time; 1.0 means perfectly balanced.
    pub time_skew: f64,
    /// Index (within the job) of the slowest task.
    pub straggler_task: usize,
    /// Node the slowest task ran on.
    pub straggler_node: usize,
    pub emit_bytes_median: f64,
    pub emit_bytes_max: u64,
    /// max / median emit bytes across tasks (partition skew).
    pub emit_skew: f64,
}

fn median(sorted: &[f64]) -> f64 {
    let (low, high) = sorted.split_at(sorted.len() / 2);
    match (low.last(), high.first()) {
        (Some(a), Some(b)) if low.len() == high.len() => (a + b) / 2.0,
        (_, Some(b)) => *b,
        (_, None) => 0.0,
    }
}

fn ratio(max: f64, med: f64) -> f64 {
    if med > 0.0 {
        max / med
    } else {
        1.0
    }
}

impl StragglerStats {
    /// Compute stats over `lanes`; returns `None` for an empty set.
    pub fn from_lanes(lanes: &[&TaskLane]) -> Option<StragglerStats> {
        let straggler = lanes
            .iter()
            .max_by(|a, b| a.dur_s.total_cmp(&b.dur_s).then(b.index.cmp(&a.index)))?;
        let mut durs: Vec<f64> = lanes.iter().map(|t| t.dur_s).collect();
        durs.sort_by(f64::total_cmp);
        let (&min_s, &max_s) = (durs.first()?, durs.last()?);
        let mut emits: Vec<f64> = lanes.iter().map(|t| t.emit_bytes as f64).collect();
        emits.sort_by(f64::total_cmp);
        let emit_med = median(&emits);
        let emit_max = lanes.iter().map(|t| t.emit_bytes).max().unwrap_or(0);
        Some(StragglerStats {
            tasks: lanes.len(),
            min_s,
            median_s: median(&durs),
            mean_s: durs.iter().sum::<f64>() / durs.len() as f64,
            max_s,
            time_skew: ratio(max_s, median(&durs)),
            straggler_task: straggler.index,
            straggler_node: straggler.node,
            emit_bytes_median: emit_med,
            emit_bytes_max: emit_max,
            emit_skew: ratio(emit_max as f64, emit_med),
        })
    }
}

/// Per-node DFS I/O attributed to one job (the engine's scoped snapshot,
/// mirrored here so profiles can report I/O next to phase costs without a
/// dependency on the DFS crate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoBytes {
    pub node: usize,
    /// Bytes read from a replica on this node.
    pub local_read: u64,
    /// Bytes this node read over the network.
    pub remote_read: u64,
    /// Bytes written to replicas on this node.
    pub written: u64,
}

impl IoBytes {
    pub fn read(&self) -> u64 {
        self.local_read + self.remote_read
    }
}

/// The full record of one executed job.
#[derive(Debug, Clone, Default)]
pub struct JobHistory {
    pub name: String,
    /// Tenant that submitted the job (empty for solo runs outside the job
    /// server, keeping their traces and summaries byte-identical).
    pub tenant: String,
    /// Absolute simulated start of the job (seconds): when it arrived on
    /// its caller's clock. Solo runs start at 0, a Hive stage where the
    /// previous stage ended, and a served job at its admission time, so
    /// jobs that ran one after another or together share one timeline.
    pub t0_s: f64,
    /// Stage times from the cost model (seconds).
    pub setup_s: f64,
    pub map_s: f64,
    pub shuffle_s: f64,
    pub reduce_s: f64,
    pub overhead_s: f64,
    pub map_concurrency: u32,
    pub shuffle_bytes: u64,
    /// Sorted runs merged on the reduce side (satellite: spill/merge stats).
    pub merge_runs: u64,
    /// Records entering / leaving the map-side combiner.
    pub combine_input_records: u64,
    pub combine_output_records: u64,
    /// Byte-weighted scan locality over all map tasks (0..=1).
    pub locality: f64,
    /// Fraction of splits the scheduler placed on a preferred host.
    pub split_locality: f64,
    pub failed_attempts: u32,
    /// Backup attempts launched by speculative execution.
    pub speculative_attempts: u32,
    /// Backup attempts that won the commit race.
    pub speculative_wins: u32,
    /// Nodes blacklisted for retries after repeated attempt failures.
    pub blacklisted_nodes: u32,
    /// Nodes the heartbeat detector declared dead mid-job.
    pub dead_nodes: u32,
    /// Block replicas re-created by namenode-driven re-replication.
    pub rereplicated_blocks: u64,
    /// Wall-clock nanoseconds per phase, summed across tasks (from the
    /// in-process runners; empty when the engine recorded none).
    pub wall_phases: Vec<(Phase, u64)>,
    /// Wall-clock nanoseconds of the client-side setup (Hive's mapjoin
    /// table build), which runs outside every task.
    pub setup_wall_ns: u64,
    /// Per-node DFS I/O performed during this job (from the engine's scoped
    /// snapshot; empty when the job ran without one).
    pub io: Vec<IoBytes>,
    /// Replica reads rejected by checksum verification during this job.
    pub corrupt_reads: u64,
    pub tasks: Vec<TaskLane>,
}

impl JobHistory {
    /// Total simulated job time (seconds).
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.map_s + self.shuffle_s + self.reduce_s + self.overhead_s
    }

    /// Absolute simulated end of the job (equals `total_s` for solo runs,
    /// which start at `t0_s == 0`).
    pub fn end_s(&self) -> f64 {
        self.t0_s + self.total_s()
    }

    pub fn lanes(&self, kind: TaskKind) -> Vec<&TaskLane> {
        self.tasks.iter().filter(|t| t.kind == kind).collect()
    }

    pub fn stragglers(&self, kind: TaskKind) -> Option<StragglerStats> {
        StragglerStats::from_lanes(&self.lanes(kind))
    }

    /// Sum of a phase's simulated duration across all tasks (seconds); 0.0
    /// when no task has the phase (folded from `0.0`: `f64`'s `Sum` starts
    /// at `-0.0`, which prints as `-0.00`).
    pub fn phase_total_s(&self, phase: Phase) -> f64 {
        slice_total(self.tasks.iter().flat_map(|t| &t.phases), phase)
    }

    /// Longest single-task total for a phase (seconds) — e.g. the per-node
    /// hash-build time in the paper's Q2.1 breakdown.
    pub fn phase_max_s(&self, phase: Phase) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.phase_s(phase))
            .fold(0.0, f64::max)
    }

    /// Longest single-task total for a phase among tasks of one kind.
    pub fn phase_max_s_for(&self, kind: TaskKind, phase: Phase) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.phase_s(phase))
            .fold(0.0, f64::max)
    }

    pub fn total_wall_ns(&self) -> u64 {
        self.tasks.iter().map(|t| t.wall_ns).sum()
    }

    /// Human-readable multi-line report.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "job {}: total {:.1}s (setup {:.1} + map {:.1} + shuffle {:.1} + reduce {:.1} + overhead {:.1})\n",
            self.name, self.total_s(), self.setup_s, self.map_s, self.shuffle_s,
            self.reduce_s, self.overhead_s
        ));
        if !self.tenant.is_empty() {
            out.push_str(&format!(
                "  tenant {}: scheduled at t={:.1}s on the shared cluster\n",
                self.tenant, self.t0_s
            ));
        }
        let maps = self.lanes(TaskKind::Map).len();
        let reduces = self.lanes(TaskKind::Reduce).len();
        out.push_str(&format!(
            "  tasks: {} map (concurrency {}) + {} reduce; scan locality {:.1}% (splits {:.1}%); failed attempts {}\n",
            maps,
            self.map_concurrency,
            reduces,
            self.locality * 100.0,
            self.split_locality * 100.0,
            self.failed_attempts
        ));
        if self.speculative_attempts > 0
            || self.blacklisted_nodes > 0
            || self.dead_nodes > 0
            || self.rereplicated_blocks > 0
        {
            out.push_str(&format!(
                "  recovery: {} speculative attempts ({} won); {} blacklisted, {} dead nodes; {} blocks re-replicated\n",
                self.speculative_attempts,
                self.speculative_wins,
                self.blacklisted_nodes,
                self.dead_nodes,
                self.rereplicated_blocks
            ));
        }
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            if let Some(s) = self.stragglers(kind) {
                out.push_str(&format!(
                    "  {} time: min/median/max {:.2}/{:.2}/{:.2}s, skew {:.2}x; straggler task {} on node {}\n",
                    kind.label(),
                    s.min_s,
                    s.median_s,
                    s.max_s,
                    s.time_skew,
                    s.straggler_task,
                    s.straggler_node
                ));
                if kind == TaskKind::Map && s.emit_bytes_max > 0 {
                    out.push_str(&format!(
                        "  emit bytes: median/max {:.0}/{} per task, skew {:.2}x\n",
                        s.emit_bytes_median, s.emit_bytes_max, s.emit_skew
                    ));
                }
            }
        }
        if self.combine_input_records > 0 {
            out.push_str(&format!(
                "  combiner: {} -> {} records ({:.1}x)\n",
                self.combine_input_records,
                self.combine_output_records,
                self.combine_input_records as f64 / self.combine_output_records.max(1) as f64
            ));
        }
        if reduces > 0 {
            out.push_str(&format!(
                "  shuffle: {} bytes; reduce merged {} runs\n",
                self.shuffle_bytes, self.merge_runs
            ));
        }
        let phase_line: Vec<String> = Phase::all()
            .iter()
            .filter_map(|p| {
                let s = self.phase_total_s(*p);
                if s > 0.0 {
                    Some(format!("{} {:.1}s", p.label(), s))
                } else {
                    None
                }
            })
            .collect();
        if !phase_line.is_empty() {
            out.push_str(&format!(
                "  phases (sum over tasks): {}\n",
                phase_line.join(", ")
            ));
        }
        let wall = self.total_wall_ns();
        if wall > 0 {
            let wall_line: Vec<String> = self
                .wall_phases
                .iter()
                .map(|(p, ns)| format!("{} {:.2}ms", p.label(), *ns as f64 / 1e6))
                .collect();
            out.push_str(&format!(
                "  wall clock: {:.2}ms across tasks{}{}\n",
                wall as f64 / 1e6,
                if wall_line.is_empty() { "" } else { " — " },
                wall_line.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(index: usize, node: usize, dur_s: f64, emit_bytes: u64) -> TaskLane {
        TaskLane {
            index,
            kind: TaskKind::Map,
            node,
            slot: 0,
            start_s: 0.0,
            dur_s,
            local_bytes: 100,
            remote_bytes: 0,
            emit_records: emit_bytes / 10,
            emit_bytes,
            wall_ns: 1000,
            speculative: false,
            phases: vec![PhaseSlice {
                phase: Phase::Scan,
                start_s: 0.0,
                dur_s,
                note: None,
            }],
        }
    }

    #[test]
    fn straggler_and_skew_from_hand_built_tasks() {
        // Four tasks: three take 10s, one straggler takes 30s on node 2 and
        // emits 4x the median bytes (partition skew).
        let h = JobHistory {
            name: "t".into(),
            map_s: 30.0,
            map_concurrency: 1,
            locality: 1.0,
            split_locality: 1.0,
            tasks: vec![
                lane(0, 0, 10.0, 1000),
                lane(1, 1, 10.0, 1000),
                lane(2, 2, 30.0, 4000),
                lane(3, 3, 10.0, 1000),
            ],
            ..JobHistory::default()
        };
        let s = h.stragglers(TaskKind::Map).unwrap();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.min_s, 10.0);
        assert_eq!(s.max_s, 30.0);
        assert_eq!(s.median_s, 10.0);
        assert_eq!(s.straggler_task, 2);
        assert_eq!(s.straggler_node, 2);
        assert!((s.time_skew - 3.0).abs() < 1e-12);
        assert_eq!(s.emit_bytes_max, 4000);
        assert!((s.emit_skew - 4.0).abs() < 1e-12);
        assert!(h.stragglers(TaskKind::Reduce).is_none());

        // Phase roll-ups.
        assert!((h.phase_total_s(Phase::Scan) - 60.0).abs() < 1e-9);
        assert!((h.phase_max_s(Phase::Scan) - 30.0).abs() < 1e-9);
        assert_eq!(h.phase_total_s(Phase::Probe), 0.0);

        let text = h.summary();
        assert!(text.contains("straggler task 2 on node 2"));
        assert!(text.contains("skew 3.00x"));
    }

    #[test]
    fn a_phase_no_task_has_totals_positive_zero() {
        let h = JobHistory {
            tasks: vec![lane(0, 0, 10.0, 1000), lane(1, 1, 5.0, 1000)],
            ..JobHistory::default()
        };
        for s in [
            h.phase_total_s(Phase::Shuffle),
            h.phase_max_s(Phase::Shuffle),
            h.phase_max_s_for(TaskKind::Map, Phase::Shuffle),
            JobHistory::default().phase_total_s(Phase::Shuffle),
        ] {
            assert!(s == 0.0 && s.is_sign_positive(), "{s:?}");
            assert_eq!(format!("{s:.2}"), "0.00");
        }
    }

    #[test]
    fn median_handles_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lane_locality_fraction() {
        let mut t = lane(0, 0, 1.0, 0);
        t.remote_bytes = 300;
        assert!((t.locality() - 0.25).abs() < 1e-12);
        t.local_bytes = 0;
        t.remote_bytes = 0;
        assert_eq!(t.locality(), 1.0);
    }
}
