//! The deterministic cost model.
//!
//! Queries in this reproduction really execute, but at laptop scale; the
//! paper's numbers come from 600 GB on physical clusters. This module closes
//! the gap: every task records hardware-independent *counters* (bytes
//! scanned, rows probed, hash entries built, records shuffled), and the cost
//! model prices those counters against a [`ClusterSpec`] using rates
//! calibrated to the paper's Section 6.3 breakdown of query 2.1:
//!
//! * effective HDFS scan bandwidth ≈ 70 MB/s per node (paper: 67 MB/s
//!   observed, far below the 560 MB/s raw — Section 6.6);
//! * per-task overheads of ~1.5 s and per-job (stage) overheads of ~10 s,
//!   which the paper notes become significant on cluster B;
//! * Java-era CPU rates: ~150 K rows/s single-threaded dimension hash-table
//!   build (27 s for Q2.1's three tables), ~7 MB/s hash-table
//!   deserialization (the dominant term of Hive's 9,180 s stage 3), ~80 K
//!   rows/s through Hive's row-at-a-time operator pipeline, and multi-
//!   million-row/s rates for Clydesdale's block-iterated probe loop.
//!
//! The model is a pure function of its inputs — no clocks, no randomness —
//! so simulated results are reproducible bit-for-bit.

use clyde_common::obs::{Phase, PhaseSlice};
use clyde_dfs::testdfsio::HdfsPerfModel;
use clyde_dfs::ClusterSpec;

const MB: f64 = (1 << 20) as f64;

/// Hardware-independent execution counters for one task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCost {
    /// Bytes read from the DFS with a local replica.
    pub local_bytes: u64,
    /// Bytes read from the DFS over the network.
    pub remote_bytes: u64,
    /// Records moved one-at-a-time through the framework (Hadoop default
    /// iteration; Hive's operator pipeline).
    pub deser_rows: u64,
    /// Rows processed through block iteration (B-CIF).
    pub block_rows: u64,
    /// Rows materialized one-at-a-time inside Clydesdale (the
    /// block-iteration-off ablation; cheaper than `deser_rows` because no
    /// framework operator tree is involved).
    pub rowiter_rows: u64,
    /// Dimension rows scanned/inserted while building hash tables
    /// (single-threaded, per the paper's build phase).
    pub build_rows: u64,
    /// Fact rows probed against the dimension hash tables.
    pub probe_rows: u64,
    /// Map-output records and their encoded size.
    pub emit_records: u64,
    pub emit_bytes: u64,
    /// Bytes of serialized state (hash tables) loaded by this task — Hive
    /// pays this per task; Clydesdale once per node.
    pub state_load_bytes: u64,
    /// Bytes this task wrote to the DFS (job output / intermediates).
    pub output_bytes: u64,
    /// Threads this task used (Clydesdale's MTMapRunner uses all slots).
    pub threads: u32,
    /// Column chunks whose zone map was consulted before reading.
    pub zone_checked: u64,
    /// Of those, chunks skipped outright (no fetch, no decode).
    pub zone_skipped: u64,
    /// Records entering the map-side combiner (pre-combine emit count).
    pub combine_input_records: u64,
    /// Records leaving the map-side combiner (what actually shuffles).
    pub combine_output_records: u64,
    /// Sorted runs this (reduce) task merged — Hadoop's spill/merge stat.
    pub merge_runs: u64,
}

impl TaskCost {
    pub fn new() -> TaskCost {
        TaskCost {
            threads: 1,
            ..TaskCost::default()
        }
    }

    /// Element-wise sum (threads take the max — they describe a mode, not a
    /// quantity).
    pub fn merge(&self, other: &TaskCost) -> TaskCost {
        TaskCost {
            local_bytes: self.local_bytes + other.local_bytes,
            remote_bytes: self.remote_bytes + other.remote_bytes,
            deser_rows: self.deser_rows + other.deser_rows,
            block_rows: self.block_rows + other.block_rows,
            rowiter_rows: self.rowiter_rows + other.rowiter_rows,
            build_rows: self.build_rows + other.build_rows,
            probe_rows: self.probe_rows + other.probe_rows,
            emit_records: self.emit_records + other.emit_records,
            emit_bytes: self.emit_bytes + other.emit_bytes,
            state_load_bytes: self.state_load_bytes + other.state_load_bytes,
            output_bytes: self.output_bytes + other.output_bytes,
            threads: self.threads.max(other.threads),
            zone_checked: self.zone_checked + other.zone_checked,
            zone_skipped: self.zone_skipped + other.zone_skipped,
            combine_input_records: self.combine_input_records + other.combine_input_records,
            combine_output_records: self.combine_output_records + other.combine_output_records,
            merge_runs: self.merge_runs + other.merge_runs,
        }
    }

    /// Scale every counter by `f` (used by the SF extrapolator). `dim_f`
    /// scales the dimension-driven counters (hash builds and state loads),
    /// which grow with dimension cardinality rather than fact cardinality.
    pub fn scaled(&self, fact_f: f64, dim_f: f64) -> TaskCost {
        let s = |v: u64, f: f64| ((v as f64) * f).round() as u64;
        TaskCost {
            local_bytes: s(self.local_bytes, fact_f),
            remote_bytes: s(self.remote_bytes, fact_f),
            deser_rows: s(self.deser_rows, fact_f),
            block_rows: s(self.block_rows, fact_f),
            rowiter_rows: s(self.rowiter_rows, fact_f),
            build_rows: s(self.build_rows, dim_f),
            probe_rows: s(self.probe_rows, fact_f),
            emit_records: s(self.emit_records, fact_f),
            emit_bytes: s(self.emit_bytes, fact_f),
            state_load_bytes: s(self.state_load_bytes, dim_f),
            output_bytes: s(self.output_bytes, fact_f),
            threads: self.threads,
            zone_checked: s(self.zone_checked, fact_f),
            zone_skipped: s(self.zone_skipped, fact_f),
            combine_input_records: s(self.combine_input_records, fact_f),
            combine_output_records: s(self.combine_output_records, fact_f),
            merge_runs: self.merge_runs,
        }
    }

    /// Divide into `n` equal per-task shares (rebuilding a task list at a
    /// different scale).
    pub fn split(&self, n: u64) -> TaskCost {
        let n = n.max(1);
        TaskCost {
            local_bytes: self.local_bytes / n,
            remote_bytes: self.remote_bytes / n,
            deser_rows: self.deser_rows / n,
            block_rows: self.block_rows / n,
            rowiter_rows: self.rowiter_rows / n,
            build_rows: self.build_rows / n,
            probe_rows: self.probe_rows / n,
            emit_records: self.emit_records / n,
            emit_bytes: self.emit_bytes / n,
            state_load_bytes: self.state_load_bytes / n,
            output_bytes: self.output_bytes / n,
            threads: self.threads,
            zone_checked: self.zone_checked / n,
            zone_skipped: self.zone_skipped / n,
            combine_input_records: self.combine_input_records / n,
            combine_output_records: self.combine_output_records / n,
            merge_runs: self.merge_runs / n,
        }
    }
}

/// Calibrated rates describing the paper's Hadoop/Java testbed.
#[derive(Debug, Clone)]
pub struct CostParams {
    pub hdfs: HdfsPerfModel,
    /// Scheduling/startup overhead per task, seconds.
    pub task_overhead_s: f64,
    /// Per-job (per-stage) submission + cleanup overhead, seconds.
    pub job_overhead_s: f64,
    /// Single-threaded dimension hash-table build, rows/second (includes
    /// reading and deserializing the dimension data).
    pub build_rows_per_s: f64,
    /// Hash-table (de)serialization bandwidth, bytes/second.
    pub state_deser_bw: f64,
    /// Hive-style row-at-a-time operator pipeline, rows/second per slot.
    pub framework_rows_per_s: f64,
    /// Clydesdale block-iterated scan+probe, rows/second per thread.
    pub block_rows_per_s: f64,
    /// Clydesdale row-at-a-time (block iteration off), rows/second per thread.
    pub rowiter_rows_per_s: f64,
    /// Hash-probe cost, probes/second per thread (on top of iteration).
    pub probe_rows_per_s: f64,
    /// Map-side sort/spill of emitted records, records/second per slot.
    pub sort_records_per_s: f64,
    /// Reduce-side merge + reduce function, records/second per reduce slot.
    pub reduce_rows_per_s: f64,
    /// Disk passes paid by shuffled bytes (map spill + reduce merge).
    pub shuffle_disk_passes: f64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            hdfs: HdfsPerfModel::default(),
            task_overhead_s: 1.5,
            job_overhead_s: 10.0,
            build_rows_per_s: 150_000.0,
            state_deser_bw: 1.7 * MB,
            framework_rows_per_s: 55_000.0,
            block_rows_per_s: 9_000_000.0,
            rowiter_rows_per_s: 600_000.0,
            probe_rows_per_s: 20_000_000.0,
            sort_records_per_s: 1_000_000.0,
            reduce_rows_per_s: 140_000.0,
            shuffle_disk_passes: 2.0,
        }
    }
}

/// Seconds each priced term of a map task takes (overhead excluded: it is
/// [`CostParams::task_overhead_s`] for every task).
struct MapTerms {
    /// Loading serialized state (hash tables).
    load: f64,
    /// Single-threaded dimension hash build.
    build: f64,
    /// Scan I/O, local plus remote.
    io_read: f64,
    /// Iteration + probe CPU; with `emit_cpu`, overlaps `io_read`.
    probe_cpu: f64,
    /// Map-side sort/spill of emitted records.
    emit_cpu: f64,
    /// Output write.
    write: f64,
}

impl CostParams {
    /// Parameters describing the paper's testbed (the defaults).
    pub fn paper() -> CostParams {
        CostParams::default()
    }

    /// The priced terms of one **map** task when `concurrency` tasks of this
    /// job share the node — the one place the bandwidth and rate arithmetic
    /// is spelled; the duration sums the terms, the phases place them.
    fn map_terms(&self, cluster: &ClusterSpec, cost: &TaskCost, concurrency: u32) -> MapTerms {
        let c = f64::from(concurrency.max(1));
        let threads = f64::from(cost.threads.max(1)) * cluster.node.cpu_factor;
        let cpu_f = cluster.node.cpu_factor;
        let read_bw = self.hdfs.effective_read_bw(&cluster.node) / c;
        let net_bw = cluster.network_bw / c;
        let write_bw = self
            .hdfs
            .effective_write_bw(&cluster.node, 3, cluster.network_bw)
            / c;
        MapTerms {
            load: cost.state_load_bytes as f64 / (self.state_deser_bw * cpu_f),
            build: cost.build_rows as f64 / (self.build_rows_per_s * cpu_f),
            io_read: cost.local_bytes as f64 / read_bw + cost.remote_bytes as f64 / net_bw,
            probe_cpu: cost.deser_rows as f64 / (self.framework_rows_per_s * cpu_f)
                + cost.block_rows as f64 / (self.block_rows_per_s * threads)
                + cost.rowiter_rows as f64 / (self.rowiter_rows_per_s * threads)
                + cost.probe_rows as f64 / (self.probe_rows_per_s * threads),
            emit_cpu: cost.emit_records as f64 / (self.sort_records_per_s * cpu_f),
            write: cost.output_bytes as f64 / write_bw,
        }
    }

    /// The priced terms of one **reduce** task: merge + reduce CPU, then the
    /// output write.
    fn reduce_terms(&self, cluster: &ClusterSpec, cost: &TaskCost) -> (f64, f64) {
        let write_bw = self
            .hdfs
            .effective_write_bw(&cluster.node, 3, cluster.network_bw);
        let cpu = cost.deser_rows as f64 / (self.reduce_rows_per_s * cluster.node.cpu_factor);
        (cpu, cost.output_bytes as f64 / write_bw)
    }

    /// Duration of one **map** task, seconds, when `concurrency` tasks of
    /// this job share the node.
    ///
    /// Model: overhead + state load + single-threaded build, then the scan
    /// I/O and the probe/iteration CPU overlap (`max`), then output write.
    pub fn map_task_duration(
        &self,
        cluster: &ClusterSpec,
        cost: &TaskCost,
        concurrency: u32,
    ) -> f64 {
        let t = self.map_terms(cluster, cost, concurrency);
        self.task_overhead_s + t.load + t.build + t.io_read.max(t.probe_cpu + t.emit_cpu) + t.write
    }

    /// Duration of one **reduce** task, seconds.
    pub fn reduce_task_duration(&self, cluster: &ClusterSpec, cost: &TaskCost) -> f64 {
        let (cpu, write) = self.reduce_terms(cluster, cost);
        self.task_overhead_s + cpu + write
    }

    /// Decompose [`Self::map_task_duration`] into phase intervals. Starts are
    /// relative to the task's own start; the last interval ends exactly at
    /// the task's duration, so every priced second lands in one phase.
    ///
    /// The scan and the CPU pipeline (probe then emit/sort) run overlapped:
    /// both start when the build finishes and the window lasts
    /// `max(io_read, cpu)`, exactly as the duration formula prices it.
    pub fn map_task_phases(
        &self,
        cluster: &ClusterSpec,
        cost: &TaskCost,
        concurrency: u32,
    ) -> Vec<PhaseSlice> {
        let MapTerms {
            load,
            build,
            io_read,
            probe_cpu,
            emit_cpu,
            write,
        } = self.map_terms(cluster, cost, concurrency);

        let mut phases = Vec::new();
        let mut t = 0.0;
        let push = |phases: &mut Vec<PhaseSlice>,
                    phase: Phase,
                    start: f64,
                    dur: f64,
                    note: Option<String>| {
            if dur > 0.0 {
                phases.push(PhaseSlice {
                    phase,
                    start_s: start,
                    dur_s: dur,
                    note,
                });
            }
        };
        push(&mut phases, Phase::Setup, t, self.task_overhead_s, None);
        t += self.task_overhead_s;
        push(
            &mut phases,
            Phase::StateLoad,
            t,
            load,
            Some(format!("{} bytes", cost.state_load_bytes)),
        );
        t += load;
        push(
            &mut phases,
            Phase::HashBuild,
            t,
            build,
            Some(format!("{} rows", cost.build_rows)),
        );
        t += build;
        push(
            &mut phases,
            Phase::Scan,
            t,
            io_read,
            Some(format!(
                "{} local + {} remote bytes",
                cost.local_bytes, cost.remote_bytes
            )),
        );
        push(
            &mut phases,
            Phase::Probe,
            t,
            probe_cpu,
            Some(format!(
                "{} probes, {} block rows",
                cost.probe_rows, cost.block_rows
            )),
        );
        push(
            &mut phases,
            Phase::Emit,
            t + probe_cpu,
            emit_cpu,
            Some(format!(
                "{} records, {} bytes",
                cost.emit_records, cost.emit_bytes
            )),
        );
        t += io_read.max(probe_cpu + emit_cpu);
        push(
            &mut phases,
            Phase::Write,
            t,
            write,
            Some(format!("{} bytes", cost.output_bytes)),
        );
        phases
    }

    /// Decompose [`Self::reduce_task_duration`] into phase intervals
    /// (relative starts), mirroring the pricing formula exactly.
    pub fn reduce_task_phases(&self, cluster: &ClusterSpec, cost: &TaskCost) -> Vec<PhaseSlice> {
        let (cpu, write) = self.reduce_terms(cluster, cost);
        let mut phases = vec![PhaseSlice {
            phase: Phase::Setup,
            start_s: 0.0,
            dur_s: self.task_overhead_s,
            note: None,
        }];
        if cpu > 0.0 {
            phases.push(PhaseSlice {
                phase: Phase::Reduce,
                start_s: self.task_overhead_s,
                dur_s: cpu,
                note: Some(format!(
                    "{} records, {} runs merged",
                    cost.deser_rows, cost.merge_runs
                )),
            });
        }
        if write > 0.0 {
            phases.push(PhaseSlice {
                phase: Phase::Write,
                start_s: self.task_overhead_s + cpu,
                dur_s: write,
                note: Some(format!("{} bytes", cost.output_bytes)),
            });
        }
        phases
    }
}

/// Simulated time breakdown of one job (one MapReduce stage).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobCost {
    /// Client-side setup: building/publishing distributed-cache artifacts.
    pub setup_s: f64,
    /// Span of the map phase: first map slot granted to last map task done.
    pub map_s: f64,
    /// Network + spill time of the shuffle.
    pub shuffle_s: f64,
    /// Span of the reduce phase, measured the same way.
    pub reduce_s: f64,
    /// Job submission overhead.
    pub overhead_s: f64,
}

/// Fixed client-side cost of a cache hit: the catalog lookup plus the
/// metadata round-trip that replaces job submission. Deliberately far below
/// `job_overhead_s` — serving a stage from the result cache skips the
/// JobTracker entirely.
pub const CACHED_READ_OVERHEAD_S: f64 = 0.5;

impl CostParams {
    /// Price a stage served from the DFS result cache: no tasks, no shuffle,
    /// just a sequential read of the persisted output at the node's
    /// effective HDFS read bandwidth plus a small fixed lookup overhead.
    pub fn cached_read_cost(&self, cluster: &ClusterSpec, bytes: u64) -> JobCost {
        JobCost {
            setup_s: 0.0,
            map_s: 0.0,
            shuffle_s: 0.0,
            reduce_s: 0.0,
            overhead_s: CACHED_READ_OVERHEAD_S
                + bytes as f64 / self.hdfs.effective_read_bw(&cluster.node),
        }
    }
}

impl JobCost {
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.map_s + self.shuffle_s + self.reduce_s + self.overhead_s
    }
}

/// Network + disk time to move `shuffle_bytes` from mappers to reducers.
pub fn shuffle_time(params: &CostParams, cluster: &ClusterSpec, shuffle_bytes: u64) -> f64 {
    if shuffle_bytes == 0 {
        return 0.0;
    }
    let n = cluster.num_workers() as f64;
    let net = shuffle_bytes as f64 / (n * cluster.network_bw);
    let disk = params.shuffle_disk_passes * shuffle_bytes as f64 / (n * cluster.node.raw_disk_bw());
    net + disk
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> ClusterSpec {
        ClusterSpec::cluster_a()
    }

    #[test]
    fn merge_and_split_are_inverse_ish() {
        let mut c = TaskCost::new();
        c.local_bytes = 100;
        c.probe_rows = 10;
        let total = c.merge(&c).merge(&c).merge(&c);
        assert_eq!(total.local_bytes, 400);
        let per = total.split(4);
        assert_eq!(per.local_bytes, 100);
        assert_eq!(per.probe_rows, 10);
    }

    #[test]
    fn scaled_separates_fact_and_dim_counters() {
        let mut c = TaskCost::new();
        c.probe_rows = 1000;
        c.build_rows = 500;
        c.state_load_bytes = 64;
        let s = c.scaled(10.0, 2.0);
        assert_eq!(s.probe_rows, 10_000);
        assert_eq!(s.build_rows, 1_000);
        assert_eq!(s.state_load_bytes, 128);
    }

    #[test]
    fn io_bound_task_duration_tracks_bandwidth() {
        // A Clydesdale-like task: 10.8 GB local scan, one task per node, six
        // threads — the paper's Q2.1 map task took ~164 s for the probe
        // phase at 67 MB/s.
        let params = CostParams::paper();
        let mut c = TaskCost::new();
        c.local_bytes = (10.8 * 1024.0 * MB) as u64;
        c.block_rows = 750_000_000;
        c.probe_rows = 750_000_000;
        c.threads = 6;
        let d = params.map_task_duration(&a(), &c, 1);
        assert!(d > 140.0 && d < 190.0, "duration {d}");
    }

    #[test]
    fn build_phase_matches_paper_q21() {
        // Paper: 27 s to build Date (2,556) + Part (2.0 M) + Supplier (2.0 M)
        // hash tables at SF1000.
        let params = CostParams::paper();
        let mut c = TaskCost::new();
        c.build_rows = 2_556 + 2_000_000 + 2_000_000;
        let d = params.map_task_duration(&a(), &c, 1) - params.task_overhead_s;
        assert!((d - 27.0).abs() < 8.0, "build {d}");
    }

    #[test]
    fn concurrency_shares_bandwidth() {
        let params = CostParams::paper();
        let mut c = TaskCost::new();
        c.local_bytes = 700 * (1 << 20);
        let solo = params.map_task_duration(&a(), &c, 1);
        let shared = params.map_task_duration(&a(), &c, 6);
        assert!(shared > solo * 4.0);
    }

    #[test]
    fn state_load_dominates_hive_style_tasks() {
        // Hive stage 3 of Q2.1: each task reloads a ~500 MB hash table.
        let params = CostParams::paper();
        let mut c = TaskCost::new();
        c.state_load_bytes = 500 * (1 << 20);
        let d = params.map_task_duration(&a(), &c, 6);
        assert!(d > 60.0, "load-dominated task {d}");
    }

    #[test]
    fn shuffle_time_scales_with_bytes_and_cluster() {
        let p = CostParams::paper();
        let t_small = shuffle_time(&p, &a(), 1 << 30);
        let t_big = shuffle_time(&p, &a(), 10 << 30);
        assert!(t_big > t_small * 9.0);
        let t_b = shuffle_time(&p, &ClusterSpec::cluster_b(), 10 << 30);
        assert!(t_b < t_big, "bigger cluster shuffles faster");
        assert_eq!(shuffle_time(&p, &a(), 0), 0.0);
    }

    #[test]
    fn map_phases_cover_exactly_the_priced_duration() {
        let params = CostParams::paper();
        let mut c = TaskCost::new();
        c.local_bytes = 700 * (1 << 20);
        c.remote_bytes = 30 * (1 << 20);
        c.block_rows = 50_000_000;
        c.probe_rows = 50_000_000;
        c.build_rows = 400_000;
        c.state_load_bytes = 1 << 20;
        c.emit_records = 100_000;
        c.emit_bytes = 3_200_000;
        c.output_bytes = 1 << 20;
        c.threads = 6;
        for conc in [1u32, 6] {
            let phases = params.map_task_phases(&a(), &c, conc);
            let end = phases
                .iter()
                .map(|p| p.start_s + p.dur_s)
                .fold(0.0, f64::max);
            let d = params.map_task_duration(&a(), &c, conc);
            assert!((end - d).abs() < 1e-9, "phases end {end} != duration {d}");
            // Scan and probe overlap: same start after the build.
            let scan = phases.iter().find(|p| p.phase == Phase::Scan).unwrap();
            let probe = phases.iter().find(|p| p.phase == Phase::Probe).unwrap();
            assert!((scan.start_s - probe.start_s).abs() < 1e-12);
            // Emit follows the probe CPU.
            let emit = phases.iter().find(|p| p.phase == Phase::Emit).unwrap();
            assert!((emit.start_s - (probe.start_s + probe.dur_s)).abs() < 1e-12);
            // Write starts when the overlapped window closes.
            let write = phases.iter().find(|p| p.phase == Phase::Write).unwrap();
            let window_end = scan
                .start_s
                .max(0.0)
                .max(scan.start_s + scan.dur_s)
                .max(emit.start_s + emit.dur_s);
            assert!((write.start_s - window_end).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce_phases_cover_exactly_the_priced_duration() {
        let params = CostParams::paper();
        let mut c = TaskCost::new();
        c.deser_rows = 2_000_000;
        c.output_bytes = 8 << 20;
        c.merge_runs = 8;
        let phases = params.reduce_task_phases(&a(), &c);
        let end = phases
            .iter()
            .map(|p| p.start_s + p.dur_s)
            .fold(0.0, f64::max);
        let d = params.reduce_task_duration(&a(), &c);
        assert!((end - d).abs() < 1e-9);
        let reduce = phases.iter().find(|p| p.phase == Phase::Reduce).unwrap();
        assert!(reduce.note.as_deref().unwrap().contains("8 runs merged"));
    }

    #[test]
    fn combiner_and_merge_counters_aggregate() {
        let mut c = TaskCost::new();
        c.combine_input_records = 100;
        c.combine_output_records = 10;
        c.merge_runs = 4;
        let total = c.merge(&c);
        assert_eq!(total.combine_input_records, 200);
        assert_eq!(total.combine_output_records, 20);
        assert_eq!(total.merge_runs, 8);
        let scaled = c.scaled(3.0, 1.0);
        assert_eq!(scaled.combine_input_records, 300);
        assert_eq!(scaled.merge_runs, 4, "runs scale with tasks, not rows");
        assert_eq!(total.split(2), c);
    }

    #[test]
    fn job_cost_totals() {
        let j = JobCost {
            setup_s: 1.0,
            map_s: 2.0,
            shuffle_s: 3.0,
            reduce_s: 4.0,
            overhead_s: 5.0,
        };
        assert!((j.total_s() - 15.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_cost() -> impl Strategy<Value = TaskCost> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            1u32..16,
        )
            .prop_map(|(a, b, c, d, e, threads)| TaskCost {
                local_bytes: u64::from(a),
                remote_bytes: u64::from(b),
                deser_rows: u64::from(c),
                build_rows: u64::from(d),
                probe_rows: u64::from(e),
                threads,
                ..TaskCost::new()
            })
    }

    proptest! {
        /// Durations are non-negative, finite, and monotone in every
        /// counter: more work never takes less simulated time.
        #[test]
        fn durations_are_monotone(cost in arb_cost(), extra in 1u64..1_000_000) {
            let params = CostParams::paper();
            let cluster = ClusterSpec::cluster_a();
            let base = params.map_task_duration(&cluster, &cost, 1);
            prop_assert!(base.is_finite() && base >= params.task_overhead_s);
            for field in 0..5 {
                let mut bigger = cost;
                match field {
                    0 => bigger.local_bytes += extra,
                    1 => bigger.remote_bytes += extra,
                    2 => bigger.deser_rows += extra,
                    3 => bigger.build_rows += extra,
                    _ => bigger.state_load_bytes += extra,
                }
                let d = params.map_task_duration(&cluster, &bigger, 1);
                prop_assert!(d >= base, "field {field}: {d} < {base}");
            }
        }

        /// merge is commutative and split(n) preserves totals up to
        /// integer-division remainders.
        #[test]
        fn merge_commutes_and_split_conserves(a in arb_cost(), b in arb_cost(), n in 1u64..64) {
            prop_assert_eq!(a.merge(&b), b.merge(&a));
            let per = a.split(n);
            prop_assert!(per.local_bytes * n <= a.local_bytes);
            prop_assert!(a.local_bytes - per.local_bytes * n < n);
            prop_assert!(per.probe_rows * n <= a.probe_rows);
        }

        /// The faster cluster-B CPU never makes a task slower.
        #[test]
        fn cluster_b_cpu_is_never_slower(cost in arb_cost()) {
            let params = CostParams::paper();
            let mut a_shaped_b = ClusterSpec::cluster_a();
            a_shaped_b.node.cpu_factor = ClusterSpec::cluster_b().node.cpu_factor;
            let on_a = params.map_task_duration(&ClusterSpec::cluster_a(), &cost, 1);
            let on_b_cpu = params.map_task_duration(&a_shaped_b, &cost, 1);
            prop_assert!(on_b_cpu <= on_a + 1e-9);
        }
    }
}
