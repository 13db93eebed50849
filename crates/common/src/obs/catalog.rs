//! The metric catalog: every series the workspace emits, declared once with
//! its name and kind.
//!
//! The emitters of [`MetricsRegistry`](super::MetricsRegistry) take a handle
//! from here, not a string, and a handle's field is private to this module.
//! So a name that is not declared below does not compile, and a series
//! cannot change kind between two emit sites. Gates, goldens and the README
//! find series by these names; `scheduler.*` and `cache.*` are read by the
//! workload and restore gates, so a change there re-records them.
//!
//! Every series is in simulated units: `tests/determinism.rs` byte-compares
//! the whole snapshot across reruns and host thread counts, unfiltered, and
//! clyde-lint's D008 keeps wall-clock readings out of the emitters. Wall
//! time stays in task lanes, wall phases and profiles' wall columns.
//!
//! ```
//! use clyde_common::obs::{catalog, MetricsRegistry};
//! let m = MetricsRegistry::enabled();
//! m.counter_add(catalog::MAPRED_JOBS, 1);
//! assert_eq!(m.snapshot().counter("mapred.jobs"), Some(1));
//! ```

/// A monotone `u64` series.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static str);

/// A last-write-wins `f64` series.
#[derive(Debug, Clone, Copy)]
pub struct Gauge(&'static str);

/// An `f64` series summarized as count / sum / min / max, in simulated
/// units: byte-compared across runs like every other series.
#[derive(Debug, Clone, Copy)]
pub struct Histogram(&'static str);

macro_rules! catalog {
    ($($id:ident: $kind:ident = $name:literal;)*) => {
        $(#[doc = concat!("`", $name, "`")] pub const $id: $kind = $kind($name);)*

        /// Every declared series, in declaration order: name and kind.
        pub const ALL: &[(&str, &str)] = &[$(($name, stringify!($kind))),*];
    };
}

macro_rules! names {
    ($($kind:ident),*) => {
        $(impl $kind {
            pub const fn name(self) -> &'static str {
                self.0
            }
        })*
    };
}

names!(Counter, Gauge, Histogram);

catalog! {
    // One job: the engine's per-job history (`publish_history`).
    MAPRED_JOBS: Counter = "mapred.jobs";
    MAPRED_MAP_TASKS: Counter = "mapred.map_tasks";
    MAPRED_REDUCE_TASKS: Counter = "mapred.reduce_tasks";
    MAPRED_FAILED_ATTEMPTS: Counter = "mapred.failed_attempts";
    MAPRED_SHUFFLE_BYTES: Counter = "mapred.shuffle.bytes";
    MAPRED_SHUFFLE_MERGED_RUNS: Counter = "mapred.shuffle.merged_runs";
    MAPRED_EMIT_RECORDS: Counter = "mapred.emit.records";
    MAPRED_EMIT_BYTES: Counter = "mapred.emit.bytes";
    MAPRED_COMBINE_INPUT_RECORDS: Counter = "mapred.combine.input_records";
    MAPRED_COMBINE_OUTPUT_RECORDS: Counter = "mapred.combine.output_records";
    MAPRED_SPECULATIVE_LAUNCHED: Counter = "mapred.speculative_launched";
    MAPRED_SPECULATIVE_WINS: Counter = "mapred.speculative_wins";
    MAPRED_BLACKLISTED_NODES: Counter = "mapred.blacklisted_nodes";
    MAPRED_HEARTBEAT_LOST_NODES: Counter = "mapred.heartbeat.lost_nodes";
    MAPRED_SCAN_LOCALITY: Gauge = "mapred.scan_locality";
    MAPRED_MAP_TASK_SIM_S: Histogram = "mapred.map_task_sim_s";
    MAPRED_REDUCE_TASK_SIM_S: Histogram = "mapred.reduce_task_sim_s";
    DFS_REREPLICATED_BLOCKS: Counter = "dfs.rereplicated_blocks";
    DFS_SCAN_LOCAL_BYTES: Counter = "dfs.scan.local_bytes";
    DFS_SCAN_REMOTE_BYTES: Counter = "dfs.scan.remote_bytes";
    DFS_ZONE_CHECKED: Counter = "dfs.zone.checked";
    DFS_ZONE_SKIPPED: Counter = "dfs.zone.skipped";
    DFS_IO_LOCAL_READ_BYTES: Counter = "dfs.io.local_read_bytes";
    DFS_IO_REMOTE_READ_BYTES: Counter = "dfs.io.remote_read_bytes";
    DFS_IO_WRITTEN_BYTES: Counter = "dfs.io.written_bytes";
    DFS_CORRUPT_READS_DETECTED: Counter = "dfs.corrupt_reads_detected";
    SCHEDULER_SPLIT_LOCALITY: Gauge = "scheduler.split_locality";
    CACHE_HITS: Counter = "cache.hits";
    // One query: the query layer's final sort.
    MAPRED_QUERIES: Counter = "mapred.queries";
    MAPRED_FINAL_SORT_S: Histogram = "mapred.final_sort_s";
    // One drain of the job server: result-cache deltas and the schedule.
    CACHE_MISSES: Counter = "cache.misses";
    CACHE_INSERTS: Counter = "cache.inserts";
    CACHE_EVICTIONS: Counter = "cache.evictions";
    CACHE_INVALIDATIONS: Counter = "cache.invalidations";
    CACHE_BYTES_SERVED: Counter = "cache.bytes_served";
    CACHE_BYTES_STORED: Gauge = "cache.bytes_stored";
    CACHE_ENTRIES: Gauge = "cache.entries";
    SCHEDULER_JOBS_ADMITTED: Counter = "scheduler.jobs_admitted";
    SCHEDULER_JOBS_REJECTED_QUEUE_FULL: Counter = "scheduler.jobs_rejected_queue_full";
    SCHEDULER_JOBS_REJECTED_QUOTA: Counter = "scheduler.jobs_rejected_quota";
    SCHEDULER_QUEUE_PEAK_DEPTH: Gauge = "scheduler.queue_peak_depth";
    SCHEDULER_TENANT_COUNT: Gauge = "scheduler.tenant_count";
    SCHEDULER_MAKESPAN_S: Gauge = "scheduler.makespan_s";
    SCHEDULER_QUEUE_WAIT_S: Histogram = "scheduler.queue_wait_s";
    SCHEDULER_JOB_LATENCY_S: Histogram = "scheduler.job_latency_s";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn each_name_is_declared_once() {
        let names: BTreeSet<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), ALL.len(), "a series is declared twice");
    }
}
