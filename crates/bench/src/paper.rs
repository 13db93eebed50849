//! The numbers the paper reports, for side-by-side comparison.
//!
//! Figures 7 and 8 are bar charts; the exact per-query values are not
//! printed in the text, but the text states the ranges, averages, the Q2.1
//! breakdown, and the set of failing configurations. Those are the
//! checkable claims this reproduction targets.

/// Cluster A (8 workers, 16 GB), SF1000 — Section 6.3.
pub mod cluster_a {
    /// Speedup of Clydesdale over Hive: paper reports 17.4x–82.7x.
    pub const SPEEDUP_MIN: f64 = 17.4;
    pub const SPEEDUP_MAX: f64 = 82.7;
    /// "averaging a 38x speedup on cluster A".
    pub const SPEEDUP_AVG: f64 = 38.0;
    /// Queries whose Hive **mapjoin** plan ran out of memory (Section 6.4).
    pub const MAPJOIN_OOM: [&str; 4] = ["Q3.1", "Q4.1", "Q4.2", "Q4.3"];

    /// Q2.1 breakdown (Section 6.3).
    pub mod q21 {
        /// Clydesdale total.
        pub const CLYDE_TOTAL_S: f64 = 215.0;
        /// Hash-table build within the map task.
        pub const CLYDE_BUILD_S: f64 = 27.0;
        /// Probe/scan phase of a representative map task.
        pub const CLYDE_PROBE_S: f64 = 164.0;
        /// Observed per-node scan rate during the probe (MB/s).
        pub const CLYDE_SCAN_MB_S: f64 = 67.0;
        /// Final order-by sort: "under 10 seconds".
        pub const CLYDE_SORT_S_MAX: f64 = 10.0;
        /// Hive mapjoin total and its five stages.
        pub const HIVE_MAPJOIN_TOTAL_S: f64 = 15_142.0;
        pub const HIVE_MAPJOIN_STAGES_S: [f64; 5] = [2_640.0, 2_040.0, 9_180.0, 720.0, 19.0];
        /// Hive repartition total and its first three stages.
        pub const HIVE_REPART_TOTAL_S: f64 = 17_700.0;
        pub const HIVE_REPART_JOIN_STAGES_S: [f64; 3] = [9_720.0, 7_140.0, 420.0];
        /// Map tasks in the mapjoin plan's first stage.
        pub const HIVE_STAGE1_TASKS: u64 = 4_887;
    }
}

/// Cluster B (40 workers, 32 GB), SF1000 — Section 6.3/6.4.
pub mod cluster_b {
    pub const SPEEDUP_MIN: f64 = 5.2;
    pub const SPEEDUP_MAX: f64 = 21.4;
    /// "averaging 11.1x".
    pub const SPEEDUP_AVG: f64 = 11.1;
    /// All mapjoin plans completed on cluster B ("Cluster B had more memory
    /// per node and was able to complete the mapjoin plan").
    pub const MAPJOIN_OOM: [&str; 0] = [];
}

/// Section 6.5 ablation (Figure 9), cluster A, SF1000.
pub mod ablation {
    /// "The average slowdown from turning off block iteration was
    /// approximately 1.2x."
    pub const BLOCK_ITERATION_AVG: f64 = 1.2;
    /// "Turning off columnar storage ... resulted in a slowdown of 3.4x."
    pub const COLUMNAR_AVG: f64 = 3.4;
    /// "query flight 2 ... slowed down by 3.8x ... query flight 4 ... was
    /// slower by 2.0x."
    pub const COLUMNAR_FLIGHT2: f64 = 3.8;
    pub const COLUMNAR_FLIGHT4: f64 = 2.0;
    /// "turning off the use of multi threaded tasks slowed down performance
    /// by 2.4x."
    pub const MULTITHREADING_AVG: f64 = 2.4;
    /// "query flight 1 was slowed down by just 1.2x ... query flight 4 ...
    /// was 4.5x slower."
    pub const MULTITHREADING_FLIGHT1: f64 = 1.2;
    pub const MULTITHREADING_FLIGHT4: f64 = 4.5;
}

/// Section 6.2 storage sizes at SF1000.
pub mod storage {
    /// "the size of the uncompressed fact table in text format is
    /// approximately 600GB".
    pub const FACT_TEXT_GB: f64 = 600.0;
    /// "the fact table was stored in Multi-CIF format, whose binary encoding
    /// reduced the size to approximately 334GB".
    pub const FACT_CIF_GB: f64 = 334.0;
    /// "all tables were stored in RCFile format, which required
    /// approximately 558GB".
    pub const ALL_RCFILE_GB: f64 = 558.0;
}

/// Flight of a query id (1-based).
pub fn flight_of(id: &str) -> usize {
    id.as_bytes()[1] as usize - b'0' as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flights() {
        assert_eq!(flight_of("Q1.2"), 1);
        assert_eq!(flight_of("Q4.3"), 4);
        for id in crate::workload::ALL_QUERIES {
            assert!((1..=4).contains(&flight_of(id)));
        }
    }
}
