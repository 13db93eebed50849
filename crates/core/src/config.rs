//! Feature flags — the knobs behind the paper's Section 6.5 ablation.

use crate::hashtable::DimTables;
use clyde_common::{Result, Row};
use clyde_ssb::queries::DimJoin;

/// Which of Clydesdale's techniques are enabled. Defaults to all on (the
/// system as shipped); the Figure 9 ablation turns them off one at a time.
/// The first four are the paper's Section 6.5 switches; `vectorized` and
/// `zone_skipping` are this reproduction's two additions that Figure 9 and
/// the bench harness also ablate. Results are identical with any of them
/// off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Columnar scans: read only the query's columns from CIF. Off = read
    /// every fact column (the paper measured a 3.4x average slowdown).
    pub columnar: bool,
    /// Block iteration (B-CIF): probe over column arrays. Off = materialize
    /// one row at a time (paper: ~1.2x slowdown).
    pub block_iteration: bool,
    /// Multi-threaded map tasks with shared hash tables and one task per
    /// node. Off = single-threaded tasks, one per slot, each building its
    /// own copy of the dimension hash tables (paper: ~2.4x slowdown, up to
    /// 4.5x on flight 4).
    pub multithreading: bool,
    /// JVM reuse: share hash tables across consecutive tasks on a node.
    /// Meaningful only when `multithreading` is on; off forces rebuilds.
    pub jvm_reuse: bool,
    /// Vectorized probe kernel: selection vectors over column slices and
    /// dense group-id aggregation. Off = the scalar row-at-a-time probe
    /// loop over the same blocks. Results are identical either way.
    pub vectorized: bool,
    /// Zone-map block skipping: CIF row groups whose per-column min/max
    /// cannot satisfy the query's predicates are skipped without decoding.
    /// Results are identical either way.
    pub zone_skipping: bool,
    /// Frozen-benchmark shim (see the block at the end of this file): read
    /// by nothing, selects nothing, not part of [`Features::token_bits`].
    #[doc(hidden)]
    pub dict_predicates: bool,
}

impl Default for Features {
    fn default() -> Features {
        Features {
            columnar: true,
            block_iteration: true,
            multithreading: true,
            jvm_reuse: true,
            vectorized: true,
            zone_skipping: true,
            dict_predicates: false,
        }
    }
}

impl Features {
    pub fn all_on() -> Features {
        Features::default()
    }

    /// Stable identity string for plan fingerprints (result-cache code
    /// tokens): one character per feature bit, in declaration order.
    /// Results are invariant across all of them, so including them can only
    /// cost a cache miss, never serve a wrong answer.
    pub fn token_bits(&self) -> String {
        [
            self.columnar,
            self.block_iteration,
            self.multithreading,
            self.jvm_reuse,
            self.vectorized,
            self.zone_skipping,
        ]
        .iter()
        .map(|b| if *b { '1' } else { '0' })
        .collect()
    }

    pub fn without_columnar() -> Features {
        Features {
            columnar: false,
            ..Features::default()
        }
    }

    pub fn without_block_iteration() -> Features {
        Features {
            block_iteration: false,
            ..Features::default()
        }
    }

    pub fn without_multithreading() -> Features {
        Features {
            multithreading: false,
            jvm_reuse: false,
            ..Features::default()
        }
    }

    pub fn without_vectorized() -> Features {
        Features {
            vectorized: false,
            ..Features::default()
        }
    }

    pub fn without_zone_skipping() -> Features {
        Features {
            zone_skipping: false,
            ..Features::default()
        }
    }

    /// The single-flag-off ablation points, paired with their labels.
    pub fn ablations() -> Vec<(&'static str, Features)> {
        vec![
            ("no-columnar", Features::without_columnar()),
            ("no-block-iteration", Features::without_block_iteration()),
            ("no-multithreading", Features::without_multithreading()),
            ("no-vectorized", Features::without_vectorized()),
            ("no-zone-skipping", Features::without_zone_skipping()),
        ]
    }

    /// Human-readable label used by the ablation harness.
    pub fn label(&self) -> &'static str {
        if *self == Features::default() {
            return "all-on";
        }
        for (name, f) in Features::ablations() {
            if *self == f {
                return name;
            }
        }
        "custom"
    }
}

// ---------------------------------------------------------------------------
// Frozen-benchmark shims. `benchmark/src/replay.rs` was written against the
// PR-5 flag set and may not change in the PR that deleted it, so exactly the
// four names it spells survive, inert: the `Features::dict_predicates` field
// above, the two items below, and the unused eighth argument of
// `probe::probe_block_vec`. Outside this crate it also keeps
// `clyde_mapred::task::MapOutputBuffer::into_records`, which decodes the
// serialized map output into `(Vec<u8>, Row)` records, the row-record
// functions of `clyde_mapred::shuffle` the replay runs on them, and the
// owned `clyde_mapred::RecordReader::next` its `Drain` implements (the
// engine reads through `next_into`). ROADMAP
// lists them for the next benchmark PR to drop together with the replay
// lines that name them.
// ---------------------------------------------------------------------------

/// The probe kernel has no options; the benchmark replay still passes one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelOpts;

impl KernelOpts {
    #[doc(hidden)]
    pub fn from_features(_: &Features) -> KernelOpts {
        KernelOpts
    }
}

impl DimTables {
    /// [`DimTables::build_all`]; the bool is ignored.
    #[doc(hidden)]
    pub fn build_all_with(
        joins: &[DimJoin],
        _dict_predicates: bool,
        fetch: impl FnMut(&str) -> Result<Vec<Row>>,
    ) -> Result<DimTables> {
        DimTables::build_all(joins, fetch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_all_on() {
        let f = Features::default();
        assert!(f.columnar && f.block_iteration && f.multithreading && f.jvm_reuse);
        assert!(f.vectorized && f.zone_skipping);
        assert_eq!(f.token_bits(), "111111");
        assert_eq!(f.label(), "all-on");
    }

    #[test]
    fn ablation_constructors() {
        assert!(!Features::without_columnar().columnar);
        assert!(!Features::without_block_iteration().block_iteration);
        let mt = Features::without_multithreading();
        assert!(!mt.multithreading && !mt.jvm_reuse);
        assert_eq!(mt.label(), "no-multithreading");
        assert_eq!(Features::without_columnar().label(), "no-columnar");
        assert!(!Features::without_vectorized().vectorized);
        assert_eq!(Features::without_vectorized().label(), "no-vectorized");
        assert!(!Features::without_zone_skipping().zone_skipping);
        assert_eq!(
            Features::without_zone_skipping().label(),
            "no-zone-skipping"
        );
    }

    #[test]
    fn every_ablation_turns_off_exactly_its_flag_and_labels_round_trip() {
        for (name, f) in Features::ablations() {
            assert_eq!(f.label(), name);
            assert_ne!(f, Features::default(), "{name} must differ from default");
        }
        let custom = Features {
            columnar: false,
            vectorized: false,
            ..Features::default()
        };
        assert_eq!(custom.label(), "custom");
    }
}
