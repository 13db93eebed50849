//! Canonical stage fingerprints for job-output reuse (ReStore-style).
//!
//! A fingerprint is a deterministic 64-bit hash over everything that
//! determines a job's *output bytes*:
//!
//! * the job's **code-identity token** ([`crate::job::JobSpec::code_token`]) —
//!   an explicit, versioned string naming the map/reduce functions and every
//!   planner knob baked into them. An empty token means "not reusable" and
//!   yields no fingerprint at all, so jobs that never opted in can never be
//!   served from the cache;
//! * the **resolved input splits** — each split's address (file path + byte
//!   range, row-group list, or inline record range) and its on-DFS length,
//!   in split order. Fact-partition roll-in/roll-out changes the split list,
//!   so membership changes miss the cache by construction;
//! * the sorted **job configuration** pairs (`JobConf` iterates its
//!   `BTreeMap` in key order, so insertion order cannot leak in);
//! * the **reduce partition count**, which shapes both partitioning and the
//!   set of output files.
//!
//! Deliberately excluded: split *hosts* and locality (placement does not
//! change bytes), the output directory (Hive's per-run tmp dirs are unique
//! per submission), fault plans, thread counts, JVM reuse, and attempt
//! limits — all execution knobs under the workspace-wide invariant that
//! results are byte-identical across them.
//!
//! The hash is the fault injector's splitmix64 finalizer
//! ([`crate::fault::mix`]), chained over length-prefixed fields so that
//! adjacent strings cannot alias (`"ab","c"` vs `"a","bc"`).

use crate::fault::mix;
use crate::input::{InputSplit, SplitSpec};
use crate::job::JobSpec;

/// Incremental fingerprint accumulator: a chained `mix` over tagged,
/// length-prefixed fields.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprinter {
    state: u64,
}

impl Fingerprinter {
    pub fn new() -> Fingerprinter {
        // Domain-separation constant so an empty fingerprint is not 0.
        Fingerprinter {
            state: mix(0x636c_7964_655f_6670), // "clyde_fp"
        }
    }

    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.state = mix(self.state ^ mix(v));
        self
    }

    pub fn push_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.push_u64(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut word = [0u8; 8];
            for (w, &c) in word.iter_mut().zip(chunk) {
                *w = c;
            }
            self.push_u64(u64::from_le_bytes(word));
        }
        self
    }

    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        mix(self.state)
    }
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

/// Canonical fingerprint of a job over its resolved splits. Returns `None`
/// when the spec carries no code-identity token — such jobs bypass the
/// result cache entirely.
///
/// When the spec carries a [`JobSpec::lineage`] fingerprint, the splits are
/// *not* hashed: downstream stages of a chained plan read per-run tmp
/// directories whose paths never repeat, so their identity is the upstream
/// stage's fingerprint instead. The lineage and split branches use distinct
/// domain tags, so a lineage fingerprint can never collide with a
/// split-based one by field layout.
pub fn job_fingerprint(spec: &JobSpec, splits: &[InputSplit]) -> Option<u64> {
    if spec.code_token.is_empty() {
        return None;
    }
    let mut fp = Fingerprinter::new();
    fp.push_str(&spec.code_token);
    fp.push_u64(spec.conf.len() as u64);
    for (k, v) in spec.conf.iter() {
        fp.push_str(k).push_str(v);
    }
    fp.push_u64(spec.num_reducers as u64);
    match spec.lineage {
        Some(upstream) => {
            fp.push_u64(0x006c_696e_6561_6765); // "lineage" domain tag
            fp.push_u64(upstream);
        }
        None => {
            fp.push_u64(0x7370_6c69_7473); // "splits" domain tag
            fp.push_u64(splits.len() as u64);
            for s in splits {
                push_split(&mut fp, s);
            }
        }
    }
    Some(fp.finish())
}

fn push_split(fp: &mut Fingerprinter, split: &InputSplit) {
    match &split.spec {
        SplitSpec::FileRange { path, offset, len } => {
            fp.push_u64(1)
                .push_str(path)
                .push_u64(*offset)
                .push_u64(*len);
        }
        SplitSpec::Groups { base, groups } => {
            fp.push_u64(2).push_str(base).push_u64(groups.len() as u64);
            for g in groups {
                fp.push_u64(*g as u64);
            }
        }
        SplitSpec::Inline { from, to } => {
            fp.push_u64(3).push_u64(*from as u64).push_u64(*to as u64);
        }
    }
    fp.push_u64(split.bytes);
}

/// The file paths a fingerprint depends on, for cache invalidation: deleting
/// or rewriting any of these must drop the cached entry.
pub fn input_paths(splits: &[InputSplit]) -> Vec<String> {
    let mut paths: Vec<String> = splits
        .iter()
        .filter_map(|s| match &s.spec {
            SplitSpec::FileRange { path, .. } => Some(path.clone()),
            SplitSpec::Groups { base, .. } => Some(base.clone()),
            SplitSpec::Inline { .. } => None,
        })
        .collect();
    paths.sort();
    paths.dedup();
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::VecInputFormat;
    use crate::runner::FnMapRunner;
    use crate::task::MapTaskContext;
    use clyde_dfs::NodeId;
    use std::sync::Arc;

    fn spec_with_token(token: &str) -> JobSpec {
        let input = Arc::new(VecInputFormat::new(Vec::new(), 1));
        let runner = Arc::new(FnMapRunner(|_ctx: &MapTaskContext<'_>| Ok(())));
        let mut spec = JobSpec::new("fp-test", input, runner);
        spec.code_token = token.into();
        spec
    }

    fn file_split(index: usize, path: &str, offset: u64, len: u64) -> InputSplit {
        InputSplit {
            index,
            spec: SplitSpec::FileRange {
                path: path.into(),
                offset,
                len,
            },
            hosts: vec![NodeId(0)],
            bytes: len,
        }
    }

    #[test]
    fn empty_token_yields_no_fingerprint() {
        let spec = spec_with_token("");
        assert_eq!(job_fingerprint(&spec, &[]), None);
    }

    #[test]
    fn same_inputs_same_fingerprint() {
        let spec = spec_with_token("clyde:q2.1:v1");
        let splits = vec![file_split(0, "/ssb/fact/cif", 0, 4096)];
        assert_eq!(
            job_fingerprint(&spec, &splits),
            job_fingerprint(&spec, &splits)
        );
    }

    #[test]
    fn conf_order_cannot_matter() {
        let mut a = spec_with_token("t");
        a.conf.set("x", "1");
        a.conf.set("a", "2");
        let mut b = spec_with_token("t");
        b.conf.set("a", "2");
        b.conf.set("x", "1");
        let splits = vec![file_split(0, "/f", 0, 10)];
        assert_eq!(job_fingerprint(&a, &splits), job_fingerprint(&b, &splits));
    }

    #[test]
    fn sensitive_to_token_conf_splits_and_reducers() {
        let base = spec_with_token("t");
        let splits = vec![file_split(0, "/f", 0, 10)];
        let fp0 = job_fingerprint(&base, &splits).unwrap();

        let other_token = spec_with_token("t2");
        assert_ne!(fp0, job_fingerprint(&other_token, &splits).unwrap());

        let mut conf = spec_with_token("t");
        conf.conf.set("scan.columns", "lo_revenue");
        assert_ne!(fp0, job_fingerprint(&conf, &splits).unwrap());

        let mut reducers = spec_with_token("t");
        reducers.num_reducers = 8;
        assert_ne!(fp0, job_fingerprint(&reducers, &splits).unwrap());

        for changed in [
            vec![file_split(0, "/g", 0, 10)], // path
            vec![file_split(0, "/f", 1, 10)], // offset
            vec![file_split(0, "/f", 0, 11)], // length
            vec![file_split(0, "/f", 0, 10), file_split(1, "/f", 10, 10)], // membership
        ] {
            assert_ne!(fp0, job_fingerprint(&base, &changed).unwrap());
        }
    }

    #[test]
    fn group_splits_distinguish_membership() {
        let base = spec_with_token("t");
        let mk = |groups: Vec<usize>| {
            vec![InputSplit {
                index: 0,
                spec: SplitSpec::Groups {
                    base: "/fact".into(),
                    groups,
                },
                hosts: Vec::new(),
                bytes: 100,
            }]
        };
        let a = job_fingerprint(&base, &mk(vec![0, 1])).unwrap();
        let b = job_fingerprint(&base, &mk(vec![0, 2])).unwrap();
        let c = job_fingerprint(&base, &mk(vec![0])).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn insensitive_to_execution_knobs() {
        let splits = vec![file_split(0, "/f", 0, 10)];
        let base = spec_with_token("t");
        let fp0 = job_fingerprint(&base, &splits).unwrap();

        let mut exec = spec_with_token("t");
        exec.task_threads = Some(6);
        exec.host_threads = Some(2);
        exec.declared_task_memory = 1 << 30;
        exec.reuse_jvm = false;
        exec.output = crate::job::OutputSpec::DfsDir("/tmp/run-17".into());
        assert_eq!(fp0, job_fingerprint(&exec, &splits).unwrap());

        // Hosts are placement, not content.
        let mut moved = splits.clone();
        moved[0].hosts = vec![NodeId(2), NodeId(1)];
        assert_eq!(fp0, job_fingerprint(&base, &moved).unwrap());
    }

    #[test]
    fn lineage_replaces_splits() {
        let mut spec = spec_with_token("t");
        spec.lineage = Some(0xdead_beef);
        let a = vec![file_split(0, "/tmp/run-1/part", 0, 10)];
        let b = vec![file_split(0, "/tmp/run-2/part", 0, 10)];
        // Same lineage, different (per-run) splits: identical fingerprint.
        assert_eq!(job_fingerprint(&spec, &a), job_fingerprint(&spec, &b));

        // Different lineage: different fingerprint.
        let mut other = spec_with_token("t");
        other.lineage = Some(0xdead_beef + 1);
        assert_ne!(job_fingerprint(&spec, &a), job_fingerprint(&other, &a));

        // Lineage mode never aliases split mode.
        let split_based = spec_with_token("t");
        assert_ne!(
            job_fingerprint(&spec, &a),
            job_fingerprint(&split_based, &a)
        );
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        let mut a = Fingerprinter::new();
        a.push_str("ab").push_str("c");
        let mut b = Fingerprinter::new();
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn input_paths_sorted_and_deduped() {
        let splits = vec![
            file_split(0, "/b", 0, 10),
            file_split(1, "/a", 0, 10),
            file_split(2, "/b", 10, 10),
            InputSplit {
                index: 3,
                spec: SplitSpec::Inline { from: 0, to: 5 },
                hosts: Vec::new(),
                bytes: 80,
            },
        ];
        assert_eq!(
            input_paths(&splits),
            vec!["/a".to_string(), "/b".to_string()]
        );
    }
}
