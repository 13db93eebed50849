//! `clyde-lint` v2: the determinism & concurrency invariant catalog,
//! enforced by a zero-dependency static analyzer.
//!
//! The workspace's load-bearing guarantee is that traces, metric snapshots,
//! and query results are byte-identical across runs, fault plans, and thread
//! counts — and that the recovery paths backing the fault claims cannot
//! panic. Those properties are easy to break silently, so this crate checks
//! them mechanically on every CI run and in tier-1 (`tests/lint_clean.rs`).
//! One pipeline: a hand-rolled lossless lexer ([`lexer`]) and a simplified
//! per-file AST ([`parse`]); every rule reads tokens and the AST, never text:
//!
//! * **D001 `unordered`** — no unordered `HashMap`/`HashSet` iteration may
//!   feed output: sort nearby, collect into a `BTreeMap`/`BTreeSet`, end in
//!   an order-insensitive reduction, or pragma with a reason.
//! * **D002 `wallclock`** — `Instant::now` / `SystemTime` only in the
//!   audited wall-phase module ([`D002_ALLOWED`]); everything else measures
//!   through `WallTimer`.
//! * **D003 `entropy`** — no entropy-seeded randomness; all RNG flows from
//!   explicit seeds through the splitmix64 plumbing.
//! * **D004 `concurrency`** — concurrency primitives only in the audited
//!   modules ([`D004_AUDITED`]); task code paths stay lock-free.
//! * **D005 `metricname`** — an emitter's first argument is a string
//!   literal in a registered namespace ([`D005_REGISTRY`]); `scheduler.*`
//!   and `cache.*` are closed sets.
//! * **D006 `floatorder`** — non-associative float reductions in the
//!   merge-scope files ([`rules::d006::D006_MERGE_SCOPE`]) must pin their
//!   fold order or carry a reasoned pragma.
//! * **D007 `panicfree`** — no `unwrap`/`expect`/`panic!`/unchecked
//!   indexing in non-test code of the seven engine and query crates
//!   (`common`, `columnar`, `dfs`, `mapred`, `core`, `ssb`, `hive`).
//! * **D008 `walltaint`** — per-function taint tracking: wall-derived
//!   values must not reach sim-time sinks (metrics, traces, profile JSON)
//!   except through the filtered `*wall*` channels.
//!
//! Lock order is not a lint rule: the nestings the engine actually has cross
//! crates, closures and trait objects, which no per-crate syntactic graph
//! follows. The debug-build `clyde_common::lockorder` checker records them
//! as they happen, and `tests/lock_nesting.rs` pins the set.
//!
//! Violations are suppressed by a pragma on the offending line or the line
//! directly above:
//!
//! ```text
//! // clyde-lint: allow(floatorder, reason=fixed-merge-order, results sorted by first_morsel)
//! ```
//!
//! The reason is mandatory; a pragma without one is itself an error (P001),
//! and so is a pragma that suppresses nothing. There is no baseline of
//! grandfathered findings: every finding fails, and a pragma is the only
//! way to silence one.
//! Deliberately not a rustc plugin: the analyzer lexes and parses the whole
//! workspace in milliseconds, with no nightly dependency, and its rules stay
//! greppable.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod parse;
pub mod rules;

pub use rules::d006::D006_MERGE_SCOPE;
pub use rules::d008::D008_SINKS;

/// The invariant catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D001: unordered hash-container iteration.
    Unordered,
    /// D002: wall-clock read outside the wall-phase module.
    WallClock,
    /// D003: entropy-seeded randomness.
    Entropy,
    /// D004: concurrency primitive outside an audited module.
    Concurrency,
    /// D005: metric name that is not a literal in a registered namespace.
    MetricName,
    /// D006: unpinned float reduction in merge-scope code.
    FloatOrder,
    /// D007: panic-capable site on the recovery surface.
    PanicFree,
    /// D008: wall-derived value flowing into a sim-time artifact.
    WallTaint,
    /// P001: malformed `clyde-lint` pragma.
    BadPragma,
}

impl Rule {
    /// The catalog, spelled once: every rule with its report code and the
    /// name `allow(...)` pragmas use, in declaration order.
    pub const ALL: [(Rule, &'static str, &'static str); 9] = [
        (Rule::Unordered, "D001", "unordered"),
        (Rule::WallClock, "D002", "wallclock"),
        (Rule::Entropy, "D003", "entropy"),
        (Rule::Concurrency, "D004", "concurrency"),
        (Rule::MetricName, "D005", "metricname"),
        (Rule::FloatOrder, "D006", "floatorder"),
        (Rule::PanicFree, "D007", "panicfree"),
        (Rule::WallTaint, "D008", "walltaint"),
        (Rule::BadPragma, "P001", "pragma"),
    ];

    pub fn code(self) -> &'static str {
        Rule::ALL[self as usize].1
    }

    /// The name used in `allow(...)` pragmas.
    pub fn pragma_name(self) -> &'static str {
        Rule::ALL[self as usize].2
    }

    /// The rules an `allow(<name>, …)` pragma may name, by that name (P001
    /// itself cannot be allowed).
    fn allowable() -> impl Iterator<Item = (Rule, &'static str)> {
        Rule::ALL
            .iter()
            .filter(|(rule, _, _)| *rule != Rule::BadPragma)
            .map(|&(rule, _, name)| (rule, name))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: `file:line: CODE message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Modules allowed to read the wall clock (D002).
pub const D002_ALLOWED: &[&str] = &["crates/common/src/obs/wall.rs"];

/// Audited concurrency modules (D004): every `Mutex`/`RwLock`/spawn site in
/// these files has been reviewed for lock ordering (and runs under the
/// debug-build lock-order checker); everything else must stay lock-free.
pub const D004_AUDITED: &[&str] = &[
    // The checker itself and the observability hub's internal state.
    "crates/common/src/lockorder.rs",
    "crates/common/src/obs/mod.rs",
    "crates/common/src/obs/span.rs",
    "crates/common/src/obs/metrics.rs",
    // The multi-threaded map runner (paper Figure 5): the shared morsel
    // source, plus parallel dimension builds. Thread results come back
    // through join handles. Two functions in the engine hold a lock while
    // taking another (`tests/lock_nesting.rs` pins the set):
    // `MorselSource::next` holds its state while opening a part, which
    // takes `CifInputFormat`'s table handle and the DFS state; and
    // `NodeState::get_or_try_init` (task.rs) holds its entries while
    // building, which takes the resident store, the node-local store and
    // the DFS state. Neither inner lock ever takes an outer one.
    "crates/core/src/mtrunner.rs",
    "crates/core/src/hashtable.rs",
    // The MapReduce engine, task context, and distributed cache.
    "crates/mapred/src/engine.rs",
    "crates/mapred/src/task.rs",
    "crates/mapred/src/distcache.rs",
    // DFS shared state: block stores, namespace, node-local disks. The
    // per-node I/O counters are atomics and need no entry.
    "crates/dfs/src/local.rs",
    "crates/dfs/src/dfs.rs",
    // The CIF input format's per-job table handle: one `RwLock` around an
    // `Option<Arc<CifReader>>`, written by `splits()` and read by `open()`,
    // each for a single statement and never while a DFS lock is held.
    "crates/columnar/src/input.rs",
    // The RCFile input format's per-job table handle, the same shape as
    // CIF's: one `RwLock` around an `Option<Arc<RcFileReader>>`, each side
    // held for a single statement and never while a DFS lock is held.
    "crates/columnar/src/rcfile.rs",
    // NOT listed, deliberately: the multi-job server and slot scheduler
    // (`crates/mapred/src/server.rs`, `crates/mapred/src/scheduler.rs`,
    // `crates/core/src/server.rs`). Audited 2026-08: the server executes
    // admitted jobs *sequentially* through the audited engine and derives
    // the concurrent timeline in a pure discrete-event simulation, so the
    // whole layer is lock-free by design — concurrency lives only in data
    // (SimJob/Placement), never in threads. Keeping these files off the
    // allowlist means D004 fires the moment anyone reintroduces real
    // threading there (see `d004_job_server_layer_stays_lock_free`).
];

/// Files exempt from D005: the metrics registry itself (defines the
/// emitters and unit-tests them with throwaway names).
pub const D005_ALLOWED: &[&str] = &["crates/common/src/obs/metrics.rs"];

/// The metric-name registry (D005): each namespace a literal name may live
/// in, open (`None`) or closed to the listed series. `scheduler.*` and
/// `cache.*` are gate surfaces — the workload gate and the server swimlane
/// tests read the former by name, the restore gate and
/// `shadow_check --restore` compare the latter byte-for-byte — so emitting
/// a new series there means adding it here (and to the goldens that read
/// it) in the same change.
pub const D005_REGISTRY: &[(&str, Option<&[&str]>)] = &[
    ("mapred.", None),
    ("dfs.", None),
    (
        "scheduler.",
        Some(&[
            "scheduler.split_locality",
            "scheduler.jobs_admitted",
            "scheduler.jobs_rejected_queue_full",
            "scheduler.jobs_rejected_quota",
            "scheduler.queue_peak_depth",
            "scheduler.tenant_count",
            "scheduler.makespan_s",
            "scheduler.queue_wait_s",
            "scheduler.job_latency_s",
        ]),
    ),
    (
        "cache.",
        Some(&[
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "cache.invalidations",
            "cache.inserts",
            "cache.bytes_served",
            "cache.bytes_stored",
            "cache.entries",
        ]),
    ),
];

/// A parsed `allow(rule, reason=...)` suppression pragma.
#[derive(Debug, Clone)]
pub(crate) struct Pragma {
    line: usize,
    rule: Rule,
}

/// Parse pragmas out of the file's plain `//` comments (doc comments may
/// quote a pragma without being one). Malformed pragmas become P001
/// violations.
fn parse_pragmas(
    file: &Path,
    comments: &[(usize, String)],
    violations: &mut Vec<Violation>,
) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (line, text) in comments {
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(pos) = text.find("clyde-lint:") else {
            continue;
        };
        let rest = text[pos + "clyde-lint:".len()..].trim();
        let ok = (|| -> Option<Pragma> {
            let body = rest.strip_prefix("allow(")?;
            let body = body.strip_suffix(')').unwrap_or(body);
            let (rule_name, reason_part) = body.split_once(',')?;
            let reason = reason_part.trim().strip_prefix("reason=")?;
            if reason.trim().is_empty() {
                return None;
            }
            let (rule, _) = Rule::allowable().find(|(_, name)| *name == rule_name.trim())?;
            Some(Pragma { line: *line, rule })
        })();
        match ok {
            Some(p) => pragmas.push(p),
            None => violations.push(Violation {
                file: file.to_path_buf(),
                line: *line,
                rule: Rule::BadPragma,
                message: format!(
                    "malformed pragma `{}` — expected \
                     `clyde-lint: allow(<rule>, reason=...)` with a non-empty reason and \
                     a rule in {}",
                    rest,
                    Rule::allowable()
                        .map(|(_, name)| name)
                        .collect::<Vec<_>>()
                        .join("|")
                ),
            }),
        }
    }
    pragmas
}

/// A pragma suppresses matching violations on its own line and the line
/// directly below (so it can ride above the offending statement). A pragma
/// that suppresses nothing is reported as P001: an exemption outliving the
/// site it was written for would silence the next one there.
fn suppress(file: &Path, violations: &mut Vec<Violation>, pragmas: &[Pragma]) {
    let covers = |p: &Pragma, v: &Violation| {
        v.rule != Rule::BadPragma && p.rule == v.rule && (p.line == v.line || p.line + 1 == v.line)
    };
    let unused: Vec<Violation> = pragmas
        .iter()
        .filter(|p| !violations.iter().any(|v| covers(p, v)))
        .map(|p| Violation {
            file: file.to_path_buf(),
            line: p.line,
            rule: Rule::BadPragma,
            message: format!(
                "unused pragma `allow({})` — no {} finding on this line or the next; \
                 delete it",
                p.rule.pragma_name(),
                p.rule.code()
            ),
        })
        .collect();
    violations.retain(|v| !pragmas.iter().any(|p| covers(p, v)));
    violations.extend(unused);
}

pub(crate) fn rel_allowed(file: &Path, allowlist: &[&str]) -> bool {
    let norm: String = file
        .to_string_lossy()
        .replace('\\', "/")
        .trim_start_matches("./")
        .to_string();
    allowlist.iter().any(|a| norm.ends_with(a))
}

/// Scan one file's source text. `file` is used for allowlisting and
/// reporting only.
pub fn scan_source(file: &Path, src: &str) -> Vec<Violation> {
    let toks = lexer::lex(src);
    let mut violations = Vec::new();
    let pragmas = parse_pragmas(file, &lexer::line_comments(&toks), &mut violations);
    let ast = parse::parse(&toks);
    rules::run_file(&rules::FileCtx { file, ast: &ast }, &mut violations);
    suppress(file, &mut violations, &pragmas);
    violations.sort();
    violations
}

/// Recursively collect the `.rs` files the lint covers.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.retain(|f| {
        let s = f.to_string_lossy().replace('\\', "/");
        !s.contains("/target/") && !s.contains("/fixtures/") && !s.contains("/shims/")
    });
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every covered file under `root`; violations come back sorted by
/// (file, line) so the report itself is deterministic.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    for file in collect_files(root)? {
        let src = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file);
        all.extend(scan_source(rel, &src));
    }
    all.sort();
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Violation> {
        scan_source(Path::new("crates/x/src/lib.rs"), src)
    }

    fn rules(vs: &[Violation]) -> Vec<Rule> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_source_passes() {
        let src = r#"
            use std::collections::BTreeMap;
            fn f(m: &BTreeMap<u32, u32>) -> Vec<u32> {
                m.values().copied().collect()
            }
        "#;
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d001_flags_unsorted_iteration() {
        let src =
            "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n    m.values().copied().collect()\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::Unordered]);
    }

    #[test]
    fn d001_accepts_sorted_collection() {
        let src = "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n    let mut v: Vec<u32> = m.values().copied().collect();\n    v.sort();\n    v\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d001_accepts_order_free_reduction() {
        let src = "fn f(m: &FxHashMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d001_sees_for_loops() {
        let src = "fn f(set: FxHashSet<u32>) {\n    for x in set {\n        println!(\"{x}\");\n    }\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::Unordered]);
    }

    #[test]
    fn d002_flags_instant_and_allows_wall_module() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules(&scan(src)), vec![Rule::WallClock]);
        assert!(scan_source(Path::new("crates/common/src/obs/wall.rs"), src).is_empty());
    }

    #[test]
    fn d003_flags_entropy() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(rules(&scan(src)), vec![Rule::Entropy]);
    }

    #[test]
    fn d004_flags_unaudited_mutex() {
        let src = "use std::sync::Mutex;\nstatic S: Mutex<u32> = Mutex::new(0);\n";
        let vs = scan(src);
        assert!(!vs.is_empty());
        assert!(vs.iter().all(|v| v.rule == Rule::Concurrency));
        let audited = scan_source(Path::new("crates/mapred/src/task.rs"), src);
        assert!(audited.is_empty());
    }

    #[test]
    fn d005_flags_unregistered_namespace() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"clyde.jobs\", 1);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_flags_non_literal_name() {
        let src = "fn f(m: &Metrics, name: &str) {\n    m.gauge_set(name, 0.5);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_accepts_registered_names_and_wrapped_calls() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"mapred.jobs\", 1);\n    m.gauge_set(\"scheduler.split_locality\", 0.5);\n    m.histogram_record(\n        \"dfs.scan.local_bytes\",\n        2.0,\n    );\n    m.counter_add(\"cache.hits\", 1);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d005_skips_definitions_and_registry_module() {
        let src = "impl Metrics {\n    pub fn counter_add(&self, name: &str, delta: u64) {\n        self.add(name, delta);\n    }\n}\n";
        assert!(scan(src).is_empty());
        let call = "fn f(m: &Metrics) { m.counter_add(\"x\", 1); }\n";
        assert!(scan_source(Path::new("crates/common/src/obs/metrics.rs"), call).is_empty());
    }

    #[test]
    fn d004_job_server_layer_stays_lock_free() {
        // The audit entry for the multi-job server: these files are kept
        // OFF the D004 allowlist, so this test (and the workspace scan)
        // fails the moment real threading appears in the scheduling layer.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in [
            "crates/mapred/src/server.rs",
            "crates/mapred/src/scheduler.rs",
            "crates/core/src/server.rs",
            "crates/dfs/src/cache.rs",
        ] {
            assert!(
                !rel_allowed(Path::new(rel), D004_AUDITED),
                "{rel} must not be on the D004 allowlist"
            );
            let src = std::fs::read_to_string(root.join(rel)).expect(rel);
            let concurrency: Vec<_> = scan_source(Path::new(rel), &src)
                .into_iter()
                .filter(|v| v.rule == Rule::Concurrency)
                .collect();
            assert!(
                concurrency.is_empty(),
                "{rel} grew concurrency primitives: {concurrency:?}"
            );
        }
    }

    #[test]
    fn d005_flags_unregistered_scheduler_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"scheduler.queue_drops\", 1);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_accepts_registered_scheduler_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"scheduler.jobs_admitted\", 1);\n    m.gauge_set(\"scheduler.queue_peak_depth\", 3.0);\n    m.histogram_record(\"scheduler.queue_wait_s\", 0.5);\n    m.histogram_record(\"scheduler.job_latency_s\", 1.5);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d005_flags_unregistered_cache_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"cache.size\", 1);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_accepts_registered_cache_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"cache.hits\", 1);\n    m.counter_add(\"cache.misses\", 2);\n    m.counter_add(\"cache.bytes_served\", 64);\n    m.gauge_set(\"cache.bytes_stored\", 128.0);\n    m.gauge_set(\"cache.entries\", 2.0);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d005_pragma_suppresses() {
        let src = "fn f(m: &Metrics) {\n    // clyde-lint: allow(metricname, reason=experimental namespace behind a feature flag)\n    m.counter_add(\"exp.jobs\", 1);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let src = "fn f(m: &FxHashMap<u32, u32>) -> u64 {\n    // clyde-lint: allow(unordered, reason=commutative fold)\n    m.values().fold(0u64, |a, &b| a ^ b as u64)\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let src = "// clyde-lint: allow(unordered)\nfn f() {}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::BadPragma]);
    }

    #[test]
    fn a_pragma_that_suppresses_nothing_is_a_finding() {
        let src = "fn f() {\n    // clyde-lint: allow(unordered, reason=the map that was here is gone)\n    let x = 1;\n}\n";
        let vs = scan(src);
        assert_eq!(rules(&vs), vec![Rule::BadPragma]);
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].message.contains("unused pragma"), "{vs:?}");
    }

    #[test]
    fn comments_and_strings_never_match() {
        let src = "fn f() {\n    // HashMap iteration and Instant::now in prose\n    let s = \"Mutex thread_rng SystemTime\";\n    let _ = s;\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn raw_strings_never_match() {
        let src = "fn f() -> &'static str {\n    r#\"Instant::now Mutex\"#\n}\n";
        assert!(scan(src).is_empty());
    }

    // ---- v2 structural rules ----

    #[test]
    fn d006_flags_fold_in_merge_scope_only() {
        let src = "fn merge(xs: Vec<i64>) -> i64 {\n    xs.iter().fold(0, |a, b| a + b)\n}\n";
        let in_scope = scan_source(Path::new("crates/core/src/mtrunner.rs"), src);
        assert_eq!(rules(&in_scope), vec![Rule::FloatOrder]);
        assert!(scan(src).is_empty(), "neutral files are out of scope");
    }

    #[test]
    fn d006_sum_needs_float_evidence() {
        let int_sum =
            "fn total(runs: &[Vec<u8>]) -> usize {\n    runs.iter().map(Vec::len).sum()\n}\n";
        assert!(scan_source(Path::new("crates/mapred/src/shuffle.rs"), int_sum).is_empty());
        let float_sum = "fn total(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n";
        assert_eq!(
            rules(&scan_source(
                Path::new("crates/mapred/src/shuffle.rs"),
                float_sum
            )),
            vec![Rule::FloatOrder]
        );
    }

    #[test]
    fn d006_flags_float_accumulation_in_loops() {
        let src = "fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs {\n        acc += x;\n    }\n    acc\n}\n";
        assert_eq!(
            rules(&scan_source(Path::new("crates/core/src/mtrunner.rs"), src)),
            vec![Rule::FloatOrder]
        );
    }

    #[test]
    fn d006_pragma_suppresses() {
        let src = "fn merge(xs: Vec<i64>) -> i64 {\n    // clyde-lint: allow(floatorder, reason=fixed-merge-order, inputs sorted)\n    xs.iter().fold(0, |a, b| a + b)\n}\n";
        assert!(scan_source(Path::new("crates/core/src/mtrunner.rs"), src).is_empty());
    }

    #[test]
    fn d007_flags_panic_sites_in_recovery_scope() {
        let src = "pub fn heal(xs: &[u8]) -> u8 {\n    let first = xs.first().unwrap();\n    let second = xs[1];\n    panic!(\"no\");\n}\n";
        let vs = scan_source(Path::new("crates/mapred/src/fault.rs"), src);
        assert_eq!(vs.len(), 3, "{vs:?}");
        assert!(vs.iter().all(|v| v.rule == Rule::PanicFree));
        assert!(scan(src).is_empty(), "neutral files are out of scope");
    }

    #[test]
    fn d007_covers_every_fn_of_the_engine_and_query_crates_and_nothing_else() {
        let src = "impl E {\n    fn run_job_inner(&self) { self.x.unwrap(); }\n    fn helper(&self) { self.x.unwrap(); }\n}\n";
        for engine in ["common", "columnar", "dfs", "mapred", "core", "ssb", "hive"] {
            let vs = scan_source(Path::new(&format!("crates/{engine}/src/any.rs")), src);
            assert_eq!(rules(&vs), vec![Rule::PanicFree; 2], "{engine}: {vs:?}");
        }
        for outside in [
            "crates/bench/src/harness.rs",
            "crates/lint/src/lib.rs",
            "crates/core/tests/it.rs",
            "tests/end_to_end.rs",
        ] {
            assert!(scan_source(Path::new(outside), src).is_empty(), "{outside}");
        }
    }

    #[test]
    fn the_catalog_is_indexed_by_declaration_order() {
        for (i, (rule, code, _)) in Rule::ALL.iter().enumerate() {
            assert_eq!(*rule as usize, i, "{code}");
        }
    }

    #[test]
    fn d007_skips_tests_and_checked_alternatives() {
        let src = "pub fn heal(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { heal(None); assert_eq!(v[0], 1); v.x.unwrap(); }\n}\n";
        assert!(scan_source(Path::new("crates/mapred/src/fault.rs"), src).is_empty());
    }

    #[test]
    fn d008_flags_wall_flow_into_sinks() {
        let src = "fn f(m: &Metrics) {\n    let t = WallTimer::start();\n    let spent = t.elapsed_s();\n    m.histogram_record(\"mapred.phase_s\", spent);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::WallTaint]);
    }

    #[test]
    fn d008_wall_named_series_are_the_filtered_channel() {
        let src = "fn f(m: &Metrics, t: &WallTimer) {\n    m.histogram_record(\"mapred.task_wall_ms\", t.elapsed_s() * 1e3);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d008_sim_time_values_are_untainted() {
        let src = "fn f(m: &Metrics, sim_s: f64) {\n    m.histogram_record(\"mapred.task_sim_s\", sim_s);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn new_pragma_names_parse() {
        for name in ["floatorder", "panicfree", "walltaint"] {
            let src =
                format!("// clyde-lint: allow({name}, reason=covered by a test)\nfn f() {{}}\n");
            // Well-formed, so the only finding is that it suppresses nothing.
            let vs = scan(&src);
            assert_eq!(rules(&vs), vec![Rule::BadPragma], "{name}");
            assert!(vs[0].message.contains("unused pragma"), "{name}: {vs:?}");
        }
    }
}
