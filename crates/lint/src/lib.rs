//! `clyde-lint`: the determinism and panic-path checks the compiler cannot
//! make (DESIGN.md §9).
//!
//! Clippy and types enforce the rest: `clippy.toml` bans the wall clock,
//! entropy, threads, locks and named hash-map iterators outside audited
//! sites, the workspace `[lints]` table bans panics and indexing in the
//! seven engine and query crates, and metric names are
//! `clyde_common::obs::catalog` handles. What is left needs a file-scoped
//! or flow-sensitive view, or sees what clippy's lints miss. One pipeline:
//! a hand-rolled lossless lexer ([`lexer`]) and a simplified per-file AST
//! ([`parse`]); every rule reads tokens and the AST, never text:
//!
//! * **D001 `unordered`** (residue) — `.into_iter()` on a name bound to a
//!   `HashMap`/`HashSet`: `disallowed-methods` cannot name `into_iter`, and
//!   `iter_over_hash_type` sees only `for` loops.
//! * **D006 `floatorder`** — non-associative float reductions in the
//!   merge-scope files ([`rules::d006::D006_MERGE_SCOPE`]) must pin their
//!   fold order or carry a reasoned pragma.
//! * **D007 `panicfree`** (residue) — `[]` indexing in non-test code of the
//!   seven engine and query crates. Clippy's `indexing_slicing` does not
//!   see `HashMap`, `BTreeMap`, `VecDeque` or user `Index` indexing.
//! * **D008 `walltaint`** — per-function taint tracking: wall-derived
//!   values must not reach sim-time sinks (metrics, traces, profile JSON)
//!   except through `note_wall_phase`, the task's wall phases.
//!
//! Violations are suppressed by a pragma on the offending line or the line
//! directly above:
//!
//! ```text
//! // clyde-lint: allow(floatorder, reason=fixed-merge-order, results sorted by first_morsel)
//! ```
//!
//! The reason is mandatory; a pragma without one is itself an error (P001),
//! and so is a pragma that suppresses nothing. There is no baseline: every
//! finding fails. `tests/lint_clean.rs` runs the scan and clippy together.

use std::fmt;
use std::path::{Path, PathBuf};

#[doc(hidden)]
pub mod canary;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use rules::d006::D006_MERGE_SCOPE;
pub use rules::d008::D008_SINKS;

/// The invariant catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D001 residue: `.into_iter()` of a hash container.
    Unordered,
    /// D006: unpinned float reduction in merge-scope code.
    FloatOrder,
    /// D007 residue: `[]` indexing in engine code.
    PanicFree,
    /// D008: wall-derived value flowing into a sim-time artifact.
    WallTaint,
    /// P001: malformed `clyde-lint` pragma.
    BadPragma,
}

impl Rule {
    /// The catalog, spelled once: every rule with its report code and the
    /// name `allow(...)` pragmas use, in declaration order.
    pub const ALL: [(Rule, &'static str, &'static str); 5] = [
        (Rule::Unordered, "D001", "unordered"),
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

    /// Every fixture under `crates/lint/fixtures/` triggers exactly the rule
    /// it is named for; `clean.rs` triggers nothing. Scoped rules (D006,
    /// D007) scan their fixtures under a path inside the rule's scope, so
    /// the scope plumbing itself is exercised. If a rule regresses into
    /// silence, this fails.
    #[test]
    fn each_fixture_triggers_exactly_its_rule() {
        const NEUTRAL: &str = "crates/fixture/src/lib.rs";
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let cases = [
            ("d001_unordered.rs", NEUTRAL, Some(Rule::Unordered)),
            (
                "d006_floatorder.rs",
                "crates/core/src/mtrunner.rs",
                Some(Rule::FloatOrder),
            ),
            (
                "d007_panicfree.rs",
                "crates/dfs/src/fixture.rs",
                Some(Rule::PanicFree),
            ),
            ("d008_walltaint.rs", NEUTRAL, Some(Rule::WallTaint)),
            ("p001_unused_pragma.rs", NEUTRAL, Some(Rule::BadPragma)),
            ("clean.rs", NEUTRAL, None),
        ];
        for (name, scan_as, expect) in cases {
            let src = std::fs::read_to_string(fixtures.join(name)).expect(name);
            let found = rules(&scan_source(Path::new(scan_as), &src));
            match expect {
                None => assert!(found.is_empty(), "{name}: {found:?}"),
                Some(rule) => {
                    assert!(!found.is_empty(), "{name} did not trigger {rule}");
                    assert!(found.iter().all(|r| *r == rule), "{name}: {found:?}");
                }
            }
        }
    }

    #[test]
    fn the_job_server_layer_stays_lock_free() {
        // The multi-job server executes admitted jobs sequentially and
        // derives the concurrent timeline in a pure simulation, so the layer
        // has no threads and no locks by design. No exemption from the
        // clippy.toml lock and thread lists may appear in these files.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in [
            "crates/mapred/src/server.rs",
            "crates/mapred/src/scheduler.rs",
            "crates/core/src/server.rs",
            "crates/dfs/src/cache.rs",
        ] {
            let src = std::fs::read_to_string(root.join(rel)).expect(rel);
            for lint in ["clippy::disallowed_types", "clippy::disallowed_methods"] {
                assert!(!src.contains(lint), "{rel} carries a {lint} exemption");
            }
        }
    }

    #[test]
    fn d001_flags_into_iter_of_a_hash_container_only() {
        let src = "fn f(m: FxHashMap<u32, u32>, v: Vec<u32>) -> Vec<u32> {\n    let a: Vec<_> = v.into_iter().collect();\n    m.into_iter().map(|(k, _)| k).collect()\n}\n";
        let vs = scan(src);
        assert_eq!(rules(&vs), vec![Rule::Unordered]);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let src = "fn f(m: FxHashMap<u32, u32>) -> u64 {\n    // clyde-lint: allow(unordered, reason=commutative fold)\n    m.into_iter().fold(0u64, |a, (_, b)| a ^ b as u64)\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let src = "// clyde-lint: allow(unordered)\nfn f() {}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::BadPragma]);
    }

    #[test]
    fn a_pragma_naming_a_rule_clippy_took_is_malformed() {
        let src = "// clyde-lint: allow(wallclock, reason=moved to clippy.toml)\nfn f() {}\n";
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
        let src = "fn f(m: FxHashMap<u8, u8>) {\n    // m.into_iter() in prose\n    let s = \"m.into_iter() xs[0]\";\n    let _ = s;\n}\n";
        assert!(scan(src).is_empty());
        let raw = "fn f() -> &'static str {\n    r#\"m.into_iter() xs[0]\"#\n}\n";
        assert!(scan_source(Path::new("crates/core/src/x.rs"), raw).is_empty());
    }

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
    fn d007_flags_indexing_in_the_engine_and_query_crates_and_nothing_else() {
        let src = "impl E {\n    fn get(&self) -> u8 { self.by_key[&3] }\n    fn at(&self) -> u8 { self.xs()[1] }\n}\n";
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
    fn d007_skips_tests_attributes_macros_and_array_types() {
        let src = "#[derive(Debug)]\npub fn heal(x: [u8; 4]) -> Vec<u8> {\n    vec![x.len() as u8]\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(v[0], 1); }\n}\n";
        assert!(scan_source(Path::new("crates/mapred/src/fault.rs"), src).is_empty());
    }

    #[test]
    fn d008_flags_wall_flow_into_sinks() {
        let src = "fn f(m: &Metrics) {\n    let t = WallTimer::start();\n    let spent = t.elapsed_s();\n    m.histogram_record(series::MAPRED_PHASE_S, spent);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::WallTaint]);
    }

    #[test]
    fn d008_note_wall_phase_is_the_sanctioned_channel() {
        let src = "fn f(ctx: &MapTaskContext<'_>, t: &WallTimer) {\n    ctx.note_wall_phase(Phase::Emit, t.elapsed_ns());\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d008_sim_time_values_are_untainted() {
        let src = "fn f(m: &Metrics, sim_s: f64) {\n    m.histogram_record(series::MAPRED_TASK_SIM_S, sim_s);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn the_catalog_is_indexed_by_declaration_order() {
        for (i, (rule, code, _)) in Rule::ALL.iter().enumerate() {
            assert_eq!(*rule as usize, i, "{code}");
        }
    }
}
