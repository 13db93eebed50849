//! `clyde-lint` CLI.
//!
//! ```text
//! clyde-lint [--root <dir>]          # scan; exit 1 on any finding
//!            [--format text|json]    # json adds GitHub-annotation fields
//!            [--out <file>]          # write the json report here (stdout text
//!                                    # stays problem-matcher compatible)
//! clyde-lint --self-test             # each fixture must trigger exactly its rule
//! ```

use clyde_lint::{scan_source, scan_workspace, Rule, Violation};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: clyde-lint [--root <dir>] [--format text|json] [--out <file>] [--self-test]";

struct Opts {
    root: PathBuf,
    self_test: bool,
    json: bool,
    out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        root: PathBuf::from("."),
        self_test: false,
        json: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.root = PathBuf::from(dir),
                    None => return usage(),
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => opts.json = true,
                    Some("text") => opts.json = false,
                    _ => return usage(),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => opts.out = Some(PathBuf::from(p)),
                    None => return usage(),
                }
            }
            "--self-test" => opts.self_test = true,
            "--help" | "-h" => {
                println!(
                    "clyde-lint: determinism, concurrency and panic-path invariants (D001-D008)\n{USAGE}"
                );
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
        i += 1;
    }

    if opts.self_test {
        return run_self_test(&opts.root);
    }
    run_scan(&opts)
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn run_scan(opts: &Opts) -> ExitCode {
    let violations = match scan_workspace(&opts.root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("clyde-lint: cannot scan {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    // Text findings always go to stdout in `file:line: CODE message` form —
    // the GitHub problem matcher and human eyes both read this.
    for v in &violations {
        println!("{v}");
    }
    println!("clyde-lint: {} finding(s)", violations.len());

    if opts.json {
        let json = render_report(&violations);
        match &opts.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("clyde-lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            None => println!("{json}"),
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON report with GitHub-annotation fields per finding. Hand-rolled —
/// the crate is intentionally zero-dependency.
fn render_report(violations: &[Violation]) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"end_line\": {}, \
             \"annotation_level\": \"failure\", \"title\": {}, \"message\": {}}}",
            json_str(&v.file.to_string_lossy().replace('\\', "/")),
            v.line,
            v.line,
            json_str(&format!("{} {}", v.rule.code(), v.rule.pragma_name())),
            json_str(&v.message),
        ));
    }
    s.push_str(&format!(
        "\n  ],\n  \"summary\": {{\"failing\": {}}}\n}}\n",
        violations.len()
    ));
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every fixture under `crates/lint/fixtures/` must trigger exactly the rule
/// it is named for; `clean.rs` must trigger nothing. Scoped rules
/// (D006/D007) get their fixtures scanned under a path inside the rule's
/// scope, so the scope plumbing itself is exercised. This is the
/// lint linting itself: if a rule regresses into silence, CI fails here.
fn run_self_test(root: &Path) -> ExitCode {
    const NEUTRAL: &str = "crates/fixture/src/lib.rs";
    let fixtures = root.join("crates/lint/fixtures");
    let cases: [(&str, &str, Option<Rule>); 11] = [
        ("d001_unordered.rs", NEUTRAL, Some(Rule::Unordered)),
        ("d002_wallclock.rs", NEUTRAL, Some(Rule::WallClock)),
        ("d003_entropy.rs", NEUTRAL, Some(Rule::Entropy)),
        ("d004_concurrency.rs", NEUTRAL, Some(Rule::Concurrency)),
        ("d005_metricname.rs", NEUTRAL, Some(Rule::MetricName)),
        (
            "d005_scheduler_registry.rs",
            NEUTRAL,
            Some(Rule::MetricName),
        ),
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
    let mut failed = false;
    for (name, scan_as, expect) in cases {
        let path = fixtures.join(name);
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("self-test FAIL: cannot read {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        let violations = scan_source(Path::new(scan_as), &src);
        match expect {
            None => {
                if violations.is_empty() {
                    println!("self-test OK: {name} is clean");
                } else {
                    eprintln!("self-test FAIL: {name} should be clean, got:");
                    for v in &violations {
                        eprintln!("  {v}");
                    }
                    failed = true;
                }
            }
            Some(rule) => {
                let hit = violations.iter().any(|v| v.rule == rule);
                let stray: Vec<&Violation> = violations.iter().filter(|v| v.rule != rule).collect();
                if hit && stray.is_empty() {
                    println!(
                        "self-test OK: {name} triggers {} ({} site(s))",
                        rule.code(),
                        violations.len()
                    );
                } else {
                    failed = true;
                    if !hit {
                        eprintln!("self-test FAIL: {name} did not trigger {}", rule.code());
                    }
                    for v in stray {
                        eprintln!("self-test FAIL: {name} stray violation: {v}");
                    }
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "clyde-lint: self-test OK — all eight rules (D001-D008) and unused pragmas (P001) exercised"
        );
        ExitCode::SUCCESS
    }
}
