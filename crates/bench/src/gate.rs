//! The one gate: how a freshly produced number is compared with a committed
//! one, for all three committed artifacts.
//!
//! A gate run compares two documents of the same layout — the committed
//! `BENCH_*.json` and the artifact the bin would write with `--json` right
//! now — under a table of [`Rule`]s, so what is gated is exactly what a
//! re-record would commit. Both sides are [`Json`] values: the committed
//! file is read only through `obs::json::parse`, and a leaf is addressed by
//! its real path (`policies` → `fifo` → `throughput_jobs_per_min`), so a
//! leaf that is missing where it belongs is a violation, never silently the
//! same-named leaf of a sibling object.
//!
//! The vocabulary is BENCHMARK.json's: a leaf is `better` higher or lower,
//! and may be worse than its committed value by at most `bound`, a fraction
//! of that value.

use crate::cli::BenchArgs;
use crate::restore::{WARM_HIT_RATE_FLOOR, WARM_SPEEDUP_FLOOR};
use clyde_common::obs::json::{self, Json};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Object keys from the document root down to a numeric leaf.
pub type Path = &'static [&'static str];

#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// The fresh leaf may be worse than the committed leaf at the same
    /// path by at most `bound`.
    Committed {
        path: Path,
        better: Better,
        bound: f64,
    },
    /// The fresh leaf must reach an absolute floor, whatever was committed.
    Floor { path: Path, floor: f64 },
    /// The fresh leaf must be strictly below another fresh leaf.
    Below { path: Path, than: Path },
}

const fn holds(path: Path, bound: f64) -> Rule {
    Rule::Committed {
        path,
        better: Better::Higher,
        bound,
    }
}

/// `BENCH_probe.json` (`bench_probe --gate`): every suite query's
/// vectorized-over-scalar probe speedup, and the encoded-over-rows build
/// speedup of the two queries that join `part`, the big dimension, hold
/// 0.9x the recorded ratio. Q1.1 and Q3.2 build under 3 k rows in about a
/// millisecond, and their build ratio moved 2.22-2.43x from run to run on
/// one host — as wide as the band — so they are recorded but not gated.
pub const PROBE: &[Rule] = &[
    holds(&["queries", "Q1.1", "speedup"], 0.1),
    holds(&["queries", "Q2.1", "speedup"], 0.1),
    holds(&["queries", "Q3.2", "speedup"], 0.1),
    holds(&["queries", "Q4.1", "speedup"], 0.1),
    holds(&["build", "Q2.1", "speedup"], 0.1),
    holds(&["build", "Q4.1", "speedup"], 0.1),
];

/// `BENCH_workload.json` (`workload --gate`): fair scheduling beats FIFO on
/// the starved tenant's p99, and every policy's throughput holds 0.95x its
/// committed value. Both are simulated, so a healthy tree reproduces the
/// committed numbers exactly; the band only absorbs intentional cost
/// recalibrations, not noise.
pub const WORKLOAD: &[Rule] = &[
    Rule::Below {
        path: &["policies", "fair", "tenants", "adhoc", "p99_s"],
        than: &["policies", "fifo", "tenants", "adhoc", "p99_s"],
    },
    holds(&["policies", "fifo", "throughput_jobs_per_min"], 0.05),
    holds(&["policies", "fair", "throughput_jobs_per_min"], 0.05),
    holds(&["policies", "capacity", "throughput_jobs_per_min"], 0.05),
];

/// `BENCH_restore.json` (`restore --gate`): the warm-over-cold throughput
/// speedup clears its hard floor and 0.9x the committed value, and the warm
/// stage hit rate clears its floor. Simulated, like the workload gate.
pub const RESTORE: &[Rule] = &[
    Rule::Floor {
        path: &["summary", "warm_speedup"],
        floor: WARM_SPEEDUP_FLOOR,
    },
    holds(&["summary", "warm_speedup"], 0.1),
    Rule::Floor {
        path: &["summary", "warm_hit_rate"],
        floor: WARM_HIT_RATE_FLOOR,
    },
];

/// One rule's verdict, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub ok: bool,
    pub line: String,
}

fn leaf(doc: &Json, which: &str, path: Path) -> Result<f64, String> {
    doc.at(path)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{}: missing from the {which} document", path.join(".")))
}

/// The comparator: is `now` no worse than the committed leaf at `path` by
/// more than `bound`? A path that does not resolve to a number in
/// `committed` is a violation.
pub fn compare(committed: &Json, path: Path, now: f64, better: Better, bound: f64) -> Outcome {
    let recorded = match leaf(committed, "committed", path) {
        Ok(v) => v,
        Err(line) => return Outcome { ok: false, line },
    };
    let (limit, name, ok) = match better {
        Better::Higher => {
            let floor = recorded * (1.0 - bound);
            (floor, "floor", now >= floor)
        }
        Better::Lower => {
            let ceiling = recorded * (1.0 + bound);
            (ceiling, "ceiling", now <= ceiling)
        }
    };
    let line = format!(
        "{}: measured {now:.2} vs recorded {recorded:.2} ({name} {limit:.2})",
        path.join(".")
    );
    Outcome { ok, line }
}

/// Apply `rules` to a fresh artifact against the committed one; one
/// [`Outcome`] per rule, in rule order.
pub fn check(rules: &[Rule], committed: &Json, fresh: &Json) -> Vec<Outcome> {
    let now = |path| leaf(fresh, "fresh", path);
    rules
        .iter()
        .map(|rule| {
            let outcome = match *rule {
                Rule::Committed {
                    path,
                    better,
                    bound,
                } => now(path).map(|v| compare(committed, path, v, better, bound)),
                Rule::Floor { path, floor } => now(path).map(|v| Outcome {
                    ok: v >= floor,
                    line: format!("{}: measured {v:.2}, hard floor {floor:.2}", path.join(".")),
                }),
                Rule::Below { path, than } => now(path).and_then(|v| {
                    let other = now(than)?;
                    let (path, than) = (path.join("."), than.join("."));
                    Ok(Outcome {
                        ok: v < other,
                        line: format!("{path}: {v:.2} must be below {than} = {other:.2}"),
                    })
                }),
            };
            outcome.unwrap_or_else(|line| Outcome { ok: false, line })
        })
        .collect()
}

/// The tail of every gated bin: write `fresh` to the `--json` path, then
/// enforce the `--gate` path — the committed artifact is read and checked
/// against the same document, every verdict is logged, and any violation
/// (or a committed file that cannot be read or parsed) exits 1.
pub fn finish(name: &str, rules: &[Rule], args: &BenchArgs, fresh: &Json) {
    if let Some(path) = args.value("--json") {
        std::fs::write(path, fresh.render()).expect("write json");
        eprintln!("wrote {path}");
    }
    let Some(path) = args.value("--gate") else {
        return;
    };
    let committed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("{name} gate FAILED: committed file {path}: {e}");
            std::process::exit(1);
        });
    let outcomes = check(rules, &committed, fresh);
    for o in &outcomes {
        eprintln!("gate {} — {}", o.line, if o.ok { "ok" } else { "FAIL" });
    }
    if outcomes.iter().all(|o| o.ok) {
        eprintln!("{name} gate passed");
    } else {
        eprintln!("{name} gate FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIFO: Path = &["policies", "fifo", "throughput_jobs_per_min"];

    fn policies(fifo: &str, fair: &str) -> Json {
        json::parse(&format!(
            "{{\"policies\": {{\"fifo\": {{{fifo}}}, \"fair\": {{{fair}}}}}}}"
        ))
        .unwrap()
    }

    /// The defect of the substring scan this module replaces: `fifo` lost
    /// its throughput, the later sibling `fair` still has one. That is a
    /// missing leaf, never a gate of fifo against fair's number.
    #[test]
    fn a_leaf_missing_from_its_section_is_not_found_in_a_later_sibling() {
        let committed = policies("\"makespan_s\": 186.4", "\"throughput_jobs_per_min\": 9.98");
        let verdict = compare(&committed, FIFO, 9.98, Better::Higher, 0.05);
        assert!(!verdict.ok);
        let missing = "policies.fifo.throughput_jobs_per_min: missing";
        assert!(verdict.line.contains(missing), "{}", verdict.line);
        // A key that merely contains the section name does not match either.
        let committed = policies("\"fifo_throughput_jobs_per_min\": 1.0", "");
        assert!(!compare(&committed, FIFO, 9.98, Better::Higher, 0.05).ok);
    }

    #[test]
    fn bound_is_a_fraction_of_the_committed_value_in_the_worse_direction() {
        let committed = policies("\"throughput_jobs_per_min\": 10.0", "");
        let higher = |now| compare(&committed, FIFO, now, Better::Higher, 0.05).ok;
        assert!(higher(10.0) && higher(9.5) && higher(50.0));
        assert!(!higher(9.49));
        let lower = |now| compare(&committed, FIFO, now, Better::Lower, 0.05).ok;
        assert!(lower(10.0) && lower(10.5) && lower(0.1));
        assert!(!lower(10.51));
    }

    #[test]
    fn floors_and_orderings_read_the_fresh_document_only() {
        let doc = |speedup: f64, fair: f64| {
            json::parse(&format!(
                "{{\"summary\": {{\"warm_speedup\": {speedup}}}, \"fair\": {fair}, \"fifo\": 3.0}}"
            ))
            .unwrap()
        };
        let rules = [
            Rule::Floor {
                path: &["summary", "warm_speedup"],
                floor: 2.0,
            },
            Rule::Below {
                path: &["fair"],
                than: &["fifo"],
            },
        ];
        let verdicts = |fresh: &Json| -> Vec<bool> {
            check(&rules, &Json::Null, fresh)
                .iter()
                .map(|o| o.ok)
                .collect()
        };
        assert_eq!(verdicts(&doc(2.0, 2.99)), [true, true]);
        assert_eq!(verdicts(&doc(1.99, 3.0)), [false, false]);
        assert_eq!(verdicts(&Json::Null), [false, false]);
    }
}
