//! The repo benchmark: wall-clock, layer-attributed SSB runs.
//!
//! ```text
//! clyde-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! clyde-benchmark all   [--seed N] [--seconds S]   every workload, untraced then traced
//! clyde-benchmark aa    [--seed N] [--seconds S]   every workload twice; exit 1 past a bound
//! clyde-benchmark check                            tiny end-to-end self-test of all of it
//! ```
//!
//! `run` prints every metric by name with its unit and sample count, writes
//! `benchmark/out/<workload>[.traced].json` (and the Chrome trace of a traced
//! run), and ends with the one-line JSON result the driver reads.

mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use clyde_common::obs::json::{self, escape, Json};
use run::{run_traced, run_untraced, Budget, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::{Scale, Workload};

const DEFAULT_SEED: u64 = 46;
const DEFAULT_SECONDS: f64 = 10.0;
/// Ops of a traced run that go into the Chrome trace file (all of them feed
/// the metrics); two passes of the longest workload.
const TRACE_FILE_OPS: u32 = 16;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => out.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => parse_args(rest).and_then(|args| match cmd.as_str() {
            "run" => cmd_run(&args),
            "all" => cmd_all(&args),
            "aa" => cmd_aa(&args),
            "check" => cmd_check(),
            other => Err(format!("unknown subcommand {other}")),
        }),
        None => Err("usage: clyde-benchmark <run|all|aa|check> [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("clyde-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

fn cmd_run(args: &Args) -> Result<bool, String> {
    let w = args.workload.ok_or("run needs --workload")?;
    let budget = Budget::Seconds(args.seconds);
    let report = if args.traced {
        let (report, tracer) =
            run_traced(w, Scale::Full, args.seed, budget).map_err(|e| e.to_string())?;
        write_out(
            &format!("{}.trace.json", w.name()),
            &tracer.chrome_trace(TRACE_FILE_OPS),
        )?;
        print!(
            "{}",
            metrics::where_time_goes(&tracer, report.attempted as usize)
        );
        report
    } else {
        let report = run_untraced(w, Scale::Full, args.seed, budget).map_err(|e| e.to_string())?;
        let beyond = stats::samples_beyond(report.attempted as usize, 0.9);
        if beyond < 10 {
            eprintln!(
                "note: {} ops leave {beyond} samples beyond op_ms_p90; it takes ten to trust it",
                report.attempted
            );
        }
        report
    };
    let suffix = if report.traced { ".traced" } else { "" };
    write_out(&format!("{}{suffix}.json", w.name()), &report_json(&report))?;
    print!("{}", render(&report));
    println!("{}", result_line(&report));
    Ok(true)
}

fn write_out(file: &str, content: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Every metric by name, with its unit and sample count.
fn render(r: &Report) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# {} seed={} {} attempted={} failed={}",
        r.workload.name(),
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.attempted,
        r.failed
    )
    .expect("string write");
    for m in &r.metrics {
        writeln!(
            out,
            "{:<42} {:>18.4} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        )
        .expect("string write");
    }
    out
}

fn metrics_json(r: &Report, with_samples: bool) -> String {
    let fields: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                escape(&m.name),
                m.value,
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's result: one JSON object on one line.
fn result_line(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_json(r, false)
    )
}

fn report_json(r: &Report) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        r.workload.name(),
        r.seed,
        r.traced,
        r.attempted,
        r.failed,
        metrics_json(r, true)
    )
}

// ---------------------------------------------------------------------------
// all / aa: each run in a process of its own, so peak memory is the run's.
// ---------------------------------------------------------------------------

/// Run `run` in a child process; pass its report through and parse the
/// result line.
fn child_run(w: Workload, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run of {} failed: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or("run printed no result line")?;
    println!("{report}");
    json::parse(line)
}

fn is_correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

fn cmd_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in Workload::ALL {
        for traced in [false, true] {
            ok &= is_correct(&child_run(w, args, traced)?);
        }
    }
    println!("reports and traces are in {}", out_dir().display());
    Ok(ok)
}

/// `(name, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_num);
            Ok((
                name.ok_or("end_to_end metric without a name")?.to_string(),
                bound.ok_or("end_to_end metric without a bound")?,
            ))
        })
        .collect()
}

fn cmd_aa(args: &Args) -> Result<bool, String> {
    let bounds = declared_bounds()?;
    let mut ok = true;
    let mut table = String::new();
    for w in Workload::ALL {
        let a = child_run(w, args, false)?;
        let b = child_run(w, args, false)?;
        ok &= is_correct(&a) && is_correct(&b);
        for (name, bound) in &bounds {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_num)
                    .ok_or(format!("{} reported no {name}", w.name()))
            };
            let (a, b) = (value(&a)?, value(&b)?);
            let diff = (b - a).abs() / a.abs();
            let within = diff <= *bound;
            ok &= within;
            writeln!(
                table,
                "{:<12} {:<22} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}% {}",
                w.name(),
                name,
                a,
                b,
                diff * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            )
            .expect("string write");
        }
    }
    println!(
        "{:<12} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "run A", "run B", "diff", "bound"
    );
    print!("{table}");
    Ok(ok)
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// Metrics that are counts: two runs with one seed must agree on them exactly.
const COUNT_METRICS: [&str; 6] = [
    "dfs.bytes_read_per_op",
    "dfs.bytes_written_per_op",
    "columnar.input.zone_skip_ratio",
    "mapred.map_output_records_per_op",
    "mapred.cost.sim_s_per_op",
    "hive.intermediate_bytes_per_op",
];

fn cmd_check() -> Result<bool, String> {
    let one_pass = Budget::Passes(1);
    let mut problems: Vec<String> = Vec::new();
    for w in Workload::ALL {
        let untraced =
            |seed| run_untraced(w, Scale::Check, seed, one_pass).map_err(|e| e.to_string());
        let traced = |seed| run_traced(w, Scale::Check, seed, one_pass).map_err(|e| e.to_string());
        let (u1, u2) = (untraced(DEFAULT_SEED)?, untraced(DEFAULT_SEED)?);
        let ((t1, tracer), (t2, _)) = (traced(DEFAULT_SEED)?, traced(DEFAULT_SEED)?);
        let (u3, (t3, _)) = (untraced(DEFAULT_SEED + 1)?, traced(DEFAULT_SEED + 1)?);
        for r in [&u1, &u2, &u3, &t1, &t2, &t3] {
            if r.failed != 0 || r.attempted == 0 {
                problems.push(format!(
                    "{} seed {} {}: {} of {} ops failed",
                    w.name(),
                    r.seed,
                    if r.traced { "traced" } else { "untraced" },
                    r.failed,
                    r.attempted
                ));
            }
        }
        let same = |a: &Report, b: &Report, name: &str| {
            let (a, b) = (
                a.metric(name).map(|m| m.value),
                b.metric(name).map(|m| m.value),
            );
            if a.is_none() || a != b {
                Some(format!("{} {name}: {a:?} vs {b:?} with one seed", w.name()))
            } else {
                None
            }
        };
        problems.extend(same(&u1, &u2, "stored_bytes_per_row"));
        problems.extend(COUNT_METRICS.iter().filter_map(|name| same(&t1, &t2, name)));
        if json::parse(&tracer.chrome_trace(TRACE_FILE_OPS)).is_err() {
            problems.push(format!("{} trace is not valid JSON", w.name()));
        }
        println!(
            "{:<12} untraced ops {:>2}, traced ops {:>2} (plain = in situ = replay = reference), spans {}",
            w.name(),
            u1.attempted,
            t1.attempted,
            tracer.spans.len()
        );
    }
    for p in &problems {
        eprintln!("check: {p}");
    }
    println!(
        "check: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Metric;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "hive_chain",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::HiveChain));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 2.5, true));
        let d = parse_args(&strings(&["--trace", "0"])).unwrap();
        assert_eq!((d.workload, d.seed, d.traced), (None, DEFAULT_SEED, false));
        assert!(parse_args(&strings(&["--traced"])).unwrap().traced);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--fast"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let report = Report {
            workload: Workload::ClydeScan,
            seed: 46,
            traced: false,
            attempted: 1050,
            failed: 2,
            metrics: vec![
                Metric::new("op_ms_p50", 12.693184, "ms", 1050),
                Metric::new("rows_per_s", 95738707.45538169, "rows/s", 150),
            ],
        };
        let line = result_line(&report);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").unwrap().as_num(), Some(1050.0));
        let p50 = doc.get("metrics").unwrap().get("op_ms_p50").unwrap();
        assert_eq!(p50.get("value").unwrap().as_num(), Some(12.693184));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
        assert!(p50.get("samples").is_none());
        // The report file carries the sample counts as well.
        let file = json::parse(&report_json(&report)).unwrap();
        let rows = file.get("metrics").unwrap().get("rows_per_s").unwrap();
        assert_eq!(rows.get("samples").unwrap().as_num(), Some(150.0));
        assert_eq!(rows.get("value").unwrap().as_num(), Some(95738707.45538169));
        assert_eq!(file.get("workload").unwrap().as_str(), Some("clyde_scan"));
        assert!(render(&report).contains("n=1050"));
    }
}
