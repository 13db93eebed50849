//! Shadow dual-run determinism harness.
//!
//! Usage: `shadow_check [measurement-sf] [--seed <n>] [--queries <id,id,...>]`
//! (default SF 0.008, seed 46, queries Q1.1 and Q2.1).
//!
//! The static pass (`clyde-lint`) proves nobody *wrote* nondeterministic
//! code; this binary proves nothing nondeterministic *executes*. For each
//! query it runs the full stack — fresh simulated cluster, SSB load, warm
//! cache, query with observability on — and captures three artifacts:
//!
//! 1. the serialized result rows,
//! 2. the Chrome trace JSON (simulated time only, by construction),
//! 3. the rendered metrics snapshot with wall-clock metrics filtered out.
//!
//! Each job is executed under four configurations: twice identically (the
//! dual run — catches anything seeded from ambient state), then with the
//! `MtMapRunner` host thread count forced to 1, 2, and 8 while the cost
//! model keeps pricing with the cluster's map slots. Every configuration
//! must produce byte-identical artifacts; any diff is printed and the
//! process exits non-zero, which is what the CI `static-analysis` job gates
//! on.
//!
//! `--workload` switches from single solo queries to the seeded
//! mixed-tenant stream of `clyde_bench::workload` replayed through the
//! multi-job server under fair scheduling (defaults: SF 0.005, seed 46) —
//! the same dual-run and host-thread sweep, proving that *multi-job
//! interleaving* is byte-identical too: every served query's rows, the
//! server-run swimlanes in the Chrome trace, and the `scheduler.*`
//! metrics.
//!
//! `--restore` replays the cold-then-warm stream of `clyde_bench::restore`
//! with the result cache on — the same dual-run and host-thread sweep over
//! both passes, proving the cache is thread-count invariant: every served
//! query's rows (cold and warm), the served-from-cache spans in the trace,
//! and the `cache.*` hit/miss/evict/bytes metrics.

use clyde_bench::harness::MeasurementConfig;
use clyde_bench::{cli, restore, workload};
use clyde_common::{Obs, Result};
use clyde_mapred::SchedPolicy;
use clyde_ssb::queries::StarQuery;
use clyde_ssb::query_by_id;
use clydesdale::Clydesdale;
use std::process::ExitCode;
use std::sync::Arc;

/// The deterministic artifacts of one full query execution.
struct Artifacts {
    results: Vec<u8>,
    trace: String,
    metrics: String,
}

/// Drop metric lines that are wall-clock-derived (observability-only, the
/// single sanctioned nondeterminism in a snapshot).
fn filter_wall(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| {
            !l.split('=')
                .next()
                .is_some_and(|name| name.contains("wall"))
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn run_once(
    config: &MeasurementConfig,
    query: &StarQuery,
    host_threads: Option<u32>,
) -> Result<Artifacts> {
    let (dfs, layout) = config.testbed(2, false)?;
    let obs = Obs::enabled();
    let mut clyde = Clydesdale::new(dfs, layout).with_obs(Arc::clone(&obs));
    if let Some(t) = host_threads {
        clyde = clyde.with_host_threads(t);
    }
    clyde.warm_dimension_cache()?;
    let r = clyde.query(query)?;
    Ok(Artifacts {
        results: clyde_common::rowcodec::write_rows(&r.rows),
        trace: obs.chrome_trace(),
        metrics: filter_wall(&obs.metrics().snapshot().render()),
    })
}

/// One full replay of the mixed-tenant workload through the multi-job
/// server (fair policy), reduced to the same three artifacts: all served
/// rows in submission order, the trace (solo query spans plus the server
/// run's per-tenant swimlanes), and the metrics snapshot including the
/// `scheduler.*` queue/latency series.
fn run_workload_once(config: &MeasurementConfig, host_threads: Option<u32>) -> Result<Artifacts> {
    let obs = Obs::enabled();
    let clyde =
        workload::build_clyde(config.sf, config.seed, Some(Arc::clone(&obs)), host_threads)?;
    let arrivals = workload::scenario(config.seed);
    let run = workload::run_policy(&clyde, &arrivals, SchedPolicy::Fair)?;
    let mut results = Vec::new();
    for s in &run.served {
        results.extend_from_slice(&clyde_common::rowcodec::write_rows(&s.rows));
    }
    Ok(Artifacts {
        results,
        trace: obs.chrome_trace(),
        metrics: filter_wall(&obs.metrics().snapshot().render()),
    })
}

/// One cold-then-warm replay against the result cache, reduced to the
/// same three artifacts: all served rows (cold pass then warm pass, in
/// submission order), the trace (including the served-from-cache spans),
/// and the metrics snapshot including the `cache.*` series.
fn run_restore_once(config: &MeasurementConfig, host_threads: Option<u32>) -> Result<Artifacts> {
    let obs = Obs::enabled();
    let report = restore::run(config.sf, config.seed, Some(Arc::clone(&obs)), host_threads)?;
    let mut results = Vec::new();
    for s in report.cold.run.served.iter().chain(&report.warm.run.served) {
        results.extend_from_slice(&clyde_common::rowcodec::write_rows(&s.rows));
    }
    Ok(Artifacts {
        results,
        trace: obs.chrome_trace(),
        metrics: filter_wall(&obs.metrics().snapshot().render()),
    })
}

/// Compare `got` against `want`; report which artifact diverged.
fn diff(label: &str, want: &Artifacts, got: &Artifacts) -> bool {
    let mut ok = true;
    if want.results != got.results {
        eprintln!("shadow_check: FAIL [{label}]: result rows diverged");
        ok = false;
    }
    if want.trace != got.trace {
        let at = want
            .trace
            .lines()
            .zip(got.trace.lines())
            .position(|(a, b)| a != b);
        eprintln!(
            "shadow_check: FAIL [{label}]: simulated-time trace diverged \
             (first differing line: {at:?})"
        );
        ok = false;
    }
    if want.metrics != got.metrics {
        eprintln!("shadow_check: FAIL [{label}]: metric snapshot diverged");
        for (a, b) in want.metrics.lines().zip(got.metrics.lines()) {
            if a != b {
                eprintln!("  baseline: {a}\n  shadow:   {b}");
            }
        }
        ok = false;
    }
    ok
}

/// Host thread counts to force through `MtMapRunner`. The cost model prices
/// with the cluster's map slots regardless, so artifacts must not move.
const THREAD_COUNTS: [u32; 3] = [1, 2, 8];

/// One subject's sweep: a baseline run, then an identical rerun on fresh
/// state (the dual run — catches anything seeded from ambient state), then
/// one run per forced host thread count (real parallelism must not be
/// observable). Every run must reproduce the baseline's artifacts byte for
/// byte; returns whether all of them did.
fn sweep(label: &str, run: impl Fn(Option<u32>) -> Result<Artifacts>) -> bool {
    let baseline = match run(None) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shadow_check: {label} baseline run failed: {e}");
            return false;
        }
    };
    let mut ok = true;
    for threads in std::iter::once(None).chain(THREAD_COUNTS.map(Some)) {
        let forced = threads.map(|t| format!("host-threads={t}"));
        // The unforced rerun goes by a different name in each message.
        let name = |rerun: &'static str| forced.as_deref().unwrap_or(rerun);
        match run(threads) {
            Ok(shadow) if diff(&format!("{label} {}", name("rerun")), &baseline, &shadow) => {
                println!(
                    "shadow_check: OK {label}: {} byte-identical",
                    name("dual run")
                );
            }
            Ok(_) => ok = false,
            Err(e) => {
                eprintln!("shadow_check: {label} {} run failed: {e}", name("shadow"));
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = cli::parse(
        "usage: shadow_check [measurement-sf] [--seed <n>] [--queries <id,id,...>] \
         [--workload] [--restore]",
        &["--seed", "--queries"],
        &["--workload", "--restore"],
    );
    let served = args.has("--workload") || args.has("--restore");
    let config = MeasurementConfig {
        // The served modes replay the full 31-job stream per run; they
        // default to the workload bench's own scale factor.
        sf: args.sf(if served { 0.005 } else { 0.008 }),
        seed: args.parsed("--seed").unwrap_or(46),
        validate: false,
        ..MeasurementConfig::default()
    };
    let (ok, what) = if args.has("--restore") {
        (
            sweep("restore", |t| run_restore_once(&config, t)),
            "cached cold/warm replay byte-identical across reruns and thread counts",
        )
    } else if args.has("--workload") {
        (
            sweep("workload", |t| run_workload_once(&config, t)),
            "concurrent workload byte-identical across reruns and thread counts",
        )
    } else {
        let mut ok = true;
        for id in args.value("--queries").unwrap_or("Q1.1,Q2.1").split(',') {
            let id = id.trim();
            let Ok(query) = query_by_id(id) else {
                args.fail(&format!("unknown query `{id}`"));
            };
            ok &= sweep(id, |t| run_once(&config, &query, t));
        }
        (
            ok,
            "all runs byte-identical across reruns and thread counts",
        )
    };
    if ok {
        println!("shadow_check: OK — {what}");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
