//! Determinism: the contract the whole repo leans on, asserted end to end
//! in one table-driven harness.
//!
//! `MtMapRunner` may execute with any number of *host* OS threads — the
//! simulated cluster keeps its map slots, and the cost model prices with
//! those — so nothing a run reports may depend on the host thread count or
//! on ambient process state. Each scenario below (solo Clydesdale queries,
//! the row-reader path, both Hive plans, the served mixed-tenant workload
//! and the cached cold/warm replay) runs once as a baseline on a fresh
//! cluster, then once per variation: a fresh rerun (`None`) and forced host
//! thread counts. Every run must reproduce the baseline's result rows,
//! Chrome trace, metrics snapshot, query profiles, flamegraph and server
//! runs byte for byte; a failure names the artifact and its first
//! differing line. The metrics snapshot is simulated-only by construction
//! (clyde-lint's D008 keeps wall readings out of it), so nothing is
//! filtered before comparing.

use clyde_bench::harness::MeasurementConfig;
use clyde_bench::{restore, workload};
use clyde_common::obs::profiles_json;
use clyde_common::{rowcodec, Obs, Row};
use clyde_dfs::Dfs;
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::SchedPolicy;
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::query_by_id;
use clydesdale::{Clydesdale, Features, ServedQuery};
use std::sync::Arc;

/// Everything one run leaves behind, each artifact as comparable text.
struct Artifacts {
    /// One line per result set: its label and its rowcodec bytes in hex.
    rows: String,
    trace: String,
    metrics: String,
    profiles: String,
    flamegraph: String,
    /// One `ServerRun::to_json` per line, in drain order.
    server_runs: String,
}

impl Artifacts {
    fn capture(obs: &Obs, rows: String) -> Artifacts {
        Artifacts {
            rows,
            trace: obs.chrome_trace(),
            metrics: obs.metrics().snapshot().render(),
            profiles: obs.with_query_profiles(profiles_json),
            flamegraph: obs.flamegraph(),
            server_runs: obs.with_server_runs(|rs| rs.iter().map(|r| r.to_json() + "\n").collect()),
        }
    }

    fn named(&self) -> [(&'static str, &str); 6] {
        [
            ("result rows", &self.rows),
            ("chrome trace", &self.trace),
            ("metrics snapshot", &self.metrics),
            ("query profiles", &self.profiles),
            ("flamegraph", &self.flamegraph),
            ("server runs", &self.server_runs),
        ]
    }
}

/// One line per result set: `label hex(rowcodec bytes)`.
fn row_line(label: &str, rows: &[Row]) -> String {
    let hex: String = rowcodec::write_rows(rows)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("{label} {hex}\n")
}

fn served_lines(served: &[ServedQuery]) -> String {
    served
        .iter()
        .map(|s| row_line(&format!("{}:{}", s.tenant, s.query_id), &s.rows))
        .collect()
}

/// A scenario: a name, and one end-to-end run on a fresh cluster under an
/// optionally forced `MtMapRunner` host thread count.
struct Scenario {
    name: &'static str,
    run: fn(Option<u32>) -> Artifacts,
}

/// A fresh rerun, then host threads 1, 2 and 8.
const SWEEP: [Option<u32>; 4] = [None, Some(1), Some(2), Some(8)];

/// Odd host thread counts tile the morsels unevenly across threads.
const MERGE_ORDER: [Option<u32>; 3] = [Some(3), Some(5), Some(13)];

const Q11: Scenario = Scenario {
    name: "Clydesdale Q1.1",
    run: |t| clydesdale("Q1.1", Features::default(), t),
};

const Q21: Scenario = Scenario {
    name: "Clydesdale Q2.1",
    run: |t| clydesdale("Q2.1", Features::default(), t),
};

const Q21_ROW_READER: Scenario = Scenario {
    name: "Clydesdale Q2.1, block iteration off",
    run: |t| clydesdale("Q2.1", Features::without_block_iteration(), t),
};

const HIVE_Q21: Scenario = Scenario {
    name: "Hive Q2.1, mapjoin then repartition",
    run: hive_q21,
};

const SERVED_WORKLOAD: Scenario = Scenario {
    name: "served workload, fair policy",
    run: served_workload,
};

const CACHED_RESTORE: Scenario = Scenario {
    name: "cached cold/warm replay",
    run: cached_restore,
};

/// The solo scenarios' cluster: cluster A's node shape (6 map slots, so an
/// unforced run uses 6 host threads), 4 workers, SF 0.008, 8 MiB blocks.
fn solo_testbed(rcfile: bool) -> (Arc<Dfs>, SsbLayout) {
    MeasurementConfig {
        sf: 0.008,
        ..MeasurementConfig::default()
    }
    .testbed(2, rcfile)
    .unwrap()
}

fn clydesdale(id: &str, features: Features, host_threads: Option<u32>) -> Artifacts {
    let (dfs, layout) = solo_testbed(false);
    let obs = Obs::enabled();
    let mut clyde = Clydesdale::with_features(dfs, layout, features).with_obs(Arc::clone(&obs));
    if let Some(t) = host_threads {
        clyde = clyde.with_host_threads(t);
    }
    clyde.warm_dimension_cache().unwrap();
    let r = clyde.query(&query_by_id(id).unwrap()).unwrap();
    Artifacts::capture(&obs, row_line(id, &r.rows))
}

/// Both Hive plans of Q2.1 on one cluster and one hub. Hive sets no host
/// thread count, so this scenario has only the rerun variation.
fn hive_q21(host_threads: Option<u32>) -> Artifacts {
    assert_eq!(host_threads, None, "Hive has no host thread knob");
    let (dfs, layout) = solo_testbed(true);
    let obs = Obs::enabled();
    let q = query_by_id("Q2.1").unwrap();
    let (mut rows, mut stages) = (String::new(), 0);
    for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy).with_obs(Arc::clone(&obs));
        let r = hive.query(&q).unwrap();
        rows += &row_line(strategy.label(), &r.rows);
        stages += r.stages.len();
    }
    let a = Artifacts::capture(&obs, rows);
    let jobs = a.trace.matches(r#""cat":"job""#).count();
    assert_eq!(jobs, stages, "the trace holds one job per Hive stage");
    a
}

/// `clyde_bench::workload`'s seeded 31-job mixed-tenant stream through the
/// job server under fair scheduling.
fn served_workload(host_threads: Option<u32>) -> Artifacts {
    let obs = Obs::enabled();
    let clyde = workload::build_clyde(0.005, 46, Some(Arc::clone(&obs)), host_threads).unwrap();
    let run = workload::run_policy(&clyde, &workload::scenario(46), SchedPolicy::Fair).unwrap();
    Artifacts::capture(&obs, served_lines(&run.served))
}

/// `clyde_bench::restore`'s compressed stream, cold then warm, with the
/// result cache on.
fn cached_restore(host_threads: Option<u32>) -> Artifacts {
    let obs = Obs::enabled();
    let report = restore::run(0.005, 46, Some(Arc::clone(&obs)), host_threads).unwrap();
    assert!(
        report.warm.stats.hits > 0,
        "the warm pass must be served from the cache"
    );
    let rows = served_lines(&report.cold.run.served) + &served_lines(&report.warm.run.served);
    Artifacts::capture(&obs, rows)
}

/// Where two texts first differ, as a 1-based line number and both lines.
fn first_difference(want: &str, got: &str) -> String {
    let (mut w, mut g) = (want.lines(), got.lines());
    for line in 1.. {
        match (w.next(), g.next()) {
            (None, None) => break,
            (a, b) if a != b => {
                return format!("line {line}:\n  baseline: {a:?}\n  this run: {b:?}")
            }
            _ => {}
        }
    }
    "only in line endings".to_string()
}

/// Run `scenario` as a baseline, then once per variation (`None` is a fresh
/// rerun, `Some(t)` forces `t` host threads), requiring every artifact of
/// every run byte-identical to the baseline's. Returns the baseline.
fn sweep(scenario: &Scenario, variations: &[Option<u32>]) -> Artifacts {
    let baseline = (scenario.run)(None);
    for &threads in variations {
        let run = (scenario.run)(threads);
        let what = threads.map_or("a rerun".to_string(), |t| format!("host threads = {t}"));
        for ((name, want), (_, got)) in baseline.named().into_iter().zip(run.named()) {
            assert!(
                want == got,
                "{}: {name} differs under {what} at {}",
                scenario.name,
                first_difference(want, got)
            );
        }
    }
    baseline
}

/// A solo Clydesdale baseline produced every artifact it is compared on.
fn assert_solo_artifacts(a: &Artifacts) {
    assert!(!a.rows.is_empty());
    assert!(a.trace.contains("\"traceEvents\""));
    assert!(a.trace.contains("final-sort"));
    assert!(a.metrics.contains("mapred.map_tasks"));
    assert!(a.profiles.contains("\"format\":\"clyde-profiles\""));
    assert!(a.flamegraph.contains("map"));
}

#[test]
fn q11_invariant_across_host_thread_counts() {
    assert_solo_artifacts(&sweep(&Q11, &SWEEP));
}

#[test]
fn q21_invariant_across_host_thread_counts() {
    assert_solo_artifacts(&sweep(&Q21, &SWEEP));
}

/// Two unforced runs of Q2.1, nothing varied but the fresh cluster.
#[test]
fn q21_dual_run_is_byte_identical() {
    assert_solo_artifacts(&sweep(&Q21, &[None]));
}

/// The `floatorder` pragma in `crates/core/src/mtrunner.rs`: every fold is
/// an exact `i64` fold and thread partials merge in ascending first-morsel
/// order, so neither how morsels fall to threads nor the merge order may
/// show in any artifact. Morsels are handed out dynamically, so a partial's
/// contents are a race: an order-sensitive merge fails here whether or not
/// the partials are sorted, and with the real folds a schedule-order merge
/// is invisible by design.
#[test]
fn merge_order_is_input_order_not_schedule_order() {
    for scenario in [&Q11, &Q21] {
        sweep(scenario, &MERGE_ORDER);
    }
}

/// Block iteration ablated: the input hands back row readers, so the runner
/// gives whole parts (not row ranges) to its threads — the only user of
/// that grain.
#[test]
fn row_reader_path_invariant_across_host_thread_counts() {
    assert_solo_artifacts(&sweep(&Q21_ROW_READER, &SWEEP));
}

#[test]
fn hive_q21_dual_run_is_byte_identical() {
    let a = sweep(&HIVE_Q21, &[None]);
    assert!(a.metrics.contains("mapred.map_tasks"));
}

#[test]
fn served_workload_invariant_across_host_thread_counts() {
    let a = sweep(&SERVED_WORKLOAD, &SWEEP);
    assert!(a.metrics.contains("scheduler.jobs_admitted"));
    assert!(a.server_runs.contains("\"policy\":\"fair\""));
}

#[test]
fn cached_restore_invariant_across_host_thread_counts() {
    let a = sweep(&CACHED_RESTORE, &SWEEP);
    assert!(a.metrics.contains("cache.hits"));
}
