//! Thread-count invariance: the determinism contract the whole repo leans
//! on, asserted end to end.
//!
//! `MtMapRunner` may execute with any number of *host* OS threads — the
//! paper's simulated cluster still has 6 map slots, and the cost model
//! prices with that — so query results, simulated-time spans (as exported
//! Chrome traces), metric snapshots (wall-clock metrics excluded), query
//! profiles, and flamegraphs must be byte-identical for 1, 2, and 8 host
//! threads, and across repeated runs.

use clyde_common::obs::profiles_json;
use clyde_common::{rowcodec, Obs};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::query_by_id;
use clydesdale::{Clydesdale, Features};
use std::sync::Arc;

/// The byte-comparable artifacts of one full Q2.1 execution.
struct Artifacts {
    rows: Vec<u8>,
    trace: String,
    metrics: String,
    profile_json: String,
    flamegraph: String,
}

/// One full Q2.1 execution on a fresh cluster; returns the deterministic
/// artifacts (result bytes, chrome trace, wall-free metrics rendering,
/// profile bundle, collapsed flamegraph).
fn run_q21(host_threads: Option<u32>) -> Artifacts {
    run_q21_with(Features::default(), host_threads)
}

fn run_q21_with(features: Features, host_threads: Option<u32>) -> Artifacts {
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    loader::load(
        &dfs,
        SsbGen::new(0.005, 46),
        &layout,
        &loader::LoadOpts {
            rows_per_group: 2_000,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    let obs = Obs::enabled();
    let mut clyde =
        Clydesdale::with_features(Arc::clone(&dfs), layout, features).with_obs(Arc::clone(&obs));
    if let Some(t) = host_threads {
        clyde = clyde.with_host_threads(t);
    }
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q2.1").unwrap();
    let r = clyde.query(&q).unwrap();
    let metrics: String = obs
        .metrics()
        .snapshot()
        .render()
        .lines()
        .filter(|l| !l.starts_with("mapred.task_wall"))
        .map(|l| format!("{l}\n"))
        .collect();
    Artifacts {
        rows: rowcodec::write_rows(&r.rows),
        trace: obs.chrome_trace(),
        metrics,
        profile_json: obs.with_query_profiles(profiles_json),
        flamegraph: obs.flamegraph(),
    }
}

/// Every artifact byte-identical, with `what` naming the varied setting.
fn assert_identical(a: &Artifacts, b: &Artifacts, what: &str) {
    assert_eq!(a.rows, b.rows, "result rows differ: {what}");
    assert_eq!(a.trace, b.trace, "simulated-time spans differ: {what}");
    assert_eq!(a.metrics, b.metrics, "metric snapshots differ: {what}");
    assert_eq!(
        a.profile_json, b.profile_json,
        "query profiles differ: {what}"
    );
    assert_eq!(a.flamegraph, b.flamegraph, "flamegraphs differ: {what}");
}

#[test]
fn q21_invariant_across_host_thread_counts() {
    let a = run_q21(None);
    assert!(!a.rows.is_empty());
    assert!(a.trace.contains("traceEvents"));
    assert!(a.metrics.contains("mapred.map_tasks"));
    assert!(a.profile_json.contains("\"format\":\"clyde-profiles\""));
    assert!(a.flamegraph.contains("map"));
    for t in [1u32, 2, 8] {
        assert_identical(&a, &run_q21(Some(t)), &format!("{t} host threads"));
    }
}

/// The `floatorder` pragmas in `crates/core/src/mtrunner.rs` rest on one
/// claim: thread partials merge in ascending first-morsel order (the runner
/// sorts them before folding), so the fold sequence is a function of the
/// input alone, never of thread scheduling. One host thread *is* input
/// order; odd thread counts tile the morsels unevenly and would expose any
/// schedule-order merge. Byte-compare them.
#[test]
fn merge_order_is_input_order_not_schedule_order() {
    let reference = run_q21(Some(1));
    for t in [3u32, 5, 13] {
        let b = run_q21(Some(t));
        assert_eq!(
            reference.rows, b.rows,
            "merge order leaked into results at {t} threads"
        );
        assert_eq!(
            reference.profile_json, b.profile_json,
            "merge order leaked into profiles at {t} threads"
        );
    }
}

/// Block iteration ablated: the input hands back row readers, so the runner
/// gives whole parts (not blocks) to its threads — the only user of that
/// grain. Same contract: nothing observable depends on the thread count.
#[test]
fn row_reader_path_invariant_across_host_thread_counts() {
    let features = Features::without_block_iteration();
    let a = run_q21_with(features, Some(1));
    assert_eq!(
        a.rows,
        run_q21(Some(1)).rows,
        "ablation must not change the answer"
    );
    for t in [2u32, 8] {
        let b = run_q21_with(features, Some(t));
        assert_identical(&a, &b, &format!("row path, {t} host threads"));
    }
}

#[test]
fn q21_dual_run_is_byte_identical() {
    let first = run_q21(None);
    let second = run_q21(None);
    assert_identical(&first, &second, "second run");
}
