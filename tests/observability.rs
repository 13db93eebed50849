//! Observability end-to-end: results are unaffected by recording, and the
//! span/metrics view agrees with the profiles the engines already report.
//! That traces are deterministic is `tests/determinism.rs`.

use clyde_common::obs::{SpanKind, TaskKind};
use clyde_common::Obs;
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::query_by_id;
use clydesdale::Clydesdale;
use std::sync::Arc;

fn cluster(n: usize) -> Arc<Dfs> {
    Dfs::new(
        ClusterSpec::tiny(n),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    )
}

fn load(dfs: &Arc<Dfs>, sf: f64) -> SsbLayout {
    let layout = SsbLayout::default();
    loader::load(
        dfs,
        SsbGen::new(sf, 46),
        &layout,
        &loader::LoadOpts {
            rows_per_group: 2_000,
            cif: true,
            rcfile: true,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    layout
}

/// Recording must never change query answers.
#[test]
fn results_identical_with_observability_on_and_off() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let plain = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    let traced = Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_obs(Obs::enabled());
    plain.warm_dimension_cache().unwrap();
    traced.warm_dimension_cache().unwrap();
    let q = query_by_id("Q2.1").unwrap();
    assert_eq!(
        plain.query(&q).unwrap().rows,
        traced.query(&q).unwrap().rows
    );

    let hive_plain = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin);
    let hive_traced =
        Hive::new(Arc::clone(&dfs), layout, JoinStrategy::MapJoin).with_obs(Obs::enabled());
    assert_eq!(
        hive_plain.query(&q).unwrap().rows,
        hive_traced.query(&q).unwrap().rows
    );
}

/// The recorded history and metrics agree with the engine's own profile:
/// one history per job, task lanes matching the task count, and the unified
/// counters reflecting what actually ran.
#[test]
fn histories_and_metrics_mirror_the_job() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q2.1").unwrap();
    let result = clyde.query(&q).unwrap();

    obs.with_histories(|hs| {
        assert_eq!(hs.len(), 1);
        let h = &hs[0];
        assert_eq!(h.lanes(TaskKind::Map).len(), result.profile.map_tasks.len());
        assert_eq!(
            h.lanes(TaskKind::Reduce).len(),
            result.profile.reduce_tasks.len()
        );
        let st = h.stragglers(TaskKind::Map).unwrap();
        assert!(st.max_s >= st.median_s && st.median_s > 0.0);
        // Simulated history time matches the priced job total.
        assert!((h.total_s() - result.cost.total_s()).abs() < 1e-9);
        // Wall clocks were captured (obs on) but stay out of the trace.
        assert!(h.total_wall_ns() > 0);
    });

    let snap = obs.metrics().snapshot();
    assert_eq!(snap.counter("mapred.jobs"), Some(1));
    assert_eq!(snap.counter("mapred.queries"), Some(1));
    assert_eq!(
        snap.counter("mapred.map_tasks"),
        Some(result.profile.map_tasks.len() as u64)
    );
    assert_eq!(
        snap.counter("mapred.emit.records"),
        Some(result.profile.total_map_cost().emit_records)
    );
    // DFS scope delta fed the registry: the scan moved real bytes.
    let read = snap.counter("dfs.io.local_read_bytes").unwrap_or(0)
        + snap.counter("dfs.io.remote_read_bytes").unwrap_or(0);
    assert!(read > 0);

    // The job span tree is present: one process, a job root, task lanes.
    let spans = obs.spans().spans();
    let jobs = spans.iter().filter(|s| s.kind == SpanKind::Job).count();
    let tasks = spans.iter().filter(|s| s.kind == SpanKind::Task).count();
    assert_eq!(jobs, 1);
    assert_eq!(
        tasks,
        result.profile.map_tasks.len() + result.profile.reduce_tasks.len()
    );

    // Reset gives a clean slate for the next bench iteration.
    obs.reset();
    obs.with_histories(|hs| assert!(hs.is_empty()));
    assert!(obs.metrics().snapshot().entries.is_empty());
    obs.with_query_profiles(|ps| assert!(ps.is_empty()));
}

/// `explain_analyze` returns a per-stage/per-phase profile that accounts
/// for the whole simulated makespan, carries the DFS I/O snapshot, and
/// keeps wall time out of the JSON artifact.
#[test]
fn explain_analyze_profiles_the_query() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q2.1").unwrap();
    let (result, profile) = clyde.explain_analyze(&q).unwrap();

    assert_eq!(profile.query, "Q2.1");
    assert_eq!(profile.jobs.len(), 1);
    let job = &profile.jobs[0];
    assert_eq!(job.map_tasks, result.profile.map_tasks.len());
    assert_eq!(job.reduce_tasks, result.profile.reduce_tasks.len());
    // Stage rows decompose the job's simulated total exactly.
    let stage_sum: f64 = job.stages.iter().map(|s| s.sim_s).sum();
    assert!((stage_sum - job.sim_total_s).abs() < 1e-6);
    assert!((profile.total_s - (job.sim_total_s + profile.final_sort_s)).abs() < 1e-9);
    // Wall measurements rode along for calibration...
    assert!(job.wall_total_ns > 0);
    assert!(job.phases.iter().any(|p| p.drift_pct.is_some()));
    // ...and the DFS per-node I/O snapshot made it into the profile.
    assert!(!profile.io.is_empty());
    assert!(profile.io.iter().map(|io| io.read()).sum::<u64>() > 0);

    // Human rendering carries the calibration verdict; the JSON artifact is
    // sim-only so it can be byte-compared across runs.
    let text = profile.render();
    assert!(text.contains("explain analyze Q2.1"));
    assert!(text.contains("calibration:"));
    assert!(!profile.to_json().contains("wall"));

    // The same profile was recorded on the hub for harness export.
    obs.with_query_profiles(|ps| {
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].query, "Q2.1");
    });

    // Without observability the engine refuses rather than guessing.
    let dfs2 = cluster(3);
    let layout2 = load(&dfs2, 0.005);
    let plain = Clydesdale::new(Arc::clone(&dfs2), layout2);
    plain.warm_dimension_cache().unwrap();
    assert!(plain.explain_analyze(&q).is_err());
}
