//! Job-server end-to-end: admission control is deterministic, quotas hold,
//! each rejection is counted by its kind, served queries answer bit-for-bit
//! like solo runs (down to the final-sort span on the job's trace track),
//! a served job's cost is the span its served schedule gave it, a cached
//! result is served only once its producer has finished in simulated time,
//! and a submission that cannot fit in memory fails its drain without
//! harming the next. That the multi-job schedule is byte-identical across
//! reruns and host thread counts is `tests/determinism.rs`'s served-workload
//! scenario.

use clyde_common::obs::{Span, SpanKind};
use clyde_common::Obs;
use clyde_common::{row, Datum};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_mapred::cost::CACHED_READ_OVERHEAD_S;
use clyde_mapred::formats::VecInputFormat;
use clyde_mapred::{
    Engine, FnMapRunner, JobServer, JobSpec, MapTaskContext, RejectReason, SchedPolicy,
    ServerConfig,
};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::StarQuery;
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
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    layout
}

fn config(policy: SchedPolicy, queue_capacity: usize, tenant_quota: usize) -> ServerConfig {
    ServerConfig {
        policy,
        queue_capacity,
        tenant_quota,
        weights: Vec::new(),
    }
}

#[test]
fn bounded_queue_rejects_overload_deterministically() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q1.1").unwrap();

    let run = || {
        let mut srv = clyde.serve(config(SchedPolicy::Fair, 3, 0));
        let mut outcomes = Vec::new();
        for i in 0..5 {
            outcomes.push(srv.submit("etl", i as f64, &q).unwrap());
        }
        let served = srv.drain().unwrap();
        (outcomes, served.len())
    };

    let (outcomes, served) = run();
    assert_eq!(served, 3);
    assert!(outcomes[..3].iter().all(|o| o.is_ok()));
    for o in &outcomes[3..] {
        assert_eq!(
            o.clone().unwrap_err(),
            RejectReason::QueueFull { capacity: 3 }
        );
    }
    // Each rejection is counted by its kind.
    let summary = obs.summary();
    assert!(
        summary.contains("scheduler.jobs_rejected_queue_full = 2"),
        "{summary}"
    );
    assert!(
        !summary.contains("scheduler.jobs_rejected_quota"),
        "{summary}"
    );
    // Overload handling depends only on the submission stream.
    let (outcomes2, served2) = run();
    assert_eq!(outcomes, outcomes2);
    assert_eq!(served, served2);

    // The window clears on drain: the same tenant is admitted again.
    let mut srv = clyde.serve(config(SchedPolicy::Fair, 3, 0));
    for i in 0..5 {
        let _ = srv.submit("etl", i as f64, &q).unwrap();
    }
    srv.drain().unwrap();
    assert!(srv.submit("etl", 10.0, &q).unwrap().is_ok());
}

#[test]
fn per_tenant_quota_is_enforced() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q1.2").unwrap();

    let mut srv = clyde.serve(config(SchedPolicy::Fair, 16, 2));
    assert!(srv.submit("etl", 0.0, &q).unwrap().is_ok());
    assert!(srv.submit("etl", 0.5, &q).unwrap().is_ok());
    assert_eq!(
        srv.submit("etl", 1.0, &q).unwrap().unwrap_err(),
        RejectReason::TenantQuota { quota: 2 }
    );
    // Another tenant is unaffected by etl's quota.
    assert!(srv.submit("dash", 1.5, &q).unwrap().is_ok());
    let served = srv.drain().unwrap();
    let tenants: Vec<&str> = served.iter().map(|s| s.tenant.as_str()).collect();
    assert_eq!(tenants, vec!["etl", "etl", "dash"]);
    // The rejection shows up in the drain's swimlane report.
    obs.with_server_runs(|rs| {
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].rejected.len(), 1);
        assert_eq!(rs[0].rejected[0].tenant, "etl");
        assert!(rs[0].rejected[0].reason.contains("quota"));
    });
    let summary = obs.summary();
    assert!(summary.contains("REJECTED"));
    assert!(summary.contains("scheduler.jobs_admitted = 3"));
    assert!(summary.contains("scheduler.jobs_rejected_quota = 1"));
    assert!(!summary.contains("scheduler.jobs_rejected_queue_full"));
}

/// ReStore's rule on the shared clock: a cached result becomes visible when
/// its producer finishes in simulated time. A twin that arrives while the
/// producer still runs recomputes; one that arrives after it finished is
/// served from the cache.
#[test]
fn a_cached_result_is_served_only_after_its_producer_finishes() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let (q11, q12) = (query_by_id("Q1.1").unwrap(), query_by_id("Q1.2").unwrap());
    // Q1.2 alone on the cluster, priced before the cache is on.
    let alone_s = clyde.query(&q12).unwrap().cost.total_s();
    dfs.cache_configure(64 << 20);
    let twins = |q: &StarQuery, second_s: f64| {
        let before = dfs.cache_stats();
        let mut srv = clyde.serve(config(SchedPolicy::Fair, 16, 0));
        for (tenant, arrival_s) in [("etl", 0.0), ("dash", second_s)] {
            assert!(srv.submit(tenant, arrival_s, q).unwrap().is_ok());
        }
        let served = srv.drain().unwrap();
        let delta = dfs.cache_stats().delta_since(&before);
        (served, delta.hits, delta.misses)
    };

    // 0.1 s apart, the producer is still running: miss, miss, and the twin
    // is priced as the full run it was, not as a cached read.
    let (served, hits, misses) = twins(&q11, 0.1);
    assert_eq!((hits, misses), (0, 2));
    assert_eq!(served[1].rows, served[0].rows);
    assert!(served[1].cost.total_s() > 10.0 * CACHED_READ_OVERHEAD_S);
    // The twins contend for slots, and each one's cost is the span its
    // served schedule gives it — the schedule its published history draws.
    assert!(served[1].finish_s - served[1].arrival_s > served[0].finish_s - served[0].arrival_s);
    let drawn: Vec<f64> =
        obs.with_histories(|hs| hs.iter().rev().take(2).rev().map(|h| h.total_s()).collect());
    for (s, history_s) in served.iter().zip(drawn) {
        let span_s = s.finish_s - s.final_sort_s - s.arrival_s;
        assert!(
            (s.cost.total_s() - span_s).abs() <= 1e-9 * span_s,
            "{}: cost {} vs served span {span_s}",
            s.tenant,
            s.cost.total_s()
        );
        assert_eq!(s.cost.total_s(), history_s, "{}", s.tenant);
    }

    // After the producer's scheduled finish: miss, hit.
    let (served, hits, misses) = twins(&q12, alone_s + 1.0);
    assert!(served[0].finish_s - served[0].final_sort_s <= served[1].arrival_s);
    assert_eq!((hits, misses), (1, 1));
    assert_eq!(served[1].rows, served[0].rows);
    assert!(served[1].profile.map_tasks.is_empty(), "a cached read");
    assert!(served[1].cost.total_s() < 2.0 * CACHED_READ_OVERHEAD_S);
}

#[test]
fn served_queries_answer_bit_for_bit_like_solo_runs() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let ids = ["Q1.1", "Q2.1", "Q3.1", "Q4.1"];
    let solo: Vec<_> = ids
        .iter()
        .map(|id| clyde.query(&query_by_id(id).unwrap()).unwrap().rows)
        .collect();

    for policy in SchedPolicy::all() {
        let mut srv = clyde.serve(config(policy, 16, 0));
        for (i, id) in ids.iter().enumerate() {
            let tenant = if i % 2 == 0 { "etl" } else { "dash" };
            assert!(srv
                .submit(tenant, 0.5 * i as f64, &query_by_id(id).unwrap())
                .unwrap()
                .is_ok());
        }
        let served = srv.drain().unwrap();
        assert_eq!(served.len(), ids.len());
        for (i, s) in served.iter().enumerate() {
            assert_eq!(s.query_id, ids[i]);
            assert_eq!(
                s.rows, solo[i],
                "{} under {:?} must answer exactly like its solo run",
                ids[i], policy
            );
            assert!(s.arrival_s <= s.start_s && s.start_s < s.finish_s);
            assert!(s.final_sort_s > 0.0);
        }
    }
}

/// The one job span and the one `final-sort` span a hub recorded.
fn job_and_final_sort(obs: &Obs) -> (Span, Span) {
    let spans = obs.spans().spans();
    let one = |pick: &dyn Fn(&Span) -> bool| {
        let found: Vec<&Span> = spans.iter().filter(|s| pick(s)).collect();
        assert_eq!(found.len(), 1, "{found:?}");
        found[0].clone()
    };
    (
        one(&|s| s.kind == SpanKind::Job),
        one(&|s| s.name == "final-sort"),
    )
}

#[test]
fn a_query_served_alone_traces_its_final_sort_like_a_solo_run() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let q = query_by_id("Q2.1").unwrap();

    let solo_obs = Obs::enabled();
    Clydesdale::new(Arc::clone(&dfs), layout.clone())
        .with_obs(Arc::clone(&solo_obs))
        .query(&q)
        .unwrap();
    let (_, solo_sort) = job_and_final_sort(&solo_obs);

    let obs = Obs::enabled();
    let clyde = Clydesdale::new(dfs, layout).with_obs(Arc::clone(&obs));
    let mut srv = clyde.serve(config(SchedPolicy::Fifo, 4, 0));
    assert!(srv.submit("etl", 0.0, &q).unwrap().is_ok());
    let served = srv.drain().unwrap();
    let (job, sort) = job_and_final_sort(&obs);
    // On the job's own track, from the job's end, as long as the solo sort.
    assert_eq!((sort.pid, sort.tid), (job.pid, 0));
    assert_eq!(sort.ts_us, job.end_us());
    assert_eq!(sort.dur_us, solo_sort.dur_us);
    assert!(sort.dur_us > 0);
    assert_eq!(sort.args, solo_sort.args);
    assert_eq!(
        sort.args,
        vec![("rows".to_string(), served[0].rows.len().to_string())]
    );
}

#[test]
fn fair_scheduling_beats_fifo_for_the_starved_tenant() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let big = query_by_id("Q2.1").unwrap();
    let small = query_by_id("Q1.1").unwrap();

    let adhoc_latency = |policy: SchedPolicy| -> f64 {
        let mut srv = clyde.serve(config(policy, 16, 0));
        // A queue-saturating burst of batch queries, then one interactive
        // query mid-burst. (The burst must be deep enough that FIFO's queue
        // wait dominates the small job's runtime — with only a few queued
        // jobs, FIFO's natural pipelining is already near-optimal.)
        for i in 0..10 {
            assert!(srv.submit("etl", 0.1 * i as f64, &big).unwrap().is_ok());
        }
        assert!(srv.submit("adhoc", 2.0, &small).unwrap().is_ok());
        let served = srv.drain().unwrap();
        served
            .iter()
            .find(|s| s.tenant == "adhoc")
            .expect("adhoc was admitted")
            .latency_s()
    };

    let fifo = adhoc_latency(SchedPolicy::Fifo);
    let fair = adhoc_latency(SchedPolicy::Fair);
    assert!(
        fair < fifo,
        "fair must improve the starved tenant's latency: fair {fair:.1}s !< fifo {fifo:.1}s"
    );
}

/// A submission whose per-slot memory cannot fit on a node fails its drain
/// with `OutOfMemory`, and the server's engine serves the next drain as if
/// nothing had happened.
#[test]
fn an_oversized_submission_fails_its_drain_and_the_next_drain_runs() {
    let engine = Engine::new(Dfs::for_tests(2));
    let node_memory = engine.dfs().cluster().node.memory_bytes;
    let job = |name: &str, per_slot: u64| {
        let runner = FnMapRunner(move |ctx: &MapTaskContext<'_>| {
            // Recorded as what every slot would duplicate, not charged: the
            // task runs, and only the job's memory check can refuse it.
            ctx.ledger.note_per_slot(per_slot);
            ctx.emit(&[Datum::I64(1)], &[Datum::I64(2)]);
            Ok(())
        });
        let input = VecInputFormat::new(vec![row![1i64], row![2i64]], 2);
        JobSpec::new(name, Arc::new(input), Arc::new(runner))
    };
    let mut srv = JobServer::new(&engine, config(SchedPolicy::Fair, 4, 0));
    assert!(srv.submit("etl", 0.0, job("fits", 0)).is_ok());
    assert!(srv
        .submit("etl", 1.0, job("oversized", node_memory + 1))
        .is_ok());
    let err = srv
        .drain()
        .err()
        .expect("the oversized job cannot be placed");
    assert!(err.is_oom(), "{err}");

    assert!(srv.submit("etl", 2.0, job("fits", 0)).is_ok());
    let served = srv.drain().unwrap();
    assert_eq!(served.len(), 1);
    let alone = engine.run_job(&job("fits", 0)).unwrap();
    assert_eq!(served[0].result.rows, alone.rows);
    assert_eq!(served[0].result.cost, alone.cost);
    assert_eq!(served[0].lane.arrival_s, 2.0);
    let span_s = served[0].lane.finish_s - served[0].lane.arrival_s;
    assert!((span_s - alone.cost.total_s()).abs() <= 1e-9 * span_s);
}
