//! Mixed-tenant workload replay for the multi-job server.
//!
//! Builds a **seeded** three-tenant stream over the 13 SSB queries and
//! replays it through [`Clydesdale::serve`] under each scheduling policy:
//!
//! * `etl` — a queue-saturating burst: 15 batch queries submitted within
//!   the first ~2.5 s.
//! * `dash` — the full 13-query flight as staggered periodic refreshes,
//!   one every ~10 s after the burst drains.
//! * `adhoc` — small interactive queries arriving *mid-burst*; this is the
//!   tenant FIFO starves and fair scheduling is supposed to rescue.
//!
//! Everything downstream of the submission stream is deterministic
//! simulated time, so per-tenant latency percentiles and throughput are
//! byte-stable across reruns and host thread counts — which is what lets
//! CI gate on them exactly (see [`crate::gate::WORKLOAD`]).

use crate::harness::testbed;
use clyde_common::obs::json::Json;
use clyde_common::{ClydeError, Obs, Result};
use clyde_dfs::ClusterSpec;
use clyde_mapred::fault::mix;
use clyde_mapred::{SchedPolicy, ServerConfig};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::query_by_id;
use clydesdale::{Clydesdale, ServedQuery};
use std::sync::Arc;

/// The full SSB flight, in query-number order.
pub const ALL_QUERIES: [&str; 13] = [
    "Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4", "Q4.1", "Q4.2",
    "Q4.3",
];

/// Tenants in submission-priority order, with their capacity-scheduler
/// weights: interactive tenants are promised the larger share.
pub const TENANTS: [(&str, f64); 3] = [("etl", 1.0), ("dash", 2.0), ("adhoc", 4.0)];

/// One submission of the replayed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub tenant: &'static str,
    pub query_id: &'static str,
    /// Server-clock submission time (seconds).
    pub arrival_s: f64,
}

/// Uniform [0, 1) draw from (seed, stream, index), through the fault
/// injector's seeded mixer — stream keeps the tenants' arrival jitter
/// statistically independent.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    (mix(seed ^ (stream << 32) ^ i) >> 11) as f64 / (1u64 << 53) as f64
}

/// How many batch submissions the etl tenant bursts near t=0. The burst
/// must be deep enough that FIFO's queue wait dominates an interactive
/// job's runtime — with only a few queued jobs, FIFO's natural pipelining
/// is already near-optimal and no policy can beat it.
const ETL_BURST: usize = 15;

/// The seeded mixed-tenant stream: 15 + 13 + 3 = 31 submissions, sorted by
/// arrival time (the server clock is monotone).
pub fn scenario(seed: u64) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    // etl: a deep burst of the non-Q1 flights near t=0.
    for (i, qid) in ALL_QUERIES[3..].iter().cycle().take(ETL_BURST).enumerate() {
        arrivals.push(Arrival {
            tenant: "etl",
            query_id: qid,
            arrival_s: 0.15 * i as f64 + 0.1 * unit(seed, 1, i as u64),
        });
    }
    // dash: the whole flight as staggered periodic refreshes once the
    // burst drains — the uncontended baseline lane of the report.
    for (i, qid) in ALL_QUERIES.iter().enumerate() {
        arrivals.push(Arrival {
            tenant: "dash",
            query_id: qid,
            arrival_s: 50.0 + 10.0 * i as f64 + 3.0 * unit(seed, 2, i as u64),
        });
    }
    // adhoc: small interactive queries landing inside the etl burst —
    // the tenant FIFO starves.
    for (i, qid) in ["Q1.1", "Q1.3", "Q1.2"].iter().enumerate() {
        arrivals.push(Arrival {
            tenant: "adhoc",
            query_id: qid,
            arrival_s: 2.0 + 1.5 * i as f64 + unit(seed, 3, i as u64),
        });
    }
    arrivals.sort_by(|a, b| {
        a.arrival_s
            .total_cmp(&b.arrival_s)
            .then_with(|| a.tenant.cmp(b.tenant))
            .then_with(|| a.query_id.cmp(b.query_id))
    });
    arrivals
}

/// Stand up the workload's simulated cluster (3 nodes, 1 MiB blocks,
/// colocated CIF) with SSB loaded at `sf`, optionally instrumented and
/// with a forced `MtMapRunner` host thread count.
pub fn build_clyde(
    sf: f64,
    seed: u64,
    obs: Option<Arc<Obs>>,
    host_threads: Option<u32>,
) -> Result<Clydesdale> {
    let (dfs, layout) = testbed(
        ClusterSpec::tiny(3),
        1 << 20,
        2,
        SsbGen::new(sf, seed),
        2_000,
        false,
    )?;
    let mut clyde = Clydesdale::new(dfs, layout);
    if let Some(obs) = obs {
        clyde = clyde.with_obs(obs);
    }
    if let Some(t) = host_threads {
        clyde = clyde.with_host_threads(t);
    }
    clyde.warm_dimension_cache()?;
    Ok(clyde)
}

/// Per-tenant latency distribution (nearest-rank percentiles, seconds).
#[derive(Debug, Clone)]
pub struct TenantStats {
    pub tenant: String,
    pub jobs: usize,
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
    pub mean_wait_s: f64,
}

/// One policy's replay of the full stream.
pub struct PolicyRun {
    pub policy: SchedPolicy,
    /// Last finish (including final sorts) on the simulated timeline.
    pub makespan_s: f64,
    pub throughput_jobs_per_min: f64,
    pub tenants: Vec<TenantStats>,
    /// Every served query, in submission order (rows are solo-identical).
    pub served: Vec<ServedQuery>,
}

impl PolicyRun {
    pub fn tenant(&self, name: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.tenant == name)
    }
}

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]).
fn percentile(sample: &[f64], p: f64) -> f64 {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Replay `arrivals` under `policy` on a shared server and roll up
/// per-tenant latency stats. Every submission must be admitted — the
/// scenario is sized inside the queue bound; a rejection is a bug.
pub fn run_policy(
    clyde: &Clydesdale,
    arrivals: &[Arrival],
    policy: SchedPolicy,
) -> Result<PolicyRun> {
    let cfg = ServerConfig {
        policy,
        queue_capacity: 64,
        tenant_quota: 0,
        weights: TENANTS.iter().map(|(t, w)| (t.to_string(), *w)).collect(),
    };
    let mut srv = clyde.serve(cfg);
    for a in arrivals {
        let q = query_by_id(a.query_id)?;
        if let Err(reason) = srv.submit(a.tenant, a.arrival_s, &q)? {
            return Err(ClydeError::MapReduce(format!(
                "workload scenario overflowed admission control: {} {} at {:.2}s: {reason}",
                a.tenant, a.query_id, a.arrival_s
            )));
        }
    }
    let served = srv.drain()?;
    let makespan_s = served.iter().map(|s| s.finish_s).fold(0.0, f64::max);
    let tenants = TENANTS
        .iter()
        .map(|(name, _)| {
            let lat: Vec<f64> = served
                .iter()
                .filter(|s| s.tenant == *name)
                .map(ServedQuery::latency_s)
                .collect();
            let wait: f64 = served
                .iter()
                .filter(|s| s.tenant == *name)
                .map(ServedQuery::wait_s)
                .sum();
            TenantStats {
                tenant: name.to_string(),
                jobs: lat.len(),
                p50_s: percentile(&lat, 50.0),
                p95_s: percentile(&lat, 95.0),
                p99_s: percentile(&lat, 99.0),
                mean_wait_s: wait / (lat.len().max(1)) as f64,
            }
        })
        .collect();
    Ok(PolicyRun {
        policy,
        makespan_s,
        throughput_jobs_per_min: served.len() as f64 * 60.0 / makespan_s.max(1e-9),
        tenants,
        served,
    })
}

/// Human-readable latency report (also the CI artifact).
pub fn render_report(sf: f64, seed: u64, runs: &[PolicyRun]) -> String {
    let mut out = String::new();
    let jobs = runs.first().map_or(0, |r| r.served.len());
    out.push_str(&format!(
        "mixed-tenant workload: {jobs} jobs, {} tenants, SF {sf}, seed {seed}\n\n",
        TENANTS.len()
    ));
    out.push_str(&format!(
        "{:<10} {:>10} {:>9}   {:<7} {:>4} {:>9} {:>9} {:>9} {:>10}\n",
        "policy", "makespan", "jobs/min", "tenant", "jobs", "p50(s)", "p95(s)", "p99(s)", "wait(s)"
    ));
    for r in runs {
        for (i, t) in r.tenants.iter().enumerate() {
            let (mk, tp) = if i == 0 {
                (
                    format!("{:.1}", r.makespan_s),
                    format!("{:.2}", r.throughput_jobs_per_min),
                )
            } else {
                (String::new(), String::new())
            };
            out.push_str(&format!(
                "{:<10} {:>10} {:>9}   {:<7} {:>4} {:>9.2} {:>9.2} {:>9.2} {:>10.2}\n",
                if i == 0 { r.policy.label() } else { "" },
                mk,
                tp,
                t.tenant,
                t.jobs,
                t.p50_s,
                t.p95_s,
                t.p99_s,
                t.mean_wait_s
            ));
        }
    }
    if let (Some(fifo), Some(fair)) = (
        runs.iter().find(|r| r.policy == SchedPolicy::Fifo),
        runs.iter().find(|r| r.policy == SchedPolicy::Fair),
    ) {
        if let (Some(f), Some(a)) = (fifo.tenant("adhoc"), fair.tenant("adhoc")) {
            out.push_str(&format!(
                "\nstarved tenant (adhoc) p99: fifo {:.2}s -> fair {:.2}s ({:.2}x)\n",
                f.p99_s,
                a.p99_s,
                f.p99_s / a.p99_s.max(1e-9)
            ));
        }
    }
    out
}

/// The runs as the committed-gate document (see `BENCH_workload.json`).
pub fn to_json(sf: f64, seed: u64, runs: &[PolicyRun]) -> Json {
    let jobs = runs.first().map_or(0, |r| r.served.len());
    let policy = |r: &PolicyRun| {
        let tenants = r.tenants.iter().map(|t| {
            let stats = Json::obj([
                ("jobs", Json::Num(t.jobs as f64)),
                ("p50_s", Json::fixed(t.p50_s, 2)),
                ("p95_s", Json::fixed(t.p95_s, 2)),
                ("p99_s", Json::fixed(t.p99_s, 2)),
                ("mean_wait_s", Json::fixed(t.mean_wait_s, 2)),
            ]);
            (t.tenant.clone(), stats)
        });
        Json::obj([
            ("makespan_s", Json::fixed(r.makespan_s, 2)),
            (
                "throughput_jobs_per_min",
                Json::fixed(r.throughput_jobs_per_min, 2),
            ),
            ("tenants", Json::obj(tenants)),
        ])
    };
    Json::obj([
        ("sf", Json::Num(sf)),
        ("seed", Json::Num(seed as f64)),
        ("jobs", Json::Num(jobs as f64)),
        (
            "policies",
            Json::obj(runs.iter().map(|r| (r.policy.label(), policy(r)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_seed_deterministic_and_covers_tenants() {
        let a = scenario(46);
        assert_eq!(a, scenario(46));
        assert_ne!(a, scenario(47));
        assert_eq!(a.len(), 31);
        // The dash tenant replays the full SSB flight.
        let mut dash: Vec<&str> = a
            .iter()
            .filter(|x| x.tenant == "dash")
            .map(|x| x.query_id)
            .collect();
        dash.sort_unstable();
        let mut all = ALL_QUERIES.to_vec();
        all.sort_unstable();
        assert_eq!(dash, all);
        for (tenant, _) in TENANTS {
            assert!(a.iter().any(|x| x.tenant == tenant));
        }
        // Monotone arrivals: the server clock never runs backwards.
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // adhoc lands inside the etl burst window, not after it drains.
        let adhoc_first = a
            .iter()
            .find(|x| x.tenant == "adhoc")
            .map(|x| x.arrival_s)
            .unwrap();
        assert!(adhoc_first < 10.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 95.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
