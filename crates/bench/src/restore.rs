//! Cold-then-warm replay of the mixed-tenant workload against the
//! ReStore-style result cache.
//!
//! The seeded stream of [`crate::workload`] is **arrival-dominated**: its
//! 186 s cold makespan is mostly submission spacing (the dash tenant
//! staggers refreshes 10 s apart), which would hide any engine-side win.
//! Throughput here must measure the engine, not the submission schedule,
//! so the restore bench replays the *same* seeded stream with arrival
//! times compressed [`COMPRESSION`]× — order, tenancy and contention are
//! preserved, but the server becomes compute-bound and jobs/min compares
//! real work against cached reads.
//!
//! Two passes over one shared cluster:
//!
//! * **cold** — the cache starts empty. Every query computes for real, and
//!   a result becomes visible in the catalog only when its producer
//!   finishes in simulated time. Compressed, the whole stream arrives
//!   within ~2 s while a producer runs for ~13 s or more, so repeated
//!   submissions *within* the stream (the etl burst cycles queries the
//!   dash tenant also refires) miss too: the cold hit rate is 0, reported,
//!   not hidden.
//! * **warm** — the identical stream replayed on the now-populated cache.
//!   Every stage should be a metadata-only cached read.
//!
//! The pass verifies byte-identity (warm rows must equal cold rows,
//! row-for-row) and reports throughput, per-tenant p99 and hit rates; the
//! committed `BENCH_restore.json` plus [`crate::gate::RESTORE`] turn the
//! warm speedup and warm hit rate into CI floors.

use crate::workload::{self, Arrival, PolicyRun};
use clyde_common::obs::json::Json;
use clyde_common::{rowcodec, ClydeError, Obs, Result};
use clyde_dfs::CacheStats;
use clyde_mapred::SchedPolicy;
use std::sync::Arc;

/// Arrival-time compression for the replay (see module docs).
pub const COMPRESSION: f64 = 100.0;

/// Result-cache capacity for the bench cluster: generous enough that the
/// 13-query working set never faces eviction pressure (eviction behaviour
/// has its own engine tests).
pub const CACHE_CAPACITY_BYTES: u64 = 256 << 20;

/// Hard floor on warm/cold throughput (the acceptance bar; the gate also
/// holds the line at 0.9× the committed value).
pub const WARM_SPEEDUP_FLOOR: f64 = 2.0;

/// Hard floor on the warm pass's stage hit rate.
pub const WARM_HIT_RATE_FLOOR: f64 = 0.80;

/// One pass (cold or warm) of the compressed stream.
pub struct RestorePass {
    pub run: PolicyRun,
    /// Cache-catalog counter deltas attributable to this pass.
    pub stats: CacheStats,
}

impl RestorePass {
    /// Stage hit rate over this pass's cache lookups.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.stats.hits + self.stats.misses;
        if lookups == 0 {
            0.0
        } else {
            self.stats.hits as f64 / lookups as f64
        }
    }
}

/// The full cold-then-warm measurement.
pub struct RestoreReport {
    pub sf: f64,
    pub seed: u64,
    pub cold: RestorePass,
    pub warm: RestorePass,
}

impl RestoreReport {
    /// Warm throughput over cold throughput — the headline number.
    pub fn warm_speedup(&self) -> f64 {
        self.warm.run.throughput_jobs_per_min / self.cold.run.throughput_jobs_per_min.max(1e-9)
    }
}

/// The seeded stream with arrival times compressed `COMPRESSION`×.
pub fn compressed_scenario(seed: u64) -> Vec<Arrival> {
    let mut arrivals = workload::scenario(seed);
    for a in &mut arrivals {
        a.arrival_s /= COMPRESSION;
    }
    arrivals
}

/// Replay the compressed stream cold then warm on one shared cluster
/// (fair scheduling, result cache on) and verify warm rows are
/// byte-identical to cold rows before reporting anything.
pub fn run(
    sf: f64,
    seed: u64,
    obs: Option<Arc<Obs>>,
    host_threads: Option<u32>,
) -> Result<RestoreReport> {
    let clyde = workload::build_clyde(sf, seed, obs, host_threads)?;
    let dfs = clyde.engine().dfs();
    dfs.cache_configure(CACHE_CAPACITY_BYTES);
    let arrivals = compressed_scenario(seed);

    let before = dfs.cache_stats();
    let cold_run = workload::run_policy(&clyde, &arrivals, SchedPolicy::Fair)?;
    let mid = dfs.cache_stats();
    let warm_run = workload::run_policy(&clyde, &arrivals, SchedPolicy::Fair)?;
    let after = dfs.cache_stats();

    // Cached ≡ recomputed, byte-for-byte, before any number is reported.
    if cold_run.served.len() != warm_run.served.len() {
        return Err(ClydeError::MapReduce(format!(
            "restore replay drift: cold served {} jobs, warm served {}",
            cold_run.served.len(),
            warm_run.served.len()
        )));
    }
    for (c, w) in cold_run.served.iter().zip(&warm_run.served) {
        if c.tenant != w.tenant || c.query_id != w.query_id {
            return Err(ClydeError::MapReduce(format!(
                "restore replay drift: cold {}:{} vs warm {}:{}",
                c.tenant, c.query_id, w.tenant, w.query_id
            )));
        }
        if rowcodec::write_rows(&c.rows) != rowcodec::write_rows(&w.rows) {
            return Err(ClydeError::MapReduce(format!(
                "cached result is not byte-identical to the recomputed one: \
                 {} {} diverged on the warm pass",
                w.tenant, w.query_id
            )));
        }
    }

    Ok(RestoreReport {
        sf,
        seed,
        cold: RestorePass {
            run: cold_run,
            stats: mid.delta_since(&before),
        },
        warm: RestorePass {
            run: warm_run,
            stats: after.delta_since(&mid),
        },
    })
}

/// Human-readable report (also the CI artifact).
pub fn render_report(report: &RestoreReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "restore cold/warm replay: {} jobs, SF {}, seed {}, arrivals compressed {}x\n\n",
        report.cold.run.served.len(),
        report.sf,
        report.seed,
        COMPRESSION
    ));
    out.push_str(&format!(
        "{:<6} {:>10} {:>9} {:>6} {:>6} {:>9}   {:<7} {:>9}\n",
        "pass", "makespan", "jobs/min", "hits", "miss", "hit-rate", "tenant", "p99(s)"
    ));
    for (name, pass) in [("cold", &report.cold), ("warm", &report.warm)] {
        for (i, t) in pass.run.tenants.iter().enumerate() {
            let head = if i == 0 {
                format!(
                    "{:<6} {:>10.1} {:>9.2} {:>6} {:>6} {:>9.2}",
                    name,
                    pass.run.makespan_s,
                    pass.run.throughput_jobs_per_min,
                    pass.stats.hits,
                    pass.stats.misses,
                    pass.hit_rate()
                )
            } else {
                format!(
                    "{:<6} {:>10} {:>9} {:>6} {:>6} {:>9}",
                    "", "", "", "", "", ""
                )
            };
            out.push_str(&format!("{head}   {:<7} {:>9.2}\n", t.tenant, t.p99_s));
        }
    }
    out.push_str(&format!(
        "\nwarm speedup: {:.2}x (floor {WARM_SPEEDUP_FLOOR}x), \
         warm hit rate: {:.2} (floor {WARM_HIT_RATE_FLOOR})\n",
        report.warm_speedup(),
        report.warm.hit_rate()
    ));
    out
}

/// The report as the committed-gate document (see `BENCH_restore.json`).
pub fn to_json(report: &RestoreReport) -> Json {
    let pass = |pass: &RestorePass| {
        let tenants = pass.run.tenants.iter().map(|t| {
            let stats = Json::obj([
                ("jobs", Json::Num(t.jobs as f64)),
                ("p99_s", Json::fixed(t.p99_s, 2)),
            ]);
            (t.tenant.clone(), stats)
        });
        Json::obj([
            ("makespan_s", Json::fixed(pass.run.makespan_s, 2)),
            (
                "throughput_jobs_per_min",
                Json::fixed(pass.run.throughput_jobs_per_min, 2),
            ),
            ("hits", Json::Num(pass.stats.hits as f64)),
            ("misses", Json::Num(pass.stats.misses as f64)),
            ("hit_rate", Json::fixed(pass.hit_rate(), 2)),
            ("bytes_served", Json::Num(pass.stats.bytes_served as f64)),
            ("tenants", Json::obj(tenants)),
        ])
    };
    let summary = |speedup: f64, hit_rate: f64| {
        Json::obj([
            ("warm_speedup", Json::fixed(speedup, 2)),
            ("warm_hit_rate", Json::fixed(hit_rate, 2)),
        ])
    };
    Json::obj([
        ("sf", Json::Num(report.sf)),
        ("seed", Json::Num(report.seed as f64)),
        ("jobs", Json::Num(report.cold.run.served.len() as f64)),
        ("compression", Json::Num(COMPRESSION)),
        ("floors", summary(WARM_SPEEDUP_FLOOR, WARM_HIT_RATE_FLOOR)),
        (
            "summary",
            summary(report.warm_speedup(), report.warm.hit_rate()),
        ),
        (
            "passes",
            Json::obj([("cold", pass(&report.cold)), ("warm", pass(&report.warm))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_scenario_preserves_order_and_shape() {
        let orig = workload::scenario(46);
        let fast = compressed_scenario(46);
        assert_eq!(orig.len(), fast.len());
        for (o, f) in orig.iter().zip(&fast) {
            assert_eq!(o.tenant, f.tenant);
            assert_eq!(o.query_id, f.query_id);
            assert!((f.arrival_s - o.arrival_s / COMPRESSION).abs() < 1e-12);
        }
        assert!(fast.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }
}
