//! The query-level frontend to the multi-job server: tenants submit
//! [`StarQuery`]s, the server plans each into a MapReduce job at admission
//! time, and one `drain` lays every admitted query out on the shared
//! cluster under the configured scheduling policy.
//!
//! Each served query's rows are bit-for-bit what [`Clydesdale::query`]
//! returns solo — execution goes through the same planner and engine; only
//! the *timeline* (queue wait, slot interleaving, finish times) comes from
//! the multi-job schedule. The client-side ORDER BY sort is priced per
//! query and appended to its scheduled finish, exactly like the solo path.

use crate::engine::Clydesdale;
use crate::planner::plan_query;
use clyde_common::obs::{QueryProfile, DEFAULT_DRIFT_THRESHOLD_PCT};
use clyde_common::{ClydeError, Result, Row};
use clyde_mapred::{JobCost, JobProfile, JobServer, RejectReason, ServerConfig};
use clyde_ssb::queries::StarQuery;

/// One served query: the solo-identical answer plus its position on the
/// shared server timeline.
pub struct ServedQuery {
    pub tenant: String,
    pub query_id: String,
    /// Submission time on the server clock (seconds).
    pub arrival_s: f64,
    /// First granted slot on the shared cluster.
    pub start_s: f64,
    /// Completion including the client-side final sort.
    pub finish_s: f64,
    /// Simulated seconds of the single-process ORDER BY sort.
    pub final_sort_s: f64,
    /// Final rows, in ORDER BY order (bit-for-bit the solo answer).
    pub rows: Vec<Row>,
    pub profile: JobProfile,
    pub cost: JobCost,
}

impl ServedQuery {
    /// Queue wait: submission to first granted slot.
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }

    /// End-to-end latency as the tenant saw it (including the final sort).
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

/// Multi-tenant query frontend; construct via [`Clydesdale::serve`].
pub struct QueryServer<'c> {
    clyde: &'c Clydesdale,
    inner: JobServer<'c>,
    /// Queries behind the admitted submissions, in submission order.
    admitted: Vec<StarQuery>,
}

impl<'c> QueryServer<'c> {
    pub(crate) fn new(clyde: &'c Clydesdale, cfg: ServerConfig) -> QueryServer<'c> {
        QueryServer {
            clyde,
            inner: JobServer::new(clyde.engine(), cfg),
            admitted: Vec::new(),
        }
    }

    pub fn config(&self) -> &ServerConfig {
        self.inner.config()
    }

    /// Queries currently waiting for the next drain.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    /// Submit `query` on behalf of `tenant` at server time `arrival_s`.
    /// Planning errors surface as the outer `Err`; admission-control
    /// rejections (queue full, tenant quota) as the inner one.
    pub fn submit(
        &mut self,
        tenant: &str,
        arrival_s: f64,
        query: &StarQuery,
    ) -> Result<std::result::Result<(), RejectReason>> {
        let engine = self.clyde.engine();
        let mut spec = plan_query(
            query,
            self.clyde.layout(),
            self.clyde.features(),
            engine.dfs().cluster(),
        )?;
        spec.faults = self.clyde.faults().cloned();
        spec.host_threads = self.clyde.host_threads();
        match self.inner.submit(tenant, arrival_s, spec) {
            Ok(()) => {
                self.admitted.push(query.clone());
                Ok(Ok(()))
            }
            Err(reason) => Ok(Err(reason)),
        }
    }

    /// Run everything admitted since the last drain on the shared cluster
    /// and return the served queries in submission order.
    pub fn drain(&mut self) -> Result<Vec<ServedQuery>> {
        let queries = std::mem::take(&mut self.admitted);
        let obs = self.clyde.obs();
        let hist_before = obs.with_histories(|hs| hs.len());
        let served_jobs = self.inner.drain()?;
        let params = self.clyde.engine().params();
        let mut out = Vec::with_capacity(served_jobs.len());
        for (i, (job, query)) in served_jobs.into_iter().zip(queries).enumerate() {
            let mut rows = job.result.rows;
            query.finish_result(&mut rows);
            let final_sort_s = rows.len() as f64 / params.sort_records_per_s + 0.5;
            if obs.is_enabled() {
                obs.metrics().counter_add("mapred.queries", 1);
                obs.metrics()
                    .histogram_record("mapred.final_sort_s", final_sort_s);
                let profile = obs
                    .with_histories(|hs| {
                        let history = hs.get(hist_before + i..hist_before + i + 1)?;
                        Some(QueryProfile::from_histories(
                            &query.id,
                            history,
                            final_sort_s,
                            DEFAULT_DRIFT_THRESHOLD_PCT,
                        ))
                    })
                    .ok_or_else(|| {
                        ClydeError::MapReduce(format!(
                            "served query {} published no history",
                            query.id
                        ))
                    })?;
                obs.record_query_profile(profile);
            }
            out.push(ServedQuery {
                tenant: job.tenant,
                query_id: query.id.clone(),
                arrival_s: job.arrival_s,
                start_s: job.start_s,
                finish_s: job.finish_s + final_sort_s,
                final_sort_s,
                rows,
                profile: job.result.profile,
                cost: job.result.cost,
            });
        }
        Ok(out)
    }
}
