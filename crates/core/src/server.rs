//! The query-level frontend to the multi-job server: tenants submit
//! [`StarQuery`]s, the server plans each into a MapReduce job at admission
//! time, and one `drain` lays every admitted query out on the shared
//! cluster under the configured scheduling policy.
//!
//! Each served query's rows are bit-for-bit what [`Clydesdale::query`]
//! returns solo — execution goes through the same planner and engine; only
//! the *timeline* (queue wait, slot interleaving, finish times, and the
//! cost read off them) comes from the multi-job schedule. The client-side
//! ORDER BY sort is priced per query and appended to its scheduled finish,
//! exactly like the solo path.

use crate::engine::Clydesdale;
use clyde_common::{Result, Row};
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
    /// The job's stage bands on the shared schedule: `total_s()` is its
    /// arrival to its scheduled finish, queue wait and slot contention
    /// included, final sort excluded.
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

    /// Submit `query` on behalf of `tenant` at server time `arrival_s`.
    /// Planning errors surface as the outer `Err`; admission-control
    /// rejections (queue full, tenant quota) as the inner one.
    pub fn submit(
        &mut self,
        tenant: &str,
        arrival_s: f64,
        query: &StarQuery,
    ) -> Result<std::result::Result<(), RejectReason>> {
        let admission = self
            .inner
            .submit(tenant, arrival_s, self.clyde.plan(query)?.0);
        if admission.is_ok() {
            self.admitted.push(query.clone());
        }
        Ok(admission)
    }

    /// Run everything admitted since the last drain on the shared cluster
    /// and return the served queries in submission order.
    pub fn drain(&mut self) -> Result<Vec<ServedQuery>> {
        let queries = std::mem::take(&mut self.admitted);
        let hist_before = self.clyde.obs().with_histories(|hs| hs.len());
        let served_jobs = self.inner.drain()?;
        let mut out = Vec::with_capacity(served_jobs.len());
        for (i, (job, query)) in served_jobs.into_iter().zip(queries).enumerate() {
            let mut rows = job.result.rows;
            let final_sort_s =
                self.clyde
                    .finish_query(&query, &mut rows, hist_before + i, job.trace)?;
            out.push(ServedQuery {
                tenant: job.lane.tenant,
                query_id: query.id.clone(),
                arrival_s: job.lane.arrival_s,
                start_s: job.lane.start_s,
                finish_s: job.lane.finish_s + final_sort_s,
                final_sort_s,
                rows,
                profile: job.result.profile,
                cost: job.result.cost,
            });
        }
        Ok(out)
    }
}
