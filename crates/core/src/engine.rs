//! The public Clydesdale engine API.

use crate::config::Features;
use crate::planner::plan_query;
use clyde_common::obs::{catalog as series, us, JobRef, Obs, QueryProfile, SpanKind};
use clyde_common::{ClydeError, Result, Row};
use clyde_dfs::Dfs;
use clyde_mapred::scheduler::concurrency_per_node;
use clyde_mapred::{Engine, FaultPlan, JobCost, JobProfile, JobSpec};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::StarQuery;
use clyde_ssb::schema;
use std::sync::Arc;

/// Result of one Clydesdale query.
#[derive(Debug)]
pub struct QueryResult {
    /// Final rows: group-by columns + the aggregate, in ORDER BY order.
    pub rows: Vec<Row>,
    /// Hardware-independent execution profile (extrapolable / re-priceable).
    pub profile: JobProfile,
    /// Simulated cost on the engine's own cluster spec, including the final
    /// client-side sort.
    pub cost: JobCost,
    /// Simulated seconds of the final single-process ORDER BY sort (paper
    /// Figure 4 line 33; under 10 s for Q2.1 at SF1000).
    pub final_sort_s: f64,
    /// Fraction of scanned bytes read from local replicas.
    pub locality: f64,
}

impl QueryResult {
    /// Total simulated seconds.
    pub fn total_s(&self) -> f64 {
        self.cost.total_s() + self.final_sort_s
    }
}

/// Clydesdale: the star-join engine over a DFS + MapReduce substrate.
pub struct Clydesdale {
    engine: Engine,
    layout: SsbLayout,
    features: Features,
    faults: Option<Arc<FaultPlan>>,
    host_threads: Option<u32>,
}

impl Clydesdale {
    pub fn new(dfs: Arc<Dfs>, layout: SsbLayout) -> Clydesdale {
        Clydesdale {
            engine: Engine::new(dfs),
            layout,
            features: Features::default(),
            faults: None,
            host_threads: None,
        }
    }

    pub fn with_features(dfs: Arc<Dfs>, layout: SsbLayout, features: Features) -> Clydesdale {
        Clydesdale {
            engine: Engine::new(dfs),
            layout,
            features,
            faults: None,
            host_threads: None,
        }
    }

    pub fn features(&self) -> Features {
        self.features
    }

    /// Attach an observability hub (chainable): jobs record their history
    /// and spans there, and `query` appends the final-sort phase.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Clydesdale {
        self.engine.set_obs(obs);
        self
    }

    pub fn obs(&self) -> &Arc<Obs> {
        self.engine.obs()
    }

    /// Attach a seeded fault plan (chainable): every query's MapReduce job
    /// runs under the plan's injected failures, and recovery must keep the
    /// results identical to a fault-free run.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Clydesdale {
        self.faults = Some(faults);
        self
    }

    /// Override how many *host* OS threads the map runner really spawns
    /// (chainable). The cost model keeps pricing with the cluster's map-slot
    /// count, so any value must leave results, simulated spans, and metric
    /// snapshots byte-identical — the property `tests/determinism.rs`
    /// asserts with 1/2/8 (and 3/5/13 for merge order).
    pub fn with_host_threads(mut self, host_threads: u32) -> Clydesdale {
        self.host_threads = Some(host_threads);
        self
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Plan `query` into its one MapReduce job, under this engine's fault
    /// plan and host thread count.
    pub(crate) fn plan(&self, query: &StarQuery) -> Result<JobSpec> {
        let cluster = self.engine.dfs().cluster();
        let mut spec = plan_query(query, &self.layout, self.features, cluster)?;
        spec.faults = self.faults.clone();
        spec.host_threads = self.host_threads;
        Ok(spec)
    }

    /// Open a multi-tenant query server over this engine: submissions are
    /// admission-controlled against `cfg`, and each drain schedules every
    /// admitted query's tasks on the shared cluster under `cfg.policy` —
    /// in deterministic simulated time, with solo-identical results.
    pub fn serve(&self, cfg: clyde_mapred::ServerConfig) -> crate::server::QueryServer<'_> {
        crate::server::QueryServer::new(self, cfg)
    }

    /// Copy every dimension table's master copy from the DFS onto every
    /// node's local disk (paper Figure 2). Queries repair missing copies on
    /// demand, so this is an optimization, not a requirement.
    pub fn warm_dimension_cache(&self) -> Result<()> {
        for table in [
            schema::CUSTOMER,
            schema::SUPPLIER,
            schema::PART,
            schema::DATE,
        ] {
            let path = self.layout.dim_bin(table);
            if self.engine.dfs().exists(&path) {
                self.engine
                    .local_store()
                    .broadcast_from_dfs(&path, self.engine.dfs())?;
            }
        }
        Ok(())
    }

    /// Describe the MapReduce job a query would run, without running it —
    /// the scan projection, the join pipeline with estimated hash-table
    /// sizes, and the scheduling shape, read off the planned [`JobSpec`].
    pub fn explain(&self, query: &StarQuery) -> Result<String> {
        let spec = self.plan(query)?;
        let (scan_cols, _) = crate::planner::scan_schema(query, &self.features)?;
        let cluster = self.engine.dfs().cluster();
        let mut lines = vec![format!("== Clydesdale plan for {} ==", query.id)];
        lines.push(format!(
            "scan lineorder [{}]: columns {:?}{}",
            self.layout.fact_cif(),
            scan_cols,
            if self.features.block_iteration {
                " (block iteration)"
            } else {
                " (row-at-a-time)"
            }
        ));
        for p in &query.fact_preds {
            lines.push(format!("  fact filter on {}", p.column()));
        }
        for join in &query.joins {
            lines.push(format!(
                "  hash join {}.{} = lineorder.{} (predicate: {}, aux: {:?})",
                join.dimension,
                join.pk,
                join.fk,
                if join.predicate == clyde_ssb::queries::DimPred::True {
                    "none"
                } else {
                    "pushed into build"
                },
                join.aux,
            ));
        }
        let threads = spec.task_threads.unwrap_or(1);
        let tasks = if threads > 1 {
            format!(
                "{} multi-threaded task(s), one per node, {threads} threads each",
                cluster.num_workers()
            )
        } else {
            let per_node = concurrency_per_node(cluster, spec.declared_task_memory);
            format!("single-threaded tasks over per-group splits, up to {per_node} per node")
        };
        lines.push(format!(
            "map: {tasks}, tables shared via JVM reuse: {}",
            spec.reuse_jvm
        ));
        lines.push(format!(
            "reduce: {} partition(s), aggregate {:?}, group by {:?}",
            spec.num_reducers, query.aggregate, query.group_by,
        ));
        let order: Vec<String> = query
            .order_by
            .iter()
            .map(|(t, desc)| {
                let name = match t {
                    clyde_ssb::queries::OrderTerm::Aggregate => "<aggregate>".to_string(),
                    clyde_ssb::queries::OrderTerm::Column(c) => c.clone(),
                };
                format!("{name}{}", if *desc { " desc" } else { "" })
            })
            .collect();
        lines.push(format!(
            "client: single-process sort by [{}]{}",
            order.join(", "),
            query
                .limit
                .map_or(String::new(), |l| format!(", limit {l}")),
        ));
        let mut out = lines.join("\n");
        out.push('\n');
        Ok(out)
    }

    /// Execute a star query end to end: one MapReduce job (join + group-by
    /// aggregation) followed by a single-process ORDER BY sort.
    pub fn query(&self, query: &StarQuery) -> Result<QueryResult> {
        let spec = self.plan(query)?;
        let obs = self.engine.obs();
        // The job's history is the next one recorded on the hub.
        let history = obs.with_histories(|hs| hs.len());
        let result = self.engine.run_job(&spec)?;
        let mut rows = result.rows;
        let final_sort_s = self.finish_query(query, &mut rows, history, obs.last_job())?;
        Ok(QueryResult {
            rows,
            profile: result.profile,
            cost: result.cost,
            final_sort_s,
            locality: result.locality,
        })
    }

    /// The client side of a query after its job: ORDER BY and LIMIT on the
    /// job's rows, priced as the paper's single-process sort, and with obs on
    /// the query counters, its explain-analyze profile over the job's
    /// history, the hub's `history`th, and a `final-sort` span right after
    /// the job on its track (`job`). Returns the sort's seconds.
    pub(crate) fn finish_query(
        &self,
        query: &StarQuery,
        rows: &mut Vec<Row>,
        history: usize,
        job: Option<JobRef>,
    ) -> Result<f64> {
        query.finish_result(rows);
        let final_sort_s = rows.len() as f64 / self.engine.params().sort_records_per_s + 0.5;
        let obs = self.engine.obs();
        if obs.is_enabled() {
            obs.metrics().counter_add(series::MAPRED_QUERIES, 1);
            obs.metrics()
                .histogram_record(series::MAPRED_FINAL_SORT_S, final_sort_s);
            let profile = obs.with_histories(|hs| {
                let job = hs.get(history..=history)?;
                Some(QueryProfile::from_histories(&query.id, job, final_sort_s))
            });
            let missing = || ClydeError::MapReduce(format!("query {} has no history", query.id));
            obs.record_query_profile(profile.ok_or_else(missing)?);
        }
        if let Some(job) = job {
            obs.spans().span(
                None,
                SpanKind::Phase,
                "final-sort",
                job.pid,
                0,
                us(job.total_s),
                us(job.total_s + final_sort_s).saturating_sub(us(job.total_s)),
                vec![("rows".into(), rows.len().to_string())],
            );
        }
        Ok(final_sort_s)
    }

    /// Execute a query and return its result together with the
    /// explain-analyze profile (model-vs-measured stage/phase tree plus
    /// calibration verdicts). Requires an enabled [`Obs`] hub — profiles are
    /// assembled from recorded job histories.
    pub fn explain_analyze(&self, query: &StarQuery) -> Result<(QueryResult, QueryProfile)> {
        let obs = self.engine.obs();
        if !obs.is_enabled() {
            return Err(ClydeError::Config(
                "explain analyze needs observability: construct with with_obs(Obs::enabled())"
                    .into(),
            ));
        }
        let result = self.query(query)?;
        let profile = obs.with_query_profiles(|ps| {
            ps.last()
                .cloned()
                .ok_or_else(|| ClydeError::Config("query recorded no profile".into()))
        })?;
        Ok((result, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_dfs::{ClusterSpec, ColocatingPlacement, DfsOptions};
    use clyde_ssb::gen::SsbGen;
    use clyde_ssb::{all_queries, loader, query_by_id, reference_answer};

    fn setup(sf: f64, nodes: usize) -> (Arc<Dfs>, SsbLayout, SsbGen) {
        setup_replicated(sf, nodes, 2)
    }

    fn setup_replicated(sf: f64, nodes: usize, replication: u32) -> (Arc<Dfs>, SsbLayout, SsbGen) {
        let dfs = Dfs::new(
            ClusterSpec::tiny(nodes),
            DfsOptions {
                block_size: 1 << 20,
                replication,
                policy: Box::new(ColocatingPlacement),
            },
        );
        let layout = SsbLayout::default();
        let gen = SsbGen::new(sf, 46);
        loader::load(
            &dfs,
            gen,
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
        (dfs, layout, gen)
    }

    #[test]
    fn q21_matches_reference() {
        let (dfs, layout, gen) = setup(0.005, 3);
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
        clyde.warm_dimension_cache().unwrap();
        let q = query_by_id("Q2.1").unwrap();
        let result = clyde.query(&q).unwrap();
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(result.rows, expect);
        assert!(result.total_s() > 0.0);
        // One multi-threaded map task per node.
        assert!(result.profile.map_tasks.len() <= 3);
        assert_eq!(result.profile.map_concurrency, 1);
        // Hash tables built exactly once per participating node.
        let builds: u64 = result
            .profile
            .map_tasks
            .iter()
            .map(|t| t.cost.build_rows)
            .filter(|&b| b > 0)
            .count() as u64;
        assert_eq!(builds, result.profile.map_tasks.len() as u64);
        // CIF co-location + one-split-per-node ⇒ fully local scan.
        assert_eq!(result.locality, 1.0);
    }

    #[test]
    fn all_thirteen_queries_match_reference() {
        let (dfs, layout, gen) = setup(0.01, 4);
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
        clyde.warm_dimension_cache().unwrap();
        let data = gen.gen_all().unwrap();
        for q in all_queries() {
            let result = clyde.query(&q).unwrap();
            let expect = reference_answer(&data, &q).unwrap();
            assert_eq!(result.rows, expect, "{} mismatch", q.id);
            assert!(!result.rows.is_empty(), "{} empty", q.id);
        }
    }

    #[test]
    fn ablations_change_cost_but_not_results() {
        let (dfs, layout, gen) = setup(0.005, 3);
        let q = query_by_id("Q4.1").unwrap();
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();

        let baseline = Clydesdale::new(Arc::clone(&dfs), layout.clone());
        let base = baseline.query(&q).unwrap();
        assert_eq!(base.rows, expect);

        for features in [
            Features::without_columnar(),
            Features::without_block_iteration(),
            Features::without_multithreading(),
            Features::without_zone_skipping(),
        ] {
            let ablated = Clydesdale::with_features(Arc::clone(&dfs), layout.clone(), features);
            let r = ablated.query(&q).unwrap();
            assert_eq!(r.rows, expect, "{} changed results", features.label());
        }

        // Columnar-off reads more bytes.
        let no_col = Clydesdale::with_features(
            Arc::clone(&dfs),
            layout.clone(),
            Features::without_columnar(),
        );
        let r = no_col.query(&q).unwrap();
        let base_bytes =
            base.profile.total_map_cost().local_bytes + base.profile.total_map_cost().remote_bytes;
        let ablated_bytes =
            r.profile.total_map_cost().local_bytes + r.profile.total_map_cost().remote_bytes;
        assert!(
            ablated_bytes > base_bytes * 2,
            "columnar-off must read much more: {ablated_bytes} vs {base_bytes}"
        );

        // Block-iteration-off counts rows through the row path.
        let no_blk = Clydesdale::with_features(
            Arc::clone(&dfs),
            layout.clone(),
            Features::without_block_iteration(),
        );
        let r = no_blk.query(&q).unwrap();
        assert!(r.profile.total_map_cost().rowiter_rows > 0);
        assert_eq!(r.profile.total_map_cost().block_rows, 0);

        // Multithreading-off builds tables once per task, not once per node.
        let no_mt =
            Clydesdale::with_features(Arc::clone(&dfs), layout, Features::without_multithreading());
        let r = no_mt.query(&q).unwrap();
        let rebuilds = r
            .profile
            .map_tasks
            .iter()
            .filter(|t| t.cost.build_rows > 0)
            .count();
        assert_eq!(
            rebuilds,
            r.profile.map_tasks.len(),
            "every single-threaded task must rebuild its tables"
        );
        assert!(r.profile.map_tasks.len() > base.profile.map_tasks.len());
        assert!(r.profile.memory_per_slot > 0);
        assert_eq!(r.profile.memory_shared, 0);
        assert!(base.profile.memory_shared > 0);
    }

    #[test]
    fn zone_skipping_prunes_without_changing_results() {
        let (dfs, layout, gen) = setup(0.01, 4);
        let data = gen.gen_all().unwrap();
        let on = Clydesdale::new(Arc::clone(&dfs), layout.clone());
        let off = Clydesdale::with_features(
            Arc::clone(&dfs),
            layout.clone(),
            Features::without_zone_skipping(),
        );
        on.warm_dimension_cache().unwrap();
        for id in ["Q1.1", "Q1.2", "Q1.3"] {
            let q = query_by_id(id).unwrap();
            let expect = reference_answer(&data, &q).unwrap();
            let r_on = on.query(&q).unwrap();
            let r_off = off.query(&q).unwrap();
            assert_eq!(r_on.rows, expect, "{id} with zone maps");
            assert_eq!(r_off.rows, expect, "{id} without zone maps");

            let c_on = r_on.profile.total_map_cost();
            let c_off = r_off.profile.total_map_cost();
            // Flight 1 is date-selective; with date-clustered loading the
            // zone maps must prove most groups irrelevant.
            assert!(c_on.zone_checked > 0, "{id}: no zone checks recorded");
            assert!(c_on.zone_skipped > 0, "{id}: no groups skipped");
            assert_eq!(c_off.zone_checked, 0, "{id}: ablation must not check");
            assert_eq!(c_off.zone_skipped, 0, "{id}: ablation must not skip");
            // Skipping means fewer fact rows iterated and fewer bytes read.
            assert!(
                c_on.block_rows < c_off.block_rows,
                "{id}: {} !< {}",
                c_on.block_rows,
                c_off.block_rows
            );
            assert!(
                c_on.local_bytes + c_on.remote_bytes < c_off.local_bytes + c_off.remote_bytes,
                "{id}: zone skipping must reduce scan bytes"
            );
        }
    }

    #[test]
    fn dimension_cache_repair_path() {
        // Clear a node's local cache after warming; the query must repair it
        // from the DFS and still answer correctly (paper Figure 2).
        let (dfs, layout, gen) = setup(0.005, 3);
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
        clyde.warm_dimension_cache().unwrap();
        clyde
            .engine()
            .local_store()
            .clear_node(clyde_dfs::NodeId(1))
            .unwrap();
        let q = query_by_id("Q3.1").unwrap();
        let result = clyde.query(&q).unwrap();
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(result.rows, expect);
    }

    #[test]
    fn faulted_query_matches_fault_free_run() {
        // Recovery transparency end to end: a query under an aggressive
        // seeded fault plan returns byte-identical rows to the reference.
        // Replication 3: the combined plan corrupts a replica of every block
        // AND kills a node, so two copies are not guaranteed to survive.
        let (dfs, layout, gen) = setup_replicated(0.005, 3, 3);
        let q = query_by_id("Q2.1").unwrap();
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        let mut plan = FaultPlan::named("combined", 46).unwrap();
        plan.task_fail_rate = 1.0; // force at least one recovery action
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_faults(Arc::new(plan));
        let result = clyde.query(&q).unwrap();
        assert_eq!(result.rows, expect);
        assert!(result.profile.failed_attempts >= 1);
    }

    #[test]
    fn cold_cache_works_without_warming() {
        let (dfs, layout, gen) = setup(0.005, 2);
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
        let q = query_by_id("Q1.2").unwrap();
        let result = clyde.query(&q).unwrap();
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(result.rows, expect);
    }

    /// A fact scan whose every part open panics — inside the probe worker
    /// that pulls the part.
    struct PanickingOpen(Arc<dyn clyde_mapred::InputFormat>);

    impl clyde_mapred::InputFormat for PanickingOpen {
        fn splits(
            &self,
            dfs: &Dfs,
            conf: &clyde_mapred::JobConf,
        ) -> Result<Vec<clyde_mapred::InputSplit>> {
            self.0.splits(dfs, conf)
        }

        fn open(
            &self,
            _: &clyde_mapred::InputSplit,
            _: usize,
            _: &clyde_mapred::TaskIo,
        ) -> Result<clyde_mapred::Reader> {
            panic!("scan bug")
        }
    }

    #[test]
    fn a_panicking_probe_worker_at_one_host_thread_is_a_typed_error() {
        // One node and one host thread: the calling thread runs the map
        // wave's only queue and the task's only probe worker itself.
        let (dfs, layout, gen) = setup(0.002, 1);
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_host_threads(1);
        let q = query_by_id("Q1.1").unwrap();
        let mut spec = plan_query(&q, &layout, clyde.features(), dfs.cluster()).unwrap();
        spec.host_threads = Some(1);
        spec.input = Arc::new(PanickingOpen(Arc::clone(&spec.input)));
        let err = clyde.engine().run_job(&spec).unwrap_err();
        assert!(
            matches!(&err, ClydeError::MapReduce(m) if m.contains("probe thread panicked")),
            "{err:?}"
        );
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(clyde.query(&q).unwrap().rows, expect);
    }
}

#[cfg(test)]
mod limit_and_explain_tests {
    use super::*;
    use clyde_dfs::{ClusterSpec, ColocatingPlacement, DfsOptions};
    use clyde_ssb::gen::SsbGen;
    use clyde_ssb::{loader, query_by_id, reference_answer};

    #[test]
    fn limit_truncates_after_the_sort() {
        let dfs = Dfs::new(
            ClusterSpec::tiny(2),
            DfsOptions {
                block_size: 1 << 20,
                replication: 1,
                policy: Box::new(ColocatingPlacement),
            },
        );
        let layout = SsbLayout::default();
        let gen = SsbGen::new(0.004, 46);
        loader::load(
            &dfs,
            gen,
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
        let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
        let mut q = query_by_id("Q2.1").unwrap();
        let full = clyde.query(&q).unwrap().rows;
        assert!(full.len() > 5);
        q.limit = Some(5);
        q.id = "Q2.1-top5".into();
        let limited = clyde.query(&q).unwrap().rows;
        assert_eq!(limited.len(), 5);
        assert_eq!(limited, full[..5].to_vec(), "limit must keep the top rows");
        // The reference executor agrees on limit semantics.
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(limited, expect);
    }

    #[test]
    fn explain_describes_the_plan_without_executing() {
        let dfs = Dfs::new(ClusterSpec::cluster_a(), DfsOptions::default());
        let clyde = Clydesdale::new(dfs, SsbLayout::default());
        let q = query_by_id("Q3.1").unwrap();
        let plan = clyde.explain(&q).unwrap();
        assert!(plan.contains("Q3.1"));
        assert!(plan.contains("hash join customer.c_custkey = lineorder.lo_custkey"));
        assert!(plan.contains("8 multi-threaded task(s)"));
        assert!(plan.contains("6 threads"));
        assert!(plan.contains("sort by [d_year, <aggregate> desc]"));
        // No data was loaded: explain never touched the fact table.
        assert!(clyde.query(&q).is_err(), "query without data must fail");
    }

    /// Without multithreading the planner runs single-threaded tasks over
    /// per-group splits, six to a node, each building its own tables.
    #[test]
    fn explain_reads_the_single_threaded_plan_off_its_spec() {
        let dfs = Dfs::new(ClusterSpec::cluster_a(), DfsOptions::default());
        let layout = SsbLayout::default();
        let features = Features::without_multithreading();
        let clyde = Clydesdale::with_features(dfs, layout, features);
        let plan = clyde.explain(&query_by_id("Q3.1").unwrap()).unwrap();
        assert!(
            plan.contains(
                "map: single-threaded tasks over per-group splits, up to 6 per node, \
                 tables shared via JVM reuse: false"
            ),
            "{plan}"
        );
        assert!(!plan.contains("multi-threaded"), "{plan}");
        assert!(plan.contains("reduce: 8 partition(s)"), "{plan}");
    }
}
