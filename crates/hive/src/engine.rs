//! The Hive baseline engine: multi-stage plan construction and execution.

use crate::mapjoin::{build_and_publish, joined_schema, MapJoinRunner};
use crate::repartition::{RepartitionMapper, RepartitionReducer};
use crate::stages::{EmitValues, FoldValues, GroupByMapper, OrderByMapper};
use crate::union::TaggedUnionInputFormat;
use clyde_columnar::RcFileInputFormat;
use clyde_common::obs::{Obs, WallTimer};
use clyde_common::{ClydeError, Result, Row};
use clyde_dfs::Dfs;
use clyde_mapred::engine::ClientArtifacts;
use clyde_mapred::formats::RowBinInputFormat;
use clyde_mapred::runner::RowMapRunner;
use clyde_mapred::{Engine, InputFormat, JobCost, JobProfile, JobSpec, OutputSpec};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::StarQuery;
use clyde_ssb::schema as ssb_schema;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which join plan the planner emits (paper Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Sort-merge "common join": both sides shuffled to reducers.
    Repartition,
    /// Broadcast hash join via the distributed cache (Figure 6).
    MapJoin,
}

impl JoinStrategy {
    pub fn label(&self) -> &'static str {
        match self {
            JoinStrategy::Repartition => "repartition",
            JoinStrategy::MapJoin => "mapjoin",
        }
    }
}

/// Execution report of one stage (one MapReduce job).
#[derive(Debug)]
pub struct StageReport {
    pub name: String,
    pub profile: JobProfile,
    pub cost: JobCost,
}

/// The result of a Hive query: final rows plus the per-stage reports the
/// figure harness extrapolates.
#[derive(Debug)]
pub struct HiveResult {
    pub rows: Vec<Row>,
    pub stages: Vec<StageReport>,
}

impl HiveResult {
    /// Total simulated cost across all stages.
    pub fn total_cost(&self) -> JobCost {
        self.stages
            .iter()
            .fold(JobCost::default(), |acc, s| acc.add(&s.cost))
    }

    pub fn total_s(&self) -> f64 {
        self.total_cost().total_s()
    }
}

/// The baseline engine.
pub struct Hive {
    engine: Engine,
    layout: SsbLayout,
    strategy: JoinStrategy,
    run_seq: AtomicU64,
}

impl Hive {
    pub fn new(dfs: Arc<Dfs>, layout: SsbLayout, strategy: JoinStrategy) -> Hive {
        Hive {
            engine: Engine::new(dfs),
            layout,
            strategy,
            run_seq: AtomicU64::new(0),
        }
    }

    /// Attach an observability hub (chainable): every stage job records its
    /// history, spans, and counters there.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Hive {
        self.engine.set_obs(obs);
        self
    }

    pub fn obs(&self) -> &Arc<Obs> {
        self.engine.obs()
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn strategy(&self) -> JoinStrategy {
        self.strategy
    }

    /// Execute a star query as Hive would: one MapReduce job per dimension
    /// join, a group-by job, and an order-by job.
    pub fn query(&self, query: &StarQuery) -> Result<HiveResult> {
        query.validate()?;
        let cluster = self.engine.dfs().cluster().clone();
        let run = self.run_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = format!("{}/tmp/hive-{}-run{run}", self.layout.root, query.id);

        let fact_schema = ssb_schema::lineorder_schema();
        let scan_cols = query.fact_columns();
        let mut cur_schema = fact_schema.select(&scan_cols)?;
        let mut cur_input: Arc<dyn InputFormat> = Arc::new(
            RcFileInputFormat::new(self.layout.table_rc(ssb_schema::LINEORDER))
                .with_columns(scan_cols),
        );

        let mut stages: Vec<StageReport> = Vec::new();
        // Result-cache lineage: each stage's fingerprint seeds the next
        // stage's identity, so chained stages stay cacheable even though
        // their physical inputs live in this run's unique tmp directory.
        // The base stage fingerprints its real (fact/dimension) splits, so
        // fact roll-in/roll-out re-keys the whole chain. Known limitation:
        // mapjoin dimension tables ride the distributed cache, not splits,
        // so editing a dimension file in place is not detected — dimension
        // data is immutable in this workload.
        let mut lineage: Option<u64> = None;

        // --- One join stage per dimension, in query order. ---
        for (i, join) in query.joins.iter().enumerate() {
            let out_dir = format!("{tmp}/join{i}");
            let fact_preds = if i == 0 {
                query.fact_preds.clone()
            } else {
                Vec::new()
            };
            let stage_name = format!(
                "hive-{}-{}-join-{}",
                query.id,
                self.strategy.label(),
                join.dimension
            );
            let (mut spec, client) = match self.strategy {
                JoinStrategy::MapJoin => {
                    let cache_key = format!("{stage_name}.hashtable");
                    // The client-side build runs outside every task; its
                    // wall time is the job's setup wall, not a task phase.
                    let build = WallTimer::start();
                    let (mut client, mem) =
                        build_and_publish(self.engine.dfs(), &self.layout, join, &cache_key)?;
                    client.build_wall_ns = build.elapsed_ns();
                    let runner = MapJoinRunner {
                        cache_key,
                        fk_idx: cur_schema.index_of(&join.fk)?,
                        fact_preds,
                        input_schema: cur_schema.clone(),
                        table_mem_bytes: mem,
                    };
                    let mut spec =
                        JobSpec::new(stage_name, Arc::clone(&cur_input), Arc::new(runner));
                    spec.output = OutputSpec::DfsDir(out_dir.clone());
                    spec.reuse_jvm = false;
                    (spec, client)
                }
                JoinStrategy::Repartition => {
                    // Dimension-side scan: pk + aux + predicate columns.
                    let dim_schema = ssb_schema::schema_of(&join.dimension).ok_or_else(|| {
                        ClydeError::Plan(format!("unknown dimension {}", join.dimension))
                    })?;
                    let dim_cols = join.scan_columns();
                    let dim_scan_schema = dim_schema.select(&dim_cols)?;
                    let dim_input: Arc<dyn InputFormat> = Arc::new(
                        RcFileInputFormat::new(self.layout.table_rc(&join.dimension))
                            .with_columns(dim_cols.clone()),
                    );
                    let mapper = RepartitionMapper {
                        fk_idx: cur_schema.index_of(&join.fk)?,
                        pk_idx: dim_scan_schema.index_of(&join.pk)?,
                        aux_idx: join
                            .aux
                            .iter()
                            .map(|a| dim_scan_schema.index_of(a))
                            .collect::<Result<_>>()?,
                        dim_pred: join.predicate.compile(&dim_scan_schema)?,
                        fact_preds,
                        left_schema: cur_schema.clone(),
                    };
                    let union = TaggedUnionInputFormat::new(Arc::clone(&cur_input), dim_input);
                    let mut spec = JobSpec::new(
                        stage_name,
                        Arc::new(union),
                        Arc::new(RowMapRunner::new(mapper)),
                    );
                    spec.reducer = Some(Arc::new(RepartitionReducer));
                    spec.num_reducers = cluster.total_reduce_slots().max(1) as usize;
                    spec.output = OutputSpec::DfsDir(out_dir.clone());
                    spec.reuse_jvm = false;
                    (spec, ClientArtifacts::default())
                }
            };
            spec.code_token = format!(
                "hive:{}:{}:join{}:{}:v1",
                query.id,
                self.strategy.label(),
                i,
                join.dimension
            );
            spec.lineage = lineage;
            let result = self.engine.run_job_with(&spec, client)?;
            lineage = result.fingerprint;
            // On a cache hit the run-scoped out_dir was never written; the
            // next stage reads the persisted files straight from the cache.
            let next_dir = if result.served_from_cache {
                dir_of(&result.output_files).unwrap_or(out_dir)
            } else {
                out_dir
            };
            stages.push(StageReport {
                name: spec.name.clone(),
                profile: result.profile,
                cost: result.cost,
            });
            cur_schema = joined_schema(&cur_schema, join)?;
            cur_input = Arc::new(RowBinInputFormat::new(next_dir));
        }

        // --- Group-by stage. ---
        let group_idx: Vec<usize> = query
            .group_by
            .iter()
            .map(|g| cur_schema.index_of(g))
            .collect::<Result<_>>()?;
        let gb_dir = format!("{tmp}/groupby");
        let gb_mapper = GroupByMapper {
            group_idx,
            aggregate: query.aggregate.clone(),
            joined_schema: cur_schema.clone(),
        };
        let mut gb = JobSpec::new(
            format!("hive-{}-groupby", query.id),
            Arc::clone(&cur_input),
            Arc::new(RowMapRunner::new(gb_mapper)),
        );
        gb.combiner = Some(Arc::new(FoldValues {
            include_key: false,
            aggregate: query.aggregate.clone(),
        }));
        gb.reducer = Some(Arc::new(FoldValues {
            include_key: true,
            aggregate: query.aggregate.clone(),
        }));
        gb.num_reducers = cluster.total_reduce_slots().max(1) as usize;
        gb.output = OutputSpec::DfsDir(gb_dir.clone());
        gb.reuse_jvm = false;
        gb.code_token = format!("hive:{}:{}:groupby:v1", query.id, self.strategy.label());
        gb.lineage = lineage;
        let result = self.engine.run_job(&gb)?;
        lineage = result.fingerprint;
        let ob_input_dir = if result.served_from_cache {
            dir_of(&result.output_files).unwrap_or(gb_dir)
        } else {
            gb_dir
        };
        stages.push(StageReport {
            name: gb.name.clone(),
            profile: result.profile,
            cost: result.cost,
        });

        // --- Order-by stage (single reducer → total order). ---
        let ob_mapper = OrderByMapper::for_query(query)?;
        let mut ob = JobSpec::new(
            format!("hive-{}-orderby", query.id),
            Arc::new(RowBinInputFormat::new(ob_input_dir)),
            Arc::new(RowMapRunner::new(ob_mapper)),
        );
        ob.reducer = Some(Arc::new(EmitValues));
        ob.num_reducers = 1;
        ob.output = OutputSpec::Memory;
        ob.reuse_jvm = false;
        ob.code_token = format!("hive:{}:{}:orderby:v1", query.id, self.strategy.label());
        ob.lineage = lineage;
        let result = self.engine.run_job(&ob)?;
        let mut rows = result.rows;
        // LIMIT is applied after the total-order stage (Hive's "LIMIT n"
        // also collapses onto the single order-by reducer).
        if let Some(l) = query.limit {
            rows.truncate(l);
        }
        stages.push(StageReport {
            name: ob.name.clone(),
            profile: result.profile,
            cost: result.cost,
        });

        // --- Clean up intermediates (Hive deletes scratch dirs too). ---
        for path in self.engine.dfs().list(&format!("{tmp}/")) {
            self.engine.dfs().delete(&path)?;
        }

        Ok(HiveResult { rows, stages })
    }
}

/// The number of stages a query's plan will have: joins + group-by +
/// order-by (used by tests and the cost narrative).
pub fn expected_stages(query: &StarQuery) -> usize {
    query.joins.len() + 2
}

/// The common directory of a stage's output files (all cached files of one
/// entry live under one `/cache/{fingerprint}/` directory).
fn dir_of(files: &[String]) -> Option<String> {
    files
        .first()
        .and_then(|f| f.rsplit_once('/'))
        .map(|(dir, _)| dir.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_dfs::{ClusterSpec, ColocatingPlacement, DfsOptions};
    use clyde_ssb::gen::SsbGen;
    use clyde_ssb::{all_queries, loader, query_by_id, reference_answer};

    fn setup(sf: f64, nodes: usize) -> (Arc<Dfs>, SsbLayout, SsbGen) {
        let dfs = Dfs::new(
            ClusterSpec::tiny(nodes),
            DfsOptions {
                block_size: 1 << 20,
                replication: 2,
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
                cif: false,
                rcfile: true,
                text: false,
                cluster_by_date: true,
            },
        )
        .unwrap();
        (dfs, layout, gen)
    }

    #[test]
    fn mapjoin_q21_matches_reference_with_expected_stages() {
        let (dfs, layout, gen) = setup(0.005, 3);
        let hive = Hive::new(Arc::clone(&dfs), layout, JoinStrategy::MapJoin);
        let q = query_by_id("Q2.1").unwrap();
        let result = hive.query(&q).unwrap();
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(result.rows, expect);
        // Paper: "Hive generates a five stage mapjoin plan" for Q2.1.
        assert_eq!(result.stages.len(), 5);
        assert_eq!(expected_stages(&q), 5);
        // Every map task of a join stage reloaded the hash table.
        let stage1 = &result.stages[0];
        let loads = stage1
            .profile
            .map_tasks
            .iter()
            .filter(|t| t.cost.state_load_bytes > 0)
            .count();
        assert_eq!(loads, stage1.profile.map_tasks.len());
        assert!(stage1.profile.client_publish_bytes > 0);
        assert!(result.total_s() > 0.0);
    }

    #[test]
    fn repartition_q21_matches_reference_and_shuffles_more() {
        let (dfs, layout, gen) = setup(0.005, 3);
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::Repartition);
        let q = query_by_id("Q2.1").unwrap();
        let result = hive.query(&q).unwrap();
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(result.rows, expect);
        assert_eq!(result.stages.len(), 5);
        // The repartition join shuffles the fact side; mapjoin stages are
        // map-only (zero join-stage shuffle).
        let mapjoin = Hive::new(Arc::clone(&dfs), layout, JoinStrategy::MapJoin);
        let mj = mapjoin.query(&q).unwrap();
        let rp_shuffle: u64 = result.stages[..3]
            .iter()
            .map(|s| s.profile.shuffle_bytes)
            .sum();
        let mj_shuffle: u64 = mj.stages[..3].iter().map(|s| s.profile.shuffle_bytes).sum();
        assert!(rp_shuffle > 0);
        assert_eq!(mj_shuffle, 0);
    }

    #[test]
    fn both_strategies_match_reference_on_all_queries() {
        let (dfs, layout, gen) = setup(0.004, 2);
        let data = gen.gen_all().unwrap();
        for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
            let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy);
            for q in all_queries() {
                let result = hive.query(&q).unwrap();
                let expect = reference_answer(&data, &q).unwrap();
                assert_eq!(
                    result.rows,
                    expect,
                    "{} mismatch under {}",
                    q.id,
                    strategy.label()
                );
                assert_eq!(result.stages.len(), expected_stages(&q));
            }
        }
    }

    #[test]
    fn intermediates_are_cleaned_up() {
        let (dfs, layout, _) = setup(0.003, 2);
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin);
        let q = query_by_id("Q1.1").unwrap();
        hive.query(&q).unwrap();
        assert!(dfs.list(&format!("{}/tmp/", layout.root)).is_empty());
    }

    #[test]
    fn warm_replay_serves_every_stage_from_cache() {
        let (dfs, layout, gen) = setup(0.003, 2);
        dfs.cache_configure(64 << 20);
        let expect =
            reference_answer(&gen.gen_all().unwrap(), &query_by_id("Q2.1").unwrap()).unwrap();
        for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
            let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy);
            let q = query_by_id("Q2.1").unwrap();
            let cold = hive.query(&q).unwrap();
            let before = dfs.cache_stats();
            let warm = hive.query(&q).unwrap();
            assert_eq!(warm.rows, cold.rows, "{}", strategy.label());
            assert_eq!(warm.rows, expect);
            // Every stage of the chain hit, including the tmp-dir stages
            // whose physical inputs never repeat (lineage fingerprints).
            let hits = dfs.cache_stats().hits - before.hits;
            assert_eq!(hits as usize, expected_stages(&q), "{}", strategy.label());
            assert!(warm.total_s() < cold.total_s(), "{}", strategy.label());
            // A fully-warm run writes no intermediates at all.
            assert!(dfs.list(&format!("{}/tmp/", layout.root)).is_empty());
        }
    }

    #[test]
    fn repeated_queries_do_not_collide() {
        let (dfs, layout, gen) = setup(0.003, 2);
        let hive = Hive::new(Arc::clone(&dfs), layout, JoinStrategy::MapJoin);
        let q = query_by_id("Q1.2").unwrap();
        let a = hive.query(&q).unwrap();
        let b = hive.query(&q).unwrap();
        assert_eq!(a.rows, b.rows);
        let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
        assert_eq!(a.rows, expect);
    }
}
