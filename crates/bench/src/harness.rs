//! Measurement and extrapolation machinery shared by the figure binaries.

use crate::report::{render_fault_impact, render_table, secs, speedup};
use clyde_common::obs::{profiles_json, QueryProfile};
use clyde_common::{Obs, Result};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions, IoSnapshot};
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::{CostParams, Extrapolation, FaultPlan, JobProfile, MapTaskScaling};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::StarQuery;
use clyde_ssb::{all_queries, reference_answer};
use clydesdale::{Clydesdale, Features};
use std::sync::Arc;

/// HDFS block size used for Hive-style split counting (the paper's era used
/// 128 MB blocks; stage 1 of Q2.1 ran 4,887 maps over ~558 GB ≈ 117 MB per
/// split).
pub const HIVE_SPLIT_BYTES: u64 = 128 << 20;

/// Split size the multithreading-off ablation packs multi-splits to; chosen
/// (calibrated) so flight-level rebuild counts land near the paper's
/// Figure 9 slowdowns.
pub const MT_OFF_SPLIT_BYTES: u64 = 384 << 20;

/// Hive-era intermediate files (SequenceFiles of Writable/Text rows) are
/// several times larger per row than this reproduction's compact row-binary
/// encoding; the paper's Q2.1 intermediates were ~200 GB for ~6 B rows.
/// Applied when extrapolating the bytes Hive stages write to and re-read
/// from the DFS between stages.
pub const HIVE_INTERMEDIATE_BLOAT: f64 = 6.0;

/// How the measurement run is configured.
#[derive(Debug, Clone)]
pub struct MeasurementConfig {
    /// Scale factor really executed (the extrapolation source).
    pub sf: f64,
    pub seed: u64,
    /// Worker count of the measurement cluster (node *shape* matches
    /// cluster A: 8 cores, 6 map slots, so thread counts measure correctly).
    pub workers: usize,
    /// CIF/RCFile rows per row group at measurement scale.
    pub rows_per_group: u64,
}

impl Default for MeasurementConfig {
    fn default() -> MeasurementConfig {
        MeasurementConfig {
            sf: 0.02,
            seed: 46,
            workers: 4,
            rows_per_group: 8_000,
        }
    }
}

impl MeasurementConfig {
    /// A fresh measurement cluster (8 MiB blocks) with this configuration's
    /// SSB loaded.
    pub fn testbed(&self, replication: u32, rcfile: bool) -> Result<(Arc<Dfs>, SsbLayout)> {
        testbed(
            measurement_cluster(self.workers),
            8 << 20,
            replication,
            SsbGen::new(self.sf, self.seed),
            self.rows_per_group,
            rcfile,
        )
    }
}

/// The measurement cluster: cluster A's node shape, fewer workers.
pub fn measurement_cluster(workers: usize) -> ClusterSpec {
    let mut c = ClusterSpec::cluster_a();
    c.workers = workers;
    c.name = format!("measurement-{workers}");
    c
}

/// Stand up a simulated cluster — colocating placement, date-clustered CIF,
/// RCFile too when `rcfile` — load `gen`'s SSB database into it, and hand
/// back the DFS with the layout the tables live under. Every bench run
/// starts here.
pub fn testbed(
    cluster: ClusterSpec,
    block_size: u64,
    replication: u32,
    gen: SsbGen,
    rows_per_group: u64,
    rcfile: bool,
) -> Result<(Arc<Dfs>, SsbLayout)> {
    let dfs = Dfs::new(
        cluster,
        DfsOptions {
            block_size,
            replication,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group,
            cif: true,
            rcfile,
            text: false,
            cluster_by_date: true,
        },
    )?;
    Ok((dfs, layout))
}

/// Everything measured for one query.
#[derive(Debug)]
pub struct QueryMeasurement {
    pub query: StarQuery,
    pub clyde: JobProfile,
    /// Result row count (final-sort sizing).
    pub result_rows: usize,
    /// One profile per [`Features::ablations`] point, under that point's
    /// name (see [`Ablation::name`]); empty unless ablations were measured.
    pub ablations: Vec<(&'static str, JobProfile)>,
    /// Per-stage profiles, present when Hive was measured.
    pub hive_mapjoin: Vec<JobProfile>,
    pub hive_repartition: Vec<JobProfile>,
    /// DFS traffic of the Clydesdale run alone, taken through a scoped
    /// snapshot so consecutive queries (and the Hive runs in between) don't
    /// bleed into each other's counters.
    pub io: IoSnapshot,
}

/// A full measurement pass.
#[derive(Debug)]
pub struct Measurements {
    pub config: MeasurementConfig,
    pub queries: Vec<QueryMeasurement>,
    /// Total RCFile bytes of the fact table at measurement scale (drives
    /// Hive stage-1 split counts, which Hadoop derives from *file* size,
    /// not from the bytes a projection reads).
    pub rc_fact_bytes: u64,
}

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct MeasureWhat {
    pub hive: bool,
    pub ablations: bool,
}

/// Run the measurement pass: load SSB once, execute the requested systems
/// over all 13 queries, validating answers.
pub fn measure(config: &MeasurementConfig, what: MeasureWhat) -> Result<Measurements> {
    measure_with_obs(config, what, Obs::disabled())
}

/// [`measure`] with an observability hub attached: every Clydesdale and Hive
/// job records its history, spans, and counters there.
pub fn measure_with_obs(
    config: &MeasurementConfig,
    what: MeasureWhat,
    obs: Arc<Obs>,
) -> Result<Measurements> {
    let (dfs, layout) = config.testbed(3, what.hive)?;
    let reference_data = SsbGen::new(config.sf, config.seed).gen_all()?;

    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache()?;
    let ablated: Vec<(&'static str, Clydesdale)> = if what.ablations {
        Features::ablations()
            .into_iter()
            .map(|(name, f)| {
                let engine = Clydesdale::with_features(Arc::clone(&dfs), layout.clone(), f);
                (name, engine)
            })
            .collect()
    } else {
        Vec::new()
    };
    let hive_mj = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin)
        .with_obs(Arc::clone(&obs));
    let hive_rp = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::Repartition)
        .with_obs(Arc::clone(&obs));

    let mut queries = Vec::with_capacity(13);
    for query in all_queries() {
        let scope = dfs.io_scope();
        let result = clyde.query(&query)?;
        let io = scope.delta();
        let expect = reference_answer(&reference_data, &query)?;
        assert_eq!(result.rows, expect, "{}: clydesdale mismatch", query.id);

        let mut ablations = Vec::with_capacity(ablated.len());
        for (name, engine) in &ablated {
            let r = engine.query(&query)?;
            assert_eq!(r.rows, expect, "{}: {name} mismatch", query.id);
            ablations.push((*name, r.profile));
        }

        let (hive_mapjoin, hive_repartition) = if what.hive {
            let mj = hive_mj.query(&query)?;
            let rp = hive_rp.query(&query)?;
            assert_eq!(mj.rows, expect, "{}: mapjoin mismatch", query.id);
            assert_eq!(rp.rows, expect, "{}: repartition mismatch", query.id);
            (
                mj.stages.into_iter().map(|s| s.profile).collect(),
                rp.stages.into_iter().map(|s| s.profile).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };

        queries.push(QueryMeasurement {
            result_rows: result.rows.len(),
            query,
            clyde: result.profile,
            ablations,
            hive_mapjoin,
            hive_repartition,
            io,
        });
    }

    let rc_fact_bytes = if what.hive {
        dfs.file_len(&format!(
            "{}.rc",
            layout.table_rc(clyde_ssb::schema::LINEORDER)
        ))?
    } else {
        0
    };

    Ok(Measurements {
        config: config.clone(),
        queries,
        rc_fact_bytes,
    })
}

/// Everything the `profile` binary (and CI) derives from one instrumented
/// 13-query pass: per-query explain-analyze profiles, the collapsed-stack
/// flamegraph, a calibration report, and the deterministic profile artifact.
#[derive(Debug)]
pub struct ProfileSuite {
    pub profiles: Vec<QueryProfile>,
    /// Collapsed stacks (`frame;frame value` lines) over simulated time.
    pub flamegraph: String,
    /// Per-query model-vs-measured drift table (wall-bearing, human-facing).
    pub calibration: String,
    /// The `clyde-profiles` JSON bundle (simulated counters only —
    /// byte-identical across runs and host thread counts).
    pub json: String,
}

/// Run the 13-query suite with observability on and assemble the profile
/// artifacts.
pub fn profile_suite(config: &MeasurementConfig) -> Result<ProfileSuite> {
    let obs = Obs::enabled();
    measure_with_obs(
        config,
        MeasureWhat {
            hive: false,
            ablations: false,
        },
        Arc::clone(&obs),
    )?;
    let profiles = obs.with_query_profiles(|ps| ps.to_vec());
    Ok(ProfileSuite {
        flamegraph: obs.flamegraph(),
        calibration: crate::report::render_calibration(&profiles),
        json: profiles_json(&profiles),
        profiles,
    })
}

/// One cell of the CI fault matrix: a query executed under a named seeded
/// fault plan on a freshly loaded cluster, compared byte-for-byte against an
/// identically loaded fault-free run.
#[derive(Debug)]
pub struct FaultCell {
    pub plan: String,
    /// Result bytes are identical to the fault-free run's.
    pub identical: bool,
    pub rows: usize,
    /// Profile of the faulted run (recovery actions live here).
    pub profile: JobProfile,
    /// Simulated seconds of the faulted run, minus the fault-free run's —
    /// the cost-model price of recovery (slow nodes + wasted backups).
    pub overhead_s: f64,
    /// Checksum mismatches detected (and masked) during the faulted run.
    pub corrupt_reads: u64,
    /// Simulated seconds burnt by killed speculative-loser attempts.
    pub wasted_s: f64,
}

impl FaultCell {
    /// True when at least one recovery mechanism demonstrably fired.
    pub fn recovered_something(&self) -> bool {
        self.profile.failed_attempts > 0
            || self.profile.speculative_attempts > 0
            || !self.profile.dead_nodes.is_empty()
            || self.profile.rereplicated_blocks > 0
            || self.corrupt_reads > 0
    }
}

/// Run one query twice — fault-free and under the named plan — on two
/// identically loaded fresh clusters (fault plans mutate DFS state, so the
/// baseline must not share a cluster with the faulted run), and compare the
/// serialized results byte for byte.
pub fn run_fault_cell(
    config: &MeasurementConfig,
    query: &StarQuery,
    plan: &str,
    seed: u64,
) -> Result<FaultCell> {
    let faults = FaultPlan::named(plan, seed).unwrap_or_else(|| {
        panic!(
            "unknown fault plan `{plan}` (expected one of {:?})",
            clyde_mapred::fault::NAMES
        )
    });
    let run = |faults: Option<FaultPlan>| -> Result<(Vec<u8>, JobProfile, usize, f64, u64)> {
        let (dfs, layout) = config.testbed(3, false)?;
        let mut clyde = Clydesdale::new(Arc::clone(&dfs), layout);
        if let Some(f) = faults {
            clyde = clyde.with_faults(Arc::new(f));
        }
        clyde.warm_dimension_cache()?;
        let scope = dfs.io_scope();
        let r = clyde.query(query)?;
        let corrupt = scope.delta().total_corrupt_reads();
        let total_s = r.total_s();
        Ok((
            clyde_common::rowcodec::write_rows(&r.rows),
            r.profile,
            r.rows.len(),
            total_s,
            corrupt,
        ))
    };
    let (clean_bytes, _, _, clean_s, _) = run(None)?;
    let (fault_bytes, profile, rows, fault_s, corrupt_reads) = run(Some(faults))?;
    let wasted_s = profile.killed_attempts.iter().map(|k| k.busy_s).sum();
    Ok(FaultCell {
        plan: plan.to_string(),
        identical: clean_bytes == fault_bytes,
        rows,
        profile,
        overhead_s: fault_s - clean_s,
        corrupt_reads,
        wasted_s,
    })
}

/// Per-query outcome of a figure binary's `--faults <seed>` pass.
#[derive(Debug)]
pub struct FaultImpact {
    pub query_id: String,
    /// Simulated seconds of the fault-free run at measurement scale.
    pub clean_s: f64,
    /// Simulated seconds under the `combined` fault plan.
    pub faulted_s: f64,
    pub failed_attempts: u32,
    pub speculative_attempts: u32,
    pub speculative_wins: u32,
    pub dead_nodes: usize,
    pub rereplicated_blocks: u64,
    /// Simulated seconds burnt by killed speculative-loser attempts.
    pub wasted_s: f64,
}

/// Run every SSB query fault-free and under the `combined` plan (two
/// identically loaded clusters), asserting the answers stay identical, and
/// report the per-query degradation the cost model attributes to recovery.
/// The faulted cluster degrades cumulatively — a node killed by one query's
/// plan stays dead for the next — which is exactly how a real cluster looks
/// to a sequence of jobs.
pub fn fault_impact(config: &MeasurementConfig, seed: u64) -> Result<Vec<FaultImpact>> {
    let (clean_dfs, clean_layout) = config.testbed(3, false)?;
    let clean = Clydesdale::new(clean_dfs, clean_layout);
    clean.warm_dimension_cache()?;
    let (fault_dfs, fault_layout) = config.testbed(3, false)?;
    let plan = FaultPlan::named("combined", seed).expect("combined is a known plan");
    let faulted = Clydesdale::new(fault_dfs, fault_layout).with_faults(Arc::new(plan));
    faulted.warm_dimension_cache()?;

    let mut out = Vec::with_capacity(13);
    for query in all_queries() {
        let c = clean.query(&query)?;
        let f = faulted.query(&query)?;
        assert_eq!(
            c.rows, f.rows,
            "{}: recovery must be transparent under faults",
            query.id
        );
        let p = &f.profile;
        out.push(FaultImpact {
            query_id: query.id.clone(),
            clean_s: c.total_s(),
            faulted_s: f.total_s(),
            failed_attempts: p.failed_attempts,
            speculative_attempts: p.speculative_attempts,
            speculative_wins: p.speculative_wins,
            dead_nodes: p.dead_nodes.len(),
            rereplicated_blocks: p.rereplicated_blocks,
            wasted_s: p
                .killed_attempts
                .iter()
                .map(|k| k.busy_s)
                .sum::<f64>()
                .max(0.0),
        });
    }
    Ok(out)
}

/// Scales measured profiles to a target (cluster, SF) and prices them.
pub struct Extrapolator {
    pub target_cluster: ClusterSpec,
    pub target_sf: f64,
    pub measured_sf: f64,
    pub seed: u64,
    pub params: CostParams,
}

impl Extrapolator {
    pub fn new(target_cluster: ClusterSpec, target_sf: f64, m: &Measurements) -> Extrapolator {
        Extrapolator {
            target_cluster,
            target_sf,
            measured_sf: m.config.sf,
            seed: m.config.seed,
            params: CostParams::paper(),
        }
    }

    fn fact_factor(&self) -> f64 {
        let a = SsbGen::new(self.measured_sf, self.seed).num_lineorders() as f64;
        let b = SsbGen::new(self.target_sf, self.seed).num_lineorders() as f64;
        b / a
    }

    fn dim_cardinality(&self, sf: f64, table: &str) -> f64 {
        SsbGen::new(sf, self.seed).cardinality(table) as f64
    }

    /// Cardinality growth of the dimensions a query joins.
    fn dims_factor(&self, query: &StarQuery) -> f64 {
        let small: f64 = query
            .joins
            .iter()
            .map(|j| self.dim_cardinality(self.measured_sf, &j.dimension))
            .sum();
        let big: f64 = query
            .joins
            .iter()
            .map(|j| self.dim_cardinality(self.target_sf, &j.dimension))
            .sum();
        big / small.max(1.0)
    }

    fn dim_factor_for(&self, dimension: &str) -> f64 {
        self.dim_cardinality(self.target_sf, dimension)
            / self.dim_cardinality(self.measured_sf, dimension).max(1.0)
    }

    /// Dimension factor for a one-build-per-node profile: hash tables are
    /// built once per participating node, so total build work at the target
    /// is `target_nodes × target_dim_rows`, NOT a per-row scaling of the
    /// measured total (which came from a different node count).
    fn per_node_build_factor(&self, query: &StarQuery, profile: &JobProfile) -> f64 {
        let measured_build = profile.total_map_cost().build_rows.max(1) as f64;
        let target_dim_rows: f64 = query
            .joins
            .iter()
            .map(|j| self.dim_cardinality(self.target_sf, &j.dimension))
            .sum();
        self.target_cluster.num_workers() as f64 * target_dim_rows / measured_build
    }

    /// Simulated Clydesdale time for a query (Err = out of memory).
    pub fn clyde_time(&self, qm: &QueryMeasurement) -> Result<f64> {
        let e = self.extrapolate_one_per_node(&qm.query, &qm.clyde);
        let cost = e.price(&self.params, &self.target_cluster)?;
        let sort = qm.result_rows as f64 / self.params.sort_records_per_s + 0.5;
        Ok(cost.total_s() + sort)
    }

    /// Extrapolate a one-task-per-node profile (Clydesdale's job shape),
    /// with builds scaled per node.
    pub fn extrapolate_one_per_node(&self, query: &StarQuery, profile: &JobProfile) -> JobProfile {
        let mut e = profile.extrapolate(&Extrapolation {
            fact_factor: self.fact_factor(),
            dim_factor: self.per_node_build_factor(query, profile),
            cluster: self.target_cluster.clone(),
            map_tasks: MapTaskScaling::OnePerNode,
            map_concurrency: 1,
        });
        // Shared memory is one copy per node; it grows with dimension
        // cardinality only, not with node count.
        e.memory_shared = (profile.memory_shared as f64 * self.dims_factor(query)).round() as u64;
        e
    }

    /// Simulated time of one ablated Clydesdale variant.
    pub fn ablation_time(&self, qm: &QueryMeasurement, which: Ablation) -> Result<f64> {
        let profile = qm
            .ablations
            .iter()
            .find(|(name, _)| *name == which.name())
            .map(|(_, p)| p)
            .expect("measurement did not include ablations");
        let e = match which {
            // MT off: normal split-granularity single-threaded tasks, every
            // task rebuilding its own tables, so total build work = (target
            // task count) × (target dimension rows).
            Ablation::NoMultithreading => {
                let total = profile.total_map_cost();
                let measured_build = total.build_rows.max(1) as f64;
                let target_bytes =
                    (total.local_bytes + total.remote_bytes) as f64 * self.fact_factor();
                let target_tasks = (target_bytes / MT_OFF_SPLIT_BYTES as f64).max(1.0).ceil();
                let target_dim_rows: f64 = qm
                    .query
                    .joins
                    .iter()
                    .map(|j| self.dim_cardinality(self.target_sf, &j.dimension))
                    .sum();
                let mut e = profile.extrapolate(&Extrapolation {
                    fact_factor: self.fact_factor(),
                    dim_factor: target_tasks * target_dim_rows / measured_build,
                    cluster: self.target_cluster.clone(),
                    map_tasks: MapTaskScaling::BySplitBytes {
                        split_bytes: MT_OFF_SPLIT_BYTES,
                    },
                    map_concurrency: self.target_cluster.map_slots,
                });
                // Memory per slot is one table copy per *concurrent* task;
                // it grows with dimension cardinality, not with total task
                // count (the build dim-factor above intentionally includes
                // the task count, so memory must be reset here).
                e.memory_per_slot =
                    (profile.memory_per_slot as f64 * self.dims_factor(&qm.query)).round() as u64;
                e
            }
            // The others keep the one-task-per-node shape (per-node builds).
            _ => self.extrapolate_one_per_node(&qm.query, profile),
        };
        let cost = e.price(&self.params, &self.target_cluster)?;
        let sort = qm.result_rows as f64 / self.params.sort_records_per_s + 0.5;
        Ok(cost.total_s() + sort)
    }

    /// Simulated time of one Hive stage (join `i`, group-by, or order-by).
    /// `Err(OOM)` means that stage's hash table cannot fit (mapjoin).
    pub fn hive_stage_time(
        &self,
        m: &Measurements,
        qm: &QueryMeasurement,
        strategy: JoinStrategy,
        i: usize,
    ) -> Result<f64> {
        let stages = match strategy {
            JoinStrategy::MapJoin => &qm.hive_mapjoin,
            JoinStrategy::Repartition => &qm.hive_repartition,
        };
        assert!(!stages.is_empty(), "measurement did not include hive");
        let stage = &stages[i];
        let fact_f = self.fact_factor();
        let n_joins = qm.query.joins.len();
        // Apply the SequenceFile bloat to intermediate I/O: stages after the
        // first read a previous stage's output, and join + group-by stages
        // write one.
        let reads_intermediate = i >= 1;
        let writes_intermediate = i < n_joins + 1;
        let stage = bloat_stage_bytes(
            stage,
            if reads_intermediate {
                HIVE_INTERMEDIATE_BLOAT
            } else {
                1.0
            },
            if writes_intermediate {
                HIVE_INTERMEDIATE_BLOAT
            } else {
                1.0
            },
        );
        let (dim_factor, scaling) = if i < n_joins {
            let dim = &qm.query.joins[i].dimension;
            let scaling = if i == 0 {
                // Stage 1 splits derive from the fact table's *file* size:
                // column pruning does not reduce Hadoop's split count (the
                // paper could not decrease it either).
                let target_rc = m.rc_fact_bytes as f64 * fact_f;
                MapTaskScaling::Fixed((target_rc / HIVE_SPLIT_BYTES as f64).ceil() as u64)
            } else {
                MapTaskScaling::BySplitBytes {
                    split_bytes: HIVE_SPLIT_BYTES,
                }
            };
            (self.dim_factor_for(dim), scaling)
        } else {
            (
                1.0,
                MapTaskScaling::BySplitBytes {
                    split_bytes: HIVE_SPLIT_BYTES,
                },
            )
        };
        let e = stage.extrapolate(&Extrapolation {
            fact_factor: fact_f,
            dim_factor,
            cluster: self.target_cluster.clone(),
            map_tasks: scaling,
            map_concurrency: self.target_cluster.map_slots,
        });
        Ok(e.price(&self.params, &self.target_cluster)?.total_s())
    }

    /// Simulated Hive time for a query under one strategy. `Err(OOM)` means
    /// the plan cannot run on the target cluster (the paper's cluster-A
    /// mapjoin failures).
    pub fn hive_time(
        &self,
        m: &Measurements,
        qm: &QueryMeasurement,
        strategy: JoinStrategy,
    ) -> Result<f64> {
        let n_stages = match strategy {
            JoinStrategy::MapJoin => qm.hive_mapjoin.len(),
            JoinStrategy::Repartition => qm.hive_repartition.len(),
        };
        let mut total = 0.0;
        for i in 0..n_stages {
            total += self.hive_stage_time(m, qm, strategy, i)?;
        }
        Ok(total)
    }
}

/// Multiply a stage profile's scan-input bytes by `in_f` and its DFS-output
/// bytes by `out_f` (see [`HIVE_INTERMEDIATE_BLOAT`]).
fn bloat_stage_bytes(p: &JobProfile, in_f: f64, out_f: f64) -> JobProfile {
    let mut out = p.clone();
    let s = |v: u64, f: f64| ((v as f64) * f).round() as u64;
    for t in &mut out.map_tasks {
        t.cost.local_bytes = s(t.cost.local_bytes, in_f);
        t.cost.remote_bytes = s(t.cost.remote_bytes, in_f);
        t.cost.output_bytes = s(t.cost.output_bytes, out_f);
    }
    for t in &mut out.reduce_tasks {
        t.cost.output_bytes = s(t.cost.output_bytes, out_f);
    }
    out
}

/// The whole of `fig7` / `fig8`: execute all 13 SSB queries for real at the
/// measurement scale (validating every answer), extrapolate to SF1000 on
/// `cluster` with the calibrated cost model, and print Clydesdale against
/// both Hive plans beside what the paper reports for that cluster
/// (`paper_speedup` is min / max / avg; `paper_oom` the mapjoin plans that
/// ran out of memory).
pub fn figure_vs_hive(
    figure: u32,
    cluster: ClusterSpec,
    paper_speedup: [f64; 3],
    paper_oom: &[&str],
) {
    let args = crate::cli::parse(
        &format!("usage: fig{figure} [measurement-sf] [--trace <out.json>] [--faults <seed>]"),
        &["--trace", "--faults"],
        &[],
    );
    let sf = args.sf(0.02);
    let obs = args.obs();
    let config = MeasurementConfig {
        sf,
        ..MeasurementConfig::default()
    };
    eprintln!(
        "measuring all 13 SSB queries at SF {sf} (Clydesdale + Hive mapjoin + Hive repartition), validating results..."
    );
    let m = measure_with_obs(
        &config,
        MeasureWhat {
            hive: true,
            ablations: false,
        },
        Arc::clone(&obs),
    )
    .expect("measurement failed");
    args.write_trace(&obs);
    let cluster_label = cluster.name.replace('-', " ");
    let hardware = format!(
        "{} workers x {} cores / {} GB / {} disks",
        cluster.workers,
        cluster.node.cores,
        cluster.node.memory_bytes >> 30,
        cluster.node.disks
    );
    let ex = Extrapolator::new(cluster, 1000.0, &m);

    let mut rows = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut ooms = Vec::new();
    for qm in &m.queries {
        let clyde = ex.clyde_time(qm).expect("clydesdale never OOMs");
        let rp = ex
            .hive_time(&m, qm, JoinStrategy::Repartition)
            .expect("repartition never OOMs");
        speedups.push(rp / clyde);
        let (mj_cell, mj_speedup) = match ex.hive_time(&m, qm, JoinStrategy::MapJoin) {
            Ok(t) => {
                speedups.push(t / clyde);
                (secs(t), speedup(t / clyde))
            }
            Err(_) => {
                ooms.push(qm.query.id.as_str());
                ("OOM-FAILED".to_string(), "-".to_string())
            }
        };
        rows.push(vec![
            qm.query.id.clone(),
            secs(clyde),
            secs(rp),
            speedup(rp / clyde),
            mj_cell,
            mj_speedup,
        ]);
    }

    println!("\nFigure {figure}: SSB at SF1000 on {cluster_label} ({hardware})\n");
    println!(
        "{}",
        render_table(
            &[
                "query",
                "Clydesdale",
                "Hive-repartition",
                "speedup",
                "Hive-mapjoin",
                "speedup",
            ],
            &rows,
        )
    );
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("speedup over Hive: min {min:.1}x  max {max:.1}x  avg {avg:.1}x");
    let [paper_min, paper_max, paper_avg] = paper_speedup;
    println!("paper reports:     min {paper_min:.1}x  max {paper_max:.1}x  avg {paper_avg:.1}x");
    let paper_oom = if paper_oom.is_empty() {
        format!("none on {cluster_label}")
    } else {
        format!("{paper_oom:?}")
    };
    println!("mapjoin OOM failures (paper: {paper_oom}): {ooms:?}");

    if let Some(seed) = args.faults() {
        eprintln!("\nre-running all 13 queries under the `combined` fault plan (seed {seed})...");
        let impacts = fault_impact(&config, seed).expect("fault impact run failed");
        println!(
            "\nFault impact (combined plan, seed {seed}, measurement scale SF {sf}): \
             every answer identical to the fault-free run\n"
        );
        println!("{}", render_fault_impact(&impacts));
    }
}

/// Which feature is disabled (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    NoColumnar,
    NoBlockIteration,
    NoMultithreading,
    NoZoneSkipping,
}

impl Ablation {
    /// The name of the [`Features::ablations`] point this column prices —
    /// the key its profile is measured and stored under.
    pub fn name(self) -> &'static str {
        match self {
            Ablation::NoColumnar => "no-columnar",
            Ablation::NoBlockIteration => "no-block-iteration",
            Ablation::NoMultithreading => "no-multithreading",
            Ablation::NoZoneSkipping => "no-zone-skipping",
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Ablation::NoColumnar => "columnar off",
            Ablation::NoBlockIteration => "block iteration off",
            Ablation::NoMultithreading => "multithreading off",
            Ablation::NoZoneSkipping => "zone skipping off",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> MeasurementConfig {
        MeasurementConfig {
            sf: 0.004,
            seed: 46,
            workers: 2,
            rows_per_group: 2_000,
        }
    }

    #[test]
    fn measurement_and_extrapolation_reproduce_the_headline() {
        let m = measure(
            &tiny_config(),
            MeasureWhat {
                hive: true,
                ablations: false,
            },
        )
        .unwrap();
        assert_eq!(m.queries.len(), 13);
        let ex = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, &m);
        // The headline: Clydesdale beats both Hive plans on every query.
        for qm in &m.queries {
            let clyde = ex.clyde_time(qm).unwrap();
            assert!(clyde > 0.0);
            let rp = ex.hive_time(&m, qm, JoinStrategy::Repartition).unwrap();
            assert!(
                rp / clyde > 5.0,
                "{}: repartition speedup only {:.1}",
                qm.query.id,
                rp / clyde
            );
            match ex.hive_time(&m, qm, JoinStrategy::MapJoin) {
                Ok(mj) => assert!(
                    mj / clyde > 3.0,
                    "{}: mapjoin speedup only {:.1}",
                    qm.query.id,
                    mj / clyde
                ),
                Err(e) => assert!(e.is_oom()),
            }
        }
    }

    #[test]
    fn mapjoin_oom_set_matches_paper_on_cluster_a_only() {
        let m = measure(
            &tiny_config(),
            MeasureWhat {
                hive: true,
                ablations: false,
            },
        )
        .unwrap();
        let on_a = Extrapolator::new(ClusterSpec::cluster_a(), 1000.0, &m);
        let on_b = Extrapolator::new(ClusterSpec::cluster_b(), 1000.0, &m);
        let mut failed_a = Vec::new();
        for qm in &m.queries {
            if on_a.hive_time(&m, qm, JoinStrategy::MapJoin).is_err() {
                failed_a.push(qm.query.id.clone());
            }
            assert!(
                on_b.hive_time(&m, qm, JoinStrategy::MapJoin).is_ok(),
                "{} must complete on cluster B",
                qm.query.id
            );
        }
        assert_eq!(
            failed_a,
            crate::paper::cluster_a::MAPJOIN_OOM.to_vec(),
            "cluster-A OOM set must match the paper"
        );
    }
}
