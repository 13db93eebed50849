//! The four workloads, the system under test, and one op through it.
//!
//! Load shape: closed loop, one client thread — the next op is issued when
//! the previous one returns. The system is cluster A's node shape with two
//! workers and one host thread per map task, so at most two threads are busy
//! (the reference box has two cores).

use clyde_common::hash::FxHasher;
use clyde_common::obs::{Obs, WallTimer};
use clyde_common::{row, Result, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::JobProfile;
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
use clyde_ssb::queries::StarQuery;
use clyde_ssb::{query_by_id, schema};
use clydesdale::{Clydesdale, Features};
use std::hash::Hasher;
use std::sync::Arc;

pub const ROWS_PER_GROUP: u64 = 8_000;
pub const STRATEGIES: [JoinStrategy; 2] = [JoinStrategy::MapJoin, JoinStrategy::Repartition];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClydeScan,
    ClydeBuild,
    HiveChain,
    BulkLoad,
}

/// `Full` is what the driver measures; `Check` is the tiny self-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClydeScan,
        Workload::ClydeBuild,
        Workload::HiveChain,
        Workload::BulkLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClydeScan => "clyde_scan",
            Workload::ClydeBuild => "clyde_build",
            Workload::HiveChain => "hive_chain",
            Workload::BulkLoad => "bulk_load",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scale factors are sized so one run (three set-ups, a warm-up pass, the
    /// measured window and the reference check) fits the driver's budget and
    /// the window still holds well over 100 ops.
    pub fn sf(self, scale: Scale) -> f64 {
        match (scale, self) {
            (Scale::Check, _) => 0.004,
            (Scale::Full, Workload::ClydeScan | Workload::ClydeBuild) => 0.2,
            (Scale::Full, Workload::HiveChain) => 0.01,
            (Scale::Full, Workload::BulkLoad) => 0.008,
        }
    }

    pub fn query_ids(self) -> &'static [&'static str] {
        match self {
            // Small dimensions only: scan, decode, probe and per-job overhead.
            Workload::ClydeScan => &["Q1.1", "Q1.2", "Q1.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4"],
            // Every query joins `part`: dimension fetch, decode and hash build.
            Workload::ClydeBuild => &["Q2.1", "Q2.2", "Q2.3", "Q4.1", "Q4.2", "Q4.3"],
            Workload::HiveChain => &["Q1.1", "Q2.1", "Q3.1", "Q4.1"],
            Workload::BulkLoad => &[],
        }
    }

    /// One pass: every op of the workload, in a fixed order.
    pub fn pass(self) -> Result<Vec<Op>> {
        let queries: Vec<StarQuery> = self
            .query_ids()
            .iter()
            .map(|id| query_by_id(id))
            .collect::<Result<_>>()?;
        Ok(match self {
            Workload::ClydeScan | Workload::ClydeBuild => queries
                .into_iter()
                .map(|q| Op {
                    label: q.id.clone(),
                    kind: OpKind::Clyde(q),
                })
                .collect(),
            Workload::HiveChain => (0..STRATEGIES.len())
                .flat_map(|s| {
                    queries.iter().map(move |q| Op {
                        label: format!("{}.{}", STRATEGIES[s].label(), q.id),
                        kind: OpKind::Hive(s, q.clone()),
                    })
                })
                .collect(),
            Workload::BulkLoad => vec![Op {
                label: "load".into(),
                kind: OpKind::Load,
            }],
        })
    }

    fn load_opts(self) -> LoadOpts {
        LoadOpts {
            rows_per_group: ROWS_PER_GROUP,
            cif: self != Workload::HiveChain,
            rcfile: matches!(self, Workload::HiveChain | Workload::BulkLoad),
            text: false,
            cluster_by_date: true,
        }
    }
}

pub struct Op {
    pub label: String,
    pub kind: OpKind,
}

pub enum OpKind {
    Clyde(StarQuery),
    /// Index into [`STRATEGIES`], and the query.
    Hive(usize, StarQuery),
    /// `loader::load` of the whole database into a fresh DFS.
    Load,
}

/// What one op returned: the rows that are verified, and what the engine
/// reported about its own execution (one profile per MapReduce job).
pub struct OpOut {
    pub rows: Vec<Row>,
    pub profiles: Vec<JobProfile>,
    pub sim_s: f64,
}

pub struct Engines {
    clyde: Option<Clydesdale>,
    hive: Vec<Hive>,
}

pub struct System {
    pub workload: Workload,
    pub gen: SsbGen,
    pub layout: SsbLayout,
    /// For `bulk_load`, the DFS the most recent op loaded.
    pub dfs: Arc<Dfs>,
    pub plain: Engines,
    /// A second set of engines over the same DFS with observability on.
    pub observed: Option<(Arc<Obs>, Engines)>,
    /// Fact-table bytes on the DFS before replication.
    pub stored_fact_bytes: u64,
    /// Wall seconds `loader::load` took during set-up.
    pub load_s: f64,
}

pub fn new_dfs() -> Arc<Dfs> {
    Dfs::new(
        ClusterSpec {
            workers: 2,
            ..ClusterSpec::cluster_a()
        },
        DfsOptions {
            block_size: 8 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    )
}

impl System {
    /// Generate the data, load it and warm the dimension caches. With
    /// `observe`, also build engines that record into an enabled `Obs` hub.
    pub fn set_up(workload: Workload, scale: Scale, seed: u64, observe: bool) -> Result<System> {
        let gen = SsbGen::new(workload.sf(scale), seed);
        let layout = SsbLayout::default();
        let dfs = new_dfs();
        let timer = WallTimer::start();
        let ds = loader::load(&dfs, gen, &layout, &workload.load_opts())?;
        let load_s = timer.elapsed_s();
        let plain = Engines::new(workload, &dfs, &layout, Obs::disabled())?;
        let observed = if observe {
            let obs = Obs::enabled();
            let engines = Engines::new(workload, &dfs, &layout, Arc::clone(&obs))?;
            Some((obs, engines))
        } else {
            None
        };
        Ok(System {
            workload,
            gen,
            layout,
            dfs,
            plain,
            observed,
            stored_fact_bytes: ds.fact_bytes_cif + ds.fact_bytes_rc,
            load_s,
        })
    }

    pub fn fact_rows(&self) -> u64 {
        self.gen.num_lineorders() as u64
    }

    pub fn exec(&mut self, op: &Op, observed: bool) -> Result<OpOut> {
        let engines = match (&self.observed, observed) {
            (Some((_, e)), true) => e,
            _ => &self.plain,
        };
        match &op.kind {
            OpKind::Clyde(q) => {
                let clyde = engines
                    .clyde
                    .as_ref()
                    .expect("clyde workload has the engine");
                let r = clyde.query(q)?;
                Ok(OpOut {
                    sim_s: r.total_s(),
                    rows: r.rows,
                    profiles: vec![r.profile],
                })
            }
            OpKind::Hive(s, q) => {
                let r = engines.hive[*s].query(q)?;
                Ok(OpOut {
                    sim_s: r.total_s(),
                    rows: r.rows,
                    profiles: r.stages.into_iter().map(|s| s.profile).collect(),
                })
            }
            OpKind::Load => {
                let dfs = new_dfs();
                let ds = loader::load(&dfs, self.gen, &self.layout, &self.workload.load_opts())?;
                self.dfs = dfs;
                let rows = ds.cif_meta.map_or(0, |m| m.total_rows());
                Ok(OpOut {
                    rows: vec![row![
                        ds.fact_bytes_cif as i64,
                        ds.fact_bytes_rc as i64,
                        rows as i64
                    ]],
                    profiles: Vec::new(),
                    sim_s: 0.0,
                })
            }
        }
    }
}

impl Engines {
    fn new(
        workload: Workload,
        dfs: &Arc<Dfs>,
        layout: &SsbLayout,
        obs: Arc<Obs>,
    ) -> Result<Engines> {
        let mut engines = Engines {
            clyde: None,
            hive: Vec::new(),
        };
        match workload {
            Workload::ClydeScan | Workload::ClydeBuild => {
                let clyde =
                    Clydesdale::with_features(Arc::clone(dfs), layout.clone(), Features::default())
                        .with_host_threads(1)
                        .with_obs(obs);
                clyde.warm_dimension_cache()?;
                engines.clyde = Some(clyde);
            }
            Workload::HiveChain => {
                engines.hive = STRATEGIES
                    .iter()
                    .map(|&s| {
                        Hive::new(Arc::clone(dfs), layout.clone(), s).with_obs(Arc::clone(&obs))
                    })
                    .collect();
            }
            Workload::BulkLoad => {}
        }
        Ok(engines)
    }

    /// The Clydesdale engine, whose node-local dimension store the replay
    /// reads through.
    pub fn clyde(&self) -> Option<&Clydesdale> {
        self.clyde.as_ref()
    }
}

/// Fingerprint of every file a load left under `layout.root`: path, length
/// and content. Two loads of the same data must agree on it.
pub fn dfs_fingerprint(dfs: &Dfs, layout: &SsbLayout) -> Result<i64> {
    let mut h = FxHasher::default();
    for path in dfs.list(&format!("{}/", layout.root)) {
        let data = dfs.read_file(&path, None)?;
        h.write(path.as_bytes());
        h.write_u64(data.len() as u64);
        h.write(&data);
    }
    Ok(h.finish() as i64)
}

/// The fact rows in the order the loader stores them (stable by order date).
pub fn fact_rows_as_loaded(gen: &SsbGen) -> Result<Vec<Row>> {
    let mut rows = Vec::with_capacity(gen.num_lineorders());
    gen.for_each_lineorder(|r| {
        rows.push(r.clone());
        Ok(())
    })?;
    let date_col = schema::lineorder_schema().index_of("lo_orderdate")?;
    rows.sort_by_key(|r| r.at(date_col).as_i64());
    Ok(rows)
}
