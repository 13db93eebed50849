//! Layer replay: redo one op's work step by step through the layers' public
//! functions, one span per call, so that wall time can be attributed to a
//! layer from outside it.
//!
//! The replay is serial (node after node) where the engine runs its nodes in
//! parallel, so its spans sum to *busy* time, not elapsed time. What makes
//! the numbers trustworthy is the check the caller applies: the rows a
//! replay returns must equal the rows the engine returned for the same op.

use crate::trace::{Cat, Tracer};
use crate::workload::{dfs_fingerprint, new_dfs, Op, OpKind, System, ROWS_PER_GROUP, STRATEGIES};
use clyde_columnar::encoding::{choose_encoding, decode_column, encode_column};
use clyde_columnar::input::SlicedBlockReader;
use clyde_columnar::{
    peek_zone_map, roll_out, CifAppender, CifReader, CifTableMeta, RcFileInputFormat, RcFileWriter,
    ZonePred, ZONE_HEADER_MAX,
};
use clyde_common::lockorder::Mutex;
use clyde_common::{
    keycodec, row, rowcodec, ClydeError, Datum, FxHashMap, Result, Row, RowBlock, RowBlockBuilder,
    Schema,
};
use clyde_dfs::{Dfs, NodeId, NodeLocalStore};
use clyde_hive::mapjoin::{build_and_publish, joined_schema, MapJoinRunner};
use clyde_hive::repartition::{RepartitionMapper, RepartitionReducer};
use clyde_hive::stages::{EmitValues, FoldValues, GroupByMapper, OrderByMapper};
use clyde_hive::union::TaggedUnionInputFormat;
use clyde_hive::JoinStrategy;
use clyde_mapred::formats::RowBinInputFormat;
use clyde_mapred::runner::RowMapRunner;
use clyde_mapred::task::{MapOutputBuffer, MemoryLedger, MemoryTracker};
use clyde_mapred::{
    scheduler, shuffle, BlockReader, DistCache, InputFormat, InputSplit, JobConf, JobSpec,
    MapTaskContext, NodeState, OutputSpec, Reader, RecordReader, SplitSpec, TaskCost, TaskIo,
};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::StarQuery;
use clyde_ssb::schema as ssb_schema;
use clydesdale::planner::{plan_query, scan_schema, zone_preds, ROWS_PER_BLOCK};
use clydesdale::probe::{probe_block_vec, GroupAcc, GroupLayout, ProbePlan, ProbeStats, SelBuf};
use clydesdale::{DimTables, Features, KernelOpts};
use std::sync::Arc;

type Records = Vec<(Vec<u8>, Row)>;
/// (key, value) records as a reader hands them to a mapper.
type InputRecords = Vec<(Row, Row)>;

/// Replay `op` and return the rows it produces, in the shape `System::exec`
/// returns them for the same op.
pub fn replay_op(t: &mut Tracer, sys: &System, op: &Op) -> Result<Vec<Row>> {
    t.set_lane(0);
    let root = t.begin("replay.op", Cat::Replay);
    let rows = match &op.kind {
        OpKind::Clyde(q) => replay_clyde(t, sys, q),
        OpKind::Hive(s, q) => replay_hive(t, sys, STRATEGIES[*s], q),
        OpKind::Load => replay_load(t, sys),
    };
    t.set_lane(0);
    t.end(root);
    rows
}

// ---------------------------------------------------------------------------
// One MapReduce job, the way `Engine::run_job` runs it.
// ---------------------------------------------------------------------------

/// Run `spec` with `map_task` standing in for the engine's map attempt: it
/// returns one split's map output records, unsorted. Returns the rows of a
/// job whose output is `OutputSpec::Memory`.
fn replay_job(
    t: &mut Tracer,
    dfs: &Arc<Dfs>,
    spec: &JobSpec,
    mut map_task: impl FnMut(&mut Tracer, &InputSplit, NodeId, &TaskIo) -> Result<Records>,
) -> Result<Vec<Row>> {
    let cluster = dfs.cluster();
    let splits = t.time("columnar.input.splits", || {
        spec.input.splits(dfs, &spec.conf)
    })?;
    let assignment = scheduler::assign_map_tasks(&splits, cluster);
    let map_only = spec.reducer.is_none();
    let mut rows: Vec<Row> = Vec::new();
    let mut outputs: Vec<Records> = Vec::with_capacity(splits.len());

    for (split, &node) in splits.iter().zip(&assignment) {
        t.set_lane(1 + node.0 as u32);
        let task = t.begin("replay.map_task", Cat::Replay);
        let io = TaskIo::new(Arc::clone(dfs), node);
        let mut records = map_task(t, split, node, &io)?;
        if map_only {
            let out_rows: Vec<Row> = t.time("common.keycodec.decode_row", || {
                records
                    .drain(..)
                    .map(|(k, v)| Ok(keycodec::decode_row(&k)?.concat(&v)))
                    .collect::<Result<_>>()
            })?;
            match &spec.output {
                OutputSpec::Memory => rows.extend(out_rows),
                OutputSpec::DfsDir(dir) => {
                    write_part(
                        t,
                        dfs,
                        &format!("{dir}/part-m-{:05}", split.index),
                        &out_rows,
                    )?;
                }
            }
        } else {
            t.count("mapred.sort_records", records.len() as u64);
            t.time("mapred.shuffle.sort_records", || {
                shuffle::sort_records(&mut records)
            });
            if let Some(comb) = &spec.combiner {
                records = t.time("mapred.shuffle.combine_sorted", || {
                    shuffle::combine_sorted(records, &**comb)
                })?;
            }
        }
        outputs.push(records);
        t.end(task);
    }
    t.set_lane(0);

    if let Some(reducer) = &spec.reducer {
        let parts = spec.num_reducers.max(1);
        let mut runs: Vec<Vec<Records>> = t.time("mapred.shuffle.partition", || {
            let mut runs: Vec<Vec<Records>> = (0..parts).map(|_| Vec::new()).collect();
            for records in outputs {
                let mut per_part: Vec<Records> = (0..parts).map(|_| Vec::new()).collect();
                for (k, v) in records {
                    per_part[shuffle::partition_of(&k, parts)].push((k, v));
                }
                for (p, run) in per_part.into_iter().enumerate() {
                    if !run.is_empty() {
                        runs[p].push(run);
                    }
                }
            }
            runs
        });
        for (r, task_runs) in runs.iter_mut().enumerate() {
            let task_runs = std::mem::take(task_runs);
            let merged = t.time("mapred.shuffle.merge_sorted_runs", || {
                shuffle::merge_sorted_runs(task_runs)
            });
            t.count("mapred.merge_records", merged.len() as u64);
            let mut out_rows = Vec::new();
            t.time("mapred.shuffle.reduce_sorted", || {
                shuffle::reduce_sorted(&merged, &**reducer, &mut out_rows)
            })?;
            t.count("mapred.reduce_records", merged.len() as u64);
            match &spec.output {
                OutputSpec::Memory => rows.append(&mut out_rows),
                OutputSpec::DfsDir(dir) => {
                    write_part(t, dfs, &format!("{dir}/part-r-{r:05}"), &out_rows)?;
                }
            }
        }
    }
    Ok(rows)
}

/// Write one row-binary part file, as the engine commits task output.
fn write_part(t: &mut Tracer, dfs: &Arc<Dfs>, path: &str, rows: &[Row]) -> Result<()> {
    let payload = t.time("common.rowcodec.write_rows", || rowcodec::write_rows(rows));
    t.count("rowcodec.encode_bytes", payload.len() as u64);
    t.count("dfs.write_bytes", payload.len() as u64);
    t.time("dfs.write_file", || dfs.write_file(path, None, &payload))
}

// ---------------------------------------------------------------------------
// Clydesdale: plan → splits → per node (fetch, decode, build, scan, probe,
// emit) → shuffle → reduce → final sort.
// ---------------------------------------------------------------------------

fn replay_clyde(t: &mut Tracer, sys: &System, q: &StarQuery) -> Result<Vec<Row>> {
    let features = Features::default();
    let clyde = sys.plain.clyde().expect("clyde workload has the engine");
    let local = Arc::clone(clyde.engine().local_store());
    let spec = t.time("core.planner.plan_query", || {
        plan_query(q, &sys.layout, features, sys.dfs.cluster())
    })?;
    let (scan_cols, scan) = scan_schema(q, &features)?;
    let zones = zone_preds(q);
    let map = ClydeMap {
        q,
        features,
        layout: &sys.layout,
        local: &local,
        scan_cols: &scan_cols,
        scan: &scan,
        zones: &zones,
    };
    let mut rows = replay_job(t, &sys.dfs, &spec, |t, split, node, io| {
        map.run(t, split, node, io)
    })?;
    t.time("ssb.queries.finish_result", || q.finish_result(&mut rows));
    Ok(rows)
}

/// What `MtMapRunner` does for one node's multi-split, unrolled.
struct ClydeMap<'a> {
    q: &'a StarQuery,
    features: Features,
    layout: &'a SsbLayout,
    local: &'a NodeLocalStore,
    scan_cols: &'a [String],
    scan: &'a Schema,
    zones: &'a [ZonePred],
}

impl ClydeMap<'_> {
    fn run(
        &self,
        t: &mut Tracer,
        split: &InputSplit,
        node: NodeId,
        io: &TaskIo,
    ) -> Result<Records> {
        let q = self.q;
        // Dimension rows: node-local fetch, then row-binary decode.
        let mut dims: Vec<Vec<Row>> = Vec::with_capacity(q.joins.len());
        for join in &q.joins {
            let path = self.layout.dim_bin(&join.dimension);
            let data = t.time("dfs.local.get_or_fetch", || {
                self.local.get_or_fetch(node, &path, &io.dfs)
            })?;
            let rows = t.time("common.rowcodec.read_rows", || rowcodec::read_rows(&data))?;
            t.count("rowcodec.decode_rows", rows.len() as u64);
            dims.push(rows);
        }
        let mut dims = dims.into_iter();
        let tables = t.time("core.hashtable.build_all_with", || {
            DimTables::build_all_with(&q.joins, self.features.dict_predicates, |_| {
                dims.next()
                    .ok_or_else(|| ClydeError::Plan("more joins than fetched dimensions".into()))
            })
        })?;
        t.count("core.hashtable.build_rows", tables.build_rows);
        let (plan, layout) = t.time("core.probe.compile", || -> Result<_> {
            let plan = ProbePlan::compile(q, self.scan)?;
            let layout = GroupLayout::new(&plan, &tables)
                .ok_or_else(|| ClydeError::Plan("packed group key does not fit".into()))?;
            Ok((plan, layout))
        })?;

        let SplitSpec::Groups { base, groups } = &split.spec else {
            return Err(ClydeError::MapReduce("CIF expects group splits".into()));
        };
        let kopts = KernelOpts::from_features(&self.features);
        let mut acc = GroupAcc::new(&layout, &q.aggregate);
        let mut buf = SelBuf::default();
        let mut stats = ProbeStats::default();
        for &group in groups {
            // The input format re-opens the table (a `_meta` read) per part.
            let reader = t.time("columnar.cif.open", || CifReader::open(&io.dfs, base))?;
            let pruned = t.time("columnar.input.zone_check", || {
                self.zone_prunes(&reader, group, io)
            })?;
            if pruned {
                continue;
            }
            let read = t.begin("columnar.cif.read_group", Cat::Replay);
            let mut columns = Vec::with_capacity(self.scan_cols.len());
            for col in self.scan_cols {
                let path = reader.meta().column_path(group, col);
                let data = t.time("dfs.read_file", || io.read_file(&path))?;
                t.count("dfs.read_bytes", data.len() as u64);
                t.count("columnar.decode_bytes", data.len() as u64);
                columns.push(t.time("columnar.encoding.decode_column", || decode_column(&data))?);
            }
            let block = RowBlock::new(columns)?;
            t.end(read);
            t.time("core.probe.probe_block_vec", || -> Result<()> {
                let mut blocks = SlicedBlockReader::new(block, ROWS_PER_BLOCK);
                while let Some(b) = blocks.next_block()? {
                    probe_block_vec(
                        &b, &plan, &tables, &layout, &mut acc, &mut buf, &mut stats, kopts,
                    )?;
                }
                Ok(())
            })?;
        }
        t.count("core.probe.rows", stats.rows);
        t.count("core.probe.survivors", stats.survivors);

        // Emit one record per group, in key order.
        let groups_out: Vec<(Row, i64)> = t.time("core.probe.rematerialize", || {
            let agg = &q.aggregate;
            let mut by_row: FxHashMap<Row, i64> = FxHashMap::default();
            for (key, v) in acc.entries() {
                let slot = by_row
                    .entry(layout.rematerialize(key, &tables))
                    .or_insert_with(|| agg.identity());
                *slot = agg.fold(*slot, v);
            }
            let mut out: Vec<(Row, i64)> = by_row.into_iter().collect();
            out.sort();
            out
        });
        t.count("keycodec.keys", groups_out.len() as u64);
        Ok(t.time("common.keycodec.encode_row", || {
            groups_out
                .iter()
                .map(|(k, v)| (keycodec::encode_row(k), Row::new(vec![Datum::I64(*v)])))
                .collect()
        }))
    }

    /// `CifInputFormat`'s zone-map check: one header-sized read per predicate
    /// column; `true` when the group cannot hold a qualifying row.
    fn zone_prunes(&self, reader: &CifReader, group: usize, io: &TaskIo) -> Result<bool> {
        for zp in self.zones {
            if reader.column_index(&zp.column).is_err() {
                continue;
            }
            let path = reader.meta().column_path(group, &zp.column);
            let len = io.dfs.file_len(&path)?;
            let prefix = io.read_range(&path, 0, len.min(ZONE_HEADER_MAX as u64))?;
            io.stats.add_zone_checked(1);
            if let Some((min, max)) = peek_zone_map(&prefix)? {
                if max < zp.lo || min > zp.hi {
                    io.stats.add_zone_skipped(1);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

// ---------------------------------------------------------------------------
// Hive: the stage chain `Hive::query` plans (one job per join, a group-by
// job, an order-by job), each stage run through `replay_job`.
// ---------------------------------------------------------------------------

fn replay_hive(
    t: &mut Tracer,
    sys: &System,
    strategy: JoinStrategy,
    q: &StarQuery,
) -> Result<Vec<Row>> {
    q.validate()?;
    let dfs = &sys.dfs;
    let reducers = dfs.cluster().total_reduce_slots().max(1) as usize;
    let tmp = format!(
        "{}/tmp/replay-{}-{}",
        sys.layout.root,
        strategy.label(),
        q.id
    );
    let fact_schema = ssb_schema::lineorder_schema();
    let scan_cols = q.fact_columns();
    let scan_idx: Vec<usize> = scan_cols
        .iter()
        .map(|c| fact_schema.index_of(c))
        .collect::<Result<_>>()?;
    let mut cur_schema = fact_schema.project(&scan_idx);
    let mut cur_input: Arc<dyn InputFormat> = Arc::new(
        RcFileInputFormat::new(sys.layout.table_rc(ssb_schema::LINEORDER)).with_columns(scan_cols),
    );

    for (i, join) in q.joins.iter().enumerate() {
        let out_dir = format!("{tmp}/join{i}");
        let fact_preds = if i == 0 {
            q.fact_preds.clone()
        } else {
            Vec::new()
        };
        let name = format!("replay-join-{}", join.dimension);
        let (mut spec, cache) = match strategy {
            JoinStrategy::MapJoin => {
                let cache_key = format!("{name}.hashtable");
                let (client, mem) = t.time("hive.mapjoin.build_and_publish", || {
                    build_and_publish(dfs, &sys.layout, join, &cache_key)
                })?;
                let runner = MapJoinRunner {
                    cache_key,
                    fk_idx: cur_schema.index_of(&join.fk)?,
                    fact_preds,
                    input_schema: cur_schema.clone(),
                    table_mem_bytes: mem,
                };
                let spec = JobSpec::new(name, Arc::clone(&cur_input), Arc::new(runner));
                (spec, client.cache)
            }
            JoinStrategy::Repartition => {
                let dim_schema = ssb_schema::schema_of(&join.dimension).ok_or_else(|| {
                    ClydeError::Plan(format!("unknown dimension {}", join.dimension))
                })?;
                let mut dim_cols: Vec<String> = vec![join.pk.clone()];
                for a in &join.aux {
                    if !dim_cols.contains(a) {
                        dim_cols.push(a.clone());
                    }
                }
                join.predicate.columns(&mut dim_cols);
                let dim_idx: Vec<usize> = dim_cols
                    .iter()
                    .map(|c| dim_schema.index_of(c))
                    .collect::<Result<_>>()?;
                let dim_scan = dim_schema.project(&dim_idx);
                let dim_input: Arc<dyn InputFormat> = Arc::new(
                    RcFileInputFormat::new(sys.layout.table_rc(&join.dimension))
                        .with_columns(dim_cols),
                );
                let mapper = RepartitionMapper {
                    fk_idx: cur_schema.index_of(&join.fk)?,
                    pk_idx: dim_scan.index_of(&join.pk)?,
                    aux_idx: join
                        .aux
                        .iter()
                        .map(|a| dim_scan.index_of(a))
                        .collect::<Result<_>>()?,
                    dim_pred: join.predicate.compile(&dim_scan)?,
                    fact_preds,
                    left_schema: cur_schema.clone(),
                };
                let union = TaggedUnionInputFormat::new(Arc::clone(&cur_input), dim_input);
                let mut spec =
                    JobSpec::new(name, Arc::new(union), Arc::new(RowMapRunner::new(mapper)));
                spec.reducer = Some(Arc::new(RepartitionReducer));
                spec.num_reducers = reducers;
                (spec, Arc::new(DistCache::new()))
            }
        };
        spec.output = OutputSpec::DfsDir(out_dir.clone());
        run_hive_stage(t, dfs, &spec, &cache)?;
        cur_schema = joined_schema(&cur_schema, join)?;
        cur_input = Arc::new(RowBinInputFormat::new(out_dir));
    }

    let group_idx: Vec<usize> = q
        .group_by
        .iter()
        .map(|g| cur_schema.index_of(g))
        .collect::<Result<_>>()?;
    let gb_dir = format!("{tmp}/groupby");
    let mut gb = JobSpec::new(
        "replay-groupby",
        cur_input,
        Arc::new(RowMapRunner::new(GroupByMapper {
            group_idx,
            aggregate: q.aggregate.clone(),
            joined_schema: cur_schema,
        })),
    );
    gb.combiner = Some(Arc::new(FoldValues {
        include_key: false,
        aggregate: q.aggregate.clone(),
    }));
    gb.reducer = Some(Arc::new(FoldValues {
        include_key: true,
        aggregate: q.aggregate.clone(),
    }));
    gb.num_reducers = reducers;
    gb.output = OutputSpec::DfsDir(gb_dir.clone());
    let no_cache = Arc::new(DistCache::new());
    run_hive_stage(t, dfs, &gb, &no_cache)?;

    let mut ob = JobSpec::new(
        "replay-orderby",
        Arc::new(RowBinInputFormat::new(gb_dir)),
        Arc::new(RowMapRunner::new(OrderByMapper::for_query(q)?)),
    );
    ob.reducer = Some(Arc::new(EmitValues));
    ob.num_reducers = 1;
    let mut rows = run_hive_stage(t, dfs, &ob, &no_cache)?;
    if let Some(l) = q.limit {
        rows.truncate(l);
    }

    t.time("dfs.delete", || -> Result<()> {
        for path in dfs.list(&format!("{tmp}/")) {
            dfs.delete(&path)?;
        }
        Ok(())
    })?;
    Ok(rows)
}

/// One Hive stage. The split is read into memory first (its own span), so
/// that the map span holds the row-at-a-time map and emit work alone.
fn run_hive_stage(
    t: &mut Tracer,
    dfs: &Arc<Dfs>,
    spec: &JobSpec,
    cache: &Arc<DistCache>,
) -> Result<Vec<Row>> {
    let cluster = dfs.cluster().clone();
    let conf = JobConf::new();
    replay_job(t, dfs, spec, |t, split, node, io| {
        let pre = Preloaded::read(t, &*spec.input, split, io)?;
        let out = Arc::new(MapOutputBuffer::new());
        let ctx = MapTaskContext {
            conf: &conf,
            split,
            input: &pre,
            io: io.clone(),
            node,
            threads: 1,
            host_threads: 1,
            slot_concurrency: scheduler::concurrency_per_node(&cluster, 0),
            node_state: Arc::new(NodeState::new()),
            memory: Arc::new(MemoryTracker::new(cluster.node.memory_bytes)),
            ledger: Arc::new(MemoryLedger::new()),
            task_charges: Mutex::new(0),
            local_store: Arc::new(NodeLocalStore::new(cluster.num_workers())),
            dist_cache: Arc::clone(cache),
            out: Arc::clone(&out),
            cost: Arc::new(Mutex::new(TaskCost::new())),
            wall_phases: Mutex::new(Vec::new()),
        };
        t.time("hive.map", || spec.map_runner.run(&ctx))?;
        drop(ctx);
        let records = Arc::try_unwrap(out)
            .map_err(|_| ClydeError::MapReduce("collector leaked out of the map task".into()))?
            .into_records();
        // `ctx.emit` encodes each key inside the map span; time that codec
        // alone on the same keys.
        let keys: Vec<Row> = records
            .iter()
            .map(|(k, _)| keycodec::decode_row(k))
            .collect::<Result<_>>()?;
        t.count("keycodec.keys", keys.len() as u64);
        t.time_as("common.keycodec.encode_row", Cat::Probe, || {
            for k in &keys {
                std::hint::black_box(keycodec::encode_row(k));
            }
        });
        Ok(records)
    })
}

/// A split's records, read ahead of the map: an input format that serves
/// them back to whichever runner opens the split.
struct Preloaded {
    parts: Mutex<Vec<Option<InputRecords>>>,
}

impl Preloaded {
    fn read(
        t: &mut Tracer,
        input: &dyn InputFormat,
        split: &InputSplit,
        io: &TaskIo,
    ) -> Result<Preloaded> {
        let mut parts = Vec::new();
        for part in 0..split.spec.num_parts() {
            let rcfile = !matches!(split.spec, SplitSpec::FileRange { .. });
            let span = match &split.spec {
                SplitSpec::FileRange { path, .. } => {
                    // Row-binary intermediates: the DFS read and the row
                    // decode, separately, beside the format's combined read.
                    let data = t.time_as("dfs.read_file", Cat::Probe, || {
                        io.dfs.read_file(path, io.node)
                    })?;
                    t.count("dfs.read_bytes", data.len() as u64);
                    let rows = t.time_as("common.rowcodec.read_rows", Cat::Probe, || {
                        rowcodec::read_rows(&data)
                    })?;
                    t.count("rowcodec.decode_rows", rows.len() as u64);
                    "mapred.formats.rowbin_read"
                }
                _ => "columnar.rcfile.read_rows",
            };
            let records = t.time(span, || -> Result<InputRecords> {
                let mut reader = input.open(split, part, io)?.into_rows()?;
                let mut out = Vec::new();
                while let Some(rec) = reader.next()? {
                    out.push(rec);
                }
                Ok(out)
            })?;
            if rcfile {
                t.count("columnar.rcfile_read_rows", records.len() as u64);
            }
            parts.push(Some(records));
        }
        Ok(Preloaded {
            parts: Mutex::new(parts),
        })
    }
}

impl InputFormat for Preloaded {
    fn splits(&self, _dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
        Err(ClydeError::MapReduce(
            "preloaded input has no split planner".into(),
        ))
    }

    fn open(&self, _split: &InputSplit, part: usize, _io: &TaskIo) -> Result<Reader> {
        let records = self
            .parts
            .lock()
            .get_mut(part)
            .and_then(Option::take)
            .ok_or_else(|| ClydeError::MapReduce(format!("part {part} already consumed")))?;
        Ok(Reader::Rows(Box::new(Drain(records.into_iter()))))
    }
}

struct Drain(std::vec::IntoIter<(Row, Row)>);

impl RecordReader for Drain {
    fn next(&mut self) -> Result<Option<(Row, Row)>> {
        Ok(self.0.next())
    }
}

// ---------------------------------------------------------------------------
// Bulk load: datagen → sort → column encode → DFS write, CIF by hand and
// RCFile through its writer; then one roll-in batch and one roll-out.
// ---------------------------------------------------------------------------

/// Rows of the roll-in batch the maintenance spans time.
const ROLLIN_ROWS: usize = 16_000;

fn replay_load(t: &mut Tracer, sys: &System) -> Result<Vec<Row>> {
    let gen = sys.gen;
    let layout = &sys.layout;
    let dfs = new_dfs();

    let dims: [(&str, Vec<Row>); 4] = t.time("ssb.gen.dimensions", || {
        [
            (ssb_schema::CUSTOMER, gen.gen_customer()),
            (ssb_schema::SUPPLIER, gen.gen_supplier()),
            (ssb_schema::PART, gen.gen_part()),
            (ssb_schema::DATE, gen.gen_date()),
        ]
    });
    for (name, rows) in &dims {
        let payload = t.time("common.rowcodec.write_rows", || rowcodec::write_rows(rows));
        t.count("rowcodec.encode_bytes", payload.len() as u64);
        t.count("dfs.write_bytes", payload.len() as u64);
        t.time("dfs.write_file", || {
            dfs.write_file(layout.dim_bin(name), None, &payload)
        })?;
        let schema = ssb_schema::schema_of(name).expect("known table");
        write_rcfile(t, &dfs, layout.table_rc(name), schema, rows)?;
    }

    let mut fact: Vec<Row> = Vec::with_capacity(gen.num_lineorders());
    t.time("ssb.gen.lineorder", || {
        gen.for_each_lineorder(|r| {
            fact.push(r.clone());
            Ok(())
        })
    })?;
    t.count("ssb.gen_rows", fact.len() as u64);
    let schema = ssb_schema::lineorder_schema();
    let date_col = schema.index_of("lo_orderdate")?;
    t.time("ssb.loader.sort_by_date", || {
        fact.sort_by_key(|r| r.at(date_col).as_i64())
    });

    // CIF, column chunk by column chunk.
    let dtypes: Vec<_> = schema.fields().iter().map(|f| f.dtype).collect();
    let mut meta = CifTableMeta {
        base: layout.fact_cif(),
        schema: schema.clone(),
        rows_per_group: ROWS_PER_GROUP,
        first_group: 0,
        group_rows: Vec::new(),
    };
    for chunk in fact.chunks(ROWS_PER_GROUP as usize) {
        let block = t.time("common.colblock.build", || -> Result<RowBlock> {
            let mut b = RowBlockBuilder::new(&dtypes);
            for r in chunk {
                b.push_row(r)?;
            }
            Ok(b.finish())
        })?;
        let group = meta.group_rows.len();
        let placement = meta.placement_group(group);
        for (i, col) in block.columns().iter().enumerate() {
            let encoded = t.time("columnar.encoding.encode_column", || {
                encode_column(col, choose_encoding(col))
            })?;
            t.count("columnar.encode_bytes", encoded.len() as u64);
            t.count("dfs.write_bytes", encoded.len() as u64);
            t.count("columnar.cif_bytes", encoded.len() as u64);
            let path = meta.column_path(group, &schema.field(i).name);
            t.time("dfs.write_file", || {
                dfs.write_file(path, Some(placement.clone()), &encoded)
            })?;
        }
        meta.group_rows.push(block.len() as u64);
    }
    dfs.write_file(format!("{}/_meta", meta.base), None, &meta.encode_bytes())?;
    t.count("columnar.cif_rows", fact.len() as u64);

    write_rcfile(
        t,
        &dfs,
        layout.table_rc(ssb_schema::LINEORDER),
        schema,
        &fact,
    )?;
    let rc_bytes = dfs.file_len(&format!("{}.rc", layout.table_rc(ssb_schema::LINEORDER)))?;
    t.count("columnar.rcfile_fact_bytes", rc_bytes);
    t.count("columnar.rcfile_fact_rows", fact.len() as u64);

    let cif_bytes: u64 = dfs
        .list(&format!("{}/", layout.fact_cif()))
        .iter()
        .map(|p| dfs.file_len(p))
        .sum::<Result<u64>>()?;
    let out = row![
        cif_bytes as i64,
        rc_bytes as i64,
        fact.len() as i64,
        dfs_fingerprint(&dfs, layout)?
    ];

    // Fact-table maintenance on the table just written.
    let batch = &fact[..fact.len().min(ROLLIN_ROWS)];
    t.time("columnar.maintain.rollin", || -> Result<()> {
        let mut app = CifAppender::open(Arc::clone(&dfs), &layout.fact_cif())?;
        for r in batch {
            app.append(r)?;
        }
        app.close().map(|_| ())
    })?;
    t.count("columnar.rollin_rows", batch.len() as u64);
    t.time("columnar.maintain.rollout", || {
        roll_out(&dfs, &layout.fact_cif(), 2).map(|_| ())
    })?;
    Ok(vec![out])
}

fn write_rcfile(
    t: &mut Tracer,
    dfs: &Arc<Dfs>,
    base: String,
    schema: Schema,
    rows: &[Row],
) -> Result<()> {
    t.count("columnar.rcfile_write_rows", rows.len() as u64);
    t.time("columnar.rcfile.write", || {
        let mut w = RcFileWriter::new(Arc::clone(dfs), base, schema, ROWS_PER_GROUP)?;
        for r in rows {
            w.append(r)?;
        }
        w.close().map(|_| ())
    })
}
