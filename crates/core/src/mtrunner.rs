//! `MTMapRunner` — the multi-threaded map runner (paper Figure 5).
//!
//! One map task per node occupies every map slot. The runner:
//!
//! 1. obtains the dimension hash tables from per-node state. The first task
//!    of the query on this node assembles them — JVM reuse means subsequent
//!    tasks find them ready — and is charged for building them. It actually
//!    builds (straight from the node-local row-binary dimension files, one
//!    build thread per dimension) only the tables no earlier query on this
//!    engine left in the node's resident store for the same local bytes;
//! 2. unpacks the multi-split through one shared work source: every thread
//!    pulls one **morsel** at a time. A block-shaped input hands out row
//!    ranges of one decoded row group — the group is decoded once, shared
//!    (`Arc`) by its morsels and never copied into blocks — so even one
//!    constituent split's probe work spreads across all `host_threads`
//!    workers; a row-shaped input (block iteration ablated) hands out whole
//!    parts, the paper's `getMultipleReaders()` shape (Section 5.1);
//! 3. each thread probes its morsels against the *shared, read-only* tables,
//!    aggregating into a thread-local group map;
//! 4. the merged per-task group map is emitted — one record per group, the
//!    combiner effect of Figure 4.
//!
//! ## Morsel determinism
//!
//! Which thread processes which morsel is a race, but the emitted records
//! are byte-identical across `host_threads` counts (`tests/determinism.rs`
//! checks 1/2/3/5/8/13): every aggregate is an algebraic `i64` fold
//! (commutative and associative — sum/min/max/count), so the merged map's
//! contents do not depend on fold order; emit then sorts the groups. Belt
//! and braces, the thread-local accumulators are merged in ascending
//! first-morsel-id order, so the merge sequence is canonical. A
//! non-commutative fold would need more than that: which morsels a partial
//! holds is still the race above.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the shared morsel source (paper Figure 5). `MorselSource::next` \
                holds its state while opening a part, which takes `CifInputFormat`'s table \
                handle and the DFS state; no inner lock takes an outer one \
                (tests/lock_nesting.rs pins the edges)"
)]

use crate::config::Features;
use crate::hashtable::DimTables;
use crate::probe::{
    probe_range, probe_range_vec, probe_row, GroupAcc, GroupLayout, ProbePlan, ProbeStats, SelBuf,
};
use clyde_common::lockorder::Mutex;
use clyde_common::obs::{Phase, WallTimer};
use clyde_common::{ClydeError, Datum, FxHashMap, Result, Row, RowRange, Schema};
use clyde_mapred::{BlockReader, MapRunner, MapTaskContext, Reader, RecordReader};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::StarQuery;
use std::sync::Arc;

/// The Clydesdale map runner. Also handles the single-threaded ablation
/// (`features.multithreading == false`): the same code path with one thread
/// and per-task (unshared, per-slot-duplicated) hash tables.
pub struct MtMapRunner {
    pub query: Arc<StarQuery>,
    /// Schema of the scanned (projected) fact columns, in scan order.
    pub scan_schema: Schema,
    pub layout: SsbLayout,
    pub features: Features,
}

/// One unit of probe work: one row range of a block-shaped part's shared
/// decoded group, or a whole row-shaped part (rows cannot be split without
/// reading them).
enum Morsel {
    Block(RowRange),
    Rows(Box<dyn RecordReader>),
}

/// Shared morsel source: hands out `(morsel_id, morsel)` pairs across the
/// runner's threads. What the input format hands back decides the grain —
/// [`Reader::Blocks`] is drained one [`BlockReader::next_range`] per call
/// (`ROWS_PER_BLOCK` rows of the part's decoded group, which every range
/// shares), [`Reader::Rows`] is given away whole. Fetching the next range
/// happens under the lock: a refcount bump for most ranges, but the first
/// range of every row group pays for opening the part and decoding the
/// whole group, so that decode is serialized across the threads. Probing
/// happens outside the lock.
struct MorselSource<'a, 'b> {
    ctx: &'a MapTaskContext<'b>,
    parts: usize,
    state: Mutex<MorselState>,
}

struct MorselState {
    next_part: usize,
    current: Option<Box<dyn BlockReader>>,
    next_morsel: u64,
}

impl<'a, 'b> MorselSource<'a, 'b> {
    fn new(ctx: &'a MapTaskContext<'b>) -> MorselSource<'a, 'b> {
        MorselSource {
            ctx,
            parts: ctx.split.spec.num_parts(),
            state: Mutex::new(MorselState {
                next_part: 0,
                current: None,
                next_morsel: 0,
            }),
        }
    }

    /// The next morsel, or `None` when every part is drained. Morsel ids
    /// are assigned in hand-out order: dense, starting at 0.
    fn next(&self) -> Result<Option<(u64, Morsel)>> {
        let mut st = self.state.lock();
        let morsel = loop {
            if let Some(reader) = st.current.as_mut() {
                match reader.next_range()? {
                    Some(range) => break Morsel::Block(range),
                    None => st.current = None,
                }
            }
            if st.next_part >= self.parts {
                return Ok(None);
            }
            let part = st.next_part;
            st.next_part += 1;
            match self.ctx.input.open(self.ctx.split, part, &self.ctx.io)? {
                Reader::Blocks(r) => st.current = Some(r),
                Reader::Rows(r) => break Morsel::Rows(r),
            }
        };
        let id = st.next_morsel;
        st.next_morsel += 1;
        Ok(Some((id, morsel)))
    }
}

impl MtMapRunner {
    fn acquire_tables(&self, ctx: &MapTaskContext<'_>) -> Result<Arc<DimTables>> {
        let key = format!("clydesdale.tables.{}", self.query.id);
        let (tables, built) = ctx.node_state.get_or_try_init(&key, || {
            DimTables::build_all_resident(&self.query.joins, ctx.node_state.resident(), |dim| {
                // Dimensions come from the node-local cache (Figure 2); a
                // node that lost its copy re-fetches from the DFS.
                let path = self.layout.dim_bin(dim);
                ctx.local_store.get_or_fetch(ctx.node, &path, &ctx.io.dfs)
            })
        })?;
        if built {
            // Priced as a full build whether or not the tables were resident:
            // the paper's model is one build per node per query.
            ctx.add_cost(|c| c.build_rows += tables.build_rows);
            if self.features.multithreading {
                // One shared copy per node, alive for the whole job.
                ctx.charge_memory_shared(tables.mem_bytes)?;
                ctx.charge_memory_shared_fixed(tables.mem_fixed_bytes)?;
            } else {
                // Every slot holds its own copy — the configuration the
                // paper's Section 5.1 calls impractical.
                ctx.charge_memory_per_slot(tables.mem_bytes)?;
                ctx.charge_memory_per_slot_fixed(tables.mem_fixed_bytes)?;
            }
        }
        Ok(tables)
    }

    /// The thread driver: `host_threads` workers pull morsels from the
    /// shared source and never idle while any part still has work. Returns
    /// the thread-local results in canonical merge order — ascending first
    /// morsel id; idle threads, tagged `u64::MAX`, sort last and contribute
    /// nothing — with their summed stats.
    fn run_threads(
        &self,
        ctx: &MapTaskContext<'_>,
        tables: &DimTables,
        plan: &ProbePlan,
        layout: &Option<GroupLayout>,
    ) -> Result<(Vec<ThreadResult>, ProbeStats)> {
        // Spawn count is a host-execution knob; pricing uses `ctx.threads`.
        // Morsels are finer than parts, so it is not capped by them.
        let threads = (ctx.host_threads as usize).max(1);
        let source = MorselSource::new(ctx);
        // Each thread hands back its result and the wall-clock it spent
        // probing (observability only — simulated time comes from the cost
        // model), joined in spawn order.
        #[expect(
            clippy::disallowed_methods,
            reason = "D004 audit: the probe threads of paper Figure 5; results are joined \
                      in spawn order and merged in first-morsel order"
        )]
        let joined: Vec<_> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let source = &source;
                handles.push(scope.spawn(move || -> Result<(ThreadResult, u64)> {
                    let thread_start = WallTimer::start();
                    let mut res = ThreadResult {
                        first_morsel: u64::MAX,
                        acc: FxHashMap::default(),
                        vacc: layout
                            .as_ref()
                            .map(|l| GroupAcc::new(l, &self.query.aggregate)),
                        stats: ProbeStats::default(),
                    };
                    let mut buf = SelBuf::default();
                    while let Some((id, morsel)) = source.next()? {
                        res.first_morsel = res.first_morsel.min(id);
                        match (morsel, &mut res.vacc, layout) {
                            (Morsel::Block(r), Some(va), Some(l)) => res.stats.add(
                                &probe_range_vec(&r.block, r.rows, plan, tables, l, va, &mut buf)?,
                            ),
                            (Morsel::Block(r), _, _) => probe_range(
                                &r.block,
                                r.rows,
                                plan,
                                tables,
                                &mut res.acc,
                                &mut res.stats,
                            )?,
                            (Morsel::Rows(mut rows), _, _) => {
                                let (mut key, mut row) = (Row::empty(), Row::empty());
                                while rows.next_into(&mut key, &mut row)? {
                                    probe_row(&row, plan, tables, &mut res.acc, &mut res.stats)?;
                                }
                            }
                        }
                    }
                    Ok((res, thread_start.elapsed_ns()))
                }));
            }
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut results = Vec::with_capacity(threads);
        let mut probe_ns = 0u64;
        for thread in joined {
            let (res, ns) =
                thread.map_err(|_| ClydeError::MapReduce("probe thread panicked".into()))??;
            results.push(res);
            probe_ns += ns;
        }
        ctx.note_wall_phase(Phase::Probe, probe_ns);
        results.sort_by_key(|r| r.first_morsel);
        let mut stats = ProbeStats::default();
        for r in &results {
            stats.add(&r.stats);
        }
        Ok((results, stats))
    }
}

/// What one probe thread produced, tagged for canonical merge ordering.
struct ThreadResult {
    /// Lowest morsel id this thread processed; `u64::MAX` when it got none.
    first_morsel: u64,
    acc: FxHashMap<Row, i64>,
    vacc: Option<GroupAcc>,
    stats: ProbeStats,
}

impl MapRunner for MtMapRunner {
    fn run(&self, ctx: &MapTaskContext<'_>) -> Result<()> {
        let build_start = WallTimer::start();
        let tables = self.acquire_tables(ctx)?;
        ctx.note_wall_phase(Phase::HashBuild, build_start.elapsed_ns());
        let plan = ProbePlan::compile(&self.query, &self.scan_schema)?;
        // The vectorized kernel needs a packed group-key layout; fall back
        // to the scalar kernel when ablated or when the key would not fit.
        let layout = if self.features.vectorized {
            GroupLayout::new(&plan, &tables)
        } else {
            None
        };
        let (results, stats) = self.run_threads(ctx, &tables, &plan, &layout)?;
        let emit_start = WallTimer::start();
        ctx.add_cost(|c| {
            if self.features.block_iteration {
                c.block_rows += stats.rows;
            } else {
                c.rowiter_rows += stats.rows;
            }
            c.probe_rows += stats.probes;
        });

        // Merge thread results in first-morsel order (already sorted): the
        // packed-key accumulators slot by slot, then one rematerialized row
        // per populated slot beside the row-keyed partials.
        let agg = &self.query.aggregate;
        let mut groups: Vec<(Row, i64)> = Vec::new();
        let mut vacc: Option<GroupAcc> = None;
        for r in results {
            groups.extend(r.acc);
            if let Some(va) = r.vacc {
                match vacc.as_mut() {
                    Some(global) => global.merge(va, agg)?,
                    None => vacc = Some(va),
                }
            }
        }
        if let (Some(vacc), Some(l)) = (vacc, &layout) {
            groups.extend(
                vacc.entries()
                    .into_iter()
                    .map(|(key, v)| (l.rematerialize(key, &tables), v)),
            );
        }

        // Emit one record per group, in group order: key = group columns,
        // value = partial aggregate. Equal rows (several threads' row-keyed
        // partials, or aux tuples that differ only in a column no group-by
        // reads) are adjacent after the stable sort, still in merge order,
        // and fold into one.
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        groups.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                // clyde-lint: allow(floatorder, reason=fixed-merge-order: i64-exact fold, equal rows in first-morsel order)
                kept.1 = agg.fold(kept.1, next.1);
            }
            same
        });
        for (key, value) in groups {
            ctx.emit(key.values(), &[Datum::I64(value)]);
        }
        ctx.note_wall_phase(Phase::Emit, emit_start.elapsed_ns());
        Ok(())
    }
}
