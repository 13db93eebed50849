//! The probe phase: fact rows against the dimension hash tables.
//!
//! Two kernels:
//!
//! * [`probe_range_vec`] — the vectorized kernel that runs queries: fact
//!   predicates are evaluated over whole column slices into a reusable
//!   *selection vector*, each dimension table is probed batch-at-a-time over
//!   the surviving indices, and groups are aggregated under packed `u64`
//!   keys of per-join group ids (see [`GroupLayout`]). Group `Row`s are
//!   rematerialized once per populated group at emit time;
//! * one scalar reference loop (`probe_scalar`), reached two ways:
//!   [`probe_range`] reads typed column slices (B-CIF block iteration,
//!   Section 5.3) — the test oracle and the run-time fallback when
//!   [`GroupLayout::new`] cannot pack the group key into 63 bits —
//!   and [`probe_row`] reads one materialized row (block iteration
//!   ablated).
//!
//! The block kernels take a row range of a block: the scan hands its
//! threads ranges of one shared decoded row group, not copies of them.
//! [`probe_block_vec`] and [`probe_block`] are the whole-block forms. An
//! `i32` column may be decoded values or a plain chunk read in place; the
//! kernels read both through the [`I32s`] view, the vectorized one with a
//! loop per form chosen once per stage.
//!
//! Both use **early-out** (Section 4.2): the first failed dimension probe
//! abandons the row — in the vectorized kernel the selection vector simply
//! shrinks after each join, so later joins probe fewer keys. Every entry
//! point produces byte-identical results and identical [`ProbeStats`].
//! Aggregation happens *inside the task* into a group map (the combiner
//! pattern of Figure 4), so a map task emits one record per group, not per
//! fact row.

use crate::config::KernelOpts;
use crate::hashtable::{DimTables, NONE_ID};
use clyde_common::{ClydeError, Datum, FxHashMap, I32Cell, I32s, Result, Row, RowBlock, Schema};
use clyde_ssb::queries::{check_join_count, Aggregate, CompiledFactPred, StarQuery, MAX_JOINS};
use std::ops::Range;

/// Index-resolved probe plan against a scan schema (the projected fact
/// columns actually read).
#[derive(Debug, Clone)]
pub struct ProbePlan {
    pub fact_preds: Vec<CompiledFactPred>,
    /// Scan-schema column index of each join's foreign key.
    pub fks: Vec<usize>,
    /// Scan-schema indices of the measure columns (`None` for count(*)).
    pub agg_a: Option<usize>,
    pub agg_b: Option<usize>,
    pub aggregate: Aggregate,
    /// For each group-by column: (join index, aux index within that join).
    pub group_src: Vec<(usize, usize)>,
}

impl ProbePlan {
    /// Compile a star query against the schema of the scanned columns.
    pub fn compile(query: &StarQuery, scan_schema: &Schema) -> Result<ProbePlan> {
        let fact_preds = query
            .fact_preds
            .iter()
            .map(|p| p.compile(scan_schema))
            .collect::<Result<_>>()?;
        let fks = query
            .joins
            .iter()
            .map(|j| scan_schema.index_of(&j.fk))
            .collect::<Result<_>>()?;
        let agg_cols = query.aggregate.columns();
        let agg_a = agg_cols
            .first()
            .map(|c| scan_schema.index_of(c))
            .transpose()?;
        let agg_b = agg_cols
            .get(1)
            .map(|c| scan_schema.index_of(c))
            .transpose()?;
        let group_src = query
            .group_by
            .iter()
            .map(|g| query.group_col_source(g))
            .collect::<Result<_>>()?;
        Ok(ProbePlan {
            fact_preds,
            fks,
            agg_a,
            agg_b,
            aggregate: query.aggregate.clone(),
            group_src,
        })
    }
}

/// Counters produced by the probe phase, feeding the cost model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// Rows iterated.
    pub rows: u64,
    /// Individual hash-table probe operations performed (early-out makes
    /// this less than rows × joins).
    pub probes: u64,
    /// Rows surviving all predicates and probes.
    pub survivors: u64,
}

impl ProbeStats {
    pub fn add(&mut self, other: &ProbeStats) {
        self.rows += other.rows;
        self.probes += other.probes;
        self.survivors += other.survivors;
    }
}

/// `i32` views of rows `rows` of a block's columns, each in the form its
/// column is stored in (`None` for any other type). Fact predicates, FKs
/// and measures are all i32 in SSB. A range outside the block is a typed
/// error.
fn i32_columns<'a>(block: &'a RowBlock, rows: &Range<usize>) -> Result<Vec<Option<I32s<'a>>>> {
    block.check_rows(rows.clone())?;
    block
        .columns()
        .iter()
        .map(|c| c.i32s().map(|v| v.rows(rows)).transpose())
        .collect()
}

fn need_i32<'a>(cols: &[Option<I32s<'a>>], idx: usize) -> Result<I32s<'a>> {
    cols.get(idx).copied().flatten().ok_or_else(|| {
        ClydeError::Plan(format!(
            "scan column {idx} is not i32 but the probe needs it"
        ))
    })
}

/// Bind `$c` to the cells of an [`I32s`] view in its stored form and
/// evaluate `$body`: one monomorphic instance of `$body` per form, chosen
/// once per column per stage.
macro_rules! with_cells {
    ($view:expr, |$c:ident| $body:expr) => {
        match $view {
            I32s::Native($c) => $body,
            I32s::Le($c) => $body,
        }
    };
}

/// [`with_cells`] for a column that may be absent (`None` binds as an
/// absent `&[i32]`).
macro_rules! with_opt_cells {
    ($view:expr, |$c:ident| $body:expr) => {
        match $view {
            Some(I32s::Native(cells)) => {
                let $c = Some(cells);
                $body
            }
            Some(I32s::Le(cells)) => {
                let $c = Some(cells);
                $body
            }
            None => {
                let $c: Option<&[i32]> = None;
                $body
            }
        }
    };
}

/// Value `i` of a scan column. The kernels only select rows of the block
/// they probe, so a miss means a plan or block the kernel was not built
/// for; the error path stays out of the loops.
#[inline]
fn row_of<T: I32Cell>(col: &[T], i: usize) -> Result<i32> {
    col.get(i)
        .map(|&v| v.value())
        .ok_or_else(|| row_out_of_range(i, col.len()))
}

#[cold]
fn row_out_of_range(i: usize, len: usize) -> ClydeError {
    ClydeError::Plan(format!("probe row {i} outside a scan column of {len} rows"))
}

#[cold]
fn join_outside_plan(j: usize) -> ClydeError {
    ClydeError::Plan(format!(
        "probe order names join {j}, which the plan does not have"
    ))
}

/// The reference kernel: `n` fact rows read through `get(row, scan column)`.
/// Per row: fact predicates, then one probe per dimension in
/// [`DimTables::probe_order`] with early-out, then the group key from the
/// matched aux rows, then the fold into `acc`.
#[inline]
fn probe_scalar(
    n: usize,
    get: impl Fn(usize, usize) -> Result<i64>,
    plan: &ProbePlan,
    tables: &DimTables,
    acc: &mut FxHashMap<Row, i64>,
    stats: &mut ProbeStats,
) -> Result<()> {
    check_join_count(plan.fks.len())?;
    stats.rows += n as u64;
    // Most-selective dimension first: early-out kills the row before the
    // permissive probes run. `matched` stays indexed by the original join
    // index, so group assembly is order-independent.
    let probes = tables
        .probe_order()
        .iter()
        .map(|&j| match (tables.tables.get(j), plan.fks.get(j)) {
            (Some(table), Some(&fk)) if j < MAX_JOINS => Ok((j, table, fk)),
            _ => Err(join_outside_plan(j)),
        })
        .collect::<Result<Vec<_>>>()?;
    let mut matched: [Option<&Row>; MAX_JOINS] = [None; MAX_JOINS];
    'rows: for i in 0..n {
        for p in &plan.fact_preds {
            // Each predicate is an inclusive range in i64.
            let (col, lo, hi) = match *p {
                CompiledFactPred::Between { col, lo, hi } => (col, i64::from(lo), i64::from(hi)),
                CompiledFactPred::Lt { col, value } => (col, i64::MIN, i64::from(value) - 1),
            };
            let v = get(i, col)?;
            if v < lo || v > hi {
                continue 'rows;
            }
        }
        for &(j, table, fk) in &probes {
            stats.probes += 1;
            match table.get(get(i, fk)?) {
                Some(aux) => put(&mut matched, j, Some(aux)),
                None => continue 'rows, // early-out
            }
        }
        stats.survivors += 1;
        let key: Row = plan
            .group_src
            .iter()
            .map(|&(ji, ai)| {
                matched
                    .get(ji)
                    .copied()
                    .flatten()
                    .and_then(|aux| aux.get(ai))
                    .cloned()
                    .ok_or_else(|| {
                        ClydeError::Plan(format!("group column {ai} of join {ji} was not matched"))
                    })
            })
            .collect::<Result<_>>()?;
        let measure = match (&plan.aggregate, plan.agg_a, plan.agg_b) {
            (Aggregate::SumColumn(_), Some(a), _)
            | (Aggregate::MinColumn(_), Some(a), _)
            | (Aggregate::MaxColumn(_), Some(a), _) => get(i, a)?,
            (Aggregate::SumProduct(_, _), Some(a), Some(b)) => get(i, a)? * get(i, b)?,
            (Aggregate::SumDiff(_, _), Some(a), Some(b)) => get(i, a)? - get(i, b)?,
            (Aggregate::CountStar, _, _) => 1,
            _ => return Err(ClydeError::Plan("aggregate missing measure column".into())),
        };
        let slot = acc.entry(key).or_insert_with(|| plan.aggregate.identity());
        *slot = plan.aggregate.fold(*slot, measure);
    }
    Ok(())
}

/// Scalar probe of one column block, accumulating partial aggregates per
/// group `Row` into `acc`.
pub fn probe_block(
    block: &RowBlock,
    plan: &ProbePlan,
    tables: &DimTables,
    acc: &mut FxHashMap<Row, i64>,
    stats: &mut ProbeStats,
) -> Result<()> {
    probe_range(block, 0..block.len(), plan, tables, acc, stats)
}

/// Scalar probe of rows `rows` of a column block, accumulating partial
/// aggregates per group `Row` into `acc`.
pub fn probe_range(
    block: &RowBlock,
    rows: Range<usize>,
    plan: &ProbePlan,
    tables: &DimTables,
    acc: &mut FxHashMap<Row, i64>,
    stats: &mut ProbeStats,
) -> Result<()> {
    let cols = i32_columns(block, &rows)?;
    probe_scalar(
        rows.len(),
        |i, c| {
            let col = need_i32(&cols, c)?;
            col.get(i)
                .map(i64::from)
                .ok_or_else(|| row_out_of_range(i, col.len()))
        },
        plan,
        tables,
        acc,
        stats,
    )
}

/// Scalar probe of one materialized row of the scan schema (block iteration
/// ablated).
pub fn probe_row(
    row: &Row,
    plan: &ProbePlan,
    tables: &DimTables,
    acc: &mut FxHashMap<Row, i64>,
    stats: &mut ProbeStats,
) -> Result<()> {
    probe_scalar(
        1,
        |_, c| {
            row.get(c)
                .and_then(Datum::as_i64)
                .ok_or_else(|| ClydeError::Plan(format!("scan column {c} is not an integer")))
        },
        plan,
        tables,
        acc,
        stats,
    )
}

/// One group-contributing join inside a [`GroupLayout`]: its group ids
/// occupy the bits of `mask` in the packed key, starting at `shift`.
#[derive(Debug, Clone, Copy)]
struct JoinPack {
    ji: usize,
    shift: u32,
    mask: u64,
}

/// Packed `u64` group-key layout for the vectorized kernel.
///
/// Each group-contributing join gets a bit field of ⌈log2⌉ of its table's
/// group-id dictionary size ([`crate::hashtable::DimHashTable::num_ids`]:
/// distinct aux tuples, not qualifying rows), and the packed key is the
/// concatenation of the per-join ids. Every SSB query packs into at most
/// `DENSE_BITS` bits (Q3.1: five nations, five nations and six years in
/// 3 + 3 + 3), and distinct packed keys are distinct group rows whenever
/// each join's aux columns are all group-by columns. The aux `Row`s behind
/// the ids are only materialized by [`GroupLayout::rematerialize`] at emit
/// time.
#[derive(Debug, Clone)]
pub struct GroupLayout {
    /// For each `group_src` entry: its join's bit field and aux column index.
    src: Vec<(JoinPack, usize)>,
    /// Per join index: the shift to OR its id at, if it contributes.
    shift_of: Vec<Option<u32>>,
    total_bits: u32,
}

/// Dense aggregation is used when the whole packed key space fits in this
/// many bits (64 Ki slots, 1 MiB of `Option<i64>`).
const DENSE_BITS: u32 = 16;

impl GroupLayout {
    /// Compute the layout for a plan against built tables. Returns `None`
    /// when the packed key would not fit in 63 bits — the caller falls back
    /// to the scalar kernel with materialized `Row` keys.
    pub fn new(plan: &ProbePlan, tables: &DimTables) -> Option<GroupLayout> {
        let mut packs: Vec<JoinPack> = Vec::new();
        let mut src = Vec::with_capacity(plan.group_src.len());
        let mut total_bits = 0u32;
        for &(ji, ai) in &plan.group_src {
            let pack = match packs.iter().find(|p| p.ji == ji) {
                Some(&p) => p,
                None => {
                    let ids = tables.tables.get(ji)?.num_ids();
                    let bits = usize::BITS - ids.saturating_sub(1).leading_zeros();
                    if total_bits + bits > 63 {
                        return None;
                    }
                    let p = JoinPack {
                        ji,
                        shift: total_bits,
                        mask: (1u64 << bits) - 1,
                    };
                    total_bits += bits;
                    packs.push(p);
                    p
                }
            };
            src.push((pack, ai));
        }
        let shift_of = (0..tables.tables.len())
            .map(|ji| packs.iter().find(|p| p.ji == ji).map(|p| p.shift))
            .collect();
        Some(GroupLayout {
            src,
            shift_of,
            total_bits,
        })
    }

    /// Whether the packed key space is small enough for a dense array.
    pub fn dense_slots(&self) -> Option<usize> {
        (self.total_bits <= DENSE_BITS).then(|| 1usize << self.total_bits)
    }

    /// Expand a packed key back into the group-by `Row` (emit time). A key
    /// this layout did not pack over `tables` yields NULL for every field
    /// it cannot resolve.
    pub fn rematerialize(&self, key: u64, tables: &DimTables) -> Row {
        self.src
            .iter()
            .map(|&(p, ai)| {
                let id = ((key >> p.shift) & p.mask) as u32;
                tables
                    .tables
                    .get(p.ji)
                    .and_then(|t| t.aux(id))
                    .and_then(|aux| aux.get(ai))
                    .cloned()
                    .unwrap_or(Datum::Null)
            })
            .collect()
    }
}

/// Per-thread group accumulator for the vectorized kernel: a dense array
/// when the packed key space fits `DENSE_BITS` (every SSB query), a hash
/// map on `u64` keys for wider layouts. Either way the keys stay packed
/// ids — no `Row` allocation on the hot path.
#[derive(Debug)]
pub enum GroupAcc {
    /// One slot per packed key; `None` until a row folds into it.
    Dense(Vec<Option<i64>>),
    Sparse(FxHashMap<u64, i64>),
}

/// Fold `v` into a partial aggregate that may not have started yet. The
/// identity folds into `v` unchanged, so an empty slot simply takes `v`.
#[inline]
fn fold_slot(slot: &mut Option<i64>, v: i64, aggregate: &Aggregate) {
    *slot = Some(slot.map_or(v, |acc| aggregate.fold(acc, v)));
}

impl GroupAcc {
    /// An empty accumulator for `layout`. Empty slots are `None` rather
    /// than the aggregate's identity, so the aggregate is not consulted.
    pub fn new(layout: &GroupLayout, _aggregate: &Aggregate) -> GroupAcc {
        match layout.dense_slots() {
            Some(n) => GroupAcc::Dense(vec![None; n]),
            None => GroupAcc::Sparse(FxHashMap::default()),
        }
    }

    #[inline]
    fn fold(&mut self, key: u64, measure: i64, aggregate: &Aggregate) -> Result<()> {
        match self {
            GroupAcc::Dense(slots) => {
                let slot = usize::try_from(key)
                    .ok()
                    .and_then(|k| slots.get_mut(k))
                    .ok_or_else(|| {
                        ClydeError::Plan(format!("packed group key {key} outside its layout"))
                    })?;
                fold_slot(slot, measure, aggregate);
            }
            GroupAcc::Sparse(map) => {
                let slot = map.entry(key).or_insert_with(|| aggregate.identity());
                *slot = aggregate.fold(*slot, measure);
            }
        }
        Ok(())
    }

    /// Fold another accumulator of the same layout into this one: slot by
    /// slot when both are dense, key by key otherwise.
    pub fn merge(&mut self, other: GroupAcc, aggregate: &Aggregate) -> Result<()> {
        if let (GroupAcc::Dense(slots), GroupAcc::Dense(theirs)) = (&mut *self, &other) {
            if slots.len() == theirs.len() {
                for (slot, theirs) in slots.iter_mut().zip(theirs) {
                    if let Some(v) = *theirs {
                        fold_slot(slot, v, aggregate);
                    }
                }
                return Ok(());
            }
        }
        for (key, v) in other.entries() {
            self.fold(key, v, aggregate)?;
        }
        Ok(())
    }

    /// The populated (packed key, partial aggregate) pairs.
    pub fn entries(&self) -> Vec<(u64, i64)> {
        match self {
            GroupAcc::Dense(slots) => slots
                .iter()
                .zip(0u64..)
                .filter_map(|(slot, key)| slot.map(|v| (key, v)))
                .collect(),
            #[expect(
                clippy::disallowed_methods,
                reason = "D001: hash order, but MtMapRunner::run sorts the emitted groups and merge folds commutatively"
            )]
            GroupAcc::Sparse(map) => map.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }
}

/// Reusable scratch for [`probe_block_vec`]: the selection vector and the
/// packed group keys of the rows it selects. One per probe thread; the
/// buffers grow to the largest block seen and are then reused without
/// clearing, so the hot loop neither allocates nor memsets.
#[derive(Debug, Default)]
pub struct SelBuf {
    sel: Vec<u32>,
    keys: Vec<u64>,
}

#[inline]
fn pred_ok(p: &CompiledFactPred, v: i32) -> bool {
    match *p {
        CompiledFactPred::Between { lo, hi, .. } => v >= lo && v <= hi,
        CompiledFactPred::Lt { value, .. } => v < value,
    }
}

/// Lane width of the branch-free predicate stage: compares fill a
/// fixed-width mask (which LLVM autovectorizes), then a cursor-advance loop
/// expands the mask into selection indices without a data-dependent branch.
const PRED_LANE: usize = 64;

/// Store `v` at the write cursor `w` of an in-place compaction. The cursor
/// never passes the slot being read, so the slot exists and the check is a
/// branch that is never taken. (Clamping the cursor into range instead
/// puts a `cmov` on its dependency chain and costs the join loops ~5%.)
#[inline(always)]
fn put<T>(buf: &mut [T], w: usize, v: T) {
    if let Some(slot) = buf.get_mut(w) {
        *slot = v;
    }
}

/// Branch-free first-predicate selection fill over `vals[0..n]` into
/// `sel[0..n]` (pre-sized by the caller, never zero-filled); returns the
/// survivor count. `n` is clamped to both slices. The values are native
/// `i32`s or the little-endian bytes of an in-place column; each form is
/// its own instance. Public and never inlined so the codegen smoke check
/// can locate its symbols in the compiled binary and verify the compare
/// lanes vectorized.
#[inline(never)]
pub fn compact_sel_first<T: I32Cell>(
    sel: &mut [u32],
    n: usize,
    p: &CompiledFactPred,
    vals: &[T],
) -> usize {
    let mut ok = [false; PRED_LANE];
    let mut w = 0usize;
    let lanes = vals
        .get(..n.min(sel.len()))
        .unwrap_or(vals)
        .chunks(PRED_LANE);
    for (base, lane) in (0..).step_by(PRED_LANE).zip(lanes) {
        match *p {
            CompiledFactPred::Between { lo, hi, .. } => {
                for (o, &v) in ok.iter_mut().zip(lane) {
                    let v = v.value();
                    *o = (v >= lo) & (v <= hi);
                }
            }
            CompiledFactPred::Lt { value, .. } => {
                for (o, &v) in ok.iter_mut().zip(lane) {
                    *o = v.value() < value;
                }
            }
        }
        for (k, &hit) in ok.iter().take(lane.len()).enumerate() {
            put(sel, w, (base + k) as u32);
            w += usize::from(hit);
        }
    }
    w
}

/// Branch-free in-place compaction of `sel[0..live]` by a further predicate
/// (the gathers through `sel` keep this scalar, but the cursor advance
/// stays unconditional); returns the new live count.
fn compact_sel_next<T: I32Cell>(
    sel: &mut [u32],
    live: usize,
    p: &CompiledFactPred,
    vals: &[T],
) -> Result<usize> {
    let mut w = 0usize;
    for r in 0..live.min(sel.len()) {
        let Some(&i) = sel.get(r) else { break };
        put(sel, w, i);
        w += usize::from(pred_ok(p, row_of(vals, i as usize)?));
    }
    Ok(w)
}

/// The first `len` slots of the selection buffers, which one join reads
/// and compacts in place.
fn live_prefix<'a>(
    len: usize,
    sel: &'a mut [u32],
    keys: &'a mut [u64],
) -> Result<(&'a mut [u32], &'a mut [u64])> {
    let room = sel.len().min(keys.len());
    match (sel.get_mut(..len), keys.get_mut(..len)) {
        (Some(sel), Some(keys)) => Ok((sel, keys)),
        _ => Err(ClydeError::Plan(format!(
            "a {len}-row selection outgrew its {room}-slot buffers"
        ))),
    }
}

/// Probe one direct-index table over the selection `sel`/`keys` (one slot
/// per live row), compacting both in place; returns the survivor count.
/// With `FUSED` the selection is the identity (the caller skipped
/// materializing it) and the packed-key base is 0.
///
/// `branch_free` picks the store discipline: unconditional select + store
/// with a cursor that advances by the hit bit (wins when hits are
/// unpredictable), or plain branches (wins when the table is so selective
/// — or so permissive — that the branch predictor is nearly always right).
#[expect(
    clippy::too_many_arguments,
    reason = "the hot loop takes the direct table's fields apart, not a struct"
)]
fn probe_direct<const FUSED: bool, T: I32Cell>(
    sel: &mut [u32],
    keys: &mut [u64],
    fk: &[T],
    min: i64,
    ids: &[u32],
    shift: u32,
    contrib: u64,
    branch_free: bool,
) -> Result<usize> {
    if ids.is_empty() {
        return Ok(0); // every key misses
    }
    // Direct-table keys come from i32 columns, so the slot index fits u32
    // arithmetic: a negative or overlarge difference wraps above the slot
    // count and fails the range check (ids never approach 2^31 slots).
    // The branch-free loops load slot 0, which exists, for an out-of-range
    // key and mask it to a miss, so the load is unconditional. (A `get`
    // per key that misses to `NONE_ID` branches on every key and halves
    // Q4.1.)
    let min32 = min as u32;
    let end = ids.len();
    let len = sel.len().min(keys.len());
    let mut w = 0usize;
    if FUSED && contrib == 0 && branch_free {
        // Branch-free and key-free: the join neither reads packed keys
        // (fused: base is 0) nor adds bits, so the scattered key store is
        // replaced by one sequential fill of the survivor prefix.
        for (r, &k) in fk.iter().enumerate().take(len) {
            let idx = (k.value() as u32).wrapping_sub(min32) as usize;
            let in_range = idx < end;
            let id = ids
                .get(if in_range { idx } else { 0 })
                .copied()
                .unwrap_or(NONE_ID);
            let hit = in_range & (id != NONE_ID);
            put(sel, w, r as u32);
            w += usize::from(hit);
        }
        for key in keys.iter_mut().take(w) {
            *key = 0;
        }
    } else if branch_free {
        // Misses write garbage at `w` that the next hit (or the caller's
        // live count) makes unreachable.
        for r in 0..len {
            let i = if FUSED {
                r
            } else {
                sel.get(r).map_or(0, |&i| i as usize)
            };
            let idx = (row_of(fk, i)? as u32).wrapping_sub(min32) as usize;
            let in_range = idx < end;
            let id = ids
                .get(if in_range { idx } else { 0 })
                .copied()
                .unwrap_or(NONE_ID);
            let hit = in_range & (id != NONE_ID);
            put(sel, w, i as u32);
            let base = if FUSED {
                0
            } else {
                keys.get(r).copied().unwrap_or(0)
            };
            put(keys, w, base | ((u64::from(id) << shift) & contrib));
            w += usize::from(hit);
        }
    } else if FUSED && contrib == 0 {
        // The join neither reads packed keys (fused: base is 0) nor adds
        // bits to them — every surviving key is 0, so one sequential fill
        // afterwards replaces a scattered store per row.
        for (r, &k) in fk.iter().enumerate().take(len) {
            let idx = (k.value() as u32).wrapping_sub(min32) as usize;
            if ids.get(idx).is_some_and(|&id| id != NONE_ID) {
                put(sel, w, r as u32);
                w += 1;
            }
        }
        for key in keys.iter_mut().take(w) {
            *key = 0;
        }
    } else {
        for r in 0..len {
            let i = if FUSED {
                r
            } else {
                sel.get(r).map_or(0, |&i| i as usize)
            };
            let idx = (row_of(fk, i)? as u32).wrapping_sub(min32) as usize;
            if let Some(&id) = ids.get(idx) {
                if id != NONE_ID {
                    put(sel, w, i as u32);
                    let base = if FUSED {
                        0
                    } else {
                        keys.get(r).copied().unwrap_or(0)
                    };
                    put(keys, w, base | ((u64::from(id) << shift) & contrib));
                    w += 1;
                }
            }
        }
    }
    Ok(w)
}

/// Probe a hash-mapped table (key range too wide for a direct table, or
/// an empty build side) over the selection `sel`/`keys`, compacting both
/// in place; returns the survivor count.
fn probe_hashed<const FUSED: bool, T: I32Cell>(
    sel: &mut [u32],
    keys: &mut [u64],
    fk: &[T],
    id_map: &FxHashMap<i64, u32>,
    shift: u32,
    contrib: u64,
) -> Result<usize> {
    let mut w = 0usize;
    for r in 0..sel.len().min(keys.len()) {
        let i = if FUSED {
            r
        } else {
            sel.get(r).map_or(0, |&i| i as usize)
        };
        if let Some(&id) = id_map.get(&i64::from(row_of(fk, i)?)) {
            put(sel, w, i as u32);
            let base = if FUSED {
                0
            } else {
                keys.get(r).copied().unwrap_or(0)
            };
            put(keys, w, base | ((u64::from(id) << shift) & contrib));
            w += 1;
        }
    }
    Ok(w)
}

/// Hit-rate band in which the branch-free probe loop is used: outside it
/// the branch predictor is nearly always right and branchy code skips the
/// unconditional stores.
const BRANCH_FREE_BAND: (f64, f64) = (0.08, 0.92);

/// Vectorized probe of one whole column block: [`probe_range_vec`] over
/// all its rows.
///
/// The trailing `KernelOpts` is a frozen-benchmark shim (see `config.rs`):
/// a unit value, ignored.
#[expect(
    clippy::too_many_arguments,
    reason = "the frozen benchmark calls this signature, KernelOpts included"
)]
pub fn probe_block_vec(
    block: &RowBlock,
    plan: &ProbePlan,
    tables: &DimTables,
    layout: &GroupLayout,
    acc: &mut GroupAcc,
    buf: &mut SelBuf,
    stats: &mut ProbeStats,
    _: KernelOpts,
) -> Result<()> {
    let rows = 0..block.len();
    stats.add(&probe_range_vec(
        block, rows, plan, tables, layout, acc, buf,
    )?);
    Ok(())
}

/// Vectorized probe of rows `rows` of a column block (the default kernel).
///
/// Same semantics and identical [`ProbeStats`] as [`probe_range`]: each
/// fact predicate and each join shrinks the selection vector, and a join
/// only probes indices that survived every earlier stage — early-out as
/// vector compaction. Aggregates land in `acc` under packed group-id keys;
/// use [`GroupLayout::rematerialize`] to recover the group `Row`s.
///
/// Anatomy (DESIGN.md §10): the predicate stage compacts branch-free over
/// fixed-width lanes; joins against direct-index tables run either
/// select+cursor-advance or branchy loops, chosen per table from its build
/// hit rate; and a query with no fact predicate fuses its first join with
/// selection-vector creation so the identity selection is never
/// materialized. Selection indices are relative to `rows.start`. Returns
/// the range's [`ProbeStats`].
pub fn probe_range_vec(
    block: &RowBlock,
    rows: Range<usize>,
    plan: &ProbePlan,
    tables: &DimTables,
    layout: &GroupLayout,
    acc: &mut GroupAcc,
    buf: &mut SelBuf,
) -> Result<ProbeStats> {
    check_join_count(plan.fks.len())?;
    let mut stats = ProbeStats::default();
    let cols = i32_columns(block, &rows)?;
    let slice = |idx: usize| need_i32(&cols, idx);
    let fk_slices: Vec<I32s> = plan.fks.iter().map(|&i| slice(i)).collect::<Result<_>>()?;
    let pred_slices: Vec<I32s> = plan
        .fact_preds
        .iter()
        .map(|p| slice(p.col()))
        .collect::<Result<_>>()?;
    let agg_a = plan.agg_a.map(slice).transpose()?;
    let agg_b = plan.agg_b.map(slice).transpose()?;

    let n = rows.len();
    stats.rows += n as u64;
    let SelBuf { sel, keys } = buf;
    // Capacity, not contents: `sel`/`keys` keep their maximum length across
    // blocks and are never zero-filled — every slot read below was written
    // by an earlier stage of the same block. (A per-block `resize(n, 0)`
    // memset costs more than the probes it feeds.)
    if sel.len() < n {
        sel.resize(n, 0);
        keys.resize(n, 0);
    }

    // Predicate stage: build the selection vector. The first predicate
    // filters the full index range directly; later ones compact in place.
    // With no predicate the identity selection is left implicit for the
    // first join to fuse with.
    let fuse_first_join = plan.fact_preds.is_empty() && !fk_slices.is_empty();
    let mut live: usize;
    let mut preds = plan.fact_preds.iter().zip(&pred_slices);
    if let Some((p, &vals)) = preds.next() {
        live = with_cells!(vals, |v| compact_sel_first(sel, n, p, v));
        for (p, &vals) in preds {
            live = with_cells!(vals, |v| compact_sel_next(sel, live, p, v))?;
        }
        // The first join ORs its id into `keys[r]`; clear only the live
        // prefix it will read.
        for k in keys.iter_mut().take(live) {
            *k = 0;
        }
    } else if fk_slices.is_empty() {
        // No predicates and no joins: everything survives.
        for (i, s) in sel.iter_mut().enumerate().take(n) {
            *s = i as u32;
        }
        for k in keys.iter_mut().take(n) {
            *k = 0;
        }
        live = n;
    } else {
        // Fused: the identity selection is never materialized; the first
        // join writes `sel`/`keys` from scratch.
        live = n;
    }

    // Join stage: probe each dimension over the surviving indices — most
    // selective first ([`DimTables::probe_order`]) so the selection vector
    // collapses as early as possible — packing group-contributing ids into
    // `keys` as the vector compacts. Per join: shift and a contribution
    // mask (all-ones when the join's id is part of the packed key, zero
    // otherwise) keep the inner loops branch-free.
    for (k, &j) in tables.probe_order().iter().enumerate() {
        let (Some(&fk), Some(table)) = (fk_slices.get(j), tables.tables.get(j)) else {
            return Err(join_outside_plan(j));
        };
        let (shift, contrib) = match layout.shift_of.get(j).copied().flatten() {
            Some(sh) => (sh, u64::MAX),
            None => (0u32, 0u64),
        };
        let fused = fuse_first_join && k == 0;
        let len = if fused { n } else { live };
        stats.probes += len as u64;
        let (sel, keys) = live_prefix(len, sel, keys)?;
        live = match table.direct_parts() {
            Some((min, ids)) if !ids.is_empty() => {
                let rate = table.hit_rate();
                let branch_free = rate >= BRANCH_FREE_BAND.0 && rate <= BRANCH_FREE_BAND.1;
                with_cells!(fk, |fk| if fused {
                    probe_direct::<true, _>(sel, keys, fk, min, ids, shift, contrib, branch_free)
                } else {
                    probe_direct::<false, _>(sel, keys, fk, min, ids, shift, contrib, branch_free)
                })?
            }
            _ => with_cells!(fk, |fk| if fused {
                probe_hashed::<true, _>(sel, keys, fk, table.id_map(), shift, contrib)
            } else {
                probe_hashed::<false, _>(sel, keys, fk, table.id_map(), shift, contrib)
            })?,
        };
    }
    stats.survivors += live as u64;

    // Aggregate stage: fold each survivor's measure into its packed group.
    with_opt_cells!(agg_a, |a| with_opt_cells!(agg_b, |b| {
        fold_survivors(sel, keys, live, a, b, &plan.aggregate, acc)
    }))?;
    Ok(stats)
}

/// Fold the measure of each of the `live` selected rows `sel[r]` into its
/// packed group `keys[r]`, reading the measure columns in their stored
/// forms.
fn fold_survivors<A: I32Cell, B: I32Cell>(
    sel: &[u32],
    keys: &[u64],
    live: usize,
    a: Option<&[A]>,
    b: Option<&[B]>,
    aggregate: &Aggregate,
    acc: &mut GroupAcc,
) -> Result<()> {
    for (&i, &key) in sel.iter().zip(keys).take(live) {
        acc.fold(key, aggregate.eval_i64(a, b, i as usize)?, aggregate)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::RowBlockBuilder;
    use clyde_ssb::gen::SsbGen;
    use clyde_ssb::queries::query_by_id;
    use clyde_ssb::schema;

    /// Shared fixture: SF 0.005 data, Q2.1 plan+tables.
    fn fixture() -> (
        clyde_ssb::SsbData,
        StarQuery,
        Schema,
        Vec<usize>,
        ProbePlan,
        DimTables,
    ) {
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        let q = query_by_id("Q2.1").unwrap();
        let fact_schema = schema::lineorder_schema();
        let scan_cols: Vec<usize> = q
            .fact_columns()
            .iter()
            .map(|c| fact_schema.index_of(c).unwrap())
            .collect();
        let scan_schema = fact_schema.project(&scan_cols);
        let plan = ProbePlan::compile(&q, &scan_schema).unwrap();
        let tables =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        (data, q, scan_schema, scan_cols, plan, tables)
    }

    fn block_of(data: &clyde_ssb::SsbData, scan_schema: &Schema, cols: &[usize]) -> RowBlock {
        let dtypes: Vec<_> = scan_schema.fields().iter().map(|f| f.dtype).collect();
        let mut b = RowBlockBuilder::new(&dtypes);
        for lo in &data.lineorder {
            b.push_row(&cols.iter().map(|&c| lo.at(c).clone()).collect::<Row>())
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn block_probe_matches_reference() {
        let (data, q, scan_schema, cols, plan, tables) = fixture();
        let block = block_of(&data, &scan_schema, &cols);
        let mut acc = FxHashMap::default();
        let mut stats = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut acc, &mut stats).unwrap();

        // clyde-lint: allow(unordered, reason=sort_result orders the rows below)
        let mut rows: Vec<Row> = acc
            .into_iter()
            .map(|(k, v)| k.concat(&clyde_common::row![v]))
            .collect();
        q.sort_result(&mut rows);
        let expect = clyde_ssb::reference_answer(&data, &q).unwrap();
        assert_eq!(rows, expect);
        assert_eq!(stats.rows, data.lineorder.len() as u64);
        assert!(stats.survivors > 0);
    }

    #[test]
    fn row_probe_matches_block_probe() {
        let (data, _q, _scan_schema, cols, plan, tables) = fixture();
        let block = block_of(&data, &_scan_schema, &cols);
        let mut acc_block = FxHashMap::default();
        let mut st1 = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut acc_block, &mut st1).unwrap();

        let mut acc_row = FxHashMap::default();
        let mut st2 = ProbeStats::default();
        for lo in &data.lineorder {
            probe_row(
                &cols.iter().map(|&c| lo.at(c).clone()).collect::<Row>(),
                &plan,
                &tables,
                &mut acc_row,
                &mut st2,
            )
            .unwrap();
        }
        assert_eq!(acc_block, acc_row);
        assert_eq!(st1, st2, "both paths must count identically");
    }

    #[test]
    fn early_out_reduces_probe_count() {
        // Build a variant of Q2.1 that probes the selective part join first
        // (Clydesdale is free to choose probe order; this tests early-out).
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        let mut q = query_by_id("Q2.1").unwrap();
        q.joins.rotate_left(1); // part, supplier, date
        assert_eq!(q.joins[0].dimension, "part");
        let fact_schema = schema::lineorder_schema();
        let cols: Vec<usize> = q
            .fact_columns()
            .iter()
            .map(|c| fact_schema.index_of(c).unwrap())
            .collect();
        let scan_schema = fact_schema.project(&cols);
        let plan = ProbePlan::compile(&q, &scan_schema).unwrap();
        let tables =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        let block = block_of(&data, &scan_schema, &cols);
        let mut acc = FxHashMap::default();
        let mut stats = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut acc, &mut stats).unwrap();
        // Part's category filter (≈ 1/25) gates the remaining probes, so
        // total probes stay far below rows × 3 joins.
        assert!(
            stats.probes < stats.rows * 2,
            "early-out broken: {} probes for {} rows",
            stats.probes,
            stats.rows
        );
        // But at least one probe per row happened.
        assert!(stats.probes >= stats.rows);
        // Early-out never changes results: reordered joins give the same
        // answer as the reference.
        // clyde-lint: allow(unordered, reason=sort_result orders the rows below)
        let mut rows: Vec<Row> = acc
            .into_iter()
            .map(|(k, v)| k.concat(&clyde_common::row![v]))
            .collect();
        q.sort_result(&mut rows);
        let expect = clyde_ssb::reference_answer(&data, &query_by_id("Q2.1").unwrap()).unwrap();
        // Group-by order differs only if aux sources moved; Q2.1 groups by
        // (d_year, p_brand1) regardless of join order.
        assert_eq!(rows, expect);
    }

    #[test]
    fn fact_predicates_gate_probing() {
        // Q1.1 has fact predicates; rows failing them must not probe at all.
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        let q = query_by_id("Q1.1").unwrap();
        let fact_schema = schema::lineorder_schema();
        let cols: Vec<usize> = q
            .fact_columns()
            .iter()
            .map(|c| fact_schema.index_of(c).unwrap())
            .collect();
        let scan_schema = fact_schema.project(&cols);
        let plan = ProbePlan::compile(&q, &scan_schema).unwrap();
        let tables =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        let block = block_of(&data, &scan_schema, &cols);
        let mut acc = FxHashMap::default();
        let mut stats = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut acc, &mut stats).unwrap();
        assert!(stats.probes < stats.rows / 2, "predicates must gate probes");
        // Single group (no group-by).
        assert_eq!(acc.len(), 1);
        let expect = clyde_ssb::reference_answer(&data, &q).unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "asserted single-entry map, no order to observe"
        )]
        let total = acc.values().next().copied().unwrap();
        assert_eq!(total, expect[0].at(0).as_i64().unwrap());
    }

    /// Run the vectorized kernel and rematerialize its packed groups.
    fn vec_probe(
        block: &RowBlock,
        plan: &ProbePlan,
        tables: &DimTables,
    ) -> (FxHashMap<Row, i64>, ProbeStats) {
        let layout = GroupLayout::new(plan, tables).expect("key fits");
        let mut acc = GroupAcc::new(&layout, &plan.aggregate);
        let mut buf = SelBuf::default();
        let mut stats = ProbeStats::default();
        probe_block_vec(
            block, plan, tables, &layout, &mut acc, &mut buf, &mut stats, KernelOpts,
        )
        .unwrap();
        // Group ids are dictionary codes of distinct aux tuples, and every
        // SSB aux column is a group-by column: one packed key per group row.
        let mut rows: FxHashMap<Row, i64> = FxHashMap::default();
        for (k, v) in acc.entries() {
            let key = layout.rematerialize(k, tables);
            assert!(rows.insert(key, v).is_none(), "two keys, one group row");
        }
        (rows, stats)
    }

    #[test]
    fn vectorized_matches_scalar_exactly() {
        let (data, _q, scan_schema, cols, plan, tables) = fixture();
        let block = block_of(&data, &scan_schema, &cols);
        let mut acc = FxHashMap::default();
        let mut st_scalar = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut acc, &mut st_scalar).unwrap();
        let (vec_acc, st_vec) = vec_probe(&block, &plan, &tables);
        assert_eq!(vec_acc, acc);
        assert_eq!(st_vec, st_scalar, "kernels must count identically");
    }

    #[test]
    fn vectorized_handles_fact_predicates_and_dense_acc() {
        // Q1.1: fact predicates plus no group-by — the packed key space is
        // a single slot, so the dense accumulator path runs.
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        let q = query_by_id("Q1.1").unwrap();
        let fact_schema = schema::lineorder_schema();
        let cols: Vec<usize> = q
            .fact_columns()
            .iter()
            .map(|c| fact_schema.index_of(c).unwrap())
            .collect();
        let scan_schema = fact_schema.project(&cols);
        let plan = ProbePlan::compile(&q, &scan_schema).unwrap();
        let tables =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        let layout = GroupLayout::new(&plan, &tables).unwrap();
        assert_eq!(layout.dense_slots(), Some(1));
        let block = block_of(&data, &scan_schema, &cols);
        let mut acc = FxHashMap::default();
        let mut st_scalar = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut acc, &mut st_scalar).unwrap();
        let (vec_acc, st_vec) = vec_probe(&block, &plan, &tables);
        assert_eq!(vec_acc, acc);
        assert_eq!(st_vec, st_scalar);
        assert!(
            st_vec.probes < st_vec.rows / 2,
            "predicates must gate probes"
        );
    }

    #[test]
    fn vectorized_early_out_counts_match_scalar() {
        // Selective join first (part): the selection vector shrinks after
        // join 1, so joins 2..n probe fewer keys — and the probe counter
        // must agree with the scalar early-out to the last probe.
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        let mut q = query_by_id("Q2.1").unwrap();
        q.joins.rotate_left(1);
        let fact_schema = schema::lineorder_schema();
        let cols: Vec<usize> = q
            .fact_columns()
            .iter()
            .map(|c| fact_schema.index_of(c).unwrap())
            .collect();
        let scan_schema = fact_schema.project(&cols);
        let plan = ProbePlan::compile(&q, &scan_schema).unwrap();
        let tables =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        let block = block_of(&data, &scan_schema, &cols);
        let mut acc = FxHashMap::default();
        let mut st_scalar = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut acc, &mut st_scalar).unwrap();
        let (vec_acc, st_vec) = vec_probe(&block, &plan, &tables);
        assert_eq!(vec_acc, acc);
        assert_eq!(st_vec, st_scalar);
        assert!(st_vec.probes < st_vec.rows * 2);
    }

    #[test]
    fn group_acc_merge_folds_partials() {
        let (data, _q, scan_schema, cols, plan, tables) = fixture();
        let block = block_of(&data, &scan_schema, &cols);
        let layout = GroupLayout::new(&plan, &tables).unwrap();
        // Probe the same block into two accumulators, merge, and compare
        // against a doubled scalar run.
        let mut a = GroupAcc::new(&layout, &plan.aggregate);
        let mut b = GroupAcc::new(&layout, &plan.aggregate);
        let mut buf = SelBuf::default();
        let mut st = ProbeStats::default();
        for acc in [&mut a, &mut b] {
            probe_block_vec(
                &block, &plan, &tables, &layout, acc, &mut buf, &mut st, KernelOpts,
            )
            .unwrap();
        }
        a.merge(b, &plan.aggregate).unwrap();

        let mut scalar = FxHashMap::default();
        let mut st2 = ProbeStats::default();
        probe_block(&block, &plan, &tables, &mut scalar, &mut st2).unwrap();
        probe_block(&block, &plan, &tables, &mut scalar, &mut st2).unwrap();
        let mut merged: FxHashMap<Row, i64> = FxHashMap::default();
        for (k, v) in a.entries() {
            let key = layout.rematerialize(k, &tables);
            let slot = merged
                .entry(key)
                .or_insert_with(|| plan.aggregate.identity());
            *slot = plan.aggregate.fold(*slot, v);
        }
        assert_eq!(merged, scalar);
        assert_eq!(st, st2);
    }

    #[test]
    fn row_ranges_probe_like_copies_of_them() {
        let (data, _q, scan_schema, cols, plan, tables) = fixture();
        let block = block_of(&data, &scan_schema, &cols);
        let layout = GroupLayout::new(&plan, &tables).unwrap();
        let n = block.len();
        let cuts = [0, 1, 4096, n / 2, n - 1, n];
        let mut by_range = (
            GroupAcc::new(&layout, &plan.aggregate),
            FxHashMap::default(),
        );
        let mut by_copy = (
            GroupAcc::new(&layout, &plan.aggregate),
            FxHashMap::default(),
        );
        let (mut st_range, mut st_copy) = (ProbeStats::default(), ProbeStats::default());
        let mut buf = SelBuf::default();
        for w in cuts.windows(2) {
            let (from, to) = (w[0], w[1]);
            st_range.add(
                &probe_range_vec(
                    &block,
                    from..to,
                    &plan,
                    &tables,
                    &layout,
                    &mut by_range.0,
                    &mut buf,
                )
                .unwrap(),
            );
            probe_range(
                &block,
                from..to,
                &plan,
                &tables,
                &mut by_range.1,
                &mut st_range,
            )
            .unwrap();
            let copy = block.slice(from, to).unwrap();
            probe_block_vec(
                &copy,
                &plan,
                &tables,
                &layout,
                &mut by_copy.0,
                &mut buf,
                &mut st_copy,
                KernelOpts,
            )
            .unwrap();
            probe_block(&copy, &plan, &tables, &mut by_copy.1, &mut st_copy).unwrap();
        }
        assert_eq!(by_range.0.entries(), by_copy.0.entries());
        assert_eq!(by_range.1, by_copy.1);
        assert_eq!(st_range, st_copy);
        // A range outside the block is a typed error from every kernel.
        let mut st = ProbeStats::default();
        let mut acc = GroupAcc::new(&layout, &plan.aggregate);
        assert!(probe_range_vec(
            &block,
            n - 1..n + 1,
            &plan,
            &tables,
            &layout,
            &mut acc,
            &mut buf,
        )
        .is_err());
        let mut acc = FxHashMap::default();
        assert!(probe_range(&block, n..n + 1, &plan, &tables, &mut acc, &mut st).is_err());
        assert_eq!(st, ProbeStats::default(), "nothing was probed");
    }

    #[test]
    fn compile_rejects_missing_columns() {
        let q = query_by_id("Q2.1").unwrap();
        let tiny = Schema::new(vec![clyde_common::Field::i32("lo_partkey")]);
        assert!(ProbePlan::compile(&q, &tiny).is_err());
    }

    /// Codegen smoke check (x86_64): the branch-free predicate lanes of
    /// [`compact_sel_first`] must actually autovectorize in both of its
    /// instances — over native `i32`s and over the `[u8; 4]` cells of an
    /// in-place column: each instance's disassembly has to touch SIMD
    /// registers. Skips (with a note) when `objdump` is unavailable rather
    /// than failing.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_compaction_codegen_smoke() {
        // Correctness part, always runs: lanes agree with the branchy path,
        // in both forms.
        let vals: Vec<i32> = (0..10_000).map(|i| (i * 7919) % 101 - 50).collect();
        let cells: Vec<[u8; 4]> = vals.iter().map(|v| v.to_le_bytes()).collect();
        for p in [
            CompiledFactPred::Between {
                col: 0,
                lo: -40,
                hi: 10,
            },
            CompiledFactPred::Lt { col: 0, value: -3 },
        ] {
            let expect: Vec<u32> = (0..vals.len() as u32)
                .filter(|&i| pred_ok(&p, vals[i as usize]))
                .collect();
            let mut sel = vec![0u32; vals.len()];
            let w = compact_sel_first(&mut sel, vals.len(), &p, &vals);
            assert_eq!(&sel[..w], &expect[..]);
            let mut sel = vec![0u32; vals.len()];
            let w = compact_sel_first(&mut sel, vals.len(), &p, &cells);
            assert_eq!(&sel[..w], &expect[..]);
        }

        // Codegen part: disassemble this test binary and look for xmm/ymm
        // register usage inside each compact_sel_first symbol. Only
        // meaningful in optimized builds — debug codegen never vectorizes.
        if cfg!(debug_assertions) {
            eprintln!("debug build; skipping codegen assertion (run with --release)");
            return;
        }
        let exe = std::env::current_exe().expect("test binary path");
        let out = match std::process::Command::new("objdump")
            .args(["-d", "--demangle"])
            .arg(&exe)
            .output()
        {
            Ok(o) if o.status.success() => o,
            _ => {
                eprintln!("objdump unavailable; skipping codegen assertion");
                return;
            }
        };
        let asm = String::from_utf8_lossy(&out.stdout);
        // One entry per compact_sel_first symbol: whether it used SIMD.
        let mut instances: Vec<bool> = Vec::new();
        let mut in_fn = false;
        for line in asm.lines() {
            if line.contains(">:") {
                in_fn = line.contains("compact_sel_first");
                if in_fn {
                    instances.push(false);
                }
            } else if in_fn && (line.contains("%xmm") || line.contains("%ymm")) {
                if let Some(simd) = instances.last_mut() {
                    *simd = true;
                }
            }
        }
        assert!(
            instances.len() >= 2,
            "expected the i32 and [u8; 4] instances of compact_sel_first, found {}",
            instances.len()
        );
        assert!(
            instances.iter().all(|&simd| simd),
            "a compact_sel_first instance compiled without SIMD registers — predicate lanes did not vectorize: {instances:?}"
        );
    }
}
