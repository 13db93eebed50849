//! Dimension hash tables (paper Section 4.2).
//!
//! One table per dimension join: key = dimension primary key, value = the
//! auxiliary columns the query references. The dimension predicate is
//! evaluated during the build, so non-qualifying rows never enter the table
//! and the probe's miss *is* the filter. Once built, the tables are
//! read-only and are shared by every thread and every subsequent task on
//! the node without synchronization — exactly the property the paper
//! exploits (Section 5.1). The same property lets a built table outlive its
//! query: [`DimTables::build_all_resident`] takes tables an earlier query on
//! the engine built from the same node-local bytes out of the node's
//! [`ResidentStore`] and builds only the rest.
//!
//! Qualifying rows additionally get a dense **group id** (`u32`): the
//! dictionary code of their aux tuple, assigned in first-appearance order.
//! Rows with equal aux values (the 365 dates of one `d_year`) share an id,
//! so the id space is the number of distinct group values, not of
//! qualifying rows. The vectorized probe kernel works in ids and packs them
//! into a single `u64` group key, rematerializing the aux `Row`s once per
//! populated group at emit time. [`DimHashTable::get`] still returns the
//! aux row directly for the scalar paths.

use bytes::Bytes;
use clyde_common::rowcodec::RowsRef;
use clyde_common::{ClydeError, DatumRef, FxHashMap, Result, Row};
use clyde_mapred::{fan_out, ResidentStore};
use clyde_ssb::queries::{DimJoin, DimPred};
use clyde_ssb::schema;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Direct-index probe tables are built when the key range spans at most
/// this many slots (16 MiB of `u32`). SSB dimension keys are small dense
/// integers (or, for dates, a narrow `yyyymmdd` band), so measurement-scale
/// tables always qualify; a dimension whose key range outgrows the cap
/// falls back to hash probing transparently.
const DIRECT_MAX_SLOTS: i64 = 1 << 22;

/// Maximum slots-per-entry ratio for the direct-index table. Requiring
/// density keeps the array's footprint proportional to the dimension's
/// cardinality (so it scales like the hash map it shadows) once the range
/// outgrows [`DIRECT_SMALL_RANGE`].
const DIRECT_MAX_SLOTS_PER_ENTRY: usize = 4;

/// Key ranges at most this wide always get a direct-index table, however
/// sparse (≤ 512 KiB of `u32` — cheaper than the hash map it replaces
/// would ever be to probe). This is what puts yyyymmdd date keys, whose
/// 7-year span occupies ~2.5k of ~61k slots and therefore fails the
/// density rule, on the array path: the date dimension is probed by every
/// fact row of flights 2-4, so its probe is the kernel's hottest load.
const DIRECT_SMALL_RANGE: i64 = 1 << 17;

/// Sentinel in the direct-index table: key present in range but filtered
/// out or absent.
pub(crate) const NONE_ID: u32 = u32::MAX;

/// A read-only hash table over one (filtered) dimension.
#[derive(Debug)]
pub struct DimHashTable {
    /// Primary key → group id (index into `aux_rows`).
    map: FxHashMap<i64, u32>,
    /// Direct-index probe table `(min_key, ids)`: `ids[key - min_key]` is
    /// the group id or [`NONE_ID`]. Used by [`DimHashTable::get_id`]
    /// (the vectorized kernel) — an array load instead of a hash probe.
    direct: Option<(i64, Vec<u32>)>,
    /// The group-id dictionary: the distinct aux tuples of the qualifying
    /// rows, in first-appearance order, so keys with equal aux values
    /// share one entry.
    aux_rows: Vec<Row>,
    /// Rows scanned while building (qualifying or not) — the build cost.
    pub rows_scanned: u64,
    /// Approximate heap footprint, for the node memory model — the part
    /// that grows with dimension cardinality (map entries, aux rows, and
    /// direct-array slots up to `DIRECT_MAX_SLOTS_PER_ENTRY` per entry).
    /// Charged per qualifying row, aux row included, as the paper's
    /// per-entry table holds it, even though `aux_rows` keeps each distinct
    /// tuple once.
    pub mem_bytes: u64,
    /// Range-bounded footprint that does NOT grow with cardinality: the
    /// slack of a small-range direct array beyond the density cap (e.g.
    /// the yyyymmdd date array, whose ~61k slots are fixed by the 7-year
    /// calendar at every scale factor). The cost extrapolator scales
    /// `mem_bytes` with dimension cardinality but carries this through
    /// unscaled.
    pub mem_fixed_bytes: u64,
}

/// Everything of a [`DimJoin`] the build reads. `fk` is the probe side's
/// column and shapes no table, so joins that differ only there share one.
#[derive(PartialEq, Eq, Hash)]
struct BuildKey {
    dimension: String,
    pk: String,
    predicate: DimPred,
    aux: Vec<String>,
}

impl BuildKey {
    fn of(join: &DimJoin) -> BuildKey {
        BuildKey {
            dimension: join.dimension.clone(),
            pk: join.pk.clone(),
            predicate: join.predicate.clone(),
            aux: join.aux.clone(),
        }
    }
}

impl DimHashTable {
    /// The table an earlier [`DimTables::build_all_resident`] on this node
    /// built for `join` from exactly the buffer `bytes` — equal to
    /// `build_encoded(join, bytes)`, which is what a miss runs.
    pub fn resident(
        store: &ResidentStore,
        join: &DimJoin,
        bytes: &Bytes,
    ) -> Option<Arc<DimHashTable>> {
        store.lookup(bytes, &BuildKey::of(join))
    }

    /// Build from in-memory dimension rows per the join description.
    /// `buildHashTables` in the paper's Figure 4 pseudocode.
    pub fn build(join: &DimJoin, rows: &[Row]) -> Result<DimHashTable> {
        let mut rows = rows.iter();
        Self::build_from(join, |fields| {
            fields.clear();
            let Some(row) = rows.next() else {
                return Ok(false);
            };
            fields.extend(row.iter().map(DatumRef::from));
            Ok(true)
        })
    }

    /// Build straight from a dimension's row-binary file
    /// ([`clyde_common::rowcodec::write_rows`]) — what a node holds on local disk. Rows
    /// are decoded as borrowed fields inside the build, so only qualifying
    /// rows' key and aux columns are ever allocated; the table is identical
    /// to `build(join, &rowcodec::read_rows(bytes)?)`, and every buffer
    /// `read_rows` rejects is rejected here.
    pub fn build_encoded(join: &DimJoin, bytes: &[u8]) -> Result<DimHashTable> {
        let mut reader = RowsRef::new(bytes)?;
        Self::build_from(join, |fields| reader.next_into(fields))
    }

    /// The build proper. `next_row` refills `fields` with the next
    /// dimension row and returns `false` after the last one.
    fn build_from<'a>(
        join: &DimJoin,
        mut next_row: impl FnMut(&mut Vec<DatumRef<'a>>) -> Result<bool>,
    ) -> Result<DimHashTable> {
        let dim_schema = schema::schema_of(&join.dimension)
            .ok_or_else(|| ClydeError::Plan(format!("unknown dimension {}", join.dimension)))?;
        let pred = join.predicate.compile(&dim_schema)?;
        let pk_idx = dim_schema.index_of(&join.pk)?;
        let aux_idx: Vec<usize> = join
            .aux
            .iter()
            .map(|a| dim_schema.index_of(a))
            .collect::<Result<_>>()?;

        let mut map: FxHashMap<i64, u32> = FxHashMap::default();
        let mut aux_rows: Vec<Row> = Vec::new();
        let mut dictionary: FxHashMap<Row, u32> = FxHashMap::default();
        let mut mem = 0u64;
        let mut rows_scanned = 0u64;
        let mut fields = Vec::with_capacity(dim_schema.len());
        while next_row(&mut fields)? {
            rows_scanned += 1;
            // Checked once per row: past this, no column lookup (here or
            // in the predicate) can run off a short or foreign-arity row.
            let arity_err = || {
                ClydeError::Format(format!(
                    "dimension {} row {rows_scanned} has {} fields, schema has {}",
                    join.dimension,
                    fields.len(),
                    dim_schema.len()
                ))
            };
            if fields.len() != dim_schema.len() {
                return Err(arity_err());
            }
            if !pred.eval_fields(&fields)? {
                continue;
            }
            let pk = fields
                .get(pk_idx)
                .ok_or_else(arity_err)?
                .as_i64()
                .ok_or_else(|| {
                    ClydeError::Plan(format!(
                        "{}.{} is not an integer key",
                        join.dimension, join.pk
                    ))
                })?;
            let aux: Row = aux_idx
                .iter()
                .map(|&i| fields.get(i).map(|f| f.to_datum()))
                .collect::<Option<_>>()
                .ok_or_else(arity_err)?;
            mem += 8 + aux.heap_size() as u64 + 16; // key + value + bucket overhead
            let id = match dictionary.entry(aux) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = u32::try_from(aux_rows.len())
                        .ok()
                        .filter(|&id| id != NONE_ID)
                        .ok_or_else(|| {
                            ClydeError::Plan(format!(
                                "dimension {} has too many distinct aux tuples",
                                join.dimension
                            ))
                        })?;
                    aux_rows.push(e.key().clone());
                    *e.insert(id)
                }
            };
            if map.insert(pk, id).is_some() {
                return Err(ClydeError::Plan(format!(
                    "duplicate primary key {pk} in dimension {}",
                    join.dimension
                )));
            }
        }
        // Direct-index table over the qualifying-key range: always for
        // small absolute ranges, otherwise when the range is both narrow
        // and dense. Built from the finished map, so duplicate detection
        // above is unaffected.
        let mut mem_fixed = 0u64;
        #[expect(
            clippy::disallowed_methods,
            reason = "D001: min and max of the keys do not depend on iteration order"
        )]
        let range = (map.keys().min().copied(), map.keys().max().copied());
        let direct = match range {
            (Some(lo), Some(hi))
                if hi - lo < DIRECT_SMALL_RANGE
                    || (hi - lo < DIRECT_MAX_SLOTS
                        && (hi - lo + 1) as usize
                            <= map.len().saturating_mul(DIRECT_MAX_SLOTS_PER_ENTRY)) =>
            {
                let mut ids = vec![NONE_ID; (hi - lo + 1) as usize];
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "scatter to distinct pk-indexed slots; order cannot matter"
                )]
                for (&pk, &id) in &map {
                    if let Some(slot) = ids.get_mut((pk - lo) as usize) {
                        *slot = id;
                    }
                }
                // Up to the density cap the array scales with entry count;
                // anything past it is range-bound slack (the sparse
                // small-range case) and stays constant across scale factors.
                let array = 4 * ids.len() as u64;
                let scaling_cap =
                    4 * (map.len() as u64).saturating_mul(DIRECT_MAX_SLOTS_PER_ENTRY as u64);
                mem += array.min(scaling_cap);
                mem_fixed += array.saturating_sub(scaling_cap);
                Some((lo, ids))
            }
            _ => None,
        };
        Ok(DimHashTable {
            map,
            direct,
            aux_rows,
            rows_scanned,
            mem_bytes: mem,
            mem_fixed_bytes: mem_fixed,
        })
    }

    /// Probe by foreign key; `None` both for filtered-out and absent keys.
    #[inline]
    pub fn get(&self, fk: i64) -> Option<&Row> {
        self.map.get(&fk).and_then(|&id| self.aux(id))
    }

    /// Probe by foreign key for the group id (vectorized kernel path): a
    /// bounds-checked array load when the direct-index table exists, a
    /// hash probe otherwise. Identical hit/miss behavior to
    /// [`DimHashTable::get`] either way, and two keys get the same id
    /// exactly when `get` gives them equal aux rows.
    #[inline]
    pub fn get_id(&self, fk: i64) -> Option<u32> {
        match &self.direct {
            Some((min, ids)) => usize::try_from(fk.wrapping_sub(*min))
                .ok()
                .and_then(|idx| ids.get(idx))
                .copied()
                .filter(|&id| id != NONE_ID),
            None => self.map.get(&fk).copied(),
        }
    }

    /// Aux row for a group id returned by [`DimHashTable::get_id`]; `None`
    /// only for an id the table never issued.
    #[inline]
    pub fn aux(&self, id: u32) -> Option<&Row> {
        self.aux_rows.get(id as usize)
    }

    /// Raw direct-index parts `(min_key, ids)` for the vectorized kernel's
    /// inner loops, which index the array directly (ids are `NONE_ID` for
    /// absent keys). `None` when the table is hash-probed.
    #[inline]
    pub fn direct_parts(&self) -> Option<(i64, &[u32])> {
        self.direct
            .as_ref()
            .map(|(min, ids)| (*min, ids.as_slice()))
    }

    /// The key → dense-id hash map (the fallback probe side).
    #[inline]
    pub(crate) fn id_map(&self) -> &FxHashMap<i64, u32> {
        &self.map
    }

    /// Size of the group-id space: the distinct aux tuples among the
    /// qualifying entries.
    pub fn num_ids(&self) -> usize {
        self.aux_rows.len()
    }

    /// Qualifying entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Estimated probe hit rate: the fraction of dimension rows that
    /// survived the build predicate. SSB foreign keys are uniform over the
    /// dimension, so this predicts how often a probe finds a match — the
    /// kernel uses it to pick branchy vs branch-free compaction.
    pub fn hit_rate(&self) -> f64 {
        if self.rows_scanned == 0 {
            0.0
        } else {
            self.len() as f64 / self.rows_scanned as f64
        }
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The set of hash tables for one query, assembled once per node and shared.
#[derive(Debug)]
pub struct DimTables {
    /// In join order. Shared with the node's [`ResidentStore`] on the
    /// engine's path, so a table may be part of several queries' sets.
    pub tables: Vec<Arc<DimHashTable>>,
    /// Total rows scanned across all builds.
    pub build_rows: u64,
    /// Total cardinality-scaling memory charged for the shared copy.
    pub mem_bytes: u64,
    /// Total range-bounded memory (see [`DimHashTable::mem_fixed_bytes`]).
    pub mem_fixed_bytes: u64,
    /// Join indices sorted by ascending build-side hit rate: probing the
    /// most selective dimension first lets early-out kill rows before the
    /// permissive probes ever run (ties broken by join index, so the order
    /// is deterministic). Every probe kernel iterates joins in this order.
    probe_order: Vec<usize>,
}

impl DimTables {
    /// Build all tables for `joins` from in-memory dimension rows handed
    /// out by `fetch` (tests, benches; the engine itself goes through
    /// [`DimTables::build_all_resident`]).
    pub fn build_all(
        joins: &[DimJoin],
        fetch: impl FnMut(&str) -> Result<Vec<Row>>,
    ) -> Result<DimTables> {
        Self::build_all_from(
            joins,
            fetch,
            |_, _| None,
            |join, rows| DimHashTable::build(join, rows),
            |_, _, _| (),
        )
    }

    /// Build all tables for `joins` from each dimension's row-binary bytes,
    /// fetched through `fetch`. Decoding is part of the build
    /// ([`DimHashTable::build_encoded`]), so it runs on the per-dimension
    /// threads, not in the sequential fetch.
    pub fn build_all_encoded<B: AsRef<[u8]> + Sync>(
        joins: &[DimJoin],
        fetch: impl FnMut(&str) -> Result<B>,
    ) -> Result<DimTables> {
        Self::build_all_from(
            joins,
            fetch,
            |_, _| None,
            |join, bytes| DimHashTable::build_encoded(join, bytes.as_ref()),
            |_, _, _| (),
        )
    }

    /// [`DimTables::build_all_encoded`] over a node's local dimension files
    /// (`fetch` is the node-local cache, falling back to the DFS), taking
    /// every table `resident` already holds for the fetched buffer and
    /// leaving the ones it had to build there for the next query. The
    /// result — tables, accounting, probe order — is the one
    /// `build_all_encoded` would return; `None` builds everything.
    pub fn build_all_resident(
        joins: &[DimJoin],
        resident: Option<&ResidentStore>,
        fetch: impl FnMut(&str) -> Result<Bytes>,
    ) -> Result<DimTables> {
        Self::build_all_from(
            joins,
            fetch,
            |join, bytes| DimHashTable::resident(resident?, join, bytes),
            |join, bytes| DimHashTable::build_encoded(join, bytes),
            |join, bytes, table| {
                if let Some(store) = resident {
                    let size = table.mem_bytes.saturating_add(table.mem_fixed_bytes);
                    store.retain(bytes, BuildKey::of(join), table, size);
                }
            },
        )
    }

    /// Fetches run sequentially (`fetch` is `FnMut` and usually I/O-bound on
    /// a shared cache) and `lookup` is asked for each join's table; the
    /// CPU-bound builds of the joins it had nothing for then run one per
    /// dimension through [`fan_out`] (the calling thread builds the first)
    /// — the paper notes build parallelism is bounded by the number of
    /// dimensions (Section 4.2) — and are offered to `retain`. Accounting
    /// is accumulated in join order over found and built tables alike, so
    /// `build_rows`/`mem_bytes` are identical to a sequential build of
    /// everything.
    fn build_all_from<T: Sync>(
        joins: &[DimJoin],
        mut fetch: impl FnMut(&str) -> Result<T>,
        lookup: impl Fn(&DimJoin, &T) -> Option<Arc<DimHashTable>>,
        build: fn(&DimJoin, &T) -> Result<DimHashTable>,
        retain: impl Fn(&DimJoin, &T, &Arc<DimHashTable>),
    ) -> Result<DimTables> {
        let fetched: Vec<T> = joins
            .iter()
            .map(|j| fetch(&j.dimension))
            .collect::<Result<_>>()?;
        let found: Vec<Option<Arc<DimHashTable>>> = joins
            .iter()
            .zip(&fetched)
            .map(|(join, src)| lookup(join, src))
            .collect();

        let missing: Vec<(&DimJoin, &T)> = joins
            .iter()
            .zip(&fetched)
            .zip(&found)
            .filter(|(_, found)| found.is_none())
            .map(|(miss, _)| miss)
            .collect();
        let built = fan_out(
            missing.clone(),
            |(join, src)| build(join, src),
            |_| ClydeError::MapReduce("dimension build thread panicked".into()),
        );
        let mut built = missing.into_iter().zip(built);
        let mut tables = Vec::with_capacity(joins.len());
        let mut build_rows = 0;
        let mut mem_bytes = 0;
        let mut mem_fixed_bytes = 0;
        for found in found {
            let t = match found {
                Some(t) => t,
                None => {
                    let ((join, src), t) = built.next().ok_or_else(|| {
                        ClydeError::MapReduce("a missing dimension table was not built".into())
                    })?;
                    let t = Arc::new(t??);
                    retain(join, src, &t);
                    t
                }
            };
            build_rows += t.rows_scanned;
            mem_bytes += t.mem_bytes;
            mem_fixed_bytes += t.mem_fixed_bytes;
            tables.push(t);
        }
        let mut by_hit_rate: Vec<(f64, usize)> =
            tables.iter().map(|t| t.hit_rate()).zip(0..).collect();
        by_hit_rate.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(DimTables {
            tables,
            build_rows,
            mem_bytes,
            mem_fixed_bytes,
            probe_order: by_hit_rate.into_iter().map(|(_, join)| join).collect(),
        })
    }

    /// The selectivity-ordered join sequence every probe kernel follows
    /// (see the `probe_order` field).
    pub fn probe_order(&self) -> &[usize] {
        &self.probe_order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::{rowcodec, Datum};
    use clyde_ssb::gen::SsbGen;
    use clyde_ssb::queries::{query_by_id, DimPred};

    fn date_join_year(year: i32) -> DimJoin {
        DimJoin {
            dimension: schema::DATE.into(),
            pk: "d_datekey".into(),
            fk: "lo_orderdate".into(),
            predicate: DimPred::I32Eq {
                column: "d_year".into(),
                value: year,
            },
            aux: vec!["d_year".into()],
        }
    }

    #[test]
    fn build_filters_and_keeps_aux() {
        let dates = SsbGen::new(0.001, 1).gen_date();
        let t = DimHashTable::build(&date_join_year(1993), &dates).unwrap();
        assert_eq!(t.len(), 365);
        assert_eq!(t.rows_scanned, 2557);
        assert!(t.mem_bytes > 0);
        // A qualifying key probes to its aux row.
        let aux = t.get(19930704).unwrap();
        assert_eq!(aux.at(0).as_i64(), Some(1993));
        // Non-qualifying (1994) and absent keys miss.
        assert!(t.get(19940704).is_none());
        assert!(t.get(12345678).is_none());
    }

    #[test]
    fn group_ids_are_dense_and_consistent() {
        // The 365 dates of 1993 carry 12 distinct (d_year, d_yearmonthnum)
        // tuples: 12 ids, numbered in first-appearance (calendar) order.
        let dates = SsbGen::new(0.001, 1).gen_date();
        let mut join = date_join_year(1993);
        join.aux.push("d_yearmonthnum".into());
        let t = DimHashTable::build(&join, &dates).unwrap();
        assert_eq!(t.len(), 365);
        assert_eq!(t.num_ids(), 12);
        let mut seen = vec![false; t.num_ids()];
        for r in &dates {
            let pk = r.at(0).as_i64().unwrap();
            match t.get_id(pk) {
                Some(id) => {
                    // In range, and aux(id) is exactly what get() sees.
                    assert_eq!(t.aux(id), t.get(pk));
                    let month = t.aux(id).unwrap().at(1).as_i64().unwrap();
                    assert_eq!(month - 199301, i64::from(id));
                    seen[id as usize] = true;
                }
                None => assert!(t.get(pk).is_none()),
            }
        }
        assert!(seen.iter().all(|&s| s), "every id must be reachable");
        assert!(t.aux(12).is_none());
        // Probes outside the direct-index key range miss cleanly.
        assert!(t.get_id(0).is_none());
        assert!(t.get_id(-1).is_none());
        assert!(t.get_id(i64::MAX).is_none());
        assert!(t.get_id(i64::MIN).is_none());
    }

    #[test]
    fn sparse_key_range_falls_back_to_hash_probing() {
        // A key tens of millions away from the rest pushes the range past
        // DIRECT_MAX_SLOTS; get_id must silently use the hash map and still
        // agree with get() everywhere.
        let dates = SsbGen::new(0.001, 1).gen_date();
        let mut rows: Vec<Row> = dates.iter().take(50).cloned().collect();
        let far: Row = (0..rows[0].len())
            .map(|i| {
                if i == 0 {
                    clyde_common::Datum::I32(250_000_000)
                } else {
                    rows[0].at(i).clone()
                }
            })
            .collect();
        rows.push(far);
        let mut join = date_join_year(0);
        join.predicate = DimPred::True;
        let t = DimHashTable::build(&join, &rows).unwrap();
        assert_eq!(t.len(), 51);
        for r in &rows {
            let pk = r.at(0).as_i64().unwrap();
            assert_eq!(t.get_id(pk).and_then(|id| t.aux(id)), t.get(pk));
        }
        assert!(t.get_id(250_000_000).is_some());
        assert!(t.get_id(123).is_none());
    }

    #[test]
    fn date_dimension_gets_a_direct_index_table() {
        // The yyyymmdd key span (~61k slots for 2557 dates) fails the
        // density rule but sits under DIRECT_SMALL_RANGE, so the hottest
        // probe in flights 2-4 must be an array load, not a hash probe.
        let dates = SsbGen::new(0.001, 1).gen_date();
        let mut join = date_join_year(0);
        join.predicate = DimPred::True;
        let t = DimHashTable::build(&join, &dates).unwrap();
        assert!(
            t.direct_parts().is_some(),
            "date keys must use the direct-index path"
        );
        let (min, ids) = t.direct_parts().unwrap();
        assert!(ids.len() as i64 <= super::DIRECT_SMALL_RANGE);
        for r in &dates {
            let pk = r.at(0).as_i64().unwrap();
            assert_ne!(ids[(pk - min) as usize], super::NONE_ID);
        }
    }

    #[test]
    fn sparse_direct_array_slack_is_accounted_as_fixed_memory() {
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        // Dates, unfiltered: the full 7-year calendar spans ~61k yyyymmdd
        // slots for ~2.5k days, so the array is mostly range-bound slack —
        // which must land in the fixed bucket (the calendar does not grow
        // with scale factor).
        let mut date_join = date_join_year(1993);
        date_join.predicate = DimPred::True;
        let date = DimHashTable::build(&date_join, &data.date).unwrap();
        let cap = 4 * date.len() as u64 * super::DIRECT_MAX_SLOTS_PER_ENTRY as u64;
        let (_, ids) = date.direct_parts().unwrap();
        assert!(4 * ids.len() as u64 > cap, "calendar array must exceed cap");
        assert_eq!(date.mem_fixed_bytes, 4 * ids.len() as u64 - cap);
        // Suppliers, unfiltered: dense 1..N keys, array ∝ cardinality —
        // nothing fixed.
        let join = DimJoin {
            dimension: schema::SUPPLIER.into(),
            pk: "s_suppkey".into(),
            fk: "lo_suppkey".into(),
            predicate: DimPred::True,
            aux: vec!["s_region".into()],
        };
        let supp = DimHashTable::build(&join, &data.supplier).unwrap();
        assert!(supp.direct_parts().is_some());
        assert_eq!(supp.mem_fixed_bytes, 0);
    }

    #[test]
    fn empty_aux_tables_work() {
        // Flight 1 joins carry no auxiliary columns — the probe is a filter.
        let dates = SsbGen::new(0.001, 1).gen_date();
        let mut join = date_join_year(1993);
        join.aux.clear();
        let t = DimHashTable::build(&join, &dates).unwrap();
        assert_eq!(t.get(19930101).unwrap().len(), 0);
    }

    #[test]
    fn duplicate_pk_is_rejected() {
        let dates = SsbGen::new(0.001, 1).gen_date();
        let mut doubled = dates.clone();
        // Duplicate a row that qualifies under the build predicate (1993);
        // non-qualifying duplicates are filtered before key insertion.
        let qualifying = dates
            .iter()
            .find(|r| r.at(4).as_i64() == Some(1993))
            .unwrap()
            .clone();
        doubled.push(qualifying);
        assert!(DimHashTable::build(&date_join_year(1993), &doubled).is_err());
    }

    /// Both entry points over the same rows.
    fn build_both(join: &DimJoin, rows: &[Row]) -> [Result<DimHashTable>; 2] {
        [
            DimHashTable::build(join, rows),
            DimHashTable::build_encoded(join, &rowcodec::write_rows(rows)),
        ]
    }

    #[test]
    fn wrong_arity_and_non_integer_pk_are_typed_errors_on_both_entry_points() {
        let dates = SsbGen::new(0.001, 1).gen_date();
        let good = &dates[0];
        let short: Row = good.iter().take(good.len() - 1).cloned().collect();
        let wide: Row = good.iter().cloned().chain([Datum::I32(0)]).collect();
        let str_pk: Row = std::iter::once(Datum::str("19920101"))
            .chain(good.iter().skip(1).cloned())
            .collect();
        // The predicate reads d_year (column 4); `True` would not touch the
        // row at all, so run both.
        for pred in [DimPred::True, date_join_year(1992).predicate] {
            let mut join = date_join_year(1992);
            join.predicate = pred;
            for bad in [&short, &wide, &Row::empty()] {
                for t in build_both(&join, &[dates[1].clone(), bad.clone()]) {
                    assert!(matches!(t, Err(ClydeError::Format(_))), "{bad}: {t:?}");
                }
            }
            for t in build_both(&join, std::slice::from_ref(&str_pk)) {
                assert!(matches!(t, Err(ClydeError::Plan(_))), "{t:?}");
            }
        }
    }

    #[test]
    fn build_all_for_q21() {
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        let q = query_by_id("Q2.1").unwrap();
        let tables =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        assert_eq!(tables.tables.len(), 3);
        // Join order is date, part, supplier. Date is unfiltered.
        assert_eq!(tables.tables[0].len(), 2557);
        // Part filtered to category MFGR#12 (~1/25 of parts).
        let parts = data.part.len();
        let kept = tables.tables[1].len();
        assert!(kept > 0 && kept < parts / 10, "kept {kept} of {parts}");
        assert_eq!(
            tables.build_rows,
            (data.part.len() + data.supplier.len() + 2557) as u64
        );
        assert!(tables.mem_bytes > 0);
    }

    #[test]
    fn parallel_build_matches_sequential_accounting() {
        let data = SsbGen::new(0.005, 46).gen_all().unwrap();
        let q = query_by_id("Q4.1").unwrap(); // four dimensions
        let tables =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        // Sequential ground truth.
        let mut build_rows = 0u64;
        let mut mem_bytes = 0u64;
        let mut mem_fixed_bytes = 0u64;
        for join in &q.joins {
            let rows = data.dimension(&join.dimension).unwrap();
            let t = DimHashTable::build(join, rows).unwrap();
            build_rows += t.rows_scanned;
            mem_bytes += t.mem_bytes;
            mem_fixed_bytes += t.mem_fixed_bytes;
        }
        assert_eq!(tables.build_rows, build_rows);
        assert_eq!(tables.mem_bytes, mem_bytes);
        assert_eq!(tables.mem_fixed_bytes, mem_fixed_bytes);
    }

    #[test]
    fn build_all_propagates_fetch_errors() {
        let q = query_by_id("Q2.1").unwrap();
        let r = DimTables::build_all(&q.joins, |_| Err(ClydeError::Dfs("cache miss".into())));
        assert!(r.is_err());
    }
}
