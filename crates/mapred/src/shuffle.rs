//! The sort-based shuffle: partitioning, sorting, combining, grouping.
//!
//! Map output is serialized when it is emitted, as Hadoop's map-side sort
//! buffer does: a [`MapOutput`] holds each record's encoded key and its
//! value's [`rowcodec`] bytes, and the emitted `Row` is freed on the spot.
//! A key is a [`Key`]: the order-preserving encoding of the emitted datums,
//! held inline up to [`Key::INLINE`] bytes (every join key and most group
//! keys) and boxed beyond. Each map task partitions its records by key
//! hash, stably sorts each partition by key bytes (which, thanks to the
//! order-preserving codec, equals logical key order), optionally runs a
//! combiner over it, and writes each partition as one serialized [`Run`] —
//! Hadoop's map-side spill. Each reducer then merges its runs stably by
//! (key, task order) and decodes each key's values into rows it reuses
//! from group to group, which it lends to the [`Reducer`].
//!
//! The row-record functions ([`sort_records`], [`combine_sorted`],
//! [`merge_sorted_runs`], [`reduce_sorted`]) work on `(key, Row)` records
//! and are generic over the key; the engine no longer calls them, and they
//! are kept for the frozen benchmark replay (DESIGN.md, "Frozen-benchmark
//! shims").

use clyde_common::hash::FxHasher;
use clyde_common::keycodec::{self, KeySink};
use clyde_common::rowcodec::{self, StrPool};
use clyde_common::{varint, ClydeError, Datum, Result, Row};
use std::cmp::Ordering;
use std::hash::Hasher;
use std::ops::Range;

/// An encoded shuffle key: up to [`Key::INLINE`] bytes in place, longer
/// ones boxed. It orders, compares and partitions exactly as its bytes do.
#[derive(Clone)]
pub struct Key(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; Key::INLINE] },
    Boxed(Box<[u8]>),
}

impl Key {
    /// The longest key held in place: with the length byte and the
    /// variant tag, a key is 24 bytes, the size of a `Vec<u8>`.
    pub const INLINE: usize = 22;

    /// The order-preserving encoding of `datums` (see
    /// [`keycodec::encode_datums`]), written straight into the key.
    pub fn encode(datums: &[Datum]) -> Key {
        let len = keycodec::encoded_len(datums);
        if len <= Key::INLINE {
            let mut key = Key::default();
            for d in datums {
                keycodec::encode_datum(&mut key, d);
            }
            key
        } else {
            let mut bytes = Vec::with_capacity(len);
            for d in datums {
                keycodec::encode_datum(&mut bytes, d);
            }
            Key(Repr::Boxed(bytes.into_boxed_slice()))
        }
    }

    /// A key holding `bytes` as they are.
    pub fn from_bytes(bytes: &[u8]) -> Key {
        let mut key = Key::default();
        key.put(bytes);
        key
    }

    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Boxed(bytes) => bytes,
        }
    }

    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }
}

impl Default for Key {
    fn default() -> Key {
        Key(Repr::Inline {
            len: 0,
            bytes: [0; Key::INLINE],
        })
    }
}

/// Appends in place while the key fits, and moves it to the heap once it
/// does not. [`Key::encode`] sizes long keys up front and never spills.
impl KeySink for Key {
    fn put(&mut self, more: &[u8]) {
        if let Repr::Inline { len, bytes } = &mut self.0 {
            let start = usize::from(*len);
            let end = start.saturating_add(more.len());
            if let (Some(dst), Ok(end)) = (bytes.get_mut(start..end), u8::try_from(end)) {
                dst.copy_from_slice(more);
                *len = end;
                return;
            }
        }
        let mut spilled = Vec::with_capacity(self.len() + more.len());
        spilled.extend_from_slice(self.as_bytes());
        spilled.extend_from_slice(more);
        self.0 = Repr::Boxed(spilled.into_boxed_slice());
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key({:02x?})", self.as_bytes())
    }
}

/// Reduce (and combine) function: all values of one key.
///
/// The reducer *borrows*: `values` are rows the shuffle decoded the key's
/// values into and reuses for the next key, so a reducer that keeps a
/// value past the call clones it, and one that only reads fields (a fold,
/// a join) copies nothing.
pub trait Reducer: Send + Sync {
    /// `key` is the decoded grouping key; `values` are that key's values in
    /// map-output order (stable sort). Emit output rows through `out`.
    fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()>;
}

/// A [`Reducer`] from a closure.
pub struct FnReducer<F>(pub F)
where
    F: Fn(&Row, &[&Row], &mut Vec<Row>) -> Result<()> + Send + Sync;

impl<F> Reducer for FnReducer<F>
where
    F: Fn(&Row, &[&Row], &mut Vec<Row>) -> Result<()> + Send + Sync,
{
    fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
        (self.0)(key, values, out)
    }
}

/// Hash-partition an encoded key among `partitions` reducers.
pub fn partition_of<K: AsRef<[u8]> + ?Sized>(key: &K, partitions: usize) -> usize {
    debug_assert!(partitions > 0);
    let mut h = FxHasher::default();
    h.write(key.as_ref());
    (h.finish() % partitions as u64) as usize
}

/// Sort records by key bytes (stable, preserving map-output value order
/// within a key — Hadoop's secondary-sortless semantics).
pub fn sort_records<K: Ord>(records: &mut [(K, Row)]) {
    records.sort_by(|a, b| a.0.cmp(&b.0));
}

/// Apply a combiner to sorted records, producing (key, combined-value)
/// records. The combiner's output rows are re-emitted under the same key, so
/// combiners must be algebraic (e.g. partial sums), as in Hadoop.
pub fn combine_sorted<K: Clone + Eq + AsRef<[u8]>>(
    records: Vec<(K, Row)>,
    combiner: &dyn Reducer,
) -> Result<Vec<(K, Row)>> {
    let mut out: Vec<(K, Row)> = Vec::with_capacity(records.len() / 4 + 1);
    let mut combined = Vec::new();
    for_each_group(&records, combiner, &mut combined, |key, combined| {
        out.extend(combined.drain(..).map(|row| (key.clone(), row)));
    })?;
    Ok(out)
}

/// Group sorted records and run the reducer over each key's values.
pub fn reduce_sorted<K: Eq + AsRef<[u8]>>(
    records: &[(K, Row)],
    reducer: &dyn Reducer,
    out: &mut Vec<Row>,
) -> Result<u64> {
    let mut groups = 0u64;
    for_each_group(records, reducer, out, |_, _| groups += 1)?;
    Ok(groups)
}

/// The one grouping loop behind [`combine_sorted`] and [`reduce_sorted`]:
/// each run of equal keys is decoded once, its values are lent to `reducer`
/// through one reused scratch vector of references, and `after` sees the
/// run's encoded key and `out` once the reducer returns.
fn for_each_group<K: Eq + AsRef<[u8]>>(
    records: &[(K, Row)],
    reducer: &dyn Reducer,
    out: &mut Vec<Row>,
    mut after: impl FnMut(&K, &mut Vec<Row>),
) -> Result<()> {
    let mut scratch: Vec<&Row> = Vec::new();
    for run in records.chunk_by(|a, b| a.0 == b.0) {
        let Some((encoded, _)) = run.first() else {
            continue;
        };
        let key = keycodec::decode_row(encoded.as_ref())?;
        scratch.clear();
        scratch.extend(run.iter().map(|(_, v)| v));
        reducer.reduce(&key, &scratch, out)?;
        after(encoded, out);
    }
    Ok(())
}

/// Merge several sorted runs into one sorted run (the reduce-side merge of
/// map outputs). Stable across runs in run order, matching Hadoop's merge of
/// map outputs in task order: the runs are laid end to end and stable-sorted
/// by key, which keeps equal keys in run order and — std's stable sort being
/// run-adaptive — merges the already-sorted stretches rather than re-sorting.
pub fn merge_sorted_runs<K: Ord>(runs: Vec<Vec<(K, Row)>>) -> Vec<(K, Row)> {
    let mut out: Vec<(K, Row)> = runs.into_iter().flatten().collect();
    sort_records(&mut out);
    out
}

/// One map task's output, serialized as it was emitted: each record's
/// encoded key, and its value's [`rowcodec::write_row`] bytes, back to back
/// in emit order.
#[derive(Default)]
pub(crate) struct MapOutput {
    records: Vec<Record>,
    values: Vec<u8>,
    /// Key length plus value heap size, summed over the records as they
    /// were emitted: the priced shuffle bytes of an uncombined task.
    priced: u64,
}

/// A record of a [`MapOutput`]: its key, the reducer it goes to (set at
/// spill), and where its value's bytes are.
struct Record {
    key: Key,
    partition: usize,
    value: Range<usize>,
}

/// What a map task's spill hands the shuffle: one run per reducer, in
/// reducer order, and the counters the spill priced.
pub(crate) struct Spill {
    pub runs: Vec<Run>,
    /// Key length plus value heap size of every record in `runs`.
    pub shuffle_bytes: u64,
    pub combine_input_records: u64,
    pub combine_output_records: u64,
}

impl MapOutput {
    /// Append a record: `value` is encoded here, and its priced size taken
    /// from the row before the caller drops it.
    pub fn push(&mut self, key: Key, value: &Row) {
        self.priced += (key.len() + value.heap_size()) as u64;
        let start = self.values.len();
        rowcodec::write_row(&mut self.values, value);
        self.records.push(Record {
            key,
            partition: 0,
            value: start..self.values.len(),
        });
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn value(&self, record: &Record) -> Result<&[u8]> {
        self.values
            .get(record.value.clone())
            .ok_or_else(|| ClydeError::MapReduce("map output value out of range".into()))
    }

    /// A record's value, decoded into `row`.
    fn decode(&self, record: &Record, row: &mut Row, strings: &mut StrPool) -> Result<()> {
        rowcodec::read_row_into(self.value(record)?, &mut 0, row, strings)
    }

    /// The records, in emit order, each value decoded.
    pub fn into_records(self) -> Result<Vec<(Key, Row)>> {
        let mut strings = StrPool::default();
        self.records
            .iter()
            .map(|r| {
                let mut value = Row::empty();
                self.decode(r, &mut value, &mut strings)?;
                Ok((r.key.clone(), value))
            })
            .collect()
    }

    /// A map-only task's output rows, in emit order: each record's key
    /// fields, then its value's. Under the empty key — every mapjoin stage
    /// — that is the value itself.
    pub fn into_rows(self) -> Result<Vec<Row>> {
        let mut strings = StrPool::default();
        self.records
            .iter()
            .map(|r| {
                let mut value = Row::empty();
                self.decode(r, &mut value, &mut strings)?;
                output_row(r.key.as_bytes(), value)
            })
            .collect()
    }

    /// A map-only task's output as a row-binary part file: the bytes
    /// [`rowcodec::write_rows`] writes for [`MapOutput::into_rows`]. A
    /// record under the empty key is copied as it was encoded at emit.
    pub fn into_part_file(self) -> Result<Vec<u8>> {
        let mut file = Vec::with_capacity(self.values.len() + 10);
        varint::write_u64(&mut file, self.records.len() as u64);
        let mut strings = StrPool::default();
        for r in &self.records {
            if r.key.is_empty() {
                file.extend_from_slice(self.value(r)?);
            } else {
                let mut value = Row::empty();
                self.decode(r, &mut value, &mut strings)?;
                rowcodec::write_row(&mut file, &output_row(r.key.as_bytes(), value)?);
            }
        }
        Ok(file)
    }

    /// The map-side spill: stably sort the records by (reducer, key) and
    /// write each reducer's records as one [`Run`], through `combiner`
    /// when there is one.
    pub fn spill(mut self, partitions: usize, combiner: Option<&dyn Reducer>) -> Result<Spill> {
        let partitions = partitions.max(1);
        if partitions > 1 {
            for r in &mut self.records {
                r.partition = partition_of(&r.key, partitions);
            }
        }
        self.records
            .sort_by(|a, b| (a.partition, a.key.as_bytes()).cmp(&(b.partition, b.key.as_bytes())));
        let mut spill = Spill {
            runs: (0..partitions).map(|_| Run::default()).collect(),
            // A combiner's output is priced as it is written.
            shuffle_bytes: if combiner.is_some() { 0 } else { self.priced },
            combine_input_records: 0,
            combine_output_records: 0,
        };
        let mut lender = Lender::default();
        let mut combined = Vec::new();
        for records in self.records.chunk_by(|a, b| a.partition == b.partition) {
            let Some(run) = records
                .first()
                .and_then(|r| spill.runs.get_mut(r.partition))
            else {
                continue;
            };
            let Some(combiner) = combiner else {
                // A one-byte key length is the common case.
                run.bytes.reserve(
                    records
                        .iter()
                        .map(|r| 1 + r.key.len() + r.value.len())
                        .sum(),
                );
                for r in records {
                    run.push_encoded(r.key.as_bytes(), self.value(r)?);
                }
                continue;
            };
            spill.combine_input_records += records.len() as u64;
            for group in records.chunk_by(|a, b| a.key == b.key) {
                let Some(key) = group.first().map(|r| &r.key) else {
                    continue;
                };
                let mut values = group.iter();
                lender.reduce(key.as_bytes(), combiner, &mut combined, |row, strings| {
                    let Some(r) = values.next() else {
                        return Ok(false);
                    };
                    self.decode(r, row, strings)?;
                    Ok(true)
                })?;
                for row in combined.drain(..) {
                    spill.shuffle_bytes += (key.len() + row.heap_size()) as u64;
                    spill.combine_output_records += 1;
                    run.push(key.as_bytes(), &row);
                }
            }
        }
        Ok(spill)
    }
}

/// A map-only record as an output row: the key's fields, then the value's.
fn output_row(key: &[u8], value: Row) -> Result<Row> {
    if key.is_empty() {
        return Ok(value);
    }
    Ok(keycodec::decode_row(key)?.concat(&value))
}

/// One map task's records for one reducer, in key order, serialized: each
/// record is `varint(key length) ‖ key ‖ value row`.
#[derive(Default)]
pub(crate) struct Run {
    bytes: Vec<u8>,
    records: u64,
}

impl Run {
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Append a record whose value is already encoded.
    pub fn push_encoded(&mut self, key: &[u8], value: &[u8]) {
        self.push_key(key);
        self.bytes.extend_from_slice(value);
    }

    fn push(&mut self, key: &[u8], value: &Row) {
        self.push_key(key);
        rowcodec::write_row(&mut self.bytes, value);
    }

    /// Start a record; its value follows.
    fn push_key(&mut self, key: &[u8]) {
        varint::write_u64(&mut self.bytes, key.len() as u64);
        self.bytes.extend_from_slice(key);
        self.records += 1;
    }
}

/// A reader over a run's bytes: the head record's key, and its value
/// decoded on request. Any byte string is read without panicking; what is
/// not a run is an error.
struct RunCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    key: Option<&'a [u8]>,
}

impl<'a> RunCursor<'a> {
    fn new(bytes: &'a [u8]) -> Result<RunCursor<'a>> {
        let mut cursor = RunCursor {
            bytes,
            pos: 0,
            key: None,
        };
        cursor.next_key()?;
        Ok(cursor)
    }

    /// The head record's key; `None` once the run is used up.
    fn key(&self) -> Option<&'a [u8]> {
        self.key
    }

    /// Decode the head record's value into `row` (see
    /// [`rowcodec::read_row_into`]) and step to the next record. After the
    /// last record this is an error.
    fn take_value(&mut self, row: &mut Row, strings: &mut StrPool) -> Result<()> {
        rowcodec::read_row_into(self.bytes, &mut self.pos, row, strings)?;
        self.next_key()
    }

    fn next_key(&mut self) -> Result<()> {
        if self.pos >= self.bytes.len() {
            self.key = None;
            return Ok(());
        }
        let len = varint::read_u64(self.bytes, &mut self.pos)?;
        let key = usize::try_from(len)
            .ok()
            .and_then(|len| self.pos.checked_add(len))
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| ClydeError::Format("shuffle run: truncated key".into()))?;
        self.pos += key.len();
        self.key = Some(key);
        Ok(())
    }
}

/// The reduce side of one reducer: merge `runs` (one per map task, in task
/// order) stably by (key, run), and reduce each key's values. The reducer
/// appends to `out`, and `after_group` sees `out` after every key.
pub(crate) fn reduce_runs(
    runs: &[Run],
    reducer: &dyn Reducer,
    out: &mut Vec<Row>,
    mut after_group: impl FnMut(&mut Vec<Row>),
) -> Result<()> {
    let mut cursors: Vec<RunCursor<'_>> = runs
        .iter()
        .map(|run| RunCursor::new(&run.bytes))
        .collect::<Result<_>>()?;
    let mut lender = Lender::default();
    // The least head key is the next group: each run whose head carries it
    // gives up its records under that key, in run order.
    while let Some(key) = cursors.iter().filter_map(RunCursor::key).min() {
        let mut at = 0;
        lender.reduce(key, reducer, out, |row, strings| {
            while let Some(cursor) = cursors.get_mut(at) {
                if cursor.key() == Some(key) {
                    cursor.take_value(row, strings)?;
                    return Ok(true);
                }
                at += 1;
            }
            Ok(false)
        })?;
        after_group(out);
    }
    Ok(())
}

/// Rows a key's values are decoded into, reused from key to key, and the
/// references to them lent to a [`Reducer`].
#[derive(Default)]
struct Lender {
    rows: Vec<Row>,
    strings: StrPool,
    /// Empty between calls; kept for its allocation.
    refs: Vec<&'static Row>,
}

impl Lender {
    /// Decode values with `next` (which fills the row it is given from the
    /// lender's strings, and says whether it did) until there are none
    /// left, then run `reducer` over them under the encoded `key`.
    fn reduce(
        &mut self,
        key: &[u8],
        reducer: &dyn Reducer,
        out: &mut Vec<Row>,
        mut next: impl FnMut(&mut Row, &mut StrPool) -> Result<bool>,
    ) -> Result<()> {
        let key = keycodec::decode_row(key)?;
        let mut n = 0;
        loop {
            if n == self.rows.len() {
                self.rows.push(Row::empty());
            }
            let filled = match self.rows.get_mut(n) {
                Some(row) => next(row, &mut self.strings)?,
                None => false,
            };
            if !filled {
                break;
            }
            n += 1;
        }
        let mut refs = recycle(std::mem::take(&mut self.refs));
        refs.extend(self.rows.iter().take(n));
        let reduced = reducer.reduce(&key, &refs, out);
        self.refs = recycle(refs);
        reduced
    }
}

/// An emptied vector of references with a new lifetime, keeping its
/// allocation (the collect reuses the buffer in place).
#[expect(
    clippy::unnecessary_filter_map,
    reason = "a filter keeps the references' lifetime; this re-types the emptied vector"
)]
fn recycle<'b>(mut refs: Vec<&Row>) -> Vec<&'b Row> {
    refs.clear();
    refs.into_iter().filter_map(|_| None).collect()
}

/// A row-binary part file built one row at a time: the bytes
/// [`rowcodec::write_rows`] writes for the rows pushed, without holding
/// the rows.
#[derive(Default)]
pub(crate) struct PartWriter {
    body: Vec<u8>,
    rows: u64,
}

impl PartWriter {
    pub fn push(&mut self, row: &Row) {
        rowcodec::write_row(&mut self.body, row);
        self.rows += 1;
    }

    /// The file: the row count, then the rows.
    pub fn finish(self) -> Vec<u8> {
        let mut file = Vec::with_capacity(self.body.len() + 10);
        varint::write_u64(&mut file, self.rows);
        file.extend_from_slice(&self.body);
        file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::row;
    use proptest::prelude::*;

    fn rec(k: i64, v: i64) -> (Vec<u8>, Row) {
        (keycodec::encode_row(&row![k]), row![v])
    }

    struct SumReducer;

    impl Reducer for SumReducer {
        fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
            let sum: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
            out.push(key.concat(&row![sum]));
            Ok(())
        }
    }

    #[test]
    fn partition_is_stable_and_in_range() {
        for p in [1usize, 2, 7] {
            for k in 0..50i64 {
                let key = keycodec::encode_row(&row![k]);
                let a = partition_of(&key, p);
                assert_eq!(a, partition_of(&key, p));
                assert!(a < p);
            }
        }
    }

    #[test]
    fn partitions_spread_keys() {
        let mut seen = [false; 4];
        for k in 0..100i64 {
            seen[partition_of(&keycodec::encode_row(&row![k]), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reduce_groups_equal_keys() {
        let mut records = vec![rec(2, 10), rec(1, 1), rec(2, 20), rec(1, 2), rec(3, 5)];
        sort_records(&mut records);
        let mut out = Vec::new();
        let groups = reduce_sorted(&records, &SumReducer, &mut out).unwrap();
        assert_eq!(groups, 3);
        assert_eq!(
            out,
            vec![row![1i64, 3i64], row![2i64, 30i64], row![3i64, 5i64]]
        );
    }

    #[test]
    fn combiner_preserves_final_sums() {
        let mut records = vec![rec(1, 1), rec(1, 2), rec(2, 10), rec(1, 4)];
        sort_records(&mut records);
        let combined = combine_sorted(records, &SumReducer).unwrap();
        // Combined: key1 -> (1, 7), key2 -> (2, 10); values carry key+sum per
        // SumReducer's output shape, so re-reduce over the sum column.
        assert_eq!(combined.len(), 2);
        struct Resummer;
        impl Reducer for Resummer {
            fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
                let sum: i64 = values.iter().map(|v| v.at(1).as_i64().unwrap()).sum();
                out.push(key.concat(&row![sum]));
                Ok(())
            }
        }
        let mut out = Vec::new();
        reduce_sorted(&combined, &Resummer, &mut out).unwrap();
        assert_eq!(out, vec![row![1i64, 7i64], row![2i64, 10i64]]);
    }

    #[test]
    fn merge_is_sorted_and_complete() {
        let mut a = vec![rec(1, 1), rec(3, 3), rec(5, 5)];
        let mut b = vec![rec(2, 2), rec(3, 33)];
        sort_records(&mut a);
        sort_records(&mut b);
        let merged = merge_sorted_runs(vec![a, b]);
        assert_eq!(merged.len(), 5);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
        // Stability: run 0's (3,3) precedes run 1's (3,33).
        let threes: Vec<i64> = merged
            .iter()
            .filter(|(k, _)| *k == keycodec::encode_row(&row![3i64]))
            .map(|(_, v)| v.at(0).as_i64().unwrap())
            .collect();
        assert_eq!(threes, vec![3, 33]);
    }

    #[test]
    fn merge_edge_cases() {
        assert!(merge_sorted_runs::<Vec<u8>>(vec![]).is_empty());
        assert!(merge_sorted_runs::<Vec<u8>>(vec![vec![], vec![]]).is_empty());
        let one = vec![rec(1, 1)];
        assert_eq!(merge_sorted_runs(vec![one.clone()]), one);
    }

    #[test]
    fn a_record_with_a_key_is_the_size_of_one_with_a_byte_vector() {
        assert_eq!(
            std::mem::size_of::<(Key, Row)>(),
            std::mem::size_of::<(Vec<u8>, Row)>()
        );
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn encode_writes_the_codec_bytes_inline_or_boxed() {
        let rows = [
            row![],
            row![7i64],
            row![1997i64, "MFGR#2221"],
            row![1i64, 2i64],
            row![1i64, 2i64, 3i64],
            row!["UNITED KINGDOM", "UNITED STATES", 1997i64],
            Row::new(vec![Datum::Null, Datum::F64(-0.5), Datum::str("a\0b")]),
        ];
        for r in rows {
            let bytes = keycodec::encode_row(&r);
            let key = Key::encode(r.values());
            assert_eq!(key.as_bytes(), &bytes[..], "{r:?}");
            assert_eq!(key.len(), bytes.len());
            assert_eq!(key, Key::from_bytes(&bytes));
            assert_eq!(
                matches!(key.0, Repr::Inline { .. }),
                bytes.len() <= Key::INLINE,
                "{r:?}"
            );
        }
    }

    #[test]
    fn appending_past_the_inline_limit_moves_the_key_to_the_heap() {
        let mut key = Key::default();
        for b in 0..48u8 {
            key.put(&[b]);
            assert_eq!(key.as_bytes(), (0..=b).collect::<Vec<u8>>());
        }
        assert!(matches!(key.0, Repr::Boxed(_)));
    }

    proptest! {
        #[test]
        fn keys_order_compare_and_partition_like_their_bytes(
            a in proptest::collection::vec(0u8..4, 0..49),
            b in proptest::collection::vec(0u8..4, 0..49),
        ) {
            let (ka, kb) = (Key::from_bytes(&a), Key::from_bytes(&b));
            prop_assert_eq!(ka.as_bytes(), &a[..]);
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
            prop_assert_eq!(ka == kb, a == b);
            for parts in [1usize, 2, 3, 5, 7] {
                prop_assert_eq!(partition_of(&ka, parts), partition_of(&a, parts));
            }
        }

        #[test]
        fn merge_equals_global_sort(
            runs in proptest::collection::vec(
                proptest::collection::vec((any::<i16>(), any::<i16>()), 0..20), 0..5)
        ) {
            let sorted_runs: Vec<Vec<(Vec<u8>, Row)>> = runs
                .iter()
                .map(|run| {
                    let mut r: Vec<_> = run
                        .iter()
                        .map(|&(k, v)| rec(i64::from(k), i64::from(v)))
                        .collect();
                    sort_records(&mut r);
                    r
                })
                .collect();
            let merged = merge_sorted_runs(sorted_runs.clone());
            let mut flat: Vec<_> = sorted_runs.into_iter().flatten().collect();
            sort_records(&mut flat);
            // Same multiset sorted by key; values may interleave differently
            // only within equal keys, and both are stable by run order, so
            // keys must match exactly.
            let merged_keys: Vec<&Vec<u8>> = merged.iter().map(|(k, _)| k).collect();
            let flat_keys: Vec<&Vec<u8>> = flat.iter().map(|(k, _)| k).collect();
            prop_assert_eq!(merged_keys, flat_keys);
        }

        #[test]
        fn combiner_never_changes_reduce_result(
            pairs in proptest::collection::vec((0i64..6, any::<i16>()), 0..40)
        ) {
            let mut records: Vec<_> = pairs
                .iter()
                .map(|&(k, v)| rec(k, i64::from(v)))
                .collect();
            sort_records(&mut records);

            let mut direct = Vec::new();
            reduce_sorted(&records, &SumReducer, &mut direct).unwrap();

            struct Resummer;
            impl Reducer for Resummer {
                fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
                    let sum: i64 = values.iter().map(|v| v.at(1).as_i64().unwrap()).sum();
                    out.push(key.concat(&row![sum]));
                    Ok(())
                }
            }
            let combined = combine_sorted(records, &SumReducer).unwrap();
            let mut via_combiner = Vec::new();
            reduce_sorted(&combined, &Resummer, &mut via_combiner).unwrap();
            prop_assert_eq!(direct, via_combiner);
        }
    }

    /// One map task's run for one reducer, through the engine's spill:
    /// keys inline and boxed, values with strings, NULLs and `f64`.
    fn written_run() -> Vec<u8> {
        let mut out = MapOutput::default();
        let long = Key::encode(&[Datum::str("a key longer than the inline limit")]);
        out.push(Key::encode(&[Datum::I64(3)]), &row![7i32, "ASIA", 2.5f64]);
        out.push(long.clone(), &Row::new(vec![Datum::Null, Datum::str("")]));
        out.push(Key::encode(&[Datum::I64(-1)]), &Row::empty());
        out.push(long, &row!["ASIA", -0.5f64]);
        let mut spill = out.spill(1, None).unwrap();
        assert_eq!(spill.runs.len(), 1);
        std::mem::take(&mut spill.runs[0].bytes)
    }

    /// A run's records decoded one at a time with the plain readers: what
    /// a [`RunCursor`] must agree with.
    fn oracle(bytes: &[u8]) -> Result<Vec<(Vec<u8>, Row)>> {
        let mut pos = 0;
        let mut records = Vec::new();
        while pos < bytes.len() {
            let len = varint::read_u64(bytes, &mut pos)?;
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| pos.checked_add(len))
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| ClydeError::Format("truncated key".into()))?;
            let key = bytes[pos..end].to_vec();
            pos = end;
            records.push((key, rowcodec::read_row(bytes, &mut pos)?));
        }
        Ok(records)
    }

    /// Drain a [`RunCursor`] over `bytes`, decoding every value into one
    /// reused row.
    fn drain(bytes: &[u8]) -> Result<Vec<(Vec<u8>, Row)>> {
        let mut cursor = RunCursor::new(bytes)?;
        let (mut row, mut strings) = (Row::empty(), StrPool::default());
        let mut records = Vec::new();
        while let Some(key) = cursor.key() {
            cursor.take_value(&mut row, &mut strings)?;
            records.push((key.to_vec(), row.clone()));
        }
        assert!(cursor.take_value(&mut row, &mut strings).is_err());
        Ok(records)
    }

    /// The cursor errs exactly when the oracle does and otherwise yields
    /// its records; a reducer over the same bytes never panics.
    fn decodes_like_the_oracle(bytes: &[u8]) -> std::result::Result<(), String> {
        let run = Run {
            bytes: bytes.to_vec(),
            records: 1,
        };
        let count = FnReducer(|_: &Row, values: &[&Row], out: &mut Vec<Row>| {
            out.push(row![values.len() as i64]);
            Ok(())
        });
        let _ = reduce_runs(&[run], &count, &mut Vec::new(), |_| {});
        match (oracle(bytes), drain(bytes)) {
            (Ok(a), Ok(b)) if format!("{a:?}") == format!("{b:?}") => Ok(()),
            (Err(_), Err(_)) => Ok(()),
            (a, b) => Err(format!("{bytes:02x?}: oracle {a:?}, cursor {b:?}")),
        }
    }

    #[test]
    fn a_run_reads_every_truncation_and_bit_flip_like_the_oracle() {
        let run = written_run();
        assert_eq!(drain(&run).unwrap().len(), 4);
        decodes_like_the_oracle(&run).unwrap();
        for cut in 0..run.len() {
            decodes_like_the_oracle(&run[..cut]).unwrap();
        }
        for bit in 0..run.len() * 8 {
            let mut flipped = run.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decodes_like_the_oracle(&flipped).unwrap();
        }
    }

    #[test]
    fn spill_sorts_stably_by_reducer_then_key_and_reduce_merges_in_run_order() {
        // Two tasks' outputs under three reducers: each reducer's merged
        // groups must equal a stable sort of task 0's records, then task
        // 1's, by key.
        let records: Vec<Vec<(Vec<u8>, Row)>> = (0..2i64)
            .map(|t| (0..40).map(|i| rec((i * 7 + t) % 9, t * 100 + i)).collect())
            .collect();
        let mut per_reducer: Vec<Vec<Run>> = (0..3).map(|_| Vec::new()).collect();
        for task in &records {
            let mut out = MapOutput::default();
            for (k, v) in task {
                out.push(Key::from_bytes(k), v);
            }
            let spill = out.spill(3, None).unwrap();
            for (r, run) in spill.runs.into_iter().enumerate() {
                per_reducer[r].push(run);
            }
        }
        for (r, runs) in per_reducer.iter().enumerate() {
            let mut expect: Vec<(Vec<u8>, Row)> = records
                .iter()
                .flatten()
                .filter(|(k, _)| partition_of(k, 3) == r)
                .cloned()
                .collect();
            sort_records(&mut expect);
            let mut want = Vec::new();
            reduce_sorted(&expect, &Lent, &mut want).unwrap();
            let mut got = Vec::new();
            reduce_runs(runs, &Lent, &mut got, |_| {}).unwrap();
            assert_eq!(got, want, "reducer {r}");
        }
    }

    /// Reports each group as its key followed by its values' first fields.
    struct Lent;

    impl Reducer for Lent {
        fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
            let mut seen = key.clone();
            seen.extend(values.iter().map(|v| v.at(0).clone()));
            out.push(seen);
            Ok(())
        }
    }

    #[test]
    fn recycle_keeps_the_allocation() {
        let rows = [row![1i64], row![2i64]];
        let mut refs: Vec<&Row> = Vec::with_capacity(8);
        refs.extend(rows.iter());
        let at = refs.as_ptr() as usize;
        let recycled: Vec<&'static Row> = recycle(refs);
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), 8);
        assert_eq!(recycled.as_ptr() as usize, at);
    }

    proptest! {
        #[test]
        fn a_run_reads_arbitrary_bytes_like_the_oracle(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            spliced in any::<bool>(),
        ) {
            let bytes = if spliced {
                let mut run = written_run();
                run.extend_from_slice(&bytes);
                run
            } else {
                bytes
            };
            let agreed = decodes_like_the_oracle(&bytes);
            prop_assert!(agreed.is_ok(), "{:?}", agreed);
        }

        #[test]
        fn combining_at_spill_never_changes_the_reduce_result(
            pairs in proptest::collection::vec((0i64..6, any::<i16>()), 0..40),
            reducers in 1usize..4,
        ) {
            let spill = |combiner: Option<&dyn Reducer>| {
                let mut out = MapOutput::default();
                for &(k, v) in &pairs {
                    let (key, value) = rec(k, i64::from(v));
                    out.push(Key::from_bytes(&key), &value);
                }
                out.spill(reducers, combiner).unwrap()
            };
            struct Resummer;
            impl Reducer for Resummer {
                fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
                    let sum: i64 = values.iter().map(|v| v.at(v.len() - 1).as_i64().unwrap()).sum();
                    out.push(key.concat(&row![sum]));
                    Ok(())
                }
            }
            let direct = spill(None);
            let combined = spill(Some(&SumReducer));
            prop_assert_eq!(direct.combine_input_records, 0);
            prop_assert_eq!(combined.combine_input_records, pairs.len() as u64);
            for (d, c) in direct.runs.iter().zip(&combined.runs) {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                reduce_runs(std::slice::from_ref(d), &Resummer, &mut a, |_| {}).unwrap();
                reduce_runs(std::slice::from_ref(c), &Resummer, &mut b, |_| {}).unwrap();
                prop_assert_eq!(a, b);
            }
        }
    }
}
