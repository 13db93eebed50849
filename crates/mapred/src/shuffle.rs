//! The sort-based shuffle: partitioning, sorting, combining, grouping.
//!
//! Map outputs are (encoded key, value) records. A key is a [`Key`]: the
//! order-preserving encoding of the emitted datums, held inline up to
//! [`Key::INLINE`] bytes (every join key and most group keys) and boxed
//! beyond, so a record is the same 48 bytes a `(Vec<u8>, Row)` is and a
//! short key costs no allocation. Each map task partitions its own records
//! by key hash, sorts each partition by key bytes (which, thanks to the
//! order-preserving codec, equals logical key order) and optionally runs a
//! combiner over it — Hadoop's map-side spill. Each reducer then merges its
//! partition's runs in task order and groups runs of equal keys.
//!
//! Every function here is generic over the key: the engine runs them on
//! [`Key`], and any `Ord + AsRef<[u8]>` byte string (a `Vec<u8>`) goes
//! through the same body.

use clyde_common::hash::FxHasher;
use clyde_common::keycodec::{self, KeySink};
use clyde_common::{ClydeError, Datum, Result, Row};
use std::cmp::Ordering;
use std::hash::Hasher;

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
/// The reducer *borrows*: `values` points into the merged run the shuffle
/// owns, so a reducer that keeps a value past the call clones it, and one
/// that only reads fields (a fold, a join) copies nothing.
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

/// Split one map task's records into one run per reducer, each in the
/// records' order (a stable partition), each allocated at its final size.
/// Sorting a stably partitioned run gives the records a stable sort of the
/// whole output would have sent that reducer.
pub fn partition_records<K: AsRef<[u8]>>(
    records: Vec<(K, Row)>,
    partitions: usize,
) -> Result<Vec<Vec<(K, Row)>>> {
    if partitions <= 1 {
        return Ok(vec![records]);
    }
    let ids: Vec<usize> = records
        .iter()
        .map(|(k, _)| partition_of(k, partitions))
        .collect();
    let mut sizes = vec![0usize; partitions];
    for &p in &ids {
        if let Some(size) = sizes.get_mut(p) {
            *size += 1;
        }
    }
    let mut runs: Vec<Vec<(K, Row)>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (p, record) in ids.into_iter().zip(records) {
        runs.get_mut(p)
            .ok_or_else(|| ClydeError::MapReduce(format!("partition {p} out of range")))?
            .push(record);
    }
    Ok(runs)
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
}
