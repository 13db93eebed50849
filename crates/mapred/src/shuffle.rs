//! The sort-based shuffle: partitioning, sorting, combining, grouping.
//!
//! Map outputs are (encoded key, value) pairs. The shuffle partitions them by
//! key hash, sorts each partition by key bytes (which, thanks to the
//! order-preserving codec, equals logical key order), optionally runs a
//! combiner map-side, and groups runs of equal keys for the reducer — the
//! same mechanics Hadoop's map-side spill/merge implements.

use clyde_common::hash::FxHasher;
use clyde_common::{keycodec, Result, Row};
use std::hash::Hasher;

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
pub fn partition_of(key: &[u8], partitions: usize) -> usize {
    debug_assert!(partitions > 0);
    let mut h = FxHasher::default();
    h.write(key);
    (h.finish() % partitions as u64) as usize
}

/// Sort records by key bytes (stable, preserving map-output value order
/// within a key — Hadoop's secondary-sortless semantics).
pub fn sort_records(records: &mut [(Vec<u8>, Row)]) {
    records.sort_by(|a, b| a.0.cmp(&b.0));
}

/// Apply a combiner to sorted records, producing (key, combined-value)
/// records. The combiner's output rows are re-emitted under the same key, so
/// combiners must be algebraic (e.g. partial sums), as in Hadoop.
pub fn combine_sorted(
    records: Vec<(Vec<u8>, Row)>,
    combiner: &dyn Reducer,
) -> Result<Vec<(Vec<u8>, Row)>> {
    let mut out: Vec<(Vec<u8>, Row)> = Vec::with_capacity(records.len() / 4 + 1);
    let mut combined = Vec::new();
    for_each_group(&records, combiner, &mut combined, |encoded, combined| {
        out.extend(combined.drain(..).map(|row| (encoded.to_vec(), row)));
    })?;
    Ok(out)
}

/// Group sorted records and run the reducer over each key's values.
pub fn reduce_sorted(
    records: &[(Vec<u8>, Row)],
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
fn for_each_group(
    records: &[(Vec<u8>, Row)],
    reducer: &dyn Reducer,
    out: &mut Vec<Row>,
    mut after: impl FnMut(&[u8], &mut Vec<Row>),
) -> Result<()> {
    let mut scratch: Vec<&Row> = Vec::new();
    for run in records.chunk_by(|a, b| a.0 == b.0) {
        let Some((encoded, _)) = run.first() else {
            continue;
        };
        let key = keycodec::decode_row(encoded)?;
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
pub fn merge_sorted_runs(runs: Vec<Vec<(Vec<u8>, Row)>>) -> Vec<(Vec<u8>, Row)> {
    let mut out: Vec<(Vec<u8>, Row)> = runs.into_iter().flatten().collect();
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
        assert!(merge_sorted_runs(vec![]).is_empty());
        assert!(merge_sorted_runs(vec![vec![], vec![]]).is_empty());
        let one = vec![rec(1, 1)];
        assert_eq!(merge_sorted_runs(vec![one.clone()]), one);
    }

    proptest! {
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
