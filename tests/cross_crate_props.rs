//! Cross-crate property tests: invariants that span storage, the DFS, and
//! the MapReduce engine, on randomized inputs.

use clyde_columnar::{CifReader, CifWriter, RcFileReader, RcFileWriter};
use clyde_common::{row, Datum, Field, Row, Schema};
use clyde_dfs::Dfs;
use clyde_mapred::formats::VecInputFormat;
use clyde_mapred::runner::{FnMapper, RowMapRunner};
use clyde_mapred::shuffle::FnReducer;
use clyde_mapred::{Engine, JobSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (any::<i32>(), "[a-z]{0,6}", any::<i64>()).prop_map(|(a, b, c)| row![a, b, c]),
        0..80,
    )
}

fn schema() -> Schema {
    Schema::new(vec![Field::i32("a"), Field::str("b"), Field::i64("c")])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any row set survives a CIF write/read cycle across any row-group size
    /// and any cluster size, bit-for-bit and in order.
    #[test]
    fn cif_roundtrips_arbitrary_tables(
        rows in arb_rows(),
        rpg in 1u64..40,
        nodes in 1usize..5,
    ) {
        let dfs = Dfs::for_tests(nodes);
        let mut w = CifWriter::new(Arc::clone(&dfs), "/p/t", schema(), rpg).unwrap();
        for r in &rows {
            w.append(r).unwrap();
        }
        w.close().unwrap();
        let back = CifReader::open(&dfs, "/p/t").unwrap().read_all_rows(&dfs).unwrap();
        prop_assert_eq!(back, rows);
    }

    /// RCFile agrees with CIF on every input.
    #[test]
    fn rcfile_and_cif_agree(rows in arb_rows(), rpg in 1u64..40) {
        let dfs = Dfs::for_tests(3);
        let mut cw = CifWriter::new(Arc::clone(&dfs), "/p/cif", schema(), rpg).unwrap();
        let mut rw = RcFileWriter::new(Arc::clone(&dfs), "/p/rc", schema(), rpg).unwrap();
        for r in &rows {
            cw.append(r).unwrap();
            rw.append(r).unwrap();
        }
        cw.close().unwrap();
        rw.close().unwrap();
        let a = CifReader::open(&dfs, "/p/cif").unwrap().read_all_rows(&dfs).unwrap();
        let b = RcFileReader::open(&dfs, "/p/rc").unwrap().read_all_rows(&dfs).unwrap();
        prop_assert_eq!(a, b);
    }

    /// A group-by-sum MapReduce job over random data equals the same
    /// aggregation done with a BTreeMap, for any split and reducer counts.
    #[test]
    fn mapreduce_groupby_equals_sequential(
        rows in arb_rows(),
        splits in 1usize..6,
        reducers in 1usize..4,
        nodes in 1usize..4,
    ) {
        let dfs = Dfs::for_tests(nodes);
        let engine = Engine::new(Arc::clone(&dfs));
        let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: Row, ctx: &_| {
            ctx.emit(&v.values()[1..2], Row::new(vec![v.at(2).clone()]));
            Ok(())
        }));
        let mut spec = JobSpec::new(
            "prop-groupby",
            Arc::new(VecInputFormat::new(rows.clone(), splits)),
            Arc::new(mapper),
        );
        spec.reducer = Some(Arc::new(FnReducer(
            |key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                let sum: i64 = values
                    .iter()
                    .map(|v| v.at(0).as_i64().unwrap())
                    .fold(0i64, i64::wrapping_add);
                out.push(key.concat(&Row::new(vec![Datum::I64(sum)])));
                Ok(())
            },
        )));
        spec.num_reducers = reducers;
        let mut got = engine.run_job(&spec).unwrap().rows;
        got.sort();

        let mut expect_map: BTreeMap<String, i64> = BTreeMap::new();
        for r in &rows {
            let k = r.at(1).as_str().unwrap().to_string();
            let v = r.at(2).as_i64().unwrap();
            *expect_map.entry(k).or_insert(0) = expect_map
                .get(r.at(1).as_str().unwrap())
                .copied()
                .unwrap_or(0)
                .wrapping_add(v);
        }
        let mut expect: Vec<Row> = expect_map
            .into_iter()
            .map(|(k, v)| row![k, v])
            .collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// DFS replication invariant under arbitrary write patterns: every file
    /// is stored exactly `replication` times while all nodes are alive.
    #[test]
    fn dfs_replication_is_exact(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..300), 1..10)) {
        let dfs = Dfs::for_tests(4); // replication 2
        let mut logical = 0u64;
        for (i, p) in payloads.iter().enumerate() {
            dfs.write_file(format!("/f{i}"), None, p).unwrap();
            logical += p.len() as u64;
        }
        let stored: u64 = dfs.used_bytes_per_node().iter().sum();
        prop_assert_eq!(stored, logical * 2);
    }
}
