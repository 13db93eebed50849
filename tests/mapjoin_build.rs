//! The Hive mapjoin client's table build reads only what it joins.
//!
//! `build_and_publish` reads the join's key, aux and predicate columns of
//! each RCFile row group (`DimJoin::scan_columns`) and serializes the
//! qualifying `(pk, aux…)` entries. It must publish exactly the bytes, and
//! report exactly the row count and footprint, of a build that reads every
//! column of every row into a `Row` and filters those, which is kept here
//! as the oracle; and its DFS reads must be the metadata file plus the
//! selected chunks, nothing else.

use clyde_columnar::rcfile::RcFileMeta;
use clyde_columnar::RcFileReader;
use clyde_common::{rowcodec, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions, NodeId};
use clyde_hive::mapjoin::build_and_publish;
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
use clyde_ssb::queries::{all_queries, DimJoin};
use clyde_ssb::schema;
use std::sync::Arc;

fn setup() -> (Arc<Dfs>, SsbLayout) {
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let opts = LoadOpts {
        rows_per_group: 2_000,
        cif: false,
        rcfile: true,
        text: false,
        cluster_by_date: true,
    };
    loader::load(&dfs, SsbGen::new(0.005, 46), &layout, &opts).unwrap();
    (dfs, layout)
}

/// The build before it projected: every column of every row read into a
/// `Row`, filtered, and each qualifying row's `(pk, aux…)` written with
/// `write_rows`. Returns the payload, the rows read and the footprint.
fn full_read_build(dfs: &Arc<Dfs>, layout: &SsbLayout, join: &DimJoin) -> (Vec<u8>, u64, u64) {
    let dim = schema::schema_of(&join.dimension).unwrap();
    let rows = RcFileReader::open(dfs, &layout.table_rc(&join.dimension))
        .unwrap()
        .read_all_rows(dfs)
        .unwrap();
    let pred = join.predicate.compile(&dim).unwrap();
    let cols: Vec<usize> = std::iter::once(&join.pk)
        .chain(&join.aux)
        .map(|c| dim.index_of(c).unwrap())
        .collect();
    let entries: Vec<Row> = rows
        .iter()
        .filter(|r| pred.eval(r).unwrap())
        .map(|r| cols.iter().map(|&c| r.at(c).clone()).collect())
        .collect();
    let mem = entries.len() as u64 * (560 + 120 * join.aux.len() as u64);
    (rowcodec::write_rows(&entries), rows.len() as u64, mem)
}

#[test]
fn every_ssb_join_publishes_the_full_read_bytes_and_reads_only_its_columns() {
    let (dfs, layout) = setup();
    let (mut joins, mut narrower) = (0, 0);
    for q in all_queries() {
        for (i, join) in q.joins.iter().enumerate() {
            let what = format!("{} join {i} ({})", q.id, join.dimension);
            let base = layout.table_rc(&join.dimension);
            let reader = RcFileReader::open(&dfs, &base).unwrap();
            let cols: Vec<usize> = join
                .scan_columns()
                .iter()
                .map(|c| reader.schema().index_of(c).unwrap())
                .collect();
            for (k, c) in cols.iter().enumerate() {
                assert!(!cols[..k].contains(c), "{what}: column {c} read twice");
            }
            let meta = reader.meta();
            let chunks: u64 = (0..meta.num_groups())
                .map(|g| meta.group_bytes(g, &cols).unwrap())
                .sum();
            let meta_file = dfs.file_len(&RcFileMeta::meta_path(&base)).unwrap();
            joins += 1;
            narrower += usize::from(cols.len() < reader.schema().len());

            let scope = dfs.io_scope();
            let (client, mem) = build_and_publish(&dfs, &layout, join, "t").unwrap();
            let read = scope.delta().total_read();
            assert_eq!(read, meta_file + chunks, "{what}: bytes read");

            let (payload, rows, want_mem) = full_read_build(&dfs, &layout, join);
            let published = client.cache.fetch(NodeId(0), "t").unwrap();
            assert_eq!(&published[..], &payload[..], "{what}: payload");
            assert_eq!(client.build_rows, rows, "{what}: build rows");
            assert_eq!(mem, want_mem, "{what}: table footprint");
        }
    }
    // No SSB join reads every column of its dimension.
    assert_eq!(narrower, joins);
}
