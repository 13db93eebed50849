//! The columnar bulk load writes the bytes a row-at-a-time load writes.
//!
//! `loader::load` generates `lineorder` into columns, orders it by date with
//! a counting sort and encodes each row group once for both CIF and RCFile.
//! These tests pin that it changes nothing on the DFS:
//!
//! * the generator's draw order, by fingerprints of `gen_all().lineorder`
//!   recorded before the generator went columnar;
//! * every file a load leaves under `layout.root` — path, length and
//!   bytes — equals what `CifWriter::append` / `RcFileWriter::append` /
//!   `TextWriter::append` write for `for_each_lineorder`'s rows, stable-sorted
//!   on `lo_orderdate`, for both clusterings and for group sizes that divide
//!   the row count, do not divide it, and exceed it;
//! * one whole loaded tree equals a fingerprint recorded before the change.

use clyde_columnar::{CifWriter, RcFileWriter, TextWriter};
use clyde_common::hash::FxHasher;
use clyde_common::{rowcodec, Row};
use clyde_dfs::Dfs;
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
use clyde_ssb::schema;
use std::hash::Hasher;
use std::sync::Arc;

fn rows_fingerprint(rows: &[Row]) -> u64 {
    let mut h = FxHasher::default();
    h.write(&rowcodec::write_rows(rows));
    h.finish()
}

/// Every file under the layout's root, in path order, with its bytes.
fn files(dfs: &Dfs, layout: &SsbLayout) -> Vec<(String, Vec<u8>)> {
    dfs.list(&format!("{}/", layout.root))
        .into_iter()
        .map(|path| {
            let data = dfs.read_file(&path, None).unwrap().to_vec();
            (path, data)
        })
        .collect()
}

fn tree_fingerprint(files: &[(String, Vec<u8>)]) -> u64 {
    let mut h = FxHasher::default();
    for (path, data) in files {
        h.write(path.as_bytes());
        h.write_u64(data.len() as u64);
        h.write(data);
    }
    h.finish()
}

fn opts(rows_per_group: u64, cluster_by_date: bool) -> LoadOpts {
    LoadOpts {
        rows_per_group,
        cif: true,
        rcfile: true,
        text: true,
        cluster_by_date,
    }
}

/// The row-at-a-time load: dimensions as the loader writes them, then every
/// fact row through each format's `append`.
fn reference_load(dfs: &Arc<Dfs>, gen: SsbGen, layout: &SsbLayout, opts: &LoadOpts) {
    let dims = [
        (schema::CUSTOMER, gen.gen_customer()),
        (schema::SUPPLIER, gen.gen_supplier()),
        (schema::PART, gen.gen_part()),
        (schema::DATE, gen.gen_date()),
    ];
    for (name, rows) in &dims {
        dfs.write_file(layout.dim_bin(name), None, &rowcodec::write_rows(rows))
            .unwrap();
        if opts.rcfile {
            let dim_schema = schema::schema_of(name).unwrap();
            let base = layout.table_rc(name);
            let mut w =
                RcFileWriter::new(Arc::clone(dfs), base, dim_schema, opts.rows_per_group).unwrap();
            for r in rows {
                w.append(r).unwrap();
            }
            w.close().unwrap();
        }
    }

    let mut fact: Vec<Row> = Vec::new();
    gen.for_each_lineorder(|r| {
        fact.push(r.clone());
        Ok(())
    })
    .unwrap();
    let fact_schema = schema::lineorder_schema();
    if opts.cluster_by_date {
        let date = fact_schema.index_of("lo_orderdate").unwrap();
        fact.sort_by_key(|r| r.at(date).as_i64());
    }
    let rpg = opts.rows_per_group;
    let mut cif =
        CifWriter::new(Arc::clone(dfs), layout.fact_cif(), fact_schema.clone(), rpg).unwrap();
    let rc_base = layout.table_rc(schema::LINEORDER);
    let mut rc = RcFileWriter::new(Arc::clone(dfs), rc_base, fact_schema, rpg).unwrap();
    let mut text = TextWriter::create(dfs, layout.table_text(schema::LINEORDER)).unwrap();
    for r in &fact {
        cif.append(r).unwrap();
        rc.append(r).unwrap();
        text.append(r).unwrap();
    }
    cif.close().unwrap();
    rc.close().unwrap();
    text.close().unwrap();
}

/// Fingerprints of the generated fact rows, recorded from the row-at-a-time
/// generator: any change to the RNG draws, their order or the columns they
/// fill moves them.
#[test]
fn lineorder_generation_matches_recorded_fingerprints() {
    for (sf, seed, rows, expect) in [
        (0.001, 5, 6_000, 0x2d18_3f01_6855_ddad),
        (0.004, 46, 24_000, 0xd1c6_5716_6aee_df72),
    ] {
        let lineorder = SsbGen::new(sf, seed).gen_all().lineorder;
        assert_eq!(lineorder.len(), rows, "sf {sf} seed {seed}");
        let got = rows_fingerprint(&lineorder);
        assert_eq!(got, expect, "sf {sf} seed {seed}: {got:#018x}");
    }
}

#[test]
fn columnar_load_writes_the_row_at_a_time_bytes() {
    let gen = SsbGen::new(0.001, 5);
    let n = gen.num_lineorders() as u64;
    // Divides the row count, leaves a partial tail group, exceeds it.
    for rows_per_group in [1_000, 700, n + 1] {
        for cluster_by_date in [true, false] {
            let opts = opts(rows_per_group, cluster_by_date);
            let layout = SsbLayout::new("/ssb");
            let loaded = Dfs::for_tests(3);
            loader::load(&loaded, gen, &layout, &opts).unwrap();
            let reference = Dfs::for_tests(3);
            reference_load(&reference, gen, &layout, &opts);

            let (got, want) = (files(&loaded, &layout), files(&reference, &layout));
            let names =
                |f: &[(String, Vec<u8>)]| f.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>();
            assert_eq!(names(&got), names(&want), "{opts:?}");
            for ((path, a), (_, b)) in got.iter().zip(&want) {
                assert_eq!(a.len(), b.len(), "{path} length, {opts:?}");
                assert!(a == b, "{path} bytes differ, {opts:?}");
            }
        }
    }
}

/// A whole loaded tree (dimensions, CIF, RCFile and text) against its
/// fingerprint recorded from the row-at-a-time loader.
#[test]
fn a_loaded_tree_matches_its_recorded_fingerprint() {
    let layout = SsbLayout::default();
    let dfs = Dfs::for_tests(3);
    loader::load(&dfs, SsbGen::new(0.001, 5), &layout, &opts(700, true)).unwrap();
    let got = tree_fingerprint(&files(&dfs, &layout));
    assert_eq!(got, 0x8d20_0207_87c9_7f83, "{got:#018x}");
}
