//! Property test: the three probe entry points are interchangeable.
//!
//! For any SSB query, any generator seed, and any block-size partitioning
//! of the fact table, the vectorized kernel ([`probe_block_vec`]), the
//! scalar block kernel ([`probe_block`]) and the row-at-a-time fallback
//! ([`probe_row`]) must produce identical group aggregates, identical
//! [`ProbeStats`] (rows, probes **and survivors** — early-out must shrink
//! the selection vector exactly as the scalar loop skips), and all must
//! agree with the trusted single-process reference executor. The same holds
//! on blocks read back from stored CIF chunks, where plain `i32` columns are
//! read in place and RLE columns are decoded.

use clyde_columnar::encoding::{encode_block, encode_column, Encoding};
use clyde_columnar::{CifReader, CifWriter};
use clyde_common::{ClydeError, ColumnData, FxHashMap, Row, RowBlock, RowBlockBuilder, Schema};
use clyde_dfs::Dfs;
use clyde_mapred::TaskIo;
use clyde_ssb::gen::SsbGen;
use clyde_ssb::{all_queries, query_by_id, reference_answer, schema};
use clydesdale::hashtable::DimTables;
use clydesdale::probe::{
    probe_block, probe_block_vec, probe_row, GroupAcc, GroupLayout, ProbePlan, ProbeStats, SelBuf,
};
use clydesdale::KernelOpts;
use proptest::prelude::*;
use std::sync::Arc;

/// Chunk the projected fact rows into blocks of `block_rows`.
fn blocks_of(
    rows: &[Row],
    scan_schema: &Schema,
    cols: &[usize],
    block_rows: usize,
) -> Vec<RowBlock> {
    let dtypes: Vec<_> = scan_schema.fields().iter().map(|f| f.dtype).collect();
    rows.chunks(block_rows.max(1))
        .map(|chunk| {
            let mut b = RowBlockBuilder::new(&dtypes);
            for r in chunk {
                b.push_row(&cols.iter().map(|&c| r.at(c).clone()).collect::<Row>())
                    .unwrap();
            }
            b.finish()
        })
        .collect()
}

/// Run the vectorized kernel over `blocks` and rematerialize its packed
/// groups into plain rows: one row per populated key, since group ids are
/// dictionary codes of distinct aux tuples and every SSB aux column is a
/// group-by column.
fn run_vec(
    blocks: &[RowBlock],
    plan: &ProbePlan,
    tables: &DimTables,
    layout: &GroupLayout,
) -> (FxHashMap<Row, i64>, ProbeStats) {
    let mut acc = GroupAcc::new(layout, &plan.aggregate);
    let mut buf = SelBuf::default();
    let mut st = ProbeStats::default();
    for b in blocks {
        probe_block_vec(
            b, plan, tables, layout, &mut acc, &mut buf, &mut st, KernelOpts,
        )
        .unwrap();
    }
    let mut groups: FxHashMap<Row, i64> = FxHashMap::default();
    for (k, v) in acc.entries() {
        let key = layout.rematerialize(k, tables);
        assert!(groups.insert(key, v).is_none(), "two keys, one group row");
    }
    (groups, st)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Vectorized == scalar block == row-at-a-time == reference, for every
    /// query shape, over arbitrary seeds and block boundaries.
    #[test]
    fn kernels_agree_with_each_other_and_the_reference(
        qi in 0usize..13,
        seed in 0u64..1_000,
        block_rows in 1usize..3_000,
    ) {
        let data = SsbGen::new(0.002, seed).gen_all().unwrap();
        let q = &all_queries()[qi];
        let fact_schema = schema::lineorder_schema();
        let cols: Vec<usize> = q
            .fact_columns()
            .iter()
            .map(|c| fact_schema.index_of(c).unwrap())
            .collect();
        let scan_schema = fact_schema.project(&cols);
        let plan = ProbePlan::compile(q, &scan_schema).unwrap();
        let tables = DimTables::build_all(&q.joins, |dim| {
            Ok(data.dimension(dim).unwrap().to_vec())
        })
        .unwrap();
        let blocks = blocks_of(&data.lineorder, &scan_schema, &cols, block_rows);

        // Scalar block kernel.
        let mut acc_scalar = FxHashMap::default();
        let mut st_scalar = ProbeStats::default();
        for b in &blocks {
            probe_block(b, &plan, &tables, &mut acc_scalar, &mut st_scalar).unwrap();
        }

        // Row-at-a-time kernel.
        let mut acc_row = FxHashMap::default();
        let mut st_row = ProbeStats::default();
        for lo in &data.lineorder {
            probe_row(&cols.iter().map(|&c| lo.at(c).clone()).collect::<Row>(), &plan, &tables, &mut acc_row, &mut st_row).unwrap();
        }
        prop_assert_eq!(&acc_row, &acc_scalar, "{}: row != scalar", q.id);
        prop_assert_eq!(st_row, st_scalar, "{}: row stats != scalar", q.id);
        prop_assert_eq!(st_scalar.rows, data.lineorder.len() as u64);

        // Vectorized kernel: must match the scalar kernel bit for bit,
        // counters included.
        let layout = GroupLayout::new(&plan, &tables).expect("packed key fits for SSB");
        let (acc_vec, st_vec) = run_vec(&blocks, &plan, &tables, &layout);
        prop_assert_eq!(&acc_vec, &acc_scalar, "{}: vectorized != scalar", q.id);
        prop_assert_eq!(st_vec, st_scalar, "{}: vectorized stats != scalar", q.id);

        // And the reference executor blesses the shared answer.
        // clyde-lint: allow(unordered, reason=sort_result orders the rows below)
        let mut rows: Vec<Row> = acc_scalar
            .into_iter()
            .map(|(k, v)| k.concat(&clyde_common::row![v]))
            .collect();
        q.sort_result(&mut rows);
        let expect = reference_answer(&data, q).unwrap();
        prop_assert_eq!(rows, expect, "{}: kernels disagree with reference", q.id);
    }
}

/// How a test table's columns are encoded.
#[derive(Debug, Clone, Copy)]
enum Chunks {
    /// Every column plain: each `i32` column is read in place.
    Plain,
    /// Every column RLE: each is decoded, most runs a row or two long.
    Rle,
    /// Alternating plain and RLE by column.
    Mixed,
    /// What the loader writes: `choose_encoding` per column and group.
    Chosen,
}

/// `blocks` written as a CIF table of one group per block, in `chunks`
/// encodings, and read back through the scan's sealed read.
fn stored_blocks(blocks: &[RowBlock], scan_schema: &Schema, chunks: Chunks) -> Vec<RowBlock> {
    let dfs = Dfs::for_tests(3);
    let rpg = blocks.iter().map(RowBlock::len).max().unwrap_or(1) as u64;
    let mut w = CifWriter::new(Arc::clone(&dfs), "/t", scan_schema.clone(), rpg).unwrap();
    for b in blocks {
        let encoded = match chunks {
            Chunks::Chosen => encode_block(b).unwrap(),
            _ => b
                .columns()
                .iter()
                .enumerate()
                .map(|(i, col)| {
                    let rle = match chunks {
                        Chunks::Rle => true,
                        Chunks::Mixed => i % 2 == 1,
                        _ => false,
                    };
                    let enc = if rle { Encoding::Rle } else { Encoding::Plain };
                    encode_column(col, enc).unwrap()
                })
                .collect(),
        };
        w.write_group(b.len() as u64, &encoded).unwrap();
    }
    w.close().unwrap();
    let reader = CifReader::open(&dfs, "/t").unwrap();
    let io = TaskIo::client(Arc::clone(&dfs));
    let all: Vec<usize> = (0..scan_schema.len()).collect();
    (0..blocks.len())
        .map(|g| reader.read_group(&io, g, &all).unwrap())
        .collect()
}

/// On blocks read from plain, RLE, mixed and loader-chosen chunks, the
/// vectorized and scalar kernels agree with each other, with the reference
/// and — counters included — with the same rows built in memory.
#[test]
fn kernels_agree_on_blocks_read_from_stored_chunks() {
    let data = SsbGen::new(0.002, 46).gen_all().unwrap();
    let fact_schema = schema::lineorder_schema();
    for q in all_queries() {
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
        let layout = GroupLayout::new(&plan, &tables).expect("packed key fits for SSB");
        let built = blocks_of(&data.lineorder, &scan_schema, &cols, 2_500);
        let (acc_built, st_built) = run_vec(&built, &plan, &tables, &layout);
        let mut expect = reference_answer(&data, &q).unwrap();
        q.sort_result(&mut expect);

        for chunks in [Chunks::Plain, Chunks::Rle, Chunks::Mixed, Chunks::Chosen] {
            let stored = stored_blocks(&built, &scan_schema, chunks);
            assert_eq!(stored, built, "{} {chunks:?}: blocks differ by value", q.id);
            let in_place = stored
                .iter()
                .flat_map(|b| b.columns())
                .filter(|c| matches!(c, ColumnData::I32Le(_)))
                .count();
            match chunks {
                Chunks::Plain => assert_eq!(in_place, stored.len() * cols.len()),
                Chunks::Rle => assert_eq!(in_place, 0),
                Chunks::Mixed if cols.len() > 1 => {
                    assert!(in_place > 0 && in_place < stored.len() * cols.len())
                }
                _ => {}
            }

            let mut acc_scalar = FxHashMap::default();
            let mut st_scalar = ProbeStats::default();
            for b in &stored {
                probe_block(b, &plan, &tables, &mut acc_scalar, &mut st_scalar).unwrap();
            }
            let (acc_vec, st_vec) = run_vec(&stored, &plan, &tables, &layout);
            assert_eq!(
                acc_vec, acc_scalar,
                "{} {chunks:?}: vectorized != scalar",
                q.id
            );
            assert_eq!(st_vec, st_scalar, "{} {chunks:?}: stats", q.id);
            assert_eq!(acc_vec, acc_built, "{} {chunks:?}: stored != built", q.id);
            assert_eq!(st_vec, st_built, "{} {chunks:?}: stats vs built", q.id);

            let mut rows: Vec<Row> = acc_vec
                .into_iter()
                .map(|(k, v)| k.concat(&clyde_common::row![v]))
                .collect();
            q.sort_result(&mut rows);
            assert_eq!(rows, expect, "{} {chunks:?}: kernels != reference", q.id);
        }
    }
}

/// The scalar core tracks matched aux rows in a fixed 8-slot array; a query
/// with more joins (a dimension may be joined repeatedly) must be refused
/// with a typed plan error by every entry point, never index past it.
#[test]
fn nine_joins_is_a_typed_error_on_every_entry_point() {
    let data = SsbGen::new(0.002, 1).gen_all().unwrap();
    let mut q = query_by_id("Q4.1").unwrap();
    let repeated: Vec<_> = q.joins.iter().cycle().take(9).cloned().collect();
    q.joins = repeated;
    let fact_schema = schema::lineorder_schema();
    let cols: Vec<usize> = q
        .fact_columns()
        .iter()
        .map(|c| fact_schema.index_of(c).unwrap())
        .collect();
    let scan_schema = fact_schema.project(&cols);
    let plan = ProbePlan::compile(&q, &scan_schema).unwrap();
    let tables =
        DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec())).unwrap();
    let blocks = blocks_of(&data.lineorder, &scan_schema, &cols, 1_000);
    let is_plan_err = |r: clyde_common::Result<()>| matches!(r, Err(ClydeError::Plan(_)));

    let mut acc = FxHashMap::default();
    let mut st = ProbeStats::default();
    assert!(is_plan_err(probe_block(
        &blocks[0], &plan, &tables, &mut acc, &mut st
    )));
    // Every row, so one that survives all nine probes is among them.
    for lo in &data.lineorder {
        let row = cols.iter().map(|&c| lo.at(c).clone()).collect::<Row>();
        assert!(is_plan_err(probe_row(
            &row, &plan, &tables, &mut acc, &mut st
        )));
    }
    let layout = GroupLayout::new(&plan, &tables).expect("packed key fits");
    let mut vacc = GroupAcc::new(&layout, &plan.aggregate);
    assert!(is_plan_err(probe_block_vec(
        &blocks[0],
        &plan,
        &tables,
        &layout,
        &mut vacc,
        &mut SelBuf::default(),
        &mut st,
        KernelOpts,
    )));
    assert!(acc.is_empty(), "a refused plan must not aggregate anything");
}
