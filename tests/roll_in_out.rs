//! End-to-end fact-table maintenance: roll new data in, roll old data out,
//! and verify that query answers track the live extent exactly.
//!
//! This is the paper's Section 8 "managing updates" future work, built on
//! the property Section 2 advertises: because the fact table is unsorted,
//! maintenance never rewrites existing row groups.

use clyde_columnar::{roll_out, CifAppender, CifReader};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::{query_by_id, reference_answer};
use clydesdale::Clydesdale;
use std::sync::Arc;

const RPG: u64 = 2_000;

#[test]
fn queries_track_roll_in_and_roll_out() {
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(0.005, 46);
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group: RPG,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    let mut data = gen.gen_all().unwrap();
    // Mirror the loader's date clustering so `data.lineorder` tracks the
    // stored physical order — roll-out below drops the *oldest* groups.
    data.lineorder.sort_by_key(|r| r.at(5).as_i64());
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    clyde.warm_dimension_cache().unwrap();
    let q21 = query_by_id("Q2.1").unwrap();
    let q11 = query_by_id("Q1.1").unwrap();

    // Baseline.
    assert_eq!(
        clyde.query(&q21).unwrap().rows,
        reference_answer(&data, &q21).unwrap()
    );

    // --- Roll-in: a fresh batch of orders arrives (different seed, same
    // dimension key space). ---
    let batch_gen = SsbGen::new(0.002, 99);
    let mut appender = CifAppender::open(Arc::clone(&dfs), &layout.fact_cif()).unwrap();
    let mut batch = Vec::new();
    batch_gen
        .for_each_lineorder(|r| {
            // Remap FKs into the base dimension key space (the batch
            // generator's dimensions are smaller, so keys stay valid).
            appender.append(r)?;
            batch.push(r.clone());
            Ok(())
        })
        .unwrap();
    appender.close().unwrap();
    data.lineorder.extend(batch);

    for q in [&q21, &q11] {
        assert_eq!(
            clyde.query(q).unwrap().rows,
            reference_answer(&data, q).unwrap(),
            "{} diverged after roll-in",
            q.id
        );
    }

    // --- Roll-out: retire the two oldest row groups. ---
    let dropped_rows: u64 = {
        let meta = CifReader::open(&dfs, &layout.fact_cif())
            .unwrap()
            .meta()
            .clone();
        meta.group_rows[..2].iter().sum()
    };
    roll_out(&dfs, &layout.fact_cif(), 2).unwrap();
    data.lineorder.drain(..dropped_rows as usize);

    for q in [&q21, &q11] {
        assert_eq!(
            clyde.query(q).unwrap().rows,
            reference_answer(&data, q).unwrap(),
            "{} diverged after roll-out",
            q.id
        );
    }

    // Maintenance preserved scan locality.
    assert_eq!(clyde.query(&q21).unwrap().locality, 1.0);
}

#[test]
fn maintenance_interleaves_with_queries_deterministically() {
    let dfs = Dfs::new(
        ClusterSpec::tiny(2),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(0.003, 46);
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group: 1_000,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    let q = query_by_id("Q3.1").unwrap();

    // Sliding window: repeatedly roll in a batch and roll out one group;
    // the row count stays bounded and every step answers consistently.
    let mut last_rows = None;
    for step in 0..3 {
        let mut appender = CifAppender::open(Arc::clone(&dfs), &layout.fact_cif()).unwrap();
        SsbGen::new(0.0005, 100 + step)
            .for_each_lineorder(|r| appender.append(r))
            .unwrap();
        appender.close().unwrap();
        roll_out(&dfs, &layout.fact_cif(), 1).unwrap();

        let a = clyde.query(&q).unwrap().rows;
        let b = clyde.query(&q).unwrap().rows;
        assert_eq!(a, b, "step {step}: non-deterministic answers");
        last_rows = Some(a);
    }
    assert!(last_rows.is_some());
    let meta = CifReader::open(&dfs, &layout.fact_cif())
        .unwrap()
        .meta()
        .clone();
    assert!(meta.first_group >= 3, "watermark must advance");
}
