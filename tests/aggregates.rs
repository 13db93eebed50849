//! The extended aggregate surface (COUNT/MIN/MAX beyond the paper's SUMs):
//! all three engines and a hand-rolled sequential computation must agree.

use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::{Aggregate, DimJoin, DimPred, OrderTerm, StarQuery};
use clyde_ssb::reference_answer;
use clydesdale::Clydesdale;
use std::collections::BTreeMap;
use std::sync::Arc;

fn date_join(aux: &[&str]) -> DimJoin {
    DimJoin {
        dimension: "date".into(),
        pk: "d_datekey".into(),
        fk: "lo_orderdate".into(),
        predicate: DimPred::True,
        aux: aux.iter().map(|s| s.to_string()).collect(),
    }
}

fn yearly(id: &str, aggregate: Aggregate) -> StarQuery {
    StarQuery {
        id: id.into(),
        joins: vec![date_join(&["d_year"])],
        fact_preds: vec![],
        group_by: vec!["d_year".into()],
        aggregate,
        order_by: vec![(OrderTerm::Column("d_year".into()), false)],
        limit: None,
    }
}

#[test]
fn count_min_max_agree_across_all_engines() {
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(0.004, 46);
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group: 2_000,
            cif: true,
            rcfile: true,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    let data = gen.gen_all().unwrap();

    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    clyde.warm_dimension_cache().unwrap();
    let mapjoin = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin);
    let repart = Hive::new(Arc::clone(&dfs), layout, JoinStrategy::Repartition);

    // Hand-rolled per-year statistics over the raw generated rows.
    let years: BTreeMap<i64, i64> = data
        .date
        .iter()
        .map(|d| (d.at(0).as_i64().unwrap(), d.at(4).as_i64().unwrap()))
        .collect();
    let mut by_year: BTreeMap<i64, (i64, i64, i64)> = BTreeMap::new(); // (count, min, max)
    for lo in &data.lineorder {
        let year = years[&lo.at(5).as_i64().unwrap()];
        let rev = lo.at(12).as_i64().unwrap();
        let e = by_year.entry(year).or_insert((0, i64::MAX, i64::MIN));
        e.0 += 1;
        e.1 = e.1.min(rev);
        e.2 = e.2.max(rev);
    }

    let cases = [
        (yearly("count-orders", Aggregate::CountStar), 0usize),
        (
            yearly("min-revenue", Aggregate::MinColumn("lo_revenue".into())),
            1,
        ),
        (
            yearly("max-revenue", Aggregate::MaxColumn("lo_revenue".into())),
            2,
        ),
    ];
    for (q, which) in cases {
        let expect_ref = reference_answer(&data, &q).unwrap();
        // Manual expectation from the raw data.
        for r in &expect_ref {
            let year = r.at(0).as_i64().unwrap();
            let value = r.at(1).as_i64().unwrap();
            let (count, min, max) = by_year[&year];
            let manual = [count, min, max][which];
            assert_eq!(value, manual, "{}: year {year}", q.id);
        }
        // All engines agree with the reference.
        assert_eq!(clyde.query(&q).unwrap().rows, expect_ref, "{}", q.id);
        assert_eq!(mapjoin.query(&q).unwrap().rows, expect_ref, "{}", q.id);
        assert_eq!(repart.query(&q).unwrap().rows, expect_ref, "{}", q.id);
    }
}

#[test]
fn count_star_reads_no_measure_columns() {
    // count(*) needs only the join keys; the scan should not touch any
    // measure column.
    let q = yearly("count-io", Aggregate::CountStar);
    let cols = q.fact_columns();
    assert_eq!(cols, vec!["lo_orderdate"]);
    q.validate().unwrap();
}

#[test]
fn min_max_over_filtered_dimension() {
    // min/max compose with dimension predicates and fact predicates.
    let dfs = Dfs::new(
        ClusterSpec::tiny(2),
        DfsOptions {
            block_size: 1 << 20,
            replication: 1,
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
            rows_per_group: 1_500,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    let q = StarQuery {
        id: "max-1994".into(),
        joins: vec![DimJoin {
            dimension: "date".into(),
            pk: "d_datekey".into(),
            fk: "lo_orderdate".into(),
            predicate: DimPred::I32Eq {
                column: "d_year".into(),
                value: 1994,
            },
            aux: vec![],
        }],
        fact_preds: vec![clyde_ssb::queries::FactPred::I32Lt {
            column: "lo_quantity".into(),
            value: 10,
        }],
        group_by: vec![],
        aggregate: Aggregate::MaxColumn("lo_extendedprice".into()),
        order_by: vec![],
        limit: None,
    };
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    let got = clyde.query(&q).unwrap().rows;
    let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
    assert_eq!(got, expect);
    assert_eq!(got.len(), 1);
    assert!(got[0].at(0).as_i64().unwrap() > 0);
}
