//! Query shapes at the edges of what the scan plans for: a projection with
//! no fact column at all, date predicates whose bounds lie outside the
//! calendar, more joins than the engines support, and a group key too wide
//! for the vectorized kernel to pack. The reference, Clydesdale and both
//! Hive plans must agree on one- and two-node clusters, down to the error
//! they return.

use clyde_common::{row, ClydeError, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::{SsbData, SsbGen};
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::{Aggregate, DimJoin, DimPred, OrderTerm, StarQuery, MAX_JOINS};
use clyde_ssb::{query_by_id, reference_answer, schema};
use clydesdale::hashtable::DimTables;
use clydesdale::planner::scan_schema;
use clydesdale::probe::{GroupLayout, ProbePlan};
use clydesdale::{Clydesdale, Features};
use std::sync::Arc;

/// SF `sf` (6 000 000 fact rows per unit) loaded as CIF and RCFile on
/// `nodes` nodes, with every engine over it.
struct Engines {
    data: SsbData,
    clyde: Clydesdale,
    mapjoin: Hive,
    repartition: Hive,
}

/// SF 0.002: 12 000 fact rows.
fn engines(nodes: usize) -> Engines {
    engines_at(0.002, nodes)
}

fn engines_at(sf: f64, nodes: usize) -> Engines {
    let dfs = Dfs::new(
        ClusterSpec::tiny(nodes),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(sf, 46);
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group: 5_000,
            cif: true,
            rcfile: true,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    Engines {
        data: gen.gen_all().unwrap(),
        clyde: Clydesdale::new(Arc::clone(&dfs), layout.clone()),
        mapjoin: Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin),
        repartition: Hive::new(dfs, layout, JoinStrategy::Repartition),
    }
}

impl Engines {
    /// The reference answer, after checking that all three engines return it.
    fn agree(&self, q: &StarQuery) -> Vec<Row> {
        let want = reference_answer(&self.data, q).unwrap();
        assert_eq!(
            self.clyde.query(q).unwrap().rows,
            want,
            "Clydesdale, {}",
            q.id
        );
        assert_eq!(
            self.mapjoin.query(q).unwrap().rows,
            want,
            "mapjoin, {}",
            q.id
        );
        assert_eq!(
            self.repartition.query(q).unwrap().rows,
            want,
            "repartition, {}",
            q.id
        );
        want
    }
}

#[test]
fn count_star_of_no_columns_agrees_on_all_four_engines() {
    let q = StarQuery {
        id: "count-all".into(),
        joins: vec![],
        fact_preds: vec![],
        group_by: vec![],
        aggregate: Aggregate::CountStar,
        order_by: vec![],
        limit: None,
    };
    q.validate().unwrap();
    assert!(q.fact_columns().is_empty(), "nothing to read");
    for nodes in [1, 2] {
        let e = engines(nodes);
        let rows = e.data.lineorder.len() as i64;
        assert_eq!(rows, 12_000);
        assert_eq!(e.agree(&q), vec![row![rows]], "{nodes} node(s)");
    }
}

/// Q1.1 with its date predicate replaced by `predicate`.
fn q11_with_date(id: &str, predicate: DimPred) -> StarQuery {
    let mut q = query_by_id("Q1.1").unwrap();
    q.id = id.into();
    let date = q
        .joins
        .iter_mut()
        .find(|j| j.dimension == schema::DATE)
        .expect("Q1.1 joins date");
    date.predicate = predicate;
    q
}

#[test]
fn date_bounds_outside_the_calendar_agree_on_all_four_engines() {
    let year = |value| DimPred::I32Eq {
        column: "d_year".into(),
        value,
    };
    let years = |lo, hi| DimPred::I32Between {
        column: "d_year".into(),
        lo,
        hi,
    };
    let year_in = |values: &[i32]| DimPred::I32In {
        column: "d_year".into(),
        values: values.to_vec(),
    };
    let month = |value| DimPred::I32Eq {
        column: "d_yearmonthnum".into(),
        value,
    };
    let cases = [
        q11_with_date("between-1992-300000", years(1992, 300_000)),
        q11_with_date("between-min-max", years(i32::MIN, i32::MAX)),
        q11_with_date("between-min-1994", years(i32::MIN, 1994)),
        q11_with_date("eq-max", year(i32::MAX)),
        q11_with_date("eq-min", year(i32::MIN)),
        q11_with_date("in-1997-max", year_in(&[1997, i32::MAX])),
        q11_with_date("in-min-1993", year_in(&[i32::MIN, 1993])),
        q11_with_date("yearmonthnum-max", month(i32::MAX)),
        q11_with_date("yearmonthnum-min", month(i32::MIN)),
    ];
    for nodes in [1, 2] {
        let e = engines(nodes);
        for q in &cases {
            e.agree(q);
        }
        // The whole calendar is every row Q1.1's fact predicates keep.
        let all = q11_with_date("all-years", DimPred::True);
        assert_eq!(e.agree(&cases[1]), e.agree(&all), "{nodes} node(s)");
        assert!(!e.agree(&cases[0]).is_empty(), "{nodes} node(s)");
    }
}

#[test]
fn more_joins_than_the_limit_are_one_plan_error_on_all_four_engines() {
    // The date dimension joined MAX_JOINS + 1 times under one foreign key.
    let mut q = query_by_id("Q1.1").unwrap();
    q.id = "date-nine-times".into();
    let date = q
        .joins
        .iter()
        .find(|j| j.dimension == schema::DATE)
        .expect("Q1.1 joins date")
        .clone();
    q.joins = vec![date; MAX_JOINS + 1];
    let want = q.validate().unwrap_err();
    assert!(matches!(want, ClydeError::Plan(_)), "{want}");

    let e = engines(1);
    let got = [
        ("reference", reference_answer(&e.data, &q).map(|_| ())),
        ("Clydesdale", e.clyde.query(&q).map(|_| ())),
        ("mapjoin", e.mapjoin.query(&q).map(|_| ())),
        ("repartition", e.repartition.query(&q).map(|_| ())),
    ];
    for (engine, result) in got {
        let err = result.unwrap_err();
        assert!(matches!(err, ClydeError::Plan(_)), "{engine}: {err}");
        assert_eq!(err.to_string(), want.to_string(), "{engine}");
    }

    // At the limit the same shape runs and agrees everywhere.
    q.joins.truncate(MAX_JOINS);
    q.id = "date-eight-times".into();
    e.agree(&q);
}

#[test]
fn a_group_key_too_wide_to_pack_runs_the_scalar_kernel_and_agrees_on_all_four_engines() {
    // Eight joins, each grouping by its own near-unique column. At SF 0.005
    // the packed key needs 12 + 12 bits for the 2 556 dates, 8 + 8 for the
    // 150 customers, 10 + 10 for the 1 000 parts and 4 + 4 for the 10
    // suppliers: 68 bits, past the kernel's 63.
    let join = |dimension: &str, pk: &str, fk: &str, aux: &str| DimJoin {
        dimension: dimension.into(),
        pk: pk.into(),
        fk: fk.into(),
        predicate: DimPred::True,
        aux: vec![aux.into()],
    };
    let joins = vec![
        join(schema::DATE, "d_datekey", "lo_orderdate", "d_datekey"),
        join(schema::DATE, "d_datekey", "lo_commitdate", "d_date"),
        join(schema::CUSTOMER, "c_custkey", "lo_custkey", "c_name"),
        join(schema::CUSTOMER, "c_custkey", "lo_custkey", "c_phone"),
        join(schema::PART, "p_partkey", "lo_partkey", "p_partkey"),
        join(schema::PART, "p_partkey", "lo_partkey", "p_name"),
        join(schema::SUPPLIER, "s_suppkey", "lo_suppkey", "s_name"),
        join(schema::SUPPLIER, "s_suppkey", "lo_suppkey", "s_phone"),
    ];
    assert_eq!(joins.len(), MAX_JOINS);
    let q = StarQuery {
        id: "wide-key".into(),
        group_by: joins.iter().flat_map(|j| j.aux.clone()).collect(),
        joins,
        fact_preds: vec![],
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: vec![(OrderTerm::Aggregate, true)],
        limit: None,
    };
    q.validate().unwrap();

    let e = engines_at(0.005, 2);
    let plan = ProbePlan::compile(&q, &scan_schema(&q, &Features::default()).unwrap().1).unwrap();
    let tables =
        DimTables::build_all(&q.joins, |dim| Ok(e.data.dimension(dim).unwrap().to_vec())).unwrap();
    assert!(
        GroupLayout::new(&plan, &tables).is_none(),
        "the group key must not fit the packed layout"
    );
    let rows = e.agree(&q);
    assert!(rows.len() > 1_000, "{} groups", rows.len());
}
