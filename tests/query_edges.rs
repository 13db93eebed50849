//! Query shapes at the edges of what the scan plans for: a projection with
//! no fact column at all, and date predicates whose bounds lie outside the
//! calendar. The reference, Clydesdale and both Hive plans must agree on
//! one- and two-node clusters.

use clyde_common::{row, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::{SsbData, SsbGen};
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::{Aggregate, DimPred, StarQuery};
use clyde_ssb::{query_by_id, reference_answer, schema};
use clydesdale::Clydesdale;
use std::sync::Arc;

/// SF 0.002 (12 000 fact rows) loaded as CIF and RCFile on `nodes` nodes,
/// with every engine over it.
struct Engines {
    data: SsbData,
    clyde: Clydesdale,
    mapjoin: Hive,
    repartition: Hive,
}

fn engines(nodes: usize) -> Engines {
    let dfs = Dfs::new(
        ClusterSpec::tiny(nodes),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(0.002, 46);
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
        data: gen.gen_all(),
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
