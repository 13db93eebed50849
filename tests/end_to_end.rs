//! Cross-crate integration: the full pipeline from generation to query
//! results, across engines, storage formats, and failure scenarios.

use clyde_common::{ClydeError, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions, NodeId};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::{Aggregate, DimJoin, DimPred, OrderTerm, StarQuery};
use clyde_ssb::schema;
use clyde_ssb::{query_by_id, reference_answer};
use clydesdale::{Clydesdale, Features};
use std::sync::Arc;

fn cluster(n: usize) -> Arc<Dfs> {
    Dfs::new(
        ClusterSpec::tiny(n),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    )
}

fn load(dfs: &Arc<Dfs>, sf: f64) -> (SsbLayout, SsbGen) {
    let layout = SsbLayout::default();
    let gen = SsbGen::new(sf, 46);
    loader::load(
        dfs,
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
    (layout, gen)
}

/// The central correctness claim: three independent implementations of the
/// same query semantics (Clydesdale's n-way map-side join, Hive's staged
/// two-way joins in both plan flavors, and the single-process reference)
/// agree bit-for-bit.
#[test]
fn three_engines_agree_on_representative_queries() {
    let dfs = cluster(3);
    let (layout, gen) = load(&dfs, 0.005);
    let data = gen.gen_all().unwrap();

    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    clyde.warm_dimension_cache().unwrap();
    let mapjoin = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin);
    let repart = Hive::new(Arc::clone(&dfs), layout, JoinStrategy::Repartition);

    // One query per flight (the per-query exhaustive check lives in the
    // engine crates' own tests).
    for id in ["Q1.1", "Q2.1", "Q3.1", "Q4.3"] {
        let q = query_by_id(id).unwrap();
        let expect = reference_answer(&data, &q).unwrap();
        assert_eq!(clyde.query(&q).unwrap().rows, expect, "{id} clydesdale");
        assert_eq!(mapjoin.query(&q).unwrap().rows, expect, "{id} mapjoin");
        assert_eq!(repart.query(&q).unwrap().rows, expect, "{id} repartition");
    }
}

/// Kill a datanode mid-workload: re-replication restores redundancy and the
/// query keeps answering correctly from surviving replicas — the
/// fault-tolerance property the paper keeps by staying on the DFS.
#[test]
fn node_failure_between_queries_does_not_change_answers() {
    let dfs = cluster(4);
    let (layout, gen) = load(&dfs, 0.005);
    let data = gen.gen_all().unwrap();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();

    let q = query_by_id("Q2.1").unwrap();
    let expect = reference_answer(&data, &q).unwrap();
    assert_eq!(clyde.query(&q).unwrap().rows, expect);

    // A node dies (DFS replicas + its local dimension cache).
    dfs.kill_node(NodeId(2)).unwrap();
    clyde.engine().local_store().clear_node(NodeId(2)).unwrap();
    dfs.rereplicate().unwrap();

    let after = clyde.query(&q).unwrap();
    assert_eq!(after.rows, expect, "answer changed after node failure");

    // Restart the node empty; re-replication brings data back to it.
    dfs.restart_node(NodeId(2)).unwrap();
    dfs.rereplicate().unwrap();
    assert_eq!(clyde.query(&q).unwrap().rows, expect);
}

/// Every ablated feature combination still computes correct answers (the
/// ablation changes performance counters only).
#[test]
fn ablations_are_semantically_invisible() {
    let dfs = cluster(3);
    let (layout, gen) = load(&dfs, 0.004);
    let data = gen.gen_all().unwrap();
    let q = query_by_id("Q3.4").unwrap();
    let expect = reference_answer(&data, &q).unwrap();
    for features in [
        Features::all_on(),
        Features::without_columnar(),
        Features::without_block_iteration(),
        Features::without_multithreading(),
    ] {
        let engine = Clydesdale::with_features(Arc::clone(&dfs), layout.clone(), features);
        assert_eq!(
            engine.query(&q).unwrap().rows,
            expect,
            "{} changed results",
            features.label()
        );
    }
}

/// Clydesdale's execution profile exhibits the paper's structural claims:
/// one map task per node, hash tables built once per node, fully local
/// scans, and one emitted record per group.
#[test]
fn execution_profile_matches_the_papers_design() {
    let dfs = cluster(4);
    let (layout, gen) = load(&dfs, 0.01);
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q3.1").unwrap();
    let r = clyde.query(&q).unwrap();

    assert!(
        r.profile.map_tasks.len() <= 4,
        "more than one task per node"
    );
    assert_eq!(r.profile.map_concurrency, 1, "capacity scheduling violated");
    assert_eq!(r.locality, 1.0, "scan was not fully local");
    for t in &r.profile.map_tasks {
        assert!(t.cost.build_rows > 0, "a node skipped its build");
        // The tiny test cluster has 2 map slots per node; the task uses all.
        assert_eq!(t.cost.threads, 2, "task did not use all map slots");
    }
    // Emissions = per-task group counts, far below probed rows.
    let total = r.profile.total_map_cost();
    assert!(total.emit_records < total.probe_rows / 10);
    // Dimension cache was read locally (no DFS fallback needed after warm).
    let answer_groups = r.rows.len() as u64;
    assert!(total.emit_records >= answer_groups);
    let data = gen.gen_all().unwrap();
    assert_eq!(
        r.rows,
        reference_answer(&data, &q).unwrap(),
        "profile checks must not distract from correctness"
    );
}

/// Multi-tenant reuse: the same DFS serves both engines' layouts at once,
/// and queries interleave without interference.
#[test]
fn interleaved_engines_share_the_cluster() {
    let dfs = cluster(3);
    let (layout, gen) = load(&dfs, 0.004);
    let data = gen.gen_all().unwrap();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    let hive = Hive::new(Arc::clone(&dfs), layout, JoinStrategy::MapJoin);
    for id in ["Q1.2", "Q2.3"] {
        let q = query_by_id(id).unwrap();
        let expect = reference_answer(&data, &q).unwrap();
        let a = clyde.query(&q).unwrap();
        let b = hive.query(&q).unwrap();
        let c = clyde.query(&q).unwrap();
        assert_eq!(a.rows, expect);
        assert_eq!(b.rows, expect);
        assert_eq!(c.rows, expect);
    }
}

/// `validate` is the one verify step: an ORDER BY column outside the
/// group-by list is a typed plan error from every engine, never a panic in
/// the final sort.
#[test]
fn an_ungrouped_order_by_column_is_a_plan_error_on_every_entry_point() {
    let dfs = cluster(2);
    let (layout, gen) = load(&dfs, 0.002);
    let data = gen.gen_all().unwrap();
    let mut q = query_by_id("Q2.1").unwrap();
    q.order_by
        .push((OrderTerm::Column("s_region".into()), false));
    let is_plan_err = |r: Result<Vec<Row>, ClydeError>| matches!(r, Err(ClydeError::Plan(_)));

    assert!(is_plan_err(reference_answer(&data, &q)), "reference");
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    assert!(is_plan_err(clyde.query(&q).map(|r| r.rows)), "clydesdale");
    for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy);
        assert!(is_plan_err(hive.query(&q).map(|r| r.rows)), "{strategy:?}");
    }
}

/// Two shapes no SSB query has, through every engine: a group key wider
/// than the map task's dense accumulator (customer city × supplier city ×
/// brand), and `date` joined twice under different predicates, once with
/// an aux column no group-by reads, so the map task folds several packed
/// keys into one group row. Clydesdale runs at 1 and 4 host threads, so
/// both shapes also merge across threads.
#[test]
fn wide_and_repeated_dimension_queries_agree_on_every_engine() {
    let dfs = cluster(3);
    let (layout, gen) = load(&dfs, 0.004);
    let data = gen.gen_all().unwrap();
    let join = |dimension: &str, pk: &str, fk: &str, predicate: DimPred, aux: &[&str]| DimJoin {
        dimension: dimension.into(),
        pk: pk.into(),
        fk: fk.into(),
        predicate,
        aux: aux.iter().map(|a| a.to_string()).collect(),
    };
    let query = |id: &str, joins: Vec<DimJoin>, group_by: &[&str]| StarQuery {
        id: id.into(),
        joins,
        fact_preds: vec![],
        group_by: group_by.iter().map(|g| g.to_string()).collect(),
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: vec![(OrderTerm::Aggregate, true)],
        limit: None,
    };
    let wide = query(
        "wide",
        vec![
            join(
                schema::CUSTOMER,
                "c_custkey",
                "lo_custkey",
                DimPred::True,
                &["c_city"],
            ),
            join(
                schema::SUPPLIER,
                "s_suppkey",
                "lo_suppkey",
                DimPred::True,
                &["s_city"],
            ),
            join(
                schema::PART,
                "p_partkey",
                "lo_partkey",
                DimPred::True,
                &["p_brand1"],
            ),
        ],
        &["c_city", "s_city", "p_brand1"],
    );
    let year = |lo: i32, hi: i32| DimPred::I32Between {
        column: "d_year".into(),
        lo,
        hi,
    };
    let date_twice = query(
        "date-twice",
        vec![
            join(
                schema::DATE,
                "d_datekey",
                "lo_orderdate",
                year(1993, 1995),
                &["d_year", "d_month"],
            ),
            join(
                schema::DATE,
                "d_datekey",
                "lo_commitdate",
                year(1994, 1994),
                &["d_yearmonth"],
            ),
        ],
        &["d_year", "d_yearmonth"],
    );

    let mapjoin = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin);
    let repart = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::Repartition);
    for q in [wide, date_twice] {
        let expect = reference_answer(&data, &q).unwrap();
        assert!(!expect.is_empty(), "{}", q.id);
        for threads in [1, 4] {
            let clyde =
                Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_host_threads(threads);
            assert_eq!(
                clyde.query(&q).unwrap().rows,
                expect,
                "{} clydesdale x{threads}",
                q.id
            );
        }
        assert_eq!(mapjoin.query(&q).unwrap().rows, expect, "{} mapjoin", q.id);
        assert_eq!(
            repart.query(&q).unwrap().rows,
            expect,
            "{} repartition",
            q.id
        );
    }
}
