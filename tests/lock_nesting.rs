//! The engine's lock nesting, pinned.
//!
//! In debug builds `clyde_common::lockorder` records an edge `a → b` each
//! time a lock constructed in file `a` is held while a lock constructed in
//! file `b` is taken. This binary drives the query surface once — all 13
//! SSB queries through Clydesdale at two host threads, twice on one engine
//! so the second pass finds its tables resident, Q2.1 through both Hive
//! plans, and Q2.1 under the `combined` fault plan — and asserts that the
//! recorded edges are exactly the two nestings the engine has by design:
//!
//! * `NodeState::get_or_try_init` (`task.rs`) builds under its entries
//!   lock; the build takes the resident store (`task.rs`), the node-local
//!   store (`local.rs`) and the DFS state (`dfs.rs`);
//! * `MorselSource::next` (`mtrunner.rs`) opens parts under its state lock;
//!   opening takes the CIF input format's table handle (`input.rs`) and the
//!   DFS state (`dfs.rs`).
//!
//! A new edge is a new nesting: remove it, or add it here with the reason.
//! The graph is process-wide, so this binary holds one test.
#![cfg(debug_assertions)]

use clyde_common::lockorder;
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::FaultPlan;
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::{all_queries, query_by_id};
use clydesdale::Clydesdale;
use std::collections::BTreeSet;
use std::sync::Arc;

fn file_name(path: &str) -> &str {
    path.rsplit(['/', '\\']).next().unwrap_or(path)
}

#[test]
fn the_engine_nests_only_the_audited_locks() {
    // Replication 3: the `combined` plan corrupts a replica of every block
    // and kills a node, so two copies are not guaranteed to survive.
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 3,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    loader::load(
        &dfs,
        SsbGen::new(0.004, 46),
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

    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_host_threads(2);
    clyde.warm_dimension_cache().unwrap();
    for _ in 0..2 {
        for q in all_queries() {
            clyde.query(&q).unwrap();
        }
    }
    let hits: u64 = clyde.engine().resident_stats().iter().map(|s| s.hits).sum();
    assert!(hits > 0, "the second pass must find resident tables");

    let q21 = query_by_id("Q2.1").unwrap();
    for strategy in [JoinStrategy::MapJoin, JoinStrategy::Repartition] {
        Hive::new(Arc::clone(&dfs), layout.clone(), strategy)
            .query(&q21)
            .unwrap();
    }
    // Last: the plan kills a node of the shared DFS.
    let combined = FaultPlan::named("combined", 46).unwrap();
    Clydesdale::new(Arc::clone(&dfs), layout)
        .with_host_threads(2)
        .with_faults(Arc::new(combined))
        .query(&q21)
        .unwrap();

    let observed: BTreeSet<(&str, &str)> = lockorder::observed_edges()
        .into_iter()
        .map(|(from, to)| (file_name(from), file_name(to)))
        .collect();
    let expected = BTreeSet::from([
        ("task.rs", "task.rs"),
        ("task.rs", "local.rs"),
        ("task.rs", "dfs.rs"),
        ("mtrunner.rs", "input.rs"),
        ("mtrunner.rs", "dfs.rs"),
    ]);
    assert_eq!(observed, expected, "held → taken, by constructor file");
}
