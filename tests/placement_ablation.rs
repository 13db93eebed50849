//! The experiment CIF's placement policy exists for (paper Section 4.1):
//! without co-location, the column files of a row group scatter across
//! datanodes and no node can scan a row group fully locally.
//!
//! This test loads the same fact table under both placement policies and
//! compares what Clydesdale's scheduler and scan actually achieve. It is
//! the ablation the paper argues for but does not plot.

use clyde_columnar::CifReader;
use clyde_dfs::{ClusterSpec, ColocatingPlacement, DefaultPlacement, Dfs, DfsOptions};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::{query_by_id, reference_answer};
use clydesdale::Clydesdale;
use std::sync::Arc;

fn load_with(policy: Box<dyn clyde_dfs::BlockPlacementPolicy>) -> (Arc<Dfs>, SsbLayout, SsbGen) {
    let dfs = Dfs::new(
        ClusterSpec::tiny(8),
        DfsOptions {
            // Small blocks force multi-block column files, where per-block
            // scatter under the default policy is worst.
            block_size: 64 << 10,
            replication: 2,
            policy,
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(0.005, 46);
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group: 3_000,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    (dfs, layout, gen)
}

#[test]
fn colocation_delivers_fully_local_scans_and_default_placement_does_not() {
    let q = query_by_id("Q2.1").unwrap();

    // --- With the co-locating policy (Clydesdale's configuration). ---
    let (dfs, layout, gen) = load_with(Box::new(ColocatingPlacement));
    let reader = CifReader::open(&dfs, &layout.fact_cif()).unwrap();
    for g in 0..reader.meta().num_groups() {
        assert!(
            !reader.group_hosts(&dfs, g).unwrap().is_empty(),
            "co-located group {g} must have a common host"
        );
    }
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let colocated = clyde.query(&q).unwrap();
    assert_eq!(
        colocated.locality, 1.0,
        "co-located scan must be fully local"
    );
    let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
    assert_eq!(colocated.rows, expect);

    // --- With HDFS's default per-block placement. ---
    let (dfs, layout, gen) = load_with(Box::new(DefaultPlacement));
    let reader = CifReader::open(&dfs, &layout.fact_cif()).unwrap();
    let groups_without_common_host = (0..reader.meta().num_groups())
        .filter(|&g| reader.group_hosts(&dfs, g).unwrap().is_empty())
        .count();
    assert!(
        groups_without_common_host > 0,
        "default placement should scatter at least one row group"
    );
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let scattered = clyde.query(&q).unwrap();
    // Results stay correct — the DFS serves remote reads — but locality and
    // the bytes crossing the network degrade.
    let expect = reference_answer(&gen.gen_all().unwrap(), &q).unwrap();
    assert_eq!(scattered.rows, expect, "scatter must not change answers");
    assert!(
        scattered.locality < 1.0,
        "scattered scan should not be fully local (got {:.3})",
        scattered.locality
    );
    let remote = scattered.profile.total_map_cost().remote_bytes;
    assert!(remote > 0, "scattered scan must read over the network");
    assert_eq!(
        colocated.profile.total_map_cost().remote_bytes,
        0,
        "co-located scan must read nothing over the network"
    );
}
