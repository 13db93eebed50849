//! Node-resident dimension tables: a table built for one query is found,
//! not rebuilt, by every later query on the same engine that joins the same
//! node-local bytes the same way. The contract asserted here end to end:
//!
//! * a resident table is exactly what `DimHashTable::build_encoded` makes of
//!   the bytes the node just fetched — replacing or losing the local copy
//!   can never serve a table of the old bytes;
//! * residency is invisible to everything simulated: rows, `JobProfile`
//!   counters, `JobCost` and the explain-analyze JSON of a repeated query
//!   equal those of its first run and of a fresh engine, at any host thread
//!   count and under faults;
//! * the store stays within the node's memory, and the multithreading-off
//!   ablation never reaches it.

use clyde_common::{rowcodec, Obs, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions, NodeId, NodeLocalStore};
use clyde_mapred::{FaultPlan, ResidentStats, ResidentStore};
use clyde_ssb::gen::{SsbData, SsbGen};
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::{all_queries, query_by_id, DimJoin, StarQuery};
use clyde_ssb::{reference_answer, schema};
use clydesdale::{Clydesdale, DimHashTable, DimTables, Features};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SF: f64 = 0.004;
const SEED: u64 = 46;
const DIMS: [&str; 4] = [
    schema::CUSTOMER,
    schema::SUPPLIER,
    schema::PART,
    schema::DATE,
];

fn load(cluster: ClusterSpec, replication: u32) -> (Arc<Dfs>, SsbLayout, SsbData) {
    let dfs = Dfs::new(
        cluster,
        DfsOptions {
            block_size: 1 << 20,
            replication,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(SF, SEED);
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group: 2_000,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    (dfs, layout, gen.gen_all().unwrap())
}

/// An observed engine with every node's dimension cache warm.
fn engine(dfs: &Arc<Dfs>, layout: &SsbLayout, features: Features) -> Clydesdale {
    let clyde = Clydesdale::with_features(Arc::clone(dfs), layout.clone(), features)
        .with_obs(Obs::enabled());
    clyde.warm_dimension_cache().unwrap();
    clyde
}

/// One run's rows, and everything simulated about it as comparable text:
/// the priced cost, the profile with its wall-clock fields blanked, and the
/// explain-analyze JSON (which carries no wall clock).
fn run(clyde: &Clydesdale, q: &StarQuery) -> (Vec<Row>, String) {
    let (r, analyzed) = clyde.explain_analyze(q).unwrap();
    let mut profile = r.profile.clone();
    profile.wall_phases.clear();
    for t in profile
        .map_tasks
        .iter_mut()
        .chain(&mut profile.reduce_tasks)
    {
        t.wall_ns = 0;
    }
    let sim = format!(
        "{:?}\n{:?}\n{} {}\n{profile:?}\n{}",
        r.cost,
        r.total_s().to_bits(),
        r.final_sort_s.to_bits(),
        r.locality.to_bits(),
        analyzed.to_json()
    );
    (r.rows, sim)
}

/// (hits, misses) summed over the nodes.
fn lookups(clyde: &Clydesdale) -> (u64, u64) {
    let stats = clyde.engine().resident_stats();
    (
        stats.iter().map(|s| s.hits).sum(),
        stats.iter().map(|s| s.misses).sum(),
    )
}

/// The table resident on `node` for `join` over the node's current local
/// copy of the dimension, if any.
fn resident_table(
    clyde: &Clydesdale,
    layout: &SsbLayout,
    node: NodeId,
    join: &DimJoin,
) -> Option<Arc<DimHashTable>> {
    let engine = clyde.engine();
    let bytes = engine
        .local_store()
        .get(node, &layout.dim_bin(&join.dimension))?;
    DimHashTable::resident(engine.resident_store(node)?, join, &bytes)
}

/// Every observable of two tables agrees, probing `keys` on both.
fn assert_same_table(a: &DimHashTable, b: &DimHashTable, keys: impl Iterator<Item = i64>) {
    assert_eq!(
        (a.len(), a.rows_scanned, a.mem_bytes, a.mem_fixed_bytes),
        (b.len(), b.rows_scanned, b.mem_bytes, b.mem_fixed_bytes)
    );
    assert_eq!(a.direct_parts(), b.direct_parts());
    for id in 0..a.num_ids() as u32 {
        // Debug, not ==: Datum equality coerces I32/I64.
        assert_eq!(format!("{:?}", a.aux(id)), format!("{:?}", b.aux(id)));
    }
    for key in keys {
        assert_eq!(a.get_id(key), b.get_id(key), "get_id({key})");
    }
}

/// (a) + (b): three passes over all 13 queries in two orders on one engine
/// answer and price like the first run and like a fresh engine; after the
/// first pass nothing is built again.
#[test]
fn repeats_answer_and_price_like_the_first_run_and_a_fresh_engine() {
    let (dfs, layout, data) = load(ClusterSpec::tiny(3), 2);
    let queries = all_queries();
    let fresh: Vec<(Vec<Row>, String)> = queries
        .iter()
        .map(|q| {
            let (rows, sim) = run(&engine(&dfs, &layout, Features::default()), q);
            assert_eq!(rows, reference_answer(&data, q).unwrap(), "{}", q.id);
            (rows, sim)
        })
        .collect();

    let clyde = engine(&dfs, &layout, Features::default());
    let forward: Vec<usize> = (0..queries.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    let mut misses_after_first_pass = 0;
    for (pass, order) in [&forward, &backward, &forward].into_iter().enumerate() {
        for &i in order {
            let (rows, sim) = run(&clyde, &queries[i]);
            assert_eq!(rows, fresh[i].0, "{} pass {pass}", queries[i].id);
            assert_eq!(sim, fresh[i].1, "{} pass {pass}", queries[i].id);
        }
        let (hits, misses) = lookups(&clyde);
        if pass == 0 {
            // Cold pass: the 13 queries share some tables even so.
            assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
            misses_after_first_pass = misses;
        } else {
            assert_eq!(misses, misses_after_first_pass, "pass {pass} rebuilt");
        }
    }
    // Every node holds each distinct table once.
    let per_node = misses_after_first_pass / 3;
    for s in clyde.engine().resident_stats() {
        assert_eq!((s.entries, s.misses, s.evictions), (per_node, per_node, 0));
    }
}

/// (b): flights 2 and 4 join `date` unfiltered for `d_year`; one table per
/// node serves them all.
#[test]
fn queries_that_join_a_dimension_the_same_way_share_one_table() {
    let (dfs, layout, _) = load(ClusterSpec::tiny(2), 2);
    let clyde = engine(&dfs, &layout, Features::default());
    let date_join = |q: &StarQuery| {
        q.joins
            .iter()
            .find(|j| j.dimension == schema::DATE)
            .cloned()
            .unwrap()
    };
    let q21 = query_by_id("Q2.1").unwrap();
    clyde.query(&q21).unwrap();
    let nodes = [NodeId(0), NodeId(1)];
    let first: Vec<Arc<DimHashTable>> = nodes
        .iter()
        .map(|&n| resident_table(&clyde, &layout, n, &date_join(&q21)).unwrap())
        .collect();
    for id in ["Q2.2", "Q2.3", "Q4.1"] {
        let q = query_by_id(id).unwrap();
        let (_, misses_before) = lookups(&clyde);
        clyde.query(&q).unwrap();
        let (_, misses_after) = lookups(&clyde);
        // The other dimensions may or may not be filtered as an earlier
        // query filtered them; date is never built again.
        assert!(
            misses_after - misses_before <= 2 * (q.joins.len() as u64 - 1),
            "{id}"
        );
        for (&n, t) in nodes.iter().zip(&first) {
            let again = resident_table(&clyde, &layout, n, &date_join(&q)).unwrap();
            assert!(Arc::ptr_eq(t, &again), "{id} on {n}");
        }
    }
    // `fk` is the probe side's business: the same build under another
    // foreign key is the same table.
    let mut other_fk = date_join(&q21);
    other_fk.fk = "lo_commitdate".into();
    let again = resident_table(&clyde, &layout, NodeId(0), &other_fk).unwrap();
    assert!(Arc::ptr_eq(&first[0], &again));
}

/// (c): a node whose local copy is replaced, or lost and refetched, never
/// serves a table of the bytes it no longer holds, and the other nodes keep
/// theirs.
#[test]
fn replacing_a_local_copy_rebuilds_on_that_node_only() {
    let (dfs, layout, data) = load(ClusterSpec::tiny(3), 2);
    let clyde = engine(&dfs, &layout, Features::default());
    let q = query_by_id("Q3.1").unwrap();
    let expect = reference_answer(&data, &q).unwrap();
    assert_eq!(clyde.query(&q).unwrap().rows, expect);
    let misses = |clyde: &Clydesdale| -> Vec<u64> {
        let stats = clyde.engine().resident_stats();
        stats.iter().map(|s| s.misses).collect()
    };
    let cold = misses(&clyde);

    // Another generation's customers: same keys, other regions and nations.
    let other = SsbGen::new(SF, SEED + 1).gen_all().unwrap();
    let customer = layout.dim_bin(schema::CUSTOMER);
    let replace = |clyde: &Clydesdale, node: usize| {
        let bytes = rowcodec::write_rows(&other.customer);
        clyde
            .engine()
            .local_store()
            .put(NodeId(node), customer.clone(), bytes.into())
            .unwrap();
    };

    // Node 1 only. What the cluster now serves is a mix no reference data
    // set describes, so the oracle is an engine with the same local copies
    // and nothing resident.
    replace(&clyde, 1);
    let oracle = engine(&dfs, &layout, Features::default());
    replace(&oracle, 1);
    let mixed = oracle.query(&q).unwrap().rows;
    assert_ne!(mixed, expect, "the other generation must change the answer");
    assert_eq!(clyde.query(&q).unwrap().rows, mixed);
    let after = misses(&clyde);
    assert_eq!(
        (after[0], after[1], after[2]),
        (cold[0], cold[1] + 1, cold[2])
    );

    // Every node: now it is the reference answer over the other customers.
    replace(&clyde, 0);
    replace(&clyde, 2);
    let replaced = SsbData {
        customer: other.customer.clone(),
        ..data.clone()
    };
    let expect_replaced = reference_answer(&replaced, &q).unwrap();
    assert_eq!(clyde.query(&q).unwrap().rows, expect_replaced);

    // A node that loses its disk refetches the master copy — the original
    // generation — from the DFS; the others still hold the replacement.
    clyde.engine().local_store().clear_node(NodeId(2)).unwrap();
    let oracle = engine(&dfs, &layout, Features::default());
    replace(&oracle, 0);
    replace(&oracle, 1);
    let before = misses(&clyde);
    assert_eq!(
        clyde.query(&q).unwrap().rows,
        oracle.query(&q).unwrap().rows
    );
    let after = misses(&clyde);
    assert_eq!((after[0], after[1]), (before[0], before[1]));
}

/// (d): a node with room for little more than one query's tables evicts,
/// never holds more than its memory, and still answers correctly.
#[test]
fn a_small_node_evicts_and_stays_within_its_memory() {
    let (dfs, layout, data) = load(ClusterSpec::tiny(2), 2);
    let roomy = engine(&dfs, &layout, Features::default());
    let queries = all_queries();
    let largest = queries
        .iter()
        .map(|q| {
            let p = roomy.query(q).unwrap().profile;
            p.memory_shared + p.memory_shared_fixed
        })
        .max()
        .unwrap();
    let bound = largest + largest / 2;

    let mut small = ClusterSpec::tiny(2);
    small.node.memory_bytes = bound;
    let (dfs, layout, _) = load(small, 2);
    let clyde = engine(&dfs, &layout, Features::default());
    for pass in 0..2 {
        for q in &queries {
            let rows = clyde.query(q).unwrap().rows;
            assert_eq!(rows, reference_answer(&data, q).unwrap(), "{}", q.id);
            for s in clyde.engine().resident_stats() {
                assert!(s.bytes <= bound, "{} pass {pass}: {s:?}", q.id);
            }
        }
    }
    for s in clyde.engine().resident_stats() {
        assert!(s.evictions > 0 && s.hits > 0, "{s:?}");
    }
}

/// (e): with multithreading off every slot's task builds its own copy, as
/// the paper's ablation prices it; nothing is looked up or kept.
#[test]
fn the_multithreading_off_ablation_never_reaches_the_store() {
    let (dfs, layout, data) = load(ClusterSpec::tiny(2), 2);
    let clyde = engine(&dfs, &layout, Features::without_multithreading());
    let q = query_by_id("Q4.1").unwrap();
    let (first, first_sim) = run(&clyde, &q);
    let (second, second_sim) = run(&clyde, &q);
    assert_eq!(first, reference_answer(&data, &q).unwrap());
    assert_eq!((&first, &first_sim), (&second, &second_sim));
    for s in clyde.engine().resident_stats() {
        assert_eq!(s, ResidentStats::default());
    }
}

/// (f): a repeated-query sequence — later queries served from resident
/// tables — is byte-identical in rows and simulated artifacts at any host
/// thread count, fault-free and under the `combined` plan (which kills a
/// node mid-job, so retries land on nodes that may or may not hold the
/// tables).
#[test]
fn thread_counts_and_faults_cannot_observe_residency() {
    let sequence = ["Q2.1", "Q2.2", "Q2.1", "Q4.1", "Q2.2"];
    let run_sequence = |host_threads: u32, faults: Option<FaultPlan>| -> Vec<(Vec<Row>, String)> {
        // Replication 3: the plan corrupts a replica of every block and
        // kills a node, so two copies are not guaranteed to survive.
        let (dfs, layout, _) = load(ClusterSpec::tiny(3), 3);
        let mut clyde = engine(&dfs, &layout, Features::default()).with_host_threads(host_threads);
        if let Some(plan) = faults {
            clyde = clyde.with_faults(Arc::new(plan));
        }
        let out = sequence
            .iter()
            .map(|id| run(&clyde, &query_by_id(id).unwrap()))
            .collect();
        let (hits, _) = lookups(&clyde);
        assert!(hits > 0, "the sequence must exercise resident tables");
        out
    };
    let (_, _, data) = load(ClusterSpec::tiny(3), 3);
    for faults in [None, FaultPlan::named("combined", SEED)] {
        let faulted = faults.is_some();
        let one = run_sequence(1, faults.clone());
        for (id, (rows, _)) in sequence.iter().zip(&one) {
            let q = query_by_id(id).unwrap();
            assert_eq!(rows, &reference_answer(&data, &q).unwrap(), "{id}");
        }
        for t in [2, 8] {
            assert_eq!(
                one,
                run_sequence(t, faults.clone()),
                "{t} host threads, faults: {faulted}"
            );
        }
        if !faulted {
            // Same query, same DFS state: the repeat prices like the first.
            assert_eq!(one[0], one[2]);
            assert_eq!(one[1], one[4]);
        }
    }
}

/// Three generations of the four dimension files, row-binary encoded.
fn generation_files() -> &'static [Vec<Vec<u8>>] {
    static FILES: OnceLock<Vec<Vec<Vec<u8>>>> = OnceLock::new();
    FILES.get_or_init(|| {
        (0..3)
            .map(|g| {
                let data = SsbGen::new(0.002, SEED + g).gen_all().unwrap();
                DIMS.iter()
                    .map(|dim| rowcodec::write_rows(data.dimension(dim).unwrap()))
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (g): one node's side of the engine by hand — its local store, the
    /// DFS behind it and its resident store. Whatever sequence of queries,
    /// local-copy replacements (another generation, the same generation's
    /// buffer again, equal bytes in a new buffer) and lost disks the node
    /// sees, every table it assembles equals `build_encoded` over the bytes
    /// it fetched for that very query, and the set equals what
    /// `build_all_encoded` makes of them.
    #[test]
    fn no_interleaving_serves_a_table_of_other_bytes(
        ops in proptest::collection::vec((0u8..6, 0usize..13, 0usize..4, 0usize..3), 1..40),
    ) {
        let files = generation_files();
        // The same generation put twice is the same buffer twice.
        let buffers: Vec<Vec<_>> = files
            .iter()
            .map(|dims| dims.iter().map(|b| b.clone().into()).collect())
            .collect();
        let layout = SsbLayout::default();
        let dfs = Dfs::for_tests(1);
        for (dim, bytes) in DIMS.iter().zip(&files[0]) {
            dfs.write_file(layout.dim_bin(dim), None, bytes).unwrap();
        }
        let local = NodeLocalStore::new(1);
        let resident = ResidentStore::new(1 << 30);
        let queries = all_queries();
        let n0 = NodeId(0);
        for (kind, query, dim, generation) in ops {
            let path = layout.dim_bin(DIMS[dim]);
            match kind {
                0 => local
                    .put(n0, path, Clone::clone(&buffers[generation][dim]))
                    .unwrap(),
                1 => local
                    .put(n0, path, files[generation][dim].clone().into())
                    .unwrap(),
                2 => local.clear_node(n0).unwrap(),
                _ => {
                    let joins = &queries[query].joins;
                    let mut fetched = Vec::new();
                    let tables = DimTables::build_all_resident(joins, Some(&resident), |dim| {
                        let bytes = local.get_or_fetch(n0, &layout.dim_bin(dim), &dfs)?;
                        fetched.push(bytes.clone());
                        Ok(bytes)
                    })
                    .unwrap();
                    let mut served = fetched.iter();
                    let rebuilt = DimTables::build_all_encoded(joins, |_| {
                        Ok(served.next().unwrap().clone())
                    })
                    .unwrap();
                    prop_assert_eq!(tables.probe_order(), rebuilt.probe_order());
                    prop_assert_eq!(
                        (tables.build_rows, tables.mem_bytes, tables.mem_fixed_bytes),
                        (rebuilt.build_rows, rebuilt.mem_bytes, rebuilt.mem_fixed_bytes)
                    );
                    for ((join, bytes), table) in joins.iter().zip(&fetched).zip(&tables.tables) {
                        let expect = DimHashTable::build_encoded(join, bytes).unwrap();
                        let keys = rowcodec::read_rows(bytes).unwrap();
                        let keys = keys.iter().filter_map(|r| r.at(0).as_i64());
                        assert_same_table(table, &expect, keys.chain([-1, 0, i64::MAX]));
                    }
                }
            }
        }
    }
}
