//! Allocation budget of the Hive row path.
//!
//! A counting `GlobalAlloc` wrapper around `System`, confined to this test
//! binary, counts every heap allocation (`alloc`, `alloc_zeroed` and
//! `realloc`) a whole Hive query makes: RCFile decode, the row-at-a-time
//! map, the shuffle's partition/sort/merge/reduce, the stage files written
//! to and re-read from the DFS. The count is exact and repeatable, so it is
//! reported as a count, not a rate. The wrapper also tracks live heap bytes
//! and their high-water mark.
//!
//! The repartition plan moves every fact row through the shuffle. A map
//! task refills one key/value pair from its reader for every record and
//! emits borrowed fields, which are serialized into the task's buffer; the
//! spill sorts an index, not the records, and a short key lives inside its
//! record. The join reducer reads each value's source tag off its bytes,
//! decodes nothing, and writes each joined row's bytes into the part file.
//! Strings decoded from a stage file are shared through a per-task pool
//! rather than allocated per row. So a fact row costs a fraction of one
//! allocation. The budget is 0.32 per fact row; the commit that joined
//! encoded values made 0.21 on Q2.1 at SF 0.004 and 0.30 on Q3.1, the
//! commit before it 1.53 on Q2.1, the commit before the map side borrowed
//! its rows 3.71, the commit before map output was serialized 3.72, the
//! commit before keys moved into the record 5.9, and the commit before
//! rows moved through the shuffle 11–19.
//!
//! The mapjoin plan never shuffles a fact row; its map-only stages must not
//! get costlier than [`MAPJOIN_Q21_CEILING`].
//!
//! `cargo test --release --test shuffle_allocs -- --ignored --nocapture`
//! prints the counts and each query's peak live heap at SF 0.01, the
//! `hive_chain` benchmark's scale: the least, median and most of five runs
//! per query, since the peak moves with how the workers interleave.

use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
use clyde_ssb::query_by_id;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and their high-water mark.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are relaxed atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide: tests that count take this lock so no
/// other test of the binary allocates inside their window.
#[expect(
    clippy::disallowed_types,
    reason = "serializes this binary's counting windows; guards no engine state"
)]
static COUNTING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Per fact row, the most a repartition query may allocate.
const REPARTITION_BUDGET_PER_FACT_ROW: f64 = 0.32;

/// Heap allocations of mapjoin Q2.1 at SF 0.004 on this setup (debug,
/// release build), recorded at the commit that moved the map side onto
/// borrowed rows. The commit that serialized map output at emit made
/// 75,786 / 75,776, the commit before 76,667 / 76,657 (ceiling 76,821 /
/// 76,811), and the commit before rows moved through the shuffle 126,925 /
/// 126,915.
const MAPJOIN_Q21_CEILING: (u64, u64) = (26_767, 26_757);

/// The `hive_chain` benchmark's system: two cluster-A workers, 8 MiB
/// blocks, replication 2, RCFile only, 8 000 rows per group, seed 7.
fn setup(sf: f64) -> (Arc<Dfs>, SsbLayout, SsbGen) {
    let dfs = Dfs::new(
        ClusterSpec {
            workers: 2,
            ..ClusterSpec::cluster_a()
        },
        DfsOptions {
            block_size: 8 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(sf, 7);
    let opts = LoadOpts {
        rows_per_group: 8_000,
        cif: false,
        rcfile: true,
        text: false,
        cluster_by_date: true,
    };
    loader::load(&dfs, gen, &layout, &opts).expect("load");
    (dfs, layout, gen)
}

/// What one query run did to the heap.
struct HeapUse {
    allocs: u64,
    /// The most bytes live at once during the run, beyond those live
    /// before it.
    peak_bytes: u64,
}

/// The heap use of one run of `id` under `strategy`, on a fresh engine over
/// `dfs`.
fn count_query(dfs: &Arc<Dfs>, layout: &SsbLayout, strategy: JoinStrategy, id: &str) -> HeapUse {
    let hive = Hive::new(Arc::clone(dfs), layout.clone(), strategy);
    let q = query_by_id(id).expect("query");
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = hive.query(&q).expect("query runs");
    drop(result);
    HeapUse {
        allocs: ALLOCS.load(Ordering::Relaxed) - before,
        peak_bytes: PEAK.load(Ordering::Relaxed) - live_before,
    }
}

#[test]
fn repartition_stays_within_its_per_fact_row_budget_and_mapjoin_does_not_grow() {
    let _window = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let (dfs, layout, gen) = setup(0.004);
    let fact_rows = gen.num_lineorders() as f64;
    for id in ["Q2.1", "Q3.1", "Q4.1"] {
        let allocs = count_query(&dfs, &layout, JoinStrategy::Repartition, id).allocs;
        let per_row = allocs as f64 / fact_rows;
        assert!(
            per_row <= REPARTITION_BUDGET_PER_FACT_ROW,
            "repartition {id}: {allocs} allocations for {fact_rows} fact rows = {per_row:.2}/row, \
             budget {REPARTITION_BUDGET_PER_FACT_ROW}"
        );
    }
    let ceiling = if cfg!(debug_assertions) {
        MAPJOIN_Q21_CEILING.0
    } else {
        MAPJOIN_Q21_CEILING.1
    };
    let allocs = count_query(&dfs, &layout, JoinStrategy::MapJoin, "Q2.1").allocs;
    assert!(
        allocs <= ceiling,
        "mapjoin Q2.1: {allocs} allocations, recorded ceiling {ceiling}"
    );
}

/// Runs of each query in the report: the peak live heap depends on how the
/// nodes' map and reduce workers interleave their allocations, so one run
/// shows the interleaving, not the code.
const REPORT_RUNS: usize = 5;

#[test]
#[ignore = "report: counts and peaks at the hive_chain benchmark's SF 0.01"]
fn report_counts_at_sf_0_01() {
    let _window = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let (dfs, layout, gen) = setup(0.01);
    let fact_rows = gen.num_lineorders();
    println!("fact rows: {fact_rows}; {REPORT_RUNS} runs per query, min / median / max");
    let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
    for strategy in [JoinStrategy::Repartition, JoinStrategy::MapJoin] {
        for id in ["Q1.1", "Q2.1", "Q3.1", "Q4.1"] {
            let runs: Vec<HeapUse> = (0..REPORT_RUNS)
                .map(|_| count_query(&dfs, &layout, strategy, id))
                .collect();
            let mut allocs: Vec<u64> = runs.iter().map(|h| h.allocs).collect();
            let mut peaks: Vec<u64> = runs.iter().map(|h| h.peak_bytes).collect();
            allocs.sort_unstable();
            peaks.sort_unstable();
            let (lo, mid, hi) = (0, REPORT_RUNS / 2, REPORT_RUNS - 1);
            println!(
                "{:>11} {id}: {} / {} / {} allocations, {:.2} per fact row, \
                 peak live heap {:.2} / {:.2} / {:.2} MiB",
                strategy.label(),
                allocs[lo],
                allocs[mid],
                allocs[hi],
                allocs[mid] as f64 / fact_rows as f64,
                mib(peaks[lo]),
                mib(peaks[mid]),
                mib(peaks[hi]),
            );
        }
    }
}
