//! Task-side context: I/O, per-node persistent state (JVM reuse within a
//! job, resident tables across jobs), memory accounting, and the output
//! collector.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the task context and node state. `NodeState::get_or_try_init` \
                holds its entries while building, which takes the resident store, the \
                node-local store and the DFS state; no inner lock takes an outer one \
                (tests/lock_nesting.rs pins the edges)"
)]

use crate::conf::JobConf;
use crate::cost::TaskCost;
use crate::distcache::DistCache;
use crate::input::{InputFormat, InputSplit};
use crate::shuffle::{Key, MapOutput};
use bytes::Bytes;
use clyde_common::hash::FxHasher;
use clyde_common::lockorder::Mutex;
use clyde_common::obs::Phase;
use clyde_common::{ClydeError, Datum, FxHashMap, Result, Row};
use clyde_dfs::{Dfs, NodeId, NodeLocalStore, ResolvedFile, ScanStats};
use std::any::Any;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// DFS access bound to the task's node, crediting all reads to the task's
/// [`ScanStats`] so the cost model can price the scan.
#[derive(Clone)]
pub struct TaskIo {
    pub dfs: Arc<Dfs>,
    /// The node performing the reads; `None` for job-client reads (Hive's
    /// master building mapjoin hash tables), which are never local.
    pub node: Option<NodeId>,
    pub stats: Arc<ScanStats>,
}

impl TaskIo {
    pub fn new(dfs: Arc<Dfs>, node: NodeId) -> TaskIo {
        TaskIo {
            dfs,
            node: Some(node),
            stats: Arc::new(ScanStats::new()),
        }
    }

    /// I/O performed by the job client rather than a task.
    pub fn client(dfs: Arc<Dfs>) -> TaskIo {
        TaskIo {
            dfs,
            node: None,
            stats: Arc::new(ScanStats::new()),
        }
    }

    pub fn read_file(&self, path: &str) -> Result<Bytes> {
        self.dfs
            .read_file_tracked(path, self.node, Some(&self.stats))
    }

    /// Read a sealed file (a CIF column chunk), its seal checked once per
    /// stored replica ([`Dfs::read_sealed_tracked`]).
    pub fn read_sealed(&self, path: &str) -> Result<Bytes> {
        self.dfs
            .read_sealed_tracked(path, self.node, Some(&self.stats))
    }

    pub fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.dfs
            .read_range_tracked(path, offset, len, self.node, Some(&self.stats))
    }

    /// The first `max_len` bytes of a file, or all of a shorter one
    /// ([`Dfs::read_prefix_tracked`]).
    pub fn read_prefix(&self, path: &str, max_len: u64) -> Result<Bytes> {
        self.dfs
            .read_prefix_tracked(path, max_len, self.node, Some(&self.stats))
    }

    /// [`TaskIo::read_sealed`] of a file resolved at planning
    /// ([`Dfs::read_sealed_resolved`]): no path lookup.
    pub fn read_sealed_resolved(&self, file: &ResolvedFile) -> Result<Bytes> {
        self.dfs
            .read_sealed_resolved(file, self.node, Some(&self.stats))
    }

    /// [`TaskIo::read_prefix`] of a file resolved at planning
    /// ([`Dfs::read_prefix_resolved`]): no path lookup.
    pub fn read_prefix_resolved(&self, file: &ResolvedFile, max_len: u64) -> Result<Bytes> {
        self.dfs
            .read_prefix_resolved(file, max_len, self.node, Some(&self.stats))
    }
}

/// Per-node state of **one job**: it persists across that job's consecutive
/// tasks on the node — the analog of static fields in a reused JVM (paper
/// Sections 3 and 5.1) — and is dropped when the job ends.
///
/// Clydesdale stores its dimension hash tables here: the first map task on a
/// node assembles them, and every later task (and every thread) reuses the
/// `Arc`. "First task of this job on this node" is also what the cost model
/// prices a build for, whether or not the tables were found in the node's
/// [`ResidentStore`]. With JVM reuse disabled (the multithreading ablation),
/// the engine hands each task a fresh `NodeState` with no resident store and
/// the build repeats.
#[derive(Default)]
pub struct NodeState {
    entries: Mutex<FxHashMap<String, Arc<dyn Any + Send + Sync>>>,
    /// The node's engine-lifetime store, outliving this job.
    resident: Option<Arc<ResidentStore>>,
}

impl NodeState {
    /// Job-scoped state with no store behind it: everything is rebuilt.
    pub fn new() -> NodeState {
        NodeState::default()
    }

    /// Job-scoped state in front of the node's engine-lifetime store.
    pub fn with_resident(resident: Arc<ResidentStore>) -> NodeState {
        NodeState {
            resident: Some(resident),
            ..NodeState::default()
        }
    }

    pub fn resident(&self) -> Option<&ResidentStore> {
        self.resident.as_deref()
    }

    /// Fetch the value under `key`, building it with `init` on first access.
    /// Returns the value and whether this call built it.
    pub fn get_or_try_init<T, F>(&self, key: &str, init: F) -> Result<(Arc<T>, bool)>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Result<T>,
    {
        let mut entries = self.entries.lock();
        if let Some(existing) = entries.get(key) {
            let typed = Arc::clone(existing).downcast::<T>().map_err(|_| {
                ClydeError::MapReduce(format!("node state type mismatch for {key}"))
            })?;
            return Ok((typed, false));
        }
        // Build while holding the lock: tasks on one node run one at a time,
        // and even under the multi-threaded runner only the runner's control
        // thread builds (Section 4.2: the build phase is single-threaded).
        let value = Arc::new(init()?);
        entries.insert(
            key.to_string(),
            Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
        );
        Ok((value, true))
    }

    pub fn contains(&self, key: &str) -> bool {
        self.entries.lock().contains_key(key)
    }

    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

/// Counters of one node's [`ResidentStore`]; `entries` and `bytes` are
/// gauges, the rest are cumulative over the engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentStats {
    pub entries: u64,
    /// Sum of the sizes declared at [`ResidentStore::retain`].
    pub bytes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// One node's engine-lifetime store of values built from node-local bytes —
/// Clydesdale keeps its built dimension hash tables here so a later query
/// on the same engine does not rebuild a table an earlier one already built.
///
/// An entry is keyed by *what it was built from*: the identity of the
/// immutable [`Bytes`] buffer (address and length; the entry holds a clone,
/// so the allocation cannot be freed and its address reused while the entry
/// lives) plus a caller-defined description of the build. Bytes are
/// immutable, so the same buffer and the same description always rebuild to
/// the same value: an entry is stale exactly when the node's local copy has
/// been replaced by another buffer, and then its key no longer matches —
/// there is nothing to invalidate. The 64-bit hash only picks a bucket; a
/// hit is confirmed by full equality of buffer identity and key.
///
/// Bounded by the node's memory (`ClusterSpec.node.memory_bytes`, the figure
/// [`MemoryTracker`] enforces within a job): retaining evicts least recently
/// used entries by a logical tick, and a value larger than the bound is not
/// retained at all. Wall-clock only — nothing here is priced, and no metric
/// or span is emitted, so simulated artifacts cannot observe residency.
pub struct ResidentStore {
    capacity: u64,
    inner: Mutex<ResidentInner>,
}

#[derive(Default)]
struct ResidentInner {
    buckets: BTreeMap<u64, Vec<ResidentEntry>>,
    /// Incremented on every lookup and insert; the LRU clock.
    tick: u64,
    stats: ResidentStats,
}

struct ResidentEntry {
    source: Bytes,
    key: Box<dyn Any + Send + Sync>,
    value: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    last_used: u64,
}

impl ResidentEntry {
    fn matches<K: Eq + 'static>(&self, source: &Bytes, key: &K) -> bool {
        std::ptr::eq(self.source.as_ptr(), source.as_ptr())
            && self.source.len() == source.len()
            && self.key.downcast_ref::<K>() == Some(key)
    }
}

fn resident_hash<K: Hash>(source: &Bytes, key: &K) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(source.as_ptr() as usize);
    h.write_usize(source.len());
    key.hash(&mut h);
    h.finish()
}

impl ResidentStore {
    pub fn new(capacity: u64) -> ResidentStore {
        ResidentStore {
            capacity,
            inner: Mutex::new(ResidentInner::default()),
        }
    }

    /// The value retained for (`source`, `key`), bumping its recency.
    pub fn lookup<K, V>(&self, source: &Bytes, key: &K) -> Option<Arc<V>>
    where
        K: Eq + Hash + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let hash = resident_hash(source, key);
        let inner = &mut *self.inner.lock();
        inner.tick += 1;
        let hit = inner
            .buckets
            .get_mut(&hash)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.matches(source, key)))
            .and_then(|e| {
                let value = Arc::clone(&e.value).downcast::<V>().ok()?;
                e.last_used = inner.tick;
                Some(value)
            });
        match hit {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        hit
    }

    /// Keep `value`, accounted as `bytes`, for later lookups of (`source`,
    /// `key`), evicting least recently used entries until it fits. A value
    /// larger than the whole bound, or one whose key is already resident,
    /// is not kept.
    pub fn retain<K, V>(&self, source: &Bytes, key: K, value: &Arc<V>, bytes: u64)
    where
        K: Eq + Hash + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        if bytes > self.capacity {
            return;
        }
        let hash = resident_hash(source, &key);
        let inner = &mut *self.inner.lock();
        let bucket = inner.buckets.entry(hash).or_default();
        if bucket.iter().any(|e| e.matches(source, &key)) {
            return;
        }
        inner.tick += 1;
        bucket.push(ResidentEntry {
            source: source.clone(),
            key: Box::new(key),
            value: Arc::clone(value) as Arc<dyn Any + Send + Sync>,
            bytes,
            last_used: inner.tick,
        });
        inner.stats.entries += 1;
        inner.stats.bytes = inner.stats.bytes.saturating_add(bytes);
        // The new entry carries the highest tick, so it is evicted last —
        // and `bytes <= capacity` means the loop ends before reaching it.
        while inner.stats.bytes > self.capacity {
            let oldest = inner
                .buckets
                .iter()
                .flat_map(|(hash, bucket)| bucket.iter().map(move |e| (e.last_used, *hash)))
                .min();
            let Some((last_used, hash)) = oldest else {
                break;
            };
            let Some(bucket) = inner.buckets.get_mut(&hash) else {
                break;
            };
            if let Some(at) = bucket.iter().position(|e| e.last_used == last_used) {
                let evicted = bucket.swap_remove(at);
                inner.stats.entries -= 1;
                inner.stats.bytes -= evicted.bytes;
                inner.stats.evictions += 1;
            }
            if bucket.is_empty() {
                inner.buckets.remove(&hash);
            }
        }
    }

    pub fn resident_stats(&self) -> ResidentStats {
        self.inner.lock().stats
    }
}

/// Per-node memory budget, shared by all tasks the engine runs on that node
/// within one job.
pub struct MemoryTracker {
    capacity: u64,
    /// Bytes charged. Each charge is one read-modify-write, so no two are
    /// admitted against the same free bytes; `SeqCst` because a charge is an
    /// admission decision, not a statistic.
    used: AtomicU64,
}

impl MemoryTracker {
    pub fn new(capacity: u64) -> MemoryTracker {
        MemoryTracker {
            capacity,
            used: AtomicU64::new(0),
        }
    }

    /// Charge `bytes`; errors with [`ClydeError::OutOfMemory`] if the node's
    /// budget would be exceeded.
    pub fn charge(&self, bytes: u64) -> Result<()> {
        // `charge_memory_per_slot` saturates its product, so `bytes` can be
        // `u64::MAX`: a sum that does not fit is over any capacity.
        self.used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                used.checked_add(bytes)
                    .filter(|&total| total <= self.capacity)
            })
            .map(|_| ())
            .map_err(|used| ClydeError::OutOfMemory {
                required: used.saturating_add(bytes),
                available: self.capacity,
            })
    }

    pub fn release(&self, bytes: u64) {
        // Always `Ok`: the update never declines.
        let _ = self
            .used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                Some(used.saturating_sub(bytes))
            });
    }

    pub fn used(&self) -> u64 {
        self.used.load(Ordering::SeqCst)
    }

    pub fn reset(&self) {
        self.used.store(0, Ordering::SeqCst);
    }
}

/// Records the peak memory shapes a job charged, for the cost model's OOM
/// check at extrapolated scale: `per_slot` memory is duplicated by every
/// concurrently running slot (Hive's per-task hash tables), `shared` memory
/// has one copy per node (Clydesdale's shared tables).
#[derive(Default)]
pub struct MemoryLedger {
    per_slot: AtomicU64,
    shared: AtomicU64,
    per_slot_fixed: AtomicU64,
    shared_fixed: AtomicU64,
}

impl MemoryLedger {
    pub fn new() -> MemoryLedger {
        MemoryLedger::default()
    }

    pub fn note_per_slot(&self, bytes: u64) {
        self.per_slot.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn note_shared(&self, bytes: u64) {
        self.shared.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn note_per_slot_fixed(&self, bytes: u64) {
        self.per_slot_fixed.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn note_shared_fixed(&self, bytes: u64) {
        self.shared_fixed.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn per_slot_fixed(&self) -> u64 {
        self.per_slot_fixed.load(Ordering::Relaxed)
    }

    pub fn shared_fixed(&self) -> u64 {
        self.shared_fixed.load(Ordering::Relaxed)
    }

    pub fn per_slot(&self) -> u64 {
        self.per_slot.load(Ordering::Relaxed)
    }

    pub fn shared(&self) -> u64 {
        self.shared.load(Ordering::Relaxed)
    }
}

/// Where map output goes. Thread-safe because the multi-threaded map runner
/// shares one collector across its join threads (paper Figure 5).
pub trait Collector: Send + Sync {
    /// Emit a (key, value) pair. Both are borrowed: the key is encoded with
    /// the order-preserving codec so the shuffle can sort bytes, and the
    /// value's fields are serialized as one row — from here to the reducer
    /// the record is bytes, and the caller keeps (and may refill) its rows.
    fn collect(&self, key: &[Datum], value: &[Datum]);
}

/// The engine's map-output buffer: each record serialized as it is
/// collected ([`MapOutput`]), in emit order. The map task partitions,
/// sorts and combines it once the runner returns.
#[derive(Default)]
pub struct MapOutputBuffer {
    output: Mutex<Buffered>,
}

/// A [`MapOutputBuffer`]'s contents, under its one lock.
#[derive(Default)]
struct Buffered {
    output: MapOutput,
    emitted: Emitted,
}

/// The records [`MapTaskContext::emit`] counted, and their priced bytes:
/// the task's `emit_records` and `emit_bytes`, folded into its
/// [`TaskCost`] when it ends.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Emitted {
    pub records: u64,
    pub bytes: u64,
}

impl MapOutputBuffer {
    pub fn new() -> MapOutputBuffer {
        MapOutputBuffer::default()
    }

    /// The serialized records, as the engine's map task spills them, and
    /// what was emitted.
    pub(crate) fn into_output(self) -> (MapOutput, Emitted) {
        let Buffered { output, emitted } = self.output.into_inner();
        (output, emitted)
    }

    /// [`Collector::collect`], counting the record as emitted under the
    /// same lock: `emit_bytes` counts the key as a [`Row`] would, plus the
    /// value's priced size, which the buffer takes once.
    fn emit(&self, key: &[Datum], value: &[Datum]) {
        let key_bytes = Row::heap_size_of(key);
        let key = Key::encode(key);
        let buffered = &mut *self.output.lock();
        let value_bytes = buffered.output.push(key, value);
        buffered.emitted.records += 1;
        buffered.emitted.bytes += (key_bytes + value_bytes) as u64;
    }

    /// The records with each key as a byte vector and each value decoded.
    /// Frozen-benchmark shim: `benchmark/src/replay.rs` was written against
    /// `(Vec<u8>, Row)` records.
    #[doc(hidden)]
    pub fn into_records(self) -> Vec<(Vec<u8>, Row)> {
        // The buffer decodes only what `collect` encoded.
        self.into_output()
            .0
            .into_records()
            .unwrap_or_default()
            .into_iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.output.lock().output.len()
    }

    pub fn is_empty(&self) -> bool {
        self.output.lock().output.is_empty()
    }
}

impl Collector for MapOutputBuffer {
    fn collect(&self, key: &[Datum], value: &[Datum]) {
        let key = Key::encode(key);
        self.output.lock().output.push(key, value);
    }
}

/// Everything a map task (or its runner) can touch. Mirrors what a Hadoop
/// task reaches through `JobConf`, the task attempt context, and statics.
pub struct MapTaskContext<'a> {
    pub conf: &'a JobConf,
    pub split: &'a InputSplit,
    pub input: &'a dyn InputFormat,
    pub io: TaskIo,
    pub node: NodeId,
    /// Threads this task may use (1 for ordinary tasks; all the node's map
    /// slots for Clydesdale's one-task-per-node jobs — Section 5.2's point 3).
    /// This is the number the cost model prices with.
    pub threads: u32,
    /// Host OS threads the runner actually spawns. Usually equals `threads`;
    /// the determinism harness varies it to prove results don't depend on
    /// real scheduling.
    pub host_threads: u32,
    /// Concurrently scheduled tasks of this job on this node (slot pressure);
    /// used to model per-slot memory duplication.
    pub slot_concurrency: u32,
    pub node_state: Arc<NodeState>,
    pub memory: Arc<MemoryTracker>,
    pub ledger: Arc<MemoryLedger>,
    /// Effective bytes this task charged transiently (released at task end).
    pub task_charges: Mutex<u64>,
    pub local_store: Arc<NodeLocalStore>,
    pub dist_cache: Arc<DistCache>,
    pub out: Arc<MapOutputBuffer>,
    pub cost: Arc<Mutex<TaskCost>>,
    /// Wall-clock nanoseconds runners attribute to execution phases
    /// (hash-build, probe, emit). Observability-only; never affects
    /// simulated time.
    pub wall_phases: Mutex<Vec<(Phase, u64)>>,
}

/// Attribute measured wall-clock time to an execution phase of a task: the
/// one channel wall time leaves a task through, map or reduce. The engine
/// sums each job's phases into [`crate::JobProfile::wall_phases`], outside
/// every compared artifact.
pub(crate) fn note_wall_phase(phases: &mut Vec<(Phase, u64)>, phase: Phase, nanos: u64) {
    if nanos > 0 {
        phases.push((phase, nanos));
    }
}

impl MapTaskContext<'_> {
    /// Attribute measured wall-clock time to an execution phase (see
    /// [`note_wall_phase`]).
    pub fn note_wall_phase(&self, phase: Phase, nanos: u64) {
        note_wall_phase(&mut self.wall_phases.lock(), phase, nanos);
    }
    /// Emit a map-output record: the key (`&[]` for map-only output) and
    /// the value's fields are borrowed and serialized into the output
    /// buffer, so a runner can emit from rows it reuses. The task's
    /// `emit_records` and `emit_bytes` are counted under the buffer's lock
    /// and folded into its cost when it ends; `emit_bytes` counts the key
    /// as a [`Row`] would.
    pub fn emit(&self, key: &[Datum], value: &[Datum]) {
        self.out.emit(key, value);
    }

    /// Charge memory that is shared by every task/thread on the node and
    /// lives for the whole job (e.g. Clydesdale's single copy of the
    /// dimension hash tables, kept alive by JVM reuse).
    pub fn charge_memory_shared(&self, bytes: u64) -> Result<()> {
        self.ledger.note_shared(bytes);
        self.memory.charge(bytes)
    }

    /// Charge memory that every concurrently running slot would duplicate
    /// and that dies with the task (e.g. Hive's per-task hash table copies —
    /// the cause of the paper's cluster-A mapjoin OOM failures). The engine
    /// releases these charges when the task finishes.
    pub fn charge_memory_per_slot(&self, bytes: u64) -> Result<()> {
        self.ledger.note_per_slot(bytes);
        let effective = bytes.saturating_mul(u64::from(self.slot_concurrency));
        self.memory.charge(effective)?;
        *self.task_charges.lock() += effective;
        Ok(())
    }

    /// [`TaskContext::charge_memory_shared`] for **scale-invariant** bytes:
    /// structures whose size is bounded by a key range rather than by data
    /// cardinality (e.g. a sparse small-range direct-index array). Charged
    /// against the node budget like any other bytes, but recorded
    /// separately so the cost extrapolator does not scale them with
    /// dimension cardinality.
    pub fn charge_memory_shared_fixed(&self, bytes: u64) -> Result<()> {
        self.ledger.note_shared_fixed(bytes);
        self.memory.charge(bytes)
    }

    /// [`TaskContext::charge_memory_per_slot`] for scale-invariant bytes
    /// (see [`TaskContext::charge_memory_shared_fixed`]).
    pub fn charge_memory_per_slot_fixed(&self, bytes: u64) -> Result<()> {
        self.ledger.note_per_slot_fixed(bytes);
        let effective = bytes.saturating_mul(u64::from(self.slot_concurrency));
        self.memory.charge(effective)?;
        *self.task_charges.lock() += effective;
        Ok(())
    }

    /// Record cost-model counters under the task's lock.
    pub fn add_cost(&self, f: impl FnOnce(&mut TaskCost)) {
        f(&mut self.cost.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::{keycodec, row};

    #[test]
    fn node_state_builds_once() {
        let st = NodeState::new();
        let (v1, built1) = st
            .get_or_try_init("k", || Ok::<_, ClydeError>(vec![1, 2, 3]))
            .unwrap();
        let (v2, built2) = st
            .get_or_try_init("k", || -> Result<Vec<i32>> { panic!("must not rebuild") })
            .unwrap();
        assert!(built1);
        assert!(!built2);
        assert!(Arc::ptr_eq(&v1, &v2));
        assert!(st.contains("k"));
        st.clear();
        assert!(!st.contains("k"));
    }

    #[test]
    fn node_state_init_failure_is_not_cached() {
        let st = NodeState::new();
        let r = st.get_or_try_init::<u32, _>("k", || Err(ClydeError::Plan("boom".into())));
        assert!(r.is_err());
        let (_, built) = st
            .get_or_try_init("k", || Ok::<_, ClydeError>(9u32))
            .unwrap();
        assert!(built);
    }

    #[test]
    fn node_state_type_mismatch_is_an_error() {
        let st = NodeState::new();
        st.get_or_try_init("k", || Ok::<_, ClydeError>(1u32))
            .unwrap();
        let r = st.get_or_try_init::<String, _>("k", || Ok("x".to_string()));
        assert!(r.is_err());
    }

    #[test]
    fn memory_tracker_enforces_capacity() {
        let m = MemoryTracker::new(100);
        m.charge(60).unwrap();
        let err = m.charge(50).unwrap_err();
        assert!(err.is_oom());
        m.release(30);
        m.charge(50).unwrap();
        assert_eq!(m.used(), 80);
        m.reset();
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn memory_tracker_charge_that_overflows_u64_is_out_of_memory() {
        // What `charge_memory_per_slot` hands over when its product
        // saturates: the sum wraps to 9 and used to be admitted.
        let m = MemoryTracker::new(100);
        m.charge(10).unwrap();
        let err = m.charge(u64::MAX).unwrap_err();
        assert!(err.is_oom(), "{err:?}");
        assert_eq!(m.used(), 10);
    }

    #[test]
    fn memory_tracker_and_ledger_hold_under_concurrent_threads() {
        // Every round, all threads start together and charge until the node
        // is full, then release what they got. `held` counts only admitted
        // charges that are not yet released, so it can pass the capacity
        // only if two charges were admitted against the same free bytes.
        const CAPACITY: u64 = 1000;
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 200;
        let m = MemoryTracker::new(CAPACITY);
        let ledger = MemoryLedger::new();
        let held = AtomicU64::new(0);
        let start = std::sync::Barrier::new(THREADS as usize);
        #[expect(
            clippy::disallowed_methods,
            reason = "D004 audit: the test races charges against one tracker"
        )]
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (m, ledger, held, start) = (&m, &ledger, &held, &start);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        start.wait();
                        ledger.note_per_slot(t * ROUNDS + round);
                        ledger.note_shared(round * THREADS + t);
                        let bytes = 1 + (t * 31 + round * 7) % 97;
                        let mut mine = 0;
                        while m.charge(bytes).is_ok() {
                            mine += bytes;
                            let total = held.fetch_add(bytes, Ordering::Relaxed) + bytes;
                            assert!(total <= CAPACITY, "{total} bytes admitted");
                        }
                        held.fetch_sub(mine, Ordering::Relaxed);
                        m.release(mine);
                    }
                });
            }
        });
        assert_eq!(m.used(), 0);
        assert_eq!(ledger.per_slot(), THREADS * ROUNDS - 1);
        assert_eq!(ledger.shared(), THREADS * ROUNDS - 1);
    }

    #[test]
    fn resident_store_hits_only_the_same_buffer_and_key() {
        let store = ResidentStore::new(1000);
        let a = Bytes::from(vec![1u8, 2, 3]);
        let same_content = Bytes::from(vec![1u8, 2, 3]);
        store.retain(&a, "k".to_string(), &Arc::new(7u32), 10);
        let hit = store.lookup::<String, u32>(&a.clone(), &"k".to_string());
        assert_eq!(hit.as_deref(), Some(&7));
        // Equal bytes in another buffer, a sub-slice, another key, another
        // key type and another value type are all misses.
        assert!(store
            .lookup::<String, u32>(&same_content, &"k".to_string())
            .is_none());
        assert!(store
            .lookup::<String, u32>(&a.slice(0..2), &"k".to_string())
            .is_none());
        assert!(store.lookup::<String, u32>(&a, &"j".to_string()).is_none());
        assert!(store.lookup::<&str, u32>(&a, &"k").is_none());
        assert!(store.lookup::<String, u64>(&a, &"k".to_string()).is_none());
        assert_eq!(
            store.resident_stats(),
            ResidentStats {
                entries: 1,
                bytes: 10,
                hits: 1,
                misses: 5,
                evictions: 0
            }
        );
        // A second retain under a resident key keeps the first value.
        store.retain(&a, "k".to_string(), &Arc::new(8u32), 10);
        let hit = store.lookup::<String, u32>(&a, &"k".to_string());
        assert_eq!(hit.as_deref(), Some(&7));
        assert_eq!(store.resident_stats().entries, 1);
    }

    #[test]
    fn resident_store_evicts_least_recently_used_and_never_exceeds_its_bound() {
        let store = ResidentStore::new(100);
        let src = Bytes::from(vec![0u8; 4]);
        for k in 0..3u32 {
            store.retain(&src, k, &Arc::new(k), 40);
            assert!(store.resident_stats().bytes <= 100);
        }
        // 0 was evicted for 2; touching 1 makes 2 the oldest.
        assert!(store.lookup::<u32, u32>(&src, &0).is_none());
        assert!(store.lookup::<u32, u32>(&src, &1).is_some());
        store.retain(&src, 3u32, &Arc::new(3u32), 40);
        assert!(store.lookup::<u32, u32>(&src, &2).is_none());
        assert!(store.lookup::<u32, u32>(&src, &1).is_some());
        assert!(store.lookup::<u32, u32>(&src, &3).is_some());
        // Larger than the whole bound: not retained, nothing evicted for it.
        store.retain(&src, 4u32, &Arc::new(4u32), 101);
        assert!(store.lookup::<u32, u32>(&src, &4).is_none());
        // Exactly the bound: evicts everything else.
        store.retain(&src, 5u32, &Arc::new(5u32), 100);
        let stats = store.resident_stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (1, 100, 4));
    }

    #[test]
    fn resident_store_entry_keeps_its_buffer_alive() {
        // The key is the buffer's address: were the entry not holding a
        // clone, dropping the caller's handle could hand the address to
        // different bytes and turn a stale entry into a false hit.
        let store = ResidentStore::new(1000);
        let a = Bytes::from(vec![9u8; 64]);
        let (addr, len) = (a.as_ptr() as usize, a.len());
        store.retain(&a, 1u8, &Arc::new("built from a"), 1);
        drop(a);
        for _ in 0..64 {
            let b = Bytes::from(vec![7u8; 64]);
            assert!((b.as_ptr() as usize, b.len()) != (addr, len));
            assert!(store.lookup::<u8, &str>(&b, &1).is_none());
        }
    }

    #[test]
    fn node_state_reaches_the_store_it_was_created_over() {
        assert!(NodeState::new().resident().is_none());
        let store = Arc::new(ResidentStore::new(1));
        let st = NodeState::with_resident(Arc::clone(&store));
        assert!(std::ptr::eq(st.resident().unwrap(), &*store));
    }

    #[test]
    fn output_buffer_serializes_records_in_emit_order() {
        let buf = MapOutputBuffer::new();
        buf.collect(&[Datum::I64(2)], row!["b", 1.5f64].values());
        buf.collect(&[Datum::I64(1)], &[Datum::Null, Datum::I32(7)]);
        assert_eq!(buf.len(), 2);
        let records = buf.into_output().0.into_records().unwrap();
        assert_eq!(
            format!("{records:?}"),
            format!(
                "{:?}",
                vec![
                    (Key::encode(&[Datum::I64(2)]), row!["b", 1.5f64]),
                    (
                        Key::encode(&[Datum::I64(1)]),
                        Row::new(vec![Datum::Null, Datum::I32(7)])
                    ),
                ]
            )
        );
    }

    #[test]
    fn into_records_hands_out_the_codec_bytes() {
        let buf = MapOutputBuffer::new();
        let long = [Datum::str("UNITED KINGDOM"), Datum::str("UNITED STATES")];
        buf.collect(&[Datum::I64(2)], &[Datum::str("b")]);
        buf.collect(&long, &[Datum::str("c")]);
        buf.collect(&[], &[Datum::str("d")]);
        let expect = vec![
            (keycodec::encode_datums(&[Datum::I64(2)]), row!["b"]),
            (keycodec::encode_datums(&long), row!["c"]),
            (Vec::new(), row!["d"]),
        ];
        assert_eq!(buf.into_records(), expect);
    }
}
