//! The distributed-filesystem facade.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the DFS block stores and namespace; the per-node I/O counters \
                are atomics"
)]

use crate::block::{block_checksum, BlockId, BlockMeta};
use crate::cache::{CacheCatalog, CacheEntry, CacheStats};
use crate::datanode::{Datanode, Replica};
use crate::metrics::{IoMetrics, IoSnapshot, ScanStats};
use crate::namenode::{FileEntry, Namenode};
use crate::placement::{BlockPlacementPolicy, DefaultPlacement};
use crate::topology::{ClusterSpec, NodeId};
use bytes::Bytes;
use clyde_common::lockorder::RwLock;
use clyde_common::{hash, ClydeError, FxHashMap, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for a [`Dfs`] instance.
pub struct DfsOptions {
    /// Block size in bytes. HDFS defaults to 64 MB; tests use small blocks
    /// to exercise multi-block files cheaply.
    pub block_size: u64,
    /// Target replication factor (clamped to the number of workers).
    pub replication: u32,
    /// Placement policy for new blocks.
    pub policy: Box<dyn BlockPlacementPolicy>,
}

impl Default for DfsOptions {
    fn default() -> DfsOptions {
        DfsOptions {
            block_size: 64 << 20,
            replication: 3,
            policy: Box::new(DefaultPlacement),
        }
    }
}

/// Status summary returned by [`Dfs::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    pub path: String,
    pub len: u64,
    pub num_blocks: usize,
    pub group: Option<String>,
}

/// Where one file lives, as [`Dfs::locate_prefix`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileLocation<'a> {
    pub path: &'a str,
    pub len: u64,
    /// Nodes holding a replica of every block of the file, in the first
    /// block's placement order — `common_hosts` of this one file.
    pub hosts: &'a [NodeId],
    /// The file's blocks, in file order.
    pub blocks: &'a [BlockId],
}

impl FileLocation<'_> {
    /// What a later read needs to fetch this file without looking its path
    /// up again ([`Dfs::read_resolved`]).
    pub fn resolved(&self) -> ResolvedFile {
        ResolvedFile {
            path: self.path.to_string(),
            len: self.len,
            blocks: self.blocks.to_vec(),
        }
    }
}

/// One file as a namespace lookup found it: its path (for errors), stored
/// length and block list. Reading through it skips the path lookup; the
/// blocks' replicas, checksums and seals are still looked up per read, so a
/// replica change is seen at once. Block ids are never reused, so once the
/// file is deleted every read through it is a typed error naming the path,
/// never another file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedFile {
    pub path: String,
    pub len: u64,
    pub blocks: Vec<BlockId>,
}

/// One group of a table's files, as a planner sees it: the nodes holding a
/// replica of every block of every file of the group, and each file as it
/// was resolved, in the caller's file order (a CIF row group: its column
/// files in schema order). What [`Dfs::table_locations`] keeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupFiles {
    pub hosts: Vec<NodeId>,
    pub files: Vec<ResolvedFile>,
}

/// A file's read-side view: a namespace entry's, or a resolution's.
#[derive(Clone, Copy)]
struct FileView<'a> {
    path: &'a str,
    len: u64,
    blocks: &'a [BlockId],
}

impl<'a> From<&'a FileEntry> for FileView<'a> {
    fn from(e: &'a FileEntry) -> FileView<'a> {
        FileView {
            path: &e.path,
            len: e.len,
            blocks: &e.blocks,
        }
    }
}

impl<'a> From<&'a ResolvedFile> for FileView<'a> {
    fn from(f: &'a ResolvedFile) -> FileView<'a> {
        FileView {
            path: &f.path,
            len: f.len,
            blocks: &f.blocks,
        }
    }
}

struct State {
    namenode: Namenode,
    datanodes: Vec<Datanode>,
    /// Table location folds by key, each with the namespace epoch it was
    /// built at; only entries of the current epoch are ever served.
    tables: FxHashMap<String, (u64, Arc<[GroupFiles]>)>,
}

/// What part of a file a read returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// All of it, every block fetched.
    Whole,
    /// All of a *sealed* file — one whose last [`hash::SEAL_LEN`] bytes are
    /// the seal of the rest ([`clyde_common::hash::seal`]; every CIF column
    /// chunk is one). The seal is checked before the bytes are returned,
    /// and a mismatch is a typed error on every read. For a single-block
    /// file the check follows the block checksum's verify-once rule: the
    /// first read that finds a replica's seal matching sets a flag next to
    /// its `verified` flag, and later reads of that replica skip the hash.
    /// A multi-block file is assembled per read, so its seal is checked on
    /// every read.
    Sealed,
    /// Exactly `len` bytes from `offset`; a range past the end of the file
    /// is an error. Only the bytes returned are credited, even when the
    /// range spans block boundaries, and a range inside one block is a
    /// slice of the stored replica, not a copy.
    Range { offset: u64, len: u64 },
    /// Up to this many bytes from the start: [`Span::Range`] of
    /// `0..min(max, len)` without a separate length lookup.
    Prefix(u64),
}

/// A simulated HDFS instance over the workers of a [`ClusterSpec`].
///
/// All methods take `&self`; the structure is internally synchronized so map
/// tasks running on different worker threads can read concurrently.
pub struct Dfs {
    cluster: ClusterSpec,
    block_size: u64,
    replication: u32,
    policy: Box<dyn BlockPlacementPolicy>,
    state: RwLock<State>,
    metrics: IoMetrics,
    /// The result-cache catalog (ReStore-style job-output reuse). The
    /// catalog itself is plain data in [`crate::cache`]; this is the one
    /// lock guarding it, never held across a namespace operation.
    cache: RwLock<CacheCatalog>,
    /// Seals hashed by [`Span::Sealed`] reads (test assertions).
    seal_checks: AtomicU64,
    /// Namespace walks by [`Dfs::locate_prefix`] (test assertions).
    namespace_walks: AtomicU64,
    /// Path lookups by the read side (test assertions).
    path_lookups: AtomicU64,
}

impl Dfs {
    pub fn new(cluster: ClusterSpec, opts: DfsOptions) -> Arc<Dfs> {
        let replication = cluster.clamp_replication(opts.replication);
        let datanodes = (0..cluster.num_workers())
            .map(|_| Datanode::new())
            .collect();
        Arc::new(Dfs {
            metrics: IoMetrics::new(cluster.num_workers()),
            cluster,
            block_size: opts.block_size,
            replication,
            policy: opts.policy,
            state: RwLock::new(State {
                namenode: Namenode::new(),
                datanodes,
                tables: FxHashMap::default(),
            }),
            cache: RwLock::new(CacheCatalog::new()),
            seal_checks: AtomicU64::new(0),
            namespace_walks: AtomicU64::new(0),
            path_lookups: AtomicU64::new(0),
        })
    }

    /// Convenience constructor used by most tests: `n`-node tiny cluster,
    /// small blocks, replication 2, co-locating placement.
    pub fn for_tests(n: usize) -> Arc<Dfs> {
        Dfs::new(
            ClusterSpec::tiny(n),
            DfsOptions {
                block_size: 1024,
                replication: 2,
                policy: Box::new(crate::placement::ColocatingPlacement),
            },
        )
    }

    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    pub fn replication(&self) -> u32 {
        self.replication
    }

    pub fn metrics(&self) -> IoSnapshot {
        self.metrics.snapshot()
    }

    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// Open a scoped I/O window: its `delta()` covers only reads/writes
    /// performed after this call (see [`IoMetrics::scope`]).
    pub fn io_scope(&self) -> crate::metrics::IoScope<'_> {
        self.metrics.scope()
    }

    /// Open a new file for writing. `group` is the placement group handed to
    /// the placement policy (CIF passes the row-group directory so column
    /// files co-locate). `writer_node` attributes the write I/O; pass `None`
    /// for client-side loads.
    pub fn create(
        self: &Arc<Self>,
        path: impl Into<String>,
        group: Option<String>,
        writer_node: Option<NodeId>,
    ) -> Result<DfsWriter> {
        let path = path.into();
        {
            let state = self.state.read();
            if state.namenode.exists(&path) {
                return Err(ClydeError::Dfs(format!("file already exists: {path}")));
            }
        }
        Ok(DfsWriter {
            dfs: Arc::clone(self),
            path,
            group,
            writer_node,
            buf: Vec::new(),
            blocks: Vec::new(),
            total_len: 0,
            closed: false,
        })
    }

    /// Write an entire file in one call.
    pub fn write_file(
        self: &Arc<Self>,
        path: impl Into<String>,
        group: Option<String>,
        data: &[u8],
    ) -> Result<()> {
        let mut w = self.create(path, group, None)?;
        w.write_all(data)?;
        w.close()
    }

    fn alive_nodes(state: &State) -> Vec<NodeId> {
        state
            .datanodes
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_alive())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Place and store one block; returns its id.
    fn store_block(
        &self,
        path: &str,
        group: Option<&str>,
        block_index: usize,
        data: Bytes,
        writer_node: Option<NodeId>,
    ) -> Result<BlockId> {
        let mut state = self.state.write();
        let n = state.datanodes.len();
        let mut targets = self
            .policy
            .choose_targets(path, group, block_index, self.replication, n);
        // Skip dead nodes, substituting the next alive node (deterministic).
        let Some(&first_alive) = Self::alive_nodes(&state).first() else {
            return Err(ClydeError::Dfs("no alive datanodes".into()));
        };
        let mut fixed: Vec<NodeId> = Vec::with_capacity(targets.len());
        for t in targets.drain(..) {
            let usable = |c: &NodeId| {
                state.datanodes.get(c.0).is_some_and(Datanode::is_alive) && !fixed.contains(c)
            };
            if let Some(c) = (0..n).map(|step| NodeId((t.0 + step) % n)).find(usable) {
                fixed.push(c);
            }
        }
        if fixed.is_empty() {
            fixed.push(first_alive);
        }
        let id =
            state
                .namenode
                .allocate_block(data.len() as u64, fixed.clone(), block_checksum(&data));
        for node in &fixed {
            state
                .datanodes
                .get_mut(node.0)
                .ok_or_else(|| ClydeError::Dfs(format!("placement chose unknown node {node}")))?
                .store(id, data.clone());
            self.metrics.record_write(*node, data.len() as u64)?;
        }
        // Attribute pipeline traffic to the writer if it is a cluster node
        // and not among the replicas (client writes are not attributed).
        let _ = writer_node;
        Ok(id)
    }

    /// Read an entire file. `reader` selects the node doing the read for
    /// locality accounting; `None` means an external client (counted remote).
    pub fn read_file(&self, path: &str, reader: Option<NodeId>) -> Result<Bytes> {
        self.read(path, Span::Whole, reader, None)
    }

    /// Look `path` up, then read `span` of it through the one read body,
    /// additionally crediting the bytes to a task's [`ScanStats`].
    pub fn read(
        &self,
        path: &str,
        span: Span,
        reader: Option<NodeId>,
        stats: Option<&ScanStats>,
    ) -> Result<Bytes> {
        self.path_lookups.fetch_add(1, Ordering::Relaxed);
        let state = self.state.read();
        let entry = state.namenode.file(path)?;
        self.read_body(&state, entry.into(), span, reader, stats)
    }

    /// [`Dfs::read`] of a file resolved earlier, without a path lookup.
    pub fn read_resolved(
        &self,
        file: &ResolvedFile,
        span: Span,
        reader: Option<NodeId>,
        stats: Option<&ScanStats>,
    ) -> Result<Bytes> {
        let state = self.state.read();
        self.read_body(&state, file.into(), span, reader, stats)
    }

    /// The one read body, shared by path-keyed and resolved reads: fetch
    /// the blocks `span` covers, each from a verified replica (the reader's
    /// own first), credit the bytes returned, and check the seal of a
    /// sealed whole read. A block the namespace no longer has (the file was
    /// deleted after it was resolved) is a typed error naming the path.
    fn read_body(
        &self,
        state: &State,
        file: FileView<'_>,
        span: Span,
        reader: Option<NodeId>,
        stats: Option<&ScanStats>,
    ) -> Result<Bytes> {
        let FileView { path, blocks, .. } = file;
        let meta = |b: BlockId| {
            state.namenode.block(b).map_err(|_| {
                ClydeError::Dfs(format!(
                    "block {b:?} of {path} is gone: the file changed after it was resolved"
                ))
            })
        };
        let (offset, len) = match span {
            Span::Whole | Span::Sealed => {
                let sealed = span == Span::Sealed;
                if let &[only] = blocks {
                    // Fast path: single-block files return the stored Bytes
                    // directly.
                    let (replica, local) = self.fetch_block(state, meta(only)?, reader)?;
                    self.account_read(reader, stats, local, replica.data().len() as u64)?;
                    if sealed && !replica.is_sealed() {
                        self.check_seal(path, replica.data())?;
                        replica.mark_sealed();
                    }
                    return Ok(replica.data().clone());
                }
                let mut out = Vec::with_capacity(file.len as usize);
                for &b in blocks {
                    let (replica, local) = self.fetch_block(state, meta(b)?, reader)?;
                    self.account_read(reader, stats, local, replica.data().len() as u64)?;
                    out.extend_from_slice(replica.data());
                }
                if sealed {
                    self.check_seal(path, &out)?;
                }
                return Ok(Bytes::from(out));
            }
            Span::Range { offset, len } => (offset, len),
            Span::Prefix(max) => (0, max.min(file.len)),
        };
        let end = match offset.checked_add(len) {
            Some(end) if end <= file.len => end,
            _ => {
                return Err(ClydeError::Dfs(format!(
                    "range {offset}+{len} beyond end of {path} (len {})",
                    file.len
                )))
            }
        };
        let mut out = Vec::new();
        let mut block_start = 0u64;
        for &b in blocks {
            let meta = meta(b)?;
            let block_end = block_start + meta.len;
            if block_end > offset && block_start < end {
                let (replica, local) = self.fetch_block(state, meta, reader)?;
                let data = replica.data();
                let from = offset.saturating_sub(block_start) as usize;
                let to = (end.min(block_end) - block_start) as usize;
                if to > data.len() {
                    return Err(ClydeError::Dfs(format!(
                        "block {b:?} of {path} is shorter than its metadata"
                    )));
                }
                self.account_read(reader, stats, local, (to - from) as u64)?;
                let part = data.slice(from..to);
                if part.len() as u64 == len {
                    return Ok(part); // the whole range sits inside this block
                }
                if out.is_empty() {
                    out.reserve_exact(len as usize);
                }
                out.extend_from_slice(&part);
            }
            block_start = block_end;
            if block_start >= end {
                break;
            }
        }
        Ok(Bytes::from(out))
    }

    /// Hash `data`'s body against its trailing seal. The replica it came
    /// from matched the namenode checksum, so every replica holds these
    /// bytes: a mismatch is damage from before the write, and no replica
    /// can serve the file.
    fn check_seal(&self, path: &str, data: &[u8]) -> Result<()> {
        self.seal_checks.fetch_add(1, Ordering::Relaxed);
        match hash::unseal(data) {
            Some(_) => Ok(()),
            None => Err(ClydeError::Format(format!(
                "column checksum mismatch in {path}"
            ))),
        }
    }

    /// Fetch one replica of `meta` from `node`, verified against the
    /// namenode checksum. A stored replica is hashed until it matches once;
    /// from then on it is served without re-hashing, because its bytes
    /// cannot change without becoming a new, unverified [`Replica`] (HDFS's
    /// centralized-cache rule: an in-memory replica is checksummed once,
    /// when cached). A failed verification is recorded as a corrupt read,
    /// never remembered, and the replica is treated as unavailable, so the
    /// caller falls through to the next one — the HDFS client's
    /// checksum-and-retry path.
    ///
    /// [`Replica`]: crate::datanode::Replica
    fn verified<'s>(
        &self,
        state: &'s State,
        meta: &BlockMeta,
        node: NodeId,
    ) -> Option<&'s Replica> {
        let replica = state.datanodes.get(node.0)?.replica(meta.id)?;
        if !replica.is_verified() {
            if block_checksum(replica.data()) != meta.checksum {
                self.metrics.record_corrupt_read(node);
                return None;
            }
            replica.mark_verified();
        }
        Some(replica)
    }

    /// Locate and return a block's payload, preferring a replica on the
    /// reading node (HDFS short-circuit read). Returns whether the read was
    /// local. Does **not** account the bytes — callers do, so range reads
    /// can credit only the bytes they actually return.
    fn fetch_block<'s>(
        &self,
        state: &'s State,
        meta: &BlockMeta,
        reader: Option<NodeId>,
    ) -> Result<(&'s Replica, bool)> {
        if let Some(r) = reader {
            if meta.is_local_to(r) {
                if let Some(replica) = self.verified(state, meta, r) {
                    return Ok((replica, true));
                }
            }
        }
        // Otherwise the first alive, checksum-clean replica serves it over
        // the network (skipping the reader, which was already tried above).
        for &rep in &meta.replicas {
            if Some(rep) == reader {
                continue;
            }
            if let Some(replica) = self.verified(state, meta, rep) {
                return Ok((replica, false));
            }
        }
        Err(ClydeError::Dfs(format!(
            "all replicas of block {:?} are unavailable or corrupt",
            meta.id
        )))
    }

    fn account_read(
        &self,
        reader: Option<NodeId>,
        stats: Option<&ScanStats>,
        local: bool,
        bytes: u64,
    ) -> Result<()> {
        match (local, reader) {
            (true, Some(r)) => self.metrics.record_local_read(r, bytes)?,
            (false, Some(r)) => self.metrics.record_remote_read(r, bytes)?,
            // Client reads are attributed to node 0's remote counter so the
            // totals still add up; locality is meaningless for clients.
            (_, None) => self.metrics.record_remote_read(NodeId(0), bytes)?,
        }
        if let Some(s) = stats {
            if local {
                s.add_local(bytes);
            } else {
                s.add_remote(bytes);
            }
        }
        Ok(())
    }

    pub fn exists(&self, path: &str) -> bool {
        self.state.read().namenode.exists(path)
    }

    pub fn file_len(&self, path: &str) -> Result<u64> {
        Ok(self.state.read().namenode.file(path)?.len)
    }

    pub fn status(&self, path: &str) -> Result<FileStatus> {
        let state = self.state.read();
        let e = state.namenode.file(path)?;
        Ok(FileStatus {
            path: e.path.clone(),
            len: e.len,
            num_blocks: e.blocks.len(),
            group: e.group.clone(),
        })
    }

    pub fn delete(&self, path: &str) -> Result<()> {
        self.delete_raw(path)?;
        // Result-cache coherence hook: dropping a file invalidates every
        // cached entry that fingerprinted it as an input (fact-partition
        // roll-out) or persisted it as an output. Those entries' remaining
        // output files become garbage; deleting them cascades through the
        // same hook via a worklist (never recursion, never nested locks).
        let mut worklist = self.cache.write().invalidate_path(path);
        while let Some(p) = worklist.pop() {
            if self.exists(&p) {
                self.delete_raw(&p)?;
            }
            let more = self.cache.write().invalidate_path(&p);
            worklist.extend(more);
        }
        Ok(())
    }

    /// Remove a file from the namespace and free its blocks, without
    /// touching the result cache.
    fn delete_raw(&self, path: &str) -> Result<()> {
        let mut state = self.state.write();
        let blocks = state.namenode.delete(path)?;
        for b in blocks {
            for dn in state.datanodes.iter_mut() {
                dn.free(b);
            }
        }
        Ok(())
    }

    // ---- Result cache (ReStore-style job-output reuse) ----

    /// Set the result-cache capacity budget in bytes; 0 (the default)
    /// disables the cache entirely.
    pub fn cache_configure(&self, capacity_bytes: u64) {
        self.cache.write().set_capacity(capacity_bytes);
    }

    pub fn cache_enabled(&self) -> bool {
        self.cache.read().enabled()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.read().stats()
    }

    /// Look up a fingerprint in the catalog, bumping its LRU recency.
    pub fn cache_lookup(&self, fingerprint: u64) -> Option<CacheEntry> {
        self.cache.write().lookup(fingerprint)
    }

    /// Admit a cached entry, evicting least-recently-used entries
    /// under the capacity budget and deleting their backing files. Returns
    /// whether the entry was admitted — callers persist the output bytes
    /// only on `true`. An entry whose fingerprint is already resident is not
    /// admitted again: its bytes are already there.
    pub fn cache_insert(&self, entry: CacheEntry) -> Result<bool> {
        let fp = entry.fingerprint;
        if self.cache.read().contains(fp) {
            return Ok(false);
        }
        let freed = self.cache.write().insert(entry);
        for p in freed {
            if self.exists(&p) {
                self.delete(&p)?;
            }
        }
        Ok(self.cache.read().contains(fp))
    }

    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.state.read().namenode.list_prefix(prefix)
    }

    /// Nodes holding replicas of the file's blocks, ordered by how many of
    /// the file's bytes each holds (descending). The MapReduce scheduler uses
    /// this to place tasks near their data.
    pub fn hosts(&self, path: &str) -> Result<Vec<NodeId>> {
        let state = self.state.read();
        let entry = state.namenode.file(path)?;
        let mut counts: FxHashMap<NodeId, u64> = FxHashMap::default();
        for &b in &entry.blocks {
            let meta = state.namenode.block(b)?;
            for &r in &meta.replicas {
                *counts.entry(r).or_insert(0) += meta.len;
            }
        }
        // clyde-lint: allow(unordered, reason=sorted on the next line)
        let mut hosts: Vec<(NodeId, u64)> = counts.into_iter().collect();
        hosts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(hosts.into_iter().map(|(n, _)| n).collect())
    }

    /// Nodes holding replicas of **every** block of **every** listed file —
    /// the set of nodes that can scan all the files fully locally. This is
    /// what CIF's co-locating placement guarantees is non-empty for the
    /// column files of a row group.
    pub fn common_hosts(&self, paths: &[String]) -> Result<Vec<NodeId>> {
        let state = self.state.read();
        let mut common: Option<Vec<NodeId>> = None;
        for path in paths {
            let entry = state.namenode.file(path)?;
            for &b in &entry.blocks {
                let meta = state.namenode.block(b)?;
                common = Some(match common {
                    None => meta.replicas.clone(),
                    Some(prev) => prev
                        .into_iter()
                        .filter(|n| meta.replicas.contains(n))
                        .collect(),
                });
            }
        }
        Ok(common.unwrap_or_default())
    }

    /// Report the length and fully-local hosts of every file under
    /// `prefix`, in path order, from one pass over the namespace under one
    /// lock — what a planner needs to place and size the splits of a whole
    /// table without a `file_len`/`common_hosts` round trip (and a path
    /// string) per file. `visit` runs under the namespace lock: it must
    /// only record what it is shown, never call back into this `Dfs`.
    pub fn locate_prefix(
        &self,
        prefix: &str,
        mut visit: impl FnMut(FileLocation<'_>),
    ) -> Result<()> {
        self.namespace_walks.fetch_add(1, Ordering::Relaxed);
        let state = self.state.read();
        let mut common: Vec<NodeId> = Vec::new();
        for entry in state.namenode.files_with_prefix(prefix) {
            let hosts = match entry.blocks.as_slice() {
                [] => &[],
                // The common case borrows the block's replica list as is.
                &[only] => state.namenode.block(only)?.replicas.as_slice(),
                [first, rest @ ..] => {
                    common.clone_from(&state.namenode.block(*first)?.replicas);
                    for &b in rest {
                        let replicas = &state.namenode.block(b)?.replicas;
                        common.retain(|n| replicas.contains(n));
                    }
                    common.as_slice()
                }
            };
            visit(FileLocation {
                path: &entry.path,
                len: entry.len,
                hosts,
                blocks: &entry.blocks,
            });
        }
        Ok(())
    }

    /// How many changes the namespace has seen: every file commit, block
    /// allocation, delete and replica-set change (re-replication, corruption
    /// injection) advances it; reads never do. Liveness is not namespace: a
    /// dead node's replicas stay listed until re-replication drops them.
    pub fn namespace_epoch(&self) -> u64 {
        self.state.read().namenode.epoch()
    }

    /// The location fold of table `key` at namespace epoch `epoch`, built by
    /// `build` at most once per (key, epoch): while the namespace does not
    /// change, every later call gets the kept fold back without walking it.
    ///
    /// `epoch` is the caller's [`Dfs::namespace_epoch`] from *before* it
    /// read what `build` depends on (a table's metadata file). If the
    /// namespace has moved on since, that read may be of a later epoch than
    /// `epoch`, so nothing is served or kept and the result is `None`: read
    /// again and retry. `build` runs with no lock held (it may call
    /// [`Dfs::locate_prefix`]); its fold is kept only if the epoch is still
    /// `epoch` afterwards, and keeping it drops every fold of an older one.
    pub fn table_locations(
        &self,
        key: &str,
        epoch: u64,
        build: impl FnOnce() -> Result<Vec<GroupFiles>>,
    ) -> Result<Option<Arc<[GroupFiles]>>> {
        {
            let state = self.state.read();
            if state.namenode.epoch() != epoch {
                return Ok(None);
            }
            if let Some((built, groups)) = state.tables.get(key) {
                if *built == epoch {
                    return Ok(Some(Arc::clone(groups)));
                }
            }
        }
        let groups: Arc<[GroupFiles]> = build()?.into();
        let mut state = self.state.write();
        if state.namenode.epoch() != epoch {
            return Ok(None);
        }
        state.tables.retain(|_, (built, _)| *built == epoch);
        state
            .tables
            .insert(key.to_string(), (epoch, Arc::clone(&groups)));
        Ok(Some(groups))
    }

    /// Simulate the failure of a node: its replicas are lost. A node that
    /// is not in the cluster is a typed error.
    pub fn kill_node(&self, node: NodeId) -> Result<()> {
        self.with_datanode(node, Datanode::kill)
    }

    /// Restart a failed node (it comes back empty). A node that is not in
    /// the cluster is a typed error.
    pub fn restart_node(&self, node: NodeId) -> Result<()> {
        self.with_datanode(node, Datanode::restart)
    }

    fn with_datanode(&self, node: NodeId, f: impl FnOnce(&mut Datanode)) -> Result<()> {
        let mut state = self.state.write();
        let n = state.datanodes.len();
        let dn = state.datanodes.get_mut(node.0).ok_or_else(|| {
            ClydeError::Dfs(format!("node {node} is not in this {n}-node cluster"))
        })?;
        f(dn);
        Ok(())
    }

    /// Whether `node` is currently serving (heartbeating, in Hadoop terms).
    pub fn is_node_alive(&self, node: NodeId) -> bool {
        let state = self.state.read();
        state.datanodes.get(node.0).is_some_and(Datanode::is_alive)
    }

    /// Deterministically corrupt up to `count` block replicas (fault
    /// injection). Only blocks with at least two live replicas are eligible,
    /// so a corrupted replica always has a clean sibling and checksum
    /// verification plus replica fallback can mask it. The victim is always
    /// the block's *first* live replica — the placement-preferred copy a
    /// locality-scheduled reader fetches — so the corruption is guaranteed to
    /// sit on a read path rather than rotting unread. Victim blocks are
    /// chosen by hashing `seed`, so the same seed always rots the same bytes.
    /// Returns how many replicas were actually corrupted.
    pub fn inject_corruption(&self, seed: u64, count: u32) -> usize {
        if count == 0 {
            return 0;
        }
        let mut state = self.state.write();
        let State {
            namenode,
            datanodes,
            ..
        } = &mut *state;
        let mut candidates: Vec<(u64, BlockId, usize)> = Vec::new();
        for meta in namenode.all_blocks_mut() {
            if meta.len == 0 {
                continue;
            }
            let mut live = meta
                .replicas
                .iter()
                .filter(|r| datanodes.get(r.0).is_some_and(|d| d.has(meta.id)));
            let (Some(first), Some(_)) = (live.next(), live.next()) else {
                continue;
            };
            let h = hash::mix(seed ^ hash::mix(meta.id.0));
            candidates.push((h, meta.id, first.0));
        }
        candidates.sort_by_key(|&(h, id, _)| (h, id));
        let mut corrupted = 0usize;
        for (_, id, victim) in candidates.into_iter().take(count as usize) {
            if datanodes.get_mut(victim).is_some_and(|d| d.corrupt(id)) {
                corrupted += 1;
            }
        }
        corrupted
    }

    /// Restore full replication after failures by copying blocks from
    /// surviving replicas onto alive nodes, preferring the policy's original
    /// choice. Returns the number of new replicas created.
    pub fn rereplicate(&self) -> Result<usize> {
        let mut state = self.state.write();
        let n = state.datanodes.len();
        let alive: Vec<NodeId> = Self::alive_nodes(&state);
        if alive.is_empty() {
            return Err(ClydeError::Dfs("no alive datanodes".into()));
        }
        let mut created = 0usize;
        // Collect the work under the namenode first to satisfy borrowck.
        let mut work: Vec<(BlockId, Vec<NodeId>, u64)> = Vec::new();
        for meta in state.namenode.all_blocks_mut() {
            work.push((meta.id, meta.replicas.clone(), meta.checksum));
        }
        for (id, replicas, checksum) in work {
            // Only checksum-clean survivors may act as sources — copying an
            // unverified replica would propagate corruption cluster-wide.
            let live_replicas: Vec<NodeId> = replicas
                .iter()
                .copied()
                .filter(|r| {
                    state
                        .datanodes
                        .get(r.0)
                        .and_then(|dn| dn.get(id))
                        .is_some_and(|d| block_checksum(&d) == checksum)
                })
                .collect();
            let Some(&source) = live_replicas.first() else {
                continue; // data lost; read_file will surface the error
            };
            // Scrub: drop replicas that exist but fail verification.
            for &r in &replicas {
                if live_replicas.contains(&r) {
                    continue;
                }
                if let Some(dn) = state.datanodes.get_mut(r.0) {
                    if dn.has(id) {
                        dn.free(id);
                    }
                }
            }
            let want = (self.replication as usize).min(alive.len());
            let mut new_replicas = live_replicas.clone();
            let mut cursor = 0usize;
            while new_replicas.len() < want && cursor < n {
                let cand = NodeId((source.0 + cursor) % n);
                cursor += 1;
                let cand_alive = state.datanodes.get(cand.0).is_some_and(Datanode::is_alive);
                if !cand_alive || new_replicas.contains(&cand) {
                    continue;
                }
                let data = state
                    .datanodes
                    .get(source.0)
                    .and_then(|dn| dn.get(id))
                    .ok_or_else(|| ClydeError::Dfs("replica vanished".into()))?;
                self.metrics.record_write(cand, data.len() as u64)?;
                let Some(dest) = state.datanodes.get_mut(cand.0) else {
                    continue; // cand is in-range by construction; stay total
                };
                dest.store(id, data);
                new_replicas.push(cand);
                created += 1;
            }
            state.namenode.block_mut(id)?.replicas = new_replicas;
        }
        Ok(created)
    }

    /// Per-node count of replicas remembered as checksum-verified (test
    /// assertions: whatever stores, moves or damages a replica leaves it
    /// unverified until its next read).
    pub fn verified_replicas_per_node(&self) -> Vec<usize> {
        self.state
            .read()
            .datanodes
            .iter()
            .map(Datanode::verified_replicas)
            .collect()
    }

    /// Per-node count of replicas remembered as sealed: single-block files
    /// whose seal a [`Span::Sealed`] read found matching on *these
    /// bytes* (test assertions, like [`Dfs::verified_replicas_per_node`]).
    pub fn sealed_replicas_per_node(&self) -> Vec<usize> {
        self.state
            .read()
            .datanodes
            .iter()
            .map(Datanode::sealed_replicas)
            .collect()
    }

    /// Seals hashed by sealed reads so far (test assertions: a read of a
    /// sealed replica adds none).
    pub fn seal_checks(&self) -> u64 {
        self.seal_checks.load(Ordering::Relaxed)
    }

    /// Namespace walks ([`Dfs::locate_prefix`] calls) so far (test
    /// assertions: planning a table again at an unchanged epoch adds none).
    pub fn namespace_walks(&self) -> u64 {
        self.namespace_walks.load(Ordering::Relaxed)
    }

    /// Path lookups by the read side so far — one per path-keyed `read_*`
    /// call (test assertions: a read through a resolved file adds none).
    pub fn path_lookups(&self) -> u64 {
        self.path_lookups.load(Ordering::Relaxed)
    }

    /// Per-node used bytes (capacity accounting / test assertions).
    pub fn used_bytes_per_node(&self) -> Vec<u64> {
        self.state
            .read()
            .datanodes
            .iter()
            .map(Datanode::used_bytes)
            .collect()
    }
}

/// Streaming writer returned by [`Dfs::create`]. Buffers to the block size,
/// placing and replicating each block as it fills.
pub struct DfsWriter {
    dfs: Arc<Dfs>,
    path: String,
    group: Option<String>,
    writer_node: Option<NodeId>,
    buf: Vec<u8>,
    blocks: Vec<BlockId>,
    total_len: u64,
    closed: bool,
}

impl DfsWriter {
    /// Buffer `data`, placing every block it fills; a block that cannot be
    /// placed (no alive datanode) is a typed error.
    pub fn write_all(&mut self, data: &[u8]) -> Result<()> {
        debug_assert!(!self.closed, "write after close");
        self.buf.extend_from_slice(data);
        self.total_len += data.len() as u64;
        while self.buf.len() as u64 >= self.dfs.block_size {
            let rest = self.buf.split_off(self.dfs.block_size as usize);
            let full = std::mem::replace(&mut self.buf, rest);
            self.flush_block(full)?;
        }
        Ok(())
    }

    fn flush_block(&mut self, data: Vec<u8>) -> Result<()> {
        let idx = self.blocks.len();
        let id = self.dfs.store_block(
            &self.path,
            self.group.as_deref(),
            idx,
            Bytes::from(data),
            self.writer_node,
        )?;
        self.blocks.push(id);
        Ok(())
    }

    /// Finalize the file in the namespace.
    pub fn close(mut self) -> Result<()> {
        self.closed = true;
        if !self.buf.is_empty() || self.blocks.is_empty() {
            let data = std::mem::take(&mut self.buf);
            self.flush_block(data)?;
        }
        let entry = FileEntry {
            path: self.path.clone(),
            len: self.total_len,
            blocks: std::mem::take(&mut self.blocks),
            group: self.group.clone(),
        };
        self.dfs.state.write().namenode.commit_file(entry)
    }

    pub fn bytes_written(&self) -> u64 {
        self.total_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ColocatingPlacement;

    fn small_dfs(nodes: usize, replication: u32, block_size: u64) -> Arc<Dfs> {
        Dfs::new(
            ClusterSpec::tiny(nodes),
            DfsOptions {
                block_size,
                replication,
                policy: Box::new(DefaultPlacement),
            },
        )
    }

    #[test]
    fn write_read_roundtrip_single_block() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.write_file("/a", None, b"hello world").unwrap();
        assert_eq!(&dfs.read_file("/a", None).unwrap()[..], b"hello world");
        assert_eq!(dfs.file_len("/a").unwrap(), 11);
        let st = dfs.status("/a").unwrap();
        assert_eq!(st.num_blocks, 1);
    }

    #[test]
    fn write_read_roundtrip_multi_block() {
        let dfs = small_dfs(3, 2, 16);
        let data: Vec<u8> = (0..100u8).collect();
        dfs.write_file("/big", None, &data).unwrap();
        assert_eq!(&dfs.read_file("/big", None).unwrap()[..], &data[..]);
        let st = dfs.status("/big").unwrap();
        assert_eq!(st.num_blocks, 7); // ceil(100/16)
    }

    #[test]
    fn empty_file_roundtrip() {
        let dfs = small_dfs(2, 1, 16);
        dfs.write_file("/empty", None, b"").unwrap();
        assert_eq!(dfs.read_file("/empty", None).unwrap().len(), 0);
        assert_eq!(dfs.status("/empty").unwrap().num_blocks, 1);
    }

    #[test]
    fn a_read_by_a_node_outside_the_cluster_is_a_dfs_error() {
        let dfs = small_dfs(3, 2, 16);
        dfs.write_file("/a", None, b"hello").unwrap();
        dfs.write_file("/big", None, &[7u8; 40]).unwrap();
        let outside = Some(NodeId(3));
        for read in [
            dfs.read_file("/a", outside),
            dfs.read_file("/big", outside),
            dfs.read(
                "/big",
                Span::Range {
                    offset: 10,
                    len: 20,
                },
                outside,
                None,
            ),
        ] {
            assert!(matches!(read, Err(ClydeError::Dfs(_))), "{read:?}");
        }
        assert_eq!(dfs.metrics().total_read(), 0, "nothing was counted");
    }

    fn cache_entry(fp: u64, out: &str, bytes: u64, inputs: &[&str]) -> CacheEntry {
        CacheEntry {
            fingerprint: fp,
            output_paths: vec![out.to_string()],
            bytes,
            memory_rows: None,
            input_paths: inputs.iter().map(|s| s.to_string()).collect(),
            last_used: 0,
        }
    }

    #[test]
    fn delete_hook_invalidates_and_cascades() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.cache_configure(1 << 20);
        dfs.write_file("/fact/p0", None, &[1u8; 64]).unwrap();
        dfs.write_file("/cache/a/rows.bin", None, &[2u8; 32])
            .unwrap();
        dfs.write_file("/cache/b/rows.bin", None, &[3u8; 32])
            .unwrap();
        dfs.cache_insert(cache_entry(0xa, "/cache/a/rows.bin", 32, &["/fact/p0"]))
            .unwrap();
        // Entry b consumed a's cached output (a chained stage).
        dfs.cache_insert(cache_entry(
            0xb,
            "/cache/b/rows.bin",
            32,
            &["/cache/a/rows.bin"],
        ))
        .unwrap();
        assert!(dfs.cache_lookup(0xa).is_some());
        // Rolling out the fact partition invalidates a, deletes its cached
        // file, and cascades to b which consumed it.
        dfs.delete("/fact/p0").unwrap();
        assert!(dfs.cache_lookup(0xa).is_none());
        assert!(dfs.cache_lookup(0xb).is_none());
        assert!(!dfs.exists("/cache/a/rows.bin"));
        assert!(!dfs.exists("/cache/b/rows.bin"));
        let s = dfs.cache_stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.bytes_stored, 0);
    }

    #[test]
    fn cache_eviction_deletes_backing_files() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.cache_configure(64);
        dfs.write_file("/cache/a/rows.bin", None, &[1u8; 40])
            .unwrap();
        dfs.cache_insert(cache_entry(0xa, "/cache/a/rows.bin", 40, &[]))
            .unwrap();
        dfs.write_file("/cache/b/rows.bin", None, &[2u8; 40])
            .unwrap();
        dfs.cache_insert(cache_entry(0xb, "/cache/b/rows.bin", 40, &[]))
            .unwrap();
        assert!(!dfs.exists("/cache/a/rows.bin"));
        assert!(dfs.exists("/cache/b/rows.bin"));
        assert_eq!(dfs.cache_stats().evictions, 1);
        assert_eq!(dfs.cache_stats().entries, 1);
    }

    #[test]
    fn range_reads() {
        let dfs = small_dfs(3, 1, 8);
        let data: Vec<u8> = (0..64u8).collect();
        dfs.write_file("/r", None, &data).unwrap();
        assert_eq!(
            &dfs.read("/r", Span::Range { offset: 0, len: 8 }, None, None)
                .unwrap()[..],
            &data[0..8]
        );
        assert_eq!(
            &dfs.read("/r", Span::Range { offset: 5, len: 20 }, None, None)
                .unwrap()[..],
            &data[5..25]
        );
        assert_eq!(
            &dfs.read("/r", Span::Range { offset: 60, len: 4 }, None, None)
                .unwrap()[..],
            &data[60..64]
        );
        assert!(dfs
            .read("/r", Span::Range { offset: 60, len: 5 }, None, None)
            .is_err());
    }

    #[test]
    fn prefix_reads_are_clamped_range_reads() {
        let dfs = small_dfs(3, 1, 8);
        let data: Vec<u8> = (0..20u8).collect();
        dfs.write_file("/r", None, &data).unwrap();
        dfs.write_file("/empty", None, &[]).unwrap();
        for (path, max) in [("/r", 5), ("/r", 8), ("/r", 20), ("/r", 33), ("/empty", 33)] {
            let (by_prefix, by_range) = (ScanStats::new(), ScanStats::new());
            let len = dfs.file_len(path).unwrap().min(max);
            let prefix = dfs.read(path, Span::Prefix(max), None, Some(&by_prefix));
            let range = dfs.read(path, Span::Range { offset: 0, len }, None, Some(&by_range));
            assert_eq!(prefix.unwrap(), range.unwrap(), "{path} {max}");
            assert_eq!(by_prefix.total(), by_range.total(), "{path} {max}");
        }
        assert!(dfs.read("/missing", Span::Prefix(8), None, None).is_err());
    }

    #[test]
    fn replication_places_distinct_nodes() {
        let dfs = small_dfs(4, 3, 1024);
        dfs.write_file("/f", None, &[7u8; 100]).unwrap();
        let used = dfs.used_bytes_per_node();
        let holders = used.iter().filter(|&&b| b > 0).count();
        assert_eq!(holders, 3);
        assert_eq!(used.iter().sum::<u64>(), 300);
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let dfs = small_dfs(2, 3, 1024);
        assert_eq!(dfs.replication(), 2);
        dfs.write_file("/f", None, &[1u8; 10]).unwrap();
        assert_eq!(dfs.used_bytes_per_node().iter().sum::<u64>(), 20);
    }

    #[test]
    fn local_reads_are_counted_local() {
        let dfs = small_dfs(3, 3, 1024); // replication 3 = everywhere
        dfs.write_file("/f", None, &[1u8; 50]).unwrap();
        dfs.reset_metrics();
        dfs.read_file("/f", Some(NodeId(1))).unwrap();
        let m = dfs.metrics();
        assert_eq!(m.total_local_read(), 50);
        assert_eq!(m.total_remote_read(), 0);
        assert_eq!(m.locality_ratio(), 1.0);
    }

    #[test]
    fn remote_reads_are_counted_remote() {
        let dfs = small_dfs(4, 1, 1024);
        dfs.write_file("/f", None, &[1u8; 50]).unwrap();
        let holder = dfs.hosts("/f").unwrap()[0];
        let other = NodeId((holder.0 + 1) % 4);
        dfs.reset_metrics();
        dfs.read_file("/f", Some(other)).unwrap();
        let m = dfs.metrics();
        assert_eq!(m.total_remote_read(), 50);
        assert_eq!(m.total_local_read(), 0);
    }

    #[test]
    fn files_are_write_once_and_deletable() {
        let dfs = small_dfs(2, 1, 1024);
        dfs.write_file("/f", None, b"x").unwrap();
        assert!(dfs.write_file("/f", None, b"y").is_err());
        dfs.delete("/f").unwrap();
        assert!(!dfs.exists("/f"));
        assert_eq!(dfs.used_bytes_per_node().iter().sum::<u64>(), 0);
        dfs.write_file("/f", None, b"y").unwrap(); // path reusable after delete
    }

    #[test]
    fn colocating_policy_yields_common_hosts() {
        let dfs = Dfs::new(
            ClusterSpec::tiny(6),
            DfsOptions {
                block_size: 8,
                replication: 3,
                policy: Box::new(ColocatingPlacement),
            },
        );
        let files: Vec<String> = (0..4).map(|i| format!("/fact/rg3/col{i}.col")).collect();
        for f in &files {
            dfs.write_file(f, Some("/fact/rg3".into()), &[0u8; 100])
                .unwrap();
        }
        let common = dfs.common_hosts(&files).unwrap();
        assert_eq!(common.len(), 3, "all column files share all 3 replicas");
    }

    #[test]
    fn default_policy_rarely_colocates_multiblock_column_files() {
        let dfs = Dfs::new(
            ClusterSpec::tiny(8),
            DfsOptions {
                block_size: 8,
                replication: 2,
                policy: Box::new(DefaultPlacement),
            },
        );
        let files: Vec<String> = (0..6).map(|i| format!("/fact/rg0/col{i}.col")).collect();
        for f in &files {
            dfs.write_file(f, Some("/fact/rg0".into()), &[0u8; 64])
                .unwrap();
        }
        let common = dfs.common_hosts(&files).unwrap();
        // 6 files × 8 blocks placed independently on 8 nodes: the chance of a
        // common host is negligible. (Deterministic: this asserts the actual
        // hash outcome, which is stable.)
        assert!(common.is_empty());
    }

    #[test]
    fn node_failure_falls_back_to_surviving_replica() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.write_file("/f", None, &[9u8; 30]).unwrap();
        let hosts = dfs.hosts("/f").unwrap();
        dfs.kill_node(hosts[0]).unwrap();
        assert_eq!(&dfs.read_file("/f", None).unwrap()[..], &[9u8; 30]);
    }

    #[test]
    fn losing_all_replicas_is_an_error_until_rereplicated() {
        let dfs = small_dfs(4, 2, 1024);
        dfs.write_file("/f", None, &[9u8; 30]).unwrap();
        let hosts = dfs.hosts("/f").unwrap();
        assert_eq!(hosts.len(), 2);
        dfs.kill_node(hosts[0]).unwrap();
        // Re-replicate from the survivor, then kill the survivor: the data
        // must still be readable from the new replica.
        let created = dfs.rereplicate().unwrap();
        assert!(created >= 1);
        dfs.kill_node(hosts[1]).unwrap();
        assert_eq!(&dfs.read_file("/f", None).unwrap()[..], &[9u8; 30]);
    }

    #[test]
    fn data_is_lost_when_every_replica_dies() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.write_file("/f", None, &[9u8; 30]).unwrap();
        for h in dfs.hosts("/f").unwrap() {
            dfs.kill_node(h).unwrap();
        }
        assert!(dfs.read_file("/f", None).is_err());
    }

    #[test]
    fn writes_after_failure_avoid_dead_nodes() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.kill_node(NodeId(0)).unwrap();
        dfs.write_file("/f", None, &[1u8; 10]).unwrap();
        let hosts = dfs.hosts("/f").unwrap();
        assert!(!hosts.contains(&NodeId(0)));
        assert_eq!(hosts.len(), 2);
    }

    #[test]
    fn list_and_hosts() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.write_file("/d/a", None, b"1").unwrap();
        dfs.write_file("/d/b", None, b"2").unwrap();
        dfs.write_file("/e/c", None, b"3").unwrap();
        assert_eq!(dfs.list("/d/"), vec!["/d/a", "/d/b"]);
        assert_eq!(dfs.hosts("/d/a").unwrap().len(), 2);
        assert!(dfs.hosts("/nope").is_err());
    }

    #[test]
    fn corruption_is_masked_by_checksum_fallback() {
        let dfs = small_dfs(3, 2, 1024);
        let data = vec![42u8; 100];
        dfs.write_file("/f", None, &data).unwrap();
        assert_eq!(dfs.inject_corruption(46, 1), 1);
        // Every node — including the one holding the rotten replica — still
        // reads the original bytes, because the checksum rejects the bad
        // copy and the read falls through to a clean sibling.
        dfs.reset_metrics();
        for n in 0..3 {
            assert_eq!(
                &dfs.read_file("/f", Some(NodeId(n))).unwrap()[..],
                &data[..]
            );
        }
        assert!(
            dfs.metrics().total_corrupt_reads() >= 1,
            "the victim's local read must have tripped verification"
        );
    }

    #[test]
    fn corruption_with_no_clean_sibling_is_unreadable() {
        let dfs = small_dfs(3, 2, 1024);
        let data = vec![7u8; 64];
        dfs.write_file("/f", None, &data).unwrap();
        assert_eq!(dfs.inject_corruption(46, 1), 1);
        // Identify the victim: its local read bumps the corrupt counter.
        let victim = (0..3)
            .find(|&n| {
                let before = dfs.metrics().total_corrupt_reads();
                let _ = dfs.read_file("/f", Some(NodeId(n)));
                dfs.metrics().total_corrupt_reads() > before
            })
            .expect("one node holds the corrupted replica");
        // Kill every clean holder; only the corrupt copy remains.
        for h in dfs.hosts("/f").unwrap() {
            if h.0 != victim {
                dfs.kill_node(h).unwrap();
            }
        }
        let err = dfs.read_file("/f", Some(NodeId(victim))).unwrap_err();
        assert!(err.to_string().contains("unavailable or corrupt"), "{err}");
    }

    #[test]
    fn rereplicate_heals_corruption_without_propagating_it() {
        let dfs = small_dfs(4, 2, 1024);
        let data = vec![13u8; 200];
        dfs.write_file("/f", None, &data).unwrap();
        assert_eq!(dfs.inject_corruption(46, 1), 1);
        // The scrub drops the rotten replica and restores replication from a
        // verified source.
        assert!(dfs.rereplicate().unwrap() >= 1);
        dfs.reset_metrics();
        for n in 0..4 {
            assert_eq!(
                &dfs.read_file("/f", Some(NodeId(n))).unwrap()[..],
                &data[..]
            );
        }
        assert_eq!(
            dfs.metrics().total_corrupt_reads(),
            0,
            "no corrupt replica may survive a rereplication pass"
        );
    }

    #[test]
    fn node_liveness_is_observable() {
        let dfs = small_dfs(2, 1, 1024);
        assert!(dfs.is_node_alive(NodeId(0)));
        dfs.kill_node(NodeId(0)).unwrap();
        assert!(!dfs.is_node_alive(NodeId(0)));
        assert!(dfs.is_node_alive(NodeId(1)));
        assert!(!dfs.is_node_alive(NodeId(7)));
        dfs.restart_node(NodeId(0)).unwrap();
        assert!(dfs.is_node_alive(NodeId(0)));
    }

    #[test]
    fn reads_and_replica_flags_leave_the_epoch_alone() {
        let dfs = small_dfs(3, 2, 16);
        dfs.write_file("/a", None, b"hello").unwrap();
        dfs.write_file("/big", None, &[7u8; 40]).unwrap();
        let mut sealed = b"body".to_vec();
        hash::seal(&mut sealed);
        dfs.write_file("/s", None, &sealed).unwrap();
        let epoch = dfs.namespace_epoch();
        for n in 0..3 {
            dfs.read_file("/a", Some(NodeId(n))).unwrap();
            dfs.read(
                "/big",
                Span::Range { offset: 3, len: 20 },
                Some(NodeId(n)),
                None,
            )
            .unwrap();
            dfs.read("/s", Span::Sealed, Some(NodeId(n)), None).unwrap();
        }
        assert!(dfs.verified_replicas_per_node().iter().sum::<usize>() > 0);
        assert!(dfs.sealed_replicas_per_node().iter().sum::<usize>() > 0);
        dfs.locate_prefix("/", |_| {}).unwrap();
        let _ = (dfs.hosts("/a"), dfs.status("/big"), dfs.list("/"));
        assert_eq!(dfs.namespace_epoch(), epoch);
        dfs.write_file("/b", None, b"x").unwrap();
        assert!(dfs.namespace_epoch() > epoch);
    }

    #[test]
    fn a_table_fold_is_built_once_per_epoch() {
        let dfs = small_dfs(3, 2, 1024);
        dfs.write_file("/t/rg0", None, b"abc").unwrap();
        let builds = std::cell::Cell::new(0);
        let fold = |dfs: &Dfs, epoch| {
            dfs.table_locations("/t", epoch, || {
                builds.set(builds.get() + 1);
                let mut groups = Vec::new();
                dfs.locate_prefix("/t/", |f| {
                    groups.push(GroupFiles {
                        hosts: f.hosts.to_vec(),
                        files: vec![f.resolved()],
                    })
                })?;
                Ok(groups)
            })
        };
        let epoch = dfs.namespace_epoch();
        let first = fold(&dfs, epoch).unwrap().unwrap();
        let again = fold(&dfs, epoch).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((builds.get(), dfs.namespace_walks()), (1, 1));
        // A change makes the caller's epoch stale, and the next epoch's fold
        // sees the change.
        dfs.write_file("/t/rg1", None, b"de").unwrap();
        assert!(fold(&dfs, epoch).unwrap().is_none());
        let now = fold(&dfs, dfs.namespace_epoch()).unwrap().unwrap();
        assert_eq!(
            now.iter().map(|g| g.files[0].len).collect::<Vec<_>>(),
            [3, 2]
        );
        assert_eq!(builds.get(), 2);
        // A fold the namespace moves past while it is built is not kept.
        let epoch = dfs.namespace_epoch();
        let raced = dfs.table_locations("/u", epoch, || {
            dfs.write_file("/t/rg2", None, b"f")?;
            Ok(Vec::new())
        });
        assert!(raced.unwrap().is_none());
        assert!(fold(&dfs, dfs.namespace_epoch()).unwrap().is_some());
        assert_eq!(builds.get(), 3);
    }

    #[test]
    fn a_resolved_read_is_the_path_keyed_read_without_its_lookup() {
        let dfs = small_dfs(3, 2, 16);
        let mut sealed = (0..40u8).collect::<Vec<_>>();
        hash::seal(&mut sealed);
        dfs.write_file("/one", None, &sealed[..20]).unwrap();
        dfs.write_file("/multi", None, &sealed).unwrap();
        let mut one = sealed[..12].to_vec();
        hash::seal(&mut one);
        dfs.write_file("/sealed", None, &one).unwrap();
        let resolve = |path: &str| {
            let mut found = Vec::new();
            dfs.locate_prefix(path, |f| found.push(f.resolved()))
                .unwrap();
            found.into_iter().find(|f| f.path == path).unwrap()
        };
        for path in ["/one", "/multi", "/sealed"] {
            let file = resolve(path);
            assert_eq!(file.len, dfs.file_len(path).unwrap());
            for node in [None, Some(NodeId(0)), Some(NodeId(2))] {
                let (by_path, resolved) = (ScanStats::new(), ScanStats::new());
                let lookups = dfs.path_lookups();
                let want = dfs.read(path, Span::Prefix(30), node, Some(&by_path));
                assert_eq!(dfs.path_lookups(), lookups + 1);
                let got = dfs.read_resolved(&file, Span::Prefix(30), node, Some(&resolved));
                assert_eq!(dfs.path_lookups(), lookups + 1, "no lookup");
                assert_eq!(got.unwrap(), want.unwrap(), "{path}");
                let want = dfs.read(path, Span::Sealed, node, Some(&by_path));
                let got = dfs.read_resolved(&file, Span::Sealed, node, Some(&resolved));
                assert_eq!(
                    got.map_err(|e| e.to_string()),
                    want.map_err(|e| e.to_string())
                );
                assert_eq!(
                    (resolved.local(), resolved.remote()),
                    (by_path.local(), by_path.remote()),
                    "{path}"
                );
            }
        }
        // Deleted after it was resolved: a typed error naming the path.
        let file = resolve("/multi");
        dfs.delete("/multi").unwrap();
        dfs.write_file("/multi", None, b"another file").unwrap();
        for read in [
            dfs.read_resolved(&file, Span::Sealed, Some(NodeId(0)), None),
            dfs.read_resolved(&file, Span::Prefix(8), Some(NodeId(0)), None),
        ] {
            assert!(
                matches!(&read, Err(ClydeError::Dfs(m)) if m.contains("/multi")),
                "{read:?}"
            );
        }
    }

    #[test]
    fn streaming_writer_matches_one_shot() {
        let dfs = small_dfs(3, 1, 10);
        let mut w = dfs.create("/s", None, None).unwrap();
        for chunk in (0..50u8).collect::<Vec<_>>().chunks(7) {
            w.write_all(chunk).unwrap();
        }
        assert_eq!(w.bytes_written(), 50);
        w.close().unwrap();
        let expect: Vec<u8> = (0..50u8).collect();
        assert_eq!(&dfs.read_file("/s", None).unwrap()[..], &expect[..]);
        assert_eq!(dfs.status("/s").unwrap().num_blocks, 5);
    }
}
