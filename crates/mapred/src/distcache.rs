//! The distributed cache.
//!
//! Hive's mapjoin plan (paper Section 6.1, Figure 6) builds a hash table on
//! the master, serializes and compresses it, and disseminates it through
//! Hadoop's distributed cache: the artifact is copied into HDFS, then each
//! node copies it to local storage **once per job** regardless of how many
//! map slots the node runs. Each map *task* still has to read and
//! deserialize it separately — the per-task reload the paper measures 4,887
//! repetitions of in Q2.1's first stage.
//!
//! This module reproduces those mechanics: publish once, per-node fetch
//! tracked for the dissemination cost, per-task loads left to the caller
//! (they are CPU, not cache, costs).

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the distributed cache's per-node copies: one lock held for a \
                single lookup or insert"
)]

use bytes::Bytes;
use clyde_common::lockorder::Mutex;
use clyde_common::{ClydeError, FxHashMap, FxHashSet, Result};
use clyde_dfs::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// A per-job broadcast channel from the job client to every node.
#[derive(Default)]
pub struct DistCache {
    entries: Mutex<FxHashMap<String, Bytes>>,
    /// (key, node) pairs that have already paid the copy-to-local cost.
    fetched: Mutex<FxHashSet<(String, usize)>>,
    /// Total bytes that crossed the network to nodes (dissemination cost).
    disseminated: AtomicU64,
}

impl DistCache {
    pub fn new() -> DistCache {
        DistCache::default()
    }

    /// Publish an artifact from the job client (Hive master).
    pub fn publish(&self, key: impl Into<String>, data: Bytes) {
        self.entries.lock().insert(key.into(), data);
    }

    /// Fetch an artifact on `node`. The first fetch per (key, node) counts
    /// toward dissemination; later fetches are free local reads, mirroring
    /// the once-per-node copy semantics.
    pub fn fetch(&self, node: NodeId, key: &str) -> Result<Bytes> {
        let data = self
            .entries
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| ClydeError::MapReduce(format!("distributed cache miss: {key}")))?;
        let first = self.fetched.lock().insert((key.to_string(), node.0));
        if first {
            self.disseminated
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Ok(data)
    }

    /// Total bytes copied to nodes so far.
    pub fn disseminated_bytes(&self) -> u64 {
        self.disseminated.load(Ordering::Relaxed)
    }

    /// Number of published artifacts.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_fetch_roundtrip() {
        let c = DistCache::new();
        c.publish("ht", Bytes::from_static(b"table"));
        assert_eq!(
            c.fetch(NodeId(0), "ht").unwrap(),
            Bytes::from_static(b"table")
        );
        assert!(c.fetch(NodeId(0), "missing").is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dissemination_counts_once_per_node() {
        let c = DistCache::new();
        c.publish("ht", Bytes::from_static(b"12345"));
        // Node 0 fetches 3 times (3 map tasks), node 1 once.
        c.fetch(NodeId(0), "ht").unwrap();
        c.fetch(NodeId(0), "ht").unwrap();
        c.fetch(NodeId(0), "ht").unwrap();
        c.fetch(NodeId(1), "ht").unwrap();
        assert_eq!(c.disseminated_bytes(), 10); // 5 bytes × 2 nodes
    }

    #[test]
    fn distinct_keys_tracked_separately() {
        let c = DistCache::new();
        c.publish("a", Bytes::from_static(b"xx"));
        c.publish("b", Bytes::from_static(b"yyy"));
        c.fetch(NodeId(0), "a").unwrap();
        c.fetch(NodeId(0), "b").unwrap();
        assert_eq!(c.disseminated_bytes(), 5);
    }
}
