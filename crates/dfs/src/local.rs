//! Per-node local storage.
//!
//! Clydesdale (paper Section 4, Figure 2) keeps a master copy of the
//! dimension tables in HDFS and **caches them on the local disk of every
//! node**; map tasks build their hash tables from the local copy, and a node
//! that lost its cache (new node, disk failure) re-copies from HDFS. This
//! module is that local disk: a per-node keyed byte store with read
//! accounting, plus the fetch-through-DFS repair path.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the node-local disks: one lock per node, held for a single \
                lookup or insert"
)]

use crate::dfs::Dfs;
use crate::topology::NodeId;
use bytes::Bytes;
use clyde_common::lockorder::Mutex;
use clyde_common::{ClydeError, FxHashMap, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// Local (non-replicated) storage for each node of a cluster.
pub struct NodeLocalStore {
    nodes: Vec<Mutex<FxHashMap<String, Bytes>>>,
    /// Bytes read from local store, per node (feeds the cost model).
    read_bytes: Vec<AtomicU64>,
}

impl NodeLocalStore {
    pub fn new(num_nodes: usize) -> NodeLocalStore {
        NodeLocalStore {
            nodes: (0..num_nodes)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            read_bytes: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// `node`'s disk, or a [`ClydeError::Dfs`] naming a node outside the
    /// cluster.
    fn disk(&self, node: NodeId) -> Result<&Mutex<FxHashMap<String, Bytes>>> {
        self.nodes.get(node.0).ok_or_else(|| {
            ClydeError::Dfs(format!(
                "node {} is outside the {}-node cluster's local stores",
                node.0,
                self.nodes.len()
            ))
        })
    }

    /// Store `data` under `key` on `node`'s local disk.
    pub fn put(&self, node: NodeId, key: impl Into<String>, data: Bytes) -> Result<()> {
        self.disk(node)?.lock().insert(key.into(), data);
        Ok(())
    }

    /// Read `key` from `node`'s local disk; `None` when the key is missing
    /// or the node is outside the cluster.
    pub fn get(&self, node: NodeId, key: &str) -> Option<Bytes> {
        let data = self.nodes.get(node.0)?.lock().get(key).cloned()?;
        if let Some(read) = self.read_bytes.get(node.0) {
            read.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Some(data)
    }

    /// Read `key` locally, fetching it from the DFS (and caching it) if the
    /// local copy is missing — the paper's repair path for nodes that lost
    /// their dimension cache.
    pub fn get_or_fetch(&self, node: NodeId, key: &str, dfs: &Dfs) -> Result<Bytes> {
        if let Some(d) = self.get(node, key) {
            return Ok(d);
        }
        let data = dfs.read_file(key, Some(node))?;
        self.put(node, key, data.clone())?;
        Ok(data)
    }

    /// Replicate a DFS file onto every node's local disk (used when loading
    /// dimension tables).
    pub fn broadcast_from_dfs(&self, key: &str, dfs: &Dfs) -> Result<()> {
        for n in 0..self.nodes.len() {
            let node = NodeId(n);
            let data = dfs.read_file(key, Some(node))?;
            self.put(node, key, data)?;
        }
        Ok(())
    }

    /// Drop `node`'s entire local cache (simulates a local-disk failure).
    pub fn clear_node(&self, node: NodeId) -> Result<()> {
        self.disk(node)?.lock().clear();
        Ok(())
    }

    /// Total bytes read from local stores so far, per node.
    pub fn read_bytes(&self) -> Vec<u64> {
        self.read_bytes
            .iter()
            .map(|read| read.load(Ordering::Relaxed))
            .collect()
    }

    /// Bytes currently cached on `node`; 0 for a node outside the cluster.
    #[expect(
        clippy::disallowed_methods,
        reason = "D001: a sum or count does not depend on iteration order"
    )]
    pub fn used_bytes(&self, node: NodeId) -> u64 {
        self.nodes
            .get(node.0)
            .map_or(0, |disk| disk.lock().values().map(|b| b.len() as u64).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_is_per_node() {
        let ls = NodeLocalStore::new(2);
        ls.put(NodeId(0), "k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(ls.get(NodeId(0), "k").unwrap(), Bytes::from_static(b"v"));
        assert!(ls.get(NodeId(1), "k").is_none());
        assert_eq!(ls.read_bytes(), vec![1, 0]);
    }

    #[test]
    fn fetch_through_repairs_missing_cache() {
        let dfs = Dfs::for_tests(3);
        dfs.write_file("/dims/date.bin", None, b"dimension-data")
            .unwrap();
        let ls = NodeLocalStore::new(3);
        ls.broadcast_from_dfs("/dims/date.bin", &dfs).unwrap();
        assert_eq!(ls.used_bytes(NodeId(2)), 14);

        // Simulate local-disk failure on node 1, then repair via DFS.
        ls.clear_node(NodeId(1)).unwrap();
        assert!(ls.get(NodeId(1), "/dims/date.bin").is_none());
        let d = ls.get_or_fetch(NodeId(1), "/dims/date.bin", &dfs).unwrap();
        assert_eq!(&d[..], b"dimension-data");
        // Now cached again.
        assert!(ls.get(NodeId(1), "/dims/date.bin").is_some());
    }

    #[test]
    fn fetch_of_unknown_key_errors() {
        let dfs = Dfs::for_tests(2);
        let ls = NodeLocalStore::new(2);
        assert!(ls.get_or_fetch(NodeId(0), "/missing", &dfs).is_err());
    }

    #[test]
    fn put_on_a_node_outside_the_cluster_is_a_dfs_error() {
        let ls = NodeLocalStore::new(2);
        let err = ls.put(NodeId(2), "k", Bytes::from_static(b"v"));
        assert!(matches!(err, Err(ClydeError::Dfs(_))), "{err:?}");
    }

    #[test]
    fn clear_node_outside_the_cluster_is_a_dfs_error() {
        let ls = NodeLocalStore::new(2);
        let err = ls.clear_node(NodeId(7));
        assert!(matches!(err, Err(ClydeError::Dfs(_))), "{err:?}");
    }

    #[test]
    fn get_on_a_node_outside_the_cluster_finds_nothing() {
        let ls = NodeLocalStore::new(2);
        ls.put(NodeId(1), "k", Bytes::from_static(b"v")).unwrap();
        assert!(ls.get(NodeId(2), "k").is_none());
        assert_eq!(ls.read_bytes(), vec![0, 0]);
    }

    #[test]
    fn a_node_outside_the_cluster_holds_no_bytes() {
        let ls = NodeLocalStore::new(2);
        assert_eq!(ls.used_bytes(NodeId(2)), 0);
    }

    #[test]
    fn fetching_onto_a_node_outside_the_cluster_is_a_dfs_error() {
        let dfs = Dfs::for_tests(2);
        dfs.write_file("/dims/date.bin", None, b"d").unwrap();
        let ls = NodeLocalStore::new(2);
        let err = ls.get_or_fetch(NodeId(5), "/dims/date.bin", &dfs);
        assert!(matches!(err, Err(ClydeError::Dfs(_))), "{err:?}");
    }
}
