//! Datanodes: per-node block payload storage.

use crate::block::BlockId;
use bytes::Bytes;
use clyde_common::FxHashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// One stored replica: the payload, whether *these bytes* have matched the
/// namenode's checksum since they were stored, and whether they have been
/// found to end in a matching seal ([`clyde_common::hash::seal`]). Both
/// flags live and die with the payload: the only constructor starts them
/// cleared and nothing swaps the bytes under them, so whatever changes a
/// replica's bytes ([`Datanode::store`], [`Datanode::corrupt`],
/// re-replication) yields an unverified, unsealed replica by construction.
#[derive(Debug)]
pub struct Replica {
    data: Bytes,
    verified: AtomicBool,
    sealed: AtomicBool,
}

impl Replica {
    fn new(data: Bytes) -> Replica {
        Replica {
            data,
            verified: AtomicBool::new(false),
            sealed: AtomicBool::new(false),
        }
    }

    pub fn data(&self) -> &Bytes {
        &self.data
    }

    pub fn is_verified(&self) -> bool {
        // Relaxed: the flag publishes nothing — the payload is immutable and
        // was made visible by the DFS state lock every reader holds.
        self.verified.load(Ordering::Relaxed)
    }

    /// Record that `data()` matched the namenode checksum. Only the reader's
    /// verification step calls this, and only on success: a failed check is
    /// never remembered, so a bad replica is re-hashed on every attempt.
    pub(crate) fn mark_verified(&self) {
        self.verified.store(true, Ordering::Relaxed);
    }

    /// Whether `data()` has been found to end in the seal of the bytes
    /// before it (a whole single-block sealed file: one CIF column chunk).
    pub fn is_sealed(&self) -> bool {
        // Relaxed, for the reason `is_verified` gives.
        self.sealed.load(Ordering::Relaxed)
    }

    /// Record that `data()`'s seal matched. Only the sealed read calls
    /// this, and only on success, after the replica was verified: a bad
    /// seal is never remembered, so it is re-checked and fails every read.
    pub(crate) fn mark_sealed(&self) {
        self.sealed.store(true, Ordering::Relaxed);
    }
}

/// One datanode's block store. Payloads are `Bytes`, so replicating a block
/// onto three datanodes shares one allocation.
#[derive(Debug, Default)]
pub struct Datanode {
    blocks: FxHashMap<BlockId, Replica>,
    alive: bool,
}

impl Datanode {
    pub fn new() -> Datanode {
        Datanode {
            blocks: FxHashMap::default(),
            alive: true,
        }
    }

    pub fn store(&mut self, id: BlockId, data: Bytes) {
        self.blocks.insert(id, Replica::new(data));
    }

    /// The stored replica with its verification state (the read path).
    pub fn replica(&self, id: BlockId) -> Option<&Replica> {
        if self.alive {
            self.blocks.get(&id)
        } else {
            None
        }
    }

    pub fn get(&self, id: BlockId) -> Option<Bytes> {
        self.replica(id).map(|r| r.data.clone())
    }

    pub fn has(&self, id: BlockId) -> bool {
        self.alive && self.blocks.contains_key(&id)
    }

    pub fn free(&mut self, id: BlockId) {
        self.blocks.remove(&id);
    }

    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Flip the first byte of a stored replica (fault injection). Because
    /// replicas share one `Bytes` allocation, the corrupted copy is written
    /// into a *fresh* buffer so the other datanodes keep the good bytes.
    /// Returns false when the replica is absent or empty.
    pub fn corrupt(&mut self, id: BlockId) -> bool {
        let Some(replica) = self.blocks.get(&id) else {
            return false;
        };
        let mut bad = replica.data.to_vec();
        let Some(first) = bad.first_mut() else {
            return false; // empty replica: nothing to flip
        };
        *first ^= 0xff;
        self.store(id, Bytes::from(bad));
        true
    }

    /// Simulate a node failure: all local replicas are lost.
    pub fn kill(&mut self) {
        self.alive = false;
        self.blocks.clear();
    }

    /// Bring a (possibly replaced) node back empty.
    pub fn restart(&mut self) {
        self.alive = true;
    }

    /// Bytes currently stored (for capacity accounting in tests).
    #[expect(
        clippy::disallowed_methods,
        reason = "D001: a sum or count does not depend on iteration order"
    )]
    pub fn used_bytes(&self) -> u64 {
        self.blocks.values().map(|r| r.data.len() as u64).sum()
    }

    /// Replicas currently remembered as verified (test assertions).
    #[expect(
        clippy::disallowed_methods,
        reason = "D001: a sum or count does not depend on iteration order"
    )]
    pub fn verified_replicas(&self) -> usize {
        self.blocks.values().filter(|r| r.is_verified()).count()
    }

    /// Replicas currently remembered as sealed (test assertions).
    #[expect(
        clippy::disallowed_methods,
        reason = "D001: a sum or count does not depend on iteration order"
    )]
    pub fn sealed_replicas(&self) -> usize {
        self.blocks.values().filter(|r| r.is_sealed()).count()
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_get() {
        let mut dn = Datanode::new();
        dn.store(BlockId(1), Bytes::from_static(b"hello"));
        assert_eq!(dn.get(BlockId(1)).unwrap(), Bytes::from_static(b"hello"));
        assert!(dn.get(BlockId(2)).is_none());
        assert_eq!(dn.used_bytes(), 5);
        assert_eq!(dn.num_blocks(), 1);
    }

    #[test]
    fn kill_loses_data_and_restart_comes_back_empty() {
        let mut dn = Datanode::new();
        dn.store(BlockId(1), Bytes::from_static(b"x"));
        dn.kill();
        assert!(!dn.is_alive());
        assert!(dn.get(BlockId(1)).is_none());
        assert!(!dn.has(BlockId(1)));
        dn.restart();
        assert!(dn.is_alive());
        assert!(dn.get(BlockId(1)).is_none());
        assert_eq!(dn.used_bytes(), 0);
    }

    #[test]
    fn corrupt_flips_a_byte_without_touching_shared_buffers() {
        let mut dn = Datanode::new();
        let original = Bytes::from_static(b"good");
        dn.store(BlockId(1), original.clone());
        assert!(dn.corrupt(BlockId(1)));
        assert_ne!(dn.get(BlockId(1)).unwrap(), original);
        // The shared allocation other replicas point at is untouched.
        assert_eq!(original, Bytes::from_static(b"good"));
        assert!(!dn.corrupt(BlockId(9)));
        dn.store(BlockId(2), Bytes::new());
        assert!(!dn.corrupt(BlockId(2)));
    }

    #[test]
    fn every_byte_change_clears_both_flags() {
        let mut dn = Datanode::new();
        let mark = |dn: &Datanode| {
            let r = dn.replica(BlockId(1)).unwrap();
            r.mark_verified();
            r.mark_sealed();
        };
        dn.store(BlockId(1), Bytes::from_static(b"good"));
        let fresh = dn.replica(BlockId(1)).unwrap();
        assert!(!fresh.is_verified() && !fresh.is_sealed());
        mark(&dn);
        assert_eq!((dn.verified_replicas(), dn.sealed_replicas()), (1, 1));
        assert!(dn.corrupt(BlockId(1)));
        let rotten = dn.replica(BlockId(1)).unwrap();
        assert!(!rotten.is_verified() && !rotten.is_sealed());
        mark(&dn);
        dn.store(BlockId(1), Bytes::from_static(b"new"));
        assert_eq!((dn.verified_replicas(), dn.sealed_replicas()), (0, 0));
        mark(&dn);
        dn.kill();
        dn.restart();
        assert!(dn.replica(BlockId(1)).is_none());
        assert_eq!((dn.verified_replicas(), dn.sealed_replicas()), (0, 0));
    }

    #[test]
    fn free_removes_block() {
        let mut dn = Datanode::new();
        dn.store(BlockId(7), Bytes::from_static(b"abc"));
        dn.free(BlockId(7));
        assert!(dn.get(BlockId(7)).is_none());
    }
}
