//! Block identifiers and metadata.

use crate::topology::NodeId;

/// Content checksum for a block payload: the same FxHash a column chunk's
/// seal uses ([`clyde_common::hash::hash_bytes`]). A replica is checked
/// against it until it matches once, which is how the datanode detects
/// injected (or real) bit rot.
pub fn block_checksum(data: &[u8]) -> u64 {
    clyde_common::hash::hash_bytes(data)
}

/// Globally unique block identifier, allocated by the namenode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Namenode-side metadata for one block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    pub id: BlockId,
    /// Actual payload length (the final block of a file is usually short).
    pub len: u64,
    /// Datanodes currently holding a replica, in placement order.
    pub replicas: Vec<NodeId>,
    /// Checksum of the payload at write time ([`block_checksum`]); replica
    /// reads are verified against it before being served.
    pub checksum: u64,
}

impl BlockMeta {
    /// Whether `node` holds a replica of this block.
    pub fn is_local_to(&self, node: NodeId) -> bool {
        self.replicas.contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_check() {
        let m = BlockMeta {
            id: BlockId(1),
            len: 10,
            replicas: vec![NodeId(0), NodeId(2)],
            checksum: 0,
        };
        assert!(m.is_local_to(NodeId(0)));
        assert!(m.is_local_to(NodeId(2)));
        assert!(!m.is_local_to(NodeId(1)));
    }
}
