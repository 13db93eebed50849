//! D007 fixture: the residue clippy cannot see — `[]` indexing of a map in
//! engine code. The fixture test scans this file *as* a source file of an
//! engine crate (`crates/dfs/src/…`), so the by-crate scope itself is
//! exercised. This file is NOT compiled.

use std::collections::BTreeMap;

/// Map indexing panics on a missing key — exactly the state re-replication
/// runs in. `indexing_slicing` does not see it.
pub fn replica_of(replicas: &BTreeMap<u64, u32>, block: u64) -> u32 {
    replicas[&block]
}

/// Checked access is the sanctioned shape — must NOT be flagged.
pub fn checked(replicas: &BTreeMap<u64, u32>, block: u64) -> Option<u32> {
    replicas.get(&block).copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn indexing_in_test_code_is_fine() {
        let v = [1, 2];
        assert_eq!(v[0], 1);
    }
}
