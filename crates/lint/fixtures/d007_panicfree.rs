//! D007 fixture: panic-capable sites in engine code. The self-test scans
//! this file *as* a source file of an engine crate (`crates/dfs/src/…`), so
//! the by-crate scope itself is exercised. This file is NOT compiled.

/// Unchecked indexing: panics on an empty replica set — exactly the state
/// re-replication runs in.
pub fn pick_replacement(live: &[u32]) -> u32 {
    live[0]
}

/// `.expect` aborts the job instead of degrading to a typed error.
pub fn commit(best: Option<u32>) -> u32 {
    best.expect("a winner was chosen")
}

/// `panic!` on a budget miss turns a survivable fault into a crash.
pub fn seed_for(attempt: u32) -> u64 {
    if attempt > 8 {
        panic!("attempt budget exhausted");
    }
    u64::from(attempt)
}

/// Checked access is the sanctioned shape — must NOT be flagged.
pub fn checked(live: &[u32]) -> Option<u32> {
    live.first().copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_test_code_are_fine() {
        super::checked(&[1, 2]).unwrap();
    }
}
