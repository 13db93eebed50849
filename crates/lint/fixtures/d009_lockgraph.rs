//! D009 fixture: two functions acquire the same two lock classes in
//! opposite orders — a deadlock the runtime checker only sees when a
//! schedule interleaves them, but the static graph sees always. The
//! self-test scans this file *as* `crates/mapred/src/task.rs` (D004-audited,
//! so the `Mutex` declarations themselves are in bounds; an engine crate, so
//! the guards are taken `parking_lot`-style, without `unwrap`). NOT compiled.

use parking_lot::Mutex;

pub struct Queues {
    intake: Mutex<Vec<u64>>,
    commit: Mutex<Vec<u64>>,
}

impl Queues {
    /// Acquires `intake` then `commit`.
    pub fn forward(&self) {
        let from = self.intake.lock();
        let mut to = self.commit.lock();
        to.extend(from.iter().copied());
    }

    /// Acquires `commit` then `intake` — the inversion.
    pub fn reclaim(&self) {
        let from = self.commit.lock();
        let mut to = self.intake.lock();
        to.extend(from.iter().copied());
    }
}
