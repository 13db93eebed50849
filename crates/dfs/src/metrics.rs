//! Per-node I/O accounting.
//!
//! Every byte that moves through the DFS is attributed to a node and
//! classified as a local read, a remote read (crossed the network), or a
//! write. The cost model converts these counters into simulated seconds, and
//! the locality ratio is how we verify that CIF's co-locating placement
//! actually delivers node-local scans.

use crate::topology::NodeId;
use clyde_common::{ClydeError, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// One node's counters. Each is a monotone sum, so no lock orders them.
#[derive(Debug, Default)]
struct NodeIo {
    local_read: AtomicU64,
    remote_read: AtomicU64,
    written: AtomicU64,
}

/// Immutable snapshot of the counters, per node plus totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub per_node: Vec<IoNodeSnapshot>,
    /// Replica reads rejected by checksum verification (cluster-wide).
    pub corrupt_reads: u64,
}

/// One node's totals within an [`IoSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoNodeSnapshot {
    pub node: usize,
    pub local_read: u64,
    pub remote_read: u64,
    pub written: u64,
}

impl IoSnapshot {
    pub fn total_local_read(&self) -> u64 {
        self.per_node.iter().map(|n| n.local_read).sum()
    }

    pub fn total_remote_read(&self) -> u64 {
        self.per_node.iter().map(|n| n.remote_read).sum()
    }

    pub fn total_read(&self) -> u64 {
        self.total_local_read() + self.total_remote_read()
    }

    pub fn total_written(&self) -> u64 {
        self.per_node.iter().map(|n| n.written).sum()
    }

    pub fn total_corrupt_reads(&self) -> u64 {
        self.corrupt_reads
    }

    /// Fraction of read bytes served from a local replica (1.0 = perfect
    /// locality). Returns 1.0 when nothing was read.
    pub fn locality_ratio(&self) -> f64 {
        let total = self.total_read();
        if total == 0 {
            1.0
        } else {
            self.total_local_read() as f64 / total as f64
        }
    }

    /// Add a later window's counters to this one.
    pub fn add(&mut self, other: &IoSnapshot) {
        for o in &other.per_node {
            match self.per_node.iter_mut().find(|n| n.node == o.node) {
                Some(n) => {
                    n.local_read += o.local_read;
                    n.remote_read += o.remote_read;
                    n.written += o.written;
                }
                None => self.per_node.push(*o),
            }
        }
        self.corrupt_reads += other.corrupt_reads;
    }

    /// Difference since an earlier snapshot (counters are monotone).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        let mut per_node = self.per_node.clone();
        for n in &mut per_node {
            if let Some(e) = earlier.per_node.iter().find(|e| e.node == n.node) {
                n.local_read -= e.local_read;
                n.remote_read -= e.remote_read;
                n.written -= e.written;
            }
        }
        IoSnapshot {
            per_node,
            corrupt_reads: self.corrupt_reads.saturating_sub(earlier.corrupt_reads),
        }
    }
}

/// Per-task scan counters, updated by the DFS read path when a reader passes
/// one in. Unlike [`IoMetrics`] (cluster-wide, per node), a `ScanStats` is
/// owned by a single map task and feeds that task's entry in the cost model.
#[derive(Debug, Default)]
pub struct ScanStats {
    pub local_bytes: AtomicU64,
    pub remote_bytes: AtomicU64,
    /// Column chunks whose zone map was consulted during this task's scan.
    pub zone_checked: AtomicU64,
    /// Of those, chunks skipped because the zone map ruled them out.
    pub zone_skipped: AtomicU64,
}

impl ScanStats {
    pub fn new() -> ScanStats {
        ScanStats::default()
    }

    pub fn add_local(&self, bytes: u64) {
        self.local_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn add_remote(&self, bytes: u64) {
        self.remote_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn local(&self) -> u64 {
        self.local_bytes.load(Ordering::Relaxed)
    }

    pub fn remote(&self) -> u64 {
        self.remote_bytes.load(Ordering::Relaxed)
    }

    pub fn total(&self) -> u64 {
        self.local() + self.remote()
    }

    pub fn add_zone_checked(&self, n: u64) {
        self.zone_checked.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_zone_skipped(&self, n: u64) {
        self.zone_skipped.fetch_add(n, Ordering::Relaxed);
    }

    pub fn zone_checked(&self) -> u64 {
        self.zone_checked.load(Ordering::Relaxed)
    }

    pub fn zone_skipped(&self) -> u64 {
        self.zone_skipped.load(Ordering::Relaxed)
    }
}

/// Thread-safe I/O counters for a cluster of `n` nodes. A snapshot reads
/// each counter on its own; the engine takes them between jobs, when no
/// task is moving bytes.
#[derive(Debug)]
pub struct IoMetrics {
    nodes: Vec<NodeIo>,
    corrupt_reads: AtomicU64,
}

impl IoMetrics {
    pub fn new(num_nodes: usize) -> IoMetrics {
        IoMetrics {
            nodes: (0..num_nodes).map(|_| NodeIo::default()).collect(),
            corrupt_reads: AtomicU64::new(0),
        }
    }

    /// `node`'s counters, or a [`ClydeError::Dfs`] naming a node outside
    /// the cluster.
    fn node(&self, node: NodeId) -> Result<&NodeIo> {
        self.nodes.get(node.0).ok_or_else(|| {
            ClydeError::Dfs(format!(
                "I/O attributed to node {}, outside the {}-node cluster",
                node.0,
                self.nodes.len()
            ))
        })
    }

    pub fn record_local_read(&self, node: NodeId, bytes: u64) -> Result<()> {
        self.node(node)?
            .local_read
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    pub fn record_remote_read(&self, node: NodeId, bytes: u64) -> Result<()> {
        self.node(node)?
            .remote_read
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    pub fn record_write(&self, node: NodeId, bytes: u64) -> Result<()> {
        self.node(node)?.written.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// A replica read failed checksum verification on `_node` and was
    /// rejected before being served.
    pub fn record_corrupt_read(&self, _node: NodeId) {
        self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            per_node: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| IoNodeSnapshot {
                    node: i,
                    local_read: n.local_read.load(Ordering::Relaxed),
                    remote_read: n.remote_read.load(Ordering::Relaxed),
                    written: n.written.load(Ordering::Relaxed),
                })
                .collect(),
            corrupt_reads: self.corrupt_reads.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        for n in &self.nodes {
            n.local_read.store(0, Ordering::Relaxed);
            n.remote_read.store(0, Ordering::Relaxed);
            n.written.store(0, Ordering::Relaxed);
        }
        self.corrupt_reads.store(0, Ordering::Relaxed);
    }

    /// Open a scoped snapshot: `delta()` reports only the I/O performed
    /// after this call. Lets consecutive jobs / bench iterations attribute
    /// DFS traffic without resetting (and thus bleeding into) each other's
    /// counters.
    pub fn scope(&self) -> IoScope<'_> {
        IoScope {
            metrics: self,
            start: self.snapshot(),
        }
    }
}

/// A window over [`IoMetrics`] opened by [`IoMetrics::scope`].
#[derive(Debug)]
pub struct IoScope<'a> {
    metrics: &'a IoMetrics,
    start: IoSnapshot,
}

impl IoScope<'_> {
    /// I/O performed since the scope was opened.
    pub fn delta(&self) -> IoSnapshot {
        self.metrics.snapshot().since(&self.start)
    }

    /// The snapshot taken when the scope was opened.
    pub fn start(&self) -> &IoSnapshot {
        &self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_node() {
        let m = IoMetrics::new(3);
        m.record_local_read(NodeId(0), 100).unwrap();
        m.record_local_read(NodeId(0), 50).unwrap();
        m.record_remote_read(NodeId(1), 25).unwrap();
        m.record_write(NodeId(2), 10).unwrap();
        let s = m.snapshot();
        assert_eq!(s.per_node[0].local_read, 150);
        assert_eq!(s.per_node[1].remote_read, 25);
        assert_eq!(s.per_node[2].written, 10);
        assert_eq!(s.total_read(), 175);
        assert_eq!(s.total_written(), 10);
    }

    #[test]
    fn locality_ratio() {
        let m = IoMetrics::new(2);
        assert_eq!(m.snapshot().locality_ratio(), 1.0);
        m.record_local_read(NodeId(0), 75).unwrap();
        m.record_remote_read(NodeId(1), 25).unwrap();
        assert!((m.snapshot().locality_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts() {
        let m = IoMetrics::new(1);
        m.record_local_read(NodeId(0), 10).unwrap();
        let before = m.snapshot();
        m.record_local_read(NodeId(0), 7).unwrap();
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.total_local_read(), 7);
    }

    #[test]
    fn corrupt_reads_are_counted_and_scoped() {
        let m = IoMetrics::new(2);
        m.record_corrupt_read(NodeId(1));
        let before = m.snapshot();
        assert_eq!(before.total_corrupt_reads(), 1);
        m.record_corrupt_read(NodeId(0));
        assert_eq!(m.snapshot().since(&before).total_corrupt_reads(), 1);
        m.reset();
        assert_eq!(m.snapshot().total_corrupt_reads(), 0);
    }

    #[test]
    fn reset_zeroes() {
        let m = IoMetrics::new(1);
        m.record_write(NodeId(0), 5).unwrap();
        m.reset();
        assert_eq!(m.snapshot().total_written(), 0);
    }

    #[test]
    fn scopes_do_not_bleed_into_each_other() {
        let m = IoMetrics::new(2);
        m.record_local_read(NodeId(0), 100).unwrap(); // earlier job's traffic
        let first = m.scope();
        m.record_local_read(NodeId(0), 10).unwrap();
        m.record_remote_read(NodeId(1), 5).unwrap();
        let d1 = first.delta();
        assert_eq!(d1.total_local_read(), 10);
        assert_eq!(d1.total_remote_read(), 5);

        let second = m.scope();
        assert_eq!(second.delta().total_read(), 0);
        m.record_write(NodeId(1), 3).unwrap();
        assert_eq!(second.delta().total_written(), 3);
        // The earlier scope keeps its own baseline.
        assert_eq!(first.delta().total_local_read(), 10);
        assert_eq!(first.start().total_local_read(), 100);
    }

    fn assert_off_cluster(r: Result<()>, m: &IoMetrics) {
        assert!(matches!(r, Err(ClydeError::Dfs(_))), "{r:?}");
        assert_eq!(
            m.snapshot(),
            IoMetrics::new(2).snapshot(),
            "nothing counted"
        );
    }

    #[test]
    fn a_local_read_on_a_node_outside_the_cluster_is_a_dfs_error() {
        let m = IoMetrics::new(2);
        assert_off_cluster(m.record_local_read(NodeId(2), 1), &m);
    }

    #[test]
    fn a_remote_read_on_a_node_outside_the_cluster_is_a_dfs_error() {
        let m = IoMetrics::new(2);
        assert_off_cluster(m.record_remote_read(NodeId(3), 1), &m);
    }

    #[test]
    fn a_write_on_a_node_outside_the_cluster_is_a_dfs_error() {
        let m = IoMetrics::new(2);
        assert_off_cluster(m.record_write(NodeId(9), 1), &m);
    }
}
