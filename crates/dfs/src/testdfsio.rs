//! TestDFSIO — the HDFS bandwidth benchmark behind the paper's Table 1.
//!
//! Section 6.6 of the paper measures raw disk bandwidth (`dd`: 70–100 MB/s
//! per disk) against what HDFS actually delivers to map tasks, using the
//! TestDFSIO job shipped with Hadoop: a write job where each map task writes
//! one file, and a read job where each map task reads one back with locality
//! respected. The punchline is that HDFS delivers only a fraction of raw
//! bandwidth (the paper measures ~67 MB/s per node during query scans vs
//! 560 MB/s raw on cluster A) — which is why Clydesdale's scan phase is
//! I/O-bound at a rate far below the hardware's.
//!
//! Our reproduction really executes the write/read jobs against the
//! simulated DFS (verifying data integrity and locality), then prices the
//! byte counts with [`HdfsPerfModel`] to report cluster-level throughput.

use crate::dfs::Dfs;
use crate::topology::{ClusterSpec, NodeId, NodeSpec};
use clyde_common::Result;
use std::sync::Arc;

const MB: f64 = (1 << 20) as f64;

/// Empirical model of what HDFS delivers per node, relative to raw hardware.
///
/// The caps encode the era's HDFS implementation overheads (checksumming,
/// single-stream datanode reads, JVM serialization) that the paper observes
/// but does not fix. Defaults are calibrated to Section 6.3/6.6: an
/// effective ~70 MB/s scan rate per node on both clusters.
#[derive(Debug, Clone)]
pub struct HdfsPerfModel {
    /// Upper bound on per-node HDFS read bandwidth, bytes/s.
    pub node_read_cap: f64,
    /// Upper bound on per-node *physical* HDFS write bandwidth (before the
    /// replication factor divides it down to logical throughput), bytes/s.
    pub node_write_cap: f64,
}

impl Default for HdfsPerfModel {
    fn default() -> HdfsPerfModel {
        HdfsPerfModel {
            node_read_cap: 72.0 * MB,
            node_write_cap: 120.0 * MB,
        }
    }
}

impl HdfsPerfModel {
    /// Effective HDFS read bandwidth for one node, bytes/s.
    pub fn effective_read_bw(&self, node: &NodeSpec) -> f64 {
        node.raw_disk_bw().min(self.node_read_cap)
    }

    /// Effective HDFS write bandwidth for one node, bytes/s of *logical*
    /// data. Each logical byte is written `replication` times, and
    /// `replication - 1` copies traverse the network pipeline.
    pub fn effective_write_bw(&self, node: &NodeSpec, replication: u32, network_bw: f64) -> f64 {
        let r = f64::from(replication.max(1));
        let disk_limit = node.raw_disk_bw().min(self.node_write_cap) / r;
        let net_limit = if replication > 1 {
            network_bw / (r - 1.0)
        } else {
            f64::INFINITY
        };
        disk_limit.min(net_limit)
    }
}

/// Result of one TestDFSIO run — the rows of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct TestDfsIoReport {
    pub cluster: String,
    pub files: usize,
    pub file_size: u64,
    /// Raw per-node disk bandwidth, MB/s (the `dd` baseline).
    pub raw_disk_mb_per_node: f64,
    /// Simulated HDFS throughput, MB/s per node.
    pub read_mb_per_node: f64,
    pub write_mb_per_node: f64,
    /// Simulated aggregate cluster throughput, MB/s.
    pub aggregate_read_mb: f64,
    pub aggregate_write_mb: f64,
    /// Locality achieved by the read job (should be 1.0).
    pub read_locality: f64,
}

/// Execute a TestDFSIO-style write+read cycle.
///
/// `files_per_node` map tasks per node each write `file_size` bytes, then
/// read their files back from the node holding them. Data integrity is
/// checked; throughput comes from the perf model applied to the cluster
/// spec (independent of `file_size`, which only controls how much real
/// work the simulation does).
pub fn run(
    dfs: &Arc<Dfs>,
    files_per_node: usize,
    file_size: u64,
    model: &HdfsPerfModel,
) -> Result<TestDfsIoReport> {
    let cluster = dfs.cluster().clone();
    let n = cluster.num_workers();
    let mut paths = Vec::with_capacity(n * files_per_node);

    // Write job: each "map task" writes one file. Hadoop places a writing
    // task's first replica on the local node and TestDFSIO's read job then
    // schedules each reader next to its file, so we keep each file's blocks
    // together via the placement group (path-keyed).
    for node in 0..n {
        for f in 0..files_per_node {
            let path = format!("/benchmarks/TestDFSIO/io_data/node{node}_file{f}");
            let payload = make_payload(node, f, file_size);
            let group = path.clone();
            dfs.write_file(&path, Some(group), &payload)?;
            paths.push((NodeId(node), path));
        }
    }

    // Read job: each map task reads one file, scheduled on a node holding it
    // ("locality is respected", Section 6.6).
    dfs.reset_metrics();
    for (node, path) in &paths {
        let hosts = dfs.hosts(path)?;
        let reader = match hosts.first() {
            Some(&first) if !hosts.contains(node) => first,
            _ => *node,
        };
        let data = dfs.read_file(path, Some(reader))?;
        verify_payload(&data, node.0, path)?;
    }
    let read_locality = dfs.metrics().locality_ratio();

    // Price it.
    let read_bw = model.effective_read_bw(&cluster.node);
    let write_bw = model.effective_write_bw(&cluster.node, dfs.replication(), cluster.network_bw);
    let report = TestDfsIoReport {
        cluster: cluster.name.clone(),
        files: paths.len(),
        file_size,
        raw_disk_mb_per_node: cluster.node.raw_disk_bw() / MB,
        read_mb_per_node: read_bw / MB,
        write_mb_per_node: write_bw / MB,
        aggregate_read_mb: read_bw * n as f64 / MB,
        aggregate_write_mb: write_bw * n as f64 / MB,
        read_locality,
    };

    // Clean up like the real benchmark's -clean phase.
    for (_, path) in &paths {
        dfs.delete(path)?;
    }
    Ok(report)
}

fn make_payload(node: usize, file: usize, size: u64) -> Vec<u8> {
    // Deterministic, verifiable pattern.
    let seed = (node as u8).wrapping_mul(31).wrapping_add(file as u8);
    (0..size).map(|i| seed.wrapping_add(i as u8)).collect()
}

fn verify_payload(data: &[u8], _node: usize, path: &str) -> Result<()> {
    // The pattern increments by one per byte; verify the stride property.
    for (a, b) in data.iter().zip(data.iter().skip(1)).take(16) {
        if *b != a.wrapping_add(1) {
            return Err(clyde_common::ClydeError::Dfs(format!(
                "TestDFSIO verification failed for {path}"
            )));
        }
    }
    Ok(())
}

/// Run TestDFSIO against both of the paper's cluster specs using small real
/// payloads — the harness behind `table1_dfsio`.
pub fn paper_table1(file_size: u64) -> Result<Vec<TestDfsIoReport>> {
    let model = HdfsPerfModel::default();
    let mut out = Vec::new();
    for spec in [ClusterSpec::cluster_a(), ClusterSpec::cluster_b()] {
        let dfs = Dfs::new(
            spec,
            crate::dfs::DfsOptions {
                block_size: 1 << 16,
                replication: 3,
                // Whole-file grouping stands in for Hadoop's write-local
                // first replica, so the read job can be fully node-local.
                policy: Box::new(crate::placement::ColocatingPlacement),
            },
        );
        out.push(run(&dfs, 2, file_size, &model)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_job_is_fully_local() {
        let dfs = Dfs::for_tests(4);
        let report = run(&dfs, 2, 512, &HdfsPerfModel::default()).unwrap();
        assert_eq!(report.files, 8);
        assert_eq!(report.read_locality, 1.0);
    }

    #[test]
    fn hdfs_read_bw_is_below_raw_disk_bw() {
        // The paper's core observation: HDFS delivers a fraction of raw.
        let reports = paper_table1(256).unwrap();
        for r in &reports {
            assert!(
                r.read_mb_per_node < r.raw_disk_mb_per_node,
                "{}: {} !< {}",
                r.cluster,
                r.read_mb_per_node,
                r.raw_disk_mb_per_node
            );
            // Calibration: ~70 MB/s effective per node (paper: 67 MB/s).
            assert!(r.read_mb_per_node > 60.0 && r.read_mb_per_node < 80.0);
        }
    }

    #[test]
    fn write_bw_pays_replication() {
        let model = HdfsPerfModel::default();
        let node = ClusterSpec::cluster_a().node;
        let net = ClusterSpec::cluster_a().network_bw;
        let w1 = model.effective_write_bw(&node, 1, net);
        let w3 = model.effective_write_bw(&node, 3, net);
        assert!(w3 < w1);
    }

    #[test]
    fn cluster_b_has_higher_aggregate_throughput() {
        let reports = paper_table1(128).unwrap();
        assert!(reports[1].aggregate_read_mb > reports[0].aggregate_read_mb);
    }

    #[test]
    fn cleanup_removes_benchmark_files() {
        let dfs = Dfs::for_tests(2);
        run(&dfs, 1, 64, &HdfsPerfModel::default()).unwrap();
        assert!(dfs.list("/benchmarks/").is_empty());
    }
}
