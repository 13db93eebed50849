//! Table 1 / Section 6.6 — TestDFSIO: HDFS bandwidth vs raw disk bandwidth.
//!
//! Really executes the TestDFSIO write and read jobs against simulated
//! instances of both clusters (verifying data integrity and read locality),
//! then reports modeled throughput. The paper's point: HDFS delivers only a
//! fraction of the hardware's sequential bandwidth — the 67 MB/s per node
//! Clydesdale's scans observe, against 560 MB/s raw on cluster A.

use clyde_bench::report::render_table;
use clyde_dfs::testdfsio;

fn main() {
    // The positional number is the per-file size in MB here, not a scale
    // factor.
    let args = clyde_bench::cli::parse("usage: table1_dfsio [file-MB]", &[], &[]);
    let file_mb = (args.sf(4.0) as u64).max(1);
    eprintln!("running TestDFSIO write+read jobs ({file_mb} MB files) on both cluster models...");
    let reports = testdfsio::paper_table1(file_mb << 20).expect("TestDFSIO failed");

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.cluster.clone(),
                format!("{}", r.files),
                format!("{:.0}", r.raw_disk_mb_per_node),
                format!("{:.0}", r.read_mb_per_node),
                format!("{:.0}", r.write_mb_per_node),
                format!("{:.0}", r.aggregate_read_mb),
                format!("{:.0}", r.aggregate_write_mb),
                format!("{:.2}", r.read_locality),
            ]
        })
        .collect();
    println!("\nTable 1: TestDFSIO (MB/s)\n");
    println!(
        "{}",
        render_table(
            &[
                "cluster",
                "files",
                "raw-disk/node",
                "hdfs-read/node",
                "hdfs-write/node",
                "aggregate-read",
                "aggregate-write",
                "read-locality",
            ],
            &rows,
        )
    );
    println!("paper (Section 6.6): raw ~70 MB/s per disk (560 MB/s per node on A, 280 MB/s on B);");
    println!(
        "HDFS delivered only a fraction of that — Clydesdale's scans observed ~67 MB/s per node."
    );
}
