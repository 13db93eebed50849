//! A simulated HDFS for the Clydesdale reproduction.
//!
//! The paper's central storage constraint (Section 4.1) is that Clydesdale
//! keeps all data in a *replicated distributed filesystem* — it explicitly
//! refuses the HadoopDB route of local per-node databases. Reproducing the
//! system therefore requires an HDFS-shaped substrate with:
//!
//! * write-once files split into fixed-size **blocks**,
//! * each block **replicated** onto `r` distinct datanodes,
//! * a **pluggable block placement policy** (the HDFS 0.21 feature CIF
//!   depends on) so that all column files of a fact-table row group can be
//!   co-located on the same node set,
//! * **locality lookups** so the MapReduce scheduler can place map tasks next
//!   to their data, and
//! * per-node **I/O metrics** distinguishing local from remote reads, which
//!   feed the cost model that regenerates the paper's figures.
//!
//! Data lives in memory (`bytes::Bytes`), which is ample for the scale
//! factors we actually execute; the *performance* of the paper's 600 GB runs
//! is reproduced by the cost model in `clyde-mapred`, not by physical I/O.

pub mod block;
pub mod cache;
pub mod datanode;
pub mod dfs;
pub mod local;
pub mod metrics;
pub mod namenode;
pub mod placement;
pub mod testdfsio;
pub mod topology;

pub use block::{BlockId, BlockMeta};
pub use cache::{CacheCatalog, CacheEntry, CacheStats};
pub use dfs::{
    Dfs, DfsOptions, DfsWriter, FileLocation, FileStatus, GroupFiles, ResolvedFile, Span,
};
pub use local::NodeLocalStore;
pub use metrics::{IoMetrics, IoScope, IoSnapshot, ScanStats};
pub use placement::{BlockPlacementPolicy, ColocatingPlacement, DefaultPlacement};
pub use topology::{ClusterSpec, NodeId, NodeSpec};
