//! An in-process MapReduce engine with Hadoop's extensibility points.
//!
//! Section 3 of the Clydesdale paper enumerates the Hadoop features the
//! system is built on, and this crate reproduces each of them:
//!
//! * **InputFormats** ([`input::InputFormat`]) that generate locality-tagged
//!   splits and construct record/block readers;
//! * **MapRunners** ([`runner::MapRunner`]) that own the map-side loop, so
//!   Clydesdale can substitute its multi-threaded `MTMapRunner` without any
//!   framework change;
//! * **pluggable scheduling** ([`scheduler`]) with locality-aware slot
//!   assignment and the capacity-scheduler behaviour of admitting only one
//!   high-memory task per node (paper Section 5.2);
//! * **JVM reuse** ([`task::NodeState`]): per-node state that survives across
//!   consecutive tasks of a job, which is how dimension hash tables are
//!   charged exactly once per node per job. Behind it sits one
//!   [`task::ResidentStore`] per node that lives as long as the [`Engine`]:
//!   a table built for an earlier job from the same node-local bytes is
//!   found there instead of being built again (wall clock only — the cost
//!   model still prices one build per node per job);
//! * the **distributed cache** ([`distcache::DistCache`]) used by Hive's
//!   mapjoin to broadcast serialized hash tables;
//! * a sort-based **shuffle** ([`shuffle`]) with combiner support, keyed by
//!   the order-preserving codec from `clyde-common`.
//!
//! Jobs really execute — multi-threaded, one worker thread per simulated
//! node — and additionally produce a [`job::JobProfile`] of counters which
//! the deterministic [`cost`] model prices against a cluster specification
//! to yield the simulated runtimes behind the paper's figures.

pub mod conf;
pub mod cost;
pub mod distcache;
pub mod engine;
pub mod fanout;
pub mod fault;
pub mod fingerprint;
pub mod formats;
pub mod history;
pub mod input;
pub mod job;
pub mod runner;
pub mod scheduler;
pub mod server;
pub mod shuffle;
pub mod task;

pub use conf::JobConf;
pub use cost::{CostParams, JobCost, TaskCost};
pub use distcache::DistCache;
pub use engine::Engine;
pub use fanout::fan_out;
pub use fault::{DatanodeDeath, FaultPlan};
pub use fingerprint::{job_fingerprint, Fingerprinter};
pub use history::job_history;
pub use input::{BlockReader, InputFormat, InputSplit, Reader, RecordReader, SplitSpec};
pub use job::{
    Extrapolation, JobProfile, JobResult, JobSpec, KilledAttempt, MapTaskScaling, OutputSpec,
    TaskProfile,
};
pub use runner::{FnMapRunner, MapRunner, RowMapRunner};
pub use scheduler::SchedPolicy;
pub use server::{JobServer, RejectReason, ServedJob, ServerConfig};
pub use shuffle::Reducer;
pub use task::{Collector, MapTaskContext, NodeState, ResidentStats, ResidentStore, TaskIo};
