//! Shared primitives for the Clydesdale reproduction.
//!
//! This crate holds the vocabulary types every other crate speaks:
//!
//! * [`Datum`] / [`Row`] — dynamically typed values and tuples, used on the
//!   cold paths (dimension tables, shuffle keys, query results). Hot paths
//!   (fact-table scans) use columnar blocks from `clyde-columnar` instead.
//! * [`Schema`] / [`Field`] — table and record descriptions.
//! * [`keycodec`] — an order-preserving ("memcomparable") binary encoding of
//!   rows, used as the MapReduce shuffle key format so that byte-wise sorting
//!   equals logical sorting.
//! * [`hash`] — an Fx-style fast hasher for integer-keyed hash tables
//!   (dimension primary keys), implemented locally to stay dependency-free.
//! * [`varint`] — LEB128 variable-length integers used by the storage formats.
//! * [`obs`] — observability: hierarchical span recording, the global
//!   metrics registry, and job-history reports with Chrome-trace export.
//! * [`lockorder`] — `Mutex`/`RwLock` wrappers that panic on inconsistent
//!   lock-acquisition orders in debug builds and report the nesting they
//!   saw (`observed_edges`); release builds get poison-free `std::sync`
//!   locks. The workspace's audited concurrency modules use these instead
//!   of raw `std::sync` primitives; the checker is the one lock-order guard.

pub mod colblock;
pub mod datum;
pub mod error;
pub mod hash;
pub mod keycodec;
pub mod lockorder;
pub mod obs;
pub mod row;
pub mod rowcodec;
pub mod schema;
pub mod varint;

pub use colblock::{ColumnData, I32Cell, I32Le, I32s, RowBlock, RowBlockBuilder, RowRange};
pub use datum::{Datum, DatumRef, DatumType};
pub use error::{ClydeError, Result};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use obs::Obs;
pub use row::Row;
pub use schema::{Field, Schema};
