//! Storage formats for structured data on the simulated DFS.
//!
//! Four formats, mirroring the storage landscape of the paper:
//!
//! * **CIF** ([`cif`]) — the column-oriented InputFormat of Section 4.1:
//!   each column of each row group is a separate DFS file, placed with the
//!   co-locating policy so every row group has a node that can scan all its
//!   columns locally. Queries name the columns they need and pay I/O only
//!   for those.
//! * **MultiCIF / B-CIF** ([`input`]) — the multi-split packing of
//!   Section 5.1 (so each thread of a multi-threaded map task gets its own
//!   constituent split to deserialize) and the block-iteration reader of
//!   Section 5.3 (arrays of rows instead of one `next()` per record).
//! * **RCFile** ([`rcfile`]) — the PAX-style hybrid layout Hive used
//!   (Section 6.2): one file, row groups inside, columns laid out
//!   contiguously within each group so unneeded columns can be skipped.
//! * **Delimited text** ([`text`]) — the `dbgen`-style interchange format.
//!
//! Column bytes are encoded with the schemes in [`encoding`] (plain,
//! dictionary, run-length) and carry checksums.

pub mod cif;
pub mod encoding;
pub mod input;
pub mod maintain;
pub mod rcfile;
pub mod text;

pub use cif::{CifReader, CifTableMeta, CifWriter, GroupLocation};
pub use encoding::{peek_zone_map, Encoding, ZONE_HEADER_MAX};
pub use input::{CifInputFormat, MultiSplit, ScanMode, ZonePred};
pub use maintain::{roll_out, CifAppender};
pub use rcfile::{RcFileInputFormat, RcFileReader, RcFileWriter};
pub use text::{TextInputFormat, TextWriter};
