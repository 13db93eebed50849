//! Input formats, splits, and readers.
//!
//! An `InputFormat` has the two responsibilities the paper describes in
//! Section 3: `getSplits()` (here [`InputFormat::splits`]) partitions the
//! input into locality-tagged units of scheduling, and `getRecordReader()`
//! (here [`InputFormat::open`]) turns a split into a typed reader.
//!
//! Two reader shapes exist, matching the paper's two iteration models:
//! row-at-a-time [`RecordReader`]s (the Hadoop default, used by the Hive
//! baseline and by Clydesdale's block-iteration-off ablation) and
//! [`BlockReader`]s that return a [`RowBlock`] per call (B-CIF,
//! Section 5.3).

use crate::conf::JobConf;
use crate::task::TaskIo;
use clyde_common::{ClydeError, Result, Row, RowBlock, RowRange};
use clyde_dfs::{Dfs, NodeId};

/// How a split's data is addressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitSpec {
    /// A byte range of one file (text, row-binary, and similar formats).
    FileRange { path: String, offset: u64, len: u64 },
    /// One or more row groups of a group-structured table (CIF, RCFile).
    /// More than one group makes this a *multi-split* — the MultiCIF
    /// mechanism from paper Section 5.1 that lets each thread of a
    /// multi-threaded map task deserialize its own constituent split.
    Groups { base: String, groups: Vec<usize> },
    /// A range of records held by the input format itself (in-memory inputs
    /// for tests and synthetic workload generators).
    Inline { from: usize, to: usize },
}

impl SplitSpec {
    /// Number of independently readable parts (constituent splits).
    pub fn num_parts(&self) -> usize {
        match self {
            SplitSpec::FileRange { .. } | SplitSpec::Inline { .. } => 1,
            SplitSpec::Groups { groups, .. } => groups.len().max(1),
        }
    }
}

/// A unit of map-task scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// Dense index within the job.
    pub index: usize,
    pub spec: SplitSpec,
    /// Nodes that can read this split locally, best first.
    pub hosts: Vec<NodeId>,
    /// Estimated on-DFS bytes, for balancing and the cost model.
    pub bytes: u64,
}

/// Row-at-a-time reader: Hadoop's `RecordReader.next()`.
pub trait RecordReader: Send {
    /// The next (key, value) record, or `None` at end of split.
    fn next(&mut self) -> Result<Option<(Row, Row)>>;
}

/// Block reader: returns an array of rows per call (B-CIF, Section 5.3),
/// amortizing per-record framework overhead.
pub trait BlockReader: Send {
    /// The next block of rows, or `None` at end of split.
    fn next_block(&mut self) -> Result<Option<RowBlock>>;

    /// The next block as a row range of a shared block, or `None` at end of
    /// split. By default the block [`BlockReader::next_block`] returns,
    /// whole; a reader that holds a decoded row group overrides this to
    /// hand out ranges of the group instead of copies of them.
    fn next_range(&mut self) -> Result<Option<RowRange>> {
        Ok(self.next_block()?.map(RowRange::whole))
    }
}

/// Either reader shape, as constructed by an [`InputFormat`].
pub enum Reader {
    Rows(Box<dyn RecordReader>),
    Blocks(Box<dyn BlockReader>),
}

impl Reader {
    /// Unwrap as a row reader, erroring if the format produced blocks.
    pub fn into_rows(self) -> Result<Box<dyn RecordReader>> {
        match self {
            Reader::Rows(r) => Ok(r),
            Reader::Blocks(_) => Err(ClydeError::MapReduce(
                "expected a row reader but the input format produced blocks".into(),
            )),
        }
    }

    /// Unwrap as a block reader, erroring if the format produced rows.
    pub fn into_blocks(self) -> Result<Box<dyn BlockReader>> {
        match self {
            Reader::Blocks(r) => Ok(r),
            Reader::Rows(_) => Err(ClydeError::MapReduce(
                "expected a block reader but the input format produced rows".into(),
            )),
        }
    }
}

/// The Hadoop `InputFormat` contract.
pub trait InputFormat: Send + Sync {
    /// Partition the input into splits (`getSplits()`).
    fn splits(&self, dfs: &Dfs, conf: &JobConf) -> Result<Vec<InputSplit>>;

    /// Open part `part` of a split (`getRecordReader()`; multi-splits expose
    /// `num_parts()` parts, each independently readable — the paper's
    /// `getMultipleReaders()`).
    fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader>;
}

/// An adapter that presents a block reader as a row reader by materializing
/// one row at a time — the framework path Clydesdale's block iteration
/// bypasses. Used by the `block_iteration = off` ablation so the *same*
/// storage format can be driven through the slow iteration model.
pub struct RowsFromBlocks {
    inner: Box<dyn BlockReader>,
    /// The range being materialized; its `rows.start` is the next row.
    current: Option<RowRange>,
}

impl RowsFromBlocks {
    pub fn new(inner: Box<dyn BlockReader>) -> RowsFromBlocks {
        RowsFromBlocks {
            inner,
            current: None,
        }
    }
}

impl RecordReader for RowsFromBlocks {
    fn next(&mut self) -> Result<Option<(Row, Row)>> {
        loop {
            if let Some(range) = &mut self.current {
                if let Some(i) = range.rows.next() {
                    return Ok(Some((Row::empty(), range.block.row(i))));
                }
            }
            match self.inner.next_range()? {
                Some(range) => {
                    // Every row the loop above reads lies inside the block.
                    range.block.check_rows(range.rows.clone())?;
                    self.current = Some(range);
                }
                None => return Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::{row, ColumnData};

    struct TwoBlocks(usize);

    impl BlockReader for TwoBlocks {
        fn next_block(&mut self) -> Result<Option<RowBlock>> {
            self.0 += 1;
            match self.0 {
                1 => Ok(Some(RowBlock::new(vec![ColumnData::I32(vec![1, 2])])?)),
                2 => Ok(Some(RowBlock::new(vec![ColumnData::I32(vec![3])])?)),
                _ => Ok(None),
            }
        }
    }

    #[test]
    fn split_parts() {
        let s = SplitSpec::FileRange {
            path: "/f".into(),
            offset: 0,
            len: 10,
        };
        assert_eq!(s.num_parts(), 1);
        let g = SplitSpec::Groups {
            base: "/t".into(),
            groups: vec![3, 7, 9],
        };
        assert_eq!(g.num_parts(), 3);
    }

    #[test]
    fn rows_from_blocks_flattens() {
        let mut r = RowsFromBlocks::new(Box::new(TwoBlocks(0)));
        let mut seen = Vec::new();
        while let Some((_, v)) = r.next().unwrap() {
            seen.push(v);
        }
        assert_eq!(seen, vec![row![1i32], row![2i32], row![3i32]]);
    }

    #[test]
    fn reader_unwrap_errors_on_wrong_shape() {
        let r = Reader::Blocks(Box::new(TwoBlocks(0)));
        assert!(r.into_rows().is_err());
        let r = Reader::Rows(Box::new(RowsFromBlocks::new(Box::new(TwoBlocks(0)))));
        assert!(r.into_blocks().is_err());
    }
}
