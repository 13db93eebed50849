//! MultiCIF and B-CIF: the CIF-backed Hadoop input format.
//!
//! Three paper mechanisms live here:
//!
//! * **column projection** — the format carries the column list the query
//!   needs, and readers touch only those files;
//! * **MultiCIF** (Section 5.1) — several row groups are packed into one
//!   *multi-split*, whose parts can be opened independently so each thread
//!   of a multi-threaded map task deserializes its own constituent split;
//!   `MultiSplit::OnePerNode` produces exactly one multi-split per worker,
//!   which combined with the capacity scheduler gives Clydesdale its
//!   one-map-task-per-node execution;
//! * **B-CIF** (Section 5.3) — `ScanMode::Blocks` returns arrays of rows so
//!   the per-record `next()` cost is paid once per block; `ScanMode::Rows`
//!   is the row-at-a-time path used by the block-iteration ablation.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the CIF input format's per-job table handle: one `RwLock` around \
                an `Option<Arc<Planned>>`, written by `splits()` and read by `open()`, \
                each for a single statement and never while a DFS lock is held"
)]

use crate::cif::{located_file, CifReader};
use crate::encoding::{peek_zone_map, ZONE_HEADER_MAX};
use clyde_common::lockorder::RwLock;
use clyde_common::{ClydeError, Result, RowBlock, RowRange};
use clyde_dfs::{Dfs, GroupFiles, NodeId};
use clyde_mapred::{
    input::RowsFromBlocks, BlockReader, InputFormat, InputSplit, JobConf, Reader, SplitSpec, TaskIo,
};
use std::ops::Range;
use std::sync::Arc;

/// How rows come out of the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// B-CIF: blocks of up to `rows_per_block` rows.
    Blocks { rows_per_block: usize },
    /// Row-at-a-time through the framework (ablation / Hadoop default).
    Rows,
}

impl Default for ScanMode {
    fn default() -> ScanMode {
        ScanMode::Blocks {
            rows_per_block: 4096,
        }
    }
}

/// How row groups are packed into splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiSplit {
    /// One split per row group (plain CIF).
    Single,
    /// One multi-split per worker node, each containing the groups that node
    /// hosts (Clydesdale's scheduling shape).
    OnePerNode,
}

/// A conjunct usable for zone-map pruning: a qualifying row must have
/// `column` in the inclusive range `[lo, hi]`. A row group whose zone map
/// for `column` is disjoint from the range cannot contribute a single row,
/// so the scan skips it without fetching or decoding any column chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonePred {
    pub column: String,
    pub lo: i32,
    pub hi: i32,
}

impl ZonePred {
    pub fn new(column: impl Into<String>, lo: i32, hi: i32) -> ZonePred {
        ZonePred {
            column: column.into(),
            lo,
            hi,
        }
    }
}

/// The CIF input format.
pub struct CifInputFormat {
    pub base: String,
    /// Columns to materialize; `None` reads all columns.
    pub columns: Option<Vec<String>>,
    pub mode: ScanMode,
    pub multi: MultiSplit,
    /// Conjunctive range predicates for zone-map block skipping. Pruning
    /// never changes results — it only elides groups no row of which can
    /// pass the predicates.
    pub zone_preds: Vec<ZonePred>,
    /// The table as the last [`InputFormat::splits`] call resolved it: a
    /// job opens `_meta` once, when it plans, and every `open()` of that
    /// job reads the groups of that same snapshot, through the column files
    /// it located. Replaced by each `splits()`, so a format reused for a
    /// later job never serves an earlier job's metadata.
    table: RwLock<Option<Arc<Planned>>>,
}

/// One job's table snapshot: `_meta`, every live group's column files as
/// the location fold resolved them, and the indexes of the columns `open()`
/// reads and zone-checks — so `open()` formats and looks up no path.
struct Planned {
    reader: CifReader,
    files: Arc<[GroupFiles]>,
    /// Columns `splits()` sizes and `open()` materializes:
    /// [`CifInputFormat::columns`] or all.
    cols: Vec<usize>,
    /// `(column, lo, hi)` of each zone predicate on a column the table has;
    /// a predicate on an unknown column cannot prune (planner
    /// bug-proofing, not an error).
    zones: Vec<(usize, i32, i32)>,
}

impl CifInputFormat {
    pub fn new(base: impl Into<String>) -> CifInputFormat {
        CifInputFormat {
            base: base.into(),
            columns: None,
            mode: ScanMode::default(),
            multi: MultiSplit::Single,
            zone_preds: Vec::new(),
            table: RwLock::new(None),
        }
    }

    pub fn with_columns(mut self, columns: Vec<String>) -> CifInputFormat {
        self.columns = Some(columns);
        self
    }

    pub fn with_mode(mut self, mode: ScanMode) -> CifInputFormat {
        self.mode = mode;
        self
    }

    pub fn with_multi(mut self, multi: MultiSplit) -> CifInputFormat {
        self.multi = multi;
        self
    }

    pub fn with_zone_preds(mut self, preds: Vec<ZonePred>) -> CifInputFormat {
        self.zone_preds = preds;
        self
    }

    /// Zone-map check for one row group: `Ok(true)` means some predicate's
    /// range is provably disjoint from the group's value range and the
    /// group can be skipped. Costs one header-sized prefix read (≤
    /// [`ZONE_HEADER_MAX`] bytes) of a resolved file per checked column.
    fn zone_prunes(planned: &Planned, files: &GroupFiles, io: &TaskIo) -> Result<bool> {
        for &(c, lo, hi) in &planned.zones {
            let prefix =
                io.read_prefix_resolved(located_file(files, c)?, ZONE_HEADER_MAX as u64)?;
            io.stats.add_zone_checked(1);
            if let Some((min, max)) = peek_zone_map(&prefix)? {
                if max < lo || min > hi {
                    io.stats.add_zone_skipped(1);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// `_meta` and the table's location fold, both of one namespace epoch.
    /// The fold is the one the DFS keeps for this table when the namespace
    /// has not changed since it was built, and one fresh walk otherwise; a
    /// change between reading the epoch and `_meta` (a concurrent writer)
    /// means reading both again.
    fn resolve(dfs: &Dfs, base: &str) -> Result<(CifReader, Arc<[GroupFiles]>)> {
        loop {
            let epoch = dfs.namespace_epoch();
            let reader = CifReader::open(dfs, base)?;
            if let Some(files) = dfs.table_locations(base, epoch, || reader.locate_files(dfs))? {
                return Ok((reader, files));
            }
        }
    }

    /// Resolve table `base` and the columns `open()` reads and zone-checks.
    fn plan(&self, dfs: &Dfs, base: &str) -> Result<Planned> {
        let (reader, files) = Self::resolve(dfs, base)?;
        let cols = match &self.columns {
            Some(names) => names
                .iter()
                .map(|n| reader.column_index(n))
                .collect::<Result<_>>()?,
            None => (0..reader.schema().len()).collect(),
        };
        let zones = self
            .zone_preds
            .iter()
            .filter_map(|zp| Some((reader.column_index(&zp.column).ok()?, zp.lo, zp.hi)))
            .collect();
        Ok(Planned {
            reader,
            files,
            cols,
            zones,
        })
    }
}

impl InputFormat for CifInputFormat {
    fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
        let planned = Arc::new(self.plan(dfs, &self.base)?);
        *self.table.write() = Some(Arc::clone(&planned));
        let located = planned.reader.project(&planned.files, &planned.cols)?;

        // (groups, hosts, bytes) of each split.
        let packs: Vec<(Vec<usize>, Vec<NodeId>, u64)> = match self.multi {
            MultiSplit::Single => located
                .into_iter()
                .enumerate()
                .map(|(g, loc)| (vec![g], loc.hosts, loc.bytes))
                .collect(),
            MultiSplit::OnePerNode => {
                let workers = dfs.cluster().num_workers();
                let mut per_node: Vec<(Vec<usize>, u64)> = vec![(Vec::new(), 0); workers];
                for (g, loc) in located.iter().enumerate() {
                    // Prefer hosts holding the group; fall back to any node.
                    let load = |c: usize| per_node.get(c).map(|(_, bytes)| (*bytes, c));
                    let chosen = if loc.hosts.is_empty() {
                        (0..workers).filter_map(load).min()
                    } else {
                        loc.hosts.iter().filter_map(|n| load(n.0)).min()
                    };
                    let slot = chosen
                        .and_then(|(_, c)| per_node.get_mut(c))
                        .ok_or_else(|| {
                            ClydeError::MapReduce(format!("no worker can take row group {g}"))
                        })?;
                    slot.0.push(g);
                    slot.1 += loc.bytes;
                }
                per_node
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (gs, _))| !gs.is_empty())
                    .map(|(node, (gs, bytes))| (gs, vec![NodeId(node)], bytes))
                    .collect()
            }
        };

        Ok(packs
            .into_iter()
            .enumerate()
            .map(|(index, (groups, hosts, bytes))| InputSplit {
                index,
                spec: SplitSpec::Groups {
                    base: self.base.clone(),
                    groups,
                },
                hosts,
                bytes,
            })
            .collect())
    }

    fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
        let SplitSpec::Groups { base, groups } = &split.spec else {
            return Err(ClydeError::MapReduce("CIF expects group splits".into()));
        };
        let &group = groups.get(part).ok_or_else(|| {
            ClydeError::MapReduce(format!(
                "part {part} out of range for multi-split of {} groups",
                groups.len()
            ))
        })?;
        // The table this job's `splits()` resolved; a split this format did
        // not plan (no `splits()` yet, or another table's) resolves its own.
        let held = self.table.read().clone();
        let planned = match held.filter(|p| p.reader.meta().base == *base) {
            Some(planned) => planned,
            None => Arc::new(self.plan(&io.dfs, base)?),
        };
        let files = planned
            .files
            .get(group)
            .ok_or_else(|| ClydeError::Format(format!("row group {group} out of range")))?;
        // Zone-map pruning: decide from column-chunk headers alone whether
        // this group can contain qualifying rows; if not, hand back an
        // empty reader of the requested shape.
        if Self::zone_prunes(&planned, files, io)? {
            return Ok(match self.mode {
                ScanMode::Blocks { .. } => {
                    Reader::Blocks(Box::new(SlicedBlockReader::new(RowBlock::default(), 1)))
                }
                ScanMode::Rows => Reader::Rows(Box::new(RowsFromBlocks::new(Box::new(
                    SlicedBlockReader::new(RowBlock::default(), 1),
                )))),
            });
        }
        let block = planned
            .reader
            .read_group_files(io, group, files, &planned.cols)?;
        match self.mode {
            ScanMode::Blocks { rows_per_block } => Ok(Reader::Blocks(Box::new(
                SlicedBlockReader::new(block, rows_per_block),
            ))),
            ScanMode::Rows => Ok(Reader::Rows(Box::new(RowsFromBlocks::new(Box::new(
                SlicedBlockReader::new(block, 4096),
            ))))),
        }
    }
}

/// Serves one decoded row group as blocks of at most `rows_per_block` rows,
/// in row order. The scan takes them as [`BlockReader::next_range`]s — row
/// ranges of the one shared group, nothing copied; [`BlockReader::next_block`]
/// copies each range out into an owned block.
pub struct SlicedBlockReader {
    block: Arc<RowBlock>,
    pos: usize,
    rows_per_block: usize,
}

impl SlicedBlockReader {
    pub fn new(block: RowBlock, rows_per_block: usize) -> SlicedBlockReader {
        SlicedBlockReader {
            block: Arc::new(block),
            pos: 0,
            rows_per_block: rows_per_block.max(1),
        }
    }

    /// The next `rows_per_block` rows (fewer at the end of the group).
    fn next_rows(&mut self) -> Option<Range<usize>> {
        let len = self.block.len();
        if self.pos >= len {
            return None;
        }
        let end = self.pos.saturating_add(self.rows_per_block).min(len);
        let rows = self.pos..end;
        self.pos = end;
        Some(rows)
    }
}

impl BlockReader for SlicedBlockReader {
    fn next_block(&mut self) -> Result<Option<RowBlock>> {
        let Some(rows) = self.next_rows() else {
            return Ok(None);
        };
        if rows.len() == self.block.len() {
            // Whole-group fast path: hand the group over uncopied unless a
            // range handed out earlier still shares it.
            let whole = std::mem::take(&mut self.block);
            return Ok(Some(Arc::unwrap_or_clone(whole)));
        }
        self.block.slice(rows.start, rows.end).map(Some)
    }

    fn next_range(&mut self) -> Result<Option<RowRange>> {
        Ok(self.next_rows().map(|rows| RowRange {
            block: Arc::clone(&self.block),
            rows,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cif::CifWriter;
    use clyde_common::{row, Field, Row, Schema};
    use std::sync::Arc;

    fn make_table(dfs: &Arc<Dfs>, base: &str, rows: usize, rpg: u64) {
        let schema = Schema::new(vec![Field::i32("a"), Field::i64("b"), Field::str("c")]);
        let mut w = CifWriter::new(Arc::clone(dfs), base, schema, rpg).unwrap();
        for i in 0..rows {
            w.append(&row![
                i as i32,
                (i * 2) as i64,
                if i % 3 == 0 { "x" } else { "y" }
            ])
            .unwrap();
        }
        w.close().unwrap();
    }

    fn drain_rows(fmt: &CifInputFormat, dfs: &Arc<Dfs>) -> Vec<Row> {
        let conf = JobConf::new();
        let splits = fmt.splits(dfs, &conf).unwrap();
        let io = TaskIo::client(Arc::clone(dfs));
        let mut rows = Vec::new();
        for s in &splits {
            for part in 0..s.spec.num_parts() {
                match fmt.open(s, part, &io).unwrap() {
                    Reader::Blocks(mut b) => {
                        while let Some(blk) = b.next_block().unwrap() {
                            rows.extend(blk.rows());
                        }
                    }
                    Reader::Rows(mut r) => {
                        while let Some((_, v)) = r.next().unwrap() {
                            rows.push(v);
                        }
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn single_split_per_group() {
        let dfs = Dfs::for_tests(4);
        make_table(&dfs, "/t", 20, 5);
        let fmt = CifInputFormat::new("/t");
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        assert_eq!(splits.len(), 4);
        assert!(splits.iter().all(|s| !s.hosts.is_empty()));
        assert!(splits.iter().all(|s| s.bytes > 0));
        let rows = drain_rows(&fmt, &dfs);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[7], row![7i32, 14i64, "y"]);
    }

    #[test]
    fn one_split_per_node_covers_everything_locally() {
        let dfs = Dfs::for_tests(3);
        make_table(&dfs, "/t", 60, 5); // 12 groups over 3 nodes
        let fmt = CifInputFormat::new("/t").with_multi(MultiSplit::OnePerNode);
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        assert!(splits.len() <= 3);
        // Each split is pinned to exactly one node that hosts its groups.
        let mut total_groups = 0;
        for s in &splits {
            assert_eq!(s.hosts.len(), 1);
            total_groups += s.spec.num_parts();
        }
        assert_eq!(total_groups, 12);
        assert_eq!(drain_rows(&fmt, &dfs).len(), 60);
    }

    #[test]
    fn projection_reads_and_sizes_only_the_named_columns() {
        let dfs = Dfs::for_tests(3);
        make_table(&dfs, "/t", 10, 10);
        let fmt = CifInputFormat::new("/t").with_columns(vec!["b".into()]);
        let rows = drain_rows(&fmt, &dfs);
        assert_eq!(rows[4], row![8i64]);
        // Split byte estimate covers only the projected columns.
        let splits = CifInputFormat::new("/t")
            .with_columns(vec!["a".into(), "c".into()])
            .splits(&dfs, &JobConf::new())
            .unwrap();
        let full = CifInputFormat::new("/t")
            .splits(&dfs, &JobConf::new())
            .unwrap();
        assert!(splits[0].bytes < full[0].bytes);
    }

    #[test]
    fn rows_mode_yields_rows() {
        let dfs = Dfs::for_tests(2);
        make_table(&dfs, "/t", 12, 4);
        let fmt = CifInputFormat::new("/t").with_mode(ScanMode::Rows);
        let rows = drain_rows(&fmt, &dfs);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn block_mode_respects_block_size() {
        let dfs = Dfs::for_tests(2);
        make_table(&dfs, "/t", 10, 10);
        let fmt = CifInputFormat::new("/t").with_mode(ScanMode::Blocks { rows_per_block: 3 });
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        let io = TaskIo::client(Arc::clone(&dfs));
        let mut reader = fmt.open(&splits[0], 0, &io).unwrap().into_blocks().unwrap();
        let mut sizes = Vec::new();
        while let Some(b) = reader.next_block().unwrap() {
            sizes.push(b.len());
        }
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn ranges_share_the_group_and_match_the_copied_blocks() {
        let block = RowBlock::new(vec![clyde_common::ColumnData::I32((0..10).collect())]).unwrap();
        let mut copies = SlicedBlockReader::new(block.clone(), 4);
        let mut ranges = SlicedBlockReader::new(block, 4);
        let mut shared: Option<Arc<RowBlock>> = None;
        let mut spans = Vec::new();
        while let Some(r) = ranges.next_range().unwrap() {
            let copy = copies.next_block().unwrap().unwrap();
            let rows = r.rows.clone();
            assert_eq!(r.block.slice(rows.start, rows.end).unwrap(), copy);
            let first = shared.get_or_insert_with(|| Arc::clone(&r.block));
            assert!(Arc::ptr_eq(first, &r.block), "one decoded group, shared");
            spans.push(rows);
        }
        assert_eq!(spans, vec![0..4, 4..8, 8..10]);
        assert!(copies.next_block().unwrap().is_none());
        // A whole-group block is handed over, not copied, and a reader
        // asked for zero rows per block still advances.
        let whole = RowBlock::new(vec![clyde_common::ColumnData::I32(vec![7; 3])]).unwrap();
        let mut one = SlicedBlockReader::new(whole.clone(), 0);
        assert_eq!(one.next_range().unwrap().map(|r| r.rows), Some(0..1));
        let mut all = SlicedBlockReader::new(whole.clone(), 8);
        assert_eq!(all.next_block().unwrap(), Some(whole));
        assert!(all.next_block().unwrap().is_none());
    }

    #[test]
    fn zone_preds_skip_disjoint_groups() {
        let dfs = Dfs::for_tests(2);
        // 20 rows in 4 groups of 5: column "a" is 0..4, 5..9, 10..14, 15..19.
        make_table(&dfs, "/t", 20, 5);
        let io = TaskIo::client(Arc::clone(&dfs));
        let fmt = CifInputFormat::new("/t").with_zone_preds(vec![ZonePred::new("a", 7, 12)]);
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        let mut rows = Vec::new();
        for s in &splits {
            for part in 0..s.spec.num_parts() {
                let mut b = fmt.open(s, part, &io).unwrap().into_blocks().unwrap();
                while let Some(blk) = b.next_block().unwrap() {
                    rows.extend(blk.rows());
                }
            }
        }
        // Groups 0 and 3 are disjoint from [7,12] and were skipped; groups
        // 1 and 2 survive whole (pruning is group-granular, not row-level).
        assert_eq!(rows.len(), 10);
        assert_eq!(io.stats.zone_skipped(), 2);
        assert_eq!(io.stats.zone_checked(), 4);
        // A non-i32 or unknown column never prunes.
        let fmt2 = CifInputFormat::new("/t")
            .with_zone_preds(vec![ZonePred::new("c", 0, 0), ZonePred::new("nope", 0, 0)]);
        let rows2 = drain_rows(&fmt2, &dfs);
        assert_eq!(rows2.len(), 20);
    }

    #[test]
    fn zone_skip_in_rows_mode_yields_empty_reader() {
        let dfs = Dfs::for_tests(2);
        make_table(&dfs, "/t", 10, 5);
        let io = TaskIo::client(Arc::clone(&dfs));
        let fmt = CifInputFormat::new("/t")
            .with_mode(ScanMode::Rows)
            .with_zone_preds(vec![ZonePred::new("a", 100, 200)]);
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        let mut n = 0;
        for s in &splits {
            for part in 0..s.spec.num_parts() {
                let mut r = fmt.open(s, part, &io).unwrap().into_rows().unwrap();
                while r.next().unwrap().is_some() {
                    n += 1;
                }
            }
        }
        assert_eq!(n, 0);
        assert_eq!(io.stats.zone_skipped(), 2);
    }

    #[test]
    fn open_bad_part_errors() {
        let dfs = Dfs::for_tests(2);
        make_table(&dfs, "/t", 4, 4);
        let fmt = CifInputFormat::new("/t");
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        let io = TaskIo::client(Arc::clone(&dfs));
        assert!(fmt.open(&splits[0], 5, &io).is_err());
    }
}
