//! RCFile — the PAX-style hybrid layout used by the Hive baseline.
//!
//! The paper's Hive experiments store all tables in RCFile (Section 6.2), "a
//! recently introduced hybrid columnar format for Hadoop that uses a
//! PAX-like layout of records within each HDFS block to eliminate
//! unnecessary I/O". The reproduction keeps its essential mechanics:
//!
//! * one data file per table, divided into row groups;
//! * within a row group, each column's values are stored contiguously as an
//!   encoded chunk, so a scan can read only the chunks of the columns it
//!   needs (range reads into the single file);
//! * a side metadata file records per-group, per-column (offset, length) —
//!   standing in for RCFile's in-band sync markers and key buffers.
//!
//! Contrast with CIF: RCFile keeps a table in *one* file, so its splits are
//! fixed by row-group boundaries — the paper notes the RCFile InputFormat
//! "did not allow us to decrease the number of splits", which is why Hive
//! pays per-task overheads 4,887 times in Q2.1's first stage.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the RCFile input format's per-job table handle, the same shape \
                as CIF's: each side held for a single statement and never while a DFS lock \
                is held"
)]

use crate::encoding::{decode_group_column, encode_block};
use crate::input::SlicedBlockReader;
use clyde_common::lockorder::RwLock;
use clyde_common::{
    rowcodec, varint, ClydeError, Field, Result, Row, RowBlock, RowBlockBuilder, Schema,
};
use clyde_dfs::Dfs;
use clyde_mapred::{
    input::RowsFromBlocks, InputFormat, InputSplit, JobConf, Reader, SplitSpec, TaskIo,
};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"RCF1";

/// Per-group, per-column chunk location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkLoc {
    offset: u64,
    len: u64,
}

/// Metadata of one RCFile table.
#[derive(Debug, Clone, PartialEq)]
pub struct RcFileMeta {
    pub base: String,
    pub schema: Schema,
    group_rows: Vec<u64>,
    chunks: Vec<Vec<ChunkLoc>>, // [group][column]
}

impl RcFileMeta {
    pub fn data_path(base: &str) -> String {
        format!("{base}.rc")
    }

    pub fn meta_path(base: &str) -> String {
        format!("{base}.rc.meta")
    }

    pub fn num_groups(&self) -> usize {
        self.group_rows.len()
    }

    /// Row count of group `g`, if the table has that group.
    pub fn group_rows(&self, g: usize) -> Option<u64> {
        self.group_rows.get(g).copied()
    }

    pub fn total_rows(&self) -> u64 {
        self.group_rows.iter().sum()
    }

    /// Bytes of the selected columns in one group.
    pub fn group_bytes(&self, g: usize, cols: &[usize]) -> Result<u64> {
        let locs = self
            .chunks
            .get(g)
            .ok_or_else(|| ClydeError::Format(format!("row group {g} out of range")))?;
        cols.iter()
            .map(|&c| {
                locs.get(c)
                    .map(|loc| loc.len)
                    .ok_or_else(|| ClydeError::Format(format!("column {c} out of range")))
            })
            .sum()
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let types: Vec<_> = self.schema.fields().iter().map(|f| f.dtype).collect();
        rowcodec::write_types(&mut out, &types);
        for f in self.schema.fields() {
            varint::write_u64(&mut out, f.name.len() as u64);
            out.extend_from_slice(f.name.as_bytes());
        }
        varint::write_u64(&mut out, self.group_rows.len() as u64);
        for (&rows, locs) in self.group_rows.iter().zip(&self.chunks) {
            varint::write_u64(&mut out, rows);
            for c in locs {
                varint::write_u64(&mut out, c.offset);
                varint::write_u64(&mut out, c.len);
            }
        }
        out
    }

    fn decode(base: &str, data: &[u8]) -> Result<RcFileMeta> {
        if !data.starts_with(MAGIC) {
            return Err(ClydeError::Format("not an RCFile meta file".into()));
        }
        let mut pos = MAGIC.len();
        let types = rowcodec::read_types(data, &mut pos)?;
        let mut fields = Vec::with_capacity(types.len());
        for t in types {
            fields.push(Field::new(rowcodec::read_str(data, &mut pos)?, t));
        }
        let ncols = fields.len();
        // The count is untrusted and sizes two allocations; every group
        // costs at least one byte, so more groups than bytes left is a lie.
        let ngroups = varint::read_u64(data, &mut pos)?;
        if ngroups > data.len().saturating_sub(pos) as u64 {
            return Err(ClydeError::Format("truncated RCFile meta".into()));
        }
        let mut group_rows = Vec::with_capacity(ngroups as usize);
        let mut chunks = Vec::with_capacity(ngroups as usize);
        for _ in 0..ngroups {
            group_rows.push(varint::read_u64(data, &mut pos)?);
            let mut cols = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let offset = varint::read_u64(data, &mut pos)?;
                let len = varint::read_u64(data, &mut pos)?;
                cols.push(ChunkLoc { offset, len });
            }
            chunks.push(cols);
        }
        Ok(RcFileMeta {
            base: base.to_string(),
            schema: Schema::new(fields),
            group_rows,
            chunks,
        })
    }
}

/// Streaming writer producing `{base}.rc` + `{base}.rc.meta`: whole row
/// groups of encoded chunks through [`RcFileWriter::write_group`], or rows
/// through [`RcFileWriter::append`], which buffers a group and writes it the
/// same way.
pub struct RcFileWriter {
    dfs: Arc<Dfs>,
    meta: RcFileMeta,
    builder: RowBlockBuilder,
    rows_per_group: u64,
    data: clyde_dfs::DfsWriter,
}

impl RcFileWriter {
    pub fn new(
        dfs: Arc<Dfs>,
        base: impl Into<String>,
        schema: Schema,
        rows_per_group: u64,
    ) -> Result<RcFileWriter> {
        if rows_per_group == 0 {
            return Err(ClydeError::Config("rows_per_group must be positive".into()));
        }
        let base = base.into();
        let data = dfs.create(RcFileMeta::data_path(&base), None, None)?;
        let dtypes: Vec<_> = schema.fields().iter().map(|f| f.dtype).collect();
        Ok(RcFileWriter {
            dfs,
            meta: RcFileMeta {
                base,
                schema,
                group_rows: Vec::new(),
                chunks: Vec::new(),
            },
            builder: RowBlockBuilder::new(&dtypes),
            rows_per_group,
            data,
        })
    }

    pub fn append(&mut self, row: &Row) -> Result<()> {
        self.builder.push_row(row)?;
        if self.builder.len() as u64 >= self.rows_per_group {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.builder.is_empty() {
            return Ok(());
        }
        let block = self.builder.take();
        self.write_group(block.len() as u64, &encode_block(&block)?)
    }

    /// Append one row group of `rows` rows: one encoded chunk per schema
    /// column, stored back to back in the data file.
    pub fn write_group(&mut self, rows: u64, chunks: &[Vec<u8>]) -> Result<()> {
        if !self.builder.is_empty() {
            return Err(ClydeError::Config(
                "write_group while appended rows are buffered".into(),
            ));
        }
        if chunks.len() != self.meta.schema.len() {
            return Err(ClydeError::Format(format!(
                "{} chunks for {} columns",
                chunks.len(),
                self.meta.schema.len()
            )));
        }
        let mut locs = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            locs.push(ChunkLoc {
                offset: self.data.bytes_written(),
                len: chunk.len() as u64,
            });
            self.data.write_all(chunk)?;
        }
        self.meta.group_rows.push(rows);
        self.meta.chunks.push(locs);
        Ok(())
    }

    pub fn close(mut self) -> Result<RcFileMeta> {
        self.flush()?;
        self.data.close()?;
        self.dfs.write_file(
            RcFileMeta::meta_path(&self.meta.base),
            None,
            &self.meta.encode(),
        )?;
        Ok(self.meta)
    }
}

/// Reader over an RCFile table.
#[derive(Debug, Clone)]
pub struct RcFileReader {
    meta: RcFileMeta,
}

impl RcFileReader {
    pub fn open(dfs: &Dfs, base: &str) -> Result<RcFileReader> {
        let data = dfs.read_file(&RcFileMeta::meta_path(base), None)?;
        Ok(RcFileReader {
            meta: RcFileMeta::decode(base, &data)?,
        })
    }

    pub fn meta(&self) -> &RcFileMeta {
        &self.meta
    }

    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// Read the selected columns of one group: one range read per chunk, so
    /// unselected columns cost no I/O (PAX's column skipping). The block
    /// has the group's row count from the metadata, even with no columns
    /// selected.
    pub fn read_group(&self, io: &TaskIo, group: usize, cols: &[usize]) -> Result<RowBlock> {
        let (Some(locs), Some(rows)) = (self.meta.chunks.get(group), self.meta.group_rows(group))
        else {
            return Err(ClydeError::Format(format!(
                "row group {group} out of range"
            )));
        };
        let rows = usize::try_from(rows)
            .map_err(|_| ClydeError::Format(format!("row group {group} has {rows} rows")))?;
        let path = RcFileMeta::data_path(&self.meta.base);
        let mut columns = Vec::with_capacity(cols.len());
        for &c in cols {
            let loc = locs
                .get(c)
                .ok_or_else(|| ClydeError::Format(format!("column {c} out of range")))?;
            let bytes = io.read_range(&path, loc.offset, loc.len)?;
            columns.push(decode_group_column(&bytes, rows)?);
        }
        RowBlock::with_len(columns, rows)
    }

    /// Materialize the whole table (test/reference helper).
    pub fn read_all_rows(&self, dfs: &Arc<Dfs>) -> Result<Vec<Row>> {
        let io = TaskIo::client(Arc::clone(dfs));
        let cols: Vec<usize> = (0..self.meta.schema.len()).collect();
        let mut rows = Vec::with_capacity(self.meta.total_rows() as usize);
        for g in 0..self.meta.num_groups() {
            let block = self.read_group(&io, g, &cols)?;
            rows.extend(block.rows());
        }
        Ok(rows)
    }
}

/// Hadoop input format over RCFile: one split per row group (the paper notes
/// this granularity cannot be coarsened, unlike MultiCIF).
pub struct RcFileInputFormat {
    pub base: String,
    pub columns: Option<Vec<String>>,
    /// The table as the last [`InputFormat::splits`] call resolved it, the
    /// way `CifInputFormat` holds its table: a job decodes `.meta` once,
    /// when it plans, and every `open()` of that job reads groups of that
    /// snapshot. Replaced by each `splits()`.
    table: RwLock<Option<Arc<RcFileReader>>>,
}

impl RcFileInputFormat {
    pub fn new(base: impl Into<String>) -> RcFileInputFormat {
        RcFileInputFormat {
            base: base.into(),
            columns: None,
            table: RwLock::new(None),
        }
    }

    pub fn with_columns(mut self, columns: Vec<String>) -> RcFileInputFormat {
        self.columns = Some(columns);
        self
    }

    fn resolve_cols(&self, schema: &Schema) -> Result<Vec<usize>> {
        match &self.columns {
            Some(names) => names.iter().map(|n| schema.index_of(n)).collect(),
            None => Ok((0..schema.len()).collect()),
        }
    }
}

impl InputFormat for RcFileInputFormat {
    fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
        let reader = Arc::new(RcFileReader::open(dfs, &self.base)?);
        *self.table.write() = Some(Arc::clone(&reader));
        let cols = self.resolve_cols(reader.schema())?;
        let hosts = dfs.hosts(&RcFileMeta::data_path(&self.base))?;
        (0..reader.meta().num_groups())
            .map(|g| {
                Ok(InputSplit {
                    index: g,
                    spec: SplitSpec::Groups {
                        base: self.base.clone(),
                        groups: vec![g],
                    },
                    hosts: hosts.clone(),
                    bytes: reader.meta().group_bytes(g, &cols)?,
                })
            })
            .collect()
    }

    fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
        let SplitSpec::Groups { base, groups } = &split.spec else {
            return Err(ClydeError::MapReduce("RCFile expects group splits".into()));
        };
        let &group = groups
            .get(part)
            .ok_or_else(|| ClydeError::MapReduce(format!("part {part} out of range")))?;
        // The table this job's `splits()` resolved; a split this format did
        // not plan (no `splits()` yet, or another table's) opens its own.
        let held = self.table.read().clone();
        let reader = match held.filter(|r| r.meta().base == *base) {
            Some(reader) => reader,
            None => Arc::new(RcFileReader::open(&io.dfs, base)?),
        };
        let cols = self.resolve_cols(reader.schema())?;
        let block = reader.read_group(io, group, &cols)?;
        // Hive consumes RCFile a row at a time.
        Ok(Reader::Rows(Box::new(RowsFromBlocks::new(Box::new(
            SlicedBlockReader::new(block, 4096),
        )))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::row;

    fn schema() -> Schema {
        Schema::new(vec![Field::i32("k"), Field::str("cat"), Field::i64("rev")])
    }

    fn make(dfs: &Arc<Dfs>, base: &str, n: usize, rpg: u64) -> RcFileMeta {
        let mut w = RcFileWriter::new(Arc::clone(dfs), base, schema(), rpg).unwrap();
        for i in 0..n {
            w.append(&row![
                i as i32,
                if i % 4 == 0 { "A" } else { "B" },
                i as i64
            ])
            .unwrap();
        }
        w.close().unwrap()
    }

    #[test]
    fn roundtrip() {
        let dfs = Dfs::for_tests(3);
        let meta = make(&dfs, "/hive/fact", 23, 10);
        assert_eq!(meta.num_groups(), 3);
        assert_eq!(meta.total_rows(), 23);
        let r = RcFileReader::open(&dfs, "/hive/fact").unwrap();
        let rows = r.read_all_rows(&dfs).unwrap();
        assert_eq!(rows.len(), 23);
        assert_eq!(rows[4], row![4i32, "A", 4i64]);
        assert_eq!(rows[22], row![22i32, "B", 22i64]);
    }

    #[test]
    fn a_zero_column_read_has_the_groups_rows() {
        let dfs = Dfs::for_tests(3);
        make(&dfs, "/hive/fact", 23, 10);
        let r = RcFileReader::open(&dfs, "/hive/fact").unwrap();
        let io = TaskIo::client(Arc::clone(&dfs));
        let lens: Vec<(usize, usize)> = (0..3)
            .map(|g| {
                let block = r.read_group(&io, g, &[]).unwrap();
                (block.len(), block.num_columns())
            })
            .collect();
        assert_eq!(lens, vec![(10, 0), (10, 0), (3, 0)]);
        assert_eq!(io.stats.total(), 0, "no column was read");
        assert!(r.read_group(&io, 3, &[]).is_err());
    }

    #[test]
    fn column_skipping_reads_fewer_bytes() {
        let dfs = Dfs::for_tests(3);
        make(&dfs, "/hive/fact", 200, 100);
        let r = RcFileReader::open(&dfs, "/hive/fact").unwrap();
        let io_partial = TaskIo::client(Arc::clone(&dfs));
        r.read_group(&io_partial, 0, &[2]).unwrap();
        let io_full = TaskIo::client(Arc::clone(&dfs));
        r.read_group(&io_full, 0, &[0, 1, 2]).unwrap();
        assert!(io_partial.stats.total() < io_full.stats.total());
        assert_eq!(
            io_partial.stats.total(),
            r.meta().group_bytes(0, &[2]).unwrap()
        );
        // Out-of-range groups and columns are typed errors, not panics.
        assert_eq!(r.meta().group_rows(1), Some(100));
        assert_eq!(r.meta().group_rows(2), None);
        assert!(r.meta().group_bytes(2, &[0]).is_err());
        assert!(r.meta().group_bytes(0, &[3]).is_err());
    }

    #[test]
    fn input_format_one_split_per_group() {
        let dfs = Dfs::for_tests(3);
        make(&dfs, "/hive/fact", 40, 8);
        let fmt = RcFileInputFormat::new("/hive/fact").with_columns(vec!["rev".into()]);
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        assert_eq!(splits.len(), 5);
        let io = TaskIo::client(Arc::clone(&dfs));
        let mut count = 0;
        for s in &splits {
            let mut reader = fmt.open(s, 0, &io).unwrap().into_rows().unwrap();
            while let Some((_, v)) = reader.next().unwrap() {
                assert_eq!(v.len(), 1);
                count += 1;
            }
        }
        assert_eq!(count, 40);
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(RcFileMeta::decode("/x", b"zzzz").is_err());
    }

    #[test]
    fn meta_decode_survives_damage_and_lying_counts() {
        use crate::cif::tests::{assert_meta_decoder_is_total, crafted_meta};
        let dfs = Dfs::for_tests(2);
        let good = make(&dfs, "/hive/dmg", 23, 10).encode();
        // No columns, then a group count of 2^61; and one `i64` column
        // (tag 1) whose name claims u64::MAX bytes.
        let huge_groups = crafted_meta(MAGIC, &[0, 1 << 61]);
        let huge_name = crafted_meta(MAGIC, &[1, 1, u64::MAX]);
        assert_meta_decoder_is_total(
            |bytes| RcFileMeta::decode("/hive/dmg", bytes),
            &good,
            &[huge_groups, huge_name],
        );
    }

    #[test]
    fn unknown_projection_column_errors() {
        let dfs = Dfs::for_tests(2);
        make(&dfs, "/hive/f2", 8, 8);
        let fmt = RcFileInputFormat::new("/hive/f2").with_columns(vec!["nope".into()]);
        assert!(fmt.splits(&dfs, &JobConf::new()).is_err());
    }
}
