//! CIF — the column-oriented table layout (paper Section 4.1).
//!
//! A CIF table at DFS path `base` consists of:
//!
//! * `base/_meta` — schema, rows per group, per-group row counts;
//! * `base/rg{g}/{column}.col` — one encoded column chunk per column per row
//!   group, every file of a row group created with placement group
//!   `base/rg{g}` so the co-locating policy puts them on one node set.
//!
//! A scan names the columns it needs and reads only those files — the I/O
//! saving measured by the paper's columnar-off ablation (3.4x average,
//! Section 6.5).

use crate::encoding::{decode_verified, encode_block};
use bytes::Bytes;
use clyde_common::{rowcodec, Field};
use clyde_common::{varint, ClydeError, Result, Row, RowBlock, RowBlockBuilder, Schema};
use clyde_dfs::{Dfs, GroupFiles, NodeId, ResolvedFile};
use clyde_mapred::TaskIo;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CIF1";

/// Metadata of a CIF table.
///
/// Row groups are addressed by *logical* index `0..num_groups()`; the
/// physical directory name is `first_group + logical`. Roll-out advances
/// `first_group` (dropping the oldest groups) and roll-in appends new ones,
/// so group directories are immutable once written — the property that
/// makes fact-table maintenance "straightforward" in the paper's contrast
/// with Llama's sorted projections (Section 2).
#[derive(Debug, Clone, PartialEq)]
pub struct CifTableMeta {
    pub base: String,
    pub schema: Schema,
    pub rows_per_group: u64,
    /// Physical index of the first (oldest) live row group.
    pub first_group: u64,
    /// Row count of each live group, oldest first (all equal to
    /// `rows_per_group` except possibly trailing partial groups from
    /// roll-in batch boundaries).
    pub group_rows: Vec<u64>,
}

impl CifTableMeta {
    pub fn num_groups(&self) -> usize {
        self.group_rows.len()
    }

    pub fn total_rows(&self) -> u64 {
        self.group_rows.iter().sum()
    }

    /// Physical directory index of a logical group.
    pub fn physical_group(&self, group: usize) -> u64 {
        self.first_group + group as u64
    }

    /// DFS path of one column chunk (logical group index).
    pub fn column_path(&self, group: usize, column: &str) -> String {
        let phys = self.physical_group(group);
        format!("{}/rg{phys:06}/{column}.col", self.base)
    }

    /// Placement group of a row group's files (logical group index).
    pub fn placement_group(&self, group: usize) -> String {
        let phys = self.physical_group(group);
        format!("{}/rg{phys:06}", self.base)
    }

    fn meta_path(base: &str) -> String {
        format!("{base}/_meta")
    }

    /// Serialized metadata bytes (used by maintenance operations that
    /// replace the `_meta` file).
    pub fn encode_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let types: Vec<_> = self.schema.fields().iter().map(|f| f.dtype).collect();
        rowcodec::write_types(&mut out, &types);
        varint::write_u64(&mut out, self.schema.len() as u64);
        for f in self.schema.fields() {
            varint::write_u64(&mut out, f.name.len() as u64);
            out.extend_from_slice(f.name.as_bytes());
        }
        varint::write_u64(&mut out, self.rows_per_group);
        varint::write_u64(&mut out, self.first_group);
        varint::write_u64(&mut out, self.group_rows.len() as u64);
        for &r in &self.group_rows {
            varint::write_u64(&mut out, r);
        }
        out
    }

    fn decode(base: &str, data: &[u8]) -> Result<CifTableMeta> {
        if !data.starts_with(MAGIC) {
            return Err(ClydeError::Format("not a CIF meta file".into()));
        }
        let mut pos = MAGIC.len();
        let types = rowcodec::read_types(data, &mut pos)?;
        if varint::read_u64(data, &mut pos)? != types.len() as u64 {
            return Err(ClydeError::Format(
                "CIF meta name/type count mismatch".into(),
            ));
        }
        let mut fields = Vec::with_capacity(types.len());
        for t in types {
            fields.push(Field::new(rowcodec::read_str(data, &mut pos)?, t));
        }
        let rows_per_group = varint::read_u64(data, &mut pos)?;
        let first_group = varint::read_u64(data, &mut pos)?;
        // The count is untrusted and sizes an allocation; every group costs
        // at least one byte, so more groups than bytes left is a lie.
        let g = varint::read_u64(data, &mut pos)?;
        if g > data.len().saturating_sub(pos) as u64 {
            return Err(ClydeError::Format("truncated CIF meta".into()));
        }
        let mut group_rows = Vec::with_capacity(g as usize);
        for _ in 0..g {
            group_rows.push(varint::read_u64(data, &mut pos)?);
        }
        Ok(CifTableMeta {
            base: base.to_string(),
            schema: Schema::new(fields),
            rows_per_group,
            first_group,
            group_rows,
        })
    }
}

/// Writer for a CIF table: whole row groups of encoded chunks through
/// [`CifWriter::write_group`], or rows through [`CifWriter::append`], which
/// buffers a group and writes it the same way.
pub struct CifWriter {
    dfs: Arc<Dfs>,
    meta: CifTableMeta,
    builder: RowBlockBuilder,
}

impl CifWriter {
    pub fn new(
        dfs: Arc<Dfs>,
        base: impl Into<String>,
        schema: Schema,
        rows_per_group: u64,
    ) -> Result<CifWriter> {
        if rows_per_group == 0 {
            return Err(ClydeError::Config("rows_per_group must be positive".into()));
        }
        let meta = CifTableMeta {
            base: base.into(),
            schema,
            rows_per_group,
            first_group: 0,
            group_rows: Vec::new(),
        };
        Ok(CifWriter::resume(dfs, meta))
    }

    /// Continue an existing table: new groups land after its live ones, in
    /// physical directories no group has used (roll-out only advances
    /// `first_group`).
    pub(crate) fn resume(dfs: Arc<Dfs>, meta: CifTableMeta) -> CifWriter {
        let dtypes: Vec<_> = meta.schema.fields().iter().map(|f| f.dtype).collect();
        CifWriter {
            dfs,
            meta,
            builder: RowBlockBuilder::new(&dtypes),
        }
    }

    pub(crate) fn meta(&self) -> &CifTableMeta {
        &self.meta
    }

    pub fn append(&mut self, row: &Row) -> Result<()> {
        self.builder.push_row(row)?;
        if self.builder.len() as u64 >= self.meta.rows_per_group {
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

    /// Write one row group of `rows` rows: one encoded chunk per schema
    /// column, each its own file in the group's placement group.
    pub fn write_group(&mut self, rows: u64, chunks: &[Vec<u8>]) -> Result<()> {
        if !self.builder.is_empty() {
            return Err(ClydeError::Config(
                "write_group while appended rows are buffered".into(),
            ));
        }
        let fields = self.meta.schema.fields();
        if chunks.len() != fields.len() {
            return Err(ClydeError::Format(format!(
                "{} chunks for {} columns",
                chunks.len(),
                fields.len()
            )));
        }
        let group = self.meta.group_rows.len();
        let placement = self.meta.placement_group(group);
        for (field, chunk) in fields.iter().zip(chunks) {
            let path = self.meta.column_path(group, &field.name);
            self.dfs.write_file(path, Some(placement.clone()), chunk)?;
        }
        self.meta.group_rows.push(rows);
        Ok(())
    }

    /// Flush the tail group and return the metadata, unpublished.
    pub(crate) fn finish(mut self) -> Result<(Arc<Dfs>, CifTableMeta)> {
        self.flush()?;
        Ok((self.dfs, self.meta))
    }

    /// Flush the tail group and write the meta file.
    pub fn close(self) -> Result<CifTableMeta> {
        let (dfs, meta) = self.finish()?;
        dfs.write_file(CifTableMeta::meta_path(&meta.base), None, &meta.encode())?;
        Ok(meta)
    }
}

/// Where one row group lives and what a projection of it costs to read
/// (see [`CifReader::locate_groups`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupLocation {
    /// Nodes holding every column file of the group.
    pub hosts: Vec<NodeId>,
    /// Stored bytes of the projected columns.
    pub bytes: u64,
}

/// Column `c`'s file in a group's [`CifReader::locate_files`] entry.
pub(crate) fn located_file(group: &GroupFiles, c: usize) -> Result<&ResolvedFile> {
    group
        .files
        .get(c)
        .ok_or_else(|| ClydeError::Format(format!("column {c} out of range")))
}

/// Reader for a CIF table.
#[derive(Debug, Clone)]
pub struct CifReader {
    meta: CifTableMeta,
}

impl CifReader {
    pub fn open(dfs: &Dfs, base: &str) -> Result<CifReader> {
        let data = dfs.read_file(&CifTableMeta::meta_path(base), None)?;
        Ok(CifReader {
            meta: CifTableMeta::decode(base, &data)?,
        })
    }

    pub fn meta(&self) -> &CifTableMeta {
        &self.meta
    }

    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// Read the selected columns of one row group. Only the named columns'
    /// files are touched — the heart of CIF's I/O saving. Each chunk comes
    /// through the DFS's sealed read, which checks its seal once per stored
    /// replica, and is then decoded without re-hashing it; a plain `i32`
    /// chunk is not decoded but read in place. The block has the group's
    /// row count from `_meta`, even with no columns selected.
    pub fn read_group(&self, io: &TaskIo, group: usize, col_indices: &[usize]) -> Result<RowBlock> {
        self.read_chunks(group, col_indices, |_, name| {
            io.read_sealed(&self.meta.column_path(group, name))
        })
    }

    /// [`CifReader::read_group`] through `files`, the group's entry of this
    /// table's [`CifReader::locate_files`]: the same reads, with no path
    /// formatted or looked up. A file deleted since it was located is a
    /// typed error naming its path.
    pub fn read_group_files(
        &self,
        io: &TaskIo,
        group: usize,
        files: &GroupFiles,
        col_indices: &[usize],
    ) -> Result<RowBlock> {
        self.read_chunks(group, col_indices, |c, _| {
            io.read_sealed_resolved(located_file(files, c)?)
        })
    }

    /// Fetch each selected column's chunk of `group` with `fetch(column,
    /// name)` and decode it against the group's row count.
    fn read_chunks(
        &self,
        group: usize,
        col_indices: &[usize],
        mut fetch: impl FnMut(usize, &str) -> Result<Bytes>,
    ) -> Result<RowBlock> {
        let expected = *self
            .meta
            .group_rows
            .get(group)
            .ok_or_else(|| ClydeError::Format(format!("row group {group} out of range")))?;
        let rows = usize::try_from(expected)
            .map_err(|_| ClydeError::Format(format!("row group {group} has {expected} rows")))?;
        let mut columns = Vec::with_capacity(col_indices.len());
        for &ci in col_indices {
            let name = self.column_name(ci)?;
            let data = fetch(ci, name)?;
            let col = decode_verified(&data, rows)?;
            if col.len() != rows {
                return Err(ClydeError::Format(format!(
                    "column {name} of group {group} has {} rows, expected {expected}",
                    col.len()
                )));
            }
            columns.push(col);
        }
        RowBlock::with_len(columns, rows)
    }

    /// All columns of one group (convenience; used by the columnar-off
    /// ablation which deliberately reads everything).
    pub fn read_group_all(&self, io: &TaskIo, group: usize) -> Result<RowBlock> {
        let all: Vec<usize> = (0..self.meta.schema.len()).collect();
        self.read_group(io, group, &all)
    }

    /// Nodes that hold every column file of `group` (all columns of the
    /// schema, not just a projection) — candidates for a fully local scan.
    pub fn group_hosts(&self, dfs: &Dfs, group: usize) -> Result<Vec<NodeId>> {
        let paths: Vec<String> = self
            .meta
            .schema
            .fields()
            .iter()
            .map(|f| self.meta.column_path(group, &f.name))
            .collect();
        dfs.common_hosts(&paths)
    }

    /// Hosts and projected bytes of every live group, from one pass over
    /// the table's `rg…` namespace range: [`CifReader::locate_files`]
    /// projected onto `col_indices` ([`CifReader::project`]). The cold
    /// reference for what a planned scan is told.
    pub fn locate_groups(&self, dfs: &Dfs, col_indices: &[usize]) -> Result<Vec<GroupLocation>> {
        self.project(&self.locate_files(dfs)?, col_indices)
    }

    /// Where every live group's column files are, from one pass over the
    /// table's `rg…` namespace range (one namenode lock) instead of a
    /// lookup per column file. Hosts follow [`CifReader::group_hosts`]'s
    /// rule — every column file, intersected in schema order — and each
    /// column file is kept as the walk resolved it (path, length, blocks),
    /// in schema order. A missing column file of a live group is an error.
    pub fn locate_files(&self, dfs: &Dfs) -> Result<Vec<GroupFiles>> {
        /// One group while its files stream past.
        #[derive(Clone, Default)]
        struct Acc {
            /// Each column file, once it has been seen.
            files: Vec<Option<ResolvedFile>>,
            /// Intersection of the files seen so far, in arrival order.
            common: Option<Vec<NodeId>>,
            /// Hosts of the first schema column's file: files arrive in
            /// path order, but the result keeps *this* file's order.
            lead: Vec<NodeId>,
        }
        let empty = Acc {
            files: vec![None; self.meta.schema.len()],
            ..Acc::default()
        };
        let mut groups = vec![empty; self.meta.num_groups()];
        let prefix = format!("{}/rg", self.meta.base);
        dfs.locate_prefix(&prefix, |file| {
            // Files of rolled-out or not-yet-published groups are not ours.
            let Some((g, c)) = file
                .path
                .strip_prefix(&prefix)
                .and_then(|rest| self.live_column(rest))
            else {
                return;
            };
            let Some(group) = groups.get_mut(g) else {
                return;
            };
            let Some(slot) = group.files.get_mut(c) else {
                return;
            };
            *slot = Some(file.resolved());
            match &mut group.common {
                None => group.common = Some(file.hosts.to_vec()),
                Some(common) => common.retain(|n| file.hosts.contains(n)),
            }
            if c == 0 {
                group.lead = file.hosts.to_vec();
            }
        })?;
        let missing = |g: usize, c: usize| match self.column_name(c) {
            Ok(name) => {
                ClydeError::Dfs(format!("no such file: {}", self.meta.column_path(g, name)))
            }
            Err(e) => e,
        };
        groups
            .into_iter()
            .enumerate()
            .map(|(g, group)| {
                let files = group
                    .files
                    .into_iter()
                    .enumerate()
                    .map(|(c, file)| file.ok_or_else(|| missing(g, c)))
                    .collect::<Result<Vec<_>>>()?;
                let common = group.common.unwrap_or_default();
                let mut hosts = group.lead;
                hosts.retain(|n| common.contains(n));
                Ok(GroupFiles { hosts, files })
            })
            .collect()
    }

    /// Hosts and projected bytes of every group of `files` (this table's
    /// [`CifReader::locate_files`]): a column's bytes count as often as
    /// `col_indices` names it. Touches no namespace.
    pub fn project(
        &self,
        files: &[GroupFiles],
        col_indices: &[usize],
    ) -> Result<Vec<GroupLocation>> {
        if files.len() != self.meta.num_groups() {
            return Err(ClydeError::Format(format!(
                "{} located groups for a {}-group table",
                files.len(),
                self.meta.num_groups()
            )));
        }
        let len = |group: &GroupFiles, c: usize| located_file(group, c).map(|f| f.len);
        files
            .iter()
            .map(|group| {
                Ok(GroupLocation {
                    hosts: group.hosts.clone(),
                    bytes: col_indices
                        .iter()
                        .map(|&c| len(group, c))
                        .sum::<Result<_>>()?,
                })
            })
            .collect()
    }

    /// `{phys:06}/{column}.col` → (logical group, column) of a live group's
    /// column file, if it is one. Only the spelling `column_path` writes is
    /// accepted, so no two paths name the same column of the same group.
    fn live_column(&self, rest: &str) -> Option<(usize, usize)> {
        let (digits, file) = rest.split_once('/')?;
        let canonical = digits.len() == 6 || (digits.len() > 6 && !digits.starts_with('0'));
        if !canonical || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let phys = digits.parse::<u64>().ok()?;
        let group = usize::try_from(phys.checked_sub(self.meta.first_group)?).ok()?;
        if group >= self.meta.num_groups() {
            return None;
        }
        let col = self.meta.schema.index_of(file.strip_suffix(".col")?).ok()?;
        Some((group, col))
    }

    /// Materialize the entire table as rows (test/reference helper).
    pub fn read_all_rows(&self, dfs: &Arc<Dfs>) -> Result<Vec<Row>> {
        let io = TaskIo::client(Arc::clone(dfs));
        let mut rows = Vec::with_capacity(self.meta.total_rows() as usize);
        for g in 0..self.meta.num_groups() {
            let block = self.read_group_all(&io, g)?;
            rows.extend(block.rows());
        }
        Ok(rows)
    }

    /// Find a column's index by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.meta.schema.index_of(name)
    }

    /// The name of column `c`; a column the table does not have is a typed
    /// error.
    fn column_name(&self, c: usize) -> Result<&str> {
        let fields = self.meta.schema.fields();
        fields.get(c).map(|f| f.name.as_str()).ok_or_else(|| {
            ClydeError::Format(format!("column {c} of a {}-column table", fields.len()))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use clyde_common::{row, Datum, DatumType};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::i32("k"),
            Field::str("region"),
            Field::i64("revenue"),
        ])
    }

    fn write_table(dfs: &Arc<Dfs>, base: &str, n: usize, rpg: u64) -> CifTableMeta {
        let mut w = CifWriter::new(Arc::clone(dfs), base, schema(), rpg).unwrap();
        for i in 0..n {
            let region = if i % 2 == 0 { "ASIA" } else { "EUROPE" };
            w.append(&row![i as i32, region, (i as i64) * 10]).unwrap();
        }
        w.close().unwrap()
    }

    #[test]
    fn roundtrip_with_partial_tail_group() {
        let dfs = Dfs::for_tests(4);
        let meta = write_table(&dfs, "/t/fact", 25, 10);
        assert_eq!(meta.group_rows, vec![10, 10, 5]);
        let reader = CifReader::open(&dfs, "/t/fact").unwrap();
        assert_eq!(reader.meta(), &meta);
        let rows = reader.read_all_rows(&dfs).unwrap();
        assert_eq!(rows.len(), 25);
        assert_eq!(rows[3], row![3i32, "EUROPE", 30i64]);
        assert_eq!(rows[24], row![24i32, "ASIA", 240i64]);
    }

    #[test]
    fn empty_table_roundtrips() {
        let dfs = Dfs::for_tests(2);
        let w = CifWriter::new(Arc::clone(&dfs), "/t/empty", schema(), 8).unwrap();
        let meta = w.close().unwrap();
        assert_eq!(meta.num_groups(), 0);
        let reader = CifReader::open(&dfs, "/t/empty").unwrap();
        assert!(reader.read_all_rows(&dfs).unwrap().is_empty());
    }

    #[test]
    fn projection_reads_only_selected_columns() {
        let dfs = Dfs::for_tests(4);
        write_table(&dfs, "/t/fact", 100, 50);
        let reader = CifReader::open(&dfs, "/t/fact").unwrap();
        let io = TaskIo::client(Arc::clone(&dfs));
        let block = reader.read_group(&io, 0, &[0, 2]).unwrap();
        assert_eq!(block.num_columns(), 2);
        assert_eq!(block.columns()[0].get(5), Some(Datum::I32(5)));
        assert_eq!(block.columns()[1].get(5), Some(Datum::I64(50)));
        // Byte accounting: two columns cost less than all three.
        let partial = reader.locate_groups(&dfs, &[0, 2]).unwrap();
        let full = reader.locate_groups(&dfs, &[0, 1, 2]).unwrap();
        assert!(partial.iter().zip(&full).all(|(p, f)| p.bytes < f.bytes));
        assert_eq!(io.stats.total(), partial[0].bytes);
    }

    #[test]
    fn a_zero_column_read_has_the_groups_rows() {
        let dfs = Dfs::for_tests(4);
        write_table(&dfs, "/t/fact", 25, 10);
        let reader = CifReader::open(&dfs, "/t/fact").unwrap();
        let io = TaskIo::client(Arc::clone(&dfs));
        let lens: Vec<(usize, usize)> = (0..3)
            .map(|g| {
                let block = reader.read_group(&io, g, &[]).unwrap();
                (block.len(), block.num_columns())
            })
            .collect();
        assert_eq!(lens, vec![(10, 0), (10, 0), (5, 0)]);
        assert_eq!(io.stats.total(), 0, "no column was read");
        assert!(reader.read_group(&io, 3, &[]).is_err());
    }

    #[test]
    fn locate_groups_matches_per_file_lookups() {
        // Default placement and tiny blocks: multi-block column files whose
        // replica sets differ, so the hosts rule and its order are exercised.
        let dfs = Dfs::new(
            clyde_dfs::ClusterSpec::tiny(4),
            clyde_dfs::DfsOptions {
                block_size: 16,
                replication: 3,
                policy: Box::new(clyde_dfs::DefaultPlacement),
            },
        );
        write_table(&dfs, "/t/fact", 47, 10);
        // A sibling table and an unpublished group must not leak in.
        write_table(&dfs, "/t/fact/rgx", 5, 5);
        dfs.write_file("/t/fact/rg000009/k.col", None, b"orphan")
            .unwrap();
        let reader = CifReader::open(&dfs, "/t/fact").unwrap();
        let cols = [2usize, 0];
        let located = reader.locate_groups(&dfs, &cols).unwrap();
        assert_eq!(located.len(), 5);
        for (g, loc) in located.iter().enumerate() {
            assert_eq!(loc.hosts, reader.group_hosts(&dfs, g).unwrap(), "group {g}");
            let bytes: u64 = cols
                .iter()
                .map(|&c| {
                    let name = &reader.schema().field(c).name;
                    dfs.file_len(&reader.meta().column_path(g, name)).unwrap()
                })
                .sum();
            assert_eq!(loc.bytes, bytes, "group {g}");
        }
        // A missing column file is the same typed error a lookup gives.
        dfs.delete("/t/fact/rg000003/region.col").unwrap();
        let err = reader.locate_groups(&dfs, &cols).unwrap_err();
        assert_eq!(
            err.to_string(),
            reader.group_hosts(&dfs, 3).unwrap_err().to_string()
        );
    }

    #[test]
    fn row_groups_are_colocated() {
        let dfs = Dfs::for_tests(6); // co-locating policy, replication 2
        write_table(&dfs, "/t/fact", 60, 10);
        let reader = CifReader::open(&dfs, "/t/fact").unwrap();
        for g in 0..reader.meta().num_groups() {
            let hosts = reader.group_hosts(&dfs, g).unwrap();
            assert_eq!(hosts.len(), 2, "group {g} must share all replicas");
        }
    }

    #[test]
    fn local_scan_from_group_host_is_fully_local() {
        let dfs = Dfs::for_tests(5);
        write_table(&dfs, "/t/fact", 40, 10);
        let reader = CifReader::open(&dfs, "/t/fact").unwrap();
        let host = reader.group_hosts(&dfs, 2).unwrap()[0];
        let io = TaskIo::new(Arc::clone(&dfs), host);
        reader.read_group(&io, 2, &[0, 1, 2]).unwrap();
        assert_eq!(io.stats.remote(), 0);
        assert!(io.stats.local() > 0);
    }

    #[test]
    fn schema_validation_on_append() {
        let dfs = Dfs::for_tests(2);
        let mut w = CifWriter::new(Arc::clone(&dfs), "/t/x", schema(), 4).unwrap();
        assert!(w.append(&row![1i32]).is_err()); // wrong arity
        assert!(w
            .append(&Row::new(vec![
                Datum::str("no"),
                Datum::str("a"),
                Datum::I64(1)
            ]))
            .is_err()); // wrong type
    }

    #[test]
    fn bad_group_and_column_errors() {
        let dfs = Dfs::for_tests(2);
        write_table(&dfs, "/t/f", 10, 5);
        let reader = CifReader::open(&dfs, "/t/f").unwrap();
        let io = TaskIo::client(Arc::clone(&dfs));
        assert!(reader.read_group(&io, 9, &[0]).is_err());
        assert!(reader.column_index("nope").is_err());
        assert_eq!(reader.column_index("revenue").unwrap(), 2);
    }

    #[test]
    fn meta_decode_rejects_garbage() {
        assert!(CifTableMeta::decode("/t", b"nope").is_err());
        assert!(CifTableMeta::decode("/t", b"").is_err());
    }

    /// A meta decoder must map every truncation of `good` and each crafted
    /// buffer to a typed error, and every single-bit flip to some table or a
    /// typed error — never a panic, whatever counts and lengths the bytes
    /// claim. (`rcfile` runs its decoder through this too.)
    pub(crate) fn assert_meta_decoder_is_total<T: std::fmt::Debug>(
        decode: impl Fn(&[u8]) -> Result<T>,
        good: &[u8],
        crafted: &[Vec<u8>],
    ) {
        decode(good).expect("the writer's own bytes decode");
        let cuts = (0..good.len()).map(|cut| good[..cut].to_vec());
        for bad in cuts.chain(crafted.iter().cloned()) {
            let r = decode(&bad);
            assert!(matches!(r, Err(ClydeError::Format(_))), "{bad:?}: {r:?}");
        }
        for bit in 0..good.len() * 8 {
            let mut bad = good.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&bad);
        }
    }

    /// `magic`, then `fields` as varints: a header whose counts and lengths
    /// are whatever the test wants them to claim.
    pub(crate) fn crafted_meta(magic: &[u8], fields: &[u64]) -> Vec<u8> {
        let mut out = magic.to_vec();
        for &v in fields {
            varint::write_u64(&mut out, v);
        }
        out
    }

    #[test]
    fn meta_decode_survives_damage_and_lying_counts() {
        let dfs = Dfs::for_tests(2);
        let good = write_table(&dfs, "/t/dmg", 25, 10).encode();
        // No columns, then (rows per group, first group and) a group count of
        // 2^61; and one `i64` column (tag 1) whose name claims u64::MAX bytes.
        let huge_groups = crafted_meta(MAGIC, &[0, 0, 10, 0, 1 << 61]);
        let huge_name = crafted_meta(MAGIC, &[1, 1, 1, u64::MAX]);
        assert_meta_decoder_is_total(
            |bytes| CifTableMeta::decode("/t/dmg", bytes),
            &good,
            &[huge_groups, huge_name],
        );
    }

    #[test]
    fn write_group_checks_its_chunks_and_the_append_buffer() {
        let dfs = Dfs::for_tests(2);
        let mut w = CifWriter::new(Arc::clone(&dfs), "/t/wg", schema(), 4).unwrap();
        assert!(w.write_group(1, &[]).is_err(), "one chunk per column");
        w.append(&row![1i32, "a", 1i64]).unwrap();
        let chunks = vec![Vec::new(); 3];
        assert!(w.write_group(1, &chunks).is_err(), "rows are buffered");
        assert_eq!(w.close().unwrap().group_rows, vec![1]);
    }

    #[test]
    fn zero_rows_per_group_rejected() {
        let dfs = Dfs::for_tests(2);
        assert!(CifWriter::new(dfs, "/t/y", schema(), 0).is_err());
    }

    #[test]
    fn rows_per_group_one_makes_one_group_per_row() {
        let dfs = Dfs::for_tests(2);
        let meta = write_table(&dfs, "/t/tiny", 3, 1);
        assert_eq!(meta.num_groups(), 3);
        assert_eq!(meta.total_rows(), 3);
    }

    #[test]
    fn datum_types_survive_roundtrip() {
        let dfs = Dfs::for_tests(2);
        let s = Schema::new(vec![Field::f64("x"), Field::str("y")]);
        let mut w = CifWriter::new(Arc::clone(&dfs), "/t/fs", s, 4).unwrap();
        w.append(&row![1.5f64, "a"]).unwrap();
        w.append(&row![-0.25f64, ""]).unwrap();
        w.close().unwrap();
        let r = CifReader::open(&dfs, "/t/fs").unwrap();
        assert_eq!(r.schema().field(0).dtype, DatumType::F64);
        let rows = r.read_all_rows(&dfs).unwrap();
        assert_eq!(rows[1], row![-0.25f64, ""]);
    }
}
