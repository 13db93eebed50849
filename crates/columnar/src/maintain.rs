//! Fact-table maintenance: roll-in and roll-out.
//!
//! The paper contrasts Clydesdale with Llama on exactly this point
//! (Section 2): because the fact table is not kept in any sorted order,
//! "roll-in and roll-out of fact table data is straightforward" — new data
//! appends as fresh row groups, old data drops by deleting whole row
//! groups, and nothing is ever merged or rewritten. Section 8 lists
//! managing updates as the system's first avenue of future work; this
//! module implements that avenue:
//!
//! * [`CifAppender`] — open an existing CIF table and append rows; each
//!   flush creates new immutable row-group directories (placed by the same
//!   co-locating policy) and atomically replaces the metadata file;
//! * [`roll_out`] — drop the `n` oldest row groups, freeing their DFS
//!   blocks and advancing the table's `first_group` watermark.
//!
//! Readers opened before a maintenance operation keep working against the
//! groups that still exist; readers opened after see the new extent.

use crate::cif::{CifReader, CifTableMeta, CifWriter};
use clyde_common::{ClydeError, Result, Row};
use clyde_dfs::Dfs;
use std::sync::Arc;

/// Appends rows to an existing CIF table as new row groups: a [`CifWriter`]
/// resumed from the table's metadata, published by replacing `_meta`.
pub struct CifAppender {
    writer: CifWriter,
}

impl CifAppender {
    /// Open the table for roll-in. Fails if the table does not exist.
    pub fn open(dfs: Arc<Dfs>, base: &str) -> Result<CifAppender> {
        let meta = CifReader::open(&dfs, base)?.meta().clone();
        Ok(CifAppender {
            writer: CifWriter::resume(dfs, meta),
        })
    }

    /// Rows currently live in the table (before this batch lands).
    pub fn existing_rows(&self) -> u64 {
        self.writer.meta().total_rows()
    }

    pub fn append(&mut self, row: &Row) -> Result<()> {
        self.writer.append(row)
    }

    /// Flush the partial tail group (roll-in batches do not merge into the
    /// previous batch's tail — groups are immutable) and publish the new
    /// metadata.
    pub fn close(self) -> Result<CifTableMeta> {
        let (dfs, meta) = self.writer.finish()?;
        replace_meta(&dfs, &meta)?;
        Ok(meta)
    }
}

/// Drop the `n` oldest row groups of a CIF table, deleting their column
/// files and advancing the metadata watermark. Returns the new metadata.
pub fn roll_out(dfs: &Arc<Dfs>, base: &str, n: usize) -> Result<CifTableMeta> {
    let mut meta = CifReader::open(dfs, base)?.meta().clone();
    if n > meta.num_groups() {
        return Err(ClydeError::Config(format!(
            "cannot roll out {n} groups: table has {}",
            meta.num_groups()
        )));
    }
    // Delete the oldest n groups' files (logical indices 0..n).
    for g in 0..n {
        for field in meta.schema.fields() {
            dfs.delete(&meta.column_path(g, &field.name))?;
        }
    }
    meta.first_group += n as u64;
    meta.group_rows.drain(..n);
    replace_meta(dfs, &meta)?;
    Ok(meta)
}

/// Atomically (within the single-namenode model) replace the `_meta` file.
fn replace_meta(dfs: &Arc<Dfs>, meta: &CifTableMeta) -> Result<()> {
    let path = format!("{}/_meta", meta.base);
    if dfs.exists(&path) {
        dfs.delete(&path)?;
    }
    dfs.write_file(path, None, &meta.encode_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::{row, Field, Schema};
    use clyde_mapred::TaskIo;

    fn schema() -> Schema {
        Schema::new(vec![Field::i32("k"), Field::i64("v")])
    }

    fn base_table(dfs: &Arc<Dfs>, n: usize) {
        let mut w = CifWriter::new(Arc::clone(dfs), "/t/f", schema(), 10).unwrap();
        for i in 0..n {
            w.append(&row![i as i32, (i * 2) as i64]).unwrap();
        }
        w.close().unwrap();
    }

    fn all_keys(dfs: &Arc<Dfs>) -> Vec<i32> {
        CifReader::open(dfs, "/t/f")
            .unwrap()
            .read_all_rows(dfs)
            .unwrap()
            .iter()
            .map(|r| r.at(0).as_i32().unwrap())
            .collect()
    }

    #[test]
    fn roll_in_appends_new_groups() {
        let dfs = Dfs::for_tests(3);
        base_table(&dfs, 25); // groups [10, 10, 5]
        let mut a = CifAppender::open(Arc::clone(&dfs), "/t/f").unwrap();
        assert_eq!(a.existing_rows(), 25);
        for i in 25..42 {
            a.append(&row![i, (i * 2) as i64]).unwrap();
        }
        let meta = a.close().unwrap();
        // The 5-row tail group is untouched; the batch lands as [10, 7].
        assert_eq!(meta.group_rows, vec![10, 10, 5, 10, 7]);
        assert_eq!(all_keys(&dfs), (0..42).collect::<Vec<_>>());
    }

    #[test]
    fn roll_out_drops_oldest_groups() {
        let dfs = Dfs::for_tests(3);
        base_table(&dfs, 30); // groups [10, 10, 10]
        let before = dfs.used_bytes_per_node().iter().sum::<u64>();
        let meta = roll_out(&dfs, "/t/f", 2).unwrap();
        assert_eq!(meta.first_group, 2);
        assert_eq!(meta.group_rows, vec![10]);
        assert_eq!(all_keys(&dfs), (20..30).collect::<Vec<_>>());
        // Blocks of the dropped groups were freed.
        let after = dfs.used_bytes_per_node().iter().sum::<u64>();
        assert!(after < before);
    }

    #[test]
    fn roll_in_after_roll_out_never_reuses_directories() {
        let dfs = Dfs::for_tests(3);
        base_table(&dfs, 20); // phys rg0, rg1
        roll_out(&dfs, "/t/f", 1).unwrap(); // drops rg0
        let mut a = CifAppender::open(Arc::clone(&dfs), "/t/f").unwrap();
        for i in 100..115 {
            a.append(&row![i, 0i64]).unwrap();
        }
        let meta = a.close().unwrap();
        // Live logical groups: old rg1, new rg2, rg3 (physical).
        assert_eq!(meta.first_group, 1);
        assert_eq!(meta.group_rows, vec![10, 10, 5]);
        let keys = all_keys(&dfs);
        assert_eq!(&keys[..10], (10..20).collect::<Vec<_>>().as_slice());
        assert_eq!(&keys[10..], (100..115).collect::<Vec<_>>().as_slice());
        // Write-once discipline held: rg0 stays deleted, rg1 untouched.
        assert!(dfs.list("/t/f/rg000000/").is_empty());
    }

    #[test]
    fn rolled_in_groups_remain_colocated() {
        let dfs = Dfs::for_tests(5);
        base_table(&dfs, 10);
        let mut a = CifAppender::open(Arc::clone(&dfs), "/t/f").unwrap();
        for i in 0..10 {
            a.append(&row![i + 100, 0i64]).unwrap();
        }
        a.close().unwrap();
        let reader = CifReader::open(&dfs, "/t/f").unwrap();
        for g in 0..reader.meta().num_groups() {
            assert_eq!(
                reader.group_hosts(&dfs, g).unwrap().len(),
                2,
                "group {g} lost co-location"
            );
        }
        // And scans from a host stay fully local.
        let host = reader.group_hosts(&dfs, 1).unwrap()[0];
        let io = TaskIo::new(Arc::clone(&dfs), host);
        reader.read_group(&io, 1, &[0, 1]).unwrap();
        assert_eq!(io.stats.remote(), 0);
    }

    #[test]
    fn roll_out_more_than_exists_errors() {
        let dfs = Dfs::for_tests(2);
        base_table(&dfs, 15);
        assert!(roll_out(&dfs, "/t/f", 3).is_err());
        // Rolling out everything is allowed; the table becomes empty.
        let meta = roll_out(&dfs, "/t/f", 2).unwrap();
        assert_eq!(meta.num_groups(), 0);
        assert!(all_keys(&dfs).is_empty());
    }

    #[test]
    fn appender_on_missing_table_errors() {
        let dfs = Dfs::for_tests(2);
        assert!(CifAppender::open(dfs, "/nope").is_err());
    }
}
