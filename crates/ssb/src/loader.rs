//! Bulk loaders: generate SSB data and lay it out on the DFS.
//!
//! Matches the paper's storage setup (Section 6.2):
//!
//! * for Clydesdale, the fact table is stored in **(Multi-)CIF** and a
//!   master copy of each dimension table lives in the DFS (engines then
//!   cache dimensions on node-local disks);
//! * for Hive, *all* tables are stored in **RCFile**;
//! * optionally a text copy, for size comparisons (600 GB text vs 334 GB
//!   binary CIF at SF1000).

use crate::gen::SsbGen;
use crate::schema;
use clyde_columnar::encoding::encode_block;
use clyde_columnar::{CifTableMeta, CifWriter, RcFileWriter, TextWriter};
use clyde_common::{rowcodec, ClydeError, Result, Row};
use clyde_dfs::Dfs;
use std::sync::Arc;

/// Path conventions for an SSB dataset on the DFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsbLayout {
    pub root: String,
}

impl Default for SsbLayout {
    fn default() -> SsbLayout {
        SsbLayout {
            root: "/ssb".to_string(),
        }
    }
}

impl SsbLayout {
    pub fn new(root: impl Into<String>) -> SsbLayout {
        SsbLayout { root: root.into() }
    }

    /// CIF base directory of the fact table.
    pub fn fact_cif(&self) -> String {
        format!("{}/cif/lineorder", self.root)
    }

    /// RCFile base of a table (writer produces `{base}.rc` + meta).
    pub fn table_rc(&self, table: &str) -> String {
        format!("{}/rc/{table}", self.root)
    }

    /// Row-binary master copy of a dimension table.
    pub fn dim_bin(&self, table: &str) -> String {
        format!("{}/dims/{table}.bin", self.root)
    }

    /// Text copy of a table.
    pub fn table_text(&self, table: &str) -> String {
        format!("{}/text/{table}.tbl", self.root)
    }
}

/// What to materialize.
#[derive(Debug, Clone)]
pub struct LoadOpts {
    /// Rows per row group for CIF and RCFile (small in tests so multi-group
    /// code paths execute).
    pub rows_per_group: u64,
    /// Store the fact table in CIF (Clydesdale's layout).
    pub cif: bool,
    /// Store all tables in RCFile (Hive's layout).
    pub rcfile: bool,
    /// Also store the fact table as text.
    pub text: bool,
    /// Stable-sort fact rows by `lo_orderdate` before writing, so each CIF
    /// row group covers a narrow date range and zone maps on the date (and
    /// date-correlated) columns become selective. Never changes query
    /// results — only the physical row order.
    pub cluster_by_date: bool,
}

impl Default for LoadOpts {
    fn default() -> LoadOpts {
        LoadOpts {
            rows_per_group: 100_000,
            cif: true,
            rcfile: true,
            text: false,
            cluster_by_date: true,
        }
    }
}

/// Handle to a loaded dataset.
#[derive(Debug, Clone)]
pub struct SsbDataset {
    pub layout: SsbLayout,
    pub gen: SsbGen,
    pub cif_meta: Option<CifTableMeta>,
    /// Bytes of the fact table per format, for size comparisons.
    pub fact_bytes_cif: u64,
    pub fact_bytes_rc: u64,
    pub fact_bytes_text: u64,
}

/// Generate the dataset and write it to the DFS in the requested formats.
pub fn load(
    dfs: &Arc<Dfs>,
    gen: SsbGen,
    layout: &SsbLayout,
    opts: &LoadOpts,
) -> Result<SsbDataset> {
    if !opts.cif && !opts.rcfile && !opts.text {
        return Err(ClydeError::Config("no storage format selected".into()));
    }

    // --- Dimensions: row-binary master copies + optional RCFile. ---
    let dims: [(&str, Vec<Row>); 4] = [
        (schema::CUSTOMER, gen.gen_customer()),
        (schema::SUPPLIER, gen.gen_supplier()),
        (schema::PART, gen.gen_part()),
        (schema::DATE, gen.gen_date()),
    ];
    for (name, rows) in &dims {
        dfs.write_file(layout.dim_bin(name), None, &rowcodec::write_rows(rows))?;
        if opts.rcfile {
            let dim_schema = schema::schema_of(name).expect("known table");
            let mut w = RcFileWriter::new(
                Arc::clone(dfs),
                layout.table_rc(name),
                dim_schema,
                opts.rows_per_group,
            )?;
            for r in rows {
                w.append(r)?;
            }
            w.close()?;
        }
    }

    // --- Fact table: one pass of row groups into every requested writer. ---
    let fact_schema = schema::lineorder_schema();
    let mut cif = if opts.cif {
        Some(CifWriter::new(
            Arc::clone(dfs),
            layout.fact_cif(),
            fact_schema.clone(),
            opts.rows_per_group,
        )?)
    } else {
        None
    };
    let mut rc = if opts.rcfile {
        Some(RcFileWriter::new(
            Arc::clone(dfs),
            layout.table_rc(schema::LINEORDER),
            fact_schema.clone(),
            opts.rows_per_group,
        )?)
    } else {
        None
    };
    let mut text = if opts.text {
        Some(TextWriter::create(
            dfs,
            layout.table_text(schema::LINEORDER),
        )?)
    } else {
        None
    };

    // Generated into columns, put in storage order (rows of one date keep
    // their generation order), and gathered one row group at a time. Each
    // group is encoded once: CIF and RCFile store the same chunk bytes.
    let fact = gen.gen_lineorder();
    let order = fact.order(opts.cluster_by_date)?;
    let per_group = usize::try_from(opts.rows_per_group.max(1)).unwrap_or(usize::MAX);
    for rows in order.chunks(per_group) {
        let block = fact.gather(rows)?;
        if cif.is_some() || rc.is_some() {
            let chunks = encode_block(&block)?;
            let n = block.len() as u64;
            if let Some(w) = cif.as_mut() {
                w.write_group(n, &chunks)?;
            }
            if let Some(w) = rc.as_mut() {
                w.write_group(n, &chunks)?;
            }
        }
        if let Some(w) = text.as_mut() {
            for i in 0..block.len() {
                w.append(&block.row(i))?;
            }
        }
    }

    let cif_meta = cif.map(CifWriter::close).transpose()?;
    if let Some(w) = rc {
        w.close()?;
    }
    if let Some(w) = text {
        w.close()?;
    }

    // --- Size accounting. ---
    let sum_prefix = |prefix: &str| -> u64 {
        dfs.list(prefix)
            .iter()
            .map(|p| dfs.file_len(p).unwrap_or(0))
            .sum()
    };
    let fact_bytes_cif = if opts.cif {
        sum_prefix(&format!("{}/", layout.fact_cif()))
    } else {
        0
    };
    let fact_bytes_rc = if opts.rcfile {
        dfs.file_len(&format!("{}.rc", layout.table_rc(schema::LINEORDER)))
            .unwrap_or(0)
    } else {
        0
    };
    let fact_bytes_text = if opts.text {
        dfs.file_len(&layout.table_text(schema::LINEORDER))
            .unwrap_or(0)
    } else {
        0
    };

    Ok(SsbDataset {
        layout: layout.clone(),
        gen,
        cif_meta,
        fact_bytes_cif,
        fact_bytes_rc,
        fact_bytes_text,
    })
}

/// Read a dimension table's master copy back from the DFS.
pub fn read_dimension(dfs: &Dfs, layout: &SsbLayout, table: &str) -> Result<Vec<Row>> {
    let data = dfs.read_file(&layout.dim_bin(table), None)?;
    rowcodec::read_rows(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_columnar::{CifReader, RcFileReader};

    #[test]
    fn load_roundtrips_all_formats() {
        let dfs = Dfs::for_tests(4);
        let gen = SsbGen::new(0.001, 5);
        let layout = SsbLayout::default();
        let ds = load(
            &dfs,
            gen,
            &layout,
            &LoadOpts {
                rows_per_group: 500,
                cif: true,
                rcfile: true,
                text: true,
                // Keep the generation order so stored rows compare equal to
                // `gen_all()` output below.
                cluster_by_date: false,
            },
        )
        .unwrap();

        let expected = gen.gen_all();

        // CIF fact table.
        let cif = CifReader::open(&dfs, &layout.fact_cif()).unwrap();
        assert_eq!(cif.meta().total_rows() as usize, expected.lineorder.len());
        let cif_rows = cif.read_all_rows(&dfs).unwrap();
        assert_eq!(cif_rows, expected.lineorder);

        // RCFile fact table.
        let rc = RcFileReader::open(&dfs, &layout.table_rc(schema::LINEORDER)).unwrap();
        assert_eq!(rc.read_all_rows(&dfs).unwrap(), expected.lineorder);

        // Dimension masters.
        let cust = read_dimension(&dfs, &layout, schema::CUSTOMER).unwrap();
        assert_eq!(cust, expected.customer);
        let date = read_dimension(&dfs, &layout, schema::DATE).unwrap();
        assert_eq!(date.len(), 2557);

        // Dimension RCFiles (Hive reads these).
        let rc_cust = RcFileReader::open(&dfs, &layout.table_rc(schema::CUSTOMER)).unwrap();
        assert_eq!(rc_cust.read_all_rows(&dfs).unwrap(), expected.customer);

        // Size relationships: binary columnar is smaller than text (the
        // paper's 334 GB vs 600 GB observation).
        assert!(ds.fact_bytes_cif > 0);
        assert!(ds.fact_bytes_text > ds.fact_bytes_cif);
        assert!(ds.cif_meta.is_some());
    }

    #[test]
    fn date_clustering_sorts_without_losing_rows() {
        let dfs = Dfs::for_tests(2);
        let layout = SsbLayout::new("/clustered");
        let gen = SsbGen::new(0.001, 5);
        load(
            &dfs,
            gen,
            &layout,
            &LoadOpts {
                rows_per_group: 500,
                cif: true,
                rcfile: false,
                text: false,
                cluster_by_date: true,
            },
        )
        .unwrap();
        let rows = CifReader::open(&dfs, &layout.fact_cif())
            .unwrap()
            .read_all_rows(&dfs)
            .unwrap();
        let dates: Vec<i64> = rows.iter().map(|r| r.at(5).as_i64().unwrap()).collect();
        assert!(dates.windows(2).all(|w| w[0] <= w[1]), "dates must ascend");
        // Same rows, stably reordered — nothing dropped or duplicated.
        let mut expected = gen.gen_all().lineorder;
        expected.sort_by_key(|r| r.at(5).as_i64());
        assert_eq!(rows, expected);
    }

    #[test]
    fn selecting_no_format_is_an_error() {
        let dfs = Dfs::for_tests(2);
        let err = load(
            &dfs,
            SsbGen::new(0.001, 1),
            &SsbLayout::default(),
            &LoadOpts {
                rows_per_group: 100,
                cif: false,
                rcfile: false,
                text: false,
                cluster_by_date: true,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("format"));
    }

    #[test]
    fn cif_only_load_skips_rcfile() {
        let dfs = Dfs::for_tests(2);
        let layout = SsbLayout::new("/only");
        load(
            &dfs,
            SsbGen::new(0.001, 2),
            &layout,
            &LoadOpts {
                rows_per_group: 1000,
                cif: true,
                rcfile: false,
                text: false,
                cluster_by_date: true,
            },
        )
        .unwrap();
        assert!(CifReader::open(&dfs, &layout.fact_cif()).is_ok());
        assert!(RcFileReader::open(&dfs, &layout.table_rc(schema::LINEORDER)).is_err());
    }
}
