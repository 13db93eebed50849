//! Typed column vectors and row blocks.
//!
//! These are the in-memory currency of the scan path. The paper's
//! block-iteration technique (Section 5.3) amortizes per-record framework
//! overhead by moving an array of rows at a time; [`RowBlock`] is that array,
//! stored column-wise so the probe loop can run over contiguous `i32`/`i64`
//! slices. They live in `clyde-common` because both the MapReduce framework
//! (reader traits) and the storage formats (producers) need them.

use crate::datum::{Datum, DatumType};
use crate::error::{ClydeError, Result};
use crate::row::Row;
use std::ops::Range;
use std::sync::Arc;

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<Arc<str>>),
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn new(dtype: DatumType) -> ColumnData {
        match dtype {
            DatumType::I32 => ColumnData::I32(Vec::new()),
            DatumType::I64 => ColumnData::I64(Vec::new()),
            DatumType::F64 => ColumnData::F64(Vec::new()),
            DatumType::Str => ColumnData::Str(Vec::new()),
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(dtype: DatumType, cap: usize) -> ColumnData {
        match dtype {
            DatumType::I32 => ColumnData::I32(Vec::with_capacity(cap)),
            DatumType::I64 => ColumnData::I64(Vec::with_capacity(cap)),
            DatumType::F64 => ColumnData::F64(Vec::with_capacity(cap)),
            DatumType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        }
    }

    pub fn dtype(&self) -> DatumType {
        match self {
            ColumnData::I32(_) => DatumType::I32,
            ColumnData::I64(_) => DatumType::I64,
            ColumnData::F64(_) => DatumType::F64,
            ColumnData::Str(_) => DatumType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `i` as a [`Datum`] (allocation-free except for the enum).
    pub fn get(&self, i: usize) -> Datum {
        match self {
            ColumnData::I32(v) => Datum::I32(v[i]),
            ColumnData::I64(v) => Datum::I64(v[i]),
            ColumnData::F64(v) => Datum::F64(v[i]),
            ColumnData::Str(v) => Datum::Str(Arc::clone(&v[i])),
        }
    }

    /// Append a datum; errors on type mismatch (NULLs are not supported in
    /// columnar fact data, matching the SSB schema which is NOT NULL).
    pub fn push(&mut self, d: &Datum) -> Result<()> {
        match (self, d) {
            (ColumnData::I32(v), Datum::I32(x)) => v.push(*x),
            (ColumnData::I64(v), Datum::I64(x)) => v.push(*x),
            (ColumnData::I64(v), Datum::I32(x)) => v.push(i64::from(*x)),
            (ColumnData::F64(v), Datum::F64(x)) => v.push(*x),
            (ColumnData::Str(v), Datum::Str(x)) => v.push(Arc::clone(x)),
            (col, d) => {
                return Err(ClydeError::Format(format!(
                    "cannot push {:?} into {} column",
                    d,
                    col.dtype()
                )))
            }
        }
        Ok(())
    }

    /// Typed slice accessors for hot loops. Panic if the type is wrong —
    /// callers have already validated against the schema.
    pub fn as_i32(&self) -> &[i32] {
        match self {
            ColumnData::I32(v) => v,
            other => panic!("expected i32 column, found {}", other.dtype()),
        }
    }

    pub fn as_i64(&self) -> &[i64] {
        match self {
            ColumnData::I64(v) => v,
            other => panic!("expected i64 column, found {}", other.dtype()),
        }
    }

    pub fn as_f64(&self) -> &[f64] {
        match self {
            ColumnData::F64(v) => v,
            other => panic!("expected f64 column, found {}", other.dtype()),
        }
    }

    pub fn as_str(&self) -> &[Arc<str>] {
        match self {
            ColumnData::Str(v) => v,
            other => panic!("expected str column, found {}", other.dtype()),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len() * 4,
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Str(v) => v
                .iter()
                .map(|s| s.len() + std::mem::size_of::<Arc<str>>())
                .sum(),
        }
    }
}

/// A batch of rows stored column-wise.
///
/// The columns are a *projection*: `RowBlock` carries only the columns the
/// query needs, in the order requested, which is what CIF's column pruning
/// produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBlock {
    columns: Vec<ColumnData>,
    len: usize,
}

impl RowBlock {
    /// A block as long as its first column (empty without columns).
    pub fn new(columns: Vec<ColumnData>) -> Result<RowBlock> {
        let len = columns.first().map_or(0, ColumnData::len);
        RowBlock::with_len(columns, len)
    }

    /// A block of `len` rows; every column must hold exactly `len` values.
    /// A reader that knows the row count (a row group's metadata) builds
    /// its blocks this way, so a zero-column projection — `COUNT(*)` with
    /// nothing to read — still has the group's rows.
    pub fn with_len(columns: Vec<ColumnData>, len: usize) -> Result<RowBlock> {
        for (i, c) in columns.iter().enumerate() {
            if c.len() != len {
                return Err(ClydeError::Format(format!(
                    "column {i} has {} rows, expected {len}",
                    c.len()
                )));
            }
        }
        Ok(RowBlock { columns, len })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Materialize row `i` (the row-at-a-time path; allocates once). One
    /// spare slot is reserved, so a reader that appends a field — the union
    /// input's source tag — does not reallocate the row.
    pub fn row(&self, i: usize) -> Row {
        let mut row = Row::with_capacity(self.columns.len() + 1);
        row.extend(self.columns.iter().map(|c| c.get(i)));
        row
    }

    /// Take a sub-range of rows `[from, to)` as a new block (copies). The
    /// scan hands out row ranges of a shared block instead; this copy is
    /// for callers that need an owned block. A range that is not inside the
    /// block is a typed error.
    pub fn slice(&self, from: usize, to: usize) -> Result<RowBlock> {
        let rows = self.check_rows(from..to)?;
        let columns = self
            .columns
            .iter()
            .map(|c| {
                Ok(match c {
                    ColumnData::I32(v) => ColumnData::I32(rows_of(v, &rows)?.to_vec()),
                    ColumnData::I64(v) => ColumnData::I64(rows_of(v, &rows)?.to_vec()),
                    ColumnData::F64(v) => ColumnData::F64(rows_of(v, &rows)?.to_vec()),
                    ColumnData::Str(v) => ColumnData::Str(rows_of(v, &rows)?.to_vec()),
                })
            })
            .collect::<Result<_>>()?;
        RowBlock::with_len(columns, rows.len())
    }

    /// `rows` if it lies inside this block, a typed error otherwise.
    pub fn check_rows(&self, rows: Range<usize>) -> Result<Range<usize>> {
        if rows.start <= rows.end && rows.end <= self.len {
            Ok(rows)
        } else {
            Err(ClydeError::Format(format!(
                "rows {rows:?} outside a block of {} rows",
                self.len
            )))
        }
    }

    pub fn heap_size(&self) -> usize {
        self.columns.iter().map(ColumnData::heap_size).sum()
    }
}

/// A row range of a shared block: the unit a scan hands to its probe
/// threads. A decoded row group is shared (`Arc`) by every range cut from
/// it, so handing out a range copies no column data.
#[derive(Debug, Clone)]
pub struct RowRange {
    pub block: Arc<RowBlock>,
    pub rows: Range<usize>,
}

impl RowRange {
    /// All rows of `block`.
    pub fn whole(block: RowBlock) -> RowRange {
        let rows = 0..block.len();
        RowRange {
            block: Arc::new(block),
            rows,
        }
    }
}

/// The `rows` of one column's values, or a typed error when they are not
/// all there.
pub fn rows_of<'a, T>(values: &'a [T], rows: &Range<usize>) -> Result<&'a [T]> {
    values.get(rows.clone()).ok_or_else(|| {
        ClydeError::Format(format!(
            "rows {rows:?} outside a column of {} values",
            values.len()
        ))
    })
}

/// Builder that appends rows and produces a [`RowBlock`].
#[derive(Debug)]
pub struct RowBlockBuilder {
    columns: Vec<ColumnData>,
}

impl RowBlockBuilder {
    pub fn new(dtypes: &[DatumType]) -> RowBlockBuilder {
        RowBlockBuilder {
            columns: dtypes.iter().map(|&t| ColumnData::new(t)).collect(),
        }
    }

    pub fn push_row(&mut self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(ClydeError::Format(format!(
                "row arity {} != block arity {}",
                row.len(),
                self.columns.len()
            )));
        }
        for (c, d) in self.columns.iter_mut().zip(row.iter()) {
            c.push(d)?;
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, ColumnData::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn finish(self) -> RowBlock {
        let len = self.len();
        RowBlock {
            columns: self.columns,
            len,
        }
    }

    /// The rows pushed so far as a block, leaving the builder empty with the
    /// same column types.
    pub fn take(&mut self) -> RowBlock {
        let empty = self
            .columns
            .iter()
            .map(|c| ColumnData::new(c.dtype()))
            .collect();
        RowBlockBuilder {
            columns: std::mem::replace(&mut self.columns, empty),
        }
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn column_push_and_get() {
        let mut c = ColumnData::new(DatumType::I32);
        c.push(&Datum::I32(1)).unwrap();
        c.push(&Datum::I32(2)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Datum::I32(2));
        assert_eq!(c.as_i32(), &[1, 2]);
        assert!(c.push(&Datum::str("x")).is_err());
    }

    #[test]
    fn i32_widens_into_i64_column() {
        let mut c = ColumnData::new(DatumType::I64);
        c.push(&Datum::I32(7)).unwrap();
        assert_eq!(c.as_i64(), &[7i64]);
    }

    #[test]
    #[should_panic(expected = "expected i32 column")]
    fn typed_accessor_panics_on_mismatch() {
        ColumnData::new(DatumType::Str).as_i32();
    }

    #[test]
    fn block_construction_validates_lengths() {
        let a = ColumnData::I32(vec![1, 2]);
        let b = ColumnData::I64(vec![10]);
        assert!(RowBlock::new(vec![a, b]).is_err());
    }

    #[test]
    fn block_row_materialization() {
        let blk = RowBlock::new(vec![
            ColumnData::I32(vec![1, 2]),
            ColumnData::Str(vec![Arc::from("a"), Arc::from("b")]),
        ])
        .unwrap();
        assert_eq!(blk.len(), 2);
        assert_eq!(blk.row(0), row![1i32, "a"]);
        assert_eq!(blk.row(1), row![2i32, "b"]);
    }

    #[test]
    fn block_slice() {
        let blk = RowBlock::new(vec![ColumnData::I64(vec![1, 2, 3, 4])]).unwrap();
        let s = blk.slice(1, 3).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(0).as_i64(), &[2, 3]);
        // Ranges outside the block are typed errors, not panics.
        assert!(blk.slice(3, 5).is_err());
        assert!(blk.slice(3, 1).is_err());
        assert_eq!(blk.slice(4, 4).unwrap().len(), 0);
    }

    #[test]
    fn a_block_without_columns_keeps_its_row_count() {
        let blk = RowBlock::with_len(Vec::new(), 12).unwrap();
        assert_eq!((blk.len(), blk.num_columns()), (12, 0));
        assert_eq!(blk.slice(4, 10).unwrap().len(), 6);
        assert!(blk.slice(4, 13).is_err());
        // Every column is checked against the given count.
        assert!(RowBlock::with_len(vec![ColumnData::I32(vec![1, 2])], 3).is_err());
        assert_eq!(RowBlock::new(Vec::new()).unwrap().len(), 0);
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = RowBlockBuilder::new(&[DatumType::I32, DatumType::Str]);
        assert!(b.is_empty());
        b.push_row(&row![5i32, "x"]).unwrap();
        b.push_row(&row![6i32, "y"]).unwrap();
        assert!(b.push_row(&row![1i32]).is_err());
        let blk = b.take();
        assert_eq!(blk.len(), 2);
        assert_eq!(blk.row(1), row![6i32, "y"]);
        // The builder is empty again and keeps its column types.
        assert!(b.is_empty());
        b.push_row(&row![7i32, "z"]).unwrap();
        assert_eq!(b.finish().row(0), row![7i32, "z"]);
    }

    #[test]
    fn heap_sizes() {
        let blk = RowBlock::new(vec![ColumnData::I32(vec![0; 10])]).unwrap();
        assert_eq!(blk.heap_size(), 40);
    }
}
