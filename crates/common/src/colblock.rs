//! Typed column vectors and row blocks.
//!
//! These are the in-memory currency of the scan path. The paper's
//! block-iteration technique (Section 5.3) amortizes per-record framework
//! overhead by moving an array of rows at a time; [`RowBlock`] is that array,
//! stored column-wise so the probe loop can run over contiguous `i32`/`i64`
//! slices. They live in `clyde-common` because both the MapReduce framework
//! (reader traits) and the storage formats (producers) need them.
//!
//! An `i32` column has two forms: decoded values ([`ColumnData::I32`]) and
//! the little-endian bytes of a plain column chunk, read in place
//! ([`ColumnData::I32Le`]). Both are the same column by value; a kernel
//! takes either through the two-form view [`I32s`] and reads each form with
//! its own monomorphic loop over [`I32Cell`]s.

use crate::datum::{Datum, DatumType};
use crate::error::{ClydeError, Result};
use crate::row::Row;
use bytes::Bytes;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A typed column of values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    I32(Vec<i32>),
    /// An `i32` column read in place: the payload of a plain chunk, shared
    /// with the chunk's bytes instead of copied out of them. The CIF scan
    /// builds it only from a chunk the DFS's sealed read has checked. It is
    /// equal to, and reads like, the [`ColumnData::I32`] of its values.
    /// Boxed, so a column stays as small as a `Vec`: blocks are vectors of
    /// columns, and growing every column by a word measurably raised the
    /// bulk load's peak memory.
    I32Le(Box<I32Le>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<Arc<str>>),
}

/// `i32` values stored as little-endian bytes: four per value, no
/// remainder.
#[derive(Clone, PartialEq, Eq)]
pub struct I32Le(Bytes);

impl I32Le {
    /// The values of `bytes`, which must be a whole number of 4-byte values.
    pub fn new(bytes: Bytes) -> Option<I32Le> {
        bytes.len().is_multiple_of(4).then_some(I32Le(bytes))
    }

    /// The values, each as its four little-endian bytes.
    pub fn cells(&self) -> &[[u8; 4]] {
        self.0.as_chunks::<4>().0
    }

    pub fn len(&self) -> usize {
        self.cells().len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, i: usize) -> Option<i32> {
        self.cells().get(i).copied().map(I32Cell::value)
    }

    /// The values, decoded into a vector.
    pub fn to_vec(&self) -> Vec<i32> {
        self.cells().iter().map(|&c| c.value()).collect()
    }

    /// Rows `rows`, sharing these bytes; a typed error when they are not
    /// all there.
    fn rows(&self, rows: &Range<usize>) -> Result<I32Le> {
        rows_of(self.cells(), rows)?;
        Ok(I32Le(self.0.slice(rows.start * 4..rows.end * 4)))
    }
}

impl fmt::Debug for I32Le {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.cells().iter().map(|&c| c.value()))
            .finish()
    }
}

/// One stored `i32`: a native value or its four little-endian bytes. The
/// kernels are generic over it, so each column form gets its own loop and
/// a byte cell compiles to a plain load.
pub trait I32Cell: Copy {
    fn value(self) -> i32;
}

impl I32Cell for i32 {
    #[inline(always)]
    fn value(self) -> i32 {
        self
    }
}

impl I32Cell for [u8; 4] {
    #[inline(always)]
    fn value(self) -> i32 {
        i32::from_le_bytes(self)
    }
}

/// A borrowed `i32` column in either form: the view a kernel picks its
/// loop from, once per column per stage.
#[derive(Debug, Clone, Copy)]
pub enum I32s<'a> {
    Native(&'a [i32]),
    Le(&'a [[u8; 4]]),
}

impl<'a> I32s<'a> {
    pub fn len(self) -> usize {
        match self {
            I32s::Native(v) => v.len(),
            I32s::Le(v) => v.len(),
        }
    }

    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    pub fn get(self, i: usize) -> Option<i32> {
        match self {
            I32s::Native(v) => v.get(i).copied(),
            I32s::Le(v) => v.get(i).copied().map(I32Cell::value),
        }
    }

    /// Rows `rows` of the view, or a typed error when they are not all
    /// there.
    pub fn rows(self, rows: &Range<usize>) -> Result<I32s<'a>> {
        Ok(match self {
            I32s::Native(v) => I32s::Native(rows_of(v, rows)?),
            I32s::Le(v) => I32s::Le(rows_of(v, rows)?),
        })
    }
}

impl PartialEq for I32s<'_> {
    fn eq(&self, other: &I32s<'_>) -> bool {
        match (*self, *other) {
            (I32s::Native(a), I32s::Native(b)) => a == b,
            (I32s::Le(a), I32s::Le(b)) => a == b,
            (I32s::Native(a), I32s::Le(b)) | (I32s::Le(b), I32s::Native(a)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x == y.value())
            }
        }
    }
}

/// Columns compare by value: an in-place `i32` column equals the decoded
/// column of the same values.
impl PartialEq for ColumnData {
    fn eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::I64(a), ColumnData::I64(b)) => a == b,
            (ColumnData::F64(a), ColumnData::F64(b)) => a == b,
            (ColumnData::Str(a), ColumnData::Str(b)) => a == b,
            _ => match (self.i32s(), other.i32s()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
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
            ColumnData::I32(_) | ColumnData::I32Le(_) => DatumType::I32,
            ColumnData::I64(_) => DatumType::I64,
            ColumnData::F64(_) => DatumType::F64,
            ColumnData::Str(_) => DatumType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I32Le(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `i` as a [`Datum`] (allocation-free except for the enum),
    /// `None` past the end.
    pub fn get(&self, i: usize) -> Option<Datum> {
        Some(match self {
            ColumnData::I32(v) => Datum::I32(*v.get(i)?),
            ColumnData::I32Le(v) => Datum::I32(v.get(i)?),
            ColumnData::I64(v) => Datum::I64(*v.get(i)?),
            ColumnData::F64(v) => Datum::F64(*v.get(i)?),
            ColumnData::Str(v) => Datum::Str(Arc::clone(v.get(i)?)),
        })
    }

    /// The column's values as an `i32` view, in whichever form they are
    /// stored; `None` for any other type.
    pub fn i32s(&self) -> Option<I32s<'_>> {
        match self {
            ColumnData::I32(v) => Some(I32s::Native(v)),
            ColumnData::I32Le(v) => Some(I32s::Le(v.cells())),
            _ => None,
        }
    }

    /// The column with in-place values decoded into a vector; every other
    /// column as it is.
    pub fn decoded(&self) -> Cow<'_, ColumnData> {
        match self {
            ColumnData::I32Le(v) => Cow::Owned(ColumnData::I32(v.to_vec())),
            other => Cow::Borrowed(other),
        }
    }

    /// Append a datum; errors on type mismatch (NULLs are not supported in
    /// columnar fact data, matching the SSB schema which is NOT NULL). An
    /// in-place column is decoded into a vector first.
    pub fn push(&mut self, d: &Datum) -> Result<()> {
        if let ColumnData::I32Le(v) = self {
            *self = ColumnData::I32(v.to_vec());
        }
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

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len() * 4,
            ColumnData::I32Le(v) => v.len() * 4,
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

    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Materialize row `i` (the row-at-a-time path; allocates once), `None`
    /// past the end. One spare slot is reserved, so a reader that appends a
    /// field — the union input's source tag — does not reallocate the row.
    pub fn row(&self, i: usize) -> Option<Row> {
        if i >= self.len || self.columns.iter().any(|c| i >= c.len()) {
            return None;
        }
        // Every column has row `i` (checked above), so no field falls back
        // to NULL. An exactly sized `extend` is half the cost of a checked
        // `push` per field on the Hive row path.
        let mut row = Row::with_capacity(self.columns.len() + 1);
        row.extend(self.columns.iter().map(|c| c.get(i).unwrap_or(Datum::Null)));
        Some(row)
    }

    /// Every row in order, materialized one at a time.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map_while(|i| self.row(i))
    }

    /// Take a sub-range of rows `[from, to)` as a new block (copies, except
    /// that an in-place column shares its bytes). The scan hands out row
    /// ranges of a shared block instead; this copy is for callers that need
    /// an owned block. A range that is not inside the block is a typed
    /// error.
    pub fn slice(&self, from: usize, to: usize) -> Result<RowBlock> {
        let rows = self.check_rows(from..to)?;
        let columns = self
            .columns
            .iter()
            .map(|c| {
                Ok(match c {
                    ColumnData::I32(v) => ColumnData::I32(rows_of(v, &rows)?.to_vec()),
                    ColumnData::I32Le(v) => ColumnData::I32Le(Box::new(v.rows(&rows)?)),
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
        assert_eq!(c.get(1), Some(Datum::I32(2)));
        assert_eq!(c.get(2), None);
        assert_eq!(c, ColumnData::I32(vec![1, 2]));
        assert!(c.push(&Datum::str("x")).is_err());
    }

    #[test]
    fn i32_widens_into_i64_column() {
        let mut c = ColumnData::new(DatumType::I64);
        c.push(&Datum::I32(7)).unwrap();
        assert_eq!(c, ColumnData::I64(vec![7]));
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
        assert_eq!(blk.row(0), Some(row![1i32, "a"]));
        assert_eq!(blk.row(1), Some(row![2i32, "b"]));
        assert_eq!(blk.row(2), None);
        let all: Vec<Row> = blk.rows().collect();
        assert_eq!(all, vec![row![1i32, "a"], row![2i32, "b"]]);
    }

    #[test]
    fn block_slice() {
        let blk = RowBlock::new(vec![ColumnData::I64(vec![1, 2, 3, 4])]).unwrap();
        let s = blk.slice(1, 3).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.columns(), &[ColumnData::I64(vec![2, 3])]);
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
        assert_eq!(blk.row(1), Some(row![6i32, "y"]));
        // The builder is empty again and keeps its column types.
        assert!(b.is_empty());
        b.push_row(&row![7i32, "z"]).unwrap();
        assert_eq!(b.finish().row(0), Some(row![7i32, "z"]));
    }

    fn in_place(values: &[i32]) -> ColumnData {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        ColumnData::I32Le(Box::new(I32Le::new(Bytes::from(bytes)).unwrap()))
    }

    #[test]
    fn an_in_place_column_behaves_like_its_values() {
        let values = [7, i32::MIN, -1, i32::MAX, 0];
        let le = in_place(&values);
        let native = ColumnData::I32(values.to_vec());
        assert!(I32Le::new(Bytes::from(vec![0u8; 7])).is_none());
        assert_eq!(
            (le.dtype(), le.len(), le.heap_size()),
            (DatumType::I32, 5, 20)
        );
        assert_eq!(le, native);
        assert_eq!(native, le);
        assert_ne!(le, in_place(&values[..4]));
        assert_ne!(le, ColumnData::I64(vec![7, 0, -1, 1, 0]));
        assert_eq!(le.get(1), Some(Datum::I32(i32::MIN)));
        assert_eq!(le.get(5), None);
        assert_eq!(format!("{le:?}"), format!("I32Le({values:?})"));
        assert_eq!(le.decoded().as_ref(), &native);

        // Blocks of either form have the same rows and the same slices.
        let a = RowBlock::new(vec![le.clone(), ColumnData::I64(vec![1, 2, 3, 4, 5])]).unwrap();
        let b = RowBlock::new(vec![native, ColumnData::I64(vec![1, 2, 3, 4, 5])]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rows().collect::<Vec<_>>(), b.rows().collect::<Vec<_>>());
        let cut = a.slice(1, 4).unwrap();
        assert!(matches!(cut.columns()[0], ColumnData::I32Le(_)));
        assert_eq!(cut, b.slice(1, 4).unwrap());
        assert!(a.slice(4, 6).is_err());

        // The view reads either form by value.
        let (lv, nv) = (le.i32s().unwrap(), b.columns()[0].i32s().unwrap());
        assert_eq!(lv, nv);
        assert_eq!(lv.rows(&(1..3)).unwrap(), nv.rows(&(1..3)).unwrap());
        assert_eq!(lv.rows(&(1..3)).unwrap().get(1), Some(-1));
        assert!(lv.rows(&(3..6)).is_err());
        assert!(ColumnData::I64(vec![1]).i32s().is_none());

        // Pushing into an in-place column decodes it first.
        let mut grown = le;
        grown.push(&Datum::I32(9)).unwrap();
        assert_eq!(
            grown,
            ColumnData::I32(vec![7, i32::MIN, -1, i32::MAX, 0, 9])
        );
        assert!(grown.push(&Datum::str("x")).is_err());
    }

    #[test]
    fn a_column_is_as_small_as_a_vec_and_its_tag() {
        let vec_and_tag = std::mem::size_of::<Vec<i64>>() + std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<ColumnData>(), vec_and_tag);
    }

    #[test]
    fn heap_sizes() {
        let blk = RowBlock::new(vec![ColumnData::I32(vec![0; 10])]).unwrap();
        assert_eq!(blk.heap_size(), 40);
    }
}
