//! Tuples of [`Datum`]s.

use crate::datum::Datum;
use std::fmt;

/// A tuple of datums.
///
/// Rows appear on the engine's cold paths: dimension-table rows, shuffle
/// keys/values, and query results. The fact-table scan path works on columnar
/// blocks instead (see `clyde-columnar`), which is precisely the paper's
/// block-iteration optimization (Section 5.3).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Row {
    values: Vec<Datum>,
}

impl Row {
    pub fn new(values: Vec<Datum>) -> Row {
        Row { values }
    }

    pub fn empty() -> Row {
        Row { values: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Row {
        Row {
            values: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> Option<&Datum> {
        self.values.get(idx)
    }

    /// Panicking accessor, kept for the frozen benchmark's callers; engine
    /// code reads fields through [`Row::get`].
    #[expect(
        clippy::indexing_slicing,
        reason = "frozen-benchmark shim, ROADMAP item 3"
    )]
    pub fn at(&self, idx: usize) -> &Datum {
        // clyde-lint: allow(panicfree, reason=frozen-benchmark shim, ROADMAP item 3)
        &self.values[idx]
    }

    pub fn push(&mut self, d: Datum) {
        self.values.push(d);
    }

    /// Drop every field, keeping the allocation.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Replace the fields with `fields`, keeping the allocation: a reader
    /// refills one row per record instead of making one. Like a fresh
    /// decoded row, it keeps one spare slot for a field a reader appends
    /// (the union input's source tag).
    pub fn refill<I: ExactSizeIterator<Item = Datum>>(&mut self, fields: I) {
        self.values.clear();
        self.values.reserve_exact(fields.len() + 1);
        self.values.extend(fields);
    }

    pub fn values(&self) -> &[Datum] {
        &self.values
    }

    /// The fields, for a decoder that refills a row in place.
    pub(crate) fn values_mut(&mut self) -> &mut Vec<Datum> {
        &mut self.values
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Datum> {
        self.values.iter()
    }

    /// Concatenate two rows (used when a probe augments a fact row with the
    /// auxiliary columns of a matching dimension row).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn heap_size(&self) -> usize {
        Row::heap_size_of(&self.values)
    }

    /// [`Row::heap_size`] of a row holding `fields`, without one.
    pub fn heap_size_of(fields: &[Datum]) -> usize {
        std::mem::size_of::<Row>() + fields.iter().map(Datum::heap_size).sum::<usize>()
    }
}

impl From<Vec<Datum>> for Row {
    fn from(values: Vec<Datum>) -> Self {
        Row { values }
    }
}

impl Extend<Datum> for Row {
    fn extend<T: IntoIterator<Item = Datum>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

impl FromIterator<Datum> for Row {
    fn from_iter<T: IntoIterator<Item = Datum>>(iter: T) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Build a row from a list of values convertible to [`Datum`].
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Datum::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let r = row![1i32, 2i64, "x"];
        assert_eq!(r.len(), 3);
        assert_eq!(r.at(0), &Datum::I32(1));
        assert_eq!(r.get(1), Some(&Datum::I64(2)));
        assert_eq!(r.get(2).unwrap().as_str(), Some("x"));
        assert_eq!(r.get(3), None);
        assert!(!r.is_empty());
        assert!(Row::empty().is_empty());
    }

    #[test]
    fn concat_appends() {
        let a = row![1i32];
        let b = row!["z"];
        assert_eq!(a.concat(&b), row![1i32, "z"]);
    }

    #[test]
    fn rows_order_lexicographically() {
        assert!(row![1i32, 2i32] < row![1i32, 3i32]);
        assert!(row![1i32] < row![1i32, 0i32]);
        assert!(row!["ASIA", 1992i32] < row!["ASIA", 1993i32]);
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(row![1i32, "a"].to_string(), "(1, a)");
    }

    #[test]
    fn from_iterator() {
        let r: Row = (0..3).map(Datum::I32).collect();
        assert_eq!(r, row![0i32, 1i32, 2i32]);
    }

    #[test]
    fn heap_size_grows_with_content() {
        assert!(row![1i32, "hello world"].heap_size() > row![1i32].heap_size());
    }
}
