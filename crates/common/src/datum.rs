//! Dynamically typed scalar values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The scalar types understood by the storage formats and query engines.
///
/// The Star Schema Benchmark only needs 32/64-bit integers and strings, but
/// `F64` is included because measure expressions (e.g. average revenue) can
/// produce fractional values and because downstream users of the library are
/// not limited to SSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatumType {
    I32,
    I64,
    F64,
    Str,
}

impl DatumType {
    /// Stable one-byte tag used by the serialized formats.
    pub fn tag(self) -> u8 {
        match self {
            DatumType::I32 => 0,
            DatumType::I64 => 1,
            DatumType::F64 => 2,
            DatumType::Str => 3,
        }
    }

    /// Inverse of [`DatumType::tag`].
    pub fn from_tag(tag: u8) -> Option<DatumType> {
        match tag {
            0 => Some(DatumType::I32),
            1 => Some(DatumType::I64),
            2 => Some(DatumType::F64),
            3 => Some(DatumType::Str),
            _ => None,
        }
    }

    /// Width in bytes of the fixed-size types; `None` for strings.
    pub fn fixed_width(self) -> Option<usize> {
        match self {
            DatumType::I32 => Some(4),
            DatumType::I64 => Some(8),
            DatumType::F64 => Some(8),
            DatumType::Str => None,
        }
    }
}

impl fmt::Display for DatumType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DatumType::I32 => "i32",
            DatumType::I64 => "i64",
            DatumType::F64 => "f64",
            DatumType::Str => "str",
        };
        f.write_str(s)
    }
}

/// A single dynamically typed value.
///
/// Strings are reference-counted so that cloning a `Datum` (which happens
/// when dimension hash tables hand auxiliary columns to the probe phase)
/// never copies the character data.
#[derive(Debug, Clone)]
pub enum Datum {
    Null,
    I32(i32),
    I64(i64),
    F64(f64),
    Str(Arc<str>),
}

impl Datum {
    /// Construct a string datum from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Datum {
        Datum::Str(Arc::from(s.as_ref()))
    }

    /// The value's type, or `None` for SQL NULL.
    pub fn datum_type(&self) -> Option<DatumType> {
        match self {
            Datum::Null => None,
            Datum::I32(_) => Some(DatumType::I32),
            Datum::I64(_) => Some(DatumType::I64),
            Datum::F64(_) => Some(DatumType::F64),
            Datum::Str(_) => Some(DatumType::Str),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Integer view widening `I32` to `i64`; `None` for other types.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Datum::I32(v) => Some(i64::from(*v)),
            Datum::I64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Datum::I32(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::F64(v) => Some(*v),
            Datum::I32(v) => Some(f64::from(*v)),
            Datum::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory footprint, used by the memory model that decides
    /// whether dimension hash tables fit on a node (paper Section 5.1).
    pub fn heap_size(&self) -> usize {
        match self {
            Datum::Str(s) => std::mem::size_of::<Datum>() + s.len(),
            _ => std::mem::size_of::<Datum>(),
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    /// Total order: NULL sorts first (as in most SQL engines' default
    /// ascending order), then by type tag for heterogeneous comparisons,
    /// then by value. Floats use `total_cmp` so the order is total.
    fn cmp(&self, other: &Self) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (I32(a), I32(b)) => a.cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (I32(a), I64(b)) => i64::from(*a).cmp(b),
            (I64(a), I32(b)) => a.cmp(&i64::from(*b)),
            (F64(a), F64(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            // Heterogeneous, non-coercible: order by type tag. This keeps the
            // order total, which the sort-based shuffle requires.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

impl std::hash::Hash for Datum {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Datum::Null => state.write_u8(0),
            // Hash I32 and I64 identically so Datum equality (which coerces
            // between the two) is consistent with hashing.
            Datum::I32(v) => {
                state.write_u8(1);
                state.write_i64(i64::from(*v));
            }
            Datum::I64(v) => {
                state.write_u8(1);
                state.write_i64(*v);
            }
            Datum::F64(v) => {
                state.write_u8(2);
                state.write_u64(v.to_bits());
            }
            Datum::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

fn type_rank(d: &Datum) -> u8 {
    match d {
        Datum::Null => 0,
        Datum::I32(_) | Datum::I64(_) => 1,
        Datum::F64(_) => 2,
        Datum::Str(_) => 3,
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => f.write_str("NULL"),
            Datum::I32(v) => write!(f, "{v}"),
            Datum::I64(v) => write!(f, "{v}"),
            Datum::F64(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i32> for Datum {
    fn from(v: i32) -> Self {
        Datum::I32(v)
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::I64(v)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::F64(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::str(v)
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Str(Arc::from(v))
    }
}

/// A borrowed view of one value: the string variant points into the buffer
/// (or the [`Datum`]) it was read from, so looking at a value allocates
/// nothing. This is what the dimension hash build sees of the rows it
/// filters — only the few columns it keeps are turned into [`Datum`]s.
#[derive(Debug, Clone, Copy)]
pub enum DatumRef<'a> {
    Null,
    I32(i32),
    I64(i64),
    F64(f64),
    Str(&'a str),
}

impl<'a> DatumRef<'a> {
    /// Integer view widening `I32` to `i64`, as [`Datum::as_i64`].
    pub fn as_i64(self) -> Option<i64> {
        match self {
            DatumRef::I32(v) => Some(i64::from(v)),
            DatumRef::I64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(self) -> Option<&'a str> {
        match self {
            DatumRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The owned value; allocates for strings.
    pub fn to_datum(self) -> Datum {
        match self {
            DatumRef::Null => Datum::Null,
            DatumRef::I32(v) => Datum::I32(v),
            DatumRef::I64(v) => Datum::I64(v),
            DatumRef::F64(v) => Datum::F64(v),
            DatumRef::Str(s) => Datum::str(s),
        }
    }
}

impl<'a> From<&'a Datum> for DatumRef<'a> {
    fn from(d: &'a Datum) -> Self {
        match d {
            Datum::Null => DatumRef::Null,
            Datum::I32(v) => DatumRef::I32(*v),
            Datum::I64(v) => DatumRef::I64(*v),
            Datum::F64(v) => DatumRef::F64(*v),
            Datum::Str(s) => DatumRef::Str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(d: &Datum) -> u64 {
        let mut h = DefaultHasher::new();
        d.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_tags_roundtrip() {
        for t in [
            DatumType::I32,
            DatumType::I64,
            DatumType::F64,
            DatumType::Str,
        ] {
            assert_eq!(DatumType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(DatumType::from_tag(200), None);
    }

    #[test]
    fn fixed_widths() {
        assert_eq!(DatumType::I32.fixed_width(), Some(4));
        assert_eq!(DatumType::I64.fixed_width(), Some(8));
        assert_eq!(DatumType::F64.fixed_width(), Some(8));
        assert_eq!(DatumType::Str.fixed_width(), None);
    }

    #[test]
    fn cross_width_integer_equality_is_consistent_with_hash() {
        let a = Datum::I32(42);
        let b = Datum::I64(42);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Datum::Null < Datum::I32(i32::MIN));
        assert!(Datum::Null < Datum::str(""));
    }

    #[test]
    fn string_order_is_lexicographic() {
        assert!(Datum::str("ASIA") < Datum::str("EUROPE"));
        assert!(Datum::str("MFGR#12") < Datum::str("MFGR#13"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::I32(5).as_i64(), Some(5));
        assert_eq!(Datum::I64(5).as_i32(), None);
        assert_eq!(Datum::str("x").as_str(), Some("x"));
        assert_eq!(Datum::F64(1.5).as_f64(), Some(1.5));
        assert_eq!(Datum::I32(2).as_f64(), Some(2.0));
        assert!(Datum::Null.is_null());
        assert_eq!(Datum::Null.datum_type(), None);
    }

    #[test]
    fn borrowed_view_round_trips_and_agrees_on_accessors() {
        for d in [
            Datum::Null,
            Datum::I32(-5),
            Datum::I64(1 << 40),
            Datum::F64(2.5),
            Datum::str("MFGR#12"),
        ] {
            let r = DatumRef::from(&d);
            assert_eq!(r.as_i64(), d.as_i64());
            assert_eq!(r.as_str(), d.as_str());
            // Exact variant preservation, not just Datum's coercing equality.
            assert_eq!(format!("{:?}", r.to_datum()), format!("{d:?}"));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Datum::Null.to_string(), "NULL");
        assert_eq!(Datum::I64(-7).to_string(), "-7");
        assert_eq!(Datum::str("abc").to_string(), "abc");
        assert_eq!(DatumType::Str.to_string(), "str");
    }

    #[test]
    fn heap_size_counts_string_bytes() {
        let short = Datum::str("a");
        let long = Datum::str("aaaaaaaaaaaaaaaaaaaaaaaa");
        assert!(long.heap_size() > short.heap_size());
        assert_eq!(Datum::I32(1).heap_size(), std::mem::size_of::<Datum>());
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Datum::F64(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Datum::F64(1.0) < Datum::F64(2.0));
    }
}
