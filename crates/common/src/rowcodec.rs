//! Compact (non-order-preserving) binary serialization of rows.
//!
//! This is the wire/disk format for everything that is *not* a sort key:
//! map-output values, reduce inputs, dimension-table files on local disk,
//! Hive's intermediate stage outputs, and serialized hash tables shipped
//! through the distributed cache. The sortable format lives in [`keycodec`];
//! this one trades comparability for compactness (varints everywhere).
//!
//! [`keycodec`]: crate::keycodec

use crate::datum::{Datum, DatumRef, DatumType};
use crate::error::{ClydeError, Result};
use crate::hash::FxHashSet;
use crate::row::Row;
use crate::varint;
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_I32: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_STR: u8 = 4;

/// Append one datum.
pub fn write_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(TAG_NULL),
        Datum::I32(v) => {
            out.push(TAG_I32);
            varint::write_i64(out, i64::from(*v));
        }
        Datum::I64(v) => {
            out.push(TAG_I64);
            varint::write_i64(out, *v);
        }
        Datum::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Datum::Str(s) => {
            out.push(TAG_STR);
            varint::write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Read one datum without allocating: a string borrows its bytes from
/// `buf`. Every other reader in this module decodes through this function,
/// so tag, bounds, `i32` range and utf-8 checks exist once.
///
/// An `I32` or `I64` whose varint ends within `varint::MAX_LEN` bytes is
/// decoded here, inline in the caller's loop; every other tag, and every
/// error, is `read_datum_checked` from the same cursor, so the value, the
/// advanced cursor and every error are what it gives.
#[inline]
pub fn read_datum_ref<'a>(buf: &'a [u8], pos: &mut usize) -> Result<DatumRef<'a>> {
    if let Some((&tag @ (TAG_I32 | TAG_I64), rest)) = buf.get(*pos..).and_then(<[u8]>::split_first)
    {
        let mut z = 0u64;
        for (k, &byte) in rest.iter().take(varint::MAX_LEN).enumerate() {
            z |= u64::from(byte & 0x7f) << (7 * k);
            if byte & 0x80 == 0 {
                let v = varint::unzigzag(z);
                let datum = match tag {
                    TAG_I64 => Some(DatumRef::I64(v)),
                    _ => i32::try_from(v).ok().map(DatumRef::I32),
                };
                if let Some(datum) = datum {
                    *pos += k + 2;
                    return Ok(datum);
                }
                break;
            }
        }
    }
    read_datum_checked(buf, pos)
}

/// [`read_datum_ref`] one byte at a time: every tag, and every error with
/// its message. Out of line, so the integer path inlines small; not cold,
/// since strings, `f64`s and NULLs take it.
#[inline(never)]
fn read_datum_checked<'a>(buf: &'a [u8], pos: &mut usize) -> Result<DatumRef<'a>> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| ClydeError::Format("rowcodec: empty buffer".into()))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(DatumRef::Null),
        TAG_I32 => {
            let v = varint::read_i64(buf, pos)?;
            let v32 = i32::try_from(v)
                .map_err(|_| ClydeError::Format("rowcodec: i32 out of range".into()))?;
            Ok(DatumRef::I32(v32))
        }
        TAG_I64 => Ok(DatumRef::I64(varint::read_i64(buf, pos)?)),
        TAG_F64 => {
            let bits = buf
                .get(*pos..)
                .and_then(|rest| rest.first_chunk::<8>())
                .ok_or_else(|| ClydeError::Format("rowcodec: truncated f64".into()))?;
            *pos += 8;
            Ok(DatumRef::F64(f64::from_bits(u64::from_le_bytes(*bits))))
        }
        TAG_STR => read_str(buf, pos).map(DatumRef::Str),
        other => Err(ClydeError::Format(format!("rowcodec: unknown tag {other}"))),
    }
}

/// Read a length-prefixed utf-8 string, borrowed from `buf` (a string
/// datum's payload; the table metadata files store field names the same
/// way).
pub fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str> {
    // The length is untrusted (any u64): the end offset must be computed
    // checked, not wrapped or panicked on.
    let len = varint::read_u64(buf, pos)?;
    let bytes = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| ClydeError::Format("rowcodec: truncated string".into()))?;
    *pos += bytes.len();
    std::str::from_utf8(bytes).map_err(|_| ClydeError::Format("rowcodec: invalid utf-8".into()))
}

/// Read one datum.
pub fn read_datum(buf: &[u8], pos: &mut usize) -> Result<Datum> {
    read_datum_ref(buf, pos).map(DatumRef::to_datum)
}

/// Append a row (arity-prefixed).
pub fn write_row(out: &mut Vec<u8>, row: &Row) {
    write_fields(out, row.values());
}

/// Append the row of `fields`: the bytes [`write_row`] writes for a row
/// holding them, without one.
pub fn write_fields(out: &mut Vec<u8>, fields: &[Datum]) {
    varint::write_u64(out, fields.len() as u64);
    for d in fields {
        write_datum(out, d);
    }
}

/// The arity prefix of a row, bounded by the bytes left: a row cannot have
/// more fields than bytes (cheap sanity bound before anything is reserved).
fn read_arity(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let n = varint::read_u64(buf, pos)?;
    match usize::try_from(n) {
        Ok(n) if n <= buf.len().saturating_sub(*pos) => Ok(n),
        _ => Err(ClydeError::Format("rowcodec: implausible row arity".into())),
    }
}

/// Read a row written by [`write_row`]. Like `RowBlock::row`, the row
/// reserves one spare slot for a field a reader appends (the union input's
/// source tag); `n` is bounded by the buffer length, so `n + 1` cannot
/// overflow.
pub fn read_row(buf: &[u8], pos: &mut usize) -> Result<Row> {
    let n = read_arity(buf, pos)?;
    let mut row = Row::with_capacity(n + 1);
    for _ in 0..n {
        row.push(read_datum(buf, pos)?);
    }
    Ok(row)
}

/// What [`walk_row`] found in a row's bytes.
#[derive(Debug)]
pub struct RowWalk<'a> {
    pub arity: usize,
    /// Where the last field starts, and the field; `None` for a row of no
    /// fields.
    pub last: Option<(usize, DatumRef<'a>)>,
    /// Every field is in the one form [`write_datum`] gives it (no
    /// overlong varint), so the fields' bytes are what writing the decoded
    /// fields again gives.
    pub canonical: bool,
}

/// Walk the one row `buf` holds, reading every field with
/// [`read_datum_ref`] and allocating nothing: `buf` is accepted exactly
/// when [`read_row`] reads a row from it that ends at its end.
pub fn walk_row(buf: &[u8]) -> Result<RowWalk<'_>> {
    let mut pos = 0;
    let arity = read_arity(buf, &mut pos)?;
    let mut walk = RowWalk {
        arity,
        last: None,
        canonical: true,
    };
    for _ in 0..arity {
        let at = pos;
        let field = read_datum_ref(buf, &mut pos)?;
        // The field's varint: past the tag, before a string's bytes.
        let varint = match field {
            DatumRef::Null | DatumRef::F64(_) => None,
            DatumRef::I32(_) | DatumRef::I64(_) => buf.get(at + 1..pos),
            DatumRef::Str(s) => buf.get(at + 1..pos - s.len()),
        };
        walk.canonical &= varint.is_none_or(canonical_varint);
        walk.last = Some((at, field));
    }
    if pos != buf.len() {
        return Err(ClydeError::Format(format!(
            "rowcodec: {} bytes after the row",
            buf.len() - pos
        )));
    }
    Ok(walk)
}

/// Whether a varint [`varint::read_u64`] accepted is the one
/// [`varint::write_u64`] writes for its value: no zero group at the top,
/// and no bit past the 64th.
fn canonical_varint(bytes: &[u8]) -> bool {
    match bytes {
        [_] => true,
        [.., 0] => false,
        [.., last] => bytes.len() < 10 || *last == 1,
        [] => false,
    }
}

/// The `i32` that a row's last two bytes encode, if they are an `I32`
/// field in -64..=63 as [`write_datum`] writes it. A row whose last field
/// is such a datum always ends so; bytes that end so need not end with it
/// (a string or an `f64` can end in the same two bytes), so a caller that
/// relies on the answer confirms it with [`walk_row`].
pub fn trailing_small_i32(buf: &[u8]) -> Option<i32> {
    match buf {
        [.., TAG_I32, z] if z & 0x80 == 0 => {
            let z = i32::from(*z);
            Some((z >> 1) ^ -(z & 1))
        }
        _ => None,
    }
}

/// Strings a decoder has made, handed out again for equal bytes instead of
/// allocated again, so the rows it decodes share them. Keeps at most
/// [`StrPool::CAPACITY`] distinct strings; past that, new ones are made
/// and not kept.
#[derive(Default)]
pub struct StrPool {
    strings: FxHashSet<Arc<str>>,
}

impl StrPool {
    pub const CAPACITY: usize = 4096;

    pub fn get(&mut self, s: &str) -> Arc<str> {
        if let Some(kept) = self.strings.get(s) {
            return Arc::clone(kept);
        }
        let made: Arc<str> = Arc::from(s);
        if self.strings.len() < StrPool::CAPACITY {
            self.strings.insert(Arc::clone(&made));
        }
        made
    }

    /// `field` owned, a string taken from the pool.
    pub fn datum(&mut self, field: DatumRef<'_>) -> Datum {
        match field {
            DatumRef::Str(s) => Datum::Str(self.get(s)),
            other => other.to_datum(),
        }
    }
}

/// [`read_row`] into an existing row, replacing its fields: a row reused
/// across decodes keeps its allocation, and takes its strings from
/// `strings` (a string equal to the one already in its slot is kept as
/// is). An empty row gets [`read_row`]'s spare slot. On error `row` holds
/// an unspecified prefix of fields.
pub fn read_row_into(
    buf: &[u8],
    pos: &mut usize,
    row: &mut Row,
    strings: &mut StrPool,
) -> Result<()> {
    let n = read_arity(buf, pos)?;
    let fields = row.values_mut();
    fields.truncate(n);
    fields.reserve((n + 1).saturating_sub(fields.len()));
    for i in 0..n {
        let datum = match (read_datum_ref(buf, pos)?, fields.get(i)) {
            (DatumRef::Str(s), Some(Datum::Str(have))) if **have == *s => continue,
            (field, _) => strings.datum(field),
        };
        match fields.get_mut(i) {
            Some(slot) => *slot = datum,
            None => fields.push(datum),
        }
    }
    Ok(())
}

/// Serialize a sequence of rows to a single buffer (count-prefixed).
pub fn write_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + rows.len() * 16);
    varint::write_u64(&mut out, rows.len() as u64);
    for r in rows {
        write_row(&mut out, r);
    }
    out
}

/// Deserialize a buffer written by [`write_rows`].
pub fn read_rows(buf: &[u8]) -> Result<Vec<Row>> {
    let mut reader = RowsRef::new(buf)?;
    let mut rows = Vec::with_capacity(reader.left.min(1 << 20) as usize);
    while reader.advance()? {
        rows.push(read_row(buf, &mut reader.pos)?);
    }
    Ok(rows)
}

/// Borrowed reader over a buffer written by [`write_rows`]: one row at a
/// time, its fields decoded into a caller-owned slot buffer that is reused
/// from row to row, strings pointing into the buffer. Accepts exactly the
/// buffers [`read_rows`] accepts and allocates nothing per row.
#[derive(Debug)]
pub struct RowsRef<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Rows of the count prefix not yet read.
    left: u64,
}

impl<'a> RowsRef<'a> {
    pub fn new(buf: &'a [u8]) -> Result<RowsRef<'a>> {
        let mut pos = 0;
        let left = varint::read_u64(buf, &mut pos)?;
        Ok(RowsRef { buf, pos, left })
    }

    /// The rows of the count prefix not yet read, bounded by the bytes
    /// left (a row takes at least one): what a caller may reserve for them
    /// without trusting the prefix.
    pub fn capacity_hint(&self) -> usize {
        let bytes_left = self.buf.len() - self.pos;
        usize::try_from(self.left).map_or(bytes_left, |left| left.min(bytes_left))
    }

    /// Step to the next row: `false` once the count prefix is used up, at
    /// which point anything left in the buffer is an error.
    fn advance(&mut self) -> Result<bool> {
        if self.left > 0 {
            self.left -= 1;
            return Ok(true);
        }
        match self.buf.len() - self.pos {
            0 => Ok(false),
            n => Err(ClydeError::Format(format!("rowcodec: {n} trailing bytes"))),
        }
    }

    /// Decode the next row's fields into `fields` (cleared first). Returns
    /// `false`, leaving `fields` empty, after the last row.
    pub fn next_into(&mut self, fields: &mut Vec<DatumRef<'a>>) -> Result<bool> {
        fields.clear();
        if !self.advance()? {
            return Ok(false);
        }
        for _ in 0..read_arity(self.buf, &mut self.pos)? {
            fields.push(read_datum_ref(self.buf, &mut self.pos)?);
        }
        Ok(true)
    }
}

/// Expected datum types of a row, serialized alongside table files.
pub fn write_types(out: &mut Vec<u8>, types: &[DatumType]) {
    varint::write_u64(out, types.len() as u64);
    for t in types {
        out.push(t.tag());
    }
}

/// Inverse of [`write_types`].
pub fn read_types(buf: &[u8], pos: &mut usize) -> Result<Vec<DatumType>> {
    let n = varint::read_u64(buf, pos)? as usize;
    let mut types = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| ClydeError::Format("rowcodec: truncated types".into()))?;
        *pos += 1;
        types.push(
            DatumType::from_tag(tag)
                .ok_or_else(|| ClydeError::Format(format!("rowcodec: bad type tag {tag}")))?,
        );
    }
    Ok(types)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use proptest::prelude::*;

    #[test]
    fn datum_roundtrip() {
        for d in [
            Datum::Null,
            Datum::I32(-5),
            Datum::I64(1 << 40),
            Datum::F64(2.5),
            Datum::str("ASIA"),
            Datum::str(""),
        ] {
            let mut buf = Vec::new();
            write_datum(&mut buf, &d);
            let mut pos = 0;
            let back = read_datum(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len());
            // Exact type preservation (unlike keycodec).
            assert_eq!(format!("{back:?}"), format!("{d:?}"));
        }
    }

    #[test]
    fn rows_roundtrip() {
        let rows = vec![row![1i32, "a"], Row::empty(), row![9i64, 1.25f64]];
        let buf = write_rows(&rows);
        assert_eq!(read_rows(&buf).unwrap(), rows);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = write_rows(&[row![1i32]]);
        buf.push(0xAB);
        assert!(read_rows(&buf).is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let buf = write_rows(&[row!["hello world"]]);
        for cut in 1..buf.len() {
            assert!(
                read_rows(&buf[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    /// Drain a [`RowsRef`] into owned rows — the borrowed reader seen
    /// through the owned reader's type, for comparing the two.
    fn read_rows_borrowed(buf: &[u8]) -> Result<Vec<Row>> {
        let mut reader = RowsRef::new(buf)?;
        let mut fields = Vec::new();
        let mut rows = Vec::new();
        while reader.next_into(&mut fields)? {
            rows.push(fields.iter().map(|f| f.to_datum()).collect());
        }
        assert!(fields.is_empty());
        Ok(rows)
    }

    #[test]
    fn borrowed_reader_rejects_what_the_owned_reader_rejects() {
        let mut buf = write_rows(&[row![7i32, "hello world", 2.5f64], Row::empty()]);
        assert_eq!(read_rows_borrowed(&buf).unwrap(), read_rows(&buf).unwrap());
        for cut in 0..buf.len() {
            assert!(read_rows_borrowed(&buf[..cut]).is_err(), "cut at {cut}");
        }
        buf.push(0xAB);
        assert!(read_rows_borrowed(&buf).is_err());
    }

    #[test]
    fn read_row_into_refills_a_row_like_read_row_and_shares_equal_strings() {
        let rows = [
            row![1i32, "ASIA", 2.5f64],
            row![2i64, "ASIA"],
            Row::new(vec![Datum::Null, Datum::str("EUROPE"), Datum::I32(3)]),
            Row::empty(),
            row!["EUROPE", "ASIA", 4i64, 5i64],
        ];
        let buf = write_rows(&rows);
        let mut pos = 0;
        varint::read_u64(&buf, &mut pos).unwrap();
        let mut strings = StrPool::default();
        let mut row = row![9i64, "stale", 1.0f64, "left over", 0i32];
        let mut decoded = Vec::new();
        for expect in &rows {
            read_row_into(&buf, &mut pos, &mut row, &mut strings).unwrap();
            assert_eq!(format!("{row:?}"), format!("{expect:?}"));
            decoded.push(row.clone());
        }
        assert_eq!(pos, buf.len());
        // Every "ASIA" is one allocation, and so is every "EUROPE".
        let same = |a: &Row, i: usize, b: &Row, j: usize| match (a.get(i), b.get(j)) {
            (Some(Datum::Str(x)), Some(Datum::Str(y))) => Arc::ptr_eq(x, y),
            _ => false,
        };
        assert!(same(&decoded[0], 1, &decoded[1], 1));
        assert!(same(&decoded[0], 1, &decoded[4], 1));
        assert!(same(&decoded[2], 1, &decoded[4], 0));
        // A fresh row gets the spare slot `read_row` reserves.
        let mut fresh = Row::empty();
        read_row_into(
            &write_rows(&[row![1i32, 2i32]]),
            &mut 1,
            &mut fresh,
            &mut strings,
        )
        .unwrap();
        assert_eq!(fresh, row![1i32, 2i32]);
        fresh.push(Datum::I32(3));
        assert_eq!(fresh.len(), 3);
    }

    #[test]
    fn walk_row_finds_the_last_field_and_accepts_what_read_row_reads() {
        let row = row![7i32, "ASIA", 2.5f64, -3i64, 1i32];
        let mut buf = Vec::new();
        write_row(&mut buf, &row);
        let walk = walk_row(&buf).unwrap();
        assert_eq!(walk.arity, 5);
        assert!(walk.canonical);
        assert!(matches!(walk.last, Some((at, DatumRef::I32(1))) if at == buf.len() - 2));
        assert_eq!(trailing_small_i32(&buf), Some(1));
        assert!(walk_row(&[0]).unwrap().last.is_none());
        for cut in 0..buf.len() {
            assert!(walk_row(&buf[..cut]).is_err(), "cut at {cut}");
        }
        buf.push(0);
        assert!(walk_row(&buf).is_err());
    }

    #[test]
    fn an_overlong_varint_reads_but_is_not_canonical() {
        // I32(0) as [tag, 0x80, 0x00], a string whose length is [0x81,
        // 0x00], and an i64 whose tenth byte carries bits past the 64th.
        let cases: [&[u8]; 3] = [
            &[1, TAG_I32, 0x80, 0x00],
            &[1, TAG_STR, 0x81, 0x00, b'a'],
            &[
                1, TAG_I64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03,
            ],
        ];
        for bytes in cases {
            let walk = walk_row(bytes).unwrap();
            assert!(!walk.canonical, "{bytes:02x?}");
            let mut pos = 0;
            let mut again = Vec::new();
            write_row(&mut again, &read_row(bytes, &mut pos).unwrap());
            assert_ne!(&again[..], bytes);
        }
        assert_eq!(trailing_small_i32(&[1, TAG_I32, 0x80, 0x00]), None);
    }

    #[test]
    fn trailing_small_i32_reads_the_one_byte_range() {
        for v in [-64i32, -1, 0, 1, 2, 63] {
            let mut buf = Vec::new();
            write_row(&mut buf, &row!["x", v]);
            assert_eq!(trailing_small_i32(&buf), Some(v));
        }
        let mut buf = Vec::new();
        write_row(&mut buf, &row![64i32]);
        assert_eq!(trailing_small_i32(&buf), None);
        // Bytes that end like a tag need not end with one.
        write_row(&mut buf, &row!["\u{1}\u{0}"]);
        assert_eq!(trailing_small_i32(&buf), Some(0));
    }

    #[test]
    fn a_full_string_pool_still_decodes() {
        let mut strings = StrPool::default();
        for i in 0..StrPool::CAPACITY + 10 {
            assert_eq!(&*strings.get(&i.to_string()), i.to_string());
        }
        let kept = strings.get("0");
        assert!(Arc::ptr_eq(&kept, &strings.get("0")));
        let past = (StrPool::CAPACITY + 20).to_string();
        assert!(!Arc::ptr_eq(&strings.get(&past), &strings.get(&past)));
    }

    #[test]
    fn huge_string_length_is_a_format_error_not_an_overflow() {
        // len = u64::MAX: `pos + len` must not be computed unchecked.
        let mut datum = vec![TAG_STR];
        varint::write_u64(&mut datum, u64::MAX);
        for len in [u64::MAX, u64::MAX - 1, 1 << 63, usize::MAX as u64] {
            datum.truncate(1);
            varint::write_u64(&mut datum, len);
            datum.extend_from_slice(b"abc");
            assert!(matches!(
                read_datum(&datum, &mut 0),
                Err(ClydeError::Format(_))
            ));
            assert!(matches!(
                read_datum_ref(&datum, &mut 0),
                Err(ClydeError::Format(_))
            ));
            // The same datum as the only field of the only row.
            let mut rows = vec![1u8, 1];
            rows.extend_from_slice(&datum);
            assert!(matches!(read_rows(&rows), Err(ClydeError::Format(_))));
            assert!(matches!(
                read_rows_borrowed(&rows),
                Err(ClydeError::Format(_))
            ));
        }
    }

    #[test]
    fn types_roundtrip() {
        let types = vec![DatumType::I32, DatumType::Str, DatumType::F64];
        let mut buf = Vec::new();
        write_types(&mut buf, &types);
        let mut pos = 0;
        assert_eq!(read_types(&buf, &mut pos).unwrap(), types);
    }

    /// The datum reader before its integer path was inlined: one byte at
    /// a time through `varint::read_i64`. The oracle the readers are held
    /// to on arbitrary bytes.
    fn per_byte_read_datum_ref<'a>(buf: &'a [u8], pos: &mut usize) -> Result<DatumRef<'a>> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| ClydeError::Format("rowcodec: empty buffer".into()))?;
        *pos += 1;
        match tag {
            TAG_NULL => Ok(DatumRef::Null),
            TAG_I32 => {
                let v = varint::read_i64(buf, pos)?;
                let v32 = i32::try_from(v)
                    .map_err(|_| ClydeError::Format("rowcodec: i32 out of range".into()))?;
                Ok(DatumRef::I32(v32))
            }
            TAG_I64 => Ok(DatumRef::I64(varint::read_i64(buf, pos)?)),
            TAG_F64 => {
                let bits = buf
                    .get(*pos..)
                    .and_then(|rest| rest.first_chunk::<8>())
                    .ok_or_else(|| ClydeError::Format("rowcodec: truncated f64".into()))?;
                *pos += 8;
                Ok(DatumRef::F64(f64::from_bits(u64::from_le_bytes(*bits))))
            }
            TAG_STR => read_str(buf, pos).map(DatumRef::Str),
            other => Err(ClydeError::Format(format!("rowcodec: unknown tag {other}"))),
        }
    }

    /// A walk's arity, last field with its offset, and whether every
    /// varint is canonical.
    type Walked<'a> = (usize, Option<(usize, DatumRef<'a>)>, bool);

    /// [`walk_row`] through [`per_byte_read_datum_ref`].
    fn per_byte_walk_row(buf: &[u8]) -> Result<Walked<'_>> {
        let mut pos = 0;
        let arity = read_arity(buf, &mut pos)?;
        let (mut last, mut canonical) = (None, true);
        for _ in 0..arity {
            let at = pos;
            let field = per_byte_read_datum_ref(buf, &mut pos)?;
            let varint = match field {
                DatumRef::Null | DatumRef::F64(_) => None,
                DatumRef::I32(_) | DatumRef::I64(_) => buf.get(at + 1..pos),
                DatumRef::Str(s) => buf.get(at + 1..pos - s.len()),
            };
            canonical &= varint.is_none_or(canonical_varint);
            last = Some((at, field));
        }
        match buf.len() - pos {
            0 => Ok((arity, last, canonical)),
            n => Err(ClydeError::Format(format!(
                "rowcodec: {n} bytes after the row"
            ))),
        }
    }

    /// [`read_row_into`] through [`per_byte_read_datum_ref`]: the fields.
    fn per_byte_read_row(buf: &[u8], pos: &mut usize) -> Result<Vec<Datum>> {
        let n = read_arity(buf, pos)?;
        (0..n)
            .map(|_| per_byte_read_datum_ref(buf, pos).map(DatumRef::to_datum))
            .collect()
    }

    /// Bytes that reach every integer case: tags, continuation bytes,
    /// varint ends, and ten- and eleven-byte varints.
    fn arb_codec_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                any::<u8>(),
                Just(TAG_I32),
                Just(TAG_I64),
                0x80u8..=0xff,
                0u8..=0x7f,
                Just(0x01),
            ],
            0..48,
        )
    }

    /// The datum at every offset of `buf`, the walk of `buf` and the row
    /// refilled from its start are the oracle's: the same value or error,
    /// and the same cursor after either.
    fn assert_reads_like_the_per_byte_reader(buf: &[u8]) {
        for start in 0..=buf.len() + 1 {
            let (mut a, mut b) = (start, start);
            let (got, want) = (
                read_datum_ref(buf, &mut a),
                per_byte_read_datum_ref(buf, &mut b),
            );
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{buf:02x?} at {start}"
            );
            assert_eq!(a, b, "{buf:02x?} at {start}");
        }
        let walked = walk_row(buf).map(|w| (w.arity, w.last, w.canonical));
        assert_eq!(
            format!("{walked:?}"),
            format!("{:?}", per_byte_walk_row(buf)),
            "{buf:02x?}"
        );
        let (mut a, mut b) = (0, 0);
        let mut row = row![9i64, "stale"];
        let got = read_row_into(buf, &mut a, &mut row, &mut StrPool::default());
        match (got, per_byte_read_row(buf, &mut b)) {
            (Ok(()), Ok(fields)) => {
                assert_eq!(format!("{:?}", row.values()), format!("{fields:?}"));
                assert_eq!(a, b, "{buf:02x?}");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "{buf:02x?}"),
            (x, y) => panic!("{buf:02x?}: read_row_into {x:?} vs per-byte {y:?}"),
        }
    }

    #[test]
    fn integer_edges_read_like_the_per_byte_reader() {
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for tag in [TAG_I32, TAG_I64] {
            for v in [
                0,
                -1,
                63,
                -64,
                64,
                i64::from(i32::MAX),
                i64::from(i32::MIN),
                i64::from(i32::MAX) + 1,
                i64::from(i32::MIN) - 1,
                i64::MAX,
                i64::MIN,
            ] {
                let mut field = vec![tag];
                varint::write_i64(&mut field, v);
                cases.push([&[1][..], &field].concat());
                // The same field cut short, and overlong: a zero group on top.
                cases.push([&[1][..], &field[..field.len() - 1]].concat());
                let mut overlong = field.clone();
                if let Some(top) = overlong.last_mut() {
                    *top |= 0x80;
                }
                overlong.push(0);
                cases.push([&[1][..], &overlong].concat());
            }
            // Ten bytes with bits past the 64th, eleven bytes, and ten
            // continuation bytes at the end of the buffer.
            cases.push([&[1, tag][..], &[0xff; 9], &[0x7f]].concat());
            cases.push([&[1, tag][..], &[0x80; 10], &[0x00]].concat());
            cases.push([&[1, tag][..], &[0x80; 10]].concat());
        }
        for case in &cases {
            assert_reads_like_the_per_byte_reader(case);
        }
    }

    fn arb_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<i32>().prop_map(Datum::I32),
            any::<i64>().prop_map(Datum::I64),
            any::<f64>().prop_map(Datum::F64),
            "[\\PC]{0,16}".prop_map(Datum::from),
        ]
    }

    proptest! {
        #[test]
        fn roundtrip_any_rows(rows in proptest::collection::vec(
            proptest::collection::vec(arb_datum(), 0..6).prop_map(Row::new), 0..20)) {
            let buf = write_rows(&rows);
            let back = read_rows(&buf).unwrap();
            prop_assert_eq!(back.len(), rows.len());
            for (a, b) in back.iter().zip(&rows) {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }

        #[test]
        fn borrowed_reader_equals_owned_reader(rows in proptest::collection::vec(
            proptest::collection::vec(arb_datum(), 0..6).prop_map(Row::new), 0..20)) {
            let buf = write_rows(&rows);
            let owned = read_rows(&buf).unwrap();
            let borrowed = read_rows_borrowed(&buf).unwrap();
            // Debug, not ==: Datum equality coerces I32/I64 and NaN != NaN.
            prop_assert_eq!(format!("{borrowed:?}"), format!("{owned:?}"));
        }

        #[test]
        fn a_walk_accepts_what_read_row_reads_and_canonical_bytes_round_trip(
            buf in proptest::collection::vec(any::<u8>(), 0..32),
            row in proptest::collection::vec(arb_datum(), 0..6).prop_map(Row::new),
        ) {
            let mut written = Vec::new();
            write_row(&mut written, &row);
            prop_assert!(walk_row(&written).unwrap().canonical);
            for bytes in [&buf[..], &written[..]] {
                let mut pos = 0;
                let read = read_row(bytes, &mut pos).ok().filter(|_| pos == bytes.len());
                match (walk_row(bytes), read) {
                    (Ok(walk), Some(read)) => {
                        prop_assert_eq!(walk.arity, read.len());
                        if walk.canonical {
                            // The fields, past each side's arity prefix.
                            let mut again = Vec::new();
                            write_row(&mut again, &read);
                            let (mut skip, mut fields_at) = (0, 0);
                            varint::read_u64(&again, &mut skip).unwrap();
                            varint::read_u64(bytes, &mut fields_at).unwrap();
                            prop_assert_eq!(&again[skip..], &bytes[fields_at..]);
                        }
                    }
                    (Err(_), None) => {}
                    (walk, read) => prop_assert!(false, "walk {:?} vs read {:?}", walk, read),
                }
            }
        }

        #[test]
        fn arbitrary_bytes_read_like_the_per_byte_reader(buf in arb_codec_bytes()) {
            assert_reads_like_the_per_byte_reader(&buf);
        }

        #[test]
        fn arbitrary_bytes_never_panic_and_readers_agree(
            buf in proptest::collection::vec(any::<u8>(), 0..64)) {
            match (read_rows(&buf), read_rows_borrowed(&buf)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "owned {:?} vs borrowed {:?}", a, b),
            }
        }
    }
}
