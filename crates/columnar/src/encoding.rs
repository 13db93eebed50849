//! Column encodings: plain, dictionary, and run-length.
//!
//! Each encoded column is a self-describing chunk:
//!
//! ```text
//! [dtype tag: u8][encoding tag: u8][row count: varint]
//! [zone tag: u8][min: varint i64][max: varint i64]   -- zone tag 1 only
//! [payload ...]
//! [checksum: u64 LE over everything before it]
//! ```
//!
//! The binary encoding is what shrinks the paper's 600 GB text fact table to
//! ~334 GB in Multi-CIF format (Section 6.2). The trailing checksum is the
//! *chunk's* own end-to-end check, the seal of [`clyde_common::hash::seal`];
//! it is independent of the block checksum `clyde-dfs` keeps per replica
//! (one DFS block can hold many chunks — an RCFile — or a chunk can span
//! blocks), so a chunk is rejected even when the bytes were damaged before
//! they were written, which the block checksum cannot see. [`decode_column`]
//! checks it on every call; the CIF scan instead reads chunks through the
//! DFS's sealed read, which checks each stored replica's seal once
//! (DESIGN.md, "Read-path integrity").
//!
//! The CIF scan does not copy a plain `i32` chunk: once the sealed read has
//! returned its bytes, the column *is* the payload, shared with them
//! ([`ColumnData::I32Le`]); the probe kernels read it in place. Every other
//! chunk is decoded. RLE expands one run at a time: its varints are read
//! from a fixed window while one fits, a run of at most eight rows is one
//! fixed-width store into slack past the write cursor, and the column is
//! sized up front only from a row count that the header and the table's
//! metadata agree on.
//!
//! The **zone segment** right after the row count is a per-chunk min/max
//! zone map, written for non-empty `i32` columns (zone tag 1) and absent
//! for every other column (zone tag 0). It lives in the first few bytes of
//! the chunk so a scan can [`peek_zone_map`] with a tiny header read —
//! at most [`ZONE_HEADER_MAX`] bytes — and skip the whole chunk when its
//! value range cannot satisfy a predicate, without fetching or decoding the
//! payload. The peek does *not* verify the checksum (it never sees the full
//! chunk); corruption is still caught whenever a chunk is actually decoded.

use bytes::Bytes;
use clyde_common::hash::{self, split_seal, unseal};
use clyde_common::{varint, ClydeError, ColumnData, DatumType, FxHashMap, I32Le, Result, RowBlock};
use std::ops::Range;
use std::sync::Arc;

/// Available encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Fixed-width little-endian values; strings as varint-length + bytes.
    Plain,
    /// Distinct values in a dictionary, data as varint codes. Best for the
    /// low-cardinality strings of SSB dimensions (regions, nations, brands).
    Dict,
    /// (varint run length, value) pairs. Best for near-constant columns.
    Rle,
}

impl Encoding {
    fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Dict => 1,
            Encoding::Rle => 2,
        }
    }

    fn from_tag(t: u8) -> Option<Encoding> {
        match t {
            0 => Some(Encoding::Plain),
            1 => Some(Encoding::Dict),
            2 => Some(Encoding::Rle),
            _ => None,
        }
    }
}

/// Pick a reasonable encoding for a column by sampling its content: strings
/// with few distinct values dictionary-encode; heavily repeated values
/// run-length-encode; everything else stays plain.
pub fn choose_encoding(col: &ColumnData) -> Encoding {
    let n = col.len();
    if n < 16 {
        return Encoding::Plain;
    }
    match col {
        ColumnData::Str(v) => {
            let mut distinct: FxHashMap<&str, ()> = FxHashMap::default();
            for s in v.iter().take(1024) {
                distinct.insert(s.as_ref(), ());
            }
            if distinct.len() * 2 < v.len().min(1024) {
                Encoding::Dict
            } else {
                Encoding::Plain
            }
        }
        ColumnData::I32(v) => rle_if_repeated(count_runs(v.iter().take(1024)), n),
        ColumnData::I32Le(v) => rle_if_repeated(count_runs(v.cells().iter().take(1024)), n),
        ColumnData::I64(v) => rle_if_repeated(count_runs(v.iter().take(1024)), n),
        ColumnData::F64(_) => Encoding::Plain,
    }
}

/// RLE when the first 1024 values of an `n`-value column form fewer than a
/// quarter as many runs.
fn rle_if_repeated(runs: usize, n: usize) -> Encoding {
    if runs * 4 < n.min(1024) {
        Encoding::Rle
    } else {
        Encoding::Plain
    }
}

fn count_runs<T: PartialEq>(mut iter: impl Iterator<Item = T>) -> usize {
    let mut runs = 0;
    let mut prev: Option<T> = None;
    for v in iter.by_ref() {
        if prev.as_ref() != Some(&v) {
            runs += 1;
            prev = Some(v);
        }
    }
    runs
}

/// Upper bound on the chunk prefix that contains the zone segment:
/// dtype (1) + encoding (1) + row-count varint (≤10) + zone tag (1) +
/// two varint-encoded i64 bounds (≤10 each).
pub const ZONE_HEADER_MAX: usize = 33;

const ZONE_NONE: u8 = 0;
const ZONE_I32_MINMAX: u8 = 1;

fn write_zone_segment(out: &mut Vec<u8>, col: &ColumnData) {
    match col {
        ColumnData::I32(v) => match v.split_first() {
            Some((&first, rest)) => {
                let (mut lo, mut hi) = (first, first);
                for &x in rest {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                out.push(ZONE_I32_MINMAX);
                varint::write_i64(out, i64::from(lo));
                varint::write_i64(out, i64::from(hi));
            }
            None => out.push(ZONE_NONE),
        },
        _ => out.push(ZONE_NONE),
    }
}

fn read_zone_segment(body: &[u8], pos: &mut usize) -> Result<Option<(i32, i32)>> {
    let tag = *body
        .get(*pos)
        .ok_or_else(|| ClydeError::Format("truncated zone segment".into()))?;
    *pos += 1;
    match tag {
        ZONE_NONE => Ok(None),
        ZONE_I32_MINMAX => {
            let lo = varint::read_i64(body, pos)?;
            let hi = varint::read_i64(body, pos)?;
            let lo = i32::try_from(lo)
                .map_err(|_| ClydeError::Format("zone min out of i32 range".into()))?;
            let hi = i32::try_from(hi)
                .map_err(|_| ClydeError::Format("zone max out of i32 range".into()))?;
            Ok(Some((lo, hi)))
        }
        t => Err(ClydeError::Format(format!("bad zone tag {t}"))),
    }
}

/// The self-describing prefix every chunk starts with.
struct ChunkHeader {
    dtype: DatumType,
    encoding: Encoding,
    /// Row count as written. It is a claim, not a fact: nothing may be
    /// allocated from it before the payload has been measured against it.
    rows: u64,
    zone: Option<(i32, i32)>,
    /// Offset of the first payload byte.
    payload: usize,
}

fn read_header(body: &[u8]) -> Result<ChunkHeader> {
    let (Some(&dtype), Some(&encoding)) = (body.first(), body.get(1)) else {
        return Err(ClydeError::Format("truncated column chunk header".into()));
    };
    let dtype = DatumType::from_tag(dtype)
        .ok_or_else(|| ClydeError::Format(format!("bad dtype tag {dtype}")))?;
    let encoding = Encoding::from_tag(encoding)
        .ok_or_else(|| ClydeError::Format(format!("bad encoding tag {encoding}")))?;
    let mut pos = 2usize;
    let rows = varint::read_u64(body, &mut pos)?;
    let zone = read_zone_segment(body, &mut pos)?;
    Ok(ChunkHeader {
        dtype,
        encoding,
        rows,
        zone,
        payload: pos,
    })
}

/// Parse the zone map out of a chunk's header prefix (the first
/// [`ZONE_HEADER_MAX`] bytes are always enough; passing the whole chunk
/// also works). Returns `None` for columns without a zone map. The
/// checksum is *not* verified — callers use this to decide whether to
/// fetch the chunk at all.
pub fn peek_zone_map(prefix: &[u8]) -> Result<Option<(i32, i32)>> {
    if prefix.len() < 3 {
        return Err(ClydeError::Format("column chunk prefix too short".into()));
    }
    Ok(read_header(prefix)?.zone)
}

/// Encode a column with the given encoding. An in-place `i32` column
/// encodes exactly as its decoded values do.
pub fn encode_column(col: &ColumnData, encoding: Encoding) -> Result<Vec<u8>> {
    let col = &*col.decoded();
    let mut out = Vec::with_capacity(col.len() * 4 + 16);
    out.push(col.dtype().tag());
    out.push(encoding.tag());
    varint::write_u64(&mut out, col.len() as u64);
    write_zone_segment(&mut out, col);
    match (encoding, col) {
        (Encoding::Plain, ColumnData::I32(v)) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        (Encoding::Plain, ColumnData::I64(v)) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        (Encoding::Plain, ColumnData::F64(v)) => {
            for x in v {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        (Encoding::Plain, ColumnData::Str(v)) => {
            for s in v {
                varint::write_u64(&mut out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
        }
        (Encoding::Dict, ColumnData::Str(v)) => {
            let mut dict: Vec<&str> = Vec::new();
            let mut codes: FxHashMap<&str, u64> = FxHashMap::default();
            let mut encoded = Vec::with_capacity(v.len());
            for s in v {
                let code = *codes.entry(s.as_ref()).or_insert_with(|| {
                    dict.push(s.as_ref());
                    (dict.len() - 1) as u64
                });
                encoded.push(code);
            }
            varint::write_u64(&mut out, dict.len() as u64);
            for entry in dict {
                varint::write_u64(&mut out, entry.len() as u64);
                out.extend_from_slice(entry.as_bytes());
            }
            for code in encoded {
                varint::write_u64(&mut out, code);
            }
        }
        (Encoding::Rle, ColumnData::I32(v)) => {
            rle_encode(&mut out, v.iter().map(|&x| i64::from(x)))
        }
        (Encoding::Rle, ColumnData::I64(v)) => rle_encode(&mut out, v.iter().copied()),
        (enc, col) => {
            return Err(ClydeError::Format(format!(
                "encoding {enc:?} does not support {} columns",
                col.dtype()
            )))
        }
    }
    hash::seal(&mut out);
    Ok(out)
}

/// One chunk per column of a row group, each in its chosen encoding. CIF
/// and RCFile store the same chunk bytes, so a group is encoded once and
/// handed to both writers.
pub fn encode_block(block: &RowBlock) -> Result<Vec<Vec<u8>>> {
    block
        .columns()
        .iter()
        .map(|col| encode_column(col, choose_encoding(col)))
        .collect()
}

fn rle_encode(out: &mut Vec<u8>, iter: impl Iterator<Item = i64>) {
    let mut run: Option<(i64, u64)> = None;
    for v in iter {
        run = Some(match run {
            Some((prev, count)) if prev == v => (prev, count + 1),
            Some((prev, count)) => {
                varint::write_u64(out, count);
                varint::write_i64(out, prev);
                (v, 1)
            }
            None => (v, 1),
        });
    }
    if let Some((prev, count)) = run {
        varint::write_u64(out, count);
        varint::write_i64(out, prev);
    }
}

/// Decode a column chunk, verifying the checksum.
pub fn decode_column(data: &[u8]) -> Result<ColumnData> {
    decode_checked(data, None)
}

/// [`decode_column`] for a chunk of a row group whose metadata records
/// `rows` rows: an RLE column is sized from that count when its header
/// agrees (RCFile).
pub(crate) fn decode_group_column(data: &[u8], rows: usize) -> Result<ColumnData> {
    decode_checked(data, Some(rows))
}

fn decode_checked(data: &[u8], rows: Option<usize>) -> Result<ColumnData> {
    let body = chunk_body(data)?;
    if unseal(data).is_none() {
        return Err(ClydeError::Format("column checksum mismatch".into()));
    }
    decode_body(body, read_header(body)?, rows)
}

/// Decode a column chunk whose seal the caller has already checked — the
/// CIF scan, whose sealed DFS read checks each stored replica's seal once —
/// of a row group whose `_meta` records `rows` rows. The seal is stripped,
/// not re-hashed. A plain `i32` chunk is not decoded at all: its column is
/// the payload, shared with `data` ([`ColumnData::I32Le`]). Every other
/// chunk is decoded exactly as [`decode_column`] decodes it.
pub(crate) fn decode_verified(data: &Bytes, rows: usize) -> Result<ColumnData> {
    let body = chunk_body(data)?;
    let header = read_header(body)?;
    if let (Encoding::Plain, DatumType::I32) = (header.encoding, header.dtype) {
        let payload = plain_range::<4>(body, header.payload, header.rows)?;
        return I32Le::new(data.slice(payload))
            .map(|v| ColumnData::I32Le(Box::new(v)))
            .ok_or_else(truncated_payload);
    }
    decode_body(body, header, Some(rows))
}

/// The bytes before the seal, if there is room for a seal and a header.
fn chunk_body(data: &[u8]) -> Result<&[u8]> {
    split_seal(data)
        .map(|(body, _)| body)
        .filter(|body| body.len() >= 2)
        .ok_or_else(|| ClydeError::Format("column chunk too short".into()))
}

/// The one decoder: a chunk body (the bytes before the seal) and its parsed
/// header to its column. `rows` is the row count the table's metadata
/// records for the chunk, if the caller has one.
fn decode_body(body: &[u8], header: ChunkHeader, rows: Option<usize>) -> Result<ColumnData> {
    let n = header.rows;
    let mut pos = header.payload;
    match (header.encoding, header.dtype) {
        (Encoding::Plain, DatumType::I32) => Ok(ColumnData::I32(
            plain_values::<4>(body, pos, n)?
                .iter()
                .map(|b| i32::from_le_bytes(*b))
                .collect(),
        )),
        (Encoding::Plain, DatumType::I64) => Ok(ColumnData::I64(
            plain_values::<8>(body, pos, n)?
                .iter()
                .map(|b| i64::from_le_bytes(*b))
                .collect(),
        )),
        (Encoding::Plain, DatumType::F64) => Ok(ColumnData::F64(
            plain_values::<8>(body, pos, n)?
                .iter()
                .map(|b| f64::from_bits(u64::from_le_bytes(*b)))
                .collect(),
        )),
        (Encoding::Plain, DatumType::Str) => {
            let mut v: Vec<Arc<str>> = Vec::with_capacity(payload_bound(n, body, pos));
            for _ in 0..n {
                v.push(read_str(body, &mut pos)?);
            }
            Ok(ColumnData::Str(v))
        }
        (Encoding::Dict, DatumType::Str) => {
            let dict_len = varint::read_u64(body, &mut pos)?;
            let mut dict: Vec<Arc<str>> = Vec::with_capacity(payload_bound(dict_len, body, pos));
            for _ in 0..dict_len {
                dict.push(read_str(body, &mut pos)?);
            }
            let mut v: Vec<Arc<str>> = Vec::with_capacity(payload_bound(n, body, pos));
            for _ in 0..n {
                let code = varint::read_u64(body, &mut pos)?;
                let s = usize::try_from(code)
                    .ok()
                    .and_then(|c| dict.get(c))
                    .ok_or_else(|| ClydeError::Format(format!("dict code {code} out of range")))?;
                v.push(Arc::clone(s));
            }
            Ok(ColumnData::Str(v))
        }
        (Encoding::Rle, DatumType::I32) => {
            Ok(ColumnData::I32(rle_decode(body, pos, n, rows, rle_i32)?))
        }
        (Encoding::Rle, DatumType::I64) => Ok(ColumnData::I64(rle_decode(body, pos, n, rows, Ok)?)),
        (enc, dt) => Err(ClydeError::Format(format!(
            "invalid encoding/type combination {enc:?}/{dt}"
        ))),
    }
}

/// Where the `n` fixed-width values of a plain chunk lie in its body: one
/// checked length computation, and nothing allocated until the payload is
/// known to hold `n` values.
fn plain_range<const W: usize>(body: &[u8], pos: usize, n: u64) -> Result<Range<usize>> {
    usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(W))
        .and_then(|need| pos.checked_add(need))
        .filter(|&end| end <= body.len())
        .map(|end| pos..end)
        .ok_or_else(truncated_payload)
}

/// The `n` fixed-width values of a plain chunk as byte arrays: one slice,
/// no per-value bounds check.
fn plain_values<const W: usize>(body: &[u8], pos: usize, n: u64) -> Result<&[[u8; W]]> {
    body.get(plain_range::<W>(body, pos, n)?)
        .map(|payload| payload.as_chunks::<W>().0)
        .ok_or_else(truncated_payload)
}

#[cold]
fn truncated_payload() -> ClydeError {
    ClydeError::Format("truncated column payload".into())
}

/// A capacity for `n` variable-width values that the input can back: each
/// costs at least one payload byte, so a count beyond the bytes left is a
/// header lying and is not allocated for (decoding then fails as truncated).
fn payload_bound(n: u64, body: &[u8], pos: usize) -> usize {
    let left = body.len().saturating_sub(pos);
    usize::try_from(n).map_or(left, |n| n.min(left))
}

/// Rows of slack the RLE decoder keeps past its write cursor: a run of at
/// most this many rows is one fixed-width store, whose rows past the run
/// are cut off again before the next run is stored.
const RUN_SLACK: usize = 8;

/// Decode `(run length, value)` pairs until `n` values are produced, one
/// run at a time. The column is sized up front only from a count that the
/// header and the table's metadata (`rows`) agree on; otherwise it grows as
/// runs are accepted, never from the header alone, since a run may
/// legitimately expand far past the input size. An unsatisfiable
/// reservation is a typed error.
fn rle_decode<T: Copy>(
    body: &[u8],
    mut pos: usize,
    n: u64,
    rows: Option<usize>,
    convert: impl Fn(i64) -> Result<T>,
) -> Result<Vec<T>> {
    let too_large = || ClydeError::Format("RLE run too large to allocate".into());
    let mut v: Vec<T> = Vec::new();
    if let Some(rows) = rows.filter(|&r| u64::try_from(r) == Ok(n)) {
        // Address space only: a failed reservation leaves the column to
        // grow by run, and untouched capacity costs no memory.
        v.try_reserve_exact(rows.saturating_add(RUN_SLACK)).ok();
    }
    let mut remaining = n;
    while remaining > 0 {
        let count = varint::read_u64_windowed(body, &mut pos)?;
        let value = varint::read_i64_windowed(body, &mut pos)?;
        if count > remaining {
            return Err(ClydeError::Format("RLE run overflows row count".into()));
        }
        remaining -= count;
        if count == 0 {
            continue;
        }
        let value = convert(value)?;
        let count = usize::try_from(count).map_err(|_| too_large())?;
        v.try_reserve(count.max(RUN_SLACK))
            .map_err(|_| too_large())?;
        let end = v.len() + count;
        if count <= RUN_SLACK {
            v.extend_from_slice(&[value; RUN_SLACK]);
            v.truncate(end);
        } else {
            v.resize(end, value);
        }
    }
    Ok(v)
}

/// An RLE value of an `i32` column.
fn rle_i32(x: i64) -> Result<i32> {
    i32::try_from(x).map_err(|_| ClydeError::Format("RLE value out of i32 range".into()))
}

fn read_str(body: &[u8], pos: &mut usize) -> Result<Arc<str>> {
    let len = varint::read_u64(body, pos)?;
    let bytes = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .and_then(|end| body.get(*pos..end))
        .ok_or_else(|| ClydeError::Format("truncated string".into()))?;
    *pos += bytes.len();
    std::str::from_utf8(bytes)
        .map(Arc::from)
        .map_err(|_| ClydeError::Format("invalid utf-8 in column".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn strs(v: &[&str]) -> ColumnData {
        ColumnData::Str(v.iter().map(|s| Arc::from(*s)).collect())
    }

    #[test]
    fn plain_roundtrips_all_types() {
        for col in [
            ColumnData::I32(vec![1, -2, i32::MAX]),
            ColumnData::I64(vec![0, i64::MIN, 42]),
            ColumnData::F64(vec![1.5, f64::NAN, -0.0]),
            strs(&["ASIA", "", "MFGR#12"]),
        ] {
            let enc = encode_column(&col, Encoding::Plain).unwrap();
            let dec = decode_column(&enc).unwrap();
            // NaN-safe comparison via debug formatting.
            assert_eq!(format!("{dec:?}"), format!("{col:?}"));
        }
    }

    #[test]
    fn dict_roundtrips_and_compresses() {
        let col = strs(&["ASIA"; 1000]);
        let plain = encode_column(&col, Encoding::Plain).unwrap();
        let dict = encode_column(&col, Encoding::Dict).unwrap();
        assert_eq!(decode_column(&dict).unwrap(), col);
        assert!(dict.len() < plain.len() / 2);
    }

    #[test]
    fn rle_roundtrips_and_compresses() {
        let col = ColumnData::I32(vec![7; 5000]);
        let plain = encode_column(&col, Encoding::Plain).unwrap();
        let rle = encode_column(&col, Encoding::Rle).unwrap();
        assert_eq!(decode_column(&rle).unwrap(), col);
        assert!(rle.len() < plain.len() / 100);
    }

    #[test]
    fn empty_columns_roundtrip() {
        for col in [
            ColumnData::I32(vec![]),
            ColumnData::Str(vec![]),
            ColumnData::I64(vec![]),
        ] {
            let bytes = encode_column(&col, Encoding::Plain).unwrap();
            assert_eq!(decode_column(&bytes).unwrap(), col);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let col = ColumnData::I64(vec![1, 2, 3]);
        let mut enc = encode_column(&col, Encoding::Plain).unwrap();
        enc[5] ^= 0xFF;
        assert!(decode_column(&enc).is_err());
        // Truncation too.
        let enc2 = encode_column(&col, Encoding::Plain).unwrap();
        assert!(decode_column(&enc2[..enc2.len() - 1]).is_err());
        assert!(decode_column(&[]).is_err());
    }

    #[test]
    fn invalid_combinations_rejected() {
        let f = ColumnData::F64(vec![1.0]);
        assert!(encode_column(&f, Encoding::Dict).is_err());
        assert!(encode_column(&f, Encoding::Rle).is_err());
        let s = strs(&["x"]);
        assert!(encode_column(&s, Encoding::Rle).is_err());
    }

    #[test]
    fn heuristic_choices() {
        assert_eq!(choose_encoding(&strs(&["ASIA"; 100])), Encoding::Dict);
        let unique: Vec<String> = (0..100).map(|i| format!("name{i}")).collect();
        let unique_col = ColumnData::Str(unique.iter().map(|s| Arc::from(s.as_str())).collect());
        assert_eq!(choose_encoding(&unique_col), Encoding::Plain);
        assert_eq!(
            choose_encoding(&ColumnData::I32(vec![3; 100])),
            Encoding::Rle
        );
        assert_eq!(
            choose_encoding(&ColumnData::I32((0..100).collect())),
            Encoding::Plain
        );
        assert_eq!(choose_encoding(&ColumnData::I32(vec![1])), Encoding::Plain);
    }

    #[test]
    fn zone_map_written_for_i32() {
        let col = ColumnData::I32(vec![19930101, 19981230, 19920401]);
        for enc in [Encoding::Plain, Encoding::Rle] {
            let bytes = encode_column(&col, enc).unwrap();
            assert_eq!(peek_zone_map(&bytes).unwrap(), Some((19920401, 19981230)));
            // The bounded prefix is enough — no payload needed.
            let cut = bytes.len().min(ZONE_HEADER_MAX);
            assert_eq!(
                peek_zone_map(&bytes[..cut]).unwrap(),
                Some((19920401, 19981230))
            );
            assert_eq!(decode_column(&bytes).unwrap(), col);
        }
    }

    #[test]
    fn zone_map_absent_for_other_types() {
        for col in [
            ColumnData::I64(vec![1, 2]),
            ColumnData::F64(vec![1.5]),
            strs(&["ASIA"]),
            ColumnData::I32(vec![]), // empty i32: nothing to bound
        ] {
            let bytes = encode_column(&col, Encoding::Plain).unwrap();
            assert_eq!(peek_zone_map(&bytes).unwrap(), None);
        }
    }

    #[test]
    fn zone_map_extremes_roundtrip() {
        let col = ColumnData::I32(vec![i32::MIN, 0, i32::MAX]);
        let bytes = encode_column(&col, Encoding::Plain).unwrap();
        assert_eq!(peek_zone_map(&bytes).unwrap(), Some((i32::MIN, i32::MAX)));
        assert_eq!(decode_column(&bytes).unwrap(), col);
    }

    #[test]
    fn peek_rejects_garbage() {
        assert!(peek_zone_map(&[]).is_err());
        assert!(peek_zone_map(&[0xEE, 0, 0, 0]).is_err()); // bad dtype
        let col = ColumnData::I32(vec![5; 10]);
        let bytes = encode_column(&col, Encoding::Plain).unwrap();
        assert!(peek_zone_map(&bytes[..3]).is_err()); // zone segment cut off
    }

    /// A hand-written chunk body under a valid checksum.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        hash::seal(&mut body);
        body
    }

    #[test]
    fn a_verified_plain_i32_chunk_is_read_in_place() {
        let col = ColumnData::I32(vec![19930101, -5, i32::MAX, i32::MIN]);
        let chunk = Bytes::from(encode_column(&col, Encoding::Plain).unwrap());
        let read = decode_verified(&chunk, 4).unwrap();
        let ColumnData::I32Le(cells) = &read else {
            panic!("a plain i32 chunk is read in place, got {read:?}");
        };
        assert_eq!(read, col);
        // The values are the chunk's own bytes, not a copy of them.
        let at = cells.cells().as_ptr().cast::<u8>();
        assert!(chunk.as_ptr_range().contains(&at));

        // Every other chunk decodes as `decode_column` decodes it.
        for (col, enc) in [
            (ColumnData::I32(vec![3; 40]), Encoding::Rle),
            (ColumnData::I64(vec![1, -2, 3]), Encoding::Plain),
            (strs(&["ASIA", "ASIA", "EUROPE"]), Encoding::Dict),
            (ColumnData::I32(vec![]), Encoding::Plain),
        ] {
            let chunk = encode_column(&col, enc).unwrap();
            let read = decode_verified(&Bytes::from(chunk.clone()), col.len()).unwrap();
            assert_eq!(read, decode_column(&chunk).unwrap());
            assert_eq!(read, col);
        }

        // A plain payload shorter than its header claims is the same typed
        // error on both paths, and no view is made of it.
        let mut body = vec![DatumType::I32.tag(), Encoding::Plain.tag()];
        varint::write_u64(&mut body, 3);
        body.extend_from_slice(&[ZONE_NONE, 1, 0, 0, 0, 2, 0]);
        let short = sealed(body);
        let want = decode_column(&short).unwrap_err();
        assert_eq!(decode_verified(&Bytes::from(short), 3).unwrap_err(), want);
        assert!(
            want.to_string().contains("truncated column payload"),
            "{want}"
        );
    }

    #[test]
    fn counts_the_payload_cannot_back_are_typed_errors() {
        // Plain i64 claiming 2^61 rows: the byte length overflows `usize`.
        let mut body = vec![DatumType::I64.tag(), Encoding::Plain.tag()];
        varint::write_u64(&mut body, 1 << 61);
        body.extend_from_slice(&[ZONE_NONE, 1, 2, 3]);
        assert!(decode_column(&sealed(body)).is_err());
        // RLE whose second run would wrap `produced + count`.
        let mut body = vec![DatumType::I64.tag(), Encoding::Rle.tag()];
        varint::write_u64(&mut body, 2);
        body.push(ZONE_NONE);
        for (count, value) in [(1, 7), (u64::MAX, 9)] {
            varint::write_u64(&mut body, count);
            varint::write_i64(&mut body, value);
        }
        assert!(decode_column(&sealed(body)).is_err());
        // A string length that would wrap the cursor.
        let mut body = vec![DatumType::Str.tag(), Encoding::Plain.tag()];
        varint::write_u64(&mut body, 1);
        body.push(ZONE_NONE);
        varint::write_u64(&mut body, u64::MAX);
        assert!(decode_column(&sealed(body)).is_err());
    }

    /// The RLE expander before runs were stored through slack with windowed
    /// varint reads: one bounds-checked read per varint, one reservation
    /// and one `resize` per run. Kept as the oracle of [`rle_decode`].
    fn rle_oracle<T: Copy>(
        body: &[u8],
        mut pos: usize,
        n: u64,
        convert: impl Fn(i64) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut v: Vec<T> = Vec::new();
        let mut remaining = n;
        while remaining > 0 {
            let count = varint::read_u64(body, &mut pos)?;
            let value = varint::read_i64(body, &mut pos)?;
            if count > remaining {
                return Err(ClydeError::Format("RLE run overflows row count".into()));
            }
            remaining -= count;
            if count == 0 {
                continue;
            }
            let value = convert(value)?;
            let too_large = || ClydeError::Format("RLE run too large to allocate".into());
            let count = usize::try_from(count).map_err(|_| too_large())?;
            v.try_reserve(count).map_err(|_| too_large())?;
            v.resize(v.len() + count, value);
        }
        Ok(v)
    }

    /// Runs of 0..=9 rows (around the 8-row slack store), long runs, and
    /// values at and just past the `i32` bounds.
    fn arb_runs() -> impl Strategy<Value = Vec<(u64, i64)>> {
        let count = prop_oneof![0u64..=9, 1u64..=9, 10u64..600];
        let value = (0u8..40, any::<i32>()).prop_map(|(pick, x)| match pick {
            0 => i64::from(i32::MIN),
            1 => i64::from(i32::MAX),
            2 => i64::from(i32::MAX) + 1,
            3..=20 => i64::from(x % 4),
            _ => i64::from(x),
        });
        proptest::collection::vec((count, value), 0..40)
    }

    fn rle_payload(runs: &[(u64, i64)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(count, value) in runs {
            varint::write_u64(&mut out, count);
            varint::write_i64(&mut out, value);
        }
        out
    }

    /// The largest single allocation the current thread asks for while
    /// [`largest_alloc::during`] runs, seen through a test-only global
    /// allocator that forwards everything to `System`.
    mod largest_alloc {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ARMED: Cell<bool> = const { Cell::new(false) };
            static LARGEST: Cell<usize> = const { Cell::new(0) };
        }

        fn note(size: usize) {
            // `try_with`: a thread being torn down still allocates.
            let _ = ARMED.try_with(|armed| {
                if armed.get() {
                    LARGEST.with(|l| l.set(l.get().max(size)));
                }
            });
        }

        struct Probe;

        // SAFETY: every method forwards to `System` with the caller's
        // arguments unchanged; the notes are thread-local `Cell`s with
        // constant initializers, which allocate nothing.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc(layout)
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc_zeroed(layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                System.realloc(ptr, layout, new_size)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static GLOBAL: Probe = Probe;

        /// `f`'s result and the largest allocation it asked for, in bytes.
        pub fn during<R>(f: impl FnOnce() -> R) -> (R, usize) {
            LARGEST.with(|l| l.set(0));
            ARMED.with(|a| a.set(true));
            let out = f();
            ARMED.with(|a| a.set(false));
            (out, LARGEST.with(Cell::get))
        }
    }

    /// The RLE chunk of `runs` with its header claiming `n` rows and the
    /// table's metadata `rows`, decoded to `T` by the decoder and by the
    /// oracle: the same column or the same typed error. The decoder's
    /// largest allocation is at most what the oracle grew to (twice, for
    /// amortized growth, plus the slack), or the count both the header and
    /// the metadata vouch for — never a count only the header claims.
    fn assert_rle_like_the_oracle<T: Copy + PartialEq + std::fmt::Debug>(
        body: &[u8],
        n: u64,
        rows: Option<usize>,
        convert: impl Fn(i64) -> Result<T> + Copy,
    ) {
        let (got, got_max) = largest_alloc::during(|| rle_decode(body, 0, n, rows, convert));
        let (want, want_max) = largest_alloc::during(|| rle_oracle(body, 0, n, convert));
        assert_eq!(got, want, "n {n}, rows {rows:?}");
        let size = std::mem::size_of::<T>();
        let vouched = rows
            .filter(|&r| u64::try_from(r) == Ok(n))
            .map_or(0, |r| r.saturating_add(RUN_SLACK).saturating_mul(size));
        let grown = want_max.saturating_mul(2) + 2 * RUN_SLACK * size;
        assert!(
            got_max <= vouched.max(grown),
            "allocated {got_max} bytes; oracle {want_max}, vouched {vouched} (n {n}, rows {rows:?})"
        );
    }

    fn assert_rle_decodes_like_the_oracle(body: &[u8], n: u64, rows: Option<usize>) {
        assert_rle_like_the_oracle(body, n, rows, rle_i32);
        assert_rle_like_the_oracle(body, n, rows, Ok);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The run-at-a-time decoder gives the oracle's column or its typed
        /// error, for true, short, long and huge claimed counts, with and
        /// without a count the metadata vouches for, and after truncating
        /// the payload or flipping one of its bits. A count only the header
        /// claims is never reserved up front (the huge claims would abort
        /// the test), and a huge count both claim is refused by the
        /// reservation and grows by run like any other.
        #[test]
        fn rle_decode_equals_the_per_run_expander(
            runs in arb_runs(),
            claim in 0u8..6,
            vouch in 0u8..3,
            damage in (0u8..3, any::<usize>(), 0u32..8),
        ) {
            let total: u64 = runs.iter().map(|r| r.0).sum();
            let n = match claim {
                0 => total,
                1 => total.saturating_sub(1),
                2 => total + 1,
                3 => total + 9,
                4 => 1 << 36,
                _ => u64::MAX >> 1,
            };
            let rows = match vouch {
                0 => None,
                1 => usize::try_from(total).ok(),
                _ => usize::try_from(n).ok(),
            };
            let mut body = rle_payload(&runs);
            let (kind, at, bit) = damage;
            if !body.is_empty() {
                let at = at % body.len();
                match kind {
                    1 => body.truncate(at),
                    2 => body[at] ^= 1 << bit,
                    _ => {}
                }
            }
            assert_rle_decodes_like_the_oracle(&body, n, rows);
        }
    }

    #[test]
    fn rle_runs_around_the_slack_expand_exactly() {
        // Every run length from 1 to 17 after every offset 0..8 into the
        // column: stores past the run never leak into the column.
        for lead in 0..8u64 {
            for count in 1..=17u64 {
                let runs = [
                    (lead, 5),
                    (count, i64::from(i32::MIN)),
                    (3, i64::from(i32::MAX)),
                ];
                let body = rle_payload(&runs);
                let n = lead + count + 3;
                let want: Vec<i32> = std::iter::repeat_n(5, lead as usize)
                    .chain(std::iter::repeat_n(i32::MIN, count as usize))
                    .chain([i32::MAX; 3])
                    .collect();
                for rows in [None, Some(n as usize)] {
                    assert_eq!(rle_decode(&body, 0, n, rows, rle_i32).unwrap(), want);
                    assert_rle_decodes_like_the_oracle(&body, n, rows);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn zone_map_bounds_are_tight(v in proptest::collection::vec(any::<i32>(), 1..200)) {
            let col = ColumnData::I32(v.clone());
            let enc = encode_column(&col, Encoding::Plain).unwrap();
            let (lo, hi) = peek_zone_map(&enc).unwrap().unwrap();
            prop_assert_eq!(lo, *v.iter().min().unwrap());
            prop_assert_eq!(hi, *v.iter().max().unwrap());
        }

        #[test]
        fn plain_i64_roundtrip(v in proptest::collection::vec(any::<i64>(), 0..200)) {
            let col = ColumnData::I64(v);
            let enc = encode_column(&col, Encoding::Plain).unwrap();
            prop_assert_eq!(decode_column(&enc).unwrap(), col);
        }

        #[test]
        fn rle_i64_roundtrip(v in proptest::collection::vec(-3i64..3, 0..300)) {
            let col = ColumnData::I64(v);
            let enc = encode_column(&col, Encoding::Rle).unwrap();
            prop_assert_eq!(decode_column(&enc).unwrap(), col);
        }

        #[test]
        fn dict_roundtrip(v in proptest::collection::vec("[a-c]{0,3}", 0..200)) {
            let col = ColumnData::Str(v.iter().map(|s| Arc::from(s.as_str())).collect());
            let enc = encode_column(&col, Encoding::Dict).unwrap();
            prop_assert_eq!(decode_column(&enc).unwrap(), col);
        }
    }
}
