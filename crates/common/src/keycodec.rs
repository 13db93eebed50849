//! Order-preserving ("memcomparable") binary encoding of rows.
//!
//! MapReduce's shuffle sorts map outputs by key bytes. For the sort order to
//! match SQL semantics (the group-by keys and the final ORDER BY), the key
//! encoding must satisfy `encode(a) < encode(b) ⇔ a < b` under plain byte
//! comparison. This module provides that encoding for [`Row`]s of [`Datum`]s,
//! mirroring what Hadoop achieves with `WritableComparable` keys.
//!
//! Encoding per datum (one tag byte, then the payload):
//!
//! * `NULL` → `0x00` (sorts first, matching [`Datum`]'s `Ord`)
//! * integers → `0x01` + big-endian `i64` with the sign bit flipped
//!   (`I32` widens to `I64`, matching `Datum`'s cross-width comparison)
//! * `F64` → `0x02` + IEEE-754 bits transformed for total order
//! * `Str` → `0x03` + bytes with `0x00` escaped as `0x00 0xFF`, terminated by
//!   `0x00 0x00` (so prefixes sort before extensions)
//!
//! Decoding recovers integer datums as `I64`; `Datum`'s coercing equality
//! makes this invisible to result comparison.

use crate::datum::Datum;
use crate::error::{ClydeError, Result};
use crate::row::Row;

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_F64: u8 = 0x02;
const TAG_STR: u8 = 0x03;

/// Append the order-preserving encoding of `d` to `out`.
pub fn encode_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(TAG_NULL),
        Datum::I32(v) => encode_int(out, i64::from(*v)),
        Datum::I64(v) => encode_int(out, *v),
        Datum::F64(v) => {
            out.push(TAG_F64);
            let bits = v.to_bits();
            // IEEE-754 total-order transform: negative floats get all bits
            // flipped, non-negative floats get the sign bit flipped.
            let ordered = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Datum::Str(s) => {
            out.push(TAG_STR);
            for &b in s.as_bytes() {
                if b == 0x00 {
                    out.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    out.push(b);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

fn encode_int(out: &mut Vec<u8>, v: i64) {
    out.push(TAG_INT);
    out.extend_from_slice(&((v as u64) ^ (1 << 63)).to_be_bytes());
}

/// Encode a sequence of datums; fields concatenate, so keys sort
/// lexicographically by field, and a key that is a prefix of another sorts
/// first. The empty key encodes to an empty, unallocated buffer.
pub fn encode_datums(datums: &[Datum]) -> Vec<u8> {
    let mut out = Vec::with_capacity(datums.len() * 9);
    for d in datums {
        encode_datum(&mut out, d);
    }
    out
}

/// Encode a whole row (see [`encode_datums`]).
pub fn encode_row(row: &Row) -> Vec<u8> {
    encode_datums(row.values())
}

/// Decode one datum from `buf` at `*pos`, advancing `*pos`.
pub fn decode_datum(buf: &[u8], pos: &mut usize) -> Result<Datum> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| ClydeError::Format("keycodec: empty buffer".into()))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Datum::Null),
        TAG_INT => {
            let raw = take8(buf, pos)?;
            Ok(Datum::I64((u64::from_be_bytes(raw) ^ (1 << 63)) as i64))
        }
        TAG_F64 => {
            let raw = take8(buf, pos)?;
            let ordered = u64::from_be_bytes(raw);
            let bits = if ordered & (1 << 63) != 0 {
                ordered ^ (1 << 63)
            } else {
                !ordered
            };
            Ok(Datum::F64(f64::from_bits(bits)))
        }
        TAG_STR => {
            let mut bytes = Vec::new();
            loop {
                let b = *buf
                    .get(*pos)
                    .ok_or_else(|| ClydeError::Format("keycodec: unterminated string".into()))?;
                *pos += 1;
                if b != 0x00 {
                    bytes.push(b);
                    continue;
                }
                let next = *buf
                    .get(*pos)
                    .ok_or_else(|| ClydeError::Format("keycodec: truncated escape".into()))?;
                *pos += 1;
                match next {
                    0x00 => break,
                    0xFF => bytes.push(0x00),
                    _ => return Err(ClydeError::Format("keycodec: invalid string escape".into())),
                }
            }
            let s = String::from_utf8(bytes)
                .map_err(|_| ClydeError::Format("keycodec: invalid utf-8".into()))?;
            Ok(Datum::from(s))
        }
        other => Err(ClydeError::Format(format!(
            "keycodec: unknown tag {other:#x}"
        ))),
    }
}

/// Decode a full row (reads datums until the buffer is exhausted).
pub fn decode_row(buf: &[u8]) -> Result<Row> {
    let mut pos = 0;
    let mut row = Row::empty();
    while pos < buf.len() {
        row.push(decode_datum(buf, &mut pos)?);
    }
    Ok(row)
}

fn take8(buf: &[u8], pos: &mut usize) -> Result<[u8; 8]> {
    let end = *pos + 8;
    let slice = buf
        .get(*pos..end)
        .ok_or_else(|| ClydeError::Format("keycodec: truncated payload".into()))?;
    *pos = end;
    Ok(slice.try_into().expect("slice length checked"))
}

/// Encode a row where some fields must sort descending.
///
/// The SSB queries in flight 3 ORDER BY `d_year asc, revenue desc`; to keep
/// the final sort a plain byte sort, descending fields are encoded with all
/// payload bytes complemented.
pub fn encode_row_with_directions(row: &Row, descending: &[bool]) -> Vec<u8> {
    debug_assert_eq!(row.len(), descending.len());
    let mut out = Vec::with_capacity(row.len() * 9);
    for (d, &desc) in row.iter().zip(descending) {
        let start = out.len();
        encode_datum(&mut out, d);
        if desc {
            for b in &mut out[start..] {
                *b = !*b;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use proptest::prelude::*;

    #[test]
    fn int_order_preserved() {
        let vals = [i64::MIN, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            let a = encode_row(&row![w[0]]);
            let b = encode_row(&row![w[1]]);
            assert!(a < b, "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn cross_width_ints_encode_identically() {
        assert_eq!(encode_row(&row![42i32]), encode_row(&row![42i64]));
    }

    #[test]
    fn string_prefix_sorts_first() {
        assert!(encode_row(&row!["MFGR#12"]) < encode_row(&row!["MFGR#122"]));
        assert!(encode_row(&row!["ASIA"]) < encode_row(&row!["EUROPE"]));
    }

    #[test]
    fn embedded_nul_roundtrip_and_order() {
        let a = Datum::str("a\0b");
        let b = Datum::str("a\0c");
        let mut ea = Vec::new();
        encode_datum(&mut ea, &a);
        let mut eb = Vec::new();
        encode_datum(&mut eb, &b);
        assert!(ea < eb);
        let mut pos = 0;
        assert_eq!(decode_datum(&ea, &mut pos).unwrap(), a);
    }

    #[test]
    fn null_sorts_before_everything() {
        let null = encode_row(&Row::new(vec![Datum::Null]));
        assert!(null < encode_row(&row![i64::MIN]));
        assert!(null < encode_row(&row![""]));
        assert!(null < encode_row(&row![f64::NEG_INFINITY]));
    }

    #[test]
    fn row_prefix_sorts_first() {
        assert!(encode_row(&row![1i64]) < encode_row(&row![1i64, 0i64]));
    }

    #[test]
    fn roundtrip_mixed_row() {
        let r = row![7i64, "ASIA", 3.5f64];
        let decoded = decode_row(&encode_row(&r)).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn descending_direction_flips_order() {
        let asc_small = encode_row_with_directions(&row![1992i64, 10i64], &[false, true]);
        let asc_big = encode_row_with_directions(&row![1992i64, 99i64], &[false, true]);
        // revenue desc: bigger revenue sorts first
        assert!(asc_big < asc_small);
        // but year asc still dominates
        let y93 = encode_row_with_directions(&row![1993i64, 999i64], &[false, true]);
        assert!(asc_small < y93);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(decode_row(&[TAG_INT, 1, 2]).is_err());
        assert!(decode_row(&[TAG_STR, b'a']).is_err());
        assert!(decode_row(&[0x77]).is_err());
        assert!(decode_row(&[TAG_STR, 0x00, 0x33]).is_err());
    }

    fn arb_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<i64>().prop_map(Datum::I64),
            any::<f64>().prop_map(Datum::F64),
            "[a-zA-Z0-9#\\x00 ]{0,12}".prop_map(Datum::from),
        ]
    }

    fn arb_row() -> impl Strategy<Value = Row> {
        proptest::collection::vec(arb_datum(), 0..5).prop_map(Row::new)
    }

    proptest! {
        #[test]
        fn encoding_preserves_row_order(a in arb_row(), b in arb_row()) {
            let ea = encode_row(&a);
            let eb = encode_row(&b);
            prop_assert_eq!(ea.cmp(&eb), a.cmp(&b));
        }

        #[test]
        fn roundtrip(a in arb_row()) {
            let decoded = decode_row(&encode_row(&a)).unwrap();
            // Coercing equality: I32 comes back as I64, values compare equal.
            prop_assert_eq!(decoded, a);
        }
    }
}
