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

/// Where encoded bytes go: a `Vec<u8>`, or the shuffle's key type, which
/// keeps short keys inline so a map task encodes straight into the record
/// it emits.
pub trait KeySink {
    fn put(&mut self, bytes: &[u8]);
}

impl KeySink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Append the order-preserving encoding of `d` to `out`.
pub fn encode_datum(out: &mut impl KeySink, d: &Datum) {
    match d {
        Datum::Null => out.put(&[TAG_NULL]),
        Datum::I32(v) => encode_int(out, i64::from(*v)),
        Datum::I64(v) => encode_int(out, *v),
        Datum::F64(v) => {
            out.put(&[TAG_F64]);
            let bits = v.to_bits();
            // IEEE-754 total-order transform: negative floats get all bits
            // flipped, non-negative floats get the sign bit flipped.
            let ordered = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.put(&ordered.to_be_bytes());
        }
        Datum::Str(s) => {
            out.put(&[TAG_STR]);
            let mut runs = s.as_bytes().split(|&b| b == 0x00);
            if let Some(first) = runs.next() {
                out.put(first);
            }
            for run in runs {
                out.put(&[0x00, 0xFF]);
                out.put(run);
            }
            out.put(&[0x00, 0x00]);
        }
    }
}

fn encode_int(out: &mut impl KeySink, v: i64) {
    out.put(&[TAG_INT]);
    out.put(&((v as u64) ^ (1 << 63)).to_be_bytes());
}

/// The length of [`encode_datums`]' output, computed without encoding.
pub fn encoded_len(datums: &[Datum]) -> usize {
    datums
        .iter()
        .map(|d| match d {
            Datum::Null => 1,
            Datum::I32(_) | Datum::I64(_) | Datum::F64(_) => 9,
            Datum::Str(s) => 3 + s.len() + s.bytes().filter(|&b| b == 0x00).count(),
        })
        .sum()
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
    let truncated = || ClydeError::Format("keycodec: truncated payload".into());
    let raw = *buf
        .get(*pos..)
        .and_then(<[u8]>::first_chunk::<8>)
        .ok_or_else(truncated)?;
    *pos = pos.checked_add(8).ok_or_else(truncated)?;
    Ok(raw)
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

        #[test]
        fn encoded_len_is_the_encoding_length(a in arb_row()) {
            prop_assert_eq!(encoded_len(a.values()), encode_row(&a).len());
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_row(&bytes);
        }

        #[test]
        fn every_truncation_is_an_error_or_a_strict_field_prefix(
            a in proptest::collection::vec(arb_datum(), 2..5).prop_map(Row::new)
        ) {
            let encoded = encode_row(&a);
            for cut in 0..encoded.len() {
                if let Ok(prefix) = decode_row(&encoded[..cut]) {
                    prop_assert!(prefix.len() < a.len(), "cut {cut} decoded every field");
                    prop_assert_eq!(prefix.values(), &a.values()[..prefix.len()]);
                }
            }
        }

        #[test]
        fn single_bit_flips_never_panic(a in arb_row()) {
            let encoded = encode_row(&a);
            for bit in 0..encoded.len() * 8 {
                let mut flipped = encoded.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_row(&flipped);
            }
        }
    }
}
