//! LEB128 variable-length integer encoding.
//!
//! Used by the storage formats (`clyde-columnar`) for lengths and dictionary
//! codes, where most values are small and a fixed 4-byte width would waste
//! I/O — which matters, because scan bandwidth is exactly what the paper's
//! columnar layout is trying to conserve.

use crate::error::{ClydeError, Result};

/// Append `v` to `out` as unsigned LEB128.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// `v` as unsigned LEB128 on the stack: the buffer, of which the first
/// `n` bytes are the ones [`write_u64`] appends.
pub fn encode_u64(mut v: u64) -> ([u8; MAX_LEN], usize) {
    let mut bytes = [0; MAX_LEN];
    for (n, slot) in bytes.iter_mut().enumerate() {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            *slot = byte;
            return (bytes, n + 1);
        }
        *slot = byte | 0x80;
    }
    (bytes, MAX_LEN)
}

/// Append `v` to `out` as zigzag-coded signed LEB128.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Decode an unsigned LEB128 value from `buf` starting at `*pos`, advancing
/// `*pos` past it.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| ClydeError::Format("varint: unexpected end of buffer".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(ClydeError::Format("varint: overflow".into()));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

/// Decode a zigzag-coded signed LEB128 value.
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_u64(buf, pos)?))
}

/// The longest LEB128 encoding of a `u64`.
pub(crate) const MAX_LEN: usize = 10;

/// [`read_u64`] for hot decode loops. While `MAX_LEN` bytes remain from
/// `*pos`, the value is decoded from that fixed window, with no per-byte
/// bounds check. Nearer the end, and for a varint that does not end within
/// the window, it is [`read_u64`] itself, so the value, the advanced cursor
/// and every error are the same.
#[inline(always)]
pub fn read_u64_windowed(buf: &[u8], pos: &mut usize) -> Result<u64> {
    if let Some(window) = buf.get(*pos..).and_then(<[u8]>::first_chunk::<MAX_LEN>) {
        let mut result = 0u64;
        for (k, &byte) in window.iter().enumerate() {
            result |= u64::from(byte & 0x7f) << (7 * k);
            if byte & 0x80 == 0 {
                *pos += k + 1;
                return Ok(result);
            }
        }
    }
    read_u64_near_end(buf, pos)
}

/// [`read_u64`], kept out of line so the windowed fast path inlines small.
#[cold]
#[inline(never)]
fn read_u64_near_end(buf: &[u8], pos: &mut usize) -> Result<u64> {
    read_u64(buf, pos)
}

/// [`read_i64`] through [`read_u64_windowed`].
#[inline(always)]
pub fn read_i64_windowed(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_u64_windowed(buf, pos)?))
}

/// Encoded length in bytes of `v` as unsigned LEB128.
pub fn encoded_len_u64(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The signed value of a zigzag code ([`read_i64`] past the varint).
#[inline(always)]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_on_the_stack_writes_what_write_appends() {
        for v in [0, 1, 127, 128, 300, 1 << 35, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let (bytes, n) = encode_u64(v);
            assert_eq!(&bytes[..n], &buf[..], "{v}");
            assert_eq!(n, encoded_len_u64(v));
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 2);
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 0);
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 127);
        assert_eq!(pos, 2);
    }

    #[test]
    fn boundary_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), encoded_len_u64(v));
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn signed_boundaries() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -64, 63, -65, 64] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
        assert!(read_u64(&[], &mut 0).is_err());
    }

    #[test]
    fn malformed_overlong_varint_errors() {
        // 11 continuation bytes exceed the 64-bit shift budget.
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_u64(v: u64) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!(buf.len(), encoded_len_u64(v));
        }

        #[test]
        fn roundtrip_i64(v: i64) {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }

        /// The windowed reader is `read_u64` on any bytes from any cursor:
        /// the same value or error, and the same cursor after a value.
        #[test]
        fn windowed_read_is_read_u64(
            buf in proptest::collection::vec(any::<u8>(), 0..40),
            start in 0usize..42,
            continuation in any::<bool>(),
        ) {
            // Biasing to continuation bytes reaches long and over-long varints.
            let buf: Vec<u8> = if continuation {
                buf.iter().map(|b| b | 0x80).chain([0x01]).collect()
            } else {
                buf
            };
            let (mut a, mut b) = (start, start);
            let want = read_u64(&buf, &mut a);
            prop_assert_eq!(read_u64_windowed(&buf, &mut b), want.clone());
            if want.is_ok() {
                prop_assert_eq!(a, b);
            }
            let (mut a, mut b) = (start, start);
            prop_assert_eq!(read_i64_windowed(&buf, &mut b), read_i64(&buf, &mut a));
        }

        #[test]
        fn sequences_roundtrip(vs in proptest::collection::vec(any::<u64>(), 0..50)) {
            let mut buf = Vec::new();
            for &v in &vs {
                write_u64(&mut buf, v);
            }
            let mut pos = 0;
            for &v in &vs {
                prop_assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
