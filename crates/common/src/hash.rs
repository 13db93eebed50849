//! Fx-style fast hashing.
//!
//! The dimension hash tables at the heart of Clydesdale's star join are keyed
//! by integer primary keys and probed once per fact row — hundreds of
//! millions of probes per query. SipHash (std's default) would dominate the
//! probe cost, so we use the multiply-and-rotate "Fx" construction that rustc
//! uses. Implemented locally (~40 lines) to avoid a dependency; HashDoS is
//! not a concern for trusted benchmark data.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Firefox/rustc "Fx" hasher: wrapping multiply by a constant and a
/// 5-bit rotate per word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rem) = bytes.as_chunks::<8>();
        for &word in words {
            self.add_to_hash(u64::from_le_bytes(word));
        }
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            for (b, &r) in buf.iter_mut().zip(rem) {
                *b = r;
            }
            self.add_to_hash(u64::from_le_bytes(buf));
            // Mix in the remainder length so "a" and "a\0" differ.
            self.add_to_hash(rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add_to_hash(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// The FxHash of a byte string: the checksum behind both a DFS block's
/// checksum and a column chunk's seal.
pub fn hash_bytes(data: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(data);
    h.finish()
}

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer. Every
/// seeded decision (fault plans, corrupted replicas, workload jitter) and
/// every result-cache fingerprint hashes through it.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bytes a seal adds to the end of a sealed buffer.
pub const SEAL_LEN: usize = 8;

/// Seal `out`: append the [`hash_bytes`] of everything in it, little-endian.
/// Every encoded column chunk ends in its seal, so a chunk carries its own
/// end-to-end check whatever blocks it is cut into.
pub fn seal(out: &mut Vec<u8>) {
    let sum = hash_bytes(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// A sealed buffer's body and the seal recorded after it, *unchecked*;
/// `None` when `data` is shorter than a seal.
pub fn split_seal(data: &[u8]) -> Option<(&[u8], u64)> {
    data.split_last_chunk::<SEAL_LEN>()
        .map(|(body, sum)| (body, u64::from_le_bytes(*sum)))
}

/// The body of `data` if its trailing seal matches it, `None` otherwise.
pub fn unseal(data: &[u8]) -> Option<&[u8]> {
    split_seal(data)
        .filter(|&(body, sum)| hash_bytes(body) == sum)
        .map(|(body, _)| body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(fx(42u64), fx(42u64));
        assert_eq!(fx("customer"), fx("customer"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fx(1u64), fx(2u64));
        assert_ne!(fx("a"), fx("b"));
        assert_ne!(fx("a"), fx("a\0"));
        assert_ne!(fx([1u8, 2, 3].as_slice()), fx([1u8, 2, 3, 0].as_slice()));
    }

    /// The byte-string hash is both seals' checksum, so its output is part
    /// of the stored format: these values were recorded before `write`
    /// moved to `as_chunks` and must never change.
    #[test]
    fn hash_bytes_matches_recorded_golden_values() {
        let golden: [(usize, u64); 6] = [
            (0, 0x0000_0000_0000_0000),
            (1, 0xfdb5_77ba_2e47_a15e),
            (7, 0xf212_6e08_10d6_615e),
            (8, 0x6c44_085f_2da9_6813),
            (9, 0xb2b3_d2a4_750d_384b),
            (4096, 0x6595_54d3_78ad_c98f),
        ];
        for (n, want) in golden {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(hash_bytes(&bytes), want, "{n} bytes");
        }
    }

    #[test]
    fn a_seal_checks_its_body_and_nothing_else() {
        let mut sealed = b"column chunk".to_vec();
        seal(&mut sealed);
        assert_eq!(sealed.len(), 12 + SEAL_LEN);
        assert_eq!(unseal(&sealed), Some(&b"column chunk"[..]));
        assert_eq!(split_seal(&sealed).map(|(body, _)| body.len()), Some(12));
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            assert_eq!(unseal(&bad), None, "flip at {at}");
        }
        assert_eq!(unseal(&sealed[..SEAL_LEN - 1]), None);
        let mut empty = Vec::new();
        seal(&mut empty);
        assert_eq!(unseal(&empty), Some(&[][..]));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<i32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<i64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn spread_over_sequential_keys() {
        // Sequential integer keys (dimension PKs) must not collide in the low
        // bits, or hashbrown bucket selection degenerates.
        let mut low_bits: FxHashSet<u64> = FxHashSet::default();
        for k in 0..1024u64 {
            low_bits.insert(fx(k) >> 54); // top 10 bits, which hashbrown uses
        }
        // Expect substantial diversity (not a strict uniformity test).
        assert!(low_bits.len() > 200, "got {}", low_bits.len());
    }
}
