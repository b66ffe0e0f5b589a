//! Key hashing and partitioning.
//!
//! A hand-rolled Fx-style multiply-xor hash (the rustc hash): very fast on
//! short keys, good enough distribution for partitioning, and dependency-
//! free. HashDoS resistance is irrelevant here — keys come from the job's
//! own dataset.
//!
//! Range reduction (hash → partition, hash → table slot) uses Lemire's
//! multiply-shift instead of `%`: `(hash * n) >> 64` maps a uniform 64-bit
//! hash onto `0..n` without a division, which costs ~20 cycles against the
//! multiply's ~3 on current cores. The map consumes the *high* hash bits,
//! which the Murmur3 finalizer fully avalanches.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

/// Fx-style hash of a byte string.
///
/// Whole 8-byte words fold in one by one. A 1–7 byte tail folds in as
/// one more word: the tail bytes little-endian in the low bytes, zero
/// padding, and the tail length in the top byte (so `"a"` and `"a\0"`
/// differ). The output is part of the data layout — it routes every KV
/// to its rank and every cached dataset to its placement — so it must
/// never change; the tests pin it against a reference implementation.
#[inline]
pub fn fxhash64(bytes: &[u8]) -> u64 {
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
    let rem = chunks.remainder().len();
    if rem != 0 {
        let w = tail_word(bytes, rem) | (rem as u64) << 56;
        h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
    // Murmur3 finalizer: full avalanche so every bit of the hash — the
    // partitioner and the group table both consume the high bits via
    // multiply-shift — depends on every input bit.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The last `rem` (1..=7) bytes of `bytes` as a little-endian word with
/// zero high bytes, built from overlapping fixed-width loads rather than
/// a variable-length copy: a key of 8+ bytes loads its last full word
/// and shifts the consumed bytes out; a shorter key ORs two overlapping
/// 4-byte (or three 1-byte) loads, where overlapping bytes land on the
/// same bit positions and so OR to themselves.
#[inline]
fn tail_word(bytes: &[u8], rem: usize) -> u64 {
    let n = bytes.len();
    if n >= 8 {
        let last = u64::from_le_bytes(bytes[n - 8..].try_into().expect("8-byte word"));
        return last >> ((8 - rem) * 8);
    }
    if rem >= 4 {
        let lo = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte word"));
        let hi = u32::from_le_bytes(bytes[n - 4..].try_into().expect("4-byte word"));
        return u64::from(lo) | u64::from(hi) << ((rem - 4) * 8);
    }
    let mid = rem / 2;
    u64::from(bytes[0])
        | u64::from(bytes[mid]) << (mid * 8)
        | u64::from(bytes[rem - 1]) << ((rem - 1) * 8)
}

/// Lemire multiply-shift fast range reduction: maps a uniform 64-bit
/// `hash` onto `0..n` without a division.
#[inline]
pub fn fast_range(hash: u64, n: usize) -> usize {
    ((u128::from(hash) * n as u128) >> 64) as usize
}

/// The destination partition (rank) of `key` among `n_parts` — the
/// default hash-partitioner of both frameworks.
#[inline]
pub fn partition_of(key: &[u8], n_parts: usize) -> usize {
    fast_range(fxhash64(key), n_parts)
}

/// [`partition_of`] for a key whose hash is already known (the shuffle
/// plumbs hashes computed by the combiner through
/// [`crate::Emitter::emit_hashed`] so they are not recomputed).
#[inline]
pub fn partition_of_hashed(hash: u64, n_parts: usize) -> usize {
    fast_range(hash, n_parts)
}

/// A `std` hasher adapter so `HashMap`s in the legacy combiner/convert
/// paths use the same fast function.
///
/// The first `write` takes `fxhash64` of the bytes directly — for the
/// byte-string keys these maps hold, a single-`write` hash is exactly
/// `fxhash64(key)`, one pass with no extra mixing. Later `write`s (e.g.
/// the length prefix `Hash for [u8]` adds) fold in with one
/// rotate-xor-multiply round.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
    written: bool,
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        if self.written {
            self.state = (self.state.rotate_left(5) ^ fxhash64(bytes)).wrapping_mul(SEED);
        } else {
            self.state = fxhash64(bytes);
            self.written = true;
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The original `fxhash64`, kept verbatim as the reference the
    /// optimized tail must match bit for bit: its output decides shuffle
    /// routing and cache placement.
    fn fxhash64_reference(bytes: &[u8]) -> u64 {
        let mut h = 0u64;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] = rem.len() as u8;
            let w = u64::from_le_bytes(tail);
            h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_reference_on_every_length() {
        let mut rng = 0x006D_696D_6972_u64;
        for len in 0..=64usize {
            // Constant fills catch a tail word that leaks or drops high
            // bytes; random keys cover the rest.
            let mut keys: Vec<Vec<u8>> = [0x00u8, 0x80, 0xFF].map(|b| vec![b; len]).to_vec();
            keys.extend((0..2000).map(|_| (0..len).map(|_| splitmix64(&mut rng) as u8).collect()));
            for key in &keys {
                assert_eq!(fxhash64(key), fxhash64_reference(key), "key {key:?}");
                // Subslices at odd offsets exercise unaligned loads.
                if len > 1 {
                    let sub = &key[1..];
                    assert_eq!(fxhash64(sub), fxhash64_reference(sub), "key {sub:?}");
                }
            }
        }
    }

    #[test]
    fn golden_values_are_stable() {
        // Frozen outputs: a change here re-routes every partition and
        // every cached dataset.
        for (key, want) in [
            (&b""[..], 0u64),
            (b"a", 0x6B16_D05A_8091_CB5F),
            (b"ab", 0xF1A8_9F89_D90A_3F2E),
            (b"abc", 0xE1AF_D14F_FC85_5B42),
            (b"mimir", 0x289C_F921_1C15_90CD),
            (b"abcdefg", 0x88FA_CC41_87F9_BFA6),
            (b"abcdefgh", 0xE6FF_FA19_1E72_013E),
            (b"the quick brown fox", 0x83C5_3E10_D949_6ECF),
            (b"supercalifragilisticexpialidocious", 0x21D9_5924_9ED7_155A),
        ] {
            assert_eq!(fxhash64(key), want, "key {key:?}");
            assert_eq!(fxhash64_reference(key), want, "reference, key {key:?}");
        }
    }

    #[test]
    fn distinct_inputs_hash_differently() {
        let inputs: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| format!("key-{i}").into_bytes())
            .collect();
        let hashes: std::collections::HashSet<u64> = inputs.iter().map(|b| fxhash64(b)).collect();
        assert_eq!(hashes.len(), inputs.len());
    }

    #[test]
    fn short_keys_of_different_length_differ() {
        assert_ne!(fxhash64(b"a"), fxhash64(b"a\0"));
        assert_ne!(fxhash64(b""), fxhash64(b"\0"));
    }

    #[test]
    fn partitioning_is_roughly_balanced() {
        let n_parts = 16;
        let mut counts = vec![0usize; n_parts];
        for i in 0..16_000u32 {
            counts[partition_of(format!("word{i}").as_bytes(), n_parts)] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max < min * 2, "partition imbalance: min {min}, max {max}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(fxhash64(b"mimir"), fxhash64(b"mimir"));
    }

    #[test]
    fn fast_range_is_total_and_balanced() {
        for n in [1usize, 3, 7, 16, 1000] {
            let mut counts = vec![0usize; n];
            for i in 0..(n as u64 * 1000) {
                let d = fast_range(fxhash64(&i.to_le_bytes()), n);
                assert!(d < n);
                counts[d] += 1;
            }
            let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(max < min * 2, "n={n}: min {min}, max {max}");
        }
    }

    #[test]
    fn fast_range_extremes() {
        assert_eq!(fast_range(0, 17), 0);
        assert_eq!(fast_range(u64::MAX, 17), 16);
        assert_eq!(fast_range(u64::MAX, 1), 0);
    }

    #[test]
    fn single_write_hasher_equals_fxhash64() {
        // The one-pass pin: hashing a byte string through the adapter in a
        // single `write` is exactly `fxhash64` — no double mixing.
        for key in [
            &b""[..],
            b"a",
            b"mimir",
            b"supercalifragilisticexpialidocious",
            &[0u8; 64],
        ] {
            let mut h = FxHasher::default();
            h.write(key);
            assert_eq!(h.finish(), fxhash64(key), "key {key:?}");
        }
    }

    #[test]
    fn multi_write_still_separates_boundaries() {
        // ("ab","c") vs ("a","bc") must differ: the fold step sees
        // per-write hashes, not raw concatenation.
        let h2 = |a: &[u8], b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(a);
            h.write(b);
            h.finish()
        };
        assert_ne!(h2(b"ab", b"c"), h2(b"a", b"bc"));
        assert_ne!(h2(b"ab", b"c"), fxhash64(b"abc"));
    }

    #[test]
    fn partition_of_matches_hashed_variant() {
        for i in 0..1000u64 {
            let k = i.to_le_bytes();
            for n in [1usize, 2, 7, 64] {
                assert_eq!(partition_of(&k, n), partition_of_hashed(fxhash64(&k), n));
            }
        }
    }
}
