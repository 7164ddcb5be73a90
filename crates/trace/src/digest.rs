//! The workspace's one 128-bit digest: a trace's integrity footer and
//! content address, a job's cache key, a cache entry's checksum.
//!
//! The container has no crates.io access, so there is no `sha2` to
//! lean on. The digest is two independent FNV-1a-style 64-bit lanes
//! over the same byte stream (distinct offset bases and multipliers,
//! the second lane additionally rotating and salting each input byte
//! so the lanes cannot cancel), finished with a SplitMix64-style
//! avalanche that folds the length in and cross-mixes the lanes. It is
//! *not* cryptographic — nothing here defends against adversarial
//! collisions — but it is deterministic across platforms,
//! avalanche-complete in the finisher, and 128 bits wide, which is
//! what an integrity check against accidental corruption and a result
//! cache keyed by honest job descriptions need.
//!
//! The digest is versioned *indirectly*: whatever it hashes carries
//! its own magic and version field, so changing an encoding bumps that
//! version, which changes every digest, which cleanly orphans all
//! previously cached results rather than silently serving stale ones.

use std::fmt;

use crate::wire::CodecError;

/// FNV-1a 64-bit offset basis (lane 0).
const OFFSET0: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime (lane 0 multiplier).
const PRIME0: u64 = 0x0000_0100_0000_01b3;
/// Lane 1 offset basis: the golden-ratio constant, unrelated to lane 0.
const OFFSET1: u64 = 0x9e37_79b9_7f4a_7c15;
/// Lane 1 multiplier: an odd constant with good bit dispersion
/// (from MurmurHash3's 64-bit finalizer family).
const PRIME1: u64 = 0xff51_afd7_ed55_8ccd;

/// SplitMix64 finalizer: full-avalanche bijection on 64 bits.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A 128-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Digests `bytes`.
    pub fn compute(bytes: &[u8]) -> Digest {
        let mut h0 = OFFSET0;
        let mut h1 = OFFSET1;
        for &b in bytes {
            h0 = (h0 ^ u64::from(b)).wrapping_mul(PRIME0);
            h1 = (h1 ^ u64::from(b.rotate_left(3) ^ 0xa5)).wrapping_mul(PRIME1);
        }
        let len = bytes.len() as u64;
        let a = avalanche(h0 ^ len);
        let b = avalanche(h1 ^ len.rotate_left(32) ^ a);
        let a = avalanche(a ^ b.rotate_left(17));
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        Digest(out)
    }

    /// Lowercase 32-character hex form (file names, logs, goldens).
    pub fn to_hex(self) -> String {
        let digit = |nibble: u8| char::from(nibble + if nibble < 10 { b'0' } else { b'a' - 10 });
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(digit(b >> 4));
            s.push(digit(b & 0xf));
        }
        s
    }

    /// Parses the 32-character hex form.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] unless `hex` is exactly 32
    /// lowercase/uppercase hex digits.
    pub fn from_hex(hex: &str) -> Result<Digest, CodecError> {
        let bad =
            || CodecError::Malformed(format!("digest hex must be 32 hex digits, got {hex:?}"));
        if hex.len() != 32 {
            return Err(bad());
        }
        let mut out = [0u8; 16];
        for (byte, pair) in out.iter_mut().zip(hex.as_bytes().chunks_exact(2)) {
            let nibble = |i: usize| pair.get(i).and_then(|&c| char::from(c).to_digit(16));
            let (Some(hi), Some(lo)) = (nibble(0), nibble(1)) else {
                return Err(bad());
            };
            *byte = u8::try_from(hi << 4 | lo).map_err(|_| bad())?;
        }
        Ok(Digest(out))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flips_avalanche_and_length_is_folded_in() {
        for (base, byte, bit) in [
            (b"the quick brown fox".to_vec(), 0, 1),
            (vec![0u8; 64], 20, 0x10),
        ] {
            let mut flipped = base.clone();
            flipped[byte] ^= bit;
            let (a, b) = (Digest::compute(&base), Digest::compute(&flipped));
            // A decent digest flips roughly half the 128 output bits.
            let differing: u32 =
                a.0.iter()
                    .zip(b.0.iter())
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
            assert!(
                (32..=96).contains(&differing),
                "only {differing}/128 bits differ"
            );
        }
        // Same prefix, appended zero byte: the length fold must matter.
        assert_ne!(Digest::compute(b""), Digest::compute(&[0u8]));
        assert_ne!(Digest::compute(&[0u8]), Digest::compute(&[0u8, 0]));
        assert_ne!(Digest::compute(b"abc"), Digest::compute(b"abc\0"));
    }

    #[test]
    fn hex_roundtrip() {
        let d = Digest::compute(b"roundtrip");
        let hex = d.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, hex.to_lowercase());
        assert_eq!(hex, d.to_string());
        assert_eq!(Digest::from_hex(&hex).unwrap(), d);
        assert_eq!(Digest::from_hex(&hex.to_uppercase()).unwrap(), d);
        assert!(Digest::from_hex("xyz").is_err());
        assert!(Digest::from_hex(&hex[..30]).is_err());
        assert!(Digest::from_hex(&format!("g{}", &hex[1..])).is_err());
        assert!(Digest::from_hex(&"µ".repeat(16)).is_err());
    }
}
