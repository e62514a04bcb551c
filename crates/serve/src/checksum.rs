//! The FNV-1a-64 integrity checksum shared by every artifact codec.
//!
//! Both artifact forms trail their bytes with an FNV-1a 64-bit hash, in one
//! of two stridings:
//!
//! * [`fnv1a64`] — the classic byte-at-a-time variant, used by the
//!   `PALMED-MODEL v1` text trailer, where the integrity sweep is a rounding
//!   error next to the float parsing it protects.
//! * [`fnv1a64_words`] — the same hash strided over zero-padded 8-byte
//!   little-endian words, used by the binary `PALMED-MODEL v2b` codec and
//!   the `PALMED-WIRE v1` frames: 8× fewer multiplies, because the dominant
//!   cost of a validate-and-copy load would otherwise be the integrity sweep
//!   itself.
//!
//! The checksum is **integrity, not authentication**: an attacker can always
//! re-hash a crafted body, so every codec's structural validation must hold
//! on its own and declared counts must never drive unchecked allocations.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash over individual bytes (the `v1` text trailer).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64-bit hash strided over zero-padded 8-byte little-endian words
/// (the binary codec trailers).
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytewise_matches_the_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn strided_variant_differs_but_is_stable() {
        let data = b"palmed model bytes";
        assert_ne!(fnv1a64(data), fnv1a64_words(data));
        assert_eq!(fnv1a64_words(data), fnv1a64_words(data));
        // Whole words and ragged tails hash differently from each other.
        assert_ne!(fnv1a64_words(b"12345678"), fnv1a64_words(b"1234567"));
    }

    #[test]
    fn single_bit_flips_change_both_variants() {
        let mut data = b"sensitive artifact body".to_vec();
        let (b, w) = (fnv1a64(&data), fnv1a64_words(&data));
        data[5] ^= 0x01;
        assert_ne!(fnv1a64(&data), b);
        assert_ne!(fnv1a64_words(&data), w);
    }
}
