//! Hand-rolled SHA-256 and HMAC-SHA256 for signed fingerprint sidecars.
//!
//! The artifact plane's FNV trailers are *integrity* (they catch bit rot),
//! and determinism fingerprints are *identity* (they prove two loads serve
//! the same model); neither is *authenticity* — anyone who can write the
//! file can recompute both.  The keyed `PALMED-FPRINT v2` sidecar
//! ([`crate::fingerprint`]) closes that gap with an HMAC-SHA256 tag, and
//! this module provides the two primitives it needs.
//!
//! Hand-rolled because the workspace builds offline, so no crates — the
//! implementation is the FIPS 180-4 compression function plus the RFC 2104
//! HMAC construction, pinned against the published test vectors below.  It processes a few dozen bytes per
//! sidecar verification; throughput is irrelevant here.
//!
//! **This is not a general-purpose crypto library.**  No effort is made at
//! constant-time execution beyond [`verify_tag`]'s branch-free comparison,
//! and the only supported use is sidecar signing, where the attacker model
//! is "can replace artifact files but does not hold the key".

/// Output size of SHA-256 (and of the HMAC tag), in bytes.
pub const TAG_LEN: usize = 32;

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 initial hash state (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One compression round over a 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-256 of `data` (FIPS 180-4).
pub fn sha256(data: &[u8]) -> [u8; TAG_LEN] {
    let mut state = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut state, block);
    }
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let tail = blocks.remainder();
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let padded = if tail.len() < 56 { 64 } else { 128 };
    let bits = (data.len() as u64).wrapping_mul(8);
    last[padded - 8..padded].copy_from_slice(&bits.to_be_bytes());
    for block in last[..padded].chunks_exact(64) {
        compress(&mut state, block);
    }
    let mut out = [0u8; TAG_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// HMAC-SHA256 of `message` under `key` (RFC 2104): keys longer than the
/// 64-byte block are hashed first, shorter ones zero-padded.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; TAG_LEN] {
    let mut padded_key = [0u8; 64];
    if key.len() > 64 {
        padded_key[..TAG_LEN].copy_from_slice(&sha256(key));
    } else {
        padded_key[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(64 + message.len());
    inner.extend(padded_key.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(message);
    let inner_hash = sha256(&inner);
    let mut outer = Vec::with_capacity(64 + TAG_LEN);
    outer.extend(padded_key.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_hash);
    sha256(&outer)
}

/// Compares two tags without an early exit on the first differing byte, so
/// the comparison time does not leak the matching prefix length.
pub fn verify_tag(expected: &[u8; TAG_LEN], computed: &[u8; TAG_LEN]) -> bool {
    expected.iter().zip(computed).fold(0u8, |acc, (a, b)| acc | (a ^ b)) == 0
}

/// Renders a tag as lowercase hex (the sidecar wire form).
pub fn tag_to_hex(tag: &[u8; TAG_LEN]) -> String {
    tag.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a 64-digit lowercase/uppercase hex tag.
pub fn tag_from_hex(hex: &str) -> Option<[u8; TAG_LEN]> {
    if hex.len() != 2 * TAG_LEN || !hex.is_ascii() {
        return None;
    }
    let bytes = hex.as_bytes();
    let mut out = [0u8; TAG_LEN];
    for (i, slot) in out.iter_mut().enumerate() {
        let hi = (bytes[2 * i] as char).to_digit(16)?;
        let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
        *slot = (hi * 16 + lo) as u8;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(tag: &[u8; TAG_LEN]) -> String {
        tag_to_hex(tag)
    }

    #[test]
    fn sha256_matches_the_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One block boundary case: exactly 56 bytes forces a second block.
        assert_eq!(
            hex(&sha256(&[0x61u8; 56])),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
    }

    #[test]
    fn hmac_matches_the_rfc4231_vectors() {
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: short ASCII key.
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 6: key longer than one block (hashed first).
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn tag_hex_round_trips_and_rejects_garbage() {
        let tag = sha256(b"round trip");
        assert_eq!(tag_from_hex(&tag_to_hex(&tag)), Some(tag));
        assert_eq!(tag_from_hex("short"), None);
        assert_eq!(tag_from_hex(&"zz".repeat(TAG_LEN)), None);
        let mut upper = tag_to_hex(&tag).to_uppercase();
        assert_eq!(tag_from_hex(&upper), Some(tag));
        upper.push('0');
        assert_eq!(tag_from_hex(&upper), None);
    }

    #[test]
    fn verify_tag_accepts_equal_and_rejects_unequal() {
        let a = sha256(b"a");
        let mut b = a;
        assert!(verify_tag(&a, &b));
        b[31] ^= 1;
        assert!(!verify_tag(&a, &b));
        b[31] ^= 1;
        b[0] ^= 0x80;
        assert!(!verify_tag(&a, &b));
    }
}
