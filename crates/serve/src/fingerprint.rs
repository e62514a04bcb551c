//! Determinism fingerprints: a canonical hash of *what a model predicts*.
//!
//! The codecs' checksums prove the **bytes** arrived intact; they say nothing
//! about whether two differently-encoded artifacts — a v1 text file and its
//! v2b migration, a registered artifact and one decoded from v2b bytes —
//! are the *same model*.  A fingerprint closes that gap: it is an
//! FNV-1a-64 hash over the bit patterns of the model's IPC predictions on a
//! pinned, deterministic probe corpus, so any two loads that predict
//! bit-identically fingerprint identically, across formats, backings,
//! refactors and replicas.
//!
//! Fingerprints are recorded in a **sidecar** file next to saved artifacts
//! (`model.palmed2` → `model.palmed2.fp`, see [`sidecar_path`]) and verified
//! by the [`ModelRegistry`](crate::ModelRegistry) at load and refresh time: a
//! file that decodes cleanly but predicts differently than what was deployed
//! is rejected with [`ArtifactError::FingerprintMismatch`].
//!
//! A fingerprint alone is *determinism* evidence: it has no key, so anyone
//! who can write the artifact can also write a matching sidecar.  The
//! **signed** `PALMED-FPRINT v2` sidecar ([`write_signed_sidecar`]) appends
//! an HMAC-SHA256 tag over the sidecar body under a deployment key
//! ([`crate::sign`]), upgrading the sidecar to *provenance* evidence: a
//! registry configured with the key
//! ([`ModelRegistry::set_signing_keys`](crate::ModelRegistry::set_signing_keys))
//! rejects v2 sidecars whose tag does not verify
//! ([`ArtifactError::SignatureMismatch`]) through the same
//! quarantine-feeding reload path as any other structured failure.  Unkeyed
//! v1 sidecars stay accepted (fingerprint-only) unless the registry
//! [requires signed sidecars](crate::ModelRegistry::require_signed), and a
//! v2 sidecar read without a configured key degrades to fingerprint-only
//! verification.
//!
//! The probe corpus ([`probe_corpus`]) is **pinned**: its construction is
//! part of the fingerprint's definition, and changing it invalidates every
//! recorded fingerprint.  Evolve it only together with a sidecar format
//! version bump.

use crate::artifact::ArtifactError;
use crate::checksum::fnv1a64;
use crate::io::ArtifactIo;
use crate::sign;
use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, Microkernel};
use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// Header line of the unkeyed fingerprint sidecar format.
const FPRINT_HEADER: &str = "PALMED-FPRINT v1";

/// Header line of the keyed (HMAC-signed) sidecar format.
const FPRINT_HEADER_V2: &str = "PALMED-FPRINT v2";

/// Number of pseudo-random instruction mixes in the probe corpus.
const PROBE_MIXES: usize = 48;

/// Fixed seed for the probe-mix generator ("PALMED" in ASCII, versioned).
/// Changing this changes every fingerprint — see the module docs.
const PROBE_SEED: u64 = 0x50414c4d_45440001;

/// A tiny splitmix64, local to this module so the probe corpus can never
/// drift with the vendored `rand` shim.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pinned probe corpus for a model with `num_slots` instruction slots
/// (use the artifact's instruction-set length; every load of one model
/// agrees on it).
///
/// The corpus exercises the prediction surface deterministically: the empty
/// kernel, every single-instruction kernel over the first slots, a fixed set
/// of pseudo-random mixes, and out-of-range boundary probes (which predict
/// `None` and hash as a distinguished pattern).
pub fn probe_corpus(num_slots: usize) -> Vec<Microkernel> {
    let mut probes = Vec::with_capacity(2 + num_slots.min(12) + PROBE_MIXES + 2);
    // The empty kernel (predicts None on every model).
    probes.push(Microkernel::new());
    // Singles over the leading slots.
    for i in 0..num_slots.min(12) {
        probes.push(Microkernel::single(InstId(i as u32)));
    }
    // Deterministic mixes.
    let mut state = PROBE_SEED ^ (num_slots as u64);
    for _ in 0..PROBE_MIXES {
        let mut kernel = Microkernel::new();
        if num_slots > 0 {
            let distinct = 1 + (splitmix64(&mut state) % 4) as usize;
            for _ in 0..distinct {
                let inst = InstId((splitmix64(&mut state) % num_slots as u64) as u32);
                let mult = 1 + (splitmix64(&mut state) % 7) as u32;
                kernel.add(inst, mult);
            }
        }
        probes.push(kernel);
    }
    // Boundary probes: the last valid slot and the first invalid one.
    if num_slots > 0 {
        probes.push(Microkernel::single(InstId(num_slots as u32 - 1)));
    }
    probes.push(Microkernel::single(InstId(num_slots as u32)));
    probes
}

/// Computes the determinism fingerprint of a model: FNV-1a-64 over the slot
/// count and the bit patterns of its IPC predictions on the pinned
/// [`probe_corpus`].  `None` predictions (unmapped or out-of-range
/// instructions) hash as `u64::MAX`, a NaN bit pattern no real IPC produces.
///
/// Two models fingerprint identically iff they predict bit-identically on
/// the probe corpus — which, for the serving plane's ways in, the codec
/// round-trip tests extend to *all* kernels.
pub fn model_fingerprint(model: &ConjunctiveMapping, num_slots: usize) -> u64 {
    let mut buffer = Vec::with_capacity(8 * (PROBE_MIXES + num_slots.min(12) + 4));
    buffer.extend_from_slice(&(num_slots as u64).to_le_bytes());
    let mut scratch = Vec::with_capacity(model.num_resources());
    for kernel in probe_corpus(num_slots) {
        let bits = model.ipc_with(&kernel, &mut scratch).map_or(u64::MAX, f64::to_bits);
        buffer.extend_from_slice(&bits.to_le_bytes());
    }
    fnv1a64(&buffer)
}

/// The sidecar path an artifact's fingerprint is recorded at: the artifact
/// path with `.fp` appended (so `model.palmed2` pairs with
/// `model.palmed2.fp` and never shadows another artifact).
pub fn sidecar_path(path: impl AsRef<Path>) -> PathBuf {
    let mut os: OsString = path.as_ref().as_os_str().to_os_string();
    os.push(".fp");
    PathBuf::from(os)
}

/// Writes the fingerprint sidecar for the artifact at `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_sidecar(path: impl AsRef<Path>, fingerprint: u64) -> Result<(), ArtifactError> {
    std::fs::write(sidecar_path(path), format!("{FPRINT_HEADER}\n{fingerprint:016x}\n"))?;
    Ok(())
}

/// Writes a **signed** `PALMED-FPRINT v2` sidecar: the v1 body (header +
/// fingerprint) followed by an HMAC-SHA256 tag over those exact bytes under
/// `key`.  Registries holding the key verify the tag before trusting the
/// fingerprint; registries without it fall back to fingerprint-only
/// verification.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_signed_sidecar(
    path: impl AsRef<Path>,
    fingerprint: u64,
    key: &[u8],
) -> Result<(), ArtifactError> {
    let body = format!("{FPRINT_HEADER_V2}\n{fingerprint:016x}\n");
    let tag = sign::hmac_sha256(key, body.as_bytes());
    std::fs::write(sidecar_path(path), format!("{body}{}\n", sign::tag_to_hex(&tag)))?;
    Ok(())
}

/// A parsed fingerprint sidecar: the recorded fingerprint plus, for the
/// signed v2 format, the HMAC tag and the exact bytes it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sidecar {
    /// The recorded determinism fingerprint.
    pub fingerprint: u64,
    /// The HMAC-SHA256 tag of a `PALMED-FPRINT v2` sidecar; `None` for the
    /// unkeyed v1 format.
    pub tag: Option<[u8; sign::TAG_LEN]>,
    /// The exact sidecar bytes the tag covers (header + fingerprint lines,
    /// as stored — not re-rendered, so verification cannot be confused by
    /// parse leniency).
    signed_body: Vec<u8>,
}

impl Sidecar {
    /// Sidecar format version: 1 (unkeyed) or 2 (signed).
    pub fn version(&self) -> u32 {
        if self.tag.is_some() {
            2
        } else {
            1
        }
    }

    /// Verifies this sidecar's provenance under `key`.  A v1 sidecar always
    /// verifies (it carries no tag to check — determinism evidence only),
    /// as does a v2 sidecar when no key is configured (`key == None`,
    /// fingerprint-only degradation).  A v2 sidecar checked against a key
    /// must carry the matching HMAC tag.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::SignatureMismatch`] when a v2 tag does not verify
    /// under `key`.
    pub fn verify(&self, key: Option<&[u8]>) -> Result<(), ArtifactError> {
        if let (Some(stored), Some(key)) = (&self.tag, key) {
            let computed = sign::hmac_sha256(key, &self.signed_body);
            if !sign::verify_tag(stored, &computed) {
                return Err(ArtifactError::SignatureMismatch {
                    stored: sign::tag_to_hex(stored),
                    computed: sign::tag_to_hex(&computed),
                });
            }
        }
        Ok(())
    }

    /// Verifies this sidecar against a rotation set of trusted keys: it
    /// admits if *any* key verifies.  An empty slice means unkeyed
    /// operation (identical to [`Sidecar::verify`] with `None`).  On
    /// failure the reported mismatch is the one computed under the
    /// *primary* (first) key, so operators diff against the tag new
    /// sidecars would carry.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::SignatureMismatch`] when a v2 tag verifies under
    /// none of `keys`.
    pub fn verify_any(&self, keys: &[Vec<u8>]) -> Result<(), ArtifactError> {
        if keys.is_empty() {
            return self.verify(None);
        }
        let mut primary_err = None;
        for key in keys {
            match self.verify(Some(key)) {
                Ok(()) => return Ok(()),
                Err(e) => primary_err.get_or_insert(e),
            };
        }
        // With ≥ 1 key every iteration yields Ok (returned above) or Err
        // (recorded), so the first — primary-key — error is always here.
        Err(primary_err.expect("non-empty key set produced no verdict"))
    }
}

/// Parses a sidecar file's text, accepting both formats.
fn parse_sidecar(text: &str) -> Result<Sidecar, ArtifactError> {
    let mut lines = text.lines();
    let v2 = match lines.next() {
        Some(FPRINT_HEADER) => false,
        Some(FPRINT_HEADER_V2) => true,
        _ => {
            return Err(ArtifactError::Malformed {
                line: 1,
                reason: format!(
                    "fingerprint sidecar missing `{FPRINT_HEADER}` / `{FPRINT_HEADER_V2}` header"
                ),
            })
        }
    };
    let hex = lines.next().unwrap_or("").trim();
    let fingerprint = u64::from_str_radix(hex, 16).map_err(|_| ArtifactError::Malformed {
        line: 2,
        reason: format!("invalid fingerprint `{hex}` in sidecar"),
    })?;
    let tag = if v2 {
        let tag_hex = lines.next().unwrap_or("").trim();
        Some(sign::tag_from_hex(tag_hex).ok_or_else(|| ArtifactError::Malformed {
            line: 3,
            reason: format!("invalid signature tag `{tag_hex}` in signed sidecar"),
        })?)
    } else {
        None
    };
    if lines.any(|l| !l.trim().is_empty()) {
        return Err(ArtifactError::Malformed {
            line: if v2 { 4 } else { 3 },
            reason: "trailing content after fingerprint".to_string(),
        });
    }
    // The tag covers the stored bytes of the first two lines exactly.
    let signed_body =
        match text.bytes().enumerate().filter(|(_, b)| *b == b'\n').nth(1).map(|(i, _)| i + 1) {
            Some(end) if v2 => text.as_bytes()[..end].to_vec(),
            _ => Vec::new(),
        };
    Ok(Sidecar { fingerprint, tag, signed_body })
}

/// Reads and parses the sidecar for the artifact at `path` through an
/// [`ArtifactIo`] backend — the registry's entry point, so fault injection
/// covers sidecar reads too.  `Ok(None)` means no sidecar exists; a sidecar
/// that exists but does not parse is an error — silently ignoring it would
/// disable the very verification it exists for.
///
/// # Errors
///
/// Propagates read errors other than "not found", and reports a malformed
/// sidecar as [`ArtifactError::Malformed`].
pub fn read_sidecar_with(
    io: &dyn ArtifactIo,
    path: impl AsRef<Path>,
) -> Result<Option<Sidecar>, ArtifactError> {
    let bytes = match io.read(&sidecar_path(path)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ArtifactError::Io(e)),
    };
    let text = String::from_utf8(bytes).map_err(|_| ArtifactError::Malformed {
        line: 1,
        reason: "fingerprint sidecar is not UTF-8".to_string(),
    })?;
    parse_sidecar(&text).map(Some)
}

/// Reads the fingerprint recorded in the sidecar for the artifact at
/// `path`, if present, accepting both the unkeyed v1 and the signed v2
/// format (the tag, if any, is *not* verified here — use
/// [`read_sidecar_with`] + [`Sidecar::verify`] for provenance).
///
/// # Errors
///
/// Propagates filesystem errors other than "not found", and reports a
/// malformed sidecar as [`ArtifactError::Malformed`].
pub fn read_sidecar(path: impl AsRef<Path>) -> Result<Option<u64>, ArtifactError> {
    Ok(read_sidecar_with(&crate::io::RealIo, path)?.map(|sidecar| sidecar.fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests_support::example;

    #[test]
    fn probe_corpus_is_pinned_and_deterministic() {
        let a = probe_corpus(6);
        let b = probe_corpus(6);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        // Different slot counts reseed the mixes: corpora differ.
        assert_ne!(model_fingerprint(example().mapping(), 6), {
            model_fingerprint(example().mapping(), 7)
        });
        // Degenerate inventories still produce a corpus (empty + boundary).
        assert!(!probe_corpus(0).is_empty());
    }

    #[test]
    fn fingerprint_agrees_across_formats_and_load_modes() {
        let artifact = example();
        let n = artifact.instructions.len();
        let expected = artifact.fingerprint();
        // v1 text round trip.
        let from_v1 = crate::ModelArtifact::parse(&artifact.render()).unwrap();
        assert_eq!(from_v1.fingerprint(), expected);
        // v2b round trip.
        let bytes = artifact.render_v2();
        let from_v2 = crate::ModelArtifact::parse_v2(&bytes).unwrap();
        assert_eq!(from_v2.fingerprint(), expected);
        // Served from the same bytes.
        let served = crate::ModelRegistry::new().swap_bytes("served", bytes).unwrap();
        assert_eq!(served.fingerprint(), expected);
        assert_eq!(model_fingerprint(served.model().mapping(), n), expected);
        // A different model fingerprints differently.
        let mut other = artifact.clone();
        other.machine = "other".into();
        let mut mapping = palmed_core::ConjunctiveMapping::with_resources(1);
        mapping.set_usage(palmed_isa::InstId(2), vec![1.0]);
        let other = crate::ModelArtifact::new("m", "s", other.instructions, mapping);
        assert_ne!(other.fingerprint(), expected);
    }

    #[test]
    fn sidecar_round_trips_and_rejects_garbage() {
        let dir = std::env::temp_dir().join("palmed-fp-sidecar-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.palmed2");
        assert_eq!(sidecar_path(&path).extension().unwrap(), "fp");
        assert_eq!(read_sidecar(&path).unwrap(), None);
        write_sidecar(&path, 0xdead_beef_0123_4567).unwrap();
        assert_eq!(read_sidecar(&path).unwrap(), Some(0xdead_beef_0123_4567));
        std::fs::write(sidecar_path(&path), "PALMED-FPRINT v1\nnot-hex\n").unwrap();
        assert!(matches!(read_sidecar(&path), Err(ArtifactError::Malformed { line: 2, .. })));
        std::fs::write(sidecar_path(&path), "garbage\n").unwrap();
        assert!(matches!(read_sidecar(&path), Err(ArtifactError::Malformed { line: 1, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn signed_sidecar_round_trips_and_verifies_only_under_its_key() {
        let dir = std::env::temp_dir().join("palmed-fp-signed-sidecar-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.palmed2");
        write_signed_sidecar(&path, 0x0123_4567_89ab_cdef, b"deploy-key").unwrap();

        // The fingerprint is readable with and without the key.
        assert_eq!(read_sidecar(&path).unwrap(), Some(0x0123_4567_89ab_cdef));
        let sidecar = read_sidecar_with(&crate::io::RealIo, &path).unwrap().unwrap();
        assert_eq!(sidecar.version(), 2);
        assert_eq!(sidecar.fingerprint, 0x0123_4567_89ab_cdef);

        // Verification: right key passes, wrong key is a structured reject,
        // no key degrades to fingerprint-only.
        sidecar.verify(Some(b"deploy-key")).unwrap();
        sidecar.verify(None).unwrap();
        match sidecar.verify(Some(b"wrong-key")) {
            Err(ArtifactError::SignatureMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
                assert_eq!(stored.len(), 64);
            }
            other => panic!("expected SignatureMismatch, got {other:?}"),
        }

        // Tampering with the recorded fingerprint breaks the tag.
        let text = std::fs::read_to_string(sidecar_path(&path)).unwrap();
        std::fs::write(
            sidecar_path(&path),
            text.replacen("0123456789abcdef", "0123456789abcdee", 1),
        )
        .unwrap();
        let tampered = read_sidecar_with(&crate::io::RealIo, &path).unwrap().unwrap();
        assert!(matches!(
            tampered.verify(Some(b"deploy-key")),
            Err(ArtifactError::SignatureMismatch { .. })
        ));

        // A v1 sidecar always verifies — it has no tag to check.
        write_sidecar(&path, 42).unwrap();
        let v1 = read_sidecar_with(&crate::io::RealIo, &path).unwrap().unwrap();
        assert_eq!(v1.version(), 1);
        v1.verify(Some(b"deploy-key")).unwrap();

        // A garbage tag line is malformed, not a mismatch.
        std::fs::write(sidecar_path(&path), "PALMED-FPRINT v2\n2a\nnot-hex\n").unwrap();
        assert!(matches!(
            read_sidecar_with(&crate::io::RealIo, &path),
            Err(ArtifactError::Malformed { line: 3, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
