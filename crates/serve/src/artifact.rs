//! The versioned codecs for inferred models.
//!
//! Two formats share the [`ModelArtifact`] type: the `PALMED-MODEL v1` text
//! codec implemented here (the interchange/debug form) and the binary
//! `PALMED-MODEL v2b` codec in the private `binfmt` module (the fast load
//! path, reached through
//! [`ModelArtifact::render_v2`]/[`ModelArtifact::parse_v2`]).
//! Loading sniffs the format from the first bytes
//! ([`ModelArtifact::parse_bytes`]), and a v1↔v2 round trip is bit-identical.
//! See the crate-level docs for both grammars.  Design decisions of the text
//! form:
//!
//! * **Hand-rolled writer and parser.**  The workspace's vendored serde is a
//!   deliberate no-op shim (no network access to fetch the real one), so the
//!   artifact layer cannot lean on derives; a line-oriented format with an
//!   explicit grammar is also easier to inspect, diff and hand-edit than any
//!   generic serialisation.
//! * **Lossless numbers.**  Usage values are written with Rust's shortest
//!   round-trip `Display` form and re-read with `str::parse::<f64>`, which
//!   reproduces every bit; a reloaded model predicts bit-identically.
//! * **Integrity checksum.**  The final line carries an FNV-1a 64 hash of
//!   every preceding byte.  Truncation, bit rot and hand edits that forget to
//!   re-hash are rejected at load time instead of silently mis-predicting.

use crate::codec::ModelKind;
use palmed_core::ConjunctiveMapping;
use palmed_isa::{ExecClass, Extension, InstDesc, InstId, InstructionSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// A persistable inferred model: provenance, instruction set and mapping.
///
/// It is also what serving holds: a registry entry keeps the artifact it
/// installed ([`RegistryEntry::model`](crate::RegistryEntry::model)) and
/// predicts straight from its [`ConjunctiveMapping`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Architecture / machine preset this model serves (e.g. `"skl-sp-like"`).
    pub machine: String,
    /// Name of the originating disjunctive mapping / machine description the
    /// model was inferred against (provenance only; not needed to predict).
    pub source: String,
    /// The instruction inventory the mapping's [`InstId`]s index into.
    pub instructions: InstructionSet,
    /// The inferred conjunctive resource mapping (private so that
    /// [`ModelArtifact::new`]'s coverage check cannot be bypassed).
    mapping: ConjunctiveMapping,
}

/// Why an artifact failed to load.
#[derive(Debug)]
pub enum ArtifactError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The first content line is not `PALMED-MODEL v1`.
    MissingHeader,
    /// The final `checksum` line is absent (e.g. a truncated file).
    MissingChecksum,
    /// The stored checksum does not match the file content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file content.
        computed: u64,
    },
    /// A line violates the grammar.
    Malformed {
        /// 1-based line number in the artifact text.
        line: usize,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A byte-level violation of a binary artifact layout.
    MalformedBinary {
        /// Byte offset the violation was detected at.
        offset: usize,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The buffer holds an artifact of a different kind than the caller
    /// can load (e.g. a `v2b` buffer handed to the v1-to-v2b migration).
    WrongKind {
        /// The kind the caller expected.
        expected: ModelKind,
        /// The kind the buffer sniffed as.
        found: ModelKind,
    },
    /// A watched file kept changing while the registry was reading it: the
    /// stat taken after the read disagreed with the one taken before, on
    /// every retry.  The bytes read may interleave two writers and are
    /// discarded even if they happen to validate.
    TornRead {
        /// The file that could not be read stably.
        path: PathBuf,
    },
    /// The artifact decoded cleanly but its predictions hash to a different
    /// fingerprint than the sidecar recorded at save time (see
    /// [`model_fingerprint`](crate::fingerprint::model_fingerprint)) — the
    /// model is *valid* but not the one that was deployed.
    FingerprintMismatch {
        /// Fingerprint the sidecar file recorded.
        expected: u64,
        /// Fingerprint recomputed from the loaded model's predictions.
        computed: u64,
    },
    /// A keyed `PALMED-FPRINT v2` sidecar's HMAC tag does not verify under
    /// the configured signing key: whoever wrote the sidecar did not hold
    /// the key, so the fingerprint proves nothing about provenance (see
    /// [`Sidecar::verify`](crate::fingerprint::Sidecar::verify)).
    SignatureMismatch {
        /// Hex rendering of the tag the sidecar recorded.
        stored: String,
        /// Hex rendering of the tag recomputed under the configured key.
        computed: String,
    },
    /// The registry requires signed sidecars
    /// ([`ModelRegistry::require_signed`](crate::ModelRegistry::require_signed))
    /// but the artifact's sidecar is missing or is an unkeyed
    /// `PALMED-FPRINT v1` — nothing ties the bytes to a key holder, so the
    /// load is refused before the model is even decoded for provenance.
    UnsignedArtifact {
        /// The artifact file whose sidecar is missing or unsigned.
        path: PathBuf,
    },
}

impl ArtifactError {
    /// The byte offset a binary-layout rejection points at, when the error
    /// carries one.  Fuzzing and triage use this to locate the violated
    /// field; text-format errors carry a line number in their message
    /// instead.
    pub fn offset(&self) -> Option<usize> {
        match self {
            ArtifactError::MalformedBinary { offset, .. } => Some(*offset),
            _ => None,
        }
    }

    /// A stable kebab-case class label for the rejection, used as a metric
    /// name suffix (`fuzz.reject.<class>`) and an event field.  Classes
    /// identify the *kind* of failure, not the instance — every
    /// `Malformed { .. }` is `"malformed-text"` regardless of line or
    /// reason.
    pub fn class(&self) -> &'static str {
        match self {
            ArtifactError::Io(_) => "io",
            ArtifactError::MissingHeader => "missing-header",
            ArtifactError::MissingChecksum => "missing-checksum",
            ArtifactError::ChecksumMismatch { .. } => "checksum-mismatch",
            ArtifactError::Malformed { .. } => "malformed-text",
            ArtifactError::MalformedBinary { .. } => "malformed-binary",
            ArtifactError::WrongKind { .. } => "wrong-kind",
            ArtifactError::TornRead { .. } => "torn-read",
            ArtifactError::FingerprintMismatch { .. } => "fingerprint-mismatch",
            ArtifactError::SignatureMismatch { .. } => "signature-mismatch",
            ArtifactError::UnsignedArtifact { .. } => "unsigned-artifact",
        }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::MissingHeader => {
                write!(f, "not a model artifact: missing `PALMED-MODEL v1` header")
            }
            ArtifactError::MissingChecksum => {
                write!(f, "truncated artifact: missing `checksum` trailer")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact corrupted: stored checksum {stored:016x} != computed {computed:016x}"
            ),
            ArtifactError::Malformed { line, reason } => {
                write!(f, "malformed artifact at line {line}: {reason}")
            }
            ArtifactError::MalformedBinary { offset, reason } => {
                write!(f, "malformed binary artifact at byte {offset}: {reason}")
            }
            ArtifactError::WrongKind { expected, found } => {
                write!(f, "wrong artifact kind: expected `{expected}`, found `{found}`")
            }
            ArtifactError::TornRead { path } => {
                write!(f, "torn read: `{}` kept changing while being read", path.display())
            }
            ArtifactError::FingerprintMismatch { expected, computed } => write!(
                f,
                "fingerprint mismatch: sidecar recorded {expected:016x}, model predicts {computed:016x}"
            ),
            ArtifactError::SignatureMismatch { stored, computed } => write!(
                f,
                "sidecar signature mismatch: stored tag {stored} does not verify (key computes {computed})"
            ),
            ArtifactError::UnsignedArtifact { path } => write!(
                f,
                "unsigned artifact: `{}` has no signed PALMED-FPRINT v2 sidecar but the registry requires one",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

// The text trailer's hash; one definition in `crate::checksum` serves all
// codecs, re-exported here where the v1 format historically lived.
pub use crate::checksum::fnv1a64;

/// Replaces whitespace in a name so it stays a single token on its line.
/// Shared with the binary codec: both formats must sanitise names
/// identically for the v1↔v2 round trip to be bit-identical.
pub(crate) fn token(name: &str) -> String {
    let cleaned: String = name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect();
    if cleaned.is_empty() {
        "_".to_string()
    } else {
        cleaned
    }
}

impl ModelArtifact {
    /// Bundles an inferred mapping with its instruction set and provenance.
    ///
    /// # Panics
    ///
    /// Panics if the mapping references an instruction outside the set — an
    /// artifact must stay self-describing.
    pub fn new(
        machine: impl Into<String>,
        source: impl Into<String>,
        instructions: InstructionSet,
        mapping: ConjunctiveMapping,
    ) -> Self {
        for inst in mapping.instructions() {
            assert!(
                inst.index() < instructions.len(),
                "mapping references {inst} but the instruction set has {} entries",
                instructions.len()
            );
        }
        ModelArtifact { machine: machine.into(), source: source.into(), instructions, mapping }
    }

    /// The inferred conjunctive resource mapping.
    pub fn mapping(&self) -> &ConjunctiveMapping {
        &self.mapping
    }

    /// A batch predictor over the artifact's mapping.
    pub fn batch(&self) -> crate::BatchPredictor<'_> {
        crate::BatchPredictor::new(&self.mapping)
    }

    /// Renders the artifact in the `PALMED-MODEL v1` text format, checksum
    /// line included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("PALMED-MODEL v1\n");
        out.push_str(&format!("machine {}\n", token(&self.machine)));
        out.push_str(&format!("source {}\n", token(&self.source)));
        out.push_str(&format!("instructions {}\n", self.instructions.len()));
        for (id, desc) in self.instructions.iter() {
            out.push_str(&format!(
                "I {} {} {} {}\n",
                id.index(),
                token(&desc.name),
                desc.class,
                desc.extension
            ));
        }
        let mapping = self.mapping();
        out.push_str(&format!("resources {}\n", mapping.num_resources()));
        for r in mapping.resources() {
            out.push_str(&format!("R {} {}\n", r.index(), token(mapping.resource_name(r))));
        }
        out.push_str(&format!("rows {}\n", mapping.num_instructions()));
        for inst in mapping.instructions() {
            out.push_str(&format!("M {}", inst.index()));
            let usage = mapping.usage_vector(inst).expect("mapped instruction has a row");
            for (r, &value) in usage.iter().enumerate() {
                if value != 0.0 {
                    out.push_str(&format!(" {r}:{value}"));
                }
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out.push_str(&format!("checksum {:016x}\n", fnv1a64(out.as_bytes())));
        out
    }

    /// Parses an artifact from its text form, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] on any grammar violation, truncation or
    /// checksum mismatch; never panics on untrusted input.
    pub fn parse(text: &str) -> Result<Self, ArtifactError> {
        // --- Integrity: locate and verify the checksum trailer. ---
        let body_end = text.rfind("checksum ").ok_or(ArtifactError::MissingChecksum)?;
        if body_end > 0 && text.as_bytes()[body_end - 1] != b'\n' {
            return Err(ArtifactError::MissingChecksum);
        }
        let checksum_line = text[body_end..].trim_end();
        let stored = checksum_line
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or(ArtifactError::MissingChecksum)?;
        let computed = fnv1a64(&text.as_bytes()[..body_end]);
        if stored != computed {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }

        // --- Grammar: a small line cursor over the checksummed body. ---
        let mut lines = text[..body_end]
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        let mut next = |what: &str| -> Result<(usize, &str), ArtifactError> {
            lines.next().ok_or_else(|| ArtifactError::Malformed {
                line: 0,
                reason: format!("unexpected end of artifact, expected {what}"),
            })
        };
        let malformed = |line: usize, reason: String| ArtifactError::Malformed { line, reason };

        let (line, header) = next("header")?;
        if header != "PALMED-MODEL v1" {
            return Err(if line == 1 && !header.starts_with("PALMED-MODEL") {
                ArtifactError::MissingHeader
            } else {
                malformed(line, format!("unsupported header `{header}`"))
            });
        }

        let mut field = |key: &str| -> Result<String, ArtifactError> {
            let (line, l) = next(key)?;
            l.strip_prefix(key)
                .map(|v| v.trim().to_string())
                .ok_or_else(|| malformed(line, format!("expected `{key} ...`, found `{l}`")))
        };
        let machine = field("machine ")?;
        let source = field("source ")?;

        let count = |value: &str, line: usize| -> Result<usize, ArtifactError> {
            value.parse().map_err(|_| malformed(line, format!("invalid count `{value}`")))
        };

        // Instruction section.
        let (line, l) = next("instructions")?;
        let n = l
            .strip_prefix("instructions ")
            .ok_or_else(|| malformed(line, format!("expected `instructions <n>`, found `{l}`")))
            .and_then(|v| count(v, line))?;
        let mut instructions = InstructionSet::new();
        for i in 0..n {
            let (line, l) = next("an `I` line")?;
            let mut parts = l.split_whitespace();
            let ok = parts.next() == Some("I")
                && parts.next().and_then(|v| v.parse::<usize>().ok()) == Some(i);
            let name = parts.next();
            let class = parts.next().and_then(ExecClass::from_name);
            let extension = parts.next().and_then(Extension::from_name);
            match (ok, name, class, extension) {
                (true, Some(name), Some(class), Some(extension)) if parts.next().is_none() => {
                    if instructions.find(name).is_some() {
                        return Err(malformed(line, format!("duplicate instruction `{name}`")));
                    }
                    instructions.push(InstDesc { name: name.to_string(), class, extension });
                }
                _ => {
                    return Err(malformed(
                        line,
                        format!("expected `I {i} <name> <class> <extension>`, found `{l}`"),
                    ))
                }
            }
        }

        // Resource section.
        let (line, l) = next("resources")?;
        let m = l
            .strip_prefix("resources ")
            .ok_or_else(|| malformed(line, format!("expected `resources <m>`, found `{l}`")))
            .and_then(|v| count(v, line))?;
        // `m` is untrusted (the checksum is integrity, not authentication):
        // cap the pre-allocation; the per-line loop below bounds the real
        // growth by the file length.  Every row indexes an instruction, so
        // `n` bounds the slot count and the rows' size is checked here,
        // before any row is read.
        crate::codec::check_dense_cells(n, m, text.len())
            .map_err(|reason| malformed(line, reason))?;
        let mut resource_names = Vec::with_capacity(m.min(4096));
        for r in 0..m {
            let (line, l) = next("an `R` line")?;
            let mut parts = l.split_whitespace();
            let ok = parts.next() == Some("R")
                && parts.next().and_then(|v| v.parse::<usize>().ok()) == Some(r);
            match (ok, parts.next(), parts.next()) {
                (true, Some(name), None) => resource_names.push(name.to_string()),
                _ => return Err(malformed(line, format!("expected `R {r} <name>`, found `{l}`"))),
            }
        }
        let mut mapping = ConjunctiveMapping::new(resource_names);

        // Usage rows.
        let (line, l) = next("rows")?;
        let k = l
            .strip_prefix("rows ")
            .ok_or_else(|| malformed(line, format!("expected `rows <k>`, found `{l}`")))
            .and_then(|v| count(v, line))?;
        for _ in 0..k {
            let (line, l) = next("an `M` line")?;
            let mut parts = l.split_whitespace();
            if parts.next() != Some("M") {
                return Err(malformed(line, format!("expected `M <inst> ...`, found `{l}`")));
            }
            let inst = parts
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&i| i < instructions.len())
                .ok_or_else(|| malformed(line, format!("invalid instruction index in `{l}`")))?;
            let inst = InstId(inst as u32);
            if mapping.supports(inst) {
                return Err(malformed(line, format!("duplicate row for instruction {inst}")));
            }
            let mut usage = vec![0.0; m];
            for entry in parts {
                let (r, value) = entry
                    .split_once(':')
                    .and_then(|(r, v)| Some((r.parse::<usize>().ok()?, v.parse::<f64>().ok()?)))
                    .filter(|&(r, v)| r < m && v.is_finite() && v >= 0.0)
                    .ok_or_else(|| {
                        malformed(line, format!("invalid usage entry `{entry}` in `{l}`"))
                    })?;
                if usage[r] != 0.0 {
                    return Err(malformed(line, format!("duplicate resource {r} in `{l}`")));
                }
                usage[r] = value;
            }
            mapping.set_usage(inst, usage);
        }

        let (line, l) = next("`end`")?;
        if l != "end" {
            return Err(malformed(line, format!("expected `end`, found `{l}`")));
        }
        if let Some((line, l)) = lines.next() {
            return Err(malformed(line, format!("trailing content `{l}` after `end`")));
        }

        Ok(ModelArtifact { machine, source, instructions, mapping })
    }

    /// Renders the artifact in the binary `PALMED-MODEL v2b` format (see the
    /// crate docs for the layout), checksum trailer included.
    pub fn render_v2(&self) -> Vec<u8> {
        crate::binfmt::encode(self)
    }

    /// Parses a binary `v2b` artifact, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] on any layout violation, truncation or
    /// checksum mismatch; never panics on untrusted input.
    pub fn parse_v2(bytes: &[u8]) -> Result<Self, ArtifactError> {
        crate::binfmt::validate(bytes)
    }

    /// Parses an artifact in either conjunctive format, sniffing the version
    /// from the first bytes: the `v2b` magic selects the binary codec,
    /// anything else without a known magic must be v1 text.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] from the selected codec; non-UTF-8 input
    /// without a binary magic is reported as
    /// [`ArtifactError::MissingHeader`], and a buffer in the retired
    /// `PALMED-DISJ v1` format as [`ArtifactError::MalformedBinary`] at
    /// offset 0.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        match ModelKind::sniff(bytes) {
            ModelKind::ConjunctiveV2b => Self::parse_v2(bytes),
            ModelKind::ConjunctiveV1 => {
                crate::codec::reject_retired_format(bytes)?;
                Self::parse(std::str::from_utf8(bytes).map_err(|_| ArtifactError::MissingHeader)?)
            }
        }
    }

    /// Saves the rendered v1 text artifact to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.render())?;
        Ok(())
    }

    /// Saves the binary `v2b` artifact to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_v2(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.render_v2())?;
        Ok(())
    }

    /// Loads and verifies an artifact from a file, accepting either the v1
    /// text or the v2b binary format (sniffed from the first bytes).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and every [`ArtifactError`] of
    /// [`ModelArtifact::parse_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::parse_bytes(&std::fs::read(path)?)
    }

    /// The artifact's determinism fingerprint: a canonical FNV-1a-64 hash
    /// over the mapping's predictions on the pinned probe corpus (see
    /// [`model_fingerprint`](crate::fingerprint::model_fingerprint)).  Every
    /// way of loading the same model — v1 text, v2b bytes, migrated —
    /// produces the same value.
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::model_fingerprint(&self.mapping, self.instructions.len())
    }

    /// Saves the binary v2b artifact plus a fingerprint sidecar
    /// (`<path>.fp`), returning the recorded fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from either write.
    pub fn save_v2_with_fingerprint(&self, path: impl AsRef<Path>) -> Result<u64, ArtifactError> {
        let path = path.as_ref();
        self.save_v2(path)?;
        let fp = self.fingerprint();
        crate::fingerprint::write_sidecar(path, fp)?;
        Ok(fp)
    }

    /// Saves the binary v2b artifact plus a **signed** `PALMED-FPRINT v2`
    /// sidecar (HMAC-SHA256 tag under `key` — see
    /// [`write_signed_sidecar`](crate::fingerprint::write_signed_sidecar)),
    /// returning the recorded fingerprint.  Registries configured with the
    /// key verify provenance, not just determinism, on every load.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from either write.
    pub fn save_v2_with_signed_fingerprint(
        &self,
        path: impl AsRef<Path>,
        key: &[u8],
    ) -> Result<u64, ArtifactError> {
        let path = path.as_ref();
        self.save_v2(path)?;
        let fp = self.fingerprint();
        crate::fingerprint::write_signed_sidecar(path, fp, key)?;
        Ok(fp)
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A small artifact shared by this module's and the binary codec's tests.
    pub(crate) fn example() -> ModelArtifact {
        let instructions = InstructionSet::paper_example();
        let mut mapping = ConjunctiveMapping::new(vec!["r1".into(), "r01".into(), "r016".into()]);
        mapping.set_usage(InstId(2), vec![0.0, 0.5, 1.0 / 3.0]);
        mapping.set_usage(InstId(3), vec![1.0, 0.5, 1.0 / 3.0]);
        ModelArtifact::new("skl-ports016", "paper-fig1", instructions, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::example;
    use super::*;
    use palmed_isa::Microkernel;

    #[test]
    fn render_parse_round_trip_is_exact() {
        let artifact = example();
        let text = artifact.render();
        let reloaded = ModelArtifact::parse(&text).unwrap();
        assert_eq!(reloaded, artifact);
        // And rendering again is byte-stable.
        assert_eq!(reloaded.render(), text);
    }

    #[test]
    fn reloaded_model_predicts_bit_identically() {
        let artifact = example();
        let reloaded = ModelArtifact::parse(&artifact.render()).unwrap();
        let k = Microkernel::pair(InstId(2), 2, InstId(3), 1);
        assert_eq!(
            artifact.mapping().ipc(&k).map(f64::to_bits),
            reloaded.mapping().ipc(&k).map(f64::to_bits)
        );
    }

    #[test]
    fn checksum_rejects_corruption() {
        let text = example().render();
        // Flip one usage digit without touching the checksum line.
        let corrupted = text.replacen("0.5", "0.7", 1);
        assert_ne!(corrupted, text);
        match ModelArtifact::parse(&corrupted) {
            Err(ArtifactError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let text = example().render();
        // Cut anywhere before the trailer: the checksum line disappears.
        let truncated = &text[..text.len() / 2];
        assert!(matches!(ModelArtifact::parse(truncated), Err(ArtifactError::MissingChecksum)));
        // Dropping body lines but keeping the trailer is caught by the hash.
        let without_rows: String =
            text.lines().filter(|l| !l.starts_with("M ")).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            ModelArtifact::parse(&without_rows),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn garbage_is_rejected_with_useful_errors() {
        assert!(matches!(ModelArtifact::parse(""), Err(ArtifactError::MissingChecksum)));
        let mut body = String::from("PALMED-CORPUS v1\nend\n");
        body.push_str(&format!("checksum {:016x}\n", fnv1a64(body.as_bytes())));
        assert!(matches!(ModelArtifact::parse(&body), Err(ArtifactError::MissingHeader)));
        let mut body = String::from("PALMED-MODEL v1\nmachine x\nsource y\ninstructions zz\n");
        body.push_str(&format!("checksum {:016x}\n", fnv1a64(body.as_bytes())));
        match ModelArtifact::parse(&body) {
            Err(ArtifactError::Malformed { line: 4, .. }) => {}
            other => panic!("expected malformed line 4, got {other:?}"),
        }
    }

    #[test]
    fn huge_declared_counts_error_instead_of_panicking() {
        // The checksum is integrity, not authentication: an attacker can
        // re-hash a crafted body, so declared counts must not drive
        // allocations or panics.
        for body in [
            "PALMED-MODEL v1\nmachine m\nsource s\ninstructions 0\nresources 18446744073709551615\n",
            "PALMED-MODEL v1\nmachine m\nsource s\ninstructions 99999999999\n",
        ] {
            let mut text = body.to_string();
            text.push_str(&format!("checksum {:016x}\n", fnv1a64(text.as_bytes())));
            assert!(matches!(
                ModelArtifact::parse(&text),
                Err(ArtifactError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn comments_are_checksummed_but_ignored_by_the_grammar() {
        let artifact = example();
        let text = artifact.render();
        let with_comment = text.replacen("machine ", "# an inserted comment\nmachine ", 1);
        // Comment changed the bytes: the old checksum no longer matches...
        assert!(matches!(
            ModelArtifact::parse(&with_comment),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        // ...but re-hashing the edited body makes it parse identically.
        let body_end = with_comment.rfind("checksum ").unwrap();
        let mut rehashed = with_comment[..body_end].to_string();
        rehashed.push_str(&format!("checksum {:016x}\n", fnv1a64(rehashed.as_bytes())));
        assert_eq!(ModelArtifact::parse(&rehashed).unwrap(), artifact);
    }

    #[test]
    fn v2_round_trip_is_exact_and_cross_consistent_with_v1() {
        let artifact = example();
        let bytes = artifact.render_v2();
        let from_v2 = ModelArtifact::parse_v2(&bytes).unwrap();
        assert_eq!(from_v2, artifact);
        // Byte-stable re-render and sniffing entry point.
        assert_eq!(from_v2.render_v2(), bytes);
        assert_eq!(ModelArtifact::parse_bytes(&bytes).unwrap(), artifact);
        // Crossing formats changes nothing: v1 text and v2 binary round
        // trips land on the same artifact, bit for bit.
        let from_v1 = ModelArtifact::parse(&artifact.render()).unwrap();
        assert_eq!(from_v1, from_v2);
        assert_eq!(from_v1.render_v2(), bytes);
        assert_eq!(from_v2.render(), from_v1.render());
    }

    #[test]
    fn v2_checksum_rejects_corruption_and_truncation() {
        let bytes = example().render_v2();
        // Flip a byte in the middle of the body.
        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(matches!(
            ModelArtifact::parse_v2(&corrupted),
            Err(ArtifactError::ChecksumMismatch { .. } | ArtifactError::MalformedBinary { .. })
        ));
        // Every strict-prefix truncation is rejected, including the one that
        // drops only the final checksum byte.
        for cut in 0..bytes.len() {
            assert!(
                ModelArtifact::parse_bytes(&bytes[..cut]).is_err(),
                "truncation at byte {cut} must not parse"
            );
        }
        assert!(ModelArtifact::parse_bytes(&bytes).is_ok());
    }

    #[test]
    fn v2_rejects_crafted_structural_violations() {
        // The checksum is integrity, not authentication: a crafted body can
        // re-hash itself, so structural checks must hold on their own.  Build
        // bodies by mutating a valid one and re-appending a fresh checksum.
        let valid = example().render_v2();
        let body = &valid[..valid.len() - 8];
        let rehash = |body: &[u8]| crate::codec::finish_trailer(body.to_vec());
        // Truncated body with a valid checksum: cursor runs out of bytes.
        let crafted = rehash(&body[..body.len() - 4]);
        assert!(matches!(
            ModelArtifact::parse_v2(&crafted),
            Err(ArtifactError::MalformedBinary { .. })
        ));
        // Declared string length far beyond the file: no huge allocation,
        // clean error.
        let mut huge = body.to_vec();
        let machine_len_at = crate::codec::V2B_MAGIC.len();
        huge[machine_len_at..machine_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ModelArtifact::parse_v2(&rehash(&huge)),
            Err(ArtifactError::MalformedBinary { .. })
        ));
        // Trailing garbage after the CSR arrays.
        let mut padded = body.to_vec();
        padded.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            ModelArtifact::parse_v2(&rehash(&padded)),
            Err(ArtifactError::MalformedBinary { .. })
        ));
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let artifact = example();
        let path = std::env::temp_dir().join("palmed-serve-artifact-test.palmed");
        artifact.save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, artifact);
        assert!(matches!(
            ModelArtifact::load(std::env::temp_dir().join("palmed-serve-no-such-file")),
            Err(ArtifactError::Io(_))
        ));
    }

    #[test]
    #[should_panic(expected = "mapping references")]
    fn artifact_requires_a_covering_instruction_set() {
        let mut mapping = ConjunctiveMapping::with_resources(1);
        mapping.set_usage(InstId(99), vec![1.0]);
        ModelArtifact::new("m", "s", InstructionSet::paper_example(), mapping);
    }
}
