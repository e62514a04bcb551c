//! Shared codec machinery: tagged model kinds, format sniffing, and the
//! byte-level plumbing every binary artifact codec is built from.
//!
//! The serve crate persists two model *families* — the conjunctive resource
//! mapping Palmed infers ([`ModelArtifact`](crate::ModelArtifact)) and the
//! disjunctive port mapping PMEvo evolves
//! ([`DisjArtifact`](crate::DisjArtifact)) — across three concrete formats.
//! [`ModelKind`] is the tag that names one (family, format) pair; sniffing a
//! buffer ([`ModelKind::sniff`]) keys on the magic first bytes, with the v1
//! text form as the magic-less fallback.
//!
//! Every binary codec shares the same skeleton, factored here.  The framing
//! primitives — [`finish_trailer`]/[`verify_trailer`], the `push_*` writers
//! and the [`Cursor`] validate-pass reader — are public so out-of-crate
//! binary formats (notably the `palmed-wire` network frames) get the exact
//! same discipline; the family-specific section readers stay
//! crate-internal:
//!
//! * a magic line, then length-prefixed little-endian sections;
//! * an FNV-1a-64 trailer over 8-byte words ([`crate::checksum`]), appended
//!   by `finish_trailer` and checked by `verify_trailer` before any
//!   structural read;
//! * a validate pass over a `Cursor` with offset-tagged errors and
//!   allocation-capping reads, which checks every structural invariant
//!   before the family's owned form is built.
//!
//! Concrete codecs implement the `ArtifactCodec` trait, which ties a magic
//! and a [`ModelKind`] to the family's encode/decode entry points; the
//! registry dispatches on [`ModelKind::sniff`] instead of hard-wiring one
//! format.

use crate::artifact::ArtifactError;
use crate::checksum::fnv1a64_words;
use palmed_isa::{ExecClass, Extension, InstDesc, InstructionSet};
use std::fmt;
use std::ops::Range;

/// First bytes of every `PALMED-MODEL v2b` artifact.
pub(crate) const V2B_MAGIC: &[u8] = b"PALMED-MODEL v2b\n";

/// First bytes of every `PALMED-DISJ v1` artifact.
pub(crate) const DISJ_MAGIC: &[u8] = b"PALMED-DISJ v1\n";

/// The tagged (family, format) pair of a persisted model: what a buffer
/// sniffs as, and what every registry entry reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// Conjunctive resource mapping, `PALMED-MODEL v1` text (the
    /// interchange/debug form).
    ConjunctiveV1,
    /// Conjunctive resource mapping, `PALMED-MODEL v2b` binary (the fast
    /// load path: its usages are raw `f64` bits, not parsed decimals).
    ConjunctiveV2b,
    /// Disjunctive port mapping (port sets + inverse throughputs),
    /// `PALMED-DISJ v1` binary — the family PMEvo-style baselines persist.
    DisjunctiveV1,
}

impl ModelKind {
    /// All kinds, in sniffing order.
    pub const ALL: [ModelKind; 3] =
        [ModelKind::ConjunctiveV2b, ModelKind::DisjunctiveV1, ModelKind::ConjunctiveV1];

    /// Decides the kind of a buffer from its first bytes.  The two binary
    /// magics are authoritative; anything else must be the magic-less v1
    /// text form (whose own parser rejects non-artifacts).
    pub fn sniff(bytes: &[u8]) -> ModelKind {
        if bytes.starts_with(V2B_MAGIC) {
            ModelKind::ConjunctiveV2b
        } else if bytes.starts_with(DISJ_MAGIC) {
            ModelKind::DisjunctiveV1
        } else {
            ModelKind::ConjunctiveV1
        }
    }

    /// The model family (`"conjunctive"` / `"disjunctive"`).
    pub fn family(self) -> &'static str {
        match self {
            ModelKind::ConjunctiveV1 | ModelKind::ConjunctiveV2b => "conjunctive",
            ModelKind::DisjunctiveV1 => "disjunctive",
        }
    }

    /// The on-disk format version tag (`"v1"` / `"v2b"`).
    pub fn version(self) -> &'static str {
        match self {
            ModelKind::ConjunctiveV1 | ModelKind::DisjunctiveV1 => "v1",
            ModelKind::ConjunctiveV2b => "v2b",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::ConjunctiveV1 => f.write_str("PALMED-MODEL v1"),
            ModelKind::ConjunctiveV2b => f.write_str("PALMED-MODEL v2b"),
            ModelKind::DisjunctiveV1 => f.write_str("PALMED-DISJ v1"),
        }
    }
}

/// A concrete artifact codec: one magic, one [`ModelKind`], one in-memory
/// artifact family.  The registry and the migration helpers dispatch through
/// [`ModelKind::sniff`] to one of these.
pub(crate) trait ArtifactCodec {
    /// The kind this codec reads and writes.
    const KIND: ModelKind;
    /// The magic first bytes of the format (empty for magic-less text).
    const MAGIC: &'static [u8];
    /// The in-memory artifact type.
    type Artifact;

    /// Serialises an artifact, integrity trailer included.
    fn encode(artifact: &Self::Artifact) -> Vec<u8>;

    /// Validates and materialises an artifact.
    fn decode(bytes: &[u8]) -> Result<Self::Artifact, ArtifactError>;
}

/// [`verify_trailer`] keyed by a codec's magic — the first step of every
/// binary decode.
pub(crate) fn verify_for<C: ArtifactCodec>(bytes: &[u8]) -> Result<&[u8], ArtifactError> {
    verify_trailer(bytes, C::MAGIC)
}

/// Appends the strided-word FNV trailer to a finished binary body.
pub fn finish_trailer(mut body: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a64_words(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Checks a binary artifact's magic and integrity trailer, returning the
/// checksummed body (everything before the trailing `u64`).
///
/// This is the first step of every binary validate pass, shared so
/// corruption and truncation are rejected identically across codecs.
pub fn verify_trailer<'a>(bytes: &'a [u8], magic: &[u8]) -> Result<&'a [u8], ArtifactError> {
    if !bytes.starts_with(magic) {
        return Err(ArtifactError::MissingHeader);
    }
    if bytes.len() < magic.len() + 8 {
        return Err(ArtifactError::MissingChecksum);
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = fnv1a64_words(body);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

/// Appends a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (`u32` byte length + bytes).
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an `f64` as its raw little-endian bit pattern.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Writes the instruction inventory section shared by the binary codecs:
/// a `u32` count, then per instruction a token name plus class/extension
/// codes indexing [`ExecClass::ALL`] / [`Extension::ALL`].
pub(crate) fn write_instruction_table(out: &mut Vec<u8>, instructions: &InstructionSet) {
    push_u32(out, instructions.len() as u32);
    for (_, desc) in instructions.iter() {
        push_str(out, &crate::artifact::token(&desc.name));
        let class = ExecClass::ALL.iter().position(|c| *c == desc.class).expect("known class");
        let ext = Extension::ALL.iter().position(|e| *e == desc.extension).expect("known ext");
        out.push(class as u8);
        out.push(ext as u8);
    }
}

/// Reads and validates the instruction inventory section
/// [`write_instruction_table`] emits: names must be tokens, class/extension
/// codes must be known, duplicates are rejected, and the declared count is
/// untrusted (pre-allocation capped; real growth bounded by the cursor).
pub(crate) fn read_instruction_table(
    cur: &mut Cursor<'_>,
) -> Result<InstructionSet, ArtifactError> {
    let n_insts = cur.u32("instruction count")? as usize;
    let mut instructions = InstructionSet::new();
    instructions.reserve(n_insts.min(1 << 16));
    for i in 0..n_insts {
        let name = cur.token("instruction name")?;
        let codes = cur.take(2, "class/extension codes")?;
        let (class_code, ext_code) = (codes[0] as usize, codes[1] as usize);
        let class = *ExecClass::ALL
            .get(class_code)
            .ok_or_else(|| cur.bad(format!("unknown class code {class_code}")))?;
        let extension = *Extension::ALL
            .get(ext_code)
            .ok_or_else(|| cur.bad(format!("unknown extension code {ext_code}")))?;
        instructions.try_push(InstDesc { name: name.to_string(), class, extension }).map_err(
            |desc| cur.bad(format!("duplicate instruction `{}` (entry {i})", desc.name)),
        )?;
    }
    Ok(instructions)
}

/// The most dense usage cells (`row slots × resources`) a conjunctive model
/// may declare per byte of its artifact.
///
/// A [`CompiledModel`](crate::CompiledModel) holds one `f64` per cell, and
/// both conjunctive formats can declare many cells in few bytes: a resource
/// name costs a few bytes, and one mapped slot far down the instruction
/// table makes every slot before it a row.  Without a bound, a 47 KB v2b
/// with 423 instructions, 4,000 resources and one usage per row expands to
/// 13.5 MB of rows (36 cells per byte).  With it, a load allocates at most
/// 8 bytes of rows per input byte.  The largest models the repository
/// trains sit far below the bound (cells per byte of each artifact):
///
/// | model | slots × resources | v2b | v1 text |
/// |---|---|---|---|
/// | `table2 --full`, skl-sp-like | 423 × 21 | 0.083 | 0.046 |
/// | `table2 --full`, zen1-like | 423 × 19 | 0.080 | 0.044 |
/// | `train_analytic`, 1,444 instructions | 1,444 × 21 | 0.080 | 0.043 |
/// | palbench's served skl-sp-like model | 423 × 21 | 0.093 | 0.052 |
///
/// so the bound leaves at least 10× headroom over every one.
pub(crate) const MAX_DENSE_CELLS_PER_BYTE: usize = 1;

/// Checks that a conjunctive model of `slots` row slots over `resources`
/// resources stays within [`MAX_DENSE_CELLS_PER_BYTE`] of its `input_len`
/// artifact bytes, before any row is allocated.  Shared by the v2b
/// validator and the v1 text parser; each wraps the reason in its own
/// structured error at the resource count.
pub(crate) fn check_dense_cells(
    slots: usize,
    resources: usize,
    input_len: usize,
) -> Result<(), String> {
    let cells = slots.saturating_mul(resources);
    let limit = MAX_DENSE_CELLS_PER_BYTE.saturating_mul(input_len);
    if cells > limit {
        return Err(format!(
            "{slots} row slots × {resources} resources = {cells} usage cells exceed \
             {MAX_DENSE_CELLS_PER_BYTE} per byte of the {input_len}-byte artifact"
        ));
    }
    Ok(())
}

/// Reads and validates a CSR pointer array shared by the binary codecs: a
/// `(slots + 1)`-entry little-endian `u32` run followed by its `u32` entry
/// count, with the endpoints pinned to `0 .. total` and full monotonicity
/// checked up front — so no later row walk can index
/// past the entry arrays even on a crafted, correctly re-hashed body.
/// Returns the pointer array's byte range and the entry count.
pub(crate) fn read_csr_ptr(
    cur: &mut Cursor<'_>,
    bytes: &[u8],
    slots: usize,
    what: &str,
    count_what: &str,
) -> Result<(Range<usize>, usize), ArtifactError> {
    let len =
        (slots + 1).checked_mul(4).ok_or_else(|| cur.bad(format!("{what} count overflows")))?;
    let range = cur.take_range(len, what)?;
    let total = cur.u32(count_what)? as usize;
    let first = u32_at(bytes, &range, 0);
    let last = u32_at(bytes, &range, slots);
    if first != 0 || last as usize != total {
        return Err(cur.bad(format!("{what} must run from 0 to {total}, found {first}..{last}")));
    }
    let mut previous = 0u32;
    for (i, word) in bytes[range.clone()].chunks_exact(4).enumerate().skip(1) {
        let p = u32::from_le_bytes(word.try_into().expect("4 bytes"));
        if p < previous {
            return Err(cur.bad(format!("{what} decreases at slot {}", i - 1)));
        }
        previous = p;
    }
    Ok((range, total))
}

/// Reads the `i`-th little-endian `u32` of a validated array range.
#[inline]
pub(crate) fn u32_at(bytes: &[u8], range: &Range<usize>, i: usize) -> u32 {
    let at = range.start + 4 * i;
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Reads the `i`-th little-endian `f64` bit pattern of a validated range.
#[inline]
pub(crate) fn f64_at(bytes: &[u8], range: &Range<usize>, i: usize) -> f64 {
    let at = range.start + 8 * i;
    f64::from_bits(u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")))
}

/// Byte cursor with offset-tagged errors and allocation-capping reads — the
/// validate-pass workhorse of every binary codec.  Lengths are checked
/// against the remaining byte budget *before* the allocation they would
/// drive, because the trailer is integrity, not authentication.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor over `bytes` just past the magic prefix.
    pub fn after_magic(bytes: &'a [u8], magic: &[u8]) -> Self {
        Cursor { bytes, pos: magic.len() }
    }

    /// An offset-tagged malformed-binary error at the current position.
    pub fn bad(&self, reason: impl Into<String>) -> ArtifactError {
        ArtifactError::MalformedBinary { offset: self.pos, reason: reason.into() }
    }

    /// Takes the next `n` bytes, or errors with what was being read.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ArtifactError> {
        if n > self.bytes.len() - self.pos {
            return Err(self.bad(format!(
                "{what} needs {n} bytes but only {} remain",
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Like [`Cursor::take`], but returns the byte range instead of the
    /// slice.
    pub fn take_range(&mut self, n: usize, what: &str) -> Result<Range<usize>, ArtifactError> {
        let start = self.pos;
        self.take(n, what)?;
        Ok(start..start + n)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<&'a str, ArtifactError> {
        let len = self.u32(what)? as usize;
        let start = self.pos;
        let bytes = self.take(len, what)?;
        utf8_at(bytes, start, what)
    }

    /// Reads a length-prefixed string like [`Cursor::str`], unless its
    /// bytes equal `known` byte for byte: then it returns `None` without
    /// running the UTF-8 check, which `known` already passed as a `str`.
    /// Any other bytes are validated exactly as [`Cursor::str`] validates
    /// them, with the same error and offset.
    pub fn str_unless(
        &mut self,
        what: &str,
        known: &str,
    ) -> Result<Option<&'a str>, ArtifactError> {
        let len = self.u32(what)? as usize;
        let start = self.pos;
        let bytes = self.take(len, what)?;
        if bytes == known.as_bytes() {
            return Ok(None);
        }
        utf8_at(bytes, start, what).map(Some)
    }

    /// Reads a name that must already be in the sanitised `token` form the
    /// encoders write (non-empty, no whitespace).  Accepting anything looser
    /// would let a crafted binary load names that cannot re-render into the
    /// text grammar, breaking the documented cross-format round trips.
    pub fn token(&mut self, what: &str) -> Result<&'a str, ArtifactError> {
        let at = self.pos;
        let name = self.str(what)?;
        if name.is_empty() || name.chars().any(char::is_whitespace) {
            return Err(ArtifactError::MalformedBinary {
                // Point at the name itself (just past its length prefix),
                // not wherever the cursor advanced to.
                offset: at + 4,
                reason: format!("{what} `{name}` is not a whitespace-free token"),
            });
        }
        Ok(name)
    }

    /// The offset of the next byte to read.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Validates `bytes` (read at frame offset `start`) as UTF-8.
fn utf8_at<'a>(bytes: &'a [u8], start: usize, what: &str) -> Result<&'a str, ArtifactError> {
    std::str::from_utf8(bytes).map_err(|_| ArtifactError::MalformedBinary {
        offset: start,
        reason: format!("{what} is not valid UTF-8"),
    })
}

/// Converts a `PALMED-MODEL v1` text artifact into its `v2b` binary form —
/// the forward half of the conjunctive version/migration story.  The two
/// formats are mutually lossless, so migrating and loading reproduces the
/// artifact bit for bit; the reverse direction is
/// [`ModelArtifact::render`](crate::ModelArtifact::render) on a parsed v2b
/// buffer.
///
/// # Errors
///
/// Rejects buffers that are not v1 text (a v2b buffer is already migrated;
/// a `PALMED-DISJ v1` buffer is a different model family) with
/// [`ArtifactError::WrongKind`], and propagates every v1 parse failure.
pub fn migrate_v1_to_v2b(bytes: &[u8]) -> Result<Vec<u8>, ArtifactError> {
    match ModelKind::sniff(bytes) {
        ModelKind::ConjunctiveV1 => {
            let text = std::str::from_utf8(bytes).map_err(|_| ArtifactError::MissingHeader)?;
            Ok(crate::ModelArtifact::parse(text)?.render_v2())
        }
        found => Err(ArtifactError::WrongKind { expected: ModelKind::ConjunctiveV1, found }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniffing_keys_on_the_magic_bytes() {
        assert_eq!(ModelKind::sniff(b"PALMED-MODEL v2b\nrest"), ModelKind::ConjunctiveV2b);
        assert_eq!(ModelKind::sniff(b"PALMED-DISJ v1\nrest"), ModelKind::DisjunctiveV1);
        assert_eq!(ModelKind::sniff(b"PALMED-MODEL v1\n"), ModelKind::ConjunctiveV1);
        assert_eq!(ModelKind::sniff(b""), ModelKind::ConjunctiveV1);
    }

    #[test]
    fn kind_reports_family_and_version() {
        assert_eq!(ModelKind::ConjunctiveV1.family(), "conjunctive");
        assert_eq!(ModelKind::ConjunctiveV2b.version(), "v2b");
        assert_eq!(ModelKind::DisjunctiveV1.family(), "disjunctive");
        assert_eq!(ModelKind::DisjunctiveV1.version(), "v1");
        for kind in ModelKind::ALL {
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn str_unless_skips_only_bytes_equal_to_the_known_text() {
        let mut buf = b"M".to_vec();
        push_str(&mut buf, "a×b");
        // As long as the known text, but not UTF-8.
        push_u32(&mut buf, 4);
        buf.extend_from_slice(b"a\xff\xffb");
        let read = |known: &str| {
            let mut cur = Cursor::after_magic(&buf, b"M");
            (cur.str_unless("first", known), cur.str_unless("second", known))
        };
        let (first, second) = read("a×b");
        assert_eq!(first.unwrap(), None, "equal bytes take the known text");
        let unless = second.unwrap_err();
        let mut cur = Cursor::after_magic(&buf, b"M");
        cur.str("first").unwrap();
        let plain = cur.str("second").unwrap_err();
        assert_eq!(
            unless.to_string(),
            plain.to_string(),
            "other bytes are validated as `str` does"
        );
        assert_eq!(unless.offset(), Some(1 + 4 + "a×b".len() + 4));
        assert_eq!(read("a").0.unwrap(), Some("a×b"));
    }

    #[test]
    fn trailer_round_trips_and_rejects_tampering() {
        let mut body = V2B_MAGIC.to_vec();
        body.extend_from_slice(b"payload");
        let sealed = finish_trailer(body.clone());
        assert_eq!(verify_trailer(&sealed, V2B_MAGIC).unwrap(), &body[..]);
        // Wrong magic.
        assert!(matches!(verify_trailer(&sealed, DISJ_MAGIC), Err(ArtifactError::MissingHeader)));
        // Too short for a trailer.
        assert!(matches!(
            verify_trailer(V2B_MAGIC, V2B_MAGIC),
            Err(ArtifactError::MissingChecksum)
        ));
        // Flipped payload byte.
        let mut corrupt = sealed.clone();
        corrupt[V2B_MAGIC.len()] ^= 0x20;
        assert!(matches!(
            verify_trailer(&corrupt, V2B_MAGIC),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn migrate_rejects_non_v1_input() {
        let bin = crate::artifact::tests_support::example().render_v2();
        match migrate_v1_to_v2b(&bin) {
            Err(ArtifactError::WrongKind { expected, found }) => {
                assert_eq!(expected, ModelKind::ConjunctiveV1);
                assert_eq!(found, ModelKind::ConjunctiveV2b);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn migrate_is_lossless() {
        let artifact = crate::artifact::tests_support::example();
        let migrated = migrate_v1_to_v2b(artifact.render().as_bytes()).unwrap();
        assert_eq!(migrated, artifact.render_v2());
        assert_eq!(crate::ModelArtifact::parse_v2(&migrated).unwrap(), artifact);
    }
}
