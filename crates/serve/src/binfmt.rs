//! The `PALMED-MODEL v2b` binary codec: length-prefixed little-endian layout
//! storing the [`CompiledModel`] CSR arrays verbatim.
//!
//! The v1 text format stays the interchange/debug form; v2b exists because a
//! full XED-sized inventory makes float parsing the dominant load cost.  In
//! v2b every `f64` is its raw bit pattern and every array is a contiguous
//! little-endian run, so loading splits into two halves:
//!
//! * [`validate`] walks the buffer once, checks the checksum and every
//!   structural invariant, and returns a [`RawIndex`] — the byte ranges of
//!   the CSR arrays plus the instruction inventory.  Nothing is copied.
//! * Materialisation is then a choice per caller: [`ArtifactBytes::view`]
//!   borrows the arrays in place as a [`CompiledModelRef`] (the serving
//!   load, over bytes re-based so the arrays are aligned),
//!   [`RawIndex::to_compiled`] copies them into an owned [`CompiledModel`]
//!   (big-endian targets, where the little-endian runs cannot be borrowed),
//!   and [`RawIndex::rebuild_mapping`] re-derives the dense
//!   [`ConjunctiveMapping`] rows (exactly inverting what
//!   [`CompiledModel::compile`] does, so a v1↔v2 round trip is
//!   bit-identical) — which served loads defer until first access.
//!
//! The byte-level plumbing (magic + FNV trailer, length-prefixed sections,
//! the offset-tagged [`Cursor`]) is the shared machinery of
//! [`crate::codec`]; this module owns only the conjunctive-CSR layout
//! itself (see the crate docs for the grammar):
//!
//! ```text
//! magic            "PALMED-MODEL v2b\n"            17 bytes
//! machine          u32 len + UTF-8 bytes
//! source           u32 len + UTF-8 bytes
//! instructions     u32 n; n × { u32 len + name, u8 class, u8 extension }
//! resources        u32 m; m × { u32 len + name }
//! row slots        u32 s (last mapped instruction index + 1)
//! mapped flags     s bytes, each 0 or 1
//! row_ptr          (s + 1) × u32, monotone, ending at nnz
//! nnz              u32
//! cols             nnz × u32, ascending within a row, < m
//! vals             nnz × u64 (f64 bits), finite and > 0
//! checksum         u64, FNV-1a 64 over 8-byte LE words of all preceding bytes
//! ```

use crate::artifact::{token, ArtifactError, ModelArtifact};
use crate::codec::{
    finish_trailer, push_f64, push_str, push_u32, u32_at, ArtifactCodec, Cursor, ModelKind,
    V2B_MAGIC,
};
use crate::compiled::{CompiledModel, CompiledModelRef};
use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, InstructionSet};
use std::ops::Range;
use std::sync::Arc;

/// The `PALMED-MODEL v2b` codec, as the registry's sniff table sees it.
pub(crate) struct V2bCodec;

impl ArtifactCodec for V2bCodec {
    const KIND: ModelKind = ModelKind::ConjunctiveV2b;
    const MAGIC: &'static [u8] = V2B_MAGIC;
    type Artifact = ModelArtifact;

    fn encode(artifact: &ModelArtifact) -> Vec<u8> {
        encode(artifact)
    }

    fn decode(bytes: &[u8]) -> Result<ModelArtifact, ArtifactError> {
        decode(bytes)
    }
}

/// Serialises an artifact into the v2b binary form, checksum included.
pub(crate) fn encode(artifact: &ModelArtifact) -> Vec<u8> {
    let machine = token(&artifact.machine);
    let mapping = artifact.mapping();
    let compiled = CompiledModel::compile(machine.clone(), mapping);
    let (mapped, row_ptr, cols, vals) = compiled.raw_parts();

    let mut out = Vec::with_capacity(64 + 16 * vals.len());
    out.extend_from_slice(V2B_MAGIC);
    push_str(&mut out, &machine);
    push_str(&mut out, &token(&artifact.source));

    crate::codec::write_instruction_table(&mut out, &artifact.instructions);

    push_u32(&mut out, compiled.num_resources() as u32);
    for r in mapping.resources() {
        push_str(&mut out, &token(mapping.resource_name(r)));
    }

    push_u32(&mut out, mapped.len() as u32);
    out.extend_from_slice(mapped);
    for &p in row_ptr {
        push_u32(&mut out, p);
    }
    push_u32(&mut out, cols.len() as u32);
    for &c in cols {
        push_u32(&mut out, c);
    }
    for &v in vals {
        push_f64(&mut out, v);
    }

    finish_trailer(out)
}

/// A validated map of the byte ranges inside one v2b artifact: everything a
/// consumer needs to materialise (or borrow) the model without re-checking
/// any invariant.  Offsets are relative to the artifact's first byte, so the
/// index stays valid when the buffer is re-based.
#[derive(Debug, Clone)]
pub(crate) struct RawIndex {
    machine: Range<usize>,
    source: Range<usize>,
    resource_names: Vec<Range<usize>>,
    /// Row slot count (last mapped instruction index + 1).
    slots: usize,
    mapped: Range<usize>,
    row_ptr: Range<usize>,
    cols: Range<usize>,
    vals: Range<usize>,
}

/// Everything [`validate`] proves about a v2b buffer: the instruction
/// inventory (materialised during validation — duplicate detection needs the
/// name index anyway) and the byte ranges of the rest.
pub(crate) struct Validated {
    pub instructions: InstructionSet,
    pub index: RawIndex,
}

/// Walks a v2b artifact once, verifying the checksum and every structural
/// invariant, without copying any CSR array or rebuilding any dense row.
///
/// This is the single validator behind every v2b load path — served, eager
/// and migrated — so corruption, truncation and crafted structural
/// violations are rejected identically everywhere.
pub(crate) fn validate(bytes: &[u8]) -> Result<Validated, ArtifactError> {
    let body = crate::codec::verify_for::<V2bCodec>(bytes)?;

    let mut cur = Cursor::after_magic(body, V2B_MAGIC);
    let machine = cur.token_range("machine name")?;
    let source = cur.token_range("source name")?;

    let instructions = crate::codec::read_instruction_table(&mut cur)?;
    let n_insts = instructions.len();

    // Resource names.
    let n_resources = cur.u32("resource count")? as usize;
    let mut resource_names = Vec::with_capacity(n_resources.min(4096));
    for _ in 0..n_resources {
        resource_names.push(cur.token_range("resource name")?);
    }

    // CSR arrays: lengths are validated against the remaining bytes by the
    // cursor before anything is read past.
    let slots = cur.u32("row slot count")? as usize;
    if slots > n_insts {
        return Err(cur.bad(format!("{slots} row slots exceed {n_insts} instructions")));
    }
    let mapped = cur.take_range(slots, "mapped flags")?;
    for (i, flag) in bytes[mapped.clone()].iter().enumerate() {
        if *flag > 1 {
            return Err(cur.bad(format!("mapped flag must be 0 or 1, found {flag} at slot {i}")));
        }
    }
    if slots > 0 && bytes[mapped.end - 1] == 0 {
        return Err(cur.bad("last row slot is unmapped (slot table is not minimal)"));
    }
    let (row_ptr, nnz) =
        crate::codec::read_csr_ptr(&mut cur, bytes, slots, "row_ptr", "entry count")?;
    let cols_len =
        nnz.checked_mul(4).ok_or_else(|| cur.bad("columns count overflows".to_string()))?;
    let cols = cur.take_range(cols_len, "columns")?;
    let vals_len =
        nnz.checked_mul(8).ok_or_else(|| cur.bad("usage values count overflows".to_string()))?;
    let vals = cur.take_range(vals_len, "usage values")?;
    if !cur.done() {
        return Err(cur.bad("trailing bytes after the CSR arrays"));
    }

    // One sequential pass over the rows.  `row_ptr` partitions `0..nnz`
    // (endpoints pinned, monotone), so the column and value cursors advance
    // in lockstep with the slot walk and cover every entry exactly once:
    // unmapped slots must have empty rows, columns must be strictly
    // ascending and in range, and every stored f64 must be finite and
    // positive.
    let mut col_words = bytes[cols.clone()].chunks_exact(4);
    let mut val_words = bytes[vals.clone()].chunks_exact(8);
    let mut previous_ptr = 0u32;
    for (i, &flag) in bytes[mapped.clone()].iter().enumerate() {
        let next_ptr = u32_at(bytes, &row_ptr, i + 1);
        let count = (next_ptr - previous_ptr) as usize;
        previous_ptr = next_ptr;
        if flag == 0 {
            if count != 0 {
                return Err(cur.bad(format!("unmapped slot {i} has a non-empty row")));
            }
            continue;
        }
        let mut previous: Option<u32> = None;
        for _ in 0..count {
            let col = u32::from_le_bytes(
                col_words.next().expect("row_ptr bounded by nnz").try_into().expect("4 bytes"),
            );
            let val = f64::from_bits(u64::from_le_bytes(
                val_words.next().expect("vals as long as cols").try_into().expect("8 bytes"),
            ));
            if col as usize >= n_resources {
                return Err(cur.bad(format!("slot {i} references resource {col} >= {n_resources}")));
            }
            if previous.is_some_and(|p| col <= p) {
                return Err(cur.bad(format!("slot {i} columns are not strictly ascending")));
            }
            previous = Some(col);
            if !val.is_finite() || val <= 0.0 {
                return Err(cur.bad(format!("usage value {val} is not finite and positive")));
            }
        }
    }

    let index = RawIndex { machine, source, resource_names, slots, mapped, row_ptr, cols, vals };
    Ok(Validated { instructions, index })
}

impl RawIndex {
    fn str<'a>(&self, bytes: &'a [u8], range: &Range<usize>) -> &'a str {
        std::str::from_utf8(&bytes[range.clone()]).expect("validated UTF-8")
    }

    /// The machine name, borrowed from the buffer.
    pub(crate) fn machine<'a>(&self, bytes: &'a [u8]) -> &'a str {
        self.str(bytes, &self.machine)
    }

    /// The source name, borrowed from the buffer.
    pub(crate) fn source<'a>(&self, bytes: &'a [u8]) -> &'a str {
        self.str(bytes, &self.source)
    }

    /// Copies the CSR arrays out of the buffer into an owned
    /// [`CompiledModel`] — the serving load on big-endian targets, where
    /// the little-endian runs cannot be borrowed in place.
    pub(crate) fn to_compiled(&self, bytes: &[u8]) -> CompiledModel {
        let words = |range: &Range<usize>| -> Vec<u32> {
            bytes[range.clone()]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect()
        };
        let vals: Vec<f64> = bytes[self.vals.clone()]
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        CompiledModel::from_raw_parts(
            self.machine(bytes).to_string(),
            self.resource_names.iter().map(|r| self.str(bytes, r).to_string()).collect(),
            bytes[self.mapped.clone()].to_vec(),
            words(&self.row_ptr),
            words(&self.cols),
            vals,
        )
    }

    /// Name of resource `r`, borrowed from the buffer.
    pub(crate) fn resource_name<'a>(&self, bytes: &'a [u8], r: usize) -> &'a str {
        self.str(bytes, &self.resource_names[r])
    }

    /// Rebuilds the dense [`ConjunctiveMapping`] rows by scattering the
    /// sparse entries over zeros (the inverse of [`CompiledModel::compile`]).
    /// This is the expensive half of a v2b load that the serving path never
    /// needs — served loads defer it until first explicit access.
    pub(crate) fn rebuild_mapping(&self, bytes: &[u8]) -> ConjunctiveMapping {
        let n_resources = self.resource_names.len();
        let mut rows: Vec<(InstId, Vec<f64>)> = Vec::with_capacity(self.slots.min(1 << 20));
        for i in 0..self.slots {
            if bytes[self.mapped.start + i] == 0 {
                continue;
            }
            let (start, end) = (
                u32_at(bytes, &self.row_ptr, i) as usize,
                u32_at(bytes, &self.row_ptr, i + 1) as usize,
            );
            let mut usage = vec![0.0; n_resources];
            for e in start..end {
                let col = u32_at(bytes, &self.cols, e) as usize;
                let at = self.vals.start + 8 * e;
                usage[col] = f64::from_bits(u64::from_le_bytes(
                    bytes[at..at + 8].try_into().expect("8 bytes"),
                ));
            }
            rows.push((InstId(i as u32), usage));
        }
        ConjunctiveMapping::from_rows(
            self.resource_names.iter().map(|r| self.str(bytes, r).to_string()).collect(),
            rows,
        )
    }
}

/// A little-endian machine word a validated v2b array can be borrowed as.
/// Every bit pattern is a valid value of both implementors.
trait Word: Sized {}
impl Word for u32 {}
impl Word for f64 {}

/// Reinterprets an aligned little-endian byte run as a slice of words.
fn cast<T: Word>(bytes: &[u8]) -> &[T] {
    assert!(
        cfg!(target_endian = "little")
            && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
            && bytes.len().is_multiple_of(std::mem::size_of::<T>()),
        "ArtifactBytes aligns every CSR array (little-endian targets only)"
    );
    // SAFETY: the pointer is aligned for `T` and the length is a whole
    // number of words (both checked above); `Word` types accept every bit
    // pattern and the byte order matches (checked above); the result
    // borrows `bytes`, so it cannot outlive the buffer.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr().cast::<T>(),
            bytes.len() / std::mem::size_of::<T>(),
        )
    }
}

/// Validated, heap-owned artifact bytes whose CSR arrays sit on aligned
/// offsets, together with their [`RawIndex`]; shared (one `Arc`) between a
/// served registry entry and the deferred mapping state of its artifact.
///
/// `std::fs::read` hands back a buffer whose base alignment is allocator
/// luck and whose array offsets depend on name lengths.
/// [`ArtifactBytes::aligned`] fixes that once at load time: when `vals` is
/// not 8-aligned it re-bases the payload with a leading shift (one memcpy).
/// Every array between `row_ptr` and `vals` is a whole number of 4-byte
/// words, so an 8-aligned `vals` also 4-aligns `row_ptr` and `cols`, and
/// [`ArtifactBytes::view`] can borrow all three as plain slices.
#[derive(Clone)]
pub(crate) struct ArtifactBytes(Arc<Retained>);

struct Retained {
    buf: Vec<u8>,
    /// Offset of the artifact's first byte inside `buf` (non-zero only when
    /// the payload was re-based for alignment).
    start: usize,
    index: RawIndex,
}

/// Summarised `Debug` — a retained artifact is hundreds of kilobytes, and
/// this type is reachable from `Debug` on every served registry entry.
impl std::fmt::Debug for ArtifactBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArtifactBytes({} bytes, start {})", self.as_slice().len(), self.0.start)
    }
}

impl ArtifactBytes {
    /// Takes ownership of validated artifact bytes, re-basing them if `vals`
    /// would otherwise sit on an offset that is not 8-aligned.
    pub(crate) fn aligned(bytes: Vec<u8>, index: RawIndex) -> ArtifactBytes {
        let shift = |base: *const u8| (8 - (base as usize + index.vals.start) % 8) % 8;
        let (buf, start) = if shift(bytes.as_ptr()) == 0 {
            (bytes, 0)
        } else {
            let mut buf = vec![0u8; bytes.len() + 8];
            let start = shift(buf.as_ptr());
            buf[start..start + bytes.len()].copy_from_slice(&bytes);
            buf.truncate(start + bytes.len());
            (buf, start)
        };
        ArtifactBytes(Arc::new(Retained { buf, start, index }))
    }

    /// The artifact bytes.  The heap block behind the `Arc` never moves, so
    /// the alignment established at construction holds for the lifetime of
    /// every clone.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.0.buf[self.0.start..]
    }

    /// The validated byte ranges of the artifact.
    pub(crate) fn index(&self) -> &RawIndex {
        &self.0.index
    }

    /// Borrows the CSR arrays in place as a [`CompiledModelRef`].  Allocates
    /// nothing: the resource count is all the hot loop needs, and names are
    /// read on request through [`RawIndex::resource_name`].
    ///
    /// # Panics
    ///
    /// Panics on big-endian targets, where the little-endian runs cannot be
    /// borrowed (serve them through [`RawIndex::to_compiled`] instead).
    pub(crate) fn view(&self) -> CompiledModelRef<'_> {
        let (index, bytes) = (self.index(), self.as_slice());
        CompiledModelRef::from_parts(
            index.machine(bytes),
            index.resource_names.len(),
            &bytes[index.mapped.clone()],
            cast(&bytes[index.row_ptr.clone()]),
            cast(&bytes[index.cols.clone()]),
            cast(&bytes[index.vals.clone()]),
        )
    }
}

/// Parses and verifies a v2b artifact into the self-describing artifact,
/// dense mapping rebuilt eagerly.
pub(crate) fn decode(bytes: &[u8]) -> Result<ModelArtifact, ArtifactError> {
    let Validated { instructions, index } = validate(bytes)?;
    let mapping = index.rebuild_mapping(bytes);
    Ok(ModelArtifact::new(
        index.machine(bytes).to_string(),
        index.source(bytes).to_string(),
        instructions,
        mapping,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::fnv1a64_words;

    /// Hand-encodes a crafted v2b body with a `row_ptr` that overshoots
    /// `nnz` in the middle while keeping the pinned endpoints valid: the
    /// decoder must reject it, not index past the CSR arrays.
    #[test]
    fn overshooting_row_ptr_is_rejected_not_panicking() {
        let mut body = Vec::new();
        body.extend_from_slice(V2B_MAGIC);
        push_str(&mut body, "m");
        push_str(&mut body, "s");
        push_u32(&mut body, 2); // instructions
        for name in ["a", "b"] {
            push_str(&mut body, name);
            body.push(0); // class code
            body.push(0); // extension code
        }
        push_u32(&mut body, 1); // resources
        push_str(&mut body, "r");
        push_u32(&mut body, 2); // row slots
        body.extend_from_slice(&[1, 1]); // mapped flags
        for p in [0u32, 5, 1] {
            push_u32(&mut body, p); // row_ptr: overshoots nnz at slot 0
        }
        push_u32(&mut body, 1); // nnz
        push_u32(&mut body, 0); // cols
        push_f64(&mut body, 1.0); // vals
        let body = finish_trailer(body);
        match decode(&body) {
            Err(ArtifactError::MalformedBinary { reason, .. }) => {
                assert!(reason.contains("row_ptr"), "unexpected reason: {reason}");
            }
            other => panic!("expected MalformedBinary, got {other:?}"),
        }
    }

    /// Re-basing preserves the payload bytes and establishes alignment.
    #[test]
    fn aligned_bytes_preserve_content_at_any_incoming_shift() {
        let artifact = crate::artifact::tests_support::example();
        let bin = artifact.render_v2();
        let Validated { index, .. } = validate(&bin).unwrap();
        for shift in 0..4usize {
            // Place the artifact at a deliberate offset inside a u32-aligned
            // backing store, so the incoming alignment is exact.
            let mut backing = vec![0u8; bin.len() + 8];
            let base = backing.as_ptr() as usize;
            let pad = (4 - base % 4) % 4 + shift;
            backing[pad..pad + bin.len()].copy_from_slice(&bin);
            let slice = backing[pad..pad + bin.len()].to_vec();
            let aligned = ArtifactBytes::aligned(slice, index.clone());
            assert_eq!(aligned.as_slice(), &bin[..]);
            if cfg!(target_endian = "little") {
                let view = aligned.view();
                assert_eq!(view.num_entries(), 5, "aligned bytes back a view (shift {shift})");
            }
        }
    }

    /// The strided-word checksum helper and the trailer the encoder writes
    /// agree (the trailer moved to `codec`; this pins the compatibility).
    #[test]
    fn encoder_trailer_is_the_strided_word_checksum() {
        let bin = crate::artifact::tests_support::example().render_v2();
        let body = &bin[..bin.len() - 8];
        let stored = u64::from_le_bytes(bin[bin.len() - 8..].try_into().unwrap());
        assert_eq!(stored, fnv1a64_words(body));
    }
}
