//! The `PALMED-MODEL v2b` binary codec: length-prefixed little-endian layout
//! storing a [`ConjunctiveMapping`]'s non-zero usages as a CSR section.
//!
//! The v1 text format stays the interchange/debug form; v2b exists because a
//! full XED-sized inventory makes float parsing the dominant load cost.  In
//! v2b every `f64` is its raw bit pattern and every array is a contiguous
//! little-endian run, so a load is one pass: [`validate`], the one v2b
//! decoder, checks the checksum and every structural invariant while it
//! scatters the CSR entries into the dense rows of the artifact's
//! [`ConjunctiveMapping`] — what a served load keeps.  The CSR section
//! drops zero usages and the mapping stores them as zeros, so a v1↔v2 round
//! trip is bit-identical.
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
//! row slots        u32 s (last mapped instruction index + 1; s ≤ n, and
//!                  s × m ≤ the artifact's length in bytes)
//! mapped flags     s bytes, each 0 or 1
//! row_ptr          (s + 1) × u32, monotone, ending at nnz
//! nnz              u32
//! cols             nnz × u32, ascending within a row, < m
//! vals             nnz × u64 (f64 bits), finite and > 0
//! checksum         u64, FNV-1a 64 over 8-byte LE words of all preceding bytes
//! ```

use crate::artifact::{token, ArtifactError, ModelArtifact};
use crate::codec::{finish_trailer, push_f64, push_str, push_u32, Cursor, V2B_MAGIC};
use palmed_core::ConjunctiveMapping;
use palmed_isa::InstId;

/// Serialises an artifact into the v2b binary form, checksum included.  The
/// CSR section holds each slot's non-zero usages in ascending resource
/// order, up to the last mapped slot.
pub(crate) fn encode(artifact: &ModelArtifact) -> Vec<u8> {
    let mapping = artifact.mapping();
    let slots = mapping.instructions().last().map_or(0, |i| i.index() + 1);
    // `-0.0 != 0.0` is false: a negative zero is dropped like `+0.0`.
    let rows = || {
        (0..slots as u32).map(|i| {
            let row = mapping.usage_vector(InstId(i)).unwrap_or_default();
            row.iter().enumerate().filter(|&(_, &value)| value != 0.0).map(|(c, &v)| (c as u32, v))
        })
    };

    let mut out = Vec::with_capacity(64 + 16 * rows().flatten().count());
    out.extend_from_slice(V2B_MAGIC);
    push_str(&mut out, &token(&artifact.machine));
    push_str(&mut out, &token(&artifact.source));

    crate::codec::write_instruction_table(&mut out, &artifact.instructions);

    push_u32(&mut out, mapping.num_resources() as u32);
    for r in mapping.resources() {
        push_str(&mut out, &token(mapping.resource_name(r)));
    }

    push_u32(&mut out, slots as u32);
    out.extend((0..slots as u32).map(|i| u8::from(mapping.supports(InstId(i)))));
    let mut nnz = 0u32;
    push_u32(&mut out, nnz);
    for row in rows() {
        nnz += row.count() as u32;
        push_u32(&mut out, nnz);
    }
    push_u32(&mut out, nnz);
    for (col, _) in rows().flatten() {
        push_u32(&mut out, col);
    }
    for (_, value) in rows().flatten() {
        push_f64(&mut out, value);
    }

    finish_trailer(out)
}

/// Walks a v2b artifact once, verifying the checksum and every structural
/// invariant, and scatters the CSR entries on the way into the dense rows of
/// the artifact's mapping.
///
/// This is the single decoder behind every v2b load path — registry loads,
/// [`ModelArtifact::parse_v2`] and migration checks — so corruption,
/// truncation and crafted structural violations are rejected identically
/// everywhere.
pub(crate) fn validate(bytes: &[u8]) -> Result<ModelArtifact, ArtifactError> {
    let body = crate::codec::verify_trailer(bytes, V2B_MAGIC)?;

    let mut cur = Cursor::after_magic(body, V2B_MAGIC);
    let machine = cur.token("machine name")?.to_string();
    let source = cur.token("source name")?.to_string();

    let instructions = crate::codec::read_instruction_table(&mut cur)?;
    let n_insts = instructions.len();

    // Resource names.
    let resource_count_at = cur.position();
    let n_resources = cur.u32("resource count")? as usize;
    let mut resource_names = Vec::with_capacity(n_resources.min(4096));
    for _ in 0..n_resources {
        resource_names.push(cur.token("resource name")?.to_string());
    }

    // CSR arrays: lengths are validated against the remaining bytes by the
    // cursor before anything is read past.
    let slots = cur.u32("row slot count")? as usize;
    if slots > n_insts {
        return Err(cur.bad(format!("{slots} row slots exceed {n_insts} instructions")));
    }
    crate::codec::check_dense_cells(slots, n_resources, bytes.len())
        .map_err(|reason| ArtifactError::MalformedBinary { offset: resource_count_at, reason })?;
    let mapped = cur.take(slots, "mapped flags")?;
    for (i, flag) in mapped.iter().enumerate() {
        if *flag > 1 {
            return Err(cur.bad(format!("mapped flag must be 0 or 1, found {flag} at slot {i}")));
        }
    }
    if slots > 0 && mapped[slots - 1] == 0 {
        return Err(cur.bad("last row slot is unmapped (slot table is not minimal)"));
    }
    let (row_ptr, nnz) =
        crate::codec::read_csr_ptr(&mut cur, bytes, slots, "row_ptr", "entry count")?;
    // Copy the arrays out in bulk: the cursor has bounded every length by
    // the bytes actually present, so no copy outgrows the buffer.
    let row_ptr = words(&bytes[row_ptr]);
    let cols_len =
        nnz.checked_mul(4).ok_or_else(|| cur.bad("columns count overflows".to_string()))?;
    let cols = words(cur.take(cols_len, "columns")?);
    let vals_len =
        nnz.checked_mul(8).ok_or_else(|| cur.bad("usage values count overflows".to_string()))?;
    let vals: Vec<f64> = cur
        .take(vals_len, "usage values")?
        .chunks_exact(8)
        .map(|word| f64::from_bits(u64::from_le_bytes(word.try_into().expect("8 bytes"))))
        .collect();
    if !cur.done() {
        return Err(cur.bad("trailing bytes after the CSR arrays"));
    }

    // One sequential pass over the rows.  `row_ptr` partitions `0..nnz`
    // (endpoints pinned, monotone), so the row ranges cover every entry
    // exactly once: unmapped slots must have empty rows, columns must be
    // strictly ascending and in range, and every stored f64 must be finite
    // and positive.  Each checked entry is scattered into its dense row;
    // the table runs to the last (mapped) slot, a size `check_dense_cells`
    // has bounded by the input length.  Every row is assembled in one
    // scratch row, zeroed again after each copy.
    let mut mapping = ConjunctiveMapping::new(resource_names);
    let mut usage = vec![0.0; n_resources];
    if slots > 0 {
        // Size the table once: the last slot is mapped, and its real row
        // overwrites this one below.
        mapping.set_usage(InstId(slots as u32 - 1), &usage);
    }
    for (i, &flag) in mapped.iter().enumerate() {
        let row = row_ptr[i] as usize..row_ptr[i + 1] as usize;
        if flag == 0 {
            if !row.is_empty() {
                return Err(cur.bad(format!("unmapped slot {i} has a non-empty row")));
            }
            continue;
        }
        let row_cols = &cols[row.clone()];
        let mut previous: Option<u32> = None;
        for (&col, &val) in row_cols.iter().zip(&vals[row]) {
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
            usage[col as usize] = val;
        }
        mapping.set_usage(InstId(i as u32), &usage);
        for &col in row_cols {
            usage[col as usize] = 0.0;
        }
    }

    Ok(ModelArtifact::new(machine, source, instructions, mapping))
}

/// The little-endian `u32` words of a validated byte run.
fn words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|word| u32::from_le_bytes(word.try_into().expect("4 bytes")))
        .collect()
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
        match validate(&body) {
            Err(ArtifactError::MalformedBinary { reason, .. }) => {
                assert!(reason.contains("row_ptr"), "unexpected reason: {reason}");
            }
            other => panic!("expected MalformedBinary, got {other:?}"),
        }
    }

    /// Pins the v2b bytes of a fixed artifact: nine resources, unmapped
    /// slots before, between and after the mapped ones, an all-zero mapped
    /// row and rows with zero entries (one of them `-0.0`, which the CSR
    /// section drops like `+0.0`).  Any change to the on-disk layout or
    /// to how the CSR section is derived from a mapping moves the length or
    /// the FNV trailer.
    #[test]
    fn v2b_bytes_of_a_fixed_artifact_are_pinned() {
        use palmed_core::ConjunctiveMapping;
        use palmed_isa::{InstId, InstructionSet};
        let names = (0..9).map(|r| format!("res{r}")).collect();
        let mut mapping = ConjunctiveMapping::new(names);
        mapping.set_usage(InstId(1), vec![0.0; 9]);
        mapping.set_usage(InstId(3), vec![0.5, 0.0, 0.0, 1.0 / 3.0, 0.25, 0.0, 2.0, 0.0, 1e-3]);
        mapping.set_usage(InstId(4), vec![-0.0, 0.75, 1.0 / 6.0, 0.0, 0.0, 0.0, 0.0, 3.5, 0.125]);
        let artifact = ModelArtifact::new(
            "pin-machine",
            "pin-source",
            InstructionSet::paper_example(),
            mapping,
        );
        let bin = artifact.render_v2();
        let trailer = u64::from_le_bytes(bin[bin.len() - 8..].try_into().unwrap());
        assert_eq!((bin.len(), trailer), (340, 0xf9a6_5b8f_41c4_3ea5));
        assert_eq!(validate(&bin).unwrap(), artifact);
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
