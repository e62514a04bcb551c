//! The `PALMED-WIRE v1` frame codec: the byte-level grammar of the wire
//! plane, built from the same primitives as the on-disk artifact formats.
//!
//! # Frame grammar
//!
//! ```text
//! frame   := magic kind len payload trailer
//! magic   := "PALMED-WIRE v1\n"                   (15 bytes)
//! kind    := u32 LE                               (1..=5, see below)
//! len     := u32 LE                               (payload byte length)
//! payload := len bytes                            (kind-specific, below)
//! trailer := u64 LE                               (FNV-1a-64 over all prior words)
//! ```
//!
//! The trailer is [`palmed_serve::codec::finish_trailer`]'s strided-word
//! FNV checksum over everything before it — byte-for-byte the discipline
//! of the `v2b`/`DISJ` artifact codecs, so torn or corrupted frames are
//! rejected identically on disk and on the wire.  All integers are
//! little-endian; strings are `u32` byte length + UTF-8
//! ([`palmed_serve::codec::push_str`]).
//!
//! Payloads by kind:
//!
//! ```text
//! 1 request        := req_id:u32 model:str corpus:str      (PALMED-CORPUS v1 text)
//! 2 response       := req_id:u32 rows:u32 rows×(covered:u8 ipc_bits:u64)
//! 3 error          := req_id:u32 class:str offset:u32 message:str
//! 4 admin-request  := req_id:u32 what:str                  ("health" | "obs")
//! 5 admin-response := req_id:u32 body:str
//! ```
//!
//! A response row is `covered = 1` plus the prediction's raw `f64` bit
//! pattern (bit-identical to the in-process [`BatchPredictor`] output), or
//! `covered = 0` with `ipc_bits = 0` where the model covers no instruction
//! of the kernel.  An error frame's `offset` is the byte offset into the
//! rejected frame, or [`NO_OFFSET`] when the error is not positional
//! (e.g. `server-busy`, `unknown-model`).  `req_id` 0 in an error frame
//! means the failure could not be attributed to a request (a frame that
//! never decoded far enough to carry one).
//!
//! # Decoding is the threat model
//!
//! Frames are untrusted input: [`decode_frame`] is a strict validate pass
//! (same stance as the artifact codecs — decodability is an integrity
//! check, not provenance) and every rejection is a structured
//! [`WireError`] carrying a kebab-case class *and a byte offset*, never a
//! panic.  The decoder is incremental — call it on a growing buffer and it
//! answers "need more bytes", "here is a frame", or "this connection is
//! talking garbage" — and rejects eagerly: a magic mismatch is reported at
//! the first wrong byte, an oversized declared length at the length field,
//! both *before* the full frame has arrived, so a hostile peer cannot make
//! the server buffer unbounded garbage.
//!
//! [`BatchPredictor`]: palmed_serve::BatchPredictor

use palmed_serve::checksum::fnv1a64_words;
use palmed_serve::codec::{push_f64, push_str, push_u32, Cursor};
use palmed_serve::ArtifactError;
use std::fmt;

/// Magic first bytes of every `PALMED-WIRE v1` frame.
pub const MAGIC: &[u8] = b"PALMED-WIRE v1\n";

/// Fixed frame header length: magic + kind + declared payload length.
pub const HEADER_LEN: usize = MAGIC.len() + 4 + 4;

/// Trailer length (the `u64` FNV checksum).
pub const TRAILER_LEN: usize = 8;

/// Sentinel encoding of "no byte offset" in an error frame.
pub const NO_OFFSET: u32 = u32::MAX;

/// Frame kind tags (the `kind` header word).
pub const KIND_REQUEST: u32 = 1;
/// See [`KIND_REQUEST`].
pub const KIND_RESPONSE: u32 = 2;
/// See [`KIND_REQUEST`].
pub const KIND_ERROR: u32 = 3;
/// See [`KIND_REQUEST`].
pub const KIND_ADMIN_REQUEST: u32 = 4;
/// See [`KIND_REQUEST`].
pub const KIND_ADMIN_RESPONSE: u32 = 5;

/// One decoded `PALMED-WIRE v1` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A prediction request: serve `corpus` (a `PALMED-CORPUS v1` text)
    /// against the registered model named `model`.
    Request {
        /// Client-chosen correlation id echoed in the response.
        req_id: u32,
        /// Registry name of the model to serve against.
        model: String,
        /// The workload, in the `PALMED-CORPUS v1` text format.
        corpus: String,
    },
    /// A prediction response: one row per corpus block, in block order.
    Response {
        /// The request's correlation id.
        req_id: u32,
        /// Per-block predicted IPC; `None` where the model covers no
        /// instruction of the block's kernel.
        rows: Vec<Option<f64>>,
    },
    /// A structured rejection.
    Error {
        /// The offending request's correlation id, or 0 if unattributable.
        req_id: u32,
        /// Kebab-case rejection class (mirrors
        /// [`ArtifactError::class`](palmed_serve::ArtifactError::class)).
        class: String,
        /// Byte offset into the rejected frame, when positional.
        offset: Option<u32>,
        /// Human-readable detail.
        message: String,
    },
    /// An operational query: `what` is `"health"` (registry entry health)
    /// or `"obs"` (the metrics snapshot).
    AdminRequest {
        /// Client-chosen correlation id echoed in the response.
        req_id: u32,
        /// Which admin surface to render.
        what: String,
    },
    /// The admin query's rendered body (JSON).
    AdminResponse {
        /// The request's correlation id.
        req_id: u32,
        /// Rendered response body.
        body: String,
    },
}

impl Frame {
    /// The frame's kind tag.
    pub fn kind(&self) -> u32 {
        match self {
            Frame::Request { .. } => KIND_REQUEST,
            Frame::Response { .. } => KIND_RESPONSE,
            Frame::Error { .. } => KIND_ERROR,
            Frame::AdminRequest { .. } => KIND_ADMIN_REQUEST,
            Frame::AdminResponse { .. } => KIND_ADMIN_RESPONSE,
        }
    }

    /// The frame's correlation id.
    pub fn req_id(&self) -> u32 {
        match self {
            Frame::Request { req_id, .. }
            | Frame::Response { req_id, .. }
            | Frame::Error { req_id, .. }
            | Frame::AdminRequest { req_id, .. }
            | Frame::AdminResponse { req_id, .. } => *req_id,
        }
    }

    /// Encodes the frame, trailer included.  Encoding is infallible — the
    /// sender controls its own frames; limits are the *decoder's* job.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame, trailer included, to `out` in one pass:
    /// header, payload and trailer are written straight into `out` (the
    /// trailer hashes the frame just appended), so a server queues a reply
    /// into its write buffer without an intermediate copy.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let payload_len = self.payload_len();
        out.reserve(HEADER_LEN + payload_len + TRAILER_LEN);
        let start = out.len();
        out.extend_from_slice(MAGIC);
        push_u32(out, self.kind());
        push_u32(out, payload_len as u32);
        push_u32(out, self.req_id());
        match self {
            Frame::Request { model, corpus, .. } => {
                push_str(out, model);
                push_str(out, corpus);
            }
            Frame::Response { rows, .. } => {
                push_u32(out, rows.len() as u32);
                for row in rows {
                    match row {
                        Some(ipc) => {
                            out.push(1);
                            push_f64(out, *ipc);
                        }
                        None => {
                            out.push(0);
                            out.extend_from_slice(&0u64.to_le_bytes());
                        }
                    }
                }
            }
            Frame::Error { class, offset, message, .. } => {
                push_str(out, class);
                push_u32(out, offset.unwrap_or(NO_OFFSET));
                push_str(out, message);
            }
            Frame::AdminRequest { what, .. } => push_str(out, what),
            Frame::AdminResponse { body, .. } => push_str(out, body),
        }
        debug_assert_eq!(out.len() - start, HEADER_LEN + payload_len, "payload_len is exact");
        let checksum = fnv1a64_words(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// The payload's encoded length in bytes (the header's `len` word).
    fn payload_len(&self) -> usize {
        // Every kind starts with `req_id`; a string is a `u32` length plus
        // its bytes; a response row is a flag byte plus the `u64` bits.
        4 + match self {
            Frame::Request { model, corpus, .. } => 4 + model.len() + 4 + corpus.len(),
            Frame::Response { rows, .. } => 4 + rows.len() * 9,
            Frame::Error { class, message, .. } => 4 + class.len() + 4 + 4 + message.len(),
            Frame::AdminRequest { what, .. } => 4 + what.len(),
            Frame::AdminResponse { body, .. } => 4 + body.len(),
        }
    }
}

/// A structured frame rejection: class, byte offset, detail.  Every
/// decoder failure produces one — by construction there is always an
/// offset, so operators (and the fuzzer's invariants) can point at the
/// exact byte a hostile or corrupted frame went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Kebab-case rejection class.
    pub class: String,
    /// Byte offset into the frame where decoding failed.
    pub offset: usize,
    /// Human-readable detail.
    pub reason: String,
}

impl WireError {
    fn new(class: &str, offset: usize, reason: impl Into<String>) -> WireError {
        WireError { class: class.to_string(), offset, reason: reason.into() }
    }

    /// Converts a payload-cursor failure, keeping the artifact error's
    /// class and offset (the cursor runs over the whole frame prefix, so
    /// its offsets are already frame-relative).
    fn from_artifact(e: ArtifactError) -> WireError {
        let offset = e.offset().unwrap_or(0);
        WireError { class: e.class().to_string(), offset, reason: e.to_string() }
    }

    /// The error frame a server sends back for this rejection.
    pub fn to_frame(&self, req_id: u32) -> Frame {
        Frame::Error {
            req_id,
            class: self.class.clone(),
            offset: u32::try_from(self.offset).ok().filter(|o| *o != NO_OFFSET),
            message: self.reason.clone(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire frame rejected ({}) at byte {}: {}", self.class, self.offset, self.reason)
    }
}

impl std::error::Error for WireError {}

/// Outcome of one incremental decode attempt over a growing buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded {
    /// The buffer is a valid frame prefix; feed more bytes.
    NeedMore,
    /// One complete frame, consuming the first `consumed` buffer bytes.
    Frame {
        /// Bytes of the buffer this frame occupied.
        consumed: usize,
        /// The decoded frame.
        frame: Frame,
    },
}

/// Incrementally decodes the frame at the front of `buf`.
///
/// `max_payload` caps the declared payload length — the max-frame limit; a
/// larger declaration is rejected at the length field, before any of the
/// payload is buffered.
///
/// # Errors
///
/// A [`WireError`] means the stream is not speaking `PALMED-WIRE v1` from
/// this byte on; there is no resynchronisation — the caller poisons the
/// connection.  Rejections are eager where possible: bad magic bytes and
/// oversized lengths fail on the partial buffer without waiting for the
/// rest of the frame.
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<Decoded, WireError> {
    decode(buf, max_payload, None)
}

/// [`decode_frame`] for a connection that keeps the corpus text of the
/// last request it decoded in `memo`.  A request whose corpus bytes equal
/// the memo byte for byte takes the memo's text without running
/// `from_utf8` again: bytes equal to a valid `str` are valid UTF-8, so the
/// check is implied, not dropped.  Any other corpus is validated exactly as
/// [`decode_frame`] validates it (same class, same offset) and becomes the
/// memo.  With `None` this is [`decode_frame`].
pub(crate) fn decode(
    buf: &[u8],
    max_payload: u32,
    memo: Option<&mut String>,
) -> Result<Decoded, WireError> {
    // Magic, checked byte-by-byte so a partial buffer already rejects.
    for (i, (got, want)) in buf.iter().zip(MAGIC).enumerate() {
        if got != want {
            return Err(WireError::new(
                "missing-header",
                i,
                format!("frame magic mismatch at byte {i}: expected {want:#04x}, found {got:#04x}"),
            ));
        }
    }
    if buf.len() < HEADER_LEN {
        return Ok(Decoded::NeedMore);
    }
    let kind = u32::from_le_bytes(buf[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4 bytes"));
    if !(KIND_REQUEST..=KIND_ADMIN_RESPONSE).contains(&kind) {
        return Err(WireError::new(
            "unknown-kind",
            MAGIC.len(),
            format!("unknown frame kind {kind}"),
        ));
    }
    let declared =
        u32::from_le_bytes(buf[MAGIC.len() + 4..HEADER_LEN].try_into().expect("4 bytes"));
    if declared > max_payload {
        return Err(WireError::new(
            "frame-too-large",
            MAGIC.len() + 4,
            format!("declared payload of {declared} bytes exceeds the {max_payload}-byte cap"),
        ));
    }
    // Widened to u64: header + declared + trailer can overflow a 32-bit
    // usize when a permissive `max_payload` admits lengths near u32::MAX.
    let total64 = HEADER_LEN as u64 + u64::from(declared) + TRAILER_LEN as u64;
    if (buf.len() as u64) < total64 {
        return Ok(Decoded::NeedMore);
    }
    let total = total64 as usize;
    let body = &buf[..total - TRAILER_LEN];
    let stored = u64::from_le_bytes(buf[total - TRAILER_LEN..total].try_into().expect("8 bytes"));
    let computed = fnv1a64_words(body);
    if stored != computed {
        return Err(WireError::new(
            "checksum-mismatch",
            total - TRAILER_LEN,
            format!("frame trailer mismatch: stored {stored:#018x}, computed {computed:#018x}"),
        ));
    }
    let frame = parse_payload(body, kind, memo).map_err(WireError::from_artifact)?;
    Ok(Decoded::Frame { consumed: total, frame })
}

/// The total length (header, payload and trailer) that the header at the
/// front of `buf` declares, once the whole header has arrived.  Meaningful
/// only after [`decode`] accepted that header, which bounds the declared
/// payload by `max_payload`.
pub(crate) fn declared_frame_len(buf: &[u8]) -> Option<usize> {
    let len = buf.get(MAGIC.len() + 4..HEADER_LEN)?;
    let declared = u32::from_le_bytes(len.try_into().expect("4 bytes"));
    // Checked: a 32-bit `usize` cannot hold every declared length.
    (HEADER_LEN + TRAILER_LEN).checked_add(usize::try_from(declared).ok()?)
}

/// Strict payload parse over the trailer-verified frame body (header
/// included, so cursor offsets are frame-relative); see [`decode`] for
/// `memo`.
fn parse_payload(
    body: &[u8],
    kind: u32,
    memo: Option<&mut String>,
) -> Result<Frame, ArtifactError> {
    let mut cur = Cursor::after_magic(body, MAGIC);
    let _kind = cur.u32("frame kind")?;
    let _len = cur.u32("payload length")?;
    let req_id = cur.u32("request id")?;
    let frame = match kind {
        KIND_REQUEST => {
            let model = cur.str("model name")?.to_string();
            let corpus = match memo {
                None => cur.str("corpus text")?.to_string(),
                Some(memo) => match cur.str_unless("corpus text", memo)? {
                    None => {
                        palmed_obs::counter!("wire.decode.corpus_memo_hits").inc();
                        memo.clone()
                    }
                    Some(text) => {
                        memo.clear();
                        memo.push_str(text);
                        text.to_string()
                    }
                },
            };
            Frame::Request { req_id, model, corpus }
        }
        KIND_RESPONSE => {
            let n = cur.u32("row count")? as usize;
            let mut rows = Vec::with_capacity(n.min(1 << 16));
            for i in 0..n {
                let covered = cur.take(1, "coverage flag")?[0];
                let bits =
                    u64::from_le_bytes(cur.take(8, "ipc bits")?.try_into().expect("8 bytes"));
                rows.push(match covered {
                    1 => Some(f64::from_bits(bits)),
                    0 if bits == 0 => None,
                    0 => return Err(cur.bad(format!("row {i}: uncovered row with nonzero bits"))),
                    flag => return Err(cur.bad(format!("row {i}: invalid coverage flag {flag}"))),
                });
            }
            Frame::Response { req_id, rows }
        }
        KIND_ERROR => {
            let class = cur.str("error class")?.to_string();
            if class.is_empty() {
                return Err(cur.bad("empty error class"));
            }
            let offset = cur.u32("error offset")?;
            let message = cur.str("error message")?.to_string();
            Frame::Error { req_id, class, offset: (offset != NO_OFFSET).then_some(offset), message }
        }
        KIND_ADMIN_REQUEST => {
            let what = cur.str("admin query")?.to_string();
            Frame::AdminRequest { req_id, what }
        }
        KIND_ADMIN_RESPONSE => {
            let body = cur.str("admin body")?.to_string();
            Frame::AdminResponse { req_id, body }
        }
        _ => unreachable!("kind range-checked before payload parse"),
    };
    if !cur.done() {
        return Err(cur.bad("trailing bytes after frame payload"));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_serve::codec::finish_trailer;

    fn decode_one(bytes: &[u8]) -> Frame {
        match decode_frame(bytes, 1 << 20).unwrap() {
            Decoded::Frame { consumed, frame } => {
                assert_eq!(consumed, bytes.len());
                frame
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Request {
                req_id: 7,
                model: "skl".to_string(),
                corpus: "PALMED-CORPUS v1\nb0 1 ADDSS×2\n".to_string(),
            },
            Frame::Response {
                req_id: 7,
                rows: vec![Some(1.5), None, Some(f64::from_bits(0x7ff8_0000_0000_0001))],
            },
            Frame::Error {
                req_id: 0,
                class: "checksum-mismatch".to_string(),
                offset: Some(31),
                message: "boom".to_string(),
            },
            Frame::Error {
                req_id: 3,
                class: "server-busy".to_string(),
                offset: None,
                message: "in-flight cap reached".to_string(),
            },
            Frame::AdminRequest { req_id: 1, what: "health".to_string() },
            Frame::AdminResponse { req_id: 1, body: "{}".to_string() },
        ]
    }

    #[test]
    fn every_kind_round_trips_bit_exactly() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            // Bit-exact round trip (survives NaN payloads, which derived
            // `PartialEq` on `f64` would wrongly report as unequal).
            assert_eq!(decode_one(&bytes).encode(), bytes, "round trip of {frame:?}");
            // Deterministic encoding: same frame, same bytes.
            assert_eq!(bytes, frame.encode());
        }
    }

    #[test]
    fn encoding_into_one_buffer_concatenates_the_frames() {
        let frames = sample_frames();
        for a in &frames {
            for b in &frames {
                let mut out = Vec::new();
                a.encode_into(&mut out);
                b.encode_into(&mut out);
                assert_eq!(out, [a.encode(), b.encode()].concat(), "{a:?} then {b:?}");
            }
        }
    }

    #[test]
    fn every_prefix_is_need_more_never_an_error() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_frame(&bytes[..cut], 1 << 20),
                    Ok(Decoded::NeedMore),
                    "prefix of {cut} bytes"
                );
            }
        }
    }

    #[test]
    fn coalesced_frames_decode_one_at_a_time() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for frame in &frames {
            buf.extend_from_slice(&frame.encode());
        }
        let mut decoded = Vec::new();
        while !buf.is_empty() {
            match decode_frame(&buf, 1 << 20).unwrap() {
                Decoded::Frame { consumed, frame } => {
                    decoded.push(frame);
                    buf.drain(..consumed);
                }
                Decoded::NeedMore => panic!("complete buffer must decode"),
            }
        }
        assert_eq!(decoded.len(), frames.len());
        for (got, want) in decoded.iter().zip(&frames) {
            assert_eq!(got.encode(), want.encode(), "coalesced decode of {want:?}");
        }
    }

    #[test]
    fn magic_mismatch_rejects_on_the_partial_buffer() {
        let err = decode_frame(b"PALMED-WIRE v2", 1 << 20).unwrap_err();
        assert_eq!(err.class, "missing-header");
        assert_eq!(err.offset, 13, "rejected at the first wrong byte");
    }

    #[test]
    fn oversized_length_rejects_before_the_payload_arrives() {
        let frame = Frame::AdminRequest { req_id: 1, what: "obs".to_string() };
        let bytes = frame.encode();
        // Header only — the declared length is visible, the payload is not.
        let err = decode_frame(&bytes[..HEADER_LEN], 4).unwrap_err();
        assert_eq!(err.class, "frame-too-large");
        assert_eq!(err.offset, MAGIC.len() + 4);
    }

    #[test]
    fn unknown_kind_and_corrupt_trailer_reject_with_offsets() {
        let mut bytes = Frame::AdminRequest { req_id: 1, what: "obs".to_string() }.encode();
        let good = bytes.clone();

        bytes[MAGIC.len()] = 9;
        let err = decode_frame(&bytes, 1 << 20).unwrap_err();
        assert_eq!(err.class, "unknown-kind");
        assert_eq!(err.offset, MAGIC.len());

        let mut bytes = good.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let err = decode_frame(&bytes, 1 << 20).unwrap_err();
        assert_eq!(err.class, "checksum-mismatch");
        assert_eq!(err.offset, good.len() - TRAILER_LEN);
    }

    #[test]
    fn truncated_payload_strings_reject_as_malformed_binary() {
        // A request whose inner string length runs past the payload: craft
        // by re-framing a valid payload with a lying string length.
        let mut payload = Vec::new();
        push_u32(&mut payload, 1); // req_id
        push_u32(&mut payload, 400); // model-name length, way past the end
        payload.extend_from_slice(b"skl");
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        push_u32(&mut body, KIND_REQUEST);
        push_u32(&mut body, payload.len() as u32);
        body.extend_from_slice(&payload);
        let bytes = finish_trailer(body);
        let err = decode_frame(&bytes, 1 << 20).unwrap_err();
        assert_eq!(err.class, "malformed-binary");
        assert!(err.offset >= HEADER_LEN, "offset points into the payload");
    }

    #[test]
    fn trailing_payload_bytes_reject() {
        let mut payload = Vec::new();
        push_u32(&mut payload, 1);
        push_str(&mut payload, "health");
        payload.push(0xaa); // one stray byte after the last field
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        push_u32(&mut body, KIND_ADMIN_REQUEST);
        push_u32(&mut body, payload.len() as u32);
        body.extend_from_slice(&payload);
        let err = decode_frame(&finish_trailer(body), 1 << 20).unwrap_err();
        assert_eq!(err.class, "malformed-binary");
    }

    #[test]
    fn a_near_max_declared_length_asks_for_more_instead_of_misframing() {
        // With a permissive cap the total frame length exceeds u32::MAX;
        // the decoder must ask for more bytes, never wrap and mis-frame
        // (the wrap is only reachable on 32-bit targets, but the intent is
        // pinned here either way).
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        push_u32(&mut buf, KIND_REQUEST);
        push_u32(&mut buf, u32::MAX);
        assert_eq!(decode_frame(&buf, u32::MAX), Ok(Decoded::NeedMore));
    }

    #[test]
    fn error_frames_carry_structured_class_and_offset() {
        let wire_err = WireError::new("frame-too-large", 19, "too big");
        let frame = wire_err.to_frame(5);
        match &frame {
            Frame::Error { req_id, class, offset, .. } => {
                assert_eq!(*req_id, 5);
                assert_eq!(class, "frame-too-large");
                assert_eq!(*offset, Some(19));
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        // And the error frame itself survives the wire.
        assert_eq!(decode_one(&frame.encode()), frame);
    }
}
