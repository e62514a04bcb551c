//! Per-connection state machine and the serving engine behind it.
//!
//! This is the robustness core of the wire plane: everything a hostile,
//! broken or merely slow peer can do to a connection is handled *here*,
//! deterministically, against any [`WireStream`] — the production UNIX
//! socket and the fuzzer's scripted fault transport drive the identical
//! code.
//!
//! # Connection fault model
//!
//! The state machine makes these guarantees, each of which the
//! `fuzz_wire` schedule fuzzer asserts after every step:
//!
//! * **Partial reads and writes resume.**  Frames may arrive one byte at
//!   a time or many coalesced into one chunk; responses may be written a
//!   few bytes per pump.  Progress is buffered and resumed — byte
//!   boundaries never change what is served.
//! * **Malformed frames poison the connection, never the process.**  The
//!   first undecodable byte turns into one structured [`Frame::Error`]
//!   (class + byte offset), the connection stops reading and drains its
//!   write buffer, and no panic escapes.
//! * **Load is shed structurally.**  More than [`Limits::max_in_flight`]
//!   queued requests answer `server-busy` error frames; a frame larger
//!   than [`Limits::max_payload`] is rejected at its length field; a
//!   write backlog past [`Limits::max_write_backlog`] pauses reading
//!   (backpressure) instead of buffering without bound.
//! * **Time is bounded.**  A partial frame older than
//!   [`Limits::frame_deadline_ticks`] is a `deadline-exceeded` error (the
//!   slow-loris defence); a fully quiescent connection past
//!   [`Limits::idle_timeout_ticks`] closes cleanly; and a peer that stops
//!   *reading* is bounded too — a write backlog that makes no byte
//!   progress for [`Limits::idle_timeout_ticks`] closes the connection in
//!   any state, so a full-backlog peer cannot hold a connection forever.
//! * **Shutdown drains.**  [`Connection::begin_drain`] stops reading but
//!   serves every already-received request and flushes every buffered
//!   byte before closing.
//! * **Responses are pinned.**  A request resolves its model once, to an
//!   immutable registry entry `Arc`; a concurrent
//!   [`ModelRegistry::refresh`](palmed_serve::ModelRegistry::refresh) or
//!   swap never changes an already-started response.
//!
//! Ticks are a logical clock (the socket server feeds milliseconds, the
//! fuzzer feeds scripted integers), so every timeout decision is
//! reproducible from a schedule.

use crate::frame::{self, Decoded, Frame, WireError};
use palmed_serve::registry::EntryHealth;
use palmed_serve::ModelRegistry;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

/// Bytes a read asks for while the next frame's length is still unknown.
const READ_CHUNK: usize = 4096;

/// Resource and timing caps for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Largest accepted frame payload, in bytes (the max-frame cap).
    pub max_payload: u32,
    /// Most requests queued awaiting service before `server-busy` shedding.
    pub max_in_flight: usize,
    /// Unflushed response bytes above which reading pauses (backpressure).
    pub max_write_backlog: usize,
    /// Ticks a quiescent connection may stay open.
    pub idle_timeout_ticks: u64,
    /// Ticks a partial frame may take to finish arriving.
    pub frame_deadline_ticks: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_payload: 1 << 20,
            max_in_flight: 16,
            max_write_backlog: 4 << 20,
            idle_timeout_ticks: 10_000,
            frame_deadline_ticks: 1_000,
        }
    }
}

/// A byte stream the connection pumps: the UNIX socket in production, a
/// scripted fault transport under test.  Both directions are explicitly
/// partial: `read` may return any number of bytes (0 = peer closed) and
/// `write` may accept fewer bytes than offered;
/// [`io::ErrorKind::WouldBlock`] means "nothing now, try next pump".
pub trait WireStream {
    /// Reads available bytes into `buf`.  `Ok(0)` is end-of-stream.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes a prefix of `buf`, returning how much was accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
}

/// Connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Reading, serving and writing normally.
    Open,
    /// No longer reading; serving queued requests and flushing.
    Draining,
    /// Protocol violation observed; flushing the error frame, then closing.
    Poisoned,
    /// Finished.  The connection does nothing further.
    Closed,
}

/// One wire connection: buffers, queue, state and its logical clock.
#[derive(Debug)]
pub struct Connection {
    state: ConnState,
    limits: Limits,
    /// Received bytes in `read_buf[..read_len]` (at most one frame prefix
    /// after each pump); the rest is room the next read fills.  The room is
    /// kept, not re-zeroed, so a frame trickling in costs one `resize`.
    read_buf: Vec<u8>,
    /// How much of `read_buf` holds received bytes.
    read_len: usize,
    /// The corpus text of the last request decoded on this connection.  A
    /// resent corpus equal to it byte for byte skips the UTF-8 check (see
    /// [`frame::decode`]); cleared on poison and drain.
    corpus_memo: String,
    /// Encoded but not yet fully written response bytes.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been accepted by the stream.
    write_pos: usize,
    /// Decoded requests awaiting service, FIFO.
    pending: VecDeque<Frame>,
    /// Tick of the last byte-level progress in either direction.
    last_activity: u64,
    /// Tick the current partial frame started arriving, if one is pending.
    partial_since: Option<u64>,
}

impl Connection {
    /// A fresh open connection accepted at tick `now` — its idle clock
    /// starts there, not at 0, so a server whose clock is long past the
    /// idle window does not judge new connections idle on their first pump.
    pub fn new(limits: Limits, now: u64) -> Connection {
        palmed_obs::counter!("wire.connections").inc();
        Connection {
            state: ConnState::Open,
            limits,
            read_buf: Vec::new(),
            read_len: 0,
            corpus_memo: String::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            last_activity: now,
            partial_since: None,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// True once the connection has fully finished.
    pub fn is_closed(&self) -> bool {
        self.state == ConnState::Closed
    }

    /// Requests decoded but not yet served.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Encoded response bytes not yet accepted by the stream.
    pub fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Begins a graceful shutdown: stop reading, serve what was already
    /// received, flush, close.  Subsequent pumps complete the drain.
    pub fn begin_drain(&mut self) {
        if matches!(self.state, ConnState::Open) {
            self.state = ConnState::Draining;
            // A half-received frame can never complete; drop it.
            self.read_len = 0;
            self.partial_since = None;
            self.corpus_memo = String::new();
        }
    }

    /// The I/O front half of a [`SharedBatcher`](crate::SharedBatcher)
    /// round at logical time `now`: flush pending writes, check timeouts,
    /// read and decode what the stream has.  Decoded requests stay queued
    /// for [`Connection::take_requests`]; the in-flight cap sheds here, at
    /// decode time, so a shed error precedes the replies of the requests
    /// queued ahead of it.  Safe to call in any state (a closed connection
    /// ignores it) and after any stream error — failures shrink the state
    /// machine toward [`ConnState::Closed`], never panic.
    pub fn pump_gather(&mut self, now: u64, stream: &mut dyn WireStream) {
        if self.is_closed() {
            return;
        }
        self.flush(now, stream);
        self.check_timeouts(now);
        if self.state == ConnState::Open && self.write_backlog() <= self.limits.max_write_backlog {
            self.fill(now, stream);
        }
    }

    /// Hands every decoded-but-unserved request to a shared serve core, in
    /// arrival order.  A poisoned or closed connection answers nothing
    /// further: its queue is cleared and nothing is returned, so a poison
    /// pill never occupies another round's batch slots.
    pub fn take_requests(&mut self) -> Vec<Frame> {
        if matches!(self.state, ConnState::Poisoned | ConnState::Closed) {
            self.pending.clear();
            return Vec::new();
        }
        self.pending.drain(..).collect()
    }

    /// Queues one reply produced by a shared serve core.  Callers must
    /// push exactly one reply per frame taken with
    /// [`Connection::take_requests`], in the same order — that is what
    /// keeps replies in the connection's wire order.
    pub fn push_reply(&mut self, frame: Frame) {
        if self.is_closed() {
            return;
        }
        self.send(frame);
    }

    /// The flush back half of a shared-batcher round: write what the round
    /// produced and complete a drain once nothing is left.
    pub fn pump_flush(&mut self, now: u64, stream: &mut dyn WireStream) {
        if self.is_closed() {
            return;
        }
        self.flush(now, stream);
        self.finish_if_drained();
    }

    /// Applies write-stall, deadline and idle policies at tick `now`.
    fn check_timeouts(&mut self, now: u64) {
        if self.state == ConnState::Closed {
            return;
        }
        // A backlog making no byte progress for the idle window means the
        // peer stopped reading; its bytes can never be delivered.  This
        // applies while draining or poisoned too — a stalled reader must
        // not hold the connection (and its buffers) open forever.
        if self.write_backlog() > 0
            && now.saturating_sub(self.last_activity) > self.limits.idle_timeout_ticks
        {
            palmed_obs::counter!("wire.timeouts.write_stall").inc();
            self.state = ConnState::Closed;
            return;
        }
        if self.state != ConnState::Open {
            return;
        }
        if let Some(since) = self.partial_since {
            if now.saturating_sub(since) > self.limits.frame_deadline_ticks {
                palmed_obs::counter!("wire.timeouts.deadline").inc();
                let err = WireError {
                    class: "deadline-exceeded".to_string(),
                    offset: self.read_len,
                    reason: format!(
                        "frame incomplete after {} ticks ({} bytes received)",
                        now.saturating_sub(since),
                        self.read_len
                    ),
                };
                self.poison(err);
                return;
            }
        }
        let quiescent = self.read_len == 0 && self.pending.is_empty() && self.write_backlog() == 0;
        if quiescent && now.saturating_sub(self.last_activity) > self.limits.idle_timeout_ticks {
            palmed_obs::counter!("wire.timeouts.idle").inc();
            self.state = ConnState::Closed;
        }
    }

    /// Reads until the stream has nothing more, decoding as frames
    /// complete.  Until a frame's header has been accepted, a read asks for
    /// [`READ_CHUNK`] bytes; after, for at least the rest of the frame the
    /// header declares, so a large request arrives in one read.  The
    /// decoder has checked that length against [`Limits::max_payload`]
    /// before any room is made for it.
    fn fill(&mut self, now: u64, stream: &mut dyn WireStream) {
        loop {
            let want = match frame::declared_frame_len(&self.read_buf[..self.read_len]) {
                Some(total) if total > self.read_len => total - self.read_len,
                _ => READ_CHUNK,
            };
            let end = self.read_buf.len().max(self.read_len + want);
            self.read_buf.resize(end, 0);
            match stream.read(&mut self.read_buf[self.read_len..]) {
                Ok(0) => {
                    // Peer closed its side: what arrived is all there is.
                    self.begin_drain();
                    return;
                }
                Ok(n) => {
                    self.last_activity = now;
                    self.read_len += n;
                    if self.partial_since.is_none() {
                        self.partial_since = Some(now);
                    }
                    self.drain_frames(now);
                    if self.state != ConnState::Open
                        || self.write_backlog() > self.limits.max_write_backlog
                    {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // The transport is gone; nothing to flush it through.
                    self.state = ConnState::Closed;
                    return;
                }
            }
        }
    }

    /// Decodes every complete frame at the front of the read buffer.
    fn drain_frames(&mut self, now: u64) {
        loop {
            let received = &self.read_buf[..self.read_len];
            match frame::decode(received, self.limits.max_payload, Some(&mut self.corpus_memo)) {
                Ok(Decoded::NeedMore) => {
                    if self.read_len == 0 {
                        self.partial_since = None;
                    }
                    return;
                }
                Ok(Decoded::Frame { consumed, frame }) => {
                    self.read_buf.copy_within(consumed..self.read_len, 0);
                    self.read_len -= consumed;
                    self.partial_since = if self.read_len == 0 { None } else { Some(now) };
                    self.accept(frame);
                    if self.state != ConnState::Open {
                        return;
                    }
                }
                Err(err) => {
                    self.poison(err);
                    return;
                }
            }
        }
    }

    /// Routes one well-formed inbound frame.
    fn accept(&mut self, frame: Frame) {
        match &frame {
            Frame::Request { req_id, .. } | Frame::AdminRequest { req_id, .. } => {
                if self.pending.len() >= self.limits.max_in_flight {
                    palmed_obs::counter!("wire.shed.busy").inc();
                    self.send(Frame::Error {
                        req_id: *req_id,
                        class: "server-busy".to_string(),
                        offset: None,
                        message: format!(
                            "in-flight cap of {} requests reached; retry later",
                            self.limits.max_in_flight
                        ),
                    });
                } else {
                    palmed_obs::counter!("wire.requests").inc();
                    self.pending.push_back(frame);
                }
            }
            // Only clients receive these kinds; a peer sending one is not
            // speaking the client half of the protocol.
            Frame::Response { req_id, .. }
            | Frame::Error { req_id, .. }
            | Frame::AdminResponse { req_id, .. } => {
                let req_id = *req_id;
                self.poison(WireError {
                    class: "unexpected-kind".to_string(),
                    offset: crate::frame::MAGIC.len(),
                    reason: format!(
                        "frame kind {} is server-to-client only (req_id {req_id})",
                        frame.kind()
                    ),
                });
            }
        }
    }

    /// Queues one outbound frame and accounts for it.
    fn send(&mut self, frame: Frame) {
        match &frame {
            Frame::Error { .. } => palmed_obs::counter!("wire.errors").inc(),
            _ => palmed_obs::counter!("wire.responses").inc(),
        }
        frame.encode_into(&mut self.write_buf);
    }

    /// Emits the structured rejection and poisons the connection.
    fn poison(&mut self, err: WireError) {
        palmed_obs::counter!("wire.poisoned").inc();
        let frame = err.to_frame(0);
        self.send(frame);
        self.read_len = 0;
        self.partial_since = None;
        self.corpus_memo = String::new();
        self.pending.clear();
        self.state = ConnState::Poisoned;
    }

    /// Writes as much buffered output as the stream accepts.
    fn flush(&mut self, now: u64, stream: &mut dyn WireStream) {
        while self.write_pos < self.write_buf.len() {
            match stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state = ConnState::Closed;
                    return;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }

    /// Closes once a draining or poisoned connection has nothing left.
    fn finish_if_drained(&mut self) {
        if matches!(self.state, ConnState::Draining | ConnState::Poisoned)
            && self.pending.is_empty()
            && self.write_backlog() == 0
        {
            self.state = ConnState::Closed;
        }
    }
}

/// The registry a server answers from, plus the admin queries over it.
/// Prediction requests are served by the
/// [`SharedBatcher`](crate::SharedBatcher), which pins one registry entry
/// `Arc` per model per round, so registry swaps and refreshes concurrent
/// with a round never mix generations within one response.
#[derive(Debug, Clone)]
pub struct Engine {
    registry: Arc<ModelRegistry>,
}

impl Engine {
    /// An engine over `registry`.
    pub fn new(registry: Arc<ModelRegistry>) -> Engine {
        Engine { registry }
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Serves one admin query: `"health"` renders
    /// [`ModelRegistry::health`] as JSON, `"obs"` renders the
    /// [`palmed_obs::snapshot`].
    pub fn admin(&self, req_id: u32, what: &str) -> Frame {
        match what {
            "health" => {
                Frame::AdminResponse { req_id, body: render_health(&self.registry.health()) }
            }
            "obs" => Frame::AdminResponse { req_id, body: palmed_obs::snapshot().render_json() },
            other => Frame::Error {
                req_id,
                class: "unknown-admin".to_string(),
                offset: None,
                message: format!("unknown admin query `{other}` (expected `health` or `obs`)"),
            },
        }
    }
}

/// Renders registry health as a JSON array (fingerprints in the sidecar's
/// 16-digit hex form, so operators can diff them against `PALMED-FPRINT`
/// files directly).
fn render_health(entries: &[EntryHealth]) -> String {
    let mut out = String::from("[");
    for (i, h) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"kind\":{},\"generation\":{},\"fingerprint\":\"{:016x}\",\
             \"watched\":{},\"status\":{},\"consecutive_failures\":{},\
             \"backoff_remaining\":{},\"quarantined\":{},\"last_error\":{}}}",
            json_str(&h.name),
            json_str(&h.kind.to_string()),
            h.generation,
            h.fingerprint,
            h.watched,
            json_str(&format!("{:?}", h.status)),
            h.consecutive_failures,
            h.backoff_remaining,
            h.quarantined,
            h.last_error.as_deref().map_or_else(|| "null".to_string(), json_str),
        ));
    }
    out.push(']');
    out
}

/// Minimal JSON string escape (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{KIND_REQUEST, MAGIC, TRAILER_LEN};
    use crate::testutil::{batcher, decode_all, expected_rows, pump, request, Loopback, CORPUS};
    use palmed_serve::codec::{finish_trailer, push_u32};

    /// `request(req_id, CORPUS)` with corpus byte `at` set to `0xFF`, which
    /// is never valid UTF-8, and the trailer recomputed.
    fn corrupt_corpus_request(req_id: u32, at: usize) -> Vec<u8> {
        let mut bytes = request(req_id, CORPUS).encode();
        bytes.truncate(bytes.len() - TRAILER_LEN);
        let corpus_start = bytes.len() - CORPUS.len();
        bytes[corpus_start + at] = 0xFF;
        finish_trailer(bytes)
    }

    /// Serves `inboxes` one pump each on a fresh connection; returns the
    /// connection and every frame it wrote.
    fn serve(inboxes: &[Vec<u8>]) -> (Connection, Vec<Frame>) {
        let mut batcher = batcher();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        for (tick, inbox) in inboxes.iter().enumerate() {
            stream.inbox.extend_from_slice(inbox);
            pump(&mut batcher, tick as u64, &mut conn, &mut stream);
        }
        (conn, decode_all(&stream.outbox))
    }

    #[test]
    fn the_same_request_twice_gives_two_identical_replies() {
        let bytes = request(1, CORPUS).encode();
        let (conn, frames) = serve(&[bytes.clone(), bytes]);
        assert_eq!(conn.corpus_memo, CORPUS, "the resent corpus stays the memo");
        let expected = Frame::Response { req_id: 1, rows: expected_rows(CORPUS) }.encode();
        assert_eq!(frames.len(), 2);
        for frame in &frames {
            assert_eq!(frame.encode(), expected, "bit-identical to the in-process rows");
        }
    }

    #[test]
    fn a_one_byte_change_from_the_memo_poisons_like_a_fresh_connection() {
        let at = CORPUS.len() / 2;
        let bad = corrupt_corpus_request(2, at);
        let (_, fresh) = serve(std::slice::from_ref(&bad));
        let (conn, memoised) = serve(&[request(1, CORPUS).encode(), bad.clone()]);

        assert_eq!(memoised.len(), 2, "one reply, then the rejection");
        assert!(matches!(memoised[0], Frame::Response { req_id: 1, .. }));
        assert_eq!(fresh.len(), 1);
        assert_eq!(
            memoised[1], fresh[0],
            "same class, offset and message as on a fresh connection"
        );
        let corpus_offset = (bad.len() - TRAILER_LEN - CORPUS.len()) as u32;
        match &fresh[0] {
            Frame::Error { class, offset, .. } => {
                assert_eq!(class, "malformed-binary");
                assert_eq!(*offset, Some(corpus_offset), "the corpus string's first byte");
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_ne!(conn.state(), ConnState::Open, "the connection is poisoned");
    }

    #[test]
    fn poison_and_drain_clear_the_memo() {
        let (conn, _) = serve(&[request(1, CORPUS).encode(), b"not a frame".to_vec()]);
        assert_ne!(conn.state(), ConnState::Open);
        assert!(conn.corpus_memo.is_empty(), "poison clears the memo");

        let (mut conn, _) = serve(&[request(1, CORPUS).encode()]);
        assert_eq!(conn.corpus_memo, CORPUS);
        conn.begin_drain();
        assert!(conn.corpus_memo.is_empty(), "drain clears the memo");
    }

    #[test]
    fn a_large_frame_arrives_in_one_read_once_its_header_is_accepted() {
        let blocks: String = (0..2000).map(|i| format!("b{i} 1 ADDSS×3 DIVPS×1\n")).collect();
        let corpus = format!("PALMED-CORPUS v1\n{blocks}");
        let bytes = request(1, &corpus).encode();
        assert!(bytes.len() > 10 * READ_CHUNK);
        let mut batcher = batcher();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback { inbox: bytes.clone(), ..Loopback::default() };

        pump(&mut batcher, 0, &mut conn, &mut stream);
        // A chunk that takes in the header, the rest of the frame it
        // declares, then a read that finds the stream empty.
        assert_eq!(stream.reads, 3);
        // The room stays: the same request again is one read, plus the empty one.
        stream.reads = 0;
        stream.inbox = bytes;
        pump(&mut batcher, 1, &mut conn, &mut stream);
        assert_eq!(stream.reads, 2);

        let expected = Frame::Response { req_id: 1, rows: expected_rows(&corpus) }.encode();
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 2);
        for frame in &frames {
            assert_eq!(frame.encode(), expected);
        }
    }

    #[test]
    fn an_oversized_declared_length_rejects_before_room_is_made() {
        let limits = Limits::default();
        let mut header = MAGIC.to_vec();
        push_u32(&mut header, KIND_REQUEST);
        push_u32(&mut header, limits.max_payload + 1);
        let mut conn = Connection::new(limits, 0);
        let mut stream = Loopback { inbox: header, ..Loopback::default() };
        pump(&mut batcher(), 0, &mut conn, &mut stream);
        match &decode_all(&stream.outbox)[..] {
            [Frame::Error { class, offset, .. }] => {
                assert_eq!(class, "frame-too-large");
                assert_eq!(*offset, Some(MAGIC.len() as u32 + 4), "rejected at the length field");
            }
            other => panic!("expected one rejection, got {other:?}"),
        }
        assert!(conn.read_buf.len() <= READ_CHUNK, "no room made for the declared payload");
    }
}
