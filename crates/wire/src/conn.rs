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

use crate::frame::{decode_frame, Decoded, Frame, WireError};
use palmed_serve::registry::EntryHealth;
use palmed_serve::ModelRegistry;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

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
    /// Partially received bytes (at most one frame prefix after each pump).
    read_buf: Vec<u8>,
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
            self.read_buf.clear();
            self.partial_since = None;
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
                    offset: self.read_buf.len(),
                    reason: format!(
                        "frame incomplete after {} ticks ({} bytes received)",
                        now.saturating_sub(since),
                        self.read_buf.len()
                    ),
                };
                self.poison(err);
                return;
            }
        }
        let quiescent = self.read_buf.is_empty()
            && self.pending.is_empty()
            && self.write_backlog() == 0;
        if quiescent && now.saturating_sub(self.last_activity) > self.limits.idle_timeout_ticks {
            palmed_obs::counter!("wire.timeouts.idle").inc();
            self.state = ConnState::Closed;
        }
    }

    /// Reads until the stream has nothing more, decoding as frames
    /// complete.
    fn fill(&mut self, now: u64, stream: &mut dyn WireStream) {
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed its side: what arrived is all there is.
                    self.begin_drain();
                    return;
                }
                Ok(n) => {
                    self.last_activity = now;
                    self.read_buf.extend_from_slice(&chunk[..n]);
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
            match decode_frame(&self.read_buf, self.limits.max_payload) {
                Ok(Decoded::NeedMore) => {
                    if self.read_buf.is_empty() {
                        self.partial_since = None;
                    }
                    return;
                }
                Ok(Decoded::Frame { consumed, frame }) => {
                    self.read_buf.drain(..consumed);
                    self.partial_since =
                        if self.read_buf.is_empty() { None } else { Some(now) };
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
        self.write_buf.extend_from_slice(&frame.encode());
    }

    /// Emits the structured rejection and poisons the connection.
    fn poison(&mut self, err: WireError) {
        palmed_obs::counter!("wire.poisoned").inc();
        let frame = err.to_frame(0);
        self.send(frame);
        self.read_buf.clear();
        self.partial_since = None;
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
            "health" => Frame::AdminResponse { req_id, body: render_health(&self.registry.health()) },
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
