//! `palmed-wire`: the fault-hardened network front-end of the PALMED
//! serving plane — the `PALMED-WIRE v1` frame protocol, a per-connection
//! state machine with deadlines and backpressure, and a single-threaded
//! socket server over both.
//!
//! The in-process serving plane ([`palmed_serve`]) answers a batch of
//! basic blocks in microseconds; this crate puts that behind a socket
//! without giving up the artifact plane's robustness stance.  The design
//! is robustness-first: the frame codec, the connection lifecycle and the
//! fault model landed *together with* the fuzzing harness that drives
//! them (`fuzz_wire` in `palmed-fuzz`), before any performance work.  The
//! perf layer — cross-connection batching, the `epoll(7)` readiness loop
//! and the TCP listener — landed after, under the same fuzzing discipline.
//!
//! # Layers
//!
//! * [`frame`] — the byte grammar.  Length-prefixed binary frames with
//!   the same magic-line + little-endian sections + strided-FNV trailer
//!   discipline as the `v2b`/`DISJ` artifact codecs, built from the very
//!   same [`palmed_serve::codec`] primitives.  Requests carry
//!   `PALMED-CORPUS v1` workloads in; responses carry bit-exact IPC rows
//!   out; error frames carry a kebab-case class plus a byte offset; admin
//!   frames expose registry health and the metrics snapshot.
//! * [`conn`] — the state machine.  Partial-read/partial-write
//!   resumption, max-frame and max-in-flight caps with structured
//!   `server-busy` shedding, per-request receive deadlines, idle
//!   timeouts, write backpressure, poison-on-malformed-frame and
//!   drain-on-shutdown, all over an abstract [`conn::WireStream`] and a
//!   logical tick clock so every decision replays deterministically.  A
//!   frame whose header has been accepted is read in one call sized to
//!   the rest of the frame, and a connection keeps the corpus text of its
//!   last request, so a resent corpus is not run through the UTF-8 check
//!   again (bytes equal to a valid `str` are valid UTF-8; any other corpus
//!   is validated in full).
//! * [`batcher`] — the serve core.  One [`batcher::SharedBatcher`] round
//!   per tick gathers the decoded requests from every ready connection,
//!   coalesces them into prepared batches keyed on a shared kernel set,
//!   predicts each distinct kernel once, and scatters the rows back per
//!   connection in wire order (see *Batching model* below).
//! * [`sock`] (Linux) — the transport.  A `cfg`-gated extern-"C" shim
//!   (no new crates; the workspace builds offline) binding
//!   `socket`/`bind`/`listen`/`accept`/`recv`/`send`, a blocking
//!   single-threaded [`sock::WireServer`] (UNIX via [`sock::WireServer::bind`]
//!   or TCP via [`sock::WireServer::bind_tcp`]) and a blocking test
//!   [`sock::WireClient`].
//! * [`epoll`] (Linux) — the readiness shim behind the server loop: a
//!   kernel-side interest list, so each wakeup pumps only the connections
//!   that are actually ready.
//!
//! # Batching model
//!
//! A server tick is a gather/serve/scatter *round* over the ready
//! connections:
//!
//! 1. **Gather** — each connection pumps its socket (flush, timeouts,
//!    fill) and surrenders its decoded, accepted requests.  Admission
//!    control (`server-busy` shedding, poisoning, deadlines) happens at
//!    decode time in the connection.
//! 2. **Snapshot pinning** — each requested model name is resolved against
//!    the registry *once per round*; every request in the round for that
//!    name is served by that pinned entry ([`std::sync::Arc`]-held), so a
//!    registry swap or refresh mid-batch cannot split a round across model
//!    generations.  The swap takes effect at the next round.
//! 3. **Coalesce + serve** — requests pinned to the same entry merge into
//!    one prepared batch ([`palmed_serve::BatchMerge`]): distinct kernels
//!    across *all* those requests are interned once and predicted once via
//!    [`palmed_serve::BatchPredictor::predict_prepared`], on the serving
//!    thread.
//! 4. **Scatter** — each request's rows are sliced back out of the batch
//!    result and every reply is pushed onto its own connection's response
//!    queue in that connection's wire order (request order within a
//!    connection is never reordered; fairness across connections is
//!    arrival order within the round).
//!
//! The rows are **bit-identical** to predicting each request on its own
//! in process, because the batch predictor evaluates each distinct kernel
//! independently — merging corpora changes how often a kernel is
//! predicted (once), never the arithmetic of its prediction.  The
//! `fuzz_wire` schedules assert exactly this against an in-process
//! [`BatchPredictor`](palmed_serve::BatchPredictor), plus isolation: a
//! poisoned or shed connection never corrupts or stalls another
//! connection's slots in the round.
//!
//! # Threat model
//!
//! Frames are **untrusted input** — the artifact plane's stance applied
//! to the wire.  Decoding is a strict validate pass: every rejection is a
//! structured [`frame::WireError`] with a class and a byte offset, never
//! a panic, and rejection is eager (bad magic bytes and oversized length
//! declarations fail on the partial buffer, so a peer cannot make the
//! server buffer unbounded garbage).  The FNV trailer is *integrity*, not
//! provenance: a frame that decodes is well-formed, not authenticated —
//! exactly the decodability-not-provenance stance of the on-disk codecs.
//! Authenticity, where needed, stays with the signed fingerprint sidecars
//! on the artifact side; transport authentication is out of scope for
//! both listeners.  A UNIX socket is gated by filesystem permissions; a
//! TCP port is gated only by reachability, so the TCP listener widens
//! *exposure* without widening the per-connection fault model — the same
//! [`conn::Limits`], shedding, poisoning and deadlines apply, and
//! `TCP_NODELAY` is the only transport-level difference.  Bind loopback
//! or firewall accordingly.
//!
//! The readiness loop decides *when* connections are pumped (on readiness,
//! plus a periodic timeout sweep), never *what* happens when they are: the
//! state machine runs on the same logical tick clock the fuzzer scripts.
//!
//! A malformed frame poisons its connection: one error frame goes out,
//! reading stops, buffered output drains, the socket closes.  The process
//! — and every other connection — is unaffected.  Resource exhaustion is
//! bounded per connection by [`conn::Limits`]: payload size, in-flight
//! requests, write backlog, receive deadlines and idle timeouts.
//!
//! # Proven, not claimed
//!
//! The `fuzz_wire` schedule fuzzer (in `palmed-fuzz`) drives this exact
//! code — connections served in [`SharedBatcher`] rounds — through
//! scripted schedules of one or several connections: split/coalesced
//! frames, short reads and writes, stalls, mid-frame disconnects, floods
//! past the in-flight cap, registry swaps mid-connection, shutdown
//! mid-burst — asserting after every step that no panic escapes, every
//! rejection is structured, and every accepted request serves
//! bit-identically to the in-process
//! [`BatchPredictor`](palmed_serve::BatchPredictor).

pub mod batcher;
pub mod conn;
pub mod epoll;
pub mod frame;
pub mod sock;
#[cfg(test)]
mod testutil;

pub use batcher::{RoundStats, SharedBatcher};
pub use conn::{ConnState, Connection, Engine, Limits, WireStream};
pub use frame::{decode_frame, Decoded, Frame, WireError, MAGIC, NO_OFFSET};
#[cfg(target_os = "linux")]
pub use sock::{FrontEnd, WireClient, WireServer};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        artifact, batcher, decode_all, expected_rows, pump, request, Loopback, CORPUS,
    };
    use palmed_serve::ModelRegistry;
    use std::io;
    use std::sync::Arc;

    #[test]
    fn a_request_serves_bit_identically_to_the_in_process_predictor() {
        let mut batcher = batcher();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback { inbox: request(42, CORPUS).encode(), ..Loopback::default() };

        pump(&mut batcher, 0, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Response { req_id, rows } => {
                assert_eq!(*req_id, 42);
                let expected = expected_rows(CORPUS);
                assert_eq!(rows.len(), expected.len());
                for (got, want) in rows.iter().zip(&expected) {
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "wire rows must be bit-identical to in-process predictions"
                    );
                }
            }
            other => panic!("expected a response, got {other:?}"),
        }
        assert_eq!(conn.state(), ConnState::Open);
    }

    #[test]
    fn split_and_coalesced_frames_serve_the_same() {
        let mut batcher = batcher();
        let bytes = request(7, CORPUS).encode();

        // One byte per pump: the ultimate split-frame schedule.
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        for (tick, byte) in bytes.iter().enumerate() {
            stream.inbox.push(*byte);
            pump(&mut batcher, tick as u64, &mut conn, &mut stream);
        }
        let split_out = stream.outbox.clone();

        // Everything at once, twice over (two coalesced requests).
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        stream.inbox.extend_from_slice(&bytes);
        stream.inbox.extend_from_slice(&bytes);
        pump(&mut batcher, 0, &mut conn, &mut stream);
        let coalesced = decode_all(&stream.outbox);

        assert_eq!(decode_all(&split_out).len(), 1);
        assert_eq!(coalesced.len(), 2);
        assert_eq!(coalesced[0], decode_all(&split_out)[0]);
        assert_eq!(coalesced[0], coalesced[1]);
    }

    #[test]
    fn unknown_models_and_bad_corpora_answer_structured_errors() {
        let mut batcher = batcher();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        stream.inbox.extend_from_slice(
            &Frame::Request { req_id: 1, model: "zen".to_string(), corpus: CORPUS.to_string() }
                .encode(),
        );
        stream.inbox.extend_from_slice(&request(2, "PALMED-CORPUS v1\nb0 1 NOPE×1\n").encode());
        pump(&mut batcher, 0, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 2);
        match &frames[0] {
            Frame::Error { req_id, class, .. } => {
                assert_eq!((*req_id, class.as_str()), (1, "unknown-model"));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        match &frames[1] {
            Frame::Error { req_id, class, .. } => {
                assert_eq!((*req_id, class.as_str()), (2, "malformed-text"));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // Application-level errors do not poison the connection.
        assert_eq!(conn.state(), ConnState::Open);
    }

    #[test]
    fn an_overflowing_block_total_is_a_malformed_text_error_and_the_connection_serves_on() {
        let mut batcher = batcher();
        let mut conn = Connection::new(Limits::default(), 0);
        let overflow = "PALMED-CORPUS v1\nb 1 ADDSS×4294967295 BSR×4294967295\n";
        let mut stream = Loopback { inbox: request(1, overflow).encode(), ..Loopback::default() };
        pump(&mut batcher, 0, &mut conn, &mut stream);
        stream.inbox.extend_from_slice(&request(2, CORPUS).encode());
        pump(&mut batcher, 1, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 2);
        match &frames[0] {
            Frame::Error { req_id, class, .. } => {
                assert_eq!((*req_id, class.as_str()), (1, "malformed-text"));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(matches!(&frames[1], Frame::Response { req_id: 2, .. }), "{:?}", frames[1]);
        assert_eq!(conn.state(), ConnState::Open);
    }

    #[test]
    fn a_malformed_frame_poisons_the_connection_with_an_offset() {
        let mut batcher = batcher();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        let mut bytes = Frame::AdminRequest { req_id: 1, what: "health".to_string() }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // corrupt the trailer
        stream.inbox = bytes.clone();
        // Another (valid) frame behind the poison pill must NOT be served.
        stream.inbox.extend_from_slice(
            &Frame::AdminRequest { req_id: 2, what: "health".to_string() }.encode(),
        );

        pump(&mut batcher, 0, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1, "exactly the rejection, nothing after the poison");
        match &frames[0] {
            Frame::Error { req_id, class, offset, .. } => {
                assert_eq!(*req_id, 0, "undecodable frames are unattributable");
                assert_eq!(class, "checksum-mismatch");
                assert_eq!(*offset, Some((bytes.len() - frame::TRAILER_LEN) as u32));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(conn.is_closed(), "poisoned connection drains its error and closes");
    }

    #[test]
    fn flooding_past_the_in_flight_cap_sheds_with_server_busy() {
        let mut batcher = batcher();
        let limits = Limits { max_in_flight: 3, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let mut stream = Loopback::default();
        for req_id in 0..8u32 {
            stream.inbox.extend_from_slice(
                &Frame::AdminRequest { req_id, what: "health".to_string() }.encode(),
            );
        }
        pump(&mut batcher, 0, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 8, "every request is answered, one way or the other");
        let shed: Vec<u32> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Error { req_id, class, .. } if class == "server-busy" => Some(*req_id),
                _ => None,
            })
            .collect();
        let served = frames.iter().filter(|f| matches!(f, Frame::AdminResponse { .. })).count();
        assert_eq!(shed, vec![3, 4, 5, 6, 7], "exactly the over-cap requests shed");
        assert_eq!(served, 3);
        assert_eq!(conn.state(), ConnState::Open, "shedding is not a failure");
    }

    #[test]
    fn oversized_frames_reject_at_the_length_field() {
        let mut batcher = batcher();
        let limits = Limits { max_payload: 64, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let inbox = request(9, &"x".repeat(500)).encode();
        let mut stream = Loopback { inbox, ..Loopback::default() };
        pump(&mut batcher, 0, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Error { class, offset, .. } => {
                assert_eq!(class, "frame-too-large");
                assert_eq!(*offset, Some(MAGIC.len() as u32 + 4));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(conn.is_closed());
    }

    #[test]
    fn partial_frames_hit_the_receive_deadline() {
        let mut batcher = batcher();
        let limits = Limits { frame_deadline_ticks: 10, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let mut stream = Loopback::default();
        let bytes = Frame::AdminRequest { req_id: 1, what: "obs".to_string() }.encode();
        stream.inbox = bytes[..5].to_vec(); // slow loris: a few bytes, then silence
        pump(&mut batcher, 0, &mut conn, &mut stream);
        assert_eq!(conn.state(), ConnState::Open);
        pump(&mut batcher, 5, &mut conn, &mut stream);
        assert_eq!(conn.state(), ConnState::Open, "deadline not yet passed");
        pump(&mut batcher, 11, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Error { class, .. } => assert_eq!(class, "deadline-exceeded"),
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(conn.is_closed());
    }

    #[test]
    fn idle_connections_close_cleanly() {
        let mut batcher = batcher();
        let limits = Limits { idle_timeout_ticks: 100, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let mut stream = Loopback::default();
        pump(&mut batcher, 0, &mut conn, &mut stream);
        pump(&mut batcher, 100, &mut conn, &mut stream);
        assert_eq!(conn.state(), ConnState::Open);
        pump(&mut batcher, 101, &mut conn, &mut stream);
        assert!(conn.is_closed());
        assert!(stream.outbox.is_empty(), "an idle close sends nothing");
    }

    #[test]
    fn connections_accepted_late_are_not_born_idle() {
        // Regression: the idle clock must start at the accept tick — a
        // server up longer than the idle window accepts at a large tick,
        // and its first pump must not judge the new connection idle.
        let mut batcher = batcher();
        let limits = Limits { idle_timeout_ticks: 100, ..Limits::default() };
        let mut conn = Connection::new(limits, 50_000);
        let inbox = Frame::AdminRequest { req_id: 1, what: "health".to_string() }.encode();
        let mut stream = Loopback { inbox, ..Loopback::default() };
        pump(&mut batcher, 50_001, &mut conn, &mut stream);
        assert_eq!(conn.state(), ConnState::Open, "a fresh connection is not idle");
        assert_eq!(decode_all(&stream.outbox).len(), 1, "its first request is served");
    }

    /// A peer that sends but never reads: every write is `WouldBlock`.
    struct DeafStream {
        inbox: Vec<u8>,
    }

    impl WireStream for DeafStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.inbox.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.inbox.len());
            buf[..n].copy_from_slice(&self.inbox[..n]);
            self.inbox.drain(..n);
            Ok(n)
        }

        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn a_peer_that_never_reads_its_responses_is_closed() {
        // A full write backlog with no progress must not hold the
        // connection open forever — the stall is bounded by the idle
        // window, measured from the last byte-level progress.
        let mut batcher = batcher();
        let limits = Limits { idle_timeout_ticks: 100, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let inbox = Frame::AdminRequest { req_id: 1, what: "health".to_string() }.encode();
        let mut stream = DeafStream { inbox };
        pump(&mut batcher, 0, &mut conn, &mut stream);
        assert!(conn.write_backlog() > 0, "the response is stuck in the backlog");
        pump(&mut batcher, 100, &mut conn, &mut stream);
        assert_eq!(conn.state(), ConnState::Open, "stall window not yet passed");
        pump(&mut batcher, 101, &mut conn, &mut stream);
        assert!(conn.is_closed(), "a stalled reader must not hold the connection");
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let mut batcher = batcher();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        for req_id in 0..3u32 {
            stream.inbox.extend_from_slice(&request(req_id, CORPUS).encode());
        }
        // Gather without serving, then drain: the requests decoded before
        // the drain began are still served before the close.
        conn.pump_gather(0, &mut stream);
        conn.begin_drain();
        pump(&mut batcher, 1, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 3, "every received request is answered before closing");
        for (i, frame) in frames.iter().enumerate() {
            assert!(
                matches!(frame, Frame::Response { req_id, .. } if *req_id == i as u32),
                "response {i} out of order or missing: {frame:?}"
            );
        }
        assert!(conn.is_closed());
    }

    #[test]
    fn admin_health_reports_fingerprints() {
        let mut batcher = batcher();
        let fp = batcher.engine().registry().get("skl").unwrap().fingerprint();
        let mut conn = Connection::new(Limits::default(), 0);
        let inbox = Frame::AdminRequest { req_id: 5, what: "health".to_string() }.encode();
        let mut stream = Loopback { inbox, ..Loopback::default() };
        pump(&mut batcher, 0, &mut conn, &mut stream);
        let frames = decode_all(&stream.outbox);
        match &frames[0] {
            Frame::AdminResponse { req_id, body } => {
                assert_eq!(*req_id, 5);
                assert!(body.contains("\"name\":\"skl\""), "health body: {body}");
                assert!(
                    body.contains(&format!("\"fingerprint\":\"{fp:016x}\"")),
                    "health body must carry the entry fingerprint: {body}"
                );
            }
            other => panic!("expected an admin response, got {other:?}"),
        }
    }

    #[test]
    fn a_refresh_mid_connection_never_changes_a_started_response() {
        // Swap the model between two requests on one connection: each
        // response must reflect the model installed when its request was
        // served, and the first response must not be rewritten.
        let registry = Arc::new(ModelRegistry::new());
        registry.register(artifact("skl", 0.5));
        let mut batcher = SharedBatcher::new(Engine::new(Arc::clone(&registry)));
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback { inbox: request(1, CORPUS).encode(), ..Loopback::default() };
        pump(&mut batcher, 0, &mut conn, &mut stream);
        let first = stream.outbox.clone();

        registry.register(artifact("skl", 0.9)); // hot swap
        stream.inbox = request(2, CORPUS).encode();
        pump(&mut batcher, 1, &mut conn, &mut stream);

        assert_eq!(&stream.outbox[..first.len()], &first[..], "response 1 is immutable");
        let frames = decode_all(&stream.outbox);
        let rows = |f: &Frame| match f {
            Frame::Response { rows, .. } => rows.clone(),
            other => panic!("expected a response, got {other:?}"),
        };
        assert_ne!(rows(&frames[0]), rows(&frames[1]), "the swap changed later responses only");
    }
}
