//! The wire front-end under load and shutdown: flooding one connection
//! past its in-flight cap must shed exactly the over-cap requests with
//! structured `server-busy` errors — counted exactly by the obs plane —
//! and a graceful shutdown must drain every already-received request
//! before the connection closes.
//!
//! These tests arm the global obs flag, so they live in their own
//! integration-test binary (each test file is a separate process); the
//! tests within it assert *deltas* of distinct counters so parallel test
//! threads cannot perturb each other.  The two tests that shed (the
//! in-memory flood and the TCP flood) serialize on [`SHED_LOCK`] so each
//! one's `wire.shed.busy` delta stays exact.

use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, InstructionSet};
use palmed_serve::{BatchPredictor, Corpus, ModelArtifact, ModelRegistry};
use palmed_wire::{
    decode_frame, ConnState, Connection, Decoded, Engine, Frame, Limits, SharedBatcher, WireStream,
};
use std::io;
use std::sync::{Arc, Mutex};

/// Serializes the tests that assert exact `wire.shed.busy` deltas — obs
/// counters are process-global, so two shedding tests running on parallel
/// test threads would see each other's increments.
static SHED_LOCK: Mutex<()> = Mutex::new(());

const CORPUS: &str = "PALMED-CORPUS v1\nb0 1 DIVPS×1\nb1 2 ADDSS×3 DIVPS×1\nb2 1 JNLE×1\n";

fn artifact(machine: &str, usage: f64) -> ModelArtifact {
    let mut mapping = ConjunctiveMapping::with_resources(1);
    mapping.set_usage(InstId(0), vec![usage]);
    mapping.set_usage(InstId(2), vec![usage * 2.0]);
    ModelArtifact::new(machine, "wire-it", InstructionSet::paper_example(), mapping)
}

fn engine() -> Engine {
    let registry = ModelRegistry::new();
    registry.register(artifact("skl", 0.5));
    Engine::new(Arc::new(registry))
}

/// One shared-batcher round over the single connection `conn` — how the
/// server serves one ready client.
fn pump(batcher: &mut SharedBatcher, now: u64, conn: &mut Connection, stream: &mut Loopback) {
    conn.pump_gather(now, stream);
    batcher.serve_round([&mut *conn]);
    conn.pump_flush(now, stream);
}

fn request(req_id: u32) -> Frame {
    Frame::Request { req_id, model: "skl".to_string(), corpus: CORPUS.to_string() }
}

fn expected_rows() -> Vec<Option<f64>> {
    let art = artifact("skl", 0.5);
    let corpus = Corpus::parse(CORPUS, &art.instructions).unwrap();
    BatchPredictor::new(art.mapping()).predict_corpus(&corpus).ipcs
}

fn shed_counter() -> u64 {
    palmed_obs::snapshot().counter("wire.shed.busy").unwrap_or(0)
}

/// An in-memory loopback: reads from `inbox`, writes to `outbox`.
#[derive(Default)]
struct Loopback {
    inbox: Vec<u8>,
    outbox: Vec<u8>,
}

impl WireStream for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.inbox.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.inbox.len());
        buf[..n].copy_from_slice(&self.inbox[..n]);
        self.inbox.drain(..n);
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.outbox.extend_from_slice(buf);
        Ok(buf.len())
    }
}

fn decode_all(bytes: &[u8]) -> Vec<Frame> {
    let mut rest = bytes.to_vec();
    let mut frames = Vec::new();
    while !rest.is_empty() {
        match decode_frame(&rest, u32::MAX).unwrap() {
            Decoded::Frame { consumed, frame } => {
                frames.push(frame);
                rest.drain(..consumed);
            }
            Decoded::NeedMore => panic!("truncated server output"),
        }
    }
    frames
}

#[test]
fn flooding_past_the_cap_sheds_exactly_and_counts_exactly() {
    let _shed = SHED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    palmed_obs::set_enabled(true);
    const CAP: usize = 2;
    const FLOOD: u32 = 10;
    let mut batcher = SharedBatcher::new(engine());
    let mut conn = Connection::new(Limits { max_in_flight: CAP, ..Limits::default() }, 0);
    let mut stream = Loopback::default();
    for req_id in 0..FLOOD {
        stream.inbox.extend_from_slice(&request(req_id).encode());
    }

    let shed_before = shed_counter();
    pump(&mut batcher, 0, &mut conn, &mut stream);
    let shed_after = shed_counter();

    let frames = decode_all(&stream.outbox);
    assert_eq!(frames.len(), FLOOD as usize, "every request answered, one way or the other");
    let shed: Vec<u32> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Error { req_id, class, .. } if class == "server-busy" => Some(*req_id),
            _ => None,
        })
        .collect();
    assert_eq!(shed, (CAP as u32..FLOOD).collect::<Vec<u32>>(), "exactly the over-cap ids shed");

    // The accepted head of the flood serves bit-identically in order.
    let want = expected_rows();
    let served: Vec<u32> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Response { req_id, rows } => {
                assert_eq!(
                    rows.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                    want.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                    "served rows must be bit-identical to the in-process predictor"
                );
                Some(*req_id)
            }
            _ => None,
        })
        .collect();
    assert_eq!(served, (0..CAP as u32).collect::<Vec<u32>>());

    // The obs counter agrees with the wire, exactly: shedding tests
    // serialize on SHED_LOCK, so nothing else sheds inside the window.
    assert_eq!(shed_after - shed_before, (FLOOD as u64) - (CAP as u64));
    assert_eq!(conn.state(), ConnState::Open, "shedding is backpressure, not failure");
}

#[test]
fn shutdown_drains_every_received_request_before_closing() {
    palmed_obs::set_enabled(true);
    const IN_FLIGHT: u32 = 4;
    let mut batcher = SharedBatcher::new(engine());
    let mut conn = Connection::new(Limits { max_in_flight: 8, ..Limits::default() }, 0);
    let mut stream = Loopback::default();
    for req_id in 0..IN_FLIGHT {
        stream.inbox.extend_from_slice(&request(req_id).encode());
    }

    // Receive without serving, then drain: what was received is served.
    conn.pump_gather(0, &mut stream);
    conn.begin_drain();
    // New bytes after the drain began must not be accepted.
    stream.inbox.extend_from_slice(&request(99).encode());
    pump(&mut batcher, 1, &mut conn, &mut stream);

    let frames = decode_all(&stream.outbox);
    assert_eq!(frames.len(), IN_FLIGHT as usize, "drain answers exactly what was received");
    let want = expected_rows();
    for (i, frame) in frames.iter().enumerate() {
        match frame {
            Frame::Response { req_id, rows } => {
                assert_eq!(*req_id, i as u32, "responses drain in arrival order");
                assert_eq!(
                    rows.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                    want.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                );
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
    assert!(conn.is_closed(), "a drained connection closes");
}

#[test]
fn a_resent_corpus_is_counted_as_a_memo_hit_and_served_identically() {
    palmed_obs::set_enabled(true);
    let memo_hits = || palmed_obs::snapshot().counter("wire.decode.corpus_memo_hits").unwrap_or(0);
    let mut batcher = SharedBatcher::new(engine());
    let mut conn = Connection::new(Limits::default(), 0);
    let mut stream = Loopback::default();
    let before = memo_hits();
    for (tick, req_id) in (0..3u32).enumerate() {
        stream.inbox.extend_from_slice(&request(req_id).encode());
        pump(&mut batcher, tick as u64, &mut conn, &mut stream);
    }
    // Parallel tests can only add to the counter, so the two resends show
    // at least.
    assert!(memo_hits() - before >= 2, "the second and third request hit the memo");

    let want: Vec<_> = expected_rows().iter().map(|r| r.map(f64::to_bits)).collect();
    let frames = decode_all(&stream.outbox);
    assert_eq!(frames.len(), 3);
    for (i, frame) in frames.iter().enumerate() {
        match frame {
            Frame::Response { req_id, rows } => {
                assert_eq!(*req_id, i as u32);
                assert_eq!(rows.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(), want);
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
}

/// End-to-end over a real UNIX socket: a spawned [`palmed_wire::WireServer`]
/// must serve bit-identically to the in-process predictor, answer admin
/// health with the registry fingerprint, and drain on stop.
#[cfg(target_os = "linux")]
#[test]
fn a_real_socket_round_trip_is_bit_identical_and_stops_cleanly() {
    use palmed_wire::{WireClient, WireServer};

    palmed_obs::set_enabled(true);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(artifact("skl", 0.5));
    let fp = registry.get("skl").unwrap().fingerprint();
    let engine = Engine::new(Arc::clone(&registry));

    let path = std::env::temp_dir().join(format!("palmed-wire-it-{}.sock", std::process::id()));
    let server = WireServer::bind(&path, engine, Limits::default()).expect("bind");
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run());

    let mut client = loop {
        match WireClient::connect(&path) {
            Ok(client) => break client,
            Err(_) => std::thread::yield_now(),
        }
    };

    match client.call(&request(1)).expect("round trip") {
        Frame::Response { req_id, rows } => {
            assert_eq!(req_id, 1);
            assert_eq!(
                rows.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                expected_rows().iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                "socket rows must be bit-identical to in-process predictions"
            );
        }
        other => panic!("expected a response, got {other:?}"),
    }
    match client.call(&Frame::AdminRequest { req_id: 2, what: "health".to_string() }).unwrap() {
        Frame::AdminResponse { req_id, body } => {
            assert_eq!(req_id, 2);
            assert!(body.contains(&format!("\"fingerprint\":\"{fp:016x}\"")), "health: {body}");
        }
        other => panic!("expected an admin response, got {other:?}"),
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("server thread").expect("serve loop");
    assert!(!path.exists(), "the server unlinks its socket on exit");
}

/// The TCP listener behind the same connection state machine: a loopback
/// round trip must be bit-identical to the in-process predictor, admin
/// health must carry the registry fingerprint, and stop must drain.
#[cfg(target_os = "linux")]
#[test]
fn a_tcp_round_trip_is_bit_identical_and_stops_cleanly() {
    use palmed_wire::{WireClient, WireServer};
    use std::net::{Ipv4Addr, SocketAddrV4};

    palmed_obs::set_enabled(true);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(artifact("skl", 0.5));
    let fp = registry.get("skl").unwrap().fingerprint();
    let engine = Engine::new(Arc::clone(&registry));

    let server =
        WireServer::bind_tcp(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0), engine, Limits::default())
            .expect("bind tcp");
    let addr = server.tcp_addr().expect("a TCP server reports its bound address");
    assert_ne!(addr.port(), 0, "a port-0 bind reads back the kernel-picked port");
    assert!(server.path().is_none(), "a TCP server has no socket path");
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run());

    let mut client = loop {
        match WireClient::connect_tcp(addr) {
            Ok(client) => break client,
            Err(_) => std::thread::yield_now(),
        }
    };

    match client.call(&request(1)).expect("round trip") {
        Frame::Response { req_id, rows } => {
            assert_eq!(req_id, 1);
            assert_eq!(
                rows.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                expected_rows().iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                "TCP rows must be bit-identical to in-process predictions"
            );
        }
        other => panic!("expected a response, got {other:?}"),
    }
    match client.call(&Frame::AdminRequest { req_id: 2, what: "health".to_string() }).unwrap() {
        Frame::AdminResponse { req_id, body } => {
            assert_eq!(req_id, 2);
            assert!(body.contains(&format!("\"fingerprint\":\"{fp:016x}\"")), "health: {body}");
        }
        other => panic!("expected an admin response, got {other:?}"),
    }

    // Stop-and-drain: a burst written just before the stop is raised is
    // still answered — the server drains received requests before exiting.
    client.send_all(&[request(3), request(4)]).expect("burst");
    for want_id in [3u32, 4] {
        match client.recv().expect("drained reply") {
            Frame::Response { req_id, .. } => assert_eq!(req_id, want_id),
            other => panic!("expected a response, got {other:?}"),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("server thread").expect("serve loop");
}

/// Flooding a TCP connection past its in-flight cap in one coalesced burst
/// sheds exactly the over-cap requests — same shedding, same counting, as
/// the in-memory path.
#[cfg(target_os = "linux")]
#[test]
fn a_tcp_flood_past_the_cap_sheds_exactly() {
    use palmed_wire::{WireClient, WireServer};
    use std::net::{Ipv4Addr, SocketAddrV4};

    let _shed = SHED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    palmed_obs::set_enabled(true);
    const CAP: usize = 2;
    const FLOOD: u32 = 8;
    let server = WireServer::bind_tcp(
        SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
        engine(),
        Limits { max_in_flight: CAP, ..Limits::default() },
    )
    .expect("bind tcp");
    let addr = server.tcp_addr().unwrap();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run());
    let mut client = loop {
        match WireClient::connect_tcp(addr) {
            Ok(client) => break client,
            Err(_) => std::thread::yield_now(),
        }
    };

    // One send_all burst: all FLOOD frames land in one kernel delivery, so
    // one server fill observes them together and the shed set is exact.
    let burst: Vec<Frame> = (0..FLOOD)
        .map(|req_id| Frame::AdminRequest { req_id, what: "health".to_string() })
        .collect();
    let shed_before = shed_counter();
    client.send_all(&burst).expect("burst");
    let replies: Vec<Frame> = (0..FLOOD).map(|_| client.recv().expect("reply")).collect();
    let shed_after = shed_counter();

    let shed: Vec<u32> = replies
        .iter()
        .filter_map(|f| match f {
            Frame::Error { req_id, class, .. } if class == "server-busy" => Some(*req_id),
            _ => None,
        })
        .collect();
    let served = replies.iter().filter(|f| matches!(f, Frame::AdminResponse { .. })).count();
    assert_eq!(shed, (CAP as u32..FLOOD).collect::<Vec<u32>>(), "exactly the over-cap ids shed");
    assert_eq!(served, CAP);
    assert_eq!(shed_after - shed_before, (FLOOD as u64) - (CAP as u64));

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("server thread").expect("serve loop");
}

/// The epoll readiness loop plus the shared batcher, end to end over TCP:
/// two concurrent clients must both be served bit-identically, through one
/// readiness loop and one batch round at a time.
#[cfg(target_os = "linux")]
#[test]
fn epoll_with_shared_batching_serves_concurrent_tcp_clients_bit_identically() {
    use palmed_wire::{WireClient, WireServer};
    use std::net::{Ipv4Addr, SocketAddrV4};

    palmed_obs::set_enabled(true);
    let server = WireServer::bind_tcp(
        SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
        engine(),
        Limits::default(),
    )
    .expect("bind tcp");
    let addr = server.tcp_addr().unwrap();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run());

    let connect = || loop {
        match WireClient::connect_tcp(addr) {
            Ok(client) => return client,
            Err(_) => std::thread::yield_now(),
        }
    };
    let mut first = connect();
    let mut second = connect();

    // Both clients request the same corpus: the round dedupes the parse
    // and the kernels, and both replies must still be bit-exact.
    let want: Vec<Option<u64>> = expected_rows().iter().map(|r| r.map(f64::to_bits)).collect();
    first.send(&request(10)).expect("send");
    second.send(&request(20)).expect("send");
    for (client, want_id) in [(&mut first, 10u32), (&mut second, 20u32)] {
        match client.recv().expect("reply") {
            Frame::Response { req_id, rows } => {
                assert_eq!(req_id, want_id);
                assert_eq!(
                    rows.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(),
                    want,
                    "batched epoll rows must be bit-identical to in-process predictions"
                );
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }

    // A third client accepted mid-session goes through the same epoll
    // registration path.
    let mut third = connect();
    match third.call(&request(30)).expect("round trip") {
        Frame::Response { req_id, rows } => {
            assert_eq!(req_id, 30);
            assert_eq!(rows.iter().map(|r| r.map(f64::to_bits)).collect::<Vec<_>>(), want);
        }
        other => panic!("expected a response, got {other:?}"),
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("server thread").expect("serve loop");
}

/// A mistyped socket path pointing at a real file must not delete it.
#[cfg(target_os = "linux")]
#[test]
fn bind_refuses_to_replace_a_regular_file() {
    use palmed_wire::WireServer;

    let path = std::env::temp_dir().join(format!("palmed-wire-notsock-{}.txt", std::process::id()));
    std::fs::write(&path, b"operator data").unwrap();
    let err = match WireServer::bind(&path, engine(), Limits::default()) {
        Ok(_) => panic!("bind must refuse a path that is not a socket"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    assert_eq!(std::fs::read(&path).unwrap(), b"operator data", "the file survives");
    std::fs::remove_file(&path).unwrap();
}
