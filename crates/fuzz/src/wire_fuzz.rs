//! Connection-schedule fuzzing of the wire plane, plus a coverage-guided
//! fuzz of the frame decoder itself.
//!
//! Where [`crate::registry_fuzz`] scripts hostile *filesystem* histories
//! under the registry's refresh loop, this harness scripts hostile
//! *connection* histories under [`palmed_wire::Connection`]s served by one
//! [`SharedBatcher`] — the code the socket server runs, round for round
//! (gather → batch-serve → scatter → flush).  Each case registers 1–2
//! models and drives one connection ([`Fleet::Single`]) or 2–4 interleaved
//! ones ([`Fleet::Multi`]) through [`FaultyConn`]s: requests split across
//! chunks and stalls, bursts coalesced past the in-flight cap, short and
//! stalled writes, guaranteed malformed frames, application-level errors,
//! registry swaps and refreshes between rounds, resends of an earlier
//! `(model, corpus)` (answered from the batcher's cached rows unless a swap
//! came in between), half-closes and mid-frame disconnects — plus, for a
//! lone connection, slow-loris partial frames and idle gaps.  After every
//! round it asserts the guarantees the connection and the batcher
//! document:
//!
//! - **no panic escapes** any schedule (panics are caught per schedule and
//!   reported as violations);
//! - **every server byte is well-formed**: each member's outgoing stream
//!   re-decodes frame by frame, and every rejection the server issues is a
//!   structured error frame with a kebab-case class (with a byte offset
//!   whenever the rejection is a framing violation);
//! - **accepted requests serve bit-identically** to an in-process
//!   [`BatchPredictor`] over the fuzzer's own copy of the registered
//!   artifact, one request at a time — compared on encoded frame bytes, so
//!   NaNs and signed zeros count;
//! - **shedding is exact**: a burst of `max_in_flight + k` coalesced
//!   requests answers precisely the first `max_in_flight` and sheds
//!   precisely the last `k` with `server-busy`;
//! - **poison is isolated**: a poisoned or shed member never corrupts or
//!   stalls another member's batch slots;
//! - **started responses are pinned**: a [`ModelRegistry::refresh`] or
//!   hot swap between rounds never changes a response already produced;
//! - **every connection drains**: at schedule end every expected reply has
//!   been flushed, in request order, unless the transport was
//!   hard-disconnected.
//!
//! Schedules are pure functions of their case number and fleet; re-run a
//! single-connection one verbosely with `fuzz_wire --replay <case>`.
//!
//! [`run_decoder_guided`] additionally turns the coverage-guided scheduler
//! idea of [`crate::guided`] on [`palmed_wire::decode_frame`]: a seed
//! queue starts from one valid frame of every kind, mutants that reach a
//! first-seen `(rejection class, offset bucket)` pair are admitted back
//! into the queue, and any violating input is shrunk with
//! [`guided::minimize_with`] before being reported.

use crate::conn_fault::FaultyConn;
use crate::{guided, inventory, offset_bucket};
use palmed_isa::InstructionSet;
use palmed_serve::checksum::fnv1a64_words;
use palmed_serve::{BatchPredictor, Corpus, ModelArtifact, ModelRegistry};
use palmed_wire::frame::{HEADER_LEN, TRAILER_LEN};
use palmed_wire::{
    decode_frame, ConnState, Connection, Decoded, Engine, Frame, Limits, SharedBatcher, MAGIC,
};
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One invariant violation, with the case number to replay it.
#[derive(Debug, Clone)]
pub struct WireViolation {
    /// The schedule's deterministic case number.
    pub case: u32,
    /// What was violated.
    pub detail: String,
}

impl fmt::Display for WireViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {}: {}", self.case, self.detail)
    }
}

/// Aggregated result of a wire schedule fuzz run.
#[derive(Debug, Default)]
pub struct WireFuzzSummary {
    /// Schedules executed.
    pub schedules: u32,
    /// Peer-behaviour steps executed across all schedules.
    pub steps: u64,
    /// Requests fed (complete requests, burst members and admin queries).
    pub requests: u64,
    /// Requests expected to shed with `server-busy`.
    pub sheds: u64,
    /// Connections expected to poison on a malformed frame or deadline.
    pub poisons: u64,
    /// Transport faults injected (stalls, short reads/writes, disconnects).
    pub injected_faults: u64,
    /// Prediction requests the batcher answered from cached rows
    /// ([`palmed_wire::RoundStats::row_cache_hits`]).
    pub row_cache_hits: u64,
    /// Schedule op kinds drawn at least once (`request`, `burst`, …).
    pub ops: BTreeSet<&'static str>,
    /// Invariant violations (empty on a healthy wire plane).
    pub violations: Vec<WireViolation>,
}

impl fmt::Display for WireFuzzSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedules, {} steps, {} faults injected: {} requests, {} sheds, \
             {} poisons, {} row-cache hits, {} violations",
            self.schedules,
            self.steps,
            self.injected_faults,
            self.requests,
            self.sheds,
            self.poisons,
            self.row_cache_hits,
            self.violations.len()
        )
    }
}

/// What the mirror expects the server to answer for one request.
#[derive(Debug)]
enum Expect {
    /// Exact encoded frame bytes (bit-identity, NaNs included).
    Bytes(Vec<u8>),
    /// An error frame with this class; `offset_required` demands the
    /// structured byte offset framing rejections carry.
    Error { class: String, offset_required: bool },
    /// An admin response whose body contains the needle.
    AdminContains(String),
}

/// Per-schedule tallies folded into the run summary.
#[derive(Debug, Default)]
struct ScheduleStats {
    steps: u64,
    requests: u64,
    sheds: u64,
    poisons: u64,
    injected: u64,
    row_cache_hits: u64,
    ops: BTreeSet<&'static str>,
    violations: Vec<String>,
    /// Verbose per-step trace, populated only under `--replay`.
    trace: Option<Vec<String>>,
}

impl ScheduleStats {
    fn note(&mut self, line: impl FnOnce() -> String) {
        if let Some(trace) = &mut self.trace {
            trace.push(line());
        }
    }
}

/// The fuzzer's copy of one registered model — the in-process reference
/// every wire response is compared against.
struct SimModel {
    name: String,
    artifact: ModelArtifact,
}

/// Matches a connection's received frames against its mirror expectations,
/// positionally.  `label` prefixes each violation (`conn N: `).
fn check_positional(
    label: &str,
    expects: &[(u32, Expect)],
    received: &[Frame],
    violations: &mut Vec<String>,
) {
    if received.len() != expects.len() {
        violations.push(format!(
            "{label}{} frames received, {} expected",
            received.len(),
            expects.len()
        ));
        return;
    }
    for (i, ((req_id, expect), frame)) in expects.iter().zip(received).enumerate() {
        if frame.req_id() != *req_id {
            violations.push(format!(
                "{label}reply {i} answers req {} where req {req_id} was expected",
                frame.req_id()
            ));
            continue;
        }
        match expect {
            Expect::Bytes(want) => {
                if &frame.encode() != want {
                    violations.push(format!(
                        "{label}req {req_id} reply is not bit-identical to the in-process \
                         prediction: {frame:?}"
                    ));
                }
            }
            Expect::Error { class, offset_required } => match frame {
                Frame::Error { class: got, offset, .. } => {
                    if got != class {
                        violations.push(format!(
                            "{label}req {req_id} rejected with class `{got}`, expected `{class}`"
                        ));
                    }
                    if *offset_required && offset.is_none() {
                        violations.push(format!(
                            "{label}req {req_id} framing rejection `{got}` carries no byte offset"
                        ));
                    }
                }
                other => violations
                    .push(format!("{label}req {req_id} expected a `{class}` error, got {other:?}")),
            },
            Expect::AdminContains(needle) => match frame {
                Frame::AdminResponse { body, .. } => {
                    if !body.contains(needle) {
                        violations.push(format!(
                            "{label}admin req {req_id} body lacks `{needle}`: {body}"
                        ));
                    }
                }
                other => violations
                    .push(format!("{label}req {req_id} expected an admin response, got {other:?}")),
            },
        }
    }
}

/// How many connections a schedule drives through the shared batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// One connection for 6–20 steps.  Only a lone connection draws the
    /// slow-loris deadline and the idle gap: their clock jumps would time
    /// out every bystander too.
    Single,
    /// 2–4 connections sharing every round for 8–24 steps.
    Multi,
}

/// The in-process reference bytes for one request against one artifact.
fn expected_response_for(artifact: &ModelArtifact, req_id: u32, corpus_text: &str) -> Vec<u8> {
    let corpus = Corpus::parse(corpus_text, &artifact.instructions)
        .expect("fuzzer-rendered corpora re-parse");
    let rows = BatchPredictor::new(artifact.mapping()).predict_corpus(&corpus).ipcs;
    Frame::Response { req_id, rows }.encode()
}

/// One connection of a schedule: its own transport faults, its own mirror
/// expectations, its own received stream.
struct Member {
    conn: Connection,
    stream: FaultyConn,
    /// Expected replies, in feed order; the server must answer exactly
    /// these, in exactly this order.
    expects: Vec<(u32, Expect)>,
    /// Frames re-decoded from [`FaultyConn::outgoing`] so far.
    received: Vec<Frame>,
    /// Bytes of `outgoing` already re-decoded.
    cursor: usize,
    /// Poisoned, timed out, hung up or transport-dead — no further feeding.
    dead: bool,
}

/// One live schedule: the members behind a single [`SharedBatcher`], each
/// round driving the gather → batch-serve → scatter → flush protocol the
/// [`palmed_wire::sock::WireServer`] loop runs, plus the mirror that
/// predicts every reply with the in-process [`BatchPredictor`].
struct Sched<'a> {
    fleet: Fleet,
    insts: InstructionSet,
    rng: TestRng,
    registry: Arc<ModelRegistry>,
    batcher: SharedBatcher,
    models: Vec<SimModel>,
    limits: Limits,
    members: Vec<Member>,
    /// Every `(model index, corpus text)` sent as a prediction request so
    /// far — the pool [`Sched::op_resend`] draws from.
    sent: Vec<(usize, String)>,
    now: u64,
    next_req: u32,
    stats: &'a mut ScheduleStats,
}

impl<'a> Sched<'a> {
    fn new(case: u32, fleet: Fleet, stats: &'a mut ScheduleStats) -> Sched<'a> {
        let insts = inventory();
        let mut rng = TestRng::for_case(case);
        let registry = Arc::new(ModelRegistry::new());
        let mut models = Vec::new();
        for i in 0..rng.usize_in(1, 2) {
            let name = format!("wm-{i}");
            let mut artifact = crate::seed_model(&insts, &mut rng);
            artifact.machine = name.clone();
            registry.register(artifact.clone());
            models.push(SimModel { name, artifact });
        }
        let limits = Limits {
            max_payload: 1 << 16,
            max_in_flight: rng.usize_in(2, 4),
            max_write_backlog: 1 << 20,
            idle_timeout_ticks: 10_000,
            frame_deadline_ticks: 200,
        };
        // Connections are accepted at an arbitrary point of the server's
        // clock — idle/deadline policies must be relative to the accept
        // tick, so schedules start anywhere in the first ~day of ticks.
        let start = rng.usize_in(0, 100_000_000) as u64;
        let count = match fleet {
            Fleet::Single => 1,
            Fleet::Multi => rng.usize_in(2, 4),
        };
        let members = (0..count)
            .map(|_| Member {
                conn: Connection::new(limits, start),
                stream: FaultyConn::new(),
                expects: Vec::new(),
                received: Vec::new(),
                cursor: 0,
                dead: false,
            })
            .collect();
        stats.note(|| {
            format!(
                "schedule: {count} connections, {} models, max_in_flight {}, frame_deadline {} \
                 ticks, accept tick {start}",
                models.len(),
                limits.max_in_flight,
                limits.frame_deadline_ticks,
            )
        });
        Sched {
            fleet,
            insts,
            batcher: SharedBatcher::new(Engine::new(Arc::clone(&registry))),
            rng,
            registry,
            models,
            limits,
            members,
            sent: Vec::new(),
            now: start,
            next_req: 1,
            stats,
        }
    }

    fn violation(&mut self, detail: String) {
        self.stats.violations.push(detail);
    }

    /// Advances the clock by `delta`, runs one shared round over every
    /// member, then re-decodes whatever each member's server side flushed:
    /// every complete outgoing frame must be well-formed.
    fn round(&mut self, delta: u64) {
        self.now += delta;
        for member in &mut self.members {
            member.conn.pump_gather(self.now, &mut member.stream);
        }
        let round = self.batcher.serve_round(self.members.iter_mut().map(|m| &mut m.conn));
        self.stats.row_cache_hits += round.row_cache_hits as u64;
        for member in &mut self.members {
            member.conn.pump_flush(self.now, &mut member.stream);
        }
        for (i, member) in self.members.iter_mut().enumerate() {
            loop {
                match decode_frame(&member.stream.outgoing[member.cursor..], u32::MAX) {
                    Ok(Decoded::NeedMore) => break,
                    Ok(Decoded::Frame { consumed, frame }) => {
                        member.cursor += consumed;
                        match &frame {
                            Frame::Request { .. } | Frame::AdminRequest { .. } => {
                                self.stats.violations.push(format!(
                                    "conn {i} received a client-side frame kind: {frame:?}"
                                ));
                            }
                            Frame::Error { class, .. } if class.is_empty() => {
                                self.stats.violations.push(format!(
                                    "conn {i} received an error frame with an empty class"
                                ));
                            }
                            _ => {}
                        }
                        member.received.push(frame);
                    }
                    Err(e) => {
                        self.stats.violations.push(format!(
                            "conn {i} output undecodable at byte {}: {} ({})",
                            member.cursor + e.offset,
                            e.reason,
                            e.class
                        ));
                        break;
                    }
                }
            }
        }
    }

    /// Feeds one frame's chunks to member `at` (with optional stalls
    /// between them), then rounds until its read script is fully delivered
    /// and served — every other member keeps being pumped through the same
    /// rounds, so interleaving comes for free.
    fn feed_and_settle(&mut self, at: usize, chunks: Vec<Vec<u8>>) {
        for chunk in chunks {
            if self.rng.next_f64() < 0.3 {
                let stalls = self.rng.usize_in(1, 2) as u32;
                self.members[at].stream.push_stall(stalls);
            }
            self.members[at].stream.push_chunk(chunk);
            let gap = self.rng.usize_in(1, 5) as u64;
            self.round(gap);
        }
        for _ in 0..16 {
            if self.members[at].stream.read_pending() == 0 || self.members[at].conn.is_closed() {
                break;
            }
            self.round(1);
        }
        // One settling round flushes what the last delivery round queued
        // behind a stalled write.
        self.round(1);
    }

    /// Splits `bytes` into 1–3 random chunks.
    fn split(&mut self, bytes: Vec<u8>) -> Vec<Vec<u8>> {
        let pieces = self.rng.usize_in(1, 3).min(bytes.len().max(1));
        let mut cuts: Vec<usize> =
            (1..pieces).map(|_| self.rng.usize_in(1, bytes.len() - 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunks = Vec::new();
        let mut start = 0;
        for cut in cuts {
            chunks.push(bytes[start..cut].to_vec());
            start = cut;
        }
        chunks.push(bytes[start..].to_vec());
        chunks
    }

    /// Clears member `at`'s write faults and rounds until its backlog is
    /// flushed, so every already-expected reply stays checkable.
    fn flush_member(&mut self, at: usize) {
        self.members[at].stream.clear_write_faults();
        for _ in 0..8 {
            if self.members[at].conn.write_backlog() == 0 || self.members[at].conn.is_closed() {
                break;
            }
            self.round(1);
        }
    }

    /// A complete request on member `at`, split across chunks and stalls.
    fn op_request(&mut self, at: usize) {
        let model = self.rng.usize_in(0, self.models.len() - 1);
        let corpus_text = crate::seed_corpus(&self.insts, &mut self.rng).render(&self.insts);
        self.sent.push((model, corpus_text.clone()));
        self.send_request(at, model, corpus_text);
    }

    /// An earlier `(model, corpus)` resent on member `at`, sometimes after
    /// a hot swap of that model.  Without the swap the batcher answers from
    /// the rows its cache slot kept; after it, the new generation must miss
    /// that slot and predict afresh — the byte-exact oracle checks both.
    fn op_resend(&mut self, at: usize) {
        let (model, corpus_text) = self.sent[self.rng.usize_in(0, self.sent.len() - 1)].clone();
        self.stats.note(|| format!("conn {at}: resend of an earlier wm-{model} corpus"));
        if self.rng.next_f64() < 0.3 {
            self.swap(model);
        }
        self.send_request(at, model, corpus_text);
    }

    /// Feeds one prediction request for `corpus_text` against `model` to
    /// member `at`, split across chunks and stalls.
    fn send_request(&mut self, at: usize, model: usize, corpus_text: String) {
        let req_id = self.next_req;
        self.next_req += 1;
        let expected = expected_response_for(&self.models[model].artifact, req_id, &corpus_text);
        let bytes =
            Frame::Request { req_id, model: self.models[model].name.clone(), corpus: corpus_text }
                .encode();
        let chunks = self.split(bytes);
        self.stats.requests += 1;
        self.stats.note(|| {
            format!("conn {at}: request req {req_id} -> wm-{model} ({} chunks)", chunks.len())
        });
        self.members[at].expects.push((req_id, Expect::Bytes(expected)));
        self.feed_and_settle(at, chunks);
    }

    /// `max_in_flight + k` requests coalesced into one chunk on member
    /// `at`: the first `max_in_flight` must serve, the rest must shed —
    /// exactly, and without consuming any other member's batch slots.
    fn op_burst(&mut self, at: usize) {
        let model = self.rng.usize_in(0, self.models.len() - 1);
        let corpus_text = crate::seed_corpus(&self.insts, &mut self.rng).render(&self.insts);
        self.sent.push((model, corpus_text.clone()));
        let cap = self.limits.max_in_flight;
        let total = cap + self.rng.usize_in(1, 3);
        let mut chunk = Vec::new();
        let ids: Vec<u32> = (0..total)
            .map(|_| {
                let req_id = self.next_req;
                self.next_req += 1;
                chunk.extend_from_slice(
                    &Frame::Request {
                        req_id,
                        model: self.models[model].name.clone(),
                        corpus: corpus_text.clone(),
                    }
                    .encode(),
                );
                req_id
            })
            .collect();
        // Shed errors are emitted the moment the over-cap frame decodes —
        // *before* the queued requests are served — so they come first on
        // the wire.
        for &req_id in &ids[cap..] {
            self.stats.sheds += 1;
            self.members[at].expects.push((
                req_id,
                Expect::Error { class: "server-busy".to_string(), offset_required: false },
            ));
        }
        for &req_id in &ids[..cap] {
            let expected =
                expected_response_for(&self.models[model].artifact, req_id, &corpus_text);
            self.members[at].expects.push((req_id, Expect::Bytes(expected)));
        }
        self.stats.requests += total as u64;
        self.stats.note(|| format!("conn {at}: burst of {total} coalesced requests (cap {cap})"));
        self.feed_and_settle(at, vec![chunk]);
    }

    /// An admin query on member `at`: health, obs, or an unknown one.
    fn op_admin(&mut self, at: usize) {
        let req_id = self.next_req;
        self.next_req += 1;
        let (what, expect) = match self.rng.usize_in(0, 2) {
            0 => ("health", Expect::AdminContains(format!("\"name\":\"{}\"", self.models[0].name))),
            1 => ("obs", Expect::AdminContains("{".to_string())),
            _ => (
                "bogus",
                Expect::Error { class: "unknown-admin".to_string(), offset_required: false },
            ),
        };
        self.stats.requests += 1;
        self.stats.note(|| format!("conn {at}: admin req {req_id} `{what}`"));
        self.members[at].expects.push((req_id, expect));
        let bytes = Frame::AdminRequest { req_id, what: what.to_string() }.encode();
        let chunks = self.split(bytes);
        self.feed_and_settle(at, chunks);
    }

    /// A well-formed frame the batcher must reject without poisoning:
    /// unknown model, headerless corpus, or an unknown instruction.
    fn op_app_error(&mut self, at: usize) {
        let req_id = self.next_req;
        self.next_req += 1;
        let good = self.models[0].name.clone();
        let good_corpus = crate::seed_corpus(&self.insts, &mut self.rng).render(&self.insts);
        let (model, corpus, class) = match self.rng.usize_in(0, 2) {
            0 => ("no-such-model".to_string(), good_corpus, "unknown-model"),
            1 => (good, "not a corpus\n".to_string(), "missing-header"),
            _ => (good, "PALMED-CORPUS v1\nb0 1 NO-SUCH-INST×1\n".to_string(), "malformed-text"),
        };
        self.stats.requests += 1;
        self.stats.note(|| format!("conn {at}: app-error req {req_id}, expect `{class}`"));
        self.members[at]
            .expects
            .push((req_id, Expect::Error { class: class.to_string(), offset_required: false }));
        let bytes = Frame::Request { req_id, model, corpus }.encode();
        let chunks = self.split(bytes);
        self.feed_and_settle(at, chunks);
        if self.members[at].conn.state() != ConnState::Open {
            self.violation(format!(
                "conn {at}: an application-level `{class}` poisoned the connection"
            ));
        }
    }

    /// A registry refresh or hot swap between rounds.  Snapshot pinning
    /// means only *later* requests see the new entry; the positional
    /// byte-exact matching at drain proves no produced reply was rewritten.
    fn op_swap_or_refresh(&mut self) {
        if self.rng.next_f64() < 0.4 {
            self.stats.note(|| "registry refresh between rounds".to_string());
            let _ = self.registry.refresh();
        } else {
            let at = self.rng.usize_in(0, self.models.len() - 1);
            self.swap(at);
        }
    }

    /// Hot-swaps model `at` for a fresh seeded artifact between rounds.
    fn swap(&mut self, at: usize) {
        let name = self.models[at].name.clone();
        let mut artifact = crate::seed_model(&self.insts, &mut self.rng);
        artifact.machine = name;
        self.stats.note(|| format!("hot swap of wm-{at} between rounds"));
        self.registry.register(artifact.clone());
        self.models[at].artifact = artifact;
    }

    /// Short and stalled writes on member `at` from here on (cleared by
    /// its next flush or the drain).
    fn op_write_faults(&mut self, at: usize) {
        let cap = self.rng.usize_in(1, 16);
        let stalls = self.rng.usize_in(0, 3) as u32;
        self.members[at].stream.write_cap = Some(cap);
        self.members[at].stream.write_stalls = stalls;
        self.stats.note(|| format!("conn {at}: write faults, cap {cap} bytes, {stalls} stalls"));
    }

    /// A frame guaranteed undecodable at a known offset on member `at`:
    /// that member must answer one structured error and poison, never
    /// panic; nobody else may notice.
    fn op_garbage(&mut self, at: usize) {
        let mut bytes = Frame::AdminRequest { req_id: 0, what: "health".to_string() }.encode();
        let (class, what) = match self.rng.usize_in(0, 3) {
            0 => {
                let i = self.rng.usize_in(0, MAGIC.len() - 1);
                bytes[i] ^= 0x40;
                ("missing-header", "corrupt magic byte")
            }
            1 => {
                bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
                ("unknown-kind", "out-of-range kind")
            }
            2 => {
                let huge = self.limits.max_payload + 1 + self.rng.next_u64() as u32 % 1000;
                bytes[MAGIC.len() + 4..MAGIC.len() + 8].copy_from_slice(&huge.to_le_bytes());
                ("frame-too-large", "oversized length declaration")
            }
            _ => {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                ("checksum-mismatch", "corrupt trailer")
            }
        };
        self.stats.poisons += 1;
        self.stats.note(|| format!("conn {at}: garbage frame ({what}), expect poison `{class}`"));
        self.members[at]
            .expects
            .push((0, Expect::Error { class: class.to_string(), offset_required: true }));
        let chunks = self.split(bytes);
        self.feed_and_settle(at, chunks);
        if matches!(self.members[at].conn.state(), ConnState::Open | ConnState::Draining) {
            self.violation(format!("conn {at}: a {what} did not poison the connection"));
        }
        self.members[at].dead = true;
    }

    /// A slow-loris partial frame on member `at` that must hit the receive
    /// deadline.
    fn op_deadline(&mut self, at: usize) {
        let bytes =
            Frame::AdminRequest { req_id: self.next_req, what: "health".to_string() }.encode();
        let cut = self.rng.usize_in(1, bytes.len() - 1);
        self.stats.poisons += 1;
        self.stats
            .note(|| format!("conn {at}: slow loris, {cut} bytes then silence past the deadline"));
        self.members[at].expects.push((
            0,
            Expect::Error { class: "deadline-exceeded".to_string(), offset_required: true },
        ));
        self.members[at].stream.push_chunk(bytes[..cut].to_vec());
        self.round(1);
        let gap = self.limits.frame_deadline_ticks + self.rng.usize_in(1, 50) as u64;
        self.round(gap);
        if matches!(self.members[at].conn.state(), ConnState::Open | ConnState::Draining) {
            self.violation(format!("conn {at}: a partial frame outlived the receive deadline"));
        }
        self.members[at].dead = true;
    }

    /// A quiescent gap past the idle timeout: member `at` closes silently.
    fn op_idle_gap(&mut self, at: usize) {
        self.flush_member(at);
        let mark = self.members[at].stream.outgoing.len();
        self.stats.note(|| format!("conn {at}: idle gap past the timeout"));
        let gap = self.limits.idle_timeout_ticks + 1 + self.rng.usize_in(0, 100) as u64;
        self.round(gap);
        if !self.members[at].conn.is_closed() {
            self.violation(format!("conn {at}: a quiescent connection outlived the idle timeout"));
        }
        if self.members[at].stream.outgoing.len() != mark {
            self.violation(format!("conn {at}: an idle close wrote bytes"));
        }
        self.members[at].dead = true;
    }

    /// A hard disconnect of member `at`, optionally mid-frame.  Prior
    /// output is flushed first so every already-expected reply stays
    /// checkable.
    fn op_disconnect(&mut self, at: usize) {
        self.flush_member(at);
        if self.rng.next_f64() < 0.7 {
            let bytes =
                Frame::AdminRequest { req_id: self.next_req, what: "obs".to_string() }.encode();
            let cut = self.rng.usize_in(1, bytes.len() - 1);
            self.members[at].stream.push_chunk(bytes[..cut].to_vec());
            self.stats.note(|| format!("conn {at}: mid-frame disconnect after {cut} bytes"));
        } else {
            self.stats.note(|| format!("conn {at}: disconnect between frames"));
        }
        self.members[at].stream.push_disconnect();
        self.round(1);
        self.round(1);
        if !self.members[at].conn.is_closed() {
            self.violation(format!("conn {at}: a hard disconnect did not close the connection"));
        }
        self.members[at].dead = true;
    }

    /// A clean half-close of member `at`: the peer is done sending; the
    /// server drains.
    fn op_eof(&mut self, at: usize) {
        self.flush_member(at);
        self.stats.note(|| format!("conn {at}: peer half-close (EOF)"));
        self.members[at].stream.push_eof();
        self.round(1);
        self.members[at].dead = true;
    }

    /// Drains every member and matches each one's frames against its
    /// mirror expectations, positionally: every reply, in feed order,
    /// bit-identical where a response was expected.
    fn finale(&mut self) {
        for member in &mut self.members {
            member.stream.clear_write_faults();
            if !member.conn.is_closed() {
                member.conn.begin_drain();
            }
        }
        for _ in 0..60 {
            if self.members.iter().all(|m| m.conn.is_closed() || m.stream.is_disconnected()) {
                break;
            }
            self.round(1);
        }
        for (i, member) in self.members.iter().enumerate() {
            if !member.conn.is_closed() && !member.stream.is_disconnected() {
                self.stats.violations.push(format!(
                    "conn {i} failed to drain (state {:?}, backlog {} bytes, {} pending)",
                    member.conn.state(),
                    member.conn.write_backlog(),
                    member.conn.pending_len()
                ));
            }
            if member.stream.is_disconnected() {
                // Writes after the reset legitimately vanished; only the
                // no-panic and well-formed-output invariants apply.
                continue;
            }
            check_positional(
                &format!("conn {i}: "),
                &member.expects,
                &member.received,
                &mut self.stats.violations,
            );
        }
        self.stats.note(|| {
            let checked: usize = self.members.iter().map(|m| m.received.len()).sum();
            format!("drain: {checked} frames checked across {} members", self.members.len())
        });
    }
}

/// Runs one scripted schedule.  Deterministic in `case` and `fleet`.
fn run_schedule(case: u32, fleet: Fleet, stats: &mut ScheduleStats) {
    let mut s = Sched::new(case, fleet, stats);
    let steps = match fleet {
        Fleet::Single => s.rng.usize_in(6, 20),
        Fleet::Multi => s.rng.usize_in(8, 24),
    };
    for step in 0..steps as u32 {
        let live: Vec<usize> = (0..s.members.len())
            .filter(|&i| !s.members[i].dead && !s.members[i].conn.is_closed())
            .collect();
        let Some(&at) = live.get(s.rng.usize_in(0, live.len().max(1) - 1)) else { break };
        let before = s.stats.violations.len();
        let op = match s.rng.usize_in(0, 10) {
            9 if !s.sent.is_empty() => {
                s.op_resend(at);
                "resend"
            }
            0..=2 | 9 => {
                s.op_request(at);
                "request"
            }
            3 => {
                s.op_burst(at);
                "burst"
            }
            4 => {
                s.op_admin(at);
                "admin"
            }
            5 => {
                s.op_app_error(at);
                "app-error"
            }
            6 => {
                s.op_swap_or_refresh();
                "swap-or-refresh"
            }
            7 => {
                s.op_write_faults(at);
                "write-faults"
            }
            8 => {
                s.op_garbage(at);
                "garbage"
            }
            // The hang-ups end the member; a lone member may also go
            // silent until its deadline or idle timeout fires.
            _ => match s.rng.usize_in(0, if s.fleet == Fleet::Single { 3 } else { 1 }) {
                0 => {
                    s.op_disconnect(at);
                    "disconnect"
                }
                1 => {
                    s.op_eof(at);
                    "eof"
                }
                2 => {
                    s.op_deadline(at);
                    "deadline"
                }
                _ => {
                    s.op_idle_gap(at);
                    "idle-gap"
                }
            },
        };
        s.stats.ops.insert(op);
        s.stats.steps += 1;
        for violation in &mut s.stats.violations[before..] {
            *violation = format!("step {step}: {violation}");
        }
    }
    let before = s.stats.violations.len();
    s.finale();
    for violation in &mut s.stats.violations[before..] {
        *violation = format!("drain: {violation}");
    }
    s.stats.injected = s.members.iter().map(|m| m.stream.injected).sum();
}

/// Runs `n` seeded schedules of `fleet` starting at case `seed`: every
/// member served through one [`SharedBatcher`], every accepted request
/// bit-identical to the in-process [`BatchPredictor`], shedding exact, and
/// a poisoned or shed member never corrupting or stalling another's batch
/// slots.  Panics inside a schedule are caught and reported as violations.
pub fn run_schedules(n: u32, seed: u32, fleet: Fleet) -> WireFuzzSummary {
    let mut summary = WireFuzzSummary::default();
    for i in 0..n {
        let case = seed.wrapping_add(i);
        let mut stats = ScheduleStats::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_schedule(case, fleet, &mut stats)));
        summary.schedules += 1;
        summary.steps += stats.steps;
        summary.requests += stats.requests;
        summary.sheds += stats.sheds;
        summary.poisons += stats.poisons;
        summary.injected_faults += stats.injected;
        summary.row_cache_hits += stats.row_cache_hits;
        summary.ops.extend(stats.ops);
        for detail in stats.violations {
            summary.violations.push(WireViolation { case, detail });
        }
        if let Err(panic) = outcome {
            let detail = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            summary
                .violations
                .push(WireViolation { case, detail: format!("panic during schedule: {detail}") });
        }
    }
    summary
}

/// Re-runs one deterministic single-connection schedule verbosely — the
/// triage view behind `fuzz_wire --replay <case>`.
pub fn replay_schedule(case: u32) -> String {
    use std::fmt::Write;
    let mut stats = ScheduleStats { trace: Some(Vec::new()), ..ScheduleStats::default() };
    let outcome = catch_unwind(AssertUnwindSafe(|| run_schedule(case, Fleet::Single, &mut stats)));
    let mut out = String::new();
    let _ = writeln!(out, "replay wire schedule case {case}");
    for line in stats.trace.as_deref().unwrap_or_default() {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(
        out,
        "  {} steps, {} requests, {} sheds, {} poisons, {} faults injected",
        stats.steps, stats.requests, stats.sheds, stats.poisons, stats.injected
    );
    for violation in &stats.violations {
        let _ = writeln!(out, "  VIOLATION {violation}");
    }
    if outcome.is_err() {
        let _ = writeln!(out, "  VIOLATION panic during schedule");
    }
    if stats.violations.is_empty() && outcome.is_ok() {
        let _ = writeln!(out, "  OK");
    }
    out
}

// ---------------------------------------------------------------------------
// Coverage-guided fuzzing of the frame decoder itself.
// ---------------------------------------------------------------------------

/// Result of a guided frame-decoder run.
#[derive(Debug, Default)]
pub struct DecoderFuzzSummary {
    /// Mutant buffers fed to [`decode_frame`].
    pub cases: u64,
    /// Buffers accepted as complete frames.
    pub accepted: u64,
    /// Buffers rejected with a structured [`palmed_wire::WireError`].
    pub rejected: u64,
    /// Buffers the decoder asked more bytes for.
    pub incomplete: u64,
    /// Distinct `(rejection class, offset bucket)` pairs observed.
    pub coverage: BTreeSet<(String, u32)>,
    /// Final seed-queue size (starts at one valid frame per kind).
    pub queue: usize,
    /// Invariant violations, minimized where possible.
    pub violations: Vec<String>,
}

impl fmt::Display for DecoderFuzzSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} decoder cases: {} accepts, {} rejections, {} incomplete, \
             {} coverage pairs, queue {} entries, {} violations",
            self.cases,
            self.accepted,
            self.rejected,
            self.incomplete,
            self.coverage.len(),
            self.queue,
            self.violations.len()
        )
    }
}

/// One valid frame of every kind — the decoder fuzz seed corpus.
fn decoder_seeds() -> Vec<Vec<u8>> {
    vec![
        Frame::Request {
            req_id: 1,
            model: "wm-0".to_string(),
            corpus: "PALMED-CORPUS v1\nb0 1 I0×2\n".to_string(),
        }
        .encode(),
        Frame::Response { req_id: 2, rows: vec![Some(1.5), None, Some(0.25)] }.encode(),
        Frame::Error {
            req_id: 3,
            class: "checksum-mismatch".to_string(),
            offset: Some(7),
            message: "scripted".to_string(),
        }
        .encode(),
        Frame::AdminRequest { req_id: 4, what: "health".to_string() }.encode(),
        Frame::AdminResponse { req_id: 5, body: "[]".to_string() }.encode(),
    ]
}

/// Applies one random mutation; returns a short description.
fn mutate_frame(bytes: &mut Vec<u8>, rng: &mut TestRng) -> String {
    if bytes.is_empty() {
        bytes.push(rng.next_u64() as u8);
        return "extend empty".to_string();
    }
    match rng.usize_in(0, 5) {
        0 => {
            let at = rng.usize_in(0, bytes.len() - 1);
            bytes[at] ^= (rng.next_u64() as u8) | 1;
            format!("flip byte {at}")
        }
        1 if bytes.len() >= 4 => {
            let at = rng.usize_in(0, bytes.len() - 4);
            let value: u32 = match rng.usize_in(0, 3) {
                0 => 0,
                1 => 1,
                2 => u32::MAX,
                _ => u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()).wrapping_add(1),
            };
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            format!("u32 at {at} := {value}")
        }
        2 => {
            let at = rng.usize_in(0, bytes.len() - 1);
            bytes.truncate(at);
            format!("truncate to {at}")
        }
        3 => {
            let extra = rng.usize_in(1, 16);
            for _ in 0..extra {
                bytes.push(rng.next_u64() as u8);
            }
            format!("extend by {extra}")
        }
        4 if bytes.len() >= 2 => {
            let from = rng.usize_in(0, bytes.len() - 2);
            let len = rng.usize_in(1, (bytes.len() - from).min(8));
            let splice: Vec<u8> = bytes[from..from + len].to_vec();
            let at = rng.usize_in(0, bytes.len() - 1);
            for (i, b) in splice.into_iter().enumerate() {
                bytes.insert(at + i, b);
            }
            format!("splice {len} bytes to {at}")
        }
        _ => {
            // Re-hash the trailer so mutations past the checksum gate reach
            // the payload parser.
            if bytes.len() > TRAILER_LEN {
                let body_len = bytes.len() - TRAILER_LEN;
                let sum = fnv1a64_words(&bytes[..body_len]);
                bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
                "re-hash trailer".to_string()
            } else {
                bytes.push(0);
                "extend short".to_string()
            }
        }
    }
}

/// Coverage-guided fuzz of [`decode_frame`]: no panic on any input, every
/// rejection is structured with an in-bounds offset, and every accepted
/// frame re-encodes bit-identically to the bytes it decoded from.
pub fn run_decoder_guided(iters: u32, seed: u32) -> DecoderFuzzSummary {
    const MAX_PAYLOAD: u32 = 1 << 20;
    let mut summary = DecoderFuzzSummary::default();
    let mut queue = decoder_seeds();
    let mut rng = TestRng::for_case(seed);
    for _ in 0..iters {
        let mut bytes = queue[rng.usize_in(0, queue.len() - 1)].clone();
        for _ in 0..rng.usize_in(1, 3) {
            mutate_frame(&mut bytes, &mut rng);
        }
        summary.cases += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| decode_frame(&bytes, MAX_PAYLOAD)));
        match outcome {
            Err(_) => {
                let minimized = guided::minimize_with(&bytes, |b| {
                    catch_unwind(AssertUnwindSafe(|| decode_frame(b, MAX_PAYLOAD))).is_err()
                });
                summary.violations.push(format!(
                    "decode_frame panicked ({} bytes, minimized to {})",
                    bytes.len(),
                    minimized.len()
                ));
            }
            Ok(Ok(Decoded::Frame { consumed, frame })) => {
                summary.accepted += 1;
                if frame.encode() != bytes[..consumed] {
                    summary.violations.push(format!(
                        "accepted frame is not canonical: {} consumed bytes re-encode \
                         differently ({frame:?})",
                        consumed
                    ));
                }
            }
            Ok(Ok(Decoded::NeedMore)) => {
                summary.incomplete += 1;
                if bytes.len() >= HEADER_LEN + MAX_PAYLOAD as usize + TRAILER_LEN {
                    summary.violations.push(format!(
                        "NeedMore on a {}-byte buffer that can only hold a complete frame",
                        bytes.len()
                    ));
                }
            }
            Ok(Err(e)) => {
                summary.rejected += 1;
                if e.class.is_empty() {
                    summary.violations.push("rejection with an empty class".to_string());
                }
                if e.offset > bytes.len() {
                    summary.violations.push(format!(
                        "rejection offset {} beyond the {}-byte buffer (class {})",
                        e.offset,
                        bytes.len(),
                        e.class
                    ));
                }
                let key = (e.class.clone(), offset_bucket(Some(e.offset)));
                if summary.coverage.insert(key) && queue.len() < 256 {
                    // First-seen coverage: admit the mutant as a new seed.
                    queue.push(bytes);
                }
            }
        }
    }
    summary.queue = queue.len();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_every_invariant_held(summary: &WireFuzzSummary) {
        for violation in &summary.violations {
            eprintln!("{violation}");
        }
        assert!(summary.violations.is_empty(), "{} violations", summary.violations.len());
        assert!(summary.requests > 0, "schedules must feed requests");
        assert!(summary.sheds > 0, "schedules must flood past the in-flight cap");
        assert!(summary.poisons > 0, "schedules must exercise malformed frames");
        assert!(summary.injected_faults > 0, "schedules must inject transport faults");
    }

    #[test]
    fn seeded_wire_schedules_hold_every_invariant() {
        let summary = run_schedules(60, 1, Fleet::Single);
        assert_eq!(summary.schedules, 60);
        assert_every_invariant_held(&summary);
        let ops: Vec<&str> = summary.ops.iter().copied().collect();
        assert_eq!(
            ops,
            [
                "admin",
                "app-error",
                "burst",
                "deadline",
                "disconnect",
                "eof",
                "garbage",
                "idle-gap",
                "request",
                "resend",
                "swap-or-refresh",
                "write-faults"
            ],
            "a lone connection draws every op kind"
        );
    }

    #[test]
    fn multi_connection_schedules_hold_every_invariant() {
        let summary = run_schedules(40, 1, Fleet::Multi);
        assert_eq!(summary.schedules, 40);
        assert_every_invariant_held(&summary);
        assert!(
            !summary.ops.contains("deadline") && !summary.ops.contains("idle-gap"),
            "clock jumps would time out bystanders, so only a lone connection draws them"
        );
        assert!(summary.ops.contains("eof") && summary.ops.contains("disconnect"));
    }

    fn assert_deterministic(fleet: Fleet, n: u32, seed: u32) {
        let first = run_schedules(n, seed, fleet);
        let second = run_schedules(n, seed, fleet);
        assert_eq!(first.steps, second.steps);
        assert_eq!(first.requests, second.requests);
        assert_eq!(first.sheds, second.sheds);
        assert_eq!(first.poisons, second.poisons);
        assert_eq!(first.injected_faults, second.injected_faults);
        assert_eq!(first.row_cache_hits, second.row_cache_hits);
        assert_eq!(first.violations.len(), second.violations.len());
    }

    #[test]
    fn multi_connection_schedules_are_deterministic() {
        assert_deterministic(Fleet::Multi, 6, 42);
    }

    #[test]
    fn wire_schedules_are_deterministic() {
        assert_deterministic(Fleet::Single, 8, 77);
    }

    #[test]
    fn resent_corpora_reach_the_cached_rows() {
        // Cases 1.. are the prefix the CI smoke (`fuzz_wire --seed 1`) runs,
        // so its byte-exact oracle provably checks replies served from rows.
        for fleet in [Fleet::Single, Fleet::Multi] {
            let summary = run_schedules(20, 1, fleet);
            assert!(summary.violations.is_empty(), "{:?}", summary.violations);
            assert!(summary.ops.contains("resend"), "{fleet:?} schedules must resend");
            assert!(summary.row_cache_hits > 0, "{fleet:?} resends must hit the cached rows");
        }
    }

    #[test]
    fn replaying_a_schedule_traces_its_steps() {
        let out = replay_schedule(3);
        assert!(out.contains("replay wire schedule case 3"), "{out}");
        assert!(out.contains("schedule:"), "the setup line must render: {out}");
        assert!(out.contains("OK") || out.contains("VIOLATION"), "{out}");
    }

    #[test]
    fn the_guided_decoder_fuzz_finds_no_violations_and_covers_classes() {
        let summary = run_decoder_guided(3000, 5);
        for violation in &summary.violations {
            eprintln!("{violation}");
        }
        assert!(summary.violations.is_empty(), "{} violations", summary.violations.len());
        assert!(summary.rejected > 0, "mutants must exercise rejections");
        assert!(summary.accepted > 0, "re-hashed mutants must reach acceptance");
        assert!(
            summary.coverage.len() >= 4,
            "expected several (class, offset-bucket) pairs, got {:?}",
            summary.coverage
        );
        assert!(summary.queue > 5, "coverage must admit new seeds past the initial corpus");
    }
}
