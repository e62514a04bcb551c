//! Cross-connection batching: the serve core behind the wire server.
//!
//! [`SharedBatcher`] serves every connection's requests together, so the
//! serve plane's dedup win applies *across* clients, not just within one
//! client's pipeline.  Each server tick is a **round** —
//!
//! 1. every ready connection runs its I/O front half
//!    ([`Connection::pump_gather`]): flush, timeouts, read, decode, shed at
//!    the in-flight cap;
//! 2. the batcher drains every connection's decoded requests
//!    ([`Connection::take_requests`]), pins one immutable registry entry
//!    per model named this round, parses each distinct corpus text once
//!    (with a bounded cache keyed on `(entry name, generation, text)`, so
//!    steady-state repeat workloads skip the parse entirely), merges the
//!    distinct corpora of each pinned entry into **one**
//!    [`PreparedBatch`] over a shared kernel
//!    set, serves it once via `predict_prepared`, and scatters bit-exact
//!    IPC rows back to each request in its connection's own wire order
//!    ([`Connection::push_reply`]);
//! 3. every connection runs its flush back half
//!    ([`Connection::pump_flush`]).
//!
//! A round over a single connection is how one client is served.
//!
//! # Why the rows are bit-identical to in-process prediction
//!
//! `BatchPredictor` evaluates each *distinct* kernel independently, on the
//! serving thread; a kernel's predicted IPC does not depend on what else is
//! in the batch or in which order it is evaluated.  Merging corpora
//! therefore changes only *how often* a kernel is evaluated (once instead
//! of once per connection), never *what* it evaluates to — the property the
//! `fuzz_wire` schedules assert byte-for-byte against an in-process
//! [`BatchPredictor`](palmed_serve::BatchPredictor) per request.
//!
//! # Snapshot pinning
//!
//! A model name is resolved against the registry **once per round**; every
//! request in the round naming it serves from that pinned immutable
//! [`RegistryEntry`] `Arc`.  A registry swap or refresh mid-round never
//! mixes generations within a round, and a response once queued is never
//! rewritten.
//!
//! # Isolation
//!
//! A connection that was poisoned or shed contributes nothing to a round
//! ([`Connection::take_requests`] returns nothing for it), and replies are
//! scattered strictly per-connection — one member's poison pill can
//! neither corrupt nor stall another member's batch slots.

use crate::conn::{Connection, Engine};
use crate::frame::Frame;
use palmed_serve::checksum::fnv1a64;
use palmed_serve::corpus::Corpus;
use palmed_serve::registry::RegistryEntry;
use palmed_serve::{BatchMerge, BatchResult, PreparedBatch};
use std::sync::Arc;

/// Parsed corpora kept between rounds, keyed on `(entry name, entry
/// generation, corpus text)`.  Bounded; least-recently-used slot evicted.
const CORPUS_CACHE_CAP: usize = 64;

struct CachedCorpus {
    name: String,
    generation: u64,
    hash: u64,
    /// The full request text — hash hits are confirmed byte-for-byte, so a
    /// 64-bit collision can never serve the wrong workload.
    text: String,
    corpus: Arc<Corpus>,
    stamp: u64,
}

#[derive(Default)]
struct CorpusCache {
    slots: Vec<CachedCorpus>,
    clock: u64,
}

impl CorpusCache {
    fn get(&mut self, name: &str, generation: u64, hash: u64, text: &str) -> Option<Arc<Corpus>> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.slots.iter_mut().find(|s| {
            s.generation == generation && s.hash == hash && s.name == name && s.text == text
        })?;
        slot.stamp = clock;
        palmed_obs::counter!("wire.batch.corpus_cache_hits").inc();
        Some(Arc::clone(&slot.corpus))
    }

    fn insert(
        &mut self,
        name: String,
        generation: u64,
        hash: u64,
        text: String,
        corpus: Arc<Corpus>,
    ) {
        self.clock += 1;
        if self.slots.len() >= CORPUS_CACHE_CAP {
            if let Some(oldest) =
                self.slots.iter().enumerate().min_by_key(|(_, s)| s.stamp).map(|(i, _)| i)
            {
                self.slots.swap_remove(oldest);
            }
        }
        self.slots.push(CachedCorpus { name, generation, hash, text, corpus, stamp: self.clock });
    }
}

/// What one [`SharedBatcher::serve_round`] did — the numbers the bench and
/// the fuzzer assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Requests (prediction + admin) taken from connections this round.
    pub requests: usize,
    /// Prediction requests answered with IPC rows.
    pub predictions: usize,
    /// Prediction requests that shared a batch serve with at least one
    /// other request (same pinned entry) — the cross-connection win.
    pub coalesced: usize,
    /// Distinct kernels actually evaluated across all batch serves.
    pub distinct_kernels: usize,
    /// Registry entries pinned (one resolve per model name per round).
    pub snapshot_pins: usize,
}

/// One prediction request waiting for its group's batch serve.
struct PendingPrediction {
    member: usize,
    slot: usize,
    req_id: u32,
    corpus_index: usize,
}

/// All requests pinned to one registry entry this round.
struct EntryGroup {
    entry: Arc<RegistryEntry>,
    /// Distinct corpora (by `Arc` identity — the cache collapses repeated
    /// texts onto one `Arc`), each with the requests it answers.
    corpora: Vec<Arc<Corpus>>,
    requests: Vec<PendingPrediction>,
}

/// The shared serve core: owns the [`Engine`] and the corpus cache, and
/// turns one round of gathered requests into batched predictions (see the
/// module docs for the round protocol).
pub struct SharedBatcher {
    engine: Engine,
    cache: CorpusCache,
}

impl SharedBatcher {
    /// A batcher serving through `engine`.
    pub fn new(engine: Engine) -> SharedBatcher {
        SharedBatcher { engine, cache: CorpusCache::default() }
    }

    /// The engine the batcher serves admin queries and resolves models
    /// through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Serves one round: drains every connection's decoded requests,
    /// batches predictions per pinned registry entry, and queues every
    /// reply back on its connection in that connection's wire order.
    ///
    /// Connections with nothing queued cost one empty `take_requests`;
    /// callers still run their [`Connection::pump_flush`] afterwards.
    pub fn serve_round<'c, I>(&mut self, conns: I) -> RoundStats
    where
        I: IntoIterator<Item = &'c mut Connection>,
    {
        let round_timer = palmed_obs::start_timer();
        let mut members: Vec<(&'c mut Connection, Vec<Frame>)> = Vec::new();
        for conn in conns {
            let requests = conn.take_requests();
            if !requests.is_empty() {
                members.push((conn, requests));
            }
        }

        let mut stats = RoundStats::default();
        let mut replies: Vec<Vec<Option<Frame>>> =
            members.iter().map(|(_, reqs)| vec![None; reqs.len()]).collect();
        let mut groups: Vec<EntryGroup> = Vec::new();

        for (member, (_, requests)) in members.iter().enumerate() {
            for (slot, request) in requests.iter().enumerate() {
                stats.requests += 1;
                match request {
                    Frame::AdminRequest { req_id, what } => {
                        replies[member][slot] = Some(self.engine.admin(*req_id, what));
                    }
                    Frame::Request { req_id, model, corpus } => {
                        replies[member][slot] =
                            self.prepare(&mut groups, member, slot, *req_id, model, corpus);
                    }
                    other => unreachable!("only requests are queued, got kind {}", other.kind()),
                }
            }
        }

        stats.snapshot_pins = groups.len();
        palmed_obs::counter!("wire.batch.snapshot_pins").add(groups.len() as u64);
        for group in groups {
            stats.predictions += group.requests.len();
            if group.requests.len() > 1 {
                stats.coalesced += group.requests.len();
            }
            palmed_obs::counter!("wire.batch.coalesced_requests").add(group.requests.len() as u64);
            let serve_timer = palmed_obs::start_timer();
            let (result, ranges) = serve_group(&group);
            palmed_obs::histogram!("wire.batch.batch_ns").record_elapsed(serve_timer);
            stats.distinct_kernels += result.distinct;
            palmed_obs::counter!("wire.batch.distinct_kernels").add(result.distinct as u64);
            for pending in &group.requests {
                let (start, end) = ranges[pending.corpus_index];
                let rows = result.ipcs[start..end].to_vec();
                replies[pending.member][pending.slot] =
                    Some(Frame::Response { req_id: pending.req_id, rows });
            }
        }

        for ((conn, _), frames) in members.into_iter().zip(replies) {
            for frame in frames {
                palmed_obs::histogram!("wire.request_ns").record_elapsed(round_timer);
                conn.push_reply(frame.expect("every gathered request gets exactly one reply"));
            }
        }
        stats
    }

    /// Routes one prediction request: answers errors immediately, otherwise
    /// files the request under its pinned entry group for the batch serve.
    fn prepare(
        &mut self,
        groups: &mut Vec<EntryGroup>,
        member: usize,
        slot: usize,
        req_id: u32,
        model: &str,
        corpus_text: &str,
    ) -> Option<Frame> {
        let Some(entry) = self.engine.registry().get(model) else {
            return Some(unknown_model_frame(req_id, model));
        };
        let hash = cache_key_hash(corpus_text);
        let group_index = match groups.iter().position(|g| Arc::ptr_eq(&g.entry, &entry)) {
            Some(i) => i,
            None => {
                groups.push(EntryGroup { entry, corpora: Vec::new(), requests: Vec::new() });
                groups.len() - 1
            }
        };
        let group = &mut groups[group_index];

        let generation = group.entry.generation();
        let corpus = match self.cache.get(model, generation, hash, corpus_text) {
            Some(corpus) => corpus,
            None => match Corpus::parse(corpus_text, group.entry.model().instructions()) {
                Ok(corpus) => {
                    let corpus = Arc::new(corpus);
                    self.cache.insert(
                        model.to_string(),
                        generation,
                        hash,
                        corpus_text.to_string(),
                        Arc::clone(&corpus),
                    );
                    corpus
                }
                Err(e) => return Some(corpus_error_frame(req_id, &e)),
            },
        };

        let corpus_index = match group.corpora.iter().position(|c| Arc::ptr_eq(c, &corpus)) {
            Some(i) => i,
            None => {
                group.corpora.push(corpus);
                group.corpora.len() - 1
            }
        };
        group.requests.push(PendingPrediction { member, slot, req_id, corpus_index });
        None
    }
}

/// The error frame for a request naming no registered model.
fn unknown_model_frame(req_id: u32, model: &str) -> Frame {
    Frame::Error {
        req_id,
        class: "unknown-model".to_string(),
        offset: None,
        message: format!("no model registered under `{model}`"),
    }
}

/// The error frame for a corpus the strict parser rejected.
fn corpus_error_frame(req_id: u32, err: &palmed_serve::CorpusError) -> Frame {
    Frame::Error { req_id, class: err.class().to_string(), offset: None, message: err.to_string() }
}

/// The cache's prefilter hash: length plus FNV over the first and last
/// KiB of the request text.  Purely a filter — a slot hit is always
/// confirmed by the byte-exact `text` compare, so sampling can never serve
/// the wrong corpus; it only keeps the steady-state hit path from paying a
/// full byte-serial hash pass over every large repeated request.
fn cache_key_hash(text: &str) -> u64 {
    const SAMPLE: usize = 1024;
    let bytes = text.as_bytes();
    let head = &bytes[..bytes.len().min(SAMPLE)];
    let tail = &bytes[bytes.len().saturating_sub(SAMPLE)..];
    fnv1a64(head)
        ^ fnv1a64(tail).rotate_left(1)
        ^ (bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Serves one entry group: a single corpus goes straight through the
/// zero-cost [`PreparedBatch::from_corpus`] ingest; several distinct
/// corpora merge onto one shared kernel set first, so kernels they share
/// are predicted once.  Returns the merged result plus each corpus's
/// half-open row range.
fn serve_group(group: &EntryGroup) -> (BatchResult, Vec<(usize, usize)>) {
    if let [corpus] = group.corpora.as_slice() {
        let batch = PreparedBatch::from_corpus(corpus);
        let len = batch.len();
        (group.entry.model().predict_prepared(&batch), vec![(0, len)])
    } else {
        let mut merge = BatchMerge::new();
        let mut ranges = Vec::with_capacity(group.corpora.len());
        let mut at = 0;
        for corpus in &group.corpora {
            merge.push_corpus(corpus);
            ranges.push((at, at + corpus.len()));
            at += corpus.len();
        }
        let (batch, _) = merge.finish();
        (group.entry.model().predict_prepared(&batch), ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Limits;
    use crate::testutil::{artifact, batcher, decode_all, expected_rows, pump, request, Loopback};
    use palmed_serve::ModelRegistry;

    const CORPUS_A: &str = "PALMED-CORPUS v1\nb0 1 DIVPS×1\nb1 2 ADDSS×3 DIVPS×1\n";
    const CORPUS_B: &str = "PALMED-CORPUS v1\nb0 1 ADDSS×2\nb1 1 DIVPS×1\nb2 1 JNLE×1\n";

    /// One shared round over `inboxes` (one connection each); returns the
    /// per-connection outbox bytes and the round stats.
    fn shared_round(inboxes: &[Vec<u8>]) -> (Vec<Vec<u8>>, RoundStats) {
        let mut batcher = batcher();
        let mut conns: Vec<(Connection, Loopback)> = inboxes
            .iter()
            .map(|inbox| {
                (
                    Connection::new(Limits::default(), 0),
                    Loopback { inbox: inbox.clone(), ..Loopback::default() },
                )
            })
            .collect();
        for (conn, stream) in &mut conns {
            conn.pump_gather(0, stream);
        }
        let stats = batcher.serve_round(conns.iter_mut().map(|(conn, _)| conn));
        for (conn, stream) in &mut conns {
            conn.pump_flush(0, stream);
        }
        (conns.into_iter().map(|(_, stream)| stream.outbox).collect(), stats)
    }

    /// The encoded reply the in-process `BatchPredictor` gives `req_id`.
    fn reference(req_id: u32, corpus: &str) -> Vec<u8> {
        Frame::Response { req_id, rows: expected_rows(corpus) }.encode()
    }

    #[test]
    fn a_shared_round_is_bit_identical_to_in_process_prediction() {
        // Mixed round: duplicate corpora across connections, a distinct
        // corpus, an admin query, an unknown model and a bad corpus — every
        // prediction must match the in-process rows byte for byte, and
        // every reply must land on its own connection in wire order.
        let inboxes = vec![
            {
                let mut b = request(1, CORPUS_A).encode();
                b.extend_from_slice(&request(2, CORPUS_B).encode());
                b
            },
            request(7, CORPUS_A).encode(),
            {
                let mut b = Frame::AdminRequest { req_id: 3, what: "health".to_string() }.encode();
                b.extend_from_slice(
                    &Frame::Request {
                        req_id: 4,
                        model: "zen".to_string(),
                        corpus: CORPUS_A.to_string(),
                    }
                    .encode(),
                );
                b.extend_from_slice(&request(5, "PALMED-CORPUS v1\nb0 1 NOPE×1\n").encode());
                b
            },
        ];
        let (shared, stats) = shared_round(&inboxes);
        let mut first = reference(1, CORPUS_A);
        first.extend_from_slice(&reference(2, CORPUS_B));
        assert_eq!(shared[0], first, "connection 0 gets both rows, in wire order");
        assert_eq!(shared[1], reference(7, CORPUS_A));
        let third_frames = decode_all(&shared[2]);
        let third: Vec<(u32, &str)> = third_frames
            .iter()
            .map(|frame| match frame {
                Frame::AdminResponse { req_id, .. } => (*req_id, "admin"),
                Frame::Error { req_id, class, .. } => (*req_id, class.as_str()),
                other => panic!("unexpected reply on connection 2: {other:?}"),
            })
            .collect();
        assert_eq!(third, [(3, "admin"), (4, "unknown-model"), (5, "malformed-text")]);
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.predictions, 3, "unknown model and bad corpus answer early");
        assert_eq!(stats.coalesced, 3, "all three predictions share one pinned entry");
        assert_eq!(stats.snapshot_pins, 1, "one model name, one resolve per round");
    }

    #[test]
    fn duplicate_corpora_parse_once_and_batches_merge_distinct_ones() {
        let inboxes = vec![
            request(1, CORPUS_A).encode(),
            request(2, CORPUS_A).encode(),
            request(3, CORPUS_B).encode(),
        ];
        let (outs, stats) = shared_round(&inboxes);
        let rows = |bytes: &[u8]| match &decode_all(bytes)[..] {
            [Frame::Response { rows, .. }] => rows.clone(),
            other => panic!("expected one response, got {other:?}"),
        };
        assert_eq!(rows(&outs[0]), rows(&outs[1]), "same corpus, same rows");
        // CORPUS_A has kernels {DIVPS, ADDSS+DIVPS}; CORPUS_B adds
        // {ADDSS, JNLE} and shares DIVPS — 4 distinct kernels, not 2+3.
        assert_eq!(stats.distinct_kernels, 4, "shared kernels are predicted once");
        assert_eq!(stats.predictions, 3);
    }

    #[test]
    fn a_poisoned_member_contributes_nothing_and_stalls_nobody() {
        let mut batcher = batcher();
        let mut poisoned = Connection::new(Limits::default(), 0);
        let mut poisoned_stream = Loopback::default();
        let mut bytes = Frame::AdminRequest { req_id: 9, what: "health".to_string() }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // corrupt the trailer
        poisoned_stream.inbox = bytes;
        let mut healthy = Connection::new(Limits::default(), 0);
        let mut healthy_stream =
            Loopback { inbox: request(1, CORPUS_A).encode(), ..Loopback::default() };

        poisoned.pump_gather(0, &mut poisoned_stream);
        healthy.pump_gather(0, &mut healthy_stream);
        let stats = batcher.serve_round([&mut poisoned, &mut healthy]);
        poisoned.pump_flush(0, &mut poisoned_stream);
        healthy.pump_flush(0, &mut healthy_stream);

        assert_eq!(stats.requests, 1, "the poisoned member contributes nothing");
        assert!(
            matches!(&decode_all(&healthy_stream.outbox)[..], [Frame::Response { req_id: 1, .. }]),
            "the healthy member is served normally"
        );
        assert!(
            matches!(
                &decode_all(&poisoned_stream.outbox)[..],
                [Frame::Error { class, .. }] if class == "checksum-mismatch"
            ),
            "the poisoned member drains exactly its rejection"
        );
    }

    #[test]
    fn a_registry_swap_lands_between_rounds_not_inside_one() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(artifact("skl", 0.5));
        let mut batcher = SharedBatcher::new(Engine::new(Arc::clone(&registry)));
        let round = |batcher: &mut SharedBatcher| {
            let mut conn = Connection::new(Limits::default(), 0);
            let mut stream =
                Loopback { inbox: request(1, CORPUS_A).encode(), ..Loopback::default() };
            pump(batcher, 0, &mut conn, &mut stream);
            match &decode_all(&stream.outbox)[..] {
                [Frame::Response { rows, .. }] => rows.clone(),
                other => panic!("expected one response, got {other:?}"),
            }
        };
        let before = round(&mut batcher);
        let again = round(&mut batcher);
        assert_eq!(before, again, "the cached corpus serves identically");
        registry.register(artifact("skl", 0.9)); // hot swap between rounds
        let after = round(&mut batcher);
        assert_ne!(before, after, "the next round pins the swapped entry (stale cache bypassed)");
    }
}
