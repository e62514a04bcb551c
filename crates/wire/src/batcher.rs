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
//!    per model named this round and looks each request's corpus up in a
//!    bounded cache keyed on `(entry name, generation, text)`.  A slot
//!    that already holds predicted rows answers its requests from them: a
//!    resent corpus runs neither the parse nor the predictor.  The
//!    remaining corpora are parsed once per distinct text; those of each
//!    pinned entry merge into **one** [`PreparedBatch`] over a shared
//!    kernel set, served once via `predict_prepared`, and their rows fill
//!    their slots.  Bit-exact IPC rows are scattered back to each request
//!    in its connection's own wire order ([`Connection::push_reply`]);
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
//! The same argument covers the cached rows: a slot's rows are those its
//! corpus was served with under the slot's `(name, generation)`, and a
//! registry entry is immutable, so re-predicting them would give the same
//! bits.  A swap or a reloading refresh installs a new generation, which
//! misses every old slot; LRU eviction drops a slot's rows together with
//! its corpus.
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
use palmed_serve::checksum::fnv1a64_words;
use palmed_serve::corpus::Corpus;
use palmed_serve::registry::RegistryEntry;
use palmed_serve::{BatchMerge, BatchResult, PreparedBatch};
use std::sync::Arc;

/// Parsed corpora and their predicted rows kept between rounds, keyed on
/// `(entry name, entry generation, corpus text)`.  Bounded;
/// least-recently-used slot evicted.
const CORPUS_CACHE_CAP: usize = 64;

struct CachedCorpus {
    name: String,
    generation: u64,
    hash: u64,
    /// The full request text — hash hits are confirmed byte-for-byte, so a
    /// 64-bit collision can never serve the wrong workload.
    text: String,
    corpus: Arc<Corpus>,
    /// The IPC rows `corpus` was served with under this slot's entry;
    /// `None` until the first round that predicts it.
    rows: Option<Rows>,
    stamp: u64,
}

/// One corpus's predicted IPC rows, shared between its cache slot and the
/// round that answers from them.
type Rows = Arc<[Option<f64>]>;

#[derive(Default)]
struct CorpusCache {
    slots: Vec<CachedCorpus>,
    clock: u64,
}

impl CorpusCache {
    fn get(
        &mut self,
        name: &str,
        generation: u64,
        hash: u64,
        text: &str,
    ) -> Option<(Arc<Corpus>, Option<Rows>)> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.slots.iter_mut().find(|s| {
            s.generation == generation && s.hash == hash && s.name == name && s.text == text
        })?;
        slot.stamp = clock;
        palmed_obs::counter!("wire.batch.corpus_cache_hits").inc();
        Some((Arc::clone(&slot.corpus), slot.rows.clone()))
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
        self.slots.push(CachedCorpus {
            name,
            generation,
            hash,
            text,
            corpus,
            rows: None,
            stamp: self.clock,
        });
    }

    /// Stores `rows` in the slot holding `corpus` (found by `Arc`
    /// identity, so the slot key is the one the corpus was looked up
    /// under).  A slot evicted since the lookup is simply not filled.
    fn fill(&mut self, corpus: &Arc<Corpus>, rows: &Rows) {
        if let Some(slot) = self.slots.iter_mut().find(|s| Arc::ptr_eq(&s.corpus, corpus)) {
            slot.rows = Some(Arc::clone(rows));
        }
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
    /// Prediction requests that shared their pinned entry's group with at
    /// least one other request — the cross-connection win.
    pub coalesced: usize,
    /// Distinct kernels actually evaluated across all batch serves; rows
    /// answered from the corpus cache evaluate none.
    pub distinct_kernels: usize,
    /// Prediction requests answered from rows a cache slot already held.
    pub row_cache_hits: usize,
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
    /// texts onto one `Arc`), each with its rows once known.
    corpora: Vec<GroupCorpus>,
    requests: Vec<PendingPrediction>,
}

/// One distinct corpus of an entry group: rows from its cache slot, or
/// `None` until this round's batch serve predicts them.
struct GroupCorpus {
    corpus: Arc<Corpus>,
    rows: Option<Rows>,
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
            let EntryGroup { entry, mut corpora, requests } = group;
            let hits = requests.iter().filter(|p| corpora[p.corpus_index].rows.is_some()).count();
            stats.row_cache_hits += hits;
            palmed_obs::counter!("wire.batch.row_cache_hits").add(hits as u64);
            let uncached: Vec<&mut GroupCorpus> =
                corpora.iter_mut().filter(|c| c.rows.is_none()).collect();
            if !uncached.is_empty() {
                let serve_timer = palmed_obs::start_timer();
                let (result, ranges) = serve_group(&entry, &uncached);
                palmed_obs::histogram!("wire.batch.batch_ns").record_elapsed(serve_timer);
                stats.distinct_kernels += result.distinct;
                palmed_obs::counter!("wire.batch.distinct_kernels").add(result.distinct as u64);
                for (corpus, (start, end)) in uncached.into_iter().zip(ranges) {
                    let rows: Rows = Arc::from(&result.ipcs[start..end]);
                    self.cache.fill(&corpus.corpus, &rows);
                    corpus.rows = Some(rows);
                }
            }
            for pending in &requests {
                let rows = corpora[pending.corpus_index].rows.as_deref().expect("rows served");
                replies[pending.member][pending.slot] =
                    Some(Frame::Response { req_id: pending.req_id, rows: rows.to_vec() });
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
        let (corpus, rows) = match self.cache.get(model, generation, hash, corpus_text) {
            Some(hit) => hit,
            None => match Corpus::parse(corpus_text, &group.entry.model().instructions) {
                Ok(corpus) => {
                    let corpus = Arc::new(corpus);
                    self.cache.insert(
                        model.to_string(),
                        generation,
                        hash,
                        corpus_text.to_string(),
                        Arc::clone(&corpus),
                    );
                    (corpus, None)
                }
                Err(e) => return Some(corpus_error_frame(req_id, &e)),
            },
        };

        let corpus_index = match group.corpora.iter().position(|c| Arc::ptr_eq(&c.corpus, &corpus))
        {
            Some(i) => i,
            None => {
                group.corpora.push(GroupCorpus { corpus, rows });
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

/// The cache's prefilter hash: length plus word-strided FNV over the first
/// and last KiB of the request text.  Purely a filter — a slot hit is
/// always confirmed by the byte-exact `text` compare, so sampling can never
/// serve the wrong corpus; it only keeps the steady-state hit path from
/// paying a full hash pass over every large repeated request.
fn cache_key_hash(text: &str) -> u64 {
    const SAMPLE: usize = 1024;
    let bytes = text.as_bytes();
    let head = &bytes[..bytes.len().min(SAMPLE)];
    let tail = &bytes[bytes.len().saturating_sub(SAMPLE)..];
    fnv1a64_words(head)
        ^ fnv1a64_words(tail).rotate_left(1)
        ^ (bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Serves an entry group's uncached corpora: a single corpus goes straight
/// through the zero-cost [`PreparedBatch::from_corpus`] ingest; several
/// distinct corpora merge onto one shared kernel set first, so kernels
/// they share are predicted once.  Returns the merged result plus each
/// corpus's half-open row range.
fn serve_group(
    entry: &RegistryEntry,
    corpora: &[&mut GroupCorpus],
) -> (BatchResult, Vec<(usize, usize)>) {
    if let [only] = corpora {
        let batch = PreparedBatch::from_corpus(&only.corpus);
        let len = batch.len();
        (entry.model().batch().predict_prepared(&batch), vec![(0, len)])
    } else {
        let mut merge = BatchMerge::new();
        let mut ranges = Vec::with_capacity(corpora.len());
        let mut at = 0;
        for group_corpus in corpora {
            merge.push_corpus(&group_corpus.corpus);
            ranges.push((at, at + group_corpus.corpus.len()));
            at += group_corpus.corpus.len();
        }
        let (batch, _) = merge.finish();
        (entry.model().batch().predict_prepared(&batch), ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Limits;
    use crate::testutil::{
        artifact, batcher, decode_all, expected_rows, request, rows_of, Loopback,
    };
    use palmed_serve::ModelRegistry;

    const CORPUS_A: &str = "PALMED-CORPUS v1\nb0 1 DIVPS×1\nb1 2 ADDSS×3 DIVPS×1\n";
    const CORPUS_B: &str = "PALMED-CORPUS v1\nb0 1 ADDSS×2\nb1 1 DIVPS×1\nb2 1 JNLE×1\n";

    /// One shared round over `inboxes` (one connection each) on a fresh
    /// batcher; returns the per-connection outbox bytes and the round stats.
    fn shared_round(inboxes: &[Vec<u8>]) -> (Vec<Vec<u8>>, RoundStats) {
        round_on(&mut batcher(), inboxes)
    }

    /// One round of `batcher` over `inboxes` (one new connection each), so
    /// the batcher's corpus cache carries over between calls.
    fn round_on(batcher: &mut SharedBatcher, inboxes: &[Vec<u8>]) -> (Vec<Vec<u8>>, RoundStats) {
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

    /// The rows of the single response in `bytes`, as bit patterns.
    fn response_bits(bytes: &[u8]) -> Vec<Option<u64>> {
        match &decode_all(bytes)[..] {
            [Frame::Response { rows, .. }] => bits(rows),
            other => panic!("expected one response, got {other:?}"),
        }
    }

    fn bits(rows: &[Option<f64>]) -> Vec<Option<u64>> {
        rows.iter().map(|row| row.map(f64::to_bits)).collect()
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
    fn a_resent_corpus_answers_from_cached_rows() {
        let mut batcher = batcher();
        let (_, stats) = round_on(&mut batcher, &[request(1, CORPUS_A).encode()]);
        assert_eq!(stats.distinct_kernels, 2, "the first round predicts the corpus");
        assert_eq!(stats.row_cache_hits, 0);
        let (again, stats) = round_on(&mut batcher, &[request(2, CORPUS_A).encode()]);
        assert_eq!(again[0], reference(2, CORPUS_A), "cached rows are bit-identical");
        assert_eq!(stats.distinct_kernels, 0, "a resent corpus evaluates no kernel");
        assert_eq!(stats.row_cache_hits, 1);
        assert_eq!((stats.predictions, stats.snapshot_pins), (1, 1), "cached rounds still count");
    }

    #[test]
    fn a_mixed_round_predicts_only_its_uncached_corpus() {
        let mut batcher = batcher();
        round_on(&mut batcher, &[request(1, CORPUS_A).encode()]);
        let (outs, stats) =
            round_on(&mut batcher, &[request(2, CORPUS_A).encode(), request(3, CORPUS_B).encode()]);
        assert_eq!(outs[0], reference(2, CORPUS_A));
        assert_eq!(outs[1], reference(3, CORPUS_B));
        // CORPUS_B alone holds {ADDSS×2, DIVPS×1, JNLE×1}; merged with
        // CORPUS_A it would be 4.
        assert_eq!(stats.distinct_kernels, 3, "only the new corpus's kernels are evaluated");
        assert_eq!(stats.row_cache_hits, 1);
        assert_eq!(stats.coalesced, 2, "both requests still share one pinned entry");
        let (outs, stats) = round_on(&mut batcher, &[request(4, CORPUS_B).encode()]);
        assert_eq!(outs[0], reference(4, CORPUS_B), "the mixed round filled the new slot");
        assert_eq!((stats.distinct_kernels, stats.row_cache_hits), (0, 1));
    }

    #[test]
    fn a_registry_swap_lands_between_rounds_not_inside_one() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(artifact("skl", 0.5));
        let mut batcher = SharedBatcher::new(Engine::new(Arc::clone(&registry)));
        let mut round = |req_id: u32| {
            let (outs, stats) = round_on(&mut batcher, &[request(req_id, CORPUS_A).encode()]);
            (response_bits(&outs[0]), stats)
        };
        let (before, _) = round(1);
        let (again, stats) = round(2);
        assert_eq!(before, again, "the cached corpus serves identically");
        assert_eq!(stats.row_cache_hits, 1);
        registry.register(artifact("skl", 0.9)); // hot swap between rounds
        let (after, stats) = round(3);
        assert_ne!(before, after);
        assert_eq!(
            after,
            bits(&rows_of(&artifact("skl", 0.9), CORPUS_A)),
            "the next round pins the swapped entry"
        );
        assert_eq!(stats.row_cache_hits, 0, "the previous generation's rows are never served");
        assert_eq!(stats.distinct_kernels, 2);
    }
}
