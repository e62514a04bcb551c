//! Fixtures shared by the crate's unit tests: a one-model registry, an
//! in-memory loopback stream, the in-process reference rows and the
//! one-member round that serves a single connection.

use crate::{decode_frame, Connection, Decoded, Engine, Frame, SharedBatcher, WireStream};
use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, InstructionSet};
use palmed_serve::{BatchPredictor, Corpus, ModelArtifact, ModelRegistry};
use std::io;
use std::sync::Arc;

pub(crate) const CORPUS: &str =
    "PALMED-CORPUS v1\nb0 1 DIVPS×1\nb1 2 ADDSS×3 DIVPS×1\nb2 1 JNLE×1\n";

pub(crate) fn artifact(machine: &str, usage: f64) -> ModelArtifact {
    let mut mapping = ConjunctiveMapping::with_resources(1);
    mapping.set_usage(InstId(0), vec![usage]);
    mapping.set_usage(InstId(2), vec![usage * 2.0]);
    ModelArtifact::new(machine, "wire-test", InstructionSet::paper_example(), mapping)
}

/// A batcher over a registry holding `skl` = `artifact("skl", 0.5)`.
pub(crate) fn batcher() -> SharedBatcher {
    let registry = ModelRegistry::new();
    registry.register(artifact("skl", 0.5));
    SharedBatcher::new(Engine::new(Arc::new(registry)))
}

pub(crate) fn request(req_id: u32, corpus: &str) -> Frame {
    Frame::Request { req_id, model: "skl".to_string(), corpus: corpus.to_string() }
}

/// The in-process `BatchPredictor` rows of `corpus_text` against `skl`.
pub(crate) fn expected_rows(corpus_text: &str) -> Vec<Option<f64>> {
    rows_of(&artifact("skl", 0.5), corpus_text)
}

/// The in-process `BatchPredictor` rows of `corpus_text` against `art`.
pub(crate) fn rows_of(art: &ModelArtifact, corpus_text: &str) -> Vec<Option<f64>> {
    let corpus = Corpus::parse(corpus_text, &art.instructions).unwrap();
    BatchPredictor::new(&art.compile()).predict_corpus(&corpus).ipcs
}

/// One round over the single connection `conn` at tick `now`: gather,
/// serve, flush — the server loop's body with one ready member.
pub(crate) fn pump(
    batcher: &mut SharedBatcher,
    now: u64,
    conn: &mut Connection,
    stream: &mut dyn WireStream,
) {
    conn.pump_gather(now, stream);
    batcher.serve_round([&mut *conn]);
    conn.pump_flush(now, stream);
}

/// An in-memory loopback: reads from `inbox`, writes to `outbox`, and
/// counts the read calls made on it.
#[derive(Default)]
pub(crate) struct Loopback {
    pub(crate) inbox: Vec<u8>,
    pub(crate) outbox: Vec<u8>,
    pub(crate) reads: usize,
}

impl WireStream for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
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

pub(crate) fn decode_all(bytes: &[u8]) -> Vec<Frame> {
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
