//! The Palmed serving layer: persist an inferred model once, predict
//! millions of times.
//!
//! The inference pipeline of `palmed-core` is expensive (benchmark campaigns
//! plus LP solves); the resulting
//! [`ConjunctiveMapping`](palmed_core::ConjunctiveMapping) is tiny.  This crate
//! separates the two lifetimes the way a production system does:
//!
//! * [`artifact`] — versioned, self-describing codecs for inferred models
//!   ([`ModelArtifact`]): instruction set, resource rows, provenance and an
//!   integrity checksum, in a text form (v1, the interchange/debug format)
//!   and a binary form (v2b, the fast load path).  Hand-rolled writers and
//!   parsers — no serde; loading sniffs the format from the first bytes.
//!   The artifact's [`ConjunctiveMapping`](palmed_core::ConjunctiveMapping)
//!   is already the dense serving layout, so an artifact is what serving
//!   predicts from.
//! * [`compiled`] — [`CompiledModel`]: a mapping under a display name, kept
//!   for the benchmark package; it derefs to the mapping.
//! * [`batch`] — [`BatchPredictor`]: dedupes identical microkernels into a
//!   reusable [`PreparedBatch`] backed by a shared
//!   `Arc<`[`KernelSet`](palmed_isa::KernelSet)`>` interner with cached
//!   hashes (ingest, once per workload), then evaluates the distinct ones on
//!   the calling thread and scatters results back into input order (serve,
//!   once per model or query).
//! * [`corpus`] — a text format for basic-block workloads ([`Corpus`]) that
//!   interns kernels at parse time, so prediction traffic can come from files
//!   instead of in-process generators and ingest is index bookkeeping.
//! * [`checksum`] / [`codec`] — the machinery the codecs share: one
//!   FNV-1a-64 implementation (bytewise for the v1 text trailer, strided
//!   over 8-byte words for the binary trailers), the tagged [`ModelKind`]
//!   with format sniffing, length-prefixed section plumbing, and the
//!   validate-pass/byte-range-index pattern.
//! * [`registry`] — [`ModelRegistry`]: a concurrent store of named,
//!   kind-tagged entries.  Readers take an atomic snapshot and predict with
//!   **no lock held**; writers hot-swap whole generations
//!   ([`ModelRegistry::swap_bytes`], [`ModelRegistry::reload_file`]) and
//!   [`ModelRegistry::refresh`] polls watched files' mtime/length for
//!   file-watch semantics without OS APIs.  Old generations stay valid
//!   until their last holder drops.
//!
//! # Serving representations
//!
//! One model family, the conjunctive resource mapping Palmed infers, in two
//! on-disk forms.  One in-memory form serves it whatever the input: a
//! registry entry holds the [`ModelArtifact`], whose
//! [`ConjunctiveMapping`](palmed_core::ConjunctiveMapping) is the dense
//! table the trainer built.
//!
//! | input | entry points | cost at load |
//! |-------|--------------|--------------|
//! | in-memory artifact | [`ModelRegistry::register`] | none |
//! | **v1 text** | [`ModelRegistry::load_file`], [`ModelRegistry::swap_bytes`], [`ModelArtifact::parse`] | parse every decimal into dense rows |
//! | **v2b** bytes | [`ModelRegistry::load_file`], [`ModelRegistry::swap_bytes`], [`ModelArtifact::parse_v2`] | validate the CSR section and scatter it into dense rows, one pass |
//!
//! Bytes in the retired `PALMED-DISJ v1` format (a disjunctive port mapping,
//! the model class of the PMEvo and uops.info baselines) are rejected by
//! name, with a structured [`ArtifactError::MalformedBinary`] at offset 0.
//!
//! There is one prediction loop,
//! [`ConjunctiveMapping::kernel_load_into`](palmed_core::ConjunctiveMapping::kernel_load_into),
//! so every way in predicts bit-identically, and an entry hands back the
//! exact artifact it installed ([`RegistryEntry::model`]).
//!
//! Every stat and read behind these loads goes through the [`ArtifactIo`]
//! seam ([`io`]): [`RealIo`] (the default) forwards to `std::fs`, while
//! [`ModelRegistry::with_io`] accepts any other backend — the deterministic
//! fault injector in `palmed-fuzz` scripts short reads, transient errors,
//! torn snapshots and mtime flapping through it to fuzz the whole refresh
//! loop.
//!
//! # Versions and migration
//!
//! Every registry entry reports its sniffed [`ModelKind`] (format version).
//! The two forms convert losslessly into each other:
//!
//! | from \ to | v1 text | v2b |
//! |-----------|---------|-----|
//! | **v1 text** | — | [`migrate_v1_to_v2b`] / [`ModelArtifact::render_v2`] |
//! | **v2b** | [`ModelArtifact::render`] after [`ModelArtifact::parse_v2`] | — |
//!
//! Migrating in either direction reproduces the artifact bit for bit (round
//! trips are asserted by the codec property tests).  There is no migration
//! from `PALMED-DISJ v1`: a disjunctive port mapping is a different model
//! class, and flattening it into conjunctive resources is the inference
//! problem Palmed itself solves.
//!
//! # Model artifact format (`PALMED-MODEL v1`)
//!
//! Line-oriented UTF-8 text.  Lines starting with `#` are comments; they are
//! ignored by the parser but, like every other byte before the `checksum`
//! line, enter the checksum.  All names are whitespace-free tokens.  Usage
//! values are written in Rust's shortest round-trip decimal form, so a
//! save/load cycle reproduces every `f64` bit for bit.
//!
//! ```text
//! PALMED-MODEL v1
//! machine <name>                        architecture / preset this model serves
//! source <name>                         originating disjunctive machine description
//! instructions <n>
//! I <index> <name> <class> <extension>  n lines, index dense and ascending
//! resources <m>
//! R <index> <name>                      m lines, index dense and ascending
//! rows <k>
//! M <inst-index> <res>:<value> ...      k lines, sparse usage rows, ascending
//! end
//! checksum <16 hex digits>              FNV-1a 64 over all preceding bytes
//! ```
//!
//! # Model artifact format (`PALMED-MODEL v2b`)
//!
//! Length-prefixed little-endian binary; the same model as v1, laid out so a
//! load is one validate pass that scatters a CSR section (the non-zero
//! usages of each row) into the mapping's dense rows (every `f64`
//! is its raw bit pattern — no float parsing, no re-derivation).  On disk
//! the rows stay sparse, so an artifact's size follows its non-zero
//! usages; a model may declare at most one dense usage cell (`s × m`) per
//! byte of its artifact, a bound both conjunctive formats check before any
//! row is allocated.  A
//! v1↔v2 round trip reproduces the artifact bit for bit.  Strings are a
//! `u32` byte length followed by UTF-8; class/extension codes index
//! [`ExecClass::ALL`](palmed_isa::ExecClass::ALL) /
//! [`Extension::ALL`](palmed_isa::Extension::ALL):
//!
//! ```text
//! magic         "PALMED-MODEL v2b\n"                       17 bytes
//! machine       string                                     architecture / preset
//! source        string                                     provenance
//! instructions  u32 n; n × { string, u8 class, u8 ext }
//! resources     u32 m; m × { string }
//! row slots     u32 s                                      last mapped index + 1
//! mapped        s × u8 (0|1)                               per-slot "has a row" flag
//! row_ptr       (s+1) × u32                                CSR row boundaries, 0 … nnz
//! nnz           u32
//! cols          nnz × u32                                  ascending within a row, < m
//! vals          nnz × u64                                  f64 bits, finite, > 0
//! checksum      u64                                        FNV-1a 64 over all preceding bytes
//! ```
//!
//! # Corpus format (`PALMED-CORPUS v1`)
//!
//! One basic block per line: a name, a dynamic execution weight, and the
//! instruction mix as `NAME×COUNT` pairs (`×` is U+00D7, which cannot occur
//! in instruction names):
//!
//! ```text
//! PALMED-CORPUS v1
//! <name> <weight> <inst>×<count> <inst>×<count> ...
//! ```
//!
//! # Threat model
//!
//! The artifact plane accepts bytes it does not trust — files other
//! processes write, hot-reload sources that can be replaced or truncated
//! mid-read.  Three properties are defended, by three different mechanisms,
//! and it matters which one a check gives you:
//!
//! | property | mechanism | defeats | does **not** defeat |
//! |----------|-----------|---------|---------------------|
//! | **integrity** | FNV-1a-64 trailers, v1 `checksum` line | truncation, bit rot, hand edits | an adversary, who re-hashes a crafted body |
//! | **identity / determinism** | `PALMED-FPRINT v1` sidecar: FNV-1a-64 over predictions on a pinned probe corpus | the wrong (but well-formed) model being served; nondeterministic load paths | an adversary, who recomputes the unkeyed fingerprint |
//! | **authenticity / provenance** | `PALMED-FPRINT v2` sidecar: the v1 body plus an HMAC-SHA256 tag ([`sign`]) | artifact + sidecar replacement by a writer who does not hold the key | a key holder; key theft; rollback to an older *genuinely signed* artifact |
//!
//! * **Checksums are integrity, not authentication.**  Every structural
//!   check therefore holds on its own: declared counts never drive
//!   allocations (pre-allocations are capped, real growth is bounded by the
//!   buffer length, and a conjunctive model's dense rows by one cell per
//!   input byte), CSR pointer arrays are pinned to `0..nnz` and monotone
//!   before any row is walked, names must be whitespace-free tokens, and
//!   every rejection is a structured [`ArtifactError`] — decoding never
//!   panics on untrusted input.  These invariants are exercised continuously
//!   by the coverage-guided mutational fuzzer in `crates/fuzz`
//!   (`fuzz_codecs`).
//! * **Validation promises decodability, not provenance.**  A buffer that
//!   validates is a well-formed model; nothing says it is the model you
//!   deployed.  Fingerprints ([`fingerprint::model_fingerprint`],
//!   [`ModelArtifact::fingerprint`]) pin *which* model is served — recorded in
//!   a `.fp` sidecar at save time
//!   ([`ModelArtifact::save_v2_with_fingerprint`]) and verified by the
//!   registry at load and refresh time; every way of installing one model —
//!   registered, v1 text, v2b bytes, migrated — fingerprints identically.
//!   But an unkeyed fingerprint is determinism evidence, not a signature.
//!   **Signed sidecars** ([`ModelArtifact::save_v2_with_signed_fingerprint`],
//!   [`write_signed_sidecar`]) add the missing key: the v2 sidecar carries
//!   an HMAC-SHA256 tag over its header and fingerprint lines, and a
//!   registry configured with [`ModelRegistry::set_signing_keys`] rejects any
//!   sidecar whose tag does not verify
//!   ([`ArtifactError::SignatureMismatch`]) — a structured failure that
//!   feeds the same backoff/quarantine machinery as any other load error.
//!   Unkeyed v1 sidecars still verify under a keyed registry by default
//!   (adopting a key must not poison existing deployments); the strict
//!   policy, [`ModelRegistry::require_signed`], refuses a missing or
//!   unkeyed sidecar with [`ArtifactError::UnsignedArtifact`] once keys are
//!   configured.
//! * **Key handling is the deployment's problem.**  The key is held in
//!   process memory (no zeroization), compared tag-fold-constant-time
//!   ([`sign::verify_tag`]) but otherwise without side-channel hardening,
//!   and never rotated automatically: [`sign`] is a hand-rolled FIPS 180-4 /
//!   RFC 2104 implementation pinned to published vectors, not a crypto
//!   library.  A signed sidecar proves "someone holding the key blessed
//!   this exact fingerprint"; it does not timestamp, sequence, or revoke.
//! * **Hot reload is fault-tolerant, not transactional.**  The registry
//!   re-stats a source after reading and discards torn reads
//!   ([`ArtifactError::TornRead`]); repeated failures back off
//!   exponentially and eventually quarantine the source
//!   ([`ModelRegistry::health`], [`ModelRegistry::readmit`]) while the last
//!   good generation keeps serving.  Writers should still replace artifacts
//!   by atomic rename, so no reader ever sees a half-written file.  The
//!   whole loop — stat, read, retry, back off, quarantine, readmit — is
//!   driven through the [`ArtifactIo`] seam, so
//!   the `fuzz_registry` harness in `crates/fuzz` replays thousands of
//!   scripted fault schedules against it and asserts the last good
//!   generation serves bit-identically after every step.
//! * **The wire inherits this stance.**  The `palmed-wire` crate puts this
//!   plane behind a UNIX socket speaking length-prefixed `PALMED-WIRE v1`
//!   frames built from the same [`codec`] cursor/trailer primitives, and
//!   the same rules carry over: frames are untrusted input, every
//!   rejection is a structured error with a class and byte offset (never a
//!   panic), and a frame's FNV trailer is integrity, not provenance — a
//!   decodable frame is well-formed, not authenticated.  Authenticity
//!   stays with the signed sidecars here on the artifact side; a malformed
//!   frame poisons one connection, never the process.  The `fuzz_wire`
//!   harness replays hostile connection schedules against that server the
//!   way `fuzz_registry` does against the refresh loop.
//!
//! # Observability
//!
//! The serving hot paths and the registry's health machinery are
//! instrumented with `palmed-obs` (disabled by default; arm with
//! `PALMED_OBS=1` or [`palmed_obs::set_enabled`]).  While disabled the
//! instrumentation is a single relaxed atomic load per site — nothing
//! registers, nothing allocates.  What an armed process exports:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `serve.ingest.prepared_batches` | counter | [`PreparedBatch`] constructions (ingest) |
//! | `serve.batch.requests` | counter | [`BatchPredictor`] serve calls |
//! | `serve.batch.inputs` | counter | input slots across all serves |
//! | `serve.batch.distinct` | counter | distinct kernels actually evaluated |
//! | `serve.batch.dedup_hits` | counter | inputs answered from a duplicate (`inputs − distinct`) |
//! | `serve.batch.serve_ns` | histogram | per-serve wall latency, nanoseconds |
//! | `serve.registry.entries` | gauge | live registry entries |
//! | `serve.registry.{installs,swaps,reloads,readmits,removes}` | counters | lifecycle operations |
//! | `serve.registry.torn_read_retries` | counter | torn reads discarded by the stable-read loop |
//! | `serve.registry.refresh.{polls,reloaded,errors,backed_off,quarantined,clean}` | counters | one per watched entry per [`ModelRegistry::refresh`], split by outcome; the identity `polls = reloaded + errors + backed_off + quarantined + clean` holds after every refresh |
//!
//! Every health transition additionally emits a structured event —
//! `registry.install`, `registry.swap`, `registry.reload`,
//! `registry.reload_failed` (with the [`ArtifactError::class`] label),
//! `registry.backoff`, `registry.quarantine`, `registry.readmit`,
//! `registry.torn_read_retry`, `registry.remove` — so a corrupt-then-restore
//! incident leaves a complete audit trail in
//! [`palmed_obs::drain_events`]-order (asserted end to end by the
//! `obs_audit_trail` integration test).
//!
//! # Quickstart
//!
//! ```
//! use palmed_core::{Palmed, PalmedConfig};
//! use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};
//! use palmed_serve::{BatchPredictor, ModelArtifact};
//! use palmed_isa::Microkernel;
//!
//! // One-time inference on the paper's pedagogical machine.
//! let machine = presets::paper_ports016();
//! let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(machine.mapping_arc()));
//! let result = Palmed::new(PalmedConfig::small()).infer(&measurer);
//!
//! // Persist, reload, serve.
//! let artifact = ModelArtifact::new(
//!     machine.name(),
//!     machine.description.name.clone(),
//!     (*machine.instructions).clone(),
//!     result.mapping.clone(),
//! );
//! let reloaded = ModelArtifact::parse(&artifact.render()).unwrap();
//! let addss = reloaded.instructions.find("ADDSS").unwrap();
//! let bsr = reloaded.instructions.find("BSR").unwrap();
//! let kernels = vec![Microkernel::pair(addss, 2, bsr, 1); 1000];
//! let served = BatchPredictor::new(reloaded.mapping()).predict(&kernels);
//! assert_eq!(served.distinct, 1); // 1000 identical blocks, 1 evaluation
//! assert_eq!(served.ipcs.len(), 1000);
//! ```

pub mod artifact;
pub mod batch;
mod binfmt;
pub mod checksum;
pub mod codec;
pub mod compiled;
pub mod corpus;
pub mod fingerprint;
pub mod io;
pub mod registry;
pub mod sign;

pub use artifact::{ArtifactError, ModelArtifact};
pub use batch::{BatchMerge, BatchPredictor, BatchResult, PreparedBatch};
pub use codec::{migrate_v1_to_v2b, ModelKind};
pub use compiled::CompiledModel;
pub use corpus::{Corpus, CorpusBlock, CorpusError};
pub use fingerprint::{
    model_fingerprint, probe_corpus, read_sidecar, read_sidecar_with, sidecar_path, write_sidecar,
    write_signed_sidecar, Sidecar,
};
pub use io::{ArtifactIo, FileMeta, RealIo};
pub use registry::{
    EntryHealth, ModelRegistry, RefreshOutcome, RefreshStatus, RegistryEntry, RegistrySnapshot,
};
