//! The model registry: several named architectures served side by side,
//! hot-swappable under concurrent readers.
//!
//! A serving process holds one model per target machine (`skl-sp-like`,
//! `zen1-like`, ...) and dispatches each prediction request to the right
//! one — while operators push updated artifacts underneath it.
//! [`ModelRegistry`] is built for that shape:
//!
//! * **One family, two on-disk forms.**  Every entry is a [`RegistryEntry`]
//!   around the [`ModelArtifact`] it installed (provenance, instruction set
//!   and the [`ConjunctiveMapping`](palmed_core::ConjunctiveMapping) it
//!   predicts from), tagged with the [`ModelKind`] it was installed from:
//!   v1 text is parsed, `v2b` bytes are validated and scattered from their
//!   CSR section in one pass ([`ModelArtifact::parse_bytes`] either way),
//!   and in-memory artifacts install as they are.
//!   [`ModelRegistry::load_file`] and [`ModelRegistry::swap_bytes`] sniff
//!   the form, and reject bytes in the retired `PALMED-DISJ v1` format by
//!   name.
//! * **Atomic generation swap.**  The registry state is one immutable
//!   snapshot behind `RwLock<Arc<_>>`: readers take the lock only long
//!   enough to clone an `Arc` ([`ModelRegistry::snapshot`] /
//!   [`ModelRegistry::get`]); **no lock is held during prediction**.
//!   Writers build the next snapshot and swap it in with a bumped
//!   generation ([`ModelRegistry::swap_bytes`],
//!   [`ModelRegistry::reload_file`]); in-flight readers keep their `Arc`
//!   and the old generation stays fully valid until the last clone drops.
//! * **File-watch semantics without OS APIs.**  File-loaded entries record
//!   their source path plus the mtime/length observed at load;
//!   [`ModelRegistry::refresh`] polls those and reloads whatever changed —
//!   a poll loop in the serving process gives hot reload with nothing but
//!   `std`.
//! * **Fault-tolerant refresh.**  Loads re-stat the source *after* reading
//!   and retry (then reject, [`ArtifactError::TornRead`]) when the file
//!   changed mid-read; a `.fp` fingerprint sidecar, when present, must
//!   match the loaded model's predictions
//!   ([`ArtifactError::FingerprintMismatch`]).  Reload failures back off
//!   exponentially (capped at [`MAX_BACKOFF_POLLS`] skipped polls) and
//!   after [`QUARANTINE_AFTER`] consecutive failures the source is
//!   **quarantined** — no longer polled, while the last good generation
//!   keeps serving — until [`ModelRegistry::readmit`] clears it.
//!   [`ModelRegistry::health`] reports all of this per entry.
//! * **Version/migration story.**  Each entry reports its sniffed
//!   [`ModelKind`] (on-disk version);
//!   [`migrate_v1_to_v2b`](crate::migrate_v1_to_v2b) converts the
//!   conjunctive text form to the binary form losslessly.  See the crate
//!   docs for the full migration matrix.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::codec::ModelKind;
use crate::io::{ArtifactIo, RealIo};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

/// Consecutive reload failures after which [`ModelRegistry::refresh`]
/// quarantines a source: the file stops being polled (the last good
/// generation keeps serving) until [`ModelRegistry::readmit`] clears it.
pub const QUARANTINE_AFTER: u32 = 4;

/// Cap on the exponential refresh backoff, in skipped polls: after the
/// `f`-th consecutive failure the next `min(2^(f-1), MAX_BACKOFF_POLLS)`
/// refresh calls skip the entry without touching the filesystem.
pub const MAX_BACKOFF_POLLS: u32 = 16;

/// Attempts a stable read makes (stat, read, re-stat) before giving up with
/// [`ArtifactError::TornRead`].
const TORN_READ_RETRIES: u32 = 3;

/// The source file a registry entry watches: path plus the metadata
/// observed at load time, compared by [`ModelRegistry::refresh`].
#[derive(Debug, Clone)]
struct SourceFile {
    path: PathBuf,
    mtime: Option<SystemTime>,
    len: u64,
}

impl SourceFile {
    /// Stats `path` *before* the load reads it, so a concurrent rewrite
    /// between stat and read is re-observed (and re-loaded) by the next
    /// [`ModelRegistry::refresh`] rather than missed.
    fn observe(io: &dyn ArtifactIo, path: &Path) -> SourceFile {
        let meta = io.stat(path).ok();
        SourceFile {
            path: path.to_path_buf(),
            mtime: meta.as_ref().and_then(|m| m.mtime),
            len: meta.map_or(0, |m| m.len),
        }
    }

    /// True when the file's current metadata differs from what was observed
    /// at load time.
    fn is_stale(&self, io: &dyn ArtifactIo) -> bool {
        match io.stat(&self.path) {
            Ok(meta) => meta.mtime != self.mtime || meta.len != self.len,
            // Vanished files count as stale; the reload will surface the
            // I/O error to the caller.
            Err(_) => true,
        }
    }
}

/// One immutable registry entry: a named, kind-tagged model installed at a
/// specific generation.  Cheap to share (`Arc`) and valid for as long as
/// any reader holds it, regardless of later swaps.
#[derive(Debug)]
pub struct RegistryEntry {
    name: String,
    kind: ModelKind,
    generation: u64,
    fingerprint: u64,
    source: Option<SourceFile>,
    model: ModelArtifact,
}

impl RegistryEntry {
    /// The name this entry is registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model kind (format version): sniffed from the bytes for loads
    /// and swaps, the canonical interchange form
    /// ([`ModelKind::ConjunctiveV1`]) for memory-registered artifacts.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The registry generation this entry was installed at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The entry's determinism fingerprint, computed at install time from
    /// the model's predictions on the pinned probe corpus (see
    /// [`model_fingerprint`](crate::fingerprint::model_fingerprint)).  Two
    /// entries serving the same model report the same value regardless of
    /// format or how they were installed.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The served model: the artifact this entry installed, whatever form
    /// it arrived in.  Predictions run on its mapping
    /// ([`ModelArtifact::batch`]).
    pub fn model(&self) -> &ModelArtifact {
        &self.model
    }
}

/// One immutable generation of the registry: the entry table as it stood
/// after some write.  Readers hold an `Arc` of this and look names up with
/// no further synchronisation.
#[derive(Debug, Default)]
pub struct RegistrySnapshot {
    generation: u64,
    entries: BTreeMap<String, Arc<RegistryEntry>>,
}

impl RegistrySnapshot {
    /// The generation counter of this snapshot (bumped by every write).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks a model up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<RegistryEntry>> {
        self.entries.get(name)
    }

    /// All entries, in name order.
    pub fn entries(&self) -> impl Iterator<Item = &Arc<RegistryEntry>> {
        self.entries.values()
    }

    /// Registered names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What one [`ModelRegistry::refresh`] poll did: which entries were
/// reloaded, and which stale entries failed to (their old generation stays
/// installed — a serving process keeps serving the last good model).
#[derive(Debug, Default)]
pub struct RefreshOutcome {
    /// Names whose entries were reloaded from a changed source file.
    pub reloaded: Vec<String>,
    /// Stale entries whose reload failed, with the failure.
    pub errors: Vec<(String, ArtifactError)>,
    /// Entries this poll skipped because an earlier failure's exponential
    /// backoff is still draining (their files were not even stat'ed).
    pub backed_off: Vec<String>,
    /// Entries this poll **newly** quarantined ([`QUARANTINE_AFTER`]
    /// consecutive failures reached); these names also appear in
    /// [`RefreshOutcome::errors`] with the failure that tipped them over.
    /// Already-quarantined entries are skipped silently into
    /// [`RefreshOutcome::quarantine_skipped`] — see
    /// [`ModelRegistry::health`].
    pub quarantined: Vec<String>,
    /// Entries skipped without a stat because they are already quarantined.
    pub quarantine_skipped: Vec<String>,
    /// Entries polled and found unchanged (stat matched the recorded
    /// mtime/length; nothing was read or reloaded).
    pub clean: Vec<String>,
}

impl RefreshOutcome {
    /// True when nothing changed and nothing failed (entries quietly waiting
    /// out a backoff, skipping a quarantine, or polling clean do not count
    /// as noise).
    pub fn is_quiet(&self) -> bool {
        self.reloaded.is_empty() && self.errors.is_empty() && self.quarantined.is_empty()
    }

    /// Entries this poll accounted for, across every disposition.  One
    /// refresh touches each watched entry exactly once, so this always
    /// equals the number of watched entries in the polled snapshot —
    /// `reloaded + errors + backed_off + quarantine_skipped + clean`
    /// (newly-quarantined names live inside `errors`) — the accounting
    /// identity the registry fault fuzzer (`fuzz_registry`) asserts after
    /// every step.
    pub fn accounted(&self) -> usize {
        self.reloaded.len()
            + self.errors.len()
            + self.backed_off.len()
            + self.quarantine_skipped.len()
            + self.clean.len()
    }
}

/// Where one entry stands with respect to [`ModelRegistry::refresh`] — the
/// `status` field of [`EntryHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshStatus {
    /// No refresh has touched the entry since install, or the last poll
    /// found the source unchanged.
    #[default]
    Current,
    /// The last poll (or [`ModelRegistry::reload_file`] /
    /// [`ModelRegistry::readmit`]) reloaded the entry successfully.
    Reloaded,
    /// The last reload attempt failed; the entry is backing off.
    Failed,
    /// The last poll skipped the entry because its backoff is draining.
    BackingOff,
    /// The source is quarantined: [`QUARANTINE_AFTER`] consecutive failures,
    /// no longer polled until [`ModelRegistry::readmit`].
    Quarantined,
}

/// Per-entry health report of [`ModelRegistry::health`]: what is installed,
/// and how its watched source has been behaving.
#[derive(Debug, Clone)]
pub struct EntryHealth {
    /// The entry's registry name.
    pub name: String,
    /// The installed model kind.
    pub kind: ModelKind,
    /// Generation of the currently-installed (last good) entry.
    pub generation: u64,
    /// Determinism fingerprint of the installed model.
    pub fingerprint: u64,
    /// True when the entry watches a source file (refresh applies to it).
    pub watched: bool,
    /// Outcome of the most recent refresh interaction.
    pub status: RefreshStatus,
    /// Consecutive reload failures since the last success.
    pub consecutive_failures: u32,
    /// Polls the entry will still skip before the next reload attempt.
    pub backoff_remaining: u32,
    /// True when the source is quarantined.
    pub quarantined: bool,
    /// Rendered form of the most recent reload failure, if any.
    pub last_error: Option<String>,
}

/// Mutable refresh bookkeeping for one entry, kept outside the immutable
/// snapshots so failure counters do not burn registry generations.
#[derive(Debug, Clone, Default)]
struct HealthState {
    consecutive_failures: u32,
    backoff_remaining: u32,
    quarantined: bool,
    last_status: RefreshStatus,
    last_error: Option<String>,
}

/// What the refresh gate decided for one entry, under the health lock.
enum Gate {
    /// Poll the source and reload if stale.
    Attempt,
    /// Backoff still draining: skip without touching the filesystem.
    Backoff,
    /// Quarantined: skip silently until readmitted.
    Quarantined,
}

/// Named model table, keyed by architecture name: a concurrent store whose
/// writes install whole new generations and whose readers never block a
/// prediction (see the module docs).
///
/// All methods take `&self`; share a registry between threads as
/// `Arc<ModelRegistry>`.
#[derive(Debug)]
pub struct ModelRegistry {
    shared: RwLock<Arc<RegistrySnapshot>>,
    /// Refresh bookkeeping, keyed by entry name.  Locked only for brief
    /// read-modify-write sections, never across the snapshot `RwLock` or
    /// any filesystem call.
    health: Mutex<BTreeMap<String, HealthState>>,
    /// Every stat and read the registry performs goes through this
    /// seam — [`RealIo`] in production, a scripted fault injector under
    /// test (see [`ModelRegistry::with_io`]).
    io: Arc<dyn ArtifactIo>,
    /// Trusted HMAC keys for `PALMED-FPRINT v2` sidecar verification, when
    /// configured ([`ModelRegistry::set_signing_keys`]).  The first key is
    /// the *primary* (the one new sidecars are signed with); the rest are
    /// still-trusted older keys kept through a rotation window.  Empty
    /// means unkeyed.
    signing_keys: Mutex<Vec<Vec<u8>>>,
    /// Strict provenance policy ([`ModelRegistry::require_signed`]): with
    /// signing keys configured, refuse file loads whose sidecar is missing
    /// or unsigned instead of degrading to fingerprint-only verification.
    require_signed: AtomicBool,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::with_io(Arc::new(RealIo))
    }
}

impl Clone for ModelRegistry {
    /// Clones the current snapshot into an independent registry (entries
    /// and the I/O backend are shared by `Arc`; subsequent writes diverge).
    fn clone(&self) -> Self {
        let snapshot = self.snapshot();
        ModelRegistry {
            shared: RwLock::new(Arc::new(RegistrySnapshot {
                generation: snapshot.generation,
                entries: snapshot.entries.clone(),
            })),
            health: Mutex::new(self.health.lock().expect("health lock").clone()),
            io: Arc::clone(&self.io),
            signing_keys: Mutex::new(self.signing_keys.lock().expect("signing key lock").clone()),
            require_signed: AtomicBool::new(self.require_signed.load(Ordering::Relaxed)),
        }
    }
}

impl ModelRegistry {
    /// An empty registry at generation 0, backed by the real filesystem.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// An empty registry whose file access runs through `io` — the seam the
    /// deterministic fault-injection harness (`fuzz_registry`) drives the
    /// refresh/backoff/quarantine machinery through.  Production callers
    /// use [`ModelRegistry::new`].
    pub fn with_io(io: Arc<dyn ArtifactIo>) -> Self {
        ModelRegistry {
            shared: RwLock::new(Arc::new(RegistrySnapshot::default())),
            health: Mutex::new(BTreeMap::new()),
            io,
            signing_keys: Mutex::new(Vec::new()),
            require_signed: AtomicBool::new(false),
        }
    }

    /// Configures the *rotation set* of trusted HMAC keys signed
    /// `PALMED-FPRINT v2` sidecars are verified against.  With keys set,
    /// every file load whose sidecar is v2 must carry a tag that verifies
    /// under one of them ([`ArtifactError::SignatureMismatch`] otherwise —
    /// a structured reject feeding the same backoff/quarantine path as any
    /// other reload failure).  Unkeyed v1 sidecars (and missing ones) are
    /// accepted with fingerprint-only verification unless
    /// [`ModelRegistry::require_signed`] is on, which refuses them with
    /// [`ArtifactError::UnsignedArtifact`]; without keys a v2 sidecar
    /// degrades to fingerprint-only verification.
    ///
    /// The first key is the primary — the one new sidecars are signed with
    /// and the one whose mismatch is reported when nothing verifies — while
    /// the rest are still-trusted older keys kept through a rotation
    /// window, so artifacts signed before a key roll keep admitting until
    /// they are re-signed.  Dropping a key from the set retires it:
    /// sidecars signed only with a retired key reject as
    /// [`ArtifactError::SignatureMismatch`] on their next load.  An empty
    /// vector clears keyed verification entirely.  Takes effect on the
    /// next load; already-installed entries are not re-verified.
    pub fn set_signing_keys(&self, keys: Vec<Vec<u8>>) {
        *self.signing_keys.lock().expect("signing key lock") = keys;
    }

    /// Turns the strict provenance policy on (or back off): while enabled
    /// *and* signing keys are configured, every file load and refresh
    /// reload whose sidecar is missing or is an unkeyed `PALMED-FPRINT v1`
    /// is refused with [`ArtifactError::UnsignedArtifact`] (class
    /// `unsigned-artifact`) — a structured rejection that feeds the normal
    /// refresh backoff/quarantine ladder like any other reload failure.
    ///
    /// Without keys the policy is inert: there is nothing to verify a
    /// signature against, so requiring one would brick every load.  Takes
    /// effect on the next load; already-installed entries are not
    /// re-verified.  In-memory installs ([`ModelRegistry::register`]) are
    /// unaffected — the policy governs *file* provenance.
    pub fn require_signed(&self, on: bool) {
        self.require_signed.store(on, Ordering::Relaxed);
    }

    /// The current immutable snapshot.  Taking it holds the lock only for
    /// an `Arc` clone; everything after — lookups, predictions — runs
    /// lock-free on the snapshot, which stays valid (old generation
    /// included) until the last holder drops it.
    pub fn snapshot(&self) -> Arc<RegistrySnapshot> {
        self.shared.read().expect("registry lock").clone()
    }

    /// The current generation (bumped by every successful write).
    pub fn generation(&self) -> u64 {
        self.shared.read().expect("registry lock").generation
    }

    /// Runs one write: clones the entry table, lets `mutate` edit it, and
    /// installs the result as the next generation.  Readers holding the old
    /// snapshot are unaffected.
    fn write<R>(
        &self,
        mutate: impl FnOnce(&mut BTreeMap<String, Arc<RegistryEntry>>, u64) -> R,
    ) -> R {
        self.try_write(|entries, generation| Ok::<R, ArtifactError>(mutate(entries, generation)))
            .expect("infallible mutation")
    }

    /// [`ModelRegistry::write`] whose mutation may fail: on `Err` nothing is
    /// installed and no generation is burnt (no-op writes like removing an
    /// absent name go through here).  Writers serialise against each other;
    /// readers only wait for the final snapshot swap, never for a
    /// prediction, so mutations should do their expensive work (decode,
    /// fingerprint) before entering.
    fn try_write<R, E>(
        &self,
        mutate: impl FnOnce(&mut BTreeMap<String, Arc<RegistryEntry>>, u64) -> Result<R, E>,
    ) -> Result<R, E> {
        let mut guard = self.shared.write().expect("registry lock");
        let generation = guard.generation + 1;
        let mut entries = guard.entries.clone();
        let result = mutate(&mut entries, generation)?;
        *guard = Arc::new(RegistrySnapshot { generation, entries });
        Ok(result)
    }

    /// Runs a brief read-modify-write on the health table.  Kept as the
    /// single access path so the lock is provably never held across the
    /// snapshot `RwLock` or a filesystem call.
    fn with_health<R>(&self, f: impl FnOnce(&mut BTreeMap<String, HealthState>) -> R) -> R {
        f(&mut self.health.lock().expect("health lock"))
    }

    /// Installs a model under `name`, replacing any previous entry,
    /// computing the fingerprint from the payload.
    fn install(
        &self,
        name: String,
        kind: ModelKind,
        source: Option<SourceFile>,
        model: ModelArtifact,
    ) -> Arc<RegistryEntry> {
        let fingerprint = model.fingerprint();
        self.install_with(name, kind, source, model, fingerprint)
    }

    /// [`ModelRegistry::install`] with a pre-computed fingerprint.  A fresh
    /// install wipes any refresh failure history recorded under the name.
    fn install_with(
        &self,
        name: String,
        kind: ModelKind,
        source: Option<SourceFile>,
        model: ModelArtifact,
        fingerprint: u64,
    ) -> Arc<RegistryEntry> {
        let entry = self.write(|entries, generation| {
            let entry = Arc::new(RegistryEntry {
                name: name.clone(),
                kind,
                generation,
                fingerprint,
                source,
                model,
            });
            entries.insert(name, Arc::clone(&entry));
            entry
        });
        self.with_health(|health| {
            health.remove(entry.name());
        });
        palmed_obs::counter!("serve.registry.installs").inc();
        palmed_obs::gauge!("serve.registry.entries").set(self.len() as f64);
        palmed_obs::event!("registry.install", key = entry.name(), generation = entry.generation(),);
        entry
    }

    /// Registers an artifact under its own machine name; replaces any
    /// previous model of that name and returns the installed entry.
    /// Memory-registered entries report [`ModelKind::ConjunctiveV1`] — the
    /// canonical interchange form — since no on-disk format was involved.
    pub fn register(&self, artifact: ModelArtifact) -> Arc<RegistryEntry> {
        let name = artifact.machine.clone();
        self.install(name, ModelKind::ConjunctiveV1, None, artifact)
    }

    /// Decodes a buffer into the model an entry serves, with its sniffed
    /// kind ([`ModelArtifact::parse_bytes`], which rejects the retired
    /// `PALMED-DISJ v1` format by name).
    fn decode_entry(bytes: &[u8]) -> Result<(ModelKind, ModelArtifact), ArtifactError> {
        Ok((ModelKind::sniff(bytes), ModelArtifact::parse_bytes(bytes)?))
    }

    /// Loads a model entry from a file — the shared core of first loads and
    /// refresh reloads.  The read is *stable* (re-stat after reading, retry
    /// on mismatch — see [`read_stable_with`]), the payload's fingerprint
    /// is computed, and when a `.fp` sidecar exists next to the file it
    /// must verify: a signed v2 sidecar's HMAC tag against the configured
    /// key ([`ArtifactError::SignatureMismatch`]), then the recorded
    /// fingerprint against the model's predictions
    /// ([`ArtifactError::FingerprintMismatch`]) — a model that decodes but
    /// is not the one that was deployed never installs.
    fn load_path(&self, path: &Path) -> Result<Loaded, ArtifactError> {
        let io = self.io.as_ref();
        let (source, bytes) = read_stable(io, path)?;
        let (kind, model) = Self::decode_entry(&bytes)?;
        let fingerprint = model.fingerprint();
        let sidecar = crate::fingerprint::read_sidecar_with(io, path)?;
        let keys = self.signing_keys.lock().expect("signing key lock").clone();
        if self.require_signed.load(Ordering::Relaxed)
            && !keys.is_empty()
            && sidecar.as_ref().is_none_or(|s| s.version() < 2)
        {
            // Strict provenance: with keys configured, a missing sidecar or
            // an unkeyed v1 one proves nothing about who deployed the bytes.
            return Err(ArtifactError::UnsignedArtifact { path: path.to_path_buf() });
        }
        if let Some(sidecar) = sidecar {
            sidecar.verify_any(&keys)?;
            if sidecar.fingerprint != fingerprint {
                return Err(ArtifactError::FingerprintMismatch {
                    expected: sidecar.fingerprint,
                    computed: fingerprint,
                });
            }
        }
        Ok(Loaded { source, kind, fingerprint, model })
    }

    /// Installs the product of a [`ModelRegistry::load_path`].
    fn install_loaded(&self, loaded: Loaded) -> Arc<RegistryEntry> {
        let Loaded { source, kind, fingerprint, model } = loaded;
        let name = model.machine.clone();
        self.install_with(name, kind, Some(source), model, fingerprint)
    }

    /// Loads, verifies and registers an artifact file under the machine
    /// name stored in the file.  The format is sniffed from the first
    /// bytes: v1 text artifacts are parsed, and v2b binary artifacts are
    /// validated and scattered into dense rows in one pass
    /// ([`ModelArtifact::parse_bytes`]).  The entry records the file's
    /// mtime/length, so [`ModelRegistry::refresh`] picks up later rewrites.
    ///
    /// # Errors
    ///
    /// Propagates I/O and codec failures; a file in the retired
    /// `PALMED-DISJ v1` format fails with [`ArtifactError::MalformedBinary`]
    /// at offset 0.  The registry is left unchanged on error.
    pub fn load_file(&self, path: impl AsRef<Path>) -> Result<Arc<RegistryEntry>, ArtifactError> {
        Ok(self.install_loaded(self.load_path(path.as_ref())?))
    }

    /// Hot-swaps the model under `name` from an in-memory buffer, installing
    /// a new generation without blocking in-flight readers (they keep their
    /// snapshot; the old entry stays valid until the last `Arc` drops).
    ///
    /// The buffer decodes exactly like a [`ModelRegistry::load_file`] body
    /// (format sniffed; `v2b` validated and scattered, v1 text parsed), so
    /// the decision never reads the current entry and all decoding runs
    /// before the brief snapshot-swap lock.  The new entry is keyed under
    /// `name` regardless of the machine name inside the buffer, and no
    /// source file is watched afterwards (the bytes came from the caller,
    /// not disk).
    ///
    /// # Errors
    ///
    /// Propagates codec failures; the registry is left unchanged on error.
    pub fn swap_bytes(
        &self,
        name: impl Into<String>,
        bytes: Vec<u8>,
    ) -> Result<Arc<RegistryEntry>, ArtifactError> {
        let (kind, model) = Self::decode_entry(&bytes)?;
        let entry = self.install(name.into(), kind, None, model);
        palmed_obs::counter!("serve.registry.swaps").inc();
        palmed_obs::event!("registry.swap", key = entry.name(), generation = entry.generation());
        Ok(entry)
    }

    /// Reloads a file-backed entry from its recorded source path, keeping
    /// its registry name.  This is the forced
    /// version of what [`ModelRegistry::refresh`] does on change detection.
    ///
    /// # Errors
    ///
    /// Fails with [`ArtifactError::Io`] (kind `NotFound`) when `name` is
    /// not registered or has no source file; propagates load failures; and
    /// fails without installing when a concurrent writer replaced the entry
    /// between the staleness read and the install — the fresher
    /// installation wins, never the older file bytes.  In every error case
    /// the currently-installed entry stays serving.
    pub fn reload_file(&self, name: &str) -> Result<Arc<RegistryEntry>, ArtifactError> {
        let entry = self.get(name).ok_or_else(|| not_found(name, "no such entry"))?;
        let source =
            entry.source.as_ref().ok_or_else(|| not_found(name, "entry has no source file"))?;
        let loaded = self.load_path(&source.path)?;
        let reloaded = self.try_write(|entries, generation| {
            // Only replace the exact generation the reload decision was
            // made against; a concurrent swap or load is fresher than the
            // file bytes read above.
            if !entries.get(name).is_some_and(|current| Arc::ptr_eq(current, &entry)) {
                return Err(ArtifactError::Io(std::io::Error::other(format!(
                    "registry entry `{name}`: replaced concurrently during reload"
                ))));
            }
            let reloaded = Arc::new(RegistryEntry {
                name: name.to_string(),
                kind: loaded.kind,
                generation,
                fingerprint: loaded.fingerprint,
                source: Some(loaded.source),
                model: loaded.model,
            });
            entries.insert(name.to_string(), Arc::clone(&reloaded));
            Ok(reloaded)
        })?;
        // A successful reload wipes the failure history.
        self.with_health(|health| {
            health.insert(
                name.to_string(),
                HealthState { last_status: RefreshStatus::Reloaded, ..HealthState::default() },
            );
        });
        palmed_obs::counter!("serve.registry.reloads").inc();
        palmed_obs::event!(
            "registry.reload",
            key = reloaded.name(),
            generation = reloaded.generation(),
        );
        Ok(reloaded)
    }

    /// Polls every file-backed entry's source metadata (mtime + length) and
    /// reloads the stale ones — file-watch semantics with nothing but
    /// `std`.  A serving loop calls this periodically; readers in flight
    /// during a reload keep predicting on their old snapshot.
    ///
    /// Reload failures do not disturb the failing entry (the last good
    /// model keeps serving) and are reported in the outcome rather than
    /// aborting the poll.  A failing entry is retried with exponential
    /// backoff (skipping `min(2^(f-1), MAX_BACKOFF_POLLS)` polls after the
    /// `f`-th consecutive failure) and quarantined — not polled at all —
    /// after [`QUARANTINE_AFTER`] consecutive failures, until
    /// [`ModelRegistry::readmit`] clears it; see [`ModelRegistry::health`].
    pub fn refresh(&self) -> RefreshOutcome {
        let snapshot = self.snapshot();
        let mut outcome = RefreshOutcome::default();
        for entry in snapshot.entries() {
            let Some(source) = entry.source.as_ref() else { continue };
            palmed_obs::counter!("serve.registry.refresh.polls").inc();
            let gate = self.with_health(|health| {
                let state = health.entry(entry.name.clone()).or_default();
                if state.quarantined {
                    Gate::Quarantined
                } else if state.backoff_remaining > 0 {
                    state.backoff_remaining -= 1;
                    state.last_status = RefreshStatus::BackingOff;
                    Gate::Backoff
                } else {
                    Gate::Attempt
                }
            });
            match gate {
                Gate::Quarantined => {
                    palmed_obs::counter!("serve.registry.refresh.quarantined").inc();
                    outcome.quarantine_skipped.push(entry.name.clone());
                    continue;
                }
                Gate::Backoff => {
                    palmed_obs::counter!("serve.registry.refresh.backed_off").inc();
                    outcome.backed_off.push(entry.name.clone());
                    continue;
                }
                Gate::Attempt => {}
            }
            if !source.is_stale(self.io.as_ref()) {
                self.with_health(|health| {
                    let state = health.entry(entry.name.clone()).or_default();
                    state.consecutive_failures = 0;
                    state.last_status = RefreshStatus::Current;
                    state.last_error = None;
                });
                palmed_obs::counter!("serve.registry.refresh.clean").inc();
                outcome.clean.push(entry.name.clone());
                continue;
            }
            match self.reload_file(&entry.name) {
                // `reload_file` already reset the health record.
                Ok(_) => {
                    palmed_obs::counter!("serve.registry.refresh.reloaded").inc();
                    outcome.reloaded.push(entry.name.clone());
                }
                Err(error) => {
                    let (newly_quarantined, failures, backoff_polls) = self.with_health(|health| {
                        let state = health.entry(entry.name.clone()).or_default();
                        state.consecutive_failures += 1;
                        state.last_error = Some(error.to_string());
                        if state.consecutive_failures >= QUARANTINE_AFTER {
                            state.quarantined = true;
                            state.backoff_remaining = 0;
                            state.last_status = RefreshStatus::Quarantined;
                            (true, state.consecutive_failures, 0)
                        } else {
                            state.backoff_remaining =
                                (1u32 << (state.consecutive_failures - 1)).min(MAX_BACKOFF_POLLS);
                            state.last_status = RefreshStatus::Failed;
                            (false, state.consecutive_failures, state.backoff_remaining)
                        }
                    });
                    palmed_obs::counter!("serve.registry.refresh.errors").inc();
                    palmed_obs::event!(
                        "registry.reload_failed",
                        key = entry.name(),
                        class = error.class(),
                        error = error.to_string(),
                    );
                    if newly_quarantined {
                        palmed_obs::event!(
                            "registry.quarantine",
                            key = entry.name(),
                            failures = failures,
                        );
                        outcome.quarantined.push(entry.name.clone());
                    } else {
                        palmed_obs::event!(
                            "registry.backoff",
                            key = entry.name(),
                            failures = failures,
                            backoff_polls = backoff_polls,
                        );
                    }
                    outcome.errors.push((entry.name.clone(), error));
                }
            }
        }
        outcome
    }

    /// Per-entry health: generation and fingerprint of the installed (last
    /// good) model, plus the refresh bookkeeping — last outcome,
    /// consecutive failures, remaining backoff, quarantine flag and the
    /// rendered last error.  Entries without a watched source report the
    /// default (healthy) state.
    pub fn health(&self) -> Vec<EntryHealth> {
        let snapshot = self.snapshot();
        self.with_health(|health| {
            snapshot
                .entries()
                .map(|entry| {
                    let state = health.get(&entry.name).cloned().unwrap_or_default();
                    EntryHealth {
                        name: entry.name.clone(),
                        kind: entry.kind,
                        generation: entry.generation,
                        fingerprint: entry.fingerprint,
                        watched: entry.source.is_some(),
                        status: state.last_status,
                        consecutive_failures: state.consecutive_failures,
                        backoff_remaining: state.backoff_remaining,
                        quarantined: state.quarantined,
                        last_error: state.last_error,
                    }
                })
                .collect()
        })
    }

    /// Clears an entry's quarantine / backoff state and forces a reload —
    /// the operator's "the file is fixed, trust it again" lever.  On
    /// success the entry is re-admitted to normal refresh polling; on
    /// failure it restarts the backoff ladder from one failure (it does
    /// *not* jump straight back to quarantine).
    ///
    /// # Errors
    ///
    /// Every [`ModelRegistry::reload_file`] failure; the installed entry
    /// keeps serving either way.  A name that is not registered or has no
    /// watched source fails up front *without* touching the health table —
    /// readmitting a memory-only entry must not leave a phantom failure
    /// record behind.
    pub fn readmit(&self, name: &str) -> Result<Arc<RegistryEntry>, ArtifactError> {
        let entry = self.get(name).ok_or_else(|| not_found(name, "no such entry"))?;
        if entry.source.is_none() {
            return Err(not_found(name, "entry has no source file"));
        }
        self.with_health(|health| {
            health.insert(name.to_string(), HealthState::default());
        });
        match self.reload_file(name) {
            Ok(entry) => {
                palmed_obs::counter!("serve.registry.readmits").inc();
                palmed_obs::event!("registry.readmit", key = name);
                Ok(entry)
            }
            Err(error) => {
                self.with_health(|health| {
                    let state = health.entry(name.to_string()).or_default();
                    state.consecutive_failures = 1;
                    state.backoff_remaining = 1;
                    state.last_status = RefreshStatus::Failed;
                    state.last_error = Some(error.to_string());
                });
                Err(error)
            }
        }
    }

    /// Removes a model, returning its entry (which stays valid for
    /// holders).  Removing an unregistered name is a no-op: no snapshot is
    /// installed and no generation is burnt.
    pub fn remove(&self, name: &str) -> Option<Arc<RegistryEntry>> {
        let removed = self.try_write(|entries, _| entries.remove(name).ok_or(())).ok();
        if removed.is_some() {
            self.with_health(|health| {
                health.remove(name);
            });
            palmed_obs::counter!("serve.registry.removes").inc();
            palmed_obs::gauge!("serve.registry.entries").set(self.len() as f64);
            palmed_obs::event!("registry.remove", key = name);
        }
        removed
    }

    /// Looks a model up by name in the current snapshot.  The returned
    /// entry is independent of later swaps.
    pub fn get(&self, name: &str) -> Option<Arc<RegistryEntry>> {
        self.shared.read().expect("registry lock").entries.get(name).cloned()
    }

    /// All current entries, in name order.
    pub fn entries(&self) -> Vec<Arc<RegistryEntry>> {
        self.snapshot().entries().cloned().collect()
    }

    /// Registered architecture names, in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.snapshot().names().map(str::to_string).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.shared.read().expect("registry lock").len()
    }

    /// True when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.shared.read().expect("registry lock").is_empty()
    }
}

fn not_found(name: &str, reason: &str) -> ArtifactError {
    ArtifactError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("registry entry `{name}`: {reason}"),
    ))
}

/// Everything a file load produced, ready to install as one entry.
struct Loaded {
    source: SourceFile,
    kind: ModelKind,
    fingerprint: u64,
    model: ModelArtifact,
}

/// Reads a watched file *stably*: stat, read, re-stat, and accept only when
/// the metadata did not move under the read and the byte count matches the
/// observed length.  A concurrent non-atomic writer makes the stats (or
/// lengths) disagree; the read is retried up to [`TORN_READ_RETRIES`] times
/// and then rejected as [`ArtifactError::TornRead`] — possibly-interleaved
/// bytes are discarded even if they happen to validate.
fn read_stable(io: &dyn ArtifactIo, path: &Path) -> Result<(SourceFile, Vec<u8>), ArtifactError> {
    read_stable_with(io, path, |path| Ok(io.read(path)?))
}

/// [`read_stable`] over an injectable reader (unit tests race the reader
/// against simulated writers without real filesystem timing; stats still go
/// through `io`).
fn read_stable_with(
    io: &dyn ArtifactIo,
    path: &Path,
    mut read: impl FnMut(&Path) -> Result<Vec<u8>, ArtifactError>,
) -> Result<(SourceFile, Vec<u8>), ArtifactError> {
    for attempt in 1..=TORN_READ_RETRIES {
        let before = SourceFile::observe(io, path);
        let bytes = read(path)?;
        let after = SourceFile::observe(io, path);
        if before.mtime == after.mtime
            && before.len == after.len
            && bytes.len() as u64 == before.len
        {
            return Ok((before, bytes));
        }
        palmed_obs::counter!("serve.registry.torn_read_retries").inc();
        palmed_obs::event!(
            "registry.torn_read_retry",
            path = path.display().to_string(),
            attempt = attempt,
        );
    }
    Err(ArtifactError::TornRead { path: path.to_path_buf() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PreparedBatch;
    use palmed_core::ConjunctiveMapping;
    use palmed_isa::{InstId, InstructionSet, Microkernel};

    fn artifact(machine: &str, usage: f64) -> ModelArtifact {
        let mut mapping = ConjunctiveMapping::with_resources(1);
        mapping.set_usage(InstId(2), vec![usage]);
        ModelArtifact::new(machine, "test", InstructionSet::paper_example(), mapping)
    }

    fn ipc_of(entry: &RegistryEntry, k: &Microkernel) -> Option<f64> {
        entry.model().batch().predict_prepared(&PreparedBatch::from_kernels([k])).ipcs[0]
    }

    /// A sealed buffer in the retired `PALMED-DISJ v1` format: its magic,
    /// some body bytes and a valid trailer.
    fn retired_disj_bytes() -> Vec<u8> {
        crate::codec::finish_trailer(b"PALMED-DISJ v1\n\x05\0\0\0skl-d".to_vec())
    }

    #[test]
    fn register_get_and_names() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.generation(), 0);
        registry.register(artifact("skl", 0.5));
        registry.register(artifact("zen", 1.0));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.generation(), 2);
        assert_eq!(registry.names(), vec!["skl", "zen"]);
        let skl = registry.get("skl").unwrap();
        assert_eq!(skl.kind(), ModelKind::ConjunctiveV1);
        assert_eq!(skl.name(), "skl");
        assert_eq!(skl.model().mapping().num_instructions(), 1);
        assert!(registry.get("m1").is_none());
    }

    #[test]
    fn reregistering_replaces_the_model_and_old_entries_stay_valid() {
        let registry = ModelRegistry::new();
        registry.register(artifact("skl", 0.5));
        let old = registry.get("skl").unwrap();
        registry.register(artifact("skl", 0.25));
        assert_eq!(registry.len(), 1);
        let k = Microkernel::single(InstId(2));
        let new = registry.get("skl").unwrap();
        assert!(new.generation() > old.generation());
        // The swapped-in model serves the new rows; the old Arc still
        // serves the old ones, bit for bit.
        assert!((ipc_of(&new, &k).unwrap() - 4.0).abs() < 1e-12);
        assert!((ipc_of(&old, &k).unwrap() - 2.0).abs() < 1e-12);
    }

    /// A model whose dense rows dwarf its artifact (423 instructions × 4,000
    /// resources with one usage per row: 47 KB of v2b, 13.5 MB of rows)
    /// is rejected before any row is allocated, with the same structured
    /// error on every way in, v2b at the resource count's offset and v1 text
    /// at its line.
    #[test]
    fn rows_far_larger_than_the_artifact_are_rejected_on_every_way_in() {
        use palmed_isa::{ExecClass, InstDesc};
        let instructions = InstructionSet::from_descs(
            (0..423).map(|i| InstDesc::new(format!("I{i}"), ExecClass::IntAlu)),
        );
        let names = (0..4_000).map(|r| format!("r{r:04}")).collect();
        let mut mapping = ConjunctiveMapping::new(names);
        for i in 0..423 {
            let mut row = vec![0.0; 4_000];
            row[i * 9] = 1.0;
            mapping.set_usage(InstId(i as u32), row);
        }
        let artifact = ModelArtifact::new("wide", "crafted", instructions.clone(), mapping);

        let bin = artifact.render_v2();
        assert_eq!(bin.len(), 47_375);
        let resource_count_at = crate::codec::V2B_MAGIC.len()
            + (4 + "wide".len())
            + (4 + "crafted".len())
            + 4
            + instructions.iter().map(|(_, d)| 4 + d.name.len() + 2).sum::<usize>();
        let rejections = [
            ModelArtifact::parse_bytes(&bin).unwrap_err(),
            ModelArtifact::parse_v2(&bin).unwrap_err(),
            ModelRegistry::new().swap_bytes("wide", bin.clone()).unwrap_err(),
        ];
        for e in &rejections {
            assert_eq!(e.class(), "malformed-binary");
            assert_eq!(e.offset(), Some(resource_count_at));
            assert_eq!(e.to_string(), rejections[0].to_string());
        }
        assert!(rejections[0].to_string().contains("1692000 usage cells"), "{}", rejections[0]);

        let text = artifact.render().into_bytes();
        let resources_line = 1 + 3 + 423 + 1;
        let rejections = [
            ModelArtifact::parse_bytes(&text).unwrap_err(),
            ModelRegistry::new().swap_bytes("wide", text).unwrap_err(),
        ];
        for e in &rejections {
            match e {
                ArtifactError::Malformed { line, reason } => {
                    assert_eq!(*line, resources_line);
                    assert!(reason.contains("1692000 usage cells"), "{reason}");
                }
                other => panic!("expected a malformed-text error, got {other:?}"),
            }
            assert_eq!(e.to_string(), rejections[0].to_string());
        }
    }

    #[test]
    fn load_file_sniffs_both_forms_and_rejects_retired_disj_files() {
        let dir = std::env::temp_dir();
        let v1 = dir.join("palmed-serve-registry-v1.palmed");
        let v2 = dir.join("palmed-serve-registry-v2.palmed");
        let dj = dir.join("palmed-serve-registry-dj.palmed");
        artifact("text-machine", 0.5).save(&v1).unwrap();
        artifact("bin-machine", 0.5).save_v2(&v2).unwrap();
        std::fs::write(&dj, retired_disj_bytes()).unwrap();
        let registry = ModelRegistry::new();
        registry.load_file(&v1).unwrap();
        let served = registry.load_file(&v2).unwrap();
        // The binary load serves the artifact it was saved from.
        assert_eq!(*served.model(), artifact("bin-machine", 0.5));
        assert_eq!(served.kind(), ModelKind::ConjunctiveV2b);
        assert_eq!(registry.get("text-machine").unwrap().kind(), ModelKind::ConjunctiveV1);
        // A disj file is refused by name, at offset 0, and installs nothing.
        let generation = registry.generation();
        let error = registry.load_file(&dj).unwrap_err();
        assert_eq!(error.class(), "malformed-binary");
        assert_eq!(error.offset(), Some(0));
        assert!(error.to_string().contains("PALMED-DISJ v1"), "{error}");
        assert_eq!(registry.generation(), generation);
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
        std::fs::remove_file(&dj).ok();
        assert_eq!(registry.len(), 2);
        let k = Microkernel::single(InstId(2));
        let text = registry.get("text-machine").unwrap();
        let a = ipc_of(&text, &k);
        let b = ipc_of(&served, &k);
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
    }

    #[test]
    fn load_file_round_trips_through_disk() {
        let path = std::env::temp_dir().join("palmed-serve-registry-test.palmed");
        artifact("disk-machine", 0.5).save(&path).unwrap();
        let registry = ModelRegistry::new();
        let served = registry.load_file(&path).unwrap();
        assert_eq!(served.model().machine, "disk-machine");
        std::fs::remove_file(&path).ok();
        assert!(registry.get("disk-machine").is_some());
        assert!(registry.load_file(&path).is_err());
        assert_eq!(registry.len(), 1, "failed load must not disturb the registry");
    }

    #[test]
    fn mapped_load_serves_bit_identically_to_the_heap_load() {
        // The rows a v2b file load scatters against the in-memory artifact
        // they were saved from.
        let path = std::env::temp_dir().join("palmed-serve-registry-mapped.palmed2");
        let original = artifact("mapped-machine", 0.5);
        original.save_v2(&path).unwrap();
        let registry = ModelRegistry::new();
        let entry = registry.load_file(&path).unwrap();
        let served = entry.model();
        assert_eq!(entry.kind(), ModelKind::ConjunctiveV2b);
        let k = Microkernel::pair(InstId(2), 2, InstId(3), 1);
        let want = original.mapping().ipc(&k).map(f64::to_bits);
        assert_eq!(served.mapping().ipc(&k).map(f64::to_bits), want);
        // The entry owns its rows; it keeps serving after the file is gone,
        // and holds the artifact it was loaded from.
        std::fs::remove_file(&path).ok();
        assert_eq!(ipc_of(&entry, &k).map(f64::to_bits), want);
        assert_eq!(*served, original);
    }

    #[test]
    fn serve_only_load_rejects_v1_text_and_corruption() {
        let registry = ModelRegistry::new();
        let text = artifact("t", 0.5).render().into_bytes();
        assert!(matches!(ModelArtifact::parse_v2(&text), Err(ArtifactError::MissingHeader)));
        let mut bin = artifact("t", 0.5).render_v2();
        let mid = bin.len() / 2;
        bin[mid] ^= 0x10;
        assert!(ModelArtifact::parse_v2(&bin).is_err());
        assert!(registry.swap_bytes("t", bin).is_err());
        assert!(registry.is_empty(), "failed loads must not disturb the registry");
        assert_eq!(registry.generation(), 0, "failed loads must not burn generations");
    }

    #[test]
    fn swap_bytes_installs_a_new_generation_under_the_same_name() {
        let registry = ModelRegistry::new();
        registry.swap_bytes("hot", artifact("hot", 0.5).render_v2()).unwrap();
        let old = registry.get("hot").unwrap();
        let swapped = registry.swap_bytes("hot", artifact("hot", 0.25).render_v2()).unwrap();
        assert_eq!(registry.len(), 1);
        assert!(swapped.generation() > old.generation());
        // A v2b swap hands back the artifact it was rendered from.
        assert_eq!(*swapped.model(), artifact("hot", 0.25));
        let k = Microkernel::single(InstId(2));
        assert!((ipc_of(&swapped, &k).unwrap() - 4.0).abs() < 1e-12);
        assert!((ipc_of(&old, &k).unwrap() - 2.0).abs() < 1e-12, "old generation stays valid");
        // A corrupt swap leaves the installed entry untouched.
        assert!(registry.swap_bytes("hot", vec![1, 2, 3]).is_err());
        assert_eq!(registry.get("hot").unwrap().generation(), swapped.generation());
        // So does a buffer in the retired disj format, refused by name.
        let error = registry.swap_bytes("hot", retired_disj_bytes()).unwrap_err();
        assert_eq!(error.offset(), Some(0));
        assert!(error.to_string().contains("PALMED-DISJ v1"), "{error}");
        let kept = registry.get("hot").unwrap();
        assert_eq!(kept.generation(), swapped.generation());
        assert!((ipc_of(&kept, &k).unwrap() - 4.0).abs() < 1e-12, "last good model serves");
    }

    #[test]
    fn refresh_reloads_changed_files_only() {
        let dir = std::env::temp_dir();
        let watched = dir.join("palmed-serve-registry-refresh.palmed2");
        let stable = dir.join("palmed-serve-registry-stable.palmed");
        artifact("watched", 0.5).save_v2(&watched).unwrap();
        artifact("stable", 0.5).save(&stable).unwrap();
        let registry = ModelRegistry::new();
        registry.load_file(&watched).unwrap();
        registry.load_file(&stable).unwrap();
        registry.register(artifact("memory-only", 1.0));
        let quiet = registry.refresh();
        assert!(quiet.is_quiet(), "unchanged files must not reload: {quiet:?}");

        let before = registry.get("watched").unwrap();
        // Rewrite with different content (and length, so staleness shows
        // even on filesystems with coarse mtimes).
        let mut replacement = artifact("watched", 0.25);
        replacement.source = "retrained-model".to_string();
        replacement.save_v2(&watched).unwrap();
        let outcome = registry.refresh();
        assert_eq!(outcome.reloaded, vec!["watched".to_string()]);
        assert!(outcome.errors.is_empty());
        let after = registry.get("watched").unwrap();
        assert!(after.generation() > before.generation());
        assert_eq!(after.model().source, "retrained-model");
        let k = Microkernel::single(InstId(2));
        assert!((ipc_of(&after, &k).unwrap() - 4.0).abs() < 1e-12);
        assert!((ipc_of(&before, &k).unwrap() - 2.0).abs() < 1e-12);

        // A vanished file is stale, fails to reload, and keeps serving.
        std::fs::remove_file(&watched).unwrap();
        let outcome = registry.refresh();
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.errors[0].0, "watched");
        assert!(registry.get("watched").is_some(), "last good model keeps serving");
        std::fs::remove_file(&stable).ok();
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let registry = ModelRegistry::new();
        registry.register(artifact("a", 0.5));
        let snapshot = registry.snapshot();
        registry.register(artifact("b", 0.5));
        registry.remove("a");
        assert_eq!(snapshot.len(), 1);
        assert!(snapshot.get("a").is_some());
        assert!(snapshot.get("b").is_none());
        assert_eq!(registry.names(), vec!["b"]);
        // Removing an absent name is a true no-op: no generation burnt.
        let generation = registry.generation();
        assert!(registry.remove("a").is_none());
        assert_eq!(registry.generation(), generation);
        let names: Vec<&str> = snapshot.names().collect();
        assert_eq!(names, vec!["a"]);
        assert!(!snapshot.is_empty());
        assert_eq!(registry.entries().len(), 1);
    }

    #[test]
    fn clone_diverges_from_the_original() {
        let registry = ModelRegistry::new();
        registry.register(artifact("shared", 0.5));
        let cloned = registry.clone();
        registry.register(artifact("original-only", 0.5));
        cloned.register(artifact("clone-only", 0.5));
        assert_eq!(registry.names(), vec!["original-only", "shared"]);
        assert_eq!(cloned.names(), vec!["clone-only", "shared"]);
    }

    #[test]
    fn health_reports_per_entry_status() {
        let dir = std::env::temp_dir();
        let watched = dir.join("palmed-serve-registry-health.palmed2");
        artifact("watched-health", 0.5).save_v2(&watched).unwrap();
        let registry = ModelRegistry::new();
        registry.register(artifact("memory-health", 1.0));
        registry.load_file(&watched).unwrap();

        // Fresh installs report the default healthy state.
        let health = registry.health();
        assert_eq!(health.len(), 2);
        let memory = health.iter().find(|h| h.name == "memory-health").unwrap();
        assert!(!memory.watched);
        assert_eq!(memory.status, RefreshStatus::Current);
        let entry = health.iter().find(|h| h.name == "watched-health").unwrap();
        assert!(entry.watched);
        assert_eq!(entry.status, RefreshStatus::Current);
        assert_eq!(entry.consecutive_failures, 0);
        assert!(!entry.quarantined);
        assert_eq!(entry.kind, ModelKind::ConjunctiveV2b);
        assert_eq!(entry.fingerprint, registry.get("watched-health").unwrap().fingerprint());

        // A quiet poll marks the entry Current; a failing reload records
        // the error, counts the failure and starts the backoff.
        registry.refresh();
        std::fs::write(&watched, b"PALMED-MODEL v2b\ngarbage").unwrap();
        let outcome = registry.refresh();
        assert_eq!(outcome.errors.len(), 1);
        let entry = registry.health().into_iter().find(|h| h.name == "watched-health").unwrap();
        assert_eq!(entry.status, RefreshStatus::Failed);
        assert_eq!(entry.consecutive_failures, 1);
        assert_eq!(entry.backoff_remaining, 1);
        assert!(entry.last_error.is_some());
        // The installed entry is untouched: last good generation serves.
        assert!(registry.get("watched-health").is_some());

        // The next poll drains the backoff without touching the file.
        let outcome = registry.refresh();
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.backed_off, vec!["watched-health".to_string()]);
        assert!(outcome.is_quiet(), "backoff polls stay quiet");

        // Restoring the file and readmitting recovers immediately.
        artifact("watched-health", 0.25).save_v2(&watched).unwrap();
        registry.readmit("watched-health").unwrap();
        let entry = registry.health().into_iter().find(|h| h.name == "watched-health").unwrap();
        assert_eq!(entry.status, RefreshStatus::Reloaded);
        assert_eq!(entry.consecutive_failures, 0);
        std::fs::remove_file(&watched).ok();
    }

    #[test]
    fn stable_reads_retry_and_reject_torn_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("palmed-serve-registry-torn.bin");
        std::fs::write(&path, b"stable contents").unwrap();

        // A reader that rewrites the file once mid-read: first attempt is
        // torn, the retry succeeds.
        let mut first = true;
        let (source, bytes) = read_stable_with(&RealIo, &path, |p| {
            let bytes = std::fs::read(p)?;
            if first {
                first = false;
                std::fs::write(p, b"rewritten mid-read!!").unwrap();
            }
            Ok(bytes)
        })
        .unwrap();
        assert_eq!(bytes, b"rewritten mid-read!!");
        assert_eq!(source.len, bytes.len() as u64);

        // A writer racing every read exhausts the retries.
        let mut flip = false;
        let torn = read_stable_with(&RealIo, &path, |p| {
            let bytes = std::fs::read(p)?;
            flip = !flip;
            std::fs::write(p, if flip { &b"aaaa"[..] } else { &b"bbbbbb"[..] }).unwrap();
            Ok(bytes)
        });
        match torn {
            Err(ArtifactError::TornRead { path: p }) => assert_eq!(p, path),
            other => panic!("expected TornRead, got {other:?}"),
        }

        // Read errors propagate as-is, without retrying into TornRead.
        let missing = dir.join("palmed-serve-registry-torn-missing.bin");
        assert!(matches!(
            read_stable_with(&RealIo, &missing, |p| Ok(std::fs::read(p)?)),
            Err(ArtifactError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_sidecar_gates_loads() {
        let dir = std::env::temp_dir();
        let path = dir.join("palmed-serve-registry-fp.palmed2");
        let original = artifact("fp-machine", 0.5);
        let recorded = original.save_v2_with_fingerprint(&path).unwrap();
        let registry = ModelRegistry::new();

        // Matching sidecar: loads fine, fingerprint is recorded on the entry.
        let entry = registry.load_file(&path).unwrap();
        assert_eq!(entry.fingerprint(), recorded);
        assert_eq!(entry.fingerprint(), original.fingerprint());

        // A different model under the same sidecar is rejected — and the
        // old entry keeps serving.
        artifact("fp-machine", 0.25).save_v2(&path).unwrap();
        crate::fingerprint::write_sidecar(&path, recorded).unwrap();
        match registry.reload_file("fp-machine") {
            Err(ArtifactError::FingerprintMismatch { expected, computed }) => {
                assert_eq!(expected, recorded);
                assert_ne!(computed, recorded);
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        assert_eq!(registry.get("fp-machine").unwrap().fingerprint(), recorded);

        // Re-recording the sidecar admits the new model.
        artifact("fp-machine", 0.25).save_v2_with_fingerprint(&path).unwrap();
        let reloaded = registry.reload_file("fp-machine").unwrap();
        assert_ne!(reloaded.fingerprint(), recorded);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::fingerprint::sidecar_path(&path)).ok();
    }

    #[test]
    fn repeated_failures_quarantine_and_readmit_recovers() {
        let dir = std::env::temp_dir();
        let path = dir.join("palmed-serve-registry-quarantine-unit.palmed2");
        artifact("q-machine", 0.5).save_v2(&path).unwrap();
        let registry = ModelRegistry::new();
        let good = registry.load_file(&path).unwrap();
        std::fs::write(&path, b"not a model").unwrap();

        // Poll until quarantined: exactly QUARANTINE_AFTER real attempts,
        // with backoff polls in between.
        let mut failures = 0;
        let mut polls = 0;
        loop {
            polls += 1;
            assert!(polls < 64, "quarantine must engage within bounded polls");
            let outcome = registry.refresh();
            failures += outcome.errors.len();
            if !outcome.quarantined.is_empty() {
                assert_eq!(outcome.quarantined, vec!["q-machine".to_string()]);
                break;
            }
        }
        assert_eq!(failures as u32, QUARANTINE_AFTER);
        assert!(polls > QUARANTINE_AFTER as usize, "backoff must skip polls in between");

        // Quarantined: further polls are silent, even though the file is
        // still stale/corrupt, and the last good generation keeps serving.
        let outcome = registry.refresh();
        assert!(outcome.is_quiet() && outcome.backed_off.is_empty());
        let entry = registry.health().into_iter().find(|h| h.name == "q-machine").unwrap();
        assert!(entry.quarantined);
        assert_eq!(entry.status, RefreshStatus::Quarantined);
        assert_eq!(entry.consecutive_failures, QUARANTINE_AFTER);
        assert_eq!(registry.get("q-machine").unwrap().generation(), good.generation());

        // Restoring the file alone is not enough — quarantine sticks...
        artifact("q-machine", 0.25).save_v2(&path).unwrap();
        assert!(registry.refresh().is_quiet());
        // ...readmit clears it and reloads.
        let readmitted = registry.readmit("q-machine").unwrap();
        assert!(readmitted.generation() > good.generation());
        let entry = registry.health().into_iter().find(|h| h.name == "q-machine").unwrap();
        assert!(!entry.quarantined);
        assert_eq!(entry.status, RefreshStatus::Reloaded);
        // And normal polling resumes.
        assert!(registry.refresh().is_quiet());
        std::fs::remove_file(&path).ok();
    }
}
