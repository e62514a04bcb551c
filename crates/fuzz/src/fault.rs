//! Deterministic fault injection behind the registry's [`ArtifactIo`] seam.
//!
//! [`FaultyIo`] is an in-memory filesystem whose every misbehavior is
//! *scripted*: a schedule written by the registry fuzzer
//! ([`crate::registry_fuzz`]) decides exactly which stat or read fails,
//! which write is observed torn mid-replace, and when mtimes flap — so a
//! failing fuzz case replays bit-identically from its seed.  The repertoire
//! mirrors what real artifact hot-reload deployments hit:
//!
//! - **transient errors** — a stat or read fails once, then recovers
//!   ([`Fault::StatError`], [`Fault::ReadError`]);
//! - **short reads** — a read returns a prefix of the file
//!   ([`Fault::ShortRead`]), which the registry's stable-read double-stat
//!   must catch as a torn read;
//! - **torn writes** — [`FaultyIo::write_torn`] installs a pending replace
//!   whose first N reads observe a half-written prefix *while the mtime
//!   keeps advancing*, exactly like watching `cp` mid-copy;
//! - **mtime flapping** — [`Fault::MtimeFlap`] and
//!   [`FaultyIo::flap_mtime`] touch the file without changing bytes.
//!
//! Time is a logical tick counter (mtime = `UNIX_EPOCH + tick` seconds), so
//! schedules are immune to wall-clock jitter.

use palmed_serve::{ArtifactIo, FileMeta};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// One scripted misbehavior, armed per path and consumed first-in
/// first-out by the next *matching* operation ([`FaultyIo::arm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next stat fails with a transient I/O error.
    StatError,
    /// The next read fails with a transient I/O error.
    ReadError,
    /// The next read returns only a prefix of the file.
    ShortRead,
    /// The next stat reports a bumped mtime without any byte change.
    MtimeFlap,
}

impl Fault {
    fn matches_stat(self) -> bool {
        matches!(self, Fault::StatError | Fault::MtimeFlap)
    }

    fn matches_read(self) -> bool {
        matches!(self, Fault::ReadError | Fault::ShortRead)
    }
}

/// A replace in flight: the new bytes land only after `reads_left` more
/// reads have observed the torn half-written prefix.
#[derive(Debug)]
struct Pending {
    bytes: Vec<u8>,
    reads_left: u32,
}

#[derive(Debug)]
struct SimFile {
    bytes: Vec<u8>,
    mtime: u64,
    pending: Option<Pending>,
}

#[derive(Debug, Default)]
struct State {
    files: BTreeMap<PathBuf, SimFile>,
    faults: BTreeMap<PathBuf, VecDeque<Fault>>,
    tick: u64,
    injected: u64,
}

/// The scripted in-memory filesystem.  Clone-free: share it as
/// `Arc<FaultyIo>` between the schedule driver and the registry under test.
#[derive(Debug, Default)]
pub struct FaultyIo {
    state: Mutex<State>,
}

impl FaultyIo {
    /// An empty simulated filesystem at tick zero.
    pub fn new() -> FaultyIo {
        FaultyIo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic mid-schedule (the fuzzer catches them) must not wedge
        // the next schedule's cleanup; the state itself stays coherent.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Writes `bytes` at `path` atomically: the new content and a fresh
    /// mtime are visible to the very next observation.
    pub fn write(&self, path: &Path, bytes: Vec<u8>) {
        let mut state = self.lock();
        state.tick += 1;
        let mtime = state.tick;
        state.files.insert(path.to_path_buf(), SimFile { bytes, mtime, pending: None });
    }

    /// Starts a torn replace: the next `torn_reads` reads observe a
    /// half-written prefix of `bytes` (with the mtime advancing on every
    /// stat, like a copy in progress), after which the write settles.
    pub fn write_torn(&self, path: &Path, bytes: Vec<u8>, torn_reads: u32) {
        if torn_reads == 0 {
            return self.write(path, bytes);
        }
        let mut state = self.lock();
        state.tick += 1;
        let mtime = state.tick;
        state.injected += 1;
        let file = state.files.entry(path.to_path_buf()).or_insert(SimFile {
            bytes: Vec::new(),
            mtime,
            pending: None,
        });
        file.mtime = mtime;
        file.pending = Some(Pending { bytes, reads_left: torn_reads });
    }

    /// Deletes the file: subsequent stats and reads fail with `NotFound`.
    pub fn remove(&self, path: &Path) {
        let mut state = self.lock();
        state.tick += 1;
        state.files.remove(path);
    }

    /// Touches the file's mtime without changing its bytes.
    pub fn flap_mtime(&self, path: &Path) {
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        if let Some(file) = state.files.get_mut(path) {
            file.mtime = tick;
        }
    }

    /// Arms a one-shot fault for `path`, consumed by the next matching
    /// stat or read in arrival order.
    pub fn arm(&self, path: &Path, fault: Fault) {
        let mut state = self.lock();
        state.injected += 1;
        state.faults.entry(path.to_path_buf()).or_default().push_back(fault);
    }

    /// The settled bytes at `path` (pending torn replaces excluded).
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|f| f.bytes.clone())
    }

    /// Total faults scripted so far (armed one-shots plus torn writes).
    pub fn injected(&self) -> u64 {
        self.lock().injected
    }

    /// Pops the first armed fault for `path` that applies to the given
    /// operation kind, leaving non-matching faults queued.
    fn take_fault(&self, state: &mut State, path: &Path, is_stat: bool) -> Option<Fault> {
        let queue = state.faults.get_mut(path)?;
        let at =
            queue.iter().position(|f| if is_stat { f.matches_stat() } else { f.matches_read() })?;
        queue.remove(at)
    }
}

fn transient(op: &str, path: &Path) -> io::Error {
    io::Error::other(format!("injected transient {op} fault: {}", path.display()))
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such simulated file: {}", path.display()))
}

fn as_mtime(tick: u64) -> SystemTime {
    UNIX_EPOCH + Duration::from_secs(tick)
}

impl ArtifactIo for FaultyIo {
    fn stat(&self, path: &Path) -> io::Result<FileMeta> {
        let mut state = self.lock();
        match self.take_fault(&mut state, path, true) {
            Some(Fault::StatError) => return Err(transient("stat", path)),
            Some(Fault::MtimeFlap) => {
                state.tick += 1;
                let tick = state.tick;
                if let Some(file) = state.files.get_mut(path) {
                    file.mtime = tick;
                }
            }
            _ => {}
        }
        // A pending torn replace keeps the observed mtime moving: every
        // stat during the replace sees a newer timestamp, so the
        // registry's stat-before/stat-after stability check must reject
        // the torn snapshot and retry.
        let needs_bump = state.files.get(path).is_some_and(|file| file.pending.is_some());
        if needs_bump {
            state.tick += 1;
            let tick = state.tick;
            if let Some(file) = state.files.get_mut(path) {
                file.mtime = tick;
            }
        }
        let file = state.files.get(path).ok_or_else(|| not_found(path))?;
        let len = match &file.pending {
            Some(pending) => (pending.bytes.len() / 2) as u64,
            None => file.bytes.len() as u64,
        };
        Ok(FileMeta { mtime: Some(as_mtime(file.mtime)), len })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = self.lock();
        match self.take_fault(&mut state, path, false) {
            Some(Fault::ReadError) => return Err(transient("read", path)),
            Some(Fault::ShortRead) => {
                let file = state.files.get(path).ok_or_else(|| not_found(path))?;
                let half = file.bytes.len() / 2;
                return Ok(file.bytes[..half].to_vec());
            }
            _ => {}
        }
        let mut settled_tick = None;
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        let out = match &mut file.pending {
            Some(pending) => {
                let torn = pending.bytes[..pending.bytes.len() / 2].to_vec();
                pending.reads_left -= 1;
                if pending.reads_left == 0 {
                    let settled = file.pending.take().expect("pending just observed");
                    file.bytes = settled.bytes;
                    settled_tick = Some(());
                }
                torn
            }
            None => file.bytes.clone(),
        };
        if settled_tick.is_some() {
            state.tick += 1;
            let tick = state.tick;
            if let Some(file) = state.files.get_mut(path) {
                file.mtime = tick;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(format!("/sim/{name}"))
    }

    #[test]
    fn writes_settle_atomically_and_bump_mtime() {
        let io = FaultyIo::new();
        let path = p("a.bin");
        io.write(&path, vec![1, 2, 3]);
        let first = io.stat(&path).unwrap();
        assert_eq!(first.len, 3);
        assert_eq!(io.read(&path).unwrap(), vec![1, 2, 3]);
        io.write(&path, vec![4, 5]);
        let second = io.stat(&path).unwrap();
        assert!(second.mtime > first.mtime, "rewrite must advance mtime");
        assert_eq!(io.read(&path).unwrap(), vec![4, 5]);
        io.remove(&path);
        assert_eq!(io.stat(&path).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(io.read(&path).unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn torn_writes_flap_mtime_until_settled() {
        let io = FaultyIo::new();
        let path = p("torn.bin");
        io.write(&path, b"old".to_vec());
        io.write_torn(&path, b"newer bytes".to_vec(), 2);
        // While pending: every stat sees a moving mtime and the torn
        // half-length; reads observe the torn prefix.
        let s1 = io.stat(&path).unwrap();
        let s2 = io.stat(&path).unwrap();
        assert!(s2.mtime > s1.mtime, "mtime must flap during the replace");
        assert_eq!(s1.len, (b"newer bytes".len() / 2) as u64);
        assert_eq!(io.read(&path).unwrap(), b"newer");
        assert_eq!(io.read(&path).unwrap(), b"newer");
        // Settled: full bytes, stable mtime.
        assert_eq!(io.read(&path).unwrap(), b"newer bytes");
        let s3 = io.stat(&path).unwrap();
        let s4 = io.stat(&path).unwrap();
        assert_eq!(s3, s4, "mtime settles with the write");
        assert_eq!(s3.len, b"newer bytes".len() as u64);
        assert_eq!(io.contents(&path).unwrap(), b"newer bytes");
        assert_eq!(io.injected(), 1);
    }

    #[test]
    fn armed_faults_fire_once_in_kind_order() {
        let io = FaultyIo::new();
        let path = p("faulty.bin");
        io.write(&path, vec![7; 8]);
        io.arm(&path, Fault::ReadError);
        io.arm(&path, Fault::StatError);
        io.arm(&path, Fault::ShortRead);
        // Stat skips over the queued read faults to its own kind.
        assert!(io.stat(&path).is_err());
        assert!(io.stat(&path).is_ok(), "stat fault is one-shot");
        // Reads consume their kinds in arrival order.
        assert!(io.read(&path).is_err());
        assert_eq!(io.read(&path).unwrap(), vec![7; 4], "short read = half");
        assert_eq!(io.read(&path).unwrap(), vec![7; 8]);
        assert_eq!(io.injected(), 3);
    }

    #[test]
    fn mtime_flap_changes_time_not_bytes() {
        let io = FaultyIo::new();
        let path = p("flap.bin");
        io.write(&path, vec![1]);
        let before = io.stat(&path).unwrap();
        io.flap_mtime(&path);
        let after = io.stat(&path).unwrap();
        assert!(after.mtime > before.mtime);
        assert_eq!(after.len, before.len);
        assert_eq!(io.read(&path).unwrap(), vec![1]);
        // The armed variant behaves identically, once.
        io.arm(&path, Fault::MtimeFlap);
        let flapped = io.stat(&path).unwrap();
        assert!(flapped.mtime > after.mtime);
        assert_eq!(io.stat(&path).unwrap(), flapped);
    }
}
