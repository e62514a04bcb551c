//! The registry's file-access seam: every stat and read the
//! [`ModelRegistry`](crate::ModelRegistry) performs goes through an
//! [`ArtifactIo`], so the whole refresh/backoff/quarantine state machine can
//! be driven against a *simulated* filesystem with scripted faults — short
//! reads, transient errors, torn mid-write snapshots, mtime flapping — as
//! deterministically as a unit test.
//!
//! Production code never notices the seam: [`RealIo`] (the default) forwards
//! to `std::fs`.  The fault-injecting counterpart lives with the fuzzer
//! (`palmed-fuzz`'s `FaultyIo`), which scripts whole refresh-loop schedules
//! against this trait and asserts the registry's serving invariants after
//! every step.

use std::fmt;
use std::io;
use std::path::Path;
use std::time::SystemTime;

/// The file metadata the registry's staleness tracking compares: what
/// `stat(2)` observes, reduced to the two fields change detection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// Modification time, when the backend reports one.
    pub mtime: Option<SystemTime>,
    /// File length in bytes.
    pub len: u64,
}

/// File access as the registry consumes it.  Two operations cover every
/// touch the refresh loop makes: metadata polls ([`ArtifactIo::stat`]) and
/// whole-file reads ([`ArtifactIo::read`]).
///
/// Implementations must be usable from several threads (`Send + Sync`): the
/// registry is shared as `Arc<ModelRegistry>` and refresh may run on any of
/// them.
pub trait ArtifactIo: fmt::Debug + Send + Sync {
    /// Stats `path` — the staleness probe.  Errors mean "could not observe"
    /// (vanished file, permission fault); the registry treats them as
    /// staleness and surfaces them through the reload that follows.
    fn stat(&self, path: &Path) -> io::Result<FileMeta>;

    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
}

/// The production [`ArtifactIo`]: `std::fs` stats and reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl ArtifactIo for RealIo {
    fn stat(&self, path: &Path) -> io::Result<FileMeta> {
        let meta = std::fs::metadata(path)?;
        Ok(FileMeta { mtime: meta.modified().ok(), len: meta.len() })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_io_stats_reads_and_opens_like_std_fs() {
        let path = std::env::temp_dir().join("palmed-serve-io-real.bin");
        std::fs::write(&path, b"io seam bytes").unwrap();
        let meta = RealIo.stat(&path).unwrap();
        assert_eq!(meta.len, 13);
        assert!(meta.mtime.is_some());
        assert_eq!(RealIo.read(&path).unwrap(), b"io seam bytes");
        std::fs::remove_file(&path).ok();
        assert!(RealIo.stat(&path).is_err());
        assert!(RealIo.read(&path).is_err());
    }
}
