//! Filesystems for the result store and checkpoints.
//!
//! [`NoSyncIo`] keeps the durable layers' files inside the benchmark's
//! working directory but skips `fsync`, as tmpfs does, so the virtual
//! disk's flush latency is not what the sweep measures. [`TimedIo`] wraps
//! any [`StoreIo`] and accumulates host time, calls and bytes per
//! operation for the traced run.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cdp_store::StoreIo;

/// Real files without `fsync`: tmpfs semantics on any filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSyncIo;

impl StoreIo for NoSyncIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::File::create(path)?.write_all(bytes)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect()
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
        {
            Ok(mut f) => f.write_all(bytes).map(|()| true),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Host time, call count and bytes of one kind of operation.
#[derive(Debug, Default)]
pub struct OpCounter {
    ns: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl OpCounter {
    fn record(&self, start: Instant, bytes: usize) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Accumulated host nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Bytes written or read.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

/// A [`StoreIo`] that times every call into the wrapped filesystem.
#[derive(Debug)]
pub struct TimedIo {
    inner: Arc<dyn StoreIo>,
    /// `write` calls.
    pub write: OpCounter,
    /// `read` calls that succeeded.
    pub read: OpCounter,
    /// `rename` calls.
    pub rename: OpCounter,
}

impl TimedIo {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StoreIo>) -> TimedIo {
        TimedIo {
            inner,
            write: OpCounter::default(),
            read: OpCounter::default(),
            rename: OpCounter::default(),
        }
    }

    /// Zeroes every counter (after a store's open-time bookkeeping).
    pub fn reset(&self) {
        self.write.reset();
        self.read.reset();
        self.rename.reset();
    }
}

impl StoreIo for TimedIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write(path, bytes);
        self.write.record(t, bytes.len());
        r
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read(path);
        if let Ok(bytes) = &r {
            self.read.record(t, bytes.len());
        }
        r
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.rename(from, to);
        self.rename.record(t, 0);
        r
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        self.inner.create_new(path, bytes)
    }
}
