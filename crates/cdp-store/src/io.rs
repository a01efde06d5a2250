//! Filesystem abstraction + deterministic fault injection.
//!
//! Everything the store (and the checkpoint writer in `cdp-sim`) does to
//! disk goes through the [`StoreIo`] trait, so crash-safety claims can be
//! *tested* instead of asserted: [`FaultyIo`] wraps any implementation
//! and injects short writes, ENOSPC, failed renames, and read-side
//! bit-flips/truncation on a seeded deterministic schedule. The durable
//! code must survive every schedule — a failed write degrades to a
//! counted no-op, a damaged read quarantines and recomputes, and nothing
//! ever panics or replays corrupt data.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cdp_types::rng::Rng;

/// The filesystem operations durable code is allowed to use.
///
/// Implementations must be shareable across threads; the store calls
/// these concurrently from pool workers.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) `path` with `bytes`, flushed to disk
    /// (`fsync`) before returning.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Reads the full contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// The entries directly inside directory `path` (files only or not —
    /// callers filter by name; order is unspecified).
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `path` exclusively with `bytes` (fails if it exists).
    /// Returns `Ok(false)` when the file already existed. Lock-protocol
    /// primitive; never faulted by the injection layer.
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool>;
}

/// The real filesystem, with fsync discipline on writes.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
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
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
        {
            Ok(mut f) => {
                f.write_all(bytes)?;
                f.sync_all()?;
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Fault-injection schedule for [`FaultyIo`]: each period `p` makes
/// roughly one in `p` operations of that class fail (0 disables the
/// class). Each class draws from its own seeded xoshiro stream, so the
/// n-th decision of a class is fixed by the seed alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Writes that fail outright (injected ENOSPC).
    pub write_error_period: u64,
    /// Writes that silently land short (torn write: only a prefix
    /// reaches disk, the call still reports success).
    pub write_short_period: u64,
    /// Renames that fail (publication lost, temp file left behind —
    /// exactly what a kill between write and rename leaves).
    pub rename_error_period: u64,
    /// Reads whose returned bytes have one bit flipped.
    pub read_flip_period: u64,
    /// Reads whose returned bytes are truncated.
    pub read_truncate_period: u64,
}

impl FaultConfig {
    /// An aggressive schedule for soak tests: every class enabled with
    /// small periods.
    #[must_use]
    pub fn aggressive(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            write_error_period: 5,
            write_short_period: 6,
            rename_error_period: 7,
            read_flip_period: 4,
            read_truncate_period: 9,
        }
    }

    /// A schedule with every fault class disabled (pass-through).
    #[must_use]
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            write_error_period: 0,
            write_short_period: 0,
            rename_error_period: 0,
            read_flip_period: 0,
            read_truncate_period: 0,
        }
    }
}

/// Counts of faults actually injected, per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Writes failed with injected ENOSPC.
    pub write_errors: u64,
    /// Writes silently truncated.
    pub short_writes: u64,
    /// Renames failed.
    pub rename_errors: u64,
    /// Reads with a flipped bit.
    pub read_flips: u64,
    /// Reads truncated.
    pub read_truncations: u64,
}

impl FaultCounts {
    /// Total faults injected across every class.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.write_errors
            + self.short_writes
            + self.rename_errors
            + self.read_flips
            + self.read_truncations
    }
}

/// [`FaultyIo`]'s fault classes: indices of its decision streams.
const WRITE_ERROR: usize = 0;
const SHORT_WRITE: usize = 1;
const RENAME_ERROR: usize = 2;
const READ_FLIP: usize = 3;
const READ_TRUNCATE: usize = 4;

/// A [`StoreIo`] wrapper that injects faults on a seeded deterministic
/// schedule (see [`FaultConfig`]).
///
/// Each fault class decides from its own RNG stream, so which file a
/// fault hits depends on the operation order — under a multi-threaded
/// pool that order is scheduling-dependent, which is the point: durable
/// code must produce identical *results* under any fault placement. How
/// many faults of each class fire depends only on the seed and on how
/// many operations of each class ran, not on their interleaving, and the
/// seed makes any single-threaded schedule exactly reproducible.
#[derive(Debug)]
pub struct FaultyIo<I: StoreIo> {
    inner: I,
    cfg: FaultConfig,
    /// One decision stream per class, indexed by the class constants.
    streams: Mutex<[Rng; 5]>,
    write_errors: AtomicU64,
    short_writes: AtomicU64,
    rename_errors: AtomicU64,
    read_flips: AtomicU64,
    read_truncations: AtomicU64,
}

impl<I: StoreIo> FaultyIo<I> {
    /// Wraps `inner` with the fault schedule `cfg`.
    pub fn new(inner: I, cfg: FaultConfig) -> FaultyIo<I> {
        FaultyIo {
            inner,
            cfg,
            streams: Mutex::new(std::array::from_fn(|class| {
                Rng::seed_from_u64(cfg.seed ^ (class as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            })),
            write_errors: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            rename_errors: AtomicU64::new(0),
            read_flips: AtomicU64::new(0),
            read_truncations: AtomicU64::new(0),
        }
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            write_errors: self.write_errors.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            rename_errors: self.rename_errors.load(Ordering::Relaxed),
            read_flips: self.read_flips.load(Ordering::Relaxed),
            read_truncations: self.read_truncations.load(Ordering::Relaxed),
        }
    }

    /// One draw from `class`'s stream: whether a class with period `p`
    /// fires, plus a raw value for positioning damage.
    fn draw(&self, class: usize, period: u64) -> (bool, u64) {
        let mut streams = self.streams.lock().expect("fault rng poisoned");
        let rng = &mut streams[class];
        let v = rng.next_u64();
        (period > 0 && v.is_multiple_of(period), rng.next_u64())
    }

    fn injected(op: &'static str) -> io::Error {
        io::Error::new(io::ErrorKind::StorageFull, format!("injected fault: {op}"))
    }
}

impl<I: StoreIo> StoreIo for FaultyIo<I> {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (fail, _) = self.draw(WRITE_ERROR, self.cfg.write_error_period);
        if fail {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Self::injected("write (ENOSPC)"));
        }
        let (short, pos) = self.draw(SHORT_WRITE, self.cfg.write_short_period);
        if short && !bytes.is_empty() {
            self.short_writes.fetch_add(1, Ordering::Relaxed);
            // A torn write: a prefix lands and the call still "succeeds",
            // as a kill after a pagecache write and before fsync would
            // leave it. The damage must be caught at read time.
            let keep = (pos % bytes.len() as u64) as usize;
            return self.inner.write(path, &bytes[..keep]);
        }
        self.inner.write(path, bytes)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut data = self.inner.read(path)?;
        let (flip, pos) = self.draw(READ_FLIP, self.cfg.read_flip_period);
        if flip && !data.is_empty() {
            self.read_flips.fetch_add(1, Ordering::Relaxed);
            let byte = (pos % data.len() as u64) as usize;
            data[byte] ^= 1 << (pos % 8);
        }
        let (trunc, pos) = self.draw(READ_TRUNCATE, self.cfg.read_truncate_period);
        if trunc && !data.is_empty() {
            self.read_truncations.fetch_add(1, Ordering::Relaxed);
            let keep = (pos % data.len() as u64) as usize;
            data.truncate(keep);
        }
        Ok(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (fail, _) = self.draw(RENAME_ERROR, self.cfg.rename_error_period);
        if fail {
            self.rename_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Self::injected("rename"));
        }
        self.inner.rename(from, to)
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
        // Lock-file ops are never faulted: the lock protocol is not the
        // system under test, and a faulted lock would just abort the
        // maintenance op instead of exercising durability.
        self.inner.create_new(path, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cdp-store-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn real_io_round_trips() {
        let dir = scratch("real");
        let p = dir.join("a.bin");
        RealIo.write(&p, b"hello").unwrap();
        assert_eq!(RealIo.read(&p).unwrap(), b"hello");
        let q = dir.join("b.bin");
        RealIo.rename(&p, &q).unwrap();
        assert!(RealIo.read(&p).is_err());
        assert_eq!(RealIo.read(&q).unwrap(), b"hello");
        assert!(!RealIo.create_new(&q, b"x").unwrap());
        assert!(RealIo.create_new(&dir.join("c.bin"), b"x").unwrap());
        let names = RealIo.read_dir(&dir).unwrap();
        assert_eq!(names.len(), 2);
        RealIo.remove_file(&q).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_io_is_deterministic_for_a_seed() {
        let dir = scratch("det");
        let run = |seed: u64| -> (Vec<bool>, FaultCounts) {
            let io = FaultyIo::new(RealIo, FaultConfig::aggressive(seed));
            let mut oks = Vec::new();
            for i in 0..64 {
                let p = dir.join(format!("f{i}.bin"));
                oks.push(io.write(&p, &[0xAB; 64]).is_ok());
            }
            (oks, io.counts())
        };
        let (a_oks, a_counts) = run(42);
        let (b_oks, b_counts) = run(42);
        assert_eq!(a_oks, b_oks, "same seed, same schedule");
        assert_eq!(a_counts, b_counts);
        let (c_oks, _) = run(43);
        assert_ne!(a_oks, c_oks, "different seed, different schedule");
        assert!(a_counts.total() > 0, "aggressive schedule injects faults");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_counts_do_not_depend_on_interleaving() {
        let dir = scratch("order");
        let p = dir.join("f.bin");
        let q = dir.join("g.bin");
        let batched = FaultyIo::new(RealIo, FaultConfig::aggressive(5));
        for _ in 0..48 {
            let _ = batched.write(&p, b"payload");
        }
        for _ in 0..48 {
            let _ = batched.rename(&q, &q);
        }
        let alternating = FaultyIo::new(RealIo, FaultConfig::aggressive(5));
        for _ in 0..48 {
            let _ = alternating.rename(&q, &q);
            let _ = alternating.write(&p, b"payload");
        }
        assert!(batched.counts().total() > 0);
        assert_eq!(batched.counts(), alternating.counts());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_classes_never_fire() {
        let dir = scratch("off");
        let io = FaultyIo::new(RealIo, FaultConfig::none(7));
        for i in 0..32 {
            let p = dir.join(format!("f{i}.bin"));
            io.write(&p, b"payload").unwrap();
            assert_eq!(io.read(&p).unwrap(), b"payload");
        }
        assert_eq!(io.counts().total(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_writes_land_a_prefix() {
        let dir = scratch("short");
        let cfg = FaultConfig {
            seed: 9,
            write_error_period: 0,
            write_short_period: 1, // every write is short
            rename_error_period: 0,
            read_flip_period: 0,
            read_truncate_period: 0,
        };
        let io = FaultyIo::new(RealIo, cfg);
        let p = dir.join("torn.bin");
        io.write(&p, &[0xCD; 100]).unwrap();
        let got = RealIo.read(&p).unwrap();
        assert!(got.len() < 100, "write was torn: {} bytes", got.len());
        assert!(got.iter().all(|&b| b == 0xCD));
        assert_eq!(io.counts().short_writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
