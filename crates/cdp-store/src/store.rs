//! The on-disk result store.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   generation            current generation number (decimal ASCII)
//!   store.lock            maintenance lock (exists only while held)
//!   cell-<16 hex>.res     one published entry per cell fingerprint
//!   cell-<16 hex>.<pid>-<seq>.part   in-flight writes (never read)
//!   quarantine/           damaged entries moved aside, never replayed
//! ```
//!
//! # Entry format
//!
//! Each `.res` file is a `cdp-snap` container whose header fingerprint
//! is the cell key (so a file renamed to the wrong cell is rejected at
//! parse time), with two checksummed sections:
//!
//! * tag [`TAG_META`]: entry version (`u32`) + write generation (`u64`)
//! * tag [`TAG_PAYLOAD`]: opaque payload bytes (the store does not know
//!   what a result *is* — `cdp-sim` owns the payload codec)
//!
//! # Crash safety
//!
//! Publication is [`publish`]: write-to-unique-temp + fsync + rename. A
//! kill at any point leaves either the old entry, the new entry, or a
//! stale `.part` that [`ResultStore::open`] sweeps. Concurrent writers of
//! the same cell carry identical bytes (the key is a content
//! fingerprint), so last-rename-wins is safe without locking. The
//! `store.lock` file guards only maintenance (generation bump, GC, fsck
//! repair).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cdp_snap::{SnapReader, SnapWriter};
use cdp_types::{SnapshotError, StoreError};

use crate::io::StoreIo;

/// Section tag for entry metadata (entry version + write generation).
pub const TAG_META: u32 = 1;
/// Section tag for the opaque result payload.
pub const TAG_PAYLOAD: u32 = 2;

/// Version of the *entry envelope* (meta section layout). The payload
/// carries its own version inside, owned by the payload codec. Entries
/// are read at exactly this version; any other is refused.
pub const ENTRY_VERSION: u32 = 1;

/// Extension of published entries.
const RES_EXT: &str = "res";
/// Extension of in-flight temp files.
const PART_EXT: &str = "part";
/// Name of the generation counter file.
const GENERATION_FILE: &str = "generation";
/// Name of the maintenance lock file.
const LOCK_FILE: &str = "store.lock";
/// Name of the quarantine subdirectory.
const QUARANTINE_DIR: &str = "quarantine";

/// A lock file untouched for this long is considered abandoned by a
/// dead process and broken.
const LOCK_STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(300);

/// Live counters for one store handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries found on disk and decoded successfully.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Damaged entries moved to `quarantine/` (each also counts as a
    /// miss — the caller recomputes).
    pub quarantined: u64,
    /// Writes dropped because the filesystem failed (store stays
    /// correct; the entry is simply not persisted).
    pub write_failures: u64,
}

/// Outcome of [`ResultStore::fsck`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Entries that parsed and checksummed clean.
    pub valid: u64,
    /// Damaged entries, with the path and the typed rejection.
    pub corrupt: Vec<(PathBuf, SnapshotError)>,
    /// Stale `.part` files found (removed when repairing).
    pub stale_parts: u64,
    /// Whether damage was repaired (quarantined / removed) rather than
    /// just reported.
    pub repaired: bool,
}

impl FsckReport {
    /// True when the store has no damage to report.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.stale_parts == 0
    }
}

/// RAII guard for the maintenance lock; removes the lock file on drop.
struct LockGuard<'a> {
    io: &'a dyn StoreIo,
    path: PathBuf,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        let _ = self.io.remove_file(&self.path);
    }
}

/// A crash-safe, content-addressed result store rooted at one directory.
///
/// Handles are cheap to share (`Arc` internally where it matters); all
/// methods take `&self` and are safe to call from pool workers.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    io: Arc<dyn StoreIo>,
    /// Generation stamped into entries written through this handle.
    generation: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    write_failures: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `root` on the real
    /// filesystem.
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultStore, StoreError> {
        ResultStore::open_with(root, Arc::new(crate::io::RealIo))
    }

    /// Opens the store through an explicit [`StoreIo`] (fault injection
    /// in tests, the real filesystem in production).
    ///
    /// Opening sweeps stale `.part` files left by killed writers and
    /// bumps the generation counter under the maintenance lock, so
    /// entries written by this handle are distinguishable from older
    /// ones for GC.
    pub fn open_with(
        root: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
    ) -> Result<ResultStore, StoreError> {
        let root = root.into();
        io.create_dir_all(&root).map_err(|e| StoreError::Io {
            op: "create_dir_all",
            detail: e.to_string(),
        })?;
        io.create_dir_all(&root.join(QUARANTINE_DIR))
            .map_err(|e| StoreError::Io {
                op: "create_dir_all",
                detail: e.to_string(),
            })?;

        // Satellite 2: a kill between write and rename leaves `.part`
        // litter that would otherwise accumulate forever.
        let _ = clean_stale_parts(io.as_ref(), &root);

        let generation = {
            let _lock = acquire_lock(io.as_ref(), &root)?;
            let gen_path = root.join(GENERATION_FILE);
            let prev = match io.read(&gen_path) {
                Ok(bytes) => std::str::from_utf8(&bytes)
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .unwrap_or(0),
                Err(_) => 0,
            };
            let next = prev + 1;
            // A failed generation write is not fatal: the handle still
            // works, GC just sees an older generation number.
            let _ = io.write(&gen_path, next.to_string().as_bytes());
            next
        };

        Ok(ResultStore {
            root,
            io,
            generation,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The generation this handle stamps into new entries.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Counters accumulated by this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("cell-{key:016x}.{RES_EXT}"))
    }

    /// Looks up the payload for `key`.
    ///
    /// Returns the payload bytes on a clean hit and `None` on a miss. A
    /// damaged entry (bad magic, flipped bit, truncation, wrong
    /// fingerprint, any entry version but [`ENTRY_VERSION`]) is
    /// *quarantined*: moved into `quarantine/`, counted, and reported as
    /// a miss so the caller recomputes. This method never returns
    /// corrupt data and never panics on any file contents.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let bytes = match self.io.read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(e) => {
                self.quarantine(&path, &e);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists `payload` as the entry for `key`.
    ///
    /// Publication is atomic (unique temp + rename); a crash leaves
    /// either the previous entry or the new one, never a torn file
    /// under the published name. Filesystem failures are absorbed: the
    /// write is counted in [`StoreStats::write_failures`] and the store
    /// stays consistent — callers must not treat persistence as
    /// guaranteed.
    pub fn put(&self, key: u64, payload: &[u8]) {
        let mut w = SnapWriter::new(key);
        let generation = self.generation;
        w.section(TAG_META, |e| {
            e.u32(ENTRY_VERSION);
            e.u64(generation);
        });
        w.section(TAG_PAYLOAD, |e| e.bytes(payload));
        if publish(self.io.as_ref(), &self.entry_path(key), &w.finish()).is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Validates the entry for `key` without touching counters or
    /// quarantine. `Ok(false)` means absent.
    pub fn check(&self, key: u64) -> Result<bool, StoreError> {
        let path = self.entry_path(key);
        let bytes = match self.io.read(&path) {
            Ok(b) => b,
            Err(_) => return Ok(false),
        };
        decode_entry(&bytes, key)?;
        Ok(true)
    }

    /// Moves a damaged entry aside into `quarantine/`, stamping the
    /// filename with a uniquifier so repeated damage never collides.
    /// Losing the race (another process already moved it) is benign.
    fn quarantine(&self, path: &Path, err: &SnapshotError) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let dest = self
            .root
            .join(QUARANTINE_DIR)
            .join(format!("{name}.{}.bad", unique_tag()));
        eprintln!(
            "warning: result store quarantined {}: {err}",
            path.display()
        );
        if self.io.rename(path, &dest).is_err() {
            // Either another handle won the race or the rename itself
            // failed; make sure the damaged entry cannot be re-read.
            let _ = self.io.remove_file(path);
        }
    }

    /// Removes entries whose write generation is older than
    /// `current - keep` (so `keep = 0` drops everything not written by
    /// the current generation). Runs under the maintenance lock.
    /// Returns the number of entries removed.
    pub fn gc(&self, keep: u64) -> Result<u64, StoreError> {
        let _lock = acquire_lock(self.io.as_ref(), &self.root)?;
        let floor = self.generation.saturating_sub(keep);
        let mut removed = 0;
        for path in self.list_entries()? {
            let old = match self.io.read(&path) {
                Ok(bytes) => match entry_generation(&bytes) {
                    Ok(g) => g < floor,
                    // Damaged entries are GC'd too — they can never be
                    // replayed, only quarantined on the next get.
                    Err(_) => true,
                },
                Err(_) => continue,
            };
            if old && self.io.remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Validates every entry in the store. With `repair`, damaged
    /// entries are quarantined and stale `.part` files removed (under
    /// the maintenance lock); without it the store is only read.
    pub fn fsck(&self, repair: bool) -> Result<FsckReport, StoreError> {
        let _lock = if repair {
            Some(acquire_lock(self.io.as_ref(), &self.root)?)
        } else {
            None
        };
        let mut report = FsckReport {
            repaired: repair,
            ..FsckReport::default()
        };
        let listing = self.io.read_dir(&self.root).map_err(|e| StoreError::Io {
            op: "read_dir",
            detail: e.to_string(),
        })?;
        for path in listing {
            match path.extension().and_then(|e| e.to_str()) {
                Some(RES_EXT) => {}
                Some(PART_EXT) => {
                    report.stale_parts += 1;
                    if repair {
                        let _ = self.io.remove_file(&path);
                    }
                    continue;
                }
                _ => continue,
            }
            let expected = match key_from_path(&path) {
                Some(k) => k,
                None => continue,
            };
            let verdict = match self.io.read(&path) {
                Ok(bytes) => decode_entry(&bytes, expected).map(|_| ()),
                Err(_) => Err(SnapshotError::Truncated {
                    context: "entry file read",
                }),
            };
            match verdict {
                Ok(()) => report.valid += 1,
                Err(e) => {
                    if repair {
                        self.quarantine(&path, &e);
                    }
                    report.corrupt.push((path, e));
                }
            }
        }
        Ok(report)
    }

    fn list_entries(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut out: Vec<PathBuf> = self
            .io
            .read_dir(&self.root)
            .map_err(|e| StoreError::Io {
                op: "read_dir",
                detail: e.to_string(),
            })?
            .into_iter()
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(RES_EXT))
            .collect();
        out.sort();
        Ok(out)
    }
}

/// Parses an entry, validating magic, version, fingerprint, and both
/// section checksums; returns the payload bytes.
fn decode_entry(bytes: &[u8], expected_key: u64) -> Result<Vec<u8>, SnapshotError> {
    let reader = SnapReader::parse(bytes, Some(expected_key))?;
    let mut meta = reader.section(TAG_META)?;
    let entry_version = meta.u32("store entry version")?;
    if entry_version != ENTRY_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: entry_version,
            supported: ENTRY_VERSION,
        });
    }
    let _generation = meta.u64("store entry generation")?;
    let mut payload = reader.section(TAG_PAYLOAD)?;
    Ok(payload.bytes("store entry payload")?.to_vec())
}

/// Reads just the write generation out of an entry.
fn entry_generation(bytes: &[u8]) -> Result<u64, SnapshotError> {
    let reader = SnapReader::parse(bytes, None)?;
    let mut meta = reader.section(TAG_META)?;
    let _version = meta.u32("store entry version")?;
    meta.u64("store entry generation")
}

/// Recovers the cell key from a published entry filename
/// (`cell-<16 hex>.res`).
fn key_from_path(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    let hex = stem.strip_prefix("cell-")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Publishes `bytes` under `path` atomically: writes them to a temp
/// file `<stem>.<pid>-<seq>.part` beside `path`, renames that over
/// `path`, and removes the temp if either step fails. A kill at any
/// instant leaves the previous file or the new one under `path`, never a
/// torn file, plus at most a `.part` that [`clean_stale_parts`] sweeps.
/// Temp names are unique per process and call, so concurrent publishers
/// of one path never share a temp file; the last rename wins.
///
/// Store entries and `cdp-sim` checkpoints both publish through here.
///
/// # Errors
///
/// The failing write or rename; `path` is then untouched.
pub fn publish(io: &dyn StoreIo, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path.file_stem().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{PART_EXT}", unique_tag()));
    let tmp = path.with_file_name(name);
    let published = io.write(&tmp, bytes).and_then(|()| io.rename(&tmp, path));
    if published.is_err() {
        let _ = io.remove_file(&tmp);
    }
    published
}

/// `<pid>-<seq>`: a suffix no other temp or quarantine name of this
/// process carries.
fn unique_tag() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{}-{seq}", std::process::id())
}

/// Removes `.part` litter (files whose final extension is `part`) left
/// in `dir` by writers killed between write and rename. Returns how
/// many were removed. Shared by the store and the checkpoint dirs in
/// `cdp-sim`; never touches published files.
pub fn clean_stale_parts(io: &dyn StoreIo, dir: &Path) -> u64 {
    let mut removed = 0;
    let Ok(listing) = io.read_dir(dir) else {
        return 0;
    };
    for path in listing {
        if path.extension().and_then(|e| e.to_str()) == Some(PART_EXT)
            && io.remove_file(&path).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

/// Takes the maintenance lock, breaking it if stale (mtime older than
/// [`LOCK_STALE_AFTER`] — the owner died without cleanup).
fn acquire_lock<'a>(io: &'a dyn StoreIo, root: &Path) -> Result<LockGuard<'a>, StoreError> {
    let path = root.join(LOCK_FILE);
    let body = format!("pid {}", std::process::id());
    for _ in 0..2 {
        match io.create_new(&path, body.as_bytes()) {
            Ok(true) => return Ok(LockGuard { io, path }),
            Ok(false) => {
                // Held. Break it only if abandoned (stale mtime).
                let stale = std::fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > LOCK_STALE_AFTER);
                if stale {
                    let _ = io.remove_file(&path);
                    continue;
                }
                let owner = io
                    .read(&path)
                    .ok()
                    .and_then(|b| String::from_utf8(b).ok())
                    .unwrap_or_else(|| "unknown".to_string());
                return Err(StoreError::Locked { owner });
            }
            Err(e) => {
                return Err(StoreError::Io {
                    op: "lock create_new",
                    detail: e.to_string(),
                })
            }
        }
    }
    Err(StoreError::Locked {
        owner: "unknown (stale lock reappeared)".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cdp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip() {
        let dir = scratch("rt");
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(0xABCD), None);
        store.put(0xABCD, b"result bytes");
        assert_eq!(store.get(0xABCD).as_deref(), Some(&b"result bytes"[..]));
        let s = store.stats();
        assert_eq!(
            (s.hits, s.misses, s.quarantined, s.write_failures),
            (1, 1, 0, 0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_survive_reopen_and_generation_bumps() {
        let dir = scratch("gen");
        let g1 = {
            let store = ResultStore::open(&dir).unwrap();
            store.put(7, b"persisted");
            store.generation()
        };
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.generation(), g1 + 1);
        assert_eq!(store.get(7).as_deref(), Some(&b"persisted"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_is_quarantined_not_replayed() {
        let dir = scratch("wrongkey");
        let store = ResultStore::open(&dir).unwrap();
        store.put(1, b"belongs to key 1");
        // Republish key 1's bytes under key 2's name, as a bad repair
        // script might.
        let bytes = std::fs::read(store.entry_path(1)).unwrap();
        std::fs::write(store.entry_path(2), &bytes).unwrap();
        assert_eq!(store.get(2), None, "fingerprint mismatch must not replay");
        assert_eq!(store.stats().quarantined, 1);
        assert!(!store.root().join("cell-0000000000000002.res").exists());
        // Quarantine kept the evidence.
        let q = RealIo.read_dir(&store.root().join(QUARANTINE_DIR)).unwrap();
        assert_eq!(q.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_old_generations() {
        let dir = scratch("gc");
        {
            let store = ResultStore::open(&dir).unwrap(); // generation 1
            store.put(10, b"old");
        }
        let store = ResultStore::open(&dir).unwrap(); // generation 2
        store.put(11, b"new");
        assert_eq!(store.gc(1).unwrap(), 0, "keep=1 preserves generation 1");
        assert_eq!(store.get(10).as_deref(), Some(&b"old"[..]));
        assert_eq!(store.gc(0).unwrap(), 1, "keep=0 drops generation 1");
        assert_eq!(store.get(10), None);
        assert_eq!(store.get(11).as_deref(), Some(&b"new"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_parts() {
        let dir = scratch("parts");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(3, b"keep me");
        }
        std::fs::write(dir.join("cell-0000000000000003.999-0.part"), b"torn").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("part"))
            .collect();
        assert!(litter.is_empty(), "open must sweep .part litter");
        assert_eq!(store.get(3).as_deref(), Some(&b"keep me"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_and_repairs() {
        let dir = scratch("fsck");
        let store = ResultStore::open(&dir).unwrap();
        store.put(1, b"good");
        store.put(2, b"will be damaged");
        // Flip a byte in entry 2's payload region.
        let p2 = store.entry_path(2);
        let mut bytes = std::fs::read(&p2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p2, &bytes).unwrap();
        std::fs::write(dir.join("cell-0000000000000009.1-0.part"), b"x").unwrap();

        let report = store.fsck(false).unwrap();
        assert_eq!(report.valid, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.stale_parts, 1);
        assert!(!report.is_clean());
        assert!(p2.exists(), "dry run must not move files");

        let report = store.fsck(true).unwrap();
        assert_eq!(report.corrupt.len(), 1);
        assert!(!p2.exists(), "repair quarantines the damaged entry");

        let report = store.fsck(false).unwrap();
        assert!(report.is_clean(), "store is clean after repair: {report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintenance_lock_excludes_and_releases() {
        let dir = scratch("lock");
        let store = ResultStore::open(&dir).unwrap();
        let io = RealIo;
        let guard = acquire_lock(&io, store.root()).unwrap();
        match store.gc(0) {
            Err(StoreError::Locked { owner }) => {
                assert!(owner.contains("pid"), "owner recorded: {owner}")
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(guard);
        assert!(store.gc(0).is_ok(), "lock released on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_replaces_atomically_and_cleans_its_temp_on_failure() {
        let dir = scratch("publish");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell-00000000000000aa.snap");
        publish(&RealIo, &path, b"first").unwrap();
        publish(&RealIo, &path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let failing = crate::io::FaultyIo::new(
            RealIo,
            crate::io::FaultConfig {
                rename_error_period: 1,
                ..crate::io::FaultConfig::none(1)
            },
        );
        assert!(publish(&failing, &path, b"lost").is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"second",
            "a failed publish leaves the old file"
        );
        let names: Vec<_> = RealIo.read_dir(&dir).unwrap();
        assert_eq!(names, vec![path], "no temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_parses_from_entry_name() {
        assert_eq!(
            key_from_path(Path::new("/x/cell-00000000000000ff.res")),
            Some(0xFF)
        );
        assert_eq!(key_from_path(Path::new("/x/cell-zz.res")), None);
        assert_eq!(key_from_path(Path::new("/x/generation")), None);
    }
}
