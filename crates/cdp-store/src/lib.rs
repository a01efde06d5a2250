//! Crash-safe, content-addressed on-disk result store for the CDP
//! simulator.
//!
//! Sweep cells are keyed by their run fingerprint (`cdp_sim::SimJob::key`),
//! which hashes every input that shapes a result, so a cell's result is a
//! pure function of its key. This crate persists those
//! results across processes with the same defensive discipline as the
//! checkpoint codec (`cdp-snap`): every entry is a versioned, checksummed
//! container; damage of any kind — torn writes, flipped bits, truncation,
//! entries from a different cell or a future format — surfaces as a typed
//! [`cdp_types::SnapshotError`], quarantines the entry, and falls back to
//! recomputation. The store never panics on file contents and never
//! replays corrupt data.
//!
//! The store is *payload-agnostic*: it moves opaque bytes. The codec that
//! turns a simulation result into bytes lives with the simulator
//! (`cdp-sim`), keeping the dependency graph acyclic.
//!
//! Two layers:
//!
//! * [`io`] — the [`StoreIo`] filesystem trait, its real implementation,
//!   and a seeded deterministic fault injector ([`FaultyIo`]) used by the
//!   chaos tests to prove the crash-safety story instead of asserting it.
//! * [`store`] — the [`ResultStore`] itself: atomic publication (the
//!   [`publish`] step checkpoints share), corruption quarantine,
//!   generation-based GC, a maintenance lock, and an `fsck` pass exposed
//!   through the `store-fsck` binary.
//!
//! # Examples
//!
//! ```
//! use cdp_store::ResultStore;
//!
//! let dir = std::env::temp_dir().join(format!("cdp-store-doc-{}", std::process::id()));
//! let store = ResultStore::open(&dir).unwrap();
//! store.put(0xFEED, b"encoded result");
//! assert_eq!(store.get(0xFEED).as_deref(), Some(&b"encoded result"[..]));
//! assert_eq!(store.get(0xBEEF), None); // miss: caller recomputes
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

pub mod io;
pub mod store;

pub use io::{FaultConfig, FaultCounts, FaultyIo, RealIo, StoreIo};
pub use store::{
    clean_stale_parts, publish, FsckReport, ResultStore, StoreStats, ENTRY_VERSION, TAG_META,
    TAG_PAYLOAD,
};
