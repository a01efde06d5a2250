//! Shared vocabulary types for the content-directed data prefetching (CDP)
//! simulator.
//!
//! This crate defines the address newtypes, memory-request descriptors, and
//! configuration structures used by every other crate in the workspace. It
//! deliberately contains *no* behavior beyond address arithmetic so that the
//! memory system, the core model, and the prefetchers can all depend on it
//! without cycles.
//!
//! The simulated machine follows Table 1 of Cooksey, Jourdan & Grunwald,
//! *A Stateless, Content-Directed Data Prefetching Mechanism* (ASPLOS 2002):
//! a 4-GHz, 3-wide out-of-order IA-32-like core with a 32 KB L1 data cache,
//! a 1 MB unified L2, 64-byte lines, 4 KB pages, and a 460-cycle memory bus.
//!
//! # Examples
//!
//! ```
//! use cdp_types::{VirtAddr, LINE_SIZE};
//!
//! let a = VirtAddr(0x1000_1234);
//! assert_eq!(a.line().0, 0x1000_1200);
//! assert_eq!(a.line_offset(), 0x34 % LINE_SIZE as u32);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod error;
pub mod request;
pub mod rng;
pub mod validate;

pub use addr::{LineAddr, PageNum, PhysAddr, VirtAddr};
pub use config::{
    AdaptiveConfig, ArbiterConfig, BusConfig, CacheConfig, ContentConfig, CoreConfig, DeltaConfig,
    DeltaKeySpace, JumpConfig, MarkovConfig, ObsConfig, PerceptronConfig, PrefetchersConfig,
    ReplacementPolicy, StreamConfig, StrideConfig, SystemConfig, TlbConfig, TraceConfig,
    TraceFilter, VamConfig, PERCEPTRON_FEATURES,
};
pub use error::{CdpError, SnapshotError, StoreError};
pub use request::{AccessKind, Engine, Priority, RequestKind, MAX_REQUEST_DEPTH};
pub use validate::ConfigError;

/// Cache line size in bytes (Table 1: 64 bytes).
pub const LINE_SIZE: usize = 64;

/// Page size in bytes (Table 1: 4 KB).
pub const PAGE_SIZE: usize = 4096;

/// Size in bytes of an address-sized word scanned by the content prefetcher
/// (IA-32: 4 bytes).
pub const WORD_SIZE: usize = 4;

/// Number of address-sized words in one cache line.
pub const WORDS_PER_LINE: usize = LINE_SIZE / WORD_SIZE;
