//! # cdp — Content-Directed Data Prefetching, reproduced
//!
//! A full reproduction of Cooksey, Jourdan & Grunwald, *A Stateless,
//! Content-Directed Data Prefetching Mechanism* (ASPLOS 2002), built as a
//! cycle-level out-of-order CPU and memory-hierarchy simulator in Rust.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`types`] — address newtypes, request kinds, and [`types::SystemConfig`]
//!   (Table 1 of the paper).
//! * [`mem`] — set-associative caches, TLBs, page walker, MSHRs, bus,
//!   and the byte-level virtual memory image.
//! * [`core`] — the 3-wide out-of-order core model (gshare, ROB, LSQ).
//! * [`prefetch`] — the stride, **content-directed**, and Markov prefetchers,
//!   plus the virtual-address-matching (VAM) heuristic.
//! * [`workloads`] — synthetic linked-data-structure workloads standing in
//!   for the paper's 15 commercial traces.
//! * [`sim`] — the full-system simulator, statistics, and speedup harness.
//! * [`obs`] — structured event tracing, JSON/JSONL serialization, and run
//!   manifests for machine-readable experiment artifacts.
//! * [`snap`] — the versioned, checksummed snapshot codec behind
//!   checkpoint/resume (DESIGN.md §12).
//! * [`store`] — the crash-safe on-disk result store and the deterministic
//!   filesystem fault-injection layer (DESIGN.md §14).
//! * [`experiments`] — one entry point per paper table/figure.
//!
//! # Quickstart
//!
//! ```
//! use cdp::sim::{Simulator, RunLength};
//! use cdp::types::SystemConfig;
//! use cdp::workloads::suite::Benchmark;
//!
//! // Build a small pointer-chasing workload.
//! let workload = Benchmark::SpecjbbVsnet.build(RunLength::Smoke.scale(), 42);
//!
//! // Run it on the stride-only baseline and on the CDP-enhanced system.
//! let base = Simulator::new(SystemConfig::asplos2002()).run(&workload);
//! let cdp = Simulator::new(SystemConfig::with_content()).run(&workload);
//!
//! // The content prefetcher should not slow the pointer workload down.
//! assert!(cdp.cycles <= base.cycles);
//! ```

pub use cdp_core as core;
pub use cdp_experiments as experiments;
pub use cdp_mem as mem;
pub use cdp_obs as obs;
pub use cdp_prefetch as prefetch;
pub use cdp_sim as sim;
pub use cdp_snap as snap;
pub use cdp_store as store;
pub use cdp_types as types;
pub use cdp_workloads as workloads;
