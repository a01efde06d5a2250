//! Synthetic workload generation.
//!
//! The paper evaluates on 15 proprietary commercial traces (Table 2). This
//! crate substitutes a parameterized synthetic suite with the same names
//! and the same *qualitative spread*: low-MPTU codes whose working sets fit
//! the L2, stride-dominated multimedia codes, and high-MPTU pointer
//! chasers. Each workload is:
//!
//! 1. a **memory image** — linked lists, trees, and hash tables written
//!    byte-for-byte into an [`cdp_mem::AddressSpace`] by heap allocators
//!    that share high-order address bits (the property the VAM heuristic
//!    exploits), and
//! 2. a **dependency-annotated uop trace** that traverses those structures,
//!    with load-to-load dependences carried through registers so pointer
//!    chasing serializes in the out-of-order core.
//!
//! Modules:
//!
//! * [`heap`] — bump allocators with alignment, padding, and address-space
//!   regions mimicking OS/runtime layout.
//! * [`structures`] — linked data structure builders (lists, binary trees,
//!   chained hash tables, arrays of structs).
//! * [`trace`] — the uop-trace builder (pointer chases, stride scans, hash
//!   probes, compute bursts, branches).
//! * [`suite`] — the 15-benchmark suite mirroring Table 2.
//! * [`serialize`] — plain-text save/load of complete workloads
//!   (trace + memory image) for regression pinning and external tools.

#![warn(missing_docs)]

pub mod heap;
pub mod serialize;
pub mod structures;
pub mod suite;
pub mod trace;

pub use heap::Heap;
pub use suite::{Benchmark, Scale, StreamSpec, Suite, Workload, STREAM_THRESHOLD_UOPS};
pub use trace::TraceBuilder;
