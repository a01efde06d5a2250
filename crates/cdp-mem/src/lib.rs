//! Memory substrate for the content-directed prefetching simulator.
//!
//! Everything the paper's memory system needs, built from scratch:
//!
//! * [`phys`] — a sparse, byte-level physical memory backing store. Cache
//!   fills return *real bytes* from here; this is what makes content-directed
//!   prefetching (which scans fill data for pointers) simulatable at all.
//! * [`vmem`] — a 32-bit virtual address space with IA-32-style two-level
//!   page tables that physically live *inside* the backing store, a frame
//!   allocator, and a hardware page walker that reports the physical
//!   addresses it touches (so walks create real, scanner-bypassing traffic).
//! * [`cache`] — a generic set-associative cache with true-LRU replacement,
//!   parameterized over per-line metadata so the L2 can carry the content
//!   prefetcher's 2-bit request-depth tag (§3.4.2 of the paper).
//! * [`tlb`] — set-associative translation look-aside buffers.
//! * [`bus`] — the 460-cycle, occupancy-limited front-side bus and DRAM.
//! * [`mshr`] — in-flight miss tracking with the paper's priority promotion
//!   of prefetches hit by demands.

#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod mshr;
pub mod phys;
pub mod tlb;
pub mod vmem;

pub use bus::{Bus, BusStats};
pub use cache::{AccessResult, Cache, EvictClass, EvictedLine};
pub use mshr::{InFlight, MshrFile, MshrStats};
pub use phys::{PhysMem, FRAME_LIMIT};
pub use tlb::Tlb;
pub use vmem::{AddressSpace, WalkResult};
