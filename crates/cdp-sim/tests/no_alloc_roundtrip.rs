//! Proves the steady-state simulation hot path is allocation-free: a
//! full demand → miss → MSHR → fill → VAM scan → prefetch round trip
//! runs under a counting global allocator and must not touch the heap
//! once warmed.
//!
//! This extends the `scan_line` no-alloc check in `cdp-prefetch` to the
//! whole memory model: the set-major tag arrays of the caches, the
//! direct-indexed frame table behind `read_line_into`, the linear-probe
//! MSHR file with its completion heap and reused drain buffer, and the
//! pooled prefetch-request buffers. The L2 is shrunk so the workload
//! churns — steady-state eviction, re-miss, and chained content
//! prefetches all stay on the measured path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cdp_core::{MemoryModel, UopKind};
use cdp_sim::Hierarchy;
use cdp_types::{AccessKind, SystemConfig};
use cdp_workloads::suite::Benchmark;

/// System allocator wrapper that counts every allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Replays every memory uop of the trace through the hierarchy with a
/// simple in-order clock, returning the finishing cycle.
fn replay(h: &mut Hierarchy<'_>, uops: &[cdp_core::Uop], mut now: u64) -> u64 {
    for u in uops {
        let Some(vaddr) = u.vaddr() else { continue };
        let kind = match u.kind {
            UopKind::Store { .. } => AccessKind::Store,
            _ => AccessKind::Load,
        };
        let done = h.access(u.pc, vaddr, kind, now);
        now = done.max(now + 1);
    }
    now
}

#[test]
fn fill_scan_prefetch_roundtrip_never_allocates() {
    // A pointer-chasing workload (the content prefetcher's bread and
    // butter) over a deliberately small L2, so the measured pass keeps
    // missing, filling, evicting, and chaining prefetches.
    let w = cdp_testutil::tiny_workload(Benchmark::Slsb, 0xa110_c001);
    let mut cfg = SystemConfig::with_content();
    cfg.ul2.size_bytes = 32 * 1024;
    let mut h = Hierarchy::new(cfg, &w.space);

    // Two warm-up passes: grow every pooled buffer, hash table, the MSHR
    // completion heap, and the pending-dirty set to their steady-state
    // capacity.
    // The measured pass replays the identical uop sequence, so no
    // structure sees a larger high-water mark than warm-up did.
    let now = replay(&mut h, &w.program.uops, 0);
    let now = replay(&mut h, &w.program.uops, now);

    let stats_before = *h.stats();
    assert!(
        stats_before.l2_demand_misses > 0,
        "warm-up exercised the L2"
    );

    let before = ALLOCS.load(Ordering::SeqCst);
    replay(&mut h, &w.program.uops, now);
    let after = ALLOCS.load(Ordering::SeqCst);

    let stats_after = *h.stats();
    assert!(
        stats_after.accesses > stats_before.accesses,
        "the measured pass did real work"
    );
    assert!(
        stats_after.l2_demand_misses > stats_before.l2_demand_misses,
        "the measured pass kept missing (tiny L2 must churn)"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state fill-scan-prefetch round trip must not allocate"
    );
}
