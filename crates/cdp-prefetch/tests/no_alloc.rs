//! Proves the per-event hot paths are allocation-free: they run under a
//! counting global allocator and must not touch the heap.
//!
//! The VAM scanner runs once per L2 fill and the delta table (the §5
//! Markov STAB included) once per L2 demand miss — millions of times per
//! experiment — so a `Vec` push in either is a measurable fraction of
//! total wall time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdp_prefetch::{scan_line, DeltaPrefetcher};
use cdp_types::rng::Rng;
use cdp_types::{DeltaConfig, MarkovConfig, VamConfig, VirtAddr, LINE_SIZE};

/// System allocator wrapper that counts allocations made while the
/// current thread has opted in, per thread. Libtest's harness threads
/// (timers, output capture) and concurrently running tests never bleed
/// into a measurement — only the measuring loop's own thread counts.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts the heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn scan_line_never_allocates() {
    let cfg = VamConfig::tuned();
    let trigger = VirtAddr(0x1040_2468);

    // A line dense with candidate pointers (every word shares the upper
    // bits), a line of junk, and a line of zeros: the scanner must stay
    // off the heap whether it finds 0 or dozens of candidates.
    let mut dense = [0u8; LINE_SIZE];
    for w in 0..LINE_SIZE / 4 {
        dense[w * 4..w * 4 + 4].copy_from_slice(&(0x1040_0000u32 + w as u32 * 16).to_le_bytes());
    }
    let mut junk = [0u8; LINE_SIZE];
    for (i, b) in junk.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(37).wrapping_add(11);
    }
    let zeros = [0u8; LINE_SIZE];

    // Warm up (lazy test-harness state must not count against the scan).
    let warm = scan_line(&dense, trigger, &cfg);
    assert!(!warm.is_empty(), "dense line must yield candidates");

    let mut found = 0usize;
    let n = allocations(|| {
        for _ in 0..1000 {
            found += scan_line(&dense, trigger, &cfg).len();
            found += scan_line(&junk, trigger, &cfg).len();
            found += scan_line(&zeros, trigger, &cfg).len();
        }
    });

    assert!(found > 0, "the loop did real work");
    assert_eq!(
        n, 0,
        "scan_line must not allocate (hot path: one call per L2 fill)"
    );
}

#[test]
fn delta_table_misses_never_allocate_once_warm() {
    // A cyclic miss trace: a shuffled ring of 24 lines walked three times
    // and back to its head, like a traversal of a linked ring. After one
    // warm-up pass every key the next pass touches is resident, so the
    // steady state trains, predicts and (in delta space) chases without
    // a single allocation.
    let mut rng = Rng::seed_from_u64(0xA110C);
    let mut ring: Vec<u32> = (0..24).map(|i| 0x10_0000 + i * 0x440).collect();
    for i in (1..ring.len()).rev() {
        ring.swap(i, rng.gen_range_usize(0..i + 1));
    }
    let mut trace: Vec<u32> = ring.iter().copied().cycle().take(3 * ring.len()).collect();
    trace.push(ring[0]);

    let engines = [
        ("stab", DeltaPrefetcher::stab(&MarkovConfig::half())),
        (
            "delta",
            DeltaPrefetcher::new(&DeltaConfig::pangloss(16 * 1024)),
        ),
    ];
    for (name, mut dp) in engines {
        let mut out = Vec::new();
        let mut pass = |dp: &mut DeltaPrefetcher| {
            let mut emitted = 0;
            for &a in &trace {
                out.clear();
                dp.observe_miss(VirtAddr(a), &mut out);
                emitted += out.len();
            }
            emitted
        };
        pass(&mut dp);
        let mut emitted = 0;
        let n = allocations(|| emitted = pass(&mut dp));
        assert!(
            emitted >= trace.len(),
            "{name}: every warm miss must predict"
        );
        assert_eq!(n, 0, "{name}: a warm table must not allocate per miss");
    }
}

#[test]
fn table_sets_are_allocated_on_first_insert() {
    // The unbounded `markov_big` STAB has 2^20 sets; reserving them up
    // front would cost ~640 MiB per cell before a single miss.
    let n = allocations(|| drop(DeltaPrefetcher::stab(&MarkovConfig::unbounded())));
    assert!(n <= 2, "building an empty table made {n} allocations");
}
