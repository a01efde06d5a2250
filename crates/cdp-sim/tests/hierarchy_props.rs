//! Randomized invariant tests over the assembled memory hierarchy: whatever
//! the access pattern and configuration, timing and accounting invariants
//! must hold. Driven by the in-repo seeded PRNG, so every run checks the
//! same deterministic case set.

use cdp_core::MemoryModel;
use cdp_mem::AddressSpace;
use cdp_sim::hierarchy::Hierarchy;
use cdp_types::{AccessKind, ContentConfig, SystemConfig, VirtAddr};
use cdp_workloads::structures::build_list;
use cdp_workloads::Heap;

fn pointer_space(nodes: usize) -> (AddressSpace, Vec<VirtAddr>) {
    let mut space = AddressSpace::new();
    let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 24);
    let mut rng = cdp_testutil::seeded_rng(99);
    let list = build_list(&mut space, &mut heap, &mut rng, nodes, 48, true);
    (space, list.nodes)
}

/// Completion is never before `now + L1 latency`, for any access mix and
/// any prefetcher configuration.
#[test]
fn completion_respects_minimum_latency() {
    let (space, nodes) = pointer_space(64);
    let mut rng = cdp_testutil::seeded_rng(0x41e4_0001);
    for case in 0..24 {
        let with_content = case % 2 == 0;
        let cfg = if with_content {
            SystemConfig::with_content()
        } else {
            SystemConfig::asplos2002()
        };
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        let n = rng.gen_range_usize(1..120);
        for _ in 0..n {
            let i = rng.gen_range_usize(0..64);
            let gap = rng.next_u64() % 500;
            let store = rng.gen_bool(0.5);
            now += gap;
            let kind = if store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let done = h.access(0x40, nodes[i], kind, now);
            assert!(done >= now + 3, "completion {done} before {now}+3");
            now = now.max(done.saturating_sub(400));
        }
    }
}

/// Accounting partitions hold for random access sequences.
#[test]
fn accounting_partitions() {
    let (space, nodes) = pointer_space(48);
    let mut rng = cdp_testutil::seeded_rng(0x41e4_0002);
    for _ in 0..24 {
        let mut h = Hierarchy::new(SystemConfig::with_content(), &space);
        let mut now = 0u64;
        let n = rng.gen_range_usize(1..150);
        for _ in 0..n {
            let i = rng.gen_range_usize(0..48);
            now += 1 + rng.next_u64() % 1999;
            h.access(0x80, nodes[i], AccessKind::Load, now);
        }
        let s = h.stats();
        assert_eq!(s.accesses, s.l1_hits + s.l1_misses);
        assert_eq!(s.l1_misses, s.l2_demand_accesses);
        assert_eq!(
            s.l2_demand_accesses,
            s.l2_demand_hits + s.l2_miss_merged + s.l2_demand_misses
        );
        assert!(s.content.useful() <= s.content.issued);
        assert_eq!(s.distribution.unmasked_misses, s.l2_demand_misses);
    }
}

/// Re-running the identical access sequence gives identical statistics
/// (full determinism, any depth/width configuration).
#[test]
fn determinism_across_configs() {
    let (space, nodes) = pointer_space(32);
    let mut rng = cdp_testutil::seeded_rng(0x41e4_0003);
    for _ in 0..24 {
        let n = rng.gen_range_usize(1..60);
        let picks: Vec<(usize, u64)> = (0..n)
            .map(|_| (rng.gen_range_usize(0..32), 1 + rng.next_u64() % 799))
            .collect();
        let depth = rng.gen_range_u8(1..6);
        let next_lines = rng.gen_range_u32(0..4);
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.content = Some(ContentConfig {
            depth_threshold: depth,
            next_lines,
            ..ContentConfig::tuned()
        });
        let run = |cfg: &SystemConfig| {
            let mut h = Hierarchy::new(cfg.clone(), &space);
            let mut now = 0u64;
            let mut acc = 0u64;
            for &(i, gap) in &picks {
                now += gap;
                acc = acc.wrapping_add(h.access(0x80, nodes[i], AccessKind::Load, now));
            }
            (acc, h.stats().l2_demand_misses, h.stats().content.issued)
        };
        assert_eq!(run(&cfg), run(&cfg));
    }
}

/// The scanner enforces the chain-depth bound before the hierarchy sees
/// the request, so `drops.too_deep` stays zero at any threshold.
#[test]
fn depth_threshold_enforced_at_source() {
    let (space, nodes) = pointer_space(32);
    let mut rng = cdp_testutil::seeded_rng(0x41e4_0004);
    for _ in 0..24 {
        let depth = rng.gen_range_u8(1..8);
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.content = Some(ContentConfig {
            depth_threshold: depth,
            ..ContentConfig::tuned()
        });
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        let n = rng.gen_range_usize(1..40);
        for _ in 0..n {
            let i = rng.gen_range_usize(0..32);
            now += 700;
            h.access(0x80, nodes[i], AccessKind::Load, now);
        }
        assert_eq!(h.stats().drops.too_deep, 0);
    }
}
