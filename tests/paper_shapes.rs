//! Qualitative paper-shape tests: the claims of Cooksey, Jourdan &
//! Grunwald that must hold in any faithful reproduction, checked at smoke
//! scale through the public API.

use cdp::prefetch::{is_candidate, ContentPrefetcher};
use cdp::sim::{speedup, RunLength, Simulator};
use cdp::types::{ContentConfig, MarkovConfig, SystemConfig, VamConfig, VirtAddr};
use cdp::workloads::suite::Benchmark;

/// §3.3: the worked VAM examples — shared upper bits accept, differing
/// bits reject, alignment and the extreme-region filters apply.
#[test]
fn vam_heuristic_matches_the_papers_rules() {
    let cfg = VamConfig::tuned();
    let trigger = VirtAddr(0x1040_2468);
    assert!(is_candidate(0x10ab_cde0, trigger, &cfg));
    assert!(!is_candidate(0x11ab_cde0, trigger, &cfg), "compare bits");
    assert!(!is_candidate(0x10ab_cde1, trigger, &cfg), "align bit");
    // Zero region: small integers rejected, plausible addresses rescued
    // by the filter bits.
    let low = VirtAddr(0x00ab_0000);
    assert!(!is_candidate(0x0000_1234, low, &cfg));
    assert!(is_candidate(0x00b0_1234, low, &cfg));
    // One region: small negatives rejected.
    let hi = VirtAddr(0xffab_0000);
    assert!(!is_candidate(0xffff_fffe, hi, &cfg));
    assert!(is_candidate(0xff0b_1234, hi, &cfg));
}

/// §3.4.1 / Figure 3: chains stop at the depth threshold.
#[test]
fn chains_respect_the_depth_threshold() {
    let mut cdp = ContentPrefetcher::new(ContentConfig {
        next_lines: 0,
        ..ContentConfig::tuned()
    });
    let mut line = [0u8; 64];
    line[0..4].copy_from_slice(&0x1000_4000u32.to_le_bytes());
    let mut out = Vec::new();
    assert!(cdp.scan_fill(VirtAddr(0x1000_0000), &line, 2, &mut out) > 0);
    assert_eq!(out[0].kind.depth(), 3);
    out.clear();
    assert_eq!(cdp.scan_fill(VirtAddr(0x1000_0000), &line, 3, &mut out), 0);
    assert!(out.is_empty(), "depth-3 fill is not scanned at threshold 3");
}

/// Abstract / §1: the prefetcher needs no training period — it masks
/// compulsory misses on the very first traversal, which a Markov
/// prefetcher cannot.
#[test]
fn content_masks_compulsory_misses_markov_cannot() {
    // Seed chosen so the smoke-scale trace draws pointer-chase phases
    // (some seeds draw mostly index-chase work, which is unchaseable by
    // design).
    let w = Benchmark::Slsb.build(RunLength::Smoke.scale(), 18);
    // No warm-up: everything is a compulsory miss.
    let base = Simulator::new(SystemConfig::asplos2002()).run(&w);
    let cdp = Simulator::new(SystemConfig::with_content()).run(&w);
    let markov = Simulator::new(SystemConfig::with_markov(
        MarkovConfig::unbounded(),
        1 << 20,
        8,
    ))
    .run(&w);
    assert!(
        cdp.mem.content.useful() > 50,
        "CDP masks cold misses: {}",
        cdp.mem.content.useful()
    );
    let s_cdp = speedup(&base, &cdp);
    let s_markov = speedup(&base, &markov);
    assert!(
        s_cdp > s_markov,
        "content ({s_cdp:.3}) must beat a still-training Markov ({s_markov:.3})"
    );
}

/// §4.2.1: on pointer-intensive workloads, the tuned configuration with
/// path reinforcement is at least as good as the stateless one.
#[test]
fn reinforcement_does_not_hurt_pointer_workloads() {
    let w = Benchmark::Tpcc3.build(RunLength::Smoke.scale(), 17);
    let base = Simulator::new(SystemConfig::asplos2002()).run(&w);
    let reinf = Simulator::new(SystemConfig::with_content()).run(&w);
    let mut nr_cfg = SystemConfig::asplos2002();
    nr_cfg.prefetchers.content = Some(ContentConfig {
        reinforcement: false,
        ..ContentConfig::tuned()
    });
    let nr = Simulator::new(nr_cfg).run(&w);
    let (s_reinf, s_nr) = (speedup(&base, &reinf), speedup(&base, &nr));
    assert!(
        s_reinf >= s_nr - 0.05,
        "reinforcement should help or tie: {s_reinf:.3} vs {s_nr:.3}"
    );
}

/// §3.5: page-walk traffic must bypass the scanner — otherwise page
/// tables (arrays of pointers) would explode the prefetcher.
#[test]
fn page_tables_never_reach_the_scanner() {
    use cdp::core::MemoryModel;
    use cdp::mem::AddressSpace;
    use cdp::sim::Hierarchy;
    use cdp::types::AccessKind;

    let mut space = AddressSpace::new();
    // One mapped line whose only word is a small integer.
    space.write_u32(VirtAddr(0x1000_0000), 7);
    let mut h = Hierarchy::new(SystemConfig::with_content(), &space);
    let t = h.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, 0);
    let _ = h.access(0x44, VirtAddr(0x1000_0000), AccessKind::Load, t + 10_000);
    // The walk filled two page-table lines into the L2, but only the
    // demand fill was scanned.
    assert!(h.stats().dtlb_misses >= 1);
    assert_eq!(h.content_stats().unwrap().fills_scanned, 1);
    assert_eq!(h.stats().content.issued, 0);
}

/// §5 / Figure 11: repartitioning UL2 capacity into a Markov STAB is a
/// losing trade on this suite.
#[test]
fn markov_repartitioning_loses_cache_capacity_value() {
    let w = Benchmark::Tpcc2.build(RunLength::Smoke.scale(), 31);
    let base = Simulator::new(SystemConfig::asplos2002()).run(&w);
    let half = Simulator::new(SystemConfig::with_markov(
        MarkovConfig::half(),
        512 * 1024,
        8,
    ))
    .run(&w);
    let content = Simulator::new(SystemConfig::with_content()).run(&w);
    assert!(
        speedup(&base, &content) > speedup(&base, &half),
        "content must beat markov_1/2"
    );
}

/// Table 2 shape: the workstation pointer chasers have the highest miss
/// rates; the cache-resident productivity codes the lowest.
#[test]
fn mptu_ordering_matches_table2_extremes() {
    let mptu = |b: Benchmark| {
        let w = b.build(RunLength::Smoke.scale(), 1);
        Simulator::new(SystemConfig::asplos2002()).run(&w).mptu()
    };
    let gate = mptu(Benchmark::VerilogGate);
    let b2e = mptu(Benchmark::B2e);
    let proe = mptu(Benchmark::ProE);
    // At smoke scale the mid-tier benchmarks compress together, but the
    // extremes of Table 2 must stay ordered.
    assert!(
        gate > 4.0 * b2e.max(0.1) && gate > proe,
        "gate {gate:.1} must dominate b2e {b2e:.1} / proE {proe:.1}"
    );
}
