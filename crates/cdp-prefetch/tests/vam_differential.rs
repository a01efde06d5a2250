//! Differential test: the optimized branchless [`scan_line`] against the
//! straight-from-the-paper [`scan_line_scalar`] reference.
//!
//! The optimized scanner precomputes a per-line plan (masks, shifts,
//! reject-all short-circuits) and uses unaligned 8-byte loads with an
//! unconditional-store hit loop; the scalar reference calls
//! [`cdp_prefetch::classify`] per word. The two must agree **hit for
//! hit** — same offsets, same candidate values, same order — over an
//! exhaustive configuration grid crossed with randomized and adversarial
//! line contents, including every degenerate regime the plan folds away
//! (`compare_bits >= 32`, `align_bits >= 32`, steps larger than a word,
//! steps that do not divide the line size, extreme-region triggers with
//! and without filter bits).

use cdp_prefetch::{scan_line, scan_line_scalar, ScanHits};
use cdp_types::{rng::Rng, VamConfig, VirtAddr, LINE_SIZE};

fn assert_hits_identical(fast: &ScanHits, slow: &ScanHits, ctx: &str) {
    assert_eq!(fast.len(), slow.len(), "hit count diverged: {ctx}");
    for (f, s) in fast.iter().zip(slow.iter()) {
        assert_eq!(f, s, "hit diverged: {ctx}");
    }
}

fn check(data: &[u8; LINE_SIZE], trigger: VirtAddr, cfg: &VamConfig) {
    let fast = scan_line(data, trigger, cfg);
    let slow = scan_line_scalar(data, trigger, cfg);
    assert_hits_identical(
        &fast,
        &slow,
        &format!(
            "trigger={trigger:?} cfg={cfg:?} data[0..8]={:?}",
            &data[..8]
        ),
    );
}

/// The exhaustive knob grid. Degenerate values on purpose:
/// `compare_bits` 32 (exact-equality regime) and 33 (still exact);
/// `filter_bits` 32/40 (clamped to the bits below the compare field);
/// `align_bits` 31/32 (only word 0 passes) and 33 (nothing passes);
/// `scan_step` 3/5 (does not divide 64), 8 (> WORD_SIZE), 61 (one word
/// plus the final in-bounds offset), 64/100 (a single word).
const COMPARE_BITS: &[u32] = &[0, 1, 4, 8, 16, 30, 31, 32, 33];
const FILTER_BITS: &[u32] = &[0, 1, 4, 8, 31, 32, 40];
const ALIGN_BITS: &[u32] = &[0, 1, 2, 31, 32, 33];
const SCAN_STEPS: &[usize] = &[1, 2, 3, 4, 5, 8, 61, 64, 100];

/// Triggers chosen so every compare width sees a mid-range, an
/// all-zeros-region, and an all-ones-region upper field.
const TRIGGERS: &[u32] = &[
    0x1040_2468,
    0x0000_0123,
    0xffff_fde8,
    0x8000_0000,
    0x0000_0000,
];

fn line_variants(rng: &mut Rng) -> Vec<[u8; LINE_SIZE]> {
    let mut lines = Vec::new();
    // All zeros and all ones: the extreme-region filter's home turf.
    lines.push([0u8; LINE_SIZE]);
    lines.push([0xffu8; LINE_SIZE]);
    // Uniform random bytes.
    for _ in 0..3 {
        let mut l = [0u8; LINE_SIZE];
        for b in l.iter_mut() {
            *b = (rng.next_u32() >> 24) as u8;
        }
        lines.push(l);
    }
    // Pointer-dense: words near each trigger at misaligned offsets, so
    // the tail loads (offsets 57..=60) see realistic candidates.
    let mut dense = [0u8; LINE_SIZE];
    for (i, chunk) in dense.chunks_exact_mut(4).enumerate() {
        let near = TRIGGERS[i % TRIGGERS.len()].wrapping_add((i as u32) << 3);
        chunk.copy_from_slice(&near.to_le_bytes());
    }
    lines.push(dense);
    let mut shifted = [0u8; LINE_SIZE];
    shifted[1..].copy_from_slice(&dense[..LINE_SIZE - 1]);
    lines.push(shifted);
    lines
}

#[test]
fn exhaustive_grid_matches_scalar_reference() {
    let mut rng = Rng::seed_from_u64(0xd1ff_5ca9);
    let lines = line_variants(&mut rng);
    for &compare_bits in COMPARE_BITS {
        for &filter_bits in FILTER_BITS {
            for &align_bits in ALIGN_BITS {
                for &scan_step in SCAN_STEPS {
                    let cfg = VamConfig {
                        compare_bits,
                        filter_bits,
                        align_bits,
                        scan_step,
                    };
                    for &t in TRIGGERS {
                        for data in &lines {
                            check(data, VirtAddr(t), &cfg);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn randomized_configs_and_lines_match_scalar_reference() {
    let mut rng = Rng::seed_from_u64(0xd1ff_5caa);
    for _ in 0..2000 {
        let cfg = VamConfig {
            compare_bits: rng.gen_range_u32(0..36),
            filter_bits: rng.gen_range_u32(0..36),
            align_bits: rng.gen_range_u32(0..34),
            scan_step: rng.gen_range_usize(1..70),
        };
        let trigger = VirtAddr(rng.next_u32());
        let mut data = [0u8; LINE_SIZE];
        for b in data.iter_mut() {
            *b = (rng.next_u32() >> 24) as u8;
        }
        // Seed a few trigger-sharing words at random (possibly odd) offsets
        // so accepts are common enough to exercise the hit-store path.
        for _ in 0..4 {
            let off = rng.gen_range_usize(0..LINE_SIZE - 4);
            let w = (trigger.0 & 0xffff_0000) | (rng.next_u32() & 0xfffe);
            data[off..off + 4].copy_from_slice(&w.to_le_bytes());
        }
        check(&data, trigger, &cfg);
    }
}

#[test]
fn densest_line_fills_capacity_identically() {
    // step 1 over a line where every offset decodes to an accepted word:
    // both scanners must report all 61 in-bounds offsets.
    let cfg = VamConfig {
        compare_bits: 0,
        filter_bits: 0,
        align_bits: 0,
        scan_step: 1,
    };
    let data = [0xabu8; LINE_SIZE];
    let fast = scan_line(&data, VirtAddr(0), &cfg);
    let slow = scan_line_scalar(&data, VirtAddr(0), &cfg);
    assert_eq!(fast.len(), 61);
    assert_hits_identical(&fast, &slow, "densest line");
}

#[test]
fn tail_offsets_use_the_shifted_chunk_load() {
    // A candidate visible only at offsets 57..=60 — the region where the
    // optimized scanner shifts out of the final 8-byte chunk.
    let trigger = VirtAddr(0x1040_2468);
    for off in 57..=60usize {
        let mut data = [0u8; LINE_SIZE];
        data[off..off + 4].copy_from_slice(&0x1040_aaa0u32.to_le_bytes());
        let cfg = VamConfig {
            compare_bits: 8,
            filter_bits: 4,
            align_bits: 1,
            scan_step: 1,
        };
        let fast = scan_line(&data, trigger, &cfg);
        assert!(
            fast.iter().any(|h| h.offset == off),
            "tail candidate at {off} missed"
        );
        check(&data, trigger, &cfg);
    }
}
