//! The virtual-address-matching (VAM) pointer-recognition heuristic (§3.3).
//!
//! "The virtual address matching predictor originates from the idea that the
//! base address of a data structure is hinted at via the load of any member
//! of the data structure ... most virtual data addresses tend to share
//! common high-order bits."
//!
//! A 32-bit word from a fill is declared a *candidate virtual address* when
//! (Figure 2, Figure 5):
//!
//! 1. **Align bits** — its low `align_bits` bits are zero (compilers place
//!    pointers on 2/4-byte boundaries);
//! 2. **Compare bits** — its upper `compare_bits` bits equal the upper bits
//!    of the *effective address that triggered the fill*;
//! 3. **Filter bits** — if those shared upper bits are all zeros (or all
//!    ones), the next `filter_bits` bits must contain a non-zero (resp.
//!    non-one) bit, rescuing true pointers in the extreme regions while
//!    rejecting small positive (resp. negative) integers.
//!
//! The scanner walks the 64-byte line in `scan_step`-byte steps, evaluating
//! every in-bounds word — conceptually in parallel in hardware ("such a
//! design can (and does) lead to multiple prefetches being generated per
//! cycle").

use cdp_types::{VamConfig, VirtAddr, LINE_SIZE, WORD_SIZE};

/// The outcome of classifying one word against the VAM heuristic, naming
/// which test rejected it. The observability layer records this per-word;
/// the hot path only cares about [`VamVerdict::Accept`] via
/// [`is_candidate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VamVerdict {
    /// The word looks like a pointer: prefetch it.
    Accept,
    /// Low `align_bits` were not zero.
    RejectAlign,
    /// Upper `compare_bits` did not match the trigger address.
    RejectCompare,
    /// The word sits in an all-zeros/all-ones region and its filter bits
    /// did not discriminate it from a small integer.
    RejectFilter,
}

/// Classifies `word` against the fill's triggering effective address,
/// reporting which VAM test (align, compare, filter) decided its fate.
///
/// This is the single source of truth for the heuristic; [`is_candidate`]
/// is a thin wrapper, so the two can never disagree.
#[inline]
pub fn classify(word: u32, trigger_ea: VirtAddr, cfg: &VamConfig) -> VamVerdict {
    // Alignment test first (cheapest): low `align_bits` must be zero.
    if cfg.align_bits > 0 && word.trailing_zeros() < cfg.align_bits {
        return VamVerdict::RejectAlign;
    }
    let n = cfg.compare_bits;
    if n == 0 || n >= 32 {
        // Degenerate configurations: 0 compare bits matches everything
        // aligned; >=32 requires exact equality with the trigger.
        return if n == 0 || word == trigger_ea.0 {
            VamVerdict::Accept
        } else {
            VamVerdict::RejectCompare
        };
    }
    let shift = 32 - n;
    let upper_word = word >> shift;
    let upper_ea = trigger_ea.0 >> shift;
    if upper_word != upper_ea {
        return VamVerdict::RejectCompare;
    }
    let all_ones_pattern = (1u32 << n) - 1;
    let all_zeros = upper_word == 0;
    let all_ones = upper_word == all_ones_pattern;
    if !all_zeros && !all_ones {
        return VamVerdict::Accept;
    }
    // Extreme regions: consult the filter bits. Zero filter bits means no
    // prediction here at all.
    if cfg.filter_bits == 0 {
        return VamVerdict::RejectFilter;
    }
    let m = cfg.filter_bits.min(32 - n);
    let filter = (word >> (32 - n - m)) & ((1u32 << m) - 1);
    let passes = if all_zeros {
        // A "likely address" must have some non-zero bit just below the
        // compare field, i.e. be large enough to not be a small integer.
        filter != 0
    } else {
        // Upper region: look for a non-one bit (reject small negatives).
        filter != (1u32 << m) - 1
    };
    if passes {
        VamVerdict::Accept
    } else {
        VamVerdict::RejectFilter
    }
}

/// Decides whether `word` looks like a pointer given the fill's triggering
/// effective address.
///
/// # Examples
///
/// ```
/// use cdp_prefetch::is_candidate;
/// use cdp_types::{VamConfig, VirtAddr};
///
/// let cfg = VamConfig::tuned(); // 8 compare, 4 filter, 1 align, step 2
/// let trigger = VirtAddr(0x1040_2000);
/// // Shares the 0x10 upper byte with the trigger: candidate.
/// assert!(is_candidate(0x10ab_cde0, trigger, &cfg));
/// // Upper byte differs: rejected.
/// assert!(!is_candidate(0x20ab_cde0, trigger, &cfg));
/// ```
#[inline]
pub fn is_candidate(word: u32, trigger_ea: VirtAddr, cfg: &VamConfig) -> bool {
    matches!(classify(word, trigger_ea, cfg), VamVerdict::Accept)
}

/// One candidate found while scanning a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineScan {
    /// Byte offset of the word within the scanned line.
    pub offset: usize,
    /// The candidate virtual address (the word's value).
    pub candidate: VirtAddr,
}

/// Maximum candidates a single line scan can yield: the densest scan (a
/// 1-byte step) examines `(LINE_SIZE - WORD_SIZE) + 1 = 61` words.
pub const MAX_SCAN_HITS: usize = LINE_SIZE - WORD_SIZE + 1;

/// Fixed-capacity, stack-allocated result of [`scan_line`].
///
/// The scan runs once per L2 fill — the hottest loop in the simulator — so
/// it must not touch the heap. Dereferences to `&[LineScan]`, so existing
/// slice-style call sites (`.len()`, `.iter()`, indexing) keep working.
#[derive(Clone, Copy, Debug)]
pub struct ScanHits {
    hits: [LineScan; MAX_SCAN_HITS],
    len: usize,
}

impl ScanHits {
    const EMPTY: LineScan = LineScan {
        offset: 0,
        candidate: VirtAddr(0),
    };

    /// An empty hit set.
    #[inline]
    pub fn new() -> Self {
        ScanHits {
            hits: [Self::EMPTY; MAX_SCAN_HITS],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, hit: LineScan) {
        self.hits[self.len] = hit;
        self.len += 1;
    }

    /// The hits found, in line-offset order.
    #[inline]
    pub fn as_slice(&self) -> &[LineScan] {
        &self.hits[..self.len]
    }
}

impl Default for ScanHits {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for ScanHits {
    type Target = [LineScan];

    #[inline]
    fn deref(&self) -> &[LineScan] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a ScanHits {
    type Item = &'a LineScan;
    type IntoIter = std::slice::Iter<'a, LineScan>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The loop-invariant part of a line scan, precomputed once per fill.
///
/// [`classify`] re-derives masks and shifts from the config for every
/// word; over a 16–61-word line that work is identical each time. The
/// plan folds the three VAM tests into three mask/shift/compare triples
/// so the per-word check is pure straight-line bit arithmetic:
///
/// * align — `word & align_mask == 0` (`align_bits >= 33` can never
///   pass, since `trailing_zeros` is at most 32: planned as reject-all);
/// * compare — `(word as u64) >> cmp_shift == cmp_value`, which unifies
///   the degenerate regimes: `n == 0` shifts everything away
///   (`0 == 0`), `n >= 32` shifts nothing (exact equality);
/// * filter — `(word >> filter_shift) & filter_mask != filter_reject`.
///   The extreme-region test depends only on the *trigger's* upper bits
///   (a word that passes compare shares them), so whether the filter
///   fires at all is known before the scan: outside the extreme regions
///   the mask is 0 and reject is 1, which can never match. A trigger in
///   an extreme region with `filter_bits == 0` rejects every
///   compare-passing word, i.e. the whole scan — planned as reject-all.
struct ScanPlan {
    align_mask: u32,
    cmp_shift: u32,
    cmp_value: u64,
    filter_shift: u32,
    filter_mask: u32,
    filter_reject: u32,
}

impl ScanPlan {
    /// Builds the plan, or `None` when no word can possibly be accepted.
    fn new(trigger_ea: VirtAddr, cfg: &VamConfig) -> Option<ScanPlan> {
        let align_mask = match cfg.align_bits {
            0 => 0,
            a @ 1..=31 => (1u32 << a) - 1,
            32 => u32::MAX,
            _ => return None,
        };
        let n = cfg.compare_bits;
        let (cmp_shift, cmp_value) = if n == 0 {
            (32, 0)
        } else if n >= 32 {
            (0, u64::from(trigger_ea.0))
        } else {
            (32 - n, u64::from(trigger_ea.0 >> (32 - n)))
        };
        let (mut filter_shift, mut filter_mask, mut filter_reject) = (0, 0, 1);
        if (1..32).contains(&n) {
            let upper_ea = trigger_ea.0 >> (32 - n);
            let ones = (1u32 << n) - 1;
            if upper_ea == 0 || upper_ea == ones {
                if cfg.filter_bits == 0 {
                    return None;
                }
                let m = cfg.filter_bits.min(32 - n);
                filter_shift = 32 - n - m;
                filter_mask = (1u32 << m) - 1;
                filter_reject = if upper_ea == 0 { 0 } else { filter_mask };
            }
        }
        Some(ScanPlan {
            align_mask,
            cmp_shift,
            cmp_value,
            filter_shift,
            filter_mask,
            filter_reject,
        })
    }
}

/// Scans a 64-byte fill for candidate virtual addresses (Figure 5).
///
/// `trigger_ea` is the effective address of the memory request that caused
/// the fill. Words are read little-endian at offsets `0, s, 2s, …` while
/// the full word stays in bounds: a 1-byte step examines 61 words, a 4-byte
/// step 16 (§3.3's worked example). The result lives entirely on the stack:
/// no heap allocation per scanned line.
///
/// This is the optimized scanner. The config-dependent mask/shift work is
/// hoisted into a [`ScanPlan`] built once per line (including reject-all
/// short-circuits that skip the loop entirely), words are read with
/// single unaligned little-endian loads, and each word faces one
/// branch-free mask/shift/compare triple per test, most discriminating
/// first. Fully branchless per-word evaluation (accept bitmasks,
/// unconditional stores) measured *slower* than this shape on real fill
/// mixes — see PERF.md for the negative results. [`scan_line_scalar`] is
/// the straight-from-the-paper reference; the differential test suite
/// holds them hit-for-hit identical.
pub fn scan_line(data: &[u8; LINE_SIZE], trigger_ea: VirtAddr, cfg: &VamConfig) -> ScanHits {
    let mut found = ScanHits::new();
    let Some(plan) = ScanPlan::new(trigger_ea, cfg) else {
        return found;
    };
    let step = cfg.scan_step.max(1);
    let mut offset = 0;
    while offset + WORD_SIZE <= LINE_SIZE {
        let word = u32::from_le_bytes(data[offset..offset + 4].try_into().unwrap());
        // Compare first: it is the most discriminating test on real fill
        // traffic (most words do not share the trigger's upper bits), so
        // the common case is a single shift-and-compare rejection.
        if (u64::from(word) >> plan.cmp_shift) == plan.cmp_value
            && (word & plan.align_mask) == 0
            && ((word >> plan.filter_shift) & plan.filter_mask) != plan.filter_reject
        {
            found.push(LineScan {
                offset,
                candidate: VirtAddr(word),
            });
        }
        offset += step;
    }
    found
}

/// Scalar reference implementation of [`scan_line`]: one [`classify`]
/// call per word, exactly as §3.3 describes the hardware. Kept as the
/// differential oracle for the optimized scanner (and for readers who
/// want the heuristic without the bit tricks).
pub fn scan_line_scalar(data: &[u8; LINE_SIZE], trigger_ea: VirtAddr, cfg: &VamConfig) -> ScanHits {
    let step = cfg.scan_step.max(1);
    let mut found = ScanHits::new();
    let mut offset = 0;
    while offset + WORD_SIZE <= LINE_SIZE {
        let word = u32::from_le_bytes([
            data[offset],
            data[offset + 1],
            data[offset + 2],
            data[offset + 3],
        ]);
        if is_candidate(word, trigger_ea, cfg) {
            found.push(LineScan {
                offset,
                candidate: VirtAddr(word),
            });
        }
        offset += step;
    }
    found
}

/// Number of words examined per line for a given scan step (61 for 1-byte
/// steps, 16 for 4-byte steps — §3.3).
pub fn words_examined(scan_step: usize) -> usize {
    let step = scan_step.max(1);
    (LINE_SIZE - WORD_SIZE) / step + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::rng::Rng;

    fn cfg(n: u32, m: u32, a: u32, s: usize) -> VamConfig {
        VamConfig {
            compare_bits: n,
            filter_bits: m,
            align_bits: a,
            scan_step: s,
        }
    }

    #[test]
    fn classify_names_the_rejecting_test() {
        let c = cfg(8, 4, 1, 2);
        let trigger = VirtAddr(0x1040_2000);
        assert_eq!(classify(0x10ab_cde0, trigger, &c), VamVerdict::Accept);
        // Odd word: align test fires before anything else.
        assert_eq!(classify(0x10ab_cde1, trigger, &c), VamVerdict::RejectAlign);
        // Upper byte differs from the trigger.
        assert_eq!(
            classify(0x20ab_cde0, trigger, &c),
            VamVerdict::RejectCompare
        );
        // All-zeros region trigger + small integer: filter test fires.
        let low_trigger = VirtAddr(0x0000_2000);
        assert_eq!(
            classify(0x0000_0004, low_trigger, &c),
            VamVerdict::RejectFilter
        );
        // Degenerate n >= 32: exact match required.
        let exact = cfg(32, 0, 0, 2);
        assert_eq!(classify(trigger.0, trigger, &exact), VamVerdict::Accept);
        assert_eq!(
            classify(trigger.0 + 4, trigger, &exact),
            VamVerdict::RejectCompare
        );
        // Extreme region with no filter bits: no prediction at all.
        let nofilter = cfg(8, 0, 0, 2);
        assert_eq!(
            classify(0x00ab_cde0, low_trigger, &nofilter),
            VamVerdict::RejectFilter
        );
    }

    #[test]
    fn classify_agrees_with_is_candidate_everywhere() {
        let mut rng = Rng::seed_from_u64(0x0b5e_7ab1e);
        let configs = [
            cfg(8, 4, 1, 2),
            cfg(0, 0, 0, 4),
            cfg(32, 4, 2, 2),
            cfg(30, 8, 0, 1),
        ];
        for c in &configs {
            for _ in 0..2000 {
                let word = rng.next_u32();
                let trigger = VirtAddr(rng.next_u32());
                let verdict = classify(word, trigger, c);
                assert_eq!(
                    is_candidate(word, trigger, c),
                    verdict == VamVerdict::Accept,
                    "divergence for word {word:#x} trigger {trigger:?} cfg {c:?}"
                );
            }
        }
    }

    const TRIGGER: VirtAddr = VirtAddr(0x1040_2468);

    #[test]
    fn matching_upper_bits_is_candidate() {
        let c = cfg(8, 4, 1, 2);
        assert!(is_candidate(0x10ff_fffe, TRIGGER, &c));
        assert!(is_candidate(0x1000_0000, TRIGGER, &c));
    }

    #[test]
    fn mismatched_upper_bits_rejected() {
        let c = cfg(8, 4, 1, 2);
        assert!(!is_candidate(0x1140_2468, TRIGGER, &c));
        assert!(!is_candidate(0xf040_2468, TRIGGER, &c));
        assert!(!is_candidate(0x0f40_2468, TRIGGER, &c));
    }

    #[test]
    fn align_bits_reject_odd_pointers() {
        let c1 = cfg(8, 4, 1, 2);
        assert!(!is_candidate(0x1040_2469, TRIGGER, &c1), "odd word");
        assert!(is_candidate(0x1040_246a, TRIGGER, &c1), "2-byte aligned");
        let c2 = cfg(8, 4, 2, 2);
        assert!(
            !is_candidate(0x1040_246a, TRIGGER, &c2),
            "not 4-byte aligned"
        );
        assert!(is_candidate(0x1040_246c, TRIGGER, &c2));
        let c0 = cfg(8, 4, 0, 2);
        assert!(is_candidate(0x1040_2469, TRIGGER, &c0), "align disabled");
    }

    #[test]
    fn lower_region_requires_nonzero_filter_bit() {
        let c = cfg(8, 4, 0, 2);
        let low_trigger = VirtAddr(0x00ab_cdef);
        // Upper 8 bits all zero; filter bits = bits 23..20.
        assert!(
            !is_candidate(0x0001_2345, low_trigger, &c),
            "small integer: filter bits 0000"
        );
        assert!(
            is_candidate(0x00ab_2345, low_trigger, &c),
            "large-enough value: filter bit set"
        );
        // With zero filter bits, nothing in the region predicts.
        let c0 = cfg(8, 0, 0, 2);
        assert!(!is_candidate(0x00ab_2345, low_trigger, &c0));
    }

    #[test]
    fn upper_region_requires_nonone_filter_bit() {
        let c = cfg(8, 4, 0, 2);
        let hi_trigger = VirtAddr(0xffab_cdef);
        assert!(
            !is_candidate(0xfff1_2345, hi_trigger, &c),
            "small negative: filter bits 1111"
        );
        assert!(
            is_candidate(0xff7b_2345, hi_trigger, &c),
            "true high address: a filter bit is 0"
        );
    }

    #[test]
    fn zero_compare_bits_accepts_all_aligned() {
        let c = cfg(0, 0, 1, 2);
        assert!(is_candidate(0xdead_beee, TRIGGER, &c));
        assert!(!is_candidate(0xdead_beef, TRIGGER, &c), "odd fails align");
    }

    #[test]
    fn scan_counts_match_paper() {
        assert_eq!(words_examined(1), 61);
        assert_eq!(words_examined(2), 31);
        assert_eq!(words_examined(4), 16);
    }

    #[test]
    fn scan_line_finds_embedded_pointers() {
        let c = cfg(8, 4, 1, 2);
        let mut data = [0u8; LINE_SIZE];
        // Pointer at offset 8 and offset 40; junk elsewhere.
        data[8..12].copy_from_slice(&0x1012_3456u32.to_le_bytes());
        data[40..44].copy_from_slice(&0x10ff_0000u32.to_le_bytes());
        data[20..24].copy_from_slice(&0x0000_0007u32.to_le_bytes()); // small int
        let hits = scan_line(&data, TRIGGER, &c);
        let offs: Vec<usize> = hits.iter().map(|h| h.offset).collect();
        assert_eq!(offs, vec![8, 40]);
        assert_eq!(hits[0].candidate, VirtAddr(0x1012_3456));
    }

    #[test]
    fn scan_step_skips_unaligned_offsets() {
        let c = cfg(8, 4, 0, 4);
        let mut data = [0u8; LINE_SIZE];
        // A pointer at odd offset 3 is invisible to a 4-byte-step scan.
        data[3..7].copy_from_slice(&0x1012_3456u32.to_le_bytes());
        assert!(scan_line(&data, TRIGGER, &c).is_empty());
        // Same pointer at offset 4 is found.
        let mut data2 = [0u8; LINE_SIZE];
        data2[4..8].copy_from_slice(&0x1012_3456u32.to_le_bytes());
        assert_eq!(scan_line(&data2, TRIGGER, &c).len(), 1);
    }

    #[test]
    fn all_zero_line_yields_nothing() {
        let c = cfg(8, 4, 1, 2);
        assert!(scan_line(&[0u8; LINE_SIZE], TRIGGER, &c).is_empty());
        // Even with a zero-region trigger: zero words have zero filter bits.
        assert!(scan_line(&[0u8; LINE_SIZE], VirtAddr(0x0000_1000), &c).is_empty());
    }

    #[test]
    fn more_compare_bits_shrink_the_match_set() {
        // Increasing N monotonically restricts candidacy (Figure 7's
        // coverage-vs-accuracy trade-off).
        let trigger = VirtAddr(0x1040_2468);
        for word in [0x1040_0000u32, 0x10ff_0000, 0x1000_0000] {
            let wide = is_candidate(word, trigger, &cfg(8, 4, 0, 2));
            let narrow = is_candidate(word, trigger, &cfg(12, 4, 0, 2));
            assert!(wide || !narrow, "narrow accepts what wide rejects");
        }
    }

    #[test]
    fn boundary_of_the_zero_region() {
        // With 8 compare bits, the zero region is [0, 0x0100_0000): the
        // first address outside it never consults the filter bits.
        let c = cfg(8, 0, 0, 2); // zero filter bits: no extreme-region predictions
        let trig_low = VirtAddr(0x00f0_0000);
        assert!(
            !is_candidate(0x00f0_0000, trig_low, &c),
            "inside zero region"
        );
        let trig_out = VirtAddr(0x0100_0000);
        assert!(is_candidate(0x0100_0000, trig_out, &c), "just outside");
    }

    #[test]
    fn boundary_of_the_ones_region() {
        let c = cfg(8, 0, 0, 2);
        let trig_hi = VirtAddr(0xff00_0000);
        assert!(
            !is_candidate(0xff00_0000, trig_hi, &c),
            "inside ones region"
        );
        let trig_out = VirtAddr(0xfe00_0000);
        assert!(is_candidate(0xfeff_fffe, trig_out, &c), "just below");
    }

    #[test]
    fn filter_bits_examine_exactly_m_bits() {
        // N=8, M=4: filter bits are bits 23..20. A value whose only set
        // bit is bit 19 (below the filter window) stays rejected.
        let c = cfg(8, 4, 0, 2);
        let low = VirtAddr(0x00ab_0000);
        assert!(
            !is_candidate(0x0008_0000, low, &c),
            "bit 19 is below the window"
        );
        assert!(
            is_candidate(0x0010_0000, low, &c),
            "bit 20 is in the window"
        );
        assert!(
            is_candidate(0x0080_0000, low, &c),
            "bit 23 is in the window"
        );
    }

    #[test]
    fn filter_wider_than_remaining_bits_is_clamped() {
        // N=30 leaves 2 bits; M=8 must clamp without panicking.
        let c = cfg(30, 8, 0, 2);
        let t = VirtAddr(0x0000_0001);
        let _ = is_candidate(0x0000_0002, t, &c);
    }

    #[test]
    fn trigger_in_one_region_word_in_another_never_matches() {
        let c = cfg(8, 8, 0, 2);
        // Upper bytes differ (0x00 vs 0xff): compare bits already fail,
        // regardless of filters.
        assert!(!is_candidate(0xff00_1234, VirtAddr(0x0000_5678), &c));
        assert!(!is_candidate(0x0000_1234, VirtAddr(0xffff_5678), &c));
    }

    #[test]
    fn thirty_two_compare_bits_require_exact_equality() {
        let c = cfg(32, 0, 0, 2);
        assert!(is_candidate(0x1234_5678, VirtAddr(0x1234_5678), &c));
        assert!(!is_candidate(0x1234_567a, VirtAddr(0x1234_5678), &c));
    }

    // Randomized invariant checks (seeded in-repo PRNG; deterministic).

    /// A word equal to the trigger EA (aligned) is always a candidate when
    /// the trigger is outside the extreme regions.
    #[test]
    fn prop_self_pointer_is_candidate() {
        let mut rng = Rng::seed_from_u64(0x7a11);
        let c = cfg(8, 4, 1, 2);
        for _ in 0..2000 {
            let ea = rng.gen_range_u32(0x0100_0000..0xfe00_0000) & !1;
            assert!(is_candidate(ea, VirtAddr(ea), &c), "ea {ea:#x}");
        }
    }

    /// Candidates always share the upper compare bits with the trigger.
    #[test]
    fn prop_candidates_share_upper_bits() {
        let mut rng = Rng::seed_from_u64(0x7a12);
        for _ in 0..4000 {
            let word = rng.next_u32();
            let ea = rng.next_u32();
            let n = rng.gen_range_u32(1..16);
            let c = cfg(n, 4, 0, 2);
            if is_candidate(word, VirtAddr(ea), &c) {
                assert_eq!(
                    word >> (32 - n),
                    ea >> (32 - n),
                    "word {word:#x} ea {ea:#x} n {n}"
                );
            }
        }
    }

    /// The align test never passes a word with a low set bit.
    #[test]
    fn prop_align_enforced() {
        let mut rng = Rng::seed_from_u64(0x7a13);
        for _ in 0..4000 {
            let word = rng.next_u32();
            let a = rng.gen_range_u32(1..3);
            let c = cfg(8, 4, a, 2);
            if is_candidate(word, VirtAddr(word), &c) {
                assert_eq!(word & ((1 << a) - 1), 0, "word {word:#x} a {a}");
            }
        }
    }

    /// scan_line only reports words that individually satisfy is_candidate,
    /// at offsets that are multiples of the step.
    #[test]
    fn prop_scan_agrees_with_predicate() {
        let mut rng = Rng::seed_from_u64(0x7a14);
        for _ in 0..500 {
            let mut data = [0u8; LINE_SIZE];
            for b in data.iter_mut() {
                *b = (rng.next_u32() >> 24) as u8;
            }
            let ea = rng.next_u32();
            let step = rng.gen_range_usize(1..5);
            let c = cfg(8, 4, 1, step);
            for hit in &scan_line(&data, VirtAddr(ea), &c) {
                assert_eq!(hit.offset % step, 0);
                let w = u32::from_le_bytes(data[hit.offset..hit.offset + 4].try_into().unwrap());
                assert!(is_candidate(w, VirtAddr(ea), &c));
                assert_eq!(hit.candidate, VirtAddr(w));
            }
        }
    }

    /// The hit set never exceeds the fixed capacity, even on the densest
    /// possible line (every word a candidate, 1-byte step).
    #[test]
    fn scan_hits_capacity_covers_densest_line() {
        let c = cfg(8, 4, 0, 1);
        let trigger = VirtAddr(0x1040_2468);
        let mut data = [0u8; LINE_SIZE];
        for chunk in data.chunks_exact_mut(4) {
            chunk.copy_from_slice(&0x1040_0000u32.to_le_bytes());
        }
        // Every byte offset decodes to some 0x10..-prefixed word? Not all,
        // but the 4-aligned ones do; a uniform fill of 0x00 0x00 0x40 0x10
        // repeated makes offsets 0,4,8,.. candidates and the scan must
        // stay within capacity regardless.
        let hits = scan_line(&data, trigger, &c);
        assert!(hits.len() <= MAX_SCAN_HITS);
        assert_eq!(words_examined(1), MAX_SCAN_HITS);
    }
}
