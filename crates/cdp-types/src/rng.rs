//! Small, deterministic, dependency-free PRNG for workload generation.
//!
//! The simulator needs reproducible pseudo-random streams (workload image
//! layout, probe sequences, branch noise) but nothing cryptographic, so a
//! xoshiro256++ generator seeded through SplitMix64 is plenty: it is the
//! standard non-crypto generator pairing (Blackman & Vigna), passes BigCrush,
//! and — unlike an external `rand` dependency — builds with no registry
//! access. Streams are stable across platforms and releases: a given seed
//! always produces the same sequence.
//!
//! Note: this generator replaced `rand::rngs::StdRng` (ChaCha12), so
//! workload images differ from pre-replacement builds even at identical
//! seeds. All cross-configuration comparisons remain valid because every
//! configuration sees the same regenerated stream.
//!
//! # Examples
//!
//! ```
//! use cdp_types::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let a = rng.gen_range_u32(0..10);
//! assert!(a < 10);
//! let mut again = Rng::seed_from_u64(42);
//! assert_eq!(again.gen_range_u32(0..10), a, "streams are reproducible");
//! ```

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ generator with SplitMix64 seeding.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Seeds the generator from a single `u64` by expanding it through
    /// SplitMix64 (the seeding procedure recommended by the xoshiro
    /// authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The full generator state, for checkpointing a stream mid-sequence.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from [`Rng::state`]; the restored generator
    /// continues the original sequence exactly.
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng { s }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper half of the 64-bit output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `u64` below `bound` (> 0) via the widening-multiply method.
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire multiply-shift with rejection of the biased tail.
        let mut x = self.next_u64();
        let mut m = x as u128 * bound as u128;
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = x as u128 * bound as u128;
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_usize(&mut self, r: Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range");
        r.start + self.below((r.end - r.start) as u64) as usize
    }

    /// Uniform `u32` in a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_u32(&mut self, r: Range<u32>) -> u32 {
        assert!(r.start < r.end, "empty range");
        r.start + self.below((r.end - r.start) as u64) as u32
    }

    /// Uniform `u8` in a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_u8(&mut self, r: Range<u8>) -> u8 {
        assert!(r.start < r.end, "empty range");
        r.start + self.below((r.end - r.start) as u64) as u8
    }

    /// Uniform `u32` in an inclusive range.
    #[inline]
    pub fn gen_range_u32_incl(&mut self, r: RangeInclusive<u32>) -> u32 {
        let (lo, hi) = (*r.start(), *r.end());
        assert!(lo <= hi, "empty range");
        lo + self.below(hi as u64 - lo as u64 + 1) as u32
    }

    /// Uniform `usize` in an inclusive range.
    #[inline]
    pub fn gen_range_usize_incl(&mut self, r: RangeInclusive<usize>) -> usize {
        let (lo, hi) = (*r.start(), *r.end());
        assert!(lo <= hi, "empty range");
        lo + self.below((hi - lo) as u64 + 1) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, s: &mut [T]) {
        for i in (1..s.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            s.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_xoshiro256pp() {
        // Reference values from the public-domain xoshiro256++ C source,
        // state seeded with SplitMix64(0).
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
            ]
        );
    }

    #[test]
    fn seeds_give_reproducible_distinct_streams() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(123);
        for _ in 0..2000 {
            assert!(rng.gen_range_usize(3..17) < 17);
            assert!(rng.gen_range_usize(3..17) >= 3);
            let v = rng.gen_range_u32_incl(5..=9);
            assert!((5..=9).contains(&v));
            let b = rng.gen_range_u8(0..4);
            assert!(b < 4);
        }
        // Single-value inclusive range is fine.
        assert_eq!(rng.gen_range_u32_incl(4..=4), 4);
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range_usize(0..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all range values reachable");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            let g = rng.next_f32();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "64 elements virtually never shuffle to identity");
    }
}
