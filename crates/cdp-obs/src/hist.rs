//! HDR-style log-bucketed histograms for latency attribution.
//!
//! A [`Hist`] records unsigned samples (cycles, queue depths) into a
//! fixed set of log-linear buckets: values below 8 get exact buckets,
//! and every power-of-two octave above that is split into 8 sub-buckets
//! (3 significant bits), giving a worst-case relative error of 12.5%
//! across the full `u64` range with a flat 496-slot table. That is the
//! same trade HdrHistogram makes, shrunk to the simulator's needs:
//! recording is two shifts and an add on a fixed array — no allocation,
//! no branching beyond the sub-8 fast path — so the hot paths can carry
//! one behind the existing zero-overhead-when-off observability hooks.
//!
//! Histograms are *mergeable* (elementwise add, so per-shard histograms
//! combine without bias) and *snapshot-able*: [`Hist::save_state`] /
//! [`Hist::restore_state`] round-trip through the `cdp-snap` codec with
//! a sparse nonzero-bucket encoding, preserving state bit-identically
//! across checkpoint/resume.

use cdp_snap::{Dec, Enc};
use cdp_types::SnapshotError;

/// Sub-bucket resolution bits: each octave above 2^3 splits into
/// `1 << SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 3;

/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count: 8 exact low buckets plus 8 sub-buckets for each
/// of the 61 octaves `2^3 ..= 2^63`.
pub const HIST_BUCKETS: usize = SUBS * 62;

/// Index of the bucket holding `v`.
#[inline]
#[must_use]
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        (((exp - SUB_BITS + 1) as usize) << SUB_BITS) + ((v >> (exp - SUB_BITS)) & 7) as usize
    }
}

/// Smallest value mapping to bucket `idx` (the bucket's reported value).
#[inline]
#[must_use]
fn bucket_lo(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let exp = (idx >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (idx & (SUBS - 1)) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }
}

/// A mergeable log-bucketed histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use cdp_obs::Hist;
///
/// let mut h = Hist::new();
/// for v in [3, 5, 5, 900, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 3);
/// assert_eq!(h.percentile(50.0), 5);
/// assert!(h.percentile(99.0) >= 900);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket sample counts.
    counts: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact sum of all samples (u128: 2^64 samples of 2^64 cannot
    /// overflow it).
    sum: u128,
    /// Smallest sample seen (`u64::MAX` while empty).
    min: u64,
    /// Largest sample seen (0 while empty).
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram (the merge identity).
    #[must_use]
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resets the histogram to empty without reallocating.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Folds `other` into `self` (elementwise). Merging is commutative
    /// and associative, with [`Hist::new`] as identity, so per-shard
    /// histograms combine in any order.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at percentile `p` (0–100): the lower bound of the
    /// bucket containing the `ceil(p/100 * count)`-th sample, clamped
    /// into `[min, max]` so extremes are exact. Deterministic, and
    /// monotone in `p`. Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lo(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Serializes the histogram (sparse nonzero-bucket encoding).
    pub fn save_state(&self, enc: &mut Enc) {
        enc.u64(self.count);
        enc.u128(self.sum);
        enc.u64(self.min);
        enc.u64(self.max);
        let nonzero = self.counts.iter().filter(|&&c| c != 0).count();
        enc.seq_len(nonzero);
        for (idx, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                enc.u32(idx as u32);
                enc.u64(c);
            }
        }
    }

    /// Restores a histogram written by [`Hist::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on truncation or a structurally
    /// impossible encoding (out-of-range or non-ascending bucket
    /// indices, bucket counts that do not sum to the total).
    pub fn restore_state(dec: &mut Dec<'_>) -> Result<Hist, SnapshotError> {
        let mut h = Hist::new();
        h.count = dec.u64("hist count")?;
        h.sum = dec.u128("hist sum")?;
        h.min = dec.u64("hist min")?;
        h.max = dec.u64("hist max")?;
        let n = dec.seq_len(12, "hist nonzero buckets")?;
        let mut total = 0u64;
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let idx = dec.u32("hist bucket index")?;
            let c = dec.u64("hist bucket count")?;
            if idx as usize >= HIST_BUCKETS || prev.is_some_and(|p| idx <= p) || c == 0 {
                return Err(SnapshotError::Corrupt {
                    context: "hist bucket encoding",
                });
            }
            prev = Some(idx);
            h.counts[idx as usize] = c;
            total = total.checked_add(c).ok_or(SnapshotError::Corrupt {
                context: "hist bucket count overflow",
            })?;
        }
        if total != h.count {
            return Err(SnapshotError::Corrupt {
                context: "hist count mismatch",
            });
        }
        Ok(h)
    }

    /// Summary as a JSON object: count, sum, min/max, and the p50 /
    /// p90 / p99 / p999 percentiles.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        let mut o = crate::Json::obj();
        o.set("count", crate::Json::U64(self.count));
        o.set(
            "sum",
            crate::Json::U64(u64::try_from(self.sum).unwrap_or(u64::MAX)),
        );
        o.set("min", crate::Json::U64(self.min()));
        o.set("max", crate::Json::U64(self.max));
        o.set("p50", crate::Json::U64(self.percentile(50.0)));
        o.set("p90", crate::Json::U64(self.percentile(90.0)));
        o.set("p99", crate::Json::U64(self.percentile(99.0)));
        o.set("p999", crate::Json::U64(self.percentile(99.9)));
        o
    }
}

/// The four latency-attribution histograms one simulation run collects
/// (`--profile-hist`). Lives here so the memory hierarchy, the core,
/// and the result-store payload codec all share one layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Demand-load latency: cycles from issue to data availability
    /// (includes L1 hits, so the distribution shows the full load
    /// picture, not just misses).
    pub load_to_use: Hist,
    /// Prefetch timeliness: cycles from a prefetch entering the memory
    /// system to its first demand use (full hits via the line's install
    /// metadata, partial hits via the in-flight MSHR entry).
    pub prefetch_to_use: Hist,
    /// MSHR file occupancy sampled at every fill insertion (demand and
    /// prefetch), including the new entry.
    pub mshr_occupancy: Hist,
    /// ROB stall run-lengths: consecutive cycles the core made no
    /// fetch/issue/retire progress, recorded when progress resumes.
    pub rob_stall: Hist,
}

impl Profile {
    /// A fresh all-empty profile.
    #[must_use]
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Resets every histogram to empty (the warm-up boundary: measured
    /// distributions cover the measurement phase only).
    pub fn clear(&mut self) {
        self.load_to_use.clear();
        self.prefetch_to_use.clear();
        self.mshr_occupancy.clear();
        self.rob_stall.clear();
    }

    /// Folds `other` into `self`, histogram by histogram.
    pub fn merge(&mut self, other: &Profile) {
        self.load_to_use.merge(&other.load_to_use);
        self.prefetch_to_use.merge(&other.prefetch_to_use);
        self.mshr_occupancy.merge(&other.mshr_occupancy);
        self.rob_stall.merge(&other.rob_stall);
    }

    /// Serializes all four histograms in declaration order.
    pub fn save_state(&self, enc: &mut Enc) {
        self.load_to_use.save_state(enc);
        self.prefetch_to_use.save_state(enc);
        self.mshr_occupancy.save_state(enc);
        self.rob_stall.save_state(enc);
    }

    /// Restores a profile written by [`Profile::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates the first histogram decode failure.
    pub fn restore_state(dec: &mut Dec<'_>) -> Result<Profile, SnapshotError> {
        Ok(Profile {
            load_to_use: Hist::restore_state(dec)?,
            prefetch_to_use: Hist::restore_state(dec)?,
            mshr_occupancy: Hist::restore_state(dec)?,
            rob_stall: Hist::restore_state(dec)?,
        })
    }

    /// The manifest rendering: one summary object per histogram.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        let mut o = crate::Json::obj();
        o.set("load_to_use", self.load_to_use.to_json());
        o.set("prefetch_to_use", self.prefetch_to_use.to_json());
        o.set("mshr_occupancy", self.mshr_occupancy.to_json());
        o.set("rob_stall", self.rob_stall.to_json());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic sample stream (xorshift64*): no registry RNG in
    /// tier-1.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> (x % 48) // spread across magnitudes
            })
            .collect()
    }

    #[test]
    fn bucket_scheme_is_total_and_ordered() {
        // Every value maps in range; bucket lower bounds are the
        // canonical representative (lo maps to its own bucket) and
        // strictly increase.
        for v in [0, 1, 7, 8, 9, 15, 16, 100, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < HIST_BUCKETS, "{v} -> {idx}");
            assert!(bucket_lo(idx) <= v);
        }
        for idx in 1..HIST_BUCKETS {
            assert!(bucket_lo(idx) > bucket_lo(idx - 1), "bucket {idx}");
            assert_eq!(bucket_index(bucket_lo(idx)), idx, "bucket {idx}");
        }
        // Relative error never exceeds one sub-bucket width (12.5%).
        for &v in &samples(7, 1000) {
            let lo = bucket_lo(bucket_index(v));
            assert!(lo <= v);
            assert!((v - lo) as f64 <= (v as f64) / 8.0 + 1.0, "{v} vs {lo}");
        }
    }

    #[test]
    fn merge_identity_and_associativity() {
        let mk = |seed| {
            let mut h = Hist::new();
            for v in samples(seed, 500) {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));

        // Identity: empty ⊕ a == a ⊕ empty == a.
        let mut left = Hist::new();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&Hist::new());
        assert_eq!(left, a);
        assert_eq!(right, a);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // Commutativity falls out of elementwise addition.
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), a.count() + b.count());
        assert_eq!(ab.sum(), a.sum() + b.sum());
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Hist::new();
        for v in samples(42, 2000) {
            h.record(v);
        }
        let ps = [0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0];
        let mut prev = 0;
        for &p in &ps {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            assert!(v >= h.min() && v <= h.max());
            prev = v;
        }
        assert_eq!(h.percentile(100.0), h.max());
        assert_eq!(Hist::new().percentile(50.0), 0);
    }

    #[test]
    fn percentile_matches_exact_on_small_values() {
        // Values below 8 bucket exactly, so percentiles are exact.
        let mut h = Hist::new();
        for v in [1, 2, 2, 3, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 3);
        assert_eq!(h.percentile(100.0), 7);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut h = Hist::new();
        for v in samples(9, 1500) {
            h.record(v);
        }
        let mut e = Enc::new();
        h.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = Hist::restore_state(&mut d).expect("round trip");
        assert!(d.is_exhausted());
        assert_eq!(back, h);
        // Re-encoding the restored histogram is byte-identical.
        let mut e2 = Enc::new();
        back.save_state(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);

        // Empty histograms round-trip too.
        let mut e3 = Enc::new();
        Hist::new().save_state(&mut e3);
        let b3 = e3.into_bytes();
        let back = Hist::restore_state(&mut Dec::new(&b3)).expect("empty");
        assert_eq!(back, Hist::new());
    }

    #[test]
    fn snapshot_rejects_corrupt_encodings() {
        let mut h = Hist::new();
        h.record(5);
        h.record(500);
        let mut e = Enc::new();
        h.save_state(&mut e);
        let bytes = e.into_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Hist::restore_state(&mut Dec::new(&bytes[..cut])).is_err(),
                "truncation at {cut}"
            );
        }
        // A count that disagrees with the bucket sum is refused.
        let mut bad = Enc::new();
        let mut h2 = h.clone();
        h2.count += 1;
        h2.save_state(&mut bad);
        let b = bad.into_bytes();
        match Hist::restore_state(&mut Dec::new(&b)) {
            Err(SnapshotError::Corrupt { context }) => {
                assert!(context.contains("count"), "{context}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn profile_round_trips_and_renders() {
        let mut p = Profile::new();
        p.load_to_use.record(3);
        p.load_to_use.record(460);
        p.mshr_occupancy.record(4);
        p.rob_stall.record(28);
        let mut e = Enc::new();
        p.save_state(&mut e);
        let bytes = e.into_bytes();
        let back = Profile::restore_state(&mut Dec::new(&bytes)).expect("profile");
        assert_eq!(back, p);
        let j = p.to_json();
        assert_eq!(
            j.get("load_to_use").unwrap().get("count").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            j.get("rob_stall").unwrap().get("p50").unwrap().as_u64(),
            Some(28)
        );
        assert_eq!(
            j.get("prefetch_to_use")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn clear_restores_identity() {
        let mut h = Hist::new();
        for v in samples(11, 100) {
            h.record(v);
        }
        h.clear();
        assert_eq!(h, Hist::new());
        assert!(h.is_empty());
    }
}
