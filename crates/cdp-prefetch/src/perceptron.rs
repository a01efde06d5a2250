//! A perceptron prefetch-confidence filter (arXiv 1712.00905).
//!
//! Any engine's issue stream can be gated on a learned accuracy estimate:
//! before a prefetch issues, hashed features of the request (its line,
//! its page, its originating engine) each index a table of signed-byte
//! weights, and the request only issues when the weight sum reaches a
//! threshold. Feedback closes the loop:
//!
//! * a prefetched line a demand later touches trains the weights **up**;
//! * a prefetched line evicted untouched trains them **down**;
//! * a demand miss on a line the filter recently *rejected* is a false
//!   negative and trains the weights back up (a small reject buffer of
//!   line tags makes these visible — without it the filter could latch
//!   shut).
//!
//! The filter is an engine-side component, not a [`Prefetcher`]: the
//! hierarchy consults [`PerceptronFilter::accept`] between request
//! generation and issue, and feeds outcomes back from the same
//! accounting sites that maintain the per-engine useful/wasted counters.
//!
//! [`Prefetcher`]: crate::Prefetcher

use cdp_types::{Engine, PerceptronConfig, VirtAddr, PERCEPTRON_FEATURES};

use crate::PrefetchRequest;

/// Cumulative filter statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerceptronStats {
    /// Requests presented to the filter.
    pub considered: u64,
    /// Requests allowed through.
    pub accepted: u64,
    /// Requests suppressed.
    pub rejected: u64,
    /// Positive training events (prefetch proved useful).
    pub trained_useful: u64,
    /// Negative training events (prefetch evicted untouched).
    pub trained_wasted: u64,
    /// Rejected lines that a demand missed on anyway (trained back up).
    pub false_negatives: u64,
}

impl PerceptronStats {
    /// Serializes every counter (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.considered);
        enc.u64(self.accepted);
        enc.u64(self.rejected);
        enc.u64(self.trained_useful);
        enc.u64(self.trained_wasted);
        enc.u64(self.false_negatives);
    }

    /// Restores counters written by [`PerceptronStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.considered = dec.u64("perceptron stats considered")?;
        self.accepted = dec.u64("perceptron stats accepted")?;
        self.rejected = dec.u64("perceptron stats rejected")?;
        self.trained_useful = dec.u64("perceptron stats trained_useful")?;
        self.trained_wasted = dec.u64("perceptron stats trained_wasted")?;
        self.false_negatives = dec.u64("perceptron stats false_negatives")?;
        Ok(())
    }
}

/// The perceptron confidence filter.
///
/// # Examples
///
/// ```
/// use cdp_prefetch::{PerceptronFilter, PrefetchRequest};
/// use cdp_types::{PerceptronConfig, VirtAddr};
///
/// let mut pf = PerceptronFilter::new(&PerceptronConfig::default());
/// let req = PrefetchRequest::stride(VirtAddr(0x1000));
/// // Fresh weights sit at zero: everything at threshold 0 passes.
/// assert!(pf.accept(&req));
/// // Wasted-prefetch feedback drives the weights negative ...
/// for _ in 0..4 {
///     pf.train(req.vaddr, req.kind.engine(), false);
/// }
/// // ... and the same request is now suppressed.
/// assert!(!pf.accept(&req));
/// ```
#[derive(Clone, Debug)]
pub struct PerceptronFilter {
    /// `PERCEPTRON_FEATURES` weight tables, concatenated.
    weights: Vec<i8>,
    entries_per_feature: usize,
    threshold: i32,
    /// Direct-mapped recently-rejected line tags (0 = empty; line
    /// addresses always have nonzero upper bits in practice, and a
    /// zero-line false negative merely goes unnoticed).
    reject: Vec<u32>,
    stats: PerceptronStats,
}

impl PerceptronFilter {
    /// Creates a filter with zeroed weights.
    pub fn new(cfg: &PerceptronConfig) -> Self {
        PerceptronFilter {
            weights: vec![0i8; PERCEPTRON_FEATURES * cfg.entries_per_feature.max(1)],
            entries_per_feature: cfg.entries_per_feature.max(1),
            threshold: cfg.threshold,
            reject: vec![0u32; cfg.reject_entries],
            stats: PerceptronStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> PerceptronStats {
        self.stats
    }

    /// Table storage in bytes: one byte per weight plus a 4-byte tag per
    /// reject-buffer slot.
    pub fn budget_bytes(&self) -> usize {
        self.weights.len() + 4 * self.reject.len()
    }

    /// The three feature indices for a (line, engine) pair, one per
    /// table.
    fn feature_indices(&self, vaddr: VirtAddr, engine: Engine) -> [usize; PERCEPTRON_FEATURES] {
        let n = self.entries_per_feature;
        let line_units = vaddr.line().0 >> 6;
        let page = vaddr.0 >> 12;
        // Mix the engine code into a hashed third feature so the same
        // line can be trusted from one engine and distrusted from another.
        let mixed = (line_units ^ line_units.rotate_left(13))
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(u32::from(engine.code()));
        [
            line_units as usize % n,
            n + page as usize % n,
            2 * n + mixed as usize % n,
        ]
    }

    fn sum(&self, vaddr: VirtAddr, engine: Engine) -> i32 {
        self.feature_indices(vaddr, engine)
            .iter()
            .map(|&i| i32::from(self.weights[i]))
            .sum()
    }

    /// Decides whether `req` may issue. Rejected requests record their
    /// line in the reject buffer so later demand misses can expose false
    /// negatives.
    pub fn accept(&mut self, req: &PrefetchRequest) -> bool {
        self.stats.considered += 1;
        if self.sum(req.vaddr, req.kind.engine()) >= self.threshold {
            self.stats.accepted += 1;
            true
        } else {
            self.stats.rejected += 1;
            if !self.reject.is_empty() {
                let line = req.vaddr.line().0;
                let slot = (line >> 6) as usize % self.reject.len();
                self.reject[slot] = line;
            }
            false
        }
    }

    /// Outcome feedback for a prefetch `engine` issued: `useful == true`
    /// when a demand touched the prefetched line, `false` when it was
    /// evicted untouched. Saturating ±1 updates.
    pub fn train(&mut self, vaddr: VirtAddr, engine: Engine, useful: bool) {
        if useful {
            self.stats.trained_useful += 1;
        } else {
            self.stats.trained_wasted += 1;
        }
        for i in self.feature_indices(vaddr, engine) {
            let w = &mut self.weights[i];
            *w = if useful {
                w.saturating_add(1)
            } else {
                w.saturating_sub(1)
            };
        }
    }

    /// A demand miss: if the missed line was recently rejected, the
    /// rejection was wrong — train the line's features back up under
    /// [`Engine::Demand`] (the engine whose request was suppressed is
    /// unknown by now; the shared line/page features still move).
    pub fn on_demand_miss(&mut self, vaddr: VirtAddr) {
        if self.reject.is_empty() {
            return;
        }
        let line = vaddr.line().0;
        let slot = (line >> 6) as usize % self.reject.len();
        if self.reject[slot] == line {
            self.reject[slot] = 0;
            self.stats.false_negatives += 1;
            for i in self.feature_indices(vaddr, Engine::Demand) {
                let w = &mut self.weights[i];
                *w = w.saturating_add(1);
            }
        }
    }

    /// Serializes the complete filter state.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        self.stats.save_state(enc);
        enc.seq_len(self.weights.len());
        for &w in &self.weights {
            enc.u8(w as u8);
        }
        enc.seq_len(self.reject.len());
        for &t in &self.reject {
            enc.u32(t);
        }
    }

    /// Restores state written by [`PerceptronFilter::save_state`] into a
    /// filter of the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation or a
    /// table size mismatch.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        self.stats.restore_state(dec)?;
        let n = dec.seq_len(1, "perceptron weight count")?;
        if n != self.weights.len() {
            return Err(SnapshotError::Corrupt {
                context: "perceptron weight count",
            });
        }
        for w in self.weights.iter_mut() {
            *w = dec.u8("perceptron weight")? as i8;
        }
        let r = dec.seq_len(4, "perceptron reject count")?;
        if r != self.reject.len() {
            return Err(SnapshotError::Corrupt {
                context: "perceptron reject count",
            });
        }
        for t in self.reject.iter_mut() {
            *t = dec.u32("perceptron reject tag")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> PerceptronFilter {
        PerceptronFilter::new(&PerceptronConfig::default())
    }

    #[test]
    fn fresh_filter_passes_at_zero_threshold() {
        let mut p = pf();
        assert!(p.accept(&PrefetchRequest::stride(VirtAddr(0x1000))));
        assert!(p.accept(&PrefetchRequest::content(VirtAddr(0x2000), 2)));
        assert_eq!(p.stats().accepted, 2);
        assert_eq!(p.stats().rejected, 0);
    }

    #[test]
    fn wasted_feedback_closes_the_gate() {
        let mut p = pf();
        let req = PrefetchRequest::markov(VirtAddr(0x4_2000));
        for _ in 0..4 {
            p.train(req.vaddr, req.kind.engine(), false);
        }
        assert!(!p.accept(&req));
        assert_eq!(p.stats().rejected, 1);
    }

    #[test]
    fn useful_feedback_reopens_it() {
        let mut p = pf();
        let req = PrefetchRequest::markov(VirtAddr(0x4_2000));
        for _ in 0..4 {
            p.train(req.vaddr, req.kind.engine(), false);
        }
        assert!(!p.accept(&req));
        for _ in 0..8 {
            p.train(req.vaddr, req.kind.engine(), true);
        }
        assert!(p.accept(&req));
    }

    #[test]
    fn false_negative_detection_recovers() {
        let mut p = pf();
        let req = PrefetchRequest::stride(VirtAddr(0x4_2000));
        for _ in 0..4 {
            p.train(req.vaddr, req.kind.engine(), false);
        }
        assert!(!p.accept(&req));
        // The demand stream wanted that line after all: repeated misses
        // on rejected lines train the shared features back up.
        for _ in 0..8 {
            assert!(!p.accept(&req) || p.sum(req.vaddr, req.kind.engine()) >= 0);
            p.on_demand_miss(req.vaddr);
        }
        assert!(p.stats().false_negatives > 0);
        assert!(p.accept(&req), "filter must not latch shut");
    }

    #[test]
    fn engines_are_tracked_separately() {
        let mut p = pf();
        let addr = VirtAddr(0x4_2000);
        // Markov at this address is junk; stride at this address is good.
        for _ in 0..6 {
            p.train(addr, Engine::Markov, false);
            p.train(addr, Engine::Stride, true);
        }
        // The shared line/page features cancel; the kind-mixed feature
        // decides.
        assert!(p.accept(&PrefetchRequest::stride(addr)));
        assert!(!p.accept(&PrefetchRequest::markov(addr)));
    }

    #[test]
    fn weights_saturate() {
        let mut p = pf();
        let addr = VirtAddr(0x4_2000);
        for _ in 0..300 {
            p.train(addr, Engine::Stride, false);
        }
        assert_eq!(p.sum(addr, Engine::Stride), -128 * 3);
        for _ in 0..600 {
            p.train(addr, Engine::Stride, true);
        }
        assert_eq!(p.sum(addr, Engine::Stride), 127 * 3);
    }

    #[test]
    fn budget_bytes_matches_config() {
        let cfg = PerceptronConfig::with_budget(16 * 1024).unwrap();
        let p = PerceptronFilter::new(&cfg);
        assert_eq!(p.budget_bytes(), cfg.table_bytes());
    }

    #[test]
    fn snapshot_roundtrip_resumes_bit_identically() {
        let mut p = pf();
        for i in 0..200u32 {
            let addr = VirtAddr(0x1000 + i * 192);
            let req = PrefetchRequest::stride(addr);
            if !p.accept(&req) {
                p.on_demand_miss(addr);
            }
            p.train(addr, Engine::Stride, i % 3 == 0);
        }
        let mut enc = cdp_snap::Enc::new();
        p.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = pf();
        let mut dec = cdp_snap::Dec::new(&bytes);
        restored.restore_state(&mut dec).unwrap();
        for i in 0..50u32 {
            let req = PrefetchRequest::markov(VirtAddr(0x9000 + i * 64));
            assert_eq!(p.accept(&req), restored.accept(&req));
        }
        assert_eq!(p.stats(), restored.stats());
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let p = pf();
        let mut enc = cdp_snap::Enc::new();
        p.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut other = PerceptronFilter::new(&PerceptronConfig {
            entries_per_feature: 17,
            ..PerceptronConfig::default()
        });
        let mut dec = cdp_snap::Dec::new(&bytes);
        assert!(other.restore_state(&mut dec).is_err());
    }
}
