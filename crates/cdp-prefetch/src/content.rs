//! The content-directed data prefetcher (§3.4, Figures 3–5).
//!
//! The engine is deliberately *stateless*: it holds only its configuration
//! and counters. Everything the paper's mechanism needs at run time lives
//! where the paper puts it — the chain depth travels inside each request
//! ([`cdp_types::RequestKind::Content`]), and the reinforcement depth is
//! stored in the L2 line metadata by the hierarchy. The methods here are
//! the decision procedures:
//!
//! * [`ContentPrefetcher::scan_fill`] — scan a fill's data with the VAM
//!   heuristic and emit child prefetches one depth level down, expanded
//!   "wider" with previous/next-line requests (§3.4.3);
//! * [`ContentPrefetcher::should_rescan`] — the feedback-directed path
//!   reinforcement predicate (§3.4.2, Figure 4(b)/(c));
//! * [`ContentPrefetcher::promoted_depth`] — the stored-depth update rule
//!   ("consistent with maintaining the request depth as the number of
//!   links since a non-speculative request").

use cdp_types::{ContentConfig, VirtAddr, LINE_SIZE};

use crate::vam::scan_line;
use crate::{Prefetcher, PrefetchRequest};

/// Cumulative content-prefetcher statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentStats {
    /// Fill lines scanned (demand and prefetch fills).
    pub fills_scanned: u64,
    /// Lines re-scanned by the reinforcement mechanism.
    pub rescans: u64,
    /// Candidate virtual addresses the VAM heuristic accepted.
    pub candidates: u64,
    /// Prefetch requests emitted (candidates plus width expansion).
    pub emitted: u64,
    /// Scans suppressed because the fill's depth reached the threshold.
    pub depth_terminations: u64,
}

impl ContentStats {
    /// Serializes every counter (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.fills_scanned);
        enc.u64(self.rescans);
        enc.u64(self.candidates);
        enc.u64(self.emitted);
        enc.u64(self.depth_terminations);
    }

    /// Restores counters written by [`ContentStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.fills_scanned = dec.u64("content stats fills_scanned")?;
        self.rescans = dec.u64("content stats rescans")?;
        self.candidates = dec.u64("content stats candidates")?;
        self.emitted = dec.u64("content stats emitted")?;
        self.depth_terminations = dec.u64("content stats depth_terminations")?;
        Ok(())
    }
}

/// Serializes a [`ContentConfig`] (declaration order). The codec lives
/// here rather than on the type because `cdp-types` does not depend on
/// `cdp-snap`.
pub fn save_config(cfg: &ContentConfig, enc: &mut cdp_snap::Enc) {
    enc.u32(cfg.vam.compare_bits);
    enc.u32(cfg.vam.filter_bits);
    enc.u32(cfg.vam.align_bits);
    enc.usize(cfg.vam.scan_step);
    enc.u8(cfg.depth_threshold);
    enc.bool(cfg.reinforcement);
    enc.u8(cfg.reinforcement_margin);
    enc.u32(cfg.prev_lines);
    enc.u32(cfg.next_lines);
}

/// Restores a configuration written by [`save_config`].
///
/// # Errors
///
/// Returns a typed [`cdp_types::SnapshotError`] on truncation.
pub fn restore_config(
    cfg: &mut ContentConfig,
    dec: &mut cdp_snap::Dec<'_>,
) -> Result<(), cdp_types::SnapshotError> {
    cfg.vam.compare_bits = dec.u32("content vam compare_bits")?;
    cfg.vam.filter_bits = dec.u32("content vam filter_bits")?;
    cfg.vam.align_bits = dec.u32("content vam align_bits")?;
    cfg.vam.scan_step = dec.usize("content vam scan_step")?;
    cfg.depth_threshold = dec.u8("content depth_threshold")?;
    cfg.reinforcement = dec.bool("content reinforcement")?;
    cfg.reinforcement_margin = dec.u8("content reinforcement_margin")?;
    cfg.prev_lines = dec.u32("content prev_lines")?;
    cfg.next_lines = dec.u32("content next_lines")?;
    Ok(())
}

/// The content-directed prefetcher.
///
/// # Examples
///
/// ```
/// use cdp_prefetch::ContentPrefetcher;
/// use cdp_types::{ContentConfig, VirtAddr, LINE_SIZE};
///
/// let mut cdp = ContentPrefetcher::new(ContentConfig::tuned());
/// let mut line = [0u8; LINE_SIZE];
/// // A node whose `next` pointer (offset 4) targets 0x1000_4000.
/// line[4..8].copy_from_slice(&0x1000_4000u32.to_le_bytes());
///
/// let mut out = Vec::new();
/// cdp.scan_fill(VirtAddr(0x1000_0040), &line, 0, &mut out);
/// // Candidate line + 3 next lines (the tuned p0.n3 width).
/// assert_eq!(out.len(), 4);
/// assert_eq!(out[0].vaddr, VirtAddr(0x1000_4000));
/// assert_eq!(out[0].kind.depth(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ContentPrefetcher {
    cfg: ContentConfig,
    stats: ContentStats,
}

impl ContentPrefetcher {
    /// Creates a content prefetcher with the given configuration.
    pub fn new(cfg: ContentConfig) -> Self {
        ContentPrefetcher {
            cfg,
            stats: ContentStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ContentConfig {
        &self.cfg
    }

    /// Replaces the configuration at run time (used by the adaptive
    /// controller of [`crate::adaptive`]).
    pub fn set_config(&mut self, cfg: ContentConfig) {
        self.cfg = cfg;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ContentStats {
        self.stats
    }

    /// Whether a fill of chain depth `fill_depth` may be scanned at all.
    ///
    /// Children would carry `fill_depth + 1`; once the fill itself has
    /// reached the threshold the chain terminates (Figure 3: "Line D is not
    /// scanned" at the threshold).
    #[inline]
    pub fn may_scan(&self, fill_depth: u8) -> bool {
        fill_depth < self.cfg.depth_threshold
    }

    /// Scans a newly arrived line and emits child prefetches.
    ///
    /// * `trigger_ea` — effective address of the request that produced the
    ///   fill (compare-bit reference).
    /// * `fill_depth` — the chain depth of the fill itself (0 for a demand
    ///   fill).
    ///
    /// Returns the number of VAM candidates found (0 also when the depth
    /// threshold suppressed the scan).
    pub fn scan_fill(
        &mut self,
        trigger_ea: VirtAddr,
        data: &[u8; LINE_SIZE],
        fill_depth: u8,
        out: &mut Vec<PrefetchRequest>,
    ) -> usize {
        if !self.may_scan(fill_depth) {
            self.stats.depth_terminations += 1;
            return 0;
        }
        self.stats.fills_scanned += 1;
        let child_depth = fill_depth + 1;
        let hits = scan_line(data, trigger_ea, &self.cfg.vam);
        self.stats.candidates += hits.len() as u64;
        // Dedup against what this scan already emitted by checking the
        // output tail directly (every request this scan pushes targets
        // `vaddr.line() == target`), avoiding a per-fill scratch Vec.
        let scan_start = out.len();
        for hit in &hits {
            let base_line = hit.candidate.line();
            // Candidate line itself, then width expansion: `prev_lines`
            // before and `next_lines` after (§3.4.3 / Figure 9's p/n axes).
            let first = -(self.cfg.prev_lines as i32);
            let last = self.cfg.next_lines as i32;
            for delta in first..=last {
                let target = base_line.add_lines(delta);
                if out[scan_start..]
                    .iter()
                    .any(|r| r.vaddr.line().0 == target.0)
                {
                    continue;
                }
                // The *candidate* address (not the line base) rides along
                // for delta == 0 so the next scan's compare bits reference
                // the true effective address.
                if delta == 0 {
                    out.push(PrefetchRequest::content(hit.candidate, child_depth));
                } else {
                    out.push(PrefetchRequest::content_width(target, child_depth));
                }
                self.stats.emitted += 1;
            }
        }
        hits.len()
    }

    /// Reinforcement predicate (§3.4.2): should a hit by a request of
    /// `incoming_depth` on a line whose stored depth is `stored_depth`
    /// trigger a depth promotion and rescan?
    ///
    /// Figure 4(b) rescans whenever the incoming depth is lower
    /// (margin 1); Figure 4(c) halves the rescan traffic by requiring the
    /// incoming depth to be at least two lower (margin 2).
    #[inline]
    pub fn should_rescan(&self, incoming_depth: u8, stored_depth: u8) -> bool {
        self.cfg.reinforcement
            && incoming_depth < stored_depth
            && stored_depth - incoming_depth >= self.cfg.reinforcement_margin.max(1)
    }

    /// The depth stored into a line after a hit by `incoming_depth`
    /// promotes it: the line is now `incoming_depth` links from a
    /// non-speculative request.
    #[inline]
    pub fn promoted_depth(&self, incoming_depth: u8) -> u8 {
        incoming_depth
    }

    /// Serializes the prefetcher state. The configuration rides along
    /// because the adaptive controller mutates it at run time — a resumed
    /// run must pick up the knobs exactly where the controller left them,
    /// not at the construction-time values.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        save_config(&self.cfg, enc);
        self.stats.save_state(enc);
    }

    /// Restores state written by [`ContentPrefetcher::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        restore_config(&mut self.cfg, dec)?;
        self.stats.restore_state(dec)
    }

    /// Performs a reinforcement rescan of a resident line (counted
    /// separately from fill scans; the paper notes rescans consume L2
    /// cycles and can flood arbiters, which the hierarchy models).
    pub fn rescan(
        &mut self,
        trigger_ea: VirtAddr,
        data: &[u8; LINE_SIZE],
        new_stored_depth: u8,
        out: &mut Vec<PrefetchRequest>,
    ) -> usize {
        self.stats.rescans += 1;
        // A rescan is a scan of a line whose depth was just promoted.
        self.scan_fill(trigger_ea, data, new_stored_depth, out)
    }
}

impl Prefetcher for ContentPrefetcher {
    fn on_l2_fill(
        &mut self,
        trigger_ea: VirtAddr,
        _vline: VirtAddr,
        data: &[u8; LINE_SIZE],
        kind: cdp_types::RequestKind,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.scan_fill(trigger_ea, data, kind.depth(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::VamConfig;

    fn line_with_pointers(ptrs: &[(usize, u32)]) -> [u8; LINE_SIZE] {
        let mut data = [0u8; LINE_SIZE];
        for &(off, val) in ptrs {
            data[off..off + 4].copy_from_slice(&val.to_le_bytes());
        }
        data
    }

    fn narrow() -> ContentConfig {
        // No width expansion: easier to reason about chains.
        ContentConfig {
            prev_lines: 0,
            next_lines: 0,
            ..ContentConfig::tuned()
        }
    }

    #[test]
    fn demand_fill_emits_depth_one() {
        let mut cdp = ContentPrefetcher::new(narrow());
        let data = line_with_pointers(&[(0, 0x1000_4000)]);
        let mut out = Vec::new();
        cdp.scan_fill(VirtAddr(0x1000_0040), &data, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind.depth(), 1);
    }

    #[test]
    fn chained_fill_increments_depth() {
        let mut cdp = ContentPrefetcher::new(narrow());
        let data = line_with_pointers(&[(0, 0x1000_4000)]);
        let mut out = Vec::new();
        cdp.scan_fill(VirtAddr(0x1000_0040), &data, 2, &mut out);
        assert_eq!(out[0].kind.depth(), 3);
    }

    #[test]
    fn depth_threshold_terminates_chain() {
        // Figure 3 left: with threshold 3, a depth-3 fill is not scanned.
        let mut cdp = ContentPrefetcher::new(narrow());
        let data = line_with_pointers(&[(0, 0x1000_4000)]);
        let mut out = Vec::new();
        let found = cdp.scan_fill(VirtAddr(0x1000_0040), &data, 3, &mut out);
        assert_eq!(found, 0);
        assert!(out.is_empty());
        assert_eq!(cdp.stats().depth_terminations, 1);
    }

    #[test]
    fn width_expansion_emits_next_lines() {
        let cfg = ContentConfig {
            prev_lines: 1,
            next_lines: 2,
            ..ContentConfig::tuned()
        };
        let mut cdp = ContentPrefetcher::new(cfg);
        let data = line_with_pointers(&[(8, 0x1000_4010)]);
        let mut out = Vec::new();
        cdp.scan_fill(VirtAddr(0x1000_0040), &data, 0, &mut out);
        let targets: Vec<u32> = out.iter().map(|r| r.vaddr.0).collect();
        assert_eq!(
            targets,
            vec![0x1000_3fc0, 0x1000_4010, 0x1000_4040, 0x1000_4080],
            "p1 + candidate + n2, candidate keeps its exact address"
        );
        // All at the same chain depth.
        assert!(out.iter().all(|r| r.kind.depth() == 1));
    }

    #[test]
    fn overlapping_candidates_do_not_duplicate_lines() {
        // Two pointers into the same target line -> each line prefetched
        // once.
        let cfg = ContentConfig {
            next_lines: 1,
            ..narrow()
        };
        let mut cdp = ContentPrefetcher::new(cfg);
        let data = line_with_pointers(&[(0, 0x1000_4000), (8, 0x1000_4020)]);
        let mut out = Vec::new();
        cdp.scan_fill(VirtAddr(0x1000_0040), &data, 0, &mut out);
        let mut lines: Vec<u32> = out.iter().map(|r| r.vaddr.line().0).collect();
        lines.dedup();
        assert_eq!(lines, vec![0x1000_4000, 0x1000_4040]);
    }

    #[test]
    fn reinforcement_predicate_margins() {
        let cdp = ContentPrefetcher::new(ContentConfig::tuned()); // margin 1
        assert!(cdp.should_rescan(0, 1), "demand hit on depth-1 line");
        assert!(cdp.should_rescan(0, 3));
        assert!(cdp.should_rescan(1, 2));
        assert!(!cdp.should_rescan(1, 1), "equal depth: no rescan");
        assert!(!cdp.should_rescan(2, 1), "deeper hit never rescans");

        let fig4c = ContentPrefetcher::new(ContentConfig {
            reinforcement_margin: 2,
            ..ContentConfig::tuned()
        });
        assert!(!fig4c.should_rescan(0, 1), "margin 2 skips distance-1 hits");
        assert!(fig4c.should_rescan(0, 2));
        assert!(fig4c.should_rescan(1, 3));
    }

    #[test]
    fn no_reinforcement_never_rescans() {
        let cdp = ContentPrefetcher::new(ContentConfig {
            reinforcement: false,
            ..ContentConfig::tuned()
        });
        assert!(!cdp.should_rescan(0, 3));
    }

    #[test]
    fn promoted_depth_is_incoming() {
        let cdp = ContentPrefetcher::new(ContentConfig::tuned());
        assert_eq!(cdp.promoted_depth(0), 0);
        assert_eq!(cdp.promoted_depth(2), 2);
    }

    #[test]
    fn figure3_chain_walkthrough() {
        // Figure 3 left side: A (demand, d0) -> B (d1) -> C (d2) -> D (d3,
        // not scanned). Each line holds one pointer to the next.
        let mut cdp = ContentPrefetcher::new(narrow());
        let lines = [0x1000_0000u32, 0x1000_1000, 0x1000_2000, 0x1000_3000];
        let mut out = Vec::new();
        let mut depth = 0u8;
        for w in 0..3 {
            let data = line_with_pointers(&[(0, lines[w + 1])]);
            let mut step = Vec::new();
            let found = cdp.scan_fill(VirtAddr(lines[w]), &data, depth, &mut step);
            assert_eq!(found, 1, "line {w} scanned");
            depth = step[0].kind.depth();
            out.extend(step);
        }
        assert_eq!(depth, 3);
        // D's fill (depth 3) is not scanned.
        let d_data = line_with_pointers(&[(0, 0x1000_4000)]);
        let mut step = Vec::new();
        assert_eq!(cdp.scan_fill(VirtAddr(lines[3]), &d_data, depth, &mut step), 0);
        assert!(step.is_empty());
    }

    #[test]
    fn rescan_counts_separately() {
        let mut cdp = ContentPrefetcher::new(narrow());
        let data = line_with_pointers(&[(0, 0x1000_4000)]);
        let mut out = Vec::new();
        cdp.rescan(VirtAddr(0x1000_0040), &data, 0, &mut out);
        assert_eq!(cdp.stats().rescans, 1);
        assert_eq!(cdp.stats().fills_scanned, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind.depth(), 1);
    }

    #[test]
    fn junk_line_emits_nothing() {
        let mut cdp = ContentPrefetcher::new(ContentConfig::tuned());
        // Compressed-looking data: odd bytes everywhere, wrong upper bits.
        let mut data = [0u8; LINE_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37) | 1;
        }
        let mut out = Vec::new();
        let found = cdp.scan_fill(VirtAddr(0x1000_0040), &data, 0, &mut out);
        assert_eq!(found, 0);
    }

    #[test]
    fn zero_filter_bits_suppress_low_region() {
        let cfg = ContentConfig {
            vam: VamConfig {
                filter_bits: 0,
                ..VamConfig::tuned()
            },
            ..narrow()
        };
        let mut cdp = ContentPrefetcher::new(cfg);
        // Trigger and pointer both in the 0x00...... region.
        let data = line_with_pointers(&[(0, 0x00ab_cd00)]);
        let mut out = Vec::new();
        assert_eq!(cdp.scan_fill(VirtAddr(0x00aa_0040), &data, 0, &mut out), 0);
    }
}
