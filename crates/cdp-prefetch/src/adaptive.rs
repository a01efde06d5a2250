//! Adaptive (run-time) heuristic control — the paper's stated future
//! work: "One area of research currently being investigated by the
//! authors is adaptive (runtime) heuristics for adjusting these
//! parameters" (§4.1).
//!
//! [`AdaptiveVam`] is a small hill-climbing controller: every
//! `window` issued prefetches it computes the window's accuracy and nudges
//! the content prefetcher's knobs —
//!
//! * accuracy below the low water mark → get *conservative*: shed
//!   next-line width first, then demand more compare bits;
//! * accuracy above the high water mark → get *aggressive*: relax compare
//!   bits back toward the tuned point, then re-grow width.
//!
//! The controller only moves one knob per window (classic one-factor
//! hill climbing), so a misbehaving phase cannot whipsaw the
//! configuration.

pub use cdp_types::AdaptiveConfig;
use cdp_types::ContentConfig;

/// One knob adjustment taken by the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adjustment {
    /// No change this window.
    Hold,
    /// Reduced `next_lines` by one.
    NarrowWidth,
    /// Increased `next_lines` by one.
    WidenWidth,
    /// Increased `compare_bits` by one (stricter matching).
    TightenCompare,
    /// Decreased `compare_bits` by one (looser matching).
    LoosenCompare,
}

/// Cumulative controller statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Windows evaluated.
    pub windows: u64,
    /// Conservative moves taken.
    pub tightened: u64,
    /// Aggressive moves taken.
    pub loosened: u64,
}

impl AdaptiveStats {
    /// Serializes every counter (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.windows);
        enc.u64(self.tightened);
        enc.u64(self.loosened);
    }

    /// Restores counters written by [`AdaptiveStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.windows = dec.u64("adaptive stats windows")?;
        self.tightened = dec.u64("adaptive stats tightened")?;
        self.loosened = dec.u64("adaptive stats loosened")?;
        Ok(())
    }
}

/// The run-time controller.
///
/// # Examples
///
/// ```
/// use cdp_prefetch::adaptive::{AdaptiveConfig, AdaptiveVam, Adjustment};
/// use cdp_types::ContentConfig;
///
/// let mut ctl = AdaptiveVam::new(AdaptiveConfig::default());
/// let mut cfg = ContentConfig::tuned();
/// // A dreadful window (5% accuracy): the controller sheds width.
/// let adj = ctl.adjust(&mut cfg, 1000, 50);
/// assert_eq!(adj, Adjustment::NarrowWidth);
/// assert_eq!(cfg.next_lines, 2);
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveVam {
    cfg: AdaptiveConfig,
    last_issued: u64,
    last_useful: u64,
    stats: AdaptiveStats,
}

impl AdaptiveVam {
    /// Creates a controller.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveVam {
            cfg,
            last_issued: 0,
            last_useful: 0,
            stats: AdaptiveStats::default(),
        }
    }

    /// Controller settings.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> AdaptiveStats {
        self.stats
    }

    /// Whether enough new issues have accumulated to evaluate a window.
    pub fn window_ready(&self, issued_total: u64) -> bool {
        issued_total.saturating_sub(self.last_issued) >= self.cfg.window
    }

    /// Evaluates the window ending at (`issued_total`, `useful_total`)
    /// cumulative counters and adjusts `content` in place. Returns the
    /// adjustment taken. Call when [`AdaptiveVam::window_ready`].
    pub fn adjust(
        &mut self,
        content: &mut ContentConfig,
        issued_total: u64,
        useful_total: u64,
    ) -> Adjustment {
        let issued = issued_total.saturating_sub(self.last_issued);
        let useful = useful_total.saturating_sub(self.last_useful);
        self.last_issued = issued_total;
        self.last_useful = useful_total;
        if issued == 0 {
            return Adjustment::Hold;
        }
        self.stats.windows += 1;
        let accuracy = useful as f64 / issued as f64;
        if accuracy < self.cfg.low_water {
            self.stats.tightened += 1;
            if content.next_lines > 0 {
                content.next_lines -= 1;
                return Adjustment::NarrowWidth;
            }
            if content.vam.compare_bits < self.cfg.max_compare_bits {
                content.vam.compare_bits += 1;
                return Adjustment::TightenCompare;
            }
            self.stats.tightened -= 1;
            Adjustment::Hold
        } else if accuracy > self.cfg.high_water {
            self.stats.loosened += 1;
            if content.vam.compare_bits > self.cfg.min_compare_bits {
                content.vam.compare_bits -= 1;
                return Adjustment::LoosenCompare;
            }
            if content.next_lines < self.cfg.max_next_lines {
                content.next_lines += 1;
                return Adjustment::WidenWidth;
            }
            self.stats.loosened -= 1;
            Adjustment::Hold
        } else {
            Adjustment::Hold
        }
    }

    /// Serializes the controller state (window anchors + counters).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.last_issued);
        enc.u64(self.last_useful);
        self.stats.save_state(enc);
    }

    /// Restores state written by [`AdaptiveVam::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.last_issued = dec.u64("adaptive last_issued")?;
        self.last_useful = dec.u64("adaptive last_useful")?;
        self.stats.restore_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::VamConfig;

    fn tuned() -> ContentConfig {
        ContentConfig::tuned()
    }

    #[test]
    fn low_accuracy_sheds_width_then_tightens_compare() {
        let mut ctl = AdaptiveVam::new(AdaptiveConfig::default());
        let mut cfg = tuned();
        let mut issued = 0u64;
        // Repeated 5%-accuracy windows: n3 -> n2 -> n1 -> n0, then compare
        // bits 8 -> 9 -> ... -> 12, then hold.
        let mut moves = Vec::new();
        for _ in 0..10 {
            issued += 1000;
            moves.push(ctl.adjust(&mut cfg, issued, issued / 20));
        }
        assert_eq!(cfg.next_lines, 0);
        assert_eq!(cfg.vam.compare_bits, 12);
        assert_eq!(moves[0], Adjustment::NarrowWidth);
        assert_eq!(moves[3], Adjustment::TightenCompare);
        assert_eq!(*moves.last().unwrap(), Adjustment::Hold);
    }

    #[test]
    fn high_accuracy_relaxes_back() {
        let mut ctl = AdaptiveVam::new(AdaptiveConfig::default());
        let mut cfg = ContentConfig {
            next_lines: 0,
            vam: VamConfig {
                compare_bits: 12,
                ..VamConfig::tuned()
            },
            ..tuned()
        };
        let mut issued = 0u64;
        let mut useful = 0u64;
        for _ in 0..10 {
            issued += 1000;
            useful += 800; // 80% accuracy
            ctl.adjust(&mut cfg, issued, useful);
        }
        assert_eq!(cfg.vam.compare_bits, 8, "compare relaxed first");
        assert!(cfg.next_lines > 0, "then width regrows");
    }

    #[test]
    fn mid_band_holds() {
        let mut ctl = AdaptiveVam::new(AdaptiveConfig::default());
        let mut cfg = tuned();
        assert_eq!(ctl.adjust(&mut cfg, 1000, 300), Adjustment::Hold);
        assert_eq!(cfg, tuned());
    }

    #[test]
    fn window_gating() {
        let ctl = AdaptiveVam::new(AdaptiveConfig {
            window: 512,
            ..AdaptiveConfig::default()
        });
        assert!(!ctl.window_ready(100));
        assert!(ctl.window_ready(512));
    }

    #[test]
    fn empty_window_is_a_hold() {
        let mut ctl = AdaptiveVam::new(AdaptiveConfig::default());
        let mut cfg = tuned();
        assert_eq!(ctl.adjust(&mut cfg, 0, 0), Adjustment::Hold);
        assert_eq!(ctl.stats().windows, 0);
    }

    #[test]
    fn one_move_per_window() {
        let mut ctl = AdaptiveVam::new(AdaptiveConfig::default());
        let mut cfg = tuned();
        ctl.adjust(&mut cfg, 1000, 0);
        // Only next_lines moved; compare bits untouched.
        assert_eq!(cfg.next_lines, 2);
        assert_eq!(cfg.vam.compare_bits, 8);
    }
}
