//! A PC-indexed stride prefetcher (reference prediction table).
//!
//! The paper's baseline "includes a stride-based hardware prefetcher"
//! (Table 1) that "monitors all the L1 cache miss traffic and issues
//! requests to the L2 arbiter" (§3.5). All the paper's speedups are
//! relative to this baseline, so its quality matters: we implement the
//! classic Chen/Baer reference prediction table with the usual four-state
//! confidence automaton (initial → transient → steady, with a no-prediction
//! recovery state).

use cdp_types::{StrideConfig, VirtAddr};

use crate::{Prefetcher, PrefetchRequest};

/// Confidence automaton states of one RPT entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// First sighting: no stride known yet.
    Initial,
    /// A candidate stride observed once.
    Transient,
    /// Stride confirmed: predict.
    Steady,
    /// Two consecutive mismatches: hold predictions until re-trained.
    NoPred,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u32,
    last_addr: u32,
    stride: i32,
    state: State,
}

/// Cumulative stride-prefetcher statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StrideStats {
    /// L1 misses observed (training events).
    pub observed: u64,
    /// Prefetch requests emitted.
    pub emitted: u64,
    /// Entries evicted by tag conflicts.
    pub conflicts: u64,
}

impl StrideStats {
    /// Serializes every counter (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.observed);
        enc.u64(self.emitted);
        enc.u64(self.conflicts);
    }

    /// Restores counters written by [`StrideStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.observed = dec.u64("stride stats observed")?;
        self.emitted = dec.u64("stride stats emitted")?;
        self.conflicts = dec.u64("stride stats conflicts")?;
        Ok(())
    }
}

/// The stride prefetcher.
///
/// # Examples
///
/// ```
/// use cdp_prefetch::{Prefetcher, StridePrefetcher};
/// use cdp_types::{StrideConfig, VirtAddr};
///
/// let mut sp = StridePrefetcher::new(&StrideConfig::default());
/// let mut out = Vec::new();
/// // Train a steady +64 stride at one PC.
/// for i in 0..3u32 {
///     sp.on_l1_miss(0x400, VirtAddr(0x1000_0000 + i * 64), &mut out);
/// }
/// assert!(!out.is_empty(), "steady stride should predict");
/// assert_eq!(out[0].vaddr, VirtAddr(0x1000_0000 + 3 * 64));
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    table: Vec<Option<Entry>>,
    degree: u32,
    stats: StrideStats,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with `cfg.entries` direct-mapped RPT
    /// entries issuing `cfg.degree` prefetches ahead once steady.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.entries` is not a power of two.
    pub fn new(cfg: &StrideConfig) -> Self {
        assert!(
            cfg.entries.is_power_of_two(),
            "RPT entries must be a power of two"
        );
        StridePrefetcher {
            table: vec![None; cfg.entries],
            degree: cfg.degree.max(1),
            stats: StrideStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> StrideStats {
        self.stats
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        // Drop the low 2 bits (uop alignment) before indexing.
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }

    /// Observes one L1 miss and appends any predicted prefetches to `out`.
    pub fn observe(&mut self, pc: u32, vaddr: VirtAddr, out: &mut Vec<PrefetchRequest>) {
        self.stats.observed += 1;
        let idx = self.index(pc);
        let entry = &mut self.table[idx];
        match entry {
            Some(e) if e.tag == pc => {
                let new_stride = vaddr.0.wrapping_sub(e.last_addr) as i32;
                let matched = new_stride == e.stride && new_stride != 0;
                e.state = match (e.state, matched) {
                    (State::Initial, true) => State::Steady,
                    (State::Initial, false) => State::Transient,
                    (State::Transient, true) => State::Steady,
                    (State::Transient, false) => State::NoPred,
                    (State::Steady, true) => State::Steady,
                    (State::Steady, false) => State::Initial,
                    (State::NoPred, true) => State::Transient,
                    (State::NoPred, false) => State::NoPred,
                };
                if !matched {
                    e.stride = new_stride;
                }
                e.last_addr = vaddr.0;
                if e.state == State::Steady {
                    for k in 1..=self.degree {
                        let target = VirtAddr(
                            vaddr.0.wrapping_add((e.stride as i64 * k as i64) as u32),
                        );
                        out.push(PrefetchRequest::stride(target));
                        self.stats.emitted += 1;
                    }
                }
            }
            Some(_) => {
                // Tag conflict: steal the entry.
                self.stats.conflicts += 1;
                *entry = Some(Entry {
                    tag: pc,
                    last_addr: vaddr.0,
                    stride: 0,
                    state: State::Initial,
                });
            }
            None => {
                *entry = Some(Entry {
                    tag: pc,
                    last_addr: vaddr.0,
                    stride: 0,
                    state: State::Initial,
                });
            }
        }
    }

    /// Serializes the complete RPT state.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        self.stats.save_state(enc);
        enc.seq_len(self.table.len());
        for slot in &self.table {
            match slot {
                Some(e) => {
                    enc.bool(true);
                    enc.u32(e.tag);
                    enc.u32(e.last_addr);
                    enc.i64(i64::from(e.stride));
                    enc.u8(match e.state {
                        State::Initial => 0,
                        State::Transient => 1,
                        State::Steady => 2,
                        State::NoPred => 3,
                    });
                }
                None => enc.bool(false),
            }
        }
    }

    /// Restores state written by [`StridePrefetcher::save_state`] into a
    /// prefetcher of the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation, a table
    /// size mismatch, or an unknown confidence-state tag.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        self.stats.restore_state(dec)?;
        let n = dec.seq_len(1, "stride table size")?;
        if n != self.table.len() {
            return Err(SnapshotError::Corrupt {
                context: "stride table size",
            });
        }
        for slot in self.table.iter_mut() {
            *slot = if dec.bool("stride entry flag")? {
                let tag = dec.u32("stride entry tag")?;
                let last_addr = dec.u32("stride entry last_addr")?;
                let stride = i32::try_from(dec.i64("stride entry stride")?).map_err(|_| {
                    SnapshotError::Corrupt {
                        context: "stride entry stride",
                    }
                })?;
                let state = match dec.u8("stride entry state")? {
                    0 => State::Initial,
                    1 => State::Transient,
                    2 => State::Steady,
                    3 => State::NoPred,
                    _ => {
                        return Err(SnapshotError::Corrupt {
                            context: "stride entry state",
                        })
                    }
                };
                Some(Entry {
                    tag,
                    last_addr,
                    stride,
                    state,
                })
            } else {
                None
            };
        }
        Ok(())
    }
}

impl Prefetcher for StridePrefetcher {
    fn on_l1_miss(&mut self, pc: u32, vaddr: VirtAddr, out: &mut Vec<PrefetchRequest>) {
        self.observe(pc, vaddr, out);
    }

    /// RPT storage: per entry a 4-byte tag, 4-byte last address, 4-byte
    /// stride, and a 1-byte state.
    fn budget_bytes(&self) -> usize {
        self.table.len() * 13
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::RequestKind;

    fn sp() -> StridePrefetcher {
        StridePrefetcher::new(&StrideConfig {
            entries: 64,
            degree: 1,
        })
    }

    fn drive(sp: &mut StridePrefetcher, pc: u32, addrs: &[u32]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for &a in addrs {
            sp.observe(pc, VirtAddr(a), &mut out);
        }
        out
    }

    #[test]
    fn needs_three_observations_to_lock() {
        let mut s = sp();
        let out = drive(&mut s, 0x40, &[0x1000, 0x1040]);
        assert!(out.is_empty(), "transient must not predict");
        let out = drive(&mut s, 0x40, &[0x1080]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vaddr, VirtAddr(0x10c0));
        assert_eq!(out[0].kind, RequestKind::Stride);
    }

    #[test]
    fn degree_issues_multiple_ahead() {
        let mut s = StridePrefetcher::new(&StrideConfig {
            entries: 64,
            degree: 3,
        });
        let out = drive(&mut s, 0x40, &[0x1000, 0x1040, 0x1080]);
        let targets: Vec<u32> = out.iter().map(|r| r.vaddr.0).collect();
        assert_eq!(targets, vec![0x10c0, 0x1100, 0x1140]);
    }

    #[test]
    fn negative_strides_predict() {
        let mut s = sp();
        let out = drive(&mut s, 0x40, &[0x2000, 0x1fc0, 0x1f80]);
        assert_eq!(out.last().unwrap().vaddr, VirtAddr(0x1f40));
    }

    #[test]
    fn irregular_pattern_stays_silent() {
        let mut s = sp();
        let out = drive(&mut s, 0x40, &[0x1000, 0x1040, 0x3000, 0x9000, 0x100, 0x7777]);
        assert!(out.is_empty(), "no steady stride, no prediction");
    }

    #[test]
    fn stride_change_retrains() {
        let mut s = sp();
        drive(&mut s, 0x40, &[0x1000, 0x1040, 0x1080]); // steady +0x40
        // Switch to +0x80: one mismatch drops to Initial, then re-locks.
        let out = drive(&mut s, 0x40, &[0x1100, 0x1180, 0x1200, 0x1280]);
        assert_eq!(out.last().unwrap().vaddr, VirtAddr(0x1300));
    }

    #[test]
    fn zero_stride_never_predicts() {
        let mut s = sp();
        let out = drive(&mut s, 0x40, &[0x1000, 0x1000, 0x1000, 0x1000]);
        assert!(out.is_empty(), "repeated same-address misses: no prefetch");
    }

    #[test]
    fn distinct_pcs_track_independently() {
        let mut s = sp();
        let mut out = Vec::new();
        for i in 0..4u32 {
            s.observe(0x40, VirtAddr(0x1000 + i * 0x40), &mut out);
            s.observe(0x44, VirtAddr(0x8000 + i * 0x100), &mut out);
        }
        let t40: Vec<u32> = out
            .iter()
            .filter(|r| r.vaddr.0 < 0x8000)
            .map(|r| r.vaddr.0)
            .collect();
        let t44: Vec<u32> = out
            .iter()
            .filter(|r| r.vaddr.0 >= 0x8000)
            .map(|r| r.vaddr.0)
            .collect();
        assert_eq!(t40, vec![0x10c0, 0x1100]);
        assert_eq!(t44, vec![0x8300, 0x8400]);
    }

    #[test]
    fn conflict_steals_entry() {
        let mut s = StridePrefetcher::new(&StrideConfig {
            entries: 4,
            degree: 1,
        });
        drive(&mut s, 0x40, &[0x1000, 0x1040, 0x1080]);
        // PC 0x80 maps to a different slot in a 4-entry table ((0x80>>2)&3 = 0
        // vs (0x40>>2)&3 = 0): actually same slot -> conflict.
        drive(&mut s, 0x80, &[0x9000]);
        assert_eq!(s.stats().conflicts, 1);
        // Original PC must retrain from scratch.
        let out = drive(&mut s, 0x40, &[0x10c0, 0x1100]);
        assert!(out.is_empty());
    }

    #[test]
    fn stats_count_observations() {
        let mut s = sp();
        drive(&mut s, 0x40, &[0x1000, 0x1040, 0x1080]);
        assert_eq!(s.stats().observed, 3);
        assert_eq!(s.stats().emitted, 1);
    }
}
