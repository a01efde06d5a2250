//! A delta-space Markov prefetcher (the Pangloss-style tournament
//! comparator, arXiv 1906.00877), which in its address-keyed mode is also
//! the §5 1-history Markov STAB.
//!
//! Classic address-keyed Markov tables must dedicate one entry per miss
//! address, so their reach scales linearly with silicon. Pangloss
//! observes that miss *deltas* are heavily reused across the address
//! space: a table keyed by recent delta history and storing next deltas
//! compacts regular and mixed patterns into a few hot entries.
//!
//! The engine runs in one of two key spaces ([`DeltaKeySpace`]):
//!
//! * `Address` — keys are absolute miss-line addresses. With
//!   `history == 1` this is the paper's 1-history Markov STAB ("a State
//!   Transition Table (STAB) with a fan out of four, [with] transition
//!   probabilities [modelled by] LRU replacement"): each miss trains the
//!   previous miss's successor list, then prefetches its own recorded
//!   successors. [`DeltaPrefetcher::stab`] builds it from a
//!   [`MarkovConfig`] and stamps its requests [`RequestKind::Markov`];
//!   `tests/delta_differential.rs` holds it hit-for-hit to a reference
//!   STAB.
//! * `Delta` — keys are a signature of the last `history` line deltas;
//!   successors are next deltas with a saturating confidence byte. A
//!   confident top successor is chased one extra hop through the table
//!   (Pangloss's multi-degree prefetch).
//!
//! Sets are allocated on their first insert, so a large, sparsely
//! trained table (the unbounded `markov_big` STAB) costs memory only for
//! the sets it uses, and steady-state misses never touch the heap.

use cdp_types::{DeltaConfig, DeltaKeySpace, MarkovConfig, RequestKind, VirtAddr};

use crate::{PrefetchRequest, Prefetcher};

/// Line deltas must fit in the 2-byte slot the budget accounting charges
/// for them; larger jumps break the pattern context instead of training.
const MAX_DELTA_LINES: i64 = i16::MAX as i64;

#[derive(Clone, Copy, Debug)]
struct Succ {
    /// Successor payload: an absolute line address (`Address` mode) or a
    /// line delta reinterpreted as `u32` (`Delta` mode).
    value: u32,
    /// Saturating re-train count; gates the extra chase hop.
    conf: u8,
}

#[derive(Clone, Debug)]
struct DeltaEntry {
    key: u32,
    /// MRU-first successors (capacity `fanout`, reused when the entry is
    /// evicted).
    succ: Vec<Succ>,
    stamp: u64,
}

/// Cumulative delta-prefetcher statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// L2 misses observed.
    pub observed: u64,
    /// Table lookups that found an entry.
    pub table_hits: u64,
    /// Prefetch requests emitted.
    pub emitted: u64,
    /// Transitions recorded.
    pub trained: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

impl cdp_snap::Record for DeltaStats {
    fn fields<C: cdp_snap::Codec>(&mut self, c: &mut C) -> Result<(), C::Error> {
        c.u64(&mut self.observed, "delta stats observed")?;
        c.u64(&mut self.table_hits, "delta stats table_hits")?;
        c.u64(&mut self.emitted, "delta stats emitted")?;
        c.u64(&mut self.trained, "delta stats trained")?;
        c.u64(&mut self.evictions, "delta stats evictions")
    }
}

/// The delta-space Markov prefetcher (and, built with
/// [`DeltaPrefetcher::stab`], the §5 Markov STAB).
///
/// # Examples
///
/// ```
/// use cdp_prefetch::DeltaPrefetcher;
/// use cdp_types::{DeltaConfig, VirtAddr};
///
/// let mut dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(64 * 1024));
/// let mut out = Vec::new();
/// // A +2-line miss pattern: the first pass trains the delta chain.
/// for i in 0..8u32 {
///     dp.observe_miss(VirtAddr(0x1000 + i * 128), &mut out);
/// }
/// assert!(!out.is_empty(), "reused deltas predict without address reuse");
/// ```
#[derive(Clone, Debug)]
pub struct DeltaPrefetcher {
    /// Each set is empty (unallocated) until its first insert.
    sets: Vec<Vec<DeltaEntry>>,
    associativity: usize,
    fanout: usize,
    history: usize,
    key_space: DeltaKeySpace,
    entry_bytes: usize,
    /// Stamped on every request: `Delta`, or `Markov` for the STAB.
    kind: RequestKind,
    /// Last miss line (both modes; raw line address, low 6 bits zero).
    prev_miss: Option<u32>,
    /// Recent line deltas, oldest first (`Delta` mode only).
    hist: Vec<i32>,
    clock: u64,
    stats: DeltaStats,
}

impl DeltaPrefetcher {
    /// Creates a delta prefetcher whose table fits in `cfg.table_bytes`.
    pub fn new(cfg: &DeltaConfig) -> Self {
        Self::with_kind(cfg, RequestKind::Delta)
    }

    /// Creates the §5 Markov STAB: an address-keyed, history-1 table with
    /// `cfg`'s geometry whose requests carry [`RequestKind::Markov`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cdp_prefetch::DeltaPrefetcher;
    /// use cdp_types::{MarkovConfig, RequestKind, VirtAddr};
    ///
    /// let mut stab = DeltaPrefetcher::stab(&MarkovConfig::half());
    /// let mut out = Vec::new();
    /// // First pass trains A -> B.
    /// stab.observe_miss(VirtAddr(0x1000), &mut out);
    /// stab.observe_miss(VirtAddr(0x8000), &mut out);
    /// assert!(out.is_empty(), "still training");
    /// // Second encounter of A predicts B.
    /// stab.observe_miss(VirtAddr(0x1000), &mut out);
    /// assert_eq!(out[0].vaddr, VirtAddr(0x8000));
    /// assert_eq!(out[0].kind, RequestKind::Markov);
    /// ```
    pub fn stab(cfg: &MarkovConfig) -> Self {
        Self::with_kind(&DeltaConfig::from(*cfg), RequestKind::Markov)
    }

    fn with_kind(cfg: &DeltaConfig, kind: RequestKind) -> Self {
        let entries = cfg.num_entries();
        let assoc = cfg.associativity.max(1);
        let sets = (entries / assoc).max(1);
        let history = cfg.history.max(1);
        DeltaPrefetcher {
            sets: vec![Vec::new(); sets],
            associativity: assoc,
            fanout: cfg.fanout.max(1),
            history,
            key_space: cfg.key_space,
            entry_bytes: cfg.entry_bytes(),
            kind,
            prev_miss: None,
            // One slot over `history`: a new delta is pushed before the
            // oldest is dropped.
            hist: Vec::with_capacity(history + 1),
            clock: 0,
            stats: DeltaStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Total table entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.associativity
    }

    /// Table storage budget in bytes (capacity, not residency): the
    /// figure the equal-silicon tournament normalizes on.
    pub fn budget_bytes(&self) -> usize {
        self.capacity() * self.entry_bytes
    }

    #[inline]
    fn set_index(&self, key: u32) -> usize {
        match self.key_space {
            // Address keys are raw line addresses: index by line number.
            DeltaKeySpace::Address => ((key >> 6) as usize) % self.sets.len(),
            DeltaKeySpace::Delta => (key as usize) % self.sets.len(),
        }
    }

    /// FNV-1a signature of a delta history, oldest first (`Delta` mode
    /// keys).
    fn signature(hist: impl IntoIterator<Item = i32>) -> u32 {
        let mut h: u32 = 0x811c_9dc5;
        for d in hist {
            h = (h ^ d as u32).wrapping_mul(0x0100_0193);
        }
        h
    }

    #[inline]
    fn request(kind: RequestKind, line: u32) -> PrefetchRequest {
        PrefetchRequest {
            vaddr: VirtAddr(line),
            kind,
            width: false,
        }
    }

    fn train(&mut self, key: u32, to: u32) {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(key);
        let (assoc, fanout) = (self.associativity, self.fanout);
        let entries = &mut self.sets[set];
        if let Some(e) = entries.iter_mut().find(|e| e.key == key) {
            e.stamp = clock;
            let conf = if let Some(pos) = e.succ.iter().position(|s| s.value == to) {
                // Move to MRU, carrying (and bumping) its confidence.
                e.succ.remove(pos).conf.saturating_add(1)
            } else {
                if e.succ.len() >= self.fanout {
                    // Drop the LRU successor.
                    e.succ.pop();
                }
                1
            };
            e.succ.insert(0, Succ { value: to, conf });
        } else {
            let mut succ = if entries.len() >= assoc {
                let victim = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                    .expect("set non-empty");
                self.stats.evictions += 1;
                let mut recycled = entries.swap_remove(victim).succ;
                recycled.clear();
                recycled
            } else {
                if entries.capacity() == 0 {
                    entries.reserve_exact(assoc);
                }
                Vec::with_capacity(fanout)
            };
            succ.push(Succ { value: to, conf: 1 });
            entries.push(DeltaEntry {
                key,
                succ,
                stamp: clock,
            });
        }
        self.stats.trained += 1;
    }

    /// Looks `key` up, touches its stamp, and returns its successors
    /// (MRU-first, never empty). Bumps `table_hits` when found.
    fn predict(&mut self, key: u32) -> Option<&[Succ]> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(key);
        let e = self.sets[set].iter_mut().find(|e| e.key == key)?;
        e.stamp = clock;
        self.stats.table_hits += 1;
        Some(&e.succ)
    }

    /// Observes one L2 miss: trains the transition out of the previous
    /// context and emits prefetches for the current context's successors.
    pub fn observe_miss(&mut self, vaddr: VirtAddr, out: &mut Vec<PrefetchRequest>) {
        self.stats.observed += 1;
        let line = vaddr.line().0;
        match self.key_space {
            DeltaKeySpace::Address => self.observe_address(line, out),
            DeltaKeySpace::Delta => self.observe_delta(line, out),
        }
    }

    /// Address-keyed mode: the 1-history Markov STAB (train
    /// previous-line -> line, then predict successors of line).
    fn observe_address(&mut self, line: u32, out: &mut Vec<PrefetchRequest>) {
        if let Some(prev) = self.prev_miss {
            if prev != line {
                self.train(prev, line);
            }
        }
        self.prev_miss = Some(line);
        let kind = self.kind;
        if let Some(succ) = self.predict(line) {
            let n = succ.len() as u64;
            out.extend(succ.iter().map(|s| Self::request(kind, s.value)));
            self.stats.emitted += n;
        }
    }

    /// Delta-keyed mode: the key is a signature of the last `history`
    /// line deltas; successors are next deltas applied to the current
    /// miss line. The top successor is chased one extra hop once its
    /// confidence reaches 2.
    fn observe_delta(&mut self, line: u32, out: &mut Vec<PrefetchRequest>) {
        let line_units = line >> 6;
        if let Some(prev) = self.prev_miss {
            let delta = i64::from(line_units) - i64::from(prev >> 6);
            if delta == 0 {
                // Same line re-missed: no transition, context unchanged.
                return;
            }
            if delta.abs() > MAX_DELTA_LINES {
                // A jump too large for the 2-byte delta slots: treat it
                // as a traversal break and rebuild the context.
                self.hist.clear();
                self.prev_miss = Some(line);
                return;
            }
            if self.hist.len() == self.history {
                self.train(Self::signature(self.hist.iter().copied()), delta as u32);
            }
            self.hist.push(delta as i32);
            if self.hist.len() > self.history {
                self.hist.remove(0);
            }
        }
        self.prev_miss = Some(line);
        if self.hist.len() < self.history {
            return;
        }
        let kind = self.kind;
        let Some(succ) = self.predict(Self::signature(self.hist.iter().copied())) else {
            return;
        };
        let n = succ.len() as u64;
        out.extend(
            succ.iter()
                .map(|s| Self::request(kind, line_units.wrapping_add(s.value) << 6)),
        );
        let head = succ[0];
        self.stats.emitted += n;
        // Chase the confident head one hop: shift its delta into the
        // context and ask the table for the hop after it.
        if head.conf >= 2 {
            let next_hist = self.hist[1..].iter().copied().chain([head.value as i32]);
            if let Some(chased) = self.predict(Self::signature(next_hist)) {
                let base = line_units.wrapping_add(head.value);
                let target = base.wrapping_add(chased[0].value) << 6;
                out.push(Self::request(kind, target));
                self.stats.emitted += 1;
            }
        }
    }

    /// Serializes the complete table state (resident order preserved, so
    /// LRU victim selection and MRU successor order resume bit-identically).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.clock);
        match self.prev_miss {
            Some(line) => {
                enc.bool(true);
                enc.u32(line);
            }
            None => enc.bool(false),
        }
        enc.seq_len(self.hist.len());
        for &d in &self.hist {
            enc.i64(i64::from(d));
        }
        enc.put(self.stats);
        enc.seq_len(self.sets.len());
        for set in &self.sets {
            enc.seq_len(set.len());
            for e in set {
                enc.u32(e.key);
                enc.u64(e.stamp);
                enc.seq_len(e.succ.len());
                for s in &e.succ {
                    enc.u32(s.value);
                    enc.u8(s.conf);
                }
            }
        }
    }

    /// Restores state written by [`DeltaPrefetcher::save_state`] into a
    /// prefetcher of the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation, a set
    /// count mismatch, or a history/set/successor list exceeding its bound.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        self.clock = dec.u64("delta clock")?;
        self.prev_miss = if dec.bool("delta prev_miss flag")? {
            Some(dec.u32("delta prev_miss")?)
        } else {
            None
        };
        let hist_len = dec.seq_len(8, "delta history length")?;
        if hist_len > self.history {
            return Err(SnapshotError::Corrupt {
                context: "delta history length",
            });
        }
        self.hist.clear();
        for _ in 0..hist_len {
            let d = i32::try_from(dec.i64("delta history delta")?).map_err(|_| {
                SnapshotError::Corrupt {
                    context: "delta history delta",
                }
            })?;
            self.hist.push(d);
        }
        self.stats = dec.get()?;
        let sets = dec.seq_len(8, "delta set count")?;
        if sets != self.sets.len() {
            return Err(SnapshotError::Corrupt {
                context: "delta set count",
            });
        }
        for set in self.sets.iter_mut() {
            set.clear();
            let len = dec.seq_len(4 + 8 + 8, "delta set length")?;
            if len > self.associativity {
                return Err(SnapshotError::Corrupt {
                    context: "delta set length",
                });
            }
            if len > 0 && set.capacity() == 0 {
                set.reserve_exact(self.associativity);
            }
            for _ in 0..len {
                let key = dec.u32("delta entry key")?;
                let stamp = dec.u64("delta entry stamp")?;
                let succ_len = dec.seq_len(5, "delta successor count")?;
                if succ_len == 0 || succ_len > self.fanout {
                    return Err(SnapshotError::Corrupt {
                        context: "delta successor count",
                    });
                }
                let mut succ = Vec::with_capacity(self.fanout);
                for _ in 0..succ_len {
                    let value = dec.u32("delta successor value")?;
                    let conf = dec.u8("delta successor conf")?;
                    succ.push(Succ { value, conf });
                }
                set.push(DeltaEntry { key, succ, stamp });
            }
        }
        Ok(())
    }
}

impl Prefetcher for DeltaPrefetcher {
    fn on_l2_miss(&mut self, vaddr: VirtAddr, out: &mut Vec<PrefetchRequest>) {
        self.observe_miss(vaddr, out);
    }

    fn budget_bytes(&self) -> usize {
        self.budget_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(dp: &mut DeltaPrefetcher, misses: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        for &m in misses {
            dp.observe_miss(VirtAddr(m), &mut out);
        }
        out.iter().map(|r| r.vaddr.0).collect()
    }

    #[test]
    fn delta_mode_predicts_unseen_addresses() {
        // The defining contrast with address-Markov: a constant +4-line
        // delta predicts lines never missed before.
        let mut dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(64 * 1024));
        let seq: Vec<u32> = (0..6).map(|i| 0x10_0000 + i * 256).collect();
        let preds = run(&mut dp, &seq);
        assert!(
            preds.contains(&(0x10_0000 + 6 * 256)),
            "must extrapolate the +4-line chain: {preds:x?}"
        );
    }

    fn stab() -> DeltaPrefetcher {
        DeltaPrefetcher::stab(&MarkovConfig::half())
    }

    #[test]
    fn stab_never_predicts_cold() {
        // The paper's key qualitative claim (§5): Markov needs to see a
        // sequence before predicting it; cold sequences yield nothing.
        let mut dp = stab();
        let seq: Vec<u32> = (0..50).map(|i| 0x40_0000 + i * 4096).collect();
        assert!(run(&mut dp, &seq).is_empty(), "address keys need reuse");
        assert_eq!(dp.stats().table_hits, 0);
    }

    #[test]
    fn stab_first_pass_trains_second_predicts() {
        let mut dp = stab();
        let seq = [0x1000u32, 0x8000, 0x3000];
        assert!(run(&mut dp, &seq).is_empty(), "training pass is silent");
        let preds = run(&mut dp, &seq);
        assert!(preds.contains(&0x8000), "A predicts B");
        assert!(preds.contains(&0x3000), "B predicts C");
    }

    #[test]
    fn stab_requests_carry_markov_kind() {
        let mut dp = stab();
        let mut out = Vec::new();
        for &a in &[0x1000u32, 0x2000, 0x1000] {
            dp.observe_miss(VirtAddr(a), &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.kind == cdp_types::RequestKind::Markov));
    }

    #[test]
    fn stab_fanout_limits_successors() {
        let mut dp = DeltaPrefetcher::stab(&MarkovConfig {
            fanout: 2,
            ..MarkovConfig::half()
        });
        // A alternates among three successors; only two fit.
        run(&mut dp, &[0x1000, 0x2000, 0x1000, 0x3000, 0x1000, 0x4000]);
        let mut out = Vec::new();
        dp.observe_miss(VirtAddr(0x1000), &mut out);
        assert_eq!(out.len(), 2);
        // MRU first: the most recent transition (to 0x4000) leads.
        assert_eq!(out[0].vaddr.0, 0x4000);
    }

    #[test]
    fn stab_repeated_transition_moves_to_mru() {
        let mut dp = stab();
        run(&mut dp, &[0x1000, 0x2000, 0x1000, 0x3000, 0x1000, 0x2000]);
        let mut out = Vec::new();
        dp.observe_miss(VirtAddr(0x1000), &mut out);
        assert_eq!(out[0].vaddr.0, 0x2000, "0x2000 re-trained to MRU");
    }

    #[test]
    fn stab_same_line_repeat_does_not_self_train() {
        let mut dp = stab();
        run(&mut dp, &[0x1000, 0x1010, 0x1020]); // all in line 0x1000
        let mut out = Vec::new();
        dp.observe_miss(VirtAddr(0x1000), &mut out);
        assert!(out.is_empty(), "no self-loop transitions");
        assert_eq!(dp.stats().trained, 0);
    }

    #[test]
    fn stab_hit_rate_grows_with_repetition() {
        let mut dp = stab();
        let seq: Vec<u32> = (0..20).map(|i| 0x1000 + i * 4096).collect();
        run(&mut dp, &seq);
        assert_eq!(dp.stats().table_hits, 0, "pass 1 is all cold");
        // Pass 2: every miss address was trained as a key.
        run(&mut dp, &seq);
        let hits = dp.stats().table_hits;
        assert!(hits >= seq.len() as u64 - 2, "{hits}");
    }

    #[test]
    fn stab_predictions_never_target_the_current_miss() {
        let mut dp = stab();
        let mut out = Vec::new();
        for &a in &[0x1000u32, 0x2000, 0x1000, 0x2000, 0x1000] {
            out.clear();
            dp.observe_miss(VirtAddr(a), &mut out);
            for r in &out {
                assert_ne!(r.vaddr.line().0, a & !63, "self-prediction at {a:#x}");
            }
        }
    }

    #[test]
    fn stab_geometry_matches_markov_config() {
        for m in [
            MarkovConfig::eighth(),
            MarkovConfig::half(),
            MarkovConfig::unbounded(),
        ] {
            let dp = DeltaPrefetcher::stab(&m);
            let sets = m.num_entries() / m.associativity;
            assert_eq!(dp.capacity(), sets * m.associativity, "{m:?}");
            assert_eq!(dp.budget_bytes(), dp.capacity() * m.entry_bytes(), "{m:?}");
        }
        assert!(DeltaPrefetcher::stab(&MarkovConfig::unbounded()).capacity() >= 1 << 24);
    }

    #[test]
    fn emitted_requests_carry_delta_kind() {
        let mut dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(64 * 1024));
        let mut out = Vec::new();
        for i in 0..8u32 {
            dp.observe_miss(VirtAddr(0x2000 + i * 128), &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.kind == cdp_types::RequestKind::Delta));
    }

    #[test]
    fn alternating_deltas_learn_with_history_two() {
        // +1, +3, +1, +3 line deltas: history 2 disambiguates perfectly.
        let mut dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(64 * 1024));
        let mut addr = 0x40_0000u32;
        let mut seq = Vec::new();
        for i in 0..16 {
            seq.push(addr);
            addr += if i % 2 == 0 { 64 } else { 192 };
        }
        let preds = run(&mut dp, &seq);
        // The last two deltas are (+3, +1); the pattern continues with +3.
        let next = *seq.last().unwrap() + 192;
        assert!(preds.contains(&next), "{preds:x?} missing {next:x}");
    }

    #[test]
    fn huge_jump_breaks_context_instead_of_training() {
        let mut dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(64 * 1024));
        run(&mut dp, &[0x1000, 0x1040, 0x1080]);
        let trained_before = dp.stats().trained;
        run(&mut dp, &[0xf000_0000]); // ~4M-line jump
        assert_eq!(dp.stats().trained, trained_before, "break, not train");
    }

    #[test]
    fn same_line_repeat_is_inert() {
        let mut dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(64 * 1024));
        run(&mut dp, &[0x1000, 0x1040, 0x1080]);
        let stats = dp.stats();
        let preds = run(&mut dp, &[0x1080, 0x1090, 0x10a0]); // same line
        assert!(preds.is_empty());
        assert_eq!(dp.stats().trained, stats.trained);
    }

    #[test]
    fn capacity_eviction_counts() {
        let tiny_delta = DeltaPrefetcher::new(&DeltaConfig {
            table_bytes: 2 * 16 * 16,
            ..DeltaConfig::pangloss(0)
        });
        let tiny_stab = DeltaPrefetcher::stab(&MarkovConfig {
            stab_bytes: 2 * 20 * 2,
            associativity: 2,
            fanout: 4,
        });
        for mut dp in [tiny_delta, tiny_stab] {
            let cap = dp.capacity();
            // Distinct contexts in both key spaces: a run of misses with
            // growing deltas.
            let mut addr = 0x10_0000u32;
            let mut seq = Vec::new();
            for i in 1..(cap as u32 * 4) {
                seq.push(addr);
                addr += 64 * (i % 97 + 1);
            }
            run(&mut dp, &seq);
            assert!(dp.sets.iter().all(|s| s.len() <= dp.associativity));
            assert!(dp.stats().evictions > 0, "{:?}", dp.key_space);
        }
    }

    #[test]
    fn budget_bytes_matches_config_math() {
        for cfg in [
            DeltaConfig::pangloss(64 * 1024),
            DeltaConfig::from(MarkovConfig::eighth()),
        ] {
            let dp = DeltaPrefetcher::new(&cfg);
            assert_eq!(
                dp.budget_bytes(),
                (cfg.num_entries() / cfg.associativity) * cfg.associativity * cfg.entry_bytes()
            );
            // Within one set's worth of the requested budget.
            assert!(dp.budget_bytes() <= cfg.table_bytes);
            assert!(dp.budget_bytes() + cfg.associativity * cfg.entry_bytes() > cfg.table_bytes);
        }
    }

    #[test]
    fn snapshot_roundtrip_resumes_bit_identically() {
        let mut dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(4 * 1024));
        let mut addr = 0x20_0000u32;
        let mut seq = Vec::new();
        for i in 0..200u32 {
            seq.push(addr);
            addr = addr.wrapping_add(64 * ((i * 7) % 23 + 1));
        }
        run(&mut dp, &seq);
        let mut enc = cdp_snap::Enc::new();
        dp.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = DeltaPrefetcher::new(&DeltaConfig::pangloss(4 * 1024));
        let mut dec = cdp_snap::Dec::new(&bytes);
        restored.restore_state(&mut dec).unwrap();
        // Same tail drives identical predictions and stats.
        let tail: Vec<u32> = (0..50).map(|i| 0x30_0000 + i * 128).collect();
        assert_eq!(run(&mut dp, &tail), run(&mut restored, &tail));
        assert_eq!(dp.stats(), restored.stats());
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let dp = DeltaPrefetcher::new(&DeltaConfig::pangloss(4 * 1024));
        let mut enc = cdp_snap::Enc::new();
        dp.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut other = DeltaPrefetcher::new(&DeltaConfig::pangloss(8 * 1024));
        let mut dec = cdp_snap::Dec::new(&bytes);
        assert!(other.restore_state(&mut dec).is_err());
    }
}
