//! A pointer-chase / jump-pointer prefetcher for linked data structures.
//!
//! Linked traversals defeat stride tables (no arithmetic regularity) and
//! stress address-Markov tables (one entry per node). Jump-pointer
//! prefetching instead *learns the links themselves*: when a line is
//! filled, the engine harvests the first pointer-looking word (the same
//! VAM heuristic the content prefetcher uses, §3.3) and records
//! `node line -> target line` in a small jump table. A later miss on the
//! node looks the link up and chases it `chase_depth` hops ahead of the
//! demand stream.
//!
//! Against the content prefetcher this is the stateful mirror image: CDP
//! chases pointers *in the fill data* with zero state; the jump engine
//! pays a table to chase links *before* the data arrives, covering the
//! serialized-latency case where each hop's data is needed to find the
//! next.

use cdp_types::{JumpConfig, RequestKind, VamConfig, VirtAddr, LINE_SIZE};

use crate::{vam, Prefetcher, PrefetchRequest};

#[derive(Clone, Copy, Debug)]
struct JumpEntry {
    /// Node line address (low 6 bits zero).
    tag: u32,
    /// Line the node's first pointer referenced.
    target: u32,
    stamp: u64,
}

/// Cumulative jump-prefetcher statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JumpStats {
    /// L2 misses observed (lookup triggers).
    pub observed: u64,
    /// Fills harvested for a jump target.
    pub trained: u64,
    /// Lookups that found a link.
    pub table_hits: u64,
    /// Prefetch requests emitted.
    pub emitted: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

impl JumpStats {
    /// Serializes every counter (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.observed);
        enc.u64(self.trained);
        enc.u64(self.table_hits);
        enc.u64(self.emitted);
        enc.u64(self.evictions);
    }

    /// Restores counters written by [`JumpStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.observed = dec.u64("jump stats observed")?;
        self.trained = dec.u64("jump stats trained")?;
        self.table_hits = dec.u64("jump stats table_hits")?;
        self.emitted = dec.u64("jump stats emitted")?;
        self.evictions = dec.u64("jump stats evictions")?;
        Ok(())
    }
}

/// The jump-pointer prefetcher.
///
/// # Examples
///
/// ```
/// use cdp_prefetch::{JumpPrefetcher, Prefetcher};
/// use cdp_types::{JumpConfig, RequestKind, VirtAddr, LINE_SIZE};
///
/// let mut jp = JumpPrefetcher::new(&JumpConfig::sized(32 * 1024));
/// let mut out = Vec::new();
/// // A filled node whose first word points at 0x10ab_2000.
/// let mut data = [0u8; LINE_SIZE];
/// data[..4].copy_from_slice(&0x10ab_2000u32.to_le_bytes());
/// jp.on_l2_fill(
///     VirtAddr(0x10ab_1000),
///     VirtAddr(0x10ab_1000),
///     &data,
///     RequestKind::Demand,
///     &mut out,
/// );
/// // A later miss on the node chases the learned link.
/// jp.on_l2_miss(VirtAddr(0x10ab_1008), &mut out);
/// assert_eq!(out[0].vaddr.line().0, 0x10ab_2000 & !63);
/// ```
#[derive(Clone, Debug)]
pub struct JumpPrefetcher {
    sets: Vec<Vec<JumpEntry>>,
    associativity: usize,
    chase_depth: u32,
    vam: VamConfig,
    clock: u64,
    stats: JumpStats,
}

impl JumpPrefetcher {
    /// Creates a jump prefetcher whose table fits in `cfg.table_bytes`.
    pub fn new(cfg: &JumpConfig) -> Self {
        let entries = cfg.num_entries();
        let assoc = cfg.associativity.max(1);
        let sets = (entries / assoc).max(1);
        JumpPrefetcher {
            sets: (0..sets).map(|_| Vec::with_capacity(assoc)).collect(),
            associativity: assoc,
            chase_depth: cfg.chase_depth.max(1),
            vam: cfg.vam,
            clock: 0,
            stats: JumpStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> JumpStats {
        self.stats
    }

    /// Total table entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.associativity
    }

    /// Table storage budget in bytes (8 bytes per entry at capacity).
    pub fn budget_bytes(&self) -> usize {
        self.capacity() * 8
    }

    #[inline]
    fn set_index(&self, line: u32) -> usize {
        ((line >> 6) as usize) % self.sets.len()
    }

    fn record(&mut self, node_line: u32, target_line: u32) {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(node_line);
        let assoc = self.associativity;
        let entries = &mut self.sets[set];
        if let Some(e) = entries.iter_mut().find(|e| e.tag == node_line) {
            e.target = target_line;
            e.stamp = clock;
        } else {
            if entries.len() >= assoc {
                let victim = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                    .expect("set non-empty");
                entries.swap_remove(victim);
                self.stats.evictions += 1;
            }
            entries.push(JumpEntry {
                tag: node_line,
                target: target_line,
                stamp: clock,
            });
        }
        self.stats.trained += 1;
    }

    /// Serializes the complete jump-table state (resident order
    /// preserved, so LRU victim selection resumes bit-identically).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.clock);
        self.stats.save_state(enc);
        enc.seq_len(self.sets.len());
        for set in &self.sets {
            enc.seq_len(set.len());
            for e in set {
                enc.u32(e.tag);
                enc.u32(e.target);
                enc.u64(e.stamp);
            }
        }
    }

    /// Restores state written by [`JumpPrefetcher::save_state`] into a
    /// prefetcher of the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation, a set
    /// count mismatch, or a set exceeding its associativity.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        self.clock = dec.u64("jump clock")?;
        self.stats.restore_state(dec)?;
        let sets = dec.seq_len(8, "jump set count")?;
        if sets != self.sets.len() {
            return Err(SnapshotError::Corrupt {
                context: "jump set count",
            });
        }
        for set in self.sets.iter_mut() {
            set.clear();
            let len = dec.seq_len(4 + 4 + 8, "jump set length")?;
            if len > self.associativity {
                return Err(SnapshotError::Corrupt {
                    context: "jump set length",
                });
            }
            for _ in 0..len {
                let tag = dec.u32("jump entry tag")?;
                let target = dec.u32("jump entry target")?;
                let stamp = dec.u64("jump entry stamp")?;
                set.push(JumpEntry { tag, target, stamp });
            }
        }
        Ok(())
    }

    /// Looks `line` up and touches its stamp.
    fn lookup(&mut self, line: u32) -> Option<u32> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(line);
        let e = self.sets[set].iter_mut().find(|e| e.tag == line)?;
        e.stamp = clock;
        self.stats.table_hits += 1;
        Some(e.target)
    }
}

impl Prefetcher for JumpPrefetcher {
    /// An L2 miss triggers a chase: follow recorded links up to
    /// `chase_depth` hops, emitting one prefetch per hop. The chase
    /// stops at an unknown node or a self-link.
    fn on_l2_miss(&mut self, vaddr: VirtAddr, out: &mut Vec<PrefetchRequest>) {
        self.stats.observed += 1;
        let mut node = vaddr.line().0;
        for _ in 0..self.chase_depth {
            let Some(target) = self.lookup(node) else {
                break;
            };
            if target == node {
                break;
            }
            out.push(PrefetchRequest::jump(VirtAddr(target)));
            self.stats.emitted += 1;
            node = target;
        }
    }

    /// A fill harvests the node's jump target: the first VAM-accepted
    /// word of the line. Page-walk fills never reach this hook (the
    /// hierarchy filters them, as it does for the content engine).
    fn on_l2_fill(
        &mut self,
        _trigger_ea: VirtAddr,
        vline: VirtAddr,
        data: &[u8; LINE_SIZE],
        _kind: RequestKind,
        _out: &mut Vec<PrefetchRequest>,
    ) {
        let hits = vam::scan_line(data, vline, &self.vam);
        let node = vline.line().0;
        if let Some(hit) = hits.as_slice().iter().find(|h| h.candidate.line().0 != node) {
            self.record(node, hit.candidate.line().0);
        }
    }

    fn budget_bytes(&self) -> usize {
        self.budget_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_with_pointer(ptr: u32) -> [u8; LINE_SIZE] {
        let mut data = [0u8; LINE_SIZE];
        data[..4].copy_from_slice(&ptr.to_le_bytes());
        data
    }

    fn fill(jp: &mut JumpPrefetcher, vline: u32, ptr: u32) {
        let mut out = Vec::new();
        jp.on_l2_fill(
            VirtAddr(vline),
            VirtAddr(vline),
            &line_with_pointer(ptr),
            RequestKind::Demand,
            &mut out,
        );
        assert!(out.is_empty(), "fills train, they never issue directly");
    }

    #[test]
    fn learned_link_is_chased_on_miss() {
        let mut jp = JumpPrefetcher::new(&JumpConfig::sized(32 * 1024));
        fill(&mut jp, 0x10ab_1000, 0x10ab_2000);
        let mut out = Vec::new();
        jp.on_l2_miss(VirtAddr(0x10ab_1010), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vaddr.0, 0x10ab_2000);
        assert_eq!(out[0].kind, RequestKind::Jump);
    }

    #[test]
    fn chase_depth_follows_the_chain() {
        let mut jp = JumpPrefetcher::new(&JumpConfig {
            chase_depth: 3,
            ..JumpConfig::sized(32 * 1024)
        });
        // A -> B -> C -> D, all VAM-acceptable (same upper byte).
        fill(&mut jp, 0x10ab_1000, 0x10ab_2000);
        fill(&mut jp, 0x10ab_2000, 0x10ab_3000);
        fill(&mut jp, 0x10ab_3000, 0x10ab_4000);
        let mut out = Vec::new();
        jp.on_l2_miss(VirtAddr(0x10ab_1000), &mut out);
        let targets: Vec<u32> = out.iter().map(|r| r.vaddr.0).collect();
        assert_eq!(targets, vec![0x10ab_2000, 0x10ab_3000, 0x10ab_4000]);
    }

    #[test]
    fn non_pointer_fill_does_not_train() {
        let mut jp = JumpPrefetcher::new(&JumpConfig::sized(32 * 1024));
        let mut out = Vec::new();
        // A line of small integers: nothing shares the trigger's region.
        let mut data = [0u8; LINE_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        jp.on_l2_fill(
            VirtAddr(0x70ab_1000),
            VirtAddr(0x70ab_1000),
            &data,
            RequestKind::Demand,
            &mut out,
        );
        assert_eq!(jp.stats().trained, 0);
        jp.on_l2_miss(VirtAddr(0x70ab_1000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn self_links_never_loop() {
        let mut jp = JumpPrefetcher::new(&JumpConfig {
            chase_depth: 8,
            ..JumpConfig::sized(32 * 1024)
        });
        // The first non-self candidate is recorded, so craft a line whose
        // only candidate is in its own line: nothing should be recorded.
        let mut out = Vec::new();
        jp.on_l2_fill(
            VirtAddr(0x10ab_1000),
            VirtAddr(0x10ab_1000),
            &line_with_pointer(0x10ab_1020),
            RequestKind::Demand,
            &mut out,
        );
        assert_eq!(jp.stats().trained, 0, "self-line pointers are skipped");
        jp.on_l2_miss(VirtAddr(0x10ab_1000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn retrain_updates_the_link() {
        let mut jp = JumpPrefetcher::new(&JumpConfig::sized(32 * 1024));
        fill(&mut jp, 0x10ab_1000, 0x10ab_2000);
        fill(&mut jp, 0x10ab_1000, 0x10ab_5000); // node re-linked
        let mut out = Vec::new();
        jp.on_l2_miss(VirtAddr(0x10ab_1000), &mut out);
        assert_eq!(out[0].vaddr.0, 0x10ab_5000);
    }

    #[test]
    fn capacity_eviction_lru() {
        let tiny = JumpConfig {
            table_bytes: 2 * 8 * 8, // 2 sets x 8 ways
            ..JumpConfig::sized(0)
        };
        let mut jp = JumpPrefetcher::new(&tiny);
        let cap = jp.capacity();
        for i in 0..(cap as u32 + 8) {
            let node = 0x10ab_0000 + i * 64;
            fill(&mut jp, node, 0x10ab_f000);
        }
        assert!(jp.sets.iter().all(|s| s.len() <= jp.associativity));
        assert!(jp.stats().evictions > 0);
    }

    #[test]
    fn budget_bytes_reports_capacity() {
        let jp = JumpPrefetcher::new(&JumpConfig::sized(32 * 1024));
        assert_eq!(Prefetcher::budget_bytes(&jp), 32 * 1024);
    }

    #[test]
    fn snapshot_roundtrip_resumes_bit_identically() {
        let mut jp = JumpPrefetcher::new(&JumpConfig::sized(4 * 1024));
        for i in 0..100u32 {
            fill(&mut jp, 0x10ab_0000 + i * 64, 0x10ab_8000 + (i % 7) * 64);
        }
        let mut out = Vec::new();
        jp.on_l2_miss(VirtAddr(0x10ab_0040), &mut out);
        let mut enc = cdp_snap::Enc::new();
        jp.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = JumpPrefetcher::new(&JumpConfig::sized(4 * 1024));
        let mut dec = cdp_snap::Dec::new(&bytes);
        restored.restore_state(&mut dec).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..50u32 {
            jp.on_l2_miss(VirtAddr(0x10ab_0000 + i * 64), &mut a);
            restored.on_l2_miss(VirtAddr(0x10ab_0000 + i * 64), &mut b);
        }
        assert_eq!(a, b);
        assert_eq!(jp.stats(), restored.stats());
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let jp = JumpPrefetcher::new(&JumpConfig::sized(4 * 1024));
        let mut enc = cdp_snap::Enc::new();
        jp.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut other = JumpPrefetcher::new(&JumpConfig::sized(8 * 1024));
        let mut dec = cdp_snap::Dec::new(&bytes);
        assert!(other.restore_state(&mut dec).is_err());
    }
}
