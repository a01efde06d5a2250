//! Translation look-aside buffers.
//!
//! A thin, page-granular wrapper over the generic set-associative [`Cache`]:
//! keys are virtual page numbers, payloads are physical frame bases. The
//! paper's DTLB is 64-entry 4-way; §4.2.2 sweeps it from 64 to 1024 entries
//! to show that the content prefetcher's gains are not merely TLB
//! prefetching.

use cdp_types::{PageNum, PhysAddr, TlbConfig};

use crate::cache::Cache;

/// A set-associative TLB.
///
/// # Examples
///
/// ```
/// use cdp_mem::Tlb;
/// use cdp_types::{PageNum, PhysAddr, TlbConfig};
///
/// let mut tlb = Tlb::new(&TlbConfig::dtlb_asplos2002());
/// assert_eq!(tlb.lookup(PageNum(0x10000)), None);
/// tlb.insert(PageNum(0x10000), PhysAddr(0x40_0000));
/// assert_eq!(tlb.lookup(PageNum(0x10000)), Some(PhysAddr(0x40_0000)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache<PhysAddr>,
    entries: usize,
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `associativity`.
    pub fn new(cfg: &TlbConfig) -> Self {
        assert!(
            cfg.entries.is_multiple_of(cfg.associativity),
            "TLB entries must divide evenly into sets"
        );
        let sets = cfg.entries / cfg.associativity;
        Tlb {
            // Page-number keys: treat each "line" as 1 byte wide.
            inner: Cache::new(sets, cfg.associativity, 1),
            entries: cfg.entries,
        }
    }

    /// Total entry capacity.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Looks up a translation, updating LRU and hit/miss statistics.
    pub fn lookup(&mut self, page: PageNum) -> Option<PhysAddr> {
        self.inner.access(page.0).copied()
    }

    /// Whether a translation is cached, without disturbing LRU or stats.
    pub fn probe(&self, page: PageNum) -> bool {
        self.inner.probe(page.0)
    }

    /// Installs a translation (evicting LRU in the set if full).
    pub fn insert(&mut self, page: PageNum, frame_base: PhysAddr) {
        self.inner.fill(page.0, frame_base);
    }

    /// Drops a translation.
    pub fn invalidate(&mut self, page: PageNum) -> Option<PhysAddr> {
        self.inner.invalidate(page.0)
    }

    /// (hits, misses) counted by [`Tlb::lookup`].
    pub fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }

    /// Resets hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    /// Serializes the complete TLB state (delegates to the inner cache).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        self.inner.save_state(enc, |frame, e| e.u32(frame.0));
    }

    /// Restores state written by [`Tlb::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation or a
    /// geometry mismatch.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.inner
            .restore_state(dec, |d| Ok(PhysAddr(d.u32("tlb frame base")?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtlb() -> Tlb {
        Tlb::new(&TlbConfig::dtlb_asplos2002())
    }

    #[test]
    fn miss_insert_hit() {
        let mut tlb = dtlb();
        assert_eq!(tlb.lookup(PageNum(5)), None);
        tlb.insert(PageNum(5), PhysAddr(0x1000));
        assert_eq!(tlb.lookup(PageNum(5)), Some(PhysAddr(0x1000)));
        assert_eq!(tlb.stats(), (1, 1));
    }

    #[test]
    fn capacity_eviction_within_set() {
        let mut tlb = dtlb(); // 16 sets x 4 ways
                              // Pages mapping to set 0: page % 16 == 0.
        for i in 0..5u32 {
            tlb.insert(PageNum(i * 16), PhysAddr(i * 0x1000));
        }
        // First-inserted is LRU and must be gone.
        assert!(!tlb.probe(PageNum(0)));
        for i in 1..5u32 {
            assert!(tlb.probe(PageNum(i * 16)), "page {i} should remain");
        }
    }

    #[test]
    fn fully_associative_itlb() {
        let mut tlb = Tlb::new(&TlbConfig {
            entries: 128,
            associativity: 128,
        });
        assert_eq!(tlb.entries(), 128);
        for i in 0..128u32 {
            tlb.insert(PageNum(i), PhysAddr(i << 12));
        }
        for i in 0..128u32 {
            assert!(tlb.probe(PageNum(i)));
        }
        tlb.insert(PageNum(1000), PhysAddr(0));
        // Exactly one entry was displaced.
        let resident = (0..128u32).filter(|&i| tlb.probe(PageNum(i))).count();
        assert_eq!(resident, 127);
    }

    #[test]
    fn invalidate() {
        let mut tlb = dtlb();
        tlb.insert(PageNum(7), PhysAddr(0x7000));
        assert_eq!(tlb.invalidate(PageNum(7)), Some(PhysAddr(0x7000)));
        assert_eq!(tlb.lookup(PageNum(7)), None);
    }

    #[test]
    fn larger_tlb_sweep_geometries() {
        // §4.2.2 doubles the DTLB repeatedly from 64 to 1024 entries.
        for entries in [64usize, 128, 256, 512, 1024] {
            let tlb = Tlb::new(&TlbConfig {
                entries,
                associativity: 4,
            });
            assert_eq!(tlb.entries(), entries);
        }
    }
}
