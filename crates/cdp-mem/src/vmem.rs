//! Virtual address space: IA-32-style two-level page tables that live in
//! physical memory, a frame allocator, and a hardware page walker.
//!
//! The paper's processor "uses a hardware TLB page-walk, which accesses page
//! table structures in memory to fill TLB misses. All such page-walk traffic
//! bypasses the prefetcher because some of the page tables are large tables
//! of pointers" (§3.5). To reproduce that faithfully the page tables here are
//! real data in [`PhysMem`]: a walk performs two dependent physical reads
//! (page-directory entry, then page-table entry) and reports their addresses
//! so the memory hierarchy can charge latency and route them around the
//! content prefetcher's scanner.

use cdp_types::{LineAddr, PageNum, PhysAddr, VirtAddr, LINE_SIZE};

use crate::phys::PhysMem;

/// Physical address of the page directory (frame 1).
const PAGE_DIR_BASE: u32 = 0x1000;
/// First frame handed out by the allocator; everything below is reserved for
/// the page directory and page tables.
const FIRST_USER_FRAME: u32 = 0x400; // phys 0x40_0000
/// First frame used for page *tables* (between the directory and user data).
const FIRST_TABLE_FRAME: u32 = 0x10;
/// Number of frames reserved for page tables.
const TABLE_FRAMES: u32 = FIRST_USER_FRAME - FIRST_TABLE_FRAME;

const PTE_PRESENT: u32 = 1;

/// Page size re-exported for straddle checks.
pub(crate) const PAGE_SIZE_BYTES: usize = cdp_types::PAGE_SIZE;

/// The two physical reads performed by a hardware page walk, plus the
/// translation outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkResult {
    /// Physical address of the page-directory entry read first.
    pub pde_addr: PhysAddr,
    /// Physical address of the page-table entry read second, if the
    /// directory entry was present.
    pub pte_addr: Option<PhysAddr>,
    /// The translated frame base, if the mapping exists.
    pub frame_base: Option<PhysAddr>,
}

impl WalkResult {
    /// The cache lines touched by this walk, in access order.
    pub fn touched_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        std::iter::once(self.pde_addr.line()).chain(self.pte_addr.map(|a| a.line()))
    }
}

/// A 32-bit virtual address space backed by [`PhysMem`].
///
/// Pages are mapped on demand (or explicitly via [`AddressSpace::map`]);
/// frames are allocated sequentially. All virtual reads/writes go through
/// the real page tables, so the tables always agree with the translations
/// the walker produces. The write path remembers its last translation:
/// an image builder writes page after page word by word, so most writes
/// skip the two table reads.
///
/// # Examples
///
/// ```
/// use cdp_mem::AddressSpace;
/// use cdp_types::VirtAddr;
///
/// let mut space = AddressSpace::new();
/// space.write_u32(VirtAddr(0x1000_0000), 0x1234_5678);
/// assert_eq!(space.read_u32(VirtAddr(0x1000_0000)), 0x1234_5678);
/// assert!(space.translate(VirtAddr(0x1000_0000)).is_some());
/// assert!(space.translate(VirtAddr(0x7000_0000)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    phys: PhysMem,
    next_user_frame: u32,
    next_table_frame: u32,
    mapped_pages: u64,
    /// The last page [`AddressSpace::map`] resolved, with its frame base.
    /// `map` only adds mappings, so the entry stays valid until
    /// [`AddressSpace::unmap`] or [`AddressSpace::phys_mut`] (through
    /// which the tables could be rewritten) clears it.
    last_map: Option<(PageNum, PhysAddr)>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space with an empty page directory.
    pub fn new() -> Self {
        AddressSpace {
            phys: PhysMem::new(),
            next_user_frame: FIRST_USER_FRAME,
            next_table_frame: FIRST_TABLE_FRAME,
            mapped_pages: 0,
            last_map: None,
        }
    }

    /// Shared access to the physical backing store (what the bus "reads").
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Mutable access to the physical backing store.
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        self.last_map = None;
        &mut self.phys
    }

    /// Number of virtual pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    fn pde_addr(vpage: PageNum) -> PhysAddr {
        PhysAddr(PAGE_DIR_BASE + 4 * (vpage.0 >> 10))
    }

    fn pte_addr(table_frame: u32, vpage: PageNum) -> PhysAddr {
        PhysAddr((table_frame << 12) + 4 * (vpage.0 & 0x3ff))
    }

    /// Maps `vpage` to a freshly allocated frame if not already mapped, and
    /// returns the frame base address.
    ///
    /// # Panics
    ///
    /// Panics if the page-table or user frame pools are exhausted (the
    /// workloads in this workspace stay far below the limits).
    pub fn map(&mut self, vpage: PageNum) -> PhysAddr {
        if let Some((page, base)) = self.last_map {
            if page == vpage {
                return base;
            }
        }
        let pde_addr = Self::pde_addr(vpage);
        let mut pde = self.phys.read_u32(pde_addr);
        if pde & PTE_PRESENT == 0 {
            assert!(
                self.next_table_frame < FIRST_TABLE_FRAME + TABLE_FRAMES,
                "page-table frame pool exhausted"
            );
            let tf = self.next_table_frame;
            self.next_table_frame += 1;
            pde = (tf << 12) | PTE_PRESENT;
            self.phys.write_u32(pde_addr, pde);
        }
        let table_frame = pde >> 12;
        let pte_addr = Self::pte_addr(table_frame, vpage);
        let mut pte = self.phys.read_u32(pte_addr);
        if pte & PTE_PRESENT == 0 {
            let frame = self.next_user_frame;
            assert!(frame < 0x000f_ffff, "physical frame pool exhausted");
            self.next_user_frame += 1;
            self.mapped_pages += 1;
            pte = (frame << 12) | PTE_PRESENT;
            self.phys.write_u32(pte_addr, pte);
        }
        let base = PhysAddr((pte >> 12) << 12);
        self.last_map = Some((vpage, base));
        base
    }

    /// Translates a virtual address without side effects. Returns `None` if
    /// the page is unmapped.
    pub fn translate(&self, vaddr: VirtAddr) -> Option<PhysAddr> {
        let walk = self.walk(vaddr);
        walk.frame_base
            .map(|base| PhysAddr(base.0 + vaddr.page_offset()))
    }

    /// Performs a full hardware page walk, reporting the physical addresses
    /// of the page-directory and page-table entries it reads.
    pub fn walk(&self, vaddr: VirtAddr) -> WalkResult {
        let vpage = vaddr.page();
        let pde_addr = Self::pde_addr(vpage);
        let pde = self.phys.read_u32(pde_addr);
        if pde & PTE_PRESENT == 0 {
            return WalkResult {
                pde_addr,
                pte_addr: None,
                frame_base: None,
            };
        }
        let pte_addr = Self::pte_addr(pde >> 12, vpage);
        let pte = self.phys.read_u32(pte_addr);
        let frame_base = (pte & PTE_PRESENT != 0).then_some(PhysAddr((pte >> 12) << 12));
        WalkResult {
            pde_addr,
            pte_addr: Some(pte_addr),
            frame_base,
        }
    }

    /// Translates, mapping the page on demand.
    pub fn translate_or_map(&mut self, vaddr: VirtAddr) -> PhysAddr {
        let base = self.map(vaddr.page());
        PhysAddr(base.0 + vaddr.page_offset())
    }

    /// Writes a u32 at a virtual address, mapping pages on demand
    /// (byte-wise when straddling a virtual page boundary).
    pub fn write_u32(&mut self, vaddr: VirtAddr, value: u32) {
        if vaddr.page_offset() as usize + 4 <= crate::vmem::PAGE_SIZE_BYTES {
            let p = self.translate_or_map(vaddr);
            self.phys.write_u32(p, value);
        } else {
            self.write_bytes(vaddr, &value.to_le_bytes());
        }
    }

    /// Reads a u32 at a virtual address (0 if unmapped; byte-wise when
    /// straddling a virtual page boundary).
    pub fn read_u32(&self, vaddr: VirtAddr) -> u32 {
        if vaddr.page_offset() as usize + 4 <= crate::vmem::PAGE_SIZE_BYTES {
            match self.translate(vaddr) {
                Some(p) => self.phys.read_u32(p),
                None => 0,
            }
        } else {
            let mut b = [0u8; 4];
            for (i, byte) in b.iter_mut().enumerate() {
                if let Some(p) = self.translate(vaddr.offset(i as i64)) {
                    *byte = self.phys.read_u8(p);
                }
            }
            u32::from_le_bytes(b)
        }
    }

    /// Writes a byte slice starting at a virtual address, mapping pages on
    /// demand. The slice may span pages.
    pub fn write_bytes(&mut self, vaddr: VirtAddr, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            let va = vaddr.offset(i as i64);
            let p = self.translate_or_map(va);
            self.phys.write_u8(p, *b);
        }
    }

    /// Reads the cache line containing `vaddr` through the page tables
    /// (zeroes if unmapped).
    pub fn read_line(&self, vaddr: VirtAddr) -> [u8; LINE_SIZE] {
        match self.translate(vaddr.line()) {
            Some(p) => self.phys.read_line(p.line()),
            None => [0u8; LINE_SIZE],
        }
    }

    /// Serialization support: the allocator cursors
    /// `(next_user_frame, next_table_frame, mapped_pages)`.
    pub fn cursors(&self) -> (u32, u32, u64) {
        (
            self.next_user_frame,
            self.next_table_frame,
            self.mapped_pages,
        )
    }

    /// Serialization support: reconstructs an address space from a
    /// physical image plus the cursors of [`AddressSpace::cursors`]. The
    /// caller is responsible for the image containing consistent page
    /// tables (as produced by a prior space's `phys()`).
    pub fn from_parts(phys: PhysMem, cursors: (u32, u32, u64)) -> Self {
        AddressSpace {
            phys,
            next_user_frame: cursors.0,
            next_table_frame: cursors.1,
            mapped_pages: cursors.2,
            last_map: None,
        }
    }

    /// Removes the mapping for `vpage` by clearing the present bit of its
    /// page-table entry (the frame itself is not reclaimed — this models a
    /// page being taken away under the prefetcher, not an allocator).
    /// Returns whether a mapping was actually removed.
    pub fn unmap(&mut self, vpage: PageNum) -> bool {
        self.last_map = None;
        let pde = self.phys.read_u32(Self::pde_addr(vpage));
        if pde & PTE_PRESENT == 0 {
            return false;
        }
        let pte_addr = Self::pte_addr(pde >> 12, vpage);
        let pte = self.phys.read_u32(pte_addr);
        if pte & PTE_PRESENT == 0 {
            return false;
        }
        self.phys.write_u32(pte_addr, pte & !PTE_PRESENT);
        self.mapped_pages -= 1;
        true
    }

    /// Every currently mapped virtual page, in ascending page-number order
    /// (a page-table walk over all present directory entries).
    pub fn mapped_page_numbers(&self) -> Vec<PageNum> {
        let mut pages = Vec::with_capacity(self.mapped_pages as usize);
        for dir in 0..1024u32 {
            let pde = self.phys.read_u32(PhysAddr(PAGE_DIR_BASE + 4 * dir));
            if pde & PTE_PRESENT == 0 {
                continue;
            }
            for idx in 0..1024u32 {
                let vpage = PageNum((dir << 10) | idx);
                let pte = self.phys.read_u32(Self::pte_addr(pde >> 12, vpage));
                if pte & PTE_PRESENT != 0 {
                    pages.push(vpage);
                }
            }
        }
        pages
    }

    /// Ensures every page in `[start, start+len)` is mapped. Returns the
    /// number of pages newly mapped.
    pub fn map_range(&mut self, start: VirtAddr, len: usize) -> usize {
        let mut newly = 0;
        let first = start.page().0;
        let last = VirtAddr(start.0.wrapping_add(len.saturating_sub(1) as u32))
            .page()
            .0;
        for vp in first..=last {
            if self.translate(PageNum(vp).base()).is_none() {
                self.map(PageNum(vp));
                newly += 1;
            }
        }
        newly
    }
}

/// Returns true when `addr` falls inside the physical region reserved for
/// the page directory and page tables (used by tests and sanity checks).
pub fn is_page_table_phys(addr: PhysAddr) -> bool {
    let f = addr.frame();
    f == 1 || (FIRST_TABLE_FRAME..FIRST_USER_FRAME).contains(&f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::rng::Rng;
    use cdp_types::PAGE_SIZE;

    #[test]
    fn unmapped_translates_to_none() {
        let space = AddressSpace::new();
        assert_eq!(space.translate(VirtAddr(0x1234_5678)), None);
        let walk = space.walk(VirtAddr(0x1234_5678));
        assert!(walk.pte_addr.is_none());
        assert!(walk.frame_base.is_none());
    }

    #[test]
    fn map_then_translate() {
        let mut space = AddressSpace::new();
        let frame = space.map(PageNum(0x10000));
        let p = space.translate(VirtAddr(0x1000_0123)).unwrap();
        assert_eq!(p.0, frame.0 + 0x123);
        assert_eq!(space.mapped_pages(), 1);
        // Mapping again is idempotent.
        let frame2 = space.map(PageNum(0x10000));
        assert_eq!(frame, frame2);
        assert_eq!(space.mapped_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut space = AddressSpace::new();
        let f1 = space.map(PageNum(0x10000));
        let f2 = space.map(PageNum(0x10001));
        let f3 = space.map(PageNum(0x20000));
        assert_ne!(f1, f2);
        assert_ne!(f2, f3);
        assert_ne!(f1, f3);
    }

    #[test]
    fn walk_reads_two_dependent_entries() {
        let mut space = AddressSpace::new();
        space.map(PageNum(0x10000));
        let walk = space.walk(VirtAddr(0x1000_0000));
        assert!(walk.frame_base.is_some());
        let pte = walk.pte_addr.unwrap();
        // The PDE lives in the page directory frame; the PTE in a table frame.
        assert_eq!(walk.pde_addr.frame(), 1);
        assert!(is_page_table_phys(pte));
        assert!(is_page_table_phys(walk.pde_addr));
        assert_eq!(walk.touched_lines().count(), 2);
    }

    #[test]
    fn user_frames_are_outside_table_region() {
        let mut space = AddressSpace::new();
        for vp in 0..64u32 {
            let f = space.map(PageNum(0x40000 + vp));
            assert!(!is_page_table_phys(f), "user frame {f} in table region");
        }
    }

    #[test]
    fn virtual_rw_roundtrip() {
        let mut space = AddressSpace::new();
        space.write_u32(VirtAddr(0x2000_0040), 42);
        assert_eq!(space.read_u32(VirtAddr(0x2000_0040)), 42);
        assert_eq!(space.read_u32(VirtAddr(0x2000_0044)), 0);
        // Unmapped reads are zero.
        assert_eq!(space.read_u32(VirtAddr(0x5000_0000)), 0);
    }

    #[test]
    fn write_bytes_spans_pages() {
        let mut space = AddressSpace::new();
        let data: Vec<u8> = (0u8..200).collect();
        space.write_bytes(VirtAddr(0x1000_0f80), &data);
        for (i, b) in data.iter().enumerate() {
            let va = VirtAddr(0x1000_0f80 + i as u32);
            let p = space.translate(va).unwrap();
            assert_eq!(space.phys().read_u8(p), *b);
        }
        assert_eq!(space.mapped_pages(), 2);
    }

    #[test]
    fn read_line_matches_written_pointers() {
        let mut space = AddressSpace::new();
        space.write_u32(VirtAddr(0x1000_0100), 0x1000_0200);
        space.write_u32(VirtAddr(0x1000_0104), 0x1000_0300);
        let line = space.read_line(VirtAddr(0x1000_0110));
        assert_eq!(
            u32::from_le_bytes(line[0..4].try_into().unwrap()),
            0x1000_0200
        );
        assert_eq!(
            u32::from_le_bytes(line[4..8].try_into().unwrap()),
            0x1000_0300
        );
    }

    #[test]
    fn parts_roundtrip_preserves_translations() {
        let mut space = AddressSpace::new();
        space.write_u32(VirtAddr(0x1234_5678 & !3), 99);
        space.write_u32(VirtAddr(0x2000_0000), 7);
        let cursors = space.cursors();
        let rebuilt = AddressSpace::from_parts(space.phys().clone(), cursors);
        assert_eq!(rebuilt.read_u32(VirtAddr(0x1234_5678 & !3)), 99);
        assert_eq!(rebuilt.read_u32(VirtAddr(0x2000_0000)), 7);
        assert_eq!(
            rebuilt.translate(VirtAddr(0x2000_0000)),
            space.translate(VirtAddr(0x2000_0000))
        );
        assert_eq!(rebuilt.mapped_pages(), space.mapped_pages());
        // The rebuilt space can keep allocating without clobbering.
        let mut rebuilt = rebuilt;
        let f = rebuilt.map(cdp_types::PageNum(0x30000));
        assert!(space.translate(VirtAddr(0x3000_0000)).is_none());
        assert_eq!(rebuilt.translate(VirtAddr(0x3000_0000)), Some(f));
    }

    #[test]
    fn unmap_clears_translation_and_is_reported_by_the_walker() {
        let mut space = AddressSpace::new();
        space.write_u32(VirtAddr(0x1000_0000), 7);
        assert!(space.translate(VirtAddr(0x1000_0000)).is_some());
        assert!(space.unmap(PageNum(0x10000)));
        assert_eq!(space.translate(VirtAddr(0x1000_0000)), None);
        assert_eq!(space.mapped_pages(), 0);
        let walk = space.walk(VirtAddr(0x1000_0000));
        assert!(walk.pte_addr.is_some(), "directory entry survives");
        assert!(walk.frame_base.is_none());
        // Unmapping twice (or an unmapped page) is a no-op.
        assert!(!space.unmap(PageNum(0x10000)));
        assert!(!space.unmap(PageNum(0x70000)));
    }

    #[test]
    fn cached_write_translation_follows_unmap_and_table_edits() {
        let mut space = AddressSpace::new();
        space.write_u32(VirtAddr(0x1000_0000), 1);
        let first = space.translate(VirtAddr(0x1000_0000)).unwrap();
        // Unmapping the cached page: the next write maps a fresh frame.
        assert!(space.unmap(PageNum(0x10000)));
        space.write_u32(VirtAddr(0x1000_0004), 2);
        let second = space.translate(VirtAddr(0x1000_0000)).unwrap();
        assert_ne!(first, second);
        assert_eq!(space.read_u32(VirtAddr(0x1000_0004)), 2);
        assert_eq!(space.phys().read_u32(first), 1, "old frame keeps its bytes");
        // Repointing the page-table entry through `phys_mut`: writes
        // follow the table, not the remembered translation.
        let pte = space.walk(VirtAddr(0x1000_0000)).pte_addr.unwrap();
        let entry = space.phys().read_u32(pte);
        space.phys_mut().write_u32(pte, first.0 | (entry & 0xfff));
        space.write_u32(VirtAddr(0x1000_0008), 3);
        assert_eq!(space.phys().read_u32(PhysAddr(first.0 + 8)), 3);
        assert_eq!(space.phys().read_u32(PhysAddr(second.0 + 8)), 0);
    }

    #[test]
    fn mapped_page_enumeration_matches_the_count() {
        let mut space = AddressSpace::new();
        for vp in [0x10000u32, 0x10007, 0x30001] {
            space.map(PageNum(vp));
        }
        assert_eq!(
            space.mapped_page_numbers(),
            vec![PageNum(0x10000), PageNum(0x10007), PageNum(0x30001)]
        );
        space.unmap(PageNum(0x10007));
        assert_eq!(
            space.mapped_page_numbers().len(),
            space.mapped_pages() as usize
        );
    }

    #[test]
    fn map_range_counts_new_pages() {
        let mut space = AddressSpace::new();
        assert_eq!(space.map_range(VirtAddr(0x3000_0800), 2 * PAGE_SIZE), 3);
        assert_eq!(space.map_range(VirtAddr(0x3000_0800), 2 * PAGE_SIZE), 0);
    }

    #[test]
    fn prop_translate_preserves_offset() {
        let mut rng = Rng::seed_from_u64(0x3e40_0001);
        for _ in 0..256 {
            let vaddr = VirtAddr(rng.gen_range_u32(0..0x4000_0000));
            let mut space = AddressSpace::new();
            let p = space.translate_or_map(vaddr);
            assert_eq!(p.page_offset(), vaddr.page_offset());
        }
    }

    #[test]
    fn prop_walk_agrees_with_translate() {
        let mut rng = Rng::seed_from_u64(0x3e40_0002);
        for _ in 0..256 {
            let vaddr = VirtAddr(rng.gen_range_u32(0..0x4000_0000));
            let mut space = AddressSpace::new();
            space.translate_or_map(vaddr);
            let walk = space.walk(vaddr);
            let t = space.translate(vaddr).unwrap();
            assert_eq!(walk.frame_base.unwrap().0, t.0 - vaddr.page_offset());
        }
    }

    #[test]
    fn prop_rw_roundtrip_virtual() {
        let mut rng = Rng::seed_from_u64(0x3e40_0003);
        for _ in 0..256 {
            let vaddr = VirtAddr(rng.gen_range_u32(0..0x4000_0000) & !3);
            if vaddr.page_offset() as usize + 4 > PAGE_SIZE {
                continue;
            }
            let value = rng.next_u32();
            let mut space = AddressSpace::new();
            space.write_u32(vaddr, value);
            assert_eq!(space.read_u32(vaddr), value);
        }
    }
}
