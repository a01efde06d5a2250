//! Sparse byte-level physical memory.
//!
//! The simulator keeps a full byte image of physical memory because the
//! content prefetcher's entire premise is scanning the *data* returned by
//! fills. Frames are allocated lazily; untouched memory reads as zero
//! (which the VAM heuristic correctly rejects in the all-zeros region
//! unless filter bits say otherwise).
//!
//! The frame table is direct-indexed: slot `n` holds frame `n`, boxed,
//! or `None` until the frame is first written. Every simulated fill scan
//! does one frame lookup per *line*, and the byte/word read paths one per
//! access, so the lookup is squarely on the hot path; here it is one
//! bounds check and one load. The table stays small because the frame
//! allocator in [`crate::vmem`] hands frames out densely from low
//! numbers (directory at frame 1, tables from 0x10, data from 0x400).
//! Any 32-bit physical address names a frame below [`FRAME_LIMIT`];
//! frame numbers that arrive from outside (snapshots, serialized
//! workloads) are checked against it before the table grows.

use cdp_types::{LineAddr, PhysAddr, LINE_SIZE, PAGE_SIZE};

/// Frame numbers a 32-bit physical address can name (`2^32 / PAGE_SIZE`).
pub const FRAME_LIMIT: u32 = 1 << 20;

/// SplitMix64 increment (2^64 / golden ratio), used by lazy synthesis.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A contiguous physical span whose content is synthesized on first
/// touch from a seed instead of being materialized at build time.
///
/// Streamed large/huge workload tiers register their flat data arrays
/// this way: the array occupies a contiguous frame range (virtual pages
/// are mapped in ascending order against sequentially allocated frames),
/// so one `(start, len, seed)` triple stands in for megabytes of frames.
/// The synthesized shape matches the eager array fill — one little-endian
/// u32 per 64-byte line at line offset 0, bit pattern of an `f32` uniform
/// in `[0, 1e6)`, remaining bytes zero — so VAM scans see the same value
/// distribution either way.
#[derive(Clone, Copy, Debug)]
struct LazyRegion {
    start: PhysAddr,
    len: u32,
    seed: u64,
}

impl LazyRegion {
    /// Offset of `addr` within the region, if covered.
    #[inline]
    fn offset_of(&self, addr: PhysAddr) -> Option<u32> {
        let off = addr.0.wrapping_sub(self.start.0);
        (off < self.len).then_some(off)
    }

    /// Whether any byte of the frame at `base` lies in the region: one of
    /// the two spans must contain the other's start.
    fn overlaps_frame(&self, base: PhysAddr) -> bool {
        self.offset_of(base).is_some() || self.start.0.wrapping_sub(base.0) < PAGE_SIZE as u32
    }

    /// The synthesized byte at region offset `off`.
    fn byte_at(&self, off: u32) -> u8 {
        let word_base = off & !(LINE_SIZE as u32 - 1);
        let lane = (off - word_base) as usize;
        if lane >= 4 || word_base + 4 > self.len {
            return 0;
        }
        self.word(word_base / LINE_SIZE as u32).to_le_bytes()[lane]
    }

    /// The synthesized u32 at line index `i` (SplitMix64 of the region
    /// seed and `i`, shaped like `(f32_uniform * 1e6).to_bits()`).
    fn word(&self, i: u32) -> u32 {
        let mut z = self.seed.wrapping_add((i as u64).wrapping_mul(GOLDEN));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let f = (z >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        (f * 1e6).to_bits()
    }
}

/// A sparse physical memory image.
///
/// # Examples
///
/// ```
/// use cdp_mem::PhysMem;
/// use cdp_types::PhysAddr;
///
/// let mut mem = PhysMem::new();
/// mem.write_u32(PhysAddr(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u32(PhysAddr(0x1000)), 0xdead_beef);
/// // Untouched memory reads as zero.
/// assert_eq!(mem.read_u32(PhysAddr(0x9_0000)), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PhysMem {
    /// Frame `n` at index `n`; `None` until first written.
    frames: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// Resident frame count.
    len: usize,
    /// Seed-synthesized spans consulted when a frame is absent (empty for
    /// every fully-materialized image, keeping the miss path one check).
    lazy: Vec<LazyRegion>,
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> Self {
        PhysMem::default()
    }

    /// Registers a lazily-synthesized span: reads of non-resident frames
    /// inside `[start, start + len)` return seeded content instead of
    /// zeros, and a frame materialized inside the span is pre-filled with
    /// that content. `start` must be line-aligned (the builder allocates
    /// lazy arrays line-aligned).
    pub fn add_lazy_region(&mut self, start: PhysAddr, len: u32, seed: u64) {
        debug_assert_eq!(start.0 % LINE_SIZE as u32, 0, "lazy region alignment");
        self.lazy.push(LazyRegion { start, len, seed });
    }

    /// Number of registered lazy regions.
    pub fn lazy_regions(&self) -> usize {
        self.lazy.len()
    }

    /// Synthesized content for an absent frame, or 0 outside any region.
    #[inline]
    fn lazy_u8(&self, addr: PhysAddr) -> u8 {
        if self.lazy.is_empty() {
            return 0;
        }
        self.lazy
            .iter()
            .find_map(|r| r.offset_of(addr).map(|off| r.byte_at(off)))
            .unwrap_or(0)
    }

    /// Line-granular synthesis for the fill-scan path (`line_base` is the
    /// line's base address; the whole line lies in one region or none —
    /// regions are line-aligned).
    #[cold]
    fn lazy_line(&self, line_base: PhysAddr, out: &mut [u8; LINE_SIZE]) {
        out.fill(0);
        for r in &self.lazy {
            if let Some(off) = r.offset_of(line_base) {
                debug_assert_eq!(off % LINE_SIZE as u32, 0);
                if off + 4 <= r.len {
                    out[..4].copy_from_slice(&r.word(off / LINE_SIZE as u32).to_le_bytes());
                }
                return;
            }
        }
    }

    /// Number of frames that have been materialized.
    pub fn resident_frames(&self) -> usize {
        self.len
    }

    #[inline]
    fn frame(&self, frame: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.frames.get(frame as usize)?.as_deref()
    }

    /// Frame `frame`, materialized if absent (`frame` < [`FRAME_LIMIT`]).
    fn frame_mut(&mut self, frame: u32) -> &mut [u8; PAGE_SIZE] {
        let i = frame as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, || None);
        }
        if self.frames[i].is_none() {
            let mut data = Box::new([0u8; PAGE_SIZE]);
            let base = PhysAddr(frame << 12);
            if self.lazy.iter().any(|r| r.overlaps_frame(base)) {
                // Materializing a page inside a lazy region must capture
                // its synthesized content, not zeros.
                for (off, b) in data.iter_mut().enumerate() {
                    *b = self.lazy_u8(PhysAddr(base.0 + off as u32));
                }
            }
            self.frames[i] = Some(data);
            self.len += 1;
        }
        self.frames[i].as_mut().expect("materialized above")
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        match self.frame(addr.frame()) {
            Some(f) => f[addr.page_offset() as usize],
            None => self.lazy_u8(addr),
        }
    }

    /// Writes one byte, materializing the frame if needed.
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        let off = addr.page_offset() as usize;
        self.frame_mut(addr.frame())[off] = value;
    }

    /// Reads a little-endian u32. Reads that straddle a page boundary
    /// fall back to byte-wise access (sub-4-byte-aligned structures are
    /// legal on IA-32).
    pub fn read_u32(&self, addr: PhysAddr) -> u32 {
        let off = addr.page_offset() as usize;
        if off + 4 <= PAGE_SIZE {
            match self.frame(addr.frame()) {
                Some(f) => u32::from_le_bytes([f[off], f[off + 1], f[off + 2], f[off + 3]]),
                None if self.lazy.is_empty() => 0,
                None => u32::from_le_bytes([
                    self.lazy_u8(addr),
                    self.lazy_u8(PhysAddr(addr.0.wrapping_add(1))),
                    self.lazy_u8(PhysAddr(addr.0.wrapping_add(2))),
                    self.lazy_u8(PhysAddr(addr.0.wrapping_add(3))),
                ]),
            }
        } else {
            let b = self.read_bytes(addr, 4);
            u32::from_le_bytes([b[0], b[1], b[2], b[3]])
        }
    }

    /// Writes a little-endian u32 (byte-wise when straddling a page
    /// boundary).
    pub fn write_u32(&mut self, addr: PhysAddr, value: u32) {
        let off = addr.page_offset() as usize;
        if off + 4 <= PAGE_SIZE {
            let frame = self.frame_mut(addr.frame());
            frame[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_bytes(addr, &value.to_le_bytes());
        }
    }

    /// Returns the 64 bytes of the cache line at `line` (a copy, matching
    /// the paper's "a copy of the cache line is passed to the content
    /// prefetcher").
    pub fn read_line(&self, line: LineAddr) -> [u8; LINE_SIZE] {
        let mut out = [0u8; LINE_SIZE];
        self.read_line_into(line, &mut out);
        out
    }

    /// Copies the cache line at `line` into `out` — one frame lookup per
    /// line, no per-byte hashing, no allocation. This is the fill-scan
    /// entry point.
    pub fn read_line_into(&self, line: LineAddr, out: &mut [u8; LINE_SIZE]) {
        let addr = line.addr();
        let off = addr.page_offset() as usize;
        debug_assert!(off + LINE_SIZE <= PAGE_SIZE, "line straddles page");
        match self.frame(addr.frame()) {
            Some(f) => out.copy_from_slice(&f[off..off + LINE_SIZE]),
            None if self.lazy.is_empty() => out.fill(0),
            None => self.lazy_line(addr, out),
        }
    }

    /// Writes a full cache line.
    pub fn write_line(&mut self, line: LineAddr, data: &[u8; LINE_SIZE]) {
        let addr = line.addr();
        let off = addr.page_offset() as usize;
        debug_assert!(off + LINE_SIZE <= PAGE_SIZE, "line straddles page");
        self.frame_mut(addr.frame())[off..off + LINE_SIZE].copy_from_slice(data);
    }

    /// Copies `data` to consecutive bytes starting at `addr`, which may span
    /// pages.
    pub fn write_bytes(&mut self, addr: PhysAddr, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.write_u8(PhysAddr(addr.0.wrapping_add(i as u32)), *b);
        }
    }

    /// Reads `len` consecutive bytes starting at `addr` (may span pages).
    /// Allocates — tests and tools only; the simulation path uses
    /// [`PhysMem::read_line_into`].
    pub fn read_bytes(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(PhysAddr(addr.0.wrapping_add(i as u32))))
            .collect()
    }

    /// Iterates over resident frames as `(frame_number, bytes)`, in
    /// ascending frame order (serialization support).
    pub fn frames(&self) -> impl Iterator<Item = (u32, &[u8; PAGE_SIZE])> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(n, f)| Some((n as u32, &**f.as_ref()?)))
    }

    /// Installs a whole frame (serialization support), replacing any
    /// resident content.
    ///
    /// # Errors
    ///
    /// [`cdp_types::SnapshotError::Corrupt`] when `frame` is at or above
    /// [`FRAME_LIMIT`]; the table is left untouched.
    pub fn install_frame(
        &mut self,
        frame: u32,
        data: &[u8; PAGE_SIZE],
    ) -> Result<(), cdp_types::SnapshotError> {
        if frame >= FRAME_LIMIT {
            return Err(cdp_types::SnapshotError::Corrupt {
                context: "phys frame number",
            });
        }
        self.frame_mut(frame).copy_from_slice(data);
        Ok(())
    }

    /// Order-independent digest of the resident frame contents. Two images
    /// with the same bytes in the same frames produce the same value
    /// regardless of insertion order; used to validate that a
    /// deterministically rebuilt memory image matches the one a snapshot
    /// was taken against.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = cdp_snap::WordHasher::new();
        h.write_u64(self.len as u64);
        for (number, data) in self.frames() {
            h.write_u32(number);
            h.write(&data[..]);
        }
        // Lazy regions are part of the image identity: the same frames
        // with different synthesized spans are different memories.
        h.write_u64(self.lazy.len() as u64);
        for r in &self.lazy {
            h.write_u32(r.start.0);
            h.write_u32(r.len);
            h.write_u64(r.seed);
        }
        h.finish()
    }

    /// Serializes every resident frame, sorted by frame number.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.seq_len(self.len);
        for (number, data) in self.frames() {
            enc.u32(number);
            enc.bytes(&data[..]);
        }
    }

    /// Restores frames written by [`PhysMem::save_state`] into `self`
    /// (existing frames with the same number are overwritten; the table
    /// need not be empty).
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation, a frame
    /// number at or above [`FRAME_LIMIT`], or a frame payload that is not
    /// exactly [`PAGE_SIZE`] bytes.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        let n = dec.seq_len(4 + PAGE_SIZE, "phys frame count")?;
        for _ in 0..n {
            let number = dec.u32("phys frame number")?;
            let bytes = dec.bytes("phys frame data")?;
            let page: &[u8; PAGE_SIZE] =
                bytes
                    .try_into()
                    .map_err(|_| cdp_types::SnapshotError::Corrupt {
                        context: "phys frame size",
                    })?;
            self.install_frame(number, page)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::rng::Rng;

    #[test]
    fn zero_fill_semantics() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_u8(PhysAddr(0)), 0);
        assert_eq!(mem.read_u32(PhysAddr(0x123_4560)), 0);
        assert_eq!(mem.read_line(LineAddr(0x40)), [0u8; LINE_SIZE]);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut mem = PhysMem::new();
        mem.write_u32(PhysAddr(0x1000), 0x0102_0304);
        assert_eq!(mem.read_u8(PhysAddr(0x1000)), 0x04, "little endian");
        assert_eq!(mem.read_u8(PhysAddr(0x1003)), 0x01);
        assert_eq!(mem.read_u32(PhysAddr(0x1000)), 0x0102_0304);
        assert_eq!(mem.resident_frames(), 1);
    }

    #[test]
    fn line_roundtrip() {
        let mut mem = PhysMem::new();
        let mut data = [0u8; LINE_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        mem.write_line(LineAddr(0x2_0040), &data);
        assert_eq!(mem.read_line(LineAddr(0x2_0040)), data);
        // Adjacent lines untouched.
        assert_eq!(mem.read_line(LineAddr(0x2_0000)), [0u8; LINE_SIZE]);
        assert_eq!(mem.read_line(LineAddr(0x2_0080)), [0u8; LINE_SIZE]);
    }

    #[test]
    fn read_line_into_matches_read_line() {
        let mut mem = PhysMem::new();
        let mut data = [0u8; LINE_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37);
        }
        mem.write_line(LineAddr(0x5_00c0), &data);
        let mut out = [0xffu8; LINE_SIZE];
        mem.read_line_into(LineAddr(0x5_00c0), &mut out);
        assert_eq!(out, data);
        // Absent line zero-fills the caller buffer, even if it was dirty.
        mem.read_line_into(LineAddr(0x7_0000), &mut out);
        assert_eq!(out, [0u8; LINE_SIZE]);
    }

    #[test]
    fn cross_page_byte_copy() {
        let mut mem = PhysMem::new();
        let data: Vec<u8> = (0..100).collect();
        // Straddles the 0x1000 page boundary.
        mem.write_bytes(PhysAddr(0xfd0), &data);
        assert_eq!(mem.read_bytes(PhysAddr(0xfd0), 100), data);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn u32_straddle_is_bytewise_correct() {
        let mut mem = PhysMem::new();
        mem.write_u32(PhysAddr(0xffe), 0xaabb_ccdd);
        assert_eq!(mem.read_u32(PhysAddr(0xffe)), 0xaabb_ccdd);
        assert_eq!(mem.read_u8(PhysAddr(0xffe)), 0xdd, "first page");
        assert_eq!(mem.read_u8(PhysAddr(0x1001)), 0xaa, "second page");
    }

    #[test]
    fn many_frames_survive_table_growth() {
        let mut mem = PhysMem::new();
        // Enough frames to force several table reallocations.
        for i in 0..500u32 {
            mem.write_u8(PhysAddr(i * PAGE_SIZE as u32), i as u8);
        }
        assert_eq!(mem.resident_frames(), 500);
        for i in 0..500u32 {
            assert_eq!(mem.read_u8(PhysAddr(i * PAGE_SIZE as u32)), i as u8);
        }
        // frames() is sorted.
        let numbers: Vec<u32> = mem.frames().map(|(n, _)| n).collect();
        let mut sorted = numbers.clone();
        sorted.sort_unstable();
        assert_eq!(numbers, sorted);
        assert_eq!(numbers.len(), 500);
    }

    #[test]
    fn install_frame_overwrites() {
        let mut mem = PhysMem::new();
        mem.write_u8(PhysAddr(0x3000), 0xaa);
        let mut page = [0u8; PAGE_SIZE];
        page[7] = 0xbb;
        mem.install_frame(3, &page).unwrap();
        assert_eq!(mem.read_u8(PhysAddr(0x3000)), 0, "old byte replaced");
        assert_eq!(mem.read_u8(PhysAddr(0x3007)), 0xbb);
        assert_eq!(mem.resident_frames(), 1);
    }

    #[test]
    fn install_frame_refuses_frames_no_address_reaches() {
        let mut mem = PhysMem::new();
        let page = [1u8; PAGE_SIZE];
        // The highest frame a 32-bit address names is accepted...
        mem.install_frame(FRAME_LIMIT - 1, &page).unwrap();
        assert_eq!(mem.read_u8(PhysAddr(u32::MAX)), 1);
        // ...and nothing beyond it, without growing the table.
        for frame in [FRAME_LIMIT, u32::MAX] {
            assert!(mem.install_frame(frame, &page).is_err(), "{frame:#x}");
        }
        assert_eq!(mem.resident_frames(), 1);
        assert_eq!(mem.frames.len(), FRAME_LIMIT as usize);
    }

    #[test]
    fn prop_u32_roundtrip() {
        let mut rng = Rng::seed_from_u64(0x9415_0001);
        for _ in 0..256 {
            let addr = PhysAddr(rng.gen_range_u32(0..0x10_0000) & !3);
            let value = rng.next_u32();
            let mut mem = PhysMem::new();
            mem.write_u32(addr, value);
            assert_eq!(mem.read_u32(addr), value);
        }
    }

    #[test]
    fn prop_disjoint_writes_do_not_interfere() {
        let mut rng = Rng::seed_from_u64(0x9415_0002);
        for _ in 0..256 {
            let a = PhysAddr(rng.gen_range_u32(0..0x1_0000) & !3);
            let b = PhysAddr(rng.gen_range_u32(0..0x1_0000) & !3);
            if a == b {
                continue;
            }
            let (va, vb) = (rng.next_u32(), rng.next_u32());
            let mut mem = PhysMem::new();
            mem.write_u32(a, va);
            mem.write_u32(b, vb);
            assert_eq!(mem.read_u32(b), vb);
            if a.0.abs_diff(b.0) >= 4 {
                assert_eq!(mem.read_u32(a), va);
            }
        }
    }

    #[test]
    fn prop_line_read_equals_byte_reads() {
        let mut rng = Rng::seed_from_u64(0x9415_0003);
        for _ in 0..64 {
            let line = LineAddr(rng.gen_range_u32(0..0x1000) * LINE_SIZE as u32);
            let mut mem = PhysMem::new();
            let mut data = [0u8; LINE_SIZE];
            let mut x = rng.next_u64() | 1;
            for byte in data.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *byte = (x >> 56) as u8;
            }
            mem.write_line(line, &data);
            for (i, &expected) in data.iter().enumerate() {
                assert_eq!(mem.read_u8(PhysAddr(line.0 + i as u32)), expected);
            }
        }
    }

    #[test]
    fn lazy_region_synthesis_is_consistent_across_read_paths() {
        let mut mem = PhysMem::new();
        mem.add_lazy_region(PhysAddr(0x40_0000), 4096 * 3, 0x5eed);
        assert_eq!(mem.lazy_regions(), 1);
        assert_eq!(mem.resident_frames(), 0, "no frames materialized");

        let line = LineAddr(0x40_0080);
        let full = mem.read_line(line);
        let word = u32::from_le_bytes([full[0], full[1], full[2], full[3]]);
        assert_ne!(word, 0, "line word is seeded");
        assert!(full[4..].iter().all(|&b| b == 0), "rest of line is zero");
        assert_eq!(mem.read_u32(PhysAddr(0x40_0080)), word);
        assert_eq!(mem.read_u8(PhysAddr(0x40_0080)), word.to_le_bytes()[0]);
        // The synthesized value looks like the eager array fill:
        // an f32 in [0, 1e6).
        let f = f32::from_bits(word);
        assert!((0.0..1e6).contains(&f), "{f}");
        // Outside the region, zero-fill semantics are untouched.
        assert_eq!(mem.read_u32(PhysAddr(0x40_0000 + 4096 * 3)), 0);
        assert_eq!(mem.read_u8(PhysAddr(0x3f_ffff)), 0);
    }

    #[test]
    fn lazy_region_materialization_preserves_content() {
        let mut mem = PhysMem::new();
        mem.add_lazy_region(PhysAddr(0x10_0000), 4096 * 2, 99);
        let before = mem.read_line(LineAddr(0x10_0040));
        // A write elsewhere in the same page materializes the frame; the
        // synthesized content must be captured, not zeroed.
        mem.write_u8(PhysAddr(0x10_0fff), 0xaa);
        assert_eq!(mem.resident_frames(), 1);
        assert_eq!(mem.read_line(LineAddr(0x10_0040)), before);
        assert_eq!(mem.read_u8(PhysAddr(0x10_0fff)), 0xaa);
    }

    #[test]
    fn only_frames_overlapping_a_lazy_region_are_synthesized() {
        let mut mem = PhysMem::new();
        // A region that starts and ends mid-frame, over frames 0x100-0x101.
        mem.add_lazy_region(PhysAddr(0x10_0840), 4096 + 0x100, 7);
        let lazy = mem.clone();
        // Materialize those frames and one on each side. The last byte of
        // a line is never synthesized, so writing 0 there keeps content.
        for frame in 0xffu32..=0x102 {
            mem.write_u8(PhysAddr((frame << 12) | 0xfff), 0);
        }
        assert_eq!(mem.resident_frames(), 4);
        for addr in (0xf_f000u32..0x10_3000).step_by(4) {
            let addr = PhysAddr(addr);
            assert_eq!(mem.read_u32(addr), lazy.read_u32(addr), "{addr}");
        }
        assert_ne!(mem.read_u32(PhysAddr(0x10_0840)), 0, "region start");
        assert_ne!(mem.read_u32(PhysAddr(0x10_1900)), 0, "region tail");
    }

    #[test]
    fn lazy_regions_change_the_fingerprint() {
        let base = PhysMem::new().state_fingerprint();
        let mut a = PhysMem::new();
        a.add_lazy_region(PhysAddr(0x1000), 4096, 1);
        let mut b = PhysMem::new();
        b.add_lazy_region(PhysAddr(0x1000), 4096, 2);
        assert_ne!(a.state_fingerprint(), base);
        assert_ne!(a.state_fingerprint(), b.state_fingerprint());
    }

    /// Reference-check the frame table against a plain map over a mixed
    /// write workload.
    #[test]
    fn prop_table_matches_reference_map() {
        use std::collections::HashMap;
        let mut rng = Rng::seed_from_u64(0x9415_0004);
        let mut mem = PhysMem::new();
        let mut reference: HashMap<u32, u8> = HashMap::new();
        for _ in 0..4000 {
            let addr = PhysAddr(rng.gen_range_u32(0..0x40_0000));
            if rng.gen_range_u8(0..2) == 0 {
                let v = rng.next_u32() as u8;
                mem.write_u8(addr, v);
                reference.insert(addr.0, v);
            } else {
                let expected = reference.get(&addr.0).copied().unwrap_or(0);
                assert_eq!(mem.read_u8(addr), expected);
            }
        }
    }
}
