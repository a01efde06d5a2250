//! Heap allocation into the simulated address space.
//!
//! "This paper proposes ... a data prefetching architecture that exploits
//! the memory allocation used by operating systems and runtime systems"
//! (abstract). The exploitable property is that heap allocations share
//! high-order address bits with each other and with the stack/globals of
//! the same region. The [`Heap`] bump allocator reproduces that: all
//! allocations fall inside one region (default base `0x1000_0000`), are
//! aligned (4-byte by default, as §3.3 discusses for IA-32 compilers), and
//! may carry random inter-object padding to model allocator metadata and
//! heap aging.

use cdp_mem::AddressSpace;
use cdp_types::rng::Rng;
use cdp_types::VirtAddr;

/// Default heap base: shares the `0x10` upper byte across a 256 MB region.
pub const DEFAULT_HEAP_BASE: u32 = 0x1000_0000;

/// A bump allocator over a region of the simulated address space.
///
/// # Examples
///
/// ```
/// use cdp_mem::AddressSpace;
/// use cdp_workloads::Heap;
///
/// let mut space = AddressSpace::new();
/// let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 20);
/// let a = heap.alloc(&mut space, 24);
/// let b = heap.alloc(&mut space, 24);
/// assert!(b.0 > a.0);
/// assert_eq!(a.0 % 4, 0, "allocations are 4-byte aligned");
/// ```
#[derive(Debug, Clone)]
pub struct Heap {
    base: u32,
    next: u32,
    end: u32,
    align: u32,
    /// Maximum random padding inserted between objects (0 = dense).
    max_pad: u32,
}

impl Heap {
    /// The default heap base address.
    pub const DEFAULT_BASE: u32 = DEFAULT_HEAP_BASE;

    /// Creates a heap covering `[base, base + capacity)`.
    ///
    /// # Panics
    ///
    /// Panics if the region wraps the address space.
    pub fn new(base: u32, capacity: u32) -> Self {
        assert!(
            base.checked_add(capacity).is_some(),
            "heap region wraps the 32-bit space"
        );
        Heap {
            base,
            next: base,
            end: base + capacity,
            align: 4,
            max_pad: 0,
        }
    }

    /// Sets the allocation alignment (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn with_align(mut self, align: u32) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.align = align;
        self
    }

    /// Enables random inter-object padding up to `max_pad` bytes (models
    /// allocator headers and heap fragmentation).
    pub fn with_padding(mut self, max_pad: u32) -> Self {
        self.max_pad = max_pad;
        self
    }

    /// The heap base.
    pub fn base(&self) -> VirtAddr {
        VirtAddr(self.base)
    }

    /// Bytes allocated so far (including padding).
    pub fn used(&self) -> u32 {
        self.next - self.base
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> u32 {
        self.end - self.next
    }

    /// Allocates `size` bytes, maps the backing pages, and returns the
    /// object base.
    ///
    /// # Panics
    ///
    /// Panics if the heap region is exhausted.
    pub fn alloc(&mut self, space: &mut AddressSpace, size: usize) -> VirtAddr {
        let aligned = (self.next + self.align - 1) & !(self.align - 1);
        let end = aligned
            .checked_add(size as u32)
            .expect("allocation wraps address space");
        assert!(end <= self.end, "heap exhausted: {size} bytes requested");
        self.next = end;
        let addr = VirtAddr(aligned);
        space.map_range(addr, size.max(1));
        addr
    }

    /// Rounds the next allocation up to `align` (a power of two) without
    /// mapping anything — used to page-align lazily synthesized arrays so
    /// they occupy a fresh, physically contiguous frame range.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_next(&mut self, align: u32) {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.next = ((self.next + align - 1) & !(align - 1)).min(self.end);
    }

    /// Allocates with random padding before the object (if configured).
    pub fn alloc_padded(
        &mut self,
        space: &mut AddressSpace,
        size: usize,
        rng: &mut Rng,
    ) -> VirtAddr {
        if self.max_pad > 0 {
            let pad = rng.gen_range_u32_incl(0..=self.max_pad);
            self.next = (self.next + pad).min(self.end);
        }
        self.alloc(space, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_monotone_and_aligned() {
        let mut space = AddressSpace::new();
        let mut heap = Heap::new(0x1000_0000, 1 << 20);
        let mut prev = 0u32;
        for size in [1usize, 3, 24, 64, 100] {
            let a = heap.alloc(&mut space, size);
            assert!(a.0 >= prev);
            assert_eq!(a.0 % 4, 0);
            prev = a.0 + size as u32;
        }
        assert!(heap.used() >= 192);
    }

    #[test]
    fn allocations_share_upper_byte() {
        let mut space = AddressSpace::new();
        let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 24);
        for _ in 0..100 {
            let a = heap.alloc(&mut space, 1000);
            assert_eq!(a.0 >> 24, 0x10, "upper byte shared: {a}");
        }
    }

    #[test]
    fn allocated_memory_is_mapped() {
        let mut space = AddressSpace::new();
        let mut heap = Heap::new(0x1000_0000, 1 << 20);
        let a = heap.alloc(&mut space, 8192);
        assert!(space.translate(a).is_some());
        assert!(space.translate(VirtAddr(a.0 + 8191)).is_some());
    }

    #[test]
    fn custom_alignment() {
        let mut space = AddressSpace::new();
        let mut heap = Heap::new(0x1000_0000, 1 << 20).with_align(64);
        heap.alloc(&mut space, 3);
        let b = heap.alloc(&mut space, 3);
        assert_eq!(b.0 % 64, 0);
    }

    #[test]
    fn padding_spreads_objects() {
        let mut space = AddressSpace::new();
        let mut rng = Rng::seed_from_u64(7);
        let mut dense = Heap::new(0x1000_0000, 1 << 20);
        let mut padded = Heap::new(0x2000_0000, 1 << 20).with_padding(64);
        for _ in 0..50 {
            dense.alloc_padded(&mut space, 16, &mut rng);
            padded.alloc_padded(&mut space, 16, &mut rng);
        }
        assert!(padded.used() > dense.used());
    }

    #[test]
    #[should_panic(expected = "heap exhausted")]
    fn exhaustion_panics() {
        let mut space = AddressSpace::new();
        let mut heap = Heap::new(0x1000_0000, 64);
        heap.alloc(&mut space, 65);
    }
}
