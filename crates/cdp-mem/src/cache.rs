//! Generic set-associative cache with true-LRU replacement.
//!
//! The cache is parameterized over a per-line metadata type `M` so the
//! unified L2 can store the content prefetcher's request-depth bits
//! ("a very small amount of space is allocated ... in the cache line to
//! maintain the depth of a reference", §3.4.2) while the L1 carries no
//! metadata. Lookups are by *line-aligned address* as a raw `u32`; the
//! paper's L1 is virtually indexed and the L2 physically indexed, so the
//! hierarchy layer decides which address space each cache sees.
//!
//! Storage is three parallel set-major arrays — line tags, LRU stamps and
//! metadata — with way `w` of set `s` at index `s * associativity + w` and
//! the occupied ways of a set packed at the front of its range
//! (`0..len[s]`). A probe compares tags only (the 8-way L2's set is 32
//! bytes of `u32`s), and a victim search reads only stamps and eviction
//! classes. The set index is a remainder computed by two multiplications
//! from a constant derived once from the set count ([`SetIndex`]), exact
//! for every 32-bit line number and every set count, so no geometry pays
//! for a division. Every simulated access — L1, L2, and both TLBs — lands
//! here.

use std::fmt;

/// Eviction preference of a line's metadata.
///
/// Victim selection evicts the highest [`EvictClass::evict_class`] in the
/// set first (LRU within a class). The blanket default (class 0) gives
/// plain LRU; the L2 uses it to make never-demanded prefetched lines
/// preferred victims, bounding the pollution a speculative prefetcher can
/// inflict on the demand working set.
pub trait EvictClass {
    /// Higher values are evicted first; ties fall back to LRU.
    fn evict_class(&self) -> u8 {
        0
    }
}

impl EvictClass for () {}
impl EvictClass for u8 {}
impl EvictClass for u32 {}
impl EvictClass for cdp_types::PhysAddr {}

/// A line pushed out by a fill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictedLine<M> {
    /// The evicted line-aligned address.
    pub line: u32,
    /// Its metadata at eviction time.
    pub meta: M,
}

/// Outcome of [`Cache::access`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was resident.
    Hit,
    /// The line was absent.
    Miss,
}

/// `n % d` for every 32-bit `n` without a division (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019): with
/// `m = ⌈2^64 / d⌉`, the remainder is the high half of
/// `(m · n mod 2^64) · d`. Exact whenever `n` and `d` fit in 32 bits.
#[derive(Clone, Copy, Debug)]
struct SetIndex {
    m: u64,
    d: u64,
}

impl SetIndex {
    fn new(num_sets: usize) -> Self {
        let d = u32::try_from(num_sets).expect("set count must fit in 32 bits");
        SetIndex {
            // ⌈2^64 / d⌉; wraps to 0 for d = 1, where every remainder is 0.
            m: (u64::MAX / u64::from(d)).wrapping_add(1),
            d: u64::from(d),
        }
    }

    #[inline]
    fn of(self, n: u32) -> usize {
        let low = self.m.wrapping_mul(u64::from(n));
        ((u128::from(low) * u128::from(self.d)) >> 64) as usize
    }
}

/// A set-associative, true-LRU cache.
///
/// # Examples
///
/// ```
/// use cdp_mem::Cache;
///
/// // 4 sets x 2 ways of 64-byte lines, no metadata.
/// let mut cache: Cache<()> = Cache::new(4, 2, 64);
/// assert!(!cache.probe(0x1000));
/// cache.fill(0x1000, ());
/// assert!(cache.probe(0x1000));
/// ```
#[derive(Clone)]
pub struct Cache<M> {
    /// Set-major line tags: `tags[set * associativity + way]`. The occupied
    /// ways of a set are packed at `0..lens[set]` in push/swap-remove order
    /// (a per-set `Vec`'s, which `tests/cache_reference.rs` models): the
    /// Random policy's candidate indexing, [`Cache::iter`] order and
    /// [`Cache::save_state`] bytes depend on it. Tags past `lens[set]` are
    /// stale and never compared.
    tags: Vec<u32>,
    /// LRU (FIFO: insertion) stamps, parallel to `tags`.
    stamps: Vec<u64>,
    /// Per-line metadata, parallel to `tags`; `None` exactly past
    /// `lens[set]`.
    metas: Vec<Option<M>>,
    /// Occupied way count per set.
    lens: Vec<u32>,
    index: SetIndex,
    num_sets: usize,
    associativity: usize,
    line_size: usize,
    line_shift: u32,
    policy: cdp_types::ReplacementPolicy,
    rng: u64,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl<M: fmt::Debug> fmt::Debug for Cache<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("sets", &self.num_sets)
            .field("associativity", &self.associativity)
            .field("line_size", &self.line_size)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// Eviction class of an occupied metadata slot.
#[inline]
fn class_of<M: EvictClass>(meta: &Option<M>) -> u8 {
    meta.as_ref().map_or(0, EvictClass::evict_class)
}

impl<M: EvictClass> Cache<M> {
    /// Creates a cache with `num_sets` sets of `associativity` ways of
    /// `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero or above `u32::MAX`, or `line_size` is
    /// not a power of two.
    pub fn new(num_sets: usize, associativity: usize, line_size: usize) -> Self {
        assert!(num_sets > 0, "cache must have at least one set");
        assert!(associativity > 0, "cache must have at least one way");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        let slots = num_sets * associativity;
        let mut metas = Vec::new();
        metas.resize_with(slots, || None);
        Cache {
            tags: vec![0; slots],
            stamps: vec![0; slots],
            metas,
            lens: vec![0; num_sets],
            index: SetIndex::new(num_sets),
            num_sets,
            associativity,
            line_size,
            line_shift: line_size.trailing_zeros(),
            policy: cdp_types::ReplacementPolicy::Lru,
            rng: 0x9e37_79b9_7f4a_7c15,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Sets the replacement policy (the eviction-class preference of
    /// [`EvictClass`] applies first under every policy).
    pub fn with_policy(mut self, policy: cdp_types::ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active replacement policy.
    pub fn policy(&self) -> cdp_types::ReplacementPolicy {
        self.policy
    }

    /// Creates a cache from a [`cdp_types::CacheConfig`].
    pub fn from_config(cfg: &cdp_types::CacheConfig) -> Self {
        Cache::new(cfg.num_sets(), cfg.associativity, cfg.line_size).with_policy(cfg.replacement)
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.num_sets * self.associativity
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// (hits, misses) counted by [`Cache::access`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resets hit/miss counters (used at the warm-up boundary, §2.2).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    #[inline]
    fn set_index(&self, line: u32) -> usize {
        self.index.of(line >> self.line_shift)
    }

    #[inline]
    fn align(&self, addr: u32) -> u32 {
        addr & !(self.line_size as u32 - 1)
    }

    /// Index of `line` within `set`'s tags, if resident.
    #[inline]
    fn find(&self, set: usize, line: u32) -> Option<usize> {
        let base = set * self.associativity;
        self.tags[base..base + self.lens[set] as usize]
            .iter()
            .position(|&t| t == line)
            .map(|w| base + w)
    }

    /// Whether the line containing `addr` is resident. Does **not** update
    /// LRU state or statistics.
    pub fn probe(&self, addr: u32) -> bool {
        let line = self.align(addr);
        self.find(self.set_index(line), line).is_some()
    }

    /// Looks up the line containing `addr`, updating LRU and hit/miss
    /// statistics. On a hit, returns mutable access to the line metadata.
    pub fn access(&mut self, addr: u32) -> Option<&mut M> {
        let line = self.align(addr);
        let set = self.set_index(line);
        self.clock += 1;
        match self.find(set, line) {
            Some(slot) => {
                self.hits += 1;
                if !matches!(self.policy, cdp_types::ReplacementPolicy::Fifo) {
                    self.stamps[slot] = self.clock;
                }
                self.metas[slot].as_mut()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Reads the metadata of a resident line without counting a hit or
    /// touching LRU (used by the reinforcement rescan logic, which inspects
    /// stored depths out of band).
    pub fn peek(&self, addr: u32) -> Option<&M> {
        let line = self.align(addr);
        let slot = self.find(self.set_index(line), line)?;
        self.metas[slot].as_ref()
    }

    /// Mutable [`Cache::peek`].
    pub fn peek_mut(&mut self, addr: u32) -> Option<&mut M> {
        let line = self.align(addr);
        let slot = self.find(self.set_index(line), line)?;
        self.metas[slot].as_mut()
    }

    /// Inserts the line containing `addr`, evicting the LRU way if the set
    /// is full. If the line is already resident its metadata is replaced
    /// in place (no eviction).
    pub fn fill(&mut self, addr: u32, meta: M) -> Option<EvictedLine<M>> {
        let line = self.align(addr);
        let set = self.set_index(line);
        self.clock += 1;
        if let Some(slot) = self.find(set, line) {
            self.metas[slot] = Some(meta);
            self.stamps[slot] = self.clock;
            return None;
        }
        let base = set * self.associativity;
        let evicted = if self.lens[set] as usize >= self.associativity {
            let way = match self.policy {
                // LRU and FIFO both evict the minimum stamp — they differ
                // in whether access() refreshed it.
                cdp_types::ReplacementPolicy::Lru | cdp_types::ReplacementPolicy::Fifo => {
                    self.oldest_of_worst_class(base)
                }
                cdp_types::ReplacementPolicy::Random => self.random_of_worst_class(base),
            };
            Some(self.swap_remove(set, way))
        } else {
            None
        };
        // Emulated push: append at the packed end of the set's range.
        let slot = base + self.lens[set] as usize;
        debug_assert!(self.metas[slot].is_none());
        self.tags[slot] = line;
        self.stamps[slot] = self.clock;
        self.metas[slot] = Some(meta);
        self.lens[set] += 1;
        evicted
    }

    /// Way of the full set at `base` to evict under LRU/FIFO: the highest
    /// eviction class, the oldest stamp within it, and the first such way
    /// on a tie. One pass over a `(Reverse(class), stamp)` key packed into
    /// a `u128`, selecting with a strict `<` so a tie keeps the first way,
    /// as `Iterator::min_by_key` (the reference model's rule) does.
    #[inline]
    fn oldest_of_worst_class(&self, base: usize) -> usize {
        let end = base + self.associativity;
        let key = |slot: usize| {
            (u128::from(u8::MAX - class_of(&self.metas[slot])) << 64)
                | u128::from(self.stamps[slot])
        };
        let (mut way, mut best) = (0, key(base));
        for slot in base + 1..end {
            let k = key(slot);
            if k < best {
                way = slot - base;
                best = k;
            }
        }
        way
    }

    /// Way of the full set at `base` to evict under Random: a deterministic
    /// xorshift step, then the k-th worst-class way in slot order —
    /// identical to indexing a materialized candidate list.
    fn random_of_worst_class(&mut self, base: usize) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let metas = &self.metas[base..base + self.associativity];
        let worst = metas.iter().map(class_of).max().expect("set is non-empty");
        let count = metas.iter().filter(|m| class_of(m) == worst).count();
        let pick = (self.rng as usize) % count;
        metas
            .iter()
            .enumerate()
            .filter(|(_, m)| class_of(m) == worst)
            .nth(pick)
            .map(|(w, _)| w)
            .expect("candidate index in range")
    }

    /// Removes way `way` of `set`, moving the last occupied way into the
    /// hole — the reordering `Vec::swap_remove` performs on a per-set
    /// `Vec`.
    fn swap_remove(&mut self, set: usize, way: usize) -> EvictedLine<M> {
        let base = set * self.associativity;
        let last = base + self.lens[set] as usize - 1;
        debug_assert!(base + way <= last);
        self.tags.swap(base + way, last);
        self.stamps.swap(base + way, last);
        self.metas.swap(base + way, last);
        self.lens[set] -= 1;
        EvictedLine {
            line: self.tags[last],
            meta: self.metas[last].take().expect("occupied slot"),
        }
    }

    /// Removes the line containing `addr`, returning its metadata.
    pub fn invalidate(&mut self, addr: u32) -> Option<M> {
        let line = self.align(addr);
        let set = self.set_index(line);
        let way = self.find(set, line)? - set * self.associativity;
        Some(self.swap_remove(set, way).meta)
    }

    /// Empties the cache (statistics are preserved).
    pub fn clear(&mut self) {
        self.metas.iter_mut().for_each(|m| *m = None);
        self.lens.iter_mut().for_each(|l| *l = 0);
    }

    /// Iterates over resident lines (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&u32, &M)> {
        self.tags
            .iter()
            .zip(&self.metas)
            .filter_map(|(line, m)| m.as_ref().map(|m| (line, m)))
    }

    /// Serializes the cache's complete state — slot layout (way order
    /// included, so Random/LRU victim streams continue bit-identically),
    /// LRU stamps, clock, xorshift word, and hit/miss counters. `meta`
    /// encodes the per-line metadata.
    pub fn save_state(
        &self,
        enc: &mut cdp_snap::Enc,
        mut meta: impl FnMut(&M, &mut cdp_snap::Enc),
    ) {
        enc.u64(self.rng);
        enc.u64(self.clock);
        enc.u64(self.hits);
        enc.u64(self.misses);
        enc.seq_len(self.num_sets);
        for (set, &len) in self.lens.iter().enumerate() {
            enc.u32(len);
            let base = set * self.associativity;
            for slot in base..base + len as usize {
                enc.u32(self.tags[slot]);
                enc.u64(self.stamps[slot]);
                meta(self.metas[slot].as_ref().expect("packed slot"), enc);
            }
        }
    }

    /// Restores state written by [`Cache::save_state`] into a cache of
    /// identical geometry (typically freshly built from the same config).
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] when the stream is
    /// truncated or structurally impossible for this geometry.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
        mut meta: impl FnMut(&mut cdp_snap::Dec<'_>) -> Result<M, cdp_types::SnapshotError>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        self.rng = dec.u64("cache rng")?;
        self.clock = dec.u64("cache clock")?;
        self.hits = dec.u64("cache hits")?;
        self.misses = dec.u64("cache misses")?;
        let sets = dec.seq_len(4, "cache set count")?;
        if sets != self.num_sets {
            return Err(SnapshotError::Corrupt {
                context: "cache set count",
            });
        }
        self.clear();
        for set in 0..self.num_sets {
            let len = dec.u32("cache set occupancy")? as usize;
            if len > self.associativity {
                return Err(SnapshotError::Corrupt {
                    context: "cache set occupancy",
                });
            }
            let base = set * self.associativity;
            for slot in base..base + len {
                self.tags[slot] = dec.u32("cache line")?;
                self.stamps[slot] = dec.u64("cache stamp")?;
                self.metas[slot] = Some(meta(dec)?);
                self.lens[set] += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::rng::Rng;

    fn small() -> Cache<u8> {
        Cache::new(2, 2, 64)
    }

    /// The multiply-shift remainder equals `%` at the edges of the line
    /// number range and around every multiple of the set count it meets,
    /// for power-of-two and other set counts up to `u32::MAX`.
    #[test]
    fn set_index_matches_remainder() {
        let mut rng = Rng::seed_from_u64(0xcac4_0005);
        let counts = [
            1u32,
            2,
            3,
            5,
            6,
            7,
            64,
            100,
            128,
            1000,
            2048,
            4095,
            1 << 31,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &d in &counts {
            let index = SetIndex::new(d as usize);
            let mut lines = vec![0, 1, u32::MAX, u32::MAX - 1, d - 1, d, d.wrapping_add(1)];
            let top = u32::MAX - u32::MAX % d;
            lines.extend([top, top.wrapping_sub(1), top.wrapping_sub(d)]);
            for _ in 0..200 {
                let k = rng.next_u32() / d.max(2);
                lines.extend([k.wrapping_mul(d), k.wrapping_mul(d).wrapping_sub(1)]);
                lines.push(rng.next_u32());
            }
            for n in lines {
                assert_eq!(index.of(n), (n % d) as usize, "{n} % {d}");
            }
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(c.access(0x100).is_none());
        assert_eq!(c.fill(0x100, 7), None);
        assert_eq!(c.access(0x13f).copied(), Some(7), "same line, other byte");
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines with (line >> 6) % 2 == 0: 0x000, 0x080, 0x100.
        c.fill(0x000, 1);
        c.fill(0x080, 2);
        c.access(0x000); // make 0x000 MRU
        let ev = c.fill(0x100, 3).expect("set full, must evict");
        assert_eq!(ev.line, 0x080);
        assert!(c.probe(0x000));
        assert!(c.probe(0x100));
        assert!(!c.probe(0x080));
    }

    #[test]
    fn fill_present_line_updates_meta_without_evicting() {
        let mut c = small();
        c.fill(0x000, 1);
        c.fill(0x080, 2);
        assert_eq!(c.fill(0x000, 9), None);
        assert_eq!(c.peek(0x000).copied(), Some(9));
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = small();
        c.fill(0x000, 1);
        c.fill(0x080, 2);
        // Peek at 0x000 — should NOT protect it.
        assert_eq!(c.peek(0x000).copied(), Some(1));
        c.access(0x080);
        let ev = c.fill(0x100, 3).unwrap();
        assert_eq!(ev.line, 0x000, "peek must not refresh LRU");
        assert_eq!(c.stats(), (1, 0), "peek must not count");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.fill(0x040, 5);
        assert_eq!(c.invalidate(0x040), Some(5));
        assert_eq!(c.invalidate(0x040), None);
        assert!(!c.probe(0x040));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        c.fill(0x000, 1); // set 0
        c.fill(0x040, 2); // set 1
        c.fill(0x080, 3); // set 0
        c.fill(0x0c0, 4); // set 1
        assert_eq!(c.resident_lines(), 4);
        // Filling more set-0 lines never evicts set-1 lines.
        c.fill(0x100, 5);
        assert!(c.probe(0x040));
        assert!(c.probe(0x0c0));
    }

    #[test]
    fn from_config_geometry() {
        let cfg = cdp_types::CacheConfig::l1d_asplos2002();
        let c: Cache<()> = Cache::from_config(&cfg);
        assert_eq!(c.capacity_lines(), 512);
    }

    #[test]
    fn seven_way_associativity_works() {
        // The Markov 1/8 configuration uses an 896 KB 7-way UL2.
        let mut c: Cache<()> = Cache::new(2048, 7, 64);
        for i in 0..7u32 {
            c.fill(i * 2048 * 64, ());
        }
        assert_eq!(c.resident_lines(), 7);
        assert!(c.fill(7 * 2048 * 64, ()).is_some());
    }

    #[test]
    fn fifo_ignores_hits_when_choosing_victims() {
        use cdp_types::ReplacementPolicy;
        let mut c: Cache<u8> = Cache::new(2, 2, 64).with_policy(ReplacementPolicy::Fifo);
        c.fill(0x000, 1);
        c.fill(0x080, 2);
        // Touch the older line: under LRU this would protect it; FIFO
        // evicts by insertion order regardless.
        c.access(0x000);
        let ev = c.fill(0x100, 3).expect("set full");
        assert_eq!(ev.line, 0x000, "FIFO evicts first-inserted");
    }

    #[test]
    fn random_policy_is_deterministic_and_in_set() {
        use cdp_types::ReplacementPolicy;
        let run = || {
            let mut c: Cache<()> = Cache::new(2, 2, 64).with_policy(ReplacementPolicy::Random);
            let mut evs = Vec::new();
            for i in 0..20u32 {
                if let Some(e) = c.fill(i * 128, ()) {
                    evs.push(e.line);
                }
            }
            evs
        };
        let a = run();
        assert_eq!(a, run(), "seeded xorshift is reproducible");
        assert!(!a.is_empty());
        for l in a {
            assert_eq!((l >> 6) % 2, 0, "victims come from the filled set");
        }
    }

    #[test]
    fn clear_keeps_stats() {
        let mut c = small();
        c.fill(0x40, 1);
        c.access(0x40);
        c.clear();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats(), (1, 0));
    }

    /// Residency never exceeds capacity and a just-filled line is always
    /// resident.
    #[test]
    fn prop_capacity_and_residency() {
        let mut rng = Rng::seed_from_u64(0xcac4_0001);
        for _ in 0..64 {
            let n = rng.gen_range_usize(1..200);
            let mut c: Cache<u32> = Cache::new(4, 2, 64);
            for i in 0..n {
                let a = rng.gen_range_u32(0..0x4000);
                c.fill(a, i as u32);
                assert!(c.probe(a));
                assert!(c.resident_lines() <= c.capacity_lines());
            }
        }
    }

    /// access() and probe() agree on residency.
    #[test]
    fn prop_access_probe_agree() {
        let mut rng = Rng::seed_from_u64(0xcac4_0002);
        for _ in 0..64 {
            let n = rng.gen_range_usize(1..100);
            let mut c: Cache<()> = Cache::new(2, 4, 64);
            for _ in 0..n {
                let a = rng.gen_range_u32(0..0x2000);
                let resident = c.probe(a);
                let hit = c.access(a).is_some();
                assert_eq!(resident, hit);
                if !hit {
                    c.fill(a, ());
                }
            }
            let (h, m) = c.stats();
            assert_eq!(h + m, n as u64);
        }
    }

    /// An evicted line comes from the same set as the fill that evicted
    /// it.
    #[test]
    fn prop_eviction_same_set() {
        let mut rng = Rng::seed_from_u64(0xcac4_0003);
        for _ in 0..64 {
            let n = rng.gen_range_usize(1..300);
            let num_sets = 4usize;
            let mut c: Cache<()> = Cache::new(num_sets, 2, 64);
            for _ in 0..n {
                let a = rng.gen_range_u32(0..0x8000);
                if let Some(ev) = c.fill(a, ()) {
                    assert_eq!(
                        (ev.line >> 6) as usize % num_sets,
                        (a >> 6) as usize % num_sets
                    );
                }
            }
        }
    }

    /// Packed occupancy invariant: occupied ways are contiguous from way 0.
    #[test]
    fn prop_packed_occupancy() {
        let mut rng = Rng::seed_from_u64(0xcac4_0004);
        let mut c: Cache<u8> = Cache::new(4, 4, 64);
        for _ in 0..2000 {
            let a = rng.gen_range_u32(0..0x8000);
            match rng.gen_range_u8(0..3) {
                0 => {
                    c.fill(a, rng.gen_range_u8(0..4));
                }
                1 => {
                    c.access(a);
                }
                _ => {
                    c.invalidate(a);
                }
            }
            for set in 0..4 {
                let base = set * c.associativity;
                let len = c.lens[set] as usize;
                for w in 0..c.associativity {
                    assert_eq!(c.metas[base + w].is_some(), w < len);
                }
            }
        }
    }
}
