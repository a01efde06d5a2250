//! Property check: the flat set-major [`Cache`] is behaviorally identical
//! to the nested-`Vec` reference model it replaced.
//!
//! The reference reimplements the historical per-set `Vec<Entry>` cache —
//! `%` set index, push on fill, `swap_remove` on eviction/invalidate, a
//! `min_by_key` victim search, the same xorshift stream for Random
//! replacement — and the test drives both with the same random operation
//! mix across every replacement policy, a spread of eviction classes, and
//! power-of-two, other and single-set geometries. Metadata is changed
//! through the `&mut` that `access` and `peek_mut` return, so a line's
//! eviction class can change between fills. Each return value, the full
//! resident state and the `save_state` bytes are compared as it goes. Any
//! divergence in set indexing, slot ordering, stamp handling, or rng
//! consumption shows up as a mismatched eviction or a byte difference.

use cdp_mem::{Cache, EvictClass, EvictedLine};
use cdp_snap::Enc;
use cdp_types::rng::Rng;
use cdp_types::ReplacementPolicy;

/// Per-line metadata carrying an eviction-class preference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Meta {
    id: u32,
    class: u8,
}

impl EvictClass for Meta {
    fn evict_class(&self) -> u8 {
        self.class
    }
}

/// One resident line of the reference model.
#[derive(Clone, Debug)]
struct RefEntry {
    line: u32,
    meta: Meta,
    stamp: u64,
}

/// The pre-flattening cache: one `Vec` per set, in push order.
struct RefCache {
    sets: Vec<Vec<RefEntry>>,
    associativity: usize,
    line_mask: u32,
    line_shift: u32,
    policy: ReplacementPolicy,
    rng: u64,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(
        num_sets: usize,
        associativity: usize,
        line_size: u32,
        policy: ReplacementPolicy,
    ) -> Self {
        RefCache {
            sets: vec![Vec::new(); num_sets],
            associativity,
            line_mask: !(line_size - 1),
            line_shift: line_size.trailing_zeros(),
            policy,
            rng: 0x9e37_79b9_7f4a_7c15,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line: u32) -> usize {
        ((line >> self.line_shift) as usize) % self.sets.len()
    }

    fn align(&self, addr: u32) -> u32 {
        addr & self.line_mask
    }

    fn probe(&self, addr: u32) -> bool {
        let line = self.align(addr);
        self.sets[self.set_index(line)]
            .iter()
            .any(|e| e.line == line)
    }

    fn access(&mut self, addr: u32) -> Option<&mut Meta> {
        let line = self.align(addr);
        let set = self.set_index(line);
        self.clock += 1;
        let clock = self.clock;
        let refresh = !matches!(self.policy, ReplacementPolicy::Fifo);
        match self.sets[set].iter_mut().find(|e| e.line == line) {
            Some(e) => {
                self.hits += 1;
                if refresh {
                    e.stamp = clock;
                }
                Some(&mut e.meta)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn peek(&self, addr: u32) -> Option<Meta> {
        let line = self.align(addr);
        self.sets[self.set_index(line)]
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.meta)
    }

    fn peek_mut(&mut self, addr: u32) -> Option<&mut Meta> {
        let line = self.align(addr);
        let set = self.set_index(line);
        self.sets[set]
            .iter_mut()
            .find(|e| e.line == line)
            .map(|e| &mut e.meta)
    }

    fn fill(&mut self, addr: u32, meta: Meta) -> Option<EvictedLine<Meta>> {
        let line = self.align(addr);
        let set = self.set_index(line);
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.line == line) {
            e.meta = meta;
            e.stamp = clock;
            return None;
        }
        let evicted = if self.sets[set].len() >= self.associativity {
            let ways = &self.sets[set];
            let way = match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (std::cmp::Reverse(e.meta.evict_class()), e.stamp))
                    .map(|(w, _)| w)
                    .expect("set is non-empty"),
                ReplacementPolicy::Random => {
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    let worst = ways
                        .iter()
                        .map(|e| e.meta.evict_class())
                        .max()
                        .expect("set is non-empty");
                    let candidates: Vec<usize> = ways
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.meta.evict_class() == worst)
                        .map(|(w, _)| w)
                        .collect();
                    candidates[(self.rng as usize) % candidates.len()]
                }
            };
            let e = self.sets[set].swap_remove(way);
            Some(EvictedLine {
                line: e.line,
                meta: e.meta,
            })
        } else {
            None
        };
        self.sets[set].push(RefEntry {
            line,
            meta,
            stamp: clock,
        });
        evicted
    }

    fn invalidate(&mut self, addr: u32) -> Option<Meta> {
        let line = self.align(addr);
        let set = self.set_index(line);
        let way = self.sets[set].iter().position(|e| e.line == line)?;
        Some(self.sets[set].swap_remove(way).meta)
    }

    /// The `Cache::save_state` layout of this model's sets.
    fn save(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.rng);
        enc.u64(self.clock);
        enc.u64(self.hits);
        enc.u64(self.misses);
        enc.seq_len(self.sets.len());
        for set in &self.sets {
            enc.u32(set.len() as u32);
            for e in set {
                enc.u32(e.line);
                enc.u64(e.stamp);
                save_meta(&e.meta, &mut enc);
            }
        }
        enc.into_bytes()
    }

    fn resident(&self) -> Vec<(u32, Meta)> {
        let mut v: Vec<(u32, Meta)> = self
            .sets
            .iter()
            .flat_map(|s| s.iter().map(|e| (e.line, e.meta)))
            .collect();
        v.sort_by_key(|&(line, _)| line);
        v
    }
}

fn save_meta(meta: &Meta, enc: &mut Enc) {
    enc.u32(meta.id);
    enc.u8(meta.class);
}

fn save_flat(cache: &Cache<Meta>) -> Vec<u8> {
    let mut enc = Enc::new();
    cache.save_state(&mut enc, save_meta);
    enc.into_bytes()
}

fn resident_flat(cache: &Cache<Meta>) -> Vec<(u32, Meta)> {
    let mut v: Vec<(u32, Meta)> = cache.iter().map(|(&l, &m)| (l, m)).collect();
    v.sort_by_key(|&(line, _)| line);
    v
}

/// Geometry of one randomized run.
#[derive(Clone, Copy, Debug)]
struct Shape {
    sets: usize,
    ways: usize,
    line: u32,
    /// Distinct lines in the address pool.
    lines: u32,
    /// Odd multiplier from a pool index to its line number, so the pool
    /// can spread over the whole line-number range.
    spread: u32,
}

/// 4 sets × 4 ways of 64-byte lines over 48 lines: sets fill, conflict
/// and churn.
const SMALL: Shape = Shape {
    sets: 4,
    ways: 4,
    line: 64,
    lines: 48,
    spread: 1,
};

/// Drives both models through the same random op mix and compares every
/// observable result, the full resident state and the snapshot bytes.
fn check_policy(policy: ReplacementPolicy, seed: u64) {
    check_shape(SMALL, policy, seed);
}

fn check_shape(shape: Shape, policy: ReplacementPolicy, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut flat: Cache<Meta> =
        Cache::new(shape.sets, shape.ways, shape.line as usize).with_policy(policy);
    let mut reference = RefCache::new(shape.sets, shape.ways, shape.line, policy);
    let at = |step| format!("step {step} ({policy:?}, {shape:?})");

    for step in 0..6000u32 {
        let number = (rng.next_u32() % shape.lines).wrapping_mul(shape.spread);
        let addr = number.wrapping_mul(shape.line) + rng.next_u32() % shape.line;
        match rng.next_u32() % 12 {
            // Fill dominates so evictions are constantly exercised.
            0..=4 => {
                let meta = Meta {
                    id: step,
                    class: (rng.next_u32() % 3) as u8,
                };
                let got = flat.fill(addr, meta);
                let want = reference.fill(addr, meta);
                assert_eq!(got, want, "fill divergence at {}", at(step));
            }
            5..=7 => {
                let class = (rng.next_u32() % 3) as u8;
                let got = flat.access(addr);
                let want = reference.access(addr);
                assert_eq!(
                    got.as_deref(),
                    want.as_deref(),
                    "access divergence at {}",
                    at(step)
                );
                // Half the hits move the line to another eviction class,
                // as a demand touch does to a prefetched L2 line.
                if step % 2 == 0 {
                    if let (Some(got), Some(want)) = (got, want) {
                        got.class = class;
                        want.class = class;
                    }
                }
            }
            8 => {
                let got = flat.invalidate(addr);
                let want = reference.invalidate(addr);
                assert_eq!(got, want, "invalidate divergence at {}", at(step));
            }
            9 => {
                let class = (rng.next_u32() % 3) as u8;
                let got = flat.peek_mut(addr);
                let want = reference.peek_mut(addr);
                assert_eq!(
                    got.as_deref(),
                    want.as_deref(),
                    "peek_mut divergence at {}",
                    at(step)
                );
                if let (Some(got), Some(want)) = (got, want) {
                    got.class = class;
                    want.class = class;
                }
            }
            _ => {
                assert_eq!(
                    flat.probe(addr),
                    reference.probe(addr),
                    "probe divergence at {}",
                    at(step)
                );
                let got = flat.peek(addr).copied();
                assert_eq!(got, reference.peek(addr), "peek divergence at {}", at(step));
            }
        }
        if step % 64 == 0 {
            assert_eq!(
                resident_flat(&flat),
                reference.resident(),
                "resident-state divergence at {}",
                at(step)
            );
            assert_eq!(flat.stats(), (reference.hits, reference.misses));
            assert_eq!(flat.resident_lines(), reference.resident().len());
            assert_eq!(
                save_flat(&flat),
                reference.save(),
                "snapshot bytes at {}",
                at(step)
            );
        }
    }
    assert_eq!(resident_flat(&flat), reference.resident());
    assert_eq!(flat.stats(), (reference.hits, reference.misses));
    assert_eq!(save_flat(&flat), reference.save());
}

#[test]
fn flat_cache_matches_nested_vec_reference_lru() {
    check_policy(ReplacementPolicy::Lru, 0xcafe_0001);
    check_policy(ReplacementPolicy::Lru, 0xcafe_0002);
}

#[test]
fn flat_cache_matches_nested_vec_reference_fifo() {
    check_policy(ReplacementPolicy::Fifo, 0xcafe_0003);
    check_policy(ReplacementPolicy::Fifo, 0xcafe_0004);
}

#[test]
fn flat_cache_matches_nested_vec_reference_random() {
    check_policy(ReplacementPolicy::Random, 0xcafe_0005);
    check_policy(ReplacementPolicy::Random, 0xcafe_0006);
}

/// Single-way degenerate geometry: every fill of a conflicting line must
/// evict, and the Random policy's modulus is always 1 — both models must
/// still agree on the evicted line and the rng stream they consumed.
#[test]
fn flat_cache_matches_reference_direct_mapped() {
    const LINE: u32 = 32;
    let mut rng = Rng::seed_from_u64(0xcafe_0007);
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ] {
        let mut flat: Cache<Meta> = Cache::new(2, 1, LINE as usize).with_policy(policy);
        let mut reference = RefCache::new(2, 1, LINE, policy);
        for step in 0..800u32 {
            let addr = (rng.next_u32() % 8) * LINE;
            let meta = Meta { id: step, class: 0 };
            assert_eq!(flat.fill(addr, meta), reference.fill(addr, meta));
        }
        assert_eq!(resident_flat(&flat), reference.resident());
    }
}

/// Set counts that are not powers of two: 6 sets × 7 ways (the index is a
/// multiply-shift remainder, not a mask), and 3 sets of 1-byte "lines" as
/// the TLBs use, whose line numbers cover the whole 32-bit range.
#[test]
fn flat_cache_matches_reference_other_set_counts() {
    let shapes = [
        Shape {
            sets: 6,
            ways: 7,
            line: 64,
            lines: 96,
            spread: 0x0003_2a9f,
        },
        Shape {
            sets: 3,
            ways: 2,
            line: 1,
            lines: 20,
            spread: 0x9e37_79b1,
        },
    ];
    for (i, shape) in shapes.into_iter().enumerate() {
        for (j, policy) in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ]
        .into_iter()
        .enumerate()
        {
            check_shape(shape, policy, 0xcafe_0100 + (i * 3 + j) as u64);
        }
    }
}

/// The ITLB's shape: one fully associative set of 128 ways, 1-byte lines.
#[test]
fn flat_cache_matches_reference_fully_associative() {
    let shape = Shape {
        sets: 1,
        ways: 128,
        line: 1,
        lines: 160,
        spread: 0x9e37_79b1,
    };
    for (j, policy) in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ]
    .into_iter()
    .enumerate()
    {
        check_shape(shape, policy, 0xcafe_0200 + j as u64);
    }
}
