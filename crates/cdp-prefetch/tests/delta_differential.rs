//! Differential test: the production Markov STAB — the delta table in
//! address-keyed, history-1 mode, as [`DeltaPrefetcher::stab`] builds it
//! from a [`MarkovConfig`] — must produce the prediction stream of a
//! reference 1-history STAB on randomized miss traces.
//!
//! The reference below is the §5 STAB written out directly: a
//! set-associative table of miss lines, each holding up to `fanout`
//! MRU-ordered successor lines, with LRU victim selection. At equal
//! geometry the delta table must match it exactly — same set indexing,
//! same MRU successor order, same LRU victims, same entry count (the
//! unbounded `markov_big` table included) — so any divergence is a bug in
//! one of them. Same pattern as the `vam::classify` differential fuzz.

use cdp_prefetch::{DeltaPrefetcher, DeltaStats};
use cdp_types::rng::Rng;
use cdp_types::{MarkovConfig, RequestKind, VirtAddr};

#[derive(Clone, Debug)]
struct RefEntry {
    tag: u32,
    /// MRU-first successor line addresses.
    successors: Vec<u32>,
    stamp: u64,
}

/// The reference 1-history Markov STAB (fan-out successors per miss
/// line, LRU replacement).
struct RefStab {
    sets: Vec<Vec<RefEntry>>,
    associativity: usize,
    fanout: usize,
    prev_miss: Option<u32>,
    clock: u64,
    stats: DeltaStats,
}

impl RefStab {
    fn new(cfg: &MarkovConfig) -> Self {
        let assoc = cfg.associativity.max(1);
        let sets = (cfg.num_entries() / assoc).max(1);
        RefStab {
            sets: vec![Vec::new(); sets],
            associativity: assoc,
            fanout: cfg.fanout.max(1),
            prev_miss: None,
            clock: 0,
            stats: DeltaStats::default(),
        }
    }

    fn capacity(&self) -> usize {
        self.sets.len() * self.associativity
    }

    fn set_index(&self, line: u32) -> usize {
        ((line >> 6) as usize) % self.sets.len()
    }

    /// Records `to` as the MRU successor of `from`.
    fn train(&mut self, from: u32, to: u32) {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(from);
        let assoc = self.associativity;
        let entries = &mut self.sets[set];
        if let Some(e) = entries.iter_mut().find(|e| e.tag == from) {
            e.stamp = clock;
            if let Some(pos) = e.successors.iter().position(|&s| s == to) {
                // Move to MRU.
                e.successors.remove(pos);
            } else if e.successors.len() >= self.fanout {
                // Drop the LRU successor.
                e.successors.pop();
            }
            e.successors.insert(0, to);
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
            entries.push(RefEntry {
                tag: from,
                successors: vec![to],
                stamp: clock,
            });
        }
        self.stats.trained += 1;
    }

    /// Trains the previous transition, then pushes the recorded
    /// successors of this miss's line.
    fn observe_miss(&mut self, vaddr: VirtAddr, out: &mut Vec<u32>) {
        self.stats.observed += 1;
        let line = vaddr.line().0;
        if let Some(prev) = self.prev_miss {
            if prev != line {
                self.train(prev, line);
            }
        }
        self.prev_miss = Some(line);
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(line);
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.tag == line) {
            e.stamp = clock;
            self.stats.table_hits += 1;
            for &succ in e.successors.iter().take(self.fanout) {
                out.push(succ);
                self.stats.emitted += 1;
            }
        }
    }
}

/// Drives the reference and the production STAB over `trace` and asserts
/// hit-for-hit equivalent prediction streams (addresses, in order, all
/// stamped `Markov`), matching table stats, and matching geometry.
fn check(cfg: &MarkovConfig, trace: &[u32], ctx: &str) {
    let mut reference = RefStab::new(cfg);
    let mut stab = DeltaPrefetcher::stab(cfg);
    assert_eq!(stab.capacity(), reference.capacity(), "{ctx}: capacity");
    assert_eq!(
        stab.budget_bytes(),
        reference.capacity() * cfg.entry_bytes(),
        "{ctx}: budget"
    );
    let mut ref_out = Vec::new();
    let mut stab_out = Vec::new();
    for (i, &addr) in trace.iter().enumerate() {
        ref_out.clear();
        stab_out.clear();
        reference.observe_miss(VirtAddr(addr), &mut ref_out);
        stab.observe_miss(VirtAddr(addr), &mut stab_out);
        let preds: Vec<u32> = stab_out.iter().map(|r| r.vaddr.0).collect();
        assert_eq!(
            ref_out, preds,
            "{ctx}: prediction streams diverge at miss {i} ({addr:#x})"
        );
        assert!(
            stab_out.iter().all(|r| r.kind == RequestKind::Markov),
            "{ctx}: STAB requests must carry the Markov kind"
        );
    }
    assert_eq!(reference.stats, stab.stats(), "{ctx}: stats");
}

/// A randomized miss trace mixing the patterns the suite's benchmarks
/// produce: sequential runs, pointer-chase hops within a region, revisits
/// of hot lines, and occasional far jumps.
fn random_trace(rng: &mut Rng, len: usize) -> Vec<u32> {
    let mut trace = Vec::with_capacity(len);
    let mut cursor: u32 = 0x10_0000 + rng.gen_range_u32(0..0x1000) * 64;
    let mut hot: Vec<u32> = (0..8)
        .map(|_| 0x40_0000 + rng.gen_range_u32(0..0x400) * 64)
        .collect();
    while trace.len() < len {
        match rng.gen_range_u32(0..10) {
            // Sequential run of 2..10 lines.
            0..=3 => {
                let run = rng.gen_range_usize(2..10);
                for _ in 0..run {
                    trace.push(cursor);
                    cursor = cursor.wrapping_add(64);
                }
            }
            // Hot-line revisit (creates trainable transitions).
            4..=6 => {
                let i = rng.gen_range_usize(0..hot.len());
                trace.push(hot[i]);
            }
            // Local pointer-chase hop.
            7..=8 => {
                cursor = cursor.wrapping_add(rng.gen_range_u32(1..64) * 64);
                trace.push(cursor);
            }
            // Far jump; occasionally rotate a hot line.
            _ => {
                cursor = 0x10_0000 + rng.gen_range_u32(0..0x8000) * 64;
                trace.push(cursor);
                let i = rng.gen_range_usize(0..hot.len());
                hot[i] = cursor;
            }
        }
    }
    trace.truncate(len);
    trace
}

#[test]
fn equivalent_on_randomized_traces() {
    let mut rng = Rng::seed_from_u64(0xD1FF);
    for round in 0..200 {
        // Small tables force evictions; large ones exercise pure MRU.
        let stab_bytes = [640, 2048, 16 * 1024, 512 * 1024][round % 4];
        let cfg = MarkovConfig {
            stab_bytes,
            associativity: [2, 4, 16][round % 3],
            fanout: [1, 2, 4][round % 3],
        };
        let trace = random_trace(&mut rng, 2000);
        check(&cfg, &trace, &format!("round {round} cfg {cfg:?}"));
    }
}

#[test]
fn equivalent_on_knob_grid() {
    // Exhaustive small grid over the geometry knobs with a fixed
    // adversarial trace (dense revisits + conflict-heavy footprint).
    let mut rng = Rng::seed_from_u64(42);
    let trace: Vec<u32> = (0..3000)
        .map(|_| 0x20_0000 + rng.gen_range_u32(0..96) * 64)
        .collect();
    for assoc in [1, 2, 8, 16] {
        for fanout in [1, 2, 4, 8] {
            for stab_bytes in [320, 4096, 64 * 1024] {
                let cfg = MarkovConfig {
                    stab_bytes,
                    associativity: assoc,
                    fanout,
                };
                check(&cfg, &trace, &format!("grid {cfg:?}"));
            }
        }
    }
}

#[test]
fn equivalent_on_adversarial_patterns() {
    let cfg = MarkovConfig::eighth();
    // Same-line repeats (no self-training), strict alternation (MRU
    // churn), and a rotating set exactly at the fan-out boundary.
    let mut alternate = Vec::new();
    for _ in 0..100 {
        alternate.extend_from_slice(&[0x1000, 0x1010, 0x2000, 0x1000, 0x3000]);
    }
    check(&cfg, &alternate, "alternation");
    let mut rotate = Vec::new();
    for i in 0..400u32 {
        rotate.push(0x8000 + (i % 5) * 4096);
    }
    check(&cfg, &rotate, "fanout-boundary rotation");
}

#[test]
fn shipped_presets_match_the_reference() {
    // The Table 3 configurations fig11 runs, the unbounded `markov_big`
    // table included.
    let mut rng = Rng::seed_from_u64(7);
    let trace = random_trace(&mut rng, 5000);
    for cfg in [
        MarkovConfig::eighth(),
        MarkovConfig::half(),
        MarkovConfig::unbounded(),
    ] {
        check(&cfg, &trace, &format!("preset {cfg:?}"));
    }
}
