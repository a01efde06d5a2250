//! Pins the §5 Markov STAB's simulated behaviour at quick scale.
//!
//! At smoke scale the STAB never finds a table hit, so the other
//! end-to-end tests cannot see it. These cells run long enough for it to
//! train and predict. Every value below was recorded with the original
//! stand-alone STAB engine and must hold for whichever engine implements
//! the STAB.

use cdp::sim::{RunStats, Simulator};
use cdp::types::{MarkovConfig, SystemConfig};
use cdp::workloads::suite::{Benchmark, Scale};

/// The experiments' default workload seed.
const SEED: u64 = 0x5eed_2002;

#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    cycles: u64,
    /// `mem.markov`: issued, useful_full, useful_partial, wasted_evictions.
    counters: [u64; 4],
    /// `distribution.markov_full`, `distribution.markov_partial`.
    distribution: [u64; 2],
    /// STAB internals: observed, hits, emitted, trained, evictions.
    stab: [u64; 5],
}

fn observe(r: &RunStats) -> Pinned {
    let m = &r.mem.markov;
    let s = r.markov.expect("STAB configured");
    Pinned {
        cycles: r.cycles,
        counters: [
            m.issued,
            m.useful_full,
            m.useful_partial,
            m.wasted_evictions,
        ],
        distribution: [
            r.mem.distribution.markov_full,
            r.mem.distribution.markov_partial,
        ],
        stab: [s.observed, s.table_hits, s.emitted, s.trained, s.evictions],
    }
}

/// Runs `bench` at quick scale with no warm-up under `cfg`.
fn check(bench: Benchmark, cfg: SystemConfig, want: Pinned) {
    let w = bench.build(Scale::quick(), SEED);
    let got = observe(&Simulator::new(cfg).run(&w));
    assert_eq!(got, want, "{bench:?}");
}

/// Figure 11's `markov_1/2` system: 512 KB UL2 plus a 512 KB STAB.
fn half() -> SystemConfig {
    SystemConfig::with_markov(MarkovConfig::half(), 512 * 1024, 8)
}

#[test]
fn half_stab_on_b2b_is_pinned() {
    check(
        Benchmark::B2b,
        half(),
        Pinned {
            cycles: 6_819_439,
            counters: [759, 134, 370, 218],
            distribution: [134, 370],
            stab: [13_369, 2_203, 2_332, 13_368, 0],
        },
    );
}

#[test]
fn half_stab_on_creation_is_pinned() {
    check(
        Benchmark::Creation,
        half(),
        Pinned {
            cycles: 6_480_049,
            counters: [2_504, 201, 1_381, 903],
            distribution: [201, 1_381],
            stab: [30_130, 17_596, 20_358, 30_129, 0],
        },
    );
}

/// Figure 11's `markov_big` system: full UL2 plus an unbounded STAB.
#[test]
fn unbounded_stab_on_b2b_is_pinned() {
    check(
        Benchmark::B2b,
        SystemConfig::with_markov(MarkovConfig::unbounded(), 1024 * 1024, 8),
        Pinned {
            cycles: 5_868_284,
            counters: [0, 0, 0, 0],
            distribution: [0, 0],
            stab: [11_175, 16, 16, 11_174, 0],
        },
    );
}
