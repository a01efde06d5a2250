//! Workload identity is pinned.
//!
//! Result-store keys and checkpoint names hash `Workload::fingerprint`,
//! and a pinned workload file is `serialize::to_text`'s bytes, so neither
//! may move when the in-memory `Uop` changes. Two smoke-scale images
//! cover all five uop kinds between them (tpcc-1 stores, quake floating
//! point); their fingerprints and a digest of their text must equal the
//! values pinned here.

use cdp_core::UopKind;
use cdp_snap::WordHasher;
use cdp_workloads::serialize::to_text;
use cdp_workloads::{Benchmark, Scale};

/// `(benchmark, seed, fingerprint, WordHasher digest of to_text)`.
const PINNED: [(Benchmark, u64, u64, u64); 2] = [
    (
        Benchmark::Tpcc1,
        3,
        10590149295833858151,
        4453871037222194180,
    ),
    (
        Benchmark::Quake,
        3,
        5080378214276499369,
        11056653985755762101,
    ),
];

#[test]
fn fingerprints_and_text_of_smoke_images_are_pinned() {
    let mut kinds = [false; 5];
    for (bench, seed, fingerprint, text_digest) in PINNED {
        let w = bench.build(Scale::smoke(), seed);
        for u in &w.program.uops {
            kinds[match u.kind() {
                UopKind::Alu { .. } => 0,
                UopKind::Fp { .. } => 1,
                UopKind::Load { .. } => 2,
                UopKind::Store { .. } => 3,
                UopKind::Branch { .. } => 4,
            }] = true;
        }
        let mut h = WordHasher::new();
        h.write(to_text(&w).as_bytes());
        assert_eq!(
            (w.fingerprint(), h.finish()),
            (fingerprint, text_digest),
            "{bench}"
        );
    }
    assert_eq!(kinds, [true; 5], "the pinned images emit every uop kind");
}
