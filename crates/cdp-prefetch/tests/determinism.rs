//! Property test: every engine in the zoo is deterministic.
//!
//! The tournament's equal-silicon comparison (and the experiments
//! harness's byte-identical-stdout guarantee at any `--jobs` count) rests
//! on each engine being a pure function of its event stream: two fresh
//! instances built from the same (seed, trace, budget) must emit
//! identical prediction streams and finish with identical table stats.
//! No engine may consult wall clocks, addresses-of-allocations, global
//! RNGs, or anything else outside its inputs.

use cdp_prefetch::{
    ContentPrefetcher, DeltaPrefetcher, JumpPrefetcher, PerceptronFilter, PrefetchRequest,
    Prefetcher, StridePrefetcher,
};
use cdp_types::rng::Rng;
use cdp_types::{
    ContentConfig, DeltaConfig, DeltaKeySpace, JumpConfig, MarkovConfig, PerceptronConfig,
    RequestKind, SystemConfig, VirtAddr, LINE_SIZE,
};

/// One hierarchy event, pre-generated so both replays see byte-identical
/// inputs (including the fill payloads the content and jump engines scan).
enum Ev {
    L1Miss {
        pc: u32,
        vaddr: u32,
    },
    L2Miss {
        vaddr: u32,
    },
    Fill {
        trigger: u32,
        vline: u32,
        data: Box<[u8; LINE_SIZE]>,
        kind: RequestKind,
    },
}

/// A randomized event stream with enough structure that every engine
/// actually fires: strided L1 misses, pointer-chase L2 misses revisiting
/// hot lines, and fills whose payloads contain plausible heap pointers
/// (same-region word values) for the VAM to accept.
fn random_events(seed: u64, len: usize) -> Vec<Ev> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(len);
    let hot: Vec<u32> = (0..8)
        .map(|_| 0x40_0000 + rng.gen_range_u32(0..0x400) * 64)
        .collect();
    // Per-PC strided streams: each synthetic load walks its own region
    // with a fixed stride, which is what trains a stride table.
    let mut pcs: Vec<(u32, u32, u32)> = (0..4)
        .map(|i| {
            (
                0x1000 + i * 4,
                0x10_0000 + i * 0x1_0000,
                64 * (1 + rng.gen_range_u32(0..3)),
            )
        })
        .collect();
    for _ in 0..len {
        match rng.gen_range_u32(0..10) {
            0..=2 => {
                let (pc, cursor, stride) = &mut pcs[rng.gen_range_usize(0..4)];
                *cursor = cursor.wrapping_add(*stride);
                events.push(Ev::L1Miss {
                    pc: *pc,
                    vaddr: *cursor,
                });
            }
            3..=5 => {
                let vaddr = hot[rng.gen_range_usize(0..hot.len())]
                    .wrapping_add(rng.gen_range_u32(0..4) * 64);
                events.push(Ev::L2Miss { vaddr });
            }
            _ => {
                let trigger = hot[rng.gen_range_usize(0..hot.len())];
                let vline = trigger & !(LINE_SIZE as u32 - 1);
                let mut data = Box::new([0u8; LINE_SIZE]);
                for w in 0..(LINE_SIZE / 4) {
                    // Roughly half the words look like pointers into the
                    // hot region; the rest are small integers.
                    let word = if rng.gen_range_u32(0..2) == 0 {
                        hot[rng.gen_range_usize(0..hot.len())]
                            .wrapping_add(rng.gen_range_u32(0..64) * 4)
                    } else {
                        rng.gen_range_u32(0..4096)
                    };
                    data[w * 4..w * 4 + 4].copy_from_slice(&word.to_le_bytes());
                }
                let kind = if rng.gen_range_u32(0..3) == 0 {
                    RequestKind::Content {
                        depth: rng.gen_range_u32(0..3) as u8,
                    }
                } else {
                    RequestKind::Demand
                };
                events.push(Ev::Fill {
                    trigger,
                    vline,
                    data,
                    kind,
                });
            }
        }
    }
    events
}

/// Replays `events` through `engine`, returning the full prediction
/// stream (order included).
fn drive(engine: &mut dyn Prefetcher, events: &[Ev]) -> Vec<PrefetchRequest> {
    let mut stream = Vec::new();
    let mut out = Vec::new();
    for ev in events {
        out.clear();
        match ev {
            Ev::L1Miss { pc, vaddr } => engine.on_l1_miss(*pc, VirtAddr(*vaddr), &mut out),
            Ev::L2Miss { vaddr } => engine.on_l2_miss(VirtAddr(*vaddr), &mut out),
            Ev::Fill {
                trigger,
                vline,
                data,
                kind,
            } => {
                engine.on_l2_fill(VirtAddr(*trigger), VirtAddr(*vline), data, *kind, &mut out);
            }
        }
        stream.extend(out.iter().copied());
    }
    stream
}

/// Asserts two fresh, identically-configured instances replay `events`
/// identically, and that the stream is non-trivial when `expect_issue`
/// is set (a determinism test over an engine that never fires proves
/// nothing).
fn check_pair<E: Prefetcher>(
    name: &str,
    events: &[Ev],
    expect_issue: bool,
    mut a: E,
    mut b: E,
    stats: impl Fn(&E) -> String,
) {
    let sa = drive(&mut a, events);
    let sb = drive(&mut b, events);
    assert_eq!(sa, sb, "{name}: prediction streams diverge");
    assert_eq!(stats(&a), stats(&b), "{name}: stats diverge");
    assert_eq!(
        a.budget_bytes(),
        b.budget_bytes(),
        "{name}: budgets diverge"
    );
    if expect_issue {
        assert!(
            !sa.is_empty(),
            "{name}: event stream never fired the engine"
        );
    }
}

#[test]
fn every_engine_replays_identically() {
    for seed in [1u64, 0xBEEF, 0x5eed_cafe] {
        let events = random_events(seed, 4000);
        for budget in [4 * 1024usize, 16 * 1024] {
            let ctx = format!("seed {seed:#x} budget {budget}");
            let mk = MarkovConfig {
                stab_bytes: budget,
                associativity: 16,
                fanout: 4,
            };
            check_pair(
                &format!("markov {ctx}"),
                &events,
                true,
                DeltaPrefetcher::stab(&mk),
                DeltaPrefetcher::stab(&mk),
                |e| format!("{:?}", e.stats()),
            );
            for key_space in [DeltaKeySpace::Delta, DeltaKeySpace::Address] {
                let dc = DeltaConfig {
                    table_bytes: budget,
                    associativity: 16,
                    fanout: 4,
                    history: 2,
                    key_space,
                };
                check_pair(
                    &format!("delta/{key_space:?} {ctx}"),
                    &events,
                    true,
                    DeltaPrefetcher::new(&dc),
                    DeltaPrefetcher::new(&dc),
                    |e| format!("{:?}", e.stats()),
                );
            }
            let jc = JumpConfig::sized(budget);
            check_pair(
                &format!("jump {ctx}"),
                &events,
                true,
                JumpPrefetcher::new(&jc),
                JumpPrefetcher::new(&jc),
                |e| format!("{:?}", e.stats()),
            );
        }
        // The stateless engines carry no budget axis.
        check_pair(
            &format!("content seed {seed:#x}"),
            &events,
            true,
            ContentPrefetcher::new(ContentConfig::default()),
            ContentPrefetcher::new(ContentConfig::default()),
            |e| format!("{:?}", e.stats()),
        );
        let sc = SystemConfig::asplos2002()
            .prefetchers
            .stride
            .expect("baseline stride");
        check_pair(
            &format!("stride seed {seed:#x}"),
            &events,
            true,
            StridePrefetcher::new(&sc),
            StridePrefetcher::new(&sc),
            |e| format!("{:?}", e.stats()),
        );
    }
}

/// The perceptron filter is hierarchy-side (not a [`Prefetcher`]), so it
/// gets its own replay: identical accept/train/demand-miss sequences must
/// produce identical gate decisions and weights-visible state.
#[test]
fn perceptron_filter_replays_identically() {
    for seed in [3u64, 0xF117E6] {
        let mut rng = Rng::seed_from_u64(seed);
        for budget in [2 * 1024usize, 16 * 1024] {
            let cfg = PerceptronConfig::with_budget(budget).expect("budget fits");
            let mut a = PerceptronFilter::new(&cfg);
            let mut b = PerceptronFilter::new(&cfg);
            let mut decisions = (Vec::new(), Vec::new());
            for _ in 0..4000 {
                let vaddr = VirtAddr(0x40_0000 + rng.gen_range_u32(0..0x2000) * 64);
                let kind = match rng.gen_range_u32(0..4) {
                    0 => RequestKind::Stride,
                    1 => RequestKind::Markov,
                    2 => RequestKind::Delta,
                    _ => RequestKind::Content {
                        depth: rng.gen_range_u32(0..3) as u8,
                    },
                };
                match rng.gen_range_u32(0..4) {
                    0 => {
                        let req = PrefetchRequest {
                            vaddr,
                            kind,
                            width: false,
                        };
                        decisions.0.push(a.accept(&req));
                        decisions.1.push(b.accept(&req));
                    }
                    1 => {
                        let useful = rng.gen_range_u32(0..2) == 0;
                        a.train(vaddr, kind.engine(), useful);
                        b.train(vaddr, kind.engine(), useful);
                    }
                    _ => {
                        a.on_demand_miss(vaddr);
                        b.on_demand_miss(vaddr);
                    }
                }
            }
            assert_eq!(decisions.0, decisions.1, "gate decisions diverge");
            assert!(
                decisions.0.iter().any(|&d| d) || !decisions.0.is_empty(),
                "replay exercised the gate"
            );
            assert_eq!(a.stats(), b.stats(), "perceptron stats diverge");
            assert_eq!(a.budget_bytes(), b.budget_bytes());
        }
    }
}
