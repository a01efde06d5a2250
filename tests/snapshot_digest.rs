//! Snapshot bytes are pinned.
//!
//! A checkpoint written by one build must resume in the next, so a
//! change to how the core, the hierarchy or the uop feed keep their state
//! must not move a single snapshot byte unless it bumps
//! `cdp_snap::VERSION`. Three sessions cover the two feeds: a streamed
//! tpcc-1 cell under the content prefetcher, a streamed b2e cell under
//! the stride baseline (both small), and a materialized quick-tier tpcc-2
//! cell. A fourth, streamed, runs every prefetch engine at once and is
//! observed, so its snapshots carry each engine's presence flag and
//! state, the trace ring, the profile histograms and the metrics
//! windows. Each is snapshotted after every other step, every snapshot
//! must resume and re-snapshot to the same bytes, and the digests of all
//! of them must equal the values pinned here.

use cdp::sim::Simulator;
use cdp::snap::WordHasher;
use cdp::types::{
    AdaptiveConfig, DeltaConfig, JumpConfig, MarkovConfig, ObsConfig, PerceptronConfig,
    StreamConfig, SystemConfig, TraceConfig,
};
use cdp::workloads::suite::{Benchmark, Scale};
use cdp::workloads::Workload;

/// Digests of the snapshots taken after steps 2, 4, 6, ... of the
/// session, each the [`WordHasher`] digest of the snapshot's bytes.
fn snapshot_digests(cfg: SystemConfig, w: &Workload, obs: Option<&ObsConfig>) -> Vec<u64> {
    let sim = Simulator::new(cfg);
    let mut session = sim.session(w, obs);
    let mut digests = Vec::new();
    let mut steps = 0;
    loop {
        let done = session.step().expect("pinned cells are fault-free");
        steps += 1;
        if steps % 2 == 0 {
            let bytes = session.snapshot();
            let resumed = sim.resume(w, obs, &bytes).expect("snapshot resumes");
            assert!(
                resumed.snapshot() == bytes,
                "{}: step {steps} re-snapshots to other bytes",
                w.name
            );
            let mut h = WordHasher::new();
            h.write(&bytes);
            digests.push(h.finish());
        }
        if done {
            return digests;
        }
    }
}

/// A small streamed cell: 400k uops over smoke-tier footprints, with the
/// experiments' warm-up of one sixth of the run.
fn small_streamed(bench: Benchmark, mut cfg: SystemConfig) -> (SystemConfig, Workload) {
    let scale = Scale {
        target_uops: 400_000,
        ..Scale::smoke()
    };
    cfg.warmup_uops = (scale.target_uops / 6) as u64;
    (cfg, bench.build_with_engine(scale, 7, true))
}

#[test]
fn streamed_content_cell_snapshots_are_pinned() {
    let (cfg, w) = small_streamed(Benchmark::Tpcc1, SystemConfig::with_content());
    assert!(w.is_streamed());
    assert_eq!(snapshot_digests(cfg, &w, None), PINNED_TPCC1_CONTENT);
}

#[test]
fn streamed_stride_cell_snapshots_are_pinned() {
    let (cfg, w) = small_streamed(Benchmark::B2e, SystemConfig::asplos2002());
    assert!(w.is_streamed());
    assert_eq!(snapshot_digests(cfg, &w, None), PINNED_B2E_STRIDE);
}

#[test]
fn materialized_quick_cell_snapshots_are_pinned() {
    let scale = Scale::quick();
    let mut cfg = SystemConfig::with_content();
    cfg.warmup_uops = (scale.target_uops / 6) as u64;
    let w = Benchmark::Tpcc2.build_with_engine(scale, 3, false);
    assert!(!w.is_streamed());
    assert_eq!(snapshot_digests(cfg, &w, None), PINNED_TPCC2_QUICK);
}

#[test]
fn observed_every_engine_cell_snapshots_are_pinned() {
    let mut cfg = SystemConfig::with_content();
    let p = &mut cfg.prefetchers;
    p.adaptive = Some(AdaptiveConfig::default());
    p.markov = Some(MarkovConfig::eighth());
    p.stream = Some(StreamConfig::default());
    p.delta = Some(DeltaConfig::pangloss(16 * 1024));
    p.jump = Some(JumpConfig::sized(16 * 1024));
    p.perceptron = Some(PerceptronConfig::default());
    let (cfg, w) = small_streamed(Benchmark::Tpcc1, cfg);
    assert!(w.is_streamed());
    let obs = ObsConfig {
        trace: Some(TraceConfig {
            capacity: 512,
            ..TraceConfig::default()
        }),
        metrics_window: Some(50_000),
        profile_hist: true,
    };
    assert_eq!(
        snapshot_digests(cfg, &w, Some(&obs)),
        PINNED_TPCC1_EVERY_ENGINE_OBSERVED
    );
}

/// Pinned from the build that introduced this test; see the module
/// comment for when they may change.
const PINNED_TPCC1_CONTENT: [u64; 3] = [
    5_527_889_636_488_437_214,
    14_351_072_767_646_365_894,
    7_641_485_450_877_636_251,
];
const PINNED_B2E_STRIDE: [u64; 3] = [
    18_352_271_074_967_769_331,
    11_201_830_948_437_983_744,
    969_809_463_436_929_316,
];
const PINNED_TPCC2_QUICK: [u64; 7] = [
    5_808_705_264_657_001_868,
    10_265_204_839_660_516_485,
    14_884_253_663_750_692_104,
    771_245_982_548_212_007,
    6_488_032_870_856_696_607,
    4_518_374_537_202_502_821,
    5_876_349_575_538_079_475,
];
const PINNED_TPCC1_EVERY_ENGINE_OBSERVED: [u64; 4] = [
    10_096_239_604_662_903_981,
    16_897_658_365_592_909_584,
    841_212_027_204_753_077,
    18_171_152_608_048_737_434,
];
