//! Differential snapshot/resume harness (DESIGN.md §12).
//!
//! The checkpointing contract is `resume(snapshot(S))` continues
//! *bit-identically*: a run interrupted at any step boundary and resumed
//! in a brand-new process-equivalent (fresh `Simulator`, fresh
//! `SimSession`) must produce the same `RunStats`, the same metrics
//! windows, and the same trace events as the uninterrupted reference.
//! These tests enforce that contract across benchmarks, with randomized
//! snapshot points, with fault injection live, and through an actual
//! on-disk round trip — plus the corruption paths (truncation, bit
//! flips, wrong fingerprint, future version), which must all surface as
//! typed errors, never panics.

use std::sync::Arc;

use cdp::sim::{
    CheckpointSpec, CheckpointStatus, ResultSource, SimJob, SimSession, Simulator, WalkFault,
};
use cdp::types::{
    CdpError, DeltaConfig, JumpConfig, ObsConfig, PerceptronConfig, SnapshotError, SystemConfig,
    TraceConfig,
};
use cdp::workloads::suite::{Benchmark, Scale};
use cdp::workloads::Workload;
use cdp_testutil::{seeded_rng, tiny_workload, ScratchDir};

/// Prefix of this suite's scratch directories.
const SCRATCH: &str = "cdp-snapshot-resume";

/// An observability config exercising both capture paths (trace ring +
/// metrics windows). Small windows give every smoke run several step
/// boundaries to snapshot at.
fn obs_cfg() -> ObsConfig {
    ObsConfig {
        trace: Some(TraceConfig::default()),
        metrics_window: Some(4_000),
        profile_hist: true,
    }
}

/// Counts the step boundaries (`step()` returning `false`) a session
/// passes through before completion.
fn count_steps(sim: &Simulator, w: &Workload, obs: Option<&ObsConfig>) -> usize {
    let mut session = sim.session(w, obs);
    let mut steps = 0;
    while !session.step().expect("reference run is fault-free") {
        steps += 1;
    }
    steps
}

/// Runs uninterrupted, then re-runs with a snapshot/drop/resume at step
/// `cut`, and asserts stats + observation are identical. Returns the
/// snapshot bytes so callers can reuse them for corruption tests.
fn assert_roundtrip_at(
    cfg: &SystemConfig,
    walk_fault: Option<WalkFault>,
    w: &Workload,
    obs: Option<&ObsConfig>,
    cut: usize,
) -> Vec<u8> {
    let build = |cfg: &SystemConfig| {
        let sim = Simulator::new(cfg.clone());
        match walk_fault {
            Some(f) => sim.with_walk_fault(f),
            None => sim,
        }
    };
    // Reference: uninterrupted.
    let sim = build(cfg);
    let mut reference = sim.session(w, obs);
    while !reference.step().expect("reference run") {}
    let (ref_stats, ref_obs) = reference.finish();

    // Interrupted: step to `cut`, snapshot, throw the session (and the
    // simulator) away, resume in fresh ones.
    let sim = build(cfg);
    let mut session = sim.session(w, obs);
    for s in 0..cut {
        assert!(
            !session.step().expect("pre-cut step"),
            "run ended at step {s}, cut {cut} too late"
        );
    }
    let bytes = session.snapshot();
    drop(session);

    let sim = build(cfg);
    let mut resumed: SimSession = sim.resume(w, obs, &bytes).expect("snapshot resumes");
    while !resumed.step().expect("post-cut step") {}
    let (stats, observation) = resumed.finish();

    assert_eq!(
        format!("{ref_stats:?}"),
        format!("{stats:?}"),
        "RunStats diverged after resume at step {cut}"
    );
    assert_eq!(
        ref_obs.windows, observation.windows,
        "metrics windows diverged"
    );
    assert_eq!(ref_obs.events, observation.events, "trace events diverged");
    assert_eq!(ref_obs.trace_recorded, observation.trace_recorded);
    assert_eq!(ref_obs.trace_overwritten, observation.trace_overwritten);
    assert_eq!(ref_obs.trace_sampled_out, observation.trace_sampled_out);
    // Histogram state (bucket counts, min/max, totals) must round-trip
    // through the snapshot bit-identically, not just the percentiles.
    assert_eq!(
        ref_obs.profile, observation.profile,
        "latency profile diverged"
    );
    if obs.is_some_and(|o| o.profile_hist) {
        let p = ref_obs.profile.as_ref().expect("profile collected");
        assert!(!p.load_to_use.is_empty(), "profile recorded load samples");
    }
    bytes
}

#[test]
fn randomized_cuts_across_benchmarks_are_bit_identical() {
    // Fault injection stays live through the snapshot: every 64th
    // prefetch-candidate walk fails, so the squash path state must
    // round-trip too.
    let fault = WalkFault {
        period: 64,
        demand: false,
    };
    let cfg = SystemConfig::with_content();
    let obs = obs_cfg();
    let mut rng = seeded_rng(0x5eed_0001);
    for (i, bench) in [
        Benchmark::Slsb,
        Benchmark::SpecjbbVsnet,
        Benchmark::Tpcc1,
        Benchmark::B2e,
        Benchmark::Quake,
    ]
    .into_iter()
    .enumerate()
    {
        let w = tiny_workload(bench, 42 + i as u64);
        let sim = Simulator::new(cfg.clone()).with_walk_fault(fault);
        let steps = count_steps(&sim, &w, Some(&obs));
        assert!(steps >= 2, "{bench:?} too short to cut: {steps} step(s)");
        // A randomized interior cut, plus the first boundary (the
        // warm-up hand-off, the trickiest state transition).
        let cut = 1 + rng.gen_range_usize(1..steps);
        assert_roundtrip_at(&cfg, Some(fault), &w, Some(&obs), cut);
        assert_roundtrip_at(&cfg, Some(fault), &w, Some(&obs), 1);
    }
}

#[test]
fn zoo_engines_roundtrip_at_randomized_cuts() {
    // Every engine added by the tournament zoo carries its own snapshot
    // section (delta table, jump table, perceptron weights); each gets
    // the same randomized-cut differential treatment as the content
    // engine — resume mid-cell, bit-identical finish — plus the
    // corrupt-section checks on its snapshot bytes.
    let configs: Vec<(&str, SystemConfig)> = vec![
        (
            "delta",
            SystemConfig::with_delta(DeltaConfig::pangloss(16 * 1024)),
        ),
        (
            "jump",
            SystemConfig::with_jump(JumpConfig::sized(16 * 1024)),
        ),
        (
            "cdp+perceptron",
            SystemConfig::with_content()
                .gated(PerceptronConfig::with_budget(16 * 1024).expect("budget fits")),
        ),
    ];
    let obs = obs_cfg();
    let mut rng = seeded_rng(0x5eed_0004);
    for (i, (name, cfg)) in configs.into_iter().enumerate() {
        let w = tiny_workload(Benchmark::Tpcc1, 77 + i as u64);
        let sim = Simulator::new(cfg.clone());
        let steps = count_steps(&sim, &w, Some(&obs));
        assert!(steps >= 2, "{name}: too short to cut ({steps} step(s))");
        let cut = 1 + rng.gen_range_usize(1..steps);
        let bytes = assert_roundtrip_at(&cfg, None, &w, Some(&obs), cut);
        // A corrupted engine section must surface as a typed error: flip
        // a byte in the back half of the snapshot, where the hierarchy's
        // engine chain (and thus the new engine's table) lives.
        for _ in 0..4 {
            let mut flipped = bytes.clone();
            let at = rng.gen_range_usize(bytes.len() / 2..bytes.len());
            flipped[at] ^= 0x01;
            assert!(
                matches!(
                    sim.resume(&w, Some(&obs), &flipped),
                    Err(CdpError::Snapshot(_))
                ),
                "{name}: flipped byte at {at} must be a typed error"
            );
        }
        // And a snapshot from a zoo config must refuse to resume on a
        // system without that engine (fingerprint mismatch).
        let other = Simulator::new(SystemConfig::asplos2002());
        assert!(
            matches!(
                other.resume(&w, Some(&obs), &bytes),
                Err(CdpError::Snapshot(
                    SnapshotError::FingerprintMismatch { .. }
                ))
            ),
            "{name}: snapshot must be pinned to its engine config"
        );
    }
}

#[test]
fn plain_sessions_roundtrip_at_fault_check_boundaries() {
    // Without observability the session steps in coarse fault-check
    // windows; a larger-than-smoke run gives it interior boundaries.
    let scale = Scale {
        target_uops: 150_000,
        footprint_div: 16,
    };
    let w = Benchmark::Slsb.build(scale, 7);
    let mut cfg = SystemConfig::with_content();
    cfg.warmup_uops = 10_000;
    let sim = Simulator::new(cfg.clone());
    let steps = count_steps(&sim, &w, None);
    assert!(steps >= 2, "expected interior boundaries, got {steps}");
    let mut rng = seeded_rng(0x5eed_0002);
    let cut = 1 + rng.gen_range_usize(0..steps);
    assert_roundtrip_at(&cfg, None, &w, None, cut);
}

#[test]
fn disk_roundtrip_and_every_corruption_is_a_typed_error() {
    let cfg = SystemConfig::with_content();
    let obs = obs_cfg();
    let w = tiny_workload(Benchmark::SpecjbbVsnet, 42);
    let bytes = assert_roundtrip_at(&cfg, None, &w, Some(&obs), 2);

    // Through the filesystem: what a checkpoint file actually does.
    let dir = ScratchDir::new(SCRATCH, "disk");
    let path = dir.join("cell.snap");
    std::fs::write(&path, &bytes).expect("write checkpoint");
    let read = std::fs::read(&path).expect("read checkpoint");
    let sim = Simulator::new(cfg.clone());
    let mut resumed = sim.resume(&w, Some(&obs), &read).expect("disk roundtrip");
    while !resumed.step().expect("resumed run") {}

    // Truncation at randomized points: typed error, never a panic.
    let mut rng = seeded_rng(0x5eed_0003);
    for _ in 0..16 {
        let len = rng.gen_range_usize(0..bytes.len());
        assert!(
            matches!(
                sim.resume(&w, Some(&obs), &bytes[..len]),
                Err(CdpError::Snapshot(_))
            ),
            "truncation to {len} bytes must be a typed error"
        );
    }

    // A flipped byte anywhere past the header breaks a checksum (or the
    // structure); either way it is a typed error.
    for _ in 0..16 {
        let mut flipped = bytes.clone();
        let at = rng.gen_range_usize(24..flipped.len());
        flipped[at] ^= 0x80;
        assert!(
            matches!(
                sim.resume(&w, Some(&obs), &flipped),
                Err(CdpError::Snapshot(_))
            ),
            "flipped byte at {at} must be a typed error"
        );
    }

    // Wrong fingerprint: the same bytes offered to a different config.
    let other = Simulator::new(SystemConfig::asplos2002());
    assert!(matches!(
        other.resume(&w, Some(&obs), &bytes),
        Err(CdpError::Snapshot(
            SnapshotError::FingerprintMismatch { .. }
        ))
    ));

    // Future format version (bytes 8..12, after the 8-byte magic).
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        sim.resume(&w, Some(&obs), &future),
        Err(CdpError::Snapshot(SnapshotError::UnsupportedVersion {
            found: 99,
            ..
        }))
    ));

    // Bad magic.
    let mut bad = bytes;
    bad[0] ^= 0xff;
    assert!(matches!(
        sim.resume(&w, Some(&obs), &bad),
        Err(CdpError::Snapshot(SnapshotError::BadMagic))
    ));
}

#[test]
fn simjob_checkpointing_reports_provenance_and_stays_identical() {
    // Warm-up gives the plain (coarse-window) session a step boundary to
    // seed mid-run checkpoints at.
    let mut cfg = SystemConfig::with_content();
    cfg.warmup_uops = 5_000;
    let w = Arc::new(tiny_workload(Benchmark::Slsb, 42));
    let reference = SimJob::new("ref", cfg.clone(), Arc::clone(&w))
        .try_execute()
        .expect("reference cell");
    let dir = ScratchDir::new(SCRATCH, "job");
    let spec = |resume: bool, status: &Arc<CheckpointStatus>| CheckpointSpec {
        dir: dir.to_path_buf(),
        every: 10_000,
        key: 0xc0ffee,
        resume,
        status: Some(Arc::clone(status)),
        io: None,
    };

    // Fresh: no checkpoint on disk.
    let status = CheckpointStatus::shared();
    let stats = SimJob::new("fresh", cfg.clone(), Arc::clone(&w))
        .with_checkpoint(spec(true, &status))
        .try_execute()
        .expect("fresh cell");
    assert_eq!(status.get(), ResultSource::Fresh);
    assert_eq!(format!("{reference:?}"), format!("{stats:?}"));

    let path = dir.join(format!("cell-{:016x}.snap", 0xc0ffeeu64));
    assert!(
        !path.exists(),
        "completed cells must remove their checkpoint"
    );

    // Resumed: seed a genuine mid-run checkpoint, then run the job.
    let sim = Simulator::new(cfg.clone());
    let mut session = sim.session(&w, None);
    assert!(!session.step().expect("seed step"));
    std::fs::write(&path, session.snapshot()).expect("seed checkpoint");
    let status = CheckpointStatus::shared();
    let stats = SimJob::new("resumed", cfg.clone(), Arc::clone(&w))
        .with_checkpoint(spec(true, &status))
        .try_execute()
        .expect("resumed cell");
    assert_eq!(status.get(), ResultSource::CheckpointResumed);
    assert_eq!(format!("{reference:?}"), format!("{stats:?}"));
    assert!(!path.exists());

    // Corrupt fallback: garbage on disk restarts fresh, same result.
    std::fs::write(&path, b"not a snapshot").expect("garbage checkpoint");
    let status = CheckpointStatus::shared();
    let stats = SimJob::new("corrupt", cfg.clone(), Arc::clone(&w))
        .with_checkpoint(spec(true, &status))
        .try_execute()
        .expect("corrupt-fallback cell");
    assert_eq!(status.get(), ResultSource::CorruptFallback);
    assert_eq!(format!("{reference:?}"), format!("{stats:?}"));

    // resume=false ignores a present checkpoint entirely.
    let mut session = Simulator::new(cfg.clone()).session(&w, None);
    assert!(!session.step().expect("seed step"));
    std::fs::write(&path, session.snapshot()).expect("seed checkpoint");
    let status = CheckpointStatus::shared();
    let stats = SimJob::new("no-resume", cfg, Arc::clone(&w))
        .with_checkpoint(spec(false, &status))
        .try_execute()
        .expect("no-resume cell");
    assert_eq!(status.get(), ResultSource::Fresh);
    assert_eq!(format!("{reference:?}"), format!("{stats:?}"));
}

/// An observed job checkpoints into a file of its own, named by its key
/// hashed with its `ObsConfig`: its snapshots carry the observed run
/// fingerprint and resume only into a session observed the same way. So
/// a plain run over the same directory starts fresh (not
/// `CorruptFallback`) and leaves the observed checkpoint alone, and the
/// observed run then resumes from it. The checkpoint is seeded by hand,
/// so no kill has to land at the right moment.
#[test]
fn an_observed_checkpoint_is_neither_corrupt_nor_overwritten_for_a_plain_run() {
    let mut cfg = SystemConfig::with_content();
    cfg.warmup_uops = 5_000;
    let w = Arc::new(tiny_workload(Benchmark::Slsb, 42));
    let obs = ObsConfig {
        metrics_window: Some(4_000),
        ..ObsConfig::default()
    };
    let dir = ScratchDir::new(SCRATCH, "observed-name");
    let job = |observed: bool, status: &Arc<CheckpointStatus>| {
        let job =
            SimJob::new("cell", cfg.clone(), Arc::clone(&w)).with_checkpoint(CheckpointSpec {
                dir: dir.to_path_buf(),
                every: 0,
                key: 0xc0ffee,
                resume: true,
                status: Some(Arc::clone(status)),
                io: None,
            });
        if !observed {
            return job;
        }
        job.with_obs(obs.clone())
    };
    let unused = CheckpointStatus::shared();
    let plain_path = job(false, &unused)
        .checkpoint_path()
        .expect("spec attached");
    let observed_path = job(true, &unused).checkpoint_path().expect("spec attached");
    assert_eq!(
        plain_path,
        dir.join(format!("cell-{:016x}.snap", 0xc0ffeeu64))
    );
    assert_ne!(observed_path, plain_path, "the ObsConfig names the file");

    // An observed session, two windows in, checkpointed where the
    // observed job looks.
    let sim = Simulator::new(cfg.clone());
    let mut session = sim.session(&w, Some(&obs));
    for _ in 0..2 {
        assert!(!session.step().expect("seed step"));
    }
    std::fs::write(&observed_path, session.snapshot()).expect("seed checkpoint");

    let plain_reference = SimJob::new("ref", cfg.clone(), Arc::clone(&w))
        .try_execute()
        .expect("plain reference");
    let status = CheckpointStatus::shared();
    let stats = job(false, &status).try_execute().expect("plain cell");
    assert_eq!(status.get(), ResultSource::Fresh);
    assert_eq!(format!("{plain_reference:?}"), format!("{stats:?}"));
    assert!(
        observed_path.exists(),
        "the plain run kept the observed checkpoint"
    );

    let status = CheckpointStatus::shared();
    let stats = job(true, &status).try_execute().expect("observed cell");
    assert_eq!(status.get(), ResultSource::CheckpointResumed);
    assert_eq!(format!("{plain_reference:?}"), format!("{stats:?}"));
    assert!(
        !observed_path.exists(),
        "a finished cell removes its checkpoint"
    );
}
