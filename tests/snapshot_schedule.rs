//! Snapshots do not depend on the schedule (DESIGN.md §13).
//!
//! Fast-forward on (wake-up issue, barren cycles skipped) and off (every
//! cycle stepped, the whole ROB scanned) must be indistinguishable at
//! every retirement boundary: each window's `SimSession::snapshot()` is
//! byte-identical under both schedules, and a run checkpointed under one
//! schedule and resumed under the other ends with the uninterrupted
//! run's `RunStats`.
//!
//! The schedule is the process-global `cdp_sim::set_fast_forward`, read
//! when a session is built; every session here is built through
//! [`on_schedule`], which serializes those reads.

use std::sync::Mutex;

use cdp::sim::{set_fast_forward, SimSession, Simulator};
use cdp::types::{MarkovConfig, ObsConfig, SystemConfig};
use cdp::workloads::suite::Benchmark;
use cdp::workloads::Workload;
use cdp_testutil::{seeded_rng, tiny_workload};

/// Guards the process-global schedule switch while a session is built.
static SCHEDULE: Mutex<()> = Mutex::new(());

/// Builds a session (fresh, or resumed from `snapshot`) on the fast
/// schedule or on the reference one.
fn on_schedule<'w>(
    sim: &Simulator,
    w: &'w Workload,
    obs: &ObsConfig,
    fast: bool,
    snapshot: Option<&[u8]>,
) -> SimSession<'w> {
    let _guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
    set_fast_forward(fast);
    let session = match snapshot {
        Some(bytes) => sim.resume(w, Some(obs), bytes).expect("snapshot resumes"),
        None => sim.session(w, Some(obs)),
    };
    set_fast_forward(true);
    session
}

/// Smoke-scale 1024-uop windows: many retirement boundaries per run.
fn windows() -> ObsConfig {
    ObsConfig {
        metrics_window: Some(1024),
        ..ObsConfig::default()
    }
}

/// The baseline, the content prefetcher, and Figure 11's half STAB.
fn configs() -> [(&'static str, SystemConfig); 3] {
    [
        ("asplos2002", SystemConfig::asplos2002()),
        ("with_content", SystemConfig::with_content()),
        (
            "markov_1/2",
            SystemConfig::with_markov(MarkovConfig::half(), 512 * 1024, 8),
        ),
    ]
}

const BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Slsb,
    Benchmark::Tpcc1,
    Benchmark::B2e,
    Benchmark::VerilogGate,
];

#[test]
fn every_window_snapshot_is_identical_under_both_schedules() {
    let obs = windows();
    let mut compared = 0;
    for (name, cfg) in configs() {
        let sim = Simulator::new(cfg);
        for (i, bench) in BENCHMARKS.into_iter().enumerate() {
            let w = tiny_workload(bench, 42 + i as u64);
            let mut fast = on_schedule(&sim, &w, &obs, true, None);
            let mut reference = on_schedule(&sim, &w, &obs, false, None);
            for window in 0.. {
                let done = fast.step().expect("fast run");
                assert_eq!(done, reference.step().expect("reference run"));
                assert!(
                    fast.snapshot() == reference.snapshot(),
                    "{name} {bench:?}: snapshots differ after window {window}"
                );
                compared += 1;
                if done {
                    break;
                }
            }
        }
    }
    assert!(compared > 100, "only {compared} windows compared");
}

#[test]
fn a_checkpoint_resumes_under_the_other_schedule() {
    let obs = windows();
    let mut rng = seeded_rng(0x5c4e_d01e);
    for (name, cfg) in configs() {
        let sim = Simulator::new(cfg);
        for (i, bench) in BENCHMARKS.into_iter().enumerate() {
            let w = tiny_workload(bench, 42 + i as u64);
            let mut whole = on_schedule(&sim, &w, &obs, true, None);
            let mut steps = 0;
            while !whole.step().expect("uninterrupted run") {
                steps += 1;
            }
            let want = format!("{:?}", whole.finish().0);
            let cut = rng.gen_range_usize_incl(0..=steps);
            for taken_fast in [true, false] {
                let mut first = on_schedule(&sim, &w, &obs, taken_fast, None);
                for _ in 0..cut {
                    assert!(!first.step().expect("pre-cut step"));
                }
                let bytes = first.snapshot();
                let mut resumed = on_schedule(&sim, &w, &obs, !taken_fast, Some(&bytes));
                while !resumed.step().expect("resumed run") {}
                assert_eq!(
                    format!("{:?}", resumed.finish().0),
                    want,
                    "{name} {bench:?}: taken fast={taken_fast} at step {cut}, resumed on the other schedule"
                );
            }
        }
    }
}
