//! Deterministic filesystem chaos soak (DESIGN.md §14).
//!
//! A seeded fault injector sits between the result store (and the
//! checkpoint writer) and the real filesystem, serving short writes,
//! out-of-space errors, failed renames, bit-flipped reads, and truncated
//! reads on a fixed schedule. Under any such schedule the contract is:
//! the sweep's *results* are byte-identical to a fault-free reference —
//! durability degrades, correctness never does — and a post-chaos
//! `fsck --repair` leaves the store clean.

use std::sync::Arc;

use cdp::sim::{CheckpointSpec, CheckpointStatus, Pool, ResultCache, RunPolicy, SimJob};
use cdp::store::{FaultConfig, FaultyIo, RealIo, ResultStore, StoreIo};
use cdp::types::{ObsConfig, SystemConfig};
use cdp::workloads::suite::Benchmark;
use cdp_testutil::{tiny_workload, ScratchDir};

/// Prefix of this suite's scratch directories.
const SCRATCH: &str = "cdp-store-chaos";

/// The sweep grid: a handful of distinct cells (benchmark × seed), each
/// with a distinct store key.
fn grid() -> Vec<(Benchmark, u64, u64)> {
    [
        Benchmark::Slsb,
        Benchmark::SpecjbbVsnet,
        Benchmark::Tpcc1,
        Benchmark::B2e,
        Benchmark::Quake,
        Benchmark::Slsb,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, bench)| (bench, 42 + i as u64, 0x9e37_0000 + i as u64))
    .collect()
}

fn jobs_for(cfg: &SystemConfig, cache: Option<&Arc<ResultCache>>) -> Vec<SimJob> {
    grid()
        .into_iter()
        .map(|(bench, seed, key)| {
            let w = Arc::new(tiny_workload(bench, seed));
            let job = SimJob::new(format!("{bench:?}-{seed}"), cfg.clone(), w);
            match cache {
                Some(c) => job.with_result_cache(Arc::clone(c), key),
                None => job,
            }
        })
        .collect()
}

fn run_grid(pool: &Pool, cfg: &SystemConfig, cache: Option<&Arc<ResultCache>>) -> Vec<String> {
    pool.run_sims_profiled(jobs_for(cfg, cache), RunPolicy::default())
        .into_iter()
        .map(|r| format!("{}: {:?}", r.label, r.outcome.ok().expect("cell succeeds")))
        .collect()
}

/// The soak: the same grid under several fault seeds, at `--jobs 1` and
/// `--jobs 4`, must reproduce the fault-free reference exactly, and the
/// injector must actually have fired.
#[test]
fn chaos_sweep_is_byte_identical_to_fault_free_reference() {
    let cfg = SystemConfig::with_content();
    let reference = run_grid(&Pool::new(1), &cfg, None);
    for fault_seed in [1_u64, 0xc0ffee, 0xdead_beef] {
        for jobs in [1_usize, 4] {
            let dir = ScratchDir::new(SCRATCH, &format!("soak-{fault_seed:x}-j{jobs}"));
            let io = Arc::new(FaultyIo::new(RealIo, FaultConfig::aggressive(fault_seed)));
            let store = Arc::new(
                ResultStore::open_with(&*dir, io.clone() as Arc<dyn StoreIo>)
                    .expect("store opens under fault injection"),
            );
            let cache = Arc::new(ResultCache::with_store(Arc::clone(&store)));
            let chaotic = run_grid(&Pool::new(jobs), &cfg, Some(&cache));
            assert_eq!(
                reference, chaotic,
                "results diverged under fault seed {fault_seed:#x} at {jobs} job(s)"
            );
            assert!(
                io.counts().total() > 0,
                "fault schedule {fault_seed:#x} never fired — soak is vacuous"
            );
            // Post-chaos: repair, then the store must scan clean.
            let clean = ResultStore::open(&*dir).expect("reopen with real io");
            let report = clean.fsck(true).expect("repairing fsck");
            drop(report);
            let report = clean.fsck(false).expect("post-repair fsck");
            assert!(report.is_clean(), "store dirty after repair: {report:?}");
        }
    }
}

/// Fault-free persistence contract: a second process-equivalent sweep
/// over a warm store replays every cell from disk — zero store misses —
/// with results identical to the cold pass.
#[test]
fn warm_store_replays_every_cell_with_zero_misses() {
    let cfg = SystemConfig::with_content();
    let dir = ScratchDir::new(SCRATCH, "warm");
    let reference = run_grid(&Pool::new(1), &cfg, None);

    let cold_store = Arc::new(ResultStore::open(&*dir).expect("open cold"));
    let cache = Arc::new(ResultCache::with_store(Arc::clone(&cold_store)));
    let cold = run_grid(&Pool::new(4), &cfg, Some(&cache));
    assert_eq!(reference, cold);
    let s = cold_store.stats();
    assert_eq!(s.hits, 0, "cold store has nothing to replay");
    assert_eq!(s.misses, grid().len() as u64);
    assert_eq!(s.write_failures, 0, "fault-free cold pass persists all");
    drop(cache);
    drop(cold_store);

    let warm_store = Arc::new(ResultStore::open(&*dir).expect("open warm"));
    let cache = Arc::new(ResultCache::with_store(Arc::clone(&warm_store)));
    let warm = run_grid(&Pool::new(4), &cfg, Some(&cache));
    assert_eq!(reference, warm, "warm replay diverged");
    let s = warm_store.stats();
    assert_eq!(s.misses, 0, "warm sweep must replay every cell from disk");
    assert_eq!(s.hits, grid().len() as u64);
    assert_eq!(s.quarantined, 0);
}

/// Chaos threads through checkpoint writes too: a checkpointed cell
/// whose checkpoint I/O is fully faulty still completes with reference
/// results, surfacing dropped checkpoint writes in the status counter
/// instead of failing the run.
#[test]
fn checkpointed_run_survives_faulty_checkpoint_io() {
    let cfg = {
        let mut c = SystemConfig::with_content();
        c.warmup_uops = 5_000;
        c
    };
    let w = Arc::new(tiny_workload(Benchmark::Slsb, 42));
    // Tight metrics windows give the run many step boundaries, so the
    // checkpoint cadence below actually produces writes to fault.
    let obs = ObsConfig {
        trace: None,
        metrics_window: Some(4_000),
        profile_hist: true,
    };
    let reference = SimJob::new("ref", cfg.clone(), Arc::clone(&w))
        .with_obs(obs.clone())
        .try_execute()
        .expect("reference cell");

    for fault_seed in [3_u64, 0xfeed] {
        let dir = ScratchDir::new(SCRATCH, &format!("ckpt-{fault_seed:x}"));
        // Checkpoint writes happen only at step boundaries, so the
        // schedule is denser than the store soak's to guarantee fire.
        let faults = FaultConfig {
            seed: fault_seed,
            write_error_period: 2,
            write_short_period: 3,
            rename_error_period: 3,
            read_flip_period: 2,
            read_truncate_period: 3,
        };
        let io = Arc::new(FaultyIo::new(RealIo, faults));
        let status = CheckpointStatus::shared();
        let spec = CheckpointSpec {
            dir: dir.to_path_buf(),
            every: 1,
            key: 0xc0ffee,
            resume: true,
            status: Some(Arc::clone(&status)),
            io: Some(io.clone() as Arc<dyn StoreIo>),
        };
        let stats = SimJob::new("chaos", cfg.clone(), Arc::clone(&w))
            .with_obs(obs.clone())
            .with_checkpoint(spec)
            .try_execute()
            .expect("checkpointed run under fault injection");
        assert_eq!(
            format!("{reference:?}"),
            format!("{stats:?}"),
            "checkpoint chaos (seed {fault_seed:#x}) changed results"
        );
        let counts = io.counts();
        assert!(
            counts.total() > 0,
            "fault schedule {fault_seed:#x} never fired"
        );
        // Every failed write or rename maps to exactly one surfaced
        // dropped-write (satellite 1: nothing is silently eaten); short
        // writes "succeed" and are caught at resume-read instead.
        assert_eq!(
            status.dropped_writes(),
            counts.write_errors + counts.rename_errors,
            "dropped checkpoint writes not surfaced in the status counter"
        );
    }
}

/// Killing a writer mid-publication leaves `.part` litter; the next open
/// (same dir, new process-equivalent) sweeps it and the store keeps
/// working.
#[test]
fn reopen_after_torn_write_recovers() {
    let dir = ScratchDir::new(SCRATCH, "torn");
    // A schedule where every write is short: the publication rename then
    // publishes a torn file, which must be caught at read and recomputed.
    let cfg = FaultConfig {
        seed: 9,
        write_error_period: 0,
        write_short_period: 1,
        rename_error_period: 0,
        read_flip_period: 0,
        read_truncate_period: 0,
    };
    let io = Arc::new(FaultyIo::new(RealIo, cfg));
    let store =
        ResultStore::open_with(&*dir, io as Arc<dyn StoreIo>).expect("open with torn writes");
    store.put(77, b"will be torn");
    assert_eq!(store.get(77), None, "torn entry must not replay");
    assert_eq!(store.stats().quarantined, 1);

    // New handle on the real filesystem: store still consistent.
    let store = ResultStore::open(&*dir).expect("reopen");
    store.put(77, b"recomputed");
    assert_eq!(store.get(77).as_deref(), Some(&b"recomputed"[..]));
    let report = store.fsck(false).expect("fsck");
    assert!(report.is_clean(), "{report:?}");
}
