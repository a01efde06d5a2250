//! Concurrency contract of the sharded [`ResultCache`] (DESIGN.md §8):
//!
//! * raw `get`/`put` from 8 threads with stripe-colliding fingerprints
//!   never lose or cross-wire an entry;
//! * hit/miss counters are exact — every job is counted exactly once,
//!   no matter how the threads interleave;
//! * a cache hit replays bit-identical `RunStats` and, for observed
//!   jobs, a bit-identical `Observation` into the job's report.

use std::sync::Arc;

use cdp::sim::{Pool, ResultCache, RunPolicy, RunStats, SimJob, WorkloadCache, CACHE_STRIPES};
use cdp::types::{ObsConfig, SystemConfig};
use cdp::workloads::suite::Benchmark;
use cdp_testutil::{default_workload, tiny_workload};

/// Runs `jobs` on `pool`, returning each job's stats in submission order.
fn run_all(pool: &Pool, jobs: Vec<SimJob>) -> Vec<RunStats> {
    pool.run_sims_profiled(jobs, RunPolicy::default())
        .into_iter()
        .map(|r| r.outcome.ok().expect("job succeeds"))
        .collect()
}

/// Eight threads hammer raw get/put with keys deliberately congruent
/// modulo the stripe count (maximal lock collisions) plus spread keys.
/// Every inserted entry must come back from the stripe it hashed to,
/// with the exact value stored under that key.
#[test]
fn colliding_fingerprints_never_lose_or_cross_wire_entries() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 64;
    let cache = Arc::new(ResultCache::new());
    let w = Arc::new(default_workload());
    // One real template result to clone (contents don't matter — identity
    // per key is established via the distinguishable `cycles` field).
    let template = SimJob::new("tpl", SystemConfig::asplos2002(), Arc::clone(&w))
        .try_execute()
        .expect("template run");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Half the keys share one stripe (low bits fixed to
                    // t % STRIPES), half spread; all globally unique.
                    let key = if i % 2 == 0 {
                        (t % CACHE_STRIPES as u64) | ((t * PER_THREAD + i) << 8)
                    } else {
                        (t * PER_THREAD + i) << 4 | t
                    };
                    let mut stats = template;
                    stats.cycles = key; // distinguishable payload
                    cache.put(key, stats, None);
                    let (got, obs) = cache.get(key).expect("just inserted");
                    assert_eq!(got.cycles, key, "entry cross-wired between keys");
                    assert!(obs.is_none());
                }
            });
        }
    });
    assert_eq!(
        cache.len(),
        (THREADS * PER_THREAD) as usize,
        "no entry lost"
    );
}

/// 8 identical jobs race on one fingerprint through a real pool: the
/// counters must account for every job exactly once (hits + misses = 8),
/// at least one job must have simulated, and every job must report the
/// same stats. A second wave is then all hits.
#[test]
fn racing_jobs_on_one_key_count_exactly_and_replay_identically() {
    let cache = Arc::new(ResultCache::new());
    let w = Arc::new(default_workload());
    let key = 0xfeed_beef_u64;
    let build_jobs = || -> Vec<SimJob> {
        (0..8)
            .map(|i| {
                SimJob::new(
                    format!("cell-{i}"),
                    SystemConfig::with_content(),
                    Arc::clone(&w),
                )
                .with_result_cache(Arc::clone(&cache), key)
            })
            .collect()
    };
    let pool = Pool::new(8);
    let first = run_all(&pool, build_jobs());
    assert_eq!(
        cache.hits() + cache.misses(),
        8,
        "every job counted exactly once"
    );
    assert!(cache.misses() >= 1, "someone simulated");
    assert_eq!(cache.len(), 1, "one distinct cell");
    for r in &first {
        assert_eq!(r.cycles, first[0].cycles, "replayed stats identical");
        assert_eq!(r.retired, first[0].retired);
    }
    let (h0, m0) = (cache.hits(), cache.misses());
    let second = run_all(&pool, build_jobs());
    assert_eq!(cache.hits(), h0 + 8, "second wave is all hits");
    assert_eq!(cache.misses(), m0, "second wave simulated nothing");
    assert_eq!(second[0].cycles, first[0].cycles);
}

/// Observed jobs racing on one key: whoever misses records the
/// observation; every hit replays an identical copy into its report.
#[test]
fn observed_hits_replay_identical_observations() {
    let cache = Arc::new(ResultCache::new());
    let w = Arc::new(default_workload());
    let key = 0xcafe_f00d_u64;
    let obs_cfg = ObsConfig {
        trace: None,
        metrics_window: Some(16_384),
        profile_hist: true,
    };
    let jobs: Vec<SimJob> = (0..8)
        .map(|i| {
            SimJob::new(
                format!("obs-{i}"),
                SystemConfig::with_content(),
                Arc::clone(&w),
            )
            .with_result_cache(Arc::clone(&cache), key)
            .with_obs(obs_cfg.clone())
        })
        .collect();
    let observations: Vec<_> = Pool::new(8)
        .run_sims_profiled(jobs, RunPolicy::default())
        .into_iter()
        .map(|r| r.observation.expect("every observed job delivered"))
        .collect();
    let reference = &observations[0];
    for o in &observations {
        assert_eq!(
            o.windows.len(),
            reference.windows.len(),
            "replayed observation differs in window count"
        );
        for (a, b) in o.windows.iter().zip(reference.windows.iter()) {
            assert_eq!(a.retired, b.retired, "windows diverge");
            assert_eq!(a.cycles, b.cycles, "windows diverge");
        }
    }
    assert_eq!(cache.hits() + cache.misses(), 8);
}

/// The sharded workload cache still builds each image once per key and
/// shares it by Arc under cross-benchmark concurrency.
#[test]
fn workload_cache_shards_share_images() {
    let cache = Arc::new(WorkloadCache::new());
    let benches = [
        Benchmark::B2b,
        Benchmark::B2e,
        Benchmark::Quake,
        Benchmark::Rc3,
        Benchmark::Tpcc1,
        Benchmark::Slsb,
        Benchmark::ProE,
        Benchmark::SpecjbbVsnet,
    ];
    std::thread::scope(|s| {
        for &b in &benches {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                let scale = cdp_testutil::smoke();
                let first = cache.get_with(b, scale, || tiny_workload(b, 7));
                let again = cache.get_with(b, scale, || tiny_workload(b, 7));
                assert!(Arc::ptr_eq(&first, &again), "image rebuilt despite cache");
            });
        }
    });
    assert_eq!(cache.len(), benches.len());
}
