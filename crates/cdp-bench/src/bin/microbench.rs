//! Std-only microbenchmarks of the simulator's hot kernels.
//!
//! ```text
//! microbench
//! ```
//!
//! Times the per-access kernels the hot-path optimization rounds target —
//! cache access/fill, physical line reads, the VAM scan, MSHR
//! insert/drain, snapshot encoding, streaming uop synthesis, and
//! result-cache contention — with
//! plain `Instant` loops, and prints one JSON object of `<kernel>_ns`
//! point estimates to stdout (a traced `simbench` run reads it). Any
//! argument is a usage error (exit 2).
//!
//! Wall-clock numbers are machine-dependent by nature; everything else
//! about the run (inputs, iteration counts, seeds) is fixed so two runs
//! on the same machine are comparable.

use std::time::Instant;

use cdp_bench::time_ns_per_iter;
use cdp_mem::{Cache, MshrFile, PhysMem};
use cdp_obs::Json;
use cdp_prefetch::scan_line;
use cdp_sim::{ResultCache, RunStats, Simulator};
use cdp_types::{LineAddr, PhysAddr, RequestKind, SystemConfig, VamConfig, VirtAddr, LINE_SIZE};
use cdp_workloads::suite::Benchmark;

/// Resident-hit access over a 1 MiB-equivalent flat cache.
fn cache_access_hit() -> f64 {
    let mut cache: Cache<u8> = Cache::new(2048, 8, 64);
    for i in 0..16_384u32 {
        cache.fill(i * 64, 0);
    }
    time_ns_per_iter(100_000, 5, |i| {
        let addr = ((i as u32) % 16_384) * 64;
        std::hint::black_box(cache.access(std::hint::black_box(addr)).is_some());
    })
}

/// Streaming fill that evicts on every insertion.
fn cache_fill_evict() -> f64 {
    let mut cache: Cache<u8> = Cache::new(256, 4, 64);
    for i in 0..1024u32 {
        cache.fill(i * 64, 0);
    }
    time_ns_per_iter(100_000, 5, |i| {
        let addr = (i as u32).wrapping_mul(64).wrapping_add(0x10_0000);
        std::hint::black_box(cache.fill(std::hint::black_box(addr), 1));
    })
}

/// One-frame-lookup line read through the direct-indexed frame table.
fn phys_read_line_into() -> f64 {
    let mut mem = PhysMem::new();
    const FRAMES: u32 = 256;
    for f in 0..FRAMES {
        for off in (0..4096).step_by(64) {
            mem.write_u32(PhysAddr(f * 4096 + off), f ^ off);
        }
    }
    let mut out = [0u8; LINE_SIZE];
    time_ns_per_iter(100_000, 5, |i| {
        let line = ((i as u32).wrapping_mul(64)) % (FRAMES * 4096);
        mem.read_line_into(LineAddr(std::hint::black_box(line)), &mut out);
        std::hint::black_box(out[0]);
    })
}

/// The §3.2 virtual-address-match scan over one line.
fn vam_scan() -> f64 {
    let cfg = VamConfig::tuned();
    let trigger = VirtAddr(0x1040_2468);
    // A line with a realistic mix: two pointers, rest junk.
    let mut data = [0u8; LINE_SIZE];
    data[4..8].copy_from_slice(&0x1023_4560u32.to_le_bytes());
    data[36..40].copy_from_slice(&0x10ab_cd00u32.to_le_bytes());
    for i in (8..32).step_by(4) {
        data[i..i + 4].copy_from_slice(&(i as u32 * 37).to_le_bytes());
    }
    time_ns_per_iter(100_000, 5, |_| {
        std::hint::black_box(scan_line(
            std::hint::black_box(&data),
            std::hint::black_box(trigger),
            std::hint::black_box(&cfg),
        ));
    })
}

/// A burst of 16 MSHR registrations followed by a full drain into a
/// reused buffer — one simulated tick's worth of miss traffic.
fn mshr_insert_drain() -> f64 {
    let mut mshrs = MshrFile::with_capacity(32);
    let mut buf = Vec::with_capacity(16);
    let ns = time_ns_per_iter(20_000, 5, |i| {
        let base = (i as u32).wrapping_mul(17) & 0x000f_ffc0;
        for k in 0..16u32 {
            let line = base.wrapping_add(k * 64);
            mshrs.insert(
                LineAddr(line),
                VirtAddr(line),
                RequestKind::Demand,
                i as u64,
                i as u64 + 1,
            );
        }
        mshrs.drain_complete_into(u64::MAX, &mut buf);
        std::hint::black_box(buf.len());
    });
    ns / 16.0
}

/// Full-session snapshot encode (core + hierarchy + driver scalars) of a
/// mid-run smoke-scale session — the serialization path the checkpoint
/// subsystem exercises every `--checkpoint-every` window.
fn snapshot_encode() -> f64 {
    let w = cdp_bench::bench_workload(Benchmark::B2e);
    let sim = Simulator::new(SystemConfig::asplos2002());
    let mut session = sim.session(&w, None);
    // Advance past warm-up and one measurement window so the snapshot
    // captures a populated hierarchy, not an empty cold state.
    for _ in 0..2 {
        if session.step().expect("bench workload must not fault") {
            break;
        }
    }
    time_ns_per_iter(300, 3, |_| {
        std::hint::black_box(session.snapshot().len());
    })
}

/// [`snapshot_encode`] through the recycled-arena path the checkpoint
/// loop actually uses: one buffer handed back to
/// [`SimSession::snapshot_into`] every iteration, so steady-state
/// encodes pay zero allocation.
fn snapshot_encode_reuse() -> f64 {
    let w = cdp_bench::bench_workload(Benchmark::B2e);
    let sim = Simulator::new(SystemConfig::asplos2002());
    let mut session = sim.session(&w, None);
    for _ in 0..2 {
        if session.step().expect("bench workload must not fault") {
            break;
        }
    }
    let mut buf = Vec::new();
    time_ns_per_iter(300, 3, |_| {
        buf = session.snapshot_into(std::mem::take(&mut buf));
        std::hint::black_box(buf.len());
    })
}

/// Streaming uop synthesis: `UopSource::fill` bursts from a large-tier
/// pointer-chasing generator — the per-uop cost the streaming engine
/// pays instead of a materialized program's upfront build. Reported as
/// ns per generated uop.
fn uop_gen() -> f64 {
    use cdp_workloads::suite::Scale;
    let w = Benchmark::Tpcc1.build(Scale::large(), cdp_bench::BENCH_SEED);
    let spec = w.stream.as_ref().expect("large tier streams");
    let mut src = spec.make_source();
    let mut buf = std::collections::VecDeque::with_capacity(65_536);
    const BURST: usize = 32_768;
    let ns = time_ns_per_iter(20, 3, |_| {
        let mut n = 0usize;
        while n < BURST {
            let got = src.fill(&mut buf);
            if got == 0 {
                // ~2.6M uops consumed over the whole measurement vs a
                // ~100M-uop target, so this only fires if tier budgets
                // shrink; restart to keep the timing loop honest.
                src = spec.make_source();
                continue;
            }
            n += got;
            buf.clear();
        }
        std::hint::black_box(n);
    });
    ns / BURST as f64
}

/// Eight threads hammering a shared [`ResultCache`] with a small,
/// fully-contended key set — the lock-acquisition pattern a parallel
/// suite sweep with `--jobs 8` produces. Reported as ns per get(+put).
fn result_cache_contention() -> f64 {
    const THREADS: usize = 8;
    const OPS: usize = 4_000;
    const KEYS: u64 = 64;
    let stats = RunStats::default();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let cache = ResultCache::new();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..OPS {
                        let key = (i as u64 + t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % KEYS;
                        if cache.get(std::hint::black_box(key)).is_none() {
                            cache.put(key, stats, None);
                        }
                    }
                });
            }
        });
        let ns = t0.elapsed().as_nanos() as f64 / (THREADS * OPS) as f64;
        best = best.min(ns);
    }
    best
}

/// One microbenchmark kernel: stable key prefix plus the measurement
/// function. Keys become `<name>_ns`.
type Kernel = (&'static str, fn() -> f64);

/// The kernel table.
const KERNELS: &[Kernel] = &[
    ("cache_access_hit", cache_access_hit),
    ("cache_fill_evict", cache_fill_evict),
    ("phys_read_line_into", phys_read_line_into),
    ("vam_scan_line", vam_scan),
    ("mshr_insert_drain", mshr_insert_drain),
    ("snapshot_encode", snapshot_encode),
    ("snapshot_encode_reuse", snapshot_encode_reuse),
    ("uop_gen", uop_gen),
    ("result_cache_contention", result_cache_contention),
];

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: microbench");
        std::process::exit(2);
    }
    let mut o = Json::obj();
    for (name, kernel) in KERNELS {
        o.set(&format!("{name}_ns"), Json::F64(kernel()));
    }
    println!("{o}");
}
