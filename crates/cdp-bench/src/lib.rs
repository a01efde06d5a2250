//! Std-only microbenchmark support for the CDP reproduction.
//!
//! The crate ships one binary, `microbench`, which times the simulator's
//! hot kernels (flat cache access, physical line reads, VAM scans, MSHR
//! insert/drain, snapshot encode, streaming uop synthesis, result-cache
//! contention) with plain [`std::time::Instant`] loops. It has no
//! registry dependencies, so it builds inside the offline tier-1 gate;
//! `simbench/run.sh` builds it and a traced simbench run reads its
//! kernels.
//!
//! This module holds the shared pieces: workload helpers and the
//! measurement harness.

#![warn(missing_docs)]

use std::time::Instant;

use cdp_workloads::suite::{Benchmark, Scale, Workload};

/// The benchmark seed (distinct from the experiment seed so bench results
/// never alias experiment caches).
pub const BENCH_SEED: u64 = 0xbe7c_2002;

/// Builds a smoke-scale workload for benching.
pub fn bench_workload(bench: Benchmark) -> Workload {
    bench.build(Scale::smoke(), BENCH_SEED)
}

/// Times `op` and reports nanoseconds per iteration.
///
/// The harness runs `iters` warm-up iterations, then takes `takes`
/// timed passes of `iters` iterations each and reports the fastest —
/// the standard min-of-N defense against scheduler noise. `op` receives
/// the iteration index so loops can vary their input without consulting
/// a timer or rng.
pub fn time_ns_per_iter<F: FnMut(usize)>(iters: usize, takes: usize, mut op: F) -> f64 {
    assert!(iters > 0 && takes > 0, "empty measurement");
    for i in 0..iters {
        op(i);
    }
    let mut best = f64::INFINITY;
    for _ in 0..takes {
        let t0 = Instant::now();
        for i in 0..iters {
            op(i);
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::Simulator;
    use cdp_types::SystemConfig;

    #[test]
    fn helpers_run() {
        let w = bench_workload(Benchmark::B2e);
        let r = Simulator::new(SystemConfig::asplos2002()).run(&w);
        assert!(r.retired > 0);
    }

    #[test]
    fn harness_reports_positive_time() {
        let mut acc = 0u64;
        let ns = time_ns_per_iter(1000, 3, |i| acc = acc.wrapping_add(i as u64));
        assert!(ns.is_finite());
        assert!(ns >= 0.0);
        assert!(acc > 0);
    }
}
