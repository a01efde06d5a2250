//! Coverage / accuracy metrics (§4.1) and small statistics helpers.
//!
//! The paper tunes the VAM heuristic with *adjusted* coverage and accuracy
//! — adjusted by "subtracting the content prefetches that would have also
//! been issued by the stride prefetcher". In this simulator the stride
//! prefetcher runs alongside the content prefetcher with higher priority,
//! and duplicate requests are suppressed at the L2/in-flight checks, so
//! the content counters are *natively* adjusted: they only ever credit
//! lines the stride engine did not already cover.

use crate::stats::{Engine, EngineCounters};
use crate::system::RunStats;

/// Coverage (Equation 1): prefetch hits / misses without prefetching.
///
/// `baseline` must be a run of the same workload without the engine under
/// measurement (for content coverage: the stride-only baseline).
pub fn coverage(variant: &RunStats, baseline: &RunStats, engine: Engine) -> f64 {
    let denom = baseline.mem.l2_demand_misses;
    if denom == 0 {
        return 0.0;
    }
    let Some(counters) = variant.mem.engine(engine) else {
        return 0.0;
    };
    counters.useful() as f64 / denom as f64
}

/// Accuracy (Equation 2): useful prefetches / prefetches issued.
/// Demand traffic has no prefetch counters and reports 0.
pub fn accuracy(variant: &RunStats, engine: Engine) -> f64 {
    variant
        .mem
        .engine(engine)
        .map_or(0.0, EngineCounters::accuracy)
}

/// Arithmetic mean (the paper reports average speedups across the suite).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{EngineCounters, MemStats};

    fn run_with(content_useful: u64, content_issued: u64, misses: u64) -> RunStats {
        RunStats {
            mem: MemStats {
                l2_demand_misses: misses,
                content: EngineCounters {
                    issued: content_issued,
                    useful_full: content_useful,
                    ..EngineCounters::default()
                },
                ..MemStats::default()
            },
            ..RunStats::default()
        }
    }

    #[test]
    fn coverage_against_baseline() {
        let base = run_with(0, 0, 200);
        let variant = run_with(50, 100, 120);
        assert!((coverage(&variant, &base, Engine::Content) - 0.25).abs() < 1e-12);
        assert!((accuracy(&variant, Engine::Content) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_misses() {
        let base = run_with(0, 0, 0);
        let variant = run_with(5, 10, 0);
        assert_eq!(coverage(&variant, &base, Engine::Content), 0.0);
    }

    #[test]
    fn markov_coverage_and_accuracy_use_markov_counters() {
        let base = run_with(0, 0, 400);
        let mut variant = run_with(10, 20, 300);
        variant.mem.markov = EngineCounters {
            issued: 80,
            useful_full: 30,
            useful_partial: 10,
            wasted_evictions: 8,
        };
        // Markov metrics read the Markov engine's counters, not content's.
        assert!((coverage(&variant, &base, Engine::Markov) - 0.1).abs() < 1e-12);
        assert!((accuracy(&variant, Engine::Markov) - 0.5).abs() < 1e-12);
        // Content metrics over the same run stay on the content counters.
        assert!((coverage(&variant, &base, Engine::Content) - 0.025).abs() < 1e-12);
        assert!((accuracy(&variant, Engine::Content) - 0.5).abs() < 1e-12);
        // Demand has no prefetch counters: both metrics report 0.
        assert_eq!(coverage(&variant, &base, Engine::Demand), 0.0);
        assert_eq!(accuracy(&variant, Engine::Demand), 0.0);
    }

    #[test]
    fn markov_accuracy_with_no_issues_is_zero() {
        let variant = run_with(0, 0, 100);
        assert_eq!(accuracy(&variant, Engine::Markov), 0.0);
    }

    #[test]
    fn means() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
