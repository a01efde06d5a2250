//! The experiments' measurement conventions: one seed for every workload
//! build (so a baseline and its variant run the *same* structures and
//! trace), the §2.2 warm-up budget, and the pointer-heavy tuning subset.

use cdp_types::SystemConfig;
use cdp_workloads::suite::{Benchmark, Scale};
use cdp_workloads::Workload;

/// Default seed for experiment workload generation.
pub const DEFAULT_SEED: u64 = 0x5eed_2002;

/// Builds a benchmark workload at `scale` with the experiment seed.
pub fn build_workload(bench: Benchmark, scale: Scale) -> Workload {
    bench.build(scale, DEFAULT_SEED)
}

/// The pointer-intensive subset used for heuristic tuning sweeps (the
/// workloads where the content prefetcher has headroom; keeps Figure 7/8
/// sweeps affordable).
pub fn pointer_subset() -> Vec<Benchmark> {
    vec![
        Benchmark::Tpcc2,
        Benchmark::VerilogFunc,
        Benchmark::Slsb,
        Benchmark::SpecjbbVsnet,
    ]
}

/// Applies the §2.2 warm-up convention to a config for a given scale.
pub fn with_warmup(mut cfg: SystemConfig, scale: Scale) -> SystemConfig {
    cfg.warmup_uops = (scale.target_uops / 6) as u64;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_helper_sets_budget() {
        let cfg = with_warmup(SystemConfig::asplos2002(), Scale::quick());
        assert_eq!(cfg.warmup_uops, Scale::quick().target_uops as u64 / 6);
        assert!(cfg.warmup_uops > 0);
    }

    #[test]
    fn pointer_subset_is_pointer_heavy() {
        for b in pointer_subset() {
            assert!(b.name() != "quake" && b.name() != "b2e");
        }
    }
}
