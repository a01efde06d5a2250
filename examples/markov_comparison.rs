//! The §5 comparison in miniature: equal-silicon Markov configurations
//! versus the (stateless) content prefetcher on a pointer workload.
//!
//! The Markov prefetcher spends megabytes on a state-transition table and
//! needs a training phase; the content prefetcher needs neither, and can
//! mask even compulsory misses — which is exactly what this example shows.
//!
//! ```text
//! cargo run --release --example markov_comparison
//! ```

use cdp::sim::{speedup, RunLength, Simulator};
use cdp::types::{MarkovConfig, SystemConfig};
use cdp::workloads::suite::Benchmark;

fn main() {
    let scale = RunLength::Quick.scale();
    let warmup = (scale.target_uops / 6) as u64;
    let workload = Benchmark::Slsb.build(scale, 0x5eed_2002);

    let mut base_cfg = SystemConfig::asplos2002();
    base_cfg.warmup_uops = warmup;
    let base = Simulator::new(base_cfg).run(&workload);
    println!(
        "baseline (1MB UL2 + stride) on {}: {} cycles\n",
        workload.name, base.cycles
    );

    let configs: Vec<(&str, SystemConfig)> = vec![
        (
            "markov_1/8 (896KB UL2 + 128KB STAB)",
            SystemConfig::with_markov(MarkovConfig::eighth(), 896 * 1024, 7),
        ),
        (
            "markov_1/2 (512KB UL2 + 512KB STAB)",
            SystemConfig::with_markov(MarkovConfig::half(), 512 * 1024, 8),
        ),
        (
            "markov_big (1MB UL2 + unbounded STAB)",
            SystemConfig::with_markov(MarkovConfig::unbounded(), 1024 * 1024, 8),
        ),
        (
            "content    (1MB UL2 + CDP, ~0 state)",
            SystemConfig::with_content(),
        ),
    ];

    println!(
        "{:40} {:>8}  {:>8}  prefetcher state",
        "configuration", "speedup", "issued"
    );
    for (name, mut cfg) in configs {
        cfg.warmup_uops = warmup;
        let r = Simulator::new(cfg).run(&workload);
        let issued = r.mem.markov.issued + r.mem.content.issued;
        let state = match r.markov {
            Some(mk) => format!("STAB trained {} transitions", mk.trained),
            None => "2 depth bits per L2 line".to_string(),
        };
        println!(
            "{:40} {:>8.3}  {:>8}  {}",
            name,
            speedup(&base, &r),
            issued,
            state
        );
    }
    println!(
        "\npaper: markov_big gains only ~4.5%; the content prefetcher ~3x more, at almost no cost"
    );
}
