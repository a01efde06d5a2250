//! Watching a run unfold: per-window statistics (the machinery behind the
//! paper's Figure 1 warm-up methodology), with and without the content
//! prefetcher.
//!
//! ```text
//! cargo run --release --example timeline
//! ```

use cdp::sim::{MetricsWindow, RunLength, Simulator};
use cdp::types::{ObsConfig, SystemConfig};
use cdp::workloads::suite::Benchmark;

fn main() {
    let workload = Benchmark::Tpcc3.build(RunLength::Quick.scale(), 17);
    println!("{}\n", workload.summary());

    // An observed run records one metrics window per 50k retired uops.
    let obs = ObsConfig {
        metrics_window: Some(50_000),
        ..ObsConfig::default()
    };
    let timeline = |cfg| -> Vec<MetricsWindow> {
        let (_, observation) = Simulator::new(cfg)
            .try_run_observed(&workload, &obs)
            .expect("a generated workload never faults");
        observation.windows
    };
    let base = timeline(SystemConfig::asplos2002());
    let cdp = timeline(SystemConfig::with_content());

    println!(
        "{:>6}  {:>10} {:>8} {:>8}   {:>10} {:>8} {:>8}  {:>8}",
        "window", "base cyc", "MPTU", "IPC", "cdp cyc", "MPTU", "IPC", "issued"
    );
    for (b, c) in base.iter().zip(&cdp) {
        println!(
            "{:>6}  {:>10} {:>8.2} {:>8.3}   {:>10} {:>8.2} {:>8.3}  {:>8}",
            b.window,
            b.cycles,
            b.mptu(),
            b.ipc(),
            c.cycles,
            c.mptu(),
            c.ipc(),
            c.content_issued
        );
    }

    let base_total: u64 = base.iter().map(|s| s.cycles).sum();
    let cdp_total: u64 = cdp.iter().map(|s| s.cycles).sum();
    println!(
        "\ntotals: baseline {} cycles, with CDP {} cycles -> speedup {:.3}",
        base_total,
        cdp_total,
        base_total as f64 / cdp_total as f64
    );
    println!(
        "note the first window (cold caches) misses hardest in both runs — \
         the §2.2 warm-up rationale."
    );
}
