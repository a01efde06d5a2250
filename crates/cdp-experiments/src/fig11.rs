//! Figure 11: Markov versus content prefetcher under equal silicon
//! budgets (§5, Table 3).
//!
//! Four configurations, all relative to the 1 MB-UL2 stride baseline:
//!
//! * `markov_1/8` — 896 KB 7-way UL2 + 128 KB STAB;
//! * `markov_1/2` — 512 KB 8-way UL2 + 512 KB STAB;
//! * `markov_big` — full 1 MB UL2 + unbounded STAB (upper bound);
//! * `content`    — full 1 MB UL2 + the tuned content prefetcher.
//!
//! Paper shape: the repartitioned Markov configurations lose (the STAB
//! cannot buy back the lost cache capacity), `markov_big` gains only
//! ~4.5% (training phase + resident lines), and the content prefetcher
//! beats it by ~3x.

use cdp_sim::{speedup, RunLength};
use cdp_types::{MarkovConfig, SystemConfig};
use cdp_workloads::suite::Benchmark;

use crate::common::{
    ascii_bar, failure_note, mean_if_complete, opt_cell, render_table, CellFailure, GAP,
};
use crate::context::Context;

/// One configuration's result.
#[derive(Clone, Debug)]
pub struct Config {
    /// Configuration label (Figure 11 x-axis).
    pub name: String,
    /// Suite-average speedup over the stride baseline; `None` when any
    /// contributing cell failed.
    pub speedup: Option<f64>,
    /// Per-benchmark speedups (Table 2 order); `None` where a cell
    /// failed.
    pub per_bench: Vec<Option<f64>>,
}

/// The four-bar comparison.
#[derive(Clone, Debug)]
pub struct Figure11 {
    /// `markov_1/8`, `markov_1/2`, `markov_big`, `content`.
    pub configs: Vec<Config>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Figure11 {
    /// Renders the bars.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 11: Markov vs content prefetcher average speedup (vs 1MB-UL2 stride baseline)\n\n",
        );
        let max = self
            .configs
            .iter()
            .filter_map(|c| c.speedup)
            .fold(1.0, f64::max);
        let rows: Vec<Vec<String>> = self
            .configs
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    opt_cell(c.speedup, |s| format!("{s:.3}")),
                    opt_cell(c.speedup, |s| format!("{:+.1}%", (s - 1.0) * 100.0)),
                    match c.speedup {
                        Some(s) => format!("|{}|", ascii_bar(s, max * 1.05, 30)),
                        None => GAP.to_string(),
                    },
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["configuration", "speedup", "gain", ""],
            &rows,
        ));
        let find = |name: &str| {
            self.configs
                .iter()
                .find(|c| c.name == name)
                .and_then(|c| c.speedup)
        };
        if let (Some(big), Some(content)) = (find("markov_big"), find("content")) {
            let ratio = if big > 1.0 {
                (content - 1.0) / (big - 1.0)
            } else {
                f64::INFINITY
            };
            out.push_str(&format!(
                "\ncontent gain is {ratio:.1}x the unbounded Markov gain (paper: ~3x)\n"
            ));
        }
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the four configurations over the suite.
pub fn run(scale: RunLength, ctx: &Context) -> Figure11 {
    run_on(scale, &Benchmark::all(), ctx)
}

/// Runs the comparison on a benchmark subset (used by tests and the
/// quick-look example): baselines first, then all variant x benchmark
/// cells as one flat pooled grid.
pub fn run_on(scale: RunLength, benches: &[Benchmark], ctx: &Context) -> Figure11 {
    let s = scale.scale();
    let base_cfg = SystemConfig::asplos2002();
    let variants: Vec<(String, SystemConfig)> = vec![
        (
            "markov_1/8".into(),
            SystemConfig::with_markov(MarkovConfig::eighth(), 896 * 1024, 7),
        ),
        (
            "markov_1/2".into(),
            SystemConfig::with_markov(MarkovConfig::half(), 512 * 1024, 8),
        ),
        (
            "markov_big".into(),
            SystemConfig::with_markov(MarkovConfig::unbounded(), 1024 * 1024, 8),
        ),
        ("content".into(), SystemConfig::with_content()),
    ];
    let ws = ctx.workloads();
    let (baselines, mut failures) = ctx.run_grid(
        &ws,
        s,
        benches
            .iter()
            .map(|&b| (format!("base/{}", b.name()), base_cfg.clone(), b))
            .collect(),
    );
    let mut grid = Vec::new();
    for (name, cfg) in &variants {
        for &b in benches {
            grid.push((format!("{name}/{}", b.name()), cfg.clone(), b));
        }
    }
    let (runs, grid_failures) = ctx.run_grid(&ws, s, grid);
    failures.extend(grid_failures);
    let configs = variants
        .into_iter()
        .zip(runs.chunks(benches.len()))
        .map(|((name, _), chunk)| {
            let per_bench: Vec<Option<f64>> = chunk
                .iter()
                .zip(&baselines)
                .map(|(r, base)| match (r, base) {
                    (Some(r), Some(base)) => Some(speedup(base, r)),
                    _ => None,
                })
                .collect();
            Config {
                name,
                speedup: mean_if_complete(&per_bench),
                per_bench,
            }
        })
        .collect();
    Figure11 { configs, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::Pool;

    #[test]
    fn content_beats_every_markov_configuration() {
        let f = run_on(
            RunLength::Smoke,
            &[Benchmark::Slsb, Benchmark::Tpcc2, Benchmark::B2e],
            &Context::new(Pool::new(2)),
        );
        assert_eq!(f.configs.len(), 4);
        assert!(f.failures.is_empty());
        let content = f
            .configs
            .iter()
            .find(|c| c.name == "content")
            .and_then(|c| c.speedup)
            .expect("healthy run");
        for c in &f.configs {
            if c.name != "content" {
                let s = c.speedup.expect("healthy run");
                assert!(
                    content >= s - 0.02,
                    "content {:.3} must beat {} {:.3}",
                    content,
                    c.name,
                    s
                );
            }
        }
        assert!(f.render().contains("markov_big"));
    }
}
