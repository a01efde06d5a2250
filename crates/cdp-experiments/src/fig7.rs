//! Figure 7: adjusted prefetch coverage and accuracy versus the number of
//! compare and filter bits.
//!
//! The paper sweeps "N.M" combinations from 8.0 to 12.4 and picks 8
//! compare / 4 filter bits as the best coverage/accuracy trade-off:
//! accuracy rises with more compare bits (stricter matching) while
//! coverage falls (the prefetchable region halves per added bit).

use cdp_sim::runner::pointer_subset;
use cdp_sim::{accuracy, coverage, Engine, RunLength, RunStats};
use cdp_types::{SystemConfig, VamConfig};
use cdp_workloads::suite::Benchmark;

use crate::common::{
    best_tradeoff, failure_note, mean_if_complete, opt_cell, render_table, CellFailure, WorkloadSet,
};
use crate::context::Context;

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// "N.M" label (e.g. `08.4`).
    pub label: String,
    /// VAM configuration measured.
    pub vam: VamConfig,
    /// Suite-average adjusted coverage; `None` when any contributing
    /// cell failed.
    pub coverage: Option<f64>,
    /// Suite-average adjusted accuracy; `None` when any contributing
    /// cell failed.
    pub accuracy: Option<f64>,
}

/// The full sweep.
#[derive(Clone, Debug)]
pub struct Figure7 {
    /// Sweep points in the paper's x-axis order.
    pub points: Vec<Point>,
    /// The point with the best coverage x accuracy product (the paper's
    /// "best trade-off" marker); `None` when no point completed.
    pub best: Option<usize>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Figure7 {
    /// Renders the series.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 7: adjusted coverage and accuracy vs compare.filter bits\n\n");
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                vec![
                    p.label.clone(),
                    opt_cell(p.coverage, |c| format!("{:.1}%", c * 100.0)),
                    opt_cell(p.accuracy, |a| format!("{:.1}%", a * 100.0)),
                    if Some(i) == self.best {
                        "<= best trade-off".into()
                    } else {
                        String::new()
                    },
                ]
            })
            .collect();
        out.push_str(&render_table(&["N.M", "coverage", "accuracy", ""], &rows));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// The paper's x-axis: (compare, filter) pairs.
pub fn paper_sweep() -> Vec<(u32, u32)> {
    vec![
        (8, 0),
        (8, 2),
        (8, 4),
        (8, 6),
        (8, 8),
        (9, 0),
        (9, 1),
        (9, 3),
        (9, 5),
        (9, 7),
        (10, 0),
        (10, 2),
        (10, 4),
        (10, 6),
        (11, 0),
        (11, 1),
        (11, 3),
        (11, 5),
        (12, 0),
        (12, 2),
        (12, 4),
    ]
}

/// The tuned content configuration with its VAM heuristic replaced.
pub fn vam_cfg(vam: VamConfig) -> SystemConfig {
    let mut cfg = SystemConfig::with_content();
    if let Some(c) = cfg.prefetchers.content.as_mut() {
        c.vam = vam;
    }
    cfg
}

/// Reduces one sweep point's per-benchmark cells (same order as
/// `baselines`) to suite-average (coverage, accuracy). Either average is
/// `None` as soon as one contributing cell — CDP run or its baseline —
/// is missing.
pub(crate) fn reduce_point(
    runs: &[Option<RunStats>],
    baselines: &[(Benchmark, Option<RunStats>)],
) -> (Option<f64>, Option<f64>) {
    let mut covs = Vec::new();
    let mut accs = Vec::new();
    for (r, (_, base)) in runs.iter().zip(baselines) {
        match (r, base) {
            (Some(r), Some(base)) => {
                covs.push(Some(coverage(r, base, Engine::Content)));
                // Warm-up boundary effects can push the raw ratio past 1;
                // clamp for presentation (the paper's counters share the
                // window).
                accs.push(Some(accuracy(r, Engine::Content).min(1.0)));
            }
            _ => {
                covs.push(None);
                accs.push(None);
            }
        }
    }
    (mean_if_complete(&covs), mean_if_complete(&accs))
}

/// Measures coverage/accuracy for one VAM configuration across the
/// pointer subset. `baselines` supplies the stride-only runs for the
/// coverage denominator. Also returns the cells that failed.
pub fn measure_vam(
    ws: &WorkloadSet,
    scale: RunLength,
    ctx: &Context,
    vam: VamConfig,
    baselines: &[(Benchmark, Option<RunStats>)],
) -> ((Option<f64>, Option<f64>), Vec<CellFailure>) {
    let cfg = vam_cfg(vam);
    let grid = baselines
        .iter()
        .map(|(b, _)| (b.name().to_string(), cfg.clone(), *b))
        .collect();
    let (runs, failures) = ctx.run_grid(ws, scale.scale(), grid);
    (reduce_point(&runs, baselines), failures)
}

/// Runs stride-only baselines for the pointer subset (shared by the
/// Figure 7 and Figure 8 sweeps). A failed baseline gaps out every sweep
/// point of its benchmark.
pub fn baselines(
    ws: &WorkloadSet,
    scale: RunLength,
    ctx: &Context,
) -> (Vec<(Benchmark, Option<RunStats>)>, Vec<CellFailure>) {
    let base_cfg = SystemConfig::asplos2002();
    let benches = pointer_subset();
    let grid = benches
        .iter()
        .map(|b| (format!("base/{}", b.name()), base_cfg.clone(), *b))
        .collect();
    let (runs, failures) = ctx.run_grid(ws, scale.scale(), grid);
    (benches.into_iter().zip(runs).collect(), failures)
}

/// Picks the best-trade-off index among the points that completed (the
/// original index space), or `None` if every point gapped out.
pub(crate) fn best_complete(points: &[(Option<f64>, Option<f64>)]) -> Option<usize> {
    let complete: Vec<(usize, (f64, f64))> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some((i, (p.0?, p.1?))))
        .collect();
    if complete.is_empty() {
        return None;
    }
    let pairs: Vec<(f64, f64)> = complete.iter().map(|(_, p)| *p).collect();
    Some(complete[best_tradeoff(&pairs)].0)
}

/// Runs the Figure 7 sweep: every sweep point x benchmark is one
/// independent simulation, submitted to the pool as a single flat grid.
pub fn run(scale: RunLength, ctx: &Context) -> Figure7 {
    let ws = ctx.workloads();
    let (base, mut failures) = baselines(&ws, scale, ctx);
    let sweep = paper_sweep();
    let vams: Vec<VamConfig> = sweep
        .iter()
        .map(|&(n, m)| VamConfig {
            compare_bits: n,
            filter_bits: m,
            ..VamConfig::tuned()
        })
        .collect();
    let mut grid = Vec::new();
    for (&(n, m), vam) in sweep.iter().zip(&vams) {
        for (b, _) in &base {
            grid.push((format!("{n:02}.{m}/{}", b.name()), vam_cfg(*vam), *b));
        }
    }
    let (runs, sweep_failures) = ctx.run_grid(&ws, scale.scale(), grid);
    failures.extend(sweep_failures);
    let mut points = Vec::new();
    for (i, (&(n, m), vam)) in sweep.iter().zip(&vams).enumerate() {
        let chunk = &runs[i * base.len()..(i + 1) * base.len()];
        let (cov, acc) = reduce_point(chunk, &base);
        points.push(Point {
            label: format!("{n:02}.{m}"),
            vam: *vam,
            coverage: cov,
            accuracy: acc,
        });
    }
    let best = best_complete(
        &points
            .iter()
            .map(|p| (p.coverage, p.accuracy))
            .collect::<Vec<_>>(),
    );
    Figure7 {
        points,
        best,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::Pool;

    #[test]
    fn sweep_axis_matches_paper() {
        let s = paper_sweep();
        assert_eq!(s.len(), 21);
        assert_eq!(s[0], (8, 0));
        assert_eq!(s[20], (12, 4));
    }

    #[test]
    fn best_complete_skips_gapped_points() {
        // The winner keeps its index in the *original* point list even
        // when earlier points gapped out.
        let pts = [
            (None, None),
            (Some(0.30), Some(0.50)),
            (Some(0.30), Some(0.90)),
        ];
        assert_eq!(best_complete(&pts), Some(2));
        assert_eq!(best_complete(&[(None, None)]), None);
    }

    #[test]
    fn more_compare_bits_do_not_raise_coverage() {
        // Scaled-down directional check: coverage at 12 compare bits must
        // not exceed coverage at 8 compare bits (same filter).
        let ctx = Context::new(Pool::new(2));
        let ws = ctx.workloads();
        let (base, base_failures) = baselines(&ws, RunLength::Smoke, &ctx);
        assert!(base_failures.is_empty());
        let at = |n: u32| {
            let ((cov, _), failures) = measure_vam(
                &ws,
                RunLength::Smoke,
                &ctx,
                VamConfig {
                    compare_bits: n,
                    filter_bits: 4,
                    ..VamConfig::tuned()
                },
                &base,
            );
            assert!(failures.is_empty());
            cov.expect("healthy run")
        };
        let cov8 = at(8);
        let cov12 = at(12);
        assert!(
            cov12 <= cov8 + 0.02,
            "narrowing the region cannot add coverage: {cov8} -> {cov12}"
        );
    }
}
