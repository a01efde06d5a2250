//! Figure 9: speedup versus prefetch depth, previous/next-line width, and
//! path reinforcement.
//!
//! The paper's key shape results, reproduced here:
//!
//! * without reinforcement ("nr"), *deeper* thresholds perform better
//!   (terminated chains need a demand miss to restart);
//! * with reinforcement ("reinf") the ordering flips — depth 3 wins;
//! * previous-line prefetching does not pay for its bandwidth;
//! * the best configuration is reinforcement + depth 3 + p0.n3.

use cdp_sim::runner::pointer_subset;
use cdp_sim::{speedup, RunLength};
use cdp_types::{ContentConfig, SystemConfig};

use crate::common::{failure_note, mean_if_complete, opt_cell, render_table, CellFailure};
use crate::context::Context;

/// The width axis of Figure 9: (previous lines, next lines).
pub const WIDTH_AXIS: [(u32, u32); 7] = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1)];

/// The depth curves of Figure 9.
pub const DEPTHS: [u8; 3] = [9, 5, 3];

/// One curve: a (depth, reinforcement) pair across the width axis.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Depth threshold.
    pub depth: u8,
    /// Whether path reinforcement was on.
    pub reinforcement: bool,
    /// Suite-average speedup per width point (same order as
    /// [`WIDTH_AXIS`]); `None` where a contributing cell failed.
    pub speedups: Vec<Option<f64>>,
}

impl Curve {
    /// Figure 9 legend label (e.g. `depth.3-reinf`).
    pub fn label(&self) -> String {
        format!(
            "depth.{}-{}",
            self.depth,
            if self.reinforcement { "reinf" } else { "nr" }
        )
    }
}

/// The full grid.
#[derive(Clone, Debug)]
pub struct Figure9 {
    /// Six curves (3 depths x {nr, reinf}).
    pub curves: Vec<Curve>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Figure9 {
    /// The best (curve, width point) by speedup among the points that
    /// completed, or `None` if every point gapped out.
    pub fn best(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (c, curve) in self.curves.iter().enumerate() {
            for (w, s) in curve.speedups.iter().enumerate() {
                if let Some(s) = *s {
                    if best.is_none_or(|b| s > b.2) {
                        best = Some((c, w, s));
                    }
                }
            }
        }
        best
    }

    /// Renders the grid with width points as rows and curves as columns.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 9: speedup comparison — prefetch depth vs next-line count\n\n");
        let mut headers: Vec<String> = vec!["p.n".to_string()];
        headers.extend(self.curves.iter().map(|c| c.label()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = WIDTH_AXIS
            .iter()
            .enumerate()
            .map(|(w, (p, n))| {
                let mut row = vec![format!("p{p}.n{n}")];
                row.extend(
                    self.curves
                        .iter()
                        .map(|c| opt_cell(c.speedups[w], |s| format!("{s:.3}"))),
                );
                row
            })
            .collect();
        out.push_str(&render_table(&header_refs, &rows));
        if let Some((c, w, s)) = self.best() {
            out.push_str(&format!(
                "\nbest: {} at p{}.n{} -> {:.1}% speedup\n",
                self.curves[c].label(),
                WIDTH_AXIS[w].0,
                WIDTH_AXIS[w].1,
                (s - 1.0) * 100.0
            ));
        } else {
            out.push_str("\nbest: unavailable (every point failed)\n");
        }
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the Figure 9 grid over the pointer subset: 6 curves x 7 width
/// points x the benchmark subset, submitted as one flat pooled grid.
pub fn run(scale: RunLength, ctx: &Context) -> Figure9 {
    let s = scale.scale();
    let benches = pointer_subset();
    let ws = ctx.workloads();
    let base_cfg = SystemConfig::asplos2002();
    let (baselines, mut failures) = ctx.run_grid(
        &ws,
        s,
        benches
            .iter()
            .map(|&b| (format!("base/{}", b.name()), base_cfg.clone(), b))
            .collect(),
    );
    // The curve axes, in render order.
    let mut axes = Vec::new();
    for &reinf in &[false, true] {
        for &depth in &DEPTHS {
            axes.push((depth, reinf));
        }
    }
    let mut grid = Vec::new();
    for &(depth, reinf) in &axes {
        for &(p, n) in &WIDTH_AXIS {
            let mut cfg = SystemConfig::asplos2002();
            cfg.prefetchers.content = Some(ContentConfig {
                depth_threshold: depth,
                reinforcement: reinf,
                prev_lines: p,
                next_lines: n,
                ..ContentConfig::tuned()
            });
            for &b in &benches {
                grid.push((
                    format!("d{depth}-r{reinf}-p{p}n{n}/{}", b.name()),
                    cfg.clone(),
                    b,
                ));
            }
        }
    }
    let (runs, grid_failures) = ctx.run_grid(&ws, s, grid);
    failures.extend(grid_failures);
    let mut chunks = runs.chunks(benches.len());
    let curves = axes
        .iter()
        .map(|&(depth, reinf)| {
            let speedups = WIDTH_AXIS
                .iter()
                .map(|_| {
                    let chunk = chunks.next().expect("one chunk per width point");
                    let sps: Vec<Option<f64>> = chunk
                        .iter()
                        .zip(&baselines)
                        .map(|(r, base)| match (r, base) {
                            (Some(r), Some(base)) => Some(speedup(base, r)),
                            _ => None,
                        })
                        .collect();
                    mean_if_complete(&sps)
                })
                .collect();
            Curve {
                depth,
                reinforcement: reinf,
                speedups,
            }
        })
        .collect();
    Figure9 { curves, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_matches_paper() {
        assert_eq!(WIDTH_AXIS.len(), 7);
        assert_eq!(DEPTHS, [9, 5, 3]);
    }

    #[test]
    fn curve_labels() {
        let c = Curve {
            depth: 3,
            reinforcement: true,
            speedups: vec![Some(1.0)],
        };
        assert_eq!(c.label(), "depth.3-reinf");
    }

    #[test]
    fn best_skips_gapped_points() {
        let f = Figure9 {
            curves: vec![Curve {
                depth: 3,
                reinforcement: false,
                speedups: vec![None, Some(1.2), Some(1.1)],
            }],
            failures: Vec::new(),
        };
        assert_eq!(f.best(), Some((0, 1, 1.2)));
    }
}
