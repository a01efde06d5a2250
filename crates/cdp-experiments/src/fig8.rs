//! Figure 8: adjusted coverage and accuracy versus alignment bits and
//! scan step, with compare/filter fixed at 8.4.
//!
//! The paper sweeps "8.4.A.S" for A ∈ {0,1,2,4} and S ∈ {1,2,4} and picks
//! 8.4.1.2: predicting only on 2-byte alignment with a 2-byte scan step.

use cdp_sim::Pool;
use cdp_types::VamConfig;

use crate::common::{
    failure_note, opt_cell, render_table, run_grid_cells, CellFailure, ExpScale, WorkloadSet,
};
use crate::fig7::{baselines, best_complete, reduce_point, vam_cfg};

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// "8.4.A.S" label.
    pub label: String,
    /// Configuration measured.
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
pub struct Figure8 {
    /// Points in the paper's x-axis order.
    pub points: Vec<Point>,
    /// Best coverage x accuracy trade-off index; `None` when no point
    /// completed.
    pub best: Option<usize>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Figure8 {
    /// Renders the series.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 8: adjusted coverage and accuracy vs align bits and scan step\n\n",
        );
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
        out.push_str(&render_table(
            &["N.M.A.S", "coverage", "accuracy", ""],
            &rows,
        ));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// The paper's x-axis: (align_bits, scan_step) with N.M fixed at 8.4.
pub fn paper_sweep() -> Vec<(u32, usize)> {
    let mut v = Vec::new();
    for step in [1usize, 2, 4] {
        for align in [0u32, 1, 2, 4] {
            v.push((align, step));
        }
    }
    v
}

/// Runs the Figure 8 sweep as one flat pooled grid (every sweep point x
/// benchmark is an independent simulation).
pub fn run(scale: ExpScale, pool: &Pool) -> Figure8 {
    let ws = WorkloadSet::default();
    let (base, mut failures) = baselines(&ws, scale, pool);
    let sweep = paper_sweep();
    let vams: Vec<VamConfig> = sweep
        .iter()
        .map(|&(align, step)| VamConfig {
            compare_bits: 8,
            filter_bits: 4,
            align_bits: align,
            scan_step: step,
        })
        .collect();
    let mut grid = Vec::new();
    for (&(align, step), vam) in sweep.iter().zip(&vams) {
        for (b, _) in &base {
            grid.push((
                format!("8.4.{align}.{step}/{}", b.name()),
                vam_cfg(*vam),
                *b,
            ));
        }
    }
    let (runs, sweep_failures) = run_grid_cells(pool, &ws, scale.scale(), grid);
    failures.extend(sweep_failures);
    let mut points = Vec::new();
    for (i, (&(align, step), vam)) in sweep.iter().zip(&vams).enumerate() {
        let chunk = &runs[i * base.len()..(i + 1) * base.len()];
        let (cov, acc) = reduce_point(chunk, &base);
        points.push(Point {
            label: format!("8.4.{align}.{step}"),
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
    Figure8 {
        points,
        best,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig7::measure_vam;

    #[test]
    fn twelve_points() {
        let s = paper_sweep();
        assert_eq!(s.len(), 12);
        assert!(s.contains(&(1, 2)), "the paper's chosen 8.4.1.2");
    }

    #[test]
    fn four_byte_alignment_cannot_beat_two_byte_coverage() {
        let pool = Pool::new(2);
        let ws = WorkloadSet::default();
        let (base, base_failures) = baselines(&ws, ExpScale::Smoke, &pool);
        assert!(base_failures.is_empty());
        let at = |align: u32| {
            let ((cov, _), failures) = measure_vam(
                &ws,
                ExpScale::Smoke,
                &pool,
                VamConfig {
                    compare_bits: 8,
                    filter_bits: 4,
                    align_bits: align,
                    scan_step: 2,
                },
                &base,
            );
            assert!(failures.is_empty());
            cov.expect("healthy run")
        };
        let cov1 = at(1);
        let cov4 = at(4);
        assert!(
            cov4 <= cov1 + 0.02,
            "stricter alignment cannot add coverage: {cov1} -> {cov4}"
        );
    }
}
