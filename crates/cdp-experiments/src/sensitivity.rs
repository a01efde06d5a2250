//! Sensitivity studies: how the content prefetcher's value scales with
//! the machine balance.
//!
//! The paper motivates CDP with the widening processor/memory gap ("Such a
//! configuration tries to approximate both the features and the
//! performance of future processors", §2.1). These sweeps quantify that:
//!
//! * [`latency`] — bus/DRAM round-trip from half to double the Table 1
//!   value: the CDP gain should grow with the gap;
//! * [`l2size`] — UL2 from 512 KB to 4 MB: bigger caches absorb the misses
//!   CDP would have masked, shrinking its headroom.

use cdp_sim::runner::pointer_subset;
use cdp_sim::{speedup, Pool};
use cdp_types::SystemConfig;

use crate::common::{
    failure_note, mean_if_complete, opt_cell, render_table, run_grid_cells, CellFailure, ExpScale,
    WorkloadSet,
};

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// The swept parameter's value.
    pub value: u64,
    /// Suite-average content-prefetcher speedup at this point; `None`
    /// when any contributing cell failed.
    pub speedup: Option<f64>,
    /// Suite-average baseline MPTU at this point; `None` when any
    /// baseline cell failed.
    pub baseline_mptu: Option<f64>,
}

/// A parameter sweep result.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// What was swept (axis label).
    pub parameter: &'static str,
    /// The points, in sweep order.
    pub points: Vec<Point>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Sweep {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Sensitivity: content-prefetcher speedup vs {}\n\n",
            self.parameter
        );
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.value.to_string(),
                    opt_cell(p.speedup, |s| format!("{s:.3}")),
                    opt_cell(p.speedup, |s| format!("{:+.1}%", (s - 1.0) * 100.0)),
                    opt_cell(p.baseline_mptu, |m| format!("{m:.2}")),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[self.parameter, "speedup", "gain", "base MPTU"],
            &rows,
        ));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

fn sweep<F>(
    scale: ExpScale,
    pool: &Pool,
    parameter: &'static str,
    values: &[u64],
    mut apply: F,
) -> Sweep
where
    F: FnMut(&mut SystemConfig, u64),
{
    let s = scale.scale();
    let benches = pointer_subset();
    let ws = WorkloadSet::default();
    let mut grid = Vec::new();
    for &v in values {
        let mut base_cfg = SystemConfig::asplos2002();
        apply(&mut base_cfg, v);
        let mut cdp_cfg = SystemConfig::with_content();
        apply(&mut cdp_cfg, v);
        for &b in &benches {
            grid.push((
                format!("{parameter}={v}-base/{}", b.name()),
                base_cfg.clone(),
                b,
            ));
            grid.push((
                format!("{parameter}={v}-cdp/{}", b.name()),
                cdp_cfg.clone(),
                b,
            ));
        }
    }
    let (runs, failures) = run_grid_cells(pool, &ws, s, grid);
    let points = values
        .iter()
        .zip(runs.chunks(2 * benches.len()))
        .map(|(&v, chunk)| {
            let mut sps = Vec::new();
            let mut mptus = Vec::new();
            for pair in chunk.chunks(2) {
                sps.push(match (&pair[0], &pair[1]) {
                    (Some(base), Some(cdp)) => Some(speedup(base, cdp)),
                    _ => None,
                });
                mptus.push(pair[0].as_ref().map(cdp_sim::RunStats::mptu));
            }
            Point {
                value: v,
                speedup: mean_if_complete(&sps),
                baseline_mptu: mean_if_complete(&mptus),
            }
        })
        .collect();
    Sweep {
        parameter,
        points,
        failures,
    }
}

/// Sweeps the bus/DRAM round-trip latency (Table 1 value: 460 cycles).
pub fn latency(scale: ExpScale, pool: &Pool) -> Sweep {
    sweep(
        scale,
        pool,
        "bus latency (cycles)",
        &[230, 460, 690, 920],
        |cfg, v| cfg.bus.latency = v,
    )
}

/// Sweeps the UL2 capacity (Table 1 value: 1 MB).
pub fn l2size(scale: ExpScale, pool: &Pool) -> Sweep {
    sweep(
        scale,
        pool,
        "UL2 size (KB)",
        &[512, 1024, 2048, 4096],
        |cfg, v| cfg.ul2.size_bytes = (v as usize) * 1024,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sweep_shapes() {
        let s = latency(ExpScale::Smoke, &Pool::new(2));
        assert_eq!(s.points.len(), 4);
        assert!(s.failures.is_empty());
        // The paper's motivation: a wider processor/memory gap makes the
        // prefetcher more valuable. Compare the endpoints.
        let first = s.points.first().unwrap().speedup.expect("healthy run");
        let last = s.points.last().unwrap().speedup.expect("healthy run");
        assert!(
            last >= first - 0.05,
            "gain should grow (or hold) with latency: {first:.3} -> {last:.3}"
        );
        assert!(s.render().contains("bus latency"));
    }

    #[test]
    fn l2_sweep_shrinks_mptu() {
        let s = l2size(ExpScale::Smoke, &Pool::new(2));
        assert_eq!(s.points.len(), 4);
        let small = s.points[0].baseline_mptu.expect("healthy run");
        let big = s.points[3].baseline_mptu.expect("healthy run");
        assert!(
            big <= small + 0.5,
            "bigger L2 cannot miss more: {small:.2} -> {big:.2}"
        );
    }
}
