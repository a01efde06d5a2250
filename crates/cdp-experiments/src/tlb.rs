//! §4.2.2: contribution of TLB prefetching.
//!
//! The data TLB is repeatedly doubled from 64 to 1024 entries. If a large
//! share of the content prefetcher's gain came from its speculative page
//! walks warming the TLB, bigger TLBs would erase the gain. The paper
//! observes only 12.6% → 12.3%: TLB prefetching is a minor contributor,
//! and no TLB-pollution signature appears either.

use cdp_sim::runner::pointer_subset;
use cdp_sim::{speedup, Pool};
use cdp_types::SystemConfig;

use crate::common::{
    failure_note, mean_if_complete, opt_cell, render_table, run_grid_cells, CellFailure, ExpScale,
    WorkloadSet,
};

/// One TLB size's result.
#[derive(Clone, Debug)]
pub struct Point {
    /// DTLB entries.
    pub entries: usize,
    /// Suite-average content-prefetcher speedup at this TLB size
    /// (baseline re-measured with the same TLB); `None` when any
    /// contributing cell failed.
    pub speedup: Option<f64>,
}

/// The sweep.
#[derive(Clone, Debug)]
pub struct TlbSweep {
    /// 64, 128, 256, 512, 1024 entries.
    pub points: Vec<Point>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl TlbSweep {
    /// Total spread between the largest and smallest speedup across the
    /// sizes that completed.
    pub fn spread(&self) -> f64 {
        let sps: Vec<f64> = self.points.iter().filter_map(|p| p.speedup).collect();
        let max = sps.iter().copied().fold(0.0, f64::max);
        let min = sps.iter().copied().fold(f64::INFINITY, f64::min);
        if sps.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Section 4.2.2: content-prefetcher speedup vs data-TLB size\n\n");
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.entries.to_string(),
                    opt_cell(p.speedup, |s| format!("{s:.3}")),
                    opt_cell(p.speedup, |s| format!("{:+.1}%", (s - 1.0) * 100.0)),
                ]
            })
            .collect();
        out.push_str(&render_table(&["DTLB entries", "speedup", "gain"], &rows));
        out.push_str(&format!(
            "\nspread across TLB sizes: {:.1} points (paper: 12.6% -> 12.3%, i.e. ~0.3)\n",
            self.spread() * 100.0
        ));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the DTLB sweep on the pointer subset as one flat pooled grid
/// (every TLB size x benchmark x {baseline, CDP} cell independently).
pub fn run(scale: ExpScale, pool: &Pool) -> TlbSweep {
    let s = scale.scale();
    let benches = pointer_subset();
    let sizes = [64usize, 128, 256, 512, 1024];
    let ws = WorkloadSet::default();
    let mut grid = Vec::new();
    for &entries in &sizes {
        let mut base_cfg = SystemConfig::asplos2002();
        base_cfg.dtlb.entries = entries;
        let mut cdp_cfg = SystemConfig::with_content();
        cdp_cfg.dtlb.entries = entries;
        for &b in &benches {
            grid.push((
                format!("tlb{entries}-base/{}", b.name()),
                base_cfg.clone(),
                b,
            ));
            grid.push((format!("tlb{entries}-cdp/{}", b.name()), cdp_cfg.clone(), b));
        }
    }
    let (runs, failures) = run_grid_cells(pool, &ws, s, grid);
    let points = sizes
        .iter()
        .zip(runs.chunks(2 * benches.len()))
        .map(|(&entries, chunk)| {
            let sps: Vec<Option<f64>> = chunk
                .chunks(2)
                .map(|pair| match (&pair[0], &pair[1]) {
                    (Some(base), Some(cdp)) => Some(speedup(base, cdp)),
                    _ => None,
                })
                .collect();
            Point {
                entries,
                speedup: mean_if_complete(&sps),
            }
        })
        .collect();
    TlbSweep { points, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_doublings() {
        let t = run(ExpScale::Smoke, &Pool::new(2));
        assert_eq!(t.points.len(), 5);
        assert_eq!(t.points[0].entries, 64);
        assert_eq!(t.points[4].entries, 1024);
        assert!(t.failures.is_empty());
        assert!(t.points.iter().all(|p| p.speedup.is_some()));
        assert!(t.render().contains("DTLB"));
    }
}
