//! Suite summary: the headline comparison behind the paper's abstract —
//! per-benchmark baseline MPTU, IPC, and content-prefetcher speedup, plus
//! the stateless (no-reinforcement) variant's average.
//!
//! The paper reports 11.3% average speedup with no additional processor
//! state, rising to 12.6% with the <½% reinforcement bits (abstract,
//! §4.2.1).

use cdp_sim::{speedup, Pool};
use cdp_types::{ContentConfig, SystemConfig};
use cdp_workloads::suite::Benchmark;

use crate::common::{
    ascii_bar, failure_note, mean_if_complete, opt_cell, render_table, run_grid_cells, CellFailure,
    ExpScale, WorkloadSet, GAP,
};

/// One benchmark's summary row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Baseline (stride-only) L2 MPTU; `None` if the baseline cell
    /// failed.
    pub mptu: Option<f64>,
    /// Baseline IPC; `None` if the baseline cell failed.
    pub ipc: Option<f64>,
    /// Tuned content prefetcher speedup; `None` if a contributing cell
    /// failed.
    pub speedup_reinf: Option<f64>,
    /// Stateless (no reinforcement bits) content prefetcher speedup;
    /// `None` if a contributing cell failed.
    pub speedup_stateless: Option<f64>,
}

/// The suite summary.
#[derive(Clone, Debug)]
pub struct SuiteSummary {
    /// One row per benchmark.
    pub rows: Vec<Row>,
    /// Average tuned speedup (paper: 1.126); `None` on a partial suite.
    pub average_reinf: Option<f64>,
    /// Average stateless speedup (paper: 1.113); `None` on a partial
    /// suite.
    pub average_stateless: Option<f64>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl SuiteSummary {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Suite summary: content-prefetcher speedups over the stride baseline\n\n");
        let max = self
            .rows
            .iter()
            .filter_map(|r| r.speedup_reinf)
            .fold(1.0, f64::max);
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    opt_cell(r.mptu, |m| format!("{m:.2}")),
                    opt_cell(r.ipc, |i| format!("{i:.3}")),
                    opt_cell(r.speedup_stateless, |s| format!("{s:.3}")),
                    opt_cell(r.speedup_reinf, |s| format!("{s:.3}")),
                    match r.speedup_reinf {
                        Some(s) => {
                            format!("|{}|", ascii_bar(s - 1.0, (max - 1.0).max(0.01), 24))
                        }
                        None => GAP.to_string(),
                    },
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "Benchmark",
                "MPTU",
                "IPC",
                "stateless",
                "reinforced",
                "gain",
            ],
            &rows,
        ));
        match (self.average_stateless, self.average_reinf) {
            (Some(stateless), Some(reinf)) => out.push_str(&format!(
                "\naverage: stateless {:.3} ({:+.1}%), reinforced {:.3} ({:+.1}%)\n",
                stateless,
                (stateless - 1.0) * 100.0,
                reinf,
                (reinf - 1.0) * 100.0
            )),
            _ => out.push_str(&format!(
                "\naverage: stateless {GAP}, reinforced {GAP} (partial suite)\n"
            )),
        }
        out.push_str("paper:   stateless 1.113 (+11.3%), reinforced 1.126 (+12.6%)\n");
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the summary across the full suite: three configurations per
/// benchmark, every cell an independent pool job.
pub fn run(scale: ExpScale, pool: &Pool) -> SuiteSummary {
    let s = scale.scale();
    let base_cfg = SystemConfig::asplos2002();
    let reinf_cfg = SystemConfig::with_content();
    let mut stateless_cfg = SystemConfig::asplos2002();
    stateless_cfg.prefetchers.content = Some(ContentConfig::stateless());
    let ws = WorkloadSet::default();
    let mut grid = Vec::new();
    for b in Benchmark::all() {
        grid.push((format!("base/{}", b.name()), base_cfg.clone(), b));
        grid.push((format!("reinf/{}", b.name()), reinf_cfg.clone(), b));
        grid.push((format!("stateless/{}", b.name()), stateless_cfg.clone(), b));
    }
    let (runs, failures) = run_grid_cells(pool, &ws, s, grid);
    let mut rows = Vec::new();
    for (b, trio) in Benchmark::all().into_iter().zip(runs.chunks(3)) {
        let (base, reinf, stateless) = (&trio[0], &trio[1], &trio[2]);
        rows.push(Row {
            name: b.name().to_string(),
            mptu: base.as_ref().map(cdp_sim::RunStats::mptu),
            ipc: base.as_ref().map(cdp_sim::RunStats::ipc),
            speedup_reinf: match (base, reinf) {
                (Some(base), Some(reinf)) => Some(speedup(base, reinf)),
                _ => None,
            },
            speedup_stateless: match (base, stateless) {
                (Some(base), Some(stateless)) => Some(speedup(base, stateless)),
                _ => None,
            },
        });
    }
    SuiteSummary {
        average_reinf: mean_if_complete(&rows.iter().map(|r| r.speedup_reinf).collect::<Vec<_>>()),
        average_stateless: mean_if_complete(
            &rows.iter().map(|r| r.speedup_stateless).collect::<Vec<_>>(),
        ),
        rows,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_has_all_benchmarks_and_sane_averages() {
        let s = run(ExpScale::Smoke, &Pool::new(2));
        assert_eq!(s.rows.len(), 15);
        assert!(s.failures.is_empty());
        let reinf = s.average_reinf.expect("healthy run");
        let stateless = s.average_stateless.expect("healthy run");
        assert!(reinf > 0.9 && reinf < 3.0);
        assert!(stateless > 0.9 && stateless < 3.0);
        assert!(s.render().contains("reinforced"));
    }
}
