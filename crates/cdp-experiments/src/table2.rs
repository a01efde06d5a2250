//! Table 2: per-benchmark trace statistics — uops executed and L2 MPTU
//! for 1 MB and 4 MB second-level caches.

use cdp_sim::RunLength;
use cdp_types::SystemConfig;
use cdp_workloads::suite::Benchmark;

use crate::common::{failure_note, opt_cell, render_table, CellFailure};
use crate::context::Context;

/// One Table 2 row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Suite category.
    pub suite: String,
    /// Uops executed (measurement window); `None` if the 1 MB cell failed.
    pub uops: Option<u64>,
    /// L2 MPTU with the 1 MB UL2; `None` if the cell failed.
    pub mptu_1mb: Option<f64>,
    /// L2 MPTU with the 4 MB UL2; `None` if the cell failed.
    pub mptu_4mb: Option<f64>,
}

/// The full table.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// One row per benchmark, Table 2 order.
    pub rows: Vec<Row>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Table2 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table 2: uops executed and L2 MPTU statistics for the benchmark sets\n\n",
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.suite.clone(),
                    opt_cell(r.uops, |u| u.to_string()),
                    opt_cell(r.mptu_1mb, |m| format!("{m:.2}")),
                    opt_cell(r.mptu_4mb, |m| format!("{m:.2}")),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["Benchmark", "Suite", "uops", "MPTU (1MB)", "MPTU (4MB)"],
            &rows,
        ));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs every benchmark under the stride baseline at both UL2 sizes,
/// all runs as independent pool jobs.
pub fn run(scale: RunLength, ctx: &Context) -> Table2 {
    let s = scale.scale();
    let cfg_1mb = SystemConfig::asplos2002();
    let mut cfg_4mb = SystemConfig::asplos2002();
    cfg_4mb.ul2.size_bytes = 4 * 1024 * 1024;
    let ws = ctx.workloads();
    let mut grid = Vec::new();
    for b in Benchmark::all() {
        grid.push((format!("1mb/{}", b.name()), cfg_1mb.clone(), b));
        grid.push((format!("4mb/{}", b.name()), cfg_4mb.clone(), b));
    }
    let (runs, failures) = ctx.run_grid(&ws, s, grid);
    let rows = Benchmark::all()
        .into_iter()
        .zip(runs.chunks(2))
        .map(|(b, pair)| Row {
            name: b.name().to_string(),
            suite: b.suite().to_string(),
            uops: pair[0].as_ref().map(|r| r.retired),
            mptu_1mb: pair[0].as_ref().map(cdp_sim::RunStats::mptu),
            mptu_4mb: pair[1].as_ref().map(cdp_sim::RunStats::mptu),
        })
        .collect();
    Table2 { rows, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::Pool;

    #[test]
    fn bigger_cache_never_increases_mptu_much() {
        let t = run(RunLength::Smoke, &Context::new(Pool::new(2)));
        assert_eq!(t.rows.len(), 15);
        assert!(t.failures.is_empty(), "fault-free run has no gaps");
        for r in &t.rows {
            let (m1, m4) = (r.mptu_1mb.expect("healthy"), r.mptu_4mb.expect("healthy"));
            assert!(
                m4 <= m1 * 1.25 + 0.5,
                "{}: 4MB {} vs 1MB {}",
                r.name,
                m4,
                m1
            );
        }
        let s = t.render();
        assert!(s.contains("verilog-gate"));
        assert!(!s.contains("cell(s) failed"), "no footnote without gaps");
    }
}
