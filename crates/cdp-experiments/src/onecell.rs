//! A single-cell scale driver: one benchmark, one configuration, run
//! through the full sweep machinery (workload cache, result cache,
//! checkpointing, heartbeats, manifest records).
//!
//! Exists for the streaming tiers: a whole-figure grid at `--scale
//! large` or `huge` takes hours, but CI and the throughput benchmarks
//! only need one representative cell to prove the tier completes with
//! bounded memory and to measure uop throughput. The cell goes through
//! [`run_grid_cells`] like any sweep cell, so a manifest emitted around
//! it carries the usual `retired`/`muops` accounting.

use cdp_sim::{Pool, RunStats};
use cdp_types::SystemConfig;
use cdp_workloads::Benchmark;

use crate::common::{
    failure_note, render_table, run_grid_cells, CellFailure, ExpScale, WorkloadSet,
};

/// The single-cell run's result.
#[derive(Clone, Debug)]
pub struct OneCell {
    /// The benchmark the cell ran.
    pub bench: Benchmark,
    /// The tier it ran at.
    pub scale: ExpScale,
    /// The cell's stats; `None` when it failed under keep-going.
    pub stats: Option<RunStats>,
    /// Failure detail (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl OneCell {
    /// Renders the cell's headline counters.
    pub fn render(&self) -> String {
        let mut out = format!(
            "One cell: {} at {} scale (content prefetcher)\n\n",
            self.bench.name(),
            self.scale.name()
        );
        let rows: Vec<Vec<String>> = match &self.stats {
            Some(s) => vec![vec![
                s.retired.to_string(),
                s.cycles.to_string(),
                format!("{:.3}", s.ipc()),
                format!("{:.2}", s.mptu()),
            ]],
            None => vec![vec!["--".into(), "--".into(), "--".into(), "--".into()]],
        };
        out.push_str(&render_table(&["retired", "cycles", "IPC", "MPTU"], &rows));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs one `tpcc1` cell at `scale` with the tuned content prefetcher.
///
/// Tpcc1 is the representative pick: pointer-chasing TPC-C is the
/// workload family the paper's prefetcher targets, so the cell exercises
/// the VAM scan path, not just a stride stream.
pub fn run(scale: ExpScale, pool: &Pool) -> OneCell {
    let bench = Benchmark::Tpcc1;
    let ws = WorkloadSet::default();
    let grid = vec![(
        format!("onecell/{}", bench.name()),
        SystemConfig::with_content(),
        bench,
    )];
    let (mut cells, failures) = run_grid_cells(pool, &ws, scale.scale(), grid);
    OneCell {
        bench,
        scale,
        stats: cells.pop().flatten(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onecell_runs_and_renders_at_smoke() {
        let r = run(ExpScale::Smoke, &Pool::new(1));
        assert!(r.failures.is_empty());
        let s = r.stats.as_ref().expect("healthy run");
        assert!(s.retired > 0);
        let text = r.render();
        assert!(text.contains("tpcc-1"));
        assert!(text.contains(&s.retired.to_string()));
    }
}
