//! Figure 1: non-cumulative MPTU trace on a 4 MB UL2 — the warm-up
//! methodology of §2.2.
//!
//! The paper runs one benchmark from each of the six suites, samples the
//! L2 miss rate in retired-uop windows, and picks the statistics-start
//! point where the cold-start transient has died out.

use std::sync::Arc;

use cdp_sim::{JobObs, ObsSink, Pool, SimJob};
use cdp_types::{ObsConfig, SystemConfig};
use cdp_workloads::suite::Benchmark;

use crate::common::{cell_or_gap, failure_note, CellFailure, ExpScale, WorkloadSet, GAP};
use crate::context;

/// One benchmark's MPTU-over-time series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Benchmark name.
    pub name: String,
    /// Non-cumulative MPTU per window; `None` if the run failed.
    pub samples: Option<Vec<f64>>,
}

/// The Figure 1 traces plus the derived warm-up recommendation.
#[derive(Clone, Debug)]
pub struct Figure1 {
    /// Retired-uop window width.
    pub window_uops: u64,
    /// One series per suite representative.
    pub series: Vec<Series>,
    /// First window index at which every series is within 2x of its
    /// steady-state mean (the "statistics may start here" point).
    pub steady_window: usize,
    /// Series that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Figure1 {
    /// The longest series' window count (the rendered row count).
    pub fn window_count(&self) -> usize {
        let lens = self
            .series
            .iter()
            .filter_map(|s| s.samples.as_ref().map(Vec::len));
        lens.max().unwrap_or(0)
    }

    /// Renders the series as columns.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 1: non-cumulative MPTU trace, 4-MB UL2 (window = {} uops)\n\n",
            self.window_uops
        );
        out.push_str("window");
        for s in &self.series {
            out.push_str(&format!("  {:>13}", s.name));
        }
        out.push('\n');
        for w in 0..self.window_count() {
            out.push_str(&format!("{w:>6}"));
            for s in &self.series {
                let cell = match &s.samples {
                    Some(samples) => samples.get(w).map_or("-".into(), |v| format!("{v:.2}")),
                    None => GAP.to_string(),
                };
                out.push_str(&format!("  {cell:>13}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "\ntransient dies out by window {} -> warm up for ~{} uops before collecting statistics\n",
            self.steady_window,
            self.steady_window as u64 * self.window_uops
        ));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the six suite representatives on a 4 MB UL2 and samples windowed
/// MPTU from each run's metrics windows. The runs are pool jobs under the
/// run policy's watchdog and see the process-wide fault plan; a failed or
/// timed-out run renders as a gap column (see [`cell_or_gap`]).
pub fn run(scale: ExpScale, pool: &Pool) -> Figure1 {
    let s = scale.scale();
    let window = (s.target_uops as u64 / 24).max(500);
    let mut cfg = SystemConfig::asplos2002();
    cfg.ul2.size_bytes = 4 * 1024 * 1024; // the paper's Figure 1 uses 4 MB
    let sink = ObsSink::shared();
    let ws = WorkloadSet::default();
    let plan = context::fault_plan();
    let benches = Benchmark::figure1_set();
    let jobs = benches
        .iter()
        .enumerate()
        .map(|(index, b)| {
            let mut job = SimJob::new(b.name(), cfg.clone(), ws.get(*b, s)).with_obs(JobObs {
                cfg: ObsConfig {
                    metrics_window: Some(window),
                    ..ObsConfig::default()
                },
                sink: Arc::clone(&sink),
                batch: 0,
                index,
            });
            job.walk_fault = plan.walk_fault(b.name());
            job
        })
        .collect();
    let reports = pool.run_sims_profiled(jobs, context::policy());
    // Only finished runs push an observation.
    let mut observed = sink.drain_sorted().into_iter().peekable();
    let mut failures = Vec::new();
    let mut series = Vec::new();
    for (index, report) in reports.into_iter().enumerate() {
        let observation = observed
            .next_if(|e| e.index == index)
            .map(|e| e.observation);
        let samples = cell_or_gap(report.label.clone(), report.outcome, &mut failures).map(|_| {
            // Misses per 1000 uops of window width (the last window may
            // be shorter), as the paper plots them.
            let windows = observation
                .expect("a finished run pushes its observation")
                .windows;
            windows
                .iter()
                .map(|m| m.l2_demand_misses as f64 * 1000.0 / window as f64)
                .collect()
        });
        series.push(Series {
            name: report.label,
            samples,
        });
    }
    // Steady point: first window from which every series stays within 2x
    // of the mean of its second half.
    let mut steady = 0usize;
    for samples in series.iter().filter_map(|s| s.samples.as_ref()) {
        if samples.len() < 4 {
            continue;
        }
        let tail = &samples[samples.len() / 2..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        let bound = (2.0 * mean).max(mean + 1.0);
        let mut first_ok = 0;
        for (i, &v) in samples.iter().enumerate() {
            if v > bound {
                first_ok = i + 1;
            }
        }
        steady = steady.max(first_ok.min(samples.len().saturating_sub(1)));
    }
    Figure1 {
        window_uops: window,
        series,
        steady_window: steady,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_series_with_cold_start_transient() {
        let f = run(ExpScale::Smoke, &Pool::new(2));
        assert_eq!(f.series.len(), 6);
        assert!(f.failures.is_empty(), "fault-free run has no gaps");
        // At least one pointer-heavy series must show a cold-start spike:
        // first window above its tail mean.
        let spiky = f.series.iter().filter(|s| {
            let samples = s.samples.as_ref().expect("healthy");
            let tail = &samples[samples.len() / 2..];
            let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
            samples.first().copied().unwrap_or(0.0) > mean
        });
        assert!(spiky.count() >= 3, "cold caches must show higher MPTU");
        assert!(f.render().contains("Figure 1"));
    }
}
