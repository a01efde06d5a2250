//! Figure 10: distribution of UL2 cache load requests (stride full/partial,
//! content full/partial, unmasked misses) with per-benchmark speedups
//! overlaid, plus the §4.2.3 headline shares:
//!
//! * the content prefetcher fully eliminates ~43% of the non-stride load
//!   misses, and
//! * of the content prefetches that masked any latency, ~72% masked it
//!   fully.

use cdp_sim::{speedup, Pool, RequestDistribution};
use cdp_types::SystemConfig;
use cdp_workloads::suite::Benchmark;

use crate::common::{
    failure_note, mean_if_complete, render_table, run_grid_cells, CellFailure, ExpScale,
    WorkloadSet, GAP,
};

/// One benchmark's measured classification (present only when both its
/// baseline and CDP cells completed).
#[derive(Clone, Debug)]
pub struct RowData {
    /// Fractions `[str-full, str-part, cpf-full, cpf-part, ul2-miss]`.
    pub fractions: [f64; 5],
    /// Speedup over the stride baseline (the overlaid line).
    pub speedup: f64,
    /// Raw distribution counters.
    pub distribution: RequestDistribution,
}

/// One benchmark's row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// The measurements; `None` when a contributing cell failed.
    pub data: Option<RowData>,
}

/// The Figure 10 dataset.
#[derive(Clone, Debug)]
pub struct Figure10 {
    /// Per-benchmark rows.
    pub rows: Vec<Row>,
    /// Suite-average speedup; `None` when any benchmark gapped out.
    pub average_speedup: Option<f64>,
    /// Share of non-stride misses fully eliminated by the content
    /// prefetcher (paper: ~43%); `None` on a partial suite (the
    /// aggregate would not be comparable).
    pub cpf_full_share_of_nonstride: Option<f64>,
    /// Of masking content prefetches, the share that fully masked
    /// (paper: ~72%); `None` on a partial suite.
    pub cpf_fully_masked_share: Option<f64>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Figure10 {
    /// Renders the stacked-bar data as a table.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 10: distribution of UL2 cache load requests\n\n");
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| match &r.data {
                Some(d) => {
                    let f = d.fractions;
                    vec![
                        r.name.clone(),
                        format!("{:.1}%", f[0] * 100.0),
                        format!("{:.1}%", f[1] * 100.0),
                        format!("{:.1}%", f[2] * 100.0),
                        format!("{:.1}%", f[3] * 100.0),
                        format!("{:.1}%", f[4] * 100.0),
                        format!("{:.3}", d.speedup),
                    ]
                }
                None => {
                    let mut row = vec![r.name.clone()];
                    row.extend(std::iter::repeat_n(GAP.to_string(), 6));
                    row
                }
            })
            .collect();
        out.push_str(&render_table(
            &[
                "Benchmark",
                "str-full",
                "str-part",
                "cpf-full",
                "cpf-part",
                "ul2-miss",
                "speedup",
            ],
            &rows,
        ));
        match self.average_speedup {
            Some(avg) => out.push_str(&format!(
                "\naverage speedup: {:.3} ({:.1}%)\n",
                avg,
                (avg - 1.0) * 100.0
            )),
            None => out.push_str(&format!("\naverage speedup: {GAP} (partial suite)\n")),
        }
        match self.cpf_full_share_of_nonstride {
            Some(share) => out.push_str(&format!(
                "content prefetcher fully eliminates {:.0}% of non-stride load misses (paper: 43%)\n",
                share * 100.0
            )),
            None => out.push_str(&format!(
                "content prefetcher non-stride elimination share: {GAP} (partial suite)\n"
            )),
        }
        match self.cpf_fully_masked_share {
            Some(share) => out.push_str(&format!(
                "{:.0}% of masking content prefetches fully masked the latency (paper: 72%)\n",
                share * 100.0
            )),
            None => out.push_str(&format!(
                "fully-masked share of masking content prefetches: {GAP} (partial suite)\n"
            )),
        }
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the full suite under baseline and tuned-CDP configurations,
/// both runs of every benchmark as independent pool jobs.
pub fn run(scale: ExpScale, pool: &Pool) -> Figure10 {
    let s = scale.scale();
    let base_cfg = SystemConfig::asplos2002();
    let cdp_cfg = SystemConfig::with_content();
    let ws = WorkloadSet::default();
    let mut grid = Vec::new();
    for b in Benchmark::all() {
        grid.push((format!("base/{}", b.name()), base_cfg.clone(), b));
        grid.push((format!("cdp/{}", b.name()), cdp_cfg.clone(), b));
    }
    let (runs, failures) = run_grid_cells(pool, &ws, s, grid);
    let mut rows = Vec::new();
    let mut agg = RequestDistribution::default();
    let mut complete = true;
    for (b, pair) in Benchmark::all().into_iter().zip(runs.chunks(2)) {
        let data = match (&pair[0], &pair[1]) {
            (Some(base), Some(cdp)) => {
                let d = cdp.mem.distribution;
                agg.stride_full += d.stride_full;
                agg.stride_partial += d.stride_partial;
                agg.cpf_full += d.cpf_full;
                agg.cpf_partial += d.cpf_partial;
                agg.unmasked_misses += d.unmasked_misses;
                Some(RowData {
                    fractions: d.fractions(),
                    speedup: speedup(base, cdp),
                    distribution: d,
                })
            }
            _ => {
                complete = false;
                None
            }
        };
        rows.push(Row {
            name: b.name().to_string(),
            data,
        });
    }
    let speedups: Vec<Option<f64>> = rows
        .iter()
        .map(|r| r.data.as_ref().map(|d| d.speedup))
        .collect();
    Figure10 {
        average_speedup: mean_if_complete(&speedups),
        cpf_full_share_of_nonstride: complete.then(|| agg.cpf_full_share_of_nonstride()),
        cpf_fully_masked_share: complete.then(|| agg.cpf_fully_masked_share()),
        rows,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_distributions() {
        let f = run(ExpScale::Smoke, &Pool::new(2));
        assert_eq!(f.rows.len(), 15);
        for r in &f.rows {
            let d = r.data.as_ref().expect("healthy run");
            let sum: f64 = d.fractions.iter().sum();
            assert!(
                d.distribution.total() == 0 || (sum - 1.0).abs() < 1e-9,
                "{}: fractions sum {sum}",
                r.name
            );
        }
        assert!(f.average_speedup.expect("healthy run") > 0.9);
        assert!((0.0..=1.0).contains(&f.cpf_fully_masked_share.expect("healthy run")));
    }
}
