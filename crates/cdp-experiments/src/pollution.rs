//! §3.5 limit study: the cost of cache pollution.
//!
//! "Bad prefetches were injected on every idle bus cycle to force
//! evictions, resulting in cache pollution. This study showed that a low
//! accuracy prefetcher can lead to an average 3% performance reduction."

use cdp_sim::hierarchy::PollutionConfig;
use cdp_sim::runner::with_warmup;
use cdp_sim::{speedup, RunLength, SimJob};
use cdp_types::SystemConfig;
use cdp_workloads::suite::Benchmark;

use crate::common::{failure_note, mean_if_complete, opt_cell, render_table, CellFailure};
use crate::context::Context;

/// One benchmark's pollution sensitivity.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Cycles with pollution / cycles without (values < 1 are slowdowns);
    /// `None` if either run failed.
    pub speedup: Option<f64>,
    /// Junk lines injected; `None` if the polluted run failed.
    pub injected: Option<u64>,
}

/// The study result.
#[derive(Clone, Debug)]
pub struct Pollution {
    /// Per-benchmark rows.
    pub rows: Vec<Row>,
    /// Average performance change (paper: ≈ −3%); `None` when any
    /// benchmark gapped out.
    pub average: Option<f64>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl Pollution {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Section 3.5 limit study: bad prefetches injected on idle bus cycles\n\n");
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    opt_cell(r.speedup, |s| format!("{:+.1}%", (s - 1.0) * 100.0)),
                    opt_cell(r.injected, |i| i.to_string()),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["Benchmark", "perf change", "injected"],
            &rows,
        ));
        out.push_str(&format!(
            "\naverage performance change: {} (paper: about -3%)\n",
            opt_cell(self.average, |a| format!("{:+.1}%", (a - 1.0) * 100.0))
        ));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the pollution study over the full suite (stride baseline with and
/// without injected junk fills).
pub fn run(scale: RunLength, ctx: &Context) -> Pollution {
    run_on(scale, &Benchmark::all(), ctx)
}

/// Runs the study on a subset: the clean and polluted runs of every
/// benchmark are cells of the context's runner sharing one workload
/// image. A failed run gaps out its row.
pub fn run_on(scale: RunLength, benches: &[Benchmark], ctx: &Context) -> Pollution {
    let s = scale.scale();
    let cfg = with_warmup(SystemConfig::asplos2002(), s);
    let ws = ctx.workloads();
    let mut jobs = Vec::new();
    for &b in benches {
        let w = ws.get(b, s);
        jobs.push(SimJob::new(
            format!("clean/{}", b.name()),
            cfg.clone(),
            w.clone(),
        ));
        let mut dirty = SimJob::new(format!("dirty/{}", b.name()), cfg.clone(), w);
        // One injection per line-occupancy of idle bus: "every idle
        // bus cycle" at line granularity.
        dirty.pollution = Some(PollutionConfig { period: 60 });
        jobs.push(dirty);
    }
    let (cells, failures) = ctx.run_cells(&ws, jobs);
    let rows = benches
        .iter()
        .zip(cells.chunks(2))
        .map(|(&b, pair)| Row {
            name: b.name().to_string(),
            speedup: match pair {
                [Some((clean, _)), Some((dirty, _))] => Some(speedup(clean, dirty)),
                _ => None,
            },
            injected: pair[1]
                .as_ref()
                .map(|(dirty, _)| dirty.mem.injected_pollution),
        })
        .collect::<Vec<_>>();
    let average = mean_if_complete(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
    Pollution {
        rows,
        average,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::Pool;

    #[test]
    fn pollution_never_helps() {
        let p = run_on(
            RunLength::Smoke,
            &[Benchmark::B2e, Benchmark::Tpcc2],
            &Context::new(Pool::new(2)),
        );
        assert_eq!(p.rows.len(), 2);
        assert!(p.failures.is_empty(), "fault-free run has no gaps");
        for r in &p.rows {
            let (speedup, injected) = (r.speedup.expect("healthy"), r.injected.expect("healthy"));
            assert!(injected > 0, "{} injected nothing", r.name);
            assert!(
                speedup <= 1.02,
                "{}: pollution must not speed things up ({:.3})",
                r.name,
                speedup
            );
        }
        assert!(p.render().contains("limit study"));
    }
}
