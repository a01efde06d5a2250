//! §3.5 limit study: the cost of cache pollution.
//!
//! "Bad prefetches were injected on every idle bus cycle to force
//! evictions, resulting in cache pollution. This study showed that a low
//! accuracy prefetcher can lead to an average 3% performance reduction."

use cdp_sim::hierarchy::PollutionConfig;
use cdp_sim::metrics::mean;
use cdp_sim::runner::with_warmup;
use cdp_sim::{speedup, JobOutcome, Pool, RunPolicy, RunStats, SimJob};
use cdp_types::SystemConfig;
use cdp_workloads::suite::Benchmark;

use crate::common::{render_table, ExpScale, WorkloadSet};

/// One benchmark's pollution sensitivity.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Cycles with pollution / cycles without (values < 1 are slowdowns).
    pub speedup: f64,
    /// Junk lines injected.
    pub injected: u64,
}

/// The study result.
#[derive(Clone, Debug)]
pub struct Pollution {
    /// Per-benchmark rows.
    pub rows: Vec<Row>,
    /// Average performance change (paper: ≈ −3%).
    pub average: f64,
}

impl Pollution {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Section 3.5 limit study: bad prefetches injected on idle bus cycles\n\n",
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:+.1}%", (r.speedup - 1.0) * 100.0),
                    r.injected.to_string(),
                ]
            })
            .collect();
        out.push_str(&render_table(&["Benchmark", "perf change", "injected"], &rows));
        out.push_str(&format!(
            "\naverage performance change: {:+.1}% (paper: about -3%)\n",
            (self.average - 1.0) * 100.0
        ));
        out
    }
}

/// Runs the pollution study over the full suite (stride baseline with and
/// without injected junk fills).
pub fn run(scale: ExpScale, pool: &Pool) -> Pollution {
    run_on(scale, &Benchmark::all(), pool)
}

/// Runs the study on a subset: the clean and polluted runs of every
/// benchmark are independent pool jobs sharing one workload image.
pub fn run_on(scale: ExpScale, benches: &[Benchmark], pool: &Pool) -> Pollution {
    let s = scale.scale();
    let cfg = with_warmup(SystemConfig::asplos2002(), s);
    let ws = WorkloadSet::default();
    let mut jobs = Vec::new();
    for &b in benches {
        let w = ws.get(b, s);
        jobs.push(SimJob::new(format!("clean/{}", b.name()), cfg.clone(), w.clone()));
        let mut dirty = SimJob::new(format!("dirty/{}", b.name()), cfg.clone(), w);
        // One injection per line-occupancy of idle bus: "every idle
        // bus cycle" at line granularity.
        dirty.pollution = Some(PollutionConfig { period: 60 });
        jobs.push(dirty);
    }
    let results: Vec<RunStats> = pool
        .run_sims_profiled(jobs, RunPolicy::default())
        .into_iter()
        .map(|r| match r.outcome {
            JobOutcome::Ok(stats) => stats,
            other => panic!("{}: {}", r.label, other.failure().unwrap_or_default()),
        })
        .collect();
    let rows = benches
        .iter()
        .zip(results.chunks(2))
        .map(|(&b, pair)| Row {
            name: b.name().to_string(),
            speedup: speedup(&pair[0], &pair[1]),
            injected: pair[1].mem.injected_pollution,
        })
        .collect::<Vec<_>>();
    let average = mean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
    Pollution { rows, average }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pollution_never_helps() {
        let p = run_on(ExpScale::Smoke, &[Benchmark::B2e, Benchmark::Tpcc2], &Pool::new(2));
        assert_eq!(p.rows.len(), 2);
        for r in &p.rows {
            assert!(r.injected > 0, "{} injected nothing", r.name);
            assert!(
                r.speedup <= 1.02,
                "{}: pollution must not speed things up ({:.3})",
                r.name,
                r.speedup
            );
        }
        assert!(p.render().contains("limit study"));
    }
}
