//! Shared experiment plumbing: run sizing, workload caching, and plain
//!-text table rendering.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cdp_sim::runner::{build_workload, with_warmup, DEFAULT_SEED};
use cdp_sim::{
    CheckpointSpec, CheckpointStatus, Engine, EngineCounters, JobOutcome, JobReport, Pool,
    ResultSource, RunStats, SimJob, WorkloadCache,
};
use cdp_types::SystemConfig;
use cdp_workloads::suite::{Benchmark, Scale};
use cdp_workloads::Workload;

use crate::context;
use crate::obs::CellRecord;

/// How big an experiment run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpScale {
    /// Minutes-scale smoke runs (CI / tests).
    Smoke,
    /// The default: every figure in a few minutes.
    Quick,
    /// Full runs (the EXPERIMENTS.md numbers).
    Full,
    /// Streaming-tier runs (~100M uops/cell); workloads above the
    /// streaming threshold synthesize uops on the fly with O(window)
    /// resident memory.
    Large,
    /// The top streaming tier (~1B uops/cell).
    Huge,
}

impl ExpScale {
    /// The workload scale.
    pub fn scale(self) -> Scale {
        match self {
            ExpScale::Smoke => Scale::smoke(),
            ExpScale::Quick => Scale::quick(),
            ExpScale::Full => Scale::full(),
            ExpScale::Large => Scale::large(),
            ExpScale::Huge => Scale::huge(),
        }
    }

    /// The scale's canonical lowercase name (inverse of
    /// [`ExpScale::parse`]; used by manifests).
    pub fn name(self) -> &'static str {
        match self {
            ExpScale::Smoke => "smoke",
            ExpScale::Quick => "quick",
            ExpScale::Full => "full",
            ExpScale::Large => "large",
            ExpScale::Huge => "huge",
        }
    }

    /// Parses `smoke` / `quick` / `full` / `large` / `huge`.
    pub fn parse(s: &str) -> Option<ExpScale> {
        match s {
            "smoke" => Some(ExpScale::Smoke),
            "quick" => Some(ExpScale::Quick),
            "full" => Some(ExpScale::Full),
            "large" => Some(ExpScale::Large),
            "huge" => Some(ExpScale::Huge),
            _ => None,
        }
    }
}

/// A benchmark workload cache: experiments run many configurations over
/// the same workloads; building each workload once matters.
///
/// Entries are keyed by `(Benchmark, Scale)` — a set holding a smoke
/// image never leaks it into a quick run — and handed out as shared
/// immutable [`Arc`]s so concurrent pool jobs reuse one image. Beside
/// each image the set memoizes its [`Workload::fingerprint`], taken after
/// the fault plan edited it, so the cells of a grid key their results on
/// the image they really run ([`SimJob::key`]) while each image is hashed
/// at most once.
#[derive(Debug, Default)]
pub struct WorkloadSet {
    cache: WorkloadCache,
    fingerprints: Mutex<HashMap<(Benchmark, Scale), u64>>,
}

impl WorkloadSet {
    /// Builds (or reuses) the workload for `bench` at `scale`, applying
    /// the process-wide fault-injection plan (if any) to fresh builds.
    /// Builds are deterministic (fixed seed, seeded injection), so every
    /// cell of a benchmark sees the same — possibly faulted — image at
    /// any job count.
    pub fn get(&self, bench: Benchmark, scale: Scale) -> Arc<Workload> {
        self.cache.get_with(bench, scale, || {
            let mut w = build_workload(bench, scale);
            context::fault_plan().apply(bench.name(), &mut w);
            w
        })
    }

    /// The [`Workload::fingerprint`] of [`WorkloadSet::get`]'s image,
    /// computed on first use.
    fn fingerprint(&self, bench: Benchmark, scale: Scale) -> u64 {
        let image = self.get(bench, scale);
        *self
            .fingerprints
            .lock()
            .expect("fingerprint memo lock")
            .entry((bench, scale))
            .or_insert_with(|| image.fingerprint())
    }
}

/// Every prefetch engine's counters in one run, for the manifest's
/// cross-engine coverage/accuracy/wasted accounting.
fn engines(stats: &RunStats) -> impl Iterator<Item = &EngineCounters> {
    Engine::ALL.into_iter().filter_map(|e| stats.mem.engine(e))
}

/// One failed sweep cell (see [`cell_or_gap`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's grid label.
    pub label: String,
    /// Why it failed.
    pub error: String,
}

/// Submits a labelled `(config, benchmark)` grid to the pool and returns
/// per-cell results in submission order, plus the cells that failed.
///
/// Every job gets the §2.2 warm-up convention and a shared workload
/// image from `ws`; workloads are pre-built serially so job timing never
/// depends on cache races. Jobs run under the process-wide watchdog
/// policy, and benchmarks targeted by a walk-fault directive get the
/// injection attached.
///
/// In strict mode (the default) the first failing cell panics with its
/// typed error, preserving the historical fail-fast behavior. In
/// keep-going mode failing cells come back as `None` (an annotated gap
/// for the caller to render), are appended to the global failure report,
/// and every healthy cell still completes.
///
/// # Panics
///
/// Panics on the first failed cell unless keep-going mode is active.
pub fn run_grid_cells(
    pool: &Pool,
    ws: &WorkloadSet,
    scale: Scale,
    grid: Vec<(String, SystemConfig, Benchmark)>,
) -> (Vec<Option<RunStats>>, Vec<CellFailure>) {
    let plan = context::fault_plan();
    let collect = context::obs_enabled();
    let batch = context::obs_new_batch();
    let result_cache = context::result_cache();
    let checkpointing = context::checkpointing();
    let mut fingerprints = Vec::new();
    let mut checkpoint_statuses: Vec<Option<Arc<CheckpointStatus>>> = Vec::new();
    let jobs: Vec<SimJob> = grid
        .into_iter()
        .enumerate()
        .map(|(index, (label, cfg, bench))| {
            let cfg = with_warmup(cfg, scale);
            if collect {
                fingerprints.push(cdp_obs::fingerprint_hex(format!("{cfg:?}").as_bytes()));
            }
            let walk_fault = plan.walk_fault(bench.name());
            let mut job = SimJob::new(label, cfg, ws.get(bench, scale));
            if let Some(wf) = walk_fault {
                job = job.with_walk_fault(wf);
            }
            let key = job.key(ws.fingerprint(bench, scale));
            if let Some(cache) = &result_cache {
                job = job.with_result_cache(Arc::clone(cache), key);
            }
            if let Some(ck) = &checkpointing {
                let status = CheckpointStatus::shared();
                checkpoint_statuses.push(Some(Arc::clone(&status)));
                job = job.with_checkpoint(CheckpointSpec {
                    dir: ck.dir.clone(),
                    every: ck.every,
                    key,
                    resume: ck.resume,
                    status: Some(status),
                    io: None,
                });
            } else {
                checkpoint_statuses.push(None);
            }
            if let Some(obs) = context::obs_job_attachment(batch, index) {
                job = job.with_obs(obs);
            }
            job
        })
        .collect();
    let experiment = context::current_experiment();
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for (index, report) in pool
        .run_sims_profiled(jobs, context::policy())
        .into_iter()
        .enumerate()
    {
        let JobReport {
            label,
            outcome,
            wall,
        } = report;
        if collect {
            context::obs_record_cell(CellRecord {
                experiment: experiment.clone(),
                label: label.clone(),
                status: outcome.status(),
                wall_ms: wall.as_millis() as u64,
                config_fingerprint: fingerprints[index].clone(),
                checkpoint: checkpoint_statuses[index]
                    .as_ref()
                    .map_or("off", |s| match s.get() {
                        ResultSource::CheckpointResumed => "resumed",
                        ResultSource::CorruptFallback => "corrupt-fallback",
                        _ => "fresh",
                    }),
                retired: match &outcome {
                    JobOutcome::Ok(stats) => stats.retired,
                    _ => 0,
                },
                pf_issued: match &outcome {
                    JobOutcome::Ok(stats) => engines(stats).map(|e| e.issued).sum(),
                    _ => 0,
                },
                pf_useful: match &outcome {
                    JobOutcome::Ok(stats) => engines(stats).map(EngineCounters::useful).sum(),
                    _ => 0,
                },
                pf_wasted: match &outcome {
                    JobOutcome::Ok(stats) => engines(stats).map(|e| e.wasted_evictions).sum(),
                    _ => 0,
                },
            });
        }
        cells.push(cell_or_gap(label, outcome, &mut failures));
    }
    // Fold each cell's dropped checkpoint writes into the run-wide
    // total: best-effort writes, but the manifest must not hide them.
    let dropped: u64 = checkpoint_statuses
        .iter()
        .flatten()
        .map(|s| s.dropped_writes())
        .sum();
    if dropped > 0 {
        context::add_checkpoint_dropped_writes(dropped);
    }
    (cells, failures)
}

/// Unwraps one finished cell. In strict mode a failure panics with its
/// error; in keep-going mode it joins the global failure report and
/// `failures`, and the cell comes back as `None` (an annotated gap for
/// the caller to render).
///
/// # Panics
///
/// Panics on a failed cell unless keep-going mode is active.
pub fn cell_or_gap<T>(
    label: String,
    outcome: JobOutcome<T>,
    failures: &mut Vec<CellFailure>,
) -> Option<T> {
    let error = match outcome {
        JobOutcome::Ok(value) => return Some(value),
        other => other
            .failure()
            .expect("non-Ok outcomes always describe their failure"),
    };
    if !context::keep_going() {
        panic!("cell {label}: {error}");
    }
    context::record_failure(&label, &error);
    failures.push(CellFailure { label, error });
    None
}

/// The gap marker rendered for a failed sweep cell.
pub const GAP: &str = "--";

/// Formats an optional cell value, rendering `None` as the [`GAP`]
/// marker.
pub fn opt_cell<T>(v: Option<T>, fmt: impl FnOnce(T) -> String) -> String {
    v.map_or_else(|| GAP.to_string(), fmt)
}

/// The arithmetic mean, or `None` if any contributing cell is missing
/// (a suite average over a partial suite would not be comparable to the
/// paper's number, so it gaps out too).
pub fn mean_if_complete(values: &[Option<f64>]) -> Option<f64> {
    let mut sum = 0.0;
    for v in values {
        sum += (*v)?;
    }
    if values.is_empty() {
        Some(0.0)
    } else {
        Some(sum / values.len() as f64)
    }
}

/// Renders the per-experiment failure annotation appended below a table
/// that contains gaps. Empty (and therefore byte-invisible) when no cell
/// failed.
pub fn failure_note(failures: &[CellFailure]) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "\n{} cell(s) failed and render as \"{GAP}\":\n",
        failures.len()
    );
    for f in failures {
        out.push_str(&format!("  {}: {}\n", f.label, f.error));
    }
    out
}

/// The experiment seed (re-exported for the few experiments that build
/// custom structures).
pub const SEED: u64 = DEFAULT_SEED;

/// Renders a plain-text table: header row + aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            // Right-align numeric-looking cells, left-align the first column.
            if i == 0 {
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            } else {
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
        }
        line
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// The paper's "best coverage/accuracy trade-off" rule: among the points
/// whose coverage is within one percentage point of the maximum, pick the
/// most accurate (coverage is the scarce resource; accuracy is the
/// tie-breaker).
pub fn best_tradeoff(points: &[(f64, f64)]) -> usize {
    let max_cov = points.iter().map(|p| p.0).fold(0.0, f64::max);
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.0 >= max_cov - 0.01)
        .max_by(|(_, a), (_, b)| a.1.partial_cmp(&b.1).expect("finite accuracy"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Renders a horizontal ASCII bar scaled so `max_value` fills `width`
/// characters (values clamp into `[0, max_value]`).
pub fn ascii_bar(value: f64, max_value: f64, width: usize) -> String {
    if max_value <= 0.0 || width == 0 {
        return String::new();
    }
    let frac = (value / max_value).clamp(0.0, 1.0);
    let filled = (frac * width as f64).round() as usize;
    let mut bar = "#".repeat(filled);
    bar.push_str(&" ".repeat(width - filled));
    bar
}

/// Formats a ratio as the paper's speedup convention (e.g. `1.126`).
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.3}")
}

/// Formats a fraction as a percentage (e.g. `12.6%`).
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(ExpScale::parse("quick"), Some(ExpScale::Quick));
        assert_eq!(ExpScale::parse("large"), Some(ExpScale::Large));
        assert_eq!(ExpScale::parse("huge"), Some(ExpScale::Huge));
        assert_eq!(ExpScale::parse("bogus"), None);
        assert_eq!(
            ExpScale::parse(ExpScale::Large.name()),
            Some(ExpScale::Large)
        );
        assert!(ExpScale::Large.scale().target_uops > ExpScale::Full.scale().target_uops);
        assert!(ExpScale::Huge.scale().target_uops > ExpScale::Large.scale().target_uops);
    }

    #[test]
    fn workload_set_caches() {
        let ws = WorkloadSet::default();
        let a = ws.get(Benchmark::B2e, Scale::smoke());
        let b = ws.get(Benchmark::B2e, Scale::smoke());
        assert!(Arc::ptr_eq(&a, &b), "same key shares one image");
    }

    #[test]
    fn workload_set_is_keyed_by_scale_too() {
        // Regression test: the cache used to key on Benchmark alone, so
        // a set that had served a smoke-scale image would silently hand
        // it back for a quick-scale request.
        let ws = WorkloadSet::default();
        let smoke = ws.get(Benchmark::B2e, Scale::smoke());
        let quick = ws.get(Benchmark::B2e, Scale::quick());
        assert!(!Arc::ptr_eq(&smoke, &quick));
        assert!(
            quick.program.len() > smoke.program.len(),
            "quick image must be the bigger build: {} vs {}",
            quick.program.len(),
            smoke.program.len()
        );
    }

    #[test]
    fn workload_set_fingerprints_the_image_it_serves() {
        let ws = WorkloadSet::default();
        let fp = ws.fingerprint(Benchmark::B2e, Scale::smoke());
        assert_eq!(fp, ws.get(Benchmark::B2e, Scale::smoke()).fingerprint());
        assert_eq!(fp, ws.fingerprint(Benchmark::B2e, Scale::smoke()));
        assert_ne!(fp, ws.fingerprint(Benchmark::Slsb, Scale::smoke()));
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["name", "x"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "22.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("a     "));
    }

    #[test]
    fn bars() {
        assert_eq!(ascii_bar(0.5, 1.0, 4), "##  ");
        assert_eq!(ascii_bar(2.0, 1.0, 4), "####", "clamps above max");
        assert_eq!(ascii_bar(-1.0, 1.0, 4), "    ", "clamps below zero");
        assert_eq!(ascii_bar(1.0, 0.0, 4), "", "degenerate max");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_speedup(1.1264), "1.126");
        assert_eq!(fmt_pct(0.126), "12.6%");
    }
}
