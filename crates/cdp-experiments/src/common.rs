//! Shared experiment plumbing: workload sets, gap rendering, and plain
//!-text table rendering.

use std::sync::{Arc, Mutex};

use cdp_sim::runner::DEFAULT_SEED;
use cdp_sim::{FaultPlan, WorkloadCache};
use cdp_workloads::suite::{Benchmark, Scale};
use cdp_workloads::Workload;

/// One experiment's workload images: experiments run many
/// configurations over the same workloads, and building each image once
/// matters.
///
/// Entries are keyed by `(Benchmark, Scale)` — a set holding a smoke
/// image never leaks it into a quick run — and handed out as shared
/// immutable [`Arc`]s so concurrent pool jobs reuse one image. Every
/// image passes through the fault plan once, when it is built
/// ([`WorkloadSet::faulted`]). Beside the images the set memoizes each
/// image's [`Workload::fingerprint`], taken after the plan edited it, so
/// cells key their results on the image they really run
/// ([`cdp_sim::SimJob::key`]) while each image is hashed at most once.
#[derive(Debug, Default)]
pub struct WorkloadSet {
    faults: FaultPlan,
    stream: bool,
    cache: WorkloadCache,
    fingerprints: Mutex<Vec<(Arc<Workload>, u64)>>,
}

impl WorkloadSet {
    /// An empty set whose images get `faults`' image edits, built with
    /// the streaming engine at every scale when `stream` is set.
    pub(crate) fn new(faults: FaultPlan, stream: bool) -> WorkloadSet {
        WorkloadSet {
            faults,
            stream,
            ..WorkloadSet::default()
        }
    }

    /// Builds (or reuses) the workload for `bench` at `scale` with the
    /// experiment seed. Builds are deterministic (fixed seed, seeded
    /// injection), so every cell of a benchmark sees the same — possibly
    /// faulted — image at any job count.
    pub fn get(&self, bench: Benchmark, scale: Scale) -> Arc<Workload> {
        self.cache.get_with(bench, scale, || {
            let streamed = self.stream || scale.streamed();
            self.faulted(bench.build_with_engine(scale, DEFAULT_SEED, streamed))
        })
    }

    /// Applies the fault plan's image faults (corrupt / unmap) that match
    /// `image`'s name — the step every image an experiment runs passes
    /// through, custom-built ones included.
    pub fn faulted(&self, mut image: Workload) -> Workload {
        let name = image.name.clone();
        self.faults.apply(&name, &mut image);
        image
    }

    /// The [`Workload::fingerprint`] of `image`, computed the first time
    /// this set sees it.
    pub(crate) fn fingerprint(&self, image: &Arc<Workload>) -> u64 {
        let mut memo = self.fingerprints.lock().expect("fingerprint memo lock");
        if let Some(&(_, fp)) = memo.iter().find(|(w, _)| Arc::ptr_eq(w, image)) {
            return fp;
        }
        let fp = image.fingerprint();
        memo.push((Arc::clone(image), fp));
        fp
    }
}

/// One failed sweep cell (see [`crate::context::Context::run_cells`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's grid label.
    pub label: String,
    /// Why it failed.
    pub error: String,
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let b2e = ws.get(Benchmark::B2e, Scale::smoke());
        let fp = ws.fingerprint(&b2e);
        assert_eq!(fp, b2e.fingerprint());
        assert_eq!(fp, ws.fingerprint(&ws.get(Benchmark::B2e, Scale::smoke())));
        assert_ne!(fp, ws.fingerprint(&ws.get(Benchmark::Slsb, Scale::smoke())));
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
}
