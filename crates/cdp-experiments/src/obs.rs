//! Run-manifest assembly and artifact emission for `--emit-manifest`.
//!
//! The experiments binary collects three streams while it runs — per-cell
//! [`CellRecord`]s from the grids, per-id [`ExperimentRecord`]s from the
//! main loop, and per-run [`cdp_sim::Observation`]s from the obs sink —
//! and this module turns them into the on-disk artifacts:
//!
//! * `manifest.json` — one schema-versioned document per invocation
//!   (config fingerprints, per-cell status/attempts/wall-time, suite
//!   aggregates) validated by [`cdp_obs::validate`];
//! * `metrics.jsonl` — one line per metrics window per observed run;
//! * `trace.jsonl` — one line per captured trace event.
//!
//! All ordering is `(batch, index)` submission order, so artifacts are
//! byte-identical at any `--jobs` count.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};

use cdp_obs::{Json, SCHEMA_VERSION};
use cdp_sim::ObsEntry;

use crate::common::SEED;

/// One finished sweep cell, as the manifest reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRecord {
    /// Owning experiment id (e.g. `tlb`).
    pub experiment: String,
    /// The cell's grid label.
    pub label: String,
    /// `ok`, `failed`, or `timeout`.
    pub status: &'static str,
    /// Wall-clock milliseconds the cell's job consumed.
    pub wall_ms: u64,
    /// FNV-1a fingerprint of the cell's full `SystemConfig`.
    pub config_fingerprint: String,
    /// Checkpoint provenance: `off` (checkpointing disabled), `fresh`,
    /// `resumed`, or `corrupt-fallback` (see DESIGN.md §12).
    pub checkpoint: &'static str,
    /// Uops retired in the cell's measurement window (0 for failed
    /// cells). Deterministic — unlike `wall_ms` — so run-explain diffs
    /// it across runs.
    pub retired: u64,
    /// Prefetches issued across every engine in the cell (0 for failed
    /// cells). With `pf_useful`/`pf_wasted` this lets manifest consumers
    /// compute coverage and accuracy without re-running the cell.
    pub pf_issued: u64,
    /// Issued prefetches a demand later touched (fully or partially
    /// masked).
    pub pf_useful: u64,
    /// Prefetched lines evicted untouched (the wasted-prefetch counter
    /// the tournament's hybrid assertions read).
    pub pf_wasted: u64,
}

impl CellRecord {
    /// The cell's throughput in millions of uops per wall-clock second.
    /// Wall time lives only here, at the manifest layer — [`RunStats`]
    /// stays wall-free so simulation results remain bit-comparable.
    ///
    /// [`RunStats`]: cdp_sim::RunStats
    #[must_use]
    pub fn muops(&self) -> f64 {
        if self.retired == 0 || self.wall_ms == 0 {
            return 0.0;
        }
        self.retired as f64 / (self.wall_ms as f64 * 1000.0)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("experiment", Json::Str(self.experiment.clone()));
        o.set("label", Json::Str(self.label.clone()));
        o.set("status", Json::Str(self.status.to_string()));
        // Schema v3 requires the key; every cell runs exactly once.
        o.set("attempts", Json::U64(1));
        o.set("wall_ms", Json::U64(self.wall_ms));
        o.set(
            "config_fingerprint",
            Json::Str(self.config_fingerprint.clone()),
        );
        o.set("checkpoint", Json::Str(self.checkpoint.to_string()));
        o.set("retired", Json::U64(self.retired));
        o.set("muops", Json::F64(self.muops()));
        o.set("pf_issued", Json::U64(self.pf_issued));
        o.set("pf_useful", Json::U64(self.pf_useful));
        o.set("pf_wasted", Json::U64(self.pf_wasted));
        o
    }
}

/// One experiment id's wall time, as the manifest reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// Experiment id (e.g. `fig9`).
    pub id: String,
    /// Wall-clock milliseconds for the whole experiment.
    pub wall_ms: u64,
}

impl ExperimentRecord {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("id", Json::Str(self.id.clone()));
        o.set("wall_ms", Json::U64(self.wall_ms));
        o
    }
}

/// Everything the run accumulated for artifact emission.
#[derive(Debug, Default)]
pub struct ObsTaken {
    /// Per-cell records, in recording order (submission order per grid).
    pub cells: Vec<CellRecord>,
    /// Per-experiment wall times, in invocation order.
    pub experiments: Vec<ExperimentRecord>,
    /// Drained observations in `(batch, index)` order.
    pub entries: Vec<ObsEntry>,
    /// batch id → owning experiment id (parallel to batch allocation).
    pub batch_experiments: Vec<String>,
    /// Cells served from the fingerprint-keyed result cache.
    pub result_cache_hits: u64,
    /// Cells simulated because the result cache had no usable entry.
    pub result_cache_misses: u64,
    /// Entries replayed from the persistent result store (0 without
    /// `--result-store`).
    pub result_store_hits: u64,
    /// Store lookups that found no usable entry on disk.
    pub result_store_misses: u64,
    /// Damaged store entries moved aside and recomputed.
    pub result_store_quarantined: u64,
    /// Checkpoint writes that failed and were dropped (best-effort
    /// writes, but never silent).
    pub checkpoint_dropped_writes: u64,
}

impl ObsTaken {
    fn batch_experiment(&self, batch: u64) -> &str {
        self.batch_experiments
            .get(batch as usize)
            .map_or("", String::as_str)
    }

    /// Collected profiles keyed `(experiment, label)`, each key holding
    /// its entries in drain order. Cells re-run across grids share a
    /// label, so the manifest consumes each key as a FIFO queue: the
    /// n-th recorded cell under a key gets the n-th profile.
    fn profile_queues(&self) -> HashMap<(&str, &str), VecDeque<&cdp_obs::Profile>> {
        let mut queues: HashMap<(&str, &str), VecDeque<&cdp_obs::Profile>> = HashMap::new();
        for e in &self.entries {
            if let Some(p) = &e.observation.profile {
                queues
                    .entry((self.batch_experiment(e.batch), e.label.as_str()))
                    .or_default()
                    .push_back(p);
            }
        }
        queues
    }
}

/// Builds the `manifest.json` document.
#[must_use]
pub fn build_manifest(scale: &str, jobs: usize, taken: &ObsTaken) -> Json {
    let mut counts = (0u64, 0u64, 0u64); // ok, failed, timeout
    let mut wall_ms_total = 0u64;
    let mut retired_total = 0u64;
    for c in &taken.cells {
        match c.status {
            "ok" => counts.0 += 1,
            "failed" => counts.1 += 1,
            _ => counts.2 += 1,
        }
        wall_ms_total += c.wall_ms;
        retired_total += c.retired;
    }
    let windows_total: u64 = taken
        .entries
        .iter()
        .map(|e| e.observation.windows.len() as u64)
        .sum();
    let (mut events_total, mut recorded, mut overwritten, mut sampled_out) = (0u64, 0, 0, 0);
    for e in &taken.entries {
        events_total += e.observation.events.len() as u64;
        recorded += e.observation.trace_recorded;
        overwritten += e.observation.trace_overwritten;
        sampled_out += e.observation.trace_sampled_out;
    }
    let mut aggregates = Json::obj();
    aggregates.set("cells_total", Json::U64(taken.cells.len() as u64));
    aggregates.set("cells_ok", Json::U64(counts.0));
    aggregates.set("cells_failed", Json::U64(counts.1));
    aggregates.set("cells_timeout", Json::U64(counts.2));
    aggregates.set("cell_wall_ms_total", Json::U64(wall_ms_total));
    aggregates.set("uops_retired_total", Json::U64(retired_total));
    // Aggregate throughput: simulated uops per wall-clock second across
    // every cell, in millions. Summed cell wall time (not suite wall
    // time) so the figure is comparable at any --jobs count.
    aggregates.set(
        "muops",
        Json::F64(if retired_total == 0 || wall_ms_total == 0 {
            0.0
        } else {
            retired_total as f64 / (wall_ms_total as f64 * 1000.0)
        }),
    );
    aggregates.set("metrics_windows_total", Json::U64(windows_total));
    aggregates.set("trace_events_total", Json::U64(events_total));
    aggregates.set("trace_recorded_total", Json::U64(recorded));
    aggregates.set("trace_overwritten_total", Json::U64(overwritten));
    aggregates.set("trace_sampled_out_total", Json::U64(sampled_out));

    let suite_wall_ms: u64 = taken.experiments.iter().map(|e| e.wall_ms).sum();

    let mut doc = Json::obj();
    doc.set("schema_version", Json::U64(SCHEMA_VERSION));
    doc.set("tool", Json::Str("cdp-experiments".to_string()));
    doc.set("scale", Json::Str(scale.to_string()));
    doc.set("jobs", Json::U64(jobs as u64));
    doc.set("seed", Json::U64(SEED));
    doc.set("suite_wall_ms", Json::U64(suite_wall_ms));
    doc.set("result_cache_hits", Json::U64(taken.result_cache_hits));
    doc.set("result_cache_misses", Json::U64(taken.result_cache_misses));
    doc.set("result_store_hits", Json::U64(taken.result_store_hits));
    doc.set("result_store_misses", Json::U64(taken.result_store_misses));
    doc.set(
        "result_store_quarantined",
        Json::U64(taken.result_store_quarantined),
    );
    doc.set(
        "checkpoint_dropped_writes",
        Json::U64(taken.checkpoint_dropped_writes),
    );
    doc.set(
        "experiments",
        Json::Arr(
            taken
                .experiments
                .iter()
                .map(ExperimentRecord::to_json)
                .collect(),
        ),
    );
    let mut profiles = taken.profile_queues();
    doc.set(
        "cells",
        Json::Arr(
            taken
                .cells
                .iter()
                .map(|c| {
                    let mut o = c.to_json();
                    if let Some(p) = profiles
                        .get_mut(&(c.experiment.as_str(), c.label.as_str()))
                        .and_then(VecDeque::pop_front)
                    {
                        o.set("profile", p.to_json());
                    }
                    o
                })
                .collect(),
        ),
    );
    doc.set("aggregates", aggregates);
    doc
}

/// Renders `metrics.jsonl`: one line per window per observed run.
#[must_use]
pub fn render_metrics_jsonl(taken: &ObsTaken) -> String {
    let mut out = String::new();
    for e in &taken.entries {
        for w in &e.observation.windows {
            let mut line = Json::obj();
            line.set(
                "experiment",
                Json::Str(taken.batch_experiment(e.batch).to_string()),
            );
            line.set("label", Json::Str(e.label.clone()));
            let Json::Obj(fields) = w.to_json() else {
                unreachable!("MetricsWindow::to_json always yields an object");
            };
            for (k, v) in fields {
                line.set(&k, v);
            }
            out.push_str(&line.to_string());
            out.push('\n');
        }
    }
    out
}

/// Renders `trace.jsonl`: one line per captured event.
#[must_use]
pub fn render_trace_jsonl(taken: &ObsTaken) -> String {
    let mut out = String::new();
    for e in &taken.entries {
        for ev in &e.observation.events {
            let mut line = Json::obj();
            line.set(
                "experiment",
                Json::Str(taken.batch_experiment(e.batch).to_string()),
            );
            line.set("label", Json::Str(e.label.clone()));
            line.set("event", ev.to_json());
            out.push_str(&line.to_string());
            out.push('\n');
        }
    }
    out
}

/// Writes the artifact set into `dir`, returning the written paths.
///
/// `manifest.json` is always written; `metrics.jsonl` / `trace.jsonl`
/// only when the run actually captured windows / events.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifacts(
    dir: &Path,
    scale: &str,
    jobs: usize,
    taken: &ObsTaken,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let manifest = build_manifest(scale, jobs, taken);
    debug_assert!(
        cdp_obs::validate(&manifest).is_ok(),
        "emitted manifest must self-validate"
    );
    let mut paths = Vec::new();
    let mut write = |name: &str, text: String| -> std::io::Result<()> {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(text.as_bytes())?;
        paths.push(path);
        Ok(())
    };
    write("manifest.json", format!("{manifest}\n"))?;
    let metrics = render_metrics_jsonl(taken);
    if !metrics.is_empty() {
        write("metrics.jsonl", metrics)?;
    }
    let trace = render_trace_jsonl(taken);
    if !trace.is_empty() {
        write("trace.jsonl", trace)?;
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::{MetricsWindow, Observation};

    fn sample_taken() -> ObsTaken {
        ObsTaken {
            cells: vec![
                CellRecord {
                    experiment: "tlb".into(),
                    label: "64/slsb".into(),
                    status: "ok",
                    wall_ms: 12,
                    config_fingerprint: "00baddecafc0ffee".into(),
                    checkpoint: "off",
                    retired: 24_000,
                    pf_issued: 120,
                    pf_useful: 90,
                    pf_wasted: 10,
                },
                CellRecord {
                    experiment: "tlb".into(),
                    label: "128/slsb".into(),
                    status: "timeout",
                    wall_ms: 900,
                    config_fingerprint: "00baddecafc0ffee".into(),
                    checkpoint: "resumed",
                    retired: 0,
                    pf_issued: 0,
                    pf_useful: 0,
                    pf_wasted: 0,
                },
            ],
            experiments: vec![ExperimentRecord {
                id: "tlb".into(),
                wall_ms: 950,
            }],
            entries: vec![ObsEntry {
                batch: 0,
                index: 0,
                label: "64/slsb".into(),
                observation: Observation {
                    windows: vec![MetricsWindow {
                        window: 0,
                        retired: 1000,
                        cycles: 2000,
                        ..MetricsWindow::default()
                    }],
                    ..Observation::default()
                },
            }],
            batch_experiments: vec!["tlb".into()],
            result_cache_hits: 3,
            result_cache_misses: 5,
            result_store_hits: 2,
            result_store_misses: 3,
            result_store_quarantined: 1,
            checkpoint_dropped_writes: 4,
        }
    }

    #[test]
    fn manifest_validates_and_aggregates() {
        let taken = sample_taken();
        let doc = build_manifest("smoke", 4, &taken);
        cdp_obs::validate(&doc).expect("schema-valid");
        let agg = doc.get("aggregates").unwrap();
        assert_eq!(agg.get("cells_total").unwrap().as_u64(), Some(2));
        assert_eq!(agg.get("cells_ok").unwrap().as_u64(), Some(1));
        assert_eq!(agg.get("cells_timeout").unwrap().as_u64(), Some(1));
        assert_eq!(agg.get("metrics_windows_total").unwrap().as_u64(), Some(1));
        assert_eq!(
            agg.get("uops_retired_total").unwrap().as_u64(),
            Some(24_000)
        );
        // 24_000 uops over 912 ms of summed cell wall time.
        let muops = agg.get("muops").unwrap().as_f64().unwrap();
        assert!((muops - 24_000.0 / 912_000.0).abs() < 1e-12, "got {muops}");
        let cell = doc.get("cells").unwrap().as_arr().unwrap()[0].clone();
        assert_eq!(cell.get("retired").unwrap().as_u64(), Some(24_000));
        assert!(cell.get("muops").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(cell.get("pf_issued").unwrap().as_u64(), Some(120));
        assert_eq!(cell.get("pf_useful").unwrap().as_u64(), Some(90));
        assert_eq!(cell.get("pf_wasted").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("suite_wall_ms").unwrap().as_u64(), Some(950));
        assert_eq!(doc.get("result_cache_hits").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("result_cache_misses").unwrap().as_u64(), Some(5));
        assert_eq!(doc.get("result_store_hits").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("result_store_misses").unwrap().as_u64(), Some(3));
        assert_eq!(
            doc.get("result_store_quarantined").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("checkpoint_dropped_writes").unwrap().as_u64(),
            Some(4)
        );
        // Round-trips through the parser.
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        cdp_obs::validate(&reparsed).expect("still valid after round-trip");
    }

    #[test]
    fn metrics_jsonl_lines_parse_and_carry_provenance() {
        let taken = sample_taken();
        let text = render_metrics_jsonl(&taken);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let j = Json::parse(lines[0]).unwrap();
        assert_eq!(j.get("experiment").unwrap().as_str(), Some("tlb"));
        assert_eq!(j.get("label").unwrap().as_str(), Some("64/slsb"));
        assert_eq!(j.get("retired").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn empty_streams_render_empty() {
        let taken = ObsTaken::default();
        assert!(render_metrics_jsonl(&taken).is_empty());
        assert!(render_trace_jsonl(&taken).is_empty());
        let doc = build_manifest("quick", 1, &taken);
        cdp_obs::validate(&doc).expect("empty run still schema-valid");
    }
}
