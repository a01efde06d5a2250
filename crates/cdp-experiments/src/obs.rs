//! Run-manifest assembly and artifact emission for `--emit-manifest`.
//!
//! The experiments binary collects two streams while it runs — per-cell
//! [`CellRecord`]s from the grids, each carrying the cell's
//! [`Observation`] when it was observed, and per-id [`ExperimentRecord`]s
//! from the main loop — and this module turns them into the on-disk
//! artifacts:
//!
//! * `manifest.json` — one schema-versioned document per invocation
//!   (config fingerprints, per-cell status/attempts/wall-time, suite
//!   aggregates) validated by [`cdp_obs::validate`];
//! * `metrics.jsonl` — one line per metrics window per observed run;
//! * `trace.jsonl` — one line per captured trace event.
//!
//! Every artifact follows cell-record order: grids record their cells in
//! submission order, so artifacts are byte-identical at any `--jobs`
//! count.

use std::io::Write;
use std::path::{Path, PathBuf};

use cdp_obs::{Json, SCHEMA_VERSION};
use cdp_sim::Observation;

use crate::common::SEED;

/// One finished sweep cell, as the artifacts report it.
#[derive(Clone, Debug)]
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
    /// The cell's observation (its metrics windows, trace events and
    /// latency profile), when the run was observed and the cell
    /// succeeded.
    pub observation: Option<Observation>,
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
        if let Some(p) = self.observation.as_ref().and_then(|o| o.profile.as_ref()) {
            o.set("profile", p.to_json());
        }
        o
    }

    /// One JSONL line: the cell's experiment and label, then `fields`.
    fn line(&self, fields: impl IntoIterator<Item = (String, Json)>) -> String {
        let mut line = Json::obj();
        line.set("experiment", Json::Str(self.experiment.clone()));
        line.set("label", Json::Str(self.label.clone()));
        for (k, v) in fields {
            line.set(&k, v);
        }
        format!("{line}\n")
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
    /// Per-cell records with their observations, in recording order
    /// (submission order per grid).
    pub cells: Vec<CellRecord>,
    /// Per-experiment wall times, in invocation order.
    pub experiments: Vec<ExperimentRecord>,
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
    /// The observed cells with their observations, in recording order.
    fn observed(&self) -> impl Iterator<Item = (&CellRecord, &Observation)> {
        self.cells
            .iter()
            .filter_map(|c| c.observation.as_ref().map(|o| (c, o)))
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
    let (mut windows_total, mut events_total) = (0u64, 0u64);
    let (mut recorded, mut overwritten, mut sampled_out) = (0u64, 0, 0);
    for (_, o) in taken.observed() {
        windows_total += o.windows.len() as u64;
        events_total += o.events.len() as u64;
        recorded += o.trace_recorded;
        overwritten += o.trace_overwritten;
        sampled_out += o.trace_sampled_out;
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
    doc.set(
        "cells",
        Json::Arr(taken.cells.iter().map(CellRecord::to_json).collect()),
    );
    doc.set("aggregates", aggregates);
    doc
}

/// Renders `metrics.jsonl`: one line per window per observed run.
#[must_use]
pub fn render_metrics_jsonl(taken: &ObsTaken) -> String {
    let mut out = String::new();
    for (c, o) in taken.observed() {
        for w in &o.windows {
            let Json::Obj(fields) = w.to_json() else {
                unreachable!("MetricsWindow::to_json always yields an object");
            };
            out.push_str(&c.line(fields));
        }
    }
    out
}

/// Renders `trace.jsonl`: one line per captured event.
#[must_use]
pub fn render_trace_jsonl(taken: &ObsTaken) -> String {
    let mut out = String::new();
    for (c, o) in taken.observed() {
        for ev in &o.events {
            out.push_str(&c.line([("event".to_string(), ev.to_json())]));
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
    use cdp_sim::MetricsWindow;

    /// A `tlb` cell that failed the way `status` says and was not
    /// observed.
    fn failed_cell(label: &str, status: &'static str) -> CellRecord {
        CellRecord {
            experiment: "tlb".into(),
            label: label.into(),
            status,
            wall_ms: 900,
            config_fingerprint: "00baddecafc0ffee".into(),
            checkpoint: "resumed",
            retired: 0,
            pf_issued: 0,
            pf_useful: 0,
            pf_wasted: 0,
            observation: None,
        }
    }

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
                    observation: Some(Observation {
                        windows: vec![MetricsWindow {
                            window: 0,
                            retired: 1000,
                            cycles: 2000,
                            ..MetricsWindow::default()
                        }],
                        profile: Some(cdp_obs::Profile::default()),
                        ..Observation::default()
                    }),
                },
                failed_cell("128/slsb", "timeout"),
            ],
            experiments: vec![ExperimentRecord {
                id: "tlb".into(),
                wall_ms: 950,
            }],
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
    fn a_profile_stays_on_its_own_cell() {
        // One experiment runs the same label twice: the first run fails,
        // the second is observed. The profile belongs to the second.
        let mut taken = sample_taken();
        taken.cells.reverse();
        taken.cells[0] = failed_cell("64/slsb", "failed");
        let doc = build_manifest("smoke", 1, &taken);
        cdp_obs::validate(&doc).expect("schema-valid");
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        let labels: Vec<_> = cells.iter().map(|c| c.get("label").unwrap()).collect();
        assert_eq!(labels[0], labels[1], "one label, two cells");
        assert!(cells[0].get("profile").is_none(), "the failed cell");
        assert!(cells[1].get("profile").is_some(), "the observed cell");
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
