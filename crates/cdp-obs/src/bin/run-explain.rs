//! Explains the difference between two experiment runs.
//!
//! ```text
//! run-explain <A> <B>
//! ```
//!
//! `A` and `B` are each a `manifest.json` path or a directory holding
//! one (as written by `experiments --emit-manifest`). A sibling
//! `metrics.jsonl` is read automatically when present.
//!
//! The tool diffs the two runs' *behavioral* content — run identity
//! (tool, scale, seed), cell outcomes, config fingerprints, latency
//! profiles, and per-window metrics — while ignoring volatile keys that
//! legitimately vary between invocations (wall times, attempt counts,
//! job counts, cache/store hit counters, checkpoint provenance). Stat
//! deltas are attributed to the component or prefetch engine whose
//! counters moved (stride / content / markov engines, L1, UL2,
//! TLB/walker, core retire), and the first divergent metrics window is
//! named so a bisection knows where the executions split.
//!
//! Exit codes: 0 no divergence, 1 divergence found, 2 usage or I/O
//! error.

use std::collections::BTreeMap;
use std::path::Path;

use cdp_obs::Json;

/// Per-cell keys that vary run to run without a behavioral difference.
const VOLATILE_CELL_KEYS: &[&str] = &["wall_ms", "attempts", "checkpoint", "muops"];

/// One behavioral difference between the two runs.
#[derive(Debug)]
struct Divergence {
    /// The component the difference is attributed to.
    component: &'static str,
    /// Human-readable description, including both values.
    detail: String,
    /// Absolute numeric delta when the difference is a counter.
    delta: f64,
}

/// Everything `explain` found.
#[derive(Debug, Default)]
struct Report {
    divergences: Vec<Divergence>,
    /// First divergent metrics window in `(experiment, label, window)`
    /// order, with the field that split.
    first_window: Option<String>,
}

impl Report {
    fn push(&mut self, component: &'static str, detail: String, delta: f64) {
        self.divergences.push(Divergence {
            component,
            detail,
            delta,
        });
    }

    /// Total absolute delta per component, largest first.
    fn attribution(&self) -> Vec<(&'static str, f64, usize)> {
        let mut per: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for d in &self.divergences {
            let e = per.entry(d.component).or_default();
            e.0 += d.delta;
            e.1 += 1;
        }
        let mut out: Vec<_> = per.into_iter().map(|(k, (d, n))| (k, d, n)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }
}

/// Maps a metrics/profile field name to the component whose behavior it
/// reflects.
fn component_of(field: &str) -> &'static str {
    match field {
        f if f.starts_with("stride_") => "stride engine",
        f if f.starts_with("content_") => "content engine",
        f if f.starts_with("markov_") => "markov engine",
        f if f.starts_with("l1_") => "L1 cache",
        f if f.starts_with("l2_") => "UL2 cache",
        f if f.starts_with("dtlb_") || f.starts_with("prefetch_walks") => "TLB/walker",
        f if f.starts_with("drops") || f.starts_with("rescans") => "prefetch queue/VAM",
        f if f.starts_with("profile.load_to_use") => "load latency",
        f if f.starts_with("profile.prefetch_to_use") => "prefetch timeliness",
        f if f.starts_with("profile.mshr_occupancy") => "MSHR pressure",
        f if f.starts_with("profile.rob_stall") => "core stalls",
        _ => "core retire",
    }
}

/// Numeric rendering for a diff message (integers stay integral).
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Compares one field across two JSON objects, pushing a divergence if
/// it differs. `ctx` names the owning record in messages.
fn diff_field(report: &mut Report, ctx: &str, field: &str, a: Option<&Json>, b: Option<&Json>) {
    match (a, b) {
        (None, None) => {}
        (Some(va), Some(vb)) => {
            if let (Some(fa), Some(fb)) = (va.as_f64(), vb.as_f64()) {
                if fa != fb {
                    report.push(
                        component_of(field),
                        format!("{ctx}: {field} {} vs {}", num(fa), num(fb)),
                        (fa - fb).abs(),
                    );
                }
            } else if va.to_string() != vb.to_string() {
                report.push(
                    component_of(field),
                    format!("{ctx}: {field} {va} vs {vb}"),
                    0.0,
                );
            }
        }
        (Some(_), None) => report.push(
            component_of(field),
            format!("{ctx}: {field} only in A"),
            0.0,
        ),
        (None, Some(_)) => report.push(
            component_of(field),
            format!("{ctx}: {field} only in B"),
            0.0,
        ),
    }
}

/// Groups a manifest's cells by `(experiment, label)`, preserving order
/// within each key (repeated cells compare positionally).
fn cell_groups(doc: &Json) -> BTreeMap<(String, String), Vec<&Json>> {
    let mut groups: BTreeMap<(String, String), Vec<&Json>> = BTreeMap::new();
    for cell in doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let exp = cell.get("experiment").and_then(Json::as_str).unwrap_or("");
        let label = cell.get("label").and_then(Json::as_str).unwrap_or("");
        groups
            .entry((exp.to_string(), label.to_string()))
            .or_default()
            .push(cell);
    }
    groups
}

/// Compares two cells' non-volatile content.
fn diff_cell(report: &mut Report, ctx: &str, a: &Json, b: &Json) {
    let sa = a.get("status").and_then(Json::as_str).unwrap_or("");
    let sb = b.get("status").and_then(Json::as_str).unwrap_or("");
    if sa != sb {
        report.push(
            "cell outcome",
            format!("{ctx}: status {sa:?} vs {sb:?}"),
            0.0,
        );
    }
    let fa = a
        .get("config_fingerprint")
        .and_then(Json::as_str)
        .unwrap_or("");
    let fb = b
        .get("config_fingerprint")
        .and_then(Json::as_str)
        .unwrap_or("");
    if fa != fb {
        report.push(
            "configuration",
            format!("{ctx}: config_fingerprint {fa} vs {fb}"),
            0.0,
        );
    }
    match (a.get("profile"), b.get("profile")) {
        // Profile presence is instrumentation, not behavior: comparing
        // an instrumented run against a plain one stays clean.
        (None, _) | (_, None) => {}
        (Some(pa), Some(pb)) => {
            for hist in cdp_obs::manifest::PROFILE_HIST_KEYS {
                for stat in cdp_obs::manifest::PROFILE_STAT_KEYS {
                    diff_field(
                        report,
                        ctx,
                        &format!("profile.{hist}.{stat}"),
                        pa.get(hist).and_then(|h| h.get(stat)),
                        pb.get(hist).and_then(|h| h.get(stat)),
                    );
                }
            }
        }
    }
}

/// Parses a metrics.jsonl text into `(experiment, label, window)`-keyed
/// records. A duplicate key keeps the first record (the stream is
/// submission-ordered and deterministic, so duplicates are identical).
fn metrics_records(text: &str) -> BTreeMap<(String, String, u64), Json> {
    let mut records = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(j) = Json::parse(line) else { continue };
        let exp = j
            .get("experiment")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let label = j
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let window = j.get("window").and_then(Json::as_u64).unwrap_or(0);
        records.entry((exp, label, window)).or_insert(j);
    }
    records
}

/// The field names carried by a JSON object, in insertion order.
fn field_names(j: &Json) -> Vec<String> {
    match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Diffs two runs: manifests plus optional metrics.jsonl streams.
fn explain(a: &Json, b: &Json, metrics_a: Option<&str>, metrics_b: Option<&str>) -> Report {
    let mut report = Report::default();
    for key in ["tool", "scale", "seed"] {
        diff_field(&mut report, "run", key, a.get(key), b.get(key));
    }
    let ga = cell_groups(a);
    let gb = cell_groups(b);
    for (key, cells_a) in &ga {
        let ctx = format!("cell {}/{}", key.0, key.1);
        match gb.get(key) {
            None => report.push("cell set", format!("{ctx}: only in A"), 0.0),
            Some(cells_b) => {
                if cells_a.len() != cells_b.len() {
                    report.push(
                        "cell set",
                        format!(
                            "{ctx}: {} occurrence(s) vs {}",
                            cells_a.len(),
                            cells_b.len()
                        ),
                        0.0,
                    );
                }
                for (ca, cb) in cells_a.iter().zip(cells_b) {
                    diff_cell(&mut report, &ctx, ca, cb);
                }
            }
        }
    }
    for key in gb.keys().filter(|k| !ga.contains_key(*k)) {
        report.push(
            "cell set",
            format!("cell {}/{}: only in B", key.0, key.1),
            0.0,
        );
    }
    let (ma, mb) = (
        metrics_records(metrics_a.unwrap_or("")),
        metrics_records(metrics_b.unwrap_or("")),
    );
    for (key, ra) in &ma {
        let ctx = format!("window {}/{}#{}", key.0, key.1, key.2);
        let Some(rb) = mb.get(key) else {
            report.push("metrics coverage", format!("{ctx}: only in A"), 0.0);
            continue;
        };
        let before = report.divergences.len();
        let mut fields = field_names(ra);
        for f in field_names(rb) {
            if !fields.contains(&f) {
                fields.push(f);
            }
        }
        for field in fields {
            if matches!(field.as_str(), "experiment" | "label" | "window") {
                continue;
            }
            diff_field(&mut report, &ctx, &field, ra.get(&field), rb.get(&field));
        }
        // BTreeMap iteration is (experiment, label, window)-sorted, so
        // the first key that splits is the earliest divergent window.
        if report.divergences.len() > before && report.first_window.is_none() {
            let field = &report.divergences[before].detail;
            report.first_window = Some(field.clone());
        }
    }
    for key in mb.keys().filter(|k| !ma.contains_key(*k)) {
        report.push(
            "metrics coverage",
            format!("window {}/{}#{}: only in B", key.0, key.1, key.2),
            0.0,
        );
    }
    report
}

fn fail(msg: &str) -> ! {
    eprintln!("run-explain: {msg}");
    std::process::exit(2);
}

/// Resolves one CLI argument to `(manifest, metrics.jsonl text)`.
fn load_run(arg: &str) -> (Json, Option<String>) {
    let path = Path::new(arg);
    let manifest_path = if path.is_dir() {
        path.join("manifest.json")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", manifest_path.display())));
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        fail(&format!(
            "{}: JSON parse error: {e}",
            manifest_path.display()
        ))
    });
    if let Err(e) = cdp_obs::validate(&doc) {
        fail(&format!("{}: {e}", manifest_path.display()));
    }
    let metrics_path = manifest_path
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join("metrics.jsonl");
    let metrics = std::fs::read_to_string(metrics_path).ok();
    (doc, metrics)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 2 {
        eprintln!("usage: run-explain <A> <B>");
        eprintln!("  A/B: manifest.json path, or a directory containing one");
        eprintln!("  exit codes: 0 no divergence, 1 divergence, 2 usage/IO");
        std::process::exit(2);
    }
    let (doc_a, metrics_a) = load_run(&args[0]);
    let (doc_b, metrics_b) = load_run(&args[1]);
    let report = explain(&doc_a, &doc_b, metrics_a.as_deref(), metrics_b.as_deref());
    println!("run-explain: {} vs {}", args[0], args[1]);
    println!(
        "  volatile keys ignored: {} (per cell), jobs/wall/cache counters (top level)",
        VOLATILE_CELL_KEYS.join("/")
    );
    if report.divergences.is_empty() {
        println!("  divergence: none");
        return;
    }
    println!("  divergence: {} difference(s)", report.divergences.len());
    println!("  attribution (total |delta|, differences):");
    for (component, delta, n) in report.attribution() {
        println!("    {component}: {} across {n} difference(s)", num(delta));
    }
    if let Some(w) = &report.first_window {
        println!("  first divergent window: {w}");
    }
    for d in report.divergences.iter().take(20) {
        println!("    [{}] {}", d.component, d.detail);
    }
    if report.divergences.len() > 20 {
        println!("    ... {} more", report.divergences.len() - 20);
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(fingerprint: &str, status: &str, p99: u64) -> Json {
        let mut cell = Json::obj();
        cell.set("experiment", Json::Str("tlb".into()));
        cell.set("label", Json::Str("64/slsb".into()));
        cell.set("status", Json::Str(status.into()));
        cell.set("attempts", Json::U64(1));
        cell.set("wall_ms", Json::U64(12));
        cell.set("config_fingerprint", Json::Str(fingerprint.into()));
        cell.set("checkpoint", Json::Str("off".into()));
        let mut hist = Json::obj();
        for key in cdp_obs::manifest::PROFILE_STAT_KEYS {
            hist.set(key, Json::U64(if *key == "p99" { p99 } else { 1 }));
        }
        let mut profile = Json::obj();
        for key in cdp_obs::manifest::PROFILE_HIST_KEYS {
            profile.set(key, hist.clone());
        }
        cell.set("profile", profile);
        let mut doc = Json::obj();
        doc.set("schema_version", Json::U64(cdp_obs::SCHEMA_VERSION));
        doc.set("tool", Json::Str("cdp-experiments".into()));
        doc.set("scale", Json::Str("smoke".into()));
        doc.set("jobs", Json::U64(4));
        doc.set("seed", Json::U64(7));
        doc.set("experiments", Json::Arr(vec![]));
        doc.set("cells", Json::Arr(vec![cell]));
        doc.set("aggregates", Json::obj());
        doc
    }

    fn metrics_line(window: u64, stride_issued: u64) -> String {
        let mut j = Json::obj();
        j.set("experiment", Json::Str("tlb".into()));
        j.set("label", Json::Str("64/slsb".into()));
        j.set("window", Json::U64(window));
        j.set("retired", Json::U64(4096));
        j.set("stride_issued", Json::U64(stride_issued));
        format!("{j}\n")
    }

    #[test]
    fn identical_runs_report_zero_divergence() {
        let a = manifest("aaaa", "ok", 90);
        let m = metrics_line(0, 5) + &metrics_line(1, 7);
        let report = explain(&a, &a.clone(), Some(&m), Some(&m));
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert!(report.first_window.is_none());
    }

    #[test]
    fn volatile_keys_are_ignored() {
        let a = manifest("aaaa", "ok", 90);
        let mut b = manifest("aaaa", "ok", 90);
        b.set("jobs", Json::U64(1));
        b.set("suite_wall_ms", Json::U64(999));
        let Json::Obj(ref mut pairs) = b else {
            unreachable!()
        };
        let Json::Arr(cells) = &mut pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1 else {
            unreachable!()
        };
        cells[0].set("wall_ms", Json::U64(9999));
        cells[0].set("attempts", Json::U64(3));
        cells[0].set("checkpoint", Json::Str("resumed".into()));
        let report = explain(&a, &b, None, None);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    }

    #[test]
    fn engine_delta_is_attributed_and_first_window_named() {
        let a = manifest("aaaa", "ok", 90);
        let b = manifest("bbbb", "ok", 120);
        let ma = metrics_line(0, 5) + &metrics_line(1, 10);
        let mb = metrics_line(0, 5) + &metrics_line(1, 40);
        let report = explain(&a, &b, Some(&ma), Some(&mb));
        assert!(!report.divergences.is_empty());
        let attribution = report.attribution();
        assert!(attribution.iter().any(|(c, ..)| *c == "stride engine"));
        assert!(attribution.iter().any(|(c, ..)| *c == "configuration"));
        // p99 differs in every profile histogram → latency components.
        assert!(attribution.iter().any(|(c, ..)| *c == "load latency"));
        let w = report.first_window.expect("window 1 diverged");
        assert!(w.contains("#1") && w.contains("stride_issued"), "{w}");
    }

    #[test]
    fn profile_presence_mismatch_is_not_divergence() {
        let a = manifest("aaaa", "ok", 90);
        let mut b = manifest("aaaa", "ok", 90);
        let Json::Obj(ref mut pairs) = b else {
            unreachable!()
        };
        let Json::Arr(cells) = &mut pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1 else {
            unreachable!()
        };
        let Json::Obj(cell) = &mut cells[0] else {
            unreachable!()
        };
        cell.retain(|(k, _)| k != "profile");
        let report = explain(&a, &b, None, None);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    }

    #[test]
    fn missing_cells_and_windows_are_reported() {
        let a = manifest("aaaa", "ok", 90);
        let mut b = manifest("aaaa", "ok", 90);
        let Json::Obj(ref mut pairs) = b else {
            unreachable!()
        };
        pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1 = Json::Arr(vec![]);
        let ma = metrics_line(0, 5);
        let report = explain(&a, &b, Some(&ma), None);
        assert!(report
            .divergences
            .iter()
            .any(|d| d.component == "cell set" && d.detail.contains("only in A")));
        assert!(report
            .divergences
            .iter()
            .any(|d| d.component == "metrics coverage"));
    }
}
