//! End-to-end contract of the observability CLI surface: with every
//! capture flag off, stdout is byte-identical to an unobserved run; with
//! `--emit-manifest`, the artifacts exist, parse, and validate.

use std::path::PathBuf;
use std::process::Command;

use cdp_obs::{validate, Json};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdp-obs-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn manifest_run_keeps_stdout_identical_and_emits_valid_artifacts() {
    let plain = bin()
        .args(["tlb", "--smoke", "--jobs", "2"])
        .output()
        .expect("run experiments");
    assert!(plain.status.success(), "plain run failed: {plain:?}");
    assert!(
        plain.stderr.is_empty(),
        "per-id timing must be opt-in (--verbose-timing), got: {}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let dir = temp_dir("manifest");
    let observed = bin()
        .args([
            "tlb",
            "--smoke",
            "--jobs",
            "1",
            "--trace",
            "--metrics-window",
            "16384",
            "--emit-manifest",
        ])
        .arg(&dir)
        .arg("--verbose-timing")
        .output()
        .expect("run experiments with observability");
    assert!(
        observed.status.success(),
        "observed run failed: {observed:?}"
    );
    assert_eq!(
        plain.stdout, observed.stdout,
        "stdout must be byte-identical with observability on, at a different --jobs count"
    );
    let stderr = String::from_utf8_lossy(&observed.stderr);
    assert!(
        stderr.contains("tlb: ") && stderr.contains("(1 jobs)"),
        "--verbose-timing restores the timing line: {stderr}"
    );
    assert!(stderr.contains("manifest.json"), "manifest path on stderr");

    let manifest_text =
        std::fs::read_to_string(dir.join("manifest.json")).expect("manifest.json written");
    let manifest = Json::parse(&manifest_text).expect("manifest parses");
    validate(&manifest).expect("manifest schema-valid");
    let experiments = manifest.get("experiments").unwrap().as_arr().unwrap();
    assert!(experiments
        .iter()
        .any(|e| e.get("id").and_then(Json::as_str) == Some("tlb")));
    let cells = manifest.get("cells").unwrap().as_arr().unwrap();
    assert!(!cells.is_empty(), "tlb grid produced cells");
    assert!(cells
        .iter()
        .all(|c| c.get("status").and_then(Json::as_str) == Some("ok")));

    let metrics =
        std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics.jsonl written");
    let mut lines = 0usize;
    for line in metrics.lines() {
        let j = Json::parse(line).expect("every JSONL line parses");
        assert!(j.get("label").is_some() && j.get("retired").is_some());
        lines += 1;
    }
    assert!(lines > 0, "metrics series is non-empty");
    assert!(
        dir.join("trace.jsonl").exists(),
        "--trace produces the event stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capture_flags_without_emit_manifest_are_a_usage_error() {
    for args in [
        vec!["tlb", "--smoke", "--trace"],
        vec!["tlb", "--smoke", "--metrics-window", "4096"],
        vec!["tlb", "--smoke", "--trace-filter", "vam"],
    ] {
        let out = bin().args(&args).output().expect("run experiments");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2 (usage error)"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("--emit-manifest"));
    }
}

#[test]
fn bad_trace_filter_is_rejected() {
    let out = bin()
        .args([
            "tlb",
            "--smoke",
            "--trace-filter",
            "bogus",
            "--emit-manifest",
            "/tmp/never-written",
        ])
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown trace category"));
}
