//! A stored result is keyed on everything that shapes its bytes
//! (DESIGN.md §8, §14): the run fingerprint of the cell's config,
//! attachments and image, plus the `ObsConfig` for an observation.
//!
//! Each case writes a fresh `--result-store` with one run and reads it
//! with another, and the reading run must show exactly what it shows
//! without a store: the same exit code, stdout, metrics windows, trace
//! events and latency profiles. Knobs that cannot change a result must
//! keep replaying every cell from the store.

use std::path::Path;
use std::process::Command;

use cdp_obs::Json;
use cdp_testutil::{assert_identical_output, ScratchDir};

/// Prefix of this suite's scratch directories.
const SCRATCH: &str = "cdp-result-identity";

/// What a run shows: its exit code, stdout and deterministic artifacts
/// (the manifest's wall times are not).
#[derive(Debug, PartialEq)]
struct Shown {
    code: Option<i32>,
    stdout: String,
    metrics: Option<String>,
    trace: Option<String>,
    profiles: Vec<String>,
}

/// Runs `experiments args`, over `store` when one is given, and returns
/// what it shows plus the manifest's `result_store_misses`.
fn run(args: &[&str], store: Option<&Path>, out: &Path) -> (Shown, u64) {
    let manifest = out.join("manifest");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args).arg("--emit-manifest").arg(&manifest);
    if let Some(store) = store {
        cmd.arg("--result-store").arg(store);
    }
    let output = cmd.output().expect("run experiments");
    let read = |name: &str| std::fs::read_to_string(manifest.join(name)).ok();
    let doc = Json::parse(&read("manifest.json").expect("manifest written")).expect("parses");
    let profiles = doc
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells")
        .iter()
        .filter_map(|c| c.get("profile").map(Json::to_string))
        .collect();
    let shown = Shown {
        code: output.status.code(),
        stdout: String::from_utf8(output.stdout).expect("utf-8 stdout"),
        metrics: read("metrics.jsonl"),
        trace: read("trace.jsonl"),
        profiles,
    };
    let misses = doc
        .get("result_store_misses")
        .and_then(Json::as_u64)
        .expect("result_store_misses");
    (shown, misses)
}

/// Writes a fresh store with `writer`, then reads it with `reader`.
/// Returns the reader's store misses after asserting it shows what it
/// shows without a store.
fn write_then_read(tag: &str, writer: &[&str], reader: &[&str]) -> u64 {
    let dir = ScratchDir::new(SCRATCH, tag);
    let store = dir.join("store");
    let (reference, _) = run(reader, None, &dir.join("reference"));
    run(writer, Some(&store), &dir.join("writer"));
    let (got, misses) = run(reader, Some(&store), &dir.join("reader"));
    let what = format!("{tag}: {writer:?} then {reader:?}");
    assert_identical_output(&what, &reference.stdout, &got.stdout);
    assert_eq!(reference, got, "{what}");
    misses
}

/// `base` with `extra` flags appended.
fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
    [base, extra].concat()
}

/// Flips a knob both ways: each side reads a store the other wrote.
fn both_ways(tag: &str, a: &[&str], b: &[&str]) {
    write_then_read(&format!("{tag}-ab"), a, b);
    write_then_read(&format!("{tag}-ba"), b, a);
}

/// Fig. 10 over a store a corrupted tpcc-1 image wrote: the clean run
/// must print the clean speedups, not replay the corrupted cells.
#[test]
fn clean_fig10_never_replays_a_corrupted_image() {
    let clean = ["fig10", "--smoke", "--jobs", "2"];
    let faulted = with(&clean, &["--fault", "corrupt:tpcc-1:7:4096"]);
    let misses = write_then_read("fig10", &faulted, &clean);
    assert!(misses > 0, "the tpcc-1 cells simulate again");
}

/// Metrics windows of another width are another observation.
#[test]
fn metrics_window_width_is_part_of_the_observation() {
    let observed = |w| ["tlb", "--smoke", "--jobs", "2", "--metrics-window", w];
    write_then_read("window", &observed("16384"), &observed("4096"));
}

/// Adding `--profile-hist` must bring each cell's profile.
#[test]
fn profile_hist_is_part_of_the_observation() {
    let windows = ["tlb", "--smoke", "--jobs", "2", "--metrics-window", "16384"];
    let profiled = with(&windows, &["--profile-hist"]);
    write_then_read("profile", &windows, &profiled);
}

/// Every knob that changes a result, flipped between the run that
/// writes the store and the run that reads it.
#[test]
fn knobs_that_change_results_never_replay_stale_cells() {
    let cell = ["onecell", "--smoke", "--jobs", "1", "--keep-going"];
    for (tag, fault) in [
        ("corrupt", "corrupt:tpcc-1:7:4096"),
        ("unmap", "unmap:tpcc-1:7:2"),
        ("walk", "walk:tpcc-1:5"),
    ] {
        both_ways(tag, &cell, &with(&cell, &["--fault", fault]));
    }
    both_ways(
        "metrics-window",
        &with(&cell, &["--metrics-window", "4096"]),
        &with(&cell, &["--metrics-window", "2048"]),
    );
    both_ways(
        "trace-filter",
        &with(&cell, &["--trace"]),
        &with(&cell, &["--trace", "--trace-filter", "vam"]),
    );
    both_ways(
        "profile-hist",
        &with(&cell, &["--metrics-window", "4096"]),
        &with(&cell, &["--metrics-window", "4096", "--profile-hist"]),
    );
    both_ways("scale", &cell, &with(&cell, &["--quick"]));
}

/// Knobs that cannot change a result keep replaying every cell, and a
/// plain run replays the stats an observed run stored.
#[test]
fn neutral_knobs_and_plain_readers_replay_every_cell() {
    let dir = ScratchDir::new(SCRATCH, "neutral-paths");
    let status = dir.join("status.jsonl");
    let checkpoints = dir.join("checkpoints");
    std::fs::create_dir_all(&checkpoints).unwrap();
    let cell = ["onecell", "--smoke", "--jobs", "2"];
    for (tag, writer) in [
        ("jobs", with(&cell, &["--jobs", "1"])),
        ("no-fast-forward", with(&cell, &["--no-fast-forward"])),
        (
            "status-jsonl",
            with(&cell, &["--status-jsonl", status.to_str().unwrap()]),
        ),
        (
            "checkpoint-dir",
            with(&cell, &["--checkpoint-dir", checkpoints.to_str().unwrap()]),
        ),
        (
            "observed",
            with(
                &cell,
                &["--metrics-window", "4096", "--trace", "--profile-hist"],
            ),
        ),
    ] {
        assert_eq!(write_then_read(tag, &writer, &cell), 0, "{tag}: misses");
    }
}

/// Streamed and materialized images of one cell retire the same stats,
/// but their snapshots are not interchangeable, so their entries are
/// kept apart: a `--stream` run over a materialized store simulates.
#[test]
fn streamed_run_over_a_materialized_store_simulates() {
    let cell = ["onecell", "--smoke", "--jobs", "1"];
    let streamed = with(&cell, &["--stream"]);
    assert_eq!(write_then_read("stream", &cell, &streamed), 1);
}
