//! Differential contract of the streaming engine at the experiment
//! surface:
//!
//! * `--stream` (force the streaming engine everywhere) keeps sweep
//!   stdout byte-identical to the materialized engine, at any `--jobs`;
//! * the manifest carries per-uop throughput accounting (`retired`,
//!   `muops`) for every tier;
//! * the result cache never replays a cell across scale tiers — tier
//!   parameters are part of the cell key.

use std::path::PathBuf;
use std::process::Command;

use std::sync::Arc;

use cdp_experiments::{onecell, Context};
use cdp_obs::{validate, Json};
use cdp_sim::{Pool, ResultCache, RunLength};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdp-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn stream_flag_keeps_sweep_stdout_byte_identical_at_any_jobs() {
    let plain = bin()
        .args(["tlb", "--smoke", "--jobs", "2"])
        .output()
        .expect("run experiments");
    assert!(plain.status.success(), "materialized run failed: {plain:?}");
    for jobs in ["1", "4"] {
        let streamed = bin()
            .args(["tlb", "--smoke", "--stream", "--jobs", jobs])
            .output()
            .expect("run experiments with --stream");
        assert!(
            streamed.status.success(),
            "streamed run failed at --jobs {jobs}: {streamed:?}"
        );
        assert_eq!(
            plain.stdout, streamed.stdout,
            "--stream must not perturb stdout at --jobs {jobs}"
        );
    }
}

#[test]
fn onecell_manifest_reports_throughput_accounting() {
    let dir = temp_dir("manifest");
    let out = bin()
        .args(["onecell", "--smoke", "--jobs", "1", "--emit-manifest"])
        .arg(&dir)
        .output()
        .expect("run onecell with a manifest");
    assert!(out.status.success(), "onecell run failed: {out:?}");

    let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    let manifest = Json::parse(&text).expect("manifest parses");
    validate(&manifest).expect("manifest schema-valid");
    let cells = manifest.get("cells").unwrap().as_arr().unwrap();
    assert!(!cells.is_empty(), "onecell produced a cell record");
    for c in cells {
        let retired = c
            .get("retired")
            .and_then(Json::as_f64)
            .expect("retired key");
        assert!(retired > 0.0, "a healthy cell retires uops");
        assert!(c.get("muops").and_then(Json::as_f64).is_some(), "muops key");
    }
    let agg = manifest.get("aggregates").expect("aggregates object");
    assert!(
        agg.get("uops_retired_total")
            .and_then(Json::as_f64)
            .is_some_and(|v| v > 0.0),
        "aggregate uop count"
    );
    assert!(
        agg.get("muops").and_then(Json::as_f64).is_some(),
        "aggregate muops"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_cache_never_replays_across_scale_tiers() {
    let mut ctx = Context::new(Pool::new(1));
    ctx.result_cache = Some(Arc::new(ResultCache::new()));

    let smoke1 = onecell::run(RunLength::Smoke, &ctx);
    let (h0, m0) = ctx.result_cache_stats();
    assert_eq!((h0, m0), (0, 1), "first smoke cell is a miss");

    // Same tier, same config: a replay.
    let smoke2 = onecell::run(RunLength::Smoke, &ctx);
    let (h1, m1) = ctx.result_cache_stats();
    assert_eq!((h1, m1), (1, 1), "identical smoke cell replays");
    assert_eq!(
        format!("{:?}", smoke1.stats),
        format!("{:?}", smoke2.stats),
        "replayed stats are bit-identical"
    );

    // Different tier: the key must differ, so no replay.
    let quick = onecell::run(RunLength::Quick, &ctx);
    let (h2, m2) = ctx.result_cache_stats();
    assert_eq!(
        (h2, m2),
        (1, 2),
        "a quick cell must never replay a smoke result"
    );
    assert_ne!(
        smoke1.stats.as_ref().map(|s| s.retired),
        quick.stats.as_ref().map(|s| s.retired),
        "tiers retire different uop counts"
    );
}
