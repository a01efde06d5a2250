//! The benchmark's own checks, on tiny cells:
//!
//! * the real entry point prints every metric `BENCHMARK.json` names,
//!   with its unit, for every workload traced and untraced;
//! * the oracle fails a cell when one pinned value is perturbed;
//! * the traced runner's statistics equal the product path's.
//!
//! Run with `cargo test --release --manifest-path simbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use cdp_obs::Json;
use simbench::cells::{Grid, Size, WorkloadId};
use simbench::oracle::Oracle;
use simbench::run::{run, Opts, THREADS};
use simbench::traced::{run_plain, run_traced, same_stats, Clock};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn opts(workload: WorkloadId, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 0,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        microbench: None,
        oracle: None,
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for workload in WorkloadId::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new("bash")
                .arg("simbench/run.sh")
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--size", "tiny"])
                .current_dir(repo_root())
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace}: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout.lines().last().unwrap();
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{line}");
            assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let metrics = doc.get("metrics").unwrap();
            let want = declared(list);
            for (name, unit) in &want {
                let m = metrics.get(name).unwrap_or_else(|| {
                    panic!("{} --trace {trace}: {name} missing", workload.name())
                });
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
            let Json::Obj(printed) = metrics else {
                panic!("metrics is not an object: {line}");
            };
            assert_eq!(
                printed.len(),
                want.len(),
                "{} --trace {trace}: extra metrics",
                workload.name()
            );
        }
    }
}

#[test]
fn oracle_fails_a_cell_whose_pinned_value_is_perturbed() {
    for workload in WorkloadId::ALL {
        let grid = Grid::new(workload, Size::Tiny, 0).unwrap();
        let images = grid.build_images();
        let oracle = Oracle::reference(&grid, &images, Some(&cdp_sim::Pool::new(THREADS))).unwrap();

        let clean = run(&Opts {
            oracle: Some(oracle.clone()),
            ..opts(workload, false)
        })
        .unwrap();
        assert!(clean.correct(), "{}: {:?}", workload.name(), clean.errors);

        let victim = grid.cells[0].label.clone();
        let mut perturbed = oracle;
        perturbed.cells.get_mut(&victim).unwrap().l2_misses += 1;
        let bad = run(&Opts {
            oracle: Some(perturbed),
            ..opts(workload, false)
        })
        .unwrap();
        assert!(!bad.correct());
        assert!(bad.failed >= 1, "{}", workload.name());
        assert!(
            bad.errors
                .iter()
                .all(|e| e.contains(&victim) && e.contains("l2_misses")),
            "{:?}",
            bad.errors
        );
        if workload == WorkloadId::TournamentSweep {
            assert_eq!(bad.failed, 1, "only the perturbed cell fails");
        }
    }
}

#[test]
fn traced_and_untraced_statistics_agree() {
    let clock = Clock::calibrate();
    for workload in WorkloadId::ALL {
        let grid = Grid::new(workload, Size::Tiny, 0).unwrap();
        for i in grid.distinct() {
            let cell = &grid.cells[i];
            let image = grid.build_streamed_twin(cell.bench);
            let (plain, _) = run_plain(&cell.cfg, &image).unwrap();
            let (traced, times) = run_traced(&cell.cfg, &image, clock).unwrap();
            assert!(same_stats(&plain, &traced), "{}", cell.label);
            assert!(times.accesses > 0 && times.fed_uops > 0, "{}", cell.label);
        }
        let outcome = run(&opts(workload, true)).unwrap();
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.errors
        );
    }
}
