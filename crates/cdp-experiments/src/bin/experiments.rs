//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--smoke|--quick|--full|--scale NAME] [--stream]
//!             [--jobs N] [--csv <dir>]
//!             [--keep-going] [--fault SPEC]... [--cell-timeout SECS]
//!             [--emit-manifest <dir>] [--trace]
//!             [--trace-filter SPEC] [--metrics-window UOPS]
//!             [--profile-hist] [--status-jsonl PATH|-]
//!             [--verbose-timing] [--no-result-cache] [--no-fast-forward]
//!             [--result-store <dir>]
//!             [--checkpoint-dir <dir>] [--checkpoint-every CYCLES] [--resume]
//! experiments all [--quick] [--jobs N]
//! ```
//!
//! `--jobs N` caps the simulation worker threads (default: every
//! available core). Output is byte-identical at any job count; per-id
//! wall times go to stderr under `--verbose-timing` so stdout stays
//! comparable.
//!
//! A fingerprint-keyed result cache (DESIGN.md §8) replays finished
//! cells that recur across sweeps — same config, workload, scale, and
//! seed — instead of re-simulating them. Stdout is byte-identical with
//! the cache on or off; `--no-result-cache` disables it, and
//! `--verbose-timing` reports the hit/miss counts on stderr.
//!
//! `--result-store <dir>` (DESIGN.md §14) backs the result cache with a
//! crash-safe on-disk store: finished cells persist across processes, so
//! a re-run of the same sweep replays every cell from disk (the manifest
//! shows `result_store_misses: 0`) with byte-identical stdout. Damaged
//! entries are quarantined and recomputed, never replayed; the
//! `store-fsck` binary validates/repairs a store directory. Requires the
//! result cache (conflicts with `--no-result-cache`).
//!
//! `--no-fast-forward` selects the reference schedule: the core steps
//! every cycle instead of skipping idle ones, and its issue stage scans
//! the whole ROB instead of selecting on its wake-up masks (DESIGN.md
//! §13 and §13.1). Skipped cycles are provably barren and both issue
//! paths issue the same uops, so output is byte-identical either way —
//! the flag exists so CI can diff the fast path against the reference.
//!
//! Observability (see EXPERIMENTS.md and DESIGN.md §7):
//!
//! * `--emit-manifest <dir>` — write `manifest.json` (config
//!   fingerprints, per-cell status/wall-time, aggregates) plus
//!   any captured JSONL series into `<dir>`.
//! * `--trace` — capture structured trace events (ring-buffered) from
//!   every sweep cell; `--trace-filter SPEC` restricts the categories
//!   (`vam,issue,drop,depth,rescan,mshr,fault` or `all`) and implies
//!   `--trace`.
//! * `--metrics-window UOPS` — emit a `metrics.jsonl` time-series with
//!   one record per `UOPS` retired µops per cell.
//! * `--profile-hist` — collect log-bucketed latency histograms
//!   (load-to-use, prefetch issue-to-use, MSHR occupancy, ROB stall
//!   run-lengths; DESIGN.md §15) from every sweep cell and fold their
//!   percentiles into the manifest's per-cell records.
//!
//! The capture flags require `--emit-manifest`. With all of them off,
//! simulated state and stdout are byte-identical to a build without the
//! observability layer.
//!
//! `--status-jsonl PATH|-` streams one JSON object per line as sweep
//! cells move through the pool (`queued` / `running` / `heartbeat` /
//! `done` with wall time, result provenance, and a sweep ETA) into
//! `PATH`, or onto stderr with `-`. Stdout is byte-identical with the
//! stream on or off; it does not require `--emit-manifest`.
//!
//! Checkpointing (DESIGN.md §12):
//!
//! * `--checkpoint-dir <dir>` — every sweep cell periodically snapshots
//!   its full simulation state into `<dir>/cell-<key>.snap` (atomic
//!   `cell-<key>.<pid>-<seq>.part` + rename writes; the file is removed
//!   when the cell finishes, and kept when the watchdog abandons it).
//! * `--checkpoint-every CYCLES` — simulated cycles between snapshot
//!   writes (default 1000000).
//! * `--resume` — cells whose checkpoint file exists continue from it
//!   instead of starting over; a checkpoint that fails validation is
//!   discarded and the cell restarts fresh. Resumed runs produce
//!   byte-identical stdout, manifests, and trace series; the manifest
//!   records each cell's provenance (`fresh`, `resumed`,
//!   `corrupt-fallback`, or `off`).
//!
//! Fault tolerance:
//!
//! * `--keep-going` — a failing sweep cell renders as an annotated gap
//!   (`--`) instead of aborting; a failure report goes to stderr at the
//!   end of the run.
//! * `--fault SPEC` (repeatable) — deterministic fault injection:
//!   `corrupt:<bench>:<seed>[:<words>]`, `unmap:<bench>:<seed>[:<pages>]`,
//!   or `walk:<bench>:<period>[:demand]` (`<bench>` may be `*`).
//! * `--cell-timeout SECS` — per-cell wall-clock watchdog. A cell that
//!   exceeds it fails as `timeout`; it is abandoned, not rerun, and
//!   publishes nothing. Every cell runs once: a simulation is
//!   deterministic, so a failed cell would fail again.
//!
//! Exit codes: `0` success, `2` usage error, `3` partial failure (some
//! cells failed under `--keep-going`).
//!
//! `--scale NAME` selects any tier by name (`smoke`/`quick`/`full`/
//! `large`/`huge`); the streaming tiers `large` (~100M uops/cell) and
//! `huge` (~1B uops/cell) synthesize uops on the fly with
//! O(instruction-window) resident memory. `--stream` forces the
//! streaming engine at every tier — stdout is byte-identical to the
//! materialized engine (see the `cdp-workloads` streaming module docs),
//! so the flag exists for CI differential runs.
//!
//! Ids: `table1 fig1 table2 fig2 fig34 fig7 fig8 fig9 fig10 fig11 tlb
//! pollution` (plus `onecell`, a single-cell scale driver for the
//! streaming tiers, and `tournament`, the equal-silicon prefetcher-zoo
//! sweep; neither is part of `all`).
//!
//! `--budget BYTES` (repeatable, tournament only) sets the equal-silicon
//! table budgets to sweep; the default is 16 KiB and 64 KiB. A budget no
//! engine geometry can realize within ±5% is refused with exit code 2
//! before anything simulates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdp_experiments::context::CheckpointSettings;
use cdp_experiments::obs;
use cdp_experiments::{
    extensions, fig1, fig10, fig11, fig2, fig34, fig7, fig8, fig9, onecell, pollution, sensitivity,
    suite_summary, table1, table2, tlb, tournament, Context,
};
use cdp_sim::{FaultSpec, Pool, ResultCache, RunLength};
use cdp_types::{ObsConfig, TraceConfig, TraceFilter, VamConfig};

const ALL: [&str; 19] = [
    "table1",
    "fig1",
    "table2",
    "fig2",
    "fig34",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "tlb",
    "pollution",
    "suite",
    "margin",
    "adaptive",
    "streams",
    "latency",
    "l2size",
    "backward",
];

/// Partial-failure exit code (documented in the header and DESIGN.md).
const EXIT_PARTIAL: i32 = 3;

/// Default simulated cycles between checkpoint writes
/// (`--checkpoint-every`): frequent enough that a killed quick-scale run
/// loses at most a few seconds of simulation, rare enough that snapshot
/// encoding stays invisible in the cell wall times.
const DEFAULT_CHECKPOINT_EVERY: u64 = 1_000_000;

fn run_one(
    id: &str,
    scale: RunLength,
    ctx: &Context,
    csv_dir: Option<&std::path::Path>,
    budgets: &[usize],
) -> Result<String, String> {
    use cdp_experiments::report::ToDataset;
    let save = |d: cdp_experiments::report::Dataset| -> Result<(), String> {
        if let Some(dir) = csv_dir {
            let path = d
                .write_to(dir)
                .map_err(|e| format!("csv write failed: {e}"))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    };
    match id {
        "table1" => Ok(table1::run()),
        "fig1" => {
            let r = fig1::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "table2" => {
            let r = table2::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "fig2" => Ok(fig2::run(VamConfig::tuned())),
        "fig34" => Ok(fig34::run().render().to_string()),
        "fig7" => {
            let r = fig7::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "fig8" => {
            let r = fig8::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "fig9" => {
            let r = fig9::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "fig10" => {
            let r = fig10::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "fig11" => {
            let r = fig11::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "tlb" => {
            let r = tlb::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "pollution" => {
            let r = pollution::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "suite" => {
            let r = suite_summary::run(scale, ctx);
            save(r.dataset())?;
            Ok(r.render())
        }
        "margin" => Ok(extensions::margin(scale, ctx).render()),
        "adaptive" => Ok(extensions::adaptive(scale, ctx).render()),
        "streams" => Ok(extensions::stream(scale, ctx).render()),
        "latency" => Ok(sensitivity::latency(scale, ctx).render()),
        "l2size" => Ok(sensitivity::l2size(scale, ctx).render()),
        "backward" => Ok(extensions::backward(scale, ctx).render()),
        "onecell" => Ok(onecell::run(scale, ctx).render()),
        "tournament" => {
            let budgets: &[usize] = if budgets.is_empty() {
                &tournament::DEFAULT_BUDGETS
            } else {
                budgets
            };
            tournament::run(scale, ctx, budgets).map(|t| t.render())
        }
        other => Err(format!("unknown experiment id: {other}")),
    }
}

/// Runs one experiment, catching panics when keep-going is active so a
/// panic outside any cell (failed cells already gap out one by one)
/// skips that id instead of killing the whole run.
fn run_one_guarded(
    id: &str,
    scale: RunLength,
    ctx: &Context,
    csv_dir: Option<&std::path::Path>,
    budgets: &[usize],
) -> Result<String, String> {
    if !ctx.keep_going {
        return run_one(id, scale, ctx, csv_dir, budgets);
    }
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_one(id, scale, ctx, csv_dir, budgets)
    }));
    match res {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "experiment panicked".to_string());
            ctx.record_failure("(whole experiment)", &msg);
            Ok(format!(
                "experiment {id} failed: {msg}\n(skipped under --keep-going)\n"
            ))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = RunLength::Quick;
    let mut ids: Vec<String> = Vec::new();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut ctx = Context::default();
    let mut verbose_timing = false;
    let mut trace = false;
    let mut trace_filter: Option<TraceFilter> = None;
    let mut metrics_window: Option<u64> = None;
    let mut profile_hist = false;
    let mut status_jsonl: Option<String> = None;
    let mut manifest_dir: Option<std::path::PathBuf> = None;
    let mut result_cache = true;
    let mut result_store_dir: Option<std::path::PathBuf> = None;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut checkpoint_every: u64 = DEFAULT_CHECKPOINT_EVERY;
    let mut resume = false;
    let mut budgets: Vec<usize> = Vec::new();
    let mut expecting: Option<&str> = None;
    for a in &args {
        if let Some(flag) = expecting.take() {
            match flag {
                "--csv" => csv_dir = Some(std::path::PathBuf::from(a)),
                "--jobs" => match a.parse::<usize>() {
                    Ok(n) if n > 0 => ctx.pool = Pool::new(n),
                    _ => {
                        eprintln!("--jobs requires a positive integer, got {a:?}");
                        std::process::exit(2);
                    }
                },
                "--fault" => match FaultSpec::parse(a) {
                    Ok(spec) => ctx.faults.specs.push(spec),
                    Err(e) => {
                        eprintln!("bad --fault spec {a:?}: {e}");
                        eprintln!(
                            "expected corrupt:<bench>:<seed>[:<words>], \
                             unmap:<bench>:<seed>[:<pages>], or \
                             walk:<bench>:<period>[:demand]"
                        );
                        std::process::exit(2);
                    }
                },
                "--cell-timeout" => match a.parse::<u64>() {
                    Ok(n) if n > 0 => ctx.policy.timeout = Some(Duration::from_secs(n)),
                    _ => {
                        eprintln!(
                            "--cell-timeout requires a positive number of seconds, got {a:?}"
                        );
                        std::process::exit(2);
                    }
                },
                "--trace-filter" => match TraceFilter::parse(a) {
                    Ok(f) => {
                        trace = true;
                        trace_filter = Some(f);
                    }
                    Err(e) => {
                        eprintln!("bad --trace-filter spec {a:?}: {e}");
                        eprintln!("expected a comma-separated subset of vam,issue,drop,depth,rescan,mshr,fault (or: all)");
                        std::process::exit(2);
                    }
                },
                "--metrics-window" => match a.parse::<u64>() {
                    Ok(n) if n > 0 => metrics_window = Some(n),
                    _ => {
                        eprintln!("--metrics-window requires a positive number of uops, got {a:?}");
                        std::process::exit(2);
                    }
                },
                "--scale" => match RunLength::parse(a) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("--scale requires one of smoke/quick/full/large/huge, got {a:?}");
                        std::process::exit(2);
                    }
                },
                "--budget" => match a.parse::<usize>() {
                    Ok(n) if n > 0 => budgets.push(n),
                    _ => {
                        eprintln!("--budget requires a positive number of bytes, got {a:?}");
                        std::process::exit(2);
                    }
                },
                "--emit-manifest" => manifest_dir = Some(std::path::PathBuf::from(a)),
                "--status-jsonl" => status_jsonl = Some(a.clone()),
                "--result-store" => result_store_dir = Some(std::path::PathBuf::from(a)),
                "--checkpoint-dir" => checkpoint_dir = Some(std::path::PathBuf::from(a)),
                "--checkpoint-every" => {
                    match a.parse::<u64>() {
                        Ok(n) if n > 0 => checkpoint_every = n,
                        _ => {
                            eprintln!("--checkpoint-every requires a positive number of cycles, got {a:?}");
                            std::process::exit(2);
                        }
                    }
                }
                _ => unreachable!("expecting only set for value-taking flags"),
            }
            continue;
        }
        match a.as_str() {
            "--smoke" => scale = RunLength::Smoke,
            "--quick" => scale = RunLength::Quick,
            "--full" => scale = RunLength::Full,
            "--stream" => ctx.stream = true,
            "--keep-going" => ctx.keep_going = true,
            "--trace" => trace = true,
            "--profile-hist" => profile_hist = true,
            "--verbose-timing" => verbose_timing = true,
            "--no-result-cache" => result_cache = false,
            "--no-fast-forward" => cdp_sim::set_fast_forward(false),
            "--resume" => resume = true,
            "--csv" | "--jobs" | "--fault" | "--cell-timeout" | "--trace-filter"
            | "--metrics-window" | "--scale" | "--emit-manifest" | "--status-jsonl"
            | "--result-store" | "--checkpoint-dir" | "--checkpoint-every" | "--budget" => {
                expecting = Some(a.as_str());
            }
            "all" => ids.extend(ALL.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if let Some(flag) = expecting {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments <id>... [--smoke|--quick|--full|--scale NAME] [--stream] \
             [--jobs N] [--csv <dir>]"
        );
        eprintln!("       [--keep-going] [--fault SPEC]... [--cell-timeout SECS]");
        eprintln!(
            "       [--emit-manifest <dir>] [--trace] [--trace-filter SPEC] \
             [--metrics-window UOPS] [--profile-hist] [--status-jsonl PATH|-] \
             [--verbose-timing] [--no-result-cache]"
        );
        eprintln!("       [--no-fast-forward] [--result-store <dir>]");
        eprintln!("       [--checkpoint-dir <dir>] [--checkpoint-every CYCLES] [--resume]");
        eprintln!("       [--budget BYTES]...  (tournament only; default 16KiB and 64KiB)");
        eprintln!(
            "ids: {} onecell tournament  (or: all, which excludes onecell and tournament)",
            ALL.join(" ")
        );
        eprintln!("exit codes: 0 ok, 2 usage, 3 partial failure under --keep-going");
        std::process::exit(2);
    }
    if (trace || metrics_window.is_some() || profile_hist) && manifest_dir.is_none() {
        eprintln!(
            "--trace/--trace-filter/--metrics-window/--profile-hist require --emit-manifest <dir>"
        );
        std::process::exit(2);
    }
    if (resume || checkpoint_every != DEFAULT_CHECKPOINT_EVERY) && checkpoint_dir.is_none() {
        eprintln!("--resume/--checkpoint-every require --checkpoint-dir <dir>");
        std::process::exit(2);
    }
    if result_store_dir.is_some() && !result_cache {
        eprintln!("--result-store requires the result cache (conflicts with --no-result-cache)");
        std::process::exit(2);
    }
    if let Some(dir) = checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create checkpoint dir {}: {e}", dir.display());
            std::process::exit(2);
        }
        // Sweep stale .part files left behind by a killed predecessor so
        // resume scans only ever see published checkpoints.
        let swept = cdp_store::clean_stale_parts(&cdp_store::RealIo, &dir);
        if swept > 0 && verbose_timing {
            eprintln!("checkpoint dir: swept {swept} stale .part file(s)");
        }
        ctx.checkpoint = Some(CheckpointSettings {
            dir,
            every: checkpoint_every,
            resume,
        });
    }
    if let Some(dir) = &result_store_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create result store dir {}: {e}", dir.display());
            std::process::exit(2);
        }
        match cdp_store::ResultStore::open(dir) {
            // Results persist across processes: a warm store replays
            // whole sweeps without simulating.
            Ok(store) => {
                ctx.result_cache = Some(Arc::new(ResultCache::with_store(Arc::new(store))))
            }
            Err(e) => {
                eprintln!("cannot open result store {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    } else if result_cache {
        ctx.result_cache = Some(Arc::new(ResultCache::new()));
    }
    if let Some(target) = &status_jsonl {
        // The stream is diagnostic and must never perturb stdout: `-`
        // routes it to stderr, anything else to a sidecar file.
        let out: Box<dyn std::io::Write + Send> = if target == "-" {
            Box::new(std::io::stderr())
        } else {
            match std::fs::File::create(target) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("cannot create status stream file {target}: {e}");
                    std::process::exit(2);
                }
            }
        };
        cdp_sim::install_status_sink(cdp_sim::StatusSink::new(out));
    }
    if manifest_dir.is_some() {
        ctx.obs = Some(ObsConfig {
            trace: trace.then(|| TraceConfig {
                filter: trace_filter.unwrap_or_default(),
                ..TraceConfig::default()
            }),
            metrics_window,
            profile_hist,
        });
    }
    for id in ids {
        let t0 = Instant::now();
        ctx.experiment.clone_from(&id);
        match run_one_guarded(&id, scale, &ctx, csv_dir.as_deref(), &budgets) {
            Ok(text) => {
                // Wall time goes to stderr (and only under
                // --verbose-timing): stdout must be byte-identical at any
                // --jobs count. The manifest records it unconditionally.
                ctx.record_experiment(&id, t0.elapsed().as_millis() as u64);
                if verbose_timing {
                    eprintln!("{id}: {:.1?} ({} jobs)", t0.elapsed(), ctx.pool.jobs());
                }
                println!("================================================================");
                println!("== {id}  (scale: {scale:?})");
                println!("================================================================");
                println!("{text}");
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    if verbose_timing {
        let (hits, misses) = ctx.result_cache_stats();
        eprintln!("result cache: {hits} hit(s), {misses} miss(es)");
        if result_store_dir.is_some() {
            let (s_hits, s_misses, s_quarantined) = ctx.result_store_stats();
            eprintln!(
                "result store: {s_hits} hit(s), {s_misses} miss(es), \
                 {s_quarantined} quarantined"
            );
        }
    }
    if let (Some(dir), Some(taken)) = (&manifest_dir, ctx.take_obs()) {
        match obs::write_artifacts(dir, scale.name(), ctx.pool.jobs(), &taken) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("manifest write failed under {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    let failures = ctx.take_failures();
    if !failures.is_empty() {
        eprintln!();
        eprintln!("FAILURE REPORT: {} cell(s) failed", failures.len());
        for f in &failures {
            eprintln!("  [{}] {}: {}", f.experiment, f.cell, f.error);
        }
        eprintln!("exiting with code {EXIT_PARTIAL} (partial failure)");
        std::process::exit(EXIT_PARTIAL);
    }
}
