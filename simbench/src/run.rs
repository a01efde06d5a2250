//! The workload runners.
//!
//! Untraced runs (`--trace 0`) time the product path and report the
//! end-to-end metrics. Traced runs (`--trace 1`) repeat the product path
//! with timed filesystems, then alternate product-path and traced cells
//! for the per-crate split, then run the layer kernels.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdp_sim::{
    CheckpointSpec, JobOutcome, JobReport, Pool, ResultCache, RunPolicy, RunStats, SimJob,
    WorkloadCache,
};
use cdp_store::{ResultStore, StoreIo};
use cdp_types::SystemConfig;
use cdp_workloads::Workload;

use crate::cells::{Cell, Grid, Size, WorkloadId};
use crate::io::{NoSyncIo, TimedIo};
use crate::kernels;
use crate::oracle::Oracle;
use crate::report::{quantile, Metric, Outcome};
use crate::traced::{run_plain, run_traced, same_stats, Clock, LayerTimes, PlainTimes};
use crate::yardstick::{Gauge, Lap, Meter};

/// Worker threads: the two cores the benchmark is specified for.
pub const THREADS: usize = 2;

/// Simulated cycles between checkpoint writes: the experiments' default
/// `--checkpoint-every`.
pub const CHECKPOINT_EVERY: u64 = 1_000_000;

/// A cell slower than this counts as timed out.
const CELL_TIMEOUT: Duration = Duration::from_secs(60);

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: WorkloadId,
    /// The `--seed` argument.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Cell size.
    pub size: Size,
    /// The repository's `microbench` binary, for the existing kernels.
    pub microbench: Option<PathBuf>,
    /// Replaces the pinned or computed oracle (tests perturb it).
    pub oracle: Option<Oracle>,
}

/// A per-run scratch directory inside the benchmark's own directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: WorkloadId) -> Result<WorkDir, String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A failure that leaves nothing to report (no cell completed, the work
/// directory cannot be created, a reference run faulted).
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let grid = Grid::new(opts.workload, opts.size, opts.seed)?;
    let work = WorkDir::create(opts.workload)?;
    let pool = Pool::new(THREADS);
    let pinned = match &opts.oracle {
        Some(o) => Some(o.clone()),
        None => Oracle::load_pinned(opts.workload, opts.size, opts.seed)?,
    };
    // The reference runs on the first image set when no oracle is pinned
    // for this seed.
    let images = grid.build_images();
    let oracle = match pinned {
        Some(o) => o,
        None => {
            let threads = (opts.workload == WorkloadId::TournamentSweep).then_some(&pool);
            let (oracle, took) = timed(|| Oracle::reference(&grid, &images, threads));
            eprintln!(
                "simbench: no pinned oracle for seed {}; reference schedule took {took:.1} s",
                opts.seed
            );
            oracle?
        }
    };
    drop(images);
    let mut out = Outcome::default();
    let ctx = Ctx {
        opts,
        grid: &grid,
        oracle: &oracle,
        pool: &pool,
        dir: &work.0,
    };
    match (opts.workload, opts.trace) {
        (WorkloadId::TournamentSweep, false) => sweep(&ctx, &mut out)?,
        (_, false) => single(&ctx, &mut out)?,
        (_, true) => traced(&ctx, &mut out)?,
    }
    Ok(out)
}

/// What every runner needs.
struct Ctx<'a> {
    opts: &'a Opts,
    grid: &'a Grid,
    oracle: &'a Oracle,
    pool: &'a Pool,
    dir: &'a Path,
}

/// Prints the yardstick's readings on stderr.
fn print_speeds(by: &str, readings: &[f64]) {
    eprintln!(
        "simbench: host speed {:.3} of nominal (p10 {:.3}, p90 {:.3}) over {} {by} readings",
        quantile(readings, 0.5),
        quantile(readings, 0.1),
        quantile(readings, 0.9),
        readings.len()
    );
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Whether another repetition that takes about `last` seconds still fits
/// in the budget.
fn fits(start: Instant, last: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + last <= seconds
}

/// One repetition of a single-cell workload, at the nominal host speed.
struct SingleRep {
    setup_s: f64,
    sim_s: f64,
    wall_s: f64,
    replay_s: f64,
    uops: u64,
}

/// chase-cdp / compute-base, untraced: repeat build → simulate → persist
/// → replay from the store until the budget is spent.
fn single(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let mut meter = Meter::new();
    let mut reps = Vec::new();
    loop {
        let dir = ctx.dir.join(format!("rep{}", out.attempted));
        let t = Instant::now();
        match single_rep(ctx, &dir, &mut meter) {
            Ok((rep, verdict)) => {
                out.cell(verdict);
                reps.push(rep);
            }
            Err(e) => out.cell(Err(e)),
        }
        let _ = std::fs::remove_dir_all(&dir);
        if !fits(start, t.elapsed().as_secs_f64(), ctx.opts.seconds) {
            break;
        }
    }
    print_speeds("meter", meter.readings());
    if reps.is_empty() {
        return Err(format!("no cell completed: {}", out.errors.join("; ")));
    }
    let col = |f: fn(&SingleRep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    out.metrics = end_to_end(
        col(|r| r.uops as f64 / r.sim_s / 1e6),
        col(|r| r.wall_s),
        col(|r| r.setup_s),
        col(|r| r.replay_s),
        meter.peak_rss_mb(),
    );
    Ok(())
}

/// The end-to-end metrics: the median of each sample of times at the
/// nominal host speed (see [`crate::yardstick`]), and the peak resident
/// set of the measured sections.
fn end_to_end(
    muops: Vec<f64>,
    wall: Vec<f64>,
    setup: Vec<f64>,
    replay: Vec<f64>,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::median("muops", "Muop/s", muops),
        Metric::median("wall_s", "s", wall),
        Metric::median("setup_s", "s", setup),
        Metric::median("replay_s", "s", replay),
        Metric::single("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// Session windows simulated between two meter laps (about 40 ms).
const STEPS_PER_LAP: usize = 3;

/// One build → simulate → persist → replay, timed in meter laps. The
/// error is a cell that could not complete; the verdict is whether a
/// completed cell matched the oracle, within the timeout, and replayed
/// from the store.
fn single_rep(
    ctx: &Ctx<'_>,
    dir: &Path,
    meter: &mut Meter,
) -> Result<(SingleRep, Result<(), String>), String> {
    let grid = ctx.grid;
    let cell = &grid.cells[0];
    meter.lap();
    let w = grid.build_image(cell.bench);
    let mut setup = meter.lap();
    let sim = cdp_sim::Simulator::try_new(cell.cfg.clone()).map_err(|e| e.to_string())?;
    let mut session = sim.session(&w, None);
    setup += meter.lap();
    let mut simulate = Lap::default();
    let mut steps = 0;
    let stats = loop {
        let step = session.step();
        steps += 1;
        match step {
            Ok(true) => break session.finish().0,
            Ok(false) if steps % STEPS_PER_LAP == 0 => simulate += meter.lap(),
            Ok(false) => {}
            Err(e) => return Err(format!("{}: {e}", cell.label)),
        }
    };
    simulate += meter.lap();
    drop(w);
    let io: Arc<dyn StoreIo> = Arc::new(NoSyncIo);
    let store = open_store(dir, Arc::clone(&io))?;
    ResultCache::with_store(Arc::new(store)).put(cell.key, stats, None);
    let persist = meter.lap();
    let host_s = setup.host_s + simulate.host_s + persist.host_s;
    let simulated = ctx
        .oracle
        .check(&cell.label, &stats)
        .and_then(|()| check_timeout(&cell.label, Duration::from_secs_f64(host_s)));

    meter.lap();
    let store = open_store(dir, io)?;
    let cache = Arc::new(ResultCache::with_store(Arc::new(store)));
    let mut replay_lap = meter.lap();
    let w = Arc::new(grid.build_image(cell.bench));
    replay_lap += meter.lap();
    let replayed = SimJob::new(cell.label.clone(), cell.cfg.clone(), w)
        .with_result_cache(Arc::clone(&cache), cell.key)
        .try_execute();
    replay_lap += meter.lap();
    let replay = match replayed {
        Err(e) => Err(format!("{}: {e}", cell.label)),
        Ok(_) if cache.misses() != 0 => Err(format!("{}: result store missed", cell.label)),
        Ok(r) => ctx.oracle.check(&cell.label, &r),
    };
    let rep = SingleRep {
        setup_s: setup.nominal_s,
        sim_s: simulate.nominal_s,
        wall_s: setup.nominal_s + simulate.nominal_s + persist.nominal_s,
        replay_s: replay_lap.nominal_s,
        uops: Grid::uops(&stats, cell),
    };
    Ok((
        rep,
        simulated.and(replay.map_err(|e| format!("replay {e}"))),
    ))
}

fn check_timeout(label: &str, took: Duration) -> Result<(), String> {
    if took > CELL_TIMEOUT {
        Err(format!(
            "{label}: timed out ({:.1} s > {} s)",
            took.as_secs_f64(),
            CELL_TIMEOUT.as_secs()
        ))
    } else {
        Ok(())
    }
}

/// Opens the result store under `dir` through `io`.
fn open_store(dir: &Path, io: Arc<dyn StoreIo>) -> Result<ResultStore, String> {
    ResultStore::open_with(dir.join("store"), io).map_err(|e| e.to_string())
}

/// Pass 1 of the product path: every cell through the pool, over a fresh
/// `store` and checkpoints under `dir`. The cells go to the pool in
/// [`BATCHES`] consecutive submissions, one gauge section each, so host
/// speed is read every few seconds of the pass. Returns the reports in
/// cell order and the batches' sections.
fn pass1(
    ctx: &Ctx<'_>,
    gauge: &mut Gauge,
    images: &WorkloadCache,
    store: ResultStore,
    ckpt_io: Arc<dyn StoreIo>,
    dir: &Path,
) -> Result<(Vec<JobReport>, Vec<Lap>), String> {
    let grid = ctx.grid;
    let cache = Arc::new(ResultCache::with_store(Arc::new(store)));
    let ckpt_dir = dir.join("checkpoints");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("{}: {e}", ckpt_dir.display()))?;
    let job = |c: &Cell| {
        SimJob::new(c.label.clone(), c.cfg.clone(), grid.image(images, c.bench))
            .with_result_cache(Arc::clone(&cache), c.key)
            .with_checkpoint(CheckpointSpec {
                dir: ckpt_dir.clone(),
                every: CHECKPOINT_EVERY,
                key: c.key,
                resume: false,
                status: None,
                io: Some(Arc::clone(&ckpt_io)),
            })
    };
    let mut reports = Vec::with_capacity(grid.cells.len());
    let mut sections = Vec::with_capacity(BATCHES);
    for batch in grid.cells.chunks(grid.cells.len().div_ceil(BATCHES)) {
        let jobs = batch.iter().map(job).collect();
        let (r, s) = gauge.section(|| ctx.pool.run_sims_profiled(jobs, RunPolicy::default()));
        reports.extend(r);
        sections.push(s);
    }
    Ok((reports, sections))
}

/// Pool submissions per pass 1.
const BATCHES: usize = 13;

/// Pass 2: a new cache over the reopened `store` and rebuilt images, the
/// way a re-run starts. Returns the reports, the image build time and the
/// store misses (0 when every cell replayed).
fn pass2(ctx: &Ctx<'_>, store: ResultStore, meter: &mut Meter) -> (Vec<JobReport>, Lap, u64) {
    let grid = ctx.grid;
    let cache = Arc::new(ResultCache::with_store(Arc::new(store)));
    let (images, build) = grid.build_images_metered(meter);
    let jobs = grid
        .cells
        .iter()
        .map(|c| {
            SimJob::new(c.label.clone(), c.cfg.clone(), grid.image(&images, c.bench))
                .with_result_cache(Arc::clone(&cache), c.key)
        })
        .collect();
    let reports = ctx.pool.run_sims_profiled(jobs, RunPolicy::default());
    (reports, build, cache.misses())
}

/// Per-cell verdicts across the passes of a sweep: a cell fails once,
/// with its first error, however many passes it failed.
struct Verdicts(Vec<Option<String>>);

impl Verdicts {
    fn new(cells: usize) -> Verdicts {
        Verdicts(vec![None; cells])
    }

    /// Checks every report against the oracle and the timeout. Returns
    /// the stats of the cells that passed, by index.
    fn verify(
        &mut self,
        ctx: &Ctx<'_>,
        reports: &[JobReport],
        what: &str,
    ) -> Vec<Option<RunStats>> {
        reports
            .iter()
            .zip(&ctx.grid.cells)
            .zip(&mut self.0)
            .map(|((r, c), verdict)| {
                let result = match &r.outcome {
                    JobOutcome::Ok(stats) => ctx
                        .oracle
                        .check(&c.label, stats)
                        .and_then(|()| check_timeout(&c.label, r.wall))
                        .map(|()| *stats),
                    other => Err(format!(
                        "{}: {}",
                        c.label,
                        other.failure().unwrap_or_default()
                    )),
                };
                match result {
                    Ok(stats) => Some(stats),
                    Err(e) => {
                        verdict.get_or_insert(format!("{what}: {e}"));
                        None
                    }
                }
            })
            .collect()
    }

    /// Records one operation per cell.
    fn record(self, out: &mut Outcome) {
        for v in self.0 {
            out.cell(v.map_or(Ok(()), Err));
        }
    }
}

/// tournament-sweep, untraced: one pass 1, then [`REPLAYS`] pass-2
/// replays timed in meter laps. The sweep is a fixed amount of work, so
/// `--seconds` does not change it.
fn sweep(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let grid = ctx.grid;
    let io: Arc<dyn StoreIo> = Arc::new(NoSyncIo);
    let dir = ctx.dir.join("sweep");
    // Serial image builds are timed in meter laps, pool batches in gauge
    // sections; the meter is dropped while the gauge runs, so its pages
    // are not in the gauge's peak resident set.
    let mut meter = Meter::new();
    let (images, build) = grid.build_images_metered(&mut meter);
    let store = open_store(&dir, Arc::clone(&io))?;
    let opened = meter.lap();
    let mut setup = vec![build.nominal_s];
    let mut readings = meter.readings().to_vec();
    let build_rss_mb = meter.peak_rss_mb();
    drop(meter);
    let mut gauge = Gauge::new(THREADS);
    let (reports, batches) = pass1(ctx, &mut gauge, &images, store, Arc::clone(&io), &dir)?;
    let pool_s: f64 = batches.iter().map(|b| b.nominal_s).sum();
    let wall = build.nominal_s + opened.nominal_s + pool_s;
    drop(images);
    let mut verdicts = Verdicts::new(grid.cells.len());
    let stats = verdicts.verify(ctx, &reports, "pass 1");
    let uops: u64 = grid
        .distinct()
        .into_iter()
        .filter_map(|i| stats[i].as_ref().map(|s| Grid::uops(s, &grid.cells[i])))
        .sum();
    // Pass 2 is short; replaying several times gives its time and the
    // image builds in it more than one sample.
    let mut meter = Meter::new();
    let mut replays = Vec::new();
    for _ in 0..REPLAYS {
        meter.lap();
        let store = open_store(&dir, Arc::clone(&io))?;
        let mut replay = meter.lap();
        let (reports2, build, misses) = pass2(ctx, store, &mut meter);
        replay += build;
        replay += meter.lap();
        replays.push(replay.nominal_s);
        setup.push(build.nominal_s);
        verdicts.verify(ctx, &reports2, "pass 2");
        out.check(store_replayed(misses));
    }
    verdicts.record(out);
    readings.extend_from_slice(meter.readings());
    print_speeds("meter", &readings);
    print_speeds("gauge", gauge.readings());
    out.metrics = end_to_end(
        vec![uops as f64 / pool_s / 1e6],
        vec![wall],
        setup,
        replays,
        build_rss_mb.max(gauge.peak_rss_mb()),
    );
    Ok(())
}

/// Pass-2 replays per sweep.
const REPLAYS: usize = 3;

/// One product-path cell and one traced cell.
struct SplitPair {
    plain: RunStats,
    plain_times: PlainTimes,
    traced: RunStats,
    times: LayerTimes,
    /// The traced cell's run, construction included.
    traced_run_s: f64,
}

/// Runs a cell through the product path on `plain_w`, then through the
/// traced runner on `traced_w`.
fn split_pair(
    cfg: &SystemConfig,
    plain_w: &Workload,
    traced_w: &Workload,
    clock: Clock,
    label: &str,
) -> Result<SplitPair, String> {
    let (plain, plain_times) = run_plain(cfg, plain_w).map_err(|e| format!("{label}: {e}"))?;
    let (traced, traced_run_s) = timed(|| run_traced(cfg, traced_w, clock));
    let (traced, times) = traced.map_err(|e| format!("{label} traced: {e}"))?;
    Ok(SplitPair {
        plain,
        plain_times,
        traced,
        times,
        traced_run_s,
    })
}
/// The split's accumulated pairs and per-cell samples.
#[derive(Default)]
struct Split {
    pairs: Vec<SplitPair>,
    /// Image builds timed inside the split (single-cell workloads).
    builds: Vec<f64>,
    /// `Simulator::session` times.
    sessions: Vec<f64>,
    /// Traced cells' image builds, for the coverage check.
    traced_build_s: f64,
}

impl Split {
    /// Counts a pair as one cell, checked against the oracle and traced
    /// against untraced; keeps its times when both runs completed.
    fn record(
        &mut self,
        ctx: &Ctx<'_>,
        out: &mut Outcome,
        label: &str,
        pair: Result<SplitPair, String>,
    ) {
        let Ok(p) = pair.map_err(|e| out.cell(Err(e))) else {
            return;
        };
        out.cell((|| {
            ctx.oracle.check(label, &p.plain)?;
            ctx.oracle
                .check(label, &p.traced)
                .map_err(|e| format!("traced {e}"))?;
            if same_stats(&p.plain, &p.traced) {
                Ok(())
            } else {
                Err(format!("{label}: traced statistics differ from untraced"))
            }
        })());
        self.pairs.push(p);
    }
}

/// Traced run of any workload. Its times are host times; the gauge only
/// paces pass 1 the way the untraced sweep submits it.
fn traced(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let grid = ctx.grid;
    let clock = Clock::calibrate();
    eprintln!("simbench: one clock read costs {:.1} ns", clock.now_ns);

    // Product path with timed filesystems: pass 1, then pass 2.
    let nosync: Arc<dyn StoreIo> = Arc::new(NoSyncIo);
    let store_io = Arc::new(TimedIo::new(Arc::clone(&nosync)));
    let ckpt_io = Arc::new(TimedIo::new(Arc::clone(&nosync)));
    let replay_io = Arc::new(TimedIo::new(nosync));
    let dir = ctx.dir.join("product");
    let (images, images_s) = timed(|| grid.build_images());
    // Counters start after each open, so the store's own bookkeeping
    // (generation file, lock) is not counted as puts or gets.
    let store = open_store(&dir, store_io.clone())?;
    store_io.reset();
    let (reports, batches) = pass1(
        ctx,
        &mut Gauge::new(THREADS),
        &images,
        store,
        ckpt_io.clone(),
        &dir,
    )?;
    let pool_s: f64 = batches.iter().map(|b| b.host_s).sum();
    drop(images);
    let mut verdicts = Verdicts::new(grid.cells.len());
    let stats = verdicts.verify(ctx, &reports, "pass 1");
    let store = open_store(&dir, replay_io.clone())?;
    replay_io.reset();
    let (reports2, images2, misses) = pass2(ctx, store, &mut Meter::new());
    verdicts.verify(ctx, &reports2, "pass 2");
    verdicts.record(out);
    out.check(store_replayed(misses));
    let _ = std::fs::remove_dir_all(&dir);
    let walls: Vec<f64> = reports.iter().map(|r| r.wall.as_secs_f64()).collect();
    let busy = walls.iter().sum::<f64>() / (THREADS as f64 * pool_s);

    // The split: product-path and traced cells side by side.
    let distinct = grid.distinct();
    let mut split = Split::default();
    if grid.workload == WorkloadId::TournamentSweep {
        // Streamed twins of the quick images (same uops, same pinned
        // statistics) let the feed be timed; the session is timed on the
        // materialized images the sweep's cells use.
        let twins: Vec<Arc<Workload>> = grid
            .benches
            .iter()
            .map(|&b| Arc::new(grid.build_streamed_twin(b)))
            .collect();
        let materialized = grid.build_images();
        let tasks: Vec<_> = distinct
            .iter()
            .map(|&i| {
                let cell = grid.cells[i].clone();
                let slot = grid.benches.iter().position(|&b| b == cell.bench);
                let twin = Arc::clone(&twins[slot.expect("every cell's benchmark has an image")]);
                let image = grid.image(&materialized, cell.bench);
                move || {
                    let t = Instant::now();
                    let session = cdp_sim::Simulator::try_new(cell.cfg.clone())
                        .map(|sim| drop(std::hint::black_box(sim.session(&image, None))));
                    let session_s = t.elapsed().as_secs_f64();
                    let pair = session
                        .map_err(|e| format!("{}: {e}", cell.label))
                        .and_then(|()| split_pair(&cell.cfg, &twin, &twin, clock, &cell.label));
                    (cell.label, session_s, pair)
                }
            })
            .collect();
        for (label, session_s, pair) in ctx.pool.run(tasks) {
            split.sessions.push(session_s);
            split.record(ctx, out, &label, pair);
        }
        split.builds = vec![images_s, images2.host_s];
    } else {
        let cell = &grid.cells[0];
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let (plain_w, plain_build) = timed(|| grid.build_image(cell.bench));
            let (traced_w, traced_build) = timed(|| grid.build_image(cell.bench));
            let pair = split_pair(&cell.cfg, &plain_w, &traced_w, clock, &cell.label);
            if let Ok(p) = &pair {
                split.builds.extend([plain_build, traced_build]);
                split.sessions.push(p.plain_times.session_s);
                split.traced_build_s += traced_build;
            }
            split.record(ctx, out, &cell.label, pair);
            if !fits(start, t.elapsed().as_secs_f64(), ctx.opts.seconds) {
                break;
            }
        }
    }
    if split.pairs.is_empty() {
        return Err(format!(
            "no traced cell completed: {}",
            out.errors.join("; ")
        ));
    }
    let mut lt = LayerTimes::default();
    for p in &split.pairs {
        lt.add(&p.times);
    }
    let plain_sim_ns: f64 = split.pairs.iter().map(|p| p.plain_times.sim_s * 1e9).sum();
    let traced_ns = split.traced_build_s * 1e9
        + split
            .pairs
            .iter()
            .map(|p| p.traced_run_s * 1e9)
            .sum::<f64>();
    let layers_ns =
        split.traced_build_s * 1e9 + lt.construct_ns + lt.core_ns() + lt.hierarchy_ns + lt.feed_ns;
    let uops = lt.uops as f64;
    let put_like_ms =
        |io: &TimedIo| (io.write.ns() + io.rename.ns()) as f64 / io.write.calls() as f64 / 1e6;

    let mut m = vec![
        Metric::median("cdp-workloads.build_s", "s", split.builds),
        Metric::single(
            "cdp-workloads.feed_ns_per_uop",
            "ns",
            lt.feed_ns / lt.fed_uops as f64,
        ),
        Metric::median(
            "cdp-sim.session_ms",
            "ms",
            split.sessions.iter().map(|s| s * 1e3).collect(),
        ),
        Metric::single("cdp-core.ns_per_uop", "ns", lt.core_ns() / uops),
        Metric::single(
            "cdp-core.ns_per_cycle",
            "ns",
            lt.core_ns() / lt.cycles as f64,
        ),
        Metric::single(
            "cdp-sim.hierarchy.ns_per_access",
            "ns",
            lt.hierarchy_ns / lt.accesses as f64,
        ),
        Metric::single("cdp-sim.hierarchy.ns_per_uop", "ns", lt.hierarchy_ns / uops),
        Metric::single(
            "cdp-sim.hierarchy.accesses_per_uop",
            "access/uop",
            lt.accesses as f64 / uops,
        ),
        Metric::single(
            "cdp-core.issue_kernel_ns_per_uop",
            "ns",
            kernels::core_issue_ns_per_uop(ctx.opts.size, ctx.opts.seed)?,
        ),
    ];
    let replay = kernels::hierarchy_replay_ns_per_access(ctx.opts.size, ctx.opts.seed);
    out.check(replay.as_ref().map(|_| ()).map_err(Clone::clone));
    m.push(Metric::single(
        "cdp-sim.hierarchy.replay_ns_per_access",
        "ns",
        replay.unwrap_or(0.0),
    ));
    if let Some(bin) = &ctx.opts.microbench {
        for (name, v) in kernels::microbench(bin)? {
            m.push(Metric::single(name, "ns", v));
        }
    }
    m.extend([
        Metric::single("cdp-sim.exec.cell_s_p50", "s", quantile(&walls, 0.5)),
        Metric::single("cdp-sim.exec.cell_s_p90", "s", quantile(&walls, 0.9)),
        Metric::single("cdp-sim.exec.busy_frac", "fraction", busy),
        Metric::single("cdp-store.put_ms", "ms", put_like_ms(&store_io)),
        Metric::single(
            "cdp-store.get_ms",
            "ms",
            replay_io.read.ns() as f64 / replay_io.read.calls() as f64 / 1e6,
        ),
        Metric::single(
            "cdp-store.entry_kb",
            "KiB",
            store_io.write.bytes() as f64 / store_io.write.calls() as f64 / 1024.0,
        ),
        Metric::single(
            "cdp-snap.checkpoint_writes",
            "count",
            ckpt_io.write.calls() as f64,
        ),
        Metric::single(
            "cdp-snap.checkpoint_mb",
            "MiB",
            ckpt_io.write.bytes() as f64 / f64::from(1u32 << 20),
        ),
        Metric::single("cdp-snap.write_ms", "ms", put_like_ms(&ckpt_io)),
    ]);
    let counted: Vec<RunStats> = distinct.iter().filter_map(|&i| stats[i]).collect();
    m.extend(count_metrics(&counted));
    m.push(Metric::single(
        "bench.trace_overhead_frac",
        "fraction",
        1.0 - plain_sim_ns / lt.run_ns,
    ));
    m.push(Metric::single(
        "bench.layer_coverage_frac",
        "fraction",
        layers_ns / traced_ns,
    ));
    out.metrics = m;
    Ok(())
}

/// Pass 2 must replay every cell from the store, not re-simulate it.
fn store_replayed(misses: u64) -> Result<(), String> {
    if misses == 0 {
        Ok(())
    } else {
        Err(format!("pass 2: {misses} cells missed the result store"))
    }
}

/// The exact simulated counts that explain a host-time change: a
/// speed-only change leaves every one of them identical.
fn count_metrics(stats: &[RunStats]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let retired = sum(&|s| s.retired);
    let engines = |f: &dyn Fn(&cdp_sim::EngineCounters) -> u64| {
        sum(&|s| {
            [
                s.mem.stride,
                s.mem.content,
                s.mem.markov,
                s.mem.delta,
                s.mem.jump,
            ]
            .iter()
            .map(f)
            .sum()
        })
    };
    let issued = engines(&|e| e.issued);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    vec![
        Metric::single(
            "cdp-core.ipc",
            "uop/cycle",
            ratio(retired, sum(&|s| s.cycles)),
        ),
        Metric::single(
            "cdp-sim.hierarchy.l1_hit_frac",
            "fraction",
            ratio(sum(&|s| s.mem.l1_hits), sum(&|s| s.mem.accesses)),
        ),
        Metric::single(
            "cdp-sim.hierarchy.l2_mptu",
            "miss/kuop",
            ratio(sum(&|s| s.mem.l2_demand_misses) * 1000.0, retired),
        ),
        Metric::single(
            "cdp-sim.hierarchy.dtlb_miss_frac",
            "fraction",
            ratio(
                sum(&|s| s.mem.dtlb_misses),
                sum(&|s| s.mem.dtlb_hits + s.mem.dtlb_misses),
            ),
        ),
        Metric::single(
            "cdp-prefetch.issued_per_kuop",
            "pf/kuop",
            ratio(issued * 1000.0, retired),
        ),
        Metric::single(
            "cdp-prefetch.useful_frac",
            "fraction",
            ratio(engines(&|e| e.useful()), issued),
        ),
        Metric::single(
            "cdp-prefetch.wasted_frac",
            "fraction",
            ratio(engines(&|e| e.wasted_evictions), issued),
        ),
    ]
}
