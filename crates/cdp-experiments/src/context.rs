//! Process-wide run context for the experiments binary: keep-going mode,
//! the active fault-injection plan, the cell watchdog policy, and the
//! accumulated failure report.
//!
//! Experiments are invoked through a stable `run(scale, pool)` signature
//! from many call sites (the binary, unit tests, integration tests), so
//! the failure-handling knobs travel out of band in this context instead
//! of threading through every experiment's arguments. All state is
//! default-off: a process that never touches the context gets the strict,
//! fault-free behavior, and rendered output is byte-identical to a build
//! without this module.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cdp_sim::{FaultPlan, FaultSpec, JobObs, ObsSink, ResultCache, RunPolicy};
use cdp_types::ObsConfig;

use crate::obs::{CellRecord, ExperimentRecord, ObsTaken};

/// One failed sweep cell, for the end-of-run report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureRecord {
    /// Experiment id (e.g. `table2`).
    pub experiment: String,
    /// Cell label (e.g. `1MB/slsb`).
    pub cell: String,
    /// The error that killed the cell.
    pub error: String,
}

/// Observability collection state, alive between [`enable_obs`] and
/// [`take_obs`].
#[derive(Debug)]
struct ObsState {
    cfg: ObsConfig,
    sink: Arc<ObsSink>,
    cells: Vec<CellRecord>,
    experiments: Vec<ExperimentRecord>,
    /// batch id → owning experiment id; `len()` is the next batch id.
    batch_experiments: Vec<String>,
}

static KEEP_GOING: AtomicBool = AtomicBool::new(false);
static VERBOSE_TIMING: AtomicBool = AtomicBool::new(false);
static FAULT_SPECS: Mutex<Vec<FaultSpec>> = Mutex::new(Vec::new());
static POLICY: Mutex<Option<RunPolicy>> = Mutex::new(None);
static CURRENT_EXPERIMENT: Mutex<String> = Mutex::new(String::new());
static FAILURES: Mutex<Vec<FailureRecord>> = Mutex::new(Vec::new());
static OBS: Mutex<Option<ObsState>> = Mutex::new(None);
static RESULT_CACHE: Mutex<Option<Arc<ResultCache>>> = Mutex::new(None);
static RESULT_STORE: Mutex<Option<Arc<cdp_store::ResultStore>>> = Mutex::new(None);
static CHECKPOINT: Mutex<Option<CheckpointSettings>> = Mutex::new(None);
/// Checkpoint writes dropped across the whole run (summed from per-cell
/// [`cdp_sim::CheckpointStatus`] slots after each grid).
static CHECKPOINT_DROPPED_WRITES: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(0);

/// Process-wide checkpointing configuration (`--checkpoint-dir`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSettings {
    /// Directory holding the per-cell `.snap` files.
    pub dir: PathBuf,
    /// Simulated cycles between checkpoint writes.
    pub every: u64,
    /// Whether cells may resume from an existing checkpoint
    /// (`--resume`).
    pub resume: bool,
}

/// Enables (or disables) keep-going mode: failing sweep cells render as
/// annotated gaps instead of aborting the run.
pub fn set_keep_going(on: bool) {
    KEEP_GOING.store(on, Ordering::SeqCst);
}

/// Whether keep-going mode is active.
pub fn keep_going() -> bool {
    KEEP_GOING.load(Ordering::SeqCst)
}

/// Installs the fault-injection plan applied to workload builds and
/// simulation jobs.
pub fn set_fault_plan(plan: FaultPlan) {
    *FAULT_SPECS.lock().expect("fault plan lock") = plan.specs;
}

/// The active fault-injection plan (empty by default).
pub fn fault_plan() -> FaultPlan {
    FaultPlan {
        specs: FAULT_SPECS.lock().expect("fault plan lock").clone(),
    }
}

/// Sets the per-cell watchdog policy.
pub fn set_policy(policy: RunPolicy) {
    *POLICY.lock().expect("policy lock") = Some(policy);
}

/// The per-cell policy ([`RunPolicy::default`] when unset: no
/// watchdog).
pub fn policy() -> RunPolicy {
    POLICY.lock().expect("policy lock").unwrap_or_default()
}

/// Names the experiment whose cells are currently running (labels the
/// failure report).
pub fn set_current_experiment(id: &str) {
    *CURRENT_EXPERIMENT.lock().expect("experiment lock") = id.to_string();
}

/// Records one failed cell under the current experiment id.
pub fn record_failure(cell: &str, error: &str) {
    let experiment = CURRENT_EXPERIMENT.lock().expect("experiment lock").clone();
    FAILURES.lock().expect("failures lock").push(FailureRecord {
        experiment,
        cell: cell.to_string(),
        error: error.to_string(),
    });
}

/// Takes the accumulated failure report (clearing it).
pub fn take_failures() -> Vec<FailureRecord> {
    std::mem::take(&mut *FAILURES.lock().expect("failures lock"))
}

/// The experiment id currently running (empty when none was named).
pub fn current_experiment() -> String {
    CURRENT_EXPERIMENT.lock().expect("experiment lock").clone()
}

/// Enables (or disables) the per-id wall-time line on stderr.
pub fn set_verbose_timing(on: bool) {
    VERBOSE_TIMING.store(on, Ordering::SeqCst);
}

/// Whether the per-id wall-time stderr line is enabled.
pub fn verbose_timing() -> bool {
    VERBOSE_TIMING.load(Ordering::SeqCst)
}

/// Starts collecting observability data (`--emit-manifest`): cell and
/// experiment records accumulate, and — when `cfg` enables tracing or
/// metrics windowing — grid jobs get an observation sink attached.
pub fn enable_obs(cfg: ObsConfig) {
    *OBS.lock().expect("obs lock") = Some(ObsState {
        cfg,
        sink: ObsSink::shared(),
        cells: Vec::new(),
        experiments: Vec::new(),
        batch_experiments: Vec::new(),
    });
}

/// Whether observability collection is active.
pub fn obs_enabled() -> bool {
    OBS.lock().expect("obs lock").is_some()
}

/// Allocates the next observation batch id, owned by the current
/// experiment. Returns 0 when collection is off (the id is then unused).
pub fn obs_new_batch() -> u64 {
    let mut guard = OBS.lock().expect("obs lock");
    match guard.as_mut() {
        None => 0,
        Some(state) => {
            let id = state.batch_experiments.len() as u64;
            state.batch_experiments.push(current_experiment());
            id
        }
    }
}

/// The observation attachment for grid job `index` of `batch`, or `None`
/// when collection is off or neither tracing nor windowing is requested.
pub fn obs_job_attachment(batch: u64, index: usize) -> Option<JobObs> {
    let guard = OBS.lock().expect("obs lock");
    let state = guard.as_ref()?;
    if !state.cfg.is_enabled() {
        return None;
    }
    Some(JobObs {
        cfg: state.cfg.clone(),
        sink: Arc::clone(&state.sink),
        batch,
        index,
    })
}

/// Records one finished grid cell for the manifest. No-op when
/// collection is off.
pub fn obs_record_cell(record: CellRecord) {
    if let Some(state) = OBS.lock().expect("obs lock").as_mut() {
        state.cells.push(record);
    }
}

/// Records one finished experiment id's wall time for the manifest.
/// No-op when collection is off.
pub fn obs_record_experiment(id: &str, wall_ms: u64) {
    if let Some(state) = OBS.lock().expect("obs lock").as_mut() {
        state.experiments.push(ExperimentRecord {
            id: id.to_string(),
            wall_ms,
        });
    }
}

/// Enables (or disables) the process-wide fingerprint-keyed result
/// cache. Cached cells replay their finished [`RunStats`] (and any
/// observation) instead of re-simulating; rendered output is
/// byte-identical either way, so the binary turns it on by default and
/// `--no-result-cache` opts out.
///
/// When a persistent store directory was installed beforehand
/// ([`set_result_store`]), the cache is created as a write-through L1
/// over it: results persist across processes, and a warm store replays
/// whole sweeps without simulating.
///
/// [`RunStats`]: cdp_sim::RunStats
pub fn set_result_cache(on: bool) {
    let cache = if on {
        match RESULT_STORE.lock().expect("result store lock").as_ref() {
            Some(store) => Some(Arc::new(ResultCache::with_store(Arc::clone(store)))),
            None => Some(Arc::new(ResultCache::new())),
        }
    } else {
        None
    };
    *RESULT_CACHE.lock().expect("result cache lock") = cache;
}

/// Opens (creating if needed) the persistent result store at `dir` and
/// installs it process-wide. Must run before [`set_result_cache`] for
/// the cache to pick it up. Opening sweeps stale temp files and bumps
/// the store generation.
///
/// # Errors
///
/// Propagates the store's typed open failure (unwritable directory,
/// maintenance lock held by another process).
pub fn set_result_store(dir: &std::path::Path) -> Result<(), cdp_types::StoreError> {
    let store = cdp_store::ResultStore::open(dir)?;
    *RESULT_STORE.lock().expect("result store lock") = Some(Arc::new(store));
    Ok(())
}

/// The persistent result store, if one was installed.
pub fn result_store() -> Option<Arc<cdp_store::ResultStore>> {
    RESULT_STORE.lock().expect("result store lock").clone()
}

/// `(hits, misses, quarantined)` served by the persistent store so far
/// (zeros when no store is installed).
pub fn result_store_stats() -> (u64, u64, u64) {
    match result_store() {
        Some(s) => {
            let st = s.stats();
            (st.hits, st.misses, st.quarantined)
        }
        None => (0, 0, 0),
    }
}

/// The shared result cache, if enabled.
pub fn result_cache() -> Option<Arc<ResultCache>> {
    RESULT_CACHE.lock().expect("result cache lock").clone()
}

/// Enables per-cell checkpointing: sweep cells snapshot their simulation
/// state into `settings.dir` every `settings.every` cycles, and — when
/// `settings.resume` is set — pick up from an existing checkpoint
/// instead of starting over. Rendered output is byte-identical with
/// checkpointing on, off, or resumed (DESIGN.md §12).
pub fn set_checkpointing(settings: Option<CheckpointSettings>) {
    *CHECKPOINT.lock().expect("checkpoint lock") = settings;
}

/// The active checkpoint settings, if any.
pub fn checkpointing() -> Option<CheckpointSettings> {
    CHECKPOINT.lock().expect("checkpoint lock").clone()
}

/// `(hits, misses)` served by the result cache so far (zeros when the
/// cache is disabled).
pub fn result_cache_stats() -> (u64, u64) {
    match result_cache() {
        Some(c) => (c.hits(), c.misses()),
        None => (0, 0),
    }
}

/// Adds `n` dropped checkpoint writes to the run-wide total (summed from
/// per-cell status slots after each grid).
pub fn add_checkpoint_dropped_writes(n: u64) {
    CHECKPOINT_DROPPED_WRITES.fetch_add(n, Ordering::Relaxed);
}

/// Checkpoint writes dropped so far across the whole run.
pub fn checkpoint_dropped_writes() -> u64 {
    CHECKPOINT_DROPPED_WRITES.load(Ordering::Relaxed)
}

/// Ends collection and returns everything accumulated, with sink entries
/// drained in `(batch, index)` order. `None` if collection was off.
pub fn take_obs() -> Option<ObsTaken> {
    let state = OBS.lock().expect("obs lock").take()?;
    let (result_cache_hits, result_cache_misses) = result_cache_stats();
    let (result_store_hits, result_store_misses, result_store_quarantined) = result_store_stats();
    Some(ObsTaken {
        cells: state.cells,
        experiments: state.experiments,
        entries: state.sink.drain_sorted(),
        batch_experiments: state.batch_experiments,
        result_cache_hits,
        result_cache_misses,
        result_store_hits,
        result_store_misses,
        result_store_quarantined,
        checkpoint_dropped_writes: checkpoint_dropped_writes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_strict_and_empty() {
        // Note: other tests in this binary must not mutate the globals,
        // so the defaults observed here are the process-wide truth.
        assert!(fault_plan().is_empty());
        assert_eq!(policy(), RunPolicy::default());
    }

    #[test]
    fn obs_lifecycle_collects_and_drains() {
        // Collection disabled: every hook is a cheap no-op.
        assert!(obs_job_attachment(0, 0).is_none());
        obs_record_cell(CellRecord {
            experiment: "none".into(),
            label: "dropped".into(),
            status: "ok",
            wall_ms: 1,
            config_fingerprint: String::new(),
            checkpoint: "off",
            retired: 0,
            pf_issued: 0,
            pf_useful: 0,
            pf_wasted: 0,
        });
        // Enabled with an all-off ObsConfig: records accumulate but jobs
        // get no sink attachment (plain try_run path).
        enable_obs(ObsConfig::default());
        assert!(obs_enabled());
        assert!(obs_job_attachment(obs_new_batch(), 0).is_none());
        obs_record_cell(CellRecord {
            experiment: "ctx-obs-test".into(),
            label: "ctx-obs-cell".into(),
            status: "ok",
            wall_ms: 5,
            config_fingerprint: "deadbeefdeadbeef".into(),
            checkpoint: "off",
            retired: 9_000,
            pf_issued: 0,
            pf_useful: 0,
            pf_wasted: 0,
        });
        obs_record_experiment("ctx-obs-test", 9);
        let taken = take_obs().expect("collection was on");
        assert!(taken.cells.iter().any(|c| c.label == "ctx-obs-cell"));
        assert!(taken.cells.iter().all(|c| c.label != "dropped"));
        assert!(taken.experiments.iter().any(|e| e.id == "ctx-obs-test"));
        assert!(take_obs().is_none(), "take ends collection");
    }

    #[test]
    fn failure_records_carry_the_experiment_id() {
        set_current_experiment("ctx-test");
        record_failure("cell-a", "broke");
        let got = take_failures();
        let rec = got.iter().find(|r| r.cell == "cell-a").expect("recorded");
        assert_eq!(rec.experiment, "ctx-test");
        assert_eq!(rec.error, "broke");
        assert!(take_failures().iter().all(|r| r.cell != "cell-a"));
    }
}
