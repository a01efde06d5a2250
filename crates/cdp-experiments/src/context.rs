//! The run context: one value holding everything a run of the
//! experiments reads and records.
//!
//! The binary (or a test) builds a [`Context`], and every simulating
//! experiment takes it: the worker pool, the cell watchdog policy, the
//! fault-injection plan, keep-going mode, the result cache (over an
//! optional persistent store), checkpointing, observability collection
//! and the `--stream` engine choice, plus the failure report and the
//! manifest records the run accumulates. Nothing here is process-global,
//! so two contexts run side by side without seeing each other's settings
//! or failures. A [`Context::new`] context is strict, fault-free, uncached
//! and unobserved; its rendered output is the reference bytes.
//!
//! [`Context::run_cells`] is the one cell runner: every experiment's
//! simulations go through it, so every cell gets the watchdog, the fault
//! plan, the cache, checkpoints and a manifest record the same way.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use cdp_sim::runner::with_warmup;
use cdp_sim::{
    CheckpointSpec, CheckpointStatus, Engine, EngineCounters, FaultPlan, JobOutcome, JobReport,
    Observation, Pool, ResultCache, ResultSource, RunPolicy, RunStats, SimJob,
};
use cdp_types::{ObsConfig, SystemConfig};
use cdp_workloads::suite::{Benchmark, Scale};

use crate::common::{CellFailure, WorkloadSet};
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

/// Checkpointing configuration (`--checkpoint-dir`).
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

/// A finished cell: its stats, and its observation when the job brought
/// its own [`ObsConfig`].
pub type Cell = (RunStats, Option<Observation>);

/// Everything one run of the experiments reads and records.
#[derive(Debug, Default)]
pub struct Context {
    /// The worker pool every cell runs on.
    pub pool: Pool,
    /// The per-cell watchdog ([`RunPolicy::default`]: none).
    pub policy: RunPolicy,
    /// The fault-injection plan applied to images and jobs.
    pub faults: FaultPlan,
    /// Keep-going mode: a failing cell renders as an annotated gap and
    /// joins the failure report instead of aborting the run.
    pub keep_going: bool,
    /// Builds every benchmark image with the streaming engine
    /// (`--stream`); results are bit-identical to materialized images.
    pub stream: bool,
    /// The fingerprint-keyed result cache, when on. Cached cells replay
    /// their finished stats (and observation) instead of re-simulating;
    /// stdout is byte-identical either way (DESIGN.md §8). With a
    /// persistent store behind it, results outlive the process.
    pub result_cache: Option<Arc<ResultCache>>,
    /// Per-cell checkpointing, when on (DESIGN.md §12).
    pub checkpoint: Option<CheckpointSettings>,
    /// Observability collection (`--emit-manifest`): while set, cells
    /// and experiments are recorded for the artifacts, and cells are
    /// observed under it when it enables any capture.
    pub obs: Option<ObsConfig>,
    /// The id of the experiment whose cells are running (labels failure
    /// and manifest records).
    pub experiment: String,
    failures: Mutex<Vec<FailureRecord>>,
    records: Mutex<ObsTaken>,
}

impl Context {
    /// A strict, fault-free, uncached and unobserved context over `pool`.
    pub fn new(pool: Pool) -> Context {
        Context {
            pool,
            ..Context::default()
        }
    }

    /// A fresh workload set for one experiment: its images see this
    /// context's fault plan and engine choice, and live as long as the
    /// set.
    pub fn workloads(&self) -> WorkloadSet {
        WorkloadSet::new(self.faults.clone(), self.stream)
    }

    /// Runs `jobs` on the pool and returns each cell in submission order,
    /// plus the cells that failed.
    ///
    /// Every job runs under the watchdog policy and gets the fault plan's
    /// walk fault for its image. A job without its own [`ObsConfig`] is
    /// observed under the context's capture flags, and its observation
    /// goes only to the manifest; a job that brought its own gets its
    /// observation back. With a result cache or checkpoints on, a job
    /// gets its run key (each image in `ws` hashed at most once) and the
    /// attachments that read it. While a manifest collects, each cell is
    /// recorded with its observation.
    ///
    /// In strict mode the first failing cell panics with its typed error.
    /// In keep-going mode a failing cell comes back as `None` (a gap for
    /// the caller to render) and joins the failure report and the
    /// returned failures, and every healthy cell still completes.
    ///
    /// # Panics
    ///
    /// Panics on the first failed cell unless keep-going mode is active.
    pub fn run_cells(
        &self,
        ws: &WorkloadSet,
        jobs: Vec<SimJob>,
    ) -> (Vec<Option<Cell>>, Vec<CellFailure>) {
        let collect = self.obs.is_some();
        let capture = self.obs.clone().filter(ObsConfig::is_enabled);
        let mut attached = Vec::with_capacity(jobs.len());
        let jobs: Vec<SimJob> = jobs
            .into_iter()
            .map(|mut job| {
                job.walk_fault = self.faults.walk_fault(&job.workload.name);
                let own_obs = job.obs.is_some();
                if !own_obs {
                    job.obs = capture.clone();
                }
                let mut status = None;
                // The key hashes the whole image: compute it only for a reader.
                if self.result_cache.is_some() || self.checkpoint.is_some() {
                    let key = job.key(ws.fingerprint(&job.workload));
                    if let Some(cache) = &self.result_cache {
                        job = job.with_result_cache(Arc::clone(cache), key);
                    }
                    if let Some(ck) = &self.checkpoint {
                        let shared = CheckpointStatus::shared();
                        status = Some(Arc::clone(&shared));
                        job = job.with_checkpoint(CheckpointSpec {
                            dir: ck.dir.clone(),
                            every: ck.every,
                            key,
                            resume: ck.resume,
                            status: Some(shared),
                            io: None,
                        });
                    }
                }
                let fingerprint =
                    collect.then(|| cdp_obs::fingerprint_hex(format!("{:?}", job.cfg).as_bytes()));
                attached.push((fingerprint, own_obs, status));
                job
            })
            .collect();
        let mut cells = Vec::new();
        let mut failures = Vec::new();
        let reports = self.pool.run_sims_profiled(jobs, self.policy);
        for (report, (fingerprint, own_obs, status)) in reports.into_iter().zip(attached) {
            let JobReport {
                label,
                outcome,
                wall,
                observation,
            } = report;
            let returned = if own_obs { observation.clone() } else { None };
            if collect {
                let stats = match &outcome {
                    JobOutcome::Ok(stats) => Some(stats),
                    _ => None,
                };
                let counters = || stats.into_iter().flat_map(engines);
                self.records().cells.push(CellRecord {
                    experiment: self.experiment.clone(),
                    label: label.clone(),
                    status: outcome.status(),
                    wall_ms: wall.as_millis() as u64,
                    config_fingerprint: fingerprint.unwrap_or_default(),
                    checkpoint: status.as_ref().map_or("off", |s| match s.get() {
                        ResultSource::CheckpointResumed => "resumed",
                        ResultSource::CorruptFallback => "corrupt-fallback",
                        _ => "fresh",
                    }),
                    retired: stats.map_or(0, |s| s.retired),
                    pf_issued: counters().map(|e| e.issued).sum(),
                    pf_useful: counters().map(EngineCounters::useful).sum(),
                    pf_wasted: counters().map(|e| e.wasted_evictions).sum(),
                    observation,
                });
            }
            // Best-effort writes, but the manifest must not hide a drop.
            self.records().checkpoint_dropped_writes += status.map_or(0, |s| s.dropped_writes());
            let cell = self.cell_or_gap(label, outcome, &mut failures);
            cells.push(cell.map(|stats| (stats, returned)));
        }
        (cells, failures)
    }

    /// Runs a labelled `(config, benchmark)` grid through
    /// [`Context::run_cells`]: each cell gets the §2.2 warm-up for
    /// `scale` and its benchmark's image from `ws`, and comes back as
    /// its stats.
    ///
    /// # Panics
    ///
    /// As [`Context::run_cells`].
    pub fn run_grid(
        &self,
        ws: &WorkloadSet,
        scale: Scale,
        grid: Vec<(String, SystemConfig, Benchmark)>,
    ) -> (Vec<Option<RunStats>>, Vec<CellFailure>) {
        let jobs = grid
            .into_iter()
            .map(|(label, cfg, bench)| {
                SimJob::new(label, with_warmup(cfg, scale), ws.get(bench, scale))
            })
            .collect();
        let (cells, failures) = self.run_cells(ws, jobs);
        let stats = cells.into_iter().map(|c| c.map(|(stats, _)| stats));
        (stats.collect(), failures)
    }

    /// Unwraps one finished cell. In strict mode a failure panics with
    /// its error; in keep-going mode it joins the failure report and
    /// `failures`, and the cell comes back as `None`.
    fn cell_or_gap(
        &self,
        label: String,
        outcome: JobOutcome<RunStats>,
        failures: &mut Vec<CellFailure>,
    ) -> Option<RunStats> {
        let error = match outcome {
            JobOutcome::Ok(stats) => return Some(stats),
            other => other
                .failure()
                .expect("non-Ok outcomes always describe their failure"),
        };
        if !self.keep_going {
            panic!("cell {label}: {error}");
        }
        self.record_failure(&label, &error);
        failures.push(CellFailure { label, error });
        None
    }

    /// Records one failed cell under the running experiment's id.
    pub fn record_failure(&self, cell: &str, error: &str) {
        self.failures
            .lock()
            .expect("failure report lock")
            .push(FailureRecord {
                experiment: self.experiment.clone(),
                cell: cell.to_string(),
                error: error.to_string(),
            });
    }

    /// Takes the accumulated failure report (clearing it).
    pub fn take_failures(&self) -> Vec<FailureRecord> {
        std::mem::take(&mut *self.failures.lock().expect("failure report lock"))
    }

    /// Records one finished experiment id's wall time for the manifest.
    /// No-op when collection is off.
    pub fn record_experiment(&self, id: &str, wall_ms: u64) {
        if self.obs.is_some() {
            self.records().experiments.push(ExperimentRecord {
                id: id.to_string(),
                wall_ms,
            });
        }
    }

    /// `(hits, misses)` served by the result cache so far (zeros when it
    /// is off).
    pub fn result_cache_stats(&self) -> (u64, u64) {
        self.result_cache
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()))
    }

    /// `(hits, misses, quarantined)` served by the persistent result
    /// store so far (zeros without one).
    pub fn result_store_stats(&self) -> (u64, u64, u64) {
        let store = self.result_cache.as_ref().and_then(|c| c.store());
        store.map_or((0, 0, 0), |s| {
            let st = s.stats();
            (st.hits, st.misses, st.quarantined)
        })
    }

    /// Takes everything collected for the artifacts, cells in the order
    /// they were recorded, with the cache and store counters. `None`
    /// when collection is off.
    pub fn take_obs(&self) -> Option<ObsTaken> {
        self.obs.as_ref()?;
        let mut taken = std::mem::take(&mut *self.records());
        (taken.result_cache_hits, taken.result_cache_misses) = self.result_cache_stats();
        (
            taken.result_store_hits,
            taken.result_store_misses,
            taken.result_store_quarantined,
        ) = self.result_store_stats();
        Some(taken)
    }

    fn records(&self) -> std::sync::MutexGuard<'_, ObsTaken> {
        self.records.lock().expect("manifest records lock")
    }
}

/// Every prefetch engine's counters in one run, for the manifest's
/// cross-engine coverage/accuracy/wasted accounting.
fn engines(stats: &RunStats) -> impl Iterator<Item = &EngineCounters> {
    Engine::ALL.into_iter().filter_map(|e| stats.mem.engine(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    use cdp_sim::{FaultSpec, RunLength};

    use crate::onecell;

    #[test]
    fn contexts_share_nothing() {
        // Two contexts run at once on two threads: a strict clean one,
        // and a keep-going one whose fault gaps its only cell. Neither
        // sees the other's settings or failures.
        let serial = onecell::run(RunLength::Smoke, &Context::new(Pool::new(1))).render();
        let clean = Context::new(Pool::new(1));
        let faulted = Context {
            keep_going: true,
            faults: FaultPlan {
                specs: vec![FaultSpec::parse("unmap:tpcc-1:7:2").expect("valid spec")],
            },
            ..Context::new(Pool::new(1))
        };
        let start = Barrier::new(2);
        let run = |ctx: &Context| {
            start.wait();
            onecell::run(RunLength::Smoke, ctx).render()
        };
        let (clean_out, faulted_out) = std::thread::scope(|s| {
            let clean = s.spawn(|| run(&clean));
            let faulted = s.spawn(|| run(&faulted));
            (
                clean.join().expect("clean thread"),
                faulted.join().expect("faulted thread"),
            )
        });
        assert_eq!(
            clean_out, serial,
            "the clean context renders the clean bytes"
        );
        assert!(clean.take_failures().is_empty());
        assert!(
            faulted_out
                .lines()
                .any(|l| l.split_whitespace().eq(["--", "--", "--", "--"])),
            "the faulted context renders a gap row:\n{faulted_out}"
        );
        let failures = faulted.take_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].cell, "onecell/tpcc-1");
    }

    #[test]
    fn obs_lifecycle_collects_and_drains() {
        let record = |label: &str| CellRecord {
            experiment: "ctx-obs-test".into(),
            label: label.into(),
            status: "ok",
            wall_ms: 5,
            config_fingerprint: "deadbeefdeadbeef".into(),
            checkpoint: "off",
            retired: 9_000,
            pf_issued: 0,
            pf_useful: 0,
            pf_wasted: 0,
            observation: None,
        };
        // Collection off: nothing is recorded or taken.
        let off = Context::new(Pool::new(1));
        off.record_experiment("ctx-obs-test", 9);
        assert!(off.take_obs().is_none());
        // On with an all-off ObsConfig: records accumulate, and a take
        // drains them.
        let on = Context {
            obs: Some(ObsConfig::default()),
            ..Context::new(Pool::new(1))
        };
        on.records().cells.push(record("ctx-obs-cell"));
        on.record_experiment("ctx-obs-test", 9);
        let taken = on.take_obs().expect("collection is on");
        assert_eq!(taken.cells.len(), 1);
        assert_eq!(taken.cells[0].label, "ctx-obs-cell");
        assert_eq!(taken.experiments[0].id, "ctx-obs-test");
        let again = on.take_obs().expect("collection is still on");
        assert!(again.cells.is_empty() && again.experiments.is_empty());
    }

    #[test]
    fn failure_records_carry_the_experiment_id() {
        let ctx = Context {
            experiment: "ctx-test".into(),
            ..Context::new(Pool::new(1))
        };
        ctx.record_failure("cell-a", "broke");
        let got = ctx.take_failures();
        assert_eq!(
            got,
            [FailureRecord {
                experiment: "ctx-test".into(),
                cell: "cell-a".into(),
                error: "broke".into(),
            }]
        );
        assert!(ctx.take_failures().is_empty());
    }
}
