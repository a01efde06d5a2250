//! Parallel experiment execution engine.
//!
//! Experiments are embarrassingly parallel: every sweep point is an
//! independent `Simulator::run` over an immutable [`Workload`]. This
//! module provides the std-only plumbing to exploit that:
//!
//! * [`Pool`] — a scoped-thread work pool (no external crates) that runs
//!   a batch across cores and returns results **in submission order**,
//!   so rendered tables are byte-identical at any job count. Its two
//!   entry points share one batch driver: [`Pool::run`] for plain
//!   closures and [`Pool::run_sims_profiled`] for simulations;
//! * [`SimJob`] — the labelled `(SystemConfig, Arc<Workload>)` batch unit
//!   every sweep submits. One windowed loop drives it, with optional
//!   result-cache, checkpoint and observability attachments. A job's
//!   [`JobReport`] carries its stats and, for an observed job, its
//!   [`Observation`], so a batch's results come back on one channel in
//!   submission order;
//! * [`WorkloadCache`] — a shared `(Benchmark, Scale)`-keyed cache of
//!   immutable `Arc<Workload>`s, so concurrent jobs reuse one build.
//!
//! Every job runs once. A simulation is deterministic, so an error or a
//! panic would come back on a second attempt, and no filesystem fault
//! reaches its result: checkpoint and store failures degrade to counted
//! drops and recomputation. The only policy is an optional wall-clock
//! watchdog ([`RunPolicy::timeout`]); a job it abandons publishes
//! nothing.
//!
//! The simulator core itself stays single-threaded (see DESIGN.md §5);
//! parallelism lives entirely above it, one simulation per task.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cdp_types::{CdpError, ObsConfig, SystemConfig};
use cdp_workloads::suite::{Benchmark, Scale};
use cdp_workloads::Workload;

use crate::fault::WalkFault;
use crate::hierarchy::PollutionConfig;
use crate::observe::Observation;
use crate::runner::build_workload;
use crate::status::{status_sink, CellHeartbeat, ResultSource, SourceSlot};
use crate::system::{run_fingerprint, RunStats, Simulator};

/// How a [`Pool::run_sims_profiled`] job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job completed.
    Ok(T),
    /// The job returned an error or panicked.
    Failed {
        /// The error (or panic message).
        error: String,
    },
    /// The job exceeded the wall-clock watchdog and was abandoned.
    TimedOut {
        /// The watchdog budget it exceeded.
        timeout: Duration,
    },
}

impl<T> JobOutcome<T> {
    /// The success value, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the job succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// The manifest and status-stream spelling: `ok`, `failed` or
    /// `timeout`.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::TimedOut { .. } => "timeout",
        }
    }

    /// A one-line human-readable failure description (`None` on success).
    pub fn failure(&self) -> Option<String> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed { error } => Some(format!("failed: {error}")),
            JobOutcome::TimedOut { timeout } => Some(format!("timed out ({timeout:?} watchdog)")),
        }
    }
}

/// One labelled, timed [`JobOutcome`] from [`Pool::run_sims_profiled`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's label, unchanged.
    pub label: String,
    /// How the job ended.
    pub outcome: JobOutcome<RunStats>,
    /// Wall-clock time the job consumed — the per-cell cost a manifest
    /// reports.
    pub wall: Duration,
    /// The run's [`Observation`], simulated or replayed from the result
    /// cache, when the job has an [`ObsConfig`] and succeeded; `None`
    /// otherwise.
    pub observation: Option<Observation>,
}

/// Watchdog policy for [`Pool::run_sims_profiled`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunPolicy {
    /// Per-job wall-clock watchdog; `None` (the default) disables it and
    /// jobs run on the pool's own workers with no extra thread. A job
    /// that exceeds it is reported [`JobOutcome::TimedOut`] and never
    /// rerun.
    pub timeout: Option<Duration>,
}

/// Renders a panic payload as a message string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// Runs `task` once and reports how it ended, catching a panic.
///
/// With a `timeout` the task runs on a detached thread so a hung job can
/// be abandoned (a scoped worker could never time out: the scope would
/// wait for it). When the watchdog fires, `slot` is marked abandoned: a
/// [`SimJob`] then stops at its next window boundary and publishes
/// nothing. The abandoned thread owns only its task.
fn watch<T, F>(task: F, timeout: Option<Duration>, slot: &SourceSlot) -> JobOutcome<T>
where
    T: Send + 'static,
    F: FnOnce() -> Result<T, String> + Send + 'static,
{
    let caught = move || match catch_unwind(AssertUnwindSafe(task)) {
        Ok(Ok(v)) => JobOutcome::Ok(v),
        Ok(Err(error)) => JobOutcome::Failed { error },
        Err(p) => JobOutcome::Failed {
            error: panic_message(p),
        },
    };
    let Some(timeout) = timeout else {
        return caught();
    };
    let (tx, rx) = mpsc::channel();
    thread::Builder::new()
        .name("cdp-pool-attempt".into())
        .spawn(move || {
            let _ = tx.send(caught());
        })
        .expect("spawn watchdog attempt thread");
    rx.recv_timeout(timeout).unwrap_or_else(|_| {
        slot.abandon();
        JobOutcome::TimedOut { timeout }
    })
}

/// The number of worker threads to use when the caller does not say:
/// every available core.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed-width scoped-thread work pool.
///
/// `Pool` owns no threads between calls: each batch spins up at most
/// `jobs` scoped workers, drains a shared queue of tasks, and joins.
/// Results always come back in submission order regardless of which
/// worker ran which task, which keeps experiment output deterministic.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    jobs: usize,
}

impl Default for Pool {
    /// A pool sized to [`default_jobs`].
    fn default() -> Pool {
        Pool::new(default_jobs())
    }
}

impl Pool {
    /// A pool running at most `jobs` tasks concurrently (clamped to at
    /// least one). `Pool::new(1)` degrades to strictly serial execution.
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// The concurrency limit.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every task and returns the results in submission order.
    ///
    /// A panicking task poisons nothing: the panic propagates from here
    /// (first panicking task wins) after all workers have drained.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.drive(tasks, |_, task| catch_unwind(AssertUnwindSafe(task)))
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }

    /// Runs a batch of simulations under `policy` and reports a labelled,
    /// timed [`JobOutcome`] per job, in submission order, each with its
    /// observation.
    ///
    /// One failing, panicking, or hanging job never aborts the batch;
    /// every other job still runs to its own outcome. When a process-global
    /// [`StatusSink`](crate::status::StatusSink) is installed, the batch
    /// also streams JSONL events (`batch`, `queued`, `running`, in-cell
    /// `heartbeat`s, `done`) with per-job result provenance.
    pub fn run_sims_profiled(&self, jobs: Vec<SimJob>, policy: RunPolicy) -> Vec<JobReport> {
        let sink = status_sink();
        if let Some(sink) = &sink {
            sink.batch(jobs.len());
            for (i, job) in jobs.iter().enumerate() {
                sink.queued(&job.label, i);
            }
        }
        self.drive(jobs, |i, mut job| {
            job.status_index = i;
            let label = job.label.clone();
            if let Some(sink) = &sink {
                sink.running(&label, i);
            }
            let slot = SourceSlot::shared();
            let job_slot = Arc::clone(&slot);
            let start = Instant::now();
            let outcome = watch(
                move || {
                    job.run(&job_slot)
                        .map_err(|e| e.to_string())?
                        .ok_or_else(|| "abandoned by the watchdog".to_string())
                },
                policy.timeout,
                &slot,
            );
            let wall = start.elapsed();
            if let Some(sink) = &sink {
                let wall_ms = wall.as_millis() as u64;
                sink.done(&label, i, outcome.status(), wall_ms, slot.get());
            }
            let (outcome, observation) = match outcome {
                JobOutcome::Ok((stats, observation)) => (JobOutcome::Ok(stats), observation),
                JobOutcome::Failed { error } => (JobOutcome::Failed { error }, None),
                JobOutcome::TimedOut { timeout } => (JobOutcome::TimedOut { timeout }, None),
            };
            JobReport {
                label,
                outcome,
                wall,
                observation,
            }
        })
    }

    /// The one batch driver: at most `jobs` scoped workers claim tasks
    /// from a shared queue in submission order and park each
    /// `body(index, task)` result in the task's slot. `body` must not
    /// panic; both entry points catch task panics inside it.
    fn drive<I, T>(&self, tasks: Vec<I>, body: impl Fn(usize, I) -> T + Sync) -> Vec<T>
    where
        I: Send,
        T: Send,
    {
        let n = tasks.len();
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        thread::scope(|s| {
            for _ in 0..self.jobs.min(n) {
                s.spawn(|| loop {
                    let next = queue.lock().expect("queue never poisoned").next();
                    let Some((i, task)) = next else { break };
                    let out = body(i, task);
                    *slots[i].lock().expect("slot never poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot never poisoned")
                    .expect("every task was claimed and stored")
            })
            .collect()
    }
}

/// A process-wide, fingerprint-keyed cache of finished simulation
/// results.
///
/// Sweeps across experiments repeat identical cells — the same
/// `(config, workload, scale, seed)` shows up in several grids (e.g. the
/// baseline column of every figure). The simulator is deterministic, so a
/// finished cell's [`RunStats`] (and, when observability is on, its
/// [`Observation`]) can be replayed instead of re-simulated with no
/// visible difference: stdout stays byte-identical at any job count,
/// cache on or off. A cell's stats live under its run fingerprint
/// ([`SimJob::key`]), which hashes everything that shapes them: the
/// config, the attachments and every byte of the workload image. An
/// observed job's observation lives in an entry of its own, keyed by the
/// run fingerprint and the job's [`ObsConfig`].
///
/// Storage is sharded into [`CACHE_STRIPES`] independently-locked
/// stripes selected by the key's low bits (keys are hashes, so they
/// spread uniformly). Concurrent jobs touching different cells then take
/// different locks; a single global `Mutex` serialized every lookup at
/// high `--jobs` counts. Hit/miss counters stay whole-cache atomics —
/// sharding changes lock granularity, never observable counts.
///
/// With [`ResultCache::with_store`], the in-memory cache becomes a
/// write-through L1 over a persistent [`cdp_store::ResultStore`]: every
/// insert also lands on disk, and an L1 miss consults the store before
/// reporting a miss. Store failures never affect correctness — an
/// unreadable or damaged entry is quarantined by the store and the cell
/// recomputes; a failed persist leaves the in-memory entry serving the
/// rest of the run.
#[derive(Debug)]
pub struct ResultCache {
    stripes: [ResultStripe; CACHE_STRIPES],
    hits: AtomicU64,
    misses: AtomicU64,
    store: Option<Arc<cdp_store::ResultStore>>,
}

/// One independently-locked stripe of a [`ResultCache`]: fingerprint →
/// replayable outcome.
type ResultStripe = Mutex<HashMap<u64, (RunStats, Option<Observation>)>>;

/// Lock stripes per shared cache ([`ResultCache`], [`WorkloadCache`]).
/// A power of two so stripe selection is a mask; 16 comfortably exceeds
/// any plausible worker count on this workload.
pub const CACHE_STRIPES: usize = 16;

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store: None,
        }
    }
}

impl ResultCache {
    /// Creates an empty cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Creates an empty in-memory cache backed by a persistent store:
    /// inserts write through, and misses consult the store before
    /// recomputing.
    pub fn with_store(store: Arc<cdp_store::ResultStore>) -> ResultCache {
        ResultCache {
            store: Some(store),
            ..ResultCache::default()
        }
    }

    /// The backing store, if one is attached.
    pub fn store(&self) -> Option<&Arc<cdp_store::ResultStore>> {
        self.store.as_ref()
    }

    fn stripe(&self, key: u64) -> &ResultStripe {
        &self.stripes[key as usize & (CACHE_STRIPES - 1)]
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (cells actually simulated) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Finished cells currently held.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("result cache poisoned").len())
            .sum()
    }

    /// Whether no cells are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw lookup by fingerprint key. Public for the concurrency tests
    /// and the contention microbench; [`SimJob::try_execute`] is the
    /// consumer that also maintains the hit/miss counters.
    ///
    /// An in-memory miss falls through to the backing store (when
    /// attached); a disk hit is promoted into the in-memory tier so the
    /// decode cost is paid once per cell per process.
    pub fn get(&self, key: u64) -> Option<(RunStats, Option<Observation>)> {
        self.get_with_source(key).map(|(found, _)| found)
    }

    /// As [`ResultCache::get`], additionally reporting which tier served
    /// the hit ([`ResultSource::ResultCache`] for the in-memory stripes,
    /// [`ResultSource::ResultStore`] for a disk hit) for the status
    /// stream's provenance field.
    fn get_with_source(&self, key: u64) -> Option<((RunStats, Option<Observation>), ResultSource)> {
        if let Some(found) = self
            .stripe(key)
            .lock()
            .expect("result cache poisoned")
            .get(&key)
            .cloned()
        {
            return Some((found, ResultSource::ResultCache));
        }
        let store = self.store.as_ref()?;
        let payload = store.get(key)?;
        match crate::persist::decode_result(&payload) {
            Ok((stats, observation)) => {
                self.stripe(key)
                    .lock()
                    .expect("result cache poisoned")
                    .insert(key, (stats, observation.clone()));
                Some(((stats, observation), ResultSource::ResultStore))
            }
            Err(e) => {
                // The envelope checksummed clean but the payload refused
                // to decode (e.g. a future payload version). Treat as a
                // miss; the store has already served its framing checks.
                eprintln!("warning: result store payload for cell {key:016x} rejected: {e}");
                None
            }
        }
    }

    /// Raw insert by fingerprint key. Duplicate inserts under a race
    /// carry identical values (deterministic simulation), so either copy
    /// may win. With a backing store attached the entry is also
    /// persisted (write-through); persistence failures are counted by
    /// the store and never surface here.
    pub fn put(&self, key: u64, stats: RunStats, observation: Option<Observation>) {
        if let Some(store) = &self.store {
            store.put(
                key,
                &crate::persist::encode_result(&stats, observation.as_ref()),
            );
        }
        self.stripe(key)
            .lock()
            .expect("result cache poisoned")
            .insert(key, (stats, observation));
    }
}

/// Where a checkpointed [`SimJob`] reports how it started, readable by
/// the submitter after the batch: [`ResultSource::Fresh`],
/// [`ResultSource::CheckpointResumed`] or [`ResultSource::CorruptFallback`]
/// (a job replayed from the result cache never starts and reads `Fresh`).
/// Also accumulates the cell's *dropped checkpoint writes* — writes are
/// best-effort, but a silent drop would hide a dying disk, so every drop
/// is counted (and warned about on stderr).
#[derive(Debug, Default)]
pub struct CheckpointStatus {
    source: SourceSlot,
    dropped_writes: AtomicU64,
}

impl CheckpointStatus {
    /// A fresh slot behind an [`Arc`], ready to attach to a job.
    pub fn shared() -> Arc<CheckpointStatus> {
        Arc::new(CheckpointStatus::default())
    }

    /// How the cell started (defaults to [`ResultSource::Fresh`]).
    pub fn get(&self) -> ResultSource {
        self.source.get()
    }

    /// Checkpoint writes that failed and were dropped.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes.load(Ordering::Relaxed)
    }
}

/// Periodic-checkpoint attachment for a [`SimJob`].
///
/// The job snapshots its [`SimSession`](crate::system::SimSession) into
/// [`SimJob::checkpoint_path`] every `every` simulated cycles (checked at
/// window boundaries). Writes go through [`cdp_store::publish`] (unique
/// temp file + rename), so a kill at any moment leaves either the
/// previous or the new checkpoint intact — never a torn file. On
/// completion the checkpoint is removed: the cell's result is
/// deterministic, so a later resume of the sweep simply re-runs it to
/// the identical result. A job abandoned by the watchdog keeps its last
/// checkpoint for `--resume`.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Directory the checkpoint file lives in (must exist).
    pub dir: PathBuf,
    /// Simulated cycles between checkpoints (0 disables periodic writes;
    /// resume still works off whatever file is present).
    pub every: u64,
    /// Cell identity: the run fingerprint [`SimJob::key`], the key the
    /// cell's result is cached under. Names the file (for an observed
    /// job, hashed with its [`ObsConfig`] first), so it must be unique
    /// per cell within `dir`.
    pub key: u64,
    /// Whether to look for (and resume from) an existing checkpoint.
    pub resume: bool,
    /// Where to report how the cell actually started.
    pub status: Option<Arc<CheckpointStatus>>,
    /// Filesystem the checkpoint I/O goes through; `None` uses the real
    /// filesystem. Tests substitute a fault-injecting
    /// [`cdp_store::FaultyIo`] to prove the crash-safety story.
    pub io: Option<Arc<dyn cdp_store::StoreIo>>,
}

impl CheckpointSpec {
    /// The filesystem this spec's I/O goes through.
    fn io(&self) -> Arc<dyn cdp_store::StoreIo> {
        self.io
            .clone()
            .unwrap_or_else(|| Arc::new(cdp_store::RealIo))
    }
}

/// A finished job: its stats and, for an observed job, its observation.
type Finished = (RunStats, Option<Observation>);

/// One independent simulation: a configuration over a shared workload.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// Caller-chosen identifier carried through to the [`JobReport`]
    /// (sweep-point labels, benchmark names, ...).
    pub label: String,
    /// Full system configuration (including warm-up budget).
    pub cfg: SystemConfig,
    /// The shared immutable workload image.
    pub workload: Arc<Workload>,
    /// Optional §3.5 junk-fill injection (the pollution limit study).
    pub pollution: Option<PollutionConfig>,
    /// Optional injected page-walk failures (fault studies).
    pub walk_fault: Option<WalkFault>,
    /// What to observe (trace ring, metrics windows, histograms); the
    /// run's [`Observation`] comes back in its [`JobReport`]. `None`
    /// keeps the run byte-identical to a build without tracing.
    pub obs: Option<ObsConfig>,
    /// Optional result cache plus this job's precomputed key.
    pub result_cache: Option<(Arc<ResultCache>, u64)>,
    /// Optional periodic checkpointing / resume (see [`CheckpointSpec`]).
    pub checkpoint: Option<CheckpointSpec>,
    /// Batch submission index carried on in-cell `heartbeat` events (set
    /// by [`Pool::run_sims_profiled`]; 0 for standalone execution).
    pub status_index: usize,
}

impl SimJob {
    /// A plain job with no pollution or fault injection.
    pub fn new(label: impl Into<String>, cfg: SystemConfig, workload: Arc<Workload>) -> SimJob {
        SimJob {
            label: label.into(),
            cfg,
            workload,
            pollution: None,
            walk_fault: None,
            obs: None,
            result_cache: None,
            checkpoint: None,
            status_index: 0,
        }
    }

    /// Observes the run under `cfg`: its [`Observation`] comes back in
    /// [`JobReport::observation`].
    pub fn with_obs(mut self, cfg: ObsConfig) -> SimJob {
        self.obs = Some(cfg);
        self
    }

    /// Attaches periodic checkpointing / resume.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> SimJob {
        self.checkpoint = Some(spec);
        self
    }

    /// Attaches a shared result cache under `key`, normally
    /// [`SimJob::key`]. A caller-chosen key must fold in every
    /// behavior-affecting input of this job — config, workload contents,
    /// pollution and fault attachments — or a hit would replay the wrong
    /// cell. The stats live under `key`; an observed job keeps its
    /// observation in an entry of its own, derived from `key` and its
    /// [`ObsConfig`].
    pub fn with_result_cache(mut self, cache: Arc<ResultCache>, key: u64) -> SimJob {
        self.result_cache = Some((cache, key));
        self
    }

    /// This job's run fingerprint over an image whose
    /// [`Workload::fingerprint`] is `workload_fingerprint`: the key its
    /// result is cached and stored under and its checkpoint file is named
    /// by. The observability attachment is left out, so a plain job and
    /// an observed one of the same cell share their stats. The caller
    /// passes the image's fingerprint so that an image many cells share
    /// is hashed once.
    pub fn key(&self, workload_fingerprint: u64) -> u64 {
        run_fingerprint(
            &self.cfg,
            self.pollution,
            self.walk_fault,
            None,
            workload_fingerprint,
        )
    }

    /// The file this job checkpoints into, `dir/cell-<key>.snap`, if a
    /// [`CheckpointSpec`] is attached. An observed job's snapshots carry
    /// the run fingerprint with its [`ObsConfig`] and resume only into a
    /// session observed the same way, so its file is named by its
    /// observation key instead of the spec's key: a run with other
    /// capture flags neither overwrites it nor mistakes it for corrupt.
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        let spec = self.checkpoint.as_ref()?;
        let key = self.observation_key(spec.key).unwrap_or(spec.key);
        Some(spec.dir.join(format!("cell-{key:016x}.snap")))
    }

    /// The cache key of an observed job's observation: `key` hashed with
    /// the job's [`ObsConfig`]. `None` for a plain job.
    fn observation_key(&self, key: u64) -> Option<u64> {
        let obs = self.obs.as_ref()?;
        let mut h = cdp_snap::WordHasher::new();
        h.write_u64(key);
        h.write(format!("{obs:?}").as_bytes());
        Some(h.finish())
    }

    fn simulator(&self) -> Result<Simulator, CdpError> {
        let mut sim = Simulator::try_new(self.cfg.clone())?;
        if let Some(p) = self.pollution {
            sim = sim.with_pollution(p);
        }
        if let Some(f) = self.walk_fault {
            sim = sim.with_walk_fault(f);
        }
        Ok(sim)
    }

    /// Runs the simulation, surfacing configuration and demand-path
    /// faults as typed errors.
    ///
    /// # Errors
    ///
    /// [`CdpError::Config`] for an invalid configuration, otherwise the
    /// first fault latched by the memory hierarchy.
    pub fn try_execute(&self) -> Result<RunStats, CdpError> {
        let unwatched = SourceSlot::default();
        let (stats, _) = self
            .run(&unwatched)?
            .expect("only the pool's watchdog abandons a job");
        Ok(stats)
    }

    /// The one driving loop behind every job.
    ///
    /// Replays the result cache when it holds a result this job can use.
    /// Otherwise it steps a [`SimSession`](crate::system::SimSession)
    /// window by window — resuming from, and periodically writing, a
    /// checkpoint when a [`CheckpointSpec`] is attached — and publishes
    /// the result. Window boundaries change no simulated state, so the
    /// stats equal [`Simulator::try_run`]'s. An observed job also returns
    /// its observation. How the result was obtained goes into `source`
    /// for the status stream.
    ///
    /// Returns `Ok(None)` once `source` is marked abandoned (the pool's
    /// watchdog fired): the loop stops at that window boundary, publishes
    /// nothing and leaves its last checkpoint for `--resume`.
    fn run(&self, source: &SourceSlot) -> Result<Option<Finished>, CdpError> {
        if let Some(finished) = self.replay(source) {
            return Ok(Some(finished));
        }
        let sim = self.simulator()?;
        let obs_cfg = self.obs.as_ref();
        // Checkpoint I/O, resolved once: the spec, its filesystem, its file.
        let ckpt = self
            .checkpoint
            .as_ref()
            .zip(self.checkpoint_path())
            .map(|(s, path)| (s, s.io(), path));
        let mut started = ResultSource::Fresh;
        let mut resumed = None;
        if let Some((_, io, path)) = ckpt.as_ref().filter(|(s, ..)| s.resume) {
            // An unreadable checkpoint file is treated as absent (fresh
            // start). Bytes that read but fail to decode are never resumed
            // from: the cell restarts fresh, so the result is still
            // bit-identical to an uninterrupted run.
            if let Ok(bytes) = io.read(path) {
                match sim.resume(&self.workload, obs_cfg, &bytes) {
                    Ok(s) => {
                        started = ResultSource::CheckpointResumed;
                        resumed = Some(s);
                    }
                    Err(CdpError::Snapshot(_)) => started = ResultSource::CorruptFallback,
                    Err(e) => return Err(e),
                }
            }
        }
        source.set(started);
        if let Some(status) = ckpt.as_ref().and_then(|(s, ..)| s.status.as_ref()) {
            status.source.set(started);
        }
        let mut session = resumed.unwrap_or_else(|| sim.session(&self.workload, obs_cfg));
        let mut last_checkpoint = session.cycles();
        let mut hb = self.heartbeat();
        // One snapshot arena recycled across every checkpoint write.
        let mut snap_buf = Vec::new();
        loop {
            let done = session.step()?;
            if source.is_abandoned() {
                return Ok(None);
            }
            if done {
                break;
            }
            hb.tick(session.retired());
            let Some((spec, io, path)) = &ckpt else {
                continue;
            };
            if spec.every > 0 && session.cycles().saturating_sub(last_checkpoint) >= spec.every {
                last_checkpoint = session.cycles();
                snap_buf = session.snapshot_into(snap_buf);
                if let Err(e) = cdp_store::publish(io.as_ref(), path, &snap_buf) {
                    // Best-effort, but never silent: the previous
                    // checkpoint stays valid, the drop is counted, and
                    // the operator hears about the failing disk.
                    eprintln!(
                        "warning: checkpoint write dropped for {}: {e}",
                        path.display()
                    );
                    if let Some(status) = &spec.status {
                        status.dropped_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if let Some((_, io, path)) = &ckpt {
            // The cell finished: its checkpoint has served its purpose. A
            // later sweep resume re-runs the (deterministic) cell instead.
            let _ = io.remove_file(path);
        }
        let (stats, observation) = session.finish();
        let observation = self.obs.is_some().then_some(observation);
        self.publish(stats, observation.as_ref());
        Ok(Some((stats, observation)))
    }

    /// Serves the job from its result cache, counting the hit or miss. A
    /// plain job replays the stats under its key and reports no
    /// observation. An observed job looks only under its observation's
    /// key, so it replays an observation taken under the same
    /// [`ObsConfig`] or none; without one it re-simulates.
    fn replay(&self, source: &SourceSlot) -> Option<Finished> {
        let (cache, key) = self.result_cache.as_ref()?;
        let key = self.observation_key(*key).unwrap_or(*key);
        if let Some(((stats, observation), tier)) = cache.get_with_source(key) {
            if self.obs.is_none() || observation.is_some() {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                source.set(tier);
                return Some((stats, self.obs.as_ref().and(observation)));
            }
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Publishes a finished run into the result cache (when attached):
    /// its stats under the job's key, and an observed job's observation
    /// under its own key.
    fn publish(&self, stats: RunStats, observation: Option<&Observation>) {
        if let Some((cache, key)) = &self.result_cache {
            if let Some(observation_key) = self.observation_key(*key) {
                cache.put(observation_key, stats, observation.cloned());
            }
            cache.put(*key, stats, None);
        }
    }

    /// The cell's post-warm-up measurement budget in uops (streamed
    /// workloads report their generator target; materialized ones their
    /// trace length).
    fn measurement_uops(&self) -> u64 {
        let total = match &self.workload.stream {
            Some(spec) => spec.target_uops() as u64,
            None => self.workload.program.len() as u64,
        };
        total.saturating_sub(self.cfg.warmup_uops)
    }

    /// A throttled heartbeat reporter for this cell (no-op without an
    /// installed status sink).
    fn heartbeat(&self) -> CellHeartbeat {
        CellHeartbeat::new(&self.label, self.status_index, self.measurement_uops())
    }
}

/// A thread-safe `(Benchmark, Scale)`-keyed cache of immutable workload
/// images.
///
/// Experiments run many configurations over the same workloads; building
/// each image once — and sharing it by `Arc` across concurrent jobs —
/// matters. Workload generation is deterministic (fixed experiment
/// seed), so the rare duplicate build under a race produces an identical
/// image and either copy may win.
///
/// Sharded like [`ResultCache`]: [`CACHE_STRIPES`] stripes selected by
/// benchmark, so concurrent first-builds of *different* benchmarks never
/// contend on one lock (the builds themselves already ran unlocked; this
/// removes the remaining serialization on the map itself).
#[derive(Debug)]
pub struct WorkloadCache {
    stripes: [WorkloadStripe; CACHE_STRIPES],
}

/// One independently-locked stripe of a [`WorkloadCache`]: (benchmark,
/// scale) → shared built image.
type WorkloadStripe = Mutex<HashMap<(Benchmark, Scale), Arc<Workload>>>;

impl Default for WorkloadCache {
    fn default() -> WorkloadCache {
        WorkloadCache {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }
}

impl WorkloadCache {
    /// An empty cache.
    pub fn new() -> WorkloadCache {
        WorkloadCache::default()
    }

    fn stripe(&self, bench: Benchmark) -> &WorkloadStripe {
        self.stripes
            .get(bench as usize & (CACHE_STRIPES - 1))
            .expect("stripe mask in bounds")
    }

    /// The workload for `bench` at `scale` with the experiment seed,
    /// built on first use. The build runs outside the lock so other
    /// benchmarks stay fetchable meanwhile.
    pub fn get(&self, bench: Benchmark, scale: Scale) -> Arc<Workload> {
        self.get_with(bench, scale, || build_workload(bench, scale))
    }

    /// As [`WorkloadCache::get`] with a caller-supplied builder (custom
    /// seeds or structures). The builder must be deterministic for the
    /// key: under a race both builds run and either image is kept.
    pub fn get_with(
        &self,
        bench: Benchmark,
        scale: Scale,
        build: impl FnOnce() -> Workload,
    ) -> Arc<Workload> {
        let stripe = self.stripe(bench);
        if let Some(w) = stripe.lock().expect("cache lock").get(&(bench, scale)) {
            return Arc::clone(w);
        }
        let built = Arc::new(build());
        Arc::clone(
            stripe
                .lock()
                .expect("cache lock")
                .entry((bench, scale))
                .or_insert(built),
        )
    }

    /// How many distinct `(benchmark, scale)` images are cached.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("cache lock").len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::MetricsWindow;

    #[test]
    fn results_come_back_in_submission_order() {
        // Tasks finish intentionally out of order (later tasks are
        // cheaper), yet the result vector matches submission order.
        let pool = Pool::new(4);
        let tasks: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(16 - i));
                    i * 10
                }
            })
            .collect();
        let got = pool.run(tasks);
        assert_eq!(got, (0..16u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_matches_parallel_pool() {
        let run = |jobs| Pool::new(jobs).run((0..32).map(|i| move || i * i).collect::<Vec<_>>());
        assert_eq!(run(1), run(4));
    }

    #[test]
    #[should_panic(expected = "job 0 dies")]
    fn run_propagates_the_panic() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| panic!("job 0 dies")), Box::new(|| 2)];
        Pool::new(2).run(tasks);
    }

    #[test]
    fn zero_jobs_clamps_to_one_and_empty_batches_work() {
        let pool = Pool::new(0);
        assert_eq!(pool.jobs(), 1);
        let empty: Vec<fn() -> u8> = Vec::new();
        assert!(pool.run(empty).is_empty());
    }

    #[test]
    fn workload_cache_is_keyed_by_benchmark_and_scale() {
        let cache = WorkloadCache::new();
        let smoke = cache.get(Benchmark::B2e, Scale::smoke());
        let again = cache.get(Benchmark::B2e, Scale::smoke());
        assert!(Arc::ptr_eq(&smoke, &again), "same key shares one image");
        let other = cache.get(Benchmark::Slsb, Scale::smoke());
        assert!(!Arc::ptr_eq(&smoke, &other));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn mixed_outcomes_preserve_submission_order() {
        use std::sync::atomic::AtomicU32;
        // Track that every started task also finishes (no leaked worker
        // left running after the batch, modulo the one task we
        // deliberately hang past its watchdog).
        let entered = Arc::new(AtomicU32::new(0));
        let exited = Arc::new(AtomicU32::new(0));
        type Task = Box<dyn FnOnce() -> Result<u32, String> + Send>;
        let track = |body: Task| -> Task {
            let (en, ex) = (Arc::clone(&entered), Arc::clone(&exited));
            Box::new(move || {
                en.fetch_add(1, Ordering::SeqCst);
                let r = body();
                ex.fetch_add(1, Ordering::SeqCst);
                r
            })
        };
        let tasks: Vec<Task> = vec![
            track(Box::new(|| Ok(10))),
            track(Box::new(|| Err("typed failure".into()))),
            track(Box::new(|| panic!("panicking job"))),
            track(Box::new(|| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(99)
            })),
            track(Box::new(|| Ok(50))),
        ];
        let slots: Vec<SourceSlot> = (0..tasks.len()).map(|_| SourceSlot::default()).collect();
        let timeout = Some(Duration::from_millis(60));
        let got = Pool::new(3).drive(tasks, |i, task| watch(task, timeout, &slots[i]));
        assert_eq!(got.len(), 5, "one outcome per submitted job");
        assert_eq!(got[0], JobOutcome::Ok(10));
        match &got[1] {
            JobOutcome::Failed { error } => assert!(error.contains("typed failure"), "{error}"),
            other => panic!("index 1: {other:?}"),
        }
        match &got[2] {
            JobOutcome::Failed { error } => assert!(error.contains("panicking job"), "{error}"),
            other => panic!("index 2: {other:?}"),
        }
        assert_eq!(
            got[3],
            JobOutcome::TimedOut {
                timeout: Duration::from_millis(60)
            }
        );
        assert_eq!(got[4], JobOutcome::Ok(50));
        // Failure indices are recoverable from the outcome vector alone.
        let failed: Vec<usize> = got
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.is_ok())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![1, 2, 3]);
        // Only the timed-out job is told to stop.
        let abandoned: Vec<bool> = slots.iter().map(SourceSlot::is_abandoned).collect();
        assert_eq!(abandoned, vec![false, false, false, true, false]);
        // No leaked workers: every task that started finishes once the
        // deliberately hung task's sleep elapses. Expected exits: ok(1) +
        // error(1) + timed-out-but-completing(1) + ok(1) = 4; the
        // panicking task unwinds before its exit marker.
        let deadline = Instant::now() + Duration::from_secs(5);
        while exited.load(Ordering::SeqCst) < 4 {
            assert!(Instant::now() < deadline, "task leaked");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Every task ran exactly once: nothing is retried.
        assert_eq!(entered.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn job_outcome_accessors() {
        let ok: JobOutcome<u32> = JobOutcome::Ok(3);
        assert!(ok.is_ok() && ok.failure().is_none() && ok.status() == "ok");
        assert_eq!(ok.ok(), Some(3));
        let failed: JobOutcome<u32> = JobOutcome::Failed {
            error: "boom".into(),
        };
        assert_eq!(failed.failure().as_deref(), Some("failed: boom"));
        assert_eq!(failed.status(), "failed");
        let timed: JobOutcome<u32> = JobOutcome::TimedOut {
            timeout: Duration::from_secs(1),
        };
        assert_eq!(timed.failure().as_deref(), Some("timed out (1s watchdog)"));
        assert_eq!(timed.status(), "timeout");
        assert_eq!(timed.ok(), None);
    }

    #[test]
    fn sims_surface_bad_configs_without_aborting_the_batch() {
        let cache = WorkloadCache::new();
        let w = cache.get(Benchmark::Slsb, Scale::smoke());
        let mut bad_cfg = SystemConfig::asplos2002();
        bad_cfg.dtlb.entries = 63; // fails validation
        let jobs = vec![
            SimJob::new("good", SystemConfig::asplos2002(), Arc::clone(&w)),
            SimJob::new("bad", bad_cfg, Arc::clone(&w)),
        ];
        let got = Pool::new(2).run_sims_profiled(jobs, RunPolicy::default());
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].label, "good");
        assert!(got[0].outcome.is_ok());
        assert_eq!(got[1].label, "bad");
        assert!(got[1].outcome.failure().unwrap().contains("configuration"));
    }

    /// Everything observable: trace ring, 16k-uop windows, histograms.
    fn observe_all() -> ObsConfig {
        ObsConfig {
            trace: Some(cdp_types::TraceConfig::default()),
            metrics_window: Some(16_384),
            profile_hist: true,
        }
    }

    #[test]
    fn abandoned_cell_publishes_nothing() {
        let w = WorkloadCache::new().get(Benchmark::Slsb, Scale::smoke());
        let job = || {
            SimJob::new("slsb", SystemConfig::with_content(), Arc::clone(&w))
                .with_obs(observe_all())
        };
        let start = Instant::now();
        job().try_execute().expect("untimed cell");
        let untimed = start.elapsed();

        let cache = Arc::new(ResultCache::new());
        let timed = job().with_result_cache(Arc::clone(&cache), 0x5eed);
        let policy = RunPolicy {
            timeout: Some(Duration::from_millis(1)),
        };
        let reports = Pool::new(1).run_sims_profiled(vec![timed], policy);
        assert_eq!(reports[0].outcome.status(), "timeout");
        assert!(
            reports[0].observation.is_none(),
            "a timed-out job reports no observation"
        );
        // Give the abandoned attempt ample time to have finished the cell
        // had it kept running.
        std::thread::sleep(untimed * 3);
        assert!(cache.is_empty(), "abandoned attempt published its result");
    }

    #[test]
    fn reports_carry_only_an_observed_jobs_observation() {
        let w = WorkloadCache::new().get(Benchmark::Slsb, Scale::smoke());
        let plain = SimJob::new("plain", SystemConfig::with_content(), Arc::clone(&w));
        let observed = plain.clone().with_obs(observe_all());
        let stats = plain.try_execute().expect("reference run");
        // A stand-in observation no simulation of this cell produces.
        let marker = |window| Observation {
            windows: vec![MetricsWindow {
                window,
                ..MetricsWindow::default()
            }],
            ..Observation::default()
        };
        let (key, cache) = (0x5eed, Arc::new(ResultCache::new()));
        let observation_key = observed.observation_key(key).expect("observed");
        cache.put(key, stats, Some(marker(7)));
        cache.put(observation_key, stats, Some(marker(9)));
        let jobs = [plain, observed]
            .map(|job| job.with_result_cache(Arc::clone(&cache), key))
            .to_vec();
        let reports = Pool::new(1).run_sims_profiled(jobs, RunPolicy::default());
        assert_eq!((cache.hits(), cache.misses()), (2, 0), "both replayed");
        assert!(reports.iter().all(|r| r.outcome.is_ok()));
        assert!(
            reports[0].observation.is_none(),
            "a plain job reports no observation, even a cached one"
        );
        let replayed = reports[1].observation.as_ref().expect("observed job");
        assert_eq!(
            replayed.windows,
            marker(9).windows,
            "the cached observation"
        );
    }

    #[test]
    fn profiled_sims_time_jobs_and_route_observations() {
        let cache = WorkloadCache::new();
        let w = cache.get(Benchmark::Slsb, Scale::smoke());
        let jobs: Vec<SimJob> = (0..2)
            .map(|i| {
                SimJob::new(
                    format!("cell/{i}"),
                    SystemConfig::with_content(),
                    Arc::clone(&w),
                )
                .with_obs(observe_all())
            })
            .collect();
        let reports = Pool::new(2).run_sims_profiled(jobs, RunPolicy::default());
        assert_eq!(reports.len(), 2);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.label, format!("cell/{i}"));
            assert!(r.outcome.is_ok(), "{:?}", r.outcome.failure());
            assert!(r.wall > Duration::ZERO);
            let observation = r.observation.as_ref().expect("observed job");
            assert!(!observation.windows.is_empty());
            assert!(observation.profile.is_some());
        }
        // Observed runs must not perturb the simulation itself.
        let plain = SimJob::new("p", SystemConfig::with_content(), Arc::clone(&w))
            .try_execute()
            .unwrap();
        let observed = reports[0].outcome.clone().ok().unwrap();
        assert_eq!(plain.cycles, observed.cycles);
        assert_eq!(plain.retired, observed.retired);
        assert_eq!(plain.mem, observed.mem);
    }

    #[test]
    fn pooled_sims_match_serial_sims() {
        let cache = WorkloadCache::new();
        let jobs_for = |n: usize| -> Vec<SimJob> {
            [Benchmark::B2e, Benchmark::Slsb]
                .iter()
                .flat_map(|&b| {
                    let w = cache.get(b, Scale::smoke());
                    (0..n).map(move |i| {
                        let cfg = if i % 2 == 0 {
                            SystemConfig::asplos2002()
                        } else {
                            SystemConfig::with_content()
                        };
                        SimJob::new(format!("{b:?}/{i}"), cfg, Arc::clone(&w))
                    })
                })
                .collect()
        };
        let run = |jobs| Pool::new(jobs).run_sims_profiled(jobs_for(2), RunPolicy::default());
        let (serial, parallel) = (run(1), run(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            let (ss, ps) = (
                s.outcome.clone().ok().unwrap(),
                p.outcome.clone().ok().unwrap(),
            );
            assert_eq!(ss.cycles, ps.cycles, "{}", s.label);
            assert_eq!(ss.retired, ps.retired, "{}", s.label);
        }
    }
}
