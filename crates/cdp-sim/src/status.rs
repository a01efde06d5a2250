//! Live JSONL status heartbeats for pooled sweeps (`--status-jsonl`).
//!
//! A [`StatusSink`] wraps any `Write` destination (a sidecar file, or
//! stderr via `-`) and emits one JSON object per line as jobs move
//! through the pool: `queued` at submission, `running` when a worker
//! claims the job, throttled in-cell `heartbeat`s, and `done` with the
//! outcome, wall time, result provenance, batch progress, and a sweep
//! ETA. Events never touch stdout — the sweep's rendered tables stay
//! byte-identical with the stream on or off. The sink belongs to a run:
//! it rides in the batch's [`RunPolicy`](crate::RunPolicy), and the pool
//! hands it to each job's [`CellHeartbeat`], so two runs in one process
//! each stream only their own events.
//!
//! Provenance travels through a per-job [`SourceSlot`]: under a watchdog
//! the job runs on a detached thread, so the worker that emits `done`
//! reads the slot's atomic rather than anything thread-local. The same
//! slot carries the watchdog's abandon mark the other way, telling a
//! timed-out job to stop without publishing.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdp_obs::Json;

/// How a finished cell's result was obtained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResultSource {
    /// Simulated from cycle zero this run.
    #[default]
    Fresh,
    /// Replayed from the in-memory result cache.
    ResultCache,
    /// Replayed from the persistent result store.
    ResultStore,
    /// Resumed mid-run from an on-disk checkpoint.
    CheckpointResumed,
    /// A checkpoint existed but failed to decode; the cell restarted.
    CorruptFallback,
}

impl ResultSource {
    /// Stable JSONL spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ResultSource::Fresh => "fresh",
            ResultSource::ResultCache => "result-cache",
            ResultSource::ResultStore => "result-store",
            ResultSource::CheckpointResumed => "checkpoint-resumed",
            ResultSource::CorruptFallback => "corrupt-fallback",
        }
    }
}

/// A thread-safe provenance slot one job's run writes and the pool
/// worker reads when emitting the job's `done` event. The worker also
/// marks it abandoned when the job's watchdog fires; the job checks the
/// mark after every window.
#[derive(Debug, Default)]
pub struct SourceSlot {
    source: AtomicU8,
    abandoned: AtomicBool,
}

impl SourceSlot {
    /// A fresh slot behind an [`Arc`], ready to capture into a task.
    #[must_use]
    pub fn shared() -> Arc<SourceSlot> {
        Arc::new(SourceSlot::default())
    }

    /// Records how the result was obtained.
    pub fn set(&self, s: ResultSource) {
        let code = match s {
            ResultSource::Fresh => 0,
            ResultSource::ResultCache => 1,
            ResultSource::ResultStore => 2,
            ResultSource::CheckpointResumed => 3,
            ResultSource::CorruptFallback => 4,
        };
        self.source.store(code, Ordering::Relaxed);
    }

    /// The provenance last recorded (defaults to [`ResultSource::Fresh`]).
    #[must_use]
    pub fn get(&self) -> ResultSource {
        match self.source.load(Ordering::Relaxed) {
            1 => ResultSource::ResultCache,
            2 => ResultSource::ResultStore,
            3 => ResultSource::CheckpointResumed,
            4 => ResultSource::CorruptFallback,
            _ => ResultSource::Fresh,
        }
    }

    /// Tells the job to stop: its watchdog fired and nobody will read
    /// its result.
    pub(crate) fn abandon(&self) {
        self.abandoned.store(true, Ordering::Relaxed);
    }

    /// Whether the watchdog gave up on the job.
    pub(crate) fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Relaxed)
    }
}

/// A line-buffered JSONL event stream shared by the pool batches of one
/// run. One `write` call per event (a single line), so interleaving
/// from concurrent workers is line-atomic in practice and each line is
/// a complete JSON object regardless.
pub struct StatusSink {
    out: Mutex<Box<dyn Write + Send>>,
    start: Instant,
    total: AtomicU64,
    done: AtomicU64,
}

impl std::fmt::Debug for StatusSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusSink")
            .field("total", &self.total)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl StatusSink {
    /// Creates a sink writing to `out`.
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> StatusSink {
        StatusSink {
            out: Mutex::new(out),
            start: Instant::now(),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
        }
    }

    /// Writes one event line. I/O errors are swallowed: the heartbeat is
    /// diagnostic, and a full disk must never fail the sweep itself.
    fn emit(&self, event: Json) {
        let mut line = event.to_string();
        line.push('\n');
        let mut out = self.out.lock().expect("status sink poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }

    fn base(&self, event: &str, label: &str, index: usize) -> Json {
        let mut o = Json::obj();
        o.set("event", Json::Str(event.to_string()));
        o.set("label", Json::Str(label.to_string()));
        o.set("index", Json::U64(index as u64));
        o
    }

    /// Announces a submission wave: `jobs` new jobs join the queue.
    pub fn batch(&self, jobs: usize) {
        let total = self.total.fetch_add(jobs as u64, Ordering::Relaxed) + jobs as u64;
        let mut o = Json::obj();
        o.set("event", Json::Str("batch".to_string()));
        o.set("jobs", Json::U64(jobs as u64));
        o.set("total", Json::U64(total));
        self.emit(o);
    }

    /// One job entered the queue.
    pub fn queued(&self, label: &str, index: usize) {
        self.emit(self.base("queued", label, index));
    }

    /// A worker claimed the job.
    pub fn running(&self, label: &str, index: usize) {
        self.emit(self.base("running", label, index));
    }

    /// Mid-cell progress: `uops_done` of `uops_total` measurement uops
    /// retired so far. Long cells (large/huge tiers) emit these between
    /// stepping windows so a `--status-jsonl` consumer sees intra-cell
    /// progress, not just job-level transitions.
    pub fn heartbeat(&self, label: &str, index: usize, uops_done: u64, uops_total: u64) {
        let mut o = self.base("heartbeat", label, index);
        o.set("uops_done", Json::U64(uops_done));
        o.set("uops_total", Json::U64(uops_total));
        o.set(
            "uops_remaining",
            Json::U64(uops_total.saturating_sub(uops_done)),
        );
        self.emit(o);
    }

    /// The job finished with `status` (`ok` / `failed` / `timeout`),
    /// provenance `source`, after `wall_ms`. Also reports sweep progress
    /// and a naive ETA extrapolated from throughput so far.
    pub fn done(
        &self,
        label: &str,
        index: usize,
        status: &str,
        wall_ms: u64,
        source: ResultSource,
    ) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.total.load(Ordering::Relaxed).max(done);
        let mut o = self.base("done", label, index);
        o.set("status", Json::Str(status.to_string()));
        o.set("wall_ms", Json::U64(wall_ms));
        o.set("source", Json::Str(source.as_str().to_string()));
        o.set("done", Json::U64(done));
        o.set("total", Json::U64(total));
        let elapsed = self.start.elapsed().as_millis() as u64;
        o.set("eta_ms", Json::U64(elapsed / done * (total - done)));
        self.emit(o);
    }
}

/// A throttled in-cell progress reporter: the stepping loop calls
/// [`CellHeartbeat::tick`] after every window and the helper emits at
/// most one `heartbeat` event per period (default 1 s). Costs one
/// `Instant::now` per window when it has a sink and nothing at all
/// otherwise, so it is safe to leave in every driving loop.
#[derive(Debug)]
pub struct CellHeartbeat {
    sink: Option<Arc<StatusSink>>,
    label: String,
    index: usize,
    total_uops: u64,
    last: Instant,
    period: std::time::Duration,
}

impl CellHeartbeat {
    /// A reporter for job `index` of a batch into `sink` (`None`
    /// reports nothing). `total_uops` is the cell's post-warm-up
    /// measurement budget; progress is reported against it.
    #[must_use]
    pub fn new(
        sink: Option<Arc<StatusSink>>,
        label: &str,
        index: usize,
        total_uops: u64,
    ) -> CellHeartbeat {
        CellHeartbeat {
            sink,
            label: label.to_string(),
            index,
            total_uops,
            last: Instant::now(),
            period: std::time::Duration::from_secs(1),
        }
    }

    /// Overrides the emission period (tests use zero to force emission).
    #[must_use]
    pub fn with_period(mut self, period: std::time::Duration) -> CellHeartbeat {
        self.period = period;
        self
    }

    /// Reports `uops_done` retired so far; emits if the period elapsed.
    pub fn tick(&mut self, uops_done: u64) {
        let Some(sink) = &self.sink else { return };
        if self.last.elapsed() < self.period {
            return;
        }
        self.last = Instant::now();
        sink.heartbeat(&self.label, self.index, uops_done, self.total_uops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Write capturing into a shared buffer for assertions.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn source_slot_round_trips_all_codes() {
        let slot = SourceSlot::shared();
        assert_eq!(slot.get(), ResultSource::Fresh);
        for s in [
            ResultSource::Fresh,
            ResultSource::ResultCache,
            ResultSource::ResultStore,
            ResultSource::CheckpointResumed,
            ResultSource::CorruptFallback,
        ] {
            slot.set(s);
            assert_eq!(slot.get(), s);
            assert!(!s.as_str().is_empty());
        }
        assert!(!slot.is_abandoned());
        slot.abandon();
        assert!(slot.is_abandoned());
        assert_eq!(
            slot.get(),
            ResultSource::CorruptFallback,
            "the mark leaves provenance alone"
        );
    }

    #[test]
    fn cell_heartbeat_throttles_and_reports_progress() {
        let cap = Capture::default();
        let sink = Arc::new(StatusSink::new(Box::new(cap.clone())));
        let mut hb = CellHeartbeat::new(Some(sink), "cell/a", 3, 1_000)
            .with_period(std::time::Duration::ZERO);
        hb.tick(250);
        hb.tick(600);
        // A long period suppresses the third tick.
        hb = hb.with_period(std::time::Duration::from_secs(3600));
        hb.tick(900);
        let text = String::from_utf8(cap.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let j = Json::parse(lines[1]).unwrap();
        assert_eq!(j.get("event").unwrap().to_string(), "\"heartbeat\"");
        assert_eq!(j.get("index").unwrap().to_string(), "3");
        assert_eq!(j.get("uops_done").unwrap().to_string(), "600");
        assert_eq!(j.get("uops_total").unwrap().to_string(), "1000");
        assert_eq!(j.get("uops_remaining").unwrap().to_string(), "400");
        // No sink: tick is a no-op, not a panic.
        let mut silent = CellHeartbeat::new(None, "x", 0, 1).with_period(std::time::Duration::ZERO);
        silent.tick(1);
    }

    #[test]
    fn concurrent_runs_each_stream_only_their_own_batch() {
        use crate::exec::{Pool, RunPolicy, SimJob};
        use crate::runner::DEFAULT_SEED;
        use cdp_types::SystemConfig;
        use cdp_workloads::suite::{Benchmark, Scale};

        let w = Arc::new(Benchmark::Slsb.build(Scale::smoke(), DEFAULT_SEED));
        let runs = ["a", "b"];
        let captures = [Capture::default(), Capture::default()];
        let barrier = std::sync::Barrier::new(runs.len());
        std::thread::scope(|s| {
            for (run, cap) in runs.iter().zip(&captures) {
                let (w, barrier) = (&w, &barrier);
                s.spawn(move || {
                    let jobs = (0..3)
                        .map(|i| {
                            let label = format!("{run}/{i}");
                            SimJob::new(label, SystemConfig::asplos2002(), Arc::clone(w))
                        })
                        .collect();
                    let policy = RunPolicy {
                        status: Some(Arc::new(StatusSink::new(Box::new(cap.clone())))),
                        ..RunPolicy::default()
                    };
                    barrier.wait();
                    Pool::new(1).run_sims_profiled(jobs, policy);
                });
            }
        });
        for (run, cap) in runs.iter().zip(&captures) {
            let text = String::from_utf8(cap.0.lock().unwrap().clone()).unwrap();
            let events: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
            let count = |kind: &str| {
                let kind = format!("\"{kind}\"");
                events
                    .iter()
                    .filter(|e| e.get("event").unwrap().to_string() == kind)
                    .count()
            };
            assert_eq!(
                (
                    count("batch"),
                    count("queued"),
                    count("running"),
                    count("done")
                ),
                (1, 3, 3, 3),
                "run {run}: {text}"
            );
            for label in events.iter().filter_map(|e| e.get("label")) {
                let label = label.to_string();
                assert!(
                    label.starts_with(&format!("\"{run}/")),
                    "run {run}: {label}"
                );
            }
            let last = events.last().unwrap();
            assert_eq!(last.get("total").unwrap().to_string(), "3", "run {run}");
        }
    }

    #[test]
    fn events_are_one_parsable_json_object_per_line() {
        let cap = Capture::default();
        let sink = StatusSink::new(Box::new(cap.clone()));
        sink.batch(2);
        sink.queued("cell/a", 0);
        sink.running("cell/a", 0);
        sink.done("cell/a", 0, "ok", 42, ResultSource::ResultCache);
        sink.done("cell/b", 1, "timeout", 9000, ResultSource::Fresh);
        let bytes = cap.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let j = Json::parse(line).expect("every event line parses");
            assert!(j.get("event").is_some());
        }
        let done = Json::parse(lines[3]).unwrap();
        assert_eq!(done.get("source").unwrap().to_string(), "\"result-cache\"");
        assert_eq!(done.get("done").unwrap().to_string(), "1");
        assert_eq!(done.get("total").unwrap().to_string(), "2");
        assert!(done.get("eta_ms").is_some());
        let last = Json::parse(lines[4]).unwrap();
        assert_eq!(last.get("status").unwrap().to_string(), "\"timeout\"");
        assert_eq!(last.get("done").unwrap().to_string(), "2");
    }
}
