//! The assembled system: core + hierarchy, with run-level statistics.

use cdp_core::{Core, CoreStats};
use cdp_mem::BusStats;
use cdp_obs::TraceRing;
use cdp_prefetch::adaptive::AdaptiveStats;
use cdp_prefetch::{
    ContentStats, DeltaStats, JumpStats, PerceptronStats, StreamStats, StrideStats,
};
use cdp_types::{ObsConfig, SystemConfig};
use cdp_workloads::suite::Scale;
use cdp_workloads::Workload;

use cdp_types::CdpError;

use crate::fault::WalkFault;
use crate::hierarchy::{Hierarchy, PollutionConfig};
use crate::observe::{MetricsWindow, Observation};
use crate::stats::MemStats;

/// Process-global idle-cycle fast-forward switch (on by default); see
/// [`set_fast_forward`].
static FAST_FORWARD: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enables or disables the core's fast path for every simulation
/// constructed afterwards (on by default): idle-cycle fast-forwarding
/// and wake-up issue selection (`Core::set_fast_forward`).
///
/// The fast path is behavior-neutral — skipped cycles are provably
/// barren and both issue selectors issue the same uops, so statistics,
/// snapshots, and emitted artifacts are bit-identical either way
/// (DESIGN.md §13) — which is exactly why this switch exists: running
/// with it off produces the reference schedule (every cycle stepped,
/// the whole ROB scanned at issue) that CI and the benchmark's oracle
/// judge the fast path by. Because it cannot change results, it is
/// deliberately **not** part of config fingerprints, result-cache keys,
/// or snapshot headers.
pub fn set_fast_forward(on: bool) {
    FAST_FORWARD.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Builds a core with the process-global fast-forward setting applied.
///
/// Streamed workloads (large/huge tiers) get a [`Core::new_streaming`]
/// fed by a fresh cursor over the workload's generator, so only a sliding
/// uop window is ever resident; materialized workloads borrow the program
/// as before. The two engines retire bit-identical streams (asserted by
/// the differential tests below), so everything downstream — stats,
/// snapshots, caches — is engine-agnostic.
fn build_core<'w>(cfg: &SystemConfig, workload: &'w Workload) -> Core<'w> {
    let mut core = match &workload.stream {
        Some(spec) => Core::new_streaming(cfg.core.clone(), spec.make_source()),
        None => Core::new(cfg.core.clone(), &workload.program),
    };
    core.set_fast_forward(FAST_FORWARD.load(std::sync::atomic::Ordering::Relaxed));
    core
}

/// Canonical run sizes used across examples, tests, and experiments.
/// The experiments' stdout header prints the `Debug` name (`Smoke`,
/// `Quick`, ...), manifests the lowercase [`RunLength::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunLength {
    /// Tiny: unit tests and doc examples.
    Smoke,
    /// Fast experiment runs.
    Quick,
    /// Full experiment runs (the EXPERIMENTS.md numbers).
    Full,
    /// ~100 M uops; streamed (O(window) resident memory).
    Large,
    /// ~1 B uops; streamed. Overnight-scale runs.
    Huge,
}

impl RunLength {
    /// The workload scale for this run length.
    pub fn scale(self) -> Scale {
        match self {
            RunLength::Smoke => Scale::smoke(),
            RunLength::Quick => Scale::quick(),
            RunLength::Full => Scale::full(),
            RunLength::Large => Scale::large(),
            RunLength::Huge => Scale::huge(),
        }
    }

    /// The tier's canonical lowercase name (inverse of
    /// [`RunLength::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            RunLength::Smoke => "smoke",
            RunLength::Quick => "quick",
            RunLength::Full => "full",
            RunLength::Large => "large",
            RunLength::Huge => "huge",
        }
    }

    /// Parses `smoke` / `quick` / `full` / `large` / `huge`.
    pub fn parse(s: &str) -> Option<RunLength> {
        [
            RunLength::Smoke,
            RunLength::Quick,
            RunLength::Full,
            RunLength::Large,
            RunLength::Huge,
        ]
        .into_iter()
        .find(|tier| tier.name() == s)
    }
}

/// Everything measured in one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Cycles elapsed in the measurement window.
    pub cycles: u64,
    /// Uops retired in the measurement window.
    pub retired: u64,
    /// Core-side counters.
    pub core: CoreStats,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Content-prefetcher internals, if one was configured.
    pub content: Option<ContentStats>,
    /// Stride-prefetcher internals, if configured.
    pub stride: Option<StrideStats>,
    /// Markov STAB internals, if configured.
    pub markov: Option<DeltaStats>,
    /// Stream-buffer internals, if configured.
    pub stream: Option<StreamStats>,
    /// Adaptive-controller stats and final steering, if configured.
    pub adaptive: Option<(AdaptiveStats, cdp_types::ContentConfig)>,
    /// Delta-prefetcher internals, if configured.
    pub delta: Option<DeltaStats>,
    /// Jump-prefetcher internals, if configured.
    pub jump: Option<JumpStats>,
    /// Perceptron-filter internals, if configured.
    pub perceptron: Option<PerceptronStats>,
    /// Bus counters.
    pub bus: BusStats,
}

impl RunStats {
    /// Retired uops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// L2 demand misses per 1000 uops (§2.2).
    pub fn mptu(&self) -> f64 {
        self.mem.mptu(self.retired)
    }
}

/// Speedup of `variant` over `baseline` on the same workload
/// (`baseline_cycles / variant_cycles`, the paper's convention: 1.126 =
/// "12.6% speedup").
pub fn speedup(baseline: &RunStats, variant: &RunStats) -> f64 {
    if variant.cycles == 0 {
        1.0
    } else {
        baseline.cycles as f64 / variant.cycles as f64
    }
}

/// A configured simulator, reusable across workloads.
///
/// # Examples
///
/// ```
/// use cdp_sim::{Simulator, RunLength};
/// use cdp_types::SystemConfig;
/// use cdp_workloads::suite::Benchmark;
///
/// let w = Benchmark::B2e.build(RunLength::Smoke.scale(), 7);
/// let stats = Simulator::new(SystemConfig::asplos2002()).run(&w);
/// assert!(stats.retired > 0);
/// assert!(stats.ipc() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    cfg: SystemConfig,
    pollution: Option<PollutionConfig>,
    walk_fault: Option<WalkFault>,
}

/// How many retired uops `try_run` advances between fault-latch checks.
/// Purely a responsiveness knob: window boundaries change no simulated
/// state, so any value yields identical statistics.
const FAULT_CHECK_WINDOW: u64 = 65_536;

impl Simulator {
    /// Creates a simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`]; use
    /// [`Simulator::try_new`] to handle invalid configurations gracefully.
    pub fn new(cfg: SystemConfig) -> Self {
        match Simulator::try_new(cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a simulator, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns [`CdpError::Config`] wrapping the first structural problem
    /// found in `cfg`.
    pub fn try_new(cfg: SystemConfig) -> Result<Self, CdpError> {
        cfg.validate()?;
        Ok(Simulator {
            cfg,
            pollution: None,
            walk_fault: None,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Enables the §3.5 pollution limit study.
    pub fn with_pollution(mut self, p: PollutionConfig) -> Self {
        self.pollution = Some(p);
        self
    }

    /// Enables deterministic page-walk fault injection (see
    /// [`Hierarchy::with_walk_fault`]).
    pub fn with_walk_fault(mut self, f: WalkFault) -> Self {
        self.walk_fault = Some(f);
        self
    }

    fn build_hierarchy<'w>(&self, workload: &'w Workload) -> Hierarchy<'w> {
        let mut hierarchy = Hierarchy::new(self.cfg.clone(), &workload.space);
        if let Some(p) = self.pollution {
            hierarchy = hierarchy.with_pollution(p);
        }
        if let Some(f) = self.walk_fault {
            hierarchy = hierarchy.with_walk_fault(f);
        }
        hierarchy
    }

    /// Runs `workload` to completion, honoring `cfg.warmup_uops` (counters
    /// reset after warm-up; cache/TLB/predictor state carries over).
    ///
    /// # Panics
    ///
    /// Panics on an unrecoverable demand-path fault (unmapped demand
    /// access, failed demand walk) — conditions a well-formed workload
    /// never produces. Use [`Simulator::try_run`] to handle them.
    pub fn run(&self, workload: &Workload) -> RunStats {
        match self.try_run(workload) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`Simulator::run`], but surfaces unrecoverable demand-path
    /// faults as typed errors instead of panicking. The core is driven in
    /// windows of retired uops; the hierarchy's fault latch is checked at
    /// every boundary, so a fault aborts the run promptly with the
    /// *first* fault encountered. Windowing changes no simulated state:
    /// fault-free runs are bit-identical to the unwindowed driver.
    ///
    /// # Errors
    ///
    /// The first [`CdpError`] latched by the memory hierarchy.
    pub fn try_run(&self, workload: &Workload) -> Result<RunStats, CdpError> {
        let mut session = self.session(workload, None);
        while !session.step()? {}
        Ok(session.finish().0)
    }

    /// As [`Simulator::try_run`], with observability: installs a tracer
    /// when `obs.trace` is set, and snapshots a [`MetricsWindow`] delta
    /// every `obs.metrics_window` retired uops. The driving loop has the
    /// same shape as `try_run` (window boundaries change no simulated
    /// state), so the returned `RunStats` are identical to an unobserved
    /// run — asserted by `tests/observability.rs`. Warmup is excluded:
    /// the tracer is cleared and window 0 starts at the warmup boundary.
    ///
    /// # Errors
    ///
    /// The first [`CdpError`] latched by the memory hierarchy.
    pub fn try_run_observed(
        &self,
        workload: &Workload,
        obs: &ObsConfig,
    ) -> Result<(RunStats, Observation), CdpError> {
        let mut session = self.session(workload, Some(obs));
        while !session.step()? {}
        Ok(session.finish())
    }

    /// Starts a pausable run: the same windowed driving loop as
    /// [`Simulator::try_run`] / [`Simulator::try_run_observed`] (which are
    /// implemented on top of it), but surfaced as an object that can be
    /// stepped window by window and snapshotted between steps.
    pub fn session<'w>(&self, workload: &'w Workload, obs: Option<&ObsConfig>) -> SimSession<'w> {
        let mut hierarchy = self.build_hierarchy(workload);
        if let Some(tc) = obs.and_then(|o| o.trace.as_ref()) {
            hierarchy.set_tracer(TraceRing::new(tc.clone()));
        }
        let profile_hist = obs.is_some_and(|o| o.profile_hist);
        if profile_hist {
            hierarchy.set_profile(Box::new(cdp_obs::Profile::new()));
        }
        let metrics_window = obs.and_then(|o| o.metrics_window);
        let window = match obs {
            None => FAULT_CHECK_WINDOW,
            Some(_) => metrics_window.unwrap_or(FAULT_CHECK_WINDOW).max(1),
        };
        let mut core = build_core(&self.cfg, workload);
        if profile_hist {
            core.set_stall_hist(Box::new(cdp_obs::Hist::new()));
        }
        SimSession {
            core,
            hierarchy,
            warmup_uops: self.cfg.warmup_uops,
            window,
            record_windows: metrics_window.is_some(),
            workload,
            setup_hash: setup_hasher(&self.cfg, self.pollution, self.walk_fault, obs),
            fingerprint: std::cell::OnceCell::new(),
            target: 0,
            warmed: false,
            done: false,
            windows: Vec::new(),
            prev_retired: 0,
            prev_cycles: 0,
            prev_mem: MemStats::default(),
        }
    }

    /// Rebuilds a [`SimSession`] from a [`SimSession::snapshot`] taken
    /// with the same configuration over the same workload, continuing the
    /// run bit-identically: every subsequent window, statistic, trace
    /// event, and the final [`RunStats`] match the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`CdpError::Snapshot`] when `bytes` is truncated, corrupted,
    /// version-incompatible, or was taken under a different
    /// configuration/workload (fingerprint mismatch).
    pub fn resume<'w>(
        &self,
        workload: &'w Workload,
        obs: Option<&ObsConfig>,
        bytes: &[u8],
    ) -> Result<SimSession<'w>, CdpError> {
        let mut session = self.session(workload, obs);
        session.restore(bytes).map_err(CdpError::Snapshot)?;
        Ok(session)
    }
}

/// The run fingerprint: one hash over everything that determines a
/// run's results — the full system configuration, the pollution and
/// walk-fault attachments, the observability settings, and the
/// workload's content fingerprint ([`Workload::fingerprint`], which
/// covers the trace and every byte of the image, page tables included).
///
/// It is a run's one identity. It heads every snapshot of a
/// [`SimSession`], so a snapshot resumes only into a bit-identical setup,
/// and with `obs = None` it is the key a [`SimJob`](crate::SimJob) files
/// its result and names its checkpoint under
/// ([`SimJob::key`](crate::SimJob::key)).
pub(crate) fn run_fingerprint(
    cfg: &SystemConfig,
    pollution: Option<PollutionConfig>,
    walk_fault: Option<WalkFault>,
    obs: Option<&ObsConfig>,
    workload_fingerprint: u64,
) -> u64 {
    let mut h = setup_hasher(cfg, pollution, walk_fault, obs);
    h.write_u64(workload_fingerprint);
    h.finish()
}

/// [`run_fingerprint`]'s hasher after everything but the workload.
fn setup_hasher(
    cfg: &SystemConfig,
    pollution: Option<PollutionConfig>,
    walk_fault: Option<WalkFault>,
    obs: Option<&ObsConfig>,
) -> cdp_snap::WordHasher {
    let mut h = cdp_snap::WordHasher::new();
    h.write(format!("{cfg:?}").as_bytes());
    h.write(format!("{pollution:?}").as_bytes());
    h.write(format!("{walk_fault:?}").as_bytes());
    h.write(format!("{obs:?}").as_bytes());
    h
}

/// Snapshot section holding the driver-loop scalars.
const SEC_RUN: u32 = 1;
/// Snapshot section holding the out-of-order core.
const SEC_CORE: u32 = 2;
/// Snapshot section holding the memory hierarchy.
const SEC_HIER: u32 = 3;
/// Snapshot section holding the metrics-window accumulator (present only
/// when the session records windows).
const SEC_OBS: u32 = 4;

/// A pausable simulation: core + hierarchy plus the windowed driver-loop
/// state, steppable one window at a time.
///
/// Between [`SimSession::step`] calls the simulation sits at a window
/// boundary — the only points where the transient buffers are empty and
/// the fault latch has been checked — so [`SimSession::snapshot`] is
/// valid whenever the borrow checker lets you call it. The contract,
/// enforced by `tests/snapshot_roundtrip.rs`: `resume(snapshot(S))`
/// continues bit-identically — same windows, same trace events, same
/// final [`RunStats`] — as the session that was never interrupted.
#[derive(Debug)]
pub struct SimSession<'w> {
    core: Core<'w>,
    hierarchy: Hierarchy<'w>,
    warmup_uops: u64,
    window: u64,
    record_windows: bool,
    workload: &'w Workload,
    /// The run fingerprint's hasher over the configuration, taken at
    /// session start.
    setup_hash: cdp_snap::WordHasher,
    /// The run fingerprint, computed by the first snapshot or restore:
    /// only they read it, and hashing the image costs milliseconds.
    fingerprint: std::cell::OnceCell<u64>,
    target: u64,
    warmed: bool,
    done: bool,
    windows: Vec<MetricsWindow>,
    prev_retired: u64,
    prev_cycles: u64,
    prev_mem: MemStats,
}

impl<'w> SimSession<'w> {
    /// The [`run_fingerprint`] that heads this session's snapshots.
    fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = self.setup_hash;
            h.write_u64(self.workload.fingerprint());
            h.finish()
        })
    }

    /// Advances the run by one window (the first call runs the warm-up
    /// phase instead, when one is configured). Returns `true` once the
    /// program has fully retired.
    ///
    /// # Errors
    ///
    /// The first [`CdpError`] latched by the memory hierarchy in this
    /// window.
    pub fn step(&mut self) -> Result<bool, CdpError> {
        if self.done {
            return Ok(true);
        }
        if !self.warmed {
            self.warmed = true;
            if self.warmup_uops > 0 {
                self.target = self.warmup_uops;
                self.core
                    .run_until_retired(&mut self.hierarchy, self.target);
                if let Some(e) = self.hierarchy.take_fault() {
                    return Err(e);
                }
                self.core.reset_stats();
                self.core.reset_stall_hist();
                self.hierarchy.reset_stats();
                if let Some(t) = self.hierarchy.tracer_mut() {
                    t.clear();
                }
                return Ok(false);
            }
        }
        self.target += self.window;
        let done = self
            .core
            .run_until_retired(&mut self.hierarchy, self.target);
        if let Some(e) = self.hierarchy.take_fault() {
            return Err(e);
        }
        if self.record_windows {
            let cs = self.core.stats();
            let mem = *self.hierarchy.stats();
            self.windows.push(MetricsWindow::delta(
                self.windows.len(),
                cs.retired - self.prev_retired,
                cs.cycles - self.prev_cycles,
                &mem,
                &self.prev_mem,
            ));
            self.prev_retired = cs.retired;
            self.prev_cycles = cs.cycles;
            self.prev_mem = mem;
        }
        self.done = done;
        Ok(done)
    }

    /// Cycles simulated so far (post-warm-up measurement clock).
    pub fn cycles(&self) -> u64 {
        self.core.stats().cycles
    }

    /// Uops retired so far (post-warm-up).
    pub fn retired(&self) -> u64 {
        self.core.stats().retired
    }

    /// Serializes the complete session — core, hierarchy, driver-loop
    /// scalars, and the metrics accumulator — into a self-describing
    /// snapshot (magic, version, fingerprint, per-section checksums).
    pub fn snapshot(&self) -> Vec<u8> {
        self.snapshot_into(Vec::new())
    }

    /// [`SimSession::snapshot`] into a caller-owned buffer: `buf` is
    /// cleared, refilled, and returned, so a periodic checkpointer can
    /// recycle one allocation across every snapshot it writes. Output
    /// bytes are identical to [`SimSession::snapshot`].
    pub fn snapshot_into(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut w = cdp_snap::SnapWriter::new_in(self.fingerprint(), buf);
        w.section(SEC_RUN, |e| {
            e.u64(self.target);
            e.bool(self.warmed);
            e.bool(self.done);
        });
        w.section(SEC_CORE, |e| self.core.save_state(e));
        w.section(SEC_HIER, |e| self.hierarchy.save_state(e));
        if self.record_windows {
            w.section(SEC_OBS, |e| {
                e.u64(self.prev_retired);
                e.u64(self.prev_cycles);
                self.prev_mem.save_state(e);
                e.seq_len(self.windows.len());
                for win in &self.windows {
                    win.save_state(e);
                }
            });
        }
        w.finish()
    }

    /// Restores a snapshot into this freshly constructed session.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        let reader = cdp_snap::SnapReader::parse(bytes, Some(self.fingerprint()))?;
        let mut dec = reader.section(SEC_RUN)?;
        self.target = dec.u64("run target")?;
        self.warmed = dec.bool("run warmed")?;
        self.done = dec.bool("run done")?;
        if !dec.is_exhausted() {
            return Err(SnapshotError::Corrupt {
                context: "run section trailing bytes",
            });
        }
        let mut dec = reader.section(SEC_CORE)?;
        self.core.restore_state(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(SnapshotError::Corrupt {
                context: "core section trailing bytes",
            });
        }
        let mut dec = reader.section(SEC_HIER)?;
        self.hierarchy.restore_state(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(SnapshotError::Corrupt {
                context: "hierarchy section trailing bytes",
            });
        }
        if self.record_windows {
            let mut dec = reader.section(SEC_OBS)?;
            self.prev_retired = dec.u64("obs prev_retired")?;
            self.prev_cycles = dec.u64("obs prev_cycles")?;
            self.prev_mem.restore_state(&mut dec)?;
            let n = dec.seq_len(16 * 8, "obs window count")?;
            self.windows.clear();
            for _ in 0..n {
                self.windows.push(MetricsWindow::restore_state(&mut dec)?);
            }
            if !dec.is_exhausted() {
                return Err(SnapshotError::Corrupt {
                    context: "obs section trailing bytes",
                });
            }
        }
        Ok(())
    }

    /// Consumes the session, producing the final [`RunStats`] and the
    /// [`Observation`] accumulated so far (empty for unobserved runs).
    pub fn finish(mut self) -> (RunStats, Observation) {
        let cs = self.core.stats();
        let stats = RunStats {
            cycles: cs.cycles,
            retired: cs.retired,
            core: cs,
            mem: *self.hierarchy.stats(),
            content: self.hierarchy.content_stats(),
            stride: self.hierarchy.stride_stats(),
            markov: self.hierarchy.markov_stats(),
            stream: self.hierarchy.stream_stats(),
            adaptive: self.hierarchy.adaptive_state(),
            delta: self.hierarchy.delta_stats(),
            jump: self.hierarchy.jump_stats(),
            perceptron: self.hierarchy.perceptron_stats(),
            bus: self.hierarchy.bus_stats(),
        };
        let profile = self.hierarchy.take_profile().map(|mut p| {
            // The core's stall histogram is the fourth leg of the profile;
            // fold it in so callers see one bundle.
            if let Some(stall) = self.core.take_stall_hist() {
                p.rob_stall.merge(&stall);
            }
            *p
        });
        let observation = Observation::new(
            std::mem::take(&mut self.windows),
            self.hierarchy.take_tracer(),
            profile,
        );
        (stats, observation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_workloads::suite::Benchmark;

    fn workload() -> Workload {
        Benchmark::SpecjbbVsnet.build(Scale::smoke(), 3)
    }

    #[test]
    fn baseline_run_completes() {
        let w = workload();
        let s = Simulator::new(SystemConfig::asplos2002()).run(&w);
        assert_eq!(s.retired as usize, w.program.len());
        assert!(s.cycles > 0);
        assert!(s.mem.accesses > 0);
        assert!(s.stride.is_some());
        assert!(s.content.is_none());
    }

    #[test]
    fn warmup_reduces_counted_work() {
        let w = workload();
        let mut cfg = SystemConfig::asplos2002();
        let full = Simulator::new(cfg.clone()).run(&w);
        cfg.warmup_uops = (w.program.len() / 2) as u64;
        let warmed = Simulator::new(cfg).run(&w);
        assert!(warmed.retired < full.retired);
        assert!(warmed.cycles < full.cycles);
    }

    #[test]
    fn content_system_not_slower_on_pointer_workload() {
        let w = Benchmark::Slsb.build(Scale::smoke(), 5);
        let base = Simulator::new(SystemConfig::asplos2002()).run(&w);
        let cdp = Simulator::new(SystemConfig::with_content()).run(&w);
        let sp = speedup(&base, &cdp);
        assert!(
            sp > 0.97,
            "CDP must not tank a pointer workload: speedup {sp:.3}"
        );
        assert!(cdp.mem.content.issued > 0, "CDP actually ran");
    }

    /// The per-window deltas of an observed run with `uops`-wide windows.
    fn windows(sim: &Simulator, w: &Workload, uops: u64) -> Vec<MetricsWindow> {
        let obs = ObsConfig {
            metrics_window: Some(uops),
            ..ObsConfig::default()
        };
        sim.try_run_observed(w, &obs).unwrap().1.windows
    }

    #[test]
    fn timeline_windows_sum_to_totals() {
        let w = Benchmark::Tpcc1.build(Scale::smoke(), 6);
        let sim = Simulator::new(SystemConfig::with_content());
        let timeline = windows(&sim, &w, 4_000);
        let full = sim.run(&w);
        assert!(timeline.len() >= 2);
        let retired: u64 = timeline.iter().map(|s| s.retired).sum();
        let misses: u64 = timeline.iter().map(|s| s.l2_demand_misses).sum();
        let issued: u64 = timeline.iter().map(|s| s.content_issued).sum();
        assert_eq!(retired, full.retired);
        assert_eq!(misses, full.mem.l2_demand_misses);
        assert_eq!(issued, full.mem.content.issued);
        // Window indices are consecutive.
        for (i, s) in timeline.iter().enumerate() {
            assert_eq!(s.window, i);
        }
        // Derived metrics are finite.
        assert!(timeline[0].mptu().is_finite());
        assert!(timeline[0].ipc() > 0.0);
    }

    #[test]
    fn mptu_trace_has_warmup_transient() {
        let w = Benchmark::Tpcc2.build(Scale::smoke(), 9);
        let sim = Simulator::new(SystemConfig::asplos2002());
        // Misses per 1000 uops of window width, as Figure 1 plots them.
        let trace: Vec<f64> = windows(&sim, &w, 2_000)
            .iter()
            .map(|s| s.l2_demand_misses as f64 * 1000.0 / 2_000.0)
            .collect();
        assert!(trace.len() >= 5);
        // First window (cold caches) has more misses than the average of
        // the later half (steady state).
        let late: f64 =
            trace[trace.len() / 2..].iter().sum::<f64>() / (trace.len() - trace.len() / 2) as f64;
        assert!(
            trace[0] > late,
            "cold-start window {} should exceed steady state {late}",
            trace[0]
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.dtlb.entries = 63;
        assert!(Simulator::try_new(cfg).is_err());
    }

    #[test]
    fn speedup_orientation() {
        let base = RunStats {
            cycles: 1126,
            ..RunStats::default()
        };
        let variant = RunStats {
            cycles: 1000,
            ..RunStats::default()
        };
        assert!((speedup(&base, &variant) - 1.126).abs() < 1e-9);
    }

    #[test]
    fn run_lengths_are_ordered() {
        assert!(RunLength::Smoke.scale().target_uops < RunLength::Quick.scale().target_uops);
        assert!(RunLength::Quick.scale().target_uops < RunLength::Full.scale().target_uops);
        assert!(RunLength::Full.scale().target_uops < RunLength::Large.scale().target_uops);
        assert!(RunLength::Large.scale().target_uops < RunLength::Huge.scale().target_uops);
        // The new tiers stream unconditionally (above the threshold).
        assert!(RunLength::Large.scale().streamed());
        assert!(RunLength::Huge.scale().streamed());
    }

    #[test]
    fn scale_parse() {
        assert_eq!(RunLength::parse("quick"), Some(RunLength::Quick));
        assert_eq!(RunLength::parse("huge"), Some(RunLength::Huge));
        assert_eq!(RunLength::parse("bogus"), None);
        assert_eq!(
            RunLength::parse(RunLength::Large.name()),
            Some(RunLength::Large)
        );
        assert_eq!(format!("{:?}", RunLength::Smoke), "Smoke", "stdout header");
    }

    #[test]
    fn streaming_engine_matches_materialized_stats() {
        // The tentpole differential: the same benchmark/seed/scale run
        // through the streaming feed must produce byte-identical RunStats
        // (every counter, every prefetcher internal) to the materialized
        // engine.
        let sim = Simulator::new(SystemConfig::with_content());
        for (bench, seed) in [(Benchmark::Slsb, 11), (Benchmark::Tpcc2, 7)] {
            let eager = bench.build_with_engine(Scale::smoke(), seed, false);
            let streamed = bench.build_with_engine(Scale::smoke(), seed, true);
            assert!(streamed.is_streamed() && !eager.is_streamed());
            assert_eq!(streamed.program.len(), 0, "no materialized trace");
            let a = sim.run(&eager);
            let b = sim.run(&streamed);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{} diverged between engines",
                bench.name()
            );
        }
    }

    #[test]
    fn streamed_session_snapshot_resumes_bit_identically() {
        // Snapshot taken mid-stream (generator cursor + in-flight window
        // serialized) must resume to the exact same final stats.
        let w = Benchmark::Tpcc1.build_with_engine(Scale::smoke(), 17, true);
        let mut cfg = SystemConfig::with_content();
        cfg.warmup_uops = 5_000;
        let sim = Simulator::new(cfg.clone());
        let reference = sim.try_run(&w).unwrap();

        let mut session = sim.session(&w, None);
        assert!(!session.step().unwrap(), "smoke run ended during warm-up");
        let bytes = session.snapshot();
        drop(session);

        let mut resumed = Simulator::new(cfg).resume(&w, None, &bytes).unwrap();
        while !resumed.step().unwrap() {}
        let (stats, _) = resumed.finish();
        assert_eq!(format!("{reference:?}"), format!("{stats:?}"));
    }

    #[test]
    fn streamed_timeline_matches_materialized() {
        let eager = Benchmark::Tpcc1.build_with_engine(Scale::smoke(), 6, false);
        let streamed = Benchmark::Tpcc1.build_with_engine(Scale::smoke(), 6, true);
        let sim = Simulator::new(SystemConfig::with_content());
        for uops in [4_000, 2_000] {
            assert_eq!(windows(&sim, &eager, uops), windows(&sim, &streamed, uops));
        }
    }

    fn observed_cfg() -> ObsConfig {
        ObsConfig {
            trace: Some(cdp_types::TraceConfig::default()),
            metrics_window: Some(4_000),
            profile_hist: true,
        }
    }

    #[test]
    fn session_loop_matches_run() {
        let w = Benchmark::Slsb.build(Scale::smoke(), 11);
        let sim = Simulator::new(SystemConfig::with_content());
        let direct = sim.run(&w);
        let mut session = sim.session(&w, None);
        while !session.step().unwrap() {}
        let (stepped, _) = session.finish();
        assert_eq!(format!("{direct:?}"), format!("{stepped:?}"));
    }

    #[test]
    fn snapshot_resume_is_bit_identical_plain() {
        let w = Benchmark::Tpcc1.build(Scale::smoke(), 17);
        let mut cfg = SystemConfig::with_content();
        cfg.warmup_uops = 5_000;
        let sim = Simulator::new(cfg.clone());
        let reference = sim.try_run(&w).unwrap();

        // Step past warm-up, snapshot, and throw the session away — as
        // if the process had been killed. (A plain session steps in
        // fault-check windows larger than a smoke run, so the warm-up
        // boundary is its one mid-run snapshot point.)
        let mut session = sim.session(&w, None);
        assert!(!session.step().unwrap(), "smoke run ended during warm-up");
        let bytes = session.snapshot();
        drop(session);

        // A brand-new simulator resumes and must finish identically.
        let sim2 = Simulator::new(cfg);
        let mut resumed = sim2.resume(&w, None, &bytes).unwrap();
        while !resumed.step().unwrap() {}
        let (stats, _) = resumed.finish();
        assert_eq!(format!("{reference:?}"), format!("{stats:?}"));
    }

    #[test]
    fn snapshot_resume_is_bit_identical_observed() {
        let w = Benchmark::SpecjbbVsnet.build(Scale::smoke(), 23);
        let cfg = SystemConfig::with_content();
        let obs = observed_cfg();
        let sim = Simulator::new(cfg.clone());
        let (ref_stats, ref_obs) = sim.try_run_observed(&w, &obs).unwrap();

        let mut session = sim.session(&w, Some(&obs));
        for _ in 0..2 {
            assert!(!session.step().unwrap(), "smoke run ended before step 2");
        }
        let bytes = session.snapshot();
        drop(session);

        let mut resumed = Simulator::new(cfg).resume(&w, Some(&obs), &bytes).unwrap();
        while !resumed.step().unwrap() {}
        let (stats, observation) = resumed.finish();
        assert_eq!(format!("{ref_stats:?}"), format!("{stats:?}"));
        assert_eq!(ref_obs.windows, observation.windows);
        assert_eq!(ref_obs.events, observation.events);
        assert_eq!(ref_obs.trace_recorded, observation.trace_recorded);
        assert_eq!(ref_obs.trace_overwritten, observation.trace_overwritten);
        assert_eq!(ref_obs.trace_sampled_out, observation.trace_sampled_out);
        assert!(
            ref_obs
                .profile
                .as_ref()
                .is_some_and(|p| { !p.load_to_use.is_empty() && !p.rob_stall.is_empty() }),
            "profile histograms collected samples"
        );
        assert_eq!(ref_obs.profile, observation.profile);
    }

    #[test]
    fn resume_rejects_wrong_workload_or_config() {
        let w = Benchmark::Slsb.build(Scale::smoke(), 31);
        let sim = Simulator::new(SystemConfig::with_content());
        let mut session = sim.session(&w, None);
        session.step().unwrap();
        let bytes = session.snapshot();

        // Different workload seed → different fingerprint.
        let other = Benchmark::Slsb.build(Scale::smoke(), 32);
        match sim.resume(&other, None, &bytes) {
            Err(CdpError::Snapshot(cdp_types::SnapshotError::FingerprintMismatch { .. })) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }

        // One load's address, or one word of the image, changed.
        use cdp_core::UopKind;
        let (i, addr) = (w.program.uops.iter().enumerate())
            .find_map(|(i, u)| match u.kind {
                UopKind::Load { vaddr } => Some((i, vaddr)),
                _ => None,
            })
            .expect("a load");
        let mut moved = w.clone();
        moved.program.uops[i].kind = UopKind::Load {
            vaddr: addr.offset(4),
        };
        let mut rewritten = w.clone();
        let word = rewritten.space.read_u32(addr);
        rewritten.space.write_u32(addr, word ^ 1);
        for changed in [&moved, &rewritten] {
            assert!(matches!(
                sim.resume(changed, None, &bytes),
                Err(CdpError::Snapshot(
                    cdp_types::SnapshotError::FingerprintMismatch { .. }
                ))
            ));
        }

        // Different system config → different fingerprint.
        let sim2 = Simulator::new(SystemConfig::asplos2002());
        assert!(matches!(
            sim2.resume(&w, None, &bytes),
            Err(CdpError::Snapshot(
                cdp_types::SnapshotError::FingerprintMismatch { .. }
            ))
        ));

        // Observability config is part of the fingerprint too.
        let obs = observed_cfg();
        assert!(matches!(
            sim.resume(&w, Some(&obs), &bytes),
            Err(CdpError::Snapshot(
                cdp_types::SnapshotError::FingerprintMismatch { .. }
            ))
        ));
    }

    #[test]
    fn resume_rejects_corruption_without_panicking() {
        let w = Benchmark::Tpcc1.build(Scale::smoke(), 41);
        let sim = Simulator::new(SystemConfig::with_content());
        let mut session = sim.session(&w, None);
        session.step().unwrap();
        let bytes = session.snapshot();

        // Every truncation prefix must yield a typed error, never a panic.
        for len in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    sim.resume(&w, None, &bytes[..len]),
                    Err(CdpError::Snapshot(_))
                ),
                "truncation to {len} bytes must fail with a typed error"
            );
        }

        // A flipped payload byte breaks a section checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        assert!(matches!(
            sim.resume(&w, None, &flipped),
            Err(CdpError::Snapshot(_))
        ));
    }
}
