//! Cell runners: the product path every timed cell takes, and the traced
//! runner that splits a cell's host time across crates by timing calls
//! into their public functions from outside.
//!
//! The traced runner rebuilds `Simulator::session`'s loop by hand (warm-up,
//! `reset_stats`, then fixed windows) around a [`MemoryModel`] wrapper of
//! the hierarchy and a [`UopSource`] wrapper of the trace generator. Its
//! statistics must equal the product path's exactly; the oracle checks
//! both.

use std::cell::Cell as StdCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use cdp_core::{Core, MemoryModel, Uop, UopSource};
use cdp_sim::{Hierarchy, RunStats, Simulator};
use cdp_types::{AccessKind, CdpError, SnapshotError, SystemConfig, VirtAddr};
use cdp_workloads::Workload;

/// Retired uops per driving window, as in `Simulator::try_run`.
const WINDOW_UOPS: u64 = 65_536;

/// One access in `1 << SAMPLE_SHIFT` is timed. An `Instant::now` pair costs
/// about half of a cache-resident access, so timing every access would
/// inflate the hierarchy's apparent cost on cache-resident code by half.
const SAMPLE_SHIFT: u32 = 3;

/// The measured cost of reading the clock.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    /// Nanoseconds one `Instant::now()` call takes; a timed interval
    /// overstates its body by this much, and a timed call adds twice
    /// this to its caller.
    pub now_ns: f64,
}

impl Clock {
    /// Calibrates on back-to-back clock reads (median of several
    /// batches).
    pub fn calibrate() -> Clock {
        const READS: u32 = 20_000;
        let mut batches: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..READS {
                    std::hint::black_box(Instant::now());
                }
                t.elapsed().as_nanos() as f64 / f64::from(READS)
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        Clock {
            now_ns: batches[batches.len() / 2],
        }
    }
}

/// Host time of a product-path cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainTimes {
    /// `Simulator::session` (hierarchy and core construction plus the
    /// workload fingerprint).
    pub session_s: f64,
    /// Stepping the session to completion and collecting its stats.
    pub sim_s: f64,
}

/// Runs a cell the way `SimJob` does: `Simulator::session`, then `step`
/// until done, then `finish`.
///
/// # Errors
///
/// An invalid configuration or a demand-path fault.
pub fn run_plain(cfg: &SystemConfig, w: &Workload) -> Result<(RunStats, PlainTimes), CdpError> {
    let t0 = Instant::now();
    let sim = Simulator::try_new(cfg.clone())?;
    let mut session = sim.session(w, None);
    let t1 = Instant::now();
    while !session.step()? {}
    let stats = session.finish().0;
    let t2 = Instant::now();
    Ok((
        stats,
        PlainTimes {
            session_s: (t1 - t0).as_secs_f64(),
            sim_s: (t2 - t1).as_secs_f64(),
        },
    ))
}

/// Host-time split of one traced cell, in nanoseconds except counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// Hierarchy and core construction.
    pub construct_ns: f64,
    /// Inside `Core::run_until_retired`, everything included.
    pub run_ns: f64,
    /// Estimated time inside `MemoryModel::access` (sampled, clock cost
    /// removed).
    pub hierarchy_ns: f64,
    /// Time inside `UopSource::fill` (clock cost removed).
    pub feed_ns: f64,
    /// Clock reads the wrappers added inside `run_until_retired`.
    pub clock_ns: f64,
    /// Hierarchy accesses.
    pub accesses: u64,
    /// Uops the feed generated.
    pub fed_uops: u64,
    /// Uops retired, warm-up included.
    pub uops: u64,
    /// Cycles simulated, warm-up included.
    pub cycles: u64,
}

impl LayerTimes {
    /// The core's self time: `run_until_retired` minus its children and
    /// the clock reads made on their behalf.
    pub fn core_ns(&self) -> f64 {
        self.run_ns - self.hierarchy_ns - self.feed_ns - self.clock_ns
    }

    /// Adds another cell's times.
    pub fn add(&mut self, o: &LayerTimes) {
        self.construct_ns += o.construct_ns;
        self.run_ns += o.run_ns;
        self.hierarchy_ns += o.hierarchy_ns;
        self.feed_ns += o.feed_ns;
        self.clock_ns += o.clock_ns;
        self.accesses += o.accesses;
        self.fed_uops += o.fed_uops;
        self.uops += o.uops;
        self.cycles += o.cycles;
    }
}

/// A [`MemoryModel`] that forwards to the hierarchy and times a
/// pseudo-random sample of the calls (random, so a loop's access period
/// cannot alias with the sample).
struct TimedMem<'a, 'w> {
    inner: &'a mut Hierarchy<'w>,
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
    rng: u64,
}

impl MemoryModel for TimedMem<'_, '_> {
    fn access(&mut self, pc: u32, vaddr: VirtAddr, kind: AccessKind, now: u64) -> u64 {
        self.calls += 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if self.rng & ((1 << SAMPLE_SHIFT) - 1) != 0 {
            return self.inner.access(pc, vaddr, kind, now);
        }
        let t = Instant::now();
        let done = self.inner.access(pc, vaddr, kind, now);
        self.sampled_ns += t.elapsed().as_nanos() as u64;
        self.sampled += 1;
        done
    }
}

/// Feed counters shared between a [`TimedSource`] inside the core and
/// the runner that reads them.
#[derive(Debug, Default)]
struct FeedCounters {
    ns: StdCell<u64>,
    calls: StdCell<u64>,
    uops: StdCell<u64>,
}

/// A [`UopSource`] that times every `fill` of the wrapped generator.
#[derive(Debug)]
struct TimedSource {
    inner: Box<dyn UopSource>,
    counters: Rc<FeedCounters>,
}

impl UopSource for TimedSource {
    fn fill(&mut self, out: &mut VecDeque<Uop>) -> usize {
        let t = Instant::now();
        let n = self.inner.fill(out);
        let c = &self.counters;
        c.ns.set(c.ns.get() + t.elapsed().as_nanos() as u64);
        c.calls.set(c.calls.get() + 1);
        c.uops.set(c.uops.get() + n as u64);
        n
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn box_clone(&self) -> Box<dyn UopSource> {
        Box::new(TimedSource {
            inner: self.inner.box_clone(),
            counters: Rc::clone(&self.counters),
        })
    }

    fn save_cursor(&self, enc: &mut cdp_snap::Enc) {
        self.inner.save_cursor(enc);
    }

    fn restore_cursor(&mut self, dec: &mut cdp_snap::Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_cursor(dec)
    }
}

/// Runs a cell through the traced runner.
///
/// # Errors
///
/// The first demand-path fault the hierarchy latches.
pub fn run_traced(
    cfg: &SystemConfig,
    w: &Workload,
    clock: Clock,
) -> Result<(RunStats, LayerTimes), CdpError> {
    let t0 = Instant::now();
    let counters = Rc::new(FeedCounters::default());
    let mut hierarchy = Hierarchy::new(cfg.clone(), &w.space);
    let mut core = match &w.stream {
        Some(spec) => Core::new_streaming(
            cfg.core.clone(),
            Box::new(TimedSource {
                inner: spec.make_source(),
                counters: Rc::clone(&counters),
            }),
        ),
        None => Core::new(cfg.core.clone(), &w.program),
    };
    let construct = t0.elapsed();
    let mut mem = TimedMem {
        inner: &mut hierarchy,
        calls: 0,
        sampled: 0,
        sampled_ns: 0,
        rng: 0x9e37_79b9_7f4a_7c15,
    };
    let mut run_ns = 0u64;
    let mut drive = |core: &mut Core<'_>, mem: &mut TimedMem<'_, '_>, target: u64| {
        let t = Instant::now();
        let done = core.run_until_retired(mem, target);
        run_ns += t.elapsed().as_nanos() as u64;
        match mem.inner.take_fault() {
            Some(e) => Err(e),
            None => Ok(done),
        }
    };
    let mut warm = (0, 0);
    let mut target = 0;
    if cfg.warmup_uops > 0 {
        target = cfg.warmup_uops;
        drive(&mut core, &mut mem, target)?;
        warm = (core.stats().retired, core.stats().cycles);
        core.reset_stats();
        mem.inner.reset_stats();
    }
    loop {
        target += WINDOW_UOPS;
        if drive(&mut core, &mut mem, target)? {
            break;
        }
    }
    let (calls, sampled, sampled_ns) = (mem.calls, mem.sampled, mem.sampled_ns);
    let cs = core.stats();
    let stats = RunStats {
        cycles: cs.cycles,
        retired: cs.retired,
        core: cs,
        mem: *hierarchy.stats(),
        content: hierarchy.content_stats(),
        stride: hierarchy.stride_stats(),
        markov: hierarchy.markov_stats(),
        stream: hierarchy.stream_stats(),
        adaptive: hierarchy.adaptive_state(),
        delta: hierarchy.delta_stats(),
        jump: hierarchy.jump_stats(),
        perceptron: hierarchy.perceptron_stats(),
        bus: hierarchy.bus_stats(),
    };
    let c = clock.now_ns;
    let sampled_body = (sampled_ns as f64 - c * sampled as f64).max(0.0);
    let hierarchy_ns = if sampled == 0 {
        0.0
    } else {
        sampled_body * calls as f64 / sampled as f64
    };
    let feed_ns = (counters.ns.get() as f64 - c * counters.calls.get() as f64).max(0.0);
    let times = LayerTimes {
        construct_ns: construct.as_nanos() as f64,
        run_ns: run_ns as f64,
        hierarchy_ns,
        feed_ns,
        clock_ns: 2.0 * c * (sampled + counters.calls.get()) as f64,
        accesses: calls,
        fed_uops: counters.uops.get(),
        uops: warm.0 + cs.retired,
        cycles: warm.1 + cs.cycles,
    };
    Ok((stats, times))
}

/// Statistics of two runs compared field by field (`RunStats` has no
/// `PartialEq`; its `Debug` form covers every field).
pub fn same_stats(a: &RunStats, b: &RunStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}
