//! Full-system simulator for the content-directed prefetching
//! reproduction.
//!
//! * [`hierarchy`] — the Figure 6 memory system: L1 → DTLB/walker → UL2
//!   (with per-line depth bits) → MSHRs → bus → the byte-level image, with
//!   the stride, content, and Markov prefetchers plugged into their hook
//!   points.
//! * [`system`] — [`Simulator`]: core + hierarchy, warm-up handling,
//!   and [`system::speedup`]. [`SimSession`] is the one loop that drives
//!   a core over a hierarchy: it steps window by window, records the
//!   per-window [`MetricsWindow`]s (the Figure 1 MPTU trace) when asked,
//!   and can [`SimSession::snapshot`] the full simulation state between
//!   steps; [`Simulator::resume`] restores a session that continues
//!   bit-identically.
//! * [`stats`] / [`metrics`] — counters and the paper's coverage/accuracy
//!   and Figure 10 timeliness metrics.
//! * [`runner`] — the experiment conventions: seed, workload builder,
//!   §2.2 warm-up budget, and the pointer-heavy tuning subset.
//! * [`exec`] — the parallel experiment engine: a std-only scoped-thread
//!   [`Pool`] running independent simulations across cores with
//!   submission-order (deterministic) results, plus the shared
//!   [`WorkloadCache`]. [`Pool::run_sims_profiled`] runs each
//!   [`SimJob`] once under an optional watchdog and returns a
//!   [`JobReport`] per job: its [`JobOutcome`], its wall time and, for a
//!   job observed under an [`ObsConfig`](cdp_types::ObsConfig), its
//!   [`Observation`].
//! * [`observe`] — windowed metrics time-series ([`MetricsWindow`]) and
//!   the per-run [`Observation`] bundle that manifests and Figure 1 are
//!   built from.
//! * [`fault`] — deterministic, seeded fault injection (corrupt pointer
//!   words, unmap pages, force TLB-walk failures) for robustness tests:
//!   the prefetcher must squash, the demand path must surface typed
//!   [`cdp_types::CdpError`]s.
//!
//! # Examples
//!
//! ```
//! use cdp_sim::{Simulator, RunLength, speedup};
//! use cdp_types::SystemConfig;
//! use cdp_workloads::suite::Benchmark;
//!
//! let w = Benchmark::Slsb.build(RunLength::Smoke.scale(), 42);
//! let base = Simulator::new(SystemConfig::asplos2002()).run(&w);
//! let cdp = Simulator::new(SystemConfig::with_content()).run(&w);
//! println!("speedup: {:.3}", speedup(&base, &cdp));
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod fault;
pub mod hierarchy;
pub mod metrics;
pub mod observe;
pub mod persist;
pub mod runner;
pub mod stats;
pub mod status;
pub mod system;

pub use exec::{
    default_jobs, CheckpointSpec, CheckpointStatus, JobOutcome, JobReport, Pool, ResultCache,
    RunPolicy, SimJob, WorkloadCache, CACHE_STRIPES,
};
pub use fault::{FaultKind, FaultPlan, FaultSpec, WalkFault};
pub use hierarchy::{Hierarchy, L2Meta, PollutionConfig};
pub use metrics::{accuracy, coverage, mean};
pub use observe::{MetricsWindow, Observation};
pub use persist::{decode_result, encode_result, RESULT_VERSION};
pub use runner::build_workload;
pub use stats::{DropCounters, Engine, EngineCounters, MemStats, RequestDistribution};
pub use status::{install_status_sink, status_sink, ResultSource, SourceSlot, StatusSink};
pub use system::{set_fast_forward, speedup, RunLength, RunStats, SimSession, Simulator};
