//! Experiment harness: one entry point per table/figure of the paper's
//! evaluation.
//!
//! | Module | Paper artifact | What it reproduces |
//! |--------|----------------|--------------------|
//! | [`table1`] | Table 1 | the 4-GHz system configuration |
//! | [`fig1`] | Figure 1 | non-cumulative L2 MPTU warm-up trace (4 MB UL2) |
//! | [`table2`] | Table 2 | per-benchmark uops + L2 MPTU @ 1 MB / 4 MB |
//! | [`fig2`] | Figure 2 | VAM compare/filter/align bit positions |
//! | [`fig34`] | Figures 3–4 | chaining & reinforcement walk-through |
//! | [`fig7`] | Figure 7 | coverage/accuracy vs compare.filter bits |
//! | [`fig8`] | Figure 8 | coverage/accuracy vs align bits & scan step |
//! | [`fig9`] | Figure 9 | speedup vs prefetch depth × width × reinforcement |
//! | [`fig10`] | Figure 10 | UL2 load-request distribution + per-bench speedups |
//! | [`fig11`] | Figure 11 | Markov (1/8, 1/2, unbounded) vs content prefetcher |
//! | [`tlb`] | §4.2.2 | DTLB 64→1024 sweep (TLB-prefetching contribution) |
//! | [`pollution`] | §3.5 | bad-prefetch injection limit study |
//! | [`suite_summary`] | abstract / §4.2.1 | per-benchmark speedups, stateless vs reinforced |
//! | [`extensions`] | §4.1 / Fig 4(c) / ref \[11\] | adaptive knobs, rescan margins, stream buffers |
//! | [`sensitivity`] | §2.1 motivation | bus-latency and L2-size sweeps |
//! | [`tournament`] | §5 methodology | equal-silicon prefetcher zoo (Markov, delta, jump, CDP, perceptron hybrids) |
//!
//! Every simulating experiment takes a [`RunLength`](cdp_sim::RunLength)
//! (how big a run) and a [`Context`] (how to run it: pool, fault plan,
//! cache, checkpoints, observability) and returns a typed result with a
//! `render()` method producing the table/series the paper reports.

#![warn(missing_docs)]

pub mod common;
pub mod context;
pub mod extensions;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig34;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs;
pub mod onecell;
pub mod pollution;
pub mod report;
pub mod sensitivity;
pub mod suite_summary;
pub mod table1;
pub mod table2;
pub mod tlb;
pub mod tournament;

pub use common::CellFailure;
pub use context::Context;
