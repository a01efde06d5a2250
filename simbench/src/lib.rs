//! End-to-end and per-layer host-time benchmark of the CDP simulator.
//!
//! `run.sh` builds this package and the repository's `microbench`, then
//! runs one workload; `README.md` explains the workloads, the metrics,
//! the oracle and the traced run.

pub mod cells;
pub mod io;
pub mod kernels;
pub mod oracle;
pub mod report;
pub mod run;
pub mod traced;
pub mod yardstick;
