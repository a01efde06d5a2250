//! Windowed metrics time-series and per-run observation bundles.
//!
//! [`Simulator::try_run_observed`](crate::Simulator::try_run_observed)
//! drives the core in windows (exactly like the fault-check loop — window
//! boundaries change no simulated state) and snapshots a
//! [`MetricsWindow`] delta at each boundary. Together with the drained
//! trace ring and the latency histograms this forms an [`Observation`].
//! A pooled job returns its observation in its
//! [`JobReport`](crate::JobReport), and [`Pool::run_sims_profiled`]
//! returns the reports in submission order, so artifacts built from them
//! are deterministic regardless of thread scheduling.
//!
//! [`Pool::run_sims_profiled`]: crate::Pool::run_sims_profiled

use cdp_obs::{Json, TraceEvent, TraceRing};

use crate::stats::MemStats;

/// Per-window deltas of the headline metrics (one JSONL record).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricsWindow {
    /// Window index (0-based, measurement phase only).
    pub window: usize,
    /// µops retired in this window.
    pub retired: u64,
    /// Cycles elapsed in this window.
    pub cycles: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// Demand accesses reaching the L2.
    pub l2_demand_accesses: u64,
    /// Demand L2 misses that went to memory.
    pub l2_demand_misses: u64,
    /// DTLB misses (demand page walks).
    pub dtlb_misses: u64,
    /// Page walks triggered by prefetch translation.
    pub prefetch_walks: u64,
    /// Stride prefetches issued.
    pub stride_issued: u64,
    /// Stride useful (full + partial).
    pub stride_useful: u64,
    /// Content prefetches issued.
    pub content_issued: u64,
    /// Content useful (full + partial).
    pub content_useful: u64,
    /// Markov prefetches issued.
    pub markov_issued: u64,
    /// Markov useful (full + partial).
    pub markov_useful: u64,
    /// Prefetches dropped (all reasons).
    pub drops: u64,
    /// Reinforcement rescans.
    pub rescans: u64,
}

impl MetricsWindow {
    /// Builds the delta between two cumulative snapshots.
    #[must_use]
    pub fn delta(
        window: usize,
        retired: u64,
        cycles: u64,
        mem: &MemStats,
        prev: &MemStats,
    ) -> Self {
        MetricsWindow {
            window,
            retired,
            cycles,
            l1_misses: mem.l1_misses - prev.l1_misses,
            l2_demand_accesses: mem.l2_demand_accesses - prev.l2_demand_accesses,
            l2_demand_misses: mem.l2_demand_misses - prev.l2_demand_misses,
            dtlb_misses: mem.dtlb_misses - prev.dtlb_misses,
            prefetch_walks: mem.prefetch_walks - prev.prefetch_walks,
            stride_issued: mem.stride.issued - prev.stride.issued,
            stride_useful: mem.stride.useful() - prev.stride.useful(),
            content_issued: mem.content.issued - prev.content.issued,
            content_useful: mem.content.useful() - prev.content.useful(),
            markov_issued: mem.markov.issued - prev.markov.issued,
            markov_useful: mem.markov.useful() - prev.markov.useful(),
            drops: mem.drops.total() - prev.drops.total(),
            rescans: mem.rescans - prev.rescans,
        }
    }

    /// Misses per 1000 µops within the window.
    #[must_use]
    pub fn mptu(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.l2_demand_misses as f64 * 1000.0 / self.retired as f64
        }
    }

    /// Instructions per cycle within the window.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Demand L2 miss rate within the window (misses / L2 demand accesses).
    #[must_use]
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_demand_accesses == 0 {
            0.0
        } else {
            self.l2_demand_misses as f64 / self.l2_demand_accesses as f64
        }
    }

    /// Serializes the window (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.usize(self.window);
        enc.u64(self.retired);
        enc.u64(self.cycles);
        enc.u64(self.l1_misses);
        enc.u64(self.l2_demand_accesses);
        enc.u64(self.l2_demand_misses);
        enc.u64(self.dtlb_misses);
        enc.u64(self.prefetch_walks);
        enc.u64(self.stride_issued);
        enc.u64(self.stride_useful);
        enc.u64(self.content_issued);
        enc.u64(self.content_useful);
        enc.u64(self.markov_issued);
        enc.u64(self.markov_useful);
        enc.u64(self.drops);
        enc.u64(self.rescans);
    }

    /// Restores a window written by [`MetricsWindow::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(dec: &mut cdp_snap::Dec<'_>) -> Result<Self, cdp_types::SnapshotError> {
        Ok(MetricsWindow {
            window: dec.usize("window index")?,
            retired: dec.u64("window retired")?,
            cycles: dec.u64("window cycles")?,
            l1_misses: dec.u64("window l1_misses")?,
            l2_demand_accesses: dec.u64("window l2_demand_accesses")?,
            l2_demand_misses: dec.u64("window l2_demand_misses")?,
            dtlb_misses: dec.u64("window dtlb_misses")?,
            prefetch_walks: dec.u64("window prefetch_walks")?,
            stride_issued: dec.u64("window stride_issued")?,
            stride_useful: dec.u64("window stride_useful")?,
            content_issued: dec.u64("window content_issued")?,
            content_useful: dec.u64("window content_useful")?,
            markov_issued: dec.u64("window markov_issued")?,
            markov_useful: dec.u64("window markov_useful")?,
            drops: dec.u64("window drops")?,
            rescans: dec.u64("window rescans")?,
        })
    }

    /// Renders the window as a flat JSON object (one JSONL line's payload).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("window", Json::U64(self.window as u64));
        o.set("retired", Json::U64(self.retired));
        o.set("cycles", Json::U64(self.cycles));
        o.set("ipc", Json::F64(self.ipc()));
        o.set("mptu", Json::F64(self.mptu()));
        o.set("l1_misses", Json::U64(self.l1_misses));
        o.set("l2_demand_accesses", Json::U64(self.l2_demand_accesses));
        o.set("l2_demand_misses", Json::U64(self.l2_demand_misses));
        o.set("l2_miss_rate", Json::F64(self.l2_miss_rate()));
        o.set("dtlb_misses", Json::U64(self.dtlb_misses));
        o.set("prefetch_walks", Json::U64(self.prefetch_walks));
        o.set("stride_issued", Json::U64(self.stride_issued));
        o.set("stride_useful", Json::U64(self.stride_useful));
        o.set("content_issued", Json::U64(self.content_issued));
        o.set("content_useful", Json::U64(self.content_useful));
        o.set("markov_issued", Json::U64(self.markov_issued));
        o.set("markov_useful", Json::U64(self.markov_useful));
        o.set("drops", Json::U64(self.drops));
        o.set("rescans", Json::U64(self.rescans));
        o
    }
}

/// Everything one observed run produced beyond its `RunStats`.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Per-window metrics deltas (empty when no metrics window was set).
    pub windows: Vec<MetricsWindow>,
    /// Trace events drained from the ring (empty when tracing was off).
    pub events: Vec<TraceEvent>,
    /// Total events the ring recorded (including overwritten ones).
    pub trace_recorded: u64,
    /// Events lost to ring overwrite.
    pub trace_overwritten: u64,
    /// Eligible events elided by the sampling stride.
    pub trace_sampled_out: u64,
    /// Latency-attribution histograms (`None` unless `--profile-hist`).
    pub profile: Option<cdp_obs::Profile>,
}

impl Observation {
    /// Builds an observation from the per-run pieces.
    #[must_use]
    pub fn new(
        windows: Vec<MetricsWindow>,
        tracer: Option<TraceRing>,
        profile: Option<cdp_obs::Profile>,
    ) -> Self {
        match tracer {
            Some(ring) => Observation {
                windows,
                events: ring.events(),
                trace_recorded: ring.recorded(),
                trace_overwritten: ring.overwritten(),
                trace_sampled_out: ring.sampled_out(),
                profile,
            },
            None => Observation {
                windows,
                profile,
                ..Observation::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_cumulative_counters() {
        let prev = MemStats {
            l2_demand_misses: 10,
            content: crate::stats::EngineCounters {
                issued: 5,
                useful_full: 2,
                ..Default::default()
            },
            drops: crate::stats::DropCounters {
                resident: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut now = prev;
        now.l2_demand_misses = 25;
        now.l2_demand_accesses = 100;
        now.content.issued = 12;
        now.content.useful_partial = 3;
        now.drops.too_deep = 4;
        let w = MetricsWindow::delta(2, 1000, 4000, &now, &prev);
        assert_eq!(w.window, 2);
        assert_eq!(w.l2_demand_misses, 15);
        assert_eq!(w.content_issued, 7);
        assert_eq!(w.content_useful, 3);
        assert_eq!(w.drops, 4);
        assert!((w.mptu() - 15.0).abs() < 1e-12);
        assert!((w.ipc() - 0.25).abs() < 1e-12);
        assert!((w.l2_miss_rate() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn window_json_is_parsable_and_complete() {
        let w = MetricsWindow {
            window: 1,
            retired: 65_536,
            cycles: 100_000,
            l2_demand_misses: 42,
            ..MetricsWindow::default()
        };
        let j = w.to_json();
        for key in [
            "window",
            "retired",
            "cycles",
            "ipc",
            "mptu",
            "l2_miss_rate",
            "drops",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert!(Json::parse(&j.to_string()).is_ok());
    }
}
