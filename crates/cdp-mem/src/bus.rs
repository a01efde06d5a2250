//! Front-side bus and DRAM timing model.
//!
//! Table 1: 4.26 GB/s bandwidth (≈60 processor cycles of occupancy per
//! 64-byte line at 4 GHz), 460 cycles of round-trip latency (8 bus cycles
//! through the chipset + 55 ns DRAM access), and a 32-entry bus queue.
//!
//! The model is analytic rather than slot-by-slot, but it honors the
//! §3.5 arbiter rule that "demand requests are given the highest
//! priority": demand transfers are scheduled against a demand-only
//! bandwidth track, so they never queue behind speculative traffic, while
//! prefetch transfers queue behind *everything*. The prefetch backlog
//! (scheduled-but-not-started transfers) is exposed via
//! [`Bus::backlog_at`]; the hierarchy squashes prefetches when it exceeds
//! the 32-entry bus queue, reproducing the paper's drop behavior.

use std::collections::VecDeque;

use cdp_types::BusConfig;

/// Cumulative bus statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Line transfers performed.
    pub transfers: u64,
    /// Demand-priority transfers.
    pub demand_transfers: u64,
    /// Cycles the data path was occupied.
    pub busy_cycles: u64,
    /// Transfers that waited for a queue slot (full outstanding window).
    pub queue_waits: u64,
}

impl cdp_snap::Record for BusStats {
    fn fields<C: cdp_snap::Codec>(&mut self, c: &mut C) -> Result<(), C::Error> {
        c.u64(&mut self.transfers, "bus transfers")?;
        c.u64(&mut self.demand_transfers, "bus demand transfers")?;
        c.u64(&mut self.busy_cycles, "bus busy cycles")?;
        c.u64(&mut self.queue_waits, "bus queue waits")
    }
}

/// The bus + DRAM model.
///
/// # Examples
///
/// ```
/// use cdp_mem::Bus;
/// use cdp_types::BusConfig;
///
/// let mut bus = Bus::new(&BusConfig::default());
/// let t0 = bus.schedule(100, false);
/// assert_eq!(t0, 100 + 460);
/// // A prefetch issued in the same cycle waits for the data path...
/// let t1 = bus.schedule(100, false);
/// assert_eq!(t1, 100 + 60 + 460);
/// // ...but a demand does not queue behind speculative traffic.
/// let t2 = bus.schedule(100, true);
/// assert_eq!(t2, 100 + 460);
/// ```
#[derive(Clone, Debug)]
pub struct Bus {
    latency: u64,
    cycles_per_line: u64,
    queue_size: usize,
    /// Data-path free time counting all traffic.
    next_free_all: u64,
    /// Data-path free time counting only demand-priority traffic.
    next_free_demand: u64,
    outstanding: VecDeque<u64>,
    /// Completion times of outstanding demand transfers only.
    outstanding_demand: VecDeque<u64>,
    /// Start times of scheduled prefetch transfers (monotone).
    prefetch_starts: VecDeque<u64>,
    stats: BusStats,
}

impl Bus {
    /// Creates a bus with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `queue_size` is zero.
    pub fn new(cfg: &BusConfig) -> Self {
        assert!(cfg.queue_size > 0, "bus queue must hold at least one entry");
        Bus {
            latency: cfg.latency,
            cycles_per_line: cfg.cycles_per_line,
            queue_size: cfg.queue_size,
            next_free_all: 0,
            next_free_demand: 0,
            outstanding: VecDeque::new(),
            outstanding_demand: VecDeque::new(),
            prefetch_starts: VecDeque::new(),
            stats: BusStats::default(),
        }
    }

    /// Round-trip latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Bus queue capacity.
    pub fn queue_size(&self) -> usize {
        self.queue_size
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Number of transfers currently outstanding at cycle `now`.
    pub fn outstanding_at(&mut self, now: u64) -> usize {
        self.prune(now);
        self.outstanding.len()
    }

    /// Transfers scheduled but not yet started at `now`, in line-transfer
    /// units (total bandwidth debt, demand + prefetch).
    pub fn backlog_at(&self, now: u64) -> usize {
        let backlog_cycles = self.next_free_all.saturating_sub(now);
        (backlog_cycles / self.cycles_per_line.max(1)) as usize
    }

    /// *Prefetch* transfers scheduled but not yet started at `now` — the
    /// queue occupancy the §3.5 arbiters squash new prefetches against.
    /// Demand bursts do not count here: in the paper's arbiter, demands
    /// displace prefetches rather than blocking them forever.
    pub fn prefetch_backlog_at(&mut self, now: u64) -> usize {
        while matches!(self.prefetch_starts.front(), Some(&t) if t <= now) {
            self.prefetch_starts.pop_front();
        }
        self.prefetch_starts.len()
    }

    /// Computes the completion time [`Bus::schedule`] *would* return for a
    /// transfer at `now`, without scheduling anything. Used by the demand
    /// promotion path to decide whether re-arbitrating a backlogged
    /// prefetch at demand priority is actually faster.
    pub fn peek_schedule(&self, now: u64, demand: bool) -> u64 {
        let mut start = if demand {
            self.next_free_demand.max(now)
        } else {
            self.next_free_all.max(now)
        };
        let class_queue = if demand {
            &self.outstanding_demand
        } else {
            &self.outstanding
        };
        if class_queue.len() >= self.queue_size {
            if let Some(&oldest) = class_queue.front() {
                start = start.max(oldest);
            }
        }
        start + self.latency
    }

    /// Whether the bus data path is idle at `now` (used by the §3.5
    /// pollution limit study, which injects bad prefetches on idle cycles).
    pub fn is_idle_at(&self, now: u64) -> bool {
        self.next_free_all <= now
    }

    fn prune(&mut self, now: u64) {
        while matches!(self.outstanding.front(), Some(&t) if t <= now) {
            self.outstanding.pop_front();
        }
        while matches!(self.outstanding_demand.front(), Some(&t) if t <= now) {
            self.outstanding_demand.pop_front();
        }
    }

    /// Schedules one line transfer requested at cycle `now`; returns the
    /// cycle at which the fill data arrives. Demand transfers never queue
    /// behind speculative traffic (strict priority; in the paper's
    /// arbiters a demand displaces the lowest-priority prefetch rather
    /// than waiting for it), so a demand's queue-full wait considers only
    /// *demand*-class occupancy. Prefetch transfers queue behind
    /// everything.
    pub fn schedule(&mut self, now: u64, demand: bool) -> u64 {
        self.prune(now);
        let mut start = if demand {
            self.next_free_demand.max(now)
        } else {
            self.next_free_all.max(now)
        };
        let class_queue = if demand {
            &mut self.outstanding_demand
        } else {
            &mut self.outstanding
        };
        if class_queue.len() >= self.queue_size {
            // Wait for the oldest same-class transfer to retire its slot.
            let oldest = *class_queue.front().expect("queue non-empty");
            start = start.max(oldest);
            self.stats.queue_waits += 1;
            class_queue.pop_front();
        }
        if demand {
            self.next_free_demand = start + self.cycles_per_line;
            self.stats.demand_transfers += 1;
        } else {
            // Bound the backlog bookkeeping even if a caller ignores
            // `prefetch_backlog_at` (the hierarchy squashes prefetches at
            // `queue_size`, so entries beyond a few multiples are stale).
            if self.prefetch_starts.len() >= self.queue_size * 4 {
                self.prefetch_starts.pop_front();
            }
            self.prefetch_starts.push_back(start);
        }
        self.next_free_all = self.next_free_all.max(start) + self.cycles_per_line;
        let complete = start + self.latency;
        // Insert keeping completion order (starts are monotone per track,
        // but the two tracks interleave).
        let pos = self
            .outstanding
            .iter()
            .rposition(|&t| t <= complete)
            .map(|p| p + 1)
            .unwrap_or(0);
        self.outstanding.insert(pos, complete);
        if demand {
            self.outstanding_demand.push_back(complete);
        }
        self.stats.transfers += 1;
        self.stats.busy_cycles += self.cycles_per_line;
        complete
    }

    /// Serializes the complete bus state (timing tracks, the three
    /// outstanding queues in order, and statistics).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.next_free_all);
        enc.u64(self.next_free_demand);
        for q in [
            &self.outstanding,
            &self.outstanding_demand,
            &self.prefetch_starts,
        ] {
            enc.seq_len(q.len());
            for &t in q {
                enc.u64(t);
            }
        }
        enc.put(self.stats);
    }

    /// Restores state written by [`Bus::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation or a
    /// corrupted queue length.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.next_free_all = dec.u64("bus next_free_all")?;
        self.next_free_demand = dec.u64("bus next_free_demand")?;
        for q in [
            &mut self.outstanding,
            &mut self.outstanding_demand,
            &mut self.prefetch_starts,
        ] {
            let len = dec.seq_len(8, "bus queue length")?;
            q.clear();
            for _ in 0..len {
                q.push_back(dec.u64("bus queue entry")?);
            }
        }
        self.stats = dec.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::rng::Rng;

    fn bus() -> Bus {
        Bus::new(&BusConfig::default())
    }

    #[test]
    fn single_transfer_latency() {
        let mut b = bus();
        assert_eq!(b.schedule(0, true), 460);
        assert_eq!(b.stats().transfers, 1);
        assert_eq!(b.stats().demand_transfers, 1);
    }

    #[test]
    fn back_to_back_prefetches_serialize_on_occupancy() {
        let mut b = bus();
        assert_eq!(b.schedule(0, false), 460);
        assert_eq!(b.schedule(0, false), 60 + 460);
        assert_eq!(b.schedule(0, false), 120 + 460);
    }

    #[test]
    fn demands_bypass_prefetch_backlog() {
        let mut b = bus();
        for _ in 0..10 {
            b.schedule(0, false);
        }
        // The demand track is empty: a demand at cycle 0 starts immediately.
        assert_eq!(b.schedule(0, true), 460);
    }

    #[test]
    fn demands_serialize_with_each_other() {
        let mut b = bus();
        assert_eq!(b.schedule(0, true), 460);
        assert_eq!(b.schedule(0, true), 60 + 460);
    }

    #[test]
    fn prefetches_queue_behind_demands() {
        let mut b = bus();
        b.schedule(0, true);
        b.schedule(0, true);
        assert_eq!(b.schedule(0, false), 120 + 460);
    }

    #[test]
    fn backlog_counts_unstarted_transfers() {
        let mut b = bus();
        assert_eq!(b.backlog_at(0), 0);
        for _ in 0..8 {
            b.schedule(0, false);
        }
        assert_eq!(b.backlog_at(0), 8);
        // Backlog drains over time.
        assert_eq!(b.backlog_at(240), 4);
        assert_eq!(b.backlog_at(10_000), 0);
    }

    #[test]
    fn spaced_transfers_do_not_interfere() {
        let mut b = bus();
        assert_eq!(b.schedule(0, true), 460);
        assert_eq!(b.schedule(1000, true), 1460);
    }

    #[test]
    fn queue_full_adds_wait() {
        let mut b = Bus::new(&BusConfig {
            latency: 100,
            cycles_per_line: 1,
            queue_size: 2,
        });
        let t0 = b.schedule(0, true);
        let _ = b.schedule(0, true);
        let t2 = b.schedule(0, true);
        assert!(t2 >= t0 + 100, "third transfer delayed: {t2}");
        assert_eq!(b.stats().queue_waits, 1);
    }

    #[test]
    fn idle_detection() {
        let mut b = bus();
        assert!(b.is_idle_at(0));
        b.schedule(0, false);
        assert!(!b.is_idle_at(30));
        assert!(b.is_idle_at(60));
    }

    #[test]
    fn outstanding_prunes_completed() {
        let mut b = bus();
        b.schedule(0, true);
        b.schedule(0, false);
        assert_eq!(b.outstanding_at(0), 2);
        assert_eq!(b.outstanding_at(10_000), 0);
    }

    #[test]
    fn peek_matches_schedule_without_mutating() {
        let mut b = bus();
        for _ in 0..5 {
            b.schedule(0, false);
        }
        let predicted = b.peek_schedule(100, true);
        let actual = b.schedule(100, true);
        assert_eq!(predicted, actual);
        // A second peek after the schedule sees the new demand-track state.
        assert!(b.peek_schedule(100, true) > predicted);
    }

    #[test]
    fn peek_is_pure() {
        let mut b = bus();
        b.schedule(0, false);
        let s1 = b.stats();
        let _ = b.peek_schedule(50, true);
        let _ = b.peek_schedule(50, false);
        assert_eq!(b.stats(), s1, "peeking never counts transfers");
    }

    /// Completion time respects minimum latency and demand completions
    /// are monotone for a time-sorted demand stream.
    #[test]
    fn prop_demand_completions_monotone() {
        let mut rng = Rng::seed_from_u64(0xb5b5_0001);
        for _ in 0..64 {
            let n = rng.gen_range_usize(1..100);
            let mut times: Vec<u64> = (0..n).map(|_| rng.next_u64() % 10_000).collect();
            times.sort_unstable();
            let mut b = bus();
            let mut last = 0;
            for t in times {
                let c = b.schedule(t, true);
                assert!(c >= last);
                assert!(c >= t + 460);
                last = c;
            }
        }
    }

    /// Busy cycles equal transfers x occupancy.
    #[test]
    fn prop_busy_accounting() {
        let mut rng = Rng::seed_from_u64(0xb5b5_0002);
        for _ in 0..32 {
            let n = rng.gen_range_usize(1..50);
            let mut b = bus();
            for i in 0..n {
                b.schedule(i as u64, i % 2 == 0);
            }
            assert_eq!(b.stats().busy_cycles, n as u64 * 60);
        }
    }

    /// A demand is never slower than the same demand on an idle bus
    /// plus the full outstanding-window wait.
    #[test]
    fn prop_demand_bounded_wait() {
        for prefetches in 0usize..64 {
            let mut b = bus();
            for _ in 0..prefetches {
                b.schedule(0, false);
            }
            let c = b.schedule(0, true);
            // Worst case: queue-full wait for the oldest completion.
            assert!(c <= 460 + 460 + 60 * 33);
        }
    }
}
