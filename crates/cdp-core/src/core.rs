//! The out-of-order execution engine.
//!
//! A cycle-stepped model of the Table 1 machine:
//!
//! * **Fetch/dispatch** — up to `fetch_width` uops per cycle enter the
//!   reorder buffer, provided ROB/load-queue/store-queue entries are free.
//!   Branches are predicted with gshare at fetch; a misprediction stalls
//!   fetch until the branch executes, plus the 28-cycle redirect penalty.
//! * **Issue/execute** — each cycle, the oldest ready uops (all source
//!   registers available) issue, bounded by `issue_width` and by the
//!   integer/memory/FP unit pools. Loads and stores call into the
//!   [`MemoryModel`]; their completion cycle is whatever the memory system
//!   answers, so cache misses, bus contention, and prefetch hits all
//!   surface as dataflow delay. Stores release the pipeline at issue + 1
//!   (they drain from the store buffer) but hold their store-queue entry
//!   until the memory system finishes the line fill, which is how store
//!   misses create back-pressure.
//! * **Retire** — up to `retire_width` completed uops leave the ROB in
//!   program order per cycle.
//!
//! The model skips idle cycles (jumping to the next completion event), so
//! long memory stalls cost simulation time proportional to work, not to
//! stalled cycles.
//!
//! The issue stage has two selectors that pick the same uops in the same
//! order. The default one wakes entries up on bitmasks: per register, the
//! set of unissued ROB entries that read it, so a cycle's ready set is
//! one mask expression and only ready entries are visited. The reference
//! one scans the whole ROB every cycle. It runs when fast-forward is off
//! (the cycle-by-cycle reference schedule that judges the fast path) and
//! for ROBs deeper than the 128-bit masks (DESIGN.md §13.1).

use cdp_types::{AccessKind, CoreConfig, VirtAddr};

use crate::feed::{Feed, UopSource};
use crate::gshare::Gshare;
use crate::uop::{Program, Uop, UopKind, NUM_REGS};
use crate::MemoryModel;

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Uops retired.
    pub retired: u64,
    /// Load uops executed.
    pub loads: u64,
    /// Store uops executed.
    pub stores: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branches whose gshare prediction was wrong.
    pub mispredicts: u64,
    /// Cycles fetch was stalled on a branch redirect.
    pub redirect_stall_cycles: u64,
    /// Loads satisfied by store-to-load forwarding (no cache access).
    pub forwarded_loads: u64,
    /// Sum over elapsed cycles of ROB occupancy (divide by `cycles` for
    /// the average in-flight window).
    pub rob_occupancy_cycles: u64,
}

impl CoreStats {
    /// Retired uops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Average reorder-buffer occupancy (in-flight window size).
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rob_occupancy_cycles as f64 / self.cycles as f64
        }
    }
}

/// `RobEntry::complete_at` sentinel: the uop has not issued yet.
const NOT_ISSUED: u64 = u64::MAX;
/// `RobEntry::sq_free_at` sentinel: no store-queue entry to free.
const NO_SQ: u64 = u64::MAX;
/// `RobEntry::srcs` sentinel: source slot unused. Indexes the
/// permanently-zero pad slot of `reg_ready`, so the per-entry readiness
/// check is two unconditional loads and a `max` — no branches.
const NO_REG: u8 = NUM_REGS as u8;

/// Uop classes, mirrored from [`UopKind`] at dispatch, so neither issue
/// selector reads the feed.
const CLASS_ALU: u8 = 0;
const CLASS_FP: u8 = 1;
const CLASS_LOAD: u8 = 2;
const CLASS_STORE: u8 = 3;
const CLASS_BRANCH: u8 = 4;

/// Width of the issue stage's bitmasks. A uop's mask bit ("slot") is its
/// program index mod `SLOTS`; ROB entries hold consecutive indices, so
/// while `rob_size <= SLOTS` no two in-flight uops share a slot.
const SLOTS: usize = 128;
const _: () = assert!(NUM_REGS <= 64, "`Core::has_cons` is a u64");

/// One in-flight uop. Dispatch copies everything issue needs out of the
/// uop (class, operand, pc, registers), so issue never reads the feed.
/// A snapshot keeps only `idx`, `srcs`, `class`, `complete_at` and
/// `sq_free_at`; restore copies the rest from the uop at `idx` again.
#[derive(Clone, Copy, Debug, Default)]
struct RobEntry {
    /// Index into the program.
    idx: u32,
    /// The uop's pc (memory accesses carry it to the hierarchy).
    pc: u32,
    /// The uop's operand: the latency of an ALU or FP uop, the address
    /// of a load or store, 0 for a branch.
    arg: u32,
    /// Source registers, copied from the uop at dispatch ([`NO_REG`] =
    /// slot unused). The reference scan reads them for every entry every
    /// cycle; keeping them inline makes it touch one flat array.
    srcs: [u8; 2],
    /// [`CLASS_ALU`] .. [`CLASS_BRANCH`].
    class: u8,
    /// Destination register ([`NO_REG`] = none).
    dst: u8,
    /// Completion cycle once issued ([`NOT_ISSUED`] before).
    complete_at: u64,
    /// For stores: cycle the store-queue entry frees (memory completion).
    sq_free_at: u64,
}

impl RobEntry {
    /// The unissued entry for `uop`, program index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the uop writes a register the core does not have (the
    /// [`NO_REG`] pad slot or above).
    fn dispatch(idx: u32, uop: &Uop) -> Self {
        let (class, arg) = match uop.kind {
            UopKind::Alu { latency } => (CLASS_ALU, u32::from(latency)),
            UopKind::Fp { latency } => (CLASS_FP, u32::from(latency)),
            UopKind::Load { vaddr } => (CLASS_LOAD, vaddr.0),
            UopKind::Store { vaddr } => (CLASS_STORE, vaddr.0),
            UopKind::Branch { .. } => (CLASS_BRANCH, 0),
        };
        let dst = match uop.dst {
            Some(r) => {
                assert!(usize::from(r) < NUM_REGS, "uop writes register r{r}");
                r
            }
            None => NO_REG,
        };
        RobEntry {
            idx,
            pc: uop.pc,
            arg,
            srcs: [uop.srcs[0].unwrap_or(NO_REG), uop.srcs[1].unwrap_or(NO_REG)],
            class,
            dst,
            complete_at: NOT_ISSUED,
            sq_free_at: NO_SQ,
        }
    }
}

/// The reorder buffer: a power-of-two ring of entries, oldest first.
/// Position `p` (0 = the head) lives in slot `(head + p) & mask`.
#[derive(Clone, Debug)]
struct Rob {
    slots: Box<[RobEntry]>,
    head: usize,
    len: usize,
}

impl Rob {
    /// An empty ring holding at least `capacity` entries.
    fn new(capacity: usize) -> Self {
        Rob {
            slots: vec![RobEntry::default(); capacity.max(1).next_power_of_two()].into(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, p: usize) -> usize {
        (self.head + p) & (self.slots.len() - 1)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    fn get(&self, p: usize) -> Option<&RobEntry> {
        (p < self.len).then(|| &self[p])
    }

    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len < self.slots.len(), "ROB ring overflow");
        let s = self.slot(self.len);
        self.slots[s] = e;
        self.len += 1;
    }

    fn pop_front(&mut self) -> RobEntry {
        debug_assert!(self.len > 0, "pop from an empty ROB");
        let e = self.slots[self.head];
        self.head = self.slot(1);
        self.len -= 1;
        e
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        (0..self.len).map(move |p| &self[p])
    }
}

impl std::ops::Index<usize> for Rob {
    type Output = RobEntry;

    #[inline]
    fn index(&self, p: usize) -> &RobEntry {
        debug_assert!(p < self.len, "ROB position {p} of {}", self.len);
        &self.slots[self.slot(p)]
    }
}

impl std::ops::IndexMut<usize> for Rob {
    #[inline]
    fn index_mut(&mut self, p: usize) -> &mut RobEntry {
        debug_assert!(p < self.len, "ROB position {p} of {}", self.len);
        let s = self.slot(p);
        &mut self.slots[s]
    }
}

/// One cycle's issue budget: the issue width and the three unit pools.
struct IssueBudget {
    width: usize,
    int: usize,
    fp: usize,
    mem: usize,
}

impl IssueBudget {
    fn new(cfg: &CoreConfig) -> Self {
        IssueBudget {
            width: cfg.issue_width,
            int: cfg.int_units,
            fp: cfg.fp_units,
            mem: cfg.mem_units,
        }
    }

    /// Whether no further uop can issue this cycle.
    fn exhausted(&self) -> bool {
        self.width == 0 || (self.int == 0 && self.fp == 0 && self.mem == 0)
    }

    /// Spends one issue of the width and a functional unit on a uop of
    /// `class`; false (and nothing spent) when that unit pool is used up.
    fn take(&mut self, class: u8) -> bool {
        let pool = match class {
            CLASS_ALU | CLASS_BRANCH => &mut self.int,
            CLASS_FP => &mut self.fp,
            _ => &mut self.mem,
        };
        if *pool == 0 {
            return false;
        }
        *pool -= 1;
        self.width -= 1;
        true
    }
}

/// A resumable instance of the out-of-order core executing one program.
///
/// # Examples
///
/// ```
/// use cdp_core::{Core, FixedLatencyMemory, Program, Uop};
/// use cdp_types::CoreConfig;
///
/// let program: Program = (0..100).map(|i| Uop::alu(i * 4)).collect();
/// let mut core = Core::new(CoreConfig::default(), &program);
/// let mut mem = FixedLatencyMemory { latency: 3 };
/// core.run_to_completion(&mut mem);
/// let stats = core.stats();
/// assert_eq!(stats.retired, 100);
/// // A 3-wide machine retires ~3 independent ALU uops per cycle.
/// assert!(stats.ipc() > 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct Core<'p> {
    cfg: CoreConfig,
    /// Where uops come from: a borrowed whole program, or a streaming
    /// source of which only a sliding window is resident.
    feed: Feed<'p>,
    /// Next uop to fetch.
    fetch_idx: usize,
    /// Fetch is blocked until this cycle (branch redirect).
    fetch_resume_at: u64,
    rob: Rob,
    /// Ready cycle per architectural register, plus one permanently-zero
    /// pad slot indexed by [`NO_REG`] sources.
    reg_ready: [u64; NUM_REGS + 1],
    /// Store-queue completion times still occupying entries (min-heap:
    /// expired entries are popped instead of re-scanning every cycle).
    sq_busy: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    /// Loads in flight (LQ occupancy): completion times (min-heap).
    lq_busy: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    bp: Gshare,
    now: u64,
    stats: CoreStats,
    /// Program index of the mispredicted branch fetch is waiting on.
    pending_redirect: Option<usize>,
    /// Recent store addresses eligible for store-to-load forwarding:
    /// (word address, cycle the data is forwardable).
    forward_window: std::collections::VecDeque<(u32, u64)>,
    // Issue-stage bookkeeping below is derived from the ROB: it is not
    // serialized, and `restore_state` rebuilds it (`rebuild_issue_state`).
    /// Loads in the ROB that have not issued (incremental mirror of a
    /// full ROB scan — LQ admission check runs per fetched uop).
    rob_loads_unissued: usize,
    /// Stores resident in the ROB (incremental, same reason).
    rob_stores: usize,
    /// ROB entries that have not issued yet (bounds the reference scan).
    rob_unissued: usize,
    /// Bit `idx % SLOTS` set ⇔ the ROB entry for uop `idx` has not
    /// issued. Keyed by absolute slot so retirement never shifts a mask;
    /// rotating right by the head's slot gives age order (bit 0 = head).
    /// This and the two fields below are maintained only while `rob_size`
    /// fits the mask width ([`SLOTS`]).
    unissued: u128,
    /// Consumer masks: bit `idx % SLOTS` of `cons[r]` set ⇔ the unissued
    /// ROB entry for uop `idx` reads register `r`.
    cons: [u128; NUM_REGS],
    /// Bit `r` set ⇔ `cons[r]` is non-zero.
    has_cons: u64,
    /// Cycle before which the issue stage is provably barren: every
    /// unissued entry's sources become ready no earlier than this. Issue
    /// is skipped outright while `now` is below it. Each selector
    /// recomputes it after a scan (0 = no bound), and newly fetched
    /// entries merge their ready cycle in. The two selectors may compute
    /// different bounds; both are lower bounds, so neither changes what
    /// issues when.
    issue_idle_until: u64,
    /// Uops retired since construction (never reset).
    total_retired: u64,
    /// Cycle at which statistics were last reset (warm-up boundary).
    stats_base_cycle: u64,
    /// When false, barren steps advance one cycle at a time instead of
    /// jumping to [`Self::next_event_cycle`], and issue takes the
    /// reference scan instead of the wake-up selector. The observable
    /// trajectory (stats, memory traffic, retirement order) is identical
    /// either way — the skipped cycles are provably barren and both
    /// selectors issue the same uops — so this is a validation switch,
    /// not a semantic one. Deliberately excluded from
    /// [`Self::save_state`] (as is the idle bound, the one piece of state
    /// the two schedules compute differently): snapshots taken at the
    /// same retirement boundaries are byte-identical regardless of the
    /// setting.
    fast_forward: bool,
    /// ROB stall run-length histogram (`--profile-hist`); `None` keeps
    /// the step loop on its unobserved path (one branch, no work).
    stall_hist: Option<Box<cdp_obs::Hist>>,
    /// Consecutive barren cycles accumulated so far (flushed into
    /// [`Self::stall_hist`] when progress resumes). Fast-forward jumps
    /// only span provably barren cycles, so the accumulated run is
    /// identical whether the core jumps or single-steps.
    stall_run: u64,
}

impl<'p> Core<'p> {
    /// Creates a core ready to execute `program` from its first uop.
    pub fn new(cfg: CoreConfig, program: &'p Program) -> Self {
        Self::with_feed(cfg, Feed::Whole(program))
    }

    /// Creates a core fed by a streaming uop source instead of a
    /// materialized program. Only a sliding window of uops (the in-flight
    /// span plus one generation chunk) is ever resident.
    pub fn new_streaming(cfg: CoreConfig, source: Box<dyn UopSource>) -> Core<'static> {
        Core::with_feed(cfg, Feed::stream(source))
    }

    fn with_feed(cfg: CoreConfig, feed: Feed<'_>) -> Core<'_> {
        let bp = Gshare::new(cfg.gshare_log2_entries);
        let rob = Rob::new(cfg.rob_size);
        let forward_window = std::collections::VecDeque::with_capacity(cfg.store_buffer + 1);
        Core {
            cfg,
            feed,
            fetch_idx: 0,
            fetch_resume_at: 0,
            rob,
            reg_ready: [0; NUM_REGS + 1],
            sq_busy: std::collections::BinaryHeap::new(),
            lq_busy: std::collections::BinaryHeap::new(),
            bp,
            now: 0,
            stats: CoreStats::default(),
            pending_redirect: None,
            forward_window,
            rob_loads_unissued: 0,
            rob_stores: 0,
            rob_unissued: 0,
            unissued: 0,
            cons: [0; NUM_REGS],
            has_cons: 0,
            issue_idle_until: 0,
            total_retired: 0,
            stats_base_cycle: 0,
            fast_forward: true,
            stall_hist: None,
            stall_run: 0,
        }
    }

    /// Enables or disables idle-cycle fast-forwarding (on by default).
    /// Disabling it forces the reference schedule: step every cycle and
    /// select issue candidates by scanning the whole ROB instead of by
    /// the wake-up masks. The run produces bit-identical statistics,
    /// memory traffic and snapshots either way, only slower.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Statistics so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Resets statistics (warm-up boundary, §2.2 of the paper). Cycle
    /// count restarts from zero; in-flight state is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        self.stats_base_cycle = self.now;
    }

    /// Installs a stall run-length histogram: barren (no fetch / issue /
    /// retire) cycle runs are recorded into it as they end. With no
    /// histogram installed the step loop pays one branch and does no
    /// other work.
    pub fn set_stall_hist(&mut self, hist: Box<cdp_obs::Hist>) {
        self.stall_hist = Some(hist);
        self.stall_run = 0;
    }

    /// Removes and returns the stall histogram, if one was installed.
    pub fn take_stall_hist(&mut self) -> Option<Box<cdp_obs::Hist>> {
        self.stall_run = 0;
        self.stall_hist.take()
    }

    /// Clears the stall histogram and any in-progress run (warm-up
    /// boundary: the measured distribution covers the measurement phase
    /// only, matching [`Self::reset_stats`]).
    pub fn reset_stall_hist(&mut self) {
        if let Some(h) = &mut self.stall_hist {
            h.clear();
        }
        self.stall_run = 0;
    }

    /// Whether every uop has been fetched and retired.
    ///
    /// For a streaming feed the program length is learned at the fill
    /// that produces the final uop — before that uop can be fetched — so
    /// this predicate matches the materialized one at every cycle.
    pub fn done(&self) -> bool {
        let fetched_all = match &self.feed {
            Feed::Whole(p) => self.fetch_idx >= p.len(),
            Feed::Stream(s) => matches!(s.total, Some(t) if self.fetch_idx >= t),
        };
        fetched_all && self.rob.is_empty()
    }

    /// Runs until at least `target_retired` uops have retired since
    /// construction, or the program completes. Returns `true` when the
    /// program has completed.
    pub fn run_until_retired<M: MemoryModel>(&mut self, mem: &mut M, target_retired: u64) -> bool {
        while !self.done() && self.total_retired < target_retired {
            self.step(mem);
        }
        self.done()
    }

    /// Runs the whole program to completion.
    pub fn run_to_completion<M: MemoryModel>(&mut self, mem: &mut M) {
        while !self.done() {
            self.step(mem);
        }
    }

    /// Executes one cycle (possibly fast-forwarding over provably idle
    /// cycles).
    pub fn step<M: MemoryModel>(&mut self, mem: &mut M) {
        let progressed = self.retire() | self.issue(mem) | self.fetch();
        if progressed || !self.fast_forward {
            if let Some(hist) = &mut self.stall_hist {
                if progressed {
                    if self.stall_run > 0 {
                        hist.record(self.stall_run);
                        self.stall_run = 0;
                    }
                } else {
                    self.stall_run += 1;
                }
            }
            self.advance_to(self.now + 1);
        } else {
            // Nothing happened: jump to the next event. The skipped
            // cycles are all barren, so they extend the current stall
            // run exactly as single-stepping them would.
            let next = self.next_event_cycle().max(self.now + 1);
            if self.stall_hist.is_some() {
                self.stall_run += next - self.now;
            }
            self.advance_to(next);
        }
    }

    fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle > self.now || (self.done() && cycle >= self.now));
        self.stats.rob_occupancy_cycles += self.rob.len() as u64 * cycle.saturating_sub(self.now);
        self.now = cycle;
        self.stats.cycles = self.now - self.stats_base_cycle;
    }

    fn next_event_cycle(&self) -> u64 {
        // This only runs after a step in which nothing progressed, so the
        // issue stage just completed a complete barren scan (or skipped
        // under a still-valid bound). With the bound in hand, the
        // earliest cycle anything can happen is O(1):
        //   * retire — the ROB head's completion (in-order retirement);
        //   * issue  — `issue_idle_until`, the proven earliest readiness
        //     of any unissued entry;
        //   * fetch  — a load/store-queue entry freeing (heap minima), a
        //     branch redirect resolving, or ROB space freeing (the retire
        //     event above).
        // A zero bound can only mean the barren scan saw a ready entry
        // blocked on a zero-sized unit pool (degenerate configuration):
        // fall back to scanning every in-flight completion.
        if self.issue_idle_until == 0 {
            return self.next_event_cycle_scan();
        }
        let mut next = u64::MAX;
        if let Some(e) = self.rob.front() {
            if e.complete_at != NOT_ISSUED && e.complete_at > self.now {
                next = next.min(e.complete_at);
            }
        }
        if self.issue_idle_until > self.now {
            next = next.min(self.issue_idle_until);
        }
        // Heap minima (entries at or before `now` were pruned at issue).
        // These queue-freeing wakeups (and the redirect below) only feed
        // the fetch admission check, so they could in principle be gated
        // on `fetch_idx < program.len()` — measured, that refinement is
        // statistically indistinguishable on the suite (the post-fetch
        // drain is a negligible slice of any run; see PERF.md), so the
        // simpler ungated form stays.
        for q in [&self.sq_busy, &self.lq_busy] {
            if let Some(&std::cmp::Reverse(c)) = q.peek() {
                if c > self.now {
                    next = next.min(c);
                }
            }
        }
        if self.fetch_resume_at > self.now {
            next = next.min(self.fetch_resume_at);
        }
        if next == u64::MAX {
            self.now + 1
        } else {
            next
        }
    }

    /// Full-scan fallback for [`Self::next_event_cycle`]. Register ready
    /// times need no separate scan even here: every future `reg_ready`
    /// value was written as the completion cycle of an issued entry that
    /// cannot have retired yet (retirement requires completion), so the
    /// ROB walk already covers it.
    fn next_event_cycle_scan(&self) -> u64 {
        let mut next = u64::MAX;
        for e in self.rob.iter() {
            if e.complete_at != NOT_ISSUED && e.complete_at > self.now {
                next = next.min(e.complete_at);
            }
        }
        for q in [&self.sq_busy, &self.lq_busy] {
            if let Some(&std::cmp::Reverse(c)) = q.peek() {
                if c > self.now {
                    next = next.min(c);
                }
            }
        }
        if self.fetch_resume_at > self.now {
            next = next.min(self.fetch_resume_at);
        }
        if next == u64::MAX {
            self.now + 1
        } else {
            next
        }
    }

    /// Retire stage. Returns true if anything retired.
    fn retire(&mut self) -> bool {
        let mut any = false;
        for _ in 0..self.cfg.retire_width {
            match self.rob.front() {
                Some(e) if e.complete_at != NOT_ISSUED && e.complete_at <= self.now => {
                    let e = self.rob.pop_front();
                    if e.class == CLASS_STORE {
                        self.rob_stores -= 1;
                    }
                    // Free queue entries whose back-pressure window ended.
                    if e.sq_free_at != NO_SQ && e.sq_free_at > self.now {
                        self.sq_busy.push(std::cmp::Reverse(e.sq_free_at));
                    }
                    self.total_retired += 1;
                    self.stats.retired += 1;
                    any = true;
                }
                _ => break,
            }
        }
        any
    }

    /// Issue stage. Returns true if anything issued.
    fn issue<M: MemoryModel>(&mut self, mem: &mut M) -> bool {
        // Prune queue-occupancy trackers.
        let now = self.now;
        while matches!(self.sq_busy.peek(), Some(&std::cmp::Reverse(c)) if c <= now) {
            self.sq_busy.pop();
        }
        while matches!(self.lq_busy.peek(), Some(&std::cmp::Reverse(c)) if c <= now) {
            self.lq_busy.pop();
        }

        // A prior scan proved no source becomes ready before
        // `issue_idle_until`; until then a scan would issue nothing.
        if now < self.issue_idle_until {
            return false;
        }
        if self.fast_forward && self.cfg.rob_size <= SLOTS {
            self.issue_wakeup(mem)
        } else {
            self.issue_scan(mem)
        }
    }

    /// Wake-up selector. The candidates are the unissued entries that no
    /// pending register blocks, read off the consumer masks in one pass
    /// over the registers that have consumers; only candidates are
    /// visited, oldest first, under the reference's width and unit rules.
    /// Issues exactly what [`Self::issue_scan`] would, in the same order.
    fn issue_wakeup<M: MemoryModel>(&mut self, mem: &mut M) -> bool {
        let now = self.now;
        let head = self.rob.front().map_or(0, |e| e.idx as usize % SLOTS) as u32;
        let mut blocked = 0u128;
        // Earliest ready cycle of a pending register with consumers.
        let mut min_pending = u64::MAX;
        let mut regs = self.has_cons;
        while regs != 0 {
            let r = regs.trailing_zeros() as usize;
            regs &= regs - 1;
            let ready = self.reg_ready[r];
            if ready > now {
                blocked |= self.cons[r];
                min_pending = min_pending.min(ready);
            }
        }
        // Bit `p` = ROB position `p`; ascending order is oldest first.
        let mut cand = (self.unissued & !blocked).rotate_right(head);
        let mut budget = IssueBudget::new(&self.cfg);
        let mut any = false;
        // Completion of every register write made in this scan.
        let mut min_complete = u64::MAX;
        let mut bound_valid = true;
        while cand != 0 {
            if budget.exhausted() {
                // A candidate is left unvisited: it may be ready now.
                bound_valid = false;
                break;
            }
            let p = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            if !budget.take(self.rob[p].class) {
                // Ready but unit-blocked: ready again next cycle.
                bound_valid = false;
                continue;
            }
            any = true;
            let (dst, complete_at) = self.issue_one(mem, p);
            let Some(dst) = dst else { continue };
            min_complete = min_complete.min(complete_at);
            // Only candidates younger than `p` remain in `cand`.
            let consumers = self.cons[dst as usize].rotate_right(head);
            if complete_at > now {
                // `dst` is pending now: its consumers wait.
                cand &= !consumers;
            } else {
                // A completion at or before `now` (zero latency) can make
                // a younger consumer ready in this very cycle.
                let mut younger = consumers & (u128::MAX << p << 1);
                while younger != 0 {
                    let q = younger.trailing_zeros() as usize;
                    younger &= younger - 1;
                    let srcs = self.rob[q].srcs;
                    let ready_at =
                        self.reg_ready[srcs[0] as usize].max(self.reg_ready[srcs[1] as usize]);
                    if ready_at <= now {
                        cand |= 1 << q;
                    } else {
                        cand &= !(1 << q);
                    }
                }
            }
        }
        // With every candidate visited and none unit-blocked, each
        // unissued entry waits on a pending register: one pending when the
        // scan began (`min_pending`), or one written in this scan. A write
        // can also lower a register's ready time (zero latency, or a
        // younger writer finishing before an older one) and so wake an
        // older entry already visited; `min_complete` covers both.
        self.issue_idle_until = if bound_valid {
            min_pending.min(min_complete)
        } else {
            0
        };
        any
    }

    /// Reference selector: visits every unissued ROB entry oldest first,
    /// checks its sources, and issues the ready ones under the width and
    /// unit rules. Runs when fast-forward is off and for ROBs too deep
    /// for the wake-up masks.
    fn issue_scan<M: MemoryModel>(&mut self, mem: &mut M) -> bool {
        let now = self.now;
        let mut budget = IssueBudget::new(&self.cfg);
        let mut any = false;
        let mut unissued_left = self.rob_unissued;
        // Idle bound computed over this pass: the earliest cycle any
        // still-unissued entry can become ready. `min_ready` collects the
        // readiness of entries seen not-ready; `min_complete` collects the
        // `reg_ready` writes made by entries issuing in this same pass
        // (a consumer already visited may become ready no earlier than
        // its producer completes). The bound is only sound if the scan
        // visited every unissued entry (`scanned_all`).
        let mut min_ready = u64::MAX;
        let mut min_complete = u64::MAX;
        let mut scanned_all = true;
        let mut blocked_ready = false;
        for p in 0..self.rob.len() {
            if unissued_left == 0 {
                break;
            }
            if budget.exhausted() {
                // Unissued entries remain unexamined; any of them could
                // be ready right now, so no idle bound can be claimed.
                scanned_all = false;
                break;
            }
            let entry = self.rob[p];
            if entry.complete_at != NOT_ISSUED {
                continue;
            }
            unissued_left -= 1;
            // Source readiness, from the inline copies (absent sources
            // hit the zero pad slot).
            let ready_at =
                self.reg_ready[entry.srcs[0] as usize].max(self.reg_ready[entry.srcs[1] as usize]);
            if ready_at > now {
                min_ready = min_ready.min(ready_at);
                continue;
            }
            if !budget.take(entry.class) {
                blocked_ready = true;
                continue;
            }
            any = true;
            let (dst, complete_at) = self.issue_one(mem, p);
            if dst.is_some() {
                min_complete = min_complete.min(complete_at);
            }
        }
        // Complete scan: every unissued entry was examined, so the
        // earliest future readiness (including readiness unlocked by this
        // pass's own `reg_ready` writes, bounded below by the writers'
        // completions) bounds every scan until then. A ready-but-unit-
        // blocked entry stays ready next cycle, and an early break leaves
        // entries unexamined — either forfeits the bound.
        self.issue_idle_until = if blocked_ready || !scanned_all {
            0
        } else {
            min_ready.min(min_complete)
        };
        any
    }

    /// Issues the ready ROB entry at position `p` (0 = head), whose
    /// functional unit the selector has already taken: computes its
    /// completion (through the memory model or store-to-load forwarding
    /// for loads and stores), books its LQ/SQ occupancy, writes its
    /// destination's ready cycle, clears its issue bookkeeping, and
    /// resolves a pending branch redirect. Returns the register it
    /// writes, if any, and its completion cycle.
    fn issue_one<M: MemoryModel>(&mut self, mem: &mut M, p: usize) -> (Option<u8>, u64) {
        let now = self.now;
        let entry = self.rob[p];
        debug_assert_eq!(entry.complete_at, NOT_ISSUED);
        let (complete_at, sq_free_at) = match entry.class {
            CLASS_ALU | CLASS_FP => (now + u64::from(entry.arg), NO_SQ),
            CLASS_BRANCH => {
                // The prediction was made at fetch (`pending_redirect`);
                // the branch resolves here.
                self.stats.branches += 1;
                (now + 1, NO_SQ)
            }
            CLASS_LOAD => {
                let vaddr = VirtAddr(entry.arg);
                self.stats.loads += 1;
                // Store-to-load forwarding: a pending store to the same
                // word supplies the data without a cache access. A
                // counting-filter fast path over this scan was measured
                // suite-unchanged under interleaved A/B (the window is
                // small or empty in the common case, so the walk is
                // already cheap; see PERF.md) and reverted.
                let forwarded = self
                    .forward_window
                    .iter()
                    .rev()
                    .find(|&&(a, _)| a == vaddr.0)
                    .map(|&(_, ready)| ready);
                let done = match forwarded {
                    Some(ready) => {
                        self.stats.forwarded_loads += 1;
                        ready.max(now) + 1
                    }
                    None => mem.access(entry.pc, vaddr, AccessKind::Load, now),
                };
                self.lq_busy.push(std::cmp::Reverse(done));
                (done, NO_SQ)
            }
            // CLASS_STORE, the last class.
            _ => {
                let vaddr = VirtAddr(entry.arg);
                self.stats.stores += 1;
                let done = mem.access(entry.pc, vaddr, AccessKind::Store, now);
                // Forwardable as soon as the store has its data (next
                // cycle); the window is bounded by the SQ capacity.
                self.forward_window.push_back((vaddr.0, now + 1));
                while self.forward_window.len() > self.cfg.store_buffer {
                    self.forward_window.pop_front();
                }
                // Store releases the pipeline next cycle; its SQ entry is
                // busy until the memory system completes.
                (now + 1, done)
            }
        };
        let e = &mut self.rob[p];
        e.complete_at = complete_at;
        e.sq_free_at = sq_free_at;
        self.rob_unissued -= 1;
        if entry.class == CLASS_LOAD {
            self.rob_loads_unissued -= 1;
        }
        if self.cfg.rob_size <= SLOTS {
            let bit = 1u128 << (entry.idx as usize % SLOTS);
            self.unissued &= !bit;
            for s in entry.srcs {
                if s != NO_REG {
                    self.cons[s as usize] &= !bit;
                    if self.cons[s as usize] == 0 {
                        self.has_cons &= !(1 << s);
                    }
                }
            }
        }
        // Never the pad slot: dispatch refuses a uop naming register
        // `NUM_REGS` or above.
        let dst = (entry.dst != NO_REG).then_some(entry.dst);
        if let Some(dst) = dst {
            self.reg_ready[dst as usize] = complete_at;
        }
        // Branch redirect: if this branch was fetched mispredicted, fetch
        // resumes after it resolves plus the penalty.
        if self.pending_redirect == Some(entry.idx as usize) {
            self.pending_redirect = None;
            let resume_at = complete_at + self.cfg.mispredict_penalty;
            self.stats.redirect_stall_cycles += resume_at.saturating_sub(now);
            self.fetch_resume_at = resume_at;
        }
        (dst, complete_at)
    }

    /// The uop at `fetch_idx`, or `None` at program end. On the streaming
    /// path this refills the window from the source. The prune floor is
    /// the oldest in-flight ROB index, clamped to `fetch_idx` when the ROB
    /// is empty: issue reads only the ROB, but a snapshot saves the
    /// window and restore copies each ROB entry's uop fields out of it.
    #[inline]
    fn fetch_uop(&mut self) -> Option<Uop> {
        let idx = self.fetch_idx;
        match &mut self.feed {
            Feed::Whole(p) => p.uops.get(idx).copied(),
            Feed::Stream(s) => {
                // Only a refill prunes, so only a refill needs the floor.
                let keep_from = if idx < s.produced() {
                    s.base
                } else {
                    self.rob.front().map_or(idx, |e| (e.idx as usize).min(idx))
                };
                s.uop_at(idx, keep_from)
            }
        }
    }

    /// Fetch/dispatch stage. Returns true if anything dispatched.
    fn fetch(&mut self) -> bool {
        if self.now < self.fetch_resume_at {
            return false;
        }
        let mut any = false;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            let Some(uop) = self.fetch_uop() else {
                break;
            };
            let entry = RobEntry::dispatch(self.fetch_idx as u32, &uop);
            match entry.class {
                CLASS_LOAD
                    if self.lq_busy.len() + self.rob_loads_unissued >= self.cfg.load_buffer =>
                {
                    break;
                }
                CLASS_STORE if self.sq_busy.len() + self.rob_stores >= self.cfg.store_buffer => {
                    break;
                }
                _ => {}
            }
            // Keep the idle bound exact: a dispatched entry may be ready
            // earlier than everything already waiting. `reg_ready` only
            // changes inside issue scans and the bound is recomputed at
            // the end of each, so the ready cycle computed here is the
            // one the next scan would compute.
            if self.issue_idle_until != 0 {
                let ready_at = self.reg_ready[entry.srcs[0] as usize]
                    .max(self.reg_ready[entry.srcs[1] as usize]);
                self.issue_idle_until = if ready_at <= self.now {
                    0
                } else {
                    self.issue_idle_until.min(ready_at)
                };
            }
            // Branch prediction at fetch.
            let mut mispredicted = false;
            if let UopKind::Branch { taken } = uop.kind {
                let predicted = self.bp.predict(uop.pc);
                self.bp.update(uop.pc, predicted, taken);
                mispredicted = predicted != taken;
            }
            self.rob.push_back(entry);
            self.book(&entry);
            if mispredicted {
                self.stats.mispredicts += 1;
                self.pending_redirect = Some(self.fetch_idx);
                self.fetch_idx += 1;
                // Stop fetching: the front end is on the wrong path until
                // this branch resolves.
                self.fetch_resume_at = u64::MAX;
                return true;
            }
            self.fetch_idx += 1;
            any = true;
        }
        any
    }

    /// Books a ROB entry into the issue bookkeeping: the resident-store
    /// count and, while the entry has not issued, the unissued counts and
    /// (when the ROB fits them) the wake-up masks. Dispatch books each
    /// new entry; [`Self::rebuild_issue_state`] books a restored ROB.
    fn book(&mut self, e: &RobEntry) {
        if e.class == CLASS_STORE {
            self.rob_stores += 1;
        }
        if e.complete_at != NOT_ISSUED {
            return;
        }
        self.rob_unissued += 1;
        if e.class == CLASS_LOAD {
            self.rob_loads_unissued += 1;
        }
        if self.cfg.rob_size <= SLOTS {
            let bit = 1u128 << (e.idx as usize % SLOTS);
            self.unissued |= bit;
            for s in e.srcs {
                if s != NO_REG {
                    self.cons[s as usize] |= bit;
                    self.has_cons |= 1 << s;
                }
            }
        }
    }

    /// Recomputes the issue stage's derived state from the ROB: the
    /// counts and masks [`Self::book`] maintains, and no idle bound.
    fn rebuild_issue_state(&mut self) {
        self.rob_stores = 0;
        self.rob_unissued = 0;
        self.rob_loads_unissued = 0;
        self.unissued = 0;
        self.cons = [0; NUM_REGS];
        self.has_cons = 0;
        self.issue_idle_until = 0;
        for i in 0..self.rob.len() {
            let e = self.rob[i];
            self.book(&e);
        }
    }

    /// Serializes the complete pipeline state: ROB (in order), register
    /// scoreboard, queue-occupancy heaps (sorted — heap entries are plain
    /// cycle numbers, so sorted reinsertion is observationally identical),
    /// branch predictor, forwarding window, and all counters. The issue
    /// stage's derived bookkeeping (unissued counts, wake-up masks, idle
    /// bound) is left out: it follows from the ROB, and the idle bound
    /// depends on which selector ran, which must not reach a snapshot.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.usize(self.fetch_idx);
        enc.u64(self.fetch_resume_at);
        enc.u64(self.now);
        enc.u64(self.total_retired);
        enc.u64(self.stats_base_cycle);
        match self.pending_redirect {
            Some(idx) => {
                enc.bool(true);
                enc.usize(idx);
            }
            None => enc.bool(false),
        }
        enc.put(self.stats);
        // The pad slot is always zero and is not state.
        for r in &self.reg_ready[..NUM_REGS] {
            enc.u64(*r);
        }
        enc.seq_len(self.rob.len());
        for e in self.rob.iter() {
            enc.u32(e.idx);
            enc.u8(e.srcs[0]);
            enc.u8(e.srcs[1]);
            enc.u8(e.class);
            enc.u64(e.complete_at);
            enc.u64(e.sq_free_at);
        }
        for heap in [&self.sq_busy, &self.lq_busy] {
            let mut entries: Vec<u64> = heap.iter().map(|r| r.0).collect();
            entries.sort_unstable();
            enc.seq_len(entries.len());
            for c in entries {
                enc.u64(c);
            }
        }
        enc.seq_len(self.forward_window.len());
        for &(addr, ready) in &self.forward_window {
            enc.u32(addr);
            enc.u64(ready);
        }
        self.bp.save_state(enc);
        enc.bool(self.stall_hist.is_some());
        if let Some(hist) = &self.stall_hist {
            enc.u64(self.stall_run);
            hist.save_state(enc);
        }
        // Feed kind last: a whole-program snapshot carries no extra
        // state; a streaming snapshot appends its window and the source's
        // generation cursor so resume replays bit-identical uops.
        match &self.feed {
            Feed::Whole(_) => enc.bool(false),
            Feed::Stream(s) => {
                enc.bool(true);
                s.save_state(enc);
            }
        }
    }

    /// Restores state written by [`Core::save_state`] into a freshly
    /// constructed core over the *same* program and configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation or on
    /// structurally impossible state (ROB deeper than `rob_size`, ROB
    /// indices other than the last `rob_len` fetched, an unknown uop
    /// class, an entry whose class or sources disagree with the uop at
    /// its index, a fetch stall with no unissued mispredicted branch to
    /// end it). The issue stage's derived state is rebuilt from the ROB,
    /// and the fields dispatch copies from each uop are copied again.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        let fetch_idx = dec.usize("core fetch_idx")?;
        // Streaming feeds validate index coverage after their window is
        // restored (end of this function).
        if let Feed::Whole(p) = &self.feed {
            if fetch_idx > p.len() {
                return Err(SnapshotError::Corrupt {
                    context: "core fetch_idx",
                });
            }
        }
        self.fetch_idx = fetch_idx;
        self.fetch_resume_at = dec.u64("core fetch_resume_at")?;
        self.now = dec.u64("core now")?;
        self.total_retired = dec.u64("core total_retired")?;
        self.stats_base_cycle = dec.u64("core stats_base_cycle")?;
        self.pending_redirect = if dec.bool("core pending_redirect flag")? {
            Some(dec.usize("core pending_redirect")?)
        } else {
            None
        };
        self.stats = dec.get()?;
        for r in self.reg_ready[..NUM_REGS].iter_mut() {
            *r = dec.u64("core reg_ready")?;
        }
        self.reg_ready[NUM_REGS] = 0;
        let rob_len = dec.seq_len(4 + 3 + 8 + 8, "core rob length")?;
        if rob_len > self.cfg.rob_size {
            return Err(SnapshotError::Corrupt {
                context: "core rob length",
            });
        }
        // The ROB holds the most recently fetched uops, in order: indices
        // `fetch_idx - rob_len .. fetch_idx`. The wake-up masks key
        // entries by index, so anything else would alias two entries.
        let first = fetch_idx
            .checked_sub(rob_len)
            .ok_or(SnapshotError::Corrupt {
                context: "core rob idx",
            })?;
        self.rob.clear();
        for i in 0..rob_len {
            let idx = dec.u32("core rob idx")?;
            if idx as usize != first + i {
                return Err(SnapshotError::Corrupt {
                    context: "core rob idx",
                });
            }
            let srcs = [dec.u8("core rob src0")?, dec.u8("core rob src1")?];
            if srcs.iter().any(|&s| s > NO_REG) {
                return Err(SnapshotError::Corrupt {
                    context: "core rob src register",
                });
            }
            let class = dec.u8("core rob class")?;
            if class > CLASS_BRANCH {
                return Err(SnapshotError::Corrupt {
                    context: "core rob class",
                });
            }
            // The fields dispatch copies from the uop are filled in, and
            // checked against `class` and `srcs`, once the feed is back.
            self.rob.push_back(RobEntry {
                idx,
                srcs,
                class,
                complete_at: dec.u64("core rob complete_at")?,
                sq_free_at: dec.u64("core rob sq_free_at")?,
                ..RobEntry::default()
            });
        }
        // Fetch stalls at `u64::MAX` exactly while a mispredicted branch
        // waits in the ROB to issue (set together at fetch, cleared
        // together at issue). Any other combination never resumes fetch
        // or never clears the stall.
        let redirect_ok = match self.pending_redirect {
            Some(i) => i.checked_sub(first).is_some_and(|p| {
                self.rob
                    .get(p)
                    .is_some_and(|e| e.class == CLASS_BRANCH && e.complete_at == NOT_ISSUED)
            }),
            None => true,
        };
        if !redirect_ok || self.pending_redirect.is_some() != (self.fetch_resume_at == u64::MAX) {
            return Err(SnapshotError::Corrupt {
                context: "core pending_redirect",
            });
        }
        self.rebuild_issue_state();
        self.sq_busy.clear();
        let n = dec.seq_len(8, "core sq_busy length")?;
        for _ in 0..n {
            self.sq_busy
                .push(std::cmp::Reverse(dec.u64("core sq_busy entry")?));
        }
        self.lq_busy.clear();
        let n = dec.seq_len(8, "core lq_busy length")?;
        for _ in 0..n {
            self.lq_busy
                .push(std::cmp::Reverse(dec.u64("core lq_busy entry")?));
        }
        self.forward_window.clear();
        let n = dec.seq_len(4 + 8, "core forward window length")?;
        for _ in 0..n {
            let addr = dec.u32("core forward addr")?;
            let ready = dec.u64("core forward ready")?;
            self.forward_window.push_back((addr, ready));
        }
        self.bp.restore_state(dec)?;
        // Histogram presence must match the restoring run's
        // configuration (mirroring the hierarchy's tracer rule): a
        // snapshot observed differently is not the same simulation.
        let has_hist = dec.bool("core stall hist presence")?;
        if has_hist != self.stall_hist.is_some() {
            return Err(SnapshotError::Corrupt {
                context: "core stall hist presence",
            });
        }
        if has_hist {
            self.stall_run = dec.u64("core stall_run")?;
            self.stall_hist = Some(Box::new(cdp_obs::Hist::restore_state(dec)?));
        } else {
            self.stall_run = 0;
        }
        // Feed kind must match the restoring core's construction (same
        // rule as the histogram above): a snapshot taken streaming is not
        // restorable into a materialized core, or vice versa.
        let is_stream = dec.bool("core feed kind")?;
        match (&mut self.feed, is_stream) {
            (Feed::Whole(_), false) => {}
            (Feed::Stream(s), true) => {
                s.restore_state(dec)?;
                let produced = s.produced();
                if self.fetch_idx > produced
                    || self
                        .rob
                        .iter()
                        .any(|e| (e.idx as usize) < s.base || e.idx as usize >= produced)
                {
                    return Err(SnapshotError::Corrupt {
                        context: "core feed coverage",
                    });
                }
            }
            _ => {
                return Err(SnapshotError::Corrupt {
                    context: "core feed kind",
                });
            }
        }
        for p in 0..self.rob.len() {
            let e = self.rob[p];
            let idx = e.idx as usize;
            // In range: `idx < fetch_idx <= len` for a whole program, and
            // the coverage check above for a stream.
            let uop = match &self.feed {
                Feed::Whole(prog) => prog.uops[idx],
                Feed::Stream(s) => s.window[idx - s.base],
            };
            let copy = RobEntry::dispatch(e.idx, &uop);
            if copy.class != e.class || copy.srcs != e.srcs {
                return Err(SnapshotError::Corrupt {
                    context: "core rob entry disagrees with its uop",
                });
            }
            self.rob[p] = RobEntry {
                complete_at: e.complete_at,
                sq_free_at: e.sq_free_at,
                ..copy
            };
        }
        Ok(())
    }
}

impl cdp_snap::Record for CoreStats {
    fn fields<C: cdp_snap::Codec>(&mut self, c: &mut C) -> Result<(), C::Error> {
        c.u64(&mut self.cycles, "core stats cycles")?;
        c.u64(&mut self.retired, "core stats retired")?;
        c.u64(&mut self.loads, "core stats loads")?;
        c.u64(&mut self.stores, "core stats stores")?;
        c.u64(&mut self.branches, "core stats branches")?;
        c.u64(&mut self.mispredicts, "core stats mispredicts")?;
        c.u64(
            &mut self.redirect_stall_cycles,
            "core stats redirect_stall_cycles",
        )?;
        c.u64(&mut self.forwarded_loads, "core stats forwarded_loads")?;
        c.u64(
            &mut self.rob_occupancy_cycles,
            "core stats rob_occupancy_cycles",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::Uop;
    use crate::FixedLatencyMemory;
    use cdp_types::VirtAddr;

    fn run(program: &Program, latency: u64) -> CoreStats {
        let mut core = Core::new(CoreConfig::default(), program);
        let mut mem = FixedLatencyMemory { latency };
        core.run_to_completion(&mut mem);
        core.stats()
    }

    #[test]
    fn empty_program_terminates() {
        let p = Program::default();
        let s = run(&p, 3);
        assert_eq!(s.retired, 0);
    }

    #[test]
    fn independent_alus_reach_full_width() {
        let p: Program = (0..3000).map(|i| Uop::alu(i * 4)).collect();
        let s = run(&p, 3);
        assert_eq!(s.retired, 3000);
        assert!(s.ipc() > 2.5, "ipc {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // r1 = r1 + 1, 1000 times: ~1 IPC max.
        let p: Program = (0..1000)
            .map(|i| Uop::alu_dep(i * 4, 1, [Some(1), None], 1))
            .collect();
        let s = run(&p, 3);
        assert!(s.ipc() < 1.2, "dependent chain ipc {}", s.ipc());
    }

    #[test]
    fn pointer_chase_pays_memory_latency_per_hop() {
        // 100 loads, each feeding the next one's address.
        let p: Program = (0..100)
            .map(|i| Uop::load(i * 4, VirtAddr(0x1000 + i * 64), 1, Some(1)))
            .collect();
        let s = run(&p, 100);
        // Each hop costs >= 100 cycles: at least 100*100 cycles total.
        assert!(s.cycles >= 100 * 100, "cycles {}", s.cycles);
        assert_eq!(s.loads, 100);
    }

    #[test]
    fn independent_loads_overlap() {
        // 100 independent loads into distinct registers: MLP limited by
        // 2 mem ports, not by latency.
        let p: Program = (0..100)
            .map(|i| Uop::load(i * 4, VirtAddr(0x1000 + i * 64), (i % 32) as u8 + 8, None))
            .collect();
        let s = run(&p, 100);
        assert!(
            s.cycles < 100 * 100 / 2,
            "independent loads must overlap: {} cycles",
            s.cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_penalty() {
        // Random outcomes -> ~half mispredict, each costing >= 28 cycles.
        let mut x = 0x9e3779b9u64;
        let mut uops = Vec::new();
        for i in 0..500u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            uops.push(Uop::branch(i * 4, (x >> 63) == 1, None));
        }
        let p = Program::new(uops);
        let s = run(&p, 3);
        assert!(s.mispredicts > 100, "mispredicts {}", s.mispredicts);
        assert!(
            s.cycles > s.mispredicts * 28,
            "each mispredict costs the redirect penalty: {} cycles, {} mispredicts",
            s.cycles,
            s.mispredicts
        );
    }

    #[test]
    fn predictable_branches_are_cheap() {
        let p: Program = (0..500).map(|_| Uop::branch(0x40, true, None)).collect();
        let s = run(&p, 3);
        // Allow the gshare history warm-up transient (~14 churned counters).
        assert!(s.mispredicts < 30, "always-taken learns: {}", s.mispredicts);
    }

    #[test]
    fn store_queue_backpressure() {
        // 200 stores with huge memory latency: SQ (32 entries) limits
        // in-flight stores, so the run takes many latency periods.
        let p: Program = (0..200)
            .map(|i| Uop::store(i * 4, VirtAddr(0x1_0000 + i * 64), None, None))
            .collect();
        let s = run(&p, 1000);
        assert_eq!(s.stores, 200);
        // 200 stores / 32 SQ entries ≈ 7 waves of ~1000 cycles.
        assert!(
            s.cycles >= 5000,
            "SQ pressure expected: {} cycles",
            s.cycles
        );
    }

    #[test]
    fn rob_bounds_inflight_window() {
        // A load with 10_000-cycle latency at the head blocks retire; the
        // ROB (128) fills and fetch stops, so cycles ~ latency, retired all.
        let mut uops = vec![Uop::load(0, VirtAddr(0x1000), 1, None)];
        for i in 1..1000 {
            uops.push(Uop::alu(i * 4));
        }
        let s = run(&Program::new(uops), 10_000);
        assert_eq!(s.retired, 1000);
        assert!(s.cycles >= 10_000);
        assert!(
            s.cycles < 11_500,
            "post-miss uops drain quickly: {}",
            s.cycles
        );
    }

    #[test]
    fn rob_occupancy_tracks_stalls() {
        // A long-latency load at the head keeps the ROB full while the
        // trailing ALUs wait to retire: average occupancy near capacity.
        let mut uops = vec![Uop::load(0, VirtAddr(0x1000), 1, None)];
        for i in 1..400 {
            uops.push(Uop::alu(i * 4));
        }
        let stalled = run(&Program::new(uops), 5_000);
        assert!(
            stalled.avg_rob_occupancy() > 64.0,
            "stalled occupancy {:.1}",
            stalled.avg_rob_occupancy()
        );
        // Free-flowing ALUs drain as fast as they fetch: small window.
        let flowing: Program = (0..400).map(|i| Uop::alu(i * 4)).collect();
        let f = run(&flowing, 3);
        assert!(
            f.avg_rob_occupancy() < stalled.avg_rob_occupancy() / 2.0,
            "flowing {:.1} vs stalled {:.1}",
            f.avg_rob_occupancy(),
            stalled.avg_rob_occupancy()
        );
    }

    #[test]
    fn single_fp_unit_serializes_fp_work() {
        let fp: Program = (0..300)
            .map(|i| Uop {
                pc: i * 4,
                kind: UopKind::Fp { latency: 1 },
                dst: None,
                srcs: [None, None],
            })
            .collect();
        let s_fp = run(&fp, 3);
        let alu: Program = (0..300).map(|i| Uop::alu(i * 4)).collect();
        let s_alu = run(&alu, 3);
        // One FP unit vs three integer units: the FP version must take
        // roughly 3x the cycles.
        assert!(
            s_fp.cycles > s_alu.cycles * 2,
            "fp {} vs alu {}",
            s_fp.cycles,
            s_alu.cycles
        );
    }

    #[test]
    fn two_memory_ports_bound_load_issue() {
        // 300 independent L1-hit-speed loads: at 2 ports, at least 150
        // cycles; integer work of the same length is 3-wide.
        let p: Program = (0..300)
            .map(|i| {
                Uop::load(
                    i * 4,
                    VirtAddr(0x1000 + (i % 8) * 64),
                    (i % 8) as u8 + 8,
                    None,
                )
            })
            .collect();
        let s = run(&p, 1);
        assert!(s.cycles >= 150, "mem ports must bound issue: {}", s.cycles);
    }

    #[test]
    fn wider_machine_runs_faster() {
        let p: Program = (0..3000).map(|i| Uop::alu(i * 4)).collect();
        let narrow_cfg = CoreConfig {
            fetch_width: 1,
            issue_width: 1,
            retire_width: 1,
            int_units: 1,
            ..CoreConfig::default()
        };
        let mut narrow = Core::new(narrow_cfg, &p);
        let mut mem = FixedLatencyMemory { latency: 3 };
        narrow.run_to_completion(&mut mem);
        let wide = run(&p, 3);
        assert!(
            narrow.stats().cycles > wide.cycles * 2,
            "1-wide {} vs 3-wide {}",
            narrow.stats().cycles,
            wide.cycles
        );
    }

    #[test]
    fn load_queue_bounds_memory_level_parallelism() {
        // Independent long-latency loads: 48 LQ entries cap the overlap,
        // so 96 loads need at least two full latency windows.
        let p: Program = (0..96)
            .map(|i| {
                Uop::load(
                    i * 4,
                    VirtAddr(0x10_0000 + i * 64),
                    (i % 32) as u8 + 8,
                    None,
                )
            })
            .collect();
        let s = run(&p, 5_000);
        assert!(
            s.cycles >= 10_000,
            "LQ must cap MLP at 48: {} cycles",
            s.cycles
        );
        assert!(s.cycles < 20_000, "but not serialize: {}", s.cycles);
    }

    #[test]
    fn store_to_load_forwarding_skips_memory() {
        // store [X]; load [X] — the load forwards and never touches the
        // hierarchy (latency 10_000 would otherwise dominate).
        let uops = vec![
            Uop::store(0, VirtAddr(0x5000), None, None),
            Uop::load(4, VirtAddr(0x5000), 1, None),
            Uop::load(8, VirtAddr(0x6000), 2, None),
        ];
        let s = run(&Program::new(uops), 10_000);
        assert_eq!(s.forwarded_loads, 1);
        // Only the un-forwarded load (plus the store's fill) pays latency.
        assert!(s.cycles < 25_000, "{}", s.cycles);
    }

    #[test]
    fn forwarding_window_is_bounded_by_store_buffer() {
        // 40 distinct stores (> 32 SQ entries), then a load to the first
        // store's address: its window entry has been displaced.
        let mut uops: Vec<Uop> = (0..40)
            .map(|i| Uop::store(i * 4, VirtAddr(0x5000 + i * 64), None, None))
            .collect();
        uops.push(Uop::load(400, VirtAddr(0x5000), 1, None));
        let s = run(&Program::new(uops), 50);
        assert_eq!(s.forwarded_loads, 0);
    }

    #[test]
    fn reset_stats_clears_counts_midstream() {
        let p: Program = (0..600).map(|i| Uop::alu(i * 4)).collect();
        let mut core = Core::new(CoreConfig::default(), &p);
        let mut mem = FixedLatencyMemory { latency: 3 };
        core.run_until_retired(&mut mem, 300);
        assert!(core.stats().retired >= 300);
        core.reset_stats();
        assert_eq!(core.stats().retired, 0);
        assert_eq!(core.stats().cycles, 0);
        core.run_to_completion(&mut mem);
        assert!(core.stats().retired <= 310, "only post-reset uops counted");
        assert!(core.done());
    }

    mod props {
        use super::*;
        use cdp_types::rng::Rng;

        fn random_program(rng: &mut Rng) -> Program {
            let n = rng.gen_range_usize(1..120);
            (0..n)
                .map(|i| {
                    let kind = rng.gen_range_u8(0..5);
                    let reg = rng.gen_range_u8(0..8);
                    let flag = rng.gen_bool(0.5);
                    let pc = (i as u32) * 4;
                    match kind {
                        0 => Uop::alu(pc),
                        1 => Uop::alu_dep(pc, reg + 1, [Some((reg % 4) + 1), None], 2),
                        2 => Uop::load(pc, VirtAddr(0x1000 + i as u32 * 32), reg + 1, None),
                        3 => Uop::store(pc, VirtAddr(0x9000 + i as u32 * 32), None, None),
                        _ => Uop::branch(pc, flag, Some((reg % 4) + 1)),
                    }
                })
                .collect()
        }

        /// Every program terminates with all uops retired, op counts
        /// matching the trace, and IPC bounded by the machine width.
        #[test]
        fn any_program_terminates_and_accounts() {
            let mut rng = Rng::seed_from_u64(0xc04e_0001);
            for _ in 0..48 {
                let p = random_program(&mut rng);
                let mut core = Core::new(CoreConfig::default(), &p);
                let mut mem = FixedLatencyMemory { latency: 7 };
                core.run_to_completion(&mut mem);
                let s = core.stats();
                assert_eq!(s.retired as usize, p.len());
                assert_eq!(
                    s.loads as usize + s.stores as usize,
                    p.num_loads() + p.num_stores()
                );
                assert_eq!(s.branches as usize, p.num_branches());
                assert!(s.ipc() <= 3.0 + 1e-9, "ipc {}", s.ipc());
                assert!(s.cycles >= (p.len() as u64).div_ceil(3));
            }
        }

        /// Higher memory latency never makes a program faster.
        #[test]
        fn latency_monotonicity() {
            let mut rng = Rng::seed_from_u64(0xc04e_0002);
            for _ in 0..48 {
                let p = random_program(&mut rng);
                let run_at = |lat: u64| {
                    let mut core = Core::new(CoreConfig::default(), &p);
                    let mut mem = FixedLatencyMemory { latency: lat };
                    core.run_to_completion(&mut mem);
                    core.stats().cycles
                };
                assert!(run_at(100) >= run_at(3));
            }
        }

        /// Determinism: identical runs produce identical statistics.
        #[test]
        fn deterministic_execution() {
            let mut rng = Rng::seed_from_u64(0xc04e_0003);
            for _ in 0..48 {
                let p = random_program(&mut rng);
                let run = || {
                    let mut core = Core::new(CoreConfig::default(), &p);
                    let mut mem = FixedLatencyMemory { latency: 11 };
                    core.run_to_completion(&mut mem);
                    core.stats()
                };
                assert_eq!(run(), run());
            }
        }
    }

    /// Snapshot mid-run, restore into a fresh core, and drive both to
    /// completion: every statistic (including cycle counts) must match,
    /// i.e. resume(snapshot(S)) continues bit-identically.
    #[test]
    fn snapshot_mid_run_resumes_bit_identically() {
        let mut rng = cdp_types::rng::Rng::seed_from_u64(0xc04e_5a9e);
        for trial in 0..24 {
            let p: Program = (0..400)
                .map(|i| {
                    let pc = (i as u32) * 4;
                    match rng.gen_range_u8(0..5) {
                        0 => Uop::alu(pc),
                        1 => Uop::alu_dep(pc, 3, [Some(2), None], 2),
                        2 => Uop::load(pc, VirtAddr(0x1000 + i as u32 * 32), 5, Some(5)),
                        3 => Uop::store(pc, VirtAddr(0x9000 + i as u32 * 32), None, None),
                        _ => Uop::branch(pc, rng.gen_bool(0.5), None),
                    }
                })
                .collect();
            let stop = u64::from(rng.gen_range_u32(1..350));
            let mut mem_a = FixedLatencyMemory { latency: 9 };
            let mut a = Core::new(CoreConfig::default(), &p);
            a.run_until_retired(&mut mem_a, stop);

            let mut enc = cdp_snap::Enc::new();
            a.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut b = Core::new(CoreConfig::default(), &p);
            let mut dec = cdp_snap::Dec::new(&bytes);
            b.restore_state(&mut dec).unwrap();
            assert!(dec.is_exhausted(), "trial {trial}: trailing bytes");
            assert_eq!(a.now(), b.now());

            let mut mem_b = FixedLatencyMemory { latency: 9 };
            a.run_to_completion(&mut mem_a);
            b.run_to_completion(&mut mem_b);
            assert_eq!(a.stats(), b.stats(), "trial {trial} diverged");
            assert_eq!(a.now(), b.now(), "trial {trial} cycle drift");
        }
    }

    /// Saves a clone of `core` after `tamper` edits it: a well-formed
    /// snapshot of a state the core can never reach.
    fn tampered(core: &Core<'_>, tamper: impl FnOnce(&mut Core<'_>)) -> Vec<u8> {
        let mut c = core.clone();
        tamper(&mut c);
        let mut enc = cdp_snap::Enc::new();
        c.save_state(&mut enc);
        enc.into_bytes()
    }

    /// Restores `bytes` into a fresh core and expects `Corrupt`. Should a
    /// regression accept them, the restored core runs for a bounded
    /// number of steps, so the test fails instead of hanging.
    fn assert_rejected(p: &Program, bytes: &[u8], what: &str) {
        let mut core = Core::new(CoreConfig::default(), p);
        match core.restore_state(&mut cdp_snap::Dec::new(bytes)) {
            Err(cdp_types::SnapshotError::Corrupt { .. }) => {}
            Ok(()) => {
                let mut mem = FixedLatencyMemory { latency: 20 };
                let mut steps = 0;
                while !core.done() && steps < 1_000_000 {
                    core.step(&mut mem);
                    steps += 1;
                }
                panic!(
                    "{what}: restored (done after {steps} steps: {})",
                    core.done()
                );
            }
            Err(e) => panic!("{what}: expected Corrupt, got {e:?}"),
        }
    }

    /// 400 loads, each addressed by the one before it.
    fn dependent_loads() -> Program {
        (0..400)
            .map(|i| Uop::load(i * 4, VirtAddr(0x1000 + i * 64), 1, Some(1)))
            .collect()
    }

    /// A fetch stall at `u64::MAX` ends only when a mispredicted branch
    /// issues; with no pending redirect, fetch would never resume.
    #[test]
    fn restore_rejects_a_fetch_stall_with_no_pending_redirect() {
        let p = dependent_loads();
        let mut mem = FixedLatencyMemory { latency: 20 };
        let mut core = Core::new(CoreConfig::default(), &p);
        core.run_until_retired(&mut mem, 150);
        assert!(core.pending_redirect.is_none());
        assert_rejected(
            &p,
            &tampered(&core, |c| c.fetch_resume_at = u64::MAX),
            "fetch stall, no redirect",
        );
        // The untampered state restores and runs to completion.
        let mut resumed = Core::new(CoreConfig::default(), &p);
        resumed
            .restore_state(&mut cdp_snap::Dec::new(&tampered(&core, |_| {})))
            .unwrap();
        resumed.run_to_completion(&mut mem);
        assert_eq!(resumed.stats().loads, 400);
    }

    /// A pending redirect must name an unissued branch in the ROB;
    /// anything else leaves fetch stalled forever.
    #[test]
    fn restore_rejects_a_redirect_no_branch_will_clear() {
        let mut x = 0x9e3779b9u64;
        let p: Program = (0..600u32)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                match i % 4 {
                    0 => Uop::branch(i * 4, (x >> 63) == 1, Some(1)),
                    _ => Uop::load(i * 4, VirtAddr(0x1000 + i * 64), 1, Some(1)),
                }
            })
            .collect();
        let mut mem = FixedLatencyMemory { latency: 30 };
        let mut core = Core::new(CoreConfig::default(), &p);
        while core.pending_redirect.is_none() || core.rob.len() < 3 {
            assert!(!core.done(), "no mispredicted branch in flight");
            core.step(&mut mem);
        }
        let branch = core.pending_redirect.unwrap();
        let head = core.rob[0].idx as usize;
        let non_branch = core
            .rob
            .iter()
            .find(|e| e.class != CLASS_BRANCH)
            .expect("a load in the ROB")
            .idx as usize;
        for (what, idx) in [
            ("redirect past the ROB", core.fetch_idx + 3),
            ("redirect before the ROB", head.wrapping_sub(1)),
            ("redirect naming a load", non_branch),
        ] {
            assert_rejected(
                &p,
                &tampered(&core, |c| c.pending_redirect = Some(idx)),
                what,
            );
        }
        assert_rejected(
            &p,
            &tampered(&core, |c| {
                let pos = branch - head;
                c.rob[pos].complete_at = c.now + 1;
            }),
            "redirect naming an issued branch",
        );
        assert_rejected(
            &p,
            &tampered(&core, |c| c.fetch_resume_at = c.now + 5),
            "redirect without a fetch stall",
        );
    }

    /// ROB entries are the last `rob_len` uops fetched, in order; the
    /// wake-up masks key entries by index, so a gap would alias two.
    #[test]
    fn restore_rejects_rob_indices_out_of_fetch_order() {
        let p = dependent_loads();
        let mut mem = FixedLatencyMemory { latency: 20 };
        let mut core = Core::new(CoreConfig::default(), &p);
        core.run_until_retired(&mut mem, 50);
        assert!(core.rob.len() > 4);
        assert_rejected(&p, &tampered(&core, |c| c.rob[3].idx += 1), "ROB gap");
        assert_rejected(
            &p,
            &tampered(&core, |c| c.fetch_idx += 1),
            "fetch past the ROB",
        );
    }

    /// A snapshot keeps a ROB entry's class and sources but not the rest
    /// of its uop, which restore copies from the uop at the entry's index
    /// again. An entry whose class or sources disagree with that uop
    /// (here: a valid class byte flipped in the encoded bytes) is refused
    /// for either feed.
    #[test]
    fn restore_rejects_a_rob_entry_that_disagrees_with_its_uop() {
        let p = dependent_loads();
        let mut mem = FixedLatencyMemory { latency: 20 };
        let mut whole = Core::new(CoreConfig::default(), &p);
        whole.run_until_retired(&mut mem, 50);
        let source = || SliceSource {
            uops: p.uops.clone(),
            pos: 0,
            chunk: 64,
        };
        let mut stream = Core::new_streaming(CoreConfig::default(), Box::new(source()));
        stream.run_until_retired(&mut FixedLatencyMemory { latency: 20 }, 50);
        for core in [&whole, &stream] {
            assert!(core.rob.len() > 4 && core.pending_redirect.is_none());
            let good = tampered(core, |_| {});
            // fetch_idx, four cycle counters, the redirect flag, the
            // stats, the scoreboard and the ROB length come first; an
            // entry is idx, two sources, class and two cycles.
            let rob_at = 8 + 4 * 8 + 1 + 9 * 8 + NUM_REGS * 8 + 8;
            let class_at = rob_at + 3 * (4 + 2 + 1 + 8 + 8) + 4 + 2;
            assert_eq!(good[class_at], CLASS_LOAD);
            let mut flipped = good.clone();
            flipped[class_at] = CLASS_ALU;
            let mut src_changed = good.clone();
            src_changed[class_at - 2] = 2;
            for (bytes, what) in [(good, "none"), (flipped, "class"), (src_changed, "source")] {
                let mut fresh = match &core.feed {
                    Feed::Whole(_) => Core::new(CoreConfig::default(), &p),
                    Feed::Stream(_) => {
                        Core::new_streaming(CoreConfig::default(), Box::new(source()))
                    }
                };
                match fresh.restore_state(&mut cdp_snap::Dec::new(&bytes)) {
                    Ok(()) if what == "none" => {}
                    Err(cdp_types::SnapshotError::Corrupt { .. }) if what != "none" => {}
                    other => panic!("ROB entry {what} changed: {other:?}"),
                }
            }
        }
    }

    /// Restore rebuilds the derived issue bookkeeping from the ROB: equal
    /// to the live core's, with no idle bound.
    #[test]
    fn restore_rebuilds_issue_bookkeeping() {
        let mut live = 0;
        for seed in [1u64, 2, 3] {
            let p = mixed_program(2000, seed);
            let mut mem = FixedLatencyMemory { latency: 25 };
            let mut core = Core::new(CoreConfig::default(), &p);
            core.run_until_retired(&mut mem, 700);
            let mut enc = cdp_snap::Enc::new();
            core.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut resumed = Core::new(CoreConfig::default(), &p);
            resumed
                .restore_state(&mut cdp_snap::Dec::new(&bytes))
                .unwrap();
            assert_eq!(resumed.rob_unissued, core.rob_unissued);
            assert_eq!(resumed.rob_loads_unissued, core.rob_loads_unissued);
            assert_eq!(resumed.rob_stores, core.rob_stores);
            assert_eq!(resumed.unissued, core.unissued);
            assert_eq!(resumed.cons, core.cons);
            assert_eq!(resumed.has_cons, core.has_cons);
            assert_eq!(resumed.issue_idle_until, 0);
            if core.unissued != 0 && core.has_cons != 0 {
                live += 1;
            }
        }
        assert!(live > 0, "no snapshot caught a consumer waiting");
    }

    #[test]
    fn run_until_retired_is_resumable() {
        let p: Program = (0..90).map(|i| Uop::alu(i * 4)).collect();
        let mut core = Core::new(CoreConfig::default(), &p);
        let mut mem = FixedLatencyMemory { latency: 3 };
        assert!(!core.run_until_retired(&mut mem, 30));
        let r1 = core.stats().retired;
        assert!((30..60).contains(&r1), "r1 {r1}");
        assert!(core.run_until_retired(&mut mem, 10_000));
        assert_eq!(core.stats().retired, 90);
    }

    /// Feeds a pre-built uop list in fixed-size chunks — the reference
    /// streaming source for differential tests.
    #[derive(Clone, Debug)]
    struct SliceSource {
        uops: Vec<Uop>,
        pos: usize,
        chunk: usize,
    }

    impl crate::feed::UopSource for SliceSource {
        fn fill(&mut self, out: &mut std::collections::VecDeque<Uop>) -> usize {
            let n = self.chunk.min(self.uops.len() - self.pos);
            out.extend(self.uops[self.pos..self.pos + n].iter().copied());
            self.pos += n;
            n
        }

        fn exhausted(&self) -> bool {
            self.pos >= self.uops.len()
        }

        fn box_clone(&self) -> Box<dyn crate::feed::UopSource> {
            Box::new(self.clone())
        }

        fn save_cursor(&self, enc: &mut cdp_snap::Enc) {
            enc.usize(self.pos);
        }

        fn restore_cursor(
            &mut self,
            dec: &mut cdp_snap::Dec<'_>,
        ) -> Result<(), cdp_types::SnapshotError> {
            self.pos = dec.usize("slice cursor")?;
            Ok(())
        }
    }

    fn mixed_program(n: u32, seed: u64) -> Program {
        let mut x = seed;
        let mut uops = Vec::new();
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = i * 4;
            uops.push(match x % 5 {
                0 => Uop::load(
                    pc,
                    VirtAddr(0x1000 + (x as u32 % 512) * 64),
                    (i % 32) as u8 + 8,
                    Some(1),
                ),
                1 => Uop::store(pc, VirtAddr(0x9000 + (x as u32 % 64) * 4), None, Some(2)),
                2 => Uop::branch(pc, (x >> 63) == 1, None),
                3 => Uop::alu_dep(pc, 1, [Some(1), None], 2),
                _ => Uop::alu(pc),
            });
        }
        Program::new(uops)
    }

    /// A streaming core over the same uop sequence must trace the exact
    /// trajectory of the materialized core — every statistic and the
    /// final cycle count — while keeping only a bounded window resident.
    #[test]
    fn streaming_feed_matches_materialized() {
        for seed in [0x12345678u64, 0xdeadbeef, 7] {
            let p = mixed_program(5000, seed);
            let mut mem = FixedLatencyMemory { latency: 40 };
            let mut whole = Core::new(CoreConfig::default(), &p);
            whole.run_to_completion(&mut mem);

            let src = SliceSource {
                uops: p.uops.clone(),
                pos: 0,
                chunk: 64,
            };
            let mut mem2 = FixedLatencyMemory { latency: 40 };
            let mut stream = Core::new_streaming(CoreConfig::default(), Box::new(src));
            let cap = CoreConfig::default().rob_size + 2 * 64;
            while !stream.done() {
                stream.step(&mut mem2);
                if let Feed::Stream(s) = &stream.feed {
                    assert!(s.window.len() <= cap, "window {} > {cap}", s.window.len());
                }
            }
            assert_eq!(whole.stats(), stream.stats(), "seed {seed:#x}");
            assert_eq!(whole.now(), stream.now(), "seed {seed:#x}");
        }
    }

    /// Snapshot a streaming core mid-run and restore into a fresh
    /// streaming core over an un-advanced source: the cursor round-trip
    /// must continue bit-identically.
    #[test]
    fn streaming_snapshot_resumes_bit_identically() {
        let p = mixed_program(3000, 0xfeed_f00d);
        let make = || SliceSource {
            uops: p.uops.clone(),
            pos: 0,
            chunk: 128,
        };
        let mut mem_a = FixedLatencyMemory { latency: 17 };
        let mut a = Core::new_streaming(CoreConfig::default(), Box::new(make()));
        a.run_until_retired(&mut mem_a, 1200);

        let mut enc = cdp_snap::Enc::new();
        a.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut b = Core::new_streaming(CoreConfig::default(), Box::new(make()));
        let mut dec = cdp_snap::Dec::new(&bytes);
        b.restore_state(&mut dec).unwrap();
        assert!(dec.is_exhausted(), "trailing bytes");
        assert_eq!(a.now(), b.now());

        let mut mem_b = FixedLatencyMemory { latency: 17 };
        a.run_to_completion(&mut mem_a);
        b.run_to_completion(&mut mem_b);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now(), b.now());
    }

    /// A whole-program snapshot must not restore into a streaming core
    /// (and vice versa) — mirroring the histogram-presence rule.
    #[test]
    fn feed_kind_mismatch_is_rejected() {
        let p = mixed_program(500, 3);
        let mut mem = FixedLatencyMemory { latency: 5 };
        let mut whole = Core::new(CoreConfig::default(), &p);
        whole.run_until_retired(&mut mem, 100);
        let mut enc = cdp_snap::Enc::new();
        whole.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let src = SliceSource {
            uops: p.uops.clone(),
            pos: 0,
            chunk: 64,
        };
        let mut stream = Core::new_streaming(CoreConfig::default(), Box::new(src));
        let mut dec = cdp_snap::Dec::new(&bytes);
        assert!(stream.restore_state(&mut dec).is_err());
    }
}
