//! The full memory hierarchy (Figure 6 of the paper).
//!
//! ```text
//!        Processor
//!            │ demand requests
//!        L1 data cache (virtually indexed)
//!            │ L1 misses ──────────────► stride prefetcher
//!        DTLB ──► hardware page walker (bypasses the scanner)
//!            │
//!        UL2 cache (physically indexed, depth bits per line)
//!            │ misses            ▲ fills (copy to content prefetcher)
//!        MSHRs / arbiters ◄───── content prefetcher candidates
//!            │                    (virtual, TLB-translated)
//!        front-side bus ──► DRAM (the byte-level memory image)
//! ```
//!
//! Timing is analytic: every access returns its completion cycle
//! immediately, with bus contention and queue pressure folded in by the
//! [`cdp_mem::Bus`] model, and fills processed lazily in completion order
//! (so chained content prefetches are issued at their parent fill's
//! arrival time, exactly like the paper's recurrence).

use cdp_core::MemoryModel;
use cdp_mem::{AddressSpace, Bus, Cache, MshrFile, Tlb};
use cdp_obs::trace::{DropReason, FaultTag, TraceData, TraceRing, VamCause};
use cdp_prefetch::adaptive::AdaptiveVam;
use cdp_prefetch::{
    ContentPrefetcher, DeltaPrefetcher, JumpPrefetcher, PerceptronFilter, PrefetchRequest,
    Prefetcher, StreamPrefetcher, StridePrefetcher, VamVerdict,
};
use cdp_snap::Codec;
use cdp_types::{
    AccessKind, CdpError, LineAddr, PhysAddr, RequestKind, SystemConfig, TraceFilter, VirtAddr,
    LINE_SIZE, WORD_SIZE,
};

use crate::fault::WalkFault;
use crate::stats::{Engine, MemStats};

/// Per-L2-line metadata: the paper's reinforcement depth bits plus
/// bookkeeping for the Figure 10 classification.
#[derive(Clone, Copy, Debug)]
pub struct L2Meta {
    /// Engine that brought the line in.
    pub owner: Engine,
    /// Stored request depth (§3.4.2); 0 for demand lines.
    pub depth: u8,
    /// Virtual base address of the line (rescans need a virtual trigger).
    pub vline: VirtAddr,
    /// Whether a demand has hit this line since it was filled.
    pub demand_touched: bool,
    /// Whether the line arrived via width expansion (§3.4.3) — the most
    /// speculative fill class.
    pub width: bool,
    /// Whether a store has touched the line (writeback candidate).
    pub dirty: bool,
    /// Cycle the fill that installed this line entered the memory system
    /// (from its MSHR entry). Lets a demand's first touch of a prefetched
    /// line compute issue-to-use timeliness without any per-line clock.
    pub issued_at: u64,
}

/// Pollution-injection settings for the §3.5 limit study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollutionConfig {
    /// Inject one bad prefetch each time the bus has been idle for this
    /// many cycles (the paper injects "on every idle bus cycle"; a period
    /// of one line-occupancy reproduces that).
    pub period: u64,
}

impl cdp_mem::EvictClass for L2Meta {
    /// Speculative fills may not displace the proven working set: lines a
    /// demand has touched (or demand fills themselves) are protected,
    /// untouched chain candidates are preferred victims over them, and
    /// untouched width-expansion lines (§3.4.3, the most speculative
    /// class) go first.
    fn evict_class(&self) -> u8 {
        if self.owner == Engine::Demand || self.demand_touched {
            0
        } else if self.width {
            2
        } else {
            1
        }
    }
}

/// The assembled memory system.
pub struct Hierarchy<'w> {
    space: &'w AddressSpace,
    cfg: SystemConfig,
    l1: Cache<()>,
    l2: Cache<L2Meta>,
    dtlb: Tlb,
    bus: Bus,
    mshrs: MshrFile,
    stride: Option<StridePrefetcher>,
    content: Option<ContentPrefetcher>,
    /// The §5 Markov STAB: a delta table in address-keyed, history-1
    /// mode whose requests carry `RequestKind::Markov`.
    markov: Option<DeltaPrefetcher>,
    stream: Option<StreamPrefetcher>,
    adaptive: Option<AdaptiveVam>,
    delta: Option<DeltaPrefetcher>,
    jump: Option<JumpPrefetcher>,
    /// Perceptron confidence filter: consulted between request generation
    /// and `issue_prefetch`, trained at the useful/wasted accounting sites.
    perceptron: Option<PerceptronFilter>,
    stats: MemStats,
    pollution: Option<PollutionConfig>,
    next_pollution: u64,
    pollution_rng: u64,
    /// Lines with an in-flight fill that a store has requested (they will
    /// install dirty).
    pending_dirty: std::collections::HashSet<u32>,
    /// Reusable request buffers for the prefetch-issue hot path. A small
    /// stack (not one buffer) because `issue_prefetch` can recurse through
    /// a resident-line rescan back into `scan_and_issue`, which needs a
    /// second buffer while the first is still borrowed out.
    req_bufs: Vec<Vec<PrefetchRequest>>,
    /// Reusable buffer for MSHR completion draining (taken out of `self`
    /// while `drain` iterates, so steady-state ticks never allocate).
    drain_buf: Vec<cdp_mem::InFlight>,
    /// First unrecoverable demand-path fault, latched for the driver.
    /// The hierarchy keeps serving accesses after a fault (returning
    /// L1-hit latency) so the core can be driven to a clean stop; the
    /// simulator checks this latch between run windows.
    fault: Option<CdpError>,
    /// Injected page-walk failures (fault-injection studies).
    walk_fault: Option<WalkFault>,
    /// Count of injection-eligible walks, for the period check.
    walk_tick: u64,
    /// Structured event tracer; `None` (the default) keeps every hook a
    /// single branch with no payload computation — the unobserved path is
    /// allocation-free and byte-identical.
    tracer: Option<Box<TraceRing>>,
    /// Latency-attribution histograms (`--profile-hist`); `None` (the
    /// default) keeps every recording site a single branch.
    profile: Option<Box<cdp_obs::Profile>>,
}

impl<'w> std::fmt::Debug for Hierarchy<'w> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'w> Hierarchy<'w> {
    /// Builds the hierarchy described by `cfg` over the (read-only) memory
    /// image `space`.
    pub fn new(cfg: SystemConfig, space: &'w AddressSpace) -> Self {
        let stride = cfg.prefetchers.stride.as_ref().map(StridePrefetcher::new);
        let content = cfg.prefetchers.content.map(ContentPrefetcher::new);
        let markov = cfg.prefetchers.markov.as_ref().map(DeltaPrefetcher::stab);
        let stream = cfg.prefetchers.stream.as_ref().map(StreamPrefetcher::new);
        let adaptive = cfg.prefetchers.adaptive.map(AdaptiveVam::new);
        let delta = cfg.prefetchers.delta.as_ref().map(DeltaPrefetcher::new);
        let jump = cfg.prefetchers.jump.as_ref().map(JumpPrefetcher::new);
        let perceptron = cfg
            .prefetchers
            .perceptron
            .as_ref()
            .map(PerceptronFilter::new);
        Hierarchy {
            l1: Cache::from_config(&cfg.l1d),
            l2: Cache::from_config(&cfg.ul2),
            dtlb: Tlb::new(&cfg.dtlb),
            bus: Bus::new(&cfg.bus),
            mshrs: MshrFile::with_capacity(cfg.arbiters.l2_queue_size),
            stride,
            content,
            markov,
            stream,
            adaptive,
            delta,
            jump,
            perceptron,
            stats: MemStats::default(),
            pollution: None,
            next_pollution: 0,
            pollution_rng: 0x1234_5678_9abc_def0,
            pending_dirty: std::collections::HashSet::new(),
            req_bufs: Vec::new(),
            drain_buf: Vec::new(),
            fault: None,
            walk_fault: None,
            walk_tick: 0,
            tracer: None,
            profile: None,
            space,
            cfg,
        }
    }

    /// Installs a structured event tracer. All hook sites start recording;
    /// simulated behavior and statistics are unaffected.
    pub fn set_tracer(&mut self, ring: TraceRing) {
        self.tracer = Some(Box::new(ring));
    }

    /// Removes and returns the tracer (with everything it buffered).
    pub fn take_tracer(&mut self) -> Option<TraceRing> {
        self.tracer.take().map(|b| *b)
    }

    /// Mutable access to the installed tracer, if any (used to clear it
    /// at the warmup boundary).
    pub fn tracer_mut(&mut self) -> Option<&mut TraceRing> {
        self.tracer.as_deref_mut()
    }

    /// Installs the latency-attribution histograms. All recording sites
    /// start sampling; simulated behavior and statistics are unaffected.
    pub fn set_profile(&mut self, profile: Box<cdp_obs::Profile>) {
        self.profile = Some(profile);
    }

    /// Removes and returns the profile (with everything it recorded).
    pub fn take_profile(&mut self) -> Option<Box<cdp_obs::Profile>> {
        self.profile.take()
    }

    /// Records one trace event when a tracer is installed and its filter
    /// wants `category`. The payload closure only runs in that case, so
    /// hook sites cost a single branch when tracing is off.
    #[inline]
    fn trace(&mut self, category: TraceFilter, at: u64, make: impl FnOnce() -> TraceData) {
        if let Some(t) = self.tracer.as_deref_mut() {
            if t.wants(category) {
                t.push(at, make());
            }
        }
    }

    /// Enables the §3.5 pollution limit study: junk lines are force-filled
    /// into the L2 whenever the bus is idle.
    pub fn with_pollution(mut self, pollution: PollutionConfig) -> Self {
        self.pollution = Some(pollution);
        self
    }

    /// Enables deterministic page-walk fault injection: every
    /// `fault.period`-th eligible hardware walk is forced to fail.
    /// Prefetch-candidate walks are always eligible (the failure is
    /// squashed and counted as an unmapped drop); demand walks only when
    /// `fault.demand` is set (the failure latches a
    /// [`CdpError::TranslationFailure`]).
    pub fn with_walk_fault(mut self, fault: WalkFault) -> Self {
        self.walk_fault = Some(fault);
        self
    }

    /// The first unrecoverable demand-path fault, if one has occurred.
    pub fn fault(&self) -> Option<&CdpError> {
        self.fault.as_ref()
    }

    /// Takes the latched fault, clearing the latch.
    pub fn take_fault(&mut self) -> Option<CdpError> {
        self.fault.take()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Content-prefetcher internals (scan/rescan/candidate counters).
    pub fn content_stats(&self) -> Option<cdp_prefetch::ContentStats> {
        self.content.as_ref().map(|c| c.stats())
    }

    /// Stride-prefetcher internals.
    pub fn stride_stats(&self) -> Option<cdp_prefetch::StrideStats> {
        self.stride.as_ref().map(|s| s.stats())
    }

    /// Markov STAB internals.
    pub fn markov_stats(&self) -> Option<cdp_prefetch::DeltaStats> {
        self.markov.as_ref().map(|m| m.stats())
    }

    /// Stream-buffer internals.
    pub fn stream_stats(&self) -> Option<cdp_prefetch::StreamStats> {
        self.stream.as_ref().map(|s| s.stats())
    }

    /// Delta-prefetcher internals.
    pub fn delta_stats(&self) -> Option<cdp_prefetch::DeltaStats> {
        self.delta.as_ref().map(|d| d.stats())
    }

    /// Jump-prefetcher internals.
    pub fn jump_stats(&self) -> Option<cdp_prefetch::JumpStats> {
        self.jump.as_ref().map(|j| j.stats())
    }

    /// Perceptron-filter internals.
    pub fn perceptron_stats(&self) -> Option<cdp_prefetch::PerceptronStats> {
        self.perceptron.as_ref().map(|p| p.stats())
    }

    /// Adaptive-controller internals (and the content configuration it has
    /// steered to, for inspection).
    pub fn adaptive_state(
        &self,
    ) -> Option<(
        cdp_prefetch::adaptive::AdaptiveStats,
        cdp_types::ContentConfig,
    )> {
        match (&self.adaptive, &self.content) {
            (Some(a), Some(c)) => Some((a.stats(), *c.config())),
            _ => None,
        }
    }

    /// Bus statistics.
    pub fn bus_stats(&self) -> cdp_mem::BusStats {
        self.bus.stats()
    }

    /// Resets statistics at the warm-up boundary (§2.2). Cache, TLB, MSHR,
    /// and predictor *state* is preserved — only counters clear.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.dtlb.reset_stats();
        if let Some(p) = self.profile.as_deref_mut() {
            p.clear();
        }
    }

    /// Processes every fill that has completed by `now`, in completion
    /// order, including chained fills that complete before `now`.
    fn drain(&mut self, now: u64) {
        let mut done = std::mem::take(&mut self.drain_buf);
        loop {
            self.mshrs.drain_complete_into(now, &mut done);
            if done.is_empty() {
                break;
            }
            for fill in done.iter().copied() {
                self.install_fill(
                    fill.line,
                    fill.vline,
                    fill.kind,
                    fill.width,
                    fill.issued_at,
                    fill.complete_at,
                );
            }
        }
        self.drain_buf = done;
    }

    /// Installs one arrived line into the L2 (and L1 for demand fills) and
    /// lets the content prefetcher scan it.
    fn install_fill(
        &mut self,
        line: LineAddr,
        trigger_ea: VirtAddr,
        kind: RequestKind,
        width: bool,
        issued_at: u64,
        at: u64,
    ) {
        let is_demand = matches!(kind, RequestKind::Demand);
        let meta = L2Meta {
            owner: kind.engine(),
            depth: kind.depth(),
            vline: trigger_ea.line(),
            demand_touched: is_demand,
            width,
            dirty: self.pending_dirty.remove(&line.0),
            issued_at,
        };
        if let Some(evicted) = self.l2.fill(line.0, meta) {
            if self.cfg.model_writebacks && evicted.meta.dirty {
                // Dirty victim: one low-priority line transfer back to
                // memory.
                self.bus.schedule(at, false);
                self.stats.writebacks += 1;
            }
            if evicted.meta.owner != Engine::Demand && !evicted.meta.demand_touched {
                self.stats.record_wasted(evicted.meta.owner);
                // A wasted prefetch is the perceptron's negative sample.
                if let Some(p) = self.perceptron.as_mut() {
                    p.train(evicted.meta.vline, evicted.meta.owner, false);
                }
            }
        }
        if is_demand {
            self.l1.fill(trigger_ea.line().0, ());
        }
        // Content prefetcher sees a copy of every fill except page walks;
        // the jump prefetcher harvests its pointer link from the same copy.
        if !matches!(kind, RequestKind::PageWalk) {
            let mut data = [0u8; LINE_SIZE];
            self.space.phys().read_line_into(line, &mut data);
            if let Some(jp) = self.jump.as_mut() {
                let mut out = Vec::new();
                jp.on_l2_fill(trigger_ea, trigger_ea.line(), &data, kind, &mut out);
                debug_assert!(out.is_empty(), "jump trains on fills, chases on misses");
            }
            self.scan_and_issue(trigger_ea, &data, kind.depth(), at, false);
        }
    }

    /// Scans a line with the content prefetcher and issues the resulting
    /// candidates at time `at`.
    fn scan_and_issue(
        &mut self,
        trigger_ea: VirtAddr,
        data: &[u8; LINE_SIZE],
        fill_depth: u8,
        at: u64,
        is_rescan: bool,
    ) {
        // Trace-only VAM classification: a separate read-only walk over the
        // same words the scanner will examine, so the scan hot path below
        // stays untouched when tracing is off.
        if self.tracer.is_some() {
            self.trace_vam_pass(trigger_ea, data, fill_depth, at);
        }
        let mut out = self.take_req_buf();
        if let Some(c) = self.content.as_mut() {
            if is_rescan {
                c.rescan(trigger_ea, data, fill_depth, &mut out);
            } else {
                c.scan_fill(trigger_ea, data, fill_depth, &mut out);
            }
        }
        for r in out.drain(..) {
            self.issue_prefetch(r, at);
        }
        self.put_req_buf(out);
    }

    /// Re-classifies every word the VAM scanner would examine and records
    /// an accept/reject event per word. Uses [`cdp_prefetch::classify`] —
    /// the same function `is_candidate` wraps — so the trace can never
    /// disagree with the actual scan.
    fn trace_vam_pass(
        &mut self,
        trigger_ea: VirtAddr,
        data: &[u8; LINE_SIZE],
        fill_depth: u8,
        at: u64,
    ) {
        let Some(c) = self.content.as_ref() else {
            return;
        };
        if !c.may_scan(fill_depth) {
            return;
        }
        let vam = c.config().vam;
        let Some(t) = self.tracer.as_deref_mut() else {
            return;
        };
        if !t.wants(TraceFilter::VAM) {
            return;
        }
        let step = vam.scan_step.max(1);
        let mut off = 0;
        while off + WORD_SIZE <= LINE_SIZE {
            let word = u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]);
            let event = match cdp_prefetch::classify(word, trigger_ea, &vam) {
                VamVerdict::Accept => TraceData::VamAccept { word },
                VamVerdict::RejectAlign => TraceData::VamReject {
                    word,
                    cause: VamCause::Align,
                },
                VamVerdict::RejectCompare => TraceData::VamReject {
                    word,
                    cause: VamCause::Compare,
                },
                VamVerdict::RejectFilter => TraceData::VamReject {
                    word,
                    cause: VamCause::Filter,
                },
            };
            t.push(at, event);
            off += step;
        }
    }

    /// Borrows a request buffer from the reuse stack (steady state: no
    /// allocation per fill).
    #[inline]
    fn take_req_buf(&mut self) -> Vec<PrefetchRequest> {
        self.req_bufs.pop().unwrap_or_default()
    }

    /// Returns a request buffer to the reuse stack.
    #[inline]
    fn put_req_buf(&mut self, mut buf: Vec<PrefetchRequest>) {
        buf.clear();
        if self.req_bufs.len() < 8 {
            self.req_bufs.push(buf);
        }
    }

    /// Translates a demand access, charging page-walk latency on a DTLB
    /// miss. Page-walk lines are cached in the L2 but bypass the scanner.
    ///
    /// # Errors
    ///
    /// Demand traces only touch mapped memory by construction, so a
    /// failed walk is unrecoverable: [`CdpError::UnmappedAccess`] when
    /// the page genuinely has no mapping (a corrupt image or an unmapped
    /// page under the run), [`CdpError::TranslationFailure`] when the
    /// mapping exists but the walk was denied (injected walk fault).
    fn translate_demand(
        &mut self,
        pc: u32,
        vaddr: VirtAddr,
        now: u64,
    ) -> Result<(PhysAddr, u64), CdpError> {
        if let Some(frame) = self.dtlb.lookup(vaddr.page()) {
            self.stats.dtlb_hits += 1;
            return Ok((PhysAddr(frame.0 + vaddr.page_offset()), 0));
        }
        self.stats.dtlb_misses += 1;
        let Some((paddr, penalty)) = self.walk(vaddr, now, true) else {
            return Err(if self.space.translate(vaddr).is_some() {
                CdpError::TranslationFailure { addr: vaddr }
            } else {
                CdpError::UnmappedAccess { pc, addr: vaddr }
            });
        };
        self.dtlb
            .insert(vaddr.page(), PhysAddr(paddr.0 - vaddr.page_offset()));
        Ok((paddr, penalty))
    }

    /// Performs a hardware page walk: two dependent physical reads through
    /// the L2. Returns the translated address and the cycles consumed, or
    /// `None` if the page is unmapped. `demand` selects the bus priority
    /// class for page-table fetches: walks for demand accesses preempt
    /// speculative traffic, while walks issued on behalf of prefetch
    /// candidates ride the prefetch track so they never delay the core.
    fn walk(&mut self, vaddr: VirtAddr, now: u64, demand: bool) -> Option<(PhysAddr, u64)> {
        if let Some(wf) = self.walk_fault {
            if !demand || wf.demand {
                self.walk_tick += 1;
                if wf.period > 0 && self.walk_tick.is_multiple_of(wf.period) {
                    return None;
                }
            }
        }
        let walk = self.space.walk(vaddr);
        let mut penalty = 0u64;
        let lines = [Some(walk.pde_addr.line()), walk.pte_addr.map(|p| p.line())];
        for l in lines.into_iter().flatten() {
            if self.l2.access(l.0).is_some() {
                penalty += self.cfg.ul2.latency;
            } else {
                // Synchronous fill of the page-table line (demand priority,
                // scanner bypassed).
                let done = self.bus.schedule(now + penalty, demand);
                penalty = done - now;
                self.l2.fill(
                    l.0,
                    L2Meta {
                        owner: Engine::Demand,
                        depth: 0,
                        vline: VirtAddr(0),
                        demand_touched: true,
                        width: false,
                        dirty: false,
                        issued_at: now,
                    },
                );
            }
        }
        let frame = walk.frame_base?;
        Some((PhysAddr(frame.0 + vaddr.page_offset()), penalty))
    }

    /// Translates a prefetch candidate. Unlike demands, an unmapped page
    /// drops the request instead of faulting. Walk latency is charged to
    /// the prefetch, not to the core.
    fn translate_prefetch(&mut self, vaddr: VirtAddr, now: u64) -> Option<(PhysAddr, u64)> {
        if let Some(frame) = self.dtlb.lookup(vaddr.page()) {
            self.stats.prefetch_tlb_hits += 1;
            return Some((PhysAddr(frame.0 + vaddr.page_offset()), 0));
        }
        let (paddr, penalty) = self.walk(vaddr, now, false)?;
        self.stats.prefetch_walks += 1;
        self.dtlb
            .insert(vaddr.page(), PhysAddr(paddr.0 - vaddr.page_offset()));
        Some((paddr, penalty))
    }

    /// Issues one prefetch request through the §3.5 checks: depth
    /// threshold, translation, residency (with the reinforcement cascade),
    /// in-flight matching, and queue capacity.
    fn issue_prefetch(&mut self, req: PrefetchRequest, now: u64) {
        // Confidence gate: every prefetch consults the perceptron filter
        // before spending any bandwidth. Rejected requests vanish here —
        // they never reach translation, the MSHRs, or the bus — but the
        // filter remembers their lines so a later demand miss on one
        // (a false negative) trains the weights back open.
        if req.kind.is_prefetch() {
            if let Some(p) = self.perceptron.as_mut() {
                if !p.accept(&req) {
                    return;
                }
            }
        }
        if let RequestKind::Content { depth } = req.kind {
            let threshold = self
                .content
                .as_ref()
                .map(|c| c.config().depth_threshold)
                .unwrap_or(0);
            if depth > threshold {
                self.stats.drops.too_deep += 1;
                self.trace(TraceFilter::DROP, now, || TraceData::PrefetchDrop {
                    line: req.vaddr.line().0,
                    reason: DropReason::TooDeep,
                    depth,
                });
                return;
            }
        }
        let Some((paddr, walk_penalty)) = self.translate_prefetch(req.vaddr, now) else {
            self.stats.drops.unmapped += 1;
            self.trace(TraceFilter::DROP, now, || TraceData::PrefetchDrop {
                line: req.vaddr.line().0,
                reason: DropReason::Unmapped,
                depth: req.kind.depth(),
            });
            return;
        };
        let pline = paddr.line();

        // Already resident? For content requests, a shallower incoming
        // depth re-energizes the chain (Figure 3, right side): reset the
        // stored depth and rescan the resident line.
        if let Some(meta) = self.l2.peek_mut(pline.0) {
            if let RequestKind::Content { depth } = req.kind {
                let stored = meta.depth;
                let rescan = self
                    .content
                    .as_ref()
                    .map(|c| c.should_rescan(depth, stored))
                    .unwrap_or(false);
                if rescan {
                    meta.depth = depth;
                    let trigger = req.vaddr;
                    self.stats.depth_promotions += 1;
                    self.stats.rescans += 1;
                    self.trace(TraceFilter::DEPTH, now, || TraceData::DepthTransition {
                        line: pline.0,
                        from: stored,
                        to: depth,
                    });
                    self.trace(TraceFilter::RESCAN, now, || TraceData::Rescan {
                        line: pline.0,
                        depth,
                    });
                    let mut data = [0u8; LINE_SIZE];
                    self.space.phys().read_line_into(pline, &mut data);
                    self.scan_and_issue(trigger, &data, depth, now, true);
                }
            }
            self.stats.drops.resident += 1;
            self.trace(TraceFilter::DROP, now, || TraceData::PrefetchDrop {
                line: pline.0,
                reason: DropReason::Resident,
                depth: req.kind.depth(),
            });
            return;
        }

        // Matching transaction in flight? Promote its depth/priority and
        // drop the duplicate.
        if self.mshrs.lookup(pline).is_some() {
            self.mshrs.promote(pline, req.kind);
            self.stats.drops.in_flight += 1;
            self.trace(TraceFilter::MSHR, now, || TraceData::MshrMerge {
                line: pline.0,
                engine: req.kind.engine(),
            });
            self.trace(TraceFilter::DROP, now, || TraceData::PrefetchDrop {
                line: pline.0,
                reason: DropReason::InFlight,
                depth: req.kind.depth(),
            });
            return;
        }

        // Queue capacity: prefetches are squashed when the L2 request
        // queue (outstanding misses) or the bus queue is full.
        if self.mshrs.len() >= self.cfg.arbiters.l2_queue_size
            || self.bus.prefetch_backlog_at(now) >= self.cfg.bus.queue_size
        {
            self.stats.drops.queue_full += 1;
            self.trace(TraceFilter::DROP, now, || TraceData::PrefetchDrop {
                line: pline.0,
                reason: DropReason::QueueFull,
                depth: req.kind.depth(),
            });
            return;
        }

        let fill_at = self
            .bus
            .schedule(now + walk_penalty + self.cfg.ul2.latency, false);
        self.mshrs
            .insert_width(pline, req.vaddr, req.kind, now, fill_at, req.width);
        if let Some(p) = self.profile.as_deref_mut() {
            self.mshrs.record_occupancy(&mut p.mshr_occupancy);
        }
        self.stats.record_issued(req.kind.engine());
        self.trace(TraceFilter::ISSUE, now, || TraceData::PrefetchIssue {
            line: pline.0,
            engine: req.kind.engine(),
            depth: req.kind.depth(),
        });
    }

    /// The §3.5 pollution limit study: when enabled, force junk lines into
    /// the L2 on idle bus cycles to measure sensitivity to low-accuracy
    /// prefetching.
    fn maybe_pollute(&mut self, now: u64) {
        let Some(p) = self.pollution else { return };
        if self.next_pollution == 0 {
            self.next_pollution = p.period;
        }
        while self.next_pollution <= now {
            let at = self.next_pollution;
            self.next_pollution += p.period;
            if !self.bus.is_idle_at(at) {
                continue;
            }
            // A pseudo-random physical line in a junk region.
            self.pollution_rng = self
                .pollution_rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr((0x3000_0000 | (self.pollution_rng as u32 & 0x00ff_ffc0)) & !63);
            self.bus.schedule(at, false);
            self.l2.fill(
                line.0,
                L2Meta {
                    owner: Engine::Content,
                    depth: 3,
                    vline: VirtAddr(0),
                    demand_touched: false,
                    width: true,
                    dirty: false,
                    issued_at: at,
                },
            );
            self.stats.injected_pollution += 1;
        }
    }

    /// Serializes the complete hierarchy state: both caches (slot layout
    /// and replacement state), DTLB, bus timing tracks, MSHR file,
    /// every configured prefetcher, statistics, the pollution/fault RNG
    /// streams, pending-dirty lines, and the tracer ring / profile
    /// histograms when installed.
    ///
    /// Call only between accesses (the transient request/drain buffers
    /// are empty then and are not serialized). A latched fault is not
    /// serialized either — the run drivers check the latch at every
    /// window boundary before snapshotting.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        self.l1.save_state(enc, |(), _| {});
        self.l2.save_state(enc, |m, e| {
            e.u8(m.owner.code());
            e.u8(m.depth);
            e.u32(m.vline.0);
            e.bool(m.demand_touched);
            e.bool(m.width);
            e.bool(m.dirty);
            e.u64(m.issued_at);
        });
        self.dtlb.save_state(enc);
        self.bus.save_state(enc);
        self.mshrs.save_state(enc);
        if let Ok(Some(p)) = enc.option(&mut self.stride.as_ref(), None, "stride presence") {
            p.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.content.as_ref(), None, "content presence") {
            p.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.markov.as_ref(), None, "markov presence") {
            p.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.stream.as_ref(), None, "stream presence") {
            p.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.adaptive.as_ref(), None, "adaptive presence") {
            p.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.delta.as_ref(), None, "delta presence") {
            p.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.jump.as_ref(), None, "jump presence") {
            p.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.perceptron.as_ref(), None, "perceptron presence")
        {
            p.save_state(enc);
        }
        enc.put(self.stats);
        enc.u64(self.next_pollution);
        enc.u64(self.pollution_rng);
        enc.u64(self.walk_tick);
        // HashSet iteration order is unspecified; serialize sorted so the
        // snapshot bytes are deterministic for a given state.
        let mut dirty: Vec<u32> = self.pending_dirty.iter().copied().collect();
        dirty.sort_unstable();
        enc.seq_len(dirty.len());
        for line in dirty {
            enc.u32(line);
        }
        if let Ok(Some(t)) = enc.option(&mut self.tracer.as_deref(), None, "tracer presence") {
            t.save_state(enc);
        }
        if let Ok(Some(p)) = enc.option(&mut self.profile.as_deref(), None, "profile presence") {
            p.save_state(enc);
        }
    }

    /// Restores state written by [`Hierarchy::save_state`] into a freshly
    /// built hierarchy of the same configuration (same workload image,
    /// same prefetcher set, tracer installed iff it was at save time).
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation,
    /// structural mismatch with this hierarchy's geometry, or a
    /// prefetcher/tracer presence flag that contradicts the
    /// configuration this hierarchy was built with.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        self.l1.restore_state(dec, |_| Ok(()))?;
        self.l2.restore_state(dec, |d| {
            Ok(L2Meta {
                owner: Engine::from_code(d.u8("l2 meta owner")?).ok_or(SnapshotError::Corrupt {
                    context: "l2 meta owner",
                })?,
                depth: d.u8("l2 meta depth")?,
                vline: VirtAddr(d.u32("l2 meta vline")?),
                demand_touched: d.bool("l2 meta demand_touched")?,
                width: d.bool("l2 meta width")?,
                dirty: d.bool("l2 meta dirty")?,
                issued_at: d.u64("l2 meta issued_at")?,
            })
        })?;
        self.dtlb.restore_state(dec)?;
        self.bus.restore_state(dec)?;
        self.mshrs.restore_state(dec)?;
        if let Some(p) = dec.option(&mut self.stride.as_mut(), None, "stride presence")? {
            p.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.content.as_mut(), None, "content presence")? {
            p.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.markov.as_mut(), None, "markov presence")? {
            p.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.stream.as_mut(), None, "stream presence")? {
            p.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.adaptive.as_mut(), None, "adaptive presence")? {
            p.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.delta.as_mut(), None, "delta presence")? {
            p.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.jump.as_mut(), None, "jump presence")? {
            p.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.perceptron.as_mut(), None, "perceptron presence")? {
            p.restore_state(dec)?;
        }
        self.stats = dec.get()?;
        self.next_pollution = dec.u64("next_pollution")?;
        self.pollution_rng = dec.u64("pollution_rng")?;
        self.walk_tick = dec.u64("walk_tick")?;
        let n = dec.seq_len(4, "pending_dirty count")?;
        self.pending_dirty.clear();
        for _ in 0..n {
            self.pending_dirty.insert(dec.u32("pending_dirty line")?);
        }
        if let Some(t) = dec.option(&mut self.tracer.as_deref_mut(), None, "tracer presence")? {
            t.restore_state(dec)?;
        }
        if let Some(p) = dec.option(&mut self.profile.as_deref_mut(), None, "profile presence")? {
            **p = cdp_obs::Profile::restore_state(dec)?;
        }
        Ok(())
    }
}

impl<'w> MemoryModel for Hierarchy<'w> {
    fn access(&mut self, pc: u32, vaddr: VirtAddr, kind: AccessKind, now: u64) -> u64 {
        self.drain(now);
        self.maybe_pollute(now);
        self.stats.accesses += 1;

        // L1 lookup (virtually indexed).
        if self.l1.access(vaddr.line().0).is_some() {
            self.stats.l1_hits += 1;
            if let Some(p) = self.profile.as_deref_mut() {
                p.load_to_use.record(self.cfg.l1d.latency);
            }
            return now + self.cfg.l1d.latency;
        }
        self.stats.l1_misses += 1;

        // The stride prefetcher monitors all L1 miss traffic (§3.5); the
        // optional stream buffers watch the same stream.
        let mut reqs = self.take_req_buf();
        if let Some(sp) = self.stride.as_mut() {
            sp.observe(pc, vaddr, &mut reqs);
        }
        let stride_issued_here = !reqs.is_empty();
        if let Some(sb) = self.stream.as_mut() {
            sb.observe(vaddr, &mut reqs);
        }

        // Address translation. An unrecoverable demand fault latches for
        // the driver; the access itself degrades to an L1-hit-latency
        // no-op so the core drains cleanly instead of tearing down the
        // process mid-flight.
        let (paddr, walk_penalty) = match self.translate_demand(pc, vaddr, now) {
            Ok(t) => t,
            Err(e) => {
                let tag = match &e {
                    CdpError::UnmappedAccess { .. } => FaultTag::Unmapped,
                    CdpError::TranslationFailure { .. } => FaultTag::Walk,
                    _ => FaultTag::Other,
                };
                self.trace(TraceFilter::FAULT, now, || TraceData::Fault { kind: tag });
                if self.fault.is_none() {
                    self.fault = Some(e);
                }
                self.put_req_buf(reqs);
                return now + self.cfg.l1d.latency;
            }
        };
        let pline = paddr.line();
        let base = now + self.cfg.l1d.latency + walk_penalty;

        self.stats.l2_demand_accesses += 1;
        let completion = match self.l2.access(pline.0) {
            Some(meta) => {
                self.stats.l2_demand_hits += 1;
                let (owner, stored_depth, first_touch, fill_issued_at) =
                    (meta.owner, meta.depth, !meta.demand_touched, meta.issued_at);
                meta.demand_touched = true;
                if kind.is_store() {
                    meta.dirty = true;
                }
                if first_touch && owner != Engine::Demand {
                    if let Some(p) = self.profile.as_deref_mut() {
                        // Full latency mask: issue-to-use spans the whole
                        // fill plus the resident dwell time.
                        p.prefetch_to_use.record(now.saturating_sub(fill_issued_at));
                    }
                    self.stats.record_useful_full(owner);
                    // A fully-masked prefetch is the perceptron's positive
                    // sample.
                    if let Some(p) = self.perceptron.as_mut() {
                        p.train(vaddr, owner, true);
                    }
                }
                // A demand hitting the L2 installs the line in the L1.
                self.l1.fill(vaddr.line().0, ());
                // Path reinforcement (§3.4.2): a depth-0 demand hit on a
                // deeper line promotes it and rescans.
                let rescan = self
                    .content
                    .as_ref()
                    .map(|c| c.should_rescan(0, stored_depth))
                    .unwrap_or(false);
                if rescan {
                    if let Some(m) = self.l2.peek_mut(pline.0) {
                        m.depth = 0;
                    }
                    self.stats.depth_promotions += 1;
                    self.stats.rescans += 1;
                    self.trace(TraceFilter::DEPTH, now, || TraceData::DepthTransition {
                        line: pline.0,
                        from: stored_depth,
                        to: 0,
                    });
                    self.trace(TraceFilter::RESCAN, now, || TraceData::Rescan {
                        line: pline.0,
                        depth: 0,
                    });
                    let mut data = [0u8; LINE_SIZE];
                    self.space.phys().read_line_into(pline, &mut data);
                    self.scan_and_issue(vaddr, &data, 0, now, true);
                }
                base + self.cfg.ul2.latency
            }
            None => {
                if let Some(inflight) = self.mshrs.lookup(pline).copied() {
                    // Merge with the in-flight fill; promote prefetches.
                    if kind.is_store() {
                        self.pending_dirty.insert(pline.0);
                    }
                    self.stats.l2_miss_merged += 1;
                    self.trace(TraceFilter::MSHR, now, || TraceData::MshrMerge {
                        line: pline.0,
                        engine: Engine::Demand,
                    });
                    // A prefetch whose bus transfer has not started yet is
                    // re-arbitrated at demand priority (§3.5 promotion):
                    // otherwise the demand would wait out the prefetch
                    // backlog it is supposed to outrank.
                    let mut effective = inflight.complete_at;
                    if inflight.kind.is_prefetch()
                        && self.bus.peek_schedule(base + self.cfg.ul2.latency, true)
                            < inflight.complete_at
                    {
                        let fresh = self.bus.schedule(base + self.cfg.ul2.latency, true);
                        effective = effective.min(fresh);
                        self.mshrs.expedite(pline, effective);
                    }
                    if inflight.kind.is_prefetch() {
                        if let Some(p) = self.profile.as_deref_mut() {
                            // Partial mask: the demand arrived while the
                            // prefetch was still in flight.
                            p.prefetch_to_use
                                .record(now.saturating_sub(inflight.issued_at));
                        }
                        let engine = inflight.kind.engine();
                        self.stats.record_useful_partial(engine);
                        // A partially-masked prefetch still counts as a
                        // positive perceptron sample.
                        if let Some(p) = self.perceptron.as_mut() {
                            p.train(vaddr, engine, true);
                        }
                        self.mshrs.promote(pline, RequestKind::Demand);
                    }
                    effective.max(base)
                } else {
                    // True demand miss.
                    if kind.is_store() {
                        self.pending_dirty.insert(pline.0);
                    }
                    self.stats.l2_demand_misses += 1;
                    self.stats.distribution.unmasked_misses += 1;
                    // An unmasked demand miss on a line the perceptron
                    // rejected is a false negative: reopen the gate.
                    if let Some(p) = self.perceptron.as_mut() {
                        p.on_demand_miss(vaddr);
                    }
                    let before = reqs.len();
                    if let Some(mk) = self.markov.as_mut() {
                        mk.observe_miss(vaddr, &mut reqs);
                    }
                    if let Some(dp) = self.delta.as_mut() {
                        dp.observe_miss(vaddr, &mut reqs);
                    }
                    if let Some(jp) = self.jump.as_mut() {
                        jp.on_l2_miss(vaddr, &mut reqs);
                    }
                    if stride_issued_here {
                        // Stride precedence blocks correlation-engine issue
                        // (§5), though training still occurs. Delta and
                        // jump get the same treatment as Markov so the
                        // tournament compares them under one policy.
                        reqs.truncate(before);
                    }
                    let fill_at = self.bus.schedule(base + self.cfg.ul2.latency, true);
                    self.mshrs
                        .insert(pline, vaddr, RequestKind::Demand, now, fill_at);
                    if let Some(p) = self.profile.as_deref_mut() {
                        self.mshrs.record_occupancy(&mut p.mshr_occupancy);
                    }
                    fill_at
                }
            }
        };

        // Issue everything the prefetchers asked for.
        for r in reqs.drain(..) {
            self.issue_prefetch(r, now);
        }
        self.put_req_buf(reqs);
        // Run-time adaptation (§4.1 future work): periodically steer the
        // content prefetcher's knobs by observed accuracy.
        if let (Some(ctl), Some(content)) = (self.adaptive.as_mut(), self.content.as_mut()) {
            if ctl.window_ready(self.stats.content.issued) {
                let mut cfg = *content.config();
                ctl.adjust(
                    &mut cfg,
                    self.stats.content.issued,
                    self.stats.content.useful(),
                );
                content.set_config(cfg);
            }
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.load_to_use.record(completion.saturating_sub(now));
        }
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_types::rng::Rng;
    use cdp_types::{ContentConfig, PrefetchersConfig, StrideConfig};
    use cdp_workloads::structures::{build_list, NEXT_OFFSET};
    use cdp_workloads::Heap;

    fn space_with_list(n: usize, shuffle: bool) -> (AddressSpace, Vec<VirtAddr>) {
        let mut space = AddressSpace::new();
        let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 24);
        let mut rng = Rng::seed_from_u64(11);
        let list = build_list(&mut space, &mut heap, &mut rng, n, 64, shuffle);
        (space, list.nodes)
    }

    fn cfg_stride_only() -> SystemConfig {
        SystemConfig::asplos2002()
    }

    fn cfg_with_content() -> SystemConfig {
        SystemConfig::with_content()
    }

    #[test]
    fn l1_hit_costs_l1_latency() {
        let (space, nodes) = space_with_list(4, false);
        let mut h = Hierarchy::new(cfg_stride_only(), &space);
        let a = nodes[0];
        let t1 = h.access(0x40, a, AccessKind::Load, 0);
        assert!(t1 > 460, "cold miss goes to memory: {t1}");
        // Re-access after the fill arrives.
        let t2 = h.access(0x40, a, AccessKind::Load, t1 + 1);
        assert_eq!(t2, t1 + 1 + 3, "L1 hit is 3 cycles");
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l1_misses, 1);
    }

    #[test]
    fn demand_miss_counts_mptu() {
        let (space, nodes) = space_with_list(8, true);
        let mut h = Hierarchy::new(cfg_stride_only(), &space);
        let mut now = 0;
        for &n in &nodes {
            now = h.access(0x40, n, AccessKind::Load, now) + 1;
        }
        assert_eq!(h.stats().l2_demand_misses, 8, "every node line cold-misses");
    }

    #[test]
    fn content_prefetcher_chases_list_ahead() {
        let (space, nodes) = space_with_list(32, true);
        let mut h = Hierarchy::new(cfg_with_content(), &space);
        // Demand-load node0's next pointer; the fill contains node1's
        // address, so the CDP should start chaining.
        let t = h.access(
            0x40,
            VirtAddr(nodes[0].0 + NEXT_OFFSET),
            AccessKind::Load,
            0,
        );
        // Drain by accessing far in the future.
        let _ = h.access(
            0x44,
            VirtAddr(nodes[0].0 + NEXT_OFFSET),
            AccessKind::Load,
            t + 5000,
        );
        let s = h.stats();
        assert!(
            s.content.issued >= 3,
            "chained prefetches issued: {}",
            s.content.issued
        );
    }

    #[test]
    fn content_prefetch_turns_later_miss_into_hit() {
        let (space, nodes) = space_with_list(16, true);
        let mut h = Hierarchy::new(cfg_with_content(), &space);
        let mut now = 0u64;
        // Walk the list with generous think time so prefetches land.
        let mut misses_late = 0;
        for (i, &n) in nodes.iter().enumerate() {
            let before = h.stats().l2_demand_misses;
            now = h.access(0x40, VirtAddr(n.0 + NEXT_OFFSET), AccessKind::Load, now) + 2000;
            if i >= 4 && h.stats().l2_demand_misses > before {
                misses_late += 1;
            }
        }
        assert!(
            misses_late <= 4,
            "CDP should cover most of the tail of the walk: {misses_late} late misses"
        );
        assert!(h.stats().content.useful_full > 0);
    }

    #[test]
    fn stride_prefetcher_covers_sequential_scan() {
        let mut space = AddressSpace::new();
        space.map_range(VirtAddr(0x2000_0000), 1 << 20);
        let mut h = Hierarchy::new(cfg_stride_only(), &space);
        let mut now = 0u64;
        for i in 0..200u32 {
            now = h.access(0x80, VirtAddr(0x2000_0000 + i * 64), AccessKind::Load, now) + 800;
        }
        let s = h.stats();
        assert!(s.stride.issued > 50, "stride locked: {}", s.stride.issued);
        assert!(
            s.stride.useful() > 30,
            "stride prefetches get used: {}",
            s.stride.useful()
        );
    }

    #[test]
    fn page_walks_happen_and_bypass_scanner() {
        // A line holding only a non-pointer word: the demand fill scans
        // (finding nothing), while the two page-table lines the walk
        // filled into the L2 are never scanned.
        let mut space = AddressSpace::new();
        space.write_u32(VirtAddr(0x1000_0000), 0x0000_0007);
        let mut h = Hierarchy::new(cfg_with_content(), &space);
        let t = h.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, 0);
        assert!(h.stats().dtlb_misses >= 1, "first touch walks");
        let _ = h.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, t + 5000);
        assert_eq!(
            h.content_stats().unwrap().fills_scanned,
            1,
            "exactly the demand fill is scanned, not the page-table lines"
        );
        assert_eq!(h.stats().content.issued, 0);
    }

    #[test]
    fn prefetch_to_unmapped_page_is_dropped() {
        let mut space = AddressSpace::new();
        // A line whose only pointer-looking word targets an unmapped page.
        space.write_u32(VirtAddr(0x1000_0000), 0x10ff_0000); // target unmapped
        let mut h = Hierarchy::new(cfg_with_content(), &space);
        let t = h.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, 0);
        let _ = h.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, t + 2000);
        assert!(h.stats().drops.unmapped >= 1);
        assert_eq!(h.stats().content.issued, 0);
    }

    #[test]
    fn reinforcement_promotes_and_rescans() {
        let (space, nodes) = space_with_list(64, true);
        let mut cfg = cfg_with_content();
        cfg.prefetchers.content = Some(ContentConfig::tuned());
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        for &n in nodes.iter().take(32) {
            now = h.access(0x40, VirtAddr(n.0 + NEXT_OFFSET), AccessKind::Load, now) + 1500;
        }
        assert!(h.stats().rescans > 0, "reinforcement rescans occurred");
        assert!(h.stats().depth_promotions > 0);
    }

    #[test]
    fn no_reinforcement_means_no_rescans() {
        let (space, nodes) = space_with_list(64, true);
        let mut cfg = cfg_with_content();
        cfg.prefetchers.content = Some(ContentConfig {
            reinforcement: false,
            ..ContentConfig::tuned()
        });
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        for &n in nodes.iter().take(32) {
            now = h.access(0x40, VirtAddr(n.0 + NEXT_OFFSET), AccessKind::Load, now) + 1500;
        }
        assert_eq!(h.stats().rescans, 0);
    }

    #[test]
    fn demand_joining_inflight_prefetch_counts_partial() {
        let (space, nodes) = space_with_list(8, true);
        let mut h = Hierarchy::new(cfg_with_content(), &space);
        // Trigger the chain.
        let t0 = h.access(
            0x40,
            VirtAddr(nodes[0].0 + NEXT_OFFSET),
            AccessKind::Load,
            0,
        );
        // Demand node1 shortly after the fill returns: its prefetch is
        // likely still in flight.
        let _ = h.access(
            0x40,
            VirtAddr(nodes[1].0 + NEXT_OFFSET),
            AccessKind::Load,
            t0 + 10,
        );
        let s = h.stats();
        assert!(
            s.content.useful_partial + s.content.useful_full >= 1,
            "node1's line covered: {:?}",
            s.content
        );
    }

    #[test]
    fn pollution_injects_and_hurts_nothing_structurally() {
        let (space, nodes) = space_with_list(8, false);
        let mut h = Hierarchy::new(cfg_stride_only(), &space)
            .with_pollution(PollutionConfig { period: 64 });
        let mut now = 0;
        for &n in &nodes {
            now = h.access(0x40, n, AccessKind::Load, now) + 500;
        }
        assert!(h.stats().injected_pollution > 0);
    }

    #[test]
    fn dirty_evictions_cost_writebacks_when_modeled() {
        // A tiny L2 (one set, 2 ways) so stores' lines get evicted fast.
        let mut space = AddressSpace::new();
        space.map_range(VirtAddr(0x1000_0000), 1 << 16);
        let mut cfg = cfg_stride_only();
        cfg.prefetchers.stride = None;
        cfg.ul2.size_bytes = 2 * 64;
        cfg.ul2.associativity = 2;
        cfg.model_writebacks = true;
        let mut h = Hierarchy::new(cfg.clone(), &space);
        let mut now = 0u64;
        for i in 0..16u32 {
            now = h.access(0x40, VirtAddr(0x1000_0000 + i * 64), AccessKind::Store, now) + 10;
        }
        // Drain remaining fills.
        let _ = h.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, now + 50_000);
        assert!(h.stats().writebacks > 0, "dirty victims must write back");

        // Same run without stores: no writebacks.
        let mut h2 = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        for i in 0..16u32 {
            now = h2.access(0x40, VirtAddr(0x1000_0000 + i * 64), AccessKind::Load, now) + 10;
        }
        let _ = h2.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, now + 50_000);
        assert_eq!(h2.stats().writebacks, 0, "clean victims are silent");
    }

    #[test]
    fn writebacks_not_counted_when_unmodeled() {
        let mut space = AddressSpace::new();
        space.map_range(VirtAddr(0x1000_0000), 1 << 16);
        let mut cfg = cfg_stride_only();
        cfg.ul2.size_bytes = 2 * 64;
        cfg.ul2.associativity = 2;
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        for i in 0..16u32 {
            now = h.access(0x40, VirtAddr(0x1000_0000 + i * 64), AccessKind::Store, now) + 10;
        }
        let _ = h.access(0x40, VirtAddr(0x1000_0000), AccessKind::Load, now + 50_000);
        assert_eq!(h.stats().writebacks, 0);
    }

    #[test]
    fn stream_buffers_cover_sequential_misses() {
        let mut space = AddressSpace::new();
        space.map_range(VirtAddr(0x2000_0000), 1 << 20);
        let mut cfg = cfg_stride_only();
        cfg.prefetchers.stride = None;
        cfg.prefetchers.stream = Some(cdp_types::StreamConfig::default());
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        for i in 0..200u32 {
            now = h.access(0x80, VirtAddr(0x2000_0000 + i * 64), AccessKind::Load, now) + 800;
        }
        // Stream requests are accounted under the stride engine.
        assert!(h.stream_stats().unwrap().emitted > 50);
        assert!(h.stats().stride.useful() > 30);
    }

    #[test]
    fn adaptive_controller_reacts_to_junk() {
        // A workload whose chased pointers lead nowhere useful: the
        // controller should tighten the knobs over time.
        let (space, nodes) = space_with_list(256, true);
        let mut cfg = cfg_with_content();
        cfg.prefetchers.adaptive = Some(cdp_types::AdaptiveConfig {
            window: 64,
            ..cdp_types::AdaptiveConfig::default()
        });
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        // Touch scattered nodes only once each: prefetches rarely pay.
        for &n in nodes.iter().step_by(7) {
            now = h.access(0x40, VirtAddr(n.0 + NEXT_OFFSET), AccessKind::Load, now) + 3000;
        }
        let (stats, steered) = h.adaptive_state().expect("adaptive on");
        assert!(stats.windows > 0, "controller evaluated windows");
        // It must have moved off the tuned point in the conservative
        // direction (less width and/or more compare bits).
        let tuned = ContentConfig::tuned();
        assert!(
            steered.next_lines <= tuned.next_lines,
            "width never grows on junk: {steered:?}"
        );
    }

    #[test]
    fn markov_issues_after_training() {
        let (space, nodes) = space_with_list(6, true);
        let mut cfg = SystemConfig::with_markov(cdp_types::MarkovConfig::half(), 512 * 1024, 8);
        // Disable stride so Markov is never blocked in this focused test.
        cfg.prefetchers.stride = None;
        let mut h = Hierarchy::new(cfg, &space);
        let mut now = 0u64;
        // Two passes over the same miss sequence; flush L2 between passes
        // by using a fresh hierarchy... instead rely on eviction-free reuse:
        // pass 1 trains, pass 2 hits in L2 (no new misses) — so instead
        // check that training happened and the STAB grew.
        for &n in &nodes {
            now = h.access(0x40, n, AccessKind::Load, now) + 600;
        }
        let mk = h.markov_stats().unwrap();
        assert!(mk.observed >= 6);
        assert!(mk.trained >= 5);
    }

    #[test]
    fn reset_stats_clears_counters_keeps_cache_state() {
        let (space, nodes) = space_with_list(4, false);
        let mut h = Hierarchy::new(cfg_stride_only(), &space);
        let t = h.access(0x40, nodes[0], AccessKind::Load, 0);
        h.reset_stats();
        assert_eq!(h.stats().accesses, 0);
        // The line is still cached: post-reset access is an L1 hit.
        let t2 = h.access(0x40, nodes[0], AccessKind::Load, t + 10);
        assert_eq!(t2, t + 13);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn restore_refuses_a_presence_flag_the_configuration_contradicts() {
        let (space, nodes) = space_with_list(8, true);
        let snapshot = |cfg: SystemConfig, tracer: bool| {
            let mut h = Hierarchy::new(cfg, &space);
            if tracer {
                h.set_tracer(TraceRing::new(cdp_types::TraceConfig::default()));
            }
            h.access(0x40, nodes[0], AccessKind::Load, 0);
            let mut enc = cdp_snap::Enc::new();
            h.save_state(&mut enc);
            enc.into_bytes()
        };
        let restore = |bytes: &[u8], cfg: SystemConfig, tracer: bool| {
            let mut h = Hierarchy::new(cfg, &space);
            if tracer {
                h.set_tracer(TraceRing::new(cdp_types::TraceConfig::default()));
            }
            h.restore_state(&mut cdp_snap::Dec::new(bytes))
        };
        let content = snapshot(cfg_with_content(), false);
        let stride = snapshot(cfg_stride_only(), false);
        let traced = snapshot(cfg_stride_only(), true);
        assert_eq!(restore(&content, cfg_with_content(), false), Ok(()));
        assert_eq!(restore(&traced, cfg_stride_only(), true), Ok(()));
        let refused = |context| Err(cdp_types::SnapshotError::Corrupt { context });
        assert_eq!(
            restore(&content, cfg_stride_only(), false),
            refused("content presence")
        );
        assert_eq!(
            restore(&stride, cfg_with_content(), false),
            refused("content presence")
        );
        assert_eq!(
            restore(&traced, cfg_stride_only(), false),
            refused("tracer presence")
        );
        assert_eq!(
            restore(&stride, cfg_stride_only(), true),
            refused("tracer presence")
        );
    }

    #[test]
    fn prefetchers_config_default_is_empty() {
        let p = PrefetchersConfig::default();
        assert!(p.stride.is_none() && p.content.is_none() && p.markov.is_none());
        let _ = StrideConfig::default();
    }
}
