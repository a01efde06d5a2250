//! Miss-status holding registers: in-flight fill tracking.
//!
//! Two behaviors from §3.5 live here:
//!
//! * "Before any prefetch request is enqueued to the memory system, both L2
//!   and bus arbiters are checked to see if a matching memory transaction is
//!   currently in-flight. If such a transaction is found, the prefetch
//!   request is dropped" — [`MshrFile::lookup`] gives the hierarchy that
//!   check.
//! * "In the event that a demand load encounters an in-flight prefetch
//!   memory transaction for the same cache line address, the prefetch
//!   request is promoted to the priority and depth of the demand request"
//!   — [`MshrFile::promote`]. A promoted prefetch also counts as a
//!   *partial* latency mask for the timeliness accounting of Figure 10.
//!
//! The table is a small open-addressed, linear-probe array (fibonacci
//! hashing, power-of-two capacity) sized from the configured MSHR count —
//! a hardware MSHR file holds a handful of entries, so a flat array probed
//! in cache order beats a `HashMap` that hashes and chases buckets on
//! every lookup. Removal uses backward-shift deletion, keeping probing
//! tombstone-free.
//!
//! Beside the table sits a completion queue: a min-heap of
//! `(complete_at, line)` holding an entry for every outstanding fill. A
//! drain pops only the fills that are due, already in the `(complete_at,
//! line)` order it returns them, instead of walking every slot and sorting.
//! An expedited fill gets a fresh entry; the stale one is recognized when
//! it is popped (no fill for its line completes at its time) and skipped.
//! The heap is allocated with the table and rebuilt from the slots before
//! stale entries could make it outgrow that allocation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cdp_types::{LineAddr, RequestKind, VirtAddr};

/// An outstanding fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Physical line being fetched.
    pub line: LineAddr,
    /// Virtual base of the same line (needed so the content prefetcher can
    /// scan the fill against virtual candidate addresses).
    pub vline: VirtAddr,
    /// Current request kind — may be promoted while in flight.
    pub kind: RequestKind,
    /// Whether this fill is a width-expansion prefetch (§3.4.3).
    pub width: bool,
    /// Cycle at which the fill data arrives.
    pub complete_at: u64,
    /// Cycle at which the request entered the memory system.
    pub issued_at: u64,
}

/// Lifetime counters for MSHR traffic, separating "a request merged into
/// an in-flight fill" (the §3.5 promotion path, a *partial* latency mask)
/// from plain inserts. The hierarchy's `DropCounters` record *why* a
/// prefetch died; these record what the MSHR file itself did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Fills registered.
    pub inserts: u64,
    /// Merges into an in-flight fill (`promote` found an entry).
    pub merges: u64,
    /// Merges that actually raised the in-flight request's priority.
    pub priority_raises: u64,
    /// Completion times moved earlier by demand promotion.
    pub expedites: u64,
}

/// Fibonacci multiplier (2^64 / golden ratio).
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Default slot count for [`MshrFile::new`]; callers that know the
/// configured MSHR count should use [`MshrFile::with_capacity`].
const DEFAULT_SLOTS: usize = 64;

/// The in-flight table.
///
/// # Examples
///
/// ```
/// use cdp_mem::MshrFile;
/// use cdp_types::{LineAddr, RequestKind, VirtAddr};
///
/// let mut mshrs = MshrFile::new();
/// mshrs.insert(LineAddr(0x40), VirtAddr(0x1000_0040),
///              RequestKind::Content { depth: 1 }, 0, 460);
/// assert!(mshrs.lookup(LineAddr(0x40)).is_some());
/// // A demand arrives for the same line: promote rather than re-request.
/// assert!(mshrs.promote(LineAddr(0x40), RequestKind::Demand));
/// assert_eq!(mshrs.lookup(LineAddr(0x40)).unwrap().kind, RequestKind::Demand);
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    /// Power-of-two linear-probe array; `None` is vacancy.
    slots: Vec<Option<InFlight>>,
    len: usize,
    /// Min-heap of `(complete_at, line)`: one live entry per outstanding
    /// fill, plus stale entries left by [`MshrFile::expedite`]. Its
    /// capacity is at least `slots.len()`, twice the most fills the table
    /// holds, and a push into a full heap first rebuilds it from the slots,
    /// so it never reallocates outside [`MshrFile::grow`].
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    stats: MshrStats,
}

impl Default for MshrFile {
    fn default() -> Self {
        MshrFile::new()
    }
}

impl MshrFile {
    /// Creates an empty MSHR file with the default capacity.
    pub fn new() -> Self {
        MshrFile::with_capacity(DEFAULT_SLOTS / 2)
    }

    /// Creates an empty MSHR file sized for `entries` outstanding fills.
    /// The slot array keeps 2x headroom (demand misses are admitted past
    /// the prefetch queue bound) and grows if even that is exceeded.
    pub fn with_capacity(entries: usize) -> Self {
        let slots = (entries.max(1) * 2).next_power_of_two();
        MshrFile {
            slots: vec![None; slots],
            len: 0,
            queue: BinaryHeap::with_capacity(slots),
            stats: MshrStats::default(),
        }
    }

    /// Number of outstanding fills.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no fills are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn probe_start(&self, line: u32) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        ((line as u64).wrapping_mul(HASH_MUL) >> shift) as usize
    }

    /// Slot index of `line`, if in flight.
    #[inline]
    fn slot_of(&self, line: u32) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(line);
        loop {
            match &self.slots[i] {
                Some(f) if f.line.0 == line => return Some(i),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// The in-flight fill for `line`, if any.
    pub fn lookup(&self, line: LineAddr) -> Option<&InFlight> {
        self.slot_of(line.0)
            .map(|i| self.slots[i].as_ref().expect("occupied slot"))
    }

    /// Doubles the slot array and reinserts every fill (safety valve — the
    /// construction-time capacity normally suffices).
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![None; old.len() * 2];
        let mask = self.slots.len() - 1;
        for f in old.into_iter().flatten() {
            let mut i = self.probe_start(f.line.0);
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(f);
        }
        self.queue
            .reserve(self.slots.len().saturating_sub(self.queue.len()));
    }

    /// Queues `line`'s completion at `complete_at`, which its slot already
    /// holds. A full heap is instead rebuilt from the slots, which drops
    /// every stale entry and queues this one: the table is at most half
    /// full, so the rebuilt heap has room to spare.
    fn enqueue(&mut self, complete_at: u64, line: u32) {
        if self.queue.len() == self.queue.capacity() {
            self.rebuild_queue();
        } else {
            self.queue.push(Reverse((complete_at, line)));
        }
    }

    /// Replaces the queue's contents with one entry per outstanding fill.
    fn rebuild_queue(&mut self) {
        self.queue.clear();
        self.queue.reserve(self.slots.len());
        for f in self.slots.iter().flatten() {
            self.queue.push(Reverse((f.complete_at, f.line.0)));
        }
    }

    /// Registers an outstanding fill.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a fill for the line is already outstanding —
    /// callers must check [`MshrFile::lookup`] first, mirroring the paper's
    /// duplicate suppression.
    pub fn insert(
        &mut self,
        line: LineAddr,
        vline: VirtAddr,
        kind: RequestKind,
        issued_at: u64,
        complete_at: u64,
    ) {
        self.insert_width(line, vline, kind, issued_at, complete_at, false)
    }

    /// [`MshrFile::insert`] with the width-expansion flag.
    pub fn insert_width(
        &mut self,
        line: LineAddr,
        vline: VirtAddr,
        kind: RequestKind,
        issued_at: u64,
        complete_at: u64,
        width: bool,
    ) {
        debug_assert!(
            self.slot_of(line.0).is_none(),
            "duplicate in-flight fill for {line}"
        );
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(line.0);
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(InFlight {
            line,
            vline,
            kind,
            width,
            complete_at,
            issued_at,
        });
        self.len += 1;
        self.enqueue(complete_at, line.0);
        self.stats.inserts += 1;
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> &MshrStats {
        &self.stats
    }

    /// Records the current outstanding-fill count into an occupancy
    /// histogram. Called at each insert so the distribution weights
    /// occupancy by allocation events, matching how MSHR pressure is
    /// felt (a full file stalls the *next* request, not time itself).
    #[inline]
    pub fn record_occupancy(&self, hist: &mut cdp_obs::Hist) {
        hist.record(self.len as u64);
    }

    /// Promotes an in-flight fill to (at least) the priority and depth of
    /// `kind`. Returns `false` if no fill is outstanding for `line`.
    pub fn promote(&mut self, line: LineAddr, kind: RequestKind) -> bool {
        match self.slot_of(line.0) {
            Some(i) => {
                let f = self.slots[i].as_mut().expect("occupied slot");
                self.stats.merges += 1;
                if kind.priority() > f.kind.priority() {
                    f.kind = kind;
                    self.stats.priority_raises += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Moves a fill's completion earlier (demand promotion re-arbitrates a
    /// backlogged prefetch at demand priority). Later completion times are
    /// ignored — promotion never delays a fill.
    pub fn expedite(&mut self, line: LineAddr, new_complete_at: u64) -> bool {
        match self.slot_of(line.0) {
            Some(i) => {
                let f = self.slots[i].as_mut().expect("occupied slot");
                if new_complete_at < f.complete_at {
                    f.complete_at = new_complete_at;
                    self.stats.expedites += 1;
                    self.enqueue(new_complete_at, line.0);
                }
                true
            }
            None => false,
        }
    }

    /// Removes the fill in `slot`, backward-shifting the probe chain so
    /// later lookups never cross a tombstone.
    fn remove_slot(&mut self, mut hole: usize) {
        self.slots[hole] = None;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut j = (hole + 1) & mask;
        while let Some(f) = self.slots[j] {
            let home = self.probe_start(f.line.0);
            // Shift back iff the hole sits within f's probe chain, i.e.
            // home..=j (cyclically) covers the hole.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = Some(f);
                self.slots[j] = None;
                hole = j;
            }
            j = (j + 1) & mask;
        }
    }

    /// Removes every fill complete by cycle `now` into `out` (which is
    /// cleared first), ordered by completion time (ties broken by line
    /// address for determinism), removing them from the table in that
    /// order. The caller owns the buffer, so steady-state draining performs
    /// no allocation.
    pub fn drain_complete_into(&mut self, now: u64, out: &mut Vec<InFlight>) {
        out.clear();
        while let Some(&Reverse((complete_at, line))) = self.queue.peek() {
            if complete_at > now {
                break;
            }
            self.queue.pop();
            // Stale entries (the fill was expedited, or has drained) match
            // no outstanding fill at their time.
            if let Some(i) = self.slot_of(line) {
                let f = self.slots[i].expect("occupied slot");
                if f.complete_at == complete_at {
                    out.push(f);
                    self.remove_slot(i);
                }
            }
        }
    }

    /// Allocating wrapper over [`MshrFile::drain_complete_into`] (tests and
    /// tools; the hierarchy reuses a buffer).
    pub fn drain_complete(&mut self, now: u64) -> Vec<InFlight> {
        let mut out = Vec::new();
        self.drain_complete_into(now, &mut out);
        out
    }

    /// The earliest outstanding completion time, if any.
    pub fn next_completion(&self) -> Option<u64> {
        self.slots.iter().flatten().map(|f| f.complete_at).min()
    }

    /// Serializes the complete table state. The slot array is written
    /// verbatim (layout included) so restored probe chains — and
    /// therefore every later insert — behave bit-identically. The
    /// completion queue is derived state and is not written. The format
    /// still carries the earliest outstanding completion ([`u64::MAX`]
    /// when none), which [`MshrFile::restore_state`] checks against the
    /// table.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.usize(self.slots.len());
        enc.u64(self.next_completion().unwrap_or(u64::MAX));
        enc.u64(self.stats.inserts);
        enc.u64(self.stats.merges);
        enc.u64(self.stats.priority_raises);
        enc.u64(self.stats.expedites);
        for slot in &self.slots {
            match slot {
                None => enc.bool(false),
                Some(f) => {
                    enc.bool(true);
                    enc.u32(f.line.0);
                    enc.u32(f.vline.0);
                    save_request_kind(f.kind, enc);
                    enc.bool(f.width);
                    enc.u64(f.complete_at);
                    enc.u64(f.issued_at);
                }
            }
        }
    }

    /// Restores state written by [`MshrFile::save_state`] and rebuilds the
    /// completion queue from the restored slots.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation, a
    /// structurally impossible table, or a recorded earliest completion
    /// that is not the table's.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        let slots = dec.usize("mshr slot count")?;
        // The run may have grown the table past its construction size;
        // accept any power-of-two count the stream can actually back.
        if !slots.is_power_of_two() || slots > dec.remaining() {
            return Err(SnapshotError::Corrupt {
                context: "mshr slot count",
            });
        }
        let earliest = dec.u64("mshr earliest")?;
        self.stats = MshrStats {
            inserts: dec.u64("mshr inserts")?,
            merges: dec.u64("mshr merges")?,
            priority_raises: dec.u64("mshr priority raises")?,
            expedites: dec.u64("mshr expedites")?,
        };
        self.slots = vec![None; slots];
        self.len = 0;
        for i in 0..slots {
            if dec.bool("mshr slot occupancy")? {
                let line = LineAddr(dec.u32("mshr line")?);
                let vline = VirtAddr(dec.u32("mshr vline")?);
                let kind = load_request_kind(dec)?;
                let width = dec.bool("mshr width flag")?;
                let complete_at = dec.u64("mshr complete_at")?;
                let issued_at = dec.u64("mshr issued_at")?;
                self.slots[i] = Some(InFlight {
                    line,
                    vline,
                    kind,
                    width,
                    complete_at,
                    issued_at,
                });
                self.len += 1;
            }
        }
        self.rebuild_queue();
        if self.next_completion().unwrap_or(u64::MAX) != earliest {
            return Err(SnapshotError::Corrupt {
                context: "mshr earliest",
            });
        }
        Ok(())
    }
}

/// Encodes a [`RequestKind`] as its stable tag byte plus depth
/// ([`RequestKind::code`]).
pub(crate) fn save_request_kind(kind: RequestKind, enc: &mut cdp_snap::Enc) {
    let (tag, depth) = kind.code();
    enc.u8(tag);
    enc.u8(depth);
}

/// Decodes a [`RequestKind`] written by [`save_request_kind`].
pub(crate) fn load_request_kind(
    dec: &mut cdp_snap::Dec<'_>,
) -> Result<RequestKind, cdp_types::SnapshotError> {
    let tag = dec.u8("request kind tag")?;
    let depth = dec.u8("request kind depth")?;
    RequestKind::from_code(tag, depth).ok_or(cdp_types::SnapshotError::Corrupt {
        context: "request kind tag",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fly(mshrs: &mut MshrFile, line: u32, kind: RequestKind, done: u64) {
        mshrs.insert(LineAddr(line), VirtAddr(line), kind, 0, done);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut m = MshrFile::new();
        assert!(m.lookup(LineAddr(0x40)).is_none());
        fly(&mut m, 0x40, RequestKind::Stride, 100);
        let f = m.lookup(LineAddr(0x40)).unwrap();
        assert_eq!(f.kind, RequestKind::Stride);
        assert_eq!(f.complete_at, 100);
    }

    #[test]
    fn promote_raises_but_never_lowers() {
        let mut m = MshrFile::new();
        fly(&mut m, 0x40, RequestKind::Content { depth: 3 }, 100);
        assert!(m.promote(LineAddr(0x40), RequestKind::Demand));
        assert_eq!(m.lookup(LineAddr(0x40)).unwrap().kind, RequestKind::Demand);
        // Promoting with something weaker is a no-op.
        assert!(m.promote(LineAddr(0x40), RequestKind::Content { depth: 1 }));
        assert_eq!(m.lookup(LineAddr(0x40)).unwrap().kind, RequestKind::Demand);
        assert!(!m.promote(LineAddr(0x80), RequestKind::Demand));
    }

    #[test]
    fn drain_returns_in_completion_order() {
        let mut m = MshrFile::new();
        fly(&mut m, 0x100, RequestKind::Demand, 300);
        fly(&mut m, 0x40, RequestKind::Stride, 100);
        fly(&mut m, 0x80, RequestKind::Demand, 200);
        fly(&mut m, 0xc0, RequestKind::Demand, 999);
        let done = m.drain_complete(300);
        let lines: Vec<u32> = done.iter().map(|f| f.line.0).collect();
        assert_eq!(lines, vec![0x40, 0x80, 0x100]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.next_completion(), Some(999));
    }

    #[test]
    fn drain_empty_when_nothing_due() {
        let mut m = MshrFile::new();
        fly(&mut m, 0x40, RequestKind::Demand, 500);
        assert!(m.drain_complete(499).is_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_into_reuses_buffer() {
        let mut m = MshrFile::with_capacity(4);
        let mut buf = Vec::new();
        fly(&mut m, 0x40, RequestKind::Demand, 10);
        m.drain_complete_into(10, &mut buf);
        assert_eq!(buf.len(), 1);
        // Stale contents are cleared on the next drain.
        m.drain_complete_into(10, &mut buf);
        assert!(buf.is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_construction_capacity() {
        let mut m = MshrFile::with_capacity(2);
        for i in 0..64u32 {
            fly(&mut m, i * 0x40, RequestKind::Demand, 100 + i as u64);
        }
        assert_eq!(m.len(), 64);
        for i in 0..64u32 {
            assert!(m.lookup(LineAddr(i * 0x40)).is_some());
        }
        let done = m.drain_complete(200);
        assert_eq!(done.len(), 64);
        assert!(m.is_empty());
    }

    /// Interleaved inserts and removals keep every remaining entry
    /// findable (backward-shift deletion correctness).
    #[test]
    fn prop_backward_shift_keeps_chains_intact() {
        use cdp_types::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x5a5a_0001);
        let mut m = MshrFile::with_capacity(8);
        let mut reference: std::collections::BTreeMap<u32, u64> = Default::default();
        let mut tick = 0u64;
        for step in 0..4000u64 {
            let line = rng.gen_range_u32(0..64) * 0x40;
            match reference.entry(line) {
                // Already in flight: promote instead of duplicate-insert.
                std::collections::btree_map::Entry::Occupied(_) => {
                    assert!(m.promote(LineAddr(line), RequestKind::Demand));
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    tick += 1 + rng.gen_range_u32(0..5) as u64;
                    m.insert(
                        LineAddr(line),
                        VirtAddr(line),
                        RequestKind::Stride,
                        step,
                        tick,
                    );
                    v.insert(tick);
                }
            }
            if rng.gen_range_u8(0..4) == 0 {
                let now = tick.saturating_sub(rng.gen_range_u32(0..8) as u64);
                let drained = m.drain_complete(now);
                for f in &drained {
                    assert_eq!(reference.remove(&f.line.0), Some(f.complete_at));
                }
            }
            assert_eq!(m.len(), reference.len());
            for (&line, &done) in &reference {
                let f = m.lookup(LineAddr(line)).expect("entry findable");
                assert_eq!(f.complete_at, done);
            }
        }
    }

    #[test]
    fn stats_separate_merges_from_inserts() {
        let mut m = MshrFile::new();
        fly(&mut m, 0x40, RequestKind::Content { depth: 2 }, 100);
        fly(&mut m, 0x80, RequestKind::Stride, 200);
        assert_eq!(m.stats().inserts, 2);
        assert_eq!(m.stats().merges, 0);

        // A prefetch hitting an in-flight line is an MSHR merge (the
        // hierarchy counts it under drops.in_flight); a prefetch hitting a
        // *resident* line never reaches the MSHR file at all, so nothing
        // here moves for that case.
        assert!(m.promote(LineAddr(0x40), RequestKind::Content { depth: 1 }));
        assert_eq!(m.stats().merges, 1);
        // depth 1 outranks depth 2 (priority 100 - depth), so it raises.
        assert_eq!(m.stats().priority_raises, 1);

        // A demand merge on the same line raises again …
        assert!(m.promote(LineAddr(0x40), RequestKind::Demand));
        assert_eq!(m.stats().merges, 2);
        assert_eq!(m.stats().priority_raises, 2);
        // … but a weaker merge counts as a merge without a raise.
        assert!(m.promote(LineAddr(0x40), RequestKind::Markov));
        assert_eq!(m.stats().merges, 3);
        assert_eq!(m.stats().priority_raises, 2);

        // Missing line: not a merge.
        assert!(!m.promote(LineAddr(0xc0), RequestKind::Demand));
        assert_eq!(m.stats().merges, 3);
    }

    #[test]
    fn restore_refuses_an_earliest_the_table_does_not_have() {
        let mut enc = cdp_snap::Enc::new();
        enc.usize(4);
        enc.u64(5); // the empty table below completes nothing at 5
        for _ in 0..4 {
            enc.u64(0);
        }
        for _ in 0..4 {
            enc.bool(false);
        }
        let bytes = enc.into_bytes();
        let mut m = MshrFile::with_capacity(2);
        assert_eq!(
            m.restore_state(&mut cdp_snap::Dec::new(&bytes)),
            Err(cdp_types::SnapshotError::Corrupt {
                context: "mshr earliest"
            })
        );
    }

    #[test]
    fn stats_count_effective_expedites_only() {
        let mut m = MshrFile::new();
        fly(&mut m, 0x40, RequestKind::Content { depth: 1 }, 500);
        assert!(m.expedite(LineAddr(0x40), 300));
        assert_eq!(m.lookup(LineAddr(0x40)).unwrap().complete_at, 300);
        // Later completion is ignored and not counted.
        assert!(m.expedite(LineAddr(0x40), 400));
        assert_eq!(m.lookup(LineAddr(0x40)).unwrap().complete_at, 300);
        assert_eq!(m.stats().expedites, 1);
        assert!(!m.expedite(LineAddr(0x80), 100));
    }
}
