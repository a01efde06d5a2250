//! Property check: [`MshrFile`]'s completion queue drains exactly what the
//! slot scan it replaced drained, and leaves the same table behind.
//!
//! The reference keeps the earlier algorithm: the same linear-probe table
//! with backward-shift deletion, a drain that scans every slot, sorts the
//! due fills by `(complete_at, line)` and then removes them in that order,
//! and an `earliest` field instead of a queue. It encodes its state in the
//! snapshot layout. The tests drive both through the same random mix of
//! inserts, promotions, expedites, lookups and partial drains, at the
//! hierarchy's size and past a `grow()`. After every drain they compare the
//! drained sequences, lookups, lengths, counters and `save_state` bytes, and
//! now and then both are restored from their bytes and the run goes on.

use cdp_mem::{InFlight, MshrFile, MshrStats};
use cdp_snap::{Dec, Enc};
use cdp_types::rng::Rng;
use cdp_types::{LineAddr, RequestKind, VirtAddr};

const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The scan-based MSHR file.
struct RefMshr {
    slots: Vec<Option<InFlight>>,
    len: usize,
    earliest: u64,
    stats: MshrStats,
}

impl RefMshr {
    fn with_capacity(entries: usize) -> Self {
        RefMshr {
            slots: vec![None; (entries.max(1) * 2).next_power_of_two()],
            len: 0,
            earliest: u64::MAX,
            stats: MshrStats::default(),
        }
    }

    fn probe_start(&self, line: u32) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        ((line as u64).wrapping_mul(HASH_MUL) >> shift) as usize
    }

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

    fn lookup(&self, line: LineAddr) -> Option<&InFlight> {
        self.slot_of(line.0).and_then(|i| self.slots[i].as_ref())
    }

    fn place(&mut self, f: InFlight) {
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(f.line.0);
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(f);
    }

    fn insert_width(&mut self, f: InFlight) {
        if self.len * 2 >= self.slots.len() {
            let grown = vec![None; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, grown);
            for g in old.into_iter().flatten() {
                self.place(g);
            }
        }
        self.place(f);
        self.len += 1;
        self.earliest = self.earliest.min(f.complete_at);
        self.stats.inserts += 1;
    }

    fn promote(&mut self, line: LineAddr, kind: RequestKind) -> bool {
        let Some(i) = self.slot_of(line.0) else {
            return false;
        };
        let f = self.slots[i].as_mut().unwrap();
        self.stats.merges += 1;
        if kind.priority() > f.kind.priority() {
            f.kind = kind;
            self.stats.priority_raises += 1;
        }
        true
    }

    fn expedite(&mut self, line: LineAddr, at: u64) -> bool {
        let Some(i) = self.slot_of(line.0) else {
            return false;
        };
        let f = self.slots[i].as_mut().unwrap();
        if at < f.complete_at {
            f.complete_at = at;
            self.earliest = self.earliest.min(at);
            self.stats.expedites += 1;
        }
        true
    }

    fn remove_slot(&mut self, mut hole: usize) {
        self.slots[hole] = None;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut j = (hole + 1) & mask;
        while let Some(f) = self.slots[j] {
            let home = self.probe_start(f.line.0);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = Some(f);
                self.slots[j] = None;
                hole = j;
            }
            j = (j + 1) & mask;
        }
    }

    fn drain(&mut self, now: u64) -> Vec<InFlight> {
        let mut out = Vec::new();
        if self.len == 0 || now < self.earliest {
            return out;
        }
        let mut remaining_min = u64::MAX;
        for f in self.slots.iter().flatten() {
            if f.complete_at <= now {
                out.push(*f);
            } else {
                remaining_min = remaining_min.min(f.complete_at);
            }
        }
        self.earliest = remaining_min;
        out.sort_by_key(|f| (f.complete_at, f.line.0));
        for f in &out {
            let slot = self.slot_of(f.line.0).unwrap();
            self.remove_slot(slot);
        }
        out
    }

    fn save(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.usize(self.slots.len());
        enc.u64(self.earliest);
        enc.u64(self.stats.inserts);
        enc.u64(self.stats.merges);
        enc.u64(self.stats.priority_raises);
        enc.u64(self.stats.expedites);
        for slot in &self.slots {
            enc.bool(slot.is_some());
            if let Some(f) = slot {
                enc.u32(f.line.0);
                enc.u32(f.vline.0);
                let (tag, depth) = f.kind.code();
                enc.u8(tag);
                enc.u8(depth);
                enc.bool(f.width);
                enc.u64(f.complete_at);
                enc.u64(f.issued_at);
            }
        }
        enc.into_bytes()
    }

    /// Decodes what [`RefMshr::save`] (or `MshrFile::save_state`) wrote.
    fn restore(bytes: &[u8]) -> Self {
        let mut dec = Dec::new(bytes);
        let slots = dec.usize("slots").unwrap();
        let earliest = dec.u64("earliest").unwrap();
        let mut stats = MshrStats::default();
        for field in [
            &mut stats.inserts,
            &mut stats.merges,
            &mut stats.priority_raises,
            &mut stats.expedites,
        ] {
            *field = dec.u64("stats").unwrap();
        }
        let mut m = RefMshr {
            slots: vec![None; slots],
            len: 0,
            earliest,
            stats,
        };
        for slot in &mut m.slots {
            if dec.bool("occupied").unwrap() {
                let line = LineAddr(dec.u32("line").unwrap());
                let vline = VirtAddr(dec.u32("vline").unwrap());
                let (tag, depth) = (dec.u8("tag").unwrap(), dec.u8("depth").unwrap());
                *slot = Some(InFlight {
                    line,
                    vline,
                    kind: RequestKind::from_code(tag, depth).unwrap(),
                    width: dec.bool("width").unwrap(),
                    complete_at: dec.u64("complete_at").unwrap(),
                    issued_at: dec.u64("issued_at").unwrap(),
                });
                m.len += 1;
            }
        }
        assert!(dec.is_exhausted());
        m
    }
}

fn save(m: &MshrFile) -> Vec<u8> {
    let mut enc = Enc::new();
    m.save_state(&mut enc);
    enc.into_bytes()
}

fn restore(entries: usize, bytes: &[u8]) -> MshrFile {
    let mut m = MshrFile::with_capacity(entries);
    let mut dec = Dec::new(bytes);
    m.restore_state(&mut dec).expect("own bytes restore");
    assert!(dec.is_exhausted());
    m
}

fn random_kind(rng: &mut Rng) -> RequestKind {
    match rng.gen_range_u8(0..5) {
        0 => RequestKind::Demand,
        1 => RequestKind::PageWalk,
        2 => RequestKind::Stride,
        3 => RequestKind::Markov,
        _ => RequestKind::Content {
            depth: rng.gen_range_u8(1..4),
        },
    }
}

/// Shape of one randomized run.
struct Mix {
    seed: u64,
    /// `MshrFile::with_capacity` argument.
    entries: usize,
    /// Distinct lines requested.
    lines: u32,
    steps: u32,
    /// Fill latency is `1..=latency` cycles past `now`.
    latency: u64,
    /// Steps `burst.0..burst.1` only insert, driving occupancy up.
    burst: (u32, u32),
}

/// Drives both files through `mix`; returns the largest slot count the
/// run's snapshots recorded.
fn check(mix: &Mix) -> usize {
    let mut rng = Rng::seed_from_u64(mix.seed);
    let mut fast = MshrFile::with_capacity(mix.entries);
    let mut model = RefMshr::with_capacity(mix.entries);
    let mut now = 0u64;
    let mut drained = Vec::new();
    let mut drains = 0u32;
    let mut max_slots = 0;
    for step in 0..mix.steps {
        let line = LineAddr(rng.gen_range_u32(0..mix.lines) * 64);
        let op = if (mix.burst.0..mix.burst.1).contains(&step) {
            0
        } else {
            rng.gen_range_u8(0..10)
        };
        match op {
            0..=3 => {
                if fast.lookup(line).is_none() {
                    let f = InFlight {
                        line,
                        vline: VirtAddr(line.0 ^ 0x4000_0000),
                        kind: random_kind(&mut rng),
                        width: rng.gen_range_u8(0..4) == 0,
                        complete_at: now + 1 + rng.next_u64() % mix.latency,
                        issued_at: now,
                    };
                    if f.width || rng.gen_range_u8(0..2) == 0 {
                        fast.insert_width(f.line, f.vline, f.kind, now, f.complete_at, f.width);
                    } else {
                        fast.insert(f.line, f.vline, f.kind, now, f.complete_at);
                    }
                    model.insert_width(f);
                }
            }
            4 => {
                let kind = random_kind(&mut rng);
                assert_eq!(fast.promote(line, kind), model.promote(line, kind));
            }
            5 | 6 => {
                // Earlier or later than the current completion, sometimes
                // already past.
                let at = now.saturating_sub(5) + rng.next_u64() % mix.latency;
                assert_eq!(fast.expedite(line, at), model.expedite(line, at));
            }
            7 => assert_eq!(fast.lookup(line), model.lookup(line)),
            _ => {
                now += rng.next_u64() % (mix.latency / 8 + 1);
                fast.drain_complete_into(now, &mut drained);
                let want = model.drain(now);
                assert_eq!(drained, want, "drain at {now} (step {step})");
                for f in &drained {
                    assert_eq!(fast.lookup(f.line), None);
                }
                let bytes = save(&fast);
                assert_eq!(bytes, model.save(), "table after drain at {now}");
                max_slots = max_slots.max(model.slots.len());
                drains += 1;
                if drains.is_multiple_of(37) {
                    fast = restore(mix.entries, &bytes);
                    model = RefMshr::restore(&bytes);
                }
            }
        }
        assert_eq!(fast.len(), model.len, "len at step {step}");
        assert_eq!(
            fast.lookup(line),
            model.lookup(line),
            "lookup at step {step}"
        );
        assert_eq!(*fast.stats(), model.stats);
    }
    // Everything still in flight drains in the same order.
    fast.drain_complete_into(u64::MAX, &mut drained);
    assert_eq!(drained, model.drain(u64::MAX));
    assert!(fast.is_empty());
    assert_eq!(save(&fast), model.save());
    assert!(drains > 100, "the mix drained {drains} times");
    max_slots
}

/// The hierarchy's size: `with_capacity(l2_queue_size = 128)`, 256 slots,
/// under a mix that keeps tens of fills in flight without growing.
#[test]
fn queue_drains_match_the_slot_scan_at_hierarchy_size() {
    for seed in [0x5c47_0001, 0x5c47_0002, 0x5c47_0003] {
        let slots = check(&Mix {
            seed,
            entries: 128,
            lines: 512,
            steps: 20_000,
            latency: 300,
            burst: (0, 0),
        });
        assert_eq!(slots, 256, "stayed at construction size");
    }
}

/// Insert-only bursts push occupancy past half the table, so the run
/// crosses `grow()` (256 → 512 → 1,024 slots) with fills, stale queue
/// entries and expedites outstanding.
#[test]
fn queue_drains_match_the_slot_scan_past_grow() {
    let slots = check(&Mix {
        seed: 0x5c47_0004,
        entries: 128,
        lines: 4096,
        steps: 20_000,
        latency: 2_000,
        burst: (3_000, 3_600),
    });
    assert!(slots >= 1024, "grew to {slots} slots");
}

/// A tiny file under an expedite-heavy mix: stale entries outnumber live
/// ones, so the queue is rebuilt from the slots again and again.
#[test]
fn queue_drains_match_the_slot_scan_under_stale_entries() {
    for seed in [0x5c47_0005, 0x5c47_0006] {
        check(&Mix {
            seed,
            entries: 2,
            lines: 6,
            steps: 20_000,
            latency: 5_000,
            burst: (0, 0),
        });
    }
}
