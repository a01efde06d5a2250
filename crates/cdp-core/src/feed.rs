//! Uop supply for the core: a whole materialized [`Program`], or a seeded
//! streaming generator of which the core holds only a sliding window.
//!
//! The streaming path exists so that 100M–1B-uop workloads never hold a
//! `Vec<Uop>` proportional to the run length. The core's bounded-window
//! property makes this safe: ROB indices are consecutive and the oldest
//! in-flight index is never more than `rob_size` behind fetch, so every
//! uop the pipeline can still reference lives in a window of at most
//! `rob_size` plus one generation chunk.

use std::collections::VecDeque;

use cdp_types::{SnapshotError, VirtAddr};

use crate::uop::{Program, Uop, UopKind, NUM_REGS};

/// A chunked, deterministic uop generator driven by the core's fetch
/// stage.
///
/// Contract:
///
/// * [`UopSource::fill`] appends the next burst of uops to `out` (the
///   generator owns chunk sizing) and returns how many it appended.
///   Returning 0 means generation is complete.
/// * [`UopSource::exhausted`] must report `true` as soon as the final uop
///   has been appended by `fill` — not one call later. The core relies on
///   this to learn the program length before the last uop is fetched,
///   which keeps its `done()` predicate equivalent to the materialized
///   one at every cycle (including a final mispredicted branch, where the
///   ROB drains while fetch is still formally blocked).
/// * Generation must be deterministic and resumable:
///   [`UopSource::save_cursor`] / [`UopSource::restore_cursor`]
///   round-trip the complete generator state, so a restored source
///   replays bit-identical uops.
pub trait UopSource: std::fmt::Debug {
    /// Appends the next chunk of uops to `out`; returns the number
    /// appended (0 ⇔ generation complete).
    fn fill(&mut self, out: &mut VecDeque<Uop>) -> usize;

    /// True once every uop has been produced.
    fn exhausted(&self) -> bool;

    /// Clones the source, including its full generation state.
    fn box_clone(&self) -> Box<dyn UopSource>;

    /// Serializes the generation cursor.
    fn save_cursor(&self, enc: &mut cdp_snap::Enc);

    /// Restores a cursor written by [`UopSource::save_cursor`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on truncation or corruption.
    fn restore_cursor(&mut self, dec: &mut cdp_snap::Dec<'_>) -> Result<(), SnapshotError>;
}

/// Where the core's uops come from.
#[derive(Clone, Debug)]
pub(crate) enum Feed<'p> {
    /// A fully materialized program (the classical path).
    Whole(&'p Program),
    /// A streaming source plus the sliding window of live uops.
    Stream(StreamFeed),
}

impl Feed<'_> {
    pub(crate) fn stream(source: Box<dyn UopSource>) -> Self {
        Feed::Stream(StreamFeed {
            source,
            window: VecDeque::new(),
            base: 0,
            total: None,
        })
    }
}

/// Sliding-window adapter over a [`UopSource`].
///
/// Invariant: `window[i]` is the uop at program index `base + i`, and
/// `base + window.len()` equals the number of uops produced so far.
#[derive(Debug)]
pub(crate) struct StreamFeed {
    source: Box<dyn UopSource>,
    pub(crate) window: VecDeque<Uop>,
    pub(crate) base: usize,
    /// Program length, learned at the fill that produced the final uop.
    pub(crate) total: Option<usize>,
}

impl Clone for StreamFeed {
    fn clone(&self) -> Self {
        StreamFeed {
            source: self.source.box_clone(),
            window: self.window.clone(),
            base: self.base,
            total: self.total,
        }
    }
}

impl StreamFeed {
    /// Returns the uop at program index `idx`, refilling the window from
    /// the source as needed. Before each refill, uops below `keep_from`
    /// (the oldest index the pipeline can still reference) are pruned, so
    /// resident memory stays O(ROB + chunk). Returns `None` once `idx` is
    /// past the end of the stream.
    pub(crate) fn uop_at(&mut self, idx: usize, keep_from: usize) -> Option<Uop> {
        while self.total.is_none() && idx >= self.base + self.window.len() {
            debug_assert!(keep_from >= self.base);
            let stale = (keep_from - self.base).min(self.window.len());
            self.window.drain(..stale);
            self.base += stale;
            let appended = self.source.fill(&mut self.window);
            if appended == 0 || self.source.exhausted() {
                self.total = Some(self.base + self.window.len());
            }
        }
        if idx < self.base {
            return None;
        }
        self.window.get(idx - self.base).copied()
    }

    /// Number of uops produced by the source so far.
    pub(crate) fn produced(&self) -> usize {
        self.base + self.window.len()
    }

    /// Serializes window position, window contents, and source cursor.
    pub(crate) fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.usize(self.base);
        match self.total {
            Some(t) => {
                enc.bool(true);
                enc.usize(t);
            }
            None => enc.bool(false),
        }
        enc.seq_len(self.window.len());
        for u in &self.window {
            save_uop(enc, u);
        }
        self.source.save_cursor(enc);
    }

    /// Restores state written by [`StreamFeed::save_state`] into a feed
    /// whose source was constructed over the same workload.
    pub(crate) fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), SnapshotError> {
        self.base = dec.usize("feed base")?;
        self.total = if dec.bool("feed total flag")? {
            Some(dec.usize("feed total")?)
        } else {
            None
        };
        let n = dec.seq_len(MIN_UOP_BYTES, "feed window length")?;
        self.window.clear();
        for _ in 0..n {
            self.window.push_back(restore_uop(dec)?);
        }
        if let Some(t) = self.total {
            if t != self.base + self.window.len() {
                return Err(SnapshotError::Corrupt {
                    context: "feed total",
                });
            }
        }
        self.source.restore_cursor(dec)
    }
}

/// Smallest encoded uop (branch): pc + tag + taken + dst + 2 srcs.
const MIN_UOP_BYTES: usize = 4 + 1 + 1 + 1 + 2;

fn save_uop(enc: &mut cdp_snap::Enc, u: &Uop) {
    enc.u32(u.pc);
    match u.kind {
        UopKind::Alu { latency } => {
            enc.u8(0);
            enc.u8(latency);
        }
        UopKind::Fp { latency } => {
            enc.u8(1);
            enc.u8(latency);
        }
        UopKind::Load { vaddr } => {
            enc.u8(2);
            enc.u32(vaddr.0);
        }
        UopKind::Store { vaddr } => {
            enc.u8(3);
            enc.u32(vaddr.0);
        }
        UopKind::Branch { taken } => {
            enc.u8(4);
            enc.bool(taken);
        }
    }
    enc.u8(reg_byte(u.dst));
    enc.u8(reg_byte(u.srcs[0]));
    enc.u8(reg_byte(u.srcs[1]));
}

const NO_REG_BYTE: u8 = 0xff;

fn reg_byte(r: Option<u8>) -> u8 {
    r.unwrap_or(NO_REG_BYTE)
}

fn byte_reg(b: u8) -> Result<Option<u8>, SnapshotError> {
    match b {
        NO_REG_BYTE => Ok(None),
        r if (r as usize) < NUM_REGS => Ok(Some(r)),
        _ => Err(SnapshotError::Corrupt {
            context: "feed uop register",
        }),
    }
}

fn restore_uop(dec: &mut cdp_snap::Dec<'_>) -> Result<Uop, SnapshotError> {
    let pc = dec.u32("feed uop pc")?;
    let kind = match dec.u8("feed uop kind")? {
        0 => UopKind::Alu {
            latency: dec.u8("feed uop latency")?,
        },
        1 => UopKind::Fp {
            latency: dec.u8("feed uop latency")?,
        },
        2 => UopKind::Load {
            vaddr: VirtAddr(dec.u32("feed uop vaddr")?),
        },
        3 => UopKind::Store {
            vaddr: VirtAddr(dec.u32("feed uop vaddr")?),
        },
        4 => UopKind::Branch {
            taken: dec.bool("feed uop taken")?,
        },
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "feed uop kind",
            })
        }
    };
    Ok(Uop {
        pc,
        kind,
        dst: byte_reg(dec.u8("feed uop dst")?)?,
        srcs: [
            byte_reg(dec.u8("feed uop src0")?)?,
            byte_reg(dec.u8("feed uop src1")?)?,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source emitting `total` ALU uops in bursts of `chunk`.
    #[derive(Clone, Debug)]
    struct CountSource {
        emitted: usize,
        total: usize,
        chunk: usize,
    }

    impl UopSource for CountSource {
        fn fill(&mut self, out: &mut VecDeque<Uop>) -> usize {
            let n = self.chunk.min(self.total - self.emitted);
            for i in 0..n {
                out.push_back(Uop::alu((self.emitted + i) as u32 * 4));
            }
            self.emitted += n;
            n
        }

        fn exhausted(&self) -> bool {
            self.emitted >= self.total
        }

        fn box_clone(&self) -> Box<dyn UopSource> {
            Box::new(self.clone())
        }

        fn save_cursor(&self, enc: &mut cdp_snap::Enc) {
            enc.usize(self.emitted);
        }

        fn restore_cursor(&mut self, dec: &mut cdp_snap::Dec<'_>) -> Result<(), SnapshotError> {
            self.emitted = dec.usize("count cursor")?;
            Ok(())
        }
    }

    #[test]
    fn window_slides_and_learns_total() {
        let mut f = match Feed::stream(Box::new(CountSource {
            emitted: 0,
            total: 10,
            chunk: 4,
        })) {
            Feed::Stream(s) => s,
            Feed::Whole(_) => unreachable!(),
        };
        for i in 0..10 {
            // Pretend the pipeline never references anything older than
            // two uops back.
            let u = f.uop_at(i, i.saturating_sub(2)).expect("in range");
            assert_eq!(u.pc, i as u32 * 4);
            assert!(f.window.len() <= 2 + 4, "window stays bounded");
        }
        assert_eq!(f.total, Some(10));
        assert_eq!(f.uop_at(10, 10), None);
    }

    #[test]
    fn exhaustion_is_learned_with_the_final_burst() {
        let mut f = match Feed::stream(Box::new(CountSource {
            emitted: 0,
            total: 8,
            chunk: 4,
        })) {
            Feed::Stream(s) => s,
            Feed::Whole(_) => unreachable!(),
        };
        // Fetching uop 7 (inside the final burst) must already pin the
        // total — the core's done() predicate depends on it.
        assert!(f.uop_at(7, 0).is_some());
        assert_eq!(f.total, Some(8));
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut f = match Feed::stream(Box::new(CountSource {
            emitted: 0,
            total: 100,
            chunk: 7,
        })) {
            Feed::Stream(s) => s,
            Feed::Whole(_) => unreachable!(),
        };
        f.uop_at(40, 35);
        let mut enc = cdp_snap::Enc::new();
        f.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut g = match Feed::stream(Box::new(CountSource {
            emitted: 0,
            total: 100,
            chunk: 7,
        })) {
            Feed::Stream(s) => s,
            Feed::Whole(_) => unreachable!(),
        };
        let mut dec = cdp_snap::Dec::new(&bytes);
        g.restore_state(&mut dec).expect("roundtrip");
        assert_eq!(g.base, f.base);
        assert_eq!(g.window, f.window);
        assert_eq!(g.total, f.total);
        for i in 41..100 {
            assert_eq!(g.uop_at(i, i), f.uop_at(i, i), "uop {i}");
        }
    }
}
