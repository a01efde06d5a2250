//! Prefetch engines for the content-directed prefetching simulator.
//!
//! * [`vam`] — the **virtual-address-matching** heuristic of §3.3: the pure
//!   pointer-recognition function (compare bits, filter bits, align bits,
//!   scan step) plus the cache-line scanner of Figure 5.
//! * [`content`] — the **content-directed prefetcher** (§3.4): recursive
//!   prefetch chaining with a depth threshold, feedback-directed path
//!   reinforcement, and deeper-vs-wider next/previous-line expansion.
//! * [`stride`] — a classic PC-indexed reference-prediction-table stride
//!   prefetcher; the paper's baseline includes one and every speedup is
//!   measured relative to it.
//! * [`delta`] — a Pangloss-style delta-space Markov prefetcher with a
//!   compact fixed-size transition table (tournament comparator). Keyed
//!   by miss address with history 1 ([`DeltaPrefetcher::stab`]) it is
//!   the §5 comparator: a 1-history Markov prefetcher with a fan-out-4
//!   state-transition table (STAB).
//! * [`jump`] — a pointer-chase/jump-pointer engine for linked data
//!   structures (tournament comparator).
//! * [`perceptron`] — a learned confidence filter that gates any engine's
//!   issue stream on predicted accuracy.
//! * [`stream`] — Jouppi stream buffers (the paper's reference \[11\]), a
//!   second classical baseline.
//! * [`adaptive`] — run-time heuristic adjustment, the paper's stated
//!   future work (§4.1).
//!
//! All engines communicate with the memory hierarchy through
//! [`PrefetchRequest`] values; the hierarchy (in `cdp-sim`) owns
//! translation, arbitration, and cache interaction.

#![warn(missing_docs)]

pub mod adaptive;
pub mod content;
pub mod delta;
pub mod jump;
pub mod perceptron;
pub mod stream;
pub mod stride;
pub mod vam;

pub use adaptive::{AdaptiveConfig, AdaptiveVam};
pub use content::{ContentPrefetcher, ContentStats};
pub use delta::{DeltaPrefetcher, DeltaStats};
pub use jump::{JumpPrefetcher, JumpStats};
pub use perceptron::{PerceptronFilter, PerceptronStats};
pub use stream::{StreamConfig, StreamPrefetcher, StreamStats};
pub use stride::{StridePrefetcher, StrideStats};
pub use vam::{
    classify, is_candidate, scan_line, scan_line_scalar, LineScan, ScanHits, VamVerdict,
    MAX_SCAN_HITS,
};

use cdp_types::{RequestKind, VirtAddr};

/// A prefetch the engine wants the memory system to issue.
///
/// Addresses are *virtual*: the paper places the content prefetcher
/// on-chip precisely so candidates can be translated by the data TLB
/// (§3.2), and over a third of its prefetches require a page walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Virtual address to prefetch (the hierarchy fetches its whole line).
    pub vaddr: VirtAddr,
    /// Originating engine and chain depth; determines arbiter priority.
    pub kind: RequestKind,
    /// Whether this is a deeper-vs-wider *width* expansion (§3.4.3): a
    /// previous/next-line companion rather than a VAM candidate itself.
    /// Width fills are the most speculative traffic and are inserted into
    /// the L2 as preferred eviction victims until a demand touches them.
    pub width: bool,
}

impl PrefetchRequest {
    /// Convenience constructor for a content prefetch at `depth`.
    pub fn content(vaddr: VirtAddr, depth: u8) -> Self {
        PrefetchRequest {
            vaddr,
            kind: RequestKind::Content { depth },
            width: false,
        }
    }

    /// A width-expansion (previous/next-line) content prefetch at `depth`.
    pub fn content_width(vaddr: VirtAddr, depth: u8) -> Self {
        PrefetchRequest {
            vaddr,
            kind: RequestKind::Content { depth },
            width: true,
        }
    }

    /// Convenience constructor for a stride prefetch.
    pub fn stride(vaddr: VirtAddr) -> Self {
        PrefetchRequest {
            vaddr,
            kind: RequestKind::Stride,
            width: false,
        }
    }

    /// Convenience constructor for a Markov prefetch.
    pub fn markov(vaddr: VirtAddr) -> Self {
        PrefetchRequest {
            vaddr,
            kind: RequestKind::Markov,
            width: false,
        }
    }

    /// Convenience constructor for a jump-pointer prefetch.
    pub fn jump(vaddr: VirtAddr) -> Self {
        PrefetchRequest {
            vaddr,
            kind: RequestKind::Jump,
            width: false,
        }
    }
}

/// Common interface over the prefetch engines, for downstream users who
/// want to plug a custom engine into the hierarchy's hook points.
///
/// The default implementations do nothing, so an engine only overrides the
/// hooks it cares about (the stride prefetcher watches L1 misses, the
/// Markov STAB watches L2 misses, the content prefetcher watches L2
/// fills).
pub trait Prefetcher {
    /// An L1 data-cache miss by the instruction at `pc` for `vaddr`.
    fn on_l1_miss(&mut self, _pc: u32, _vaddr: VirtAddr, _out: &mut Vec<PrefetchRequest>) {}

    /// An L2 demand miss for `vaddr`.
    fn on_l2_miss(&mut self, _vaddr: VirtAddr, _out: &mut Vec<PrefetchRequest>) {}

    /// A line of data arrived at the L2. `trigger_ea` is the effective
    /// address whose miss (or candidate prediction) caused the fill;
    /// `kind` identifies the requester (and thus the fill's chain depth).
    fn on_l2_fill(
        &mut self,
        _trigger_ea: VirtAddr,
        _vline: VirtAddr,
        _data: &[u8; cdp_types::LINE_SIZE],
        _kind: RequestKind,
        _out: &mut Vec<PrefetchRequest>,
    ) {
    }

    /// Table storage this engine occupies, in bytes — *capacity*, not
    /// residency, so the figure is stable over a run. The equal-silicon
    /// tournament normalizes every entrant to a matched budget through
    /// this method. Stateless engines (the content prefetcher's whole
    /// point) report 0.
    fn budget_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = PrefetchRequest::content(VirtAddr(0x40), 2);
        assert_eq!(r.kind, RequestKind::Content { depth: 2 });
        assert_eq!(PrefetchRequest::stride(VirtAddr(0)).kind, RequestKind::Stride);
        assert_eq!(PrefetchRequest::markov(VirtAddr(0)).kind, RequestKind::Markov);
    }

    #[test]
    fn default_hooks_are_inert() {
        struct Nop;
        impl Prefetcher for Nop {}
        let mut out = Vec::new();
        let mut p = Nop;
        p.on_l1_miss(0, VirtAddr(0), &mut out);
        p.on_l2_miss(VirtAddr(0), &mut out);
        p.on_l2_fill(
            VirtAddr(0),
            VirtAddr(0),
            &[0u8; cdp_types::LINE_SIZE],
            RequestKind::Demand,
            &mut out,
        );
        assert!(out.is_empty());
    }
}
