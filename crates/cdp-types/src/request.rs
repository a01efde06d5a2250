//! Memory-request descriptors and the priority lattice used by the L2 and
//! bus arbiters.
//!
//! The paper's arbiters "maintain a strict, priority-based ordering of
//! requests. Demand requests are given the highest priority, while stride
//! prefetcher requests are favored over content prefetcher requests because
//! of their higher accuracy" (§3.5). Content prefetches are further ordered
//! by their *request depth*: a depth-1 prefetch (triggered directly by a
//! demand fill) outranks a depth-3 chained prefetch.

use core::fmt;

/// Maximum representable request depth.
///
/// The paper stores the depth in the L2 line metadata using two bits
/// ("less than ½% space overhead when using two bits per cache line"),
/// which bounds the encodable depth at 3. Configurations with larger depth
/// thresholds (Figure 9 sweeps up to 9) use more bits; we allow up to 15.
pub const MAX_REQUEST_DEPTH: u8 = 15;

/// What kind of agent generated a memory request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RequestKind {
    /// A demand fetch from the core (load or store miss). Depth 0.
    Demand,
    /// A hardware page-table walk triggered by a TLB miss. Treated with
    /// demand priority; its fill data *bypasses* the content prefetcher
    /// (page tables are full of pointers and would explode the scanner).
    PageWalk,
    /// A request issued by the stride prefetcher.
    Stride,
    /// A request issued by the content-directed prefetcher, carrying its
    /// request depth (1 = triggered by a demand fill, 2+ = chained).
    Content {
        /// Links since a non-speculative request (§3.4.1).
        depth: u8,
    },
    /// A request issued by the Markov prefetcher (used only in the §5
    /// comparison configurations).
    Markov,
    /// A request issued by the delta-space Markov prefetcher (the
    /// Pangloss-style tournament comparator): predictions come from a
    /// compact delta-transition table rather than absolute miss addresses.
    Delta,
    /// A request issued by the pointer-chase/jump-pointer engine: the
    /// predicted next node of a linked traversal.
    Jump,
}

/// The agent a request, an L2 line, or a statistic belongs to.
///
/// This is the one place the engine list lives: its stable codes (L2
/// line owners in snapshots, trace-ring events, perceptron feature
/// hashes) and its names (trace output, reports) are defined here and
/// nowhere else.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Engine {
    /// Demand traffic (no prefetcher), including page walks.
    Demand = 0,
    /// The stride prefetcher.
    Stride = 1,
    /// The content-directed prefetcher.
    Content = 2,
    /// The §5 Markov STAB.
    Markov = 3,
    /// The delta-space Markov prefetcher.
    Delta = 4,
    /// The pointer-chase/jump-pointer prefetcher.
    Jump = 5,
}

impl Engine {
    /// Every engine, in code order.
    pub const ALL: [Engine; 6] = [
        Engine::Demand,
        Engine::Stride,
        Engine::Content,
        Engine::Markov,
        Engine::Delta,
        Engine::Jump,
    ];

    /// The engine's stable code (its index in [`Engine::ALL`]).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Engine::code`]; `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<Engine> {
        Engine::ALL.get(usize::from(code)).copied()
    }

    /// Lower-case engine name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Demand => "demand",
            Engine::Stride => "stride",
            Engine::Content => "content",
            Engine::Markov => "markov",
            Engine::Delta => "delta",
            Engine::Jump => "jump",
        }
    }
}

impl RequestKind {
    /// The engine that generated this request (page walks are demand
    /// traffic).
    #[inline]
    pub fn engine(self) -> Engine {
        match self {
            RequestKind::Demand | RequestKind::PageWalk => Engine::Demand,
            RequestKind::Stride => Engine::Stride,
            RequestKind::Content { .. } => Engine::Content,
            RequestKind::Markov => Engine::Markov,
            RequestKind::Delta => Engine::Delta,
            RequestKind::Jump => Engine::Jump,
        }
    }

    /// Stable `(tag, depth)` encoding, as in-flight requests are
    /// snapshotted; `depth` is 0 for every kind but content.
    pub fn code(self) -> (u8, u8) {
        match self {
            RequestKind::Demand => (0, 0),
            RequestKind::PageWalk => (1, 0),
            RequestKind::Stride => (2, 0),
            RequestKind::Content { depth } => (3, depth),
            RequestKind::Markov => (4, 0),
            RequestKind::Delta => (5, 0),
            RequestKind::Jump => (6, 0),
        }
    }

    /// Inverse of [`RequestKind::code`]; `None` for an unknown tag.
    pub fn from_code(tag: u8, depth: u8) -> Option<RequestKind> {
        Some(match tag {
            0 => RequestKind::Demand,
            1 => RequestKind::PageWalk,
            2 => RequestKind::Stride,
            3 => RequestKind::Content { depth },
            4 => RequestKind::Markov,
            5 => RequestKind::Delta,
            6 => RequestKind::Jump,
            _ => return None,
        })
    }

    /// The request depth: 0 for non-speculative traffic, the chain depth for
    /// content prefetches, 1 for other prefetchers.
    #[inline]
    pub fn depth(self) -> u8 {
        match self {
            RequestKind::Demand | RequestKind::PageWalk => 0,
            RequestKind::Content { depth } => depth,
            RequestKind::Stride | RequestKind::Markov | RequestKind::Delta | RequestKind::Jump => 1,
        }
    }

    /// Whether this is speculative prefetch traffic (droppable by arbiters).
    #[inline]
    pub fn is_prefetch(self) -> bool {
        !matches!(self, RequestKind::Demand | RequestKind::PageWalk)
    }

    /// Arbiter priority for this request. Higher compares greater.
    #[inline]
    pub fn priority(self) -> Priority {
        match self {
            RequestKind::Demand | RequestKind::PageWalk => Priority(u8::MAX),
            RequestKind::Stride => Priority(200),
            RequestKind::Markov => Priority(190),
            // Tournament comparators slot between Markov and content:
            // delta-Markov carries history context (more accurate than
            // raw pointer guesses), so it outranks jump-pointer chases.
            RequestKind::Delta => Priority(185),
            RequestKind::Jump => Priority(180),
            // Content prefetches: shallower chains are less speculative and
            // therefore outrank deeper ones.
            RequestKind::Content { depth } => {
                Priority(100u8.saturating_sub(depth.min(MAX_REQUEST_DEPTH)))
            }
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestKind::PageWalk => write!(f, "pagewalk"),
            RequestKind::Content { depth } => write!(f, "content(d{depth})"),
            kind => f.write_str(kind.engine().name()),
        }
    }
}

/// An arbiter priority. Bigger is more important. Demand traffic is always
/// `Priority::DEMAND`, which outranks every prefetch priority.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub u8);

impl Priority {
    /// The priority of demand (non-speculative) traffic.
    pub const DEMAND: Priority = Priority(u8::MAX);
    /// The lowest possible priority.
    pub const MIN: Priority = Priority(0);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Whether a data access reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A data load.
    Load,
    /// A data store (write-allocate: misses fetch the line like loads).
    Store,
}

impl AccessKind {
    /// True for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_outranks_everything() {
        let demand = RequestKind::Demand.priority();
        for k in [
            RequestKind::Stride,
            RequestKind::Markov,
            RequestKind::Delta,
            RequestKind::Jump,
            RequestKind::Content { depth: 1 },
            RequestKind::Content { depth: 9 },
        ] {
            assert!(demand > k.priority(), "{k} must rank below demand");
        }
        assert_eq!(demand, Priority::DEMAND);
    }

    #[test]
    fn stride_outranks_content() {
        assert!(RequestKind::Stride.priority() > RequestKind::Content { depth: 1 }.priority());
    }

    #[test]
    fn comparator_engines_sit_between_markov_and_content() {
        assert!(RequestKind::Markov.priority() > RequestKind::Delta.priority());
        assert!(RequestKind::Delta.priority() > RequestKind::Jump.priority());
        assert!(RequestKind::Jump.priority() > RequestKind::Content { depth: 1 }.priority());
    }

    #[test]
    fn shallower_content_outranks_deeper() {
        for d in 1..MAX_REQUEST_DEPTH {
            assert!(
                RequestKind::Content { depth: d }.priority()
                    > RequestKind::Content { depth: d + 1 }.priority()
            );
        }
    }

    #[test]
    fn depth_accessor() {
        assert_eq!(RequestKind::Demand.depth(), 0);
        assert_eq!(RequestKind::PageWalk.depth(), 0);
        assert_eq!(RequestKind::Content { depth: 3 }.depth(), 3);
        assert_eq!(RequestKind::Stride.depth(), 1);
        assert_eq!(RequestKind::Delta.depth(), 1);
        assert_eq!(RequestKind::Jump.depth(), 1);
    }

    #[test]
    fn prefetch_classification() {
        assert!(!RequestKind::Demand.is_prefetch());
        assert!(!RequestKind::PageWalk.is_prefetch());
        assert!(RequestKind::Stride.is_prefetch());
        assert!(RequestKind::Markov.is_prefetch());
        assert!(RequestKind::Delta.is_prefetch());
        assert!(RequestKind::Jump.is_prefetch());
        assert!(RequestKind::Content { depth: 1 }.is_prefetch());
    }

    #[test]
    fn engine_codes_round_trip_in_order() {
        for (i, e) in Engine::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(e.code()), i);
            assert_eq!(Engine::from_code(e.code()), Some(e));
        }
        assert_eq!(Engine::from_code(Engine::ALL.len() as u8), None);
        assert_eq!(RequestKind::PageWalk.engine(), Engine::Demand);
        assert_eq!(RequestKind::Content { depth: 4 }.engine(), Engine::Content);
        assert_eq!(Engine::Markov.name(), "markov");
    }

    #[test]
    fn request_kind_codes_round_trip() {
        let kinds = [
            RequestKind::Demand,
            RequestKind::PageWalk,
            RequestKind::Stride,
            RequestKind::Content { depth: 7 },
            RequestKind::Markov,
            RequestKind::Delta,
            RequestKind::Jump,
        ];
        for (tag, k) in kinds.into_iter().enumerate() {
            let (t, depth) = k.code();
            assert_eq!(usize::from(t), tag);
            assert_eq!(RequestKind::from_code(t, depth), Some(k));
        }
        assert_eq!(RequestKind::from_code(7, 0), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RequestKind::Demand.to_string(), "demand");
        assert_eq!(RequestKind::PageWalk.to_string(), "pagewalk");
        assert_eq!(RequestKind::Markov.to_string(), "markov");
        assert_eq!(RequestKind::Content { depth: 2 }.to_string(), "content(d2)");
        assert_eq!(RequestKind::Delta.to_string(), "delta");
        assert_eq!(RequestKind::Jump.to_string(), "jump");
        assert_eq!(Priority(3).to_string(), "p3");
    }
}
