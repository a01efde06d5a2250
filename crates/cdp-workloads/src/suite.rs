//! The 15-benchmark suite mirroring Table 2 of the paper.
//!
//! Each benchmark is a parameterized synthetic stand-in for one of the
//! paper's commercial traces, built so the suite reproduces the paper's
//! *spread* of behaviors:
//!
//! * working sets from well under the 1 MB L2 (`b2e`, `proE`) up to tens of
//!   megabytes (`verilog-gate`), ordering the L2 MPTU column the same way
//!   Table 2 does;
//! * stride-dominated codes (`quake`, `rc3`) that the baseline prefetcher
//!   already covers;
//! * pointer chasers over aged (shuffled) heaps (`slsb`, `verilog-*`,
//!   `specjbb-vsnet`, `tpcc-*`) where only content-directed prefetching
//!   can follow the chain.
//!
//! Workloads are fully deterministic given `(benchmark, scale, seed)`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cdp_core::{Program, Uop, UopKind, UopSource};
use cdp_mem::AddressSpace;
use cdp_types::rng::Rng;
use cdp_types::SnapshotError;

use crate::heap::Heap;
use crate::structures::{
    build_array, build_array_lazy, build_binary_tree, build_hash_table, build_index_array,
    build_list, Array, BinaryTree, HashTable, IndexArray, LinkedList,
};
use crate::trace::TraceBuilder;

/// Workload suite categories (Table 2, column 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Internet business applications.
    Internet,
    /// Game-playing and multimedia.
    Multimedia,
    /// Productivity applications.
    Productivity,
    /// On-line transaction processing.
    Server,
    /// Computer-aided design.
    Workstation,
    /// Java / managed-runtime applications.
    Runtime,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::Internet => "Internet",
            Suite::Multimedia => "Multimedia",
            Suite::Productivity => "Productivity",
            Suite::Server => "Server",
            Suite::Workstation => "Workstation",
            Suite::Runtime => "Runtime",
        };
        f.write_str(s)
    }
}

/// Uop budget above which [`Benchmark::build`] returns a streaming
/// workload: the trace is generated on demand in chunks instead of being
/// materialized as a `Vec<Uop>`, and the stride array's content is
/// synthesized lazily on first touch. Everything at or below the
/// threshold builds exactly as before, byte for byte.
pub const STREAM_THRESHOLD_UOPS: usize = 4_000_000;

static FORCE_STREAMING: AtomicBool = AtomicBool::new(false);

/// Forces [`Benchmark::build`] to return streaming workloads at *every*
/// scale (tests and the differential harness use this to compare the
/// streaming engine against the materialized one on small runs). Unlike
/// true large/huge tiers, force-streamed small scales keep their eagerly
/// written memory image, so results are bit-identical to materialized
/// builds.
pub fn set_force_streaming(on: bool) {
    FORCE_STREAMING.store(on, Ordering::SeqCst);
}

/// Whether [`set_force_streaming`] is currently on.
pub fn force_streaming() -> bool {
    FORCE_STREAMING.load(Ordering::SeqCst)
}

/// Run-size scaling: uop budget plus a divisor applied to every structure
/// footprint (tests use large divisors; experiments use 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Uops to emit (the trace may slightly overshoot to finish a burst).
    pub target_uops: usize,
    /// Structure footprints are divided by this (>= 1).
    pub footprint_div: usize,
}

impl Scale {
    /// Tiny runs for unit tests (~30 K uops, 1/32 footprints).
    pub fn smoke() -> Self {
        Scale {
            target_uops: 30_000,
            footprint_div: 16,
        }
    }

    /// Fast experiment runs (~1 M uops, halved footprints). The budget is
    /// several passes over each working set, so capacity behavior (the
    /// 1 MB vs 4 MB UL2 contrast of Table 2) is visible, not just
    /// compulsory misses.
    pub fn quick() -> Self {
        Scale {
            target_uops: 1_000_000,
            footprint_div: 2,
        }
    }

    /// Full experiment runs (~4 M uops, halved footprints): several
    /// sweeps of every hot working set.
    pub fn full() -> Self {
        Scale {
            target_uops: 4_000_000,
            footprint_div: 2,
        }
    }

    /// Large runs (~100 M uops, full footprints): only reachable through
    /// the streaming engine — the trace is never materialized.
    pub fn large() -> Self {
        Scale {
            target_uops: 100_000_000,
            footprint_div: 1,
        }
    }

    /// Huge runs (~1 B uops, full footprints), streaming only.
    pub fn huge() -> Self {
        Scale {
            target_uops: 1_000_000_000,
            footprint_div: 1,
        }
    }

    /// Whether builds at this scale stream their trace (over the
    /// [`STREAM_THRESHOLD_UOPS`] budget, or [`set_force_streaming`] is on).
    pub fn streamed(&self) -> bool {
        self.target_uops > STREAM_THRESHOLD_UOPS || force_streaming()
    }

    fn div(&self, x: usize) -> usize {
        (x / self.footprint_div).max(1)
    }
}

/// A generated workload: the trace plus the memory image it runs against.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (Table 2 spelling).
    pub name: String,
    /// Suite category.
    pub suite: Suite,
    /// The uop trace (empty when the workload streams — see
    /// [`Workload::stream`]).
    pub program: Program,
    /// The memory image (page tables included).
    pub space: AddressSpace,
    /// Streaming recipe for large/huge tiers: when set, the trace is
    /// generated on demand by a [`cdp_core::UopSource`] built from
    /// [`StreamSpec::make_source`] and `program` stays empty.
    pub stream: Option<StreamSpec>,
}

impl Workload {
    /// Whether this workload streams its trace instead of materializing it.
    pub fn is_streamed(&self) -> bool {
        self.stream.is_some()
    }

    /// Checks that every load/store in the trace targets mapped memory —
    /// the invariant the simulator's demand path relies on. Returns the
    /// first offending (uop index, address) if any.
    ///
    /// # Errors
    ///
    /// Returns `Err((index, address))` for the first unmapped access.
    pub fn validate(&self) -> Result<(), (usize, cdp_types::VirtAddr)> {
        if let Some(spec) = &self.stream {
            // Streamed traces are too long to check exhaustively; generate
            // and check a bounded prefix (the generator revisits the same
            // structures throughout, so an unmapped target shows up early).
            const PREFIX_UOPS: usize = 65_536;
            let mut source = spec.make_source();
            let mut chunk = VecDeque::new();
            let mut idx = 0usize;
            while idx < PREFIX_UOPS {
                chunk.clear();
                if source.fill(&mut chunk) == 0 {
                    break;
                }
                for u in &chunk {
                    if let Some(a) = u.vaddr() {
                        if self.space.translate(a).is_none() {
                            return Err((idx, a));
                        }
                    }
                    idx += 1;
                }
            }
            return Ok(());
        }
        for (i, u) in self.program.uops.iter().enumerate() {
            if let Some(a) = u.vaddr() {
                if self.space.translate(a).is_none() {
                    return Err((i, a));
                }
            }
        }
        Ok(())
    }

    /// [`Workload::validate`] as a typed error: the first unmapped trace
    /// access becomes a [`cdp_types::CdpError::CorruptWorkload`] carrying
    /// the benchmark name, uop index, and faulting address.
    ///
    /// # Errors
    ///
    /// Returns `CdpError::CorruptWorkload` for the first unmapped access.
    pub fn check(&self) -> Result<(), cdp_types::CdpError> {
        self.validate()
            .map_err(|(uop, addr)| cdp_types::CdpError::CorruptWorkload {
                benchmark: self.name.clone(),
                uop,
                addr,
            })
    }

    /// A content fingerprint over the trace and the memory image.
    ///
    /// Workloads are rebuilt deterministically from `(Benchmark, Scale,
    /// seed)` when a checkpoint is resumed; this fingerprint is recorded
    /// in the snapshot header so a resume against a workload that was
    /// built differently (changed generator, changed scale) is rejected
    /// with a typed error instead of silently diverging.
    ///
    /// It is recomputed on every call, not cached: the fields are public
    /// and mutable (fault studies unmap pages of cloned images), so a
    /// stored value could go stale. [`cdp_snap::WordHasher`] takes each
    /// uop as two words and each frame eight bytes per step; even so a
    /// call costs milliseconds, so a session computes it only when it
    /// first snapshots or restores.
    pub fn fingerprint(&self) -> u64 {
        let mut h = cdp_snap::WordHasher::new();
        h.write(self.name.as_bytes());
        if let Some(spec) = &self.stream {
            // The trace is a pure function of (generator, tier, seed), so
            // hash the recipe instead of the uops. Tier parameters are
            // part of the key: a `large` workload can never collide with
            // a `smoke` one, even at the same seed.
            h.write(b"stream");
            h.write_u64(spec.target_uops as u64);
            h.write_u64(spec.footprint_div as u64);
            h.write_u64(spec.seed);
        } else {
            h.write_u64(self.program.uops.len() as u64);
            // Each uop is two words (pc and payload; kind and registers),
            // each absorbed by a hasher of its own so that the two
            // multiply chains overlap.
            let (mut first, mut second) =
                (cdp_snap::WordHasher::new(), cdp_snap::WordHasher::new());
            for u in &self.program.uops {
                let (tag, payload) = match u.kind {
                    UopKind::Alu { latency } => (0u8, u32::from(latency)),
                    UopKind::Fp { latency } => (1, u32::from(latency)),
                    UopKind::Load { vaddr } => (2, vaddr.0),
                    UopKind::Store { vaddr } => (3, vaddr.0),
                    UopKind::Branch { taken } => (4, u32::from(taken)),
                };
                first.write_u64(u64::from(u.pc) | (u64::from(payload) << 32));
                second.write_u32(u32::from_le_bytes([
                    tag,
                    u.dst.map_or(0xff, |r| r),
                    u.srcs[0].map_or(0xff, |r| r),
                    u.srcs[1].map_or(0xff, |r| r),
                ]));
            }
            h.write_u64(first.finish());
            h.write_u64(second.finish());
        }
        let (heap, table, rng) = self.space.cursors();
        h.write_u32(heap);
        h.write_u32(table);
        h.write_u64(rng);
        h.write_u64(self.space.phys().state_fingerprint());
        h.finish()
    }

    /// A one-paragraph characterization: uop mix percentages and the
    /// mapped footprint (a debugging/reporting aid).
    pub fn summary(&self) -> String {
        if let Some(spec) = &self.stream {
            return format!(
                "{} [{}]: streaming {} uops (window-resident), {} KB mapped",
                self.name,
                self.suite,
                spec.target_uops,
                self.space.mapped_pages() * 4
            );
        }
        let n = self.program.len().max(1) as f64;
        let loads = self.program.num_loads() as f64 / n * 100.0;
        let stores = self.program.num_stores() as f64 / n * 100.0;
        let branches = self.program.num_branches() as f64 / n * 100.0;
        format!(
            "{} [{}]: {} uops ({loads:.1}% loads, {stores:.1}% stores, {branches:.1}% branches), {} KB mapped",
            self.name,
            self.suite,
            self.program.len(),
            self.space.mapped_pages() * 4
        )
    }
}

/// Streaming recipe for a workload's trace: a pristine generator plus the
/// tier parameters that produced it. The generator inside is never
/// advanced — [`StreamSpec::make_source`] clones it, so every source
/// starts at uop 0 and replays the identical stream. The clone shares
/// the generator's read-only structures instead of copying them.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    gen: TraceGen,
    target_uops: usize,
    footprint_div: usize,
    seed: u64,
}

impl StreamSpec {
    /// A fresh [`UopSource`] positioned at uop 0.
    pub fn make_source(&self) -> Box<dyn UopSource> {
        Box::new(self.gen.clone())
    }

    /// The tier's uop budget.
    pub fn target_uops(&self) -> usize {
        self.target_uops
    }

    /// The tier's footprint divisor.
    pub fn footprint_div(&self) -> usize {
        self.footprint_div
    }

    /// The workload seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// How many uops a streaming fill accumulates before handing them to the
/// core: large enough to amortize per-chunk dispatch, small enough that
/// the resident window stays a few hundred KB.
const STREAM_CHUNK_UOPS: usize = 4096;

/// The resident structures a generator walks. They are read-only once
/// the image is built, so every source cloned from one [`StreamSpec`]
/// shares them.
#[derive(Debug)]
struct Structures {
    list: Option<LinkedList>,
    tree: Option<BinaryTree>,
    hash: Option<HashTable>,
    array: Option<Array>,
    index: Option<IndexArray>,
    store_buf: cdp_types::VirtAddr,
}

/// The phase-loop generator behind both build modes: materialized builds
/// drive it to completion up front, streaming builds drive it chunk by
/// chunk from the core's fetch stage. Both modes draw the same rng
/// trajectory, so they emit identical uop streams.
#[derive(Clone, Debug)]
struct TraceGen {
    profile: Profile,
    structures: Arc<Structures>,
    rng: Rng,
    tb: TraceBuilder,
    stride_cursor: u32,
    /// Uops handed out via [`UopSource::fill`] so far (streaming only).
    emitted: usize,
    target: usize,
}

impl TraceGen {
    /// Emits one phase burst (plus the trailing store burst for OLTP
    /// profiles) into the internal builder. This is the loop body of the
    /// original materialized build, verbatim.
    fn fill_burst(&mut self) {
        let p = self.profile;
        let TraceGen {
            ref structures,
            ref mut rng,
            ref mut tb,
            ref mut stride_cursor,
            ..
        } = *self;
        let Structures {
            list,
            tree,
            hash,
            array,
            index,
            store_buf,
        } = &**structures;
        let total_w: u32 = p.weights.iter().sum();
        let mut pick = rng.gen_range_u32(0..total_w);
        let mut phase = 0;
        for (i, &w) in p.weights.iter().enumerate() {
            if pick < w {
                phase = i;
                break;
            }
            pick -= w;
        }
        match phase {
            0 => {
                let l = list.as_ref().expect("chase weight requires a list");
                let seg = p.segment.min(l.nodes.len());
                let hot_span =
                    ((l.nodes.len() as f64 * p.hot_frac) as usize).min(l.nodes.len() - seg);
                let pick = |rng: &mut Rng| {
                    if rng.gen_bool(p.locality.clamp(0.0, 1.0)) {
                        rng.gen_range_usize_incl(0..=hot_span.min(l.nodes.len() - seg))
                    } else {
                        rng.gen_range_usize_incl(0..=(l.nodes.len() - seg))
                    }
                };
                let a = pick(&mut *rng);
                let b = pick(&mut *rng);
                tb.chase_interleaved(
                    10,
                    &l.nodes[a..a + seg],
                    &l.nodes[b..b + seg],
                    p.payload_loads,
                    p.alu,
                );
            }
            1 => {
                let t = tree.as_ref().expect("tree weight requires a tree");
                tb.tree_search(20, t, 6, &mut *rng);
            }
            2 => {
                let h = hash.as_ref().expect("hash weight requires a table");
                tb.hash_probe_hot_frac(30, h, 12, &mut *rng, p.locality, p.hot_frac);
            }
            3 => {
                let a = array.as_ref().expect("stride weight requires an array");
                let stride = 64i64;
                // Burst length clamped to the (possibly scaled-down)
                // array so the sweep never walks past its end.
                let elems = 256usize.min(a.len / stride as usize).max(1);
                let span = (elems as i64 * stride) as u32;
                // Sweep the array sequentially across phases (wrapping),
                // like a frame/vertex buffer pass: capacity behavior,
                // and the stride prefetcher's bread and butter.
                if *stride_cursor + span > a.len as u32 {
                    *stride_cursor = 0;
                }
                tb.stride_scan(
                    40,
                    a.base.offset(*stride_cursor as i64),
                    stride,
                    elems,
                    p.alu,
                );
                *stride_cursor += span;
            }
            5 => {
                let ia = index.as_ref().expect("index weight requires an array");
                let count = (p.segment * 2).min(ia.order.len());
                let hot_span = (ia.order.len() as f64 * p.hot_frac) as usize;
                let start = if rng.gen_bool(p.locality.clamp(0.0, 1.0)) && hot_span > 0 {
                    rng.gen_range_usize(0..hot_span)
                } else {
                    rng.gen_range_usize(0..ia.order.len())
                };
                tb.index_chase(60, ia, start, count, p.alu);
            }
            _ => {
                tb.alu_burst(50, 160);
                if p.fp {
                    tb.fp_burst(51, 32, 4);
                }
                tb.branch_noise(52, 8, p.branch_noise, &mut *rng);
            }
        }
        // OLTP-style benchmarks write back the rows they touch: a
        // store burst follows every phase.
        if p.stores {
            let off = rng.gen_range_u32(0..900) * 64;
            tb.store_burst(53, store_buf.offset(off as i64), 64, 16);
        }
    }
}

impl UopSource for TraceGen {
    /// Emits whole bursts straight onto the end of `out` until a chunk's
    /// worth or the target is reached.
    fn fill(&mut self, out: &mut VecDeque<Uop>) -> usize {
        let start = out.len();
        self.tb.swap_buffer(out);
        while self.emitted + (self.tb.len() - start) < self.target
            && self.tb.len() - start < STREAM_CHUNK_UOPS
        {
            self.fill_burst();
        }
        self.tb.swap_buffer(out);
        let n = out.len() - start;
        self.emitted += n;
        n
    }

    fn exhausted(&self) -> bool {
        self.emitted >= self.target
    }

    fn box_clone(&self) -> Box<dyn UopSource> {
        Box::new(self.clone())
    }

    fn save_cursor(&self, enc: &mut cdp_snap::Enc) {
        // `fill` hands the window back, so between fills only the
        // scratch-register rotation survives in the builder.
        debug_assert_eq!(self.tb.len(), 0, "cursor saved between fills");
        for w in self.rng.state() {
            enc.u64(w);
        }
        enc.u32(self.stride_cursor);
        enc.usize(self.emitted);
        enc.u8(self.tb.scratch_cursor());
    }

    fn restore_cursor(&mut self, dec: &mut cdp_snap::Dec<'_>) -> Result<(), SnapshotError> {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = dec.u64("tracegen rng state")?;
        }
        self.rng = Rng::from_state(s);
        self.stride_cursor = dec.u32("tracegen stride cursor")?;
        self.emitted = dec.usize("tracegen emitted")?;
        self.tb = TraceBuilder::new();
        self.tb
            .set_scratch_cursor(dec.u8("tracegen scratch cursor")?);
        Ok(())
    }
}

/// The 15 benchmarks of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    B2b,
    B2e,
    Quake,
    Speech,
    Rc3,
    Creation,
    Tpcc1,
    Tpcc2,
    Tpcc3,
    Tpcc4,
    VerilogFunc,
    VerilogGate,
    ProE,
    Slsb,
    SpecjbbVsnet,
}

/// Mix and footprint parameters for one benchmark.
#[derive(Clone, Copy, Debug)]
struct Profile {
    suite: Suite,
    /// Linked-list node count (0 = no list), node size, heap aging.
    list_nodes: usize,
    node_size: usize,
    shuffled: bool,
    /// Heap allocation alignment. Most compilers place structures on
    /// 4-byte boundaries, but §3.3 notes that footprint-optimizing
    /// compilers pack to 2 bytes — which is why the paper's tuned VAM
    /// configuration predicts on 2-byte alignment with a 2-byte scan
    /// step. The CAD workloads here use 2-byte packing.
    node_align: u32,
    /// Complete-binary-tree levels (0 = no tree).
    tree_levels: u32,
    /// Hash table geometry (0 items = no table).
    hash_buckets: usize,
    hash_items: usize,
    hash_node: usize,
    /// Stride-array footprint in bytes (0 = none).
    array_bytes: usize,
    /// Index-linked-array element count (0 = none): serial irregular
    /// traversals that the content prefetcher cannot follow.
    index_elems: usize,
    /// Phase weights: chase, tree, hash, stride, compute, index-chase.
    weights: [u32; 6],
    /// List nodes walked per chase burst.
    segment: usize,
    /// Dependent payload loads per chased node.
    payload_loads: usize,
    /// Dependent ALU uops per chased node / per stride element.
    alu: usize,
    /// Whether compute bursts include FP work (multimedia/CAD).
    fp: bool,
    /// Whether the workload emits store bursts (OLTP).
    stores: bool,
    /// Fraction of filler branches that are random.
    branch_noise: f64,
    /// Probability that a pointer phase targets the hot subset of its
    /// structure (real workloads have skewed reuse; `verilog-gate` sweeps
    /// nearly uniformly, OLTP concentrates on hot rows).
    locality: f64,
    /// Fraction of each structure forming the hot subset. Sized so the
    /// hot working set falls between the 1 MB and 4 MB UL2 capacities for
    /// the mid-tier benchmarks (the Table 2 contrast).
    hot_frac: f64,
    /// Virtual base of the arena holding the hash table (0 = the main
    /// heap at `0x1000_0000`). OLTP and runtime workloads place their
    /// tables in *low* arenas (below 16 MB), where a candidate's upper
    /// compare bits are all zero and the VAM filter bits (§3.3) decide
    /// whether the region is prefetchable at all — the Figure 7 axis.
    hash_arena: u32,
}

impl Benchmark {
    /// All 15 benchmarks in Table 2 order.
    pub fn all() -> [Benchmark; 15] {
        use Benchmark::*;
        [
            B2b,
            B2e,
            Quake,
            Speech,
            Rc3,
            Creation,
            Tpcc1,
            Tpcc2,
            Tpcc3,
            Tpcc4,
            VerilogFunc,
            VerilogGate,
            ProE,
            Slsb,
            SpecjbbVsnet,
        ]
    }

    /// The six benchmarks used in the Figure 1 warm-up trace (one per
    /// suite).
    pub fn figure1_set() -> [Benchmark; 6] {
        use Benchmark::*;
        [B2e, Quake, Rc3, Tpcc2, VerilogFunc, SpecjbbVsnet]
    }

    /// Table 2 name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::B2b => "b2b",
            Benchmark::B2e => "b2e",
            Benchmark::Quake => "quake",
            Benchmark::Speech => "speech",
            Benchmark::Rc3 => "rc3",
            Benchmark::Creation => "creation",
            Benchmark::Tpcc1 => "tpcc-1",
            Benchmark::Tpcc2 => "tpcc-2",
            Benchmark::Tpcc3 => "tpcc-3",
            Benchmark::Tpcc4 => "tpcc-4",
            Benchmark::VerilogFunc => "verilog-func",
            Benchmark::VerilogGate => "verilog-gate",
            Benchmark::ProE => "proE",
            Benchmark::Slsb => "slsb",
            Benchmark::SpecjbbVsnet => "specjbb-vsnet",
        }
    }

    /// Parses a Table 2 name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::all().into_iter().find(|b| b.name() == name)
    }

    /// Suite category (Table 2).
    pub fn suite(&self) -> Suite {
        self.profile().suite
    }

    fn profile(&self) -> Profile {
        let base = Profile {
            suite: Suite::Productivity,
            list_nodes: 0,
            node_size: 32,
            shuffled: false,
            node_align: 4,
            tree_levels: 0,
            hash_buckets: 0,
            hash_items: 0,
            hash_node: 32,
            array_bytes: 0,
            index_elems: 0,
            weights: [0, 0, 0, 0, 1, 0],
            segment: 384,
            payload_loads: 1,
            alu: 4,
            fp: false,
            stores: false,
            branch_noise: 0.05,
            locality: 0.85,
            hot_frac: 0.7,
            hash_arena: 0,
        };
        match self {
            Benchmark::B2b => Profile {
                suite: Suite::Internet,
                list_nodes: 22_000, // ~1 MB of 48 B nodes
                node_size: 48,
                shuffled: true,
                hash_buckets: 16_384,
                hash_items: 50_000, // ~1.6 MB
                array_bytes: 256 << 10,
                index_elems: 30000,
                weights: [1, 0, 2, 1, 3, 3],
                alu: 24,
                hash_arena: 0x0090_0000,
                ..base
            },
            Benchmark::B2e => Profile {
                suite: Suite::Internet,
                list_nodes: 3_000, // ~96 KB
                shuffled: false,
                hash_buckets: 512,
                hash_items: 2_000,
                hash_node: 24,
                array_bytes: 128 << 10,
                weights: [1, 0, 3, 2, 6, 0],
                alu: 6,
                locality: 0.92,
                ..base
            },
            Benchmark::Quake => Profile {
                suite: Suite::Multimedia,
                list_nodes: 12_000,
                shuffled: false,
                array_bytes: 1500 << 10,
                weights: [1, 0, 0, 5, 3, 0],
                fp: true,
                ..base
            },
            Benchmark::Speech => Profile {
                suite: Suite::Productivity,
                // Lattice/token chains on top of the pronunciation hash
                // table: speech decoders chase linked hypothesis tokens.
                list_nodes: 24_000, // ~0.8 MB of 32 B nodes
                shuffled: true,
                hash_buckets: 8_192,
                hash_items: 55_000, // ~1.7 MB
                array_bytes: 512 << 10,
                index_elems: 20000,
                weights: [1, 0, 2, 2, 4, 1],
                alu: 12,
                hash_arena: 0x0090_0000,
                ..base
            },
            Benchmark::Rc3 => Profile {
                suite: Suite::Productivity,
                list_nodes: 8_000,
                shuffled: false,
                array_bytes: 1 << 20,
                weights: [1, 0, 0, 4, 5, 0],
                alu: 6,
                ..base
            },
            Benchmark::Creation => Profile {
                suite: Suite::Productivity,
                list_nodes: 13_000, // ~0.5 MB of 40 B
                node_size: 40,
                shuffled: false,
                hash_buckets: 1_024,
                hash_items: 4_000,
                array_bytes: 1200 << 10,
                weights: [2, 0, 1, 3, 4, 0],
                alu: 5,
                ..base
            },
            Benchmark::Tpcc1 => Profile {
                suite: Suite::Server,
                list_nodes: 32_000, // ~1.5 MB
                node_size: 48,
                shuffled: true,
                hash_buckets: 32_768,
                hash_items: 60_000, // ~2.4 MB of 40 B
                hash_node: 40,
                array_bytes: 512 << 10,
                index_elems: 50000,
                weights: [2, 0, 3, 1, 2, 2],
                alu: 24,
                stores: true,
                branch_noise: 0.15,
                hash_arena: 0x0024_0000,
                ..base
            },
            Benchmark::Tpcc2 => Profile {
                suite: Suite::Server,
                list_nodes: 42_000, // ~2 MB
                node_size: 48,
                shuffled: true,
                hash_buckets: 32_768,
                hash_items: 75_000, // ~3 MB
                hash_node: 40,
                array_bytes: 512 << 10,
                index_elems: 50000,
                weights: [2, 0, 3, 1, 2, 2],
                alu: 24,
                stores: true,
                branch_noise: 0.15,
                hash_arena: 0x0024_0000,
                ..base
            },
            Benchmark::Tpcc3 => Profile {
                suite: Suite::Server,
                list_nodes: 52_000, // ~2.5 MB
                node_size: 48,
                shuffled: true,
                hash_buckets: 32_768,
                hash_items: 75_000,
                hash_node: 40,
                array_bytes: 512 << 10,
                index_elems: 50000,
                weights: [3, 0, 3, 1, 2, 2],
                alu: 24,
                stores: true,
                branch_noise: 0.15,
                hash_arena: 0x0024_0000,
                ..base
            },
            Benchmark::Tpcc4 => Profile {
                suite: Suite::Server,
                list_nodes: 42_000,
                node_size: 48,
                shuffled: true,
                hash_buckets: 32_768,
                hash_items: 60_000,
                hash_node: 40,
                array_bytes: 512 << 10,
                index_elems: 50000,
                weights: [2, 0, 3, 1, 2, 2],
                alu: 24,
                stores: true,
                branch_noise: 0.15,
                hash_arena: 0x0024_0000,
                ..base
            },
            Benchmark::VerilogFunc => Profile {
                suite: Suite::Workstation,
                list_nodes: 250_000, // ~8 MB of 32 B nodes
                node_size: 30,
                node_align: 2,
                shuffled: true,
                tree_levels: 13,
                index_elems: 120000,
                weights: [4, 1, 0, 0, 2, 2],
                segment: 768,
                locality: 0.35,
                alu: 24,
                ..base
            },
            Benchmark::VerilogGate => Profile {
                suite: Suite::Workstation,
                list_nodes: 850_000, // ~20 MB of 24 B nodes
                node_size: 24,
                shuffled: true,
                index_elems: 300000,
                weights: [5, 0, 0, 0, 1, 2],
                segment: 1024,
                locality: 0.1,
                payload_loads: 0,
                alu: 20,
                ..base
            },
            Benchmark::ProE => Profile {
                suite: Suite::Workstation,
                tree_levels: 13, // 8191 x 40 B ≈ 320 KB
                node_size: 40,
                array_bytes: 256 << 10,
                weights: [0, 3, 0, 1, 6, 0],
                alu: 8,
                locality: 0.9,
                fp: true,
                ..base
            },
            Benchmark::Slsb => Profile {
                suite: Suite::Workstation,
                list_nodes: 100_000, // ~6 MB of 64 B nodes
                node_size: 62,
                node_align: 2,
                shuffled: true,
                hash_buckets: 4_096,
                hash_items: 10_000,
                array_bytes: 256 << 10,
                index_elems: 60000,
                weights: [3, 0, 1, 1, 1, 2],
                segment: 512,
                locality: 0.5,
                payload_loads: 2,
                alu: 32,
                ..base
            },
            Benchmark::SpecjbbVsnet => Profile {
                suite: Suite::Runtime,
                list_nodes: 42_000, // ~2 MB of 48 B
                node_size: 48,
                shuffled: true,
                tree_levels: 12,
                hash_buckets: 8_192,
                hash_items: 30_000,
                array_bytes: 512 << 10,
                index_elems: 40000,
                weights: [2, 1, 2, 1, 3, 2],
                locality: 0.8,
                alu: 20,
                hash_arena: 0x0090_0000,
                ..base
            },
        }
    }

    /// Builds the workload: allocates and links its structures into a
    /// fresh address space, then emits `scale.target_uops` of trace —
    /// materialized below [`STREAM_THRESHOLD_UOPS`], streaming above it
    /// (or everywhere when [`set_force_streaming`] is on).
    pub fn build(&self, scale: Scale, seed: u64) -> Workload {
        self.build_with_engine(scale, seed, scale.streamed())
    }

    /// [`Benchmark::build`] with an explicit engine choice: `streamed`
    /// selects the chunked on-demand generator regardless of scale.
    /// Both engines draw the same rng trajectory, so they produce the
    /// identical uop stream; the differential tests compare them directly
    /// without touching the process-wide [`set_force_streaming`] toggle.
    pub fn build_with_engine(&self, scale: Scale, seed: u64, streamed: bool) -> Workload {
        let p = self.profile();
        let mut space = AddressSpace::new();
        // Heap capacity: generous upper bound on all structures.
        let cap_estimate = p.list_nodes / scale.footprint_div * (p.node_size + 16)
            + ((1usize << p.tree_levels) * (p.node_size.max(16) + 16))
            + p.hash_items / scale.footprint_div * (p.hash_node + 16)
            + p.hash_buckets * 4
            + p.array_bytes / scale.footprint_div
            + (1 << 20);
        let mut heap = Heap::new(
            Heap::DEFAULT_BASE,
            (cap_estimate as u32).next_power_of_two(),
        )
        .with_align(p.node_align)
        .with_padding(if p.shuffled { 16 } else { 0 });
        let mut rng = Rng::seed_from_u64(seed ^ 0xc0c0_0000 ^ (*self as u64) << 32);

        let list: Option<LinkedList> = (p.list_nodes > 0).then(|| {
            build_list(
                &mut space,
                &mut heap,
                &mut rng,
                scale.div(p.list_nodes),
                p.node_size,
                p.shuffled,
            )
        });
        let tree: Option<BinaryTree> = (p.tree_levels > 0).then(|| {
            let levels = if scale.footprint_div > 1 {
                (p.tree_levels.saturating_sub(scale.footprint_div.ilog2())).max(4)
            } else {
                p.tree_levels
            };
            build_binary_tree(&mut space, &mut heap, &mut rng, levels, p.node_size.max(16))
        });
        let hash: Option<HashTable> = (p.hash_items > 0).then(|| {
            // The table (bucket array + chain nodes together, so chain
            // pointers stay intra-region) lives either in the main heap or
            // in a low arena whose prefetchability depends on the VAM
            // filter bits.
            let mut arena = if p.hash_arena != 0 {
                Heap::new(p.hash_arena, 6 << 20).with_padding(if p.shuffled { 16 } else { 0 })
            } else {
                Heap::new(0, 0)
            };
            let h = if p.hash_arena != 0 {
                &mut arena
            } else {
                &mut heap
            };
            build_hash_table(
                &mut space,
                h,
                &mut rng,
                scale.div(p.hash_buckets.max(16)),
                scale.div(p.hash_items),
                p.hash_node,
            )
        });
        // True large/huge tiers synthesize array content lazily on first
        // touch (one seed draw instead of one draw per line); smaller
        // tiers — including force-streamed ones — keep the eager fill so
        // their rng trajectory and memory image match historical builds
        // byte for byte.
        let lazy_image = scale.target_uops > STREAM_THRESHOLD_UOPS;
        let array: Option<Array> = (p.array_bytes > 0).then(|| {
            if lazy_image {
                build_array_lazy(&mut space, &mut heap, &mut rng, scale.div(p.array_bytes))
            } else {
                build_array(&mut space, &mut heap, &mut rng, scale.div(p.array_bytes))
            }
        });
        let index: Option<IndexArray> = (p.index_elems > 0).then(|| {
            build_index_array(
                &mut space,
                &mut heap,
                &mut rng,
                scale.div(p.index_elems),
                32,
            )
        });
        // A scratch buffer for store bursts.
        let store_buf = heap.alloc(&mut space, 64 << 10);

        let total_w: u32 = p.weights.iter().sum();
        assert!(total_w > 0, "benchmark must have at least one phase");
        let mut gen = TraceGen {
            profile: p,
            structures: Arc::new(Structures {
                list,
                tree,
                hash,
                array,
                index,
                store_buf,
            }),
            rng,
            tb: TraceBuilder::new(),
            stride_cursor: 0,
            emitted: 0,
            target: scale.target_uops,
        };

        if streamed {
            return Workload {
                name: self.name().to_string(),
                suite: p.suite,
                program: Program::new(Vec::new()),
                space,
                stream: Some(StreamSpec {
                    gen,
                    target_uops: scale.target_uops,
                    footprint_div: scale.footprint_div,
                    seed,
                }),
            };
        }

        // Materialized build: drive the generator to completion up front.
        // This draws the exact rng trajectory of the historical phase
        // loop, so traces are byte-identical to pre-streaming builds.
        while gen.tb.len() < gen.target {
            gen.fill_burst();
        }

        Workload {
            name: self.name().to_string(),
            suite: p.suite,
            program: gen.tb.build(),
            space,
            stream: None,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_roundtrip() {
        for b in Benchmark::all() {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nope"), None);
    }

    #[test]
    fn builds_every_benchmark_at_smoke_scale() {
        for b in Benchmark::all() {
            let w = b.build(Scale::smoke(), 1);
            assert!(
                w.program.len() >= Scale::smoke().target_uops,
                "{b}: {} uops",
                w.program.len()
            );
            assert!(w.space.mapped_pages() > 0, "{b} has a memory image");
            assert!(w.program.num_loads() > 0, "{b} loads data");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Benchmark::Slsb.build(Scale::smoke(), 9);
        let b = Benchmark::Slsb.build(Scale::smoke(), 9);
        assert_eq!(a.program.len(), b.program.len());
        assert_eq!(a.program.uops, b.program.uops);
        let c = Benchmark::Slsb.build(Scale::smoke(), 10);
        assert_ne!(a.program.uops, c.program.uops);
    }

    #[test]
    fn pointer_benchmarks_have_bigger_footprints_than_cache_resident_ones() {
        let gate = Benchmark::VerilogGate.build(Scale::smoke(), 1);
        let b2e = Benchmark::B2e.build(Scale::smoke(), 1);
        assert!(
            gate.space.mapped_pages() > 4 * b2e.space.mapped_pages(),
            "gate {} vs b2e {}",
            gate.space.mapped_pages(),
            b2e.space.mapped_pages()
        );
    }

    #[test]
    fn every_benchmark_trace_is_fully_mapped() {
        for b in Benchmark::all() {
            let w = b.build(Scale::smoke(), 5);
            if let Err(e) = w.check() {
                panic!("{e}");
            }
        }
    }

    #[test]
    fn validate_reports_unmapped_accesses() {
        let mut w = Benchmark::B2e.build(Scale::smoke(), 5);
        w.program.uops.push(cdp_core::Uop::load(
            0,
            cdp_types::VirtAddr(0x7777_0000),
            1,
            None,
        ));
        let (idx, addr) = w.validate().unwrap_err();
        assert_eq!(idx, w.program.len() - 1);
        assert_eq!(addr, cdp_types::VirtAddr(0x7777_0000));
    }

    #[test]
    fn check_wraps_the_fault_in_a_typed_error() {
        let mut w = Benchmark::Slsb.build(Scale::smoke(), 5);
        assert!(w.check().is_ok());
        w.program.uops.push(cdp_core::Uop::load(
            0,
            cdp_types::VirtAddr(0x7777_0000),
            1,
            None,
        ));
        let err = w.check().unwrap_err();
        match err {
            cdp_types::CdpError::CorruptWorkload {
                benchmark,
                uop,
                addr,
            } => {
                assert_eq!(benchmark, "slsb");
                assert_eq!(uop, w.program.len() - 1);
                assert_eq!(addr, cdp_types::VirtAddr(0x7777_0000));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn summary_reports_mix_and_footprint() {
        let w = Benchmark::Tpcc2.build(Scale::smoke(), 3);
        let s = w.summary();
        assert!(s.contains("tpcc-2"));
        assert!(s.contains("Server"));
        assert!(s.contains("% loads"));
        assert!(s.contains("KB mapped"));
    }

    #[test]
    fn figure1_set_covers_six_suites() {
        let suites: std::collections::HashSet<_> =
            Benchmark::figure1_set().iter().map(|b| b.suite()).collect();
        assert_eq!(suites.len(), 6);
    }

    #[test]
    fn op_mixes_match_profiles() {
        use cdp_core::UopKind;
        // FP work appears exactly in the fp-profile benchmarks.
        for b in [Benchmark::Quake, Benchmark::ProE] {
            let w = b.build(Scale::smoke(), 2);
            assert!(
                w.program
                    .uops
                    .iter()
                    .any(|u| matches!(u.kind, UopKind::Fp { .. })),
                "{b} must contain FP work"
            );
        }
        for b in [Benchmark::VerilogGate, Benchmark::Tpcc1] {
            let w = b.build(Scale::smoke(), 2);
            assert!(
                !w.program
                    .uops
                    .iter()
                    .any(|u| matches!(u.kind, UopKind::Fp { .. })),
                "{b} is integer-only"
            );
        }
        // Stores appear exactly in the OLTP benchmarks.
        for b in [
            Benchmark::Tpcc1,
            Benchmark::Tpcc2,
            Benchmark::Tpcc3,
            Benchmark::Tpcc4,
        ] {
            assert!(b.build(Scale::smoke(), 2).program.num_stores() > 0, "{b}");
        }
        for b in [Benchmark::VerilogGate, Benchmark::Quake, Benchmark::B2e] {
            assert_eq!(b.build(Scale::smoke(), 2).program.num_stores(), 0, "{b}");
        }
    }

    #[test]
    fn footprints_order_like_table2() {
        // Mapped pages at equal scale must order the workload extremes the
        // way Table 2's footprints do.
        let pages = |b: Benchmark| b.build(Scale::smoke(), 1).space.mapped_pages();
        let gate = pages(Benchmark::VerilogGate);
        let func = pages(Benchmark::VerilogFunc);
        let b2e = pages(Benchmark::B2e);
        assert!(gate > func, "gate {gate} > func {func}");
        assert!(func > b2e * 2, "func {func} >> b2e {b2e}");
    }

    #[test]
    fn low_arena_benchmarks_map_below_16mb() {
        // OLTP tables live in low arenas so the VAM filter bits matter.
        // Which structures a tiny smoke trace touches is seed-dependent, so
        // scan a few seeds: tpcc must hit its hash table on at least one,
        // while the pure-heap benchmark must never map low.
        let touches_low = |b: Benchmark, seed: u64| {
            b.build(Scale::smoke(), seed)
                .program
                .uops
                .iter()
                .filter_map(cdp_core::Uop::vaddr)
                .any(|a| a.0 < 0x0100_0000)
        };
        assert!(
            (1..=8).any(|s| touches_low(Benchmark::Tpcc2, s)),
            "tpcc must touch its low-arena hash table"
        );
        assert!(
            (1..=8).all(|s| !touches_low(Benchmark::VerilogGate, s)),
            "gate has no low-arena structures"
        );
    }

    #[test]
    fn packed_benchmarks_have_sub4_aligned_nodes() {
        // slsb/verilog-func use 2-byte packing (the Figure 8 axis). Which
        // structures a tiny smoke trace touches is seed-dependent, so scan
        // a few seeds.
        let any_packed = (1..=6u64).any(|seed| {
            Benchmark::Slsb
                .build(Scale::smoke(), seed)
                .program
                .uops
                .iter()
                .filter_map(cdp_core::Uop::vaddr)
                .any(|a| a.0 % 4 == 2)
        });
        assert!(any_packed, "slsb must touch 2-byte-aligned fields");
    }

    /// Drains a streaming workload's source to a flat uop vector.
    fn drain_stream(w: &Workload) -> Vec<Uop> {
        let mut source = w.stream.as_ref().expect("streamed workload").make_source();
        let mut all = VecDeque::new();
        while source.fill(&mut all) > 0 {}
        assert!(source.exhausted());
        all.into_iter().collect()
    }

    #[test]
    fn streamed_source_replays_the_materialized_trace() {
        for b in [Benchmark::Tpcc2, Benchmark::Quake, Benchmark::VerilogGate] {
            let mat = b.build_with_engine(Scale::smoke(), 7, false);
            let st = b.build_with_engine(Scale::smoke(), 7, true);
            assert!(st.is_streamed() && st.program.uops.is_empty());
            assert_eq!(drain_stream(&st), mat.program.uops, "{b}");
            // The memory image is byte-identical too (no lazy pages at
            // smoke scale).
            assert_eq!(
                st.space.phys().state_fingerprint(),
                mat.space.phys().state_fingerprint(),
                "{b}"
            );
        }
    }

    #[test]
    fn stream_cursor_roundtrip_resumes_mid_trace() {
        // Bursts can run to ~20 K uops, so give the stream enough budget
        // that a checkpoint after one fill still has plenty left to run.
        let scale = Scale {
            target_uops: 120_000,
            ..Scale::smoke()
        };
        let w = Benchmark::Tpcc1.build_with_engine(scale, 3, true);
        let spec = w.stream.as_ref().unwrap();
        let mut source = spec.make_source();
        let mut prefix = VecDeque::new();
        assert!(source.fill(&mut prefix) > 0);
        let mut enc = cdp_snap::Enc::new();
        source.save_cursor(&mut enc);
        let bytes = enc.into_bytes();

        let mut resumed = spec.make_source();
        let mut dec = cdp_snap::Dec::new(&bytes);
        resumed.restore_cursor(&mut dec).expect("cursor restores");
        let (mut rest_a, mut rest_b) = (VecDeque::new(), VecDeque::new());
        while source.fill(&mut rest_a) > 0 {}
        while resumed.fill(&mut rest_b) > 0 {}
        assert_eq!(rest_a, rest_b, "resumed source continues identically");
        assert!(!rest_a.is_empty());
    }

    #[test]
    fn stream_fingerprint_keys_on_tier_parameters() {
        let at = |scale: Scale, seed: u64| {
            Benchmark::B2e
                .build_with_engine(scale, seed, true)
                .fingerprint()
        };
        let smoke = at(Scale::smoke(), 5);
        assert_eq!(smoke, at(Scale::smoke(), 5), "fingerprint is stable");
        let more_uops = Scale {
            target_uops: Scale::smoke().target_uops * 2,
            ..Scale::smoke()
        };
        assert_ne!(smoke, at(more_uops, 5), "uop budget is part of the key");
        assert_ne!(smoke, at(Scale::smoke(), 6), "seed is part of the key");
        // Footprint divisor changes the image itself *and* the key field.
        let denser = Scale {
            footprint_div: Scale::smoke().footprint_div * 2,
            ..Scale::smoke()
        };
        assert_ne!(smoke, at(denser, 5), "footprint divisor is part of the key");
    }

    #[test]
    fn streamed_workload_validates_and_summarizes() {
        let w = Benchmark::Tpcc2.build_with_engine(Scale::smoke(), 4, true);
        w.check().expect("streamed prefix fully mapped");
        let s = w.summary();
        assert!(s.contains("streaming"), "{s}");
        assert!(s.contains("tpcc-2"), "{s}");
    }

    #[test]
    fn large_tiers_stream_and_synthesize_lazily() {
        // A true large-tier build installs lazy regions for its stride
        // array instead of writing it eagerly, and builds quickly because
        // no trace is materialized.
        let w = Benchmark::Quake.build(Scale::large(), 1);
        assert!(w.is_streamed());
        assert!(
            w.space.phys().lazy_regions() > 0,
            "large tier synthesizes the array lazily"
        );
        assert_eq!(w.stream.as_ref().unwrap().target_uops(), 100_000_000);
        w.check().expect("large-tier prefix fully mapped");
    }

    #[test]
    fn scale_streaming_predicate_and_toggle() {
        // The toggle is process-wide, so every `!streamed()` assertion
        // lives in this one test (others pass the engine explicitly and
        // never read the toggle).
        assert!(Scale::large().streamed());
        assert!(Scale::huge().streamed());
        assert!(!Scale::smoke().streamed());
        assert!(!Scale::full().streamed());
        set_force_streaming(true);
        let forced = Scale::smoke().streamed();
        set_force_streaming(false);
        assert!(forced, "force-streaming covers small scales");
        assert!(!Scale::smoke().streamed());
    }

    #[test]
    fn quake_emits_fp_and_tpcc_emits_stores() {
        let quake = Benchmark::Quake.build(Scale::smoke(), 1);
        let has_fp = quake
            .program
            .uops
            .iter()
            .any(|u| matches!(u.kind, cdp_core::UopKind::Fp { .. }));
        assert!(has_fp);
        let tpcc = Benchmark::Tpcc1.build(Scale::smoke(), 1);
        assert!(tpcc.program.num_stores() > 0);
    }
}
