//! System configuration.
//!
//! [`SystemConfig::asplos2002`] reproduces Table 1 of the paper (the 4-GHz
//! configuration) plus the tuned prefetcher parameters established in §4:
//! 8 compare bits, 4 filter bits, 1 alignment bit, 2-byte scan step, depth
//! threshold 3, path reinforcement on, and 0 previous / 3 next lines.

use core::fmt;

/// Parameters of the out-of-order core (Table 1, "Processor" block).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Uops fetched per cycle (Table 1: 3).
    pub fetch_width: usize,
    /// Uops issued to functional units per cycle (Table 1: 3).
    pub issue_width: usize,
    /// Uops retired per cycle (Table 1: 3).
    pub retire_width: usize,
    /// Branch misprediction penalty in cycles (Table 1: 28).
    pub mispredict_penalty: u64,
    /// Reorder buffer entries (Table 1: 128).
    pub rob_size: usize,
    /// Store buffer entries (Table 1: 32).
    pub store_buffer: usize,
    /// Load buffer entries (Table 1: 48).
    pub load_buffer: usize,
    /// Integer functional units (Table 1: 3).
    pub int_units: usize,
    /// Memory ports (Table 1: 2).
    pub mem_units: usize,
    /// Floating-point units (Table 1: 1).
    pub fp_units: usize,
    /// log2 of gshare pattern-history-table entries (Table 1: 16 K = 2^14).
    pub gshare_log2_entries: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 3,
            issue_width: 3,
            retire_width: 3,
            mispredict_penalty: 28,
            rob_size: 128,
            store_buffer: 32,
            load_buffer: 48,
            int_units: 3,
            mem_units: 2,
            fp_units: 1,
            gshare_log2_entries: 14,
        }
    }
}

/// Cache replacement policy.
///
/// The paper's caches are LRU (its Markov STAB explicitly so); the other
/// policies support sensitivity studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (the paper's configuration).
    #[default]
    Lru,
    /// First-in first-out (insertion order, untouched by hits).
    Fifo,
    /// Pseudo-random (deterministic xorshift, seeded per cache).
    Random,
}

/// Parameters of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Set associativity.
    pub associativity: usize,
    /// Line size in bytes (64 throughout the paper).
    pub line_size: usize,
    /// Load-to-use latency of this level in cycles.
    pub latency: u64,
    /// Victim selection policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Number of sets implied by size / associativity / line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is not a power of
    /// two (checked at cache construction).
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.associativity * self.line_size)
    }

    /// The paper's 32 KB, 8-way, 3-cycle L1 data cache.
    pub fn l1d_asplos2002() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            associativity: 8,
            line_size: crate::LINE_SIZE,
            latency: 3,
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// The paper's 1 MB, 8-way, 16-cycle unified L2.
    pub fn ul2_asplos2002() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            associativity: 8,
            line_size: crate::LINE_SIZE,
            latency: 16,
            replacement: ReplacementPolicy::Lru,
        }
    }
}

/// TLB geometry (Table 1: DTLB 64-entry 4-way, ITLB 128-entry "128-way",
/// i.e. fully associative).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (== `entries` for fully associative).
    pub associativity: usize,
}

impl TlbConfig {
    /// The paper's 64-entry, 4-way data TLB.
    pub fn dtlb_asplos2002() -> Self {
        TlbConfig {
            entries: 64,
            associativity: 4,
        }
    }

    /// The paper's 128-entry, fully-associative instruction TLB.
    pub fn itlb_asplos2002() -> Self {
        TlbConfig {
            entries: 128,
            associativity: 128,
        }
    }
}

/// Bus / DRAM parameters (Table 1, "Busses" block).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BusConfig {
    /// Round-trip latency of an L2-miss to DRAM in processor cycles
    /// (Table 1: 460 = 240 chipset + 220 DRAM).
    pub latency: u64,
    /// Processor cycles of bus occupancy per 64-byte line transfer.
    /// Table 1: 4.26 GB/s at 4 GHz -> 64 B / 4.26 GB/s = 15 ns = 60 cycles.
    pub cycles_per_line: u64,
    /// Bus queue entries (Table 1: 32).
    pub queue_size: usize,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            latency: 460,
            cycles_per_line: 60,
            queue_size: 32,
        }
    }
}

/// Arbiter queue sizing (Table 1: L2 queue 128 entries; bus queue is in
/// [`BusConfig`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArbiterConfig {
    /// L2 request queue entries.
    pub l2_queue_size: usize,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig { l2_queue_size: 128 }
    }
}

/// The virtual-address-matching heuristic knobs (§3.3, Figures 2, 7, 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VamConfig {
    /// Upper bits of the candidate that must equal the trigger effective
    /// address ("compare bits", N). Paper's tuned value: 8.
    pub compare_bits: u32,
    /// Bits immediately below the compare bits that rescue candidates in the
    /// all-zeros / all-ones regions ("filter bits", M). Paper: 4.
    pub filter_bits: u32,
    /// Low-order bits of a candidate that must be zero ("align bits").
    /// Paper: 1 (2-byte alignment).
    pub align_bits: u32,
    /// Bytes stepped between successive scan positions. Paper: 2.
    pub scan_step: usize,
}

impl VamConfig {
    /// The paper's tuned configuration: 8 compare bits, 4 filter bits,
    /// 1 align bit, 2-byte scan step ("8.4.1.2" in Figure 8).
    pub fn tuned() -> Self {
        VamConfig {
            compare_bits: 8,
            filter_bits: 4,
            align_bits: 1,
            scan_step: 2,
        }
    }

    /// Short "N.M.A.S" label used in Figures 7 and 8 (e.g. `8.4.1.2`).
    pub fn label(&self) -> String {
        format!(
            "{}.{}.{}.{}",
            self.compare_bits, self.filter_bits, self.align_bits, self.scan_step
        )
    }
}

impl Default for VamConfig {
    fn default() -> Self {
        VamConfig::tuned()
    }
}

/// Content-directed prefetcher configuration (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContentConfig {
    /// Pointer-recognition heuristic.
    pub vam: VamConfig,
    /// Prefetch chains deeper than this are dropped (§3.4.1). Paper's best:
    /// 3 with reinforcement.
    pub depth_threshold: u8,
    /// Whether the feedback-directed path-reinforcement mechanism (§3.4.2)
    /// is enabled (stores depth bits per L2 line and rescans on demand hit).
    pub reinforcement: bool,
    /// Rescan only when the incoming depth is at least this much smaller
    /// than the stored depth (Figure 4(c) shows margin 2 halving rescans).
    /// The basic reinforcement of Figure 4(b) is margin 1.
    pub reinforcement_margin: u8,
    /// Cache lines *before* the candidate line also prefetched (Figure 9's
    /// "p" axis). Paper's best: 0.
    pub prev_lines: u32,
    /// Cache lines *after* the candidate line also prefetched (Figure 9's
    /// "n" axis, "next-line" width). Paper's best: 3.
    pub next_lines: u32,
}

impl ContentConfig {
    /// The paper's best configuration: depth threshold 3, reinforcement on,
    /// p0.n3 (§4.2.1: 12.6% speedup).
    pub fn tuned() -> Self {
        ContentConfig {
            vam: VamConfig::tuned(),
            depth_threshold: 3,
            reinforcement: true,
            reinforcement_margin: 1,
            prev_lines: 0,
            next_lines: 3,
        }
    }

    /// The stateless variant: no reinforcement bits in the cache
    /// (§1: 11.3% speedup "using no additional processor state").
    /// Uses a deeper threshold because, without reinforcement, longer chains
    /// perform better (Figure 9's "nr" curves).
    pub fn stateless() -> Self {
        ContentConfig {
            reinforcement: false,
            depth_threshold: 9,
            ..ContentConfig::tuned()
        }
    }
}

impl Default for ContentConfig {
    fn default() -> Self {
        ContentConfig::tuned()
    }
}

/// Stride prefetcher (reference prediction table) configuration.
///
/// The paper only states that the baseline includes a "hardware stride
/// prefetcher" that monitors L1 miss traffic (§3.5); we use a classic
/// PC-indexed reference-prediction table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrideConfig {
    /// Number of table entries.
    pub entries: usize,
    /// How many strides ahead to prefetch once a steady stride is locked.
    pub degree: u32,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig {
            entries: 256,
            degree: 6,
        }
    }
}

/// Stream-buffer prefetcher configuration (Jouppi, the paper's
/// reference \[11\]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of concurrent streams (Jouppi used 4).
    pub streams: usize,
    /// Lines each stream runs ahead of its last-confirmed miss.
    pub depth: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            streams: 4,
            depth: 4,
        }
    }
}

/// Run-time adaptive-heuristic controller settings (§4.1 future work):
/// every `window` issued content prefetches, the controller evaluates the
/// window's accuracy and nudges one VAM/width knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Issued-prefetch window between adjustments.
    pub window: u64,
    /// Get conservative below this useful/issued ratio.
    pub low_water: f64,
    /// Get aggressive above this ratio.
    pub high_water: f64,
    /// Width never exceeds this.
    pub max_next_lines: u32,
    /// Compare bits stay within `[min_compare_bits, max_compare_bits]`.
    pub min_compare_bits: u32,
    /// Upper compare-bit bound.
    pub max_compare_bits: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 512,
            low_water: 0.20,
            high_water: 0.45,
            max_next_lines: 4,
            min_compare_bits: 8,
            max_compare_bits: 12,
        }
    }
}

/// Markov prefetcher configuration (§5, Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarkovConfig {
    /// State-transition-table capacity in bytes (Table 3: 512 KB or 128 KB;
    /// `usize::MAX` models the unbounded `markov_big` configuration).
    pub stab_bytes: usize,
    /// STAB associativity (Table 3: 16-way).
    pub associativity: usize,
    /// Successors stored (and prefetched) per miss address ("fan out of
    /// four").
    pub fanout: usize,
}

impl MarkovConfig {
    /// Approximate bytes consumed by one STAB entry: a 4-byte tag plus
    /// `fanout` 4-byte successor line addresses.
    pub fn entry_bytes(&self) -> usize {
        4 + 4 * self.fanout
    }

    /// Entries that fit in the byte budget (at least one set's worth).
    pub fn num_entries(&self) -> usize {
        if self.stab_bytes == usize::MAX {
            // markov_big: effectively unbounded.
            1 << 24
        } else {
            (self.stab_bytes / self.entry_bytes()).max(self.associativity)
        }
    }

    /// Table 3's 512 KB configuration (paired with a 512 KB UL2).
    pub fn half() -> Self {
        MarkovConfig {
            stab_bytes: 512 * 1024,
            associativity: 16,
            fanout: 4,
        }
    }

    /// Table 3's 128 KB configuration (paired with an 896 KB UL2).
    pub fn eighth() -> Self {
        MarkovConfig {
            stab_bytes: 128 * 1024,
            associativity: 16,
            fanout: 4,
        }
    }

    /// The unbounded `markov_big` configuration (full 1 MB UL2 retained).
    pub fn unbounded() -> Self {
        MarkovConfig {
            stab_bytes: usize::MAX,
            associativity: 16,
            fanout: 4,
        }
    }
}

/// Key space of the delta-Markov prefetcher's transition table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeltaKeySpace {
    /// Keys are absolute miss-line addresses. With `history == 1` this
    /// degenerates to the classic 1-history Markov STAB and must produce
    /// the exact same prediction stream (the differential-test anchor).
    Address,
    /// Keys are recent line *deltas* (Pangloss, arXiv 1906.00877): the
    /// table correlates delta history with the next delta, which compacts
    /// regular non-unit-stride and mixed patterns into far fewer entries
    /// than absolute addresses need.
    #[default]
    Delta,
}

/// Delta-space Markov prefetcher configuration (the Pangloss-style
/// tournament comparator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaConfig {
    /// Transition-table capacity in bytes (the engine's silicon budget).
    pub table_bytes: usize,
    /// Table associativity.
    pub associativity: usize,
    /// Successor slots stored (and prefetched) per key.
    pub fanout: usize,
    /// Delta-history depth of the key (1 = first-order chain).
    pub history: usize,
    /// Whether keys are absolute addresses or delta history.
    pub key_space: DeltaKeySpace,
}

impl DeltaConfig {
    /// Bytes consumed by one table entry.
    ///
    /// Address keys cost a 4-byte line tag plus `fanout` 4-byte successor
    /// lines (identical to [`MarkovConfig::entry_bytes`], so equal byte
    /// budgets mean equal entry counts in the compat configuration).
    /// Delta keys are compact: 2 bytes per history slot plus 3 bytes
    /// (2-byte delta + 1-byte confidence) per successor.
    pub fn entry_bytes(&self) -> usize {
        match self.key_space {
            DeltaKeySpace::Address => 4 + 4 * self.fanout,
            DeltaKeySpace::Delta => 2 * self.history.max(1) + 3 * self.fanout,
        }
    }

    /// Entries that fit in the byte budget (at least one set's worth).
    pub fn num_entries(&self) -> usize {
        (self.table_bytes / self.entry_bytes()).max(self.associativity)
    }

    /// A Pangloss-style delta-space configuration at `table_bytes`.
    pub fn pangloss(table_bytes: usize) -> Self {
        DeltaConfig {
            table_bytes,
            associativity: 16,
            fanout: 4,
            history: 2,
            key_space: DeltaKeySpace::Delta,
        }
    }
}

/// The §5 STAB as a delta table: address-keyed, history 1, with the same
/// entry count as [`MarkovConfig::num_entries`] (the unbounded
/// `markov_big` configuration included).
impl From<MarkovConfig> for DeltaConfig {
    fn from(m: MarkovConfig) -> Self {
        DeltaConfig {
            table_bytes: m.num_entries().saturating_mul(m.entry_bytes()),
            associativity: m.associativity,
            fanout: m.fanout,
            history: 1,
            key_space: DeltaKeySpace::Address,
        }
    }
}

/// Number of hashed feature tables the perceptron filter combines
/// (line, page, and originating-engine features).
pub const PERCEPTRON_FEATURES: usize = 3;

/// Perceptron prefetch-confidence filter configuration (arXiv 1712.00905):
/// gates any engine's issue stream on a learned accuracy estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerceptronConfig {
    /// Weight rows per feature table ([`PERCEPTRON_FEATURES`] tables of
    /// signed-byte weights; not required to be a power of two, so byte
    /// budgets can be matched exactly).
    pub entries_per_feature: usize,
    /// Issue a prefetch when the summed weights reach this value.
    pub threshold: i32,
    /// Recently-rejected line tags kept to detect false negatives: a
    /// demand miss on a rejected line trains the filter back up.
    pub reject_entries: usize,
}

impl PerceptronConfig {
    /// Total table storage in bytes: one signed byte per weight plus a
    /// 4-byte tag per reject-buffer slot.
    pub fn table_bytes(&self) -> usize {
        PERCEPTRON_FEATURES * self.entries_per_feature + 4 * self.reject_entries
    }

    /// Smallest meaningful geometry (one weight row per feature, no
    /// reject buffer).
    pub const MIN_BYTES: usize = PERCEPTRON_FEATURES;

    /// Sizes the weight tables to land exactly on `budget` bytes
    /// (64-slot reject buffer, remainder split across the feature
    /// tables). Returns `None` when the budget cannot hold the minimum
    /// geometry.
    pub fn with_budget(budget: usize) -> Option<Self> {
        let reject_entries = if budget >= 512 { 64 } else { 0 };
        let weight_bytes = budget.checked_sub(4 * reject_entries)?;
        let entries_per_feature = weight_bytes / PERCEPTRON_FEATURES;
        if entries_per_feature == 0 {
            return None;
        }
        Some(PerceptronConfig {
            entries_per_feature,
            threshold: 0,
            reject_entries,
        })
    }
}

impl Default for PerceptronConfig {
    fn default() -> Self {
        PerceptronConfig {
            entries_per_feature: 1024,
            threshold: 0,
            reject_entries: 64,
        }
    }
}

/// Pointer-chase / jump-pointer prefetcher configuration: learns
/// node-to-node jump targets of linked traversals and chases them ahead
/// of the demand stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JumpConfig {
    /// Jump-table capacity in bytes (the engine's silicon budget).
    pub table_bytes: usize,
    /// Jump-table associativity.
    pub associativity: usize,
    /// Hops chased through the table per triggering miss.
    pub chase_depth: u32,
    /// Pointer-recognition heuristic used when harvesting jump targets
    /// from filled lines.
    pub vam: VamConfig,
}

impl JumpConfig {
    /// Bytes per jump-table entry: 4-byte node-line tag + 4-byte target.
    pub fn entry_bytes(&self) -> usize {
        8
    }

    /// Entries that fit in the byte budget (at least one set's worth).
    pub fn num_entries(&self) -> usize {
        (self.table_bytes / self.entry_bytes()).max(self.associativity)
    }

    /// A jump-pointer table at `table_bytes` with depth-2 chasing.
    pub fn sized(table_bytes: usize) -> Self {
        JumpConfig {
            table_bytes,
            associativity: 8,
            chase_depth: 2,
            vam: VamConfig::tuned(),
        }
    }
}

/// Which prefetchers are plugged into the memory system.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PrefetchersConfig {
    /// The baseline stride prefetcher. `None` disables it (used only for
    /// sanity experiments; every paper number keeps it on).
    pub stride: Option<StrideConfig>,
    /// The content-directed prefetcher.
    pub content: Option<ContentConfig>,
    /// The Markov prefetcher (§5 comparison only).
    pub markov: Option<MarkovConfig>,
    /// Jouppi stream buffers (optional second baseline; the paper's
    /// reference \[11\]).
    pub stream: Option<StreamConfig>,
    /// Run-time adaptation of the content prefetcher's knobs (requires
    /// `content`; §4.1 future work).
    pub adaptive: Option<AdaptiveConfig>,
    /// The delta-space Markov prefetcher (tournament comparator).
    pub delta: Option<DeltaConfig>,
    /// The pointer-chase/jump-pointer prefetcher (tournament comparator).
    pub jump: Option<JumpConfig>,
    /// Perceptron confidence filter gating every engine's issue stream.
    pub perceptron: Option<PerceptronConfig>,
}

/// Complete system configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub ul2: CacheConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Bus and DRAM.
    pub bus: BusConfig,
    /// Arbiter queue sizes.
    pub arbiters: ArbiterConfig,
    /// Plugged prefetchers.
    pub prefetchers: PrefetchersConfig,
    /// Uops to execute before statistics collection starts (§2.2: the paper
    /// warms up for ~7.5 M uops; runs here are smaller, so this scales).
    pub warmup_uops: u64,
    /// Model dirty-line writebacks: evicting a line a store touched costs
    /// one (low-priority) bus transfer. Off by default — the paper's
    /// evaluation does not isolate writeback traffic, and the headline
    /// calibration was done without it; turn it on for bandwidth studies.
    pub model_writebacks: bool,
}

impl SystemConfig {
    /// The paper's Table 1 baseline: stride prefetcher only.
    pub fn asplos2002() -> Self {
        SystemConfig {
            core: CoreConfig::default(),
            l1d: CacheConfig::l1d_asplos2002(),
            ul2: CacheConfig::ul2_asplos2002(),
            dtlb: TlbConfig::dtlb_asplos2002(),
            bus: BusConfig::default(),
            arbiters: ArbiterConfig::default(),
            prefetchers: PrefetchersConfig {
                stride: Some(StrideConfig::default()),
                ..PrefetchersConfig::default()
            },
            warmup_uops: 0,
            model_writebacks: false,
        }
    }

    /// The baseline plus the tuned content-directed prefetcher.
    pub fn with_content() -> Self {
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.content = Some(ContentConfig::tuned());
        cfg
    }

    /// The baseline with a Markov prefetcher and UL2 shrunk by the STAB's
    /// silicon budget (§5's equal-resource methodology). `ul2_bytes` is the
    /// remaining UL2 capacity (512 KB or 896 KB per Table 3); `assoc` its
    /// associativity (8 and 7 respectively).
    pub fn with_markov(markov: MarkovConfig, ul2_bytes: usize, assoc: usize) -> Self {
        let mut cfg = SystemConfig::asplos2002();
        cfg.ul2.size_bytes = ul2_bytes;
        cfg.ul2.associativity = assoc;
        cfg.prefetchers.markov = Some(markov);
        cfg
    }

    /// The baseline plus a delta-space Markov prefetcher (tournament
    /// comparator; the UL2 keeps its Table 1 geometry — equal-silicon
    /// comparisons hold the *table* budget constant across entrants).
    pub fn with_delta(delta: DeltaConfig) -> Self {
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.delta = Some(delta);
        cfg
    }

    /// The baseline plus a pointer-chase/jump-pointer prefetcher.
    pub fn with_jump(jump: JumpConfig) -> Self {
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.jump = Some(jump);
        cfg
    }

    /// Adds a perceptron confidence filter in front of every configured
    /// engine's issue stream (builder-style, for hybrid configurations).
    #[must_use]
    pub fn gated(mut self, perceptron: PerceptronConfig) -> Self {
        self.prefetchers.perceptron = Some(perceptron);
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::asplos2002()
    }
}

impl fmt::Display for SystemConfig {
    /// Renders the configuration in the layout of the paper's Table 1.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Processor")?;
        writeln!(
            f,
            "  Width                  fetch {}, issue {}, retire {}",
            self.core.fetch_width, self.core.issue_width, self.core.retire_width
        )?;
        writeln!(
            f,
            "  Misprediction Penalty  {} cycles",
            self.core.mispredict_penalty
        )?;
        writeln!(
            f,
            "  Buffer Sizes           reorder {}, store {}, load {}",
            self.core.rob_size, self.core.store_buffer, self.core.load_buffer
        )?;
        writeln!(
            f,
            "  Functional Units       integer {}, memory {}, floating point {}",
            self.core.int_units, self.core.mem_units, self.core.fp_units
        )?;
        writeln!(
            f,
            "  Load-to-use Latencies  L1: {} cycles, L2: {} cycles",
            self.l1d.latency, self.ul2.latency
        )?;
        writeln!(
            f,
            "  Branch Predictor       {}K entry gshare",
            (1usize << self.core.gshare_log2_entries) / 1024
        )?;
        writeln!(f, "Busses")?;
        writeln!(f, "  L2 queue size          {} entries", self.arbiters.l2_queue_size)?;
        writeln!(f, "  Bus latency            {} processor cycles", self.bus.latency)?;
        writeln!(f, "  Bus queue size         {} entries", self.bus.queue_size)?;
        writeln!(
            f,
            "  Bus occupancy          {} cycles / 64B line",
            self.bus.cycles_per_line
        )?;
        writeln!(f, "Caches")?;
        writeln!(
            f,
            "  DTLB                   {} entry, {}-way associative",
            self.dtlb.entries, self.dtlb.associativity
        )?;
        writeln!(
            f,
            "  DL1 Cache              {} Kbytes, {}-way associative",
            self.l1d.size_bytes / 1024,
            self.l1d.associativity
        )?;
        writeln!(
            f,
            "  UL2 Cache              {} Kbytes, {}-way associative",
            self.ul2.size_bytes / 1024,
            self.ul2.associativity
        )?;
        writeln!(f, "  Line Size              {} bytes", self.l1d.line_size)?;
        write!(f, "  Page Size              {} Kbytes", crate::PAGE_SIZE / 1024)
    }
}

/// Bitmask selecting which trace-event categories the tracer records.
///
/// Categories map one-to-one onto the event taxonomy in `cdp-obs`:
/// VAM candidate classification, prefetch issue, prefetch drop, chain
/// depth transitions, reinforcement rescans, MSHR merges, and fault-latch
/// drains. The default selects everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceFilter {
    bits: u16,
}

impl TraceFilter {
    /// VAM candidate accept/reject events.
    pub const VAM: TraceFilter = TraceFilter { bits: 1 };
    /// Prefetch issue events.
    pub const ISSUE: TraceFilter = TraceFilter { bits: 1 << 1 };
    /// Prefetch drop events (resident, in-flight, unmapped, queue-full,
    /// too-deep).
    pub const DROP: TraceFilter = TraceFilter { bits: 1 << 2 };
    /// Chain depth transitions (reinforcement promotions).
    pub const DEPTH: TraceFilter = TraceFilter { bits: 1 << 3 };
    /// Reinforcement rescans.
    pub const RESCAN: TraceFilter = TraceFilter { bits: 1 << 4 };
    /// MSHR merges (demand or prefetch hitting an in-flight line).
    pub const MSHR: TraceFilter = TraceFilter { bits: 1 << 5 };
    /// Fault-latch drains (injected or detected memory faults).
    pub const FAULT: TraceFilter = TraceFilter { bits: 1 << 6 };

    /// Every category enabled.
    #[must_use]
    pub const fn all() -> Self {
        TraceFilter { bits: 0x7f }
    }

    /// No category enabled.
    #[must_use]
    pub const fn none() -> Self {
        TraceFilter { bits: 0 }
    }

    /// Union of two filters.
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        TraceFilter {
            bits: self.bits | other.bits,
        }
    }

    /// True when every category in `other` is enabled in `self`.
    #[must_use]
    pub const fn contains(self, other: Self) -> bool {
        self.bits & other.bits == other.bits
    }

    /// True when no category is enabled.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Parses a comma-separated category list, e.g. `"vam,drop,mshr"`.
    /// `"all"` selects every category.
    ///
    /// # Errors
    ///
    /// Returns the offending token when a category name is unknown.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut filter = TraceFilter::none();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let cat = match tok {
                "all" => TraceFilter::all(),
                "vam" => TraceFilter::VAM,
                "issue" => TraceFilter::ISSUE,
                "drop" => TraceFilter::DROP,
                "depth" => TraceFilter::DEPTH,
                "rescan" => TraceFilter::RESCAN,
                "mshr" => TraceFilter::MSHR,
                "fault" => TraceFilter::FAULT,
                other => {
                    return Err(format!(
                        "unknown trace category {other:?} (expected one of: \
                         all vam issue drop depth rescan mshr fault)"
                    ))
                }
            };
            filter = filter.union(cat);
        }
        if filter.is_empty() {
            return Err("trace filter selects no categories".to_string());
        }
        Ok(filter)
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter::all()
    }
}

impl fmt::Display for TraceFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TraceFilter::all() {
            return write!(f, "all");
        }
        let names = [
            (TraceFilter::VAM, "vam"),
            (TraceFilter::ISSUE, "issue"),
            (TraceFilter::DROP, "drop"),
            (TraceFilter::DEPTH, "depth"),
            (TraceFilter::RESCAN, "rescan"),
            (TraceFilter::MSHR, "mshr"),
            (TraceFilter::FAULT, "fault"),
        ];
        let mut first = true;
        for (cat, name) in names {
            if self.contains(cat) {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Configuration for the ring-buffered event tracer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events; the oldest events are overwritten once the
    /// ring is full.
    pub capacity: usize,
    /// Record every `sample`-th eligible event (1 = record all).
    pub sample: u64,
    /// Which event categories to record.
    pub filter: TraceFilter,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 4096,
            sample: 1,
            filter: TraceFilter::all(),
        }
    }
}

/// Observability settings for a simulation run.
///
/// The default (`trace: None`, `metrics_window: None`) keeps the simulator
/// on its unobserved path: no tracer is installed, no per-window snapshots
/// are taken, and results are byte-identical to a plain run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsConfig {
    /// Event-tracing configuration; `None` disables tracing entirely.
    pub trace: Option<TraceConfig>,
    /// Metrics snapshot window in retired µops; `None` disables the
    /// time-series.
    pub metrics_window: Option<u64>,
    /// Collect latency-attribution histograms (load-to-use latency,
    /// prefetch issue-to-use distance, MSHR occupancy, ROB stall
    /// run-lengths) for the manifest's per-cell `profile` object.
    pub profile_hist: bool,
}

impl ObsConfig {
    /// True when any observability feature is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some() || self.metrics_window.is_some() || self.profile_hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_filter_parse_and_display() {
        assert_eq!(TraceFilter::parse("all").unwrap(), TraceFilter::all());
        let f = TraceFilter::parse("vam, drop").unwrap();
        assert!(f.contains(TraceFilter::VAM));
        assert!(f.contains(TraceFilter::DROP));
        assert!(!f.contains(TraceFilter::ISSUE));
        assert_eq!(f.to_string(), "vam,drop");
        assert_eq!(TraceFilter::all().to_string(), "all");
        assert!(TraceFilter::parse("bogus").is_err());
        assert!(TraceFilter::parse("").is_err());
    }

    #[test]
    fn obs_config_default_is_off() {
        let obs = ObsConfig::default();
        assert!(!obs.is_enabled());
        assert!(ObsConfig {
            trace: Some(TraceConfig::default()),
            ..ObsConfig::default()
        }
        .is_enabled());
        assert!(ObsConfig {
            metrics_window: Some(65_536),
            ..ObsConfig::default()
        }
        .is_enabled());
        assert!(ObsConfig {
            profile_hist: true,
            ..ObsConfig::default()
        }
        .is_enabled());
        assert_eq!(TraceConfig::default().capacity, 4096);
        assert_eq!(TraceConfig::default().sample, 1);
    }

    #[test]
    fn table1_values() {
        let cfg = SystemConfig::asplos2002();
        assert_eq!(cfg.core.fetch_width, 3);
        assert_eq!(cfg.core.mispredict_penalty, 28);
        assert_eq!(cfg.core.rob_size, 128);
        assert_eq!(cfg.core.store_buffer, 32);
        assert_eq!(cfg.core.load_buffer, 48);
        assert_eq!(cfg.l1d.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1d.latency, 3);
        assert_eq!(cfg.ul2.size_bytes, 1024 * 1024);
        assert_eq!(cfg.ul2.latency, 16);
        assert_eq!(cfg.dtlb.entries, 64);
        assert_eq!(cfg.bus.latency, 460);
        assert_eq!(cfg.bus.queue_size, 32);
        assert_eq!(cfg.arbiters.l2_queue_size, 128);
        assert!(cfg.prefetchers.stride.is_some());
        assert!(cfg.prefetchers.content.is_none());
    }

    #[test]
    fn cache_geometry() {
        let l1 = CacheConfig::l1d_asplos2002();
        assert_eq!(l1.num_sets(), 64);
        let l2 = CacheConfig::ul2_asplos2002();
        assert_eq!(l2.num_sets(), 2048);
    }

    #[test]
    fn vam_tuned_label() {
        assert_eq!(VamConfig::tuned().label(), "8.4.1.2");
    }

    #[test]
    fn content_tuned_matches_paper() {
        let c = ContentConfig::tuned();
        assert_eq!(c.depth_threshold, 3);
        assert!(c.reinforcement);
        assert_eq!(c.prev_lines, 0);
        assert_eq!(c.next_lines, 3);
        let s = ContentConfig::stateless();
        assert!(!s.reinforcement);
        assert_eq!(s.depth_threshold, 9);
    }

    #[test]
    fn markov_budgets() {
        let half = MarkovConfig::half();
        assert_eq!(half.entry_bytes(), 20);
        assert_eq!(half.num_entries(), 512 * 1024 / 20);
        assert!(MarkovConfig::unbounded().num_entries() >= 1 << 24);
    }

    #[test]
    fn delta_budgets() {
        for m in [
            MarkovConfig::half(),
            MarkovConfig::eighth(),
            MarkovConfig::unbounded(),
            MarkovConfig {
                stab_bytes: 100,
                associativity: 16,
                fanout: 2,
            },
        ] {
            let stab = DeltaConfig::from(m);
            assert_eq!(stab.entry_bytes(), m.entry_bytes(), "{m:?}");
            assert_eq!(stab.num_entries(), m.num_entries(), "{m:?}");
        }
        let pangloss = DeltaConfig::pangloss(64 * 1024);
        // 2B/history-slot * 2 + 3B/successor * 4 = 16 bytes.
        assert_eq!(pangloss.entry_bytes(), 16);
        assert_eq!(pangloss.num_entries(), 64 * 1024 / 16);
    }

    #[test]
    fn perceptron_budget_is_exact() {
        for budget in [PERCEPTRON_FEATURES, 333, 512, 16 * 1024, 64 * 1024] {
            let p = PerceptronConfig::with_budget(budget).unwrap();
            assert!(p.table_bytes() <= budget, "{budget}");
            // Exact up to integer division across the feature tables.
            assert!(budget - p.table_bytes() < PERCEPTRON_FEATURES, "{budget}");
        }
        assert!(PerceptronConfig::with_budget(0).is_none());
        assert!(PerceptronConfig::with_budget(PERCEPTRON_FEATURES - 1).is_none());
    }

    #[test]
    fn jump_budgets() {
        let j = JumpConfig::sized(32 * 1024);
        assert_eq!(j.entry_bytes(), 8);
        assert_eq!(j.num_entries(), 4096);
    }

    #[test]
    fn zoo_system_constructors() {
        let d = SystemConfig::with_delta(DeltaConfig::pangloss(64 * 1024));
        assert!(d.prefetchers.delta.is_some());
        assert_eq!(d.ul2.size_bytes, 1024 * 1024);
        let j = SystemConfig::with_jump(JumpConfig::sized(64 * 1024));
        assert!(j.prefetchers.jump.is_some());
        let g = SystemConfig::with_content().gated(PerceptronConfig::default());
        assert!(g.prefetchers.perceptron.is_some());
        assert!(g.prefetchers.content.is_some());
    }

    #[test]
    fn markov_system_shrinks_ul2() {
        let cfg = SystemConfig::with_markov(MarkovConfig::eighth(), 896 * 1024, 7);
        assert_eq!(cfg.ul2.size_bytes, 896 * 1024);
        assert_eq!(cfg.ul2.associativity, 7);
        assert!(cfg.prefetchers.markov.is_some());
    }

    #[test]
    fn display_contains_table1_rows() {
        let s = SystemConfig::asplos2002().to_string();
        assert!(s.contains("fetch 3, issue 3, retire 3"));
        assert!(s.contains("28 cycles"));
        assert!(s.contains("460 processor cycles"));
        assert!(s.contains("1024 Kbytes, 8-way"));
    }
}
