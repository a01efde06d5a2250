//! Deterministic, seeded fault injection for robustness studies.
//!
//! The paper's safety story is that the content prefetcher treats memory
//! as untrusted input: anything that merely *looks* like a pointer may be
//! scanned, and a candidate that fails translation is squashed, never
//! faulted (§3.5). This module turns that property into something the
//! test suite can exercise on purpose:
//!
//! * **corrupt** — overwrite live pointer words in a workload image with
//!   wild (untranslatable) values. Demand traffic is untouched (trace
//!   addresses are precomputed), so a correct prefetcher completes the
//!   run and accounts the garbage as unmapped drops.
//! * **unmap** — clear the present bit of pages the trace actually
//!   touches. The *demand* path now faults, which must surface as a typed
//!   [`CdpError::UnmappedAccess`], not a panic.
//! * **walk** — force every Nth hardware page walk to fail (a TLB-walk
//!   fault). Prefetch walks are squashed; demand walks (opt-in) surface
//!   [`CdpError::TranslationFailure`].
//!
//! All injection is seeded and deterministic: the same [`FaultSpec`]
//! applied to the same image perturbs the same words/pages, so faulted
//! experiment runs stay byte-identical at any job count.

use cdp_types::rng::Rng;
use cdp_types::{PageNum, VirtAddr, WORD_SIZE};
use cdp_workloads::suite::Benchmark;
use cdp_workloads::Workload;

#[cfg(doc)]
use cdp_types::CdpError;

/// Injected page-walk failure policy (consumed by the hierarchy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkFault {
    /// Every `period`-th eligible walk fails (0 disables injection).
    pub period: u64,
    /// Whether demand walks are eligible too. When false only
    /// prefetch-candidate walks fail — the squash-only regime.
    pub demand: bool,
}

/// What one fault specification does to its matching benchmarks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite `words` live pointer words with untranslatable values.
    CorruptPointers {
        /// How many words to corrupt.
        words: u32,
    },
    /// Unmap `pages` distinct pages touched by the demand trace.
    UnmapPages {
        /// How many pages to unmap.
        pages: u32,
    },
    /// Force every `period`-th hardware page walk to fail.
    WalkFailures {
        /// The injection period.
        period: u64,
        /// Whether demand walks fail too (otherwise prefetch-only).
        demand: bool,
    },
}

/// One parsed fault directive: what to do, to which benchmark, and with
/// which seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Benchmark name the fault applies to (`None` = every benchmark).
    pub bench: Option<String>,
    /// Seed for the injection RNG (site selection).
    pub seed: u64,
    /// The fault itself.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Parses a CLI fault directive:
    ///
    /// * `corrupt:<bench>:<seed>[:<words>]` — corrupt pointer words
    ///   (default 16);
    /// * `unmap:<bench>:<seed>[:<pages>]` — unmap trace pages
    ///   (default 1);
    /// * `walk:<bench>:<period>[:demand]` — periodic walk failures,
    ///   prefetch-only unless `demand` is given.
    ///
    /// `<bench>` is a Table 2 benchmark name or `*` for all. An unknown
    /// name, or a count that does not fit in a `u32`, is an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformed directive.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 3 {
            return Err(format!("fault spec '{s}' needs at least kind:bench:value"));
        }
        let bench = match parts[1] {
            "*" => None,
            name if Benchmark::from_name(name).is_some() => Some(name.to_string()),
            name => return Err(format!("fault spec '{s}': unknown benchmark '{name}'")),
        };
        let num = |p: &str, what: &str| -> Result<u64, String> {
            p.parse::<u64>()
                .map_err(|_| format!("fault spec '{s}': bad {what} '{p}'"))
        };
        let kind = match parts[0] {
            "corrupt" | "unmap" => {
                if parts.len() > 4 {
                    return Err(format!("fault spec '{s}' has too many fields"));
                }
                let count = match parts.get(3) {
                    Some(p) => u32::try_from(num(p, "count")?).map_err(|_| {
                        format!("fault spec '{s}': count '{p}' exceeds {}", u32::MAX)
                    })?,
                    None => 0,
                };
                if parts[0] == "corrupt" {
                    FaultKind::CorruptPointers {
                        words: if count == 0 { 16 } else { count },
                    }
                } else {
                    FaultKind::UnmapPages {
                        pages: if count == 0 { 1 } else { count },
                    }
                }
            }
            "walk" => {
                let demand = match parts.get(3) {
                    None => false,
                    Some(&"demand") => true,
                    Some(other) => {
                        return Err(format!(
                            "fault spec '{s}': expected 'demand', got '{other}'"
                        ))
                    }
                };
                FaultKind::WalkFailures {
                    period: num(parts[2], "period")?.max(1),
                    demand,
                }
            }
            other => return Err(format!("unknown fault kind '{other}' in '{s}'")),
        };
        let seed = match kind {
            // Walk faults carry no RNG; the period field replaces the seed.
            FaultKind::WalkFailures { .. } => 0,
            _ => num(parts[2], "seed")?,
        };
        Ok(FaultSpec { bench, seed, kind })
    }

    /// Whether this spec targets `bench`.
    pub fn matches(&self, bench: &str) -> bool {
        self.bench.as_deref().is_none_or(|b| b == bench)
    }
}

/// A set of fault directives applied together.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The directives, in CLI order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Applies every matching image fault (corrupt / unmap) to `w`,
    /// returning how many sites were perturbed. Walk faults are not
    /// image faults; fetch them with [`FaultPlan::walk_fault`].
    pub fn apply(&self, bench: &str, w: &mut Workload) -> u32 {
        let mut applied = 0;
        for spec in self.specs.iter().filter(|s| s.matches(bench)) {
            applied += match spec.kind {
                FaultKind::CorruptPointers { words } => corrupt_pointer_words(w, spec.seed, words),
                FaultKind::UnmapPages { pages } => unmap_trace_pages(w, spec.seed, pages),
                FaultKind::WalkFailures { .. } => 0,
            };
        }
        applied
    }

    /// The walk-fault policy for `bench`, if any directive sets one
    /// (first match wins).
    pub fn walk_fault(&self, bench: &str) -> Option<WalkFault> {
        self.specs.iter().find_map(|s| match s.kind {
            FaultKind::WalkFailures { period, demand } if s.matches(bench) => {
                Some(WalkFault { period, demand })
            }
            _ => None,
        })
    }
}

/// Overwrites up to `words` live pointer words in `w`'s image with wild,
/// untranslatable values (seeded site selection). Returns how many words
/// were actually corrupted; an image with no live pointers yields 0.
pub fn corrupt_pointer_words(w: &mut Workload, seed: u64, words: u32) -> u32 {
    let pages = w.space.mapped_page_numbers();
    if pages.is_empty() {
        return 0;
    }
    // Domain-separate the corrupt stream from the unmap stream so one
    // seed drives independent site selections.
    let mut rng = Rng::seed_from_u64(seed ^ 0xfa17_0000_0000_0001);
    let mut corrupted = 0;
    // Bounded search: most workload words are not pointers, so allow a
    // generous number of probes per requested corruption.
    for _ in 0..words.saturating_mul(64) {
        if corrupted >= words {
            break;
        }
        let page = pages[rng.gen_range_usize(0..pages.len())];
        let offset =
            rng.gen_range_u32(0..(cdp_types::PAGE_SIZE / WORD_SIZE) as u32) * WORD_SIZE as u32;
        let va = VirtAddr(page.base().0 + offset);
        let value = w.space.read_u32(va);
        if value == 0 || w.space.translate(VirtAddr(value)).is_none() {
            continue; // not a live pointer
        }
        // A wild value in an unmapped region; keep low bits so it still
        // looks plausibly pointer-like to the VAM compare heuristic.
        let wild = 0x6bad_0000 | (value & 0xfffc);
        if w.space.translate(VirtAddr(wild)).is_some() {
            continue; // the wild region is mapped in this image; skip
        }
        w.space.write_u32(va, wild);
        corrupted += 1;
    }
    corrupted
}

/// Unmaps up to `pages` distinct pages that `w`'s demand trace actually
/// touches (seeded selection), guaranteeing the demand path will fault.
/// Returns how many pages were unmapped.
pub fn unmap_trace_pages(w: &mut Workload, seed: u64, pages: u32) -> u32 {
    let mut touched: Vec<PageNum> = Vec::new();
    let note = |u: &cdp_core::Uop, touched: &mut Vec<PageNum>| {
        if let Some(a) = u.vaddr() {
            if !touched.contains(&a.page()) {
                touched.push(a.page());
            }
        }
    };
    match &w.stream {
        // A streamed workload has no materialized trace to scan; walk a
        // bounded prefix of a fresh generator cursor instead. The prefix
        // is O(window) resident and the pages it touches are guaranteed
        // demand traffic, which is all the unmap fault needs.
        Some(spec) => {
            const FAULT_SCAN_UOPS: usize = 262_144;
            let mut src = spec.make_source();
            let mut buf = std::collections::VecDeque::new();
            let mut scanned = 0usize;
            while scanned < FAULT_SCAN_UOPS {
                let n = src.fill(&mut buf);
                if n == 0 {
                    break;
                }
                scanned += n;
                for u in buf.drain(..) {
                    note(&u, &mut touched);
                }
            }
        }
        None => {
            for u in &w.program.uops {
                note(u, &mut touched);
            }
        }
    }
    if touched.is_empty() {
        return 0;
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0xfa17_0000_0000_0002);
    let mut unmapped = 0;
    for _ in 0..pages {
        if touched.is_empty() {
            break;
        }
        let idx = rng.gen_range_usize(0..touched.len());
        let page = touched.swap_remove(idx);
        if w.space.unmap(page) {
            unmapped += 1;
        }
    }
    unmapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::DEFAULT_SEED;
    use crate::system::Simulator;
    use cdp_types::{CdpError, SystemConfig};
    use cdp_workloads::suite::{Benchmark, Scale};

    fn slsb() -> Workload {
        Benchmark::Slsb.build(Scale::smoke(), DEFAULT_SEED)
    }

    #[test]
    fn parse_all_kinds() {
        assert_eq!(
            FaultSpec::parse("corrupt:slsb:7").unwrap(),
            FaultSpec {
                bench: Some("slsb".into()),
                seed: 7,
                kind: FaultKind::CorruptPointers { words: 16 },
            }
        );
        assert_eq!(
            FaultSpec::parse("unmap:*:9:3").unwrap().kind,
            FaultKind::UnmapPages { pages: 3 }
        );
        let w = FaultSpec::parse("walk:tpcc-2:500:demand").unwrap();
        assert_eq!(
            w.kind,
            FaultKind::WalkFailures {
                period: 500,
                demand: true
            }
        );
        assert!(w.matches("tpcc-2") && !w.matches("slsb"));
        assert!(FaultSpec::parse("corrupt:slsb").is_err());
        assert!(FaultSpec::parse("melt:slsb:1").is_err());
        assert!(FaultSpec::parse("walk:slsb:1:always").is_err());
        assert!(FaultSpec::parse("corrupt:slsb:x").is_err());
        assert!(FaultSpec::parse("unmap:b2f:7:2").is_err());
        assert!(FaultSpec::parse("unmap:b2e:7:4294967296").is_err());
        assert_eq!(
            FaultSpec::parse("unmap:b2e:7:4294967295").unwrap().kind,
            FaultKind::UnmapPages { pages: u32::MAX }
        );
    }

    #[test]
    fn corruption_is_deterministic_and_hits_live_pointers() {
        let mut a = slsb();
        let mut b = slsb();
        let na = corrupt_pointer_words(&mut a, 11, 24);
        let nb = corrupt_pointer_words(&mut b, 11, 24);
        assert!(na > 0, "a pointer-chasing image has live pointers");
        assert_eq!(na, nb);
        // Same seed, same image -> identical corrupted bytes everywhere.
        for page in a.space.mapped_page_numbers() {
            let base = page.base();
            for w in 0..(cdp_types::PAGE_SIZE / WORD_SIZE) as u32 {
                let va = VirtAddr(base.0 + w * WORD_SIZE as u32);
                assert_eq!(a.space.read_u32(va), b.space.read_u32(va));
            }
        }
    }

    #[test]
    fn vam_scanning_squashes_corrupted_pointers_instead_of_crashing() {
        let mut w = slsb();
        let clean = Simulator::new(SystemConfig::with_content()).run(&w);
        let n = corrupt_pointer_words(&mut w, 3, 64);
        assert!(n > 0);
        // The demand trace is untouched, so the run must complete with
        // the same retired count; the garbage pointers are squashed.
        let dirty = Simulator::new(SystemConfig::with_content())
            .try_run(&w)
            .expect("corruption only perturbs speculation");
        assert_eq!(dirty.retired, clean.retired);
        assert!(dirty.mem.content.issued > 0, "prefetcher still ran");
    }

    #[test]
    fn unmap_faults_streamed_workloads_too() {
        // The streamed variant has no materialized trace; the injector
        // must still find demand pages (via a generator prefix) and the
        // streaming run must surface the same typed error.
        let mut w = Benchmark::Slsb.build_with_engine(Scale::smoke(), 5, true);
        assert!(w.is_streamed());
        assert_eq!(unmap_trace_pages(&mut w, 5, 2), 2);
        let err = Simulator::new(SystemConfig::with_content())
            .try_run(&w)
            .unwrap_err();
        assert!(
            matches!(err, CdpError::UnmappedAccess { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn unmapping_a_trace_page_surfaces_a_typed_error() {
        let mut w = slsb();
        assert_eq!(unmap_trace_pages(&mut w, 5, 2), 2);
        let err = Simulator::new(SystemConfig::with_content())
            .try_run(&w)
            .unwrap_err();
        assert!(
            matches!(err, CdpError::UnmappedAccess { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn prefetch_walk_faults_are_squashed_not_fatal() {
        let w = slsb();
        let sim = Simulator::new(SystemConfig::with_content()).with_walk_fault(WalkFault {
            period: 3,
            demand: false,
        });
        let stats = sim.try_run(&w).expect("prefetch-only walk faults squash");
        assert!(stats.retired > 0);
        assert!(
            stats.mem.drops.unmapped > 0,
            "forced walk failures show up as unmapped drops"
        );
    }

    #[test]
    fn demand_walk_faults_surface_translation_failure() {
        let w = slsb();
        let sim = Simulator::new(SystemConfig::with_content()).with_walk_fault(WalkFault {
            period: 2,
            demand: true,
        });
        let err = sim.try_run(&w).unwrap_err();
        assert!(
            matches!(err, CdpError::TranslationFailure { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn plan_applies_only_matching_specs() {
        let plan = FaultPlan {
            specs: vec![
                FaultSpec::parse("corrupt:slsb:7:8").unwrap(),
                FaultSpec::parse("unmap:tpcc-2:7").unwrap(),
                FaultSpec::parse("walk:*:100").unwrap(),
            ],
        };
        let mut w = slsb();
        let before = w.space.mapped_pages();
        assert!(plan.apply("slsb", &mut w) > 0);
        assert_eq!(w.space.mapped_pages(), before, "unmap spec was for tpcc-2");
        assert!(w.check().is_ok(), "corruption never breaks the demand path");
        assert_eq!(
            plan.walk_fault("quake"),
            Some(WalkFault {
                period: 100,
                demand: false
            })
        );
        let nothing = FaultPlan::default();
        assert_eq!(nothing.apply("slsb", &mut w), 0);
        assert!(nothing.walk_fault("slsb").is_none());
    }
}
