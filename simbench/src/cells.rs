//! The three workloads as grids of simulation cells.
//!
//! A cell is one `(configuration, benchmark image)` simulation, the unit
//! every correctness check and every `attempted`/`failed` count refers to.

use std::sync::Arc;

use cdp_experiments::tournament::{entrants, DEFAULT_BUDGETS};
use cdp_sim::runner::{with_warmup, DEFAULT_SEED};
use cdp_sim::{WalkFault, WorkloadCache};
use cdp_types::SystemConfig;
use cdp_workloads::suite::{Benchmark, Scale};
use cdp_workloads::Workload;

use crate::yardstick::{Lap, Meter};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// tpcc-1 under the content prefetcher: the paper's target case.
    ChaseCdp,
    /// b2e under the stride baseline: the cache-resident case.
    ComputeBase,
    /// The equal-silicon tournament over the whole suite, with a result
    /// store and checkpoints, replayed from the store in a second pass.
    TournamentSweep,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::ChaseCdp,
        WorkloadId::ComputeBase,
        WorkloadId::TournamentSweep,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::ChaseCdp => "chase-cdp",
            WorkloadId::ComputeBase => "compute-base",
            WorkloadId::TournamentSweep => "tournament-sweep",
        }
    }

    /// Inverse of [`WorkloadId::name`].
    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work a cell does: `Full` is what the benchmark measures,
/// `Tiny` keeps the benchmark's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Smoke-sized cells for tests.
    Tiny,
}

impl Size {
    /// Inverse of the `--size` spelling.
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// Uops per single-cell run (chase-cdp, compute-base) at `Size::Full`:
/// above the streaming threshold, so the image takes the large tiers'
/// lazy path and the trace streams.
pub const SINGLE_CELL_UOPS: usize = 4_500_000;

/// Maps a `--seed` argument onto a workload-generation seed. `--seed 0`,
/// the default the oracle pins, is the experiments' own seed, so the
/// sweep's cells are the cells `experiments tournament --quick`
/// simulates; `--seed 4242`, also pinned, is kept out of all tuning so a
/// later claim can be checked on inputs it was not written against.
pub fn workload_seed(seed_arg: u64) -> u64 {
    DEFAULT_SEED.wrapping_add(seed_arg)
}

/// One simulation of a grid.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Unique label (`base/tpcc-1`, `16KiB/cdp/b2e`, ...).
    pub label: String,
    /// The system, warm-up included.
    pub cfg: SystemConfig,
    /// The benchmark whose image the cell runs on.
    pub bench: Benchmark,
    /// Result-store and checkpoint key; equal keys mean equal results.
    pub key: u64,
}

/// A workload's cells plus how their images are built.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Which workload this is.
    pub workload: WorkloadId,
    /// Uop budget and footprint divisor of every image.
    pub scale: Scale,
    /// Whether images stream their trace.
    pub streamed: bool,
    /// Workload-generation seed.
    pub seed: u64,
    /// Benchmarks with an image, in build order.
    pub benches: Vec<Benchmark>,
    /// The cells, in submission order.
    pub cells: Vec<Cell>,
}

impl Grid {
    /// The grid of `workload` at `size` for the `--seed` argument.
    ///
    /// # Errors
    ///
    /// The tournament's refusal when a budget cannot be normalized.
    pub fn new(workload: WorkloadId, size: Size, seed_arg: u64) -> Result<Grid, String> {
        let seed = workload_seed(seed_arg);
        let single = |bench: Benchmark, cfg: SystemConfig| {
            let scale = match size {
                Size::Full => Scale {
                    target_uops: SINGLE_CELL_UOPS,
                    footprint_div: 1,
                },
                Size::Tiny => Scale {
                    target_uops: 60_000,
                    footprint_div: 16,
                },
            };
            let mut grid = Grid {
                workload,
                scale,
                streamed: true,
                seed,
                benches: vec![bench],
                cells: Vec::new(),
            };
            grid.push(format!("{}/{}", workload.name(), bench.name()), cfg, bench);
            grid
        };
        Ok(match workload {
            WorkloadId::ChaseCdp => single(Benchmark::Tpcc1, SystemConfig::with_content()),
            WorkloadId::ComputeBase => single(Benchmark::B2e, SystemConfig::asplos2002()),
            WorkloadId::TournamentSweep => {
                let (scale, benches) = match size {
                    Size::Full => (Scale::quick(), Benchmark::all().to_vec()),
                    Size::Tiny => (Scale::smoke(), vec![Benchmark::Tpcc1, Benchmark::B2e]),
                };
                let mut grid = Grid {
                    workload,
                    scale,
                    streamed: false,
                    seed,
                    benches: benches.clone(),
                    cells: Vec::new(),
                };
                for &b in &benches {
                    grid.push(format!("base/{}", b.name()), SystemConfig::asplos2002(), b);
                }
                for budget in DEFAULT_BUDGETS {
                    for e in entrants(budget)? {
                        for &b in &benches {
                            let label = format!("{}KiB/{}/{}", budget / 1024, e.name, b.name());
                            grid.push(label, e.cfg.clone(), b);
                        }
                    }
                }
                grid
            }
        })
    }

    /// Appends a cell under the §2.2 warm-up convention, keyed the way
    /// the experiments key their result store.
    fn push(&mut self, label: String, cfg: SystemConfig, bench: Benchmark) {
        let cfg = with_warmup(cfg, self.scale);
        let key = cdp_obs::fingerprint(
            format!(
                "{:?}|{}|{}/{}|{}|{:?}",
                cfg,
                bench.name(),
                self.scale.target_uops,
                self.scale.footprint_div,
                self.seed,
                None::<WalkFault>,
            )
            .as_bytes(),
        );
        self.cells.push(Cell {
            label,
            cfg,
            bench,
            key,
        });
    }

    /// Builds one benchmark's image with this grid's engine choice.
    pub fn build_image(&self, bench: Benchmark) -> Workload {
        bench.build_with_engine(self.scale, self.seed, self.streamed)
    }

    /// Builds one benchmark's image with a streamed trace. Streamed and
    /// materialized builds retire bit-identical uop streams, so a
    /// streamed twin has the same pinned statistics.
    pub fn build_streamed_twin(&self, bench: Benchmark) -> Workload {
        bench.build_with_engine(self.scale, self.seed, true)
    }

    /// Builds every image into a fresh cache, serially and in benchmark
    /// order, the way the experiment grids pre-build theirs.
    pub fn build_images(&self) -> WorkloadCache {
        let cache = WorkloadCache::new();
        for &b in &self.benches {
            cache.get_with(b, self.scale, || self.build_image(b));
        }
        cache
    }

    /// As [`Grid::build_images`], ending a meter lap after each image;
    /// returns the cache and the builds' laps.
    pub fn build_images_metered(&self, meter: &mut Meter) -> (WorkloadCache, Lap) {
        let cache = WorkloadCache::new();
        let mut total = Lap::default();
        for &b in &self.benches {
            cache.get_with(b, self.scale, || self.build_image(b));
            total += meter.lap();
        }
        (cache, total)
    }

    /// The image for `bench` from a cache filled by
    /// [`Grid::build_images`].
    pub fn image(&self, cache: &WorkloadCache, bench: Benchmark) -> Arc<Workload> {
        cache.get_with(bench, self.scale, || self.build_image(bench))
    }

    /// Indices of the first cell of each distinct key: the cells that
    /// simulate, while the rest replay them from the result cache.
    pub fn distinct(&self) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        (0..self.cells.len())
            .filter(|&i| seen.insert(self.cells[i].key))
            .collect()
    }

    /// Uops a cell simulates, warm-up included.
    pub fn uops(stats: &cdp_sim::RunStats, cell: &Cell) -> u64 {
        cell.cfg.warmup_uops + stats.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_195_cells_180_distinct() {
        let g = Grid::new(WorkloadId::TournamentSweep, Size::Full, 0).unwrap();
        assert_eq!(g.cells.len(), 195);
        assert_eq!(g.distinct().len(), 180);
    }

    #[test]
    fn names_round_trip() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
    }
}
