//! The correctness oracle: per-cell simulated statistics every timed
//! cell, traced cell and store replay must reproduce exactly.
//!
//! Values come from the cycle-by-cycle reference schedule
//! (`set_fast_forward(false)`), which the fast path must match bit for
//! bit. For the seeds the benchmark ships they are pinned in
//! `oracle/<workload>-seed<N>.txt`, so a change to simulated behaviour
//! fails the benchmark; for any other seed they are computed at the
//! start of the run, outside every timed region.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cdp_sim::{set_fast_forward, EngineCounters, Pool, RunStats, Simulator, WorkloadCache};

use crate::cells::{Grid, Size, WorkloadId};

/// Engine counter groups, in pinned-file order.
const ENGINES: [&str; 5] = ["stride", "content", "markov", "delta", "jump"];

/// The pinned statistics of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pinned {
    /// Measured cycles.
    pub cycles: u64,
    /// Measured retired uops.
    pub retired: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// `[issued, useful, wasted]` per engine, in [`ENGINES`] order.
    pub engines: [[u64; 3]; 5],
}

impl Pinned {
    /// The pinned fields of a run.
    pub fn of(s: &RunStats) -> Pinned {
        let e = |c: &EngineCounters| [c.issued, c.useful(), c.wasted_evictions];
        Pinned {
            cycles: s.cycles,
            retired: s.retired,
            l2_misses: s.mem.l2_demand_misses,
            engines: [
                e(&s.mem.stride),
                e(&s.mem.content),
                e(&s.mem.markov),
                e(&s.mem.delta),
                e(&s.mem.jump),
            ],
        }
    }

    fn fields(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("cycles".to_string(), self.cycles),
            ("retired".to_string(), self.retired),
            ("l2_misses".to_string(), self.l2_misses),
        ];
        for (name, [issued, useful, wasted]) in ENGINES.iter().zip(self.engines) {
            out.push((format!("{name}.issued"), issued));
            out.push((format!("{name}.useful"), useful));
            out.push((format!("{name}.wasted"), wasted));
        }
        out
    }

    fn render(&self) -> String {
        let mut s = format!(
            "cycles={} retired={} l2_misses={}",
            self.cycles, self.retired, self.l2_misses
        );
        for (name, [i, u, w]) in ENGINES.iter().zip(self.engines) {
            s.push_str(&format!(" {name}={i}/{u}/{w}"));
        }
        s
    }

    fn parse(text: &str) -> Result<Pinned, String> {
        let mut p = Pinned {
            cycles: 0,
            retired: 0,
            l2_misses: 0,
            engines: [[0; 3]; 5],
        };
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|e| format!("bad number {v:?}: {e}"))
        };
        let mut seen = 0;
        for field in text.split_whitespace() {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("field {field:?} has no '='"))?;
            match k {
                "cycles" => p.cycles = num(v)?,
                "retired" => p.retired = num(v)?,
                "l2_misses" => p.l2_misses = num(v)?,
                _ => {
                    let e = ENGINES
                        .iter()
                        .position(|&n| n == k)
                        .ok_or_else(|| format!("unknown field {k:?}"))?;
                    let parts: Vec<&str> = v.split('/').collect();
                    if parts.len() != 3 {
                        return Err(format!("{k} needs issued/useful/wasted, got {v:?}"));
                    }
                    for (slot, part) in p.engines[e].iter_mut().zip(parts) {
                        *slot = num(part)?;
                    }
                }
            }
            seen += 1;
        }
        if seen != 3 + ENGINES.len() {
            return Err(format!("expected {} fields, got {seen}", 3 + ENGINES.len()));
        }
        Ok(p)
    }

    /// A description of every field where `actual` differs from `self`.
    pub fn diff(&self, actual: &Pinned) -> Option<String> {
        let mismatches: Vec<String> = self
            .fields()
            .into_iter()
            .zip(actual.fields())
            .filter(|((_, want), (_, got))| want != got)
            .map(|((name, want), (_, got))| format!("{name}: pinned {want}, got {got}"))
            .collect();
        (!mismatches.is_empty()).then(|| mismatches.join(", "))
    }
}

/// Pinned statistics for every cell of a grid, by label.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Oracle {
    /// Label → pinned statistics.
    pub cells: BTreeMap<String, Pinned>,
}

impl Oracle {
    /// Checks one cell's statistics against its pinned values.
    ///
    /// # Errors
    ///
    /// Names the cell and every differing field, or reports a cell the
    /// oracle does not know.
    pub fn check(&self, label: &str, stats: &RunStats) -> Result<(), String> {
        let want = self
            .cells
            .get(label)
            .ok_or_else(|| format!("{label}: no pinned statistics"))?;
        match want.diff(&Pinned::of(stats)) {
            None => Ok(()),
            Some(d) => Err(format!("{label}: {d}")),
        }
    }

    /// The pinned-file text: one `label<TAB>fields` line per cell.
    pub fn render(&self) -> String {
        self.cells
            .iter()
            .map(|(label, p)| format!("{label}\t{}\n", p.render()))
            .collect()
    }

    /// Parses [`Oracle::render`] output.
    ///
    /// # Errors
    ///
    /// The first malformed line.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let mut cells = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (label, rest) = line
                .split_once('\t')
                .ok_or_else(|| format!("line {}: no tab after the label", n + 1))?;
            let p = Pinned::parse(rest).map_err(|e| format!("line {}: {e}", n + 1))?;
            cells.insert(label.to_string(), p);
        }
        Ok(Oracle { cells })
    }

    /// Where the pinned values of a shipped seed live.
    pub fn pinned_path(workload: WorkloadId, seed_arg: u64) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("oracle")
            .join(format!("{}-seed{seed_arg}.txt", workload.name()))
    }

    /// The pinned oracle for a shipped seed, if there is one. Only full
    /// size is pinned.
    ///
    /// # Errors
    ///
    /// A pinned file that exists but does not parse.
    pub fn load_pinned(
        workload: WorkloadId,
        size: Size,
        seed_arg: u64,
    ) -> Result<Option<Oracle>, String> {
        if size != Size::Full {
            return Ok(None);
        }
        let path = Oracle::pinned_path(workload, seed_arg);
        match std::fs::read_to_string(&path) {
            Ok(text) => Oracle::parse(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(_) => Ok(None),
        }
    }

    /// Computes the oracle on the cycle-by-cycle reference schedule:
    /// every distinct cell runs once with fast-forward off, on `images`.
    /// With `pool` the cells run on its workers, without it on the calling
    /// thread (a single-threaded workload then never starts a thread, so
    /// its peak memory does not depend on whether the oracle was pinned).
    ///
    /// # Errors
    ///
    /// The first cell whose reference run faults.
    pub fn reference(
        grid: &Grid,
        images: &WorkloadCache,
        pool: Option<&Pool>,
    ) -> Result<Oracle, String> {
        let distinct = grid.distinct();
        let tasks: Vec<_> = distinct
            .iter()
            .map(|&i| {
                let cell = grid.cells[i].clone();
                let w = grid.image(images, cell.bench);
                move || -> Result<RunStats, String> {
                    Simulator::try_new(cell.cfg.clone())
                        .and_then(|sim| sim.try_run(&w))
                        .map_err(|e| format!("{}: reference run failed: {e}", cell.label))
                }
            })
            .collect();
        set_fast_forward(false);
        let results: Vec<_> = match pool {
            Some(pool) => pool.run(tasks),
            None => tasks.into_iter().map(|t| t()).collect(),
        };
        set_fast_forward(true);
        let mut by_key = std::collections::HashMap::new();
        for (&i, r) in distinct.iter().zip(results) {
            by_key.insert(grid.cells[i].key, Pinned::of(&r?));
        }
        Ok(Oracle {
            cells: grid
                .cells
                .iter()
                .map(|c| (c.label.clone(), by_key[&c.key]))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut o = Oracle::default();
        o.cells.insert(
            "a/b".into(),
            Pinned {
                cycles: 1,
                retired: 2,
                l2_misses: 3,
                engines: [[4, 5, 6], [7, 8, 9], [0, 0, 0], [1, 1, 1], [2, 3, 4]],
            },
        );
        assert_eq!(Oracle::parse(&o.render()).unwrap(), o);
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(Oracle::parse("x\tcycles=1 retired=2\n").is_err());
    }
}
