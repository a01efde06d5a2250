//! The equal-silicon prefetcher tournament: every engine in the zoo,
//! normalized to matched table budgets, over the full benchmark suite.
//!
//! Mirrors the paper's §5 methodology (the Markov comparison holds total
//! silicon constant) but holds the *table* budget constant while the UL2
//! keeps its Table 1 geometry, so the axis under study is purely "what
//! does a byte of predictor state buy". Entrants:
//!
//! * `markov`  — the §5 STAB at the budget;
//! * `delta`   — the Pangloss-style delta-space Markov table;
//! * `jump`    — the pointer-chase/jump-pointer table;
//! * `cdp`     — the stateless content prefetcher (zero-budget
//!   reference row: its whole point is needing no table);
//! * `cdp+perceptron` / `stride+perceptron` — hybrids where the budget
//!   buys a perceptron confidence filter in front of a stateless (or
//!   baseline) engine instead of a correlation table.
//!
//! Every entrant keeps the Table 1 stride prefetcher (the paper's
//! baseline convention), so the stride table is common silicon and is
//! excluded from the budget. Configurations are normalized through each
//! engine's `budget_bytes()`; a requested budget no geometry can land
//! within ±5% of is refused before anything simulates.

use cdp_prefetch::{DeltaPrefetcher, JumpPrefetcher, PerceptronFilter};
use cdp_sim::{speedup, Engine, RunLength, RunStats};
use cdp_types::{DeltaConfig, JumpConfig, MarkovConfig, PerceptronConfig, SystemConfig};
use cdp_workloads::suite::Benchmark;

use crate::common::{failure_note, mean_if_complete, opt_cell, render_table, CellFailure};
use crate::context::Context;

/// Byte budgets swept when the command line does not override them.
pub const DEFAULT_BUDGETS: [usize; 2] = [16 * 1024, 64 * 1024];

/// Normalization tolerance: an entrant's realized `budget_bytes()` must
/// land within this fraction of the requested budget.
pub const TOLERANCE: f64 = 0.05;

/// One tournament entrant: a label, the system it runs, and which engine
/// counters score it.
#[derive(Clone, Debug)]
pub struct Entrant {
    /// Row label (`markov`, `delta`, `jump`, `cdp`, hybrids).
    pub name: &'static str,
    /// The full system configuration (Table 1 core + this entrant).
    pub cfg: SystemConfig,
    /// Engine whose counters score this entrant.
    pub engine: Engine,
    /// Requested table budget; `None` for the stateless reference row.
    pub requested: Option<usize>,
    /// Realized `budget_bytes()` of the normalized configuration.
    pub actual: usize,
}

/// Total predictor-table storage a configuration's tournament-managed
/// engines occupy, via each engine's `budget_bytes()`. The always-on
/// stride table is common silicon across every entrant and is excluded;
/// the content prefetcher is stateless and reports 0 by construction.
#[must_use]
pub fn table_budget_bytes(cfg: &SystemConfig) -> usize {
    let p = &cfg.prefetchers;
    let mut total = 0;
    if let Some(c) = &p.markov {
        total += DeltaPrefetcher::stab(c).budget_bytes();
    }
    if let Some(c) = &p.delta {
        total += DeltaPrefetcher::new(c).budget_bytes();
    }
    if let Some(c) = &p.jump {
        total += JumpPrefetcher::new(c).budget_bytes();
    }
    if let Some(c) = &p.perceptron {
        total += PerceptronFilter::new(c).budget_bytes();
    }
    total
}

/// Builds the entrant list for one budget, normalizing every stateful
/// configuration to it.
///
/// # Errors
///
/// Returns a description of the first entrant whose nearest realizable
/// geometry misses the requested budget by more than [`TOLERANCE`] —
/// the sweep refuses to present such a grid as "equal silicon".
pub fn entrants(budget: usize) -> Result<Vec<Entrant>, String> {
    let mut list: Vec<Entrant> = Vec::new();
    let mut push = |name: &'static str,
                    cfg: SystemConfig,
                    engine: Engine,
                    requested: Option<usize>|
     -> Result<(), String> {
        let actual = table_budget_bytes(&cfg);
        if let Some(req) = requested {
            let off = (actual as f64 - req as f64).abs() / req as f64;
            if off > TOLERANCE {
                return Err(format!(
                    "cannot normalize {name} to {req} bytes: nearest geometry holds {actual} \
                     bytes ({:.1}% off, tolerance {:.0}%)",
                    off * 100.0,
                    TOLERANCE * 100.0
                ));
            }
        }
        list.push(Entrant {
            name,
            cfg,
            engine,
            requested,
            actual,
        });
        Ok(())
    };
    let mut markov = SystemConfig::asplos2002();
    markov.prefetchers.markov = Some(MarkovConfig {
        stab_bytes: budget,
        associativity: 16,
        fanout: 4,
    });
    push("markov", markov, Engine::Markov, Some(budget))?;
    push(
        "delta",
        SystemConfig::with_delta(DeltaConfig::pangloss(budget)),
        Engine::Delta,
        Some(budget),
    )?;
    push(
        "jump",
        SystemConfig::with_jump(JumpConfig::sized(budget)),
        Engine::Jump,
        Some(budget),
    )?;
    push("cdp", SystemConfig::with_content(), Engine::Content, None)?;
    let perceptron = PerceptronConfig::with_budget(budget).ok_or_else(|| {
        format!(
            "cannot normalize a perceptron filter to {budget} bytes \
             (minimum {} bytes)",
            PerceptronConfig::MIN_BYTES
        )
    })?;
    push(
        "cdp+perceptron",
        SystemConfig::with_content().gated(perceptron),
        Engine::Content,
        Some(budget),
    )?;
    push(
        "stride+perceptron",
        SystemConfig::asplos2002().gated(perceptron),
        Engine::Stride,
        Some(budget),
    )?;
    Ok(list)
}

/// One scored entrant at one budget.
#[derive(Clone, Debug)]
pub struct EngineRow {
    /// Entrant label.
    pub name: &'static str,
    /// Requested budget (`None` for the stateless reference).
    pub requested: Option<usize>,
    /// Realized `budget_bytes()`.
    pub actual: usize,
    /// Suite-average speedup vs the Table 1 stride baseline; `None` when
    /// any contributing cell failed.
    pub speedup: Option<f64>,
    /// Suite coverage: the entrant engine's useful prefetches over the
    /// baseline's L2 demand misses (summed across benchmarks).
    pub coverage: Option<f64>,
    /// Suite accuracy: useful / issued (summed across benchmarks).
    pub accuracy: Option<f64>,
    /// Prefetches the entrant engine issued, suite total.
    pub issued: Option<u64>,
    /// Prefetched lines evicted untouched, suite total.
    pub wasted: Option<u64>,
    /// Per-benchmark speedups (suite order).
    pub per_bench: Vec<Option<f64>>,
    /// Per-benchmark wasted-eviction counts (the hybrid-gating check
    /// compares these between `cdp+perceptron` and `cdp`).
    pub wasted_per_bench: Vec<Option<u64>>,
}

/// The full tournament grid.
#[derive(Clone, Debug)]
pub struct Tournament {
    /// Benchmark names, in suite order.
    pub benches: Vec<&'static str>,
    /// Per-budget entrant rows, in [`entrants`] order.
    pub groups: Vec<(usize, Vec<EngineRow>)>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

fn fmt_budget(b: usize) -> String {
    if b.is_multiple_of(1024) {
        format!("{}KiB", b / 1024)
    } else {
        format!("{b}B")
    }
}

impl Tournament {
    /// Renders one table per budget plus the hybrid-gating check lines.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Tournament: equal-silicon prefetcher zoo (speedups vs Table 1 stride baseline)\n",
        );
        for (budget, rows) in &self.groups {
            out.push_str(&format!("\nbudget {}\n", fmt_budget(*budget)));
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.to_string(),
                        if r.requested.is_some() {
                            r.actual.to_string()
                        } else {
                            "0 (stateless)".to_string()
                        },
                        opt_cell(r.speedup, |s| format!("{s:.3}")),
                        opt_cell(r.speedup, |s| format!("{:+.1}%", (s - 1.0) * 100.0)),
                        opt_cell(r.coverage, |c| format!("{:.1}%", c * 100.0)),
                        opt_cell(r.accuracy, |a| format!("{:.1}%", a * 100.0)),
                        opt_cell(r.issued, |i| i.to_string()),
                        opt_cell(r.wasted, |w| w.to_string()),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &[
                    "engine", "bytes", "speedup", "gain", "coverage", "accuracy", "issued",
                    "wasted",
                ],
                &table,
            ));
            out.push_str(&self.gating_line(rows));
        }
        out.push_str(&failure_note(&self.failures));
        out
    }

    /// The hybrid-gating check: on how many benchmarks does the
    /// perceptron-gated content prefetcher waste fewer lines than the
    /// bare one?
    fn gating_line(&self, rows: &[EngineRow]) -> String {
        let find = |name: &str| rows.iter().find(|r| r.name == name);
        let (Some(bare), Some(gated)) = (find("cdp"), find("cdp+perceptron")) else {
            return String::new();
        };
        let mut lower = 0usize;
        let mut total = 0usize;
        for (b, g) in bare.wasted_per_bench.iter().zip(&gated.wasted_per_bench) {
            if let (Some(b), Some(g)) = (b, g) {
                total += 1;
                if g < b {
                    lower += 1;
                }
            }
        }
        format!("gating check: cdp+perceptron wasted < cdp on {lower}/{total} benchmarks\n")
    }
}

/// Runs the tournament over the full suite.
///
/// # Errors
///
/// Propagates [`entrants`]' refusal when a budget cannot be normalized.
pub fn run(scale: RunLength, ctx: &Context, budgets: &[usize]) -> Result<Tournament, String> {
    run_on(scale, &Benchmark::all(), budgets, ctx)
}

/// Runs the tournament on a benchmark subset (tests / quick looks):
/// stride baselines first, then every budget × entrant × benchmark cell
/// as one flat pooled grid.
///
/// # Errors
///
/// Returns the normalization refusal for the first bad budget — before
/// any cell simulates.
pub fn run_on(
    scale: RunLength,
    benches: &[Benchmark],
    budgets: &[usize],
    ctx: &Context,
) -> Result<Tournament, String> {
    let groups_spec: Vec<(usize, Vec<Entrant>)> = budgets
        .iter()
        .map(|&b| entrants(b).map(|e| (b, e)))
        .collect::<Result<_, _>>()?;
    let s = scale.scale();
    let ws = ctx.workloads();
    let base_cfg = SystemConfig::asplos2002();
    let (baselines, mut failures) = ctx.run_grid(
        &ws,
        s,
        benches
            .iter()
            .map(|&b| (format!("base/{}", b.name()), base_cfg.clone(), b))
            .collect(),
    );
    let mut grid = Vec::new();
    for (budget, ents) in &groups_spec {
        for e in ents {
            for &b in benches {
                grid.push((
                    format!("{}/{}/{}", fmt_budget(*budget), e.name, b.name()),
                    e.cfg.clone(),
                    b,
                ));
            }
        }
    }
    let (cells, grid_failures) = ctx.run_grid(&ws, s, grid);
    failures.extend(grid_failures);
    let mut groups = Vec::new();
    let mut cursor = cells.chunks(benches.len());
    for (budget, ents) in groups_spec {
        let rows = ents
            .into_iter()
            .map(|e| {
                let chunk = cursor.next().expect("grid covers every entrant");
                score(e, chunk, &baselines)
            })
            .collect();
        groups.push((budget, rows));
    }
    Ok(Tournament {
        benches: benches.iter().map(|b| b.name()).collect(),
        groups,
        failures,
    })
}

/// Folds one entrant's benchmark cells (against the stride baselines)
/// into its scored row.
fn score(e: Entrant, chunk: &[Option<RunStats>], baselines: &[Option<RunStats>]) -> EngineRow {
    let mut per_bench = Vec::new();
    let mut wasted_per_bench = Vec::new();
    let mut issued = 0u64;
    let mut useful = 0u64;
    let mut wasted = 0u64;
    let mut base_misses = 0u64;
    let mut complete = true;
    for (r, base) in chunk.iter().zip(baselines) {
        match (r, base) {
            (Some(r), Some(base)) => {
                per_bench.push(Some(speedup(base, r)));
                let c = r
                    .mem
                    .engine(e.engine)
                    .expect("tournament entrants are prefetch engines");
                issued += c.issued;
                useful += c.useful();
                wasted += c.wasted_evictions;
                base_misses += base.mem.l2_demand_misses;
                wasted_per_bench.push(Some(c.wasted_evictions));
            }
            _ => {
                per_bench.push(None);
                wasted_per_bench.push(None);
                complete = false;
            }
        }
    }
    let ratio = |num: u64, den: u64| {
        if complete && den > 0 {
            Some(num as f64 / den as f64)
        } else {
            None
        }
    };
    EngineRow {
        name: e.name,
        requested: e.requested,
        actual: e.actual,
        speedup: mean_if_complete(&per_bench),
        coverage: ratio(useful, base_misses),
        accuracy: ratio(useful, issued),
        issued: complete.then_some(issued),
        wasted: complete.then_some(wasted),
        per_bench,
        wasted_per_bench,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::Pool;

    #[test]
    fn every_entrant_lands_within_tolerance() {
        for budget in DEFAULT_BUDGETS {
            let ents = entrants(budget).expect("default budgets normalize");
            assert_eq!(ents.len(), 6);
            for e in &ents {
                match e.requested {
                    Some(req) => {
                        let off = (e.actual as f64 - req as f64).abs() / req as f64;
                        assert!(
                            off <= TOLERANCE,
                            "{} at {budget}: actual {} off by {:.2}%",
                            e.name,
                            e.actual,
                            off * 100.0
                        );
                    }
                    None => assert_eq!(e.actual, 0, "the reference row is stateless"),
                }
            }
        }
    }

    #[test]
    fn tiny_budget_is_refused() {
        let err = entrants(64).expect_err("64 bytes cannot hold a 16-way STAB");
        assert!(err.contains("cannot normalize"), "got: {err}");
    }

    #[test]
    fn smoke_grid_scores_all_engines() {
        let t = run_on(
            RunLength::Smoke,
            &[Benchmark::Slsb, Benchmark::Tpcc2],
            &[16 * 1024],
            &Context::new(Pool::new(2)),
        )
        .expect("budget normalizes");
        assert!(t.failures.is_empty());
        assert_eq!(t.groups.len(), 1);
        let rows = &t.groups[0].1;
        assert_eq!(rows.len(), 6);
        for r in rows {
            assert!(r.speedup.is_some(), "{} has a speedup", r.name);
            assert!(r.issued.is_some(), "{} has issue counts", r.name);
            assert!(r.wasted.is_some(), "{} has wasted counts", r.name);
        }
        // The pointer-heavy suite must actually exercise the zoo: the
        // content engines issue, and the stateless reference row reports
        // zero table bytes.
        let cdp = rows.iter().find(|r| r.name == "cdp").unwrap();
        assert!(cdp.issued.unwrap() > 0, "cdp issues prefetches");
        assert_eq!(cdp.actual, 0);
        let rendered = t.render();
        assert!(rendered.contains("gating check"));
        assert!(rendered.contains("budget 16KiB"));
    }
}
