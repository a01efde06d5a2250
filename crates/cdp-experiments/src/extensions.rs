//! Extension experiments beyond the paper's figures:
//!
//! * [`margin`] — the Figure 4(c) rescan-margin ablation. The paper shows
//!   the margin-2 variant halving rescan traffic but does not sweep it;
//!   this experiment measures rescans and speedup for margins 1–3.
//! * [`adaptive`] — the §4.1 future work: fixed tuned knobs versus the
//!   run-time hill-climbing controller, per benchmark.
//! * [`stream`] — the reference-\[11\] baseline: stride versus stream
//!   buffers versus content prefetching on the pointer subset.

use cdp_sim::runner::pointer_subset;
use cdp_sim::{speedup, RunLength, SimJob};
use cdp_types::{AdaptiveConfig, ContentConfig, StreamConfig, SystemConfig};
use cdp_workloads::suite::Benchmark;

use crate::common::{failure_note, mean_if_complete, opt_cell, render_table, CellFailure};
use crate::context::{Cell, Context};

/// One margin point.
#[derive(Clone, Debug)]
pub struct MarginPoint {
    /// Rescan margin (Figure 4(b) = 1, Figure 4(c) = 2).
    pub margin: u8,
    /// Suite-average speedup; `None` when any contributing cell failed.
    pub speedup: Option<f64>,
    /// Total rescans across the subset; `None` on a partial subset.
    pub rescans: Option<u64>,
}

/// The margin ablation result.
#[derive(Clone, Debug)]
pub struct MarginAblation {
    /// Margins 1..=3.
    pub points: Vec<MarginPoint>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl MarginAblation {
    /// Renders the ablation.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Extension: reinforcement rescan-margin ablation (Figure 4(b)/(c))\n\n");
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.margin.to_string(),
                    opt_cell(p.speedup, |s| format!("{s:.3}")),
                    opt_cell(p.rescans, |r| r.to_string()),
                ]
            })
            .collect();
        out.push_str(&render_table(&["margin", "speedup", "rescans"], &rows));
        if let (Some(m1), Some(m2)) = (
            self.points.first().and_then(|p| p.rescans),
            self.points.get(1).and_then(|p| p.rescans),
        ) {
            if m1 > 0 {
                out.push_str(&format!(
                    "\nmargin 2 performs {:.0}% of margin 1's rescans (paper: ~50%)\n",
                    m2 as f64 / m1 as f64 * 100.0
                ));
            }
        }
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs the margin ablation on the pointer subset (one flat pooled
/// grid: margins x benchmarks).
pub fn margin(scale: RunLength, ctx: &Context) -> MarginAblation {
    let s = scale.scale();
    let benches = pointer_subset();
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
    let margins = [1u8, 2, 3];
    let mut grid = Vec::new();
    for &margin in &margins {
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.content = Some(ContentConfig {
            reinforcement_margin: margin,
            ..ContentConfig::tuned()
        });
        for &b in &benches {
            grid.push((format!("m{margin}/{}", b.name()), cfg.clone(), b));
        }
    }
    let (runs, grid_failures) = ctx.run_grid(&ws, s, grid);
    failures.extend(grid_failures);
    let points = margins
        .iter()
        .zip(runs.chunks(benches.len()))
        .map(|(&margin, chunk)| {
            let sps: Vec<Option<f64>> = chunk
                .iter()
                .zip(&baselines)
                .map(|(r, base)| match (r, base) {
                    (Some(r), Some(base)) => Some(speedup(base, r)),
                    _ => None,
                })
                .collect();
            let rescans = chunk
                .iter()
                .map(|r| r.as_ref().map(|r| r.mem.rescans))
                .try_fold(0u64, |acc, r| r.map(|r| acc + r));
            MarginPoint {
                margin,
                speedup: mean_if_complete(&sps),
                rescans,
            }
        })
        .collect();
    MarginAblation { points, failures }
}

/// One adaptive-vs-fixed row.
#[derive(Clone, Debug)]
pub struct AdaptiveRow {
    /// Benchmark name.
    pub name: String,
    /// Fixed tuned-knob speedup; `None` if a contributing cell failed.
    pub fixed: Option<f64>,
    /// Adaptive-controller speedup; `None` if a contributing cell failed.
    pub adaptive: Option<f64>,
    /// Knob state the controller steered to (`N` compare bits, `n` width).
    pub steered_to: String,
}

/// The adaptive study result.
#[derive(Clone, Debug)]
pub struct AdaptiveStudy {
    /// Per-benchmark rows.
    pub rows: Vec<AdaptiveRow>,
    /// Averages (fixed, adaptive); `None` on a partial subset.
    pub averages: (Option<f64>, Option<f64>),
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl AdaptiveStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Extension: run-time adaptive VAM knobs (§4.1 future work) vs fixed tuning\n\n",
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    opt_cell(r.fixed, |s| format!("{s:.3}")),
                    opt_cell(r.adaptive, |s| format!("{s:.3}")),
                    r.steered_to.clone(),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["Benchmark", "fixed", "adaptive", "steered to"],
            &rows,
        ));
        out.push_str(&format!(
            "\naverages: fixed {}, adaptive {}\n",
            opt_cell(self.averages.0, |s| format!("{s:.3}")),
            opt_cell(self.averages.1, |s| format!("{s:.3}"))
        ));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs fixed vs adaptive over a mixed subset (pointer-heavy plus two
/// low-MPTU codes where aggressive knobs have nothing to win).
pub fn adaptive(scale: RunLength, ctx: &Context) -> AdaptiveStudy {
    let s = scale.scale();
    let mut benches = pointer_subset();
    benches.push(Benchmark::B2e);
    benches.push(Benchmark::Quake);
    let base_cfg = SystemConfig::asplos2002();
    let fixed_cfg = SystemConfig::with_content();
    let mut adaptive_cfg = SystemConfig::with_content();
    adaptive_cfg.prefetchers.adaptive = Some(AdaptiveConfig::default());
    let ws = ctx.workloads();
    let mut grid = Vec::new();
    for &b in &benches {
        grid.push((format!("base/{}", b.name()), base_cfg.clone(), b));
        grid.push((format!("fixed/{}", b.name()), fixed_cfg.clone(), b));
        grid.push((format!("adaptive/{}", b.name()), adaptive_cfg.clone(), b));
    }
    let (runs, failures) = ctx.run_grid(&ws, s, grid);
    let mut rows = Vec::new();
    for (&b, trio) in benches.iter().zip(runs.chunks(3)) {
        let (base, fixed, adapt) = (&trio[0], &trio[1], &trio[2]);
        let steered = adapt
            .as_ref()
            .and_then(|a| a.adaptive)
            .map(|(_, c)| format!("N={} n={}", c.vam.compare_bits, c.next_lines))
            .unwrap_or_default();
        rows.push(AdaptiveRow {
            name: b.name().to_string(),
            fixed: match (base, fixed) {
                (Some(base), Some(fixed)) => Some(speedup(base, fixed)),
                _ => None,
            },
            adaptive: match (base, adapt) {
                (Some(base), Some(adapt)) => Some(speedup(base, adapt)),
                _ => None,
            },
            steered_to: steered,
        });
    }
    let averages = (
        mean_if_complete(&rows.iter().map(|r| r.fixed).collect::<Vec<_>>()),
        mean_if_complete(&rows.iter().map(|r| r.adaptive).collect::<Vec<_>>()),
    );
    AdaptiveStudy {
        rows,
        averages,
        failures,
    }
}

/// One stream-comparison row.
#[derive(Clone, Debug)]
pub struct StreamRow {
    /// Benchmark name.
    pub name: String,
    /// Stride-only baseline is 1.0 by definition; these are relative.
    /// `None` if a contributing cell failed.
    pub stream_buffers: Option<f64>,
    /// Content prefetcher speedup; `None` if a contributing cell failed.
    pub content: Option<f64>,
}

/// The stream-buffer comparison.
#[derive(Clone, Debug)]
pub struct StreamStudy {
    /// Per-benchmark rows.
    pub rows: Vec<StreamRow>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl StreamStudy {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Extension: stream buffers (reference [11]) vs content prefetching\n(speedup over the stride baseline)\n\n",
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    opt_cell(r.stream_buffers, |s| format!("{s:.3}")),
                    opt_cell(r.content, |s| format!("{s:.3}")),
                ]
            })
            .collect();
        out.push_str(&render_table(&["Benchmark", "+streams", "+content"], &rows));
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Runs stride vs stride+streams vs stride+content on the pointer subset.
pub fn stream(scale: RunLength, ctx: &Context) -> StreamStudy {
    let s = scale.scale();
    let benches = pointer_subset();
    let base_cfg = SystemConfig::asplos2002();
    let mut stream_cfg = SystemConfig::asplos2002();
    stream_cfg.prefetchers.stream = Some(StreamConfig::default());
    let content_cfg = SystemConfig::with_content();
    let ws = ctx.workloads();
    let mut grid = Vec::new();
    for &b in &benches {
        grid.push((format!("base/{}", b.name()), base_cfg.clone(), b));
        grid.push((format!("streams/{}", b.name()), stream_cfg.clone(), b));
        grid.push((format!("content/{}", b.name()), content_cfg.clone(), b));
    }
    let (runs, failures) = ctx.run_grid(&ws, s, grid);
    let rows = benches
        .iter()
        .zip(runs.chunks(3))
        .map(|(&b, trio)| StreamRow {
            name: b.name().to_string(),
            stream_buffers: match (&trio[0], &trio[1]) {
                (Some(base), Some(st)) => Some(speedup(base, st)),
                _ => None,
            },
            content: match (&trio[0], &trio[2]) {
                (Some(base), Some(c)) => Some(speedup(base, c)),
                _ => None,
            },
        })
        .collect();
    StreamStudy { rows, failures }
}

/// One traversal-direction row of the backward study.
#[derive(Clone, Debug)]
pub struct BackwardRow {
    /// Traversal direction.
    pub direction: &'static str,
    /// Speedup with previous-line width (p2.n0) over the direction's
    /// stride baseline; `None` if either cell failed.
    pub prev_width: Option<f64>,
    /// Speedup with next-line width (p0.n2) over the direction's stride
    /// baseline; `None` if either cell failed.
    pub next_width: Option<f64>,
}

/// The backward-traversal width study.
#[derive(Clone, Debug)]
pub struct BackwardStudy {
    /// Forward and backward rows.
    pub rows: Vec<BackwardRow>,
    /// Cells that failed (empty on a healthy run).
    pub failures: Vec<CellFailure>,
}

impl BackwardStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Extension: width direction vs traversal direction (doubly linked list)
             (equal bandwidth: two previous lines vs two next lines)

",
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.direction.to_string(),
                    opt_cell(r.prev_width, |s| format!("{s:.3}")),
                    opt_cell(r.next_width, |s| format!("{s:.3}")),
                ]
            })
            .collect();
        out.push_str(&render_table(&["traversal", "p2.n0", "p0.n2"], &rows));
        out.push_str(
            "\nFinding: width direction is immaterial on doubly linked lists in \
             either traversal direction, because the VAM heuristic chases both \
             the next and prev pointers out of every fill -- the chain, not the \
             width, covers the traversal. This generalizes Figure 9's result \
             that previous-line width buys nothing: backward-regular walks are \
             stride-predictable, and backward-irregular walks are chain-covered.\n",
        );
        out.push_str(&failure_note(&self.failures));
        out
    }
}

/// Builds a doubly-linked-list workload traversed in one direction and
/// measures previous-line vs next-line width at equal bandwidth. The
/// six simulations (2 directions x 3 configurations) are cells of the
/// context's runner over shared workload images, labelled
/// `<direction>/<config>`. The images pass through the fault plan like
/// benchmark images (a `*` directive reaches them); a failed cell gaps
/// its row.
pub fn backward(scale: RunLength, ctx: &Context) -> BackwardStudy {
    use std::sync::Arc;

    use cdp_mem::AddressSpace;
    use cdp_types::rng::Rng;
    use cdp_workloads::structures::build_dlist;
    use cdp_workloads::suite::{Suite, Workload};
    use cdp_workloads::{Heap, TraceBuilder};

    let uops = scale.scale().target_uops / 2;
    let build = |forward: bool| -> Workload {
        let mut space = AddressSpace::new();
        let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 25).with_padding(8);
        let mut rng = Rng::seed_from_u64(0xd11d);
        let dl = build_dlist(&mut space, &mut heap, &mut rng, 60_000, 32, true);
        let mut tb = TraceBuilder::new();
        while tb.len() < uops {
            let seg = 512usize;
            if forward {
                let start = rng.gen_range_usize(0..dl.nodes.len() - seg);
                tb.chase(1, &dl.nodes[start..start + seg], 0, 12);
            } else {
                let start = rng.gen_range_usize(seg..dl.nodes.len());
                tb.chase_back(1, &dl, start, seg, 12);
            }
            tb.alu_burst(5, 64);
        }
        Workload {
            name: format!("dlist-{}", if forward { "forward" } else { "backward" }),
            suite: Suite::Workstation,
            program: tb.build(),
            space,
            stream: None,
        }
    };

    let width_cfg = |prev: u32, next: u32| {
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.content = Some(ContentConfig {
            prev_lines: prev,
            next_lines: next,
            ..ContentConfig::tuned()
        });
        cfg
    };

    let directions = [("forward", true), ("backward", false)];
    let ws = ctx.workloads();
    let mut jobs = Vec::new();
    for &(direction, forward) in &directions {
        let w = Arc::new(ws.faulted(build(forward)));
        for (name, cfg) in [
            ("base", SystemConfig::asplos2002()),
            ("p2.n0", width_cfg(2, 0)),
            ("p0.n2", width_cfg(0, 2)),
        ] {
            jobs.push(SimJob::new(
                format!("{direction}/{name}"),
                cfg,
                Arc::clone(&w),
            ));
        }
    }
    let (runs, failures) = ctx.run_cells(&ws, jobs);
    let over_base = |base: &Option<Cell>, variant: &Option<Cell>| match (base, variant) {
        (Some((base, _)), Some((variant, _))) => Some(speedup(base, variant)),
        _ => None,
    };
    let rows = directions
        .iter()
        .zip(runs.chunks(3))
        .map(|(&(direction, _), trio)| BackwardRow {
            direction,
            prev_width: over_base(&trio[0], &trio[1]),
            next_width: over_base(&trio[0], &trio[2]),
        })
        .collect();
    BackwardStudy { rows, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_sim::metrics::mean;
    use cdp_sim::Pool;

    #[test]
    fn margin_two_cuts_rescans() {
        let m = margin(RunLength::Smoke, &Context::new(Pool::new(2)));
        assert_eq!(m.points.len(), 3);
        assert!(m.failures.is_empty());
        let (r1, r2) = (
            m.points[0].rescans.expect("healthy run"),
            m.points[1].rescans.expect("healthy run"),
        );
        assert!(r2 < r1, "margin 2 must rescan less: {r2} vs {r1}");
        assert!(m.render().contains("margin"));
    }

    #[test]
    fn adaptive_study_runs() {
        let a = adaptive(RunLength::Smoke, &Context::new(Pool::new(2)));
        assert_eq!(a.rows.len(), 6);
        assert!(a.failures.is_empty());
        for r in &a.rows {
            assert!(!r.steered_to.is_empty(), "{}", r.name);
        }
        assert!(a.render().contains("steered"));
    }

    #[test]
    fn width_direction_is_immaterial_on_dlists() {
        // The chain covers both traversal directions (VAM finds next AND
        // prev pointers), so p2.n0 and p0.n2 land close together.
        let st = backward(RunLength::Smoke, &Context::new(Pool::new(2)));
        assert_eq!(st.rows.len(), 2);
        assert!(st.failures.is_empty());
        for r in &st.rows {
            let (prev, next) = (
                r.prev_width.expect("healthy run"),
                r.next_width.expect("healthy run"),
            );
            assert!(
                (prev - next).abs() < 0.25,
                "{}: p2 {prev:.3} vs n2 {next:.3} should be close",
                r.direction,
            );
            assert!(prev > 1.0 && next > 1.0, "{}", r.direction);
        }
        assert!(st.render().contains("chain, not the"));
    }

    #[test]
    fn content_beats_streams_on_pointer_subset() {
        let s = stream(RunLength::Smoke, &Context::new(Pool::new(2)));
        assert!(s.failures.is_empty());
        let avg_stream = mean(
            &s.rows
                .iter()
                .map(|r| r.stream_buffers.expect("healthy run"))
                .collect::<Vec<_>>(),
        );
        let avg_content = mean(
            &s.rows
                .iter()
                .map(|r| r.content.expect("healthy run"))
                .collect::<Vec<_>>(),
        );
        assert!(
            avg_content > avg_stream - 0.02,
            "content {avg_content:.3} vs streams {avg_stream:.3}"
        );
    }
}
