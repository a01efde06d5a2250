//! Layer kernels: the core without the hierarchy, the hierarchy without
//! the core, and the repository's existing `microbench` kernels.

use std::path::Path;
use std::time::Instant;

use cdp_core::{Core, FixedLatencyMemory, MemoryModel};
use cdp_sim::Hierarchy;
use cdp_types::{AccessKind, VirtAddr};
use cdp_workloads::suite::{Benchmark, Scale};

use crate::cells::{Grid, Size, WorkloadId};

/// Median of a non-empty sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Timed repetitions per kernel; the median is reported.
const REPS: usize = 3;

/// Host ns per uop of a `Core` driven over `FixedLatencyMemory` (the L1
/// hit latency) on compute-base's uop stream, materialized up front so
/// neither the hierarchy nor the generator is timed.
pub fn core_issue_ns_per_uop(size: Size, seed_arg: u64) -> Result<f64, String> {
    let grid = Grid::new(WorkloadId::ComputeBase, size, seed_arg)?;
    let cfg = &grid.cells[0].cfg;
    let uops = match size {
        Size::Full => 1_000_000,
        Size::Tiny => 20_000,
    };
    let scale = Scale {
        target_uops: uops,
        footprint_div: grid.scale.footprint_div,
    };
    let w = Benchmark::B2e.build_with_engine(scale, grid.seed, false);
    let mut mem = FixedLatencyMemory {
        latency: cfg.l1d.latency,
    };
    let samples = (0..REPS)
        .map(|_| {
            let mut core = Core::new(cfg.core.clone(), &w.program);
            let t = Instant::now();
            core.run_to_completion(&mut mem);
            let ns = t.elapsed().as_nanos() as f64;
            ns / std::hint::black_box(core.stats().retired).max(1) as f64
        })
        .collect();
    Ok(median(samples))
}

/// One recorded call into the hierarchy, with its answer.
#[derive(Clone, Copy)]
struct Access {
    pc: u32,
    vaddr: VirtAddr,
    kind: AccessKind,
    now: u64,
    done: u64,
}

/// Records every access the core makes, forwarding to the hierarchy.
struct Recorder<'a, 'w> {
    inner: &'a mut Hierarchy<'w>,
    log: Vec<Access>,
}

impl MemoryModel for Recorder<'_, '_> {
    fn access(&mut self, pc: u32, vaddr: VirtAddr, kind: AccessKind, now: u64) -> u64 {
        let done = self.inner.access(pc, vaddr, kind, now);
        self.log.push(Access {
            pc,
            vaddr,
            kind,
            now,
            done,
        });
        done
    }
}

/// Host ns per access of a fresh `Hierarchy` fed a recorded chase-cdp
/// access stream through `MemoryModel::access`, with no core.
///
/// The hierarchy is deterministic in its call sequence, so every replayed
/// access must return the completion cycle recorded for it; a divergence
/// is an error.
pub fn hierarchy_replay_ns_per_access(size: Size, seed_arg: u64) -> Result<f64, String> {
    let grid = Grid::new(WorkloadId::ChaseCdp, size, seed_arg)?;
    let cfg = &grid.cells[0].cfg;
    let record_uops = match size {
        Size::Full => 1_500_000,
        Size::Tiny => 20_000,
    };
    let log = {
        let w = grid.build_image(Benchmark::Tpcc1);
        let spec = w.stream.as_ref().ok_or("chase-cdp images stream")?;
        let mut hierarchy = Hierarchy::new(cfg.clone(), &w.space);
        let mut core = Core::new_streaming(cfg.core.clone(), spec.make_source());
        let mut rec = Recorder {
            inner: &mut hierarchy,
            log: Vec::new(),
        };
        core.run_until_retired(&mut rec, record_uops);
        rec.log
    };
    let samples = (0..REPS)
        .map(|_| {
            let w = grid.build_image(Benchmark::Tpcc1);
            let mut hierarchy = Hierarchy::new(cfg.clone(), &w.space);
            let t = Instant::now();
            let mut diverged = 0u64;
            for a in &log {
                let done = hierarchy.access(a.pc, a.vaddr, a.kind, a.now);
                diverged += u64::from(done != a.done);
            }
            let ns = t.elapsed().as_nanos() as f64 / log.len().max(1) as f64;
            if diverged > 0 {
                Err(format!(
                    "hierarchy replay diverged on {diverged} of {} accesses",
                    log.len()
                ))
            } else {
                Ok(ns)
            }
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(samples))
}

/// The `microbench` keys this benchmark reports, with their metric names.
pub const MICROBENCH_KEYS: [(&str, &str); 7] = [
    ("cache_access_hit_ns", "cdp-mem.cache_access_hit_ns"),
    ("cache_fill_evict_ns", "cdp-mem.cache_fill_evict_ns"),
    ("phys_read_line_into_ns", "cdp-mem.phys_read_line_into_ns"),
    ("mshr_insert_drain_ns", "cdp-mem.mshr_insert_drain_ns"),
    ("vam_scan_line_ns", "cdp-prefetch.vam_scan_line_ns"),
    ("uop_gen_ns", "cdp-workloads.uop_gen_ns"),
    ("snapshot_encode_ns", "cdp-snap.snapshot_encode_ns"),
];

/// Runs the repository's `microbench` binary once and returns the
/// kernels in [`MICROBENCH_KEYS`] under their metric names.
pub fn microbench(binary: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let out = std::process::Command::new(binary)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", binary.display(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("microbench printed nothing")?;
    let doc = cdp_obs::Json::parse(line).map_err(|e| format!("microbench output: {e}"))?;
    MICROBENCH_KEYS
        .iter()
        .map(|&(key, name)| {
            doc.get(key)
                .and_then(cdp_obs::Json::as_f64)
                .map(|v| (name, v))
                .ok_or_else(|| format!("microbench output lacks {key}"))
        })
        .collect()
}
