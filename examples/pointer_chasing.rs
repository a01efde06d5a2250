//! Pointer chasing under the microscope: build a bare linked list, watch
//! the content prefetcher chase it, and compare heap layouts.
//!
//! Demonstrates the paper's core mechanism at the smallest possible scale:
//! the VAM heuristic finds next pointers in fill data, chains run ahead of
//! the program, and an aged (shuffled) heap is exactly the regime where
//! the stride prefetcher fails but content-directed prefetching works.
//!
//! ```text
//! cargo run --release --example pointer_chasing
//! ```

use cdp::core::Program;
use cdp::mem::AddressSpace;
use cdp::sim::{speedup, Simulator};
use cdp::types::rng::Rng;
use cdp::types::SystemConfig;
use cdp::workloads::structures::build_list;
use cdp::workloads::suite::{Suite, Workload};
use cdp::workloads::{Heap, TraceBuilder};

/// Builds a workload that does nothing but walk a linked list end to end,
/// with `alu_per_node` dependent work uops per node.
fn list_walk(nodes: usize, node_size: usize, shuffle: bool, passes: usize) -> Workload {
    let mut space = AddressSpace::new();
    let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 26);
    let mut rng = Rng::seed_from_u64(7);
    let list = build_list(&mut space, &mut heap, &mut rng, nodes, node_size, shuffle);
    let mut tb = TraceBuilder::new();
    for _ in 0..passes {
        tb.chase(1, &list.nodes, 1, 12);
    }
    let program: Program = tb.build();
    Workload {
        name: format!(
            "list-walk({nodes} x {node_size}B, {})",
            if shuffle { "aged heap" } else { "fresh heap" }
        ),
        suite: Suite::Workstation,
        program,
        space,
        stream: None,
    }
}

fn measure(w: &Workload) {
    let base = Simulator::new(SystemConfig::asplos2002()).run(w);
    let cdp = Simulator::new(SystemConfig::with_content()).run(w);
    println!("--- {}", w.name);
    println!(
        "  baseline: {:>9} cycles (MPTU {:>6.1}, stride issued {})",
        base.cycles,
        base.mptu(),
        base.mem.stride.issued
    );
    println!(
        "  with CDP: {:>9} cycles -> speedup {:.3}",
        cdp.cycles,
        speedup(&base, &cdp)
    );
    println!(
        "  CDP: issued {} / useful {} full + {} partial / scans {} / rescans {}",
        cdp.mem.content.issued,
        cdp.mem.content.useful_full,
        cdp.mem.content.useful_partial,
        cdp.content.map(|c| c.fills_scanned).unwrap_or(0),
        cdp.mem.rescans,
    );
}

fn main() {
    println!("Content-directed prefetching on a bare linked-list walk\n");

    // A fresh heap: allocation order == traversal order, one node per
    // cache line. The walk misses like a constant-stride array scan, which
    // the baseline's stride prefetcher already predicts.
    measure(&list_walk(30_000, 64, false, 3));
    println!();

    // An aged heap: traversal hops between allocation neighborhoods.
    // Stride prediction fails; only reading the pointers out of the fill
    // data can stay ahead of the walk.
    measure(&list_walk(30_000, 64, true, 3));
}
