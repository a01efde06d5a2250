//! Building your own workload: a random-graph walker assembled from the
//! public API — heap, graph builder, trace builder — then run under four
//! memory-system configurations, including the adaptive controller
//! (the paper's §4.1 future work).
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use cdp::core::Program;
use cdp::mem::AddressSpace;
use cdp::sim::{speedup, Simulator};
use cdp::types::rng::Rng;
use cdp::types::{AdaptiveConfig, StreamConfig, SystemConfig};
use cdp::workloads::structures::build_graph;
use cdp::workloads::suite::{Suite, Workload};
use cdp::workloads::{Heap, TraceBuilder};

fn main() {
    // 1. A 60k-node random graph (~2.5 MB of nodes + adjacency arrays).
    let mut space = AddressSpace::new();
    let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 26).with_padding(8);
    let mut rng = Rng::seed_from_u64(2002);
    let graph = build_graph(&mut space, &mut heap, &mut rng, 60_000, 4, 32);

    // 2. A trace of random walks: 600 walks x 120 hops, with hot restarts.
    let mut tb = TraceBuilder::new();
    for _ in 0..600 {
        let start = if rng.gen_bool(0.7) {
            rng.gen_range_u32(0..4_000) // hot community
        } else {
            rng.gen_range_u32(0..graph.nodes.len() as u32)
        };
        tb.graph_walk(3, &graph, start, 120, 6, &mut rng);
        tb.alu_burst(4, 64);
    }
    let program: Program = tb.build();
    let workload = Workload {
        name: "graph-walk(60k nodes, degree 4)".into(),
        suite: Suite::Workstation,
        program,
        space,
        // A hand-built trace is materialized up front; only the suite's
        // large/huge tiers synthesize uops through a streaming source.
        stream: None,
    };
    println!(
        "workload: {} ({} uops, {} loads)\n",
        workload.name,
        workload.program.len(),
        workload.program.num_loads()
    );

    // 3. Four memory systems.
    let base = Simulator::new(SystemConfig::asplos2002()).run(&workload);
    println!(
        "{:32} {:>10} cycles  (MPTU {:>5.1})",
        "stride baseline",
        base.cycles,
        base.mptu()
    );

    let mut stream_cfg = SystemConfig::asplos2002();
    stream_cfg.prefetchers.stream = Some(StreamConfig::default());
    let streams = Simulator::new(stream_cfg).run(&workload);
    println!(
        "{:32} {:>10} cycles  speedup {:.3}",
        "+ stream buffers",
        streams.cycles,
        speedup(&base, &streams)
    );

    let content = Simulator::new(SystemConfig::with_content()).run(&workload);
    println!(
        "{:32} {:>10} cycles  speedup {:.3}",
        "+ content prefetcher",
        content.cycles,
        speedup(&base, &content)
    );

    let mut adaptive_cfg = SystemConfig::with_content();
    adaptive_cfg.prefetchers.adaptive = Some(AdaptiveConfig::default());
    let adaptive = Simulator::new(adaptive_cfg).run(&workload);
    let steering = adaptive
        .adaptive
        .map(|(st, c)| {
            format!(
                "steered to N={} n={} after {} windows",
                c.vam.compare_bits, c.next_lines, st.windows
            )
        })
        .unwrap_or_default();
    println!(
        "{:32} {:>10} cycles  speedup {:.3}  ({steering})",
        "+ content, adaptive knobs",
        adaptive.cycles,
        speedup(&base, &adaptive)
    );

    println!(
        "\ncontent prefetcher: {} issued, {} useful ({} full / {} partial)",
        content.mem.content.issued,
        content.mem.content.useful(),
        content.mem.content.useful_full,
        content.mem.content.useful_partial
    );
}
