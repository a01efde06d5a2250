//! Uop-trace generation.
//!
//! [`TraceBuilder`] turns resident data structures into executable traces.
//! Every emitter takes a `site` identifier that anchors the program
//! counters of the uops it emits: repeated invocations of the same site
//! reuse the same PCs, exactly like a static loop in compiled code — which
//! is what lets the stride prefetcher's PC-indexed table and the gshare
//! predictor train across iterations.
//!
//! Register conventions (out of the [`cdp_core::NUM_REGS`] pool):
//! `r1` list cursor, `r2` hash-chain cursor, `r3` hash key, `r4` tree
//! cursor, `r5` stride index, `r8..r15` scratch destinations.

use std::collections::VecDeque;

use cdp_core::{Program, Uop};
use cdp_types::rng::Rng;
use cdp_types::VirtAddr;

use crate::structures::{
    BinaryTree, DoublyLinkedList, Graph, HashTable, ADJ_PTR_OFFSET, LEFT_OFFSET, NEXT_OFFSET,
    PREV_OFFSET, RIGHT_OFFSET,
};

const R_LIST: u8 = 1;
const R_LIST2: u8 = 7;
const R_HASH: u8 = 2;
const R_KEY: u8 = 3;
const R_TREE: u8 = 4;
const R_SCRATCH: u8 = 8;
const SCRATCH_REGS: u8 = 8;

/// Builds dependency-annotated uop traces against resident structures.
///
/// # Examples
///
/// ```
/// use cdp_workloads::TraceBuilder;
///
/// let mut tb = TraceBuilder::new();
/// tb.alu_burst(0, 10);
/// let program = tb.build();
/// assert_eq!(program.len(), 10);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    uops: VecDeque<Uop>,
    scratch_rr: u8,
}

impl TraceBuilder {
    /// Creates an empty trace.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Uops emitted so far.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Finalizes the trace. The buffer becomes the program's `Vec` in
    /// place: it was only ever pushed at the back, so it starts at the
    /// front of its allocation and nothing moves.
    pub fn build(self) -> Program {
        Program::new(self.uops.into())
    }

    /// Swaps the builder's uop buffer with `buf`. Streaming generation
    /// swaps the core's window in, emits onto its end and swaps it back
    /// out, so each uop is written once, into the window. The
    /// scratch-register rotation stays with the builder, so it continues
    /// the exact uop stream a single long build would emit.
    pub(crate) fn swap_buffer(&mut self, buf: &mut VecDeque<Uop>) {
        std::mem::swap(&mut self.uops, buf);
    }

    /// The scratch-register rotation cursor (streaming checkpoint state).
    pub fn scratch_cursor(&self) -> u8 {
        self.scratch_rr
    }

    /// Restores the rotation cursor saved by [`TraceBuilder::scratch_cursor`].
    pub fn set_scratch_cursor(&mut self, cursor: u8) {
        self.scratch_rr = cursor;
    }

    #[inline]
    fn pc(site: u32, local: u32) -> u32 {
        site.wrapping_mul(256).wrapping_add(local * 4)
    }

    #[inline]
    fn scratch(&mut self) -> u8 {
        let r = R_SCRATCH + (self.scratch_rr % SCRATCH_REGS);
        self.scratch_rr = self.scratch_rr.wrapping_add(1);
        r
    }

    /// Emits `n` independent single-cycle ALU uops.
    pub fn alu_burst(&mut self, site: u32, n: usize) {
        for i in 0..n {
            self.uops
                .push_back(Uop::alu(Self::pc(site, (i % 16) as u32)));
        }
    }

    /// Emits `n` independent floating-point uops of `latency` cycles.
    pub fn fp_burst(&mut self, site: u32, n: usize, latency: u8) {
        for i in 0..n {
            let dst = self.scratch();
            self.uops.push_back(Uop {
                pc: Self::pc(site, (i % 16) as u32),
                kind: cdp_core::UopKind::Fp { latency },
                dst: Some(dst),
                srcs: [None, None],
            });
        }
    }

    /// Walks `nodes` (a traversal-ordered slice of list nodes), loading
    /// each node's `next` pointer through the list-cursor register so the
    /// loads serialize, plus `payload_loads` dependent payload loads and
    /// `alu_per_node` dependent ALU uops per node, closed by a
    /// loop-back branch (taken until the final node).
    pub fn chase(
        &mut self,
        site: u32,
        nodes: &[VirtAddr],
        payload_loads: usize,
        alu_per_node: usize,
    ) {
        for (i, &node) in nodes.iter().enumerate() {
            // r1 = load [r1 + NEXT_OFFSET]  (address known: node)
            self.uops.push_back(Uop::load(
                Self::pc(site, 0),
                VirtAddr(node.0 + NEXT_OFFSET),
                R_LIST,
                Some(R_LIST),
            ));
            for p in 0..payload_loads {
                let dst = self.scratch();
                self.uops.push_back(Uop::load(
                    Self::pc(site, 1 + p as u32),
                    VirtAddr(node.0 + 8 + 4 * p as u32),
                    dst,
                    Some(R_LIST),
                ));
            }
            for a in 0..alu_per_node {
                let dst = self.scratch();
                self.uops.push_back(Uop::alu_dep(
                    Self::pc(site, 10 + a as u32),
                    dst,
                    [Some(R_LIST), None],
                    1,
                ));
            }
            // Loop branch: taken except on the last node.
            self.uops.push_back(Uop::branch(
                Self::pc(site, 30),
                i + 1 < nodes.len(),
                Some(R_LIST),
            ));
        }
    }

    /// Walks a doubly linked list segment *backwards* through the `prev`
    /// pointers — the traversal direction where previous-line width
    /// prefetching would pay (Figure 9's `p` axis).
    pub fn chase_back(
        &mut self,
        site: u32,
        dlist: &DoublyLinkedList,
        start_index: usize,
        count: usize,
        alu_per_node: usize,
    ) {
        let start = start_index.min(dlist.nodes.len() - 1);
        let steps = count.min(start + 1);
        for k in 0..steps {
            let node = dlist.nodes[start - k];
            self.uops.push_back(Uop::load(
                Self::pc(site, 0),
                VirtAddr(node.0 + PREV_OFFSET),
                R_LIST,
                Some(R_LIST),
            ));
            for a in 0..alu_per_node {
                let dst = self.scratch();
                self.uops.push_back(Uop::alu_dep(
                    Self::pc(site, 10 + a as u32),
                    dst,
                    [Some(R_LIST), None],
                    1,
                ));
            }
            self.uops
                .push_back(Uop::branch(Self::pc(site, 30), k + 1 < steps, Some(R_LIST)));
        }
    }

    /// Walks two list segments concurrently, alternating nodes between
    /// two independent cursor registers. This models the memory-level
    /// parallelism of real pointer codes (e.g. a netlist simulator
    /// following several fanout pointers): the out-of-order core can
    /// overlap the two chains' misses.
    pub fn chase_interleaved(
        &mut self,
        site: u32,
        seg_a: &[VirtAddr],
        seg_b: &[VirtAddr],
        payload_loads: usize,
        alu_per_node: usize,
    ) {
        let n = seg_a.len().max(seg_b.len());
        for i in 0..n {
            for (lane, (seg, reg)) in [(seg_a, R_LIST), (seg_b, R_LIST2)].iter().enumerate() {
                let Some(&node) = seg.get(i) else { continue };
                let lane = lane as u32;
                self.uops.push_back(Uop::load(
                    Self::pc(site, lane * 40),
                    VirtAddr(node.0 + NEXT_OFFSET),
                    *reg,
                    Some(*reg),
                ));
                for p in 0..payload_loads {
                    let dst = self.scratch();
                    self.uops.push_back(Uop::load(
                        Self::pc(site, lane * 40 + 1 + p as u32),
                        VirtAddr(node.0 + 8 + 4 * p as u32),
                        dst,
                        Some(*reg),
                    ));
                }
                for a in 0..alu_per_node {
                    let dst = self.scratch();
                    self.uops.push_back(Uop::alu_dep(
                        Self::pc(site, lane * 40 + 10 + a as u32),
                        dst,
                        [Some(*reg), None],
                        1,
                    ));
                }
                self.uops.push_back(Uop::branch(
                    Self::pc(site, lane * 40 + 39),
                    i + 1 < seg.len(),
                    Some(*reg),
                ));
            }
        }
    }

    /// Scans `count` elements starting at `base` with a fixed byte
    /// `stride`: one load + `alu_per_elem` ALU uops + a loop branch per
    /// element, all from one PC so the stride prefetcher can lock on.
    pub fn stride_scan(
        &mut self,
        site: u32,
        base: VirtAddr,
        stride: i64,
        count: usize,
        alu_per_elem: usize,
    ) {
        for i in 0..count {
            let addr = base.offset(stride * i as i64);
            let dst = self.scratch();
            self.uops
                .push_back(Uop::load(Self::pc(site, 0), addr, dst, Some(5)));
            self.uops
                .push_back(Uop::alu_dep(Self::pc(site, 1), 5, [Some(5), None], 1));
            for a in 0..alu_per_elem {
                let d2 = self.scratch();
                self.uops.push_back(Uop::alu_dep(
                    Self::pc(site, 2 + a as u32),
                    d2,
                    [Some(dst), None],
                    1,
                ));
            }
            self.uops
                .push_back(Uop::branch(Self::pc(site, 30), i + 1 < count, Some(5)));
        }
    }

    /// Emits `probes` hash-table lookups: hash computation, a dependent
    /// bucket-head load, then a walk of the resident chain with a compare
    /// branch per node (data-dependent, hence poorly predictable).
    pub fn hash_probe(&mut self, site: u32, table: &HashTable, probes: usize, rng: &mut Rng) {
        self.hash_probe_hot(site, table, probes, rng, 0.0);
    }

    /// [`TraceBuilder::hash_probe`] with a hot set: with probability
    /// `p_hot` the probe targets the first 1/8th of the buckets, modeling
    /// the skewed key popularity of real transaction workloads.
    pub fn hash_probe_hot(
        &mut self,
        site: u32,
        table: &HashTable,
        probes: usize,
        rng: &mut Rng,
        p_hot: f64,
    ) {
        self.hash_probe_hot_frac(site, table, probes, rng, p_hot, 1.0 / 16.0)
    }

    /// [`TraceBuilder::hash_probe_hot`] with an explicit hot-set size:
    /// the hot region is the first `hot_frac` of the buckets. Sizing the
    /// hot set between the L2 capacities under study is what produces
    /// capacity (rather than purely compulsory) miss behavior.
    pub fn hash_probe_hot_frac(
        &mut self,
        site: u32,
        table: &HashTable,
        probes: usize,
        rng: &mut Rng,
        p_hot: f64,
        hot_frac: f64,
    ) {
        let hot = ((table.bucket_count as f64 * hot_frac) as usize).clamp(1, table.bucket_count);
        for _ in 0..probes {
            let b = if p_hot > 0.0 && rng.gen_bool(p_hot.clamp(0.0, 1.0)) {
                rng.gen_range_usize(0..hot)
            } else {
                rng.gen_range_usize(0..table.bucket_count)
            };
            // Hash computation: 2 dependent ALU ops into the key register.
            self.uops.push_back(Uop::alu_dep(
                Self::pc(site, 0),
                R_KEY,
                [Some(R_KEY), None],
                1,
            ));
            self.uops.push_back(Uop::alu_dep(
                Self::pc(site, 1),
                R_KEY,
                [Some(R_KEY), None],
                1,
            ));
            // Bucket head load (indexed by the hash).
            let head_addr = VirtAddr(table.buckets.0 + b as u32 * 4);
            self.uops
                .push_back(Uop::load(Self::pc(site, 2), head_addr, R_HASH, Some(R_KEY)));
            // Walk the chain that is actually resident in the image.
            let chain = &table.chains[b];
            let walked = chain.len();
            for (i, &node) in chain.iter().enumerate() {
                // Key compare: load node key, hash/compare work, branch.
                let dst = self.scratch();
                self.uops
                    .push_back(Uop::load(Self::pc(site, 3), node, dst, Some(R_HASH)));
                for a in 0..4u32 {
                    let d2 = self.scratch();
                    self.uops.push_back(Uop::alu_dep(
                        Self::pc(site, 8 + a),
                        d2,
                        [Some(dst), None],
                        1,
                    ));
                }
                self.uops.push_back(Uop::branch(
                    Self::pc(site, 4),
                    i + 1 < walked && rng.gen_bool(0.7),
                    Some(dst),
                ));
                if i + 1 < walked {
                    self.uops.push_back(Uop::load(
                        Self::pc(site, 5),
                        VirtAddr(node.0 + NEXT_OFFSET),
                        R_HASH,
                        Some(R_HASH),
                    ));
                }
            }
        }
    }

    /// Emits `descents` random root-to-leaf walks of a binary tree: a key
    /// compare and a dependent child-pointer load per level. Branch
    /// directions are data-dependent (random), so the front end pays real
    /// misprediction penalties, as in search-heavy pointer codes.
    pub fn tree_search(&mut self, site: u32, tree: &BinaryTree, descents: usize, rng: &mut Rng) {
        for _ in 0..descents {
            let mut idx = 0usize;
            loop {
                let node = tree.nodes[idx];
                // Load key (dependent on cursor), compare-branch.
                let dst = self.scratch();
                self.uops
                    .push_back(Uop::load(Self::pc(site, 0), node, dst, Some(R_TREE)));
                let go_right = rng.gen_bool(0.5);
                self.uops
                    .push_back(Uop::branch(Self::pc(site, 1), go_right, Some(dst)));
                let (child_idx, offset) = if go_right {
                    (2 * idx + 2, RIGHT_OFFSET)
                } else {
                    (2 * idx + 1, LEFT_OFFSET)
                };
                if child_idx >= tree.nodes.len() {
                    break;
                }
                self.uops.push_back(Uop::load(
                    Self::pc(site, 2),
                    VirtAddr(node.0 + offset),
                    R_TREE,
                    Some(R_TREE),
                ));
                idx = child_idx;
            }
        }
    }

    /// Walks `count` hops of an index-linked array starting at traversal
    /// position `start`: per hop, a dependent index load, two dependent
    /// address-computation ALU uops, `alu_extra` work uops, and a loop
    /// branch. Serializes like a pointer chase, but the fill contents are
    /// indices the VAM heuristic rejects.
    pub fn index_chase(
        &mut self,
        site: u32,
        arr: &crate::structures::IndexArray,
        start: usize,
        count: usize,
        alu_extra: usize,
    ) {
        let n = arr.order.len();
        for k in 0..count.min(n) {
            let idx = arr.order[(start + k) % n];
            let addr = arr.elem_addr(idx);
            // r6 = load [elem]; address depends on r6 (prior index).
            self.uops
                .push_back(Uop::load(Self::pc(site, 0), addr, 6, Some(6)));
            // Address computation: next = base + idx * size.
            self.uops
                .push_back(Uop::alu_dep(Self::pc(site, 1), 6, [Some(6), None], 1));
            self.uops
                .push_back(Uop::alu_dep(Self::pc(site, 2), 6, [Some(6), None], 1));
            for a in 0..alu_extra {
                let dst = self.scratch();
                self.uops.push_back(Uop::alu_dep(
                    Self::pc(site, 3 + a as u32),
                    dst,
                    [Some(6), None],
                    1,
                ));
            }
            self.uops.push_back(Uop::branch(
                Self::pc(site, 30),
                k + 1 < count.min(n),
                Some(6),
            ));
        }
    }

    /// Emits `steps` hops of a random graph walk starting at node
    /// `start`: per hop, a dependent adjacency-pointer load, a dependent
    /// edge load (picking the successor the generator chose), `alu` work
    /// uops, and a data-dependent branch. Alternates node lines and
    /// adjacency-array lines — both pointer-rich, so the content
    /// prefetcher can run ahead on either.
    pub fn graph_walk(
        &mut self,
        site: u32,
        graph: &Graph,
        start: u32,
        steps: usize,
        alu: usize,
        rng: &mut Rng,
    ) {
        const R_GRAPH: u8 = 4;
        let mut cur = start as usize % graph.nodes.len();
        for k in 0..steps {
            let node = graph.nodes[cur];
            // Load the adjacency pointer (dependent on the cursor).
            self.uops.push_back(Uop::load(
                Self::pc(site, 0),
                VirtAddr(node.0 + ADJ_PTR_OFFSET),
                R_GRAPH,
                Some(R_GRAPH),
            ));
            let adj = &graph.adjacency[cur];
            if adj.is_empty() {
                break;
            }
            let pick = rng.gen_range_usize(0..adj.len());
            // Load the chosen edge slot out of the adjacency array
            // (dependent on the adjacency pointer): its data is the next
            // node's address, serializing the walk.
            self.uops.push_back(Uop::load(
                Self::pc(site, 1),
                VirtAddr(graph.adj_arrays[cur].0 + 4 * pick as u32),
                R_GRAPH,
                Some(R_GRAPH),
            ));
            for a in 0..alu {
                let dst = self.scratch();
                self.uops.push_back(Uop::alu_dep(
                    Self::pc(site, 2 + a as u32),
                    dst,
                    [Some(R_GRAPH), None],
                    1,
                ));
            }
            self.uops.push_back(Uop::branch(
                Self::pc(site, 30),
                k + 1 < steps && rng.gen_bool(0.8),
                Some(R_GRAPH),
            ));
            cur = adj[pick] as usize;
        }
    }

    /// Emits `n` stores to consecutive slots of a buffer (write traffic;
    /// write-allocate misses fetch lines like loads).
    pub fn store_burst(&mut self, site: u32, base: VirtAddr, stride: i64, n: usize) {
        for i in 0..n {
            let addr = base.offset(stride * i as i64);
            self.uops
                .push_back(Uop::store(Self::pc(site, 0), addr, None, Some(6)));
            self.uops
                .push_back(Uop::alu_dep(Self::pc(site, 1), 6, [Some(6), None], 1));
        }
    }

    /// Emits `n` branches of which roughly `noise` fraction are random
    /// (unpredictable) and the rest always-taken.
    pub fn branch_noise(&mut self, site: u32, n: usize, noise: f64, rng: &mut Rng) {
        for _ in 0..n {
            let taken = if rng.gen_bool(noise.clamp(0.0, 1.0)) {
                rng.gen_bool(0.5)
            } else {
                true
            };
            self.uops
                .push_back(Uop::branch(Self::pc(site, 0), taken, None));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::structures::{build_binary_tree, build_hash_table, build_list};
    use cdp_core::UopKind;
    use cdp_mem::AddressSpace;

    fn setup() -> (AddressSpace, Heap, Rng) {
        (
            AddressSpace::new(),
            Heap::new(Heap::DEFAULT_BASE, 1 << 24),
            Rng::seed_from_u64(1),
        )
    }

    #[test]
    fn chase_serializes_through_list_register() {
        let (mut space, mut heap, mut rng) = setup();
        let list = build_list(&mut space, &mut heap, &mut rng, 10, 24, true);
        let mut tb = TraceBuilder::new();
        tb.chase(1, &list.nodes, 1, 2);
        let p = tb.build();
        // Every next-pointer load reads and writes r1.
        let next_loads: Vec<&Uop> = p
            .uops
            .iter()
            .filter(|u| matches!(u.kind, UopKind::Load { .. }) && u.dst == Some(1))
            .collect();
        assert_eq!(next_loads.len(), 10);
        for u in next_loads {
            assert_eq!(u.srcs[0], Some(1));
        }
        // Addresses follow the traversal order.
        let addrs: Vec<u32> = p
            .uops
            .iter()
            .filter_map(|u| match u.kind {
                UopKind::Load { vaddr } if u.dst == Some(1) => Some(vaddr.0 - NEXT_OFFSET),
                _ => None,
            })
            .collect();
        let expect: Vec<u32> = list.nodes.iter().map(|n| n.0).collect();
        assert_eq!(addrs, expect);
    }

    #[test]
    fn chase_loop_branch_taken_until_last() {
        let (mut space, mut heap, mut rng) = setup();
        let list = build_list(&mut space, &mut heap, &mut rng, 5, 24, false);
        let mut tb = TraceBuilder::new();
        tb.chase(1, &list.nodes, 0, 0);
        let p = tb.build();
        let outcomes: Vec<bool> = p
            .uops
            .iter()
            .filter_map(|u| match u.kind {
                UopKind::Branch { taken } => Some(taken),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes, vec![true, true, true, true, false]);
    }

    #[test]
    fn stride_scan_uses_one_pc_and_fixed_stride() {
        let mut tb = TraceBuilder::new();
        tb.stride_scan(3, VirtAddr(0x2000_0000), 64, 8, 1);
        let p = tb.build();
        let loads: Vec<&Uop> = p
            .uops
            .iter()
            .filter(|u| matches!(u.kind, UopKind::Load { .. }))
            .collect();
        assert_eq!(loads.len(), 8);
        let pc0 = loads[0].pc;
        assert!(loads.iter().all(|u| u.pc == pc0), "single static load PC");
        for (i, u) in loads.iter().enumerate() {
            assert_eq!(u.vaddr().unwrap().0, 0x2000_0000 + 64 * i as u32);
        }
    }

    #[test]
    fn hash_probe_walks_resident_chains() {
        let (mut space, mut heap, mut rng) = setup();
        let ht = build_hash_table(&mut space, &mut heap, &mut rng, 8, 64, 24);
        let mut tb = TraceBuilder::new();
        let mut rng2 = Rng::seed_from_u64(2);
        tb.hash_probe(5, &ht, 10, &mut rng2);
        let p = tb.build();
        assert!(p.num_loads() >= 10, "at least the bucket-head loads");
        assert!(p.num_branches() > 0);
    }

    #[test]
    fn tree_search_descends_to_leaves() {
        let (mut space, mut heap, mut rng) = setup();
        let tree = build_binary_tree(&mut space, &mut heap, &mut rng, 4, 32);
        let mut tb = TraceBuilder::new();
        let mut rng2 = Rng::seed_from_u64(3);
        tb.tree_search(6, &tree, 5, &mut rng2);
        let p = tb.build();
        // 4 levels: 4 key loads + 3 child loads per descent.
        assert_eq!(p.num_loads(), 5 * (4 + 3));
        assert_eq!(p.num_branches(), 5 * 4);
    }

    #[test]
    fn chase_back_walks_prev_pointers() {
        let (mut space, mut heap, mut rng) = setup();
        let dl = crate::structures::build_dlist(&mut space, &mut heap, &mut rng, 20, 24, false);
        let mut tb = TraceBuilder::new();
        tb.chase_back(2, &dl, 19, 10, 1);
        let p = tb.build();
        assert_eq!(p.num_loads(), 10);
        let addrs: Vec<u32> = p
            .uops
            .iter()
            .filter_map(|u| u.vaddr())
            .map(|a| a.0 - PREV_OFFSET)
            .collect();
        let expect: Vec<u32> = (0..10).map(|k| dl.nodes[19 - k].0).collect();
        assert_eq!(addrs, expect, "visits run tail-ward");
        // Clamping: starting past the head walks what exists.
        let mut tb2 = TraceBuilder::new();
        tb2.chase_back(2, &dl, 3, 100, 0);
        assert_eq!(tb2.build().num_loads(), 4);
    }

    #[test]
    fn graph_walk_emits_dependent_hops() {
        let (mut space, mut heap, mut rng) = setup();
        let g = crate::structures::build_graph(&mut space, &mut heap, &mut rng, 32, 3, 24);
        let mut tb = TraceBuilder::new();
        let mut rng2 = Rng::seed_from_u64(5);
        tb.graph_walk(9, &g, 0, 20, 2, &mut rng2);
        let p = tb.build();
        assert_eq!(p.num_loads(), 40, "two loads per hop");
        // Every load reads and writes the graph cursor register.
        for u in p.uops.iter().filter(|u| u.is_mem()) {
            assert_eq!(u.dst, Some(4));
            assert_eq!(u.srcs[0], Some(4));
        }
    }

    #[test]
    fn store_burst_counts() {
        let mut tb = TraceBuilder::new();
        tb.store_burst(7, VirtAddr(0x3000_0000), 64, 12);
        let p = tb.build();
        assert_eq!(p.num_stores(), 12);
    }

    #[test]
    fn branch_noise_mixes_outcomes() {
        let mut tb = TraceBuilder::new();
        let mut rng = Rng::seed_from_u64(4);
        tb.branch_noise(8, 200, 0.5, &mut rng);
        let p = tb.build();
        let taken = p
            .uops
            .iter()
            .filter(|u| matches!(u.kind, UopKind::Branch { taken: true }))
            .count();
        assert!((100..200).contains(&taken), "taken {taken}");
    }

    #[test]
    fn sites_produce_disjoint_pcs() {
        let mut tb = TraceBuilder::new();
        tb.alu_burst(1, 4);
        tb.alu_burst(2, 4);
        let p = tb.build();
        let (a, b) = (p.uops[0].pc, p.uops[4].pc);
        assert_ne!(a, b);
    }
}
