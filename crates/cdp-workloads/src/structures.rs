//! Linked data structure builders.
//!
//! Each builder writes a real structure — next pointers, child pointers,
//! bucket arrays, payload fields — into the byte-level memory image. The
//! content prefetcher later *reads these exact bytes* out of cache fills,
//! so structure layout (pointer offsets, node sizes, allocation order)
//! directly controls what the VAM heuristic can find.

use cdp_mem::AddressSpace;
use cdp_types::rng::Rng;
use cdp_types::VirtAddr;

use crate::heap::Heap;

/// Byte offset of the `next` pointer within every list/chain node built by
/// this module (the first field is a 4-byte payload header, mimicking the
/// `struct x { char a; struct x *next; }` example of §3.3 after padding).
pub const NEXT_OFFSET: u32 = 4;

/// Fills a node's payload bytes with plausible non-pointer data: small
/// integers and flag words that the VAM heuristic should reject.
fn fill_payload(space: &mut AddressSpace, node: VirtAddr, size: usize, rng: &mut Rng) {
    let mut off = 8; // skip header + next pointer
    while off + 4 <= size {
        let value: u32 = match rng.gen_range_u8(0..4) {
            0 => rng.gen_range_u32(0..4096),   // small int
            1 => rng.next_u32() & 0x0000_ffff, // 16-bit quantity
            2 => 0,                            // zeroed field
            _ => rng.next_u32() | 0x8000_0001, // odd/negative junk
        };
        space.write_u32(VirtAddr(node.0 + off as u32), value);
        off += 4;
    }
}

/// A singly linked list resident in the image.
#[derive(Debug, Clone)]
pub struct LinkedList {
    /// First node.
    pub head: VirtAddr,
    /// Node addresses in traversal order (head first).
    pub nodes: Vec<VirtAddr>,
    /// Node size in bytes.
    pub node_size: usize,
}

/// Traversal-order window used by the aged-heap shuffle: nodes are
/// reordered within windows of this many allocation-order neighbors, and
/// the windows themselves are visited in random order. Allocation
/// clustering survives (a window spans only a handful of cache lines —
/// which is what makes the paper's next-line width prefetching pay off),
/// while the window-to-window jumps defeat stride prediction.
pub const SHUFFLE_WINDOW: usize = 16;

/// Builds a singly linked list of `count` nodes of `node_size` bytes.
///
/// With `shuffle = false` nodes are laid out in allocation (= traversal)
/// order, giving the list stride-like spatial locality; with
/// `shuffle = true` the traversal order is an aged-heap permutation:
/// random within [`SHUFFLE_WINDOW`]-node allocation neighborhoods, and
/// random across neighborhoods. Only content-directed prefetching can
/// follow such a chain, but short-range spatial locality (nodes sharing
/// or neighboring cache lines) is preserved, as in real allocators.
///
/// # Panics
///
/// Panics if `count` is zero or `node_size < 8` (header + next pointer).
pub fn build_list(
    space: &mut AddressSpace,
    heap: &mut Heap,
    rng: &mut Rng,
    count: usize,
    node_size: usize,
    shuffle: bool,
) -> LinkedList {
    assert!(count > 0, "list needs at least one node");
    assert!(node_size >= 8, "node must hold header + next pointer");
    let mut nodes: Vec<VirtAddr> = (0..count)
        .map(|_| heap.alloc_padded(space, node_size, rng))
        .collect();
    if shuffle {
        let mut windows: Vec<Vec<VirtAddr>> = nodes
            .chunks(SHUFFLE_WINDOW)
            .map(|w| {
                let mut w = w.to_vec();
                rng.shuffle(&mut w);
                w
            })
            .collect();
        rng.shuffle(&mut windows);
        nodes = windows.into_iter().flatten().collect();
    }
    for i in 0..count {
        let next = if i + 1 < count {
            nodes[i + 1].0
        } else {
            0 // null terminator
        };
        let node = nodes[i];
        space.write_u32(node, rng.gen_range_u32(1..256)); // header byte-ish field
        space.write_u32(VirtAddr(node.0 + NEXT_OFFSET), next);
        fill_payload(space, node, node_size, rng);
    }
    LinkedList {
        head: nodes[0],
        nodes,
        node_size,
    }
}

/// A binary tree resident in the image.
#[derive(Debug, Clone)]
pub struct BinaryTree {
    /// Root node.
    pub root: VirtAddr,
    /// All node addresses, in allocation order (level order).
    pub nodes: Vec<VirtAddr>,
    /// Node size in bytes.
    pub node_size: usize,
}

/// Byte offset of the left child pointer in tree nodes.
pub const LEFT_OFFSET: u32 = 4;
/// Byte offset of the right child pointer in tree nodes.
pub const RIGHT_OFFSET: u32 = 8;

/// Builds a complete binary tree with `levels` levels (`2^levels - 1`
/// nodes). Node layout: `[key, left, right, payload…]`.
///
/// # Panics
///
/// Panics if `levels == 0` or `node_size < 12`.
pub fn build_binary_tree(
    space: &mut AddressSpace,
    heap: &mut Heap,
    rng: &mut Rng,
    levels: u32,
    node_size: usize,
) -> BinaryTree {
    assert!(levels > 0, "tree needs at least one level");
    assert!(node_size >= 12, "node must hold key + two child pointers");
    let count = (1usize << levels) - 1;
    let nodes: Vec<VirtAddr> = (0..count)
        .map(|_| heap.alloc_padded(space, node_size, rng))
        .collect();
    for (i, &node) in nodes.iter().enumerate() {
        let l = 2 * i + 1;
        let r = 2 * i + 2;
        space.write_u32(node, i as u32); // key
        space.write_u32(
            VirtAddr(node.0 + LEFT_OFFSET),
            if l < count { nodes[l].0 } else { 0 },
        );
        space.write_u32(
            VirtAddr(node.0 + RIGHT_OFFSET),
            if r < count { nodes[r].0 } else { 0 },
        );
        let mut off = 12;
        while off + 4 <= node_size {
            space.write_u32(VirtAddr(node.0 + off as u32), rng.gen_range_u32(0..1024));
            off += 4;
        }
    }
    BinaryTree {
        root: nodes[0],
        nodes,
        node_size,
    }
}

/// A chained hash table resident in the image.
#[derive(Debug, Clone)]
pub struct HashTable {
    /// Base of the bucket-head pointer array.
    pub buckets: VirtAddr,
    /// Number of buckets.
    pub bucket_count: usize,
    /// Chain nodes per bucket, in chain order.
    pub chains: Vec<Vec<VirtAddr>>,
    /// Node size in bytes.
    pub node_size: usize,
}

/// Builds a chained hash table: an array of `bucket_count` head pointers
/// plus `items` chain nodes distributed uniformly. This is the paper's
/// "pointer-intensive applications do not strictly utilize recursive
/// pointer paths (e.g. hash tables)" workload shape: one dependent load
/// into the bucket array, then a short chain walk.
pub fn build_hash_table(
    space: &mut AddressSpace,
    heap: &mut Heap,
    rng: &mut Rng,
    bucket_count: usize,
    items: usize,
    node_size: usize,
) -> HashTable {
    assert!(bucket_count > 0, "need at least one bucket");
    assert!(node_size >= 8, "node must hold header + next pointer");
    let buckets = heap.alloc(space, bucket_count * 4);
    let mut chains: Vec<Vec<VirtAddr>> = vec![Vec::new(); bucket_count];
    for _ in 0..items {
        let b = rng.gen_range_usize(0..bucket_count);
        let node = heap.alloc_padded(space, node_size, rng);
        space.write_u32(node, rng.next_u32() & 0xffff); // key fragment
                                                        // Push-front: node.next = current head; head = node.
        let head_addr = VirtAddr(buckets.0 + (b as u32) * 4);
        let old_head = space.read_u32(head_addr);
        space.write_u32(VirtAddr(node.0 + NEXT_OFFSET), old_head);
        space.write_u32(head_addr, node.0);
        fill_payload(space, node, node_size, rng);
        chains[b].insert(0, node);
    }
    HashTable {
        buckets,
        bucket_count,
        chains,
        node_size,
    }
}

/// An index-linked array: elements chain through stored *indices* rather
/// than pointers.
///
/// This models the irregular-but-not-pointer-chasing accesses of real
/// applications (offset-based arenas, index-linked pools, column stores).
/// The traversal is exactly as serial and cache-hostile as a linked list,
/// but the line contents are small integers, so the content prefetcher's
/// VAM heuristic — correctly — finds nothing to chase. The paper observes
/// that "not all irregular loads are caused by pointer-following, and as
/// such, the content prefetcher can not mask all the non-stride based
/// load misses" (§4.2.3); this structure is that residue.
#[derive(Debug, Clone)]
pub struct IndexArray {
    /// Base of the element array.
    pub base: VirtAddr,
    /// Element size in bytes.
    pub elem_size: usize,
    /// Element indices in traversal order (a permutation cycle).
    pub order: Vec<u32>,
}

impl IndexArray {
    /// Address of element `idx`.
    pub fn elem_addr(&self, idx: u32) -> VirtAddr {
        VirtAddr(self.base.0 + idx * self.elem_size as u32)
    }
}

/// Builds an index-linked array of `count` elements of `elem_size` bytes.
/// Each element's first word holds the *index* of the next element in a
/// shuffled permutation cycle; remaining words are small-integer payload.
///
/// # Panics
///
/// Panics if `count == 0` or `elem_size < 8`.
pub fn build_index_array(
    space: &mut AddressSpace,
    heap: &mut Heap,
    rng: &mut Rng,
    count: usize,
    elem_size: usize,
) -> IndexArray {
    assert!(count > 0, "index array needs at least one element");
    assert!(elem_size >= 8, "element must hold an index + payload");
    let base = heap.alloc(space, count * elem_size);
    let mut order: Vec<u32> = (0..count as u32).collect();
    rng.shuffle(&mut order);
    for i in 0..count {
        let this = order[i];
        let next = order[(i + 1) % count];
        let addr = VirtAddr(base.0 + this * elem_size as u32);
        space.write_u32(addr, next);
        let mut off = 4;
        while off + 4 <= elem_size {
            space.write_u32(VirtAddr(addr.0 + off as u32), rng.gen_range_u32(0..65536));
            off += 4;
        }
    }
    IndexArray {
        base,
        elem_size,
        order,
    }
}

/// Byte offset of the `prev` pointer in doubly-linked nodes.
pub const PREV_OFFSET: u32 = 8;

/// A doubly linked list resident in the image.
///
/// Node layout: `[header, next, prev, payload…]`. Backward traversals
/// through `prev` are the access pattern where the paper's
/// *previous-line* width prefetching (the `p` axis of Figure 9) would pay
/// off — Figure 9 shows it does not for their forward-dominated
/// workloads, and [`build_dlist`] lets downstream studies probe the
/// backward case.
#[derive(Debug, Clone)]
pub struct DoublyLinkedList {
    /// First node (forward traversal order).
    pub head: VirtAddr,
    /// Last node.
    pub tail: VirtAddr,
    /// Node addresses in forward traversal order.
    pub nodes: Vec<VirtAddr>,
    /// Node size in bytes.
    pub node_size: usize,
}

/// Builds a doubly linked list of `count` nodes (aged-heap shuffle as in
/// [`build_list`] when `shuffle` is set).
///
/// # Panics
///
/// Panics if `count == 0` or `node_size < 12` (header + two pointers).
pub fn build_dlist(
    space: &mut AddressSpace,
    heap: &mut Heap,
    rng: &mut Rng,
    count: usize,
    node_size: usize,
    shuffle: bool,
) -> DoublyLinkedList {
    assert!(count > 0, "list needs at least one node");
    assert!(node_size >= 12, "node must hold header + next + prev");
    let mut nodes: Vec<VirtAddr> = (0..count)
        .map(|_| heap.alloc_padded(space, node_size, rng))
        .collect();
    if shuffle {
        let mut windows: Vec<Vec<VirtAddr>> = nodes
            .chunks(SHUFFLE_WINDOW)
            .map(|w| {
                let mut w = w.to_vec();
                rng.shuffle(&mut w);
                w
            })
            .collect();
        rng.shuffle(&mut windows);
        nodes = windows.into_iter().flatten().collect();
    }
    for i in 0..count {
        let node = nodes[i];
        let next = if i + 1 < count { nodes[i + 1].0 } else { 0 };
        let prev = if i > 0 { nodes[i - 1].0 } else { 0 };
        space.write_u32(node, rng.gen_range_u32(1..256));
        space.write_u32(VirtAddr(node.0 + NEXT_OFFSET), next);
        space.write_u32(VirtAddr(node.0 + PREV_OFFSET), prev);
        let mut off = 12;
        while off + 4 <= node_size {
            space.write_u32(VirtAddr(node.0 + off as u32), rng.gen_range_u32(0..4096));
            off += 4;
        }
    }
    DoublyLinkedList {
        head: nodes[0],
        tail: *nodes.last().expect("non-empty"),
        nodes,
        node_size,
    }
}

/// A directed graph in adjacency-list form, resident in the image.
///
/// Layout per node: `[key, degree, adj_ptr, payload…]` where `adj_ptr`
/// targets a heap-resident array of `degree` node pointers. Traversals
/// therefore alternate between node lines and adjacency-array lines, both
/// full of VAM-recognizable pointers — the "graph walk" shape of netlist
/// and mesh codes.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Node addresses, index = node id.
    pub nodes: Vec<VirtAddr>,
    /// Adjacency lists (node ids), index = node id.
    pub adjacency: Vec<Vec<u32>>,
    /// Base address of each node's adjacency array.
    pub adj_arrays: Vec<VirtAddr>,
    /// Node size in bytes.
    pub node_size: usize,
}

/// Byte offset of a graph node's degree field.
pub const DEGREE_OFFSET: u32 = 4;
/// Byte offset of a graph node's adjacency-array pointer.
pub const ADJ_PTR_OFFSET: u32 = 8;

/// Builds a random directed graph with `count` nodes of out-degree
/// `degree` (edges chosen uniformly; self-loops permitted but rare).
///
/// # Panics
///
/// Panics if `count == 0` or `node_size < 12`.
pub fn build_graph(
    space: &mut AddressSpace,
    heap: &mut Heap,
    rng: &mut Rng,
    count: usize,
    degree: usize,
    node_size: usize,
) -> Graph {
    assert!(count > 0, "graph needs at least one node");
    assert!(node_size >= 12, "node must hold key + degree + adj pointer");
    let nodes: Vec<VirtAddr> = (0..count)
        .map(|_| heap.alloc_padded(space, node_size, rng))
        .collect();
    let mut adjacency = Vec::with_capacity(count);
    let mut adj_arrays = Vec::with_capacity(count);
    for (i, &node) in nodes.iter().enumerate() {
        let adj: Vec<u32> = (0..degree)
            .map(|_| rng.gen_range_u32(0..count as u32))
            .collect();
        let adj_array = heap.alloc(space, degree.max(1) * 4);
        adj_arrays.push(adj_array);
        for (k, &succ) in adj.iter().enumerate() {
            space.write_u32(VirtAddr(adj_array.0 + 4 * k as u32), nodes[succ as usize].0);
        }
        space.write_u32(node, i as u32);
        space.write_u32(VirtAddr(node.0 + DEGREE_OFFSET), adj.len() as u32);
        space.write_u32(VirtAddr(node.0 + ADJ_PTR_OFFSET), adj_array.0);
        let mut off = 12;
        while off + 4 <= node_size {
            space.write_u32(VirtAddr(node.0 + off as u32), rng.gen_range_u32(0..4096));
            off += 4;
        }
        adjacency.push(adj);
    }
    Graph {
        nodes,
        adjacency,
        adj_arrays,
        node_size,
    }
}

/// A contiguous array region for stride workloads.
#[derive(Debug, Clone)]
pub struct Array {
    /// Base address.
    pub base: VirtAddr,
    /// Length in bytes.
    pub len: usize,
}

/// Builds a contiguous array of `len` bytes filled with non-pointer data
/// (float-looking bit patterns), mapped and ready for stride scans.
pub fn build_array(space: &mut AddressSpace, heap: &mut Heap, rng: &mut Rng, len: usize) -> Array {
    let base = heap.alloc(space, len);
    // Fill sparsely (one word per 64-byte line is enough to materialize
    // pages and give the scanner junk to reject).
    let mut off = 0;
    while off + 4 <= len {
        let bits = (rng.next_f32() * 1e6).to_bits();
        space.write_u32(VirtAddr(base.0 + off as u32), bits);
        off += 64;
    }
    Array { base, len }
}

/// Builds an array like [`build_array`] but without writing a byte: content
/// is synthesized on first touch by the physical backing store's lazy
/// regions, so building stays O(pages) and resident memory stays O(touched
/// pages). Used by the large/huge scale tiers, where eagerly filling the
/// footprint would dominate build time.
///
/// The array is page-aligned so its backing frames are mapped fresh and in
/// order; each physically contiguous run of frames becomes one lazy region
/// (page-table frames interleave with data frames at 4 MB boundaries, so a
/// big array is usually several runs).
pub fn build_array_lazy(
    space: &mut AddressSpace,
    heap: &mut Heap,
    rng: &mut Rng,
    len: usize,
) -> Array {
    use cdp_types::PAGE_SIZE;

    heap.align_next(PAGE_SIZE as u32);
    let base = heap.alloc(space, len);
    debug_assert_eq!(base.0 as usize % PAGE_SIZE, 0);
    let seed = rng.next_u64();

    let mut run_virt = 0usize; // virtual offset where the current run began
    let mut run_phys = space.translate(base).expect("array just mapped");
    let mut off = PAGE_SIZE;
    while off < len {
        let p = space
            .translate(VirtAddr(base.0 + off as u32))
            .expect("array just mapped");
        let expected = run_phys.0 + (off - run_virt) as u32;
        if p.0 != expected {
            space.phys_mut().add_lazy_region(
                run_phys,
                (off - run_virt) as u32,
                seed.wrapping_add(run_virt as u64),
            );
            run_virt = off;
            run_phys = p;
        }
        off += PAGE_SIZE;
    }
    space.phys_mut().add_lazy_region(
        run_phys,
        (len - run_virt) as u32,
        seed.wrapping_add(run_virt as u64),
    );
    Array { base, len }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AddressSpace, Heap, Rng) {
        (
            AddressSpace::new(),
            Heap::new(Heap::DEFAULT_BASE, 1 << 24),
            Rng::seed_from_u64(42),
        )
    }

    #[test]
    fn list_next_pointers_chain_in_traversal_order() {
        let (mut space, mut heap, mut rng) = setup();
        let list = build_list(&mut space, &mut heap, &mut rng, 50, 24, true);
        let mut cur = list.head;
        for (i, &expect) in list.nodes.iter().enumerate() {
            assert_eq!(cur, expect, "node {i}");
            cur = VirtAddr(space.read_u32(VirtAddr(cur.0 + NEXT_OFFSET)));
        }
        assert_eq!(cur, VirtAddr(0), "null terminated");
    }

    #[test]
    fn sequential_list_is_address_ordered() {
        let (mut space, mut heap, mut rng) = setup();
        let list = build_list(&mut space, &mut heap, &mut rng, 20, 32, false);
        for w in list.nodes.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn shuffled_list_is_not_address_ordered() {
        let (mut space, mut heap, mut rng) = setup();
        let list = build_list(&mut space, &mut heap, &mut rng, 100, 32, true);
        let ordered = list.nodes.windows(2).filter(|w| w[1].0 > w[0].0).count();
        assert!(
            ordered < 80,
            "shuffle should break order: {ordered}/99 ascending"
        );
    }

    #[test]
    fn list_pointers_share_heap_upper_bits() {
        let (mut space, mut heap, mut rng) = setup();
        let list = build_list(&mut space, &mut heap, &mut rng, 50, 24, true);
        for &n in &list.nodes {
            assert_eq!(n.0 >> 24, 0x10);
            let next = space.read_u32(VirtAddr(n.0 + NEXT_OFFSET));
            assert!(next == 0 || next >> 24 == 0x10);
        }
    }

    #[test]
    fn payload_words_are_not_heap_pointers() {
        let (mut space, mut heap, mut rng) = setup();
        let list = build_list(&mut space, &mut heap, &mut rng, 30, 40, false);
        for &n in &list.nodes {
            for off in (8..40).step_by(4) {
                let w = space.read_u32(VirtAddr(n.0 + off));
                assert_ne!(w >> 24, 0x10, "payload must not look like a heap ptr");
            }
        }
    }

    #[test]
    fn tree_children_link_correctly() {
        let (mut space, mut heap, mut rng) = setup();
        let tree = build_binary_tree(&mut space, &mut heap, &mut rng, 5, 32);
        assert_eq!(tree.nodes.len(), 31);
        // Check node 0's children are nodes 1 and 2.
        let l = space.read_u32(VirtAddr(tree.root.0 + LEFT_OFFSET));
        let r = space.read_u32(VirtAddr(tree.root.0 + RIGHT_OFFSET));
        assert_eq!(l, tree.nodes[1].0);
        assert_eq!(r, tree.nodes[2].0);
        // Leaves have null children.
        let leaf = tree.nodes[30];
        assert_eq!(space.read_u32(VirtAddr(leaf.0 + LEFT_OFFSET)), 0);
        assert_eq!(space.read_u32(VirtAddr(leaf.0 + RIGHT_OFFSET)), 0);
    }

    #[test]
    fn hash_chains_walkable_from_bucket_heads() {
        let (mut space, mut heap, mut rng) = setup();
        let ht = build_hash_table(&mut space, &mut heap, &mut rng, 16, 100, 24);
        let mut found = 0;
        for b in 0..ht.bucket_count {
            let mut cur = space.read_u32(VirtAddr(ht.buckets.0 + b as u32 * 4));
            let mut chain = Vec::new();
            while cur != 0 {
                chain.push(VirtAddr(cur));
                cur = space.read_u32(VirtAddr(cur + NEXT_OFFSET));
                found += 1;
                assert!(found <= 100, "cycle detected");
            }
            assert_eq!(chain, ht.chains[b], "bucket {b}");
        }
        assert_eq!(found, 100);
    }

    #[test]
    fn array_filled_with_non_pointers() {
        let (mut space, mut heap, mut rng) = setup();
        let arr = build_array(&mut space, &mut heap, &mut rng, 4096);
        assert!(space.translate(arr.base).is_some());
        let w = space.read_u32(arr.base);
        assert_ne!(w >> 24, 0x10);
    }

    #[test]
    fn dlist_links_are_symmetric() {
        let (mut space, mut heap, mut rng) = setup();
        let dl = build_dlist(&mut space, &mut heap, &mut rng, 40, 24, true);
        assert_eq!(dl.head, dl.nodes[0]);
        assert_eq!(dl.tail, dl.nodes[39]);
        for w in dl.nodes.windows(2) {
            let next = space.read_u32(VirtAddr(w[0].0 + NEXT_OFFSET));
            let prev = space.read_u32(VirtAddr(w[1].0 + PREV_OFFSET));
            assert_eq!(next, w[1].0);
            assert_eq!(prev, w[0].0);
        }
        // Ends are null-terminated.
        assert_eq!(space.read_u32(VirtAddr(dl.head.0 + PREV_OFFSET)), 0);
        assert_eq!(space.read_u32(VirtAddr(dl.tail.0 + NEXT_OFFSET)), 0);
    }

    #[test]
    fn graph_edges_point_at_real_nodes() {
        let (mut space, mut heap, mut rng) = setup();
        let g = build_graph(&mut space, &mut heap, &mut rng, 64, 3, 24);
        assert_eq!(g.nodes.len(), 64);
        for (i, &node) in g.nodes.iter().enumerate() {
            assert_eq!(space.read_u32(node), i as u32, "key");
            let degree = space.read_u32(VirtAddr(node.0 + DEGREE_OFFSET));
            assert_eq!(degree as usize, g.adjacency[i].len());
            let adj_ptr = space.read_u32(VirtAddr(node.0 + ADJ_PTR_OFFSET));
            for (k, &succ) in g.adjacency[i].iter().enumerate() {
                let stored = space.read_u32(VirtAddr(adj_ptr + 4 * k as u32));
                assert_eq!(stored, g.nodes[succ as usize].0, "edge {i}->{k}");
            }
        }
    }

    #[test]
    fn graph_pointers_are_vam_candidates() {
        use cdp_types::VamConfig;
        let (mut space, mut heap, mut rng) = setup();
        let g = build_graph(&mut space, &mut heap, &mut rng, 32, 4, 24);
        // An adjacency array line scanned with a same-heap trigger yields
        // candidates.
        let adj_ptr = space.read_u32(VirtAddr(g.nodes[0].0 + ADJ_PTR_OFFSET));
        let line = space.read_line(VirtAddr(adj_ptr));
        let hits = cdp_prefetch_stub_scan(&line, g.nodes[0]);
        assert!(!hits.is_empty(), "adjacency lines must be chaseable");
        let _ = VamConfig::tuned();
    }

    /// Minimal VAM re-implementation for the test (cdp-workloads must not
    /// depend on cdp-prefetch): upper byte match against the trigger.
    fn cdp_prefetch_stub_scan(line: &[u8; 64], trigger: VirtAddr) -> Vec<u32> {
        (0..61)
            .step_by(2)
            .filter_map(|off| {
                let w = u32::from_le_bytes(line[off..off + 4].try_into().unwrap());
                (w >> 24 == trigger.0 >> 24 && w != 0).then_some(w)
            })
            .collect()
    }

    #[test]
    fn determinism_same_seed_same_layout() {
        let build = |seed: u64| {
            let mut space = AddressSpace::new();
            let mut heap = Heap::new(Heap::DEFAULT_BASE, 1 << 22);
            let mut rng = Rng::seed_from_u64(seed);
            build_list(&mut space, &mut heap, &mut rng, 40, 24, true).nodes
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }
}
