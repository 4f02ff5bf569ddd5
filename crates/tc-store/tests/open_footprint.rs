//! The open-footprint guard: opening a tree segment costs a fixed number
//! of bytes per node and no allocation per node.
//!
//! A counting global allocator watches `SegmentTcTree::open` on crafted
//! directories of two sizes. The number of allocations must not depend on
//! the node count — a per-node `Pattern`, `Vec` or `Box` creeping back into
//! the directory shows up here by name — and the peak live heap must stay
//! within 60 bytes a node (a 24-byte directory record, a 4-byte level
//! count, 8 bytes of children CSR, the node cache's 16-byte slot and its
//! 1-byte second-chance bit come to 53) plus 64 KiB.
//!
//! The same allocator pins what a warm `query` allocates: three lists per
//! retrieved truss — its edges, its vertices and its pattern — beyond what
//! the counting walk over the same nodes makes, plus the query pattern the
//! answer carries. A sort buffer, a bitmap or a per-level `Vec` creeping
//! back into Equation 1's rebuild shows up there by name.
//!
//! CI re-runs this suite by name (see `.github/workflows/ci.yml`, the
//! open-footprint step); locally it runs with `cargo test`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tc_index::TcTreeBuilder;
use tc_store::page::write_segment;
use tc_store::{SegmentKind, SegmentTcTree};
use tc_util::bytes::{put_f64, put_varint, zigzag};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Held by each test while it measures, so one test's heap never shows in
/// the other's peak.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Allocations made by this thread: what each test counts, so the test
    /// harness's own threads never show in a count.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and live / peak bytes.
struct CountingAlloc;

impl CountingAlloc {
    fn grew(size: usize) {
        // A thread being torn down has no counter left to bump.
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are atomic counter updates,
// which neither allocate (no recursion) nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's own contract (`layout` has
        // non-zero size), which is exactly what `System.alloc` requires.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the same forwarding argument as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`; we allocate through `System` only, so the pair is
        // valid for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the same forwarding argument as `dealloc`, plus the
        // caller's guarantee that `new_size` is non-zero and fits
        // `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A valid tree segment of `n` nodes with empty truss blobs: a root, and
/// below it chains (a node under its predecessor) and fans (many nodes
/// under one), parents always first, every item distinct.
fn crafted_segment(n: u32) -> Vec<u8> {
    let mut nodes = Vec::new();
    put_varint(&mut nodes, u64::from(n));
    let mut prev = 0;
    for id in 0..n {
        let parent = match id % 4 {
            0 => 0,
            1 => id - 1,
            _ => id / 2,
        };
        put_varint(&mut nodes, zigzag(i64::from(parent) - i64::from(prev)));
        prev = parent;
        put_varint(&mut nodes, id.into());
        put_varint(&mut nodes, 0);
        put_f64(&mut nodes, 0.0);
        put_varint(&mut nodes, 0);
    }
    let mut buf = Vec::new();
    write_segment(
        &mut buf,
        SegmentKind::TcTree,
        &[(1, nodes), (2, Vec::new())],
    )
    .unwrap();
    buf
}

/// What opening the `n`-node segment at `path` cost: allocations this thread made,
/// and peak live heap bytes above what was live before.
fn open_cost(path: &std::path::Path, n: usize) -> (usize, usize) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let seg = SegmentTcTree::open(path).unwrap();
    let cost = (
        THREAD_ALLOCS.with(Cell::get) - before,
        PEAK.load(Ordering::Relaxed) - base,
    );
    assert_eq!(seg.num_nodes(), n - 1);
    cost
}

#[test]
fn open_allocates_a_fixed_count_and_a_flat_footprint_per_node() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("tc_store_open_footprint_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut counts = Vec::new();
    for n in [1_000usize, 20_000] {
        let path = dir.join(format!("tree-{n}.seg"));
        std::fs::write(&path, crafted_segment(n as u32)).unwrap();
        let (allocs, peak) = open_cost(&path, n);
        eprintln!(
            "open of {n} nodes: {allocs} allocations, peak {peak} B ({:.1} B/node)",
            peak as f64 / n as f64
        );
        let bound = 60 * n + 64 * 1024;
        assert!(
            peak <= bound,
            "open of {n} nodes peaked at {peak} B, over the {bound} B bound"
        );
        counts.push(allocs);
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations during open grew with the node count: {counts:?}"
    );
    std::fs::remove_dir(&dir).ok();
}

/// What `f` returns, and the allocations this thread made running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_warm_query_allocates_three_lists_per_retrieved_truss() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let net = tc_data::generate_coauthor(&tc_data::CoauthorConfig {
        groups: 3,
        authors_per_group: 30,
        interdisciplinary_authors: 6,
        papers_per_author: 22,
        keywords_per_paper: 4,
        collab_prob: 0.6,
        cross_group_edges: 30,
        generic_keyword_prob: 0.4,
        seed: 0xD5,
    })
    .network;
    let tree = TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    }
    .build(&net);
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
    let seg = SegmentTcTree::from_bytes(bytes).unwrap();
    // QBAs across the cohesion range, and every node's own pattern.
    let mut stream: Vec<(tc_txdb::Pattern, f64)> = [0.0, 0.05, 0.1, 0.2, 0.4]
        .iter()
        .map(|&alpha| (seg.all_items().clone(), alpha))
        .collect();
    stream.extend((1..=tree.num_nodes() as u32).map(|id| (seg.pattern(id), 0.0)));
    for (q, alpha) in &stream {
        seg.query(q, *alpha).unwrap();
    }
    let warm = seg.cache_stats();
    let (mut retrieved, mut edges, mut levels) = (0, 0, 0);
    for (q, alpha) in &stream {
        let (counted, counting) = allocations(|| seg.summarize(q, *alpha).unwrap());
        let (answer, querying) = allocations(|| seg.query(q, *alpha).unwrap());
        let r = answer.retrieved_nodes;
        assert_eq!(r, counted.trusses.len(), "{q} at {alpha}");
        // The walk, its queue and the kept list grow alike in both.
        assert_eq!(
            querying - counting,
            3 * r + 1,
            "{q} at {alpha}: {querying} allocations querying, {counting} counting, \
             {r} trusses retrieved"
        );
        retrieved += r;
        edges += answer.trusses.iter().map(|t| t.num_edges()).sum::<usize>();
        levels += counted
            .trusses
            .iter()
            .map(|t| seg.truss(t.node).unwrap().num_levels())
            .sum::<usize>();
    }
    // Warm means warm: no lookup above missed.
    assert_eq!(seg.cache_stats().misses, warm.misses);
    eprintln!(
        "{} queries, {retrieved} trusses retrieved ({:.1} edges, {:.1} levels each): \
         3 allocations a truss",
        stream.len(),
        edges as f64 / retrieved as f64,
        levels as f64 / retrieved as f64
    );
}
