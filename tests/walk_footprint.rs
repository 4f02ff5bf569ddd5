//! The walk-footprint guard: the lattice walk allocates for what it
//! outputs, not for every candidate it evaluates.
//!
//! A counting global allocator watches `ParallelTcfiMiner` and
//! `TcTreeBuilder`, both at one thread (the walk then runs inline on the
//! caller, so the count is deterministic), on a thin vertex network — many
//! small theme networks, like the sparse bench input — and on a
//! triangle-dense edge network. Each worker refills one peeling state in
//! place and appends carries to buffers it keeps, so what is left per
//! candidate is its pattern and its output: a mined truss's edge and
//! vertex lists, a decomposition's levels. The bounds are allocations per
//! candidate generated, about a tenth above what this walk makes; a
//! per-candidate `Vec` creeping back into the walk — a state built afresh,
//! a carry per child, an intersection of its own — crosses them and fails
//! by name.
//!
//! CI re-runs this suite by name (see `.github/workflows/ci.yml`, the
//! peel-kernel step); locally it runs with `cargo test`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use theme_communities::core::{
    DatabaseNetwork, EdgeDatabaseNetwork, EdgeDatabaseNetworkBuilder, Miner, ParallelTcfiMiner,
    ThemeSource,
};
use theme_communities::data::{generate_synthetic, SynConfig};
use theme_communities::index::TcTreeBuilder;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting allocations (a `realloc` counts as one).
struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic counter update,
// which neither allocates (no recursion) nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's own contract (`layout` has
        // non-zero size), which is exactly what `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the same forwarding argument as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`; we allocate through `System` only, so the pair is
        // valid for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the same forwarding argument as `dealloc`, plus the
        // caller's guarantee that `new_size` is non-zero and fits
        // `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A thin vertex network: the bench's sparse generator at an eighth of its
/// vertices, whose theme networks are small and many.
fn thin_vertex_network() -> DatabaseNetwork {
    generate_synthetic(&SynConfig {
        vertices: 300,
        edges_per_vertex: 5,
        seeds: 6,
        items: 60,
        mutation: 0.1,
        max_transactions: 48,
        max_transaction_len: 16,
        seed: 0x57,
    })
}

/// A fixed LCG: `next(m)` draws from `0..m`.
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed;
    move |m| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    }
}

/// Three 12-cliques whose edges hold 20 to 150 transactions over a
/// four-item window of eight items, each item drawn with its own odds,
/// plus bridges with one noise transaction each (`lattice_golden`'s wide
/// edge network).
fn dense_edge_network() -> EdgeDatabaseNetwork {
    let mut next = lcg(0xED6E);
    let mut b = EdgeDatabaseNetworkBuilder::new();
    let items: Vec<_> = (0..8).map(|i| b.intern_item(&format!("x{i}"))).collect();
    for c in 0..3u32 {
        let window: Vec<_> = (0..4).map(|j| items[(3 * c as usize + j) % 8]).collect();
        for u in 12 * c..12 * c + 12 {
            for v in u + 1..12 * c + 12 {
                let h = 20 + next(131);
                for _ in 0..h {
                    let t: Vec<_> = window
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| next(100) < 90 - 12 * j as u64)
                        .map(|(_, &item)| item)
                        .collect();
                    b.add_transaction(u, v, &t);
                }
            }
        }
    }
    for _ in 0..6 {
        let (u, v) = (next(36) as u32, next(36) as u32);
        if u != v {
            b.add_transaction(u, v, &[items[next(8) as usize]]);
        }
    }
    b.build().unwrap()
}

/// Allocations `f` makes, with what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Holds a one-thread mining walk at `alpha` and a one-thread build of
/// `net` to `mine_bound` and `build_bound` allocations per candidate.
fn check<N: ThemeSource>(name: &str, net: &N, alpha: f64, mine_bound: f64, build_bound: f64) {
    let miner = ParallelTcfiMiner {
        max_len: usize::MAX,
        threads: 1,
    };
    let (allocs, mined) = counted(|| miner.mine(net, alpha));
    let candidates = mined.stats.candidates_generated;
    drop(mined);
    let per = allocs as f64 / candidates as f64;
    eprintln!("{name}: mining made {allocs} allocations for {candidates} candidates ({per:.2})");
    assert!(
        per <= mine_bound,
        "{name}: mining made {per:.2} allocations a candidate, over the {mine_bound} bound"
    );

    let builder = TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    };
    let (allocs, tree) = counted(|| builder.build(net));
    let candidates = tree.stats().candidates;
    drop(tree);
    let per = allocs as f64 / candidates as f64;
    eprintln!("{name}: the build made {allocs} allocations for {candidates} candidates ({per:.2})");
    assert!(
        per <= build_bound,
        "{name}: the build made {per:.2} allocations a candidate, over the {build_bound} bound"
    );
}

#[test]
fn the_walk_allocates_for_its_output_not_per_candidate() {
    let thin = thin_vertex_network();
    let dense = dense_edge_network();
    // This walk: 1.44 and 2.19 a candidate on the thin network, 5.86 and
    // 8.03 on the dense one. A walk that built every candidate's state
    // afresh and carried three `Vec`s per qualified child made 5.73, 6.71,
    // 19.83 and 24.86; one whose decomposition collected each level's
    // removed ids in a buffer of its own made 1.44, 2.55, 5.86 and 11.33.
    check("thin vertex network", &thin, 0.0, 1.6, 2.4);
    check("dense edge network", &dense, 0.5, 6.5, 8.8);
}
