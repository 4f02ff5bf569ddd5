//! Golden pins for the pattern-lattice walk behind `TcTreeBuilder` and
//! `ParallelTcfiMiner`: the segment bytes of five fixed TC-Trees, a CRC of
//! what each tree holds apart from any segment format, and the counters
//! of building and mining them. A segment format change moves only the
//! segment length and CRC; the tree CRC and the counters stay.
//!
//! `crates/tc-index/tests/parallel_equiv.rs` compares one build with
//! another at a different thread count; both run the same engine, so an
//! arena numbered the same wrong way at every thread count passes there.
//! These values were recorded from the level-synchronous builder and the
//! registry-based miner the walk replaced, and hold the walk to them.
//!
//! The third network is triangle-dense: its edges close several triangles
//! each, so the peel's cascade order decides every cohesion sum, every
//! level's `α` and every segment byte. Its pins were recorded from the
//! merge-based peeling kernel and hold any later kernel to it bit for bit.
//!
//! The last two are wide: some of their databases hold more than 64
//! transactions (a tidset of several words, none a multiple of 64), and
//! their theme networks close many triangles per edge. One holds its
//! databases on vertices, the other on edges, so a frequency computed
//! from a tidset that is cut short, or a cascade that runs in another
//! order, moves their pins under either kind of network. Their pins were
//! recorded from the walk that induced every candidate from scratch.

use theme_communities::core::{
    DatabaseNetwork, DatabaseNetworkBuilder, EdgeDatabaseNetwork, EdgeDatabaseNetworkBuilder,
    Miner, ParallelTcfiMiner, ThemeSource,
};
use theme_communities::data::{generate_coauthor, generate_planted, CoauthorConfig, PlantedConfig};
use theme_communities::graph::{count_triangles, GraphBuilder, UGraph};
use theme_communities::index::{TcTree, TcTreeBuilder};
use theme_communities::store::save_tree_segment;
use theme_communities::util::crc32::crc32;

/// Planted 3-item themes over overlapping communities: a vertex network
/// whose tree is deeper than two.
fn vertex_network() -> DatabaseNetwork {
    generate_planted(&PlantedConfig {
        pattern_len: 3,
        overlap: 2,
        ..PlantedConfig::default()
    })
    .network
}

/// Five 4-cliques whose edges talk about a sliding window of three of
/// seven items, with noise items and bridges from a fixed LCG.
fn edge_network() -> EdgeDatabaseNetwork {
    let mut state = 0x5EED_u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut b = EdgeDatabaseNetworkBuilder::new();
    let items: Vec<_> = (0..7).map(|i| b.intern_item(&format!("e{i}"))).collect();
    for c in 0..5u32 {
        let members: Vec<u32> = (0..4).map(|k| 4 * c + k).collect();
        let theme: Vec<_> = (0..3).map(|j| items[(2 * c as usize + j) % 7]).collect();
        for (x, &u) in members.iter().enumerate() {
            for &v in &members[x + 1..] {
                for _ in 0..3 {
                    b.add_transaction(u, v, &theme);
                }
                b.add_transaction(u, v, &[items[next(7) as usize]]);
            }
        }
    }
    for _ in 0..8 {
        let (u, v) = (next(20) as u32, next(20) as u32);
        if u != v {
            b.add_transaction(u, v, &[items[next(7) as usize]]);
        }
    }
    b.build().unwrap()
}

/// A reduced co-author network: four tight research groups whose theme
/// networks close several triangles per edge.
fn dense_network() -> DatabaseNetwork {
    generate_coauthor(&CoauthorConfig {
        groups: 4,
        authors_per_group: 20,
        interdisciplinary_authors: 6,
        papers_per_author: 14,
        keywords_per_paper: 4,
        collab_prob: 0.7,
        cross_group_edges: 20,
        generic_keyword_prob: 0.4,
        seed: 0xD5,
    })
    .network
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

/// Three communities of fourteen vertices, dense inside, whose databases
/// hold 100 to 200 transactions (a few hold 40): each transaction draws
/// every item of its community's five-item window with its own odds, so
/// patterns of up to five items have uneven, non-dyadic frequencies.
fn wide_vertex_network() -> DatabaseNetwork {
    let mut next = lcg(0x51DE);
    let mut b = DatabaseNetworkBuilder::new();
    let items: Vec<_> = (0..9).map(|i| b.intern_item(&format!("w{i}"))).collect();
    for c in 0..3u32 {
        let window: Vec<_> = (0..5).map(|j| items[(2 * c as usize + j) % 9]).collect();
        for k in 0..14 {
            let v = 14 * c + k;
            let h = if k % 5 == 4 { 40 } else { 100 + next(101) };
            for _ in 0..h {
                let t: Vec<_> = window
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| next(100) < 85 - 10 * j as u64)
                    .map(|(_, &item)| item)
                    .collect();
                b.add_transaction(v, &t);
            }
            for u in 14 * c..v {
                if next(100) < 92 {
                    b.add_edge(u, v);
                }
            }
        }
    }
    for _ in 0..10 {
        let (u, v) = (next(42) as u32, next(42) as u32);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build().unwrap()
}

/// Three 12-cliques whose edges hold 20 to 150 transactions over a
/// four-item window of eight items, each item drawn with its own odds,
/// plus bridges with one noise transaction each: ten triangles per clique
/// edge.
fn wide_edge_network() -> EdgeDatabaseNetwork {
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

/// CRC-32 over every node's parent, item, level alphas (as bits) and
/// level edges, little-endian, in id order: what a tree holds, whatever
/// the segment format that stores it.
fn tree_crc(tree: &TcTree) -> u32 {
    let mut bytes = Vec::new();
    for node in tree.nodes() {
        bytes.extend(node.parent.to_le_bytes());
        bytes.extend(node.item.0.to_le_bytes());
        bytes.extend((node.truss.levels.len() as u32).to_le_bytes());
        for level in &node.truss.levels {
            bytes.extend(level.alpha.to_bits().to_le_bytes());
            bytes.extend((level.edges.len() as u32).to_le_bytes());
            for &(u, v) in &level.edges {
                bytes.extend(u.to_le_bytes());
                bytes.extend(v.to_le_bytes());
            }
        }
    }
    crc32(&bytes)
}

/// `(segment length, segment CRC-32, tree CRC-32, candidates,
/// decompositions, pruned_by_intersection)` of a build.
fn tree_pin(tree: &TcTree) -> (usize, u32, u32, usize, usize, usize) {
    let mut seg = Vec::new();
    save_tree_segment(tree, &mut seg).unwrap();
    let s = tree.stats();
    (
        seg.len(),
        crc32(&seg),
        tree_crc(tree),
        s.candidates,
        s.decompositions,
        s.pruned_by_intersection,
    )
}

/// `(mptd_calls, candidates_generated, pruned_by_intersection, trusses)`
/// of `ParallelTcfiMiner` at 1, 2 and 8 threads — one value, or the test
/// fails naming the thread count.
fn miner_pin<N: ThemeSource>(net: &N, alpha: f64) -> (usize, usize, usize, usize) {
    let pins: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            let r = ParallelTcfiMiner {
                max_len: usize::MAX,
                threads,
            }
            .mine(net, alpha);
            let s = r.stats;
            (
                s.mptd_calls,
                s.candidates_generated,
                s.pruned_by_intersection,
                r.np(),
            )
        })
        .collect();
    assert!(
        pins.iter().all(|p| *p == pins[0]),
        "miner counters by thread count: {pins:?}"
    );
    pins[0]
}

/// `(trusses, CRC-32 over every truss's pattern, edges and vertices)` of
/// `ParallelTcfiMiner` at 1, 2 and 8 threads — one value, or the test
/// fails naming the thread count.
fn trusses_pin<N: ThemeSource>(net: &N, alpha: f64) -> (usize, u32) {
    let pins: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            let r = ParallelTcfiMiner {
                max_len: usize::MAX,
                threads,
            }
            .mine(net, alpha);
            let mut bytes = Vec::new();
            for t in &r.trusses {
                bytes.extend((t.pattern.len() as u32).to_le_bytes());
                for item in t.pattern.items() {
                    bytes.extend(item.0.to_le_bytes());
                }
                bytes.extend((t.edges.len() as u32).to_le_bytes());
                for &(u, v) in &t.edges {
                    bytes.extend(u.to_le_bytes());
                    bytes.extend(v.to_le_bytes());
                }
                bytes.extend((t.vertices.len() as u32).to_le_bytes());
                for v in &t.vertices {
                    bytes.extend(v.to_le_bytes());
                }
            }
            (r.np(), crc32(&bytes))
        })
        .collect();
    assert!(
        pins.iter().all(|p| *p == pins[0]),
        "mined trusses by thread count: {pins:?}"
    );
    pins[0]
}

fn build<N: ThemeSource>(net: &N, threads: usize) -> TcTree {
    TcTreeBuilder {
        threads,
        max_len: usize::MAX,
    }
    .build(net)
}

#[test]
fn vertex_network_tree_is_pinned() {
    let net = vertex_network();
    for threads in [1, 2, 8] {
        let tree = build(&net, threads);
        assert!(tree.max_depth() >= 3, "depth {}", tree.max_depth());
        assert_eq!(
            tree_pin(&tree),
            (24576, 3056333612, 1559214054, 11364, 5512, 5852),
            "threads = {threads}"
        );
    }
}

#[test]
fn edge_network_tree_is_pinned() {
    let net = edge_network();
    for threads in [1, 2, 8] {
        let tree = build(&net, threads);
        assert!(tree.max_depth() >= 3, "depth {}", tree.max_depth());
        assert_eq!(
            tree_pin(&tree),
            (12288, 3551052123, 1406199485, 37, 24, 13),
            "threads = {threads}"
        );
    }
}

#[test]
fn vertex_network_mining_counters_are_pinned() {
    let net = vertex_network();
    assert_eq!(miner_pin(&net, 0.1), (146, 219, 36, 37));
    assert_eq!(miner_pin(&net, 0.0), (946, 11364, 5852, 682));
}

#[test]
fn edge_network_mining_counters_are_pinned() {
    let net = edge_network();
    assert_eq!(miner_pin(&net, 0.0), (24, 37, 13, 24));
    assert_eq!(miner_pin(&net, 1.2), (21, 36, 15, 21));
}

#[test]
fn dense_network_is_triangle_dense() {
    let g = dense_network();
    let g = g.graph();
    let per_edge = 3.0 * count_triangles(g) as f64 / g.num_edges() as f64;
    assert!(per_edge >= 8.0, "{per_edge:.2} triangles per edge");
}

#[test]
fn dense_network_tree_is_pinned() {
    let net = dense_network();
    for threads in [1, 2, 8] {
        let tree = build(&net, threads);
        assert_eq!(
            tree_pin(&tree),
            (102400, 677547603, 3162035220, 4101, 2796, 1305),
            "threads = {threads}"
        );
    }
}

#[test]
fn dense_network_trusses_are_pinned() {
    let net = dense_network();
    assert_eq!(trusses_pin(&net, 0.1), (764, 3457256370));
    assert_eq!(trusses_pin(&net, 0.0), (1231, 513820063));
}

#[test]
fn wide_networks_are_wide_and_triangle_dense() {
    let net = wide_vertex_network();
    let hs: Vec<usize> = (0..net.num_vertices() as u32)
        .map(|v| net.database(v).num_transactions())
        .collect();
    assert!(hs.iter().any(|&h| h > 128 && h % 64 != 0), "{hs:?}");
    assert!(hs.iter().any(|&h| h < 64), "{hs:?}");
    let g = net.graph();
    let per_edge = 3.0 * count_triangles(g) as f64 / g.num_edges() as f64;
    assert!(per_edge >= 8.0, "{per_edge:.2} triangles per edge");

    let net = wide_edge_network();
    let hs: Vec<usize> = net
        .edges()
        .iter()
        .map(|&(u, v)| net.database(u, v).unwrap().num_transactions())
        .collect();
    assert!(hs.iter().any(|&h| h > 128 && h % 64 != 0), "{hs:?}");
    let g = graph_of(net.edges());
    let per_edge = 3.0 * count_triangles(&g) as f64 / g.num_edges() as f64;
    assert!(per_edge >= 8.0, "{per_edge:.2} triangles per edge");
}

fn graph_of(edges: &[(u32, u32)]) -> UGraph {
    let mut gb = GraphBuilder::new();
    for &(u, v) in edges {
        gb.add_edge(u, v);
    }
    gb.build()
}

#[test]
fn wide_vertex_network_tree_is_pinned() {
    let net = wide_vertex_network();
    for threads in [1, 2, 8] {
        let tree = build(&net, threads);
        assert!(tree.max_depth() >= 3, "depth {}", tree.max_depth());
        assert_eq!(
            tree_pin(&tree),
            (20480, 2052259255, 1638059684, 91, 79, 12),
            "threads = {threads}"
        );
    }
}

#[test]
fn wide_vertex_network_mining_is_pinned() {
    let net = wide_vertex_network();
    assert_eq!(miner_pin(&net, 0.0), (79, 91, 12, 79));
    assert_eq!(trusses_pin(&net, 0.0), (79, 263085884));
    assert_eq!(miner_pin(&net, 2.0), (70, 82, 12, 45));
    assert_eq!(trusses_pin(&net, 2.0), (45, 2412005534));
}

#[test]
fn wide_edge_network_tree_is_pinned() {
    let net = wide_edge_network();
    for threads in [1, 2, 8] {
        let tree = build(&net, threads);
        assert!(tree.max_depth() >= 3, "depth {}", tree.max_depth());
        assert_eq!(
            tree_pin(&tree),
            (16384, 1394354926, 2542263276, 63, 40, 23),
            "threads = {threads}"
        );
    }
}

#[test]
fn wide_edge_network_mining_is_pinned() {
    let net = wide_edge_network();
    assert_eq!(miner_pin(&net, 0.0), (40, 63, 23, 40));
    assert_eq!(trusses_pin(&net, 0.0), (40, 2427256027));
    assert_eq!(miner_pin(&net, 3.0), (34, 53, 19, 25));
    assert_eq!(trusses_pin(&net, 3.0), (25, 3816204687));
}
