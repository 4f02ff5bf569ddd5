//! The peeling kernel against the definition, bit for bit, and a masked
//! candidate against its materialised theme network.
//!
//! A cohesion is an f64 sum, so the order a kernel adds triangle weights
//! in shows in its low bits. The networks here are dense (several
//! triangles per edge) and their frequencies are `k/7`, `k/11` or `k/13`,
//! whose sums round: a kernel that visits an edge's triangles in any order
//! but ascending `w` — the order [`oracle::cohesions_of_edge_set`] sums
//! the definition in — fails the equality under `to_bits`.
//!
//! The lattice walk builds each candidate as a mask of the whole
//! network's triangle index, from its parents' join edges and carried
//! tidsets ([`tc_core::theme::Frame`]). The last two properties walk the
//! lattice of random vertex and edge database networks that way — dense,
//! with `h` from 0 to 200 transactions per database, so tidsets of up to
//! four words and frequencies with no short binary form — and hold every
//! candidate to the theme network [`ThemeSource::theme_within`]
//! materialises from scratch: the same databases with the same frequency
//! bits, the same edges with the same initial cohesion bits — the
//! definition's, summed ascending in the third vertex — the same `C*_p(α)`
//! and the same decomposition levels.

use proptest::prelude::*;
use tc_core::peel::PeelState;
use tc_core::theme::{Carry, Frequencies, Scratch};
use tc_core::{
    maximal_pattern_truss, oracle, DatabaseNetwork, DatabaseNetworkBuilder, EdgeDatabaseNetwork,
    EdgeDatabaseNetworkBuilder, ThemeNetwork, ThemeSource, TrussDecomposition,
};
use tc_graph::EdgeKey;
use tc_txdb::{Item, Pattern};

/// Vertices at most; the edge draws cover every pair of them.
const MAX_VERTICES: usize = 16;
const PAIRS: usize = MAX_VERTICES * (MAX_VERTICES - 1) / 2;

/// A vertex network of 8 to 16 vertices where item `p` has frequency
/// `k/h`, `h ∈ {7, 11, 13}` and `0 < k < h`, on every vertex, and each
/// pair of vertices is joined when its draw falls below `density` percent.
fn arb_network() -> impl Strategy<Value = (DatabaseNetwork, Pattern)> {
    (
        8..MAX_VERTICES as u32 + 1,
        55..95u32,
        prop::collection::vec(0..100u32, PAIRS),
        prop::collection::vec((0..3usize, 1..14u32), MAX_VERTICES),
    )
        .prop_map(|(n, density, draws, freqs)| {
            let mut b = DatabaseNetworkBuilder::new();
            let p = b.intern_item("p");
            let q = b.intern_item("q");
            for (v, &(d, k)) in freqs.iter().take(n as usize).enumerate() {
                let h = [7, 11, 13][d];
                let k = 1 + k % (h - 1);
                for t in 0..h {
                    b.add_transaction(v as u32, &[if t < k { p } else { q }]);
                }
            }
            let mut draws = draws.into_iter();
            for u in 0..n {
                for v in u + 1..n {
                    if draws.next().expect("a draw per pair") < density {
                        b.add_edge(u, v);
                    }
                }
            }
            let net = b.build().expect("a valid network");
            let p = Pattern::singleton(net.item_space().get("p").expect("interned"));
            (net, p)
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

/// `h` transactions of a database: each draws item `i` with the
/// database's own odds `odds[i]` percent, which are 0 one time in three.
/// `h` is 0 one time in twelve, at most 8 one time in four, else up to
/// 200.
fn transactions(next: &mut impl FnMut(u64) -> u64, items: &[Item]) -> Vec<Vec<Item>> {
    let h = match next(12) {
        0 => 0,
        1..=3 => 1 + next(8),
        _ => 1 + next(200),
    };
    let odds: Vec<u64> = items
        .iter()
        .map(|_| if next(3) == 0 { 0 } else { 20 + next(80) })
        .collect();
    (0..h)
        .map(|_| {
            items
                .iter()
                .zip(&odds)
                .filter(|&(_, &o)| next(100) < o)
                .map(|(&i, _)| i)
                .collect()
        })
        .collect()
}

/// A vertex network of `n` vertices; each pair is joined when its draw
/// falls below `density` percent. The lower half's databases draw from
/// items 0–2, the upper half's from items 2–4.
fn random_vertex_network(n: u32, density: u64, seed: u64) -> DatabaseNetwork {
    let mut next = lcg(seed);
    let mut b = DatabaseNetworkBuilder::new();
    let items: Vec<_> = (0..5).map(|i| b.intern_item(&format!("i{i}"))).collect();
    for v in 0..n {
        b.ensure_vertex(v);
        let half = if v < n / 2 { 0 } else { 2 };
        for t in transactions(&mut next, &items[half..half + 3]) {
            b.add_transaction(v, &t);
        }
    }
    for u in 0..n {
        for v in u + 1..n {
            if next(100) < density {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("a valid network")
}

/// An edge network over `n` vertices; each pair is an edge, with a
/// database of its own, when its draw falls below `density` percent. The
/// databases of edges from the lower half draw from items 0–2, the others
/// from items 2–4.
fn random_edge_network(n: u32, density: u64, seed: u64) -> EdgeDatabaseNetwork {
    let mut next = lcg(seed);
    let mut b = EdgeDatabaseNetworkBuilder::new();
    let items: Vec<_> = (0..5).map(|i| b.intern_item(&format!("i{i}"))).collect();
    for u in 0..n {
        for v in u + 1..n {
            if next(100) < density {
                b.add_edge(u, v);
                let half = if u < n / 2 { 0 } else { 2 };
                for t in transactions(&mut next, &items[half..half + 3]) {
                    b.add_transaction(u, v, &t);
                }
            }
        }
    }
    b.build().expect("a valid network")
}

/// A candidate of the walk below, qualified: its pattern, what its
/// children join on, and those join edges as global keys.
struct Qualified {
    pattern: Pattern,
    carry: Carry,
    join: Vec<EdgeKey>,
}

/// Walks the lattice of `net` the way `tc_core::lattice::walk` does, one
/// candidate at a time, joining on `E*_p(0)` as the TC-Tree builder does.
/// Holds every candidate, built as a mask of the network's frame, to the
/// theme network `theme_within` materialises, and returns how many it
/// compared. `expected` lists a theme network's databases and frequency
/// bits as `Frame::frequencies` does.
fn walk_against_materialised<N: ThemeSource>(
    net: &N,
    alpha: f64,
    expected: impl Fn(&ThemeNetwork) -> Vec<(u32, u64)>,
) -> usize {
    let frame = net.frame();
    let mut scratch = frame.scratch();
    let mut compared = 0;
    // Evaluates one candidate, built by `build` into `scratch`: compares,
    // then carries what its children join on.
    let mut evaluate = |pattern: Pattern,
                        theme: ThemeNetwork,
                        scratch: &mut Scratch,
                        build: &dyn Fn(&mut Scratch) -> PeelState|
     -> Option<Qualified> {
        compared += 1;
        let masked = build(scratch);
        assert_eq!(
            bits(&frame.frequencies(scratch)),
            expected(&theme),
            "databases of {}",
            &pattern
        );
        same_state(&masked, &PeelState::new(&theme), &pattern);
        for (id, want) in definition(&theme).into_iter().enumerate() {
            let got = masked.cohesion(id as u32);
            assert_eq!(got.to_bits(), want.to_bits(), "definition of {}", &pattern);
        }

        let (levels, core) = TrussDecomposition::decompose_state(pattern.clone(), masked);
        let want = TrussDecomposition::decompose(&theme);
        assert_eq!(
            levels.levels.len(),
            want.levels.len(),
            "levels of {}",
            &pattern
        );
        for (got, want) in levels.levels.iter().zip(&want.levels) {
            assert_eq!(
                got.alpha.to_bits(),
                want.alpha.to_bits(),
                "β of {}",
                &pattern
            );
            assert_eq!(&got.edges, &want.edges, "a level of {}", &pattern);
        }

        let mut masked = build(scratch);
        masked.peel(alpha, |_| {});
        let truss = maximal_pattern_truss(&theme, alpha);
        assert_eq!(
            masked.alive_global_edges(),
            truss.edges,
            "C* of {}",
            &pattern
        );

        if core.is_empty() {
            return None;
        }
        Some(Qualified {
            pattern,
            carry: frame.carry(core, scratch),
            join: want.edges_at(0.0),
        })
    };

    let mut level = Vec::new();
    for item in net.items_in_use() {
        let pattern = Pattern::singleton(item);
        let theme = net.theme(&pattern);
        let build = |s: &mut Scratch| frame.seed(item, s);
        level.extend(evaluate(pattern, theme, &mut scratch, &build));
    }
    while !level.is_empty() {
        let mut next = Vec::new();
        for (i, a) in level.iter().enumerate() {
            for b in &level[i + 1..] {
                let (pa, pb) = (a.pattern.items(), b.pattern.items());
                if pa[..pa.len() - 1] != pb[..pb.len() - 1] {
                    continue;
                }
                let within = tc_util::sorted::intersect(&a.join, &b.join);
                let probe = frame.join(&a.carry, &b.carry, &mut scratch);
                assert_eq!(probe.is_none(), within.is_empty());
                if within.is_empty() {
                    continue;
                }
                let pattern = a.pattern.with_item(pb[pb.len() - 1]);
                let theme = net.theme_within(&pattern, &within);
                let build = |s: &mut Scratch| frame.join(&a.carry, &b.carry, s).expect("met");
                next.extend(evaluate(pattern, theme, &mut scratch, &build));
            }
        }
        level = next;
    }
    compared
}

/// Each edge's cohesion in `theme` by the definition, in `graph.edges()`
/// order: its triangles' weights summed ascending in the third vertex.
fn definition(theme: &ThemeNetwork) -> Vec<f64> {
    let g = theme.graph();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let f_edge = |u: u32, v: u32| {
        let Frequencies::Edge(f) = theme.frequencies() else {
            unreachable!("asked of edge frequencies only");
        };
        f[edges.binary_search(&(u.min(v), u.max(v))).expect("an edge")]
    };
    edges
        .iter()
        .map(|&(u, v)| {
            let mut eco = 0.0;
            for &w in g.neighbors(u).iter().filter(|w| g.neighbors(v).contains(w)) {
                eco += match theme.frequencies() {
                    Frequencies::Vertex(f) => f[u as usize].min(f[v as usize]).min(f[w as usize]),
                    Frequencies::Edge(_) => f_edge(u, v).min(f_edge(u, w)).min(f_edge(v, w)),
                };
            }
            eco
        })
        .collect()
}

fn bits(freqs: &[(u32, f64)]) -> Vec<(u32, u64)> {
    freqs.iter().map(|&(id, f)| (id, f.to_bits())).collect()
}

/// The same edges, in the same order, with the same initial cohesion bits.
fn same_state(got: &PeelState, want: &PeelState, pattern: &Pattern) {
    assert_eq!(got.num_edges(), want.num_edges(), "edges of {}", pattern);
    for id in 0..got.num_edges() as u32 {
        assert_eq!(got.edge(id), want.edge(id), "edge {} of {}", id, pattern);
        assert_eq!(
            got.cohesion(id).to_bits(),
            want.cohesion(id).to_bits(),
            "cohesion of {:?} in {}: masked {} vs materialised {}",
            got.edge(id),
            pattern,
            got.cohesion(id),
            want.cohesion(id)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn initial_cohesions_are_the_definitions_bits(case in arb_network()) {
        let (net, p) = case;
        let theme = ThemeNetwork::induce(&net, &p);
        let state = PeelState::new(&theme);
        let edges: Vec<EdgeKey> = (0..state.num_edges() as u32)
            .map(|id| state.edge(id))
            .collect();
        let want = oracle::cohesions_of_edge_set(&net, &p, &edges);
        for (id, e) in edges.iter().enumerate() {
            let got = state.cohesion(id as u32);
            prop_assert_eq!(
                got.to_bits(),
                want[e].to_bits(),
                "edge {:?}: kernel {} vs definition {}",
                e,
                got,
                want[e]
            );
        }
    }

    #[test]
    fn peel_lowest_is_peel_at_the_minimum(case in arb_network()) {
        let (net, p) = case;
        // The decomposition's one-scan step against its definition: find
        // β, then peel at β. Same β bits, same removal order.
        let theme = ThemeNetwork::induce(&net, &p);
        let mut folded = PeelState::new(&theme);
        let mut stepped = PeelState::new(&theme);
        folded.peel(0.0, |_| {});
        stepped.peel(0.0, |_| {});
        loop {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let beta = folded.peel_lowest(|id| a.push(id));
            let min = stepped.min_alive_cohesion();
            if let Some(min) = min {
                stepped.peel(min, |id| b.push(id));
            }
            prop_assert_eq!(beta.map(f64::to_bits), min.map(f64::to_bits));
            prop_assert_eq!(a, b);
            if beta.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_masked_vertex_candidate_is_its_theme_network(
        case in (8..15u32, 45..95u64, 0..u64::MAX, 0..4usize)
    ) {
        let (n, density, seed, a) = case;
        let net = random_vertex_network(n, density, seed);
        let compared = walk_against_materialised(&net, [0.0, 0.5, 1.5, 3.0][a], |theme| {
            let Frequencies::Vertex(f) = theme.frequencies() else {
                panic!("a vertex network's theme carries vertex frequencies");
            };
            theme.global_vertices().iter().zip(f).map(|(&v, f)| (v, f.to_bits())).collect()
        });
        prop_assert!(compared > 0);
    }

    #[test]
    fn a_masked_edge_candidate_is_its_theme_network(
        case in (8..15u32, 45..95u64, 0..u64::MAX, 0..4usize)
    ) {
        let (n, density, seed, a) = case;
        let net = random_edge_network(n, density, seed);
        let compared = walk_against_materialised(&net, [0.0, 0.5, 1.5, 3.0][a], |theme| {
            let Frequencies::Edge(f) = theme.frequencies() else {
                panic!("an edge network's theme carries edge frequencies");
            };
            theme
                .graph()
                .edges()
                .zip(f)
                .map(|(e, f)| {
                    let id = net.edges().binary_search(&theme.global_edge(e)).expect("an edge");
                    (id as u32, f.to_bits())
                })
                .collect()
        });
        prop_assert!(compared > 0);
    }
}
