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
//! tidsets ([`tc_core::theme::Frame`]), into one [`PeelState`] per worker
//! that every candidate refills in place. The last three properties walk
//! the lattice of random vertex and edge database networks that way —
//! dense, with `h` from 0 to 200 transactions per database, so tidsets of
//! up to four words and frequencies with no short binary form — and hold
//! every candidate to the theme network [`ThemeSource::theme_within`]
//! materialises from scratch: the same databases with the same frequency
//! bits, the same state as a fresh [`PeelState::new`] — the same edges
//! with the same initial cohesion bits, the definition's, summed
//! ascending in the third vertex — the same `C*_p(α)` and the same
//! decomposition levels. The last one then evaluates every candidate
//! again through the same state, largest first down to the smallest and
//! back up, so a refill that leaves anything of the candidate before it
//! behind — a stale `removed` or `queued` flag, a triangle, a cohesion —
//! fails by name.

use proptest::prelude::*;
use tc_core::peel::PeelState;
use tc_core::theme::{Carries, Frame, Frequencies, Scratch};
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
    carry: Carries,
    join: Vec<EdgeKey>,
}

/// How the walk builds a candidate: from one item, or by joining two
/// qualified members of a level, `(level, i, j)`.
enum Build {
    Seed(Item),
    Join(usize, usize, usize),
}

/// A candidate of the walk below and the theme network `theme_within`
/// materialises for it from scratch.
struct Candidate {
    pattern: Pattern,
    theme: ThemeNetwork,
    build: Build,
}

/// What the walk below met: the qualified candidates, level by level,
/// and every candidate it compared, in the order it compared them.
struct Walked {
    levels: Vec<Vec<Qualified>>,
    candidates: Vec<Candidate>,
}

/// One candidate at a time through one scratch and one state, the way a
/// worker of `tc_core::lattice::walk` builds them.
struct Worker<'f, 'n> {
    frame: &'f Frame<'n>,
    scratch: Scratch,
    state: PeelState,
}

impl Worker<'_, '_> {
    /// Refills the state with `c`; `false` when its parents' join edges
    /// are disjoint.
    fn build(&mut self, levels: &[Vec<Qualified>], c: &Candidate) -> bool {
        match c.build {
            Build::Seed(item) => {
                self.frame.seed(item, &mut self.scratch, &mut self.state);
                true
            }
            Build::Join(k, i, j) => {
                let (a, b) = (levels[k][i].carry.get(0), levels[k][j].carry.get(0));
                self.frame.join(a, b, &mut self.scratch, &mut self.state)
            }
        }
    }

    /// Builds `c` as a mask of the frame and holds it to its materialised
    /// theme network: the same databases with the same frequency bits, the
    /// same state as a fresh [`PeelState::new`], the definition's
    /// cohesions, the same decomposition levels and the same `C*_p(α)`.
    /// Returns what its children join on when it qualifies at `α = 0`.
    fn check(
        &mut self,
        levels: &[Vec<Qualified>],
        c: &Candidate,
        alpha: f64,
        expected: &impl Fn(&ThemeNetwork) -> Vec<(u32, u64)>,
    ) -> Option<Qualified> {
        let (pattern, theme) = (&c.pattern, &c.theme);
        assert!(self.build(levels, c), "{} met its sibling", pattern);
        assert_eq!(
            bits(&self.frame.frequencies(&self.scratch)),
            expected(theme),
            "databases of {}",
            pattern
        );
        same_state(&self.state, &PeelState::new(theme), pattern);
        for (id, want) in definition(theme).into_iter().enumerate() {
            let got = self.state.cohesion(id as u32);
            assert_eq!(got.to_bits(), want.to_bits(), "definition of {}", pattern);
        }

        let mut core = Vec::new();
        let levels_got =
            TrussDecomposition::decompose_state(pattern.clone(), &mut self.state, &mut core);
        let want = TrussDecomposition::decompose(theme);
        assert_eq!(
            levels_got.levels.len(),
            want.levels.len(),
            "levels of {}",
            pattern
        );
        for (got, want) in levels_got.levels.iter().zip(&want.levels) {
            assert_eq!(
                got.alpha.to_bits(),
                want.alpha.to_bits(),
                "β of {}",
                pattern
            );
            assert_eq!(&got.edges, &want.edges, "a level of {}", pattern);
        }

        self.build(levels, c);
        self.state.peel(alpha, |_| {});
        let truss = maximal_pattern_truss(theme, alpha);
        assert_eq!(
            self.state.alive_global_edges(),
            truss.edges,
            "C* of {}",
            pattern
        );

        if core.is_empty() {
            return None;
        }
        let mut carry = Carries::default();
        self.frame.carry(&core, &mut self.scratch, &mut carry);
        Some(Qualified {
            pattern: pattern.clone(),
            carry,
            join: want.edges_at(0.0),
        })
    }
}

/// Walks the lattice of `net` the way `tc_core::lattice::walk` does, one
/// candidate at a time through one scratch and one state, joining on
/// `E*_p(0)` as the TC-Tree builder does. Holds every candidate, built as
/// a mask of the network's frame, to the theme network `theme_within`
/// materialises from scratch ([`Worker::check`]). `expected` lists a theme
/// network's databases and frequency bits as `Frame::frequencies` does.
fn walk_against_materialised<N: ThemeSource>(
    net: &N,
    worker: &mut Worker<'_, '_>,
    alpha: f64,
    expected: &impl Fn(&ThemeNetwork) -> Vec<(u32, u64)>,
) -> Walked {
    let mut walked = Walked {
        levels: Vec::new(),
        candidates: Vec::new(),
    };
    let mut level = Vec::new();
    for item in net.items_in_use() {
        let pattern = Pattern::singleton(item);
        let c = Candidate {
            theme: net.theme(&pattern),
            pattern,
            build: Build::Seed(item),
        };
        level.extend(worker.check(&walked.levels, &c, alpha, expected));
        walked.candidates.push(c);
    }
    while !level.is_empty() {
        walked.levels.push(level);
        let k = walked.levels.len() - 1;
        let mut next = Vec::new();
        let members = &walked.levels[k];
        for (i, a) in members.iter().enumerate() {
            for (j, b) in members.iter().enumerate().skip(i + 1) {
                let (pa, pb) = (a.pattern.items(), b.pattern.items());
                if pa[..pa.len() - 1] != pb[..pb.len() - 1] {
                    continue;
                }
                let within = tc_util::sorted::intersect(&a.join, &b.join);
                let (a_carry, b_carry) = (a.carry.get(0), b.carry.get(0));
                let met =
                    worker
                        .frame
                        .join(a_carry, b_carry, &mut worker.scratch, &mut worker.state);
                assert_eq!(met, !within.is_empty());
                if within.is_empty() {
                    continue;
                }
                let pattern = a.pattern.with_item(pb[pb.len() - 1]);
                let c = Candidate {
                    theme: net.theme_within(&pattern, &within),
                    pattern,
                    build: Build::Join(k, i, j),
                };
                next.extend(worker.check(&walked.levels, &c, alpha, expected));
                walked.candidates.push(c);
            }
        }
        level = next;
    }
    walked
}

/// Walks the lattice of `net`, then evaluates every candidate again
/// through the same worker, largest theme network first down to the
/// smallest and back up, so every buffer of the state and the scratch
/// shrinks and regrows: each refill must still be a fresh state, bit for
/// bit. Returns how many candidates the walk compared.
fn refill_by_size<N: ThemeSource>(
    net: &N,
    alpha: f64,
    expected: impl Fn(&ThemeNetwork) -> Vec<(u32, u64)>,
) -> usize {
    let frame = net.frame();
    let mut worker = Worker {
        frame: &frame,
        scratch: frame.scratch(),
        state: PeelState::default(),
    };
    let walked = walk_against_materialised(net, &mut worker, alpha, &expected);
    let mut order: Vec<&Candidate> = walked.candidates.iter().collect();
    order.sort_by_key(|c| std::cmp::Reverse((c.theme.num_edges(), c.theme.num_vertices())));
    let back_up = order.iter().rev();
    for &c in order.iter().chain(back_up) {
        worker.check(&walked.levels, c, alpha, &expected);
    }
    walked.candidates.len()
}

/// A vertex database network's expected databases: each theme vertex's
/// global id and frequency bits.
fn vertex_frequencies(theme: &ThemeNetwork) -> Vec<(u32, u64)> {
    let Frequencies::Vertex(f) = theme.frequencies() else {
        panic!("a vertex network's theme carries vertex frequencies");
    };
    theme
        .global_vertices()
        .iter()
        .zip(f)
        .map(|(&v, f)| (v, f.to_bits()))
        .collect()
}

/// An edge database network's expected databases: each theme edge's index
/// id in `net` and frequency bits.
fn edge_frequencies(net: &EdgeDatabaseNetwork) -> impl Fn(&ThemeNetwork) -> Vec<(u32, u64)> + '_ {
    move |theme| {
        let Frequencies::Edge(f) = theme.frequencies() else {
            panic!("an edge network's theme carries edge frequencies");
        };
        theme
            .graph()
            .edges()
            .zip(f)
            .map(|(e, f)| {
                let id = net
                    .edges()
                    .binary_search(&theme.global_edge(e))
                    .expect("an edge");
                (id as u32, f.to_bits())
            })
            .collect()
    }
}

/// Walks the lattice of `net` once, through one fresh worker.
fn walk_once<N: ThemeSource>(
    net: &N,
    alpha: f64,
    expected: impl Fn(&ThemeNetwork) -> Vec<(u32, u64)>,
) -> usize {
    let frame = net.frame();
    let mut worker = Worker {
        frame: &frame,
        scratch: frame.scratch(),
        state: PeelState::default(),
    };
    walk_against_materialised(net, &mut worker, alpha, &expected)
        .candidates
        .len()
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
        let compared = walk_once(&net, [0.0, 0.5, 1.5, 3.0][a], vertex_frequencies);
        prop_assert!(compared > 0);
    }

    #[test]
    fn a_masked_edge_candidate_is_its_theme_network(
        case in (8..15u32, 45..95u64, 0..u64::MAX, 0..4usize)
    ) {
        let (n, density, seed, a) = case;
        let net = random_edge_network(n, density, seed);
        let compared = walk_once(&net, [0.0, 0.5, 1.5, 3.0][a], edge_frequencies(&net));
        prop_assert!(compared > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_refilled_state_is_a_fresh_one(
        case in (8..15u32, 45..95u64, 0..u64::MAX, 0..4usize)
    ) {
        let (n, density, seed, a) = case;
        let alpha = [0.0, 0.5, 1.5, 3.0][a];
        let net = random_vertex_network(n, density, seed);
        prop_assert!(refill_by_size(&net, alpha, vertex_frequencies) > 1);
        let net = random_edge_network(n, density, seed ^ 0x9E37_79B9);
        prop_assert!(refill_by_size(&net, alpha, edge_frequencies(&net)) > 1);
    }
}
