//! Maximal pattern truss decomposition — §6.1 (Theorem 6.1, Equation 1).
//!
//! Theorem 6.1: `C*_p(α)` only shrinks when `α` crosses the minimum edge
//! cohesion `β` of the current truss. The decomposition therefore peels
//! `C*_p(0)` with the ascending threshold sequence
//! `α_0 = 0, α_k = min eco of C*_p(α_{k-1})`, recording at each step the
//! *removed set* `R_p(α_k) = E*_p(α_{k-1}) \ E*_p(α_k)`. The resulting list
//! `L_p = (α_1, R_p(α_1)), …, (α_h, R_p(α_h))` stores exactly the edges of
//! `C*_p(0)` once each, and reconstructs any threshold via Equation 1:
//! `E*_p(α) = ∪_{α_k > α} R_p(α_k)`.
//!
//! # Equation 1 from sorted runs
//!
//! The levels ascend strictly in `α_k`, so the levels Equation 1 unions at
//! `α` are a suffix of `L_p`, found by one binary search. Each level's
//! edges are stored sorted, and the levels are disjoint (Theorem 6.1), so
//! `E*_p(α)` is a merge of the suffix's sorted runs:
//! [`TrussDecomposition::edges_at`] sizes its output once, copies the runs
//! in and lets a stable sort, which finds runs already in order and merges
//! them, finish the list in `O(|E| log h)` for `h` surviving levels — not a
//! comparison sort of the whole concatenation.
//! [`TrussDecomposition::truss_at`] then reads the vertices off the sorted
//! edges with [`tc_graph::ktruss::edge_set_vertices`], which marks them in
//! a bitmap over their id range when that range is dense enough.
//!
//! # Counts without edges
//!
//! A served answer carries `(|V*_p(α)|, |E*_p(α)|)`, not the truss. A
//! [`CountLadder`] holds both for every suffix of `L_p` — 16 bytes a
//! level, built once — so [`CountLadder::at`] answers any `α` by the same
//! binary search `edges_at` starts with, and touches no edge.
//!
//! A decomposition is peeled by `PeelState::peel_levels`, which hands
//! each removed edge's key to a buffer the peeling state keeps: building
//! `L_p` allocates its `h` edge lists and the list of them.

use crate::peel::PeelState;
use crate::theme::ThemeNetwork;
use crate::truss::PatternTruss;
use tc_graph::EdgeKey;
use tc_txdb::Pattern;
use tc_util::{float, HeapSize};

/// One node of the linked list `L_p`: the threshold `α_k` and the edges
/// removed when the truss shrinks past it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrussLevel {
    /// `α_k` — the minimum edge cohesion of `C*_p(α_{k-1})`. The edges of
    /// this level belong to `C*_p(α)` exactly for `α < α_k`.
    pub alpha: f64,
    /// `R_p(α_k)`, canonical global keys, sorted.
    pub edges: Vec<EdgeKey>,
}

/// The decomposition `L_p` of a maximal pattern truss `C*_p(0)`.
///
/// Stored in every TC-Tree node (§6.2); answers
/// [`TrussDecomposition::truss_at`] queries by Equation 1 and exposes the
/// nontrivial threshold range `[0, α*_p)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrussDecomposition {
    /// The pattern `p`.
    pub pattern: Pattern,
    /// Levels in strictly ascending `alpha` order.
    pub levels: Vec<TrussLevel>,
}

impl TrussDecomposition {
    /// Decomposes the maximal pattern truss of `theme` at `α = 0`.
    ///
    /// Returns an empty decomposition when `C*_p(0) = ∅` (the pattern is
    /// unqualified and, per Proposition 5.2, so is every super-pattern).
    pub fn decompose(theme: &ThemeNetwork) -> TrussDecomposition {
        if theme.is_trivial() {
            return TrussDecomposition {
                pattern: theme.pattern().clone(),
                levels: Vec::new(),
            };
        }
        let mut state = PeelState::new(theme);
        // Establish C*_p(0): peel at α = 0, discarding those edges — they
        // are not part of the decomposition (L_p stores exactly |E*_p(0)|
        // edges).
        state.peel(0.0, |_| {});
        TrussDecomposition {
            pattern: theme.pattern().clone(),
            levels: state.peel_levels(),
        }
    }

    /// Decomposes `state`, the unpeeled theme network of `pattern`, which
    /// it leaves with no edge alive, and appends to `core` the sorted index
    /// ids of `E*_p(0)` ([`PeelState::extend_alive_index_ids`]) — what the
    /// lattice walk joins a TC-Tree node's children on.
    pub fn decompose_state(
        pattern: Pattern,
        state: &mut PeelState,
        core: &mut Vec<u32>,
    ) -> TrussDecomposition {
        state.peel(0.0, |_| {});
        state.extend_alive_index_ids(core);
        TrussDecomposition {
            pattern,
            levels: state.peel_levels(),
        }
    }

    /// `true` when `C*_p(0) = ∅`.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Number of decomposition levels `h`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total edges stored — equals `|E*_p(0)|`.
    pub fn num_edges(&self) -> usize {
        self.levels.iter().map(|l| l.edges.len()).sum()
    }

    /// `α*_p = max A_p`: the upper bound of the nontrivial threshold range.
    /// `C*_p(α) = ∅` for every `α ≥ α*_p`; `None` when already empty.
    pub fn max_alpha(&self) -> Option<f64> {
        self.levels.last().map(|l| l.alpha)
    }

    /// The levels Equation 1 unions at `alpha`: those with `α_k > α`.
    /// Levels ascend strictly, so they are a suffix, found by binary
    /// search.
    fn levels_above(&self, alpha: f64) -> &[TrussLevel] {
        let start = self
            .levels
            .partition_point(|l| !float::gt_eps(l.alpha, alpha));
        &self.levels[start..]
    }

    /// Equation 1: reconstructs `E*_p(α) = ∪_{α_k > α} R_p(α_k)`, sorted.
    ///
    /// Copies the surviving levels' sorted runs into one list sized once
    /// and merges them with a stable sort, which detects runs already in
    /// order: `O(|E| log h)` over `h` surviving levels.
    pub fn edges_at(&self, alpha: f64) -> Vec<EdgeKey> {
        let levels = self.levels_above(alpha);
        let mut out = Vec::with_capacity(levels.iter().map(|l| l.edges.len()).sum());
        for level in levels {
            out.extend_from_slice(&level.edges);
        }
        out.sort();
        out
    }

    /// Reconstructs the full [`PatternTruss`] at `alpha` (possibly empty).
    pub fn truss_at(&self, alpha: f64) -> PatternTruss {
        // `edges_at` is already canonical: the levels are disjoint
        // (Theorem 6.1) and it merges their sorted runs.
        PatternTruss::from_canonical_edges(self.pattern.clone(), alpha, self.edges_at(alpha))
    }
}

/// One rung of a [`CountLadder`]: level `k`'s `α_k`, and the sizes of
/// Equation 1's union of levels `k..` — `C*_p(α)` for every `α` from the
/// level below's `α_{k-1}` up to `α_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rung {
    /// `α_k`.
    alpha: f64,
    /// `|V|` of levels `k..`.
    vertices: u32,
    /// `|E|` of levels `k..`.
    edges: u32,
}

/// Equation 1's counts at every threshold of a decomposition: what
/// [`TrussDecomposition::truss_at`] would report as `num_vertices` /
/// `num_edges`, for any `α`, in 16 bytes a level and one allocation.
///
/// Built once from `L_p` ([`CountLadder::of`]); [`CountLadder::at`] is
/// then one binary search, with no edge touched. A node whose answers are
/// only ever counted keeps its ladder and can drop its edges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CountLadder {
    /// One rung per level, `α` ascending; counts are of the level's suffix
    /// and so descend.
    rungs: Box<[Rung]>,
}

impl CountLadder {
    /// The ladder of `truss`, in one pass over its levels from the top
    /// down: a level's rung adds its edges, and the endpoints no level
    /// above it holds, to the rung above.
    ///
    /// Endpoints are marked in a bitmap over their id range when that fits
    /// in `2·|E|` words; a wider range sorts the `2·|E|` endpoints, each
    /// tagged with its level, and credits each vertex to the highest level
    /// that holds it. Either way memory follows the edges, never the size
    /// of a vertex id. Counts saturate at `u32::MAX` (a truss that large
    /// would hold 32 GiB of edges).
    pub fn of(truss: &TrussDecomposition) -> CountLadder {
        let levels = &truss.levels;
        // `fresh[k]`: vertices whose highest level is `k`.
        let mut fresh = vec![0u32; levels.len()];
        let edges = truss.num_edges();
        let (mut lo, mut hi) = (u32::MAX, 0);
        for &(u, v) in levels.iter().flat_map(|l| &l.edges) {
            lo = lo.min(u).min(v);
            hi = hi.max(u).max(v);
        }
        if lo <= hi && ((hi - lo) as usize >> 6) < 2 * edges {
            let mut bits = vec![0u64; ((hi - lo) as usize >> 6) + 1];
            for (k, level) in levels.iter().enumerate().rev() {
                for &(u, v) in &level.edges {
                    for x in [u - lo, v - lo] {
                        let (word, bit) = (x as usize >> 6, 1u64 << (x & 63));
                        fresh[k] += u32::from(bits[word] & bit == 0);
                        bits[word] |= bit;
                    }
                }
            }
        } else if edges > 0 {
            let mut tagged = Vec::with_capacity(2 * edges);
            for (k, level) in levels.iter().enumerate() {
                let k = k as u64;
                tagged.extend(
                    (level.edges.iter())
                        .flat_map(|&(u, v)| [u64::from(u) << 32 | k, u64::from(v) << 32 | k]),
                );
            }
            tagged.sort_unstable();
            // The last of a vertex's run carries its highest level.
            for run in tagged.chunk_by(|a, b| a >> 32 == b >> 32) {
                fresh[run[run.len() - 1] as u32 as usize] += 1;
            }
        }
        let (mut vertices, mut edges) = (0u32, 0u32);
        let mut rungs = vec![
            Rung {
                alpha: 0.0,
                vertices: 0,
                edges: 0
            };
            levels.len()
        ];
        for (k, level) in levels.iter().enumerate().rev() {
            vertices = vertices.saturating_add(fresh[k]);
            edges = edges.saturating_add(u32::try_from(level.edges.len()).unwrap_or(u32::MAX));
            rungs[k] = Rung {
                alpha: level.alpha,
                vertices,
                edges,
            };
        }
        CountLadder {
            rungs: rungs.into_boxed_slice(),
        }
    }

    /// `(|V*_p(α)|, |E*_p(α)|)`: the rung of the lowest level with
    /// `α_k > α` (the suffix [`TrussDecomposition::edges_at`] unions), or
    /// `(0, 0)` — exactly when `truss_at(α)` is empty — if there is none.
    pub fn at(&self, alpha: f64) -> (usize, usize) {
        let k = self
            .rungs
            .partition_point(|r| !float::gt_eps(r.alpha, alpha));
        self.rungs
            .get(k)
            .map_or((0, 0), |r| (r.vertices as usize, r.edges as usize))
    }
}

impl HeapSize for CountLadder {
    fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.rungs)
    }
}

impl HeapSize for TrussDecomposition {
    fn heap_size(&self) -> usize {
        self.pattern.heap_size()
            + self
                .levels
                .iter()
                .map(|l| l.edges.capacity() * std::mem::size_of::<EdgeKey>())
                .sum::<usize>()
            + self.levels.capacity() * std::mem::size_of::<TrussLevel>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mptd::maximal_pattern_truss;
    use crate::network::{DatabaseNetwork, DatabaseNetworkBuilder};

    /// A network whose theme "p" has three cohesion tiers: an inner K4 of
    /// high-frequency vertices, a middle triangle, and a weak triangle.
    fn tiered() -> (DatabaseNetwork, Pattern) {
        let mut b = DatabaseNetworkBuilder::new();
        let p = b.intern_item("p");
        let q = b.intern_item("q");
        let add_with_freq = |b: &mut DatabaseNetworkBuilder, v: u32, tenths: u32| {
            for _ in 0..tenths {
                b.add_transaction(v, &[p]);
            }
            for _ in 0..(10 - tenths) {
                b.add_transaction(v, &[q]);
            }
        };
        // K4 on 0..4 with f = 1.0.
        for v in 0..4 {
            add_with_freq(&mut b, v, 10);
        }
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v);
            }
        }
        // Triangle 4-5-6 with f = 0.5.
        for v in 4..7 {
            add_with_freq(&mut b, v, 5);
        }
        b.add_edge(4, 5).add_edge(5, 6).add_edge(4, 6);
        // Weak triangle 7-8-9 with f = 0.1.
        for v in 7..10 {
            add_with_freq(&mut b, v, 1);
        }
        b.add_edge(7, 8).add_edge(8, 9).add_edge(7, 9);
        // Bridges (no triangles, die at α = 0).
        b.add_edge(3, 4).add_edge(6, 7);
        let net = b.build().unwrap();
        let pat = Pattern::singleton(net.item_space().get("p").unwrap());
        (net, pat)
    }

    #[test]
    fn levels_strictly_ascending() {
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        assert!(!d.is_empty());
        for w in d.levels.windows(2) {
            assert!(
                w[0].alpha < w[1].alpha,
                "levels must strictly ascend: {} vs {}",
                w[0].alpha,
                w[1].alpha
            );
        }
    }

    #[test]
    fn stores_exactly_the_alpha0_truss() {
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        let direct = maximal_pattern_truss(&theme, 0.0);
        assert_eq!(d.num_edges(), direct.num_edges());
        assert_eq!(d.edges_at(0.0), direct.edges);
    }

    #[test]
    fn levels_are_disjoint() {
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        let mut seen = std::collections::HashSet::new();
        for level in &d.levels {
            for e in &level.edges {
                assert!(seen.insert(*e), "edge {e:?} stored twice");
            }
        }
    }

    #[test]
    fn reconstruction_matches_direct_mptd_at_all_levels() {
        // Equation 1 vs a fresh MPTD run, at each level boundary and between.
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        let mut probes = vec![0.0, 0.05];
        for level in &d.levels {
            probes.push(level.alpha - 1e-4);
            probes.push(level.alpha);
            probes.push(level.alpha + 1e-4);
        }
        for alpha in probes {
            if alpha < 0.0 {
                continue;
            }
            let direct = maximal_pattern_truss(&theme, alpha);
            assert_eq!(
                d.edges_at(alpha),
                direct.edges,
                "reconstruction mismatch at alpha = {alpha}"
            );
        }
    }

    #[test]
    fn max_alpha_is_emptiness_bound() {
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        let a_star = d.max_alpha().unwrap();
        assert!(d.edges_at(a_star).is_empty(), "empty at α*");
        assert!(
            !d.edges_at(a_star - 1e-6).is_empty(),
            "nonempty just below α*"
        );
        let direct = maximal_pattern_truss(&theme, a_star);
        assert!(direct.is_empty());
    }

    #[test]
    fn theorem_6_1_shrinkage() {
        // C*_p(α2) ⊂ C*_p(α1) strictly when α2 ≥ β (min cohesion).
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        let t0 = d.truss_at(0.0);
        let beta = d.levels[0].alpha;
        let t1 = d.truss_at(beta);
        assert!(t1.num_edges() < t0.num_edges(), "strict shrink at β");
        assert!(t1.is_subgraph_of(&t0));
    }

    #[test]
    fn ladder_equals_truss_at_around_every_level_boundary() {
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        assert!(d.num_levels() >= 3, "the fixture has three cohesion tiers");
        let ladder = CountLadder::of(&d);
        assert_eq!(ladder.rungs.len(), d.num_levels());
        let mut probes = vec![0.0, d.max_alpha().unwrap() + 1.0];
        for level in &d.levels {
            probes.extend([level.alpha - 1e-4, level.alpha, level.alpha + 1e-4]);
        }
        for alpha in probes {
            let truss = d.truss_at(alpha);
            let got = ladder.at(alpha);
            assert_eq!(
                got,
                (truss.num_vertices(), truss.num_edges()),
                "alpha = {alpha}"
            );
            assert_eq!(got == (0, 0), truss.is_empty(), "alpha = {alpha}");
        }
        let empty = CountLadder::of(&TrussDecomposition::default());
        assert_eq!((empty.at(0.0), empty.heap_size()), ((0, 0), 0));
    }

    fn one_level(edges: Vec<EdgeKey>) -> TrussDecomposition {
        TrussDecomposition {
            pattern: Pattern::empty(),
            levels: vec![TrussLevel { alpha: 1.0, edges }],
        }
    }

    #[test]
    fn ladder_memory_follows_the_edges_not_the_ids() {
        // The largest ids there are, and ids either side of 2^20 with every
        // endpoint repeated: the sort regime, counted once each.
        let top = CountLadder::of(&one_level(vec![(0, u32::MAX - 1)]));
        assert_eq!(top.at(0.0), (2, 1));
        let b = 1 << 20;
        let straddling = one_level(vec![
            (3, b - 1),
            (3, b),
            (b - 1, b),
            (b - 1, u32::MAX),
            (b, b + 7),
            (b, u32::MAX),
            (b + 7, u32::MAX),
        ]);
        assert_eq!(straddling.truss_at(0.0).num_vertices(), 5);
        let ladder = CountLadder::of(&straddling);
        assert_eq!(ladder.at(0.0), (5, 7));
        assert_eq!(ladder.heap_size(), std::mem::size_of::<Rung>());
        assert_eq!(std::mem::size_of::<Rung>(), 16);
    }

    #[test]
    fn empty_theme_decomposes_to_empty() {
        let (net, _) = tiered();
        let ghost = Pattern::singleton(tc_txdb::Item(999));
        let theme = ThemeNetwork::induce(&net, &ghost);
        let d = TrussDecomposition::decompose(&theme);
        assert!(d.is_empty());
        assert_eq!(d.max_alpha(), None);
        assert!(d.edges_at(0.0).is_empty());
        assert!(d.truss_at(0.0).is_empty());
    }

    #[test]
    fn truss_with_no_surviving_edges_at_zero() {
        // A pure path: every edge dies at α = 0, so L_p is empty even though
        // the theme network has edges.
        let mut b = DatabaseNetworkBuilder::new();
        let p = b.intern_item("p");
        for v in 0..3u32 {
            b.add_transaction(v, &[p]);
        }
        b.add_edge(0, 1).add_edge(1, 2);
        let net = b.build().unwrap();
        let pat = Pattern::singleton(net.item_space().get("p").unwrap());
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        assert!(d.is_empty());
    }
}
