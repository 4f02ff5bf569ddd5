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
//! A decomposition is peeled by `PeelState::peel_levels`, which hands
//! each removed edge's key to a buffer the peeling state keeps: building
//! `L_p` allocates its `h` edge lists and the list of them.

use crate::peel::PeelState;
use crate::theme::ThemeNetwork;
use crate::truss::PatternTruss;
use tc_graph::{EdgeKey, VertexId};
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

/// Counts `(|V*_p(α)|, |E*_p(α)|)` straight off a decomposition — what
/// [`TrussDecomposition::truss_at`] would report as `num_vertices` /
/// `num_edges`, without building the truss.
///
/// Equation 1's union is disjoint (Theorem 6.1), so `|E*_p(α)|` is the sum
/// of the surviving levels' lengths and `|V*_p(α)|` the number of distinct
/// endpoints in them: no edge is copied and no edge list sorted. One
/// counter serves a whole query walk. Endpoints below
/// [`TrussCounter::TABLE_IDS`] are marked in a table indexed by vertex id
/// and stamped with the current count's epoch, so starting the next count
/// costs nothing; the table grows to the largest such id seen and no
/// further. Endpoints at or past the bound are listed, and the list is
/// sorted and deduplicated when the count is taken — so what a counter
/// holds follows the vertices it counted, never the size of a vertex id.
#[derive(Debug, Default)]
pub struct TrussCounter {
    /// `stamps[v] == epoch` iff `v` is already counted for this truss.
    stamps: Vec<u32>,
    epoch: u32,
    overflow: Vec<VertexId>,
}

impl TrussCounter {
    /// Vertex ids the table may cover: 4 MiB of stamps at most.
    pub const TABLE_IDS: usize = 1 << 20;

    /// An empty counter; allocates on first use.
    pub fn new() -> Self {
        TrussCounter::default()
    }

    /// `(|V*_p(α)|, |E*_p(α)|)` of `truss`; `(0, 0)` exactly when
    /// `truss.truss_at(alpha)` is empty.
    pub fn count(&mut self, truss: &TrussDecomposition, alpha: f64) -> (usize, usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps of 2^32 counts ago would read as current.
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.overflow.clear();
        let (mut vertices, mut edges) = (0, 0);
        for level in truss.levels_above(alpha) {
            edges += level.edges.len();
            for &(u, v) in &level.edges {
                vertices += usize::from(self.mark(u)) + usize::from(self.mark(v));
            }
        }
        self.overflow.sort_unstable();
        self.overflow.dedup();
        (vertices + self.overflow.len(), edges)
    }

    /// Marks `v` for the current epoch; `true` when the table saw it for
    /// the first time. Ids the table may not cover go to the overflow
    /// list and are counted from there.
    #[inline]
    fn mark(&mut self, v: VertexId) -> bool {
        let i = v as usize;
        if i >= self.stamps.len() {
            if i >= Self::TABLE_IDS {
                self.overflow.push(v);
                return false;
            }
            // A fresh zeroed allocation, not `resize`: the allocator hands
            // out large zeroed blocks without touching them, so a high id
            // costs the pages it lands on, not the whole table.
            let mut grown = vec![0u32; (i + 1).next_power_of_two()];
            grown[..self.stamps.len()].copy_from_slice(&self.stamps);
            self.stamps = grown;
        }
        let first = self.stamps[i] != self.epoch;
        self.stamps[i] = self.epoch;
        first
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
    fn counter_equals_truss_at_around_every_level_boundary() {
        let (net, pat) = tiered();
        let theme = ThemeNetwork::induce(&net, &pat);
        let d = TrussDecomposition::decompose(&theme);
        assert!(d.num_levels() >= 3, "the fixture has three cohesion tiers");
        let mut probes = vec![0.0, d.max_alpha().unwrap() + 1.0];
        for level in &d.levels {
            probes.extend([level.alpha - 1e-4, level.alpha, level.alpha + 1e-4]);
        }
        // One counter for all probes, descending and ascending, so a count
        // never depends on what the counter held before.
        let mut counter = TrussCounter::new();
        let reversed: Vec<f64> = probes.iter().rev().copied().collect();
        for alpha in probes.into_iter().chain(reversed) {
            let truss = d.truss_at(alpha);
            let got = counter.count(&d, alpha);
            assert_eq!(
                got,
                (truss.num_vertices(), truss.num_edges()),
                "alpha = {alpha}"
            );
            assert_eq!(got == (0, 0), truss.is_empty(), "alpha = {alpha}");
        }
        assert_eq!(counter.count(&TrussDecomposition::default(), 0.0), (0, 0));
    }

    fn one_level(edges: Vec<EdgeKey>) -> TrussDecomposition {
        TrussDecomposition {
            pattern: Pattern::empty(),
            levels: vec![TrussLevel { alpha: 1.0, edges }],
        }
    }

    #[test]
    fn counter_table_is_bounded_and_ids_past_it_are_counted_once() {
        let bound = TrussCounter::TABLE_IDS as u32;
        let mut counter = TrussCounter::new();
        // The largest ids there are: listed, not indexed.
        assert_eq!(
            counter.count(&one_level(vec![(0, u32::MAX - 1)]), 0.0),
            (2, 1)
        );
        assert!(counter.stamps.len() <= 1, "{}", counter.stamps.len());
        // Either side of the bound, with every endpoint repeated: the last
        // id the table covers, the first it does not, and far past it.
        let straddling = one_level(vec![
            (3, bound - 1),
            (3, bound),
            (bound - 1, bound),
            (bound - 1, u32::MAX),
            (bound, bound + 7),
            (bound, u32::MAX),
            (bound + 7, u32::MAX),
        ]);
        let want = straddling.truss_at(0.0);
        assert_eq!(want.num_vertices(), 5);
        for _ in 0..2 {
            assert_eq!(counter.count(&straddling, 0.0), (5, 7));
        }
        assert_eq!(counter.stamps.len(), TrussCounter::TABLE_IDS);
        // A thin truss after a wide one is not counted into its leftovers.
        assert_eq!(counter.count(&one_level(vec![(3, 4)]), 0.0), (2, 1));
    }

    #[test]
    fn counter_survives_its_epoch_wrapping() {
        let d = one_level(vec![(0, 1), (1, 2)]);
        let mut counter = TrussCounter::new();
        assert_eq!(counter.count(&d, 0.0), (3, 2));
        // Stamps written at epoch 1 must not read as current when the
        // epoch comes round to 1 again.
        counter.epoch = u32::MAX;
        assert_eq!(counter.count(&d, 0.0), (3, 2));
        assert_eq!(counter.epoch, 1);
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
