//! Theme Community Finder Intersection (TCFI) — §5.3, the headline miner.
//!
//! TCFI refines TCFA in one line of Algorithm 3 (line 6): the theme network
//! of a level-`k` candidate `p^k = p^{k-1} ∪ q^{k-1}` is induced not from
//! the full network but from `C*_{p^{k-1}}(α) ∩ C*_{q^{k-1}}(α)`, which is
//! sound by the graph-intersection property (Proposition 5.3). Candidates
//! whose parents' trusses do not intersect are pruned without running MPTD
//! at all — and because maximal pattern trusses are typically small local
//! subgraphs scattered across a sparse network (§7.2), this eliminates most
//! of the work.
//!
//! [`TcfiMiner`] is the serial reference, level by level as Algorithm 3
//! reads: it materialises each candidate's theme network inside its
//! parents' truss intersection ([`ThemeSource::theme_within`]).
//! [`ParallelTcfiMiner`] is the one the tools run: the [`lattice`] walk
//! that also builds the TC-Tree, with MPTD at `α` as its evaluator. It
//! evaluates each candidate as a mask of the whole network's triangle
//! index, from its parents' truss edges and carried tidsets, and finds
//! the same trusses bit for bit. Both take any [`ThemeSource`]: the
//! paper's vertex database networks, and the §8 edge database networks,
//! whose only difference — the weight of a triangle — is settled where a
//! peeling state weighs its triangles.

use crate::lattice::{self, Evaluator};
use crate::miner::Miner;
use crate::mptd::{qualified_peel, qualified_truss};
use crate::peel::PeelState;
use crate::result::{MinerStats, MiningResult};
use crate::tcfa::mine_level_one;
use crate::theme::ThemeSource;
use crate::truss::PatternTruss;
use tc_txdb::{apriori, Pattern};
use tc_util::{FxHashMap, Stopwatch};

/// The intersection-pruned miner.
#[derive(Debug, Clone)]
pub struct TcfiMiner {
    /// Safety cap on pattern length (`usize::MAX` = unbounded).
    pub max_len: usize,
}

impl Default for TcfiMiner {
    fn default() -> Self {
        TcfiMiner {
            max_len: usize::MAX,
        }
    }
}

impl TcfiMiner {
    /// The work-stealing parallel variant of this miner: candidates are
    /// independent once both of their join parents' trusses are known, so
    /// they can be processed concurrently, without waiting for the rest of
    /// their Apriori level to finish.
    pub fn parallel(self, threads: usize) -> ParallelTcfiMiner {
        ParallelTcfiMiner {
            max_len: self.max_len,
            threads,
        }
    }
}

impl<N: ThemeSource + ?Sized> Miner<N> for TcfiMiner {
    fn name(&self) -> &'static str {
        "TCFI"
    }

    fn mine(&self, network: &N, alpha: f64) -> MiningResult {
        let sw = Stopwatch::start();
        let mut stats = MinerStats::default();
        let mut all: Vec<PatternTruss> = Vec::new();

        let mut level = mine_level_one(network, alpha, &mut stats);

        let mut k = 2usize;
        while !level.is_empty() && k <= self.max_len {
            // Index the level's trusses by pattern; candidate generation
            // returns parent *indices* into the sorted pattern list.
            let mut prev_patterns: Vec<Pattern> = level.iter().map(|t| t.pattern.clone()).collect();
            let by_pattern: FxHashMap<Pattern, PatternTruss> =
                level.drain(..).map(|t| (t.pattern.clone(), t)).collect();

            let candidates = apriori::generate_candidates(&mut prev_patterns);
            stats.candidates_generated += candidates.len();

            let mut next = Vec::new();
            for cand in candidates {
                // Proposition 5.3: `C*_{p∪q}(α) ⊆ C*_p(α) ∩ C*_q(α)`, so an
                // empty intersection prunes the candidate before anything
                // is induced.
                let left = &by_pattern[&prev_patterns[cand.left]];
                let intersection = left.intersect_edges(&by_pattern[&prev_patterns[cand.right]]);
                if intersection.is_empty() {
                    stats.pruned_by_intersection += 1;
                    continue;
                }
                let theme = network.theme_within(&cand.pattern, &intersection);
                next.extend(qualified_truss(&theme, alpha, &mut stats));
            }
            all.extend(by_pattern.into_values());
            level = next;
            k += 1;
        }
        all.append(&mut level);

        stats.elapsed_secs = sw.elapsed_secs();
        MiningResult::new(alpha, all, stats)
    }
}

/// TCFI as the shared [`lattice`] walk: barrier-free on the work-stealing
/// executor ([`tc_util::steal`]) past level 1, with MPTD at `α` as the
/// evaluator and each truss's edges as what its children join on.
///
/// **Exactness contract.** The trusses found are identical to
/// [`TcfiMiner`]'s at any thread count ([`MiningResult::same_trusses`]):
/// a candidate's truss is computed inside the intersection of its parents'
/// trusses exactly as the serial miner does. The *counters* legitimately
/// differ from the serial miner's: crossing the barrier means the global
/// Apriori subset check (every `(k-1)`-sub-pattern qualified, which needs
/// the whole previous level) is traded for the parents-only check, so this
/// miner may generate — and prune or MPTD — a superset of the serial
/// candidates. Anti-monotonicity (Proposition 5.2) guarantees every extra
/// candidate's truss is empty, so the result set is unchanged. All counters
/// are still **deterministic**: they are functions of the qualified-pattern
/// set, not of scheduling, so equal-thread-count runs and different thread
/// counts report identical stats.
#[derive(Debug, Clone)]
pub struct ParallelTcfiMiner {
    /// Safety cap on pattern length.
    pub max_len: usize,
    /// Worker threads (clamped to ≥ 1; 1 runs inline on the caller).
    pub threads: usize,
}

impl Default for ParallelTcfiMiner {
    fn default() -> Self {
        ParallelTcfiMiner {
            max_len: usize::MAX,
            threads: 4,
        }
    }
}

/// MPTD at `α`: a candidate qualifies with a non-empty `C*_p(α)`, and its
/// children join on that truss's edges.
struct AtAlpha(f64);

impl Evaluator for AtAlpha {
    type Value = PatternTruss;

    fn evaluate(
        &self,
        pattern: Pattern,
        state: &mut PeelState,
        join: &mut Vec<u32>,
        stats: &mut MinerStats,
    ) -> Option<PatternTruss> {
        let truss = qualified_peel(pattern, state, self.0, stats)?;
        state.extend_alive_index_ids(join);
        Some(truss)
    }
}

impl<N: ThemeSource + ?Sized> Miner<N> for ParallelTcfiMiner {
    fn name(&self) -> &'static str {
        "TCFI-WS"
    }

    fn mine(&self, network: &N, alpha: f64) -> MiningResult {
        let sw = Stopwatch::start();
        let (nodes, mut stats) =
            lattice::walk(network, &AtAlpha(alpha), self.threads, self.max_len);
        stats.elapsed_secs = sw.elapsed_secs();
        MiningResult::new(alpha, nodes.into_iter().map(|n| n.value).collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DatabaseNetwork, DatabaseNetworkBuilder};
    use crate::oracle;
    use crate::tcfa::TcfaMiner;

    fn overlapping_net() -> DatabaseNetwork {
        // Triangle A (vertices 0-2): items {a,b} everywhere.
        // Triangle B (vertices 2-4): items {b,c} everywhere (vertex 2 shared).
        // Far triangle C (vertices 5-7): items {a,c}.
        let mut b = DatabaseNetworkBuilder::new();
        let ia = b.intern_item("a");
        let ib = b.intern_item("b");
        let ic = b.intern_item("c");
        for v in 0..3u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[ia, ib]);
            }
        }
        for v in 2..5u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[ib, ic]);
            }
        }
        for v in 5..8u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[ia, ic]);
            }
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.add_edge(2, 3).add_edge(3, 4).add_edge(2, 4);
        b.add_edge(5, 6).add_edge(6, 7).add_edge(5, 7);
        b.add_edge(4, 5); // bridge, not in any triangle
        b.build().unwrap()
    }

    #[test]
    fn identical_results_to_tcfa() {
        let net = overlapping_net();
        for alpha in [0.0, 0.1, 0.3, 0.5, 1.0, 2.0] {
            let fa = TcfaMiner::default().mine(&net, alpha);
            let fi = TcfiMiner::default().mine(&net, alpha);
            assert!(
                fa.same_trusses(&fi),
                "TCFA and TCFI must be exact at alpha = {alpha}: {} vs {} trusses",
                fa.np(),
                fi.np()
            );
        }
    }

    #[test]
    fn matches_exhaustive_oracle() {
        let net = overlapping_net();
        for alpha in [0.0, 0.25, 0.5] {
            let r = TcfiMiner::default().mine(&net, alpha);
            let truth = oracle::exhaustive_mine(&net, alpha, usize::MAX);
            assert_eq!(r.np(), truth.len(), "alpha = {alpha}");
            for (p, edges) in &truth {
                assert_eq!(&r.truss_of(p).unwrap().edges, edges);
            }
        }
    }

    #[test]
    fn intersection_pruning_fires() {
        // {a} lives on triangles A and C; {b} on A∪B; {c} on B and C.
        // Candidate {a,b}: trusses intersect on triangle A → kept.
        // At level 2→3, candidate {a,b,c} joins {a,b} (triangle A) with
        // {a,c} (triangle C) — disjoint trusses → pruned without MPTD.
        let net = overlapping_net();
        let r = TcfiMiner::default().mine(&net, 0.5);
        assert!(
            r.stats.pruned_by_intersection > 0,
            "expected at least one empty-intersection prune"
        );
        // And no {a,b,c} truss exists.
        let ia = net.item_space().get("a").unwrap();
        let ib = net.item_space().get("b").unwrap();
        let ic = net.item_space().get("c").unwrap();
        assert!(r.truss_of(&Pattern::new(vec![ia, ib, ic])).is_none());
    }

    #[test]
    fn fewer_mptd_calls_than_tcfa() {
        let net = overlapping_net();
        let fa = TcfaMiner::default().mine(&net, 0.5);
        let fi = TcfiMiner::default().mine(&net, 0.5);
        assert!(
            fi.stats.mptd_calls <= fa.stats.mptd_calls,
            "TCFI must never call MPTD more often than TCFA ({} vs {})",
            fi.stats.mptd_calls,
            fa.stats.mptd_calls
        );
    }

    #[test]
    fn overlapping_communities_reported() {
        // Vertex 2 belongs to the {a,b} truss and the {b,c} truss — the
        // arbitrary-overlap property §7.4 demonstrates. (α = 0.3 < 0.5 =
        // the cohesion floor set by vertex 2's split frequencies.)
        let net = overlapping_net();
        let r = TcfiMiner::default().mine(&net, 0.3);
        let ia = net.item_space().get("a").unwrap();
        let ib = net.item_space().get("b").unwrap();
        let ic = net.item_space().get("c").unwrap();
        let t_ab = r.truss_of(&Pattern::new(vec![ia, ib])).unwrap();
        let t_bc = r.truss_of(&Pattern::new(vec![ib, ic])).unwrap();
        assert!(t_ab.contains_vertex(2));
        assert!(t_bc.contains_vertex(2));
    }

    #[test]
    fn empty_network() {
        let mut b = DatabaseNetworkBuilder::new();
        b.ensure_vertex(1);
        let net = b.build().unwrap();
        let r = TcfiMiner::default().mine(&net, 0.0);
        assert_eq!(r.np(), 0);
    }

    /// A larger deterministic network (pseudo-random via a hand-rolled
    /// LCG — tc-core has no rand dependency): several planted triangles
    /// with overlapping item sets plus noise edges, big enough to give the
    /// parallel miners real multi-level candidate frontiers.
    fn lcg_net(seed: u64) -> DatabaseNetwork {
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut b = DatabaseNetworkBuilder::new();
        let items: Vec<_> = (0..8).map(|i| b.intern_item(&format!("i{i}"))).collect();
        // 10 triangles over 30 vertices; triangle t uses a 3-item theme.
        for t in 0..10u32 {
            let (u, v, w) = (3 * t, 3 * t + 1, 3 * t + 2);
            b.add_edge(u, v).add_edge(v, w).add_edge(u, w);
            let theme: Vec<_> = (0..3).map(|j| items[((t as usize) + j) % 8]).collect();
            for vertex in [u, v, w] {
                for _ in 0..3 {
                    b.add_transaction(vertex, &theme);
                }
                // Noise item.
                b.add_transaction(vertex, &[items[next(8) as usize]]);
            }
        }
        // Noise edges stitching triangles together.
        for _ in 0..12 {
            let (u, v) = (next(30) as u32, next(30) as u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn work_stealing_identical_trusses_to_serial() {
        for net in [overlapping_net(), lcg_net(0xC0FFEE)] {
            for alpha in [0.0, 0.3, 0.5] {
                let serial = TcfiMiner::default().mine(&net, alpha);
                for threads in [1, 2, 4, 8] {
                    let par = TcfiMiner::default().parallel(threads).mine(&net, alpha);
                    assert!(
                        serial.same_trusses(&par),
                        "serial vs {threads}-thread WS TCFI at alpha = {alpha}: {} vs {}",
                        serial.np(),
                        par.np()
                    );
                    // Crossing the barrier trades the global Apriori subset
                    // check for the parents-only check, so the WS miner may
                    // attempt a superset of the serial candidates — never
                    // fewer (see the ParallelTcfiMiner docs).
                    assert!(par.stats.candidates_generated >= serial.stats.candidates_generated);
                    assert!(par.stats.mptd_calls >= serial.stats.mptd_calls);
                    assert!(
                        par.stats.pruned_by_intersection >= serial.stats.pruned_by_intersection
                    );
                }
            }
        }
    }

    #[test]
    fn work_stealing_counters_deterministic_across_threads_and_runs() {
        // The WS counters are functions of the qualified-pattern set, not
        // of scheduling: every thread count and every repetition must
        // report identical stats.
        let net = lcg_net(0xBEEF);
        let reference = TcfiMiner::default().parallel(1).mine(&net, 0.2);
        for threads in [1, 2, 8] {
            for _ in 0..3 {
                let r = TcfiMiner::default().parallel(threads).mine(&net, 0.2);
                assert!(reference.same_trusses(&r), "threads = {threads}");
                assert_eq!(reference.stats.mptd_calls, r.stats.mptd_calls);
                assert_eq!(
                    reference.stats.candidates_generated,
                    r.stats.candidates_generated
                );
                assert_eq!(
                    reference.stats.pruned_by_intersection,
                    r.stats.pruned_by_intersection
                );
            }
        }
    }

    #[test]
    fn work_stealing_respects_max_len() {
        let net = overlapping_net();
        for max_len in [1, 2] {
            let serial = TcfiMiner { max_len }.mine(&net, 0.0);
            let par = TcfiMiner { max_len }.parallel(4).mine(&net, 0.0);
            assert!(serial.same_trusses(&par), "max_len = {max_len}");
            assert!(par.trusses.iter().all(|t| t.pattern.len() <= max_len));
        }
    }

    #[test]
    fn parallel_empty_network() {
        let mut b = DatabaseNetworkBuilder::new();
        b.ensure_vertex(1);
        let net = b.build().unwrap();
        let r = ParallelTcfiMiner::default().mine(&net, 0.0);
        assert_eq!(r.np(), 0);
        assert_eq!(r.stats.mptd_calls, 0);
    }
}
