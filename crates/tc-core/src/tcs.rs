//! Theme Community Scanner — the baseline of §4.2.
//!
//! TCS pre-filters candidate themes with a frequency threshold `ε`: the
//! candidate set is `P = {p | ∃ v_i, f_i(p) > ε}`, gathered by frequent-
//! itemset mining over every vertex database. MPTD then runs on each
//! candidate's theme network. With `ε > 0` TCS trades accuracy for speed —
//! a low-frequency pattern can still form a dense truss and is lost (§7.1);
//! with `ε = 0` it is exact but enumerates every occurring pattern.

use crate::miner::Miner;
use crate::mptd::qualified_truss;
use crate::network::DatabaseNetwork;
use crate::result::{MinerStats, MiningResult};
use crate::theme::ThemeNetwork;
use tc_graph::VertexId;
use tc_txdb::Pattern;
use tc_util::Stopwatch;

/// The TCS baseline miner.
#[derive(Debug, Clone)]
pub struct TcsMiner {
    /// The pattern-frequency pre-filter `ε` (strict: `f_i(p) > ε`).
    pub epsilon: f64,
    /// Maximum pattern length to enumerate (guards the exponential blow-up;
    /// `usize::MAX` for unbounded, as in the paper).
    pub max_len: usize,
}

impl Default for TcsMiner {
    fn default() -> Self {
        TcsMiner {
            epsilon: 0.1,
            max_len: usize::MAX,
        }
    }
}

impl TcsMiner {
    /// A TCS miner with the given `ε`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        TcsMiner {
            epsilon,
            ..Self::default()
        }
    }

    /// The candidate pattern set `P = {p | ∃ v_i, f_i(p) > ε}`, sorted.
    pub fn candidate_patterns(&self, network: &DatabaseNetwork) -> Vec<Pattern> {
        let mut seen: std::collections::BTreeSet<Pattern> = std::collections::BTreeSet::new();
        for v in 0..network.num_vertices() as VertexId {
            tc_txdb::eclat::for_each_frequent_pattern(
                network.database(v),
                self.epsilon,
                self.max_len,
                |p, _| {
                    seen.insert(p.clone());
                },
            );
        }
        seen.into_iter().collect()
    }
}

impl Miner for TcsMiner {
    fn name(&self) -> &'static str {
        "TCS"
    }

    fn mine(&self, network: &DatabaseNetwork, alpha: f64) -> MiningResult {
        let sw = Stopwatch::start();
        let mut stats = MinerStats::default();
        let candidates = self.candidate_patterns(network);
        stats.candidates_generated = candidates.len();

        let mut trusses = Vec::new();
        for pattern in candidates {
            // §4.2: "for each candidate pattern p ∈ P, we induce theme
            // network G_p" — from the full network, like TCFA.
            let theme = ThemeNetwork::induce_scan(network, &pattern);
            trusses.extend(qualified_truss(&theme, alpha, &mut stats));
        }
        stats.elapsed_secs = sw.elapsed_secs();
        MiningResult::new(alpha, trusses, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DatabaseNetworkBuilder;
    use crate::oracle;

    /// Two triangles: one whose members buy "tea" in every transaction, one
    /// whose members buy "coffee" rarely (f = 0.2 on every member, nowhere
    /// else) but are densely connected.
    fn two_triangles() -> DatabaseNetwork {
        let mut b = DatabaseNetworkBuilder::new();
        let tea = b.intern_item("tea");
        let coffee = b.intern_item("coffee");
        let noise = b.intern_item("noise");
        for v in 0..3u32 {
            for _ in 0..5 {
                b.add_transaction(v, &[tea]);
            }
        }
        for v in 3..6u32 {
            b.add_transaction(v, &[coffee]);
            for _ in 0..4 {
                b.add_transaction(v, &[noise]);
            }
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(3, 5);
        b.build().unwrap()
    }

    #[test]
    fn exact_with_zero_epsilon() {
        let net = two_triangles();
        let r = TcsMiner::with_epsilon(0.0).mine(&net, 0.1);
        let truth = oracle::exhaustive_mine(&net, 0.1, usize::MAX);
        assert_eq!(r.np(), truth.len());
        for (p, edges) in &truth {
            assert_eq!(&r.truss_of(p).unwrap().edges, edges);
        }
    }

    #[test]
    fn prefilter_loses_low_frequency_truss() {
        // The §7.1 accuracy-loss phenomenon: at ε = 0.3, "coffee" (f = 0.2
        // on *all* vertices that have it) never becomes a candidate, even
        // though at α = 0.1 its truss is valid (eco = 0.2 > 0.1). A pattern
        // with low frequency everywhere can still form a dense truss.
        let net = two_triangles();
        let coffee = net.item_space().get("coffee").unwrap();
        let p = Pattern::singleton(coffee);

        let exact = TcsMiner::with_epsilon(0.0).mine(&net, 0.1);
        let lossy = TcsMiner::with_epsilon(0.3).mine(&net, 0.1);
        let full = exact.truss_of(&p).unwrap();
        assert_eq!(full.vertices, vec![3, 4, 5]);
        assert!(
            lossy.truss_of(&p).is_none(),
            "ε-prefilter drops the low-frequency theme entirely"
        );
        assert!(lossy.np() < exact.np());
        assert!(lossy.nv() < exact.nv());
    }

    #[test]
    fn candidate_patterns_respect_epsilon_strictness() {
        let net = two_triangles();
        let tea = net.item_space().get("tea").unwrap();
        let coffee = net.item_space().get("coffee").unwrap();
        // f(coffee) = 0.2 exactly on vertices 3..6: ε = 0.2 must exclude it
        // (strict inequality), while tea (f = 1.0 on 0..3) stays.
        let cands = TcsMiner::with_epsilon(0.2).candidate_patterns(&net);
        assert!(cands.contains(&Pattern::singleton(tea)));
        assert!(!cands.contains(&Pattern::singleton(coffee)));
        // ε = 1.0 excludes everything.
        assert!(TcsMiner::with_epsilon(1.0)
            .candidate_patterns(&net)
            .is_empty());
    }

    #[test]
    fn stats_populated() {
        let net = two_triangles();
        let r = TcsMiner::with_epsilon(0.0).mine(&net, 0.1);
        assert!(r.stats.candidates_generated >= r.stats.mptd_calls);
        assert!(r.stats.mptd_calls > 0);
        assert_eq!(r.stats.pruned_by_intersection, 0);
    }

    #[test]
    fn max_len_caps_candidates() {
        let net = two_triangles();
        let mut miner = TcsMiner::with_epsilon(0.0);
        miner.max_len = 1;
        let cands = miner.candidate_patterns(&net);
        assert!(cands.iter().all(|p| p.len() == 1));
    }
}
