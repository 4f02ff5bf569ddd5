//! Theme Community Finder Apriori (TCFA) — Algorithm 3.
//!
//! TCFA walks pattern lengths level by level. Level 1 runs MPTD on the
//! theme network of every occurring item. Level `k` joins the *qualified*
//! patterns of level `k-1` (Algorithm 2), discards candidates with an
//! unqualified sub-pattern (Proposition 5.2's anti-monotonicity), and runs
//! MPTD on each survivor's theme network — induced from the **full**
//! network, which is TCFA's bottleneck that TCFI later removes.

use crate::miner::Miner;
use crate::mptd::qualified_truss;
use crate::network::DatabaseNetwork;
use crate::result::{MinerStats, MiningResult};
use crate::theme::{ThemeNetwork, ThemeSource};
use crate::truss::PatternTruss;
use tc_txdb::{apriori, Pattern};
use tc_util::Stopwatch;

/// The Apriori-style miner.
#[derive(Debug, Clone)]
pub struct TcfaMiner {
    /// Safety cap on pattern length (`usize::MAX` = unbounded, as in the
    /// paper; benchmarks use it unbounded too).
    pub max_len: usize,
}

impl Default for TcfaMiner {
    fn default() -> Self {
        TcfaMiner {
            max_len: usize::MAX,
        }
    }
}

/// Mines level 1: one MPTD per occurring item. Shared by TCFA and TCFI.
pub(crate) fn mine_level_one<N: ThemeSource + ?Sized>(
    network: &N,
    alpha: f64,
    stats: &mut MinerStats,
) -> Vec<PatternTruss> {
    let mut level = Vec::new();
    for item in network.items_in_use() {
        stats.candidates_generated += 1;
        let theme = network.theme(&Pattern::singleton(item));
        level.extend(qualified_truss(&theme, alpha, stats));
    }
    level
}

impl Miner for TcfaMiner {
    fn name(&self) -> &'static str {
        "TCFA"
    }

    fn mine(&self, network: &DatabaseNetwork, alpha: f64) -> MiningResult {
        let sw = Stopwatch::start();
        let mut stats = MinerStats::default();
        let mut all: Vec<PatternTruss> = Vec::new();

        // Level 1 (Algorithm 3, line 1).
        let mut level = mine_level_one(network, alpha, &mut stats);

        // Levels k = 2, 3, … (lines 2-12).
        let mut k = 2usize;
        while !level.is_empty() && k <= self.max_len {
            let mut prev_patterns: Vec<Pattern> = level.iter().map(|t| t.pattern.clone()).collect();
            all.append(&mut level);

            let candidates = apriori::generate_candidates(&mut prev_patterns);
            stats.candidates_generated += candidates.len();

            let mut next = Vec::new();
            for cand in candidates {
                // Algorithm 3 line 6 — induce G_pk from the FULL network.
                // This Ω(|V|)-per-candidate scan is TCFA's bottleneck; TCFI
                // exists to avoid it (§5.3). Do not "optimise" this to the
                // index-accelerated induction, or the baseline comparison
                // stops measuring what the paper measures.
                let theme = ThemeNetwork::induce_scan(network, &cand.pattern);
                next.extend(qualified_truss(&theme, alpha, &mut stats));
            }
            level = next;
            k += 1;
        }
        all.append(&mut level);

        stats.elapsed_secs = sw.elapsed_secs();
        MiningResult::new(alpha, all, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DatabaseNetworkBuilder;
    use crate::oracle;
    use crate::tcs::TcsMiner;

    /// A triangle whose vertices share items {a, b}; a second triangle with
    /// only item a; plus an {a}-{b} bridge vertex pair.
    fn net() -> DatabaseNetwork {
        let mut b = DatabaseNetworkBuilder::new();
        let a = b.intern_item("a");
        let bb = b.intern_item("b");
        for v in 0..3u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[a, bb]);
            }
        }
        for v in 3..6u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[a]);
            }
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(3, 5);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn finds_multi_item_themes() {
        let network = net();
        let r = TcfaMiner::default().mine(&network, 0.5);
        let a = network.item_space().get("a").unwrap();
        let bb = network.item_space().get("b").unwrap();
        // {a}: both triangles; {b} and {a,b}: first triangle only.
        assert_eq!(r.np(), 3);
        let t_ab = r.truss_of(&Pattern::new(vec![a, bb])).unwrap();
        assert_eq!(t_ab.vertices, vec![0, 1, 2]);
        let t_a = r.truss_of(&Pattern::singleton(a)).unwrap();
        assert_eq!(t_a.vertices, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn matches_exhaustive_oracle() {
        let network = net();
        for alpha in [0.0, 0.3, 0.5, 0.9, 1.5] {
            let r = TcfaMiner::default().mine(&network, alpha);
            let truth = oracle::exhaustive_mine(&network, alpha, usize::MAX);
            assert_eq!(r.np(), truth.len(), "alpha = {alpha}");
            for (p, edges) in &truth {
                assert_eq!(&r.truss_of(p).unwrap().edges, edges, "alpha = {alpha}, {p}");
            }
        }
    }

    #[test]
    fn agrees_with_exact_tcs() {
        let network = net();
        let tcfa = TcfaMiner::default().mine(&network, 0.2);
        let tcs = TcsMiner::with_epsilon(0.0).mine(&network, 0.2);
        assert!(tcfa.same_trusses(&tcs));
    }

    #[test]
    fn level_pruning_reduces_mptd_calls() {
        // With a high α nothing qualifies at level 1, so no level-2
        // candidates are generated at all.
        let network = net();
        let r = TcfaMiner::default().mine(&network, 10.0);
        assert_eq!(r.np(), 0);
        // Only the two level-1 items were ever tried.
        assert_eq!(r.stats.mptd_calls, 2);
    }

    #[test]
    fn max_len_caps_levels() {
        let network = net();
        let r = TcfaMiner { max_len: 1 }.mine(&network, 0.2);
        assert!(r.patterns().iter().all(|p| p.len() == 1));
    }

    #[test]
    fn empty_network() {
        let mut b = DatabaseNetworkBuilder::new();
        b.ensure_vertex(2);
        let network = b.build().unwrap();
        let r = TcfaMiner::default().mine(&network, 0.0);
        assert_eq!(r.np(), 0);
        assert_eq!(r.stats.mptd_calls, 0);
    }
}
