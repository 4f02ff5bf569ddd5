//! The peeling kernel against the definition, bit for bit.
//!
//! A cohesion is an f64 sum, so the order a kernel adds triangle weights
//! in shows in its low bits. The networks here are dense (several
//! triangles per edge) and their frequencies are `k/7`, `k/11` or `k/13`,
//! whose sums round: a kernel that visits an edge's triangles in any order
//! but ascending `w` — the order [`oracle::cohesions_of_edge_set`] sums
//! the definition in — fails the equality under `to_bits`.

use proptest::prelude::*;
use tc_core::peel::PeelState;
use tc_core::{oracle, DatabaseNetwork, DatabaseNetworkBuilder, ThemeNetwork};
use tc_graph::EdgeKey;
use tc_txdb::Pattern;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn initial_cohesions_are_the_definitions_bits(case in arb_network()) {
        let (net, p) = case;
        let theme = ThemeNetwork::induce(&net, &p);
        let state = PeelState::new(&theme);
        let edges: Vec<EdgeKey> = (0..state.num_edges() as u32)
            .map(|id| theme.global_edge(state.endpoints(id)))
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
