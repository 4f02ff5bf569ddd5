//! Property: parallel TC-Tree construction ≡ serial construction, down to
//! the serialized bytes, across random networks and thread counts.
//!
//! The parallel builder's contract is not "same set of nodes" but "same
//! *arena*": node ids, child order, truss payloads — everything a
//! serializer can observe — must be byte-identical whether the tree was
//! built inline or fanned out across the work-stealing executor. Both the
//! `tc-store` segment writer and the text writer are canonical functions
//! of the arena, so comparing their output compares the whole structure
//! at once.
//!
//! Every build runs the same lattice walk, so thread counts agreeing with
//! each other is not enough: the serial tree is also held to what a
//! TC-Tree is, independently of how it was built — breadth-first arena,
//! prefix-closed parents, ascending children, exactly the patterns TCFI
//! finds at `α = 0`, and each `L_p` the decomposition of its full theme
//! network.

use proptest::prelude::*;
use tc_core::{
    DatabaseNetwork, DatabaseNetworkBuilder, Miner, TcfiMiner, ThemeSource, TrussDecomposition,
};
use tc_index::{TcTree, TcTreeBuilder};
use tc_txdb::{Item, Pattern};

const MAX_V: u32 = 9;
const MAX_ITEMS: u32 = 6;

/// Builds a valid network from arbitrary raw parts: endpoints are reduced
/// mod the vertex count, self loops dropped, transactions deduplicated.
fn build_network(n: u32, raw_edges: &[(u32, u32)], raw_txs: &[(u32, Vec<u32>)]) -> DatabaseNetwork {
    let mut b = DatabaseNetworkBuilder::new();
    let items: Vec<Item> = (0..MAX_ITEMS)
        .map(|i| b.intern_item(&format!("w{i}")))
        .collect();
    for &(u, v) in raw_edges {
        let (u, v) = (u % n, v % n);
        if u != v {
            b.add_edge(u, v);
        }
    }
    for (v, tx) in raw_txs {
        let mut ids: Vec<u32> = tx.iter().map(|&i| i % MAX_ITEMS).collect();
        ids.sort_unstable();
        ids.dedup();
        let tx: Vec<Item> = ids.into_iter().map(|i| items[i as usize]).collect();
        b.add_transaction(v % n, &tx);
    }
    b.ensure_vertex(n - 1);
    b.build().unwrap()
}

/// Checks `tree`, built from `net` with `max_len`, against the TC-Tree's
/// definition rather than against another build.
fn check_characterisation(net: &DatabaseNetwork, tree: &TcTree, max_len: usize) {
    let nodes = tree.nodes();
    let key = |id: usize| (nodes[id].pattern().len(), nodes[id].pattern());
    for id in 1..nodes.len() {
        prop_assert!(
            key(id - 1) < key(id),
            "arena not in (len, pattern) order at {}",
            id
        );
        let node = &nodes[id];
        prop_assert_eq!(
            nodes[node.parent as usize].pattern().items(),
            node.pattern().prefix()
        );
    }
    for node in nodes {
        for w in node.children.windows(2) {
            prop_assert!(nodes[w[0] as usize].item < nodes[w[1] as usize].item);
        }
    }

    let indexed: Vec<&Pattern> = nodes[1..].iter().map(|n| n.pattern()).collect();
    let mined = TcfiMiner { max_len }.mine(net, 0.0);
    let mut mined: Vec<&Pattern> = mined.trusses.iter().map(|t| &t.pattern).collect();
    mined.sort_by_key(|p| (p.len(), *p));
    prop_assert_eq!(indexed, mined);

    for node in &nodes[1..] {
        let direct = TrussDecomposition::decompose(&net.theme(node.pattern()));
        prop_assert_eq!(
            node.truss.num_levels(),
            direct.num_levels(),
            "{}",
            node.pattern()
        );
        for (stored, want) in node.truss.levels.iter().zip(&direct.levels) {
            prop_assert_eq!(&stored.edges, &want.edges, "{}", node.pattern());
            prop_assert!(
                (stored.alpha - want.alpha).abs() < 1e-9,
                "{}",
                node.pattern()
            );
        }
    }
}

fn segment_bytes(tree: &tc_index::TcTree) -> Vec<u8> {
    let mut buf = Vec::new();
    tc_store::save_tree_segment(tree, &mut buf).unwrap();
    buf
}

fn text_bytes(tree: &tc_index::TcTree) -> Vec<u8> {
    let mut buf = Vec::new();
    tree.save(&mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_build_is_byte_identical_to_serial(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 6..32),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..5)), 6..48),
        max_len_idx in 0usize..3,
    ) {
        let max_len = [1usize, 2, usize::MAX][max_len_idx];
        let net = build_network(n, &raw_edges, &raw_txs);
        let serial = TcTreeBuilder { threads: 1, max_len }.build(&net);
        let serial_seg = segment_bytes(&serial);
        let serial_txt = text_bytes(&serial);
        check_characterisation(&net, &serial, max_len);
        for threads in [2, 3, 8] {
            let parallel = TcTreeBuilder { threads, max_len }.build(&net);
            prop_assert_eq!(
                serial.num_nodes(),
                parallel.num_nodes(),
                "node count diverged at {} threads",
                threads
            );
            prop_assert_eq!(
                &serial_seg,
                &segment_bytes(&parallel),
                "segment bytes diverged at {} threads",
                threads
            );
            prop_assert_eq!(
                &serial_txt,
                &text_bytes(&parallel),
                "text bytes diverged at {} threads",
                threads
            );
            // The counter stats are part of the determinism contract too
            // (build_secs is wall-clock and excluded).
            let (s, p) = (serial.stats(), parallel.stats());
            prop_assert_eq!(s.candidates, p.candidates);
            prop_assert_eq!(s.decompositions, p.decompositions);
            prop_assert_eq!(s.pruned_by_intersection, p.pruned_by_intersection);
        }
    }

    #[test]
    fn repeated_parallel_builds_are_reproducible(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 6..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 6..40),
    ) {
        let net = build_network(n, &raw_edges, &raw_txs);
        let first = TcTreeBuilder { threads: 8, max_len: usize::MAX }.build(&net);
        let reference = segment_bytes(&first);
        for _ in 0..2 {
            let again = TcTreeBuilder { threads: 8, max_len: usize::MAX }.build(&net);
            prop_assert_eq!(&reference, &segment_bytes(&again));
        }
    }
}
