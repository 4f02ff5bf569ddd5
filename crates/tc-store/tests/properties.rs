//! Property tests for the segment format, over randomly generated
//! networks and TC-Trees:
//!
//! * **save → load → save is byte-identical** — a segment is a pure,
//!   canonical function of the value it stores;
//! * **text → segment → text is semantically equal** (and, because both
//!   text writers are canonical too, byte-identical) — the two formats
//!   interconvert without loss.

use proptest::prelude::*;
use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder};
use tc_index::{TcTree, TcTreeBuilder};
use tc_store::SegmentTcTree;
use tc_txdb::{Item, Pattern};

const MAX_V: u32 = 7;
const MAX_ITEMS: u32 = 5;

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

fn network_segment(net: &DatabaseNetwork) -> Vec<u8> {
    let mut buf = Vec::new();
    tc_store::save_network_segment(net, &mut buf).unwrap();
    buf
}

fn tree_segment(tree: &TcTree) -> Vec<u8> {
    let mut buf = Vec::new();
    tc_store::save_tree_segment(tree, &mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn network_save_load_save_is_byte_identical(
        n in 1u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 0..24),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..5)), 0..32),
    ) {
        let net = build_network(n, &raw_edges, &raw_txs);
        let first = network_segment(&net);
        let loaded = tc_store::load_network_segment_from_bytes(&first).unwrap();
        let second = network_segment(&loaded);
        prop_assert_eq!(first, second);
        prop_assert_eq!(loaded.stats(), net.stats());
    }

    #[test]
    fn network_text_to_segment_to_text_is_lossless(
        n in 1u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 0..24),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..5)), 0..32),
    ) {
        let net = build_network(n, &raw_edges, &raw_txs);
        let mut text1 = Vec::new();
        tc_data::save_network(&net, &mut text1).unwrap();
        // text → value → segment → value → text
        let from_text = tc_data::load_network(std::io::Cursor::new(&text1)).unwrap();
        let seg = network_segment(&from_text);
        let from_seg = tc_store::load_network_segment_from_bytes(&seg).unwrap();
        let mut text2 = Vec::new();
        tc_data::save_network(&from_seg, &mut text2).unwrap();
        prop_assert_eq!(text1, text2);
        // Semantic spot checks: stats, names, singleton frequencies.
        prop_assert_eq!(from_seg.stats(), net.stats());
        for item in net.item_space().items() {
            prop_assert_eq!(net.item_space().name(item), from_seg.item_space().name(item));
        }
        for item in net.items_in_use() {
            let p = Pattern::singleton(item);
            for v in 0..net.num_vertices() as u32 {
                prop_assert!((net.frequency(v, &p) - from_seg.frequency(v, &p)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tree_save_load_save_is_byte_identical(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
    ) {
        let net = build_network(n, &raw_edges, &raw_txs);
        let tree = TcTreeBuilder { threads: 1, max_len: usize::MAX }.build(&net);
        let first = tree_segment(&tree);
        let loaded = SegmentTcTree::from_bytes(first.clone()).unwrap().to_tree().unwrap();
        let second = tree_segment(&loaded);
        prop_assert_eq!(first, second);
        prop_assert_eq!(loaded.num_nodes(), tree.num_nodes());
    }

    #[test]
    fn tree_text_to_segment_to_text_is_lossless(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
    ) {
        let net = build_network(n, &raw_edges, &raw_txs);
        let tree = TcTreeBuilder { threads: 1, max_len: usize::MAX }.build(&net);
        let mut text1 = Vec::new();
        tree.save(&mut text1).unwrap();
        let from_text = TcTree::load(std::io::Cursor::new(&text1)).unwrap();
        let seg = tree_segment(&from_text);
        let from_seg = SegmentTcTree::from_bytes(seg).unwrap().to_tree().unwrap();
        let mut text2 = Vec::new();
        from_seg.save(&mut text2).unwrap();
        prop_assert_eq!(text1, text2);
    }

    #[test]
    fn segment_queries_match_in_memory_queries(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
        alpha in 0.0f64..2.0,
    ) {
        let net = build_network(n, &raw_edges, &raw_txs);
        let tree = TcTreeBuilder { threads: 1, max_len: usize::MAX }.build(&net);
        let seg = SegmentTcTree::from_bytes(tree_segment(&tree)).unwrap();
        // Patterns are spelled from the parent chain, not stored.
        for id in 0..tree.nodes().len() as u32 {
            prop_assert_eq!(seg.pattern(id), tree.node(id).pattern().clone());
        }
        let a = tree.query_by_alpha(alpha);
        let b = seg.query_by_alpha(alpha).unwrap();
        prop_assert_eq!(a.retrieved_nodes, b.retrieved_nodes);
        for (ta, tb) in a.trusses.iter().zip(&b.trusses) {
            prop_assert_eq!(&ta.pattern, &tb.pattern);
            prop_assert_eq!(&ta.edges, &tb.edges);
        }
    }
}
