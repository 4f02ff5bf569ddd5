//! The sharding exactness contract, in-process: for ANY partition count,
//! scattering a query across the shard segments (with the router's
//! QBA→QUERY(universe) rewrite) and merging with [`merge_responses`]
//! yields answers element-identical to the unsharded [`SegmentTcTree`] —
//! same trusses in the same order, same `retrieved`, same `visited`.
//!
//! This is the socket-free core of what CI's `router-smoke` job asserts
//! with real daemons and curl: the fan-out tier adds throughput, never
//! approximation. The second test holds the same contract over sockets
//! for what the in-process form cannot see: that over *reused* pooled
//! shard connections every answer is paired with its own request.

use proptest::prelude::*;
use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder};
use tc_index::TcTreeBuilder;
use tc_router::{merge_responses, Router, RouterConfig};
use tc_serve::{HttpClient, QueryResponse, ServeConfig, Server};
use tc_store::shardmap::{level1_items, split_tree, HashScheme, ShardEntry, ShardMap};
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

fn segment(tree: &tc_index::TcTree) -> SegmentTcTree {
    let mut buf = Vec::new();
    tc_store::save_tree_segment(tree, &mut buf).unwrap();
    SegmentTcTree::from_bytes(buf).unwrap()
}

/// What the router does per request, minus the sockets: run the
/// (rewritten) query on every shard segment and merge.
fn sharded_answer(shards: &[SegmentTcTree], q: &Pattern, alpha: f64) -> QueryResponse {
    let parts = shards
        .iter()
        .map(|s| QueryResponse::from_result(&s.query(q, alpha).unwrap()))
        .collect();
    merge_responses(parts)
}

/// Strips the timing field, the one value the contract excludes.
fn timeless(mut r: QueryResponse) -> QueryResponse {
    r.elapsed_secs = 0.0;
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_answers_equal_unsharded_for_any_partition_count(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
        shard_count in 1u32..=5,
        alpha in 0.0f64..2.0,
        raw_pattern in prop::collection::vec(0u32..MAX_ITEMS, 0..4),
    ) {
        let net = build_network(n, &raw_edges, &raw_txs);
        let tree = TcTreeBuilder { threads: 1, max_len: usize::MAX }.build(&net);
        let unsharded = segment(&tree);
        let shards: Vec<SegmentTcTree> = split_tree(&tree, HashScheme::Crc32Item, shard_count)
            .iter()
            .map(segment)
            .collect();
        // The router's QBA rewrite: query every shard with the FULL
        // tree's level-1 universe (from the shard map), not the shard's
        // own root children.
        let universe: Pattern = level1_items(&tree).iter().map(|&i| Item(i)).collect();

        // QBA at the sampled alpha and at 0 (retrieve everything).
        for a in [alpha, 0.0] {
            let want = timeless(QueryResponse::from_result(&unsharded.query_by_alpha(a).unwrap()));
            let got = timeless(sharded_answer(&shards, &universe, a));
            prop_assert_eq!(&got, &want, "QBA({}) diverged at {} shards", a, shard_count);
        }

        // QBP over a random sub-pattern (the wire passes it unchanged).
        let mut ids = raw_pattern;
        ids.sort_unstable();
        ids.dedup();
        let q: Pattern = ids.iter().map(|&i| Item(i)).collect();
        let want = timeless(QueryResponse::from_result(&unsharded.query_by_pattern(&q).unwrap()));
        let got = timeless(sharded_answer(&shards, &q, 0.0));
        prop_assert_eq!(&got, &want, "QBP diverged at {} shards", shard_count);

        // The combined form at the sampled alpha.
        let want = timeless(QueryResponse::from_result(&unsharded.query(&q, alpha).unwrap()));
        let got = timeless(sharded_answer(&shards, &q, alpha));
        prop_assert_eq!(&got, &want, "QUERY diverged at {} shards", shard_count);
    }
}

/// `body` around its `secs` value, the one field the contract excludes.
fn around_secs(body: &str) -> (&str, &str) {
    let (head, rest) = body.split_once("\"secs\":").expect("body has secs");
    let (_, tail) = rest.split_once(",\"trusses\":").expect("body has trusses");
    (head, tail)
}

/// For 1–5 shards: 60 interleaved, pairwise distinct QBA / QBP / QUERY
/// requests down ONE keep-alive router session — so from the second
/// request on every shard RPC rides a pooled connection that just carried
/// a different query — each byte-identical (modulo `secs`) to the
/// unsharded answer to *that* request.
#[test]
fn interleaved_requests_pair_with_their_own_answers_over_pooled_connections() {
    // Five items over a 6-clique, twenty mixed transactions a vertex:
    // cohesions spread out, so answers differ from request to request.
    let raw_edges: Vec<(u32, u32)> = (0..6).flat_map(|u| (0..u).map(move |v| (u, v))).collect();
    let raw_txs: Vec<(u32, Vec<u32>)> = (0..6u32)
        .flat_map(|v| (0..20u32).map(move |k| (v, vec![k, k / 2 + v, k / 5])))
        .collect();
    let tree = TcTreeBuilder::default().build(&build_network(6, &raw_edges, &raw_txs));
    let unsharded = segment(&tree);
    let step = unsharded.alpha_upper_bound() / 40.0;

    for shard_count in 1..=5u32 {
        let mut daemons = Vec::new();
        let mut shards = Vec::new();
        for shard in split_tree(&tree, HashScheme::Crc32Item, shard_count) {
            let server = Server::bind(segment(&shard), "127.0.0.1:0", ServeConfig::default());
            let server = server.unwrap();
            shards.push(ShardEntry {
                addr: server.local_addr().unwrap().to_string(),
                path: String::new(),
            });
            let handle = server.handle();
            daemons.push((handle, std::thread::spawn(move || server.run().unwrap())));
        }
        let map = ShardMap {
            scheme: HashScheme::Crc32Item,
            items: level1_items(&tree),
            shards,
        };
        let router = Router::bind(map, "127.0.0.1:0", RouterConfig::default()).unwrap();
        let addr = router.local_addr().unwrap().to_string();
        let gateway = router.handle();
        let serving = std::thread::spawn(move || router.run().unwrap());

        let mut session = HttpClient::connect(&addr).unwrap();
        let mut answers = std::collections::HashSet::new();
        for i in 0..60u32 {
            // Request i's pattern: the set bits of i / 3 over the 5 items.
            let ids: Vec<u32> = (0..MAX_ITEMS).filter(|b| (i / 3) >> b & 1 == 1).collect();
            let q: Pattern = ids.iter().map(|&id| Item(id)).collect();
            let items = match ids.iter().map(u32::to_string).collect::<Vec<_>>() {
                empty if empty.is_empty() => "-".to_string(),
                ids => ids.join(","),
            };
            let alpha = step * i as f64;
            let (target, want) = match i % 3 {
                0 => (
                    format!("/qba?alpha={alpha}"),
                    unsharded.query_by_alpha(alpha),
                ),
                1 => (
                    format!("/qbp?items={items}"),
                    unsharded.query_by_pattern(&q),
                ),
                _ => (
                    format!("/query?items={items}&alpha={alpha}"),
                    unsharded.query(&q, alpha),
                ),
            };
            let got = session.get(&target).unwrap();
            assert!(
                got.is_ok(),
                "{target} at {shard_count} shards: {}",
                got.body
            );
            let want = QueryResponse::from_result(&want.unwrap()).encode_json();
            assert_eq!(
                around_secs(&got.body),
                around_secs(&want),
                "{target} at {shard_count} shards"
            );
            answers.insert(around_secs(&got.body).1.to_string());
        }
        // The run tells answers apart: a swapped pair would have shown.
        assert!(
            answers.len() >= 30,
            "only {} distinct answers",
            answers.len()
        );

        gateway.shutdown();
        serving.join().unwrap();
        for (handle, thread) in daemons {
            handle.shutdown();
            thread.join().unwrap();
        }
    }
}
