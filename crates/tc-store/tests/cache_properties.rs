//! Property tests for the byte-budgeted node cache: for **any** query
//! sequence and **any** budget with room for at least the largest single
//! node,
//!
//! * answers are byte-identical to the unbounded tree (budget is an
//!   envelope knob, never a correctness knob);
//! * `cache_bytes_used` never exceeds the budget at any observation
//!   point between queries;
//! * a re-materialised (previously evicted) node equals its first
//!   materialisation field-for-field — and the segment format is
//!   canonical, so value equality is byte identity;
//! * the ledger balances: `materialized_total - resident == evictions`;
//! * the counting walk the daemon answers with (`summarize`) reports what
//!   the full-truss walk (`query`) reduces to on the wire, node for node;
//! * counting, `truss` and `query` callers share one ledger: interleaved
//!   under any budget, `bytes_used` is the accounted bytes of exactly the
//!   resident entries, and an upgrade of an entry of counts to one of
//!   edges charges its difference once and makes no entry resident.

use proptest::prelude::*;
use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder, FlatDecomposition};
use tc_index::{TcTree, TcTreeBuilder};
use tc_store::{SegmentTcTree, StoreOptions};
use tc_txdb::Item;

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

fn tree_and_segment(
    n: u32,
    raw_edges: &[(u32, u32)],
    raw_txs: &[(u32, Vec<u32>)],
) -> (TcTree, Vec<u8>) {
    let net = build_network(n, raw_edges, raw_txs);
    let tree = TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    }
    .build(&net);
    let mut buf = Vec::new();
    tc_store::save_tree_segment(&tree, &mut buf).unwrap();
    (tree, buf)
}

/// Materialises every node of an unbounded probe tree one by one and
/// reads the per-node accounted size off the ledger deltas. Returns
/// `(largest_entry, total_bytes)`.
fn probe_entry_sizes(bytes: &[u8]) -> (u64, u64) {
    let probe = SegmentTcTree::from_bytes(bytes.to_vec()).unwrap();
    let mut max_entry = 0u64;
    let mut prev = 0u64;
    for id in 1..=probe.num_nodes() as u32 {
        probe.truss(id).unwrap();
        let b = probe.cache_stats().bytes_used;
        max_entry = max_entry.max(b - prev);
        prev = b;
    }
    (max_entry, prev)
}

/// Both segment trees walk the same skeleton in the same order, so answers
/// must agree element-for-element, not just as sets.
fn assert_same_answer(a: &tc_index::QueryResult, b: &tc_index::QueryResult) {
    assert_eq!(a.retrieved_nodes, b.retrieved_nodes);
    assert_eq!(a.trusses.len(), b.trusses.len());
    for (ta, tb) in a.trusses.iter().zip(&b.trusses) {
        assert_eq!(&ta.pattern, &tb.pattern);
        assert_eq!(&ta.edges, &tb.edges);
        assert_eq!(&ta.vertices, &tb.vertices);
    }
}

/// What a response carries of an answer: the walk's two counters and, per
/// truss in order, `(items, |V|, |E|)` — the reduction
/// `tc_serve::QueryResponse::from_result` applies to a full answer.
type Wire = (usize, usize, Vec<(Vec<u32>, usize, usize)>);

fn wire_of_result(r: &tc_index::QueryResult) -> Wire {
    let trusses = r
        .trusses
        .iter()
        .map(|t| {
            (
                t.pattern.iter().map(|i| i.0).collect(),
                t.num_vertices(),
                t.num_edges(),
            )
        })
        .collect();
    (r.retrieved_nodes, r.visited_nodes, trusses)
}

fn wire_of_summary(seg: &SegmentTcTree, s: &tc_store::QuerySummary) -> Wire {
    let trusses = s
        .trusses
        .iter()
        .map(|t| {
            (
                seg.pattern(t.node).iter().map(|i| i.0).collect(),
                t.vertices,
                t.edges,
            )
        })
        .collect();
    (s.trusses.len(), s.visited_nodes, trusses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn summary_equals_the_full_answer_reduced_at_every_level_boundary(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
    ) {
        let (tree, bytes) = tree_and_segment(n, &raw_edges, &raw_txs);
        let (max_entry, total) = probe_entry_sizes(&bytes);
        // Zero, every α_k of every node with a step to either side of it
        // (inside and outside `gt_eps`'s tolerance), and past every α*.
        let mut grid = vec![0.0];
        for node in tree.nodes() {
            for level in &node.truss.levels {
                for step in [-1e-4, -1e-12, 0.0, 1e-12, 1e-4] {
                    grid.push((level.alpha + step).max(0.0));
                }
            }
        }
        grid.push(grid.iter().fold(0.0, |a: f64, &b| a.max(b)) + 1.0);
        let reference = SegmentTcTree::from_bytes(bytes.clone()).unwrap();
        for budget in [None, Some(max_entry), Some(total / 10)] {
            let seg = SegmentTcTree::from_bytes_with(
                bytes.clone(),
                StoreOptions { cache_bytes: budget },
            ).unwrap();
            for &alpha in &grid {
                prop_assert_eq!(
                    wire_of_summary(&seg, &seg.summarize(seg.all_items(), alpha).unwrap()),
                    wire_of_result(&reference.query_by_alpha(alpha).unwrap()),
                    "QBA {} under budget {:?}", alpha, budget
                );
                for id in 1..=tree.num_nodes() as u32 {
                    let q = tree.node(id).pattern();
                    prop_assert_eq!(
                        wire_of_summary(&seg, &seg.summarize(q, alpha).unwrap()),
                        wire_of_result(&reference.query(q, alpha).unwrap()),
                        "QUERY {} {} under budget {:?}", q, alpha, budget
                    );
                }
            }
        }
    }

    #[test]
    fn budgeted_answers_equal_unbounded_within_budget(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
        queries in prop::collection::vec((0u32..64, 0.0f64..1.5), 1..24),
        budget_scale in 0.0f64..1.0,
    ) {
        let (tree, bytes) = tree_and_segment(n, &raw_edges, &raw_txs);
        let (max_entry, total) = probe_entry_sizes(&bytes);
        // Any budget with room for at least the largest single node.
        let budget = max_entry + ((total.saturating_sub(max_entry)) as f64 * budget_scale) as u64;
        let unbounded = SegmentTcTree::from_bytes(bytes.clone()).unwrap();
        let budgeted = SegmentTcTree::from_bytes_with(
            bytes,
            StoreOptions { cache_bytes: Some(budget) },
        ).unwrap();

        for &(sel, alpha) in &queries {
            if sel % 2 == 0 || tree.num_nodes() == 0 {
                let a = unbounded.query_by_alpha(alpha).unwrap();
                let b = budgeted.query_by_alpha(alpha).unwrap();
                assert_same_answer(&a, &b);
            } else {
                let id = 1 + sel % tree.num_nodes() as u32;
                let q = tree.node(id).pattern().clone();
                let a = unbounded.query_by_pattern(&q).unwrap();
                let b = budgeted.query_by_pattern(&q).unwrap();
                assert_same_answer(&a, &b);
            }
            let used = budgeted.cache_stats().bytes_used;
            prop_assert!(
                used <= budget,
                "cache_bytes_used {} exceeds budget {} (max entry {}, total {})",
                used, budget, max_entry, total
            );
        }

        // The ledger balances and the gauges agree.
        let s = budgeted.cache_stats();
        prop_assert_eq!(s.resident, budgeted.materialized_nodes());
        prop_assert_eq!(s.budget, Some(budget));
        prop_assert_eq!(
            s.materialized_total - s.resident as u64,
            s.evictions,
            "every materialisation is either resident or evicted"
        );
        // The unbounded reference never evicts and its gauge equals its counter.
        let u = unbounded.cache_stats();
        prop_assert_eq!(u.evictions, 0);
        prop_assert_eq!(u.materialized_total, u.resident as u64);
    }

    #[test]
    fn one_ledger_under_mixed_callers(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
        steps in prop::collection::vec((0u32..3, 0u32..64, 0.0f64..1.2), 1..32),
    ) {
        let (tree, bytes) = tree_and_segment(n, &raw_edges, &raw_txs);
        let nodes = tree.num_nodes() as u32;
        if nodes == 0 {
            return Ok(());
        }
        let (_, total) = probe_entry_sizes(&bytes);
        let reference = SegmentTcTree::from_bytes(bytes.clone()).unwrap();
        for budget in [Some(1), Some(total / 10), None] {
            let seg = SegmentTcTree::from_bytes_with(
                bytes.clone(),
                StoreOptions { cache_bytes: budget },
            ).unwrap();
            for &(verb, sel, alpha) in &steps {
                let id = 1 + sel % nodes;
                let q = if sel % 3 == 0 { reference.all_items() } else { tree.node(id).pattern() };
                match verb {
                    0 => prop_assert_eq!(
                        wire_of_summary(&seg, &seg.summarize(q, alpha).unwrap()),
                        wire_of_result(&reference.query(q, alpha).unwrap()),
                        "summarize {} {} under {:?}", q, alpha, budget
                    ),
                    1 => prop_assert_eq!(
                        &*seg.truss(id).unwrap(),
                        &*reference.truss(id).unwrap(),
                        "truss {} under {:?}", id, budget
                    ),
                    _ => assert_same_answer(
                        &seg.query(q, alpha).unwrap(),
                        &reference.query(q, alpha).unwrap(),
                    ),
                }
                let s = seg.cache_stats();
                let resident: Vec<_> = (0..=nodes).filter_map(|id| seg.cache().peek(id)).collect();
                let held: u64 = resident.iter().map(|e| e.accounted_bytes()).sum();
                prop_assert_eq!(s.bytes_used, held, "ledger vs entries under {:?}: {:?}", budget, s);
                prop_assert_eq!(s.resident, resident.len());
                prop_assert_eq!(s.materialized_total - s.resident as u64, s.evictions);
                if budget.is_none() {
                    // Nothing is evicted, so every entry made resident is
                    // still there: an upgrade counted as a materialisation
                    // would show here, a double charge above.
                    prop_assert_eq!(s.materialized_total, s.resident as u64);
                }
            }
        }
    }

    #[test]
    fn rematerialized_nodes_are_identical_to_first_materialisation(
        n in 3u32..MAX_V,
        raw_edges in prop::collection::vec((0u32..64, 0u32..64), 4..28),
        raw_txs in prop::collection::vec((0u32..64, prop::collection::vec(0u32..64, 1..4)), 4..40),
    ) {
        let (_tree, bytes) = tree_and_segment(n, &raw_edges, &raw_txs);
        let (max_entry, _total) = probe_entry_sizes(&bytes);
        let probe = SegmentTcTree::from_bytes(bytes.clone()).unwrap();
        let nodes = probe.num_nodes();
        if nodes < 2 {
            return Ok(()); // nothing to evict against
        }
        // Room for roughly one node: every touch of a different node
        // evicts the previous one, so the second pass re-materialises.
        let seg = SegmentTcTree::from_bytes_with(
            bytes,
            StoreOptions { cache_bytes: Some(max_entry) },
        ).unwrap();
        let first: Vec<FlatDecomposition> = (1..=nodes as u32)
            .map(|id| seg.truss(id).unwrap().as_ref().clone())
            .collect();
        prop_assert!(seg.cache_stats().evictions > 0, "one-node budget must evict");
        for pass in 0..2 {
            for id in 1..=nodes as u32 {
                let again = seg.truss(id).unwrap();
                prop_assert_eq!(
                    again.as_ref(),
                    &first[(id - 1) as usize],
                    "node {} diverged on re-materialisation (pass {})",
                    id, pass
                );
            }
        }
    }
}

/// A tenth of what `query` kept resident for the stream of
/// [`summaries_fit_a_tenth_of_the_query_working_set`] (1 053 412 B) while
/// an entry of edges held the node's level-order decomposition. Entries of
/// edges now hold the flat form — vertices and level tags besides the
/// edges — and the same stream leaves ≈ 1.26 MB resident; a tenth of that
/// would loosen the guard, so the budget stays at the earlier figure.
const SUMMARY_BUDGET: u64 = 105_341;

/// The counting walk's whole working set fits where a tenth of the
/// full-truss one does: on a co-author tree under a budget of a tenth of
/// what `query` keeps resident for a mixed QBA / QBP stream (pinned, see
/// [`SUMMARY_BUDGET`]), a second pass of that stream through `summarize`
/// misses no node, and the ledger stays inside the budget after every
/// request.
#[test]
fn summaries_fit_a_tenth_of_the_query_working_set() {
    let net = tc_data::generate_coauthor(&tc_data::CoauthorConfig {
        groups: 3,
        authors_per_group: 30,
        interdisciplinary_authors: 6,
        papers_per_author: 22,
        keywords_per_paper: 4,
        collab_prob: 0.6,
        cross_group_edges: 30,
        generic_keyword_prob: 0.4,
        seed: 0xD5,
    })
    .network;
    let tree = TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    }
    .build(&net);
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
    let reference = SegmentTcTree::from_bytes(bytes.clone()).unwrap();
    // Every node's own pattern, and QBAs across the cohesion range.
    let alphas = [0.0, 0.05, 0.1, 0.2, 0.4];
    let mut stream: Vec<(tc_txdb::Pattern, f64)> = (1..=tree.num_nodes() as u32)
        .map(|id| (tree.node(id).pattern().clone(), 0.0))
        .collect();
    for (i, &alpha) in alphas.iter().enumerate() {
        stream.insert(
            i * stream.len() / alphas.len(),
            (reference.all_items().clone(), alpha),
        );
    }
    let want: Vec<Wire> = stream
        .iter()
        .map(|(q, alpha)| wire_of_result(&reference.query(q, *alpha).unwrap()))
        .collect();
    let working_set = reference.cache_stats().bytes_used;
    assert!(
        SUMMARY_BUDGET <= working_set / 10,
        "the pinned budget {SUMMARY_BUDGET} B is over a tenth of the {working_set} B working set"
    );
    let budget = SUMMARY_BUDGET;
    let seg = SegmentTcTree::from_bytes_with(
        bytes,
        StoreOptions {
            cache_bytes: Some(budget),
        },
    )
    .unwrap();
    let mut misses = Vec::new();
    for pass in 0..2 {
        for ((q, alpha), want) in stream.iter().zip(&want) {
            let got = wire_of_summary(&seg, &seg.summarize(q, *alpha).unwrap());
            assert_eq!(&got, want, "{q} at {alpha}, pass {pass}");
            let s = seg.cache_stats();
            assert!(s.bytes_used <= budget, "pass {pass}: {s:?}");
        }
        misses.push(seg.cache_stats().misses);
    }
    let s = seg.cache_stats();
    println!(
        "{} nodes, query working set {working_set} B, budget {budget} B, \
         counts resident {} B in {} entries, misses {misses:?}",
        tree.num_nodes(),
        s.bytes_used,
        s.resident
    );
    assert_eq!(misses[1], misses[0], "the second pass missed");
}
