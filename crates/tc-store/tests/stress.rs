//! Threaded stress tests for [`SegmentTcTree`]: many concurrent QBA/QBP
//! callers over one shared tree — the access pattern the `tc-serve`
//! daemon's worker pool produces.
//!
//! Contracts asserted under contention:
//!
//! * every concurrent answer equals the in-memory [`TcTree`]'s answer
//!   for the same query — with an unbounded cache (materialisation races
//!   are benign: losers adopt the winner's entry) **and** with a byte
//!   budget a tenth of the working set (eviction never touches pinned
//!   in-flight nodes, and re-materialised nodes parse identical bytes);
//! * the `materialized_nodes()` gauge never exceeds the node count, and
//!   with a budget the ledger balances:
//!   `materialized_total - resident == evictions`;
//! * an unbounded cache never evicts — the pre-cache behaviour is the
//!   `cache_bytes: None` fast path, not a degenerate budget.

use tc_data::{generate_coauthor, CoauthorConfig};
use tc_index::{TcTree, TcTreeBuilder};
use tc_store::{SegmentTcTree, StoreOptions};
use tc_txdb::Pattern;

fn sample_tree() -> TcTree {
    let net = generate_coauthor(&CoauthorConfig {
        groups: 4,
        authors_per_group: 10,
        seed: 23,
        ..CoauthorConfig::default()
    })
    .network;
    TcTreeBuilder::default().build(&net)
}

/// Sorted `(pattern, edges)` pairs — the order-insensitive answer key.
fn answer_key(trusses: &[tc_core::PatternTruss]) -> Vec<(Pattern, Vec<(u32, u32)>)> {
    let mut key: Vec<_> = trusses
        .iter()
        .map(|t| (t.pattern.clone(), t.edges.clone()))
        .collect();
    key.sort();
    key
}

#[test]
fn concurrent_queries_match_the_in_memory_tree() {
    let tree = sample_tree();
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
    let seg = SegmentTcTree::from_bytes(bytes).unwrap();
    assert_eq!(seg.materialized_nodes(), 0, "open must stay lazy");

    // Precompute the reference answers serially from the in-memory tree.
    let bound = seg.alpha_upper_bound();
    let alphas: Vec<f64> = (0..8).map(|i| bound * i as f64 / 7.0).collect();
    let qba_expected: Vec<_> = alphas
        .iter()
        .map(|&a| answer_key(&tree.query_by_alpha(a).trusses))
        .collect();
    let patterns: Vec<Pattern> = (1..=tree.num_nodes() as u32)
        .map(|id| tree.node(id).pattern().clone())
        .collect();
    let qbp_expected: Vec<_> = patterns
        .iter()
        .map(|q| answer_key(&tree.query_by_pattern(q).trusses))
        .collect();

    let threads = 8;
    let rounds = 30;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (seg, alphas, qba_expected, patterns, qbp_expected) =
                (&seg, &alphas, &qba_expected, &patterns, &qbp_expected);
            scope.spawn(move || {
                for round in 0..rounds {
                    // Phase-shift per thread so materialisation races hit
                    // different nodes at different times. `pick / 2` strides
                    // the whole fixture pool: `pick` itself has fixed parity
                    // inside each branch and would alias to half the indices.
                    let pick = t + round;
                    if pick % 2 == 0 {
                        let i = (pick / 2) % alphas.len();
                        let r = seg.query_by_alpha(alphas[i]).unwrap();
                        assert_eq!(
                            answer_key(&r.trusses),
                            qba_expected[i],
                            "QBA diverged at alpha {}",
                            alphas[i]
                        );
                    } else {
                        let i = (pick / 2) % patterns.len();
                        let r = seg.query_by_pattern(&patterns[i]).unwrap();
                        assert_eq!(
                            answer_key(&r.trusses),
                            qbp_expected[i],
                            "QBP diverged at {}",
                            patterns[i]
                        );
                    }
                    // The cache gauge is bounded at every instant, not
                    // just at the end.
                    assert!(
                        seg.materialized_nodes() <= seg.num_nodes(),
                        "materialized {} of {} nodes",
                        seg.materialized_nodes(),
                        seg.num_nodes()
                    );
                }
            });
        }
    });

    // After a full QBA sweep at alpha 0 every node is materialised at
    // most once; the gauge sits exactly within [1, num_nodes].
    let full = seg.query_by_alpha(0.0).unwrap();
    assert!(full.retrieved_nodes > 0);
    let m = seg.materialized_nodes();
    assert!(
        m <= seg.num_nodes() && m > 0,
        "gauge out of range: {m} of {}",
        seg.num_nodes()
    );
    // Unbounded means unbounded: nothing is ever evicted, and the
    // all-time counter equals the resident gauge.
    let stats = seg.cache_stats();
    assert_eq!(stats.budget, None);
    assert_eq!(stats.evictions, 0, "unbounded cache evicted");
    assert_eq!(stats.materialized_total, m as u64);
}

/// The same concurrent workload against a cache budgeted at a tenth of
/// the fully-materialised working set. Eviction churns continuously, yet
/// every answer must still match the in-memory tree: sweeps skip pinned
/// (in-flight) entries, and a re-materialised node parses the same
/// segment bytes.
#[test]
fn concurrent_budgeted_queries_match_and_the_ledger_balances() {
    let tree = sample_tree();
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&tree, &mut bytes).unwrap();

    // Probe per-node entry sizes off an unbounded twin's ledger.
    let probe = SegmentTcTree::from_bytes(bytes.clone()).unwrap();
    let (mut max_entry, mut prev) = (0u64, 0u64);
    for id in 1..=probe.num_nodes() as u32 {
        probe.truss(id).unwrap();
        let used = probe.cache_stats().bytes_used;
        max_entry = max_entry.max(used - prev);
        prev = used;
    }
    let total = prev;
    let budget = (total / 10).max(max_entry);
    assert!(budget < total, "fixture too small to exercise eviction");

    let seg = SegmentTcTree::from_bytes_with(
        bytes,
        StoreOptions {
            cache_bytes: Some(budget),
        },
    )
    .unwrap();

    let bound = seg.alpha_upper_bound();
    let alphas: Vec<f64> = (0..8).map(|i| bound * i as f64 / 7.0).collect();
    let qba_expected: Vec<_> = alphas
        .iter()
        .map(|&a| answer_key(&tree.query_by_alpha(a).trusses))
        .collect();
    let patterns: Vec<Pattern> = (1..=tree.num_nodes() as u32)
        .map(|id| tree.node(id).pattern().clone())
        .collect();
    let qbp_expected: Vec<_> = patterns
        .iter()
        .map(|q| answer_key(&tree.query_by_pattern(q).trusses))
        .collect();

    let threads = 8;
    let rounds = 30;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (seg, alphas, qba_expected, patterns, qbp_expected) =
                (&seg, &alphas, &qba_expected, &patterns, &qbp_expected);
            scope.spawn(move || {
                for round in 0..rounds {
                    let pick = t + round;
                    if pick % 2 == 0 {
                        let i = (pick / 2) % alphas.len();
                        let r = seg.query_by_alpha(alphas[i]).unwrap();
                        assert_eq!(
                            answer_key(&r.trusses),
                            qba_expected[i],
                            "QBA diverged at alpha {}",
                            alphas[i]
                        );
                    } else {
                        let i = (pick / 2) % patterns.len();
                        let r = seg.query_by_pattern(&patterns[i]).unwrap();
                        assert_eq!(
                            answer_key(&r.trusses),
                            qbp_expected[i],
                            "QBP diverged at {}",
                            patterns[i]
                        );
                    }
                    // Transient envelope: the budget plus, per thread, one
                    // pinned entry the sweep must skip and one mid-insert
                    // charge not yet enforced.
                    let used = seg.cache_stats().bytes_used;
                    let slack = 2 * threads as u64 * max_entry;
                    assert!(
                        used <= budget + slack,
                        "cache_bytes_used {used} above budget {budget} + slack {slack}"
                    );
                }
            });
        }
    });

    // Quiescent: the ledger balances and eviction actually happened.
    let stats = seg.cache_stats();
    assert_eq!(stats.budget, Some(budget));
    assert!(
        stats.evictions > 0,
        "tenth-of-working-set budget never evicted"
    );
    assert_eq!(
        stats.materialized_total - stats.resident as u64,
        stats.evictions,
        "every materialisation is either resident or evicted"
    );
    assert_eq!(stats.resident, seg.materialized_nodes());
    assert!(stats.hits + stats.misses > 0);
}
