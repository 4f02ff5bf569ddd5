//! Reproduces **Figure 5**: TC-Tree query performance.
//!
//! Panels (a)-(d): Query-by-Alpha (QBA) — `q = S`, `α_q` swept from 0 in
//! steps of 0.1 until the answer is empty; query time and Retrieved Nodes
//! (RN), each time averaged over many runs.
//!
//! Panels (e)-(h): Query-by-Pattern (QBP) — `α_q = 0`, query patterns
//! sampled from TC-Tree nodes layer by layer; time and RN vs pattern
//! length.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tc_bench::{build_dataset, fmt_count, fmt_secs, BenchArgs, Table};
use tc_index::{TcTree, TcTreeBuilder};
use tc_util::Stopwatch;

fn main() {
    let args = BenchArgs::from_env();
    let runs = if args.quick { 50 } else { 1000 };

    for dataset in args.datasets() {
        let net = build_dataset(dataset, args.scale);
        let tree = TcTreeBuilder::default().build(&net);
        println!(
            "\n## Figure 5 — {}: tree has {} nodes, alpha* = {:.3}",
            dataset.name(),
            fmt_count(tree.num_nodes()),
            tree.alpha_upper_bound()
        );

        qba(&tree, dataset.name(), runs);
        qbp(&tree, dataset.name(), runs);
    }
}

/// Panels (a)-(d): query time and RN vs `α_q`.
fn qba(tree: &TcTree, name: &str, runs: usize) {
    let mut table = Table::new(
        format!("Fig 5 QBA ({name})"),
        &["alpha_q", "Query Time (avg)", "Retrieved Nodes"],
    );
    let mut alpha = 0.0f64;
    loop {
        let result = tree.query_by_alpha(alpha);
        if result.retrieved_nodes == 0 && alpha > 0.0 {
            break;
        }
        // Average the query time over `runs` repetitions (paper: 1000).
        let sw = Stopwatch::start();
        for _ in 0..runs {
            let r = tree.query_by_alpha(alpha);
            std::hint::black_box(r.retrieved_nodes);
        }
        let avg = sw.elapsed_secs() / runs as f64;
        table.push_row(vec![
            format!("{alpha:.1}"),
            fmt_secs(avg),
            fmt_count(result.retrieved_nodes),
        ]);
        alpha += 0.1;
        if alpha > tree.alpha_upper_bound() + 0.1 {
            break;
        }
    }
    table.print();
}

/// Panels (e)-(h): query time and RN vs query pattern length.
fn qbp(tree: &TcTree, name: &str, runs: usize) {
    let mut table = Table::new(
        format!("Fig 5 QBP ({name})"),
        &[
            "Pattern Length",
            "Query Time (avg)",
            "Retrieved Nodes (avg)",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(0xF16);
    for len in 1..=tree.max_depth() {
        let pool = tree.nodes_at_depth(len);
        if pool.is_empty() {
            continue;
        }
        // The paper samples 1000 nodes per layer; we sample up to `runs`.
        let sampled: Vec<u32> = pool
            .choose_multiple(&mut rng, runs.min(pool.len()))
            .copied()
            .collect();
        let mut total_rn = 0usize;
        let sw = Stopwatch::start();
        for &node in &sampled {
            let q = tree.node(node).pattern().clone();
            let r = tree.query_by_pattern(&q);
            total_rn += r.retrieved_nodes;
        }
        let avg_time = sw.elapsed_secs() / sampled.len() as f64;
        let avg_rn = total_rn as f64 / sampled.len() as f64;
        table.push_row(vec![
            fmt_count(len),
            fmt_secs(avg_time),
            format!("{avg_rn:.1}"),
        ]);
    }
    table.print();
}
