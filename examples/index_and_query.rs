//! Build a TC-Tree once, then answer many queries instantly — the §6
//! indexing and query-answering workflow.
//!
//! ```sh
//! cargo run --release --example index_and_query
//! ```

use theme_communities::data::{generate_checkin, CheckinConfig};
use theme_communities::index::TcTreeBuilder;
use theme_communities::txdb::Pattern;
use theme_communities::util::Stopwatch;

fn main() {
    let network = generate_checkin(&CheckinConfig {
        users: 200,
        groups: 18,
        group_size: 9,
        locations: 150,
        periods: 30,
        seed: 17,
        ..CheckinConfig::default()
    })
    .network;
    println!(
        "network: {} users, {} edges",
        network.num_vertices(),
        network.num_edges()
    );

    // Build the index once (parallel layer 1, like the paper's OpenMP).
    let sw = Stopwatch::start();
    let tree = TcTreeBuilder {
        threads: 4,
        max_len: usize::MAX,
    }
    .build(&network);
    println!(
        "TC-Tree: {} nodes, depth {}, α* = {:.3}, built in {:.2}s\n",
        tree.num_nodes(),
        tree.max_depth(),
        tree.alpha_upper_bound(),
        sw.elapsed_secs()
    );

    // Query by alpha (QBA): all themes at increasing cohesion demands.
    println!("query by alpha (q = S):");
    let mut alpha = 0.0;
    while alpha < tree.alpha_upper_bound() {
        let r = tree.query_by_alpha(alpha);
        println!(
            "  α_q = {alpha:<4}: {:>6} trusses in {:>9.3} ms",
            r.retrieved_nodes,
            r.elapsed_secs * 1e3
        );
        alpha += 0.5;
    }

    // Query by pattern (QBP): drill into one location's themes.
    let busiest = network
        .items_in_use()
        .into_iter()
        .max_by_key(|&i| network.vertices_with_item(i).len())
        .expect("network has items");
    // Take a real tree pattern containing that item if one exists.
    let q: Pattern = tree
        .nodes()
        .iter()
        .filter(|n| n.pattern().len() == 2 && n.pattern().contains(busiest))
        .map(|n| n.pattern().clone())
        .next()
        .unwrap_or_else(|| Pattern::singleton(busiest));
    println!(
        "\nquery by pattern q = {}:",
        network.item_space().render(&q)
    );
    let r = tree.query_by_pattern(&q);
    for t in &r.trusses {
        println!(
            "  {} — {} vertices, {} edges",
            network.item_space().render(&t.pattern),
            t.num_vertices(),
            t.num_edges()
        );
    }

    // Fresh mining for the same α answers in seconds; the tree answers in
    // microseconds. Show the contrast.
    use theme_communities::core::{Miner, TcfiMiner};
    let sw = Stopwatch::start();
    let mined = TcfiMiner::default().mine(&network, 1.0);
    let mine_secs = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let answered = tree.query_by_alpha(1.0);
    let query_secs = sw.elapsed_secs();
    assert_eq!(mined.np(), answered.retrieved_nodes);
    println!(
        "\nα = 1.0: fresh mining {:.1} ms vs tree query {:.3} ms ({}x faster), same {} trusses",
        mine_secs * 1e3,
        query_secs * 1e3,
        (mine_secs / query_secs.max(1e-9)) as u64,
        mined.np()
    );
}
