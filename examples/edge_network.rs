//! The paper's §8 future work, running: theme communities in an **edge
//! database network**, where each edge (relationship) carries its own
//! transaction database.
//!
//! Scenario: a messaging platform. Every edge is a conversation between two
//! users; each transaction is the topic set of one chat session. A theme
//! community is a cohesive group whose *pairwise conversations* share a
//! dominant topic pattern — stronger evidence than vertex-level interests.
//!
//! The network type is the whole extension: the miners and the TC-Tree
//! builder below are the ones that serve vertex database networks.
//!
//! ```sh
//! cargo run --release --example edge_network
//! ```

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use theme_communities::core::{EdgeDatabaseNetworkBuilder, Miner, TcfiMiner};
use theme_communities::index::TcTreeBuilder;

fn main() {
    let mut rng = SmallRng::seed_from_u64(88);
    let mut b = EdgeDatabaseNetworkBuilder::new();
    let topics: Vec<_> = [
        "rust",
        "databases",
        "gaming",
        "cooking",
        "hiking",
        "music",
        "startups",
        "gardening",
    ]
    .iter()
    .map(|t| b.intern_item(t))
    .collect();

    // Three friend circles; conversations inside a circle revolve around
    // the circle's topic pair.
    let circles: &[(std::ops::Range<u32>, [usize; 2])] = &[
        (0..5, [0, 1]),  // rust + databases
        (4..9, [2, 5]),  // gaming + music (overlaps at user 4)
        (9..13, [3, 7]), // cooking + gardening
    ];
    for (members, topic_pair) in circles {
        let members: Vec<u32> = members.clone().collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                // 12 chat sessions per conversation.
                for _ in 0..12 {
                    let mut session: Vec<_> = if rng.gen_bool(0.7) {
                        topic_pair.iter().map(|&t| topics[t]).collect()
                    } else {
                        Vec::new()
                    };
                    session.push(*topics.choose(&mut rng).expect("nonempty"));
                    b.add_transaction(members[i], members[j], &session);
                }
            }
        }
    }
    // Sparse cross-circle small talk.
    for _ in 0..8 {
        let u = rng.gen_range(0..13u32);
        let v = rng.gen_range(0..13u32);
        if u != v {
            b.add_transaction(u, v, &[*topics.choose(&mut rng).expect("nonempty")]);
        }
    }

    let network = b.build().expect("valid edge network");
    println!(
        "edge database network: {} users, {} conversations\n",
        network.num_vertices(),
        network.num_edges()
    );

    let result = TcfiMiner::default().mine(&network, 0.5);
    println!(
        "found {} edge-pattern trusses at α = 0.5 ({} truss computations)\n",
        result.np(),
        result.stats.mptd_calls
    );

    let mut communities = result.communities();
    communities.sort_by_key(|c| std::cmp::Reverse((c.pattern.len(), c.num_vertices())));
    println!("conversation-theme communities:");
    for c in communities.iter().filter(|c| c.pattern.len() >= 2) {
        println!(
            "  {} — users {:?} ({} conversations)",
            network.item_space().render(&c.pattern),
            c.vertices,
            c.num_edges()
        );
    }

    // The overlap user (4) belongs to two circles; with edge databases the
    // two themes stay cleanly separated because *conversations*, not users,
    // carry the topics.
    let in_two = communities
        .iter()
        .filter(|c| c.pattern.len() >= 2 && c.vertices.contains(&4))
        .count();
    println!("\nuser 4 appears in {in_two} multi-topic conversation communities");

    // An edge network is served by the same engine as a vertex network, so
    // the rest of the chain comes with it: the work-stealing miner finds the
    // same trusses, and one TC-Tree answers every threshold without mining.
    let parallel = TcfiMiner::default().parallel(4).mine(&network, 0.5);
    assert!(
        result.same_trusses(&parallel),
        "serial ≡ work-stealing TCFI"
    );
    let tree = TcTreeBuilder::default().build(&network);
    let answer = tree.query_by_alpha(0.5);
    assert_eq!(answer.retrieved_nodes, result.np(), "TC-Tree QBA ≡ mining");
    println!(
        "TC-Tree over the conversations: {} nodes, depth {}; QBA(0.5) retrieves {} trusses",
        tree.num_nodes(),
        tree.max_depth(),
        answer.retrieved_nodes
    );
}
