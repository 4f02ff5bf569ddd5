//! Reproduces the **§7.4 case study** (Table 4 + Figure 6): meaningful
//! overlapping theme communities in a co-author database network.
//!
//! The paper shows groups of collaborating scholars sharing research
//! interests ("data mining, sequential pattern", …), overlapping
//! communities around prolific authors, and the shrink-as-pattern-grows
//! behaviour of Theorem 5.1. We reproduce the same phenomena on the
//! AMINER analog, printing keyword sets (Table 4) and member lists
//! (Figure 6).

use tc_bench::BenchArgs;
use tc_core::{extract_communities, Miner, TcfiMiner};
use tc_data::{generate_coauthor, CoauthorConfig};

fn main() {
    let args = BenchArgs::from_env();
    let out = generate_coauthor(&CoauthorConfig {
        groups: 6,
        authors_per_group: (12.0 * args.scale).round().max(6.0) as usize,
        interdisciplinary_authors: 4,
        papers_per_author: 24,
        keywords_per_paper: 4,
        collab_prob: 0.5,
        cross_group_edges: 12,
        generic_keyword_prob: 0.3,
        seed: 0xCA5E,
    });
    let net = &out.network;
    println!(
        "## Case study — co-author network: {} authors, {} collaborations\n",
        net.num_vertices(),
        net.num_edges()
    );

    let result = TcfiMiner::default().mine(net, 0.05);
    let mut communities = result.communities();
    // Rank by (pattern length, size) to surface the most thematic ones.
    communities.sort_by_key(|c| std::cmp::Reverse((c.pattern.len(), c.num_vertices())));

    println!("### Table 4 analog — keyword themes of the top communities\n");
    let space = net.item_space();
    for (i, c) in communities.iter().take(8).enumerate() {
        println!(
            "p{}: {}  ({} authors, {} edges)",
            i + 1,
            space.render(&c.pattern),
            c.num_vertices(),
            c.num_edges()
        );
    }

    println!("\n### Figure 6 analog — community membership\n");
    for (i, c) in communities.iter().take(6).enumerate() {
        let names: Vec<&str> = c
            .vertices
            .iter()
            .map(|&v| out.author_names[v as usize].as_str())
            .collect();
        println!("community p{}: {}", i + 1, names.join(", "));
    }

    // Theorem 5.1 in action: a longer pattern's community is contained in
    // the shorter pattern's community.
    println!("\n### Theme shrinkage (Theorem 5.1)\n");
    let mut shown = 0;
    for truss in &result.trusses {
        if truss.pattern.len() < 2 {
            continue;
        }
        for sub in truss.pattern.k_minus_one_subsets() {
            if sub.is_empty() {
                continue;
            }
            if let Some(parent) = result.truss_of(&sub) {
                assert!(
                    truss.is_subgraph_of(parent),
                    "Theorem 5.1 violated: {} ⊄ {}",
                    truss.pattern,
                    sub
                );
                if shown < 4 {
                    println!(
                        "{} ({} authors)  ⊆  {} ({} authors)",
                        space.render(&truss.pattern),
                        truss.num_vertices(),
                        space.render(&sub),
                        parent.num_vertices()
                    );
                    shown += 1;
                }
            }
        }
    }

    // Overlap (Figure 6(e)-(f)): communities of different themes sharing
    // authors.
    println!("\n### Overlapping communities\n");
    let mut reported = 0;
    'outer: for i in 0..communities.len() {
        for j in (i + 1)..communities.len() {
            let (a, b) = (&communities[i], &communities[j]);
            if a.pattern != b.pattern {
                let overlap = a.vertex_overlap(b);
                if overlap >= 2 {
                    println!(
                        "{} and {} share {} authors",
                        space.render(&a.pattern),
                        space.render(&b.pattern),
                        overlap
                    );
                    reported += 1;
                    if reported >= 5 {
                        break 'outer;
                    }
                }
            }
        }
    }
    let _ = extract_communities; // re-exported path check
}
