//! The two pinned inputs, made from `--seed`, and the guard against their
//! drifting.
//!
//! * `coauthor-dense` — few, fat theme networks (about 5.2 k tree nodes at
//!   2.4 KB each): MPTD and decomposition dominate.
//! * `syn-sparse` — many thin ones (337 k tree nodes at 90 B each): task
//!   spawn/steal, candidate joins and allocation dominate.
//!
//! The generator parameters are copied literally from `Dataset::Aminer` at
//! scale 4 (a pass of it takes 1.7 s on the window's one thread, so a
//! window holds half a dozen) and `Dataset::Syn` at scale 1 of
//! `tc-bench/src/workloads.rs`, so this package does not depend on
//! `tc-bench`.

use crate::stats::Rng;
use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder};
use tc_data::{generate_coauthor, generate_synthetic, CoauthorConfig, SynConfig};
use tc_index::TcTree;
use tc_txdb::{Item, ItemSpace};
use tc_util::crc32::Crc32;

/// The seed the pinned fingerprints below belong to.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    CoauthorDense,
    SynSparse,
}

impl Input {
    pub fn name(self) -> &'static str {
        match self {
            Input::CoauthorDense => "coauthor-dense",
            Input::SynSparse => "syn-sparse",
        }
    }

    /// The cohesion threshold the workloads mine this input at: 0.1 keeps
    /// about a third of the dense patterns; 0 keeps every indexed sparse
    /// pattern, so mining does one trivial MPTD per tree node.
    pub fn mine_alpha(self) -> f64 {
        match self {
            Input::CoauthorDense => 0.1,
            Input::SynSparse => 0.0,
        }
    }

    /// The input for `seed`. The generators' own seeds stay pinned: their
    /// output swings with them further than any bound could absorb (SYN
    /// from 34 k to 824 k tree nodes over seeds 0..3; the co-author
    /// network's budgeted QPS by a sixth). `--seed` permutes the item
    /// labels instead, which keeps every pattern truss, the tree's node
    /// count and the segment's size, and changes the order every layer
    /// meets them in — and it draws the request pool and streams.
    pub fn generate(self, seed: u64) -> DatabaseNetwork {
        let pinned = match self {
            Input::CoauthorDense => {
                generate_coauthor(&CoauthorConfig {
                    groups: 64,
                    authors_per_group: 36,
                    interdisciplinary_authors: 40,
                    papers_per_author: 22,
                    keywords_per_paper: 4,
                    collab_prob: 0.35,
                    cross_group_edges: 240,
                    generic_keyword_prob: 0.4,
                    seed: 0xA1,
                })
                .network
            }
            Input::SynSparse => generate_synthetic(&SynConfig {
                vertices: 2400,
                edges_per_vertex: 5,
                seeds: 24,
                items: 500,
                mutation: 0.1,
                max_transactions: 48,
                max_transaction_len: 16,
                seed: 0x57,
            }),
        };
        relabel_items(&pinned, seed)
    }

    fn pinned(self) -> Fingerprint {
        match self {
            Input::CoauthorDense => Fingerprint {
                vertices: 2344,
                edges: 15452,
                transactions: 51568,
                network_crc: 35245061,
                tree_nodes: 5219,
                tree_crc: 1984709642,
            },
            Input::SynSparse => Fingerprint {
                vertices: 2400,
                edges: 11985,
                transactions: 10600,
                network_crc: 2653825018,
                tree_nodes: 336964,
                tree_crc: 3999618291,
            },
        }
    }
}

/// The same network with item ids permuted by `seed`, in an anonymous item
/// space (nothing downstream reads item names).
fn relabel_items(net: &DatabaseNetwork, seed: u64) -> DatabaseNetwork {
    let mut perm: Vec<u32> = (0..net.item_space().len() as u32).collect();
    Rng::new(seed).shuffle(&mut perm);
    let mut b = DatabaseNetworkBuilder::new();
    b.set_item_space(ItemSpace::anonymous(perm.len()));
    for v in 0..net.num_vertices() as u32 {
        b.ensure_vertex(v);
        for t in net.database(v).transactions() {
            let items: Vec<Item> = t.iter().map(|i| Item(perm[i.index()])).collect();
            b.add_transaction(v, &items);
        }
    }
    for (u, v) in net.graph().edges() {
        b.add_edge(u, v);
    }
    b.build()
        .expect("a relabelled network is as valid as its source")
}

/// What identifies an input: its sizes and the CRC-32 of its content and
/// of the content of its TC-Tree. The CRCs run over this file's own
/// little-endian rendering, not over `TCSEG01` bytes, so a later change to
/// the segment format does not read as a changed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub vertices: usize,
    pub edges: usize,
    pub transactions: usize,
    pub network_crc: u32,
    pub tree_nodes: usize,
    pub tree_crc: u32,
}

impl Fingerprint {
    pub fn of(net: &DatabaseNetwork, tree: &TcTree) -> Fingerprint {
        let mut crc = Crc32::new();
        let put = |crc: &mut Crc32, x: u32| crc.update(&x.to_le_bytes());
        for v in 0..net.num_vertices() as u32 {
            let transactions = net.database(v).transactions();
            put(&mut crc, transactions.len() as u32);
            for t in transactions {
                put(&mut crc, t.len() as u32);
                t.iter().for_each(|i| put(&mut crc, i.0));
            }
        }
        for (u, v) in net.graph().edges() {
            put(&mut crc, u);
            put(&mut crc, v);
        }
        let network_crc = crc.finish();

        let mut crc = Crc32::new();
        for node in tree.nodes() {
            put(&mut crc, node.parent);
            put(&mut crc, node.item.0);
            for level in &node.truss.levels {
                // Single precision: a change in float summation order that
                // moves a cohesion by an ulp is not a changed workload.
                crc.update(&(level.alpha as f32).to_le_bytes());
                for &(u, v) in &level.edges {
                    put(&mut crc, u);
                    put(&mut crc, v);
                }
            }
        }
        let stats = net.stats();
        Fingerprint {
            vertices: stats.vertices,
            edges: stats.edges,
            transactions: stats.transactions,
            network_crc,
            tree_nodes: tree.num_nodes(),
            tree_crc: crc.finish(),
        }
    }
}

/// At the default seed, fails when the input's fingerprint differs from
/// the pinned one: a later change to a `tc-data` generator (or to what the
/// tree builder indexes) must not silently change the workload.
pub fn check_drift(input: Input, seed: u64, seen: Fingerprint) -> Result<(), String> {
    if seed == DEFAULT_SEED && seen != input.pinned() {
        return Err(format!(
            "inputs drifted: {} at seed {seed} is {seen:?}, pinned {:?}",
            input.name(),
            input.pinned()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabelling_keeps_sizes_and_moves_labels() {
        let net = generate_synthetic(&SynConfig {
            vertices: 60,
            seeds: 4,
            items: 30,
            ..SynConfig::default()
        });
        let (a, b) = (relabel_items(&net, 1), relabel_items(&net, 2));
        assert_eq!(a.stats(), net.stats());
        assert_eq!(b.stats(), net.stats());
        assert_eq!(
            relabel_items(&net, 1).database(0).transactions(),
            a.database(0).transactions()
        );
        assert!((0..60).any(|v| a.database(v).transactions() != b.database(v).transactions()));
    }
}
