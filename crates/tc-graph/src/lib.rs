//! Undirected graph substrate for the theme-communities workspace.
//!
//! The paper's algorithms operate on simple undirected graphs (no self
//! loops, no parallel edges). This crate provides:
//!
//! * [`UGraph`] — an immutable CSR-style adjacency structure with sorted
//!   neighbor lists, built through [`GraphBuilder`];
//! * [`triangles`] — merge-based common-neighbor and triangle enumeration
//!   (the building block of edge cohesion);
//! * [`components`] — connected components (theme communities are the
//!   maximal connected subgraphs of maximal pattern trusses);
//! * [`ktruss`] / [`kcore`] — the classic unweighted structures of
//!   Cohen and Seidman; pattern trusses degenerate to these when every
//!   vertex frequency is 1 (paper §3.2), which the tests exploit as an
//!   oracle;
//! * [`sample`] — breadth-first edge sampling, the procedure §7.1 uses to
//!   build smaller database networks;
//! * [`unionfind`] — disjoint sets with path compression.

pub mod components;
pub mod graph;
pub mod kcore;
pub mod ktruss;
pub mod metrics;
pub mod sample;
pub mod triangles;
pub mod unionfind;

pub use components::{connected_components, ComponentLabels};
pub use graph::{EdgeKey, GraphBuilder, UGraph, VertexId};
pub use kcore::{core_numbers, k_core};
pub use ktruss::{k_truss, truss_numbers};
pub use metrics::{average_clustering, degree_histogram, mean_degree, transitivity};
pub use sample::bfs_edge_sample;
pub use triangles::{count_triangles, edge_support};
pub use unionfind::UnionFind;

/// Normalises an edge to its canonical `(min, max)` key.
#[inline]
pub fn edge_key(u: VertexId, v: VertexId) -> EdgeKey {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}
