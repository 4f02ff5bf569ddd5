//! Theme-community indexing and query answering (paper §6).
//!
//! When a user supplies a new cohesion threshold `α`, the miners of
//! `tc-core` must recompute from scratch. This crate avoids that by
//! materialising a **data warehouse of maximal pattern trusses**:
//!
//! * [`tree`] — the TC-Tree (Algorithm 4), a set-enumeration tree whose
//!   nodes store decomposed maximal pattern trusses `L_p` (§6.1);
//! * [`query`] — Algorithm 5, answering `(q, α_q)` queries by a pruned
//!   breadth-first walk; includes the paper's QBA and QBP query modes;
//! * [`serialize`] — a versioned text format for persisting and reloading
//!   trees.

#[cfg(test)]
mod edge_tree;
pub mod query;
pub mod serialize;
pub mod tree;

pub use query::QueryResult;
pub use serialize::LoadError;
pub use tree::{BuildStats, TcNode, TcTree, TcTreeBuilder};
