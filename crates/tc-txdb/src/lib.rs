//! Transaction-database substrate.
//!
//! Every vertex of a database network carries a transaction database over a
//! global item set `S` (paper §3.1). This crate provides:
//!
//! * [`item`] — interned items and the global [`ItemSpace`];
//! * [`pattern`] — sorted itemsets (themes/patterns) with subset algebra;
//! * [`database`] — [`TransactionDb`], stored *vertically* (item → tidset
//!   bitsets) so that pattern frequency is a word-parallel intersection;
//! * [`eclat`] — depth-first frequent-itemset mining over a single vertex
//!   database, used by the TCS baseline's `ε` pre-filter;
//! * [`apriori`] — the level-wise candidate generation of Algorithm 2.

pub mod apriori;
pub mod database;
pub mod eclat;
pub mod item;
pub mod pattern;

pub use apriori::{generate_candidates, JoinCandidate};
pub use database::TransactionDb;
pub use eclat::frequent_patterns;
pub use item::{Item, ItemSpace};
pub use pattern::Pattern;
