//! Disk-backed storage for database networks and TC-Trees — the
//! "data warehouse of maximal pattern trusses" (§6) made durable.
//!
//! The text formats in `tc_data::io` and `tc_index::serialize` must be
//! fully parsed into RAM before the first query. This crate adds an
//! **append-only, paged, checksummed binary segment format** plus a lazy
//! reader, so a TC-Tree can be *opened* and *queried* without
//! deserialising the whole index:
//!
//! * [`page`] — the substrate: fixed-size pages, per-page CRC-32, a
//!   magic/version header, and section-addressed byte streams
//!   (byte-level spec: `docs/SEGMENT_FORMAT.md` in the repository);
//! * [`source`] — the [`PageSource`] page reads go through: a buffered
//!   file, or an in-memory image;
//! * [`cache`] — the byte-budgeted node cache with clock/second-chance
//!   eviction that bounds a serving daemon's memory envelope;
//! * [`network`] — segment save/load for [`tc_core::DatabaseNetwork`];
//! * [`tree`] — segment save for [`tc_index::TcTree`] and
//!   [`SegmentTcTree`], which serves QBA / QBP queries by materialising
//!   truss decompositions on demand from page offsets — as full trusses
//!   ([`SegmentTcTree::query`]) or, for the daemon and `tc query`, as
//!   their sizes ([`SegmentTcTree::summarize`]);
//! * [`shardmap`] — the `TCMAP01` shard map: how `tc shard` partitions a
//!   TC-Tree across N self-contained segment shards and how the
//!   `tc-router` gateway finds them (byte-level spec: `docs/SHARDING.md`);
//! * [`sniff`] — format detection by magic bytes (segments vs. the two
//!   text formats);
//! * [`wal`] — the durable write path: an append-only, CRC-framed
//!   write-ahead log with group commit, crash recovery that truncates torn
//!   tails and replays over a base segment, and a deterministic
//!   fault-injection harness that proves it.
//!
//! ## Quick taste
//!
//! ```
//! use tc_core::DatabaseNetworkBuilder;
//! use tc_index::TcTreeBuilder;
//! use tc_store::SegmentTcTree;
//!
//! let mut b = DatabaseNetworkBuilder::new();
//! let beer = b.intern_item("beer");
//! for v in 0..3u32 {
//!     for _ in 0..4 {
//!         b.add_transaction(v, &[beer]);
//!     }
//! }
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let tree = TcTreeBuilder::default().build(&b.build().unwrap());
//!
//! let mut bytes = Vec::new();
//! tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
//! let seg = SegmentTcTree::from_bytes(bytes).unwrap();
//! assert_eq!(seg.materialized_nodes(), 0); // nothing parsed yet
//! let answer = seg.query_by_alpha(0.0).unwrap();
//! assert_eq!(answer.retrieved_nodes, tree.query_by_alpha(0.0).retrieved_nodes);
//! ```
//!
//! Corruption anywhere in a segment file — bit flips, truncation, torn
//! writes — surfaces as [`LoadError::Checksum`] or [`LoadError::Corrupt`],
//! never a panic; see `tests/corruption.rs`.

pub mod cache;
pub mod network;
pub mod page;
pub mod shardmap;
pub mod sniff;
pub mod source;
pub mod tree;
pub mod wal;

pub use cache::CacheStats;
pub use network::{
    load_network_segment_from_bytes, load_network_segment_from_path, save_network_segment,
    save_network_segment_to_path,
};
pub use page::{SegmentKind, PAGE_SIZE};
pub use shardmap::{level1_items, split_tree, HashScheme, ShardEntry, ShardMap};
pub use sniff::{detect_format, DetectedFormat};
pub use source::PageSource;
pub use tc_util::LoadError;
pub use tree::{
    load_tree_segment_from_path, save_tree_segment, save_tree_segment_to_path, QuerySummary,
    SegmentTcTree, StoreOptions, TrussCount,
};
pub use wal::{Durability, Wal, WalRecord, WalStore};
