//! Zero-downtime segment hot-reload: the swap cell serving threads read
//! through, and the off-thread reload that fills it.
//!
//! ## Consistency model
//!
//! The daemon serves queries from an `Arc<SegmentTcTree>` held in a
//! [`TreeSlot`]. Every request **loads the slot once** and runs entirely
//! against that snapshot, so a swap landing mid-request changes nothing
//! for it: in-flight requests answer from the old segment, requests
//! arriving after the swap answer from the new one, and no request ever
//! sees a mix. Sessions are never dropped — the swap is one `Arc`
//! pointer exchange, not a listener restart — and the old segment is
//! freed when its last in-flight request finishes.
//!
//! ## Trigger paths
//!
//! * `SIGHUP` → the accept loop notices the flag and calls
//!   [`crate::server::Handle::reload`] on a detached thread;
//! * embedders and tests call `ServerHandle::reload` /
//!   `ServerHandle::swap_tree` directly.
//!
//! The replacement segment is opened and validated **before** the swap
//! ([`SegmentTcTree::open_with`] checks magic, header geometry, section
//! lengths, and the node-directory checksum); a segment that fails
//! validation leaves the old one serving and only bumps
//! [`Counter::ReloadFailures`](crate::Counter::ReloadFailures).
//!
//! Reloads reopen with the daemon's configured [`StoreOptions`], so a
//! cache budget survives the swap. The old `Arc<SegmentTcTree>` (and its
//! file handle) is dropped once its last in-flight request finishes.
//!
//! The slot's lock and `Arc` come through the [`tc_util::sync`] facade,
//! so `tc-check` model-checks the snapshot guarantee (readers observe
//! the fully-validated old or new tree, never a mix) under
//! `--cfg tc_check_model`.

use std::path::Path;
use tc_store::{SegmentTcTree, StoreOptions};
use tc_util::sync::{Arc, Mutex};
use tc_util::LoadError;

/// The swap cell: readers take a cheap `Arc` clone, the reloader
/// exchanges the pointer. A `Mutex` (held only for the clone/exchange)
/// is plenty here — the critical section is two refcount ops, far below
/// the cost of the query that follows.
#[derive(Debug)]
pub struct TreeSlot {
    current: Mutex<Arc<SegmentTcTree>>,
}

impl TreeSlot {
    /// Wraps the initially served segment.
    pub fn new(tree: SegmentTcTree) -> TreeSlot {
        TreeSlot {
            current: Mutex::new(Arc::new(tree)),
        }
    }

    /// The snapshot to serve one request from. Call once per request:
    /// everything derived from the returned `Arc` is mutually consistent.
    pub fn load(&self) -> Arc<SegmentTcTree> {
        Arc::clone(&self.current.lock())
    }

    /// Atomically replaces the served segment. In-flight requests keep
    /// their snapshot; subsequent [`TreeSlot::load`]s see `tree`.
    pub fn store(&self, tree: Arc<SegmentTcTree>) {
        *self.current.lock() = tree;
    }

    /// [`TreeSlot::store`], taking ownership of an unwrapped tree — the
    /// common shape at reload sites, which validate a fresh
    /// [`SegmentTcTree`] before it ever becomes shared.
    pub fn store_tree(&self, tree: SegmentTcTree) {
        self.store(Arc::new(tree));
    }
}

/// Opens and validates `path` as a replacement segment, off the serving
/// path, and swaps it into `slot` only on success. The segment is opened
/// with `opts` — the daemon's cache budget applies to the replacement
/// exactly as it did to the original.
///
/// Returns the new segment's node count for the reload log line.
pub fn reload_from_path(
    slot: &TreeSlot,
    path: &Path,
    opts: StoreOptions,
) -> Result<usize, LoadError> {
    let fresh = SegmentTcTree::open_with(path, opts)?;
    let nodes = fresh.num_nodes();
    slot.store_tree(fresh);
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::DatabaseNetworkBuilder;
    use tc_index::TcTreeBuilder;

    fn segment_bytes_with_vertices(n: u32) -> Vec<u8> {
        let mut b = DatabaseNetworkBuilder::new();
        let item = b.intern_item("x");
        for v in 0..n {
            for _ in 0..4 {
                b.add_transaction(v, &[item]);
            }
        }
        for v in 0..n {
            b.add_edge(v, (v + 1) % n);
        }
        b.add_edge(0, 2);
        let tree = TcTreeBuilder::default().build(&b.build().unwrap());
        let mut bytes = Vec::new();
        tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
        bytes
    }

    fn segment_with_vertices(n: u32) -> SegmentTcTree {
        SegmentTcTree::from_bytes(segment_bytes_with_vertices(n)).unwrap()
    }

    #[test]
    fn loads_are_snapshots_across_a_swap() {
        let slot = TreeSlot::new(segment_with_vertices(3));
        let before = slot.load();
        let before_nodes = before.num_nodes();
        slot.store(Arc::new(segment_with_vertices(6)));
        // The pre-swap snapshot still answers from the old segment…
        assert_eq!(before.num_nodes(), before_nodes);
        assert!(before.query_by_alpha(0.0).is_ok());
        // …while new loads see the replacement.
        let after = slot.load();
        assert!(Arc::ptr_eq(&slot.load(), &after));
        assert!(!Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn reload_from_path_validates_before_swapping() {
        let dir = std::env::temp_dir().join("tc_serve_reload_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let slot = TreeSlot::new(segment_with_vertices(3));
        let old_nodes = slot.load().num_nodes();

        // A damaged file must leave the old segment serving.
        let bad = dir.join("bad.seg");
        std::fs::write(&bad, b"TCSEG01\n garbage").unwrap();
        assert!(reload_from_path(&slot, &bad, StoreOptions::default()).is_err());
        assert_eq!(slot.load().num_nodes(), old_nodes);

        // A valid segment swaps in.
        let good = dir.join("good.seg");
        let replacement_bytes = segment_bytes_with_vertices(6);
        let replacement_nodes = SegmentTcTree::from_bytes(replacement_bytes.clone())
            .unwrap()
            .num_nodes();
        std::fs::write(&good, &replacement_bytes).unwrap();
        let nodes = reload_from_path(&slot, &good, StoreOptions::default()).unwrap();
        assert_eq!(nodes, replacement_nodes);
        assert_eq!(slot.load().num_nodes(), replacement_nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_preserves_store_options() {
        let dir = std::env::temp_dir().join("tc_serve_reload_opts");
        std::fs::create_dir_all(&dir).unwrap();
        let slot = TreeSlot::new(segment_with_vertices(3));
        let path = dir.join("next.seg");
        std::fs::write(&path, segment_bytes_with_vertices(6)).unwrap();
        let opts = StoreOptions {
            cache_bytes: Some(1 << 20),
        };
        reload_from_path(&slot, &path, opts).unwrap();
        let tree = slot.load();
        assert_eq!(tree.cache_stats().budget, Some(1 << 20));
        std::fs::remove_dir_all(&dir).ok();
    }
}
