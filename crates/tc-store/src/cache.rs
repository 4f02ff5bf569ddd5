//! The byte-budgeted node cache: bounded materialisation for
//! [`crate::tree::SegmentTcTree`].
//!
//! Each cached node is one [`NodeEntry`], of its counts or of its edges:
//! the node's [`CountLadder`] (Equation 1's `(|V|, |E|)` at every
//! threshold, 16 bytes a level) when a counting caller — the daemon's
//! `summarize` walk — made it, or its [`FlatDecomposition`] (`L_p` in
//! edge-set order, which carries its own ladder) when an edge caller
//! (`truss`, `query`) did. Every entry is charged an accounted byte size
//! (via [`tc_util::HeapSize`]) against one optional budget, and when the
//! ledger exceeds the budget a **clock / second-chance** sweep evicts cold
//! entries.
//!
//! A counting lookup ([`NodeCache::get`] with `edges = false`) hits on any
//! entry, since an entry of edges holds the ladder too. An edge lookup
//! hits only an entry of edges; on one of counts it is a miss, and the
//! caller's [`NodeCache::insert`] of the node's edges *upgrades* the
//! resident entry: replaces it in its slot and charges the size
//! difference, once. An upgrade makes no entry resident, so it moves
//! neither `materialized_total` nor `resident` nor `evictions`, and
//! `materialized_total − resident == evictions` holds throughout.
//!
//! Three invariants the tests and proptests pin down:
//!
//! - **Eviction never breaks an in-flight query.** Entries are handed out
//!   as `Arc`s — a per-request pin, of the entry or of its decomposition.
//!   Eviction drops the cache's reference only; a query holding the `Arc`
//!   keeps the data alive. The sweep additionally *skips* pinned entries
//!   (either `Arc::strong_count > 1`), so the byte ledger tracks memory
//!   that is actually reclaimable.
//! - **Correctness is budget-independent.** A re-materialised node is
//!   parsed from the same checksummed pages, so answers under any budget
//!   are byte-identical to the unbounded tree (`tests/cache_properties.rs`).
//! - **Unbounded is the default and exactly the old behaviour**: with
//!   `budget = None` nothing is ever evicted.
//!
//! Slots are committed a **block** of [`BLOCK`] consecutive node ids at a
//! time, when an insert first lands in the block: 16 bytes a slot (a
//! mutex over an optional `Arc`, nothing else) and a one-byte
//! second-chance bit beside it, 4 352 bytes a block. Until then a block
//! costs one empty cell of a fixed table, 16 bytes a block (1/16 of a
//! byte a node), whatever the budget: a lookup there is a miss that
//! allocates nothing, and the sweep steps over it. An entry's accounted
//! bytes are not stored: an entry behind the `Arc` is immutable (an
//! upgrade swaps in a new one), so the sweep recomputes them from the
//! entry it evicts and the ledger balances exactly. The ledger charges
//! entries only, never blocks.
//!
//! Concurrency: each node has its own slot mutex, and its second-chance
//! bit is only read or written under that lock; the sweep uses
//! `try_lock` so it never blocks behind a reader, and the clock hand is a
//! single atomic. A block is published through a once-cell: racing first
//! inserts into one block wait for the one that commits it, and a lookup
//! in any other block never waits on them. Two threads materialising the
//! same node parse identical bytes — the loser of the insert race adopts
//! the winner's entry and charges nothing, unless it brings edges to the
//! winner's counts. All primitives come through the [`tc_util::sync`]
//! facade, so `tc-check` model-checks the insert/upgrade/evict ledger
//! (balance and budget envelope) and the publication of blocks across
//! bounded interleavings under `--cfg tc_check_model`.

use tc_core::{CountLadder, FlatDecomposition, TrussDecomposition};
use tc_util::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use tc_util::sync::{Arc, Mutex, OnceLock};
use tc_util::HeapSize;

/// A point-in-time snapshot of the cache counters, as exposed by
/// [`crate::tree::SegmentTcTree::cache_stats`] and surfaced in the serve
/// layer's STATS / Prometheus output.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Accounted bytes of all resident entries.
    pub bytes_used: u64,
    /// The configured budget; `None` = unbounded.
    pub budget: Option<u64>,
    /// Entries currently resident (the `materialized_nodes` gauge).
    pub resident: usize,
    /// Entries made resident since open, cumulative — re-materialising an
    /// evicted node counts again; upgrading a resident entry does not.
    pub materialized_total: u64,
    /// Entries evicted by the clock sweep.
    pub evictions: u64,
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that had to materialise (an edge lookup of a ladder-only
    /// entry included).
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `1.0` before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What the cache holds for one node: its count ladder, or its flat
/// decomposition, which holds the ladder too.
#[derive(Debug)]
pub enum NodeEntry {
    /// Equation 1's counts alone: what a counting walk keeps.
    Counts(CountLadder),
    /// `L_p` in edge-set order: what an edge caller keeps.
    Edges(Arc<FlatDecomposition>),
}

impl NodeEntry {
    /// An entry of `truss`'s counts alone.
    pub fn counts(truss: &TrussDecomposition) -> NodeEntry {
        NodeEntry::Counts(CountLadder::of(truss))
    }

    /// An entry of `truss`'s edges, in edge-set order.
    pub fn edges(truss: &TrussDecomposition) -> NodeEntry {
        NodeEntry::Edges(Arc::new(FlatDecomposition::of(truss)))
    }

    /// Equation 1's counts at every threshold.
    pub fn ladder(&self) -> &CountLadder {
        match self {
            NodeEntry::Counts(ladder) => ladder,
            NodeEntry::Edges(flat) => flat.ladder(),
        }
    }

    /// The flat decomposition, if this is an entry of edges.
    pub fn flat(&self) -> Option<&Arc<FlatDecomposition>> {
        match self {
            NodeEntry::Counts(_) => None,
            NodeEntry::Edges(flat) => Some(flat),
        }
    }

    /// The accounted size: the value the entry holds, plus everything it
    /// owns on the heap.
    pub fn accounted_bytes(&self) -> u64 {
        let bytes = match self {
            NodeEntry::Counts(l) => std::mem::size_of::<CountLadder>() + l.heap_size(),
            NodeEntry::Edges(f) => std::mem::size_of::<FlatDecomposition>() + f.heap_size(),
        };
        bytes as u64
    }

    /// Whether this entry answers every lookup `other` does.
    fn holds(&self, other: &NodeEntry) -> bool {
        matches!(self, NodeEntry::Edges(_)) || matches!(other, NodeEntry::Counts(_))
    }

    /// Whether anyone besides the cache holds this entry or its
    /// decomposition.
    fn pinned(entry: &Arc<NodeEntry>) -> bool {
        Arc::strong_count(entry) > 1 || entry.flat().is_some_and(|f| Arc::strong_count(f) > 1)
    }
}

/// One node's slot: the resident entry, if any (see the module docs for
/// why its accounted bytes are not stored beside it).
type Slot = Mutex<Option<Arc<NodeEntry>>>;

// A field creeping back into the slot fails the build here, by name.
#[cfg(not(tc_check_model))]
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// Consecutive node ids whose slots are committed together. The model
/// checker explores every step of a sweep, so under it a block is four
/// slots and a model case crosses blocks in a handful of nodes; the
/// protocol is the same.
#[cfg(not(tc_check_model))]
pub const BLOCK: usize = 256;
/// Consecutive node ids whose slots are committed together.
#[cfg(tc_check_model)]
pub const BLOCK: usize = 4;

/// [`BLOCK`] nodes' slots and second-chance bits.
struct Block {
    slots: [Slot; BLOCK],
    /// The clock's second-chance bits, one per slot: set on every hit and
    /// insert, swapped clear by a passing sweep (under the slot's lock);
    /// an entry is evicted only when found clear.
    referenced: [AtomicBool; BLOCK],
}

#[cfg(not(tc_check_model))]
const _: () = assert!(std::mem::size_of::<Block>() == BLOCK * 17);

impl Block {
    fn new() -> Box<Block> {
        Box::new(Block {
            slots: std::array::from_fn(|_| Mutex::new(None)),
            referenced: std::array::from_fn(|_| AtomicBool::new(false)),
        })
    }
}

/// A fixed-slot (one per tree node) cache with a byte budget and
/// clock/second-chance eviction, its slots committed a block at a time.
///
/// Public (but `doc(hidden)`) so `tc-check`'s model tests can drive the
/// insert/evict protocol directly; everything else reaches it through
/// [`crate::tree::SegmentTcTree`].
#[doc(hidden)]
pub struct NodeCache {
    budget: Option<u64>,
    /// Node ids `0..len` have a slot.
    len: usize,
    /// Block `b` holds nodes `b·BLOCK ..`, once an insert reached it.
    blocks: Box<[OnceLock<Box<Block>>]>,
    hand: AtomicUsize,
    bytes_used: AtomicU64,
    resident: AtomicUsize,
    materialized_total: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for NodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCache")
            .field("slots", &self.len)
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl NodeCache {
    /// One slot per node, none committed yet; `budget = None` disables
    /// eviction entirely.
    pub fn new(slots: usize, budget: Option<u64>) -> NodeCache {
        NodeCache {
            budget,
            len: slots,
            blocks: (0..slots.div_ceil(BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
            hand: AtomicUsize::new(0),
            bytes_used: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            materialized_total: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up node `id`, pinning the entry for the caller and marking it
    /// recently used: any entry when `edges` is false, an entry of edges
    /// when it is true. A miss is counted; the caller is expected to parse
    /// and [`NodeCache::insert`]. A lookup in a block no insert reached is
    /// a miss that takes no lock.
    pub fn get(&self, id: u32, edges: bool) -> Option<Arc<NodeEntry>> {
        let (b, j) = (id as usize / BLOCK, id as usize % BLOCK);
        let Some(block) = self.blocks[b].get() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let slot = block.slots[j].lock();
        match &*slot {
            Some(entry) if !edges || entry.flat().is_some() => {
                block.referenced[j].store(true, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches a freshly parsed entry, charges its bytes, and runs the
    /// eviction sweep if the ledger now exceeds the budget. The returned
    /// `Arc` is the caller's pin. A resident entry that answers every
    /// lookup `entry` does (another thread won the insert race, or it
    /// holds edges) is adopted unchanged; a resident entry of counts that
    /// `entry`'s edges replace is *upgraded*, and charged the difference.
    /// The first insert into a block commits the block's slots.
    pub fn insert(&self, id: u32, entry: NodeEntry) -> Arc<NodeEntry> {
        // The sweep visits ids below `len` only: an entry past them could
        // never be evicted.
        assert!((id as usize) < self.len, "node {id} has no cache slot");
        let (b, j) = (id as usize / BLOCK, id as usize % BLOCK);
        let block = self.blocks[b].get_or_init(Block::new);
        let mut slot = block.slots[j].lock();
        let upgraded = match &*slot {
            Some(resident) if resident.holds(&entry) => return resident.clone(),
            Some(resident) => Some(resident.accounted_bytes()),
            None => None,
        };
        let arc = Arc::new(entry);
        let bytes = arc.accounted_bytes();
        *slot = Some(arc.clone());
        block.referenced[j].store(true, Ordering::Relaxed);
        drop(slot);
        match upgraded {
            Some(was) => {
                self.bytes_used.fetch_add(bytes - was, Ordering::Relaxed);
            }
            None => {
                self.bytes_used.fetch_add(bytes, Ordering::Relaxed);
                self.resident.fetch_add(1, Ordering::Relaxed);
                self.materialized_total.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.enforce_budget(Some(id));
        arc
    }

    /// Runs the sweep with no entry protected: for a caller that held pins
    /// through inserts, which the sweep had to pass over, and has dropped
    /// them.
    pub fn trim(&self) {
        self.enforce_budget(None);
    }

    /// The clock sweep: while over budget, advance the hand; clear a set
    /// reference bit (second chance), evict an entry found clear and
    /// unpinned. The hand moves past a block no insert reached in one
    /// step, counting its slots as passed. Bounded to two revolutions so a
    /// cache whose pinned entries alone exceed the budget degrades to a
    /// transient overshoot instead of a livelock. The just-inserted node,
    /// `protect`, is never evicted.
    fn enforce_budget(&self, protect: Option<u32>) {
        let Some(budget) = self.budget else { return };
        let n = self.len;
        if n == 0 {
            return;
        }
        let mut steps = 0usize;
        while self.bytes_used.load(Ordering::Relaxed) > budget && steps < 2 * n {
            let h = self.hand.fetch_add(1, Ordering::Relaxed);
            let i = h % n;
            let (b, j) = (i / BLOCK, i % BLOCK);
            let Some(block) = self.blocks[b].get() else {
                // Nothing to evict before the block's end. If another
                // sweep moved the hand meanwhile, leave it where it is.
                let rest = ((b + 1) * BLOCK).min(n) - i;
                let _ = self.hand.compare_exchange(
                    h + 1,
                    h + rest,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                steps += rest;
                continue;
            };
            steps += 1;
            if protect == Some(i as u32) {
                continue;
            }
            // try_lock: a reader holding the slot is by definition using
            // it — skip rather than stall the sweep.
            let Some(mut slot) = block.slots[j].try_lock() else {
                continue;
            };
            let Some(entry) = &*slot else { continue };
            if block.referenced[j].swap(false, Ordering::Relaxed) {
                continue;
            }
            if NodeEntry::pinned(entry) {
                continue;
            }
            let bytes = entry.accounted_bytes();
            *slot = None;
            drop(slot);
            self.bytes_used.fetch_sub(bytes, Ordering::Relaxed);
            self.resident.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Node `id`'s resident entry, touching no counter and no
    /// second-chance bit: for tests that hold the ledger to what is
    /// resident.
    #[doc(hidden)]
    pub fn peek(&self, id: u32) -> Option<Arc<NodeEntry>> {
        let block = self.blocks[id as usize / BLOCK].get()?;
        block.slots[id as usize % BLOCK].lock().clone()
    }

    /// Blocks whose slots an insert has committed.
    #[doc(hidden)]
    pub fn committed_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.get().is_some()).count()
    }

    /// Entries currently resident.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_used: self.bytes_used.load(Ordering::Relaxed),
            budget: self.budget,
            resident: self.resident.load(Ordering::Relaxed),
            materialized_total: self.materialized_total.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::TrussLevel;
    use tc_txdb::{Item, Pattern};

    fn truss(item: u32, edges: usize) -> TrussDecomposition {
        TrussDecomposition {
            pattern: Pattern::singleton(Item(item)),
            levels: vec![TrussLevel {
                alpha: 1.0,
                edges: (0..edges as u32).map(|i| (i, i + 1)).collect(),
            }],
        }
    }

    /// An entry of [`truss`]`(item, edges)`'s edges.
    fn edges(item: u32, edges: usize) -> NodeEntry {
        NodeEntry::edges(&truss(item, edges))
    }

    /// An entry of [`truss`]`(item, edges)`'s counts alone.
    fn counts(item: u32, edges: usize) -> NodeEntry {
        NodeEntry::counts(&truss(item, edges))
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let c = NodeCache::new(100, None);
        for id in 0..100u32 {
            c.insert(id, edges(id, 64));
        }
        let s = c.stats();
        assert_eq!(s.resident, 100);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.materialized_total, 100);
        assert!(s.bytes_used > 0);
    }

    #[test]
    fn budget_is_enforced_and_ledger_balances() {
        let one = edges(0, 64).accounted_bytes();
        // Room for about three entries.
        let c = NodeCache::new(100, Some(3 * one));
        for id in 0..50u32 {
            let pin = c.insert(id, edges(id, 64));
            drop(pin); // release the per-request pin
            assert!(
                c.stats().bytes_used <= 3 * one,
                "over budget after insert {id}: {:?}",
                c.stats()
            );
        }
        let s = c.stats();
        assert_eq!(s.resident as u64 * one, s.bytes_used, "ledger balances");
        assert_eq!(
            s.evictions + s.resident as u64,
            50,
            "every insert accounted"
        );
        assert_eq!(s.materialized_total, 50);
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let one = edges(0, 64).accounted_bytes();
        let c = NodeCache::new(10, Some(2 * one));
        let pin = c.insert(0, edges(0, 64)); // hold the Arc across inserts
        for id in 1..10u32 {
            drop(c.insert(id, edges(id, 64)));
        }
        // Node 0 was pinned the whole time: still resident, data intact.
        let again = c.get(0, true).expect("pinned entry must not be evicted");
        assert!(Arc::ptr_eq(&again, &pin));
        assert!(c.stats().evictions > 0, "others were evicted");
    }

    #[test]
    fn a_hit_since_the_hand_passed_buys_one_more_revolution() {
        // Distinct sizes, so the byte ledger names the resident set; the
        // budget holds the three largest, so each fourth entry evicts one.
        let sizes = [8, 16, 24, 32];
        let bytes = |id: usize| edges(id as u32, sizes[id]).accounted_bytes();
        let c = NodeCache::new(4, Some(bytes(1) + bytes(2) + bytes(3)));
        let insert = |id: usize| drop(c.insert(id as u32, edges(id as u32, sizes[id])));
        let check = |resident: &[usize], step: &str| {
            let s = c.stats();
            assert_eq!(s.resident, resident.len(), "{step}: {s:?}");
            let want: u64 = resident.iter().map(|&id| bytes(id)).sum();
            assert_eq!(s.bytes_used, want, "{step}: resident {resident:?}");
        };
        for id in 0..3 {
            insert(id);
            check(&(0..=id).collect::<Vec<_>>(), "filling");
        }
        // The hand clears 0, 1 and 2, skips the new 3, and comes round to
        // find 0 clear.
        insert(3);
        check(&[1, 2, 3], "first sweep");
        // 1 is hit after the hand cleared it; 2 is not. The hand reaches 1
        // first, clears it again, and evicts 2.
        assert!(c.get(1, true).is_some());
        insert(0);
        check(&[0, 1, 3], "second sweep");
        // 1 has not been hit since; its second chance is spent. The hand
        // clears 3 (set since its insert) and 0, then evicts 1.
        insert(2);
        check(&[0, 2, 3], "third sweep");
        assert!(c.get(1, true).is_none() && c.get(0, true).is_some());
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn hits_and_misses_count() {
        let c = NodeCache::new(4, None);
        assert!(c.get(1, true).is_none());
        c.insert(1, edges(1, 4));
        assert!(c.get(1, true).is_some());
        assert!(c.get(2, true).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn losing_the_insert_race_adopts_without_double_charge() {
        let c = NodeCache::new(4, None);
        let first = c.insert(1, edges(1, 8));
        let used = c.stats().bytes_used;
        let second = c.insert(1, edges(1, 8));
        assert!(Arc::ptr_eq(&first, &second));
        let s = c.stats();
        assert_eq!(s.bytes_used, used, "no double charge");
        assert_eq!(s.materialized_total, 1);
        assert_eq!(s.resident, 1);
    }

    #[test]
    fn a_count_lookup_hits_any_entry_and_an_edge_lookup_one_with_edges() {
        let c = NodeCache::new(2, None);
        c.insert(0, counts(0, 8));
        c.insert(1, edges(1, 8));
        let ladder = c.get(0, false).unwrap();
        assert_eq!(ladder.ladder().at(0.0), (9, 8));
        assert!(c.get(0, true).is_none(), "no edges yet");
        // An entry of edges answers counting lookups off its own ladder.
        assert_eq!(c.get(1, false).unwrap().ladder().at(0.0), (9, 8));
        assert!(c.get(1, true).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
        // An entry of edges is charged its flat decomposition.
        let flat = FlatDecomposition::of(&truss(1, 8));
        assert_eq!(
            edges(1, 8).accounted_bytes(),
            (std::mem::size_of::<FlatDecomposition>() + flat.heap_size()) as u64
        );
    }

    #[test]
    fn an_upgrade_replaces_counts_by_edges_and_charges_the_difference_once() {
        let c = NodeCache::new(2, None);
        let resident = c.insert(0, counts(0, 64));
        assert_eq!(c.stats().bytes_used, resident.accounted_bytes());
        // The same part again adopts what is resident.
        assert!(Arc::ptr_eq(&resident, &c.insert(0, counts(0, 64))));
        let upgraded = c.insert(0, edges(0, 64));
        assert!(!Arc::ptr_eq(&resident, &upgraded));
        assert!(upgraded.flat().is_some());
        // Either entry again adopts the entry of edges.
        assert!(Arc::ptr_eq(&upgraded, &c.insert(0, counts(0, 64))));
        assert!(Arc::ptr_eq(&upgraded, &c.insert(0, edges(0, 64))));
        // An upgrade makes no entry resident: one materialisation, and the
        // ledger holds the entry of edges alone.
        let s = c.stats();
        assert_eq!((s.resident, s.materialized_total, s.evictions), (1, 1, 0));
        assert_eq!(s.bytes_used, edges(0, 64).accounted_bytes());
        // The reader of the replaced entry still holds it, intact.
        assert!(resident.flat().is_none());
        assert_eq!(resident.ladder().at(0.0), upgraded.ladder().at(0.0));
    }

    #[test]
    fn counts_never_replace_edges() {
        let c = NodeCache::new(1, None);
        let resident = c.insert(0, edges(0, 64));
        let used = c.stats().bytes_used;
        assert!(Arc::ptr_eq(&resident, &c.insert(0, counts(0, 64))));
        let s = c.stats();
        assert_eq!(
            (s.bytes_used, s.resident, s.materialized_total),
            (used, 1, 1)
        );
    }

    #[test]
    fn an_evicted_upgrade_returns_its_whole_charge() {
        let c = NodeCache::new(2, Some(1));
        drop(c.insert(0, counts(0, 64)));
        let upgraded = c.insert(0, edges(0, 64));
        // A pinned decomposition pins its entry.
        let held = upgraded.flat().unwrap().clone();
        let whole = upgraded.accounted_bytes();
        drop(upgraded);
        drop(c.insert(1, counts(1, 4)));
        assert_eq!(c.stats().bytes_used, whole + counts(1, 4).accounted_bytes());
        assert!(c.get(0, true).is_some(), "pinned through its decomposition");
        drop(held);
        // Nothing pinned or just inserted: a trim empties a 1-byte cache,
        // and each eviction returns what its entry was charged.
        c.trim();
        let s = c.stats();
        assert_eq!((s.bytes_used, s.resident, s.evictions), (0, 0, 2), "{s:?}");
        assert_eq!(s.materialized_total, 2);
    }

    #[test]
    fn hit_ratio_is_one_before_any_lookup() {
        let c = NodeCache::new(1, None);
        assert_eq!(c.stats().hit_ratio(), 1.0);
    }
}
