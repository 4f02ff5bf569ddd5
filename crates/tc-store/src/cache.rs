//! The byte-budgeted node cache: bounded materialisation for
//! [`crate::tree::SegmentTcTree`].
//!
//! The lazy reader used to materialise truss decompositions into a
//! grow-only `OnceLock` table, so a long-lived daemon's footprint was
//! monotone in *query diversity*, not in working-set size. `NodeCache`
//! replaces that table: every cached [`TrussDecomposition`] is charged an
//! accounted byte size (via [`tc_util::HeapSize`]) against an optional
//! budget, and when the ledger exceeds the budget a **clock /
//! second-chance** sweep evicts cold entries.
//!
//! Three invariants the tests and proptests pin down:
//!
//! - **Eviction never breaks an in-flight query.** Entries are handed out
//!   as `Arc<TrussDecomposition>` — a per-request pin. Eviction drops the
//!   cache's reference only; a query holding the `Arc` keeps the data
//!   alive. The sweep additionally *skips* pinned entries
//!   (`Arc::strong_count > 1`), so the byte ledger tracks memory that is
//!   actually reclaimable.
//! - **Correctness is budget-independent.** A re-materialised node is
//!   parsed from the same checksummed pages, so answers under any budget
//!   are byte-identical to the unbounded tree (`tests/cache_properties.rs`).
//! - **Unbounded is the default and exactly the old behaviour**: with
//!   `budget = None` nothing is ever evicted.
//!
//! Per node the cache holds 17 bytes whatever its budget: a 16-byte slot
//! (a mutex over an optional `Arc`, nothing else) and a one-byte
//! second-chance bit in an array beside the slots. An entry's accounted
//! bytes are not stored: the decomposition behind the `Arc` is immutable,
//! so the sweep recomputes them from the entry it evicts and the ledger
//! balances exactly.
//!
//! Concurrency: each node has its own slot mutex, and its second-chance
//! bit is only read or written under that lock; the sweep uses
//! `try_lock` so it never blocks behind a reader, and the clock hand is a
//! single atomic. Two threads materialising the same node parse identical
//! bytes — the loser of the insert race adopts the winner's entry and
//! charges nothing. All primitives come through the [`tc_util::sync`]
//! facade, so `tc-check` model-checks the insert/evict ledger (balance
//! and budget envelope) across bounded interleavings under
//! `--cfg tc_check_model`.

use tc_core::TrussDecomposition;
use tc_util::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use tc_util::sync::{Arc, Mutex};
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
    /// Materialisations since open, cumulative — re-materialising an
    /// evicted node counts again.
    pub materialized_total: u64,
    /// Entries evicted by the clock sweep.
    pub evictions: u64,
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that had to materialise.
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

/// The accounted size of one cached decomposition: the struct itself plus
/// everything it owns on the heap.
fn entry_bytes(truss: &TrussDecomposition) -> u64 {
    (std::mem::size_of::<TrussDecomposition>() + truss.heap_size()) as u64
}

/// One node's slot: the resident decomposition, if any (see the module
/// docs for why its accounted bytes are not stored beside it).
type Slot = Mutex<Option<Arc<TrussDecomposition>>>;

// A field creeping back into the slot fails the build here, by name.
#[cfg(not(tc_check_model))]
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// A fixed-slot (one per tree node) cache with a byte budget and
/// clock/second-chance eviction.
///
/// Public (but `doc(hidden)`) so `tc-check`'s model tests can drive the
/// insert/evict protocol directly; everything else reaches it through
/// [`crate::tree::SegmentTcTree`].
#[doc(hidden)]
pub struct NodeCache {
    budget: Option<u64>,
    slots: Box<[Slot]>,
    /// The clock's second-chance bits, one per slot: set on every hit and
    /// insert, swapped clear by a passing sweep (under the slot's lock);
    /// an entry is evicted only when found clear.
    referenced: Box<[AtomicBool]>,
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
            .field("slots", &self.slots.len())
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl NodeCache {
    /// One slot per node; `budget = None` disables eviction entirely.
    pub fn new(slots: usize, budget: Option<u64>) -> NodeCache {
        NodeCache {
            budget,
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
            referenced: (0..slots).map(|_| AtomicBool::new(false)).collect(),
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
    /// recently used. A miss is counted; the caller is expected to parse
    /// and [`NodeCache::insert`].
    pub fn get(&self, id: u32) -> Option<Arc<TrussDecomposition>> {
        let slot = self.slots[id as usize].lock();
        match &*slot {
            Some(truss) => {
                self.referenced[id as usize].store(true, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(truss.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches a freshly parsed decomposition, charges its bytes, and runs
    /// the eviction sweep if the ledger now exceeds the budget. The
    /// returned `Arc` is the caller's pin. If another thread won the
    /// insert race, its (byte-identical) entry is adopted unchanged.
    pub fn insert(&self, id: u32, truss: TrussDecomposition) -> Arc<TrussDecomposition> {
        let arc = Arc::new(truss);
        let bytes = entry_bytes(&arc);
        {
            let mut slot = self.slots[id as usize].lock();
            if let Some(truss) = &*slot {
                return truss.clone();
            }
            *slot = Some(arc.clone());
            self.referenced[id as usize].store(true, Ordering::Relaxed);
        }
        self.bytes_used.fetch_add(bytes, Ordering::Relaxed);
        self.resident.fetch_add(1, Ordering::Relaxed);
        self.materialized_total.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(id);
        arc
    }

    /// The clock sweep: while over budget, advance the hand; clear a set
    /// reference bit (second chance), evict an entry found clear and
    /// unpinned. Bounded to two revolutions so a cache whose pinned
    /// entries alone exceed the budget degrades to a transient overshoot
    /// instead of a livelock. The just-inserted node is never evicted.
    fn enforce_budget(&self, protect: u32) {
        let Some(budget) = self.budget else { return };
        let n = self.slots.len();
        if n == 0 {
            return;
        }
        let mut steps = 0usize;
        while self.bytes_used.load(Ordering::Relaxed) > budget && steps < 2 * n {
            steps += 1;
            let i = self.hand.fetch_add(1, Ordering::Relaxed) % n;
            if i == protect as usize {
                continue;
            }
            // try_lock: a reader holding the slot is by definition using
            // it — skip rather than stall the sweep.
            let Some(mut slot) = self.slots[i].try_lock() else {
                continue;
            };
            let Some(truss) = &*slot else { continue };
            if self.referenced[i].swap(false, Ordering::Relaxed) {
                continue;
            }
            if Arc::strong_count(truss) > 1 {
                continue;
            }
            let bytes = entry_bytes(truss);
            *slot = None;
            drop(slot);
            self.bytes_used.fetch_sub(bytes, Ordering::Relaxed);
            self.resident.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently resident.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// The accounted byte size an entry for `truss` would be charged —
    /// exposed so the model tests can reason about the budget envelope
    /// in the same units the ledger uses.
    #[doc(hidden)]
    pub fn accounted_bytes(truss: &TrussDecomposition) -> u64 {
        entry_bytes(truss)
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

    #[test]
    fn unbounded_cache_never_evicts() {
        let c = NodeCache::new(100, None);
        for id in 0..100u32 {
            c.insert(id, truss(id, 64));
        }
        let s = c.stats();
        assert_eq!(s.resident, 100);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.materialized_total, 100);
        assert!(s.bytes_used > 0);
    }

    #[test]
    fn budget_is_enforced_and_ledger_balances() {
        let one = entry_bytes(&truss(0, 64));
        // Room for about three entries.
        let c = NodeCache::new(100, Some(3 * one));
        for id in 0..50u32 {
            let pin = c.insert(id, truss(id, 64));
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
        let one = entry_bytes(&truss(0, 64));
        let c = NodeCache::new(10, Some(2 * one));
        let pin = c.insert(0, truss(0, 64)); // hold the Arc across inserts
        for id in 1..10u32 {
            drop(c.insert(id, truss(id, 64)));
        }
        // Node 0 was pinned the whole time: still resident, data intact.
        let again = c.get(0).expect("pinned entry must not be evicted");
        assert_eq!(*again, *pin);
        assert!(c.stats().evictions > 0, "others were evicted");
    }

    #[test]
    fn a_hit_since_the_hand_passed_buys_one_more_revolution() {
        // Distinct sizes, so the byte ledger names the resident set; the
        // budget holds the three largest, so each fourth entry evicts one.
        let sizes = [8, 16, 24, 32];
        let bytes = |id: usize| entry_bytes(&truss(id as u32, sizes[id]));
        let c = NodeCache::new(4, Some(bytes(1) + bytes(2) + bytes(3)));
        let insert = |id: usize| drop(c.insert(id as u32, truss(id as u32, sizes[id])));
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
        assert!(c.get(1).is_some());
        insert(0);
        check(&[0, 1, 3], "second sweep");
        // 1 has not been hit since; its second chance is spent. The hand
        // clears 3 (set since its insert) and 0, then evicts 1.
        insert(2);
        check(&[0, 2, 3], "third sweep");
        assert!(c.get(1).is_none() && c.get(0).is_some());
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn hits_and_misses_count() {
        let c = NodeCache::new(4, None);
        assert!(c.get(1).is_none());
        c.insert(1, truss(1, 4));
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn losing_the_insert_race_adopts_without_double_charge() {
        let c = NodeCache::new(4, None);
        let first = c.insert(1, truss(1, 8));
        let used = c.stats().bytes_used;
        let second = c.insert(1, truss(1, 8));
        assert_eq!(*first, *second);
        let s = c.stats();
        assert_eq!(s.bytes_used, used, "no double charge");
        assert_eq!(s.materialized_total, 1);
        assert_eq!(s.resident, 1);
    }

    #[test]
    fn hit_ratio_is_one_before_any_lookup() {
        let c = NodeCache::new(1, None);
        assert_eq!(c.stats().hit_ratio(), 1.0);
    }
}
