//! Model check: the `tc-store` node cache's byte ledger.
//!
//! Invariants, under every interleaving of two concurrent inserts into
//! a budgeted cache, of an entry of counts' upgrade to one of edges
//! racing another insert's clock sweep, and of two first inserts into one
//! block no insert reached yet racing a third thread's sweep:
//!
//! * the ledger balances — `materialized_total − resident == evictions`;
//! * `bytes_used` is exactly the accounted bytes of the resident
//!   entries (no leaked or double-counted bytes);
//! * `bytes_used` never needs more than the budget plus one in-flight
//!   entry (the documented transient envelope: an insert accounts its
//!   entry before the clock sweep can evict, and the sweep skips slots
//!   that are locked or pinned by readers);
//! * a block's slots are published once: no entry is lost to a second
//!   commit of its block or charged twice, and a lookup in another block
//!   never waits on the commit, nor does the sweep.
//!
//! Compiles only under `RUSTFLAGS="--cfg tc_check_model"`.
#![cfg(tc_check_model)]

use tc_core::{TrussDecomposition, TrussLevel};
use tc_model::{try_check_with, Config};
use tc_store::cache::{NodeCache, NodeEntry, BLOCK};
use tc_txdb::{Item, Pattern};
use tc_util::sync::{thread, Arc};

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
fn ledger_balances_and_stays_inside_the_transient_envelope() {
    // Both entries are the same size, and the budget admits exactly one.
    let entry = NodeEntry::edges(&truss(0, 4)).accounted_bytes();
    let report = try_check_with(Config::default(), move || {
        let cache = Arc::new(NodeCache::new(2, Some(entry)));
        let writers: Vec<_> = (0..2u32)
            .map(|id| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    // The returned pin drops before the thread exits, so
                    // the final sweep below is not blocked by this reader.
                    let pinned = cache.insert(id, NodeEntry::edges(&truss(id, 4)));
                    let edges = pinned.flat().expect("an entry of edges holds them");
                    assert_eq!(edges.pattern(), &Pattern::singleton(Item(id)));
                })
            })
            .collect();
        for handle in writers {
            handle.join().expect("cache writer panicked");
        }
        let stats = cache.stats();
        assert_eq!(
            stats.materialized_total - stats.resident as u64,
            stats.evictions,
            "ledger out of balance: {stats:?}"
        );
        assert_eq!(
            stats.bytes_used,
            stats.resident as u64 * entry,
            "bytes_used does not match resident entries: {stats:?}"
        );
        assert!(
            stats.bytes_used <= entry + entry,
            "budget envelope exceeded (budget {} + one entry {}): {stats:?}",
            entry,
            entry
        );
    })
    .unwrap_or_else(|failure| panic!("cache model check failed: {failure}"));
    assert!(report.schedules > 1);
}

#[test]
fn an_upgrade_racing_the_sweep_charges_once_and_balances() {
    // Node 0 is inserted counts-only and then upgraded to its edges while
    // node 1's insert sweeps; the budget admits one entry of edges.
    let full = NodeEntry::edges(&truss(0, 4)).accounted_bytes();
    let report = try_check_with(Config::default(), move || {
        let cache = Arc::new(NodeCache::new(2, Some(full)));
        let upgrader = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                drop(cache.insert(0, NodeEntry::counts(&truss(0, 4))));
                let upgraded = cache.insert(0, NodeEntry::edges(&truss(0, 4)));
                assert!(upgraded.flat().is_some(), "an edge insert yields edges");
            })
        };
        let sweeper = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || drop(cache.insert(1, NodeEntry::edges(&truss(1, 4)))))
        };
        upgrader.join().expect("upgrader panicked");
        sweeper.join().expect("sweeper panicked");
        let stats = cache.stats();
        assert_eq!(
            stats.materialized_total - stats.resident as u64,
            stats.evictions,
            "ledger out of balance: {stats:?}"
        );
        // Every resident entry's accounted bytes, of counts or edges, and
        // nothing else: an upgrade charged its difference exactly once.
        let resident: Vec<_> = (0..2).filter_map(|id| cache.peek(id)).collect();
        assert_eq!(resident.len(), stats.resident, "{stats:?}");
        let held: u64 = resident.iter().map(|e| e.accounted_bytes()).sum();
        assert_eq!(
            stats.bytes_used, held,
            "bytes_used does not match resident entries: {stats:?}"
        );
        assert!(
            stats.bytes_used <= full + full,
            "budget envelope exceeded (budget {full} + the largest entry {full}): {stats:?}"
        );
    })
    .unwrap_or_else(|failure| panic!("cache upgrade model check failed: {failure}"));
    assert!(report.schedules > 1);
}

#[test]
fn first_inserts_into_a_block_publish_it_once_while_a_sweep_runs() {
    // Three blocks: node 0 makes the first resident; two threads then make
    // the first inserts into the second block while a third sweeps and
    // looks up the third, which no insert reaches. The budget admits two
    // entries, so some sweep must evict one of the three.
    let entry = NodeEntry::edges(&truss(0, 4)).accounted_bytes();
    let (first, unreached) = (BLOCK as u32, 2 * BLOCK as u32);
    let report = try_check_with(Config::default(), move || {
        let cache = Arc::new(NodeCache::new(3 * BLOCK, Some(2 * entry)));
        drop(cache.insert(0, NodeEntry::edges(&truss(0, 4))));
        let writers: Vec<_> = [first, first + 1]
            .into_iter()
            .map(|id| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || drop(cache.insert(id, NodeEntry::edges(&truss(id, 4)))))
            })
            .collect();
        let sweeper = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let waits = tc_model::thread::lock_waits();
                cache.trim();
                assert!(cache.get(unreached, false).is_none());
                assert!(cache.peek(unreached + 1).is_none());
                assert_eq!(
                    tc_model::thread::lock_waits(),
                    waits,
                    "a sweep or a lookup in another block waited on a lock"
                );
            })
        };
        for handle in writers {
            handle.join().expect("cache writer panicked");
        }
        sweeper.join().expect("sweeper panicked");
        let stats = cache.stats();
        assert_eq!(
            stats.materialized_total, 3,
            "an entry charged twice: {stats:?}"
        );
        assert_eq!(
            stats.materialized_total - stats.resident as u64,
            stats.evictions,
            "ledger out of balance: {stats:?}"
        );
        // Every entry not evicted is in its slot: a block committed twice
        // would have lost the entries of the commit that lost.
        let resident: Vec<_> = [0, first, first + 1]
            .into_iter()
            .filter_map(|id| cache.peek(id))
            .collect();
        assert_eq!(
            resident.len(),
            stats.resident,
            "an entry was lost: {stats:?}"
        );
        assert_eq!(
            stats.bytes_used,
            resident.len() as u64 * entry,
            "bytes_used does not match resident entries: {stats:?}"
        );
        assert!(
            stats.bytes_used <= 3 * entry,
            "budget envelope exceeded (budget {} + one entry {entry}): {stats:?}",
            2 * entry
        );
        assert_eq!(
            cache.committed_blocks(),
            2,
            "the unreached block was committed"
        );
        assert_eq!(stats.misses, 1, "{stats:?}");
    })
    .unwrap_or_else(|failure| panic!("cache block model check failed: {failure}"));
    assert!(report.schedules > 1);
}
