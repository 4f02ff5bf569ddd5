//! Model check: the `tc-store` node cache's byte ledger.
//!
//! Invariants, under every interleaving of two concurrent inserts into
//! a budgeted cache, and of a ladder-only entry's upgrade to a full one
//! racing another insert's clock sweep:
//!
//! * the ledger balances — `materialized_total − resident == evictions`;
//! * `bytes_used` is exactly the accounted bytes of the resident
//!   entries (no leaked or double-counted bytes);
//! * `bytes_used` never needs more than the budget plus one in-flight
//!   entry (the documented transient envelope: an insert accounts its
//!   entry before the clock sweep can evict, and the sweep skips slots
//!   that are locked or pinned by readers).
//!
//! Compiles only under `RUSTFLAGS="--cfg tc_check_model"`.
#![cfg(tc_check_model)]

use tc_core::{TrussDecomposition, TrussLevel};
use tc_model::{try_check_with, Config};
use tc_store::cache::{NodeCache, NodeEntry};
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
    let entry = NodeEntry::edges(truss(0, 4)).accounted_bytes();
    let report = try_check_with(Config::default(), move || {
        let cache = Arc::new(NodeCache::new(2, Some(entry)));
        let writers: Vec<_> = (0..2u32)
            .map(|id| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    // The returned pin drops before the thread exits, so
                    // the final sweep below is not blocked by this reader.
                    let pinned = cache.insert(id, NodeEntry::edges(truss(id, 4)));
                    let edges = pinned.truss().expect("a full entry holds its edges");
                    assert_eq!(edges.pattern, Pattern::singleton(Item(id)));
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
    let full = NodeEntry::edges(truss(0, 4)).accounted_bytes();
    let both = full + NodeEntry::counts(&truss(0, 4)).accounted_bytes();
    let report = try_check_with(Config::default(), move || {
        let cache = Arc::new(NodeCache::new(2, Some(full)));
        let upgrader = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                drop(cache.insert(0, NodeEntry::counts(&truss(0, 4))));
                let upgraded = cache.insert(0, NodeEntry::edges(truss(0, 4)));
                assert!(upgraded.truss().is_some(), "an edge insert yields edges");
            })
        };
        let sweeper = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || drop(cache.insert(1, NodeEntry::edges(truss(1, 4)))))
        };
        upgrader.join().expect("upgrader panicked");
        sweeper.join().expect("sweeper panicked");
        let stats = cache.stats();
        assert_eq!(
            stats.materialized_total - stats.resident as u64,
            stats.evictions,
            "ledger out of balance: {stats:?}"
        );
        // Every resident entry's accounted bytes, of one part or both, and
        // nothing else: an upgrade charged its difference exactly once.
        let resident: Vec<_> = (0..2).filter_map(|id| cache.peek(id)).collect();
        assert_eq!(resident.len(), stats.resident, "{stats:?}");
        let held: u64 = resident.iter().map(|e| e.accounted_bytes()).sum();
        assert_eq!(
            stats.bytes_used, held,
            "bytes_used does not match resident entries: {stats:?}"
        );
        assert!(
            stats.bytes_used <= full + both,
            "budget envelope exceeded (budget {full} + the largest entry {both}): {stats:?}"
        );
    })
    .unwrap_or_else(|failure| panic!("cache upgrade model check failed: {failure}"));
    assert!(report.schedules > 1);
}
