//! Durability experiment: WAL append throughput per fsync policy, group
//! commit under concurrent appenders, and recovery/checkpoint latency.
//!
//! This is the only timing of the write path in the repository: the
//! whole-chain benchmark under `bench/` leaves the WAL out because it is
//! fsync-bound. Nothing gates these numbers — the tables are printed for
//! a human to read, on the storage they were run on.
//!
//! All sections run against real files in a scratch directory — the point
//! is the actual `write + fsync` path `tc ingest` rides, not an in-memory
//! simulation. Sections:
//!
//! * **append** — N `AddEdge` records appended under each durability
//!   policy: `always` (one fsync per acked record), `batch8`/`batch64`
//!   (group commit at a record/delay threshold), and `end` (no syncs
//!   until a final `flush`). Reported per policy: records/s and syncs
//!   issued. Throughput is fsync-bound and varies ~100× across storage
//!   hardware.
//! * **group commit** — 4 threads share one `always`-mode log; the
//!   leader/follower protocol must coalesce their acks into far fewer
//!   than N fsyncs.
//! * **recovery** — scan + replay time for logs of increasing length,
//!   plus the `checkpoint` fold (open, fold into a fresh segment, reset
//!   the log) on the longest one.

use std::path::Path;
use std::time::Duration;

use tc_bench::{fmt_count, fmt_secs, BenchArgs, Table};
use tc_store::wal::{checkpoint, WalStore};
use tc_store::{Durability, WalRecord};
use tc_util::Stopwatch;

/// Appender threads in the group-commit section.
const GROUP_THREADS: usize = 4;

/// The `i`-th benchmark record: an edge walk over a 64-vertex clique,
/// never a self-loop, deterministic byte-for-byte.
fn record(i: usize) -> WalRecord {
    let u = (i % 64) as u32;
    let v = 64 + (i / 64 % 64) as u32;
    WalRecord::AddEdge { u, v }
}

fn open_fresh(dir: &Path, name: &str, durability: Durability) -> (WalStore, std::path::PathBuf) {
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    let store = WalStore::open(None, &path, durability).expect("open fresh wal");
    (store, path)
}

fn main() {
    let args = BenchArgs::from_env();
    let n = if args.quick { 400 } else { 2000 };
    let recovery_lens: &[usize] = if args.quick {
        &[200, 1000]
    } else {
        &[1000, 5000]
    };

    let scratch = std::env::temp_dir().join(format!("tc_durability_bench_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    println!("# durability_bench — WAL append/fsync policies and crash recovery ({n} records)");

    // ---- Append throughput per fsync policy ----------------------------
    let policies: [(&str, Durability); 4] = [
        ("always", Durability::Always),
        (
            "batch8",
            Durability::Batch {
                max_records: 8,
                max_delay: Duration::from_millis(5),
            },
        ),
        (
            "batch64",
            Durability::Batch {
                max_records: 64,
                max_delay: Duration::from_millis(50),
            },
        ),
        // Nothing syncs until the final flush — the upper bound on
        // append throughput this storage offers.
        (
            "end",
            Durability::Batch {
                max_records: usize::MAX,
                max_delay: Duration::from_secs(3600),
            },
        ),
    ];
    let mut table = Table::new(
        format!("WAL append throughput ({n} AddEdge records, real files)"),
        &["Policy", "records/s", "fsyncs", "file size"],
    );
    for (name, durability) in policies {
        let (store, path) = open_fresh(&scratch, &format!("append_{name}.wal"), durability);
        let sw = Stopwatch::start();
        for i in 0..n {
            store.append(&record(i)).expect("append");
        }
        store.flush().expect("final flush");
        let secs = sw.elapsed_secs();
        let per_sec = n as f64 / secs;
        let syncs = store.wal().sync_count();
        let bytes = store.wal().len_bytes().expect("wal length");
        assert_eq!(store.wal().durable_seqno(), n as u64, "all records durable");
        drop(store);

        table.push_row(vec![
            name.into(),
            format!("{per_sec:.0}"),
            syncs.to_string(),
            fmt_count(bytes as usize),
        ]);
        std::fs::remove_file(&path).ok();
    }
    table.print();

    // ---- Group commit: concurrent appenders share fsyncs ---------------
    let (store, path) = open_fresh(&scratch, "group.wal", Durability::Always);
    let per_thread = n / GROUP_THREADS;
    let sw = Stopwatch::start();
    std::thread::scope(|scope| {
        for t in 0..GROUP_THREADS {
            let store = &store;
            scope.spawn(move || {
                for i in 0..per_thread {
                    store.append(&record(t * per_thread + i)).expect("append");
                }
            });
        }
    });
    let secs = sw.elapsed_secs();
    let total = (per_thread * GROUP_THREADS) as u64;
    let group_per_sec = total as f64 / secs;
    let group_syncs = store.wal().sync_count();
    assert_eq!(store.wal().durable_seqno(), total);
    assert!(
        group_syncs <= total,
        "group commit must never fsync more than once per record"
    );
    drop(store);
    std::fs::remove_file(&path).ok();
    println!(
        "\ngroup commit: {GROUP_THREADS} threads, {} records/s, {} fsyncs for {} acked records",
        group_per_sec as u64,
        fmt_count(group_syncs as usize),
        fmt_count(total as usize)
    );

    // ---- Recovery time vs log length, and the checkpoint fold ----------
    let mut table = Table::new(
        "Recovery and checkpoint",
        &["Log records", "recover", "checkpoint"],
    );
    for (pos, &len) in recovery_lens.iter().enumerate() {
        let (store, path) = open_fresh(
            &scratch,
            &format!("recover_{len}.wal"),
            Durability::Batch {
                max_records: usize::MAX,
                max_delay: Duration::from_secs(3600),
            },
        );
        for i in 0..len {
            store.append(&record(i)).expect("append");
        }
        store.flush().expect("flush");
        drop(store);

        let sw = Stopwatch::start();
        let store = WalStore::open(None, &path, Durability::Always).expect("recover");
        let recover_secs = sw.elapsed_secs();
        assert_eq!(store.recovered_records(), len);
        assert_eq!(store.truncated_bytes(), 0);
        drop(store);

        // Checkpoint the longest log only — one fold datapoint is enough.
        let checkpoint_cell = if pos == recovery_lens.len() - 1 {
            let out = scratch.join("checkpoint.seg");
            let sw = Stopwatch::start();
            let report = checkpoint(None, &path, &out).expect("checkpoint");
            let fold_secs = sw.elapsed_secs();
            assert_eq!(report.folded_records, len as u64);
            let reopened = WalStore::open(Some(&out), &path, Durability::Always)
                .expect("reopen after checkpoint");
            assert_eq!(reopened.recovered_records(), 1, "marker-only log");
            drop(reopened);
            std::fs::remove_file(&out).ok();
            fmt_secs(fold_secs)
        } else {
            "—".into()
        };
        table.push_row(vec![
            fmt_count(len),
            fmt_secs(recover_secs),
            checkpoint_cell,
        ]);
        std::fs::remove_file(&path).ok();
    }
    table.print();

    std::fs::remove_dir_all(&scratch).ok();
}
