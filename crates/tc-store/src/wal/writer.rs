//! The append side of the WAL: sequence numbering, group commit, and the
//! open-time repair of a torn tail.
//!
//! ## Group commit
//!
//! An `append` under [`Durability::Always`] must not return until its
//! record is fsynced, but issuing one fsync per record would serialize the
//! write path at disk-flush latency. Instead appenders elect a *leader*:
//! the first waiter to find no sync in flight flips the `syncing` flag,
//! releases the state lock, and fsyncs everything written so far; every
//! record that landed in the file before the leader left the lock is
//! covered by that single flush, so concurrent appenders piled behind it
//! are all acked together when the leader publishes the new durable
//! watermark. The storage handle lives *outside* the state mutex so new
//! records keep appending to the file (and into the next batch) while the
//! flush runs.
//!
//! The state mutex and the `flushed` condvar come through the
//! [`tc_util::sync`] facade, so `tc-check` model-checks the leader
//! election under `--cfg tc_check_model`: no append acks before a sync
//! that covers its record has completed.

use std::time::{Duration, Instant};

use tc_util::sync::{Condvar, Mutex, MutexGuard};

use tc_util::LoadError;

use super::faults::WalStorage;
use super::reader::{scan_wal, WalScan};
use super::record::{encode_header, WalRecord};

/// When an `append` acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Every append waits for its record to be fsynced (group-committed
    /// with any concurrent appends) before returning.
    Always,
    /// Appends return as soon as the record is written to the file; an
    /// fsync is issued once `max_records` are pending or `max_delay` has
    /// passed since the last flush. Bounded data loss on crash.
    Batch {
        /// Pending-record count that triggers a flush.
        max_records: usize,
        /// Maximum age of an unflushed record before the next append
        /// triggers a flush.
        max_delay: Duration,
    },
}

#[derive(Debug)]
struct WalState {
    next_seqno: u64,
    /// Highest seqno written to the file (not necessarily durable).
    written: u64,
    /// Highest seqno covered by a successful sync.
    durable: u64,
    /// A leader is currently flushing outside the lock.
    syncing: bool,
    last_sync: Instant,
    appends: u64,
    syncs: u64,
    /// A storage write or sync failed; the log rejects further appends
    /// because the file tail is in an unknown state.
    poisoned: bool,
}

/// An open write-ahead log.
pub struct Wal {
    storage: Box<dyn WalStorage>,
    state: Mutex<WalState>,
    flushed: Condvar,
    durability: Durability,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("durability", &self.durability)
            .finish_non_exhaustive()
    }
}

fn poisoned_error() -> std::io::Error {
    std::io::Error::other("wal poisoned by an earlier storage failure")
}

impl Wal {
    /// Opens a log over `storage`, repairing a torn tail (truncating to
    /// the last valid record boundary, or rewriting an incomplete header)
    /// before returning. Mid-log damage surfaces as a typed error.
    ///
    /// Returns the log plus the [`WalScan`] describing what was found, so
    /// callers can replay the records and report the repair.
    pub fn open(
        storage: Box<dyn WalStorage>,
        durability: Durability,
    ) -> Result<(Wal, WalScan), LoadError> {
        let image = storage.read_all()?;
        let scan = scan_wal(&image)?;
        if scan.header_rewrite {
            storage.truncate(0)?;
            storage.append(&encode_header())?;
            storage.sync()?;
        } else if scan.torn_bytes > 0 {
            storage.truncate(scan.valid_len)?;
            storage.sync()?;
        }
        let last_seqno = scan.records.last().map(|(s, _)| *s).unwrap_or(0);
        let wal = Wal {
            storage,
            state: Mutex::new(WalState {
                next_seqno: last_seqno + 1,
                written: last_seqno,
                durable: last_seqno,
                syncing: false,
                last_sync: Instant::now(),
                appends: 0,
                syncs: 0,
                poisoned: false,
            }),
            flushed: Condvar::new(),
            durability,
        };
        Ok((wal, scan))
    }

    /// Appends one record, returning its sequence number. Under
    /// [`Durability::Always`] the record is durable when this returns;
    /// under [`Durability::Batch`] it is at least written to the file.
    pub fn append(&self, record: &WalRecord) -> std::io::Result<u64> {
        let seqno;
        {
            let mut state = self.lock();
            if state.poisoned {
                return Err(poisoned_error());
            }
            seqno = state.next_seqno;
            let frame = record.encode_frame(seqno)?;
            // The file append happens under the state lock so frames land
            // in seqno order; the expensive fsync never does.
            if let Err(e) = self.storage.append(&frame) {
                state.poisoned = true;
                self.flushed.notify_all();
                return Err(e);
            }
            state.next_seqno += 1;
            state.written = seqno;
            state.appends += 1;
        }
        match self.durability {
            Durability::Always => self.wait_durable(seqno)?,
            Durability::Batch {
                max_records,
                max_delay,
            } => {
                let should_flush = {
                    let state = self.lock();
                    !state.syncing
                        && ((state.written - state.durable) as usize >= max_records
                            || state.last_sync.elapsed() >= max_delay)
                };
                if should_flush {
                    self.sync_once()?;
                }
            }
        }
        Ok(seqno)
    }

    /// Blocks until everything appended so far is durable.
    pub fn flush(&self) -> std::io::Result<()> {
        let written = self.lock().written;
        if written == 0 {
            return Ok(());
        }
        self.wait_durable(written)
    }

    /// Group-commit wait: returns once `seqno` is covered by a sync,
    /// flushing ourselves if no leader is already doing it.
    fn wait_durable(&self, seqno: u64) -> std::io::Result<()> {
        let mut state = self.lock();
        loop {
            if state.durable >= seqno {
                return Ok(());
            }
            if state.poisoned {
                return Err(poisoned_error());
            }
            if !state.syncing {
                // Become the leader: flush everything written so far.
                state.syncing = true;
                let upto = state.written;
                drop(state);
                let result = self.storage.sync();
                state = self.lock();
                state.syncing = false;
                match result {
                    Ok(()) => {
                        state.durable = state.durable.max(upto);
                        state.syncs += 1;
                        state.last_sync = Instant::now();
                        self.flushed.notify_all();
                    }
                    Err(e) => {
                        state.poisoned = true;
                        self.flushed.notify_all();
                        return Err(e);
                    }
                }
            } else {
                state = self.flushed.wait(state);
            }
        }
    }

    /// One non-blocking-for-followers flush of the current tail (the
    /// batch-mode trigger path).
    fn sync_once(&self) -> std::io::Result<()> {
        let upto = {
            let mut state = self.lock();
            if state.poisoned {
                return Err(poisoned_error());
            }
            if state.syncing || state.written == state.durable {
                return Ok(());
            }
            state.syncing = true;
            state.written
        };
        let result = self.storage.sync();
        let mut state = self.lock();
        state.syncing = false;
        match result {
            Ok(()) => {
                state.durable = state.durable.max(upto);
                state.syncs += 1;
                state.last_sync = Instant::now();
                self.flushed.notify_all();
                Ok(())
            }
            Err(e) => {
                state.poisoned = true;
                self.flushed.notify_all();
                Err(e)
            }
        }
    }

    /// Resets the log after a checkpoint durably folded `folded` records
    /// into a base segment: truncates to an empty log whose first record
    /// is a [`WalRecord::Checkpoint`] marker.
    ///
    /// Crash-safe by ordering: this runs only after the new segment is
    /// renamed into place, and a crash mid-reset leaves either the old log
    /// (still a valid, now-redundant history) or a torn young log that
    /// open-time repair truncates back to the marker or to empty.
    pub fn reset_for_checkpoint(&self, folded: u64) -> std::io::Result<()> {
        let mut state = self.lock();
        if state.poisoned {
            return Err(poisoned_error());
        }
        self.storage.truncate(0)?;
        self.storage.append(&encode_header())?;
        let marker = WalRecord::Checkpoint { folded };
        self.storage.append(&marker.encode_frame(1)?)?;
        self.storage.sync()?;
        state.next_seqno = 2;
        state.written = 1;
        state.durable = 1;
        state.last_sync = Instant::now();
        Ok(())
    }

    fn lock(&self) -> MutexGuard<'_, WalState> {
        self.state.lock()
    }

    /// Records appended through this handle (not counting recovery).
    pub fn appended(&self) -> u64 {
        self.lock().appends
    }

    /// Highest sequence number covered by a successful sync.
    pub fn durable_seqno(&self) -> u64 {
        self.lock().durable
    }

    /// Syncs issued by this handle.
    pub fn sync_count(&self) -> u64 {
        self.lock().syncs
    }

    /// Current file length in bytes.
    pub fn len_bytes(&self) -> std::io::Result<u64> {
        self.storage.len()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort final flush for batch mode; errors are moot here.
        let pending = {
            let state = self.lock();
            !state.poisoned && state.written > state.durable
        };
        if pending {
            let _ = self.storage.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::faults::{FaultPlan, FaultWalStorage, MemWalStorage};
    use crate::wal::{FRAME_HEADER_LEN, WAL_HEADER_LEN};

    fn edge(i: u32) -> WalRecord {
        WalRecord::AddEdge { u: i, v: i + 1 }
    }

    #[test]
    fn append_assigns_monotonic_seqnos_and_survives_reopen() {
        let mem = MemWalStorage::new();
        let (wal, scan) = Wal::open(Box::new(mem.clone()), Durability::Always).unwrap();
        assert!(scan.records.is_empty());
        for i in 0..5 {
            assert_eq!(wal.append(&edge(i)).unwrap(), i as u64 + 1);
        }
        assert_eq!(wal.durable_seqno(), 5);
        drop(wal);
        let (wal, scan) = Wal::open(Box::new(mem), Durability::Always).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(
            wal.append(&edge(9)).unwrap(),
            6,
            "seqno continues after reopen"
        );
    }

    #[test]
    fn always_mode_is_durable_per_ack() {
        let storage = FaultWalStorage::new();
        let (wal, _) = Wal::open(Box::new(storage.clone()), Durability::Always).unwrap();
        wal.append(&edge(0)).unwrap();
        // The durable image alone must already contain the record.
        let scan = scan_wal(&storage.durable_image()).unwrap();
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn batch_mode_coalesces_syncs() {
        let storage = FaultWalStorage::new();
        let (wal, _) = Wal::open(
            Box::new(storage.clone()),
            Durability::Batch {
                max_records: 8,
                max_delay: Duration::from_secs(3600),
            },
        )
        .unwrap();
        let open_syncs = storage.sync_count();
        for i in 0..20 {
            wal.append(&edge(i)).unwrap();
        }
        // 20 appends with a batch of 8: flushes at the 8th and 16th.
        assert_eq!(storage.sync_count() - open_syncs, 2);
        assert_eq!(wal.durable_seqno(), 16);
        wal.flush().unwrap();
        assert_eq!(wal.durable_seqno(), 20);
        assert_eq!(storage.sync_count() - open_syncs, 3);
        // File-level size: the header plus one 9-byte AddEdge frame each.
        assert_eq!(
            wal.len_bytes().unwrap(),
            (WAL_HEADER_LEN + 20 * (FRAME_HEADER_LEN + 9)) as u64
        );
    }

    #[test]
    fn write_failure_poisons_the_log() {
        let storage = FaultWalStorage::with_plan(FaultPlan {
            // Write 1 is the header (fresh log); fail the second record.
            fail_write: Some(3),
            ..FaultPlan::default()
        });
        let (wal, _) = Wal::open(Box::new(storage.clone()), Durability::Always).unwrap();
        wal.append(&edge(0)).unwrap();
        assert!(wal.append(&edge(1)).is_err());
        let err = wal.append(&edge(2)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // The acked record is still durable and recoverable.
        let scan = scan_wal(&storage.durable_image()).unwrap();
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn sync_failure_poisons_the_log() {
        let storage = FaultWalStorage::with_plan(FaultPlan {
            // Sync 1 runs at open (fresh header); fail the first commit.
            fail_sync: Some(2),
            ..FaultPlan::default()
        });
        let (wal, _) = Wal::open(Box::new(storage.clone()), Durability::Always).unwrap();
        assert!(wal.append(&edge(0)).is_err());
        assert!(wal.flush().is_err());
    }

    #[test]
    fn torn_tail_is_truncated_at_open() {
        let mem = MemWalStorage::new();
        let (wal, _) = Wal::open(Box::new(mem.clone()), Durability::Always).unwrap();
        wal.append(&edge(0)).unwrap();
        wal.append(&edge(1)).unwrap();
        drop(wal);
        // Tear the final record.
        let mut image = mem.image();
        image.truncate(image.len() - 3);
        let torn = MemWalStorage::from_bytes(image);
        let (wal, scan) = Wal::open(Box::new(torn.clone()), Durability::Always).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, 22, "a 16+9 frame minus the last 3 bytes");
        // The file itself was repaired, and appends continue from seqno 2.
        assert_eq!(wal.append(&edge(7)).unwrap(), 2);
        drop(wal);
        let scan = scan_wal(&torn.image()).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn reset_for_checkpoint_leaves_marker_only() {
        let mem = MemWalStorage::new();
        let (wal, _) = Wal::open(Box::new(mem.clone()), Durability::Always).unwrap();
        for i in 0..4 {
            wal.append(&edge(i)).unwrap();
        }
        wal.reset_for_checkpoint(4).unwrap();
        let scan = scan_wal(&mem.image()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0], (1, WalRecord::Checkpoint { folded: 4 }));
        // Appends continue after the marker.
        assert_eq!(wal.append(&edge(0)).unwrap(), 2);
    }

    #[test]
    fn group_commit_batches_concurrent_appenders() {
        let storage = FaultWalStorage::with_plan(FaultPlan {
            sync_delay: Some(Duration::from_millis(5)),
            ..FaultPlan::default()
        });
        let (wal, _) = Wal::open(Box::new(storage.clone()), Durability::Always).unwrap();
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        wal.append(&edge((t * per_thread + i) as u32)).unwrap();
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        assert_eq!(wal.appended(), total);
        assert_eq!(wal.durable_seqno(), total);
        // Group commit must have coalesced: strictly fewer syncs than
        // appends (each 5ms sync covers every record that lands behind
        // the leader).
        assert!(
            wal.sync_count() < total,
            "{} syncs for {total} appends — no batching",
            wal.sync_count()
        );
        let scan = scan_wal(&storage.durable_image()).unwrap();
        assert_eq!(scan.records.len(), total as usize);
    }
}
