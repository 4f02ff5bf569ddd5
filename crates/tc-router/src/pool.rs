//! Per-shard connection pools over the tc-serve line protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tc_serve::{ClientError, Histogram, QueryResponse, ServeClient};
use tc_util::sync::Mutex;

/// Idle connections kept per shard; extras are closed on check-in.
const MAX_IDLE: usize = 8;

/// One shard's fan-out telemetry. It outlives a pool: a reload hands it
/// to the new layout's pool for the same shard id, so the `/metrics`
/// counters of a shard the new map keeps never go back to zero.
#[derive(Default)]
pub(crate) struct ShardTally {
    /// RPCs attempted against this shard.
    pub fanout: AtomicU64,
    /// RPCs that failed at the transport layer (connect/read/write,
    /// admission BUSY, protocol skew) — query-level `ERR` answers are
    /// the *request's* fault and are not counted here.
    pub errors: AtomicU64,
    /// From this shard's send to its answer fully read, connect included.
    /// A scatter reads answers in shard order, so time spent reading the
    /// shards before this one is in here too.
    pub latency: Histogram,
}

/// A lazy pool of line-protocol clients for one shard daemon (opened on
/// demand: a shard that boots after the router still works), plus that
/// shard's [`ShardTally`]. An RPC is [`ShardPool::send`] then
/// [`ShardPool::receive`], so a scatter can put its request on every
/// shard before it waits on any, under two invariants:
///
/// * **I1** — a request written to a connection is read to its last line
///   or the connection is dropped: [`Sent`] owns it from the write on and
///   only `receive`, holding a whole answer, checks one in — a pooled
///   connection never holds somebody else's answer.
/// * **I2** — a reused connection proves nothing about the shard: the
///   daemon may have idled the session out, leaving a dead socket or its
///   parting `ERR session idle timeout` line to read as this request's
///   answer. Every verb is an idempotent read, so a *pooled* connection
///   failing at send or receive is dropped and the shard asked once more
///   on a fresh one; only that attempt's transport failure counts in
///   [`ShardTally::errors`] and marks the shard down for this request.
pub(crate) struct ShardPool {
    /// The shard's id — its index in the shard map.
    pub id: u32,
    /// `host:port` of the shard daemon.
    pub addr: String,
    idle: Mutex<Vec<ServeClient>>,
    /// This shard's telemetry, shared with the pools reloads put in this
    /// one's place.
    pub tally: Arc<ShardTally>,
}

/// One request in flight to a shard: written (or failed on a fresh
/// connection), not yet answered. Dropping it drops the connection (I1).
pub(crate) struct Sent {
    started: Instant,
    /// The connection the request went out on, and whether it came from
    /// the pool.
    conn: Result<(ServeClient, bool), ClientError>,
}

impl ShardPool {
    pub fn new(id: u32, addr: String, tally: Arc<ShardTally>) -> ShardPool {
        ShardPool {
            id,
            addr,
            idle: Mutex::new(Vec::new()),
            tally,
        }
    }

    /// Writes `line` (one encoded, `\n`-terminated query) to a pooled
    /// connection, or to a fresh one when none is idle or the write fails.
    pub fn send(&self, line: &str) -> Sent {
        self.tally.fanout.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let pooled = self.idle.lock().pop();
        let pooled = pooled.and_then(|mut c| c.send_line(line).is_ok().then_some(c));
        let conn = match pooled {
            Some(client) => Ok((client, true)),
            None => self.send_fresh(line).map(|client| (client, false)),
        };
        Sent { started, conn }
    }

    fn send_fresh(&self, line: &str) -> Result<ServeClient, ClientError> {
        let mut client = ServeClient::connect(&self.addr)?;
        client.send_line(line)?;
        Ok(client)
    }

    /// Reads the answer to `sent` (which carried `line`) and checks the
    /// connection in.
    pub fn receive(&self, sent: Sent, line: &str) -> Result<QueryResponse, ClientError> {
        let result = sent.conn.and_then(|(mut client, pooled)| {
            let mut result = client.recv_query();
            if pooled && result.is_err() {
                client = self.send_fresh(line)?; // I2; drops the stale one
                result = client.recv_query();
            }
            // A `Remote` error is an answered request on a healthy socket;
            // anything else leaves the connection in an unknown state.
            if matches!(result, Ok(_) | Err(ClientError::Remote(_))) {
                let mut idle = self.idle.lock();
                if idle.len() < MAX_IDLE {
                    idle.push(client);
                }
            }
            result
        });
        self.tally
            .latency
            .observe(sent.started.elapsed().as_secs_f64());
        if !matches!(result, Ok(_) | Err(ClientError::Remote(_))) {
            self.tally.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}
