//! Per-shard connection pools over the tc-serve line protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tc_serve::{ClientError, Histogram, ServeClient};
use tc_util::sync::Mutex;

/// Idle connections kept per shard; extras are closed on check-in.
const MAX_IDLE: usize = 8;

/// A lazy pool of line-protocol clients for one shard daemon, plus that
/// shard's fan-out telemetry. Connections are opened on demand (a shard
/// that boots after the router still works) and returned after a clean
/// round-trip; an error on a reused connection discards it and retries
/// once on a fresh one, and a transport error on a fresh connection marks
/// the shard down for this request.
pub(crate) struct ShardPool {
    /// The shard's id — its index in the shard map.
    pub id: u32,
    /// `host:port` of the shard daemon.
    pub addr: String,
    idle: Mutex<Vec<ServeClient>>,
    /// RPCs attempted against this shard.
    pub fanout: AtomicU64,
    /// RPCs that failed at the transport layer (connect/read/write,
    /// admission BUSY, protocol skew) — query-level `ERR` answers are
    /// the *request's* fault and are not counted here.
    pub errors: AtomicU64,
    /// Round-trip latency to this shard, connect included.
    pub latency: Histogram,
}

impl ShardPool {
    pub fn new(id: u32, addr: String) -> ShardPool {
        ShardPool {
            id,
            addr,
            idle: Mutex::new(Vec::new()),
            fanout: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::default(),
        }
    }

    /// Runs one RPC against this shard on a pooled (or fresh) connection.
    pub fn run<T>(
        &self,
        f: impl Fn(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.fanout.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let result = self.run_inner(&f);
        self.latency.observe(started.elapsed().as_secs_f64());
        if !matches!(result, Ok(_) | Err(ClientError::Remote(_))) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn run_inner<T>(
        &self,
        f: &impl Fn(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let pooled = self.idle.lock().pop();
        if let Some(mut client) = pooled {
            if let Ok(answer) = f(&mut client) {
                self.check_in(client);
                return Ok(answer);
            }
            // A reused connection proves nothing about the shard: the
            // daemon may have idled the session out, leaving a dead socket
            // — or its parting `ERR session idle timeout` line, which
            // would read as this request's answer. Every verb is an
            // idempotent read, so drop the connection and ask again on a
            // fresh one; only that attempt's failure is the shard's.
        }
        let mut client = ServeClient::connect(&self.addr)?;
        let result = f(&mut client);
        // A `Remote` error is an answered request on a healthy socket;
        // anything else leaves the connection in an unknown state.
        if matches!(result, Ok(_) | Err(ClientError::Remote(_))) {
            self.check_in(client);
        }
        result
    }

    fn check_in(&self, client: ServeClient) {
        let mut idle = self.idle.lock();
        if idle.len() < MAX_IDLE {
            idle.push(client);
        }
    }
}
