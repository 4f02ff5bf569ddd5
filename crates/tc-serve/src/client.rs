//! A blocking client for the [`crate::protocol`] — the library behind
//! `tc query --remote`, `tc-router`'s shard pools, and the `bench/` load
//! generator.
//!
//! One [`ServeClient`] owns one TCP session: responses are parsed into
//! the same shapes the server encodes, and a `BUSY` greeting surfaces as
//! [`ClientError::Busy`] so callers can implement retry/backoff without
//! string matching. A query is two steps — [`ServeClient::send_line`],
//! then [`ServeClient::recv_query`] — which [`ServeClient::qba`] and its
//! siblings run back to back; a caller with several sessions (the
//! router's scatter) sends on all of them before it waits on any.

use crate::protocol::{
    parse_greeting, push_qba, push_qbp, push_query, Greeting, QueryResponse, Request,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side failures, split by who caused them.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write).
    Io(std::io::Error),
    /// The server rejected the connection under admission control.
    Busy(String),
    /// The server answered, but not in the protocol this client speaks.
    Protocol(String),
    /// The server reported a request-level error (`ERR …`).
    Remote(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Busy(r) => write!(f, "server busy: {r}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// `true` when the failure is an admission-control rejection — the
    /// retryable case.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy(_))
    }
}

/// The most a row count in a response header reserves up front: the count
/// is the peer's claim, so rows past this grow the vector by `push`.
const RESERVE_CAP: usize = 1 << 10;

/// A remote query answer (the wire form plus nothing else — item-name
/// rendering is the caller's job, exactly as with a local query).
pub type RemoteResult = QueryResponse;

/// Bounded retry with exponential backoff for the retryable
/// [`ClientError::Busy`] rejection.
///
/// Attempt `k` (0-based) sleeps `base_delay · 2^k`, capped at
/// `max_delay`, then jittered down into `[half, full]` so a burst of
/// rejected clients does not reconverge on the server in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = fail fast on `BUSY`).
    pub retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (0-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.max_delay);
        exp.mul_f64(0.5 + 0.5 * jitter_fraction(attempt))
    }
}

/// A cheap source of per-attempt noise in `[0, 1)`: hashes the attempt
/// number under `RandomState`'s per-process random keys. Not
/// cryptographic — it only needs to decorrelate concurrent processes.
fn jitter_fraction(attempt: u32) -> f64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut h = RandomState::new().build_hasher();
    h.write_u32(attempt);
    (h.finish() % 1024) as f64 / 1024.0
}

/// One blocking protocol session.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    /// The one line buffer: a request while it is encoded and written,
    /// then each response line in turn.
    line: String,
    nodes: usize,
    alpha_star: f64,
    version: u32,
}

impl ServeClient {
    /// Connects to `addr` (`host:port`) and reads the greeting.
    ///
    /// A `BUSY` greeting returns [`ClientError::Busy`]; any non-protocol
    /// payload on the port returns [`ClientError::Protocol`].
    pub fn connect(addr: &str) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A daemon that stops mid-handshake must not hang the client. The
        // timeout guards the greeting only: it is cleared once admitted,
        // because a legitimately expensive query (cold full-tree QBA on a
        // big segment) may take arbitrarily long server-side.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection before greeting".into(),
            ));
        }
        reader.get_ref().set_read_timeout(None)?;
        match parse_greeting(&line).map_err(ClientError::Protocol)? {
            Greeting::Admitted {
                version,
                nodes,
                alpha_star,
            } => Ok(ServeClient {
                reader,
                line,
                nodes,
                alpha_star,
                version,
            }),
            Greeting::Busy { reason, .. } => Err(ClientError::Busy(reason)),
        }
    }

    /// Like [`ServeClient::connect`], but retries `BUSY` rejections per
    /// `policy`. Only admission-control rejections are retried — I/O and
    /// protocol errors fail immediately, and the final `BUSY` is returned
    /// once the budget is exhausted.
    pub fn connect_with_retry(
        addr: &str,
        policy: &RetryPolicy,
    ) -> Result<ServeClient, ClientError> {
        let mut attempt = 0u32;
        loop {
            match ServeClient::connect(addr) {
                Err(e) if e.is_busy() && attempt < policy.retries => {
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Protocol version the server greeted with.
    pub fn server_version(&self) -> u32 {
        self.version
    }

    /// `num_nodes()` of the served tree, from the greeting.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// `alpha_upper_bound()` of the served tree, from the greeting.
    pub fn alpha_star(&self) -> f64 {
        self.alpha_star
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let mut line = req.encode();
        line.push('\n');
        self.send_line(&line)
    }

    /// Writes one encoded, `\n`-terminated request line and returns
    /// without waiting for the answer. The server answers in request
    /// order, so several lines may be written before the first
    /// [`ServeClient::recv_query`]; a session with a line written and its
    /// answer not read to the end must be dropped, never reused.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.reader.get_ref().write_all(line.as_bytes())?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<&str, ClientError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection mid-response".into(),
            ));
        }
        Ok(&self.line)
    }

    /// Reads the answer to the oldest `QBA` / `QBP` / `QUERY` line sent
    /// and not yet answered, to its last line.
    pub fn recv_query(&mut self) -> Result<RemoteResult, ClientError> {
        let header = self.read_line()?;
        let (count, visited, elapsed_secs) = QueryResponse::parse_tab_header(header)
            .map_err(|m| classify_header_error(header, m))?;
        let mut trusses = Vec::with_capacity(count.min(RESERVE_CAP));
        for _ in 0..count {
            let line = self.read_line()?;
            trusses.push(QueryResponse::parse_tab_truss(line).map_err(ClientError::Protocol)?);
        }
        Ok(QueryResponse {
            retrieved: count,
            visited,
            elapsed_secs,
            trusses,
        })
    }

    /// Sends the request `encode` appends to the line buffer, then
    /// receives its answer.
    fn roundtrip_query(
        &mut self,
        encode: impl FnOnce(&mut String),
    ) -> Result<RemoteResult, ClientError> {
        self.line.clear();
        encode(&mut self.line);
        self.line.push('\n');
        self.reader.get_ref().write_all(self.line.as_bytes())?;
        self.recv_query()
    }

    /// Query-by-alpha: `QBA <alpha>`.
    pub fn qba(&mut self, alpha: f64) -> Result<RemoteResult, ClientError> {
        self.roundtrip_query(|line| push_qba(line, alpha))
    }

    /// Query-by-pattern: `QBP <items>`.
    pub fn qbp(&mut self, items: &[u32]) -> Result<RemoteResult, ClientError> {
        self.roundtrip_query(|line| push_qbp(line, items))
    }

    /// The general query: `QUERY <items> <alpha>`.
    pub fn query(&mut self, items: &[u32], alpha: f64) -> Result<RemoteResult, ClientError> {
        self.roundtrip_query(|line| push_query(line, items, alpha))
    }

    /// Server counters: `STATS`, as ordered `(key, value)` rows.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        self.send(&Request::Stats { json: false })?;
        let header = self.read_line()?;
        let fields: Vec<&str> = header.trim_end().split('\t').collect();
        let count: usize = match fields.as_slice() {
            ["OK", n] => n
                .parse()
                .map_err(|_| ClientError::Protocol(format!("bad stats count '{n}'")))?,
            _ => return Err(classify_header_error(header, String::new())),
        };
        let mut rows = Vec::with_capacity(count.min(RESERVE_CAP));
        for _ in 0..count {
            let line = self.read_line()?;
            let (k, v) = line
                .trim_end()
                .split_once('\t')
                .ok_or_else(|| ClientError::Protocol(format!("bad stats row '{line}'")))?;
            let v: u64 = v
                .parse()
                .map_err(|_| ClientError::Protocol(format!("bad stats value '{line}'")))?;
            rows.push((k.to_string(), v));
        }
        Ok(rows)
    }

    /// Ends the session politely (`QUIT`, await `BYE`). Dropping the
    /// client without calling this is also fine — the server treats EOF
    /// as QUIT.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.send(&Request::Quit)?;
        self.expect_bye()
    }

    /// Asks the daemon to stop (`SHUTDOWN`, await `BYE`).
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        self.expect_bye()
    }

    fn expect_bye(&mut self) -> Result<(), ClientError> {
        let line = self.read_line()?;
        if line.trim_end() == "BYE" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "expected BYE, got '{}'",
                line.trim_end()
            )))
        }
    }
}

/// Distinguishes a server-reported `ERR` from a malformed frame.
fn classify_header_error(header: &str, parse_msg: String) -> ClientError {
    match header.trim_end().strip_prefix("ERR\t") {
        Some(msg) => ClientError::Remote(format!("server error: {msg}")),
        None if parse_msg.starts_with("server error") => ClientError::Remote(parse_msg),
        None => ClientError::Protocol(if parse_msg.is_empty() {
            format!("malformed response header '{}'", header.trim_end())
        } else {
            parse_msg
        }),
    }
}
