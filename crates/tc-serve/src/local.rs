//! The `tc serve` daemon: the shared front end ([`crate::server`]) over a
//! [`LocalTree`] backend — one hot-swappable [`SegmentTcTree`] — speaking
//! the line protocol ([`crate::protocol`]) over TCP and, when configured,
//! the HTTP/JSON gateway ([`crate::http`]) beside it.

use crate::backend::{Answer, Backend, QuerySpec};
use crate::limit::RateLimit;
use crate::metrics::Metrics;
use crate::protocol::{
    encode_error, encode_greeting_busy, encode_greeting_ok, encode_stats, QueryResponse, Request,
    TrussSummary,
};
use crate::reload::TreeSlot;
use crate::server::{
    idle_timeout_error, Admission, Core, FrontEnd, Handle, ReadStop, Slot, TickReader, Wire,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;
use tc_store::{SegmentTcTree, StoreOptions};
use tc_txdb::{Item, Pattern};
use tc_util::sync::Arc;
use tc_util::LoadError;

/// Server configuration. `Default` matches the `tc serve` CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving admitted sessions (both front-ends share
    /// the pool).
    pub workers: usize,
    /// Maximum admitted-but-unfinished sessions (queued + in service);
    /// connections beyond it are greeted `BUSY` / `503` and closed.
    pub max_inflight: usize,
    /// How long a session may sit without completing a request line
    /// before it is closed and its admission slot freed. A hung or
    /// half-dead client would otherwise hold one of `max_inflight` slots
    /// forever. `None` disables the timeout.
    pub idle_timeout: Option<Duration>,
    /// Also serve the HTTP/JSON gateway on this address (e.g.
    /// `127.0.0.1:8080`; port `0` picks an ephemeral port — read it back
    /// with [`Server::local_http_addr`]). `None` serves TCP only.
    pub http_addr: Option<String>,
    /// Per-client token-bucket rate limit, layered on the global
    /// inflight bound: one token per TCP connection or HTTP request,
    /// keyed by peer IP. `None` disables the limiter.
    pub rate_limit: Option<RateLimit>,
    /// Where `SIGHUP` / [`ServerHandle::reload`] re-open the segment
    /// from. `None` disables path-based reloads (handle-driven
    /// [`ServerHandle::swap_tree`] still works).
    pub reload_path: Option<PathBuf>,
    /// How the segment is opened — the node-cache byte budget. Applied on
    /// every reload too, so a `--cache-bytes` envelope survives `SIGHUP`
    /// swaps.
    pub store: StoreOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_inflight: 64,
            idle_timeout: Some(Duration::from_secs(300)),
            http_addr: None,
            rate_limit: None,
            reload_path: None,
            store: StoreOptions::default(),
        }
    }
}

/// The local backend: queries walk one hot-swappable [`SegmentTcTree`].
pub struct LocalTree {
    tree: TreeSlot,
    reload_path: Option<PathBuf>,
    store: StoreOptions,
}

impl Backend for LocalTree {
    const NAME: &'static str = "tc-serve";

    /// One snapshot per request: a hot reload landing mid-request never
    /// mixes old and new segments in one answer.
    type Snapshot = Arc<SegmentTcTree>;

    /// The new segment's node count.
    type Reloaded = usize;

    fn snapshot(&self) -> Arc<SegmentTcTree> {
        self.tree.load()
    }

    fn answer(&self, tree: &Arc<SegmentTcTree>, spec: &QuerySpec) -> Answer {
        match answer(tree, spec) {
            Ok(resp) => Answer::Ok(resp, Vec::new()),
            // A failed query (segment corruption discovered lazily) is an
            // error to this client, not a daemon crash.
            Err(e) => Answer::Err(500, e.to_string()),
        }
    }

    fn healthz(&self, tree: &Arc<SegmentTcTree>) -> String {
        format!(
            "{{\"status\":\"ok\",\"nodes\":{},\"materialized\":{},\"cache_bytes_used\":{},\"alpha_star\":{}}}\n",
            tree.num_nodes(),
            tree.materialized_nodes(),
            tree.cache_stats().bytes_used,
            tree.alpha_upper_bound()
        )
    }

    fn render_metrics(&self, tree: &Arc<SegmentTcTree>, front: &Metrics, inflight: u64) -> String {
        front.render_prometheus(inflight, tree.num_nodes() as u64, tree.cache_stats())
    }

    fn reload(&self) -> Result<usize, LoadError> {
        let Some(path) = &self.reload_path else {
            return Err(LoadError::corrupt("no reload path configured"));
        };
        crate::reload::reload_from_path(&self.tree, path, self.store)
    }
}

/// Answers `spec` from `tree` through [`SegmentTcTree::summarize`]: a
/// response carries a truss's pattern and sizes, so the walk counts them
/// and no truss is rebuilt to be measured and dropped. What the daemon
/// answers each request with, and what `tc query` prints.
pub fn answer(tree: &SegmentTcTree, spec: &QuerySpec) -> Result<QueryResponse, LoadError> {
    let pattern_of = |items: &[u32]| Pattern::new(items.iter().map(|&i| Item(i)).collect());
    let s = match spec {
        QuerySpec::Qba(alpha) => tree.summarize(tree.all_items(), *alpha),
        QuerySpec::Qbp(items) => tree.summarize(&pattern_of(items), 0.0),
        QuerySpec::Query(items, alpha) => tree.summarize(&pattern_of(items), *alpha),
    }?;
    Ok(QueryResponse {
        retrieved: s.trusses.len(),
        visited: s.visited_nodes,
        elapsed_secs: s.elapsed_secs,
        trusses: s
            .trusses
            .iter()
            .map(|t| TrussSummary {
                items: tree.pattern(t.node).iter().map(|i| i.0).collect(),
                vertices: t.vertices,
                edges: t.edges,
            })
            .collect(),
    })
}

/// The query-serving daemon over one hot-swappable [`SegmentTcTree`]:
/// the TCP line protocol, plus the HTTP/JSON gateway when configured.
pub type Server = FrontEnd<LocalTree>;

/// The remote control of a running [`Server`].
pub type ServerHandle = Handle<LocalTree>;

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7641`; port `0` picks an ephemeral
    /// port — read it back with [`Server::local_addr`]) and, when
    /// `cfg.http_addr` is set, the HTTP gateway address too. Serving
    /// starts when [`FrontEnd::run`] is called.
    pub fn bind(tree: SegmentTcTree, addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let backend = LocalTree {
            tree: TreeSlot::new(tree),
            reload_path: cfg.reload_path,
            store: cfg.store,
        };
        let admission = Admission {
            workers: cfg.workers,
            max_inflight: cfg.max_inflight,
            idle_timeout: cfg.idle_timeout,
            rate_limit: cfg.rate_limit,
        };
        let mut server = FrontEnd::new(backend, admission)?;
        server.listen(addr, LINE)?;
        if let Some(http_addr) = &cfg.http_addr {
            server.listen(http_addr, Wire::HTTP)?;
        }
        Ok(server)
    }

    /// The bound TCP-protocol socket address (resolves port `0`
    /// bindings).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.port_addr(0)
            .unwrap_or_else(|| Err(std::io::Error::other("no listener bound")))
    }

    /// The bound HTTP gateway address, when one was configured.
    pub fn local_http_addr(&self) -> Option<std::io::Result<SocketAddr>> {
        self.port_addr(1)
    }
}

impl ServerHandle {
    /// Atomically swaps `tree` in as the served segment and counts a
    /// completed reload. In-flight requests keep their snapshot; no
    /// session is dropped.
    pub fn swap_tree(&self, tree: SegmentTcTree) {
        self.core.backend.tree.store_tree(tree);
        self.core.metrics.reloads.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The line protocol
// ---------------------------------------------------------------------------

/// Longest accepted request line on the TCP protocol, in bytes. Generous
/// (a pattern of tens of thousands of items fits) but it bounds what a
/// client streaming bytes with no newline can make a session buffer.
const MAX_TCP_LINE: usize = 1024 * 1024;

/// The line protocol's listener behaviour: one rate-limit token per
/// connection, refusals as a one-line `BUSY` greeting.
const LINE: Wire<LocalTree> = Wire {
    serve: serve_session,
    refuse: |_, stream, reason| stream.write_all(encode_greeting_busy(reason).as_bytes()),
    rate_per_connection: true,
};

/// What a request handler asks the session loop to do next.
enum SessionFlow {
    Continue,
    Close,
}

fn serve_session(
    core: &Core<LocalTree>,
    mut stream: TcpStream,
    slot: &mut Slot,
) -> std::io::Result<()> {
    let mut reader = TickReader::new(core, &stream)?;
    {
        // The greeting advertises the directory facts of the segment
        // serving *right now*; a session outliving a hot reload keeps its
        // connection and simply sees post-swap answers on later requests.
        let tree = core.backend.snapshot();
        stream
            .write_all(encode_greeting_ok(tree.num_nodes(), tree.alpha_upper_bound()).as_bytes())?;
    }

    let mut line = String::new();
    loop {
        match reader.read_line(&mut line, MAX_TCP_LINE)? {
            Ok(()) => {}
            Err(ReadStop::Closed) => return Ok(()),
            Err(ReadStop::IdleTimeout) => {
                // Best effort: the client may be past listening.
                let _ = stream.write_all(encode_error("session idle timeout", false).as_bytes());
                return Err(idle_timeout_error());
            }
            Err(ReadStop::TooLong) => {
                core.protocol_error();
                // Framing is lost mid-line; answer and close.
                let _ = stream.write_all(encode_error("request line too long", false).as_bytes());
                return Ok(());
            }
        }
        if line.trim().is_empty() {
            continue; // blank keep-alive lines are not a protocol error
        }
        let flow = match Request::parse(&line) {
            Ok(req) => handle_request(core, req, &mut stream, slot)?,
            Err(msg) => {
                core.protocol_error();
                stream.write_all(encode_error(&msg, false).as_bytes())?;
                SessionFlow::Continue
            }
        };
        if matches!(flow, SessionFlow::Close) || core.is_shutting_down() {
            return Ok(());
        }
    }
}

fn handle_request(
    core: &Core<LocalTree>,
    req: Request,
    stream: &mut TcpStream,
    slot: &mut Slot,
) -> std::io::Result<SessionFlow> {
    let tree = core.backend.snapshot();
    let (spec, json) = match req {
        Request::Qba { alpha, json } => (QuerySpec::Qba(alpha), json),
        Request::Qbp { items, json } => (QuerySpec::Qbp(items), json),
        Request::Query { items, alpha, json } => (QuerySpec::Query(items, alpha), json),
        Request::Stats { json } => {
            core.metrics.stats.fetch_add(1, Ordering::Relaxed);
            stream.write_all(encode_stats(&stats_rows(core, &tree), json).as_bytes())?;
            return Ok(SessionFlow::Continue);
        }
        Request::Quit => {
            slot.release();
            stream.write_all(b"BYE\n")?;
            return Ok(SessionFlow::Close);
        }
        Request::Shutdown => {
            stream.write_all(b"BYE\n")?;
            core.request_shutdown();
            return Ok(SessionFlow::Close);
        }
    };
    let frame = match core.execute(&tree, &spec) {
        Answer::Ok(resp, _) if json => resp.encode_json(),
        Answer::Ok(resp, _) => resp.encode_tab(),
        Answer::Err(_, msg) => encode_error(&msg, json),
    };
    stream.write_all(frame.as_bytes())?;
    Ok(SessionFlow::Continue)
}

/// The `STATS` table: directory and cache facts of `tree`, then the front
/// end's bounds and counters.
fn stats_rows(core: &Core<LocalTree>, tree: &SegmentTcTree) -> [(&'static str, u64); 27] {
    let s = core.snapshot();
    let cache = tree.cache_stats();
    // The STATS table is integer-valued; the hit *ratio* is reported as a
    // percentage (floor), exact ratio in /metrics.
    let hit_total = cache.hits + cache.misses;
    let hit_pct = (cache.hits * 100).checked_div(hit_total).unwrap_or(100);
    [
        ("protocol_version", u64::from(crate::PROTOCOL_VERSION)),
        ("nodes", tree.num_nodes() as u64),
        ("materialized_nodes", tree.materialized_nodes() as u64),
        ("materialized_total", cache.materialized_total),
        ("cache_bytes_used", cache.bytes_used),
        ("cache_bytes_budget", cache.budget.unwrap_or(0)),
        ("cache_evictions", cache.evictions),
        ("cache_hits", cache.hits),
        ("cache_misses", cache.misses),
        ("cache_hit_ratio_pct", hit_pct),
        ("workers", core.workers as u64),
        ("max_inflight", core.max_inflight as u64),
        ("inflight", s.inflight),
        ("accepted", s.accepted),
        ("admitted", s.admitted),
        ("rejected_busy", s.rejected_busy),
        ("rate_limited", s.rate_limited),
        ("qba", s.qba),
        ("qbp", s.qbp),
        ("query", s.query),
        ("stats", s.stats),
        ("batch", s.batch),
        ("protocol_errors", s.protocol_errors),
        ("query_failures", s.query_failures),
        ("timeouts", s.timeouts),
        ("reloads", s.reloads),
        ("reload_failures", s.reload_failures),
    ]
}
