//! The `tc serve` daemon: the shared front end ([`crate::server`]) over a
//! [`LocalTree`] backend — one hot-swappable [`SegmentTcTree`] — speaking
//! the line protocol ([`crate::protocol`]) over TCP and, when configured,
//! the HTTP/JSON gateway ([`crate::http`]) beside it.

use crate::backend::{Answer, Backend, QuerySpec};
use crate::limit::RateLimit;
use crate::metrics::{Counter, Family, Samples};
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

    /// `tc serve`'s table: the front end's counters, then the served
    /// tree's directory and node-cache gauges.
    #[rustfmt::skip]
    const METRICS: &'static [Family<Self>] = &[
        Family { name: "tcserve_connections_total", kind: "counter", label: "outcome",
            help: "Connections accepted, by admission outcome.",
            samples: Samples::Counters(&[("admitted", Counter::Admitted),
                ("busy", Counter::RejectedBusy), ("rate_limited", Counter::RateLimited)]) },
        Family { name: "tcserve_requests_total", kind: "counter", label: "verb",
            help: "Requests served, by verb (both front-ends).",
            samples: Samples::Counters(&[("qba", Counter::Qba), ("qbp", Counter::Qbp),
                ("query", Counter::Query), ("stats", Counter::Stats), ("batch", Counter::Batch)]) },
        Family { name: "tcserve_errors_total", kind: "counter", label: "kind",
            help: "Failed requests, by failure kind.",
            samples: Samples::Counters(&[("protocol", Counter::ProtocolErrors),
                ("query", Counter::QueryFailures), ("timeout", Counter::Timeouts)]) },
        Family { name: "tcserve_http_responses_total", kind: "counter", label: "code",
            help: "HTTP responses sent, by status code.",
            samples: Samples::HttpResponses },
        Family { name: "tcserve_reloads_total", kind: "counter", label: "",
            help: "Segment hot-reloads completed without dropping sessions.",
            samples: Samples::Counters(&[("", Counter::Reloads)]) },
        Family { name: "tcserve_reload_failures_total", kind: "counter", label: "",
            help: "Hot-reload attempts rejected at validation (old segment kept).",
            samples: Samples::Counters(&[("", Counter::ReloadFailures)]) },
        Family { name: "tcserve_inflight_sessions", kind: "gauge", label: "",
            help: "Sessions admitted but not yet finished.",
            samples: Samples::Inflight },
        Family { name: "tcserve_tree_nodes", kind: "gauge", label: "",
            help: "TC-Tree nodes in the currently served segment.",
            samples: Samples::<Self>::Value(|_, t| t.num_nodes().to_string()) },
        Family { name: "tcserve_tree_materialized_nodes", kind: "gauge", label: "",
            help: "TC-Tree nodes currently resident in the node cache (falls on eviction).",
            samples: Samples::<Self>::Value(|_, t| t.cache_stats().resident.to_string()) },
        Family { name: "tcserve_tree_materialized_total", kind: "counter", label: "",
            help: "Node materialisations since open (re-parses after eviction count again).",
            samples: Samples::<Self>::Value(|_, t| {
                t.cache_stats().materialized_total.to_string()
            }) },
        Family { name: "tcserve_cache_bytes_used", kind: "gauge", label: "",
            help: "Accounted bytes of resident truss decompositions.",
            samples: Samples::<Self>::Value(|_, t| t.cache_stats().bytes_used.to_string()) },
        Family { name: "tcserve_cache_bytes_budget", kind: "gauge", label: "",
            help: "Configured node-cache byte budget (0 = unbounded).",
            samples: Samples::<Self>::Value(|_, t| {
                t.cache_stats().budget.unwrap_or(0).to_string()
            }) },
        Family { name: "tcserve_cache_evictions_total", kind: "counter", label: "",
            help: "Nodes evicted by the cache's clock sweep.",
            samples: Samples::<Self>::Value(|_, t| t.cache_stats().evictions.to_string()) },
        Family { name: "tcserve_cache_lookups_total", kind: "counter", label: "outcome",
            help: "Node-cache lookups, by outcome.",
            samples: Samples::<Self>::Values(&["hit", "miss"], |_, t| {
                vec![t.cache_stats().hits, t.cache_stats().misses]
            }) },
        Family { name: "tcserve_cache_hit_ratio", kind: "gauge", label: "",
            help: "Node-cache hit fraction in [0, 1] (1 before any lookup).",
            samples: Samples::<Self>::Value(|_, t| t.cache_stats().hit_ratio().to_string()) },
        Family { name: "tcserve_request_latency_seconds", kind: "histogram", label: "verb",
            help: "Server-side request latency, by verb.",
            samples: Samples::VerbLatency },
    ];

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
        self.core.metrics.bump(Counter::Reloads);
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
                core.metrics.bump(Counter::ProtocolErrors);
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
                core.metrics.bump(Counter::ProtocolErrors);
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
            core.metrics.bump(Counter::Stats);
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

/// The `STATS` table: directory and cache facts of `tree`, the front
/// end's bounds, then one row per [`Counter`].
fn stats_rows(core: &Core<LocalTree>, tree: &SegmentTcTree) -> Vec<(&'static str, u64)> {
    let s = core.snapshot();
    let cache = tree.cache_stats();
    // The STATS table is integer-valued; the hit *ratio* is reported as a
    // percentage (floor), exact ratio in /metrics.
    let hit_total = cache.hits + cache.misses;
    let hit_pct = (cache.hits * 100).checked_div(hit_total).unwrap_or(100);
    let mut rows = vec![
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
    ];
    rows.extend(Counter::ALL.map(|c| (c.key(), s[c])));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, HTTP_CODES};
    use tc_core::DatabaseNetworkBuilder;
    use tc_index::TcTreeBuilder;

    /// Every front-end counter, by `STATS` key, with a distinct value.
    const COUNTERS: [(&str, u64); 14] = [
        ("accepted", 101),
        ("admitted", 102),
        ("rejected_busy", 103),
        ("rate_limited", 104),
        ("qba", 105),
        ("qbp", 106),
        ("query", 107),
        ("stats", 108),
        ("batch", 109),
        ("protocol_errors", 110),
        ("query_failures", 111),
        ("timeouts", 112),
        ("reloads", 113),
        ("reload_failures", 114),
    ];

    /// Sets the front-end counter named by `STATS` key `key` to `n`.
    fn set_counter(m: &Metrics, key: &str, n: u64) {
        let counter = Counter::ALL.into_iter().find(|c| c.key() == key);
        let counter = counter.unwrap_or_else(|| panic!("no counter {key}"));
        for _ in 0..n {
            m.bump(counter);
        }
    }

    /// Loads `m` with a distinct value in every counter, HTTP code and
    /// histogram, so a swapped series or a reordered row changes bytes.
    fn load(m: &Metrics) {
        for (key, n) in COUNTERS {
            set_counter(m, key, n);
        }
        for (i, code) in HTTP_CODES.into_iter().enumerate() {
            for _ in 0..21 + 2 * i {
                m.count_http_response(code);
            }
        }
        m.count_http_response(418); // folds into 500
        for (i, (_, h)) in m.verb_latency_series().into_iter().enumerate() {
            for k in 0..=i {
                h.observe([10e-6, 0.002, 0.3, 30.0][k] * (i + 1) as f64);
            }
        }
    }

    /// A two-item tree behind a one-byte cache budget, after a few
    /// queries: every cache row is non-zero.
    fn tree() -> SegmentTcTree {
        let mut b = DatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        let y = b.intern_item("y");
        for v in 0..4u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[x, y]);
            }
            b.add_transaction(v, &[x]);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)] {
            b.add_edge(u, v);
        }
        let tree = TcTreeBuilder::default().build(&b.build().unwrap());
        let mut bytes = Vec::new();
        tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
        let opts = StoreOptions {
            cache_bytes: Some(1),
        };
        let seg = SegmentTcTree::from_bytes_with(bytes, opts).unwrap();
        for spec in [
            QuerySpec::Qba(0.0),
            QuerySpec::Qbp(vec![0]),
            QuerySpec::Qba(0.1),
        ] {
            answer(&seg, &spec).unwrap();
        }
        seg
    }

    /// A front end over [`tree`] with loaded counters; not listening.
    fn loaded_server() -> Server {
        let backend = LocalTree {
            tree: TreeSlot::new(tree()),
            reload_path: None,
            store: StoreOptions::default(),
        };
        let admission = Admission {
            workers: 3,
            max_inflight: 5,
            idle_timeout: None,
            rate_limit: None,
        };
        let server = FrontEnd::new(backend, admission).unwrap();
        load(&server.handle().core.metrics);
        server
    }

    #[test]
    fn tcserve_exposition_is_pinned_byte_for_byte() {
        let server = loaded_server();
        let core = &server.handle().core;
        let text = core
            .backend
            .render_metrics(&core.backend.snapshot(), &core.metrics, 7);
        assert_eq!(text, TCSERVE_GOLDEN);
    }

    #[test]
    fn stats_table_is_pinned_byte_for_byte() {
        let server = loaded_server();
        let core = &server.handle().core;
        let rows = stats_rows(core, &core.backend.snapshot());
        assert_eq!(encode_stats(&rows, false), STATS_GOLDEN);
        assert_eq!(encode_stats(&rows, true), STATS_JSON_GOLDEN);
    }

    /// OPERATIONS.md's `STATS` reference names every `STATS` key — the
    /// tree rows, the bounds and every [`Counter`] — and no other.
    #[test]
    fn stats_reference_matches_stats_rows() {
        let doc = include_str!("../../../docs/OPERATIONS.md");
        let (_, section) = doc.split_once("### STATS reference").unwrap();
        let mut documented: Vec<&str> = section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.split('|').nth(1))
            .flat_map(|keys| keys.split('`').skip(1).step_by(2))
            .collect();
        let server = loaded_server();
        let core = &server.handle().core;
        let rows = stats_rows(core, &core.backend.snapshot());
        let mut keys: Vec<&str> = rows.iter().map(|(k, _)| *k).collect();
        documented.sort_unstable();
        keys.sort_unstable();
        assert_eq!(documented, keys);
    }

    const TCSERVE_GOLDEN: &str = r#"# HELP tcserve_connections_total Connections accepted, by admission outcome.
# TYPE tcserve_connections_total counter
tcserve_connections_total{outcome="admitted"} 102
tcserve_connections_total{outcome="busy"} 103
tcserve_connections_total{outcome="rate_limited"} 104
# HELP tcserve_requests_total Requests served, by verb (both front-ends).
# TYPE tcserve_requests_total counter
tcserve_requests_total{verb="qba"} 105
tcserve_requests_total{verb="qbp"} 106
tcserve_requests_total{verb="query"} 107
tcserve_requests_total{verb="stats"} 108
tcserve_requests_total{verb="batch"} 109
# HELP tcserve_errors_total Failed requests, by failure kind.
# TYPE tcserve_errors_total counter
tcserve_errors_total{kind="protocol"} 110
tcserve_errors_total{kind="query"} 111
tcserve_errors_total{kind="timeout"} 112
# HELP tcserve_http_responses_total HTTP responses sent, by status code.
# TYPE tcserve_http_responses_total counter
tcserve_http_responses_total{code="200"} 21
tcserve_http_responses_total{code="400"} 23
tcserve_http_responses_total{code="404"} 25
tcserve_http_responses_total{code="405"} 27
tcserve_http_responses_total{code="413"} 29
tcserve_http_responses_total{code="429"} 31
tcserve_http_responses_total{code="500"} 34
tcserve_http_responses_total{code="503"} 35
# HELP tcserve_reloads_total Segment hot-reloads completed without dropping sessions.
# TYPE tcserve_reloads_total counter
tcserve_reloads_total 113
# HELP tcserve_reload_failures_total Hot-reload attempts rejected at validation (old segment kept).
# TYPE tcserve_reload_failures_total counter
tcserve_reload_failures_total 114
# HELP tcserve_inflight_sessions Sessions admitted but not yet finished.
# TYPE tcserve_inflight_sessions gauge
tcserve_inflight_sessions 7
# HELP tcserve_tree_nodes TC-Tree nodes in the currently served segment.
# TYPE tcserve_tree_nodes gauge
tcserve_tree_nodes 3
# HELP tcserve_tree_materialized_nodes TC-Tree nodes currently resident in the node cache (falls on eviction).
# TYPE tcserve_tree_materialized_nodes gauge
tcserve_tree_materialized_nodes 1
# HELP tcserve_tree_materialized_total Node materialisations since open (re-parses after eviction count again).
# TYPE tcserve_tree_materialized_total counter
tcserve_tree_materialized_total 6
# HELP tcserve_cache_bytes_used Accounted bytes of resident truss decompositions.
# TYPE tcserve_cache_bytes_used gauge
tcserve_cache_bytes_used 120
# HELP tcserve_cache_bytes_budget Configured node-cache byte budget (0 = unbounded).
# TYPE tcserve_cache_bytes_budget gauge
tcserve_cache_bytes_budget 1
# HELP tcserve_cache_evictions_total Nodes evicted by the cache's clock sweep.
# TYPE tcserve_cache_evictions_total counter
tcserve_cache_evictions_total 5
# HELP tcserve_cache_lookups_total Node-cache lookups, by outcome.
# TYPE tcserve_cache_lookups_total counter
tcserve_cache_lookups_total{outcome="hit"} 1
tcserve_cache_lookups_total{outcome="miss"} 6
# HELP tcserve_cache_hit_ratio Node-cache hit fraction in [0, 1] (1 before any lookup).
# TYPE tcserve_cache_hit_ratio gauge
tcserve_cache_hit_ratio 0.14285714285714285
# HELP tcserve_request_latency_seconds Server-side request latency, by verb.
# TYPE tcserve_request_latency_seconds histogram
tcserve_request_latency_seconds_bucket{verb="qba",le="0.000025"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.00005"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.0001"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.00025"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.0005"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.001"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.0025"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.005"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.01"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.05"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="0.25"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="1"} 1
tcserve_request_latency_seconds_bucket{verb="qba",le="+Inf"} 1
tcserve_request_latency_seconds_sum{verb="qba"} 0.00001
tcserve_request_latency_seconds_count{verb="qba"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.000025"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.00005"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.0001"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.00025"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.0005"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.001"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.0025"} 1
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.005"} 2
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.01"} 2
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.05"} 2
tcserve_request_latency_seconds_bucket{verb="qbp",le="0.25"} 2
tcserve_request_latency_seconds_bucket{verb="qbp",le="1"} 2
tcserve_request_latency_seconds_bucket{verb="qbp",le="+Inf"} 2
tcserve_request_latency_seconds_sum{verb="qbp"} 0.00402
tcserve_request_latency_seconds_count{verb="qbp"} 2
tcserve_request_latency_seconds_bucket{verb="query",le="0.000025"} 0
tcserve_request_latency_seconds_bucket{verb="query",le="0.00005"} 1
tcserve_request_latency_seconds_bucket{verb="query",le="0.0001"} 1
tcserve_request_latency_seconds_bucket{verb="query",le="0.00025"} 1
tcserve_request_latency_seconds_bucket{verb="query",le="0.0005"} 1
tcserve_request_latency_seconds_bucket{verb="query",le="0.001"} 1
tcserve_request_latency_seconds_bucket{verb="query",le="0.0025"} 1
tcserve_request_latency_seconds_bucket{verb="query",le="0.005"} 1
tcserve_request_latency_seconds_bucket{verb="query",le="0.01"} 2
tcserve_request_latency_seconds_bucket{verb="query",le="0.05"} 2
tcserve_request_latency_seconds_bucket{verb="query",le="0.25"} 2
tcserve_request_latency_seconds_bucket{verb="query",le="1"} 3
tcserve_request_latency_seconds_bucket{verb="query",le="+Inf"} 3
tcserve_request_latency_seconds_sum{verb="query"} 0.90603
tcserve_request_latency_seconds_count{verb="query"} 3
tcserve_request_latency_seconds_bucket{verb="batch",le="0.000025"} 0
tcserve_request_latency_seconds_bucket{verb="batch",le="0.00005"} 1
tcserve_request_latency_seconds_bucket{verb="batch",le="0.0001"} 1
tcserve_request_latency_seconds_bucket{verb="batch",le="0.00025"} 1
tcserve_request_latency_seconds_bucket{verb="batch",le="0.0005"} 1
tcserve_request_latency_seconds_bucket{verb="batch",le="0.001"} 1
tcserve_request_latency_seconds_bucket{verb="batch",le="0.0025"} 1
tcserve_request_latency_seconds_bucket{verb="batch",le="0.005"} 1
tcserve_request_latency_seconds_bucket{verb="batch",le="0.01"} 2
tcserve_request_latency_seconds_bucket{verb="batch",le="0.05"} 2
tcserve_request_latency_seconds_bucket{verb="batch",le="0.25"} 2
tcserve_request_latency_seconds_bucket{verb="batch",le="1"} 2
tcserve_request_latency_seconds_bucket{verb="batch",le="+Inf"} 4
tcserve_request_latency_seconds_sum{verb="batch"} 121.20804
tcserve_request_latency_seconds_count{verb="batch"} 4
"#;
    const STATS_GOLDEN: &str = "\
OK\t27\n\
protocol_version\t1\n\
nodes\t3\n\
materialized_nodes\t1\n\
materialized_total\t6\n\
cache_bytes_used\t120\n\
cache_bytes_budget\t1\n\
cache_evictions\t5\n\
cache_hits\t1\n\
cache_misses\t6\n\
cache_hit_ratio_pct\t14\n\
workers\t3\n\
max_inflight\t5\n\
inflight\t0\n\
accepted\t101\n\
admitted\t102\n\
rejected_busy\t103\n\
rate_limited\t104\n\
qba\t105\n\
qbp\t106\n\
query\t107\n\
stats\t108\n\
batch\t109\n\
protocol_errors\t110\n\
query_failures\t111\n\
timeouts\t112\n\
reloads\t113\n\
reload_failures\t114\n";
    const STATS_JSON_GOLDEN: &str = concat!(
        r#"{"status":"ok","stats":{"protocol_version":1,"nodes":3,"materialized_nodes":1,"materialized_total":6,"cache_bytes_used":120,"cache_bytes_budget":1,"cache_evictions":5,"cache_hits":1,"cache_misses":6,"cache_hit_ratio_pct":14,"workers":3,"max_inflight":5,"inflight":0,"accepted":101,"admitted":102,"rejected_busy":103,"rate_limited":104,"qba":105,"qbp":106,"query":107,"stats":108,"batch":109,"protocol_errors":110,"query_failures":111,"timeouts":112,"reloads":113,"reload_failures":114}}"#,
        "\n"
    );
}
