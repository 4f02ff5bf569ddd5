//! `tc-router` — the scatter-gather HTTP gateway over sharded TC-Tree
//! segments.
//!
//! `tc shard` splits a TC-Tree **by root-child subtree** into N
//! self-contained segments (see [`tc_store::shardmap`]) and records the
//! layout in a `TCMAP01` shard map. This crate is the serving half: a
//! router process loads the map, keeps a pool of line-protocol
//! [`ServeClient`](tc_serve::ServeClient)s per shard daemon, and serves the same HTTP/JSON
//! surface as a single `tc serve` daemon (`GET /qba /qbp /query`,
//! `POST /query` batches, `/healthz`, `/metrics`) by **scattering**
//! every query to all shards and **gathering** the answers with a
//! deterministic merge.
//!
//! The merge is exact, not approximate. Three facts carry it:
//!
//! 1. Subtree partitioning makes per-shard answers *disjoint*: every
//!    non-root node lives in exactly one shard, with its full subtree.
//! 2. The router rewrites `QBA(α)` into `QUERY(universe, α)`, where the
//!    universe is the full tree's level-1 item set stored in the map. A
//!    shard's own QBA would build the universe from its local root
//!    children and wrongly prune deeper patterns that mention items
//!    whose level-1 node lives elsewhere; with the rewrite, every
//!    per-shard pruning decision equals the unsharded walk's.
//! 3. The unsharded walk emits trusses in BFS order, and within a BFS
//!    level arena order equals pattern lexicographic order — so sorting
//!    the concatenated shard answers by `(pattern length, pattern)`
//!    reproduces the unsharded ordering, and summing `retrieved` /
//!    `visited` reproduces its counters.
//!
//! A healthy router therefore answers **byte-identically** to a single
//! daemon serving the unsharded segment, except for the `secs` timing
//! field. When a shard is down, the router either refuses with 503
//! (default) or, with [`RouterConfig::partial`], serves what the live
//! shards returned and names the missing shards in the
//! `X-TC-Partial-Shards` response header. `docs/SHARDING.md` specifies
//! the format and contract; `docs/OPERATIONS.md` has the runbook.
//!
//! ## Quick taste
//!
//! ```
//! use tc_core::DatabaseNetworkBuilder;
//! use tc_index::TcTreeBuilder;
//! use tc_router::{Router, RouterConfig};
//! use tc_serve::{HttpClient, ServeConfig, Server};
//! use tc_store::shardmap::{level1_items, split_tree, HashScheme, ShardEntry, ShardMap};
//! use tc_store::SegmentTcTree;
//!
//! // A tiny tree, split two ways, each shard served by its own daemon.
//! let mut b = DatabaseNetworkBuilder::new();
//! let x = b.intern_item("x");
//! let y = b.intern_item("y");
//! for v in 0..3u32 {
//!     for _ in 0..4 {
//!         b.add_transaction(v, &[x, y]);
//!     }
//! }
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let tree = TcTreeBuilder::default().build(&b.build().unwrap());
//!
//! let mut daemons = Vec::new();
//! let mut entries = Vec::new();
//! for shard in split_tree(&tree, HashScheme::Crc32Item, 2) {
//!     let mut bytes = Vec::new();
//!     tc_store::save_tree_segment(&shard, &mut bytes).unwrap();
//!     let seg = SegmentTcTree::from_bytes(bytes).unwrap();
//!     let server = Server::bind(seg, "127.0.0.1:0", ServeConfig::default()).unwrap();
//!     entries.push(ShardEntry {
//!         addr: server.local_addr().unwrap().to_string(),
//!         path: String::new(),
//!     });
//!     daemons.push(server);
//! }
//! let map = ShardMap {
//!     scheme: HashScheme::Crc32Item,
//!     items: level1_items(&tree),
//!     shards: entries,
//! };
//!
//! let router = Router::bind(map, "127.0.0.1:0", RouterConfig::default()).unwrap();
//! let addr = router.local_addr().unwrap().to_string();
//! let handle = router.handle();
//! let gateway = std::thread::spawn(move || router.run().unwrap());
//! let handles: Vec<_> = daemons
//!     .into_iter()
//!     .map(|d| {
//!         let h = d.handle();
//!         std::thread::spawn(move || d.run().unwrap());
//!         h
//!     })
//!     .collect();
//!
//! let mut client = HttpClient::connect(&addr).unwrap();
//! let resp = client.get("/qba?alpha=0.0").unwrap();
//! assert!(resp.is_ok());
//! let local = tree.query_by_alpha(0.0);
//! assert!(resp.body.contains(&format!("\"retrieved\":{}", local.retrieved_nodes)));
//!
//! handle.shutdown();
//! gateway.join().unwrap();
//! for h in handles {
//!     h.shutdown();
//! }
//! ```

mod metrics;
mod pool;

use metrics::ScatterMetrics;
use pool::{Sent, ShardPool};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use tc_serve::protocol::{push_items, push_qbp, push_query};
use tc_serve::{
    Admission, Answer, Backend, ClientError, FrontEnd, Handle, Metrics, QueryResponse, QuerySpec,
    RateLimit, Wire,
};
use tc_store::ShardMap;
use tc_util::sync::Mutex;
use tc_util::LoadError;

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Most concurrently admitted HTTP sessions; excess connections are
    /// refused with an immediate 503, never queued.
    pub max_inflight: usize,
    /// Close a session idling longer than this (None: never).
    pub idle_timeout: Option<Duration>,
    /// Per-client-IP token bucket (None: unlimited).
    pub rate_limit: Option<RateLimit>,
    /// With a shard down: `false` answers 503, `true` serves the live
    /// shards' union and names the missing shards in
    /// `X-TC-Partial-Shards`.
    pub partial: bool,
    /// Where to re-read the shard map on SIGHUP / [`RouterHandle::reload`]
    /// (None: reload is refused).
    pub map_path: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            max_inflight: 64,
            idle_timeout: Some(Duration::from_secs(30)),
            rate_limit: None,
            partial: false,
            map_path: None,
        }
    }
}

/// One loaded shard layout: the parsed map plus a connection pool per
/// shard. Swapped wholesale on reload; in-flight requests keep the
/// snapshot they started with.
pub(crate) struct Shards {
    pub map: ShardMap,
    pub pools: Vec<ShardPool>,
    /// `map.items` as a wire token — what every rewritten QBA carries.
    universe: String,
}

impl Shards {
    /// The layout of `map`, its pools carrying on the tallies of the
    /// `previous` pools with the same shard ids.
    fn new(map: ShardMap, previous: &[ShardPool]) -> Shards {
        let pools = map
            .shards
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let tally = previous
                    .get(id)
                    .map_or_else(Arc::default, |p| p.tally.clone());
                ShardPool::new(id as u32, s.addr.clone(), tally)
            })
            .collect();
        let mut universe = String::new();
        push_items(&mut universe, &map.items);
        Shards {
            map,
            pools,
            universe,
        }
    }

    /// The one line every shard is sent for `spec`: a `QBA(α)` rewritten to
    /// `QUERY(universe, α)`, which keeps per-shard pruning exact (crate docs).
    fn request_line(&self, spec: &QuerySpec) -> String {
        let mut line = String::with_capacity(self.universe.len() + 32);
        match spec {
            QuerySpec::Qba(alpha) => {
                let _ = write!(line, "QUERY {} {alpha}", self.universe);
            }
            QuerySpec::Qbp(items) => push_qbp(&mut line, items),
            QuerySpec::Query(items, alpha) => push_query(&mut line, items, *alpha),
        }
        line.push('\n');
        line
    }
}

/// `(fanout, shard_errors)` summed over `pools`.
fn totals(pools: &[ShardPool]) -> (u64, u64) {
    pools.iter().fold((0, 0), |(fanout, errors), p| {
        (
            fanout + p.tally.fanout.load(Ordering::Relaxed),
            errors + p.tally.errors.load(Ordering::Relaxed),
        )
    })
}

/// The scatter backend: every query fans out to all shard daemons and
/// the answers merge into the unsharded one.
pub(crate) struct Scatter {
    shards: Mutex<Arc<Shards>>,
    partial: bool,
    map_path: Option<PathBuf>,
    metrics: ScatterMetrics,
}

impl Backend for Scatter {
    const NAME: &'static str = "tc-router";

    /// One shard layout per request: a map reload landing mid-batch never
    /// mixes layouts inside one response.
    type Snapshot = Arc<Shards>;

    /// `(shard_count, universe_len)` of the map swapped in.
    type Reloaded = (usize, usize);

    fn snapshot(&self) -> Arc<Shards> {
        self.shards.lock().clone()
    }

    fn answer(&self, shards: &Arc<Shards>, spec: &QuerySpec) -> Answer {
        self.scatter_query(shards, spec)
    }

    fn healthz(&self, shards: &Arc<Shards>) -> String {
        format!(
            "{{\"status\":\"ok\",\"shards\":{},\"items\":{},\"partial\":{},\"shards_down\":{}}}\n",
            shards.pools.len(),
            shards.map.items.len(),
            self.partial,
            self.metrics.shards_down.load(Ordering::Relaxed)
        )
    }

    fn render_metrics(&self, shards: &Arc<Shards>, front: &Metrics, inflight: u64) -> String {
        self.metrics.render_prometheus(front, inflight, shards)
    }

    /// Validation happens before the swap: a corrupt or unreadable map
    /// leaves the old layout serving.
    fn reload(&self) -> Result<(usize, usize), LoadError> {
        let Some(path) = &self.map_path else {
            return Err(LoadError::Corrupt(
                "router: no shard-map path configured for reload".into(),
            ));
        };
        let map = ShardMap::load_from_path(path)?;
        let counts = (map.shards.len(), map.items.len());
        let retired = {
            let mut current = self.shards.lock();
            let next = Arc::new(Shards::new(map, &current.pools));
            std::mem::replace(&mut *current, next)
        };
        self.metrics
            .retire(retired.pools.get(counts.0..).unwrap_or_default());
        Ok(counts)
    }
}

impl Scatter {
    /// Scatters `spec` and gathers the merged outcome on the calling
    /// session's thread: every shard has the request before the first
    /// answer is waited on, so the daemons work concurrently while their
    /// answers are read back in shard order — all of them, before any
    /// outcome (the 500 and 503 included) is decided: [`pool`]'s I1.
    fn scatter_query(&self, shards: &Shards, spec: &QuerySpec) -> Answer {
        let line = shards.request_line(spec);
        let sent: Vec<Sent> = shards.pools.iter().map(|p| p.send(&line)).collect();
        let mut answered = Vec::new();
        let mut down = Vec::new();
        let mut first_err = String::new();
        let mut refused = None;
        for (pool, sent) in shards.pools.iter().zip(sent) {
            match pool.receive(sent, &line) {
                Ok(resp) => answered.push(resp),
                // A query-level error means the shard is healthy but the
                // request is bad; every shard ran the same request, so
                // surface it as the request's failure.
                Err(ClientError::Remote(msg)) => refused = refused.or(Some(msg)),
                Err(e) => {
                    if down.is_empty() {
                        first_err = e.to_string();
                    }
                    down.push(pool.id);
                }
            }
        }
        if let Some(msg) = refused {
            return Answer::Err(500, msg);
        }
        self.metrics
            .shards_down
            .store(down.len() as u64, Ordering::Relaxed);
        if !down.is_empty() {
            if !self.partial {
                let ids: Vec<String> = down.iter().map(u32::to_string).collect();
                let ids = ids.join(",");
                return Answer::Err(503, format!("shard(s) {ids} unavailable: {first_err}"));
            }
            self.metrics
                .partial_responses
                .fetch_add(1, Ordering::Relaxed);
        }
        // With `down` empty the merge equals the unsharded answer.
        Answer::Ok(merge_responses(answered), down)
    }
}

/// Merges disjoint per-shard answers into one response: counters sum,
/// and trusses sort by `(pattern length, pattern)` — the unsharded
/// tree's own BFS emission order, so a full merge is element-identical
/// to the unsharded answer. `elapsed_secs` is the router-side maximum
/// (the scatter's critical path), not a sum.
pub fn merge_responses(parts: Vec<QueryResponse>) -> QueryResponse {
    let mut merged = QueryResponse {
        retrieved: 0,
        visited: 0,
        elapsed_secs: 0.0,
        trusses: Vec::new(),
    };
    for part in parts {
        merged.retrieved += part.retrieved;
        merged.visited += part.visited;
        merged.elapsed_secs = merged.elapsed_secs.max(part.elapsed_secs);
        merged.trusses.extend(part.trusses);
    }
    merged
        .trusses
        .sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    merged
}

/// Counter totals reported when a router exits.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterStats {
    /// Scatter-gather requests served (qba + qbp + query + batch).
    pub requests: u64,
    /// Shard RPCs attempted across all shards.
    pub fanout: u64,
    /// Shard RPCs that failed at the transport layer.
    pub shard_errors: u64,
    /// Responses served with shards missing (`--partial`).
    pub partial_responses: u64,
    /// Successful shard-map reloads.
    pub reloads: u64,
}

/// A bound scatter-gather gateway; [`Router::run`] starts serving.
pub struct Router(FrontEnd<Scatter>);

/// A cloneable driver for a running router: shutdown, reload, stats.
#[derive(Clone)]
pub struct RouterHandle(Handle<Scatter>);

impl Router {
    /// Binds `http_addr` (port `0` picks an ephemeral port — read it
    /// back with [`Router::local_addr`]) over the given shard layout.
    /// Shard connections open lazily on first use, so daemons may boot
    /// after the router.
    pub fn bind(map: ShardMap, http_addr: &str, cfg: RouterConfig) -> std::io::Result<Router> {
        let backend = Scatter {
            shards: Mutex::new(Arc::new(Shards::new(map, &[]))),
            partial: cfg.partial,
            map_path: cfg.map_path,
            metrics: ScatterMetrics::default(),
        };
        // A worker per admissible session: an admitted connection never
        // waits in the queue behind another's slow shard.
        let admission = Admission {
            workers: cfg.max_inflight,
            max_inflight: cfg.max_inflight,
            idle_timeout: cfg.idle_timeout,
            rate_limit: cfg.rate_limit,
        };
        let mut front = FrontEnd::new(backend, admission)?;
        front.listen(http_addr, Wire::HTTP)?;
        Ok(Router(front))
    }

    /// The bound HTTP address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.0
            .port_addr(0)
            .unwrap_or_else(|| Err(std::io::Error::other("no listener bound")))
    }

    /// A driver handle, usable from any thread while `run` serves.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle(self.0.handle())
    }

    /// Serves until shutdown (handle, SIGTERM/SIGINT via
    /// [`tc_serve::install_signal_handlers`]), then drains admitted
    /// sessions and returns the counter totals.
    pub fn run(self) -> std::io::Result<RouterStats> {
        let handle = self.handle();
        self.0.run()?;
        Ok(handle.stats())
    }
}

impl RouterHandle {
    /// Asks the accept loop to stop; `run` then drains and returns.
    pub fn shutdown(&self) {
        self.0.shutdown();
    }

    /// Re-reads the shard map from [`RouterConfig::map_path`] and swaps
    /// it in atomically. Validation happens before the swap: a corrupt
    /// or unreadable map leaves the old layout serving and counts a
    /// failed reload. Returns `(shard_count, universe_len)` on success.
    pub fn reload(&self) -> Result<(usize, usize), LoadError> {
        self.0.reload()
    }

    /// The Prometheus exposition, as served by `GET /metrics`.
    pub fn prometheus(&self) -> String {
        self.0.prometheus()
    }

    /// Counter totals so far, across every shard layout served — a reload
    /// does not reset them.
    pub fn stats(&self) -> RouterStats {
        let front = self.0.stats();
        let backend = self.0.backend();
        let (fanout, shard_errors) = totals(&backend.snapshot().pools);
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        RouterStats {
            requests: front.queries_served() + front.batch,
            fanout: fanout + load(&backend.metrics.retired_fanout),
            shard_errors: shard_errors + load(&backend.metrics.retired_errors),
            partial_responses: load(&backend.metrics.partial_responses),
            reloads: front.reloads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_serve::Request;
    use tc_store::shardmap::{HashScheme, ShardEntry};

    /// The line a scatter writes is `Request::encode`'s, byte for byte —
    /// the cached universe token and the QBA rewrite included.
    #[test]
    fn request_lines_are_the_protocols_own_encoding() {
        for items in [vec![], vec![7], vec![0, 3, 41, 500]] {
            let shards = Shards::new(
                ShardMap {
                    scheme: HashScheme::Crc32Item,
                    items: items.clone(),
                    shards: vec![ShardEntry {
                        addr: "127.0.0.1:1".into(),
                        path: String::new(),
                    }],
                },
                &[],
            );
            let json = false;
            for alpha in [0.0, 0.25, 1e-7, 3.0] {
                let cases = [
                    (
                        QuerySpec::Qba(alpha),
                        Request::Query {
                            items: items.clone(),
                            alpha,
                            json,
                        },
                    ),
                    (
                        QuerySpec::Qbp(items.clone()),
                        Request::Qbp {
                            items: items.clone(),
                            json,
                        },
                    ),
                    (
                        QuerySpec::Query(vec![2, 9], alpha),
                        Request::Query {
                            items: vec![2, 9],
                            alpha,
                            json,
                        },
                    ),
                ];
                for (spec, request) in cases {
                    let want = format!("{}\n", request.encode());
                    assert_eq!(shards.request_line(&spec), want);
                }
            }
        }
    }
}
