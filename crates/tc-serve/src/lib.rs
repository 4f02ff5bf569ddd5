//! `tc-serve` — the TCP query-serving daemon for TC-Tree segments.
//!
//! A daemon opens a [`tc_store::SegmentTcTree`] once and answers the
//! paper's QBA / QBP / general `(q, α)` queries (Algorithm 5) over a
//! line-oriented TCP protocol, `std::net` only.
//!
//! * [`protocol`] — the wire grammar: versioned greeting, the
//!   `QBA`/`QBP`/`QUERY`/`STATS`/`QUIT`/`SHUTDOWN` verbs, tab-separated
//!   and JSON response encodings, parsers for both directions;
//! * [`server`] — the front end every daemon shares: listeners, a worker
//!   pool with **bounded admission** (`max_inflight` sessions; overload
//!   is answered with an explicit `BUSY` greeting / `503`, never
//!   unbounded queueing), the ticked socket reader, and graceful
//!   shutdown on SIGTERM / the `SHUTDOWN` verb;
//! * [`backend`] — the [`Backend`] trait the front end answers from,
//!   implemented by [`local::LocalTree`] here and by `tc-router`'s
//!   scatter/merge;
//! * [`local`] — `tc serve` itself: the local-tree backend, its
//!   configuration, and the line-protocol session; its [`answer`] is
//!   also what `tc query` prints for a local tree;
//! * [`client`] — a blocking session client, reused by
//!   `tc query --remote`, `tc-router`'s shard pools, and `bench/`;
//! * [`http`] — the HTTP/1.1 + JSON gateway (`GET /qba`, `GET /qbp`,
//!   `POST /query` batches, `GET /healthz`, `GET /metrics`), sharing the
//!   same pool, admission bound, and counters;
//! * [`metrics`] — the shared counters, per-verb latency histograms, and
//!   the Prometheus text writer behind `GET /metrics`;
//! * [`limit`] — per-client token-bucket rate limiting layered on the
//!   global inflight bound;
//! * [`reload`] — `SIGHUP` / handle-driven segment hot-reload: open and
//!   validate off-thread, then one atomic `Arc` swap; sessions are never
//!   dropped and every request answers from a single snapshot.
//!
//! ## Quick taste
//!
//! ```
//! use tc_core::DatabaseNetworkBuilder;
//! use tc_index::TcTreeBuilder;
//! use tc_serve::{ServeClient, ServeConfig, Server};
//! use tc_store::SegmentTcTree;
//!
//! // A tiny tree, served from memory on an ephemeral loopback port.
//! let mut b = DatabaseNetworkBuilder::new();
//! let beer = b.intern_item("beer");
//! for v in 0..3u32 {
//!     for _ in 0..4 {
//!         b.add_transaction(v, &[beer]);
//!     }
//! }
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let tree = TcTreeBuilder::default().build(&b.build().unwrap());
//! let mut bytes = Vec::new();
//! tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
//! let seg = SegmentTcTree::from_bytes(bytes).unwrap();
//!
//! let server = Server::bind(seg, "127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let daemon = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = ServeClient::connect(&addr).unwrap();
//! let answer = client.qba(0.0).unwrap();
//! assert_eq!(answer.retrieved, tree.query_by_alpha(0.0).retrieved_nodes);
//! client.shutdown_server().unwrap();
//! daemon.join().unwrap();
//! ```

pub mod backend;
pub mod client;
pub mod http;
pub mod limit;
pub mod local;
pub mod metrics;
pub mod protocol;
pub mod reload;
pub mod server;

pub use backend::{Answer, Backend, QuerySpec};
pub use client::{ClientError, RemoteResult, RetryPolicy, ServeClient};
pub use http::{HttpClient, HttpResponse};
pub use limit::{RateLimit, RateLimiter};
pub use local::{answer, LocalTree, ServeConfig, Server, ServerHandle};
pub use metrics::{Exposition, Histogram, Metrics};
pub use protocol::{Greeting, QueryResponse, Request, TrussSummary, PROTOCOL_VERSION};
pub use reload::TreeSlot;
pub use server::{install_signal_handlers, Admission, FrontEnd, Handle, StatsSnapshot, Wire};
