//! Serving telemetry: the front end's counters, per-verb latency
//! histograms, and the declared metric tables both daemons render
//! `GET /metrics` from.
//!
//! Each front-end counter is declared once, in [`Counter`]: [`Metrics`]
//! holds one `AtomicU64` per variant, and `STATS`, [`StatsSnapshot`] and
//! every `/metrics` series index it. Each daemon declares its `/metrics`
//! table once, as a list of [`Family`]s ([`Backend::METRICS`]), and
//! [`render`] writes any such table; tests hold docs/OPERATIONS.md to the
//! two tables.
//!
//! One [`Metrics`] instance is shared by every listener (the TCP line
//! protocol and the HTTP/JSON gateway), so `STATS` and `/metrics` read
//! the same numbers — there is exactly one source of serving truth per
//! daemon.
//!
//! Everything here is lock-free: counters are `AtomicU64`, histogram
//! buckets are `AtomicU64`, and the latency sum is accumulated in
//! nanoseconds (a `u64` holds ~584 years of queries). Rendering takes a
//! relaxed snapshot — `/metrics` under load never blocks a query.
//!
//! [`StatsSnapshot`]: crate::StatsSnapshot

use crate::backend::Backend;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds in seconds, chosen to straddle the
/// observed serving range: warm directory-pruned queries sit in the tens
/// of microseconds, cold full-tree scans in the tens of milliseconds, and
/// anything past a second is an outage in the making. The implicit final
/// bucket is `+Inf`.
pub const LATENCY_BUCKETS_SECS: [f64; 12] = [
    25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 50e-3, 250e-3, 1.0,
];

/// A fixed-bucket latency histogram in the Prometheus exposition model:
/// cumulative `le` buckets, a sum, and a count.
#[derive(Debug, Default)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts; index `i` counts
    /// observations `<= LATENCY_BUCKETS_SECS[i]` and greater than the
    /// previous bound. The overflow (`+Inf`) bucket is `buckets[12]`.
    buckets: [AtomicU64; LATENCY_BUCKETS_SECS.len() + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation of `secs` (negative or NaN observations
    /// are clamped to zero — a wall-clock can step backwards, telemetry
    /// must not corrupt for it).
    pub fn observe(&self, secs: f64) {
        let secs = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        let idx = LATENCY_BUCKETS_SECS
            .iter()
            .position(|&bound| secs <= bound)
            .unwrap_or(LATENCY_BUCKETS_SECS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let nanos = Duration::try_from_secs_f64(secs)
            .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(u64::MAX);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Cumulative bucket counts in `le` order, ending with the `+Inf`
    /// bucket (== total count at snapshot time).
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut total = 0;
        self.buckets
            .iter()
            .map(|b| {
                total += b.load(Ordering::Relaxed);
                total
            })
            .collect()
    }
}

/// Declares [`Counter`]: each variant with its doc and its `STATS` key,
/// in `STATS` order.
macro_rules! counters {
    ($($(#[$doc:meta])+ $name:ident = $key:literal,)+) => {
        /// One front-end counter. The variants are in `STATS` order, and
        /// each indexes [`Metrics`] and [`StatsSnapshot`].
        ///
        /// [`StatsSnapshot`]: crate::StatsSnapshot
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])+ $name,)+
        }

        impl Counter {
            /// Every counter, in `STATS` order.
            pub const ALL: [Counter; [$($key),+].len()] = [$(Counter::$name),+];

            /// The counter's `STATS` key.
            pub fn key(self) -> &'static str {
                match self {
                    $(Counter::$name => $key,)+
                }
            }
        }
    };
}

counters! {
    /// Connections accepted (admitted + rejected), every listener.
    Accepted = "accepted",
    /// Sessions admitted past admission control.
    Admitted = "admitted",
    /// Connections rejected with a `BUSY` greeting or `503` (or drained
    /// at shutdown before service).
    RejectedBusy = "rejected_busy",
    /// Requests or connections rejected by per-client rate limiting.
    RateLimited = "rate_limited",
    /// `QBA` requests served (both front ends).
    Qba = "qba",
    /// `QBP` requests served (both front ends).
    Qbp = "qbp",
    /// General `QUERY` requests served (both front ends).
    Query = "query",
    /// `STATS` / `/healthz` introspection requests served.
    Stats = "stats",
    /// `POST /query` batch requests served (each carrying many queries).
    Batch = "batch",
    /// Malformed requests answered with an error (both front ends).
    ProtocolErrors = "protocol_errors",
    /// Queries that failed server-side (segment corruption, shard down).
    QueryFailures = "query_failures",
    /// Sessions closed for sitting idle past the configured timeout.
    Timeouts = "timeouts",
    /// Hot-reloads completed (SIGHUP or handle-driven swaps).
    Reloads = "reloads",
    /// Hot-reload attempts that failed validation (old state kept).
    ReloadFailures = "reload_failures",
}

/// HTTP response status codes the gateway can produce, in exposition
/// order.
pub const HTTP_CODES: [u16; 8] = [200, 400, 404, 405, 413, 429, 500, 503];

/// The daemon's shared telemetry: one atomic per [`Counter`], the HTTP
/// responses by status code, and per-verb latency histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: [AtomicU64; Counter::ALL.len()],
    /// Indexed parallel to [`HTTP_CODES`].
    http_responses: [AtomicU64; HTTP_CODES.len()],
    /// Server-side `QBA` latency.
    pub(crate) qba_latency: Histogram,
    /// Server-side `QBP` latency.
    pub(crate) qbp_latency: Histogram,
    /// Server-side general-`QUERY` latency.
    pub(crate) query_latency: Histogram,
    /// Whole-request latency of `POST /query` batches.
    pub(crate) batch_latency: Histogram,
}

impl Metrics {
    /// Counts one event of `counter`.
    pub fn bump(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Every counter's value, indexed by [`Counter`].
    pub fn counters(&self) -> [u64; Counter::ALL.len()] {
        self.counters.each_ref().map(|c| c.load(Ordering::Relaxed))
    }

    /// Bumps the HTTP response counter for `code` (unknown codes count
    /// as 500 — the exposition set is closed).
    pub fn count_http_response(&self, code: u16) {
        // Fold unknown codes onto 500; if 500 itself ever left the list,
        // fold onto the last slot rather than panic in a request path.
        let fold = HTTP_CODES
            .iter()
            .position(|&c| c == 500)
            .unwrap_or(HTTP_CODES.len() - 1);
        let idx = HTTP_CODES.iter().position(|&c| c == code).unwrap_or(fold);
        self.http_responses[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The per-verb latency histograms, by `verb` label value.
    pub fn verb_latency_series(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("qba", &self.qba_latency),
            ("qbp", &self.qbp_latency),
            ("query", &self.query_latency),
            ("batch", &self.batch_latency),
        ]
    }
}

/// One family of a daemon's `/metrics` table: its name, Prometheus type
/// (`counter`, `gauge` or `histogram`), help text, label key (`""` for an
/// unlabelled family), and where its samples come from.
pub struct Family<B: Backend> {
    pub name: &'static str,
    pub kind: &'static str,
    pub help: &'static str,
    pub label: &'static str,
    pub samples: Samples<B>,
}

/// How a backend reads samples it alone knows: from itself and the
/// snapshot being served.
pub type ReadFn<B, T> = fn(&B, &<B as Backend>::Snapshot) -> T;

/// Where a [`Family`]'s samples come from: the front end's telemetry, or
/// what only the backend knows.
pub enum Samples<B: Backend> {
    /// Front-end counters, one series per `(label value, counter)`.
    Counters(&'static [(&'static str, Counter)]),
    /// The front end's HTTP responses, one series per [`HTTP_CODES`] entry.
    HttpResponses,
    /// The front end's admitted-but-unfinished sessions.
    Inflight,
    /// The front end's per-verb latency histograms.
    VerbLatency,
    /// One backend value, unlabelled.
    Value(ReadFn<B, String>),
    /// Backend values, one per label value listed.
    Values(&'static [&'static str], ReadFn<B, Vec<u64>>),
    /// Backend series whose label values are known only at render time.
    Series(ReadFn<B, Vec<(String, u64)>>),
    /// Backend histograms whose label values are known only at render
    /// time.
    Histograms(fn(&B::Snapshot) -> Vec<(String, &Histogram)>),
}

/// Renders `table` as a Prometheus text exposition (format version
/// 0.0.4): for each family its `HELP`/`TYPE` header, then its samples,
/// read from `front`, `inflight` and the backend's `snapshot`.
pub fn render<B: Backend>(
    table: &[Family<B>],
    backend: &B,
    snapshot: &B::Snapshot,
    front: &Metrics,
    inflight: u64,
) -> String {
    let counters = front.counters();
    let mut out = Exposition::default();
    for f in table {
        out.header(f);
        match &f.samples {
            Samples::Counters(series) => {
                for (value, c) in *series {
                    out.sample(f, value, counters[*c as usize]);
                }
            }
            Samples::HttpResponses => {
                for (code, n) in HTTP_CODES.iter().zip(&front.http_responses) {
                    out.sample(f, code, n.load(Ordering::Relaxed));
                }
            }
            Samples::Inflight => out.sample(f, "", inflight),
            Samples::VerbLatency => {
                for (verb, h) in front.verb_latency_series() {
                    out.histogram(f, verb, h);
                }
            }
            Samples::Value(read) => out.sample(f, "", read(backend, snapshot)),
            Samples::Values(values, read) => {
                for (value, sample) in values.iter().zip(read(backend, snapshot)) {
                    out.sample(f, value, sample);
                }
            }
            Samples::Series(read) => {
                for (value, sample) in read(backend, snapshot) {
                    out.sample(f, value, sample);
                }
            }
            Samples::Histograms(read) => {
                for (value, h) in read(snapshot) {
                    out.histogram(f, value, h);
                }
            }
        }
    }
    out.0
}

/// A Prometheus text exposition under construction — the one writer
/// both daemons' tables go through.
#[derive(Default)]
struct Exposition(String);

impl Exposition {
    /// A family's `HELP`/`TYPE` header.
    fn header<B: Backend>(&mut self, f: &Family<B>) {
        let _ = write!(
            self.0,
            "# HELP {0} {1}\n# TYPE {0} {2}\n",
            f.name, f.help, f.kind
        );
    }

    /// One counter or gauge sample: `name{label="value"} sample`, or
    /// `name sample` for an unlabelled family.
    fn sample<B: Backend>(&mut self, f: &Family<B>, value: impl Display, sample: impl Display) {
        let _ = match f.label {
            "" => writeln!(self.0, "{} {sample}", f.name),
            label => writeln!(self.0, "{}{{{label}=\"{value}\"}} {sample}", f.name),
        };
    }

    /// One labelled histogram: its cumulative `le` buckets, sum and count.
    fn histogram<B: Backend>(&mut self, f: &Family<B>, value: impl Display, h: &Histogram) {
        let (name, pair) = (f.name, format!("{}=\"{value}\"", f.label));
        let cumulative = h.cumulative_buckets();
        for (bound, cum) in LATENCY_BUCKETS_SECS.iter().zip(&cumulative) {
            let _ = writeln!(self.0, "{name}_bucket{{{pair},le=\"{bound}\"}} {cum}");
        }
        let total = cumulative.last().copied().unwrap_or(0);
        let _ = writeln!(self.0, "{name}_bucket{{{pair},le=\"+Inf\"}} {total}");
        let _ = writeln!(self.0, "{name}_sum{{{pair}}} {}", h.sum_secs());
        let _ = writeln!(self.0, "{name}_count{{{pair}}} {}", h.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, Server};
    use tc_core::DatabaseNetworkBuilder;
    use tc_index::TcTreeBuilder;
    use tc_store::SegmentTcTree;

    #[test]
    fn histogram_buckets_are_cumulative_and_count_everything() {
        let h = Histogram::default();
        h.observe(10e-6); // bucket 0 (<= 25µs)
        h.observe(30e-6); // bucket 1 (<= 50µs)
        h.observe(0.75); // bucket 11 (<= 1s)
        h.observe(30.0); // +Inf bucket
        h.observe(-1.0); // clamped to 0 → bucket 0
        h.observe(f64::NAN); // clamped to 0 → bucket 0
        let cum = h.cumulative_buckets();
        assert_eq!(cum.len(), LATENCY_BUCKETS_SECS.len() + 1);
        assert_eq!(cum[0], 3, "10µs + two clamped zeros");
        assert_eq!(cum[1], 4);
        assert_eq!(cum[11], 5);
        assert_eq!(*cum.last().unwrap(), 6, "+Inf holds every observation");
        assert_eq!(h.count(), 6);
        assert!((h.sum_secs() - (10e-6 + 30e-6 + 0.75 + 30.0)).abs() < 1e-9);
    }

    /// A `tc serve` front end over a one-item triangle, not yet serving.
    fn server() -> Server {
        let mut b = DatabaseNetworkBuilder::new();
        let beer = b.intern_item("beer");
        for v in 0..3u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[beer]);
            }
        }
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        let tree = TcTreeBuilder::default().build(&b.build().unwrap());
        let mut bytes = Vec::new();
        tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
        let seg = SegmentTcTree::from_bytes(bytes).unwrap();
        Server::bind(seg, "127.0.0.1:0", ServeConfig::default()).unwrap()
    }

    #[test]
    fn exposition_is_valid_prometheus_text() {
        let server = server();
        let handle = server.handle();
        let m = &handle.core.metrics;
        for _ in 0..3 {
            m.bump(Counter::Qba);
        }
        m.qba_latency.observe(0.0001);
        m.count_http_response(200);
        m.count_http_response(418); // unknown → folds into 500
        let text = handle.prometheus();
        assert!(text.contains("tcserve_requests_total{verb=\"qba\"} 3\n"));
        assert!(text.contains("tcserve_inflight_sessions 0\n"));
        assert!(text.contains("tcserve_tree_nodes 1\n"));
        assert!(text.contains("tcserve_cache_hit_ratio 1\n"));
        assert!(text.contains("tcserve_http_responses_total{code=\"200\"} 1\n"));
        assert!(text.contains("tcserve_http_responses_total{code=\"500\"} 1\n"));
        assert!(text.contains("le=\"+Inf\"} 1\n"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == ':'),
                "bad metric name in: {line}"
            );
            if let Some(rest) = series.split_once('{').map(|(_, r)| r) {
                assert!(rest.ends_with('}'), "unterminated labels in: {line}");
            }
        }
        // The histogram family header appears exactly once.
        assert_eq!(
            text.matches("# TYPE tcserve_request_latency_seconds histogram")
                .count(),
            1
        );
    }

    #[test]
    fn histogram_family_counts_every_verb_series() {
        let server = server();
        let handle = server.handle();
        handle.core.metrics.qbp_latency.observe(0.002);
        let text = handle.prometheus();
        for verb in ["qba", "qbp", "query", "batch"] {
            assert!(
                text.contains(&format!(
                    "tcserve_request_latency_seconds_count{{verb=\"{verb}\"}}"
                )),
                "missing series for {verb}"
            );
        }
        assert!(text.contains("tcserve_request_latency_seconds_count{verb=\"qbp\"} 1\n"));
    }
}
