//! Serving telemetry: the front end's monotonic counters, per-verb latency
//! histograms, the [`Exposition`] writer behind every `GET /metrics`, and
//! `tc serve`'s own `tcserve_*` metric table.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tc_store::CacheStats;

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

/// HTTP response status codes the gateway can produce, in exposition
/// order. Indexes into [`Metrics::http_responses`].
pub const HTTP_CODES: [u16; 8] = [200, 400, 404, 405, 413, 429, 500, 503];

/// The daemon's shared telemetry: admission, per-verb, error, reload, and
/// HTTP-response counters plus per-verb latency histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted (admitted + rejected), both front-ends.
    pub accepted: AtomicU64,
    /// Sessions admitted past admission control.
    pub admitted: AtomicU64,
    /// Connections rejected with a `BUSY` greeting (or drained at
    /// shutdown before service).
    pub rejected_busy: AtomicU64,
    /// Requests or connections rejected by per-client rate limiting.
    pub rate_limited: AtomicU64,
    /// `QBA` requests served (both front-ends).
    pub qba: AtomicU64,
    /// `QBP` requests served (both front-ends).
    pub qbp: AtomicU64,
    /// General `QUERY` requests served (both front-ends).
    pub query: AtomicU64,
    /// `STATS` / `/healthz` introspection requests served.
    pub stats: AtomicU64,
    /// `POST /query` batch requests served (each carrying many queries).
    pub batch: AtomicU64,
    /// Malformed requests answered with an error (both front-ends).
    pub protocol_errors: AtomicU64,
    /// Queries that failed server-side (e.g. segment corruption).
    pub query_failures: AtomicU64,
    /// Sessions closed for sitting idle past the configured timeout.
    pub timeouts: AtomicU64,
    /// Segment hot-reloads completed (SIGHUP or handle-driven swaps).
    pub reloads: AtomicU64,
    /// Hot-reload attempts that failed validation (old segment kept).
    pub reload_failures: AtomicU64,
    /// HTTP responses by status code, indexed parallel to [`HTTP_CODES`].
    pub http_responses: [AtomicU64; HTTP_CODES.len()],
    /// Server-side `QBA` latency.
    pub qba_latency: Histogram,
    /// Server-side `QBP` latency.
    pub qbp_latency: Histogram,
    /// Server-side general-`QUERY` latency.
    pub query_latency: Histogram,
    /// Whole-request latency of `POST /query` batches.
    pub batch_latency: Histogram,
}

impl Metrics {
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

    /// The `{code="…"}` series of an HTTP-responses counter family.
    pub fn http_response_series(&self) -> Vec<(String, u64)> {
        HTTP_CODES
            .iter()
            .zip(&self.http_responses)
            .map(|(code, n)| (format!("{{code=\"{code}\"}}"), n.load(Ordering::Relaxed)))
            .collect()
    }

    /// The `verb="…"` series of a request-latency histogram family.
    pub fn verb_latency_series(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("verb=\"qba\"", &self.qba_latency),
            ("verb=\"qbp\"", &self.qbp_latency),
            ("verb=\"query\"", &self.query_latency),
            ("verb=\"batch\"", &self.batch_latency),
        ]
    }

    /// Renders the `tcserve_*` Prometheus text exposition.
    ///
    /// Gauges that live outside the counter set — inflight sessions, the
    /// served segment's node count (excluding the root) and its node-cache
    /// snapshot — are passed in by the caller holding the current tree (it
    /// is swappable via hot-reload, so [`Metrics`] never holds it).
    pub fn render_prometheus(&self, inflight: u64, tree_nodes: u64, cache: CacheStats) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = Exposition::default();
        out.family(
            "tcserve_connections_total",
            "counter",
            "Connections accepted, by admission outcome.",
            &[
                ("{outcome=\"admitted\"}", load(&self.admitted)),
                ("{outcome=\"busy\"}", load(&self.rejected_busy)),
                ("{outcome=\"rate_limited\"}", load(&self.rate_limited)),
            ],
        );
        out.family(
            "tcserve_requests_total",
            "counter",
            "Requests served, by verb (both front-ends).",
            &[
                ("{verb=\"qba\"}", load(&self.qba)),
                ("{verb=\"qbp\"}", load(&self.qbp)),
                ("{verb=\"query\"}", load(&self.query)),
                ("{verb=\"stats\"}", load(&self.stats)),
                ("{verb=\"batch\"}", load(&self.batch)),
            ],
        );
        out.family(
            "tcserve_errors_total",
            "counter",
            "Failed requests, by failure kind.",
            &[
                ("{kind=\"protocol\"}", load(&self.protocol_errors)),
                ("{kind=\"query\"}", load(&self.query_failures)),
                ("{kind=\"timeout\"}", load(&self.timeouts)),
            ],
        );
        out.family(
            "tcserve_http_responses_total",
            "counter",
            "HTTP responses sent, by status code.",
            &self.http_response_series(),
        );
        out.family(
            "tcserve_reloads_total",
            "counter",
            "Segment hot-reloads completed without dropping sessions.",
            &[("", load(&self.reloads))],
        );
        out.family(
            "tcserve_reload_failures_total",
            "counter",
            "Hot-reload attempts rejected at validation (old segment kept).",
            &[("", load(&self.reload_failures))],
        );
        out.family(
            "tcserve_inflight_sessions",
            "gauge",
            "Sessions admitted but not yet finished.",
            &[("", inflight)],
        );
        out.family(
            "tcserve_tree_nodes",
            "gauge",
            "TC-Tree nodes in the currently served segment.",
            &[("", tree_nodes)],
        );
        out.family(
            "tcserve_tree_materialized_nodes",
            "gauge",
            "TC-Tree nodes currently resident in the node cache (falls on eviction).",
            &[("", cache.resident as u64)],
        );
        out.family(
            "tcserve_tree_materialized_total",
            "counter",
            "Node materialisations since open (re-parses after eviction count again).",
            &[("", cache.materialized_total)],
        );
        out.family(
            "tcserve_cache_bytes_used",
            "gauge",
            "Accounted bytes of resident truss decompositions.",
            &[("", cache.bytes_used)],
        );
        out.family(
            "tcserve_cache_bytes_budget",
            "gauge",
            "Configured node-cache byte budget (0 = unbounded).",
            &[("", cache.budget.unwrap_or(0))],
        );
        out.family(
            "tcserve_cache_evictions_total",
            "counter",
            "Nodes evicted by the cache's clock sweep.",
            &[("", cache.evictions)],
        );
        out.family(
            "tcserve_cache_lookups_total",
            "counter",
            "Node-cache lookups, by outcome.",
            &[
                ("{outcome=\"hit\"}", cache.hits),
                ("{outcome=\"miss\"}", cache.misses),
            ],
        );
        out.family(
            "tcserve_cache_hit_ratio",
            "gauge",
            "Node-cache hit fraction in [0, 1] (1 before any lookup).",
            &[("", cache.hit_ratio())],
        );
        out.histograms(
            "tcserve_request_latency_seconds",
            "Server-side request latency, by verb.",
            &self.verb_latency_series(),
        );
        out.finish()
    }
}

/// A Prometheus text exposition (format version 0.0.4) under
/// construction — the one writer both daemons' metric tables go through.
#[derive(Debug, Default)]
pub struct Exposition(String);

impl Exposition {
    /// Appends one counter or gauge family: its `HELP`/`TYPE` header, then
    /// one sample per `(labels, value)` — `labels` is the braced label set
    /// (`{verb="qba"}`) or empty.
    pub fn family<L: std::fmt::Display, V: std::fmt::Display>(
        &mut self,
        name: &str,
        kind: &str,
        help: &str,
        series: &[(L, V)],
    ) {
        let out = &mut self.0;
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, value) in series {
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
    }

    /// Appends one histogram family: its header, then for each
    /// `(label, histogram)` the cumulative `le` buckets, sum, and count —
    /// `label` is one bare pair (`verb="qba"`).
    pub fn histograms<L: std::fmt::Display>(
        &mut self,
        name: &str,
        help: &str,
        series: &[(L, &Histogram)],
    ) {
        let out = &mut self.0;
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        for (label, h) in series {
            let cumulative = h.cumulative_buckets();
            for (bound, cum) in LATENCY_BUCKETS_SECS.iter().zip(&cumulative) {
                out.push_str(&format!("{name}_bucket{{{label},le=\"{bound}\"}} {cum}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{{label},le=\"+Inf\"}} {}\n",
                cumulative.last().copied().unwrap_or(0)
            ));
            out.push_str(&format!("{name}_sum{{{label}}} {}\n", h.sum_secs()));
            out.push_str(&format!("{name}_count{{{label}}} {}\n", h.count()));
        }
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn exposition_is_valid_prometheus_text() {
        let m = Metrics::default();
        m.qba.fetch_add(3, Ordering::Relaxed);
        m.qba_latency.observe(0.0001);
        m.count_http_response(200);
        m.count_http_response(418); // unknown → folds into 500
        let text = m.render_prometheus(
            2,
            1469,
            CacheStats {
                bytes_used: 4096,
                budget: Some(65536),
                resident: 17,
                materialized_total: 23,
                evictions: 6,
                hits: 40,
                misses: 10,
            },
        );
        assert!(text.contains("tcserve_requests_total{verb=\"qba\"} 3\n"));
        assert!(text.contains("tcserve_inflight_sessions 2\n"));
        assert!(text.contains("tcserve_tree_materialized_nodes 17\n"));
        assert!(text.contains("tcserve_tree_materialized_total 23\n"));
        assert!(text.contains("tcserve_cache_bytes_used 4096\n"));
        assert!(text.contains("tcserve_cache_bytes_budget 65536\n"));
        assert!(text.contains("tcserve_cache_evictions_total 6\n"));
        assert!(text.contains("tcserve_cache_lookups_total{outcome=\"hit\"} 40\n"));
        assert!(text.contains("tcserve_cache_hit_ratio 0.8\n"));
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
        let m = Metrics::default();
        m.qbp_latency.observe(0.002);
        let text = m.render_prometheus(0, 0, CacheStats::default());
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
