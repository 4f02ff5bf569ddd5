//! The scatter backend's own counters and the `tcrouter_*` metric table.
//!
//! Request, response, rejection and reload counters are the shared front
//! end's ([`tc_serve::Metrics`]); this module adds what only a router
//! knows (degraded-mode gauges, per-shard fan-out) and names the whole
//! table. It goes through tc-serve's [`Exposition`] writer and bucket
//! grid, so shard daemons and the gateway can be graphed on one axis.

use crate::pool::{ShardPool, ShardTally};
use crate::{totals, Shards};
use std::sync::atomic::{AtomicU64, Ordering};
use tc_serve::{Exposition, Metrics};

/// What the scatter tracks beyond the front end's counters.
#[derive(Default)]
pub(crate) struct ScatterMetrics {
    /// 200-responses served with shards missing (`--partial`).
    pub partial_responses: AtomicU64,
    /// Gauge: shards that failed in the most recent scatter.
    pub shards_down: AtomicU64,
    /// Shard RPCs attempted against shards a reload dropped from the map
    /// (a shard the new map keeps hands its tally on instead).
    pub retired_fanout: AtomicU64,
    /// Shard RPCs failed against shards a reload dropped from the map.
    pub retired_errors: AtomicU64,
}

impl ScatterMetrics {
    /// Folds the pools of shards a reload dropped into the retired totals.
    pub fn retire(&self, dropped: &[ShardPool]) {
        let (fanout, errors) = totals(dropped);
        self.retired_fanout.fetch_add(fanout, Ordering::Relaxed);
        self.retired_errors.fetch_add(errors, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition (`GET /metrics`).
    /// (`/metrics` itself is deliberately uncounted: scraping must not
    /// move what it measures.)
    pub fn render_prometheus(&self, front: &Metrics, inflight: u64, shards: &Shards) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let per_shard = |value: fn(&ShardTally) -> &AtomicU64| -> Vec<(String, u64)> {
            shards
                .pools
                .iter()
                .map(|p| (format!("{{shard=\"{}\"}}", p.id), load(value(&p.tally))))
                .collect()
        };
        let mut out = Exposition::default();
        out.family(
            "tcrouter_requests_total",
            "counter",
            "Scatter-gather requests accepted, by verb.",
            &[
                ("{verb=\"qba\"}", load(&front.qba)),
                ("{verb=\"qbp\"}", load(&front.qbp)),
                ("{verb=\"query\"}", load(&front.query)),
                ("{verb=\"batch\"}", load(&front.batch)),
                ("{verb=\"healthz\"}", load(&front.stats)),
            ],
        );
        out.family(
            "tcrouter_http_responses_total",
            "counter",
            "Responses written, by status code.",
            &front.http_response_series(),
        );
        out.family(
            "tcrouter_requests_rejected_total",
            "counter",
            "Requests refused before fan-out, by reason.",
            &[
                ("{reason=\"rate_limited\"}", load(&front.rate_limited)),
                ("{reason=\"protocol\"}", load(&front.protocol_errors)),
            ],
        );
        out.family(
            "tcrouter_partial_responses_total",
            "counter",
            "Responses served with one or more shards missing (--partial).",
            &[("", load(&self.partial_responses))],
        );
        out.family(
            "tcrouter_reloads_total",
            "counter",
            "Shard-map reloads, by outcome.",
            &[
                ("{outcome=\"ok\"}", load(&front.reloads)),
                ("{outcome=\"error\"}", load(&front.reload_failures)),
            ],
        );
        out.family(
            "tcrouter_shards",
            "gauge",
            "Shards in the active map.",
            &[("", shards.pools.len() as u64)],
        );
        out.family(
            "tcrouter_shards_down",
            "gauge",
            "Shards that failed in the most recent scatter (degraded mode when > 0).",
            &[("", load(&self.shards_down))],
        );
        out.family(
            "tcrouter_inflight_sessions",
            "gauge",
            "HTTP sessions currently admitted.",
            &[("", inflight)],
        );
        out.family(
            "tcrouter_fanout_total",
            "counter",
            "Shard RPCs attempted, by shard.",
            &per_shard(|t| &t.fanout),
        );
        out.family(
            "tcrouter_shard_errors_total",
            "counter",
            "Shard RPCs that failed at the transport layer, by shard.",
            &per_shard(|t| &t.errors),
        );
        out.histograms(
            "tcrouter_shard_latency_seconds",
            "Shard RPC round-trip latency, by shard.",
            &shards
                .pools
                .iter()
                .map(|p| (format!("shard=\"{}\"", p.id), &p.tally.latency))
                .collect::<Vec<_>>(),
        );
        out.histograms(
            "tcrouter_request_latency_seconds",
            "End-to-end router latency (scatter + merge), by verb.",
            &front.verb_latency_series(),
        );
        out.finish()
    }
}
