//! The scatter backend's own counters and the `tcrouter_*` metric table.
//!
//! Request, response, rejection and reload counters are the shared front
//! end's ([`tc_serve::Counter`]); this module adds what only a router
//! knows (degraded-mode gauges, per-shard fan-out) and declares the whole
//! table. It renders through tc-serve's writer and bucket grid, so shard
//! daemons and the gateway can be graphed on one axis.

use crate::pool::{ShardPool, ShardTally};
use crate::{totals, Scatter, Shards};
use std::sync::atomic::{AtomicU64, Ordering};
use tc_serve::{Counter, Family, Samples};

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
}

/// `tc router`'s `/metrics` table. (`/metrics` itself is deliberately
/// uncounted: scraping must not move what it measures.)
#[rustfmt::skip]
pub(crate) const TABLE: &[Family<Scatter>] = &[
    Family { name: "tcrouter_requests_total", kind: "counter", label: "verb",
        help: "Scatter-gather requests accepted, by verb.",
        samples: Samples::Counters(&[("qba", Counter::Qba), ("qbp", Counter::Qbp),
            ("query", Counter::Query), ("batch", Counter::Batch), ("healthz", Counter::Stats)]) },
    Family { name: "tcrouter_http_responses_total", kind: "counter", label: "code",
        help: "Responses written, by status code.",
        samples: Samples::HttpResponses },
    Family { name: "tcrouter_requests_rejected_total", kind: "counter", label: "reason",
        help: "Requests refused before fan-out, by reason.",
        samples: Samples::Counters(&[("rate_limited", Counter::RateLimited),
            ("protocol", Counter::ProtocolErrors)]) },
    Family { name: "tcrouter_partial_responses_total", kind: "counter", label: "",
        help: "Responses served with one or more shards missing (--partial).",
        samples: Samples::<Scatter>::Value(|s, _| load(&s.metrics.partial_responses)) },
    Family { name: "tcrouter_reloads_total", kind: "counter", label: "outcome",
        help: "Shard-map reloads, by outcome.",
        samples: Samples::Counters(&[("ok", Counter::Reloads),
            ("error", Counter::ReloadFailures)]) },
    Family { name: "tcrouter_shards", kind: "gauge", label: "",
        help: "Shards in the active map.",
        samples: Samples::<Scatter>::Value(|_, shards| shards.pools.len().to_string()) },
    Family { name: "tcrouter_shards_down", kind: "gauge", label: "",
        help: "Shards that failed in the most recent scatter (degraded mode when > 0).",
        samples: Samples::<Scatter>::Value(|s, _| load(&s.metrics.shards_down)) },
    Family { name: "tcrouter_inflight_sessions", kind: "gauge", label: "",
        help: "HTTP sessions currently admitted.",
        samples: Samples::Inflight },
    Family { name: "tcrouter_fanout_total", kind: "counter", label: "shard",
        help: "Shard RPCs attempted, by shard.",
        samples: Samples::<Scatter>::Series(|_, shards| per_shard(shards, |t| &t.fanout)) },
    Family { name: "tcrouter_shard_errors_total", kind: "counter", label: "shard",
        help: "Shard RPCs that failed at the transport layer, by shard.",
        samples: Samples::<Scatter>::Series(|_, shards| per_shard(shards, |t| &t.errors)) },
    Family { name: "tcrouter_shard_latency_seconds", kind: "histogram", label: "shard",
        help: "Shard RPC round-trip latency, by shard.",
        samples: Samples::<Scatter>::Histograms(|shards| {
            shards.pools.iter().map(|p| (p.id.to_string(), &p.tally.latency)).collect()
        }) },
    Family { name: "tcrouter_request_latency_seconds", kind: "histogram", label: "verb",
        help: "End-to-end router latency (scatter + merge), by verb.",
        samples: Samples::VerbLatency },
];

/// A counter's value, as a sample.
fn load(counter: &AtomicU64) -> String {
    counter.load(Ordering::Relaxed).to_string()
}

/// One `(shard id, value)` series per pool of `shards`.
fn per_shard(shards: &Shards, value: fn(&ShardTally) -> &AtomicU64) -> Vec<(String, u64)> {
    let pools = shards.pools.iter();
    pools
        .map(|p| (p.id.to_string(), value(&p.tally).load(Ordering::Relaxed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::{Scatter, Shards};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use tc_serve::metrics::HTTP_CODES;
    use tc_serve::{Backend, Counter, Family, LocalTree, Metrics, Samples};
    use tc_store::shardmap::{HashScheme, ShardEntry};
    use tc_store::ShardMap;
    use tc_util::sync::Mutex;

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

    /// The router's exposition over two shards, with a distinct value in
    /// every counter, HTTP code, gauge and histogram: a swapped series or
    /// a reordered family changes bytes.
    #[test]
    fn tcrouter_exposition_is_pinned_byte_for_byte() {
        let front = Metrics::default();
        for (key, n) in COUNTERS {
            set_counter(&front, key, n);
        }
        for (i, code) in HTTP_CODES.into_iter().enumerate() {
            for _ in 0..21 + 2 * i {
                front.count_http_response(code);
            }
        }
        for (i, (_, h)) in front.verb_latency_series().into_iter().enumerate() {
            for k in 0..=i {
                h.observe([10e-6, 0.002, 0.3, 30.0][k] * (i + 1) as f64);
            }
        }
        let entry = |port: u16| ShardEntry {
            addr: format!("127.0.0.1:{port}"),
            path: String::new(),
        };
        let map = ShardMap {
            scheme: HashScheme::Crc32Item,
            items: vec![0, 1, 2],
            shards: vec![entry(1), entry(2)],
        };
        let shards = Arc::new(Shards::new(map, &[]));
        for (i, pool) in shards.pools.iter().enumerate() {
            let i = i as u64;
            pool.tally.fanout.store(41 + i, Ordering::Relaxed);
            pool.tally.errors.store(43 + i, Ordering::Relaxed);
            for k in 0..=i {
                pool.tally.latency.observe(0.0004 * (k + i + 1) as f64);
            }
        }
        let scatter = Scatter {
            shards: Mutex::new(shards.clone()),
            partial: true,
            map_path: None,
            metrics: Default::default(),
        };
        scatter
            .metrics
            .partial_responses
            .store(51, Ordering::Relaxed);
        scatter.metrics.shards_down.store(1, Ordering::Relaxed);
        let text = scatter.render_metrics(&shards, &front, 7);
        assert_eq!(text, TCROUTER_GOLDEN);
    }

    /// The declared label values of `f`: `None` when they are known
    /// only at render time, empty when `f` is unlabelled.
    fn label_values<B: Backend>(f: &Family<B>) -> Option<Vec<String>> {
        let values = match &f.samples {
            _ if f.label.is_empty() => Vec::new(),
            Samples::Counters(series) => series.iter().map(|(v, _)| v.to_string()).collect(),
            Samples::HttpResponses => HTTP_CODES.iter().map(u16::to_string).collect(),
            Samples::VerbLatency => {
                let front = Metrics::default();
                let verbs = front.verb_latency_series();
                verbs.iter().map(|(v, _)| v.to_string()).collect()
            }
            Samples::Values(values, _) => values.iter().map(|v| v.to_string()).collect(),
            Samples::Inflight | Samples::Value(_) => Vec::new(),
            Samples::Series(_) | Samples::Histograms(_) => return None,
        };
        Some(values)
    }

    /// Where `doc` (docs/OPERATIONS.md) disagrees with `table`, one line
    /// per disagreement; empty when they agree.
    ///
    /// * Every family has a table row — `` | `name` | type | labels | ``,
    ///   and a row may name several families — with its type and label
    ///   key. The labels cell reads `` `key` = v1 / v2 `` (a value's first
    ///   word counts; the rest, and anything after ` — `, is commentary),
    ///   or the key alone for label values known only at render time; an
    ///   unlabelled family's cell names no key.
    /// * Every `prefix` name anywhere in `doc` is a declared family, or a
    ///   `_bucket` / `_sum` / `_count` series of a declared histogram.
    fn doc_drift<B: Backend>(table: &[Family<B>], prefix: &str, doc: &str) -> Vec<String> {
        let mut rows = std::collections::BTreeMap::new();
        for line in doc.lines() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if let ["", names, kind, labels, ""] = cells[..] {
                for name in names.split('`').skip(1).step_by(2) {
                    rows.insert(name, (kind, labels));
                }
            }
        }
        let mut drift = Vec::new();
        for f in table {
            let Some(&(kind, labels)) = rows.get(f.name) else {
                drift.push(format!("{}: declared, but has no table row", f.name));
                continue;
            };
            if kind != f.kind {
                drift.push(format!(
                    "{}: type `{kind}` in the doc, `{}` declared",
                    f.name, f.kind
                ));
            }
            let (key, values) = match labels.strip_prefix('`').and_then(|l| l.split_once('`')) {
                Some((key, rest)) => (key, rest.trim_start().strip_prefix('=')),
                None => ("", None),
            };
            let values: Vec<String> = values
                .map(|v| v.split(" — ").next().unwrap())
                .into_iter()
                .flat_map(|v| v.split('/'))
                .filter_map(|v| v.split_whitespace().next())
                .map(str::to_string)
                .collect();
            let declared = label_values(f);
            if key != f.label || declared.as_ref().is_some_and(|d| *d != values) {
                let want = match (f.label, declared) {
                    ("", _) => "no label".to_string(),
                    (label, None) => format!("`{label}`"),
                    (label, Some(d)) => format!("`{label}` = {}", d.join(" / ")),
                };
                drift.push(format!(
                    "{}: labels [{labels}] in the doc, {want} declared",
                    f.name
                ));
            }
        }
        for (at, _) in doc.match_indices(prefix) {
            let tail = &doc[at..];
            let end = tail
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            let name = &tail[..end];
            let before = doc[..at].chars().next_back();
            let mid_word = before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            if name == prefix || mid_word {
                continue; // a bare prefix, or no metric name at all
            }
            let declared = table.iter().any(|f| {
                let sub = ["_bucket", "_sum", "_count"].map(|s| format!("{}{s}", f.name));
                f.name == name || (f.kind == "histogram" && sub.iter().any(|s| s == name))
            });
            if !declared {
                drift.push(format!("{name}: in the doc, but not declared"));
            }
        }
        drift
    }

    const OPERATIONS_MD: &str = include_str!("../../../docs/OPERATIONS.md");

    /// Both daemons' tables against docs/OPERATIONS.md — checked here,
    /// the one crate that sees both.
    #[test]
    fn operations_md_matches_both_tables() {
        for drift in [
            doc_drift(LocalTree::METRICS, "tcserve_", OPERATIONS_MD),
            doc_drift(super::TABLE, "tcrouter_", OPERATIONS_MD),
        ] {
            assert!(
                drift.is_empty(),
                "docs/OPERATIONS.md drifts:\n{}",
                drift.join("\n")
            );
        }
    }

    /// A doc that agrees with `tc serve`'s table: one row per family.
    fn agreeing_doc() -> String {
        let mut doc = String::from("| metric | type | labels |\n|---|---|---|\n");
        for f in LocalTree::METRICS {
            let labels = match label_values(f) {
                _ if f.label.is_empty() => "—".to_string(),
                Some(values) => format!("`{}` = {}", f.label, values.join(" / ")),
                None => format!("`{}`", f.label),
            };
            doc.push_str(&format!("| `{}` | {} | {labels} |\n", f.name, f.kind));
        }
        doc
    }

    /// Each kind of drift: a declared family with no row, an undeclared
    /// name in a table or in prose, a wrong type, and a wrong label key
    /// or value.
    #[test]
    fn doc_drift_reports_each_kind_of_drift() {
        let table = LocalTree::METRICS;
        let doc = agreeing_doc();
        assert_eq!(doc_drift(table, "tcserve_", &doc), Vec::<String>::new());

        // A declared family missing from the table.
        let missing = doc.replace("| `tcserve_tree_nodes` | gauge | — |\n", "");
        assert_eq!(
            doc_drift(table, "tcserve_", &missing),
            ["tcserve_tree_nodes: declared, but has no table row"]
        );
        // An undeclared name, in a table or in prose.
        for extra in [
            "| `tcserve_ghost_total` | counter | — |\n",
            "Watch `tcserve_ghost_total` climb.\n",
        ] {
            let drift = doc_drift(table, "tcserve_", &format!("{doc}{extra}"));
            assert_eq!(drift, ["tcserve_ghost_total: in the doc, but not declared"]);
        }
        // A wrong type.
        let retyped = doc.replace(
            "| `tcserve_tree_nodes` | gauge |",
            "| `tcserve_tree_nodes` | counter |",
        );
        assert_eq!(
            doc_drift(table, "tcserve_", &retyped),
            ["tcserve_tree_nodes: type `counter` in the doc, `gauge` declared"]
        );
        // A wrong label key, a wrong label value, a missing one, and a
        // label on an unlabelled family.
        let row = "`outcome` = admitted / busy / rate_limited";
        for wrong in [
            "`state` = admitted / busy / rate_limited",
            "`outcome` = admitted / rejected_busy / rate_limited",
            "`outcome` = admitted / busy",
        ] {
            let drift = doc_drift(table, "tcserve_", &doc.replacen(row, wrong, 1));
            assert_eq!(
                drift,
                [format!(
                    "tcserve_connections_total: labels [{wrong}] in the doc, \
                     `outcome` = admitted / busy / rate_limited declared"
                )]
            );
        }
        let labelled = doc.replace(
            "| `tcserve_tree_nodes` | gauge | — |",
            "| `tcserve_tree_nodes` | gauge | `shard` |",
        );
        assert_eq!(
            doc_drift(table, "tcserve_", &labelled),
            ["tcserve_tree_nodes: labels [`shard`] in the doc, no label declared"]
        );
    }

    #[test]
    fn doc_check_normalises_histogram_suffixes() {
        let table = LocalTree::METRICS;
        let doc = agreeing_doc();
        // A histogram's sub-series are its own; a counter has none, and a
        // bare prefix or a mid-identifier hit is no metric name.
        let prose = "`tcserve_request_latency_seconds_bucket`, `…_sum`, \
                     `tcserve_request_latency_seconds_count`; `tcserve_*`, x_tcserve_foo.\n";
        assert!(doc_drift(table, "tcserve_", &format!("{doc}{prose}")).is_empty());
        let counter_sum = format!("{doc}`tcserve_reloads_total_sum`\n");
        assert_eq!(
            doc_drift(table, "tcserve_", &counter_sum),
            ["tcserve_reloads_total_sum: in the doc, but not declared"]
        );
    }

    const TCROUTER_GOLDEN: &str = r#"# HELP tcrouter_requests_total Scatter-gather requests accepted, by verb.
# TYPE tcrouter_requests_total counter
tcrouter_requests_total{verb="qba"} 105
tcrouter_requests_total{verb="qbp"} 106
tcrouter_requests_total{verb="query"} 107
tcrouter_requests_total{verb="batch"} 109
tcrouter_requests_total{verb="healthz"} 108
# HELP tcrouter_http_responses_total Responses written, by status code.
# TYPE tcrouter_http_responses_total counter
tcrouter_http_responses_total{code="200"} 21
tcrouter_http_responses_total{code="400"} 23
tcrouter_http_responses_total{code="404"} 25
tcrouter_http_responses_total{code="405"} 27
tcrouter_http_responses_total{code="413"} 29
tcrouter_http_responses_total{code="429"} 31
tcrouter_http_responses_total{code="500"} 33
tcrouter_http_responses_total{code="503"} 35
# HELP tcrouter_requests_rejected_total Requests refused before fan-out, by reason.
# TYPE tcrouter_requests_rejected_total counter
tcrouter_requests_rejected_total{reason="rate_limited"} 104
tcrouter_requests_rejected_total{reason="protocol"} 110
# HELP tcrouter_partial_responses_total Responses served with one or more shards missing (--partial).
# TYPE tcrouter_partial_responses_total counter
tcrouter_partial_responses_total 51
# HELP tcrouter_reloads_total Shard-map reloads, by outcome.
# TYPE tcrouter_reloads_total counter
tcrouter_reloads_total{outcome="ok"} 113
tcrouter_reloads_total{outcome="error"} 114
# HELP tcrouter_shards Shards in the active map.
# TYPE tcrouter_shards gauge
tcrouter_shards 2
# HELP tcrouter_shards_down Shards that failed in the most recent scatter (degraded mode when > 0).
# TYPE tcrouter_shards_down gauge
tcrouter_shards_down 1
# HELP tcrouter_inflight_sessions HTTP sessions currently admitted.
# TYPE tcrouter_inflight_sessions gauge
tcrouter_inflight_sessions 7
# HELP tcrouter_fanout_total Shard RPCs attempted, by shard.
# TYPE tcrouter_fanout_total counter
tcrouter_fanout_total{shard="0"} 41
tcrouter_fanout_total{shard="1"} 42
# HELP tcrouter_shard_errors_total Shard RPCs that failed at the transport layer, by shard.
# TYPE tcrouter_shard_errors_total counter
tcrouter_shard_errors_total{shard="0"} 43
tcrouter_shard_errors_total{shard="1"} 44
# HELP tcrouter_shard_latency_seconds Shard RPC round-trip latency, by shard.
# TYPE tcrouter_shard_latency_seconds histogram
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.000025"} 0
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.00005"} 0
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.0001"} 0
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.00025"} 0
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.0005"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.001"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.0025"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.005"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.01"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.05"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="0.25"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="1"} 1
tcrouter_shard_latency_seconds_bucket{shard="0",le="+Inf"} 1
tcrouter_shard_latency_seconds_sum{shard="0"} 0.0004
tcrouter_shard_latency_seconds_count{shard="0"} 1
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.000025"} 0
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.00005"} 0
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.0001"} 0
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.00025"} 0
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.0005"} 0
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.001"} 1
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.0025"} 2
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.005"} 2
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.01"} 2
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.05"} 2
tcrouter_shard_latency_seconds_bucket{shard="1",le="0.25"} 2
tcrouter_shard_latency_seconds_bucket{shard="1",le="1"} 2
tcrouter_shard_latency_seconds_bucket{shard="1",le="+Inf"} 2
tcrouter_shard_latency_seconds_sum{shard="1"} 0.002
tcrouter_shard_latency_seconds_count{shard="1"} 2
# HELP tcrouter_request_latency_seconds End-to-end router latency (scatter + merge), by verb.
# TYPE tcrouter_request_latency_seconds histogram
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.000025"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.00005"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.0001"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.00025"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.0005"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.001"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.0025"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.005"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.01"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.05"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="0.25"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="1"} 1
tcrouter_request_latency_seconds_bucket{verb="qba",le="+Inf"} 1
tcrouter_request_latency_seconds_sum{verb="qba"} 0.00001
tcrouter_request_latency_seconds_count{verb="qba"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.000025"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.00005"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.0001"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.00025"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.0005"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.001"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.0025"} 1
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.005"} 2
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.01"} 2
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.05"} 2
tcrouter_request_latency_seconds_bucket{verb="qbp",le="0.25"} 2
tcrouter_request_latency_seconds_bucket{verb="qbp",le="1"} 2
tcrouter_request_latency_seconds_bucket{verb="qbp",le="+Inf"} 2
tcrouter_request_latency_seconds_sum{verb="qbp"} 0.00402
tcrouter_request_latency_seconds_count{verb="qbp"} 2
tcrouter_request_latency_seconds_bucket{verb="query",le="0.000025"} 0
tcrouter_request_latency_seconds_bucket{verb="query",le="0.00005"} 1
tcrouter_request_latency_seconds_bucket{verb="query",le="0.0001"} 1
tcrouter_request_latency_seconds_bucket{verb="query",le="0.00025"} 1
tcrouter_request_latency_seconds_bucket{verb="query",le="0.0005"} 1
tcrouter_request_latency_seconds_bucket{verb="query",le="0.001"} 1
tcrouter_request_latency_seconds_bucket{verb="query",le="0.0025"} 1
tcrouter_request_latency_seconds_bucket{verb="query",le="0.005"} 1
tcrouter_request_latency_seconds_bucket{verb="query",le="0.01"} 2
tcrouter_request_latency_seconds_bucket{verb="query",le="0.05"} 2
tcrouter_request_latency_seconds_bucket{verb="query",le="0.25"} 2
tcrouter_request_latency_seconds_bucket{verb="query",le="1"} 3
tcrouter_request_latency_seconds_bucket{verb="query",le="+Inf"} 3
tcrouter_request_latency_seconds_sum{verb="query"} 0.90603
tcrouter_request_latency_seconds_count{verb="query"} 3
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.000025"} 0
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.00005"} 1
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.0001"} 1
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.00025"} 1
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.0005"} 1
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.001"} 1
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.0025"} 1
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.005"} 1
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.01"} 2
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.05"} 2
tcrouter_request_latency_seconds_bucket{verb="batch",le="0.25"} 2
tcrouter_request_latency_seconds_bucket{verb="batch",le="1"} 2
tcrouter_request_latency_seconds_bucket{verb="batch",le="+Inf"} 4
tcrouter_request_latency_seconds_sum{verb="batch"} 121.20804
tcrouter_request_latency_seconds_count{verb="batch"} 4
"#;
}
