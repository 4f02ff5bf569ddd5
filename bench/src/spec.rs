//! The benchmark's contract in code: the three workloads and every metric
//! name and unit. `BENCHMARK.json` at the repository root states the same
//! lists with bounds; a test holds the two together.

use crate::daemon::Front;
use crate::inputs::Input;

pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    /// The front end the serving slices drive.
    pub front: Front,
    /// Serve under a cache budget of a tenth of the run's working set.
    pub cache_tenth: bool,
}

/// Every workload runs the whole chain on its input — mine, index, write,
/// spawn, serve — and reports every end-to-end metric; what differs is the
/// input, the front end and the cache budget. Why each exists is in
/// `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense-churn",
        input: Input::CoauthorDense,
        front: Front::Line,
        cache_tenth: true,
    },
    Workload {
        name: "sparse-point",
        input: Input::SynSparse,
        front: Front::Line,
        cache_tenth: false,
    },
    Workload {
        name: "sparse-routed",
        input: Input::SynSparse,
        front: Front::Routed,
        cache_tenth: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of what a user of the system sees; printed by untraced
/// runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("index_s", "s"),
    ("index_bytes", "B"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("daemon_peak_rss_mb", "MB"),
    ("cold_first_answer_ms", "ms"),
];

/// `(name, unit)` of the single-layer metrics, `layer.metric`; printed by
/// traced runs.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("util.steal_ns_per_task", "ns"),
    ("util.steal_t1_overhead", "ratio"),
    ("util.crc32_mb_per_s", "MB/s"),
    ("util.json_parse_us", "us"),
    ("txdb.candidate_gen_s", "s"),
    ("txdb.candidates", "count"),
    ("core.level1_s", "s"),
    ("core.intersect_s", "s"),
    ("core.induce_s", "s"),
    ("core.mptd_s", "s"),
    ("core.mptd_calls", "count"),
    ("core.pruned_by_intersection", "count"),
    ("core.mptd_us_per_call", "us"),
    ("core.replay_residual_pct", "%"),
    ("core.mine_serial_s", "s"),
    ("core.parallel_speedup", "ratio"),
    ("core.decompose_us_per_node", "us"),
    ("core.truss_at_us", "us"),
    ("index.build_t1_s", "s"),
    ("index.build_speedup", "ratio"),
    ("index.decompositions", "count"),
    ("index.candidates", "count"),
    ("index.pruned_by_intersection", "count"),
    ("index.peak_heap_mb", "MB"),
    ("index.query_mem_p50_us", "us"),
    ("store.segment_write_s", "s"),
    ("store.bytes_per_node", "B"),
    ("store.open_ms", "ms"),
    ("store.page_read_us", "us"),
    ("store.materialize_us_per_node", "us"),
    ("store.query_warm_p50_us", "us"),
    ("store.query_budgeted_p50_us", "us"),
    ("store.query_budgeted_mean_us", "us"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.evictions_per_query", "count"),
    ("store.materialized_per_query", "count"),
    ("store.cache_peak_bytes", "B"),
    ("serve.parse_ns", "ns"),
    ("serve.encode_tab_us", "us"),
    ("serve.encode_json_us", "us"),
    ("serve.batch_parse_us", "us"),
    ("serve.rtt_floor_us", "us"),
    ("serve.http_rtt_floor_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.line_p50_us", "us"),
    ("serve.front_end_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_tax", "ratio"),
    ("serve.cache_hit_ratio_pct", "%"),
    ("serve.rejected_busy", "count"),
    ("serve.timeouts", "count"),
    ("serve.protocol_errors", "count"),
    ("router.direct_get_p50_us", "us"),
    ("router.routed_p50_us", "us"),
    ("router.tax", "ratio"),
    ("router.shard_rtt_p50_us", "us"),
    ("router.merge_us", "us"),
    ("router.overhead_us", "us"),
    ("router.fanout_per_request", "count"),
    ("router.shard_errors", "count"),
    ("cli.spawn_to_listening_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Measured values by metric name, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} measured twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// in table order, with its unit. A metric the run did not measure, or
    /// measured as a non-number, is a bug in the harness.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_util::json::{parse, JsonValue};

    fn names_and_units(list: &JsonValue) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// None missing, none extra, same order, same units — and the names
    /// the contract allows.
    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let contract = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads = names_and_units(contract.get("workloads").unwrap());
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            workloads
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            ours
        );
        assert_eq!(
            names_and_units(contract.get("end_to_end").unwrap()),
            own(&END_TO_END)
        );
        assert_eq!(
            names_and_units(contract.get("per_layer").unwrap()),
            own(&PER_LAYER)
        );
        let allowed = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for name in ours
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
        {
            assert!(allowed(name), "name {name} breaks the contract");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn result_metrics_round_trip() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.put(name, 1.5 + i as f64);
        }
        let v = parse(&m.to_json(&END_TO_END)).unwrap();
        let JsonValue::Obj(fields) = &v else {
            panic!("not an object")
        };
        assert_eq!(
            fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            v.get("p50_us")
                .and_then(|p| p.get("value"))
                .and_then(|x| x.as_num()),
            Some(6.5)
        );
        assert_eq!(
            v.get("qps")
                .and_then(|p| p.get("unit"))
                .and_then(|x| x.as_str()),
            Some("1/s")
        );
    }
}
