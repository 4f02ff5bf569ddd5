//! Storage-format telemetry: text-load vs. segment-open query latency.
//!
//! For each dataset, builds the network and its TC-Tree once, persists
//! both in the text format and the `tc-store` segment format, then
//! measures the serving path each format offers:
//!
//! * **load/open** — text must parse the whole file; the segment reader
//!   validates the header and node directory only;
//! * **first query** — open + one QBA, the cold-start latency a serving
//!   process pays (the segment materialises only the retrieved nodes);
//! * **warm query** — steady-state QBA/QBP latency once caches are hot;
//! * **file size** — bytes on disk per format.
//!
//! A final `coldset` section measures the byte-budgeted node cache under
//! memory pressure (budget = segment/10); its deterministic `*_bytes`
//! ledger metrics are gated ±10% in CI.
//!
//! With `--json <path>` the numbers are also written as a
//! machine-readable report — CI uploads it as the `BENCH_pr.json`
//! artifact, one datapoint per PR.

use tc_bench::report::JsonReport;
use tc_bench::{build_dataset, fmt_count, fmt_secs, BenchArgs, Dataset, Table};
use tc_index::{TcTree, TcTreeBuilder};
use tc_store::{SegmentTcTree, StoreOptions};
use tc_txdb::Pattern;
use tc_util::Stopwatch;

fn main() {
    let args = BenchArgs::from_env();
    args.warn_unused_threads();
    let runs = if args.quick { 20 } else { 200 };
    let mut json = JsonReport::new("storage");

    let scratch = std::env::temp_dir().join(format!("tc_storage_bench_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    for dataset in args.datasets() {
        let name = dataset.name();
        let net = build_dataset(dataset, args.scale);
        let tree = TcTreeBuilder::default().build(&net);
        println!(
            "\n## Storage — {name}: {} vertices, {} tree nodes",
            fmt_count(net.num_vertices()),
            fmt_count(tree.num_nodes()),
        );

        // Persist both formats.
        let net_txt = scratch.join(format!("{name}.dbnet"));
        let net_seg = scratch.join(format!("{name}.net.seg"));
        let tree_txt = scratch.join(format!("{name}.tct"));
        let tree_seg = scratch.join(format!("{name}.tree.seg"));
        tc_data::save_network_to_path(&net, &net_txt).expect("save text network");
        tc_store::save_network_segment_to_path(&net, &net_seg).expect("save segment network");
        tree.save_to_path(&tree_txt).expect("save text tree");
        tc_store::save_tree_segment_to_path(&tree, &tree_seg).expect("save segment tree");

        let mut table = Table::new(
            format!("Storage formats ({name})"),
            &["Metric", "Text", "Segment"],
        );
        let size = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        table.push_row(vec![
            "network file size".into(),
            fmt_count(size(&net_txt) as usize),
            fmt_count(size(&net_seg) as usize),
        ]);
        table.push_row(vec![
            "tree file size".into(),
            fmt_count(size(&tree_txt) as usize),
            fmt_count(size(&tree_seg) as usize),
        ]);
        json.push(name, "net_text_bytes", size(&net_txt) as f64);
        json.push(name, "net_seg_bytes", size(&net_seg) as f64);
        json.push(name, "tree_text_bytes", size(&tree_txt) as f64);
        json.push(name, "tree_seg_bytes", size(&tree_seg) as f64);

        // Network load latency.
        let sw = Stopwatch::start();
        let loaded = tc_data::load_network_from_path(&net_txt).expect("load text network");
        let net_text_load = sw.elapsed_secs();
        assert_eq!(loaded.stats(), net.stats());
        let sw = Stopwatch::start();
        let loaded = tc_store::load_network_segment_from_path(&net_seg).expect("load seg network");
        let net_seg_load = sw.elapsed_secs();
        assert_eq!(loaded.stats(), net.stats());
        table.push_row(vec![
            "network load".into(),
            fmt_secs(net_text_load),
            fmt_secs(net_seg_load),
        ]);
        json.push(name, "net_text_load_secs", net_text_load);
        json.push(name, "net_seg_load_secs", net_seg_load);

        // Cold start: open the tree and answer one mid-range QBA.
        let alpha = tree.alpha_upper_bound() / 2.0;
        let sw = Stopwatch::start();
        let text_tree = TcTree::load_from_path(&tree_txt).expect("load text tree");
        let tree_text_load = sw.elapsed_secs();
        let first = text_tree.query_by_alpha(alpha);
        let text_first_query = tree_text_load + first.elapsed_secs;

        let sw = Stopwatch::start();
        let seg_tree = SegmentTcTree::open(&tree_seg).expect("open segment tree");
        let tree_seg_open = sw.elapsed_secs();
        let sw = Stopwatch::start();
        let seg_first = seg_tree.query_by_alpha(alpha).expect("segment QBA");
        let seg_first_query = tree_seg_open + sw.elapsed_secs();
        assert_eq!(first.retrieved_nodes, seg_first.retrieved_nodes);

        table.push_row(vec![
            "tree open/parse".into(),
            fmt_secs(tree_text_load),
            fmt_secs(tree_seg_open),
        ]);
        table.push_row(vec![
            "open + first QBA".into(),
            fmt_secs(text_first_query),
            fmt_secs(seg_first_query),
        ]);
        json.push(name, "tree_text_load_secs", tree_text_load);
        json.push(name, "tree_seg_open_secs", tree_seg_open);
        json.push(name, "first_qba_text_secs", text_first_query);
        json.push(name, "first_qba_seg_secs", seg_first_query);
        json.push(
            name,
            "first_qba_materialized_nodes",
            seg_tree.materialized_nodes() as f64,
        );

        // Warm steady state, averaged over `runs` repetitions.
        let warm = |f: &mut dyn FnMut()| {
            let sw = Stopwatch::start();
            for _ in 0..runs {
                f();
            }
            sw.elapsed_secs() / runs as f64
        };
        let text_warm = warm(&mut || {
            std::hint::black_box(text_tree.query_by_alpha(alpha));
        });
        let seg_warm = warm(&mut || {
            std::hint::black_box(seg_tree.query_by_alpha(alpha).expect("segment QBA"));
        });
        table.push_row(vec![
            format!("warm QBA (α={alpha:.3}, avg of {runs})"),
            fmt_secs(text_warm),
            fmt_secs(seg_warm),
        ]);
        json.push(name, "warm_qba_text_secs", text_warm);
        json.push(name, "warm_qba_seg_secs", seg_warm);

        // Warm QBP over every depth-1 pattern.
        let singles: Vec<Pattern> = text_tree
            .nodes_at_depth(1)
            .into_iter()
            .map(|id| text_tree.node(id).pattern.clone())
            .collect();
        if !singles.is_empty() {
            let text_qbp = warm(&mut || {
                for q in &singles {
                    std::hint::black_box(text_tree.query_by_pattern(q));
                }
            }) / singles.len() as f64;
            let seg_qbp = warm(&mut || {
                for q in &singles {
                    std::hint::black_box(seg_tree.query_by_pattern(q).expect("segment QBP"));
                }
            }) / singles.len() as f64;
            table.push_row(vec![
                format!("warm QBP (singleton, avg of {})", runs * singles.len()),
                fmt_secs(text_qbp),
                fmt_secs(seg_qbp),
            ]);
            json.push(name, "warm_qbp_text_secs", text_qbp);
            json.push(name, "warm_qbp_seg_secs", seg_qbp);
        }

        table.print();
    }

    coldset(&scratch, &args, runs, &mut json);

    std::fs::remove_dir_all(&scratch).ok();

    if let Some(path) = &args.json {
        json.write_to_path(path).expect("write json report");
        println!(
            "\nwrote {} telemetry datapoints to {}",
            json.len(),
            path.display()
        );
    }
}

/// Cold-set serving: the byte-budgeted node cache under memory pressure,
/// with a budget a tenth of the segment file — so every full sweep churns
/// ~90% of the working set through eviction — against the unbounded warm
/// path.
///
/// Always runs on the BK dataset regardless of `--dataset`, so the
/// telemetry group (`storage:coldset`) is one fixed, deterministic shape:
/// the `*_bytes` metrics (segment size, budget, working set, peak
/// residency) are pure functions of `--scale` and gate at ±10% in CI.
fn coldset(scratch: &std::path::Path, args: &BenchArgs, runs: usize, json: &mut JsonReport) {
    let net = build_dataset(Dataset::Bk, args.scale);
    let tree = TcTreeBuilder::default().build(&net);
    let seg_path = scratch.join("coldset.tree.seg");
    tc_store::save_tree_segment_to_path(&tree, &seg_path).expect("save coldset segment");
    let segment_bytes = std::fs::metadata(&seg_path).map(|m| m.len()).unwrap_or(0);
    let budget = (segment_bytes / 10).max(1);

    // The fully-materialised working set, from an unbounded twin's ledger.
    let unbounded = SegmentTcTree::open(&seg_path).expect("open unbounded");
    let full = unbounded.query_by_alpha(0.0).expect("unbounded sweep");
    let working_set_bytes = unbounded.cache_stats().bytes_used;

    println!(
        "\n## Storage — coldset (BK): {} tree nodes, {} segment bytes, budget {} bytes",
        fmt_count(tree.num_nodes()),
        fmt_count(segment_bytes as usize),
        fmt_count(budget as usize),
    );

    let opts = StoreOptions {
        cache_bytes: Some(budget),
    };
    let seg = SegmentTcTree::open_with(&seg_path, opts).expect("open budgeted");

    // Cold start: the first full sweep materialises every node once.
    let sw = Stopwatch::start();
    let first = seg.query_by_alpha(0.0).expect("cold sweep");
    let cold_secs = sw.elapsed_secs();
    assert_eq!(first.retrieved_nodes, full.retrieved_nodes);

    // Churn: repeated full sweeps against a cache that holds a tenth of
    // the working set — steady-state eviction pressure.
    let sw = Stopwatch::start();
    let mut peak = seg.cache_stats().bytes_used;
    for _ in 0..runs {
        std::hint::black_box(seg.query_by_alpha(0.0).expect("churn sweep"));
        peak = peak.max(seg.cache_stats().bytes_used);
    }
    let churn_qps = runs as f64 / sw.elapsed_secs();

    // Warm reference: the unbounded twin, already swept once above.
    let sw = Stopwatch::start();
    for _ in 0..runs {
        std::hint::black_box(unbounded.query_by_alpha(0.0).expect("warm sweep"));
    }
    let warm_qps = runs as f64 / sw.elapsed_secs();

    let stats = seg.cache_stats();
    assert!(
        stats.evictions > 0,
        "a tenth-of-segment budget must evict during full sweeps"
    );
    json.push("coldset", "cold_sweep_buffered_secs", cold_secs);
    json.push("coldset", "churn_qba_buffered_qps", churn_qps);
    json.push("coldset", "warm_qba_buffered_qps", warm_qps);
    json.push("coldset", "segment_bytes", segment_bytes as f64);
    json.push("coldset", "cache_budget_bytes", budget as f64);
    json.push("coldset", "working_set_bytes", working_set_bytes as f64);
    json.push("coldset", "cache_peak_bytes", peak as f64);
    json.push("coldset", "evictions", stats.evictions as f64);

    let mut table = Table::new(
        "Cold-set serving (BK, cache = segment/10)",
        &["Metric", "Value"],
    );
    for (label, value) in [
        ("cold sweep (open + first full QBA)", fmt_secs(cold_secs)),
        (
            "churn QBA/s (budgeted, full sweeps)",
            format!("{churn_qps:.0}"),
        ),
        ("warm QBA/s (unbounded)", format!("{warm_qps:.0}")),
    ] {
        table.push_row(vec![label.to_string(), value]);
    }
    table.print();
}
