//! Parallel-throughput telemetry: the offline phases (TCFI mining,
//! TC-Tree construction) across a threads × network-size grid, plus the
//! sustained-load serving baseline the ROADMAP's "query-serving
//! benchmarks" item asks for.
//!
//! Three sections:
//!
//! * **mining** — serial `TcfiMiner` vs the work-stealing miner
//!   (`ParallelTcfiMiner`) at every thread count, with result equality
//!   asserted against the serial reference on every cell;
//! * **indexing** — `TcTreeBuilder` wall-clock per thread count (node
//!   arenas are byte-identical by construction, asserted here);
//! * **serving** — concurrent QBA/QBP clients hammering one shared
//!   `SegmentTcTree`, reporting p50/p99 latency and aggregate QPS.
//!
//! With `--json <path>` everything lands in a machine-readable report.
//! `host_parallelism` is always recorded: thread counts above it measure
//! scheduling overhead, not parallel speedup — read speedups against it
//! (the committed `BENCH_main.json` baseline was produced on a 1-core
//! container, so its ratios hover near 1.0 by construction).

use tc_bench::report::JsonReport;
use tc_bench::{build_dataset, fmt_count, fmt_secs, percentile, BenchArgs, Dataset, Table};
use tc_core::{Miner, MiningResult, ParallelTcfiMiner, TcfiMiner};
use tc_index::{TcTree, TcTreeBuilder};
use tc_store::SegmentTcTree;
use tc_txdb::Pattern;
use tc_util::Stopwatch;

/// Mining threshold: low enough for multi-level frontiers on SYN.
const ALPHA: f64 = 0.1;

fn main() {
    let args = BenchArgs::from_env();
    let grid = args.thread_grid(&[1, 2, 4, 8]);
    // Offline-phase cells take the fastest of `reps` runs: single-shot
    // wall-clocks on shared runners swing ±20%, and the minimum is the
    // stablest estimator of the true cost.
    let reps = if args.quick { 1 } else { 3 };
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = JsonReport::new("throughput");
    json.push("host", "parallelism", host as f64);
    println!("# Throughput — host parallelism {host}, threads {grid:?}");

    // ---- Mining grid ---------------------------------------------------
    // SYN sizes: largest last — its tree feeds the later sections.
    let sizes: Vec<(String, f64)> = if args.quick {
        vec![
            ("SYN-S".into(), 0.12 * args.scale),
            ("SYN-M".into(), 0.25 * args.scale),
        ]
    } else {
        vec![
            ("SYN-S".into(), 0.25 * args.scale),
            ("SYN-M".into(), 0.5 * args.scale),
            ("SYN-L".into(), args.scale),
        ]
    };

    let mut largest = None;
    for (name, scale) in &sizes {
        let net = build_dataset(Dataset::Syn, *scale);
        println!(
            "\n## Mining — {name}: {} vertices, {} edges",
            fmt_count(net.num_vertices()),
            fmt_count(net.num_edges())
        );
        let timed = |miner: &dyn Miner| -> (f64, MiningResult) {
            let mut best = f64::INFINITY;
            let mut result = None;
            for _ in 0..reps {
                let sw = Stopwatch::start();
                let r = miner.mine(&net, ALPHA);
                best = best.min(sw.elapsed_secs());
                result = Some(r);
            }
            (best, result.expect("reps >= 1"))
        };
        let (serial_secs, reference) = timed(&TcfiMiner::default());
        json.push(name, "mine_serial_secs", serial_secs);

        let mut table = Table::new(
            format!(
                "TCFI mining ({name}, α={ALPHA}, serial {})",
                fmt_secs(serial_secs)
            ),
            &["Threads", "WS", "WS speedup"],
        );
        for &t in &grid {
            let (ws_secs, ws) = timed(&ParallelTcfiMiner {
                max_len: usize::MAX,
                threads: t,
            });
            assert!(
                reference.same_trusses(&ws),
                "{name}: parallel miner diverged from serial TCFI at {t} threads"
            );
            json.push(name, format!("mine_ws_t{t}_secs"), ws_secs);
            json.push(name, format!("mine_ws_speedup_t{t}"), serial_secs / ws_secs);
            table.push_row(vec![
                t.to_string(),
                fmt_secs(ws_secs),
                format!("{:.2}x", serial_secs / ws_secs),
            ]);
        }
        table.print();
        largest = Some((name.clone(), net));
    }
    let (large_name, net) = largest.expect("at least one mining size");

    // ---- Index-construction grid ---------------------------------------
    println!("\n## Indexing — {large_name}");
    let mut table = Table::new(
        format!("TC-Tree build ({large_name})"),
        &["Threads", "Build", "Speedup vs 1 thread"],
    );
    let mut reference: Option<(f64, TcTree)> = None;
    for &t in &grid {
        let mut secs = f64::INFINITY;
        let mut built = None;
        for _ in 0..reps {
            let sw = Stopwatch::start();
            let tree = TcTreeBuilder {
                threads: t,
                max_len: usize::MAX,
            }
            .build(&net);
            secs = secs.min(sw.elapsed_secs());
            built = Some(tree);
        }
        let tree = built.expect("reps >= 1");
        let base = match &reference {
            None => {
                reference = Some((secs, tree));
                reference.as_ref().unwrap().0
            }
            Some((base, ref_tree)) => {
                // Byte-level equality through the segment writer — the
                // builders' contract is identical arenas, not just counts.
                let serialize = |tree: &TcTree| {
                    let mut buf = Vec::new();
                    tc_store::save_tree_segment(tree, &mut buf).expect("serialize tree");
                    buf
                };
                assert_eq!(
                    serialize(ref_tree),
                    serialize(&tree),
                    "{large_name}: tree construction diverged at {t} threads"
                );
                *base
            }
        };
        json.push(&large_name, format!("index_build_t{t}_secs"), secs);
        table.push_row(vec![
            t.to_string(),
            fmt_secs(secs),
            format!("{:.2}x", base / secs),
        ]);
    }
    table.print();
    let tree = reference.expect("built at least once").1;

    // ---- Sustained serving load ----------------------------------------
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&tree, &mut bytes).expect("serialize tree");
    let seg = SegmentTcTree::from_bytes(bytes).expect("open segment tree");
    let clients = grid.iter().copied().max().unwrap_or(1);
    let per_client = if args.quick { 400 } else { 4000 };

    // A deterministic query mix: QBA at a sweep of thresholds, QBP over
    // the singleton patterns.
    let bound = seg.alpha_upper_bound().max(1e-9);
    let alphas: Vec<f64> = (0..8).map(|i| bound * (i as f64 + 0.5) / 8.0).collect();
    let singles: Vec<Pattern> = (1..=seg.num_nodes() as u32)
        .map(|id| seg.pattern(id).clone())
        .filter(|p| p.len() == 1)
        .collect();

    let sw = Stopwatch::start();
    let mut latencies: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (seg, alphas, singles) = (&seg, &alphas, &singles);
                scope.spawn(move || {
                    let mut qba = Vec::with_capacity(per_client / 2);
                    let mut qbp = Vec::with_capacity(per_client / 2);
                    for i in 0..per_client {
                        // Interleave QBA and QBP, each client phase-shifted.
                        // `pick / 2` strides through the whole alpha sweep /
                        // pattern pool: `pick` itself has fixed parity per
                        // branch and would only ever touch half of either.
                        let pick = c + i;
                        if pick % 2 == 0 || singles.is_empty() {
                            let alpha = alphas[(pick / 2) % alphas.len()];
                            let sw = Stopwatch::start();
                            std::hint::black_box(
                                seg.query_by_alpha(alpha).expect("QBA under load"),
                            );
                            qba.push(sw.elapsed_secs());
                        } else {
                            let q = &singles[(pick / 2) % singles.len()];
                            let sw = Stopwatch::start();
                            std::hint::black_box(seg.query_by_pattern(q).expect("QBP under load"));
                            qbp.push(sw.elapsed_secs());
                        }
                    }
                    (qba, qbp)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving client panicked"))
            .collect()
    });
    let wall = sw.elapsed_secs();
    let total = clients * per_client;

    let mut qba: Vec<f64> = latencies
        .iter_mut()
        .flat_map(|(a, _)| a.drain(..))
        .collect();
    let mut qbp: Vec<f64> = latencies
        .iter_mut()
        .flat_map(|(_, b)| b.drain(..))
        .collect();
    qba.sort_unstable_by(f64::total_cmp);
    qbp.sort_unstable_by(f64::total_cmp);

    println!("\n## Serving — {large_name}, shared SegmentTcTree");
    let mut table = Table::new(
        format!("Sustained load ({clients} clients × {per_client} queries)"),
        &["Metric", "Value"],
    );
    let qps = total as f64 / wall;
    table.push_row(vec!["aggregate QPS".into(), format!("{qps:.0}")]);
    table.push_row(vec!["QBA p50".into(), fmt_secs(percentile(&qba, 0.5))]);
    table.push_row(vec!["QBA p99".into(), fmt_secs(percentile(&qba, 0.99))]);
    table.push_row(vec!["QBP p50".into(), fmt_secs(percentile(&qbp, 0.5))]);
    table.push_row(vec!["QBP p99".into(), fmt_secs(percentile(&qbp, 0.99))]);
    table.print();
    json.push("serving", "serve_clients", clients as f64);
    json.push("serving", "serve_total_queries", total as f64);
    json.push("serving", "serve_wall_secs", wall);
    json.push("serving", "serve_qps", qps);
    json.push("serving", "serve_qba_p50_secs", percentile(&qba, 0.5));
    json.push("serving", "serve_qba_p99_secs", percentile(&qba, 0.99));
    json.push("serving", "serve_qbp_p50_secs", percentile(&qbp, 0.5));
    json.push("serving", "serve_qbp_p99_secs", percentile(&qbp, 0.99));

    if let Some(path) = &args.json {
        json.write_to_path(path).expect("write json report");
        println!(
            "\nwrote {} telemetry datapoints to {}",
            json.len(),
            path.display()
        );
    }
}
