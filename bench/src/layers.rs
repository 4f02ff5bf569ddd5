//! The traced run's per-layer numbers: every crate timed through its
//! public functions, from this file, on the workload's own input.
//!
//! Three groups. The *replay* is a serial TCFI written here from the
//! public pieces `TcfiMiner` is made of, with a span around each call, so
//! mining time splits into candidate generation (`tc-txdb`), intersection,
//! theme induction and MPTD (`tc-core`, with `tc-graph` inside MPTD). The
//! *in-process probes* time storage, index and codec calls with no socket
//! in the way. The *front-end probes* send the workload's request stream
//! through every front end of the real daemons — line, HTTP GET, HTTP
//! batch, router — so each front end's cost shows as a difference on one
//! stream.

use crate::alloc::measure_peak;
use crate::daemon::{Files, Front, Topology};
use crate::load::{run_phase, Plan};
use crate::mixq::{answer, Pool, Query, Stream, BATCH};
use crate::offline::ChainPass;
use crate::pin::CpuSet;
use crate::run::{Args, Tally};
use crate::spec::{Metrics, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use tc_core::{
    maximal_pattern_truss, DatabaseNetwork, Miner, MinerStats, MiningResult, ParallelTcfiMiner,
    PatternTruss, TcfiMiner, ThemeNetwork, TrussDecomposition,
};
use tc_index::TcTreeBuilder;
use tc_serve::{HttpClient, QueryResponse, Request, ServeClient};
use tc_store::page::PageFile;
use tc_store::{SegmentTcTree, StoreOptions};
use tc_txdb::{apriori, Item, Pattern};
use tc_util::FxHashMap;

/// Timed length of each front-end probe.
const PROBE_WINDOW: Duration = Duration::from_millis(600);
/// Most requests an in-process probe replays, and calls a codec probe times.
const PROBE_REQUESTS: usize = 20_000;

/// What the probes work on: the run's input, its first offline pass and
/// its still-running daemons.
pub struct Probe<'a> {
    pub workload: &'a Workload,
    pub args: &'a Args,
    pub net: &'a DatabaseNetwork,
    pub pass: &'a ChainPass,
    pub pool: &'a Pool,
    pub files: &'a Files<'a>,
    pub working_set: u64,
    pub topo: Topology,
    /// The run's one CPU, and all it started with.
    pub cpus: (CpuSet, CpuSet),
}

/// Runs `f(threads)` on every CPU the run started with, as many threads,
/// then returns to the run's one CPU: for the three probes that compare one
/// thread with all of them. Every other probe, daemons and all, stays on the
/// one CPU like the window it explains.
fn on_all_cpus<T>(cpus: (CpuSet, CpuSet), f: impl FnOnce(usize) -> T) -> Result<T, String> {
    let (one, all) = cpus;
    let moved = |e: std::io::Error| format!("sched_setaffinity: {e}");
    all.apply().map_err(moved)?;
    let out = f(std::thread::available_parallelism().map_or(1, usize::from));
    one.apply().map_err(moved)?;
    Ok(out)
}

/// Mean seconds per call of `f` over `n` calls.
fn per_call<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        std::hint::black_box(f(i));
    }
    t.elapsed().as_secs_f64() / n as f64
}

/// Stream 0 of the pool's requests answered by `f` for `window` (at most
/// `PROBE_REQUESTS` requests): the time of each answer in µs.
fn stream_us(
    pool: &Pool,
    seed: u64,
    window: Duration,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut draws = Stream::new(seed, 0, pool.len());
    let mut us = Vec::new();
    let started = Instant::now();
    while us.len() < PROBE_REQUESTS && started.elapsed() < window {
        let pick = draws.next();
        let t = Instant::now();
        f(pick)?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(us)
}

pub fn measure(
    p: Probe,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Metrics,
) -> Result<(), String> {
    let seed = p.args.seed;
    let cpu = p.cpus.0.last().ok_or("no CPU to run on")?;
    let load = |e: tc_store::LoadError| e.to_string();

    // ---- The run's own daemons, before they go: counters, start-up.
    let mut topo = p.topo;
    out.put(
        "cli.spawn_to_listening_ms",
        topo.serves[0].spawn_to_listening.as_secs_f64() * 1e3,
    );
    // The router's pooled connections pin the shards' workers; it goes
    // first so `STATS` finds one free.
    topo.router = None;
    let mut stats: FxHashMap<String, u64> = FxHashMap::default();
    for daemon in &topo.serves {
        for (key, value) in daemon.stats()? {
            *stats.entry(key).or_default() += value;
        }
    }
    let stat = |key: &str| stats.get(key).copied().unwrap_or(0) as f64;
    let lookups = stat("cache_hits") + stat("cache_misses");
    out.put(
        "serve.cache_hit_ratio_pct",
        if lookups > 0.0 {
            100.0 * stat("cache_hits") / lookups
        } else {
            100.0
        },
    );
    out.put("serve.rejected_busy", stat("rejected_busy"));
    out.put("serve.timeouts", stat("timeouts"));
    out.put("serve.protocol_errors", stat("protocol_errors"));
    drop(topo);

    // ---- Front-end probes: one warm, unbounded daemon with both its
    // front ends, then the router over two shards; the same stream through
    // each.
    let mid_alpha = 0.5 * p.pool.alpha_star;
    let floor_pool = Pool {
        // Above alpha*: nothing qualifies, so the answer is empty and the
        // round trip is socket, framing and worker hand-off only.
        queries: vec![Query::Qba(2.0 * p.pool.alpha_star + 1.0)],
        expected: vec![Vec::new()],
        alpha_star: p.pool.alpha_star,
    };
    let direct = Topology::start(Front::HttpGet, p.files, None, mid_alpha, cpu)?;
    let line_addr = direct.serves[0].addr.clone();
    let mut probe = |what: &'static str, front: Front, addr: &str, pool: &Pool, plan: Plan| {
        let span = tracer.open(what, 0, 0);
        let mut draws = Stream::new(seed, 0, pool.len());
        let phase = run_phase(front, addr, pool, &mut draws, plan, cpu, None);
        tracer.close(span);
        tally.phase(what, &phase);
        if phase.us.is_empty() {
            return Err(format!("{what} completed no request"));
        }
        Ok(phase.percentile_us(0.5))
    };
    let stream = Plan::Stream {
        timed: PROBE_WINDOW,
    };
    probe(
        "probe.warm_direct",
        Front::Line,
        &line_addr,
        p.pool,
        Plan::PoolPass {
            cap: Duration::from_secs(1),
        },
    )?;
    let line_p50 = probe("probe.line", Front::Line, &line_addr, p.pool, stream)?;
    let rtt_floor = probe(
        "probe.line_floor",
        Front::Line,
        &line_addr,
        &floor_pool,
        stream,
    )?;
    let http_floor = probe(
        "probe.http_floor",
        Front::HttpGet,
        direct.addr(),
        &floor_pool,
        stream,
    )?;
    let get_p50 = probe(
        "probe.http_get",
        Front::HttpGet,
        direct.addr(),
        p.pool,
        stream,
    )?;
    let batch_p50 = probe(
        "probe.http_batch",
        Front::HttpBatch,
        direct.addr(),
        p.pool,
        stream,
    )?;
    drop(direct);
    let mut routed = Topology::start(Front::Routed, p.files, None, mid_alpha, cpu)?;
    probe(
        "probe.warm_routed",
        Front::Routed,
        routed.addr(),
        p.pool,
        Plan::PoolPass {
            cap: Duration::from_secs(1),
        },
    )?;
    let routed_p50 = probe("probe.routed", Front::Routed, routed.addr(), p.pool, stream)?;
    let prom = HttpClient::connect(routed.addr())
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| format!("router /metrics: {e}"))?
        .body;
    let family = |name: &str, label: &str| -> f64 {
        prom.lines()
            .filter(|l| l.starts_with(name) && l[name.len()..].starts_with(label))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let routed_requests = family("tcrouter_requests_total", "{verb=\"qba\"}")
        + family("tcrouter_requests_total", "{verb=\"qbp\"}");
    out.put(
        "router.fanout_per_request",
        family("tcrouter_fanout_total", "{") / routed_requests.max(1.0),
    );
    out.put(
        "router.shard_errors",
        family("tcrouter_shard_errors_total", "{"),
    );

    // What the router does per request, done from here without it: the
    // same request to each shard in turn (QBA rewritten over the full
    // tree's level-1 items, as the router does), the slowest of the two
    // timed, the two answers merged.
    routed.router = None;
    let mut shards: Vec<ServeClient> = routed
        .serves
        .iter()
        .map(|d| ServeClient::connect(&d.addr).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (mut slowest_us, mut merge_s) = (Vec::new(), 0.0);
    let span = tracer.open("probe.shards", 0, 0);
    stream_us(p.pool, seed, 2 * PROBE_WINDOW, |pick| {
        let mut parts = Vec::new();
        let mut slowest = 0.0f64;
        for shard in &mut shards {
            let t = Instant::now();
            let part = match &p.pool.queries[pick] {
                Query::Qbp(items) => shard.qbp(items),
                Query::Qba(alpha) => shard.query(p.files.level1, *alpha),
            }
            .map_err(|e| e.to_string())?;
            slowest = slowest.max(t.elapsed().as_secs_f64() * 1e6);
            parts.push(part);
        }
        slowest_us.push(slowest);
        let t = Instant::now();
        let merged = tc_router::merge_responses(parts);
        merge_s += t.elapsed().as_secs_f64();
        if merged.trusses != p.pool.expected[pick] {
            return Err(format!(
                "merged shard answers differ from the unsharded answer to pool entry {pick}"
            ));
        }
        Ok(())
    })?;
    tracer.close(span);
    drop(shards);
    drop(routed);
    let merge_us = merge_s * 1e6 / slowest_us.len() as f64;
    let shard_rtt = median(&slowest_us);
    out.put("router.direct_get_p50_us", get_p50);
    out.put("router.routed_p50_us", routed_p50);
    out.put("router.tax", routed_p50 / get_p50);
    out.put("router.shard_rtt_p50_us", shard_rtt);
    out.put("router.merge_us", merge_us);
    out.put("router.overhead_us", routed_p50 - shard_rtt - merge_us);
    out.put("serve.rtt_floor_us", rtt_floor);
    out.put("serve.http_rtt_floor_us", http_floor);
    out.put("serve.line_p50_us", line_p50);
    out.put("serve.batch_p50_us", batch_p50);
    out.put("serve.batch_tax", batch_p50 / (BATCH as f64 * get_p50));

    // ---- tc-util.
    let tasks: Vec<u32> = (0..1_000_000).collect();
    let n_tasks = tasks.len() as f64;
    let (sums, steal_s) = on_all_cpus(p.cpus, |threads| {
        let t = Instant::now();
        let sums = tracer.time("util.steal", 0, 0, || {
            tc_util::Executor::new(threads).run(tasks, |_| 0u64, |sum, t, _| *sum += u64::from(t))
        });
        (sums, t.elapsed().as_secs_f64())
    })?;
    out.put("util.steal_ns_per_task", steal_s * 1e9 / n_tasks);
    assert_eq!(sums.iter().sum::<u64>(), 999_999 * 1_000_000 / 2);
    let segment_bytes = std::fs::read(p.files.segment).map_err(|e| e.to_string())?;
    let crc_s = per_call(3, |_| tc_util::crc32::crc32(&segment_bytes));
    out.put(
        "util.crc32_mb_per_s",
        segment_bytes.len() as f64 / 1e6 / crc_s,
    );
    drop(segment_bytes);
    let mut draws = Stream::new(seed, 0, p.pool.len());
    let bodies: Vec<String> = (0..256)
        .map(|_| {
            p.pool
                .batch_body(&(0..BATCH).map(|_| draws.next()).collect::<Vec<_>>())
        })
        .collect();
    out.put(
        "util.json_parse_us",
        1e6 * per_call(PROBE_REQUESTS, |i| {
            tc_util::json::parse(&bodies[i % bodies.len()]).is_ok()
        }),
    );
    out.put(
        "serve.batch_parse_us",
        1e6 * per_call(PROBE_REQUESTS, |i| {
            tc_serve::http::parse_batch_specs(&bodies[i % bodies.len()]).is_ok()
        }),
    );

    // ---- tc-serve codecs, on the pool's own requests and answers.
    let lines: Vec<String> = p
        .pool
        .queries
        .iter()
        .map(|q| match q {
            Query::Qbp(items) => Request::Qbp {
                items: items.clone(),
                json: false,
            },
            Query::Qba(alpha) => Request::Qba {
                alpha: *alpha,
                json: false,
            },
        })
        .map(|r| r.encode())
        .collect();
    out.put(
        "serve.parse_ns",
        1e9 * per_call(PROBE_REQUESTS, |i| {
            Request::parse(&lines[i % lines.len()]).is_ok()
        }),
    );
    let responses: Vec<QueryResponse> = p
        .pool
        .expected
        .iter()
        .map(|trusses| QueryResponse {
            retrieved: trusses.len(),
            visited: trusses.len(),
            elapsed_secs: 1e-5,
            trusses: trusses.clone(),
        })
        .collect();
    let encode_tab_us = 1e6
        * per_call(PROBE_REQUESTS, |i| {
            responses[i % responses.len()].encode_tab()
        });
    out.put("serve.encode_tab_us", encode_tab_us);
    out.put(
        "serve.encode_json_us",
        1e6 * per_call(PROBE_REQUESTS, |i| {
            responses[i % responses.len()].encode_json()
        }),
    );

    // ---- tc-store, in process on the same file and stream.
    out.put("store.segment_write_s", p.pass.write.secs);
    out.put(
        "store.bytes_per_node",
        p.pass.segment_bytes as f64 / p.pass.tree.num_nodes() as f64,
    );
    let opens: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let opened = tracer.time("store.open", 0, 0, || SegmentTcTree::open(p.files.segment));
            opened.map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(load)?;
    out.put("store.open_ms", median(&opens));
    // Every page of the largest section (the truss levels) read and
    // CRC-checked once, then every node materialised from a fresh open.
    // A node's blob is read through whole checked pages, so where nodes
    // are smaller than a page the second number holds the first once per
    // node, not once per page.
    let pages = PageFile::open(p.files.segment).map_err(load)?;
    let levels = *pages
        .header()
        .sections
        .iter()
        .max_by_key(|s| s.byte_len)
        .ok_or("segment without sections")?;
    let t = Instant::now();
    tracer
        .time("store.page_reads", 0, 0, || {
            (levels.first_page..levels.first_page + levels.page_count).try_for_each(|i| {
                pages
                    .read_page(i)
                    .map(|page| drop(std::hint::black_box(page)))
            })
        })
        .map_err(load)?;
    out.put(
        "store.page_read_us",
        1e6 * t.elapsed().as_secs_f64() / levels.page_count.max(1) as f64,
    );
    let fresh = SegmentTcTree::open(p.files.segment).map_err(load)?;
    let t = Instant::now();
    tracer
        .time("store.materialize_all", 0, 0, || {
            (1..=fresh.num_nodes() as u32).try_for_each(|id| {
                fresh
                    .truss(id)
                    .map(|truss| drop(std::hint::black_box(truss)))
            })
        })
        .map_err(load)?;
    out.put(
        "store.materialize_us_per_node",
        1e6 * t.elapsed().as_secs_f64() / fresh.num_nodes() as f64,
    );
    drop(fresh);
    let segment_answer = |tree: &SegmentTcTree, pick: usize| -> Result<(), String> {
        if answer(tree, &p.pool.queries[pick]).map_err(load)? != p.pool.expected[pick] {
            return Err(format!("in-process answer to pool entry {pick} changed"));
        }
        Ok(())
    };
    let warm = SegmentTcTree::open(p.files.segment).map_err(load)?;
    for q in &p.pool.queries {
        answer(&warm, q).map_err(load)?;
    }
    let query_warm_us = median(&tracer.time("store.query_warm", 0, 0, || {
        stream_us(p.pool, seed, PROBE_WINDOW, |pick| {
            segment_answer(&warm, pick)
        })
    })?);
    drop(warm);
    out.put("store.query_warm_p50_us", query_warm_us);
    // Under a tenth of the working set a miss can cost milliseconds (the
    // mean shows that, the median does not), so this stream runs longer.
    let budgeted = SegmentTcTree::open_with(
        p.files.segment,
        StoreOptions {
            cache_bytes: Some(p.working_set / 10),
            ..StoreOptions::default()
        },
    )
    .map_err(load)?;
    let mut cache_peak = 0;
    let budgeted_us = tracer.time("store.query_budgeted", 0, 0, || {
        stream_us(p.pool, seed, 3 * PROBE_WINDOW, |pick| {
            segment_answer(&budgeted, pick)?;
            cache_peak = cache_peak.max(budgeted.cache_stats().bytes_used);
            Ok(())
        })
    })?;
    let cache = budgeted.cache_stats();
    let queries = budgeted_us.len() as f64;
    out.put(
        "store.query_budgeted_mean_us",
        budgeted_us.iter().sum::<f64>() / queries,
    );
    out.put("store.query_budgeted_p50_us", median(&budgeted_us));
    out.put("store.cache_hit_ratio", cache.hit_ratio());
    out.put(
        "store.evictions_per_query",
        cache.evictions as f64 / queries,
    );
    out.put(
        "store.materialized_per_query",
        cache.materialized_total as f64 / queries,
    );
    out.put("store.cache_peak_bytes", cache_peak as f64);
    drop(budgeted);
    out.put("serve.front_end_us", line_p50 - query_warm_us);
    out.put(
        "serve.unattributed_us",
        line_p50
            - out.get("serve.parse_ns").expect("put above") / 1e3
            - query_warm_us
            - encode_tab_us
            - rtt_floor,
    );

    // ---- tc-index: the in-memory walk, then a one-thread build.
    let tree = &p.pass.tree;
    let mem_us = stream_us(p.pool, seed, PROBE_WINDOW, |pick| {
        std::hint::black_box(match &p.pool.queries[pick] {
            Query::Qbp(items) => {
                tree.query_by_pattern(&Pattern::new(items.iter().map(|&i| Item(i)).collect()))
            }
            Query::Qba(alpha) => tree.query_by_alpha(*alpha),
        });
        Ok(())
    })?;
    out.put("index.query_mem_p50_us", median(&mem_us));
    let sample = tree.num_nodes().min(PROBE_REQUESTS);
    out.put(
        "core.truss_at_us",
        1e6 * per_call(sample, |i| tree.node(i as u32 + 1).truss.truss_at(0.0)),
    );
    let t = Instant::now();
    let (tree_t1, peak) = tracer.time("index.build_t1", 0, 0, || {
        measure_peak(|| {
            TcTreeBuilder {
                threads: 1,
                max_len: usize::MAX,
            }
            .build(p.net)
        })
    });
    let build_t1_s = t.elapsed().as_secs_f64();
    let built = tree_t1.stats();
    drop(tree_t1);
    let (build_tn_s, threads) = on_all_cpus(p.cpus, |threads| {
        let t = Instant::now();
        drop(tracer.time("index.build_tn", 0, 0, || {
            TcTreeBuilder {
                threads,
                max_len: usize::MAX,
            }
            .build(p.net)
        }));
        (t.elapsed().as_secs_f64(), threads)
    })?;
    out.put("index.build_t1_s", build_t1_s);
    out.put("index.build_speedup", build_t1_s / build_tn_s);
    out.put("index.decompositions", built.decompositions as f64);
    out.put("index.candidates", built.candidates as f64);
    out.put(
        "index.pruned_by_intersection",
        built.pruned_by_intersection as f64,
    );
    out.put("index.peak_heap_mb", peak as f64 / 1e6);
    let items = p.net.items_in_use();
    let themes: Vec<ThemeNetwork> = items
        .iter()
        .map(|&i| ThemeNetwork::induce(p.net, &Pattern::singleton(i)))
        .collect();
    let decompose_s = tracer.time("core.decompose_level1", 0, 0, || {
        per_call(themes.len(), |i| TrussDecomposition::decompose(&themes[i]))
    });
    out.put("core.decompose_us_per_node", 1e6 * decompose_s);
    drop(themes);

    // ---- tc-core and tc-txdb: the replay, against the real miners, the
    // serial one timed right before it so the two share the machine's
    // mood.
    let alpha = p.workload.input.mine_alpha();
    let all_threads_s = on_all_cpus(p.cpus, |threads| {
        let t = Instant::now();
        drop(tracer.time("core.mine_tn", 0, 0, || {
            ParallelTcfiMiner {
                max_len: usize::MAX,
                threads,
            }
            .mine(p.net, alpha)
        }));
        t.elapsed().as_secs_f64()
    })?;
    let t = Instant::now();
    let one_thread = tracer.time("core.mine_t1", 0, 0, || {
        ParallelTcfiMiner {
            max_len: usize::MAX,
            threads: 1,
        }
        .mine(p.net, alpha)
    });
    let one_thread_s = t.elapsed().as_secs_f64();
    drop(one_thread);
    let t = Instant::now();
    let serial = tracer.time("core.mine_serial", 0, 0, || {
        TcfiMiner::default().mine(p.net, alpha)
    });
    let serial_s = t.elapsed().as_secs_f64();
    drop(serial);
    out.put("util.steal_t1_overhead", one_thread_s / serial_s);
    let t = Instant::now();
    let replayed = replay(p.net, alpha, tracer);
    let replay_s = t.elapsed().as_secs_f64();
    if !replayed.mined.same_trusses(&p.pass.mined) {
        return Err("the TCFI replay found other trusses than the miner".to_string());
    }
    let totals = tracer.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let stats = replayed.mined.stats;
    out.put("txdb.candidate_gen_s", secs("replay.candidate_gen"));
    out.put("txdb.candidates", stats.candidates_generated as f64);
    out.put("core.level1_s", secs("replay.level1"));
    out.put("core.intersect_s", replayed.intersect_s);
    out.put("core.induce_s", replayed.induce_s);
    out.put("core.mptd_s", replayed.mptd_s);
    out.put("core.mptd_calls", stats.mptd_calls as f64);
    out.put(
        "core.pruned_by_intersection",
        stats.pruned_by_intersection as f64,
    );
    out.put(
        "core.mptd_us_per_call",
        1e6 * replayed.mptd_s / replayed.join_mptd_calls.max(1) as f64,
    );
    out.put(
        "core.replay_residual_pct",
        100.0 * (replay_s - serial_s).abs() / serial_s,
    );
    out.put("core.mine_serial_s", serial_s);
    out.put("core.parallel_speedup", serial_s / all_threads_s);
    println!("host_parallelism {threads}: core.parallel_speedup and index.build_speedup are against that many threads");
    Ok(())
}

/// A level with more candidates than this is timed on every
/// `REPLAY_STRIDE`-th candidate only. Reading the clock four times and
/// recording three spans costs about 0.2 µs; where a candidate costs 3 µs
/// (`syn-sparse`: 380 k of them) timing every one would put the replay 8 %
/// behind the miner it stands for, while `coauthor-dense` (under 5 k
/// candidates at 250 µs) keeps every candidate timed.
const SAMPLED_LEVEL: usize = 4096;
const REPLAY_STRIDE: usize = 4;

/// What the replay found, and its estimate of the seconds spent per phase
/// over all candidates (a sampled level's spans count `REPLAY_STRIDE`-fold).
pub struct Replayed {
    pub mined: MiningResult,
    pub intersect_s: f64,
    pub induce_s: f64,
    pub mptd_s: f64,
    /// MPTD calls on join candidates, which `mptd_s` is spread over (the
    /// level-1 calls are inside the `replay.level1` span).
    pub join_mptd_calls: usize,
}

/// Serial TCFI, as `TcfiMiner::mine` does it, from the public functions it
/// is made of, with spans around them: level 1 as one span,
/// `replay.candidate_gen` per level, and per timed candidate
/// `replay.intersect`, `replay.induce`, `replay.mptd` (sharing the
/// candidate's number as request id).
pub fn replay(net: &DatabaseNetwork, alpha: f64, tracer: &mut Tracer) -> Replayed {
    let root = tracer.open("replay", 0, 0);
    let mut stats = MinerStats::default();
    let mut all: Vec<PatternTruss> = Vec::new();
    let mut level: Vec<PatternTruss> = tracer.time("replay.level1", root, 0, || {
        let mut level = Vec::new();
        for item in net.items_in_use() {
            stats.candidates_generated += 1;
            let theme = ThemeNetwork::induce(net, &Pattern::singleton(item));
            if theme.is_trivial() {
                continue;
            }
            stats.mptd_calls += 1;
            let truss = maximal_pattern_truss(&theme, alpha);
            if !truss.is_empty() {
                level.push(truss);
            }
        }
        level
    });
    let level1_mptd_calls = stats.mptd_calls;
    let mut candidate = 0u32;
    // Estimated nanoseconds in intersect, induce, mptd.
    let mut phase_ns = [0u64; 3];
    while !level.is_empty() {
        let mut patterns: Vec<Pattern> = level.iter().map(|t| t.pattern.clone()).collect();
        let by_pattern: FxHashMap<Pattern, PatternTruss> =
            level.drain(..).map(|t| (t.pattern.clone(), t)).collect();
        let candidates = tracer.time("replay.candidate_gen", root, 0, || {
            apriori::generate_candidates(&mut patterns)
        });
        stats.candidates_generated += candidates.len();
        let stride = if candidates.len() > SAMPLED_LEVEL {
            REPLAY_STRIDE
        } else {
            1
        };
        // No growth of the span list inside the loop, and one clock reading
        // per boundary, shared by the spans on either side.
        tracer.reserve(3 * candidates.len().div_ceil(stride));
        for cand in candidates {
            candidate += 1;
            let timed = (candidate as usize).is_multiple_of(stride);
            let mut boundary = [0u64; 4];
            let mut mark = |i: usize, tracer: &Tracer| {
                if timed {
                    boundary[i] = tracer.now();
                }
            };
            let (left, right) = (
                &by_pattern[&patterns[cand.left]],
                &by_pattern[&patterns[cand.right]],
            );
            mark(0, tracer);
            let intersection = left.intersect_edges(right);
            mark(1, tracer);
            let mut reached = 1;
            if intersection.is_empty() {
                stats.pruned_by_intersection += 1;
            } else {
                let theme = ThemeNetwork::induce_from_edges(net, &cand.pattern, &intersection);
                mark(2, tracer);
                reached = 2;
                if !theme.is_trivial() {
                    stats.mptd_calls += 1;
                    let truss = maximal_pattern_truss(&theme, alpha);
                    mark(3, tracer);
                    reached = 3;
                    if !truss.is_empty() {
                        level.push(truss);
                    }
                }
            }
            if timed {
                for (phase, name) in ["replay.intersect", "replay.induce", "replay.mptd"]
                    .into_iter()
                    .enumerate()
                    .take(reached)
                {
                    tracer.record(name, boundary[phase], boundary[phase + 1], root, candidate);
                    phase_ns[phase] += (boundary[phase + 1] - boundary[phase]) * stride as u64;
                }
            }
        }
        all.extend(by_pattern.into_values());
    }
    tracer.close(root);
    Replayed {
        join_mptd_calls: stats.mptd_calls - level1_mptd_calls,
        mined: MiningResult::new(alpha, all, stats),
        intersect_s: phase_ns[0] as f64 / 1e9,
        induce_s: phase_ns[1] as f64 / 1e9,
        mptd_s: phase_ns[2] as f64 / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::TcfiMiner;
    use tc_data::{generate_planted, PlantedConfig};

    #[test]
    fn replay_equals_the_miner_on_a_planted_network() {
        let net = generate_planted(&PlantedConfig::default()).network;
        for alpha in [0.0, 0.1, 0.3] {
            let mut tracer = Tracer::new(Instant::now());
            let replayed = replay(&net, alpha, &mut tracer);
            let mined = TcfiMiner::default().mine(&net, alpha);
            assert!(mined.np() > 0);
            assert!(replayed.mined.same_trusses(&mined));
            let stats = replayed.mined.stats;
            assert_eq!(stats.mptd_calls, mined.stats.mptd_calls);
            assert_eq!(stats.candidates_generated, mined.stats.candidates_generated);
            assert_eq!(
                stats.pruned_by_intersection,
                mined.stats.pruned_by_intersection
            );
            let totals = tracer.totals();
            let timed = totals["replay.intersect"].count as usize;
            let joins = stats.candidates_generated - net.items_in_use().len();
            if joins <= SAMPLED_LEVEL {
                // No level is sampled: a span per call, and the estimates
                // are the spans' sums.
                assert_eq!(timed, joins);
                assert_eq!(
                    totals["replay.mptd"].count as usize,
                    replayed.join_mptd_calls
                );
                let spanned = totals["replay.mptd"].total_ns as f64 / 1e9;
                assert!((replayed.mptd_s - spanned).abs() < 1e-12);
            } else {
                assert!(timed < joins && timed >= joins / REPLAY_STRIDE);
                assert!(replayed.mptd_s > totals["replay.mptd"].total_ns as f64 / 1e9);
            }
        }
    }
}
