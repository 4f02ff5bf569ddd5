//! End-to-end tests of the HTTP/JSON gateway over real loopback sockets:
//! answer parity with in-memory queries, batch bodies, malformed-request
//! robustness, per-client rate limiting, the Prometheus exposition, and
//! zero-drop hot reloads.

mod common;
#[path = "common/trickle.rs"]
mod trickle;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tc_data::{generate_coauthor, CoauthorConfig};
use tc_index::{TcTree, TcTreeBuilder};
use tc_serve::{Counter, HttpClient, RateLimit, ServeConfig, Server, ServerHandle};
use tc_store::SegmentTcTree;
use tc_util::json::{parse as parse_json, JsonValue};

fn sample_tree(seed: u64, groups: usize) -> TcTree {
    let net = generate_coauthor(&CoauthorConfig {
        groups,
        authors_per_group: 8,
        seed,
        ..CoauthorConfig::default()
    })
    .network;
    TcTreeBuilder::default().build(&net)
}

fn segment_of(tree: &TcTree) -> SegmentTcTree {
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(tree, &mut bytes).unwrap();
    SegmentTcTree::from_bytes(bytes).unwrap()
}

/// Starts a daemon with both front-ends on ephemeral ports; returns the
/// HTTP address, the remote control, and the `run()` join handle.
fn spawn_http_server(
    tree: &TcTree,
    cfg: ServeConfig,
) -> (
    String,
    ServerHandle,
    std::thread::JoinHandle<tc_serve::StatsSnapshot>,
) {
    let cfg = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_string()),
        ..cfg
    };
    let server = Server::bind(segment_of(tree), "127.0.0.1:0", cfg).unwrap();
    let http_addr = server.local_http_addr().unwrap().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (http_addr, handle, join)
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_num).unwrap()
}

/// `(pattern, vertices, edges)` triples of a response body, in order.
fn truss_keys(v: &JsonValue) -> Vec<(Vec<u32>, u64, u64)> {
    v.get("trusses")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|t| {
            (
                t.get("pattern")
                    .and_then(JsonValue::as_arr)
                    .unwrap()
                    .iter()
                    .map(|i| i.as_num().unwrap() as u32)
                    .collect(),
                num(t, "vertices") as u64,
                num(t, "edges") as u64,
            )
        })
        .collect()
}

fn local_keys(r: &tc_index::QueryResult) -> Vec<(Vec<u32>, u64, u64)> {
    r.trusses
        .iter()
        .map(|t| {
            (
                t.pattern.iter().map(|i| i.0).collect(),
                t.num_vertices() as u64,
                t.num_edges() as u64,
            )
        })
        .collect()
}

#[test]
fn http_answers_match_local_queries() {
    let tree = sample_tree(11, 3);
    let (addr, handle, join) = spawn_http_server(&tree, ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health = parse_json(&health.body).unwrap();
    assert_eq!(num(&health, "nodes") as usize, tree.num_nodes());
    let alpha_star = num(&health, "alpha_star");

    // QBA parity across a threshold sweep, on one keep-alive connection.
    for i in 0..6 {
        let alpha = alpha_star * i as f64 / 5.0;
        let resp = client.get(&format!("/qba?alpha={alpha}")).unwrap();
        assert_eq!(resp.status, 200, "alpha={alpha}: {}", resp.body);
        let body = parse_json(&resp.body).unwrap();
        let local = tree.query_by_alpha(alpha);
        assert_eq!(num(&body, "retrieved") as usize, local.retrieved_nodes);
        assert_eq!(num(&body, "visited") as usize, local.visited_nodes);
        assert_eq!(truss_keys(&body), local_keys(&local), "alpha={alpha}");
    }

    // QBP and QUERY on every node pattern.
    for id in 1..=tree.num_nodes() as u32 {
        let q = tree.node(id).pattern().clone();
        let ids = q
            .iter()
            .map(|i| i.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let resp = client.get(&format!("/qbp?items={ids}")).unwrap();
        assert_eq!(resp.status, 200);
        let body = parse_json(&resp.body).unwrap();
        assert_eq!(truss_keys(&body), local_keys(&tree.query_by_pattern(&q)));

        let alpha = alpha_star / 2.0;
        let resp = client
            .get(&format!("/query?items={ids}&alpha={alpha}"))
            .unwrap();
        assert_eq!(resp.status, 200);
        let body = parse_json(&resp.body).unwrap();
        assert_eq!(truss_keys(&body), local_keys(&tree.query(&q, alpha)));
    }

    // Both spellings of the empty pattern.
    for target in ["/qbp?items=-", "/qbp?items="] {
        let resp = client.get(target).unwrap();
        assert_eq!(resp.status, 200, "{target}");
    }

    // Unknown path and wrong method keep the session alive.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.post("/qba", "{}").unwrap().status, 405);
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats[Counter::Qba] >= 6 && stats[Counter::Qbp] >= 1 && stats[Counter::Query] >= 1);
    assert_eq!(stats[Counter::RejectedBusy], 0);
}

#[test]
fn batch_post_matches_sequential_queries() {
    let tree = sample_tree(7, 2);
    let (addr, handle, join) = spawn_http_server(&tree, ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();

    let q = tree.node(1).pattern().clone();
    let ids = q.iter().map(|i| i.0).collect::<Vec<_>>();
    let ids_json = ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let body = format!(
        "[{{\"alpha\":0}},{{\"items\":[{ids_json}]}},{{\"items\":[{ids_json}],\"alpha\":0.1}}]"
    );
    let resp = client.post("/query", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = parse_json(&resp.body).unwrap();
    assert_eq!(num(&parsed, "count") as usize, 3);
    let results = parsed.get("results").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(
        truss_keys(&results[0]),
        local_keys(&tree.query_by_alpha(0.0))
    );
    assert_eq!(
        truss_keys(&results[1]),
        local_keys(&tree.query_by_pattern(&q))
    );
    assert_eq!(truss_keys(&results[2]), local_keys(&tree.query(&q, 0.1)));

    // The wrapped shape answers identically.
    let resp = client
        .post("/query", &format!("{{\"queries\":{body}}}"))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(num(&parse_json(&resp.body).unwrap(), "count") as usize, 3);

    // A malformed entry rejects the whole batch with 400 — atomically.
    let resp = client.post("/query", "[{\"alpha\":0},{}]");
    // 400 closes the connection, so the response may arrive before the
    // close or the write may surface the reset; accept either.
    if let Ok(resp) = resp {
        assert_eq!(resp.status, 400, "{}", resp.body);
    }

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::Batch], 2);
    assert!(stats.queries_served() >= 6);
}

/// Writes raw bytes, reads whatever comes back until the peer closes.
fn raw_roundtrip(addr: &str, payload: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    s.write_all(payload).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn endless_unterminated_line_is_cut_off_not_buffered() {
    let tree = sample_tree(3, 2);
    let (addr, handle, join) = spawn_http_server(&tree, ServeConfig::default());

    // Stream newline-less bytes past the line cap: the server must
    // answer 400 and close while the "line" is still arriving, instead
    // of buffering it without bound waiting for a newline.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let chunk = [b'a'; 2048];
    for _ in 0..5 {
        if s.write_all(&chunk).is_err() {
            break; // already cut off — that's the point
        }
    }
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let reply = String::from_utf8_lossy(&out);
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    assert!(reply.contains("too long"), "{reply}");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats[Counter::ProtocolErrors] >= 1);
}

#[test]
fn malformed_requests_get_json_400_and_never_hang_the_daemon() {
    let tree = sample_tree(3, 2);
    let (addr, handle, join) = spawn_http_server(&tree, ServeConfig::default());

    let cases = common::raw_cases();
    for case in &cases {
        let reply = raw_roundtrip(&addr, &case.payload);
        let status = case.statuses[0];
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status} ")),
            "{}: {reply}",
            case.name
        );
        if status == 400 {
            assert!(
                reply.contains("\"status\":\"err\""),
                "{}: no JSON error body: {reply}",
                case.name
            );
        }
    }
    let malformed = cases
        .iter()
        .filter(|c| matches!(c.statuses[0], 400 | 413))
        .count();

    // After all that abuse, a fresh connection still answers instantly.
    let mut client = HttpClient::connect(&addr).unwrap();
    let resp = client.get("/qba?alpha=0").unwrap();
    assert_eq!(resp.status, 200);

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats[Counter::ProtocolErrors] >= malformed as u64);
    assert_eq!(stats[Counter::QueryFailures], 0);
}

#[test]
fn hot_reload_never_drops_a_session_and_answers_are_snapshots() {
    let small = sample_tree(5, 2);
    let big = sample_tree(5, 4);
    let (addr, handle, join) = spawn_http_server(
        &small,
        ServeConfig {
            workers: 4,
            max_inflight: 64,
            ..ServeConfig::default()
        },
    );
    let small_retrieved = small.query_by_alpha(0.0).retrieved_nodes as f64;
    let big_retrieved = big.query_by_alpha(0.0).retrieved_nodes as f64;
    assert_ne!(small_retrieved, big_retrieved, "swap must be observable");

    // Hammer the daemon from several keep-alive sessions while the main
    // thread swaps segments. Every answer must be whole — exactly the old
    // or the new segment's, never an error, never a mix, never a drop.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(&addr).unwrap();
                let mut answers = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let resp = client.get("/qba?alpha=0").unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    let body = parse_json(&resp.body).unwrap();
                    answers.push(num(&body, "retrieved"));
                }
                answers
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.swap_tree(segment_of(&big));
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.swap_tree(segment_of(&small));
    std::thread::sleep(std::time::Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut saw = std::collections::BTreeSet::new();
    for h in hammers {
        for answer in h.join().unwrap() {
            assert!(
                answer == small_retrieved || answer == big_retrieved,
                "answer {answer} is neither segment's"
            );
            saw.insert(answer as u64);
        }
    }
    assert!(saw.len() == 2, "both segments must have served: {saw:?}");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::Reloads], 2);
    assert_eq!(stats[Counter::ReloadFailures], 0);
}

#[test]
fn path_reload_validates_and_survives_a_corrupt_replacement() {
    let dir = std::env::temp_dir().join("tc_serve_http_reload");
    std::fs::create_dir_all(&dir).unwrap();
    let seg_path = dir.join("serving.seg");

    let small = sample_tree(9, 2);
    let big = sample_tree(9, 4);
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&small, &mut bytes).unwrap();
    std::fs::write(&seg_path, &bytes).unwrap();

    let (addr, handle, join) = spawn_http_server(
        &small,
        ServeConfig {
            reload_path: Some(seg_path.clone()),
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(&addr).unwrap();
    let nodes_of = |client: &mut HttpClient| {
        let body = client.get("/healthz").unwrap().body;
        num(&parse_json(&body).unwrap(), "nodes") as usize
    };
    assert_eq!(nodes_of(&mut client), small.num_nodes());

    // Corrupt replacement: rejected at validation, old segment keeps
    // serving, the failure is counted.
    std::fs::write(&seg_path, b"TCSEG01 but not really").unwrap();
    assert!(handle.reload().is_err());
    assert_eq!(nodes_of(&mut client), small.num_nodes());

    // Valid replacement: swapped in, visible to the same session.
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&big, &mut bytes).unwrap();
    std::fs::write(&seg_path, &bytes).unwrap();
    assert_eq!(handle.reload().unwrap(), big.num_nodes());
    assert_eq!(nodes_of(&mut client), big.num_nodes());

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::Reloads], 1);
    assert_eq!(stats[Counter::ReloadFailures], 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rate_limit_yields_429_and_exempts_introspection() {
    let tree = sample_tree(2, 2);
    let (addr, handle, join) = spawn_http_server(
        &tree,
        ServeConfig {
            rate_limit: Some(RateLimit {
                per_sec: 0.001, // effectively no refill within the test
                burst: 3.0,
            }),
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(&addr).unwrap();
    for i in 0..3 {
        assert_eq!(client.get("/qba?alpha=0").unwrap().status, 200, "req {i}");
    }
    let resp = client.get("/qba?alpha=0").unwrap();
    assert_eq!(resp.status, 429);
    assert!(resp.body.contains("rate limit"), "{}", resp.body);

    // The throttled client can still observe the daemon…
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    // …and the rejection is visible in the exposition.
    assert!(
        metrics
            .body
            .contains("tcserve_connections_total{outcome=\"rate_limited\"} 1"),
        "{}",
        metrics.body
    );

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::RateLimited], 1);
    assert_eq!(stats[Counter::Qba], 3);
}

#[test]
fn metrics_exposition_counts_requests_and_parses_cleanly() {
    let tree = sample_tree(4, 2);
    let (addr, handle, join) = spawn_http_server(&tree, ServeConfig::default());
    let mut client = HttpClient::connect(&addr).unwrap();

    let before = client.get("/metrics").unwrap().body;
    assert!(before.contains("tcserve_requests_total{verb=\"qba\"} 0\n"));

    client.get("/qba?alpha=0").unwrap();
    client.get("/qbp?items=-").unwrap();
    client.post("/query", "[{\"alpha\":0}]").unwrap();

    let after = client.get("/metrics").unwrap().body;
    assert!(after.contains("tcserve_requests_total{verb=\"qba\"} 2\n"),);
    assert!(after.contains("tcserve_requests_total{verb=\"qbp\"} 1\n"));
    assert!(after.contains("tcserve_requests_total{verb=\"batch\"} 1\n"));
    assert!(after.contains("tcserve_request_latency_seconds_count{verb=\"qba\"} 2\n"));
    assert!(after.contains("tcserve_http_responses_total{code=\"200\"}"));
    assert!(after.contains(&format!("tcserve_tree_nodes {}\n", tree.num_nodes())));

    // Light grammar pass over every line, like a scraper's parser would.
    for line in after.lines() {
        if line.starts_with("# ") {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "{line}"
            );
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn trickling_body_idles_out() {
    let tree = sample_tree(3, 2);
    let (addr, handle, join) = spawn_http_server(
        &tree,
        ServeConfig {
            idle_timeout: Some(std::time::Duration::from_millis(400)),
            ..ServeConfig::default()
        },
    );

    // The head completes at once; the promised body then arrives one
    // byte every 100 ms — each faster than the 200 ms read tick, the
    // whole never. The session must idle out as if the client were
    // silent.
    let open_for = trickle::until_closed(
        TcpStream::connect(&addr).unwrap(),
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n[",
        b" ",
    );
    println!("trickled body closed after {open_for:?} (idle timeout 400 ms)");
    assert!(
        open_for < std::time::Duration::from_millis(1500),
        "trickled body held the session for {open_for:?}"
    );

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(
        stats[Counter::Timeouts] >= 1,
        "timeout not counted: {stats:?}"
    );
}
