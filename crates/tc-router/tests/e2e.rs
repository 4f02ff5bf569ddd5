//! End-to-end router tests over real sockets: N shard daemons + the
//! gateway, answers compared against the unsharded segment, degraded
//! mode with a killed daemon (503 vs `--partial`), shard-map hot-reload
//! through the handle, pooled shard connections that went stale, a
//! scripted fake shard that fails mid-scatter (the pool's I1 / I2), and a
//! raw-bytes differential against a plain daemon.

#[path = "../../tc-serve/tests/common/mod.rs"]
mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tc_core::DatabaseNetworkBuilder;
use tc_index::{TcTree, TcTreeBuilder};
use tc_router::{Router, RouterConfig};
use tc_serve::{QueryResponse, Request, ServeConfig, Server, ServerHandle};
use tc_store::shardmap::{level1_items, split_tree, HashScheme, ShardEntry, ShardMap};
use tc_store::SegmentTcTree;

/// A fixture with several level-1 items, so a 3-way split actually
/// spreads subtrees across shards.
fn sample_tree() -> TcTree {
    let mut b = DatabaseNetworkBuilder::new();
    let x = b.intern_item("x");
    let y = b.intern_item("y");
    let z = b.intern_item("z");
    let w = b.intern_item("w");
    for v in 0..5u32 {
        for _ in 0..3 {
            b.add_transaction(v, &[x, y]);
        }
        b.add_transaction(v, &[x, z]);
        b.add_transaction(v, &[y, w]);
    }
    for (u, v) in [
        (0, 1),
        (1, 2),
        (0, 2),
        (0, 3),
        (1, 3),
        (2, 3),
        (3, 4),
        (2, 4),
    ] {
        b.add_edge(u, v);
    }
    TcTreeBuilder::default().build(&b.build().unwrap())
}

fn segment(tree: &TcTree) -> SegmentTcTree {
    let mut buf = Vec::new();
    tc_store::save_tree_segment(tree, &mut buf).unwrap();
    SegmentTcTree::from_bytes(buf).unwrap()
}

struct Daemon {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<()>,
}

/// Boots one daemon per shard and returns (map, daemons).
fn boot_shards(tree: &TcTree, shard_count: u32) -> (ShardMap, Vec<Daemon>) {
    boot_shards_with(tree, shard_count, ServeConfig::default())
}

/// Boots one line-protocol daemon over `seg`; returns its map entry too.
fn boot_daemon(seg: SegmentTcTree, cfg: ServeConfig) -> (ShardEntry, Daemon) {
    let server = Server::bind(seg, "127.0.0.1:0", cfg).unwrap();
    let entry = ShardEntry {
        addr: server.local_addr().unwrap().to_string(),
        path: String::new(),
    };
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run().unwrap();
    });
    (entry, Daemon { handle, thread })
}

fn boot_shards_with(tree: &TcTree, shard_count: u32, cfg: ServeConfig) -> (ShardMap, Vec<Daemon>) {
    let mut entries = Vec::new();
    let mut daemons = Vec::new();
    for shard in split_tree(tree, HashScheme::Crc32Item, shard_count) {
        let (entry, daemon) = boot_daemon(segment(&shard), cfg.clone());
        entries.push(entry);
        daemons.push(daemon);
    }
    let map = ShardMap {
        scheme: HashScheme::Crc32Item,
        items: level1_items(tree),
        shards: entries,
    };
    (map, daemons)
}

struct Gateway {
    addr: String,
    handle: tc_router::RouterHandle,
    thread: std::thread::JoinHandle<tc_router::RouterStats>,
}

fn boot_router(map: ShardMap, cfg: RouterConfig) -> Gateway {
    let router = Router::bind(map, "127.0.0.1:0", cfg).unwrap();
    let addr = router.local_addr().unwrap().to_string();
    let handle = router.handle();
    let thread = std::thread::spawn(move || router.run().unwrap());
    Gateway {
        addr,
        handle,
        thread,
    }
}

/// A raw one-shot HTTP GET that keeps the response headers visible
/// (tc-serve's `HttpClient` drops them, and the partial contract lives
/// in a header).
fn raw_get(addr: &str, path: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let name = name.to_ascii_lowercase();
    headers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_str())
}

/// The expected body for a healthy router: the unsharded answer, with
/// the router's own `secs` spliced in. Returns (prefix, suffix) around
/// the timing field so the comparison is exact everywhere else.
fn split_secs(body: &str) -> (String, String) {
    let (head, rest) = body.split_once("\"secs\":").expect("body has secs");
    let (_, tail) = rest.split_once(",\"trusses\":").expect("body has trusses");
    (head.to_string(), tail.to_string())
}

#[test]
fn router_answers_match_unsharded_and_degrade_as_configured() {
    let tree = sample_tree();
    let unsharded = segment(&tree);
    let (map, mut daemons) = boot_shards(&tree, 3);

    // Strict router (no --partial) plus a permissive one on the same map.
    let strict = boot_router(map.clone(), RouterConfig::default());
    let partial = boot_router(
        map.clone(),
        RouterConfig {
            partial: true,
            ..RouterConfig::default()
        },
    );

    // ---- healthy: byte-identical to the unsharded segment except secs ----
    let q01: tc_txdb::Pattern = [0u32, 1].iter().map(|&i| tc_txdb::Item(i)).collect();
    let q0: tc_txdb::Pattern = std::iter::once(tc_txdb::Item(0)).collect();
    let cases = [
        ("/qba?alpha=0.0", unsharded.query_by_alpha(0.0).unwrap()),
        ("/qba?alpha=0.2", unsharded.query_by_alpha(0.2).unwrap()),
        ("/qbp?items=0,1", unsharded.query(&q01, 0.0).unwrap()),
        (
            "/query?items=0&alpha=0.1",
            unsharded.query(&q0, 0.1).unwrap(),
        ),
    ];
    for (path, local) in &cases {
        let want = QueryResponse::from_result(local).encode_json();
        let (status, headers, body) = raw_get(&strict.addr, path);
        assert_eq!(status, 200, "{path}: {body}");
        assert!(header(&headers, "X-TC-Partial-Shards").is_none(), "{path}");
        assert_eq!(split_secs(&body), split_secs(&want), "{path}");
    }

    // ---- batch: per-entry objects match the unsharded answers ----
    let mut client = tc_serve::HttpClient::connect(&strict.addr).unwrap();
    let resp = client
        .post("/query", r#"[{"alpha":0.0},{"items":[0,1]}]"#)
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.body);
    assert!(resp.body.contains("\"count\":2"));
    let want0 = QueryResponse::from_result(&unsharded.query_by_alpha(0.0).unwrap());
    assert!(
        resp.body
            .contains(&format!("\"retrieved\":{}", want0.retrieved)),
        "{}",
        resp.body
    );

    // ---- healthz + metrics ----
    let (status, _, body) = raw_get(&strict.addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"shards\":3"), "{body}");
    let (status, _, text) = raw_get(&strict.addr, "/metrics");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE tcrouter_requests_total counter",
        "tcrouter_fanout_total{shard=\"0\"}",
        "tcrouter_shard_latency_seconds_bucket{shard=\"2\",le=\"+Inf\"}",
        "tcrouter_shards 3",
        "tcrouter_shards_down 0",
        // Batch entries count under their own verbs, exactly as on the
        // daemon: the four GETs above (2 QBA, 1 QBP, 1 QUERY) plus the
        // batch's QBA and QBP entries, and the batch itself once.
        "tcrouter_requests_total{verb=\"qba\"} 3\n",
        "tcrouter_requests_total{verb=\"qbp\"} 2\n",
        "tcrouter_requests_total{verb=\"query\"} 1\n",
        "tcrouter_requests_total{verb=\"batch\"} 1\n",
        "tcrouter_request_latency_seconds_count{verb=\"qbp\"} 2\n",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    // ---- kill one daemon: strict answers 503, partial answers 200 ----
    let victim = daemons.remove(1);
    victim.handle.shutdown();
    victim.thread.join().unwrap();

    let (status, _, body) = raw_get(&strict.addr, "/qba?alpha=0.0");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("unavailable"), "{body}");
    let (_, _, text) = raw_get(&strict.addr, "/metrics");
    assert!(text.contains("tcrouter_shards_down 1"), "{text}");

    let (status, headers, body) = raw_get(&partial.addr, "/qba?alpha=0.0");
    assert_eq!(status, 200, "{body}");
    assert_eq!(header(&headers, "X-TC-Partial-Shards"), Some("1"), "{body}");
    // The partial body is the live shards' union: a strict subset.
    let full = QueryResponse::from_result(&unsharded.query_by_alpha(0.0).unwrap());
    let got_retrieved: usize = body
        .split("\"retrieved\":")
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(got_retrieved < full.retrieved, "{body}");

    // ---- teardown ----
    assert!(strict.handle.stats().fanout > 0);
    strict.handle.shutdown();
    partial.handle.shutdown();
    strict.thread.join().unwrap();
    partial.thread.join().unwrap();
    for d in daemons {
        d.handle.shutdown();
        d.thread.join().unwrap();
    }
}

#[test]
fn reload_swaps_the_map_and_survives_a_corrupt_one() {
    let tree = sample_tree();
    let (map, daemons) = boot_shards(&tree, 2);

    let dir = std::env::temp_dir().join(format!("tc_router_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let map_path = dir.join("shards.tcmap");
    map.save_to_path(&map_path).unwrap();

    let gateway = boot_router(
        map.clone(),
        RouterConfig {
            map_path: Some(map_path.clone()),
            ..RouterConfig::default()
        },
    );

    // A good reload swaps in the re-read map.
    assert_eq!(gateway.handle.reload().unwrap(), (2, map.items.len()));

    // A corrupt map is refused; the old layout keeps serving.
    let mut bytes = std::fs::read(&map_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&map_path, &bytes).unwrap();
    assert!(gateway.handle.reload().is_err());
    let (status, _, body) = raw_get(&gateway.addr, "/qba?alpha=0.0");
    assert_eq!(status, 200, "{body}");
    let metrics = gateway.handle.prometheus();
    assert!(
        metrics.contains("tcrouter_reloads_total{outcome=\"ok\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("tcrouter_reloads_total{outcome=\"error\"} 1"),
        "{metrics}"
    );

    gateway.handle.shutdown();
    gateway.thread.join().unwrap();
    for d in daemons {
        d.handle.shutdown();
        d.thread.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The exit-line counters span reloads: a reload swaps in fresh shard
/// pools, and the fan-out the retired ones counted still adds up.
#[test]
fn stats_survive_a_reload() {
    let tree = sample_tree();
    let (map, daemons) = boot_shards(&tree, 2);
    let dir = std::env::temp_dir().join(format!("tc_router_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let map_path = dir.join("shards.tcmap");
    map.save_to_path(&map_path).unwrap();
    let mut shrunk = map.clone();
    shrunk.shards.truncate(1);
    let gateway = boot_router(
        map,
        RouterConfig {
            map_path: Some(map_path.clone()),
            ..RouterConfig::default()
        },
    );

    let served = 5u64;
    for _ in 0..served {
        let (status, _, body) = raw_get(&gateway.addr, "/qba?alpha=0.0");
        assert_eq!(status, 200, "{body}");
    }
    let scrape = || {
        let (status, _, body) = raw_get(&gateway.addr, "/metrics");
        assert_eq!(status, 200, "{body}");
        per_shard_samples(&body)
    };
    let before = scrape();
    assert_eq!(before["tcrouter_fanout_total{shard=\"1\"}"], served as f64);
    assert_eq!(gateway.handle.reload().unwrap().0, 2);
    // The reloaded map keeps both shard ids, so each keeps its counters:
    // a drop to zero would read as a counter reset mid-process.
    let after = scrape();
    for (sample, value) in &before {
        let now = after.get(sample).unwrap_or_else(|| panic!("{sample} gone"));
        assert!(now >= value, "{sample} fell from {value} to {now}");
    }
    let stats = gateway.handle.stats();
    assert!(stats.fanout >= served * 2, "{stats:?}");
    assert_eq!(stats.shard_errors, 0, "{stats:?}");
    assert_eq!(stats.reloads, 1, "{stats:?}");

    // A map without shard 1: its series leave /metrics, and its count
    // stays in the totals exactly once.
    shrunk.save_to_path(&map_path).unwrap();
    assert_eq!(gateway.handle.reload().unwrap().0, 1);
    let after = scrape();
    assert!(
        !after.keys().any(|k| k.contains("shard=\"1\"")),
        "{after:?}"
    );
    assert_eq!(gateway.handle.stats().fanout, stats.fanout);

    gateway.handle.shutdown();
    let at_exit = gateway.thread.join().unwrap();
    assert_eq!(at_exit.fanout, stats.fanout, "{at_exit:?}");
    for d in daemons {
        d.handle.shutdown();
        d.thread.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A pooled shard connection the daemon has idled out must not surface:
/// the daemon's parting `ERR session idle timeout` line used to be read
/// as the next request's answer (a `500`), and the dead socket, checked
/// back in, broke the request after it (a `503`) — from healthy shards.
#[test]
fn stale_pooled_connections_are_retried_not_surfaced() {
    let tree = sample_tree();
    let (map, daemons) = boot_shards_with(
        &tree,
        2,
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(400)),
            ..ServeConfig::default()
        },
    );
    let gateway = boot_router(map, RouterConfig::default());

    // Pool one connection per shard, then let both daemons idle them out.
    let (status, _, body) = raw_get(&gateway.addr, "/qbp?items=-");
    assert_eq!(status, 200, "{body}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemons.iter().any(|d| d.handle.stats().timeouts == 0) {
        assert!(Instant::now() < deadline, "shards never idled the pool out");
        std::thread::sleep(Duration::from_millis(20));
    }

    for i in 0..4 {
        let (status, _, body) = raw_get(&gateway.addr, "/qbp?items=-");
        assert_eq!(status, 200, "request {i} after the idle-out: {body}");
    }
    // The shards were healthy throughout: nothing counts as a shard error.
    let metrics = gateway.handle.prometheus();
    for shard in 0..2 {
        let needle = format!("tcrouter_shard_errors_total{{shard=\"{shard}\"}} 0\n");
        assert!(metrics.contains(&needle), "{metrics}");
    }
    assert!(metrics.contains("tcrouter_shards_down 0\n"), "{metrics}");

    gateway.handle.shutdown();
    gateway.thread.join().unwrap();
    for d in daemons {
        d.handle.shutdown();
        d.thread.join().unwrap();
    }
}

/// What the scripted shard does with each request line it reads.
#[derive(Clone, Copy)]
enum Script {
    /// Answer correctly and keep the session.
    Answer,
    /// Answer correctly, then close: every *pooled* session is dead on
    /// reuse, every fresh one works.
    AnswerOnce,
    /// Answer `ERR` and keep the session.
    Err,
    /// Write an `OK` header promising two trusses, then close.
    CloseMidAnswer,
    /// Close without a byte of answer.
    CloseUnanswered,
}

/// A shard daemon's stand-in: a valid `TCSERVE` greeting over a real
/// shard segment, then whatever the current [`Script`] says.
struct FakeShard {
    addr: String,
    script: Arc<Mutex<Script>>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl FakeShard {
    fn boot(seg: SegmentTcTree, script: Script) -> FakeShard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let seg = Arc::new(seg);
        let script = Arc::new(Mutex::new(script));
        let stop = Arc::new(AtomicBool::new(false));
        let (shared_script, stopping) = (script.clone(), stop.clone());
        let thread = std::thread::spawn(move || {
            let mut sessions = Vec::new();
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let (seg, script) = (seg.clone(), shared_script.clone());
                sessions.push(std::thread::spawn(move || {
                    fake_session(stream.unwrap(), &seg, &script)
                }));
            }
            for s in sessions {
                s.join().unwrap();
            }
        });
        FakeShard {
            addr,
            script,
            stop,
            thread,
        }
    }

    fn set(&self, script: Script) {
        *self.script.lock().unwrap() = script;
    }

    /// Call after every router that pooled a session here has shut down:
    /// the sessions end at their peer's EOF.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr); // wake the accept loop
        self.thread.join().unwrap();
    }
}

fn fake_session(stream: TcpStream, seg: &SegmentTcTree, script: &Mutex<Script>) {
    let mut out = stream.try_clone().unwrap();
    let greeting = tc_serve::protocol::encode_greeting_ok(seg.num_nodes(), seg.alpha_upper_bound());
    if out.write_all(greeting.as_bytes()).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return;
        }
        let (items, alpha) = match Request::parse(line.trim_end()).unwrap() {
            Request::Qbp { items, .. } => (items, 0.0),
            Request::Query { items, alpha, .. } => (items, alpha),
            other => panic!("the router never sends {other:?}"),
        };
        let q: tc_txdb::Pattern = items.into_iter().map(tc_txdb::Item).collect();
        let frame = QueryResponse::from_result(&seg.query(&q, alpha).unwrap()).encode_tab();
        let script = *script.lock().unwrap();
        let (reply, keep): (&[u8], bool) = match script {
            Script::Answer => (frame.as_bytes(), true),
            Script::AnswerOnce => (frame.as_bytes(), false),
            Script::Err => (b"ERR\tscripted failure\n", true),
            Script::CloseMidAnswer => (b"OK\t2\t2\t0\n", false),
            Script::CloseUnanswered => (b"", false),
        };
        if out.write_all(reply).is_err() || !keep {
            return;
        }
    }
}

/// A 2-way split with the scripted fake as shard 0 and a real daemon as
/// shard 1 — the fake is read first, so whatever it does, the real
/// shard's answer is still in flight behind it.
struct FakeAndReal {
    map: ShardMap,
    fake: FakeShard,
    real: Daemon,
    unsharded: SegmentTcTree,
    /// The real shard's own segment, for what `--partial` must answer.
    real_seg: SegmentTcTree,
}

fn boot_fake_and_real(script: Script) -> FakeAndReal {
    let tree = sample_tree();
    let parts = split_tree(&tree, HashScheme::Crc32Item, 2);
    let fake = FakeShard::boot(segment(&parts[0]), script);
    let (real_entry, real) = boot_daemon(segment(&parts[1]), ServeConfig::default());
    let fake_entry = ShardEntry {
        addr: fake.addr.clone(),
        path: String::new(),
    };
    let map = ShardMap {
        scheme: HashScheme::Crc32Item,
        items: level1_items(&tree),
        shards: vec![fake_entry, real_entry],
    };
    FakeAndReal {
        map,
        fake,
        real,
        unsharded: segment(&tree),
        real_seg: segment(&parts[1]),
    }
}

impl FakeAndReal {
    fn teardown(self, gateways: Vec<Gateway>) {
        for g in gateways {
            g.handle.shutdown();
            g.thread.join().unwrap();
        }
        self.fake.stop();
        self.real.handle.shutdown();
        self.real.thread.join().unwrap();
    }
}

fn pattern(ids: &[u32]) -> tc_txdb::Pattern {
    ids.iter().map(|&i| tc_txdb::Item(i)).collect()
}

/// Requires `GET path` to answer 200, whole, and byte-identical (modulo
/// `secs`) to `want`'s wire form.
fn assert_answers(addr: &str, path: &str, want: &tc_index::QueryResult) {
    let (status, headers, body) = raw_get(addr, path);
    assert_eq!(status, 200, "{path}: {body}");
    assert!(header(&headers, "X-TC-Partial-Shards").is_none(), "{path}");
    let want = QueryResponse::from_result(want).encode_json();
    assert_eq!(split_secs(&body), split_secs(&want), "{path}");
}

/// Every per-shard `tcrouter_*` sample in a scrape, by its series name
/// with labels: the fan-out and error counters and the latency histogram's
/// buckets, sum and count.
fn per_shard_samples(metrics: &str) -> std::collections::BTreeMap<String, f64> {
    metrics
        .lines()
        .filter(|l| l.starts_with("tcrouter_") && l.contains("shard=\""))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            (series.to_string(), value.parse().unwrap())
        })
        .collect()
}

/// The value of one un-labelled or fully spelled series in a scrape.
fn series(metrics: &str, name: &str) -> u64 {
    let line = metrics
        .lines()
        .find(|l| l.strip_prefix(name).is_some_and(|r| r.starts_with(' ')))
        .unwrap_or_else(|| panic!("no series {name} in:\n{metrics}"));
    line[name.len() + 1..].parse().unwrap()
}

/// I1 under transport failure: a shard that dies mid-answer costs that
/// request (503, or a partial 200) and nothing else — the real shard's
/// answer to the failed request is never left on its pooled connection
/// for the next, different query to read.
#[test]
fn a_shard_closing_mid_answer_never_poisons_the_next_query() {
    let t = boot_fake_and_real(Script::Answer);
    let strict = boot_router(t.map.clone(), RouterConfig::default());
    let partial = boot_router(
        t.map.clone(),
        RouterConfig {
            partial: true,
            ..RouterConfig::default()
        },
    );
    let qba = t.unsharded.query_by_alpha(0.0).unwrap();
    let qbp = t.unsharded.query(&pattern(&[0, 1]), 0.0).unwrap();
    let real_qba = t.real_seg.query(&pattern(&t.map.items), 0.0).unwrap();
    let real_qbp = t.real_seg.query(&pattern(&[0, 1]), 0.0).unwrap();
    assert_ne!(
        QueryResponse::from_result(&real_qba).trusses,
        QueryResponse::from_result(&real_qbp).trusses,
        "a left-over QBA answer must be tellable from the QBP's"
    );

    // Pool a session per shard on both routers: the failures below hit
    // reused connections first, then the fresh retry.
    for g in [&strict, &partial] {
        assert_answers(&g.addr, "/query?items=0&alpha=0.1", {
            &t.unsharded.query(&pattern(&[0]), 0.1).unwrap()
        });
    }

    for failure in [Script::CloseMidAnswer, Script::CloseUnanswered] {
        t.fake.set(failure);
        let (status, _, body) = raw_get(&strict.addr, "/qba?alpha=0.0");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("shard(s) 0 unavailable"), "{body}");
        let metrics = strict.handle.prometheus();
        assert_eq!(series(&metrics, "tcrouter_shards_down"), 1, "{metrics}");

        // `--partial`: exactly the real shard's own answer, the fake named.
        let (status, headers, body) = raw_get(&partial.addr, "/qba?alpha=0.0");
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "X-TC-Partial-Shards"), Some("0"), "{body}");
        let want = QueryResponse::from_result(&real_qba).encode_json();
        assert_eq!(split_secs(&body), split_secs(&want));

        // The fake behaves again: the next, different query is whole and
        // is its own answer, on both routers.
        t.fake.set(Script::Answer);
        assert_answers(&strict.addr, "/qbp?items=0,1", &qbp);
        assert_answers(&partial.addr, "/qbp?items=0,1", &qbp);
        assert_answers(&strict.addr, "/qba?alpha=0.0", &qba);
    }

    // Seven scatters on the strict router, one RPC per shard each (a retry
    // is not a second RPC); only the two fresh-connection failures count.
    let metrics = strict.handle.prometheus();
    for shard in 0..2 {
        let fanout = format!("tcrouter_fanout_total{{shard=\"{shard}\"}}");
        assert_eq!(series(&metrics, &fanout), 7, "{metrics}");
    }
    let errors = |shard: u32| format!("tcrouter_shard_errors_total{{shard=\"{shard}\"}}");
    assert_eq!(series(&metrics, &errors(0)), 2, "{metrics}");
    assert_eq!(series(&metrics, &errors(1)), 0, "{metrics}");
    assert_eq!(series(&metrics, "tcrouter_shards_down"), 0, "{metrics}");

    t.teardown(vec![strict, partial]);
}

/// I1 on the early `Remote` → 500 return: the shard that answered `ERR`
/// is healthy, the request is refused, and the real shard's answer to it
/// is drained, not left for the next query — on fresh connections and on
/// pooled ones.
#[test]
fn a_shard_answering_err_never_poisons_the_next_query() {
    let t = boot_fake_and_real(Script::Err);
    let gateway = boot_router(t.map.clone(), RouterConfig::default());
    let qbp = t.unsharded.query(&pattern(&[0, 1]), 0.0).unwrap();

    for round in 0..2 {
        t.fake.set(Script::Err);
        let (status, _, body) = raw_get(&gateway.addr, "/qba?alpha=0.0");
        assert_eq!(status, 500, "round {round}: {body}");
        assert!(body.contains("scripted failure"), "round {round}: {body}");
        t.fake.set(Script::Answer);
        assert_answers(&gateway.addr, "/qbp?items=0,1", &qbp);
    }

    // An `ERR` is the request's fault, never the shard's.
    let metrics = gateway.handle.prometheus();
    for shard in 0..2 {
        let errors = format!("tcrouter_shard_errors_total{{shard=\"{shard}\"}}");
        assert_eq!(series(&metrics, &errors), 0, "{metrics}");
    }
    assert_eq!(series(&metrics, "tcrouter_shards_down"), 0, "{metrics}");

    t.teardown(vec![gateway]);
}

/// I2, the scripted twin of `stale_pooled_connections_are_retried_not_surfaced`:
/// a shard that closes every session after one answer kills each pooled
/// connection and no fresh one, so every request is still whole and
/// nothing counts against the shard.
#[test]
fn a_shard_killing_pooled_sessions_is_retried_not_surfaced() {
    let t = boot_fake_and_real(Script::AnswerOnce);
    let gateway = boot_router(t.map.clone(), RouterConfig::default());
    let qba = t.unsharded.query_by_alpha(0.0).unwrap();
    let qbp = t.unsharded.query(&pattern(&[0, 1]), 0.0).unwrap();

    for i in 0..6 {
        if i % 2 == 0 {
            assert_answers(&gateway.addr, "/qba?alpha=0.0", &qba);
        } else {
            assert_answers(&gateway.addr, "/qbp?items=0,1", &qbp);
        }
    }
    let metrics = gateway.handle.prometheus();
    for shard in 0..2 {
        let errors = format!("tcrouter_shard_errors_total{{shard=\"{shard}\"}}");
        assert_eq!(series(&metrics, &errors), 0, "{metrics}");
        let fanout = format!("tcrouter_fanout_total{{shard=\"{shard}\"}}");
        assert_eq!(series(&metrics, &fanout), 6, "{metrics}");
    }
    assert_eq!(series(&metrics, "tcrouter_shards_down"), 0, "{metrics}");

    t.teardown(vec![gateway]);
}

/// One HTTP response off a raw byte stream.
#[derive(Debug, PartialEq)]
struct RawResponse {
    status_line: String,
    /// Every header but `Content-Length` (checked against the body
    /// instead: `secs` renders at different widths).
    headers: Vec<String>,
    body: String,
}

/// Writes `payload`, reads to EOF, and splits what came back into
/// responses, with each body's `secs` value blanked.
fn raw_exchange(addr: &str, payload: &[u8]) -> Vec<RawResponse> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).unwrap();
    let mut bytes = Vec::new();
    // A `400` closes with request bytes unread, which may reset the
    // connection after the response arrived: keep what was read.
    let _ = stream.read_to_end(&mut bytes);
    let mut rest = String::from_utf8(bytes).unwrap();
    let mut responses = Vec::new();
    while !rest.is_empty() {
        let (head, tail) = rest.split_once("\r\n\r\n").expect("complete response head");
        let mut lines = head.split("\r\n").map(str::to_string);
        let status_line = lines.next().unwrap();
        let (length, headers): (Vec<String>, Vec<String>) =
            lines.partition(|l| l.starts_with("Content-Length: "));
        let length: usize = length[0]["Content-Length: ".len()..].parse().unwrap();
        let (body, tail) = tail.split_at(length);
        // Blank every timing (a batch body has one per entry).
        let body = body
            .split("\"secs\":")
            .enumerate()
            .map(|(i, part)| match (i, part.split_once(',')) {
                (0, _) | (_, None) => part.to_string(),
                (_, Some((_, after))) => format!("\"secs\":_,{after}"),
            })
            .collect();
        responses.push(RawResponse {
            status_line,
            headers,
            body,
        });
        rest = tail.to_string();
    }
    responses
}

/// The router's front end *is* the daemon's: the same raw request bytes —
/// every malformed-input case of tc-serve's gateway tests included — draw
/// byte-identical status lines, headers and bodies (modulo `secs`) from a
/// daemon and from a router over a 1-way split of the same tree.
#[test]
fn daemon_and_one_shard_router_answer_raw_bytes_identically() {
    let tree = sample_tree();
    let daemon_over = |cfg: ServeConfig| {
        let server = Server::bind(segment(&tree), "127.0.0.1:0", cfg).unwrap();
        let addr = server.local_http_addr().unwrap().unwrap().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            server.run().unwrap();
        });
        (addr, Daemon { handle, thread })
    };
    let with_http = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let (map, shards) = boot_shards(&tree, 1);
    let (daemon_addr, daemon) = daemon_over(with_http.clone());
    let gateway = boot_router(map.clone(), RouterConfig::default());

    for case in common::raw_cases() {
        let from_daemon = raw_exchange(&daemon_addr, &case.payload);
        let from_router = raw_exchange(&gateway.addr, &case.payload);
        let statuses: Vec<u16> = from_daemon
            .iter()
            .map(|r| r.status_line.split(' ').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(statuses, case.statuses, "{}", case.name);
        assert_eq!(from_daemon, from_router, "{}", case.name);
    }

    // Rate limiting: a burst of two, the third request refused, the
    // introspection endpoints exempt (their bodies are each daemon's own,
    // so only their status lines and headers compare).
    let limit = Some(tc_serve::RateLimit {
        per_sec: 0.001, // effectively no refill within the test
        burst: 2.0,
    });
    let (limited_addr, limited_daemon) = daemon_over(ServeConfig {
        rate_limit: limit,
        ..with_http
    });
    let limited_gateway = boot_router(
        map,
        RouterConfig {
            rate_limit: limit,
            ..RouterConfig::default()
        },
    );
    let burst = b"GET /qba?alpha=0 HTTP/1.1\r\n\r\nGET /qbp?items=0 HTTP/1.1\r\n\r\n\
                  GET /qba?alpha=0 HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n\
                  GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
    let mut from_daemon = raw_exchange(&limited_addr, burst);
    let mut from_router = raw_exchange(&limited_gateway.addr, burst);
    let lines: Vec<&str> = from_daemon.iter().map(|r| r.status_line.as_str()).collect();
    assert_eq!(
        lines,
        [
            "HTTP/1.1 200 OK",
            "HTTP/1.1 200 OK",
            "HTTP/1.1 429 Too Many Requests",
            "HTTP/1.1 200 OK",
            "HTTP/1.1 200 OK"
        ]
    );
    for r in from_daemon[3..].iter_mut().chain(&mut from_router[3..]) {
        r.body.clear();
    }
    assert_eq!(from_daemon, from_router);

    for g in [gateway, limited_gateway] {
        g.handle.shutdown();
        g.thread.join().unwrap();
    }
    for d in shards.into_iter().chain([daemon, limited_daemon]) {
        d.handle.shutdown();
        d.thread.join().unwrap();
    }
}
