//! End-to-end daemon tests over real loopback sockets: correctness
//! against the in-memory tree, admission control, concurrent clients,
//! protocol errors, and graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use tc_data::{generate_coauthor, CoauthorConfig};
use tc_index::{TcTree, TcTreeBuilder};
use tc_serve::{ClientError, Counter, ServeClient, ServeConfig, Server, ServerHandle};
use tc_store::SegmentTcTree;
use tc_txdb::Pattern;

#[path = "common/trickle.rs"]
mod trickle;

fn sample_tree() -> TcTree {
    let net = generate_coauthor(&CoauthorConfig {
        groups: 3,
        authors_per_group: 8,
        seed: 11,
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

/// Starts a daemon on an ephemeral port; returns the address, the remote
/// control, and the join handle for `run()`.
fn spawn_server(
    tree: &TcTree,
    cfg: ServeConfig,
) -> (
    String,
    ServerHandle,
    std::thread::JoinHandle<tc_serve::StatsSnapshot>,
) {
    let server = Server::bind(segment_of(tree), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn truss_key(items: &[u32], vertices: usize, edges: usize) -> (Vec<u32>, usize, usize) {
    (items.to_vec(), vertices, edges)
}

#[test]
fn remote_answers_equal_local_queries() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(&tree, ServeConfig::default());
    let mut client = ServeClient::connect(&addr).unwrap();
    assert_eq!(client.nodes(), tree.num_nodes());
    assert_eq!(client.server_version(), tc_serve::PROTOCOL_VERSION);

    // QBA at a sweep of thresholds.
    let bound = client.alpha_star();
    for i in 0..6 {
        let alpha = bound * i as f64 / 5.0;
        let remote = client.qba(alpha).unwrap();
        let local = tree.query_by_alpha(alpha);
        assert_eq!(remote.retrieved, local.retrieved_nodes, "alpha={alpha}");
        assert_eq!(remote.visited, local.visited_nodes, "alpha={alpha}");
        let got: Vec<_> = remote
            .trusses
            .iter()
            .map(|t| truss_key(&t.items, t.vertices, t.edges))
            .collect();
        let want: Vec<_> = local
            .trusses
            .iter()
            .map(|t| {
                truss_key(
                    &t.pattern.iter().map(|i| i.0).collect::<Vec<_>>(),
                    t.num_vertices(),
                    t.num_edges(),
                )
            })
            .collect();
        assert_eq!(got, want, "alpha={alpha}");
    }

    // QBP and QUERY on every node pattern of the tree.
    for id in 1..=tree.num_nodes() as u32 {
        let q = tree.node(id).pattern.clone();
        let ids: Vec<u32> = q.iter().map(|i| i.0).collect();
        let remote = client.qbp(&ids).unwrap();
        let local = tree.query_by_pattern(&q);
        assert_eq!(remote.retrieved, local.retrieved_nodes, "q={q}");
        let remote = client.query(&ids, bound / 2.0).unwrap();
        let local = tree.query(&q, bound / 2.0);
        assert_eq!(remote.retrieved, local.retrieved_nodes, "q={q}");
    }

    // Empty pattern: QBP over `-`.
    let remote = client.qbp(&[]).unwrap();
    let local = tree.query_by_pattern(&Pattern::empty());
    assert_eq!(remote.retrieved, local.retrieved_nodes);

    client.quit().unwrap();
    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::RejectedBusy], 0);
    assert!(stats[Counter::Qba] >= 6 && stats[Counter::Qbp] >= 1 && stats[Counter::Query] >= 1);
}

/// The split the router's scatter rests on: two different queries written
/// back to back before either is read come back in send order, each equal
/// (timing aside) to its own round trip on the same session.
#[test]
fn pipelined_queries_are_answered_in_order() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(&tree, ServeConfig::default());
    let mut client = ServeClient::connect(&addr).unwrap();
    let timeless = |mut r: tc_serve::QueryResponse| {
        r.elapsed_secs = 0.0;
        r
    };
    let ids: Vec<u32> = tree.node(1).pattern.iter().map(|i| i.0).collect();
    let qba = timeless(client.qba(0.0).unwrap());
    let qbp = timeless(client.qbp(&ids).unwrap());
    assert_ne!(qba, qbp, "the two answers must be tellable apart");

    let qbp_line = tc_serve::Request::Qbp {
        items: ids,
        json: false,
    }
    .encode();
    client.send_line("QBA 0\n").unwrap();
    client.send_line(&format!("{qbp_line}\n")).unwrap();
    assert_eq!(timeless(client.recv_query().unwrap()), qba);
    assert_eq!(timeless(client.recv_query().unwrap()), qbp);
    // The session is clean afterwards: a plain round trip still pairs up.
    assert_eq!(timeless(client.qba(0.0).unwrap()), qba);

    client.quit().unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn overload_yields_busy_and_slot_frees_on_disconnect() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(
        &tree,
        ServeConfig {
            workers: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        },
    );

    // Occupy the only admission slot with a live session.
    let mut holder = ServeClient::connect(&addr).unwrap();
    holder.qba(0.0).unwrap();

    // The next connection must be rejected with BUSY, not queued.
    match ServeClient::connect(&addr) {
        Err(e) if e.is_busy() => {}
        Err(e) => panic!("expected BUSY, got error {e}"),
        Ok(_) => panic!("expected BUSY, got admitted"),
    }

    // Releasing the slot re-opens admission (poll: the server notices the
    // disconnect at its next read tick).
    holder.quit().unwrap();
    let mut admitted = None;
    for _ in 0..100 {
        match ServeClient::connect(&addr) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(e) if e.is_busy() => std::thread::sleep(std::time::Duration::from_millis(20)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let mut client = admitted.expect("slot never freed after QUIT");
    client.qba(0.0).unwrap();

    let stats_rows = client.stats().unwrap();
    let get = |key: &str| {
        stats_rows
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing stats key {key}"))
            .1
    };
    assert!(get("rejected_busy") >= 1, "busy rejection not counted");
    assert_eq!(get("max_inflight"), 1);
    assert_eq!(get("inflight"), 1, "only this session should be admitted");

    client.quit().unwrap();
    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats[Counter::RejectedBusy] >= 1);
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(
        &tree,
        ServeConfig {
            workers: 4,
            max_inflight: 32,
            ..ServeConfig::default()
        },
    );
    let bound = segment_of(&tree).alpha_upper_bound();
    let expected: Vec<usize> = (0..4)
        .map(|i| tree.query_by_alpha(bound * i as f64 / 4.0).retrieved_nodes)
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (addr, expected) = (&addr, &expected);
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for round in 0..20 {
                    let i = round % 4;
                    let r = client.qba(bound * i as f64 / 4.0).unwrap();
                    assert_eq!(r.retrieved, expected[i]);
                }
                client.quit().unwrap();
            });
        }
    });

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.queries_served(), 8 * 20);
    assert_eq!(stats[Counter::Admitted], 8);
}

#[test]
fn protocol_errors_keep_the_session_alive() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(&tree, ServeConfig::default());

    // Raw socket: drive the wire by hand.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    assert!(line.starts_with("TCSERVE"), "{line}");

    let mut stream = stream;
    for bad in ["FROB\n", "QBA notanumber\n", "QBA -1\n", "QUERY 1,2\n"] {
        stream.write_all(bad.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR\t"), "request {bad:?} -> {line}");
    }

    // The session still works after the errors.
    stream.write_all(b"QBA 0.0\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK\t"), "{line}");
    let (count, _, _) = tc_serve::QueryResponse::parse_tab_header(&line).unwrap();
    for _ in 0..count {
        line.clear();
        reader.read_line(&mut line).unwrap();
    }

    // JSON mode answers a single JSON line.
    stream.write_all(b"QBA 0.0 JSON\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("{\"status\":\"ok\""), "{line}");
    stream.write_all(b"STATS JSON\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"protocol_errors\":4"), "{line}");

    stream.write_all(b"QUIT\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "BYE");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::ProtocolErrors], 4);
}

#[test]
fn endless_unterminated_line_is_cut_off() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(&tree, ServeConfig::default());

    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    assert!(line.starts_with("TCSERVE"), "{line}");

    // Stream newline-less bytes past the request-line cap: the server
    // must cut the session off instead of buffering without bound.
    let mut stream = stream;
    let chunk = vec![b'7'; 64 * 1024];
    for _ in 0..20 {
        if stream.write_all(&chunk).is_err() {
            break; // already cut off — that's the point
        }
    }
    line.clear();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => {} // closed/reset before the ERR was readable
        Ok(_) => assert!(line.starts_with("ERR\t"), "{line}"),
    }

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(
        stats[Counter::ProtocolErrors] >= 1,
        "cut-off was not counted"
    );
}

#[test]
fn shutdown_verb_stops_the_daemon() {
    let tree = sample_tree();
    let (addr, _handle, join) = spawn_server(&tree, ServeConfig::default());
    let client = ServeClient::connect(&addr).unwrap();
    client.shutdown_server().unwrap();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::Admitted], 1);
    // The port is closed: a fresh connect must fail (or be reset before a
    // greeting arrives).
    assert!(
        ServeClient::connect(&addr).is_err(),
        "daemon still serving after SHUTDOWN"
    );
}

#[test]
fn handle_shutdown_drains_inflight_sessions() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(&tree, ServeConfig::default());
    let mut client = ServeClient::connect(&addr).unwrap();
    client.qba(0.0).unwrap();
    handle.shutdown();
    assert!(handle.is_shutting_down());
    // run() returns even though this session never sent QUIT.
    join.join().unwrap();
    // The held session is now dead: the next request fails.
    assert!(client.qba(0.0).is_err());
}

#[test]
fn stalled_sessions_time_out_and_free_their_slot() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(
        &tree,
        ServeConfig {
            workers: 1,
            max_inflight: 1,
            idle_timeout: Some(std::time::Duration::from_millis(400)),
            ..ServeConfig::default()
        },
    );

    // A connect-and-stall client: reads the greeting, then goes silent,
    // holding the only admission slot.
    let staller = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(staller.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("TCSERVE"), "{line}");

    // While the staller holds the slot, admission rejects with BUSY.
    match ServeClient::connect(&addr) {
        Err(e) if e.is_busy() => {}
        Err(e) => panic!("expected BUSY while stalled, got error {e}"),
        Ok(_) => panic!("expected BUSY while stalled, got admitted"),
    }

    // The idle timeout must close the stalled session and free the slot.
    let mut admitted = None;
    for _ in 0..200 {
        match ServeClient::connect(&addr) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(e) if e.is_busy() => std::thread::sleep(std::time::Duration::from_millis(20)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let mut client = admitted.expect("stalled session never timed out");
    let rows = client.stats().unwrap();
    let timeouts = rows
        .iter()
        .find(|(k, _)| k == "timeouts")
        .expect("timeouts row missing from STATS")
        .1;
    assert!(timeouts >= 1, "timeout not counted: {rows:?}");

    client.quit().unwrap();
    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats[Counter::Timeouts] >= 1);
    drop(staller);
}

#[test]
fn quit_frees_the_slot_before_bye() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(
        &tree,
        ServeConfig {
            workers: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        },
    );

    // A client that has read `BYE` reconnects at once: the accept loop
    // admits it without a tick's delay, so the slot must already be free.
    for round in 0..1000 {
        match ServeClient::connect(&addr) {
            Ok(client) => client.quit().unwrap(),
            Err(e) => panic!("round {round}: reconnect after BYE refused: {e}"),
        }
    }

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats[Counter::RejectedBusy], 0);
}

#[test]
fn busy_retry_succeeds_once_the_slot_frees() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(
        &tree,
        ServeConfig {
            workers: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        },
    );

    // Occupy the only slot, then release it from another thread while the
    // retrying client is backing off.
    let holder = ServeClient::connect(&addr).unwrap();

    // Fail-fast policy: no retries means the BUSY surfaces immediately.
    let policy = tc_serve::RetryPolicy::default();
    assert_eq!(policy.retries, 0);
    match ServeClient::connect_with_retry(&addr, &policy) {
        Err(e) if e.is_busy() => {}
        Err(e) => panic!("expected immediate BUSY, got error {e}"),
        Ok(_) => panic!("expected immediate BUSY, got admitted"),
    }

    let releaser = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(300));
        holder.quit().unwrap();
    });
    let policy = tc_serve::RetryPolicy {
        retries: 40,
        base_delay: std::time::Duration::from_millis(25),
        max_delay: std::time::Duration::from_millis(200),
    };
    let mut client =
        ServeClient::connect_with_retry(&addr, &policy).expect("retry never got admitted");
    client.qba(0.0).unwrap();
    releaser.join().unwrap();

    client.quit().unwrap();
    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(
        stats[Counter::RejectedBusy] >= 2,
        "retries were never rejected"
    );
    assert_eq!(stats[Counter::Admitted], 2);
}

/// A peer that greets, answers the first request line with `header`, and
/// hangs up; returns its address.
fn one_answer_peer(header: &'static str) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut out = stream.try_clone().unwrap();
        out.write_all(tc_serve::protocol::encode_greeting_ok(3, 0.5).as_bytes())
            .unwrap();
        BufReader::new(stream)
            .read_line(&mut String::new())
            .unwrap();
        out.write_all(header.as_bytes()).unwrap();
    });
    (addr, peer)
}

#[test]
fn huge_row_counts_from_a_peer_are_typed_errors() {
    // The count is the peer's claim: the client must run into the closed
    // connection, not abort reserving room for four billion rows.
    let (addr, peer) = one_answer_peer("OK\t4294967295\t0\t0\n");
    let mut client = ServeClient::connect(&addr).unwrap();
    assert_eq!(client.nodes(), 3);
    let err = client.qba(0.5).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    peer.join().unwrap();

    let (addr, peer) = one_answer_peer("OK\t4294967295\n");
    let err = ServeClient::connect(&addr).unwrap().stats().unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    peer.join().unwrap();
}

#[test]
fn zero_worker_config_is_rejected() {
    let tree = sample_tree();
    let seg = segment_of(&tree);
    assert!(Server::bind(
        seg,
        "127.0.0.1:0",
        ServeConfig {
            workers: 0,
            max_inflight: 4,
            ..ServeConfig::default()
        }
    )
    .is_err());
}

#[test]
fn trickling_client_idles_out() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(
        &tree,
        ServeConfig {
            idle_timeout: Some(std::time::Duration::from_millis(400)),
            ..ServeConfig::default()
        },
    );

    // Partial bytes keep arriving faster than the 200 ms read tick, but
    // no line ever completes: the session must idle out all the same.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut greeting = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut greeting)
        .unwrap();
    assert!(greeting.starts_with("TCSERVE"), "{greeting}");
    let open_for = trickle::until_closed(stream, b"QB", b"7");
    println!("trickling session closed after {open_for:?} (idle timeout 400 ms)");
    assert!(
        open_for < std::time::Duration::from_millis(1500),
        "trickling session held for {open_for:?}"
    );

    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(
        stats[Counter::Timeouts] >= 1,
        "timeout not counted: {stats:?}"
    );
}

#[test]
fn idle_front_end_greets_promptly() {
    let tree = sample_tree();
    let (addr, handle, join) = spawn_server(&tree, ServeConfig::default());
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Each connection arrives at an idle accept loop: the greeting must
    // not wait out any accept tick.
    let mut waits = Vec::new();
    for _ in 0..9 {
        std::thread::sleep(std::time::Duration::from_millis(30));
        let started = std::time::Instant::now();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut greeting = String::new();
        BufReader::new(stream).read_line(&mut greeting).unwrap();
        waits.push(started.elapsed());
        assert!(greeting.starts_with("TCSERVE"), "{greeting}");
    }
    waits.sort();
    println!("connect -> greeting at an idle front end: {waits:?}");
    assert!(
        waits[waits.len() / 2] < std::time::Duration::from_millis(5),
        "median connect -> greeting {:?} (all: {waits:?})",
        waits[waits.len() / 2]
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_wakes_an_idle_front_end() {
    let tree = sample_tree();
    let (_addr, handle, join) = spawn_server(&tree, ServeConfig::default());
    std::thread::sleep(std::time::Duration::from_millis(200));

    let started = std::time::Instant::now();
    handle.shutdown();
    join.join().unwrap();
    let took = started.elapsed();
    println!("shutdown of an idle front end took {took:?}");
    assert!(
        took < std::time::Duration::from_millis(50),
        "run returned {took:?} after shutdown"
    );
}
