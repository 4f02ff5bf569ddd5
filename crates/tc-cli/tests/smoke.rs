//! End-to-end smoke test for the `tc` binary itself.
//!
//! The in-process tests in `commands.rs` cover the subcommand logic;
//! this test covers the *binary path* — argument splitting, exit codes,
//! stdout/stderr wiring — by spawning the compiled executable the way CI
//! and users do: generate a tiny network, inspect it, mine it, index it,
//! and query the index. It also pins `tc --help` (`help.txt`) and every
//! subcommand's error paths byte for byte: each failure is one `error: …`
//! line on stderr, nothing on stdout, and exit code 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs the compiled `tc` binary with `args`, panicking on spawn failure.
fn tc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tc"))
        .args(args)
        .output()
        .expect("failed to spawn the tc binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_success(out: &Output, context: &str) {
    assert!(
        out.status.success(),
        "{context} failed (status {:?})\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        stdout(out),
        stderr(out),
    );
}

/// A scratch directory removed on drop, so failed runs don't leak files.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tc_smoke_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn mine_index_query_pipeline() {
    let scratch = Scratch::new("pipeline");
    let net = scratch.path("tiny.dbnet");
    let tree = scratch.path("tiny.tct");

    // Generate: a tiny planted-community network (deterministic seed).
    let out = tc(&[
        "generate", "--kind", "planted", "--out", &net, "--seed", "7",
    ]);
    assert_success(&out, "tc generate");
    assert!(
        stdout(&out).contains("vertices"),
        "generate should report stats: {}",
        stdout(&out)
    );
    assert!(Path::new(&net).exists(), "generate must write the network");

    // Stats: loads the file back and prints graph metrics.
    let out = tc(&["stats", &net]);
    assert_success(&out, "tc stats");
    for field in ["vertices:", "edges:", "triangles:"] {
        assert!(
            stdout(&out).contains(field),
            "stats output missing '{field}':\n{}",
            stdout(&out)
        );
    }

    // Mine: the planted generator guarantees at least one theme community.
    let out = tc(&["mine", &net, "--alpha", "0.1", "--top", "5"]);
    assert_success(&out, "tc mine");
    assert!(
        stdout(&out).contains("maximal pattern trusses"),
        "mine output:\n{}",
        stdout(&out)
    );

    // Index: build and persist the TC-Tree.
    let out = tc(&["index", &net, "--out", &tree, "--threads", "2"]);
    assert_success(&out, "tc index");
    assert!(Path::new(&tree).exists(), "index must write the tree");

    // Query by threshold, then by pattern with name resolution.
    let out = tc(&["query", &tree, "--alpha", "0.2"]);
    assert_success(&out, "tc query --alpha");
    assert!(
        stdout(&out).contains("retrieved"),
        "query output:\n{}",
        stdout(&out)
    );

    let out = tc(&["query", &tree, "--pattern", "0,1", "--network", &net]);
    assert_success(&out, "tc query --pattern");
}

#[test]
fn segment_format_round_trip() {
    let scratch = Scratch::new("segment");
    let net = scratch.path("net.dbnet");
    let tree_seg = scratch.path("tree.seg");
    let tree_txt = scratch.path("tree.tct");

    let out = tc(&[
        "generate", "--kind", "planted", "--out", &net, "--seed", "11",
    ]);
    assert_success(&out, "tc generate");

    // Index straight into the binary segment format.
    let out = tc(&["index", &net, "--out", &tree_seg, "--format", "seg"]);
    assert_success(&out, "tc index --format seg");

    // Query auto-detects the segment by magic bytes and reports laziness.
    let out = tc(&["query", &tree_seg, "--alpha", "0.1"]);
    assert_success(&out, "tc query (segment)");
    assert!(
        stdout(&out).contains("segment backend: materialized"),
        "segment query should report on-demand materialisation:\n{}",
        stdout(&out)
    );

    // Convert segment → text; the text tree answers the same query.
    let out = tc(&["convert", &tree_seg, &tree_txt, "--to", "text"]);
    assert_success(&out, "tc convert");
    let seg_answer = stdout(&tc(&["query", &tree_seg, "--alpha", "0.1"]));
    let txt_answer = stdout(&tc(&["query", &tree_txt, "--alpha", "0.1"]));
    let retrieved = |s: &str| {
        s.lines()
            .find(|l| l.contains("retrieved"))
            .map(|l| l.split_whitespace().nth(1).unwrap().to_string())
    };
    assert_eq!(
        retrieved(&seg_answer),
        retrieved(&txt_answer),
        "segment and text backends disagree:\n{seg_answer}\n{txt_answer}"
    );

    // A corrupted segment fails with a checksum diagnostic, not a crash.
    // Damage the last page — the tail of the lazily-read LEVELS section —
    // and query at α = 0, which materialises every node and so must read it.
    let mut bytes = std::fs::read(&tree_seg).expect("read segment");
    let pos = bytes.len() - 100;
    bytes[pos] ^= 0x40;
    std::fs::write(&tree_seg, &bytes).expect("write damaged segment");
    let out = tc(&["query", &tree_seg, "--alpha", "0.0"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "damaged segment must be an error"
    );
    assert!(
        stderr(&out).contains("checksum") || stderr(&out).contains("corrupt"),
        "diagnostic should name the damage:\n{}",
        stderr(&out)
    );
}

#[test]
fn thread_matrix_is_deterministic() {
    // The CI thread-matrix step asserts the same invariant on the release
    // binary: the mined pattern set and the built index must be
    // byte-identical at every `--threads` count.
    let scratch = Scratch::new("threads");
    let net = scratch.path("net.dbnet");
    let out = tc(&[
        "generate", "--kind", "planted", "--out", &net, "--seed", "7",
    ]);
    assert_success(&out, "tc generate");

    // Mined community listings (the indented lines; the summary line
    // carries wall-clock noise) must agree across thread counts.
    let communities = |threads: &str| {
        let out = tc(&[
            "mine",
            &net,
            "--alpha",
            "0.1",
            "--top",
            "100",
            "--threads",
            threads,
        ]);
        assert_success(&out, "tc mine --threads");
        stdout(&out)
            .lines()
            .filter(|l| l.starts_with("  "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let reference = communities("1");
    assert!(
        !reference.is_empty(),
        "planted network must yield communities"
    );
    for threads in ["2", "8"] {
        assert_eq!(
            reference,
            communities(threads),
            "mined pattern set differs at --threads {threads}"
        );
    }

    // Index files, text and segment, must be byte-identical across thread
    // counts.
    for ext in ["tct", "seg"] {
        let reference_tree = scratch.path(&format!("t1.{ext}"));
        let out = tc(&["index", &net, "--out", &reference_tree, "--threads", "1"]);
        assert_success(&out, "tc index --threads 1");
        let reference_bytes = std::fs::read(&reference_tree).expect("read tree");
        for threads in ["2", "8"] {
            let tree = scratch.path(&format!("t{threads}.{ext}"));
            let out = tc(&["index", &net, "--out", &tree, "--threads", threads]);
            assert_success(&out, "tc index --threads");
            assert_eq!(
                reference_bytes,
                std::fs::read(&tree).expect("read tree"),
                "{ext} index bytes differ at --threads {threads}"
            );
        }
    }
}

/// A spawned daemon, killed on drop: a failing assert must not orphan
/// it (it would hold the test harness's output pipe open forever).
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `tc serve tree` on an ephemeral port with two workers and
/// `extra` flags; returns the daemon, the rest of its stdout, and the
/// address it printed on its first line ("tc-serve listening on <addr> …").
fn serve(
    tree: &str,
    extra: &[&str],
) -> (
    KillOnDrop,
    std::io::BufReader<std::process::ChildStdout>,
    String,
) {
    use std::io::BufRead;
    let mut daemon = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_tc"))
            .args(["serve", tree, "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn tc serve"),
    );
    let mut daemon_stdout = std::io::BufReader::new(daemon.0.stdout.take().expect("daemon stdout"));
    let mut line = String::new();
    daemon_stdout
        .read_line(&mut line)
        .expect("read listening line");
    assert!(
        line.starts_with("tc-serve listening on "),
        "malformed listening line: {line}"
    );
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("malformed listening line: {line}"))
        .to_string();
    (daemon, daemon_stdout, addr)
}

#[test]
fn serve_daemon_round_trip() {
    // The daemon path end to end, exactly as the CI serve-smoke job runs
    // it: spawn `tc serve` on an ephemeral port, learn the port from the
    // listening line, drive it with `tc query --remote`, compare the
    // truss listing byte-for-byte against the local query, overload it
    // into a BUSY, and shut it down cleanly via the protocol.
    use std::io::{BufRead, BufReader};

    let scratch = Scratch::new("serve");
    let net = scratch.path("net.dbnet");
    let tree_seg = scratch.path("tree.seg");
    let out = tc(&[
        "generate", "--kind", "planted", "--out", &net, "--seed", "7",
    ]);
    assert_success(&out, "tc generate");
    let out = tc(&["index", &net, "--out", &tree_seg, "--format", "seg"]);
    assert_success(&out, "tc index --format seg");

    let (mut daemon, mut daemon_stdout, addr) = serve(&tree_seg, &["--max-inflight", "1"]);
    let mut line = String::new();

    // Remote truss listing must match the local one byte for byte.
    let trusses = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("  "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let local = stdout(&tc(&["query", &tree_seg, "--alpha", "0.1"]));
    let out = tc(&["query", "--remote", &addr, "--alpha", "0.1"]);
    assert_success(&out, "tc query --remote");
    assert_eq!(
        trusses(&local),
        trusses(&stdout(&out)),
        "remote and local answers differ:\n{local}\n---\n{}",
        stdout(&out)
    );
    assert!(!trusses(&local).is_empty(), "query must retrieve something");
    let local = stdout(&tc(&[
        "query",
        &tree_seg,
        "--pattern",
        "0,1",
        "--network",
        &net,
    ]));
    let out = tc(&[
        "query",
        "--remote",
        &addr,
        "--pattern",
        "0,1",
        "--network",
        &net,
    ]);
    assert_success(&out, "tc query --remote --pattern");
    assert_eq!(trusses(&local), trusses(&stdout(&out)));

    // Overload: hold the single admission slot with a raw connection and
    // watch the next client get an explicit BUSY (exit 2, no hang).
    let holder = std::net::TcpStream::connect(&addr).expect("holder connect");
    let mut greeting = String::new();
    BufReader::new(holder.try_clone().expect("clone holder"))
        .read_line(&mut greeting)
        .expect("holder greeting");
    assert!(greeting.contains(" OK "), "holder not admitted: {greeting}");
    let out = tc(&["query", "--remote", &addr, "--alpha", "0.1"]);
    assert_eq!(out.status.code(), Some(2), "overload must fail fast");
    assert!(
        stderr(&out).contains("busy"),
        "overload diagnostic should say busy:\n{}",
        stderr(&out)
    );
    drop(holder);

    // Released slot readmits (poll briefly: the server notices the
    // disconnect at its next read tick), then SHUTDOWN stops the daemon.
    let mut readmitted = false;
    for _ in 0..100 {
        let out = tc(&["query", "--remote", &addr, "--alpha", "0.1"]);
        if out.status.success() {
            readmitted = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(readmitted, "slot never freed after holder disconnect");

    let mut shutdown = std::net::TcpStream::connect(&addr).expect("shutdown connect");
    let mut reader = BufReader::new(shutdown.try_clone().expect("clone shutdown"));
    line.clear();
    reader.read_line(&mut line).expect("shutdown greeting");
    std::io::Write::write_all(&mut shutdown, b"SHUTDOWN\n").expect("send SHUTDOWN");
    line.clear();
    reader.read_line(&mut line).expect("read BYE");
    assert_eq!(line.trim_end(), "BYE");

    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "daemon must exit 0 on SHUTDOWN: {status}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut daemon_stdout, &mut rest).expect("drain daemon stdout");
    assert!(
        rest.contains("shutdown complete"),
        "daemon should print its final counters:\n{rest}"
    );
    assert!(
        rest.contains("busy-rejected"),
        "final counters should include admission telemetry:\n{rest}"
    );
}

#[test]
fn one_answer_from_every_reader() {
    // A text tree, its segment, and a daemon serving the segment answer
    // through one function: `tc query --json` prints the same object for
    // all three, bar the wall-clock `secs`.
    let scratch = Scratch::new("readers");
    let net = scratch.path("net.dbnet");
    let tree_txt = scratch.path("tree.tct");
    let tree_seg = scratch.path("tree.seg");
    let out = tc(&[
        "generate", "--kind", "planted", "--out", &net, "--seed", "7",
    ]);
    assert_success(&out, "tc generate");
    for tree in [&tree_txt, &tree_seg] {
        assert_success(&tc(&["index", &net, "--out", tree]), "tc index");
    }
    let (_daemon, _stdout, addr) = serve(&tree_seg, &[]);

    let without_secs = |json: String| {
        let (head, rest) = json.split_once("\"secs\":").expect("a secs field");
        let (_, tail) = rest.split_once(',').expect("fields after secs");
        format!("{head}{tail}")
    };
    for query in [&["--alpha", "0.2"][..], &["--pattern", "0,1"]] {
        let answer = |reader: &[&str]| {
            let args: Vec<&str> = ["query"]
                .iter()
                .chain(reader)
                .chain(query)
                .copied()
                .collect();
            let out = tc(&[&args[..], &["--json"]].concat());
            assert_success(&out, &format!("tc {}", args.join(" ")));
            without_secs(stdout(&out))
        };
        let text = answer(&[&tree_txt]);
        assert!(
            text.contains("\"pattern\":["),
            "{query:?} retrieves nothing: {text}"
        );
        assert_eq!(text, answer(&[&tree_seg]), "{query:?}: text vs segment");
        assert_eq!(
            text,
            answer(&["--remote", &addr]),
            "{query:?}: local vs served"
        );
    }
}

#[test]
fn convert_round_trips_byte_for_byte() {
    // Every conversion there and back reproduces its input exactly.
    let scratch = Scratch::new("convert");
    let net = scratch.path("net.dbnet");
    let tree_txt = scratch.path("tree.tct");
    let tree_seg = scratch.path("tree.seg");
    let out = tc(&[
        "generate", "--kind", "planted", "--out", &net, "--seed", "7",
    ]);
    assert_success(&out, "tc generate");
    for tree in [&tree_txt, &tree_seg] {
        assert_success(&tc(&["index", &net, "--out", tree]), "tc index");
    }
    for (input, there, back) in [
        (&net, "net.seg", "net.back.dbnet"),
        (&tree_txt, "tree.there.seg", "tree.back.tct"),
        (&tree_seg, "tree.there.tct", "tree.back.seg"),
    ] {
        let (there, back) = (scratch.path(there), scratch.path(back));
        assert_success(&tc(&["convert", input, &there]), "tc convert (there)");
        assert_success(&tc(&["convert", &there, &back]), "tc convert (back)");
        assert!(
            std::fs::read(input).expect("read input") == std::fs::read(&back).expect("read back"),
            "{input} -> {there} -> {back} is not byte-identical"
        );
    }
}

#[test]
fn daemons_wake_on_signals() {
    // SIGHUP and SIGTERM reach an idle daemon through the signal wake
    // socket: both `tc serve` and `tc router` answer each within a second,
    // with no client traffic to wake them.
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let scratch = Scratch::new("signals");
    let net = scratch.path("net.dbnet");
    let tree_seg = scratch.path("tree.seg");
    let shards = scratch.path("shards");
    let out = tc(&[
        "generate", "--kind", "planted", "--out", &net, "--seed", "7",
    ]);
    assert_success(&out, "tc generate");
    let out = tc(&["index", &net, "--out", &tree_seg, "--format", "seg"]);
    assert_success(&out, "tc index --format seg");
    // The router never dials its shards here: no request reaches it.
    let out = tc(&["shard", &tree_seg, "--shards", "2", "--out-dir", &shards]);
    assert_success(&out, "tc shard");
    let map = format!("{shards}/shards.tcmap");

    let signal = |pid: u32, sig: &str| {
        let status = Command::new("kill")
            .args([sig, &pid.to_string()])
            .status()
            .expect("spawn kill");
        assert!(status.success(), "kill {sig} {pid} failed");
    };
    for (args, done) in [
        (
            vec!["serve", &tree_seg, "--addr", "127.0.0.1:0"],
            "shutdown complete",
        ),
        (
            vec!["router", &map, "--http-addr", "127.0.0.1:0"],
            "router shutdown complete",
        ),
    ] {
        let mut daemon = KillOnDrop(
            Command::new(env!("CARGO_BIN_EXE_tc"))
                .args(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn daemon"),
        );
        let pid = daemon.0.id();
        let mut daemon_stdout = BufReader::new(daemon.0.stdout.take().expect("daemon stdout"));
        let mut line = String::new();
        daemon_stdout
            .read_line(&mut line)
            .expect("read listening line");
        assert!(line.contains(" listening on "), "{args:?}: {line}");
        let (tx, stderr_lines) = mpsc::channel();
        let daemon_stderr = BufReader::new(daemon.0.stderr.take().expect("daemon stderr"));
        std::thread::spawn(move || {
            for line in daemon_stderr.lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });

        // Idle: every accept loop is asleep in poll.
        std::thread::sleep(Duration::from_millis(300));
        let hup = Instant::now();
        signal(pid, "-HUP");
        let reloaded = stderr_lines
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|e| panic!("{args:?}: no reload line within 1 s ({e})"));
        assert!(reloaded.contains("reloaded"), "{args:?}: {reloaded}");
        println!("{}: SIGHUP -> reloaded in {:?}", args[0], hup.elapsed());

        let term = Instant::now();
        signal(pid, "-TERM");
        let status = loop {
            if let Some(status) = daemon.0.try_wait().expect("poll daemon") {
                break status;
            }
            assert!(
                term.elapsed() < Duration::from_secs(1),
                "{args:?}: still running 1 s after SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        println!("{}: SIGTERM -> exit in {:?}", args[0], term.elapsed());
        assert!(status.success(), "{args:?}: exit {status}");
        let mut rest = String::new();
        daemon_stdout
            .read_to_string(&mut rest)
            .expect("drain daemon stdout");
        assert!(rest.contains(done), "{args:?}: no counter line:\n{rest}");
    }
}

/// `tc --help`, byte for byte: what `tc`, `tc --help` and `tc -h` print
/// on stderr, and what follows an unknown subcommand's error line.
const HELP: &str = include_str!("help.txt");

/// Runs `tc args` and checks that it exits 2, prints nothing on stdout and
/// exactly `error: {message}` and a newline on stderr.
fn assert_error(args: &[&str], message: &str) {
    let out = tc(args);
    assert_eq!(out.status.code(), Some(2), "tc {args:?}: exit code");
    assert_eq!(stdout(&out), "", "tc {args:?}: stdout");
    assert_eq!(
        stderr(&out),
        format!("error: {message}\n"),
        "tc {args:?}: stderr"
    );
}

#[test]
fn unknown_flags_fail_with_a_suggestion() {
    // Each subcommand's unknown flag, with a "did you mean" when a known
    // flag is close and the full list when none is.
    for (args, message) in [
        (&["generate", "--kin", "planted"][..], "unknown flag --kin (did you mean --kind?)"),
        (&["generate", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --kind, --out, --scale, --seed, --format)"),
        (&["stats", "net.dbnet", "--verbose", "1"], "unknown flag --verbose (this subcommand takes no flags)"),
        (&["mine", "net.dbnet", "--thread", "8"], "unknown flag --thread (did you mean --threads?)"),
        (&["mine", "net.dbnet", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --alpha, --miner, --threads, --epsilon, --top)"),
        (&["index", "net.dbnet", "--ot", "x.tct"], "unknown flag --ot (did you mean --out?)"),
        (&["index", "net.dbnet", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --out, --threads, --format)"),
        (&["query", "t.tct", "--pattren", "0,1"], "unknown flag --pattren (did you mean --pattern?)"),
        (&["query", "t.tct", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --alpha, --pattern, --network, --remote, --retries, --retry-max-delay, --json)"),
        (&["serve", "t.seg", "--worker", "2"], "unknown flag --worker (did you mean --workers?)"),
        (&["serve", "t.seg", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --addr, --http-addr, --workers, --max-inflight, --session-timeout, --rate-limit, --cache-bytes)"),
        (&["shard", "t.seg", "--shard", "2"], "unknown flag --shard (did you mean --shards?)"),
        (&["shard", "t.seg", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --shards, --out-dir, --host, --port-base, --addrs)"),
        (&["router", "s.tcmap", "--partail"], "unknown flag --partail (did you mean --partial?)"),
        (&["router", "s.tcmap", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --http-addr, --max-inflight, --session-timeout, --rate-limit, --partial)"),
        (&["ingest", "n.wal", "--op", "x"], "unknown flag --op (did you mean --ops?)"),
        (&["ingest", "n.wal", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --base, --ops, --durability, --batch-records, --batch-delay-ms)"),
        (&["checkpoint", "n.wal", "--ot", "x"], "unknown flag --ot (did you mean --out?)"),
        (&["checkpoint", "n.wal", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --base, --out)"),
        (&["convert", "a", "b", "--too", "seg"], "unknown flag --too (did you mean --to?)"),
        (&["convert", "a", "b", "--frobnicate", "1"], "unknown flag --frobnicate (expected one of: --to)"),
        (&["query", "t.tct", "--alpha"], "flag --alpha needs a value"),
    ] {
        assert_error(args, message);
    }
}

#[test]
fn help_and_error_paths() {
    // Help goes to stderr and succeeds.
    for args in [&[][..], &["--help"], &["-h"]] {
        let out = tc(args);
        assert_eq!(out.status.code(), Some(0), "tc {args:?}");
        assert_eq!(stdout(&out), "", "tc {args:?}: stdout");
        assert_eq!(stderr(&out), HELP, "tc {args:?}: help text");
    }
    // An unknown subcommand is a usage error followed by the help.
    assert_error(
        &["frobnicate"],
        &format!(
            "unknown command 'frobnicate'\n\n{}",
            HELP.trim_end_matches('\n')
        ),
    );

    // Every subcommand run bare: its usage line, or the first required flag.
    for (args, message) in [
        (&["generate"][..], "--kind is required (checkin|coauthor|syn|planted)"),
        (&["stats"], "usage: tc stats <net>"),
        (&["mine"], "usage: tc mine <net> --alpha <F> [--miner tcfi|tcfa|tcs] [--threads N] [--epsilon F] [--top N]"),
        (&["index"], "usage: tc index <net> --out <tree.tct|tree.seg> [--threads N] [--format auto|text|seg]"),
        (&["query"], "usage: tc query <tree> [--alpha F] [--pattern items] [--network net] [--json]\n       \
                      tc query --remote <host:port> [--alpha F] [--pattern items] [--network net] [--json]\n                \
                      [--retries N] [--retry-max-delay MS]"),
        (&["serve"], "usage: tc serve <tree.seg> [--addr host:port] [--http-addr host:port] [--workers N] [--max-inflight N]\n                \
                      [--session-timeout secs] [--rate-limit per-sec] [--cache-bytes N[K|M|G]]"),
        (&["shard"], "usage: tc shard <tree> --shards N [--out-dir DIR] [--addrs a1,a2,…] [--host HOST] [--port-base PORT]"),
        (&["router"], "usage: tc router <shards.tcmap> [--http-addr host:port] [--max-inflight N] [--session-timeout secs]\n                 \
                       [--rate-limit per-sec] [--partial]"),
        (&["ingest"], "usage: tc ingest <net.wal> --ops <file|-> [--base base.seg] [--durability always|batch]\n                 \
                       [--batch-records N] [--batch-delay-ms N]"),
        (&["checkpoint"], "usage: tc checkpoint <net.wal> --out <net.seg> [--base base.seg]"),
        (&["convert"], "usage: tc convert <in> <out> [--to auto|text|seg]"),
        (&["convert", "a"], "usage: tc convert <in> <out> [--to auto|text|seg]"),
    ] {
        assert_error(args, message);
    }

    // Bad values, required flags and contradictions, each refused before
    // any file is read or written.
    let x = "/nonexistent/x.dbnet";
    for (args, message) in [
        (&["generate", "--kind", "planted"][..], "--out is required"),
        (
            &["generate", "--kind", "nope", "--out", x],
            "unknown kind 'nope'",
        ),
        (
            &[
                "generate", "--kind", "planted", "--out", x, "--scale", "abc",
            ],
            "bad --scale value 'abc'",
        ),
        (
            &["generate", "--kind", "planted", "--out", x, "--seed", "abc"],
            "bad --seed value 'abc'",
        ),
        (
            &["mine", "net.dbnet", "--alpha", "abc"],
            "bad --alpha value 'abc'",
        ),
        (
            &["mine", "net.dbnet", "--epsilon", "abc"],
            "bad --epsilon value 'abc'",
        ),
        (
            &["mine", "net.dbnet", "--top", "abc"],
            "bad --top value 'abc'",
        ),
        (
            &["mine", "net.dbnet", "--threads", "abc"],
            "bad --threads value 'abc'",
        ),
        (
            &["mine", "missing.dbnet", "--miner", "bogus"],
            "unknown miner 'bogus'",
        ),
        (&["index", "net.dbnet"], "--out is required"),
        (
            &["index", "net.dbnet", "--out", "x.tct", "--threads", "abc"],
            "bad --threads value 'abc'",
        ),
        (
            &["query", "t.tct", "--alpha", "abc"],
            "bad --alpha value 'abc'",
        ),
        (
            &["query", "--pattern", "abc", "t.tct"],
            "item 'abc' is not numeric; pass --network to resolve names",
        ),
        (
            &["query", "t.tct", "--remote", "127.0.0.1:1"],
            "--remote takes no tree path (the daemon already holds one)",
        ),
        (
            &["query", "--remote", "127.0.0.1:1", "--retries", "abc"],
            "bad --retries value 'abc'",
        ),
        (
            &[
                "query",
                "--remote",
                "127.0.0.1:1",
                "--retries",
                "4294967296",
            ],
            "bad --retries value '4294967296'",
        ),
        (
            &[
                "query",
                "--remote",
                "127.0.0.1:1",
                "--retry-max-delay",
                "abc",
            ],
            "bad --retry-max-delay value 'abc'",
        ),
        (
            &["query", "t.tct", "--retries", "3"],
            "--retries/--retry-max-delay apply to --remote queries only",
        ),
        (
            &["serve", "t.seg", "--workers", "abc"],
            "bad --workers value 'abc'",
        ),
        (
            &["serve", "t.seg", "--max-inflight", "abc"],
            "bad --max-inflight value 'abc'",
        ),
        (
            &["serve", "t.seg", "--session-timeout", "abc"],
            "bad --session-timeout value 'abc'",
        ),
        (
            &["serve", "t.seg", "--rate-limit", "abc"],
            "bad --rate-limit value 'abc'",
        ),
        (
            &["serve", "t.seg", "--cache-bytes", "12T"],
            "bad byte size '12T' (expected N, NK, NM, or NG)",
        ),
        (
            &["shard", "t.seg", "--shards", "abc"],
            "bad --shards value 'abc'",
        ),
        (
            &["shard", "t.seg", "--shards", "0"],
            "--shards 0 outside 1..=4096",
        ),
        (
            &["shard", "t.seg", "--port-base", "abc"],
            "bad --port-base value 'abc'",
        ),
        (
            &["shard", "t.seg", "--port-base", "65535"],
            "--port-base 65535 overflows ports for 2 shards",
        ),
        (
            &["shard", "t.seg", "--port-base", "18446744073709551615"],
            "--port-base 18446744073709551615 overflows ports for 2 shards",
        ),
        (
            &["shard", "t.seg", "--shards", "3", "--addrs", "a:1"],
            "--addrs names 1 daemons but --shards is 3",
        ),
        (
            &["router", "s.tcmap", "--max-inflight", "abc"],
            "bad --max-inflight value 'abc'",
        ),
        (
            &["router", "s.tcmap", "--session-timeout", "abc"],
            "bad --session-timeout value 'abc'",
        ),
        (
            &["router", "s.tcmap", "--rate-limit", "abc"],
            "bad --rate-limit value 'abc'",
        ),
        (
            &["ingest", "n.wal"],
            "--ops is required (a file of mutation lines, or - for stdin)",
        ),
        (
            &["ingest", "n.wal", "--ops", "x", "--durability", "sometimes"],
            "unknown --durability 'sometimes' (always|batch)",
        ),
        (
            &[
                "ingest",
                "n.wal",
                "--ops",
                "x",
                "--durability",
                "batch",
                "--batch-records",
                "abc",
            ],
            "bad --batch-records value 'abc'",
        ),
        (
            &[
                "ingest",
                "n.wal",
                "--ops",
                "x",
                "--durability",
                "batch",
                "--batch-delay-ms",
                "abc",
            ],
            "bad --batch-delay-ms value 'abc'",
        ),
        (&["checkpoint", "n.wal"], "--out is required"),
    ] {
        assert_error(args, message);
    }

    // Missing files fail cleanly with the reader's diagnostic.
    let enoent = "No such file or directory (os error 2)";
    for args in [
        &["stats", "/nonexistent/net.dbnet"][..],
        &["mine", "/nonexistent/net.dbnet"],
        &["index", "/nonexistent/net.dbnet", "--out", "x.tct"],
        &["query", "/nonexistent/tree.tct"],
        &["query", "t.tct", "--network", "/nonexistent/net.dbnet"],
        &["serve", "/nonexistent/tree.seg"],
        &["shard", "/nonexistent/tree.seg"],
        &["convert", "/nonexistent/net.dbnet", "x.seg"],
    ] {
        assert_error(args, &format!("i/o error: {enoent}"));
    }
    assert_error(
        &["router", "/nonexistent/s.tcmap"],
        &format!(
            "/nonexistent/s.tcmap: corrupt file: shardmap: read /nonexistent/s.tcmap: {enoent}"
        ),
    );
    assert_error(
        &["ingest", "n.wal", "--ops", "/nonexistent/ops.txt"],
        &format!("/nonexistent/ops.txt: {enoent}"),
    );
}
