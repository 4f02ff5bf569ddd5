//! Subcommand implementations for the `tc` binary.
//!
//! [`COMMANDS`] is the one list of subcommands: each [`Command`] declares
//! its name, usage, flags and the function that runs it. `main` parses a
//! command's flags through [`Command::parse`] and calls `run`; a command
//! reports any failure by returning `Err(message)`, which `main` prints as
//! one `error: …` line before exiting 2.
//!
//! Networks and TC-Trees exist in two formats — the line-oriented text
//! formats (`dbnet v1` / `tctree v1`) and the binary segment format of
//! `tc-store`. Each value type has one loader (`load_net`, `load_tree`),
//! which auto-detects the format by magic bytes, and one saver
//! (`save_net`, `save_tree`), which picks it by the `--format` flag (`auto`
//! follows the `.seg` extension). `tc query` opens every tree as the
//! segment reader `tc serve` walks and answers through the daemon's own
//! `tc_serve::answer`, so a local answer is the served one.

use std::path::Path;
use std::time::Duration;
use tc_core::{DatabaseNetwork, Miner, ParallelTcfiMiner, TcfaMiner, TcsMiner};
use tc_index::{TcTree, TcTreeBuilder};
use tc_serve::{Counter, QueryResponse, QuerySpec};
use tc_store::{DetectedFormat, SegmentTcTree};
use tc_txdb::Pattern;

/// A subcommand's parsed command line: `--key value` pairs plus
/// positional arguments, checked against the flags its [`Command`]
/// declares.
#[derive(Debug)]
pub struct Flags {
    usage: &'static str,
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

/// Levenshtein edit distance — powers the "did you mean" suggestion.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

impl Flags {
    /// Whether a switch flag was present.
    fn has(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--key`'s value parsed as a `T`, refusing one that does not fit it
    /// (so `--retries 4294967296` is an error, not 0 retries).
    fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value '{v}'")),
        }
    }

    /// A count flag (`--threads`, `--workers`, `--max-inflight`, …): at
    /// least 1, whatever the command line says.
    fn get_count(&self, key: &str, default: usize) -> Result<usize, String> {
        Ok(self.get_num(key, default)?.max(1))
    }

    /// The `i`th positional argument, or the command's usage error.
    fn arg(&self, i: usize) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("usage: {}", self.usage.replace('\n', "\n       ")))
    }

    /// The `--out` path a command requires.
    fn out(&self) -> Result<&str, String> {
        self.get("out").ok_or_else(|| "--out is required".into())
    }

    /// A daemon's `--session-timeout` in seconds; 0 disables it.
    fn session_timeout(&self, default_secs: usize) -> Result<Option<Duration>, String> {
        let secs = self.get_num("session-timeout", default_secs)?;
        Ok((secs > 0).then(|| Duration::from_secs(secs as u64)))
    }

    /// A daemon's per-client-IP `--rate-limit` in requests a second; 0,
    /// the default, disables it.
    fn rate_limit(&self) -> Result<Option<tc_serve::RateLimit>, String> {
        let per_sec = self.get_num::<usize>("rate-limit", 0)?;
        Ok((per_sec > 0).then(|| tc_serve::RateLimit::per_second(per_sec as f64)))
    }
}

/// One subcommand, declared once: its name, the usage lines that both
/// `tc --help` and the command's own usage error print, the flags that
/// take a value, the switches that take none, and the function that runs
/// it on its parsed flags.
pub struct Command {
    pub name: &'static str,
    pub usage: &'static str,
    flags: &'static [&'static str],
    switches: &'static [&'static str],
    pub run: fn(&Flags) -> Result<(), String>,
}

impl Command {
    /// Parses `args` against this command's flags. An unrecognised
    /// `--flag` is rejected up front (with a "did you mean" suggestion
    /// when a known flag is close) instead of being silently swallowed as
    /// an unread key; switches take no value — their presence alone is
    /// the signal (read with [`Flags::has`]).
    pub fn parse(&self, args: &[String]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if self.switches.contains(&key) {
                    options.push((key.to_string(), String::new()));
                    continue;
                }
                if !self.flags.contains(&key) {
                    let all: Vec<&str> = self.flags.iter().chain(self.switches).copied().collect();
                    let suggestion = all
                        .iter()
                        .map(|k| (edit_distance(key, k), k))
                        .min()
                        .filter(|(d, _)| *d <= 2)
                        .map(|(_, k)| *k);
                    return Err(match suggestion {
                        Some(s) => format!("unknown flag --{key} (did you mean --{s}?)"),
                        None if all.is_empty() => {
                            format!("unknown flag --{key} (this subcommand takes no flags)")
                        }
                        None => format!(
                            "unknown flag --{key} (expected one of: {})",
                            all.iter()
                                .map(|k| format!("--{k}"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    });
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                options.push((key.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Flags {
            usage: self.usage,
            positional,
            options,
        })
    }
}

/// Every subcommand, in `tc --help` order.
pub const COMMANDS: [&Command; 11] = [
    &GENERATE,
    &STATS,
    &MINE,
    &INDEX,
    &QUERY,
    &SERVE,
    &SHARD,
    &ROUTER,
    &INGEST,
    &CHECKPOINT,
    &CONVERT,
];

/// Parses a byte-size flag value: a plain integer with an optional
/// `K`/`M`/`G` (or `KB`/`MB`/`GB`, case-insensitive) binary suffix, e.g.
/// `4096`, `64M`, `1G`. `0` means "unbounded" to the callers.
fn parse_byte_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let upper = t.to_ascii_uppercase();
    let (digits, shift) = if let Some(d) = upper.strip_suffix("GB").or(upper.strip_suffix("G")) {
        (d, 30u32)
    } else if let Some(d) = upper.strip_suffix("MB").or(upper.strip_suffix("M")) {
        (d, 20)
    } else if let Some(d) = upper.strip_suffix("KB").or(upper.strip_suffix("K")) {
        (d, 10)
    } else {
        (upper.as_str(), 0)
    };
    let err = || format!("bad byte size '{s}' (expected N, NK, NM, or NG)");
    let n: u64 = digits.trim().parse().map_err(|_| err())?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("byte size '{s}' overflows"))
}

/// The shared `--threads` default for `mine` and `index` (and `serve`'s
/// `--workers`): every core the host offers. Results are identical at any
/// thread count (the parallel miner and builders are exact), so
/// defaulting to full parallelism only changes wall-clock, never output.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves `--format auto|text|seg` against an output path: `auto`
/// follows the `.seg` extension.
fn wants_segment(format: Option<&str>, out: &str) -> Result<bool, String> {
    match format.unwrap_or("auto") {
        "seg" => Ok(true),
        "text" => Ok(false),
        "auto" => Ok(Path::new(out).extension().is_some_and(|e| e == "seg")),
        other => Err(format!("unknown --format '{other}' (auto|text|seg)")),
    }
}

/// Whether `path` holds the segment (`true`) or the text (`false`) form of
/// a `want` ("network" or "TC-Tree"), detected by magic bytes.
fn sniff(path: &str, want: &str) -> Result<bool, String> {
    let (segment, holds) = match tc_store::detect_format(Path::new(path))
        .map_err(|e| e.to_string())?
    {
        DetectedFormat::SegmentNetwork => (true, "network"),
        DetectedFormat::TextNetwork => (false, "network"),
        DetectedFormat::SegmentTree => (true, "TC-Tree"),
        DetectedFormat::TextTree => (false, "TC-Tree"),
        DetectedFormat::Unknown => return Err(format!("{path} is not a recognised {want} format")),
    };
    if holds != want {
        return Err(format!("{path} holds a {holds}, expected a {want}"));
    }
    Ok(segment)
}

/// Loads a network in either format.
fn load_net(path: &str) -> Result<DatabaseNetwork, String> {
    let p = Path::new(path);
    if sniff(path, "network")? {
        tc_store::load_network_segment_from_path(p)
    } else {
        tc_data::load_network_from_path(p)
    }
    .map_err(|e| e.to_string())
}

/// Writes `net` to `out` in the format `--format` picks.
fn save_net(net: &DatabaseNetwork, out: &str, format: Option<&str>) -> Result<(), String> {
    let p = Path::new(out);
    if wants_segment(format, out)? {
        tc_store::save_network_segment_to_path(net, p)
    } else {
        tc_data::save_network_to_path(net, p)
    }
    .map_err(|e| e.to_string())
}

/// Loads a TC-Tree in either format.
fn load_tree(path: &str) -> Result<TcTree, String> {
    let p = Path::new(path);
    if sniff(path, "TC-Tree")? {
        tc_store::load_tree_segment_from_path(p)
    } else {
        TcTree::load_from_path(p)
    }
    .map_err(|e| e.to_string())
}

/// Writes `tree` to `out` in the format `--format` picks.
fn save_tree(tree: &TcTree, out: &str, format: Option<&str>) -> Result<(), String> {
    let p = Path::new(out);
    if wants_segment(format, out)? {
        tc_store::save_tree_segment_to_path(tree, p)
    } else {
        tree.save_to_path(p)
    }
    .map_err(|e| e.to_string())
}

/// Opens a TC-Tree as the segment reader `tc serve` walks: a segment file
/// lazily, a text tree through its segment image in memory.
fn open_tree(path: &str) -> Result<SegmentTcTree, String> {
    let tree = if sniff(path, "TC-Tree")? {
        SegmentTcTree::open(Path::new(path))
    } else {
        let mut image = Vec::new();
        tc_store::save_tree_segment(&load_tree(path)?, &mut image).map_err(|e| e.to_string())?;
        SegmentTcTree::from_bytes(image)
    };
    tree.map_err(|e| e.to_string())
}

const GENERATE: Command = Command {
    name: "generate",
    usage: "tc generate --kind <checkin|coauthor|syn|planted> --out <net> [--scale F] [--seed N] \
            [--format auto|text|seg]",
    flags: &["kind", "out", "scale", "seed", "format"],
    switches: &[],
    run: generate,
};

/// `tc generate`: writes one of the generated dataset analogs.
fn generate(flags: &Flags) -> Result<(), String> {
    let kind = flags
        .get("kind")
        .ok_or("--kind is required (checkin|coauthor|syn|planted)")?;
    let out = flags.out()?;
    let scale = flags.get_num::<f64>("scale", 1.0)?;
    let seed = flags.get_num::<u64>("seed", 42)?;

    let network = match kind {
        "checkin" => {
            let cfg = tc_data::CheckinConfig {
                users: ((120.0 * scale) as usize).max(10),
                groups: ((10.0 * scale) as usize).max(2),
                seed,
                ..tc_data::CheckinConfig::default()
            };
            tc_data::generate_checkin(&cfg).network
        }
        "coauthor" => {
            let cfg = tc_data::CoauthorConfig {
                groups: ((6.0 * scale) as usize).clamp(2, 64),
                authors_per_group: ((12.0 * scale.sqrt()) as usize).max(4),
                seed,
                ..tc_data::CoauthorConfig::default()
            };
            tc_data::generate_coauthor(&cfg).network
        }
        "syn" => {
            let cfg = tc_data::SynConfig {
                vertices: ((2000.0 * scale) as usize).max(50),
                seed,
                ..tc_data::SynConfig::default()
            };
            tc_data::generate_synthetic(&cfg)
        }
        "planted" => {
            let cfg = tc_data::PlantedConfig {
                communities: ((4.0 * scale) as usize).max(2),
                seed,
                ..tc_data::PlantedConfig::default()
            };
            tc_data::generate_planted(&cfg).network
        }
        other => return Err(format!("unknown kind '{other}'")),
    };

    save_net(&network, out, flags.get("format"))?;
    let s = network.stats();
    println!(
        "wrote {out}: {} vertices, {} edges, {} transactions, {} unique items",
        s.vertices, s.edges, s.transactions, s.items_unique
    );
    Ok(())
}

const STATS: Command = Command {
    name: "stats",
    usage: "tc stats <net>",
    flags: &[],
    switches: &[],
    run: stats,
};

/// `tc stats`: prints a network's size and clustering statistics.
fn stats(flags: &Flags) -> Result<(), String> {
    let net = load_net(flags.arg(0)?)?;
    let s = net.stats();
    println!("vertices:       {}", s.vertices);
    println!("edges:          {}", s.edges);
    println!("transactions:   {}", s.transactions);
    println!("items (total):  {}", s.items_total);
    println!("items (unique): {}", s.items_unique);
    println!("triangles:      {}", tc_graph::count_triangles(net.graph()));
    println!("max degree:     {}", net.graph().max_degree());
    println!("mean degree:    {:.2}", tc_graph::mean_degree(net.graph()));
    println!(
        "avg clustering: {:.4}",
        tc_graph::average_clustering(net.graph())
    );
    println!("transitivity:   {:.4}", tc_graph::transitivity(net.graph()));
    Ok(())
}

const MINE: Command = Command {
    name: "mine",
    usage:
        "tc mine <net> --alpha <F> [--miner tcfi|tcfa|tcs] [--threads N] [--epsilon F] [--top N]",
    flags: &["alpha", "miner", "threads", "epsilon", "top"],
    switches: &[],
    run: mine,
};

/// `tc mine`: finds the theme communities of a network at one `α`.
fn mine(flags: &Flags) -> Result<(), String> {
    let path = flags.arg(0)?;
    let alpha = flags.get_num::<f64>("alpha", 0.1)?;
    let epsilon = flags.get_num::<f64>("epsilon", 0.1)?;
    let top = flags.get_num::<usize>("top", 20)?;
    let threads = flags.get_count("threads", default_threads())?;
    let miner_name = flags.get("miner").unwrap_or("tcfi");
    // Warn only on an *explicit* --threads: the default is whatever the
    // host offers, which non-tcfi miners legitimately ignore.
    if flags.get("threads").is_some() && threads > 1 && miner_name != "tcfi" {
        eprintln!("warning: --threads applies to the tcfi miner only; mining single-threaded");
    }
    let miner: Box<dyn Miner> = match miner_name {
        "tcfi" => Box::new(ParallelTcfiMiner {
            max_len: usize::MAX,
            threads,
        }),
        "tcfa" => Box::new(TcfaMiner::default()),
        "tcs" => Box::new(TcsMiner::with_epsilon(epsilon)),
        other => return Err(format!("unknown miner '{other}'")),
    };
    let net = load_net(path)?;

    let result = miner.mine(&net, alpha);
    println!(
        "{} found {} maximal pattern trusses (NV={}, NE={}) in {:.3}s ({} MPTD calls)",
        miner.name(),
        result.np(),
        result.nv(),
        result.ne(),
        result.stats.elapsed_secs,
        result.stats.mptd_calls
    );
    let mut communities = result.communities();
    communities.sort_by_key(|c| std::cmp::Reverse((c.pattern.len(), c.num_vertices())));
    println!("\ntop {} theme communities:", top.min(communities.len()));
    for c in communities.iter().take(top) {
        println!(
            "  {}  — {} vertices, {} edges",
            net.item_space().render(&c.pattern),
            c.num_vertices(),
            c.num_edges()
        );
    }
    Ok(())
}

const INDEX: Command = Command {
    name: "index",
    usage: "tc index <net> --out <tree.tct|tree.seg> [--threads N] [--format auto|text|seg]",
    flags: &["out", "threads", "format"],
    switches: &[],
    run: index,
};

/// `tc index`: builds the TC-Tree of a network and writes it out.
fn index(flags: &Flags) -> Result<(), String> {
    let path = flags.arg(0)?;
    let out = flags.out()?;
    let threads = flags.get_count("threads", default_threads())?;
    let net = load_net(path)?;
    let tree = TcTreeBuilder {
        threads,
        max_len: usize::MAX,
    }
    .build(&net);
    save_tree(&tree, out, flags.get("format"))?;
    println!(
        "wrote {out}: {} nodes, max depth {}, alpha* = {:.4}, built in {:.3}s",
        tree.num_nodes(),
        tree.max_depth(),
        tree.alpha_upper_bound(),
        tree.stats().build_secs
    );
    Ok(())
}

/// Resolves a `--pattern` spec (comma-separated numeric ids or, with a
/// network, item names) into a [`Pattern`].
fn parse_pattern(spec: &str, net: Option<&DatabaseNetwork>) -> Result<Pattern, String> {
    let mut items = Vec::new();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        // Numeric id, or a name resolved through --network.
        let item = if let Ok(id) = token.parse::<u32>() {
            tc_txdb::Item(id)
        } else if let Some(net) = net {
            net.item_space()
                .get(token)
                .ok_or_else(|| format!("unknown item '{token}'"))?
        } else {
            return Err(format!(
                "item '{token}' is not numeric; pass --network to resolve names"
            ));
        };
        items.push(item);
    }
    Ok(Pattern::new(items))
}

/// Prints one answer, local or remote, the same way: the wire object
/// with `--json`, else a summary line, the `backend` line and the truss
/// listing — so the two paths diff clean in CI.
fn print_answer(answer: &QueryResponse, backend: &str, net: Option<&DatabaseNetwork>, json: bool) {
    if json {
        print!("{}", answer.encode_json());
        return;
    }
    println!(
        "retrieved {} maximal pattern trusses in {:.6}s ({} nodes visited)",
        answer.retrieved, answer.elapsed_secs, answer.visited
    );
    println!("{backend}");
    for t in answer.trusses.iter().take(20) {
        let rendered = match net {
            Some(n) => n.item_space().render(&t.pattern()),
            None => t.pattern().to_string(),
        };
        println!("  {rendered}: {} vertices, {} edges", t.vertices, t.edges);
    }
    if answer.trusses.len() > 20 {
        println!("  … and {} more", answer.trusses.len() - 20);
    }
}

const QUERY: Command = Command {
    name: "query",
    usage: "tc query <tree> [--alpha F] [--pattern items] [--network net] [--json]\n\
            tc query --remote <host:port> [--alpha F] [--pattern items] [--network net] [--json]\n         \
            [--retries N] [--retry-max-delay MS]",
    flags: &[
        "alpha",
        "pattern",
        "network",
        "remote",
        "retries",
        "retry-max-delay",
    ],
    switches: &["json"],
    run: query,
};

/// `tc query`: answers QBA/QBP from a local tree file or, with
/// `--remote`, from a running daemon.
///
/// A local tree of either format is answered through [`tc_serve::answer`],
/// the daemon's own function, so with `--json` both arms print the serving
/// wire object — one line, identical to what the daemon's `JSON` frames
/// and HTTP bodies carry — and local and remote answers are
/// byte-comparable (CI's `http-smoke` job diffs exactly this against
/// `curl`).
fn query(flags: &Flags) -> Result<(), String> {
    let alpha = flags.get_num::<f64>("alpha", 0.0)?;
    // Optional network for item-name resolution and pretty printing.
    let net = flags.get("network").map(load_net).transpose()?;
    let spec = match flags.get("pattern") {
        None => QuerySpec::Qba(alpha),
        Some(spec) => {
            let pattern = parse_pattern(spec, net.as_ref())?;
            QuerySpec::Query(pattern.iter().map(|i| i.0).collect(), alpha)
        }
    };

    let (answer, backend) = if let Some(addr) = flags.get("remote") {
        if !flags.positional.is_empty() {
            return Err("--remote takes no tree path (the daemon already holds one)".into());
        }
        // BUSY rejections are the retryable failure: back off and try
        // again, up to --retries times. Everything else fails fast.
        let policy = tc_serve::RetryPolicy {
            retries: flags.get_num("retries", 0)?,
            max_delay: Duration::from_millis(flags.get_num("retry-max-delay", 2000)?),
            ..tc_serve::RetryPolicy::default()
        };
        query_remote(addr, &policy, &spec)?
    } else {
        if flags.get("retries").is_some() || flags.get("retry-max-delay").is_some() {
            return Err("--retries/--retry-max-delay apply to --remote queries only".into());
        }
        let tree = open_tree(flags.arg(0)?)?;
        let answer = tc_serve::answer(&tree, &spec).map_err(|e| e.to_string())?;
        let backend = format!(
            "segment backend: materialized {} of {} nodes on demand",
            tree.materialized_nodes(),
            tree.num_nodes()
        );
        (answer, backend)
    };
    print_answer(&answer, &backend, net.as_ref(), flags.has("json"));
    Ok(())
}

/// The `--remote` arm of `tc query`: the answer from a `tc serve` daemon
/// over TCP, and the line naming that backend.
fn query_remote(
    addr: &str,
    policy: &tc_serve::RetryPolicy,
    spec: &QuerySpec,
) -> Result<(QueryResponse, String), String> {
    let mut client = tc_serve::ServeClient::connect_with_retry(addr, policy)
        .map_err(|e| format!("{addr}: {e}"))?;
    let answer = match spec {
        QuerySpec::Qba(alpha) => client.qba(*alpha),
        QuerySpec::Qbp(items) => client.qbp(items),
        QuerySpec::Query(items, alpha) => client.query(items, *alpha),
    }
    .map_err(|e| format!("{addr}: {e}"))?;
    let backend = format!(
        "remote backend: {addr} ({} nodes, protocol v{})",
        client.nodes(),
        client.server_version()
    );
    let _ = client.quit();
    Ok((answer, backend))
}

const SERVE: Command = Command {
    name: "serve",
    usage: "tc serve <tree.seg> [--addr host:port] [--http-addr host:port] [--workers N] \
            [--max-inflight N]\n         \
            [--session-timeout secs] [--rate-limit per-sec] [--cache-bytes N[K|M|G]]",
    flags: &[
        "addr",
        "http-addr",
        "workers",
        "max-inflight",
        "session-timeout",
        "rate-limit",
        "cache-bytes",
    ],
    switches: &[],
    run: serve,
};

/// `tc serve`: the query daemon.
///
/// Opens a TC-Tree segment once and serves QBA/QBP/QUERY over TCP — and,
/// with `--http-addr`, over the HTTP/JSON gateway too — until
/// SIGTERM/SIGINT or a client's `SHUTDOWN` verb. `SIGHUP` re-opens the
/// segment path and hot-swaps it in without dropping sessions. Admission
/// is bounded: beyond `--max-inflight` concurrent sessions, new
/// connections are answered with a one-line `BUSY` greeting (TCP) or a
/// `503` (HTTP) and closed. `--rate-limit N` additionally caps each
/// client IP at N requests/second (0, the default, disables). Sessions
/// idle longer than `--session-timeout` seconds (default 300; 0
/// disables) are closed to free their admission slot.
///
/// Memory envelope: `--cache-bytes N[K|M|G]` bounds the bytes of
/// materialised truss decompositions (0, the default, is unbounded); it
/// applies to `SIGHUP` reloads as well.
fn serve(flags: &Flags) -> Result<(), String> {
    let path = flags.arg(0)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7641");
    let workers = flags.get_count("workers", default_threads())?;
    let max_inflight = flags.get_count("max-inflight", workers.saturating_mul(16))?;
    let idle_timeout = flags.session_timeout(300)?;
    let http_addr = flags.get("http-addr").map(str::to_string);
    let rate_limit = flags.rate_limit()?;
    let cache_bytes = flags
        .get("cache-bytes")
        .map(parse_byte_size)
        .transpose()?
        .filter(|&n| n > 0);
    let store = tc_store::StoreOptions { cache_bytes };

    // The daemon serves the lazy segment reader only: a text tree would
    // mean re-parsing the whole index up front — convert it once instead.
    if !sniff(path, "TC-Tree")? {
        return Err(format!(
            "{path} is a text tree; convert it first: tc convert {path} tree.seg"
        ));
    }
    let tree = SegmentTcTree::open_with(Path::new(path), store).map_err(|e| e.to_string())?;

    tc_serve::install_signal_handlers().map_err(|e| format!("signal handlers: {e}"))?;
    let server = tc_serve::Server::bind(
        tree,
        addr,
        tc_serve::ServeConfig {
            workers,
            max_inflight,
            idle_timeout,
            http_addr,
            rate_limit,
            reload_path: Some(std::path::PathBuf::from(path)),
            store,
        },
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "tc-serve listening on {local} ({path}, workers={workers}, max-inflight={max_inflight}, \
         cache-bytes={})",
        cache_bytes.map_or_else(|| "unbounded".to_string(), |n| n.to_string())
    );
    if let Some(http) = server.local_http_addr() {
        let http = http.map_err(|e| e.to_string())?;
        println!("tc-serve http gateway on {http} (GET /healthz, /metrics, /qba, /qbp, /query; POST /query)");
    }
    // Piped stdout is block-buffered: flush so supervisors (and the smoke
    // test) can read the resolved address before the first connection.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let stats = server.run().map_err(|e| e.to_string())?;
    println!(
        "shutdown complete: {} sessions admitted, {} busy-rejected, {} queries served \
         ({} QBA, {} QBP, {} QUERY), {} protocol errors",
        stats[Counter::Admitted],
        stats[Counter::RejectedBusy],
        stats.queries_served(),
        stats[Counter::Qba],
        stats[Counter::Qbp],
        stats[Counter::Query],
        stats[Counter::ProtocolErrors]
    );
    Ok(())
}

const SHARD: Command = Command {
    name: "shard",
    usage: "tc shard <tree> --shards N [--out-dir DIR] [--addrs a1,a2,…] [--host HOST] \
            [--port-base PORT]",
    flags: &["shards", "out-dir", "host", "port-base", "addrs"],
    switches: &[],
    run: shard,
};

/// `tc shard`: hash-partitions a TC-Tree into N self-contained segment
/// files plus a `TCMAP01` shard map wiring them to daemon addresses.
///
/// Each output segment is a complete, independently servable TC-Tree
/// (root + the level-1 subtrees the shard owns); `tc router` scatters
/// queries across them and merges. Addresses come from `--addrs a,b,…`
/// verbatim, or are synthesised as `HOST:PORT_BASE+i`.
fn shard(flags: &Flags) -> Result<(), String> {
    let path = flags.arg(0)?;
    let shard_count = flags.get_num::<usize>("shards", 2)?;
    if !(1..=tc_store::shardmap::MAX_SHARDS).contains(&shard_count) {
        return Err(format!(
            "--shards {shard_count} outside 1..={}",
            tc_store::shardmap::MAX_SHARDS
        ));
    }
    let out_dir = Path::new(flags.get("out-dir").unwrap_or("shards"));
    let host = flags.get("host").unwrap_or("127.0.0.1");
    let port_base = flags.get_num::<usize>("port-base", 7701)?;
    if port_base.saturating_add(shard_count) > 65536 {
        return Err(format!(
            "--port-base {port_base} overflows ports for {shard_count} shards"
        ));
    }
    let addrs: Vec<String> = match flags.get("addrs") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect(),
        None => (0..shard_count)
            .map(|i| format!("{host}:{}", port_base + i))
            .collect(),
    };
    if addrs.len() != shard_count {
        return Err(format!(
            "--addrs names {} daemons but --shards is {shard_count}",
            addrs.len()
        ));
    }

    // Any tree format works as input: the shards are always segments.
    let tree = load_tree(path)?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let scheme = tc_store::HashScheme::Crc32Item;
    let shards = tc_store::split_tree(&tree, scheme, shard_count as u32);
    let mut entries = Vec::with_capacity(shard_count);
    for (i, (shard, addr)) in shards.iter().zip(&addrs).enumerate() {
        let file = out_dir.join(format!("shard-{i:03}.seg"));
        tc_store::save_tree_segment_to_path(shard, &file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "shard {i}: {} ({} nodes, serve at {addr})",
            file.display(),
            shard.num_nodes()
        );
        entries.push(tc_store::ShardEntry {
            addr: addr.clone(),
            path: file.to_string_lossy().into_owned(),
        });
    }
    let map = tc_store::ShardMap {
        scheme,
        items: tc_store::level1_items(&tree),
        shards: entries,
    };
    let map_path = out_dir.join("shards.tcmap");
    map.save_to_path(&map_path)
        .map_err(|e| format!("{}: {e}", map_path.display()))?;
    println!(
        "shard map: {} ({shard_count} shards, scheme {}, {} level-1 items)",
        map_path.display(),
        scheme.name(),
        map.items.len()
    );
    Ok(())
}

const ROUTER: Command = Command {
    name: "router",
    usage: "tc router <shards.tcmap> [--http-addr host:port] [--max-inflight N] \
            [--session-timeout secs]\n          \
            [--rate-limit per-sec] [--partial]",
    flags: &["http-addr", "max-inflight", "session-timeout", "rate-limit"],
    switches: &["partial"],
    run: router,
};

/// `tc router`: the scatter-gather HTTP gateway over a `tc shard` layout.
///
/// Loads a `TCMAP01` map, pools line-protocol `ServeClient` connections
/// to each shard daemon, and serves the same surface as `tc serve`'s
/// gateway (`/qba`, `/qbp`, `/query`, `POST /query`, `/healthz`,
/// `/metrics`) with answers merged to be byte-identical to the unsharded
/// segment (modulo `secs`). SIGHUP re-reads the map; SIGTERM drains and
/// exits.
fn router(flags: &Flags) -> Result<(), String> {
    let path = flags.arg(0)?;
    let http_addr = flags.get("http-addr").unwrap_or("127.0.0.1:7642");
    let max_inflight = flags.get_count("max-inflight", 64)?;
    let idle_timeout = flags.session_timeout(30)?;
    let rate_limit = flags.rate_limit()?;
    let partial = flags.has("partial");

    let map =
        tc_store::ShardMap::load_from_path(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let (shard_count, universe) = (map.shards.len(), map.items.len());

    tc_serve::install_signal_handlers().map_err(|e| format!("signal handlers: {e}"))?;
    let router = tc_router::Router::bind(
        map,
        http_addr,
        tc_router::RouterConfig {
            max_inflight,
            idle_timeout,
            rate_limit,
            partial,
            map_path: Some(std::path::PathBuf::from(path)),
        },
    )
    .map_err(|e| format!("{http_addr}: {e}"))?;
    let local = router.local_addr().map_err(|e| e.to_string())?;
    println!(
        "tc-router listening on {local} ({path}, shards={shard_count}, \
         universe={universe} items, max-inflight={max_inflight}, \
         partial={})",
        if partial { "on" } else { "off" }
    );
    // Piped stdout is block-buffered: flush so supervisors (and the smoke
    // test) can read the resolved address before the first connection.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let stats = router.run().map_err(|e| e.to_string())?;
    println!(
        "router shutdown complete: {} requests, {} shard RPCs \
         ({} transport errors), {} partial responses, {} reloads",
        stats.requests, stats.fanout, stats.shard_errors, stats.partial_responses, stats.reloads
    );
    Ok(())
}

const CONVERT: Command = Command {
    name: "convert",
    usage: "tc convert <in> <out> [--to auto|text|seg]",
    flags: &["to"],
    switches: &[],
    run: convert,
};

/// `tc convert`: converts networks and TC-Trees between the text and segment formats.
/// The input kind is auto-detected; `--to auto` (the default) targets the
/// `.seg` extension or, absent that, the opposite of the input's format.
fn convert(flags: &Flags) -> Result<(), String> {
    let (input, output) = (flags.arg(0)?, flags.arg(1)?);
    let detected = match tc_store::detect_format(Path::new(input)).map_err(|e| e.to_string())? {
        DetectedFormat::Unknown => {
            return Err(format!(
                "{input} is not a recognised network or tree format"
            ))
        }
        d => d,
    };
    let from_segment = matches!(
        detected,
        DetectedFormat::SegmentNetwork | DetectedFormat::SegmentTree
    );
    let to_segment = match flags.get("to") {
        // `auto` with no .seg extension: flip the input's format.
        None | Some("auto") if Path::new(output).extension().is_none_or(|e| e != "seg") => {
            !from_segment
        }
        other => wants_segment(other, output)?,
    };
    if to_segment == from_segment {
        return Err("input is already in the requested format".into());
    }
    let format = Some(if to_segment { "seg" } else { "text" });
    match detected {
        DetectedFormat::SegmentNetwork | DetectedFormat::TextNetwork => {
            save_net(&load_net(input)?, output, format)?
        }
        _ => save_tree(&load_tree(input)?, output, format)?,
    }
    println!(
        "converted {input} -> {output} ({})",
        if to_segment { "segment" } else { "text" }
    );
    Ok(())
}

/// Parses one line of the `tc ingest` ops grammar into WAL records.
///
/// The grammar is line-oriented; blank lines and `#` comments are the
/// caller's to skip. A `tx` op may resolve item *names*: unknown names
/// are auto-interned, emitting an `AddItem` record ahead of the
/// transaction so replay always sees items before their first use.
///
/// ```text
/// item <name>            # rest of line is the name
/// db <vertex>
/// edge <u> <v>           # exactly one record per line
/// tx <vertex> <name,name,...>
/// ```
fn parse_ingest_op(
    line: &str,
    space: &mut tc_txdb::ItemSpace,
) -> Result<Vec<tc_store::WalRecord>, String> {
    use tc_store::WalRecord;
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb {
        "item" => {
            if rest.is_empty() {
                return Err("item needs a name".into());
            }
            space.intern(rest);
            Ok(vec![WalRecord::AddItem {
                name: rest.to_string(),
            }])
        }
        "db" => {
            let vertex: u32 = rest
                .parse()
                .map_err(|_| format!("db needs a vertex id, got '{rest}'"))?;
            Ok(vec![WalRecord::AddDatabase { vertex }])
        }
        "edge" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [u, v] = parts.as_slice() else {
                return Err(format!("edge needs exactly two vertex ids, got '{rest}'"));
            };
            let u: u32 = u.parse().map_err(|_| format!("bad vertex id '{u}'"))?;
            let v: u32 = v.parse().map_err(|_| format!("bad vertex id '{v}'"))?;
            if u == v {
                return Err(format!("edge {u} {v} is a self-loop"));
            }
            Ok(vec![WalRecord::AddEdge { u, v }])
        }
        "tx" => {
            let Some((vertex, names)) = rest.split_once(char::is_whitespace) else {
                return Err(format!(
                    "tx needs a vertex id and an item list, got '{rest}'"
                ));
            };
            let vertex: u32 = vertex
                .parse()
                .map_err(|_| format!("bad vertex id '{vertex}'"))?;
            let mut records = Vec::new();
            let mut items = Vec::new();
            for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                let item = match space.get(name) {
                    Some(item) => item,
                    None => {
                        records.push(WalRecord::AddItem {
                            name: name.to_string(),
                        });
                        space.intern(name)
                    }
                };
                items.push(item.0);
            }
            if items.is_empty() {
                return Err("tx needs at least one item".into());
            }
            records.push(WalRecord::AddTransaction { vertex, items });
            Ok(records)
        }
        other => Err(format!("unknown op '{other}' (expected item|db|edge|tx)")),
    }
}

const INGEST: Command = Command {
    name: "ingest",
    usage: "tc ingest <net.wal> --ops <file|-> [--base base.seg] [--durability always|batch]\n          \
            [--batch-records N] [--batch-delay-ms N]",
    flags: &[
        "base",
        "ops",
        "durability",
        "batch-records",
        "batch-delay-ms",
    ],
    switches: &[],
    run: ingest,
};

/// `tc ingest`: appends mutations to a write-ahead log.
///
/// Opens (or creates) the write-ahead log, replays whatever survived a
/// previous run, then appends one mutation per ops line. Lines stream:
/// with `--durability always` every acked record is already fsynced, so
/// killing the process mid-stream loses at most the line in flight.
fn ingest(flags: &Flags) -> Result<(), String> {
    use std::io::BufRead;
    let wal_path = flags.arg(0)?;
    let ops_path = flags
        .get("ops")
        .ok_or("--ops is required (a file of mutation lines, or - for stdin)")?;
    let durability = match flags.get("durability").unwrap_or("always") {
        "always" => tc_store::Durability::Always,
        "batch" => tc_store::Durability::Batch {
            max_records: flags.get_count("batch-records", 64)?,
            max_delay: Duration::from_millis(flags.get_num("batch-delay-ms", 50)?),
        },
        other => return Err(format!("unknown --durability '{other}' (always|batch)")),
    };
    let reader: Box<dyn BufRead> = if ops_path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(ops_path).map_err(|e| format!("{ops_path}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };

    let base = flags.get("base").map(Path::new);
    let store = tc_store::WalStore::open(base, Path::new(wal_path), durability)
        .map_err(|e| format!("{wal_path}: {e}"))?;
    print!(
        "recovered {} records from {wal_path}",
        store.recovered_records()
    );
    if store.truncated_bytes() > 0 {
        print!(" (torn tail: {} bytes truncated)", store.truncated_bytes());
    }
    println!();

    let mut space = store.network().item_space().clone();
    let mut appended = 0u64;
    for (no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("{ops_path}: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let records = parse_ingest_op(trimmed, &mut space)
            .map_err(|e| format!("{ops_path}:{}: {e}", no + 1))?;
        for record in &records {
            store
                .append(record)
                .map_err(|e| format!("{wal_path}: append failed: {e}"))?;
            appended += 1;
        }
    }
    store
        .flush()
        .map_err(|e| format!("{wal_path}: flush failed: {e}"))?;
    println!(
        "appended {appended} records to {wal_path} (durable through seqno {})",
        store.wal().durable_seqno()
    );
    Ok(())
}

const CHECKPOINT: Command = Command {
    name: "checkpoint",
    usage: "tc checkpoint <net.wal> --out <net.seg> [--base base.seg]",
    flags: &["base", "out"],
    switches: &[],
    run: checkpoint,
};

/// `tc checkpoint`: folds the base segment plus the log into a fresh segment at `--out`,
/// then resets the log to a single checkpoint marker. Crash-safe by
/// write ordering: the segment is fsynced and renamed into place before
/// the log is touched.
fn checkpoint(flags: &Flags) -> Result<(), String> {
    let wal_path = flags.arg(0)?;
    let out = flags.out()?;
    let base = flags.get("base").map(Path::new);
    let report = tc_store::wal::checkpoint(base, Path::new(wal_path), Path::new(out))
        .map_err(|e| format!("{wal_path}: {e}"))?;
    if report.truncated_bytes > 0 {
        println!(
            "torn tail: {} bytes truncated while opening {wal_path}",
            report.truncated_bytes
        );
    }
    println!(
        "folded {} records into {out}: {} vertices, {} edges, {} transactions, {} unique items",
        report.folded_records,
        report.stats.vertices,
        report.stats.edges,
        report.stats.transactions,
        report.stats.items_unique
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Runs `tc args` through the dispatcher `main` uses; returns the
    /// exit code.
    fn tc(args: &[&str]) -> i32 {
        crate::dispatch(&strs(args))
    }

    #[test]
    fn flags_parse_positional_and_options() {
        let f = MINE
            .parse(&strs(&["net.dbnet", "--alpha", "0.5", "--top", "3"]))
            .unwrap();
        assert_eq!(f.positional, vec!["net.dbnet"]);
        assert_eq!(f.get("alpha"), Some("0.5"));
        assert_eq!(f.get_num::<f64>("alpha", 0.0).unwrap(), 0.5);
        assert_eq!(f.get_num::<usize>("top", 20).unwrap(), 3);
        assert_eq!(f.get_num::<f64>("missing", 1.5).unwrap(), 1.5);
    }

    #[test]
    fn flags_missing_value_is_error() {
        assert!(MINE.parse(&strs(&["--alpha"])).is_err());
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("4096"), Ok(4096));
        assert_eq!(parse_byte_size("0"), Ok(0));
        assert_eq!(parse_byte_size("64K"), Ok(64 << 10));
        assert_eq!(parse_byte_size("64kb"), Ok(64 << 10));
        assert_eq!(parse_byte_size("8M"), Ok(8 << 20));
        assert_eq!(parse_byte_size("2G"), Ok(2u64 << 30));
        assert_eq!(parse_byte_size(" 16m "), Ok(16 << 20));
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("G").is_err());
        assert!(parse_byte_size("12T").is_err());
        assert!(parse_byte_size("-5M").is_err());
        assert!(parse_byte_size("99999999999999999999G").is_err());
        assert!(
            parse_byte_size(&format!("{}G", u64::MAX / 2)).is_err(),
            "shifted-out bits must error, not truncate"
        );
    }

    #[test]
    fn flags_bad_numeric_is_error() {
        let f = MINE.parse(&strs(&["--alpha", "abc"])).unwrap();
        assert!(f.get_num::<f64>("alpha", 0.0).is_err());
        assert!(f.get_num::<usize>("alpha", 0).is_err());
    }

    #[test]
    fn flags_last_occurrence_wins() {
        let f = MINE
            .parse(&strs(&["--alpha", "0.1", "--alpha", "0.9"]))
            .unwrap();
        assert_eq!(f.get("alpha"), Some("0.9"));
    }

    #[test]
    fn generate_requires_kind_and_out() {
        assert_eq!(tc(&["generate", "--out", "/tmp/x.dbnet"]), 2);
        assert_eq!(tc(&["generate", "--kind", "checkin"]), 2);
        assert_eq!(
            tc(&["generate", "--kind", "nope", "--out", "/tmp/x.dbnet"]),
            2
        );
    }

    #[test]
    fn full_cli_pipeline_in_process() {
        let dir = std::env::temp_dir().join("tc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net = dir.join("cli.dbnet");
        let tree = dir.join("cli.tct");
        let net_s = net.to_string_lossy().to_string();
        let tree_s = tree.to_string_lossy().to_string();

        assert_eq!(
            tc(&[
                "generate", "--kind", "coauthor", "--out", &net_s, "--scale", "0.5", "--seed", "3"
            ]),
            0
        );
        assert_eq!(tc(&["stats", &net_s]), 0);
        assert_eq!(tc(&["mine", &net_s, "--alpha", "0.1", "--top", "3"]), 0);
        assert_eq!(
            tc(&["mine", &net_s, "--alpha", "0.1", "--miner", "tcfa"]),
            0
        );
        assert_eq!(
            tc(&[
                "mine",
                &net_s,
                "--alpha",
                "0.1",
                "--miner",
                "tcs",
                "--epsilon",
                "0.2"
            ]),
            0
        );
        assert_eq!(
            tc(&["index", &net_s, "--out", &tree_s, "--threads", "2"]),
            0
        );
        assert_eq!(tc(&["query", &tree_s, "--alpha", "0.2"]), 0);
        assert_eq!(
            tc(&[
                "query",
                &tree_s,
                "--alpha",
                "0.0",
                "--pattern",
                "0,1",
                "--network",
                &net_s
            ]),
            0
        );
        // Named pattern resolution needs --network.
        assert_eq!(
            tc(&[
                "query",
                &tree_s,
                "--pattern",
                "data mining",
                "--network",
                &net_s
            ]),
            0
        );
        assert_eq!(tc(&["query", &tree_s, "--pattern", "data mining"]), 2);
        // Unknown item name.
        assert_eq!(
            tc(&["query", &tree_s, "--pattern", "zzz", "--network", &net_s]),
            2
        );

        std::fs::remove_file(&net).ok();
        std::fs::remove_file(&tree).ok();
    }

    #[test]
    fn segment_pipeline_in_process() {
        let dir = std::env::temp_dir().join("tc_cli_seg_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_txt = dir.join("seg.dbnet");
        let net_seg = dir.join("seg.netseg.seg");
        let tree_seg = dir.join("seg.tree.seg");
        let tree_txt = dir.join("seg.tree.tct");
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();

        // generate directly to a segment (extension-driven).
        assert_eq!(
            tc(&[
                "generate",
                "--kind",
                "planted",
                "--out",
                &s(&net_seg),
                "--seed",
                "5"
            ]),
            0
        );
        // stats and mine auto-detect the segment network.
        assert_eq!(tc(&["stats", &s(&net_seg)]), 0);
        assert_eq!(
            tc(&["mine", &s(&net_seg), "--alpha", "0.1", "--top", "2"]),
            0
        );
        // index a segment network into a segment tree, query it.
        assert_eq!(
            tc(&[
                "index",
                &s(&net_seg),
                "--out",
                &s(&tree_seg),
                "--format",
                "seg"
            ]),
            0
        );
        assert_eq!(tc(&["query", &s(&tree_seg), "--alpha", "0.1"]), 0);
        assert_eq!(
            tc(&[
                "query",
                &s(&tree_seg),
                "--pattern",
                "0,1",
                "--network",
                &s(&net_seg)
            ]),
            0
        );
        // convert both ways; querying a network file fails cleanly.
        assert_eq!(tc(&["convert", &s(&net_seg), &s(&net_txt)]), 0);
        assert_eq!(
            tc(&["convert", &s(&tree_seg), &s(&tree_txt), "--to", "text"]),
            0
        );
        assert_eq!(tc(&["query", &s(&tree_txt), "--alpha", "0.1"]), 0);
        assert_eq!(tc(&["query", &s(&net_seg)]), 2);
        assert_eq!(tc(&["stats", &s(&tree_seg)]), 2);
        // Re-converting to the same format is rejected.
        assert_eq!(
            tc(&["convert", &s(&net_seg), &s(&net_txt), "--to", "seg"]),
            2
        );

        for p in [&net_txt, &net_seg, &tree_seg, &tree_txt] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn missing_files_fail_cleanly() {
        assert_eq!(tc(&["stats", "/nonexistent/net.dbnet"]), 2);
        assert_eq!(tc(&["mine", "/nonexistent/net.dbnet"]), 2);
        assert_eq!(
            tc(&["index", "/nonexistent/net.dbnet", "--out", "/tmp/t.tct"]),
            2
        );
        assert_eq!(tc(&["query", "/nonexistent/tree.tct"]), 2);
        assert_eq!(tc(&["mine"]), 2);
    }

    #[test]
    fn unknown_flags_are_rejected_with_suggestions() {
        // Typo'd flags must fail loudly, not be silently ignored.
        let err = MINE.parse(&strs(&["--thread", "8"])).unwrap_err();
        assert!(err.contains("did you mean --threads"), "{err}");
        let err = MINE.parse(&strs(&["--frobnicate", "1"])).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
        let err = STATS.parse(&strs(&["--x", "1"])).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");

        // End to end through the subcommands (exit code 2, file untouched).
        assert_eq!(tc(&["mine", "net.dbnet", "--thread", "8"]), 2);
        assert_eq!(tc(&["index", "net.dbnet", "--ot", "x.tct"]), 2);
        assert_eq!(tc(&["stats", "net.dbnet", "--verbose", "1"]), 2);
        assert_eq!(
            tc(&["query", "t.tct", "--pattren", "0,1", "--alpha", "0.1"]),
            2
        );
    }

    #[test]
    fn help_names_exactly_the_flags_each_command_accepts() {
        let help = crate::help_text();
        for cmd in COMMANDS {
            assert!(cmd.usage.lines().all(|l| help.contains(l)), "{}", cmd.usage);
            assert!(cmd.usage.starts_with(&format!("tc {} ", cmd.name)));
            let mut named: Vec<&str> = cmd
                .usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            let mut accepted: Vec<&str> = cmd.flags.iter().chain(cmd.switches).copied().collect();
            named.sort_unstable();
            named.dedup();
            accepted.sort_unstable();
            assert_eq!(named, accepted, "{}", cmd.usage);
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("threads", "threads"), 0);
        assert_eq!(edit_distance("thread", "threads"), 1);
        assert_eq!(edit_distance("treads", "threads"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn switch_flags_take_no_value_and_get_suggestions() {
        let f = QUERY
            .parse(&strs(&["tree.seg", "--json", "--alpha", "0.2"]))
            .unwrap();
        assert!(f.has("json"));
        assert_eq!(f.get("alpha"), Some("0.2"));
        assert_eq!(f.positional, vec!["tree.seg".to_string()]);
        let err = QUERY.parse(&strs(&["--jsno"])).unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn remote_query_round_trips_against_a_daemon() {
        let dir = std::env::temp_dir().join("tc_cli_remote_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net = dir.join("remote.dbnet");
        let tree = dir.join("remote.seg");
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();
        assert_eq!(
            tc(&[
                "generate",
                "--kind",
                "planted",
                "--out",
                &s(&net),
                "--seed",
                "9"
            ]),
            0
        );
        assert_eq!(
            tc(&["index", &s(&net), "--out", &s(&tree), "--format", "seg"]),
            0
        );

        let seg = SegmentTcTree::open(&tree).unwrap();
        let server = tc_serve::Server::bind(
            seg,
            "127.0.0.1:0",
            tc_serve::ServeConfig {
                workers: 2,
                max_inflight: 8,
                ..tc_serve::ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        assert_eq!(tc(&["query", "--remote", &addr, "--alpha", "0.1"]), 0);
        assert_eq!(
            tc(&[
                "query",
                "--remote",
                &addr,
                "--pattern",
                "0,1",
                "--network",
                &s(&net)
            ]),
            0
        );
        // --json prints the wire object for both arms; same exit paths.
        assert_eq!(
            tc(&["query", "--remote", &addr, "--alpha", "0.1", "--json"]),
            0
        );
        assert_eq!(tc(&["query", &s(&tree), "--alpha", "0.1", "--json"]), 0);
        // A tree path alongside --remote is contradictory.
        assert_eq!(
            tc(&["query", &s(&tree), "--remote", &addr, "--alpha", "0.1"]),
            2
        );

        tc_serve::ServeClient::connect(&addr)
            .unwrap()
            .shutdown_server()
            .unwrap();
        daemon.join().unwrap();
        // Daemon gone: remote queries fail cleanly.
        assert_eq!(tc(&["query", "--remote", &addr, "--alpha", "0.1"]), 2);

        for p in [&net, &tree] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_rejects_non_segment_inputs() {
        let dir = std::env::temp_dir().join("tc_cli_serve_reject_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net = dir.join("sr.dbnet");
        let tree_txt = dir.join("sr.tct");
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();
        assert_eq!(tc(&["generate", "--kind", "planted", "--out", &s(&net)]), 0);
        assert_eq!(tc(&["index", &s(&net), "--out", &s(&tree_txt)]), 0);
        // Text tree, network file, missing file: all refused up front.
        assert_eq!(tc(&["serve", &s(&tree_txt)]), 2);
        assert_eq!(tc(&["serve", &s(&net)]), 2);
        assert_eq!(tc(&["serve", "/nonexistent/tree.seg"]), 2);
        assert_eq!(tc(&["serve"]), 2);
        for p in [&net, &tree_txt] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn ingest_and_checkpoint_round_trip() {
        let dir = std::env::temp_dir().join(format!("tc_cli_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("net.wal");
        let seg = dir.join("net.seg");
        let seg2 = dir.join("net2.seg");
        let ops = dir.join("ops.txt");
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();

        std::fs::write(
            &ops,
            "# phase one\n\
             item beer\n\
             item diaper\n\
             tx 0 beer,diaper\n\
             tx 1 beer\n\
             edge 0 1\n\
             edge 1 2\n\
             edge 2 0\n\
             db 3\n",
        )
        .unwrap();
        assert_eq!(tc(&["ingest", &s(&wal), "--ops", &s(&ops)]), 0);
        assert_eq!(tc(&["checkpoint", &s(&wal), "--out", &s(&seg)]), 0);
        // The fold is a real segment network: stats auto-detects it.
        assert_eq!(tc(&["stats", &s(&seg)]), 0);

        // Phase two over the checkpointed base: a tx resolving an item
        // name interned in phase one, plus a brand-new auto-interned one.
        std::fs::write(&ops, "tx 2 beer,nuts\nedge 0 3\n").unwrap();
        assert_eq!(
            tc(&[
                "ingest",
                &s(&wal),
                "--ops",
                &s(&ops),
                "--base",
                &s(&seg),
                "--durability",
                "batch",
                "--batch-records",
                "2",
            ]),
            0
        );
        assert_eq!(
            tc(&[
                "checkpoint",
                &s(&wal),
                "--base",
                &s(&seg),
                "--out",
                &s(&seg2)
            ]),
            0
        );
        let full = tc_store::load_network_segment_from_path(&seg2).unwrap();
        assert_eq!(full.num_vertices(), 4);
        assert_eq!(full.num_edges(), 4);
        assert_eq!(full.item_space().len(), 3);
        assert_eq!(full.database(2).num_transactions(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_rejects_bad_ops_and_missing_flags() {
        let dir = std::env::temp_dir().join(format!("tc_cli_wal_bad_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("bad.wal");
        let ops = dir.join("bad_ops.txt");
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();

        assert_eq!(tc(&["ingest", &s(&wal)]), 2, "--ops is required");
        assert_eq!(tc(&["ingest"]), 2, "wal path is required");
        assert_eq!(tc(&["checkpoint", &s(&wal)]), 2, "--out is required");

        for bad in [
            "edge 3 3\n",       // self-loop
            "edge 1\n",         // missing endpoint
            "tx 0\n",           // no item list
            "tx 0 ,\n",         // empty item list
            "db x\n",           // non-numeric vertex
            "item \n",          // empty name
            "frobnicate 1 2\n", // unknown verb
        ] {
            std::fs::write(&ops, bad).unwrap();
            assert_eq!(
                tc(&["ingest", &s(&wal), "--ops", &s(&ops)]),
                2,
                "op {bad:?} must be rejected"
            );
        }
        assert_eq!(
            tc(&[
                "ingest",
                &s(&wal),
                "--ops",
                &s(&ops),
                "--durability",
                "sometimes"
            ]),
            2
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remote_query_retries_reach_a_briefly_busy_daemon() {
        let dir = std::env::temp_dir().join(format!("tc_cli_retry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let net = dir.join("retry.dbnet");
        let tree = dir.join("retry.seg");
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();
        assert_eq!(
            tc(&[
                "generate",
                "--kind",
                "planted",
                "--out",
                &s(&net),
                "--seed",
                "7"
            ]),
            0
        );
        assert_eq!(
            tc(&["index", &s(&net), "--out", &s(&tree), "--format", "seg"]),
            0
        );

        let seg = SegmentTcTree::open(&tree).unwrap();
        let server = tc_serve::Server::bind(
            seg,
            "127.0.0.1:0",
            tc_serve::ServeConfig {
                workers: 1,
                max_inflight: 1,
                ..tc_serve::ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        // Hold the only slot; without retries the query is turned away.
        let holder = tc_serve::ServeClient::connect(&addr).unwrap();
        assert_eq!(tc(&["query", "--remote", &addr, "--alpha", "0.1"]), 2);
        // Release the slot shortly; a retrying query must get through.
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(200));
            holder.quit().unwrap();
        });
        assert_eq!(
            tc(&[
                "query",
                "--remote",
                &addr,
                "--alpha",
                "0.1",
                "--retries",
                "40",
                "--retry-max-delay",
                "200",
            ]),
            0
        );
        releaser.join().unwrap();
        // Retry flags without --remote are contradictory.
        assert_eq!(tc(&["query", &s(&tree), "--retries", "3"]), 2);

        tc_serve::ServeClient::connect(&addr)
            .unwrap()
            .shutdown_server()
            .unwrap();
        daemon.join().unwrap();
        for p in [&net, &tree] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn shard_writes_segments_and_map_and_router_validates_input() {
        let dir = std::env::temp_dir().join(format!("tc_cli_shard_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let net = dir.join("sh.dbnet");
        let tree = dir.join("sh.tree.seg");
        let out = dir.join("layout");
        let s = |p: &std::path::Path| p.to_string_lossy().to_string();

        assert_eq!(
            tc(&[
                "generate",
                "--kind",
                "planted",
                "--out",
                &s(&net),
                "--seed",
                "9"
            ]),
            0
        );
        assert_eq!(
            tc(&["index", &s(&net), "--out", &s(&tree), "--format", "seg"]),
            0
        );

        // A 3-way split: three segments plus the map, all loadable.
        assert_eq!(
            tc(&[
                "shard",
                &s(&tree),
                "--shards",
                "3",
                "--out-dir",
                &s(&out),
                "--port-base",
                "7801",
            ]),
            0
        );
        let map = tc_store::ShardMap::load_from_path(&out.join("shards.tcmap")).unwrap();
        assert_eq!(map.shards.len(), 3);
        assert_eq!(map.shards[0].addr, "127.0.0.1:7801");
        assert_eq!(map.shards[2].addr, "127.0.0.1:7803");
        // num_nodes() excludes the root, so the shard counts partition
        // the full tree's exactly.
        let mut total_nodes = 0;
        for i in 0..3 {
            let seg = SegmentTcTree::open(&out.join(format!("shard-{i:03}.seg"))).unwrap();
            total_nodes += seg.to_tree().unwrap().num_nodes();
        }
        let full = SegmentTcTree::open(&tree).unwrap().to_tree().unwrap();
        assert_eq!(total_nodes, full.num_nodes());

        // Bad inputs are refused up front.
        assert_eq!(tc(&["shard", &s(&tree), "--shards", "0"]), 2);
        assert_eq!(
            tc(&["shard", &s(&tree), "--shards", "3", "--addrs", "a:1,b:2"]),
            2,
            "--addrs arity must match --shards"
        );
        assert_eq!(
            tc(&["shard", &s(&net), "--shards", "2"]),
            2,
            "networks are not trees"
        );
        assert_eq!(
            tc(&["router", &s(&tree)]),
            2,
            "a segment is not a shard map"
        );
        assert_eq!(tc(&["router", "/nonexistent.tcmap"]), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_miner_rejected() {
        let dir = std::env::temp_dir().join("tc_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let net = dir.join("m.dbnet");
        let net_s = net.to_string_lossy().to_string();
        assert_eq!(tc(&["generate", "--kind", "planted", "--out", &net_s]), 0);
        assert_eq!(tc(&["mine", &net_s, "--miner", "bogus"]), 2);
        std::fs::remove_file(&net).ok();
    }
}
