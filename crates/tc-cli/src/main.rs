//! `tc` — the theme-communities command line tool.
//!
//! `tc --help` lists every subcommand with the flags it accepts (each
//! usage line is declared once, beside the command, in `commands.rs`).
//! Every failure is one `error: …` line on stderr and exit code 2.
//!
//! Network and tree arguments accept both the text formats and the binary
//! segment format; readers auto-detect by magic bytes. `tc serve` opens a
//! segment tree once and answers queries over TCP (see `crates/tc-serve`);
//! `tc query --remote` asks such a daemon instead of a local file.
//! `tc ingest` appends mutations to a write-ahead log beside a base
//! segment; `tc checkpoint` folds log + base into a fresh segment.

mod commands;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dispatch(&args));
}

/// Runs `tc args` and returns the exit code: 0, or 2 after the one
/// `error: …` line that reports whatever failed.
fn dispatch(args: &[String]) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

/// Looks the subcommand up in [`commands::COMMANDS`], parses its flags and
/// runs it; with no subcommand (or `--help`) prints the help.
fn run(args: &[String]) -> Result<(), String> {
    let name = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            eprintln!("{}", help_text());
            return Ok(());
        }
        Some(name) => name,
    };
    let command = commands::COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command '{name}'\n\n{}", help_text()))?;
    (command.run)(&command.parse(&args[1..])?)
}

fn help_text() -> String {
    let usage: Vec<String> = commands::COMMANDS
        .iter()
        .map(|c| format!("  {}", c.usage.replace('\n', "\n  ")))
        .collect();
    format!(
        "tc — theme communities from database networks (VLDB 2019)

USAGE:
{}

Readers auto-detect the text formats (dbnet/tctree) and the binary
segment format (.seg) by magic bytes; --format auto writes a segment
when the output path ends in .seg. --threads defaults to every core
(mine and index run the same work-stealing walk of the pattern
lattice, one thread or many); results are identical at every thread count.
tc serve answers QBA/QBP over TCP with bounded admission (connections
beyond --max-inflight get a BUSY greeting) and, with --http-addr, over
an HTTP/JSON gateway too (GET /qba, /qbp, /query; POST /query batches;
GET /healthz and Prometheus GET /metrics). --rate-limit caps each
client IP at N requests/second on top of the inflight bound. SIGHUP
re-opens the segment and hot-swaps it without dropping sessions; stop
the daemon with SIGTERM or a client's SHUTDOWN verb. tc query --json
prints the serving wire object, byte-comparable with curl of /qba or
/qbp. tc shard hash-partitions a tree into self-contained per-shard
segments plus a shards.tcmap map; tc router loads the map and serves
the same HTTP surface by scattering to every shard daemon and merging,
answers byte-identical to the unsharded tree (--partial keeps serving
the live shards' union when a daemon is down, naming the missing
shards in an X-TC-Partial-Shards header; without it a down shard is a
503). tc ingest appends to a crash-safe write-ahead
log (ops lines: item NAME / db V / edge U V / tx V a,b,c); tc
checkpoint folds log + base segment into a fresh segment and resets
the log.

EXAMPLES:
  tc generate --kind coauthor --out aminer.dbnet
  tc mine aminer.dbnet --alpha 0.1 --top 10
  tc index aminer.dbnet --out aminer.seg --format seg
  tc query aminer.seg --alpha 0.2
  tc query aminer.seg --pattern 'data mining,sequential pattern' --network aminer.dbnet
  tc serve aminer.seg --addr 127.0.0.1:7641 --http-addr 127.0.0.1:8080 --rate-limit 50
  tc shard aminer.seg --shards 4 --out-dir shards
  tc router shards/shards.tcmap --http-addr 127.0.0.1:7642 --partial
  tc query --remote 127.0.0.1:7641 --alpha 0.2 --retries 5
  curl 'http://127.0.0.1:8080/qba?alpha=0.2'
  tc ingest net.wal --ops mutations.txt --base net.seg
  tc checkpoint net.wal --base net.seg --out net2.seg
  tc convert aminer.dbnet aminer.seg",
        usage.join("\n")
    )
}
