//! `chainbench` — one benchmark for the whole chain, from TCFI mining to
//! routed serving. `bench/run.sh` builds `tc` and this harness and runs it;
//! `bench/README.md` says what it measures and why.
//!
//! ```text
//! chainbench --tc <tc binary> --out <dir> --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! chainbench --tc <tc binary> --out <dir> [--agree] [--quick] [--seed N] [--seconds S]
//! ```
//!
//! The first form is one run of one workload; its last stdout line is the
//! result object. The second runs every workload as a child of itself and
//! prints one table; with `--agree` it runs two alternating sets of three
//! and fails when a pair of medians differs by more than the metric's bound.

mod alloc;
mod daemon;
mod inputs;
mod layers;
mod load;
mod mixq;
mod offline;
mod pin;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use std::path::PathBuf;
use std::process::ExitCode;

/// Run length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;

struct Cli {
    workload: Option<String>,
    agree: bool,
    run: run::Args,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        agree: false,
        run: run::Args {
            seed: inputs::DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            tc: PathBuf::new(),
            out: PathBuf::new(),
        },
    };
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.run.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => cli.run.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => cli.run.trace = value()? == "1",
            "--tc" => cli.run.tc = PathBuf::from(value()?),
            "--out" => cli.run.out = PathBuf::from(value()?),
            "--agree" => cli.agree = true,
            "--quick" => quick = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(cli.run.seconds.is_finite() && cli.run.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if quick {
        // A tenth of the measuring, for a smoke job: the numbers are not
        // comparable with a full run's.
        cli.run.seconds /= 10.0;
        println!("QUICK MODE: a tenth of the run length; these numbers are NOT comparable with a full run");
    }
    if cli.run.tc.as_os_str().is_empty() || cli.run.out.as_os_str().is_empty() {
        return Err("--tc and --out are required (bench/run.sh passes them)".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("chainbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The measured window keeps to one CPU and leaves the machine's
    // background work, and the daemons' idle ticks, to another; the traced
    // run's probes compare one thread with two.
    if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
        eprintln!("chainbench: refusing to run on fewer than 2 cores");
        return ExitCode::from(2);
    }
    let Some(name) = &cli.workload else {
        return suite::run_all(&cli.run, cli.agree);
    };
    let Some(workload) = spec::workload(name) else {
        eprintln!(
            "chainbench: unknown workload {name}; one of {:?}",
            spec::WORKLOADS.map(|w| w.name)
        );
        return ExitCode::from(2);
    };
    match run::run(workload, &cli.run) {
        Ok(outcome) => {
            let table: &[(&str, &str)] = if cli.run.trace {
                &spec::PER_LAYER
            } else {
                &spec::END_TO_END
            };
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.failed == 0,
                outcome.attempted,
                outcome.failed,
                outcome.metrics.to_json(table)
            );
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("chainbench: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
