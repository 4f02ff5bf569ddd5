//! The whole benchmark in one command: every workload as a child process
//! of this executable (a run owns its process: allocator state, daemons,
//! scratch directory), one table at the end. With `--agree` two sets of
//! runs of the same build must agree within the bounds `BENCHMARK.json`
//! fixes.

use crate::run::Args;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::median;
use std::process::{Command, ExitCode, Stdio};
use tc_util::json::{parse, JsonValue};

/// One untraced run of `workload`; its end-to-end values in table order.
fn child_run(args: &Args, workload: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .arg("--tc")
        .arg(&args.tc)
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload} exited with {}: {last}", out.status));
    }
    let result = parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    END_TO_END
        .iter()
        .map(|(name, _)| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("{workload}: result has no {name}"))
        })
        .collect()
}

/// The bound of each end-to-end metric, in table order.
fn bounds() -> Vec<f64> {
    let contract = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON");
    let listed = contract
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .expect("end_to_end is a list");
    END_TO_END
        .iter()
        .map(|(name, _)| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(JsonValue::as_str) == Some(name))
                .and_then(|m| m.get("bound"))
                .and_then(JsonValue::as_num)
                .expect("every end-to-end metric has a bound")
        })
        .collect()
}

/// Runs per set with `--agree`. One run against one run would compare the
/// sandbox's mood at two moments; the sets alternate (first, second,
/// first, …) and are compared by their medians, as the driver compares
/// two sets of ten.
const AGREE_RUNS: usize = 3;

pub fn run_all(args: &Args, agree: bool) -> ExitCode {
    let bounds = bounds();
    let mut disagreements = 0;
    println!(
        "{:<15} {:<26} {:>14} {:>14} {:>8} {:>6}",
        "workload",
        "metric",
        if agree { "first set" } else { "value" },
        if agree { "second set" } else { "" },
        if agree { "diff" } else { "" },
        "bound"
    );
    for w in &WORKLOADS {
        // sets[s][i]: set s's values of metric i, one per run.
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; if agree { 2 } else { 1 }];
        for run in 0..sets.len() * if agree { AGREE_RUNS } else { 1 } {
            match child_run(args, w.name) {
                Ok(values) => {
                    for (i, v) in values.into_iter().enumerate() {
                        sets[run % 2][i].push(v);
                    }
                }
                Err(e) => {
                    eprintln!("chainbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let label = format!("{name} [{unit}]");
            let first = median(&sets[0][i]);
            match sets.get(1).map(|set| median(&set[i])) {
                None => println!(
                    "{:<15} {label:<26} {first:>14.4} {:>14} {:>8} {:>6}",
                    w.name, "", "", bounds[i]
                ),
                Some(second) => {
                    let diff = (first - second).abs() / first.min(second);
                    let verdict = if diff > bounds[i] { "  DISAGREE" } else { "" };
                    disagreements += usize::from(diff > bounds[i]);
                    println!(
                        "{:<15} {label:<26} {first:>14.4} {second:>14.4} {diff:>8.4} {:>6}{verdict}",
                        w.name, bounds[i]
                    );
                }
            }
        }
    }
    if disagreements > 0 {
        println!("{disagreements} pair(s) of medians disagree by more than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
