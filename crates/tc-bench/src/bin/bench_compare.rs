//! `bench_compare` — the CI bench-telemetry gate.
//!
//! ```text
//! bench_compare --baseline BENCH_main.json \
//!     [--tolerance F] [--merge-out BENCH_pr.json] current1.json [current2.json …]
//! ```
//!
//! Merges the per-binary telemetry reports of the current run into one
//! `combined` report (each group prefixed with its bench name, e.g.
//! `storage:BK`), optionally writes it (`--merge-out`, CI uploads it as
//! the `BENCH_pr` artifact), and compares every tracked metric against
//! the committed baseline. Exit code 1 on any regression beyond
//! tolerance, 2 on usage/parse errors, 0 otherwise.
//!
//! ## What is gated, and how hard
//!
//! The baseline is committed from one machine and checked on another, so
//! the gate only trips on signals that survive a hardware change:
//!
//! * `*_bytes` — deterministic artifact sizes; ±10%.
//! * `*_secs` at or above 1 ms — catastrophic-slowdown guard; 5× band.
//!   Sub-millisecond timings are reported but never gated (they are
//!   scheduler noise at smoke scale).
//! * `*_qps` — throughput floor; 4× band.
//! * speedup metrics (`*_speedup*`) — gated (higher-is-better, 2× band)
//!   **only when both reports record the same `host`/`parallelism`**: a
//!   parallel speedup measured on an 8-core baseline host is meaningless
//!   on a 1-core PR runner, so on a core-count mismatch these downgrade
//!   to informational (with a printed note). Counts are always
//!   trajectory-only.
//! * a tracked baseline metric *missing* from the current run fails —
//!   silently dropping a bench section must not pass the gate.
//!
//! `--tolerance F` overrides every band with `F` (as a fraction, applied
//! in the metric's harmful direction) — useful for the injected-regression
//! self-test and for strict same-machine comparisons.

use std::path::PathBuf;
use std::process::ExitCode;
use tc_bench::report::JsonReport;
use tc_bench::{fmt_f64, Table};

struct Args {
    baseline: PathBuf,
    currents: Vec<PathBuf>,
    merge_out: Option<PathBuf>,
    tolerance: Option<f64>,
}

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: bench_compare --baseline <BENCH_main.json> [--tolerance <f64>] \
         [--merge-out <BENCH_pr.json>] <current.json> [<current.json> …]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut currents = Vec::new();
    let mut merge_out = None;
    let mut tolerance = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?))
            }
            "--merge-out" => {
                merge_out = Some(PathBuf::from(it.next().ok_or("--merge-out needs a path")?))
            }
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                tolerance = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("bad --tolerance '{v}'"))?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => currents.push(PathBuf::from(path)),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        currents,
        merge_out,
        tolerance,
    })
}

/// Merges per-binary reports into one `combined` report, prefixing each
/// group with its bench name. Already-combined inputs keep their groups.
fn merge(reports: &[JsonReport]) -> JsonReport {
    let mut out = JsonReport::new("combined");
    for report in reports {
        for (group, metric, value) in report.metrics() {
            let group = if report.bench() == "combined" {
                group.clone()
            } else {
                format!("{}:{}", report.bench(), group)
            };
            out.push(group, metric.clone(), *value);
        }
    }
    out
}

/// The gate policy for one metric, derived from its name.
enum Policy {
    /// Lower is better; fail when `current > baseline * (1 + tol)`.
    LowerIsBetter(f64),
    /// Higher is better; fail when `current < baseline * (1 - tol)`.
    HigherIsBetter(f64),
    /// Recorded for the trajectory, never gated.
    Informational,
}

fn policy(metric: &str, baseline: f64, hosts_match: bool) -> Policy {
    if metric.ends_with("_bytes") {
        Policy::LowerIsBetter(0.10)
    } else if metric.ends_with("_qps") {
        Policy::HigherIsBetter(0.75)
    } else if metric.ends_with("_secs") {
        // Sub-millisecond smoke timings are scheduler noise; gating them
        // would make the job flaky without protecting anything.
        if baseline >= 1e-3 {
            Policy::LowerIsBetter(4.0)
        } else {
            Policy::Informational
        }
    } else if metric.contains("_speedup") {
        // A speedup ratio only transfers between hosts with the same
        // core count; across different hosts it is recorded, not gated.
        if hosts_match {
            Policy::HigherIsBetter(0.50)
        } else {
            Policy::Informational
        }
    } else {
        // Counts: trajectory only.
        Policy::Informational
    }
}

/// The `host`/`parallelism` datapoint of a merged report — recorded by
/// every bench binary as the core count it ran on. `None` for reports
/// predating the metric.
fn host_parallelism(report: &JsonReport) -> Option<f64> {
    report
        .metrics()
        .iter()
        .find(|(g, m, _)| m == "parallelism" && (g == "host" || g.ends_with(":host")))
        .map(|(_, _, v)| *v)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.currents.is_empty() {
        return usage("at least one current report is required");
    }

    let baseline = match JsonReport::load_from_path(&args.baseline) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    let mut currents = Vec::new();
    for path in &args.currents {
        match JsonReport::load_from_path(path) {
            Ok(r) => currents.push(r),
            Err(e) => return usage(&e),
        }
    }
    let current = merge(&currents);
    if let Some(path) = &args.merge_out {
        if let Err(e) = current.write_to_path(path) {
            return usage(&format!("writing {}: {e}", path.display()));
        }
        println!("wrote merged report to {}", path.display());
    }
    let baseline = merge(std::slice::from_ref(&baseline));

    // Speedup-ratio gates only hold between same-shaped hosts.
    let base_host = host_parallelism(&baseline);
    let cur_host = host_parallelism(&current);
    let hosts_match = matches!((base_host, cur_host), (Some(b), Some(c)) if b == c);
    if !hosts_match {
        let show = |h: Option<f64>| h.map_or("unrecorded".to_string(), |v| format!("{v:.0} cores"));
        println!(
            "host parallelism differs (baseline: {}, current: {}) — speedup ratios are \
             informational this run",
            show(base_host),
            show(cur_host)
        );
    }

    let lookup: std::collections::HashMap<(&str, &str), f64> = current
        .metrics()
        .iter()
        .map(|(g, m, v)| ((g.as_str(), m.as_str()), *v))
        .collect();
    let tracked: std::collections::HashSet<(&str, &str)> = baseline
        .metrics()
        .iter()
        .map(|(g, m, _)| (g.as_str(), m.as_str()))
        .collect();

    let mut table = Table::new(
        format!("Telemetry vs {}", args.baseline.display()),
        &["Group", "Metric", "Baseline", "Current", "Δ", "Status"],
    );
    let mut regressions = 0usize;
    let mut gated = 0usize;
    for (group, metric, base) in baseline.metrics() {
        let row = |cur: String, delta: String, status: &str| {
            vec![
                group.clone(),
                metric.clone(),
                fmt_f64(*base),
                cur,
                delta,
                status.to_string(),
            ]
        };
        let Some(&cur) = lookup.get(&(group.as_str(), metric.as_str())) else {
            regressions += 1;
            table.push_row(row("—".into(), "—".into(), "MISSING"));
            continue;
        };
        if base.is_nan() {
            // The baseline never measured this — nothing to hold the
            // current run to.
            table.push_row(row(fmt_f64(cur), "—".into(), "skipped (nan baseline)"));
            continue;
        }
        if cur.is_nan() {
            // A real baseline value degenerated to null in the current
            // run (e.g. an empty query pool): that is a dropped metric,
            // and dropped metrics must not pass the gate.
            regressions += 1;
            table.push_row(row("null".into(), "—".into(), "REGRESSED (nan)"));
            continue;
        }
        let delta = if *base != 0.0 {
            format!("{:+.1}%", (cur - base) / base * 100.0)
        } else {
            "—".into()
        };
        let verdict = match policy(metric, *base, hosts_match) {
            Policy::Informational => "info",
            Policy::LowerIsBetter(tol) => {
                gated += 1;
                let tol = args.tolerance.unwrap_or(tol);
                if cur > base * (1.0 + tol) {
                    regressions += 1;
                    "REGRESSED"
                } else {
                    "ok"
                }
            }
            Policy::HigherIsBetter(tol) => {
                gated += 1;
                let tol = args.tolerance.unwrap_or(tol);
                if cur < base * (1.0 - tol) {
                    regressions += 1;
                    "REGRESSED"
                } else {
                    "ok"
                }
            }
        };
        table.push_row(row(fmt_f64(cur), delta, verdict));
    }
    table.print();

    let new_metrics: Vec<String> = current
        .metrics()
        .iter()
        .filter(|(g, m, _)| !tracked.contains(&(g.as_str(), m.as_str())))
        .map(|(g, m, _)| format!("{g}/{m}"))
        .collect();
    if !new_metrics.is_empty() {
        println!(
            "\n{} new metric(s) not in the baseline (refresh BENCH_main.json to track): {}",
            new_metrics.len(),
            new_metrics.join(", ")
        );
    }

    println!(
        "\ncompared {} tracked metrics ({} gated): {} regression(s)",
        baseline.metrics().len(),
        gated,
        regressions
    );
    if regressions > 0 {
        eprintln!("bench-telemetry gate FAILED");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
