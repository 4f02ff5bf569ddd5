//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures on the generated dataset analogs.
//!
//! * [`alloc`] — counting global allocator (Table 3's "Memory" column);
//! * [`report`] — markdown table/series printers and the `tc-bench/v1`
//!   JSON telemetry report (write + parse);
//! * [`stats`] — shared nearest-rank percentile helper for the latency
//!   sections;
//! * [`workloads`] — the four standard datasets (BK/GW/AMINER/SYN analogs)
//!   at a configurable `--scale`, plus shared CLI argument parsing.
//!
//! The experiment binaries live in `src/bin/` — one per table/figure:
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table2_stats` | Table 2 (dataset statistics) |
//! | `fig3_params` | Figure 3 (α and ε sweeps: time, NP, NV, NE) |
//! | `fig4_scalability` | Figure 4 (time, NP, NV/NP, NE/NP vs #edges) |
//! | `table3_indexing` | Table 3 (TC-Tree build time / memory / #nodes) |
//! | `fig5_query` | Figure 5 (QBA/QBP query time and retrieved nodes) |
//! | `case_study` | §7.4 / Table 4 / Figure 6 (co-author case study) |
//! | `accuracy` | extra: planted-community precision/recall |
//! | `ablation_pruning` | extra: §7.1 MPTD-call-count ablation |
//! | `storage_bench` | extra: text-load vs `tc-store` segment-open query latency (CI telemetry source) |
//! | `throughput_bench` | extra: parallel mining/indexing grid + sustained-load serving baseline (CI telemetry source) |
//! | `serve_bench` | extra: QPS-vs-client-count sweep against a real `tc-serve` daemon over loopback (CI telemetry source) |
//! | `bench_compare` | the CI bench-telemetry gate: merges reports, compares against `BENCH_main.json` |
//! | `run_all` | drives every experiment in sequence |

pub mod alloc;
pub mod report;
pub mod stats;
pub mod workloads;

pub use report::{fmt_count, fmt_f64, fmt_secs, JsonReport, Table};
pub use stats::percentile;
pub use workloads::{build_dataset, BenchArgs, Dataset};
