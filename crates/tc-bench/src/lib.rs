//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures on the generated dataset analogs. Performance is
//! measured elsewhere — by the whole-chain benchmark under `bench/`
//! (`BENCHMARK.json`); nothing here is gated.
//!
//! * [`alloc`] — counting global allocator (Table 3's "Memory" column);
//! * [`report`] — markdown table/series printers;
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
//! | `durability_bench` | extra: WAL append/fsync policies, group commit, recovery (printed only, ungated) |
//! | `run_all` | drives every experiment in sequence |

pub mod alloc;
pub mod report;
pub mod workloads;

pub use report::{fmt_count, fmt_f64, fmt_secs, Table};
pub use workloads::{build_dataset, BenchArgs, Dataset};
