//! Reproduces **Figure 4**: how miner runtime scales with the number of
//! sampled edges (α = 0, the worst case).
//!
//! Paper panels per dataset: time cost, NP, NV/NP and NE/NP as the BFS
//! sample grows from 10³ edges to the full network. TCS and TCFA are
//! dropped once they exceed a time budget, mirroring the paper's
//! "stop reporting when they cost more than one day".

use tc_bench::{build_dataset, fmt_count, fmt_f64, fmt_secs, BenchArgs, Dataset, Table};
use tc_core::{Miner, TcfaMiner, TcfiMiner, TcsMiner};
use tc_graph::bfs_edge_sample;

/// Per-miner time budget (seconds); a miner that exceeds it is not run at
/// larger sizes (the paper's one-day cutoff, scaled to laptop experiments).
const TIME_BUDGET_SECS: f64 = 30.0;

fn main() {
    let args = BenchArgs::from_env();
    let datasets: Vec<Dataset> = args
        .datasets()
        .into_iter()
        .filter(|d| *d != Dataset::Syn)
        .collect();

    for dataset in datasets {
        let full = build_dataset(dataset, args.scale);
        let full_edges = full.num_edges();
        let mut sizes: Vec<usize> = vec![250, 500, 1000, 2000, 4000, 8000];
        sizes.retain(|&s| s < full_edges);
        sizes.push(full_edges);
        if args.quick {
            sizes = sizes.into_iter().step_by(2).collect();
        }

        println!(
            "\n## Figure 4 — {} (full: {} edges)",
            dataset.name(),
            fmt_count(full_edges)
        );
        let mut table = Table::new(
            format!("Fig 4 scalability ({}), alpha = 0", dataset.name()),
            &[
                "#Edges",
                "TCFI time",
                "TCFA time",
                "TCS(0.2) time",
                "NP",
                "NV/NP",
                "NE/NP",
            ],
        );

        let mut tcfa_alive = true;
        let mut tcs_alive = true;
        for &target in &sizes {
            let sample = bfs_edge_sample(full.graph(), 0, target);
            let net = full.induced_subnetwork(&sample);

            let tcfi = TcfiMiner::default().mine(&net, 0.0);
            let tcfa_cell = if tcfa_alive {
                let r = TcfaMiner::default().mine(&net, 0.0);
                assert!(r.same_trusses(&tcfi), "TCFA ≠ TCFI at {target} edges");
                if r.stats.elapsed_secs > TIME_BUDGET_SECS {
                    tcfa_alive = false;
                }
                fmt_secs(r.stats.elapsed_secs)
            } else {
                "> budget".to_string()
            };
            let tcs_cell = if tcs_alive {
                let r = TcsMiner::with_epsilon(0.2).mine(&net, 0.0);
                if r.stats.elapsed_secs > TIME_BUDGET_SECS {
                    tcs_alive = false;
                }
                fmt_secs(r.stats.elapsed_secs)
            } else {
                "> budget".to_string()
            };

            let np = tcfi.np();
            let (nv_np, ne_np) = if np > 0 {
                (tcfi.nv() as f64 / np as f64, tcfi.ne() as f64 / np as f64)
            } else {
                (0.0, 0.0)
            };
            table.push_row(vec![
                fmt_count(net.num_edges()),
                fmt_secs(tcfi.stats.elapsed_secs),
                tcfa_cell,
                tcs_cell,
                fmt_count(np),
                fmt_f64(nv_np),
                fmt_f64(ne_np),
            ]);
        }
        table.print();
    }
}
