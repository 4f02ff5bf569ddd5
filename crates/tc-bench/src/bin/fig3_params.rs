//! Reproduces **Figure 3**: the effects of the cohesion threshold `α` and
//! the TCS frequency threshold `ε` on BK, GW and AMINER samples.
//!
//! Paper panels per dataset: (time cost, NP, NV, NE) × α for
//! TCS(ε = 0.1/0.2/0.3), TCFA, TCFI. As in §7.1, the miners run on BFS
//! samples of the full networks (BK/GW 10k edges, AMINER 5k — scaled).

use tc_bench::{build_dataset, fmt_count, fmt_secs, BenchArgs, Dataset, Table};
use tc_core::{Miner, MiningResult, TcfaMiner, TcfiMiner, TcsMiner};
use tc_graph::bfs_edge_sample;

fn main() {
    let args = BenchArgs::from_env();
    let alphas: Vec<f64> = if args.quick {
        vec![0.0, 0.2, 0.5, 1.0, 2.0]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0]
    };
    let datasets: Vec<Dataset> = args
        .datasets()
        .into_iter()
        .filter(|d| *d != Dataset::Syn) // the paper uses BK/GW/AMINER here
        .collect();

    for dataset in datasets {
        let full = build_dataset(dataset, args.scale);
        // §7.1: BFS samples — 10k edges for BK/GW, 5k for AMINER (scaled).
        let target = match dataset {
            Dataset::Aminer => (5_000.0 * args.scale) as usize,
            _ => (10_000.0 * args.scale) as usize,
        }
        .max(200);
        let sample_edges = bfs_edge_sample(full.graph(), 0, target);
        let net = full.induced_subnetwork(&sample_edges);
        println!(
            "\n## Figure 3 — {} sample: {} vertices, {} edges",
            dataset.name(),
            fmt_count(net.num_vertices()),
            fmt_count(net.num_edges())
        );

        let mut time_t = Table::new(
            format!("Fig 3 time cost ({})", dataset.name()),
            &["alpha", "TCFI", "TCFA", "TCS(0.1)", "TCS(0.2)", "TCS(0.3)"],
        );
        let mut np_t = Table::new(
            format!("Fig 3 NP ({})", dataset.name()),
            &["alpha", "TCFI/TCFA", "TCS(0.1)", "TCS(0.2)", "TCS(0.3)"],
        );
        let mut nv_t = Table::new(
            format!("Fig 3 NV ({})", dataset.name()),
            &["alpha", "TCFI/TCFA", "TCS(0.1)", "TCS(0.2)", "TCS(0.3)"],
        );
        let mut ne_t = Table::new(
            format!("Fig 3 NE ({})", dataset.name()),
            &["alpha", "TCFI/TCFA", "TCS(0.1)", "TCS(0.2)", "TCS(0.3)"],
        );

        for &alpha in &alphas {
            let tcfi = TcfiMiner::default().mine(&net, alpha);
            let tcfa = TcfaMiner::default().mine(&net, alpha);
            let tcs: Vec<MiningResult> = [0.1, 0.2, 0.3]
                .iter()
                .map(|&eps| TcsMiner::with_epsilon(eps).mine(&net, alpha))
                .collect();
            assert!(
                tcfi.same_trusses(&tcfa),
                "TCFA and TCFI must agree (alpha = {alpha})"
            );

            time_t.push_row(vec![
                format!("{alpha}"),
                fmt_secs(tcfi.stats.elapsed_secs),
                fmt_secs(tcfa.stats.elapsed_secs),
                fmt_secs(tcs[0].stats.elapsed_secs),
                fmt_secs(tcs[1].stats.elapsed_secs),
                fmt_secs(tcs[2].stats.elapsed_secs),
            ]);
            np_t.push_row(vec![
                format!("{alpha}"),
                fmt_count(tcfi.np()),
                fmt_count(tcs[0].np()),
                fmt_count(tcs[1].np()),
                fmt_count(tcs[2].np()),
            ]);
            nv_t.push_row(vec![
                format!("{alpha}"),
                fmt_count(tcfi.nv()),
                fmt_count(tcs[0].nv()),
                fmt_count(tcs[1].nv()),
                fmt_count(tcs[2].nv()),
            ]);
            ne_t.push_row(vec![
                format!("{alpha}"),
                fmt_count(tcfi.ne()),
                fmt_count(tcs[0].ne()),
                fmt_count(tcs[1].ne()),
                fmt_count(tcs[2].ne()),
            ]);
        }
        time_t.print();
        np_t.print();
        nv_t.print();
        ne_t.print();
    }
}
