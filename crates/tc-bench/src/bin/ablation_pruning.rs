//! Extra experiment: the §7.1 pruning ablation.
//!
//! The paper reports that on the 5,000-edge AMINER sample at α = 0, TCFA
//! calls MPTD 622,852 times while TCFI calls it 152,396 times (pruning
//! 75.5% of candidates) and is still ~3 orders of magnitude faster because
//! each MPTD call runs on a tiny intersection instead of the full theme
//! network. This binary reproduces those counters on the AMINER analog.

use tc_bench::{build_dataset, fmt_count, fmt_secs, BenchArgs, Dataset, Table};
use tc_core::{Miner, TcfaMiner, TcfiMiner};
use tc_graph::bfs_edge_sample;

fn main() {
    let args = BenchArgs::from_env();
    let full = build_dataset(Dataset::Aminer, args.scale);
    let target = ((5_000.0 * args.scale) as usize).max(200);
    let sample = bfs_edge_sample(full.graph(), 0, target);
    let net = full.induced_subnetwork(&sample);
    println!(
        "## Pruning ablation — AMINER sample: {} vertices, {} edges, alpha = 0\n",
        fmt_count(net.num_vertices()),
        fmt_count(net.num_edges())
    );

    let mut table = Table::new(
        "TCFA vs TCFI pruning effectiveness",
        &[
            "Miner",
            "Candidates",
            "MPTD calls",
            "Pruned by intersection",
            "Prune rate",
            "Time",
            "NP",
        ],
    );
    let tcfa = TcfaMiner::default().mine(&net, 0.0);
    let tcfi = TcfiMiner::default().mine(&net, 0.0);
    assert!(tcfa.same_trusses(&tcfi), "results must be identical");

    for r in [&tcfa, &tcfi] {
        let name = if std::ptr::eq(r, &tcfa) {
            "TCFA"
        } else {
            "TCFI"
        };
        let prune_rate = if r.stats.candidates_generated > 0 {
            100.0 * r.stats.pruned_by_intersection as f64 / r.stats.candidates_generated as f64
        } else {
            0.0
        };
        table.push_row(vec![
            name.to_string(),
            fmt_count(r.stats.candidates_generated),
            fmt_count(r.stats.mptd_calls),
            fmt_count(r.stats.pruned_by_intersection),
            format!("{prune_rate:.1}%"),
            fmt_secs(r.stats.elapsed_secs),
            fmt_count(r.np()),
        ]);
    }
    table.print();

    let speedup = tcfa.stats.elapsed_secs / tcfi.stats.elapsed_secs.max(1e-9);
    println!("\nTCFI speedup over TCFA: {speedup:.1}x");
    println!(
        "MPTD call reduction: {} -> {} ({:.1}% fewer)",
        fmt_count(tcfa.stats.mptd_calls),
        fmt_count(tcfi.stats.mptd_calls),
        100.0 * (1.0 - tcfi.stats.mptd_calls as f64 / tcfa.stats.mptd_calls.max(1) as f64)
    );
}
