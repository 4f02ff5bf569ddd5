//! Extra experiment (not in the paper): planted-community recovery.
//!
//! Quantifies the §7.1 claim that TCS trades accuracy for speed: on a
//! network with planted ground-truth communities, TCFI recovers everything
//! while TCS with growing `ε` loses the low-frequency themes. Reports
//! precision/recall/F1 per miner.

use tc_bench::{fmt_f64, BenchArgs, Table};
use tc_core::{Miner, TcfiMiner, TcsMiner};
use tc_data::planted::vertex_precision_recall;
use tc_data::{generate_planted, PlantedConfig};

fn main() {
    let args = BenchArgs::from_env();
    // Two tiers of planted communities: strong themes (f = 0.9) and weak
    // themes (f = 0.25) that the ε-prefilter endangers.
    let strong = generate_planted(&PlantedConfig {
        communities: 4,
        community_size: (10.0 * args.scale).round().max(5.0) as usize,
        freq: 0.9,
        seed: 0xACC1,
        ..PlantedConfig::default()
    });
    // Weak themes sit at exactly f = 0.25 on every member (the generator
    // plants deterministically), so TCS with ε ≥ 0.25 *must* lose them —
    // the §7.1 accuracy/efficiency trade-off in its crispest form.
    let weak = generate_planted(&PlantedConfig {
        communities: 4,
        community_size: (10.0 * args.scale).round().max(5.0) as usize,
        freq: 0.25,
        transactions_per_vertex: 20,
        seed: 0xACC2,
        ..PlantedConfig::default()
    });

    for (label, planted, alpha) in [
        ("strong themes (f=0.9)", &strong, 0.5),
        ("weak themes (f=0.25)", &weak, 0.1),
    ] {
        let mut table = Table::new(
            format!("Planted-community recovery — {label}, alpha = {alpha}"),
            &["Miner", "Found", "Precision", "Recall", "F1"],
        );
        let miners: Vec<(String, Box<dyn Miner>)> = vec![
            ("TCFI".into(), Box::new(TcfiMiner::default())),
            ("TCS(eps=0.1)".into(), Box::new(TcsMiner::with_epsilon(0.1))),
            ("TCS(eps=0.2)".into(), Box::new(TcsMiner::with_epsilon(0.2))),
            ("TCS(eps=0.3)".into(), Box::new(TcsMiner::with_epsilon(0.3))),
        ];
        for (name, miner) in miners {
            let result = miner.mine(&planted.network, alpha);
            let mut found = 0usize;
            let (mut p_sum, mut r_sum) = (0.0, 0.0);
            for truth in &planted.truth {
                if let Some(truss) = result.truss_of(&truth.pattern) {
                    found += 1;
                    let (p, r) = vertex_precision_recall(&truss.vertices, &truth.vertices);
                    p_sum += p;
                    r_sum += r;
                }
            }
            let n = planted.truth.len() as f64;
            let (p, r) = (p_sum / n, r_sum / n);
            let f1 = if p + r > 0.0 {
                2.0 * p * r / (p + r)
            } else {
                0.0
            };
            table.push_row(vec![
                name,
                format!("{found}/{}", planted.truth.len()),
                fmt_f64(p),
                fmt_f64(r),
                fmt_f64(f1),
            ]);
        }
        table.print();
    }
}
