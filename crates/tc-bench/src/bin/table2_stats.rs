//! Reproduces **Table 2**: statistics of the database networks.
//!
//! Paper columns: #Vertices, #Edges, #Transactions, #Items (total),
//! #Items (unique), for BK, GW, AMINER and SYN.

use tc_bench::{build_dataset, fmt_count, BenchArgs, Table};

fn main() {
    let args = BenchArgs::from_env();
    let mut table = Table::new(
        format!("Table 2 — dataset statistics (scale {})", args.scale),
        &[
            "Dataset",
            "#Vertices",
            "#Edges",
            "#Transactions",
            "#Items (total)",
            "#Items (unique)",
        ],
    );
    for dataset in args.datasets() {
        let net = build_dataset(dataset, args.scale);
        let s = net.stats();
        table.push_row(vec![
            dataset.name().to_string(),
            fmt_count(s.vertices),
            fmt_count(s.edges),
            fmt_count(s.transactions),
            fmt_count(s.items_total),
            fmt_count(s.items_unique),
        ]);
    }
    table.print();
}
