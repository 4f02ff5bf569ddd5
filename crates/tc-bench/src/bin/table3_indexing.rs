//! Reproduces **Table 3**: TC-Tree indexing performance — Indexing Time,
//! peak Memory, and #Nodes for all four datasets.

use tc_bench::{build_dataset, fmt_count, fmt_secs, BenchArgs, Table};
use tc_index::TcTreeBuilder;
use tc_util::heapsize::format_bytes;
use tc_util::HeapSize;

#[global_allocator]
static ALLOC: tc_bench::alloc::CountingAlloc = tc_bench::alloc::CountingAlloc;

fn main() {
    let args = BenchArgs::from_env();
    let mut table = Table::new(
        format!("Table 3 — TC-Tree indexing (scale {})", args.scale),
        &[
            "Dataset",
            "Indexing Time",
            "Peak Memory",
            "Tree Heap",
            "#Nodes",
            "Max Depth",
        ],
    );
    for dataset in args.datasets() {
        let net = build_dataset(dataset, args.scale);
        tc_bench::alloc::reset_peak();
        let before = tc_bench::alloc::current_bytes();
        let tree = TcTreeBuilder {
            threads: 4,
            max_len: usize::MAX,
        }
        .build(&net);
        let peak = tc_bench::alloc::peak_bytes().saturating_sub(before);
        table.push_row(vec![
            dataset.name().to_string(),
            fmt_secs(tree.stats().build_secs),
            format_bytes(peak),
            format_bytes(tree.heap_size()),
            fmt_count(tree.num_nodes()),
            fmt_count(tree.max_depth()),
        ]);
    }
    table.print();
}
