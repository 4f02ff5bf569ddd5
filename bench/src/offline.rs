//! The offline half of the chain: mine, build the TC-Tree, write the
//! segment — what `tc mine` and `tc index` do, called in process.

use crate::pin::{Stopwatch, Timed};
use crate::trace::Tracer;
use std::path::Path;
use tc_core::{DatabaseNetwork, Miner, MiningResult, ParallelTcfiMiner};
use tc_index::{TcTree, TcTreeBuilder};

/// Threads of the measured miner and builder: the parallel code paths on
/// one thread, because the measured window has one CPU (see `pin.rs`).
/// What a second thread gains is a per-layer figure of the traced run.
pub const THREADS: usize = 1;

/// One pass of mine → build → write.
pub struct ChainPass {
    pub mine: Timed,
    pub build: Timed,
    pub write: Timed,
    pub mined: MiningResult,
    pub tree: TcTree,
    pub segment_bytes: u64,
    pub segment_crc: u32,
}

impl ChainPass {
    /// What `tc index` spends: build plus segment write.
    pub fn index(&self) -> Timed {
        self.build + self.write
    }
}

/// Runs one pass on `cpu`, leaving the segment at `segment`.
pub fn chain_pass(
    net: &DatabaseNetwork,
    alpha: f64,
    cpu: usize,
    segment: &Path,
    tracer: &mut Tracer,
) -> Result<ChainPass, String> {
    let pass = tracer.open("chain_pass", 0, 0);
    let watch = Stopwatch::start(cpu);
    let mined = tracer.time("mine", pass, 0, || {
        ParallelTcfiMiner {
            max_len: usize::MAX,
            threads: THREADS,
        }
        .mine(net, alpha)
    });
    let mine = watch.stop();

    let watch = Stopwatch::start(cpu);
    let tree = tracer.time("build", pass, 0, || {
        TcTreeBuilder {
            threads: THREADS,
            max_len: usize::MAX,
        }
        .build(net)
    });
    let build = watch.stop();

    let watch = Stopwatch::start(cpu);
    tracer
        .time("segment_write", pass, 0, || {
            tc_store::save_tree_segment_to_path(&tree, segment)
        })
        .map_err(|e| format!("{}: {e}", segment.display()))?;
    let write = watch.stop();
    tracer.close(pass);

    let bytes = std::fs::read(segment).map_err(|e| format!("{}: {e}", segment.display()))?;
    Ok(ChainPass {
        mine,
        build,
        write,
        mined,
        tree,
        segment_bytes: bytes.len() as u64,
        segment_crc: tc_util::crc32::crc32(&bytes),
    })
}
