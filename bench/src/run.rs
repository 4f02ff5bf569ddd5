//! One run of one workload: set-up, then the measured window in which
//! offline passes, serving slices and cold starts take turns, the checks,
//! and the metrics.

use crate::daemon::{Files, Front, Topology};
use crate::inputs::{check_drift, Fingerprint};
use crate::layers;
use crate::load::{run_phase, Phase, Plan};
use crate::mixq::{Pool, Stream};
use crate::offline::{chain_pass, ChainPass};
use crate::pin::{CpuSet, Stopwatch, Timed};
use crate::spec::{Metrics, Workload};
use crate::stats::{best_quarter, Better};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tc_core::{DatabaseNetwork, Miner, MiningResult, TcfiMiner};
use tc_store::{HashScheme, SegmentTcTree};

/// Timed length of one serving slice (a tenth as long again runs before
/// it untimed). Long enough that the slowest workload's slice holds some
/// 1 200 requests, twelve of them beyond its p99.
const SLICE: Duration = Duration::from_secs(2);

/// The warm-up's pool pass stops after this long: under a cache budget the
/// pool never becomes warm, and the cache has turned over several times by
/// then.
const WARM_UP_CAP: Duration = Duration::from_millis(500);

/// Times a run sets up. The first set-up's products are the ones the run
/// uses; the others, after the first rounds, are made the same way and
/// dropped. `setup_s` is their best quarter like every other time.
const SETUPS: usize = 3;

/// What takes turns in the measured window. Every metric's units are
/// spread over the whole window this way, so each sees the same stretch of
/// the host's moods and reports its best quarter of them (see
/// `stats::best_quarter`).
#[derive(Clone, Copy)]
enum Unit {
    /// One closed-loop serving slice against the run's daemons.
    Slice,
    /// One more set of daemons spawned, asked once, and killed.
    ColdStart,
    /// One mine → build → write pass.
    Pass,
}

const ROUND: [Unit; 3] = [Unit::Slice, Unit::ColdStart, Unit::Pass];

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `tc` binary under test.
    pub tc: PathBuf,
    /// `bench/out`: scratch files and `trace.json`.
    pub out: PathBuf,
}

/// What a run reports on its last line (`correct` is `failed == 0`).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The run's scratch directory, removed when the run ends or panics.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> Result<Scratch, String> {
        let dir = out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Failed operations and failed checks, with what to say about them.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    pub fn phase(&mut self, what: &str, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        if let Some(e) = &phase.first_error {
            println!(
                "REQUESTS FAILED in {what}: {} of {}, first: {e}",
                phase.failed, phase.attempted
            );
        }
    }
}

/// `(stolen, total)` CPU ticks since boot, from the first line of
/// `/proc/stat`; `None` where there is no such file.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The steps of one set-up and how long each took.
struct Laps {
    steps: Vec<(&'static str, f64)>,
    total: Timed,
    watch: Stopwatch,
}

impl Laps {
    fn start(cpu: usize) -> Laps {
        Laps {
            steps: Vec::new(),
            total: Timed::default(),
            watch: Stopwatch::start(cpu),
        }
    }

    /// Set-up goes on after something that is not part of it.
    fn resume(&mut self) {
        self.watch = Stopwatch::start(self.watch.cpu());
    }

    fn lap(&mut self, step: &'static str) {
        let timed = self.watch.stop();
        self.steps.push((step, timed.secs));
        self.total = self.total + timed;
        self.resume();
    }
}

/// Set-up before the window's first pass: the input, and the serial
/// miner's answer to hold the measured one against.
fn set_up_input(w: &Workload, seed: u64, laps: &mut Laps) -> (DatabaseNetwork, MiningResult) {
    let net = w.input.generate(seed);
    laps.lap("generate");
    let oracle = TcfiMiner::default().mine(&net, w.input.mine_alpha());
    laps.lap("serial oracle");
    (net, oracle)
}

/// What the serving units of a run work with.
struct Serving {
    fingerprint: Fingerprint,
    pool: Pool,
    working_set: u64,
    cache_bytes: Option<u64>,
    level1: Vec<u32>,
    shard_paths: Vec<PathBuf>,
    map: PathBuf,
}

impl Serving {
    fn files<'a>(&'a self, args: &'a Args, segment: &'a Path) -> Files<'a> {
        Files {
            tc: &args.tc,
            segment,
            shards: &self.shard_paths,
            map: &self.map,
            level1: &self.level1,
        }
    }
}

/// What the serving half of set-up starts from: the run, its input, and
/// the first pass with the segment it wrote.
struct Served<'a> {
    w: &'a Workload,
    args: &'a Args,
    net: &'a DatabaseNetwork,
    first: &'a ChainPass,
    segment: &'a Path,
}

/// Set-up after the first pass: the drift guard, the reference answers,
/// the shard files under `dir`, the daemons, the warm-up.
fn set_up_serving(
    served: &Served,
    dir: &Path,
    laps: &mut Laps,
    tally: &mut Tally,
) -> Result<(Serving, Topology), String> {
    let Served {
        w,
        args,
        net,
        first,
        segment,
    } = *served;
    let fingerprint = Fingerprint::of(net, &first.tree);
    check_drift(w.input, args.seed, fingerprint)?;
    let reference = SegmentTcTree::open(segment).map_err(|e| e.to_string())?;
    let pool = Pool::draw(&reference, args.seed).map_err(|e| e.to_string())?;
    let working_set = reference.cache_stats().bytes_used;
    drop(reference);
    laps.lap("drift guard and reference answers");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let serving = Serving {
        fingerprint,
        pool,
        working_set,
        cache_bytes: w.cache_tenth.then_some(working_set / 10),
        level1: tc_store::level1_items(&first.tree),
        shard_paths: (0..2).map(|i| dir.join(format!("shard-{i}.seg"))).collect(),
        map: dir.join("shards.tcmap"),
    };
    if w.front == Front::Routed || args.trace {
        for (shard, path) in tc_store::split_tree(&first.tree, HashScheme::Crc32Item, 2)
            .iter()
            .zip(&serving.shard_paths)
        {
            tc_store::save_tree_segment_to_path(shard, path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    laps.lap("shard files");
    let topo = Topology::start(
        w.front,
        &serving.files(args, segment),
        serving.cache_bytes,
        0.5 * serving.pool.alpha_star,
        laps.watch.cpu(),
    )?;
    laps.lap("daemons");
    let warm = run_phase(
        w.front,
        topo.addr(),
        &serving.pool,
        &mut Stream::new(args.seed, 0, serving.pool.len()),
        Plan::PoolPass { cap: WARM_UP_CAP },
        laps.watch.cpu(),
        None,
    );
    tally.phase("warm-up", &warm);
    laps.lap("warm-up");
    Ok((serving, topo))
}

pub fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let run_started = Instant::now();
    let ticks_before = cpu_ticks();
    // From here to the end of the window this thread, every thread it
    // starts and every daemon it spawns share one CPU.
    let all_cpus = CpuSet::current().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let cpu = all_cpus.last().ok_or("no CPU to run on")?;
    let one_cpu = all_cpus.last_only().ok_or("no CPU to run on")?;
    one_cpu
        .apply()
        .map_err(|e| format!("sched_setaffinity: {e}"))?;
    let scratch = Scratch::new(&args.out)?;
    let segment = scratch.0.join("tree.seg");
    let mut tracer = Tracer::new(run_started);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let alpha = w.input.mine_alpha();

    let mut laps = Laps::start(cpu);
    let (net, oracle) = set_up_input(w, args.seed, &mut laps);

    // ---- The window opens with the pass whose tree the run serves. The
    // window's length is the sum of its units', stolen time and all.
    let mut window = Duration::ZERO;
    let unit_started = Instant::now();
    let first = chain_pass(&net, alpha, cpu, &segment, &mut tracer)?;
    window += unit_started.elapsed();
    let (mut mine_s, mut index_s) = (vec![first.mine.unit()], vec![first.index().unit()]);
    println!(
        "first pass: mined {} patterns at alpha {alpha}, tree {} nodes depth {}, segment {} B crc {:08x}",
        first.mined.np(),
        first.tree.num_nodes(),
        first.tree.max_depth(),
        first.segment_bytes,
        first.segment_crc
    );
    tally.check(
        "the measured miner finds the serial miner's trusses",
        first.mined.same_trusses(&oracle),
    );
    drop(oracle);
    tally.check(
        "patterns mined at alpha = nodes the tree retrieves at alpha",
        first.mined.np() == first.tree.query_by_alpha(alpha).retrieved_nodes,
    );

    let served = Served {
        w,
        args,
        net: &net,
        first: &first,
        segment: &segment,
    };
    laps.resume();
    let (serving, topo) = set_up_serving(&served, &scratch.0, &mut laps, &mut tally)?;
    let mut setup_s = vec![laps.total.unit()];
    println!(
        "input {} seed {}: {:?}\nmix-q: {} pool entries, working set {} B, cache budget {}\nfirst set-up: {:.3?}",
        w.input.name(),
        args.seed,
        serving.fingerprint,
        serving.pool.len(),
        serving.working_set,
        serving
            .cache_bytes
            .map_or("unbounded".to_string(), |b| format!("{b} B")),
        laps.steps
    );
    let files = serving.files(args, &segment);
    // The cold starts' routers read a map of their own, not the one the
    // run's router may reload.
    let cold_files = Files {
        map: &scratch.0.join("cold.tcmap"),
        ..files
    };
    let pool = &serving.pool;
    let mid_alpha = 0.5 * pool.alpha_star;
    let ms = |t: Timed| (t.secs * 1e3, t.disturbed());
    let mut cold_ms = vec![ms(topo.cold_first_answer)];
    let mut draws = Stream::new(args.seed, 0, pool.len());
    let mut traced_draws = Stream::new(args.seed, 1, pool.len());

    // ---- The rest of the window: whole rounds, at least one, until
    // `--seconds` are spent. A traced run records spans in every second
    // slice, which prices the recording, and so needs two slices at least.
    let budget = Duration::from_secs_f64(args.seconds);
    let pass_segment = scratch.0.join("pass.seg");
    let (mut slices, mut traced_slices): (Vec<Phase>, Vec<Phase>) = (Vec::new(), Vec::new());
    let mut rounds = 0;
    'window: loop {
        for unit in ROUND {
            let measured_all = rounds > 0 && (!args.trace || !traced_slices.is_empty());
            if measured_all && window >= budget {
                break 'window;
            }
            let unit_started = Instant::now();
            match unit {
                Unit::Slice => {
                    let plan = Plan::Stream { timed: SLICE };
                    let trace_it = args.trace && slices.len() > traced_slices.len();
                    let slice = if trace_it {
                        let t = Some(&mut tracer);
                        run_phase(w.front, topo.addr(), pool, &mut traced_draws, plan, cpu, t)
                    } else {
                        run_phase(w.front, topo.addr(), pool, &mut draws, plan, cpu, None)
                    };
                    tally.phase("serving slice", &slice);
                    if slice.us.is_empty() {
                        return Err("a serving slice completed no request".to_string());
                    }
                    if trace_it {
                        traced_slices.push(slice);
                    } else {
                        slices.push(slice);
                    }
                }
                Unit::ColdStart => {
                    let cold =
                        Topology::start(w.front, &cold_files, serving.cache_bytes, mid_alpha, cpu)?;
                    cold_ms.push(ms(cold.cold_first_answer));
                }
                Unit::Pass => {
                    let pass = chain_pass(&net, alpha, cpu, &pass_segment, &mut tracer)?;
                    tally.check(
                        "segment bytes identical across passes",
                        pass.segment_crc == first.segment_crc,
                    );
                    mine_s.push(pass.mine.unit());
                    index_s.push(pass.index().unit());
                }
            }
            window += unit_started.elapsed();
        }
        rounds += 1;
        if setup_s.len() < SETUPS {
            // Set-up once more, outside the window: everything made anew
            // and dropped, the daemons' start one more cold start.
            let mut laps = Laps::start(cpu);
            drop(set_up_input(w, args.seed, &mut laps));
            let again = set_up_serving(&served, &scratch.0.join("again"), &mut laps, &mut tally)?;
            cold_ms.push(ms(again.1.cold_first_answer));
            setup_s.push(laps.total.unit());
        }
    }

    let column = |of: &[Phase], f: fn(&Phase) -> f64| {
        of.iter()
            .map(|s| (f(s), s.timed.disturbed()))
            .collect::<Vec<_>>()
    };
    let qps = column(&slices, Phase::qps);
    let p50_us = column(&slices, |s| s.percentile_us(0.5));
    let p99_us = column(&slices, |s| s.percentile_us(0.99));
    m.put("setup_s", best_quarter(&setup_s, Better::Lower));
    m.put("mine_s", best_quarter(&mine_s, Better::Lower));
    m.put("index_s", best_quarter(&index_s, Better::Lower));
    m.put("index_bytes", first.segment_bytes as f64);
    m.put("qps", best_quarter(&qps, Better::Higher));
    m.put("p50_us", best_quarter(&p50_us, Better::Lower));
    m.put("daemon_peak_rss_mb", topo.peak_rss_mb()?);
    m.put(
        "cold_first_answer_ms",
        best_quarter(&cold_ms, Better::Lower),
    );
    // Every unit, a disturbed one with a star.
    let list = |units: &[(f64, bool)], decimals: usize| {
        let shown: Vec<String> = units
            .iter()
            .map(|(v, disturbed)| format!("{v:.decimals$}{}", if *disturbed { "*" } else { "" }))
            .collect();
        format!("[{}]", shown.join(", "))
    };
    println!(
        "window: {rounds} round(s), {:.3} s on CPU {cpu}; stolen time taken out, * = disturbed by it; reported is each list's best quarter\n  set-ups: {} s\n  passes: mine {} s, index {} s\n  slices of {} s ({} timed requests): qps {}, p50 {} us, p99 {} us\n  cold starts: {} ms",
        window.as_secs_f64(),
        list(&setup_s, 3),
        list(&mine_s, 3),
        list(&index_s, 3),
        SLICE.as_secs(),
        slices.iter().map(|s| s.us.len()).sum::<usize>(),
        list(&qps, 0),
        list(&p50_us, 1),
        list(&p99_us, 1),
        list(&cold_ms, 1),
    );

    if args.trace {
        let mut layer = Metrics::default();
        // The tail goes with the layers: where the answer is cheap it is the
        // host's scheduling more than the program's, and on a busy host it
        // does not repeat within any bound the contract allows.
        layer.put("serve.p99_us", best_quarter(&p99_us, Better::Lower));
        let traced_qps = column(&traced_slices, Phase::qps);
        layer.put(
            "trace.overhead_pct",
            100.0
                * (1.0
                    - best_quarter(&traced_qps, Better::Higher)
                        / best_quarter(&qps, Better::Higher)),
        );
        let probe = layers::Probe {
            workload: w,
            args,
            net: &net,
            pass: &first,
            pool,
            files: &files,
            working_set: serving.working_set,
            topo,
            cpus: (one_cpu, all_cpus),
        };
        layers::measure(probe, &mut tracer, &mut tally, &mut layer)?;
        layer.put("trace.spans", tracer.len() as f64);
        let path = args.out.join("trace.json");
        tracer
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans, written to {}",
            tracer.len(),
            path.display()
        );
        m = layer;
    }

    // Time the hypervisor gave to other guests: one reason a run in this
    // sandbox reads slower than its neighbours.
    if let (Some((stolen0, total0)), Some((stolen1, total1))) = (ticks_before, cpu_ticks()) {
        println!(
            "stolen CPU during the run: {:.2} %",
            100.0 * (stolen1 - stolen0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}
