//! The closed-loop load generator: one connection, which sends its next
//! request when the previous answer has been read and checked. One, because
//! the harness and the daemons share one CPU (see `pin.rs`): a second
//! connection would only queue behind the first.

use crate::daemon::Front;
use crate::mixq::{summaries_of_json, Pool, Stream, BATCH};
use crate::pin::{Stopwatch, Timed};
use crate::stats::percentile;
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use tc_serve::{HttpClient, ServeClient, TrussSummary};

enum Conn {
    Line(ServeClient),
    Http(HttpClient),
}

impl Conn {
    fn open(front: Front, addr: &str) -> Result<Conn, String> {
        match front {
            Front::Line => ServeClient::connect(addr)
                .map(Conn::Line)
                .map_err(|e| e.to_string()),
            _ => HttpClient::connect(addr)
                .map(Conn::Http)
                .map_err(|e| e.to_string()),
        }
    }

    /// One request carrying `picks`; `Ok(true)` when every answer equals
    /// the pool's expected one, `Err` when the request failed or was
    /// refused.
    fn roundtrip(&mut self, front: Front, pool: &Pool, picks: &[usize]) -> Result<bool, String> {
        use crate::mixq::Query;
        match self {
            Conn::Line(client) => {
                let resp = match &pool.queries[picks[0]] {
                    Query::Qbp(items) => client.qbp(items),
                    Query::Qba(alpha) => client.qba(*alpha),
                }
                .map_err(|e| e.to_string())?;
                Ok(resp.trusses == pool.expected[picks[0]])
            }
            Conn::Http(client) => {
                let resp = if front == Front::HttpBatch {
                    client.post("/query", &pool.batch_body(picks))
                } else {
                    client.get(&pool.queries[picks[0]].http_target())
                }
                .map_err(|e| e.to_string())?;
                if !resp.is_ok() {
                    return Err(format!("status {}: {}", resp.status, resp.body.trim_end()));
                }
                let body = tc_util::json::parse(&resp.body)?;
                let answers: Vec<Option<Vec<TrussSummary>>> = if front == Front::HttpBatch {
                    let results = body
                        .get("results")
                        .and_then(|r| r.as_arr())
                        .ok_or("batch answer without results")?;
                    results.iter().map(summaries_of_json).collect()
                } else {
                    vec![summaries_of_json(&body)]
                };
                Ok(answers.len() == picks.len()
                    && answers
                        .iter()
                        .zip(picks)
                        .all(|(got, &i)| got.as_ref() == Some(&pool.expected[i])))
            }
        }
    }
}

/// What a phase sends.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Every pool entry once, stopping early after `cap`: the warm-up.
    PoolPass { cap: Duration },
    /// The seeded stream for this long, after a tenth as long that is sent
    /// and checked but not timed: a slice follows an offline pass or a
    /// process start, which leave the CPU's caches to someone else.
    Stream { timed: Duration },
}

/// What a phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Client-observed round trip of each timed request in µs, in send
    /// order.
    pub us: Vec<f64>,
    /// First timed request sent to last answer read.
    pub timed: Timed,
    /// Every request sent, the untimed ones too.
    pub attempted: u64,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Phase {
    pub fn qps(&self) -> f64 {
        self.us.len() as f64 / self.timed.secs
    }

    /// Nearest-rank percentile of the timed round trips.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.us.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

/// Runs one phase of `plan` against `addr` on the calling thread, which
/// shares `cpu` with the daemons, drawing streamed requests from `draws`.
/// With a tracer, every request records a `request` span with a
/// `roundtrip` child (send to answer parsed and checked), so the parent's
/// self time is the generator's own cost.
pub fn run_phase(
    front: Front,
    addr: &str,
    pool: &Pool,
    draws: &mut Stream,
    plan: Plan,
    cpu: usize,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let per_request = if front == Front::HttpBatch { BATCH } else { 1 };
    let mut phase = Phase {
        us: Vec::new(),
        timed: Timed::default(),
        attempted: 0,
        failed: 0,
        first_error: None,
    };
    let mut conn = match Conn::open(front, addr) {
        Ok(conn) => conn,
        Err(e) => {
            phase.attempted = 1;
            phase.failed = 1;
            phase.first_error = Some(e);
            return phase;
        }
    };
    let (lead, end) = match plan {
        Plan::PoolPass { cap } => (Duration::ZERO, cap),
        Plan::Stream { timed } => (timed / 10, timed / 10 + timed),
    };
    let mut pass = 0..pool.len();
    let mut picks = Vec::with_capacity(per_request);
    let started = Instant::now();
    let mut watch = None;
    while started.elapsed() < end {
        picks.clear();
        match plan {
            Plan::PoolPass { .. } => picks.extend(pass.by_ref().take(per_request)),
            Plan::Stream { .. } => picks.extend((0..per_request).map(|_| draws.next())),
        }
        if picks.is_empty() {
            break;
        }
        if watch.is_none() && started.elapsed() >= lead {
            watch = Some(Stopwatch::start(cpu));
        }
        let request_id = phase.attempted as u32;
        let span = tracer.as_mut().map(|t| t.open("request", 0, request_id));
        let sent = Instant::now();
        let outcome = conn.roundtrip(front, pool, &picks);
        let answered = Instant::now();
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            let at = |i: Instant| i.duration_since(t.epoch()).as_nanos() as u64;
            t.record("roundtrip", at(sent), at(answered), span, request_id);
            t.close(span);
        }
        phase.attempted += 1;
        if watch.is_some() {
            phase
                .us
                .push(answered.duration_since(sent).as_secs_f64() * 1e6);
        }
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                phase.failed += 1;
                phase
                    .first_error
                    .get_or_insert_with(|| format!("wrong answer to pool entries {picks:?}"));
            }
            Err(e) => {
                // The connection's state is unknown: stop here, count the
                // request.
                phase.failed += 1;
                phase.first_error.get_or_insert(e);
                break;
            }
        }
    }
    if let Some(watch) = watch {
        phase.timed = watch.stop();
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::WORKERS;
    use tc_data::{generate_planted, PlantedConfig};
    use tc_index::TcTreeBuilder;
    use tc_serve::{ServeConfig, Server};
    use tc_store::SegmentTcTree;

    /// The generator against an in-process daemon on a planted tree: the
    /// warm-up sends each pool entry exactly once, every front end's
    /// answers pass the check, traced requests come in span pairs, and a
    /// wrong expectation is counted as a failed request.
    #[test]
    fn phases_count_check_and_trace_every_request() {
        let tree =
            TcTreeBuilder::default().build(&generate_planted(&PlantedConfig::default()).network);
        let mut bytes = Vec::new();
        tc_store::save_tree_segment(&tree, &mut bytes).unwrap();
        let open = || SegmentTcTree::from_bytes(bytes.clone()).unwrap();
        let mut pool = Pool::draw(&open(), 3).unwrap();
        assert!(pool.len() > BATCH);

        let cfg = ServeConfig {
            workers: WORKERS,
            http_addr: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        };
        let server = Server::bind(open(), "127.0.0.1:0", cfg).unwrap();
        let line = server.local_addr().unwrap().to_string();
        let http = server.local_http_addr().unwrap().unwrap().to_string();
        let handle = server.handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let cpu = crate::pin::CpuSet::current().unwrap().last().unwrap();
        let cap = Duration::from_secs(60);
        let mut draws = Stream::new(3, 0, pool.len());
        let pass = Plan::PoolPass { cap };
        let warm = run_phase(Front::Line, &line, &pool, &mut draws, pass, cpu, None);
        assert_eq!(
            (warm.attempted, warm.failed),
            (pool.len() as u64, 0),
            "{:?}",
            warm.first_error
        );
        // Nothing of a pool pass is lead-in: every request is timed.
        assert_eq!(warm.us.len(), pool.len());
        let batches = run_phase(Front::HttpBatch, &http, &pool, &mut draws, pass, cpu, None);
        assert_eq!(batches.attempted, pool.len().div_ceil(BATCH) as u64);
        assert_eq!(batches.failed, 0, "{:?}", batches.first_error);

        let mut tracer = Tracer::new(Instant::now());
        let timed = Duration::from_millis(100);
        let slice = Plan::Stream { timed };
        let gets = run_phase(
            Front::HttpGet,
            &http,
            &pool,
            &mut draws,
            slice,
            cpu,
            Some(&mut tracer),
        );
        assert!(
            gets.attempted > 0 && gets.failed == 0,
            "{:?}",
            gets.first_error
        );
        // The lead-in is sent, checked and traced, but not timed.
        assert!(!gets.us.is_empty() && (gets.us.len() as u64) < gets.attempted);
        assert!(gets.timed.secs > 0.0 && gets.timed.secs < 1.1 * timed.as_secs_f64());
        assert!(gets.qps() > 0.0 && gets.percentile_us(0.5) <= gets.percentile_us(0.99));
        assert_eq!(tracer.len() as u64, 2 * gets.attempted);
        assert_eq!(tracer.totals()["roundtrip"].count, gets.attempted);

        pool.expected.iter_mut().for_each(Vec::clear);
        pool.expected[0].push(TrussSummary {
            items: vec![1],
            vertices: 1,
            edges: 1,
        });
        let wrong = run_phase(Front::Line, &line, &pool, &mut draws, pass, cpu, None);
        assert!(wrong.failed > 0 && wrong.first_error.is_some());

        handle.shutdown();
        daemon.join().unwrap();
    }
}
