//! The serving front end: listeners, bounded admission, the worker pool,
//! the ticked socket reader, signal and reload plumbing — everything both
//! daemons (`tc serve`, `tc router`) share, written against
//! [`Backend`].
//!
//! ## Admission control
//!
//! The accept loop is the *only* place connections queue, and the queue
//! is bounded by `max_inflight` — the number of sessions admitted but not
//! yet finished (queued + being served) across **every** listener. A
//! connection arriving over the limit is answered with a one-line `BUSY`
//! greeting (TCP) or a `503` (HTTP) and closed immediately: overload
//! degrades into explicit, cheap rejections the client can retry, never
//! into unbounded queueing or silent hangs. Layered on top, an optional
//! per-client token bucket ([`crate::limit`]) rejects a single hot client
//! before it can monopolise the shared inflight budget.
//!
//! ## Hot reload
//!
//! `SIGHUP` (or [`Handle::reload`]) asks the backend to re-read what it
//! serves and swap it in without dropping a single session — see
//! [`crate::reload`] for the consistency model.
//!
//! ## Shutdown
//!
//! Shutdown is requested by the `SHUTDOWN` verb, by [`Handle::shutdown`],
//! or — in the `tc` binary — by SIGTERM/SIGINT via
//! [`install_signal_handlers`]. The accept loop stops admitting,
//! in-flight sessions notice the flag at their next request boundary
//! (socket reads time out every 200 ms), queued-but-unserved
//! sessions are drained the same way, and [`FrontEnd::run`] returns once
//! every worker has parked — or after five seconds, so a session wedged
//! on a dead peer or shard cannot hold the process past it.

use crate::backend::{Answer, Backend, QuerySpec};
use crate::limit::{RateLimit, RateLimiter};
use crate::metrics::Metrics;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tc_util::sync::{Condvar, Mutex};
use tc_util::LoadError;

/// How often blocked socket reads wake to re-check the shutdown flag —
/// the upper bound on shutdown latency per session.
const READ_TICK: Duration = Duration::from_millis(200);

/// Accept-loop poll interval while the listeners are idle.
const ACCEPT_TICK: Duration = Duration::from_millis(20);

/// How long shutdown waits for admitted sessions to drain.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// The front end's admission bounds.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Worker threads serving admitted sessions (every listener shares
    /// the pool).
    pub workers: usize,
    /// Maximum admitted-but-unfinished sessions (queued + in service);
    /// connections beyond it are greeted `BUSY` / `503` and closed.
    pub max_inflight: usize,
    /// How long a session may sit without completing a request line
    /// before it is closed and its admission slot freed. `None` disables
    /// the timeout.
    pub idle_timeout: Option<Duration>,
    /// Per-client token bucket, keyed by peer IP. `None` disables it.
    pub rate_limit: Option<RateLimit>,
}

/// A point-in-time copy of the front end's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (admitted + rejected), every listener.
    pub accepted: u64,
    /// Sessions admitted past admission control.
    pub admitted: u64,
    /// Connections rejected with a `BUSY` greeting or `503`.
    pub rejected_busy: u64,
    /// Requests/connections rejected by per-client rate limiting.
    pub rate_limited: u64,
    /// `QBA` requests served.
    pub qba: u64,
    /// `QBP` requests served.
    pub qbp: u64,
    /// `QUERY` requests served.
    pub query: u64,
    /// `STATS` / `/healthz` requests served.
    pub stats: u64,
    /// `POST /query` batch requests served.
    pub batch: u64,
    /// Requests rejected as malformed (`ERR` / `400` responses).
    pub protocol_errors: u64,
    /// Queries that failed server-side (segment corruption, shard down).
    pub query_failures: u64,
    /// Sessions closed for sitting idle past the configured timeout.
    pub timeouts: u64,
    /// Hot-reloads completed.
    pub reloads: u64,
    /// Hot-reload attempts that failed validation.
    pub reload_failures: u64,
    /// Sessions admitted but not yet finished, at snapshot time.
    pub inflight: u64,
}

impl StatsSnapshot {
    /// Total query-verb requests served (`QBA` + `QBP` + `QUERY`).
    pub fn queries_served(&self) -> u64 {
        self.qba + self.qbp + self.query
    }
}

/// How one listener speaks: how an admitted connection is served, and how
/// one is refused at the door.
pub struct Wire<B: Backend> {
    /// Serves one admitted connection until it closes.
    pub(crate) serve: fn(&Core<B>, TcpStream) -> std::io::Result<()>,
    /// Writes the admission refusal (a `BUSY` greeting, a `503`).
    pub(crate) refuse: fn(&Core<B>, &mut TcpStream, &str) -> std::io::Result<()>,
    /// Whether the per-client rate limit is charged once per connection,
    /// at the door. (HTTP charges per request inside the session instead,
    /// so a keep-alive connection cannot amortise the limit away.)
    pub(crate) rate_per_connection: bool,
}

/// Shared front-end state: the backend, the bounded session queue,
/// telemetry, and the optional rate limiter.
pub(crate) struct Core<B: Backend> {
    pub(crate) backend: B,
    pub(crate) metrics: Metrics,
    pub(crate) workers: usize,
    pub(crate) max_inflight: usize,
    idle_timeout: Option<Duration>,
    limiter: Option<RateLimiter>,
    /// Admitted-but-unfinished session count — the admission gauge.
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    reload_in_progress: AtomicBool,
    queue: Mutex<VecDeque<Session<B>>>,
    queue_cv: Condvar,
}

struct Session<B: Backend> {
    stream: TcpStream,
    serve: fn(&Core<B>, TcpStream) -> std::io::Result<()>,
}

impl<B: Backend> Core<B> {
    pub(crate) fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst) as u64
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Notify under the queue lock: a worker reads the flag and parks
        // under the same lock, so it cannot miss this wake-up in between
        // — which is what lets idle workers park without a timeout.
        let _queue = self.queue.lock();
        self.queue_cv.notify_all();
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let m = &self.metrics;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            accepted: load(&m.accepted),
            admitted: load(&m.admitted),
            rejected_busy: load(&m.rejected_busy),
            rate_limited: load(&m.rate_limited),
            qba: load(&m.qba),
            qbp: load(&m.qbp),
            query: load(&m.query),
            stats: load(&m.stats),
            batch: load(&m.batch),
            protocol_errors: load(&m.protocol_errors),
            query_failures: load(&m.query_failures),
            timeouts: load(&m.timeouts),
            reloads: load(&m.reloads),
            reload_failures: load(&m.reload_failures),
            inflight: self.inflight(),
        }
    }

    /// Whether `client` is within its per-client rate budget (always
    /// true when no limiter is configured).
    pub(crate) fn within_rate(&self, client: IpAddr) -> bool {
        match &self.limiter {
            Some(l) => {
                let ok = l.allow(client);
                if !ok {
                    self.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
            None => true,
        }
    }

    /// The `GET /metrics` body.
    pub(crate) fn render_metrics(&self) -> String {
        self.backend
            .render_metrics(&self.backend.snapshot(), &self.metrics, self.inflight())
    }

    /// Counts a malformed request.
    pub(crate) fn protocol_error(&self) {
        self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Answers one query against `snapshot`, counting it. This is the one
    /// place a query verb is accounted: every `QBA`/`QBP`/`QUERY` —
    /// a line-protocol request, an HTTP `GET`, or one entry of a
    /// `POST /query` batch — bumps its verb counter and its latency
    /// histogram here, and a failed one `query_failures`.
    pub(crate) fn execute(&self, snapshot: &B::Snapshot, spec: &QuerySpec) -> Answer {
        let m = &self.metrics;
        let (count, latency) = match spec {
            QuerySpec::Qba(_) => (&m.qba, &m.qba_latency),
            QuerySpec::Qbp(_) => (&m.qbp, &m.qbp_latency),
            QuerySpec::Query(..) => (&m.query, &m.query_latency),
        };
        count.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let answer = self.backend.answer(snapshot, spec);
        latency.observe(started.elapsed().as_secs_f64());
        if matches!(answer, Answer::Err(..)) {
            m.query_failures.fetch_add(1, Ordering::Relaxed);
        }
        answer
    }

    /// [`Backend::reload`], counted.
    fn reload(&self) -> Result<B::Reloaded, LoadError> {
        let result = self.backend.reload();
        let counter = match result {
            Ok(_) => &self.metrics.reloads,
            Err(_) => &self.metrics.reload_failures,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }
}

/// A clonable remote control for a running [`FrontEnd`] — lets tests and
/// embedding binaries request shutdown, trigger hot reloads, and read
/// telemetry from outside the accept loop.
pub struct Handle<B: Backend> {
    pub(crate) core: Arc<Core<B>>,
}

impl<B: Backend> Clone for Handle<B> {
    fn clone(&self) -> Self {
        Handle {
            core: Arc::clone(&self.core),
        }
    }
}

impl<B: Backend> Handle<B> {
    /// Requests a graceful shutdown; [`FrontEnd::run`] returns once
    /// in-flight sessions finish.
    pub fn shutdown(&self) {
        self.core.request_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.core.is_shutting_down()
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.snapshot()
    }

    /// The backend being served.
    pub fn backend(&self) -> &B {
        &self.core.backend
    }

    /// The Prometheus text exposition, exactly as `GET /metrics` serves
    /// it.
    pub fn prometheus(&self) -> String {
        self.core.render_metrics()
    }

    /// Re-reads what the backend serves and swaps it in (the `SIGHUP`
    /// path, callable directly by embedders). On failure the previous
    /// state keeps serving and only `reload_failures` moves.
    pub fn reload(&self) -> Result<B::Reloaded, LoadError> {
        self.core.reload()
    }

    /// Runs [`Handle::reload`] on a detached thread, coalescing
    /// concurrent requests — the accept loop calls this on `SIGHUP` so a
    /// slow open never stalls admission.
    fn spawn_reload(&self) {
        let core = &self.core;
        if core
            .reload_in_progress
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // a reload is already running; SIGHUP storms coalesce
        }
        let handle = self.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("{}-reload", B::NAME))
            .spawn(move || {
                let core = &handle.core;
                match core.reload() {
                    Ok(_) => eprintln!(
                        "{}: reloaded, now serving {}",
                        B::NAME,
                        core.backend.healthz(&core.backend.snapshot()).trim_end()
                    ),
                    Err(e) => eprintln!("{}: reload failed, previous state kept: {e}", B::NAME),
                }
                core.reload_in_progress.store(false, Ordering::SeqCst);
            });
        if let Err(e) = spawned {
            // Spawn failure (thread exhaustion) must not take the accept
            // loop down — the old state keeps serving, the latch clears so
            // a later SIGHUP can retry, and the failure is counted.
            eprintln!("{}: could not spawn reload thread: {e}", B::NAME);
            core.metrics.reload_failures.fetch_add(1, Ordering::Relaxed);
            core.reload_in_progress.store(false, Ordering::SeqCst);
        }
    }
}

/// A bound serving daemon over one [`Backend`]; [`FrontEnd::run`] starts
/// serving.
pub struct FrontEnd<B: Backend> {
    ports: Vec<(TcpListener, Wire<B>)>,
    core: Arc<Core<B>>,
}

impl<B: Backend> FrontEnd<B> {
    /// A front end over `backend` with no listeners yet.
    pub fn new(backend: B, admission: Admission) -> std::io::Result<FrontEnd<B>> {
        if admission.workers == 0 || admission.max_inflight == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "workers and max-inflight must be at least 1",
            ));
        }
        if let Some(rl) = &admission.rate_limit {
            if !(rl.per_sec > 0.0 && rl.burst >= 1.0) {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    "rate limit needs per_sec > 0 and burst >= 1",
                ));
            }
        }
        Ok(FrontEnd {
            ports: Vec::new(),
            core: Arc::new(Core {
                backend,
                metrics: Metrics::default(),
                workers: admission.workers,
                max_inflight: admission.max_inflight,
                idle_timeout: admission.idle_timeout,
                limiter: admission.rate_limit.map(RateLimiter::new),
                inflight: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                reload_in_progress: AtomicBool::new(false),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
            }),
        })
    }

    /// Binds `addr` (port `0` picks an ephemeral port — read it back with
    /// [`FrontEnd::port_addr`]) to speak `wire`. Serving starts when
    /// [`FrontEnd::run`] is called.
    pub fn listen(&mut self, addr: &str, wire: Wire<B>) -> std::io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        self.ports.push((listener, wire));
        Ok(())
    }

    /// The bound address of the `index`-th listener, in
    /// [`FrontEnd::listen`] order (resolves port `0` bindings).
    pub fn port_addr(&self, index: usize) -> Option<std::io::Result<SocketAddr>> {
        self.ports.get(index).map(|(l, _)| l.local_addr())
    }

    /// A remote control valid for the lifetime of the daemon.
    pub fn handle(&self) -> Handle<B> {
        Handle {
            core: Arc::clone(&self.core),
        }
    }

    /// Runs the accept loop on the calling thread until shutdown is
    /// requested, then drains in-flight sessions (for at most five
    /// seconds) and returns the final counter snapshot.
    pub fn run(self) -> std::io::Result<StatsSnapshot> {
        let core = &self.core;
        let mut workers = Vec::with_capacity(core.workers);
        let mut failed = None;
        for i in 0..core.workers {
            let core = Arc::clone(core);
            let spawned = std::thread::Builder::new()
                .name(format!("{}-worker-{i}", B::NAME))
                .spawn(move || worker_loop(&core));
            match spawned {
                Ok(h) => workers.push(h),
                Err(e) => {
                    // A short pool can't serve the configured parallelism;
                    // fail startup cleanly instead of panicking.
                    failed = Some(e);
                    break;
                }
            }
        }

        while failed.is_none() && !core.is_shutting_down() && !signal_received() {
            if take_reload_signal() {
                self.handle().spawn_reload();
            }
            let mut idle = true;
            for (listener, wire) in &self.ports {
                match listener.accept() {
                    Ok((stream, _)) => {
                        self.admit(stream, wire);
                        idle = false;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => idle = false,
                    Err(e) => {
                        // Tear the pool down before surfacing the error.
                        failed = Some(e);
                        break;
                    }
                }
            }
            if idle {
                std::thread::sleep(ACCEPT_TICK);
            }
        }

        core.request_shutdown();
        let deadline = Instant::now() + DRAIN_LIMIT;
        for worker in workers {
            while !worker.is_finished() && Instant::now() < deadline {
                std::thread::sleep(ACCEPT_TICK);
            }
            if worker.is_finished() {
                let _ = worker.join();
            }
            // else: wedged past the drain limit (a dead peer, a hung
            // shard) — leave it detached rather than hang the shutdown.
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(core.snapshot()),
        }
    }

    /// Admission control: enqueue within the rate and inflight budgets,
    /// refuse beyond them.
    fn admit(&self, mut stream: TcpStream, wire: &Wire<B>) {
        let core = &self.core;
        core.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        if wire.rate_per_connection {
            if let Ok(peer) = stream.peer_addr() {
                if !core.within_rate(peer.ip()) {
                    let _ = (wire.refuse)(
                        core,
                        &mut stream,
                        "per-client rate limit exceeded, retry later",
                    );
                    return;
                }
            }
        }
        let admitted = core
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < core.max_inflight).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            core.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
            let reason = format!(
                "inflight limit ({}) reached, retry later",
                core.max_inflight
            );
            // Best effort: the client may already be gone.
            let _ = (wire.refuse)(core, &mut stream, &reason);
            return; // dropping the stream closes it
        }
        // Re-check the shutdown flag *under the queue lock*: workers decide
        // to exit under this lock (queue empty && shutdown), so a push that
        // observes the flag unset here is guaranteed a worker will drain it
        // — without this, a SHUTDOWN landing between the accept-loop check
        // and the push could orphan the connection and leak the inflight
        // gauge.
        let mut queue = core.queue.lock();
        if core.is_shutting_down() {
            drop(queue);
            core.inflight.fetch_sub(1, Ordering::SeqCst);
            core.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
            let _ = (wire.refuse)(core, &mut stream, "server shutting down");
            return;
        }
        core.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        queue.push_back(Session {
            stream,
            serve: wire.serve,
        });
        drop(queue);
        core.queue_cv.notify_one();
    }
}

/// Decrements the inflight gauge when a session ends, panic-safe.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop<B: Backend>(core: &Core<B>) {
    loop {
        let session = {
            let mut queue = core.queue.lock();
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if core.is_shutting_down() {
                    break None;
                }
                queue = core.queue_cv.wait(queue);
            }
        };
        let Some(session) = session else {
            // Shutdown with an empty queue: even sessions admitted after
            // the flag flipped have been drained (flag is checked only
            // under the same lock the acceptor pushes under).
            return;
        };
        let _guard = InflightGuard(&core.inflight);
        // Socket errors end the session; the next connection is unaffected.
        if let Err(e) = (session.serve)(core, session.stream) {
            if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                core.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A socket reader that ticks: blocked reads wake every [`READ_TICK`] to
/// re-check the shutdown flag and the idle clock, so a byte-trickling or
/// half-dead client can neither hang a worker nor survive shutdown.
pub(crate) struct TickReader<'a> {
    reader: BufReader<TcpStream>,
    shutdown: &'a AtomicBool,
    idle_timeout: Option<Duration>,
    idle: Duration,
}

/// Why a ticked read stopped short of data.
pub(crate) enum ReadStop {
    /// The peer closed, or the daemon is shutting down: end the session
    /// quietly.
    Closed,
    /// The session idled past the configured timeout.
    IdleTimeout,
    /// The line outgrew its cap.
    TooLong,
}

/// The `Err` a session returns on [`ReadStop::IdleTimeout`]; the worker
/// loop counts it as a timeout.
pub(crate) fn idle_timeout_error() -> std::io::Error {
    std::io::Error::new(ErrorKind::TimedOut, "session idle timeout")
}

impl<'a> TickReader<'a> {
    /// Arms `stream`'s timeouts for ticked reads and wraps a clone of it.
    pub(crate) fn new<B: Backend>(
        core: &'a Core<B>,
        stream: &TcpStream,
    ) -> std::io::Result<TickReader<'a>> {
        stream.set_read_timeout(Some(READ_TICK))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(TickReader {
            reader: BufReader::new(stream.try_clone()?),
            shutdown: &core.shutdown,
            idle_timeout: core.idle_timeout,
            idle: Duration::ZERO,
        })
    }

    /// Reads one `\n`-terminated line (CRLF tolerated) of at most `max`
    /// bytes, stripped of its terminator. Every read goes through a `take`
    /// bounded by the remaining line budget, so a client streaming bytes
    /// with no newline can never buffer more than `max + 2` bytes before
    /// the line is cut off as [`ReadStop::TooLong`].
    pub(crate) fn read_line(
        &mut self,
        line: &mut String,
        max: usize,
    ) -> std::io::Result<Result<(), ReadStop>> {
        line.clear();
        let mut buf = Vec::new();
        loop {
            // Budget for the raw line including its CRLF terminator.
            let budget = (max + 2).saturating_sub(buf.len()) as u64;
            if budget == 0 {
                return Ok(Err(ReadStop::TooLong));
            }
            match (&mut self.reader).take(budget).read_until(b'\n', &mut buf) {
                // Closed, even mid-line: nothing to answer.
                Ok(0) => return Ok(Err(ReadStop::Closed)),
                Ok(_) => {
                    if buf.last() != Some(&b'\n') {
                        continue; // budget spent mid-line → TooLong above
                    }
                    self.idle = Duration::ZERO;
                    while matches!(buf.last(), Some(b'\n' | b'\r')) {
                        buf.pop();
                    }
                    if buf.len() > max {
                        return Ok(Err(ReadStop::TooLong));
                    }
                    let text = std::str::from_utf8(&buf)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                    line.push_str(text);
                    return Ok(Ok(()));
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if let Some(stop) = self.tick() {
                        return Ok(Err(stop));
                    }
                    // Partial bytes already in `buf` survive the retry,
                    // but only a complete line resets the idle clock.
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads exactly `buf.len()` body bytes.
    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<Result<(), ReadStop>> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.reader.read(&mut buf[filled..]) {
                Ok(0) => return Ok(Err(ReadStop::Closed)),
                Ok(n) => {
                    filled += n;
                    self.idle = Duration::ZERO;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if let Some(stop) = self.tick() {
                        return Ok(Err(stop));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Ok(()))
    }

    /// One timeout tick: advances the idle clock, reports shutdown or
    /// idle expiry.
    fn tick(&mut self) -> Option<ReadStop> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Some(ReadStop::Closed);
        }
        self.idle += READ_TICK;
        match self.idle_timeout {
            Some(limit) if self.idle >= limit => Some(ReadStop::IdleTimeout),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Signal plumbing: SIGTERM/SIGINT flip a shutdown flag, SIGHUP a reload
// flag; the accept loop polls both. Only the `tc` binary installs the
// handlers; library users and tests drive shutdown and reload via Handle /
// the SHUTDOWN verb.
// ---------------------------------------------------------------------------

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);
static SIGNAL_RELOAD: AtomicBool = AtomicBool::new(false);

fn signal_received() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Consumes a pending SIGHUP, if one arrived since the last check.
fn take_reload_signal() -> bool {
    SIGNAL_RELOAD.swap(false, Ordering::SeqCst)
}

/// Routes SIGTERM and SIGINT into a graceful shutdown — and SIGHUP into
/// a hot-reload — of every [`FrontEnd::run`] loop in the process. Call
/// once, before `run`.
///
/// Uses the C `signal(2)` entry point directly — the workspace vendors
/// its dependencies and has no `libc` crate, but every supported target
/// already links the C runtime through `std`.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_shutdown(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" fn on_reload(_signum: i32) {
        SIGNAL_RELOAD.store(true, Ordering::SeqCst);
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    // SAFETY: `signal(2)` is async-signal-safe to install from any thread;
    // the handlers passed are `extern "C" fn(i32)` with the exact ABI the
    // C runtime invokes them under, and each performs only a single atomic
    // store (itself async-signal-safe). The returned previous handler is
    // deliberately discarded — the daemon owns these three signals.
    unsafe {
        signal(SIGTERM, on_shutdown);
        signal(SIGINT, on_shutdown);
        signal(SIGHUP, on_reload);
    }
}

/// No-op off Unix: rely on process teardown.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}
