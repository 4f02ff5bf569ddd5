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
//! [`install_signal_handlers`]. The accept loop does not tick: it blocks
//! in `poll(2)` on its listeners and a wake socket every requester writes
//! one byte to, so it stops admitting at once. In-flight sessions notice
//! the flag at their next request boundary (socket reads time out every
//! 200 ms, so within 200 ms), queued-but-unserved sessions are drained the
//! same way, and [`FrontEnd::run`] returns as soon as the last worker
//! exits — or after five seconds, so a session wedged on a dead peer or
//! shard cannot hold the process past it.

use crate::backend::{Answer, Backend, QuerySpec};
use crate::limit::{RateLimit, RateLimiter};
use crate::metrics::Metrics;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tc_util::sync::{Condvar, Mutex};
use tc_util::LoadError;

/// How often blocked socket reads wake to re-check the shutdown flag —
/// the upper bound on shutdown latency per session.
const READ_TICK: Duration = Duration::from_millis(200);

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
    pub(crate) serve: fn(&Core<B>, TcpStream, &mut Slot) -> std::io::Result<()>,
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
    /// The write end of the accept loop's wake socket.
    waker: UnixStream,
    queue: Mutex<Queue<B>>,
    queue_cv: Condvar,
}

/// What the workers share under the queue lock.
struct Queue<B: Backend> {
    sessions: VecDeque<Session<B>>,
    /// Workers spawned and not yet exited; the shutdown drain waits for
    /// zero.
    live_workers: usize,
}

struct Session<B: Backend> {
    stream: TcpStream,
    serve: fn(&Core<B>, TcpStream, &mut Slot) -> std::io::Result<()>,
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
        // Wake the accept loop out of `poll`. A full socket already holds
        // a wake-up, so a failed write loses nothing.
        let _ = (&self.waker).write(&[1]);
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
    /// The read end of the wake socket [`Core::request_shutdown`] writes.
    wake: UnixStream,
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
        let (wake, waker) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        Ok(FrontEnd {
            ports: Vec::new(),
            wake,
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
                waker,
                queue: Mutex::new(Queue {
                    sessions: VecDeque::new(),
                    live_workers: 0,
                }),
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
            let live = LiveWorker::enter(Arc::clone(core));
            let spawned = std::thread::Builder::new()
                .name(format!("{}-worker-{i}", B::NAME))
                .spawn(move || worker_loop(&live.0));
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
        if failed.is_none() {
            // Tear the pool down before surfacing a listener error.
            failed = self.accept_loop().err();
        }

        core.request_shutdown();
        let deadline = Instant::now() + DRAIN_LIMIT;
        let mut queue = core.queue.lock();
        while queue.live_workers > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            queue = core.queue_cv.wait_timeout(queue, left).0;
        }
        let drained = queue.live_workers == 0;
        drop(queue);
        if drained {
            for worker in workers {
                let _ = worker.join();
            }
        }
        // else: a worker wedged past the drain limit (a dead peer, a hung
        // shard) — leave the pool detached rather than hang the shutdown.
        match failed {
            Some(e) => Err(e),
            None => Ok(core.snapshot()),
        }
    }

    /// Admits connections until shutdown is requested, blocking in
    /// `poll(2)` while no listener has one. Returns `Err` only when a
    /// listener fails.
    fn accept_loop(&self) -> std::io::Result<()> {
        let signal_wake = SIGNAL_WAKE.get().map(|(rx, _)| rx);
        let mut fds: Vec<sys::PollFd> = self
            .ports
            .iter()
            .map(|(listener, _)| listener.as_raw_fd())
            .chain(std::iter::once(self.wake.as_raw_fd()))
            .chain(signal_wake.map(AsRawFd::as_raw_fd))
            .map(sys::PollFd::readable)
            .collect();
        loop {
            // Drain the wake sockets, then read the flags, then poll. Every
            // waker sets its flag before it writes its byte, so a flag set
            // after the checks below leaves a byte that returns the poll at
            // once (no wake-up is lost), and a drained byte cannot return
            // it again (the loop cannot spin).
            drain(&self.wake);
            if let Some(rx) = signal_wake {
                drain(rx);
            }
            if self.core.is_shutting_down() {
                return Ok(());
            }
            if signal_received() {
                // Pass the wake-up on to any other front end in the
                // process, whose poll this drain may have robbed.
                if let Some((_, tx)) = SIGNAL_WAKE.get() {
                    let _ = (&*tx).write(&[1]);
                }
                return Ok(());
            }
            if take_reload_signal() {
                self.handle().spawn_reload();
            }
            sys::wait_readable(&mut fds)?;
            for ((listener, wire), fd) in self.ports.iter().zip(&fds) {
                if !fd.woke() {
                    continue;
                }
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => self.admit(stream, wire),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }
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
        queue.sessions.push_back(Session {
            stream,
            serve: wire.serve,
        });
        drop(queue);
        core.queue_cv.notify_one();
    }
}

/// An admitted session's hold on one of `max_inflight` slots: released
/// when the session ends (panic-safe), or earlier by [`Slot::release`].
pub(crate) struct Slot<'a>(Option<&'a AtomicUsize>);

impl Slot<'_> {
    /// Frees the slot now — before a `QUIT` is acknowledged, so a client
    /// that has read `BYE` may reconnect at once without meeting `BUSY`.
    pub(crate) fn release(&mut self) {
        if let Some(inflight) = self.0.take() {
            inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// One live worker, counted in [`Queue::live_workers`] from before its
/// spawn until its thread ends (or the spawn fails) — panic-safe, since
/// the thread's closure owns it.
struct LiveWorker<B: Backend>(Arc<Core<B>>);

impl<B: Backend> LiveWorker<B> {
    fn enter(core: Arc<Core<B>>) -> LiveWorker<B> {
        core.queue.lock().live_workers += 1;
        LiveWorker(core)
    }
}

impl<B: Backend> Drop for LiveWorker<B> {
    fn drop(&mut self) {
        self.0.queue.lock().live_workers -= 1;
        self.0.queue_cv.notify_all();
    }
}

fn worker_loop<B: Backend>(core: &Core<B>) {
    loop {
        let session = {
            let mut queue = core.queue.lock();
            loop {
                if let Some(s) = queue.sessions.pop_front() {
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
        let mut slot = Slot(Some(&core.inflight));
        // Socket errors end the session; the next connection is unaffected.
        if let Err(e) = (session.serve)(core, session.stream, &mut slot) {
            if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                core.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A socket reader that ticks: blocked reads wake every [`READ_TICK`] to
/// re-check the shutdown flag and the idle clock, so a byte-trickling or
/// half-dead client can neither hang a worker nor survive shutdown.
///
/// Idle time is wall time since the session began waiting for the current
/// request line or body. Partial bytes do not reset it, so a client that
/// trickles a line or a `Content-Length` body without ever completing it
/// times out like a silent one.
pub(crate) struct TickReader<'a> {
    reader: BufReader<TcpStream>,
    shutdown: &'a AtomicBool,
    idle_timeout: Option<Duration>,
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

/// Whether a read error is a tick (the read timeout) or an interruption,
/// after which the read is simply retried.
fn is_retry(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
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
        })
    }

    /// Reads one `\n`-terminated line (CRLF tolerated) of at most `max`
    /// bytes, stripped of its terminator. No read takes more than the
    /// remaining line budget, so a client streaming bytes with no newline
    /// can never buffer more than `max + 2` bytes before the line is cut
    /// off as [`ReadStop::TooLong`].
    pub(crate) fn read_line(
        &mut self,
        line: &mut String,
        max: usize,
    ) -> std::io::Result<Result<(), ReadStop>> {
        line.clear();
        let waiting = Instant::now();
        let mut buf = Vec::new();
        loop {
            // Budget for the raw line including its CRLF terminator.
            let budget = (max + 2).saturating_sub(buf.len());
            if budget == 0 {
                return Ok(Err(ReadStop::TooLong));
            }
            match self.reader.fill_buf() {
                // Closed, even mid-line: nothing to answer.
                Ok([]) => return Ok(Err(ReadStop::Closed)),
                Ok(chunk) => {
                    let window = &chunk[..chunk.len().min(budget)];
                    let end = window.iter().position(|&b| b == b'\n');
                    let taken = end.map_or(window.len(), |i| i + 1);
                    buf.extend_from_slice(&window[..taken]);
                    self.reader.consume(taken);
                    if end.is_some() {
                        break;
                    }
                }
                Err(e) if is_retry(&e) => {}
                Err(e) => return Err(e),
            }
            if let Some(stop) = self.stop(waiting) {
                return Ok(Err(stop));
            }
        }
        while matches!(buf.last(), Some(b'\n' | b'\r')) {
            buf.pop();
        }
        if buf.len() > max {
            return Ok(Err(ReadStop::TooLong));
        }
        let text = std::str::from_utf8(&buf)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
        line.push_str(text);
        Ok(Ok(()))
    }

    /// Reads exactly `buf.len()` body bytes.
    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<Result<(), ReadStop>> {
        let waiting = Instant::now();
        let mut filled = 0;
        while filled < buf.len() {
            match self.reader.read(&mut buf[filled..]) {
                Ok(0) => return Ok(Err(ReadStop::Closed)),
                Ok(n) => filled += n,
                Err(e) if is_retry(&e) => {}
                Err(e) => return Err(e),
            }
            if filled < buf.len() {
                if let Some(stop) = self.stop(waiting) {
                    return Ok(Err(stop));
                }
            }
        }
        Ok(Ok(()))
    }

    /// Whether a read still short of its line or body, begun at
    /// `waiting`, must stop: on shutdown, or once it has idled past the
    /// timeout.
    fn stop(&self, waiting: Instant) -> Option<ReadStop> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Some(ReadStop::Closed);
        }
        match self.idle_timeout {
            Some(limit) if waiting.elapsed() >= limit => Some(ReadStop::IdleTimeout),
            _ => None,
        }
    }
}

/// Empties a nonblocking wake socket.
fn drain(wake: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*wake).read(&mut buf), Ok(n) if n > 0) {}
}

// ---------------------------------------------------------------------------
// Signal plumbing: SIGTERM/SIGINT flip a shutdown flag, SIGHUP a reload
// flag, and each then writes one byte to the process-wide signal wake
// socket, which every accept loop polls beside its listeners. Only the
// `tc` binary installs the handlers; library users and tests drive
// shutdown and reload via Handle / the SHUTDOWN verb.
// ---------------------------------------------------------------------------

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);
static SIGNAL_RELOAD: AtomicBool = AtomicBool::new(false);

/// The signal wake socket: `(read end, write end)`, both nonblocking.
static SIGNAL_WAKE: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();

/// The write end's raw fd, for the handlers (`-1` until installed).
static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

fn signal_received() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Consumes a pending SIGHUP, if one arrived since the last check.
fn take_reload_signal() -> bool {
    SIGNAL_RELOAD.swap(false, Ordering::SeqCst)
}

/// Routes SIGTERM and SIGINT into a graceful shutdown — and SIGHUP into
/// a hot-reload — of every [`FrontEnd::run`] loop in the process. Call
/// once, before `run`; fails only if the wake socket cannot be created.
///
/// Uses the C `signal(2)` entry point directly — the workspace vendors
/// its dependencies and has no `libc` crate, but every supported target
/// already links the C runtime through `std`.
pub fn install_signal_handlers() -> std::io::Result<()> {
    extern "C" fn on_shutdown(_signum: i32) {
        // Only async-signal-safe work here: one atomic store, one write.
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
        sys::wake(SIGNAL_WAKE_FD.load(Ordering::SeqCst));
    }
    extern "C" fn on_reload(_signum: i32) {
        SIGNAL_RELOAD.store(true, Ordering::SeqCst);
        sys::wake(SIGNAL_WAKE_FD.load(Ordering::SeqCst));
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    if SIGNAL_WAKE.get().is_none() {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        // A racing installer may win; its pair serves both.
        let _ = SIGNAL_WAKE.set((rx, tx));
    }
    if let Some((_, tx)) = SIGNAL_WAKE.get() {
        SIGNAL_WAKE_FD.store(tx.as_raw_fd(), Ordering::SeqCst);
    }
    // SAFETY: `signal(2)` is async-signal-safe to install from any thread;
    // the handlers passed are `extern "C" fn(i32)` with the exact ABI the
    // C runtime invokes them under, and each performs only an atomic
    // store and a `write(2)` (both async-signal-safe). The returned
    // previous handler is deliberately discarded — the daemon owns these
    // three signals.
    unsafe {
        signal(SIGTERM, on_shutdown);
        signal(SIGINT, on_shutdown);
        signal(SIGHUP, on_reload);
    }
    Ok(())
}

/// The two C calls the accept loop and the signal handlers make, declared
/// the way `signal` is: no `libc` crate.
mod sys {
    use std::os::unix::io::RawFd;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
        fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    }

    impl PollFd {
        /// Waits for `fd` to become readable.
        pub(super) fn readable(fd: RawFd) -> PollFd {
            PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            }
        }

        /// Whether the last [`wait_readable`] reported this fd (readable, or an
        /// error a read will surface).
        pub(super) fn woke(&self) -> bool {
            self.revents != 0
        }
    }

    /// Blocks until at least one of `fds` is ready; a signal cuts the
    /// wait short with `Ok`.
    pub(super) fn wait_readable(fds: &mut [PollFd]) -> std::io::Result<()> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` `struct pollfd`s and `nfds` is its length, so the
        // kernel reads and writes only memory we own for the duration of
        // the call; a negative timeout blocks without one.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, -1) };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Writes one byte to `fd` if it is set (`>= 0`); callable from a
    /// signal handler.
    pub(super) fn wake(fd: RawFd) {
        if fd >= 0 {
            // SAFETY: `write(2)` is async-signal-safe; the buffer is a
            // one-byte literal that outlives the call. `fd` is the signal
            // wake socket's write end, which lives in a static for the
            // life of the process and is nonblocking, so a full socket
            // (which already holds a wake-up) fails fast instead of
            // blocking the handler. A successful write leaves `errno`
            // alone; a failed one can only be `EAGAIN` on a full socket.
            unsafe { write(fd, [1u8].as_ptr(), 1) };
        }
    }
}
