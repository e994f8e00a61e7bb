//! The serving loop: a std-only TCP acceptor + fixed worker pool over the
//! vendored HTTP/1.1 framing, routing requests into the registry and the
//! batcher.
//!
//! Routes:
//!
//! | Route                   | Effect                                          |
//! |-------------------------|-------------------------------------------------|
//! | `GET /health`           | liveness: `ok`                                  |
//! | `GET /models`           | one `name generation fit_rows` line per model   |
//! | `GET /metrics`          | `frote-obs` snapshot as JSON                    |
//! | `POST /score/<model>`   | rows in the body → `generation:<g>` + one class |
//! |                         | name per row, micro-batched                     |
//! | `POST /publish/<model>` | optional feedback rule in the body → FROTE edit |
//! |                         | + retrain + atomic snapshot swap                |
//! | `POST /admin/shutdown`  | graceful stop (std has no signal handling)      |
//!
//! # Fault hardening
//!
//! The thread-per-connection model of PR 9 is gone: a hostile or unlucky
//! burst of connections no longer spawns an unbounded number of threads.
//! Instead one acceptor admits connections into a **bounded backlog**
//! ([`ServeConfig::conn_backlog`]); past the bound the connection is
//! answered with a structured `503` + `Retry-After` and closed — shed at
//! the door, never queued unboundedly. A **fixed worker pool**
//! ([`ServeConfig::workers`]) multiplexes the admitted connections
//! cooperatively: each worker pops a connection, serves up to a small
//! slice of requests, and requeues it, so one slow-loris peer cannot
//! monopolize a worker — per-connection **read/write deadlines**
//! ([`ServeConfig::read_timeout`] / [`ServeConfig::write_timeout`]) turn a
//! stalled peer into a structured `408` instead of a stuck thread.
//!
//! Every connection slice runs unwind-guarded, so an injected failpoint
//! panic (or a latent routing bug) costs one connection, never a worker —
//! and never the server. Failpoint sites on this path: `serve.accept`,
//! `serve.conn.read`, `serve.conn.parse`, `serve.conn.write` (see the
//! `frote-faults` crate for the `FROTE_FAULTS` spec grammar).
//!
//! Score requests are validated at the boundary *before* they reach the
//! batcher: parse errors and guard rejections come back as structured
//! `400`s and never touch a scoring worker. Shutdown drains: the acceptor
//! stops admitting, workers finish the requests already in flight on their
//! connections, and the batcher answers everything it queued.

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use frote_obs::{Counter, Histogram};

use crate::batch::{Batcher, DEFAULT_MAX_BATCH_ROWS, DEFAULT_MAX_QUEUE_DEPTH};
use crate::boundary::parse_rows;
use crate::http::{read_request, write_response_ext, Request};
use crate::registry::ModelRegistry;
use crate::ServeError;

/// Connections accepted — arrival patterns vary run to run.
static CONNECTIONS: Counter = Counter::thread_variant("serve.connections");
/// Connections refused at the door: the backlog was full (or an injected
/// accept fault fired). Each got a structured `503` + `Retry-After`.
static SHED_CONNECTIONS: Counter = Counter::thread_variant("serve.shed_connections");
/// Requests that hit a read/write deadline and were answered `408`.
static TIMEOUTS: Counter = Counter::thread_variant("serve.timeouts");
/// Requests rejected with a structured 4xx before any scoring.
static BAD_REQUESTS: Counter = Counter::new("serve.bad_requests");
/// Score requests whose rows failed the boundary guard sweep.
static VALIDATION_REJECTS: Counter = Counter::new("serve.validation_rejects");
/// Wall-clock of one request: route + validate + (batched) score + write.
static REQUEST_SPAN: Histogram = Histogram::new("serve.request_ns");

/// Poll interval for idle connections (bounds both worker hand-off latency
/// and the shutdown drain).
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Requests a worker serves on one connection before requeueing it —
/// cooperative fairness so a busy keep-alive peer cannot starve the rest
/// of the backlog.
const REQUESTS_PER_SLICE: usize = 32;

/// `Retry-After` seconds sent with every load-shedding `503`.
const RETRY_AFTER_SECS: u64 = 1;

/// Default worker-pool size.
pub const DEFAULT_WORKERS: usize = 4;

/// Default bound on admitted-but-unserved connections.
pub const DEFAULT_CONN_BACKLOG: usize = 64;

/// Default per-connection read/write deadline.
pub const DEFAULT_CONN_TIMEOUT: Duration = Duration::from_secs(5);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Row budget per micro-batch.
    pub max_batch_rows: usize,
    /// Fixed worker-pool size (clamped to at least 1).
    pub workers: usize,
    /// Bound on admitted connections waiting for a worker; past it new
    /// connections are shed with `503` + `Retry-After`.
    pub conn_backlog: usize,
    /// Bound on the batcher queue; past it score requests are shed with
    /// `503` + `Retry-After`.
    pub max_queue_depth: usize,
    /// Per-read deadline while a request is in flight (slow-client
    /// protection → structured `408`).
    pub read_timeout: Duration,
    /// Per-write deadline for responses.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch_rows: DEFAULT_MAX_BATCH_ROWS,
            workers: DEFAULT_WORKERS,
            conn_backlog: DEFAULT_CONN_BACKLOG,
            max_queue_depth: DEFAULT_MAX_QUEUE_DEPTH,
            read_timeout: DEFAULT_CONN_TIMEOUT,
            write_timeout: DEFAULT_CONN_TIMEOUT,
        }
    }
}

/// One admitted connection: the buffered read half travels with the write
/// half so partially buffered requests survive a requeue.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn set_read_timeout(&self, timeout: Duration) {
        let _ = self.reader.get_ref().set_read_timeout(Some(timeout));
    }
}

/// What a worker should do with a connection after one slice.
enum Slice {
    /// Put it back in the queue: still healthy, may have more requests.
    Requeue,
    /// Drop it: peer closed, framing corrupted, deadline hit, or shutdown.
    Close,
}

/// The serving plane: listener + registry + batcher + worker pool.
pub struct Server {
    registry: Arc<ModelRegistry>,
    batcher: Arc<Batcher>,
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    config: ServeConfig,
    conns: Mutex<VecDeque<Conn>>,
    conn_available: Condvar,
}

impl Server {
    /// Binds the listener and starts the batcher. `run` must be called to
    /// begin accepting.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the bind fails.
    pub fn bind(config: &ServeConfig, registry: Arc<ModelRegistry>) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            registry,
            batcher: Arc::new(Batcher::start(config.max_batch_rows, config.max_queue_depth)),
            listener,
            local_addr,
            shutdown: AtomicBool::new(false),
            config: config.clone(),
            conns: Mutex::new(VecDeque::new()),
            conn_available: Condvar::new(),
        })
    }

    /// The bound address (with the OS-assigned port when asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry behind this server.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Requests a graceful stop: flips the flag, self-connects to unblock
    /// the accept loop, and wakes the worker pool to drain. Callable from
    /// any thread.
    pub fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop; the no-op connection drains as idle.
        let _ = TcpStream::connect(self.local_addr);
        self.conn_available.notify_all();
    }

    /// Runs the acceptor + worker pool until [`Server::trigger_shutdown`],
    /// then drains: workers answer every request already in flight on an
    /// admitted connection, and the batcher shutdown answers everything it
    /// queued, before this returns.
    pub fn run(self: &Arc<Self>) {
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|i| {
                let server = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("frote-serve-worker-{i}"))
                    .spawn(move || server.worker_loop())
                    .expect("spawn serve worker")
            })
            .collect();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Unwind-guarded so an injected `serve.accept` panic sheds one
            // connection instead of killing the acceptor.
            let _ = catch_unwind(AssertUnwindSafe(|| self.admit(stream)));
        }
        self.shutdown.store(true, Ordering::Release);
        self.conn_available.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        self.batcher.shutdown();
    }

    /// Admission control: queue the connection for the worker pool, or
    /// shed it with a structured `503` + `Retry-After` when the backlog
    /// (or an injected `serve.accept` fault) says no.
    fn admit(&self, mut stream: TcpStream) {
        CONNECTIONS.inc();
        // Without this, Nagle on our side interacts with the peer's
        // delayed ACKs to put a ~40ms floor under every response.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        let refused = frote_faults::point("serve.accept").is_err();
        let reader = match stream.try_clone() {
            Ok(read_half) => BufReader::new(read_half),
            Err(_) => return,
        };
        if !refused {
            let mut conns = lock(&self.conns);
            if conns.len() < self.config.conn_backlog.max(1) {
                conns.push_back(Conn { reader, writer: stream });
                drop(conns);
                self.conn_available.notify_one();
                return;
            }
        }
        SHED_CONNECTIONS.inc();
        let body = format!("{}\n", ServeError::Overloaded);
        let _ = write_response_ext(&mut stream, 503, &body, false, Some(RETRY_AFTER_SECS));
        // Closing with unread request bytes makes the kernel answer with a
        // RST, which can destroy the 503 before the peer reads it. Drain
        // what has already arrived, without ever blocking the acceptor.
        let _ = stream.shutdown(Shutdown::Write);
        if stream.set_nonblocking(true).is_ok() {
            let mut sink = [0u8; 1024];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    /// One pool worker: pop a connection, serve a slice, requeue or close.
    /// Runs until shutdown *and* an empty queue — so connections admitted
    /// before shutdown still get their in-flight requests answered.
    fn worker_loop(&self) {
        loop {
            let conn = {
                let mut conns = lock(&self.conns);
                loop {
                    if let Some(conn) = conns.pop_front() {
                        break conn;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    conns = self.conn_available.wait(conns).unwrap_or_else(|e| e.into_inner());
                }
            };
            let mut conn = conn;
            // Unwind-guarded: an injected panic (or a latent bug) on this
            // connection's requests costs the connection, not the worker.
            let disposition = catch_unwind(AssertUnwindSafe(|| self.serve_slice(&mut conn)));
            match disposition {
                Ok(Slice::Requeue) => {
                    lock(&self.conns).push_back(conn);
                    self.conn_available.notify_one();
                }
                Ok(Slice::Close) | Err(_) => {}
            }
        }
    }

    /// Serves up to [`REQUESTS_PER_SLICE`] requests on one connection.
    fn serve_slice(&self, conn: &mut Conn) -> Slice {
        for _ in 0..REQUESTS_PER_SLICE {
            // The drain boundary: a request already past this check is
            // answered in full (and anything it queued is drained by the
            // batcher shutdown), but no *new* request is started — a peer
            // that keeps pipelining cannot hold the shutdown hostage.
            if self.shutdown.load(Ordering::Acquire) {
                return Slice::Close;
            }
            // Idle wait via peek: nothing is consumed, so a poll timeout
            // cannot corrupt the framing of a request that arrives later.
            if conn.reader.buffer().is_empty() {
                conn.set_read_timeout(IDLE_POLL);
                match conn.reader.get_ref().peek(&mut [0u8; 1]) {
                    Ok(0) => return Slice::Close,
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Slice::Requeue;
                    }
                    Err(_) => return Slice::Close,
                }
            }
            // A request is in flight: switch from the idle poll to the
            // real deadline so a stalled peer becomes a structured 408.
            conn.set_read_timeout(self.config.read_timeout);
            let _span = REQUEST_SPAN.span();
            if frote_faults::point("serve.conn.read").is_err() {
                return Slice::Close;
            }
            let request = match read_request(&mut conn.reader) {
                Ok(Some(request)) => request,
                Ok(None) => return Slice::Close,
                Err(err) => {
                    // Framing is corrupt (or the deadline expired): answer
                    // with the structured status, then close.
                    let (status, retry_after) = error_status(&err);
                    let body = format!("{err}\n");
                    let _ = write_response_ext(&mut conn.writer, status, &body, false, retry_after);
                    return Slice::Close;
                }
            };
            let keep_alive = request.keep_alive;
            let (status, body, retry_after) = match frote_faults::point("serve.conn.parse") {
                Ok(()) => self.route(&request),
                Err(fault) => error_response(&ServeError::from(fault)),
            };
            if frote_faults::point("serve.conn.write").is_err() {
                return Slice::Close;
            }
            let written =
                write_response_ext(&mut conn.writer, status, &body, keep_alive, retry_after);
            if written.is_err() || !keep_alive {
                return Slice::Close;
            }
        }
        // Slice budget exhausted: requeue so other connections get a turn.
        Slice::Requeue
    }

    /// Routes one request to `(status, body, retry_after)`.
    fn route(&self, request: &Request) -> (u16, String, Option<u64>) {
        let outcome = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/health") => Ok("ok\n".to_string()),
            ("GET", "/models") => Ok(self
                .registry
                .list()
                .into_iter()
                .map(|(name, generation, fit_rows)| format!("{name} {generation} {fit_rows}\n"))
                .collect()),
            ("GET", "/metrics") => Ok(frote_obs::snapshot_json()),
            ("POST", "/admin/shutdown") => {
                self.trigger_shutdown();
                Ok("shutting down\n".to_string())
            }
            ("POST", path) if path.starts_with("/score/") => {
                self.score(&path["/score/".len()..], &request.body)
            }
            ("POST", path) if path.starts_with("/publish/") => {
                self.publish(&path["/publish/".len()..], &request.body)
            }
            (_, path) => Err(ServeError::BadRequest {
                detail: format!("no route for {} {path}", request.method),
            }),
        };
        match outcome {
            Ok(body) => (200, body, None),
            Err(err) => error_response(&err),
        }
    }

    fn score(&self, model: &str, body: &str) -> Result<String, ServeError> {
        let entry = self.registry.get(model)?;
        // One snapshot resolve for validation; the batcher resolves its
        // own (possibly newer) snapshot and reports which generation the
        // response came from.
        let (rows, schema) = {
            let snapshot = entry.current();
            let rows = parse_rows(snapshot.schema(), body)?;
            snapshot.guard().check(&rows)?;
            (rows, Arc::clone(snapshot.schema()))
        };
        let response = self.batcher.submit(entry, rows)?;
        let mut out = format!("generation:{}\n", response.generation);
        for &class in &response.predictions {
            out.push_str(schema.class_name(class));
            out.push('\n');
        }
        Ok(out)
    }

    fn publish(&self, model: &str, body: &str) -> Result<String, ServeError> {
        let entry = self.registry.get(model)?;
        let rule = body.trim();
        let rule = if rule.is_empty() { None } else { Some(rule) };
        let generation = entry.republish(rule)?;
        Ok(format!("generation:{generation}\n"))
    }
}

/// Maps an error to `(status, retry_after)` and bumps the right counters.
fn error_status(err: &ServeError) -> (u16, Option<u64>) {
    let status = match err {
        ServeError::UnknownModel { .. } => 404,
        ServeError::Unavailable | ServeError::Io { .. } => 503,
        ServeError::Overloaded => 503,
        ServeError::Timeout => {
            TIMEOUTS.inc();
            408
        }
        ServeError::HeadersTooLarge => 431,
        ServeError::Fault { .. } => 500,
        ServeError::RowsRejected { .. } => {
            VALIDATION_REJECTS.inc();
            400
        }
        _ => 400,
    };
    if status == 400 {
        BAD_REQUESTS.inc();
    }
    let retry_after = matches!(err, ServeError::Overloaded).then_some(RETRY_AFTER_SECS);
    (status, retry_after)
}

/// [`error_status`] plus the rendered single-line body.
fn error_response(err: &ServeError) -> (u16, String, Option<u64>) {
    let (status, retry_after) = error_status(err);
    (status, format!("{err}\n"), retry_after)
}
