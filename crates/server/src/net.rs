//! The transport layer: TCP and Unix-socket listeners over any
//! [`RequestHandler`] — a single [`Engine`] or a router over many shards.
//!
//! Accept loops run non-blocking and poll a shutdown flag between accept
//! attempts; connection handlers run blocking with a short read timeout
//! that doubles as their shutdown poll tick.  Frame reads are
//! *interruptible but not lossy*: a timeout mid-frame keeps the partial
//! bytes and resumes, so a slow client never desyncs the stream — the
//! handler only gives up between frames (or when the deadline for one
//! frame's remainder passes `REQUEST_DEADLINE`).
//!
//! A frame that *arrives* but does not parse — oversized length prefix,
//! truncated payload, flipped bits — gets the typed `BadFrame` response
//! and then the connection is **closed**: once a length-prefixed stream
//! has produced garbage there is no trustworthy way to find the next
//! frame boundary, so the server never tries to re-sync past corruption.
//! Other connections (and the server itself) are unaffected.
//!
//! **Graceful drain**: [`ServerHandle::shutdown`] (or a client's
//! `shutdown` request) flips the flag; accept loops stop admitting,
//! handlers finish their in-flight request and close after answering, the
//! engine's committer flushes every queued batch, and
//! [`ServerHandle::join`] returns once all of that has happened.  Nothing
//! in flight is dropped: every accepted request gets its response before
//! its connection closes.

use crate::engine::Engine;
use crate::metrics::{micros_since, ServerMetrics};
use crate::proto::{self, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll tick for accept loops and idle connection reads.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Once a frame has *started* arriving, its remainder must land within
/// this deadline or the connection is dropped (a stalled or malicious
/// client cannot pin a handler thread forever).
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// How far ahead of the received bytes a payload buffer may grow.
const PAYLOAD_STEP: usize = 64 << 10;

/// What the transport needs from the thing it fronts — the seam that
/// lets the same listeners, framing, drain and metrics accounting serve
/// a single [`Engine`] or a router over many shards.  An engine supplies
/// [`RequestHandler::dispatch`]; the endpoint accounting around it is
/// written once, here.
pub trait RequestHandler: Send + Sync + 'static {
    /// Executes one decoded request.
    fn dispatch(&self, req: &Request) -> Response;

    /// Serves one decoded request, recording its endpoint metrics: the
    /// request count, the handler latency, and whether it failed.
    fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        let endpoint = self.metrics().endpoint(req.opcode());
        if let Some(ep) = endpoint {
            ep.requests.fetch_add(1, Ordering::Relaxed);
        }
        let resp = self.dispatch(req);
        if let Some(ep) = endpoint {
            ep.latency_us.record(micros_since(start));
            if matches!(resp, Response::Err(_) | Response::ShardUnavailable(..)) {
                ep.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        resp
    }

    /// True once a drain has begun: accept loops stop admitting and
    /// handlers close after their in-flight response.
    fn is_draining(&self) -> bool;

    /// Starts a graceful drain (idempotent).
    fn begin_drain(&self);

    /// Blocks until background work (committers, appliers) has exited.
    /// Idempotent; called once by [`ServerHandle::join`].
    fn join(&self);

    /// The metrics sink: per-endpoint counters plus the transport's own
    /// (connections, frame errors).
    fn metrics(&self) -> &Arc<ServerMetrics>;
}

impl RequestHandler for Engine {
    fn dispatch(&self, req: &Request) -> Response {
        Engine::dispatch(self, req)
    }

    fn is_draining(&self) -> bool {
        Engine::is_draining(self)
    }

    fn begin_drain(&self) {
        Engine::begin_drain(self)
    }

    fn join(&self) {
        Engine::join(self)
    }

    fn metrics(&self) -> &Arc<ServerMetrics> {
        Engine::metrics(self)
    }
}

/// Where a server listens.
#[derive(Debug, Clone, Default)]
pub struct Bind {
    /// TCP address (`host:port`; port 0 picks a free port).
    pub tcp: Option<String>,
    /// Unix socket path (removed and re-created on bind).
    pub unix: Option<PathBuf>,
}

/// A running server: its listeners, handler threads, and shutdown flag.
///
/// Generic over the [`RequestHandler`] it fronts; defaults to the
/// single-deployment [`Engine`], so existing call sites read unchanged.
pub struct ServerHandle<H: RequestHandler = Engine> {
    engine: Arc<H>,
    shutdown: Arc<AtomicBool>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    accepters: Vec<JoinHandle<()>>,
}

impl<H: RequestHandler> ServerHandle<H> {
    /// The bound TCP address, when a TCP listener was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path, when one was requested.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The engine (request handler) this server fronts.
    pub fn engine(&self) -> &Arc<H> {
        &self.engine
    }

    /// Signals shutdown: stop accepting, drain ingest, finish in-flight
    /// requests.  Returns immediately; pair with [`ServerHandle::join`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.engine.begin_drain();
    }

    /// Blocks until every accept loop, handler, and the committer have
    /// exited.  Implies [`ServerHandle::shutdown`].
    pub fn join(mut self) {
        self.shutdown();
        for h in self.accepters.drain(..) {
            h.join().ok();
        }
        self.engine.join();
        if let Some(path) = &self.unix_path {
            std::fs::remove_file(path).ok();
        }
    }

    /// True once shutdown has been signalled (by this handle or by a
    /// client's `shutdown` request).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || self.engine.is_draining()
    }

    /// Runs until shutdown is signalled, polling at the accept tick.
    /// Convenience for `bbs serve`, which has nothing else to do on its
    /// main thread.
    pub fn wait(self) {
        while !self.is_shutting_down() {
            std::thread::sleep(POLL_TICK);
        }
        self.join();
    }

    /// [`ServerHandle::wait`] that also returns when `stop` flips — the
    /// hook `bbs serve` uses to turn SIGTERM/SIGINT into a graceful
    /// drain (queued batches commit, files sync, then exit).
    pub fn wait_with_stop(self, stop: &AtomicBool) {
        while !self.is_shutting_down() && !stop.load(Ordering::Acquire) {
            std::thread::sleep(POLL_TICK);
        }
        self.join();
    }
}

/// Binds the requested listeners and starts serving `engine`.
///
/// At least one of `bind.tcp` / `bind.unix` must be set.
pub fn serve<H: RequestHandler>(engine: Arc<H>, bind: &Bind) -> io::Result<ServerHandle<H>> {
    if bind.tcp.is_none() && bind.unix.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no listener requested: set a TCP address or a Unix socket path",
        ));
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut accepters = Vec::new();
    let mut tcp_addr = None;

    if let Some(addr) = &bind.tcp {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        tcp_addr = Some(listener.local_addr()?);
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        accepters.push(
            std::thread::Builder::new()
                .name("bbs-accept-tcp".into())
                .spawn(move || {
                    accept_loop(&shutdown, &engine, || match listener.accept() {
                        Ok((s, _)) => {
                            // Replies are small frames; without NODELAY the
                            // Nagle/delayed-ACK interaction adds ~40 ms to
                            // every request round-trip.
                            s.set_nodelay(true).ok();
                            Some(Ok(Conn::Tcp(s)))
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                        Err(e) => Some(Err(e)),
                    })
                })?,
        );
    }

    let mut unix_path = None;
    if let Some(path) = &bind.unix {
        // A stale socket file from a previous run refuses to bind.
        std::fs::remove_file(path).ok();
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        unix_path = Some(path.clone());
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        accepters.push(
            std::thread::Builder::new()
                .name("bbs-accept-unix".into())
                .spawn(move || {
                    accept_loop(&shutdown, &engine, || match listener.accept() {
                        Ok((s, _)) => Some(Ok(Conn::Unix(s))),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                        Err(e) => Some(Err(e)),
                    })
                })?,
        );
    }

    Ok(ServerHandle {
        engine,
        shutdown,
        tcp_addr,
        unix_path,
        accepters,
    })
}

/// A connected client stream, TCP or Unix.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Generic accept loop: polls `try_accept` until shutdown, spawning one
/// handler thread per connection and joining them all before returning.
fn accept_loop<H: RequestHandler>(
    shutdown: &Arc<AtomicBool>,
    engine: &Arc<H>,
    try_accept: impl Fn() -> Option<io::Result<Conn>>,
) {
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    while !shutdown.load(Ordering::Acquire) && !engine.is_draining() {
        match try_accept() {
            None => std::thread::sleep(POLL_TICK),
            Some(Err(_)) => std::thread::sleep(POLL_TICK),
            Some(Ok(conn)) => {
                engine
                    .metrics()
                    .connections
                    .fetch_add(1, Ordering::Relaxed);
                let engine = Arc::clone(engine);
                let shutdown = Arc::clone(shutdown);
                if let Ok(h) = std::thread::Builder::new()
                    .name("bbs-conn".into())
                    .spawn(move || handle_connection(conn, &engine, &shutdown))
                {
                    let mut hs = handlers.lock().unwrap_or_else(|e| e.into_inner());
                    // Reap finished handlers opportunistically so a
                    // long-lived server doesn't accumulate join handles.
                    hs.retain(|h| !h.is_finished());
                    hs.push(h);
                }
            }
        }
    }
    let hs: Vec<_> = handlers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect();
    for h in hs {
        h.join().ok();
    }
}

/// Reads exactly `buf.len()` bytes, tolerating read-timeout ticks.
///
/// `started` is when the frame these bytes belong to began arriving:
/// `None` between frames, where a clean EOF before the first byte returns
/// `Ok(false)` and `give_up` is consulted at every idle tick.  Once a
/// frame has started — from its first byte, or from the caller's
/// `started` — its remainder must land within [`REQUEST_DEADLINE`]; EOF
/// or a blown deadline mid-frame is an error, and `give_up` is no longer
/// asked, so a shutdown never truncates a request mid-parse.
fn read_full(
    conn: &mut impl Read,
    buf: &mut [u8],
    give_up: &dyn Fn() -> bool,
    mut started: Option<Instant>,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) if started.is_none() => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                filled += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                match started {
                    None if give_up() => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ))
                    }
                    Some(t0) if t0.elapsed() > REQUEST_DEADLINE => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "request frame did not arrive within the deadline",
                        ))
                    }
                    _ => {}
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads an `n`-byte payload whose frame began arriving at `started`,
/// growing the buffer at most [`PAYLOAD_STEP`] ahead of the bytes that
/// have actually arrived: a length prefix is a claim, and a peer that
/// makes a large one and then stalls holds one step of memory — not the
/// [`proto::MAX_FRAME`] it announced — until the deadline closes it.
fn read_payload(
    conn: &mut impl Read,
    n: usize,
    give_up: &dyn Fn() -> bool,
    started: Instant,
) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    while payload.len() < n {
        let have = payload.len();
        payload.resize(n.min(have + PAYLOAD_STEP), 0);
        read_full(conn, &mut payload[have..], give_up, Some(started))?;
    }
    Ok(payload)
}

/// Serves one connection until EOF, error, or shutdown.
fn handle_connection<H: RequestHandler>(
    mut conn: Conn,
    engine: &Arc<H>,
    shutdown: &Arc<AtomicBool>,
) {
    if conn.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let give_up = || shutdown.load(Ordering::Acquire) || engine.is_draining();
    loop {
        // Frame header (interruptible while idle).
        let mut len = [0u8; 4];
        match read_full(&mut conn, &mut len, &give_up, None) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let n = u32::from_le_bytes(len) as usize;
        if n > proto::MAX_FRAME {
            // An oversized header usually means the stream is desynced or
            // the bytes were corrupted in transit.  Answer with the typed
            // rejection and close: there is no way to re-synchronise a
            // length-prefixed stream whose lengths can't be trusted.
            engine
                .metrics()
                .frame_errors
                .fetch_add(1, Ordering::Relaxed);
            let resp = Response::BadFrame(format!("frame too large: {n} bytes"));
            proto::write_frame(&mut conn, &resp.encode()).ok();
            return;
        }
        let Ok(payload) = read_payload(&mut conn, n, &give_up, Instant::now()) else {
            return;
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Same reasoning as above: a payload that doesn't parse
                // means framing can no longer be trusted — reply typed,
                // then close rather than guess at the next boundary.
                engine
                    .metrics()
                    .frame_errors
                    .fetch_add(1, Ordering::Relaxed);
                let resp = Response::BadFrame(format!("bad request: {e}"));
                proto::write_frame(&mut conn, &resp.encode()).ok();
                return;
            }
        };
        let was_shutdown = matches!(req, Request::Shutdown);
        let resp = engine.handle(&req);
        if was_shutdown {
            shutdown.store(true, Ordering::Release);
        }
        if proto::write_frame(&mut conn, &resp.encode()).is_err() {
            return;
        }
        if give_up() {
            // Drain semantics: the in-flight request was answered; no new
            // requests are read on this connection.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that has gone quiet: every read times out.
    struct Stalled;

    impl Read for Stalled {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    /// A frame that started arriving longer ago than the deadline allows
    /// is abandoned at the next tick — whatever its prefix announced — and
    /// between frames the same silence is only a reason to ask `give_up`.
    #[test]
    fn a_stalled_payload_is_closed_at_the_deadline() {
        let Some(long_ago) = Instant::now().checked_sub(REQUEST_DEADLINE + POLL_TICK) else {
            return; // the clock has not been running that long
        };
        let err = read_payload(&mut Stalled, proto::MAX_FRAME, &|| false, long_ago).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let err = read_full(&mut Stalled, &mut [0u8; 4], &|| true, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
    }
}
