//! The serving loop: a blocking acceptor thread plus a fixed pool of
//! worker threads draining a shared connection queue.
//!
//! Shape and trade-offs:
//!
//! - **No async runtime.** The vendored build has no executor, and the
//!   request path is a handful of atomic operations — the interesting
//!   contention is *inside* the counters, not in the I/O layer. Blocking
//!   threads keep the transport boring so the backends stay the subject
//!   of measurement.
//! - **A worker owns one connection at a time** and serves keep-alive
//!   requests off it until the peer closes (or shutdown). Concurrency
//!   for persistent connections therefore equals the pool size; extra
//!   connections wait in the accept queue until a worker frees up. The
//!   load generator multiplexes its thousands of simulated clients over
//!   a matching number of sockets, which is also how the paper-side
//!   experiments map millions of tokens onto `p` threads.
//! - **Shutdown is cooperative.** Sockets carry a short read timeout;
//!   between requests a worker observes the timeout as "idle", rechecks
//!   the shutdown flag, and keeps waiting or exits. The acceptor is
//!   woken by a loopback connection. `shutdown()` joins every thread, so
//!   a returned `shutdown()` means no worker is left running.
//! - **A panicking request costs its connection, not its worker.** Each
//!   request is routed under `catch_unwind`; a panic is answered with a
//!   500, the connection is closed, `ServerStats::panics` counts it, and
//!   the worker takes the next connection.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::http::{read_request, write_response, ReadOutcome, Response};
use crate::router::route;
use crate::state::{AppState, ServerConfig, ServerStats};

/// Read timeout on accepted sockets; also the shutdown-poll cadence for
/// idle keep-alive connections.
const IDLE_POLL: Duration = Duration::from_millis(50);

struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
}

impl ConnQueue {
    fn push(&self, stream: TcpStream) {
        self.queue.lock().push_back(stream);
        self.available.notify_one();
    }

    /// Blocks until a connection is available or shutdown is flagged.
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(stream) = queue.pop_front() {
                return Some(stream);
            }
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            // Bounded wait so a missed notify can never strand a worker.
            let _ = self.available.wait_for(&mut queue, IDLE_POLL);
        }
    }
}

/// A running server: call [`CountingServer::start`] to bind and serve,
/// [`CountingServer::shutdown`] to stop and join every thread.
pub struct CountingServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CountingServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl CountingServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and `config.workers` workers.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(AppState::new(&config));
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue =
            Arc::new(ConnQueue { queue: Mutex::new(VecDeque::new()), available: Condvar::new() });

        let workers = (0..config.workers.max(1))
            .map(|worker_id| {
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("counting-server-worker-{worker_id}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop(&shutdown) {
                            serve_connection(&state, worker_id, stream, &shutdown);
                        }
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new().name("counting-server-acceptor".to_owned()).spawn(
                move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        if stream.set_read_timeout(Some(IDLE_POLL)).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        state.stats.connections.fetch_add(1, Ordering::Relaxed);
                        queue.push(stream);
                    }
                },
            )?
        };

        Ok(Self { addr, state, shutdown, acceptor: Some(acceptor), workers })
    }

    /// The bound address (the actual port when started with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state behind the endpoints; in-process harnesses read
    /// watermarks and stats through this.
    #[must_use]
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Served-request counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.state.stats
    }

    /// Stops accepting, drains the pool, and joins every thread. After
    /// this returns no server thread is left running.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept. The connection
        // is queued and immediately dropped by whichever worker takes it
        // (shutdown is already flagged); failure just means the listener
        // is already gone.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CountingServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Serves keep-alive requests off one connection until the peer closes,
/// the protocol breaks, or shutdown is flagged.
fn serve_connection(state: &AppState, worker_id: usize, stream: TcpStream, shutdown: &AtomicBool) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match read_request(&mut reader) {
            Ok(ReadOutcome::Request(request)) => {
                // Nothing of this request is written yet, so a panic can
                // still be answered.
                let routed = catch_unwind(AssertUnwindSafe(|| route(state, worker_id, &request)));
                let Ok(response) = routed else {
                    state.stats.panics.fetch_add(1, Ordering::Relaxed);
                    let _ =
                        write_response(&mut writer, &Response::error(500, "internal error"), false);
                    return;
                };
                let keep_alive = request.keep_alive && !shutdown.load(Ordering::Acquire);
                if write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            // Idle: the read timed out between requests — loop to poll
            // the shutdown flag, keep the connection.
            Ok(ReadOutcome::Idle) => {}
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Malformed(message)) => {
                let _ = write_response(&mut writer, &Response::error(400, &message), false);
                state.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConnection;

    #[test]
    fn starts_on_ephemeral_port_and_shuts_down_cleanly() {
        let server = CountingServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "ephemeral port should be resolved");
        server.shutdown();
        // The listener is gone: a fresh bind to the same port succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port should be released after shutdown: {rebound:?}");
    }

    #[test]
    fn shutdown_returns_even_with_an_idle_keep_alive_connection() {
        let server = CountingServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        // Open a connection and send nothing: a worker parks on it with
        // the idle-poll timeout.
        let idle = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        drop(idle);
    }

    #[test]
    fn a_panicking_request_gets_a_500_and_its_worker_serves_the_next_connection() {
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = CountingServer::start("127.0.0.1:0", config).unwrap();
        // `/panic/{tenant}` exists in test builds only.
        let mut first = ClientConnection::new(server.local_addr());
        assert_eq!(first.get("/panic/q").unwrap().status, 500);
        let mut second = ClientConnection::new(server.local_addr());
        assert_eq!(second.get("/ticket/q").unwrap().status, 200);
        assert_eq!(server.stats().panics.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().client_errors.load(Ordering::Relaxed), 0);
        server.shutdown();
    }
}
