//! End-to-end serving test: a real server on an ephemeral port, hammered
//! by concurrent client threads over keep-alive sockets, with the
//! paper's guarantees asserted on the values observed **in HTTP
//! responses** — uniqueness and exact range survive the transport, not
//! just the in-process counter.

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use counting_server::client::ClientConnection;
use counting_server::router::{AdmitBody, LeaseBody, RateBody, StatusBody, TicketBody};
use counting_server::server::CountingServer;
use counting_server::state::ServerConfig;

const CLIENT_THREADS: usize = 8;
const TICKETS_PER_THREAD: usize = 50;
const LEASES_PER_THREAD: usize = 25;

/// What one client thread observed: its tickets and its `(start, count)`
/// lease blocks.
type ClientObservations = (Vec<u64>, Vec<(u64, u64)>);

#[test]
fn concurrent_http_clients_see_unique_dense_values_and_a_clean_shutdown() {
    let config = ServerConfig { workers: CLIENT_THREADS, ..ServerConfig::default() };
    let server = CountingServer::start("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();

    // Phase 1: every thread interleaves ticket draws and lease
    // reservations over one keep-alive connection.
    let per_thread: Vec<ClientObservations> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENT_THREADS)
            .map(|tid| {
                scope.spawn(move || {
                    let mut conn = ClientConnection::new(addr);
                    let mut tickets = Vec::new();
                    let mut leases = Vec::new();
                    for i in 0..TICKETS_PER_THREAD.max(LEASES_PER_THREAD) {
                        if i < TICKETS_PER_THREAD {
                            let resp = conn.get("/ticket/queue").expect("ticket request");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            let body: TicketBody =
                                serde_json::from_str(&resp.body).expect("ticket body");
                            tickets.push(body.ticket);
                        }
                        if i < LEASES_PER_THREAD {
                            // Vary k so blocks have ragged sizes.
                            let k = 1 + ((tid + i) % 8) as u64;
                            let resp =
                                conn.get(&format!("/lease/ids?k={k}")).expect("lease request");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            let body: LeaseBody =
                                serde_json::from_str(&resp.body).expect("lease body");
                            assert_eq!(body.count, k, "the full block was granted");
                            leases.push((body.start, body.count));
                        }
                    }
                    (tickets, leases)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });

    // Uniqueness + exact range over the HTTP-observed tickets: dense
    // 0..total with no duplicate ever serialized into a response.
    let tickets: Vec<u64> = per_thread.iter().flat_map(|(t, _)| t.iter().copied()).collect();
    let expected_tickets = CLIENT_THREADS * TICKETS_PER_THREAD;
    assert_eq!(tickets.len(), expected_tickets);
    let mut sorted = tickets;
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..expected_tickets as u64).collect::<Vec<_>>(),
        "tickets observed over HTTP must be exactly 0..{expected_tickets}"
    );

    // Same for every id inside every lease block, across all threads.
    let mut lease_values = HashSet::new();
    let mut lease_total = 0u64;
    for (start, count) in per_thread.iter().flat_map(|(_, l)| l.iter()) {
        lease_total += count;
        for v in *start..start + count {
            assert!(lease_values.insert(v), "lease id {v} appeared in two blocks");
        }
    }
    assert_eq!(lease_values.len() as u64, lease_total);
    assert!(
        (0..lease_total).all(|v| lease_values.contains(&v)),
        "lease ids observed over HTTP must be exactly 0..{lease_total}"
    );

    // Phase 2: the waiting room drains in ticket order through /admit,
    // and /status agrees over the wire.
    let mut conn = ClientConnection::new(addr);
    let resp = conn.get("/status/queue").expect("status request");
    let status: StatusBody = serde_json::from_str(&resp.body).expect("status body");
    assert_eq!(status.dispensed, expected_tickets as u64);
    assert_eq!(status.waiting, expected_tickets as u64, "nothing admitted yet");

    let resp = conn.get(&format!("/admit/queue?n={}", expected_tickets * 2)).expect("admit");
    let admit: AdmitBody = serde_json::from_str(&resp.body).expect("admit body");
    assert_eq!(
        admit.now_serving, expected_tickets as u64,
        "over-release clamps to the tickets actually dispensed"
    );
    assert_eq!(admit.granted, expected_tickets as u64);

    let resp =
        conn.get(&format!("/status/queue?ticket={}", expected_tickets - 1)).expect("status poll");
    let status: StatusBody = serde_json::from_str(&resp.body).expect("status body");
    assert_eq!(status.admitted, Some(true), "the last ticket is admitted after the drain");
    assert_eq!(status.waiting, 0);

    // The server counted what we sent (the admission plane lost nothing).
    let stats = server.stats();
    assert_eq!(stats.ticket.load(Ordering::Relaxed), expected_tickets as u64);
    assert_eq!(stats.lease.load(Ordering::Relaxed), (CLIENT_THREADS * LEASES_PER_THREAD) as u64);
    assert_eq!(stats.client_errors.load(Ordering::Relaxed), 0);

    // Phase 3: clean shutdown — returns only after every worker joined,
    // and the port is actually released (no acceptor left behind).
    server.shutdown();
    assert!(
        std::net::TcpListener::bind(addr).is_ok(),
        "the port must be rebindable after shutdown"
    );
}

/// `GET target` on `conn`, which must answer 200 with a `T` body.
fn get_json<T: serde::Deserialize>(conn: &mut ClientConnection, target: &str) -> T {
    let resp = conn.get(target).unwrap_or_else(|e| panic!("GET {target}: {e}"));
    assert_eq!(resp.status, 200, "GET {target}: {}", resp.body);
    serde_json::from_str(&resp.body).unwrap_or_else(|e| panic!("GET {target}: {e}"))
}

/// Admission and rate probes racing over HTTP: eight clients draw
/// tickets and poll `/status` until each is admitted while a controller
/// releases slots through `/admit?n=64`, and every poll also probes a
/// `/rate` window (non-decreasing per client). Tickets must be dense,
/// every ticket admitted, the final bound equal to the tickets
/// dispensed, and no window may admit more than the limit.
#[test]
fn concurrent_admission_and_rate_probes_keep_their_bounds_over_http() {
    const TICKETS: usize = 25;
    // One more worker than clients: the controller holds a connection too.
    let config =
        ServerConfig { workers: CLIENT_THREADS + 1, rate_limit: 8, ..ServerConfig::default() };
    let rate_limit = config.rate_limit;
    let server = CountingServer::start("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let total = (CLIENT_THREADS * TICKETS) as u64;
    let done = AtomicBool::new(false);

    let per_thread: Vec<(Vec<u64>, Vec<RateBody>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = ClientConnection::new(addr);
                    let (mut tickets, mut probes) = (Vec::new(), Vec::new());
                    // A failed controller must fail the test, not hang it.
                    let deadline = Instant::now() + Duration::from_secs(60);
                    for i in 0..TICKETS {
                        let ticket = get_json::<TicketBody>(&mut conn, "/ticket/room").ticket;
                        loop {
                            assert!(Instant::now() < deadline, "ticket {ticket} never admitted");
                            let target = format!("/rate/api?window={}", i / 4);
                            probes.push(get_json::<RateBody>(&mut conn, &target));
                            let target = format!("/status/room?ticket={ticket}");
                            if get_json::<StatusBody>(&mut conn, &target).admitted == Some(true) {
                                break;
                            }
                        }
                        tickets.push(ticket);
                    }
                    (tickets, probes)
                })
            })
            .collect();
        let done = &done;
        scope.spawn(move || {
            let mut conn = ClientConnection::new(addr);
            while !done.load(Ordering::Acquire) {
                let admit: AdmitBody = get_json(&mut conn, "/admit/room?n=64");
                if admit.now_serving == total {
                    break;
                }
            }
        });
        // Join the clients, stop the controller, then propagate a client
        // panic: a failed client must not leave the controller looping.
        let results: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
        done.store(true, Ordering::Release);
        results.into_iter().map(|r| r.expect("client thread panicked")).collect()
    });

    let mut tickets: Vec<u64> = per_thread.iter().flat_map(|(t, _)| t.iter().copied()).collect();
    tickets.sort_unstable();
    assert_eq!(tickets, (0..total).collect::<Vec<_>>(), "every ticket admitted, dense");
    let mut conn = ClientConnection::new(addr);
    let status: StatusBody = get_json(&mut conn, "/status/room");
    assert_eq!((status.now_serving, status.dispensed, status.waiting), (total, total, 0));

    let mut admitted_per_window = BTreeMap::new();
    for probe in per_thread.iter().flat_map(|(_, p)| p) {
        assert_eq!(probe.limit, rate_limit);
        *admitted_per_window.entry(probe.window).or_insert(0u64) += u64::from(probe.admitted);
    }
    for (window, admitted) in admitted_per_window {
        assert!(admitted <= rate_limit, "window {window} admitted {admitted} > {rate_limit}");
    }
    assert_eq!(server.stats().client_errors.load(Ordering::Relaxed), 0);
    server.shutdown();
}

/// A `/rate` window the limiter cannot pack is the client's fault: it
/// gets a 400 and the worker that read it lives on, so a one-worker
/// server still answers the next connection.
#[test]
fn an_unpackable_rate_window_gets_a_400_and_the_worker_survives() {
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = CountingServer::start("127.0.0.1:0", config).expect("bind ephemeral port");
    let mut conn = ClientConnection::new(server.local_addr());
    let resp = conn.get(&format!("/rate/api?window={}", i64::MAX)).expect("an answer");
    assert_eq!(resp.status, 400, "{}", resp.body);
    drop(conn);
    let mut conn = ClientConnection::new(server.local_addr());
    let ticket: TicketBody = get_json(&mut conn, "/ticket/after");
    assert_eq!(ticket.ticket, 0);
    assert_eq!(server.stats().client_errors.load(Ordering::Relaxed), 1);
    server.shutdown();
}

/// Shutdown with clients still connected: the server must not hang on
/// idle keep-alive connections, and in-flight requests either complete
/// or the connection closes — but every worker joins.
#[test]
fn shutdown_under_load_joins_every_worker() {
    let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    let server = CountingServer::start("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let stop = &stop;
            scope.spawn(move || {
                let mut conn = ClientConnection::new(addr);
                while !stop.load(Ordering::Relaxed) {
                    // Errors are expected once shutdown lands mid-exchange.
                    if conn.get("/ticket/load").is_err() {
                        break;
                    }
                }
            });
        }
        // Let the hammering threads get going, then pull the plug.
        std::thread::sleep(std::time::Duration::from_millis(100));
        server.shutdown(); // joins acceptor + workers or the test hangs
        stop.store(true, Ordering::Relaxed);
    });
    assert!(std::net::TcpListener::bind(addr).is_ok(), "port released after shutdown");
}

/// Bytes the head parser refuses are the client's fault: a request line
/// that is not UTF-8 gets a 400 and counts as a client error before the
/// server closes the connection.
#[test]
fn a_non_utf8_request_line_gets_a_400_and_counts_as_a_client_error() {
    let server = CountingServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    // The request line alone: nothing unread is left behind to make the
    // server's close a reset.
    stream.write_all(b"GET /ticket/\xff HTTP/1.1\r\n").expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("the server answers, then closes");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert_eq!(server.stats().client_errors.load(Ordering::Relaxed), 1);
    server.shutdown();
}
