//! End-to-end serving test: a real server on an ephemeral port, hammered
//! by concurrent client threads over keep-alive sockets, with the
//! paper's guarantees asserted on the values observed **in HTTP
//! responses** — uniqueness and exact range survive the transport, not
//! just the in-process counter.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::sync::atomic::Ordering;

use counting_server::client::ClientConnection;
use counting_server::router::{AdmitBody, LeaseBody, StatusBody, TicketBody};
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
