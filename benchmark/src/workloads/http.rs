//! `http-closed` and `http-open`: a default `CountingServer` on loopback
//! in this process, driven over `C` keep-alive connections by the
//! benchmark's own client — the program under test receives only bytes.
//!
//! Closed loop: each connection sends its next request when the reply
//! arrives; what is measured is the serving plane's saturation capacity
//! (socket, parse, route, serialise, worker hand-off). Open loop: the
//! same server, mix and tenants, but Poisson arrivals at one fixed rate,
//! each request timed **from its due time**; a request whose connection
//! is still busy waits, so queueing shows in the tail.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::cpu::confined;
use crate::gen::{http_mix, poisson_arrivals, Endpoint, Rng, HTTP_TENANTS};
use crate::hist::Histogram;
use crate::oracle::{dense_violations, RateWindows, Tally};
use crate::spans::SpanLog;
use crate::surface::{default_rate_limit, start_server, CountingServer};

use super::{
    run_threads, window_with_spans, Params, ThreadWindow, Trace, Traced, Until, Verdict, Window,
    Workload,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Closed,
    Open,
}

/// The one fixed arrival rate of `http-open`, all connections together:
/// about 70 % of the `http-closed` `ops_per_s` of the host the
/// benchmark was recorded on (README.md has the calibration).
pub const OPEN_RATE_PER_S: f64 = 20_000.0;

/// A send this long after its due time counts as late.
const LATE_NS: u64 = 1_000_000;
/// Requests per connection in the mix; prime, so nothing downstream
/// that counts in powers of two stays in step with it.
const MIX_LEN: usize = 131_071;
const WARMUP_REQUESTS_PER_CONN: u64 = 16_000;
/// `/rate` requests a connection sends a tenant before it names the
/// next window: one and a half budgets, so both verdicts are exercised.
pub const RATE_REQUESTS_PER_WINDOW: u64 = 96;
const ADMIT_SLOTS: u64 = 4;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Renders request `(endpoint, tenant)` into `out`. `rate_window` and
/// `status_ticket` are the client-side state the query string carries.
pub fn render_request(
    out: &mut Vec<u8>,
    endpoint: Endpoint,
    tenant: u16,
    rate_window: u64,
    status_ticket: Option<u64>,
) {
    out.clear();
    let _ = match endpoint {
        Endpoint::Lease(k) => write!(out, "GET /lease/t{tenant}?k={k}"),
        Endpoint::Ticket => write!(out, "GET /ticket/t{tenant}"),
        Endpoint::Rate => write!(out, "GET /rate/t{tenant}?window={rate_window}"),
        Endpoint::Status => match status_ticket {
            Some(ticket) => write!(out, "GET /status/t{tenant}?ticket={ticket}"),
            None => write!(out, "GET /status/t{tenant}"),
        },
        Endpoint::Admit => write!(out, "GET /admit/t{tenant}?n={ADMIT_SLOTS}"),
    };
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
}

/// The unsigned integer after `"key":` in a flat JSON object.
pub fn field_u64(body: &[u8], key: &str) -> Option<u64> {
    let digits = field(body, key)?;
    let end = digits.iter().position(|b| !b.is_ascii_digit()).unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// The boolean after `"key":` in a flat JSON object.
pub fn field_bool(body: &[u8], key: &str) -> Option<bool> {
    let value = field(body, key)?;
    if value.starts_with(b"true") {
        Some(true)
    } else if value.starts_with(b"false") {
        Some(false)
    } else {
        None
    }
}

fn field<'a>(body: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let key = key.as_bytes();
    let mut from = 0;
    while let Some(at) = body[from..].windows(key.len()).position(|w| w == key) {
        let (start, end) = (from + at, from + at + key.len());
        if start > 0 && body[start - 1] == b'"' && body[end..].starts_with(b"\":") {
            let value = &body[end + 2..];
            let skip = value.iter().position(|b| !b.is_ascii_whitespace()).unwrap_or(0);
            return Some(&value[skip..]);
        }
        from = end;
    }
    None
}

/// One keep-alive connection: the benchmark's own HTTP/1.1 client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    pub body: Vec<u8>,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        writer.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader, line: Vec::new(), body: Vec::new(), bytes_out: 0, bytes_in: 0 })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.bytes_out += request.len() as u64;
        self.writer.write_all(request)
    }

    /// Reads one response into `self.body` and returns its status code.
    pub fn read_reply(&mut self) -> io::Result<u16> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let (mut status, mut content_length) = (None, None);
        loop {
            self.line.clear();
            let n = self.reader.read_until(b'\n', &mut self.line)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-reply"));
            }
            self.bytes_in += n as u64;
            let line = self.line.strip_suffix(b"\r\n").ok_or_else(|| bad("bare newline"))?;
            if status.is_none() {
                let code = line.get(9..12).and_then(|c| std::str::from_utf8(c).ok());
                status = Some(code.and_then(|c| c.parse().ok()).ok_or_else(|| bad("status"))?);
            } else if line.is_empty() {
                break;
            } else if let Some(value) = strip_prefix_ignore_case(line, b"content-length:") {
                let text = std::str::from_utf8(value).map_err(|_| bad("content-length"))?;
                content_length = Some(text.trim().parse().map_err(|_| bad("content-length"))?);
            }
        }
        let len: usize = content_length.ok_or_else(|| bad("no content-length"))?;
        if len > 1 << 20 {
            return Err(bad("body too large"));
        }
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)?;
        self.bytes_in += len as u64;
        Ok(status.expect("set on the first line"))
    }
}

fn strip_prefix_ignore_case<'a>(line: &'a [u8], prefix: &[u8]) -> Option<&'a [u8]> {
    (line.len() >= prefix.len() && line[..prefix.len()].eq_ignore_ascii_case(prefix))
        .then(|| &line[prefix.len()..])
}

/// One connection's client thread state: its share of the mix, the
/// per-tenant state its query strings carry, and what it observed.
struct Conn {
    client: Client,
    mix: Vec<(Endpoint, u16)>,
    pos: usize,
    request: Vec<u8>,
    rate_sent: [u64; HTTP_TENANTS],
    last_ticket: [Option<u64>; HTTP_TENANTS],
    /// Open loop: due times (ns from the window's start), one list per
    /// window still to run.
    schedules: Vec<Vec<u64>>,
    tickets: Vec<Tally>,
    leases: Vec<Tally>,
    rate: RateWindows,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    sends: u64,
    late: u64,
    send_lag: Histogram,
    spans: Option<SpanLog>,
}

impl Traced for Conn {
    fn span_log(&mut self) -> &mut Option<SpanLog> {
        &mut self.spans
    }
}

impl Conn {
    /// Renders the next request of the mix into `self.request`.
    fn next_request(&mut self) -> (Endpoint, u16, u64) {
        let (endpoint, tenant) = self.mix[self.pos];
        self.pos = if self.pos + 1 == self.mix.len() { 0 } else { self.pos + 1 };
        let t = usize::from(tenant);
        let window = self.rate_sent[t] / RATE_REQUESTS_PER_WINDOW;
        if endpoint == Endpoint::Rate {
            self.rate_sent[t] += 1;
        }
        render_request(&mut self.request, endpoint, tenant, window, self.last_ticket[t]);
        (endpoint, tenant, window)
    }

    /// Sends the rendered request and reads the reply. Returns when the
    /// request was handed to the socket and when the reply was complete.
    fn exchange(&mut self) -> io::Result<(Instant, Instant, u16)> {
        self.client.send(&self.request)?;
        let sent = Instant::now();
        let status = self.client.read_reply()?;
        Ok((sent, Instant::now(), status))
    }

    /// Checks one reply against what was asked and feeds the oracle.
    fn observe(&mut self, endpoint: Endpoint, tenant: u16, window: u64, status: u16) {
        let (t, body) = (usize::from(tenant), &self.client.body[..]);
        let understood = status == 200
            && match endpoint {
                Endpoint::Lease(k) => match (field_u64(body, "start"), field_u64(body, "count")) {
                    (Some(start), Some(count)) if count == u64::from(k) => {
                        self.leases[t].add_block(start, count);
                        true
                    }
                    _ => false,
                },
                Endpoint::Ticket => field_u64(body, "ticket").is_some_and(|ticket| {
                    self.tickets[t].add_block(ticket, 1);
                    self.last_ticket[t] = Some(ticket);
                    true
                }),
                Endpoint::Rate => match (field_bool(body, "admitted"), field_u64(body, "window")) {
                    (Some(admitted), Some(echoed)) if echoed == window => {
                        if admitted {
                            self.rate.admit(tenant, window);
                        }
                        true
                    }
                    _ => false,
                },
                Endpoint::Status => {
                    match (field_u64(body, "now_serving"), field_u64(body, "dispensed")) {
                        (Some(now_serving), Some(dispensed)) => now_serving <= dispensed,
                        _ => false,
                    }
                }
                Endpoint::Admit => field_u64(body, "now_serving").is_some(),
            };
        if !understood {
            self.fail(format!(
                "{endpoint:?} t{tenant}: status {status}, body {:?}",
                String::from_utf8_lossy(&self.client.body)
            ));
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// One request, start to finish. `due` is when it was scheduled
    /// (open loop) — latency then runs from there, not from the send.
    fn request(&mut self, due: Option<Instant>, latency: &mut Histogram) -> Instant {
        let (endpoint, tenant, window) = self.next_request();
        let start = match due {
            Some(due) => {
                let mut now = Instant::now();
                // Watch the clock: while this thread waits, its
                // connection's worker has nothing to do, so the cpu they
                // share is not taken from anyone. (Sleeping instead halts
                // the cpu, and waking a halted virtual cpu costs more than
                // a request; `yield_now` stalls for milliseconds.)
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                let lag = (now - due).as_nanos() as u64;
                self.sends += 1;
                self.late += u64::from(lag > LATE_NS);
                self.send_lag.record(lag);
                now
            }
            None => Instant::now(),
        };
        self.attempted += 1;
        match self.exchange() {
            Ok((sent, replied, status)) => {
                latency.record((replied - due.unwrap_or(start)).as_nanos() as u64);
                if let Some(log) = &mut self.spans {
                    let op_id = self.attempted;
                    let op = log.push("request", None, op_id, (due.unwrap_or(start), replied), 1);
                    log.push("send", op, op_id, (start, sent), 1);
                    log.push("wait_reply", op, op_id, (sent, replied), 1);
                }
                self.observe(endpoint, tenant, window, status);
                replied
            }
            Err(e) => {
                self.fail(format!("{endpoint:?} t{tenant}: {e}"));
                Instant::now()
            }
        }
    }

    fn closed_loop(&mut self, until: Until) -> ThreadWindow {
        let mut latency = Histogram::default();
        let mut ops = 0u64;
        loop {
            let now = self.request(None, &mut latency);
            ops += 1;
            if until.reached(ops, now) {
                return ThreadWindow { ops, latency, ended: now };
            }
        }
    }

    fn open_loop(&mut self) -> ThreadWindow {
        let schedule = self.schedules.pop().expect("one schedule per window was generated");
        let mut latency = Histogram::default();
        let started = Instant::now();
        let mut ended = started;
        for &due_ns in &schedule {
            ended = self.request(Some(started + Duration::from_nanos(due_ns)), &mut latency);
        }
        ThreadWindow { ops: schedule.len() as u64, latency, ended }
    }
}

pub struct Http {
    params: Params,
    mode: Loop,
    server: Option<CountingServer>,
    conns: Vec<Conn>,
}

impl Http {
    pub fn setup(params: Params, mode: Loop) -> Self {
        // Client threads are pinned to the last `conns` cpus (by
        // `run_threads`) and the server's threads inherit the same set,
        // so a request's two hand-offs stay on one cpu (see `cpu`).
        let server =
            confined(params.conns, || start_server(params.conns)).expect("bind a loopback port");
        let per_conn_rate = OPEN_RATE_PER_S / params.conns as f64;
        let conns = (0..params.conns)
            .map(|c| {
                let mut rng = Rng::new(params.seed, c as u64);
                let mix = http_mix(&mut rng, MIX_LEN);
                let schedules = match mode {
                    Loop::Closed => Vec::new(),
                    Loop::Open => (0..params.windows)
                        .map(|_| {
                            let window_ns = params.window.as_nanos() as u64;
                            poisson_arrivals(&mut rng, per_conn_rate, window_ns)
                        })
                        .collect(),
                };
                Conn {
                    client: Client::connect(server.local_addr()).expect("connect to loopback"),
                    mix,
                    pos: 0,
                    request: Vec::with_capacity(128),
                    rate_sent: [0; HTTP_TENANTS],
                    last_ticket: [None; HTTP_TENANTS],
                    schedules,
                    tickets: vec![Tally::default(); HTTP_TENANTS],
                    leases: vec![Tally::default(); HTTP_TENANTS],
                    rate: RateWindows::default(),
                    attempted: 0,
                    failed: 0,
                    first_failure: None,
                    sends: 0,
                    late: 0,
                    send_lag: Histogram::default(),
                    spans: None,
                }
            })
            .collect();
        let mut workload = Self { params, mode, server: Some(server), conns };
        // Warm-up is closed-loop in both modes: every tenant of the mix
        // exists and every connection has a worker before the clock runs.
        run_threads(&mut workload.conns, |_, conn| {
            conn.closed_loop(Until::Ops(WARMUP_REQUESTS_PER_CONN))
        });
        workload
    }
}

impl Workload for Http {
    fn window(&mut self, trace: Option<Trace<'_>>) -> Window {
        let until = Until::Deadline(Instant::now() + self.params.window);
        let mode = self.mode;
        window_with_spans(&mut self.conns, trace, |conns| match mode {
            Loop::Closed => run_threads(conns, |_, conn| conn.closed_loop(until)),
            Loop::Open => run_threads(conns, |_, conn| conn.open_loop()),
        })
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        use std::sync::atomic::Ordering::Relaxed;
        let stats = self.server.as_ref().expect("running until finish").stats();
        let sum = |f: fn(&Conn) -> u64| self.conns.iter().map(f).sum::<u64>() as f64;
        let mut lag = Histogram::default();
        for conn in &self.conns {
            lag.merge(&conn.send_lag);
        }
        vec![
            ("server.client_errors", stats.client_errors.load(Relaxed) as f64),
            ("server.connections", stats.connections.load(Relaxed) as f64),
            (
                "server.bytes_per_req",
                (sum(|c| c.client.bytes_out) + sum(|c| c.client.bytes_in))
                    / sum(|c| c.attempted).max(1.0),
            ),
            ("loadgen.late_share", sum(|c| c.late) / sum(|c| c.sends).max(1.0)),
            ("loadgen.send_lag_p99_ns", lag.quantile(0.99).unwrap_or(0.0)),
        ]
    }

    fn finish(mut self: Box<Self>) -> Verdict {
        let mut verdict = Verdict::default();
        let (mut tickets, mut leases) =
            (vec![Tally::default(); HTTP_TENANTS], vec![Tally::default(); HTTP_TENANTS]);
        let mut rate = RateWindows::default();
        for conn in self.conns.drain(..) {
            verdict.attempted += conn.attempted;
            verdict.failed += conn.failed;
            verdict.examples.extend(conn.first_failure);
            for (all, seen) in tickets.iter_mut().zip(&conn.tickets) {
                all.merge(*seen);
            }
            for (all, seen) in leases.iter_mut().zip(&conn.leases) {
                all.merge(*seen);
            }
            rate.merge(conn.rate);
            // Dropping the connection closes the socket, which is what
            // lets the worker that owns it leave its read.
        }
        self.server.take().expect("running until finish").shutdown();
        // Per tenant: tickets are dense 0..n, lease blocks tile
        // 0..watermark, and no window admitted more than its budget.
        let names: Vec<String> = (0..HTTP_TENANTS).map(|t| format!("t{t}")).collect();
        let streams = |kind: &'static str, tallies: Vec<Tally>| {
            names.iter().map(move |n| format!("{kind}:{n}")).zip(tallies).collect::<Vec<_>>()
        };
        let all = [streams("ticket", tickets), streams("lease", leases)].concat();
        dense_violations(all.iter().map(|(n, t)| (n.as_str(), *t)), &mut verdict.violations);
        rate.violations(default_rate_limit(), &mut verdict.violations);
        verdict
    }
}
