//! Experiment E17 — end-to-end serving: an open-loop load generator
//! drives tens of thousands of simulated clients over real sockets
//! against the `counting-server` HTTP admission service, once per
//! input width of `C(w,16)`.
//!
//! Arrivals are open-loop (Poisson-ish: exponential inter-arrival gaps
//! drawn from the seeded RNG, scheduled in advance, never gated on
//! responses), multiplexed over one keep-alive connection per driver
//! thread. Each simulated client runs a small cookie state machine:
//!
//! * **waiting-room clients** (half): draw a ticket from their queue
//!   tenant, then poll `/status?ticket=` until admitted. Capacity is
//!   released only after *every* ticket is drawn — the room fills
//!   completely, then a control thread drains it through `/admit` in
//!   small batches, so the run holds all waiting clients concurrently
//!   live (the ≥ 1k-concurrency claim is structural, not a timing
//!   accident) and exercises the clamped admission bound end to end.
//! * **lease clients** (a quarter): two `/lease?k=` block reservations a
//!   beat apart.
//! * **rate clients** (a quarter): two `/rate?window=` probes whose
//!   window index derives from the scheduled arrival time.
//!
//! Every value observed in an HTTP response is checked: per-tenant
//! tickets and lease ids must be unique and exactly dense (`0..n`), no
//! rate window may over-admit its budget, and every waiting client must
//! eventually be admitted with the final bound equal to the dispensed
//! count. Per-endpoint latencies land in log₂-bucketed histograms
//! (table + JSON artifact). Exits nonzero on any violation, after the
//! JSON is written.
//!
//! Run with: `cargo run --release -p bench --bin exp_server
//! [-- --quick] [--json <path>] [--seed <u64>] [--clients <n>]`

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bench::{kilo_rate, service_width_sweep, Args, Table};
use counting::counting_depth;
use counting_runtime::{rate_over, MeasuredWindow};
use counting_server::router::{LeaseBody, RateBody, StatusBody, TicketBody};
use counting_server::{ClientConnection, CountingServer, ServerConfig};
use counting_service::ServiceConfig;
use serde::Serialize;

/// Driver threads; also the server's worker-pool size (one keep-alive
/// connection per driver, one worker per connection).
const DRIVERS: usize = 8;
/// Queue (waiting-room) tenants.
const QUEUE_TENANTS: usize = 4;
/// Lease tenants.
const LEASE_TENANTS: usize = 4;
/// Rate-limited tenants.
const RATE_TENANTS: usize = 2;
/// Per-window budget configured into the server's rate limiters.
const RATE_LIMIT: u64 = 8;
/// Wall-clock length of one rate window, in scheduled-arrival µs.
const RATE_WINDOW_US: u64 = 100_000;
/// Slots released per `/admit` call while draining the waiting room —
/// small enough that the drain takes many calls (exercising repeated
/// clamped releases), large enough to finish promptly.
const ADMIT_BATCH: u64 = 64;
/// Histogram bucket count: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` µs, the last bucket catches everything slower.
const HIST_BUCKETS: usize = 24;
/// Default `--seed`: every arrival time, batch size, and window index
/// derives from it, so a run is reproducible from its JSON alone.
const DEFAULT_SEED: u64 = 0xE17;

/// Endpoint families, indexed into the latency histograms.
const ENDPOINTS: [&str; 5] = ["ticket", "status", "lease", "rate", "admit"];
const EP_TICKET: usize = 0;
const EP_STATUS: usize = 1;
const EP_LEASE: usize = 2;
const EP_RATE: usize = 3;
const EP_ADMIT: usize = 4;

/// The whole JSON document: the seed plus one report per backend.
#[derive(Debug, Serialize)]
struct ServerJson {
    seed: u64,
    quick: bool,
    reports: Vec<ServerReport>,
}

/// One backend's end-to-end serving run.
#[derive(Debug, Serialize)]
struct ServerReport {
    backend: String,
    /// Balancers under one inflated reservation: `counting_depth(w)`.
    depth: usize,
    clients: u64,
    drivers: usize,
    /// Simulated clients live at once at the high-water mark (a client
    /// is live from its scheduled arrival until its flow completes).
    peak_active: u64,
    /// Waiting-room clients — all of them are concurrently live when
    /// the drain starts, by construction.
    waiting_clients: u64,
    total_requests: u64,
    elapsed_secs: f64,
    /// `None` when the measured window was degenerate.
    aggregate_requests_per_second: Option<f64>,
    violations: Violations,
    endpoints: Vec<EndpointReport>,
}

/// Correctness-gate tallies; any nonzero field fails the run.
#[derive(Debug, Serialize)]
struct Violations {
    duplicates: u64,
    range_violations: u64,
    rate_over_admissions: u64,
    unadmitted_clients: u64,
    admission_bound_errors: u64,
}

impl Violations {
    fn total(&self) -> u64 {
        self.duplicates
            + self.range_violations
            + self.rate_over_admissions
            + self.unadmitted_clients
            + self.admission_bound_errors
    }
}

/// Per-endpoint request count, rate, and latency distribution.
#[derive(Debug, Serialize)]
struct EndpointReport {
    endpoint: String,
    requests: u64,
    /// `None` when the measured window was degenerate.
    requests_per_second: Option<f64>,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    /// Non-empty log₂ buckets: `le_us` is the bucket's inclusive upper
    /// bound in µs.
    buckets: Vec<HistBucket>,
}

/// One non-empty histogram bucket.
#[derive(Debug, Serialize)]
struct HistBucket {
    le_us: u64,
    count: u64,
}

/// xorshift64* — the deterministic RNG behind arrivals and batch sizes.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A uniform draw in `(0, 1]` — never 0, so `ln` is safe.
fn uniform01(state: &mut u64) -> f64 {
    (((xorshift(state) >> 11) + 1) as f64) / (1u64 << 53) as f64
}

/// Client flow families.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Waiting,
    Lease,
    Rate,
}

fn family_of(client: u64) -> Family {
    match client % 4 {
        0 | 2 => Family::Waiting,
        1 => Family::Lease,
        _ => Family::Rate,
    }
}

/// One simulated client's cookie state.
struct Client {
    id: u64,
    family: Family,
    /// Next scheduled action time, µs from run start.
    due_us: u64,
    /// Steps completed in the flow (requests sent, or polls for waiting
    /// clients past the ticket draw).
    step: u32,
    /// The waiting-room cookie: the ticket drawn by step 0.
    ticket: Option<u64>,
}

/// Heap ordering: earliest due time first.
struct Pending(u64, u32);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        other.0.cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// Driver-local latency histograms, merged after the join.
struct Histograms([[u64; HIST_BUCKETS]; ENDPOINTS.len()]);

impl Histograms {
    fn new() -> Self {
        Self([[0; HIST_BUCKETS]; ENDPOINTS.len()])
    }

    fn record(&mut self, endpoint: usize, latency: Duration) {
        let us = latency.as_micros() as u64;
        let bucket = (64 - us.max(1).leading_zeros() as usize).min(HIST_BUCKETS) - 1;
        self.0[endpoint][bucket] += 1;
    }

    fn merge(&mut self, other: &Histograms) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                *m += t;
            }
        }
    }
}

/// The bucket upper bound (µs) under which fraction `q` of samples fall.
fn percentile(buckets: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = (total as f64 * q).ceil() as u64;
    let mut seen = 0;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return 1u64 << (i + 1);
        }
    }
    1u64 << HIST_BUCKETS
}

/// Everything the drivers observe over HTTP, merged after the join.
#[derive(Default)]
struct Observations {
    tickets: Vec<Vec<u64>>,
    leases: Vec<Vec<(u64, u64)>>,
    /// `(window, admitted)` per rate tenant.
    rates: Vec<Vec<(u64, bool)>>,
}

impl Observations {
    fn new() -> Self {
        Self {
            tickets: vec![Vec::new(); QUEUE_TENANTS],
            leases: vec![Vec::new(); LEASE_TENANTS],
            rates: vec![Vec::new(); RATE_TENANTS],
        }
    }

    fn merge(&mut self, other: Observations) {
        for (mine, theirs) in self.tickets.iter_mut().zip(other.tickets) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.leases.iter_mut().zip(other.leases) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.rates.iter_mut().zip(other.rates) {
            mine.extend(theirs);
        }
    }
}

struct RunOutcome {
    observations: Observations,
    histograms: Histograms,
    total_requests: u64,
    peak_active: u64,
    elapsed: Duration,
}

/// Sleeps (coarsely) until `due_us` past `start`, then returns.
fn wait_until(start: Instant, due_us: u64) {
    loop {
        let now_us = start.elapsed().as_micros() as u64;
        if now_us >= due_us {
            return;
        }
        let gap = due_us - now_us;
        if gap > 200 {
            std::thread::sleep(Duration::from_micros(gap - 100));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn run_backend(
    service: ServiceConfig,
    clients: u64,
    horizon_us: u64,
    poll_interval_us: u64,
    seed: u64,
) -> ServerReport {
    let backend = service.label();
    let config = ServerConfig { service, workers: DRIVERS, rate_limit: RATE_LIMIT, max_lease: 64 };
    let server = CountingServer::start("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();

    // Open-loop schedule: exponential gaps around the mean spread every
    // client over the horizon, fixed before the first connection opens.
    let mean_us = horizon_us as f64 / clients as f64;
    let mut rng = seed ^ 0xE17_0000_0000;
    let mut at = 0.0f64;
    let arrivals: Vec<u64> = (0..clients)
        .map(|_| {
            at += -mean_us * uniform01(&mut rng).ln();
            at as u64
        })
        .collect();

    let waiting_total: u64 =
        (0..clients).filter(|&c| family_of(c) == Family::Waiting).count() as u64;
    let tickets_drawn = AtomicU64::new(0);
    let admitted_seen = AtomicU64::new(0);
    let active_now = AtomicU64::new(0);
    let peak_active = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let window = MeasuredWindow::new(DRIVERS);
    let start = Instant::now();

    let (mut observations, mut histograms, mut total_requests) =
        (Observations::new(), Histograms::new(), 0u64);

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(DRIVERS);
        for tid in 0..DRIVERS {
            let arrivals = &arrivals;
            let (tickets_drawn, admitted_seen) = (&tickets_drawn, &admitted_seen);
            let (active_now, peak_active) = (&active_now, &peak_active);
            let (window, finished) = (&window, &finished);
            workers.push(scope.spawn(move || {
                let guard = FinishedGuard(finished);
                let mut conn = ClientConnection::new(addr);
                let mut obs = Observations::new();
                let mut hist = Histograms::new();
                let mut requests = 0u64;
                let mut rng = (seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(tid as u64 + 1) | 1;

                // This driver owns every client with id ≡ tid (mod DRIVERS).
                let mut clients_local: Vec<Client> = (0..clients)
                    .filter(|c| (*c as usize) % DRIVERS == tid)
                    .map(|id| Client {
                        id,
                        family: family_of(id),
                        due_us: arrivals[id as usize],
                        step: 0,
                        ticket: None,
                    })
                    .collect();
                let mut heap: BinaryHeap<Pending> = clients_local
                    .iter()
                    .enumerate()
                    .map(|(i, c)| Pending(c.due_us, i as u32))
                    .collect();

                window.enter();
                while let Some(Pending(due, idx)) = heap.pop() {
                    wait_until(start, due);
                    let c = &mut clients_local[idx as usize];
                    if c.step == 0 {
                        // The client comes alive at its scheduled arrival.
                        let live = active_now.fetch_add(1, Ordering::Relaxed) + 1;
                        peak_active.fetch_max(live, Ordering::Relaxed);
                    }
                    let mut done = false;
                    match c.family {
                        Family::Waiting => {
                            if c.step == 0 {
                                let tenant = c.id % QUEUE_TENANTS as u64;
                                let sent = Instant::now();
                                let resp = conn
                                    .get(&format!("/ticket/queue-{tenant}"))
                                    .expect("ticket request");
                                hist.record(EP_TICKET, sent.elapsed());
                                requests += 1;
                                assert_eq!(resp.status, 200, "{}", resp.body);
                                let body: TicketBody =
                                    serde_json::from_str(&resp.body).expect("ticket body");
                                obs.tickets[tenant as usize].push(body.ticket);
                                c.ticket = Some(body.ticket);
                                tickets_drawn.fetch_add(1, Ordering::Release);
                                // First poll after a short, jittered beat.
                                c.step = 1;
                                let jitter = xorshift(&mut rng) % poll_interval_us;
                                heap.push(Pending(
                                    start.elapsed().as_micros() as u64 + jitter,
                                    idx,
                                ));
                            } else {
                                let tenant = c.id % QUEUE_TENANTS as u64;
                                let ticket = c.ticket.expect("polling implies a ticket");
                                let sent = Instant::now();
                                let resp = conn
                                    .get(&format!("/status/queue-{tenant}?ticket={ticket}"))
                                    .expect("status poll");
                                hist.record(EP_STATUS, sent.elapsed());
                                requests += 1;
                                assert_eq!(resp.status, 200, "{}", resp.body);
                                let body: StatusBody =
                                    serde_json::from_str(&resp.body).expect("status body");
                                if body.admitted == Some(true) {
                                    admitted_seen.fetch_add(1, Ordering::Release);
                                    done = true;
                                } else {
                                    c.step += 1;
                                    heap.push(Pending(
                                        start.elapsed().as_micros() as u64 + poll_interval_us,
                                        idx,
                                    ));
                                }
                            }
                        }
                        Family::Lease => {
                            let tenant = c.id % LEASE_TENANTS as u64;
                            let k = 1 + xorshift(&mut rng) % 8;
                            let sent = Instant::now();
                            let resp = conn
                                .get(&format!("/lease/ids-{tenant}?k={k}"))
                                .expect("lease request");
                            hist.record(EP_LEASE, sent.elapsed());
                            requests += 1;
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            let body: LeaseBody =
                                serde_json::from_str(&resp.body).expect("lease body");
                            obs.leases[tenant as usize].push((body.start, body.count));
                            if c.step == 0 {
                                // Second reservation a beat later keeps the
                                // client concurrently live mid-flow.
                                c.step = 1;
                                let gap = 50_000 + xorshift(&mut rng) % 200_000;
                                heap.push(Pending(due + gap, idx));
                            } else {
                                done = true;
                            }
                        }
                        Family::Rate => {
                            let tenant = c.id % RATE_TENANTS as u64;
                            // The window derives from the *scheduled* time,
                            // so the index stream is seed-reproducible.
                            let w = due / RATE_WINDOW_US;
                            let sent = Instant::now();
                            let resp = conn
                                .get(&format!("/rate/api-{tenant}?window={w}"))
                                .expect("rate request");
                            hist.record(EP_RATE, sent.elapsed());
                            requests += 1;
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            let body: RateBody =
                                serde_json::from_str(&resp.body).expect("rate body");
                            obs.rates[tenant as usize].push((body.window, body.admitted));
                            if c.step == 0 {
                                c.step = 1;
                                let gap = 50_000 + xorshift(&mut rng) % 200_000;
                                heap.push(Pending(due + gap, idx));
                            } else {
                                done = true;
                            }
                        }
                    }
                    if done {
                        active_now.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                window.exit();
                drop(guard);
                (obs, hist, requests)
            }));
        }

        // The capacity controller: wait for the room to fill completely
        // (every waiting client concurrently live), then drain it in
        // clamped batches until every client saw its admission.
        let (tickets_drawn, admitted_seen, finished) = (&tickets_drawn, &admitted_seen, &finished);
        let controller = scope.spawn(move || {
            let mut conn = ClientConnection::new(addr);
            let mut hist = Histograms::new();
            let mut requests = 0u64;
            while tickets_drawn.load(Ordering::Acquire) < waiting_total
                && finished.load(Ordering::Acquire) < DRIVERS
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            while admitted_seen.load(Ordering::Acquire) < waiting_total
                && finished.load(Ordering::Acquire) < DRIVERS
            {
                for tenant in 0..QUEUE_TENANTS {
                    let sent = Instant::now();
                    let resp = conn
                        .get(&format!("/admit/queue-{tenant}?n={ADMIT_BATCH}"))
                        .expect("admit request");
                    hist.record(EP_ADMIT, sent.elapsed());
                    requests += 1;
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (hist, requests)
        });

        for worker in workers {
            let (obs, hist, requests) = worker.join().expect("driver thread panicked");
            observations.merge(obs);
            histograms.merge(&hist);
            total_requests += requests;
        }
        let (hist, requests) = controller.join().expect("controller thread panicked");
        histograms.merge(&hist);
        total_requests += requests;
    });
    let elapsed = window.elapsed();

    let outcome = RunOutcome {
        observations,
        histograms,
        total_requests,
        peak_active: peak_active.load(Ordering::Relaxed),
        elapsed,
    };
    let report = verify(&server, backend, clients, waiting_total, outcome);
    server.shutdown();
    report
}

/// Quiescent verification of everything the HTTP responses claimed.
fn verify(
    server: &CountingServer,
    backend: String,
    clients: u64,
    waiting_total: u64,
    outcome: RunOutcome,
) -> ServerReport {
    let RunOutcome { observations, histograms, total_requests, peak_active, elapsed } = outcome;
    let mut duplicates = 0u64;
    let mut range_violations = 0u64;

    // Tickets and lease ids: unique and exactly dense per tenant.
    let mut check_dense = |label: &str, tenant: usize, mut values: Vec<u64>| {
        values.sort_unstable();
        let n = values.len() as u64;
        for pair in values.windows(2) {
            if pair[0] == pair[1] {
                duplicates += 1;
                eprintln!("{label}-{tenant}: value {} observed twice over HTTP", pair[0]);
            }
        }
        if values.last().is_some_and(|&max| max >= n) || (n > 0 && values[0] != 0) {
            range_violations += 1;
            eprintln!(
                "{label}-{tenant}: {n} values observed but they do not tile 0..{n} \
                 (first {:?}, last {:?})",
                values.first(),
                values.last()
            );
        }
    };
    for (tenant, tickets) in observations.tickets.iter().enumerate() {
        check_dense("queue", tenant, tickets.clone());
    }
    for (tenant, leases) in observations.leases.iter().enumerate() {
        let ids: Vec<u64> =
            leases.iter().flat_map(|&(start, count)| start..start + count).collect();
        check_dense("ids", tenant, ids);
    }

    // Rate windows: never over budget.
    let mut rate_over_admissions = 0u64;
    for (tenant, probes) in observations.rates.iter().enumerate() {
        let mut per_window = std::collections::HashMap::new();
        for &(window, admitted) in probes {
            if admitted {
                *per_window.entry(window).or_insert(0u64) += 1;
            }
        }
        for (window, admitted) in per_window {
            if admitted > RATE_LIMIT {
                rate_over_admissions += 1;
                eprintln!(
                    "api-{tenant} window {window}: {admitted} admissions > limit {RATE_LIMIT}"
                );
            }
        }
    }

    // Waiting room fully drained: every client admitted, and the final
    // bound clamped exactly to the dispensed count (the bugfix, end to
    // end: no over-release ever pushed it past).
    let mut unadmitted_clients = 0u64;
    let mut admission_bound_errors = 0u64;
    let mut tickets_total = 0u64;
    for tenant in 0..QUEUE_TENANTS {
        let observed = observations.tickets[tenant].len() as u64;
        tickets_total += observed;
        let gate = server.state().gate(&format!("queue-{tenant}"));
        if gate.dispensed() != observed {
            admission_bound_errors += 1;
            eprintln!(
                "queue-{tenant}: server dispensed {} but {} tickets were observed over HTTP",
                gate.dispensed(),
                observed
            );
        }
        if gate.now_serving() != gate.dispensed() {
            admission_bound_errors += 1;
            eprintln!(
                "queue-{tenant}: drained room ended with now_serving {} != dispensed {}",
                gate.now_serving(),
                gate.dispensed()
            );
        }
    }
    if tickets_total != waiting_total {
        unadmitted_clients += waiting_total.saturating_sub(tickets_total);
    }

    let endpoints = ENDPOINTS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let buckets = &histograms.0[i];
            let requests: u64 = buckets.iter().sum();
            EndpointReport {
                endpoint: (*name).to_owned(),
                requests,
                requests_per_second: rate_over(requests, elapsed),
                p50_us: percentile(buckets, 0.50),
                p90_us: percentile(buckets, 0.90),
                p99_us: percentile(buckets, 0.99),
                buckets: buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &count)| count > 0)
                    .map(|(b, &count)| HistBucket { le_us: 1u64 << (b + 1), count })
                    .collect(),
            }
        })
        .collect();

    ServerReport {
        backend,
        depth: counting_depth(server.state().service().config().width),
        clients,
        drivers: DRIVERS,
        peak_active,
        waiting_clients: waiting_total,
        total_requests,
        elapsed_secs: elapsed.as_secs_f64(),
        aggregate_requests_per_second: rate_over(total_requests, elapsed),
        violations: Violations {
            duplicates,
            range_violations,
            rate_over_admissions,
            unadmitted_clients,
            admission_bound_errors,
        },
        endpoints,
    }
}

/// Increments the shared finished-driver count on drop — including an
/// unwinding drop, so a panicking driver still releases the controller
/// loop and the binary fails instead of hanging.
struct FinishedGuard<'a>(&'a AtomicUsize);

impl Drop for FinishedGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

fn main() {
    let args = Args::from_env(&["--quick"], &["--json", "--seed", "--clients"]);
    let (quick, json_path) = (args.flag("--quick"), args.value("--json"));
    let seed = args.parsed("--seed", DEFAULT_SEED);
    let clients: u64 = args.parsed("--clients", if quick { 3_072 } else { 20_480 });
    let horizon_us: u64 = if quick { 1_000_000 } else { 2_500_000 };
    let poll_interval_us: u64 = if quick { 25_000 } else { 40_000 };

    // The (w, t) sweep; quick runs drop C(2,16) and keep the default
    // C(4,16) and C(16,16), because a row costs the whole horizon.
    let mut configs = service_width_sweep();
    if quick {
        configs.retain(|config| config.width != 2);
    }

    println!(
        "## E17 — end-to-end serving over HTTP: {clients} open-loop simulated clients \
         ({DRIVERS} driver connections, {QUEUE_TENANTS} queues fill-then-drain, \
         {LEASE_TENANTS} lease tenants, {RATE_TENANTS} rate tenants @ limit {RATE_LIMIT})\n"
    );

    let mut table = Table::new(vec![
        "backend",
        "depth",
        "req/s",
        "peak live",
        "ticket p99 µs",
        "status p99 µs",
        "lease p99 µs",
        "status",
    ]);
    let mut reports = Vec::new();
    for config in configs {
        let report = run_backend(config, clients, horizon_us, poll_interval_us, seed);
        let p99 = |ep: usize| report.endpoints[ep].p99_us.to_string();
        let broken = report.violations.total() > 0;
        table.push_row(vec![
            report.backend.clone(),
            report.depth.to_string(),
            kilo_rate(report.aggregate_requests_per_second),
            report.peak_active.to_string(),
            p99(EP_TICKET),
            p99(EP_STATUS),
            p99(EP_LEASE),
            if broken {
                format!(
                    "BROKEN(dup {}, range {}, rate {}, unadmitted {}, bound {})",
                    report.violations.duplicates,
                    report.violations.range_violations,
                    report.violations.rate_over_admissions,
                    report.violations.unadmitted_clients,
                    report.violations.admission_bound_errors
                )
            } else {
                "ok".to_owned()
            },
        ]);
        println!(
            "E17-aggregate backend={} clients={} peak_active={} requests={} rate={} violations={}",
            report.backend,
            report.clients,
            report.peak_active,
            report.total_requests,
            report
                .aggregate_requests_per_second
                .map_or_else(|| "n/a".to_owned(), |r| format!("{r:.0}")),
            report.violations.total()
        );
        reports.push(report);
    }
    println!("\n{}", table.to_markdown());
    println!(
        "Notes: arrivals are open-loop (exponential gaps from the seed), so the server\n\
         never back-pressures the schedule. Waiting rooms fill completely before the\n\
         controller drains them through clamped /admit batches — every waiting client\n\
         is concurrently live at the fill/drain turn, which is what `peak live` floors.\n\
         Latency percentiles are log2-bucket upper bounds, per endpoint.\n"
    );

    // The structural concurrency floor: all waiting clients are live at
    // once by construction, so a shortfall means the harness itself
    // broke (not the server).
    for report in &reports {
        assert!(
            report.peak_active >= report.waiting_clients,
            "peak_active {} below the structural floor of {} concurrently waiting clients",
            report.peak_active,
            report.waiting_clients
        );
    }

    let doc = ServerJson { seed, quick, reports };
    let json = serde_json::to_string(&doc).expect("reports serialize");
    match json_path {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON report file");
            println!("JSON written to {path}");
        }
        None => println!("{json}"),
    }

    let broken = doc.reports.iter().filter(|r| r.violations.total() > 0).count();
    if broken > 0 {
        eprintln!("error: {broken} backend run(s) violated the serving contract over HTTP");
        std::process::exit(1);
    }
}
