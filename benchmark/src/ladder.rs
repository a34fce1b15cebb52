//! The per-layer ladder: every boundary one id crosses, timed from
//! outside by calling the layer's public function on the same seeded
//! inputs the workloads use. Single-threaded unless a rung says
//! otherwise.
//!
//! Each rung records spans — one per batch of [`BATCH`] back-to-back
//! calls, because most rungs are far shorter than the timer — and a
//! `*_ns` metric is the median, over the rung's spans, of nanoseconds
//! per call. The rungs of one batch of inputs share an `op` parent span.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cpu::confined;
use crate::gen::{batch_sizes, http_mix, zipf_ranks, Endpoint, Rng, HTTP_TENANTS};
use crate::metrics::RUN_SECONDS;
use crate::spans::{median_ns_per_call, Span, SpanLog};
use crate::surface::{
    as_shared, default_app_state, default_network, default_rate_limit, default_service,
    parse_request, replica_id, route, start_server, write_response, BlockReserve, CompiledNetwork,
    CoordinatorDurable, EliminationCounter, Envelope, IdGenerator, Message, NetworkCounter,
    Outgoing, ProtocolConfig, RateLimiter, Replica, Request, SharedCounter, TicketGate,
    COORDINATOR, DEFAULT_LEASE, REPLICA_BASE, WIDTH,
};
use crate::workloads::http::{render_request, Client, RATE_REQUESTS_PER_WINDOW};
use crate::workloads::{self, cluster, tenant_churn, Params, Verdict, Workload};

/// Calls per span.
pub const BATCH: usize = 64;

/// How much work the ladder does: `scale` 1.0 at the benchmark's
/// recorded run length, less for shorter (smoke) runs.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    batches: usize,
    singles: usize,
    sims: usize,
    window: Duration,
}

impl Size {
    pub fn for_seconds(seconds: f64) -> Self {
        let scale = (seconds / f64::from(RUN_SECONDS)).clamp(0.02, 1.0);
        let scaled = |full: usize, least: usize| ((full as f64 * scale) as usize).max(least);
        Self {
            batches: scaled(200, 8),
            singles: scaled(200, 8),
            sims: scaled(160, 4),
            window: Duration::from_secs_f64(seconds / f64::from(RUN_SECONDS)),
        }
    }
}

pub struct Ladder {
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub verdict: Verdict,
}

struct Rungs {
    log: SpanLog,
    size: Size,
    next_op: u64,
}

impl Rungs {
    /// Times `batches` spans of [`BATCH`] calls of `call(input_index)`.
    fn batched(&mut self, name: &'static str, parent: Option<u32>, mut call: impl FnMut(usize)) {
        for batch in 0..self.size.batches {
            self.one_batch(name, parent, batch, &mut call);
        }
    }

    fn one_batch(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        batch: usize,
        call: &mut impl FnMut(usize),
    ) {
        let started = Instant::now();
        for i in batch * BATCH..(batch + 1) * BATCH {
            call(i);
        }
        let at = (started, Instant::now());
        self.log.push(name, parent, self.next_op, at, BATCH as u32);
        self.next_op += u64::from(parent.is_none());
    }

    /// Times `singles` spans of one call each; `call` returns what must
    /// outlive the clock (so its drop is not timed).
    fn single<R>(&mut self, name: &'static str, mut call: impl FnMut(usize) -> R) {
        for i in 0..self.size.singles {
            let started = Instant::now();
            let kept = black_box(call(i));
            let ended = Instant::now();
            drop(kept);
            self.log.push(name, None, self.next_op, (started, ended), 1);
            self.next_op += 1;
        }
    }
}

pub fn run(params: Params, size: Size) -> Ladder {
    let origin = Instant::now();
    let spans_needed = (40 * size.batches + 8 * size.singles + 6_000) * 2;
    let mut rungs = Rungs { log: SpanLog::new(origin, spans_needed, 0), size, next_op: 0 };
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut verdict = Verdict::default();
    let n = size.batches * BATCH;

    // The workloads' own inputs: thread / connection 0's streams.
    let sizes = batch_sizes(&mut Rng::new(params.seed, 0), n);
    let mix = http_mix(&mut Rng::new(params.seed, 0), n);
    let k_of = |i: usize| match mix[i].0 {
        Endpoint::Lease(k) => usize::from(k),
        _ => 1,
    };

    rungs.batched("bench.timer", None, |_| {
        black_box((Instant::now(), Instant::now()));
    });

    // balnet / counting / runtime: the network itself.
    let network = default_network();
    metrics.push(("balnet.depth", network.depth() as f64));
    metrics.push(("balnet.balancers", network.num_balancers() as f64));
    rungs.single("counting.build", |_| default_network());
    rungs.single("runtime.compile", |_| CompiledNetwork::new(&network));
    let compiled = CompiledNetwork::new(&network);
    let stride = NetworkCounter::new("ladder/next", &network);
    let blocks = NetworkCounter::new("ladder/blocks", &network);
    let arena = EliminationCounter::new(NetworkCounter::new("ladder/arena", &network));
    rungs.batched("runtime.next", None, |_| {
        black_box(stride.next(0));
    });

    // service: registry and adapters.
    let service = default_service();
    let tenant = service.get_or_create("ladder/adapters");
    let mut ids = IdGenerator::new(as_shared(Arc::clone(&tenant)), 0, DEFAULT_LEASE);
    rungs.batched("service.idgen_next", None, |_| {
        black_box(ids.next_id());
    });
    let gate = TicketGate::new(as_shared(service.get_or_create("ladder/gate")));
    rungs.batched("service.ticket_acquire", None, |_| {
        black_box(gate.acquire(0));
    });
    rungs.batched("service.ticket_admit", None, |_| {
        black_box(gate.admit(1));
    });
    let limiter =
        RateLimiter::new(as_shared(service.get_or_create("ladder/rate")), default_rate_limit());
    rungs.batched("service.rate_acquire", None, |i| {
        black_box(limiter.try_acquire(0, i as u64 / RATE_REQUESTS_PER_WINDOW));
    });
    for round in 0..5 {
        let fresh: Vec<String> =
            (0..size.singles).map(|i| format!("ladder/fresh/{round}/{i}")).collect();
        rungs.single("service.create", |i| service.get_or_create(&fresh[i]));
        let started = Instant::now();
        let evicted = service.evict_idle();
        let at = (started, Instant::now());
        rungs.log.push("service.evict", None, rungs.next_op, at, evicted.max(1) as u32);
        rungs.next_op += 1;
    }

    // The chain: one batch of the HTTP mix's requests through every
    // rung from the socket's edge down to the balancers and back.
    let state = default_app_state();
    let tenant_names: Vec<String> = (0..HTTP_TENANTS).map(|t| format!("lease:t{t}")).collect();
    let handles: Vec<_> = tenant_names.iter().map(|name| service.get_or_create(name)).collect();
    let mut rate_sent = [0u64; HTTP_TENANTS];
    let mut wire_bytes: Vec<Vec<u8>> = Vec::with_capacity(n);
    for &(endpoint, tenant) in &mix {
        let sent = &mut rate_sent[usize::from(tenant)];
        let mut bytes = Vec::new();
        render_request(&mut bytes, endpoint, tenant, *sent / RATE_REQUESTS_PER_WINDOW, None);
        *sent += u64::from(endpoint == Endpoint::Rate);
        wire_bytes.push(bytes);
    }
    let mut requests: Vec<Request> = Vec::with_capacity(n);
    let mut replies = Vec::with_capacity(n);
    let mut reply_bytes: Vec<Vec<u8>> = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(512);
    for batch in 0..size.batches {
        let started = Instant::now();
        let op = rungs.log.push("op", None, rungs.next_op, (started, started), BATCH as u32);
        rungs.one_batch("server.parse", op, batch, &mut |i| {
            requests.push(parse_request(&wire_bytes[i]).expect("the mix renders valid requests"));
        });
        rungs.one_batch("server.route", op, batch, &mut |i| {
            replies.push(route(&state, 0, &requests[i]));
        });
        rungs.one_batch("service.lookup", op, batch, &mut |i| {
            black_box(service.get_or_create(&tenant_names[usize::from(mix[i].1)]));
        });
        rungs.one_batch("service.tenant_reserve", op, batch, &mut |i| {
            black_box(handles[usize::from(mix[i].1)].reserve_block(0, k_of(i)));
        });
        rungs.one_batch("runtime.elim_reserve", op, batch, &mut |i| {
            black_box(arena.reserve_block(0, k_of(i)));
        });
        rungs.one_batch("runtime.reserve_block", op, batch, &mut |i| {
            black_box(blocks.reserve_block(0, k_of(i)));
        });
        rungs.one_batch("runtime.traverse", op, batch, &mut |i| {
            black_box(compiled.traverse(i % WIDTH));
        });
        rungs.one_batch("server.write", op, batch, &mut |i| {
            out.clear();
            write_response(&mut out, &replies[i], true).expect("writing to memory");
            reply_bytes.push(out.clone());
        });
        rungs.one_batch("server.inproc", op, batch, &mut |i| {
            let request = parse_request(&wire_bytes[i]).expect("parsed once already");
            out.clear();
            write_response(&mut out, &route(&state, 0, &request), true).expect("writing to memory");
            black_box(&out);
        });
        if let Some(op) = op {
            rungs.log.end(op, Instant::now());
        }
        rungs.next_op += 1;
    }
    for (e, name) in [
        "server.route_lease",
        "server.route_ticket",
        "server.route_rate",
        "server.route_status",
        "server.route_admit",
    ]
    .into_iter()
    .enumerate()
    {
        // Every endpoint on its own: the mix's tenants, one endpoint.
        let of_kind: Vec<Request> = (0..n)
            .map(|i| {
                let endpoint = match e {
                    0 => Endpoint::Lease([1, 8, 64][i % 3]),
                    1 => Endpoint::Ticket,
                    2 => Endpoint::Rate,
                    3 => Endpoint::Status,
                    _ => Endpoint::Admit,
                };
                let mut bytes = Vec::new();
                render_request(&mut bytes, endpoint, mix[i].1, i as u64 / 4096, None);
                parse_request(&bytes).expect("the mix renders valid requests")
            })
            .collect();
        rungs.batched(name, None, |i| {
            black_box(route(&state, 0, &of_kind[i]));
        });
    }

    // The same bytes over a socket the server has no part in, client and
    // echo thread placed like the HTTP workloads place theirs.
    confined(1, || echo_round_trips(&mut rungs, &wire_bytes, &reply_bytes));

    for _ in 0..5 {
        let started = Instant::now();
        let server = start_server(params.conns).expect("bind a loopback port");
        let up = Instant::now();
        rungs.log.push("server.start", None, rungs.next_op, (started, up), 1);
        let stopping = Instant::now();
        server.shutdown();
        rungs.log.push("server.shutdown", None, rungs.next_op, (stopping, Instant::now()), 1);
        rungs.next_op += 1;
    }

    // cluster: one grant on a single coordinator, then through a quorum.
    let workers: Vec<u64> = (1..=8).collect();
    let mut coordinator = CoordinatorDurable::initial(&workers);
    rungs.batched("cluster.grant", None, |i| {
        black_box(coordinator.lease_grant(workers[i % 8], i as u64, 8));
    });
    replica_commits(&mut rungs, &mut verdict);

    // Contended arena: the hot-tenant shape without the tenant wrapper.
    let contended = contended_arena(params, &sizes);
    metrics.extend(contended.ratios);
    rungs.log.push("runtime.elim_contended", None, rungs.next_op, contended.at, contended.calls);

    let spans = rungs.log.into_spans();
    for name in [
        "bench.timer",
        "counting.build",
        "runtime.compile",
        "runtime.traverse",
        "runtime.next",
        "runtime.reserve_block",
        "runtime.elim_reserve",
        "runtime.elim_contended",
        "service.lookup",
        "service.create",
        "service.evict",
        "service.tenant_reserve",
        "service.idgen_next",
        "service.ticket_acquire",
        "service.ticket_admit",
        "service.rate_acquire",
        "server.parse",
        "server.write",
        "server.route",
        "server.route_lease",
        "server.route_ticket",
        "server.route_rate",
        "server.route_status",
        "server.route_admit",
        "server.inproc",
        "bench.loopback_echo",
        "server.start",
        "server.shutdown",
        "cluster.grant",
        "cluster.replica_commit",
    ] {
        let ns = median_ns_per_call(&spans, name).expect("every rung records spans");
        metrics.push((metric_name(name), ns));
    }
    let get = |metrics: &[(&str, f64)], name: &str| {
        metrics.iter().find(|(n, _)| *n == name).expect("pushed above").1
    };
    let wait =
        get(&metrics, "runtime.elim_contended_ns") - get(&metrics, "runtime.elim_reserve_ns");
    metrics.push(("runtime.contention_wait_ns", wait));

    // Counts and short windows only whole workloads can give.
    metrics.extend(tenant_churn_replay(params.seed, n.max(2 * tenant_churn::EVICT_EVERY as usize)));
    metrics.extend(cluster::layer_metrics(params.seed, size.sims, &mut verdict.violations));
    let short = Params { window: size.window, windows: 1, ..params };
    // `tenant-churn` on `T` threads where the workload runs one: what
    // threads meeting on the shard locks add to an operation.
    let mut churn = tenant_churn::TenantChurn::with_threads(short, params.threads);
    let contended = churn.window(None);
    let per_call = 1e9 * params.threads as f64 / contended.ops_per_s();
    metrics.push(("service.churn_contended_ns", per_call));
    verdict.absorb(Box::new(churn).finish());
    let mut closed_p50 = 0.0;
    for name in ["http-closed", "http-open"] {
        let mut workload = workloads::setup(name, short).expect("a known workload");
        let window = workload.window(None);
        let counts = workload.layer_counts();
        let prefix = if name == "http-closed" { "server." } else { "loadgen." };
        metrics.extend(counts.into_iter().filter(|(n, _)| n.starts_with(prefix)));
        if name == "http-closed" {
            closed_p50 = window.latency.quantile(0.5).unwrap_or(0.0);
        }
        verdict.absorb(workload.finish());
    }
    metrics.push(("server.wire_ns", closed_p50 - get(&metrics, "server.inproc_ns")));

    Ladder { metrics, spans, verdict }
}

/// `server.parse` spans give `server.parse_ns`.
fn metric_name(span_name: &'static str) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|m| m.strip_suffix("_ns") == Some(span_name))
        .expect("every timed rung is a per-layer metric")
}

/// One thread, one connection: a benchmark-owned server that reads a
/// request and answers with the bytes the real server would have sent.
/// The floor under `server.wire_ns`: what loopback and two blocking
/// threads cost with no server code at all.
fn echo_round_trips(rungs: &mut Rungs, requests: &[Vec<u8>], replies: &[Vec<u8>]) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("a bound listener has an address");
    let round_trips = requests.len().min(5_000);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut stream, _) = listener.accept().expect("the ladder connects once");
            stream.set_nodelay(true).expect("loopback socket option");
            let mut buf = [0u8; 1024];
            for reply in &replies[..round_trips] {
                let mut have = 0;
                while !buf[..have].ends_with(b"\r\n\r\n") {
                    match stream.read(&mut buf[have..]) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => have += n,
                    }
                }
                if stream.write_all(reply).is_err() {
                    return;
                }
            }
        });
        let mut client = Client::connect(addr).expect("connect to loopback");
        for request in &requests[..round_trips] {
            let started = Instant::now();
            let ok = client.send(request).is_ok() && client.read_reply().is_ok();
            let at = (started, Instant::now());
            if !ok {
                break;
            }
            rungs.log.push("bench.loopback_echo", None, rungs.next_op, at, 1);
            rungs.next_op += 1;
        }
    });
}

/// Three replicas pumped in memory with zero delay: nanoseconds per
/// lease request from the leader receiving it to the grant leaving,
/// quorum append and commit included.
fn replica_commits(rungs: &mut Rungs, verdict: &mut Verdict) {
    let founders = [1u64, 2];
    let mut replicas: Vec<Replica> =
        (0..3).map(|i| Replica::new(i, 3, &founders, ProtocolConfig::default())).collect();
    // Delivers replica-bound hops until the group is quiet; returns the
    // grants that left for a worker.
    fn settle(replicas: &mut [Replica], now: u64, mut pending: Vec<Outgoing>) -> u64 {
        let mut grants = 0;
        while !pending.is_empty() {
            let mut next = Vec::new();
            for out in pending {
                if out.hop >= REPLICA_BASE {
                    let replica = &mut replicas[(out.hop - replica_id(0)) as usize];
                    replica.on_message(now, out.env);
                    next.extend(replica.take_outbox());
                } else if matches!(out.env.msg, Message::LeaseGrant { .. }) {
                    grants += 1;
                }
            }
            pending = next;
        }
        grants
    }
    let mut now = 0;
    let leader = loop {
        now += 1;
        let mut pending = Vec::new();
        for replica in &mut replicas {
            replica.on_tick(now);
            pending.extend(replica.take_outbox());
        }
        settle(&mut replicas, now, pending);
        if let Some(leader) = replicas.iter().position(Replica::is_leader) {
            break leader;
        }
        assert!(now < 100_000, "three connected replicas elect a leader");
    };
    let mut granted = 0;
    let mut call = |i: usize| {
        let msg = Message::LeaseRequest { node: 1, req_id: i as u64, want: 8 };
        replicas[leader].on_message(now, Envelope { src: 1, dst: COORDINATOR, msg });
        let pending = replicas[leader].take_outbox();
        granted += settle(&mut replicas, now, pending);
    };
    for batch in 0..rungs.size.batches {
        rungs.one_batch("cluster.replica_commit", None, batch, &mut call);
    }
    let asked = (rungs.size.batches * BATCH) as u64;
    verdict.attempted += asked;
    if granted != asked {
        verdict.violations.push(format!("replica group: {asked} leases asked, {granted} granted"));
    }
}

struct Contended {
    at: (Instant, Instant),
    /// Operations per thread, so the span's ns per call is wall·T/ops.
    calls: u32,
    ratios: [(&'static str, f64); 2],
}

/// `T` threads on one stand-alone arena for a fixed number of
/// operations each.
fn contended_arena(params: Params, sizes: &[u8]) -> Contended {
    let arena = EliminationCounter::new(NetworkCounter::new("ladder/hot", &default_network()));
    let per_thread = sizes.len() * 8;
    let barrier = std::sync::Barrier::new(params.threads + 1);
    let at = std::thread::scope(|scope| {
        for thread in 0..params.threads {
            let (arena, barrier) = (&arena, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    black_box(arena.reserve_block(thread, usize::from(sizes[i % sizes.len()])));
                }
            });
        }
        barrier.wait();
        Instant::now()
    });
    let ops = (per_thread * params.threads) as f64;
    Contended {
        at: (at, Instant::now()),
        calls: per_thread as u32,
        ratios: [
            ("runtime.elim_merge_ratio", arena.collisions() as f64 / ops),
            ("runtime.elim_fallback_ratio", arena.fallbacks() as f64 / ops),
        ],
    }
}

/// Thread 0's `tenant-churn` stream replayed on one thread: how many
/// tenants it creates, evicts and keeps alive (exact per seed).
fn tenant_churn_replay(seed: u64, ops: usize) -> [(&'static str, f64); 3] {
    let service = default_service();
    let names = tenant_churn::tenant_names();
    let ranks = zipf_ranks(&mut Rng::new(seed, 0), tenant_churn::TENANTS, ops);
    let (mut creates, mut evictions, mut live_peak) = (0usize, 0usize, 0usize);
    let mut live = 0usize;
    for (i, &rank) in ranks.iter().enumerate() {
        let name = &names[usize::from(rank)];
        if service.get(name).is_none() {
            creates += 1;
            live += 1;
            live_peak = live_peak.max(live);
        }
        black_box(service.get_or_create(name).reserve_block(0, 1));
        if (i as u64 + 1).is_multiple_of(tenant_churn::EVICT_EVERY) {
            let evicted = service.evict_idle();
            evictions += evicted;
            live -= evicted;
        }
    }
    [
        ("service.creates", creates as f64),
        ("service.evictions", evictions as f64),
        ("service.live_tenants_peak", live_peak as f64),
    ]
}
