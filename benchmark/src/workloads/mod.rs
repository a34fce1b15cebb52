//! The five workloads. Each is set up from seeded inputs (untimed),
//! measured in windows, then torn down and checked against the oracle.

pub mod cluster;
pub mod hot_tenant;
pub mod http;
pub mod tenant_churn;

use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::spans::{Span, SpanLog};

/// What a run is sized by. `threads` and `conns` follow the host:
/// `T = min(nproc, 4)` in-process workers; `C = max(1, T / 2)` HTTP
/// client threads = keep-alive connections = server workers, so client
/// and worker threads together never exceed `nproc`.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub threads: usize,
    pub conns: usize,
    /// Length of one measuring window.
    pub window: Duration,
    /// Windows the run will measure (open-loop schedules are generated
    /// for this many at set-up).
    pub windows: usize,
}

impl Params {
    pub fn for_host(seed: u64, window: Duration, windows: usize) -> Self {
        let threads = nproc().min(4);
        Self { seed, threads, conns: (threads / 2).max(1), window, windows }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One measuring window.
pub struct Window {
    /// Operations completed.
    pub ops: u64,
    pub wall: Duration,
    /// Per-operation latency samples, in ns.
    pub latency: Histogram,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// What the oracle found when the workload ended.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    /// Operations that failed: a non-2xx reply, an I/O error, an
    /// unparsable body, or an id the contract check cannot account for.
    pub failed: u64,
    /// The first failed operation of each client, for the report.
    pub examples: Vec<String>,
    /// Contract breaches found at the end; each counts as one more
    /// failed operation.
    pub violations: Vec<String>,
}

impl Verdict {
    pub fn failed_total(&self) -> u64 {
        self.failed + self.violations.len() as u64
    }

    pub fn fail_share(&self) -> f64 {
        self.failed_total() as f64 / self.attempted.max(1) as f64
    }

    /// Folds in what another part of the same run found.
    pub fn absorb(&mut self, part: Verdict) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.examples.extend(part.examples);
        self.violations.extend(part.violations);
    }
}

/// How a traced window records: where spans go, and the clock they are
/// relative to.
pub struct Trace<'a> {
    pub origin: Instant,
    pub spans: &'a mut Vec<Span>,
    pub dropped: &'a mut u64,
}

/// Spans one thread may record in one traced window.
pub const SPANS_PER_THREAD: usize = 40_000;

impl Trace<'_> {
    /// A span log for `thread`, numbering its spans apart from every
    /// other thread's.
    pub fn log_for(&self, thread: usize) -> SpanLog {
        let id_base = self.spans.len() + thread * SPANS_PER_THREAD;
        SpanLog::new(self.origin, SPANS_PER_THREAD, id_base as u32)
    }

    pub fn collect(&mut self, log: SpanLog) {
        *self.dropped += log.dropped;
        self.spans.extend(log.into_spans());
    }
}

/// Per-thread state that can record spans.
pub trait Traced {
    fn span_log(&mut self) -> &mut Option<SpanLog>;
}

/// Runs one window over `states`; with `trace`, every state gets a span
/// log of its own for the window and the logs are collected afterwards.
pub fn window_with_spans<S: Traced>(
    states: &mut [S],
    mut trace: Option<Trace<'_>>,
    run: impl FnOnce(&mut [S]) -> Window,
) -> Window {
    if let Some(trace) = &trace {
        for (thread, state) in states.iter_mut().enumerate() {
            *state.span_log() = Some(trace.log_for(thread));
        }
    }
    let window = run(states);
    if let Some(trace) = &mut trace {
        for log in states.iter_mut().filter_map(|state| state.span_log().take()) {
            trace.collect(log);
        }
    }
    window
}

/// When a measuring loop stops: a window stops on the clock, a warm-up
/// after a fixed number of operations (so set-up does the same work on
/// every run).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Ops(u64),
}

impl Until {
    pub fn reached(self, ops: u64, now: Instant) -> bool {
        match self {
            Until::Deadline(deadline) => now >= deadline,
            Until::Ops(limit) => ops >= limit,
        }
    }
}

pub trait Workload {
    /// Measures one window of `Params::window`. With `trace`, also
    /// records spans around each call into a layer (sampled operations
    /// on the in-process loops).
    fn window(&mut self, trace: Option<Trace<'_>>) -> Window;

    /// Whether the host can only slow a window down. True of one load
    /// thread, or of threads that do not wait for each other. Not of
    /// threads contending for one counter: when the host runs them in
    /// turns instead of side by side they stop colliding, and a window
    /// of `hot-tenant` comes out at twice its undisturbed throughput.
    fn disturbance_only_slows(&self) -> bool {
        true
    }

    /// Layer counts only this workload can see (server stats, load
    /// generator lag, ...), valid after at least one window.
    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Tears the workload down — every thread it started is joined —
    /// and checks everything it observed.
    fn finish(self: Box<Self>) -> Verdict;
}

pub const NAMES: [&str; 5] =
    ["hot-tenant", "tenant-churn", "http-closed", "http-open", "cluster-failover"];

/// Sets `name` up from seeded inputs, warm-up included; `None` for an
/// unknown name.
pub fn setup(name: &str, params: Params) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hot-tenant" => Box::new(hot_tenant::HotTenant::setup(params)),
        "tenant-churn" => Box::new(tenant_churn::TenantChurn::setup(params)),
        "http-closed" => Box::new(http::Http::setup(params, http::Loop::Closed)),
        "http-open" => Box::new(http::Http::setup(params, http::Loop::Open)),
        "cluster-failover" => Box::new(cluster::ClusterFailover::setup(params)),
        _ => return None,
    })
}

/// Result of one thread's share of a window.
pub struct ThreadWindow {
    pub ops: u64,
    pub latency: Histogram,
    pub ended: Instant,
}

/// Runs `body(thread, state)` on one scoped thread per element of
/// `states`, each pinned to its own cpu and released together, and folds
/// their shares into one [`Window`] whose wall time runs from the first
/// thread's release to the last thread's end. Each thread reads the
/// clock for itself as it is released: the releasing thread is not
/// pinned, and when the host keeps it waiting its reading comes late and
/// the window too short — a 0.5 s window of the fixed-rate workload once
/// measured 0.36 s and 28 000 requests/s at 20 000 offered.
pub fn run_threads<S, F>(states: &mut [S], body: F) -> Window
where
    S: Send,
    F: Fn(usize, &mut S) -> ThreadWindow + Sync,
{
    let barrier = std::sync::Barrier::new(states.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(thread, state)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    crate::cpu::pin(thread);
                    barrier.wait();
                    (Instant::now(), body(thread, state))
                })
            })
            .collect();
        let shares: Vec<(Instant, ThreadWindow)> = handles
            .into_iter()
            .map(|handle| handle.join().expect("a workload thread panicked"))
            .collect();
        let released = shares.iter().map(|(at, _)| *at).min().expect("at least one load thread");
        let mut window = Window { ops: 0, wall: Duration::ZERO, latency: Histogram::default() };
        for (_, share) in shares {
            window.ops += share.ops;
            window.latency.merge(&share.latency);
            window.wall = window.wall.max(share.ended.saturating_duration_since(released));
        }
        window
    })
}
