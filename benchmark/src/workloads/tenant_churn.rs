//! `tenant-churn`: one thread draws Zipf(1.0) tenants out of 8 192
//! names, looks each up (`get_or_create`) and reserves one id, and
//! sweeps idle tenants out every 4 096 operations — so cold tenants are
//! rebuilt continuously. The registry and network compilation dominate;
//! the runtime does one uncontended traversal per operation. This is
//! the bypass case for runtime optimisations, and the only workload
//! where tenant and watermark state shows in memory.

use std::time::Instant;

use crate::gen::{zipf_ranks, Rng};
use crate::hist::Histogram;
use crate::oracle::{dense_violations, Tally};
use crate::spans::SpanLog;
use crate::surface::{default_service, BlockReserve, CounterService};

use super::{
    run_threads, window_with_spans, Params, ThreadWindow, Trace, Traced, Until, Verdict, Window,
    Workload,
};

pub const TENANTS: usize = 8192;
/// Load threads of the workload. One, not `T`: a creation and a sweep
/// hold a shard's write lock, a second thread that meets it sleeps in
/// the kernel, and on a virtual machine every such sleep ends with an
/// inter-processor interrupt through the hypervisor — 10 000 to 19 000 a
/// second with two threads on two cpus, which put 18 % between runs of
/// one build on `ops_per_s`. What threads cost each other here is the
/// per-layer `service.churn_contended_ns`, which has no bound to break.
pub const LOAD_THREADS: usize = 1;
pub const EVICT_EVERY: u64 = 4096;
/// One operation in this many is timed individually.
const SAMPLE_EVERY: u64 = 16;
/// Ranks per thread; prime, so sampled positions drift over the stream.
const STREAM_LEN: usize = 262_139;
const WARMUP_OPS_PER_THREAD: u64 = 1 << 16;

pub fn tenant_names() -> Vec<String> {
    (0..TENANTS).map(|rank| format!("churn/{rank}")).collect()
}

pub struct TenantChurn {
    params: Params,
    service: CounterService,
    names: Vec<String>,
    threads: Vec<ThreadState>,
}

struct ThreadState {
    ranks: Vec<u16>,
    pos: usize,
    /// What this thread saw of each tenant's stream.
    tallies: Vec<Tally>,
    ops: u64,
    spans: Option<SpanLog>,
}

impl Traced for ThreadState {
    fn span_log(&mut self) -> &mut Option<SpanLog> {
        &mut self.spans
    }
}

impl ThreadState {
    fn run(
        &mut self,
        thread: usize,
        service: &CounterService,
        names: &[String],
        until: Until,
    ) -> ThreadWindow {
        let mut latency = Histogram::default();
        let mut ops = 0u64;
        loop {
            let rank = usize::from(self.ranks[self.pos]);
            self.pos = if self.pos + 1 == self.ranks.len() { 0 } else { self.pos + 1 };
            let sampled = ops.is_multiple_of(SAMPLE_EVERY);
            let now = if sampled {
                let op_start = Instant::now();
                let tenant = service.get_or_create(&names[rank]);
                let looked_up = self.spans.is_some().then(Instant::now);
                let id = tenant.reserve_block(thread, 1);
                drop(tenant);
                let op_end = Instant::now();
                self.tallies[rank].add_block(id, 1);
                latency.record((op_end - op_start).as_nanos() as u64);
                if let (Some(log), Some(looked_up)) = (&mut self.spans, looked_up) {
                    let op_id = self.ops + ops;
                    let op = log.push("op", None, op_id, (op_start, op_end), 1);
                    log.push("service.lookup", op, op_id, (op_start, looked_up), 1);
                    log.push("service.tenant_reserve", op, op_id, (looked_up, op_end), 1);
                }
                Some(op_end)
            } else {
                let id = service.get_or_create(&names[rank]).reserve_block(thread, 1);
                self.tallies[rank].add_block(id, 1);
                None
            };
            ops += 1;
            if thread == 0 && (self.ops + ops).is_multiple_of(EVICT_EVERY) {
                let sweep_start = Instant::now();
                let evicted = service.evict_idle();
                if let Some(log) = &mut self.spans {
                    let at = (sweep_start, Instant::now());
                    log.push("service.evict", None, self.ops + ops, at, evicted.max(1) as u32);
                }
            }
            if let Some(now) = now {
                if until.reached(ops, now) {
                    self.ops += ops;
                    return ThreadWindow { ops, latency, ended: now };
                }
            }
        }
    }
}

impl TenantChurn {
    pub fn setup(params: Params) -> Self {
        Self::with_threads(params, LOAD_THREADS)
    }

    /// The same loop on `threads` threads; thread 0 does the sweeps.
    pub fn with_threads(params: Params, threads: usize) -> Self {
        let threads = (0..threads)
            .map(|t| ThreadState {
                ranks: zipf_ranks(&mut Rng::new(params.seed, t as u64), TENANTS, STREAM_LEN),
                pos: 0,
                tallies: vec![Tally::default(); TENANTS],
                ops: 0,
                spans: None,
            })
            .collect();
        let mut workload =
            Self { params, service: default_service(), names: tenant_names(), threads };
        workload.run(Until::Ops(WARMUP_OPS_PER_THREAD), None);
        workload
    }

    fn run(&mut self, until: Until, trace: Option<Trace<'_>>) -> Window {
        let (service, names) = (&self.service, &self.names[..]);
        window_with_spans(&mut self.threads, trace, |threads| {
            run_threads(threads, |thread, state| state.run(thread, service, names, until))
        })
    }
}

impl Workload for TenantChurn {
    fn window(&mut self, trace: Option<Trace<'_>>) -> Window {
        self.run(Until::Deadline(Instant::now() + self.params.window), trace)
    }

    fn finish(self: Box<Self>) -> Verdict {
        let mut verdict =
            Verdict { attempted: self.threads.iter().map(|s| s.ops).sum(), ..Verdict::default() };
        // Per tenant, across every eviction and re-creation, the ids
        // tile 0..watermark.
        let mut merged = vec![Tally::default(); TENANTS];
        for state in &self.threads {
            for (all, seen) in merged.iter_mut().zip(&state.tallies) {
                all.merge(*seen);
            }
        }
        for (name, tally) in self.names.iter().zip(&merged) {
            let watermark = self.service.watermark(name);
            if tally.count != watermark {
                verdict.violations.push(format!(
                    "{name}: {} ids observed, watermark says {watermark}",
                    tally.count
                ));
            }
        }
        let streams = self.names.iter().map(String::as_str).zip(merged.iter().copied());
        dense_violations(streams, &mut verdict.violations);
        verdict
    }
}
