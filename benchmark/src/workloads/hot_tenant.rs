//! `hot-tenant`: `T` threads share one tenant handle (looked up once)
//! and reserve mixed-size blocks from it as fast as they can. All the
//! work is `counting-runtime` — traversal, dispensers, the elimination
//! arena's offer/claim under real contention; registry and server do
//! nothing.

use std::sync::Arc;
use std::time::Instant;

use crate::gen::{batch_sizes, Rng};
use crate::hist::Histogram;
use crate::oracle::{dense_violations, Tally};
use crate::spans::SpanLog;
use crate::surface::{default_service, BlockReserve, TenantCounter};

use super::{
    run_threads, window_with_spans, Params, ThreadWindow, Trace, Traced, Until, Verdict, Window,
    Workload,
};

/// One operation in this many is timed individually; the rest run
/// back-to-back so the timer does not become the workload.
pub const SAMPLE_EVERY: u64 = 64;
/// Block sizes per thread. Prime, so the sampled positions drift over
/// the stream instead of hitting the same 1-in-64 entries every cycle.
const STREAM_LEN: usize = 65_537;
const WARMUP_OPS_PER_THREAD: u64 = 1 << 18;

pub struct HotTenant {
    params: Params,
    tenant: Arc<TenantCounter>,
    threads: Vec<ThreadState>,
}

struct ThreadState {
    sizes: Vec<u8>,
    pos: usize,
    tally: Tally,
    ops: u64,
    spans: Option<SpanLog>,
}

impl Traced for ThreadState {
    fn span_log(&mut self) -> &mut Option<SpanLog> {
        &mut self.spans
    }
}

impl ThreadState {
    fn next_k(&mut self) -> usize {
        let k = self.sizes[self.pos];
        self.pos = if self.pos + 1 == self.sizes.len() { 0 } else { self.pos + 1 };
        usize::from(k)
    }

    fn run(&mut self, thread: usize, tenant: &TenantCounter, until: Until) -> ThreadWindow {
        let mut latency = Histogram::default();
        let mut ops = 0u64;
        loop {
            for _ in 1..SAMPLE_EVERY {
                let k = self.next_k();
                let base = tenant.reserve_block(thread, k);
                self.tally.add_block(base, k as u64);
            }
            let k = self.next_k();
            let op_start = Instant::now();
            let base = tenant.reserve_block(thread, k);
            let call_end = Instant::now();
            self.tally.add_block(base, k as u64);
            latency.record((call_end - op_start).as_nanos() as u64);
            ops += SAMPLE_EVERY;
            if let Some(log) = &mut self.spans {
                let op_id = self.ops + ops;
                let op = log.push("op", None, op_id, (op_start, Instant::now()), 1);
                log.push("service.tenant_reserve", op, op_id, (op_start, call_end), 1);
            }
            if until.reached(ops, call_end) {
                self.ops += ops;
                return ThreadWindow { ops, latency, ended: call_end };
            }
        }
    }
}

impl HotTenant {
    pub fn setup(params: Params) -> Self {
        let tenant = default_service().get_or_create("hot");
        let threads = (0..params.threads)
            .map(|t| ThreadState {
                sizes: batch_sizes(&mut Rng::new(params.seed, t as u64), STREAM_LEN),
                pos: 0,
                tally: Tally::default(),
                ops: 0,
                spans: None,
            })
            .collect();
        let mut workload = Self { params, tenant, threads };
        workload.run(Until::Ops(WARMUP_OPS_PER_THREAD), None);
        workload
    }

    fn run(&mut self, until: Until, trace: Option<Trace<'_>>) -> Window {
        let tenant = &*self.tenant;
        window_with_spans(&mut self.threads, trace, |threads| {
            run_threads(threads, |thread, state| state.run(thread, tenant, until))
        })
    }
}

impl Workload for HotTenant {
    fn window(&mut self, trace: Option<Trace<'_>>) -> Window {
        self.run(Until::Deadline(Instant::now() + self.params.window), trace)
    }

    fn disturbance_only_slows(&self) -> bool {
        false
    }

    fn finish(self: Box<Self>) -> Verdict {
        let mut verdict = Verdict::default();
        let mut tally = Tally::default();
        for state in &self.threads {
            verdict.attempted += state.ops;
            tally.merge(state.tally);
        }
        // In-process values are unique and exactly 0..watermark.
        if tally.count != self.tenant.watermark() {
            verdict.violations.push(format!(
                "hot: {} ids observed, watermark says {}",
                tally.count,
                self.tenant.watermark()
            ));
        }
        dense_violations(std::iter::once(("hot", tally)), &mut verdict.violations);
        verdict
    }
}
