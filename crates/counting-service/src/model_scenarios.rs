//! Exhaustive-interleaving scenarios for the service layer: the
//! eviction/watermark hand-off, a tenant's compact-to-inflated hand-off
//! and the rate limiter's window rollover.
//!
//! Same shape as `counting_runtime::model_scenarios` — each function is
//! a fresh [`Scenario`] factory for [`counting_sim::model::explore`],
//! sized so the schedule space is exhaustible within a small preemption
//! budget. The `*_mutated` variants seed a named protocol mutation that
//! the checker **must** catch (the suite fails if they explore clean):
//!
//! * `evict-in-use` — [`crate::CounterService::try_evict`] skips the
//!   sole-ownership check, so an in-flight reservation escapes the
//!   recorded watermark and the recreated tenant forks its stream.
//! * `seal-by-store` — an inflating [`crate::TenantCounter`] seals its
//!   word with a load and a store instead of an RMW, so an increment
//!   racing the seal is overwritten and the backend hands those values
//!   out a second time.
//! * `rate-straddle` — [`crate::RateLimiter`] reverts to its pre-fix
//!   admission path, where a request naming an already-closed window is
//!   judged against the current base and a boundary-straddling burst
//!   over-admits.
//! * `rate-torn-base` — the limiter's fast path reads `base` without the
//!   seqlock recheck, so a judger preempted between its epoch and base
//!   loads judges against a *successor* window's base (a torn pair) and
//!   over-admits a window that already closed.
//! * `ticket-unbounded` — [`crate::TicketGate::admit`] reverts to its
//!   pre-fix unclamped `fetch_add`, pre-admitting tickets that were
//!   never dispensed (and wrapping the bound on overflow).

use std::sync::Arc;

use counting_sim::model::Scenario;

/// A model-thread body reporting `(window, admitted)` per request.
type RateThread = Box<dyn FnOnce() -> Vec<(u64, bool)> + Send + 'static>;

use crate::{CounterService, RateLimiter, ServiceConfig};
use counting_runtime::{CentralCounter, SharedCounter};

/// A one-shard service whose tenants stay compact (two threads with one
/// operation each never reach the inflation threshold): every
/// interesting interleaving lives in the registry itself (shard lock,
/// tenant word, watermark map), which is exactly what this suite
/// explores. The arena has its own scenarios in
/// `counting_runtime::model_scenarios`.
fn tiny_service() -> Arc<CounterService> {
    Arc::new(CounterService::new(ServiceConfig { shards: 1, ..ServiceConfig::default() }))
}

/// A tenant's compact-to-inflated hand-off under live handles: three
/// threads reserve mixed-size blocks from one tenant that inflates (to
/// the arena over `C(2,16)`; the arena's atomics are scheduling points,
/// the network's are not) on the first CAS collision. Whoever inflates,
/// and wherever the others are when the seal lands, the values drawn
/// must be exactly `0..watermark`.
/// Three threads: the seal window opens only after one thread's CAS has
/// failed, and with two, racing an increment into it takes a third
/// preemption.
#[must_use]
pub fn inflate_handoff() -> Scenario<Vec<u64>> {
    let config = ServiceConfig { width: 2, shards: 1 };
    let tenant = CounterService::with_inflate_threshold(config, 1).get_or_create("tenant");
    let threads = [vec![2, 1], vec![1, 3], vec![3]]
        .into_iter()
        .enumerate()
        .map(|(thread_id, sizes)| {
            let tenant = Arc::clone(&tenant);
            Box::new(move || {
                let mut values = Vec::new();
                for k in sizes {
                    tenant.next_batch(thread_id, k, &mut values);
                }
                values
            }) as Box<dyn FnOnce() -> Vec<u64> + Send + 'static>
        })
        .collect();
    Scenario::new(threads, move |outs| {
        let mut values: Vec<u64> = outs.iter().flatten().copied().collect();
        values.sort_unstable();
        if values != (0..tenant.watermark()).collect::<Vec<u64>>() {
            return Err(format!(
                "the hand-off forked or gapped the stream: drew {values:?}, watermark {}",
                tenant.watermark()
            ));
        }
        Ok(())
    })
}

/// [`inflate_handoff`] with the `seal-by-store` mutation seeded: a
/// schedule exists where an increment lands between the inflating
/// thread's load of the word and its store of the seal, and the backend
/// repeats that block. The explorer must return a counterexample.
#[must_use]
pub fn inflate_handoff_mutated() -> Scenario<Vec<u64>> {
    inflate_handoff().with_mutation("seal-by-store")
}

/// The eviction/watermark hand-off: one thread drives tenant traffic and
/// drops its handle; the other races an eviction and a re-creation
/// against it. Whatever the schedule, the tenant's stream must neither
/// fork (duplicate values) nor gap: the two values drawn are exactly
/// `{0, 1}`, and the final watermark is `2`.
#[must_use]
pub fn evict_handoff() -> Scenario<Vec<u64>> {
    let service = tiny_service();
    let writer = {
        let service = Arc::clone(&service);
        Box::new(move || {
            let handle = service.get_or_create("tenant");
            let value = handle.next(0);
            drop(handle);
            vec![value]
        }) as Box<dyn FnOnce() -> Vec<u64> + Send + 'static>
    };
    let evictor = {
        let service = Arc::clone(&service);
        Box::new(move || {
            // Outcome intentionally unchecked: Absent, InUse and Evicted
            // are all legal depending on the schedule — the invariant is
            // on the values, not on which race the evictor won.
            let _ = service.try_evict("tenant");
            let handle = service.get_or_create("tenant");
            let value = handle.next(1);
            drop(handle);
            vec![value]
        }) as Box<dyn FnOnce() -> Vec<u64> + Send + 'static>
    };
    Scenario::new(vec![writer, evictor], move |outs| {
        let mut values: Vec<u64> = outs.iter().flatten().copied().collect();
        values.sort_unstable();
        if values != [0, 1] {
            return Err(format!(
                "the tenant stream forked or gapped: drew {values:?}, expected [0, 1]"
            ));
        }
        // Quiescent hand-off: with every handle dropped, eviction must
        // succeed and record base + issued exactly.
        match service.try_evict("tenant") {
            crate::EvictOutcome::Evicted { watermark: 2 } => {}
            other => return Err(format!("final eviction saw {other:?}, expected watermark 2")),
        }
        if service.watermark("tenant") != 2 {
            return Err("the recorded watermark did not survive the eviction".to_owned());
        }
        Ok(())
    })
}

/// [`evict_handoff`] with the `evict-in-use` mutation seeded: eviction
/// ignores outstanding handles, so a schedule exists where the writer's
/// reservation escapes the watermark and both threads draw value `0`.
/// [`counting_sim::model::explore`] must return a counterexample.
#[must_use]
pub fn evict_handoff_mutated() -> Scenario<Vec<u64>> {
    evict_handoff().with_mutation("evict-in-use")
}

/// Admission budget of the rate limiter across a window boundary. Four
/// requests: two in window 0, one straggler in window 0 racing one
/// opener of window 1 (`limit = 2`). Every thread reports
/// `(window, admitted)` pairs; no window index may admit more than the
/// limit, whichever side of the boundary the schedule lands each
/// request on.
#[must_use]
pub fn rate_straddle() -> Scenario<Vec<(u64, bool)>> {
    let limiter = Arc::new(RateLimiter::new(Arc::new(CentralCounter::new()), 2));
    let requests: [(usize, Vec<u64>); 3] = [(0, vec![0, 0]), (1, vec![1]), (2, vec![0])];
    let threads: Vec<RateThread> = requests
        .into_iter()
        .map(|(thread_id, windows)| {
            let limiter = Arc::clone(&limiter);
            Box::new(move || {
                windows
                    .into_iter()
                    .map(|window| (window, limiter.try_acquire(thread_id, window)))
                    .collect()
            }) as RateThread
        })
        .collect();
    let limit = limiter.limit();
    Scenario::new(threads, move |outs| {
        let mut admitted_per_window = std::collections::HashMap::new();
        let mut admitted_total = 0u64;
        for (window, admitted) in outs.iter().flatten() {
            if *admitted {
                *admitted_per_window.entry(*window).or_insert(0u64) += 1;
                admitted_total += 1;
            }
        }
        for (window, admitted) in admitted_per_window {
            if admitted > limit {
                return Err(format!(
                    "window {window} admitted {admitted} requests, over the limit of {limit}"
                ));
            }
        }
        if admitted_total == 0 {
            return Err("every request was shed — the limiter admitted nothing".to_owned());
        }
        Ok(())
    })
}

/// [`rate_straddle`] with the `rate-straddle` mutation seeded (the
/// pre-fix admission path): a schedule exists where window 0's straggler
/// is judged against window 1's base and window 0 admits three requests
/// against a limit of two. [`counting_sim::model::explore`] must return
/// a counterexample.
#[must_use]
pub fn rate_straddle_mutated() -> Scenario<Vec<(u64, bool)>> {
    rate_straddle().with_mutation("rate-straddle")
}

/// [`rate_straddle`]'s arrival pattern with the `rate-torn-base`
/// mutation seeded: the fast path skips the seqlock recheck, so a
/// schedule exists where window 0's straggler draws a late counter value,
/// is preempted between its (even, matching) epoch load and its base
/// load while window 1's opener installs, and then judges that late
/// value against window 1's base — admitting a third request under
/// window 0's name. [`counting_sim::model::explore`] must return a
/// counterexample; the same exploration over the fixed code
/// ([`rate_straddle`]) must come back clean, which is what makes
/// [`crate::RateLimiter`]'s `versioned_base` helper load-bearing.
#[must_use]
pub fn rate_torn_base_mutated() -> Scenario<Vec<(u64, bool)>> {
    rate_straddle().with_mutation("rate-torn-base")
}

/// The ticket gate's admission bound: one arrival races a capacity
/// owner releasing far more capacity than there are waiters (including
/// an overflow-baiting `u64::MAX`). Whatever the schedule, every bound
/// returned by [`crate::TicketGate::admit`] — and the quiescent
/// `now_serving` — must stay at or below the one ticket dispensed, and
/// the bounds a single releaser observes must be non-decreasing (no
/// overflow wrap ever revokes an admission).
#[must_use]
pub fn ticket_admit_bound() -> Scenario<Vec<u64>> {
    use crate::TicketGate;
    let gate = Arc::new(TicketGate::new(Arc::new(CentralCounter::new())));
    let arrival = {
        let gate = Arc::clone(&gate);
        Box::new(move || vec![gate.acquire(0)]) as Box<dyn FnOnce() -> Vec<u64> + Send + 'static>
    };
    let releaser = {
        let gate = Arc::clone(&gate);
        Box::new(move || vec![gate.admit(3), gate.admit(u64::MAX)])
            as Box<dyn FnOnce() -> Vec<u64> + Send + 'static>
    };
    Scenario::new(vec![arrival, releaser], move |outs| {
        let ticket = outs[0][0];
        if ticket != 0 {
            return Err(format!("the sole arrival drew ticket {ticket}, expected 0"));
        }
        let bounds = &outs[1];
        for &bound in bounds {
            if bound > 1 {
                return Err(format!("admit returned bound {bound} with only 1 ticket dispensed"));
            }
        }
        if bounds[1] < bounds[0] {
            return Err(format!(
                "admission bound went backwards ({} -> {}): the release arithmetic wrapped",
                bounds[0], bounds[1]
            ));
        }
        let (serving, dispensed) = (gate.now_serving(), gate.dispensed());
        if dispensed != 1 {
            return Err(format!("dispensed count drifted: {dispensed}, expected 1"));
        }
        if serving > dispensed {
            return Err(format!(
                "now_serving {serving} exceeds dispensed {dispensed}: undispensed tickets admitted"
            ));
        }
        Ok(())
    })
}

/// [`ticket_admit_bound`] with the `ticket-unbounded` mutation seeded
/// (the pre-fix unclamped `fetch_add`): already the serial schedule
/// returns bound `3` from the first release with a single ticket
/// dispensed, and the second release wraps the bound backwards.
/// [`counting_sim::model::explore`] must return a counterexample.
#[must_use]
pub fn ticket_admit_bound_mutated() -> Scenario<Vec<u64>> {
    ticket_admit_bound().with_mutation("ticket-unbounded")
}
