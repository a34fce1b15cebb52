//! Exhaustive interleaving checks of the lock-free cores: the
//! elimination arena's slot state machine, the registry's
//! eviction/watermark hand-off, racing reservations on one tenant word,
//! the rate limiter's window rollover and the ticket gate's admission
//! bound, each explored schedule by schedule under the bounded-preemption
//! DFS of `counting_sim::model`.
//!
//! Run with:
//!
//! ```text
//! cargo test --release -p counting-service --features model --test model -- --nocapture
//! ```
//!
//! Every scenario is sized (one or two arena slots, spin bounds of one or
//! two, a one-shard registry, two or three threads) so that its schedule
//! space is exhaustible. Two kinds of row, and every row must pass:
//!
//! * **clean** — the real protocol, explored to completion at
//!   [`CLEAN_BOUND`] preemptions with no counterexample and more than one
//!   execution;
//! * **mutation** — the same scenario with a seeded protocol bug (see
//!   `counting_sim::model::mutation_enabled`), which must be caught at
//!   [`MUTATION_BOUND`] preemptions. Its pinned schedule must fail again
//!   on the mutant along the identical trace, and the fixed protocol
//!   must survive it. A clean sweep only means something if the same
//!   sweep catches a known bug.
//!
//! A complete clean exploration at bound 3 covers every schedule of
//! bound 2, and a catch at bound 2 is a catch at bound 3, so the two
//! bounds are one check. The test prints one row per scenario
//! (executions, decision points, pruned states, max depth); a failing
//! row panics with the counterexample, whose `schedule: [..]` replays.

#![cfg(feature = "model")]

use std::collections::HashMap;
use std::sync::Arc;

use counting_runtime::{CentralCounter, EliminationCounter, SharedCounter};
use counting_service::{CounterService, EvictOutcome, RateLimiter, ServiceConfig, TicketGate};
use counting_sim::model::{explore, replay, ExploreReport, ModelConfig, Scenario};

/// Preemption bound of the clean explorations.
const CLEAN_BOUND: usize = 3;
/// Preemption bound at which every seeded mutation must be caught.
const MUTATION_BOUND: usize = 2;

/// A model-thread body.
type Thread<T> = Box<dyn FnOnce() -> T + Send + 'static>;

// ---------------------------------------------------------------------------
// Elimination arena
// ---------------------------------------------------------------------------

/// Threads `(thread_id, k)` each doing one `next_batch` through an arena
/// of `slots` slots and a spin bound of `spin` over the centralized
/// counter, whose one `fetch_add` is trivially atomic: every interesting
/// interleaving lives in the arena's slot words. At quiescence the values
/// must tile `0..Σk` exactly, every slot must be `EMPTY`, the collision
/// count must be even (a merge credits both sides) and the inner cursor
/// must equal `Σk` (no reservation was wasted).
fn arena(slots: usize, spin: usize, batches: &[(usize, usize)]) -> Scenario<Vec<u64>> {
    let counter = Arc::new(EliminationCounter::with_arena(CentralCounter::new(), slots, spin));
    let threads = batches
        .iter()
        .map(|&(thread_id, k)| {
            let counter = Arc::clone(&counter);
            Box::new(move || {
                let mut out = Vec::new();
                counter.next_batch(thread_id, k, &mut out);
                out
            }) as Thread<Vec<u64>>
        })
        .collect();
    let total = batches.iter().map(|&(_, k)| k as u64).sum::<u64>();
    Scenario::new(threads, move |outs| {
        let mut values: Vec<u64> = outs.iter().flatten().copied().collect();
        values.sort_unstable();
        if values != (0..total).collect::<Vec<u64>>() {
            return Err(format!("handed-out values must tile 0..{total} exactly, got {values:?}"));
        }
        for (idx, word) in counter.arena_slot_words().into_iter().enumerate() {
            if word != 0 {
                return Err(format!("slot {idx} is {word:#x} at quiescence, expected EMPTY"));
            }
        }
        let collisions = counter.collisions();
        if !collisions.is_multiple_of(2) {
            return Err(format!("collision count {collisions} is odd: a merge credits both sides"));
        }
        // The check runs after quiescence on the controller thread, so
        // this probe is outside the modeled schedule.
        let cursor = counter.inner().next(usize::MAX);
        if cursor != total {
            return Err(format!(
                "inner cursor reached {cursor}, expected {total}: a value was lost"
            ));
        }
        Ok(())
    })
}

/// Two threads, one slot: publish → capture → deposit, the timeout
/// retraction, and the retract-vs-capture race (obligated fill).
fn arena_pair() -> Scenario<Vec<u64>> {
    arena(1, 2, &[(0, 3), (1, 5)])
}

/// Three threads, one slot, a one-iteration spin: two capturers race for
/// the same offer while the publisher times out underneath them.
fn arena_trio() -> Scenario<Vec<u64>> {
    arena(1, 1, &[(0, 1), (1, 2), (2, 3)])
}

/// Two slots: threads 0 and 2 share home slot 0, where they can merge,
/// and thread 1 has slot 1 to itself, where its offer can only time out.
/// No operation touches a slot other than its home.
fn arena_homes() -> Scenario<Vec<u64>> {
    arena(2, 1, &[(0, 2), (1, 2), (2, 1)])
}

// ---------------------------------------------------------------------------
// Service layer
// ---------------------------------------------------------------------------

/// A one-shard service: every interleaving lives in the registry itself
/// (shard lock, tenant word, watermark slot).
fn tiny_service() -> Arc<CounterService> {
    Arc::new(CounterService::new(ServiceConfig { shards: 1 }))
}

/// Three threads reserve mixed-size blocks from one tenant; the values
/// drawn must be exactly `0..watermark`.
fn reserve_race() -> Scenario<Vec<u64>> {
    let tenant = tiny_service().get_or_create("tenant");
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
            }) as Thread<Vec<u64>>
        })
        .collect();
    Scenario::new(threads, move |outs| {
        let mut values: Vec<u64> = outs.iter().flatten().copied().collect();
        values.sort_unstable();
        if values != (0..tenant.watermark()).collect::<Vec<u64>>() {
            return Err(format!(
                "the tenant stream forked or gapped: drew {values:?}, watermark {}",
                tenant.watermark()
            ));
        }
        Ok(())
    })
}

/// One thread draws a value and drops its handle while the other races
/// an eviction and a re-creation against it. The two values drawn must
/// be exactly `{0, 1}`, and a quiescent eviction must record watermark 2.
fn evict_handoff() -> Scenario<Vec<u64>> {
    let service = tiny_service();
    let draw = |service: &Arc<CounterService>, thread_id, evict_first| {
        let service = Arc::clone(service);
        Box::new(move || {
            if evict_first {
                // Absent, InUse and Evicted are all legal outcomes: the
                // invariant is on the values, not on who won the race.
                let _ = service.try_evict("tenant");
            }
            vec![service.get_or_create("tenant").next(thread_id)]
        }) as Thread<Vec<u64>>
    };
    let threads = vec![draw(&service, 0, false), draw(&service, 1, true)];
    Scenario::new(threads, move |outs| {
        let mut values: Vec<u64> = outs.iter().flatten().copied().collect();
        values.sort_unstable();
        if values != [0, 1] {
            return Err(format!(
                "the tenant stream forked or gapped: drew {values:?}, expected [0, 1]"
            ));
        }
        match service.try_evict("tenant") {
            EvictOutcome::Evicted { watermark: 2 } => {}
            other => return Err(format!("final eviction saw {other:?}, expected watermark 2")),
        }
        if service.watermark("tenant") != 2 {
            return Err("the recorded watermark did not survive the eviction".to_owned());
        }
        Ok(())
    })
}

/// Four requests against `limit = 2`: two in window 0, a straggler in
/// window 0 racing the opener of window 1. Each thread reports
/// `(window, admitted)`; no window may admit more than the limit, and
/// something must be admitted.
fn rate_straddle() -> Scenario<Vec<(u64, bool)>> {
    let limiter = Arc::new(RateLimiter::new(Arc::new(CentralCounter::new()), 2));
    let requests: [(usize, Vec<u64>); 3] = [(0, vec![0, 0]), (1, vec![1]), (2, vec![0])];
    let threads = requests
        .into_iter()
        .map(|(thread_id, windows)| {
            let limiter = Arc::clone(&limiter);
            Box::new(move || {
                windows
                    .into_iter()
                    .map(|window| (window, limiter.try_acquire(thread_id, window)))
                    .collect()
            }) as Thread<Vec<(u64, bool)>>
        })
        .collect();
    let limit = limiter.limit();
    Scenario::new(threads, move |outs| {
        let mut admitted_per_window = HashMap::new();
        for (window, _) in outs.iter().flatten().filter(|(_, admitted)| *admitted) {
            *admitted_per_window.entry(*window).or_insert(0u64) += 1;
        }
        for (window, admitted) in &admitted_per_window {
            if *admitted > limit {
                return Err(format!(
                    "window {window} admitted {admitted} requests, over the limit of {limit}"
                ));
            }
        }
        if admitted_per_window.is_empty() {
            return Err("every request was shed — the limiter admitted nothing".to_owned());
        }
        Ok(())
    })
}

/// One arrival races a releaser that frees far more capacity than there
/// are waiters (the second release is an overflow-baiting `u64::MAX`).
/// Every bound `admit` returns, and the quiescent `now_serving`, must stay
/// at or below the one ticket dispensed, and the releaser's bounds must
/// not go backwards.
fn ticket_admit_bound() -> Scenario<Vec<u64>> {
    let gate = Arc::new(TicketGate::new(Arc::new(CentralCounter::new())));
    let arrival = {
        let gate = Arc::clone(&gate);
        Box::new(move || vec![gate.acquire(0)]) as Thread<Vec<u64>>
    };
    let releaser = {
        let gate = Arc::clone(&gate);
        Box::new(move || vec![gate.admit(3), gate.admit(u64::MAX)]) as Thread<Vec<u64>>
    };
    Scenario::new(vec![arrival, releaser], move |outs| {
        let ticket = outs[0][0];
        if ticket != 0 {
            return Err(format!("the sole arrival drew ticket {ticket}, expected 0"));
        }
        let bounds = &outs[1];
        if let Some(bound) = bounds.iter().find(|&&bound| bound > 1) {
            return Err(format!("admit returned bound {bound} with only 1 ticket dispensed"));
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

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// Runs rows, prints one line per row and collects every failure.
#[derive(Default)]
struct Runner {
    failures: Vec<String>,
}

impl Runner {
    /// The real protocol explores to completion at [`CLEAN_BOUND`] with
    /// no counterexample and more than one execution.
    fn clean<T: Send + 'static>(&mut self, name: &str, scenario: fn() -> Scenario<T>) {
        let report = explore(&ModelConfig::with_preemptions(CLEAN_BOUND), scenario);
        let failure = if let Some(cex) = &report.counterexample {
            Some(format!("real counterexample:\n{cex}"))
        } else if !report.complete {
            Some(format!("exploration hit a budget after {} executions", report.executions))
        } else if report.executions <= 1 {
            Some("one execution: the scenario has no scheduling points".to_owned())
        } else {
            None
        };
        self.row(name, "clean", &report, failure);
    }

    /// The seeded mutation is caught at [`MUTATION_BOUND`] (by a message
    /// containing `message`, if given), its pinned schedule fails again on
    /// the mutant along the identical trace, and `fixed` survives it.
    fn caught<T: Send + 'static>(
        &mut self,
        name: &str,
        mutated: fn() -> Scenario<T>,
        fixed: fn() -> Scenario<T>,
        message: Option<&str>,
    ) {
        let config = ModelConfig::with_preemptions(MUTATION_BOUND);
        let report = explore(&config, mutated);
        let failure = match &report.counterexample {
            None => Some(format!(
                "mutation survived {} executions: the checker has no teeth",
                report.executions
            )),
            Some(cex) if message.is_some_and(|m| !cex.message.contains(m)) => {
                Some(format!("caught, but not with {message:?}:\n{cex}"))
            }
            Some(cex) => match replay(&config, mutated, &cex.trace) {
                Ok(()) => Some("the pinned schedule no longer fails on the mutant".to_owned()),
                Err(again) if again.trace != cex.trace => {
                    Some(format!("the replay left the pinned schedule:\n{again}"))
                }
                Err(_) => replay(&config, fixed, &cex.trace).err().map(|cex| {
                    format!("the fixed protocol failed the mutation's schedule:\n{cex}")
                }),
            },
        };
        self.row(name, "mutation", &report, failure);
    }

    fn row(&mut self, name: &str, kind: &str, report: &ExploreReport, failure: Option<String>) {
        println!(
            "| {name:<42} | {kind:<8} | {:>10} | {:>15} | {:>7} | {:>9} | {:<7} |",
            report.executions,
            report.decision_points,
            report.pruned_states,
            report.max_depth,
            if failure.is_some() { "FAIL" } else { "ok" },
        );
        if let Some(failure) = failure {
            self.failures.push(format!("{name}: {failure}"));
        }
    }
}

#[test]
fn every_protocol_explores_clean_and_every_seeded_mutation_is_caught() {
    println!(
        "| {:<42} | {:<8} | executions | decision points |  pruned | max depth | verdict |",
        "scenario", "kind"
    );
    let mut run = Runner::default();
    run.clean("arena: pair", arena_pair);
    run.clean("arena: trio, one slot", arena_trio);
    run.clean("arena: two slots, shared and own home", arena_homes);
    run.clean("service: evict/watermark hand-off", evict_handoff);
    run.clean("service: rate-limit window straddle", rate_straddle);
    run.clean("service: racing tenant reservations", reserve_race);
    run.clean("service: ticket admission bound", ticket_admit_bound);
    // Capture deposits without moving the slot through `CLAIMED`, so two
    // capturers consume one offer and the value stream forks.
    run.caught(
        "arena: skip CLAIMED (seeded)",
        || arena_trio().with_mutation("arena-skip-claimed"),
        arena_trio,
        None,
    );
    // `try_evict` skips the sole-ownership check: an in-flight
    // reservation escapes the watermark and both threads draw 0.
    run.caught(
        "service: evict in-use (seeded)",
        || evict_handoff().with_mutation("evict-in-use"),
        evict_handoff,
        None,
    );
    // The pre-fix admission path judges window 0's straggler against
    // window 1's base and window 0 admits three.
    run.caught(
        "service: pre-fix straddle (seeded)",
        || rate_straddle().with_mutation("rate-straddle"),
        rate_straddle,
        Some("over the limit"),
    );
    // The fast path reads `base` without the seqlock recheck: a judger
    // preempted between its epoch and base loads judges a late value
    // against the next window's base.
    run.caught(
        "service: torn epoch/base read (seeded)",
        || rate_straddle().with_mutation("rate-torn-base"),
        rate_straddle,
        Some("over the limit"),
    );
    // A reservation made of a load and a store: a second reservation
    // between them is overwritten and two callers draw one block.
    run.caught(
        "service: reserve by load + store (seeded)",
        || reserve_race().with_mutation("reserve-by-load-store"),
        reserve_race,
        Some("forked or gapped"),
    );
    // `admit` without its clamp pre-admits undispensed tickets, and the
    // `u64::MAX` release wraps the bound backwards.
    run.caught(
        "service: unclamped admit (seeded)",
        || ticket_admit_bound().with_mutation("ticket-unbounded"),
        ticket_admit_bound,
        None,
    );
    assert!(
        run.failures.is_empty(),
        "{} row(s) failed:\n{}",
        run.failures.len(),
        run.failures.join("\n")
    );
}
