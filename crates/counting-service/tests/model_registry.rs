//! Exhaustive interleaving checks for the service layer: tenant
//! eviction/watermark hand-off, racing reservations on one tenant word
//! and the rate limiter's window rollover.
//!
//! Run with:
//!
//! ```text
//! cargo test -p counting-service --features model --test model_registry
//! ```
//!
//! Structure mirrors `counting-runtime/tests/model_arena.rs`: clean
//! explorations of the real protocols, calibration mutations that must
//! be caught, and pinned-trace replays of each mutation's counterexample
//! against the fixed code.

#![cfg(feature = "model")]

use counting_service::model_scenarios::{
    evict_handoff, evict_handoff_mutated, rate_straddle, rate_straddle_mutated,
    rate_torn_base_mutated, reserve_race, reserve_race_mutated, ticket_admit_bound,
    ticket_admit_bound_mutated,
};
use counting_sim::model::{explore, replay, Counterexample, ModelConfig, Scenario};

/// The real protocol explores to completion, clean, at two preemptions.
fn assert_clean<T: Send + 'static>(protocol: &str, scenario: fn() -> Scenario<T>) {
    let report = explore(&ModelConfig::with_preemptions(2), scenario);
    assert!(report.complete, "exploration hit a budget: {report:?}");
    if let Some(cex) = &report.counterexample {
        panic!("{protocol} has a real counterexample:\n{cex}");
    }
    assert!(report.executions > 1, "no interleaving was actually explored");
}

/// The seeded mutation is caught at two preemptions, its pinned schedule
/// still fails on the mutant, and the real protocol survives that exact
/// schedule. Returns the counterexample.
fn assert_caught<T: Send + 'static>(
    mutation: &str,
    mutated: fn() -> Scenario<T>,
    fixed: fn() -> Scenario<T>,
) -> Counterexample {
    let config = ModelConfig::with_preemptions(2);
    let report = explore(&config, mutated);
    let cex = report.counterexample.unwrap_or_else(|| {
        panic!(
            "the {mutation} mutation survived {} executions: the checker has no teeth",
            report.executions
        )
    });
    replay(&config, mutated, &cex.trace)
        .expect_err("the pinned schedule must still fail on the mutated protocol");
    if let Err(cex) = replay(&config, fixed, &cex.trace) {
        panic!("the real protocol failed the {mutation} schedule:\n{cex}");
    }
    cex
}

#[test]
fn evict_handoff_is_clean_with_two_preemptions() {
    assert_clean("the eviction hand-off", evict_handoff);
}

#[test]
fn reserve_race_is_clean_with_two_preemptions() {
    assert_clean("racing reservations", reserve_race);
}

#[test]
fn rate_straddle_is_clean_with_two_preemptions() {
    assert_clean("the fixed rate limiter", rate_straddle);
}

#[test]
fn ticket_admission_bound_is_clean_with_two_preemptions() {
    assert_clean("the clamped ticket gate", ticket_admit_bound);
}

/// With the sole-ownership check skipped, an in-flight reservation
/// escapes the watermark and the recreated tenant forks its stream.
#[test]
fn evicting_an_in_use_tenant_is_caught_and_replays() {
    assert_caught("evict-in-use", evict_handoff_mutated, evict_handoff);
}

/// With a reservation made of a load and a store, a reservation that
/// lands between them is overwritten and two callers draw one block;
/// the `fetch_add` survives the same schedule.
#[test]
fn reserving_by_load_and_store_is_caught_and_replays() {
    let cex = assert_caught("reserve-by-load-store", reserve_race_mutated, reserve_race);
    assert!(cex.message.contains("forked or gapped"), "not a forked stream: {}", cex.message);
}

/// The pre-fix admission path judges a closed window's straggler
/// against the current base and over-admits; the seqlock'd limiter
/// survives the same schedule.
#[test]
fn window_straddling_burst_is_caught_and_replays() {
    let cex = assert_caught("rate-straddle", rate_straddle_mutated, rate_straddle);
    assert!(cex.message.contains("over the limit"), "not an over-admission: {}", cex.message);
}

/// Regression for the torn epoch/base read: with the seqlock recheck
/// skipped, a judger preempted between its epoch and base loads judges a
/// late value against the *next* window's base and over-admits a closed
/// window; the versioned read survives the same schedule.
#[test]
fn torn_base_read_is_caught_and_replays() {
    let cex = assert_caught("rate-torn-base", rate_torn_base_mutated, rate_straddle);
    assert!(cex.message.contains("over the limit"), "not an over-admission: {}", cex.message);
}

/// Regression for the unbounded `TicketGate::admit`: with the clamp
/// removed, releasing capacity into a waiting room with one ticket
/// pre-admits tickets that were never dispensed (and the
/// overflow-baiting second release wraps the bound).
#[test]
fn unclamped_admit_is_caught_and_replays() {
    assert_caught("ticket-unbounded", ticket_admit_bound_mutated, ticket_admit_bound);
}
