//! Exhaustive interleaving checks for the elimination arena (the
//! `model` feature's reason to exist).
//!
//! Run with:
//!
//! ```text
//! cargo test -p counting-runtime --features model --test model_arena
//! ```
//!
//! Three kinds of test live here:
//!
//! * **Exploration** — the real protocol, explored to exhaustion within
//!   a preemption budget, must produce no counterexample.
//! * **Calibration** — a seeded protocol mutation (`arena-skip-claimed`)
//!   must be *caught*, and its trace must replay deterministically. If
//!   this fails, the checker has lost its teeth and every green
//!   exploration above is meaningless.
//! * **Pinned regression** — the calibration counterexample's exact
//!   schedule, replayed against the *fixed* protocol, must pass. This is
//!   the trace-pinning pattern every checker-found bug follows.

#![cfg(feature = "model")]

use counting_runtime::model_scenarios::{arena_pair, arena_probe, arena_trio, arena_trio_mutated};
use counting_sim::model::{explore, replay, ModelConfig};

/// Exploration must finish (no budget exhaustion) and find nothing.
fn assert_clean(config: &ModelConfig, name: &str, factory: impl FnMut() -> Scenario) {
    let report = explore(config, factory);
    assert!(
        report.complete,
        "{name}: exploration hit a budget before exhausting the schedule space: {report:?}"
    );
    if let Some(cex) = &report.counterexample {
        panic!("{name}: the checker found a real counterexample:\n{cex}");
    }
    assert!(
        report.executions > 1,
        "{name}: a single execution means no interleaving was actually explored"
    );
}

type Scenario = counting_sim::model::Scenario<Vec<u64>>;

#[test]
fn pair_is_clean_with_two_preemptions() {
    assert_clean(&ModelConfig::with_preemptions(2), "pair", arena_pair);
}

#[test]
fn trio_is_clean_with_two_preemptions() {
    assert_clean(&ModelConfig::with_preemptions(2), "trio", arena_trio);
}

#[test]
fn probe_window_is_clean() {
    assert_clean(&ModelConfig::with_preemptions(2), "probe", arena_probe);
}

#[test]
fn skipping_claimed_is_caught_and_replays() {
    let config = ModelConfig::with_preemptions(2);
    let report = explore(&config, arena_trio_mutated);
    let cex = report.counterexample.unwrap_or_else(|| {
        panic!(
            "the arena-skip-claimed mutation survived {} executions: \
             the checker has no teeth",
            report.executions
        )
    });

    // The counterexample must replay: same schedule, same verdict.
    let replayed = replay(&config, arena_trio_mutated, &cex.trace)
        .expect_err("the pinned schedule must still fail on the mutated protocol");
    assert_eq!(replayed.trace, cex.trace, "replay must follow the pinned schedule exactly");

    // And the *fixed* protocol must survive that exact schedule — the
    // pinned-regression pattern for every checker-found bug.
    if let Err(cex) = replay(&config, arena_trio, &cex.trace) {
        panic!("the real protocol failed the mutation's schedule:\n{cex}");
    }
}
