//! Torture suite: real threads × adversarial workload scenarios × every
//! counter implementation, with the Fetch&Increment contract checked
//! online by the stress harness (`counting_networks::runtime::stress`).
//!
//! Every cell of the matrix drives ≥ 8 real threads and verifies that the
//! handed-out values are exactly `0..m` — no duplicates, no gaps, nothing
//! out of range — and both the batched fast path (`next_batch`) and the
//! mixed-batch-size elimination layer are exercised under the same
//! torture. `STRESS_TORTURE_OPS` scales the per-thread operation count
//! (CI runs tier-1 with a small value to keep it fast; the nightly
//! torture job raises it).

use counting_networks::baseline::{
    bitonic_counting_network, diffracting_tree, periodic_counting_network,
};
use counting_networks::efficient::counting_network;
use counting_networks::net::Network;
use counting_networks::runtime::stress::{run_stress, Batching, Scenario, StressConfig};
use counting_networks::runtime::{
    CentralCounter, EliminationCounter, NetworkCounter, SharedCounter,
};

const THREADS: usize = 8;

/// Per-thread operations per run = `24 × scale`, so a run makes
/// `8 × 24 × scale = 192 × scale` traversals: 192 is a common multiple of
/// every output width in the matrix (8, 16, 24 and 64), so batched stride
/// reservations tile the value range exactly at quiescence (see
/// `SharedCounter::next_batch`).
fn ops_scale() -> u64 {
    std::env::var("STRESS_TORTURE_OPS").ok().and_then(|s| s.parse().ok()).unwrap_or(25)
}

fn scenarios() -> [Scenario; 5] {
    [
        Scenario::Steady,
        Scenario::Bursty { phases: 6 },
        Scenario::Skewed { groups: 2 },
        Scenario::Churn { stagger_micros: 200 },
        Scenario::Oscillating { pulses: 6 },
    ]
}

/// A named factory producing a fresh counter per run (a counter hands out
/// each value once).
type CounterFactory = (String, Box<dyn Fn() -> Box<dyn SharedCounter>>);

/// The counter matrix: the paper's `C(w,t)` at widths 8 and 16, the
/// bitonic and periodic baselines, the structural diffracting tree, and
/// the centralized baseline.
fn counters() -> Vec<CounterFactory> {
    fn network(name: &'static str, net: Network) -> CounterFactory {
        (name.to_owned(), Box::new(move || Box::new(NetworkCounter::new(name, &net))))
    }
    vec![
        network("C(8,8)", counting_network(8, 8).expect("valid")),
        network("C(8,24)", counting_network(8, 24).expect("valid")),
        network("C(16,16)", counting_network(16, 16).expect("valid")),
        network("C(16,64)", counting_network(16, 64).expect("valid")),
        network("Bitonic[8]", bitonic_counting_network(8).expect("valid")),
        network("Periodic[8]", periodic_counting_network(8).expect("valid")),
        network("DiffTree[8]", diffracting_tree(8).expect("valid")),
        ("central".to_owned(), Box::new(|| Box::new(CentralCounter::new()))),
    ]
}

#[test]
fn torture_matrix_unbatched_hands_out_the_exact_range() {
    let ops_per_thread = 24 * ops_scale();
    for (name, make) in counters() {
        for scenario in scenarios() {
            let config = StressConfig {
                threads: THREADS,
                ops_per_thread,
                batch: Batching::Fixed(1),
                scenario,
                record_tokens: false,
            };
            let report = run_stress(make().as_ref(), &config);
            assert!(
                report.is_exact_range(),
                "{name} under {scenario:?} broke the counting contract: {report:?}"
            );
            assert_eq!(report.total_values, THREADS as u64 * ops_per_thread);
        }
    }
}

#[test]
fn torture_matrix_batched_hands_out_the_exact_range() {
    // Batches of 4: total traversals (8 threads × 24·scale ops) stay a
    // multiple of every output width, so the exact-range guarantee of
    // `next_batch` applies. Uniform batches through the arena must stay
    // exact too.
    let ops_per_thread = 24 * ops_scale();
    for (name, make) in counters().into_iter().chain(elimination_counters()) {
        for scenario in [scenarios()[0], scenarios()[1], scenarios()[2]] {
            let config = StressConfig {
                threads: THREADS,
                ops_per_thread,
                batch: Batching::Fixed(4),
                scenario,
                record_tokens: false,
            };
            let report = run_stress(make().as_ref(), &config);
            assert!(
                report.is_exact_range(),
                "{name} with next_batch(4) under {scenario:?} broke the counting contract: \
                 {report:?}"
            );
            assert_eq!(report.total_values, THREADS as u64 * ops_per_thread * 4);
        }
    }
}

/// The two counters of the elimination matrix, each wrapped in the
/// arena layer (fresh per run).
fn elimination_counters() -> Vec<CounterFactory> {
    vec![
        (
            "C(8,24)+elim".to_owned(),
            Box::new(|| {
                let net = counting_network(8, 24).expect("valid");
                Box::new(EliminationCounter::new(NetworkCounter::new("C(8,24)", &net)))
            }),
        ),
        (
            "central+elim".to_owned(),
            Box::new(|| Box::new(EliminationCounter::new(CentralCounter::new()))),
        ),
    ]
}

#[test]
fn torture_matrix_mixed_batches_through_elimination_hand_out_the_exact_range() {
    // The restriction-lifting matrix: 8 threads, *random* batch sizes
    // (`1..=8`, per-thread deterministic streams), an op count with no
    // divisibility relationship to any output width, both counters,
    // all five scenarios. Through the elimination layer the uniqueness
    // and exact-range online checks must pass unconditionally.
    let ops_per_thread = 24 * ops_scale() + 7; // deliberately not a multiple of anything
    for (name, make) in elimination_counters() {
        for scenario in scenarios() {
            let config = StressConfig {
                threads: THREADS,
                ops_per_thread,
                batch: Batching::Mixed { max_k: 8, seed: 0xE11A },
                scenario,
                record_tokens: false,
            };
            let report = run_stress(make().as_ref(), &config);
            assert!(
                report.is_exact_range(),
                "{name} with mixed batches under {scenario:?} broke the counting contract: \
                 {report:?}"
            );
            assert_eq!(report.total_values, config.total_values());
        }
    }
}

#[test]
fn the_central_counter_is_linearizable_on_real_hardware() {
    // The central counter assigns the value at a point between the two
    // timestamps, so non-overlapping operations can never invert values:
    // measured violations must be exactly zero.
    let config = StressConfig {
        threads: THREADS,
        ops_per_thread: 24 * ops_scale(),
        batch: Batching::Fixed(1),
        scenario: Scenario::Steady,
        record_tokens: true,
    };
    let report = run_stress(&CentralCounter::new(), &config);
    assert_eq!(report.linearizability_violations, Some(0), "must be linearizable: {report:?}");
    assert!(report.is_exact_range());
}

#[test]
fn network_counters_report_a_linearizability_measurement() {
    // Counting networks are not linearizable in general (Section 1.4.2);
    // on real hardware a given run may or may not exhibit a violation, so
    // the harness measures rather than asserts. The measurement must be
    // present and the counting contract must hold regardless.
    let net = counting_network(8, 24).expect("valid");
    let counter = NetworkCounter::new("C(8,24)", &net);
    let config = StressConfig {
        threads: THREADS,
        ops_per_thread: 24 * ops_scale(),
        batch: Batching::Fixed(1),
        scenario: Scenario::Bursty { phases: 4 },
        record_tokens: true,
    };
    let report = run_stress(&counter, &config);
    assert!(report.linearizability_violations.is_some());
    assert!(report.is_exact_range(), "{report:?}");
}

#[test]
fn skew_extremes_funnel_every_thread_onto_one_wire() {
    // groups = 1 is the worst skew: all 8 threads enter on input wire 0.
    let net = counting_network(8, 8).expect("valid");
    let counter = NetworkCounter::new("C(8,8)", &net);
    let config = StressConfig {
        threads: THREADS,
        ops_per_thread: 24 * ops_scale(),
        batch: Batching::Fixed(1),
        scenario: Scenario::Skewed { groups: 1 },
        record_tokens: false,
    };
    let report = run_stress(&counter, &config);
    assert!(report.is_exact_range(), "{report:?}");
}

#[test]
fn churn_with_wide_stagger_still_counts_exactly() {
    // A coarse stagger makes early threads finish before late ones start —
    // maximal arrival/departure churn.
    let net = counting_network(8, 8).expect("valid");
    let counter = NetworkCounter::new("C(8,8)", &net);
    let config = StressConfig {
        threads: THREADS,
        ops_per_thread: 24 * ops_scale().min(10),
        batch: Batching::Fixed(1),
        scenario: Scenario::Churn { stagger_micros: 2_000 },
        record_tokens: false,
    };
    let report = run_stress(&counter, &config);
    assert!(report.is_exact_range(), "{report:?}");
}
