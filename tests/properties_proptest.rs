//! Property-based tests (proptest) over the core invariants.
//!
//! These complement the randomized checks inside the crates with shrinking
//! counterexample search over:
//!
//! * sequence lemmas (Section 2.1),
//! * the counting property of `C(w, t)` and of the baselines (E3),
//! * the difference-merging contract of `M(t, δ)`,
//! * butterfly smoothing (E4),
//! * agreement between the closed-form quiescent evaluation and the
//!   explicit token executor,
//! * Fetch&Increment value assignment,
//! * the sorting byproduct (E8).

use counting_networks::baseline::{bitonic_counting_network, periodic_counting_network};
use counting_networks::efficient::{counting_network, forward_butterfly, merging_network};
use counting_networks::net::{
    assign_counter_values, balancer_step_output, is_k_smooth, is_step, quiescent_output,
    step_sequence, TokenExecutor,
};
use counting_networks::runtime::stress::{run_stress, Batching, Scenario, StressConfig};
use counting_networks::runtime::{
    CentralCounter, EliminationCounter, NetworkCounter, SharedCounter,
};
use counting_networks::sorting::ComparatorNetwork;
use proptest::prelude::*;

/// Strategy: a power-of-two width 2..=16 together with an input sequence.
fn width_and_input(max_tokens: u64) -> impl Strategy<Value = (usize, Vec<u64>)> {
    (1usize..=4).prop_flat_map(move |k| {
        let w = 1usize << k;
        (Just(w), proptest::collection::vec(0..=max_tokens, w))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_step_sequences_are_step((total, width) in (0u64..10_000, 1usize..64)) {
        let s = step_sequence(total, width);
        prop_assert!(is_step(&s));
        prop_assert_eq!(s.iter().sum::<u64>(), total);
    }

    #[test]
    fn balancer_outputs_are_step_and_sum_preserving((total, q) in (0u64..10_000, 1usize..32)) {
        let out = balancer_step_output(total, q);
        prop_assert!(is_step(&out));
        prop_assert_eq!(out.iter().sum::<u64>(), total);
    }

    #[test]
    fn lemma_2_1_subsequences_of_step_sequences_are_step(
        (total, width) in (0u64..1_000, 2usize..40),
        // a bitmask choosing the subsequence
        mask in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let s = step_sequence(total, width);
        let sub: Vec<u64> = s.iter().zip(&mask).filter(|(_, &m)| m).map(|(&v, _)| v).collect();
        prop_assert!(is_step(&sub));
    }

    #[test]
    fn cwt_counts_for_all_inputs((w, input) in width_and_input(64), p in 1usize..4) {
        let t = w * p;
        let net = counting_network(w, t).expect("valid");
        let out = quiescent_output(&net, &input);
        prop_assert!(is_step(&out), "C({},{}) on {:?} -> {:?}", w, t, input, out);
        prop_assert_eq!(out.iter().sum::<u64>(), input.iter().sum::<u64>());
    }

    #[test]
    fn bitonic_and_periodic_count_for_all_inputs((w, input) in width_and_input(64)) {
        let bitonic = bitonic_counting_network(w).expect("valid");
        prop_assert!(is_step(&quiescent_output(&bitonic, &input)));
        let periodic = periodic_counting_network(w).expect("valid");
        prop_assert!(is_step(&quiescent_output(&periodic, &input)));
    }

    #[test]
    fn merger_contract_holds(
        k in 1usize..4,          // delta = 2^k
        factor in 1usize..4,     // t = factor * 2^(k+1)
        sum_y in 0u64..500,
        diff_frac in 0u64..=100,
    ) {
        let delta = 1usize << k;
        let t = factor * 2 * delta;
        let diff = diff_frac * delta as u64 / 100;
        let sum_x = sum_y + diff;
        let net = merging_network(t, delta).expect("valid");
        let mut input = step_sequence(sum_x, t / 2);
        input.extend(step_sequence(sum_y, t / 2));
        let out = quiescent_output(&net, &input);
        prop_assert!(is_step(&out), "M({},{}) Σx={} Σy={}", t, delta, sum_x, sum_y);
    }

    #[test]
    fn butterfly_is_lgw_smoothing((w, input) in width_and_input(200)) {
        let d = forward_butterfly(w).expect("valid");
        let out = quiescent_output(&d, &input);
        prop_assert!(is_k_smooth(&out, w.trailing_zeros() as u64));
    }

    #[test]
    fn token_executor_agrees_with_closed_form((w, input) in width_and_input(32), p in 1usize..3) {
        let net = counting_network(w, w * p).expect("valid");
        let mut exec = TokenExecutor::new(&net);
        exec.inject_sequence(&input);
        prop_assert_eq!(exec.output_counts(), quiescent_output(&net, &input));
    }

    #[test]
    fn fetch_increment_values_partition_the_range((w, input) in width_and_input(32)) {
        let net = counting_network(w, 2 * w).expect("valid");
        let out = quiescent_output(&net, &input);
        let m: u64 = input.iter().sum();
        let mut values: Vec<u64> = assign_counter_values(&out).into_iter().flatten().collect();
        values.sort_unstable();
        prop_assert_eq!(values, (0..m).collect::<Vec<_>>());
    }

    #[test]
    fn derived_sorter_sorts_arbitrary_data(
        k in 1usize..5,
        data in proptest::collection::vec(0u32..1_000, 32),
    ) {
        let w = 1usize << k;
        let net = counting_network(w, w).expect("valid");
        let sorter = ComparatorNetwork::from_balancing(net).expect("regular");
        let slice = &data[..w];
        let out = sorter.apply(slice);
        let mut expected = slice.to_vec();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn threaded_network_counter_hands_out_the_exact_range(
        (w, p) in (1usize..=3).prop_flat_map(|k| (Just(1usize << k), 1usize..=3)),
        ops_per_thread in 1u64..=32,
        batch in 1usize..=3,
    ) {
        // Real-thread Fetch&Increment over a random valid C(w, t): the
        // values handed out must be exactly 0..m. For batched runs the
        // total traversal count must be a multiple of t (see
        // `SharedCounter::next_batch`), so round the per-thread quota up
        // to a multiple of t (8 threads × multiple of t stays one).
        let t = w * p;
        let ops_per_thread = if batch > 1 {
            ops_per_thread.div_ceil(t as u64) * t as u64
        } else {
            ops_per_thread
        };
        let net = counting_network(w, t).expect("valid");
        let counter = NetworkCounter::new(format!("C({w},{t})"), &net);
        let config = StressConfig {
            threads: 8,
            ops_per_thread,
            batch: Batching::Fixed(batch),
            scenario: Scenario::Steady,
            record_tokens: false,
        };
        let report = run_stress(&counter, &config);
        prop_assert!(
            report.is_exact_range(),
            "C({},{}) ops={} batch={}: {:?}", w, t, ops_per_thread, batch, report
        );
    }

    #[test]
    fn mixed_batches_through_elimination_hand_out_the_exact_range(
        // Random per-thread batch-size sequences, mixed k ∈ 1..=32 — the
        // workload whose exact-range guarantee raw stride reservations
        // cannot provide. Every counter, routed through the elimination
        // layer, must hand out exactly 0..m; shrinking finds the minimal
        // offending size mix if the split logic ever regresses.
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1usize..=32, 0..6),
            8,
        ),
        slots in 1usize..=4,
        spin in 0usize..=256,
    ) {
        type Make = fn(usize, usize) -> Box<dyn SharedCounter + Send + Sync>;
        let make: [(&str, Make); 2] = [
            ("C(4,8)", |s, p| {
                let net = counting_network(4, 8).expect("valid");
                Box::new(EliminationCounter::with_arena(NetworkCounter::new("C(4,8)", &net), s, p))
            }),
            ("central", |s, p| Box::new(EliminationCounter::with_arena(CentralCounter::new(), s, p))),
        ];
        let m: u64 = per_thread.iter().flatten().map(|&k| k as u64).sum();
        for (name, factory) in make {
            // The arena geometry is part of the explored space.
            let counter = factory(slots, spin);
            let values = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for (tid, sizes) in per_thread.iter().enumerate() {
                    let counter = counter.as_ref();
                    let values = &values;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        for &k in sizes {
                            counter.next_batch(tid, k, &mut local);
                        }
                        values.lock().expect("poisoned").extend(local);
                    });
                }
            });
            let mut values = values.into_inner().expect("poisoned");
            values.sort_unstable();
            prop_assert_eq!(
                &values,
                &(0..m).collect::<Vec<_>>(),
                "{} handed out a broken range for sizes {:?}",
                name,
                per_thread
            );
        }
    }

    #[test]
    fn counting_is_schedule_independent((w, input) in width_and_input(16), seed in any::<u64>()) {
        // Injecting the same per-wire token counts in a different
        // interleaving leaves the quiescent output unchanged.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let net = counting_network(w, w).expect("valid");
        let mut order: Vec<usize> = input
            .iter()
            .enumerate()
            .flat_map(|(wire, &count)| std::iter::repeat_n(wire, count as usize))
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let mut exec = TokenExecutor::new(&net);
        for wire in order {
            exec.inject(wire);
        }
        prop_assert_eq!(exec.output_counts(), quiescent_output(&net, &input));
    }
}
