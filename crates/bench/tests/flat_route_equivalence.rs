//! Traversal equivalence: the flat-route `CompiledNetwork` (one
//! contiguous route table + packed per-balancer meta words, with a
//! bitmask fast path for power-of-two fan-outs) must be observationally
//! identical to the sequential reference walker `balnet::TokenExecutor`
//! on every topology family the paper evaluates — the efficient `C(w,t)`
//! (both depth regimes; `C(8,24)`'s fan-out-6 balancers take the `%`
//! branch), the bitonic and periodic baselines, and the diffracting tree.

use balnet::{BalancerState, TokenExecutor};
use bench::comparison_suite;
use counting_runtime::CompiledNetwork;

const TOKENS: usize = 600;

#[test]
fn flat_route_agrees_with_token_executor_token_for_token_on_every_family() {
    for named in comparison_suite(8) {
        let flat = CompiledNetwork::new(&named.network);
        let mut reference = TokenExecutor::new(&named.network);
        assert_eq!(flat.input_width(), named.network.input_width(), "{}", named.name);
        assert_eq!(flat.output_width(), named.network.output_width(), "{}", named.name);
        let w = flat.input_width();
        for i in 0..TOKENS {
            let wire = (i * 7 + 3) % w;
            assert_eq!(
                flat.traverse(wire),
                reference.inject(wire).0,
                "{}: token {i} on wire {wire} diverged",
                named.name
            );
        }
        let reference_loads: Vec<u64> =
            reference.balancer_states().iter().map(BalancerState::processed).collect();
        assert_eq!(
            flat.balancer_loads(),
            reference_loads,
            "{}: same tokens must load every balancer identically",
            named.name
        );
    }
}

#[test]
fn flat_quiescent_counts_match_the_outputs_actually_handed_out() {
    for named in comparison_suite(8) {
        let flat = CompiledNetwork::new(&named.network);
        let w = flat.input_width();
        let mut seen = vec![0u64; flat.output_width()];
        for i in 0..TOKENS {
            seen[flat.traverse((i * 5 + 1) % w)] += 1;
        }
        assert_eq!(
            flat.quiescent_output_counts(),
            seen,
            "{}: quiescent reconstruction disagrees with the observed outputs",
            named.name
        );
    }
}
