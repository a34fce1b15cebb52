//! Experiments E5/E6 (sanity slice): the contention claims of
//! Sections 1.3.1 and 1.3.2 in the stall-counting simulator.
//!
//! The full sweeps live in the benchmark harness (`crates/bench`); these
//! integration tests pin the qualitative facts so regressions are caught
//! by `cargo test`.

use counting_networks::baseline::{bitonic_counting_network, central_balancer, diffracting_tree};
use counting_networks::efficient::{
    block_of_layer, counting_network, cwt_contention_bound, BlockKind,
};
use counting_networks::net::Network;
use counting_networks::sim::{measure_contention, SchedulerKind};

#[test]
fn wider_output_width_lowers_contention_at_high_concurrency() {
    // Section 1.3.1: increasing t decreases contention while depth stays
    // fixed. Measured with lock-step scheduling at n = 16w.
    let w = 8usize;
    let n = 16 * w;
    let m = (n * 50) as u64;
    let mut previous = f64::INFINITY;
    for p in [1usize, 3, 8] {
        let net = counting_network(w, w * p).expect("valid");
        assert_eq!(net.depth(), 6, "depth must not depend on t");
        let c = measure_contention(&net, n, m, SchedulerKind::RoundRobin, 1).amortized_contention;
        assert!(
            c <= previous * 1.05,
            "contention should not increase with t (t={}: {c} vs previous {previous})",
            w * p
        );
        previous = c;
    }
}

#[test]
fn cwlgw_beats_bitonic_at_high_concurrency() {
    // The headline comparison: C(w, w·lgw) vs Bitonic[w] at n >= w·lgw.
    let w = 16usize;
    let lgw = w.trailing_zeros() as usize;
    let n = 8 * w;
    let m = (n * 40) as u64;
    let ours = counting_network(w, w * lgw).expect("valid");
    let bitonic = bitonic_counting_network(w).expect("valid");
    let c_ours = measure_contention(&ours, n, m, SchedulerKind::RoundRobin, 2).amortized_contention;
    let c_bitonic =
        measure_contention(&bitonic, n, m, SchedulerKind::RoundRobin, 2).amortized_contention;
    assert!(
        c_ours < c_bitonic,
        "C({w},{}) = {c_ours:.2} should be below Bitonic[{w}] = {c_bitonic:.2}",
        w * lgw
    );
}

#[test]
fn measured_contention_respects_the_theorem_6_7_bound() {
    // The bound is an upper bound over *all* schedules, so any measured
    // schedule must sit below it.
    for (w, t, n) in [(8usize, 8usize, 64usize), (8, 24, 64), (16, 16, 128), (16, 64, 128)] {
        let net = counting_network(w, t).expect("valid");
        let m = (n * 40) as u64;
        for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::GreedyHotspot] {
            let measured = measure_contention(&net, n, m, scheduler, 5).amortized_contention;
            let bound = cwt_contention_bound(n, w, t);
            assert!(
                measured <= bound,
                "C({w},{t}) at n={n} under {scheduler:?}: measured {measured:.1} exceeds bound {bound:.1}"
            );
        }
    }
}

#[test]
fn diffracting_tree_contention_grows_linearly_with_n() {
    // Section 1.4.1: the adversary piles every token on the root, so the
    // amortized contention is Θ(n). Even the greedy-hotspot heuristic
    // exposes growth proportional to n (within a factor), unlike C(w,t).
    let w = 16usize;
    let tree = diffracting_tree(w).expect("valid");
    let ours = counting_network(w, w * 4).expect("valid");
    let mut tree_prev = 0.0f64;
    for n in [16usize, 64, 256] {
        let m = (n * 30) as u64;
        let c_tree =
            measure_contention(&tree, n, m, SchedulerKind::RoundRobin, 6).amortized_contention;
        let c_ours =
            measure_contention(&ours, n, m, SchedulerKind::RoundRobin, 6).amortized_contention;
        assert!(c_tree >= tree_prev, "tree contention must not shrink with n");
        tree_prev = c_tree;
        if n >= 64 {
            assert!(
                c_tree > c_ours,
                "at n={n} the tree ({c_tree:.1}) should be worse than C(w,4w) ({c_ours:.1})"
            );
        }
    }
    // Linear shape: quadrupling n should multiply contention by roughly 4
    // (allow a wide margin for the heuristic scheduler).
    let c64 =
        measure_contention(&tree, 64, 64 * 30, SchedulerKind::RoundRobin, 6).amortized_contention;
    let c256 =
        measure_contention(&tree, 256, 256 * 30, SchedulerKind::RoundRobin, 6).amortized_contention;
    assert!(c256 / c64 > 2.0, "tree contention should scale ~linearly in n");
}

#[test]
fn a_network_in_front_of_one_cursor_does_not_relieve_it() {
    // E5e: C(4,16) cascaded onto one shared cursor (a central balancer on
    // its outputs) spreads the tokens, but every one still meets at the
    // cursor. It stalls at least as much per token as the bare cursor and
    // more than the network alone. Same schedule and 10 tokens per process
    // as `exp_contention --quick`.
    let w = 16usize;
    let cursor = central_balancer(w).expect("valid");
    let network = counting_network(4, w).expect("valid");
    let with_cursor = network.cascade(&cursor).expect("C(4,16) has 16 outputs");
    for n in [16usize, 32, 64] {
        let m = 10 * n as u64;
        let stalls = |net: &Network| {
            measure_contention(net, n, m, SchedulerKind::RoundRobin, 1).amortized_contention
        };
        let (bare, alone, cascaded) = (stalls(&cursor), stalls(&network), stalls(&with_cursor));
        assert!(
            cascaded >= bare,
            "n={n}: C(4,{w}) + cursor ({cascaded:.1}) relieved the bare cursor ({bare:.1})"
        );
        assert!(
            cascaded > alone,
            "n={n}: C(4,{w}) + cursor ({cascaded:.1}) stalls no more than C(4,{w}) ({alone:.1})"
        );
    }
}

#[test]
fn block_nc_dominates_total_stalls_but_shrinks_with_t() {
    // Section 1.3.2: Nc has most of the depth, so it collects most stalls;
    // increasing t reduces the per-token stalls inside Nc.
    let w = 16usize;
    let lgw = w.trailing_zeros() as usize;
    let n = 8 * w;
    let m = (n * 40) as u64;

    let mut nc_per_token = Vec::new();
    for p in [1usize, 4] {
        let t = w * p;
        let net = counting_network(w, t).expect("valid");
        let report = measure_contention(&net, n, m, SchedulerKind::RoundRobin, 7);
        let depth = net.depth();
        // Attribute layer stalls to blocks.
        let mut per_block = [0u64; 3];
        for layer in 1..=depth {
            let idx = match block_of_layer(w, layer) {
                BlockKind::A => 0,
                BlockKind::B => 1,
                BlockKind::C => 2,
            };
            per_block[idx] += report.per_layer_stalls[layer - 1];
        }
        nc_per_token.push(per_block[2] as f64 / m as f64);
        // Nc spans (lg²w - lgw)/2 = 6 of the 10 layers; with t = w it must
        // dominate the stall count.
        if p == 1 {
            assert!(
                per_block[2] > per_block[0] + per_block[1],
                "with t = w, Nc should collect the majority of stalls: {per_block:?}"
            );
        }
        let _ = lgw;
    }
    assert!(
        nc_per_token[1] < nc_per_token[0],
        "Nc contention should fall as t grows: {nc_per_token:?}"
    );
}
