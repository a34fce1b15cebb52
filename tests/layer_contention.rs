//! The layer-contention methodology of Section 6.2 (Corollary 6.4),
//! validated empirically.
//!
//! Corollary 6.4: a layer of balancers with maximum output width `q` and
//! layer output width `W`, whose input is `k`-smooth in every quiescent
//! state, has amortized contention at most `q·n/W + q·(k+1)`.
//!
//! In `C(w, t)` the layers of block `N_c` have `q = 2`, width `W = t`, and
//! their inputs are `s`-smooth with `s = ⌊w·lgw/t⌋ + 2` (Lemma 6.6 plus
//! Lemma 2.5). We measure per-layer stalls under the lock-step scheduler
//! and check each `N_c` layer against its bound, and we verify the peak
//! queue lengths shrink as `t` grows (the "wider is cooler" argument).
//! `e6_per_block_contention_respects_the_block_bounds` prints E6's
//! per-block table (Section 1.3.2) under `--nocapture`.

use bench::Table;
use counting_networks::efficient::{
    block_of_layer, blocks::block_depths, bounds::prefix_smoothness_bound,
    butterfly_contention_bound, counting_depth, counting_network, cwt_contention_bound,
    layer_contention_bound, BlockKind,
};
use counting_networks::sim::{measure_contention, SchedulerKind};

#[test]
fn nc_layer_contention_respects_corollary_6_4() {
    let w = 16usize;
    let n = 8 * w;
    let m = (n * 50) as u64;
    for p in [1usize, 4, 8] {
        let t = w * p;
        let net = counting_network(w, t).expect("valid");
        let report = measure_contention(&net, n, m, SchedulerKind::RoundRobin, 3);
        let s = prefix_smoothness_bound(w, t);
        let bound = layer_contention_bound(2, n, t, s);
        for layer in 1..=net.depth() {
            if block_of_layer(w, layer) != BlockKind::C {
                continue;
            }
            let measured = report.per_layer_stalls[layer - 1] as f64 / m as f64;
            assert!(
                measured <= bound,
                "C({w},{t}) layer {layer}: measured {measured:.2} exceeds Corollary 6.4 bound {bound:.2}"
            );
        }
    }
}

#[test]
fn peak_queues_in_nc_shrink_as_t_grows() {
    let w = 16usize;
    let n = 8 * w;
    let m = (n * 50) as u64;
    let mut peaks = Vec::new();
    for p in [1usize, 8] {
        let t = w * p;
        let net = counting_network(w, t).expect("valid");
        let report = measure_contention(&net, n, m, SchedulerKind::RoundRobin, 3);
        // The hottest queue anywhere inside block Nc.
        let peak = net
            .layers()
            .iter()
            .enumerate()
            .filter(|(i, _)| block_of_layer(w, i + 1) == BlockKind::C)
            .flat_map(|(_, layer)| layer.iter())
            .map(|id| report.per_balancer_peak_waiting[id.index()])
            .max()
            .expect("Nc is non-empty");
        peaks.push(peak);
    }
    assert!(peaks[1] <= peaks[0], "peak Nc queue should not grow when t grows: {peaks:?}");
}

#[test]
fn every_balancer_processes_as_many_tokens_as_its_stalls_require() {
    // Internal consistency of the stall accounting: a balancer that
    // processed T tokens can have caused at most T·(peak-1) stalls.
    let net = counting_network(8, 16).expect("valid");
    let report = measure_contention(&net, 32, 32 * 60, SchedulerKind::GreedyHotspot, 11);
    for i in 0..net.num_balancers() {
        let t = report.per_balancer_traversals[i];
        let stalls = report.per_balancer_stalls[i];
        let peak = report.per_balancer_peak_waiting[i];
        assert!(peak >= 1, "every balancer saw at least one waiter");
        assert!(
            stalls <= t.saturating_mul(peak.saturating_sub(1)),
            "balancer {i}: {stalls} stalls cannot arise from {t} traversals with peak queue {peak}"
        );
    }
}

/// E6: the measured stalls of `C(16, t)` attributed to the blocks `N_a`,
/// `N_b`, `N_c`. `N_a,b` is isomorphic to a butterfly and stays under
/// Lemma 6.5 with the same stalls at every `t`; each of the
/// `(lg²w − lg w)/2` layers of `N_c` stays under Corollary 6.4, and the
/// block cools down as `t` grows.
#[test]
fn e6_per_block_contention_respects_the_block_bounds() {
    let w = 16usize;
    let n = 8 * w;
    let m = 60 * n as u64;
    let nc_layers = block_depths(w).2 as f64;

    println!("## E6 — per-block amortized contention of C({w}, t), n = {n}, round-robin\n");
    let mut table = Table::new(vec![
        "t",
        "depth",
        "Na stalls/token",
        "Nb stalls/token",
        "Nc stalls/token",
        "total",
    ]);
    let mut first: Option<[f64; 3]> = None;
    for p in [1usize, 2, 4, 8, 16] {
        let t = w * p;
        let net = counting_network(w, t).expect("valid");
        let report = measure_contention(&net, n, m, SchedulerKind::RoundRobin, 1);
        let mut per_block = [0u64; 3];
        for layer in 1..=net.depth() {
            let idx = match block_of_layer(w, layer) {
                BlockKind::A => 0,
                BlockKind::B => 1,
                BlockKind::C => 2,
            };
            per_block[idx] += report.per_layer_stalls[layer - 1];
        }
        let [na, nb, nc] = per_block.map(|stalls| stalls as f64 / m as f64);
        assert_eq!(net.depth(), counting_depth(w), "C({w},{t})");
        let butterfly = butterfly_contention_bound(n, w);
        assert!(
            na + nb <= butterfly,
            "C({w},{t}): N_a,b {:.2} > Lemma 6.5 {butterfly:.2}",
            na + nb
        );
        let nc_bound = nc_layers * layer_contention_bound(2, n, t, prefix_smoothness_bound(w, t));
        assert!(nc <= nc_bound, "C({w},{t}): N_c {nc:.2} > Corollary 6.4 per layer {nc_bound:.2}");
        let total = report.amortized_contention;
        assert!(total <= cwt_contention_bound(n, w, t), "C({w},{t}): total {total:.2}");
        match first {
            None => {
                assert!(nc > na + nb, "with t = w, N_c must collect most stalls: {per_block:?}");
                first = Some([na, nb, nc]);
            }
            Some([na_w, nb_w, nc_prev]) => {
                assert_eq!([na, nb], [na_w, nb_w], "N_a and N_b must not depend on t = {t}");
                assert!(
                    nc < nc_prev,
                    "C({w},{t}): N_c must cool as t grows ({nc:.2} vs {nc_prev:.2})"
                );
                first = Some([na_w, nb_w, nc]);
            }
        }
        table.push_row(vec![
            t.to_string(),
            net.depth().to_string(),
            format!("{na:.2}"),
            format!("{nb:.2}"),
            format!("{nc:.2}"),
            format!("{total:.2}"),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "Reading the table: Na and Nb have fixed width w, so their per-token stalls are\n\
         essentially independent of t; Nc has width t and dominates the depth, and its\n\
         per-token stalls fall as t grows — exactly the structural argument of\n\
         Section 1.3.2 for why contention decreases with t."
    );
}
