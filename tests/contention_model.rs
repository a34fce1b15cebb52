//! Experiments E5/E6: the contention claims of Sections 1.3.1 and 1.3.2
//! in the stall-counting simulator.
//!
//! `e5_measured_contention_tracks_theorem_6_7` prints E5's sweeps under
//! `--nocapture` and asserts their claims; the other tests pin the same
//! qualitative facts at other sizes and seeds. E6's per-block table lives
//! in `layer_contention.rs`.

use bench::{comparison_suite, Table};
use counting_networks::baseline::{bitonic_counting_network, central_balancer, diffracting_tree};
use counting_networks::efficient::{
    bitonic_contention_estimate, block_of_layer, counting_depth, counting_network,
    cwt_contention_bound, periodic_contention_estimate, BlockKind,
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

/// E5 (Theorem 6.7 and the comparison of Section 1.3.1): amortized
/// contention (stalls per token) of the comparison suite at w = 16 under
/// the lock-step and the greedy-hotspot schedules, next to the bounds;
/// E5d varies `t`, and E5e asks whether `C(4,16)` in front of one shared
/// cursor relieves it — why a tenant is one bare word: from n = 16 on,
/// the cascade stalls at least as much per token as the bare cursor and
/// more than the network alone. Ten tokens per process keep the debug
/// build fast.
#[test]
fn e5_measured_contention_tracks_theorem_6_7() {
    let w = 16usize;
    let lgw = w.trailing_zeros() as usize;
    let tokens_per_process = 10u64;
    let stalls = |net: &Network, n: usize, scheduler| {
        let m = tokens_per_process * n as u64;
        measure_contention(net, n, m, scheduler, 1).amortized_contention
    };
    let concurrencies = [w / 2, w, 2 * w, 4 * w, 8 * w, 16 * w];
    let mut header = vec!["network".to_owned()];
    header.extend(concurrencies.iter().map(|n| format!("n={n}")));
    let suite = comparison_suite(w);
    // Rows 0 and 1 are C(w, w) and C(w, w·lgw); rows 2.. the baselines,
    // the diffracting tree last.
    let suite_t = [w, w * lgw];
    let sweep = |scheduler| -> Vec<Vec<f64>> {
        let sweep: Vec<Vec<f64>> = suite
            .iter()
            .map(|named| {
                concurrencies.iter().map(|&n| stalls(&named.network, n, scheduler)).collect()
            })
            .collect();
        for (i, &n) in concurrencies.iter().enumerate() {
            let column: Vec<f64> = sweep.iter().map(|row| row[i]).collect();
            for (c, t) in column.iter().zip(suite_t) {
                let bound = cwt_contention_bound(n, w, t);
                assert!(
                    *c <= bound,
                    "C({w},{t}) at n={n}, {scheduler:?}: {c:.1} > bound {bound:.1}"
                );
            }
            let wide = column[1];
            assert!(
                column.iter().skip(2).all(|&baseline| wide < baseline),
                "n={n}, {scheduler:?}: C({w},{}) is not below every baseline: {column:?}",
                w * lgw
            );
        }
        sweep
    };
    let print_sweep = |sweep: &[Vec<f64>]| {
        let mut table = Table::new(header.clone());
        for (named, measured) in suite.iter().zip(sweep) {
            let mut row = vec![named.name.clone()];
            row.extend(measured.iter().map(|c| format!("{c:.1}")));
            table.push_row(row);
        }
        println!("{}", table.to_markdown());
    };

    println!("## E5a — measured amortized contention, round-robin schedule, w = {w}\n");
    let round_robin = sweep(SchedulerKind::RoundRobin);
    let (narrow, wide, tree) = (&round_robin[0], &round_robin[1], &round_robin[4]);
    assert!(wide.iter().zip(narrow).all(|(a, b)| a < b), "t = w·lgw must beat t = w: {wide:?}");
    assert!(tree.windows(2).all(|p| p[0] < p[1]), "tree contention must grow with n: {tree:?}");
    print_sweep(&round_robin);

    println!("## E5b — the same sweep under the greedy-hotspot adversary\n");
    let greedy = sweep(SchedulerKind::GreedyHotspot);
    for (i, n) in concurrencies.iter().enumerate() {
        let column: Vec<f64> = greedy.iter().map(|row| row[i]).collect();
        assert!(
            column[..4].iter().all(|&c| c < column[4]),
            "n={n}: the adversary must hurt the diffracting tree most: {column:?}"
        );
    }
    print_sweep(&greedy);

    println!("## E5c — theoretical references at the same parameters\n");
    let mut table = Table::new(header);
    type BoundFn = Box<dyn Fn(usize) -> f64>;
    let bounds: Vec<(String, BoundFn)> = vec![
        (format!("Thm 6.7, t={w}"), Box::new(move |n| cwt_contention_bound(n, w, w))),
        (format!("Thm 6.7, t={}", w * lgw), Box::new(move |n| cwt_contention_bound(n, w, w * lgw))),
        ("bitonic Θ(n·lg²w/w)".to_owned(), Box::new(move |n| bitonic_contention_estimate(n, w))),
        ("periodic O(n·lg³w/w)".to_owned(), Box::new(move |n| periodic_contention_estimate(n, w))),
        ("diffracting tree Θ(n)".to_owned(), Box::new(|n| n as f64)),
    ];
    for (name, f) in &bounds {
        let mut row = vec![name.clone()];
        for &n in &concurrencies {
            row.push(format!("{:.1}", f(n)));
        }
        table.push_row(row);
    }
    println!("{}", table.to_markdown());

    println!("## E5d — effect of the output width t at fixed w = {w}, n = {}\n", 8 * w);
    let n = 8 * w;
    let mut table = Table::new(vec![
        "t".to_owned(),
        "depth".to_owned(),
        "measured contention".to_owned(),
        "Thm 6.7 bound".to_owned(),
    ]);
    let mut previous = f64::INFINITY;
    for p in [1usize, 2, 4, 8, 16] {
        let t = w * p;
        let net = counting_network(w, t).expect("valid");
        let (c, bound) =
            (stalls(&net, n, SchedulerKind::RoundRobin), cwt_contention_bound(n, w, t));
        assert_eq!(net.depth(), counting_depth(w), "depth must not depend on t");
        assert!(c <= bound, "C({w},{t}): {c:.1} exceeds bound {bound:.1}");
        assert!(
            c < previous,
            "C({w},{t}): contention must fall as t grows ({c:.1} vs {previous:.1})"
        );
        previous = c;
        table.push_row(vec![
            t.to_string(),
            net.depth().to_string(),
            format!("{c:.1}"),
            format!("{bound:.1}"),
        ]);
    }
    println!("{}", table.to_markdown());

    println!("## E5e — one cursor with and without C(4,{w}) in front, round-robin\n");
    let concurrencies = [2usize, 4, 8, 16, 32, 64];
    let mut header = vec!["network".to_owned()];
    header.extend(concurrencies.iter().map(|n| format!("n={n}")));
    let mut table = Table::new(header);
    let cursor = central_balancer(w).expect("valid");
    let network = counting_network(4, w).expect("valid");
    let with_cursor = network.cascade(&cursor).expect("C(4,16) has 16 outputs");
    let rows = [
        (format!("central_balancer({w})"), &cursor),
        (format!("C(4,{w})"), &network),
        (format!("C(4,{w}) + cursor"), &with_cursor),
    ]
    .map(|(name, net)| {
        let measured: Vec<f64> =
            concurrencies.iter().map(|&n| stalls(net, n, SchedulerKind::RoundRobin)).collect();
        (name, measured)
    });
    let [(_, bare), (_, alone), (_, cascaded)] = &rows;
    for (i, &n) in concurrencies.iter().enumerate().filter(|&(_, &n)| n >= 16) {
        let (bare, alone, cascaded) = (bare[i], alone[i], cascaded[i]);
        assert!(
            cascaded >= bare,
            "n={n}: C(4,{w}) + cursor ({cascaded:.1}) relieved the bare cursor ({bare:.1})"
        );
        assert!(
            cascaded > alone,
            "n={n}: C(4,{w}) + cursor ({cascaded:.1}) stalls no more than C(4,{w}) ({alone:.1})"
        );
    }
    for (name, measured) in rows {
        let mut row = vec![name];
        row.extend(measured.iter().map(|c| format!("{c:.1}")));
        table.push_row(row);
    }
    println!("{}", table.to_markdown());
}
