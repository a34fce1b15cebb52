//! Experiments E1 and E2: the constructions drawn in the paper's figures,
//! and the depth and size of every construction across widths.
//!
//! Figures 1–3, 5–6 and 10–13 depict concrete instances of the ladder,
//! merging and counting networks. These tests rebuild every depicted
//! instance and check the structural facts visible in the figures:
//! widths, depths, balancer counts, layer sizes and balancer shapes.
//! `e2_depth_and_size_match_the_closed_forms` prints E2's tables under
//! `--nocapture`.

use bench::Table;
use counting_networks::baseline::{
    bitonic_counting_network, diffracting_tree, periodic_counting_network,
};
use counting_networks::efficient::{
    bitonic_depth, counting_depth, counting_network, ladder, merger_depth, merging_network,
    periodic_depth,
};
use counting_networks::net::{is_step, quiescent_output};

#[test]
fn fig1_left_the_4_6_balancer_distribution() {
    // A (4,6)-balancer that received 7 tokens emits 2,1,1,1,1,1.
    let out = counting_networks::net::balancer_step_output(7, 6);
    assert_eq!(out, vec![2, 1, 1, 1, 1, 1]);
}

#[test]
fn fig1_right_c48() {
    let net = counting_network(4, 8).expect("valid");
    assert_eq!(net.input_width(), 4);
    assert_eq!(net.output_width(), 8);
    assert_eq!(net.depth(), 3);
    // The figure's input: 4, 2, 3, 4 tokens; 13 tokens spread as a step.
    let out = quiescent_output(&net, &[4, 2, 3, 4]);
    assert!(is_step(&out));
    assert_eq!(out.iter().sum::<u64>(), 13);
}

#[test]
fn fig2_regular_networks_c44_and_c88() {
    let c44 = counting_network(4, 4).expect("valid");
    assert_eq!(c44.depth(), 3);
    assert!(c44.is_regular());
    assert_eq!(c44.balancer_census(), vec![((2, 2), c44.num_balancers())]);

    let c88 = counting_network(8, 8).expect("valid");
    assert_eq!(c88.depth(), 6);
    assert!(c88.is_regular());
}

#[test]
fn fig3_block_partition_of_c816() {
    // C(8,16): blocks Na (2 layers of width 8), Nb (1 layer of (2,4)
    // balancers), Nc (3 layers of width 16).
    let net = counting_network(8, 16).expect("valid");
    assert_eq!(net.depth(), 6);
    let layers = net.layers();
    assert_eq!(layers.len(), 6);
    for layer in &layers[..2] {
        assert_eq!(layer.len(), 4, "Na layers have w/2 = 4 balancers");
    }
    assert_eq!(layers[2].len(), 4, "Nb layer has w/2 balancers");
    for id in &layers[2] {
        let b = net.balancer(*id);
        assert_eq!((b.fan_in, b.fan_out), (2, 4), "Nb balancers are (2, 2p) with p = 2");
    }
    for layer in &layers[3..] {
        assert_eq!(layer.len(), 8, "Nc layers have t/2 = 8 balancers");
    }
}

#[test]
fn fig5_merger_base_case_is_one_layer() {
    for t in [4usize, 8, 16, 32] {
        let m = merging_network(t, 2).expect("valid");
        assert_eq!(m.depth(), 1);
        assert_eq!(m.num_balancers(), t / 2);
    }
}

#[test]
fn fig6_mergers_m84_and_m164() {
    let m84 = merging_network(8, 4).expect("valid");
    assert_eq!((m84.depth(), m84.num_balancers()), (2, 8));
    let m164 = merging_network(16, 4).expect("valid");
    assert_eq!((m164.depth(), m164.num_balancers()), (2, 16));
    assert_eq!(merger_depth(4), 2);
}

#[test]
fn fig10_recursive_structure_depth_recurrence() {
    // depth(C(w,t)) = 1 + depth(C(w/2,t/2)) + depth(M(t, w/2)).
    for (w, t) in [(4usize, 8usize), (8, 16), (16, 16), (16, 64), (32, 32)] {
        let whole = counting_network(w, t).expect("valid").depth();
        let half = counting_network(w / 2, t / 2).expect("valid").depth();
        let merger = merging_network(t, w / 2).expect("valid").depth();
        assert_eq!(whole, 1 + half + merger, "C({w},{t})");
    }
}

#[test]
fn fig11_12_13_straightened_networks() {
    // Fig. 11: C(4,4) and C(4,8); Fig. 12: C(8,8); Fig. 13: C(8,16).
    for (w, t, expected_depth) in [(4, 4, 3), (4, 8, 3), (8, 8, 6), (8, 16, 6)] {
        let net = counting_network(w, t).expect("valid");
        assert_eq!(net.depth(), expected_depth, "C({w},{t})");
        assert_eq!(net.depth(), counting_depth(w));
        // Every depicted instance is a counting network; spot-check with a
        // skewed input.
        let mut input = vec![0u64; w];
        input[0] = 3 * w as u64;
        input[w - 1] = 1;
        assert!(is_step(&quiescent_output(&net, &input)));
    }
}

#[test]
fn ladder_of_fig10_is_one_layer_of_w_half_balancers() {
    for w in [4usize, 8, 16] {
        let l = ladder(w).expect("valid");
        assert_eq!(l.depth(), 1);
        assert_eq!(l.num_balancers(), w / 2);
    }
}

#[test]
fn comparison_networks_referenced_in_section_1_3() {
    // The bitonic network has the same depth as C(w, w); the periodic one
    // is deeper.
    for k in 1..6 {
        let w = 1usize << k;
        let ours = counting_network(w, w).expect("valid");
        let bitonic = bitonic_counting_network(w).expect("valid");
        let periodic = periodic_counting_network(w).expect("valid");
        assert_eq!(ours.depth(), bitonic.depth());
        assert!(periodic.depth() >= ours.depth());
    }
}

/// E2 (Theorem 4.1, Lemmas 3.1 and 5.1): every printed depth and size
/// equals its closed form, with `k = lg w`. The key fact of the paper:
/// `depth(C(w, t))` does not depend on `t`.
#[test]
fn e2_depth_and_size_match_the_closed_forms() {
    println!("## E2a — depth of C(w, t) for several output widths (must be t-independent)\n");
    let mut t1 = Table::new(vec!["w", "t=w", "t=2w", "t=w·lgw", "t=8w", "formula (lg²w+lgw)/2"]);
    for k in 1..=7usize {
        let w = 1 << k;
        let depths =
            [w, 2 * w, w * k, 8 * w].map(|t| counting_network(w, t).expect("valid").depth());
        assert_eq!(counting_depth(w), (k * k + k) / 2, "Theorem 4.1 at w = {w}");
        assert_eq!(depths, [counting_depth(w); 4], "depth(C({w}, t)) must not depend on t");
        let mut row = vec![w.to_string()];
        row.extend(depths.iter().map(ToString::to_string));
        row.push(counting_depth(w).to_string());
        t1.push_row(row);
    }
    println!("{}", t1.to_markdown());

    println!("## E2b — depth comparison against the baselines\n");
    let mut t2 = Table::new(vec![
        "w",
        "C(w,·) depth",
        "Bitonic[w]",
        "Periodic[w]",
        "DiffTree[w]",
        "bitonic formula",
        "periodic formula",
    ]);
    for k in 1..=7usize {
        let w = 1 << k;
        let depths = [
            counting_network(w, w).expect("valid").depth(),
            bitonic_counting_network(w).expect("valid").depth(),
            periodic_counting_network(w).expect("valid").depth(),
            diffracting_tree(w).expect("valid").depth(),
            bitonic_depth(w),
            periodic_depth(w),
        ];
        let (bitonic, periodic) = ((k * k + k) / 2, k * k);
        assert_eq!(depths, [bitonic, bitonic, periodic, k, bitonic, periodic], "w = {w}");
        let mut row = vec![w.to_string()];
        row.extend(depths.iter().map(ToString::to_string));
        t2.push_row(row);
    }
    println!("{}", t2.to_markdown());

    println!("## E2c — merging network depth lg δ, independent of t (Lemma 3.1)\n");
    let mut t3 = Table::new(vec!["t", "δ", "depth(M(t,δ))", "lg δ", "balancers"]);
    for &(t, d) in
        &[(8usize, 2usize), (8, 4), (16, 4), (16, 8), (32, 8), (64, 16), (64, 32), (128, 16)]
    {
        let m = merging_network(t, d).expect("valid");
        let lg_d = d.trailing_zeros() as usize;
        assert_eq!((m.depth(), merger_depth(d)), (lg_d, lg_d), "M({t},{d})");
        assert_eq!(m.num_balancers(), t / 2 * lg_d, "M({t},{d}) has lg δ full layers");
        t3.push_row(vec![
            t.to_string(),
            d.to_string(),
            m.depth().to_string(),
            merger_depth(d).to_string(),
            m.num_balancers().to_string(),
        ]);
    }
    println!("{}", t3.to_markdown());

    println!("## E2d — size (number of balancers): the price of a wide output\n");
    let mut t4 = Table::new(vec!["w", "C(w,w)", "C(w,w·lgw)", "Bitonic[w]", "Periodic[w]"]);
    for k in 2..=7usize {
        let w = 1 << k;
        let sizes = [
            counting_network(w, w).expect("valid").num_balancers(),
            counting_network(w, w * k).expect("valid").num_balancers(),
            bitonic_counting_network(w).expect("valid").num_balancers(),
            periodic_counting_network(w).expect("valid").num_balancers(),
        ];
        // N_a and N_b are lg w layers of w/2 balancers; N_c is
        // (lg²w − lg w)/2 layers of t/2.
        let cwt = |t: usize| k * w / 2 + (k * k - k) / 2 * t / 2;
        let bitonic = w / 2 * (k * k + k) / 2;
        assert_eq!(sizes, [cwt(w), cwt(w * k), bitonic, w / 2 * k * k], "w = {w}");
        let mut row = vec![w.to_string()];
        row.extend(sizes.iter().map(ToString::to_string));
        t4.push_row(row);
    }
    println!("{}", t4.to_markdown());
}
