//! Experiment E4: smoothing properties.
//!
//! Lemma 5.2: the forward butterfly `D(w)` is `lg w`-smoothing.
//! Lemma 6.6: the prefix `N_a,b = C'(w, t)` is `s`-smoothing for
//! `s = ⌊w·lgw/t⌋ + 2`. Lemma 2.5: once a layer's input is `k`-smooth, the
//! output of every subsequent regular layer stays `k`-smooth.
//! `e4_observed_spreads_stay_under_lemmas_5_2_and_6_6` prints E4's tables
//! under `--nocapture`.

use bench::Table;
use counting_networks::efficient::bounds::prefix_smoothness_bound;
use counting_networks::efficient::{
    backward_butterfly, counting_network, counting_prefix, forward_butterfly,
};
use counting_networks::net::properties::observed_smoothness;
use counting_networks::net::{is_k_smooth, is_smoothing_network_randomized, quiescent_output};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn butterflies_are_lgw_smoothing() {
    let mut rng = StdRng::seed_from_u64(41);
    for w in [2usize, 4, 8, 16, 32, 64] {
        let k = w.trailing_zeros() as u64;
        let d = forward_butterfly(w).expect("valid");
        let e = backward_butterfly(w).expect("valid");
        assert!(is_smoothing_network_randomized(&d, k, 150, 300, &mut rng), "D({w})");
        assert!(is_smoothing_network_randomized(&e, k, 150, 300, &mut rng), "E({w})");
    }
}

#[test]
fn prefix_smoothness_obeys_lemma_6_6() {
    let mut rng = StdRng::seed_from_u64(42);
    for (w, t) in [(4usize, 4usize), (4, 8), (8, 8), (8, 16), (8, 24), (16, 16), (16, 64), (32, 32)]
    {
        let lgw = w.trailing_zeros() as usize;
        let s = (w * lgw / t) as u64 + 2;
        let net = counting_prefix(w, t).expect("valid");
        let observed = observed_smoothness(&net, 200, 200, &mut rng);
        assert!(
            observed <= s,
            "C'({w},{t}): observed smoothness {observed} exceeds the Lemma 6.6 bound {s}"
        );
    }
}

#[test]
fn wider_output_improves_prefix_smoothness() {
    // The bound s = ⌊w·lgw/t⌋ + 2 falls to 2 once t >= w·lgw; empirically
    // the observed spread of C'(w, t) shrinks as t grows.
    let mut rng = StdRng::seed_from_u64(43);
    let w = 16usize;
    let narrow = counting_prefix(w, w).expect("valid");
    let wide = counting_prefix(w, w * 8).expect("valid");
    let s_narrow = observed_smoothness(&narrow, 300, 500, &mut rng);
    let s_wide = observed_smoothness(&wide, 300, 500, &mut rng);
    assert!(
        s_wide <= s_narrow,
        "smoothness should not get worse as t grows: {s_wide} vs {s_narrow}"
    );
    assert!(s_wide <= 2, "for t = 8w the Lemma 6.6 bound is 2, observed {s_wide}");
}

#[test]
fn counting_network_output_is_1_smooth_everywhere() {
    // A step sequence is in particular 1-smooth; the full network output
    // must always be 1-smooth (and step).
    let mut rng = StdRng::seed_from_u64(44);
    for (w, t) in [(8usize, 8usize), (8, 16), (16, 16), (16, 64)] {
        let net = counting_network(w, t).expect("valid");
        for _ in 0..100 {
            let input: Vec<u64> = (0..w).map(|_| rng.gen_range(0..200)).collect();
            let out = quiescent_output(&net, &input);
            assert!(is_k_smooth(&out, 1));
        }
    }
}

#[test]
fn smoothness_is_preserved_by_subsequent_regular_layers() {
    // Lemma 2.5 exercised end-to-end: feed the (lg w)-smooth output of a
    // butterfly into another butterfly; the result must remain
    // (lg w)-smooth.
    let mut rng = StdRng::seed_from_u64(45);
    let w = 16usize;
    let k = w.trailing_zeros() as u64;
    let d = forward_butterfly(w).expect("valid");
    let cascade = d.cascade(&d).expect("same width");
    assert!(is_smoothing_network_randomized(&cascade, k, 200, 300, &mut rng));
}

/// E4: the worst spread (max − min) observed over 2 000 random inputs,
/// next to its proven bound, for the butterfly `D(w)` and the prefix
/// `C'(w, t)`.
#[test]
fn e4_observed_spreads_stay_under_lemmas_5_2_and_6_6() {
    let (trials, max_tokens) = (2_000, 500);
    let mut rng = StdRng::seed_from_u64(2024);

    println!("## E4a — butterfly smoothing (Lemma 5.2): observed spread vs lg w\n");
    let mut t1 = Table::new(vec!["w", "observed spread", "bound lg w"]);
    for k in 1..=7u64 {
        let w = 1 << k;
        let d = forward_butterfly(w).expect("valid");
        let observed = observed_smoothness(&d, trials, max_tokens, &mut rng);
        assert!(observed <= k, "D({w}): observed spread {observed} exceeds lg w = {k}");
        t1.push_row(vec![w.to_string(), observed.to_string(), k.to_string()]);
    }
    println!("{}", t1.to_markdown());

    println!("## E4b — prefix C'(w, t) smoothing (Lemma 6.6): observed spread vs ⌊w·lgw/t⌋+2\n");
    let mut t2 = Table::new(vec!["w", "t", "observed spread", "bound s"]);
    for &(w, t) in
        &[(8usize, 8usize), (8, 16), (8, 24), (16, 16), (16, 32), (16, 64), (32, 32), (32, 160)]
    {
        let net = counting_prefix(w, t).expect("valid");
        let observed = observed_smoothness(&net, trials, max_tokens, &mut rng);
        let s = prefix_smoothness_bound(w, t);
        assert!(observed <= s, "C'({w},{t}): observed spread {observed} exceeds s = {s}");
        t2.push_row(vec![w.to_string(), t.to_string(), observed.to_string(), s.to_string()]);
    }
    println!("{}", t2.to_markdown());
}
