//! Experiment E8: the sorting-network byproduct (Section 7).
//! `e8_derived_sorters_verify_and_match_the_bitonic_depth` prints E8's
//! table under `--nocapture`.

use bench::Table;
use counting_networks::baseline::{bitonic_counting_network, periodic_counting_network};
use counting_networks::efficient::counting_network;
use counting_networks::sorting::{
    is_sorting_network_exhaustive, is_sorting_network_randomized, ComparatorNetwork,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn derived_sorter_depth_matches_theorem_4_1() {
    for w in [4usize, 8, 16, 32, 64, 128] {
        let k = w.trailing_zeros() as usize;
        let net = counting_network(w, w).expect("valid");
        let sorter = ComparatorNetwork::from_balancing(net).expect("regular");
        assert_eq!(sorter.depth(), (k * k + k) / 2);
    }
}

#[test]
fn sorts_arbitrary_data_with_duplicates() {
    let mut rng = StdRng::seed_from_u64(77);
    let w = 32usize;
    let net = counting_network(w, w).expect("valid");
    let sorter = ComparatorNetwork::from_balancing(net).expect("regular");
    for _ in 0..50 {
        let data: Vec<u16> = (0..w).map(|_| rng.gen_range(0..10)).collect();
        let out = sorter.apply(&data);
        let mut expected = data.clone();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(out, expected);
    }
}

#[test]
fn irregular_networks_cannot_be_turned_into_comparator_networks() {
    let net = counting_network(8, 16).expect("valid");
    assert!(ComparatorNetwork::from_balancing(net).is_err());
}

#[test]
fn wide_randomized_verification() {
    let mut rng = StdRng::seed_from_u64(78);
    for w in [64usize, 128] {
        let net = counting_network(w, w).expect("valid");
        let sorter = ComparatorNetwork::from_balancing(net).expect("regular");
        assert!(is_sorting_network_randomized(&sorter, 200, &mut rng), "width {w}");
    }
}

#[test]
fn derived_sorter_and_bitonic_sorter_agree_on_outputs() {
    let mut rng = StdRng::seed_from_u64(79);
    let w = 16usize;
    let ours =
        ComparatorNetwork::from_balancing(counting_network(w, w).expect("valid")).expect("regular");
    let bitonic = ComparatorNetwork::from_balancing(bitonic_counting_network(w).expect("valid"))
        .expect("regular");
    for _ in 0..100 {
        let data: Vec<u32> = (0..w).map(|_| rng.gen_range(0..1_000)).collect();
        assert_eq!(ours.apply(&data), bitonic.apply(&data));
    }
}

/// E8: the comparator network derived from `C(w, w)` sorts (0–1
/// principle, exhaustively up to width 16 and on 500 random 0–1 inputs
/// beyond), has the bitonic sorter's depth `(lg²w + lgw)/2` with `w/2`
/// comparators per layer, and is shallower than the periodic sorter.
#[test]
fn e8_derived_sorters_verify_and_match_the_bitonic_depth() {
    let mut rng = StdRng::seed_from_u64(99);
    let sorter = |net| ComparatorNetwork::from_balancing(net).expect("regular");

    println!("## E8 — sorting networks obtained by the balancer→comparator substitution\n");
    let mut table = Table::new(vec![
        "w",
        "C(w,w) depth",
        "C(w,w) comparators",
        "Bitonic depth",
        "Periodic depth",
        "verified",
    ]);
    for k in 1..=6usize {
        let w = 1 << k;
        let ours = sorter(counting_network(w, w).expect("valid"));
        let bitonic = sorter(bitonic_counting_network(w).expect("valid"));
        let periodic = sorter(periodic_counting_network(w).expect("valid"));
        let verified = if w <= 16 {
            is_sorting_network_exhaustive(&ours)
        } else {
            is_sorting_network_randomized(&ours, 500, &mut rng)
        };
        assert!(verified, "the sorter derived from C({w},{w}) does not sort");
        let depth = (k * k + k) / 2;
        assert_eq!(
            [ours.depth(), bitonic.depth(), periodic.depth()],
            [depth, depth, k * k],
            "w = {w}"
        );
        assert_eq!(ours.size(), w / 2 * depth, "w = {w}: every layer has w/2 comparators");
        table.push_row(vec![
            w.to_string(),
            ours.depth().to_string(),
            ours.size().to_string(),
            bitonic.depth().to_string(),
            periodic.depth().to_string(),
            verified.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
}
