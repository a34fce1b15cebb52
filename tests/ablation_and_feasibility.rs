//! Experiments E11/E12 through the public facade: the design ablations and
//! the Aharonson–Attiya feasibility analysis.
//! `ablation_a_each_stage_is_needed` prints the ablation tables (A) under
//! `--nocapture`.

use bench::Table;
use counting_networks::efficient::ablation::bitonic_variant_depth;
use counting_networks::efficient::{
    counting_depth, counting_network, counting_network_bitonic_merger, counting_network_no_ladder,
    counting_width_feasible, feasible_output_widths,
};
use counting_networks::net::properties::counting_counterexample_randomized;
use counting_networks::net::{is_counting_network_randomized, is_step, quiescent_output, Network};
use counting_networks::sim::{measure_contention, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bitonic_merger_ablation_counts_but_is_deeper_and_more_contended() {
    let (w, t) = (16usize, 64usize);
    let ours = counting_network(w, t).expect("valid");
    let variant = counting_network_bitonic_merger(w, t).expect("valid");

    let mut rng = StdRng::seed_from_u64(71);
    assert!(is_counting_network_randomized(&variant, 80, 64, &mut rng));
    assert!(variant.depth() > ours.depth(), "the ablation must be deeper at t > w");

    let n = 8 * w;
    let m = (n * 40) as u64;
    let c_ours = measure_contention(&ours, n, m, SchedulerKind::RoundRobin, 1).amortized_contention;
    let c_variant =
        measure_contention(&variant, n, m, SchedulerKind::RoundRobin, 1).amortized_contention;
    assert!(
        c_variant > c_ours,
        "the deeper ablation should also be more contended: {c_variant:.1} vs {c_ours:.1}"
    );
}

#[test]
fn no_ladder_ablation_shares_inputs_but_not_correctness() {
    let (w, t) = (8usize, 8usize);
    let ours = counting_network(w, t).expect("valid");
    let variant = counting_network_no_ladder(w, t).expect("builds");
    // Same interface, same token conservation ...
    let input = vec![5u64; w];
    assert_eq!(
        quiescent_output(&ours, &input).iter().sum::<u64>(),
        quiescent_output(&variant, &input).iter().sum::<u64>()
    );
    // ... but only the real construction is a counting network.
    let mut rng = StdRng::seed_from_u64(72);
    assert!(is_counting_network_randomized(&ours, 100, 16, &mut rng));
    assert!(!is_counting_network_randomized(&variant, 300, 16, &mut rng));
}

#[test]
fn feasibility_analysis_matches_the_constructible_widths() {
    // With only (2,2)-balancers the feasible widths are powers of two —
    // and those are exactly the widths our regular constructions accept.
    assert_eq!(feasible_output_widths(&[2], 16), vec![1, 2, 4, 8, 16]);
    for w in [2usize, 4, 8, 16] {
        assert!(counting_network(w, w).is_ok());
    }
    for w in [6usize, 10, 12] {
        assert!(counting_network(w, w).is_err());
        assert!(
            counting_width_feasible(w, &[2]).is_err() || w == 12,
            "width {w} with only binary balancers"
        );
    }
    // Width 12 = 2²·3 is infeasible with binary balancers but becomes
    // feasible once a width divisible by 3 is available.
    assert!(counting_width_feasible(12, &[2]).is_err());
    assert!(counting_width_feasible(12, &[2, 6]).is_ok());
}

/// Ablation A: replacing `M(t, w/2)` by a bitonic merger keeps a counting
/// network but makes its depth (and its stalls) grow with `t`; dropping
/// the ladder `L(w)` breaks the step property, and a randomized search
/// finds an input that shows it.
#[test]
fn ablation_a_each_stage_is_needed() {
    let w = 16usize;
    let n = 8 * w;
    let m = 60 * n as u64;
    let stalls = |net: &Network| {
        measure_contention(net, n, m, SchedulerKind::RoundRobin, 1).amortized_contention
    };

    println!("## Ablation A — M(t, w/2) vs a bitonic merger inside C({w}, t), n = {n}\n");
    let mut table = Table::new(vec![
        "t",
        "depth C(w,t)",
        "depth bitonic-merge variant",
        "contention C(w,t)",
        "contention variant",
    ]);
    let mut previous_depth = counting_depth(w);
    for p in [1usize, 2, 4, 8] {
        let t = w * p;
        let ours = counting_network(w, t).expect("valid");
        let variant = counting_network_bitonic_merger(w, t).expect("valid");
        let (c_ours, c_variant) = (stalls(&ours), stalls(&variant));
        assert_eq!(ours.depth(), counting_depth(w), "depth(C({w},{t})) must not depend on t");
        assert_eq!(variant.depth(), bitonic_variant_depth(w, t), "t = {t}");
        assert!(variant.depth() > previous_depth, "the variant must deepen with t = {t}");
        assert!(c_variant > c_ours, "t = {t}: variant {c_variant:.1} vs C(w,t) {c_ours:.1}");
        previous_depth = variant.depth();
        table.push_row(vec![
            t.to_string(),
            ours.depth().to_string(),
            variant.depth().to_string(),
            format!("{c_ours:.1}"),
            format!("{c_variant:.1}"),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "C({w}, t) keeps depth {} for every t; the ablation is already deeper at t = w\n\
         (its merger costs lg t' instead of lg δ at every recursion level) and keeps\n\
         growing with t — the paper's difference merger is what keeps depth a function\n\
         of w alone, and the extra layers translate directly into extra stalls.\n",
        counting_depth(w)
    );

    println!("## Ablation B — removing the ladder L(w)\n");
    let mut table = Table::new(vec!["w", "t", "counting network?", "counterexample input"]);
    let mut rng = StdRng::seed_from_u64(1);
    for (w, t) in [(8usize, 8usize), (8, 16), (16, 16)] {
        let variant = counting_network_no_ladder(w, t).expect("builds");
        let cex = counting_counterexample_randomized(&variant, 500, 16, &mut rng);
        let input = cex.as_ref().unwrap_or_else(|| panic!("C({w},{t}) without L(w) still counts"));
        assert!(!is_step(&quiescent_output(&variant, input)), "{input:?} is no counterexample");
        table.push_row(vec![
            w.to_string(),
            t.to_string(),
            cex.is_none().to_string(),
            cex.map_or_else(|| "-".to_owned(), |c| format!("{c:?}")),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "Without the ladder the difference of the two recursive halves is unbounded,\n\
         violating the contract of M(t, w/2): randomized search finds violating inputs\n\
         immediately."
    );
}
