//! Experiment E2 — depth tables (Theorem 4.1, Lemma 3.1, Lemma 5.1).
//!
//! Prints the depth of every construction across widths and verifies that
//! the built topologies match the closed-form formulas. The key fact of the
//! paper: `depth(C(w, t))` does not depend on `t`.
//!
//! Run with: `cargo run --release -p bench --bin exp_depth`

use baselines::{bitonic_counting_network, diffracting_tree, periodic_counting_network};
use bench::{Args, Table};
use counting::{
    bitonic_depth, counting_depth, counting_network, merger_depth, merging_network, periodic_depth,
};

fn main() {
    let _no_flags = Args::from_env(&[], &[]);
    println!("## E2a — depth of C(w, t) for several output widths (must be t-independent)\n");
    let mut t1 = Table::new(vec!["w", "t=w", "t=2w", "t=w·lgw", "t=8w", "formula (lg²w+lgw)/2"]);
    for k in 1..=7usize {
        let w = 1 << k;
        let lgw = k.max(1);
        let depth_of = |t: usize| counting_network(w, t).expect("valid").depth().to_string();
        t1.push_row(vec![
            w.to_string(),
            depth_of(w),
            depth_of(2 * w),
            depth_of(w * lgw),
            depth_of(8 * w),
            counting_depth(w).to_string(),
        ]);
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
        t2.push_row(vec![
            w.to_string(),
            counting_network(w, w).expect("valid").depth().to_string(),
            bitonic_counting_network(w).expect("valid").depth().to_string(),
            periodic_counting_network(w).expect("valid").depth().to_string(),
            diffracting_tree(w).expect("valid").depth().to_string(),
            bitonic_depth(w).to_string(),
            periodic_depth(w).to_string(),
        ]);
    }
    println!("{}", t2.to_markdown());

    println!("## E2c — merging network depth lg δ, independent of t (Lemma 3.1)\n");
    let mut t3 = Table::new(vec!["t", "δ", "depth(M(t,δ))", "lg δ", "balancers"]);
    for &(t, d) in
        &[(8usize, 2usize), (8, 4), (16, 4), (16, 8), (32, 8), (64, 16), (64, 32), (128, 16)]
    {
        let m = merging_network(t, d).expect("valid");
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
        t4.push_row(vec![
            w.to_string(),
            counting_network(w, w).expect("valid").num_balancers().to_string(),
            counting_network(w, w * k).expect("valid").num_balancers().to_string(),
            bitonic_counting_network(w).expect("valid").num_balancers().to_string(),
            periodic_counting_network(w).expect("valid").num_balancers().to_string(),
        ]);
    }
    println!("{}", t4.to_markdown());
}
