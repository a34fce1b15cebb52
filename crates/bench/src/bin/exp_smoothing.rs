//! Experiment E4 — smoothing bounds (Lemma 5.2 and Lemma 6.6).
//!
//! Measures the worst observed output spread (max − min) of the butterfly
//! `D(w)` and of the prefix `C'(w, t)` over many random inputs and places
//! it next to the proven bounds `lg w` and `⌊w·lgw/t⌋ + 2`.
//!
//! Run with: `cargo run --release -p bench --bin exp_smoothing`

use bench::{Args, Table};
use counting::{bounds::prefix_smoothness_bound, counting_prefix, forward_butterfly};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).flag("--quick");
    let trials = if quick { 100 } else { 2_000 };
    let max_tokens = 500;
    let mut rng = StdRng::seed_from_u64(2024);

    println!("## E4a — butterfly smoothing (Lemma 5.2): observed spread vs lg w\n");
    let mut t1 = Table::new(vec!["w", "observed spread", "bound lg w"]);
    for k in 1..=7usize {
        let w = 1 << k;
        let d = forward_butterfly(w).expect("valid");
        let observed = balnet::properties::observed_smoothness(&d, trials, max_tokens, &mut rng);
        t1.push_row(vec![w.to_string(), observed.to_string(), k.to_string()]);
    }
    println!("{}", t1.to_markdown());

    println!("## E4b — prefix C'(w, t) smoothing (Lemma 6.6): observed spread vs ⌊w·lgw/t⌋+2\n");
    let mut t2 = Table::new(vec!["w", "t", "observed spread", "bound s"]);
    for &(w, t) in
        &[(8usize, 8usize), (8, 16), (8, 24), (16, 16), (16, 32), (16, 64), (32, 32), (32, 160)]
    {
        let net = counting_prefix(w, t).expect("valid");
        let observed = balnet::properties::observed_smoothness(&net, trials, max_tokens, &mut rng);
        t2.push_row(vec![
            w.to_string(),
            t.to_string(),
            observed.to_string(),
            prefix_smoothness_bound(w, t).to_string(),
        ]);
    }
    println!("{}", t2.to_markdown());
}
