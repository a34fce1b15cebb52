//! Experiment E8 — the sorting-network byproduct (Section 7).
//!
//! Derives the comparator network from `C(w, w)`, verifies it (0–1
//! principle, exhaustively up to width 16 and randomized beyond), and
//! tabulates depth and comparator count against the bitonic and periodic
//! sorters.
//!
//! Run with: `cargo run --release -p bench --bin exp_sorting`

use baselines::{bitonic_counting_network, periodic_counting_network};
use bench::{Args, Table};
use counting::counting_network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sortnet::{is_sorting_network_exhaustive, is_sorting_network_randomized, ComparatorNetwork};

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).flag("--quick");
    let mut rng = StdRng::seed_from_u64(99);

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
        let ours = ComparatorNetwork::from_balancing(counting_network(w, w).expect("valid"))
            .expect("regular");
        let bitonic =
            ComparatorNetwork::from_balancing(bitonic_counting_network(w).expect("valid"))
                .expect("regular");
        let periodic =
            ComparatorNetwork::from_balancing(periodic_counting_network(w).expect("valid"))
                .expect("regular");
        let verified = if w <= 16 && !quick {
            is_sorting_network_exhaustive(&ours)
        } else {
            is_sorting_network_randomized(&ours, if quick { 50 } else { 500 }, &mut rng)
        };
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
