//! Experiment E5 — amortized contention sweep (Theorem 6.7 and the
//! comparison of Section 1.3.1).
//!
//! For each network in the comparison suite, sweeps the concurrency `n`
//! and reports the measured amortized contention (stalls per token) under
//! the lock-step schedule, next to the theoretical bounds. Also reports
//! the greedy-hotspot adversary for the diffracting tree, where the
//! difference matters most, and (E5e) whether `C(4,16)` in front of one
//! shared cursor relieves it — why a tenant is one bare word.
//!
//! Accepts an optional argument `--quick` to shrink the token counts (used
//! in smoke tests).
//!
//! Run with: `cargo run --release -p bench --bin exp_contention`

use baselines::central_balancer;
use bench::{comparison_suite, Args, Table};
use counting::{bitonic_contention_estimate, cwt_contention_bound, periodic_contention_estimate};
use counting_sim::{measure_contention, SchedulerKind};

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).flag("--quick");
    let w = 16usize;
    let lgw = w.trailing_zeros() as usize;
    let tokens_per_process: u64 = if quick { 10 } else { 60 };
    let concurrencies = [w / 2, w, 2 * w, 4 * w, 8 * w, 16 * w];

    println!("## E5a — measured amortized contention, round-robin schedule, w = {w}\n");
    let mut header = vec!["network".to_owned()];
    header.extend(concurrencies.iter().map(|n| format!("n={n}")));
    let mut table = Table::new(header.clone());
    for named in comparison_suite(w) {
        let mut row = vec![named.name.clone()];
        for &n in &concurrencies {
            let m = tokens_per_process * n as u64;
            let r = measure_contention(&named.network, n, m, SchedulerKind::RoundRobin, 1);
            row.push(format!("{:.1}", r.amortized_contention));
        }
        table.push_row(row);
    }
    println!("{}", table.to_markdown());

    println!("## E5b — the same sweep under the greedy-hotspot adversary\n");
    let mut table = Table::new(header.clone());
    for named in comparison_suite(w) {
        let mut row = vec![named.name.clone()];
        for &n in &concurrencies {
            let m = tokens_per_process * n as u64;
            let r = measure_contention(&named.network, n, m, SchedulerKind::GreedyHotspot, 1);
            row.push(format!("{:.1}", r.amortized_contention));
        }
        table.push_row(row);
    }
    println!("{}", table.to_markdown());

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
    let m = tokens_per_process * n as u64;
    let mut table = Table::new(vec![
        "t".to_owned(),
        "depth".to_owned(),
        "measured contention".to_owned(),
        "Thm 6.7 bound".to_owned(),
    ]);
    for p in [1usize, 2, 4, 8, 16] {
        let t = w * p;
        let net = counting::counting_network(w, t).expect("valid");
        let r = measure_contention(&net, n, m, SchedulerKind::RoundRobin, 1);
        table.push_row(vec![
            t.to_string(),
            net.depth().to_string(),
            format!("{:.1}", r.amortized_contention),
            format!("{:.1}", cwt_contention_bound(n, w, t)),
        ]);
    }
    println!("{}", table.to_markdown());

    // The service's question: does a C(4,16) traversal in front of one
    // shared cursor (a central balancer on its outputs) relieve it?
    println!("## E5e — one cursor with and without C(4,{w}) in front, round-robin\n");
    let concurrencies = [2usize, 4, 8, 16, 32, 64];
    let mut header = vec!["network".to_owned()];
    header.extend(concurrencies.iter().map(|n| format!("n={n}")));
    let mut table = Table::new(header);
    let cursor = central_balancer(w).expect("valid");
    let network = counting::counting_network(4, w).expect("valid");
    let with_cursor = network.cascade(&cursor).expect("C(4,16) has 16 outputs");
    let rows = [
        (format!("central_balancer({w})"), &cursor),
        (format!("C(4,{w})"), &network),
        (format!("C(4,{w}) + cursor"), &with_cursor),
    ];
    for (name, net) in rows {
        let mut row = vec![name];
        for &n in &concurrencies {
            let m = tokens_per_process * n as u64;
            let r = measure_contention(net, n, m, SchedulerKind::RoundRobin, 1);
            row.push(format!("{:.1}", r.amortized_contention));
        }
        table.push_row(row);
    }
    println!("{}", table.to_markdown());
}
