//! Experiment E7 — concurrent Fetch&Increment throughput (the IPPS'98 /
//! Klein experimental comparison, on threads instead of ten SPARC
//! workstations).
//!
//! Drives every counter in the comparison suite (plus the centralized
//! baselines) with an increasing number of threads and reports operations
//! per second. The workload draws no random numbers.
//!
//! Run with: `cargo run --release -p bench --bin exp_throughput [-- --quick]`

use bench::{comparison_suite, kilo_rate, Args, Table};
use counting_runtime::{
    measure_throughput, CentralCounter, DiffractingCounter, LockCounter, NetworkCounter,
    SharedCounter,
};

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).flag("--quick");

    let w = 16usize;
    let ops_per_thread: u64 = if quick { 2_000 } else { 50_000 };
    let hardware = std::thread::available_parallelism().map_or(4, |p| p.get());
    let thread_counts: Vec<usize> =
        [1usize, 2, 4, 8, 16, 32].into_iter().filter(|&t| t <= 4 * hardware).collect();

    println!(
        "## E7 — Fetch&Increment throughput (ops/s), {} hardware threads, {} ops/thread\n",
        hardware, ops_per_thread
    );
    let mut header = vec!["counter".to_owned()];
    header.extend(thread_counts.iter().map(|t| format!("{t} thr")));
    let mut table = Table::new(header);

    let suite = comparison_suite(w);
    for named in &suite {
        let mut row = vec![named.name.clone()];
        for &threads in &thread_counts {
            let counter = NetworkCounter::new(named.name.clone(), &named.network);
            let m = measure_throughput(&counter, threads, ops_per_thread);
            row.push(kilo_rate(m.ops_per_second));
        }
        table.push_row(row);
    }
    type CounterFactory = Box<dyn Fn() -> Box<dyn SharedCounter>>;
    let extras: [(&str, CounterFactory); 3] = [
        ("prism DiffTree", Box::new(move || Box::new(DiffractingCounter::new(w, 8, 128)))),
        ("central fetch_add", Box::new(|| Box::new(CentralCounter::new()))),
        ("mutex counter", Box::new(|| Box::new(LockCounter::new()))),
    ];
    for (name, make) in &extras {
        let mut row = vec![(*name).to_owned()];
        for &threads in &thread_counts {
            let counter = make();
            let m = measure_throughput(counter.as_ref(), threads, ops_per_thread);
            row.push(kilo_rate(m.ops_per_second));
        }
        table.push_row(row);
    }
    println!("{}", table.to_markdown());
    println!(
        "Notes: absolute numbers depend on the machine; the figures of interest are the\n\
         relative trends — the centralized counters stop scaling once threads contend on\n\
         one cache line, while the network counters degrade much more gently and the\n\
         wide-output C(w, w·lgw) tracks or beats the other counting networks at high\n\
         thread counts (the paper's throughput claim)."
    );
}
