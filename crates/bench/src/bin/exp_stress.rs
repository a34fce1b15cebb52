//! Experiment E13 — real-thread stress matrix: every counter in the
//! comparison suite (plus the centralized baselines and the runtime
//! diffracting tree) is tortured under every workload scenario of
//! `counting_runtime::stress`, with the Fetch&Increment contract checked
//! online and linearizability violations measured on the steady runs.
//!
//! Prints the scenario × counter matrix as Markdown tables and emits the
//! full reports as JSON (to stdout, or to a file with `--json <path>`).
//!
//! Run with: `cargo run --release -p bench --bin exp_stress [-- --quick]
//! [--json <path>]`

use bench::{comparison_suite, emit_json, kilo_rate, Args, Table};
use counting_runtime::{
    run_stress, Batching, CentralCounter, DiffractingCounter, LockCounter, NetworkCounter,
    Scenario, SharedCounter, StressConfig, StressReport,
};

/// One row of the matrix: a display name plus a factory producing a fresh
/// counter per run (a counter hands out each value once).
struct Subject {
    name: String,
    make: Box<dyn Fn() -> Box<dyn SharedCounter>>,
}

fn subjects(w: usize) -> Vec<Subject> {
    let mut subjects: Vec<Subject> = comparison_suite(w)
        .into_iter()
        .map(|named| {
            let name = named.name.clone();
            Subject {
                name: named.name.clone(),
                make: Box::new(move || Box::new(NetworkCounter::new(name.clone(), &named.network))),
            }
        })
        .collect();
    subjects.push(Subject {
        name: format!("prism DiffTree[{w}]"),
        make: Box::new(move || Box::new(DiffractingCounter::new(w, 8, 128))),
    });
    subjects.push(Subject {
        name: "central fetch_add".to_owned(),
        make: Box::new(|| Box::new(CentralCounter::new())),
    });
    subjects.push(Subject {
        name: "mutex counter".to_owned(),
        make: Box::new(|| Box::new(LockCounter::new())),
    });
    subjects
}

fn cell(report: &StressReport) -> String {
    let rate = kilo_rate(report.values_per_second);
    if report.is_exact_range() {
        rate
    } else {
        format!(
            "{rate} BROKEN(dup {}, gap {}, oor {})",
            report.duplicates, report.missing, report.out_of_range
        )
    }
}

fn main() {
    let args = Args::from_env(&["--quick"], &["--json"]);
    let (quick, json_path) = (args.flag("--quick"), args.value("--json"));

    let w = 16usize;
    let threads = 8usize;
    // Per-thread operation count: total traversals stay a multiple of
    // every output width in the matrix (16 and 64), so batched stride
    // reservations tile the value range exactly at quiescence.
    let ops_per_thread: u64 = if quick { 192 } else { 12_288 };
    let batch_k = 8usize;

    let scenarios = [
        Scenario::Steady,
        Scenario::Bursty { phases: 8 },
        Scenario::Skewed { groups: 2 },
        Scenario::Churn { stagger_micros: if quick { 200 } else { 1_000 } },
        Scenario::Oscillating { pulses: 8 },
        Scenario::Pinned { nodes: 2 },
    ];

    println!(
        "## E13 — real-thread stress matrix (values/s), {threads} threads, \
         {ops_per_thread} ops/thread, online uniqueness+range checking\n"
    );

    let subjects = subjects(w);
    let mut reports: Vec<StressReport> = Vec::new();
    let mut header = vec!["counter".to_owned()];
    header.extend(scenarios.iter().map(|s| s.label()));
    header.push(format!("steady ×{batch_k} batch"));
    let mut table = Table::new(header);

    for subject in &subjects {
        let mut row = vec![subject.name.clone()];
        for scenario in scenarios {
            let config = StressConfig {
                threads,
                ops_per_thread,
                batch: Batching::Fixed(1),
                scenario,
                record_tokens: false,
            };
            let report = run_stress((subject.make)().as_ref(), &config);
            row.push(cell(&report));
            reports.push(report);
        }
        // The combining fast path: same value volume, 1/k traversals.
        let batched = StressConfig {
            threads,
            ops_per_thread: ops_per_thread / batch_k as u64,
            batch: Batching::Fixed(batch_k),
            scenario: Scenario::Steady,
            record_tokens: false,
        };
        let report = run_stress((subject.make)().as_ref(), &batched);
        row.push(cell(&report));
        reports.push(report);
        table.push_row(row);
    }
    println!("{}", table.to_markdown());

    println!(
        "## E13b — linearizability violations measured on steady runs \
         (Section 1.4.2: counting networks trade linearizability for throughput)\n"
    );
    let mut lin_table = Table::new(vec!["counter".to_owned(), "violations".to_owned()]);
    for subject in &subjects {
        let config = StressConfig {
            threads,
            ops_per_thread: ops_per_thread.min(2_048),
            batch: Batching::Fixed(1),
            scenario: Scenario::Steady,
            record_tokens: true,
        };
        let report = run_stress((subject.make)().as_ref(), &config);
        let violations = report.linearizability_violations.unwrap_or(0);
        lin_table.push_row(vec![subject.name.clone(), violations.to_string()]);
        reports.push(report);
    }
    println!("{}", lin_table.to_markdown());
    println!(
        "Notes: every cell is measured with the invariant checker inline (one atomic\n\
         fetch_or per value), so rates are comparable across cells but slightly below\n\
         exp_throughput's. A BROKEN cell means the counter violated uniqueness or\n\
         exact-range coverage. Violations are a measurement, not a failure: the\n\
         centralized counters must show 0, the network counters may show more.\n"
    );

    emit_json(&reports, json_path);

    // The matrix doubles as a correctness gate: a broken cell must fail
    // the process (CI runs this binary as a dedicated step), after the
    // JSON was written for forensics.
    let broken = reports.iter().filter(|r| !r.is_exact_range()).count();
    if broken > 0 {
        eprintln!("error: {broken} stress run(s) violated the Fetch&Increment contract");
        std::process::exit(1);
    }
}
