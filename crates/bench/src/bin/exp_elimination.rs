//! Experiment E14 — the elimination layer under mixed batch sizes: every
//! counter of the runtime matrix is driven at 8 threads through four
//! batching regimes — uniform `next_batch` on the raw counter, uniform
//! and mixed through the elimination arena, and mixed on the raw counter
//! (the configuration whose stride reservations are *expected* to leave
//! gaps, demonstrating the caveat the layer removes).
//!
//! A second table (E14b) compares the arena statistics measured on real
//! hardware (collision rate, combining factor) against the
//! schedule-controlled prediction of `counting-sim`'s arena model, which
//! replays the *same* deterministic batch-size streams.
//!
//! A third table (E14c) compares the **waiting strategies**: the full
//! 4-counter × 6-scenario × 2-strategy matrix of mixed-batch stress runs,
//! each cell reporting the arena merge rate. On a box whose worker
//! threads outnumber its cpus, `park` is the strategy that makes
//! rendezvous land — the machine-readable `E14c-aggregate` lines (and the
//! `E14c-oversubscribed` marker) let the smoke test gate exactly that.
//!
//! Run with: `cargo run --release -p bench --bin exp_elimination
//! [-- --quick] [--json <path>] [--strategy <spin-yield|park>]
//! [--seed <u64>]`

use bench::{kilo_rate, Args, Table};
use counting::counting_network;
use counting_runtime::{
    run_stress, Batching, BlockReserve, CentralCounter, DiffractingCounter, EliminationConfig,
    EliminationCounter, LockCounter, NetworkCounter, Scenario, StressConfig, StressReport,
    WaitStrategy,
};
use counting_sim::{simulate_arena, ArenaConfig, ArenaReport};
use serde::Serialize;

const THREADS: usize = 8;
const UNIFORM_K: usize = 8;
const MAX_K: usize = 16;
/// Default `--seed` of the deterministic batch-size streams (also fed to
/// the arena model so E14b compares like against like).
const DEFAULT_SEED: u64 = 0xE11A;
/// Arena geometry used for every wrapped counter in this experiment.
const SLOTS: usize = 4;
const SPIN: usize = 16;
const PROBE: usize = 2;

/// Arena statistics measured on one real-hardware mixed-batch run.
#[derive(Debug, Clone, Serialize)]
struct MeasuredArena {
    counter: String,
    collisions: u64,
    fallbacks: u64,
    collision_rate: f64,
    combining_factor: f64,
}

/// One cell of the E14c strategy matrix.
#[derive(Debug, Clone, Serialize)]
struct StrategyCell {
    counter: String,
    scenario: String,
    strategy: String,
    merge_rate: f64,
    exact_range: bool,
}

/// Aggregate merge rate of one strategy over the whole E14c matrix.
#[derive(Debug, Clone, Serialize)]
struct StrategyAggregate {
    strategy: String,
    merge_rate: f64,
}

/// Everything the experiment emits as JSON.
#[derive(Debug, Serialize)]
struct EliminationJson {
    seed: u64,
    strategy: String,
    oversubscribed: bool,
    stress: Vec<StressReport>,
    arena_measured: Vec<MeasuredArena>,
    arena_model: ArenaReport,
    strategy_matrix: Vec<StrategyCell>,
    strategy_aggregates: Vec<StrategyAggregate>,
}

/// The four batching regimes of one E14 matrix row.
struct RowOutcome {
    rates: Vec<String>,
    reports: Vec<StressReport>,
    arena: MeasuredArena,
}

fn arena_config(strategy: WaitStrategy) -> EliminationConfig {
    EliminationConfig { slots: SLOTS, spin: SPIN, probe: PROBE, strategy, ..Default::default() }
}

fn steady(batch: Batching, ops_per_thread: u64) -> StressConfig {
    StressConfig {
        threads: THREADS,
        ops_per_thread,
        batch,
        scenario: Scenario::Steady,
        record_tokens: false,
    }
}

fn rate_cell(report: &StressReport, gaps_expected: bool) -> String {
    let rate = kilo_rate(report.values_per_second);
    if report.is_exact_range() {
        rate
    } else if gaps_expected && report.duplicates == 0 {
        // Raw stride reservations under mixed sizes: gaps — and their
        // mirror image, values beyond `m` — are the documented behaviour
        // this experiment demonstrates (see the JSON report's
        // `first_missing`). Duplicates would be a genuine failure.
        format!("{rate} (gaps: {})", report.missing)
    } else {
        format!(
            "{rate} BROKEN(dup {}, gap {}, oor {})",
            report.duplicates, report.missing, report.out_of_range
        )
    }
}

/// Runs the four E14 regimes for one counter. `make` produces a fresh raw
/// counter per run (a counter hands out each value once);
/// `gaps_expected` marks counters whose raw mixed-size runs legitimately
/// gap (stride reservations: network and diffracting-tree counters).
fn run_subject<C, F>(
    name: &str,
    make: F,
    ops_per_thread: u64,
    gaps_expected: bool,
    strategy: WaitStrategy,
    seed: u64,
) -> RowOutcome
where
    C: BlockReserve,
    F: Fn() -> C,
{
    let uniform = Batching::Fixed(UNIFORM_K);
    let mixed = Batching::Mixed { max_k: MAX_K, seed };
    let mut rates = Vec::new();
    let mut reports = Vec::new();

    // Uniform k, raw counter — the PR 2 fast path and the baseline the
    // elimination path must not fall behind.
    let report = run_stress(&make(), &steady(uniform, ops_per_thread));
    rates.push(rate_cell(&report, false));
    reports.push(report);

    // Uniform k through the arena.
    let wrapped = EliminationCounter::with_config(make(), arena_config(strategy));
    let report = run_stress(&wrapped, &steady(uniform, ops_per_thread));
    rates.push(rate_cell(&report, false));
    reports.push(report);

    // Mixed k through the arena — the regime the layer exists for. Keep
    // this counter's arena statistics for the model comparison.
    let wrapped = EliminationCounter::with_config(make(), arena_config(strategy));
    let report = run_stress(&wrapped, &steady(mixed, ops_per_thread));
    let ops = THREADS as u64 * ops_per_thread;
    let collisions = wrapped.collisions();
    let fallbacks = wrapped.fallbacks();
    let arena = MeasuredArena {
        counter: name.to_owned(),
        collisions,
        fallbacks,
        collision_rate: collisions as f64 / ops as f64,
        combining_factor: ops as f64 / (collisions / 2 + fallbacks).max(1) as f64,
    };
    rates.push(rate_cell(&report, false));
    reports.push(report);

    // Mixed k on the raw counter — the documented caveat.
    let report = run_stress(&make(), &steady(mixed, ops_per_thread));
    rates.push(rate_cell(&report, gaps_expected));
    reports.push(report);

    RowOutcome { rates, reports, arena }
}

/// The six stress scenarios of the E14c strategy matrix.
fn scenarios() -> [Scenario; 6] {
    [
        Scenario::Steady,
        Scenario::Bursty { phases: 4 },
        Scenario::Skewed { groups: 2 },
        Scenario::Churn { stagger_micros: 100 },
        Scenario::Oscillating { pulses: 4 },
        Scenario::Pinned { nodes: 2 },
    ]
}

fn main() {
    let args = Args::from_env(&["--quick"], &["--json", "--strategy", "--seed"]);
    let (quick, json_path) = (args.flag("--quick"), args.value("--json"));
    let strategy = args.parsed("--strategy", WaitStrategy::SpinYield);
    let seed = args.parsed("--seed", DEFAULT_SEED);

    let w = 16usize;
    // Total traversals of the uniform raw runs (threads × ops) stay a
    // multiple of the output width, so their stride reservations tile.
    let ops_per_thread: u64 = if quick { 240 } else { 6_000 };
    let net = counting_network(w, w).expect("valid");

    println!(
        "## E14 — elimination layer under mixed batch sizes (values/s), {THREADS} threads, \
         {ops_per_thread} ops/thread, arena {SLOTS} slots × spin {SPIN}, strategy {strategy}\n"
    );

    let mut table = Table::new(vec![
        "counter".to_owned(),
        format!("uniform k={UNIFORM_K} raw"),
        format!("uniform k={UNIFORM_K} elim"),
        format!("mixed ≤{MAX_K} elim"),
        format!("mixed ≤{MAX_K} raw"),
    ]);
    let mut stress: Vec<StressReport> = Vec::new();
    let mut measured: Vec<MeasuredArena> = Vec::new();
    let mut unexpected_broken = 0usize;

    let outcomes = [
        run_subject(
            &format!("C({w},{w})"),
            || NetworkCounter::new("C(16,16)", &net),
            ops_per_thread,
            true,
            strategy,
            seed,
        ),
        run_subject(
            &format!("prism DiffTree[{w}]"),
            || DiffractingCounter::new(w, 8, 128),
            ops_per_thread,
            true,
            strategy,
            seed,
        ),
        run_subject(
            "central fetch_add",
            CentralCounter::new,
            ops_per_thread,
            false,
            strategy,
            seed,
        ),
        run_subject("mutex counter", LockCounter::new, ops_per_thread, false, strategy, seed),
    ];
    for outcome in outcomes {
        unexpected_broken += outcome.rates.iter().filter(|cell| cell.contains("BROKEN")).count();
        let mut row = vec![outcome.arena.counter.clone()];
        row.extend(outcome.rates);
        table.push_row(row);
        stress.extend(outcome.reports);
        measured.push(outcome.arena);
    }
    println!("{}", table.to_markdown());

    // The deterministic arena model replays the same batch-size streams;
    // spin_rounds is the model's coarse analogue of the runtime's spin
    // bound (protocol rounds, not loop iterations), and the park flag
    // mirrors the selected waiting strategy (parked waiters skip rounds).
    let model = simulate_arena(&ArenaConfig {
        processes: THREADS,
        slots: SLOTS,
        spin_rounds: 4,
        ops_per_process: ops_per_thread,
        max_k: MAX_K,
        seed,
        probe: PROBE,
        park: strategy == WaitStrategy::Park,
    });

    println!(
        "## E14b — arena statistics: measured on real threads vs the \
         counting-sim model (same size streams)\n"
    );
    let mut arena_table = Table::new(vec![
        "source".to_owned(),
        "collision rate".to_owned(),
        "combining factor".to_owned(),
        "fallbacks/op".to_owned(),
    ]);
    for m in &measured {
        arena_table.push_row(vec![
            format!("measured: {}", m.counter),
            format!("{:.2}", m.collision_rate),
            format!("{:.2}", m.combining_factor),
            format!("{:.2}", m.fallbacks as f64 / (m.collisions + m.fallbacks).max(1) as f64),
        ]);
    }
    arena_table.push_row(vec![
        "model (counting-sim)".to_owned(),
        format!("{:.2}", model.collision_rate),
        format!("{:.2}", model.combining_factor),
        format!("{:.2}", model.fallbacks as f64 / model.ops.max(1) as f64),
    ]);
    println!("{}", arena_table.to_markdown());
    println!(
        "Notes: `mixed raw` cells on network-backed counters report gaps — that is the\n\
         documented stride-reservation caveat the elimination layer removes; those\n\
         cells are demonstrations, not failures. Every `elim` cell must be exact, for\n\
         any size mix and op count. The model assumes partners can run concurrently,\n\
         so its collision rate is an upper envelope: with a spinning strategy on a\n\
         machine with fewer cores than threads, a waiting thread owns the only core\n\
         and the measured rate collapses toward solo reservations. The park strategy\n\
         closes exactly that gap — see E14c.\n"
    );

    // E14c — the waiting-strategy comparison: 4 counters × 6 scenarios ×
    // 2 strategies, all mixed-batch, each cell the measured merge rate.
    let strategy_ops: u64 = if quick { 120 } else { 1_500 };
    println!(
        "## E14c — waiting strategies under mixed batches (arena merge rate per op), \
         {THREADS} threads, {strategy_ops} ops/thread\n"
    );
    type WrapFactory = (String, Box<dyn Fn(WaitStrategy) -> Box<dyn CountingArena>>);
    /// A wrapped counter that exposes its arena statistics behind a
    /// uniform object-safe face.
    trait CountingArena: counting_runtime::SharedCounter {
        fn merges(&self) -> u64;
    }
    impl<C: BlockReserve> CountingArena for EliminationCounter<C> {
        fn merges(&self) -> u64 {
            self.collisions()
        }
    }
    let wrapped: [WrapFactory; 4] = [
        (
            format!("C({w},{w})"),
            Box::new({
                let net = net.clone();
                move |s| {
                    Box::new(EliminationCounter::with_config(
                        NetworkCounter::new("C(16,16)", &net),
                        arena_config(s),
                    ))
                }
            }),
        ),
        (
            format!("prism DiffTree[{w}]"),
            Box::new(move |s| {
                Box::new(EliminationCounter::with_config(
                    DiffractingCounter::new(w, 8, 128),
                    arena_config(s),
                ))
            }),
        ),
        (
            "central fetch_add".to_owned(),
            Box::new(|s| {
                Box::new(EliminationCounter::with_config(CentralCounter::new(), arena_config(s)))
            }),
        ),
        (
            "mutex counter".to_owned(),
            Box::new(|s| {
                Box::new(EliminationCounter::with_config(LockCounter::new(), arena_config(s)))
            }),
        ),
    ];

    let scenario_list = scenarios();
    let mut header = vec!["counter × strategy".to_owned()];
    header.extend(scenario_list.iter().map(Scenario::label));
    let mut strategy_table = Table::new(header);
    let mut strategy_matrix: Vec<StrategyCell> = Vec::new();
    let mut per_strategy_ops = vec![0u64; WaitStrategy::ALL.len()];
    let mut per_strategy_merges = vec![0u64; WaitStrategy::ALL.len()];

    for (name, make) in &wrapped {
        for (s_idx, s) in WaitStrategy::ALL.iter().enumerate() {
            let mut row = vec![format!("{name} / {s}")];
            for scenario in scenario_list {
                let counter = make(*s);
                let config = StressConfig {
                    threads: THREADS,
                    ops_per_thread: strategy_ops,
                    batch: Batching::Mixed { max_k: MAX_K, seed },
                    scenario,
                    record_tokens: false,
                };
                let report = run_stress(counter.as_ref(), &config);
                let ops = THREADS as u64 * strategy_ops;
                let merge_rate = counter.merges() as f64 / ops as f64;
                per_strategy_ops[s_idx] += ops;
                per_strategy_merges[s_idx] += counter.merges();
                let exact = report.is_exact_range();
                if exact {
                    row.push(format!("{merge_rate:.2}"));
                } else {
                    unexpected_broken += 1;
                    row.push(format!(
                        "{merge_rate:.2} BROKEN(dup {}, gap {}, oor {})",
                        report.duplicates, report.missing, report.out_of_range
                    ));
                }
                strategy_matrix.push(StrategyCell {
                    counter: name.clone(),
                    scenario: scenario.label(),
                    strategy: s.label().to_owned(),
                    merge_rate,
                    exact_range: exact,
                });
                stress.push(report);
            }
            strategy_table.push_row(row);
        }
    }
    println!("{}", strategy_table.to_markdown());

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let oversubscribed = THREADS > cpus;
    let strategy_aggregates: Vec<StrategyAggregate> = WaitStrategy::ALL
        .iter()
        .enumerate()
        .map(|(i, s)| StrategyAggregate {
            strategy: s.label().to_owned(),
            merge_rate: per_strategy_merges[i] as f64 / per_strategy_ops[i].max(1) as f64,
        })
        .collect();
    // Machine-readable summary consumed by the smoke-test gate: on an
    // oversubscribed box, park must out-merge spin-yield.
    for aggregate in &strategy_aggregates {
        println!(
            "E14c-aggregate strategy={} merge_rate={:.4}",
            aggregate.strategy, aggregate.merge_rate
        );
    }
    println!("E14c-oversubscribed={oversubscribed} threads={THREADS} cpus={cpus}");
    println!(
        "\nNotes: each cell wraps the counter in a fresh arena ({SLOTS} slots, probe\n\
         window {PROBE}) and reports merged operations per op (2 merges per combined\n\
         reservation, so 1.00 = perfect pairing). Spinning strategies need genuine\n\
         parallelism to rendezvous; park surrenders the publisher's core to its\n\
         partner, so its rate should stay high even at threads > cpus.\n"
    );

    let json = EliminationJson {
        seed,
        strategy: strategy.label().to_owned(),
        oversubscribed,
        stress,
        arena_measured: measured,
        arena_model: model,
        strategy_matrix,
        strategy_aggregates,
    };
    let json = serde_json::to_string(&json).expect("reports serialize");
    match json_path {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON report file");
            println!("JSON written to {path}");
        }
        None => println!("{json}"),
    }

    // Gate: any BROKEN cell (a non-demonstration violation) fails the
    // process after the JSON was written for forensics.
    if unexpected_broken > 0 {
        eprintln!(
            "error: {unexpected_broken} elimination run(s) violated the Fetch&Increment contract"
        );
        std::process::exit(1);
    }
}
