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
//! Every wrapped counter uses the arena `EliminationCounter::new` builds.
//!
//! Run with: `cargo run --release -p bench --bin exp_elimination
//! [-- --quick] [--json <path>] [--seed <u64>]`

use bench::{emit_json, kilo_rate, Args, Table};
use counting::counting_network;
use counting_runtime::elimination::{DEFAULT_PROBE, DEFAULT_SLOTS, DEFAULT_SPIN};
use counting_runtime::{
    run_stress, Batching, BlockReserve, CentralCounter, DiffractingCounter, EliminationCounter,
    LockCounter, NetworkCounter, Scenario, StressConfig, StressReport,
};
use counting_sim::{simulate_arena, ArenaConfig, ArenaReport};
use serde::Serialize;

const THREADS: usize = 8;
const UNIFORM_K: usize = 8;
const MAX_K: usize = 16;
/// Default `--seed` of the deterministic batch-size streams (also fed to
/// the arena model so E14b compares like against like).
const DEFAULT_SEED: u64 = 0xE11A;

/// Arena statistics measured on one real-hardware mixed-batch run.
#[derive(Debug, Clone, Serialize)]
struct MeasuredArena {
    counter: String,
    collisions: u64,
    fallbacks: u64,
    collision_rate: f64,
    combining_factor: f64,
}

/// Everything the experiment emits as JSON.
#[derive(Debug, Serialize)]
struct EliminationJson {
    seed: u64,
    stress: Vec<StressReport>,
    arena_measured: Vec<MeasuredArena>,
    arena_model: ArenaReport,
}

/// The four batching regimes of one E14 matrix row.
struct RowOutcome {
    rates: Vec<String>,
    reports: Vec<StressReport>,
    arena: MeasuredArena,
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
    let wrapped = EliminationCounter::new(make());
    let report = run_stress(&wrapped, &steady(uniform, ops_per_thread));
    rates.push(rate_cell(&report, false));
    reports.push(report);

    // Mixed k through the arena — the regime the layer exists for. Keep
    // this counter's arena statistics for the model comparison.
    let wrapped = EliminationCounter::new(make());
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

fn main() {
    let args = Args::from_env(&["--quick"], &["--json", "--seed"]);
    let (quick, json_path) = (args.flag("--quick"), args.value("--json"));
    let seed = args.parsed("--seed", DEFAULT_SEED);

    let w = 16usize;
    // Total traversals of the uniform raw runs (threads × ops) stay a
    // multiple of the output width, so their stride reservations tile.
    let ops_per_thread: u64 = if quick { 240 } else { 6_000 };
    let net = counting_network(w, w).expect("valid");

    println!(
        "## E14 — elimination layer under mixed batch sizes (values/s), {THREADS} threads, \
         {ops_per_thread} ops/thread, arena {DEFAULT_SLOTS} slots × spin {DEFAULT_SPIN}\n"
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
            seed,
        ),
        run_subject(
            &format!("prism DiffTree[{w}]"),
            || DiffractingCounter::new(w, 8, 128),
            ops_per_thread,
            true,
            seed,
        ),
        run_subject("central fetch_add", CentralCounter::new, ops_per_thread, false, seed),
        run_subject("mutex counter", LockCounter::new, ops_per_thread, false, seed),
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
    // bound (protocol rounds, not loop iterations).
    let model = simulate_arena(&ArenaConfig {
        processes: THREADS,
        slots: DEFAULT_SLOTS,
        spin_rounds: 4,
        ops_per_process: ops_per_thread,
        max_k: MAX_K,
        seed,
        probe: DEFAULT_PROBE,
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
         so its collision rate is an upper envelope: on a machine with fewer cores\n\
         than threads, a waiting thread owns the only core and the measured rate\n\
         collapses toward solo reservations.\n"
    );

    let json = EliminationJson { seed, stress, arena_measured: measured, arena_model: model };
    emit_json(&json, json_path);

    // Gate: any BROKEN cell (a non-demonstration violation) fails the
    // process after the JSON was written for forensics.
    if unexpected_broken > 0 {
        eprintln!(
            "error: {unexpected_broken} elimination run(s) violated the Fetch&Increment contract"
        );
        std::process::exit(1);
    }
}
