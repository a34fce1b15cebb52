//! Experiment E15 — the multi-tenant counter service under skewed
//! serving traffic: 64 tenants × 8 threads drive a [`CounterService`],
//! with tenant popularity drawn from a Zipf distribution, mixed batch
//! sizes, and a churn thread evicting idle tenants the whole time.
//!
//! Every tenant's hand-out is checked against the Fetch&Increment
//! contract — unique and exactly `0..watermark` at quiescence, across
//! evictions — via one `ValueBitmap` per tenant; the table reports the
//! aggregate, hot/cold tenant rates and how many tenants the traffic
//! inflated, and the JSON artifact carries the full per-tenant breakdown.
//!
//! Run with: `cargo run --release -p bench --bin exp_service
//! [-- --quick] [--json <path>] [--seed <u64>]`

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use bench::{emit_json, kilo_rate, Args, Table};
use counting_runtime::elimination::{DEFAULT_PROBE, DEFAULT_SLOTS};
use counting_runtime::{
    rate_over, BlockReserve, CentralCounter, EliminationCounter, MeasuredWindow, SharedCounter,
    ValueBitmap,
};
use counting_service::{CounterService, ServiceConfig, INFLATE_CONTENDERS};
use counting_sim::{measure_contention, simulate_arena, ArenaConfig, SchedulerKind};
use serde::Serialize;

/// Largest batch size drawn by the mixed-size stream.
const MAX_BATCH: usize = 4;
/// Default `--seed`: every deterministic stream of the run — the
/// per-thread batch-size sequences *and* the per-thread tenant-pick RNGs
/// — derives from this one seed, so a run's value assignment is
/// reproducible from its recorded seed alone.
const DEFAULT_SEED: u64 = 0xE15;

/// The whole JSON document: the seed, the run's report and the `n*` the
/// recorded readings derive (`None`: above `MODEL_MAX_N`).
#[derive(Debug, Serialize)]
struct ServiceJson {
    seed: u64,
    report: ServiceReport,
    n_star: Option<usize>,
}

/// The run over `ServiceConfig::default()`.
#[derive(Debug, Serialize)]
struct ServiceReport {
    tenants: usize,
    threads: usize,
    ops_per_thread: u64,
    total_values: u64,
    elapsed_secs: f64,
    /// `None` when the measured window was degenerate (see
    /// `counting_runtime::MIN_MEASURED_WINDOW`).
    aggregate_values_per_second: Option<f64>,
    evictions: u64,
    /// Tenants live and inflated when the run ended.
    inflated_tenants: usize,
    /// Inflations over the run (an evicted tenant comes back compact).
    inflations: u64,
    duplicates: u64,
    out_of_range: u64,
    range_violations: u64,
    tenant_stats: Vec<TenantStat>,
}

/// Per-tenant traffic share and rate.
#[derive(Debug, Serialize)]
struct TenantStat {
    tenant: String,
    values: u64,
    /// `None` when the measured window was degenerate.
    values_per_second: Option<f64>,
}

/// Increments the shared finished-worker count on drop — *including* an
/// unwinding drop, so a panicking worker still releases the churn
/// thread's loop condition and the binary fails instead of hanging.
struct FinishedGuard<'a>(&'a AtomicUsize);

impl Drop for FinishedGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// xorshift64* — a tiny deterministic per-thread RNG for tenant picks.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Cumulative Zipf(1) weights over `n` tenants: tenant `i` is picked
/// with probability proportional to `1 / (i + 1)` — the skewed
/// popularity of real serving traffic (a few hot tenants, a long cold
/// tail).
fn zipf_cumulative(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect()
}

/// Draws a tenant index from the cumulative weight table.
fn pick_tenant(cumulative: &[f64], rng: &mut u64) -> usize {
    let total = *cumulative.last().expect("non-empty");
    // 53 uniform mantissa bits, scaled into the cumulative range.
    let r = (xorshift(rng) >> 11) as f64 / (1u64 << 53) as f64 * total;
    cumulative.partition_point(|&c| c <= r).min(cumulative.len() - 1)
}

/// Drives the default service through the skewed-tenant workload and
/// verifies every tenant's stream.
fn run(tenants: usize, threads: usize, ops_per_thread: u64, seed: u64) -> ServiceReport {
    let service = CounterService::new(ServiceConfig::default());
    let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i:03}")).collect();
    let cumulative = zipf_cumulative(tenants);

    // Upper bound on any single tenant's value count: the whole run.
    let capacity = threads as u64 * ops_per_thread * MAX_BATCH as u64;
    let bitmaps: Vec<ValueBitmap> = (0..tenants).map(|_| ValueBitmap::new(capacity)).collect();
    let duplicates: Vec<AtomicU64> = (0..tenants).map(|_| AtomicU64::new(0)).collect();
    let out_of_range = AtomicU64::new(0);
    let evictions = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    // Worker-side window timestamps: coordinator-side timing would
    // under-count whenever the OS runs the workers to completion before
    // rescheduling the coordinator (routine on an oversubscribed box).
    let window = MeasuredWindow::new(threads);

    std::thread::scope(|scope| {
        for tid in 0..threads {
            let (service, names, cumulative) = (&service, &names, &cumulative);
            let (bitmaps, duplicates, out_of_range) = (&bitmaps, &duplicates, &out_of_range);
            let (window, finished) = (&window, &finished);
            scope.spawn(move || {
                let _finished = FinishedGuard(finished);
                // Both per-thread streams derive from the one --seed.
                let mut rng = (seed ^ 0x9E37_79B9_7F4A_7C15u64).wrapping_mul(tid as u64 + 1) | 1;
                let mut sizes = counting_sim::batch_size_sequence(seed, tid as u64, MAX_BATCH);
                let mut scratch = Vec::with_capacity(MAX_BATCH);
                window.enter();
                for _ in 0..ops_per_thread {
                    let tenant = pick_tenant(cumulative, &mut rng);
                    let k = sizes.next().expect("the size stream is infinite");
                    // Fetch-per-op: the registry read path *is* part of
                    // the serving hot path being measured. The handle is
                    // dropped right after the operation, opening the
                    // eviction window the churn thread probes.
                    let counter = service.get_or_create(&names[tenant]);
                    scratch.clear();
                    counter.next_batch(tid, k, &mut scratch);
                    // Relaxed tallies: monotone statistics, never a
                    // control input; read back only after the join.
                    for &value in &scratch {
                        if value >= capacity {
                            out_of_range.fetch_add(1, Ordering::Relaxed);
                        } else if !bitmaps[tenant].mark(value) {
                            duplicates[tenant].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                window.exit();
            });
        }
        // Churn thread: sweep idle tenants for the whole run — eviction
        // racing live traffic must never fork a tenant's stream.
        let (service, finished, evictions) = (&service, &finished, &evictions);
        scope.spawn(move || {
            while finished.load(Ordering::Acquire) < threads {
                // Relaxed: monotone statistic, never a control input.
                evictions.fetch_add(service.evict_idle() as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
    });
    let elapsed = window.elapsed();

    // Quiescent verification: each tenant's hand-out must be exactly
    // `0..watermark` — dense across however many evict/revive cycles the
    // churn thread managed to land.
    let mut range_violations = 0u64;
    let mut tenant_stats = Vec::with_capacity(tenants);
    let mut total_values = 0u64;
    for (i, name) in names.iter().enumerate() {
        let watermark = service.watermark(name);
        total_values += watermark;
        let marked = capacity - bitmaps[i].missing();
        let first_gap = bitmaps[i].missing_values(1);
        let dense =
            marked == watermark && (watermark == capacity || first_gap.first() == Some(&watermark));
        if !dense {
            range_violations += 1;
            eprintln!(
                "tenant {name}: watermark {watermark}, marked {marked}, first gap {first_gap:?}"
            );
        }
        tenant_stats.push(TenantStat {
            tenant: name.clone(),
            values: watermark,
            values_per_second: rate_over(watermark, elapsed),
        });
    }

    ServiceReport {
        tenants,
        threads,
        ops_per_thread,
        total_values,
        elapsed_secs: elapsed.as_secs_f64(),
        aggregate_values_per_second: rate_over(total_values, elapsed),
        // Relaxed loads: post-join quiescent reads.
        evictions: evictions.load(Ordering::Relaxed),
        inflated_tenants: names
            .iter()
            .filter_map(|n| service.get(n))
            .filter(|t| t.is_inflated())
            .count(),
        inflations: service.inflations(),
        duplicates: duplicates.iter().map(|d| d.load(Ordering::Relaxed)).sum::<u64>(),
        out_of_range: out_of_range.load(Ordering::Relaxed),
        range_violations,
        tenant_stats,
    }
}

/// The largest contender count the crossover model is evaluated at.
const MODEL_MAX_N: usize = 16;

/// Nanoseconds per operation and thread at n = 1 and n = 2, for the word
/// (a default tenant, compact) and for the arena over a cursor
/// (`EliminationCounter<CentralCounter>`), blocks of `1..=MAX_BATCH`.
#[derive(Debug, Clone, Copy)]
struct Readings {
    word: [f64; 2],
    arena: [f64; 2],
}

/// The readings `INFLATE_CONTENDERS` was derived from: medians of 13
/// full runs of this section on a shared 2-vcpu guest (two threads at
/// most; not scaling data).
const RECORDED: Readings = Readings { word: [13.1, 106.5], arena: [32.0, 129.7] };

/// A caller's use of one value: a multiply–xorshift–multiply hash, about
/// the work the benchmark's `hot-tenant` oracle does per value.
fn consume(value: u64) -> u64 {
    let x = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x ^ x >> 29).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Nanoseconds per operation and thread when `threads` threads each
/// reserve `ops` blocks from `counter` and consume every value: the
/// median of five runs after one untimed run. Without the consumer,
/// back-to-back reservations read the two forms alike at n = 2, which
/// `hot-tenant` does not.
fn ns_per_op<C: BlockReserve>(counter: &C, threads: usize, ops: usize, seed: u64) -> f64 {
    let run = || {
        let window = MeasuredWindow::new(threads);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let window = &window;
                scope.spawn(move || {
                    let sizes: Vec<usize> =
                        counting_sim::batch_size_sequence(seed, tid as u64, MAX_BATCH)
                            .take(4096)
                            .collect();
                    let mut sum = 0u64;
                    window.enter();
                    for op in 0..ops {
                        let k = sizes[op % 4096];
                        let base = counter.reserve_block(tid, k);
                        sum = (base..base + k as u64).map(consume).fold(sum, u64::wrapping_add);
                    }
                    window.exit();
                    std::hint::black_box(sum);
                });
            }
        });
        window.elapsed().as_nanos() as f64 / ops as f64
    };
    run();
    let mut runs: Vec<f64> = (0..5).map(|_| run()).collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// Times both forms at n = 1 and n = 2.
fn measure(ops: usize, seed: u64) -> Readings {
    let service = CounterService::new(ServiceConfig::default());
    let word = service.get_or_create("word");
    let mut readings = Readings { word: [0.0; 2], arena: [0.0; 2] };
    for n in 1..=2 {
        readings.word[n - 1] = ns_per_op(&*word, n, ops, seed);
        let arena = EliminationCounter::new(CentralCounter::new());
        readings.arena[n - 1] = ns_per_op(&arena, n, ops, seed);
    }
    readings
}

/// ns/op(n) for both forms: per-visit cost + stalls(n) × stall cost.
/// `stalls[n - 1]` is the stall measure of one shared location (a
/// central balancer) under n round-robin processes; the arena's cursor
/// takes those stalls once per reservation, and one reservation serves
/// `combining[n - 1]` operations (the arena model, E14b's geometry).
#[derive(Debug)]
struct Model {
    stalls: Vec<f64>,
    combining: Vec<f64>,
    /// ns per stall, fitted on the word at n = 2.
    stall_ns: f64,
    per_visit: Readings,
}

impl Model {
    fn fit(readings: Readings) -> Self {
        let cursor = baselines::central_balancer(16).expect("valid width");
        let stalls: Vec<f64> = (1..=MODEL_MAX_N)
            .map(|n| {
                let tokens = 256 * n as u64;
                measure_contention(&cursor, n, tokens, SchedulerKind::RoundRobin, 1)
                    .amortized_contention
            })
            .collect();
        let combining = (1..=MODEL_MAX_N)
            .map(|n| {
                let config = ArenaConfig {
                    processes: n,
                    slots: DEFAULT_SLOTS,
                    spin_rounds: 4,
                    ops_per_process: 1024,
                    max_k: MAX_BATCH,
                    seed: DEFAULT_SEED,
                    probe: DEFAULT_PROBE,
                };
                simulate_arena(&config).combining_factor
            })
            .collect();
        let stall_ns = (readings.word[1] - readings.word[0]) / stalls[1];
        Self { stalls, combining, stall_ns, per_visit: readings }
    }

    fn word_ns(&self, n: usize) -> f64 {
        self.per_visit.word[0] + self.stalls[n - 1] * self.stall_ns
    }

    fn arena_ns(&self, n: usize) -> f64 {
        self.per_visit.arena[0] + self.stalls[n - 1] / self.combining[n - 1] * self.stall_ns
    }

    /// The fewest contenders from which the arena is cheaper. Never below
    /// 3: n = 1 and 2 are measured, and there the word is cheaper.
    fn crossover(&self) -> Option<usize> {
        (3..=MODEL_MAX_N).find(|&n| self.arena_ns(n) < self.word_ns(n))
    }
}

/// Prints E15's crossover section and returns the `n*` the recorded
/// readings derive.
fn crossover_section(quick: bool, seed: u64) -> Option<usize> {
    let model = Model::fit(RECORDED);
    let live = measure(if quick { 1 << 14 } else { 1 << 21 }, seed);
    println!(
        "## E15 — when a tenant inflates: the word against the arena over a cursor\n\n\
         ns per operation and thread, blocks of 1..={MAX_BATCH}; the model is fitted to the \
         recorded readings and checked against this run's (2 vcpus at most: not scaling data)\n"
    );
    let mut table = Table::new(vec!["form", "n", "recorded", "model", "this run", "model error"]);
    for (form, recorded, run) in
        [("word", RECORDED.word, live.word), ("arena + cursor", RECORDED.arena, live.arena)]
    {
        for n in 1..=2 {
            let predicted = if form == "word" { model.word_ns(n) } else { model.arena_ns(n) };
            let error = predicted / run[n - 1] - 1.0;
            table.push_row(vec![
                form.to_owned(),
                n.to_string(),
                format!("{:.1}", recorded[n - 1]),
                format!("{predicted:.1}"),
                format!("{:.1}", run[n - 1]),
                format!(
                    "{:+.0} %{}",
                    error * 100.0,
                    if error.abs() > 0.25 { " (> 25 %)" } else { "" }
                ),
            ]);
        }
    }
    println!("{}", table.to_markdown());
    let mut table =
        Table::new(vec!["n", "stalls/op", "ops/reservation", "word", "arena", "cheaper"]);
    for n in 1..=MODEL_MAX_N {
        let (word, arena) = (model.word_ns(n), model.arena_ns(n));
        table.push_row(vec![
            n.to_string(),
            format!("{:.2}", model.stalls[n - 1]),
            format!("{:.2}", model.combining[n - 1]),
            format!("{word:.0}"),
            format!("{arena:.0}"),
            (if arena < word { "arena" } else { "word" }).to_owned(),
        ]);
    }
    println!("{}", table.to_markdown());
    let n_star = model.crossover();
    let this_run_n_star = Model::fit(live).crossover();
    let show = |n: Option<usize>| n.map_or_else(|| format!(">{MODEL_MAX_N}"), |n| n.to_string());
    println!(
        "E15-crossover n*={} stall_ns={:.1} this_run_n*={} inflate_contenders={INFLATE_CONTENDERS}",
        show(n_star),
        model.stall_ns,
        show(this_run_n_star),
    );
    println!(
        "\nNotes: word(n) = word(1) + stalls(n) × s and arena(n) = arena(1) + stalls(n) / \
         combining(n) × s,\nwith stalls(n) from `measure_contention` on `central_balancer(16)`, \
         combining(n) from\n`simulate_arena` (4 slots, probe 2, 4 rounds of patience) and s \
         fitted on the word at n = 2.\nn* is the fewest contenders from which the arena is \
         cheaper; 2 is ruled out by the\nmeasurement. A tenant inflates once its CAS failures \
         prove n* contenders\n(`INFLATE_CONTENDERS`); the run fails if the recorded readings \
         derive another n*.\nn* is model-derived: only n = 1 and 2 are measured, and the arena \
         model's patience moves it\n(4 or 16 rounds derive 4; 2, 3, 5 or 8 rounds derive 3). \
         The timing checks are printed, not gated.\n"
    );
    n_star
}

fn main() {
    let args = Args::from_env(&["--quick"], &["--json", "--seed"]);
    let (quick, json_path) = (args.flag("--quick"), args.value("--json"));
    let seed = args.parsed("--seed", DEFAULT_SEED);

    let tenants = 64usize;
    let threads = 8usize;
    let ops_per_thread: u64 = if quick { 192 } else { 6_144 };

    println!(
        "## E15 — multi-tenant counter service, {tenants} tenants × {threads} threads, \
         Zipf-skewed popularity, mixed batches (1..={MAX_BATCH}), idle-tenant churn\n"
    );

    let mut table = Table::new(vec![
        "values/s",
        "hot tenant /s",
        "median /s",
        "cold tenant /s",
        "evictions",
        "inflated",
        "status",
    ]);
    let report = run(tenants, threads, ops_per_thread, seed);
    // Degenerate-window tenants (None) are excluded from the skew
    // percentiles rather than counted as zero-rate.
    let mut rates: Vec<f64> =
        report.tenant_stats.iter().filter_map(|t| t.values_per_second).collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    let skew_cell = |rate: Option<f64>, decimals: usize| {
        rate.map_or_else(|| "n/a".to_owned(), |r| format!("{:.decimals$}k", r / 1_000.0))
    };
    let broken = report.duplicates > 0 || report.out_of_range > 0 || report.range_violations > 0;
    table.push_row(vec![
        kilo_rate(report.aggregate_values_per_second),
        skew_cell(rates.last().copied(), 1),
        skew_cell(rates.get(rates.len() / 2).copied(), 1),
        skew_cell(rates.first().copied(), 2),
        report.evictions.to_string(),
        format!("{}/{} ({}×)", report.inflated_tenants, report.tenants, report.inflations),
        if broken {
            format!(
                "BROKEN(dup {}, oor {}, range {})",
                report.duplicates, report.out_of_range, report.range_violations
            )
        } else {
            "ok".to_owned()
        },
    ]);
    println!(
        "E15-aggregate rate={} evictions={} duplicates={} out_of_range={} range_violations={}",
        report.aggregate_values_per_second.map_or_else(|| "n/a".to_owned(), |r| format!("{r:.0}")),
        report.evictions,
        report.duplicates,
        report.out_of_range,
        report.range_violations
    );
    println!("\n{}", table.to_markdown());
    println!(
        "Notes: every tenant stream is drawn through contiguous block reservations, so\n\
         each tenant's hand-out must tile 0..watermark exactly — across idle-tenant\n\
         evictions, whose watermark hand-over is what the churn thread exercises. The\n\
         hot/median/cold columns show the Zipf skew surviving into per-tenant rates.\n\
         Tenants start as one CAS word and inflate to the elimination arena over one\n\
         cursor once their CAS failures prove n* = {INFLATE_CONTENDERS} contenders (the section below\n\
         derives n*; two threads never inflate a tenant): `inflated` is how many ended\n\
         the run inflated and (n×) how many inflations it saw (eviction deflates). On a\n\
         host with fewer than n* cpus tenants rarely if ever inflate (2 vcpus: none in\n\
         5 full runs).\n"
    );

    let doc = ServiceJson { seed, report, n_star: crossover_section(quick, seed) };
    emit_json(&doc, json_path);

    // Correctness gate: any duplicate or non-dense tenant stream fails
    // the process (CI runs this binary in the smoke job), after the JSON
    // was written for forensics; so does an `n*` the recorded readings no
    // longer derive.
    if broken {
        eprintln!("error: the run violated the per-tenant counting contract");
        std::process::exit(1);
    }
    if doc.n_star != Some(INFLATE_CONTENDERS) {
        eprintln!(
            "error: the recorded readings derive n* = {:?} against INFLATE_CONTENDERS = \
             {INFLATE_CONTENDERS}",
            doc.n_star
        );
        std::process::exit(1);
    }
}
