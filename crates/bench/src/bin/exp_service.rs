//! Experiment E15 — the multi-tenant counter service under skewed
//! serving traffic: 64 tenants × 8 threads drive a [`CounterService`]
//! per input width of `C(w,16)`, with tenant popularity drawn from a Zipf
//! distribution, mixed batch sizes, and a churn thread evicting idle
//! tenants the whole time.
//!
//! Every tenant's hand-out is checked against the Fetch&Increment
//! contract — unique and exactly `0..watermark` at quiescence, across
//! evictions — via one `ValueBitmap` per tenant; the table reports
//! per-backend aggregate, hot/cold tenant rates and how many tenants
//! the traffic inflated, and the JSON artifact carries the full
//! per-tenant breakdown.
//!
//! Run with: `cargo run --release -p bench --bin exp_service
//! [-- --quick] [--json <path>] [--seed <u64>]`

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use bench::{kilo_rate, service_width_sweep, Args, Table};
use counting::counting_depth;
use counting_runtime::{rate_over, MeasuredWindow, SharedCounter, ValueBitmap};
use counting_service::{CounterService, ServiceConfig};
use serde::Serialize;

/// Largest batch size drawn by the mixed-size stream.
const MAX_BATCH: usize = 4;
/// Default `--seed`: every deterministic stream of the run — the
/// per-thread batch-size sequences *and* the per-thread tenant-pick RNGs
/// — derives from this one seed, so a run's value assignment is
/// reproducible from its recorded seed alone.
const DEFAULT_SEED: u64 = 0xE15;

/// The whole JSON document: the seed plus one report per backend.
#[derive(Debug, Serialize)]
struct ServiceJson {
    seed: u64,
    reports: Vec<BackendReport>,
}

/// One backend row of the matrix.
#[derive(Debug, Serialize)]
struct BackendReport {
    backend: String,
    /// Balancers under one inflated reservation: `counting_depth(w)`.
    depth: usize,
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

/// Drives one service configuration through the skewed-tenant workload
/// and verifies every tenant's stream.
fn run_backend(
    config: ServiceConfig,
    tenants: usize,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> BackendReport {
    let service = CounterService::new(config);
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

    BackendReport {
        backend: config.label(),
        depth: counting_depth(config.width),
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
        "backend",
        "depth",
        "values/s",
        "hot tenant /s",
        "median /s",
        "cold tenant /s",
        "evictions",
        "inflated",
        "status",
    ]);
    let mut reports = Vec::new();
    for config in service_width_sweep() {
        let report = run_backend(config, tenants, threads, ops_per_thread, seed);
        // Degenerate-window tenants (None) are excluded from the skew
        // percentiles rather than counted as zero-rate.
        let mut rates: Vec<f64> =
            report.tenant_stats.iter().filter_map(|t| t.values_per_second).collect();
        rates.sort_by(|a, b| a.total_cmp(b));
        let skew_cell = |rate: Option<f64>, decimals: usize| {
            rate.map_or_else(|| "n/a".to_owned(), |r| format!("{:.decimals$}k", r / 1_000.0))
        };
        let broken =
            report.duplicates > 0 || report.out_of_range > 0 || report.range_violations > 0;
        table.push_row(vec![
            report.backend.clone(),
            report.depth.to_string(),
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
            "E15-aggregate backend={} rate={} evictions={} duplicates={} out_of_range={} \
             range_violations={}",
            report.backend,
            report
                .aggregate_values_per_second
                .map_or_else(|| "n/a".to_owned(), |r| format!("{r:.0}")),
            report.evictions,
            report.duplicates,
            report.out_of_range,
            report.range_violations
        );
        reports.push(report);
    }
    println!("\n{}", table.to_markdown());
    println!(
        "Notes: every tenant stream is drawn through contiguous block reservations, so\n\
         each tenant's hand-out must tile 0..watermark exactly — across idle-tenant\n\
         evictions, whose watermark hand-over is what the churn thread exercises. The\n\
         hot/median/cold columns show the Zipf skew surviving into per-tenant rates.\n\
         Tenants start as one CAS word and inflate to the arena over the row's network\n\
         under sustained contention: `inflated` is how many ended the run inflated and\n\
         (n×) how many inflations it saw (eviction deflates).\n\
         `depth` is the balancers under one inflated reservation: it follows the input\n\
         width w of C(w,16) alone, (lg²w + lg w)/2. On a host with fewer cpus than the\n\
         8 threads the rates say little about it: few tenants inflate at all.\n"
    );

    let doc = ServiceJson { seed, reports };
    let json = serde_json::to_string(&doc).expect("reports serialize");
    match json_path {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON report file");
            println!("JSON written to {path}");
        }
        None => println!("{json}"),
    }

    // Correctness gate: any duplicate or non-dense tenant stream fails
    // the process (CI runs this binary in the smoke job), after the JSON
    // was written for forensics.
    let broken = doc
        .reports
        .iter()
        .filter(|r| r.duplicates > 0 || r.out_of_range > 0 || r.range_violations > 0)
        .count();
    if broken > 0 {
        eprintln!("error: {broken} backend run(s) violated the per-tenant counting contract");
        std::process::exit(1);
    }
}
