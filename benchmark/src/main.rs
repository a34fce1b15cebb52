//! The repo's benchmark: five workloads over the whole id path,
//! end-to-end metrics from untraced runs, a per-layer ladder and span
//! files from traced ones. README.md is the manual.
//!
//! ```text
//! counting-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! counting-benchmark --seed <n> [--trace] [--out <file>]     # every workload
//! counting-benchmark --selfcheck [--seed <n>]                # A/A: the suite twice
//! counting-benchmark --manifest                              # /BENCHMARK.json
//! ```

mod cpu;
mod gen;
mod hist;
mod ladder;
mod metrics;
mod oracle;
mod spans;
mod surface;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{undisturbed, Better, RunResult, END_TO_END, RUN_SECONDS, SETUP_REPEATS, WINDOWS};
use spans::median;
use workloads::{Params, Trace, Verdict, Window};

/// Where traced runs write their span files, relative to the repo root
/// the command is run from.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    selfcheck: bool,
    manifest: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
        selfcheck: false,
        manifest: false,
    };
    let mut argv = std::iter::from_fn(move || argv.next()).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand, bare `--trace` turns it on.
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--out" => args.out = Some(value("a file")?),
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    // Read the process's cpu set before any thread narrows its own.
    cpu::allowed();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\nsee benchmark/README.md for the command line");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let passed = match &args.workload {
        Some(name) if !workloads::NAMES.contains(&name.as_str()) => {
            eprintln!("unknown workload {name}; one of {:?}", workloads::NAMES);
            return ExitCode::from(2);
        }
        Some(name) => {
            let result = if args.trace {
                run_traced(name, args.seed, args.seconds, OUT_DIR)
            } else {
                run_untraced(name, args.seed, args.seconds, started)
            };
            println!("{}", result.to_line());
            result.correct
        }
        None if args.selfcheck => selfcheck(&args),
        None => suite(&args).is_some_and(|results| results.iter().all(|(_, r)| r.correct)),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Prints what went wrong (if anything) and folds the verdict into the
/// result's `correct` / `attempted` / `failed`.
fn conclude(verdict: &Verdict, metrics: Vec<(String, f64)>) -> RunResult {
    for line in verdict.examples.iter().chain(&verdict.violations).take(20) {
        println!("FAILED: {line}");
    }
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    if !finite {
        println!("FAILED: a metric is not a finite number");
    }
    let failed = verdict.failed_total();
    RunResult {
        correct: failed == 0 && finite && verdict.attempted > 0,
        attempted: verdict.attempted.max(1),
        failed,
        metrics: metrics
            .into_iter()
            .map(|(n, v)| (n, if v.is_finite() { v } else { 0.0 }))
            .collect(),
    }
}

fn print_metric(name: &str, value: f64, note: &str) {
    let unit = metrics::unit_of(name).expect("only dictionary metrics are reported");
    println!("{name:<30} {value:>18.4} {unit:<6} {note}");
}

/// The [`undisturbed`] one of `values`, printed with their range, after
/// the values themselves in the order they were measured (a slow stretch
/// of the host shows there as a run of neighbours).
fn report(name: &str, mut values: Vec<f64>, only_slows: bool) -> (String, f64) {
    let (metric, _) = END_TO_END.iter().find(|(m, _)| m.name == name).expect("an end-to-end name");
    let in_order: Vec<String> = values.iter().map(|v| format!("{v:.3e}")).collect();
    println!("# {name}, in order: {}", in_order.join(" "));
    let value = undisturbed(&mut values, metric.better, only_slows).unwrap_or(f64::NAN);
    let (min, max) =
        (values.first().copied().unwrap_or(value), values.last().copied().unwrap_or(value));
    let how = if only_slows { "best" } else { "median" };
    print_metric(name, value, &format!("{how} of {} (min {min:.4}, max {max:.4})", values.len()));
    (name.to_owned(), value)
}

/// One untraced run: set the workload up, measure [`WINDOWS`] windows,
/// tear down, check; then set up [`SETUP_REPEATS`]` - 1` more times for
/// `setup_s`. Reports the end-to-end metrics.
fn run_untraced(name: &str, seed: u64, seconds: f64, process_started: Instant) -> RunResult {
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let params = Params::for_host(seed, window, WINDOWS);
    println!(
        "# {name}: seed {seed}, {WINDOWS} windows of {:.2} s, T = {}, C = {}, nproc {}",
        window.as_secs_f64(),
        params.threads,
        params.conns,
        workloads::nproc()
    );
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = workloads::setup(name, params).expect("the name was checked");
    setup_s.push(process_started.elapsed().as_secs_f64());
    let only_slows = workload.disturbance_only_slows();
    let windows: Vec<Window> = (0..WINDOWS).map(|_| workload.window(None)).collect();
    let mut verdict = workload.finish();
    let peak_rss_mb = peak_rss_mb();
    // The other set-ups, for `setup_s`. They come after the measurement
    // so that what they leave behind in the allocator is not in
    // `peak_rss_mb`; each is torn down and checked like the real one.
    for _ in 1..SETUP_REPEATS {
        let from = Instant::now();
        let again = workloads::setup(name, params).expect("the name was checked");
        setup_s.push(from.elapsed().as_secs_f64());
        verdict.absorb(again.finish());
    }

    let quantile = |q: f64| {
        windows.iter().map(|w| w.latency.quantile(q).unwrap_or(f64::NAN)).collect::<Vec<_>>()
    };
    let samples: u64 = windows.iter().map(|w| w.latency.count()).sum();
    println!("# {} operations, {samples} latency samples", verdict.attempted);
    let metrics = vec![
        report("ops_per_s", windows.iter().map(Window::ops_per_s).collect(), only_slows),
        report("p50_ns", quantile(0.5), only_slows),
        report("p95_ns", quantile(0.95), only_slows),
        report("setup_s", setup_s, only_slows),
        ("peak_rss_mb".to_owned(), peak_rss_mb),
    ];
    print_metric("peak_rss_mb", peak_rss_mb, "VmHWM after the last window");
    print_metric("fail_share", verdict.fail_share(), "failed / attempted");
    conclude(&verdict, metrics)
}

/// One traced run: an untraced and a traced window of the workload (the
/// difference is the tracing overhead), then the whole per-layer ladder.
/// Writes the span file and reports the per-layer metrics.
fn run_traced(name: &str, seed: u64, seconds: f64, out_dir: &str) -> RunResult {
    let window = Duration::from_secs_f64(seconds / 10.0);
    let params = Params::for_host(seed, window, 2);
    println!("# {name}: traced, seed {seed}, windows of {:.2} s", window.as_secs_f64());
    let mut workload = workloads::setup(name, params).expect("the name was checked");
    let untraced = workload.window(None);
    let (mut spans, mut dropped) = (Vec::new(), 0);
    let origin = Instant::now();
    let traced = workload.window(Some(Trace { origin, spans: &mut spans, dropped: &mut dropped }));
    let mut verdict = workload.finish();

    let ladder = ladder::run(params, ladder::Size::for_seconds(seconds));
    verdict.absorb(ladder.verdict);
    let mut metrics = ladder.metrics;
    let overhead = 1.0 - traced.ops_per_s() / untraced.ops_per_s();
    metrics.push(("bench.trace_overhead_share", overhead));
    metrics.push(("fail_share", verdict.fail_share()));
    // Report in dictionary order, and only dictionary metrics.
    let metrics: Vec<(String, f64)> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            let value = metrics.iter().find(|(n, _)| *n == m.name).map_or(f64::NAN, |&(_, v)| v);
            print_metric(m.name, value, "");
            (m.name.to_owned(), value)
        })
        .collect();

    print_span_summary(&spans);
    let path = format!("{out_dir}/trace-{name}.json");
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans::write_json(
            &mut file,
            name,
            dropped,
            &[("spans", &spans), ("ladder", &ladder.spans)],
        )?;
        std::io::Write::flush(&mut file)
    });
    match written {
        Ok(()) => println!("# {} + {} spans written to {path}", spans.len(), ladder.spans.len()),
        Err(e) => verdict.violations.push(format!("writing {path}: {e}")),
    }
    conclude(&verdict, metrics)
}

/// Per span name: how many, median duration and median self time.
fn print_span_summary(spans: &[spans::Span]) {
    let self_ns = spans::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (Vec<f64>, Vec<f64>)> = Default::default();
    for (span, &own) in spans.iter().zip(&self_ns) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push((span.end_ns - span.start_ns) as f64);
        entry.1.push(own as f64);
    }
    println!("# spans of the traced window: name, count, median ns, median self ns");
    for (name, (mut total, mut own)) in by_name {
        let n = total.len();
        let (total, own) = (median(&mut total).unwrap_or(0.0), median(&mut own).unwrap_or(0.0));
        println!("#   {name:<26} {n:>8} {total:>14.1} {own:>14.1}");
    }
}

/// Runs every workload, each in a child process of its own (so set-up
/// time and peak memory are per workload), and returns their results.
/// `None` when a child could not be run or printed no result.
fn suite(args: &Args) -> Option<Vec<(&'static str, RunResult)>> {
    let exe = std::env::current_exe().ok()?;
    let mut results = Vec::new();
    for trace in if args.trace { &[false, true][..] } else { &[false][..] } {
        for name in workloads::NAMES {
            let output = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if *trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .ok()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (report, last) = stdout.trim_end().rsplit_once('\n')?;
            println!("{report}");
            let Some(result) = RunResult::from_line(last) else {
                println!("{last}\n{name}: no result line");
                return None;
            };
            results.push((name, result));
        }
    }
    if let Some(path) = &args.out {
        let rows: Vec<String> = results
            .iter()
            .map(|(name, r)| {
                let traced = r.get("ops_per_s").is_none();
                format!(
                    "{{\"workload\": \"{name}\", \"trace\": {traced}, \"result\": {}}}",
                    r.to_line()
                )
            })
            .collect();
        let text = format!("{{\"seed\": {}, \"runs\": [\n{}\n]}}\n", args.seed, rows.join(",\n"));
        if let Err(e) = std::fs::write(path, text) {
            println!("writing {path}: {e}");
            return None;
        }
    }
    Some(results)
}

/// A/A: the untraced suite twice on the same build. Prints, per metric
/// and workload, how far the second run is from the first against the
/// metric's bound; fails if any is further.
fn selfcheck(args: &Args) -> bool {
    let args = Args {
        workload: None,
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        out: None,
        selfcheck: true,
        manifest: false,
    };
    let (Some(first), Some(second)) = (suite(&args), suite(&args)) else {
        return false;
    };
    println!("\n| workload | metric | first | second | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    let mut passed = true;
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        passed &= a.correct && b.correct;
        for (metric, bound) in END_TO_END {
            let (Some(x), Some(y)) = (a.get(metric.name), b.get(metric.name)) else {
                println!("| {name} | {} | missing | | | | FAIL |", metric.name);
                passed = false;
                continue;
            };
            let worse = if metric.better == Better::Higher { (x - y) / x } else { (y - x) / x };
            let ok = worse <= bound;
            passed &= ok;
            println!(
                "| {name} | {} | {x:.4} | {y:.4} | {:+.2} % | {:.0} % | {} |",
                metric.name,
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_driver_and_the_hand_typed_command_lines_both_parse() {
        let driver = args("--workload http-open --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(driver.workload.as_deref(), Some("http-open"));
        assert_eq!((driver.seed, driver.seconds, driver.trace), (7, 10.0, true));
        assert!(!args("--workload x --trace 0").unwrap().trace);
        let by_hand = args("--seed 3 --trace --out results.json").unwrap();
        assert!(by_hand.trace && by_hand.workload.is_none());
        assert_eq!(by_hand.out.as_deref(), Some("results.json"));
        assert!(args("--selfcheck").unwrap().selfcheck);
        assert!(args("--seed").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--frobnicate").is_err());
    }

    /// Every workload end to end for one second, untraced: it measures,
    /// the oracle passes, and every end-to-end metric is a positive number.
    #[test]
    fn every_workload_survives_a_one_second_run() {
        for name in workloads::NAMES {
            let result = run_untraced(name, 5, 1.0, Instant::now());
            assert!(result.correct, "{name}: {result:?}");
            assert_eq!(result.failed, 0, "{name}");
            for (metric, _) in END_TO_END {
                let value = result.get(metric.name);
                assert!(value.is_some_and(|v| v > 0.0), "{name} {}: {value:?}", metric.name);
            }
        }
    }

    /// One breach is enough: the result says so, which is what makes the
    /// command exit non-zero after it has printed.
    #[test]
    fn a_violation_makes_the_run_incorrect() {
        let clean = Verdict { attempted: 10, ..Verdict::default() };
        assert!(conclude(&clean, vec![("ops_per_s".to_owned(), 1.0)]).correct);
        let breached = Verdict {
            attempted: 10,
            violations: vec!["stream t3: 4 ids handed out are not exactly 0..4".to_owned()],
            ..Verdict::default()
        };
        let result = conclude(&breached, vec![("ops_per_s".to_owned(), 1.0)]);
        assert!(!result.correct);
        assert_eq!((result.attempted, result.failed), (10, 1));
        assert!(!conclude(&clean, vec![("ops_per_s".to_owned(), f64::NAN)]).correct);
    }

    /// A traced run reports every per-layer metric as a finite number and
    /// writes a span file with both sections.
    #[test]
    fn a_traced_run_reports_the_whole_ladder_and_writes_its_spans() {
        let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out/test");
        let result = run_traced("http-closed", 5, 1.0, out_dir);
        assert!(result.correct, "{result:?}");
        for metric in metrics::PER_LAYER {
            assert!(result.get(metric.name).is_some_and(f64::is_finite), "{}", metric.name);
        }
        assert_eq!(result.get("balnet.depth"), Some(10.0), "depth of C(16,16) is (lg²w + lg w)/2");
        assert_eq!(result.get("fail_share"), Some(0.0));
        let text = std::fs::read_to_string(format!("{out_dir}/trace-http-closed.json")).unwrap();
        for expected in ["\"spans\": [", "\"ladder\": [", "\"wait_reply\"", "\"runtime.traverse\""]
        {
            assert!(text.contains(expected), "the span file has {expected}");
        }
    }

    /// Nothing under `benchmark/src` but `surface.rs` names a crate of
    /// the stack, and nothing at all names a ROADMAP deletion candidate.
    #[test]
    fn the_stack_is_reached_only_through_the_surface_module() {
        // Crate paths, written split so this file does not match itself.
        let stack: Vec<String> =
            ["bal|net::", "counting|::", "counting|_runtime", "counting|_service"]
                .into_iter()
                .chain(["counting|_server", "counting|_cluster", "counting|_sim"])
                .map(|split| split.replace('|', ""))
                .collect();
        let doomed = [
            ["Boxed", "RouteNetwork"].concat(),
            ["Lock", "Counter"].concat(),
            ["WaitStrategy", "::Spin"].concat(),
            ["run", "_live"].concat(),
            ["bench", "::"].concat(),
        ];
        let mut files = vec![];
        let mut dirs = vec![std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/src"))];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    files.push(path);
                }
            }
        }
        assert!(files.len() >= 12, "the walk found the sources: {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            for name in &doomed {
                assert!(!text.contains(name.as_str()), "{path:?} names {name}");
            }
            if path.ends_with("surface.rs") {
                continue;
            }
            for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
                for krate in &stack {
                    assert!(!line.contains(krate.as_str()), "{path:?} reaches the stack: {line}");
                }
            }
        }
    }
}
