//! Smoke tests for the experiment binaries: run each `exp_*` with the
//! `--quick` parameter set (tiny token counts) and check it exits
//! successfully and prints at least one Markdown table. This keeps the
//! bench bins from silently rotting — they are compiled and executed on
//! every `cargo test` run.

use std::process::Command;

fn run_quick(exe: &str, args: &[&str]) -> String {
    let output = Command::new(exe).args(args).output().expect("binary should spawn");
    assert!(
        output.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("experiment output is UTF-8")
}

fn assert_prints_markdown_table(exe: &str, args: &[&str]) {
    let stdout = run_quick(exe, args);
    assert!(
        stdout.lines().any(|l| l.starts_with("| ")),
        "{exe} printed no Markdown table:\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("## ")),
        "{exe} printed no section heading:\n{stdout}"
    );
}

#[test]
fn exp_depth_prints_tables() {
    // exp_depth is all closed-form construction; it has no --quick knob
    // and is already fast.
    assert_prints_markdown_table(env!("CARGO_BIN_EXE_exp_depth"), &[]);
}

#[test]
fn exp_contention_quick_prints_tables() {
    assert_prints_markdown_table(env!("CARGO_BIN_EXE_exp_contention"), &["--quick"]);
}

#[test]
fn exp_blocks_quick_prints_tables() {
    assert_prints_markdown_table(env!("CARGO_BIN_EXE_exp_blocks"), &["--quick"]);
}

#[test]
fn exp_smoothing_quick_prints_tables() {
    assert_prints_markdown_table(env!("CARGO_BIN_EXE_exp_smoothing"), &["--quick"]);
}

#[test]
fn exp_sorting_quick_prints_tables() {
    assert_prints_markdown_table(env!("CARGO_BIN_EXE_exp_sorting"), &["--quick"]);
}

#[test]
fn exp_ablation_quick_prints_tables() {
    assert_prints_markdown_table(env!("CARGO_BIN_EXE_exp_ablation"), &["--quick"]);
}

#[test]
fn exp_throughput_quick_prints_tables() {
    assert_prints_markdown_table(env!("CARGO_BIN_EXE_exp_throughput"), &["--quick"]);
}

/// Asserts that every report in the serialized array has `field` equal to
/// zero: the number of `"field":0` occurrences must equal the number of
/// `"field":` occurrences (values are plain non-negative integers, so a
/// non-zero value never starts with the digit 0).
fn assert_every_report_has_zero(json: &str, field: &str) {
    let total = json.matches(&format!("\"{field}\":")).count();
    let zeros = json.matches(&format!("\"{field}\":0")).count();
    assert!(total > 0, "no `{field}` fields found in JSON:\n{json}");
    assert_eq!(zeros, total, "{} report(s) have non-zero `{field}`:\n{json}", total - zeros);
}

#[test]
fn exp_stress_quick_prints_tables_and_json() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp_stress"), &["--quick"]);
    assert!(stdout.lines().any(|l| l.starts_with("| ")), "no Markdown table:\n{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("## ")), "no section heading:\n{stdout}");
    // Without --json, the reports are printed as a JSON array on stdout.
    // Every report — including the recorded E13b runs that never reach a
    // rate table cell — must satisfy the counting contract.
    let json_line = stdout.lines().find(|l| l.starts_with('[')).expect("no JSON array printed");
    for field in ["duplicates", "missing", "out_of_range"] {
        assert_every_report_has_zero(json_line, field);
    }
    // No table cell may report a broken invariant (the notes paragraph
    // legitimately mentions the marker).
    assert!(
        !stdout.lines().any(|l| l.starts_with("| ") && l.contains("BROKEN")),
        "stress matrix reported a violation:\n{stdout}"
    );
}

/// One shared `--quick` run of `exp_elimination`, reused by every test
/// that only reads its stdout — the binary now drives the 48-cell E14c
/// matrix (whose park cells sleep on futile offers), so re-spawning it
/// per assertion would triple the suite's wall-clock for nothing.
fn exp_elimination_quick_stdout() -> &'static str {
    static STDOUT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    STDOUT.get_or_init(|| run_quick(env!("CARGO_BIN_EXE_exp_elimination"), &["--quick"]))
}

#[test]
fn exp_elimination_quick_prints_tables_and_passes_its_gate() {
    let stdout = exp_elimination_quick_stdout();
    assert!(stdout.lines().any(|l| l.starts_with("| ")), "no Markdown table:\n{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("## ")), "no section heading:\n{stdout}");
    // Demonstration cells (raw mixed-size strides) may report gaps, but
    // no cell may be BROKEN — the binary exits nonzero then, which
    // run_quick already rejects; double-check the table text too.
    assert!(
        !stdout.lines().any(|l| l.starts_with("| ") && l.contains("BROKEN")),
        "elimination matrix reported an unexpected violation:\n{stdout}"
    );
    // All three tables are present: the rate matrix, the
    // measured-vs-model arena statistics, and the strategy comparison.
    assert!(stdout.contains("E14b"), "missing arena statistics table:\n{stdout}");
    assert!(stdout.contains("model (counting-sim)"), "missing model row:\n{stdout}");
    assert!(stdout.contains("E14c"), "missing waiting-strategy table:\n{stdout}");
}

#[test]
fn exp_elimination_quick_park_out_merges_spin_yield_when_oversubscribed() {
    // The E14c gate: parking exists to make arena rendezvous land when
    // runnable worker threads outnumber cpus (a spinning waiter owns its
    // only core, so its partner can never arrive). On such a box the
    // aggregate park merge rate across the 4-counter × 6-scenario matrix
    // must beat spin-yield's; on a box with enough cores the comparison
    // is not meaningful (spinning already rendezvouses) and only the
    // matrix's zero-violation gate applies (enforced by the exit status).
    // The assertion requires *strong* oversubscription (threads ≥ 2 ×
    // cpus): under mild oversubscription (e.g. 8 threads on 6 cpus) most
    // spinning waiters still have a genuinely parallel partner, the two
    // aggregates converge, and a strict inequality over quick-mode
    // sample sizes would flake.
    let stdout = exp_elimination_quick_stdout();
    let marker = stdout
        .lines()
        .find_map(|l| l.strip_prefix("E14c-oversubscribed="))
        .expect("missing E14c-oversubscribed line");
    let field = |key: &str| -> u64 {
        marker
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in marker line: {marker}"))
            .parse()
            .expect("marker field parses")
    };
    let (threads, cpus) = (field("threads"), field("cpus"));
    assert_eq!(marker.starts_with("true"), threads > cpus, "flag must match the counts");
    let strongly_oversubscribed = threads >= 2 * cpus;
    let rate = |strategy: &str| -> f64 {
        let prefix = format!("E14c-aggregate strategy={strategy} merge_rate=");
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("missing aggregate line for {strategy}:\n{stdout}"))
            .trim()
            .parse()
            .expect("merge rate parses")
    };
    let park = rate("park");
    let spin_yield = rate("spin-yield");
    assert!((0.0..=1.0).contains(&park) && (0.0..=1.0).contains(&spin_yield));
    if strongly_oversubscribed {
        assert!(
            park > spin_yield,
            "threads ({threads}) ≥ 2 × cpus ({cpus}), so park ({park}) must out-merge \
             spin-yield ({spin_yield}):\n{stdout}"
        );
    }
}

#[test]
fn exp_elimination_quick_writes_json_file_and_honors_strategy_flag() {
    let path =
        std::env::temp_dir().join(format!("exp_elimination_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let stdout = run_quick(
        env!("CARGO_BIN_EXE_exp_elimination"),
        &["--quick", "--json", path_str, "--strategy", "park"],
    );
    assert!(stdout.contains("JSON written to"), "missing file notice:\n{stdout}");
    assert!(stdout.contains("strategy park"), "E14 heading must name the strategy:\n{stdout}");
    let json = std::fs::read_to_string(&path).expect("JSON file written");
    assert!(json.contains("\"strategy\":\"park\""), "missing selected strategy: {json}");
    assert!(json.contains("\"stress\":["), "missing stress reports: {json}");
    assert!(json.contains("\"arena_measured\":["), "missing measured arena stats: {json}");
    assert!(json.contains("\"arena_model\":{"), "missing model report: {json}");
    assert!(json.contains("\"strategy_matrix\":["), "missing E14c matrix: {json}");
    assert!(json.contains("\"strategy_aggregates\":["), "missing E14c aggregates: {json}");
    // The elimination-path reports must be exact; raw mixed-stride
    // demonstrations may gap but must never duplicate.
    assert_every_report_has_zero(&json, "duplicates");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exp_service_quick_passes_its_gate_at_every_width() {
    // The E15 gate: 64 tenants × 8 threads under Zipf-skewed popularity
    // with idle-tenant churn — every tenant's hand-out must be unique
    // and exact-range (the binary exits nonzero otherwise, which
    // run_quick rejects), and the JSON must carry per-tenant plus
    // aggregate rates at every input width of the (w, t) sweep.
    let path = std::env::temp_dir().join(format!("exp_service_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp_service"), &["--quick", "--json", path_str]);
    // (The default seed 0xE15 = 3605 must be recorded verbatim.)
    assert!(stdout.lines().any(|l| l.starts_with("| ")), "no Markdown table:\n{stdout}");
    assert!(stdout.contains("## E15"), "missing section heading:\n{stdout}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("| ") && l.contains("BROKEN")),
        "service matrix reported a violation:\n{stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("JSON file written");
    // Depth follows w alone: (lg²w + lg w)/2 = 1, 3, 10 at t = 16.
    for (network, depth) in [("C(2,16)", 1), ("C(4,16)", 3), ("C(16,16)", 10)] {
        let backend = format!("backend={network} ");
        assert!(
            stdout.lines().any(|l| l.starts_with("E15-aggregate") && l.contains(&backend)),
            "missing aggregate line for {backend}:\n{stdout}"
        );
        let report = format!("\"backend\":\"{network}\",\"depth\":{depth},");
        assert!(json.contains(&report), "missing report {report}: {json}");
    }
    assert!(json.starts_with('{'), "reports must be wrapped with the seed: {json}");
    assert!(json.contains("\"seed\":3605"), "missing recorded seed: {json}");
    assert!(json.contains("\"reports\":["), "missing report array: {json}");
    assert!(json.contains("\"tenant_stats\":["), "missing per-tenant stats: {json}");
    assert!(json.contains("\"aggregate_values_per_second\":"), "missing aggregate rate: {json}");
    assert!(json.contains("\"tenant\":\"tenant-063\""), "missing the 64th tenant: {json}");
    for field in ["duplicates", "out_of_range", "range_violations"] {
        assert_every_report_has_zero(&json, field);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exp_server_quick_sustains_the_client_fleet_with_zero_violations() {
    // The E17 gate: thousands of open-loop simulated clients over real
    // sockets — every ticket and lease id observed in an HTTP response
    // must be unique and dense, no rate window may over-admit, and every
    // waiting client must eventually be admitted (the binary exits
    // nonzero otherwise, which run_quick rejects). The JSON carries the
    // per-endpoint latency histograms CI uploads as an artifact.
    let path = std::env::temp_dir().join(format!("exp_server_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp_server"), &["--quick", "--json", path_str]);
    assert!(stdout.lines().any(|l| l.starts_with("| ")), "no Markdown table:\n{stdout}");
    assert!(stdout.contains("## E17"), "missing section heading:\n{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("E17-aggregate")),
        "missing machine-readable aggregate line:\n{stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("JSON file written");
    // 0xE17 = 3607: the default seed must be recorded verbatim.
    assert!(json.contains("\"seed\":3607"), "missing recorded seed: {json}");
    assert!(json.contains("\"reports\":["), "missing report array: {json}");
    assert!(json.contains("\"peak_active\":"), "missing concurrency high-water mark: {json}");
    assert!(json.contains("\"endpoints\":["), "missing per-endpoint reports: {json}");
    assert!(json.contains("\"buckets\":["), "missing latency histograms: {json}");
    assert!(json.contains("\"p99_us\":"), "missing latency percentiles: {json}");
    for field in [
        "duplicates",
        "range_violations",
        "rate_over_admissions",
        "unadmitted_clients",
        "admission_bound_errors",
    ] {
        assert_every_report_has_zero(&json, field);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exp_cluster_quick_passes_every_sweep_cell() {
    // The E18 gate: the clean block-lease protocol survives every cell
    // of the node-count × fault × churn sweep (the binary exits nonzero
    // on any uniqueness / exact-range / liveness violation, which
    // run_quick rejects).
    let path = std::env::temp_dir().join(format!("exp_cluster_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp_cluster"), &["--quick", "--json", path_str]);
    assert!(stdout.lines().any(|l| l.starts_with("| ")), "no Markdown table:\n{stdout}");
    assert!(stdout.contains("## E18"), "missing section heading:\n{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("E18-aggregate")),
        "missing machine-readable aggregate line:\n{stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("JSON file written");
    // 0xE18 = 3608: the default seed must be recorded verbatim.
    assert!(json.contains("\"seed\":3608"), "missing recorded seed: {json}");
    assert!(json.contains("\"values_per_kilotick\":"), "missing deterministic rate: {json}");
    assert!(json.contains("\"churn\":\"churny\""), "missing churny cells: {json}");
    assert!(!json.contains("\"converged\":false"), "a cell failed to drain: {json}");
    assert!(json.contains("\"violations\":[]"), "missing violation arrays: {json}");
    // The replicated-coordinator axis is part of the quick sweep: a
    // 3-replica cell with replica churn and partition windows must
    // drain clean too.
    assert!(json.contains("\"replicas\":3"), "missing 3-replica cell: {json}");
    assert!(stdout.contains("4n/r3/"), "missing replica cell row:\n{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exp_cluster_rejects_unknown_mutations_and_names_the_valid_ones() {
    // The strict-parsing gate: an unknown mutation name must exit
    // nonzero with an error listing every valid flag, not panic.
    let output = Command::new(env!("CARGO_BIN_EXE_exp_cluster"))
        .args(["--quick", "--mutation", "no-such-bug"])
        .output()
        .expect("binary should spawn");
    assert!(!output.status.success(), "unknown mutation must be rejected");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown --mutation"), "error not named in stderr:\n{stderr}");
    assert!(stderr.contains("no-such-bug"), "offending flag not echoed:\n{stderr}");
    for flag in
        ["skip-recovery", "grant-no-dedup", "split-brain-double-grant", "commit-before-quorum"]
    {
        assert!(stderr.contains(flag), "valid mutation {flag} not listed:\n{stderr}");
    }
    assert!(
        !String::from_utf8_lossy(&output.stderr).contains("panicked"),
        "rejection must be an error message, not a panic:\n{stderr}"
    );
}

#[test]
fn exp_cluster_same_seed_is_byte_identical() {
    // Determinism regression (the tentpole's core claim): two runs under
    // one --seed must produce byte-identical stdout *and* JSON — the
    // artifact carries no wall-clock or host data, so any divergence is
    // a nondeterminism bug in the simulation, not noise.
    let dir = std::env::temp_dir().join(format!("exp_cluster_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_a = dir.join("a.json");
    let json_b = dir.join("b.json");
    let stdout_a = run_quick(
        env!("CARGO_BIN_EXE_exp_cluster"),
        &["--quick", "--seed", "42", "--json", json_a.to_str().expect("utf-8 temp path")],
    );
    let stdout_b = run_quick(
        env!("CARGO_BIN_EXE_exp_cluster"),
        &["--quick", "--seed", "42", "--json", json_b.to_str().expect("utf-8 temp path")],
    );
    let strip = |s: &str| {
        // The trailing "JSON written to <path>" line names different
        // temp files; everything above it must match byte-for-byte.
        s.lines().filter(|l| !l.starts_with("JSON written to")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(strip(&stdout_a), strip(&stdout_b), "stdout diverged under one seed");
    let bytes_a = std::fs::read(&json_a).expect("first JSON written");
    let bytes_b = std::fs::read(&json_b).expect("second JSON written");
    assert_eq!(bytes_a, bytes_b, "JSON artifacts diverged under one seed");
    // And a different seed must actually change the run.
    let json_c = dir.join("c.json");
    let _ = run_quick(
        env!("CARGO_BIN_EXE_exp_cluster"),
        &["--quick", "--seed", "43", "--json", json_c.to_str().expect("utf-8 temp path")],
    );
    let bytes_c = std::fs::read(&json_c).expect("third JSON written");
    assert_ne!(bytes_a, bytes_c, "seed 43 reproduced seed 42's sweep exactly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exp_cluster_mutations_are_caught_by_the_checker() {
    // Calibration in the spawned-binary direction: each injected
    // protocol bug must be caught somewhere in the sweep (the binary
    // inverts its gate under --mutation and exits nonzero if the bug
    // survives every cell).
    for mutation in
        ["skip-recovery", "grant-no-dedup", "split-brain-double-grant", "commit-before-quorum"]
    {
        let stdout =
            run_quick(env!("CARGO_BIN_EXE_exp_cluster"), &["--quick", "--mutation", mutation]);
        assert!(
            stdout.contains(&format!("mutation {mutation} caught in")),
            "{mutation} was not reported as caught:\n{stdout}"
        );
    }
}

/// Docs-drift gate: `REPRODUCING.md` maps every experiment binary to the
/// paper result it reproduces. A new `exp_*` binary that is not added to
/// the map fails the suite (CI re-checks the same invariant with a grep
/// so the docs cannot rot even when tests are skipped).
#[test]
fn reproducing_md_names_every_exp_binary() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let reproducing = std::fs::read_to_string(format!("{manifest}/../../REPRODUCING.md"))
        .expect("REPRODUCING.md exists at the workspace root");
    let bin_dir = std::fs::read_dir(format!("{manifest}/src/bin")).expect("bin dir exists");
    let mut checked = 0;
    for entry in bin_dir {
        let name = entry.expect("readable dir entry").file_name();
        let name = name.to_str().expect("utf-8 file name");
        if let Some(bin) = name.strip_suffix(".rs") {
            assert!(
                reproducing.contains(bin),
                "REPRODUCING.md does not mention `{bin}` — add it to the experiment map"
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "expected to check every exp_* binary, found {checked}");
}

/// Docs-drift gate for the benchmark: performance claims are made only as
/// a `/BENCHMARK.json` metric × workload, so `REPRODUCING.md` must name
/// every workload and end-to-end metric declared there and quote the
/// command that runs it.
#[test]
fn reproducing_md_names_every_benchmark_workload_and_end_to_end_metric() {
    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
    }
    #[derive(serde::Deserialize)]
    struct Manifest {
        command: Vec<String>,
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
    }
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let read = |file: &str| {
        std::fs::read_to_string(format!("{root}/{file}"))
            .unwrap_or_else(|e| panic!("{file} is readable at the workspace root: {e}"))
    };
    let reproducing = read("REPRODUCING.md");
    let manifest: Manifest =
        serde_json::from_str(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!((manifest.workloads.len(), manifest.end_to_end.len()), (5, 5));
    for Named { name } in manifest.workloads.iter().chain(&manifest.end_to_end) {
        assert!(
            reproducing.contains(&format!("`{name}`")),
            "REPRODUCING.md does not name `{name}`"
        );
    }
    let command = manifest.command.join(" ");
    assert!(reproducing.contains(&command), "REPRODUCING.md does not quote `{command}`");
}

#[test]
fn exp_stress_quick_writes_json_file() {
    // Unique per-process path: concurrent test-suite runs on one machine
    // must not race on a shared temp file.
    let path = std::env::temp_dir().join(format!("exp_stress_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp_stress"), &["--quick", "--json", path_str]);
    assert!(stdout.contains("JSON written to"), "missing file notice:\n{stdout}");
    let json = std::fs::read_to_string(&path).expect("JSON file written");
    assert!(json.starts_with('['), "not a JSON array: {json}");
    assert!(json.contains("\"scenario\":\"steady\""), "missing steady reports: {json}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exp_stress_rejects_a_misspelt_flag_and_names_the_known_ones() {
    // Strict flag parsing (`bench::args`): `--quik` must not silently run
    // the full-size matrix.
    let output = Command::new(env!("CARGO_BIN_EXE_exp_stress"))
        .arg("--quik")
        .output()
        .expect("binary should spawn");
    assert_eq!(output.status.code(), Some(2), "a misspelt flag is a usage error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("`--quik`"), "offending flag not echoed:\n{stderr}");
    assert!(stderr.contains("--quick") && stderr.contains("--json"), "known flags:\n{stderr}");
    assert!(output.stdout.is_empty(), "no experiment may have started");
}

/// Smoke for the interleaving checker: only compiled when the bench
/// crate is built with `--features model` (the binary's
/// `required-features`), i.e. in the CI `model-check` job — the default
/// test run must not drag the model shims into every dependent crate.
#[cfg(feature = "model")]
#[test]
fn exp_model_quick_prints_tables_and_catches_every_mutation() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp_model"), &["--quick"]);
    assert!(stdout.lines().any(|l| l.starts_with("| ")), "no Markdown table:\n{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("## ")), "no section heading:\n{stdout}");
    // One row per seeded mutation, each caught and replayed; run_quick
    // already rejected a nonzero exit, so FAIL rows cannot be present.
    assert_eq!(
        stdout.lines().filter(|l| l.contains("caught + replayed")).count(),
        6,
        "expected all six seeded mutations caught:\n{stdout}"
    );
    assert!(
        !stdout.lines().any(|l| l.contains("FAIL")),
        "a scenario failed without a nonzero exit:\n{stdout}"
    );
}
