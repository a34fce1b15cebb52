//! Smoke tests for the experiment binaries: run each `exp_*` with the
//! `--quick` parameter set (tiny token counts) and check it exits
//! successfully and prints at least one Markdown table. This keeps the
//! bench bins from silently rotting — they are compiled and executed on
//! every `cargo test` run.

use std::collections::BTreeSet;
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

/// Docs-drift gate: the `Binary` column of `REPRODUCING.md`'s experiment
/// map names exactly the files in `src/bin`. A new `exp_*` binary missing
/// from the map fails, and so does a row left behind for a deleted one.
/// This test is the only guard; no CI step re-checks it.
#[test]
fn reproducing_md_names_every_exp_binary() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let reproducing = std::fs::read_to_string(format!("{manifest}/../../REPRODUCING.md"))
        .expect("REPRODUCING.md exists at the workspace root");
    let map = reproducing
        .split("## Experiment → binary map")
        .nth(1)
        .expect("REPRODUCING.md has an experiment map");
    let mapped: BTreeSet<String> = map
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|row| row.split('|').nth(3))
        .map(|cell| cell.trim().trim_matches('`').to_owned())
        .filter(|cell| cell.starts_with("exp_"))
        .collect();
    let built: BTreeSet<String> = std::fs::read_dir(format!("{manifest}/src/bin"))
        .expect("bin dir exists")
        .map(|entry| {
            let path = entry.expect("readable dir entry").path();
            path.file_stem().and_then(|s| s.to_str()).expect("utf-8 file name").to_owned()
        })
        .collect();
    assert_eq!(mapped, built, "REPRODUCING.md's map and src/bin disagree");
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
fn every_exp_binary_rejects_a_misspelt_flag_and_names_the_known_ones() {
    // Strict flag parsing (`bench::args`), for every binary of the
    // default build: `--quik` must not silently run the full-size
    // experiment, and a repeated flag must not quietly run its first
    // value.
    let quik = &["--quik"][..];
    let cases = [
        (env!("CARGO_BIN_EXE_exp_depth"), quik, "unknown argument `--quik`"),
        (env!("CARGO_BIN_EXE_exp_contention"), quik, "unknown argument `--quik`"),
        (env!("CARGO_BIN_EXE_exp_blocks"), quik, "unknown argument `--quik`"),
        (env!("CARGO_BIN_EXE_exp_smoothing"), quik, "unknown argument `--quik`"),
        (env!("CARGO_BIN_EXE_exp_sorting"), quik, "unknown argument `--quik`"),
        (env!("CARGO_BIN_EXE_exp_ablation"), quik, "unknown argument `--quik`"),
        (env!("CARGO_BIN_EXE_exp_cluster"), quik, "unknown argument `--quik`"),
        (
            env!("CARGO_BIN_EXE_exp_cluster"),
            &["--quick", "--seed", "1", "--seed", "2"],
            "`--seed` given more than once",
        ),
    ];
    // The list is written by hand, so a binary added later must join it
    // (only the feature-gated `exp_model` is built elsewhere).
    let listed: Vec<_> =
        cases.iter().map(|(exe, ..)| std::path::Path::new(exe).file_stem()).collect();
    let bin_dir = format!("{}/src/bin", env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(bin_dir).expect("bin dir exists") {
        let path = entry.expect("readable dir entry").path();
        let bin = path.file_stem();
        assert!(
            bin == Some("exp_model".as_ref()) || listed.contains(&bin),
            "{path:?} is missing from this test's list"
        );
    }
    for (exe, args, bad) in cases {
        let output = Command::new(exe).args(args).output().expect("binary should spawn");
        assert_eq!(output.status.code(), Some(2), "{exe} {args:?}: a usage error");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(bad), "{exe} {args:?}: offending flag not echoed:\n{stderr}");
        if bad.starts_with("unknown") {
            assert!(stderr.contains("known flags: ["), "{exe}: known flags not named:\n{stderr}");
        }
        assert!(output.stdout.is_empty(), "{exe} {args:?}: no experiment may have started");
    }
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
