//! Experiment E18 — the distributed counting cluster under simulated
//! faults: every cell of a node-count × fault-plan × churn-plan sweep
//! runs the block-lease protocol through the deterministic
//! discrete-event simulation ([`counting_cluster::run_sim`]) and checks
//! global uniqueness plus the exact-range invariant at quiescence. The
//! coordinator is a replica group (leader lease + quorum append): one
//! replica in the first axis, 3 or 5 in a second axis where replica
//! crashes and split-brain-shaped partitions fire.
//!
//! Everything in a cell — demand schedule, crash/restart/join/leave
//! plan, replica crash and partition windows, per-hop
//! drop/duplicate/delay decisions — derives from `--seed`, so the whole
//! sweep (including the JSON artifact, which carries no wall-clock
//! data) is byte-identical across runs: a failing cell *is* its replay
//! recipe.
//!
//! `--mutation <flag>` injects a calibration bug and inverts the gate:
//! the run fails unless the checker catches the mutation somewhere in
//! the sweep. CI runs every direction. `--trace-dir <dir>` re-runs each
//! broken cell with trace recording on and writes the replayable
//! counterexample trace there (nightly CI uploads them as artifacts).
//!
//! Run with: `cargo run --release -p bench --bin exp_cluster
//! [-- --quick] [--json <path>] [--seed <u64>] [--mutation <flag>]
//! [--trace-dir <dir>]`

use bench::args::fail;
use bench::{emit_json, Args, Table};
use counting_cluster::{run_sim, ClusterSimConfig, Mutation};
use counting_sim::des::FaultPlan;
use serde::Serialize;

/// Default `--seed`: every cell's demand, churn and fault streams
/// derive from it (each cell salts it with its own index).
const DEFAULT_SEED: u64 = 0xE18;

/// One fault level of the sweep.
struct FaultLevel {
    label: &'static str,
    plan: FaultPlan,
}

/// One churn level of the sweep.
struct ChurnLevel {
    label: &'static str,
    crashes: u64,
    joins: u64,
    leaves: u64,
}

/// The whole JSON document. Deliberately free of wall-clock and host
/// data: two runs under one seed must serialize byte-identically (the
/// smoke suite pins this).
#[derive(Debug, Serialize)]
struct ClusterJson {
    seed: u64,
    mutation: Option<String>,
    reports: Vec<ClusterCellReport>,
}

/// One sweep cell's outcome.
#[derive(Debug, Serialize)]
struct ClusterCellReport {
    workers: u64,
    /// Members of the coordinator's replica group (1 commits its own
    /// appends; 3/5 survive replica crashes and partitions).
    replicas: u64,
    fault: String,
    churn: String,
    drop_per_mille: u32,
    dup_per_mille: u32,
    crashes: u64,
    restarts: u64,
    joins: u64,
    leaves: u64,
    replica_crashes: u64,
    replica_restarts: u64,
    severed_hops: u64,
    handed: u64,
    unique: u64,
    dropped_hops: u64,
    duplicated_hops: u64,
    converged: bool,
    final_tick: u64,
    /// Hand-outs per 1000 virtual ticks — a *deterministic* rate: same
    /// seed, same number, on any host.
    values_per_kilotick: Option<f64>,
    violations: Vec<String>,
}

/// Parses a `--mutation` flag strictly: an unknown name is an error
/// naming every valid flag, not a panic backtrace.
fn parse_mutation(flag: &str) -> Result<Mutation, String> {
    Mutation::parse(flag).ok_or_else(|| {
        let valid: Vec<&str> = Mutation::ALL.iter().map(|m| m.flag()).collect();
        format!("unknown --mutation {flag:?}; valid mutations: {}", valid.join(" | "))
    })
}

/// Output sinks shared by every sweep cell: the human table, the JSON
/// report rows, and the optional counterexample trace directory.
struct CellSink<'a> {
    trace_dir: Option<&'a str>,
    table: &'a mut Table,
    reports: &'a mut Vec<ClusterCellReport>,
}

/// Runs one sweep cell: simulate, print the table row and the
/// machine-readable aggregate line, record the JSON report, and — when
/// the cell is broken and `--trace-dir` was given — write the
/// replayable counterexample trace.
fn run_cell(
    label: &str,
    fault_label: &str,
    churn_label: &str,
    config: &ClusterSimConfig,
    cell_seed: u64,
    sink: &mut CellSink<'_>,
) {
    let report = run_sim(config, cell_seed);
    let rate =
        (report.final_tick > 0).then(|| report.handed as f64 * 1_000.0 / report.final_tick as f64);
    let status = if report.violations.is_empty() && report.converged {
        "ok".to_owned()
    } else if report.converged {
        format!("VIOLATED({})", report.violations.len())
    } else {
        "STUCK".to_owned()
    };
    let broken = !report.violations.is_empty() || !report.converged;
    sink.table.push_row(vec![
        label.to_owned(),
        report.handed.to_string(),
        report.stats.dropped.to_string(),
        report.stats.duplicated.to_string(),
        format!(
            "{}/{}/{}/{}",
            report.stats.crashes, report.stats.restarts, report.stats.joins, report.stats.leaves
        ),
        rate.map_or_else(|| "n/a".to_owned(), |r| format!("{r:.1}")),
        status,
    ]);
    println!(
        "E18-aggregate cell={label} seed={cell_seed} handed={} unique={} \
         dropped={} duplicated={} severed={} converged={} violations={}",
        report.handed,
        report.unique,
        report.stats.dropped,
        report.stats.duplicated,
        report.stats.severed,
        report.converged,
        report.violations.len()
    );
    if broken {
        if let Some(dir) = sink.trace_dir {
            // Re-run with trace recording on: the trace layer draws no
            // randomness, so the replay is byte-identical to the run
            // that just failed.
            let traced = run_sim(&ClusterSimConfig { record_trace: true, ..*config }, cell_seed);
            let trace = traced.trace.expect("record_trace was set");
            let file = format!("{dir}/E18-{}-seed{cell_seed}.json", label.replace('/', "_"));
            std::fs::create_dir_all(dir).expect("create --trace-dir");
            std::fs::write(&file, serde_json::to_string(&trace).expect("trace serializes"))
                .expect("write counterexample trace");
            println!("counterexample trace written to {file}");
        }
    }
    sink.reports.push(ClusterCellReport {
        workers: config.workers,
        replicas: config.replicas,
        fault: fault_label.to_owned(),
        churn: churn_label.to_owned(),
        drop_per_mille: config.fault.drop_per_mille,
        dup_per_mille: config.fault.dup_per_mille,
        crashes: report.stats.crashes,
        restarts: report.stats.restarts,
        joins: report.stats.joins,
        leaves: report.stats.leaves,
        replica_crashes: report.stats.replica_crashes,
        replica_restarts: report.stats.replica_restarts,
        severed_hops: report.stats.severed,
        handed: report.handed,
        unique: report.unique,
        dropped_hops: report.stats.dropped,
        duplicated_hops: report.stats.duplicated,
        converged: report.converged,
        final_tick: report.final_tick,
        values_per_kilotick: rate,
        violations: report.violations,
    });
}

fn main() {
    let args = Args::from_env(&["--quick"], &["--json", "--seed", "--trace-dir", "--mutation"]);
    let (quick, json_path) = (args.flag("--quick"), args.value("--json"));
    let seed = args.parsed("--seed", DEFAULT_SEED);
    let trace_dir = args.value("--trace-dir");
    let mutation =
        args.value("--mutation").map(|flag| parse_mutation(flag).unwrap_or_else(|err| fail(&err)));

    let worker_counts: &[u64] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let fault_levels = [
        FaultLevel { label: "reliable", plan: FaultPlan::reliable(1) },
        FaultLevel {
            label: "lossy",
            plan: FaultPlan { drop_per_mille: 50, dup_per_mille: 30, min_delay: 1, max_delay: 20 },
        },
        FaultLevel {
            label: "chaos",
            plan: FaultPlan { drop_per_mille: 120, dup_per_mille: 80, min_delay: 1, max_delay: 40 },
        },
    ];
    let fault_levels: &[FaultLevel] = if quick { &fault_levels[1..] } else { &fault_levels };
    let churn_levels = [
        ChurnLevel { label: "calm", crashes: 0, joins: 0, leaves: 0 },
        ChurnLevel { label: "churny", crashes: 2, joins: 1, leaves: 1 },
    ];
    let (demand_per_node, horizon) = if quick { (60, 3_000) } else { (200, 8_000) };
    // The replica-group axis: fixed 4 workers under the lossy
    // (and, in the full sweep, chaos) plan with worker churn, one
    // replica crash/restart and split-brain-shaped partition windows.
    let replica_counts: &[u64] = &[3, 5];
    let replica_faults: &[&FaultLevel] =
        if quick { &[&fault_levels[0]] } else { &[&fault_levels[1], &fault_levels[2]] };

    println!(
        "## E18 — distributed counting cluster, block-lease protocol under a \
         deterministic fault-injecting simulation (seed {seed}{})\n",
        mutation.map_or_else(String::new, |m| format!(", mutation {}", m.flag()))
    );

    let mut table = Table::new(vec![
        "cell",
        "handed",
        "dropped",
        "duplicated",
        "churn c/r/j/l",
        "values/ktick",
        "status",
    ]);
    let mut reports = Vec::new();
    let mut sink = CellSink { trace_dir, table: &mut table, reports: &mut reports };
    let mut cell_index = 0u64;
    for &workers in worker_counts {
        for fault in fault_levels {
            for churn in &churn_levels {
                let config = ClusterSimConfig {
                    workers,
                    demand_per_node,
                    horizon,
                    fault: fault.plan,
                    crashes: churn.crashes,
                    joins: churn.joins,
                    leaves: churn.leaves,
                    mutation,
                    ..ClusterSimConfig::default()
                };
                // Each cell gets its own deterministic sub-seed.
                let cell_seed = seed.wrapping_add(cell_index.wrapping_mul(0x9E37_79B9));
                cell_index += 1;
                let label = format!("{}n/{}/{}", workers, fault.label, churn.label);
                run_cell(&label, fault.label, churn.label, &config, cell_seed, &mut sink);
            }
        }
    }
    // Replica cells come after every legacy cell so the legacy cells
    // keep their historical sub-seed indices.
    for &replicas in replica_counts {
        for fault in replica_faults {
            let config = ClusterSimConfig {
                workers: 4,
                demand_per_node,
                horizon,
                fault: fault.plan,
                crashes: 2,
                joins: 1,
                leaves: 1,
                replicas,
                replica_crashes: 1,
                partitions: 3,
                mutation,
                ..ClusterSimConfig::default()
            };
            let cell_seed = seed.wrapping_add(cell_index.wrapping_mul(0x9E37_79B9));
            cell_index += 1;
            let label = format!("4n/r{}/{}/churny", replicas, fault.label);
            run_cell(&label, fault.label, "churny", &config, cell_seed, &mut sink);
        }
    }
    println!("\n{}", table.to_markdown());
    println!(
        "Notes: every value handed out anywhere in the cluster is checked online for\n\
         global uniqueness, and at quiescence the coordinator's truncated grants plus\n\
         its free-list must tile 0..cursor exactly — across message loss, duplication,\n\
         reordering, crash-restarts (watermark recovery) and join/leave churn. The\n\
         coordinator is a replica group (leader lease + quorum append): one replica in\n\
         the plain cells, N in the `rN` cells, where replica crashes and\n\
         leader-isolating partitions fire.\n\
         The rate column is per *virtual* kilotick: deterministic, host-independent.\n"
    );

    let doc = ClusterJson { seed, mutation: mutation.map(|m| m.flag().to_owned()), reports };
    emit_json(&doc, json_path);

    let broken: Vec<&ClusterCellReport> =
        doc.reports.iter().filter(|r| !r.violations.is_empty() || !r.converged).collect();
    match mutation {
        None => {
            // Correctness gate: the clean protocol must survive every
            // cell of the sweep.
            if !broken.is_empty() {
                eprintln!("error: {} cell(s) violated the global counting contract", broken.len());
                std::process::exit(1);
            }
        }
        Some(m) => {
            // Calibration gate, inverted: the injected bug must be
            // caught somewhere, or the checker has no teeth.
            if broken.is_empty() {
                eprintln!(
                    "error: mutation {} survived all {} cells — the checker has no teeth",
                    m.flag(),
                    doc.reports.len()
                );
                std::process::exit(1);
            }
            println!(
                "mutation {} caught in {}/{} cells",
                m.flag(),
                broken.len(),
                doc.reports.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_mutation;
    use counting_cluster::Mutation;

    #[test]
    fn known_mutations_parse() {
        for mutation in Mutation::ALL {
            assert_eq!(parse_mutation(mutation.flag()), Ok(mutation));
        }
    }

    #[test]
    fn unknown_mutation_error_lists_every_valid_flag() {
        let err = parse_mutation("no-such-bug").expect_err("must be rejected");
        assert!(err.contains("no-such-bug"), "{err}");
        for mutation in Mutation::ALL {
            assert!(err.contains(mutation.flag()), "{} not listed in: {err}", mutation.flag());
        }
    }
}
