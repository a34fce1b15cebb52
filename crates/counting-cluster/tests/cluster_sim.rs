//! Integration checks for the deterministic cluster simulation.
//!
//! Structure mirrors `counting-service/tests/model_registry.rs`: clean
//! runs of the real protocol under torture, calibration mutations that
//! must be caught, and a pinned counterexample seed whose recorded trace
//! replays byte-identically against both the mutated and the fixed
//! protocol.

use counting_cluster::{run_sim, ClusterSimConfig, Mutation, SimReport};

/// The pinned counterexample seed: under the default torture cell it
/// schedules at least one crash/restart pair and enough duplicated hops
/// that *both* calibration mutations are caught, while the unmutated
/// protocol sails through the identical schedule.
const PINNED_SEED: u64 = 7;

fn torture() -> ClusterSimConfig {
    ClusterSimConfig::default()
}

/// The benchmark's `cluster-failover` cell: 8 workers, and two replica
/// crashes plus two partitions once the coordinator is replicated.
fn bench_cell(replicas: u64, record_trace: bool) -> ClusterSimConfig {
    let faults = if replicas >= 2 { 2 } else { 0 };
    ClusterSimConfig {
        workers: 8,
        replicas,
        replica_crashes: faults,
        partitions: faults,
        record_trace,
        ..torture()
    }
}

/// One FNV-1a pass, hand-rolled: `DefaultHasher` is not stable across
/// toolchains.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

#[test]
fn golden_fingerprints_pin_every_virtual_time_decision() {
    // Any change to rng draw order, `(at, seq)` pop order, a counter or
    // a trace string moves these. All three were last re-recorded when
    // the clock began to wake only the machines that are due, which
    // removes idle ticks from `events` and moves a tick's place among
    // the events of its own tick (r1 moves for that alone), and when
    // replication stopped answering stale acks and began to send
    // catch-up as one run (r3 and r5).
    const GOLDEN: [(u64, u64); 3] =
        [(1, 0xE2ED_A67D_6123_1424), (3, 0x5B56_272E_D979_56B4), (5, 0xC64A_DF92_9725_9452)];
    let measured = GOLDEN.map(|(replicas, _)| {
        let mut hash = 0xCBF2_9CE4_8422_2325;
        for seed in 1..=8 {
            let r = run_sim(&bench_cell(replicas, true), seed);
            let scalars =
                [r.handed, r.unique, u64::from(r.converged), r.cursor, r.free_total, r.final_tick];
            hash = scalars.iter().fold(hash, |h, v| fnv1a(h, &v.to_le_bytes()));
            // Every `SimStats` field, then every `TraceEvent` field, in order.
            for json in [serde_json::to_string(&r.stats), serde_json::to_string(&r.trace)] {
                hash = fnv1a(hash, json.expect("serializes").as_bytes());
            }
        }
        (replicas, hash)
    });
    assert_eq!(measured, GOLDEN, "measured {measured:#X?}");
}

#[test]
fn a_value_costs_few_hops_and_events() {
    // Message economy on the benchmark cell, seeds 1..=8: workers send
    // only lease requests, recovery queries and returns, each straight
    // to the coordinator id, so a hop asks for, answers or replicates a
    // lease, and the clock visits only machines that are due. The
    // bounds sit 10 % over the readings (r1: 0.162 hops and 1.283
    // events per value; r3: 1.205 hops and 2.462 events), so worker
    // heartbeats, replication echo or idle ticks on top of this traffic
    // fail the cells.
    for (replicas, max_hops, max_events) in [(1, 0.18, 1.41), (3, 1.33, 2.71)] {
        let (mut sent, mut events, mut handed) = (0, 0, 0);
        for seed in 1..=8 {
            let r = run_sim(&bench_cell(replicas, false), seed);
            sent += r.stats.sent;
            events += r.stats.events;
            handed += r.handed;
        }
        let hops = sent as f64 / handed as f64;
        let events = events as f64 / handed as f64;
        println!("r{replicas}: {hops:.3} hops, {events:.3} events per value ({handed} values)");
        assert!(
            hops <= max_hops,
            "r{replicas}: {hops:.3} hops per value: did worker liveness come back?"
        );
        assert!(events <= max_events, "r{replicas}: {events:.3} events per value");
    }
}

#[test]
fn each_message_kind_costs_few_hops_per_value() {
    // The r3 bench cell's hops per value by kind, seeds 1..=8, each
    // bound 10 % over its reading (0.2441, 0.2298, 0.4371, 0.1783 and
    // 0.0817; 0.4445, 0.2160, 0.6191, 0.1827 and 0.0785 while every
    // stale or duplicated ack resent an entry). Replication is the
    // first three rows: an echoing ack shows in the appends and the
    // acks, a heartbeat that stops carrying catch-up runs in the
    // appends.
    const ROWS: [(&str, f64); 5] = [
        ("append with entries", 0.269),
        ("empty heartbeat", 0.253),
        ("append-ack", 0.481),
        ("lease-request", 0.197),
        ("lease-grant", 0.090),
    ];
    let (mut counts, mut handed) = ([0u64; ROWS.len()], 0);
    for seed in 1..=8 {
        let report = run_sim(&bench_cell(3, true), seed);
        handed += report.handed;
        for event in report.trace.expect("trace recorded").events {
            if event.kind != "send" {
                continue;
            }
            // `hop n<id>: <message>`; an append's fourth word is
            // `heartbeat` when it carries nothing.
            let message = event.info.split_once(": ").expect("a send names its hop").1;
            let words: Vec<&str> = message.split(' ').collect();
            let row = match words[0] {
                "append" if words[4] == "heartbeat" => "empty heartbeat",
                "append" => "append with entries",
                kind => kind,
            };
            if let Some(i) = ROWS.iter().position(|&(name, _)| name == row) {
                counts[i] += 1;
            }
        }
    }
    let mut over = Vec::new();
    for (&(name, bound), &count) in ROWS.iter().zip(&counts) {
        let per_value = count as f64 / handed as f64;
        println!("r3 {name}: {per_value:.4} hops per value");
        if per_value > bound {
            over.push(format!("{name}: {per_value:.3} > {bound}"));
        }
    }
    assert!(over.is_empty(), "hops per value over their bounds: {over:?}");
}

#[test]
fn recording_the_trace_changes_nothing_but_the_trace() {
    for (replicas, seed) in [(1, 7), (3, 7), (3, 0xC0FFEE)] {
        let traced = run_sim(&bench_cell(replicas, true), seed);
        let untraced = run_sim(&bench_cell(replicas, false), seed);
        assert!(traced.trace.is_some() && untraced.trace.is_none());
        assert_eq!(SimReport { trace: None, ..traced }, untraced, "replicas={replicas}");
    }
}

#[test]
fn the_event_cap_counts_only_events_it_ran() {
    let report = run_sim(&ClusterSimConfig { max_events: 10, ..torture() }, PINNED_SEED);
    assert_eq!(report.stats.events, 10, "the event that hit the cap never ran");
    assert!(!report.converged);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.violations[0].starts_with("liveness: event cap hit"), "{:?}", report.violations);
}

#[test]
fn same_seed_produces_byte_identical_reports_and_traces() {
    let config = ClusterSimConfig { record_trace: true, ..torture() };
    let a = run_sim(&config, 0xC0FFEE);
    let b = run_sim(&config, 0xC0FFEE);
    assert_eq!(a, b, "two runs from one seed must agree field-for-field");

    let json_a =
        serde_json::to_string(a.trace.as_ref().expect("trace recorded")).expect("trace serializes");
    let json_b =
        serde_json::to_string(b.trace.as_ref().expect("trace recorded")).expect("trace serializes");
    assert_eq!(json_a, json_b, "serialized traces must be byte-identical");
    assert!(json_a.len() > 2, "the trace is not empty");

    let different = run_sim(&config, 0xC0FFEF);
    assert_ne!(a.trace, different.trace, "a different seed takes a different path");
}

#[test]
fn traces_round_trip_through_serde() {
    let config = ClusterSimConfig { record_trace: true, demand_per_node: 40, ..torture() };
    let report = run_sim(&config, 3);
    let trace = report.trace.expect("trace recorded");
    let json = serde_json::to_string(&trace).expect("trace serializes");
    let back: counting_cluster::ClusterTrace = serde_json::from_str(&json).expect("parses back");
    assert_eq!(back, trace);
}

#[test]
fn clean_protocol_survives_the_torture_sweep() {
    // ISSUE acceptance: >= 4 nodes, nonzero drop / dup / delay / churn.
    for workers in [4, 6] {
        for seed in 1..=8 {
            let config = ClusterSimConfig { workers, ..torture() };
            let report = run_sim(&config, seed);
            assert!(
                report.converged,
                "workers={workers} seed={seed} failed to drain: {:?}",
                report.violations
            );
            assert_eq!(
                report.violations,
                Vec::<String>::new(),
                "workers={workers} seed={seed} violated the global contract"
            );
            assert!(report.handed > 0, "workers={workers} seed={seed} handed nothing out");
            assert_eq!(report.handed, report.unique, "repeats without a violation report");
            assert!(
                report.stats.dropped > 0 && report.stats.duplicated > 0,
                "workers={workers} seed={seed}: the fault plan never fired \
                 ({:?}) — the sweep is not actually a torture test",
                report.stats
            );
        }
    }
}

#[test]
fn pinned_skip_recovery_counterexample_is_caught_online() {
    let mutated = ClusterSimConfig {
        mutation: Some(Mutation::SkipRecovery),
        record_trace: true,
        ..torture()
    };
    let report = run_sim(&mutated, PINNED_SEED);
    assert!(
        report.stats.crashes >= 1 && report.stats.restarts >= 1,
        "the pinned schedule must exercise a crash/restart: {:?}",
        report.stats
    );
    assert!(
        report.violations.iter().any(|v| v.contains("uniqueness")),
        "skipping watermark recovery re-hands old values; the checker \
         must catch it online, got: {:?}",
        report.violations
    );

    // The recorded trace ends at the bug and names it.
    let trace = report.trace.expect("trace recorded");
    let violation = trace
        .events
        .iter()
        .find(|e| e.kind == "violation")
        .expect("the trace pins the violating event");
    assert!(violation.info.contains("uniqueness"), "{violation:?}");

    // Replaying from the recorded seed reproduces the identical trace.
    let replay = run_sim(&mutated, trace.seed);
    assert_eq!(replay.trace.expect("trace recorded"), trace);

    // The fixed protocol survives the very same schedule.
    let clean = run_sim(&ClusterSimConfig { mutation: None, ..mutated }, PINNED_SEED);
    assert!(clean.converged, "{:?}", clean.violations);
    assert_eq!(clean.violations, Vec::<String>::new());
}

#[test]
fn pinned_grant_no_dedup_counterexample_is_caught_at_finalize() {
    let mutated = ClusterSimConfig { mutation: Some(Mutation::GrantNoDedup), ..torture() };
    let report = run_sim(&mutated, PINNED_SEED);
    assert!(
        report.converged,
        "the leak is a quiescent-state bug; the drain itself still \
         converges: {:?}",
        report.violations
    );
    assert!(
        report.violations.iter().any(|v| v.contains("exact-range")),
        "a double-allocated grant leaks a block; the finalize audit must \
         report the gap, got: {:?}",
        report.violations
    );
    assert!(
        report.stats.duplicated >= 1,
        "the pinned schedule must actually duplicate a hop: {:?}",
        report.stats
    );
}

#[test]
fn pinned_grant_no_dedup_counterexample_is_caught_behind_three_replicas() {
    // The mutation lives on the replica leader, so it must be caught
    // behind a real quorum too, not only in a group of one.
    let mutated = ClusterSimConfig {
        replicas: 3,
        replica_crashes: 1,
        partitions: 1,
        mutation: Some(Mutation::GrantNoDedup),
        ..torture()
    };
    let report = run_sim(&mutated, PINNED_SEED);
    assert!(
        report.violations.iter().any(|v| v.contains("exact-range")),
        "a double-allocated grant leaks a block; the finalize audit must \
         report the gap, got: {:?}",
        report.violations
    );

    // The fixed protocol survives the very same schedule.
    let clean = run_sim(&ClusterSimConfig { mutation: None, ..mutated }, PINNED_SEED);
    assert!(clean.converged, "{:?}", clean.violations);
    assert_eq!(clean.violations, Vec::<String>::new());
}

#[test]
fn zero_replicas_run_a_group_of_one() {
    for seed in [1, PINNED_SEED] {
        let one = run_sim(&ClusterSimConfig { replicas: 1, record_trace: true, ..torture() }, seed);
        let zero =
            run_sim(&ClusterSimConfig { replicas: 0, record_trace: true, ..torture() }, seed);
        assert_eq!(zero, one, "seed={seed}");
    }
}

#[test]
fn replicated_cluster_survives_crash_and_partition_torture() {
    // ISSUE acceptance: a replicated coordinator under lossy faults,
    // one replica crash, and a split-brain-shaped partition still
    // satisfies the global contract for 3 and 5 replicas.
    for replicas in [3, 5] {
        for seed in 1..=8 {
            let config =
                ClusterSimConfig { replicas, replica_crashes: 1, partitions: 1, ..torture() };
            let report = run_sim(&config, seed);
            assert!(
                report.converged,
                "replicas={replicas} seed={seed} failed to drain: {:?}",
                report.violations
            );
            assert_eq!(
                report.violations,
                Vec::<String>::new(),
                "replicas={replicas} seed={seed} violated the global contract"
            );
            assert_eq!(report.handed, report.unique, "repeats without a violation report");
            assert!(
                report.stats.replica_crashes >= 1 && report.stats.replica_restarts >= 1,
                "replicas={replicas} seed={seed}: the replica churn never fired ({:?})",
                report.stats
            );
            assert!(
                report.stats.severed > 0,
                "replicas={replicas} seed={seed}: the partition window cut nothing ({:?})",
                report.stats
            );
        }
    }
}

#[test]
fn replicated_runs_are_byte_identical_per_seed() {
    let config = ClusterSimConfig {
        replicas: 3,
        replica_crashes: 1,
        partitions: 1,
        record_trace: true,
        ..torture()
    };
    let a = run_sim(&config, 0xC0FFEE);
    let b = run_sim(&config, 0xC0FFEE);
    assert_eq!(a, b, "two replicated runs from one seed must agree field-for-field");
    let json_a = serde_json::to_string(a.trace.as_ref().expect("trace")).expect("serializes");
    let json_b = serde_json::to_string(b.trace.as_ref().expect("trace")).expect("serializes");
    assert_eq!(json_a, json_b, "serialized replicated traces must be byte-identical");
}

#[test]
fn pinned_split_brain_double_grant_counterexample_is_caught_online() {
    // The pinned schedule isolates the current leader mid-lease while
    // demand keeps flowing to both sides of the cut. The mutated stale
    // leader keeps granting off-log; the new quorum leader re-grants
    // the same blocks, and the checker catches the repeat online.
    let mutated = ClusterSimConfig {
        replicas: 5,
        replica_crashes: 0,
        partitions: 3,
        mutation: Some(Mutation::SplitBrainDoubleGrant),
        record_trace: true,
        ..torture()
    };
    let report = run_sim(&mutated, PINNED_SEED);
    assert!(
        report.stats.severed > 0,
        "the pinned schedule must sever replica links: {:?}",
        report.stats
    );
    assert!(
        report.violations.iter().any(|v| v.contains("uniqueness")),
        "a stale leader double-grants after losing its lease; the \
         checker must catch it online, got: {:?}",
        report.violations
    );

    // Replaying from the recorded seed reproduces the identical trace.
    let trace = report.trace.expect("trace recorded");
    let replay = run_sim(&mutated, trace.seed);
    assert_eq!(replay.trace.expect("trace recorded"), trace);

    // The fixed protocol survives the very same schedule: a clean
    // stale leader steps down when its lease lapses instead.
    let clean = run_sim(&ClusterSimConfig { mutation: None, ..mutated }, PINNED_SEED);
    assert!(clean.converged, "{:?}", clean.violations);
    assert_eq!(clean.violations, Vec::<String>::new());
}

#[test]
fn pinned_commit_before_quorum_counterexample_is_caught_at_finalize() {
    // The mutated leader applies and grants entries no quorum has
    // acknowledged. When the partition heals, the legitimate log wins
    // and the minority suffix is truncated — values were handed out
    // that the surviving grant log no longer covers.
    let mutated = ClusterSimConfig {
        replicas: 3,
        replica_crashes: 0,
        partitions: 1,
        mutation: Some(Mutation::CommitBeforeQuorum),
        record_trace: true,
        ..torture()
    };
    let report = run_sim(&mutated, PINNED_SEED);
    assert!(
        report.violations.iter().any(|v| v.contains("exact-range")),
        "healing truncates minority-committed grants; the finalize \
         audit must report the gap, got: {:?}",
        report.violations
    );

    // Replaying from the recorded seed reproduces the identical trace.
    let trace = report.trace.expect("trace recorded");
    let replay = run_sim(&mutated, trace.seed);
    assert_eq!(replay.trace.expect("trace recorded"), trace);

    // The fixed protocol survives the very same schedule.
    let clean = run_sim(&ClusterSimConfig { mutation: None, ..mutated }, PINNED_SEED);
    assert!(clean.converged, "{:?}", clean.violations);
    assert_eq!(clean.violations, Vec::<String>::new());
}

#[test]
fn mutation_flags_round_trip() {
    for mutation in Mutation::ALL {
        assert_eq!(Mutation::parse(mutation.flag()), Some(mutation));
    }
    assert_eq!(Mutation::parse("no-such-mutation"), None);
}
