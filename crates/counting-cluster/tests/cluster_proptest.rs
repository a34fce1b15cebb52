//! Property tests over randomized fault schedules.
//!
//! Each case draws a whole simulation cell — node count, fault
//! probabilities, delay spread, churn — and asserts the unmutated
//! protocol preserves global uniqueness and the exact range. A failing
//! cell is *shrunk* before reporting: the harness retries with fewer
//! workers, less demand, less churn and milder faults, keeping each
//! reduction only if it still fails, and panics with the minimal
//! replayable `(cell, seed)` so the counterexample can be pinned as a
//! regression test (see `cluster_sim.rs`).
#![recursion_limit = "512"]

use counting_cluster::{run_sim, ClusterSimConfig};
use counting_sim::des::FaultPlan;
use proptest::prelude::*;

/// Runs one cell and describes the first contract breach, if any.
fn breach(config: &ClusterSimConfig, seed: u64) -> Option<String> {
    let report = run_sim(config, seed);
    if !report.converged {
        return Some(format!("did not converge: {:?}", report.violations));
    }
    if !report.violations.is_empty() {
        return Some(format!("violations: {:?}", report.violations));
    }
    if report.handed != report.unique {
        return Some(format!(
            "handed {} values but only {} distinct (unreported repeat)",
            report.handed, report.unique
        ));
    }
    None
}

/// Greedy shrink: apply each reduction while the cell keeps failing.
fn shrink(mut config: ClusterSimConfig, seed: u64) -> ClusterSimConfig {
    let reductions: &[fn(&mut ClusterSimConfig)] = &[
        |c| c.joins = 0,
        |c| c.leaves = 0,
        |c| c.crashes = 0,
        |c| c.partitions = 0,
        |c| c.replica_crashes = 0,
        |c| c.replicas = c.replicas.min(3),
        |c| c.replicas = 1,
        |c| c.fault.dup_per_mille = 0,
        |c| c.fault.drop_per_mille = 0,
        |c| c.fault.max_delay = c.fault.min_delay,
        |c| c.workers = 2,
        |c| c.demand_per_node /= 4,
        |c| c.demand_per_node /= 2,
    ];
    for reduce in reductions {
        let mut candidate = config;
        reduce(&mut candidate);
        if candidate != config && breach(&candidate, seed).is_some() {
            config = candidate;
        }
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_fault_schedules_preserve_uniqueness_and_exact_range(
        workers in 2u64..=8,
        drop_per_mille in 0u32..=120,
        dup_per_mille in 0u32..=80,
        max_delay in 1u64..=30,
        crashes in 0u64..=3,
        joins in 0u64..=2,
        leaves in 0u64..=2,
        seed in 0u64..u64::MAX,
    ) {
        let config = ClusterSimConfig {
            workers,
            demand_per_node: 60,
            horizon: 4_000,
            fault: FaultPlan { drop_per_mille, dup_per_mille, min_delay: 1, max_delay },
            crashes,
            joins,
            leaves,
            ..ClusterSimConfig::default()
        };
        if let Some(failure) = breach(&config, seed) {
            let minimal = shrink(config, seed);
            let minimal_failure = breach(&minimal, seed).expect("shrink keeps the failure");
            panic!(
                "cell {config:?} seed={seed} breached the contract: {failure}\n\
                 minimal replay: {minimal:?} seed={seed}: {minimal_failure}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Failover liveness: whatever crash/partition/heal schedule the
    // replica group suffers, once the faults clear it elects a leader,
    // resumes granting, and the drain converges with the exact range
    // intact. Convergence *is* the liveness claim — the drain cannot
    // finish unless every worker's seal is answered post-heal.
    #[test]
    fn failover_schedules_recover_liveness_and_uniqueness(
        five_replicas in 0u64..=1,
        replica_crashes in 0u64..=2,
        partitions in 0u64..=2,
        drop_per_mille in 0u32..=80,
        dup_per_mille in 0u32..=50,
        max_delay in 1u64..=20,
        crashes in 0u64..=2,
        seed in 0u64..u64::MAX,
    ) {
        let replicas = if five_replicas == 1 { 5 } else { 3 };
        let config = ClusterSimConfig {
            workers: 4,
            demand_per_node: 60,
            horizon: 6_000,
            fault: FaultPlan { drop_per_mille, dup_per_mille, min_delay: 1, max_delay },
            crashes,
            joins: 0,
            leaves: 0,
            replicas,
            replica_crashes,
            partitions,
            ..ClusterSimConfig::default()
        };
        if let Some(failure) = breach(&config, seed) {
            let minimal = shrink(config, seed);
            let minimal_failure = breach(&minimal, seed).expect("shrink keeps the failure");
            panic!(
                "failover cell {config:?} seed={seed} breached the contract: {failure}\n\
                 minimal replay: {minimal:?} seed={seed}: {minimal_failure}"
            );
        }
        let report = run_sim(&config, seed);
        prop_assert!(report.handed > 0, "the cluster never granted: {:?}", report.stats);
    }
}
