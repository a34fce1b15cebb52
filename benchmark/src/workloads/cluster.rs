//! `cluster-failover`: the deterministic cluster simulation — 8 workers
//! leasing blocks from 3 coordinator replicas over lossy links, with
//! replica crashes, partitions and worker churn — run over a seeded list
//! of sub-seeds. It is the only workload that executes
//! `counting-cluster` (coordinator apply, quorum append, election) and
//! the `counting-sim` event kernel. Virtual time makes every count
//! exact per seed; wall time is what is measured. An operation is one
//! value handed out; a latency sample is one simulation's wall time over
//! the values it handed out.
//!
//! The timed windows run with the event trace off: a recorded trace is
//! ten times the rest of the process's memory and its size follows the
//! seed, so `peak_rss_mb` would report the trace and nothing else. What
//! recording costs is a per-layer metric (`sim.trace_cost_share`), and
//! the counts that need the trace come from [`layer_metrics`].
//!
//! (The live cluster drivers are left out on purpose: they sleep 500 µs
//! per loop on `workers + replicas + 1` threads, so the number would
//! measure the sleep and the scheduler.)

use std::time::Instant;

use crate::gen::{sub_seeds, Rng};
use crate::hist::Histogram;
use crate::spans::median;
use crate::surface::{cluster_config, run_sim, ClusterSimConfig, SimReport};

use super::{Params, Trace, Verdict, Window, Workload};

/// Sub-seeds a run cycles through: about what one window gets through,
/// so a window's latency quantiles are over that many distinct fault
/// schedules rather than the slowest of a few.
pub const SUB_SEEDS: usize = 400;
/// Replicas of the measured cell.
pub const REPLICAS: u64 = 3;
const WARMUP_SIMS: usize = 40;

pub fn seeded_sub_seeds(seed: u64) -> Vec<u64> {
    sub_seeds(&mut Rng::new(seed, 0), SUB_SEEDS)
}

/// What the checker inside the simulation concluded, as violations.
pub fn report_violations(report: &SimReport, violations: &mut Vec<String>) {
    let seed = report.seed;
    if !report.converged {
        violations.push(format!("sim {seed:#x}: did not converge"));
    }
    if report.handed != report.unique {
        violations.push(format!(
            "sim {seed:#x}: {} values handed out, {} distinct",
            report.handed, report.unique
        ));
    }
    violations.extend(report.violations.iter().map(|v| format!("sim {seed:#x}: {v}")));
}

/// Longest virtual-time gap between consecutive hand-outs that has a
/// replica crash or a severed hop inside it: how long the cluster went
/// without serving after a fault. `None` when the report has no trace.
pub fn unavailable_ticks(report: &SimReport) -> Option<u64> {
    let trace = report.trace.as_ref()?;
    let (mut last_handout, mut fault_since, mut longest) = (0u64, false, 0u64);
    for event in &trace.events {
        match event.kind.as_str() {
            "replica-crash" | "sever" => fault_since = true,
            "handout" => {
                if fault_since {
                    longest = longest.max(event.at - last_handout);
                    fault_since = false;
                }
                last_handout = event.at;
            }
            _ => {}
        }
    }
    Some(longest)
}

pub struct ClusterFailover {
    params: Params,
    config: ClusterSimConfig,
    sub_seeds: Vec<u64>,
    pos: usize,
    verdict: Verdict,
}

impl ClusterFailover {
    pub fn setup(params: Params) -> Self {
        let mut workload = Self {
            params,
            config: cluster_config(REPLICAS, false),
            sub_seeds: seeded_sub_seeds(params.seed),
            pos: 0,
            verdict: Verdict::default(),
        };
        for _ in 0..WARMUP_SIMS {
            workload.run_next();
        }
        workload
    }

    /// Runs the next sub-seed's simulation and checks its report.
    /// Returns when it started and ended, and the values it handed out.
    fn run_next(&mut self) -> (Instant, Instant, u64) {
        let seed = self.sub_seeds[self.pos % self.sub_seeds.len()];
        self.pos += 1;
        let started = Instant::now();
        let report = run_sim(&self.config, seed);
        let ended = Instant::now();
        self.verdict.attempted += report.handed;
        report_violations(&report, &mut self.verdict.violations);
        (started, ended, report.handed)
    }
}

impl Workload for ClusterFailover {
    fn window(&mut self, mut trace: Option<Trace<'_>>) -> Window {
        let mut log = trace.as_ref().map(|t| t.log_for(0));
        let mut window = Window { ops: 0, wall: Default::default(), latency: Histogram::default() };
        let started = Instant::now();
        let deadline = started + self.params.window;
        loop {
            let (sim_started, sim_ended, handed) = self.run_next();
            window.ops += handed;
            // The per-operation latency of this workload: wall time of
            // one simulation over the values it handed out.
            window.latency.record((sim_ended - sim_started).as_nanos() as u64 / handed.max(1));
            if let Some(log) = &mut log {
                let at = (sim_started, sim_ended);
                log.push("cluster.run_sim", None, self.pos as u64, at, handed.max(1) as u32);
            }
            if sim_ended >= deadline {
                window.wall = sim_ended - started;
                break;
            }
        }
        if let (Some(trace), Some(log)) = (&mut trace, log) {
            trace.collect(log);
        }
        window
    }

    fn finish(self: Box<Self>) -> Verdict {
        self.verdict
    }
}

/// Sums over one pass of simulations; reports are folded in as they
/// finish (a traced report holds tens of megabytes of events).
#[derive(Default)]
struct Pass {
    wall_s: f64,
    handed: f64,
    sent: f64,
    events: f64,
    dropped: f64,
    severed: f64,
    final_ticks: Vec<f64>,
    unavailable: Vec<f64>,
}

impl Pass {
    fn run(config: &ClusterSimConfig, seeds: &[u64], violations: &mut Vec<String>) -> Self {
        let mut pass = Pass::default();
        let started = Instant::now();
        for &seed in seeds {
            let report = run_sim(config, seed);
            report_violations(&report, violations);
            pass.handed += report.handed as f64;
            pass.sent += report.stats.sent as f64;
            pass.events += report.stats.events as f64;
            pass.dropped += report.stats.dropped as f64;
            pass.severed += report.stats.severed as f64;
            pass.final_ticks.push(report.final_tick as f64);
            pass.unavailable.extend(unavailable_ticks(&report).map(|t| t as f64));
        }
        pass.wall_s = started.elapsed().as_secs_f64();
        pass
    }
}

/// The exact, per-seed counts of the cluster layer, plus the three wall
/// comparisons the ladder wants, over the first `sims` sub-seeds: the
/// measured cell (3 replicas, trace on), the same with the trace off,
/// and the single-coordinator baseline.
pub fn layer_metrics(
    seed: u64,
    sims: usize,
    violations: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let seeds = &seeded_sub_seeds(seed)[..sims];
    let mut traced = Pass::run(&cluster_config(REPLICAS, true), seeds, violations);
    let untraced = Pass::run(&cluster_config(REPLICAS, false), seeds, violations);
    let single = Pass::run(&cluster_config(1, true), seeds, violations);
    vec![
        ("cluster.hops_per_value", traced.sent / traced.handed),
        ("cluster.events_per_value", traced.events / traced.handed),
        ("cluster.drop_share", traced.dropped / traced.sent),
        ("cluster.severed_hops", traced.severed),
        ("cluster.final_tick", median(&mut traced.final_ticks).unwrap_or(0.0)),
        ("unavail_ticks", median(&mut traced.unavailable).unwrap_or(0.0)),
        ("cluster.r1_ops_per_s", single.handed / single.wall_s),
        ("sim.events_per_s", traced.events / traced.wall_s),
        ("sim.trace_cost_share", 1.0 - untraced.wall_s / traced.wall_s),
    ]
}
