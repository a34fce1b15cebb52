//! The metric dictionary: every name the benchmark reports, with its
//! unit, direction and regression bound. `/BENCHMARK.json` is rendered
//! from these tables (`--manifest`) and a unit test keeps the two equal.
//! README.md says what each one means.

use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

/// Seconds one run measures (`--seconds`), as [`WINDOWS`] windows.
pub const RUN_SECONDS: u32 = 20;
/// Timed windows per run; an end-to-end value is picked from them by
/// [`undisturbed`].
pub const WINDOWS: usize = 40;
/// Times a run sets its workload up; `setup_s` is picked the same way.
pub const SETUP_REPEATS: usize = 5;

/// The value of a metric when the host left the program alone, out of
/// one value per window: the best of `values` where the host can only
/// slow a window down, their median where it can also speed one up.
/// `None` when empty.
///
/// Why not the median everywhere: the hosts this runs on have two
/// speeds. For anything from half a second to many minutes at a time a
/// cpu delivers about 60 % of its usual throughput (a busy hyperthread
/// sibling on the host, as far as can be told from inside the guest), so
/// window values fall into two tight clusters, and in a bad hour the
/// slow one holds 38 windows of 40. Nothing makes a window faster than
/// the program is, so the best window is the program's speed as long as
/// one window of the run was left alone, and a median is the host's.
pub fn undisturbed(values: &mut [f64], better: Better, only_slows: bool) -> Option<f64> {
    if !only_slows {
        return crate::spans::median(values);
    }
    values.sort_unstable_by(f64::total_cmp);
    if better == Better::Higher { values.last() } else { values.first() }.copied()
}

/// Workload names and why each exists (one line; README.md has the
/// paragraph).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "hot-tenant",
        "T threads reserve mixed-size blocks from one shared tenant: all the work is the runtime \
         layer (traversal, dispensers, elimination arena) under real contention",
    ),
    (
        "tenant-churn",
        "one thread, Zipf over 8192 tenants with idle eviction: registry lookups and tenant \
         re-creation dominate, the runtime does one uncontended traversal per op (bypasses runtime \
         gains)",
    ),
    (
        "http-closed",
        "closed loop over loopback keep-alive connections, 5-endpoint mix over 64 tenants: \
         saturation capacity of the server layer; the counter op is a few percent of a request",
    ),
    (
        "http-open",
        "same server and mix, Poisson arrivals at a fixed 20000/s timed from due time: queueing \
         amplifies service-time changes in p95, and batching or hand-off delay shows as a loss",
    ),
    (
        "cluster-failover",
        "deterministic cluster simulation, 8 workers and 3 replicas under loss, crashes and \
         partitions: the only workload that runs the cluster and event-kernel layers",
    ),
];

/// What a user of the system sees, with the share of the parent's
/// median by which each may worsen before a change is rejected.
pub const END_TO_END: [(Metric, f64); 5] = [
    (higher("ops_per_s", "1/s"), 0.25),
    (lower("p50_ns", "ns"), 0.25),
    (lower("p95_ns", "ns"), 0.25),
    (lower("setup_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
];

/// Single layers, measured by the traced run's ladder. No bounds: they
/// explain an end-to-end change, they do not gate one.
pub const PER_LAYER: [Metric; 56] = [
    lower("balnet.depth", "count"),
    lower("balnet.balancers", "count"),
    lower("counting.build_ns", "ns"),
    lower("runtime.compile_ns", "ns"),
    lower("runtime.traverse_ns", "ns"),
    lower("runtime.next_ns", "ns"),
    lower("runtime.reserve_block_ns", "ns"),
    lower("runtime.elim_reserve_ns", "ns"),
    lower("runtime.elim_contended_ns", "ns"),
    lower("runtime.contention_wait_ns", "ns"),
    higher("runtime.elim_merge_ratio", "ratio"),
    lower("runtime.elim_fallback_ratio", "ratio"),
    lower("service.lookup_ns", "ns"),
    lower("service.create_ns", "ns"),
    lower("service.evict_ns", "ns"),
    lower("service.tenant_reserve_ns", "ns"),
    lower("service.churn_contended_ns", "ns"),
    lower("service.creates", "count"),
    lower("service.evictions", "count"),
    lower("service.live_tenants_peak", "count"),
    lower("service.idgen_next_ns", "ns"),
    lower("service.ticket_acquire_ns", "ns"),
    lower("service.ticket_admit_ns", "ns"),
    lower("service.rate_acquire_ns", "ns"),
    lower("server.parse_ns", "ns"),
    lower("server.write_ns", "ns"),
    lower("server.route_ns", "ns"),
    lower("server.route_lease_ns", "ns"),
    lower("server.route_ticket_ns", "ns"),
    lower("server.route_rate_ns", "ns"),
    lower("server.route_status_ns", "ns"),
    lower("server.route_admit_ns", "ns"),
    lower("server.inproc_ns", "ns"),
    lower("server.wire_ns", "ns"),
    lower("bench.loopback_echo_ns", "ns"),
    lower("server.start_ns", "ns"),
    lower("server.shutdown_ns", "ns"),
    lower("server.client_errors", "count"),
    lower("server.connections", "count"),
    lower("server.bytes_per_req", "B"),
    lower("loadgen.late_share", "ratio"),
    lower("loadgen.send_lag_p99_ns", "ns"),
    lower("cluster.grant_ns", "ns"),
    lower("cluster.replica_commit_ns", "ns"),
    lower("cluster.hops_per_value", "count"),
    lower("cluster.events_per_value", "count"),
    lower("cluster.drop_share", "ratio"),
    lower("cluster.severed_hops", "count"),
    lower("cluster.final_tick", "ticks"),
    higher("cluster.r1_ops_per_s", "1/s"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.trace_cost_share", "ratio"),
    lower("bench.timer_ns", "ns"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("unavail_ticks", "ticks"),
    lower("fail_share", "ratio"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().map(|(m, _)| m);
    end_to_end.chain(PER_LAYER.iter()).find(|m| m.name == name).map(|m| m.unit)
}

/// The text of `/BENCHMARK.json`.
pub fn manifest() -> String {
    let better = |b| if b == Better::Higher { "higher" } else { "lower" };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": \
         {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect()),
        rows(END_TO_END
            .iter()
            .map(|(m, bound)| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                better(m.better)
            ))
            .collect()),
        rows(PER_LAYER
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            ))
            .collect()),
    );
    out
}

/// What one run concluded: the object on the last line of its output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("only dictionary metrics are reported");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads back a line written by [`Self::to_line`] (the suite reads
    /// its child processes' results this way).
    pub fn from_line(line: &str) -> Option<Self> {
        let after =
            |text: &'_ str, key: &str| -> Option<usize> { text.find(key).map(|at| at + key.len()) };
        let number = |text: &str| -> Option<f64> {
            let end = text.find([',', '}']).unwrap_or(text.len());
            text[..end].trim().parse().ok()
        };
        let head = &line[..line.find("\"metrics\"")?];
        let correct = head[after(head, "\"correct\": ")?..].starts_with("true");
        let attempted = number(&head[after(head, "\"attempted\": ")?..])? as u64;
        let failed = number(&head[after(head, "\"failed\": ")?..])? as u64;
        let mut metrics = Vec::new();
        let mut rest = &line[after(line, "\"metrics\": {")?..];
        while let Some(open) = rest.find('"') {
            let name_end = open + 1 + rest[open + 1..].find('"')?;
            let value_at = name_end + after(&rest[name_end..], "{\"value\": ")?;
            metrics.push((rest[open + 1..name_end].to_owned(), number(&rest[value_at..])?));
            rest = &rest[value_at + rest[value_at..].find('}')? + 1..];
        }
        Some(Self { correct, attempted, failed, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `--manifest > BENCHMARK.json`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.1 > 0.0 && m.1 <= 0.25));
        assert_eq!(WORKLOADS.map(|w| w.0), crate::workloads::NAMES);
    }

    #[test]
    fn one_window_left_alone_is_enough_where_the_host_only_slows() {
        let mut mostly_slow = [13.5, 13.6, 13.4, 13.7, 8.4, 13.5, 13.8, 13.9];
        assert_eq!(undisturbed(&mut mostly_slow, Better::Lower, true), Some(8.4));
        assert_eq!(undisturbed(&mut mostly_slow, Better::Higher, true), Some(13.9));
        // Where it can speed a window up too, the lucky window is not the answer.
        let mut one_lucky = [2.5, 2.4, 5.1, 2.5, 2.6, 2.4, 2.5, 2.5];
        assert_eq!(undisturbed(&mut one_lucky, Better::Higher, false), Some(2.5));
        assert_eq!(undisturbed(&mut [], Better::Higher, true), None);
    }

    #[test]
    fn a_result_line_reads_back() {
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![("ops_per_s".to_owned(), 1234.5678), ("setup_s".to_owned(), 0.25)],
        };
        let line = result.to_line();
        assert!(!line.contains('\n'));
        assert!(
            line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"),
            "{line}"
        );
        assert_eq!(RunResult::from_line(&line), Some(result));
        assert_eq!(RunResult::from_line("not a result"), None);
    }
}
