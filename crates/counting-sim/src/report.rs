//! Result types produced by simulation runs.

use serde::{Deserialize, Serialize};

/// The outcome of checking Fetch&Increment semantics on a run: whether the
/// counter values handed out on the output wires form exactly the range
/// `0..m-1`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchIncrementOutcome {
    /// Total number of values handed out.
    pub values_handed_out: u64,
    /// `true` if the multiset of values equals `{0, 1, ..., m-1}`.
    pub is_exact_range: bool,
    /// The largest value handed out (if any).
    pub max_value: Option<u64>,
}

/// The life of a single token in a recorded run (see
/// [`crate::Simulation::record_tokens`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenRecord {
    /// The process that shepherded the token.
    pub process: usize,
    /// Logical time (event counter) at which the token entered the network.
    pub enter_time: u64,
    /// Logical time at which the token exited and received its value.
    pub exit_time: u64,
    /// The Fetch&Increment value the token received.
    pub value: u64,
}

/// The contention measurements of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentionReport {
    /// Number of concurrent processes `n`.
    pub concurrency: usize,
    /// Total number of tokens `m` shepherded through the network.
    pub total_tokens: u64,
    /// Total number of stalls across all tokens.
    pub total_stalls: u64,
    /// Stalls attributed to each balancer (indexed by balancer id).
    pub per_balancer_stalls: Vec<u64>,
    /// Stalls attributed to each layer (indexed by `depth - 1`).
    pub per_layer_stalls: Vec<u64>,
    /// Number of tokens processed by each balancer.
    pub per_balancer_traversals: Vec<u64>,
    /// The largest number of tokens ever waiting at each balancer at once.
    pub per_balancer_peak_waiting: Vec<u64>,
    /// The amortized contention estimate: `total_stalls / total_tokens`.
    pub amortized_contention: f64,
    /// Fetch&Increment semantics check for this run.
    pub fetch_increment: FetchIncrementOutcome,
    /// Per-token records (empty unless token recording was enabled).
    pub tokens: Vec<TokenRecord>,
}

impl ContentionReport {
    /// Sums the stalls of a contiguous range of layers
    /// (`lo..=hi`, 1-based, inclusive). Layers beyond the network depth are
    /// ignored.
    #[must_use]
    pub fn stalls_in_layers(&self, lo: usize, hi: usize) -> u64 {
        if lo == 0 || lo > hi {
            return 0;
        }
        self.per_layer_stalls
            .iter()
            .enumerate()
            .filter(|(i, _)| *i + 1 >= lo && *i < hi)
            .map(|(_, &s)| s)
            .sum()
    }

    /// The balancer that accumulated the most stalls, if any balancer
    /// exists. Returns `(balancer_id, stalls)`.
    #[cfg(test)]
    fn hottest_balancer(&self) -> Option<(usize, u64)> {
        self.per_balancer_stalls.iter().copied().enumerate().max_by_key(|&(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ContentionReport {
        ContentionReport {
            concurrency: 4,
            total_tokens: 10,
            total_stalls: 30,
            per_balancer_stalls: vec![5, 10, 15],
            per_layer_stalls: vec![15, 15],
            per_balancer_traversals: vec![10, 5, 5],
            per_balancer_peak_waiting: vec![2, 3, 4],
            amortized_contention: 3.0,
            fetch_increment: FetchIncrementOutcome {
                values_handed_out: 10,
                is_exact_range: true,
                max_value: Some(9),
            },
            tokens: Vec::new(),
        }
    }

    #[test]
    fn layer_aggregation() {
        let r = report();
        assert_eq!(r.stalls_in_layers(1, 1), 15);
        assert_eq!(r.stalls_in_layers(1, 2), 30);
        assert_eq!(r.stalls_in_layers(2, 5), 15);
        assert_eq!(r.stalls_in_layers(3, 5), 0);
        assert_eq!(r.stalls_in_layers(0, 2), 0);
    }

    #[test]
    fn hottest_balancer_is_the_max() {
        assert_eq!(report().hottest_balancer(), Some((2, 15)));
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let json = serde_json::to_string(&r).expect("serialize");
        let back: ContentionReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.total_stalls, r.total_stalls);
        assert_eq!(back.fetch_increment, r.fetch_increment);
    }
}
