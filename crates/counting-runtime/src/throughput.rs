//! Throughput measurement harness.
//!
//! The paper's experimental comparison (and the IPPS'98 evaluation it
//! references) measures how many Fetch&Increment operations per second a
//! counter sustains as the number of concurrent processes grows. This
//! module drives any [`SharedCounter`] with `n` threads performing a fixed
//! number of `next` calls each and reports the aggregate rate. It is the
//! crate's one timed harness: the [`stress`](crate::stress) module shares
//! its start barrier and clock to timestamp recorded tokens, but reports
//! verdicts only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::counter::SharedCounter;

/// Shared measured-window plumbing for multi-threaded harnesses: a start
/// barrier plus worker-side timestamps. Workers call [`enter`](Self::enter)
/// (rendezvous, then record the release instant) and
/// [`exit`](Self::exit) (record completion); the window is the earliest
/// release to the latest completion. Timing in the coordinating thread
/// instead would under-count whenever the OS runs the workers to
/// completion before handing the coordinator the CPU back (routine on an
/// oversubscribed machine).
#[derive(Debug)]
pub(crate) struct MeasuredWindow {
    barrier: Barrier,
    first_start: AtomicU64,
    last_end: AtomicU64,
    epoch: Instant,
}

impl MeasuredWindow {
    /// Creates a window whose start barrier releases once `threads`
    /// workers have entered.
    #[must_use]
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            barrier: Barrier::new(threads),
            first_start: AtomicU64::new(u64::MAX),
            last_end: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Monotonic nanoseconds since the window's epoch, comparable across
    /// threads.
    pub(crate) fn nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Blocks until every worker has arrived, then records the release
    /// instant. Call once per worker, before its workload.
    pub(crate) fn enter(&self) {
        self.barrier.wait();
        // Relaxed: min/max envelope bookkeeping — the barrier orders the
        // workers, the RMW's per-location order keeps the envelope exact.
        self.first_start.fetch_min(self.nanos(), Ordering::Relaxed);
    }

    /// Records the worker's completion instant. Call once per worker,
    /// after its workload.
    pub(crate) fn exit(&self) {
        // Relaxed: envelope bookkeeping (see `enter`).
        self.last_end.fetch_max(self.nanos(), Ordering::Relaxed);
    }

    /// The measured window. Meaningful only after all workers finished.
    #[must_use]
    pub(crate) fn elapsed(&self) -> Duration {
        // Relaxed loads: post-join quiescent reads.
        Duration::from_nanos(
            self.last_end
                .load(Ordering::Relaxed)
                .saturating_sub(self.first_start.load(Ordering::Relaxed)),
        )
    }
}

/// The shortest window a rate is computed from. Below this, clock
/// resolution and timestamp plumbing dominate the measurement, and the
/// old `elapsed.max(EPSILON)` clamp would report an absurd ~1e16×ops
/// rate; such windows now yield `None` instead of a poisoned number.
pub(crate) const MIN_MEASURED_WINDOW: Duration = Duration::from_micros(1);

/// `total / elapsed` as a per-second rate, or `None` when `elapsed` is
/// shorter than [`MIN_MEASURED_WINDOW`] (a degenerate window that cannot
/// support a meaningful rate), never a silently absurd number.
#[must_use]
pub(crate) fn rate_over(total: u64, elapsed: Duration) -> Option<f64> {
    (elapsed >= MIN_MEASURED_WINDOW).then(|| total as f64 / elapsed.as_secs_f64())
}

/// The result of one throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputMeasurement {
    /// Description of the counter under test.
    pub counter: String,
    /// Number of threads that drove the counter.
    pub threads: usize,
    /// Values obtained per thread.
    pub ops_per_thread: u64,
    /// Total values obtained across all threads.
    pub total_ops: u64,
    /// Wall-clock time of the measured window (barrier release to last
    /// thread done; thread start-up is excluded).
    pub elapsed: Duration,
    /// Aggregate operations per second; `None` when the window was
    /// degenerate (shorter than a microsecond).
    pub ops_per_second: Option<f64>,
}

/// Runs `threads` threads, each performing `ops_per_thread` calls to
/// `counter.next`, and measures the aggregate throughput.
///
/// All threads rendezvous at a start barrier before the clock starts, so
/// thread spawn cost is excluded and every thread begins the measured
/// window together (no short-staffed warm-up skewing the rate). The
/// window itself is timestamped by the workers — first worker release to
/// last worker completion — so the measurement stays accurate even when
/// the coordinating thread is descheduled on an oversubscribed machine.
#[must_use]
pub fn measure_throughput<C: SharedCounter + ?Sized>(
    counter: &C,
    threads: usize,
    ops_per_thread: u64,
) -> ThroughputMeasurement {
    assert!(threads > 0, "at least one thread is required");
    let window = MeasuredWindow::new(threads);
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let window = &window;
            scope.spawn(move || {
                window.enter();
                for _ in 0..ops_per_thread {
                    // The value is intentionally discarded; the side
                    // effect of advancing the shared counter is the
                    // workload.
                    let _ = counter.next(tid);
                }
                window.exit();
            });
        }
    });
    let elapsed = window.elapsed();
    let total_ops = threads as u64 * ops_per_thread;
    ThroughputMeasurement {
        counter: counter.describe(),
        threads,
        ops_per_thread,
        total_ops,
        elapsed,
        ops_per_second: rate_over(total_ops, elapsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CentralCounter, NetworkCounter};
    use counting::counting_network;

    #[test]
    fn measurement_accounts_for_all_operations() {
        let counter = CentralCounter::new();
        let m = measure_throughput(&counter, 4, 1_000);
        assert_eq!(m.total_ops, 4_000);
        assert!(m.ops_per_second.expect("window long enough to measure") > 0.0);
        assert_eq!(m.threads, 4);
        // All operations really happened.
        assert_eq!(counter.next(0), 4_000);
    }

    #[test]
    fn network_counter_throughput_runs() {
        let net = counting_network(8, 8).expect("valid");
        let counter = NetworkCounter::new("C(8,8)", &net);
        let m = measure_throughput(&counter, 4, 500);
        assert_eq!(m.total_ops, 2_000);
        assert!(m.elapsed > Duration::ZERO);
        assert_eq!(m.counter, "C(8,8)");
    }

    #[test]
    fn degenerate_windows_yield_no_rate() {
        assert_eq!(rate_over(1_000, Duration::ZERO), None);
        assert_eq!(rate_over(1_000, Duration::from_nanos(999)), None);
        let r = rate_over(1_000, Duration::from_secs(2)).expect("measurable window");
        assert!((r - 500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let counter = CentralCounter::new();
        let _ = measure_throughput(&counter, 0, 10);
    }
}
