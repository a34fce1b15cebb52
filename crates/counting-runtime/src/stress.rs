//! Real-thread stress driver with online invariant checking.
//!
//! The simulator in `counting-sim` explores adversarial *schedules*; this
//! module is its hardware counterpart: it tortures any [`SharedCounter`]
//! with real threads under configurable workload [`Scenario`]s — steady
//! saturation, barrier-aligned bursts, skewed thread-to-wire assignment,
//! thread arrival/departure churn, oscillating thread counts, and
//! NUMA-style wire pinning — while checking the Fetch&Increment contract
//! *online*:
//!
//! * every issued value is marked in a [`ValueBitmap`] (an array of atomic
//!   words, one `fetch_or` per value), so duplicates are detected the
//!   moment they happen and the exact-range property (`0..m` with no gaps
//!   at quiescence) is verified for millions of operations without a
//!   mutex-guarded `HashSet` — and the *first offending values* (not just
//!   counts) are reported, so a broken run is debuggable from CI logs;
//! * optionally, every operation is timestamped and the records are fed
//!   to [`counting_sim::linearizability::violations`], measuring (not
//!   just asserting) how non-linearizable a counter is on real hardware
//!   (Section 1.4.2: counting networks trade linearizability for
//!   throughput).
//!
//! Operations are either uniformly batched or, via [`Batching::Mixed`],
//! drawn from the deterministic mixed-size stream [`batch_size_sequence`]
//! — the workload that requires the elimination layer
//! ([`crate::elimination`]) for gap-free hand-outs;
//! the torture suite drives every elimination-wrapped counter through
//! every scenario.
//!
//! All scenarios exclude thread start-up from the measured window via a
//! start barrier, so the reported rates are steady-state.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use counting_sim::linearizability::violations;
use counting_sim::TokenRecord;
use parking_lot::Mutex;
use serde::Serialize;

use crate::counter::SharedCounter;
use crate::throughput::MeasuredWindow;

/// A concurrent bitmap over the value range `0..capacity`, used to check
/// uniqueness online and exact-range coverage at quiescence.
///
/// The bitmap is sharded at word granularity: marking value `v` is a
/// single `fetch_or` on word `v / 64`, so two marks contend only when
/// their values fall into the same 64-value shard — negligible for the
/// scattered value streams a counting network produces.
#[derive(Debug)]
pub struct ValueBitmap {
    words: Box<[AtomicU64]>,
    capacity: u64,
}

impl ValueBitmap {
    /// Creates a bitmap able to track the values `0..capacity`.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        let words = (0..capacity.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, capacity }
    }

    /// The tracked value range `0..capacity`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Marks `value` as seen. Returns `true` if it was new, `false` if it
    /// had already been marked — i.e. a duplicate hand-out.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn mark(&self, value: u64) -> bool {
        assert!(value < self.capacity, "value {value} outside bitmap capacity {}", self.capacity);
        let bit = 1u64 << (value % 64);
        // Relaxed: first-marker detection needs only the fetch_or's
        // per-location atomicity — exactly one caller sees the bit clear.
        self.words[(value / 64) as usize].fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    /// Whether `value` has been marked.
    #[must_use]
    pub fn contains(&self, value: u64) -> bool {
        // Relaxed: reporting-only query, exact at quiescence.
        value < self.capacity
            && self.words[(value / 64) as usize].load(Ordering::Relaxed) & (1 << (value % 64)) != 0
    }

    /// The number of values in `0..capacity` not marked yet. Exact only at
    /// quiescence (no `mark` in flight).
    #[must_use]
    pub fn missing(&self) -> u64 {
        // Relaxed: reporting-only query, exact at quiescence.
        let set: u64 =
            self.words.iter().map(|w| u64::from(w.load(Ordering::Relaxed).count_ones())).sum();
        self.capacity - set
    }

    /// The first `limit` values in `0..capacity` not marked yet, in
    /// ascending order. Exact only at quiescence. This is what makes a
    /// gap debuggable: *which* values are missing localizes the broken
    /// reservation (e.g. one dispenser's stride), where a bare count
    /// cannot.
    #[must_use]
    pub fn missing_values(&self, limit: usize) -> Vec<u64> {
        let mut missing = Vec::new();
        if limit == 0 {
            return missing;
        }
        'words: for (idx, word) in self.words.iter().enumerate() {
            // Relaxed: reporting-only query, exact at quiescence.
            let set = word.load(Ordering::Relaxed);
            if set == u64::MAX {
                continue;
            }
            for bit in 0..64 {
                let value = idx as u64 * 64 + bit;
                if value >= self.capacity {
                    break 'words;
                }
                if set & (1 << bit) == 0 {
                    missing.push(value);
                    if missing.len() == limit {
                        break 'words;
                    }
                }
            }
        }
        missing
    }
}

/// A workload shape for [`run_stress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Every thread issues its operations back to back.
    Steady,
    /// Operations happen in barrier-aligned bursts: the threads blast a
    /// slice of their quota, meet at a barrier, and repeat — the
    /// high-contention wave regime the paper's bounds are stated for.
    Bursty {
        /// Number of aligned bursts the run is divided into.
        phases: usize,
    },
    /// Skewed thread-to-wire assignment: thread `i` presents identity
    /// `i % groups`, so `groups < threads` piles several threads onto the
    /// same input wire of a network-backed counter.
    Skewed {
        /// Number of distinct identities presented (`>= 1`).
        groups: usize,
    },
    /// Thread arrival/departure churn: thread `i` delays its start by
    /// `i * stagger_micros` and leaves as soon as its quota is done, so
    /// the active thread count ramps up and back down during the run.
    Churn {
        /// Arrival stagger between consecutive threads, in microseconds.
        stagger_micros: u64,
    },
    /// Oscillating thread counts: the run is divided into barrier-aligned
    /// pulses in which the two halves of the thread pool alternate — one
    /// half works while the other blocks at the pulse barrier — so the
    /// active thread count swings between `threads / 2` and `threads`
    /// over and over (everyone works the final pulse to drain quotas).
    /// This is the repeated ramp-up/ramp-down regime that exposes stale
    /// parked offers in collision layers.
    Oscillating {
        /// Number of barrier-aligned pulses (`>= 1`).
        pulses: usize,
    },
    /// NUMA-style wire pinning: the thread pool is split into `nodes`
    /// contiguous blocks and every thread of a block presents its node id
    /// as identity, so each "socket"'s threads funnel into one node-local
    /// input wire while the remaining wires sit idle — maximal per-wire
    /// pressure with node-local collision partners.
    Pinned {
        /// Number of NUMA nodes modeled (`1..=threads`).
        nodes: usize,
    },
}

impl Scenario {
    /// A short stable label used in tables and JSON output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Scenario::Steady => "steady".to_owned(),
            Scenario::Bursty { phases } => format!("bursty/{phases}"),
            Scenario::Skewed { groups } => format!("skewed/{groups}"),
            Scenario::Churn { stagger_micros } => format!("churn/{stagger_micros}us"),
            Scenario::Oscillating { pulses } => format!("oscillating/{pulses}"),
            Scenario::Pinned { nodes } => format!("pinned/{nodes}"),
        }
    }
}

/// How many values each operation obtains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batching {
    /// Every operation obtains exactly `k` values: `1` uses
    /// [`SharedCounter::next`], `k > 1` uses [`SharedCounter::next_batch`].
    Fixed(usize),
    /// Every operation draws its size from `1..=max_k`, deterministically
    /// per thread via [`batch_size_sequence`]. This is the workload whose
    /// exact-range guarantee needs the elimination layer (raw stride
    /// reservations leave gaps under mixed sizes).
    Mixed {
        /// Largest batch size drawn (sizes are uniform in `1..=max_k`).
        max_k: usize,
        /// Seed of the deterministic size stream.
        seed: u64,
    },
}

impl Batching {
    /// A short stable label used in tables and JSON output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Batching::Fixed(k) => k.to_string(),
            Batching::Mixed { max_k, .. } => format!("mixed/{max_k}"),
        }
    }

    /// The infinite per-thread sequence of operation sizes.
    fn sizes(&self, thread_id: usize) -> Box<dyn Iterator<Item = usize>> {
        match *self {
            Batching::Fixed(k) => Box::new(std::iter::repeat(k)),
            Batching::Mixed { max_k, seed } => {
                Box::new(batch_size_sequence(seed, thread_id as u64, max_k))
            }
        }
    }

    /// Total values obtained by one thread over `ops` operations.
    fn values_per_thread(&self, thread_id: usize, ops: u64) -> u64 {
        match *self {
            Batching::Fixed(k) => ops * k as u64,
            Batching::Mixed { .. } => {
                self.sizes(thread_id).take(ops as usize).map(|k| k as u64).sum()
            }
        }
    }
}

/// Returns the deterministic sequence of mixed batch sizes for one
/// logical stream (a thread of [`Batching::Mixed`]).
///
/// Sizes are drawn uniformly from `1..=max_k` by a SplitMix64 generator
/// seeded from `(seed, stream)`, so distinct streams are decorrelated but
/// every run with the same parameters sees identical sequences.
///
/// # Panics
///
/// Panics if `max_k` is zero.
pub fn batch_size_sequence(seed: u64, stream: u64, max_k: usize) -> impl Iterator<Item = usize> {
    assert!(max_k > 0, "max_k must be at least 1");
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    std::iter::repeat_with(move || {
        // SplitMix64: one additive step + two xor-shift mixes per draw.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % max_k as u64) as usize + 1
    })
}

/// Configuration of one stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressConfig {
    /// Number of real threads driving the counter.
    pub threads: usize,
    /// Operations (calls to `next` or `next_batch`) per thread.
    pub ops_per_thread: u64,
    /// Values per operation: uniform [`Batching::Fixed`] or the
    /// deterministic mixed-size stream [`Batching::Mixed`].
    pub batch: Batching,
    /// The workload shape.
    pub scenario: Scenario,
    /// Whether to timestamp every operation and measure linearizability
    /// violations (costs two clock reads per operation plus memory
    /// proportional to the number of values).
    pub record_tokens: bool,
}

impl StressConfig {
    /// A steady workload with `threads` threads and `ops_per_thread`
    /// unbatched operations each; invariant checking only.
    #[must_use]
    pub fn steady(threads: usize, ops_per_thread: u64) -> Self {
        Self {
            threads,
            ops_per_thread,
            batch: Batching::Fixed(1),
            scenario: Scenario::Steady,
            record_tokens: false,
        }
    }

    /// The total number of values the run hands out (for mixed batching,
    /// computed by replaying the deterministic size streams).
    #[must_use]
    pub fn total_values(&self) -> u64 {
        (0..self.threads).map(|tid| self.batch.values_per_thread(tid, self.ops_per_thread)).sum()
    }
}

/// The outcome of one stress run: rates plus the online invariant checks.
///
/// The three offender *lists* (`first_duplicates`, `first_missing`,
/// `first_out_of_range`) all share one cap, [`OFFENDER_REPORT_LIMIT`]:
/// each names at most that many example values, while the corresponding
/// *counts* (`duplicates`, `missing`, `out_of_range`) are always exact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StressReport {
    /// Description of the counter under test.
    pub counter: String,
    /// The scenario label (see [`Scenario::label`]).
    pub scenario: String,
    /// Number of threads that drove the counter.
    pub threads: usize,
    /// The batching label (see [`Batching::label`]; `"1"` = unbatched).
    pub batch: String,
    /// Total values handed out.
    pub total_values: u64,
    /// Values handed out more than once (must be `0` for a correct
    /// counter).
    pub duplicates: u64,
    /// Values in `0..total_values` never handed out at quiescence (must
    /// be `0` when the run satisfies the range precondition of
    /// [`SharedCounter::next_batch`] — or unconditionally through the
    /// elimination layer).
    pub missing: u64,
    /// Values `>= total_values` handed out (must be `0`).
    pub out_of_range: u64,
    /// The first duplicated values, in hand-out order (at most
    /// [`OFFENDER_REPORT_LIMIT`]) — which values collided, not just how
    /// many.
    pub first_duplicates: Vec<u64>,
    /// The smallest missing values at quiescence (at most
    /// [`OFFENDER_REPORT_LIMIT`]) — which part of the range has the gap.
    pub first_missing: Vec<u64>,
    /// The first out-of-range values, in hand-out order (at most
    /// [`OFFENDER_REPORT_LIMIT`]).
    pub first_out_of_range: Vec<u64>,
    /// Wall-clock seconds of the measured window (start barrier to last
    /// thread done).
    pub elapsed_secs: f64,
    /// Aggregate values handed out per second; `None` when the window was
    /// degenerate (shorter than [`crate::MIN_MEASURED_WINDOW`]), so a
    /// near-zero `--quick` window can never report an absurd rate.
    pub values_per_second: Option<f64>,
    /// Linearizability violations measured from the timestamped records
    /// (`None` unless `record_tokens` was set).
    pub linearizability_violations: Option<u64>,
}

impl StressReport {
    /// `true` if the run handed out exactly the values `0..total_values`,
    /// each once.
    #[must_use]
    pub fn is_exact_range(&self) -> bool {
        self.duplicates == 0 && self.missing == 0 && self.out_of_range == 0
    }

    /// The measured window as a [`Duration`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        Duration::from_secs_f64(self.elapsed_secs)
    }
}

/// How many offending values a [`StressReport`] retains verbatim —
/// the one cap shared by **all three** offender lists
/// ([`StressReport::first_duplicates`], [`StressReport::first_missing`],
/// [`StressReport::first_out_of_range`]). Counts are always exact; only
/// the listed examples are capped, and once the cap is reached the
/// mutex-guarded lists are never touched again, so a torrent of
/// violations cannot serialize the workers.
pub const OFFENDER_REPORT_LIMIT: usize = 16;

/// Per-thread bookkeeping shared with the invariant checker.
struct Inspector<'a> {
    bitmap: &'a ValueBitmap,
    duplicates: AtomicU64,
    out_of_range: AtomicU64,
    /// First offending values. Mutex-guarded, but only ever touched on
    /// the (supposedly impossible) failure paths — healthy runs stay
    /// lock-free.
    first_duplicates: Mutex<Vec<u64>>,
    first_out_of_range: Mutex<Vec<u64>>,
}

impl Inspector<'_> {
    fn check(&self, value: u64) {
        if value >= self.bitmap.capacity() {
            // Relaxed: monotone violation tally; the offender list is
            // serialized by its own mutex.
            let seen = self.out_of_range.fetch_add(1, Ordering::Relaxed);
            record_offender(seen, &self.first_out_of_range, value);
        } else if !self.bitmap.mark(value) {
            // Relaxed: monotone violation tally (see above).
            let seen = self.duplicates.fetch_add(1, Ordering::Relaxed);
            record_offender(seen, &self.first_duplicates, value);
        }
    }
}

/// Appends `value` to a capped offender list. `seen` is the number of
/// offenders counted before this one: once the cap is reached the mutex
/// is never touched again, so a torrent of violations (e.g. the
/// expected-gaps demonstration runs) does not serialize the workers.
fn record_offender(seen: u64, list: &Mutex<Vec<u64>>, value: u64) {
    if seen >= OFFENDER_REPORT_LIMIT as u64 {
        return;
    }
    let mut list = list.lock();
    if list.len() < OFFENDER_REPORT_LIMIT {
        list.push(value);
    }
}

/// Drives `counter` through the configured scenario and verifies the
/// Fetch&Increment contract online.
///
/// All threads are released together by a start barrier; the measured
/// window — assembled from worker-side timestamps so it stays accurate
/// even when the coordinating thread is descheduled on an oversubscribed
/// machine — runs from that release to the last thread's completion, so
/// start-up cost is excluded (churn stagger, which is part of the
/// workload, is not).
///
/// # Panics
///
/// Panics if the configuration is degenerate (no threads, no operations,
/// a batch of zero, a skew of zero groups, zero bursty phases or
/// oscillating pulses, or a pinned node count outside `1..=threads`) or
/// if a worker thread panics.
#[must_use]
pub fn run_stress<C: SharedCounter + ?Sized>(counter: &C, config: &StressConfig) -> StressReport {
    assert!(config.threads > 0, "at least one thread is required");
    assert!(config.ops_per_thread > 0, "at least one operation per thread is required");
    match config.batch {
        Batching::Fixed(k) => assert!(k > 0, "batch must be at least 1"),
        Batching::Mixed { max_k, .. } => assert!(max_k > 0, "batch must be at least 1"),
    }
    match config.scenario {
        Scenario::Skewed { groups } => {
            assert!(groups > 0, "skew needs at least one identity group");
        }
        Scenario::Bursty { phases } => assert!(phases > 0, "bursty needs at least one phase"),
        Scenario::Oscillating { pulses } => {
            assert!(pulses > 0, "oscillating needs at least one pulse");
        }
        Scenario::Pinned { nodes } => assert!(
            nodes >= 1 && nodes <= config.threads,
            "pinning needs between 1 and `threads` nodes"
        ),
        Scenario::Steady | Scenario::Churn { .. } => {}
    }

    let m = config.total_values();
    let bitmap = ValueBitmap::new(m);
    let inspector = Inspector {
        bitmap: &bitmap,
        duplicates: AtomicU64::new(0),
        out_of_range: AtomicU64::new(0),
        first_duplicates: Mutex::new(Vec::new()),
        first_out_of_range: Mutex::new(Vec::new()),
    };
    let sync = WorkerSync {
        window: MeasuredWindow::new(config.threads),
        phase_barrier: Barrier::new(config.threads),
    };
    let records: Mutex<Vec<TokenRecord>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for tid in 0..config.threads {
            let inspector = &inspector;
            let sync = &sync;
            let records = &records;
            scope.spawn(move || {
                run_worker(counter, config, tid, inspector, sync, records);
            });
        }
    });
    let elapsed = sync.window.elapsed();

    let linearizability_violations = if config.record_tokens {
        Some(violations(&records.into_inner()).len() as u64)
    } else {
        None
    };
    let elapsed_secs = elapsed.as_secs_f64();
    StressReport {
        counter: counter.describe(),
        scenario: config.scenario.label(),
        threads: config.threads,
        batch: config.batch.label(),
        total_values: m,
        // Relaxed loads: post-join quiescent reads.
        duplicates: inspector.duplicates.load(Ordering::Relaxed),
        missing: bitmap.missing(),
        out_of_range: inspector.out_of_range.load(Ordering::Relaxed),
        first_duplicates: inspector.first_duplicates.into_inner(),
        first_missing: bitmap.missing_values(OFFENDER_REPORT_LIMIT),
        first_out_of_range: inspector.first_out_of_range.into_inner(),
        elapsed_secs,
        values_per_second: crate::rate_over(m, elapsed),
        linearizability_violations,
    }
}

/// Synchronization shared by the stress workers: the measured window
/// (start barrier + worker-side timestamps) and the bursty phase barrier.
struct WorkerSync {
    window: MeasuredWindow,
    phase_barrier: Barrier,
}

/// Whether thread `tid` works during an oscillating pulse: the two halves
/// of the pool alternate, and everyone works the final pulse so the
/// quotas drain.
fn oscillating_active(tid: usize, pulse: usize, pulses: usize) -> bool {
    (pulse + tid).is_multiple_of(2) || pulse + 1 == pulses
}

/// The body of one stress thread.
fn run_worker<C: SharedCounter + ?Sized>(
    counter: &C,
    config: &StressConfig,
    tid: usize,
    inspector: &Inspector<'_>,
    sync: &WorkerSync,
    records: &Mutex<Vec<TokenRecord>>,
) {
    // The identity presented to the counter (input-wire choice).
    let identity = match config.scenario {
        Scenario::Skewed { groups } => tid % groups,
        // All threads of a node funnel into the node's wire.
        Scenario::Pinned { nodes } => tid * nodes / config.threads,
        _ => tid,
    };
    let mut local_records = if config.record_tokens {
        Vec::with_capacity(config.batch.values_per_thread(tid, config.ops_per_thread) as usize)
    } else {
        Vec::new()
    };
    let mut sizes = config.batch.sizes(tid);
    let mut batch_buf: Vec<u64> = Vec::new();

    sync.window.enter();
    if let Scenario::Churn { stagger_micros } = config.scenario {
        // Staggered arrival (inside the measured window — the stagger is
        // part of the workload); departure churn follows from each thread
        // leaving as soon as its quota is done.
        std::thread::sleep(Duration::from_micros(tid as u64 * stagger_micros));
    }

    let phases = match config.scenario {
        Scenario::Bursty { phases } => phases,
        Scenario::Oscillating { pulses } => pulses,
        _ => 1,
    };
    let mut remaining = config.ops_per_thread;
    for phase in 0..phases {
        // Spread the quota over the phases the thread participates in,
        // giving the remainder to the early bursts. An oscillating thread
        // sits out every other pulse (blocked at the pulse barrier), so
        // the active thread count swings while per-thread quotas drain.
        let burst = match config.scenario {
            Scenario::Oscillating { pulses } if !oscillating_active(tid, phase, pulses) => 0,
            Scenario::Oscillating { pulses } => {
                let active_left =
                    (phase..pulses).filter(|&p| oscillating_active(tid, p, pulses)).count() as u64;
                remaining.div_ceil(active_left).min(remaining)
            }
            _ => remaining.div_ceil((phases - phase) as u64).min(remaining),
        };
        for _ in 0..burst {
            let batch = sizes.next().expect("size streams are infinite");
            // SeqCst fences pin the counter operation between its two
            // timestamps on weakly ordered hardware: without them a
            // Relaxed fetch_add could become globally visible after the
            // exit-time clock read, and the linearizability measurement
            // would report phantom violations for the centralized
            // (linearizable) counters.
            let enter_time = if config.record_tokens {
                let t = sync.window.nanos();
                fence(Ordering::SeqCst);
                t
            } else {
                0
            };
            if batch == 1 {
                let value = counter.next(identity);
                if config.record_tokens {
                    // Take the exit timestamp before the bitmap check so
                    // the recorded interval covers only the counter
                    // operation (a widened interval would hide genuine
                    // non-overlap inversions from the violation count).
                    fence(Ordering::SeqCst);
                    let exit_time = sync.window.nanos();
                    inspector.check(value);
                    local_records.push(TokenRecord { process: tid, enter_time, exit_time, value });
                } else {
                    inspector.check(value);
                }
            } else {
                batch_buf.clear();
                counter.next_batch(identity, batch, &mut batch_buf);
                let exit_time = if config.record_tokens {
                    fence(Ordering::SeqCst);
                    sync.window.nanos()
                } else {
                    0
                };
                for &value in &batch_buf {
                    inspector.check(value);
                    if config.record_tokens {
                        local_records.push(TokenRecord {
                            process: tid,
                            enter_time,
                            exit_time,
                            value,
                        });
                    }
                }
            }
        }
        remaining -= burst;
        if phase + 1 < phases {
            // Align the next burst or pulse across all threads (no
            // rendezvous after the last one — it would only stretch the
            // measured window to the slowest thread plus a barrier wake).
            sync.phase_barrier.wait();
        }
    }
    debug_assert_eq!(remaining, 0);
    sync.window.exit();

    if config.record_tokens {
        records.lock().extend(local_records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CentralCounter, LockCounter, NetworkCounter};
    use crate::diffracting::DiffractingCounter;
    use crate::elimination::EliminationCounter;
    use counting::counting_network;

    #[test]
    fn bitmap_marks_detect_duplicates_and_gaps() {
        let bitmap = ValueBitmap::new(130);
        assert_eq!(bitmap.capacity(), 130);
        assert!(bitmap.mark(0));
        assert!(bitmap.mark(129));
        assert!(!bitmap.mark(0), "second mark is a duplicate");
        assert!(bitmap.contains(129));
        assert!(!bitmap.contains(64));
        assert!(!bitmap.contains(4_000), "out of capacity is never contained");
        assert_eq!(bitmap.missing(), 128);
        for v in 0..130 {
            let _ = bitmap.mark(v);
        }
        assert_eq!(bitmap.missing(), 0);
    }

    #[test]
    #[should_panic(expected = "outside bitmap capacity")]
    fn bitmap_rejects_values_beyond_capacity() {
        let _ = ValueBitmap::new(10).mark(10);
    }

    #[test]
    fn bitmap_reports_which_values_are_missing() {
        let bitmap = ValueBitmap::new(200);
        for v in 0..200 {
            if v != 3 && v != 64 && v != 199 {
                let _ = bitmap.mark(v);
            }
        }
        assert_eq!(bitmap.missing_values(16), vec![3, 64, 199]);
        assert_eq!(bitmap.missing_values(2), vec![3, 64], "the limit caps the listing");
        assert_eq!(bitmap.missing_values(0), Vec::<u64>::new());
        let _ = bitmap.mark(3);
        let _ = bitmap.mark(64);
        let _ = bitmap.mark(199);
        assert!(bitmap.missing_values(16).is_empty());
    }

    #[test]
    fn steady_run_verifies_exact_range() {
        let net = counting_network(8, 8).expect("valid");
        let counter = NetworkCounter::new("C(8,8)", &net);
        let report = run_stress(&counter, &StressConfig::steady(8, 500));
        assert_eq!(report.total_values, 4_000);
        assert!(report.is_exact_range(), "{report:?}");
        assert!(report.values_per_second.expect("window long enough to measure") > 0.0);
        assert_eq!(report.counter, "C(8,8)");
        assert_eq!(report.scenario, "steady");
        assert!(report.linearizability_violations.is_none());
        assert!(report.elapsed() > Duration::ZERO);
    }

    #[test]
    fn every_scenario_passes_on_every_runtime_counter() {
        type CounterFactory = fn(&balnet::Network) -> Box<dyn SharedCounter>;
        let net = counting_network(4, 8).expect("valid");
        // A counter hands out each value once, so every run needs a fresh
        // instance.
        let make: [CounterFactory; 4] = [
            |net| Box::new(NetworkCounter::new("C(4,8)", net)),
            |_| Box::new(DiffractingCounter::new(8, 2, 16)),
            |_| Box::new(CentralCounter::new()),
            |_| Box::new(LockCounter::new()),
        ];
        let scenarios = [
            Scenario::Steady,
            Scenario::Bursty { phases: 4 },
            Scenario::Skewed { groups: 2 },
            Scenario::Churn { stagger_micros: 100 },
            Scenario::Oscillating { pulses: 4 },
            Scenario::Pinned { nodes: 2 },
        ];
        for factory in make {
            for scenario in scenarios {
                let counter = factory(&net);
                let config = StressConfig {
                    threads: 8,
                    ops_per_thread: 120,
                    batch: Batching::Fixed(1),
                    scenario,
                    record_tokens: false,
                };
                let report = run_stress(counter.as_ref(), &config);
                assert!(
                    report.is_exact_range(),
                    "{} under {}: {report:?}",
                    counter.describe(),
                    scenario.label()
                );
            }
        }
    }

    #[test]
    fn batched_runs_verify_exact_range_when_traversals_divide_evenly() {
        // 8 threads × 16 ops = 128 traversals — a multiple of the output
        // width 8 — so stride reservations tile the range exactly.
        let net = counting_network(8, 8).expect("valid");
        let counter = NetworkCounter::new("C(8,8)", &net);
        let config = StressConfig {
            threads: 8,
            ops_per_thread: 16,
            batch: Batching::Fixed(6),
            scenario: Scenario::Steady,
            record_tokens: false,
        };
        let report = run_stress(&counter, &config);
        assert_eq!(report.total_values, 8 * 16 * 6);
        assert!(report.is_exact_range(), "{report:?}");
    }

    #[test]
    fn recorded_runs_measure_linearizability() {
        // The centralized counter is linearizable: its fetch_add happens
        // between the two timestamps, so non-overlapping operations can
        // never invert values.
        let counter = CentralCounter::new();
        let config = StressConfig {
            threads: 8,
            ops_per_thread: 300,
            batch: Batching::Fixed(1),
            scenario: Scenario::Steady,
            record_tokens: true,
        };
        let report = run_stress(&counter, &config);
        assert_eq!(report.linearizability_violations, Some(0));
        assert!(report.is_exact_range());
        // A network counter yields a measurement too (any count is legal —
        // non-linearizability is a possibility, not a certainty, on a
        // given run).
        let net = counting_network(4, 4).expect("valid");
        let network = NetworkCounter::new("C(4,4)", &net);
        let report = run_stress(&network, &config);
        assert!(report.linearizability_violations.is_some());
        assert!(report.is_exact_range());
    }

    #[test]
    fn duplicate_and_gap_detection_actually_fires() {
        // A deliberately broken counter: every thread re-hands the same
        // values. The harness must report duplicates and gaps, not panic.
        struct Broken(AtomicU64);
        impl SharedCounter for Broken {
            fn next(&self, _thread_id: usize) -> u64 {
                // Hands out 0, 1, 0, 1, ... and occasionally escapes the
                // range entirely.
                let n = self.0.fetch_add(1, Ordering::Relaxed);
                if n % 10 == 9 {
                    u64::MAX
                } else {
                    n % 2
                }
            }
            fn describe(&self) -> String {
                "broken".into()
            }
        }
        let report = run_stress(&Broken(AtomicU64::new(0)), &StressConfig::steady(4, 100));
        assert!(!report.is_exact_range());
        assert!(report.duplicates > 0, "{report:?}");
        assert!(report.out_of_range > 0, "{report:?}");
        assert!(report.missing > 0, "{report:?}");
        // The offenders themselves are named (capped), not just counted.
        assert!(!report.first_duplicates.is_empty());
        assert!(report.first_duplicates.len() <= OFFENDER_REPORT_LIMIT);
        assert!(report.first_duplicates.iter().all(|&v| v <= 1), "only 0 and 1 repeat");
        assert_eq!(report.first_out_of_range, vec![u64::MAX; report.first_out_of_range.len()]);
        assert!(!report.first_out_of_range.is_empty());
        assert!(report.first_missing.first().is_some_and(|&v| v >= 2), "0 and 1 were handed out");
    }

    #[test]
    fn offender_lists_share_one_cap_and_counts_stay_exact() {
        // A counter that hands out nothing but zeros floods every failure
        // channel far past the cap: each list must stop at exactly
        // OFFENDER_REPORT_LIMIT examples while the counts remain exact.
        struct AlwaysZero;
        impl SharedCounter for AlwaysZero {
            fn next(&self, _thread_id: usize) -> u64 {
                0
            }
            fn describe(&self) -> String {
                "always zero".into()
            }
        }
        let threads = 4;
        let ops = 100;
        let report = run_stress(&AlwaysZero, &StressConfig::steady(threads, ops));
        let m = (threads as u64) * ops;
        // One thread marked 0 first; every other hand-out is a duplicate.
        assert_eq!(report.duplicates, m - 1, "counts are exact, not capped");
        assert_eq!(report.missing, m - 1, "only value 0 was ever produced");
        assert_eq!(report.first_duplicates.len(), OFFENDER_REPORT_LIMIT);
        assert_eq!(report.first_missing.len(), OFFENDER_REPORT_LIMIT);
        assert!(report.first_duplicates.iter().all(|&v| v == 0));
        assert_eq!(
            report.first_missing,
            (1..=OFFENDER_REPORT_LIMIT as u64).collect::<Vec<_>>(),
            "the smallest missing values, in order, up to the shared cap"
        );
        assert!(report.first_out_of_range.is_empty(), "nothing escaped the range");
        assert_eq!(report.out_of_range, 0);
    }

    #[test]
    fn scenario_and_batching_labels_are_stable() {
        assert_eq!(Scenario::Steady.label(), "steady");
        assert_eq!(Scenario::Bursty { phases: 4 }.label(), "bursty/4");
        assert_eq!(Scenario::Skewed { groups: 2 }.label(), "skewed/2");
        assert_eq!(Scenario::Churn { stagger_micros: 100 }.label(), "churn/100us");
        assert_eq!(Scenario::Oscillating { pulses: 6 }.label(), "oscillating/6");
        assert_eq!(Scenario::Pinned { nodes: 2 }.label(), "pinned/2");
        assert_eq!(Batching::Fixed(1).label(), "1");
        assert_eq!(Batching::Fixed(8).label(), "8");
        assert_eq!(Batching::Mixed { max_k: 32, seed: 7 }.label(), "mixed/32");
    }

    #[test]
    fn mixed_batching_totals_replay_the_shared_stream() {
        let batch = Batching::Mixed { max_k: 8, seed: 11 };
        let config = StressConfig { batch, ..StressConfig::steady(4, 50) };
        let by_hand: u64 = (0..4)
            .map(|tid| batch_size_sequence(11, tid, 8).take(50).map(|k| k as u64).sum::<u64>())
            .sum();
        assert_eq!(config.total_values(), by_hand);
        // Sanity: genuinely mixed, not accidentally constant.
        let sizes: Vec<usize> = batch_size_sequence(11, 0, 8).take(50).collect();
        assert!(sizes.iter().any(|&k| k != sizes[0]));
    }

    #[test]
    fn sequences_are_deterministic_and_in_range() {
        let a: Vec<usize> = batch_size_sequence(7, 3, 32).take(100).collect();
        let b: Vec<usize> = batch_size_sequence(7, 3, 32).take(100).collect();
        assert_eq!(a, b, "same seed and stream must replay identically");
        assert!(a.iter().all(|&k| (1..=32).contains(&k)));
        let other: Vec<usize> = batch_size_sequence(7, 4, 32).take(100).collect();
        assert_ne!(a, other, "distinct streams must be decorrelated");
        // The torture seeds and the property tests draw from this
        // stream: these prefixes pin it bit for bit.
        let e11a: Vec<usize> = batch_size_sequence(0xE11A, 0, 16).take(16).collect();
        assert_eq!(e11a, [10, 16, 8, 12, 5, 9, 7, 14, 1, 9, 5, 8, 6, 7, 2, 1]);
        let eleven: Vec<usize> = batch_size_sequence(11, 3, 8).take(16).collect();
        assert_eq!(eleven, [2, 6, 8, 6, 5, 8, 1, 7, 4, 2, 2, 1, 6, 5, 3, 7]);
    }

    #[test]
    fn sequences_cover_the_whole_size_range() {
        let seen: std::collections::HashSet<usize> =
            batch_size_sequence(1, 0, 4).take(200).collect();
        assert_eq!(seen, (1..=4).collect());
    }

    #[test]
    #[should_panic(expected = "max_k must be at least 1")]
    fn zero_max_k_rejected() {
        let _ = batch_size_sequence(0, 0, 0);
    }

    #[test]
    fn mixed_batches_through_the_elimination_layer_verify_exact_range() {
        // The headline workload: random batch sizes, an op count with no
        // divisibility relationship to the output width — through the
        // elimination layer the range check must hold unconditionally.
        let net = counting_network(8, 8).expect("valid");
        let counter = EliminationCounter::new(NetworkCounter::new("C(8,8)", &net));
        let config = StressConfig {
            threads: 8,
            ops_per_thread: 123,
            batch: Batching::Mixed { max_k: 16, seed: 3 },
            scenario: Scenario::Steady,
            record_tokens: false,
        };
        let report = run_stress(&counter, &config);
        assert!(report.is_exact_range(), "{report:?}");
        assert_eq!(report.batch, "mixed/16");
    }

    #[test]
    fn mixed_batches_on_raw_stride_reservations_leave_reported_gaps() {
        // The caveat the layer exists for, demonstrated deterministically
        // (one thread, so traversal order is fixed): mixed-size stride
        // reservations do not tile, and the report now names the first
        // missing values instead of only counting them.
        let net = counting_network(4, 4).expect("valid");
        let counter = NetworkCounter::new("C(4,4)", &net);
        let config = StressConfig {
            threads: 1,
            ops_per_thread: 40,
            batch: Batching::Mixed { max_k: 8, seed: 5 },
            scenario: Scenario::Steady,
            record_tokens: false,
        };
        let report = run_stress(&counter, &config);
        assert!(report.missing > 0, "mixed strides should gap: {report:?}");
        assert_eq!(report.duplicates, 0, "gaps, but never a value twice: {report:?}");
        assert!(!report.first_missing.is_empty());
        assert!(report.first_missing.len() <= OFFENDER_REPORT_LIMIT);
        assert!(report.first_missing.iter().all(|&v| v < report.total_values));
    }

    #[test]
    fn oscillating_and_pinned_runs_complete_their_quotas() {
        let counter = CentralCounter::new();
        let config = StressConfig {
            scenario: Scenario::Oscillating { pulses: 7 },
            ..StressConfig::steady(8, 100)
        };
        let report = run_stress(&counter, &config);
        assert!(report.is_exact_range(), "{report:?}");
        assert_eq!(report.scenario, "oscillating/7");

        let net = counting_network(8, 8).expect("valid");
        let counter = NetworkCounter::new("C(8,8)", &net);
        let config = StressConfig {
            scenario: Scenario::Pinned { nodes: 2 },
            ..StressConfig::steady(8, 100)
        };
        let report = run_stress(&counter, &config);
        assert!(report.is_exact_range(), "{report:?}");
        assert_eq!(report.scenario, "pinned/2");
    }

    #[test]
    #[should_panic(expected = "between 1 and `threads` nodes")]
    fn pinned_rejects_more_nodes_than_threads() {
        let config =
            StressConfig { scenario: Scenario::Pinned { nodes: 9 }, ..StressConfig::steady(8, 10) };
        let _ = run_stress(&CentralCounter::new(), &config);
    }

    #[test]
    fn report_serializes_to_json() {
        let counter = CentralCounter::new();
        let report = run_stress(&counter, &StressConfig::steady(2, 50));
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"counter\":\"central fetch_add\""), "{json}");
        assert!(json.contains("\"duplicates\":0"), "{json}");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = run_stress(&CentralCounter::new(), &StressConfig::steady(0, 1));
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        let config = StressConfig { batch: Batching::Fixed(0), ..StressConfig::steady(1, 1) };
        let _ = run_stress(&CentralCounter::new(), &config);
    }
}
