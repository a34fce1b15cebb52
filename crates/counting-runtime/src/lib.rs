//! # counting-runtime — concurrent shared-memory execution of balancing
//! networks
//!
//! The paper's target platform is an MIMD shared-memory multiprocessor on
//! which each balancer is a shared memory location traversed by `n`
//! asynchronous processes (Section 1.2), and its experimental evaluation
//! compares the throughput of `C(w, t)` against the bitonic and periodic
//! networks on real hardware. This crate is that substrate, built on
//! modern Rust atomics:
//!
//! * [`CompiledNetwork`] — a lock-free, cache-friendly compilation of any
//!   [`balnet::Network`] topology: every balancer is a single atomic word
//!   updated with `fetch_add`, wires are index lookups.
//! * [`NetworkCounter`] — a Fetch&Increment shared counter backed by a
//!   compiled network plus per-output-wire value dispensers, exactly the
//!   construction of Section 1.1.
//! * [`CentralCounter`] — the centralized baseline (a single
//!   `fetch_add` hotspot) and the linearizable reference.
//! * [`stress`] — an adversarial real-thread workload driver (steady,
//!   bursty, skewed, churn and oscillating scenarios) that reports
//!   verdicts, not rates, with online invariant checking: a sharded
//!   atomic [`ValueBitmap`] verifies uniqueness and exact-range coverage
//!   without a mutex-guarded set — reporting the first offending values,
//!   not just counts — and timestamped records are fed to
//!   `counting-sim`'s linearizability analysis to *measure*
//!   non-linearizability on real hardware.
//! * [`elimination`] — an elimination/combining arena in front of any
//!   [`BlockReserve`] counter: colliding `next_batch` callers merge their
//!   requests into one combined contiguous reservation and split it back
//!   gap-free, making the exact-range guarantee hold for **mixed** batch
//!   sizes and arbitrary operation counts. A published offer waits by
//!   spin-then-yield, and the arena probes a window of up to two adjacent
//!   slots before falling back to a solo reservation.
//!
//! Concurrency-correctness notes: every balancer traversal is a single
//! atomic `fetch_add` (so balancer state transitions are linearizable per
//! balancer), and every output wire's dispenser is an atomic `fetch_add`
//! stepping by the output width. Relaxed ordering suffices throughout —
//! the counting guarantee rests only on the per-location modification
//! orders, not on cross-location happens-before — which is also what makes
//! the structure genuinely low-contention in hardware.
//!
//! # Quick start
//!
//! Construct a counter, draw values, and batch:
//!
//! ```
//! use counting::counting_network;
//! use counting_runtime::{CentralCounter, NetworkCounter, SharedCounter};
//!
//! // The paper's counting network, compiled to atomics.
//! let net = counting_network(4, 8).expect("valid parameters");
//! let counter = NetworkCounter::new("C(4,8)", &net);
//! assert_ne!(counter.next(0), counter.next(1), "values are unique");
//!
//! // One traversal reserves a whole stride of values.
//! let mut batch = Vec::new();
//! counter.next_batch(2, 4, &mut batch);
//! assert_eq!(batch.len(), 4);
//!
//! // The baseline shares the same trait, so harnesses take either.
//! let baseline: Box<dyn SharedCounter> = Box::new(CentralCounter::new());
//! assert_eq!(baseline.next(0), 0, "{} starts at zero", baseline.describe());
//! ```
//!
//! Wrap any [`BlockReserve`] counter in the elimination arena for
//! gap-free **mixed-size** batching:
//!
//! ```
//! use counting::counting_network;
//! use counting_runtime::{EliminationCounter, NetworkCounter, SharedCounter};
//!
//! let net = counting_network(4, 8).expect("valid parameters");
//! let counter = EliminationCounter::new(NetworkCounter::new("C(4,8)", &net));
//!
//! // Any mix of batch sizes tiles the value space exactly.
//! let mut values = Vec::new();
//! for (op, k) in [3usize, 1, 7, 2].into_iter().enumerate() {
//!     counter.next_batch(op, k, &mut values);
//! }
//! values.sort();
//! assert_eq!(values, (0..13).collect::<Vec<u64>>(), "exact range, no gaps");
//! assert!(counter.describe().ends_with("elim[4]"));
//! ```

#![warn(missing_docs)]

pub mod compiled;
pub mod counter;
pub mod elimination;
pub mod stress;
pub mod sync;

pub use compiled::CompiledNetwork;
pub use counter::{BlockReserve, CentralCounter, NetworkCounter, SharedCounter};
pub use elimination::EliminationCounter;
pub use stress::{run_stress, Batching, Scenario, StressConfig, StressReport, ValueBitmap};
