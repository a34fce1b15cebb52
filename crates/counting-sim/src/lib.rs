//! # counting-sim — token-level simulation and contention measurement
//!
//! The paper measures the quality of a counting network by its *amortized
//! contention* under the stall-counting model of Dwork, Herlihy & Waarts
//! (Section 1.2 and Section 6): each balancer is a shared memory location;
//! when a token passes through a balancer it causes one stall to every
//! other token currently waiting at that balancer; the amortized contention
//! is the total number of stalls divided by the number of tokens, maximized
//! over schedules chosen by an adversary.
//!
//! This crate provides a discrete, single-threaded but fully
//! interleaving-accurate simulator of that model:
//!
//! * [`Simulation`] drives `n` concurrent processes, each shepherding one
//!   token at a time through an arbitrary [`balnet::Network`]; the order of
//!   atomic balancer traversals is chosen by a pluggable [`Scheduler`].
//! * Stalls are accounted per balancer and per layer, so the contention of
//!   the blocks `N_a`, `N_b`, `N_c` of `C(w, t)` can be separated
//!   (Section 1.3.2).
//! * [`scheduler`]s include round-robin (lock-step waves — the
//!   high-contention regime the bounds are stated for), uniformly random,
//!   and a greedy "hotspot" adversary that preferentially drains the most
//!   crowded balancer.
//! * [`contention`] offers sweep helpers producing serializable result rows
//!   used by the benchmark harness to regenerate the paper's comparisons.
//! * [`des`] is a seeded discrete-event kernel with per-message fault
//!   injection (drop / duplicate / delay / reorder) — the deterministic
//!   substrate under the `counting-cluster` distributed simulation.
//!
//! The simulator also verifies Fetch&Increment semantics: in a counting
//! network the values handed out on the output wires form exactly the range
//! `0..m-1`.

#![warn(missing_docs)]

pub mod contention;
pub mod des;
pub mod linearizability;
pub mod model;
pub mod report;
pub mod scheduler;
pub mod sim;

pub use contention::{measure_contention, sweep_concurrency, ContentionPoint};
pub use des::{EventQueue, FaultPlan, SimRng};
pub use linearizability::{is_linearizable, violations, Violation};
pub use model::{explore, replay, Counterexample, ExploreReport, ModelConfig, Scenario, Trace};
pub use report::{ContentionReport, FetchIncrementOutcome, TokenRecord};
pub use scheduler::{GreedyHotspot, RandomScheduler, RoundRobin, Scheduler, SchedulerKind};
pub use sim::{SimConfig, Simulation};
