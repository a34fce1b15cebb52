//! # bench — experiment harness shared helpers
//!
//! The `bench` crate hosts two kinds of executables:
//!
//! * **Criterion benches** (`benches/`) — wall-clock measurements of
//!   construction, evaluation, simulation and concurrent throughput, one
//!   bench per experiment family of `DESIGN.md`.
//! * **Experiment binaries** (`src/bin/exp_*.rs`) — deterministic programs
//!   that print the Markdown tables recorded in `EXPERIMENTS.md`
//!   (depth tables, contention sweeps, block breakdowns, throughput
//!   comparisons, smoothing and sorting summaries).
//!
//! This library holds what both share: the standard comparison suite of
//! networks, a tiny Markdown table formatter and the experiment binaries'
//! strict flag parser. Performance claims are not made here: they are
//! measured by the standalone `benchmark/` package (`/BENCHMARK.json`).

#![warn(missing_docs)]

pub mod args;
pub mod suite;
pub mod table;

pub use args::Args;
pub use suite::{comparison_suite, NamedNetwork};
pub use table::{kilo_rate, Table};
