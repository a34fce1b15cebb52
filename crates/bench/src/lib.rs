//! # bench — experiment harness shared helpers
//!
//! The `bench` crate hosts the experiment binaries (`src/bin/exp_*.rs`):
//! deterministic programs that print the Markdown tables `REPRODUCING.md`
//! maps to the paper's results (depth tables, contention sweeps, block
//! breakdowns, smoothing and sorting summaries)
//! and the correctness gates of the stress, service, serving, cluster and
//! model-checking layers.
//!
//! This library holds what they share: the standard comparison suite of
//! networks, a tiny Markdown table formatter, the strict flag parser and
//! the `--json` report tail. Performance claims are not made here: they
//! are measured by the standalone `benchmark/` package (`/BENCHMARK.json`).

#![warn(missing_docs)]

pub mod args;
pub mod suite;
pub mod table;

pub use args::Args;
pub use suite::{comparison_suite, NamedNetwork};
pub use table::Table;

/// Writes `report` as JSON to `path` and says so on stdout, or prints the
/// JSON on stdout when no `--json <path>` was given.
pub fn emit_json<T: serde::Serialize>(report: &T, path: Option<&str>) {
    let json = serde_json::to_string(report).expect("report serializes");
    match path {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON report file");
            println!("JSON written to {path}");
        }
        None => println!("{json}"),
    }
}
