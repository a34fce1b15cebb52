//! # bench — experiment harness shared helpers
//!
//! The `bench` crate hosts one experiment binary, `src/bin/exp_cluster.rs`:
//! the deterministic sweep of the simulated counting cluster (E18/E19),
//! which prints Markdown tables, writes a `--json` report and exits
//! nonzero on a broken invariant (or, under `--mutation`, on a seeded bug
//! that went uncaught). The paper's closed-form results (depth, smoothing,
//! contention, blocks, sorting, ablations) are root tests that assert
//! their claims and print their tables under `--nocapture`;
//! `REPRODUCING.md` maps each result to its test.
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
