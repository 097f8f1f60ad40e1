//! End-to-end and per-layer benchmark of the Plasticine stack.
//!
//! A `run` is a pipeline: build the workload (inputs and host golden) →
//! compile → interpret functionally, recording the work trace → build the
//! timing model and control tree → step the timing kernel → encode stats;
//! `serve` adds queueing, the compile cache and containment on top. The
//! harness times that pipeline from outside, through the crates' public
//! functions only, on four workloads that each stress a different layer
//! (see `README.md`).

#![warn(missing_docs)]

pub mod check;
pub mod compare;
mod ops;
pub mod report;
pub mod serve;
pub mod spans;
mod stats;
mod stream;
pub mod workload;

/// The repository's benchmark declaration: metrics, units, bounds.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
