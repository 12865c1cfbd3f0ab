//! # meshfree-bench
//!
//! Benchmarks and experiment regenerators for the paper's tables and
//! figures. The library part holds shared helpers for the `[[bin]]`
//! harnesses (figure/table regeneration and `perf_suite`).

pub mod output;

pub use output::{print_series, write_csv};
