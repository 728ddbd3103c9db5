#![forbid(unsafe_code)]
//! Microbenchmark harness and the Section-7 coverage experiments.
//!
//! The paper's Figures 7 and 8 are measured by perfbench's `figure7`
//! workload, not here. This crate holds the in-tree [`timing`] harness
//! behind the `dsu`, `engine`, `scaling` and `ablations` benches, and
//! the `coverage` binary that regenerates the Theorem 6/7 tables.

pub mod timing;
