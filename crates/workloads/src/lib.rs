#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rader-workloads
//!
//! The six application benchmarks of the paper's evaluation (Figures 7
//! and 8), as simulator programs over `rader-cilk`:
//!
//! | Module | Paper benchmark | Reducer |
//! |---|---|---|
//! | [`fib`] | `fib` — recursive Fibonacci | `reducer_opadd` |
//! | [`knapsack`] | `knapsack` — recursive 0/1 knapsack | user-defined struct ([`rader_reducers::ArgMax`]) |
//! | [`pbfs`] | `pbfs` — parallel breadth-first search | pennant bag |
//! | [`collision`] | `collision` — 3-D collision detection | hypervector |
//! | [`dedup`] | `dedup` — chunked compression pipeline (PARSEC port) | `reducer_ostream` |
//! | [`ferret`] | `ferret` — image similarity search (PARSEC port) | `reducer_ostream` |
//!
//! Each module provides a seeded input generator, the Cilk program, and a
//! plain-Rust serial reference used by tests to validate results. The
//! PARSEC benchmarks' inputs are replaced by synthetic generators (see
//! DESIGN.md §2: the evaluation measures detector overhead on
//! reducer-using programs; seeded synthetic inputs reproduce the
//! work-per-strand profile that drives those overheads).
//!
//! [`fig1`] transcribes the paper's Figure 1 — the shallow-copy list bug
//! whose determinacy race hides inside a `Reduce` operation — in both
//! buggy and fixed forms.

pub mod collision;
pub mod dedup;
pub mod ferret;
pub mod fib;
pub mod fig1;
pub mod knapsack;
pub mod pbfs;

use rader_cilk::Ctx;

/// A benchmark that the Figure-7/8 harness can run at a given scale.
pub struct Workload {
    /// Benchmark name as it appears in the paper's tables.
    pub name: &'static str,
    /// Description column of the paper's tables.
    pub description: &'static str,
    /// Input-size label.
    pub input_label: String,
    /// The program, re-runnable (one fresh engine per run).
    pub run: Box<dyn Fn(&mut Ctx<'_>) + Sync>,
}

/// Scale factor for the benchmark suite: `Small` for tests, `Paper` for
/// the table harness (sized so the full Figure-7/8 sweep completes in
/// minutes on a laptop while keeping the paper's relative work profile).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Test-sized inputs (seconds for the whole suite × all configs).
    Small,
    /// Inputs scaled for the Figure-7/8 harness (minutes).
    Paper,
}

/// The full benchmark suite at the given scale, in the paper's table
/// order.
pub fn suite(scale: Scale) -> Vec<Workload> {
    vec![
        collision::workload(scale),
        dedup::workload(scale),
        ferret::workload(scale),
        fib::workload(scale),
        knapsack::workload(scale),
        pbfs::workload(scale),
    ]
}
