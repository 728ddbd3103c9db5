#![forbid(unsafe_code)]
//! # rader
//!
//! Umbrella crate for **Rader-rs**, a from-scratch Rust reproduction of
//! Lee & Schardl, *"Efficiently Detecting Races in Cilk Programs That Use
//! Reducer Hyperobjects"* (SPAA 2015).
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`cilk`] — the Cilk-style simulator: write fork-join programs against
//!   [`cilk::Ctx`] and run them in Cilk serial order, with simulated
//!   steals driven by a [`cilk::StealSpec`].
//! * [`reducers`] — reducer hyperobjects: the [`reducers::Monoid`] trait and
//!   builtin monoids (sum, min/max, list append, output stream, bag, ...).
//! * [`core`] — the paper's contribution: the Peer-Set algorithm for
//!   view-read races, the SP+ algorithm for determinacy races involving
//!   reducer views, the SP-bags baseline, and the Section-7 coverage
//!   machinery for exhaustive checking of ostensibly deterministic programs.
//!   [`core::check`] combines them into one verdict.
//! * [`dag`] — computation dags, SP parse trees, performance dags, and
//!   brute-force oracle detectors (used for validation).
//! * [`workloads`] — the six benchmarks from the paper's evaluation.
//! * [`dsu`] — the disjoint-set "bags" substrate.
//!
//! ## Quickstart
//!
//! ```
//! use rader::prelude::*;
//!
//! // A program with a view-read race: it reads the reducer before syncing.
//! let program = |cx: &mut Ctx| {
//!     let sum = OpAdd::register(cx);
//!     sum.update(cx, 1); // update on the main strand
//!     cx.spawn(|cx| sum.update(cx, 10));
//!     let _premature = sum.get(cx); // RACE: spawned child still outstanding
//!     cx.sync();
//!     assert_eq!(sum.get(cx), 11); // deterministic only after the sync
//! };
//!
//! let verdict = check(program, &CoverageOptions::default(), 1, &SweepControl::default())?;
//! assert!(!verdict.clean());
//! assert_eq!(verdict.report.view_read.len(), 1);
//! # Ok::<(), String>(())
//! ```

pub mod cli;
pub mod suite;

pub use rader_cilk as cilk;
pub use rader_core as core;
pub use rader_dag as dag;
pub use rader_dsu as dsu;
pub use rader_reducers as reducers;
pub use rader_rng as rng;
pub use rader_workloads as workloads;

/// Convenience re-exports for writing and checking programs.
pub mod prelude {
    pub use rader_cilk::{Ctx, EmptyTool, Loc, SerialEngine, StealSpec, Tool, Word};
    pub use rader_core::{
        check, coverage, peerset::PeerSet, spbags::SpBags, spplus::SpPlus, CoverageOptions,
        RaceReport, SweepControl, Verdict,
    };
    pub use rader_reducers::{
        BagMonoid, ListMonoid, Max, Min, Monoid, OpAdd, OpMul, OstreamMonoid, RedHandle,
    };
}
