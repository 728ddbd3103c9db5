#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rader-dag
//!
//! Computation-dag machinery and brute-force *oracles* for validating the
//! Rader detection algorithms.
//!
//! The paper proves the Peer-Set and SP+ algorithms exact (Theorem 4,
//! Section 6). This reproduction *checks* that exactness empirically: every
//! detector verdict is compared, on thousands of random programs, against
//! an independent implementation of the race definitions built from first
//! principles:
//!
//! * [`trace::TraceRecorder`] captures the full instrumentation stream of a
//!   serial run (with or without simulated steals);
//! * [`hb::HbGraph`] replays the stream into an explicit happens-before
//!   relation (dense bitset closure over strands) plus the view timeline
//!   (epoch-merge history), following the paper's performance-dag
//!   semantics — including the subtle rules for reduce strands;
//! * [`oracle`] evaluates the paper's race definitions literally:
//!   a determinacy race is a pair of accesses to one location, one a
//!   write, logically parallel, and — when the later access is view-aware
//!   — on parallel views (Section 5); a view-read race is a pair of
//!   reducer-reads with different peer sets (Section 3);
//! * [`sptree`] builds the canonical SP parse tree of a no-steal run and
//!   decides peer-set equality by the all-S-path criterion of the paper's
//!   Lemma 2 — a third, independent implementation used to cross-check
//!   the peer-set semantics.

pub mod bitset;
pub mod dot;
pub mod hb;
pub mod oracle;
pub mod sptree;
pub mod trace;

pub use hb::HbGraph;
pub use oracle::{oracle_determinacy_races, oracle_view_read_races};
pub use sptree::SpParseTree;
pub use trace::{Ev, TraceRecorder};
