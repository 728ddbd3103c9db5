#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rader-cilk
//!
//! A Cilk-style dynamic-multithreading substrate for the Rader race
//! detector (Lee & Schardl, SPAA'15).
//!
//! The crate provides:
//!
//! * **A serial engine** ([`SerialEngine`], [`Ctx`]) that executes fork-join
//!   programs in Cilk serial (depth-first) order while emitting the
//!   instrumentation stream ([`Tool`]) the detection algorithms consume:
//!   frame entry/exit, syncs, memory accesses (tagged view-oblivious or
//!   view-aware), reducer-reads, and — under a [`StealSpec`] — simulated
//!   steals and reduce executions.
//! * **Reducer view management** implementing the paper's view invariants:
//!   a fresh view per stolen continuation (materialized lazily on first
//!   update), adjacent views reduced with the dominated view destroyed, and
//!   all of a sync block's parallel views reduced before its sync strand.
//!   Monoids plug in through the untyped [`ViewMonoid`] trait; views live in
//!   the same instrumented arena as user data, so races *inside* view
//!   management are observable.
//! * **A synthetic program generator** ([`synth`]) producing random
//!   fork-join programs for property tests and the Section-7 coverage
//!   experiments.

pub mod engine;
pub mod events;
pub mod mem;
pub mod monoid;
pub mod replay;
pub mod spec;
pub mod synth;

pub use engine::{Ctx, RunStats, SerialEngine};
pub use events::{
    AccessKind, CountingTool, EmptyTool, EnterKind, FrameId, ReducerId, ReducerReadKind, StrandId,
    Tool,
};
pub use mem::{Loc, MemArena, Word};
pub use monoid::{ViewMem, ViewMonoid};
pub use replay::{ProgramTrace, ReplayCheckpoint, ReplayError};
pub use spec::{BlockOp, BlockScript, StealSpec};

pub use rader_dsu::ViewId;
