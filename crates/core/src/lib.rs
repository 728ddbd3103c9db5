#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rader-core
//!
//! **Rader**: race detection for Cilk-style programs that use reducer
//! hyperobjects — a Rust reproduction of Lee & Schardl, *"Efficiently
//! Detecting Races in Cilk Programs That Use Reducer Hyperobjects"*
//! (SPAA 2015).
//!
//! Three detectors, all serial `Tool`s over the `rader-cilk` engine:
//!
//! * [`peerset::PeerSet`] — the **Peer-Set algorithm** (Fig. 3): detects
//!   *view-read races* (reducer-reads at strands with different peer
//!   sets) in `O(T α(x, x))` time.
//! * [`spbags::SpBags`] — the **SP-bags baseline** (Feng & Leiserson):
//!   determinacy races without reducer awareness.
//! * [`spplus::SpPlus`] — the **SP+ algorithm** (Fig. 6): determinacy
//!   races including those involving view-aware strands, under a steal
//!   specification, in `O((T + Mτ) α(v, v))` time.
//!
//! Plus the Section-7 [`coverage`] machinery: Θ(M) + Θ(K³) steal
//! specifications that elicit every possible view-aware strand of an
//! ostensibly deterministic program, and an [`coverage::exhaustive_check`]
//! driver that sweeps them.
//!
//! The [`Rader`] facade bundles the common flows:
//!
//! ```
//! use rader_cilk::Ctx;
//! use rader_cilk::synth::SynthAdd;
//! use rader_core::Rader;
//! use std::sync::Arc;
//!
//! // A view-read race: the reducer is read before the sync.
//! let program = |cx: &mut Ctx<'_>| {
//!     let h = cx.new_reducer(Arc::new(SynthAdd));
//!     cx.spawn(move |cx| cx.reducer_update(h, &[1]));
//!     let _ = cx.reducer_get_view(h); // racy read
//!     cx.sync();
//! };
//! let report = Rader::new().check_view_read(program);
//! assert!(report.has_races());
//! ```

pub mod coverage;
pub mod fault;
pub mod journal;
pub mod peerset;
pub mod report;
pub mod shadow;
pub mod spbags;
pub mod spplus;

pub use coverage::{
    exhaustive_check, exhaustive_check_parallel, exhaustive_check_parallel_ctl, minimize_spec,
    CoverageOptions, ExhaustiveReport, Quarantined, SweepControl, SweepTiming,
};
pub use fault::FaultPlan;
pub use journal::{CheckpointPolicy, SCHEMA_VERSION};
pub use peerset::PeerSet;
pub use report::{AccessInfo, DeterminacyRace, RaceReport, ViewReadRace};
pub use spbags::SpBags;
pub use spplus::SpPlus;

use rader_cilk::{Ctx, RunStats, SerialEngine, StealSpec};

/// High-level entry point bundling the detectors.
#[derive(Clone, Debug, Default)]
pub struct Rader {
    _priv: (),
}

impl Rader {
    /// Create a Rader instance.
    pub fn new() -> Self {
        Rader { _priv: () }
    }

    /// Run the Peer-Set algorithm: serial execution, no steals, view-read
    /// race detection.
    pub fn check_view_read(&self, program: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = PeerSet::new();
        SerialEngine::new().run_tool(&mut tool, program);
        tool.into_report()
    }

    /// Run the SP+ algorithm under the given steal specification.
    pub fn check_determinacy(
        &self,
        spec: StealSpec,
        program: impl FnOnce(&mut Ctx<'_>),
    ) -> RaceReport {
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut tool, program);
        tool.into_report()
    }

    /// Run the SP-bags baseline (no reducer awareness, no steals).
    pub fn check_determinacy_spbags(&self, program: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = SpBags::new();
        SerialEngine::new().run_tool(&mut tool, program);
        tool.into_report()
    }

    /// Run both Peer-Set and SP+ (under `spec`), returning the merged
    /// report.
    pub fn check_all(&self, spec: StealSpec, program: impl Fn(&mut Ctx<'_>)) -> RaceReport {
        let mut report = self.check_view_read(&program);
        let det = self.check_determinacy(spec, &program);
        report.merge(&det);
        report
    }

    /// Exhaustive SP+ sweep per Section 7 (see
    /// [`coverage::exhaustive_check`]).
    pub fn check_exhaustive(
        &self,
        program: impl Fn(&mut Ctx<'_>) + Sync,
        opts: &CoverageOptions,
    ) -> ExhaustiveReport {
        coverage::exhaustive_check(program, opts)
    }

    /// Run the program uninstrumented and return engine statistics
    /// (baseline for overhead measurements).
    pub fn baseline(&self, spec: StealSpec, program: impl FnOnce(&mut Ctx<'_>)) -> RunStats {
        SerialEngine::with_spec(spec).run(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::synth::SynthAdd;
    use std::sync::Arc;

    #[test]
    fn facade_check_all_merges_both_kinds() {
        let program = |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.write(a, 2); // determinacy race
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            let _ = cx.reducer_get_view(h); // view-read race
            cx.sync();
        };
        let report = Rader::new().check_all(StealSpec::None, program);
        assert_eq!(report.determinacy.len(), 1);
        assert_eq!(report.view_read.len(), 1);
    }

    #[test]
    fn facade_baseline_returns_stats() {
        let stats = Rader::new().baseline(StealSpec::None, |cx| {
            cx.spawn(|_| {});
            cx.sync();
        });
        assert_eq!(stats.frames, 2);
    }
}
