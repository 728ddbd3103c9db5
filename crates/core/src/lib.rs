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
//! ostensibly deterministic program, and the
//! [`coverage::exhaustive_check_parallel_ctl`] driver that sweeps them.
//!
//! [`check`] is the verdict: Peer-Set on the serial run, the sweep, their
//! merged report, and a minimized reproducer of the first finding.
//!
//! ```
//! use rader_cilk::Ctx;
//! use rader_cilk::synth::SynthAdd;
//! use rader_core::{check, CoverageOptions, SweepControl};
//! use std::sync::Arc;
//!
//! // A view-read race: the reducer is read before the sync.
//! let program = |cx: &mut Ctx<'_>| {
//!     let h = cx.new_reducer(Arc::new(SynthAdd));
//!     cx.spawn(move |cx| cx.reducer_update(h, &[1]));
//!     let _ = cx.reducer_get_view(h); // racy read
//!     cx.sync();
//! };
//! let verdict = check(program, &CoverageOptions::default(), 1, &SweepControl::default())?;
//! assert_eq!(verdict.report.view_read.len(), 1);
//! assert!(!verdict.clean());
//! # Ok::<(), String>(())
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
    exhaustive_check_parallel_ctl, minimize_spec, CoverageOptions, ExhaustiveReport, Quarantined,
    SweepControl, SweepTiming,
};
pub use fault::FaultPlan;
pub use journal::{CheckpointPolicy, SCHEMA_VERSION};
pub use peerset::PeerSet;
pub use report::{AccessInfo, DeterminacyRace, RaceReport, ViewReadRace};
pub use spbags::SpBags;
pub use spplus::SpPlus;

use rader_cilk::{Ctx, RunStats, SerialEngine, StealSpec};

/// What [`check`] concludes about a program.
#[derive(Debug)]
pub struct Verdict {
    /// Merged Peer-Set + sweep race report.
    pub report: RaceReport,
    /// Statistics of the Peer-Set run: one serial run, no steals.
    pub stats: RunStats,
    /// Peer-Set membership checks performed.
    pub peer_set_checks: u64,
    /// ddmin-minimized reproducer of the sweep's first finding (`None`
    /// when the sweep found no race). Deterministic: the findings are in
    /// spec order and the minimizer is greedy.
    pub minimized: Option<StealSpec>,
    /// The Section-7 sweep: its runs, claims, `K` and `M`, SP+ checks,
    /// partial coverage, quarantine and per-phase timing.
    pub sweep: ExhaustiveReport,
}

impl Verdict {
    /// Distinct races of either kind in the merged report.
    pub fn races(&self) -> usize {
        self.report.determinacy.len() + self.report.view_read.len()
    }

    /// `true` when no race of either kind was found.
    pub fn clean(&self) -> bool {
        self.races() == 0
    }
}

/// Check `program` for races on every schedule that matters: Peer-Set on
/// the serial run (exact for view-read races, Theorem 4; the run doubles
/// as the statistics pass), then the Section-7 SP+ sweep
/// ([`exhaustive_check_parallel_ctl`], exact for determinacy races
/// across the swept schedules, Theorems 6–7), then merge the two reports
/// and minimize the first finding ([`minimize_spec`]).
///
/// The arguments are the sweep's. "Clean" holds for ostensibly
/// deterministic programs (view-oblivious instructions fixed across
/// schedules, associative reduces), capped by
/// [`CoverageOptions::max_k`] / [`CoverageOptions::max_spawn_count`] when
/// given and weakened by a partial or quarantined sweep. `Err` comes only
/// from the checkpoint journal, as for the sweep.
pub fn check(
    program: impl Fn(&mut Ctx<'_>) + Sync,
    opts: &CoverageOptions,
    threads: usize,
    ctl: &SweepControl,
) -> Result<Verdict, String> {
    let mut peers = PeerSet::new();
    let stats = SerialEngine::new().run_tool(&mut peers, &program);
    let sweep = exhaustive_check_parallel_ctl(&program, opts, threads, ctl)?;
    let peer_set_checks = peers.checks;
    let mut report = peers.into_report();
    report.merge(&sweep.report);
    let minimized = (sweep.findings.first()).map(|(spec, _)| minimize_spec(&program, spec));
    Ok(Verdict {
        report,
        stats,
        peer_set_checks,
        minimized,
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::synth::{gen_program, run_synth, GenConfig};
    use rader_workloads::{fig1, suite, Scale};

    /// `check` is exactly its parts: a Peer-Set run merged with the sweep,
    /// and `minimize_spec` of the sweep's first finding. Returns whether
    /// there was a finding to minimize.
    fn check_equals_its_parts(label: &str, program: impl Fn(&mut Ctx<'_>) + Sync) -> bool {
        let (opts, ctl) = (CoverageOptions::default(), SweepControl::default());
        let v = check(&program, &opts, 2, &ctl).unwrap();
        let mut peers = PeerSet::new();
        let stats = SerialEngine::new().run_tool(&mut peers, &program);
        let sweep = exhaustive_check_parallel_ctl(&program, &opts, 1, &ctl).unwrap();
        let mut report = peers.report().clone();
        report.merge(&sweep.report);
        assert_eq!(v.report, report, "{label}");
        assert_eq!(format!("{}", v.report), format!("{report}"), "{label}");
        assert_eq!(v.stats, stats, "{label}");
        assert_eq!(v.peer_set_checks, peers.checks, "{label}");
        assert_eq!(v.sweep.findings, sweep.findings, "{label}");
        let minimized = (sweep.findings.first()).map(|(spec, _)| minimize_spec(&program, spec));
        assert_eq!(v.minimized, minimized, "{label}");
        assert_eq!(v.clean(), !report.has_races(), "{label}");
        minimized.is_some()
    }

    #[test]
    fn check_equals_peer_set_merged_with_the_sweep() {
        let corpora = [
            ("plain", GenConfig::default()),
            (
                "aliasing",
                GenConfig {
                    view_aliasing: true,
                    reducer_reads: false,
                    ..GenConfig::default()
                },
            ),
        ];
        let mut minimized = 0;
        for (corpus, cfg) in &corpora {
            for seed in 0..40u64 {
                let prog = gen_program(seed, cfg);
                let program = |cx: &mut Ctx<'_>| {
                    run_synth(cx, &prog);
                };
                let label = format!("{corpus} seed {seed}");
                minimized += check_equals_its_parts(&label, program) as usize;
            }
        }
        let mut paper = suite(Scale::Small);
        paper.push(fig1::workload_racy(Scale::Small));
        for w in &paper {
            let found = check_equals_its_parts(w.name, &w.run);
            assert_eq!(found, w.name == "fig1-racy", "{}", w.name);
        }
        assert!(minimized > 0, "no synth program had a finding to minimize");
    }
}
