//! The paper's Figure 1, end to end: the shallow-copy list bug whose
//! determinacy race hides inside a `Reduce` operation.
//!
//! ```sh
//! cargo run --release --example fig1_list_race
//! ```
//!
//! Demonstrates:
//! 1. the buggy program is clean on the no-steal schedule (why Cilk
//!    Screen-style single-schedule checking misses it);
//! 2. a steal specification that makes the race bite, with the racing
//!    access attributed to a `Reduce` strand;
//! 3. `check` (Peer-Set plus the Section-7 sweep) finding it with no
//!    hand-picked specification, and minimizing a reproducer;
//! 4. the deep-copy fix coming back clean under the same verdict.

use rader::core::{check, CoverageOptions, RaceReport, SpPlus, SweepControl, Verdict};
use rader::workloads::fig1;
use rader_cilk::{BlockScript, Ctx, SerialEngine, StealSpec};

/// SP+ on the one schedule `spec`: what a single-schedule checker sees.
fn sp_plus(spec: StealSpec, program: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
    let mut tool = SpPlus::new();
    SerialEngine::with_spec(spec).run_tool(&mut tool, program);
    tool.into_report()
}

/// The verdict on every schedule that matters.
fn verdict(program: impl Fn(&mut Ctx<'_>) + Sync) -> Verdict {
    let (opts, ctl) = (CoverageOptions::default(), SweepControl::default());
    check(program, &opts, 1, &ctl).expect("no journal is configured")
}

fn main() {
    println!("=== Figure 1: the shallow-copy list race ===\n");

    // 1. Single no-steal schedule: nothing to see.
    let report = sp_plus(StealSpec::None, |cx| {
        fig1::race_program(cx, 16);
    });
    println!("SP+ with no steals (the serial schedule):\n{report}");
    assert!(!report.has_races());

    // 2. Steal the scanner's continuation: the scan now overlaps
    //    update_list, and the final Reduce splices onto the shared tail.
    let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
    let report = sp_plus(spec, |cx| {
        fig1::race_program(cx, 16);
    });
    println!("SP+ stealing continuation 1 of every sync block:\n{report}");
    assert!(report.has_races());
    let reduce_involved = report.determinacy.iter().any(|r| {
        r.current.kind == rader_cilk::AccessKind::Reduce
            || r.prior.kind == rader_cilk::AccessKind::Reduce
    });
    println!("race involves a Reduce strand: {reduce_involved}\n");

    // 3. No hand-picked spec: Peer-Set plus the Theorem-6/7 sweep.
    let v = verdict(|cx| {
        fig1::race_program(cx, 12);
    });
    println!(
        "check: {} SP+ runs (K = {}, M = {}), minimized reproducer {:?}:\n{}",
        v.sweep.runs, v.sweep.k, v.sweep.m, v.minimized, v.report
    );
    assert!(!v.clean());

    // 4. The fix: a deep copy. Clean under the same verdict.
    let v = verdict(|cx| {
        fig1::race_program_fixed(cx, 12);
    });
    println!(
        "deep-copy fix under the same verdict ({} runs): {}",
        v.sweep.runs, v.report
    );
    assert!(v.clean());

    // Bonus: the view-read-race variant from Section 2.
    let v = verdict(|cx| {
        fig1::update_list_premature_get(cx, 8);
    });
    println!(
        "check on update_list with a premature get_value:\n{}",
        v.report
    );
    assert_eq!(v.report.view_read.len(), 1);

    println!("fig1_list_race OK");
}
