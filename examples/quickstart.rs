//! Quickstart: write a Cilk-style program, run it, and check it for both
//! kinds of reducer races.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rader::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. A correct program: parallel sum through an opadd reducer.
    // ------------------------------------------------------------------
    let mut total = 0;
    let stats = SerialEngine::new().run(|cx| {
        let sum = OpAdd::register(cx);
        for i in 1..=100 {
            cx.spawn(move |cx| sum.add(cx, i));
        }
        cx.sync();
        total = sum.get(cx);
    });
    println!("sum 1..=100 = {total}");
    println!(
        "  ({} frames, {} strands, {} updates)",
        stats.frames, stats.strands, stats.updates
    );
    assert_eq!(total, 5050);

    // `check` is the verdict: Peer-Set on the serial run for view-read
    // races, then SP+ under every steal specification of the Section-7
    // sweep for determinacy races. No schedule is picked by hand.
    let (opts, ctl) = (CoverageOptions::default(), SweepControl::default());
    let verdict = check(correct_program, &opts, 1, &ctl).expect("no journal is configured");
    println!(
        "\ncheck on the correct program: {} SP+ runs (K = {}, M = {}): {}",
        verdict.sweep.runs, verdict.sweep.k, verdict.sweep.m, verdict.report
    );
    assert!(verdict.clean());

    // ------------------------------------------------------------------
    // 2. A buggy program: reads the reducer while a spawn is outstanding.
    // ------------------------------------------------------------------
    let premature_read = |cx: &mut Ctx<'_>| {
        let sum = OpAdd::register(cx);
        cx.spawn(move |cx| sum.add(cx, 10));
        let premature = sum.get(cx); // schedule-dependent value!
        cx.sync();
        let _ = premature;
    };
    let verdict = check(premature_read, &opts, 1, &ctl).expect("no journal is configured");
    println!("check on the premature-read program:\n{}", verdict.report);
    assert_eq!(verdict.report.view_read.len(), 1);

    // ------------------------------------------------------------------
    // 3. A determinacy race: two logically parallel writes.
    // ------------------------------------------------------------------
    let parallel_writes = |cx: &mut Ctx<'_>| {
        let cell = cx.alloc(1);
        cx.spawn(move |cx| cx.write(cell, 1));
        cx.write(cell, 2); // races with the spawned write
        cx.sync();
    };
    let verdict = check(parallel_writes, &opts, 1, &ctl).expect("no journal is configured");
    println!("check on the parallel-writes program:\n{}", verdict.report);
    assert_eq!(verdict.report.determinacy.len(), 1);
    // Every swept specification that exposed it reproduces it alone.
    println!(
        "exposed by {} of {} specifications",
        verdict.sweep.findings.len(),
        verdict.sweep.runs
    );

    println!("quickstart OK");
}

fn correct_program(cx: &mut Ctx<'_>) {
    let sum = OpAdd::register(cx);
    for i in 1..=20 {
        cx.spawn(move |cx| sum.add(cx, i));
    }
    cx.sync();
    assert_eq!(sum.get(cx), 210);
}
