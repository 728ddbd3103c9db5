#![forbid(unsafe_code)]
//! The Section-7 coverage experiments (Theorems 6 and 7).
//!
//! ```sh
//! cargo run -p rader-bench --release --bin coverage
//! ```
//!
//! * **Theorem 7**: on a flat sync block of K spawned updates, the
//!   `(a, b, c)` specification family elicits every interior reduce
//!   operation; the count of distinct elicited operations grows as
//!   Θ(K³), matching the paper's Ω(K³) lower bound on reduce trees.
//! * **Theorem 6**: for nested-spawn programs with block size K and
//!   depth D, the spawn-count family has exactly M = K·(D+1) members
//!   and elicits an update strand at every P-depth.
//! * End to end: the exhaustive sweep finds the Figure-1 race with no
//!   hand-picked specification and passes the fixed program.

use rader_cilk::synth::{nested_spawns, run_synth};
use rader_cilk::{Ctx, SerialEngine, StealSpec};
use rader_core::coverage::{
    count_elicited_reduce_ops, reduce_coverage_specs, update_coverage_specs,
};
use rader_core::{coverage, CoverageOptions, SpPlus};
use rader_workloads::{dedup, fig1};

fn main() {
    println!("=== Theorem 7: reduce-operation coverage ===");
    println!(
        "{:>4} {:>8} {:>14} {:>10} {:>12}",
        "K", "specs", "elicited ops", "C(K,3)", "ops/C(K,3)"
    );
    for k in [3u32, 4, 5, 6, 8, 10, 12] {
        let specs = reduce_coverage_specs(k);
        let (distinct, nspecs) = count_elicited_reduce_ops(k, &specs);
        let c3 = (k as usize) * (k as usize - 1) * (k as usize - 2) / 6;
        println!(
            "{k:>4} {nspecs:>8} {distinct:>14} {c3:>10} {:>12.2}",
            distinct as f64 / c3.max(1) as f64
        );
    }
    println!("(cubic growth of both columns = the Θ(K³) of Theorem 7)");

    println!("\n=== Theorem 6: update-strand coverage ===");
    println!(
        "{:>4} {:>4} {:>6} {:>8} {:>16}",
        "K", "D", "M", "specs", "steals elicited"
    );
    for (k, d) in [(2u32, 1u32), (2, 2), (3, 2), (3, 3), (4, 3)] {
        let prog = nested_spawns(k, d);
        let stats = SerialEngine::new().run(|cx| {
            run_synth(cx, &prog);
        });
        let m = stats.max_spawn_count;
        let specs = update_coverage_specs(m);
        // Each spec steals all continuations at one spawn count; count
        // total elicited steals across the family.
        let mut total_steals = 0;
        for spec in &specs {
            let mut tool = SpPlus::new();
            SerialEngine::with_spec(spec.clone()).run_tool(&mut tool, |cx| {
                run_synth(cx, &prog);
            });
            assert!(!tool.report().has_races());
            total_steals += tool.steals;
        }
        println!("{k:>4} {d:>4} {m:>6} {:>8} {total_steals:>16}", specs.len());
        assert_eq!(m, k * (d + 1), "M should equal K·(D+1) for this family");
    }

    println!("\n=== Exhaustive checking, end to end (Figure 1) ===");
    let buggy = coverage::exhaustive_check(
        |cx| {
            fig1::race_program(cx, 12);
        },
        &CoverageOptions::default(),
    );
    println!(
        "buggy program: {} SP+ runs ({} replayed from trace; K = {}, M = {}) → races: {}",
        buggy.runs,
        buggy.replayed,
        buggy.k,
        buggy.m,
        buggy.report.has_races()
    );
    assert!(buggy.report.has_races());
    let fixed = coverage::exhaustive_check(
        |cx| {
            fig1::race_program_fixed(cx, 12);
        },
        &CoverageOptions::default(),
    );
    println!(
        "fixed program: {} SP+ runs → races: {}",
        fixed.runs,
        fixed.report.has_races()
    );
    assert!(!fixed.report.has_races());

    // Single-schedule blindness, quantified: how many of the coverage
    // specs actually expose the Figure-1 race?
    let stats = SerialEngine::new().run(|cx| {
        fig1::race_program(cx, 12);
    });
    let mut exposing = 0usize;
    let mut total = 0usize;
    let mut specs = vec![StealSpec::None];
    specs.extend(update_coverage_specs(stats.max_spawn_count));
    specs.extend(reduce_coverage_specs(stats.max_sync_block));
    for spec in specs {
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut tool, |cx| {
            fig1::race_program(cx, 12);
        });
        total += 1;
        if tool.report().has_races() {
            exposing += 1;
        }
    }
    println!(
        "{exposing} of {total} specifications expose the Figure-1 race \
         (single-schedule checking is a lottery; the sweep is not)"
    );
    assert!(exposing > 0 && exposing < total);

    // The cost side of the sweep: record-once/replay-many vs honestly
    // re-executing the user program for every specification. Both modes
    // run the same specs and must find the same races; replay skips the
    // user computation between accesses.
    println!("\n=== Sweep cost: trace replay vs re-execution (dedup) ===");
    let stream = dedup::gen_stream(96, 11);
    let program = |cx: &mut Ctx<'_>| {
        dedup::dedup_program(cx, &stream);
    };
    let time_sweep = |replay: bool| {
        let opts = CoverageOptions {
            replay,
            ..CoverageOptions::default()
        };
        let t = std::time::Instant::now();
        let rep = coverage::exhaustive_check(program, &opts);
        (t.elapsed(), rep)
    };
    let mut best_replay = std::time::Duration::MAX;
    let mut best_rerun = std::time::Duration::MAX;
    for _ in 0..5 {
        let (dt, rep) = time_sweep(true);
        assert_eq!(rep.replayed, rep.runs);
        best_replay = best_replay.min(dt);
        let (dt, rep) = time_sweep(false);
        assert_eq!(rep.replayed, 0);
        best_rerun = best_rerun.min(dt);
    }
    println!(
        "replay:      {best_replay:>10.1?}\nre-execute:  {best_rerun:>10.1?}\n\
         speedup:     {:.3}x",
        best_rerun.as_secs_f64() / best_replay.as_secs_f64()
    );
}
