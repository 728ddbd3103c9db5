//! Regression tests pinning the suite's verdict semantics: the suite's
//! old single-schedule SP+ pass (one `StealSpec::Random { seed: 1 }`
//! run) produced *single-schedule* verdicts that could miss
//! schedule-dependent races, and the rewritten pipeline — the parallel
//! Section-7 sweep — may not.
//!
//! The witness program hides its race inside an **interior** reduce
//! operation: the racing write fires only when the reduce combines the
//! singleton views of updates 1 and 2 — the `(1, 2, 3)` operation of
//! Theorem 7. Reduces performed at a sync merge a *suffix* of the
//! block's views into the leftmost view, so no reduces-at-sync schedule
//! (any `Random` seed, any `AtSpawnCount` spec) can ever elicit that
//! operand shape; only a Theorem-7 triple `[Steal(1), Steal(2), Reduce,
//! Steal(3)]` interposes a reduce mid-block with exactly those spans.
//! That makes the old verdict provably, not just flakily, wrong.

use std::sync::Arc;

use rader::core::{coverage, CoverageOptions, PeerSet, SpPlus};
use rader::suite::{self, SuiteOptions};
use rader_cilk::{Ctx, Loc, SerialEngine, StealSpec, ViewMem, ViewMonoid, Word};
use rader_workloads::Workload;

/// A monoid whose views are `[first_update_index, update_count]` and
/// whose reduce writes the shared `cell` only for the interior
/// singleton-singleton operation on updates 1 and 2.
struct InteriorTouchy {
    cell: Loc,
}

impl ViewMonoid for InteriorTouchy {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        let l = m.alloc(2);
        m.write(l, -1); // first = none
        l
    }
    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        let lf = m.read(left);
        let ln = m.read(left.at(1));
        let rf = m.read(right);
        let rn = m.read(right.at(1));
        if lf == 1 && ln == 1 && rn == 1 {
            // The (1, 2, 3) interior reduce op — unreachable from any
            // reduces-at-sync schedule.
            m.write(self.cell, 1);
        }
        if ln == 0 {
            m.write(left, rf);
        }
        m.write(left.at(1), ln + rn);
    }
    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let n = m.read(view.at(1));
        if n == 0 {
            m.write(view, op[0]);
        }
        m.write(view.at(1), n + 1);
    }
    fn name(&self) -> &'static str {
        "interior-touchy"
    }
}

/// Six spawned updates (update index = continuation index) and a
/// parallel user write to the cell the interior reduce touches.
fn interior_race_program(cx: &mut Ctx<'_>) {
    let cell = cx.alloc(1);
    let h = cx.new_reducer(Arc::new(InteriorTouchy { cell }));
    for i in 0..6 as Word {
        cx.spawn(move |cx| {
            if i == 0 {
                cx.write(cell, 7);
            }
            cx.reducer_update(h, &[i]);
        });
    }
    cx.sync();
}

fn interior_workload() -> Workload {
    Workload {
        name: "interior",
        run: Box::new(|cx| interior_race_program(cx)),
    }
}

/// The old suite pipeline, verbatim: one Peer-Set run plus one SP+ run
/// under `Random { seed: 1, steals_per_block: 3 }`. Returns its verdict.
fn old_single_schedule_verdict_clean() -> bool {
    let stats = SerialEngine::new().run(interior_race_program);
    let mut ps = PeerSet::new();
    SerialEngine::new().run_tool(&mut ps, interior_race_program);
    let spec = StealSpec::Random {
        seed: 1,
        max_block: stats.max_sync_block.max(1),
        steals_per_block: 3,
    };
    let mut sp = SpPlus::new();
    SerialEngine::with_spec(spec).run_tool(&mut sp, interior_race_program);
    !ps.report().has_races() && !sp.report().has_races()
}

#[test]
fn old_single_schedule_path_misses_the_interior_race() {
    // The bug being fixed: the pre-sweep suite called this program
    // clean. (Stronger than a lucky seed — see the module docs — but
    // spot-check a few seeds too.)
    assert!(
        old_single_schedule_verdict_clean(),
        "the single-schedule path unexpectedly caught the race; \
         this regression test no longer pins the old bug"
    );
    for seed in [2, 3, 17] {
        let spec = StealSpec::Random {
            seed,
            max_block: 8,
            steals_per_block: 3,
        };
        let mut sp = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut sp, interior_race_program);
        assert!(
            !sp.report().has_races(),
            "seed {seed} elicited the interior reduce; see module docs"
        );
    }
}

#[test]
fn suite_sweep_flags_the_interior_race() {
    // The fix: the suite's verdict now comes from the Section-7 sweep,
    // which includes the [Steal(1), Steal(2), Reduce, Steal(3)] triple.
    let rep = suite::run_suite(&[interior_workload()], &SuiteOptions::default()).unwrap();
    assert!(
        rep.has_races(),
        "suite sweep missed the interior reduce race"
    );
    let v = &rep.workloads[0];
    assert!(!v.clean());
    assert!(v.runs > 1, "sweep must cover the spec families");
}

#[test]
fn parallel_sweep_is_deterministic_across_runs() {
    // Work-queue scheduling hands specs to threads in racy order; the
    // merged result must not depend on it. Two threads=4 sweeps must
    // agree exactly — reports, findings, and counters.
    let opts = CoverageOptions::default();
    let a = coverage::exhaustive_check_parallel(interior_race_program, &opts, 4);
    let b = coverage::exhaustive_check_parallel(interior_race_program, &opts, 4);
    assert_eq!(a.report, b.report);
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.replayed, b.replayed);
    assert_eq!((a.k, a.m), (b.k, b.m));
    assert_eq!(a.spplus_checks, b.spplus_checks);
    // And the rendered report — what the suite prints and serializes —
    // is byte-identical.
    assert_eq!(format!("{}", a.report), format!("{}", b.report));
    // The parallel run agrees with the single-threaded sweep too.
    let serial = coverage::exhaustive_check(interior_race_program, &opts);
    assert_eq!(a.report, serial.report);
    assert_eq!(a.findings, serial.findings);
}

/// Zero the wall-clock fields — the only nondeterministic data in a
/// suite report — so `to_json()` output can be compared byte-for-byte.
fn zero_timings(rep: &mut suite::SuiteReport) {
    for w in &mut rep.workloads {
        w.wall_ns = 0;
        w.record_ns = 0;
        w.sweep_ns = 0;
        w.merge_ns = 0;
    }
}

#[test]
fn suite_json_is_byte_identical_across_threads() {
    // With chunked claiming, the set of claims is a pure function of
    // the spec list — not of which thread won which claim. So the entire
    // JSON report (including the `claims` field) must be byte-identical
    // across thread counts, once timings are zeroed.
    let workloads = [interior_workload()];
    let run = |threads| {
        let opts = SuiteOptions {
            threads,
            ..SuiteOptions::default()
        };
        let mut rep = suite::run_suite(&workloads, &opts).unwrap();
        zero_timings(&mut rep);
        rep.to_json()
    };
    let want = run(1);
    for threads in [2, 4] {
        assert_eq!(
            run(threads),
            want,
            "suite JSON diverged at threads={threads}"
        );
    }
}

#[test]
fn suite_json_reports_the_racy_entry() {
    let rep = suite::run_suite(&[interior_workload()], &SuiteOptions::default()).unwrap();
    let json = rep.to_json();
    suite::validate_json(&json).expect("suite JSON must parse");
    assert!(json.contains("\"name\": \"interior\""));
    assert!(json.contains("\"clean\": false"));
}
