//! Cross-crate integration tests: the full benchmark suite through every
//! detector configuration, the paper's running examples, and the public
//! API surface.

use rader::core::{coverage, CoverageOptions, PeerSet, Rader, SpPlus};
use rader::prelude::*;
use rader::workloads::{self, fig1, Scale};
use rader_cilk::BlockScript;

/// Every benchmark in the suite validates its result (each workload
/// asserts against its serial reference internally) and is clean under
/// both detectors and several steal specifications.
#[test]
fn suite_is_correct_and_race_free_under_all_configs() {
    for w in workloads::suite(Scale::Small) {
        // Uninstrumented run (the workload self-validates).
        SerialEngine::new().run(|cx| (w.run)(cx));

        // Peer-Set.
        let mut peerset = PeerSet::new();
        SerialEngine::new().run_tool(&mut peerset, |cx| (w.run)(cx));
        assert!(
            !peerset.report().has_races(),
            "{}: {}",
            w.name,
            peerset.report()
        );

        // SP+ under the paper's three configurations.
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3])),
            StealSpec::Random {
                seed: 0xbe9c4,
                max_block: 8,
                steals_per_block: 3,
            },
            StealSpec::AtSpawnCount(2),
        ] {
            let mut spplus = SpPlus::new();
            SerialEngine::with_spec(spec.clone()).run_tool(&mut spplus, |cx| (w.run)(cx));
            assert!(
                !spplus.report().has_races(),
                "{} under {:?}: {}",
                w.name,
                spec,
                spplus.report()
            );
        }
    }
}

/// Workload results are identical across steal specifications (the
/// engine-level reducer determinism contract, at suite scale).
#[test]
fn suite_results_are_schedule_invariant() {
    for w in workloads::suite(Scale::Small) {
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::Random {
                seed: 7,
                max_block: 4,
                steals_per_block: 2,
            },
        ] {
            // The workload closures assert their expected outputs, so a
            // schedule-dependent result panics here.
            SerialEngine::with_spec(spec).run(|cx| (w.run)(cx));
        }
    }
}

#[test]
fn figure1_buggy_and_fixed_end_to_end() {
    // Buggy: caught by the sweep; Fixed: clean under the same sweep.
    let sweep = coverage::exhaustive_check(
        |cx| {
            fig1::race_program(cx, 10);
        },
        &CoverageOptions::default(),
    );
    assert!(sweep.report.has_races());
    let sweep = coverage::exhaustive_check(
        |cx| {
            fig1::race_program_fixed(cx, 10);
        },
        &CoverageOptions::default(),
    );
    assert!(!sweep.report.has_races(), "{}", sweep.report);
}

#[test]
fn racy_knapsack_heuristic_flagged_only_by_peerset() {
    use rader::workloads::knapsack;
    let inst = knapsack::gen_instance(8, 5);
    let rader = Rader::new();
    let vr = rader.check_view_read(|cx| {
        knapsack::knapsack_racy_program(cx, &inst);
    });
    assert_eq!(vr.view_read.len(), 1);
    // The mid-computation get reads the view cell that parallel updates
    // write — SP+ additionally sees a determinacy race on the view cell.
    let det = rader.check_determinacy(StealSpec::None, |cx| {
        knapsack::knapsack_racy_program(cx, &inst);
    });
    assert!(det.view_read.is_empty());
}

#[test]
fn prelude_surface_works() {
    // Exercise the re-exported API exactly as the README shows it.
    let mut collected = Vec::new();
    SerialEngine::new().run(|cx| {
        let list = ListMonoid::register(cx);
        let best = Max::register(cx);
        let lo = Min::register(cx);
        cx.par_for(0..10, 2, &mut |cx, i| {
            list.push_back(cx, i as Word);
            best.update(cx, i as Word);
            lo.update(cx, i as Word);
        });
        cx.sync();
        collected = list.to_vec(cx);
        assert_eq!(best.get(cx), 9);
        assert_eq!(lo.get(cx), 0);
    });
    assert_eq!(collected, (0..10).collect::<Vec<Word>>());
}

#[test]
fn pbfs_replay_is_report_identical_not_stream_identical() {
    // DESIGN.md §5b: pbfs walks its bag view after each sync, and the
    // bag's pennant structure depends on the reduce tree the steal
    // schedule built — so a fresh run under a spec performs slightly
    // different numbers of oblivious reads than the recorded no-steal
    // walk. The replay contract for such view-derived post-sync scans
    // is *report*-identity, not stream-identity: race reports (and
    // findings) must agree byte for byte even where check counts drift.
    use rader::workloads::pbfs;
    let g = pbfs::gen_graph(64, 4, 7);
    let program = |cx: &mut Ctx<'_>| {
        pbfs::pbfs_program(cx, &g, 0);
    };
    let opts = |replay| CoverageOptions {
        replay,
        ..CoverageOptions::default()
    };
    let replayed = coverage::exhaustive_check(program, &opts(true));
    let fresh = coverage::exhaustive_check(program, &opts(false));
    assert_eq!(replayed.runs, fresh.runs);
    assert!(replayed.replayed > 0, "replay fast path never engaged");
    assert_eq!(fresh.replayed, 0);
    assert_eq!(replayed.report, fresh.report, "reports must agree");
    assert_eq!(replayed.findings, fresh.findings);
    assert!(!replayed.report.has_races(), "pbfs is race-free");
    // The drift this test tolerates (and documents): the view-derived
    // scan makes sp+ check counts schedule-shape-dependent, within ±1%.
    // Replays skip the checks of the accesses the pruned trace dropped
    // (DESIGN.md §5h), so those count back in.
    assert!(replayed.pruned > 0, "pbfs's pruned trace dropped nothing");
    let a = (replayed.spplus_checks + replayed.pruned) as f64;
    let b = fresh.spplus_checks as f64;
    assert!(
        (a - b).abs() / b < 0.01,
        "check-count drift exceeded the documented ±1% bound: \
         replay {a} (with pruned checks) vs fresh {b}"
    );
}

#[test]
fn detectors_compose_with_every_builtin_monoid() {
    // One program touching every builtin reducer; clean everywhere.
    let program = |cx: &mut Ctx<'_>| {
        let add = OpAdd::register(cx);
        let mul = OpMul::register(cx);
        let bag = BagMonoid::register(cx);
        let out = OstreamMonoid::register(cx);
        let list = ListMonoid::register(cx);
        for i in 1..=8 {
            cx.spawn(move |cx| {
                add.add(cx, i);
                mul.update(cx, if i % 3 == 0 { 2 } else { 1 });
                bag.insert(cx, i);
                out.emit(cx, &[i, i * i]);
                list.push_back(cx, i);
            });
        }
        cx.sync();
        assert_eq!(add.get(cx), 36);
        assert_eq!(mul.get(cx), 4);
        assert_eq!(bag.count(cx), 8);
        assert_eq!(out.records(cx), 8);
        assert_eq!(list.to_vec(cx), (1..=8).collect::<Vec<Word>>());
    };
    let rader = Rader::new();
    assert!(!rader.check_view_read(program).has_races());
    for spec in [
        StealSpec::EveryBlock(BlockScript::steals(vec![2, 5])),
        StealSpec::Random {
            seed: 1,
            max_block: 8,
            steals_per_block: 3,
        },
    ] {
        let r = rader.check_determinacy(spec.clone(), program);
        assert!(!r.has_races(), "under {spec:?}: {r}");
    }
}
