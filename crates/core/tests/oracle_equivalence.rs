//! Exactness of the detectors, checked against brute-force oracles.
//!
//! The paper proves Peer-Set exact (Theorem 4) and SP+ exact for a fixed
//! steal specification (Section 6). These tests verify both claims
//! empirically: on thousands of random programs (and random steal
//! specifications), the detector verdicts must coincide with the
//! `rader-dag` oracles, which implement the race *definitions* directly
//! over an explicit happens-before relation.

use rader_cilk::synth::{gen_program, run_synth, GenConfig, SynthProgram};
use rader_cilk::{BlockScript, Ctx, SerialEngine, StealSpec};
use rader_core::{PeerSet, SpBags, SpPlus};
use rader_dag::{oracle_determinacy_races, oracle_view_read_races, TraceRecorder};

fn run_program(spec: &StealSpec, prog: &SynthProgram) -> Vec<rader_dag::Ev> {
    let mut rec = TraceRecorder::new();
    SerialEngine::with_spec(spec.clone()).run_tool(&mut rec, |cx| {
        run_synth(cx, prog);
    });
    rec.events
}

fn spplus_racy_locs(
    spec: &StealSpec,
    prog: &SynthProgram,
) -> std::collections::BTreeSet<rader_cilk::Loc> {
    let mut tool = SpPlus::new();
    SerialEngine::with_spec(spec.clone()).run_tool(&mut tool, |cx| {
        run_synth(cx, prog);
    });
    tool.report().racy_locs()
}

fn peerset_racy_reducers(prog: &SynthProgram) -> std::collections::BTreeSet<rader_cilk::ReducerId> {
    let mut tool = PeerSet::new();
    SerialEngine::new().run_tool(&mut tool, |cx| {
        run_synth(cx, prog);
    });
    tool.report().racy_reducers()
}

fn spec_for(seed: u64, i: u64) -> StealSpec {
    match i % 5 {
        0 => StealSpec::None,
        1 => StealSpec::EveryBlock(BlockScript::steals(vec![1])),
        2 => StealSpec::EveryBlock(BlockScript::new(vec![
            rader_cilk::BlockOp::Steal(1),
            rader_cilk::BlockOp::Steal(2),
            rader_cilk::BlockOp::Reduce,
            rader_cilk::BlockOp::Steal(3),
        ])),
        3 => StealSpec::AtSpawnCount(1 + (seed % 3) as u32),
        _ => StealSpec::Random {
            seed: seed ^ 0x5eed,
            max_block: 5,
            steals_per_block: 2,
        },
    }
}

/// SP+ racy-location set == oracle racy-location set, per schedule.
fn check_spplus_matches_oracle(seed: u64, cfg: &GenConfig) {
    let prog = gen_program(seed, cfg);
    for i in 0..5 {
        let spec = spec_for(seed, i);
        let events = run_program(&spec, &prog);
        let oracle = oracle_determinacy_races(&events);
        let detected = spplus_racy_locs(&spec, &prog);
        assert_eq!(
            detected, oracle,
            "SP+ vs oracle mismatch: seed {seed}, spec {spec:?}\nprogram: {:?}",
            prog.body
        );
    }
}

/// Peer-Set racy-reducer set == oracle racy-reducer set (no steals).
fn check_peerset_matches_oracle(seed: u64, cfg: &GenConfig) {
    let prog = gen_program(seed, cfg);
    let events = run_program(&StealSpec::None, &prog);
    let oracle = oracle_view_read_races(&events);
    let detected = peerset_racy_reducers(&prog);
    assert_eq!(
        detected, oracle,
        "Peer-Set vs oracle mismatch: seed {seed}\nprogram: {:?}",
        prog.body
    );
}

#[test]
fn spplus_matches_oracle_on_plain_programs() {
    let cfg = GenConfig {
        reducers: 0,
        ..GenConfig::default()
    };
    for seed in 0..150 {
        check_spplus_matches_oracle(seed, &cfg);
    }
}

#[test]
fn spplus_matches_oracle_on_reducer_programs() {
    let cfg = GenConfig::default();
    for seed in 0..150 {
        check_spplus_matches_oracle(seed, &cfg);
    }
}

#[test]
fn spplus_matches_oracle_with_view_aliasing() {
    // The Figure-1 regime: views aliased onto shared memory, so
    // view-aware code and user code collide.
    let cfg = GenConfig {
        view_aliasing: true,
        ..GenConfig::default()
    };
    for seed in 0..150 {
        check_spplus_matches_oracle(seed, &cfg);
    }
}

#[test]
fn peerset_matches_oracle() {
    let cfg = GenConfig::default();
    for seed in 0..300 {
        check_peerset_matches_oracle(seed, &cfg);
    }
}

#[test]
fn spbags_agrees_with_spplus_on_reducer_free_programs() {
    // Without reducers and without steals, SP+ degenerates to SP-bags.
    let cfg = GenConfig {
        reducers: 0,
        ..GenConfig::default()
    };
    for seed in 0..100 {
        let prog = gen_program(seed, &cfg);
        let mut a = SpBags::new();
        SerialEngine::new().run_tool(&mut a, |cx| {
            run_synth(cx, &prog);
        });
        let b = spplus_racy_locs(&StealSpec::None, &prog);
        assert_eq!(a.report().racy_locs(), b, "seed {seed}");
    }
}

#[test]
fn racefree_generator_is_actually_race_free() {
    use rader_cilk::synth::gen_racefree;
    let cfg = GenConfig::default();
    for seed in 0..100 {
        let prog = gen_racefree(seed, &cfg);
        for i in 0..4 {
            let spec = spec_for(seed, i);
            assert!(
                spplus_racy_locs(&spec, &prog).is_empty(),
                "racefree program raced: seed {seed} spec {spec:?}"
            );
        }
        assert!(peerset_racy_reducers(&prog).is_empty(), "seed {seed}");
    }
}

// Deeper randomized sweeps over the seed + structure knobs, driven by
// `rader-rng` from fixed base seeds; a failing case prints the seed that
// reproduces it.
const SWEEP_CASES: usize = 64;

fn sweep_seeds(salt: u64) -> Vec<u64> {
    let mut s = 0x0AC1_E000_u64 ^ salt;
    (0..SWEEP_CASES)
        .map(|_| rader_rng::splitmix64(&mut s))
        .collect()
}

#[test]
fn prop_spplus_exact() {
    for case_seed in sweep_seeds(0x01) {
        let mut rng = rader_rng::Rng::seed_from_u64(case_seed);
        let (seed, size, depth) = (
            rng.next_u64(),
            rng.gen_range(10u32..60),
            rng.gen_range(1u32..5),
        );
        let cfg = GenConfig {
            size,
            max_depth: depth,
            view_aliasing: true,
            ..GenConfig::default()
        };
        check_spplus_matches_oracle(seed, &cfg);
    }
}

#[test]
fn prop_peerset_exact() {
    for case_seed in sweep_seeds(0x02) {
        let mut rng = rader_rng::Rng::seed_from_u64(case_seed);
        let (seed, size, depth) = (
            rng.next_u64(),
            rng.gen_range(10u32..60),
            rng.gen_range(1u32..5),
        );
        let cfg = GenConfig {
            size,
            max_depth: depth,
            ..GenConfig::default()
        };
        check_peerset_matches_oracle(seed, &cfg);
    }
}

#[test]
fn prop_shadow_compression_is_lossless() {
    // The single reader/writer shadow entry (pseudotransitivity of ∥)
    // must not lose racy locations relative to the all-pairs oracle —
    // this is implied by prop_spplus_exact but worth naming as the
    // paper's explicit design claim.
    for case_seed in sweep_seeds(0x03) {
        let mut rng = rader_rng::Rng::seed_from_u64(case_seed);
        let seed = rng.next_u64();
        let cfg = GenConfig {
            size: 40,
            ..GenConfig::default()
        };
        let prog = gen_program(seed, &cfg);
        let spec = StealSpec::None;
        let events = run_program(&spec, &prog);
        let oracle = oracle_determinacy_races(&events);
        let detected = spplus_racy_locs(&spec, &prog);
        assert!(
            detected.is_superset(&oracle) && oracle.is_superset(&detected),
            "case seed {case_seed:#x} (program seed {seed:#x})"
        );
    }
}

/// Peer-Set's parse-tree foundation (Lemma 2): the all-S-path criterion
/// agrees with the bitset peer sets on reducer-read strands.
#[test]
fn lemma2_parse_tree_agrees_with_peer_bitsets() {
    use rader_dag::SpParseTree;
    let cfg = GenConfig::default();
    for seed in 0..60 {
        let prog = gen_program(seed, &cfg);
        let events = run_program(&StealSpec::None, &prog);
        let hb = rader_dag::HbGraph::build(&events);
        let tree = SpParseTree::build(&events);
        for i in 0..hb.redreads.len() {
            for j in 0..i {
                let (u, v) = (hb.redreads[i].node, hb.redreads[j].node);
                assert_eq!(
                    tree.peers_equal(u, v),
                    hb.peers_equal(u, v),
                    "Lemma 2 violated: seed {seed}, strands {u},{v}"
                );
            }
        }
    }
}

/// A race-free program's reducer values must be identical under every
/// steal specification (the determinism contract the detectors protect).
#[test]
fn racefree_results_are_schedule_invariant() {
    use rader_cilk::synth::gen_racefree;
    let cfg = GenConfig::default();
    for seed in 0..60 {
        let prog = gen_racefree(seed, &cfg);
        let run = |spec: StealSpec| {
            let mut out = Vec::new();
            SerialEngine::with_spec(spec).run(|cx: &mut Ctx<'_>| out = run_synth(cx, &prog));
            out
        };
        let base = run(StealSpec::None);
        for i in 0..4 {
            assert_eq!(run(spec_for(seed, i)), base, "seed {seed} variant {i}");
        }
    }
}
