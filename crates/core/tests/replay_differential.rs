//! Replay-fidelity differential suite.
//!
//! The trace/replay layer (`rader_cilk::replay`) claims that for an
//! ostensibly deterministic program, SP+ on a replayed trace is
//! *indistinguishable* from SP+ on a fresh re-execution under the same
//! steal specification. This suite checks the claim byte-for-byte:
//! random synth programs × random steal specs, fresh `RaceReport` vs
//! replayed `RaceReport` compared with `==` (and `RunStats` too).
//!
//! View-aliasing programs are included. For those, a replay may
//! legitimately refuse (`ReplayError::ViewDivergence`) when a spec makes
//! an aliased `get_view` result schedule-dependent — that is the
//! documented fallback contract, not an infidelity — so divergence is
//! permitted *only* in the aliasing configuration, and every replay that
//! does succeed must still match exactly.

use rader_cilk::synth::{gen_program, run_synth, GenConfig};
use rader_cilk::{
    BlockOp, BlockScript, Ctx, ProgramTrace, ReplayCheckpoint, ReplayError, RunStats, SerialEngine,
    StealSpec,
};
use rader_core::{coverage, CoverageOptions, RaceReport, SpPlus};
use rader_rng::Rng;
use rader_workloads::{collision, dedup, fib, fig1, Scale};

/// A random `EveryBlock` script: strictly increasing steal indices with
/// reduces sprinkled between them.
fn random_script(rng: &mut Rng) -> BlockScript {
    let steals = 1 + rng.below(3);
    let mut ops = Vec::new();
    let mut idx = 0u32;
    for _ in 0..steals {
        idx += 1 + rng.below(3) as u32;
        ops.push(BlockOp::Steal(idx));
        if rng.gen_bool(0.4) {
            ops.push(BlockOp::Reduce);
        }
    }
    BlockScript::new(ops)
}

/// A random steal specification drawn from all three spec shapes.
fn random_spec(rng: &mut Rng, stats: &RunStats) -> StealSpec {
    match rng.below(3) {
        0 => StealSpec::EveryBlock(random_script(rng)),
        1 => StealSpec::Random {
            seed: rng.next_u64(),
            max_block: stats.max_sync_block.max(1),
            steals_per_block: 1 + rng.below(3) as u32,
        },
        _ => StealSpec::AtSpawnCount(1 + rng.below(stats.max_spawn_count.max(1) as u64) as u32),
    }
}

#[test]
fn replayed_spplus_is_byte_identical_to_fresh_execution() {
    // (label, config, may replay refuse with ViewDivergence?)
    let corpora: &[(&str, GenConfig, bool)] = &[
        ("plain", GenConfig::default(), false),
        (
            "aliasing",
            GenConfig {
                view_aliasing: true,
                reducer_reads: false,
                ..GenConfig::default()
            },
            true,
        ),
    ];
    let mut ok_cases = 0usize;
    let mut diverged = 0usize;
    for (label, cfg, divergence_allowed) in corpora {
        for seed in 0..60u64 {
            let prog = gen_program(seed, cfg);
            let run = |cx: &mut Ctx<'_>| {
                run_synth(cx, &prog);
            };
            let trace = ProgramTrace::record(run);
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(7));
            for case in 0..4u32 {
                let spec = random_spec(&mut rng, trace.stats());
                let mut fresh = SpPlus::new();
                let fresh_stats = SerialEngine::with_spec(spec.clone()).run_tool(&mut fresh, run);
                let mut replayed = SpPlus::new();
                match SerialEngine::with_spec(spec.clone()).replay_tool(&mut replayed, &trace) {
                    Ok(replay_stats) => {
                        assert_eq!(
                            replayed.report(),
                            fresh.report(),
                            "corpus {label} seed {seed} case {case} spec {spec:?}: \
                             replayed report differs from fresh report"
                        );
                        assert_eq!(
                            replay_stats, fresh_stats,
                            "corpus {label} seed {seed} case {case} spec {spec:?}: \
                             replayed RunStats differ from fresh RunStats"
                        );
                        ok_cases += 1;
                    }
                    Err(e) => {
                        assert!(
                            *divergence_allowed,
                            "corpus {label} seed {seed} case {case} spec {spec:?}: \
                             replay refused unexpectedly: {e}"
                        );
                        diverged += 1;
                    }
                }
            }
        }
    }
    // The acceptance bar: at least 100 replayed cases compared equal,
    // and the aliasing corpus actually exercised the refusal path.
    assert!(
        ok_cases >= 100,
        "only {ok_cases} replayed cases compared (need >= 100); \
         {diverged} diverged"
    );
    assert!(
        diverged > 0,
        "aliasing corpus never triggered divergence; the fallback \
         contract is untested"
    );
}

#[test]
fn exhaustive_driver_replay_matches_reexecution() {
    // End-to-end: the sweep driver with replay on vs off must agree on
    // everything user-visible, including on aliasing programs where some
    // specs fall back to re-execution.
    let cfg = GenConfig {
        view_aliasing: true,
        size: 30,
        ..GenConfig::default()
    };
    for seed in [0u64, 5, 11, 23, 37] {
        let prog = gen_program(seed, &cfg);
        let run = |cx: &mut Ctx<'_>| {
            run_synth(cx, &prog);
        };
        let via_replay = coverage::exhaustive_check(run, &CoverageOptions::default());
        let via_rerun = coverage::exhaustive_check(
            run,
            &CoverageOptions {
                replay: false,
                ..CoverageOptions::default()
            },
        );
        assert_eq!(via_replay.report, via_rerun.report, "seed {seed}");
        assert_eq!(via_replay.findings, via_rerun.findings, "seed {seed}");
        assert_eq!(via_replay.runs, via_rerun.runs, "seed {seed}");
        assert_eq!(
            (via_replay.k, via_replay.m),
            (via_rerun.k, via_rerun.m),
            "seed {seed}"
        );
        assert_eq!(via_rerun.replayed, 0, "seed {seed}");
    }
}

/// What SP+ makes of one replay: report, checks and statistics, or why
/// replay refused.
type Outcome = Result<(RaceReport, u64, RunStats), ReplayError>;

fn from_scratch(trace: &ProgramTrace, spec: &StealSpec) -> Outcome {
    let mut tool = SpPlus::new();
    let stats = SerialEngine::with_spec(spec.clone()).replay_tool(&mut tool, trace)?;
    Ok((tool.report().clone(), tool.checks, stats))
}

/// The edges of the reduce family's trie in `plan`: each `EveryBlock`
/// script with the script that is it without its last steal and the
/// reduces before it, `[a] → [a, b]` and `[a, b] → [a, b, Reduce, c]`.
fn trie_edges(plan: &[StealSpec]) -> Vec<(&StealSpec, &StealSpec)> {
    let mut edges = Vec::new();
    for kid in plan {
        let StealSpec::EveryBlock(script) = kid else {
            continue;
        };
        let mut ops = script.ops().to_vec();
        ops.pop();
        while ops.last() == Some(&BlockOp::Reduce) {
            ops.pop();
        }
        let parent = StealSpec::EveryBlock(BlockScript::new(ops));
        if let Some(parent) = plan.iter().find(|s| **s == parent) {
            edges.push((parent, kid));
        }
    }
    edges
}

/// Every consecutive same-family pair of a sweep's plan for `program`,
/// and every edge of its reduce family's trie, on its trace and on the
/// pruned copy a sweep replays (DESIGN.md §5h): replay the first spec to
/// the pair's fork event, copy detector and checkpoint, finish the copy
/// under the second spec, and compare both runs with from-scratch
/// replays of the same trace. Returns (pairs forked mid-trace, pairs
/// where a replay refused, of the first those of the pruned copy, trie
/// edges forked mid-trace).
fn fork_every_pair(label: &str, program: impl Fn(&mut Ctx<'_>)) -> (usize, usize, usize, usize) {
    let mut tool = SpPlus::new();
    let trace = ProgramTrace::record_with_tool(&mut tool, &program);
    let stats = trace.stats();
    let mut plan = coverage::update_coverage_specs(stats.max_spawn_count.min(8));
    plan.extend(coverage::reduce_coverage_specs(stats.max_sync_block.min(5)));
    let chain: Vec<_> = plan.windows(2).map(|w| (&w[0], &w[1])).collect();
    let trie = trie_edges(&plan);
    let pruned_trace = trace.pruned(&tool.report().racy_locs());
    let mut traces = vec![(label.to_string(), &trace)];
    traces.extend((pruned_trace.as_ref()).map(|pruned| (format!("{label} pruned"), pruned)));
    let (mut forked, mut refused, mut pruned, mut trie_forked) = (0, 0, 0, 0);
    for (label, trace) in traces {
        let label = &label;
        let (f, r) = fork_pairs(label, trace, &chain);
        let (tf, tr) = fork_pairs(&format!("{label} trie"), trace, &trie);
        forked += f + tf;
        refused += r + tr;
        trie_forked += tf;
        if trace.dropped() > 0 {
            pruned += f + tf;
        }
    }
    (forked, refused, pruned, trie_forked)
}

/// [`fork_every_pair`] on one trace.
fn fork_pairs(
    label: &str,
    trace: &ProgramTrace,
    pairs: &[(&StealSpec, &StealSpec)],
) -> (usize, usize) {
    let (mut forked, mut refused) = (0, 0);
    for &(a, b) in pairs {
        let Some(at) = trace.fork_event(a, b) else {
            continue; // different families never fork
        };
        let mut tool = SpPlus::new();
        let mut ckpt = ReplayCheckpoint::new();
        ckpt.start(a, &mut tool);
        if let Err(e) = ckpt.advance(&mut tool, trace, at) {
            assert_eq!(Err(e), from_scratch(trace, a), "{label} {a:?}");
            refused += 1;
            continue;
        }
        let (mut fork_tool, mut fork_ckpt) = (tool.clone(), ckpt.clone());
        assert!(fork_ckpt.resume_as(trace, b), "{label}: {a:?} -> {b:?}");
        let forked_b = fork_ckpt
            .finish(&mut fork_tool, trace)
            .map(|s| (fork_tool.report().clone(), fork_tool.checks, s));
        assert_eq!(
            forked_b,
            from_scratch(trace, b),
            "{label}: {b:?} forked from {a:?} at event {at} of {}",
            trace.len()
        );
        // Taking the copy leaves the original run as it was.
        let rest_a = ckpt
            .finish(&mut tool, trace)
            .map(|s| (tool.report().clone(), tool.checks, s));
        assert_eq!(rest_a, from_scratch(trace, a), "{label}: {a:?}");
        forked += (0 < at && at < trace.len()) as usize;
        refused += (forked_b.is_err() || rest_a.is_err()) as usize;
    }
    (forked, refused)
}

#[test]
fn forked_replays_equal_from_scratch_replays() {
    let (mut forked, mut refused, mut pruned, mut trie) = (0, 0, 0, 0);
    for (label, cfg) in [
        ("plain", GenConfig::default()),
        (
            "aliasing",
            GenConfig {
                view_aliasing: true,
                reducer_reads: false,
                ..GenConfig::default()
            },
        ),
    ] {
        for seed in 0..40u64 {
            let prog = gen_program(seed, &cfg);
            let (f, r, p, t) = fork_every_pair(&format!("{label} seed {seed}"), |cx| {
                run_synth(cx, &prog);
            });
            forked += f;
            refused += r;
            pruned += p;
            trie += t;
        }
    }
    let racy = fig1::workload_racy(Scale::Small);
    for w in [
        collision::workload(Scale::Small),
        dedup::workload(Scale::Small),
        fib::workload(Scale::Small),
        fig1::workload(Scale::Small),
        racy,
    ] {
        let (f, r, p, t) = fork_every_pair(w.name, &w.run);
        assert!(f > 0, "{}: no pair forked mid-trace", w.name);
        forked += f;
        refused += r;
        pruned += p;
        trie += t;
    }
    assert!(forked >= 150, "only {forked} pairs forked mid-trace");
    assert!(trie >= 100, "only {trie} trie edges forked mid-trace");
    assert!(pruned > 0, "no pruned trace forked mid-trace");
    assert!(refused > 0, "no divergent program exercised the refusal");
}
