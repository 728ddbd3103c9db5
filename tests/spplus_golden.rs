//! Golden digest of SP+ race reports.
//!
//! `oracle_equivalence.rs` compares only the *set* of racy locations and
//! `replay_differential.rs` compares SP+ against itself, so neither
//! notices a change in a reported race's prior frame, strand, access
//! kind or detection order. This test pins all of them: it runs SP+ over
//! a fixed corpus (seeded synthetic programs, every odd seed aliasing
//! views, plus the Figure-1 programs) under a sample from every
//! steal-specification family, and folds each run's encoded
//! `RaceReport` and counters into one FNV-1a digest.
//!
//! A detector change that must be verdict-preserving (a fast path, a
//! cache, a new shadow layout) leaves the digest unchanged. A change that
//! legitimately alters reports must update `GOLDEN` and say why.

use rader_cilk::synth::{gen_program, run_synth, GenConfig};
use rader_cilk::{AccessKind, Ctx, RunStats, SerialEngine, StealSpec};
use rader_core::{coverage, SpPlus};
use rader_rng::Rng;
use rader_workloads::fig1;

/// Digest of the corpus below, generated before any SP+ fast path landed.
const GOLDEN: u64 = 0x16a8_e48d_0f25_735c;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The running digest plus enough tallies to show the corpus is not trivial.
struct Golden {
    digest: u64,
    runs: usize,
    races: usize,
    reduce_races: usize,
}

impl Golden {
    /// Run SP+ once under `spec` and fold its report and counters in.
    fn fold(&mut self, spec: &StealSpec, prog: &dyn Fn(&mut Ctx<'_>)) -> RunStats {
        let mut tool = SpPlus::new();
        let stats = SerialEngine::with_spec(spec.clone()).run_tool(&mut tool, prog);
        let report = tool.report();
        let mut bytes = Vec::new();
        report.encode(&mut bytes);
        for counter in [tool.checks, tool.steals, tool.reduces] {
            bytes.extend_from_slice(&counter.to_le_bytes());
        }
        self.digest = fnv1a(self.digest, &bytes);
        self.runs += 1;
        self.races += report.determinacy.len();
        self.reduce_races += report
            .determinacy
            .iter()
            .filter(|r| r.prior.kind == AccessKind::Reduce || r.current.kind == AccessKind::Reduce)
            .count();
        stats
    }
}

/// `n` specs drawn (with repetition) from `family`.
fn sample(rng: &mut Rng, family: &[StealSpec], n: usize) -> Vec<StealSpec> {
    if family.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|_| family[rng.below(family.len() as u64) as usize].clone())
        .collect()
}

fn corpus() -> Golden {
    let mut g = Golden {
        digest: FNV_OFFSET,
        runs: 0,
        races: 0,
        reduce_races: 0,
    };
    for seed in 0..200u64 {
        let cfg = GenConfig {
            view_aliasing: seed % 2 == 1,
            ..GenConfig::default()
        };
        let prog = gen_program(seed, &cfg);
        let run = |cx: &mut Ctx<'_>| {
            run_synth(cx, &prog);
        };
        let stats = g.fold(&StealSpec::None, &run);
        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_D16E);
        let updates = coverage::update_coverage_specs(stats.max_spawn_count);
        let triples = coverage::reduce_coverage_specs(stats.max_sync_block);
        let mut specs = sample(&mut rng, &updates, 3);
        specs.extend(sample(&mut rng, &triples, 4));
        for spec in &specs {
            g.fold(spec, &run);
        }
    }
    let figure1: [&dyn Fn(&mut Ctx<'_>); 3] = [
        &|cx| {
            fig1::race_program(cx, 8);
        },
        &|cx| {
            fig1::race_program_fixed(cx, 8);
        },
        &|cx| fig1::update_list_premature_get(cx, 4),
    ];
    for prog in figure1 {
        let stats = g.fold(&StealSpec::None, prog);
        let mut specs = coverage::update_coverage_specs(stats.max_spawn_count);
        specs.extend(coverage::reduce_coverage_specs(stats.max_sync_block));
        for spec in &specs {
            g.fold(spec, prog);
        }
    }
    g
}

#[test]
fn spplus_reports_match_the_golden_digest() {
    let g = corpus();
    assert!(
        g.runs >= 1_000 && g.races >= 500 && g.reduce_races >= 20,
        "corpus too weak: {} runs, {} races, {} involving a reduce",
        g.runs,
        g.races,
        g.reduce_races
    );
    let digest = g.digest;
    assert_eq!(
        digest, GOLDEN,
        "SP+ reports changed: digest {digest:#018x}, golden {GOLDEN:#018x}"
    );
}
