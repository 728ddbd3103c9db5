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
//!
//! `GOLDEN_RANDOM` pins the same corpus under the `Random` family, with
//! the "Check reductions" spec of Figure 7 (`max_block` the program's
//! largest sync block, three steals per block) at a few seeds: the
//! engine draws those steal points per block, which the sampled coverage
//! specs above never exercise.

use rader_cilk::synth::{gen_program, run_synth, GenConfig};
use rader_cilk::{AccessKind, Ctx, RunStats, SerialEngine, StealSpec};
use rader_core::{coverage, SpPlus};
use rader_rng::Rng;
use rader_workloads::fig1;

/// Digest of the corpus below, generated before any SP+ fast path landed.
const GOLDEN: u64 = 0x16a8_e48d_0f25_735c;

/// Digest of the corpus under `Random` specs, generated before the engine
/// recycled its per-block steal scripts.
const GOLDEN_RANDOM: u64 = 0x53c5_94b1_246c_147e;

/// Seeds of the `Random` specs folded into `GOLDEN_RANDOM`; the first is
/// the Figure-7 harness's.
const RANDOM_SEEDS: [u64; 6] = [0x7ade7, 0, 1, 2, 3, 0xdead_beef];

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

impl Default for Golden {
    fn default() -> Self {
        Golden {
            digest: FNV_OFFSET,
            runs: 0,
            races: 0,
            reduce_races: 0,
        }
    }
}

/// The seeded synthetic program `seed`; every odd seed aliases views.
fn synth_program(seed: u64) -> impl Fn(&mut Ctx<'_>) {
    let cfg = GenConfig {
        view_aliasing: seed % 2 == 1,
        ..GenConfig::default()
    };
    let prog = gen_program(seed, &cfg);
    move |cx: &mut Ctx<'_>| {
        run_synth(cx, &prog);
    }
}

const FIGURE1: [&dyn Fn(&mut Ctx<'_>); 3] = [
    &|cx| {
        fig1::race_program(cx, 8);
    },
    &|cx| {
        fig1::race_program_fixed(cx, 8);
    },
    &|cx| fig1::update_list_premature_get(cx, 4),
];

fn corpus() -> Golden {
    let mut g = Golden::default();
    for seed in 0..200u64 {
        let run = synth_program(seed);
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
    for prog in FIGURE1 {
        let stats = g.fold(&StealSpec::None, prog);
        let mut specs = coverage::update_coverage_specs(stats.max_spawn_count);
        specs.extend(coverage::reduce_coverage_specs(stats.max_sync_block));
        for spec in &specs {
            g.fold(spec, prog);
        }
    }
    g
}

/// The corpus under `Random { seed, max_block: max(K, 1), steals_per_block:
/// 3 }` for each of `RANDOM_SEEDS`, where `K` is the program's largest
/// sync block in its no-steal run.
fn random_corpus() -> Golden {
    fn fold_random(g: &mut Golden, prog: &dyn Fn(&mut Ctx<'_>)) {
        let k = g.fold(&StealSpec::None, prog).max_sync_block;
        for seed in RANDOM_SEEDS {
            let spec = StealSpec::Random {
                seed,
                max_block: k.max(1),
                steals_per_block: 3,
            };
            g.fold(&spec, prog);
        }
    }
    let mut g = Golden::default();
    for seed in 0..200u64 {
        fold_random(&mut g, &synth_program(seed));
    }
    for prog in FIGURE1 {
        fold_random(&mut g, prog);
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

#[test]
fn spplus_reports_under_random_specs_match_their_golden_digest() {
    let g = random_corpus();
    assert!(
        g.runs >= 1_400 && g.races >= 400 && g.reduce_races >= 40,
        "corpus too weak: {} runs, {} races, {} involving a reduce",
        g.runs,
        g.races,
        g.reduce_races
    );
    let digest = g.digest;
    assert_eq!(
        digest, GOLDEN_RANDOM,
        "SP+ reports under Random specs changed: digest {digest:#018x}, \
         golden {GOLDEN_RANDOM:#018x}"
    );
}
