//! The Section-7 sweep with trace replay vs re-execution: the one
//! measurement of what recording once and replaying per spec saves.
//!
//! The per-layer costs of the engine itself (empty-tool dispatch, view
//! and steal simulation) come from perfbench's traced `figure7` runs
//! (`engine.dispatch_ms`, `engine.views_ms`).

use rader_bench::timing::Harness;
use rader_cilk::Ctx;
use rader_core::{coverage, CoverageOptions};
use rader_workloads::{dedup, ferret};

fn main() {
    let mut h = Harness::from_args("engine");
    bench_exhaustive_sweep(&mut h);
    h.finish();
}

/// `exhaustive_check` sweep time with trace replay (record once, replay
/// per spec) vs honest re-execution of the user program per spec, on the
/// two workloads where per-strand user work (hashing) dominates. Capped
/// K/M keep the spec count identical across both modes and small enough
/// for the CI smoke run.
fn bench_exhaustive_sweep(h: &mut Harness) {
    let opts = |replay| CoverageOptions {
        max_k: Some(3),
        max_spawn_count: Some(6),
        replay,
        ..CoverageOptions::default()
    };
    let sweep = |program: &(dyn Fn(&mut Ctx<'_>) + Sync), replay: bool| {
        let rep = coverage::exhaustive_check(program, &opts(replay));
        assert_eq!(rep.replayed == rep.runs, replay, "unexpected fallback");
        rep.runs
    };

    let stream = dedup::gen_stream(96, 11);
    let corpus = ferret::gen_corpus(48, 3, 12);
    let mut g = h.group("exhaustive_sweep");
    g.bench("dedup/replay", || {
        sweep(
            &|cx| {
                dedup::dedup_program(cx, &stream);
            },
            true,
        )
    });
    g.bench("dedup/reexecute", || {
        sweep(
            &|cx| {
                dedup::dedup_program(cx, &stream);
            },
            false,
        )
    });
    g.bench("ferret/replay", || {
        sweep(
            &|cx| {
                ferret::ferret_program(cx, &corpus);
            },
            true,
        )
    });
    g.bench("ferret/reexecute", || {
        sweep(
            &|cx| {
                ferret::ferret_program(cx, &corpus);
            },
            false,
        )
    });

    // Summarize the pairwise comparison so the sweep's headline number
    // (replay speedup over honest re-execution) is printed directly.
    for workload in ["dedup", "ferret"] {
        let m = |mode: &str| {
            h.results()
                .iter()
                .find(|m| m.group == "exhaustive_sweep" && m.name == format!("{workload}/{mode}"))
                .map(|m| m.median.as_nanos() as f64)
        };
        if let (Some(replay), Some(reexec)) = (m("replay"), m("reexecute")) {
            println!(
                "{:<56} {:.3}x",
                format!("exhaustive_sweep/{workload}: replay speedup"),
                reexec / replay,
            );
        }
    }
}
