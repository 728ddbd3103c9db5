#![forbid(unsafe_code)]
//! Regenerate the paper's Figure 7 and Figure 8 overhead tables.
//!
//! ```sh
//! cargo run -p rader-bench --release --bin tables            # paper scale
//! cargo run -p rader-bench --release --bin tables -- --small # test scale
//! cargo run -p rader-bench --release --bin tables -- --reps 5
//! ```
//!
//! Absolute numbers depend on the simulator substrate; the claims to
//! compare against the paper are the *shapes*: Peer-Set ≪ SP+, fib and
//! knapsack dominating the SP+ columns (tiny strands), ferret cheap, and
//! "Check reductions" ≥ "Check updates" ≥ "No steals".

use rader_bench::{
    figure7_rows, figure8_rows, geomean, geomean_excluding, print_characterization, print_table,
};
use rader_core::{coverage, CoverageOptions};
use rader_workloads::{self as workloads, Scale};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Paper
    };
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);

    println!("Rader evaluation tables (scale: {scale:?}, reps: {reps}, min-of-reps timing)");
    print_characterization(scale);

    let f7 = figure7_rows(scale, reps);
    print_table(
        "Figure 7: Rader's overhead over running the benchmarks without instrumentation",
        "no instrumentation",
        &f7,
    );
    println!(
        "\npaper reference: Peer-Set geomean 2.32 (range 1.03-5.95); \
         SP+ 'Check reductions' geomean 16.76 (range 3.94-75.60)"
    );
    println!(
        "measured:        Peer-Set geomean {:.2}; SP+ 'Check reductions' geomean {:.2}",
        geomean(&f7, 0),
        geomean(&f7, 3)
    );

    let f8 = figure8_rows(scale, reps);
    print_table(
        "Figure 8: Rader's overhead over running the benchmarks with an empty tool",
        "empty tool",
        &f8,
    );
    println!(
        "\npaper reference: Peer-Set geomean 1.84 (range 1.00-3.89); \
         SP+ 'Check reductions' geomean 7.27 excluding ferret (range 3.04-15.68)"
    );
    println!(
        "measured:        Peer-Set geomean {:.2}; SP+ 'Check reductions' geomean {:.2} \
         ({:.2} excluding ferret)",
        geomean(&f8, 0),
        geomean(&f8, 3),
        geomean_excluding(&f8, 3, "ferret"),
    );

    print_sweep_timing(scale, reps);
}

/// Exhaustive-sweep cost with the trace-replay fast path vs honest
/// re-execution, min-of-reps, on the workloads with real per-strand
/// computation. The sweep itself is not a paper figure — this is the
/// cost of the Section-7 coverage driver, which the replay layer cuts.
fn print_sweep_timing(scale: Scale, reps: usize) {
    println!("\nExhaustive-sweep cost: trace replay vs per-spec re-execution");
    println!(
        "{:<12} {:>12} {:>12} {:>9}",
        "benchmark", "replay", "re-execute", "speedup"
    );
    let opts = |replay| CoverageOptions {
        max_k: Some(3),
        max_spawn_count: Some(6),
        replay,
        ..CoverageOptions::default()
    };
    for w in workloads::suite(scale) {
        if w.name != "dedup" && w.name != "ferret" {
            continue;
        }
        let time_one = |replay: bool| {
            let mut best = Duration::MAX;
            for _ in 0..reps.max(1) {
                let t = Instant::now();
                let rep = coverage::exhaustive_check(&w.run, &opts(replay));
                best = best.min(t.elapsed());
                assert_eq!(rep.replayed == rep.runs, replay, "unexpected fallback");
            }
            best
        };
        let replay = time_one(true);
        let rerun = time_one(false);
        println!(
            "{:<12} {:>12.1?} {:>12.1?} {:>8.2}x",
            w.name,
            replay,
            rerun,
            rerun.as_secs_f64() / replay.as_secs_f64()
        );
    }
}
