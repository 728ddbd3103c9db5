#![forbid(unsafe_code)]
//! Benchmark harness for regenerating the paper's evaluation.
//!
//! The paper evaluates Rader in two tables:
//!
//! * **Figure 7** — multiplicative overhead of four detector
//!   configurations over running each benchmark *without
//!   instrumentation*;
//! * **Figure 8** — the same configurations over an *empty tool* (all
//!   instrumentation hooks fire, every body is empty), isolating
//!   algorithm cost from instrumentation cost.
//!
//! The configurations (paper, Section 8):
//!
//! | Column | Here |
//! |---|---|
//! | Check view-read race | Peer-Set, no steals |
//! | No steals | SP+ with [`StealSpec::None`] |
//! | Check updates | SP+ stealing at spawn count ⌈K/2⌉ (continuation depth half the max sync block) |
//! | Check reductions | SP+ with three random steal points per sync block |
//!
//! [`measure_workload`] times one `(benchmark, configuration)` cell;
//! [`figure7_rows`] / [`figure8_rows`] assemble the tables; the `tables`
//! binary prints them in the paper's layout with geometric means.

pub mod timing;

use std::time::{Duration, Instant};

use rader_cilk::{EmptyTool, SerialEngine, StealSpec};
use rader_core::{PeerSet, SpPlus};
use rader_workloads::{Scale, Workload};

/// A detector configuration of the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// No instrumentation at all (Figure 7's denominator).
    Baseline,
    /// Empty tool: hooks fire, bodies are empty (Figure 8's denominator).
    Empty,
    /// Peer-Set ("Check view-read race").
    PeerSet,
    /// SP+ with no steals ("No steals").
    SpPlusNoSteals,
    /// SP+ stealing at spawn count ⌈K/2⌉ ("Check updates").
    SpPlusUpdates,
    /// SP+ with 3 random steals per sync block ("Check reductions").
    SpPlusReductions,
}

impl Config {
    /// The four measured columns, in table order.
    pub const COLUMNS: [Config; 4] = [
        Config::PeerSet,
        Config::SpPlusNoSteals,
        Config::SpPlusUpdates,
        Config::SpPlusReductions,
    ];

    /// Column header as printed in the paper.
    pub fn header(self) -> &'static str {
        match self {
            Config::Baseline => "No instrumentation",
            Config::Empty => "Empty tool",
            Config::PeerSet => "Check view-read race",
            Config::SpPlusNoSteals => "No steals",
            Config::SpPlusUpdates => "Check updates",
            Config::SpPlusReductions => "Check reductions",
        }
    }
}

/// Derive the steal specification a configuration uses for a workload
/// with measured maximum sync-block size `k`.
pub fn spec_for(config: Config, k: u32) -> StealSpec {
    match config {
        Config::Baseline | Config::Empty | Config::PeerSet | Config::SpPlusNoSteals => {
            StealSpec::None
        }
        Config::SpPlusUpdates => StealSpec::AtSpawnCount((k / 2).max(1)),
        Config::SpPlusReductions => StealSpec::Random {
            seed: 0x7ade7,
            max_block: k.max(1),
            steals_per_block: 3,
        },
    }
}

/// Time one run of `w` under `config` (`k` = the workload's measured max
/// sync-block size, for spec derivation). Returns wall time.
pub fn run_once(w: &Workload, config: Config, k: u32) -> Duration {
    let spec = spec_for(config, k);
    let engine = SerialEngine::with_spec(spec);
    let start = Instant::now();
    match config {
        Config::Baseline => {
            engine.run(|cx| (w.run)(cx));
        }
        Config::Empty => {
            let mut tool = EmptyTool;
            engine.run_tool(&mut tool, |cx| (w.run)(cx));
        }
        Config::PeerSet => {
            let mut tool = PeerSet::new();
            engine.run_tool(&mut tool, |cx| (w.run)(cx));
            assert!(!tool.report().has_races(), "{}: {}", w.name, tool.report());
        }
        Config::SpPlusNoSteals | Config::SpPlusUpdates | Config::SpPlusReductions => {
            let mut tool = SpPlus::new();
            engine.run_tool(&mut tool, |cx| (w.run)(cx));
            assert!(!tool.report().has_races(), "{}: {}", w.name, tool.report());
        }
    }
    start.elapsed()
}

/// Minimum-of-`reps` timing with one warmup run.
pub fn measure_workload(w: &Workload, config: Config, k: u32, reps: usize) -> Duration {
    let _ = run_once(w, config, k);
    (0..reps.max(1))
        .map(|_| run_once(w, config, k))
        .min()
        .unwrap()
}

/// Measured max sync-block size of a workload (sets K for the
/// update/reduction specs, as Rader's CLI took it as input).
pub fn measure_k(w: &Workload) -> u32 {
    let stats = SerialEngine::new().run(|cx| (w.run)(cx));
    stats.max_sync_block
}

/// One benchmark row: overheads of the four columns over a denominator.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub input: String,
    pub description: &'static str,
    pub overheads: [f64; 4],
}

fn rows_over(denom_config: Config, scale: Scale, reps: usize) -> Vec<Row> {
    rader_workloads::suite(scale)
        .iter()
        .map(|w| {
            let k = measure_k(w);
            let denom = measure_workload(w, denom_config, k, reps).as_secs_f64();
            let overheads =
                Config::COLUMNS.map(|c| measure_workload(w, c, k, reps).as_secs_f64() / denom);
            Row {
                name: w.name,
                input: w.input_label.clone(),
                description: w.description,
                overheads,
            }
        })
        .collect()
}

/// Figure 7: overhead over no instrumentation.
pub fn figure7_rows(scale: Scale, reps: usize) -> Vec<Row> {
    rows_over(Config::Baseline, scale, reps)
}

/// Figure 8: overhead over the empty tool.
pub fn figure8_rows(scale: Scale, reps: usize) -> Vec<Row> {
    rows_over(Config::Empty, scale, reps)
}

/// Geometric mean of one overhead column.
pub fn geomean(rows: &[Row], col: usize) -> f64 {
    let logsum: f64 = rows.iter().map(|r| r.overheads[col].ln()).sum();
    (logsum / rows.len() as f64).exp()
}

/// Geometric mean excluding one benchmark (the paper excludes the
/// `ferret` outlier from its Figure-8 SP+ average).
pub fn geomean_excluding(rows: &[Row], col: usize, exclude: &str) -> f64 {
    let kept: Vec<&Row> = rows.iter().filter(|r| r.name != exclude).collect();
    let logsum: f64 = kept.iter().map(|r| r.overheads[col].ln()).sum();
    (logsum / kept.len() as f64).exp()
}

/// Workload characterization: the structural statistics of one run of
/// each benchmark (the kind of table evaluation sections use to show
/// what the benchmarks stress).
pub fn print_characterization(scale: Scale) {
    println!("\nWorkload characterization (uninstrumented run)");
    println!(
        "{:<10} {:>10} {:>12} {:>11} {:>9} {:>10} {:>6} {:>6}",
        "benchmark", "frames", "strands", "accesses", "updates", "red-reads", "K", "M"
    );
    for w in rader_workloads::suite(scale) {
        let s = SerialEngine::new().run(|cx| (w.run)(cx));
        println!(
            "{:<10} {:>10} {:>12} {:>11} {:>9} {:>10} {:>6} {:>6}",
            w.name,
            s.frames,
            s.strands,
            s.reads + s.writes,
            s.updates,
            s.reducer_reads,
            s.max_sync_block,
            s.max_spawn_count
        );
    }
}

/// Print a table in the paper's layout.
pub fn print_table(title: &str, denom: &str, rows: &[Row]) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
    println!(
        "{:<10} {:<22} {:<28} {:>22} {:>11} {:>14} {:>17}",
        "Benchmark",
        "Input size",
        "Description",
        "Check view-read race",
        "No steals",
        "Check updates",
        "Check reductions"
    );
    for r in rows {
        println!(
            "{:<10} {:<22} {:<28} {:>22.2} {:>11.2} {:>14.2} {:>17.2}",
            r.name,
            r.input,
            r.description,
            r.overheads[0],
            r.overheads[1],
            r.overheads[2],
            r.overheads[3]
        );
    }
    println!(
        "{:<10} {:<22} {:<28} {:>22.2} {:>11.2} {:>14.2} {:>17.2}",
        "geomean",
        "",
        format!("(overhead over {denom})"),
        geomean(rows, 0),
        geomean(rows, 1),
        geomean(rows, 2),
        geomean(rows, 3)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_follow_configs() {
        assert_eq!(spec_for(Config::Baseline, 8), StealSpec::None);
        assert_eq!(spec_for(Config::PeerSet, 8), StealSpec::None);
        assert_eq!(
            spec_for(Config::SpPlusUpdates, 8),
            StealSpec::AtSpawnCount(4)
        );
        assert!(matches!(
            spec_for(Config::SpPlusReductions, 8),
            StealSpec::Random {
                max_block: 8,
                steals_per_block: 3,
                ..
            }
        ));
        // Degenerate K never yields a zero spawn-count spec.
        assert_eq!(
            spec_for(Config::SpPlusUpdates, 1),
            StealSpec::AtSpawnCount(1)
        );
    }

    #[test]
    fn geomean_is_multiplicative_mean() {
        let mk = |o: [f64; 4]| Row {
            name: "x",
            input: String::new(),
            description: "",
            overheads: o,
        };
        let rows = vec![mk([1.0, 2.0, 4.0, 8.0]), mk([4.0, 2.0, 1.0, 2.0])];
        assert!((geomean(&rows, 0) - 2.0).abs() < 1e-9);
        assert!((geomean(&rows, 1) - 2.0).abs() < 1e-9);
        assert!((geomean(&rows, 2) - 2.0).abs() < 1e-9);
        assert!((geomean(&rows, 3) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn small_scale_cells_run_and_detect_nothing() {
        // One cell per config on the cheapest workload proves the
        // harness end to end (the run_once asserts cleanliness).
        let suite = rader_workloads::suite(Scale::Small);
        let w = suite.iter().find(|w| w.name == "fib").unwrap();
        let k = measure_k(w);
        for c in [
            Config::Baseline,
            Config::Empty,
            Config::PeerSet,
            Config::SpPlusNoSteals,
            Config::SpPlusUpdates,
            Config::SpPlusReductions,
        ] {
            let d = run_once(w, c, k);
            assert!(d.as_nanos() > 0);
        }
    }
}
