#![forbid(unsafe_code)]
//! `rader` — command-line interface to the race detector.
//!
//! Run `rader help` for usage. Exit codes: 0 clean, 1 races found
//! (`suite`), 2 usage error.

use std::time::Duration;

use rader::cli::{self, Command, ExhaustiveOpts, SuiteOpts, SynthOpts};
use rader::core::{
    coverage, CheckpointPolicy, CoverageOptions, FaultPlan, Rader, SweepControl, SCHEMA_VERSION,
};
use rader::suite::{self, SuiteOptions};
use rader::workloads::{self, fig1, Scale};
use rader_cilk::synth::{gen_program, run_synth, GenConfig};
use rader_cilk::{BlockScript, SerialEngine, StealSpec};
use rader_dag::{HbGraph, TraceRecorder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("rader: {e}");
            eprintln!("{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    match cmd {
        Command::Fig1 => cmd_fig1(),
        Command::Suite(o) => cmd_suite(&o),
        Command::Synth(o) => cmd_synth(&o),
        Command::Exhaustive(o) => cmd_exhaustive(&o),
        Command::Dot { steals } => cmd_dot(steals),
        Command::JsonCheck { path } => cmd_json_check(&path),
        Command::Help => println!("{}", cli::USAGE),
    }
}

fn cmd_fig1() {
    let rader = Rader::new();
    println!("## Peer-Set on update_list with a premature get_value");
    let r = rader.check_view_read(|cx| fig1::update_list_premature_get(cx, 8));
    print!("{r}");
    println!("\n## SP+ on the shallow-copy race() (stealing continuation 1)");
    let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
    let r = rader.check_determinacy(spec.clone(), |cx| {
        fig1::race_program(cx, 16);
    });
    print!("{r}");
    println!("\n## SP+ on the deep-copy fix (same schedule)");
    let r = rader.check_determinacy(spec, |cx| {
        fig1::race_program_fixed(cx, 16);
    });
    print!("{r}");
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1}ms", ns as f64 / 1e6)
}

/// Assemble the deterministic fault plan from the CLI flags, if any.
/// A bare `--fault-seed` with no `--fault-panic-at` yields a plan that
/// injects nothing — harmless, and it keeps the flags orthogonal.
fn build_faults(seed: Option<u64>, panic_at: &[usize]) -> Option<FaultPlan> {
    if seed.is_none() && panic_at.is_empty() {
        return None;
    }
    let mut plan = FaultPlan::new(seed.unwrap_or(0));
    for &i in panic_at {
        plan = plan.panic_at(i);
    }
    Some(plan)
}

/// Print the partial-coverage and quarantine sections for one verdict's
/// worth of sweep degradations (shared by `suite` and `exhaustive`).
fn print_degradations(
    name: &str,
    partial: bool,
    uncovered: &[String],
    quarantined: &[rader::core::Quarantined],
) {
    if partial {
        println!("\n## {name}: partial coverage (budget deadline hit)");
        for u in uncovered {
            println!("  uncovered: {u}");
        }
    }
    if !quarantined.is_empty() {
        println!("\n## {name}: quarantined specs (worker panics isolated)");
        for q in quarantined {
            println!("  spec {} {:?}: {}", q.spec_index, q.spec, q.payload);
            println!("    minimized: {:?}", q.minimized);
        }
    }
}

fn cmd_suite(o: &SuiteOpts) {
    let scale = if o.paper { Scale::Paper } else { Scale::Small };
    let mut table = workloads::suite(scale);
    if o.racy {
        table.push(fig1::workload_racy(scale));
    }
    let defaults = SuiteOptions::default();
    let opts = SuiteOptions {
        threads: o.threads.unwrap_or(defaults.threads),
        max_k: o.max_k,
        max_spawn_count: o.max_spawn_count,
        replay: !o.reexecute,
        checkpoint: o.checkpoint.clone(),
        resume: o.resume.clone(),
        budget: o.budget.map(Duration::from_secs_f64),
        faults: build_faults(o.fault_seed, &o.fault_panic_at),
    };
    let report = match suite::run_suite(&table, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rader: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{:<10} {:>8} {:>10} {:>6} {:>8} {:>6} {:>4} {:>4} {:>10} {:>11} {:>9} {:>9} {:>8}  verdict",
        "benchmark",
        "frames",
        "accesses",
        "runs",
        "replayed",
        "claims",
        "K",
        "M",
        "peer-set",
        "sp+",
        "record",
        "sweep",
        "merge"
    );
    for w in &report.workloads {
        let mut verdict = if w.clean() {
            "clean".to_string()
        } else {
            format!("RACES ({})", w.races)
        };
        if w.partial {
            verdict.push_str(" [partial]");
        }
        if !w.quarantined.is_empty() {
            verdict.push_str(&format!(" [quarantined {}]", w.quarantined.len()));
        }
        println!(
            "{:<10} {:>8} {:>10} {:>6} {:>8} {:>6} {:>4} {:>4} {:>10} {:>11} {:>9} {:>9} {:>8}  {}",
            w.name,
            w.frames,
            w.accesses,
            w.runs,
            w.replayed,
            w.claims,
            w.k,
            w.m,
            w.peer_set_checks,
            w.spplus_checks,
            fmt_ms(w.record_ns),
            fmt_ms(w.sweep_ns),
            fmt_ms(w.merge_ns),
            verdict
        );
    }
    for w in report.workloads.iter().filter(|w| !w.clean()) {
        println!("\n## {} races", w.name);
        if let Some(min) = &w.minimized {
            println!("minimized reproducer: {min}");
        }
        print!("{}", w.report);
    }
    for w in &report.workloads {
        print_degradations(&w.name, w.partial, &w.uncovered, &w.quarantined);
    }
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("rader: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote {path}");
    }
    if report.has_races() {
        std::process::exit(1);
    }
}

fn cmd_synth(o: &SynthOpts) {
    let cfg = GenConfig {
        view_aliasing: o.aliasing,
        ..GenConfig::default()
    };
    let prog = gen_program(o.seed, &cfg);
    println!("program (seed {}): {:?}\n", o.seed, prog.body);
    let sweep = coverage::exhaustive_check(
        |cx| {
            run_synth(cx, &prog);
        },
        &CoverageOptions::default(),
    );
    println!(
        "exhaustive check: {} SP+ runs (K = {}, M = {})",
        sweep.runs, sweep.k, sweep.m
    );
    print!("{}", sweep.report);
    let vr = Rader::new().check_view_read(|cx| {
        run_synth(cx, &prog);
    });
    if vr.has_races() {
        print!("{vr}");
    }
    if o.dot {
        let mut rec = TraceRecorder::new();
        SerialEngine::new().run_tool(&mut rec, |cx| {
            run_synth(cx, &prog);
        });
        let hb = HbGraph::build(&rec.events);
        println!("\n{}", hb.to_dot(&format!("synth-{}", o.seed)));
    }
}

fn cmd_exhaustive(o: &ExhaustiveOpts) {
    // --reexecute turns off the record-once/replay-many fast path and
    // re-runs the user program for every steal specification instead.
    let opts = CoverageOptions {
        replay: !o.reexecute,
        max_k: o.max_k,
        max_spawn_count: o.max_spawn_count,
        ..CoverageOptions::default()
    };
    let threads = o.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let ctl = SweepControl {
        checkpoint: match (&o.resume, &o.checkpoint) {
            (Some(path), _) => CheckpointPolicy::Resume(path.into()),
            (None, Some(path)) => CheckpointPolicy::Record(path.into()),
            (None, None) => CheckpointPolicy::Off,
        },
        budget: o.budget.map(Duration::from_secs_f64),
        faults: build_faults(o.fault_seed, &o.fault_panic_at),
        label: "fig1-exhaustive".to_string(),
    };
    let sweep = match coverage::exhaustive_check_parallel_ctl(
        |cx| {
            fig1::race_program(cx, 12);
        },
        &opts,
        threads,
        &ctl,
    ) {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("rader: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{} SP+ runs ({} replayed from trace; K = {}, M = {}; \
         record {}, sweep {} on {} thread(s), merge {}); \
         {} specification(s) exposed races:\n",
        sweep.runs,
        sweep.replayed,
        sweep.k,
        sweep.m,
        fmt_ms(sweep.timing.record_ns),
        fmt_ms(sweep.timing.sweep_ns),
        threads,
        fmt_ms(sweep.timing.merge_ns),
        sweep.findings.len()
    );
    for (i, (spec, report)) in sweep.findings.iter().enumerate() {
        let minimal = coverage::minimize_spec(
            |cx| {
                fig1::race_program(cx, 12);
            },
            spec,
        );
        println!("--- finding {i}: reproduce with {spec:?}");
        if &minimal != spec {
            println!("    minimized reproducer: {minimal:?}");
        }
        print!("{report}");
    }
    print_degradations("fig1", sweep.partial, &sweep.uncovered, &sweep.quarantined);
}

fn cmd_json_check(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rader: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = suite::validate_json(&text) {
        eprintln!("rader: {path}: invalid JSON: {e}");
        std::process::exit(1);
    }
    // Versioned reports (suite/sweep output, checkpoint-adjacent JSON)
    // must match this binary's schema; unversioned documents pass as
    // plain JSON.
    match suite::embedded_schema_version(&text) {
        Err(e) => {
            eprintln!("rader: {path}: {e}");
            std::process::exit(1);
        }
        Ok(Some(v)) if v != u64::from(SCHEMA_VERSION) => {
            eprintln!(
                "rader: {path}: schema_version {v} does not match this \
                 binary's {SCHEMA_VERSION}"
            );
            std::process::exit(1);
        }
        Ok(Some(v)) => println!("{path}: valid JSON (schema_version {v})"),
        Ok(None) => println!("{path}: valid JSON"),
    }
}

fn cmd_dot(steals: bool) {
    use rader_cilk::synth::SynthAdd;
    use std::sync::Arc;
    let spec = if steals {
        StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3]))
    } else {
        StealSpec::None
    };
    let mut rec = TraceRecorder::new();
    SerialEngine::with_spec(spec).run_tool(&mut rec, |cx| {
        // The Figure-2 shape with a reducer, so --steals shows the
        // Figure-5 reduce tree.
        let h = cx.new_reducer(Arc::new(SynthAdd));
        cx.spawn(move |cx| cx.reducer_update(h, &[1]));
        cx.reducer_update(h, &[2]);
        cx.spawn(move |cx| {
            cx.spawn(move |cx| cx.reducer_update(h, &[4]));
            cx.reducer_update(h, &[8]);
            cx.sync();
        });
        cx.reducer_update(h, &[16]);
        cx.spawn(move |cx| cx.reducer_update(h, &[32]));
        cx.reducer_update(h, &[64]);
        cx.sync();
        let _ = cx.reducer_get_view(h);
    });
    let hb = HbGraph::build(&rec.events);
    println!("{}", hb.to_dot("figure2"));
}
