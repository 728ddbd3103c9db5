#![forbid(unsafe_code)]
//! `rader` — command-line interface to the race detector.
//!
//! Run `rader help` for usage. Exit codes: 0 clean, 1 races found
//! (`suite`), 2 usage error, 141 stdout closed before the output ended.

use std::path::Path;

use rader::cli::{self, Command, SuiteOpts, SweepOpts, SynthOpts};
use rader::core::{
    check, coverage, CoverageOptions, ExhaustiveReport, PeerSet, SpPlus, SweepControl,
    SCHEMA_VERSION,
};
use rader::suite;
use rader::workloads::{self, fig1, Scale};
use rader_cilk::synth::{gen_program, run_synth, GenConfig};
use rader_cilk::{BlockScript, SerialEngine, StealSpec};
use rader_dag::{HbGraph, TraceRecorder};

/// `print!` that ends the process quietly when stdout is closed.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` that ends the process quietly when stdout is closed.
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// Write to stdout. `print!` panics when the reader of a pipe has gone
/// (`rader exhaustive | head -1`); here a closed stdout ends the process
/// quietly instead, with the status 141 a shell reports for a process
/// that SIGPIPE killed, so the run never reads as a clean verdict. Any
/// other write error exits 2 naming it.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("rader: cannot write to stdout: {e}");
        std::process::exit(2);
    }
}

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
        Command::Help => outln!("{}", cli::USAGE),
    }
}

fn cmd_fig1() {
    outln!("## Peer-Set on update_list with a premature get_value");
    let mut peers = PeerSet::new();
    SerialEngine::new().run_tool(&mut peers, |cx| fig1::update_list_premature_get(cx, 8));
    out!("{}", peers.report());
    // SP+ on one schedule, the one that makes the Figure-1 race bite.
    let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
    outln!("\n## SP+ on the shallow-copy race() (stealing continuation 1)");
    let mut sp = SpPlus::new();
    SerialEngine::with_spec(spec.clone()).run_tool(&mut sp, |cx| {
        fig1::race_program(cx, 16);
    });
    out!("{}", sp.report());
    outln!("\n## SP+ on the deep-copy fix (same schedule)");
    let mut sp = SpPlus::new();
    SerialEngine::with_spec(spec).run_tool(&mut sp, |cx| {
        fig1::race_program_fixed(cx, 16);
    });
    out!("{}", sp.report());
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1}ms", ns as f64 / 1e6)
}

/// Print the partial-coverage and quarantine sections for one verdict's
/// worth of sweep degradations (shared by `suite` and `exhaustive`).
fn print_degradations(name: &str, sweep: &ExhaustiveReport) {
    if sweep.partial {
        outln!("\n## {name}: partial coverage (budget deadline hit)");
        for u in &sweep.uncovered {
            outln!("  uncovered: {u}");
        }
    }
    if !sweep.quarantined.is_empty() {
        outln!("\n## {name}: quarantined specs (worker panics isolated)");
        for q in &sweep.quarantined {
            outln!("  spec {} {:?}: {}", q.spec_index, q.spec, q.payload);
            outln!("    minimized: {:?}", q.minimized);
        }
    }
}

fn cmd_suite(o: &SuiteOpts) {
    let scale = if o.paper { Scale::Paper } else { Scale::Small };
    let mut table = workloads::suite(scale);
    if o.racy {
        table.push(fig1::workload_racy(scale));
    }
    let report = match suite::run_suite(&table, &o.sweep) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rader: {e}");
            std::process::exit(2);
        }
    };
    outln!(
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
        let v = &w.verdict;
        let sweep = &v.sweep;
        let mut verdict = if v.clean() {
            "clean".to_string()
        } else {
            format!("RACES ({})", v.races())
        };
        if sweep.partial {
            verdict.push_str(" [partial]");
        }
        if !sweep.quarantined.is_empty() {
            verdict.push_str(&format!(" [quarantined {}]", sweep.quarantined.len()));
        }
        outln!(
            "{:<10} {:>8} {:>10} {:>6} {:>8} {:>6} {:>4} {:>4} {:>10} {:>11} {:>9} {:>9} {:>8}  {}",
            w.name,
            v.stats.frames,
            v.stats.reads + v.stats.writes,
            sweep.runs,
            sweep.replayed,
            sweep.claims,
            sweep.k,
            sweep.m,
            v.peer_set_checks,
            sweep.spplus_checks,
            fmt_ms(sweep.timing.record_ns),
            fmt_ms(sweep.timing.sweep_ns),
            fmt_ms(sweep.timing.merge_ns),
            verdict
        );
    }
    for w in report.workloads.iter().filter(|w| !w.verdict.clean()) {
        outln!("\n## {} races", w.name);
        if let Some(min) = &w.verdict.minimized {
            outln!("minimized reproducer: {min:?}");
        }
        out!("{}", w.verdict.report);
    }
    for w in &report.workloads {
        print_degradations(&w.name, &w.verdict.sweep);
    }
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("rader: cannot write {path}: {e}");
            std::process::exit(2);
        }
        outln!("\nwrote {path}");
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
    outln!("program (seed {}): {:?}\n", o.seed, prog.body);
    let program = |cx: &mut rader_cilk::Ctx<'_>| {
        run_synth(cx, &prog);
    };
    let v = check(
        program,
        &CoverageOptions::default(),
        1,
        &SweepControl::default(),
    )
    .expect("a sweep without a checkpoint journal cannot fail");
    outln!(
        "exhaustive check: {} SP+ runs (K = {}, M = {})",
        v.sweep.runs,
        v.sweep.k,
        v.sweep.m
    );
    out!("{}", v.report);
    if let Some(min) = &v.minimized {
        outln!("minimized reproducer: {min:?}");
    }
    if o.dot {
        let mut rec = TraceRecorder::new();
        SerialEngine::new().run_tool(&mut rec, |cx| {
            run_synth(cx, &prog);
        });
        let hb = HbGraph::build(&rec.events);
        outln!("\n{}", hb.to_dot(&format!("synth-{}", o.seed)));
    }
}

fn cmd_exhaustive(o: &SweepOpts) {
    let (opts, ctl) = o.configure("fig1-exhaustive", Path::to_path_buf);
    let sweep = match coverage::exhaustive_check_parallel_ctl(
        |cx| {
            fig1::race_program(cx, 12);
        },
        &opts,
        o.threads(),
        &ctl,
    ) {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("rader: {e}");
            std::process::exit(2);
        }
    };
    outln!(
        "{} SP+ runs ({} replayed from trace, {} access checks pruned, \
         {} forked and {} from event 0 feeding {} events, {} fallback(s); \
         K = {}, M = {}; record {}, sweep {} on {} worker(s), merge {}); \
         {} specification(s) exposed races:\n",
        sweep.runs,
        sweep.replayed,
        sweep.pruned,
        sweep.forked,
        sweep.scratch,
        sweep.replayed_events,
        sweep.fallbacks.len(),
        sweep.k,
        sweep.m,
        fmt_ms(sweep.timing.record_ns),
        fmt_ms(sweep.timing.sweep_ns),
        sweep.workers,
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
        outln!("--- finding {i}: reproduce with {spec:?}");
        if &minimal != spec {
            outln!("    minimized reproducer: {minimal:?}");
        }
        out!("{report}");
    }
    print_degradations("fig1", &sweep);
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
        Ok(Some(v)) => outln!("{path}: valid JSON (schema_version {v})"),
        Ok(None) => outln!("{path}: valid JSON"),
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
    outln!("{}", hb.to_dot("figure2"));
}
