//! The `rader suite` pipeline: per-workload verdicts from the full
//! Section-7 sweep.
//!
//! The suite used to run each workload once uninstrumented (statistics),
//! once under Peer-Set, and once under SP+ with a single
//! `StealSpec::Random` schedule — three executions, one schedule, and a
//! verdict that was silently a *single-schedule* claim: a race hiding in
//! a reduce strand that schedule never elicits got printed as "clean".
//! This module replaces that with the paper's actual pipeline:
//!
//! 1. **One instrumented Peer-Set run** per workload. `run_tool` returns
//!    the engine's [`RunStats`](rader_cilk::RunStats), so this run doubles as the statistics
//!    pass (the old separate uninstrumented run was pure waste) and
//!    yields the view-read verdict.
//! 2. **The Section-7 exhaustive SP+ sweep**
//!    ([`rader_core::exhaustive_check_parallel_ctl`], configured by
//!    [`SweepOpts::configure`]): record once under the
//!    no-steal schedule (which is itself the first detection run), then
//!    replay the trace under every Theorem-6/7 specification, falling
//!    back to re-execution on divergence. The sweep is parallel across
//!    specs with work-queue balancing.
//! 3. Merge both reports into the workload's verdict.
//!
//! **Verdict semantics.** "clean" means: no view-read race on the serial
//! schedule, and no determinacy race under *any* steal specification in
//! the swept families — the paper's coverage guarantee for ostensibly
//! deterministic programs (view-oblivious instructions fixed across
//! schedules, semantically associative reduces), capped by `--max-k` /
//! `--max-spawn-count` when given. "RACES" is witnessed by a concrete
//! specification stored in the sweep's findings and is therefore
//! deterministically reproducible.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rader_cilk::SerialEngine;
use rader_core::{
    coverage::{self, json_escape},
    ExhaustiveReport, PeerSet, RaceReport, SCHEMA_VERSION,
};
use rader_workloads::Workload;

use crate::cli::SweepOpts;

/// One workload's row in the suite report.
#[derive(Debug)]
pub struct WorkloadVerdict {
    /// Workload name (paper table name).
    pub name: String,
    /// Frames instantiated by one run.
    pub frames: u64,
    /// Instrumented memory accesses (reads + writes) in one run.
    pub accesses: u64,
    /// Total distinct races across both detectors.
    pub races: usize,
    /// ddmin-minimized reproducer spec for the first racy finding
    /// (`None` when the workload is clean). Deterministic: the sweep's
    /// findings are in spec order and the minimizer is greedy.
    pub minimized: Option<String>,
    /// Peer-Set membership checks performed.
    pub peer_set_checks: u64,
    /// Wall-clock for the workload end to end, nanoseconds.
    pub wall_ns: u64,
    /// Merged Peer-Set + sweep race report.
    pub report: RaceReport,
    /// The Section-7 sweep: its runs, claims, `K` and `M`, SP+ checks,
    /// partial coverage, quarantine and per-phase timing.
    pub sweep: ExhaustiveReport,
}

impl WorkloadVerdict {
    /// `true` when no race of either kind was found.
    pub fn clean(&self) -> bool {
        self.races == 0
    }
}

/// The whole table: one verdict per workload.
#[derive(Debug, Default)]
pub struct SuiteReport {
    /// Per-workload verdicts, in input order.
    pub workloads: Vec<WorkloadVerdict>,
}

impl SuiteReport {
    /// `true` if any workload's verdict is RACES.
    pub fn has_races(&self) -> bool {
        self.workloads.iter().any(|w| !w.clean())
    }

    /// Serialize as a JSON object: a `schema_version` (shared with the
    /// checkpoint-journal format, so format changes are detectable by
    /// `rader json-check`) plus the per-workload records (stable key
    /// order, no external dependencies — same hand-rolled style as the
    /// bench harness serializer).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema_version\": {SCHEMA_VERSION}, \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let sweep = &w.sweep;
            let minimized = match &w.minimized {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".to_string(),
            };
            let uncovered = sweep
                .uncovered
                .iter()
                .map(|u| format!("\"{}\"", json_escape(u)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"clean\": {}, \"races\": {}, \"runs\": {}, \
                 \"replayed\": {}, \"claims\": {}, \"k\": {}, \"m\": {}, \"frames\": {}, \
                 \"accesses\": {}, \"peer_set_checks\": {}, \"spplus_checks\": {}, \
                 \"minimized\": {}, \"partial\": {}, \"uncovered\": [{}], \
                 \"quarantined\": {}, \"wall_ns\": {}, \
                 \"record_ns\": {}, \"sweep_ns\": {}, \"merge_ns\": {}}}",
                json_escape(&w.name),
                w.clean(),
                w.races,
                sweep.runs,
                sweep.replayed,
                sweep.claims,
                sweep.k,
                sweep.m,
                w.frames,
                w.accesses,
                w.peer_set_checks,
                sweep.spplus_checks,
                minimized,
                sweep.partial,
                uncovered,
                sweep.quarantined.len(),
                w.wall_ns,
                sweep.timing.record_ns,
                sweep.timing.sweep_ns,
                sweep.timing.merge_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The per-workload journal path under a `--checkpoint`/`--resume` path
/// prefix: `{prefix}.{name}.ckpt`. Each workload gets its own journal
/// (its own spec plan, hence its own fingerprint); the workload name is
/// also the fingerprint label, so a journal can never be replayed into
/// the wrong workload even if the files are renamed.
fn journal_path(prefix: &Path, name: &str) -> PathBuf {
    let mut path = prefix.as_os_str().to_owned();
    path.push(format!(".{name}.ckpt"));
    path.into()
}

/// Check one workload: Peer-Set run (statistics + view-read verdict),
/// then the parallel Section-7 sweep, then merge.
///
/// Fails only on checkpoint-journal problems (unwritable journal, or a
/// `--resume` journal that is corrupt or from a different spec plan) —
/// those must abort loudly rather than silently re-sweep or, worse,
/// merge mismatched results.
pub fn check_workload(w: &Workload, opts: &SweepOpts) -> Result<WorkloadVerdict, String> {
    let wall = Instant::now();
    let mut peers = PeerSet::new();
    let stats = SerialEngine::new().run_tool(&mut peers, |cx| (w.run)(cx));
    let (cov, ctl) = opts.configure(w.name, |prefix| journal_path(prefix, w.name));
    let sweep =
        coverage::exhaustive_check_parallel_ctl(|cx| (w.run)(cx), &cov, opts.threads(), &ctl)?;
    let mut report = peers.report().clone();
    report.merge(&sweep.report);
    let races = report.determinacy.len() + report.view_read.len();
    // Minimize the first racy finding into a regression-ready reproducer
    // (the ROADMAP item): findings are in deterministic spec order and
    // ddmin is greedy, so the minimized spec is stable across runs.
    let minimized = sweep
        .findings
        .first()
        .map(|(spec, _)| format!("{:?}", coverage::minimize_spec(|cx| (w.run)(cx), spec)));
    Ok(WorkloadVerdict {
        name: w.name.to_string(),
        frames: stats.frames,
        accesses: stats.reads + stats.writes,
        races,
        minimized,
        peer_set_checks: peers.checks,
        wall_ns: wall.elapsed().as_nanos() as u64,
        report,
        sweep,
    })
}

/// Run the pipeline over every workload. Stops at the first
/// checkpoint-journal error (see [`check_workload`]).
pub fn run_suite(workloads: &[Workload], opts: &SweepOpts) -> Result<SuiteReport, String> {
    let mut out = Vec::with_capacity(workloads.len());
    for w in workloads {
        out.push(check_workload(w, opts)?);
    }
    Ok(SuiteReport { workloads: out })
}

/// Validate that `s` is well-formed JSON (one top-level value). A
/// dependency-free syntax check used by `rader json-check` so CI can
/// verify `--json` output even where no system JSON tool is installed.
/// Accepts exactly the grammar of RFC 8259, up to 128 levels of arrays
/// and objects; reports the byte offset of the first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    parse_value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(())
}

/// Extract the top-level `"schema_version"` member of a JSON object
/// document. Scans only the top-level keys (a nested `schema_version`
/// inside some other value is not a format marker). Returns `Ok(None)`
/// for non-objects and objects without the key; `rader json-check` then
/// treats the document as unversioned. A present key must hold a plain
/// non-negative integer that fits a `u64`: any other value (`-1`, `"2"`,
/// `2.0`, ...) is an error naming `schema_version`, never a silent
/// downgrade to unversioned. Call only on input [`validate_json`]
/// accepted.
pub fn embedded_schema_version(s: &str) -> Result<Option<u64>, String> {
    let Some(text) = top_level_member(s, "schema_version") else {
        return Ok(None);
    };
    match text.parse() {
        Ok(v) if text.bytes().all(|c| c.is_ascii_digit()) => Ok(Some(v)),
        _ => Err(format!(
            "schema_version must be a non-negative integer, got {text:.40}"
        )),
    }
}

/// The source text of the value of top-level member `key`, if `s` is an
/// object that has one.
fn top_level_member<'s>(s: &'s str, key: &str) -> Option<&'s str> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    loop {
        skip_ws(b, &mut i);
        if b.get(i) != Some(&b'"') {
            return None; // '}' of an empty/exhausted object, or junk
        }
        let key_start = i + 1;
        parse_string(b, &mut i).ok()?;
        let found = &s[key_start..i - 1] == key;
        skip_ws(b, &mut i);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(b, &mut i);
        let value_start = i;
        parse_value(b, &mut i, 1).ok()?;
        if found {
            return Some(&s[value_start..i]);
        }
        skip_ws(b, &mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            _ => return None,
        }
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

/// Deepest array/object nesting [`validate_json`] accepts. Suite reports
/// nest at most 4 deep; the cap bounds the recursive parser's stack on
/// hostile input, which is rejected like any other invalid JSON.
const MAX_NESTING: usize = 128;

/// Parse one value at `b[*i..]`, which sits inside `depth` enclosing
/// arrays and objects.
fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<(), String> {
    match b.get(*i) {
        None => Err(format!("unexpected end of input at byte {i}")),
        Some(b'{' | b'[') if depth >= MAX_NESTING => {
            Err(format!("nesting deeper than {MAX_NESTING} at byte {i}"))
        }
        Some(b'{') => parse_object(b, i, depth + 1),
        Some(b'[') => parse_array(b, i, depth + 1),
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, "true"),
        Some(b'f') => parse_lit(b, i, "false"),
        Some(b'n') => parse_lit(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at byte {i}", *c as char)),
    }
}

fn parse_object(b: &[u8], i: &mut usize, depth: usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key string at byte {i}"));
        }
        parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        *i += 1;
        skip_ws(b, i);
        parse_value(b, i, depth)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

fn parse_array(b: &[u8], i: &mut usize, depth: usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        parse_value(b, i, depth)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}")),
        }
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '"'
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        for k in 1..=4 {
                            if !b.get(*i + k).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {i}"));
                            }
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            c if c < 0x20 => return Err(format!("unescaped control byte at byte {i}")),
            _ => *i += 1,
        }
    }
    Err(format!("unterminated string at byte {i}"))
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > s
    };
    let int_start = *i;
    if !digits(b, i) {
        return Err(format!("expected digits at byte {start}"));
    }
    if b[int_start] == b'0' && *i - int_start > 1 {
        return Err(format!("leading zero at byte {int_start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("expected fraction digits at byte {i}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("expected exponent digits at byte {i}"));
        }
    }
    Ok(())
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_workloads::{fig1, Scale};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn workload_body_executes_exactly_twice() {
        // The redundant-execution satellite: the old suite ran every
        // workload three times (stats, Peer-Set, SP+). The pipeline runs
        // it exactly twice — the instrumented Peer-Set run (which also
        // provides the statistics) and the sweep's record pass; every
        // sweep spec is then served by trace replay, which never re-runs
        // user closures.
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let w = rader_workloads::Workload {
            name: "counting",
            run: Box::new(move |cx| {
                c.fetch_add(1, Ordering::Relaxed);
                let h = cx.new_reducer(Arc::new(rader_cilk::synth::SynthAdd));
                for i in 0..4 {
                    cx.spawn(move |cx| cx.reducer_update(h, &[i]));
                }
                cx.sync();
            }),
        };
        let v = check_workload(&w, &SweepOpts::default()).expect("no journal is configured");
        assert_eq!(
            count.load(Ordering::Relaxed),
            2,
            "suite must execute the body exactly twice (Peer-Set + record)"
        );
        assert!(v.sweep.runs > 1, "sweep must cover multiple specs");
        assert_eq!(
            v.sweep.replayed, v.sweep.runs,
            "all sweep runs should replay"
        );
        assert!(v.clean(), "{}", v.report);
        assert!(!v.sweep.partial, "an unbudgeted sweep is never partial");
        assert!(v.sweep.uncovered.is_empty() && v.sweep.quarantined.is_empty());
    }

    #[test]
    fn suite_json_is_valid_and_round_trips_field_names() {
        let ws = vec![fig1::workload(Scale::Small)];
        let rep = run_suite(&ws, &SweepOpts::default()).unwrap();
        let json = rep.to_json();
        validate_json(&json).expect("suite JSON must parse");
        for key in [
            "\"schema_version\"",
            "\"name\"",
            "\"clean\"",
            "\"races\"",
            "\"runs\"",
            "\"replayed\"",
            "\"k\"",
            "\"m\"",
            "\"peer_set_checks\"",
            "\"spplus_checks\"",
            "\"partial\"",
            "\"uncovered\"",
            "\"quarantined\"",
            "\"wall_ns\"",
            "\"record_ns\"",
            "\"sweep_ns\"",
            "\"merge_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            embedded_schema_version(&json),
            Ok(Some(u64::from(SCHEMA_VERSION))),
            "suite JSON must carry the shared schema version"
        );
        assert!(!rep.has_races());
    }

    #[test]
    fn embedded_schema_version_scans_top_level_only() {
        assert_eq!(
            embedded_schema_version("{\"schema_version\": 7, \"x\": 1}"),
            Ok(Some(7))
        );
        assert_eq!(
            embedded_schema_version("{\"x\": [1, 2], \"schema_version\": 3}"),
            Ok(Some(3))
        );
        // Nested occurrences are not format markers.
        assert_eq!(
            embedded_schema_version("{\"x\": {\"schema_version\": 9}}"),
            Ok(None)
        );
        assert_eq!(
            embedded_schema_version("[{\"schema_version\": 9}]"),
            Ok(None)
        );
        assert_eq!(embedded_schema_version("{}"), Ok(None));
        assert_eq!(embedded_schema_version("42"), Ok(None));
        // A present key that is not a plain u64 is an error, not "unversioned".
        for bad in [
            "-1",
            "\"2\"",
            "2.0",
            "2e0",
            "null",
            "[2]",
            "18446744073709551616",
        ] {
            let doc = format!("{{\"schema_version\": {bad}}}");
            let err = embedded_schema_version(&doc).unwrap_err();
            assert!(err.contains("schema_version"), "{doc}: {err}");
        }
    }

    #[test]
    fn validate_json_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2.5e-3, \"x\\n\", true, null]}").unwrap();
        validate_json("[]").unwrap();
        validate_json("  42  ").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01x").is_err());
        // RFC 8259: no leading zeros, signed or not.
        for bad in ["[01]", "-01", "00", "[1, 007]", "{\"a\": 00.5}"] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
        for good in ["0", "-0", "[0.01]", "0e5", "10", "-100.001"] {
            validate_json(good).unwrap();
        }
        assert!(validate_json("[1] trailing").is_err());
        // Nesting is capped, not bounded by the stack: 128 levels parse,
        // the 129th opener is named, and a hostile 200,000-deep document
        // fails the same way instead of overflowing the stack.
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        validate_json(&nested(MAX_NESTING)).unwrap();
        validate_json(&format!("{{\"a\": {}}}", nested(MAX_NESTING - 1))).unwrap();
        let err = validate_json(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let err = validate_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn racy_workload_is_flagged() {
        let ws = vec![fig1::workload_racy(Scale::Small)];
        let rep = run_suite(&ws, &SweepOpts::default()).unwrap();
        assert!(rep.has_races(), "suite must flag the buggy Figure-1 entry");
        let json = rep.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"clean\": false"));
    }
}
