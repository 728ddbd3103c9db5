//! Command-line parsing for the `rader` binary.
//!
//! Parsing is a pure function from argument vector to [`Command`] so it
//! can be unit-tested without spawning the binary. Malformed values are
//! hard errors, not silent defaults: `rader synth --seed abc` used to run
//! seed 0 with no warning, which is exactly the kind of quiet
//! misconfiguration a race detector must not have (a "clean" verdict for
//! a program you did not mean to check). Every error names the offending
//! flag; `main` prints it and exits 2.

use std::fmt::Display;
use std::str::FromStr;

/// Usage string shown on `rader help` and after a parse error.
pub const USAGE: &str = "usage: rader <command> [options]
  fig1                         detect the paper's Figure-1 races
  suite [--paper] [--racy] [--json PATH] [--threads N]
        [--max-k N] [--max-spawn-count N] [--reexecute]
        [--checkpoint PATH | --resume PATH] [--budget SECS]
        [--fault-seed N] [--fault-panic-at N]
                               run the benchmark table under the full
                               Section-7 sweep; exit 1 if races found.
                               --checkpoint journals completed chunks to
                               PATH.<workload>.ckpt; --resume validates
                               and continues such journals; --budget
                               stops each sweep at the deadline with a
                               partial (explicitly under-approximate)
                               verdict; --fault-seed/--fault-panic-at
                               inject deterministic worker faults
  synth --seed N [--aliasing] [--dot]
                               generate & exhaustively check a random program
  exhaustive [--reexecute] [--threads N] [--max-k N] [--max-spawn-count N]
             [--checkpoint PATH | --resume PATH] [--budget SECS]
             [--fault-seed N] [--fault-panic-at N]
                               Section-7 sweep on Figure 1 with reproducer specs
  dot [--steals]               print the Figure-2 example dag as Graphviz
  json-check PATH              validate that PATH parses as JSON and, for
                               versioned reports, that schema_version
                               matches this binary (CI helper)";

/// A fully parsed invocation of the `rader` binary.
///
/// (`PartialEq` only: the `--budget` operand is an `f64`.)
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `rader fig1`
    Fig1,
    /// `rader suite ...`
    Suite(SuiteOpts),
    /// `rader synth ...`
    Synth(SynthOpts),
    /// `rader exhaustive ...`
    Exhaustive(ExhaustiveOpts),
    /// `rader dot [--steals]`
    Dot {
        /// Render the dag under a stealing schedule (Figure-5 reduce tree).
        steals: bool,
    },
    /// `rader json-check PATH`
    JsonCheck {
        /// File whose contents must parse as JSON.
        path: String,
    },
    /// `rader help` (or no arguments).
    Help,
}

/// Options for `rader suite`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuiteOpts {
    /// Paper-scale inputs instead of test-scale.
    pub paper: bool,
    /// Append the buggy Figure-1 workload to the table.
    pub racy: bool,
    /// Disable the record/replay fast path (re-execute per spec).
    pub reexecute: bool,
    /// Write per-workload JSON records to this path.
    pub json: Option<String>,
    /// Sweep threads (defaults to the machine's available parallelism).
    pub threads: Option<usize>,
    /// Cap on the reduce-family sync-block size `K`.
    pub max_k: Option<u32>,
    /// Cap on the update-family spawn count `M`.
    pub max_spawn_count: Option<u32>,
    /// Journal completed sweep chunks to `PATH.<workload>.ckpt`.
    pub checkpoint: Option<String>,
    /// Resume from (and keep appending to) `PATH.<workload>.ckpt`
    /// journals; mutually exclusive with `--checkpoint`.
    pub resume: Option<String>,
    /// Per-workload sweep wall-clock budget in seconds.
    pub budget: Option<f64>,
    /// Seed for the deterministic fault-injection plan.
    pub fault_seed: Option<u64>,
    /// Spec indices whose sweep runs are forced to panic (repeatable).
    pub fault_panic_at: Vec<usize>,
}

/// Options for `rader synth`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SynthOpts {
    /// Generator seed.
    pub seed: u64,
    /// Allow view-aliasing programs.
    pub aliasing: bool,
    /// Also print the computation dag as Graphviz.
    pub dot: bool,
}

/// Options for `rader exhaustive`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExhaustiveOpts {
    /// Disable the record/replay fast path.
    pub reexecute: bool,
    /// Sweep threads (defaults to the machine's available parallelism).
    pub threads: Option<usize>,
    /// Cap on the reduce-family sync-block size `K`.
    pub max_k: Option<u32>,
    /// Cap on the update-family spawn count `M`.
    pub max_spawn_count: Option<u32>,
    /// Journal completed sweep chunks to this file.
    pub checkpoint: Option<String>,
    /// Resume from (and keep appending to) this journal file; mutually
    /// exclusive with `--checkpoint`.
    pub resume: Option<String>,
    /// Sweep wall-clock budget in seconds.
    pub budget: Option<f64>,
    /// Seed for the deterministic fault-injection plan.
    pub fault_seed: Option<u64>,
    /// Spec indices whose sweep runs are forced to panic (repeatable).
    pub fault_panic_at: Vec<usize>,
}

/// Parse a `--flag value` numeric operand at `args[*i + 1]`, advancing
/// the cursor past it. The error names the flag and quotes the value.
fn take_number<T>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse()
        .map_err(|e| format!("{flag} value {v:?} is not a valid number: {e}"))
}

/// As [`take_number`] but additionally rejecting zero (thread and cap
/// counts where 0 is always a typo). Parsing straight into the target
/// type rejects out-of-range values instead of wrapping them.
fn take_positive<T>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T: FromStr + PartialEq + From<u8>,
    T::Err: Display,
{
    let n: T = take_number(args, i, flag)?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn take_path(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a file path"))
}

/// Parse `--budget SECS`: a finite, non-negative float. (Zero is legal —
/// it stops the sweep right after the record pass, which is how tests
/// pin the fully-partial report.) `f64::from_str` accepts "NaN" and
/// "inf", so those are rejected here, not by the number parser.
fn take_budget(args: &[String], i: &mut usize) -> Result<f64, String> {
    let secs: f64 = take_number(args, i, "--budget")?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "--budget must be a finite number of seconds >= 0, got {secs}"
        ));
    }
    Ok(secs)
}

/// `--checkpoint` and `--resume` are mutually exclusive (a resumed sweep
/// already appends new checkpoints to the same journal).
fn reject_checkpoint_resume(
    checkpoint: &Option<String>,
    resume: &Option<String>,
) -> Result<(), String> {
    if checkpoint.is_some() && resume.is_some() {
        return Err(
            "--checkpoint and --resume are mutually exclusive (resume already \
             appends new checkpoints to the journal it continues)"
                .to_string(),
        );
    }
    Ok(())
}

fn parse_suite(args: &[String]) -> Result<SuiteOpts, String> {
    let mut o = SuiteOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--paper" => o.paper = true,
            "--racy" => o.racy = true,
            "--reexecute" => o.reexecute = true,
            "--json" => o.json = Some(take_path(args, &mut i, "--json")?),
            "--threads" => o.threads = Some(take_positive(args, &mut i, "--threads")?),
            "--max-k" => o.max_k = Some(take_positive(args, &mut i, "--max-k")?),
            "--max-spawn-count" => {
                o.max_spawn_count = Some(take_positive(args, &mut i, "--max-spawn-count")?)
            }
            "--checkpoint" => o.checkpoint = Some(take_path(args, &mut i, "--checkpoint")?),
            "--resume" => o.resume = Some(take_path(args, &mut i, "--resume")?),
            "--budget" => o.budget = Some(take_budget(args, &mut i)?),
            "--fault-seed" => o.fault_seed = Some(take_number(args, &mut i, "--fault-seed")?),
            "--fault-panic-at" => {
                o.fault_panic_at
                    .push(take_number(args, &mut i, "--fault-panic-at")?)
            }
            other => return Err(format!("unknown argument {other:?} for `rader suite`")),
        }
        i += 1;
    }
    reject_checkpoint_resume(&o.checkpoint, &o.resume)?;
    Ok(o)
}

fn parse_synth(args: &[String]) -> Result<SynthOpts, String> {
    let mut o = SynthOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => o.seed = take_number(args, &mut i, "--seed")?,
            "--aliasing" => o.aliasing = true,
            "--dot" => o.dot = true,
            other => return Err(format!("unknown argument {other:?} for `rader synth`")),
        }
        i += 1;
    }
    Ok(o)
}

fn parse_exhaustive(args: &[String]) -> Result<ExhaustiveOpts, String> {
    let mut o = ExhaustiveOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--reexecute" => o.reexecute = true,
            "--threads" => o.threads = Some(take_positive(args, &mut i, "--threads")?),
            "--max-k" => o.max_k = Some(take_positive(args, &mut i, "--max-k")?),
            "--max-spawn-count" => {
                o.max_spawn_count = Some(take_positive(args, &mut i, "--max-spawn-count")?)
            }
            "--checkpoint" => o.checkpoint = Some(take_path(args, &mut i, "--checkpoint")?),
            "--resume" => o.resume = Some(take_path(args, &mut i, "--resume")?),
            "--budget" => o.budget = Some(take_budget(args, &mut i)?),
            "--fault-seed" => o.fault_seed = Some(take_number(args, &mut i, "--fault-seed")?),
            "--fault-panic-at" => {
                o.fault_panic_at
                    .push(take_number(args, &mut i, "--fault-panic-at")?)
            }
            other => return Err(format!("unknown argument {other:?} for `rader exhaustive`")),
        }
        i += 1;
    }
    reject_checkpoint_resume(&o.checkpoint, &o.resume)?;
    Ok(o)
}

fn parse_dot(args: &[String]) -> Result<Command, String> {
    let mut steals = false;
    for a in &args[1..] {
        match a.as_str() {
            "--steals" => steals = true,
            other => return Err(format!("unknown argument {other:?} for `rader dot`")),
        }
    }
    Ok(Command::Dot { steals })
}

/// Parse the full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "fig1" => match args.get(1) {
            None => Ok(Command::Fig1),
            Some(other) => Err(format!("unknown argument {other:?} for `rader fig1`")),
        },
        "suite" => parse_suite(args).map(Command::Suite),
        "synth" => parse_synth(args).map(Command::Synth),
        "exhaustive" => parse_exhaustive(args).map(Command::Exhaustive),
        "dot" => parse_dot(args),
        "json-check" => match (args.get(1), args.get(2)) {
            (Some(path), None) => Ok(Command::JsonCheck { path: path.clone() }),
            (None, _) => Err("json-check requires a file path".to_string()),
            (_, Some(extra)) => Err(format!("unknown argument {extra:?} for `rader json-check`")),
        },
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn well_formed_commands_parse() {
        assert_eq!(parse_strs(&[]), Ok(Command::Help));
        assert_eq!(parse_strs(&["fig1"]), Ok(Command::Fig1));
        assert_eq!(parse_strs(&["dot"]), Ok(Command::Dot { steals: false }));
        assert_eq!(
            parse_strs(&["dot", "--steals"]),
            Ok(Command::Dot { steals: true })
        );
        let Ok(Command::Synth(o)) = parse_strs(&["synth", "--seed", "42", "--aliasing"]) else {
            panic!("synth did not parse");
        };
        assert_eq!(o.seed, 42);
        assert!(o.aliasing && !o.dot);
        let Ok(Command::Suite(o)) = parse_strs(&[
            "suite",
            "--json",
            "out.json",
            "--threads",
            "4",
            "--max-k",
            "6",
            "--racy",
        ]) else {
            panic!("suite did not parse");
        };
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.max_k, Some(6));
        assert!(o.racy && !o.paper);
    }

    #[test]
    fn checkpoint_budget_and_fault_flags_parse() {
        let Ok(Command::Suite(o)) = parse_strs(&[
            "suite",
            "--checkpoint",
            "target/ckpt",
            "--budget",
            "2.5",
            "--fault-seed",
            "7",
            "--fault-panic-at",
            "2",
            "--fault-panic-at",
            "5",
        ]) else {
            panic!("suite fault-tolerance flags did not parse");
        };
        assert_eq!(o.checkpoint.as_deref(), Some("target/ckpt"));
        assert_eq!(o.resume, None);
        assert_eq!(o.budget, Some(2.5));
        assert_eq!(o.fault_seed, Some(7));
        assert_eq!(o.fault_panic_at, vec![2, 5]);
        let Ok(Command::Exhaustive(o)) =
            parse_strs(&["exhaustive", "--resume", "sweep.ckpt", "--budget", "0"])
        else {
            panic!("exhaustive fault-tolerance flags did not parse");
        };
        assert_eq!(o.resume.as_deref(), Some("sweep.ckpt"));
        assert_eq!(o.budget, Some(0.0));
    }

    #[test]
    fn checkpoint_and_resume_are_mutually_exclusive() {
        for cmd in ["suite", "exhaustive"] {
            let err = parse_strs(&[cmd, "--checkpoint", "a", "--resume", "b"]).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{cmd}: {err}");
        }
    }

    #[test]
    fn malformed_budgets_are_errors() {
        for bad in ["-1", "NaN", "inf", "abc"] {
            let err = parse_strs(&["suite", "--budget", bad]).unwrap_err();
            assert!(err.contains("--budget"), "{bad}: {err}");
        }
        let err = parse_strs(&["suite", "--budget"]).unwrap_err();
        assert!(err.contains("--budget requires a value"), "{err}");
        let err = parse_strs(&["suite", "--fault-panic-at", "x"]).unwrap_err();
        assert!(err.contains("--fault-panic-at"), "{err}");
    }

    #[test]
    fn malformed_seed_is_an_error_naming_the_flag() {
        // The headline satellite bug: `--seed abc` used to silently run
        // seed 0.
        let err = parse_strs(&["synth", "--seed", "abc"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(err.contains("abc"), "{err}");
        let err = parse_strs(&["synth", "--seed"]).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
    }

    #[test]
    fn malformed_threads_and_caps_are_errors() {
        let err = parse_strs(&["suite", "--threads", "0x"]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("0x"), "{err}");
        let err = parse_strs(&["suite", "--threads", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_strs(&["suite", "--max-k"]).unwrap_err();
        assert!(err.contains("--max-k requires a value"), "{err}");
        let err = parse_strs(&["exhaustive", "--max-spawn-count", "-1"]).unwrap_err();
        assert!(err.contains("--max-spawn-count"), "{err}");
        let err = parse_strs(&["suite", "--json"]).unwrap_err();
        assert!(err.contains("--json requires a file path"), "{err}");
        // 2^32 must not wrap to a cap of 0.
        for cmd in ["suite", "exhaustive"] {
            for flag in ["--max-k", "--max-spawn-count"] {
                let err = parse_strs(&[cmd, flag, "4294967296"]).unwrap_err();
                assert!(err.contains(flag), "{cmd} {flag}: {err}");
                assert!(err.contains("4294967296"), "{cmd} {flag}: {err}");
            }
        }
    }

    #[test]
    fn unknown_subcommands_and_flags_are_errors() {
        let err = parse_strs(&["sweep"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        assert!(err.contains("sweep"), "{err}");
        let err = parse_strs(&["suite", "--jsn", "x"]).unwrap_err();
        assert!(err.contains("--jsn"), "{err}");
        let err = parse_strs(&["fig1", "--verbose"]).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
        for args in [&["suite", "--strided"][..], &["suite", "--chunk", "8"]] {
            let err = parse_strs(args).unwrap_err();
            assert!(err.contains(args[1]), "{args:?}: {err}");
        }
    }
}
