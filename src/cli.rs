//! Command-line parsing for the `rader` binary.
//!
//! Parsing is a pure function from argument vector to [`Command`] so it
//! can be unit-tested without spawning the binary. Malformed values are
//! hard errors, not silent defaults: `rader synth --seed abc` used to run
//! seed 0 with no warning, which is exactly the kind of quiet
//! misconfiguration a race detector must not have (a "clean" verdict for
//! a program you did not mean to check). Every error names the offending
//! flag; `main` prints it and exits 2.
//!
//! `suite` and `exhaustive` share their sweep flags: one match arm per
//! flag in `SweepOpts::take_flag`, one [`SweepOpts`] value carried from
//! argv to the sweep, and one conversion ([`SweepOpts::configure`]) into
//! the sweep's [`CoverageOptions`] and [`SweepControl`].

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use rader_core::{CheckpointPolicy, CoverageOptions, FaultPlan, SweepControl};

/// Usage string shown on `rader help` and after a parse error.
pub const USAGE: &str = "usage: rader <command> [options]
  fig1                         detect the paper's Figure-1 races
  suite [--paper] [--racy] [--json PATH] [SWEEP OPTIONS]
                               run the benchmark table under the full
                               Section-7 sweep; exit 1 if races found
  synth --seed N [--aliasing] [--dot]
                               generate & exhaustively check a random program
  exhaustive [SWEEP OPTIONS]   Section-7 sweep on Figure 1 with reproducer specs
  dot [--steals]               print the Figure-2 example dag as Graphviz
  json-check PATH              validate that PATH parses as JSON and, for
                               versioned reports, that schema_version
                               matches this binary (CI helper)
sweep options (suite and exhaustive):
  --threads N                  sweep workers; the calling thread is one
                               (default: available parallelism)
  --max-k N                    cap the reduce family's sync-block size K
  --max-spawn-count N          cap the update family's spawn count M
  --reexecute                  re-execute the program for every spec instead
                               of replaying its recorded trace
  --checkpoint PATH            journal completed chunks to PATH (suite:
                               PATH.<workload>.ckpt)
  --resume PATH                validate and continue such a journal;
                               excludes --checkpoint
  --budget SECS                stop each sweep at the deadline with a partial
                               (explicitly under-approximate) verdict
  --fault-panic-at N           panic before spec N's run (repeatable), to
                               exercise quarantine";

/// A fully parsed invocation of the `rader` binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `rader fig1`
    Fig1,
    /// `rader suite ...`
    Suite(SuiteOpts),
    /// `rader synth ...`
    Synth(SynthOpts),
    /// `rader exhaustive ...`
    Exhaustive(SweepOpts),
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuiteOpts {
    /// Paper-scale inputs instead of test-scale.
    pub paper: bool,
    /// Append the buggy Figure-1 workload to the table.
    pub racy: bool,
    /// Write per-workload JSON records to this path.
    pub json: Option<String>,
    /// Settings of each workload's sweep.
    pub sweep: SweepOpts,
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

/// The sweep settings `rader suite` and `rader exhaustive` share.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepOpts {
    /// Sweep threads (`None`: the machine's available parallelism).
    pub threads: Option<usize>,
    /// Cap on the reduce-family sync-block size `K`.
    pub max_k: Option<u32>,
    /// Cap on the update-family spawn count `M`.
    pub max_spawn_count: Option<u32>,
    /// Disable the record/replay fast path (re-execute per spec).
    pub reexecute: bool,
    /// `--checkpoint PATH` records a journal, `--resume PATH` continues
    /// one. For the suite, PATH is a prefix: each workload journals to
    /// `PATH.<workload>.ckpt`.
    pub journal: CheckpointPolicy,
    /// Wall-clock budget of each sweep.
    pub budget: Option<Duration>,
    /// Spec indices whose sweep runs are forced to panic.
    pub faults: FaultPlan,
}

impl SweepOpts {
    /// Parse the sweep flag at `args[*i]`, advancing the cursor past its
    /// operand. Any other argument is an error naming it as unknown to
    /// `rader {cmd}`.
    fn take_flag(&mut self, args: &[String], i: &mut usize, cmd: &str) -> Result<(), String> {
        match args[*i].as_str() {
            "--threads" => self.threads = Some(take_positive(args, i, "--threads")?),
            "--max-k" => self.max_k = Some(take_positive(args, i, "--max-k")?),
            "--max-spawn-count" => {
                self.max_spawn_count = Some(take_positive(args, i, "--max-spawn-count")?)
            }
            "--reexecute" => self.reexecute = true,
            "--checkpoint" => {
                let path = take_path(args, i, "--checkpoint")?;
                self.set_journal(CheckpointPolicy::Record(path.into()))?
            }
            "--resume" => {
                let path = take_path(args, i, "--resume")?;
                self.set_journal(CheckpointPolicy::Resume(path.into()))?
            }
            "--budget" => self.budget = Some(take_budget(args, i)?),
            "--fault-panic-at" => {
                let index = take_number(args, i, "--fault-panic-at")?;
                self.faults.panic_at.insert(index);
            }
            other => return Err(format!("unknown argument {other:?} for `rader {cmd}`")),
        }
        Ok(())
    }

    /// `--checkpoint` and `--resume` are mutually exclusive (a resumed
    /// sweep already appends new checkpoints to the journal it
    /// continues); a repeated flag keeps its last path.
    fn set_journal(&mut self, journal: CheckpointPolicy) -> Result<(), String> {
        use CheckpointPolicy::{Record, Resume};
        if let (Record(_), Resume(_)) | (Resume(_), Record(_)) = (&self.journal, &journal) {
            return Err(
                "--checkpoint and --resume are mutually exclusive (resume already \
                 appends new checkpoints to the journal it continues)"
                    .to_string(),
            );
        }
        self.journal = journal;
        Ok(())
    }

    /// Worker threads for the sweep.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The coverage plan and controls of one sweep. `label` is mixed into
    /// the journal fingerprint; `journal` maps the `--checkpoint` or
    /// `--resume` path to this sweep's journal file.
    pub fn configure(
        &self,
        label: &str,
        journal: impl FnOnce(&Path) -> PathBuf,
    ) -> (CoverageOptions, SweepControl) {
        let coverage = CoverageOptions {
            max_k: self.max_k,
            max_spawn_count: self.max_spawn_count,
            replay: !self.reexecute,
        };
        let checkpoint = match &self.journal {
            CheckpointPolicy::Off => CheckpointPolicy::Off,
            CheckpointPolicy::Record(path) => CheckpointPolicy::Record(journal(path)),
            CheckpointPolicy::Resume(path) => CheckpointPolicy::Resume(journal(path)),
        };
        let control = SweepControl {
            checkpoint,
            budget: self.budget,
            faults: self.faults.clone(),
            label: label.to_string(),
        };
        (coverage, control)
    }
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

/// Parse `--budget SECS`: a non-negative number of seconds that a
/// [`Duration`] holds. (Zero is legal — it stops the sweep right after
/// the record pass, which is how tests pin the fully-partial report.)
/// `f64::from_str` accepts "NaN", "inf" and "1e300"; the conversion
/// rejects them here, naming the flag, instead of panicking later.
fn take_budget(args: &[String], i: &mut usize) -> Result<Duration, String> {
    let secs: f64 = take_number(args, i, "--budget")?;
    Duration::try_from_secs_f64(secs)
        .map_err(|e| format!("--budget value {:?} is out of range: {e}", args[*i]))
}

fn parse_suite(args: &[String]) -> Result<SuiteOpts, String> {
    let mut o = SuiteOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--paper" => o.paper = true,
            "--racy" => o.racy = true,
            "--json" => o.json = Some(take_path(args, &mut i, "--json")?),
            _ => o.sweep.take_flag(args, &mut i, "suite")?,
        }
        i += 1;
    }
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

fn parse_exhaustive(args: &[String]) -> Result<SweepOpts, String> {
    let mut o = SweepOpts::default();
    let mut i = 1;
    while i < args.len() {
        o.take_flag(args, &mut i, "exhaustive")?;
        i += 1;
    }
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

    /// The sweep settings `rader <cmd> <args>` parses to.
    fn sweep_of(cmd: &str, args: &[&str]) -> Result<SweepOpts, String> {
        match parse_strs(&[&[cmd], args].concat())? {
            Command::Suite(o) => Ok(o.sweep),
            Command::Exhaustive(o) => Ok(o),
            other => panic!("{cmd} parsed to {other:?}"),
        }
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
        assert_eq!(o.sweep.threads, Some(4));
        assert_eq!(o.sweep.max_k, Some(6));
        assert!(o.racy && !o.paper);
    }

    #[test]
    fn sweep_flags_parse_alike_under_suite_and_exhaustive() {
        let want = |f: fn(&mut SweepOpts)| {
            let mut o = SweepOpts::default();
            f(&mut o);
            o
        };
        let good: [(&[&str], SweepOpts); 9] = [
            (&["--threads", "4"], want(|o| o.threads = Some(4))),
            (&["--max-k", "6"], want(|o| o.max_k = Some(6))),
            (
                &["--max-spawn-count", "12"],
                want(|o| o.max_spawn_count = Some(12)),
            ),
            (&["--reexecute"], want(|o| o.reexecute = true)),
            (
                &["--checkpoint", "target/ckpt"],
                want(|o| o.journal = CheckpointPolicy::Record("target/ckpt".into())),
            ),
            (
                &["--resume", "sweep.ckpt"],
                want(|o| o.journal = CheckpointPolicy::Resume("sweep.ckpt".into())),
            ),
            (
                &["--budget", "2.5"],
                want(|o| o.budget = Some(Duration::from_millis(2500))),
            ),
            (
                &["--budget", "0"],
                want(|o| o.budget = Some(Duration::ZERO)),
            ),
            (
                &["--fault-panic-at", "2"],
                want(|o| o.faults.panic_at = [2].into()),
            ),
        ];
        // Out-of-range caps must not wrap (2^32 used to become a cap of
        // 0), and a finite budget past `Duration`'s range used to panic.
        let bad: [(&str, &[&str]); 7] = [
            ("--threads", &["0x", "0", "-1"]),
            ("--max-k", &["4294967296", "0", "x"]),
            ("--max-spawn-count", &["4294967296", "0", "-1"]),
            ("--checkpoint", &[]),
            ("--resume", &[]),
            ("--budget", &["-1", "NaN", "inf", "abc", "1e300"]),
            ("--fault-panic-at", &["x", "-1"]),
        ];
        for cmd in ["suite", "exhaustive"] {
            for (args, expect) in &good {
                assert_eq!(sweep_of(cmd, args).as_ref(), Ok(expect), "{cmd} {args:?}");
            }
            for (flag, values) in bad {
                let err = sweep_of(cmd, &[flag]).unwrap_err();
                assert!(err.contains(&format!("{flag} requires a")), "{cmd}: {err}");
                for value in values {
                    let err = sweep_of(cmd, &[flag, value]).unwrap_err();
                    assert!(err.contains(flag), "{cmd} {flag} {value}: {err}");
                    if err.contains("not a valid number") {
                        assert!(err.contains(&format!("{value:?}")), "{cmd}: {err}");
                    }
                }
            }
            let err = sweep_of(cmd, &["--fault-seed", "7"]).unwrap_err();
            assert!(
                err.contains("unknown argument \"--fault-seed\""),
                "{cmd}: {err}"
            );
            assert!(err.contains(&format!("`rader {cmd}`")), "{cmd}: {err}");
        }
    }

    #[test]
    fn checkpoint_budget_and_fault_flags_parse() {
        let Ok(Command::Suite(o)) = parse_strs(&[
            "suite",
            "--checkpoint",
            "target/ckpt",
            "--budget",
            "2.5",
            "--fault-panic-at",
            "5",
            "--fault-panic-at",
            "2",
            "--max-k",
            "3",
            "--reexecute",
        ]) else {
            panic!("suite fault-tolerance flags did not parse");
        };
        // One conversion yields the sweep's plan and controls; the suite
        // maps the checkpoint prefix to a per-workload journal.
        let (cov, ctl) = o
            .sweep
            .configure("dedup", |prefix| prefix.join("dedup.ckpt"));
        assert_eq!(cov.max_k, Some(3));
        assert_eq!(cov.max_spawn_count, None);
        assert!(!cov.replay);
        assert_eq!(
            ctl.checkpoint,
            CheckpointPolicy::Record("target/ckpt/dedup.ckpt".into())
        );
        assert_eq!(ctl.budget, Some(Duration::from_millis(2500)));
        assert_eq!(
            ctl.faults.panic_at.iter().copied().collect::<Vec<_>>(),
            [2, 5]
        );
        assert_eq!(ctl.label, "dedup");
        let Ok(Command::Exhaustive(o)) =
            parse_strs(&["exhaustive", "--resume", "sweep.ckpt", "--budget", "0"])
        else {
            panic!("exhaustive fault-tolerance flags did not parse");
        };
        let (cov, ctl) = o.configure("fig1-exhaustive", Path::to_path_buf);
        assert!(cov.replay);
        assert_eq!(
            ctl.checkpoint,
            CheckpointPolicy::Resume("sweep.ckpt".into())
        );
        assert_eq!(ctl.budget, Some(Duration::ZERO));
        assert!(ctl.faults.panic_at.is_empty());
    }

    #[test]
    fn checkpoint_and_resume_are_mutually_exclusive() {
        for cmd in ["suite", "exhaustive"] {
            for args in [
                ["--checkpoint", "a", "--resume", "b"],
                ["--resume", "b", "--checkpoint", "a"],
            ] {
                let err = sweep_of(cmd, &args).unwrap_err();
                assert!(err.contains("mutually exclusive"), "{cmd}: {err}");
            }
            let o = sweep_of(cmd, &["--checkpoint", "a", "--checkpoint", "b"]).unwrap();
            assert_eq!(o.journal, CheckpointPolicy::Record("b".into()));
        }
    }

    #[test]
    fn malformed_budgets_are_errors() {
        for bad in ["-1", "NaN", "inf", "abc", "1e300"] {
            let err = parse_strs(&["suite", "--budget", bad]).unwrap_err();
            assert!(err.contains("--budget"), "{bad}: {err}");
        }
        let err = parse_strs(&["suite", "--budget"]).unwrap_err();
        assert!(err.contains("--budget requires a value"), "{err}");
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
    fn unknown_subcommands_and_flags_are_errors() {
        let err = parse_strs(&["sweep"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        assert!(err.contains("sweep"), "{err}");
        let err = parse_strs(&["suite", "--jsn", "x"]).unwrap_err();
        assert!(err.contains("--jsn"), "{err}");
        let err = parse_strs(&["suite", "--json"]).unwrap_err();
        assert!(err.contains("--json requires a file path"), "{err}");
        let err = parse_strs(&["exhaustive", "--json", "x"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        let err = parse_strs(&["fig1", "--verbose"]).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
        for args in [&["suite", "--strided"][..], &["suite", "--chunk", "8"]] {
            let err = parse_strs(args).unwrap_err();
            assert!(err.contains(args[1]), "{args:?}: {err}");
        }
    }
}
