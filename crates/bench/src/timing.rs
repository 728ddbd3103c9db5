//! Minimal in-tree timing harness for the `[[bench]]` targets.
//!
//! Replaces the statistics-grade external harness with the measurement
//! loop the benches actually need: a few warmup runs, `N` timed samples,
//! and the **median** reported (robust to the occasional slow outlier,
//! unlike min-of-N it does not reward lucky cache states). Each target
//! is a plain `harness = false` binary:
//!
//! ```no_run
//! use rader_bench::timing::Harness;
//! fn main() {
//!     let mut h = Harness::from_args("my_bench");
//!     h.group("group").bench("label", || 2 + 2);
//!     h.finish();
//! }
//! ```
//!
//! CLI (after `cargo bench --bench my_bench --`):
//!
//! * `<substring>` — run only benches whose `group/label` matches;
//! * `--samples N` / `--warmup N` — measurement loop knobs;
//! * `--json PATH` — also write the results as a JSON array with the
//!   fields `group`, `name`, `median_ns`, `min_ns`, `max_ns`, `samples`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rader_core::coverage::json_escape;

pub use std::hint::black_box;

/// One measured bench: its identity and its sample statistics.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Group name (one group per benchmark family).
    pub group: String,
    /// Bench label within the group.
    pub name: String,
    /// Median of the timed samples.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

/// Median of a sample set (mean of the two middle elements when even).
pub fn median(samples: &[Duration]) -> Duration {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

/// Render a duration for the printed results: µs under 1 ms, ms under 1 s.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Serialize measurements as a JSON array (no external serializer).
pub fn to_json(results: &[Measurement]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}}}",
            json_escape(&m.group),
            json_escape(&m.name),
            m.median.as_nanos(),
            m.min.as_nanos(),
            m.max.as_nanos(),
            m.samples,
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// The harness: collects measurements across groups, prints a line per
/// bench as it completes, and emits the summary (and optional JSON) at
/// [`Harness::finish`].
#[derive(Debug)]
pub struct Harness {
    bench_name: &'static str,
    filter: Option<String>,
    samples: usize,
    warmup: usize,
    json: Option<String>,
    results: Vec<Measurement>,
}

impl Harness {
    /// A harness with default knobs (10 samples, 2 warmup runs).
    pub fn new(bench_name: &'static str) -> Self {
        Harness {
            bench_name,
            filter: None,
            samples: 10,
            warmup: 2,
            json: None,
            results: Vec::new(),
        }
    }

    /// Parse harness knobs from `std::env::args` (see module docs).
    /// A malformed invocation — `--json` without a path, or a
    /// `--samples`/`--warmup` value that is missing or not a number —
    /// prints the error and exits nonzero rather than silently running
    /// with defaults (a bench that "ran" but wrote no JSON is worse than
    /// one that fails loudly).
    pub fn from_args(bench_name: &'static str) -> Self {
        match Self::parse_args(bench_name, std::env::args().skip(1)) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("{bench_name}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// [`Harness::from_args`] with the argument source and error channel
    /// made explicit, for testing and embedding.
    pub fn parse_args(
        bench_name: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut h = Harness::new(bench_name);
        let mut args = args.into_iter();
        let count_arg = |flag: &str, v: Option<String>| -> Result<usize, String> {
            let v = v.ok_or_else(|| format!("{flag} requires a value"))?;
            v.parse()
                .map_err(|_| format!("{flag} value {v:?} is not a non-negative integer"))
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                // Flags cargo-bench passes through to every target.
                "--bench" | "--exact" | "--nocapture" => {}
                "--samples" => h.samples = count_arg("--samples", args.next())?.max(1),
                "--warmup" => h.warmup = count_arg("--warmup", args.next())?,
                "--json" => {
                    h.json = Some(
                        args.next()
                            .ok_or_else(|| "--json requires a file path".to_string())?,
                    )
                }
                other if !other.starts_with('-') => h.filter = Some(other.to_string()),
                // A mistyped flag used to fall through here and be
                // silently dropped — `--sample 100` ran 10 samples with
                // no hint anything was wrong. Fail loudly instead.
                other => {
                    return Err(format!(
                        "unknown flag {other:?} (expected --samples, --warmup, \
                         --json, or a name filter)"
                    ))
                }
            }
        }
        Ok(h)
    }

    /// Open a bench group; measurements record under `name/label`.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            harness: self,
            name: name.into(),
        }
    }

    fn run_one<T>(&mut self, group: &str, label: &str, mut f: impl FnMut() -> T) {
        let id = format!("{group}/{label}");
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        for _ in 0..self.warmup {
            black_box(f());
        }
        let samples: Vec<Duration> = (0..self.samples.max(1))
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed()
            })
            .collect();
        let m = Measurement {
            group: group.to_string(),
            name: label.to_string(),
            median: median(&samples),
            min: samples.iter().copied().min().unwrap(),
            max: samples.iter().copied().max().unwrap(),
            samples: samples.len(),
        };
        println!(
            "{:<56} median {:>12}   ({} … {}, {} samples)",
            id,
            fmt_duration(m.median),
            fmt_duration(m.min),
            fmt_duration(m.max),
            m.samples,
        );
        self.results.push(m);
    }

    /// All measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Print the closing summary and write the JSON file if requested.
    pub fn finish(self) {
        println!(
            "\n{}: {} benches measured (median of {} samples, {} warmup)",
            self.bench_name,
            self.results.len(),
            self.samples,
            self.warmup,
        );
        if let Some(path) = &self.json {
            let json = to_json(&self.results);
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// A named group of benches sharing a prefix.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
}

impl Group<'_> {
    /// Measure `f` under this group; the closure's return value is
    /// black-boxed so the work cannot be optimized away.
    pub fn bench<T>(&mut self, label: impl AsRef<str>, f: impl FnMut() -> T) -> &mut Self {
        let name = self.name.clone();
        self.harness.run_one(&name, label.as_ref(), f);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        let d = |ms: u64| Duration::from_millis(ms);
        assert_eq!(median(&[d(3), d(1), d(2)]), d(2));
        assert_eq!(median(&[d(1), d(5)]), d(3));
        assert_eq!(median(&[d(7)]), d(7));
        // Robust to one huge outlier, unlike the mean.
        assert_eq!(median(&[d(1), d(2), d(3), d(2), d(1000)]), d(2));
    }

    #[test]
    fn json_shape_and_escaping() {
        let m = Measurement {
            group: "g\"1".into(),
            name: "n\\2".into(),
            median: Duration::from_nanos(1500),
            min: Duration::from_nanos(1000),
            max: Duration::from_nanos(2000),
            samples: 3,
        };
        let json = to_json(&[m]);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"group\": \"g\\\"1\""));
        assert!(json.contains("\"name\": \"n\\\\2\""));
        assert!(json.contains("\"median_ns\": 1500"));
        assert!(json.contains("\"samples\": 3"));
    }

    #[test]
    fn harness_records_and_filters() {
        let mut h = Harness::new("test");
        h.samples = 3;
        h.warmup = 1;
        h.filter = Some("keep".into());
        let mut runs = 0usize;
        h.group("a").bench("keep_me", || {
            runs += 1;
        });
        let mut skipped = 0usize;
        h.group("a").bench("drop_me", || {
            skipped += 1;
        });
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].name, "keep_me");
        assert_eq!(runs, 4); // 1 warmup + 3 samples
        assert_eq!(skipped, 0);
        assert_eq!(h.results()[0].samples, 3);
    }

    fn parse(args: &[&str]) -> Result<Harness, String> {
        Harness::parse_args("test", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_args_accepts_well_formed_invocations() {
        let h = parse(&[
            "--samples",
            "25",
            "--warmup",
            "0",
            "--json",
            "out.json",
            "sweep",
        ])
        .unwrap();
        assert_eq!(h.samples, 25);
        assert_eq!(h.warmup, 0);
        assert_eq!(h.json.as_deref(), Some("out.json"));
        assert_eq!(h.filter.as_deref(), Some("sweep"));
        // cargo-bench passthrough flags are still accepted and ignored.
        let h = parse(&["--bench", "--exact", "--nocapture"]).unwrap();
        assert_eq!(h.samples, 10);
        // --samples 0 clamps to 1 rather than erroring.
        assert_eq!(parse(&["--samples", "0"]).unwrap().samples, 1);
    }

    #[test]
    fn parse_args_rejects_malformed_invocations() {
        let err = parse(&["--json"]).unwrap_err();
        assert!(err.contains("--json requires a file path"), "{err}");
        let err = parse(&["--samples"]).unwrap_err();
        assert!(err.contains("--samples requires a value"), "{err}");
        let err = parse(&["--samples", "ten"]).unwrap_err();
        assert!(err.contains("\"ten\""), "{err}");
        let err = parse(&["--warmup", "-3"]).unwrap_err();
        assert!(err.contains("--warmup"), "{err}");
        // Any next token is taken as the path, even a dashed one.
        assert!(parse(&["--json", "--weird.json"]).is_ok());
        // Unknown dashed flags are errors that name the flag, not
        // silently ignored knobs.
        let err = parse(&["--sample", "100"]).unwrap_err();
        assert!(err.contains("--sample"), "{err}");
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
