//! CLI-level tests for the checkpoint journal and the other inputs that
//! come from outside the tool: malformed journals must exit 2 naming the
//! problem (never silently re-sweep or merge bad data), resume must
//! reproduce an uninterrupted run byte for byte, the fault-injection
//! flags must quarantine without changing verdict semantics, bad
//! `json-check` files and unknown flags must fail with their exit codes,
//! and a closed stdout must end the process quietly.
//!
//! These drive the installed `rader` binary (via `CARGO_BIN_EXE_rader`)
//! because the exit codes and stderr wording are the contract: scripts
//! like `ci.sh` branch on them.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Small sweep caps shared by every invocation here: keep the spec plan
/// a few dozen specs so a dev-profile sweep is instant, while still
/// spanning all spec families.
const CAPS: &[&str] = &["--threads", "2", "--max-k", "3", "--max-spawn-count", "3"];

fn rader(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rader"))
        .args(args)
        .output()
        .expect("spawn rader")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test temp path that parallel test binaries cannot collide on.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rader-ckpt-{}-{name}", std::process::id()))
}

/// Record a complete, valid journal for the `exhaustive` sweep and
/// return its bytes (the fixture every corruption test mutates).
fn good_journal(tag: &str) -> (PathBuf, Vec<u8>) {
    let path = tmp(&format!("{tag}.good.ckpt"));
    let _ = fs::remove_file(&path);
    let mut args = vec!["exhaustive"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&["--checkpoint", path.to_str().unwrap()]);
    let out = rader(&args);
    assert!(
        out.status.success(),
        "record run failed: {}",
        stderr_of(&out)
    );
    let bytes = fs::read(&path).expect("journal written");
    (path, bytes)
}

/// Resume from `journal` with the standard caps; returns the Output.
fn resume_exhaustive(journal: &PathBuf, extra: &[&str]) -> Output {
    let mut args = vec!["exhaustive"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&["--resume", journal.to_str().unwrap()]);
    args.extend_from_slice(extra);
    rader(&args)
}

#[test]
fn resuming_a_valid_journal_succeeds() {
    let (path, bytes) = good_journal("valid");
    assert!(bytes.len() > 16, "journal should hold header + records");
    let out = resume_exhaustive(&path, &[]);
    assert!(
        out.status.success(),
        "valid resume failed: {}",
        stderr_of(&out)
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn truncated_journal_exits_2_naming_truncation() {
    let (path, bytes) = good_journal("trunc");
    let cut = tmp("trunc.cut.ckpt");
    fs::write(&cut, &bytes[..bytes.len() - 3]).unwrap();
    let out = resume_exhaustive(&cut, &[]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("truncated"),
        "stderr must name the truncation: {}",
        stderr_of(&out)
    );
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&cut);
}

#[test]
fn corrupted_journal_exits_2_naming_the_checksum() {
    let (path, mut bytes) = good_journal("sum");
    let last = bytes.len() - 2;
    bytes[last] ^= 0x55; // a payload byte of the final record
    let bad = tmp("sum.bad.ckpt");
    fs::write(&bad, &bytes).unwrap();
    let out = resume_exhaustive(&bad, &[]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("checksum"),
        "stderr must name the checksum: {}",
        stderr_of(&out)
    );
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&bad);
}

#[test]
fn journal_from_another_spec_plan_exits_2_naming_the_fingerprint() {
    let (path, _bytes) = good_journal("fp");
    // Same journal, different sweep plan (tighter K cap): the fingerprint
    // must refuse to merge results recorded for different specs.
    let out = rader(&[
        "exhaustive",
        "--threads",
        "2",
        "--max-k",
        "2",
        "--max-spawn-count",
        "3",
        "--resume",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("fingerprint"),
        "stderr must name the fingerprint: {}",
        stderr_of(&out)
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn checkpoint_and_resume_flags_are_rejected_together() {
    let out = rader(&["suite", "--checkpoint", "a", "--resume", "b"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("mutually exclusive"),
        "{}",
        stderr_of(&out)
    );
}

/// Zero the four wall-clock fields — the only nondeterministic data in
/// suite JSON — so reports can be compared byte for byte.
fn zero_timings(json: &str) -> String {
    let mut out = json.to_string();
    for key in ["wall_ns", "record_ns", "sweep_ns", "merge_ns"] {
        let pat = format!("\"{key}\": ");
        let mut res = String::new();
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(&pat) {
            res.push_str(&rest[..pos + pat.len()]);
            res.push('0');
            rest = rest[pos + pat.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        res.push_str(rest);
        out = res;
    }
    out
}

#[test]
fn interrupted_suite_resumes_byte_identical_to_uninterrupted() {
    let prefix = tmp("suite");
    let json_ref = tmp("suite-ref.json");
    let json_cut = tmp("suite-cut.json");
    let json_res = tmp("suite-res.json");

    // Reference: uninterrupted, no checkpointing.
    let mut args = vec!["suite"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&["--json", json_ref.to_str().unwrap()]);
    let out = rader(&args);
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Interrupted: a zero budget stops every sweep right after the
    // record pass, leaving (mostly empty) journals and a partial report.
    let mut args = vec!["suite"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&[
        "--budget",
        "0",
        "--checkpoint",
        prefix.to_str().unwrap(),
        "--json",
        json_cut.to_str().unwrap(),
    ]);
    let out = rader(&args);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let cut = fs::read_to_string(&json_cut).unwrap();
    assert!(
        cut.contains("\"partial\": true"),
        "budget 0 must produce a partial report: {cut}"
    );
    assert!(
        cut.contains("unswept"),
        "partial report must list uncovered families: {cut}"
    );

    // Resumed: completes the journals; the final report must be byte-
    // identical (timings zeroed) to the uninterrupted reference.
    let mut args = vec!["suite"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&[
        "--resume",
        prefix.to_str().unwrap(),
        "--json",
        json_res.to_str().unwrap(),
    ]);
    let out = rader(&args);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let want = zero_timings(&fs::read_to_string(&json_ref).unwrap());
    let got = zero_timings(&fs::read_to_string(&json_res).unwrap());
    assert_eq!(got, want, "resumed suite JSON diverged from uninterrupted");
    assert!(got.contains("\"partial\": false"));

    // The report passes the binary's own schema-validating json-check.
    let out = rader(&["json-check", json_res.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    for p in [&json_ref, &json_cut, &json_res] {
        let _ = fs::remove_file(p);
    }
    if let Some(dir) = prefix.parent() {
        let stem = prefix.file_name().unwrap().to_str().unwrap().to_string();
        for e in fs::read_dir(dir).unwrap().flatten() {
            if e.file_name().to_string_lossy().starts_with(&stem) {
                let _ = fs::remove_file(e.path());
            }
        }
    }
}

#[test]
fn injected_fault_quarantines_without_masking_the_racy_verdict() {
    let json = tmp("fault.json");
    let mut args = vec!["suite", "--racy"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&["--fault-panic-at", "2", "--json", json.to_str().unwrap()]);
    let out = rader(&args);
    // --racy semantics survive the quarantine: exit 1, not a crash.
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    let text = fs::read_to_string(&json).unwrap();
    assert!(
        text.contains("\"quarantined\": 1"),
        "spec 2 must be quarantined in every workload's sweep: {text}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("quarantined"),
        "quarantine must be visible in the table/sections: {stdout}"
    );
    assert!(
        stdout.contains("injected fault at spec 2"),
        "the panic payload must be reported: {stdout}"
    );
    let _ = fs::remove_file(&json);
}

#[test]
fn json_check_validates_schema_version() {
    let stale = tmp("stale.json");
    fs::write(&stale, "{\"schema_version\": 999, \"workloads\": []}\n").unwrap();
    let out = rader(&["json-check", stale.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("schema_version"),
        "{}",
        stderr_of(&out)
    );
    // Unversioned documents are still plain-JSON checked.
    let plain = tmp("plain.json");
    fs::write(&plain, "[1, 2, 3]\n").unwrap();
    let out = rader(&["json-check", plain.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let _ = fs::remove_file(&stale);
    let _ = fs::remove_file(&plain);
}

/// FNV-1a 64-bit, the journal's record checksum (recomputed here so a
/// crafted record passes the checksum and reaches the decoder).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn crafted_record_length_fails_loudly_instead_of_aborting() {
    // A record whose spec range claims 2^40 outcomes in a 32-byte payload
    // used to size an allocation from that range and abort the process.
    let prefix = tmp("crafted");
    let mut args = vec!["suite"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&["--checkpoint", prefix.to_str().unwrap()]);
    let out = rader(&args);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let journal = PathBuf::from(format!("{}.collision.ckpt", prefix.display()));
    let mut bytes = fs::read(&journal).expect("journal written");
    let at = bytes.len();
    let mut payload = Vec::new();
    for v in [0u64, 1, 1 << 40, 0] {
        payload.extend_from_slice(&v.to_le_bytes()); // chunk, start, end, checks
    }
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    fs::write(&journal, &bytes).unwrap();

    let fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let err = rader::core::journal::load(&journal, fp).unwrap_err();
    assert!(err.contains(&format!("record at byte {at}")), "{err}");

    let mut args = vec!["suite"];
    args.extend_from_slice(CAPS);
    args.extend_from_slice(&["--resume", prefix.to_str().unwrap()]);
    let out = rader(&args);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains(&format!("record at byte {at}")),
        "stderr must name the record: {}",
        stderr_of(&out)
    );
    if let Some(dir) = prefix.parent() {
        let stem = prefix.file_name().unwrap().to_str().unwrap().to_string();
        for e in fs::read_dir(dir).unwrap().flatten() {
            if e.file_name().to_string_lossy().starts_with(&stem) {
                let _ = fs::remove_file(e.path());
            }
        }
    }
}

#[test]
fn json_check_rejects_deep_nesting_with_exit_1() {
    // 200,000 nested arrays used to overflow the recursive parser's stack.
    let deep = tmp("deep.json");
    fs::write(&deep, "[".repeat(200_000)).unwrap();
    let out = rader(&["json-check", deep.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("nesting deeper than 128 at byte 128"),
        "{}",
        stderr_of(&out)
    );
    let _ = fs::remove_file(&deep);
}

#[test]
fn json_check_rejects_leading_zeros_and_malformed_schema_version_with_exit_1() {
    let cases = [
        ("zeros.json", "[01]", "leading zero"),
        (
            "sv-string.json",
            "{\"schema_version\": \"2\"}",
            "schema_version",
        ),
        (
            "sv-negative.json",
            "{\"schema_version\": -1}",
            "schema_version",
        ),
        (
            "sv-float.json",
            "{\"schema_version\": 2.0}",
            "schema_version",
        ),
    ];
    for (name, body, needle) in cases {
        let path = tmp(name);
        fs::write(&path, body).unwrap();
        let out = rader(&["json-check", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{body}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(needle),
            "{body}: {}",
            stderr_of(&out)
        );
        let _ = fs::remove_file(&path);
    }
}

#[test]
fn removed_sweep_scheduling_flags_exit_2_naming_the_flag() {
    // The sweep has one scheduler and one chunk plan; the flags that once
    // selected alternatives are unknown arguments now.
    for args in [&["suite", "--strided"][..], &["suite", "--chunk", "8"]] {
        let out = rader(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains(args[1]), "{}", stderr_of(&out));
    }
}

#[test]
fn closed_stdout_ends_the_process_quietly() {
    // `rader exhaustive | head -1`: the reader goes away while rader still
    // has output to write. Close the read end before rader has finished
    // its sweep, so its first write meets a closed pipe. That must end
    // the process with 141 (the status of a SIGPIPE death) and nothing on
    // stderr, never with print!'s "failed printing to stdout" panic.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rader"))
        .args(["exhaustive", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rader");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for rader");
    let stderr = stderr_of(&out);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
}
