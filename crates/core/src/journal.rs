//! Checkpoint journal for the Section-7 exhaustive sweep.
//!
//! A paper-scale sweep is Θ(M) + Θ(K³) SP+ runs; an OOM kill, a
//! panicking monoid body, or a wall-clock limit used to throw away every
//! completed run because `exhaustive_check_parallel` held all per-spec
//! results in memory until the final merge. The journal makes the sweep
//! *interruptible*: each completed chunk's per-spec outcomes stream to an
//! append-only file as they land, and a resumed sweep loads them back,
//! skips the completed chunks, and produces a final report byte-identical
//! to an uninterrupted run.
//!
//! ## Format (in-tree binary framing, no registry deps — DESIGN.md §8)
//!
//! ```text
//! header:  magic "RDRJ" | u32 schema_version | u64 fingerprint
//! record:  u32 payload_len | u64 fnv1a64(payload) | payload
//! payload: u64 chunk_index | u64 spec_start | u64 spec_end
//!          | u64 checks_delta | per spec in [start, end):
//!              u8 outcome (0 = checked, 1 = quarantined)
//!              checked:     u8 replayed | RaceReport::encode
//!              quarantined: StealSpec | u32 len | panic payload (UTF-8)
//!                           | StealSpec (minimized)
//! ```
//!
//! All integers little-endian. Every record is written with a single
//! `write_all` under a lock, so a `SIGKILL` lands between records (a
//! partial tail record is possible only if the kill interrupts the one
//! write syscall — the resume validator then rejects the journal loudly
//! rather than silently dropping work).
//!
//! ## Resume invariants
//!
//! * The header fingerprint hashes the sweep *identity*: the label (the
//!   workload name), the schema version, the recorded run statistics
//!   that size the spec plan, the full serialized spec list, and the
//!   chunk plan. A journal resumes only against the exact same plan;
//!   anything else fails with a named error (never a silent re-merge).
//! * A truncated or checksum-corrupt record is a hard error naming the
//!   byte offset.
//! * Loaded outcomes re-enter the merge in spec-index order alongside
//!   freshly computed ones, so the final report is byte-identical to an
//!   uninterrupted sweep.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use rader_cilk::{BlockOp, BlockScript, RunStats, StealSpec};

use crate::report::RaceReport;

/// Version of the checkpoint-journal and suite-report schema. Bumped
/// whenever the journal framing, the meaning of a journaled field or the
/// suite's JSON field set changes, so stale checkpoints and stale report
/// consumers are detectable (`rader json-check` validates it; the journal
/// header embeds it). Version 3: `checks_delta` and the suite's
/// `spplus_checks` count only the checks a pruned replay performs
/// (DESIGN.md §5h), so a version-2 journal's counts must not be mixed in.
pub const SCHEMA_VERSION: u32 = 3;

const MAGIC: &[u8; 4] = b"RDRJ";
const HEADER_LEN: usize = 4 + 4 + 8;

/// Where the sweep checkpoints, if anywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// No journal: all results held in memory until the final merge.
    #[default]
    Off,
    /// Start a fresh journal at the path (truncating any existing file)
    /// and stream each completed chunk to it.
    Record(PathBuf),
    /// Load the journal at the path, validate it against this sweep's
    /// fingerprint, skip its completed chunks, and append new ones. A
    /// missing file starts a fresh journal (so a resumed multi-workload
    /// suite can pick up workloads the interrupted run never reached).
    Resume(PathBuf),
}

/// FNV-1a 64-bit over `bytes`, seeded by `state` (chainable).
fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Append a self-delimiting encoding of a steal specification.
pub fn encode_spec(spec: &StealSpec, out: &mut Vec<u8>) {
    match spec {
        StealSpec::None => out.push(0),
        StealSpec::EveryBlock(script) => {
            out.push(1);
            out.extend_from_slice(&(script.ops().len() as u32).to_le_bytes());
            for op in script.ops() {
                match op {
                    BlockOp::Steal(i) => {
                        out.push(0);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    BlockOp::Reduce => out.push(1),
                }
            }
        }
        StealSpec::Random {
            seed,
            max_block,
            steals_per_block,
        } => {
            out.push(2);
            out.extend_from_slice(&seed.to_le_bytes());
            out.extend_from_slice(&max_block.to_le_bytes());
            out.extend_from_slice(&steals_per_block.to_le_bytes());
        }
        StealSpec::AtSpawnCount(j) => {
            out.push(3);
            out.extend_from_slice(&j.to_le_bytes());
        }
    }
}

fn take<const N: usize>(b: &[u8], i: &mut usize, what: &str) -> Result<[u8; N], String> {
    let end = i
        .checked_add(N)
        .filter(|&e| e <= b.len())
        .ok_or_else(|| format!("truncated {what} at byte {i}"))?;
    let arr: [u8; N] = b[*i..end].try_into().unwrap();
    *i = end;
    Ok(arr)
}

fn take_u32(b: &[u8], i: &mut usize, what: &str) -> Result<u32, String> {
    Ok(u32::from_le_bytes(take::<4>(b, i, what)?))
}

fn take_u64(b: &[u8], i: &mut usize, what: &str) -> Result<u64, String> {
    Ok(u64::from_le_bytes(take::<8>(b, i, what)?))
}

/// Decode a specification written by [`encode_spec`].
pub fn decode_spec(b: &[u8], i: &mut usize) -> Result<StealSpec, String> {
    match take::<1>(b, i, "spec tag")?[0] {
        0 => Ok(StealSpec::None),
        1 => {
            let n = take_u32(b, i, "script length")?;
            // Every op takes at least one byte, so what remains bounds a
            // sane length; a crafted one must not size the allocation.
            let mut ops = Vec::with_capacity((n as usize).min(b.len().saturating_sub(*i)));
            for _ in 0..n {
                match take::<1>(b, i, "block op")?[0] {
                    0 => ops.push(BlockOp::Steal(take_u32(b, i, "steal index")?)),
                    1 => ops.push(BlockOp::Reduce),
                    other => return Err(format!("invalid block-op tag {other}")),
                }
            }
            Ok(StealSpec::EveryBlock(BlockScript::new(ops)))
        }
        2 => Ok(StealSpec::Random {
            seed: take_u64(b, i, "random seed")?,
            max_block: take_u32(b, i, "max block")?,
            steals_per_block: take_u32(b, i, "steals per block")?,
        }),
        3 => Ok(StealSpec::AtSpawnCount(take_u32(b, i, "spawn count")?)),
        other => Err(format!("invalid spec tag {other}")),
    }
}

/// Fingerprint of a sweep's identity: label (workload name), schema
/// version, the plan-shaping run statistics, the serialized spec list,
/// and the chunk plan. Two sweeps share a fingerprint iff their journals
/// are interchangeable.
pub fn fingerprint(
    label: &str,
    stats: &RunStats,
    specs: &[StealSpec],
    chunks: &[(usize, usize)],
) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(label.len() as u32).to_le_bytes());
    bytes.extend_from_slice(label.as_bytes());
    for v in [
        stats.frames,
        stats.strands,
        stats.reads,
        stats.writes,
        stats.updates,
        stats.reducer_reads,
        stats.max_sync_block as u64,
        stats.max_spawn_count as u64,
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes.extend_from_slice(&(specs.len() as u64).to_le_bytes());
    for spec in specs {
        encode_spec(spec, &mut bytes);
    }
    bytes.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
    for &(s, e) in chunks {
        bytes.extend_from_slice(&(s as u64).to_le_bytes());
        bytes.extend_from_slice(&(e as u64).to_le_bytes());
    }
    fnv1a64(FNV_OFFSET, &bytes)
}

/// Outcome of one swept specification, as journaled and as merged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecOutcome {
    /// SP+ completed under the spec.
    Checked {
        /// The run's race report.
        report: RaceReport,
        /// Whether trace replay served the run.
        replayed: bool,
    },
    /// The spec's run panicked (a misbehaving monoid body or an injected
    /// fault); the spec is poisoned and its report withheld.
    Quarantined {
        /// The poisoned specification.
        spec: StealSpec,
        /// Stringified panic payload.
        payload: String,
        /// ddmin-minimized specification that still panics.
        minimized: StealSpec,
    },
}

/// One journaled record: a completed chunk's outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Index into the sweep's chunk plan.
    pub chunk_index: usize,
    /// First spec index of the chunk.
    pub spec_start: usize,
    /// One past the last spec index.
    pub spec_end: usize,
    /// SP+ access checks this chunk performed (including partial checks
    /// of a quarantined spec, which are deterministic).
    pub checks_delta: u64,
    /// Per-spec outcomes, in spec order.
    pub outcomes: Vec<SpecOutcome>,
}

impl ChunkRecord {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&(self.chunk_index as u64).to_le_bytes());
        p.extend_from_slice(&(self.spec_start as u64).to_le_bytes());
        p.extend_from_slice(&(self.spec_end as u64).to_le_bytes());
        p.extend_from_slice(&self.checks_delta.to_le_bytes());
        for outcome in &self.outcomes {
            match outcome {
                SpecOutcome::Checked { report, replayed } => {
                    p.push(0);
                    p.push(*replayed as u8);
                    report.encode(&mut p);
                }
                SpecOutcome::Quarantined {
                    spec,
                    payload,
                    minimized,
                } => {
                    p.push(1);
                    encode_spec(spec, &mut p);
                    p.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                    p.extend_from_slice(payload.as_bytes());
                    encode_spec(minimized, &mut p);
                }
            }
        }
        p
    }

    fn decode(payload: &[u8]) -> Result<ChunkRecord, String> {
        let b = payload;
        let mut i = 0;
        let chunk_index = take_u64(b, &mut i, "chunk index")? as usize;
        let spec_start = take_u64(b, &mut i, "spec start")? as usize;
        let spec_end = take_u64(b, &mut i, "spec end")? as usize;
        if spec_end < spec_start {
            return Err(format!("chunk {chunk_index} has inverted spec range"));
        }
        let checks_delta = take_u64(b, &mut i, "checks delta")?;
        // Every outcome takes at least one byte: bound the capacity by
        // what remains, not by a range read from the file.
        let mut outcomes = Vec::with_capacity((spec_end - spec_start).min(b.len() - i));
        for _ in spec_start..spec_end {
            match take::<1>(b, &mut i, "outcome tag")?[0] {
                0 => {
                    let replayed = take::<1>(b, &mut i, "replayed flag")?[0] != 0;
                    let report = RaceReport::decode(b, &mut i)?;
                    outcomes.push(SpecOutcome::Checked { report, replayed });
                }
                1 => {
                    let spec = decode_spec(b, &mut i)?;
                    let len = take_u32(b, &mut i, "panic payload length")? as usize;
                    let end = i
                        .checked_add(len)
                        .filter(|&e| e <= b.len())
                        .ok_or_else(|| format!("truncated panic payload at byte {i}"))?;
                    let payload = std::str::from_utf8(&b[i..end])
                        .map_err(|_| format!("non-UTF-8 panic payload at byte {i}"))?
                        .to_string();
                    i = end;
                    let minimized = decode_spec(b, &mut i)?;
                    outcomes.push(SpecOutcome::Quarantined {
                        spec,
                        payload,
                        minimized,
                    });
                }
                other => return Err(format!("invalid outcome tag {other}")),
            }
        }
        if i != b.len() {
            return Err(format!(
                "chunk {chunk_index} record has {} trailing bytes",
                b.len() - i
            ));
        }
        Ok(ChunkRecord {
            chunk_index,
            spec_start,
            spec_end,
            checks_delta,
            outcomes,
        })
    }
}

/// An open journal being appended to by a running sweep.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Create (truncate) a journal and write its header.
    pub fn create(path: &Path, fp: u64) -> Result<JournalWriter, String> {
        let mut file = File::create(path)
            .map_err(|e| format!("cannot create checkpoint journal {}: {e}", path.display()))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        header.extend_from_slice(&fp.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| format!("cannot write journal header {}: {e}", path.display()))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Reopen an existing (already validated) journal for appending.
    pub fn append(path: &Path) -> Result<JournalWriter, String> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen checkpoint journal {}: {e}", path.display()))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Append one chunk record. The frame (length + checksum + payload)
    /// goes out as a single `write_all`, so an interrupt lands between
    /// records in practice.
    pub fn write_chunk(&mut self, record: &ChunkRecord) -> Result<(), String> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(FNV_OFFSET, &payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))
    }
}

/// A validated, fully loaded journal.
#[derive(Debug, Default)]
pub struct LoadedJournal {
    /// Completed chunks by chunk index (later duplicate records for the
    /// same chunk would be byte-identical by determinism; first wins).
    pub chunks: BTreeMap<usize, ChunkRecord>,
}

/// Load and validate the journal at `path` against `expected_fp`.
///
/// Every failure mode names the problem — wrong magic, schema version
/// skew, fingerprint mismatch (journal from a different workload or spec
/// plan), a truncated record, or a checksum mismatch. A malformed
/// journal is never partially honored: the caller gets an error, not a
/// subset of the records.
pub fn load(path: &Path, expected_fp: u64) -> Result<LoadedJournal, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("cannot read checkpoint journal {}: {e}", path.display()))?;
    let name = path.display();
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "{name}: truncated journal header ({} of {HEADER_LEN} bytes)",
            bytes.len()
        ));
    }
    if &bytes[..4] != MAGIC {
        return Err(format!(
            "{name}: not a rader checkpoint journal (bad magic)"
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SCHEMA_VERSION {
        return Err(format!(
            "{name}: journal schema_version {version} does not match this \
             binary's schema_version {SCHEMA_VERSION}"
        ));
    }
    let fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if fp != expected_fp {
        return Err(format!(
            "{name}: journal fingerprint {fp:#018x} does not match this sweep's \
             {expected_fp:#018x} (different workload, caps, or spec plan)"
        ));
    }
    let mut journal = LoadedJournal::default();
    let mut i = HEADER_LEN;
    while i < bytes.len() {
        let at = i;
        if bytes.len() - i < 12 {
            return Err(format!(
                "{name}: truncated record frame at byte {at} \
                 (journal was cut off mid-write)"
            ));
        }
        let len = u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(bytes[i + 4..i + 12].try_into().unwrap());
        i += 12;
        if bytes.len() - i < len {
            return Err(format!(
                "{name}: truncated record at byte {at}: payload wants {len} bytes, \
                 {} remain",
                bytes.len() - i
            ));
        }
        let payload = &bytes[i..i + len];
        i += len;
        let actual = fnv1a64(FNV_OFFSET, payload);
        if actual != checksum {
            return Err(format!(
                "{name}: checksum mismatch in record at byte {at} \
                 (stored {checksum:#018x}, computed {actual:#018x})"
            ));
        }
        let record = ChunkRecord::decode(payload)
            .map_err(|e| format!("{name}: bad record at byte {at}: {e}"))?;
        journal.chunks.entry(record.chunk_index).or_insert(record);
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(chunk_index: usize) -> ChunkRecord {
        let mut report = RaceReport::default();
        report.determinacy.push(crate::report::DeterminacyRace {
            loc: rader_cilk::Loc(5),
            prior: crate::report::AccessInfo {
                frame: rader_cilk::FrameId(1),
                strand: rader_cilk::StrandId(2),
                write: true,
                kind: rader_cilk::AccessKind::Oblivious,
            },
            current: crate::report::AccessInfo {
                frame: rader_cilk::FrameId(3),
                strand: rader_cilk::StrandId(4),
                write: false,
                kind: rader_cilk::AccessKind::Reduce,
            },
        });
        ChunkRecord {
            chunk_index,
            spec_start: chunk_index * 3 + 1,
            spec_end: chunk_index * 3 + 4,
            checks_delta: 17,
            outcomes: vec![
                SpecOutcome::Checked {
                    report: report.clone(),
                    replayed: true,
                },
                SpecOutcome::Checked {
                    report: RaceReport::default(),
                    replayed: false,
                },
                SpecOutcome::Quarantined {
                    spec: StealSpec::EveryBlock(BlockScript::steals(vec![1, 2])),
                    payload: "boom".to_string(),
                    minimized: StealSpec::EveryBlock(BlockScript::steals(vec![2])),
                },
            ],
        }
    }

    #[test]
    fn spec_encoding_round_trips_every_kind() {
        let specs = [
            StealSpec::None,
            StealSpec::AtSpawnCount(7),
            StealSpec::Random {
                seed: 99,
                max_block: 6,
                steals_per_block: 2,
            },
            StealSpec::EveryBlock(BlockScript::new(vec![
                BlockOp::Steal(1),
                BlockOp::Steal(3),
                BlockOp::Reduce,
                BlockOp::Steal(5),
            ])),
            StealSpec::EveryBlock(BlockScript::default()),
        ];
        for spec in &specs {
            let mut bytes = Vec::new();
            encode_spec(spec, &mut bytes);
            let mut i = 0;
            assert_eq!(&decode_spec(&bytes, &mut i).unwrap(), spec);
            assert_eq!(i, bytes.len());
        }
    }

    #[test]
    fn journal_round_trips_records() {
        let dir = std::env::temp_dir().join(format!("rader-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let fp = 0xABCD_EF01_2345_6789;
        {
            let mut w = JournalWriter::create(&path, fp).unwrap();
            w.write_chunk(&sample_record(0)).unwrap();
            w.write_chunk(&sample_record(2)).unwrap();
        }
        // Append after reopen, as a resumed sweep does.
        {
            let mut w = JournalWriter::append(&path).unwrap();
            w.write_chunk(&sample_record(1)).unwrap();
        }
        let loaded = load(&path, fp).unwrap();
        assert_eq!(
            loaded.chunks.keys().copied().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(loaded.chunks[&2], sample_record(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_journals_fail_loudly() {
        let dir = std::env::temp_dir().join(format!("rader-journal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");
        let fp = 42;
        let write_good = || {
            let mut w = JournalWriter::create(&path, fp).unwrap();
            w.write_chunk(&sample_record(0)).unwrap();
        };

        // Fingerprint mismatch.
        write_good();
        let err = load(&path, fp + 1).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Truncated record: chop bytes off the tail.
        write_good();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = load(&path, fp).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // Checksum mismatch: flip a payload byte.
        write_good();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path, fp).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Bad magic.
        write_good();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path, fp).unwrap_err();
        assert!(err.contains("magic"), "{err}");

        // Schema version skew.
        write_good();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path, fp).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn schema_version_2_journals_are_refused() {
        // A version-2 journal counts unpruned checks; resuming it would
        // mix those into a pruned sweep's `spplus_checks`.
        let dir = std::env::temp_dir().join(format!("rader-journal-v2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.ckpt");
        let fp = 7;
        let mut w = JournalWriter::create(&path, fp).unwrap();
        w.write_chunk(&sample_record(0)).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path, fp).unwrap_err();
        assert!(err.contains("schema_version 2"), "{err}");
        assert!(
            err.contains(&format!("schema_version {SCHEMA_VERSION}")),
            "{err}"
        );
        assert_eq!(SCHEMA_VERSION, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let stats = RunStats {
            max_sync_block: 4,
            max_spawn_count: 6,
            frames: 7,
            ..RunStats::default()
        };
        let specs = vec![StealSpec::None, StealSpec::AtSpawnCount(1)];
        let chunks = vec![(1usize, 2usize)];
        let base = fingerprint("dedup", &stats, &specs, &chunks);
        assert_eq!(base, fingerprint("dedup", &stats, &specs, &chunks));
        assert_ne!(base, fingerprint("ferret", &stats, &specs, &chunks));
        let mut other_stats = stats;
        other_stats.max_sync_block = 5;
        assert_ne!(base, fingerprint("dedup", &other_stats, &specs, &chunks));
        let mut more_specs = specs.clone();
        more_specs.push(StealSpec::AtSpawnCount(2));
        assert_ne!(base, fingerprint("dedup", &stats, &more_specs, &chunks));
        assert_ne!(
            base,
            fingerprint("dedup", &stats, &specs, &[(1usize, 3usize)])
        );
    }
}
