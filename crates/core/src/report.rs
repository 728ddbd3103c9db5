//! Race reports.

use rader_cilk::{AccessKind, FrameId, Loc, ReducerId, StrandId};

/// One endpoint of a reported race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessInfo {
    /// Function instantiation that performed the access. For accesses made
    /// by a `Reduce` invocation this is the frame the reduce executed in.
    pub frame: FrameId,
    /// Strand (serial-order segment) of the access.
    pub strand: StrandId,
    /// Was it a write?
    pub write: bool,
    /// View-obliviousness / view-awareness of the access.
    pub kind: AccessKind,
}

/// A determinacy race on a memory location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeterminacyRace {
    /// The raced-on location.
    pub loc: Loc,
    /// The earlier access (from the shadow space).
    pub prior: AccessInfo,
    /// The later access (the one executing when the race was found).
    pub current: AccessInfo,
}

/// A view-read race on a reducer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewReadRace {
    /// The raced-on reducer.
    pub reducer: ReducerId,
    /// Frame of the earlier reducer-read.
    pub prior_frame: FrameId,
    /// Strand of the earlier reducer-read.
    pub prior_strand: StrandId,
    /// Frame of the later reducer-read.
    pub frame: FrameId,
    /// Strand of the later reducer-read.
    pub strand: StrandId,
}

/// Aggregated result of a detection run.
///
/// The detectors record the *first* race per location/reducer (the
/// algorithms guarantee at least one race is reported per racy location
/// if any exists; enumerating every racy pair is not meaningful under
/// shadow-space compression).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// Determinacy races, at most one per location, in detection order.
    pub determinacy: Vec<DeterminacyRace>,
    /// View-read races, at most one per reducer, in detection order.
    pub view_read: Vec<ViewReadRace>,
    /// Labels programs attached to frames (`Ctx::label_frame`), used by
    /// `Display` to name the frames involved in each race.
    pub frame_labels: std::collections::BTreeMap<FrameId, &'static str>,
}

impl RaceReport {
    /// True if any race of either kind was detected.
    pub fn has_races(&self) -> bool {
        !self.determinacy.is_empty() || !self.view_read.is_empty()
    }

    /// The set of locations with a detected determinacy race.
    pub fn racy_locs(&self) -> std::collections::BTreeSet<Loc> {
        self.determinacy.iter().map(|r| r.loc).collect()
    }

    /// The set of reducers with a detected view-read race.
    pub fn racy_reducers(&self) -> std::collections::BTreeSet<ReducerId> {
        self.view_read.iter().map(|r| r.reducer).collect()
    }

    /// The label for a frame, or a numbered placeholder.
    pub fn frame_name(&self, f: FrameId) -> String {
        match self.frame_labels.get(&f) {
            Some(l) => format!("`{l}` (frame {})", f.0),
            None => format!("frame {}", f.0),
        }
    }

    /// Merge another report into this one, keeping one race per
    /// location/reducer.
    ///
    /// One-shot merges build their dedup sets on the fly; a driver
    /// folding many reports (the exhaustive sweep) should use
    /// [`ReportMerger`], which keeps the sets across calls instead of
    /// rebuilding them per merge.
    pub fn merge(&mut self, other: &RaceReport) {
        let mut merger = ReportMerger::starting_from(std::mem::take(self));
        merger.merge(other);
        *self = merger.finish();
    }
}

/// Incrementally merges many [`RaceReport`]s, keeping one race per
/// location/reducer.
///
/// The dedup index sets persist across [`ReportMerger::merge`] calls, so
/// folding the reports of a Θ(M) + Θ(K³)-spec sweep costs
/// O(total races · log races) instead of the O(runs · races²) that
/// repeated set rebuilding plus linear scans used to cost.
#[derive(Debug, Default)]
pub struct ReportMerger {
    report: RaceReport,
    locs: std::collections::BTreeSet<Loc>,
    reducers: std::collections::BTreeSet<ReducerId>,
}

impl ReportMerger {
    /// An empty merger.
    pub fn new() -> Self {
        Self::default()
    }

    /// A merger whose first folded-in report is `report`.
    fn starting_from(report: RaceReport) -> Self {
        Self {
            locs: report.racy_locs(),
            reducers: report.racy_reducers(),
            report,
        }
    }

    /// Fold `other` in: first race per location/reducer wins, in merge
    /// order. [`RaceReport::merge`] is this rule applied once.
    pub fn merge(&mut self, other: &RaceReport) {
        self.report
            .frame_labels
            .extend(other.frame_labels.iter().map(|(k, v)| (*k, *v)));
        for r in &other.determinacy {
            if self.locs.insert(r.loc) {
                self.report.determinacy.push(*r);
            }
        }
        for r in &other.view_read {
            if self.reducers.insert(r.reducer) {
                self.report.view_read.push(*r);
            }
        }
    }

    /// The merged report so far.
    pub fn report(&self) -> &RaceReport {
        &self.report
    }

    /// Consume the merger, yielding the merged report.
    pub fn finish(self) -> RaceReport {
        self.report
    }
}

/// Intern a runtime string as `&'static str`.
///
/// Frame labels are `&'static str` in [`RaceReport`] because programs
/// attach them from string literals; a report decoded from a checkpoint
/// journal has to re-materialize them. The pool dedupes, so decoding the
/// same journal (or many journals naming the same frames) repeatedly
/// leaks each distinct label at most once for the process lifetime —
/// labels are short identifiers, so this is bounded by the program's
/// vocabulary, not by how many records are read.
fn intern_label(s: &str) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    static POOL: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut pool = POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&interned) = pool.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), leaked);
    leaked
}

fn kind_to_u8(k: AccessKind) -> u8 {
    match k {
        AccessKind::Oblivious => 0,
        AccessKind::Update => 1,
        AccessKind::CreateIdentity => 2,
        AccessKind::Reduce => 3,
    }
}

fn kind_from_u8(b: u8) -> Result<AccessKind, String> {
    Ok(match b {
        0 => AccessKind::Oblivious,
        1 => AccessKind::Update,
        2 => AccessKind::CreateIdentity,
        3 => AccessKind::Reduce,
        other => return Err(format!("invalid AccessKind byte {other}")),
    })
}

fn put_access(out: &mut Vec<u8>, a: &AccessInfo) {
    out.extend_from_slice(&a.frame.0.to_le_bytes());
    out.extend_from_slice(&a.strand.0.to_le_bytes());
    out.push(a.write as u8);
    out.push(kind_to_u8(a.kind));
}

fn take<const N: usize>(b: &[u8], i: &mut usize) -> Result<[u8; N], String> {
    let end = i
        .checked_add(N)
        .filter(|&e| e <= b.len())
        .ok_or_else(|| format!("truncated report payload at byte {i}"))?;
    let arr: [u8; N] = b[*i..end].try_into().unwrap();
    *i = end;
    Ok(arr)
}

fn take_u32(b: &[u8], i: &mut usize) -> Result<u32, String> {
    Ok(u32::from_le_bytes(take::<4>(b, i)?))
}

fn take_u64(b: &[u8], i: &mut usize) -> Result<u64, String> {
    Ok(u64::from_le_bytes(take::<8>(b, i)?))
}

fn take_access(b: &[u8], i: &mut usize) -> Result<AccessInfo, String> {
    let frame = FrameId(take_u32(b, i)?);
    let strand = StrandId(take_u64(b, i)?);
    let write = take::<1>(b, i)?[0] != 0;
    let kind = kind_from_u8(take::<1>(b, i)?[0])?;
    Ok(AccessInfo {
        frame,
        strand,
        write,
        kind,
    })
}

impl RaceReport {
    /// Append a self-delimiting binary encoding of this report to `out`
    /// (little-endian, fixed-width counts; the checkpoint journal's
    /// record format — see `rader_core::journal`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.determinacy.len() as u32).to_le_bytes());
        for r in &self.determinacy {
            out.extend_from_slice(&r.loc.0.to_le_bytes());
            put_access(out, &r.prior);
            put_access(out, &r.current);
        }
        out.extend_from_slice(&(self.view_read.len() as u32).to_le_bytes());
        for r in &self.view_read {
            out.extend_from_slice(&r.reducer.0.to_le_bytes());
            out.extend_from_slice(&r.prior_frame.0.to_le_bytes());
            out.extend_from_slice(&r.prior_strand.0.to_le_bytes());
            out.extend_from_slice(&r.frame.0.to_le_bytes());
            out.extend_from_slice(&r.strand.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.frame_labels.len() as u32).to_le_bytes());
        for (frame, label) in &self.frame_labels {
            out.extend_from_slice(&frame.0.to_le_bytes());
            out.extend_from_slice(&(label.len() as u32).to_le_bytes());
            out.extend_from_slice(label.as_bytes());
        }
    }

    /// Decode a report previously written by [`RaceReport::encode`],
    /// advancing `i` past it. Errors name what was malformed; they never
    /// yield a partially decoded report.
    pub fn decode(b: &[u8], i: &mut usize) -> Result<RaceReport, String> {
        let mut report = RaceReport::default();
        let n_det = take_u32(b, i)?;
        for _ in 0..n_det {
            let loc = Loc(take_u32(b, i)?);
            let prior = take_access(b, i)?;
            let current = take_access(b, i)?;
            report.determinacy.push(DeterminacyRace {
                loc,
                prior,
                current,
            });
        }
        let n_vr = take_u32(b, i)?;
        for _ in 0..n_vr {
            report.view_read.push(ViewReadRace {
                reducer: ReducerId(take_u32(b, i)?),
                prior_frame: FrameId(take_u32(b, i)?),
                prior_strand: StrandId(take_u64(b, i)?),
                frame: FrameId(take_u32(b, i)?),
                strand: StrandId(take_u64(b, i)?),
            });
        }
        let n_labels = take_u32(b, i)?;
        for _ in 0..n_labels {
            let frame = FrameId(take_u32(b, i)?);
            let len = take_u32(b, i)? as usize;
            let end = i
                .checked_add(len)
                .filter(|&e| e <= b.len())
                .ok_or_else(|| format!("truncated frame label at byte {i}"))?;
            let label = std::str::from_utf8(&b[*i..end])
                .map_err(|_| format!("non-UTF-8 frame label at byte {i}"))?;
            *i = end;
            report.frame_labels.insert(frame, intern_label(label));
        }
        Ok(report)
    }
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.has_races() {
            return writeln!(f, "no races detected");
        }
        for r in &self.view_read {
            writeln!(
                f,
                "VIEW-READ RACE on reducer {:?}: read in {} strand {:?} \
                 vs read in {} strand {:?} (different peer sets)",
                r.reducer,
                self.frame_name(r.prior_frame),
                r.prior_strand,
                self.frame_name(r.frame),
                r.strand
            )?;
        }
        for r in &self.determinacy {
            writeln!(
                f,
                "DETERMINACY RACE on loc {:?}: {} in {} strand {:?} ({:?}) \
                 vs {} in {} strand {:?} ({:?})",
                r.loc,
                if r.prior.write { "write" } else { "read" },
                self.frame_name(r.prior.frame),
                r.prior.strand,
                r.prior.kind,
                if r.current.write { "write" } else { "read" },
                self.frame_name(r.current.frame),
                r.current.strand,
                r.current.kind,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(loc: u32) -> DeterminacyRace {
        let a = AccessInfo {
            frame: FrameId(0),
            strand: StrandId(0),
            write: true,
            kind: AccessKind::Oblivious,
        };
        DeterminacyRace {
            loc: Loc(loc),
            prior: a,
            current: a,
        }
    }

    #[test]
    fn merge_dedupes_by_loc() {
        let mut a = RaceReport::default();
        a.determinacy.push(det(1));
        let mut b = RaceReport::default();
        b.determinacy.push(det(1));
        b.determinacy.push(det(2));
        a.merge(&b);
        assert_eq!(a.determinacy.len(), 2);
        assert_eq!(
            a.racy_locs().into_iter().collect::<Vec<_>>(),
            vec![Loc(1), Loc(2)]
        );
    }

    #[test]
    fn merger_stays_one_race_per_loc_and_reducer() {
        let vr = |red: u32| ViewReadRace {
            reducer: ReducerId(red),
            prior_frame: FrameId(0),
            prior_strand: StrandId(0),
            frame: FrameId(1),
            strand: StrandId(1),
        };
        let mut merger = ReportMerger::new();
        // Many overlapping reports, as an exhaustive sweep produces.
        for round in 0..50u32 {
            let mut r = RaceReport::default();
            for loc in 0..10 {
                r.determinacy.push(det(loc));
                r.determinacy.push(det(loc + round % 3));
            }
            r.view_read.push(vr(round % 4));
            merger.merge(&r);
        }
        let merged = merger.finish();
        assert_eq!(merged.determinacy.len(), merged.racy_locs().len());
        assert_eq!(merged.view_read.len(), merged.racy_reducers().len());
        assert_eq!(merged.determinacy.len(), 12); // locs 0..10 plus 10, 11
        assert_eq!(merged.view_read.len(), 4);

        // And it agrees with the pairwise RaceReport::merge semantics.
        let mut pairwise = RaceReport::default();
        let mut again = ReportMerger::new();
        for loc in [3u32, 1, 3, 2, 1] {
            let mut r = RaceReport::default();
            r.determinacy.push(det(loc));
            pairwise.merge(&r);
            again.merge(&r);
        }
        assert_eq!(pairwise, again.finish());
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut r = RaceReport::default();
        r.determinacy.push(det(7));
        r.determinacy.push(DeterminacyRace {
            loc: Loc(9),
            prior: AccessInfo {
                frame: FrameId(3),
                strand: StrandId(1 << 40),
                write: false,
                kind: AccessKind::Reduce,
            },
            current: AccessInfo {
                frame: FrameId(4),
                strand: StrandId(12),
                write: true,
                kind: AccessKind::Update,
            },
        });
        r.view_read.push(ViewReadRace {
            reducer: ReducerId(2),
            prior_frame: FrameId(1),
            prior_strand: StrandId(5),
            frame: FrameId(6),
            strand: StrandId(u64::MAX),
        });
        r.frame_labels.insert(FrameId(3), "update_list");
        r.frame_labels.insert(FrameId(4), "race");
        let mut bytes = Vec::new();
        r.encode(&mut bytes);
        let mut i = 0;
        let back = RaceReport::decode(&bytes, &mut i).expect("decode");
        assert_eq!(i, bytes.len(), "decode must consume the whole encoding");
        assert_eq!(back, r);
        // Rendered output (what byte-identity pins) survives the trip.
        assert_eq!(format!("{back}"), format!("{r}"));
        // An empty report round-trips too.
        let empty = RaceReport::default();
        let mut bytes = Vec::new();
        empty.encode(&mut bytes);
        let mut i = 0;
        assert_eq!(RaceReport::decode(&bytes, &mut i).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_truncation_and_junk() {
        let mut r = RaceReport::default();
        r.determinacy.push(det(1));
        r.frame_labels.insert(FrameId(0), "f");
        let mut bytes = Vec::new();
        r.encode(&mut bytes);
        // Any strict prefix must fail loudly, never partially decode.
        for cut in 0..bytes.len() {
            let mut i = 0;
            assert!(
                RaceReport::decode(&bytes[..cut], &mut i).is_err(),
                "prefix of {cut} bytes decoded silently"
            );
        }
        // An invalid AccessKind byte is named.
        let mut bad = bytes.clone();
        // Kind byte of the first access: 4 (count) + 4 (loc) + 4 + 8 + 1.
        bad[4 + 4 + 4 + 8 + 1] = 99;
        let mut i = 0;
        let err = RaceReport::decode(&bad, &mut i).unwrap_err();
        assert!(err.contains("AccessKind"), "{err}");
    }

    #[test]
    fn display_mentions_race_kinds() {
        let mut r = RaceReport::default();
        assert!(format!("{r}").contains("no races"));
        r.determinacy.push(det(3));
        let s = format!("{r}");
        assert!(s.contains("DETERMINACY RACE"));
        assert!(r.has_races());
    }
}
