//! The SP-bags algorithm (Feng & Leiserson), the baseline SP+ extends.
//!
//! Detects determinacy races in computations *without* reducer view
//! management: per active frame an S bag (descendants serial with the
//! current strand) and a P bag (descendants parallel with it), plus one
//! reader and one writer shadow entry per location (pseudotransitivity of
//! ∥ makes a single reader sufficient).
//!
//! SP-bags is **view-oblivious**: it treats view-aware accesses like any
//! other, so on computations with simulated steals it reports spurious
//! races on view memory (and run without steals it cannot elicit the
//! view-aware strands at all). That gap is precisely the paper's
//! motivation for SP+; tests demonstrate it on the Figure-1 program.

use rader_cilk::{AccessKind, EnterKind, FrameId, Loc, StrandId, Tool};
use rader_dsu::{Bag, BagForest, BagKind, Elem, ViewId};

use crate::report::{AccessInfo, DeterminacyRace, RaceReport};
use crate::shadow::{LocSet, ShadowEntry, ShadowSpace};

struct Frame {
    elem: Elem,
    s: Bag,
    p: Bag,
}

/// SP-bags detector state; attach to a serial run as a [`Tool`].
pub struct SpBags {
    forest: BagForest,
    stack: Vec<Frame>,
    shadow: ShadowSpace,
    report: RaceReport,
    /// Locations already in `report` (one race per location).
    racy: LocSet,
    /// Total access checks performed.
    pub checks: u64,
}

impl Default for SpBags {
    fn default() -> Self {
        Self::new()
    }
}

impl SpBags {
    /// Fresh SP-bags detector state.
    pub fn new() -> Self {
        SpBags {
            forest: BagForest::new(),
            stack: Vec::with_capacity(64),
            shadow: ShadowSpace::new(),
            report: RaceReport::default(),
            racy: LocSet::new(),
            checks: 0,
        }
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &RaceReport {
        &self.report
    }

    /// Consume the detector, returning its report.
    pub fn into_report(self) -> RaceReport {
        self.report
    }

    fn record_race(
        &mut self,
        loc: Loc,
        prior: ShadowEntry,
        prior_write: bool,
        current: AccessInfo,
    ) {
        if !self.racy.insert(loc) {
            return;
        }
        self.report.determinacy.push(DeterminacyRace {
            loc,
            prior: AccessInfo {
                frame: prior.frame(),
                strand: prior.strand(),
                write: prior_write,
                kind: prior.kind(),
            },
            current,
        });
    }

    fn access(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        loc: Loc,
        write: bool,
        kind: AccessKind,
    ) {
        self.checks += 1;
        let f = self.stack.last().expect("access with empty stack");
        let me = ShadowEntry::new(f.elem, frame, strand, kind);
        let current = AccessInfo {
            frame,
            strand,
            write,
            kind,
        };
        self.shadow.grow_to(loc);
        let cell = self.shadow.get(loc);
        if write {
            if let Some(prev) = cell.reader {
                if self.forest.find_info(prev.elem()).kind.is_p() {
                    self.record_race(loc, prev, false, current);
                }
            }
            if let Some(prev) = cell.writer {
                if self.forest.find_info(prev.elem()).kind.is_p() {
                    self.record_race(loc, prev, true, current);
                }
            }
            let update = match cell.writer {
                None => true,
                Some(prev) => !self.forest.find_info(prev.elem()).kind.is_p(),
            };
            if update {
                self.shadow.cell_mut(loc).writer = Some(me);
            }
        } else {
            if let Some(prev) = cell.writer {
                if self.forest.find_info(prev.elem()).kind.is_p() {
                    self.record_race(loc, prev, true, current);
                }
            }
            let update = match cell.reader {
                None => true,
                Some(prev) => !self.forest.find_info(prev.elem()).kind.is_p(),
            };
            if update {
                self.shadow.cell_mut(loc).reader = Some(me);
            }
        }
    }
}

impl Tool for SpBags {
    fn frame_enter(&mut self, _frame: FrameId, _kind: EnterKind) {
        let (elem, s) = self.forest.make_elem_bag(BagKind::S, ViewId::NONE);
        let p = self.forest.make_bag(BagKind::P, ViewId::NONE);
        self.stack.push(Frame { elem, s, p });
    }

    fn frame_label(&mut self, frame: FrameId, label: &'static str) {
        self.report.frame_labels.insert(frame, label);
    }

    fn frame_leave(&mut self, _frame: FrameId, kind: EnterKind) {
        let g = self.stack.pop().expect("leave with empty stack");
        let Some(f) = self.stack.last() else {
            return;
        };
        match kind {
            EnterKind::Spawn => {
                // Spawned G returns: F.P ∪= G.S (G.P is empty post-sync).
                self.forest.union_bags(f.p, g.s);
                self.forest.union_bags(f.p, g.p);
            }
            _ => {
                // Called G returns: F.S ∪= G.S.
                self.forest.union_bags(f.s, g.s);
                self.forest.union_bags(f.p, g.p);
            }
        }
    }

    fn sync(&mut self, _frame: FrameId) {
        let f = self.stack.last().expect("sync with empty stack");
        let (s, p) = (f.s, f.p);
        self.forest.union_bags(s, p);
        let fresh = self.forest.make_bag(BagKind::P, ViewId::NONE);
        self.stack.last_mut().unwrap().p = fresh;
    }

    fn read(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.access(frame, strand, loc, false, kind);
    }

    fn write(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.access(frame, strand, loc, true, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{Ctx, SerialEngine, StealSpec};

    fn check(prog: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = SpBags::new();
        SerialEngine::with_spec(StealSpec::None).run_tool(&mut tool, prog);
        tool.into_report()
    }

    #[test]
    fn parallel_write_write_detected() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.write(a, 2);
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
    }

    #[test]
    fn parallel_read_write_detected() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| {
                let _ = cx.read(a);
            });
            cx.write(a, 2);
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
    }

    #[test]
    fn parallel_reads_are_fine() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| {
                let _ = cx.read(a);
            });
            let _ = cx.read(a);
            cx.sync();
        });
        assert!(!r.has_races());
    }

    #[test]
    fn serialization_by_sync_is_respected() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.sync();
            cx.write(a, 2);
            let _ = cx.read(a);
        });
        assert!(!r.has_races());
    }

    #[test]
    fn called_frames_are_serial() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.call(move |cx| cx.write(a, 1));
            cx.write(a, 2);
        });
        assert!(!r.has_races());
    }

    #[test]
    fn sibling_spawns_race_each_other() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.spawn(move |cx| cx.write(a, 2));
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
    }

    #[test]
    fn write_read_across_nested_spawn() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| {
                cx.spawn(move |cx| cx.write(a, 1));
                cx.sync();
            });
            let _ = cx.read(a);
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
    }

    #[test]
    fn one_race_per_location() {
        let r = check(|cx| {
            let a = cx.alloc(2);
            cx.spawn(move |cx| {
                cx.write(a, 1);
                cx.write(a.at(1), 1);
            });
            cx.write(a, 2);
            cx.write(a, 3);
            cx.write(a.at(1), 2);
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 2); // one per loc
    }
}
