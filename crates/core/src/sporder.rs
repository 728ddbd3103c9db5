//! The SP-order algorithm (Bender, Fineman, Gilbert & Leiserson,
//! SPAA'04) — an *extension beyond the paper*, which notes in its
//! related-work section that "no implementation of the SP-order and
//! SP-hybrid algorithms exists". This is one, for the serial setting,
//! provided as an independently-derived baseline for the bags-based
//! detectors.
//!
//! SP-order maintains two total orders over strands — the **English**
//! order (left-to-right, spawned child before continuation) and the
//! **Hebrew** order (right-to-left, continuation before spawned child) —
//! in order-maintenance lists. For strands of a series-parallel
//! computation,
//!
//! > `u ≺ v` iff `u` precedes `v` in *both* orders;
//! > `u ∥ v` iff the orders disagree.
//!
//! Because serial execution visits strands in English order, a prior
//! access `u` is parallel with the current strand `v` iff `v` precedes
//! `u` in the Hebrew order — one O(1) tag comparison per check, with no
//! union-find at all. Determinacy-race detection then proceeds exactly
//! like SP-bags (single reader/writer shadow entries, by
//! pseudotransitivity of ∥).
//!
//! Like SP-bags, SP-order is view-oblivious: it applies to computations
//! without reducer steals (property tests pin its equivalence to SP-bags
//! there).

use rader_cilk::{AccessKind, EnterKind, FrameId, Loc, StrandId, Tool};
use rader_dsu::om::{OmList, OmNode};

use crate::report::{AccessInfo, DeterminacyRace, RaceReport};
use crate::shadow::LocSet;

/// A strand's position: (English, Hebrew).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pos {
    e: OmNode,
    h: OmNode,
}

struct Frame {
    /// Position of the frame's current strand.
    cur: Pos,
    /// Final positions of spawned children, joined at the next sync.
    pending: Vec<Pos>,
}

#[derive(Clone, Copy)]
struct Shadow {
    pos: Pos,
    frame: FrameId,
    strand: StrandId,
    kind: AccessKind,
}

/// SP-order detector state; attach to a **no-steal** serial run as a
/// [`Tool`].
pub struct SpOrder {
    english: OmList,
    hebrew: OmList,
    stack: Vec<Frame>,
    reader: Vec<Option<Shadow>>,
    writer: Vec<Option<Shadow>>,
    report: RaceReport,
    /// Locations already in `report` (one race per location).
    racy: LocSet,
    /// Total access checks performed.
    pub checks: u64,
}

impl Default for SpOrder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpOrder {
    /// Fresh SP-order detector state.
    pub fn new() -> Self {
        SpOrder {
            english: OmList::new(),
            hebrew: OmList::new(),
            stack: Vec::with_capacity(64),
            reader: Vec::new(),
            writer: Vec::new(),
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

    /// Is the strand at `u` logically parallel with the *current* strand?
    ///
    /// `u` executed earlier (serial order = English order), so `u ≺ cur`
    /// iff `u` also precedes `cur` in Hebrew; they are parallel iff the
    /// Hebrew order disagrees.
    fn parallel_with_current(&self, u: Pos) -> bool {
        let cur = self.stack.last().expect("no active frame").cur;
        if u == cur {
            return false;
        }
        debug_assert!(self.english.order(u.e, cur.e), "serial order violated");
        self.hebrew.order(cur.h, u.h)
    }

    fn slot(v: &mut Vec<Option<Shadow>>, loc: Loc) -> &mut Option<Shadow> {
        if loc.index() >= v.len() {
            v.resize(loc.index() + 1, None);
        }
        &mut v[loc.index()]
    }

    fn record_race(&mut self, loc: Loc, prior: Shadow, prior_write: bool, current: AccessInfo) {
        if !self.racy.insert(loc) {
            return;
        }
        self.report.determinacy.push(DeterminacyRace {
            loc,
            prior: AccessInfo {
                frame: prior.frame,
                strand: prior.strand,
                write: prior_write,
                kind: prior.kind,
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
        let cur = self.stack.last().expect("no active frame").cur;
        let me = Shadow {
            pos: cur,
            frame,
            strand,
            kind,
        };
        let current = AccessInfo {
            frame,
            strand,
            write,
            kind,
        };
        if write {
            if let Some(prev) = *Self::slot(&mut self.reader, loc) {
                if self.parallel_with_current(prev.pos) {
                    self.record_race(loc, prev, false, current);
                }
            }
            if let Some(prev) = *Self::slot(&mut self.writer, loc) {
                if self.parallel_with_current(prev.pos) {
                    self.record_race(loc, prev, true, current);
                }
            }
            let update = match *Self::slot(&mut self.writer, loc) {
                None => true,
                Some(prev) => !self.parallel_with_current(prev.pos),
            };
            if update {
                *Self::slot(&mut self.writer, loc) = Some(me);
            }
        } else {
            if let Some(prev) = *Self::slot(&mut self.writer, loc) {
                if self.parallel_with_current(prev.pos) {
                    self.record_race(loc, prev, true, current);
                }
            }
            let update = match *Self::slot(&mut self.reader, loc) {
                None => true,
                Some(prev) => !self.parallel_with_current(prev.pos),
            };
            if update {
                *Self::slot(&mut self.reader, loc) = Some(me);
            }
        }
    }
}

impl Tool for SpOrder {
    fn frame_enter(&mut self, _frame: FrameId, kind: EnterKind) {
        match kind {
            EnterKind::Root => {
                let pos = Pos {
                    e: self.english.base(),
                    h: self.hebrew.base(),
                };
                self.stack.push(Frame {
                    cur: pos,
                    pending: Vec::new(),
                });
            }
            EnterKind::Spawn => {
                let parent = self.stack.last().expect("spawn with no parent").cur;
                // English: child before continuation.
                let child_e = self.english.insert_after(parent.e);
                let cont_e = self.english.insert_after(child_e);
                // Hebrew: continuation before child.
                let cont_h = self.hebrew.insert_after(parent.h);
                let child_h = self.hebrew.insert_after(cont_h);
                let cont = Pos {
                    e: cont_e,
                    h: cont_h,
                };
                self.stack.last_mut().unwrap().cur = cont;
                self.stack.push(Frame {
                    cur: Pos {
                        e: child_e,
                        h: child_h,
                    },
                    pending: Vec::new(),
                });
            }
            EnterKind::Call => {
                let parent = self.stack.last().expect("call with no parent").cur;
                // Series composition: child then continuation, both orders.
                let child_e = self.english.insert_after(parent.e);
                let cont_e = self.english.insert_after(child_e);
                let child_h = self.hebrew.insert_after(parent.h);
                let cont_h = self.hebrew.insert_after(child_h);
                let cont = Pos {
                    e: cont_e,
                    h: cont_h,
                };
                self.stack.last_mut().unwrap().cur = cont;
                self.stack.push(Frame {
                    cur: Pos {
                        e: child_e,
                        h: child_h,
                    },
                    pending: Vec::new(),
                });
            }
        }
    }

    fn frame_leave(&mut self, _frame: FrameId, kind: EnterKind) {
        let child = self.stack.pop().expect("leave with empty stack");
        debug_assert!(child.pending.is_empty(), "child left with unsynced spawns");
        let Some(parent) = self.stack.last_mut() else {
            return;
        };
        if kind == EnterKind::Spawn {
            parent.pending.push(child.cur);
        } else {
            // Call: the continuation (already parent.cur) must follow the
            // callee's final strand in both orders. The reserved cont
            // position was inserted before the callee ran, so re-anchor
            // it after the callee's final strand.
            let final_pos = child.cur;
            let cont_e = self.english.insert_after(final_pos.e);
            let cont_h = self.hebrew.insert_after(final_pos.h);
            parent.cur = Pos {
                e: cont_e,
                h: cont_h,
            };
        }
    }

    fn sync(&mut self, _frame: FrameId) {
        // The sync strand follows the frame's chain and all pending
        // children in both orders: insert after the maximum position.
        let (cur, pending) = {
            let f = self.stack.last_mut().expect("sync with empty stack");
            (f.cur, std::mem::take(&mut f.pending))
        };
        let mut max_e = cur.e;
        let mut max_h = cur.h;
        for p in &pending {
            if self.english.order(max_e, p.e) {
                max_e = p.e;
            }
            if self.hebrew.order(max_h, p.h) {
                max_h = p.h;
            }
        }
        let e = self.english.insert_after(max_e);
        let h = self.hebrew.insert_after(max_h);
        self.stack.last_mut().unwrap().cur = Pos { e, h };
    }

    fn stolen_continuation(&mut self, _frame: FrameId, _vid: rader_dsu::ViewId) {
        panic!("SP-order does not support steal simulation; use SP+");
    }

    fn read(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.access(frame, strand, loc, false, kind);
    }

    fn write(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.access(frame, strand, loc, true, kind);
    }

    fn frame_label(&mut self, frame: FrameId, label: &'static str) {
        self.report.frame_labels.insert(frame, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{Ctx, SerialEngine};

    fn check(prog: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = SpOrder::new();
        SerialEngine::new().run_tool(&mut tool, prog);
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
    fn sync_serializes() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.sync();
            cx.write(a, 2);
        });
        assert!(!r.has_races());
    }

    #[test]
    fn calls_are_serial() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.call(move |cx| cx.write(a, 1));
            cx.write(a, 2);
            cx.call(move |cx| {
                let _ = cx.read(a);
            });
        });
        assert!(!r.has_races());
    }

    #[test]
    fn call_inside_spawn_stays_parallel_with_continuation() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| {
                cx.call(move |cx| cx.write(a, 1));
            });
            let _ = cx.read(a);
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
    }

    #[test]
    fn nested_sync_blocks() {
        let r = check(|cx| {
            let a = cx.alloc(2);
            cx.spawn(move |cx| {
                cx.spawn(move |cx| cx.write(a, 1));
                cx.sync();
                cx.write(a.at(1), 1); // serial with its own child
            });
            cx.write(a.at(1), 2); // parallel with the spawned subtree!
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
        assert_eq!(r.determinacy[0].loc.index(), 1);
    }

    #[test]
    fn second_block_after_sync_is_fresh() {
        let r = check(|cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.sync();
            cx.spawn(move |cx| cx.write(a, 2));
            cx.sync();
            let _ = cx.read(a);
        });
        assert!(!r.has_races());
    }

    #[test]
    #[should_panic(expected = "does not support steal simulation")]
    fn steals_are_rejected() {
        use rader_cilk::{BlockScript, StealSpec};
        let mut tool = SpOrder::new();
        SerialEngine::with_spec(StealSpec::EveryBlock(BlockScript::steals(vec![1]))).run_tool(
            &mut tool,
            |cx| {
                cx.spawn(|_| {});
                cx.sync();
            },
        );
    }
}
