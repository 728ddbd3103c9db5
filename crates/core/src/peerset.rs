//! The Peer-Set algorithm (paper, Figure 3).
//!
//! Detects *view-read races*: two reducer-reads (create / set / get) at
//! strands with different peer sets, where the peer set of a strand `u` is
//! `{ w : w ∥ u }`. By the peer-set semantics of reducers (Definition 1),
//! reads at equal-peer strands are guaranteed to observe deterministic
//! view contents; reads at different-peer strands may observe
//! schedule-dependent views.
//!
//! The algorithm executes the computation serially (no steal simulation)
//! and maintains, per active frame `F`:
//!
//! * `F.ls` — spawns since `F` last synced;
//! * `F.as` — spawns by `F`'s ancestors not yet synced;
//! * `F.SS` — completed descendants sharing the peer set of `F`'s first
//!   strand;
//! * `F.SP` — completed descendants sharing the peer set of `F`'s last
//!   executed continuation strand;
//! * `F.P` — all other completed descendants.
//!
//! plus one shadow entry per reducer: the last reader and its spawn count.
//! A reducer-read races with the previous one iff the previous reader now
//! sits in a `P` bag, or the spawn counts differ (Lemma 3).

use rader_cilk::{EnterKind, FrameId, ReducerId, ReducerReadKind, StrandId, Tool};
use rader_dsu::{Bag, BagForest, BagKind, Elem, ViewId};

use crate::report::{RaceReport, ViewReadRace};

struct Frame {
    elem: Elem,
    ls: u32,
    anc: u32,
    ss: Bag,
    sp: Bag,
    p: Bag,
}

#[derive(Clone, Copy)]
struct Reader {
    elem: Elem,
    /// Spawn count `F.as + F.ls` at the read.
    s: u32,
    frame: FrameId,
    strand: StrandId,
}

/// Peer-Set detector state; attach to a no-steal serial run as a
/// [`Tool`].
pub struct PeerSet {
    forest: BagForest,
    stack: Vec<Frame>,
    readers: Vec<Option<Reader>>,
    report: RaceReport,
    /// Total reducer-read checks performed (for the bench harness).
    pub checks: u64,
}

impl Default for PeerSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PeerSet {
    /// Fresh Peer-Set detector state.
    pub fn new() -> Self {
        PeerSet {
            forest: BagForest::new(),
            stack: Vec::with_capacity(64),
            readers: Vec::new(),
            report: RaceReport::default(),
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
}

impl Tool for PeerSet {
    fn frame_enter(&mut self, frame: FrameId, kind: EnterKind) {
        let anc = match self.stack.last_mut() {
            Some(parent) => {
                if kind == EnterKind::Spawn {
                    // F spawns G: F.ls += 1; F.P ∪= F.SP; F.SP = ∅.
                    parent.ls += 1;
                    let (p, sp) = (parent.p, parent.sp);
                    self.forest.union_bags(p, sp);
                    let fresh = self.forest.make_bag(BagKind::SP, ViewId::NONE);
                    self.stack.last_mut().unwrap().sp = fresh;
                }
                let parent = self.stack.last().unwrap();
                parent.anc + parent.ls
            }
            None => 0,
        };
        let (elem, ss) = self.forest.make_elem_bag(BagKind::SS, ViewId::NONE);
        let sp = self.forest.make_bag(BagKind::SP, ViewId::NONE);
        let p = self.forest.make_bag(BagKind::P, ViewId::NONE);
        let _ = frame;
        self.stack.push(Frame {
            elem,
            ls: 0,
            anc,
            ss,
            sp,
            p,
        });
    }

    fn frame_label(&mut self, frame: FrameId, label: &'static str) {
        self.report.frame_labels.insert(frame, label);
    }

    fn frame_leave(&mut self, _frame: FrameId, kind: EnterKind) {
        let g = self.stack.pop().expect("leave with empty stack");
        let Some(f) = self.stack.last() else {
            return; // root returned
        };
        // F.P ∪= G.P  (G.SP is empty: G implicitly synced before return).
        self.forest.union_bags(f.p, g.p);
        if kind == EnterKind::Spawn {
            // Descendants of a spawned child share no strand's peer set
            // in F: everything goes parallel.
            self.forest.union_bags(f.p, g.ss);
        } else if f.ls == 0 {
            // Called with no outstanding spawns: G's first strand shares
            // the peer set of F's first strand.
            self.forest.union_bags(f.ss, g.ss);
        } else {
            // Called with outstanding spawns: G's first strand shares the
            // peer set of F's last continuation strand.
            self.forest.union_bags(f.sp, g.ss);
        }
    }

    fn sync(&mut self, _frame: FrameId) {
        let f = self.stack.last().expect("sync with empty stack");
        let (p, sp) = (f.p, f.sp);
        self.forest.union_bags(p, sp);
        let fresh = self.forest.make_bag(BagKind::SP, ViewId::NONE);
        let f = self.stack.last_mut().unwrap();
        f.sp = fresh;
        f.ls = 0;
    }

    fn reducer_read(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        h: ReducerId,
        _kind: ReducerReadKind,
    ) {
        self.checks += 1;
        let f = self.stack.last().expect("reducer read with empty stack");
        let spawn_count = f.anc + f.ls;
        if h.index() >= self.readers.len() {
            self.readers.resize(h.index() + 1, None);
        }
        if let Some(prev) = self.readers[h.index()] {
            let bag = self.forest.find_info(prev.elem);
            if bag.kind.is_p() || prev.s != spawn_count {
                // A view-read race exists; report once per reducer.
                if !self.report.view_read.iter().any(|r| r.reducer == h) {
                    self.report.view_read.push(ViewReadRace {
                        reducer: h,
                        prior_frame: prev.frame,
                        prior_strand: prev.strand,
                        frame,
                        strand,
                    });
                }
            }
        }
        self.readers[h.index()] = Some(Reader {
            elem: f.elem,
            s: spawn_count,
            frame,
            strand,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::synth::SynthAdd;
    use rader_cilk::{Ctx, SerialEngine};
    use std::sync::Arc;

    fn check(prog: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = PeerSet::new();
        SerialEngine::new().run_tool(&mut tool, prog);
        tool.into_report()
    }

    #[test]
    fn read_after_sync_is_clean() {
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.sync();
            let _ = cx.reducer_get_view(h);
        });
        assert!(!r.has_races());
    }

    #[test]
    fn read_before_sync_races() {
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            let _ = cx.reducer_get_view(h); // outstanding spawn
            cx.sync();
        });
        assert_eq!(r.view_read.len(), 1);
    }

    #[test]
    fn set_value_after_spawn_races_with_creation() {
        // The paper's example: moving set_value after the cilk_spawn
        // creates a view-read race even if it happens to be benign.
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd)); // reducer-read 1
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            let cell = cx.alloc(1);
            cx.reducer_set_view(h, cell); // reducer-read 2: different peers
            cx.sync();
        });
        assert_eq!(r.view_read.len(), 1);
    }

    #[test]
    fn read_in_spawned_child_races() {
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| {
                let _ = cx.reducer_get_view(h);
            });
            cx.sync();
        });
        assert_eq!(r.view_read.len(), 1);
    }

    #[test]
    fn reads_in_series_within_called_frame_are_clean() {
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.call(move |cx| {
                let _ = cx.reducer_get_view(h);
            });
            let _ = cx.reducer_get_view(h);
        });
        assert!(!r.has_races());
    }

    #[test]
    fn call_after_spawn_read_races_with_pre_spawn_read() {
        // A read inside a frame called while a spawn is outstanding has
        // the peers of the last continuation strand, not of the pre-spawn
        // read.
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd)); // read at spawn count 0
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.call(move |cx| {
                let _ = cx.reducer_get_view(h); // spawn count differs
            });
            cx.sync();
        });
        assert_eq!(r.view_read.len(), 1);
    }

    #[test]
    fn one_race_reported_per_reducer() {
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            for _ in 0..3 {
                cx.spawn(move |cx| cx.reducer_update(h, &[1]));
                let _ = cx.reducer_get_view(h);
            }
            cx.sync();
        });
        assert_eq!(r.view_read.len(), 1);
    }

    #[test]
    fn independent_reducers_race_independently() {
        let r = check(|cx| {
            let h1 = cx.new_reducer(Arc::new(SynthAdd));
            let h2 = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h1, &[1]));
            let _ = cx.reducer_get_view(h1); // race on h1
            cx.sync();
            let _ = cx.reducer_get_view(h2); // clean on h2
        });
        assert_eq!(r.view_read.len(), 1);
        assert_eq!(r.view_read[0].reducer.index(), 0);
    }

    #[test]
    fn two_sequential_blocks_do_not_race() {
        let r = check(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.sync();
            let _ = cx.reducer_get_view(h);
            cx.spawn(move |cx| cx.reducer_update(h, &[2]));
            cx.sync();
            let _ = cx.reducer_get_view(h);
        });
        assert!(!r.has_races());
    }
}
