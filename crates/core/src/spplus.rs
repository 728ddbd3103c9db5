//! The SP+ algorithm (paper, Figure 6).
//!
//! SP+ extends SP-bags to detect determinacy races in computations that
//! use reducers, executing serially under a *steal specification* that
//! fixes which continuations are stolen and when reduces run. Each frame's
//! single P bag becomes a **stack of P bags**, each tagged with a view ID:
//!
//! * a stolen continuation pushes a fresh P bag with a fresh view ID;
//! * a reduce pops the top P bag and unions it into the one below
//!   (the destination's view ID — the dominating view — survives);
//! * at a sync exactly one P bag remains; it folds into the S bag and is
//!   replaced by a fresh bag carrying the frame's entry view ID.
//!
//! Race checks consult the view IDs: an access by a *view-aware* strand
//! races with a parallel prior access only if their views are also
//! parallel (different view IDs). Accesses made *by a `Reduce`
//! invocation* are special twice over: the reduce runs as its own
//! invocation whose ID joins the just-merged top P bag (making the reduce
//! strand logically parallel to the frame's later user strands but
//! serial, via the view ID, with the strands whose views it folds). The
//! shadow spaces keep parallel (P-bag) entries even across reduce
//! accesses: sharing a view ID does not place the previous accessor
//! under a merged view, and when it *is* under one, the reduce's element
//! joins its bag anyway once the region closes.

use rader_cilk::{AccessKind, EnterKind, FrameId, Loc, StrandId, Tool};
use rader_dsu::{Bag, BagForest, BagInfo, BagKind, Elem, ViewId};

use crate::report::{AccessInfo, DeterminacyRace, RaceReport};
use crate::shadow::{LocSet, ShadowEntry, ShadowSpace};

struct Frame {
    elem: Elem,
    s: Bag,
    /// Stack of P bags; the top carries the current view ID.
    pstack: Vec<Bag>,
    /// View ID at frame entry (restored at each sync).
    entry_vid: ViewId,
}

/// An in-flight `Reduce` invocation: its accesses are recorded under a
/// fresh element that joins the merged top P bag when the reduce ends.
struct PendingReduce {
    elem: Elem,
    sbag: Bag,
}

/// Index of the reader shadow space in [`SpPlus`]'s per-space find cache.
const READER: usize = 0;
/// Index of the writer shadow space in [`SpPlus`]'s per-space find cache.
const WRITER: usize = 1;

/// SP+ detector state; attach to a serial run (under any [`StealSpec`])
/// as a [`Tool`].
///
/// [`StealSpec`]: rader_cilk::StealSpec
pub struct SpPlus {
    forest: BagForest,
    stack: Vec<Frame>,
    reader: ShadowSpace,
    writer: ShadowSpace,
    pending_reduce: Option<PendingReduce>,
    /// The last `find_info` answer for a prior accessor found in each
    /// shadow space ([`READER`], [`WRITER`]), keyed by element. One entry
    /// per space, because a read consults both spaces and their prior
    /// elements usually differ. Valid until the next union: between
    /// unions no element changes bag and no bag changes kind or view ID.
    /// (`make_bag_with` only places elements created just before, which
    /// cannot be cached.)
    last_find: [Option<(Elem, BagInfo)>; 2],
    report: RaceReport,
    /// Locations already in `report` (one race per location).
    racy: LocSet,
    /// Total access checks performed.
    pub checks: u64,
    /// Steals observed (simulated by the engine per the spec).
    pub steals: u64,
    /// Reduce merges observed.
    pub reduces: u64,
}

impl Default for SpPlus {
    fn default() -> Self {
        Self::new()
    }
}

impl SpPlus {
    /// Fresh SP+ detector state.
    pub fn new() -> Self {
        SpPlus {
            forest: BagForest::new(),
            stack: Vec::with_capacity(64),
            reader: ShadowSpace::new(),
            writer: ShadowSpace::new(),
            pending_reduce: None,
            last_find: [None; 2],
            report: RaceReport::default(),
            racy: LocSet::new(),
            checks: 0,
            steals: 0,
            reduces: 0,
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

    /// Take the current run's report, leaving the detector ready for
    /// reuse. Together with the engine's [`Tool::begin_run`] reset this
    /// lets one `SpPlus` instance serve a whole specification sweep,
    /// reusing its bag-forest and shadow-space allocations instead of
    /// building fresh ones per run. The cumulative counters (`checks`,
    /// `steals`, `reduces`) are preserved.
    pub fn take_report(&mut self) -> RaceReport {
        self.forget_races();
        std::mem::take(&mut self.report)
    }

    /// Empty `racy` by removing the current report's locations, O(races).
    fn forget_races(&mut self) {
        for race in &self.report.determinacy {
            self.racy.remove(race.loc);
        }
    }

    /// The current view ID: the top P bag's view of the current frame.
    fn current_vid(&mut self) -> ViewId {
        let f = self.stack.last().expect("no active frame");
        let top = *f.pstack.last().expect("empty P stack");
        self.forest.bag_info(top).vid
    }

    /// Close the in-flight reduce region, folding its accesses' element
    /// into the current top P bag (whose view ID they share).
    fn flush_reduce(&mut self) {
        if let Some(pr) = self.pending_reduce.take() {
            let f = self.stack.last().expect("no active frame");
            let top = *f.pstack.last().expect("empty P stack");
            self.union(top, pr.sbag);
        }
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
                frame: prior.frame,
                strand: prior.strand,
                write: prior_write,
                kind: prior.kind,
            },
            current,
        });
    }

    /// `dst ∪= src`, dropping the find cache (membership changes).
    fn union(&mut self, dst: Bag, src: Bag) {
        self.last_find = [None; 2];
        self.forest.union_bags(dst, src);
    }

    /// The bag holding `prior`, the element of the last accessor recorded
    /// in shadow space `space`, or `None` when it is the current
    /// accessor's own element `me`. The own element sits in an S bag for
    /// as long as it can access memory (DESIGN.md §5f), so the prior
    /// access is serial and no find is needed.
    #[inline]
    fn prior_bag(&mut self, space: usize, prior: Elem, me: Elem) -> Option<BagInfo> {
        if prior == me {
            debug_assert!(
                !self.forest.find_info(me).kind.is_p(),
                "the running element sits in a P bag"
            );
            return None;
        }
        if let Some((e, info)) = self.last_find[space] {
            if e == prior {
                debug_assert_eq!(info, self.forest.find_info(prior), "stale find cache");
                return Some(info);
            }
        }
        let info = self.forest.find_info(prior);
        self.last_find[space] = Some((prior, info));
        Some(info)
    }

    /// Race-check the current access against `prev`, the last accessor
    /// recorded in shadow space `space`, and return the bag holding its
    /// element (`None` if there is no prior or it is the accessor's own
    /// element). A view-aware access races only with a parallel access
    /// under a different view, so the view ID is looked up only then.
    // Forced inline: the compiler kept it out of line, and the calls made
    // small programs' checks slower than before the fast paths.
    #[inline(always)]
    fn check_prior(
        &mut self,
        space: usize,
        prev: Option<ShadowEntry>,
        elem: Elem,
        loc: Loc,
        current: AccessInfo,
    ) -> Option<BagInfo> {
        let prev = prev?;
        let bag = self.prior_bag(space, prev.elem, elem)?;
        if bag.kind.is_p() && (!current.kind.is_view_aware() || bag.vid != self.current_vid()) {
            self.record_race(loc, prev, space == WRITER, current);
        }
        Some(bag)
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
        let (me, current) = self.accessor(frame, strand, write, kind);
        self.check_loc(loc, me, current);
    }

    /// `len` accesses of `base, base + 1, ...` by one strand: the loop of
    /// [`SpPlus::access`] with everything that does not depend on the
    /// location hoisted out of it (DESIGN.md §5f). Only the per-location
    /// body runs per element, and it is the one `access` runs, so the
    /// shadow spaces, the find cache, the report and `checks` end up
    /// exactly as `len` calls of `access` would leave them.
    fn access_range(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        base: Loc,
        len: u32,
        write: bool,
        kind: AccessKind,
    ) {
        if len == 0 {
            return;
        }
        self.checks += u64::from(len);
        let (me, current) = self.accessor(frame, strand, write, kind);
        let last = Loc(base.0 + (len - 1));
        if write {
            self.writer.grow_to(last);
        } else {
            self.reader.grow_to(last);
        }
        for i in 0..len {
            self.check_loc(Loc(base.0 + i), me, current);
        }
    }

    /// The shadow entry and report record of an access by the running
    /// strand: its element is the in-flight reduce's for a reduce access,
    /// else the current frame's (closing any reduce region first).
    #[inline]
    fn accessor(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        write: bool,
        kind: AccessKind,
    ) -> (ShadowEntry, AccessInfo) {
        let elem = if kind.in_reduce() {
            self.pending_reduce
                .as_ref()
                .expect("reduce access outside a reduce region")
                .elem
        } else {
            self.flush_reduce();
            self.stack.last().expect("no active frame").elem
        };
        let me = ShadowEntry {
            elem,
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
        (me, current)
    }

    /// Race-check one access to `loc` by `me` and update the shadow
    /// spaces: the per-location body shared by [`SpPlus::access`] and
    /// [`SpPlus::access_range`].
    #[inline(always)]
    fn check_loc(&mut self, loc: Loc, me: ShadowEntry, current: AccessInfo) {
        let elem = me.elem;
        // Shadow update: replace only serial entries. A parallel (P-bag)
        // entry must survive — even against a reduce access whose view ID
        // matches it, because equal view IDs do not imply the previous
        // accessor lies under one of the views the reduce merges (an
        // unstolen sibling can share the frame's entry view while staying
        // parallel to the reduce). When the previous accessor *is* under a
        // merged view, the reduce's element joins its bag at the region
        // flush anyway, so keeping the old entry yields identical verdicts.
        if current.write {
            self.check_prior(READER, self.reader.get(loc), elem, loc, current);
            // One lookup and one find serve both the check and the update.
            let bag = self.check_prior(WRITER, self.writer.get(loc), elem, loc, current);
            if !bag.is_some_and(|b| b.kind.is_p()) {
                self.writer.set(loc, me);
            }
        } else {
            self.check_prior(WRITER, self.writer.get(loc), elem, loc, current);
            let bag = self
                .reader
                .get(loc)
                .and_then(|prev| self.prior_bag(READER, prev.elem, elem));
            if !bag.is_some_and(|b| b.kind.is_p()) {
                self.reader.set(loc, me);
            }
        }
    }
}

impl Tool for SpPlus {
    fn begin_run(&mut self) {
        // Reset detection state in place, keeping the forest's and the
        // shadow spaces' capacity (a sweep re-runs the same program, so
        // the next run refills the same-sized structures allocation-free).
        // The public counters accumulate across runs by design: a pooled
        // sweep reads them once at the end for its totals.
        self.forest.reset();
        self.last_find = [None; 2];
        self.stack.clear();
        self.reader.reset();
        self.writer.reset();
        self.pending_reduce = None;
        self.forget_races();
        self.report = RaceReport::default();
    }

    fn frame_enter(&mut self, _frame: FrameId, _kind: EnterKind) {
        self.flush_reduce();
        let vid = match self.stack.last() {
            Some(_) => self.current_vid(),
            None => ViewId(0),
        };
        let elem = self.forest.make_elem();
        let s = self.forest.make_bag_with(BagKind::S, vid, elem);
        let p = self.forest.make_bag(BagKind::P, vid);
        self.stack.push(Frame {
            elem,
            s,
            pstack: vec![p],
            entry_vid: vid,
        });
    }

    fn frame_label(&mut self, frame: FrameId, label: &'static str) {
        self.report.frame_labels.insert(frame, label);
    }

    fn frame_leave(&mut self, _frame: FrameId, kind: EnterKind) {
        self.flush_reduce();
        let g = self.stack.pop().expect("leave with empty stack");
        debug_assert_eq!(g.pstack.len(), 1, "child returned with unreduced views");
        let Some(f) = self.stack.last() else {
            return;
        };
        match kind {
            EnterKind::Spawn => {
                // Spawned G returns: Top(F.P) ∪= G.S.
                let top = *f.pstack.last().expect("empty P stack");
                self.union(top, g.s);
            }
            _ => {
                // Called G returns: F.S ∪= G.S.
                let s = f.s;
                self.union(s, g.s);
            }
        }
    }

    fn sync(&mut self, _frame: FrameId) {
        self.flush_reduce();
        let f = self.stack.last().expect("sync with empty stack");
        debug_assert_eq!(
            f.pstack.len(),
            1,
            "sync reached with unreduced views (engine must reduce first)"
        );
        let (s, top, entry_vid) = (f.s, *f.pstack.last().unwrap(), f.entry_vid);
        // F.S ∪= Top(F.P); Top(F.P) = fresh bag with the frame's view.
        self.union(s, top);
        let fresh = self.forest.make_bag(BagKind::P, entry_vid);
        let f = self.stack.last_mut().unwrap();
        f.pstack.clear();
        f.pstack.push(fresh);
    }

    fn stolen_continuation(&mut self, _frame: FrameId, vid: ViewId) {
        self.flush_reduce();
        self.steals += 1;
        let p = self.forest.make_bag(BagKind::P, vid);
        self.stack
            .last_mut()
            .expect("steal with empty stack")
            .pstack
            .push(p);
    }

    fn reduce_merge(&mut self, _frame: FrameId, _dst: ViewId, _src: ViewId) {
        self.flush_reduce();
        self.reduces += 1;
        let f = self.stack.last_mut().expect("reduce with empty stack");
        let popped = f.pstack.pop().expect("reduce with single-bag P stack");
        let top = *f.pstack.last().expect("reduce emptied the P stack");
        // Union the newer bag into the older; the dominating view ID
        // survives (destination-wins union).
        self.union(top, popped);
        debug_assert_eq!(self.forest.bag_info(top).vid, _dst);
        // The reduce runs as its own invocation; its accesses join the
        // merged P bag when the region closes.
        let elem = self.forest.make_elem();
        let vid = self.forest.bag_info(top).vid;
        let sbag = self.forest.make_bag_with(BagKind::S, vid, elem);
        self.pending_reduce = Some(PendingReduce { elem, sbag });
    }

    fn read(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.access(frame, strand, loc, false, kind);
    }

    fn write(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.access(frame, strand, loc, true, kind);
    }

    fn read_range(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        base: Loc,
        len: u32,
        kind: AccessKind,
    ) {
        self.access_range(frame, strand, base, len, false, kind);
    }

    fn write_range(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        base: Loc,
        len: u32,
        kind: AccessKind,
    ) {
        self.access_range(frame, strand, base, len, true, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::synth::SynthAdd;
    use rader_cilk::{BlockScript, Ctx, SerialEngine, StealSpec};
    use std::sync::Arc;

    fn check(spec: StealSpec, prog: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut tool, prog);
        tool.into_report()
    }

    #[test]
    fn behaves_like_spbags_without_reducers() {
        let r = check(StealSpec::None, |cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.write(a, 2);
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
        let r = check(StealSpec::None, |cx| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.sync();
            cx.write(a, 2);
        });
        assert!(!r.has_races());
    }

    #[test]
    fn find_cache_follows_elements_across_unions() {
        // The scan reads cells written by one spawned child, so every
        // check after the first hits the cached bag of the child's
        // element. Before the sync that bag is P (race on the first cell
        // read); the sync moves it into S, so the cached answer must not
        // outlive the union (no race on the rest).
        let r = check(StealSpec::None, |cx| {
            let a = cx.alloc(4);
            cx.spawn(move |cx| {
                for i in 0..4 {
                    cx.write(a.at(i), 1);
                }
            });
            let _ = cx.read(a.at(0));
            let _ = cx.read(a.at(0));
            cx.sync();
            for i in 0..4 {
                let _ = cx.read(a.at(i));
                cx.write(a.at(i), 2); // own element: the skip path
            }
        });
        assert_eq!(r.determinacy.len(), 1, "{r}");
        let race = r.determinacy[0];
        assert!(race.prior.write && !race.current.write, "{r}");
    }

    /// Per-element or range feeding of the same accesses.
    fn feed_range(t: &mut SpPlus, ranged: bool, s: StrandId, base: Loc, len: u32, write: bool) {
        let (f, k) = (FrameId(0), AccessKind::Oblivious);
        match (ranged, write) {
            (true, false) => t.read_range(f, s, base, len, k),
            (true, true) => t.write_range(f, s, base, len, k),
            (false, _) => {
                for i in 0..len {
                    let loc = Loc(base.0 + i);
                    if write {
                        t.write(f, s, loc, k);
                    } else {
                        t.read(f, s, loc, k);
                    }
                }
            }
        }
    }

    /// A spawned child writes `a[5]` and `a[9]` and reads `a[12]` and
    /// `a[13]`; the continuation then reads `a[0..10]` and writes
    /// `a[10..14]`, so races fall in the middle and at the end of a run.
    fn mid_run_races(ranged: bool) -> SpPlus {
        let (root, child, k) = (FrameId(0), FrameId(1), AccessKind::Oblivious);
        let a = |i: u32| Loc(100 + i);
        let mut t = SpPlus::new();
        t.begin_run();
        t.frame_enter(root, EnterKind::Root);
        t.frame_enter(child, EnterKind::Spawn);
        t.write(child, StrandId(1), a(5), k);
        t.write(child, StrandId(1), a(9), k);
        t.read(child, StrandId(1), a(12), k);
        t.read(child, StrandId(1), a(13), k);
        t.frame_leave(child, EnterKind::Spawn);
        feed_range(&mut t, ranged, StrandId(2), a(0), 10, false);
        feed_range(&mut t, ranged, StrandId(2), a(10), 4, true);
        t.sync(root);
        t.frame_leave(root, EnterKind::Root);
        t
    }

    #[test]
    fn range_hooks_report_races_in_the_middle_of_a_run() {
        let t = mid_run_races(true);
        let r = t.report();
        let locs: Vec<u32> = r.determinacy.iter().map(|race| race.loc.0).collect();
        assert_eq!(locs, [105, 109, 112, 113], "{r}");
        let (read, write) = (r.determinacy[0], r.determinacy[2]);
        assert!(read.prior.write && !read.current.write, "{r}");
        assert!(!write.prior.write && write.current.write, "{r}");
        assert_eq!(read.prior.frame, FrameId(1));
        assert_eq!(read.current.strand, StrandId(2));
        assert_eq!(t.checks, 18);

        let single = mid_run_races(false);
        assert_eq!(single.report(), r);
        assert_eq!(single.checks, t.checks);
    }

    #[test]
    fn range_hooks_close_an_open_reduce_region_first() {
        // A reduce writes `a[3]`, and the next hook is a run of user reads
        // over it. Closing the region puts the reduce's element in the
        // frame's P bag, so the read at `a[3]` races with it; a range loop
        // that skipped the flush would see it as serial.
        let run = |ranged: bool| {
            let (root, child) = (FrameId(0), FrameId(1));
            let mut t = SpPlus::new();
            t.begin_run();
            t.frame_enter(root, EnterKind::Root);
            t.frame_enter(child, EnterKind::Spawn);
            t.frame_leave(child, EnterKind::Spawn);
            t.stolen_continuation(root, ViewId(1));
            t.reduce_merge(root, ViewId(0), ViewId(1));
            t.write(root, StrandId(3), Loc(103), AccessKind::Reduce);
            feed_range(&mut t, ranged, StrandId(4), Loc(100), 5, false);
            t.sync(root);
            t.frame_leave(root, EnterKind::Root);
            t.into_report()
        };
        let r = run(true);
        assert_eq!(
            r.racy_locs().into_iter().collect::<Vec<_>>(),
            [Loc(103)],
            "{r}"
        );
        assert_eq!(r.determinacy[0].prior.kind, AccessKind::Reduce, "{r}");
        assert_eq!(run(false), r);
    }

    #[test]
    fn take_report_forgets_reported_locations() {
        // A pooled detector must report the same location again in the
        // next run (one race per location is per run, not per detector).
        let mut tool = SpPlus::new();
        let racy = |cx: &mut Ctx<'_>| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.write(a, 2);
            cx.sync();
        };
        for _ in 0..2 {
            SerialEngine::new().run_tool(&mut tool, racy);
            assert_eq!(tool.take_report().determinacy.len(), 1);
        }
    }

    #[test]
    fn same_view_parallel_updates_do_not_race() {
        // No steals: both updates hit the same view cell but share its
        // view ID — the reducer is doing its job, not racing.
        let r = check(StealSpec::None, |cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.reducer_update(h, &[2]);
            cx.sync();
        });
        assert!(!r.has_races(), "{r}");
    }

    #[test]
    fn split_views_do_not_race_under_steals() {
        let r = check(StealSpec::EveryBlock(BlockScript::steals(vec![1])), |cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.reducer_update(h, &[2]);
            cx.sync();
            let v = cx.reducer_get_view(h);
            let _ = cx.read(v);
        });
        assert!(!r.has_races(), "{r}");
    }

    #[test]
    fn premature_view_read_races_with_parallel_update() {
        // Reading the view's cell while a spawned child updates the same
        // view: user (oblivious) read vs view-aware write, parallel → race.
        let r = check(StealSpec::None, |cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            let v = cx.reducer_get_view(h);
            let _ = cx.read(v);
            cx.sync();
        });
        assert_eq!(r.determinacy.len(), 1);
    }

    #[test]
    fn figure1_reduce_write_races_with_parallel_scan() {
        // The paper's Figure 1, faithfully: `race()` spawns a scanner of
        // the (shallow-copied) list and calls `update_list` in the
        // continuation; `update_list` installs the list as the reducer's
        // view, spawns work, and its sync's Reduce splices onto the
        // original list's tail `next` pointer — the write that races
        // with the concurrent scan. The race only exists on schedules
        // where the scanner's continuation is stolen (the scan and
        // update_list actually overlap), which `EveryBlock([1])`
        // provides; SP+ sees the scanner's bag under the outer view and
        // the Reduce under the stolen view: parallel views → race.
        use rader_reducers::{ListMonoid, Monoid, MyList, RedHandle};
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut tool, |cx| {
            let list = MyList::new(cx);
            list.push_back(cx, 7); // one seed node; its `next` is null
            let copy = list.shallow_copy(cx); // the Figure-1 bug
            cx.spawn(move |cx| {
                let _ = copy.scan(cx); // reads the shared node's `next`
            });
            // Continuation stolen here: the scan runs in parallel with
            // everything below.
            cx.call(move |cx| {
                let h: RedHandle<ListMonoid> = ListMonoid::register(cx);
                h.set_list(cx, &list);
                cx.spawn(|_| {}); // continuation stolen → fresh view
                h.push_back(cx, 8); // appends to the *fresh* view
                cx.sync(); // Reduce splices fresh view onto `list`'s tail
            });
            cx.sync();
        });
        let r = tool.into_report();
        assert!(
            r.determinacy
                .iter()
                .any(|race| race.current.kind == AccessKind::Reduce),
            "expected a race involving a Reduce strand: {r}"
        );
    }

    #[test]
    fn figure1_without_outer_steal_has_no_race() {
        // Same program, but the scanner's continuation is NOT stolen: on
        // this schedule the scan completes before update_list begins, so
        // SP+ (correctly, per its per-schedule guarantee) reports no
        // race involving the reduce. Coverage over steal specifications
        // is what catches the bug (Section 7).
        use rader_reducers::{ListMonoid, Monoid, MyList, RedHandle};
        // Steal only continuation 2 of each block: the root block's
        // scan-spawn continuation (index 1) stays unstolen, while
        // update_list's inner block (whose spawn is its continuation 1)
        // still splits a view... use a script that skips index 1.
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![2]));
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut tool, |cx| {
            let list = MyList::new(cx);
            list.push_back(cx, 7);
            let copy = list.shallow_copy(cx);
            cx.spawn(move |cx| {
                let _ = copy.scan(cx);
            });
            cx.call(move |cx| {
                let h: RedHandle<ListMonoid> = ListMonoid::register(cx);
                h.set_list(cx, &list);
                cx.spawn(|_| {});
                cx.spawn(|_| {}); // continuation 2: stolen → fresh view
                h.push_back(cx, 8);
                cx.sync();
            });
            cx.sync();
        });
        let r = tool.into_report();
        assert!(!r.has_races(), "{r}");
    }

    #[test]
    fn reduce_is_serial_with_strands_of_merged_views() {
        // The update in the stolen view writes the cells the reduce later
        // reads/writes — same view chain, no race.
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
        let r = check(spec, |cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.reducer_update(h, &[2]);
            cx.sync();
        });
        assert!(!r.has_races(), "{r}");
    }

    #[test]
    fn reduce_races_with_strand_in_older_parallel_view() {
        // The paper's Section-6 example: a strand under view α accesses ℓ;
        // a later reduce of views γ,δ accesses ℓ too. Different P bags →
        // race. We emulate with three stolen continuations and a reduce
        // ordered before the third steal, with a shared cell written by an
        // early child and read by a monoid whose reduce touches that cell.
        struct TouchingMonoid {
            cell: rader_cilk::Loc,
        }
        impl rader_cilk::ViewMonoid for TouchingMonoid {
            fn create_identity(&self, m: &mut rader_cilk::ViewMem<'_, '_>) -> rader_cilk::Loc {
                m.alloc(1)
            }
            fn reduce(
                &self,
                m: &mut rader_cilk::ViewMem<'_, '_>,
                left: rader_cilk::Loc,
                right: rader_cilk::Loc,
            ) {
                let r = m.read(right);
                let l = m.read(left);
                m.write(left, l + r);
                m.write(self.cell, 1); // touches shared user memory
            }
            fn update(
                &self,
                m: &mut rader_cilk::ViewMem<'_, '_>,
                view: rader_cilk::Loc,
                op: &[rader_cilk::Word],
            ) {
                let v = m.read(view);
                m.write(view, v + op[0]);
            }
        }
        let spec = StealSpec::EveryBlock(BlockScript::new(vec![
            rader_cilk::BlockOp::Steal(1),
            rader_cilk::BlockOp::Steal(2),
            rader_cilk::BlockOp::Reduce,
            rader_cilk::BlockOp::Steal(3),
        ]));
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut tool, |cx| {
            let cell = cx.alloc(1);
            let h = cx.new_reducer(Arc::new(TouchingMonoid { cell }));
            cx.spawn(move |cx| {
                cx.write(cell, 42); // strand under the first view
                cx.reducer_update(h, &[1]);
            });
            cx.reducer_update(h, &[2]);
            cx.spawn(move |cx| cx.reducer_update(h, &[3]));
            cx.reducer_update(h, &[4]);
            cx.spawn(move |cx| cx.reducer_update(h, &[5]));
            cx.reducer_update(h, &[6]);
            cx.sync();
        });
        let r = tool.into_report();
        assert!(
            r.determinacy
                .iter()
                .any(|race| race.current.kind == AccessKind::Reduce),
            "expected reduce-vs-older-view race: {r}"
        );
    }

    #[test]
    fn steal_and_reduce_counters_track_engine() {
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2]));
        let mut tool = SpPlus::new();
        let stats = SerialEngine::with_spec(spec).run_tool(&mut tool, |cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            for i in 0..4 {
                cx.spawn(move |cx| cx.reducer_update(h, &[i]));
            }
            cx.sync();
        });
        assert_eq!(tool.steals, stats.steals);
        assert_eq!(tool.reduces, stats.reduce_merges);
        assert!(tool.steals > 0);
    }
}
