//! The serial execution engine.
//!
//! Rader (and the Peer-Set / SP-bags / SP+ algorithms it implements) runs a
//! Cilk computation *serially*, in its depth-first serial execution order,
//! while an attached [`Tool`] observes the instrumentation stream. Under a
//! [`StealSpec`] the engine additionally *simulates* steals: at each stolen
//! continuation it starts a fresh reducer view (lazily materialized on
//! first update), and it executes `Reduce` operations at the points the
//! specification dictates — exactly the paper's Section 8 technique of
//! "promoting" runtime state so a serial worker behaves as if its parent
//! had been stolen.
//!
//! Programs are plain Rust closures over [`Ctx`]:
//!
//! ```
//! use rader_cilk::{Ctx, SerialEngine};
//!
//! let mut total = 0;
//! SerialEngine::new().run(|cx| {
//!     let cell = cx.alloc(1);
//!     cx.spawn(move |cx| {
//!         let v = cx.read(cell);
//!         cx.write(cell, v + 1);
//!     });
//!     cx.sync();
//!     total = cx.read(cell);
//! });
//! assert_eq!(total, 1);
//! ```

use std::ops::Range;
use std::sync::Arc;

use rader_dsu::ViewId;

use crate::events::{AccessKind, EnterKind, FrameId, ReducerId, ReducerReadKind, StrandId, Tool};
use crate::mem::{Loc, MemArena, Word};
use crate::monoid::{ViewMem, ViewMonoid};
use crate::replay::{ProgramTrace, ReplayError, TraceBuilder, TraceEvent};
use crate::spec::{BlockOp, BlockScript, StealSpec};

/// Execution statistics returned by a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Frames (Cilk function instantiations) created, including the root.
    pub frames: u64,
    /// Strands executed (serial-order segments).
    pub strands: u64,
    /// Simulated steals performed.
    pub steals: u64,
    /// View merges performed (reduce strands executed).
    pub reduce_merges: u64,
    /// Instrumented reads.
    pub reads: u64,
    /// Instrumented writes.
    pub writes: u64,
    /// Reducer update operations applied.
    pub updates: u64,
    /// Reducer-read operations (create/get/set).
    pub reducer_reads: u64,
    /// Words of simulated memory allocated.
    pub arena_words: u64,
    /// Maximum number of continuations in any sync block (the paper's `K`),
    /// observed over the run.
    pub max_sync_block: u32,
    /// Maximum spawn count `F.as + F.ls` observed (the paper's `M ≤ KD`
    /// bound on continuations eligible for update-coverage steals).
    pub max_spawn_count: u32,
    /// Maximum frame-stack depth observed (an upper bound on the paper's
    /// Cilk depth `D`).
    pub max_frame_depth: u32,
}

enum ToolRef<'t> {
    None,
    Dyn(&'t mut dyn Tool),
}

#[derive(Clone)]
struct FrameState {
    id: FrameId,
    kind: EnterKind,
    /// Local spawn count: spawns since the last sync (the paper's `F.ls`).
    ls: u32,
    /// Ancestor spawn count (the paper's `F.as`).
    anc: u32,
    /// Epoch-stack depth at frame entry; a sync merges back down to this.
    epoch_base: usize,
    /// Steal script for the current sync block (lazily materialized).
    script: Option<Arc<BlockScript>>,
    script_ready: bool,
    cursor: usize,
}

struct ReducerState {
    monoid: Arc<dyn ViewMonoid>,
    /// Sparse epoch → view map; entries are few (one per live view).
    views: Vec<(ViewId, Loc)>,
}

impl Clone for ReducerState {
    fn clone(&self) -> Self {
        ReducerState {
            monoid: self.monoid.clone(),
            views: self.views.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.monoid.clone_from(&src.monoid);
        self.views.clone_from(&src.views);
    }
}

/// Everything a run carries from hook to hook except the tool and the
/// recorder. A paused replay ([`crate::ReplayCheckpoint`]) owns one and
/// lends it to a [`Ctx`] for each stretch of events it feeds.
pub(crate) struct EngineState {
    mem: MemArena,
    spec: StealSpec,
    /// Cached script for `StealSpec::EveryBlock` (shared across frames).
    every_block: Option<Arc<BlockScript>>,
    /// Scripts of closed `StealSpec::Random` blocks, for the next blocks to
    /// refill. Each is unshared; kept across `restart`, never cloned.
    spare_scripts: Vec<Arc<BlockScript>>,
    frames: Vec<FrameState>,
    /// Stack of live view epochs; the top is the epoch new updates land in.
    epochs: Vec<ViewId>,
    reducers: Vec<ReducerState>,
    region: AccessKind,
    cur_frame: FrameId,
    next_frame: u32,
    next_view: u32,
    strand: u64,
    block_seq: u64,
    stats: RunStats,
    /// Replay-space `(base, len, record-space base)` of each allocation
    /// whose accesses the replayed pruned trace dropped, in address order.
    pruned_allocs: Vec<(u32, u32, u32)>,
    /// The first view-aware access into one of `pruned_allocs`.
    pruned_hit: Option<ReplayError>,
}

impl Default for EngineState {
    /// A state with no buffers: allocation-free, so a paused replay can
    /// leave one behind while a `Ctx` borrows its own.
    fn default() -> Self {
        EngineState {
            mem: MemArena::new(),
            spec: StealSpec::None,
            every_block: None,
            spare_scripts: Vec::new(),
            frames: Vec::new(),
            epochs: Vec::new(),
            reducers: Vec::new(),
            region: AccessKind::Oblivious,
            cur_frame: FrameId(0),
            next_frame: 0,
            next_view: 1,
            strand: 0,
            block_seq: 0,
            stats: RunStats::default(),
            pruned_allocs: Vec::new(),
            pruned_hit: None,
        }
    }
}

impl EngineState {
    fn new(spec: StealSpec) -> Self {
        EngineState {
            every_block: every_block_script(&spec),
            spec,
            frames: Vec::with_capacity(64),
            epochs: vec![ViewId(0)],
            ..EngineState::default()
        }
    }

    /// Return to the start of a run under `spec`, keeping every buffer's
    /// capacity.
    pub(crate) fn restart(&mut self, spec: &StealSpec) {
        self.mem.clear();
        self.spec.clone_from(spec);
        self.every_block = every_block_script(spec);
        self.frames.clear();
        self.epochs.clear();
        self.epochs.push(ViewId(0));
        self.reducers.clear();
        self.region = AccessKind::Oblivious;
        self.cur_frame = FrameId(0);
        self.next_frame = 0;
        self.next_view = 1;
        self.strand = 0;
        self.block_seq = 0;
        self.stats = RunStats::default();
        self.pruned_allocs.clear();
        self.pruned_hit = None;
    }

    /// Go on under `spec` from here. Every open block's script becomes
    /// `spec`'s and keeps its cursor, which is right only where the two
    /// specs have acted alike so far: at or before their fork event
    /// ([`ProgramTrace::fork_event`], DESIGN.md §5g).
    pub(crate) fn respec(&mut self, spec: &StealSpec) {
        debug_assert!(
            !matches!(spec, StealSpec::Random { .. }),
            "Random specs never fork"
        );
        self.spec.clone_from(spec);
        self.every_block = every_block_script(spec);
        for f in &mut self.frames {
            if f.script.is_some() {
                f.script.clone_from(&self.every_block);
            }
        }
    }

    pub(crate) fn spec(&self) -> &StealSpec {
        &self.spec
    }

    pub(crate) fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.strands = self.strand + 1;
        s.arena_words = self.mem.used() as u64;
        s
    }
}

impl Clone for EngineState {
    fn clone(&self) -> Self {
        let mut c = EngineState::default();
        c.clone_from(self);
        c
    }

    /// Field by field, so a pooled checkpoint reuses its buffers. The
    /// script pool is this state's own: `src`'s stays with `src`.
    fn clone_from(&mut self, src: &Self) {
        self.mem.clone_from(&src.mem);
        self.spec.clone_from(&src.spec);
        self.every_block.clone_from(&src.every_block);
        self.frames.clone_from(&src.frames);
        self.epochs.clone_from(&src.epochs);
        self.reducers.clone_from(&src.reducers);
        self.region = src.region;
        self.cur_frame = src.cur_frame;
        self.next_frame = src.next_frame;
        self.next_view = src.next_view;
        self.strand = src.strand;
        self.block_seq = src.block_seq;
        self.stats = src.stats;
        self.pruned_allocs.clone_from(&src.pruned_allocs);
        self.pruned_hit = src.pruned_hit;
    }
}

fn every_block_script(spec: &StealSpec) -> Option<Arc<BlockScript>> {
    match spec {
        StealSpec::EveryBlock(s) => Some(Arc::new(s.clone())),
        _ => None,
    }
}

/// Serial execution context handed to programs.
///
/// `Ctx` provides the Cilk surface (`spawn` / `call` / `sync` / `par_for`),
/// the instrumented memory surface (`alloc` / `read` / `write`), and the
/// reducer surface (`new_reducer` / `reducer_update` / view access). All
/// parallelism keywords denote *logical* parallelism; execution is serial.
pub struct Ctx<'t> {
    st: EngineState,
    tool: ToolRef<'t>,
    /// Active while [`ProgramTrace::record`] is capturing this run.
    recorder: Option<TraceBuilder>,
}

impl<'t> Ctx<'t> {
    fn new(spec: StealSpec, mut tool: ToolRef<'t>) -> Self {
        // Every run entry point (run, run_tool, replay_tool, recording)
        // constructs a Ctx, so firing `begin_run` here guarantees a tool
        // sees it exactly once per run, before any other hook. A replay
        // resumed from a checkpoint goes through `Ctx::resume` instead.
        if let ToolRef::Dyn(t) = &mut tool {
            t.begin_run();
        }
        Ctx {
            st: EngineState::new(spec),
            tool,
            recorder: None,
        }
    }

    /// Continue the run `st` with `tool` attached; no `begin_run`.
    pub(crate) fn resume(st: EngineState, tool: &'t mut dyn Tool) -> Self {
        Ctx {
            st,
            tool: ToolRef::Dyn(tool),
            recorder: None,
        }
    }

    /// Detach the run's state from the tool again.
    pub(crate) fn into_state(self) -> EngineState {
        self.st
    }

    /// Record a user-level event if a trace recording is active.
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(ev);
        }
    }

    /// True while recording, or replaying a pruned trace that dropped
    /// accesses to some allocation: monoid bodies must then pass each of
    /// their accesses to [`Ctx::view_aware_access`].
    #[inline]
    pub(crate) fn watches_view_aware(&self) -> bool {
        self.recorder.is_some() || !self.st.pruned_allocs.is_empty()
    }

    /// A monoid body's access of `loc`. Recording, note the user
    /// allocation it lands in; replaying a pruned trace, note it if it
    /// lands in an allocation whose accesses the trace dropped (DESIGN.md
    /// §5h), for [`Ctx::pruned_hit`] to report.
    #[inline(never)]
    pub(crate) fn view_aware_access(&mut self, loc: Loc) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_view_aware(loc);
            return;
        }
        let allocs = &self.st.pruned_allocs;
        let Some(i) = allocs.partition_point(|a| a.0 <= loc.0).checked_sub(1) else {
            return;
        };
        let (base, len, alloc) = allocs[i];
        if loc.0 - base < len && self.st.pruned_hit.is_none() {
            self.st.pruned_hit = Some(ReplayError::PrunedAllocation {
                alloc: Loc(alloc),
                len,
                loc,
            });
        }
    }

    /// Guard the replayed user allocation of `n` words at `base`
    /// (`record_base` when recorded), whose accesses the replayed pruned
    /// trace dropped.
    pub(crate) fn guard_pruned(&mut self, base: Loc, n: u32, record_base: Loc) {
        self.st.pruned_allocs.push((base.0, n, record_base.0));
    }

    /// The first view-aware access into a guarded allocation since the
    /// last call, as an error.
    #[inline]
    pub(crate) fn pruned_hit(&mut self) -> Result<(), ReplayError> {
        match self.st.pruned_hit.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    #[inline]
    fn new_strand(&mut self) {
        self.st.strand += 1;
    }

    /// The strand currently executing (serial order).
    #[inline]
    pub fn current_strand(&self) -> StrandId {
        StrandId(self.st.strand)
    }

    /// The frame currently executing.
    #[inline]
    pub fn current_frame(&self) -> FrameId {
        self.st.cur_frame
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RunStats {
        self.st.stats()
    }

    // ------------------------------------------------------------------
    // Parallel control
    // ------------------------------------------------------------------

    pub(crate) fn enter_frame(&mut self, kind: EnterKind) {
        self.record(TraceEvent::FrameEnter(kind));
        let (anc, epoch_base) = match self.st.frames.last_mut() {
            Some(parent) => {
                if kind == EnterKind::Spawn {
                    parent.ls += 1;
                    let sc = parent.anc + parent.ls;
                    self.st.stats.max_sync_block = self.st.stats.max_sync_block.max(parent.ls);
                    self.st.stats.max_spawn_count = self.st.stats.max_spawn_count.max(sc);
                }
                (parent.anc + parent.ls, self.st.epochs.len())
            }
            None => (0, self.st.epochs.len()),
        };
        let id = FrameId(self.st.next_frame);
        self.st.next_frame += 1;
        self.st.stats.frames += 1;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.frame_enter(id, kind);
        }
        self.new_strand();
        self.st.frames.push(FrameState {
            id,
            kind,
            ls: 0,
            anc,
            epoch_base,
            script: None,
            script_ready: false,
            cursor: 0,
        });
        self.st.stats.max_frame_depth = self
            .st
            .stats
            .max_frame_depth
            .max(self.st.frames.len() as u32);
        self.st.cur_frame = id;
    }

    pub(crate) fn leave_frame(&mut self) {
        if let Some(rec) = self.recorder.as_mut() {
            // A spawned child's return is its parent's continuation point,
            // where steal specs act: note its continuation index and spawn
            // count for `ProgramTrace::fork_event`.
            let cont = match self.st.frames[..] {
                [.., ref parent, ref child] if child.kind == EnterKind::Spawn => {
                    Some((parent.ls, parent.anc + parent.ls))
                }
                _ => None,
            };
            rec.push_leave(cont);
        }
        self.sync_internal();
        let f = self.st.frames.pop().expect("leave_frame with empty stack");
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.frame_leave(f.id, f.kind);
        }
        self.new_strand();
        if let Some(parent) = self.st.frames.last() {
            self.st.cur_frame = parent.id;
        }
        if f.kind == EnterKind::Spawn && !self.st.frames.is_empty() {
            self.continuation_point();
        }
    }

    /// Spawn `f`: it may logically run in parallel with the continuation of
    /// the current frame, up to the next `sync`.
    pub fn spawn(&mut self, f: impl FnOnce(&mut Self)) {
        self.enter_frame(EnterKind::Spawn);
        f(self);
        self.leave_frame();
    }

    /// Call `f` as an ordinary (serial) Cilk function invocation.
    pub fn call(&mut self, f: impl FnOnce(&mut Self)) {
        self.enter_frame(EnterKind::Call);
        f(self);
        self.leave_frame();
    }

    /// Sync: all functions spawned by the current frame have returned and
    /// all parallel views created in this sync block have been reduced.
    pub fn sync(&mut self) {
        // Recorded here, not in `sync_internal`: a replayed `FrameLeave`
        // performs its own implicit sync, so recording the internal one
        // would sync twice.
        self.record(TraceEvent::Sync);
        self.sync_internal();
    }

    /// Attach a human-readable label to the current frame (function
    /// name, loop id, ...). Detectors carry labels into race reports, so
    /// a finding reads "write in `update_list`" instead of a bare frame
    /// number — Rader's regression-friendly reporting.
    pub fn label_frame(&mut self, label: &'static str) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push_label(label);
        }
        let id = self.st.cur_frame;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.frame_label(id, label);
        }
    }

    /// `cilk_for`: logically parallel loop over `range`, lowered to
    /// divide-and-conquer spawns with the given grain size, inside its own
    /// function scope (so its sync does not join earlier spawns of the
    /// caller).
    pub fn par_for(&mut self, range: Range<u64>, grain: u64, body: &mut dyn FnMut(&mut Self, u64)) {
        let grain = grain.max(1);
        self.call(|cx| par_for_rec(cx, range, grain, body));
    }

    fn sync_internal(&mut self) {
        let fi = self.st.frames.len() - 1;
        // Execute any trailing scripted reduces for this block.
        let f = &self.st.frames[fi];
        let reduces = f.script.as_deref().map_or(0, |script| {
            script.ops()[f.cursor..]
                .iter()
                .filter(|op| matches!(op, BlockOp::Reduce))
                .count()
        });
        for _ in 0..reduces {
            self.do_reduce(fi);
        }
        // All remaining parallel views of the block are reduced before the
        // sync strand executes (view invariant 3).
        while self.st.epochs.len() > self.st.frames[fi].epoch_base {
            self.do_reduce(fi);
        }
        let id = self.st.frames[fi].id;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.sync(id);
        }
        self.new_strand();
        let f = &mut self.st.frames[fi];
        f.ls = 0;
        if let Some(mut script) = f.script.take() {
            // Recycle a `Random` block's script unless a checkpoint still
            // shares it; `EveryBlock`'s shared script is never recycled.
            if matches!(self.st.spec, StealSpec::Random { .. })
                && Arc::get_mut(&mut script).is_some()
            {
                self.st.spare_scripts.push(script);
            }
        }
        f.script_ready = false;
        f.cursor = 0;
    }

    /// Runs in the parent frame right after a spawned child returned: the
    /// continuation begins here, and the steal specification decides
    /// whether it is (simulated as) stolen.
    fn continuation_point(&mut self) {
        if self.st.spec.is_none() {
            return;
        }
        let fi = self.st.frames.len() - 1;
        let f = &self.st.frames[fi];
        if let StealSpec::AtSpawnCount(_) = self.st.spec {
            if self.st.spec.steal_at_spawn_count(f.anc + f.ls) {
                self.do_steal(fi);
            }
            return;
        }
        if !self.st.frames[fi].script_ready {
            let seq = self.st.block_seq;
            self.st.block_seq += 1;
            let script = match &self.st.spec {
                StealSpec::EveryBlock(_) => self.st.every_block.clone(),
                // `Random`: the other families returned above.
                spec => {
                    let mut script = self.st.spare_scripts.pop().unwrap_or_default();
                    spec.refill_random(seq, Arc::make_mut(&mut script));
                    Some(script)
                }
            };
            let f = &mut self.st.frames[fi];
            f.script = script;
            f.script_ready = true;
            f.cursor = 0;
        }
        let f = &self.st.frames[fi];
        let Some(script) = f.script.as_deref() else {
            return;
        };
        // The reduces the script puts before this continuation's steal.
        let ops = &script.ops()[f.cursor..];
        let Some(reduces) = ops.iter().position(|op| *op != BlockOp::Reduce) else {
            return; // only trailing reduces remain; they execute at the sync
        };
        if ops[reduces] != BlockOp::Steal(f.ls) {
            return;
        }
        self.st.frames[fi].cursor += reduces + 1;
        for _ in 0..reduces {
            self.do_reduce(fi);
        }
        self.do_steal(fi);
    }

    fn do_steal(&mut self, fi: usize) {
        let vid = ViewId(self.st.next_view);
        self.st.next_view += 1;
        self.st.epochs.push(vid);
        self.st.stats.steals += 1;
        let id = self.st.frames[fi].id;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.stolen_continuation(id, vid);
        }
        self.new_strand();
    }

    /// Merge the topmost view epoch into the one below it, running the
    /// monoid `Reduce` for every reducer holding a view in the popped epoch.
    fn do_reduce(&mut self, fi: usize) {
        if self.st.epochs.len() <= self.st.frames[fi].epoch_base {
            return; // nothing to merge in this frame
        }
        let src = self.st.epochs.pop().expect("epoch stack underflow");
        let dst = *self.st.epochs.last().expect("root epoch missing");
        self.st.stats.reduce_merges += 1;
        let id = self.st.frames[fi].id;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.reduce_merge(id, dst, src);
        }
        self.new_strand();
        for r in 0..self.st.reducers.len() {
            let src_view = take_view(&mut self.st.reducers[r].views, src);
            if let Some(sv) = src_view {
                if let Some(dv) = find_view(&self.st.reducers[r].views, dst) {
                    let m = self.st.reducers[r].monoid.clone();
                    let saved = self.st.region;
                    self.st.region = AccessKind::Reduce;
                    m.reduce(&mut ViewMem::new(self), dv, sv);
                    self.st.region = saved;
                } else {
                    // The dominating view was never materialized: adopt the
                    // dominated view's contents wholesale (the runtime
                    // elides reduces with an absent identity operand).
                    self.st.reducers[r].views.push((dst, sv));
                }
            }
        }
        self.new_strand();
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocate `n` zero-initialized words of simulated shared memory.
    #[inline]
    pub fn alloc(&mut self, n: usize) -> Loc {
        let base = self.st.mem.alloc(n);
        // Only user-level (view-oblivious) allocations are recorded; the
        // monoid allocations of `create_identity` / `update` / `reduce`
        // re-execute for real during replay.
        if let Some(rec) = self.recorder.as_mut() {
            if self.st.region == AccessKind::Oblivious {
                rec.push_alloc(base, n as u32);
            }
        }
        base
    }

    /// Instrumented read of `loc`.
    #[inline]
    pub fn read(&mut self, loc: Loc) -> Word {
        if let Some(rec) = self.recorder.as_mut() {
            if self.st.region == AccessKind::Oblivious {
                rec.push_read(loc);
            }
        }
        self.st.stats.reads += 1;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.read(
                self.st.cur_frame,
                StrandId(self.st.strand),
                loc,
                self.st.region,
            );
        }
        self.st.mem.get(loc)
    }

    /// Instrumented write of `loc`.
    #[inline]
    pub fn write(&mut self, loc: Loc, v: Word) {
        if let Some(rec) = self.recorder.as_mut() {
            if self.st.region == AccessKind::Oblivious {
                rec.push_write(loc, v);
            }
        }
        self.st.stats.writes += 1;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.write(
                self.st.cur_frame,
                StrandId(self.st.strand),
                loc,
                self.st.region,
            );
        }
        self.st.mem.set(loc, v);
    }

    /// `len` instrumented reads of `base, base + 1, ...`, as `len` calls
    /// of [`Ctx::read`] would make them but with one stats update, one
    /// arena bounds check and one [`Tool::read_range`] call. The values
    /// are not returned: only replay calls this, and it discards them.
    /// Never recorded, for the same reason.
    #[inline]
    pub(crate) fn read_range(&mut self, base: Loc, len: u32) {
        debug_assert!(self.recorder.is_none(), "replay does not record");
        self.st.stats.reads += u64::from(len);
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.read_range(
                self.st.cur_frame,
                StrandId(self.st.strand),
                base,
                len,
                self.st.region,
            );
        }
        let _ = self.st.mem.slice(base, len as usize);
    }

    /// Instrumented writes of `values` to `base, base + 1, ...`; the write
    /// counterpart of [`Ctx::read_range`].
    #[inline]
    pub(crate) fn write_range(&mut self, base: Loc, values: &[Word]) {
        debug_assert!(self.recorder.is_none(), "replay does not record");
        let len = values.len() as u32;
        self.st.stats.writes += u64::from(len);
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.write_range(
                self.st.cur_frame,
                StrandId(self.st.strand),
                base,
                len,
                self.st.region,
            );
        }
        self.st.mem.set_slice(base, values);
    }

    /// Read `base + i` (array convenience).
    #[inline]
    pub fn read_idx(&mut self, base: Loc, i: usize) -> Word {
        self.read(base.at(i))
    }

    /// Write `base + i` (array convenience).
    #[inline]
    pub fn write_idx(&mut self, base: Loc, i: usize, v: Word) {
        self.write(base.at(i), v)
    }

    // ------------------------------------------------------------------
    // Reducers
    // ------------------------------------------------------------------

    /// Register a reducer hyperobject with the given monoid.
    ///
    /// Creation is a *reducer-read* for the purposes of view-read-race
    /// detection (paper, Section 3).
    pub fn new_reducer(&mut self, monoid: Arc<dyn ViewMonoid>) -> ReducerId {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push_new_reducer(monoid.clone());
        }
        let h = ReducerId(self.st.reducers.len() as u32);
        self.st.reducers.push(ReducerState {
            monoid,
            views: Vec::new(),
        });
        self.st.stats.reducer_reads += 1;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.reducer_read(
                self.st.cur_frame,
                StrandId(self.st.strand),
                h,
                ReducerReadKind::Create,
            );
        }
        h
    }

    /// Apply one update operation to reducer `h`'s current view,
    /// materializing an identity view first if the current epoch has none.
    pub fn reducer_update(&mut self, h: ReducerId, op: &[Word]) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push_update(h, op);
        }
        self.st.stats.updates += 1;
        let view = self.ensure_view(h);
        let m = self.st.reducers[h.index()].monoid.clone();
        let saved = self.st.region;
        self.st.region = AccessKind::Update;
        self.new_strand();
        m.update(&mut ViewMem::new(self), view, op);
        self.st.region = saved;
        self.new_strand();
    }

    /// `get_value`: the location of the view visible to the current strand
    /// (a reducer-read; racy if performed where the peer set differs from
    /// the previous reducer-read's).
    pub fn reducer_get_view(&mut self, h: ReducerId) -> Loc {
        self.st.stats.reducer_reads += 1;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.reducer_read(
                self.st.cur_frame,
                StrandId(self.st.strand),
                h,
                ReducerReadKind::Get,
            );
        }
        let result = self.ensure_view(h);
        if let Some(rec) = self.recorder.as_mut() {
            rec.push_get_view(h, result);
        }
        result
    }

    /// `set_value`: make `loc` the current view of reducer `h`
    /// (a reducer-read). Any existing view of the current epoch is dropped.
    pub fn reducer_set_view(&mut self, h: ReducerId, loc: Loc) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push_set_view(h, loc);
        }
        self.st.stats.reducer_reads += 1;
        if let ToolRef::Dyn(t) = &mut self.tool {
            t.reducer_read(
                self.st.cur_frame,
                StrandId(self.st.strand),
                h,
                ReducerReadKind::Set,
            );
        }
        let epoch = *self.st.epochs.last().expect("root epoch missing");
        let views = &mut self.st.reducers[h.index()].views;
        take_view(views, epoch);
        views.push((epoch, loc));
    }

    /// The monoid registered for reducer `h`.
    pub fn reducer_monoid(&self, h: ReducerId) -> Arc<dyn ViewMonoid> {
        self.st.reducers[h.index()].monoid.clone()
    }

    fn ensure_view(&mut self, h: ReducerId) -> Loc {
        let epoch = *self.st.epochs.last().expect("root epoch missing");
        if let Some(loc) = find_view(&self.st.reducers[h.index()].views, epoch) {
            return loc;
        }
        let m = self.st.reducers[h.index()].monoid.clone();
        let saved = self.st.region;
        self.st.region = AccessKind::CreateIdentity;
        self.new_strand();
        let loc = m.create_identity(&mut ViewMem::new(self));
        self.st.region = saved;
        self.new_strand();
        self.st.reducers[h.index()].views.push((epoch, loc));
        loc
    }
}

fn find_view(views: &[(ViewId, Loc)], epoch: ViewId) -> Option<Loc> {
    views
        .iter()
        .rev()
        .find(|(e, _)| *e == epoch)
        .map(|&(_, l)| l)
}

fn take_view(views: &mut Vec<(ViewId, Loc)>, epoch: ViewId) -> Option<Loc> {
    let pos = views.iter().rposition(|(e, _)| *e == epoch)?;
    Some(views.swap_remove(pos).1)
}

fn par_for_rec<'t>(
    cx: &mut Ctx<'t>,
    range: Range<u64>,
    grain: u64,
    body: &mut dyn FnMut(&mut Ctx<'t>, u64),
) {
    if range.end - range.start <= grain {
        for i in range {
            body(cx, i);
        }
        return;
    }
    let mid = range.start + (range.end - range.start) / 2;
    let left = range.start..mid;
    let right = mid..range.end;
    cx.spawn(|cx| par_for_rec(cx, left, grain, body));
    par_for_rec(cx, right, grain, body);
    cx.sync();
}

/// Entry point: configures a steal specification and runs programs.
#[derive(Clone, Debug, Default)]
pub struct SerialEngine {
    spec: StealSpec,
}

impl SerialEngine {
    /// Engine with no simulated steals.
    pub fn new() -> Self {
        SerialEngine {
            spec: StealSpec::None,
        }
    }

    /// Engine simulating steals per `spec`.
    pub fn with_spec(spec: StealSpec) -> Self {
        SerialEngine { spec }
    }

    /// The configured specification.
    pub fn spec(&self) -> &StealSpec {
        &self.spec
    }

    /// Run `program` with *no* instrumentation (the "without
    /// instrumentation" baseline of Figure 7: the tool branch is statically
    /// absent, so accesses cost only the arena operation).
    pub fn run(&self, program: impl FnOnce(&mut Ctx<'_>)) -> RunStats {
        self.run_inner(ToolRef::None, program)
    }

    /// Run `program` with `tool` attached via dynamic dispatch (the
    /// instrumented configuration; pass [`EmptyTool`](crate::EmptyTool) for
    /// the Figure 8 baseline).
    pub fn run_tool(&self, tool: &mut dyn Tool, program: impl FnOnce(&mut Ctx<'_>)) -> RunStats {
        self.run_inner(ToolRef::Dyn(tool), program)
    }

    fn run_inner(&self, tool: ToolRef<'_>, program: impl FnOnce(&mut Ctx<'_>)) -> RunStats {
        let mut cx = Ctx::new(self.spec.clone(), tool);
        cx.enter_frame(EnterKind::Root);
        program(&mut cx);
        cx.leave_frame();
        cx.stats()
    }

    /// Replay a recorded trace with *no* instrumentation under this
    /// engine's steal specification. See [`ProgramTrace`].
    pub fn replay(&self, trace: &ProgramTrace) -> Result<RunStats, ReplayError> {
        self.replay_inner(ToolRef::None, trace)
    }

    /// Replay a recorded trace with `tool` attached, under this engine's
    /// steal specification. The tool observes the same instrumentation
    /// stream a fresh [`SerialEngine::run_tool`] of the original program
    /// would produce (monoid bodies execute for real; user closures do
    /// not re-run). Errors identify (program, spec) pairs that need
    /// honest re-execution — see [`ReplayError`].
    pub fn replay_tool(
        &self,
        tool: &mut dyn Tool,
        trace: &ProgramTrace,
    ) -> Result<RunStats, ReplayError> {
        self.replay_inner(ToolRef::Dyn(tool), trace)
    }

    fn replay_inner(
        &self,
        tool: ToolRef<'_>,
        trace: &ProgramTrace,
    ) -> Result<RunStats, ReplayError> {
        let mut cx = Ctx::new(self.spec.clone(), tool);
        crate::replay::drive(&mut cx, trace)?;
        Ok(cx.stats())
    }
}

/// Record `program` under the no-steal schedule (implementation of
/// [`ProgramTrace::record`]; the root frame's enter/leave are part of the
/// trace, so replay is a plain event walk). An attached tool observes the
/// run exactly as [`SerialEngine::run_tool`] would show it — recording is
/// a passive extra hook — so the recording run can double as a sweep's
/// no-steal detection run.
pub(crate) fn record_trace(program: impl FnOnce(&mut Ctx<'_>)) -> ProgramTrace {
    record_trace_inner(ToolRef::None, program)
}

/// [`record_trace`] with `tool` attached via dynamic dispatch.
pub(crate) fn record_trace_tool(
    tool: &mut dyn Tool,
    program: impl FnOnce(&mut Ctx<'_>),
) -> ProgramTrace {
    record_trace_inner(ToolRef::Dyn(tool), program)
}

fn record_trace_inner(tool: ToolRef<'_>, program: impl FnOnce(&mut Ctx<'_>)) -> ProgramTrace {
    let mut cx = Ctx::new(StealSpec::None, tool);
    cx.recorder = Some(TraceBuilder::default());
    cx.enter_frame(EnterKind::Root);
    program(&mut cx);
    cx.leave_frame();
    let stats = cx.stats();
    cx.recorder
        .take()
        .expect("recorder detached mid-run")
        .finish(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CountingTool;

    fn add_monoid() -> Arc<dyn ViewMonoid> {
        struct Add;
        impl ViewMonoid for Add {
            fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
                m.alloc(1)
            }
            fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
                let r = m.read(right);
                let l = m.read(left);
                m.write(left, l + r);
            }
            fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
                let v = m.read(view);
                m.write(view, v + op[0]);
            }
        }
        Arc::new(Add)
    }

    /// Spawn `n` children each adding `1..=n` into an add reducer.
    fn sum_program(n: u64) -> impl Fn(&mut Ctx<'_>) -> Word {
        move |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(add_monoid());
            for i in 1..=n {
                cx.spawn(move |cx| cx.reducer_update(h, &[i as Word]));
            }
            cx.sync();
            let view = cx.reducer_get_view(h);
            cx.read(view)
        }
    }

    #[test]
    fn serial_reducer_sum_without_steals() {
        let mut out = 0;
        SerialEngine::new().run(|cx| out = sum_program(10)(cx));
        assert_eq!(out, 55);
    }

    #[test]
    fn reducer_sum_invariant_under_any_spec() {
        // The reducer's value after sync must not depend on the schedule.
        let specs = vec![
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3])),
            StealSpec::EveryBlock(BlockScript::new(vec![
                BlockOp::Steal(1),
                BlockOp::Steal(3),
                BlockOp::Reduce,
                BlockOp::Steal(5),
            ])),
            StealSpec::Random {
                seed: 7,
                max_block: 10,
                steals_per_block: 3,
            },
            StealSpec::AtSpawnCount(2),
        ];
        for spec in specs {
            let mut out = 0;
            let stats = SerialEngine::with_spec(spec.clone()).run(|cx| out = sum_program(10)(cx));
            assert_eq!(out, 55, "wrong sum under {spec:?}");
            if !spec.is_none() {
                assert!(stats.steals > 0, "spec {spec:?} performed no steals");
                assert_eq!(stats.steals, stats.reduce_merges);
            }
        }
    }

    #[test]
    fn non_commutative_fold_order_is_serial_order() {
        // A list-like monoid (string of digits, encoded as base-10 number
        // concatenation) exposes fold-order bugs that a sum would hide.
        struct Concat;
        impl ViewMonoid for Concat {
            fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
                let l = m.alloc(2); // [len, digits-as-number]
                l
            }
            fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
                let rl = m.read(right);
                let rv = m.read(right.at(1));
                let ll = m.read(left);
                let lv = m.read(left.at(1));
                m.write(left, ll + rl);
                m.write(left.at(1), lv * 10_i64.pow(rl as u32) + rv);
            }
            fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
                let l = m.read(view);
                let v = m.read(view.at(1));
                m.write(view, l + 1);
                m.write(view.at(1), v * 10 + op[0]);
            }
        }
        let program = |cx: &mut Ctx<'_>| -> Word {
            let h = cx.new_reducer(Arc::new(Concat));
            for d in 1..=6 {
                cx.spawn(move |cx| cx.reducer_update(h, &[d]));
            }
            cx.sync();
            let v = cx.reducer_get_view(h);
            cx.read(v.at(1))
        };
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![2, 4])),
            StealSpec::EveryBlock(BlockScript::new(vec![
                BlockOp::Steal(1),
                BlockOp::Steal(2),
                BlockOp::Reduce,
                BlockOp::Steal(3),
            ])),
            StealSpec::Random {
                seed: 99,
                max_block: 6,
                steals_per_block: 3,
            },
        ] {
            let mut out = 0;
            SerialEngine::with_spec(spec.clone()).run(|cx| out = program(cx));
            assert_eq!(out, 123456, "fold order broken under {spec:?}");
        }
    }

    #[test]
    fn nested_spawns_sync_merges_only_own_block() {
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2]));
        let mut results = (0, 0);
        SerialEngine::with_spec(spec).run(|cx| {
            let h = cx.new_reducer(add_monoid());
            cx.spawn(move |cx| {
                cx.spawn(move |cx| cx.reducer_update(h, &[1]));
                cx.spawn(move |cx| cx.reducer_update(h, &[2]));
                cx.sync();
            });
            cx.spawn(move |cx| cx.reducer_update(h, &[4]));
            cx.sync();
            let v = cx.reducer_get_view(h);
            results = (cx.read(v), 0);
        });
        assert_eq!(results.0, 7);
    }

    #[test]
    fn par_for_visits_every_index_once() {
        let mut seen = Vec::new();
        SerialEngine::new().run(|cx| {
            let base = cx.alloc(16);
            cx.par_for(0..16, 2, &mut |cx, i| {
                let v = cx.read_idx(base, i as usize);
                cx.write_idx(base, i as usize, v + 1);
            });
            for i in 0..16 {
                seen.push(cx.read_idx(base, i));
            }
        });
        assert_eq!(seen, vec![1; 16]);
    }

    #[test]
    fn counting_tool_sees_balanced_events() {
        let mut t = CountingTool::default();
        SerialEngine::with_spec(StealSpec::EveryBlock(BlockScript::steals(vec![1]))).run_tool(
            &mut t,
            |cx| {
                let h = cx.new_reducer(add_monoid());
                cx.spawn(move |cx| cx.reducer_update(h, &[1]));
                cx.spawn(move |cx| cx.reducer_update(h, &[2]));
                cx.sync();
                let _ = cx.reducer_get_view(h);
            },
        );
        assert_eq!(t.frame_enters, t.frame_leaves);
        assert_eq!(t.frame_enters, 3); // root + 2 spawns
        assert_eq!(t.steals, 1);
        assert_eq!(t.reduces, 1);
        assert_eq!(t.reducer_reads, 2); // create + get
        assert!(t.view_aware_accesses > 0);
        // root: explicit sync + implicit sync at leave; children: implicit.
        assert_eq!(t.syncs, 4);
    }

    #[test]
    fn stats_track_sync_block_and_spawn_count() {
        let stats = SerialEngine::new().run(|cx| {
            cx.spawn(|cx| {
                cx.spawn(|_| {});
                cx.spawn(|_| {});
                cx.spawn(|_| {});
                cx.sync();
            });
            cx.spawn(|_| {});
            cx.sync();
        });
        assert_eq!(stats.max_sync_block, 3);
        // Inner frame's third spawn: anc(=1 from root) + ls(=3) = 4.
        assert_eq!(stats.max_spawn_count, 4);
    }

    #[test]
    fn set_view_replaces_current_view() {
        let mut out = 0;
        SerialEngine::new().run(|cx| {
            let h = cx.new_reducer(add_monoid());
            cx.reducer_update(h, &[5]);
            let fresh = cx.alloc(1);
            cx.write(fresh, 100);
            cx.reducer_set_view(h, fresh);
            cx.reducer_update(h, &[1]);
            let v = cx.reducer_get_view(h);
            out = cx.read(v);
        });
        assert_eq!(out, 101);
    }

    #[test]
    fn get_before_any_update_sees_identity() {
        let mut out = -1;
        SerialEngine::new().run(|cx| {
            let h = cx.new_reducer(add_monoid());
            let v = cx.reducer_get_view(h);
            out = cx.read(v);
        });
        assert_eq!(out, 0);
    }

    #[test]
    fn uninstrumented_and_instrumented_runs_agree_on_stats() {
        let prog = |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(add_monoid());
            for i in 0..5 {
                cx.spawn(move |cx| cx.reducer_update(h, &[i]));
            }
            cx.sync();
            let _ = cx.reducer_get_view(h);
        };
        let a = SerialEngine::new().run(prog);
        let mut t = EmptyToolBox;
        struct EmptyToolBox;
        impl Tool for EmptyToolBox {}
        let b = SerialEngine::new().run_tool(&mut t, prog);
        assert_eq!(a, b);
    }
}
