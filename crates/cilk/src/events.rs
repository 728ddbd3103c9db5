//! Instrumentation events and the [`Tool`] trait.
//!
//! The paper's Rader prototype used compiler instrumentation (parallel
//! control hooks plus ThreadSanitizer load/store hooks) to feed the Peer-Set
//! and SP+ algorithms. In this reproduction the serial engine plays the
//! compiler's role: as it executes a program it invokes the methods of an
//! attached [`Tool`] at exactly the program points the paper instruments —
//! frame entry/exit, syncs, memory accesses, reducer reads, and (under a
//! steal specification) simulated steals and reduce executions.
//!
//! Detectors are `Tool` implementations. [`EmptyTool`] is the "empty tool"
//! of the paper's Figure 8: every hook is a dynamically dispatched call to an
//! empty body, isolating instrumentation cost from algorithm cost.

use crate::mem::Loc;
use rader_dsu::ViewId;

/// Identifier of a Cilk function instantiation (a frame).
///
/// The engine numbers frames in order of creation; the root frame is 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

impl FrameId {
    /// Raw index of this frame ID.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a strand, numbered in serial execution order.
///
/// A strand is a maximal instruction sequence with no parallel control; the
/// engine starts a new strand at every control event and around every
/// view-aware region (the paper models each `Update` / `Create-Identity` /
/// `Reduce` execution as a single strand).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrandId(pub u64);

/// Identifier of a reducer hyperobject registered with the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReducerId(pub u32);

impl ReducerId {
    /// Raw index of this reducer ID.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a frame was entered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnterKind {
    /// The root frame of the computation.
    Root,
    /// Entered by `cilk_spawn`.
    Spawn,
    /// Entered by an ordinary call.
    Call,
}

/// Classification of a memory access.
///
/// The paper distinguishes *view-oblivious* instructions from *view-aware*
/// instructions executed inside `Update`, `Create-Identity`, or `Reduce`;
/// the SP+ rules additionally special-case accesses made by a `Reduce`
/// invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Ordinary user code.
    Oblivious,
    /// Inside a reducer `Update` operation.
    Update,
    /// Inside a reducer `Create-Identity` operation.
    CreateIdentity,
    /// Inside a reducer `Reduce` operation.
    Reduce,
}

impl AccessKind {
    /// True for accesses made while operating on a reducer view.
    #[inline]
    pub fn is_view_aware(self) -> bool {
        !matches!(self, AccessKind::Oblivious)
    }

    /// True for accesses made by a `Reduce` invocation.
    #[inline]
    pub fn in_reduce(self) -> bool {
        matches!(self, AccessKind::Reduce)
    }
}

/// Which reducer-read operation a [`Tool::reducer_read`] event reports.
///
/// The paper defines a *reducer-read* broadly: creating a reducer, resetting
/// its value, or querying it. (`Update`/`Reduce`/`Create-Identity` are *not*
/// reducer-reads — they operate on views, not on the reducer itself.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReducerReadKind {
    /// Reducer creation (`new_reducer`).
    Create,
    /// `set_value`-style reset of the current view.
    Set,
    /// `get_value`-style query of the current view.
    Get,
}

/// Instrumentation callbacks invoked by the serial engine.
///
/// All methods have empty default bodies, so a tool only overrides the hooks
/// it needs. The engine invokes them through `&mut dyn Tool`, mirroring the
/// indirect calls the paper's compiler instrumentation made.
///
/// The two range hooks, [`Tool::read_range`] and [`Tool::write_range`], are
/// the exception: their defaults loop over [`Tool::read`] / [`Tool::write`]
/// one element at a time, so a tool that ignores them sees exactly the
/// per-element stream. Trace replay fires them for each recorded run of
/// consecutive user accesses; live execution never does. Override them
/// when per-access work has a part that does not depend on the location
/// (as SP+'s accessor element and shadow entry do): the override pays
/// that part once per run instead of once per element. It must leave the
/// tool in the same state as the default loop would.
#[allow(unused_variables)]
pub trait Tool {
    /// The engine is about to feed this tool a fresh run (fired once at
    /// the start of `run_tool`, `replay_tool`, and a recording run,
    /// before any other hook). Tools that hold per-run state can reset
    /// it here, which lets a driver reuse one tool instance — and its
    /// allocations — across many runs (the Section-7 sweep pools its
    /// SP+ state this way). Cumulative counters may survive; detection
    /// state must not. A run resumed from a
    /// [`ReplayCheckpoint`](crate::ReplayCheckpoint) does not fire it: it
    /// goes on from a copy of the tool taken mid-run.
    fn begin_run(&mut self) {}

    /// A frame was entered (`F` spawns or calls `G`; `frame` is `G`).
    fn frame_enter(&mut self, frame: FrameId, kind: EnterKind) {}

    /// The program attached a human-readable label to the current frame
    /// (via `Ctx::label_frame`); race reports use it for provenance.
    fn frame_label(&mut self, frame: FrameId, label: &'static str) {}

    /// A frame returned to its parent. Fired after the frame's implicit sync.
    fn frame_leave(&mut self, frame: FrameId, kind: EnterKind) {}

    /// The current frame executed a `cilk_sync` (explicit or implicit).
    fn sync(&mut self, frame: FrameId) {}

    /// The current frame resumes a continuation that the steal specification
    /// marked as stolen; `vid` is the fresh view created for it.
    fn stolen_continuation(&mut self, frame: FrameId, vid: ViewId) {}

    /// The runtime merges the two topmost views: `src` (the dominated,
    /// newer view) is reduced into `dst` (the dominating, older view).
    /// Any monoid `Reduce` code executes immediately after this event, with
    /// its accesses tagged [`AccessKind::Reduce`].
    fn reduce_merge(&mut self, frame: FrameId, dst: ViewId, src: ViewId) {}

    /// A read of `loc` executed in `frame` on `strand`.
    fn read(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {}

    /// A write of `loc` executed in `frame` on `strand`.
    fn write(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {}

    /// Reads of the `len` consecutive locations starting at `base`, in
    /// ascending order, all in `frame` on `strand` with the same `kind`.
    /// Equivalent to one [`Tool::read`] per element, which is what the
    /// default does.
    fn read_range(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        base: Loc,
        len: u32,
        kind: AccessKind,
    ) {
        for i in 0..len {
            self.read(frame, strand, Loc(base.0 + i), kind);
        }
    }

    /// Writes of the `len` consecutive locations starting at `base`, in
    /// ascending order; the write counterpart of [`Tool::read_range`].
    fn write_range(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        base: Loc,
        len: u32,
        kind: AccessKind,
    ) {
        for i in 0..len {
            self.write(frame, strand, Loc(base.0 + i), kind);
        }
    }

    /// A reducer-read (create / set / get) of reducer `h`.
    fn reducer_read(
        &mut self,
        frame: FrameId,
        strand: StrandId,
        h: ReducerId,
        kind: ReducerReadKind,
    ) {
    }
}

/// The empty tool: all hooks present, all bodies empty.
///
/// Running a benchmark under `EmptyTool` measures pure instrumentation
/// overhead — the baseline of the paper's Figure 8.
#[derive(Default, Clone, Copy, Debug)]
pub struct EmptyTool;

impl Tool for EmptyTool {}

/// A tool that counts every event; useful in tests to assert the engine
/// emits the expected instrumentation stream.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountingTool {
    /// `frame_enter` events observed.
    pub frame_enters: u64,
    /// `frame_leave` events observed.
    pub frame_leaves: u64,
    /// `sync` events observed.
    pub syncs: u64,
    /// Simulated steals observed.
    pub steals: u64,
    /// Reduce merges observed.
    pub reduces: u64,
    /// Read accesses observed.
    pub reads: u64,
    /// Write accesses observed.
    pub writes: u64,
    /// Reducer-read events observed.
    pub reducer_reads: u64,
    /// Accesses tagged view-aware.
    pub view_aware_accesses: u64,
}

impl Tool for CountingTool {
    fn frame_enter(&mut self, _: FrameId, _: EnterKind) {
        self.frame_enters += 1;
    }
    fn frame_leave(&mut self, _: FrameId, _: EnterKind) {
        self.frame_leaves += 1;
    }
    fn sync(&mut self, _: FrameId) {
        self.syncs += 1;
    }
    fn stolen_continuation(&mut self, _: FrameId, _: ViewId) {
        self.steals += 1;
    }
    fn reduce_merge(&mut self, _: FrameId, _: ViewId, _: ViewId) {
        self.reduces += 1;
    }
    fn read(&mut self, _: FrameId, _: StrandId, _: Loc, kind: AccessKind) {
        self.reads += 1;
        if kind.is_view_aware() {
            self.view_aware_accesses += 1;
        }
    }
    fn write(&mut self, _: FrameId, _: StrandId, _: Loc, kind: AccessKind) {
        self.writes += 1;
        if kind.is_view_aware() {
            self.view_aware_accesses += 1;
        }
    }
    fn reducer_read(&mut self, _: FrameId, _: StrandId, _: ReducerId, _: ReducerReadKind) {
        self.reducer_reads += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs every per-element access it receives.
    #[derive(Default, PartialEq, Debug)]
    struct Log(Vec<(u32, bool, AccessKind)>);

    impl Tool for Log {
        fn read(&mut self, _: FrameId, _: StrandId, loc: Loc, kind: AccessKind) {
            self.0.push((loc.0, false, kind));
        }
        fn write(&mut self, _: FrameId, _: StrandId, loc: Loc, kind: AccessKind) {
            self.0.push((loc.0, true, kind));
        }
    }

    fn feed(t: &mut dyn Tool, ranged: bool) {
        let (f, s) = (FrameId(1), StrandId(2));
        let runs = [
            (Loc(10), 4, false, AccessKind::Oblivious),
            (Loc(3), 1, true, AccessKind::Update),
            (Loc(7), 0, false, AccessKind::Oblivious),
            (Loc(20), 3, true, AccessKind::Oblivious),
        ];
        for (base, len, write, kind) in runs {
            match (ranged, write) {
                (true, false) => t.read_range(f, s, base, len, kind),
                (true, true) => t.write_range(f, s, base, len, kind),
                (false, _) => {
                    for i in 0..len {
                        let loc = Loc(base.0 + i);
                        if write {
                            t.write(f, s, loc, kind);
                        } else {
                            t.read(f, s, loc, kind);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn default_range_hooks_unpack_into_per_element_calls() {
        let (mut ranged, mut single) = (CountingTool::default(), CountingTool::default());
        feed(&mut ranged, true);
        feed(&mut single, false);
        assert_eq!(ranged, single);
        assert_eq!((ranged.reads, ranged.writes), (4, 4));
        assert_eq!(ranged.view_aware_accesses, 1);

        let (mut ranged, mut single) = (Log::default(), Log::default());
        feed(&mut ranged, true);
        feed(&mut single, false);
        assert_eq!(ranged, single, "same locations, kinds and order");
    }
}
