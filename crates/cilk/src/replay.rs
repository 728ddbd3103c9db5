//! Record-once / replay-many execution of the serial action tree.
//!
//! Section 7's coverage guarantee costs Θ(M) + Θ(K³) SP+ runs, and the
//! paper's *ostensible determinism* precondition says the view-oblivious
//! instruction stream is identical across all of those schedules — only
//! steals, view lifetimes, and reduce strands differ. So the user program
//! needs to run **once**: [`ProgramTrace::record`] captures its serial
//! action tree (frame enter/leave, spawn/call/sync structure, memory
//! accesses, allocations, reducer registrations, and reducer-op operands)
//! under the no-steal schedule, and
//! [`SerialEngine::replay_tool`](crate::SerialEngine::replay_tool) re-feeds
//! that trace to the engine under any [`StealSpec`] without re-running
//! user closures.
//!
//! What replay does **not** record is the view-aware side: monoid
//! `update` / `create_identity` / `reduce` bodies execute for real against
//! the live arena during replay, because those are exactly the
//! schedule-dependent strands SP+ must observe (which views exist, where
//! reduces run, and what they touch all depend on the steal
//! specification).
//!
//! ## Location translation
//!
//! Under a steal specification the engine materializes extra identity
//! views, so the bump allocator hands out different addresses than the
//! recording run saw. Recorded locations are translated at replay time:
//!
//! 1. a location inside a recorded **user allocation** maps base-relative
//!    into the corresponding replayed allocation;
//! 2. otherwise it is view memory the program learned from a `get_value`:
//!    it maps offset-relative to the nearest recorded `get_value` result
//!    at or below it (replay knows what that `get_value` actually
//!    returned this schedule).
//!
//! Because replay performs the recorded user allocations and the live
//! monoid allocations in the same interleaving as a fresh run under the
//! same specification would, the replayed arena is **address-identical**
//! to that fresh run's — translated accesses land exactly where a real
//! re-execution's would, and the instrumentation stream (and hence any
//! detector verdict) is byte-identical.
//!
//! ## When replay must fall back
//!
//! One pattern is genuinely schedule-ambiguous: a `get_value` whose
//! recorded result aliases user memory (a `set_value` of a user location,
//! the Figure-1 pattern) may, under a different schedule, return a fresh
//! identity view instead. The trace cannot distinguish "the program went
//! on to read the user cell" from "the program went on to read whatever
//! the view was". Replay detects exactly this condition — the replayed
//! `get_value` result disagrees with the translation of the recorded one
//! — and returns [`ReplayError::ViewDivergence`] so the caller can fall
//! back to honest re-execution for that specification (the coverage
//! driver in `rader-core` does this per spec). Programs whose user code
//! dereferences monoid-internal pointers read *out of* view memory (e.g.
//! walking an ostream's node chain by hand) are outside the replayable
//! class entirely; see DESIGN.md for the contract.
//!
//! ## Forked replays
//!
//! Replays under two specs of one family are identical up to
//! [`ProgramTrace::fork_event`]. A [`ReplayCheckpoint`] is a replay
//! paused between events; copied at the fork event (with the tool's
//! state) and switched to the other spec, it finishes exactly as a
//! from-scratch replay under that spec would (DESIGN.md §5g).
//!
//! ## Pruned copies
//!
//! [`ProgramTrace::pruned`] drops the view-oblivious accesses whose
//! detector checks the no-steal recording run already settled. A replay
//! of the copy refuses with [`ReplayError::PrunedAllocation`] when a
//! monoid body touches memory whose accesses were dropped (DESIGN.md §5h).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::engine::{Ctx, EngineState, RunStats};
use crate::events::{EnterKind, ReducerId, Tool};
use crate::mem::{Loc, Word};
use crate::monoid::ViewMonoid;
use crate::spec::{BlockOp, BlockScript, StealSpec};

/// One recorded user-level action. Memory events store *record-space*
/// locations; replay translates them (see module docs).
///
/// The replay loop streams one of these per engine action of the
/// recorded run, so the representation is kept to 8 bytes: variants
/// carry at most a `Loc`, and everything wider (write values, alloc
/// shapes, reducer-op spans, view records, labels) lives in side
/// streams on [`ProgramTrace`], consumed in order during replay. The
/// hot events (`Read`/`Write`, the overwhelming majority of a trace)
/// stay self-contained.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TraceEvent {
    /// A frame was entered (root / spawn / call).
    FrameEnter(EnterKind),
    /// The current frame returned (includes its implicit sync).
    FrameLeave,
    /// `Ctx::label_frame`; label from the `labels` stream.
    FrameLabel,
    /// An explicit `Ctx::sync`.
    Sync,
    /// A user allocation; `(base, n)` from the `allocs` stream.
    Alloc,
    /// A user read of `loc`.
    Read {
        /// Record-space location read.
        loc: Loc,
    },
    /// A run of reads of consecutive locations starting at `loc`; the
    /// length from the `run_lens` stream. Array scans dominate real
    /// traces, and a run costs one dispatch + one translation instead of
    /// one per element.
    ReadRun {
        /// Record-space location of the first read.
        loc: Loc,
    },
    /// A user write of `loc`; the value from the `write_values` stream.
    Write {
        /// Record-space location written.
        loc: Loc,
    },
    /// A run of writes to consecutive locations starting at `loc`; the
    /// length from the `run_lens` stream, values from `write_values`.
    WriteRun {
        /// Record-space location of the first write.
        loc: Loc,
    },
    /// `Ctx::new_reducer`; the monoid is in [`ProgramTrace::monoids`] at
    /// the position given by registration order.
    NewReducer,
    /// `Ctx::reducer_update`; `(h, start, len)` from the `updates`
    /// stream, operands at `ops[start..start + len]`.
    Update,
    /// `Ctx::reducer_get_view`; `(h, recorded result)` from the
    /// `get_views` stream.
    GetView,
    /// `Ctx::reducer_set_view`; `(h, record-space loc)` from the
    /// `set_views` stream.
    SetView,
}

/// Why a trace could not be replayed under some steal specification.
///
/// No variant means the trace is corrupt: the recording is still valid
/// for every specification that does not trigger the condition. The
/// first two mean "this (program, specification) pair needs honest
/// re-execution"; [`ReplayError::PrunedAllocation`] only that the pair
/// needs the trace as recorded rather than its pruned copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A recorded `get_value` result aliases user memory, but under this
    /// specification the live `get_value` returned a different view — the
    /// trace cannot tell which of the two the program's subsequent
    /// accesses meant (the Figure-1 `set_value` pattern crossed a steal).
    ViewDivergence {
        /// The reducer whose view diverged.
        reducer: ReducerId,
        /// The `get_value` result in the recording run.
        recorded: Loc,
        /// Where the recorded result maps to under this schedule.
        expected: Loc,
        /// What the live `get_value` actually returned.
        got: Loc,
    },
    /// A recorded access is neither inside a user allocation nor at an
    /// offset from any `get_value` result — the program read view
    /// internals through raw pointer values, which the trace cannot
    /// relocate.
    UntranslatableLoc {
        /// The record-space location with no replay-space image.
        loc: Loc,
    },
    /// Replaying a [`ProgramTrace::pruned`] copy, a view-aware access (a
    /// monoid body's) touched a user allocation whose view-oblivious
    /// accesses the copy dropped: the checks of that access need the
    /// dropped ones, so this specification must replay the trace as
    /// recorded (DESIGN.md §5h).
    PrunedAllocation {
        /// The allocation's record-space base.
        alloc: Loc,
        /// The allocation's length in words.
        len: u32,
        /// The replay-space location the view-aware access touched.
        loc: Loc,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::ViewDivergence {
                reducer,
                recorded,
                expected,
                got,
            } => write!(
                f,
                "replay diverged on reducer {reducer:?}: recorded get_value \
                 returned user-aliased {recorded:?} (maps to {expected:?}), \
                 but this schedule's view is {got:?}; re-execute this \
                 specification instead"
            ),
            ReplayError::UntranslatableLoc { loc } => write!(
                f,
                "recorded access to {loc:?} is neither user-allocated nor \
                 reachable from a get_value result; the program reads view \
                 internals and is outside the replayable class"
            ),
            ReplayError::PrunedAllocation { alloc, len, loc } => write!(
                f,
                "a view-aware access touched {loc:?} in the user allocation of \
                 {len} word(s) at {alloc:?} (record space), whose view-oblivious \
                 accesses the pruned trace dropped; replay this specification \
                 from the unpruned trace instead"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Accumulates the event stream during a recording run. Owned by the
/// engine's `Ctx` while recording is active.
#[derive(Default)]
pub(crate) struct TraceBuilder {
    events: Vec<TraceEvent>,
    write_values: Vec<Word>,
    run_lens: Vec<u32>,
    shared: SharedStreams,
    first_leave_at_cont: Vec<usize>,
    first_leave_at_spawn_count: Vec<usize>,
}

impl TraceBuilder {
    #[inline]
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// A `FrameLeave`; `cont` is `(continuation index, spawn count)` of
    /// the parent's continuation when the leaving frame was spawned.
    #[inline]
    pub(crate) fn push_leave(&mut self, cont: Option<(u32, u32)>) {
        let at = self.events.len();
        self.events.push(TraceEvent::FrameLeave);
        let Some((k, j)) = cont else {
            return;
        };
        // A block reaches continuation k only after k - 1, so the first
        // leaves by index arrive in order. Spawn counts do not: a nested
        // block's deeper counts can come first.
        if k as usize > self.first_leave_at_cont.len() {
            debug_assert_eq!(k as usize, self.first_leave_at_cont.len() + 1);
            self.first_leave_at_cont.push(at);
        }
        let j = j as usize;
        if j > self.first_leave_at_spawn_count.len() {
            self.first_leave_at_spawn_count.resize(j, usize::MAX);
        }
        let slot = &mut self.first_leave_at_spawn_count[j - 1];
        if *slot == usize::MAX {
            *slot = at;
        }
    }

    // A run grows only while it is the last event, so `run_lens` (shared
    // by reads and writes) stays in event order and only its last entry
    // is ever extended.
    #[inline]
    pub(crate) fn push_read(&mut self, loc: Loc) {
        if let Some(last) = self.events.last_mut() {
            match *last {
                TraceEvent::Read { loc: prev } if prev.0.wrapping_add(1) == loc.0 => {
                    *last = TraceEvent::ReadRun { loc: prev };
                    self.run_lens.push(2);
                    return;
                }
                TraceEvent::ReadRun { loc: start } => {
                    let len = self.run_lens.last_mut().expect("run without length");
                    if start.0.wrapping_add(*len) == loc.0 {
                        *len += 1;
                        return;
                    }
                }
                _ => {}
            }
        }
        self.events.push(TraceEvent::Read { loc });
    }

    #[inline]
    pub(crate) fn push_write(&mut self, loc: Loc, value: Word) {
        self.write_values.push(value);
        if let Some(last) = self.events.last_mut() {
            match *last {
                TraceEvent::Write { loc: prev } if prev.0.wrapping_add(1) == loc.0 => {
                    *last = TraceEvent::WriteRun { loc: prev };
                    self.run_lens.push(2);
                    return;
                }
                TraceEvent::WriteRun { loc: start } => {
                    let len = self.run_lens.last_mut().expect("run without length");
                    if start.0.wrapping_add(*len) == loc.0 {
                        *len += 1;
                        return;
                    }
                }
                _ => {}
            }
        }
        self.events.push(TraceEvent::Write { loc });
    }

    #[inline]
    pub(crate) fn push_alloc(&mut self, base: Loc, n: u32) {
        self.shared.allocs.push((base, n));
        self.shared.view_aware.push(false);
        self.events.push(TraceEvent::Alloc);
    }

    /// A view-aware access (a monoid body's) of `loc`: mark the user
    /// allocation it lands in, if any, as one [`ProgramTrace::pruned`]
    /// must keep every access to.
    #[inline(never)]
    pub(crate) fn note_view_aware(&mut self, loc: Loc) {
        let sh = &mut self.shared;
        if let Some(i) = sh.allocs.partition_point(|&(b, _)| b <= loc).checked_sub(1) {
            let (base, n) = sh.allocs[i];
            if loc.0 - base.0 < n {
                sh.view_aware[i] = true;
            }
        }
    }

    #[inline]
    pub(crate) fn push_label(&mut self, label: &'static str) {
        self.shared.labels.push(label);
        self.events.push(TraceEvent::FrameLabel);
    }

    #[inline]
    pub(crate) fn push_update(&mut self, h: ReducerId, op: &[Word]) {
        let sh = &mut self.shared;
        let start = sh.ops.len() as u32;
        sh.ops.extend_from_slice(op);
        sh.updates.push((h, start, op.len() as u32));
        self.events.push(TraceEvent::Update);
    }

    #[inline]
    pub(crate) fn push_get_view(&mut self, h: ReducerId, result: Loc) {
        self.shared.get_views.push((h, result));
        self.events.push(TraceEvent::GetView);
    }

    #[inline]
    pub(crate) fn push_set_view(&mut self, h: ReducerId, loc: Loc) {
        self.shared.set_views.push((h, loc));
        self.events.push(TraceEvent::SetView);
    }

    #[inline]
    pub(crate) fn push_new_reducer(&mut self, monoid: Arc<dyn ViewMonoid>) {
        self.shared.monoids.push(monoid);
        self.events.push(TraceEvent::NewReducer);
    }

    pub(crate) fn finish(self, stats: RunStats) -> ProgramTrace {
        ProgramTrace {
            events: self.events,
            write_values: self.write_values,
            run_lens: self.run_lens,
            shared: Arc::new(self.shared),
            dropped_allocs: Vec::new(),
            dropped: 0,
            first_leave_at_cont: self.first_leave_at_cont,
            first_leave_at_spawn_count: self.first_leave_at_spawn_count,
            stats,
        }
    }
}

/// The side streams [`ProgramTrace::pruned`] leaves as they are; a trace
/// and its pruned copy share one.
#[derive(Default)]
struct SharedStreams {
    allocs: Vec<(Loc, u32)>,
    /// Per allocation in `allocs`: a view-aware access of the recording
    /// run touched it.
    view_aware: Vec<bool>,
    updates: Vec<(ReducerId, u32, u32)>,
    ops: Vec<Word>,
    get_views: Vec<(ReducerId, Loc)>,
    set_views: Vec<(ReducerId, Loc)>,
    labels: Vec<&'static str>,
    monoids: Vec<Arc<dyn ViewMonoid>>,
}

/// A recorded serial action tree, replayable under any [`StealSpec`] via
/// [`SerialEngine::replay_tool`](crate::SerialEngine::replay_tool).
///
/// The trace holds the user-level event stream, the pooled reducer-update
/// operands, the registered monoids (shared `Arc`s, so replays on many
/// threads reuse them), and the recording run's [`RunStats`] — which is
/// how the coverage driver learns `K` and `M` without a separate
/// measurement run.
#[derive(Clone)]
pub struct ProgramTrace {
    events: Vec<TraceEvent>,
    write_values: Vec<Word>,
    run_lens: Vec<u32>,
    shared: Arc<SharedStreams>,
    /// Per allocation in `shared.allocs`: [`ProgramTrace::pruned`]
    /// dropped accesses to it. Empty for a trace as recorded.
    dropped_allocs: Vec<bool>,
    /// Element accesses [`ProgramTrace::pruned`] dropped.
    dropped: u64,
    /// Event index of the first spawned child's `FrameLeave` whose
    /// parent continuation has index `k`, at `k - 1`.
    first_leave_at_cont: Vec<usize>,
    /// As `first_leave_at_cont`, by the continuation's spawn count `j`
    /// (`usize::MAX` for a count no continuation has).
    first_leave_at_spawn_count: Vec<usize>,
    stats: RunStats,
}

impl ProgramTrace {
    /// Record `program`'s serial action tree under the no-steal schedule.
    pub fn record(program: impl FnOnce(&mut Ctx<'_>)) -> ProgramTrace {
        crate::engine::record_trace(program)
    }

    /// As [`ProgramTrace::record`], with `tool` attached to the recording
    /// run. The tool observes exactly what a no-steal
    /// [`SerialEngine::run_tool`](crate::SerialEngine::run_tool) of the
    /// program would show it — recording is a passive extra hook — so a
    /// sweep can use its mandatory no-steal detection run as the record
    /// pass instead of paying for a separate one.
    pub fn record_with_tool(
        tool: &mut dyn crate::Tool,
        program: impl FnOnce(&mut Ctx<'_>),
    ) -> ProgramTrace {
        crate::engine::record_trace_tool(tool, program)
    }

    /// Statistics of the recording run (notably `max_sync_block` = the
    /// paper's `K` and `max_spawn_count` = `M`).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Number of recorded user-level events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace recorded no events (an empty program).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A copy of this recorded trace without the view-oblivious accesses
    /// whose checks the recording run already settled, for replays under
    /// every spec other than `StealSpec::None` (DESIGN.md §5h). A `Read`,
    /// `Write` or run of either is dropped when it lies wholly inside one
    /// user allocation that no view-aware access touched while recording,
    /// and covers none of `racy`, the locations the recording run's
    /// detector found racy. Every allocation stays, so replays of the copy
    /// are address-identical to replays of the original; a replay whose
    /// view-aware access lands in an allocation the copy dropped accesses
    /// from refuses with [`ReplayError::PrunedAllocation`]. The copy
    /// shares every side stream but the event, write-value and run-length
    /// streams with this trace.
    ///
    /// `None` if nothing would be dropped.
    ///
    /// # Panics
    ///
    /// If this trace is itself a pruned copy.
    pub fn pruned(&self, racy: &BTreeSet<Loc>) -> Option<ProgramTrace> {
        assert!(self.dropped_allocs.is_empty(), "prune a trace as recorded");
        let sh = &self.shared;
        if sh.view_aware.iter().all(|&aware| aware) {
            return None;
        }
        // The allocation wholly holding `len` words at `loc`, if it has no
        // view-aware access and the words none of `racy`. Accesses cluster
        // in one allocation at a time, so the last one found is tried first.
        let mut last = 0;
        let mut droppable = |loc: Loc, len: u32| {
            let holds = |i: usize| {
                let (base, n) = sh.allocs[i];
                let off = loc.0.wrapping_sub(base.0);
                off < n && len <= n - off
            };
            if last >= sh.allocs.len() || !holds(last) {
                last = sh
                    .allocs
                    .partition_point(|&(b, _)| b <= loc)
                    .checked_sub(1)?;
                if !holds(last) {
                    return None;
                }
            }
            let clean = racy.is_empty() || racy.range(loc..Loc(loc.0 + len)).next().is_none();
            (clean && !sh.view_aware[last]).then_some(last)
        };
        let mut events = Vec::with_capacity(self.events.len());
        let mut write_values = Vec::new();
        let mut run_lens = Vec::new();
        let mut dropped_allocs = vec![false; sh.allocs.len()];
        let mut dropped = 0u64;
        // The copy's index of each kept event, for the fork tables.
        let mut new_at = Vec::with_capacity(self.events.len());
        let (mut values, mut lens) = (&self.write_values[..], self.run_lens.iter());
        for &ev in &self.events {
            new_at.push(events.len() as u32);
            let (loc, len, writes) = match ev {
                TraceEvent::Read { loc } => (loc, 1, false),
                TraceEvent::Write { loc } => (loc, 1, true),
                TraceEvent::ReadRun { loc } | TraceEvent::WriteRun { loc } => {
                    let len = *lens.next().expect("run-length stream underrun");
                    (loc, len, matches!(ev, TraceEvent::WriteRun { .. }))
                }
                _ => {
                    events.push(ev);
                    continue;
                }
            };
            let vals = if writes {
                take_values(&mut values, len as usize)
            } else {
                &[]
            };
            if let Some(i) = droppable(loc, len) {
                dropped_allocs[i] = true;
                dropped += u64::from(len);
                continue;
            }
            events.push(ev);
            if matches!(ev, TraceEvent::ReadRun { .. } | TraceEvent::WriteRun { .. }) {
                run_lens.push(len);
            }
            write_values.extend_from_slice(vals);
        }
        if dropped == 0 {
            return None;
        }
        let remap = |table: &[usize]| -> Vec<usize> {
            table
                .iter()
                .map(|&at| match at {
                    usize::MAX => at,
                    at => new_at[at] as usize,
                })
                .collect()
        };
        Some(ProgramTrace {
            events,
            write_values,
            run_lens,
            shared: Arc::clone(&self.shared),
            dropped_allocs,
            dropped,
            first_leave_at_cont: remap(&self.first_leave_at_cont),
            first_leave_at_spawn_count: remap(&self.first_leave_at_spawn_count),
            stats: self.stats,
        })
    }

    /// Element accesses [`ProgramTrace::pruned`] dropped from this trace:
    /// the checks each replay of it skips (0 for a trace as recorded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The first event at which replays under `a` and `b` can differ:
    /// both feed a tool the same hooks, and leave the engine in the same
    /// state, for every event before it. `None` when the two specs are
    /// of different families (or `Random`), which never fork; the trace
    /// length when they act alike throughout. See DESIGN.md §5g.
    ///
    /// Specs act only at continuation points, the `FrameLeave` of a
    /// spawned child. Two `EveryBlock` scripts act alike at every
    /// continuation up to the smallest index `k` where one steals and
    /// the other does not, or both steal after different numbers of
    /// reduces; the fork is the first continuation with index `k`. Two
    /// `AtSpawnCount` specs fork at the first continuation whose spawn
    /// count is either of theirs.
    pub fn fork_event(&self, a: &StealSpec, b: &StealSpec) -> Option<usize> {
        let first = |table: &[usize], i: Option<u32>| {
            i.and_then(|i| table.get(i.checked_sub(1)? as usize))
                .copied()
                .filter(|&at| at != usize::MAX)
                .unwrap_or(self.events.len())
        };
        match (a, b) {
            (StealSpec::EveryBlock(s), StealSpec::EveryBlock(t)) => {
                Some(first(&self.first_leave_at_cont, first_different_act(s, t)))
            }
            (StealSpec::AtSpawnCount(i), StealSpec::AtSpawnCount(j)) if i == j => {
                Some(self.events.len())
            }
            (StealSpec::AtSpawnCount(i), StealSpec::AtSpawnCount(j)) => {
                let table = &self.first_leave_at_spawn_count;
                Some(first(table, Some(*i)).min(first(table, Some(*j))))
            }
            _ => None,
        }
    }
}

/// What a script does at each continuation it steals: `(index, reduces
/// run just before the steal)`. At every other continuation it does
/// nothing, and at the sync every script reduces whatever views remain.
fn steal_acts(script: &BlockScript) -> impl Iterator<Item = (u32, u32)> + '_ {
    let mut reduces = 0;
    script.ops().iter().filter_map(move |op| match *op {
        BlockOp::Reduce => {
            reduces += 1;
            None
        }
        BlockOp::Steal(k) => Some((k, std::mem::take(&mut reduces))),
    })
}

/// The smallest continuation index at which `s` and `t` act differently,
/// or `None` if they act alike at every continuation.
fn first_different_act(s: &BlockScript, t: &BlockScript) -> Option<u32> {
    let (mut s, mut t) = (steal_acts(s), steal_acts(t));
    loop {
        match (s.next(), t.next()) {
            (None, None) => return None,
            (Some((k, _)), None) | (None, Some((k, _))) => return Some(k),
            (Some(x), Some(y)) if x == y => {}
            (Some((k, _)), Some((l, _))) => return Some(k.min(l)),
        }
    }
}

impl std::fmt::Debug for ProgramTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramTrace")
            .field("events", &self.events.len())
            .field("ops", &self.shared.ops.len())
            .field("reducers", &self.shared.monoids.len())
            .field("dropped", &self.dropped)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Record-space → replay-space location translation (see module docs).
#[derive(Default)]
struct Translator {
    /// `(record_base, len, replay_base)` per user allocation, in
    /// allocation (= ascending record-base) order. Allocations contiguous
    /// in *both* spaces (no interleaved monoid allocation in either run)
    /// are coalesced into one interval, so a program's back-to-back setup
    /// allocations translate through a single cached entry.
    allocs: Vec<(u32, u32, u32)>,
    /// The last interval hit, inlined — user code overwhelmingly scans
    /// one (coalesced) allocation at a time, so the hot path is one
    /// compare and one add.
    hit: (u32, u32, u32),
    /// Latest replayed `get_value` result per recorded (non-user) result.
    views: BTreeMap<u32, u32>,
}

impl Clone for Translator {
    fn clone(&self) -> Self {
        let mut c = Translator::default();
        c.clone_from(self);
        c
    }

    fn clone_from(&mut self, src: &Self) {
        self.allocs.clone_from(&src.allocs);
        self.hit = src.hit;
        self.views.clone_from(&src.views);
    }
}

impl Translator {
    fn clear(&mut self) {
        self.allocs.clear();
        self.hit = (0, 0, 0);
        self.views.clear();
    }

    #[inline]
    fn push_alloc(&mut self, record_base: Loc, n: u32, replay_base: Loc) {
        if let Some(last) = self.allocs.last_mut() {
            if last.0 + last.1 == record_base.0 && last.2 + last.1 == replay_base.0 {
                last.1 += n;
                self.hit = *last;
                return;
            }
        }
        self.allocs.push((record_base.0, n, replay_base.0));
        self.hit = (record_base.0, n, replay_base.0);
    }

    /// Translate a record-space loc that falls inside a user allocation.
    #[inline]
    fn in_user_alloc(&mut self, loc: u32) -> Option<u32> {
        let (b, n, rb) = self.hit;
        if loc.wrapping_sub(b) < n {
            return Some(rb + (loc - b));
        }
        let i = self.allocs.partition_point(|&(b, _, _)| b <= loc);
        if i == 0 {
            return None;
        }
        let (b, n, rb) = self.allocs[i - 1];
        if loc - b < n {
            self.hit = (b, n, rb);
            Some(rb + (loc - b))
        } else {
            None
        }
    }

    /// Translate a whole contiguous record-space range when it fits in
    /// one user interval (the common case for access runs); `None` sends
    /// the caller to the per-element slow path, which also handles
    /// view-space runs.
    #[inline]
    fn translate_range(&mut self, loc: Loc, len: u32) -> Option<u32> {
        let (b, n, rb) = self.hit;
        let off = loc.0.wrapping_sub(b);
        if off < n && n - off >= len {
            return Some(rb + off);
        }
        let i = self.allocs.partition_point(|&(b, _, _)| b <= loc.0);
        if i == 0 {
            return None;
        }
        let (b, n, rb) = self.allocs[i - 1];
        let off = loc.0 - b;
        if off < n && n - off >= len {
            self.hit = (b, n, rb);
            Some(rb + off)
        } else {
            None
        }
    }

    #[inline]
    fn translate(&mut self, loc: Loc) -> Result<Loc, ReplayError> {
        if let Some(t) = self.in_user_alloc(loc.0) {
            return Ok(Loc(t));
        }
        match self.views.range(..=loc.0).next_back() {
            Some((&base, &replayed)) => Ok(Loc(replayed + (loc.0 - base))),
            None => Err(ReplayError::UntranslatableLoc { loc }),
        }
    }

    /// Register a replayed `get_value`: `recorded` is what the recording
    /// run got, `got` is what this schedule's live `get_value` returned.
    fn note_get_view(&mut self, h: ReducerId, recorded: Loc, got: Loc) -> Result<(), ReplayError> {
        if let Some(expected) = self.in_user_alloc(recorded.0) {
            // The recorded view aliases user memory. If the live view is
            // the same user cell, user-interval translation already covers
            // every subsequent access consistently; if not, the trace is
            // ambiguous under this schedule (see ReplayError docs).
            if expected != got.0 {
                return Err(ReplayError::ViewDivergence {
                    reducer: h,
                    recorded,
                    expected: Loc(expected),
                    got,
                });
            }
        } else {
            self.views.insert(recorded.0, got.0);
        }
        Ok(())
    }
}

/// The next `n` recorded write values, advancing past them.
#[inline]
fn take_values<'a>(stream: &mut &'a [Word], n: usize) -> &'a [Word] {
    assert!(stream.len() >= n, "write-value stream underrun");
    let (head, rest) = stream.split_at(n);
    *stream = rest;
    head
}

/// How far a replay has read each of its trace's streams.
#[derive(Clone, Copy, Debug, Default)]
struct Cursors {
    event: usize,
    write_values: usize,
    run_lens: usize,
    allocs: usize,
    updates: usize,
    get_views: usize,
    set_views: usize,
    labels: usize,
    reducers: usize,
}

/// A replay of a [`ProgramTrace`] paused between two events: the engine
/// state without the tool, the location translator and the stream
/// cursors. It is how a sweep shares prefixes: replay spec `a` up to its
/// [`ProgramTrace::fork_event`] with spec `b`, copy the checkpoint (and
/// the tool's state), and finish the copy under `b`
/// ([`ReplayCheckpoint::resume_as`]) instead of replaying `b` from the
/// first event. The tool is passed to each call, so whoever owns it can
/// copy it at the same event.
///
/// A checkpoint belongs to the trace it was started on. After a
/// [`ReplayError`] it cannot go on until the next
/// [`ReplayCheckpoint::start`]. `Clone::clone_from` reuses its buffers.
#[derive(Default)]
pub struct ReplayCheckpoint {
    st: EngineState,
    xl: Translator,
    at: Cursors,
}

impl Clone for ReplayCheckpoint {
    fn clone(&self) -> Self {
        let mut c = ReplayCheckpoint::default();
        c.clone_from(self);
        c
    }

    fn clone_from(&mut self, src: &Self) {
        self.st.clone_from(&src.st);
        self.xl.clone_from(&src.xl);
        self.at = src.at;
    }
}

impl ReplayCheckpoint {
    /// An idle checkpoint; [`ReplayCheckpoint::start`] begins a replay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a replay under `spec` at the first event, keeping this
    /// checkpoint's buffers, and fire `tool`'s
    /// [`Tool::begin_run`]: `start` then
    /// [`finish`](ReplayCheckpoint::finish) is
    /// [`SerialEngine::replay_tool`](crate::SerialEngine::replay_tool).
    pub fn start(&mut self, spec: &StealSpec, tool: &mut dyn Tool) {
        tool.begin_run();
        self.st.restart(spec);
        self.xl.clear();
        self.at = Cursors::default();
    }

    /// The index of the next event this replay feeds.
    pub fn event(&self) -> usize {
        self.at.event
    }

    /// Go on under `spec` instead, if that is the same replay so far: the
    /// next event is at or before `trace.fork_event(self.spec(), spec)`.
    /// Returns false, and changes nothing, otherwise.
    pub fn resume_as(&mut self, trace: &ProgramTrace, spec: &StealSpec) -> bool {
        match trace.fork_event(self.st.spec(), spec) {
            Some(at) if self.at.event <= at => {
                self.st.respec(spec);
                true
            }
            _ => false,
        }
    }

    /// Feed `tool` the events from [`event`](ReplayCheckpoint::event) up
    /// to, not including, `stop` (clamped to the trace's end).
    ///
    /// # Panics
    ///
    /// If the replay is not running: never started, or stopped by a
    /// [`ReplayError`].
    pub fn advance(
        &mut self,
        tool: &mut dyn Tool,
        trace: &ProgramTrace,
        stop: usize,
    ) -> Result<(), ReplayError> {
        assert!(
            self.at.event <= trace.events.len(),
            "replay checkpoint is not running"
        );
        let mut cx = Ctx::resume(std::mem::take(&mut self.st), tool);
        let result = drive_from(&mut cx, trace, &mut self.xl, &mut self.at, stop);
        self.st = cx.into_state();
        if result.is_err() {
            self.at.event = usize::MAX;
        }
        result
    }

    /// Feed `tool` the rest of the trace; the run's statistics.
    pub fn finish(
        &mut self,
        tool: &mut dyn Tool,
        trace: &ProgramTrace,
    ) -> Result<RunStats, ReplayError> {
        self.advance(tool, trace, trace.events.len())?;
        Ok(self.st.stats())
    }
}

/// Re-feed a recorded trace to a live engine context. The context's steal
/// specification decides which continuations are stolen and where reduces
/// run, exactly as in a fresh execution.
pub(crate) fn drive(cx: &mut Ctx<'_>, trace: &ProgramTrace) -> Result<(), ReplayError> {
    let (mut xl, mut at) = (Translator::default(), Cursors::default());
    drive_from(cx, trace, &mut xl, &mut at, trace.events.len())
}

/// [`drive`] for the events `at.event..stop` only, advancing `at`.
fn drive_from(
    cx: &mut Ctx<'_>,
    trace: &ProgramTrace,
    xl: &mut Translator,
    at: &mut Cursors,
    stop: usize,
) -> Result<(), ReplayError> {
    let stop = stop.clamp(at.event, trace.events.len());
    let sh = &*trace.shared;
    let mut write_values = &trace.write_values[at.write_values..];
    let mut run_lens = trace.run_lens[at.run_lens..].iter();
    let mut allocs = sh.allocs[at.allocs..].iter();
    let mut updates = sh.updates[at.updates..].iter();
    let mut get_views = sh.get_views[at.get_views..].iter();
    let mut set_views = sh.set_views[at.set_views..].iter();
    let mut labels = sh.labels[at.labels..].iter();
    let mut next_reducer = at.reducers;
    // Events that may run monoid bodies end with `cx.pruned_hit()?`: the
    // guard of DESIGN.md §5h, a no-op unless the trace is a pruned copy.
    for ev in &trace.events[at.event..stop] {
        match *ev {
            TraceEvent::FrameEnter(kind) => cx.enter_frame(kind),
            TraceEvent::FrameLeave => {
                cx.leave_frame();
                cx.pruned_hit()?;
            }
            TraceEvent::FrameLabel => {
                cx.label_frame(labels.next().expect("label stream underrun"));
            }
            TraceEvent::Sync => {
                cx.sync();
                cx.pruned_hit()?;
            }
            TraceEvent::Alloc => {
                let i = sh.allocs.len() - allocs.len();
                let &(base, n) = allocs.next().expect("alloc stream underrun");
                let rb = cx.alloc(n as usize);
                xl.push_alloc(base, n, rb);
                if trace.dropped_allocs.get(i) == Some(&true) {
                    cx.guard_pruned(rb, n, base);
                }
            }
            TraceEvent::Read { loc } => {
                let t = xl.translate(loc)?;
                let _ = cx.read(t);
            }
            TraceEvent::ReadRun { loc } => {
                let len = *run_lens.next().expect("run-length stream underrun");
                if let Some(t) = xl.translate_range(loc, len) {
                    cx.read_range(Loc(t), len);
                } else {
                    // Range crosses an interval boundary or lives in
                    // view space: translate element-wise.
                    for i in 0..len {
                        let t = xl.translate(Loc(loc.0 + i))?;
                        let _ = cx.read(t);
                    }
                }
            }
            TraceEvent::Write { loc } => {
                let value = take_values(&mut write_values, 1)[0];
                let t = xl.translate(loc)?;
                cx.write(t, value);
            }
            TraceEvent::WriteRun { loc } => {
                let len = *run_lens.next().expect("run-length stream underrun");
                let values = take_values(&mut write_values, len as usize);
                if let Some(t) = xl.translate_range(loc, len) {
                    cx.write_range(Loc(t), values);
                } else {
                    for (i, &value) in (0..).zip(values) {
                        let t = xl.translate(Loc(loc.0 + i))?;
                        cx.write(t, value);
                    }
                }
            }
            TraceEvent::NewReducer => {
                let h = cx.new_reducer(sh.monoids[next_reducer].clone());
                debug_assert_eq!(h.index(), next_reducer, "reducer ids must replay in order");
                next_reducer += 1;
            }
            TraceEvent::Update => {
                let &(h, start, len) = updates.next().expect("update stream underrun");
                let ops = &sh.ops[start as usize..(start + len) as usize];
                cx.reducer_update(h, ops);
                cx.pruned_hit()?;
            }
            TraceEvent::GetView => {
                let &(h, result) = get_views.next().expect("get-view stream underrun");
                let got = cx.reducer_get_view(h);
                cx.pruned_hit()?;
                xl.note_get_view(h, result, got)?;
            }
            TraceEvent::SetView => {
                let &(h, loc) = set_views.next().expect("set-view stream underrun");
                let t = xl.translate(loc)?;
                cx.reducer_set_view(h, t);
            }
        }
    }
    *at = Cursors {
        event: stop,
        write_values: trace.write_values.len() - write_values.len(),
        run_lens: trace.run_lens.len() - run_lens.len(),
        allocs: sh.allocs.len() - allocs.len(),
        updates: sh.updates.len() - updates.len(),
        get_views: sh.get_views.len() - get_views.len(),
        set_views: sh.set_views.len() - set_views.len(),
        labels: sh.labels.len() - labels.len(),
        reducers: next_reducer,
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SerialEngine;
    use crate::events::CountingTool;
    use crate::mem::Word;
    use crate::monoid::ViewMem;
    use crate::spec::{BlockOp, BlockScript, StealSpec};

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

    fn specs_under_test() -> Vec<StealSpec> {
        vec![
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::EveryBlock(BlockScript::new(vec![
                BlockOp::Steal(1),
                BlockOp::Steal(3),
                BlockOp::Reduce,
                BlockOp::Steal(5),
            ])),
            StealSpec::Random {
                seed: 11,
                max_block: 8,
                steals_per_block: 2,
            },
            StealSpec::AtSpawnCount(2),
        ]
    }

    /// A mixed program: user memory, spawns, nested blocks, a reducer.
    fn program(cx: &mut Ctx<'_>) {
        let h = cx.new_reducer(add_monoid());
        let buf = cx.alloc(8);
        for i in 1..=8u64 {
            cx.spawn(move |cx| {
                cx.reducer_update(h, &[i as Word]);
                let v = cx.read_idx(buf, (i % 8) as usize);
                cx.write_idx(buf, (i % 8) as usize, v + 1);
            });
        }
        cx.sync();
        let v = cx.reducer_get_view(h);
        let total = cx.read(v);
        cx.write(buf, total);
    }

    #[test]
    fn replay_matches_fresh_execution_event_for_event() {
        let trace = ProgramTrace::record(program);
        for spec in specs_under_test() {
            let mut fresh = CountingTool::default();
            let fresh_stats = SerialEngine::with_spec(spec.clone()).run_tool(&mut fresh, program);
            let mut replayed = CountingTool::default();
            let replay_stats = SerialEngine::with_spec(spec.clone())
                .replay_tool(&mut replayed, &trace)
                .unwrap_or_else(|e| panic!("replay failed under {spec:?}: {e}"));
            assert_eq!(replayed, fresh, "event stream diverged under {spec:?}");
            assert_eq!(replay_stats, fresh_stats, "stats diverged under {spec:?}");
        }
    }

    #[test]
    fn recording_run_stats_match_plain_run() {
        let trace = ProgramTrace::record(program);
        let plain = SerialEngine::new().run(program);
        assert_eq!(*trace.stats(), plain);
        assert!(!trace.is_empty());
        assert!(trace.len() > 10);
    }

    #[test]
    fn replayed_reduces_execute_the_monoid_for_real() {
        // Under a stealing spec the replay must perform genuine reduces;
        // the reducer's merged value is only observable if update/reduce
        // bodies ran against the live arena.
        let trace = ProgramTrace::record(|cx| {
            let h = cx.new_reducer(add_monoid());
            for i in 1..=6u64 {
                cx.spawn(move |cx| cx.reducer_update(h, &[i as Word]));
            }
            cx.sync();
            let v = cx.reducer_get_view(h);
            let _ = cx.read(v);
        });
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 3, 5]));
        let stats = SerialEngine::with_spec(spec).replay(&trace).unwrap();
        assert!(stats.steals > 0);
        assert_eq!(stats.steals, stats.reduce_merges);
    }

    #[test]
    fn user_aliased_view_that_survives_replays_cleanly() {
        // set_value of a user cell with no steal between set and get: the
        // live get returns the same user cell, so replay stays exact.
        let prog = |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(add_monoid());
            let cell = cx.alloc(1);
            cx.write(cell, 40);
            cx.reducer_set_view(h, cell);
            cx.reducer_update(h, &[2]);
            let v = cx.reducer_get_view(h);
            let out = cx.read(v);
            cx.write(cell, out);
        };
        let trace = ProgramTrace::record(prog);
        for spec in specs_under_test() {
            let mut fresh = CountingTool::default();
            SerialEngine::with_spec(spec.clone()).run_tool(&mut fresh, prog);
            let mut replayed = CountingTool::default();
            SerialEngine::with_spec(spec.clone())
                .replay_tool(&mut replayed, &trace)
                .unwrap_or_else(|e| panic!("replay failed under {spec:?}: {e}"));
            assert_eq!(replayed, fresh, "under {spec:?}");
        }
    }

    #[test]
    fn diverging_aliased_get_is_detected_not_mistranslated() {
        // set_value in a spawned child, get_value while the child's view
        // may have been stolen away: under a stealing spec the live get
        // returns a different view than the recorded (user-aliased) one.
        // Replay must refuse rather than guess.
        let prog = |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(add_monoid());
            let cell = cx.alloc(1);
            cx.spawn(move |cx| {
                cx.reducer_set_view(h, cell);
            });
            cx.reducer_update(h, &[1]);
            let v = cx.reducer_get_view(h);
            let _ = cx.read(v);
            cx.sync();
        };
        let trace = ProgramTrace::record(prog);
        // No steals: identical schedule, replay must succeed.
        assert!(SerialEngine::new().replay(&trace).is_ok());
        // Steal the child's continuation: the update after the spawn now
        // lands in a fresh view, diverging from the recorded aliased get.
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
        match SerialEngine::with_spec(spec).replay(&trace) {
            Err(ReplayError::ViewDivergence { reducer, .. }) => {
                assert_eq!(reducer, ReducerId(0));
            }
            other => panic!("expected ViewDivergence, got {other:?}"),
        }
    }

    /// Every hook a tool sees, in order.
    #[derive(Default)]
    struct HookLog(Vec<String>);

    impl crate::Tool for HookLog {
        fn begin_run(&mut self) {
            self.0.push("begin".into());
        }
        fn frame_enter(&mut self, f: crate::FrameId, k: EnterKind) {
            self.0.push(format!("enter {f:?} {k:?}"));
        }
        fn frame_leave(&mut self, f: crate::FrameId, k: EnterKind) {
            self.0.push(format!("leave {f:?} {k:?}"));
        }
        fn sync(&mut self, f: crate::FrameId) {
            self.0.push(format!("sync {f:?}"));
        }
        fn stolen_continuation(&mut self, f: crate::FrameId, v: crate::ViewId) {
            self.0.push(format!("steal {f:?} {v:?}"));
        }
        fn reduce_merge(&mut self, f: crate::FrameId, d: crate::ViewId, s: crate::ViewId) {
            self.0.push(format!("reduce {f:?} {d:?} {s:?}"));
        }
        fn read(&mut self, f: crate::FrameId, s: crate::StrandId, l: Loc, k: crate::AccessKind) {
            self.0.push(format!("read {f:?} {s:?} {l:?} {k:?}"));
        }
        fn write(&mut self, f: crate::FrameId, s: crate::StrandId, l: Loc, k: crate::AccessKind) {
            self.0.push(format!("write {f:?} {s:?} {l:?} {k:?}"));
        }
        fn reducer_read(
            &mut self,
            f: crate::FrameId,
            s: crate::StrandId,
            h: ReducerId,
            k: crate::ReducerReadKind,
        ) {
            self.0.push(format!("rread {f:?} {s:?} {h:?} {k:?}"));
        }
    }

    /// Nested sync blocks of up to three spawns at several spawn counts,
    /// each child updating a reducer and scanning user memory.
    fn nested(cx: &mut Ctx<'_>) {
        fn tree(cx: &mut Ctx<'_>, h: ReducerId, buf: Loc, depth: u32) {
            for i in 0..3u32 {
                cx.spawn(move |cx| {
                    cx.reducer_update(h, &[Word::from(depth * 3 + i)]);
                    let v = cx.read_idx(buf, (depth + i) as usize);
                    cx.write_idx(buf, i as usize, v + 1);
                    if depth > 0 {
                        tree(cx, h, buf, depth - 1);
                    }
                });
            }
            cx.sync();
        }
        let h = cx.new_reducer(add_monoid());
        let buf = cx.alloc(8);
        tree(cx, h, buf, 2);
        let v = cx.reducer_get_view(h);
        let total = cx.read(v);
        cx.write(buf, total);
    }

    fn forkable_specs(max_spawn_count: u32) -> Vec<StealSpec> {
        use BlockOp::{Reduce, Steal};
        let mut specs: Vec<StealSpec> =
            (1..=max_spawn_count).map(StealSpec::AtSpawnCount).collect();
        for ops in [
            vec![Steal(1), Steal(2), Reduce, Steal(3)],
            vec![Steal(1), Steal(2), Steal(3)],
            vec![Steal(1), Reduce, Steal(2), Steal(3)],
            vec![Steal(1), Steal(2)],
            vec![Steal(1), Steal(3)],
            vec![Steal(2), Steal(3)],
            vec![Steal(2), Reduce, Steal(3)],
            vec![Steal(1)],
            vec![Steal(2)],
            vec![Steal(3)],
            vec![Steal(1), Steal(2), Reduce],
        ] {
            specs.push(StealSpec::EveryBlock(BlockScript::new(ops)));
        }
        specs
    }

    /// The hooks of a replay under `spec` up to event `stop`, and the
    /// paused replay.
    fn replay_until(
        trace: &ProgramTrace,
        spec: &StealSpec,
        stop: usize,
    ) -> (HookLog, ReplayCheckpoint) {
        let mut log = HookLog::default();
        let mut ckpt = ReplayCheckpoint::new();
        ckpt.start(spec, &mut log);
        ckpt.advance(&mut log, trace, stop).unwrap();
        (log, ckpt)
    }

    #[test]
    fn hook_streams_agree_up_to_the_fork_event() {
        let trace = ProgramTrace::record(nested);
        let specs = forkable_specs(trace.stats().max_spawn_count);
        let mut forks = 0;
        for a in &specs {
            for b in &specs {
                let Some(at) = trace.fork_event(a, b) else {
                    assert_ne!(
                        std::mem::discriminant(a),
                        std::mem::discriminant(b),
                        "same-family specs {a:?} and {b:?} must fork"
                    );
                    continue;
                };
                let (prefix_a, ckpt_a) = replay_until(&trace, a, at);
                let (prefix_b, _) = replay_until(&trace, b, at);
                assert_eq!(prefix_a.0, prefix_b.0, "{a:?} / {b:?} before event {at}");
                // The fork event is the first that tells them apart.
                if at < trace.len() && a != b {
                    let (next_a, _) = replay_until(&trace, a, at + 1);
                    let (next_b, _) = replay_until(&trace, b, at + 1);
                    assert_ne!(next_a.0, next_b.0, "{a:?} / {b:?} at event {at}");
                }
                // A's checkpoint finished as B is B's replay.
                let mut fresh = HookLog::default();
                let fresh_stats = SerialEngine::with_spec(b.clone())
                    .replay_tool(&mut fresh, &trace)
                    .unwrap();
                let mut forked = prefix_a;
                let mut ckpt = ckpt_a.clone();
                assert!(ckpt.resume_as(&trace, b));
                assert_eq!(ckpt.finish(&mut forked, &trace).unwrap(), fresh_stats);
                assert_eq!(forked.0, fresh.0, "{a:?} forked as {b:?}");
                forks += (at > 0 && at < trace.len()) as usize;
            }
        }
        assert!(forks > 50, "only {forks} spec pairs forked mid-trace");
    }

    #[test]
    fn a_checkpoint_past_the_fork_event_refuses_the_other_spec() {
        let trace = ProgramTrace::record(nested);
        let a = StealSpec::EveryBlock(BlockScript::steals(vec![1, 3]));
        let b = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2]));
        let at = trace.fork_event(&a, &b).unwrap();
        assert_eq!(trace.fork_event(&b, &a), Some(at));
        let (_, mut ckpt) = replay_until(&trace, &a, at + 1);
        assert!(!ckpt.resume_as(&trace, &b));
        assert!(!ckpt.resume_as(&trace, &StealSpec::AtSpawnCount(1)));
        // Refused, it is still A's replay.
        let mut rest = HookLog::default();
        ckpt.finish(&mut rest, &trace).unwrap();
        let (mut whole, _) = replay_until(&trace, &a, at + 1);
        whole.0.extend(rest.0);
        let mut fresh = HookLog::default();
        SerialEngine::with_spec(a)
            .replay_tool(&mut fresh, &trace)
            .unwrap();
        assert_eq!(whole.0, fresh.0);
        let (_, mut ckpt) = replay_until(&trace, &b, at);
        assert!(
            ckpt.resume_as(&trace, &b),
            "a spec always resumes as itself"
        );
    }

    #[test]
    fn fork_events_follow_the_first_act_that_differs() {
        use BlockOp::{Reduce, Steal};
        let script = |ops: Vec<BlockOp>| BlockScript::new(ops);
        let cases = [
            (vec![Steal(1), Steal(2)], vec![Steal(1), Steal(3)], Some(2)),
            (
                vec![Steal(1), Steal(2), Reduce, Steal(3)],
                vec![Steal(1), Steal(2), Steal(3)],
                Some(3),
            ),
            (vec![Steal(2)], vec![Reduce, Steal(2)], Some(2)),
            (vec![Steal(1)], vec![Steal(1), Steal(4)], Some(4)),
            (vec![Steal(1), Reduce], vec![Steal(1)], None),
            (vec![], vec![Steal(5)], Some(5)),
        ];
        for (s, t, want) in cases {
            assert_eq!(
                first_different_act(&script(s.clone()), &script(t.clone())),
                want,
                "{s:?} / {t:?}"
            );
            assert_eq!(first_different_act(&script(t), &script(s)), want);
        }
        let trace = ProgramTrace::record(nested);
        let every = |ops| StealSpec::EveryBlock(script(ops));
        // Scripts that act alike everywhere share the whole trace; the
        // continuation index 9 never occurs in a block of three spawns.
        assert_eq!(
            trace.fork_event(&every(vec![Steal(1), Reduce]), &every(vec![Steal(1)])),
            Some(trace.len())
        );
        assert_eq!(
            trace.fork_event(&every(vec![Steal(9)]), &every(vec![])),
            Some(trace.len())
        );
        assert_eq!(
            trace.fork_event(&StealSpec::AtSpawnCount(2), &StealSpec::AtSpawnCount(2)),
            Some(trace.len())
        );
        assert_eq!(
            trace.fork_event(&StealSpec::AtSpawnCount(0), &StealSpec::AtSpawnCount(99)),
            Some(trace.len())
        );
        let first_two = trace
            .fork_event(&every(vec![Steal(2)]), &every(vec![]))
            .unwrap();
        let first_one = trace
            .fork_event(&every(vec![Steal(1)]), &every(vec![]))
            .unwrap();
        assert!(first_one < first_two && first_two < trace.len());
        assert!(matches!(trace.events[first_two], TraceEvent::FrameLeave));
        for (a, b) in [
            (StealSpec::None, StealSpec::AtSpawnCount(1)),
            (StealSpec::AtSpawnCount(1), every(vec![Steal(1)])),
            (StealSpec::None, StealSpec::None),
        ] {
            assert_eq!(trace.fork_event(&a, &b), None, "{a:?} / {b:?}");
        }
    }

    /// The Figure-1 `Touchy` pattern: only view-oblivious code touches
    /// `cell` in the no-steal run, but every reduce writes it.
    fn touchy(cx: &mut Ctx<'_>) {
        struct Touchy {
            cell: Loc,
        }
        impl ViewMonoid for Touchy {
            fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
                m.alloc(1)
            }
            fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
                let r = m.read(right);
                let l = m.read(left);
                m.write(left, l + r);
                m.write(self.cell, 1);
            }
            fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
                let v = m.read(view);
                m.write(view, v + op[0]);
            }
        }
        let cell = cx.alloc(1);
        let h = cx.new_reducer(Arc::new(Touchy { cell }));
        cx.spawn(move |cx| cx.write(cell, 7));
        cx.spawn(move |cx| cx.reducer_update(h, &[1]));
        cx.reducer_update(h, &[2]);
        cx.sync();
    }

    #[test]
    fn pruned_trace_refuses_a_view_aware_access_to_a_dropped_allocation() {
        let trace = ProgramTrace::record(touchy);
        let pruned = trace
            .pruned(&BTreeSet::new())
            .expect("the cell write is droppable");
        assert_eq!(pruned.dropped(), 1);
        assert_eq!(pruned.len(), trace.len() - 1);
        // No steal, no reduce: the pruned replay runs through.
        let stats = SerialEngine::new().replay(&pruned).unwrap();
        assert_eq!(stats.writes, trace.stats().writes - 1);
        // Stealing the second continuation makes the sync's reduce write
        // the cell the copy dropped the write of; the trace as recorded
        // still replays.
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![2]));
        match SerialEngine::with_spec(spec.clone()).replay(&pruned) {
            Err(e @ ReplayError::PrunedAllocation { alloc, len, .. }) => {
                assert_eq!((alloc, len), (Loc(0), 1));
                assert!(e.to_string().contains("Loc(0)"), "{e}");
            }
            other => panic!("expected PrunedAllocation, got {other:?}"),
        }
        assert!(SerialEngine::with_spec(spec).replay(&trace).is_ok());
        // A racy cell keeps its accesses: nothing is left to drop.
        assert!(trace.pruned(&BTreeSet::from([Loc(0)])).is_none());
    }

    #[test]
    fn pruning_keeps_view_aware_allocations_and_forks_alike() {
        // `program`'s buffer is only ever touched by view-oblivious code;
        // `touched` is a user cell a set_view hands to the monoid.
        let prog = |cx: &mut Ctx<'_>| {
            nested(cx);
            let h = cx.new_reducer(add_monoid());
            let touched = cx.alloc(1);
            cx.write(touched, 3);
            cx.reducer_set_view(h, touched);
            cx.reducer_update(h, &[1]);
        };
        let trace = ProgramTrace::record(prog);
        let pruned = trace.pruned(&BTreeSet::new()).unwrap();
        assert!(pruned.dropped() > 0);
        let mut log = HookLog::default();
        SerialEngine::new().replay_tool(&mut log, &pruned).unwrap();
        assert!(
            log.0
                .iter()
                .any(|h| h.starts_with("write") && h.contains("Oblivious")),
            "the write to the view-aware cell was dropped"
        );
        // Fork events move with the events before them; forks of the
        // pruned trace finish as its from-scratch replays do.
        let specs = forkable_specs(trace.stats().max_spawn_count);
        for pair in specs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let Some(at) = pruned.fork_event(a, b) else {
                continue;
            };
            assert!(at == pruned.len() || matches!(pruned.events[at], TraceEvent::FrameLeave));
            let (mut forked, ckpt) = replay_until(&pruned, a, at);
            let mut ckpt = ckpt.clone();
            assert!(ckpt.resume_as(&pruned, b));
            ckpt.finish(&mut forked, &pruned).unwrap();
            let mut fresh = HookLog::default();
            SerialEngine::with_spec(b.clone())
                .replay_tool(&mut fresh, &pruned)
                .unwrap();
            assert_eq!(forked.0, fresh.0, "{a:?} forked as {b:?}");
        }
    }

    #[test]
    fn replay_error_display_is_informative() {
        let e = ReplayError::UntranslatableLoc { loc: Loc(42) };
        assert!(e.to_string().contains("42"));
        let e = ReplayError::ViewDivergence {
            reducer: ReducerId(1),
            recorded: Loc(2),
            expected: Loc(3),
            got: Loc(4),
        };
        let s = e.to_string();
        assert!(s.contains("re-execute"));
    }
}
