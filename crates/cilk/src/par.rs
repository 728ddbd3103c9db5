//! A work-stealing parallel runtime with Cilk-reducer semantics.
//!
//! The paper's substrate is the Cilk Plus runtime: a randomized
//! work-stealing scheduler whose reducer support creates a fresh view per
//! steal and opportunistically reduces adjacent views. Continuation
//! stealing cannot be expressed directly in safe Rust (there are no
//! first-class continuations), so — per the standard recipe for emulating
//! Cilk reducers atop a child-stealing pool such as rayon — this runtime
//! uses *child stealing* with **ordered view slots**:
//!
//! * every `spawn` splits the current view slot into a child slot followed
//!   by a continuation slot, preserving serial order in a slot tree;
//! * updates go to the executing strand's slot (views materialized lazily,
//!   exactly like steal-triggered views in Cilk — a slot whose subtree is
//!   executed by the same worker back-to-back never materializes an extra
//!   view unless it was updated);
//! * every `sync` waits for the frame's spawned children, then folds the
//!   block's slot tree **left to right** into the block-start slot.
//!
//! The observable contract is the same as Cilk's: with associative (not
//! necessarily commutative) monoids and race-free code, the reducer's
//! post-sync value equals the serial execution's, on any number of
//! threads. Racy code (unsynchronized shared-cell writes, pre-sync view
//! reads) really is nondeterministic here — the examples use this runtime
//! to *exhibit* the bugs the detectors catch. Shared cells are atomics
//! (relaxed), so simulated races yield arbitrary interleavings, not UB.
//!
//! The scheduler is built entirely on `std` and in-tree primitives (see
//! the hermetic-build policy in DESIGN.md): per-worker [`MutexDeque`]s
//! (owner LIFO / thief FIFO, with a lock-free emptiness check — see
//! [`crate::deque`]) replace `crossbeam_deque`, and
//! `std::sync::{Mutex, RwLock, Condvar}` replace `parking_lot`. Idle
//! workers park on a [`Condvar`] with a short timeout instead of
//! spinning, and every `spawn` wakes one sleeper.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::Duration;

use crate::deque::MutexDeque;
use crate::events::ReducerId;
use crate::mem::{Loc, Word};
use crate::monoid::{MemBackend, ViewMem, ViewMonoid};

/// Shared atomic arena for parallel execution.
///
/// Fixed capacity, bump-allocated; every cell is an `AtomicI64` accessed
/// with relaxed ordering, so data races in simulated programs produce
/// nondeterministic values rather than undefined behavior.
pub struct ParArena {
    cells: Vec<AtomicI64>,
    next: AtomicUsize,
}

impl ParArena {
    fn new(capacity: usize) -> Self {
        let mut cells = Vec::with_capacity(capacity);
        cells.resize_with(capacity, || AtomicI64::new(0));
        ParArena {
            cells,
            next: AtomicUsize::new(0),
        }
    }

    fn alloc(&self, n: usize) -> Loc {
        let base = self.next.fetch_add(n, Ordering::Relaxed);
        assert!(
            base + n <= self.cells.len(),
            "ParArena capacity exhausted ({} words); raise ParRuntime::arena_capacity",
            self.cells.len()
        );
        Loc(base as u32)
    }

    #[inline]
    fn get(&self, loc: Loc) -> Word {
        self.cells[loc.index()].load(Ordering::Relaxed)
    }

    #[inline]
    fn set(&self, loc: Loc, v: Word) {
        self.cells[loc.index()].store(v, Ordering::Relaxed)
    }
}

/// A view slot: one position in the serial order of reducer updates.
struct Slot {
    /// Lazily materialized views, one per reducer that was updated here.
    views: Mutex<Vec<(ReducerId, Loc)>>,
    /// Sub-slots in serial order (child slot, then continuation slot),
    /// installed by the spawn that split this slot.
    children: Mutex<Vec<Arc<Slot>>>,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            views: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
        })
    }
}

/// Lock a mutex, surviving poisoning (a panicking simulated program must
/// not wedge the whole pool).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A frame: tracks outstanding spawned children and the sync-block slot.
struct FrameNode {
    /// Spawned children that have not yet returned.
    pending: AtomicUsize,
}

struct Job {
    frame: Arc<FrameNode>, // parent frame, to decrement on completion
    slot: Arc<Slot>,
    f: Box<dyn FnOnce(&mut ParCtx<'_>) + Send>,
}

/// Condvar-based sleep/wake for workers that find no runnable job.
struct Parker {
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Self {
        Parker {
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Sleep briefly; woken early by [`Parker::unpark_one`] /
    /// [`Parker::unpark_all`]. The timeout bounds the cost of a missed
    /// wakeup (push raced with the sleep decision) without a seqlock.
    fn park(&self) {
        let guard = lock(&self.lock);
        let _ = self
            .cv
            .wait_timeout(guard, Duration::from_micros(100))
            .unwrap_or_else(PoisonError::into_inner);
    }

    fn unpark_one(&self) {
        self.cv.notify_one();
    }

    fn unpark_all(&self) {
        self.cv.notify_all();
    }
}

struct RtShared {
    arena: ParArena,
    /// One deque per worker; worker `i` owns `queues[i]`, everyone else
    /// steals from its front.
    queues: Vec<MutexDeque<Job>>,
    monoids: RwLock<Vec<Arc<dyn ViewMonoid>>>,
    parker: Parker,
    shutdown: AtomicBool,
    steals: AtomicUsize,
    tasks: AtomicUsize,
    /// Payloads of jobs that panicked, awaiting re-raise at a `sync`.
    /// A panicking job used to leave its parent's `pending` count stuck
    /// above zero, hanging the spawner's `sync()` forever; now the
    /// payload is parked here and the count still drops (see
    /// [`run_job`]), so joins complete and the panic surfaces on the
    /// caller instead.
    panics: Mutex<Vec<Box<dyn Any + Send>>>,
    /// Fast-path flag: true while `panics` may be nonempty, so the sync
    /// spin loop checks one atomic, not a mutex, per iteration.
    panicked: AtomicBool,
}

/// Take one parked panic payload, if any (cheap when none).
fn take_panic(rt: &RtShared) -> Option<Box<dyn Any + Send>> {
    if !rt.panicked.load(Ordering::Acquire) {
        return None;
    }
    let mut panics = lock(&rt.panics);
    let payload = panics.pop();
    if panics.is_empty() {
        rt.panicked.store(false, Ordering::Release);
    }
    payload
}

/// Park a panic payload for the next `sync` to re-raise.
fn store_panic(rt: &RtShared, payload: Box<dyn Any + Send>) {
    lock(&rt.panics).push(payload);
    rt.panicked.store(true, Ordering::Release);
    rt.parker.unpark_all();
}

impl RtShared {
    fn monoid(&self, h: ReducerId) -> Arc<dyn ViewMonoid> {
        self.monoids.read().unwrap_or_else(PoisonError::into_inner)[h.index()].clone()
    }
}

/// Memory backend over the shared atomic arena.
struct ParMem<'a> {
    rt: &'a RtShared,
}

impl MemBackend for ParMem<'_> {
    fn read(&mut self, loc: Loc) -> Word {
        self.rt.arena.get(loc)
    }
    fn write(&mut self, loc: Loc, v: Word) {
        self.rt.arena.set(loc, v)
    }
    fn alloc(&mut self, n: usize) -> Loc {
        self.rt.arena.alloc(n)
    }
}

/// Parallel execution context. The API mirrors the serial [`Ctx`]
/// (`spawn`/`sync`/`par_for`/memory/reducers) minus instrumentation.
///
/// [`Ctx`]: crate::engine::Ctx
pub struct ParCtx<'rt> {
    rt: &'rt RtShared,
    worker_index: usize,
    frame: Arc<FrameNode>,
    /// Slot new updates land in.
    slot: Arc<Slot>,
    /// Slot at the start of the current sync block (fold target).
    block_slot: Arc<Slot>,
}

impl<'rt> ParCtx<'rt> {
    /// Allocate `n` zero-initialized words of shared memory.
    pub fn alloc(&self, n: usize) -> Loc {
        self.rt.arena.alloc(n)
    }

    /// Read shared cell `loc` (relaxed atomic).
    pub fn read(&self, loc: Loc) -> Word {
        self.rt.arena.get(loc)
    }

    /// Write shared cell `loc` (relaxed atomic).
    pub fn write(&self, loc: Loc, v: Word) {
        self.rt.arena.set(loc, v)
    }

    /// Read `base + i`.
    pub fn read_idx(&self, base: Loc, i: usize) -> Word {
        self.read(base.at(i))
    }

    /// Write `base + i`.
    pub fn write_idx(&self, base: Loc, i: usize, v: Word) {
        self.write(base.at(i), v)
    }

    /// Index of the worker thread executing this strand.
    pub fn worker_index(&self) -> usize {
        self.worker_index
    }

    /// Register a reducer.
    pub fn new_reducer(&self, monoid: Arc<dyn ViewMonoid>) -> ReducerId {
        let mut m = self
            .rt
            .monoids
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let h = ReducerId(m.len() as u32);
        m.push(monoid);
        h
    }

    /// Apply one update to reducer `h`'s view in the current slot.
    pub fn reducer_update(&mut self, h: ReducerId, op: &[Word]) {
        let monoid = self.rt.monoid(h);
        let view = {
            let mut views = lock(&self.slot.views);
            match views.iter().find(|(r, _)| *r == h) {
                Some(&(_, loc)) => loc,
                None => {
                    let mut mem = ParMem { rt: self.rt };
                    let loc = monoid.create_identity(&mut ViewMem::new(&mut mem));
                    views.push((h, loc));
                    loc
                }
            }
        };
        let mut mem = ParMem { rt: self.rt };
        monoid.update(&mut ViewMem::new(&mut mem), view, op);
    }

    /// `get_value`: the view visible to the current strand. Reading it
    /// before a sync is exactly the view-read race the Peer-Set algorithm
    /// detects — the value depends on scheduling.
    pub fn reducer_get_view(&mut self, h: ReducerId) -> Loc {
        let monoid = self.rt.monoid(h);
        let mut views = lock(&self.slot.views);
        match views.iter().find(|(r, _)| *r == h) {
            Some(&(_, loc)) => loc,
            None => {
                let mut mem = ParMem { rt: self.rt };
                let loc = monoid.create_identity(&mut ViewMem::new(&mut mem));
                views.push((h, loc));
                loc
            }
        }
    }

    /// `set_value`: make `loc` the current slot's view of `h`.
    pub fn reducer_set_view(&mut self, h: ReducerId, loc: Loc) {
        let mut views = lock(&self.slot.views);
        views.retain(|(r, _)| *r != h);
        views.push((h, loc));
    }

    /// Spawn `f` as a child that may execute on another worker.
    pub fn spawn(&mut self, f: impl FnOnce(&mut ParCtx<'_>) + Send + 'static) {
        // Split the current slot: child slot before continuation slot.
        let child_slot = Slot::new();
        let cont_slot = Slot::new();
        {
            let mut ch = lock(&self.slot.children);
            ch.push(child_slot.clone());
            ch.push(cont_slot.clone());
        }
        self.slot = cont_slot;
        self.frame.pending.fetch_add(1, Ordering::AcqRel);
        self.rt.tasks.fetch_add(1, Ordering::Relaxed);
        self.rt.queues[self.worker_index].push(Job {
            frame: self.frame.clone(),
            slot: child_slot,
            f: Box::new(f),
        });
        self.rt.parker.unpark_one();
    }

    /// Wait for all spawned children of this frame; fold the block's view
    /// slots in serial order.
    ///
    /// If any job panicked, the join still completes (panicked jobs
    /// decrement their parent's pending count like normal ones) and the
    /// panic payload is re-raised here, on the syncing caller — the
    /// whole run is doomed, so the nearest join propagates it rather
    /// than spinning forever on a count that will never reach zero.
    pub fn sync(&mut self) {
        loop {
            if let Some(payload) = take_panic(self.rt) {
                resume_unwind(payload);
            }
            if self.frame.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            if let Some(job) = find_job(self.rt, self.worker_index) {
                run_job(self.rt, self.worker_index, job);
            } else {
                std::thread::yield_now();
            }
        }
        // A child's payload is stored before its final decrement, so
        // after observing pending == 0 (Acquire) one more check is
        // guaranteed to see any panic from this frame's children.
        if let Some(payload) = take_panic(self.rt) {
            resume_unwind(payload);
        }
        fold_slot(self.rt, &self.block_slot);
        self.slot = self.block_slot.clone();
    }

    /// Parallel loop, lowered to divide-and-conquer spawns.
    ///
    /// `body` must be cloneable state shared across workers (typically a
    /// capture of `Loc`s and `ReducerId`s, which are `Copy`).
    pub fn par_for<F>(&mut self, range: Range<u64>, grain: u64, body: F)
    where
        F: Fn(&mut ParCtx<'_>, u64) + Send + Sync + Clone + 'static,
    {
        let grain = grain.max(1);
        par_for_rec(self, range, grain, body);
        self.sync();
    }
}

fn par_for_rec<F>(cx: &mut ParCtx<'_>, range: Range<u64>, grain: u64, body: F)
where
    F: Fn(&mut ParCtx<'_>, u64) + Send + Sync + Clone + 'static,
{
    if range.end - range.start <= grain {
        for i in range {
            body(cx, i);
        }
        return;
    }
    let mid = range.start + (range.end - range.start) / 2;
    let left = range.start..mid;
    let right = mid..range.end;
    let body2 = body.clone();
    cx.spawn(move |cx| {
        par_for_rec(cx, left, grain, body2);
        cx.sync();
    });
    par_for_rec(cx, right, grain, body);
}

/// Fold `slot`'s subtree into `slot.views`, left to right (serial order),
/// then clear its children. Caller must ensure the subtree is quiescent.
fn fold_slot(rt: &RtShared, slot: &Arc<Slot>) {
    let children: Vec<Arc<Slot>> = std::mem::take(&mut *lock(&slot.children));
    for child in children {
        fold_slot(rt, &child);
        let child_views: Vec<(ReducerId, Loc)> = std::mem::take(&mut *lock(&child.views));
        for (h, right) in child_views {
            let monoid = rt.monoid(h);
            let mut views = lock(&slot.views);
            match views.iter().find(|(r, _)| *r == h) {
                Some(&(_, left)) => {
                    drop(views);
                    let mut mem = ParMem { rt };
                    monoid.reduce(&mut ViewMem::new(&mut mem), left, right);
                }
                None => {
                    views.push((h, right));
                }
            }
        }
    }
}

fn find_job(rt: &RtShared, worker_index: usize) -> Option<Job> {
    if let Some(job) = rt.queues[worker_index].pop() {
        return Some(job);
    }
    // Steal from siblings, round-robin starting after self, so thieves
    // spread across victims.
    let n = rt.queues.len();
    for off in 1..n {
        if let Some(job) = rt.queues[(worker_index + off) % n].steal() {
            rt.steals.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
    }
    None
}

fn run_job(rt: &RtShared, worker_index: usize, job: Job) {
    let parent = job.frame;
    let slot = job.slot;
    let f = job.f;
    let result = catch_unwind(AssertUnwindSafe(move || {
        let child_frame = Arc::new(FrameNode {
            pending: AtomicUsize::new(0),
        });
        let mut cx = ParCtx {
            rt,
            worker_index,
            frame: child_frame,
            block_slot: slot.clone(),
            slot,
        };
        f(&mut cx);
        cx.sync(); // implicit sync before a Cilk function returns
    }));
    // Park the payload *before* the decrement, so a parent that
    // observes pending == 0 is guaranteed to see it; then decrement
    // unconditionally — a panicking job must still count as joined or
    // the spawner's `sync` spins forever.
    if let Err(payload) = result {
        store_panic(rt, payload);
    }
    parent.pending.fetch_sub(1, Ordering::AcqRel);
}

/// Statistics from a parallel run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Successful steals (jobs taken from another worker's queue).
    pub steals: usize,
    /// Total spawned tasks.
    pub tasks: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Words of shared memory allocated.
    pub arena_words: usize,
}

/// The work-stealing thread pool.
///
/// ```
/// use rader_cilk::par::ParRuntime;
///
/// let rt = ParRuntime::new(4);
/// let (_stats, total) = rt.run(move |cx| {
///     let cell = cx.alloc(1);
///     cx.write(cell, 20);
///     cx.spawn(move |cx| {
///         let v = cx.read(cell);
///         cx.write(cell, v + 22);
///     });
///     cx.sync();
///     cx.read(cell)
/// });
/// assert_eq!(total, 42);
/// ```
pub struct ParRuntime {
    workers: usize,
    arena_capacity: usize,
}

impl ParRuntime {
    /// Pool with `workers` threads (minimum 1) and the default arena
    /// capacity (2^22 words = 32 MiB).
    pub fn new(workers: usize) -> Self {
        ParRuntime {
            workers: workers.max(1),
            arena_capacity: 1 << 22,
        }
    }

    /// Override the shared-arena capacity (in words).
    pub fn with_arena_capacity(mut self, words: usize) -> Self {
        self.arena_capacity = words;
        self
    }

    /// Run `program` to completion on the pool; returns run statistics and
    /// the program's result. The calling thread acts as worker 0.
    pub fn run<R: Send>(
        &self,
        program: impl FnOnce(&mut ParCtx<'_>) -> R + Send,
    ) -> (PoolStats, R) {
        let rt = RtShared {
            arena: ParArena::new(self.arena_capacity),
            queues: (0..self.workers).map(|_| MutexDeque::new()).collect(),
            monoids: RwLock::new(Vec::new()),
            parker: Parker::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicUsize::new(0),
            tasks: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
            panicked: AtomicBool::new(false),
        };
        let nworkers = self.workers;

        let outcome = std::thread::scope(|scope| {
            // Helper workers: steal and run jobs until shutdown.
            for i in 1..nworkers {
                let rt = &rt;
                scope.spawn(move || {
                    while !rt.shutdown.load(Ordering::Acquire) {
                        if let Some(job) = find_job(rt, i) {
                            run_job(rt, i, job);
                        } else {
                            rt.parker.park();
                        }
                    }
                });
            }
            // Worker 0 runs the root frame. Catch its unwind — whether
            // from the program itself or a worker panic re-raised at the
            // root sync — so shutdown is signalled on every path; an
            // unwind that escaped this closure before setting `shutdown`
            // would leave the helper threads looping and deadlock the
            // scope's implicit join.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let root_frame = Arc::new(FrameNode {
                    pending: AtomicUsize::new(0),
                });
                let root_slot = Slot::new();
                let mut cx = ParCtx {
                    rt: &rt,
                    worker_index: 0,
                    frame: root_frame,
                    block_slot: root_slot.clone(),
                    slot: root_slot,
                };
                let r = program(&mut cx);
                cx.sync();
                r
            }));
            rt.shutdown.store(true, Ordering::Release);
            rt.parker.unpark_all();
            outcome
        });
        // Helpers are joined; re-raise on the caller. Queued-but-unrun
        // jobs are dropped with `rt`, so shutdown stays leak-exact.
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        };
        if let Some(payload) = take_panic(&rt) {
            resume_unwind(payload);
        }

        let stats = PoolStats {
            steals: rt.steals.load(Ordering::Relaxed),
            tasks: rt.tasks.load(Ordering::Relaxed),
            workers: nworkers,
            arena_words: rt.arena.next.load(Ordering::Relaxed),
        };
        (stats, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{HashConcat, SynthAdd};

    #[test]
    fn parallel_sum_matches_serial() {
        let rt = ParRuntime::new(4);
        let (_stats, total) = rt.run(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.par_for(1..101u64, 4, move |cx, i| {
                cx.reducer_update(h, &[i as Word]);
            });
            let v = cx.reducer_get_view(h);
            cx.read(v)
        });
        assert_eq!(total, 5050);
    }

    #[test]
    fn non_commutative_fold_is_serial_order_on_many_threads() {
        let ops: Vec<Word> = (1..=64).collect();
        let expect = HashConcat::reference(&ops);
        for workers in [1, 2, 4, 8] {
            for trial in 0..5 {
                let ops = ops.clone();
                let rt = ParRuntime::new(workers);
                let (_s, got) = rt.run(move |cx| {
                    let h = cx.new_reducer(Arc::new(HashConcat));
                    for &x in &ops {
                        cx.spawn(move |cx| cx.reducer_update(h, &[x]));
                    }
                    cx.sync();
                    let v = cx.reducer_get_view(h);
                    cx.read(v.at(1))
                });
                assert_eq!(got, expect, "workers={workers} trial={trial}");
            }
        }
    }

    #[test]
    fn nested_spawns_join_correctly() {
        let rt = ParRuntime::new(4);
        let (_s, v) = rt.run(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            for _ in 0..4 {
                cx.spawn(move |cx| {
                    for _ in 0..4 {
                        cx.spawn(move |cx| cx.reducer_update(h, &[1]));
                    }
                    cx.sync();
                    cx.reducer_update(h, &[10]);
                });
            }
            cx.sync();
            let v = cx.reducer_get_view(h);
            cx.read(v)
        });
        assert_eq!(v, 4 * 4 + 4 * 10);
    }

    #[test]
    fn work_actually_distributes() {
        // With enough tasks, some steals should happen on multi-worker
        // pools (statistically certain with 512 tasks and busy-wait
        // helpers; not a strict guarantee, so retry a few times).
        let mut stole = false;
        for _ in 0..10 {
            let rt = ParRuntime::new(4);
            let (stats, _) = rt.run(|cx| {
                let h = cx.new_reducer(Arc::new(SynthAdd));
                cx.par_for(0..512, 1, move |cx, _| {
                    // Enough work per task that helpers can wake up and
                    // steal even in release builds.
                    let mut acc = 0u64;
                    for i in 0..50_000 {
                        acc = acc.wrapping_mul(31).wrapping_add(i);
                    }
                    cx.reducer_update(h, &[(acc % 3) as Word]);
                });
            });
            if stats.steals > 0 {
                stole = true;
                break;
            }
        }
        assert!(stole, "no steals observed across 10 runs of 512 tasks");
    }

    #[test]
    fn racy_counter_demonstrates_lost_updates_or_not() {
        // Unsynchronized read-modify-write of a shared cell: the result is
        // nondeterministic. We only assert it never *exceeds* the correct
        // count and that the runtime doesn't crash.
        let rt = ParRuntime::new(4);
        let (_s, v) = rt.run(|cx| {
            let cell = cx.alloc(1);
            cx.par_for(0..256, 1, move |cx, _| {
                let v = cx.read(cell);
                cx.write(cell, v + 1);
            });
            cx.read(cell)
        });
        assert!(v <= 256);
        assert!(v > 0);
    }

    #[test]
    fn set_view_then_updates_land_in_it() {
        let rt = ParRuntime::new(2);
        let (_s, v) = rt.run(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            let cell = cx.alloc(1);
            cx.write(cell, 100);
            cx.reducer_set_view(h, cell);
            cx.reducer_update(h, &[5]);
            cx.sync();
            let v = cx.reducer_get_view(h);
            cx.read(v)
        });
        assert_eq!(v, 105);
    }
}
