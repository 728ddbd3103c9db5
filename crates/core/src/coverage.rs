//! Section-7 coverage: steal-specification families that elicit every
//! possible view-aware strand of an ostensibly deterministic program.
//!
//! A single SP+ run checks one schedule. The paper shows that for an
//! *ostensibly deterministic* program (view-oblivious instructions fixed
//! across schedules; semantically associative reduces):
//!
//! * **Theorem 6** — Θ(M) specifications elicit all possible *update*
//!   strands, where `M ≤ KD` is the maximum number of unsynced
//!   continuations along any path: steal every continuation at spawn
//!   count `j`, for each `j` (a breadth-first sweep of P-depths).
//! * **Theorem 7** — Ω(K³) reduce trees are needed, and `(K choose 3)`
//!   specifications suffice, to elicit all possible *reduce* operations
//!   on a size-K sync block: the spec
//!   `[Steal(a), Steal(b), Reduce, Steal(c)]` elicits the reduce that
//!   combines the views spanning continuations `[a, b)` and `[b, c)` —
//!   the `(a, b, c)` operation.
//!
//! [`exhaustive_check`] runs SP+ under both families plus the no-steal
//! base case and merges the reports, giving the paper's coverage
//! guarantee for races involving at least one view-oblivious strand.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rader_cilk::{
    BlockOp, BlockScript, Ctx, Loc, ProgramTrace, ReplayCheckpoint, ReplayError, RunStats,
    SerialEngine, StealSpec, ViewMem, ViewMonoid, Word,
};

use crate::fault::FaultPlan;
use crate::journal::{self, CheckpointPolicy, ChunkRecord, JournalWriter, SpecOutcome};
use crate::report::{RaceReport, ReportMerger};
use crate::spplus::SpPlus;

/// Theorem 6 family: one spec per spawn count `1..=max_spawn_count`.
pub fn update_coverage_specs(max_spawn_count: u32) -> Vec<StealSpec> {
    (1..=max_spawn_count).map(StealSpec::AtSpawnCount).collect()
}

/// Theorem 7 family: one spec per boundary triple `a < b < c ≤ k`,
/// each eliciting the `(a, b, c)` reduce operation in every sync block.
pub fn reduce_coverage_specs(k: u32) -> Vec<StealSpec> {
    let mut specs = Vec::new();
    for a in 1..=k {
        for b in (a + 1)..=k {
            for c in (b + 1)..=k {
                specs.push(StealSpec::EveryBlock(BlockScript::new(vec![
                    BlockOp::Steal(a),
                    BlockOp::Steal(b),
                    BlockOp::Reduce,
                    BlockOp::Steal(c),
                ])));
            }
        }
    }
    // Pairs (two views merged at the sync) and singletons are also
    // distinct reduce ops; include them so small blocks get coverage.
    for a in 1..=k {
        for b in (a + 1)..=k {
            specs.push(StealSpec::EveryBlock(BlockScript::steals(vec![a, b])));
        }
        specs.push(StealSpec::EveryBlock(BlockScript::steals(vec![a])));
    }
    specs
}

/// Chunk length for the cheap spec families (`None` / `AtSpawnCount`).
pub const UPDATE_CHUNK: usize = 16;

/// Split `specs[first..]` into claimable chunks, sized by spec family.
///
/// An `AtSpawnCount` replay is microseconds, so at high thread counts the
/// shared claim counter becomes the hot cache line if every spec is
/// claimed individually; a cubic `EveryBlock` triple re-runs the whole
/// reduce machinery, so batching those only *hurts* balance. Cheap specs
/// (`None` and the Theorem-6 update family) are therefore claimed
/// [`UPDATE_CHUNK`] at a time, and every other spec is its own chunk.
///
/// Chunks are contiguous, ordered, and cover every index exactly once,
/// so the sweep's result set — and its claim count, `chunks.len()` — is a
/// pure function of the spec list, independent of thread count.
fn plan_chunks(specs: &[StealSpec], first: usize) -> Vec<(usize, usize)> {
    let cheap = |s: &StealSpec| matches!(s, StealSpec::None | StealSpec::AtSpawnCount(_));
    let mut chunks = Vec::new();
    let mut i = first;
    while i < specs.len() {
        let mut len = 1;
        if cheap(&specs[i]) {
            while len < UPDATE_CHUNK && i + len < specs.len() && cheap(&specs[i + len]) {
                len += 1;
            }
        }
        chunks.push((i, i + len));
        i += len;
    }
    chunks
}

/// Fault-tolerance controls for [`exhaustive_check_parallel_ctl`] —
/// everything about a sweep that is *not* part of its coverage plan.
/// Kept separate from [`CoverageOptions`] (which stays `Copy` and fully
/// determines the spec list) so the checkpoint fingerprint can bind to
/// the plan while the controls vary freely across a record/resume pair.
#[derive(Clone, Debug, Default)]
pub struct SweepControl {
    /// Stream completed chunks to a journal, or resume from one.
    pub checkpoint: CheckpointPolicy,
    /// Stop claiming new chunks once this much wall-clock time has
    /// elapsed; the report comes back with `partial: true` and the
    /// uncovered spec families enumerated. Claims are reordered by
    /// marginal coverage — update family first, then reduce triples,
    /// then pairs/singletons — so the time that *is* spent buys the
    /// broadest families.
    pub budget: Option<Duration>,
    /// Deterministically inject panics at spec boundaries (testing the
    /// quarantine and journaling machinery).
    pub faults: FaultPlan,
    /// Name mixed into the checkpoint fingerprint (the suite passes the
    /// workload name) so one workload's journal can never resume
    /// another's sweep.
    pub label: String,
}

/// A specification whose SP+ run panicked. The sweep survives — the
/// worker catches the unwind, the spec is excluded from the merged
/// report, and the poisoned spec is surfaced here with its payload and a
/// ddmin-minimized reproducer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quarantined {
    /// Index of the spec in the sweep's plan.
    pub spec_index: usize,
    /// The specification whose run panicked.
    pub spec: StealSpec,
    /// Stringified panic payload.
    pub payload: String,
    /// Smallest `EveryBlock` script that still panics (the spec itself
    /// for other kinds, or when the panic was injected by index and so
    /// does not depend on the script at all).
    pub minimized: StealSpec,
}

/// Human-readable coverage family of a spec, for `uncovered` summaries.
fn family_name(spec: &StealSpec) -> &'static str {
    match spec {
        StealSpec::None => "no-steal base",
        StealSpec::AtSpawnCount(_) => "AtSpawnCount updates (Theorem 6)",
        StealSpec::Random { .. } => "Random",
        StealSpec::EveryBlock(s) => match s.steal_count() {
            3.. => "EveryBlock reduce triples (Theorem 7)",
            2 => "EveryBlock pairs",
            _ => "EveryBlock singletons",
        },
    }
}

/// The order in which chunks are claimed. Without a budget this is the
/// plan order. Under a budget, chunks are stably reordered by marginal
/// coverage per unit cost: the Θ(M) `AtSpawnCount` update family first
/// (each spec covers a whole P-depth of update strands and replays in
/// microseconds), then the Θ(K³) `EveryBlock` reduce triples (kept in
/// generation order, which groups them by leading block boundary), then
/// the pairs and singletons. A deadline that lands mid-sweep therefore
/// truncates the *narrowest* families, and the `uncovered` summary says
/// exactly which.
fn claim_order(specs: &[StealSpec], chunks: &[(usize, usize)], prioritize: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    if prioritize {
        let class = |&c: &usize| -> u8 {
            match &specs[chunks[c].0] {
                StealSpec::None | StealSpec::AtSpawnCount(_) => 0,
                StealSpec::EveryBlock(s) if s.steal_count() >= 3 => 1,
                _ => 2,
            }
        };
        order.sort_by_key(class); // stable: generation order within class
    }
    order
}

/// Options for [`exhaustive_check`].
#[derive(Clone, Copy, Debug)]
pub struct CoverageOptions {
    /// Cap on the sync-block size swept by the reduce family (the cubic
    /// family gets large quickly; `None` uses the measured K).
    pub max_k: Option<u32>,
    /// Cap on the spawn count swept by the update family.
    pub max_spawn_count: Option<u32>,
    /// Record the program once and replay its trace under every
    /// specification instead of re-executing the user closures per run
    /// (sound for ostensibly deterministic programs; specs whose replay
    /// diverges — e.g. a schedule-dependent aliased `get_view` — fall
    /// back to honest re-execution automatically). `false` forces
    /// re-execution for every run.
    pub replay: bool,
}

impl Default for CoverageOptions {
    fn default() -> Self {
        CoverageOptions {
            max_k: None,
            max_spawn_count: None,
            replay: true,
        }
    }
}

/// Build the Section-7 specification list (no-steal base case plus the
/// Theorem-6/7 families) from a run's measured statistics,
/// applying the option caps. Returns `(specs, k, m)`.
fn plan_specs(stats: &RunStats, opts: &CoverageOptions) -> (Vec<StealSpec>, u32, u32) {
    let k = opts
        .max_k
        .unwrap_or(stats.max_sync_block)
        .min(stats.max_sync_block);
    let m = opts
        .max_spawn_count
        .unwrap_or(stats.max_spawn_count)
        .min(stats.max_spawn_count);
    let mut specs = vec![StealSpec::None];
    specs.extend(update_coverage_specs(m));
    specs.extend(reduce_coverage_specs(k));
    (specs, k, m)
}

/// A sweep worker's pooled detector state: the running replay in one
/// slot and, in the other, a copy of it taken at the event where the next
/// spec's schedule forks from the running one's (DESIGN.md §5g). The
/// engine's `begin_run` hook resets the running tool in place for a
/// from-scratch run, so a sweep reuses one bag forest and one shadow
/// space per slot across all its runs instead of allocating fresh ones
/// per spec.
#[derive(Default)]
struct Pool {
    tool: SpPlus,
    replay: ReplayCheckpoint,
    fork_tool: SpPlus,
    fork_replay: ReplayCheckpoint,
    /// The spec index the second slot was copied for, if it holds a copy.
    fork_for: Option<usize>,
}

impl Pool {
    /// Make the second slot the running one if it holds spec `i`'s
    /// checkpoint. True if it did: spec `i` then replays only the events
    /// after the fork, and the running tool already counts the prefix's
    /// checks.
    fn take_fork(&mut self, i: usize, trace: &ProgramTrace, spec: &StealSpec) -> bool {
        if self.fork_for.take() != Some(i) || !self.fork_replay.resume_as(trace, spec) {
            return false;
        }
        std::mem::swap(&mut self.tool, &mut self.fork_tool);
        std::mem::swap(&mut self.replay, &mut self.fork_replay);
        true
    }

    /// Replay `spec` to the end: from the running slot's checkpoint when
    /// `resumed`, else from the first event. On the way, copy the running
    /// slot to the other at the fork event with `next`, spec index and
    /// spec, when there is one ahead.
    fn replay(
        &mut self,
        trace: &ProgramTrace,
        spec: &StealSpec,
        resumed: bool,
        next: Option<(usize, &StealSpec)>,
    ) -> Result<(), ReplayError> {
        if !resumed {
            self.replay.start(spec, &mut self.tool);
        }
        // A fork the running replay has already passed is lost: the next
        // spec then starts from scratch.
        let fork = next.and_then(|(n, next)| {
            let at = trace.fork_event(spec, next)?;
            (at > 0 && at >= self.replay.event()).then_some((n, at))
        });
        if let Some((n, at)) = fork {
            self.replay.advance(&mut self.tool, trace, at)?;
            self.fork_tool.clone_from(&self.tool);
            self.fork_replay.clone_from(&self.replay);
            self.fork_for = Some(n);
        }
        self.replay.finish(&mut self.tool, trace).map(drop)
    }
}

/// Run SP+ under a spec, preferring trace replay when the plan has a
/// trace: its pruned copy first, if there is one (DESIGN.md §5h), the
/// trace as recorded when a view-aware access reaches memory whose
/// accesses the copy dropped, and re-execution of the program if replay
/// reports divergence. Returns the report, why replay refused for a
/// fallback, and the checks pruning skipped.
fn sweep_one(
    program: &(impl Fn(&mut Ctx<'_>) + Sync),
    plan: &SweepPlan,
    spec: &StealSpec,
    resumed: bool,
    next: Option<(usize, &StealSpec)>,
    pool: &mut Pool,
) -> (RaceReport, Option<ReplayError>, u64) {
    let mut refused = None;
    if let Some(trace) = &plan.trace {
        let first = plan.pruned.as_ref().unwrap_or(trace);
        let mut result = pool.replay(first, spec, resumed, next);
        let mut skipped = first.dropped();
        if let Err(ReplayError::PrunedAllocation { .. }) = result {
            // From the first event and without a fork copy: the other
            // slot's copy, if it holds one, stays on the pruned trace.
            result = pool.replay(trace, spec, false, None);
            skipped = 0;
        }
        match result {
            Ok(()) => return (pool.tool.take_report(), None, skipped),
            // Divergence: this spec's schedule makes the recorded stream
            // unreliable (see `rader_cilk::replay`); re-execute honestly.
            Err(e) => refused = Some(e),
        }
    }
    SerialEngine::with_spec(spec.clone()).run_tool(&mut pool.tool, program);
    (pool.tool.take_report(), refused, 0)
}

/// Wall-clock cost of each phase of an exhaustive sweep, in nanoseconds.
/// Sweep regressions hide easily inside an aggregate number; the suite
/// CLI surfaces this breakdown so a slow record pass (program got more
/// expensive) reads differently from a slow sweep (claim loop or replay
/// regressed) or a slow merge (report handling regressed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepTiming {
    /// Recording pass (doubles as the no-steal detection run), or the
    /// uninstrumented measuring run when replay is disabled.
    pub record_ns: u64,
    /// The specification sweep itself (all SP+ runs after the first).
    pub sweep_ns: u64,
    /// Folding per-spec reports into the merged report.
    pub merge_ns: u64,
}

/// Result of an exhaustive SP+ sweep.
#[derive(Debug)]
pub struct ExhaustiveReport {
    /// Merged race report across all specifications.
    pub report: RaceReport,
    /// The specifications that exposed races, with what they found — the
    /// paper's regression story: "Rader reports the labels corresponding
    /// to the stolen continuations that triggered the race, making it
    /// easy to repeat the run for regression tests". Re-running SP+ with
    /// any stored specification reproduces its findings deterministically.
    pub findings: Vec<(StealSpec, RaceReport)>,
    /// Number of SP+ runs performed.
    pub runs: usize,
    /// How many of those runs the trace served without an extra execution
    /// of the program: the no-steal run that doubled as the record pass,
    /// plus every replay-served run. The rest re-executed the program —
    /// all of them under `CoverageOptions { replay: false, .. }`, or the
    /// per-spec fallback runs taken when replay detected divergence.
    pub replayed: usize,
    /// Measured maximum sync-block size `K`.
    pub k: u32,
    /// Measured maximum spawn count `M`.
    pub m: u32,
    /// Chunk claims the sweep performed: the number of units of work
    /// handed out to its threads (cheap specs are claimed in batches, so
    /// `claims < runs` whenever chunking amortized the shared counter).
    /// A pure function of the spec list — identical across thread counts.
    pub claims: usize,
    /// Total SP+ access checks performed across every run of the sweep
    /// (including the record pass and any divergence fallbacks).
    pub spplus_checks: u64,
    /// True if some planned specifications were neither swept nor
    /// quarantined — a time budget expired before the sweep finished.
    /// The coverage guarantee then holds only for the swept families;
    /// `uncovered` names the rest. An uninterrupted, fault-free sweep
    /// always reports `partial: false`.
    pub partial: bool,
    /// Per-family counts of planned-but-unswept specifications, e.g.
    /// `"EveryBlock reduce triples (Theorem 7): 12 of 20 unswept"`.
    /// Empty iff `partial` is false.
    pub uncovered: Vec<String>,
    /// Specifications whose SP+ run panicked, with payloads and
    /// minimized reproducers. Their reports are *excluded* from the
    /// merged report (a panicking run proves nothing about races), so a
    /// nonempty quarantine also weakens the coverage guarantee — but the
    /// sweep itself runs to completion.
    pub quarantined: Vec<Quarantined>,
    /// Per-phase wall-clock breakdown of this sweep.
    pub timing: SweepTiming,
    /// Why replay refused each spec that fell back to re-execution, by
    /// spec index, in spec order. Specs a resumed checkpoint journal
    /// served are not listed: the journal keeps only whether replay
    /// served them. Not serialized.
    pub fallbacks: Vec<(usize, ReplayError)>,
    /// Specs this sweep replayed from a predecessor's checkpoint rather
    /// than from the first event (DESIGN.md §5g). Depends on how the
    /// threads interleaved, so it is not serialized.
    pub forked: usize,
    /// Access checks this sweep skipped by replaying the record pass's
    /// pruned trace (DESIGN.md §5h): its dropped accesses, once per spec
    /// it served. Specs a resumed checkpoint journal served are not
    /// counted. Not serialized.
    pub pruned: u64,
}

/// Escape a string for a JSON string literal (sweep family names, panic
/// payloads and workload names may contain arbitrary text).
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Run SP+ under the Section-7 specification families (plus the no-steal
/// base case) and merge the findings.
///
/// The program must be re-runnable (`Fn`), deterministic in its
/// view-oblivious part, and use only associative reduces — the paper's
/// "ostensibly deterministic" precondition. By default the program is
/// recorded once and the sweep replays its [`ProgramTrace`] under each
/// specification (see [`CoverageOptions::replay`]).
pub fn exhaustive_check(
    program: impl Fn(&mut Ctx<'_>) + Sync,
    opts: &CoverageOptions,
) -> ExhaustiveReport {
    exhaustive_check_parallel(program, opts, 1)
}

/// As [`exhaustive_check`], but running the independent SP+ sweeps on
/// `threads` OS threads. The sweep dominates checking cost (Θ(M) + Θ(K³)
/// serial runs), and the runs share nothing, so this scales nearly
/// linearly. Findings are returned in deterministic (spec) order: worker
/// results are index-sorted before merging, so the merged report is
/// byte-identical across thread counts.
///
/// Threads claim chunks of specs from one shared atomic counter: spec
/// costs are wildly uneven (an `EveryBlock` reduce triple re-runs the
/// whole program's reduce machinery; an `AtSpawnCount` update spec may
/// steal once), so a static partition could leave one thread holding
/// every expensive spec while the rest idle. The cheap update family is
/// claimed [`UPDATE_CHUNK`] specs at a time, while every `EveryBlock`
/// spec remains its own claim so balance is unaffected where it matters.
/// Each worker pools one [`SpPlus`] instance across all its runs (the
/// engine's `begin_run` hook resets it in place), so a sweep allocates
/// O(threads) bag forests, not O(specs).
pub fn exhaustive_check_parallel(
    program: impl Fn(&mut Ctx<'_>) + Sync,
    opts: &CoverageOptions,
    threads: usize,
) -> ExhaustiveReport {
    exhaustive_check_parallel_ctl(program, opts, threads, &SweepControl::default())
        .expect("a sweep without a checkpoint journal cannot fail")
}

/// Convert a caught panic payload to a displayable string.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// ddmin a *panicking* `EveryBlock` spec: greedily drop script actions
/// while re-running the program under the candidate still panics. The
/// quarantine analogue of [`minimize_spec`] (which needs a surviving
/// race report and so cannot run on a spec whose run dies). Non-
/// `EveryBlock` specs pass through unchanged; so does an `EveryBlock`
/// whose panic was injected by spec *index* (`injected`) — every
/// candidate would "panic", so ddmin would bottom out at the empty
/// script, truthfully but uselessly.
fn minimize_panicking_spec(
    program: &(impl Fn(&mut Ctx<'_>) + Sync),
    spec: &StealSpec,
    injected: bool,
) -> StealSpec {
    let StealSpec::EveryBlock(script) = spec else {
        return spec.clone();
    };
    if injected {
        return spec.clone();
    }
    let still_panics = |ops: &[BlockOp]| -> bool {
        let candidate = StealSpec::EveryBlock(BlockScript::new(ops.to_vec()));
        catch_unwind(AssertUnwindSafe(|| {
            let mut tool = SpPlus::new();
            SerialEngine::with_spec(candidate).run_tool(&mut tool, program);
        }))
        .is_err()
    };
    let mut ops: Vec<BlockOp> = script.ops().to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < ops.len() {
            let mut trial = ops.clone();
            trial.remove(i);
            if still_panics(&trial) {
                ops = trial;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
    StealSpec::EveryBlock(BlockScript::new(ops))
}

/// A chunk swept by this process: its journal record, plus what the
/// journal does not keep.
struct LiveChunk {
    record: ChunkRecord,
    fallbacks: Vec<(usize, ReplayError)>,
    forked: usize,
    pruned: u64,
}

/// Sweep one chunk of specs with a worker's pool, isolating per-spec
/// panics: an unwinding run (misbehaving monoid body, or an injected
/// panic) is caught, the spec is quarantined with its payload
/// and a minimized reproducer, and the running tool is retired for a
/// fresh one (its detection state is suspect after an unwind; its check
/// count — deterministic even for the partial run — is kept). `then` is
/// the first spec of the worker's next chunk, which the chunk's last
/// spec forks for.
fn sweep_chunk(
    program: &(impl Fn(&mut Ctx<'_>) + Sync),
    plan: &SweepPlan,
    chunk_index: usize,
    then: Option<usize>,
    pool: &mut Pool,
    faults: &FaultPlan,
) -> LiveChunk {
    let (start, end) = plan.chunks[chunk_index];
    let specs = &plan.specs;
    let trace = plan.replays();
    let mut checks = 0;
    let mut outcomes = Vec::with_capacity(end - start);
    let (mut fallbacks, mut forked, mut pruned) = (Vec::new(), 0, 0);
    for (i, spec) in (start..end).zip(&specs[start..end]) {
        let injected = faults.panic_at.contains(&i);
        let next = if i + 1 < end { Some(i + 1) } else { then };
        let next = next.map(|n| (n, &specs[n]));
        // Each spec's checks are counted from zero, or from the prefix's
        // when it resumes from a checkpoint.
        pool.tool.checks = 0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                panic!("injected fault at spec {i}");
            }
            let resumed = trace.is_some_and(|t| pool.take_fork(i, t, spec));
            forked += resumed as usize;
            sweep_one(program, plan, spec, resumed, next, pool)
        }));
        checks += pool.tool.checks;
        match result {
            Ok((report, refused, skipped)) => {
                pruned += skipped;
                if let Some(e) = refused {
                    fallbacks.push((i, e));
                }
                outcomes.push(SpecOutcome::Checked {
                    report,
                    replayed: refused.is_none() && trace.is_some(),
                });
            }
            Err(payload) => {
                pool.tool = SpPlus::new();
                let spec = spec.clone();
                let minimized = minimize_panicking_spec(program, &spec, injected);
                outcomes.push(SpecOutcome::Quarantined {
                    spec,
                    payload: payload_to_string(payload.as_ref()),
                    minimized,
                });
            }
        }
    }
    LiveChunk {
        record: ChunkRecord {
            chunk_index,
            spec_start: start,
            spec_end: end,
            checks_delta: checks,
            outcomes,
        },
        fallbacks,
        forked,
        pruned,
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`exhaustive_check_parallel`] with fault-tolerance controls: a
/// checkpoint journal ([`SweepControl::checkpoint`]), a wall-clock
/// budget ([`SweepControl::budget`]), and deterministic fault injection
/// ([`SweepControl::faults`]).
///
/// Completed chunks stream to the journal as single appends, so a
/// `SIGKILL` at any moment loses at most the chunks in flight; resuming
/// validates the journal against the sweep's fingerprint (label, plan-
/// shaping statistics, spec list, chunk plan), skips the completed
/// chunks, and — because outcomes re-enter the merge in spec-index
/// order — produces a final report **byte-identical** to an
/// uninterrupted run. `Err` is returned only for journal problems
/// (unreadable, truncated, checksum-corrupt, or fingerprint-mismatched
/// files); detection itself never errors.
pub fn exhaustive_check_parallel_ctl(
    program: impl Fn(&mut Ctx<'_>) + Sync,
    opts: &CoverageOptions,
    threads: usize,
    ctl: &SweepControl,
) -> Result<ExhaustiveReport, String> {
    sweep(program, opts, threads, ctl, true)
}

/// [`exhaustive_check_parallel_ctl`], replaying every spec but the first
/// from a pruned trace when `prune` is set.
fn sweep(
    program: impl Fn(&mut Ctx<'_>) + Sync,
    opts: &CoverageOptions,
    threads: usize,
    ctl: &SweepControl,
    prune: bool,
) -> Result<ExhaustiveReport, String> {
    let plan = plan_sweep(&program, opts, prune);
    let (done, writer) = open_journal(ctl, &plan)?;
    let sweep_start = Instant::now();
    let live = claim_chunks(&program, &plan, &done, writer, threads, ctl)?;
    let sweep_ns = sweep_start.elapsed().as_nanos() as u64;
    let record_ns = plan.record_ns;
    let merge_start = Instant::now();
    let mut report = merge_outcomes(plan, done, live);
    report.timing = SweepTiming {
        record_ns,
        sweep_ns,
        merge_ns: merge_start.elapsed().as_nanos() as u64,
    };
    Ok(report)
}

/// Everything a sweep fixes before its first claim: the recorded trace
/// and its pruned copy (replay mode only), the spec list and its chunk
/// plan, and the outcome of the record pass.
struct SweepPlan {
    trace: Option<ProgramTrace>,
    /// The trace without the accesses the record pass settled, if it
    /// drops any (DESIGN.md §5h).
    pruned: Option<ProgramTrace>,
    /// Statistics that sized the plan (bound into the journal
    /// fingerprint).
    stats: RunStats,
    specs: Vec<StealSpec>,
    k: u32,
    m: u32,
    chunks: Vec<(usize, usize)>,
    /// The record pass's report, which serves spec 0 in replay mode.
    base: Option<RaceReport>,
    base_checks: u64,
    record_ns: u64,
}

impl SweepPlan {
    /// The trace spec replays start from: the pruned copy, if there is
    /// one, else the trace as recorded.
    fn replays(&self) -> Option<&ProgramTrace> {
        self.pruned.as_ref().or(self.trace.as_ref())
    }
}

/// Run the record pass and plan the sweep's specs and chunks.
///
/// Every sweep starts with the no-steal specification, and recording
/// happens under the no-steal schedule — so in replay mode the record
/// pass *is* the first detection run (the recorder is a passive extra
/// hook on an ordinary SP+ run). With replay disabled, a plain
/// uninstrumented run measures K and M for spec planning instead; it is
/// not counted in `runs`. A resumed sweep repeats this pass — the journal
/// stores only sweep results, and re-recording keeps the trace and stats
/// exactly as the interrupted run saw them. With `prune`, the pass ends
/// by pruning the trace against its own report.
fn plan_sweep(
    program: &(impl Fn(&mut Ctx<'_>) + Sync),
    opts: &CoverageOptions,
    prune: bool,
) -> SweepPlan {
    let record_start = Instant::now();
    let (trace, stats, base, base_checks) = if opts.replay {
        let mut tool = SpPlus::new();
        let trace = ProgramTrace::record_with_tool(&mut tool, program);
        let stats = *trace.stats();
        let checks = tool.checks;
        (Some(trace), stats, Some(tool.into_report()), checks)
    } else {
        (None, SerialEngine::new().run(program), None, 0)
    };
    let pruned = match (&trace, &base) {
        (Some(trace), Some(report)) if prune => trace.pruned(&report.racy_locs()),
        _ => None,
    };
    let record_ns = record_start.elapsed().as_nanos() as u64;
    let (specs, k, m) = plan_specs(&stats, opts);
    // Index 0 (StealSpec::None) is already served when the record pass
    // ran as the first detection run.
    let chunks = plan_chunks(&specs, base.is_some() as usize);
    SweepPlan {
        trace,
        pruned,
        stats,
        specs,
        k,
        m,
        chunks,
        base,
        base_checks,
        record_ns,
    }
}

/// Open the checkpoint journal `ctl` asks for. Returns the chunks a
/// resumed journal already holds (validated against the plan) and the
/// writer that newly swept chunks append to.
fn open_journal(
    ctl: &SweepControl,
    plan: &SweepPlan,
) -> Result<(BTreeMap<usize, ChunkRecord>, Option<JournalWriter>), String> {
    let fp = journal::fingerprint(&ctl.label, &plan.stats, &plan.specs, &plan.chunks);
    match &ctl.checkpoint {
        CheckpointPolicy::Off => Ok((BTreeMap::new(), None)),
        CheckpointPolicy::Record(path) => {
            Ok((BTreeMap::new(), Some(JournalWriter::create(path, fp)?)))
        }
        CheckpointPolicy::Resume(path) if path.exists() => {
            let loaded = journal::load(path, fp)?;
            for (idx, rec) in &loaded.chunks {
                if plan.chunks.get(*idx) != Some(&(rec.spec_start, rec.spec_end)) {
                    return Err(format!(
                        "{}: journal chunk {idx} does not match the sweep plan",
                        path.display()
                    ));
                }
            }
            Ok((loaded.chunks, Some(JournalWriter::append(path)?)))
        }
        // Nothing to resume (e.g. the interrupted run never reached this
        // workload): start a fresh journal.
        CheckpointPolicy::Resume(path) => {
            Ok((BTreeMap::new(), Some(JournalWriter::create(path, fp)?)))
        }
    }
}

/// Sweep every planned chunk the journal does not already hold, on
/// `threads` workers that claim chunks in [`claim_order`] from one shared
/// counter. A worker claims its next chunk before it sweeps the current
/// one, so the current chunk's last spec knows which spec follows it and
/// can leave it a checkpoint (§5g). Each completed chunk is journaled
/// before it is kept. Workers stop at the budget deadline or after any
/// journal write error, which is returned. The chunks come back in
/// completion order; the merge restores spec order.
fn claim_chunks(
    program: &(impl Fn(&mut Ctx<'_>) + Sync),
    plan: &SweepPlan,
    done: &BTreeMap<usize, ChunkRecord>,
    writer: Option<JournalWriter>,
    threads: usize,
    ctl: &SweepControl,
) -> Result<Vec<LiveChunk>, String> {
    let order = claim_order(&plan.specs, &plan.chunks, ctl.budget.is_some());
    let deadline = ctl.budget.and_then(|b| Instant::now().checked_add(b));
    let threads = threads.max(1).min(plan.specs.len().max(1));
    let writer = writer.map(Mutex::new);
    let journal_err: Mutex<Option<String>> = Mutex::new(None);
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let slot = next.fetch_add(1, Ordering::Relaxed);
        let c = *order.get(slot)?;
        if !done.contains_key(&c) {
            return Some(c); // else already served by the journal
        }
    };
    let worker = || {
        let mut pool = Pool::default();
        let mut local = Vec::new();
        let mut cur = claim();
        while let Some(c) = cur {
            if deadline.is_some_and(|d| Instant::now() >= d) || lock(&journal_err).is_some() {
                break;
            }
            cur = claim();
            let then = cur.map(|n| plan.chunks[n].0);
            let live = sweep_chunk(program, plan, c, then, &mut pool, &ctl.faults);
            if let Some(w) = &writer {
                if let Err(e) = lock(w).write_chunk(&live.record) {
                    *lock(&journal_err) = Some(e);
                    break;
                }
            }
            local.push(live);
        }
        local
    };
    let live = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        let mut all = Vec::new();
        for h in handles {
            match h.join() {
                Ok(local) => all.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    match journal_err
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        Some(err) => Err(err),
        None => Ok(live),
    }
}

/// Fold every spec's outcome — from the journal, the live sweep, and the
/// record pass — into the sweep's report, in strict spec-index order.
/// That order is what makes resumed, multi-threaded, and budgeted sweeps
/// merge-identical. Timings are left zero for the caller to fill in.
fn merge_outcomes(
    plan: SweepPlan,
    done: BTreeMap<usize, ChunkRecord>,
    mut live: Vec<LiveChunk>,
) -> ExhaustiveReport {
    let SweepPlan {
        specs,
        k,
        m,
        chunks,
        base,
        base_checks,
        ..
    } = plan;
    let mut slots: Vec<Option<SpecOutcome>> = (0..specs.len()).map(|_| None).collect();
    let mut checks = base_checks;
    let mut fallbacks = Vec::new();
    let (mut forked, mut pruned) = (0, 0);
    for chunk in &mut live {
        fallbacks.append(&mut chunk.fallbacks);
        forked += chunk.forked;
        pruned += chunk.pruned;
    }
    fallbacks.sort_unstable_by_key(|&(i, _)| i);
    for rec in done.into_values().chain(live.into_iter().map(|c| c.record)) {
        checks += rec.checks_delta;
        let start = rec.spec_start;
        for (off, outcome) in rec.outcomes.into_iter().enumerate() {
            slots[start + off] = Some(outcome);
        }
    }
    if let Some(report) = base {
        slots[0] = Some(SpecOutcome::Checked {
            report,
            replayed: true,
        });
    }
    let uncovered = uncovered_families(&specs, &slots);
    let mut merger = ReportMerger::new();
    let mut findings = Vec::new();
    let mut quarantined = Vec::new();
    let mut runs = 0usize;
    let mut replayed = 0usize;
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(SpecOutcome::Checked {
                report,
                replayed: via,
            }) => {
                runs += 1;
                if via {
                    replayed += 1;
                }
                if report.has_races() {
                    findings.push((specs[i].clone(), report.clone()));
                }
                merger.merge(&report);
            }
            Some(SpecOutcome::Quarantined {
                spec,
                payload,
                minimized,
            }) => quarantined.push(Quarantined {
                spec_index: i,
                spec,
                payload,
                minimized,
            }),
            None => {}
        }
    }
    ExhaustiveReport {
        report: merger.finish(),
        findings,
        runs,
        replayed,
        k,
        m,
        claims: chunks.len(),
        spplus_checks: checks,
        partial: !uncovered.is_empty(),
        uncovered,
        quarantined,
        timing: SweepTiming::default(),
        fallbacks,
        forked,
        pruned,
    }
}

/// Per-family counts of planned specs that have no outcome (neither
/// swept nor quarantined), in plan order of first appearance, e.g.
/// `"EveryBlock reduce triples (Theorem 7): 12 of 20 unswept"`.
fn uncovered_families(specs: &[StealSpec], slots: &[Option<SpecOutcome>]) -> Vec<String> {
    let mut families: Vec<(&'static str, usize, usize)> = Vec::new();
    for (spec, slot) in specs.iter().zip(slots) {
        let name = family_name(spec);
        let pos = match families.iter().position(|f| f.0 == name) {
            Some(pos) => pos,
            None => {
                families.push((name, 0, 0));
                families.len() - 1
            }
        };
        families[pos].2 += 1;
        if slot.is_none() {
            families[pos].1 += 1;
        }
    }
    families
        .into_iter()
        .filter(|&(_, missing, _)| missing > 0)
        .map(|(name, missing, total)| format!("{name}: {missing} of {total} unswept"))
        .collect()
}

/// Minimize a race-exposing `EveryBlock` steal specification: greedily
/// drop script actions while SP+ still reports a race on at least one of
/// the originally racy locations. The result is a smaller reproducer for
/// regression tests (ddmin-style, linear passes to a fixpoint).
///
/// Returns the input unchanged for non-`EveryBlock` specifications or if
/// the specification exposes no race to begin with.
pub fn minimize_spec(program: impl Fn(&mut Ctx<'_>), spec: &StealSpec) -> StealSpec {
    // ddmin probes many candidate specs on one fixed program: record
    // once, replay per candidate (with one pooled detector), re-execute
    // only on divergence.
    let trace = ProgramTrace::record(&program);
    let mut tool = SpPlus::new();
    let mut racy_under = |candidate: &StealSpec| {
        if SerialEngine::with_spec(candidate.clone())
            .replay_tool(&mut tool, &trace)
            .is_err()
        {
            SerialEngine::with_spec(candidate.clone()).run_tool(&mut tool, &program);
        }
        tool.report().racy_locs()
    };
    let target = racy_under(spec);
    if target.is_empty() {
        return spec.clone();
    }
    let StealSpec::EveryBlock(script) = spec else {
        return spec.clone();
    };
    let mut ops: Vec<BlockOp> = script.ops().to_vec();
    let mut still_exposes = |ops: &[BlockOp]| {
        let candidate = StealSpec::EveryBlock(BlockScript::new(ops.to_vec()));
        !racy_under(&candidate).is_disjoint(&target)
    };
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < ops.len() {
            let mut trial = ops.clone();
            trial.remove(i);
            if still_exposes(&trial) {
                ops = trial;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
    StealSpec::EveryBlock(BlockScript::new(ops))
}

/// Identity of a reduce operation on a sync block: the continuation
/// spans of its two operands, `(left_first, left_len, right_first,
/// right_len)` in units of update indices. Used by the Theorem-7
/// experiment to count distinct elicited operations.
pub type ReduceOpId = (Word, Word, Word, Word);

/// A monoid that *logs every reduce operation's operand spans*, for the
/// coverage experiments. Views are `[first_update_index, update_count]`;
/// the shared log records one [`ReduceOpId`] per executed reduce with
/// non-empty operands.
pub struct ReduceLogger {
    log: Arc<Mutex<Vec<ReduceOpId>>>,
}

impl ReduceLogger {
    /// Create a logger and a handle to its shared log.
    pub fn new() -> (Self, Arc<Mutex<Vec<ReduceOpId>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (ReduceLogger { log: log.clone() }, log)
    }
}

impl ViewMonoid for ReduceLogger {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        let l = m.alloc(2);
        m.write(l, -1); // first = none
        l
    }
    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        let lf = m.read(left);
        let ln = m.read(left.at(1));
        let rf = m.read(right);
        let rn = m.read(right.at(1));
        if ln > 0 && rn > 0 {
            self.log.lock().unwrap().push((lf, ln, rf, rn));
        }
        if ln == 0 {
            m.write(left, rf);
        }
        m.write(left.at(1), ln + rn);
    }
    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let n = m.read(view.at(1));
        if n == 0 {
            m.write(view, op[0]);
        }
        m.write(view.at(1), n + 1);
    }
    fn name(&self) -> &'static str {
        "reduce-logger"
    }
}

/// Count the distinct reduce operations elicited on a flat block of `k`
/// spawned updates by a family of specs (the Theorem-7 experiment).
///
/// The program spawns `k` children, each performing exactly one update
/// (update index = continuation index), then syncs. Returns
/// `(distinct_ops, spec_count)`.
pub fn count_elicited_reduce_ops(k: u32, specs: &[StealSpec]) -> (usize, usize) {
    use std::collections::BTreeSet;
    let mut distinct: BTreeSet<ReduceOpId> = BTreeSet::new();
    for spec in specs {
        let (logger, log) = ReduceLogger::new();
        let monoid = Arc::new(logger);
        SerialEngine::with_spec(spec.clone()).run(|cx| {
            let h = cx.new_reducer(monoid.clone());
            for i in 0..k as Word {
                cx.spawn(move |cx| cx.reducer_update(h, &[i]));
            }
            cx.sync();
        });
        distinct.extend(log.lock().unwrap().iter().copied());
    }
    (distinct.len(), specs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rader;
    use rader_cilk::synth::SynthAdd;

    #[test]
    fn update_family_size_is_m() {
        assert_eq!(update_coverage_specs(5).len(), 5);
    }

    #[test]
    fn reduce_family_size_is_cubic_plus_lower_terms() {
        let k = 6u32;
        let expect = (1..=k)
            .flat_map(|a| ((a + 1)..=k).flat_map(move |b| ((b + 1)..=k).map(move |_| ())))
            .count()
            + (k as usize * (k as usize - 1)) / 2
            + k as usize;
        assert_eq!(reduce_coverage_specs(k).len(), expect);
    }

    #[test]
    fn triple_spec_elicits_the_abc_reduce_op() {
        // Steal at 1 and 3, reduce before stealing 5: the logged op must
        // combine spans [1,3) and [3,5) — operand lengths 2 and 2, with
        // first update indices 1 and 3.
        let spec = StealSpec::EveryBlock(BlockScript::new(vec![
            BlockOp::Steal(1),
            BlockOp::Steal(3),
            BlockOp::Reduce,
            BlockOp::Steal(5),
        ]));
        let (logger, log) = ReduceLogger::new();
        let monoid = Arc::new(logger);
        SerialEngine::with_spec(spec).run(|cx| {
            let h = cx.new_reducer(monoid.clone());
            for i in 0..6 as Word {
                cx.spawn(move |cx| cx.reducer_update(h, &[i]));
            }
            cx.sync();
        });
        let ops = log.lock().unwrap().clone();
        assert!(
            ops.contains(&(1, 2, 3, 2)),
            "expected the (1,3,5) reduce op; got {ops:?}"
        );
    }

    #[test]
    fn full_family_elicits_all_interior_reduce_ops() {
        // On a flat block of k updates, the set of elicitable interior
        // reduce ops (both operands nonempty spans of updates) is exactly
        // the set of (first, len) adjacent span pairs. The cubic family
        // must elicit every op the block admits; count grows as Θ(k³).
        let k = 5u32;
        let specs = reduce_coverage_specs(k);
        let (distinct, _) = count_elicited_reduce_ops(k, &specs);
        // Ops on k+1 boundary-delimited spans over updates 0..k.
        // For boundaries 0 ≤ a < b < c ≤ k: operand spans [a,b) and
        // [b,c) — but span [0,a) merges carry the prefix too; we simply
        // assert cubic growth and a sane lower bound here, and exactness
        // is covered by the (a,b,c) test above.
        let k_us = k as usize;
        let lower = k_us * (k_us - 1) * (k_us - 2) / 6;
        assert!(
            distinct >= lower,
            "elicited {distinct} ops, expected at least C({k},3) = {lower}"
        );
    }

    #[test]
    fn chunk_plan_follows_spec_families() {
        // A realistic plan: None + 20 update specs + reduce specs.
        let stats = RunStats {
            max_sync_block: 4,
            max_spawn_count: 20,
            ..RunStats::default()
        };
        let (specs, _, _) = plan_specs(&stats, &CoverageOptions::default());
        let chunks = plan_chunks(&specs, 1);
        // Coverage: contiguous, ordered, exactly once.
        let mut next = 1;
        for &(s, e) in &chunks {
            assert_eq!(s, next, "chunks must tile the spec list");
            assert!(e > s);
            next = e;
        }
        assert_eq!(next, specs.len());
        // Cheap chunks batch up to UPDATE_CHUNK; EveryBlock chunks are 1.
        for &(s, e) in &chunks {
            let cheap = matches!(specs[s], StealSpec::None | StealSpec::AtSpawnCount(_));
            if cheap {
                assert!(e - s <= UPDATE_CHUNK);
                assert!((s..e)
                    .all(|i| { matches!(specs[i], StealSpec::None | StealSpec::AtSpawnCount(_)) }));
            } else {
                assert_eq!(e - s, 1, "EveryBlock specs must stay chunk=1");
            }
        }
        // The 20-spec update family (minus the record-served index 0)
        // must collapse into ⌈20/16⌉ = 2 claims, so chunking actually
        // amortizes the counter.
        let cheap_chunks = chunks
            .iter()
            .filter(|&&(s, _)| matches!(specs[s], StealSpec::AtSpawnCount(_)))
            .count();
        assert_eq!(cheap_chunks, 2);
    }

    #[test]
    fn threads_agree_byte_for_byte() {
        // Acceptance: sweep reports byte-identical across thread counts.
        // Claims are a pure function of the plan, so they must agree
        // across thread counts too.
        let program = |cx: &mut Ctx<'_>| {
            let a = cx.alloc(1);
            for i in 0..8 {
                cx.spawn(move |cx| {
                    if i == 3 {
                        cx.write(a, 1);
                    }
                });
            }
            cx.write(a, 2);
            cx.sync();
        };
        let base = exhaustive_check(program, &CoverageOptions::default());
        assert!(base.claims < base.runs, "family chunking must batch claims");
        for threads in [1, 2, 4] {
            let rep = exhaustive_check_parallel(program, &CoverageOptions::default(), threads);
            assert_eq!(rep.report, base.report, "threads={threads}");
            assert_eq!(rep.findings, base.findings);
            assert_eq!(rep.runs, base.runs);
            assert_eq!(rep.spplus_checks, base.spplus_checks);
            assert_eq!(
                format!("{}", rep.report),
                format!("{}", base.report),
                "rendered report must be byte-identical"
            );
            // Claims depend only on the plan, never on threads.
            assert_eq!(rep.claims, base.claims);
        }
    }

    #[test]
    fn sweeps_fork_specs_from_their_predecessors() {
        // racy8's consecutive specs of each family share prefixes, so the
        // sweep must fork; an odd thread count makes workers fork from
        // predecessors that are not adjacent in plan order. Nothing the
        // report counts may move.
        let base = exhaustive_check(racy8, &CoverageOptions::default());
        assert!(base.forked > 0, "the sweep forked no spec");
        assert!(base.forked < base.runs);
        for threads in [2, 3] {
            let rep = exhaustive_check_parallel(racy8, &CoverageOptions::default(), threads);
            assert!(rep.forked > 0, "threads={threads}: no spec forked");
            assert_eq!(rep.report, base.report, "threads={threads}");
            assert_eq!(rep.findings, base.findings);
            assert_eq!(
                (rep.runs, rep.replayed, rep.spplus_checks),
                (base.runs, base.replayed, base.spplus_checks)
            );
            assert_eq!(
                (rep.k, rep.m, rep.claims, rep.partial),
                (base.k, base.m, base.claims, base.partial)
            );
            assert_eq!(
                (&rep.uncovered, &rep.quarantined),
                (&base.uncovered, &base.quarantined)
            );
        }
        let rerun = exhaustive_check(
            racy8,
            &CoverageOptions {
                replay: false,
                ..CoverageOptions::default()
            },
        );
        assert_eq!(rerun.forked, 0, "only replays fork");
        assert_eq!(rerun.spplus_checks, base.spplus_checks);
    }

    #[test]
    fn fallbacks_keep_why_replay_refused() {
        // The Figure-1 pattern: a spawned child installs a user cell as
        // the view, and the continuation's get_value returns it only when
        // the continuation is not stolen.
        let program = |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            let cell = cx.alloc(1);
            for i in 0..3 {
                cx.spawn(move |cx| {
                    if i == 0 {
                        cx.reducer_set_view(h, cell);
                    }
                });
            }
            cx.reducer_update(h, &[1]);
            let v = cx.reducer_get_view(h);
            let _ = cx.read(v);
            cx.sync();
        };
        let rep = exhaustive_check(program, &CoverageOptions::default());
        assert!(!rep.fallbacks.is_empty(), "no spec fell back");
        assert_eq!(rep.fallbacks.len(), rep.runs - rep.replayed);
        assert!(rep.fallbacks.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, e) in &rep.fallbacks {
            assert!(*i > 0 && *i < rep.runs, "spec index {i}");
            assert!(
                matches!(e, ReplayError::ViewDivergence { .. }),
                "spec {i}: {e}"
            );
        }
        let rerun = exhaustive_check(
            program,
            &CoverageOptions {
                replay: false,
                ..CoverageOptions::default()
            },
        );
        assert!(rerun.fallbacks.is_empty(), "re-execution is not a fallback");
        assert_eq!(rerun.report, rep.report);
    }

    /// Eight spawns, one schedule-independent determinacy race: K = 8,
    /// M = 8, so the plan has a meaty spec list (1 + 8 + C(8,3) + 28 + 8
    /// specs) while every run replays in microseconds.
    fn racy8(cx: &mut Ctx<'_>) {
        let a = cx.alloc(1);
        for i in 0..8 {
            cx.spawn(move |cx| {
                if i == 3 {
                    cx.write(a, 1);
                }
            });
        }
        cx.write(a, 2);
        cx.sync();
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rader-cov-{}-{name}.ckpt", std::process::id()))
    }

    #[test]
    fn budget_claim_order_prioritizes_update_family() {
        let stats = RunStats {
            max_sync_block: 5,
            max_spawn_count: 10,
            ..RunStats::default()
        };
        let (specs, _, _) = plan_specs(&stats, &CoverageOptions::default());
        let chunks = plan_chunks(&specs, 1);
        let identity: Vec<usize> = (0..chunks.len()).collect();
        assert_eq!(claim_order(&specs, &chunks, false), identity);
        let order = claim_order(&specs, &chunks, true);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, identity, "claim order must be a permutation");
        let class = |c: usize| match &specs[chunks[c].0] {
            StealSpec::None | StealSpec::AtSpawnCount(_) => 0u8,
            StealSpec::EveryBlock(s) if s.steal_count() >= 3 => 1,
            _ => 2,
        };
        assert!(
            order.windows(2).all(|w| class(w[0]) <= class(w[1])),
            "claims must be grouped update family < triples < pairs/singletons"
        );
        assert_eq!(class(order[0]), 0);
        assert_eq!(class(*order.last().unwrap()), 2);
        // Stability: triples keep generation order (grouped by leading
        // boundary), so among class-1 claims the chunk indices ascend.
        let triples: Vec<usize> = order.iter().copied().filter(|&c| class(c) == 1).collect();
        assert!(triples.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zero_budget_reports_partial_with_uncovered_families() {
        let ctl = SweepControl {
            budget: Some(Duration::ZERO),
            ..SweepControl::default()
        };
        let rep =
            exhaustive_check_parallel_ctl(racy8, &CoverageOptions::default(), 2, &ctl).unwrap();
        assert!(rep.partial);
        assert_eq!(rep.runs, 1, "only the record pass ran");
        assert!(rep.quarantined.is_empty());
        assert!(!rep.uncovered.is_empty());
        for line in &rep.uncovered {
            assert!(line.contains("unswept"), "{line}");
        }
        // Every family except the record-served base is uncovered.
        let text = rep.uncovered.join("\n");
        assert!(text.contains("AtSpawnCount"), "{text}");
        assert!(text.contains("triples"), "{text}");
        assert!(!text.contains("no-steal base"), "{text}");
        // And a completed sweep is never partial.
        let full = exhaustive_check_parallel(racy8, &CoverageOptions::default(), 2);
        assert!(!full.partial);
        assert!(full.uncovered.is_empty());
    }

    #[test]
    fn injected_panic_quarantines_exactly_the_targeted_spec() {
        let opts = CoverageOptions::default();
        let full = exhaustive_check_parallel(racy8, &opts, 2);
        let ctl = SweepControl {
            faults: FaultPlan {
                panic_at: [5].into(),
            },
            ..SweepControl::default()
        };
        let rep = exhaustive_check_parallel_ctl(racy8, &opts, 2, &ctl).unwrap();
        assert_eq!(rep.quarantined.len(), 1);
        let q = &rep.quarantined[0];
        assert_eq!(q.spec_index, 5);
        assert_eq!(q.spec, StealSpec::AtSpawnCount(5));
        assert!(
            q.payload.contains("injected fault at spec 5"),
            "{}",
            q.payload
        );
        assert_eq!(q.minimized, q.spec, "index-keyed faults skip ddmin");
        // The sweep ran to completion around the poisoned spec.
        assert!(!rep.partial, "{:?}", rep.uncovered);
        assert_eq!(rep.runs + 1, full.runs);
        assert_eq!(rep.k, full.k);
        // The race is schedule-independent, so losing one update spec
        // does not lose the finding.
        assert!(rep.report.has_races());
        // Quarantine is deterministic across thread counts.
        for threads in [1, 2, 4] {
            let again = exhaustive_check_parallel_ctl(racy8, &opts, threads, &ctl).unwrap();
            assert_eq!(again.quarantined, rep.quarantined, "threads={threads}");
            assert_eq!(again.report, rep.report);
            assert_eq!(again.spplus_checks, rep.spplus_checks);
        }
    }

    #[test]
    fn genuine_panic_is_quarantined_with_minimized_script() {
        use std::sync::Arc as StdArc;
        // A monoid that panics whenever a reduce with two nonempty
        // operands executes — any EveryBlock spec with a steal elicits
        // it; AtSpawnCount specs on this single-update program do not.
        struct Grenade;
        impl ViewMonoid for Grenade {
            fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
                let l = m.alloc(1);
                m.write(l, 0);
                l
            }
            fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
                let ln = m.read(left);
                let rn = m.read(right);
                if ln > 0 && rn > 0 {
                    panic!("grenade reduce");
                }
                m.write(left, ln + rn);
            }
            fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, _op: &[Word]) {
                let v = m.read(view);
                m.write(view, v + 1);
            }
        }
        let program = |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(StdArc::new(Grenade));
            for i in 0..3 as Word {
                cx.spawn(move |cx| cx.reducer_update(h, &[i]));
            }
            cx.sync();
        };
        let rep = exhaustive_check_parallel_ctl(
            program,
            &CoverageOptions::default(),
            2,
            &SweepControl::default(),
        )
        .unwrap();
        assert!(
            !rep.quarantined.is_empty(),
            "EveryBlock specs must elicit and quarantine the panicking reduce"
        );
        assert!(!rep.partial, "quarantine must not abort the sweep");
        for q in &rep.quarantined {
            assert!(q.payload.contains("grenade"), "{}", q.payload);
            if let StealSpec::EveryBlock(min) = &q.minimized {
                // ddmin keeps just enough steals to make a two-operand
                // reduce happen.
                assert!(
                    min.steal_count() <= 2,
                    "minimizer left a bloated script: {min:?}"
                );
            }
        }
        // Deterministic: same quarantine set on every run.
        let again = exhaustive_check_parallel_ctl(
            program,
            &CoverageOptions::default(),
            4,
            &SweepControl::default(),
        )
        .unwrap();
        assert_eq!(again.quarantined, rep.quarantined);
    }

    #[test]
    fn checkpointed_sweep_resumes_byte_identical() {
        let opts = CoverageOptions::default();
        let full = exhaustive_check_parallel(racy8, &opts, 2);
        let path = temp_journal("resume");
        // Interrupt mid-sweep via a tiny budget (whatever subset of
        // chunks lands in the journal, resume must reconstruct the
        // exact uninterrupted result).
        let cut = exhaustive_check_parallel_ctl(
            racy8,
            &opts,
            2,
            &SweepControl {
                checkpoint: CheckpointPolicy::Record(path.clone()),
                budget: Some(Duration::from_micros(300)),
                ..SweepControl::default()
            },
        )
        .unwrap();
        assert!(cut.runs <= full.runs);
        let resume_ctl = SweepControl {
            checkpoint: CheckpointPolicy::Resume(path.clone()),
            ..SweepControl::default()
        };
        for round in 0..2 {
            // Round 0 finishes the sweep; round 1 resumes a *complete*
            // journal and must serve everything from it.
            let resumed = exhaustive_check_parallel_ctl(racy8, &opts, 2, &resume_ctl).unwrap();
            assert_eq!(resumed.report, full.report, "round {round}");
            assert_eq!(resumed.findings, full.findings);
            assert_eq!(resumed.runs, full.runs);
            assert_eq!(resumed.replayed, full.replayed);
            assert_eq!((resumed.k, resumed.m), (full.k, full.m));
            assert_eq!(resumed.claims, full.claims);
            assert_eq!(resumed.spplus_checks, full.spplus_checks);
            assert!(!resumed.partial);
            assert!(resumed.uncovered.is_empty());
            assert!(resumed.quarantined.is_empty());
            assert_eq!(
                format!("{}", resumed.report),
                format!("{}", full.report),
                "rendered report must be byte-identical after resume"
            );
        }
        // A journal never resumes a differently-labelled sweep.
        let err = exhaustive_check_parallel_ctl(
            racy8,
            &opts,
            2,
            &SweepControl {
                checkpoint: CheckpointPolicy::Resume(path.clone()),
                label: "other-workload".to_string(),
                ..SweepControl::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        // Resuming from a missing journal starts fresh and creates it.
        std::fs::remove_file(&path).unwrap();
        let fresh = exhaustive_check_parallel_ctl(racy8, &opts, 2, &resume_ctl).unwrap();
        assert_eq!(fresh.report, full.report);
        assert!(path.exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhaustive_check_finds_schedule_dependent_race() {
        use std::sync::Arc as StdArc;
        // A racy program whose race involves a view-aware strand that
        // only exists under steals: the reduce of a monoid that touches a
        // shared cell races with a parallel user write to that cell, but
        // only when a steal makes a reduce happen at all.
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
        // Shared cell allocated deterministically: first allocation.
        let program = move |cx: &mut Ctx<'_>| {
            let cell = cx.alloc(1);
            let h = cx.new_reducer(StdArc::new(Touchy { cell }));
            cx.spawn(move |cx| cx.write(cell, 7));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.reducer_update(h, &[2]);
            cx.sync();
        };
        // No steals → no reduce → SP+ alone sees no race on the cell...
        let mut base = SpPlus::new();
        SerialEngine::new().run_tool(&mut base, program);
        let base_locs = base.report().racy_locs();
        assert!(base_locs.is_empty(), "{base_locs:?}");
        // ...but the exhaustive sweep elicits the reduce and the race.
        let rep = exhaustive_check(program, &CoverageOptions::default());
        assert!(rep.report.has_races());
        assert!(rep.runs > 1);
    }

    #[test]
    fn minimizer_shrinks_figure1_style_spec() {
        use std::sync::Arc as StdArc;
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
        let program = move |cx: &mut Ctx<'_>| {
            let cell = cx.alloc(1);
            let h = cx.new_reducer(StdArc::new(Touchy { cell }));
            cx.spawn(move |cx| cx.write(cell, 7));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.reducer_update(h, &[2]);
            cx.sync();
        };
        // A bloated spec with redundant actions that still exposes the
        // reduce race.
        let fat = StealSpec::EveryBlock(BlockScript::new(vec![
            BlockOp::Reduce,
            BlockOp::Steal(1),
            BlockOp::Steal(2),
            BlockOp::Reduce,
        ]));
        let fat_len = 4;
        let minimal = minimize_spec(program, &fat);
        let StealSpec::EveryBlock(script) = &minimal else {
            panic!("minimizer changed spec kind");
        };
        assert!(script.ops().len() < fat_len, "did not shrink: {script:?}");
        // The minimized spec still reproduces the race.
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(minimal.clone()).run_tool(&mut tool, program);
        assert!(tool.report().has_races());
    }

    #[test]
    fn minimizer_is_identity_on_clean_programs() {
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2]));
        let minimized = minimize_spec(
            |cx| {
                let h = cx.new_reducer(Arc::new(SynthAdd));
                cx.spawn(move |cx| cx.reducer_update(h, &[1]));
                cx.sync();
            },
            &spec,
        );
        assert_eq!(minimized, spec);
    }

    #[test]
    fn replay_and_reexecute_sweeps_agree() {
        use std::sync::Arc as StdArc;
        // The Touchy program exercises the interesting case: its reduce
        // (re-executed for real during replay) writes a user cell whose
        // Loc was captured during the record run — valid at replay time
        // because the arenas are address-identical.
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
        let program = move |cx: &mut Ctx<'_>| {
            let cell = cx.alloc(1);
            let h = cx.new_reducer(StdArc::new(Touchy { cell }));
            cx.spawn(move |cx| cx.write(cell, 7));
            cx.spawn(move |cx| cx.reducer_update(h, &[1]));
            cx.reducer_update(h, &[2]);
            cx.sync();
        };
        let via_replay = exhaustive_check(program, &CoverageOptions::default());
        let via_rerun = exhaustive_check(
            program,
            &CoverageOptions {
                replay: false,
                ..CoverageOptions::default()
            },
        );
        assert_eq!(via_replay.report, via_rerun.report);
        assert_eq!(via_replay.findings, via_rerun.findings);
        assert_eq!(via_replay.runs, via_rerun.runs);
        assert_eq!((via_replay.k, via_replay.m), (via_rerun.k, via_rerun.m));
        // Every run was served by replay; none with replay disabled.
        assert_eq!(via_replay.replayed, via_replay.runs);
        assert_eq!(via_rerun.replayed, 0);
    }

    /// Sweep `program` on `threads` workers with and without pruning and
    /// demand the same verdict, run accounting and fallbacks. Returns the
    /// checks pruning skipped and how many specs the guard sent back to
    /// the trace as recorded.
    fn pruning_changes_only_checks(
        label: &str,
        program: impl Fn(&mut Ctx<'_>) + Sync,
        threads: usize,
    ) -> (u64, usize) {
        let (opts, ctl) = (CoverageOptions::default(), SweepControl::default());
        let pruned = sweep(&program, &opts, threads, &ctl, true).unwrap();
        let full = sweep(&program, &opts, threads, &ctl, false).unwrap();
        assert_eq!(pruned.report, full.report, "{label}");
        assert_eq!(pruned.findings, full.findings, "{label}");
        assert_eq!(
            (pruned.runs, pruned.replayed, pruned.claims),
            (full.runs, full.replayed, full.claims),
            "{label}"
        );
        assert_eq!(pruned.quarantined, full.quarantined, "{label}");
        assert_eq!(pruned.fallbacks, full.fallbacks, "{label}");
        assert_eq!(full.pruned, 0, "{label}");
        // Each spec the pruned trace served skipped all its dropped
        // accesses; the other replay-served specs (but the record pass)
        // replayed the trace as recorded.
        let dropped = plan_sweep(&program, &opts, true)
            .pruned
            .map_or(0, |t| t.dropped());
        if dropped == 0 {
            return (0, 0);
        }
        let served = pruned.pruned / dropped;
        assert_eq!(pruned.pruned, served * dropped, "{label}");
        (pruned.pruned, pruned.replayed - 1 - served as usize)
    }

    #[test]
    fn pruned_sweeps_equal_unpruned_sweeps() {
        use rader_cilk::synth::{gen_program, run_synth, GenConfig};
        use rader_workloads::{fig1, suite, Scale};
        let corpora = [
            ("plain", GenConfig::default()),
            (
                "aliasing",
                GenConfig {
                    view_aliasing: true,
                    reducer_reads: false,
                    ..GenConfig::default()
                },
            ),
        ];
        let (mut skipped, mut recorded) = (0, 0);
        for threads in [1, 3] {
            for (corpus, cfg) in &corpora {
                for seed in 0..40u64 {
                    let prog = gen_program(seed, cfg);
                    let label = format!("{corpus} seed {seed} threads {threads}");
                    let (s, r) = pruning_changes_only_checks(
                        &label,
                        |cx: &mut Ctx<'_>| {
                            run_synth(cx, &prog);
                        },
                        threads,
                    );
                    skipped += s;
                    recorded += r;
                }
            }
            let mut paper = suite(Scale::Small);
            paper.push(fig1::workload_racy(Scale::Small));
            for w in &paper {
                let label = format!("{} threads {threads}", w.name);
                let (s, r) = pruning_changes_only_checks(&label, &w.run, threads);
                skipped += s;
                recorded += r;
            }
        }
        assert!(skipped > 0, "no sweep pruned a check");
        assert!(recorded > 0, "the guard never sent a spec back");
    }

    #[test]
    fn findings_are_reproducible() {
        let program = |cx: &mut Ctx<'_>| {
            let a = cx.alloc(1);
            cx.spawn(move |cx| cx.write(a, 1));
            cx.write(a, 2); // determinacy race on every schedule
            cx.sync();
        };
        let rep = exhaustive_check(program, &CoverageOptions::default());
        assert!(!rep.findings.is_empty());
        for finding in &rep.findings {
            let again = Rader::new().check_determinacy(finding.0.clone(), program);
            assert_eq!(again.racy_locs(), finding.1.racy_locs());
        }
    }

    #[test]
    fn exhaustive_check_clean_program_stays_clean() {
        let program = |cx: &mut Ctx<'_>| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            for i in 0..4 {
                cx.spawn(move |cx| cx.reducer_update(h, &[i]));
            }
            cx.sync();
            let v = cx.reducer_get_view(h);
            let _ = cx.read(v);
        };
        let rep = exhaustive_check(program, &CoverageOptions::default());
        assert!(!rep.report.has_races(), "{}", rep.report);
        assert_eq!(rep.k, 4);
    }
}
