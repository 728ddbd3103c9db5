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
    /// broadest families. A budgeted sweep therefore never walks the
    /// reduce family as a trie (DESIGN.md §5g).
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

/// A detector and the replay feeding it: one of a sweep worker's slots
/// (DESIGN.md §5g). The engine's `begin_run` hook resets the tool in place
/// for a from-scratch run, so a sweep reuses one bag forest and one shadow
/// space per slot across all its runs instead of allocating fresh ones
/// per spec.
#[derive(Default)]
struct Slot {
    tool: SpPlus,
    replay: ReplayCheckpoint,
}

/// What a worker walks, from one spec on (DESIGN.md §5g).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unit {
    /// Specs `spec..end` of one chunk, in plan order: a chain, in which
    /// each spec forks from the one before it.
    Run { spec: usize, end: usize },
    /// A spec of the walked reduce family and its trie subtree.
    Tree(usize),
}

impl Unit {
    fn spec(self) -> usize {
        match self {
            Unit::Run { spec, .. } | Unit::Tree(spec) => spec,
        }
    }
}

/// The `EveryBlock` specs of a plan as a trie: a script's parent is the
/// script without its last steal and the reduces before it, so `[a]`
/// parents `[a, b]`, which parents `[a, b, Reduce, c]`. A child's replay
/// equals its parent's up to their fork event.
struct Trie {
    /// Every spec's children, in fork-event order, spec after spec: spec
    /// `i`'s are `kids[first[i]..first[i + 1]]`.
    kids: Vec<usize>,
    first: Vec<usize>,
    /// The parentless specs (the singletons), largest subtree first.
    roots: Vec<usize>,
}

impl Trie {
    /// The trie of `specs`' `EveryBlock` family, or `None` if it has no
    /// edge.
    fn new(specs: &[StealSpec], trace: &ProgramTrace) -> Option<Trie> {
        let script = |i: usize| match &specs[i] {
            StealSpec::EveryBlock(script) => script.ops(),
            _ => &[],
        };
        // Scripts compare as their steal indices, with a reduce as 0.
        let order = |a: &[BlockOp], b: &[BlockOp]| {
            let key = |op: &BlockOp| match *op {
                BlockOp::Steal(k) => k,
                BlockOp::Reduce => 0,
            };
            a.iter().map(key).cmp(b.iter().map(key))
        };
        let mut family: Vec<usize> = (0..specs.len())
            .filter(|&i| matches!(specs[i], StealSpec::EveryBlock(_)))
            .collect();
        family.sort_unstable_by(|&a, &b| order(script(a), script(b)));
        let (mut edges, mut roots) = (Vec::new(), Vec::new());
        for &i in &family {
            let ops = script(i);
            let mut cut = ops
                .iter()
                .rposition(|op| matches!(op, BlockOp::Steal(_)))
                .unwrap_or(0);
            while cut > 0 && ops[cut - 1] == BlockOp::Reduce {
                cut -= 1;
            }
            match family.binary_search_by(|&j| order(script(j), &ops[..cut])) {
                Ok(p) => {
                    let parent = family[p];
                    edges.push((parent, trace.fork_event(&specs[parent], &specs[i]), i));
                }
                Err(_) => roots.push(i),
            }
        }
        if edges.is_empty() {
            return None;
        }
        edges.sort_unstable();
        let mut first = vec![0; specs.len() + 1];
        for &(parent, ..) in &edges {
            first[parent + 1] += 1;
        }
        for i in 0..specs.len() {
            first[i + 1] += first[i];
        }
        let kids = edges.into_iter().map(|(.., kid)| kid).collect();
        let mut trie = Trie {
            kids,
            first,
            roots: Vec::new(),
        };
        roots.sort_by_key(|&root| std::cmp::Reverse(trie.size(root)));
        trie.roots = roots;
        Some(trie)
    }

    /// Spec `i`'s children, in fork-event order.
    fn kids(&self, i: usize) -> &[usize] {
        &self.kids[self.first[i]..self.first[i + 1]]
    }

    /// The number of specs in `i`'s subtree.
    fn size(&self, i: usize) -> usize {
        1 + self
            .kids(i)
            .iter()
            .map(|&kid| self.size(kid))
            .sum::<usize>()
    }

    /// `root` and its descendants.
    fn subtree(&self, root: usize) -> Vec<usize> {
        let mut nodes = vec![root];
        let mut next = 0;
        while let Some(&i) = nodes.get(next) {
            nodes.extend(self.kids(i));
            next += 1;
        }
        nodes
    }
}

/// Why a spec's replay stopped before its last event.
enum Failure {
    /// Replay refused; the spec falls back as [`Walker::finish`] says.
    Refused(ReplayError),
    /// The run unwound, with this payload; `true` if the fault was
    /// injected by spec index.
    Panicked(Box<dyn std::any::Any + Send>, bool),
}

/// What a worker counts beyond its chunk records.
#[derive(Default)]
struct Tally {
    fallbacks: Vec<(usize, ReplayError)>,
    forked: usize,
    scratch: usize,
    pruned: u64,
    events: u64,
}

impl Tally {
    fn add(&mut self, mut other: Tally) {
        self.fallbacks.append(&mut other.fallbacks);
        self.forked += other.forked;
        self.scratch += other.scratch;
        self.pruned += other.pruned;
        self.events += other.events;
    }
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
    /// Chunks in the sweep's plan (DESIGN.md §5d): cheap specs are claimed
    /// in batches, so `claims < runs` whenever chunking amortized the
    /// shared counter. A walked subtree is one claim of several chunks,
    /// and counts each. A pure function of the spec list — identical
    /// across thread counts.
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
    /// Workers the sweep ran, the calling thread included: the requested
    /// thread count capped at the claim units left (DESIGN.md §5d), so 0
    /// when the record pass or a resumed journal already served every
    /// spec. Not serialized.
    pub workers: usize,
    /// Why replay refused each spec that fell back to re-execution, by
    /// spec index, in spec order. Specs a resumed checkpoint journal
    /// served are not listed: the journal keeps only whether replay
    /// served them. Not serialized.
    pub fallbacks: Vec<(usize, ReplayError)>,
    /// Specs this sweep replayed from a copy of another spec's replay
    /// rather than from the first event: their trie parent's in a walked
    /// reduce family, else the previous spec's on the same worker
    /// (DESIGN.md §5g). Depends on how the threads interleaved, so it is
    /// not serialized.
    pub forked: usize,
    /// Specs this sweep replayed from the first event. With `forked`, the
    /// specs whose replay this sweep began; a spec quarantined by an
    /// injected fault never begins one. Not serialized.
    pub scratch: usize,
    /// Events this sweep's replays fed, refused attempts included, which
    /// count up to the event they were asked to reach. Depends on how the
    /// threads interleaved, so it is not serialized.
    pub replayed_events: u64,
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

/// As [`exhaustive_check`], but running the independent SP+ sweeps on up
/// to `threads` workers: the calling thread plus scoped threads, never
/// more workers than chunks to claim, so `threads == 1` starts no thread.
/// The sweep dominates checking cost (Θ(M) + Θ(K³) serial runs), and the
/// runs share nothing, so this scales nearly linearly. Findings are
/// returned in deterministic (spec) order: worker results are
/// index-sorted before merging, so the merged report is byte-identical
/// across thread counts.
///
/// Workers claim chunks of specs from one shared atomic counter: spec
/// costs are wildly uneven (an `EveryBlock` reduce triple re-runs the
/// whole program's reduce machinery; an `AtSpawnCount` update spec may
/// steal once), so a static partition could leave one worker holding
/// every expensive spec while the rest idle. The cheap update family is
/// claimed [`UPDATE_CHUNK`] specs at a time, while every `EveryBlock`
/// spec is its own chunk, claimed alone or with the rest of its trie
/// subtree when the sweep walks the reduce family (DESIGN.md §5d, §5g).
/// Each worker pools one [`SpPlus`] instance per checkpoint slot across
/// all its runs (the engine's `begin_run` hook resets it in place), so a
/// sweep allocates O(workers) bag forests, not O(specs).
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

/// A sweep worker: its slots, and the chunk records and counts of the
/// specs it swept.
///
/// It walks each claimed [`Unit`] depth first (DESIGN.md §5g). A spec
/// runs in the slot of its depth. Its replay pauses at each child's fork
/// event, leaves the child a copy in the next slot, and waits while the
/// child's subtree runs there. Its last child, its *tail*, gets a copy
/// too but runs only after the spec has finished, in the spec's own slot.
/// In a chain, each spec's only child is that tail; at depth 0, a unit's
/// last spec takes the worker's next claim as its tail. A spec runs from
/// event 0 when its parent's replay passed the fork event, refused, or
/// panicked before reaching it.
struct Walker<'a, P> {
    program: &'a P,
    plan: &'a SweepPlan,
    faults: &'a FaultPlan,
    journal: Option<&'a Mutex<JournalWriter>>,
    journal_err: &'a Mutex<Option<String>>,
    slots: Vec<Slot>,
    /// Chunks some of whose specs are still to come.
    open: Vec<ChunkRecord>,
    records: Vec<ChunkRecord>,
    tally: Tally,
}

impl<P: Fn(&mut Ctx<'_>) + Sync> Walker<'_, P> {
    /// Sweep `unit` from depth `d`, its replay resuming from slot `d`'s
    /// copy when `resumed`, then follow its tails; at depth 0, go on with
    /// each unit `claim` hands out until it hands out none.
    fn visit(
        &mut self,
        mut unit: Unit,
        d: usize,
        mut resumed: bool,
        mut claim: Option<&mut dyn FnMut() -> Option<Unit>>,
    ) {
        let plan = self.plan;
        loop {
            let (rest, tail) = plan.kids(unit);
            let tail = tail.or_else(|| claim.as_mut().and_then(|claim| claim()));
            let copied = self.sweep_spec(unit.spec(), d, resumed, rest, tail.map(Unit::spec));
            let Some(tail) = tail else {
                return;
            };
            if copied {
                self.slots.swap(d, d + 1);
            }
            (unit, resumed) = (tail, copied);
        }
    }

    /// Sweep spec `i` in slot `d`: from the slot's copy when `resumed`,
    /// else from event 0. The replay stops at each of `rest`'s fork events
    /// to walk that child's subtree from a copy in slot `d + 1`, then
    /// leaves `tail` a copy there, then finishes. Returns whether slot
    /// `d + 1` holds `tail`'s copy.
    ///
    /// Panics are isolated per spec: an unwinding run (misbehaving monoid
    /// body, or an injected panic) quarantines the spec with its payload
    /// and a minimized reproducer, and retires the slot's tool for a fresh
    /// one (its detection state is suspect after an unwind; its check
    /// count, deterministic even for the partial run, is kept).
    fn sweep_spec(
        &mut self,
        i: usize,
        d: usize,
        resumed: bool,
        rest: &[usize],
        tail: Option<usize>,
    ) -> bool {
        let plan = self.plan;
        if self.slots.len() <= d {
            self.slots.resize_with(d + 1, Slot::default);
        }
        let mut failure = None;
        // Each spec's checks are counted from zero, or from the prefix's
        // when it resumes from a copy.
        if self.faults.panic_at.contains(&i) {
            self.slots[d].tool.checks = 0;
            let payload = catch_unwind(|| panic!("injected fault at spec {i}")).unwrap_err();
            failure = Some(Failure::Panicked(payload, true));
        } else if resumed {
            self.tally.forked += 1;
        } else {
            let slot = &mut self.slots[d];
            slot.tool.checks = 0;
            if plan.trace.is_some() {
                self.tally.scratch += 1;
                slot.replay.start(&plan.specs[i], &mut slot.tool);
            }
        }
        for &kid in rest {
            let copied = failure.is_none() && self.fork(i, d, kid, &mut failure);
            self.visit(Unit::Tree(kid), d + 1, copied, None);
        }
        let copied = failure.is_none() && tail.is_some_and(|t| self.fork(i, d, t, &mut failure));
        self.settle(i, d, failure);
        copied
    }

    /// Advance spec `i`'s replay in slot `d` to its fork event with `kid`
    /// and copy the slot into slot `d + 1` for `kid`. False, and slot
    /// `d + 1` untouched, if the replay has passed that event, or if it
    /// refused or panicked on the way there, which `failure` then keeps.
    fn fork(&mut self, i: usize, d: usize, kid: usize, failure: &mut Option<Failure>) -> bool {
        let plan = self.plan;
        let Some(trace) = plan.replays() else {
            return false;
        };
        let Some(at) = plan.fork_at(trace, i, self.slots[d].replay.event(), kid) else {
            return false;
        };
        match catch_unwind(AssertUnwindSafe(|| self.feed(d, trace, at))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                *failure = Some(Failure::Refused(e));
                return false;
            }
            Err(payload) => {
                *failure = Some(Failure::Panicked(payload, false));
                return false;
            }
        }
        if self.slots.len() <= d + 1 {
            self.slots.push(Slot::default());
        }
        let (run, copy) = self.slots.split_at_mut(d + 1);
        copy[0].tool.clone_from(&run[d].tool);
        copy[0].replay.clone_from(&run[d].replay);
        copy[0].replay.resume_as(trace, &plan.specs[kid])
    }

    /// Feed slot `d`'s replay the events of `trace` up to `stop`, counting
    /// them.
    fn feed(&mut self, d: usize, trace: &ProgramTrace, stop: usize) -> Result<(), ReplayError> {
        let slot = &mut self.slots[d];
        let from = slot.replay.event();
        self.tally.events += stop.min(trace.len()).saturating_sub(from) as u64;
        slot.replay.advance(&mut slot.tool, trace, stop)
    }

    /// Finish spec `i` in slot `d` after `failure`, if any, and record its
    /// outcome.
    fn settle(&mut self, i: usize, d: usize, failure: Option<Failure>) {
        let refused = match failure {
            Some(Failure::Panicked(payload, injected)) => {
                return self.quarantine(i, d, payload, injected)
            }
            Some(Failure::Refused(e)) => Some(e),
            None => None,
        };
        match catch_unwind(AssertUnwindSafe(|| self.finish(i, d, refused))) {
            Ok((report, refused, skipped)) => {
                self.tally.pruned += skipped;
                if let Some(e) = refused {
                    self.tally.fallbacks.push((i, e));
                }
                let replayed = refused.is_none() && self.plan.trace.is_some();
                let checks = self.slots[d].tool.checks;
                self.record(i, SpecOutcome::Checked { report, replayed }, checks);
            }
            Err(payload) => self.quarantine(i, d, payload, false),
        }
    }

    /// Quarantine spec `i`, whose run in slot `d` unwound with `payload`,
    /// and retire the slot's tool.
    fn quarantine(
        &mut self,
        i: usize,
        d: usize,
        payload: Box<dyn std::any::Any + Send>,
        injected: bool,
    ) {
        let checks = self.slots[d].tool.checks;
        self.slots[d].tool = SpPlus::new();
        let spec = self.plan.specs[i].clone();
        let minimized = minimize_panicking_spec(self.program, &spec, injected);
        let payload = payload_to_string(payload.as_ref());
        let outcome = SpecOutcome::Quarantined {
            spec,
            payload,
            minimized,
        };
        self.record(i, outcome, checks);
    }

    /// Run spec `i` in slot `d` to the end, preferring trace replay when
    /// the plan has a trace: its pruned copy first, if there is one
    /// (DESIGN.md §5h), the trace as recorded when a view-aware access
    /// reaches memory whose accesses the copy dropped, and re-execution of
    /// the program if replay reports divergence. `refused` is why the
    /// replay already stopped, if it did. Returns the report, why replay
    /// refused for a fallback, and the checks pruning skipped.
    fn finish(
        &mut self,
        i: usize,
        d: usize,
        mut refused: Option<ReplayError>,
    ) -> (RaceReport, Option<ReplayError>, u64) {
        let plan = self.plan;
        let spec = &plan.specs[i];
        if let (Some(trace), Some(first)) = (&plan.trace, plan.replays()) {
            let mut result = match refused {
                Some(e) => Err(e),
                None => self.feed(d, first, first.len()),
            };
            let mut skipped = first.dropped();
            if let Err(ReplayError::PrunedAllocation { .. }) = result {
                // From the first event: a copy slot `d + 1` holds stays on
                // the pruned trace.
                let slot = &mut self.slots[d];
                slot.replay.start(spec, &mut slot.tool);
                result = self.feed(d, trace, trace.len());
                skipped = 0;
            }
            match result {
                Ok(()) => return (self.slots[d].tool.take_report(), None, skipped),
                // Divergence: this spec's schedule makes the recorded
                // stream unreliable (see `rader_cilk::replay`); re-execute
                // honestly.
                Err(e) => refused = Some(e),
            }
        }
        let tool = &mut self.slots[d].tool;
        SerialEngine::with_spec(spec.clone()).run_tool(tool, self.program);
        (tool.take_report(), refused, 0)
    }

    /// Keep spec `i`'s outcome and checks in its chunk's record, and
    /// journal the record once the chunk's last spec is in.
    fn record(&mut self, i: usize, outcome: SpecOutcome, checks: u64) {
        let c = self.plan.chunk_of(i);
        let pos = match self.open.iter().position(|r| r.chunk_index == c) {
            Some(pos) => pos,
            None => {
                let (start, end) = self.plan.chunks[c];
                self.open.push(ChunkRecord {
                    chunk_index: c,
                    spec_start: start,
                    spec_end: end,
                    checks_delta: 0,
                    outcomes: Vec::with_capacity(end - start),
                });
                self.open.len() - 1
            }
        };
        let rec = &mut self.open[pos];
        rec.checks_delta += checks;
        rec.outcomes.push(outcome);
        if rec.outcomes.len() < rec.spec_end - rec.spec_start {
            return;
        }
        let rec = self.open.swap_remove(pos);
        if let Some(w) = self.journal {
            if let Err(e) = lock(w).write_chunk(&rec) {
                *lock(self.journal_err) = Some(e);
            }
        }
        self.records.push(rec);
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
    sweep(program, opts, threads, ctl, true, true)
}

/// [`exhaustive_check_parallel_ctl`], replaying every spec but the first
/// from a pruned trace when `prune` is set, and walking the reduce family
/// as a trie when `walk` is set and [`plan_sweep`]'s rule chooses to.
fn sweep(
    program: impl Fn(&mut Ctx<'_>) + Sync,
    opts: &CoverageOptions,
    threads: usize,
    ctl: &SweepControl,
    prune: bool,
    walk: bool,
) -> Result<ExhaustiveReport, String> {
    let plan = plan_sweep(&program, opts, prune, walk);
    let (done, writer) = open_journal(ctl, &plan)?;
    let sweep_start = Instant::now();
    let (live, tally, workers) = claim_chunks(&program, &plan, &done, writer, threads, ctl)?;
    let sweep_ns = sweep_start.elapsed().as_nanos() as u64;
    let record_ns = plan.record_ns;
    let merge_start = Instant::now();
    let mut report = merge_outcomes(plan, done, live, tally);
    report.workers = workers;
    report.timing = SweepTiming {
        record_ns,
        sweep_ns,
        merge_ns: merge_start.elapsed().as_nanos() as u64,
    };
    Ok(report)
}

/// Everything a sweep fixes before its first claim: the recorded trace
/// and its pruned copy (replay mode only), the spec list and its chunk
/// plan, the trie walk, if it walks, and the outcome of the record pass.
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
    /// The reduce family's trie, if the sweep walks it (DESIGN.md §5g).
    trie: Option<Trie>,
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

    /// The index of the chunk holding spec `i`.
    fn chunk_of(&self, i: usize) -> usize {
        self.chunks.partition_point(|&(start, _)| start <= i) - 1
    }

    /// Where spec `kid` can start from a copy of spec `i`'s replay, which
    /// is at event `pos`: their fork event, unless the replay has passed
    /// it, or it is the first event.
    fn fork_at(&self, trace: &ProgramTrace, i: usize, pos: usize, kid: usize) -> Option<usize> {
        let at = trace.fork_event(&self.specs[i], &self.specs[kid])?;
        (at > 0 && at >= pos).then_some(at)
    }

    /// The children `unit`'s spec hands a copy to while its replay is
    /// paused, and its tail, the child that runs after it, if the unit has
    /// one.
    fn kids(&self, unit: Unit) -> (&[usize], Option<Unit>) {
        match unit {
            Unit::Run { spec, end } => (
                &[],
                (spec + 1 < end).then_some(Unit::Run {
                    spec: spec + 1,
                    end,
                }),
            ),
            Unit::Tree(i) => match self
                .trie
                .as_ref()
                .map_or(&[][..], |t| t.kids(i))
                .split_last()
            {
                Some((&tail, rest)) => (rest, Some(Unit::Tree(tail))),
                None => (&[], None),
            },
        }
    }

    /// What the sweep's workers claim, in claim order: every chunk not in
    /// `done` as a [`Unit::Run`], in [`claim_order`] (`prioritize` is
    /// whether a budget reorders it), then, when `walk` and the plan has a
    /// trie, each root's subtree as a [`Unit::Tree`], largest first. A
    /// subtree `done` holds part of becomes runs of its other chunks, in
    /// plan order.
    fn units(
        &self,
        done: &BTreeMap<usize, ChunkRecord>,
        walk: bool,
        prioritize: bool,
    ) -> Vec<Unit> {
        let trie = self.trie.as_ref().filter(|_| walk);
        let walked = |c: usize| {
            trie.is_some() && matches!(self.specs[self.chunks[c].0], StealSpec::EveryBlock(_))
        };
        let run = |c: usize| {
            let (spec, end) = self.chunks[c];
            Unit::Run { spec, end }
        };
        let mut units: Vec<Unit> = claim_order(&self.specs, &self.chunks, prioritize)
            .into_iter()
            .filter(|&c| !done.contains_key(&c) && !walked(c))
            .map(run)
            .collect();
        let Some(trie) = trie else {
            return units;
        };
        for &root in &trie.roots {
            if done.is_empty() {
                units.push(Unit::Tree(root));
                continue;
            }
            let mut chunks: Vec<usize> = (trie.subtree(root).into_iter())
                .map(|i| self.chunk_of(i))
                .collect();
            if chunks.iter().any(|c| done.contains_key(c)) {
                chunks.sort_unstable();
                chunks.retain(|c| !done.contains_key(c));
                units.extend(chunks.into_iter().map(run));
            } else {
                units.push(Unit::Tree(root));
            }
        }
        units
    }

    /// Events the sweep's replays feed at one thread, with no journal,
    /// fault or refusal, when it claims `units` in order: for each spec,
    /// the trace's length less the event it starts from. Mirrors
    /// [`Walker::visit`].
    fn planned_events(&self, units: &[Unit]) -> u64 {
        let Some(trace) = self.replays() else {
            return 0;
        };
        let mut claims = units.iter().copied();
        claims.next().map_or(0, |first| {
            self.walk_events(trace, first, 0, Some(&mut claims))
        })
    }

    /// [`SweepPlan::planned_events`] of `unit` from event `start` on.
    fn walk_events(
        &self,
        trace: &ProgramTrace,
        mut unit: Unit,
        mut start: usize,
        mut claims: Option<&mut dyn Iterator<Item = Unit>>,
    ) -> u64 {
        let mut events = 0;
        loop {
            let i = unit.spec();
            let (rest, tail) = self.kids(unit);
            let tail = tail.or_else(|| claims.as_mut().and_then(|c| c.next()));
            events += (trace.len() - start) as u64;
            let mut pos = start;
            for &kid in rest {
                let at = self.fork_at(trace, i, pos, kid);
                pos = at.unwrap_or(pos);
                events += self.walk_events(trace, Unit::Tree(kid), at.unwrap_or(0), None);
            }
            let Some(tail) = tail else {
                return events;
            };
            start = self.fork_at(trace, i, pos, tail.spec()).unwrap_or(0);
            unit = tail;
        }
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
/// by pruning the trace against its own report, unless no spec after the
/// first is planned.
///
/// With `walk`, the plan walks the reduce family as a trie (DESIGN.md
/// §5g) when the chain of plan order would replay at least one whole
/// trace more events than the walk.
fn plan_sweep(
    program: &(impl Fn(&mut Ctx<'_>) + Sync),
    opts: &CoverageOptions,
    prune: bool,
    walk: bool,
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
    let (specs, k, m) = plan_specs(&stats, opts);
    // The record pass serves spec 0, so a plan of `None` alone replays
    // nothing and needs no pruned copy.
    let pruned = match (&trace, &base) {
        (Some(trace), Some(report)) if prune && specs.len() > 1 => {
            trace.pruned(&report.racy_locs())
        }
        _ => None,
    };
    let record_ns = record_start.elapsed().as_nanos() as u64;
    // Index 0 (StealSpec::None) is already served when the record pass
    // ran as the first detection run.
    let chunks = plan_chunks(&specs, base.is_some() as usize);
    let mut plan = SweepPlan {
        trace,
        pruned,
        stats,
        specs,
        k,
        m,
        chunks,
        trie: None,
        base,
        base_checks,
        record_ns,
    };
    // Below four continuations the rule cannot choose the walk: it saves
    // the events before the first continuation 2 at `K = 3`, and none
    // below (`coverage::tests::small_families_keep_the_chain`).
    if let Some(trace) = plan.replays().filter(|_| walk && k >= 4) {
        let len = trace.len() as u64;
        plan.trie = Trie::new(&plan.specs, trace);
        let none = BTreeMap::new();
        let chain = plan.planned_events(&plan.units(&none, false, false));
        let walked = plan.planned_events(&plan.units(&none, true, false));
        if chain < walked + len {
            plan.trie = None;
        }
    }
    plan
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

/// Sweep every planned chunk the journal does not already hold, on up to
/// `threads` workers that claim [`SweepPlan::units`] from one shared
/// counter. The calling thread is worker 0; the other workers are scoped
/// threads, and there are never more workers than units left to claim,
/// so a plan with nothing left to sweep runs no worker at all. A worker
/// claims its next unit when it starts the current unit's last spec, so
/// that spec can leave the next one a copy (§5g). Each completed chunk is
/// journaled before it is kept. Workers stop claiming at the budget
/// deadline or after any journal write error, which is returned. Returns
/// the chunks in completion order (the merge restores spec order), the
/// workers' summed counts, and the number of workers that ran.
fn claim_chunks(
    program: &(impl Fn(&mut Ctx<'_>) + Sync),
    plan: &SweepPlan,
    done: &BTreeMap<usize, ChunkRecord>,
    writer: Option<JournalWriter>,
    threads: usize,
    ctl: &SweepControl,
) -> Result<(Vec<ChunkRecord>, Tally, usize), String> {
    // A budget keeps the chain, so the claim order's family priority holds.
    let budget = ctl.budget.is_some();
    let units = plan.units(done, !budget, budget);
    let deadline = ctl.budget.and_then(|b| Instant::now().checked_add(b));
    let workers = threads.max(1).min(units.len());
    let writer = writer.map(Mutex::new);
    let journal_err: Mutex<Option<String>> = Mutex::new(None);
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut claim = || {
            if deadline.is_some_and(|d| Instant::now() >= d) || lock(&journal_err).is_some() {
                return None;
            }
            units.get(next.fetch_add(1, Ordering::Relaxed)).copied()
        };
        let mut walker = Walker {
            program,
            plan,
            faults: &ctl.faults,
            journal: writer.as_ref(),
            journal_err: &journal_err,
            slots: Vec::new(),
            open: Vec::new(),
            records: Vec::new(),
            tally: Tally::default(),
        };
        if let Some(first) = claim() {
            walker.visit(first, 0, false, Some(&mut claim));
        }
        (walker.records, walker.tally)
    };
    let (live, tally) = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let (mut all, mut tally) = if workers > 0 {
            worker()
        } else {
            (Vec::new(), Tally::default())
        };
        for h in helpers {
            match h.join() {
                Ok((records, t)) => {
                    all.extend(records);
                    tally.add(t);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (all, tally)
    });
    match journal_err
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        Some(err) => Err(err),
        None => Ok((live, tally, workers)),
    }
}

/// Fold every spec's outcome — from the journal, the live sweep, and the
/// record pass — into the sweep's report, in strict spec-index order.
/// That order is what makes resumed, multi-threaded, and budgeted sweeps
/// merge-identical. Timings are left zero for the caller to fill in.
fn merge_outcomes(
    plan: SweepPlan,
    done: BTreeMap<usize, ChunkRecord>,
    live: Vec<ChunkRecord>,
    mut tally: Tally,
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
    tally.fallbacks.sort_unstable_by_key(|&(i, _)| i);
    for rec in done.into_values().chain(live) {
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
        workers: 0,
        fallbacks: tally.fallbacks,
        forked: tally.forked,
        scratch: tally.scratch,
        replayed_events: tally.events,
        pruned: tally.pruned,
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

    /// The Figure-1 pattern: a spawned child installs a user cell as the
    /// view, and the continuation's get_value returns it only when the
    /// continuation is not stolen, so replay refuses some specs.
    fn aliased_get_view(cx: &mut Ctx<'_>) {
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
    }

    #[test]
    fn fallbacks_keep_why_replay_refused() {
        let program = aliased_get_view;
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

    #[test]
    fn one_worker_sweeps_run_on_the_calling_thread() {
        // Every execution of the program, the record pass and each
        // fallback re-execution alike, notes the thread it ran on.
        let ran_on = Mutex::new(Vec::new());
        let program = |cx: &mut Ctx<'_>| {
            lock(&ran_on).push(std::thread::current().id());
            aliased_get_view(cx);
        };
        let opts = CoverageOptions::default();
        let one = exhaustive_check_parallel(program, &opts, 1);
        let ids = std::mem::take(&mut *lock(&ran_on));
        assert!(!one.fallbacks.is_empty(), "no spec re-executed");
        assert_eq!(ids.len(), 1 + one.fallbacks.len());
        let caller = std::thread::current().id();
        assert!(ids.iter().all(|&id| id == caller), "{ids:?}");
        assert_eq!(one.workers, 1);
        let three = exhaustive_check_parallel(program, &opts, 3);
        assert_eq!(three.report, one.report);
        assert_eq!(three.findings, one.findings);
        assert_eq!(
            (three.claims, three.runs, three.replayed),
            (one.claims, one.runs, one.replayed)
        );
        assert_eq!(three.fallbacks, one.fallbacks);
        assert_eq!(three.workers, 3);
        // Never more workers than chunks to claim: the record pass served
        // spec 0, and every other chunk is one claim.
        let wide = exhaustive_check_parallel(program, &opts, 16);
        assert_eq!(wide.workers, wide.claims);
        assert!(wide.claims < 16, "{} claims", wide.claims);
        assert_eq!(wide.report, one.report);
    }

    #[test]
    fn spawn_free_plans_build_no_pruned_copy() {
        let program = |cx: &mut Ctx<'_>| {
            let a = cx.alloc(1);
            cx.write(a, 1);
            let _ = cx.read(a);
        };
        let opts = CoverageOptions::default();
        let plan = plan_sweep(&program, &opts, true, true);
        assert_eq!(plan.specs, [StealSpec::None]);
        assert!(plan.chunks.is_empty(), "{:?}", plan.chunks);
        assert!(plan.pruned.is_none());
        // The copy would drop the oblivious accesses, had any spec
        // replayed it.
        let racy = plan.base.as_ref().unwrap().racy_locs();
        assert!(plan.trace.as_ref().unwrap().pruned(&racy).is_some());
        assert_eq!(
            pruning_changes_only_checks("spawn-free", program, 4),
            (0, 0)
        );
        let rep = exhaustive_check_parallel(program, &opts, 4);
        assert_eq!((rep.runs, rep.claims, rep.pruned), (1, 0, 0));
        assert_eq!(rep.workers, 0, "no chunk to claim");
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
            if round == 1 {
                assert_eq!(resumed.workers, 0, "a complete journal leaves no claim");
            }
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
        let pruned = sweep(&program, &opts, threads, &ctl, true, true).unwrap();
        let full = sweep(&program, &opts, threads, &ctl, false, true).unwrap();
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
        let dropped = plan_sweep(&program, &opts, true, true)
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

    /// Sweep `program` on `threads` workers walking the reduce family
    /// where the plan's rule chooses to, and keeping the chain throughout,
    /// and demand the same verdict, accounting, quarantine and fallbacks.
    /// Returns whether the plan walked.
    fn walking_changes_nothing_reported(
        label: &str,
        program: impl Fn(&mut Ctx<'_>) + Sync,
        threads: usize,
        ctl: &SweepControl,
    ) -> bool {
        let opts = CoverageOptions::default();
        let walked = sweep(&program, &opts, threads, ctl, true, true).unwrap();
        let chain = sweep(&program, &opts, threads, ctl, true, false).unwrap();
        assert_eq!(walked.report, chain.report, "{label}");
        assert_eq!(walked.findings, chain.findings, "{label}");
        assert_eq!(
            (walked.runs, walked.replayed, walked.claims),
            (chain.runs, chain.replayed, chain.claims),
            "{label}"
        );
        assert_eq!(walked.spplus_checks, chain.spplus_checks, "{label}");
        assert_eq!(walked.quarantined, chain.quarantined, "{label}");
        assert_eq!(walked.fallbacks, chain.fallbacks, "{label}");
        assert_eq!(walked.pruned, chain.pruned, "{label}");
        plan_sweep(&program, &opts, true, true).trie.is_some()
    }

    /// Synth seeds whose programs have a sync block of at least four
    /// spawns, so their reduce family has triples under pairs, in the
    /// default corpus and in the aliasing one (whose replays refuse some
    /// specs).
    const WALKED_SYNTH: [(bool, u64); 8] = [
        (false, 671),
        (false, 843),
        (false, 1170),
        (false, 1654),
        (true, 281),
        (true, 491),
        (true, 843),
        (true, 2482),
    ];

    #[test]
    fn walked_sweeps_equal_chain_sweeps() {
        use rader_cilk::synth::{gen_program, run_synth, GenConfig};
        use rader_workloads::{fig1, suite, Scale};
        let ctl = SweepControl::default();
        let mut walks = 0;
        for threads in [1, 2, 3] {
            for (aliasing, seed) in WALKED_SYNTH {
                let cfg = GenConfig {
                    view_aliasing: aliasing,
                    reducer_reads: !aliasing,
                    ..GenConfig::default()
                };
                let prog = gen_program(seed, &cfg);
                let program = |cx: &mut Ctx<'_>| {
                    run_synth(cx, &prog);
                };
                let label = format!("synth seed {seed} aliasing {aliasing} threads {threads}");
                assert!(ProgramTrace::record(program).stats().max_sync_block >= 4);
                walks += walking_changes_nothing_reported(&label, program, threads, &ctl) as usize;
            }
            let mut paper = suite(Scale::Small);
            paper.push(fig1::workload_racy(Scale::Small));
            for w in &paper {
                let label = format!("{} threads {threads}", w.name);
                walks += walking_changes_nothing_reported(&label, &w.run, threads, &ctl) as usize;
            }
        }
        // Every synth program above walks; so do collision, ferret, fib,
        // knapsack and pbfs of the paper suite.
        assert_eq!(walks, 3 * (WALKED_SYNTH.len() + 5));
    }

    /// For a `program` whose plan keeps the chain: its `K`, the events
    /// walking its reduce family would save, which must be fewer than one
    /// trace, and the events before its first continuation 2.
    fn saved_by_walking(program: impl Fn(&mut Ctx<'_>) + Sync) -> (u32, u64, u64) {
        let mut plan = plan_sweep(&program, &CoverageOptions::default(), true, true);
        assert!(plan.trie.is_none(), "K = {} walks", plan.k);
        plan.trie = Trie::new(&plan.specs, plan.replays().unwrap());
        let none = BTreeMap::new();
        let walk = plan.planned_events(&plan.units(&none, true, false));
        let chain = plan.planned_events(&plan.units(&none, false, false));
        let trace = plan.replays().unwrap();
        let one = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
        let two = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2]));
        let before_two = trace.fork_event(&one, &two).unwrap() as u64;
        let saved = chain - walk;
        assert!(saved < trace.len() as u64);
        (plan.k, saved, before_two)
    }

    #[test]
    fn small_families_keep_the_chain() {
        use rader_workloads::{dedup, fig1, Scale};
        let (k, saved, before_two) = saved_by_walking(&dedup::workload(Scale::Small).run);
        assert_eq!((k, saved), (3, before_two));
        let (k, saved, before_two) = saved_by_walking(aliased_get_view);
        assert_eq!((k, saved), (3, before_two));
        let (k, saved, _) = saved_by_walking(&fig1::workload_racy(Scale::Small).run);
        assert_eq!((k, saved), (2, 0));
    }

    #[test]
    fn replayed_events_equal_the_planned_walk() {
        use rader_workloads::{fib, Scale};
        let w = fib::workload(Scale::Small);
        let opts = CoverageOptions::default();
        let plan = plan_sweep(&w.run, &opts, true, true);
        assert!(plan.trie.is_some(), "fib does not walk");
        let none = BTreeMap::new();
        let walk = plan.planned_events(&plan.units(&none, true, false));
        let chain = plan.planned_events(&plan.units(&none, false, false));
        assert!(walk < chain, "walk {walk} >= chain {chain}");
        let ctl = SweepControl::default();
        let walked = sweep(&w.run, &opts, 1, &ctl, true, true).unwrap();
        assert_eq!(walked.replayed_events, walk);
        let chained = sweep(&w.run, &opts, 1, &ctl, true, false).unwrap();
        assert_eq!(chained.replayed_events, chain);
        for rep in [&walked, &chained] {
            // The record pass served spec 0; every other spec replayed.
            assert_eq!(rep.forked + rep.scratch, rep.runs - 1);
        }
        // Of the reduce family, only the singletons start from event 0 in
        // the walk.
        let updates = CoverageOptions {
            max_k: Some(0),
            ..opts
        };
        let updates = sweep(&w.run, &updates, 1, &ctl, true, true).unwrap();
        assert_eq!(walked.scratch, updates.scratch + walked.k as usize);
        assert!(chained.scratch > walked.scratch);
    }

    /// Record a journal of `program`'s walked sweep at one thread, cut it
    /// after its first `keep` records, and return its path.
    fn cut_journal(
        name: &str,
        program: impl Fn(&mut Ctx<'_>) + Sync,
        keep: usize,
    ) -> std::path::PathBuf {
        let path = temp_journal(name);
        let ctl = SweepControl {
            checkpoint: CheckpointPolicy::Record(path.clone()),
            ..SweepControl::default()
        };
        exhaustive_check_parallel_ctl(program, &CoverageOptions::default(), 1, &ctl).unwrap();
        // Header, then per record `u32 len | u64 checksum | payload`.
        let bytes = std::fs::read(&path).unwrap();
        let mut end = 16;
        for _ in 0..keep {
            let len = u32::from_le_bytes(bytes[end..end + 4].try_into().unwrap()) as usize;
            end += 12 + len;
        }
        std::fs::write(&path, &bytes[..end]).unwrap();
        path
    }

    #[test]
    fn journal_cut_inside_a_walked_subtree_resumes_byte_identical() {
        use rader_workloads::{fib, Scale};
        let w = fib::workload(Scale::Small);
        let opts = CoverageOptions::default();
        let full = exhaustive_check(&w.run, &opts);
        let plan = plan_sweep(&w.run, &opts, true, true);
        let trie = plan.trie.as_ref().expect("fib walks");
        // At one thread the update family's chunks come first, then the
        // largest subtree; keep all of those but its last three specs.
        let updates = (plan.chunks.iter())
            .filter(|c| matches!(plan.specs[c.0], StealSpec::AtSpawnCount(_)))
            .count();
        let keep = updates + trie.subtree(trie.roots[0]).len() - 3;
        let path = cut_journal("walk-cut", &w.run, keep);
        let fp = journal::fingerprint("", &plan.stats, &plan.specs, &plan.chunks);
        let done = journal::load(&path, fp).unwrap().chunks;
        let units = plan.units(&done, true, false);
        // The cut subtree's last three specs run through the chain, the
        // other subtrees stay whole.
        assert!(matches!(
            units[..3],
            [Unit::Run { .. }, Unit::Run { .. }, Unit::Run { .. }]
        ));
        assert_eq!(units.len(), 3 + trie.roots.len() - 1, "{units:?}");
        let kept: usize = done.values().map(|r| r.spec_end - r.spec_start).sum();
        for threads in [1, 2] {
            let copy = temp_journal(&format!("walk-cut-{threads}"));
            std::fs::copy(&path, &copy).unwrap();
            let ctl = SweepControl {
                checkpoint: CheckpointPolicy::Resume(copy.clone()),
                ..SweepControl::default()
            };
            let resumed = exhaustive_check_parallel_ctl(&w.run, &opts, threads, &ctl).unwrap();
            assert_eq!(resumed.report, full.report, "threads {threads}");
            assert_eq!(format!("{}", resumed.report), format!("{}", full.report));
            assert_eq!(resumed.findings, full.findings);
            assert_eq!(
                (
                    resumed.runs,
                    resumed.replayed,
                    resumed.claims,
                    resumed.spplus_checks
                ),
                (full.runs, full.replayed, full.claims, full.spplus_checks)
            );
            assert_eq!(resumed.quarantined, full.quarantined);
            assert_eq!(
                resumed.forked + resumed.scratch,
                plan.specs.len() - 1 - kept
            );
            std::fs::remove_file(&copy).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_panic_at_a_walked_pair_quarantines_only_that_pair() {
        use rader_workloads::{fib, Scale};
        let w = fib::workload(Scale::Small);
        let opts = CoverageOptions::default();
        let plan = plan_sweep(&w.run, &opts, true, true);
        let trie = plan.trie.as_ref().expect("fib walks");
        let pair = trie.kids(trie.roots[0])[0];
        let triples = trie.kids(pair).len();
        assert!(triples >= 2, "the pair has {triples} triples");
        let full = exhaustive_check(&w.run, &opts);
        let ctl = SweepControl {
            faults: FaultPlan {
                panic_at: [pair].into(),
            },
            ..SweepControl::default()
        };
        for threads in [1, 2, 3] {
            let rep = exhaustive_check_parallel_ctl(&w.run, &opts, threads, &ctl).unwrap();
            let q: Vec<_> = rep
                .quarantined
                .iter()
                .map(|q| (q.spec_index, &q.spec))
                .collect();
            assert_eq!(q, [(pair, &plan.specs[pair])], "threads {threads}");
            assert!(!rep.partial);
            assert_eq!(rep.runs + 1, full.runs, "the pair's triples were swept");
            if threads == 1 {
                // The pair forked from its singleton; its triples, which
                // would have forked from it, start from event 0.
                assert_eq!(rep.scratch, full.scratch + triples);
                assert_eq!(rep.forked, full.forked - triples - 1);
            }
            let label = format!("fault at {pair}, threads {threads}");
            assert!(walking_changes_nothing_reported(
                &label, &w.run, threads, &ctl
            ));
        }
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
