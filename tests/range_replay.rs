//! Run-granular replay differential.
//!
//! Replay feeds each recorded run of consecutive user accesses to the
//! attached tool as one `read_range` / `write_range` call, and SP+
//! overrides those hooks with a loop that hoists its per-access setup
//! (DESIGN.md §5f). This suite checks that the override is exact: on the
//! access-heavy paper programs, under the no-steal schedule and seeded
//! random steal specifications, SP+ through its range hooks must end with
//! the same `RaceReport`, counters and `RunStats` as SP+ behind a wrapper
//! that forwards only the per-element hooks, so the provided defaults
//! unpack every run into single `read` / `write` calls.

use rader_cilk::{
    AccessKind, Ctx, EnterKind, FrameId, Loc, ProgramTrace, ReducerId, ReducerReadKind, RunStats,
    SerialEngine, StealSpec, StrandId, Tool, ViewId,
};
use rader_core::SpPlus;
use rader_workloads::{collision, dedup, ferret, pbfs};

/// SP+ with the range hooks left at their defaults: every run reaches it
/// one element at a time, as on the live path.
struct PerElement(SpPlus);

impl Tool for PerElement {
    fn begin_run(&mut self) {
        self.0.begin_run()
    }
    fn frame_enter(&mut self, frame: FrameId, kind: EnterKind) {
        self.0.frame_enter(frame, kind)
    }
    fn frame_label(&mut self, frame: FrameId, label: &'static str) {
        self.0.frame_label(frame, label)
    }
    fn frame_leave(&mut self, frame: FrameId, kind: EnterKind) {
        self.0.frame_leave(frame, kind)
    }
    fn sync(&mut self, frame: FrameId) {
        self.0.sync(frame)
    }
    fn stolen_continuation(&mut self, frame: FrameId, vid: ViewId) {
        self.0.stolen_continuation(frame, vid)
    }
    fn reduce_merge(&mut self, frame: FrameId, dst: ViewId, src: ViewId) {
        self.0.reduce_merge(frame, dst, src)
    }
    fn read(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.0.read(frame, strand, loc, kind)
    }
    fn write(&mut self, frame: FrameId, strand: StrandId, loc: Loc, kind: AccessKind) {
        self.0.write(frame, strand, loc, kind)
    }
    fn reducer_read(&mut self, frame: FrameId, strand: StrandId, h: ReducerId, k: ReducerReadKind) {
        self.0.reducer_read(frame, strand, h, k)
    }
}

/// Counts the range hooks the engine fires and the accesses they carry.
#[derive(Default)]
struct RangeCount {
    ranges: u64,
    accesses: u64,
}

impl Tool for RangeCount {
    fn read_range(&mut self, _: FrameId, _: StrandId, _: Loc, len: u32, _: AccessKind) {
        self.ranges += 1;
        self.accesses += u64::from(len);
    }
    fn write_range(&mut self, _: FrameId, _: StrandId, _: Loc, len: u32, _: AccessKind) {
        self.ranges += 1;
        self.accesses += u64::from(len);
    }
}

/// The no-steal schedule and four seeded random specifications sized to
/// the trace's largest sync block.
fn specs(stats: &RunStats, seed: u64) -> Vec<StealSpec> {
    let mut specs = vec![StealSpec::None];
    specs.extend((0..4u64).map(|i| StealSpec::Random {
        seed: seed * 31 + i,
        max_block: stats.max_sync_block.max(1),
        steals_per_block: 1 + (i % 3) as u32,
    }));
    specs
}

/// Returns the number of races SP+ reported over all specs.
fn assert_range_path_is_exact(name: &str, seed: u64, program: impl Fn(&mut Ctx<'_>)) -> usize {
    let trace = ProgramTrace::record(&program);
    let mut ranged = SpPlus::new();
    let mut per_element = PerElement(SpPlus::new());
    let mut races = 0;
    for spec in specs(trace.stats(), seed) {
        let engine = SerialEngine::with_spec(spec.clone());
        let ranged_stats = engine
            .replay_tool(&mut ranged, &trace)
            .unwrap_or_else(|e| panic!("{name} seed {seed} {spec:?}: replay failed: {e}"));
        let per_element_stats = engine
            .replay_tool(&mut per_element, &trace)
            .unwrap_or_else(|e| panic!("{name} seed {seed} {spec:?}: replay failed: {e}"));
        let ctx = format!("{name} seed {seed} {spec:?}");
        assert_eq!(ranged.report(), per_element.0.report(), "{ctx}: reports");
        assert_eq!(ranged_stats, per_element_stats, "{ctx}: RunStats");
        assert_eq!(ranged.checks, per_element.0.checks, "{ctx}: checks");
        assert_eq!(ranged.steals, per_element.0.steals, "{ctx}: steals");
        assert_eq!(ranged.reduces, per_element.0.reduces, "{ctx}: reduces");
        races += ranged.report().determinacy.len();

        if !spec.is_none() {
            assert!(ranged_stats.steals > 0, "{ctx}: the spec stole nothing");
        }

        let mut count = RangeCount::default();
        engine
            .replay_tool(&mut count, &trace)
            .expect("replayed above");
        assert!(
            count.ranges > 0,
            "{ctx}: no access run reached the range hooks"
        );
        assert!(
            count.accesses <= ranged_stats.reads + ranged_stats.writes,
            "{ctx}: range hooks carried more accesses than the run made"
        );
    }
    races
}

#[test]
fn range_hooks_match_per_element_replay_on_access_heavy_programs() {
    for seed in 0..2u64 {
        let scene = collision::gen_scene(8, seed);
        assert_range_path_is_exact("collision", seed, |cx| {
            collision::collision_program(cx, &scene);
        });
        let stream = dedup::gen_stream(16, seed);
        assert_range_path_is_exact("dedup", seed, |cx| {
            dedup::dedup_program(cx, &stream);
        });
        let corpus = ferret::gen_corpus(60, 4, seed);
        assert_range_path_is_exact("ferret", seed, |cx| {
            ferret::ferret_program(cx, &corpus);
        });
        let graph = pbfs::gen_graph(200, 4, seed);
        assert_range_path_is_exact("pbfs", seed, |cx| {
            pbfs::pbfs_program(cx, &graph, 0);
        });
        let races = assert_range_path_is_exact("pbfs-racy", seed, |cx| {
            pbfs::pbfs_racy_program(cx, &graph, 0);
        });
        assert!(races > 0, "pbfs-racy seed {seed}: no race reported");
    }
}

#[test]
fn range_hooks_match_per_element_replay_on_racing_runs() {
    // Spawned children write disjoint slices of an array while the
    // continuation scans it and then rewrites a window: every race falls
    // inside a recorded run, some in its middle.
    let program = |cx: &mut Ctx<'_>| {
        let a = cx.alloc(32);
        for k in 0..4 {
            cx.spawn(move |cx| {
                for i in 0..4 {
                    cx.write(a.at(8 * k + 2 + i), 1);
                }
            });
        }
        let mut sum = 0;
        for i in 0..32 {
            sum += cx.read(a.at(i));
        }
        for i in 12..20 {
            cx.write(a.at(i), sum);
        }
        cx.sync();
    };
    let races = assert_range_path_is_exact("scan", 0, program);
    assert!(races > 0, "the racing scan reported nothing");
}
