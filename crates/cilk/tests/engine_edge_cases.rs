//! Engine edge cases: degenerate structures the detectors must survive.

use std::sync::Arc;

use rader_cilk::synth::SynthAdd;
use rader_cilk::{BlockScript, CountingTool, SerialEngine, StealSpec};

#[test]
fn empty_program() {
    let stats = SerialEngine::new().run(|_cx| {});
    assert_eq!(stats.frames, 1);
    assert_eq!(stats.steals, 0);
}

#[test]
fn sync_without_spawns_is_harmless() {
    let stats = SerialEngine::new().run(|cx| {
        cx.sync();
        cx.sync();
        cx.sync();
    });
    assert_eq!(stats.frames, 1);
}

#[test]
fn sync_without_spawns_under_specs() {
    for spec in [
        StealSpec::EveryBlock(BlockScript::steals(vec![1])),
        StealSpec::AtSpawnCount(1),
    ] {
        let stats = SerialEngine::with_spec(spec).run(|cx| {
            cx.sync();
            cx.call(|cx| cx.sync());
            cx.sync();
        });
        assert_eq!(stats.steals, 0, "no spawns, no continuations, no steals");
    }
}

#[test]
fn deep_call_chain() {
    fn rec(cx: &mut rader_cilk::Ctx<'_>, d: u32) {
        if d > 0 {
            cx.call(|cx| rec(cx, d - 1));
        }
    }
    let stats = SerialEngine::new().run(|cx| rec(cx, 200));
    assert_eq!(stats.frames, 201);
}

#[test]
fn deep_spawn_chain_under_steals() {
    fn rec(cx: &mut rader_cilk::Ctx<'_>, d: u32) {
        if d > 0 {
            cx.spawn(move |cx| rec(cx, d - 1));
            cx.sync();
        }
    }
    let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
    let stats = SerialEngine::with_spec(spec).run(|cx| rec(cx, 100));
    assert_eq!(stats.frames, 101);
    assert_eq!(stats.steals, 100);
    assert_eq!(stats.reduce_merges, 100);
}

#[test]
fn empty_par_for() {
    let stats = SerialEngine::new().run(|cx| {
        cx.par_for(0..0, 4, &mut |_, _| panic!("must not run"));
    });
    assert!(stats.frames >= 1);
}

#[test]
fn single_iteration_par_for() {
    let mut hits = 0;
    SerialEngine::new().run(|cx| {
        cx.par_for(5..6, 1, &mut |_cx, i| {
            assert_eq!(i, 5);
            hits += 1;
        });
    });
    assert_eq!(hits, 1);
}

#[test]
fn nested_par_for() {
    let mut grid = [0u32; 36];
    SerialEngine::new().run(|cx| {
        let cells = cx.alloc(36);
        cx.par_for(0..6, 2, &mut |cx, i| {
            cx.par_for(0..6, 2, &mut |cx, j| {
                let idx = (i * 6 + j) as usize;
                let v = cx.read_idx(cells, idx);
                cx.write_idx(cells, idx, v + 1);
            });
        });
        for (k, g) in grid.iter_mut().enumerate() {
            *g = cx.read_idx(cells, k) as u32;
        }
    });
    assert!(grid.iter().all(|&v| v == 1));
}

#[test]
fn steal_indices_beyond_block_size_are_ignored() {
    // Script asks for continuation 5 but blocks only have 2 spawns.
    let spec = StealSpec::EveryBlock(BlockScript::steals(vec![5]));
    let stats = SerialEngine::with_spec(spec).run(|cx| {
        cx.spawn(|_| {});
        cx.spawn(|_| {});
        cx.sync();
    });
    assert_eq!(stats.steals, 0);
}

#[test]
fn reduce_tokens_with_no_views_are_noops() {
    let spec = StealSpec::EveryBlock(BlockScript::new(vec![
        rader_cilk::BlockOp::Reduce,
        rader_cilk::BlockOp::Steal(1),
        rader_cilk::BlockOp::Reduce,
        rader_cilk::BlockOp::Reduce,
        rader_cilk::BlockOp::Steal(2),
    ]));
    let mut out = 0;
    let stats = SerialEngine::with_spec(spec).run(|cx| {
        let h = cx.new_reducer(Arc::new(SynthAdd));
        cx.spawn(move |cx| cx.reducer_update(h, &[1]));
        cx.spawn(move |cx| cx.reducer_update(h, &[2]));
        cx.sync();
        let v = cx.reducer_get_view(h);
        out = cx.read(v);
    });
    assert_eq!(out, 3);
    // The first Reduce token before Steal(1) had nothing to merge; the
    // extra one before Steal(2) merged view 1 early; all views merged by
    // the end.
    assert_eq!(stats.steals, stats.reduce_merges);
}

#[test]
fn many_reducers_in_one_program() {
    let mut sums = Vec::new();
    SerialEngine::with_spec(StealSpec::EveryBlock(BlockScript::steals(vec![1]))).run(|cx| {
        let hs: Vec<_> = (0..32)
            .map(|_| cx.new_reducer(Arc::new(SynthAdd)))
            .collect();
        for (i, &h) in hs.iter().enumerate() {
            cx.spawn(move |cx| cx.reducer_update(h, &[i as i64]));
        }
        cx.sync();
        for &h in &hs {
            let v = cx.reducer_get_view(h);
            sums.push(cx.read(v));
        }
    });
    assert_eq!(sums, (0..32i64).collect::<Vec<_>>());
}

#[test]
fn reducer_never_updated_reads_identity_everywhere() {
    for spec in [
        StealSpec::None,
        StealSpec::EveryBlock(BlockScript::steals(vec![1, 2])),
    ] {
        let mut out = -1;
        SerialEngine::with_spec(spec).run(|cx| {
            let h = cx.new_reducer(Arc::new(SynthAdd));
            cx.spawn(|_| {});
            cx.spawn(|_| {});
            cx.sync();
            let v = cx.reducer_get_view(h);
            out = cx.read(v);
        });
        assert_eq!(out, 0);
    }
}

#[test]
fn labels_reach_tools() {
    #[derive(Default)]
    struct LabelTool(Vec<(rader_cilk::FrameId, &'static str)>);
    impl rader_cilk::Tool for LabelTool {
        fn frame_label(&mut self, frame: rader_cilk::FrameId, label: &'static str) {
            self.0.push((frame, label));
        }
    }
    let mut t = LabelTool::default();
    SerialEngine::new().run_tool(&mut t, |cx| {
        cx.label_frame("root");
        cx.spawn(|cx| cx.label_frame("child"));
        cx.sync();
    });
    assert_eq!(t.0.len(), 2);
    assert_eq!(t.0[0].1, "root");
    assert_eq!(t.0[1].1, "child");
    assert_ne!(t.0[0].0, t.0[1].0);
}

#[test]
fn counting_tool_consistency_across_specs() {
    // User-visible event counts (frames, accesses, reducer-reads) are
    // schedule-independent; steals/reduces vary with the spec.
    let prog = |cx: &mut rader_cilk::Ctx<'_>| {
        let h = cx.new_reducer(Arc::new(SynthAdd));
        for i in 0..6 {
            cx.spawn(move |cx| cx.reducer_update(h, &[i]));
        }
        cx.sync();
        let v = cx.reducer_get_view(h);
        let _ = cx.read(v);
    };
    let mut base = CountingTool::default();
    SerialEngine::new().run_tool(&mut base, prog);
    let mut other = CountingTool::default();
    SerialEngine::with_spec(StealSpec::EveryBlock(BlockScript::steals(vec![2, 4])))
        .run_tool(&mut other, prog);
    assert_eq!(base.frame_enters, other.frame_enters);
    assert_eq!(base.reducer_reads, other.reducer_reads);
    // View-aware traffic grows with steals (create-identity + reduces).
    assert!(other.view_aware_accesses > base.view_aware_accesses);
}

#[test]
fn frame_depth_statistic() {
    fn rec(cx: &mut rader_cilk::Ctx<'_>, d: u32) {
        if d > 0 {
            cx.call(|cx| rec(cx, d - 1));
        }
    }
    let stats = SerialEngine::new().run(|cx| rec(cx, 17));
    assert_eq!(stats.max_frame_depth, 18); // root + 17 calls
}
