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

#[test]
fn random_blocks_fire_their_scripts_while_outer_blocks_stay_open() {
    /// Per sync block, the continuation indices whose steals fired.
    /// Blocks are numbered in the order their first spawned child
    /// returns, as the engine numbers them.
    #[derive(Default)]
    struct BlockSteals {
        /// One open block per live frame: spawns so far, number, steals.
        open: Vec<(u32, Option<u64>, Vec<u32>)>,
        next_seq: u64,
        /// `(number, spawns, fired steals)` of every numbered block.
        closed: Vec<(u64, u32, Vec<u32>)>,
    }
    impl rader_cilk::Tool for BlockSteals {
        fn frame_enter(&mut self, _: rader_cilk::FrameId, kind: rader_cilk::EnterKind) {
            if kind == rader_cilk::EnterKind::Spawn {
                self.open.last_mut().expect("spawn has a parent").0 += 1;
            }
            self.open.push((0, None, Vec::new()));
        }
        fn frame_leave(&mut self, _: rader_cilk::FrameId, kind: rader_cilk::EnterKind) {
            self.open.pop();
            if kind == rader_cilk::EnterKind::Spawn {
                let parent = self.open.last_mut().expect("spawn has a parent");
                if parent.1.is_none() {
                    parent.1 = Some(self.next_seq);
                    self.next_seq += 1;
                }
            }
        }
        fn stolen_continuation(&mut self, _: rader_cilk::FrameId, _: rader_cilk::ViewId) {
            let block = self.open.last_mut().expect("steal in a frame");
            block.2.push(block.0);
        }
        fn sync(&mut self, _: rader_cilk::FrameId) {
            let block = self.open.last_mut().expect("sync in a frame");
            if let Some(seq) = block.1.take() {
                self.closed
                    .push((seq, block.0, std::mem::take(&mut block.2)));
            }
            block.0 = 0;
        }
    }

    /// Two sync blocks per frame of 3 to 5 spawns each, spawns nested
    /// `depth` deep; every leaf adds 1 to `h`. A child's blocks run while
    /// its parent's block (numbered once its first child returned) is
    /// open, so they refill scripts recycled from earlier siblings.
    fn tree(cx: &mut rader_cilk::Ctx<'_>, h: rader_cilk::ReducerId, depth: u32, salt: u32) {
        if depth == 0 {
            cx.reducer_update(h, &[1]);
            return;
        }
        for block in 0..2 {
            let n = 3 + (salt + block) % 3;
            for i in 0..n {
                cx.spawn(move |cx| tree(cx, h, depth - 1, salt * 7 + i + block));
            }
            cx.sync();
        }
    }

    let spec = StealSpec::Random {
        seed: 0x7ade7,
        max_block: 5,
        steals_per_block: 3,
    };
    let mut tool = BlockSteals::default();
    let mut sum = 0;
    let stats = SerialEngine::with_spec(spec.clone()).run_tool(&mut tool, |cx| {
        let h = cx.new_reducer(Arc::new(SynthAdd));
        tree(cx, h, 3, 0);
        let v = cx.reducer_get_view(h);
        sum = cx.read(v);
    });
    // Every inner frame (the root among them) closed two numbered blocks.
    let leaves = stats.frames - tool.closed.len() as u64 / 2;
    assert_eq!(
        sum as u64, leaves,
        "every leaf's update survives the reduces"
    );
    assert_eq!(tool.closed.len() as u64, tool.next_seq);
    let mut fired = 0;
    let mut short = 0;
    for (seq, spawns, steals) in &tool.closed {
        let script = spec.block_script(*seq).expect("Random scripts every block");
        let want: Vec<u32> = script
            .ops()
            .iter()
            .filter_map(|op| match *op {
                rader_cilk::BlockOp::Steal(i) if i <= *spawns => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(steals, &want, "block {seq} with {spawns} spawns");
        fired += steals.len() as u64;
        short += usize::from(want.len() < script.steal_count());
    }
    assert_eq!(fired, stats.steals);
    assert!(
        short > 0 && short < tool.closed.len(),
        "some but not all blocks are shorter than their picks"
    );
}
