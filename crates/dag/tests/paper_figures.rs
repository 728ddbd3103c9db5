//! Transcriptions of the paper's worked figures, validated strand by
//! strand.
//!
//! * **Figure 2** — the running-example computation dag: functions
//!   `a`–`f`, strands 1–16 in serial order, with the Section-3/4 peer-set
//!   and series/parallel claims asserted literally.
//! * **Figure 4** — the canonical SP parse tree: the parse-tree builder
//!   must agree with the bitset peers on every strand pair.
//! * **Figure 5** — the performance dag: stealing three continuations
//!   produces views α, β, γ, δ and reduce strands r0, r1, r2 with the
//!   stated merge structure.

use rader_cilk::{BlockOp, BlockScript, Ctx, Loc, SerialEngine, StealSpec, ViewId};
use rader_dag::{Ev, HbGraph, SpParseTree, TraceRecorder};

/// The Figure-2 program, reconstructed from the paper's prose.
///
/// Serial strand numbering (probe cell = strand number):
///
/// * `a`: strand 1; **spawn `b`** (strands 2, 3); strand 4; **spawn `c`**
///   at strand 4's end; strand 10; **call `e`** (strand 11); **spawn
///   `f`** (strands 12, 13); strand 14; sync (strand 15); strand 16.
/// * `c`: strand 5; **spawn `d`** (strands 6, 7); strand 8; sync;
///   strand 9.
///
/// This reproduces every explicit claim in Sections 3–4: 4 ≺ 9 (series);
/// 9 ∥ 10; peers(5) = peers(9); peers(1) ≠ peers(9); peers(10) ≠
/// peers(14) with 12, 13 in peers(14) but not peers(10); and peers(11) =
/// peers(10) ("strand 11 ... the same peer set as strand 10, the caller
/// of e").
fn figure2(cx: &mut Ctx<'_>, probe: Loc) {
    cx.write_idx(probe, 1, 1); // strand 1: first strand of a
    cx.spawn(|cx| {
        // function b
        cx.write_idx(probe, 2, 1);
        cx.write_idx(probe, 3, 1);
    });
    cx.write_idx(probe, 4, 1); // strand 4: continuation in a
    cx.spawn(|cx| {
        // function c
        cx.write_idx(probe, 5, 1); // strand 5: first strand of c
        cx.spawn(|cx| {
            // function d
            cx.write_idx(probe, 6, 1);
            cx.write_idx(probe, 7, 1);
        });
        cx.write_idx(probe, 8, 1); // strand 8: continuation in c
        cx.sync();
        cx.write_idx(probe, 9, 1); // strand 9: after c's sync
    });
    cx.write_idx(probe, 10, 1); // strand 10: continuation in a
    cx.call(|cx| {
        // function e, called while a has outstanding spawns
        cx.write_idx(probe, 11, 1); // strand 11
    });
    cx.spawn(|cx| {
        // function f
        cx.write_idx(probe, 12, 1);
        cx.write_idx(probe, 13, 1);
    });
    cx.write_idx(probe, 14, 1); // strand 14: continuation in a
    cx.sync(); // strand 15: the sync strand
    cx.write_idx(probe, 16, 1); // strand 16: after the sync
}

/// Map probe-cell index → HB node, via the access records.
fn strand_nodes(hb: &HbGraph) -> std::collections::BTreeMap<usize, usize> {
    hb.accesses
        .iter()
        .map(|a| (a.loc.index(), a.node))
        .collect()
}

fn fig2_trace() -> Vec<Ev> {
    let mut rec = TraceRecorder::new();
    SerialEngine::new().run_tool(&mut rec, |cx| {
        let probe = cx.alloc(32);
        figure2(cx, probe);
    });
    rec.events
}

#[test]
fn figure2_series_parallel_claims() {
    let events = fig2_trace();
    let hb = HbGraph::build(&events);
    let s = strand_nodes(&hb);
    // "strands 4 and 9 are logically in series, because strand 4
    //  precedes strand 9" (a spawned c at strand 4's end).
    assert!(hb.precedes(s[&4], s[&9]));
    // "strands 9 and 10 are logically in parallel".
    assert!(hb.parallel(s[&9], s[&10]));
    // b's strands are parallel with a's continuation and with c.
    assert!(hb.parallel(s[&2], s[&4]));
    assert!(hb.parallel(s[&3], s[&5]));
    assert!(hb.parallel(s[&2], s[&9]));
    // d is parallel with c's continuation but serial with c's post-sync.
    assert!(hb.parallel(s[&6], s[&8]));
    assert!(hb.precedes(s[&7], s[&9]));
    // f's strands are parallel with strand 14, serial with 16.
    assert!(hb.parallel(s[&12], s[&14]));
    assert!(hb.parallel(s[&13], s[&14]));
    assert!(hb.precedes(s[&12], s[&16]));
    // Serial spine.
    assert!(hb.precedes(s[&1], s[&2]));
    assert!(hb.precedes(s[&4], s[&6]));
    assert!(hb.precedes(s[&10], s[&11]));
    assert!(hb.precedes(s[&11], s[&12]));
    assert!(hb.precedes(s[&14], s[&16]));
    // The final sync serializes everything with strand 16.
    for k in 1..=14 {
        if s.contains_key(&k) {
            assert!(hb.precedes(s[&k], s[&16]), "strand {k} vs 16");
        }
    }
}

#[test]
fn figure2_peer_set_claims() {
    let events = fig2_trace();
    let hb = HbGraph::build(&events);
    let s = strand_nodes(&hb);
    // "the view of a reducer at strand 9 is guaranteed to reflect the
    //  updates since strand 5, because strands 5 and 9 have the same
    //  peers".
    assert!(hb.peers_equal(s[&5], s[&9]));
    // "the view at strand 14 ... is not guaranteed to reflect the
    //  updates since strand 10, because strands 10 and 14 do not share
    //  the same peers — strands 12 and 13 are in the peer set of strand
    //  14, but not that of strand 10".
    assert!(!hb.peers_equal(s[&10], s[&14]));
    assert!(hb.parallel(s[&12], s[&14]));
    assert!(hb.parallel(s[&13], s[&14]));
    assert!(!hb.parallel(s[&12], s[&10])); // 10 precedes 12
    assert!(!hb.parallel(s[&13], s[&10]));
    // "strand 11 has a distinct peer set from strand 1, but the same
    //  peer set as strand 10, the caller of e".
    assert!(hb.peers_equal(s[&11], s[&10]));
    assert!(!hb.peers_equal(s[&11], s[&1]));
    // "suppose that strands 1 and 9 read the value of the reducer.
    //  Because strands 1 and 9 do not share the same peer set, a
    //  view-read race exists between strands 1 and 9."
    assert!(!hb.peers_equal(s[&1], s[&9]));
}

/// The Peer-Set algorithm itself on the Figure-2 reads: reducer-reads at
/// strands 1 and 9 must be reported; reads at 5 and 9 must not.
#[test]
fn figure2_peerset_detector_agrees() {
    use rader_cilk::synth::SynthAdd;
    use std::sync::Arc;
    // Reads at strands 1 and 9 → race.
    let mut tool = rader_core_peerset();
    SerialEngine::new().run_tool(&mut tool, |cx| {
        let h = cx.new_reducer(Arc::new(SynthAdd)); // read at strand 1
        cx.spawn(|cx| {
            cx.spawn(|_| {});
            cx.sync();
            let _ = cx.reducer_get_view(h); // read at c's strand 9
        });
        cx.sync();
    });
    assert_eq!(tool.report().view_read.len(), 1);

    // Reads at strands 5 and 9 (inside c, same peers) → clean.
    let mut tool = rader_core_peerset();
    SerialEngine::new().run_tool(&mut tool, |cx| {
        cx.spawn(|_| {}); // b, so c is genuinely parallel to something
        cx.spawn(|cx| {
            // function c
            let h = cx.new_reducer(Arc::new(SynthAdd)); // read at strand 5
            cx.spawn(|_| {}); // d
            cx.sync();
            let _ = cx.reducer_get_view(h); // read at strand 9
        });
        cx.sync();
    });
    assert!(!tool.report().has_races(), "{}", tool.report());
}

fn rader_core_peerset() -> rader_core::PeerSet {
    rader_core::PeerSet::new()
}

#[test]
fn figure4_parse_tree_matches_bitset_peers() {
    let events = fig2_trace();
    let hb = HbGraph::build(&events);
    let tree = SpParseTree::build(&events);
    for u in 0..hb.len() {
        for v in 0..hb.len() {
            assert_eq!(tree.parallel(u, v), hb.parallel(u, v), "({u},{v})");
            assert_eq!(tree.peers_equal(u, v), hb.peers_equal(u, v), "({u},{v})");
        }
    }
}

/// Figure 5: three stolen continuations in one sync block of `a` create
/// views α(0 = the frame's entry view), β(1), γ(2), δ(3), destroyed by
/// reduce strands r0, r1, r2 with the dominated (newer) view always
/// folding into its adjacent dominating view.
#[test]
fn figure5_view_lifecycle() {
    use rader_cilk::synth::SynthAdd;
    use std::sync::Arc;
    // The paper's schedule: steals after continuations 1, 2, 3; r0
    // executes eagerly before the third steal; the rest at the sync.
    let spec = StealSpec::EveryBlock(BlockScript::new(vec![
        BlockOp::Steal(1),
        BlockOp::Steal(2),
        BlockOp::Reduce,
        BlockOp::Steal(3),
    ]));
    let mut rec = TraceRecorder::new();
    let stats = SerialEngine::with_spec(spec).run_tool(&mut rec, |cx| {
        let h = cx.new_reducer(Arc::new(SynthAdd));
        cx.spawn(move |cx| cx.reducer_update(h, &[1])); // b
        cx.reducer_update(h, &[2]);
        cx.spawn(move |cx| cx.reducer_update(h, &[4])); // c/d subtree
        cx.reducer_update(h, &[8]);
        cx.spawn(move |cx| cx.reducer_update(h, &[16])); // e
        cx.reducer_update(h, &[32]);
        cx.sync();
        let v = cx.reducer_get_view(h);
        assert_eq!(cx.read(v), 63); // all updates folded exactly once
    });
    assert_eq!(stats.steals, 3, "three continuations stolen");
    assert_eq!(stats.reduce_merges, 3, "r0, r1, r2");

    // Merge structure: the eager reduce merges 2 into 1 (the then-top
    // adjacent pair); the sync merges 3 into 1, then 1 into 0 — every
    // merge destroys the dominated (newer) view.
    let merges: Vec<(ViewId, ViewId)> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            Ev::Reduce(_, dst, src) => Some((*dst, *src)),
            _ => None,
        })
        .collect();
    assert_eq!(
        merges,
        vec![
            (ViewId(1), ViewId(2)),
            (ViewId(1), ViewId(3)),
            (ViewId(0), ViewId(1)),
        ]
    );
    for (dst, src) in merges {
        assert!(dst < src, "a dominated view must fold into an older one");
    }

    // Reduce strands are parallel to later user strands of the block but
    // precede the sync (the performance-dag reduce tree).
    let hb = HbGraph::build(&rec.events);
    let reduce_nodes: Vec<usize> = hb
        .accesses
        .iter()
        .filter(|a| a.kind == rader_cilk::AccessKind::Reduce)
        .map(|a| a.node)
        .collect();
    assert!(!reduce_nodes.is_empty());
    let update32 = hb
        .accesses
        .iter()
        .rfind(|a| a.kind == rader_cilk::AccessKind::Update)
        .unwrap();
    assert!(hb.parallel(reduce_nodes[0], update32.node));
}

/// Determinism across the paper's Figure-5 schedule and the trivial
/// schedule: the reducer contract the figures illustrate.
#[test]
fn figure5_schedule_equivalence() {
    use rader_cilk::synth::{gen_racefree, run_synth, GenConfig};
    let spec_fig5 = StealSpec::EveryBlock(BlockScript::new(vec![
        BlockOp::Steal(1),
        BlockOp::Steal(2),
        BlockOp::Reduce,
        BlockOp::Steal(3),
    ]));
    let cfg = GenConfig::default();
    for seed in 0..20 {
        let p = gen_racefree(seed, &cfg);
        let mut a = Vec::new();
        SerialEngine::new().run(|cx| a = run_synth(cx, &p));
        let mut b = Vec::new();
        SerialEngine::with_spec(spec_fig5.clone()).run(|cx| b = run_synth(cx, &p));
        assert_eq!(a, b, "seed {seed}");
    }
}
