//! The paper's Figure 1, transcribed.
//!
//! `update_list` wraps a user list in a reducer (`set_value`), spawns
//! `foo`, runs a parallel loop of inserts, syncs, and reads the value
//! back. `race` spawns `scan_list` over a *copy* of the list and calls
//! `update_list` on the copy in the continuation.
//!
//! The bug: the copy constructor is **shallow** — the copy shares the
//! original's chain of nodes, so `update_list`'s view management splices
//! new nodes onto the shared tail. Whenever `scan_list` reads the last
//! node's null `next` pointer, some logically parallel strand of
//! `update_list` — *the `Reduce` operation*, under schedules where the
//! loop runs on stolen views — may be writing that same pointer.
//!
//! [`race_program`] (shallow copy) exhibits the determinacy race;
//! [`race_program_fixed`] (deep copy) does not. `update_list` as written
//! has no view-read race; [`update_list_premature_get`] moves the
//! `get_value` before the sync, creating one (the paper's Section-2
//! discussion).

use rader_cilk::{Ctx, Word};
use rader_reducers::{ListMonoid, Monoid, MyList, RedHandle};

use crate::{Scale, Workload};

/// `update_list(n, list)`: wraps `list` in a reducer, spawns `foo`,
/// inserts `0..n` in a parallel loop, syncs, reads the value back.
pub fn update_list(cx: &mut Ctx<'_>, n: u64, list: MyList) -> MyList {
    // A Cilk function: runs in its own frame (this matters — the
    // reducer-reads inside share the frame's peer set regardless of the
    // caller's outstanding spawns).
    let mut out = list;
    cx.call(|cx| {
        cx.label_frame("update_list");
        let red: RedHandle<ListMonoid> = ListMonoid::register(cx);
        red.set_list(cx, &list);
        cx.spawn(move |cx| {
            cx.label_frame("foo");
            foo(cx, n, red)
        });
        cx.par_for(0..n, 2, &mut |cx, i| {
            red.push_back(cx, i as Word);
        });
        cx.sync();
        out = red.get_list(cx);
    });
    out
}

/// `foo`: "some computation" spawned with the reducer in scope (paper,
/// Figure 1 line 4). It only reads its own data here — which makes the
/// *final `Reduce`* the unique writer of the original list's tail, so
/// the determinacy race with `scan_list` is attributable precisely to a
/// reduce strand, as the paper's Section-2 walkthrough describes.
fn foo(cx: &mut Ctx<'_>, n: u64, _red: RedHandle<ListMonoid>) {
    let scratch = cx.alloc(4);
    for i in 0..n {
        let v = cx.read_idx(scratch, (i % 4) as usize);
        cx.write_idx(scratch, (i % 4) as usize, v + i as Word);
    }
}

/// `scan_list`: iterate until a node with a null `next` pointer,
/// returning the element count (Figure 1's `length = scan_list(list)`).
pub fn scan_list(cx: &mut Ctx<'_>, list: MyList) -> usize {
    list.scan(cx).len()
}

/// Figure 1's `race(n, list)` with the **shallow**-copy bug.
pub fn race_program(cx: &mut Ctx<'_>, n: u64) -> usize {
    let list = MyList::new(cx);
    for i in 0..3 {
        list.push_back(cx, i);
    }
    let mut length = 0;
    let copy = list.shallow_copy(cx); // BUG: shares the node chain
    let out = &mut length;
    cx.spawn(move |cx| {
        cx.label_frame("scan_list");
        *out = scan_list(cx, list);
    });
    let _updated = update_list(cx, n, copy);
    cx.sync();
    length
}

/// The fixed `race` routine: a deep copy breaks the sharing.
pub fn race_program_fixed(cx: &mut Ctx<'_>, n: u64) -> usize {
    let list = MyList::new(cx);
    for i in 0..3 {
        list.push_back(cx, i);
    }
    let mut length = 0;
    let copy = list.deep_copy(cx); // fixed
    let out = &mut length;
    cx.spawn(move |cx| {
        *out = scan_list(cx, list);
    });
    let _updated = update_list(cx, n, copy);
    cx.sync();
    length
}

/// `update_list` with the `get_value` moved before the `cilk_sync` —
/// the paper's example of a view-read race.
pub fn update_list_premature_get(cx: &mut Ctx<'_>, n: u64) {
    cx.call(|cx| {
        let list = MyList::new(cx);
        let red: RedHandle<ListMonoid> = ListMonoid::register(cx);
        red.set_list(cx, &list);
        cx.spawn(move |cx| {
            cx.label_frame("foo");
            foo(cx, n, red)
        });
        let _early = red.get_list(cx); // VIEW-READ RACE: foo outstanding
        cx.sync();
    });
}

/// A tiny Figure-1 workload for demo binaries.
pub fn workload(_scale: Scale) -> Workload {
    Workload {
        name: "fig1",
        run: Box::new(move |cx| {
            let len = race_program_fixed(cx, 16);
            assert_eq!(len, 3);
        }),
    }
}

/// The **buggy** Figure-1 program as a suite workload. Its determinacy
/// race hides inside a `Reduce` strand that only exists under schedules
/// with steals, so a single-schedule check can report it clean; the
/// Section-7 sweep always elicits it. Used to validate that the suite
/// pipeline (and CI) flags a racy table entry with a nonzero exit.
pub fn workload_racy(_scale: Scale) -> Workload {
    Workload {
        name: "fig1-racy",
        run: Box::new(move |cx| {
            race_program(cx, 8);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{AccessKind, BlockScript, SerialEngine, StealSpec};
    use rader_core::{PeerSet, RaceReport, SpBags, SpPlus};

    /// The steal spec that makes the Figure-1 race bite: the scanner's
    /// continuation (and each block's first continuation) is stolen.
    fn biting_spec() -> StealSpec {
        StealSpec::EveryBlock(BlockScript::steals(vec![1]))
    }

    /// SP+ on the one schedule `spec`.
    fn sp_plus(spec: StealSpec, program: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = SpPlus::new();
        SerialEngine::with_spec(spec).run_tool(&mut tool, program);
        tool.into_report()
    }

    /// Peer-Set on the serial run.
    fn peer_set(program: impl FnOnce(&mut Ctx<'_>)) -> RaceReport {
        let mut tool = PeerSet::new();
        SerialEngine::new().run_tool(&mut tool, program);
        tool.into_report()
    }

    #[test]
    fn buggy_program_races_in_a_reduce_strand() {
        let r = sp_plus(biting_spec(), |cx| {
            race_program(cx, 16);
        });
        assert!(r.has_races(), "Figure 1 race missed");
        assert!(
            r.determinacy
                .iter()
                .any(|race| race.current.kind == AccessKind::Reduce
                    || race.prior.kind == AccessKind::Reduce
                    || race.current.kind == AccessKind::Update
                    || race.prior.kind == AccessKind::Update),
            "race should involve a view-aware strand: {r}"
        );
    }

    #[test]
    fn fixed_program_is_clean() {
        let v = crate::verdict(|cx| {
            race_program_fixed(cx, 16);
        });
        assert!(v.clean(), "{}", v.report);
    }

    #[test]
    fn spbags_cannot_be_trusted_with_reducers() {
        // The paper's motivation, both directions. (a) Run on a schedule
        // with steals, view-unaware SP-bags reports *spurious* races on
        // view memory (it treats same-view strands as racing), where SP+
        // matches the exact oracle. (b) SP-bags has no notion of reduce
        // strands, so its verdicts carry no guarantee for the racy
        // locations reducers introduce.
        let spec = biting_spec();
        let mut spb = SpBags::new();
        SerialEngine::with_spec(spec.clone()).run_tool(&mut spb, |cx| {
            race_program_fixed(cx, 16);
        });
        // The FIXED program is race-free (SP+ and the oracle agree), yet
        // SP-bags flags view-memory "races".
        assert!(
            spb.report().has_races(),
            "expected SP-bags false positives on reducer view memory"
        );
        let r = sp_plus(spec.clone(), |cx| {
            race_program_fixed(cx, 16);
        });
        assert!(!r.has_races(), "{r}");
        // And the genuinely racy program is caught by SP+.
        let r = sp_plus(spec, |cx| {
            race_program(cx, 16);
        });
        assert!(r.has_races());
    }

    #[test]
    fn exhaustive_sweep_finds_the_race_without_hand_picked_spec() {
        let v = crate::verdict(|cx| {
            race_program(cx, 8);
        });
        assert!(v.sweep.report.has_races(), "coverage sweep missed Figure 1");
        assert!(v.minimized.is_some());
    }

    #[test]
    fn premature_get_is_a_view_read_race() {
        let r = peer_set(|cx| {
            update_list_premature_get(cx, 8);
        });
        assert_eq!(r.view_read.len(), 1, "{r}");
    }

    #[test]
    fn correct_update_list_has_no_view_read_race() {
        let r = peer_set(|cx| {
            let list = MyList::new(cx);
            update_list(cx, 8, list);
        });
        assert!(!r.has_races(), "{r}");
    }
}
