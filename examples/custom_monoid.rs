//! Defining your own reducer: a user-defined monoid end to end.
//!
//! ```sh
//! cargo run --release --example custom_monoid
//! ```
//!
//! The paper's headline property of reducer hyperobjects is that they
//! work over *any* abstract data type — the user supplies an identity
//! and an associative (not necessarily commutative) reduce operator.
//! This example builds an **interval-set union** reducer from scratch:
//! parallel strands each cover ranges `[lo, hi)`; the reducer maintains
//! the total covered length, with views merged by concatenating interval
//! lists (associative, order-preserving). We then:
//!
//! 1. validate determinism across steal specifications,
//! 2. check a program using it with `check` (both detectors, every
//!    schedule of the Section-7 sweep),
//! 3. plant a bug (reading coverage mid-flight) and watch Peer-Set
//!    object.

use std::sync::Arc;

use rader::prelude::*;
use rader_cilk::{BlockScript, Loc, ViewMem, ViewMonoid};
use rader_reducers::{dec_ptr, enc_ptr};

/// Interval-list monoid: a view is a linked list of `[lo, hi)` pairs
/// (header `[head, tail, count]`, node `[lo, hi, next]`), concatenated
/// on reduce. Coverage is computed (outside the monoid) by a sweep over
/// the collected intervals.
struct IntervalUnion;

const HEAD: usize = 0;
const TAIL: usize = 1;
const COUNT: usize = 2;

impl ViewMonoid for IntervalUnion {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        m.alloc(3)
    }
    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        let rhead = m.read(right.at(HEAD));
        if rhead == 0 {
            return;
        }
        match dec_ptr(m.read(left.at(TAIL))) {
            None => m.write(left.at(HEAD), rhead),
            Some(t) => m.write(t.at(2), rhead),
        }
        let rt = m.read(right.at(TAIL));
        m.write(left.at(TAIL), rt);
        let c = m.read(left.at(COUNT)) + m.read(right.at(COUNT));
        m.write(left.at(COUNT), c);
    }
    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let node = m.alloc(3);
        m.write(node, op[0]);
        m.write(node.at(1), op[1]);
        match dec_ptr(m.read(view.at(TAIL))) {
            None => m.write(view.at(HEAD), enc_ptr(node)),
            Some(t) => m.write(t.at(2), enc_ptr(node)),
        }
        m.write(view.at(TAIL), enc_ptr(node));
        let c = m.read(view.at(COUNT));
        m.write(view.at(COUNT), c + 1);
    }
    fn name(&self) -> &'static str {
        "interval-union"
    }
}

/// Collect the intervals out of the view (post-sync) and compute total
/// covered length by sweeping.
fn covered_length(cx: &mut Ctx<'_>, view: Loc) -> Word {
    let mut spans = Vec::new();
    let mut cur = dec_ptr(cx.read(view.at(HEAD)));
    while let Some(n) = cur {
        spans.push((cx.read(n), cx.read(n.at(1))));
        cur = dec_ptr(cx.read(n.at(2)));
    }
    spans.sort_unstable();
    let mut total = 0;
    let mut reach = Word::MIN;
    for (lo, hi) in spans {
        let lo = lo.max(reach);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        } else {
            reach = reach.max(hi);
        }
    }
    total
}

fn program(cx: &mut Ctx<'_>) -> Word {
    let cover = cx.new_reducer(Arc::new(IntervalUnion));
    // 32 parallel workers each cover a pseudo-random stripe.
    for i in 0..32i64 {
        cx.spawn(move |cx| {
            let lo = (i * 37) % 200;
            cx.reducer_update(cover, &[lo, lo + 15]);
        });
    }
    cx.sync();
    let view = cx.reducer_get_view(cover);
    covered_length(cx, view)
}

fn main() {
    // 1. Deterministic across schedules.
    let mut base = -1;
    SerialEngine::new().run(|cx| base = program(cx));
    println!("covered length (serial): {base}");
    for spec in [
        StealSpec::EveryBlock(BlockScript::steals(vec![1, 9, 23])),
        StealSpec::Random {
            seed: 99,
            max_block: 32,
            steals_per_block: 3,
        },
    ] {
        let mut got = -1;
        SerialEngine::with_spec(spec.clone()).run(|cx| got = program(cx));
        assert_eq!(got, base, "nondeterministic under {spec:?}");
    }
    println!("identical under simulated steal schedules");

    // 2. Clean under both detectors, on every schedule of the sweep.
    let (opts, ctl) = (CoverageOptions::default(), SweepControl::default());
    let clean = |cx: &mut Ctx<'_>| {
        program(cx);
    };
    let verdict = check(clean, &opts, 1, &ctl).expect("no journal is configured");
    assert!(verdict.clean(), "{}", verdict.report);
    println!(
        "Peer-Set and SP+ both clean over {} SP+ runs",
        verdict.sweep.runs
    );

    // 3. The planted bug: peeking at coverage before the sync.
    let peek = |cx: &mut Ctx<'_>| {
        let cover = cx.new_reducer(Arc::new(IntervalUnion));
        for i in 0..8i64 {
            cx.spawn(move |cx| cx.reducer_update(cover, &[i * 10, i * 10 + 5]));
        }
        let view = cx.reducer_get_view(cover); // BUG: children outstanding
        let _peek = covered_length(cx, view);
        cx.sync();
    };
    // The peek makes the program's own reads follow a view that depends
    // on the schedule, so the program is no longer ostensibly
    // deterministic and the sweep's replay of it is not sound. Peer-Set
    // on the serial run is exact for view-read races (Theorem 4) and
    // needs no sweep.
    let mut peers = PeerSet::new();
    SerialEngine::new().run_tool(&mut peers, peek);
    let r = peers.into_report();
    println!("premature coverage peek:\n{r}");
    assert_eq!(r.view_read.len(), 1);

    println!("custom_monoid OK");
}
