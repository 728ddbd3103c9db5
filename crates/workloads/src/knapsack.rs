//! `knapsack` — recursive 0/1 knapsack with a user-defined struct
//! reducer (after Frigo's Cilk++ knapsack-challenge program).
//!
//! Branch-and-bound exploration: each item spawns the "take" branch and
//! recurses inline on the "skip" branch; every complete selection offers
//! its value to an [`ArgMax`] reducer (best value + item-mask witness).
//! Pruning uses the optimistic remaining-value bound (no mid-computation
//! reducer reads — those would be view-read races, and a deliberately
//! racy variant is provided to show Peer-Set catching exactly that).

use rader_cilk::{Ctx, Loc, Word};
use rader_reducers::{ArgMax, Monoid, RedHandle};
use rader_rng::Rng;

use crate::{Scale, Workload};

/// A knapsack instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Item weights.
    pub weights: Vec<Word>,
    /// Item values.
    pub values: Vec<Word>,
    /// Knapsack capacity.
    pub capacity: Word,
}

/// Seeded instance generator.
pub fn gen_instance(n: usize, seed: u64) -> Instance {
    let mut rng = Rng::seed_from_u64(seed);
    let weights: Vec<Word> = (0..n).map(|_| rng.gen_range(1..20)).collect();
    let values: Vec<Word> = (0..n).map(|_| rng.gen_range(1..30)).collect();
    let capacity = weights.iter().sum::<Word>() / 3;
    Instance {
        weights,
        values,
        capacity,
    }
}

struct Arrays {
    weights: Loc,
    values: Loc,
    /// Suffix sums of values (for the optimistic bound).
    rest: Loc,
    n: usize,
}

/// The Cilk program: returns the best achievable value.
pub fn knapsack_program(cx: &mut Ctx<'_>, inst: &Instance) -> Word {
    let n = inst.weights.len();
    let weights = cx.alloc(n.max(1));
    let values = cx.alloc(n.max(1));
    let rest = cx.alloc(n + 1);
    for i in 0..n {
        cx.write_idx(weights, i, inst.weights[i]);
        cx.write_idx(values, i, inst.values[i]);
    }
    let mut suffix = 0;
    cx.write_idx(rest, n, 0);
    for i in (0..n).rev() {
        suffix += inst.values[i];
        cx.write_idx(rest, i, suffix);
    }
    let best = ArgMax::register(cx);
    let arrays = Arrays {
        weights,
        values,
        rest,
        n,
    };
    search(cx, &arrays, 0, inst.capacity, 0, 0, best);
    cx.sync();
    best.best_value_or(cx, 0)
}

fn search(
    cx: &mut Ctx<'_>,
    a: &Arrays,
    i: usize,
    cap: Word,
    value: Word,
    mask: Word,
    best: RedHandle<ArgMax>,
) {
    if i == a.n {
        best.offer(cx, value, mask);
        return;
    }
    // Optimistic bound: even taking every remaining item cannot improve?
    // We cannot read the reducer mid-flight (view-read race!), so the
    // bound prunes only on zero-potential suffixes.
    let rest = cx.read_idx(a.rest, i);
    if rest == 0 {
        best.offer(cx, value, mask);
        return;
    }
    let w = cx.read_idx(a.weights, i);
    let v = cx.read_idx(a.values, i);
    if w <= cap {
        let (rest_cap, take_val, take_mask) = (cap - w, value + v, mask | (1 << i));
        cx.spawn(move |cx| search(cx, a_copy(a), i + 1, rest_cap, take_val, take_mask, best));
    }
    search(cx, a, i + 1, cap, value, mask, best);
    cx.sync();
}

// Arrays is a bundle of Copy fields; clone it into spawned closures.
fn a_copy(a: &Arrays) -> &Arrays {
    a
}

/// A deliberately racy variant: it *reads the reducer mid-computation*
/// as a pruning heuristic, creating a view-read race (the read's peers
/// differ from the previous read's). Used to validate Peer-Set on a
/// realistic bug.
pub fn knapsack_racy_program(cx: &mut Ctx<'_>, inst: &Instance) -> Word {
    let n = inst.weights.len();
    let weights = cx.alloc(n.max(1));
    let values = cx.alloc(n.max(1));
    for i in 0..n {
        cx.write_idx(weights, i, inst.weights[i]);
        cx.write_idx(values, i, inst.values[i]);
    }
    let best = ArgMax::register(cx);
    racy_search(cx, weights, values, n, 0, inst.capacity, 0, best);
    cx.sync();
    best.best_value_or(cx, 0)
}

#[allow(clippy::too_many_arguments)]
fn racy_search(
    cx: &mut Ctx<'_>,
    weights: Loc,
    values: Loc,
    n: usize,
    i: usize,
    cap: Word,
    value: Word,
    best: RedHandle<ArgMax>,
) {
    if i == n {
        best.offer(cx, value, 0);
        return;
    }
    // BUG: reading the best-so-far while sibling branches may be
    // updating it — a view-read race (schedule-dependent prune).
    let so_far = best.best_value_or(cx, Word::MIN);
    if so_far != Word::MIN && value + remaining(cx, values, n, i) <= so_far {
        return;
    }
    let w = cx.read_idx(weights, i);
    let v = cx.read_idx(values, i);
    if w <= cap {
        cx.spawn(move |cx| racy_search(cx, weights, values, n, i + 1, cap - w, value + v, best));
    }
    racy_search(cx, weights, values, n, i + 1, cap, value, best);
    cx.sync();
}

fn remaining(cx: &mut Ctx<'_>, values: Loc, n: usize, i: usize) -> Word {
    let mut s = 0;
    for j in i..n {
        s += cx.read_idx(values, j);
    }
    s
}

/// Plain-Rust reference (DP).
pub fn knapsack_reference(inst: &Instance) -> Word {
    let cap = inst.capacity as usize;
    let mut dp = vec![0i64; cap + 1];
    for (w, v) in inst.weights.iter().zip(&inst.values) {
        let w = *w as usize;
        for c in (w..=cap).rev() {
            dp[c] = dp[c].max(dp[c - w] + v);
        }
    }
    dp[cap]
}

/// The benchmark at a given scale (paper input: 26 items; scaled to keep
/// the sweep laptop-sized).
pub fn workload(scale: Scale) -> Workload {
    let n = match scale {
        Scale::Small => 10,
        Scale::Paper => 17,
    };
    let inst = gen_instance(n, 0x6b6e6170);
    let expect = knapsack_reference(&inst);
    Workload {
        name: "knapsack",
        run: Box::new(move |cx| {
            let got = knapsack_program(cx, &inst);
            assert_eq!(got, expect, "knapsack({n}) wrong");
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    #[test]
    fn matches_dp_reference() {
        for seed in 0..5 {
            let inst = gen_instance(9, seed);
            let mut got = -1;
            SerialEngine::new().run(|cx| got = knapsack_program(cx, &inst));
            assert_eq!(got, knapsack_reference(&inst), "seed {seed}");
        }
    }

    #[test]
    fn spec_invariant() {
        let inst = gen_instance(9, 7);
        let expect = knapsack_reference(&inst);
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::AtSpawnCount(2),
        ] {
            let mut got = -1;
            SerialEngine::with_spec(spec).run(|cx| got = knapsack_program(cx, &inst));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn clean_variant_has_no_races() {
        let inst = gen_instance(8, 3);
        let v = crate::verdict(|cx| {
            knapsack_program(cx, &inst);
        });
        assert!(v.clean(), "{}", v.report);
    }

    #[test]
    fn racy_variant_is_caught_by_peerset() {
        let inst = gen_instance(8, 3);
        let mut peers = rader_core::PeerSet::new();
        SerialEngine::new().run_tool(&mut peers, |cx| {
            knapsack_racy_program(cx, &inst);
        });
        let r = peers.into_report();
        assert!(r.view_read.len() == 1, "{r}");
    }
}
