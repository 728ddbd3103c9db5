//! `fib` — the paper's synthetic stress benchmark.
//!
//! Recursive Fibonacci where every base case adds into a `reducer_opadd`.
//! The paper devised it to stress-test Rader: "each function call does
//! almost no work except for updating reducers and reducing views", so
//! instrumentation and view bookkeeping dominate — `fib` shows the
//! largest SP+ overheads in Figure 7 (up to 75.6×).

use rader_cilk::{Ctx, Word};
use rader_reducers::{Monoid, OpAdd, RedHandle};

use crate::{Scale, Workload};

/// The Cilk program: returns fib(n) accumulated through the reducer.
pub fn fib_program(cx: &mut Ctx<'_>, n: u32) -> Word {
    let sum = OpAdd::register(cx);
    fib_rec(cx, n, sum);
    cx.sync();
    sum.get(cx)
}

fn fib_rec(cx: &mut Ctx<'_>, n: u32, sum: RedHandle<OpAdd>) {
    if n < 2 {
        sum.add(cx, n as Word);
        return;
    }
    cx.spawn(move |cx| fib_rec(cx, n - 1, sum));
    fib_rec(cx, n - 2, sum);
    cx.sync();
}

/// Plain-Rust reference.
pub fn fib_reference(n: u32) -> Word {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        let c = a + b;
        a = b;
        b = c;
    }
    a
}

/// The benchmark at a given scale (paper input: `fib(28)`; scaled to 22
/// here so the 6-benchmark × 6-configuration sweep stays laptop-sized —
/// the strand-dominated work profile is unchanged).
pub fn workload(scale: Scale) -> Workload {
    let n = match scale {
        Scale::Small => 12,
        Scale::Paper => 22,
    };
    Workload {
        name: "fib",
        run: Box::new(move |cx| {
            let expect = fib_reference(n);
            let got = fib_program(cx, n);
            assert_eq!(got, expect, "fib({n}) wrong");
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    #[test]
    fn fib_matches_reference() {
        for n in [0, 1, 2, 7, 12] {
            let mut got = -1;
            SerialEngine::new().run(|cx| got = fib_program(cx, n));
            assert_eq!(got, fib_reference(n), "fib({n})");
        }
    }

    #[test]
    fn fib_is_spec_invariant() {
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::Random {
                seed: 1,
                max_block: 1,
                steals_per_block: 1,
            },
            StealSpec::AtSpawnCount(3),
        ] {
            let mut got = -1;
            SerialEngine::with_spec(spec).run(|cx| got = fib_program(cx, 10));
            assert_eq!(got, fib_reference(10));
        }
    }

    #[test]
    fn fib_is_race_free() {
        let v = crate::verdict(|cx| {
            fib_program(cx, 10);
        });
        assert!(v.clean(), "{}", v.report);
    }
}
