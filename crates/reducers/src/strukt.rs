//! A user-defined struct monoid: best-value-with-witness (`ArgMax`).
//!
//! The paper's `knapsack` benchmark uses a reducer over a user-defined
//! struct (the best solution found so far). `ArgMax` tracks the maximum
//! objective value seen together with a witness word (e.g. the item mask
//! or node ID that achieved it). Ties keep the serially earlier candidate,
//! which keeps the operation associative *and* deterministic.
//!
//! View layout: `[valid, best_value, witness]`.

use rader_cilk::{Ctx, Loc, ViewMem, ViewMonoid, Word};

use crate::RedHandle;

const VALID: usize = 0;
const BEST: usize = 1;
const WITNESS: usize = 2;

/// Best-value-with-witness monoid (strict improvement replaces; ties keep
/// the earlier candidate).
#[derive(Default, Clone, Copy, Debug)]
pub struct ArgMax;

impl ViewMonoid for ArgMax {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        m.alloc(3) // valid = 0
    }

    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        if m.read(right.at(VALID)) == 0 {
            return;
        }
        let rv = m.read(right.at(BEST));
        let lvalid = m.read(left.at(VALID));
        if lvalid == 0 || rv > m.read(left.at(BEST)) {
            let rw = m.read(right.at(WITNESS));
            m.write(left.at(VALID), 1);
            m.write(left.at(BEST), rv);
            m.write(left.at(WITNESS), rw);
        }
    }

    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let (value, witness) = (op[0], op[1]);
        let valid = m.read(view.at(VALID));
        if valid == 0 || value > m.read(view.at(BEST)) {
            m.write(view.at(VALID), 1);
            m.write(view.at(BEST), value);
            m.write(view.at(WITNESS), witness);
        }
    }

    fn name(&self) -> &'static str {
        "argmax"
    }
}

impl RedHandle<ArgMax> {
    /// Offer a candidate `(value, witness)`.
    pub fn offer(&self, cx: &mut Ctx<'_>, value: Word, witness: Word) {
        cx.reducer_update(self.raw(), &[value, witness]);
    }

    /// The best `(value, witness)` so far, if any (a reducer-read).
    pub fn best(&self, cx: &mut Ctx<'_>) -> Option<(Word, Word)> {
        let v = cx.reducer_get_view(self.raw());
        if cx.read(v.at(VALID)) == 0 {
            None
        } else {
            Some((cx.read(v.at(BEST)), cx.read(v.at(WITNESS))))
        }
    }

    /// The best value, or `fallback` when no candidate was offered.
    pub fn best_value_or(&self, cx: &mut Ctx<'_>, fallback: Word) -> Word {
        self.best(cx).map(|(v, _)| v).unwrap_or(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monoid;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    #[test]
    fn tracks_maximum_with_witness() {
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 3])),
        ] {
            let mut got = None;
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let best = ArgMax::register(cx);
                let candidates = [(5, 100), (9, 101), (3, 102), (9, 103), (7, 104)];
                for (v, w) in candidates {
                    cx.spawn(move |cx| best.offer(cx, v, w));
                }
                cx.sync();
                got = best.best(cx);
            });
            // Tie at 9: the serially earlier witness (101) must win.
            assert_eq!(got, Some((9, 101)), "under {spec:?}");
        }
    }

    #[test]
    fn empty_reducer_has_no_best() {
        SerialEngine::new().run(|cx| {
            let best = ArgMax::register(cx);
            assert_eq!(best.best(cx), None);
            assert_eq!(best.best_value_or(cx, -1), -1);
        });
    }

    #[test]
    fn tie_break_is_associative_across_view_boundaries() {
        // Equal candidates land in different views; the fold must still
        // prefer the serially earliest.
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2]));
        let mut got = None;
        SerialEngine::with_spec(spec).run(|cx| {
            let best = ArgMax::register(cx);
            cx.spawn(move |cx| best.offer(cx, 4, 1));
            cx.spawn(move |cx| best.offer(cx, 4, 2));
            cx.spawn(move |cx| best.offer(cx, 4, 3));
            cx.sync();
            got = best.best(cx);
        });
        assert_eq!(got, Some((4, 1)));
    }
}
