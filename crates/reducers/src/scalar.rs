//! Scalar monoids: sum, product, min, max, and bitwise and/or/xor.
//!
//! These are the `reducer_opadd`-style monoids of Cilk Plus. Each view is a
//! single arena word. All are commutative, but the engine folds them in
//! serial order anyway (commutativity is not assumed anywhere).

use rader_cilk::{Ctx, Loc, ViewMem, ViewMonoid, Word};

use crate::RedHandle;

macro_rules! scalar_monoid {
    ($(#[$doc:meta])* $name:ident, $mname:literal, $identity:expr, $combine:expr) => {
        $(#[$doc])*
        #[derive(Default, Clone, Copy, Debug)]
        pub struct $name;

        impl ViewMonoid for $name {
            fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
                let l = m.alloc(1);
                let id: Word = $identity;
                if id != 0 {
                    m.write(l, id);
                }
                l
            }
            fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
                let r = m.read(right);
                let l = m.read(left);
                let f: fn(Word, Word) -> Word = $combine;
                m.write(left, f(l, r));
            }
            fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
                let v = m.read(view);
                let f: fn(Word, Word) -> Word = $combine;
                m.write(view, f(v, op[0]));
            }
            fn name(&self) -> &'static str {
                $mname
            }
        }

        impl RedHandle<$name> {
            /// Fold `x` into the current view.
            pub fn update(&self, cx: &mut Ctx<'_>, x: Word) {
                cx.reducer_update(self.raw(), &[x]);
            }

            /// `get_value` (a reducer-read): the view's current value.
            pub fn get(&self, cx: &mut Ctx<'_>) -> Word {
                let v = cx.reducer_get_view(self.raw());
                cx.read(v)
            }

            /// `set_value` (a reducer-read): reset the current view to `x`.
            pub fn set(&self, cx: &mut Ctx<'_>, x: Word) {
                let l = cx.alloc(1);
                cx.write(l, x);
                cx.reducer_set_view(self.raw(), l);
            }
        }
    };
}

scalar_monoid!(
    /// Sum with identity 0 (`reducer_opadd`).
    OpAdd,
    "opadd",
    0,
    |a, b| a.wrapping_add(b)
);
scalar_monoid!(
    /// Product with identity 1 (`reducer_opmul`), wrapping.
    OpMul,
    "opmul",
    1,
    |a, b| a.wrapping_mul(b)
);
scalar_monoid!(
    /// Minimum with identity `i64::MAX` (`reducer_min`).
    Min,
    "min",
    Word::MAX,
    |a, b| a.min(b)
);
scalar_monoid!(
    /// Maximum with identity `i64::MIN` (`reducer_max`).
    Max,
    "max",
    Word::MIN,
    |a, b| a.max(b)
);
scalar_monoid!(
    /// Bitwise AND with identity all-ones (`reducer_opand`).
    OpAnd,
    "opand",
    -1,
    |a, b| a & b
);
scalar_monoid!(
    /// Bitwise OR with identity 0 (`reducer_opor`).
    OpOr,
    "opor",
    0,
    |a, b| a | b
);
scalar_monoid!(
    /// Bitwise XOR with identity 0 (`reducer_opxor`).
    OpXor,
    "opxor",
    0,
    |a, b| a ^ b
);

impl RedHandle<OpAdd> {
    /// Convenience alias for `update`.
    pub fn add(&self, cx: &mut Ctx<'_>, x: Word) {
        self.update(cx, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monoid;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    macro_rules! scalar_test {
        ($test:ident, $ty:ident, $ops:expr, $expect:expr) => {
            #[test]
            fn $test() {
                let ops: Vec<Word> = $ops;
                for spec in [
                    StealSpec::None,
                    StealSpec::EveryBlock(BlockScript::steals(vec![1, 2])),
                    StealSpec::Random {
                        seed: 5,
                        max_block: 8,
                        steals_per_block: 3,
                    },
                ] {
                    let mut got = None;
                    SerialEngine::with_spec(spec.clone()).run(|cx| {
                        let r = $ty::register(cx);
                        for &x in &ops {
                            cx.spawn(move |cx| r.update(cx, x));
                        }
                        cx.sync();
                        got = Some(r.get(cx));
                    });
                    assert_eq!(got.unwrap(), $expect, "under {spec:?}");
                }
            }
        };
    }

    scalar_test!(opadd_sums, OpAdd, (1..=10).collect(), 55);
    scalar_test!(opmul_products, OpMul, vec![2, 3, 5, 7], 210);
    scalar_test!(min_takes_minimum, Min, vec![5, -3, 9, 0], -3);
    scalar_test!(max_takes_maximum, Max, vec![5, -3, 9, 0], 9);
    scalar_test!(
        opand_intersects,
        OpAnd,
        vec![0b1110, 0b0111, 0b1111],
        0b0110
    );
    scalar_test!(opor_unions, OpOr, vec![0b0001, 0b0100], 0b0101);
    scalar_test!(opxor_xors, OpXor, vec![0b1100, 0b1010], 0b0110);

    #[test]
    fn identities_are_neutral() {
        SerialEngine::new().run(|cx| {
            let add = OpAdd::register(cx);
            let mul = OpMul::register(cx);
            let min = Min::register(cx);
            let max = Max::register(cx);
            let and = OpAnd::register(cx);
            assert_eq!(add.get(cx), 0);
            assert_eq!(mul.get(cx), 1);
            assert_eq!(min.get(cx), Word::MAX);
            assert_eq!(max.get(cx), Word::MIN);
            assert_eq!(and.get(cx), -1);
        });
    }

    #[test]
    fn set_resets_the_view() {
        SerialEngine::new().run(|cx| {
            let add = OpAdd::register(cx);
            add.add(cx, 7);
            add.set(cx, 100);
            add.add(cx, 1);
            assert_eq!(add.get(cx), 101);
        });
    }
}
