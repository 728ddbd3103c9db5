//! Hypervector monoid: an append-only growable vector with O(1)
//! concatenation, the reducer the paper's `collision` benchmark uses.
//!
//! The view is a chain of fixed-capacity chunks: header
//! `[head, tail, len]`, chunk `[next, used, data[CHUNK]]`. Appends fill
//! the tail chunk; `Reduce` splices chunk chains without copying.

use rader_cilk::{Ctx, Loc, ViewMem, ViewMonoid, Word};

use crate::{dec_ptr, enc_ptr, RedHandle};

const HEAD: usize = 0;
const TAIL: usize = 1;
const LEN: usize = 2;
const HDR_LEN: usize = 3;

const NEXT: usize = 0;
const USED: usize = 1;
const DATA: usize = 2;
/// Elements per chunk.
pub const CHUNK: usize = 8;

/// Append-vector monoid: `⊗` concatenates element sequences.
#[derive(Default, Clone, Copy, Debug)]
pub struct HypervectorMonoid;

impl ViewMonoid for HypervectorMonoid {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        m.alloc(HDR_LEN)
    }

    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        let rhead = m.read(right.at(HEAD));
        if rhead == 0 {
            return;
        }
        let ltail = m.read(left.at(TAIL));
        match dec_ptr(ltail) {
            None => m.write(left.at(HEAD), rhead),
            Some(t) => m.write(t.at(NEXT), rhead),
        }
        let rtail = m.read(right.at(TAIL));
        m.write(left.at(TAIL), rtail);
        let ll = m.read(left.at(LEN));
        let rl = m.read(right.at(LEN));
        m.write(left.at(LEN), ll + rl);
    }

    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let tail = m.read(view.at(TAIL));
        let chunk = match dec_ptr(tail) {
            Some(c) if m.read(c.at(USED)) < CHUNK as Word => c,
            _ => {
                let c = m.alloc(DATA + CHUNK);
                match dec_ptr(tail) {
                    None => m.write(view.at(HEAD), enc_ptr(c)),
                    Some(t) => m.write(t.at(NEXT), enc_ptr(c)),
                }
                m.write(view.at(TAIL), enc_ptr(c));
                c
            }
        };
        let used = m.read(chunk.at(USED));
        m.write(chunk.at(DATA + used as usize), op[0]);
        m.write(chunk.at(USED), used + 1);
        let len = m.read(view.at(LEN));
        m.write(view.at(LEN), len + 1);
    }

    fn name(&self) -> &'static str {
        "hypervector"
    }
}

impl RedHandle<HypervectorMonoid> {
    /// Append `x` to the current view.
    pub fn push(&self, cx: &mut Ctx<'_>, x: Word) {
        cx.reducer_update(self.raw(), &[x]);
    }

    /// Number of elements (a reducer-read).
    pub fn len(&self, cx: &mut Ctx<'_>) -> Word {
        let v = cx.reducer_get_view(self.raw());
        cx.read(v.at(LEN))
    }

    /// True if the current view holds no elements (a reducer-read).
    pub fn is_empty(&self, cx: &mut Ctx<'_>) -> bool {
        self.len(cx) == 0
    }

    /// `get_value` and materialize the elements in append (serial) order.
    pub fn to_vec(&self, cx: &mut Ctx<'_>) -> Vec<Word> {
        let v = cx.reducer_get_view(self.raw());
        let mut out = Vec::new();
        let mut cur = dec_ptr(cx.read(v.at(HEAD)));
        while let Some(chunk) = cur {
            let used = cx.read(chunk.at(USED)) as usize;
            for i in 0..used {
                out.push(cx.read(chunk.at(DATA + i)));
            }
            cur = dec_ptr(cx.read(chunk.at(NEXT)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monoid;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    #[test]
    fn elements_in_serial_order_across_chunk_boundaries() {
        // More elements than fit one chunk per view, several views.
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 2])),
            StealSpec::Random {
                seed: 9,
                max_block: 4,
                steals_per_block: 2,
            },
        ] {
            let mut got = Vec::new();
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let hv = HypervectorMonoid::register(cx);
                for g in 0..4i64 {
                    cx.spawn(move |cx| {
                        for i in 0..20 {
                            hv.push(cx, g * 100 + i);
                        }
                    });
                }
                cx.sync();
                got = hv.to_vec(cx);
            });
            let expect: Vec<Word> = (0..4i64)
                .flat_map(|g| (0..20).map(move |i| g * 100 + i))
                .collect();
            assert_eq!(got, expect, "under {spec:?}");
        }
    }

    #[test]
    fn len_tracks_pushes() {
        SerialEngine::new().run(|cx| {
            let hv = HypervectorMonoid::register(cx);
            assert!(hv.is_empty(cx));
            for i in 0..(CHUNK as Word * 3 + 1) {
                hv.push(cx, i);
            }
            assert_eq!(hv.len(cx), CHUNK as Word * 3 + 1);
            assert_eq!(hv.to_vec(cx).len(), CHUNK * 3 + 1);
        });
    }
}
