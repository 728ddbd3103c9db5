//! Output-stream monoid (`reducer_ostream`).
//!
//! Cilk Plus's `reducer_ostream` lets logically parallel strands emit
//! output that is assembled in serial order. The paper's `dedup` and
//! `ferret` ports use it to write their results. The view is a linked
//! chain of fixed-size records: header `[head, tail, records, words]`,
//! record node `[next, len, w0..w3]`. `Reduce` is O(1) chain splicing.

use rader_cilk::{Ctx, Loc, ViewMem, ViewMonoid, Word};

use crate::{dec_ptr, enc_ptr, RedHandle};

const HEAD: usize = 0;
const TAIL: usize = 1;
const RECORDS: usize = 2;
const WORDS: usize = 3;
const HDR_LEN: usize = 4;

const NEXT: usize = 0;
const LEN: usize = 1;
const DATA: usize = 2;
/// Maximum payload words per record (update op size limit).
pub const MAX_RECORD: usize = 4;

/// Ordered output-stream monoid: `⊗` concatenates record streams.
#[derive(Default, Clone, Copy, Debug)]
pub struct OstreamMonoid;

impl ViewMonoid for OstreamMonoid {
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
        let lr = m.read(left.at(RECORDS));
        let rr = m.read(right.at(RECORDS));
        m.write(left.at(RECORDS), lr + rr);
        let lw = m.read(left.at(WORDS));
        let rw = m.read(right.at(WORDS));
        m.write(left.at(WORDS), lw + rw);
    }

    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let len = op.len().min(MAX_RECORD);
        let node = m.alloc(DATA + len);
        m.write(node.at(LEN), len as Word);
        for (i, &w) in op[..len].iter().enumerate() {
            m.write(node.at(DATA + i), w);
        }
        let tail = m.read(view.at(TAIL));
        match dec_ptr(tail) {
            None => m.write(view.at(HEAD), enc_ptr(node)),
            Some(t) => m.write(t.at(NEXT), enc_ptr(node)),
        }
        m.write(view.at(TAIL), enc_ptr(node));
        let r = m.read(view.at(RECORDS));
        m.write(view.at(RECORDS), r + 1);
        let w = m.read(view.at(WORDS));
        m.write(view.at(WORDS), w + len as Word);
    }

    fn name(&self) -> &'static str {
        "ostream"
    }
}

impl RedHandle<OstreamMonoid> {
    /// Emit one record (up to [`MAX_RECORD`] words).
    pub fn emit(&self, cx: &mut Ctx<'_>, record: &[Word]) {
        assert!(record.len() <= MAX_RECORD, "record too long");
        cx.reducer_update(self.raw(), record);
    }

    /// Number of records in the current view (a reducer-read).
    pub fn records(&self, cx: &mut Ctx<'_>) -> Word {
        let v = cx.reducer_get_view(self.raw());
        cx.read(v.at(RECORDS))
    }

    /// `get_value` and materialize the stream as a vector of records.
    pub fn collect(&self, cx: &mut Ctx<'_>) -> Vec<Vec<Word>> {
        let v = cx.reducer_get_view(self.raw());
        let mut out = Vec::new();
        let mut cur = dec_ptr(cx.read(v.at(HEAD)));
        while let Some(node) = cur {
            let len = cx.read(node.at(LEN)) as usize;
            let mut rec = Vec::with_capacity(len);
            for i in 0..len {
                rec.push(cx.read(node.at(DATA + i)));
            }
            out.push(rec);
            cur = dec_ptr(cx.read(node.at(NEXT)));
        }
        out
    }

    /// `get_value` and flatten all payload words in stream order.
    pub fn collect_flat(&self, cx: &mut Ctx<'_>) -> Vec<Word> {
        self.collect(cx).into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monoid;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    #[test]
    fn records_assemble_in_serial_order() {
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![2, 5])),
            StealSpec::Random {
                seed: 21,
                max_block: 8,
                steals_per_block: 3,
            },
        ] {
            let mut got = Vec::new();
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let out = OstreamMonoid::register(cx);
                for i in 0..8 {
                    cx.spawn(move |cx| out.emit(cx, &[i, i * i]));
                }
                cx.sync();
                got = out.collect(cx);
            });
            let expect: Vec<Vec<Word>> = (0..8).map(|i| vec![i, i * i]).collect();
            assert_eq!(got, expect, "under {spec:?}");
        }
    }

    #[test]
    fn counts_and_flatten() {
        SerialEngine::new().run(|cx| {
            let out = OstreamMonoid::register(cx);
            out.emit(cx, &[1]);
            out.emit(cx, &[2, 3]);
            out.emit(cx, &[4, 5, 6]);
            assert_eq!(out.records(cx), 3);
            assert_eq!(out.collect_flat(cx), vec![1, 2, 3, 4, 5, 6]);
        });
    }

    #[test]
    #[should_panic(expected = "record too long")]
    fn oversize_record_rejected() {
        SerialEngine::new().run(|cx| {
            let out = OstreamMonoid::register(cx);
            out.emit(cx, &[1, 2, 3, 4, 5]);
        });
    }
}
