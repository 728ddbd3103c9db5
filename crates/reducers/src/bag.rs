//! The Leiserson–Schardl *bag*: the unordered-set reducer behind the
//! paper's `pbfs` benchmark (work-efficient parallel breadth-first
//! search, SPAA'10).
//!
//! A **pennant** of size 2^k is a tree whose root has a single left child,
//! that child being the root of a complete binary tree of 2^k − 1 nodes.
//! A **bag** is a sparse array (the *spine*) of pennants, one slot per
//! size class — the binary-number representation of the element count.
//!
//! * `insert` is binary increment with pennant-union carries: O(1)
//!   amortized, O(log n) worst case.
//! * `Reduce` (bag union) is a full adder over the spines: O(log n).
//!
//! Node layout `[value, left, right]`; spine layout `[count, s0..s{R-1}]`
//! with encoded pointers.

use rader_cilk::{Ctx, Loc, ViewMem, ViewMonoid, Word};

use crate::{dec_ptr, enc_ptr, RedHandle};

const VALUE: usize = 0;
const LEFT: usize = 1;
const RIGHT: usize = 2;

const COUNT: usize = 0;
const SPINE: usize = 1;
/// Spine slots: supports up to 2^28 elements.
pub const SPINE_LEN: usize = 28;

/// Union two pennants of equal size 2^k into one of size 2^(k+1).
///
/// `PENNANT-UNION(x, y): y.right = x.left; x.left = y; return x`
fn pennant_union(m: &mut ViewMem<'_, '_>, x: Loc, y: Loc) -> Loc {
    let xl = m.read(x.at(LEFT));
    m.write(y.at(RIGHT), xl);
    m.write(x.at(LEFT), enc_ptr(y));
    x
}

fn insert_pennant(m: &mut ViewMem<'_, '_>, view: Loc, mut p: Loc, mut k: usize) {
    // Binary increment with carries.
    loop {
        assert!(k < SPINE_LEN, "bag spine overflow");
        let slot = m.read(view.at(SPINE + k));
        match dec_ptr(slot) {
            None => {
                m.write(view.at(SPINE + k), enc_ptr(p));
                return;
            }
            Some(existing) => {
                m.write(view.at(SPINE + k), 0);
                p = pennant_union(m, existing, p);
                k += 1;
            }
        }
    }
}

/// Bag-of-words monoid (unordered multiset with O(log n) union).
#[derive(Default, Clone, Copy, Debug)]
pub struct BagMonoid;

impl ViewMonoid for BagMonoid {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        m.alloc(SPINE + SPINE_LEN)
    }

    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        // BAG-UNION: full adder over the spines, carrying pennant unions.
        let mut carry: Option<Loc> = None;
        for k in 0..SPINE_LEN {
            let a = dec_ptr(m.read(left.at(SPINE + k)));
            let b = dec_ptr(m.read(right.at(SPINE + k)));
            let (keep, new_carry) = full_adder(m, a, b, carry);
            m.write(left.at(SPINE + k), keep.map(enc_ptr).unwrap_or(0));
            carry = new_carry;
        }
        assert!(carry.is_none(), "bag spine overflow during union");
        let lc = m.read(left.at(COUNT));
        let rc = m.read(right.at(COUNT));
        m.write(left.at(COUNT), lc + rc);
    }

    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let node = m.alloc(3);
        m.write(node.at(VALUE), op[0]);
        insert_pennant(m, view, node, 0);
        let c = m.read(view.at(COUNT));
        m.write(view.at(COUNT), c + 1);
    }

    fn name(&self) -> &'static str {
        "bag"
    }
}

/// One full-adder step over pennants of size 2^k: returns
/// `(slot value, carry to 2^(k+1))`.
fn full_adder(
    m: &mut ViewMem<'_, '_>,
    a: Option<Loc>,
    b: Option<Loc>,
    c: Option<Loc>,
) -> (Option<Loc>, Option<Loc>) {
    match (a, b, c) {
        (None, None, None) => (None, None),
        (Some(x), None, None) | (None, Some(x), None) | (None, None, Some(x)) => (Some(x), None),
        (Some(x), Some(y), None) | (Some(x), None, Some(y)) | (None, Some(x), Some(y)) => {
            (None, Some(pennant_union(m, x, y)))
        }
        (Some(x), Some(y), Some(z)) => (Some(x), Some(pennant_union(m, y, z))),
    }
}

impl RedHandle<BagMonoid> {
    /// Insert `x` into the current view.
    pub fn insert(&self, cx: &mut Ctx<'_>, x: Word) {
        cx.reducer_update(self.raw(), &[x]);
    }

    /// Number of elements in the current view (a reducer-read).
    pub fn count(&self, cx: &mut Ctx<'_>) -> Word {
        let v = cx.reducer_get_view(self.raw());
        cx.read(v.at(COUNT))
    }

    /// `get_value` and materialize all elements (unordered, but this
    /// implementation's traversal order is deterministic for a
    /// deterministic insertion history).
    pub fn to_vec(&self, cx: &mut Ctx<'_>) -> Vec<Word> {
        let view = cx.reducer_get_view(self.raw());
        let mut out = Vec::new();
        for k in 0..SPINE_LEN {
            if let Some(p) = dec_ptr(cx.read(view.at(SPINE + k))) {
                walk(cx, p, &mut out);
            }
        }
        out
    }

    /// `set_value`: reset to an empty bag (a reducer-read). Used by PBFS
    /// between layers.
    pub fn clear(&self, cx: &mut Ctx<'_>) {
        let fresh = cx.alloc(SPINE + SPINE_LEN);
        cx.reducer_set_view(self.raw(), fresh);
    }
}

fn walk(cx: &mut Ctx<'_>, node: Loc, out: &mut Vec<Word>) {
    out.push(cx.read(node.at(VALUE)));
    if let Some(l) = dec_ptr(cx.read(node.at(LEFT))) {
        walk(cx, l, out);
    }
    if let Some(r) = dec_ptr(cx.read(node.at(RIGHT))) {
        walk(cx, r, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monoid;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    #[test]
    fn insert_and_collect_all_elements() {
        SerialEngine::new().run(|cx| {
            let bag = BagMonoid::register(cx);
            for i in 0..100 {
                bag.insert(cx, i);
            }
            assert_eq!(bag.count(cx), 100);
            let mut v = bag.to_vec(cx);
            v.sort_unstable();
            assert_eq!(v, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn union_across_views_preserves_multiset() {
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3])),
            StealSpec::Random {
                seed: 17,
                max_block: 8,
                steals_per_block: 3,
            },
        ] {
            let mut got = Vec::new();
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let bag = BagMonoid::register(cx);
                for g in 0..8i64 {
                    cx.spawn(move |cx| {
                        for i in 0..13 {
                            bag.insert(cx, g * 13 + i);
                        }
                    });
                }
                cx.sync();
                assert_eq!(bag.count(cx), 8 * 13);
                got = bag.to_vec(cx);
            });
            got.sort_unstable();
            assert_eq!(got, (0..8 * 13).collect::<Vec<_>>(), "under {spec:?}");
        }
    }

    #[test]
    fn pennant_sizes_follow_binary_representation() {
        SerialEngine::new().run(|cx| {
            let bag = BagMonoid::register(cx);
            for i in 0..13 {
                // 13 = 0b1101
                bag.insert(cx, i);
            }
            let view = cx.reducer_get_view(bag.raw());
            let mut sizes = Vec::new();
            for k in 0..SPINE_LEN {
                if cx.read(view.at(SPINE + k)) != 0 {
                    sizes.push(1usize << k);
                }
            }
            assert_eq!(sizes, vec![1, 4, 8]);
        });
    }

    #[test]
    fn clear_starts_fresh() {
        SerialEngine::new().run(|cx| {
            let bag = BagMonoid::register(cx);
            bag.insert(cx, 1);
            bag.clear(cx);
            assert_eq!(bag.count(cx), 0);
            bag.insert(cx, 2);
            assert_eq!(bag.to_vec(cx), vec![2]);
        });
    }

    #[test]
    fn counts_stay_exact_at_power_of_two_boundaries() {
        SerialEngine::new().run(|cx| {
            let bag = BagMonoid::register(cx);
            for n in 1..=64 {
                bag.insert(cx, n);
                assert_eq!(bag.count(cx), n);
                assert_eq!(bag.to_vec(cx).len() as Word, n);
            }
        });
    }
}
