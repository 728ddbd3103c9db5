//! Linked-list append monoid and the `MyList` user type of the paper's
//! Figure 1.
//!
//! The view is a singly linked list with head and tail pointers (for O(1)
//! concatenation): header `[head, tail, len]`, node `[value, next]`, with
//! pointers encoded via [`enc_ptr`]/[`dec_ptr`].
//!
//! `Reduce` concatenates two lists by **writing the left list's tail
//! `next` pointer** — exactly the write that races with a concurrent
//! `scan_list` traversal in Figure 1 when the program shallow-copies a
//! list and registers the copy as a reducer view. [`MyList`] provides the
//! user-level (view-oblivious) list operations of that example, including
//! the buggy [`MyList::shallow_copy`] and the correct
//! [`MyList::deep_copy`].

use rader_cilk::{Ctx, Loc, ViewMem, ViewMonoid, Word};

use crate::{dec_ptr, enc_ptr, RedHandle};

/// Header field offsets.
const HEAD: usize = 0;
const TAIL: usize = 1;
const LEN: usize = 2;
/// Node field offsets.
const VALUE: usize = 0;
const NEXT: usize = 1;

/// List-append monoid: `⊗` is list concatenation, identity is the empty
/// list. Associative and *not* commutative.
#[derive(Default, Clone, Copy, Debug)]
pub struct ListMonoid;

impl ViewMonoid for ListMonoid {
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc {
        m.alloc(3) // zeroed header = empty list
    }

    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc) {
        let rhead = m.read(right.at(HEAD));
        if rhead == 0 {
            return; // right list empty: nothing to splice
        }
        let rtail = m.read(right.at(TAIL));
        let rlen = m.read(right.at(LEN));
        let ltail = m.read(left.at(TAIL));
        match dec_ptr(ltail) {
            None => {
                // Left empty: adopt right's chain.
                m.write(left.at(HEAD), rhead);
            }
            Some(tail_node) => {
                // THE Figure-1 write: splice right's chain onto left's tail.
                m.write(tail_node.at(NEXT), rhead);
            }
        }
        m.write(left.at(TAIL), rtail);
        let llen = m.read(left.at(LEN));
        m.write(left.at(LEN), llen + rlen);
    }

    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]) {
        let node = m.alloc(2);
        m.write(node.at(VALUE), op[0]);
        let tail = m.read(view.at(TAIL));
        match dec_ptr(tail) {
            None => m.write(view.at(HEAD), enc_ptr(node)),
            Some(t) => m.write(t.at(NEXT), enc_ptr(node)),
        }
        m.write(view.at(TAIL), enc_ptr(node));
        let len = m.read(view.at(LEN));
        m.write(view.at(LEN), len + 1);
    }

    fn name(&self) -> &'static str {
        "list"
    }
}

impl RedHandle<ListMonoid> {
    /// Append `x` to the current view (an `Update`).
    pub fn push_back(&self, cx: &mut Ctx<'_>, x: Word) {
        cx.reducer_update(self.raw(), &[x]);
    }

    /// `get_value` and materialize the list's elements (the traversal's
    /// reads are ordinary user accesses — racy if performed too early).
    pub fn to_vec(&self, cx: &mut Ctx<'_>) -> Vec<Word> {
        let header = cx.reducer_get_view(self.raw());
        MyList { header }.scan(cx)
    }

    /// `set_value`: install a user-built [`MyList`] as the current view
    /// (the paper's `list_reducer.set_value(list)`).
    pub fn set_list(&self, cx: &mut Ctx<'_>, list: &MyList) {
        cx.reducer_set_view(self.raw(), list.header);
    }

    /// `get_value` as a [`MyList`] for further user-level manipulation.
    pub fn get_list(&self, cx: &mut Ctx<'_>) -> MyList {
        MyList {
            header: cx.reducer_get_view(self.raw()),
        }
    }
}

/// The user-defined `MyList<int>` of Figure 1: a singly linked list with
/// head and tail pointers, manipulated by ordinary (view-oblivious) code.
///
/// Same memory layout as [`ListMonoid`] views, so a `MyList` can be
/// installed as a reducer view with
/// [`RedHandle::<ListMonoid>::set_list`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MyList {
    /// Header location (`[head, tail, len]`).
    pub header: Loc,
}

impl MyList {
    /// Allocate an empty list.
    pub fn new(cx: &mut Ctx<'_>) -> MyList {
        MyList {
            header: cx.alloc(3),
        }
    }

    /// Append `x` (user-level operation).
    pub fn push_back(&self, cx: &mut Ctx<'_>, x: Word) {
        let node = cx.alloc(2);
        cx.write(node.at(VALUE), x);
        let tail = cx.read(self.header.at(TAIL));
        match dec_ptr(tail) {
            None => cx.write(self.header.at(HEAD), enc_ptr(node)),
            Some(t) => cx.write(t.at(NEXT), enc_ptr(node)),
        }
        cx.write(self.header.at(TAIL), enc_ptr(node));
        let len = cx.read(self.header.at(LEN));
        cx.write(self.header.at(LEN), len + 1);
    }

    /// Number of elements (reads the header).
    pub fn len(&self, cx: &mut Ctx<'_>) -> Word {
        cx.read(self.header.at(LEN))
    }

    /// True if empty.
    pub fn is_empty(&self, cx: &mut Ctx<'_>) -> bool {
        cx.read(self.header.at(HEAD)) == 0
    }

    /// The *shallow* copy constructor of Figure 1: a new header with its
    /// own head/tail pointers, but sharing the underlying chain of nodes —
    /// the bug that lets a reducer's `Reduce` race with a concurrent scan
    /// of the "copy".
    pub fn shallow_copy(&self, cx: &mut Ctx<'_>) -> MyList {
        let copy = cx.alloc(3);
        let h = cx.read(self.header.at(HEAD));
        let t = cx.read(self.header.at(TAIL));
        let l = cx.read(self.header.at(LEN));
        cx.write(copy.at(HEAD), h);
        cx.write(copy.at(TAIL), t);
        cx.write(copy.at(LEN), l);
        MyList { header: copy }
    }

    /// A correct deep copy: fresh nodes, no sharing.
    pub fn deep_copy(&self, cx: &mut Ctx<'_>) -> MyList {
        let copy = MyList::new(cx);
        let mut cur = dec_ptr(cx.read(self.header.at(HEAD)));
        while let Some(node) = cur {
            let v = cx.read(node.at(VALUE));
            copy.push_back(cx, v);
            cur = dec_ptr(cx.read(node.at(NEXT)));
        }
        copy
    }

    /// The `scan_list` of Figure 1: traverse until a null `next` pointer,
    /// reading every node.
    pub fn scan(&self, cx: &mut Ctx<'_>) -> Vec<Word> {
        let mut out = Vec::new();
        let mut cur = dec_ptr(cx.read(self.header.at(HEAD)));
        while let Some(node) = cur {
            out.push(cx.read(node.at(VALUE)));
            cur = dec_ptr(cx.read(node.at(NEXT)));
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
    fn appends_preserve_serial_order_under_steals() {
        for spec in [
            StealSpec::None,
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3])),
            StealSpec::Random {
                seed: 11,
                max_block: 12,
                steals_per_block: 3,
            },
        ] {
            let mut got = Vec::new();
            SerialEngine::with_spec(spec.clone()).run(|cx| {
                let list = ListMonoid::register(cx);
                for i in 1..=12 {
                    cx.spawn(move |cx| list.push_back(cx, i));
                }
                cx.sync();
                got = list.to_vec(cx);
            });
            assert_eq!(got, (1..=12).collect::<Vec<_>>(), "under {spec:?}");
        }
    }

    #[test]
    fn empty_views_concat_correctly() {
        // Children that never update leave no view; children interleaved
        // with non-updating ones must still concatenate in order.
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2, 3, 4]));
        let mut got = Vec::new();
        SerialEngine::with_spec(spec).run(|cx| {
            let list = ListMonoid::register(cx);
            cx.spawn(move |cx| list.push_back(cx, 1));
            cx.spawn(|_| {}); // no update
            cx.spawn(move |cx| list.push_back(cx, 2));
            cx.spawn(|_| {});
            cx.sync();
            got = list.to_vec(cx);
        });
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn mylist_push_and_scan() {
        SerialEngine::new().run(|cx| {
            let l = MyList::new(cx);
            assert!(l.is_empty(cx));
            for i in 0..5 {
                l.push_back(cx, i * 10);
            }
            assert_eq!(l.len(cx), 5);
            assert_eq!(l.scan(cx), vec![0, 10, 20, 30, 40]);
        });
    }

    #[test]
    fn shallow_copy_shares_nodes_deep_copy_does_not() {
        SerialEngine::new().run(|cx| {
            let l = MyList::new(cx);
            l.push_back(cx, 1);
            l.push_back(cx, 2);
            let shallow = l.shallow_copy(cx);
            let deep = l.deep_copy(cx);
            // Appending through the original is visible through the shallow
            // copy's shared chain (scan follows next pointers from head).
            l.push_back(cx, 3);
            assert_eq!(shallow.scan(cx), vec![1, 2, 3]);
            assert_eq!(deep.scan(cx), vec![1, 2]);
        });
    }

    #[test]
    fn set_list_makes_user_list_the_leftmost_view() {
        let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1]));
        let mut got = Vec::new();
        SerialEngine::with_spec(spec).run(|cx| {
            let seed = MyList::new(cx);
            seed.push_back(cx, 100);
            let list = ListMonoid::register(cx);
            list.set_list(cx, &seed);
            cx.spawn(move |cx| list.push_back(cx, 1));
            cx.spawn(move |cx| list.push_back(cx, 2));
            cx.sync();
            got = list.to_vec(cx);
            // The reduce spliced directly into the user's list: the seed
            // list observes the appends (this aliasing is what makes the
            // Figure-1 scenario racy when scanned concurrently).
            assert_eq!(seed.scan(cx), got);
        });
        assert_eq!(got, vec![100, 1, 2]);
    }
}
