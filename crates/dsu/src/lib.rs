#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Disjoint-set ("bags") data structure for the Rader race detector.
//!
//! The Peer-Set, SP-bags, and SP+ algorithms of Lee and Schardl (SPAA'15) all
//! maintain, per active Cilk frame, a handful of *bags*: sets of IDs of
//! completed frame instantiations stored in a fast disjoint-set data
//! structure. The operations required are
//!
//! * `MakeBag` — create a new bag, either empty or containing one frame ID,
//!   tagged with a [`BagKind`] and (for SP+) a view ID. A frame ID and its
//!   singleton bag share one node ([`BagForest::make_elem_bag`]), so
//!   placing a new frame ID costs one node and no union;
//! * `Union` — merge one bag into another, with the *destination* bag's tag
//!   and view ID surviving (paper, Fig. 6 caption);
//! * `FindBag` — given a frame ID, find the bag currently containing it and
//!   return its tag and view ID.
//!
//! [`BagForest`] implements these with union by rank and path compression,
//! giving the interleaved-sequence bound of `O(m α(m, n))` that underlies the
//! paper's Theorems 1 and 5.
//!
//! The crate also ships [`fxhash`], a small non-cryptographic hasher used by
//! the detector's shadow spaces (implemented in-repo to avoid an extra
//! dependency).

pub mod fxhash;

/// Classification of a bag, as used by the detection algorithms.
///
/// * The SP-bags and SP+ algorithms use [`BagKind::S`] and [`BagKind::P`].
/// * The Peer-Set algorithm uses [`BagKind::SS`], [`BagKind::SP`], and
///   [`BagKind::P`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BagKind {
    /// Series bag: descendants serial with the currently executing strand.
    S,
    /// Peer-Set `SS` bag: descendants whose first strand shares the peer set
    /// of the enclosing frame's first strand.
    SS,
    /// Peer-Set `SP` bag: descendants whose first strand shares the peer set
    /// of the enclosing frame's last executed continuation strand.
    SP,
    /// Parallel bag: descendants logically parallel with the currently
    /// executing strand.
    P,
}

impl BagKind {
    /// True for the `P` kind; both Peer-Set and SP+ race checks reduce to
    /// "is the last accessor's bag a P bag".
    #[inline]
    pub fn is_p(self) -> bool {
        matches!(self, BagKind::P)
    }
}

/// A view ID, tagging P bags (and S bags) in the SP+ algorithm.
///
/// View IDs name reducer views created by (simulated) steals. The special
/// value [`ViewId::NONE`] is used by algorithms that do not track views
/// (Peer-Set, SP-bags).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub u32);

impl ViewId {
    /// Sentinel for "no view" (algorithms that ignore views).
    pub const NONE: ViewId = ViewId(u32::MAX);
}

/// Handle to a bag in a [`BagForest`].
///
/// A bag handle stays valid for the lifetime of the forest, even after the
/// bag is unioned into another bag (it then aliases the merged bag).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Bag(u32);

/// Handle to an element (a frame ID's node) in a [`BagForest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Elem(u32);

impl Elem {
    /// Raw index of this element, stable for the forest's lifetime.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-root bag metadata: the bag's kind tag and its view ID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BagInfo {
    /// The bag's kind tag.
    pub kind: BagKind,
    /// The bag's view ID (SP+; `ViewId::NONE` elsewhere).
    pub vid: ViewId,
}

/// One forest node, 12 bytes: the bag metadata is stored flat, since a
/// nested `BagInfo` would pad the node to 16 (SP+ keeps two forests per
/// sweep worker, DESIGN.md §5g).
#[derive(Clone, Copy)]
struct Node {
    /// Parent pointer; a node is a root iff `parent == self`.
    parent: u32,
    /// Bag metadata, only meaningful at roots that anchor a bag: the
    /// view ID and the kind tag.
    vid: ViewId,
    kind: BagKind,
    /// Union-by-rank rank; only meaningful at roots.
    rank: u8,
}

const _: () = assert!(std::mem::size_of::<Node>() == 12);

impl Node {
    #[inline]
    fn info(&self) -> BagInfo {
        BagInfo {
            kind: self.kind,
            vid: self.vid,
        }
    }

    #[inline]
    fn set_info(&mut self, info: BagInfo) {
        self.kind = info.kind;
        self.vid = info.vid;
    }
}

/// A forest of bags over frame-ID elements.
///
/// Empty bags ([`Bag`]) are created with [`BagForest::make_bag`]. An
/// element ([`Elem`]) is created together with its singleton bag by
/// [`BagForest::make_elem_bag`]: one node is both the element and the
/// bag's anchor. Unions merge bags; finds return the containing bag's
/// [`BagInfo`].
///
/// # Example
///
/// ```
/// use rader_dsu::{BagForest, BagKind, ViewId};
///
/// let mut f = BagForest::new();
/// let (g, s) = f.make_elem_bag(BagKind::S, ViewId(0));
/// let p = f.make_bag(BagKind::P, ViewId(1));
/// assert_eq!(f.find_info(g).kind, BagKind::S);
/// // Union the S bag into the P bag: destination tag survives.
/// f.union_bags(p, s);
/// assert_eq!(f.find_info(g).kind, BagKind::P);
/// assert_eq!(f.find_info(g).vid, ViewId(1));
/// ```
pub struct BagForest {
    nodes: Vec<Node>,
}

impl Clone for BagForest {
    fn clone(&self) -> Self {
        BagForest {
            nodes: self.nodes.clone(),
        }
    }

    /// Reuses `self`'s buffer (SP+ copies its forest into a pooled slot
    /// once per forked sweep spec).
    fn clone_from(&mut self, src: &Self) {
        self.nodes.clone_from(&src.nodes);
    }
}

impl BagForest {
    /// Create an empty forest.
    pub fn new() -> Self {
        BagForest { nodes: Vec::new() }
    }

    /// Create an empty forest with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        BagForest {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Number of nodes (elements + bag anchors) allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Drop every element and bag while keeping the node storage's
    /// capacity, so a pooled detector can run many same-shaped programs
    /// without re-growing its forest each time. All outstanding [`Bag`]
    /// and [`Elem`] handles are invalidated.
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// True if no nodes have been allocated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push_node(&mut self, info: BagInfo) -> u32 {
        let id = self.nodes.len() as u32;
        assert!(id != u32::MAX, "BagForest node limit exceeded");
        self.nodes.push(Node {
            parent: id,
            vid: info.vid,
            kind: info.kind,
            rank: 0,
        });
        id
    }

    /// `MakeBag(∅)`: create a new empty bag with the given tag and view ID.
    pub fn make_bag(&mut self, kind: BagKind, vid: ViewId) -> Bag {
        Bag(self.push_node(BagInfo { kind, vid }))
    }

    /// `MakeBag(e)` for a fresh element `e`: create `e` and the bag that
    /// holds exactly `e`, with the given tag and view ID.
    ///
    /// One node serves as both, so this costs one node and no union. Both
    /// handles name that node, so the bag handle aliases the bag holding
    /// `e` through every later union.
    pub fn make_elem_bag(&mut self, kind: BagKind, vid: ViewId) -> (Elem, Bag) {
        let id = self.push_node(BagInfo { kind, vid });
        (Elem(id), Bag(id))
    }

    #[inline]
    fn find_root(&mut self, mut x: u32) -> u32 {
        // Find with path halving: every node on the path points to its
        // grandparent, giving the same amortized α bound as full compression
        // with a single pass.
        loop {
            let p = self.nodes[x as usize].parent;
            if p == x {
                return x;
            }
            let gp = self.nodes[p as usize].parent;
            self.nodes[x as usize].parent = gp;
            x = gp;
        }
    }

    #[inline]
    fn link(&mut self, a: u32, b: u32, info: BagInfo) -> u32 {
        // Union by rank; the caller decides which side's info survives.
        debug_assert_eq!(self.nodes[a as usize].parent, a);
        debug_assert_eq!(self.nodes[b as usize].parent, b);
        if a == b {
            self.nodes[a as usize].set_info(info);
            return a;
        }
        let (ra, rb) = (self.nodes[a as usize].rank, self.nodes[b as usize].rank);
        let root = if ra < rb {
            self.nodes[a as usize].parent = b;
            b
        } else {
            self.nodes[b as usize].parent = a;
            if ra == rb {
                self.nodes[a as usize].rank += 1;
            }
            a
        };
        self.nodes[root as usize].set_info(info);
        root
    }

    /// `dst ∪= src`: union bag `src` into bag `dst`.
    ///
    /// The destination's tag and view ID survive (SP+ requirement: "when a P
    /// bag is unioned into another P bag ... the view ID of the destination
    /// P bag is preserved"). Both handles remain valid aliases of the merged
    /// bag afterwards.
    pub fn union_bags(&mut self, dst: Bag, src: Bag) {
        let rd = self.find_root(dst.0);
        let rs = self.find_root(src.0);
        let info = self.nodes[rd as usize].info();
        self.link(rd, rs, info);
    }

    /// `FindBag(e)`: metadata of the bag currently containing element `e`.
    pub fn find_info(&mut self, e: Elem) -> BagInfo {
        let r = self.find_root(e.0);
        self.nodes[r as usize].info()
    }

    /// Metadata of bag `b` itself (following unions).
    pub fn bag_info(&mut self, b: Bag) -> BagInfo {
        let r = self.find_root(b.0);
        self.nodes[r as usize].info()
    }

    /// Overwrite the tag/view of the bag containing `b`.
    ///
    /// Used by algorithms that retag a bag in place (e.g. Peer-Set folding
    /// `F.SP` into `F.P` reuses the union path instead, but tests use this).
    pub fn set_bag_info(&mut self, b: Bag, info: BagInfo) {
        let r = self.find_root(b.0);
        self.nodes[r as usize].set_info(info);
    }

    /// True if `e` and `f` currently belong to the same bag.
    pub fn same_bag_elems(&mut self, e: Elem, f: Elem) -> bool {
        self.find_root(e.0) == self.find_root(f.0)
    }

    /// True if element `e` currently belongs to bag `b`.
    pub fn elem_in_bag(&mut self, e: Elem, b: Bag) -> bool {
        self.find_root(e.0) == self.find_root(b.0)
    }

    /// True if bags `a` and `b` have been merged into one.
    pub fn same_bag(&mut self, a: Bag, b: Bag) -> bool {
        self.find_root(a.0) == self.find_root(b.0)
    }
}

impl Default for BagForest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_bag_reports_its_tag() {
        let mut f = BagForest::new();
        let (e, b) = f.make_elem_bag(BagKind::SS, ViewId(7));
        let info = BagInfo {
            kind: BagKind::SS,
            vid: ViewId(7),
        };
        assert_eq!(f.find_info(e), info);
        assert_eq!(f.bag_info(b), info);
        assert!(f.elem_in_bag(e, b));
        assert_eq!(f.len(), 1, "element and bag share one node");
    }

    #[test]
    fn elem_bag_union_is_destination_wins_both_ways() {
        // As destination: the singleton's tag survives and the other
        // bag's elements join it.
        let mut f = BagForest::new();
        let (e, s) = f.make_elem_bag(BagKind::S, ViewId(1));
        let (e2, s2) = f.make_elem_bag(BagKind::P, ViewId(2));
        f.union_bags(s, s2);
        assert_eq!(f.find_info(e2).kind, BagKind::S);
        assert_eq!(f.find_info(e2).vid, ViewId(1));
        assert_eq!(f.find_info(e).vid, ViewId(1));
        // As source: the destination's tag wins over the singleton's.
        let mut f = BagForest::new();
        let (e, s) = f.make_elem_bag(BagKind::S, ViewId(1));
        let p = f.make_bag(BagKind::P, ViewId(2));
        f.union_bags(p, s);
        let info = BagInfo {
            kind: BagKind::P,
            vid: ViewId(2),
        };
        assert_eq!(f.find_info(e), info);
        assert_eq!(f.bag_info(s), info, "the bag handle aliases the merge");
    }

    #[test]
    fn elem_follows_its_bag_into_a_p_bag() {
        // SP+'s frame protocol: a frame's element starts in its S bag; at
        // return the S bag is unioned into the parent's P bag, which then
        // takes further unions. The element must find that P bag.
        let mut f = BagForest::new();
        let p = f.make_bag(BagKind::P, ViewId(4));
        let (e, s) = f.make_elem_bag(BagKind::S, ViewId(4));
        f.union_bags(p, s);
        let (e2, s2) = f.make_elem_bag(BagKind::S, ViewId(5));
        f.union_bags(p, s2);
        for x in [e, e2] {
            assert!(f.elem_in_bag(x, p));
            assert_eq!(f.find_info(x).kind, BagKind::P);
            assert_eq!(f.find_info(x).vid, ViewId(4));
        }
        assert!(f.same_bag_elems(e, e2));
    }

    #[test]
    fn empty_bag_union_keeps_destination_tag() {
        let mut f = BagForest::new();
        let a = f.make_bag(BagKind::P, ViewId(1));
        let b = f.make_bag(BagKind::S, ViewId(2));
        f.union_bags(a, b);
        assert_eq!(f.bag_info(a).kind, BagKind::P);
        assert_eq!(f.bag_info(a).vid, ViewId(1));
        assert_eq!(f.bag_info(b).kind, BagKind::P);
        assert!(f.same_bag(a, b));
    }

    #[test]
    fn destination_vid_preserved_across_chain_of_unions() {
        // Mirrors the SP+ reduce discipline: repeatedly union the newer
        // (topmost) P bag into the older one; the oldest vid must survive.
        let mut f = BagForest::new();
        let bags: Vec<Bag> = (0..8).map(|i| f.make_bag(BagKind::P, ViewId(i))).collect();
        for i in (1..8).rev() {
            f.union_bags(bags[i - 1], bags[i]);
        }
        for &b in &bags {
            assert_eq!(f.bag_info(b).vid, ViewId(0));
        }
    }

    #[test]
    fn elements_follow_their_bag_through_unions() {
        let mut f = BagForest::new();
        let (e1, s1) = f.make_elem_bag(BagKind::S, ViewId(0));
        let (e2, s2) = f.make_elem_bag(BagKind::S, ViewId(0));
        let p = f.make_bag(BagKind::P, ViewId(3));
        f.union_bags(p, s1);
        assert_eq!(f.find_info(e1).kind, BagKind::P);
        assert_eq!(f.find_info(e2).kind, BagKind::S);
        f.union_bags(p, s2);
        assert_eq!(f.find_info(e2).kind, BagKind::P);
        assert!(f.same_bag_elems(e1, e2));
        assert_eq!(f.find_info(e2).vid, ViewId(3));
    }

    #[test]
    fn retagging_via_union_into_new_bag() {
        // Peer-Set "F.P ∪= F.SP" then "F.SP = MakeBag(∅)": the old SP bag's
        // elements become P-kind, and a fresh SP bag starts empty.
        let mut f = BagForest::new();
        let (e, sp) = f.make_elem_bag(BagKind::SP, ViewId::NONE);
        let p = f.make_bag(BagKind::P, ViewId::NONE);
        f.union_bags(p, sp);
        assert_eq!(f.find_info(e).kind, BagKind::P);
        let sp2 = f.make_bag(BagKind::SP, ViewId::NONE);
        assert!(!f.elem_in_bag(e, sp2));
    }

    #[test]
    fn set_bag_info_overwrites() {
        let mut f = BagForest::new();
        let (e, b) = f.make_elem_bag(BagKind::S, ViewId(1));
        f.set_bag_info(
            b,
            BagInfo {
                kind: BagKind::P,
                vid: ViewId(9),
            },
        );
        assert_eq!(
            f.find_info(e),
            BagInfo {
                kind: BagKind::P,
                vid: ViewId(9)
            }
        );
    }

    #[test]
    fn deep_union_chain_is_flat_after_finds() {
        let mut f = BagForest::new();
        let root = f.make_bag(BagKind::P, ViewId(42));
        let mut prev = root;
        let mut elems = Vec::new();
        for _ in 0..1000 {
            let (e, b) = f.make_elem_bag(BagKind::S, ViewId::NONE);
            f.union_bags(prev, b);
            prev = b; // aliases the merged bag
            elems.push(e);
        }
        for &e in &elems {
            assert_eq!(f.find_info(e).vid, ViewId(42));
        }
    }

    #[test]
    fn union_same_bag_is_noop() {
        let mut f = BagForest::new();
        let (e, b) = f.make_elem_bag(BagKind::P, ViewId(5));
        f.union_bags(b, b);
        assert_eq!(f.find_info(e).vid, ViewId(5));
    }
}
