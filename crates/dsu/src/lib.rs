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
//!   tagged with a [`BagKind`] and (for SP+) a view ID;
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

#[derive(Clone)]
struct Node {
    /// Parent pointer; a node is a root iff `parent == self`.
    parent: u32,
    /// Union-by-rank rank; only meaningful at roots.
    rank: u8,
    /// Bag metadata; only meaningful at roots that anchor a bag.
    info: BagInfo,
}

/// A forest of bags over frame-ID elements.
///
/// Elements ([`Elem`]) are created with [`BagForest::make_elem`]; bags
/// ([`Bag`]) are created empty or singleton with [`BagForest::make_bag`] /
/// [`BagForest::make_bag_with`]. Unions merge bags (or fold a lone element
/// into a bag); finds return the containing bag's [`BagInfo`].
///
/// # Example
///
/// ```
/// use rader_dsu::{BagForest, BagKind, ViewId};
///
/// let mut f = BagForest::new();
/// let g = f.make_elem();
/// let s = f.make_bag_with(BagKind::S, ViewId(0), g);
/// let p = f.make_bag(BagKind::P, ViewId(1));
/// assert_eq!(f.find_info(g).kind, BagKind::S);
/// // Union the S bag into the P bag: destination tag survives.
/// f.union_bags(p, s);
/// assert_eq!(f.find_info(g).kind, BagKind::P);
/// assert_eq!(f.find_info(g).vid, ViewId(1));
/// ```
#[derive(Clone)]
pub struct BagForest {
    nodes: Vec<Node>,
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
            rank: 0,
            info,
        });
        id
    }

    /// Create a fresh element, initially in no bag.
    ///
    /// Finding an element that was never inserted into a bag reports a
    /// default `S`/`NONE` tag; algorithms insert every frame ID into a bag
    /// at frame creation, so this case does not arise in practice.
    pub fn make_elem(&mut self) -> Elem {
        Elem(self.push_node(BagInfo {
            kind: BagKind::S,
            vid: ViewId::NONE,
        }))
    }

    /// `MakeBag(∅)`: create a new empty bag with the given tag and view ID.
    pub fn make_bag(&mut self, kind: BagKind, vid: ViewId) -> Bag {
        Bag(self.push_node(BagInfo { kind, vid }))
    }

    /// `MakeBag(e)`: create a new bag containing exactly element `e`.
    ///
    /// `e` must not already belong to a bag.
    pub fn make_bag_with(&mut self, kind: BagKind, vid: ViewId, e: Elem) -> Bag {
        let b = self.make_bag(kind, vid);
        self.union_elem(b, e);
        b
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
            self.nodes[a as usize].info = info;
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
        self.nodes[root as usize].info = info;
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
        let info = self.nodes[rd as usize].info;
        self.link(rd, rs, info);
    }

    /// Insert element `e` into bag `dst` (the bag's tag survives).
    ///
    /// If `e` already belongs to a bag, that whole bag is merged into `dst`;
    /// the algorithms never rely on this, but it keeps the operation total.
    pub fn union_elem(&mut self, dst: Bag, e: Elem) {
        let rd = self.find_root(dst.0);
        let re = self.find_root(e.0);
        let info = self.nodes[rd as usize].info;
        self.link(rd, re, info);
    }

    /// `FindBag(e)`: metadata of the bag currently containing element `e`.
    pub fn find_info(&mut self, e: Elem) -> BagInfo {
        let r = self.find_root(e.0);
        self.nodes[r as usize].info
    }

    /// Metadata of bag `b` itself (following unions).
    pub fn bag_info(&mut self, b: Bag) -> BagInfo {
        let r = self.find_root(b.0);
        self.nodes[r as usize].info
    }

    /// Overwrite the tag/view of the bag containing `b`.
    ///
    /// Used by algorithms that retag a bag in place (e.g. Peer-Set folding
    /// `F.SP` into `F.P` reuses the union path instead, but tests use this).
    pub fn set_bag_info(&mut self, b: Bag, info: BagInfo) {
        let r = self.find_root(b.0);
        self.nodes[r as usize].info = info;
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
        let e = f.make_elem();
        let _ = f.make_bag_with(BagKind::SS, ViewId(7), e);
        assert_eq!(
            f.find_info(e),
            BagInfo {
                kind: BagKind::SS,
                vid: ViewId(7)
            }
        );
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
        let e1 = f.make_elem();
        let e2 = f.make_elem();
        let s1 = f.make_bag_with(BagKind::S, ViewId(0), e1);
        let s2 = f.make_bag_with(BagKind::S, ViewId(0), e2);
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
        let e = f.make_elem();
        let sp = f.make_bag_with(BagKind::SP, ViewId::NONE, e);
        let p = f.make_bag(BagKind::P, ViewId::NONE);
        f.union_bags(p, sp);
        assert_eq!(f.find_info(e).kind, BagKind::P);
        let sp2 = f.make_bag(BagKind::SP, ViewId::NONE);
        assert!(!f.elem_in_bag(e, sp2));
    }

    #[test]
    fn elem_in_bag_tracks_membership() {
        let mut f = BagForest::new();
        let e = f.make_elem();
        let b = f.make_bag(BagKind::S, ViewId(0));
        assert!(!f.elem_in_bag(e, b));
        f.union_elem(b, e);
        assert!(f.elem_in_bag(e, b));
    }

    #[test]
    fn set_bag_info_overwrites() {
        let mut f = BagForest::new();
        let e = f.make_elem();
        let b = f.make_bag_with(BagKind::S, ViewId(1), e);
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
        let elems: Vec<Elem> = (0..1000).map(|_| f.make_elem()).collect();
        let root = f.make_bag(BagKind::P, ViewId(42));
        let mut prev = root;
        for &e in &elems {
            let b = f.make_bag_with(BagKind::S, ViewId::NONE, e);
            f.union_bags(prev, b);
            prev = b; // aliases the merged bag
        }
        for &e in &elems {
            assert_eq!(f.find_info(e).vid, ViewId(42));
        }
    }

    #[test]
    fn union_same_bag_is_noop() {
        let mut f = BagForest::new();
        let e = f.make_elem();
        let b = f.make_bag_with(BagKind::P, ViewId(5), e);
        f.union_bags(b, b);
        assert_eq!(f.find_info(e).vid, ViewId(5));
    }
}
