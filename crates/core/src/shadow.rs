//! The shadow space.
//!
//! The detection algorithms keep, for every memory location the computation
//! accesses, the last relevant reader and writer (`O(v)` space, Theorems 1
//! and 5). Locations are dense arena indices, so the shadow space is a
//! flat vector grown on demand — the moral equivalent of the page-table
//! shadow memory real TSan-style tools use. Each location's reader and
//! writer entry share one 32-byte [`ShadowCell`], so a check touches one
//! cache line and a sweep's pooled detector, which also keeps a copy for
//! the next spec (DESIGN.md §5g), holds 32 bytes per location, not 48.

use std::num::NonZeroU64;

use rader_cilk::{AccessKind, FrameId, Loc, StrandId};
use rader_dsu::Elem;

/// One shadow entry: who last accessed the location, in which bag-forest
/// element, and with what context (for reporting).
///
/// Packed into 16 bytes: the strand and the access kind share one word,
/// `strand << 3 | kind << 1 | 1`, which is never zero, so an empty half
/// of a [`ShadowCell`] (`None`) costs no extra space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowEntry {
    elem: Elem,
    frame: FrameId,
    tag: NonZeroU64,
}

impl ShadowEntry {
    /// The largest strand an entry can hold (61 bits).
    pub const MAX_STRAND: u64 = (1 << 61) - 1;

    /// Pack an entry.
    ///
    /// # Panics
    ///
    /// If `strand` exceeds [`ShadowEntry::MAX_STRAND`]: it is never
    /// truncated into some other strand.
    #[inline]
    pub fn new(elem: Elem, frame: FrameId, strand: StrandId, kind: AccessKind) -> Self {
        // A constant message: formatting the strand into it made the hot
        // access path measurably slower, even out of line.
        assert!(
            strand.0 <= Self::MAX_STRAND,
            "a strand does not fit a shadow entry's 61 bits"
        );
        let kind = match kind {
            AccessKind::Oblivious => 0,
            AccessKind::Update => 1,
            AccessKind::CreateIdentity => 2,
            AccessKind::Reduce => 3,
        };
        let tag = NonZeroU64::new(strand.0 << 3 | kind << 1 | 1).expect("the low bit is set");
        ShadowEntry { elem, frame, tag }
    }

    /// Bag-forest element of the accessor (frame or reduce invocation).
    #[inline]
    pub fn elem(self) -> Elem {
        self.elem
    }

    /// Frame for reporting.
    #[inline]
    pub fn frame(self) -> FrameId {
        self.frame
    }

    /// Strand for reporting.
    #[inline]
    pub fn strand(self) -> StrandId {
        StrandId(self.tag.get() >> 3)
    }

    /// Access classification for reporting.
    #[inline]
    pub fn kind(self) -> AccessKind {
        match (self.tag.get() >> 1) & 3 {
            0 => AccessKind::Oblivious,
            1 => AccessKind::Update,
            2 => AccessKind::CreateIdentity,
            _ => AccessKind::Reduce,
        }
    }
}

/// The last reader and the last writer of one location.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowCell {
    /// The reader entry, if a read was recorded.
    pub reader: Option<ShadowEntry>,
    /// The writer entry, if a write was recorded.
    pub writer: Option<ShadowEntry>,
}

const _: () = assert!(std::mem::size_of::<ShadowCell>() == 32);

/// The reader and writer shadow entries of every arena location, one
/// [`ShadowCell`] per location.
///
/// Every cell at or past `dirty`, the end of the extent the current run
/// has grown into, is empty. So a reset clears and a copy moves only that
/// extent, not every location an earlier run of a pooled detector
/// touched, and the vector itself never shrinks.
#[derive(Default)]
pub struct ShadowSpace {
    cells: Vec<ShadowCell>,
    dirty: usize,
}

impl Clone for ShadowSpace {
    fn clone(&self) -> Self {
        let mut c = ShadowSpace::default();
        c.clone_from(self);
        c
    }

    /// Reuses `self`'s buffer.
    fn clone_from(&mut self, src: &Self) {
        let n = src.dirty;
        if self.cells.len() < n {
            self.cells.resize(n, ShadowCell::default());
        }
        self.cells[..n].copy_from_slice(&src.cells[..n]);
        if self.dirty > n {
            self.cells[n..self.dirty].fill(ShadowCell::default());
        }
        self.dirty = n;
    }
}

impl ShadowSpace {
    /// An empty shadow space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries for `loc` (both `None` if no access was recorded).
    #[inline]
    pub fn get(&self, loc: Loc) -> ShadowCell {
        self.cells.get(loc.index()).copied().unwrap_or_default()
    }

    /// The entries for `loc`, to update in place. A detector calls
    /// [`ShadowSpace::grow_to`] once per hook, with the hook's highest
    /// location, before it updates cells.
    ///
    /// # Panics
    ///
    /// If `loc` is past every location passed to `grow_to`.
    #[inline]
    pub(crate) fn cell_mut(&mut self, loc: Loc) -> &mut ShadowCell {
        &mut self.cells[loc.index()]
    }

    /// Make room for cells up to and including `loc` and count them in
    /// the extent a reset clears and a copy moves. One compare when `loc`
    /// is inside the extent already.
    #[inline]
    pub(crate) fn grow_to(&mut self, loc: Loc) {
        if loc.index() >= self.dirty {
            self.extend_to(loc);
        }
    }

    #[inline(never)]
    fn extend_to(&mut self, loc: Loc) {
        let i = loc.index();
        if i >= self.cells.len() {
            self.cells.resize(i + 1, ShadowCell::default());
        }
        self.dirty = i + 1;
    }

    /// Number of locations with a recorded access.
    pub fn occupied(&self) -> usize {
        self.cells[..self.dirty]
            .iter()
            .filter(|c| c.reader.is_some() || c.writer.is_some())
            .count()
    }

    /// Forget every recorded access while keeping the backing storage,
    /// so a pooled detector re-running a same-shaped program writes into
    /// already-allocated slots instead of growing a fresh vector.
    pub fn reset(&mut self) {
        self.cells[..self.dirty].fill(ShadowCell::default());
        self.dirty = 0;
    }
}

/// A set of arena locations, one bit per location, grown on demand.
///
/// The detectors keep at most one determinacy race per location; this
/// set answers "already reported?" in O(1) where a scan of the report
/// made a run with `R` racy locations cost O(R²).
#[derive(Default)]
pub(crate) struct LocSet {
    words: Vec<u64>,
}

impl Clone for LocSet {
    fn clone(&self) -> Self {
        LocSet {
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s buffer.
    fn clone_from(&mut self, src: &Self) {
        self.words.clone_from(&src.words);
    }
}

impl LocSet {
    /// An empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add `loc`; true if it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, loc: Loc) -> bool {
        let (w, bit) = (loc.index() / 64, 1u64 << (loc.index() % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Remove `loc`. Detectors empty the set this way, one reported
    /// location at a time, so a reset costs O(races), not O(arena).
    #[inline]
    pub(crate) fn remove(&mut self, loc: Loc) {
        if let Some(w) = self.words.get_mut(loc.index() / 64) {
            *w &= !(1u64 << (loc.index() % 64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_dsu::{BagForest, BagKind, ViewId};

    fn entry(strand: u64, kind: AccessKind) -> ShadowEntry {
        let mut f = BagForest::new();
        let (e, _) = f.make_elem_bag(BagKind::S, ViewId::NONE);
        ShadowEntry::new(e, FrameId(7), StrandId(strand), kind)
    }

    fn cell(s: &mut ShadowSpace, loc: u32) -> &mut ShadowCell {
        s.grow_to(Loc(loc));
        s.cell_mut(Loc(loc))
    }

    const KINDS: [AccessKind; 4] = [
        AccessKind::Oblivious,
        AccessKind::Update,
        AccessKind::CreateIdentity,
        AccessKind::Reduce,
    ];

    #[test]
    fn set_get_roundtrip() {
        let mut s = ShadowSpace::new();
        assert_eq!(s.get(Loc(5)), ShadowCell::default());
        cell(&mut s, 5).writer = Some(entry(2, AccessKind::Oblivious));
        let got = s.get(Loc(5)).writer.unwrap();
        assert_eq!(got.frame(), FrameId(7));
        assert_eq!(got.strand(), StrandId(2));
        assert_eq!(s.get(Loc(4)), ShadowCell::default());
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn every_kind_round_trips_in_both_halves() {
        for kind in KINDS {
            for strand in [0, 1, 12345, ShadowEntry::MAX_STRAND] {
                let e = entry(strand, kind);
                let mut s = ShadowSpace::new();
                cell(&mut s, 3).reader = Some(e);
                cell(&mut s, 9).writer = Some(e);
                for got in [s.get(Loc(3)).reader, s.get(Loc(9)).writer] {
                    let got = got.unwrap();
                    assert_eq!(got, e);
                    assert_eq!((got.strand(), got.kind()), (StrandId(strand), kind));
                    assert_eq!((got.elem(), got.frame()), (e.elem(), FrameId(7)));
                }
            }
        }
    }

    #[test]
    fn setting_one_half_leaves_the_other_intact() {
        let (r, w) = (entry(4, AccessKind::Update), entry(5, AccessKind::Reduce));
        let mut s = ShadowSpace::new();
        cell(&mut s, 0).reader = Some(r);
        cell(&mut s, 0).writer = Some(w);
        assert_eq!(s.get(Loc(0)).reader, Some(r));
        cell(&mut s, 0).reader = Some(w);
        assert_eq!(s.get(Loc(0)).writer, Some(w));
        cell(&mut s, 0).writer = Some(r);
        assert_eq!(
            s.get(Loc(0)),
            ShadowCell {
                reader: Some(w),
                writer: Some(r)
            }
        );
    }

    #[test]
    fn reset_empties_both_halves() {
        let mut s = ShadowSpace::new();
        cell(&mut s, 1).reader = Some(entry(1, AccessKind::Oblivious));
        cell(&mut s, 2).writer = Some(entry(2, AccessKind::CreateIdentity));
        assert_eq!(s.occupied(), 2);
        s.reset();
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.get(Loc(1)), ShadowCell::default());
        assert_eq!(s.get(Loc(2)), ShadowCell::default());
    }

    #[test]
    fn a_copy_holds_exactly_the_source_entries() {
        let mut src = ShadowSpace::new();
        cell(&mut src, 2).writer = Some(entry(1, AccessKind::Update));
        let mut dst = ShadowSpace::new();
        cell(&mut dst, 9).reader = Some(entry(3, AccessKind::Oblivious));
        cell(&mut dst, 2).reader = Some(entry(4, AccessKind::Reduce));
        dst.clone_from(&src);
        assert_eq!(dst.get(Loc(2)), src.get(Loc(2)));
        assert_eq!(dst.get(Loc(9)), ShadowCell::default());
        assert_eq!(dst.occupied(), 1);
        cell(&mut dst, 12).reader = Some(entry(5, AccessKind::Oblivious));
        src.clone_from(&dst);
        assert_eq!(src.get(Loc(12)), dst.get(Loc(12)));
        assert_eq!(src.occupied(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_strand_past_61_bits_fails_loudly() {
        let _ = entry(ShadowEntry::MAX_STRAND + 1, AccessKind::Oblivious);
    }

    #[test]
    fn loc_set_inserts_once_until_removed() {
        let mut s = LocSet::new();
        assert!(s.insert(Loc(3)));
        assert!(s.insert(Loc(200)));
        assert!(!s.insert(Loc(3)));
        assert!(!s.insert(Loc(200)));
        s.remove(Loc(200));
        s.remove(Loc(9_999)); // never inserted, beyond the storage
        assert!(s.insert(Loc(200)));
        assert!(!s.insert(Loc(3)));
    }
}
