//! Shadow spaces.
//!
//! The detection algorithms keep, for every memory location the computation
//! accesses, the last relevant reader and writer (`O(v)` space, Theorems 1
//! and 5). Locations are dense arena indices, so the shadow space is a
//! flat vector grown on demand — the moral equivalent of the page-table
//! shadow memory real TSan-style tools use.

use rader_cilk::{AccessKind, FrameId, Loc, StrandId};
use rader_dsu::Elem;

/// One shadow entry: who last accessed the location, in which bag-forest
/// element, and with what context (for reporting).
#[derive(Clone, Copy, Debug)]
pub struct ShadowEntry {
    /// Bag-forest element of the accessor (frame or reduce invocation).
    pub elem: Elem,
    /// Frame for reporting.
    pub frame: FrameId,
    /// Strand for reporting.
    pub strand: StrandId,
    /// Access classification for reporting.
    pub kind: AccessKind,
}

/// A reader or writer shadow space over arena locations.
#[derive(Default)]
pub struct ShadowSpace {
    entries: Vec<Option<ShadowEntry>>,
}

impl ShadowSpace {
    /// An empty shadow space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `loc`, if any access was recorded.
    #[inline]
    pub fn get(&self, loc: Loc) -> Option<ShadowEntry> {
        self.entries.get(loc.index()).copied().flatten()
    }

    /// Record `entry` as the last accessor of `loc`.
    #[inline]
    pub fn set(&mut self, loc: Loc, entry: ShadowEntry) {
        self.grow_to(loc);
        self.entries[loc.index()] = Some(entry);
    }

    /// Make room for entries up to and including `loc`, so a run of
    /// `set`s below it grows the space once rather than once per element.
    #[inline]
    pub(crate) fn grow_to(&mut self, loc: Loc) {
        let i = loc.index();
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
    }

    /// Number of locations with a recorded access.
    pub fn occupied(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Forget every recorded access while keeping the backing storage,
    /// so a pooled detector re-running a same-shaped program writes into
    /// already-allocated slots instead of growing a fresh vector.
    pub fn reset(&mut self) {
        self.entries.fill(None);
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
    use rader_dsu::BagForest;

    #[test]
    fn set_get_roundtrip() {
        let mut f = BagForest::new();
        let e = f.make_elem();
        let mut s = ShadowSpace::new();
        assert!(s.get(Loc(5)).is_none());
        s.set(
            Loc(5),
            ShadowEntry {
                elem: e,
                frame: FrameId(1),
                strand: StrandId(2),
                kind: AccessKind::Oblivious,
            },
        );
        let got = s.get(Loc(5)).unwrap();
        assert_eq!(got.frame, FrameId(1));
        assert!(s.get(Loc(4)).is_none());
        assert_eq!(s.occupied(), 1);
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
