//! Simulated shared memory.
//!
//! Programs running on the simulator read and write abstract *locations*
//! ([`Loc`]) in a bump-allocated arena of machine words. Routing all memory
//! traffic through the arena is what lets the engine interpose on every
//! access — the role ThreadSanitizer's compiler instrumentation played for
//! the paper's Rader prototype. Reducer view data (list nodes, bag pennants,
//! output-stream buffers) lives in the *same* arena, so view-aware code is
//! instrumented identically to user code.

/// A machine word in the simulated memory.
pub type Word = i64;

/// An abstract memory location (an index into the [`MemArena`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u32);

impl Loc {
    /// The location `self + i`: element `i` of an allocation starting here.
    #[inline]
    pub fn at(self, i: usize) -> Loc {
        Loc(self.0 + i as u32)
    }

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bump-allocated arena of words.
///
/// Allocations are never freed (the simulator models one program execution,
/// so peak footprint equals total footprint); `alloc` zero-initializes.
#[derive(Clone, Default)]
pub struct MemArena {
    cells: Vec<Word>,
}

impl MemArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        MemArena { cells: Vec::new() }
    }

    /// Create an arena with reserved capacity (words).
    pub fn with_capacity(words: usize) -> Self {
        MemArena {
            cells: Vec::with_capacity(words),
        }
    }

    /// Allocate `n` zero-initialized words; returns the first location.
    #[inline]
    pub fn alloc(&mut self, n: usize) -> Loc {
        let base = self.cells.len();
        assert!(
            base + n <= u32::MAX as usize,
            "simulated arena exceeds 2^32 words"
        );
        self.cells.resize(base + n, 0);
        Loc(base as u32)
    }

    /// Read the word at `loc`.
    #[inline]
    pub fn get(&self, loc: Loc) -> Word {
        self.cells[loc.index()]
    }

    /// Write the word at `loc`.
    #[inline]
    pub fn set(&mut self, loc: Loc, v: Word) {
        self.cells[loc.index()] = v;
    }

    /// The `len` words starting at `base`.
    #[inline]
    pub(crate) fn slice(&self, base: Loc, len: usize) -> &[Word] {
        &self.cells[base.index()..base.index() + len]
    }

    /// Write `values` to the consecutive words starting at `base`.
    #[inline]
    pub(crate) fn set_slice(&mut self, base: Loc, values: &[Word]) {
        self.cells[base.index()..base.index() + values.len()].copy_from_slice(values);
    }

    /// Number of words allocated so far.
    #[inline]
    pub fn used(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed_and_contiguous() {
        let mut a = MemArena::new();
        let p = a.alloc(4);
        let q = a.alloc(2);
        assert_eq!(q.index(), p.index() + 4);
        for i in 0..4 {
            assert_eq!(a.get(p.at(i)), 0);
        }
    }

    #[test]
    fn read_write_roundtrip() {
        let mut a = MemArena::new();
        let p = a.alloc(3);
        a.set(p.at(1), -7);
        assert_eq!(a.get(p.at(1)), -7);
        assert_eq!(a.get(p.at(0)), 0);
        assert_eq!(a.used(), 3);
    }

    #[test]
    fn slices_match_elementwise_access() {
        let mut a = MemArena::new();
        let p = a.alloc(5);
        a.set_slice(p.at(1), &[4, 5, 6]);
        assert_eq!(a.slice(p, 5), &[0, 4, 5, 6, 0]);
        assert_eq!(a.get(p.at(3)), 6);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        let mut a = MemArena::new();
        let p = a.alloc(2);
        a.set_slice(p.at(1), &[1, 2]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let a = MemArena::new();
        let _ = a.get(Loc(0));
    }
}
