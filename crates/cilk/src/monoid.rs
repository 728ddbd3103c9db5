//! The untyped view-monoid interface the engine's view manager drives.
//!
//! A reducer is defined by an algebraic monoid `(T, ⊗, e)` (paper,
//! Section 2). The engine manages *views* — instances of `T` living in the
//! simulated arena — and invokes the monoid's operations at the points the
//! Cilk runtime would:
//!
//! * [`ViewMonoid::create_identity`] the first time a strand updates the
//!   reducer after a (simulated) steal;
//! * [`ViewMonoid::update`] for each user update;
//! * [`ViewMonoid::reduce`] when a dominated view is folded into the
//!   adjacent view that dominates it.
//!
//! All three run against a [`ViewMem`], which routes every load and store
//! through the engine's instrumentation layer: accesses are tagged with the
//! appropriate view-aware [`AccessKind`](crate::events::AccessKind), so
//! races *inside* view management — like the `Reduce` race of the paper's
//! Figure 1 — are visible to the detectors.
//!
//! Typed, ergonomic wrappers over this interface live in the
//! `rader-reducers` crate.

use crate::engine::Ctx;
use crate::mem::{Loc, Word};

/// Memory surface exposed to monoid implementations.
///
/// A [`ViewMonoid`] only ever sees a `ViewMem`, not the full execution
/// context: view code is serial by assumption (paper, Section 5) and may
/// only touch memory — it cannot spawn or sync.
pub struct ViewMem<'a, 't> {
    cx: &'a mut Ctx<'t>,
    /// Recording, or replaying a pruned trace: every access is noted
    /// (`Ctx::view_aware_access`).
    watched: bool,
}

impl<'a, 't> ViewMem<'a, 't> {
    /// Confine `cx` to memory operations for the duration of a monoid call.
    pub(crate) fn new(cx: &'a mut Ctx<'t>) -> Self {
        let watched = cx.watches_view_aware();
        ViewMem { cx, watched }
    }

    /// Instrumented read.
    #[inline]
    pub fn read(&mut self, loc: Loc) -> Word {
        if self.watched {
            self.cx.view_aware_access(loc);
        }
        self.cx.read(loc)
    }

    /// Instrumented write.
    #[inline]
    pub fn write(&mut self, loc: Loc, v: Word) {
        if self.watched {
            self.cx.view_aware_access(loc);
        }
        self.cx.write(loc, v)
    }

    /// Read `base + i`.
    #[inline]
    pub fn read_idx(&mut self, base: Loc, i: usize) -> Word {
        self.read(base.at(i))
    }

    /// Write `base + i`.
    #[inline]
    pub fn write_idx(&mut self, base: Loc, i: usize, v: Word) {
        self.write(base.at(i), v)
    }

    /// Allocate `n` zero-initialized words.
    #[inline]
    pub fn alloc(&mut self, n: usize) -> Loc {
        self.cx.alloc(n)
    }
}

/// Untyped monoid operations over arena-resident views.
///
/// A *view* is identified by the [`Loc`] of its root allocation; its layout
/// is private to the monoid implementation. Update operations are encoded
/// as small word slices (the typed wrappers do the encoding).
///
/// Implementations must be semantically associative for the reducer to
/// produce deterministic results; they need *not* be commutative — the
/// engine always folds views in serial order (the paper's key property of
/// reducer hyperobjects). `Send + Sync` because the Section-7 sweep's
/// threads share one recorded trace, monoids included.
pub trait ViewMonoid: Send + Sync {
    /// Allocate and initialize an identity view; returns its root location.
    fn create_identity(&self, m: &mut ViewMem<'_, '_>) -> Loc;

    /// Fold `right` into `left` (`left = left ⊗ right`), destroying the
    /// logical contents of `right`. `left` is always the older
    /// (dominating) view; `right` the newer (dominated) one.
    fn reduce(&self, m: &mut ViewMem<'_, '_>, left: Loc, right: Loc);

    /// Apply one update operation to `view`.
    fn update(&self, m: &mut ViewMem<'_, '_>, view: Loc, op: &[Word]);

    /// Human-readable monoid name, for race reports and debugging.
    fn name(&self) -> &'static str {
        "monoid"
    }
}
